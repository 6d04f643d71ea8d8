//! Table II: the remaining-work ratio `r = E[R]/E[N]`.
//!
//! `R(t)` sums, over all packets in the system, the number of services they
//! still need; `N(t)` counts the packets. The paper measures
//! `r = E[R]/E[N]` by simulation (Table II) and observes that `r` depends
//! only weakly on ρ and satisfies `r/n̄₂ < 0.7` — evidence that the
//! Theorem 12 constant `d̄` is pessimistic.

use super::{Scale, TextTable};
use crate::sweep::SweepCellReport;
use meshbound_queueing::load::Load;
use meshbound_sim::Scenario;

/// The paper's printed Table II: `(n, ρ, r)`. The `n̄` column of the paper
/// (3.333, 6.667, 10, 13.333) is `n̄₂ = 2n/3`.
pub const PRINTED: &[(usize, f64, f64)] = &[
    (5, 0.2, 2.568),
    (5, 0.5, 2.574),
    (5, 0.8, 2.600),
    (5, 0.9, 2.610),
    (5, 0.99, 2.613),
    (10, 0.2, 4.665),
    (10, 0.5, 4.694),
    (10, 0.8, 4.746),
    (10, 0.9, 4.775),
    (10, 0.99, 4.776),
    (15, 0.2, 6.755),
    (15, 0.5, 6.796),
    (15, 0.8, 6.875),
    (15, 0.9, 6.913),
    (15, 0.99, 6.924),
    (20, 0.2, 8.841),
    (20, 0.5, 8.887),
    (20, 0.8, 8.982),
    (20, 0.9, 9.041),
    (20, 0.99, 9.029),
];

/// The Table II scenario grid at `scale` (historical per-cell seeds).
#[must_use]
pub fn cells(scale: &Scale) -> Vec<Scenario> {
    PRINTED
        .iter()
        .map(|&(n, rho, _)| {
            Scenario::mesh(n)
                .load(Load::TableRho(rho))
                .horizon(scale.horizon(rho))
                .warmup(scale.warmup(rho))
                .seed(scale.seed ^ 0xBEE5 ^ ((n as u64) << 24) ^ ((rho * 1000.0) as u64))
        })
        .collect()
}

/// Renders the executed [`cells`] under the table's title: `r` from each
/// cell's statistics, its light-load value from the cell's bounds report.
#[must_use]
pub fn render(cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&[
        "n",
        "n̄₂",
        "rho",
        "r(Sim)",
        "r(light-load)",
        "paper r",
        "r/n̄₂",
    ]);
    for (cell, &(n, rho, printed)) in cells.iter().zip(PRINTED) {
        let nbar2 = 2.0 * n as f64 / 3.0;
        t.row(vec![
            n.to_string(),
            format!("{nbar2:.3}"),
            format!("{rho:.2}"),
            format!("{:.3}", cell.r_ratio),
            format!("{:.3}", cell.bounds.light_load_r),
            format!("{printed:.3}"),
            format!("{:.3}", cell.r_ratio / nbar2),
        ]);
    }
    format!("Table II — r = E[R]/E[N]\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshbound_queueing::remaining::light_load_r;

    #[test]
    fn light_load_closed_form_matches_printed_low_rho() {
        for &(n, rho, printed) in PRINTED {
            if rho == 0.2 {
                let r0 = light_load_r(n);
                assert!(
                    (r0 - printed).abs() / printed < 0.012,
                    "n={n}: {r0} vs {printed}"
                );
            }
        }
    }

    #[test]
    fn printed_r_increases_weakly_with_rho() {
        // The paper's own data: r varies by < 3% across the whole ρ range.
        for n in [5usize, 10, 15, 20] {
            let rs: Vec<f64> = PRINTED
                .iter()
                .filter(|&&(nn, _, _)| nn == n)
                .map(|&(_, _, r)| r)
                .collect();
            let spread = (rs.iter().cloned().fold(f64::MIN, f64::max)
                - rs.iter().cloned().fold(f64::MAX, f64::min))
                / rs[0];
            assert!(spread < 0.03, "n={n}: spread {spread}");
        }
    }

    #[test]
    fn quick_sim_reproduces_r_for_small_n() {
        let scale = Scale::quick();
        let rep = Scenario::mesh(5)
            .load(Load::TableRho(0.5))
            .horizon(6_000.0)
            .warmup(600.0)
            .seed(77)
            .run_replicated(scale.reps);
        // Printed value 2.574; allow simulation noise.
        assert!(
            (rep.r_ratio.mean() - 2.574).abs() < 0.1,
            "r = {}",
            rep.r_ratio.mean()
        );
    }
}
