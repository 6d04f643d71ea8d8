//! Table III: the saturated remaining-work ratio `r_s = E[R_s]/E[N]` at
//! ρ = 0.99.
//!
//! `R_s(t)` counts only the remaining services *at saturated edges* (the
//! central cuts of Figure 2). The paper's Table III shows the striking
//! parity pattern — odd `n` has roughly double the `r_s` of even `n`,
//! because odd arrays have two saturated classes per axis — and notes the
//! dependence on ρ is minimal.

use super::{Scale, TextTable};
use crate::sweep::SweepCellReport;
use meshbound_queueing::load::Load;
use meshbound_queueing::remaining::light_load_rs;
use meshbound_sim::Scenario;
use meshbound_topology::Mesh2D;

/// The paper's printed Table III at ρ = 0.99: `(n, r_s)`.
pub const PRINTED: &[(usize, f64)] = &[
    (5, 1.875),
    (10, 1.250),
    (15, 2.106),
    (20, 1.230),
    (25, 2.209),
];

/// The Table III scenario grid at `scale` (ρ = 0.99, saturated-services
/// tracking on, historical per-cell seeds).
#[must_use]
pub fn cells(scale: &Scale) -> Vec<Scenario> {
    let rho = 0.99;
    PRINTED
        .iter()
        .map(|&(n, _)| {
            Scenario::mesh(n)
                .load(Load::TableRho(rho))
                .horizon(scale.horizon(rho))
                .warmup(scale.warmup(rho))
                .seed(scale.seed ^ 0x5A7A ^ ((n as u64) << 16))
                .track_saturated(true)
        })
        .collect()
}

/// Renders the executed [`cells`] under the table's title: `r_s` from
/// each cell's statistics, `s̄` from the cell's bounds report and the
/// light-load value in closed form.
#[must_use]
pub fn render(cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["n", "r_s(Sim)", "r_s(light-load)", "s̄", "paper r_s"]);
    for (cell, &(n, printed)) in cells.iter().zip(PRINTED) {
        t.row(vec![
            n.to_string(),
            format!("{:.3}", cell.rs_ratio),
            format!("{:.3}", light_load_rs(&Mesh2D::square(n))),
            format!("{:.3}", cell.bounds.sbar),
            format!("{printed:.3}"),
        ]);
    }
    format!("Table III — r_s at ρ = 0.99\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshbound_queueing::remaining::sbar_closed;

    #[test]
    fn printed_parity_pattern() {
        // Odd-n rows ≈ 2, even-n rows ≈ 1.25 in the paper's own data.
        for &(n, rs) in PRINTED {
            if n % 2 == 0 {
                assert!(rs < 1.3, "even n={n}");
            } else {
                assert!(rs > 1.8, "odd n={n}");
            }
        }
    }

    #[test]
    fn light_load_closed_form_shows_same_parity() {
        let even = light_load_rs(&Mesh2D::square(10));
        let odd = light_load_rs(&Mesh2D::square(11));
        assert!(odd > 1.5 * even, "odd {odd} vs even {even}");
    }

    #[test]
    fn quick_sim_shows_parity_pattern() {
        // Reduced-scale version of the table at moderate load (the paper
        // notes r_s depends minimally on ρ).
        let rho = 0.8;
        let run_one = |n: usize| {
            Scenario::mesh(n)
                .load(Load::TableRho(rho))
                .horizon(6_000.0)
                .warmup(600.0)
                .seed(99)
                .track_saturated(true)
                .run_replicated(1)
                .rs_ratio
                .mean()
        };
        let rs5 = run_one(5);
        let rs6 = run_one(6);
        assert!(rs5 > rs6, "odd {rs5} should exceed even {rs6}");
    }

    #[test]
    fn rs_below_sbar() {
        // r_s can never exceed s̄... in expectation per packet at saturated
        // queues; the light-load closed form respects this.
        for n in [4usize, 5, 8, 9, 12, 13] {
            let rs = light_load_rs(&Mesh2D::square(n));
            assert!(rs < sbar_closed(n), "n={n}: {rs} vs {}", sbar_closed(n));
        }
    }
}
