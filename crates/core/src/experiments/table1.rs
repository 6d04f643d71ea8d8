//! Table I: simulated mean delay vs the M/D/1 independence estimate.
//!
//! Grid: `n ∈ {5, 10, 15, 20}`, Table-ρ `∈ {0.2, 0.5, 0.8, 0.9, 0.95,
//! 0.99}` with `λ = 4ρ/n`. For every cell we report the simulated delay
//! (with a replication confidence interval), the paper's printed estimate
//! formula, the textbook M/D/1 estimate, the Theorem 7 upper bound and the
//! best lower bound — together with the paper's printed simulation and
//! estimate values for side-by-side comparison.
//!
//! The paper's printed T(Sim.) averages only packets whose destination
//! differs from their source, so the simulated column excludes
//! self-packets too. Its Est. column counts them, and so do our estimate
//! and bound columns.

use super::{Scale, TextTable};
use crate::sweep::SweepCellReport;
use meshbound_queueing::load::Load;
use meshbound_sim::Scenario;

/// The paper's printed Table I: `(n, ρ, T(Sim.), T(Est.))`.
pub const PRINTED: &[(usize, f64, f64, f64)] = &[
    (5, 0.2, 3.545, 3.256),
    (5, 0.5, 4.176, 3.722),
    (5, 0.8, 6.252, 5.984),
    (5, 0.9, 8.867, 8.970),
    (5, 0.95, 12.172, 12.877),
    (5, 0.99, 20.333, 21.384),
    (10, 0.2, 6.929, 6.711),
    (10, 0.5, 7.748, 7.641),
    (10, 0.8, 10.652, 12.183),
    (10, 0.9, 14.718, 18.444),
    (10, 0.95, 21.034, 28.014),
    (10, 0.99, 63.950, 77.309),
    (15, 0.2, 10.289, 10.123),
    (15, 0.5, 11.192, 11.518),
    (15, 0.8, 14.563, 18.329),
    (15, 0.9, 19.226, 27.718),
    (15, 0.95, 28.867, 41.990),
    (15, 0.99, 68.220, 103.312),
    (20, 0.2, 13.649, 13.523),
    (20, 0.5, 14.589, 15.383),
    (20, 0.8, 18.191, 24.465),
    (20, 0.9, 20.041, 36.983),
    (20, 0.95, 31.771, 56.015),
    (20, 0.99, 77.283, 141.127),
];

/// The Table I scenario grid at `scale`: one cell per printed row, with
/// the table's historical per-cell seeds and load-adaptive horizons, and
/// self-packets left out of the simulated mean as in the printed T(Sim.).
#[must_use]
pub fn cells(scale: &Scale) -> Vec<Scenario> {
    PRINTED
        .iter()
        .map(|&(n, rho, _, _)| {
            Scenario::mesh(n)
                .load(Load::TableRho(rho))
                .horizon(scale.horizon(rho))
                .warmup(scale.warmup(rho))
                .seed(scale.seed ^ ((n as u64) << 32) ^ ((rho * 1000.0) as u64))
                .include_self_packets(false)
        })
        .collect()
}

/// Renders the executed [`cells`] under the table's title, in the paper's
/// layout plus our extra columns: the simulated ones from each cell's
/// statistics, the analytic ones from its bounds report.
#[must_use]
pub fn render(cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&[
        "n",
        "rho",
        "T(Sim)",
        "±",
        "T(Est paper)",
        "T(Est MD1)",
        "T(upper)",
        "T(lower)",
        "paper Sim",
        "paper Est",
    ]);
    for (cell, &(n, rho, printed_sim, printed_est)) in cells.iter().zip(PRINTED) {
        let b = &cell.bounds;
        t.row(vec![
            n.to_string(),
            format!("{rho:.2}"),
            format!("{:.3}", cell.delay_mean),
            cell.half_width_text(),
            format!("{:.3}", b.est_paper),
            format!("{:.3}", b.est_md1),
            format!("{:.3}", b.upper),
            format!("{:.3}", b.lower_best),
            format!("{printed_sim:.3}"),
            format!("{printed_est:.3}"),
        ]);
    }
    format!(
        "Table I — simulation vs M/D/1 estimate (λ = 4ρ/n)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_cells, Jobs};
    use meshbound_queueing::bounds::estimate::estimate_paper;
    use meshbound_stats::ci::t_quantile;

    /// The executed cell of the printed row `(n, ρ)` at `scale`.
    fn run_cell(scale: &Scale, n: usize, rho: f64) -> SweepCellReport {
        let i = PRINTED
            .iter()
            .position(|&(pn, prho, _, _)| (pn, prho) == (n, rho))
            .unwrap();
        let cell = cells(scale).swap_remove(i);
        run_cells("table1-cell", vec![cell], scale.reps, Jobs::Sequential)
            .cells
            .remove(0)
    }

    #[test]
    fn estimate_columns_match_printed_table() {
        // The analytic column must reproduce the paper's Est. values
        // exactly (to printed precision) on the entire grid.
        for &(n, rho, _, printed_est) in PRINTED {
            let est = estimate_paper(n, 4.0 * rho / n as f64);
            assert!(
                (est - printed_est).abs() / printed_est < 2e-3,
                "n={n}, ρ={rho}: {est} vs {printed_est}"
            );
        }
    }

    #[test]
    fn quick_cell_shapes_match_paper() {
        // One light cell; shape checks only.
        let light = run_cell(&Scale::quick(), 5, 0.2);
        let (t_sim, printed_sim) = (light.delay_mean, 3.545);
        // Simulation close to the printed value (±10%) at light load.
        assert!(
            (t_sim - printed_sim).abs() / printed_sim < 0.1,
            "sim {t_sim} vs printed {printed_sim}"
        );
        // Bounds bracket the simulation.
        assert!(light.bounds.lower_best <= t_sim + 0.2);
        assert!(t_sim <= light.bounds.upper + 0.2);
    }

    #[test]
    fn sim_between_estimates_at_light_load() {
        // The paper's estimate omits the residual-service term and
        // undershoots; the textbook estimate ignores smoothing and
        // overshoots. The truth sits between (§4.2 discussion).
        let cell = run_cell(&Scale::quick(), 10, 0.5);
        let (t_sim, b) = (cell.delay_mean, &cell.bounds);
        assert!(
            b.est_paper < t_sim + 0.3,
            "paper est {} should sit below sim {t_sim}",
            b.est_paper
        );
        assert!(
            t_sim < b.est_md1 + 0.3,
            "sim {t_sim} should sit below textbook est {}",
            b.est_md1
        );
    }

    #[test]
    fn simulated_column_agrees_with_the_printed_one_at_n5() {
        // The paper's T(Sim.) leaves self-packets out; so do the cells.
        // Eight replications of the n = 5 cells at ρ ≤ 0.8 must sit within
        // a two-sided 99.9% Student-t band (7 dof) of the printed value.
        // Counted in, self-packets pull each mean 10 to 30 standard errors
        // below the print.
        let reps = 8;
        let grid: Vec<Scenario> = cells(&Scale::quick()).into_iter().take(3).collect();
        let report = run_cells("table1-fidelity", grid, reps, Jobs::Parallel);
        // The 95% half-width is t(0.975, 7) standard errors.
        let t95 = t_quantile(0.5 + 0.95 / 2.0, reps as u64 - 1);
        for (cell, &(n, rho, printed_sim, _)) in report.cells.iter().zip(PRINTED) {
            assert_eq!((n, cell.reps), (5, reps));
            let t = (cell.delay_mean - printed_sim) / (cell.delay_half_width / t95);
            assert!(
                t.abs() <= 5.41,
                "n={n}, ρ={rho}: T(Sim) {:.3} ± {:.3} against the printed {printed_sim}, t = {t:.2}",
                cell.delay_mean,
                cell.delay_half_width
            );
        }
    }

    #[test]
    fn render_includes_all_rows() {
        let scale = Scale {
            horizon_base: 200.0,
            horizon_cap: 400.0,
            reps: 1,
            seed: 1,
        };
        let cell = run_cell(&scale, 5, 0.2);
        let s = render(std::slice::from_ref(&cell));
        assert!(s.contains(&format!("{:.3}", cell.delay_mean)));
        assert!(s.contains("paper Sim"));
        // One replication has no interval.
        assert!(s.contains(" n/a "), "{s}");
        assert!(s.starts_with("Table I —"), "{s}");
        assert_eq!(s.lines().count(), 4);
    }
}
