//! Experiments beyond the three tables: bounds curves, stability, capacity
//! allocation (§5.1), hypercube/butterfly gaps (§4.5), randomized greedy
//! and the torus (§6), slotted time and non-uniform destinations (§5.2),
//! and the Jackson-dominance check (§3.3).
//!
//! Each study has the tables' shape: `*_cells` builds its scenarios,
//! [`super::run`] executes them once on the sweep executor, and `render_*`
//! reads the executed cells — simulated columns from each cell's
//! statistics, analytic columns from its bounds report. The closed forms
//! no report carries (the Jackson and allocation delays, the hypercube
//! gap constants and the stability thresholds) are computed where they
//! print. A study that compares two variants at one operating point
//! lists them as consecutive cells.

use super::{Scale, TextTable};
use crate::sweep::SweepCellReport;
use meshbound_queueing::bounds::hypercube as hcb;
use meshbound_queueing::capacity::{mesh_unit_budget, optimal_allocation, optimal_delay};
use meshbound_queueing::jackson;
use meshbound_queueing::little::mesh_total_arrival;
use meshbound_queueing::load::{mesh_stability_threshold, optimal_stability_threshold, Load};
use meshbound_routing::rates::mesh_thm6_rates;
use meshbound_sim::{PatternSpec, RouterSpec, Scenario, ServiceKind, TopologySpec, TrafficSpec};
use meshbound_topology::Mesh2D;

// ---------------------------------------------------------------------
// Bounds curve: simulation bracketed by analytic bounds across loads.
// ---------------------------------------------------------------------

/// The bounds-curve cells: the `n × n` array at each Table-ρ in `rhos`.
#[must_use]
pub fn bounds_cells(n: usize, rhos: &[f64], scale: &Scale) -> Vec<Scenario> {
    rhos.iter()
        .map(|&rho| {
            Scenario::mesh(n)
                .load(Load::TableRho(rho))
                .horizon(scale.horizon(rho))
                .warmup(scale.warmup(rho))
                .seed(scale.seed ^ 0xC0DE ^ ((rho * 1e4) as u64))
        })
        .collect()
}

/// Renders the bounds curve: the simulated delay against every analytic
/// bound.
#[must_use]
pub fn render_bounds_curve(n: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["rho", "lower(best)", "T(sim)", "est(paper)", "upper", "gap"]);
    for c in cells {
        let b = &c.bounds;
        t.row(vec![
            format!("{:.2}", b.table_rho),
            format!("{:.3}", b.lower_best),
            format!("{:.3}", c.delay_mean),
            format!("{:.3}", b.est_paper),
            format!("{:.3}", b.upper),
            format!("{:.2}", b.gap()),
        ]);
    }
    format!("Bounds vs simulation, n = {n}\n{}", t.render())
}

// ---------------------------------------------------------------------
// Stability sweep (§5.1 thresholds).
// ---------------------------------------------------------------------

/// The Theorem 15 service rates of the `n × n` array at λ, for the
/// standard network's cost `4n(n−1)`; `None` at or above `6/(n+1)`.
fn theorem15_rates(n: usize, lambda: f64) -> Option<Vec<f64>> {
    let rates = mesh_thm6_rates(&Mesh2D::square(n), lambda);
    optimal_allocation(&rates, &vec![1.0; rates.len()], mesh_unit_budget(n))
}

/// The stability cells: the `n × n` array at each λ in `lambdas`, run
/// from empty with no warmup and, with `optimal_rates`, the Theorem 15
/// allocation installed.
#[must_use]
pub fn stability_cells(
    n: usize,
    lambdas: &[f64],
    optimal_rates: bool,
    scale: &Scale,
) -> Vec<Scenario> {
    lambdas
        .iter()
        .map(|&lambda| {
            let sc = Scenario::mesh(n)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.9))
                .warmup(0.0)
                .seed(scale.seed ^ 0x57AB ^ ((lambda * 1e6) as u64));
            match optimal_rates.then(|| theorem15_rates(n, lambda)).flatten() {
                Some(rates) => sc.service_rates(rates),
                None => sc,
            }
        })
        .collect()
}

/// Population at the horizon over the time average: ≈ 1 for a stable
/// cell, ≫ 1 when the backlog grows linearly.
fn growth(c: &SweepCellReport) -> f64 {
    if c.time_avg_n > 0.0 {
        c.final_n / c.time_avg_n
    } else {
        0.0
    }
}

/// Renders a stability sweep.
#[must_use]
pub fn render_stability(n: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["lambda", "λ/λ*", "avg N", "final/avg N", "verdict"]);
    for c in cells {
        let lambda = c.bounds.lambda;
        t.row(vec![
            format!("{lambda:.4}"),
            format!("{:.3}", lambda / mesh_stability_threshold(n)),
            format!("{:.1}", c.time_avg_n),
            format!("{:.2}", growth(c)),
            if growth(c) > 1.8 {
                "UNSTABLE"
            } else {
                "stable"
            }
            .into(),
        ]);
    }
    format!(
        "Stability sweep, n = {n} ({}; standard λ* = {:.4}, optimal-allocation λ* = {:.4})\n{}",
        if cells
            .first()
            .is_some_and(|c| c.scenario.service_rates.is_some())
        {
            "optimal rates"
        } else {
            "standard rates"
        },
        mesh_stability_threshold(n),
        optimal_stability_threshold(n),
        t.render()
    )
}

// ---------------------------------------------------------------------
// Capacity allocation (§5.1 / Theorem 15).
// ---------------------------------------------------------------------

/// The capacity cells: per λ, the `n × n` array with the Theorem 15
/// allocation installed, first with deterministic transmissions (the §5.1
/// claim is that the Jackson value upper-bounds it), then with
/// exponential ones (which should match the closed form).
///
/// # Panics
///
/// Panics if a λ reaches the optimal threshold `6/(n+1)`.
#[must_use]
pub fn capacity_cells(n: usize, lambdas: &[f64], scale: &Scale) -> Vec<Scenario> {
    lambdas
        .iter()
        .flat_map(|&lambda| {
            let phi = theorem15_rates(n, lambda).expect("lambda above 6/(n+1) not allowed here");
            [
                (ServiceKind::Deterministic, 0xD1),
                (ServiceKind::Exponential, 0xD2),
            ]
            .map(|(service, salt)| {
                Scenario::mesh(n)
                    .load(Load::Lambda(lambda))
                    .horizon(scale.horizon(0.9))
                    .warmup(scale.warmup(0.9))
                    .seed(scale.seed ^ salt)
                    .service(service)
                    .service_rates(phi.clone())
            })
        })
        .collect()
}

/// The Jackson delays of the `n × n` array at λ: with standard unit rates,
/// and with the Theorem 15 allocation (closed form).
fn jackson_delays(n: usize, lambda: f64) -> (f64, f64) {
    let rates = mesh_thm6_rates(&Mesh2D::square(n), lambda);
    let ones = vec![1.0; rates.len()];
    let gamma = mesh_total_arrival(n, lambda);
    (
        jackson::mean_delay(&rates, &ones, gamma),
        optimal_delay(&rates, &ones, mesh_unit_budget(n), gamma),
    )
}

/// Renders the capacity comparison.
#[must_use]
pub fn render_capacity(n: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&[
        "lambda",
        "Jackson std",
        "Jackson opt",
        "sim opt (det)",
        "sim opt (exp)",
    ]);
    for pair in cells.chunks(2) {
        let lambda = pair[0].bounds.lambda;
        let (standard, optimal) = jackson_delays(n, lambda);
        t.row(vec![
            format!("{lambda:.4}"),
            format!("{standard:.3}"),
            format!("{optimal:.3}"),
            format!("{:.3}", pair[0].delay_mean),
            format!("{:.3}", pair[1].delay_mean),
        ]);
    }
    format!(
        "Capacity allocation (Theorem 15), n = {n}, budget D = 4n(n−1)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Hypercube and butterfly (§4.5).
// ---------------------------------------------------------------------

/// The hypercube cells: the `d`-cube with Bernoulli-`p` destinations for
/// each `p` in `ps`, at a fixed edge utilization.
#[must_use]
pub fn hypercube_cells(d: usize, ps: &[f64], utilization: f64, scale: &Scale) -> Vec<Scenario> {
    ps.iter()
        .map(|&p| {
            Scenario::hypercube(d)
                .traffic(TrafficSpec::bernoulli(p))
                .load(Load::Utilization(utilization))
                .horizon(scale.horizon(utilization))
                .warmup(scale.warmup(utilization))
                .seed(scale.seed ^ 0xC0BE ^ ((p * 1e4) as u64))
        })
        .collect()
}

/// Renders the hypercube study: the bounds, and the high-load gap of the
/// new bound, `2(dp+1−p)`, against the previous `2d`.
///
/// # Panics
///
/// Panics on a cell without Bernoulli destinations.
#[must_use]
pub fn render_hypercube(d: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["p", "util", "lower12", "T(sim)", "upper", "2(dp+1−p)", "2d"]);
    for c in cells {
        let PatternSpec::Bernoulli { p } = c.scenario.traffic.pattern else {
            panic!("hypercube cells draw Bernoulli destinations")
        };
        t.row(vec![
            format!("{p:.2}"),
            format!("{:.2}", c.bounds.utilization),
            format!("{:.3}", c.bounds.lower_thm12),
            format!("{:.3}", c.delay_mean),
            format!("{:.3}", c.bounds.upper),
            format!("{:.2}", hcb::new_gap(d, p)),
            format!("{:.2}", hcb::previous_gap(d)),
        ]);
    }
    format!("Hypercube d = {d} (§4.5)\n{}", t.render())
}

/// The butterfly cells: one per depth in `ds`, at a fixed edge
/// utilization (input rate λ = 2·utilization).
#[must_use]
pub fn butterfly_cells(ds: &[usize], utilization: f64, scale: &Scale) -> Vec<Scenario> {
    ds.iter()
        .map(|&d| {
            Scenario::butterfly(d)
                .load(Load::Utilization(utilization))
                .horizon(scale.horizon(utilization))
                .warmup(scale.warmup(utilization))
                .seed(scale.seed ^ 0xBF ^ (d as u64))
        })
        .collect()
}

/// Renders the butterfly study.
#[must_use]
pub fn render_butterfly(cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["d", "lambda", "lower10", "T(sim)", "upper"]);
    for c in cells {
        let b = &c.bounds;
        t.row(vec![
            b.n.to_string(),
            format!("{:.3}", b.lambda),
            format!("{:.3}", b.lower_thm10),
            format!("{:.3}", c.delay_mean),
            format!("{:.3}", b.upper),
        ]);
    }
    format!("Butterfly (§4.5)\n{}", t.render())
}

// ---------------------------------------------------------------------
// Randomized greedy and the torus (§6).
// ---------------------------------------------------------------------

/// The router-comparison cells: per Table-ρ, the `n × n` array under
/// standard greedy, then under randomized greedy.
#[must_use]
pub fn randomized_cells(n: usize, rhos: &[f64], scale: &Scale) -> Vec<Scenario> {
    rhos.iter()
        .flat_map(|&rho| {
            [(RouterSpec::Greedy, 0x61), (RouterSpec::Randomized, 0x62)].map(|(router, salt)| {
                Scenario::mesh(n)
                    .load(Load::TableRho(rho))
                    .horizon(scale.horizon(rho))
                    .warmup(scale.warmup(rho))
                    .seed(scale.seed ^ salt ^ ((rho * 1e3) as u64))
                    .router(router)
            })
        })
        .collect()
}

/// Renders the router comparison.
#[must_use]
pub fn render_randomized(n: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["rho", "greedy", "randomized", "ratio"]);
    for pair in cells.chunks(2) {
        let (greedy, randomized) = (pair[0].delay_mean, pair[1].delay_mean);
        t.row(vec![
            format!("{:.2}", pair[0].bounds.table_rho),
            format!("{greedy:.3}"),
            format!("{randomized:.3}"),
            format!("{:.3}", randomized / greedy),
        ]);
    }
    format!(
        "Randomized greedy vs standard greedy, n = {n} (§6)\n{}",
        t.render()
    )
}

/// The torus cells: per λ, the `n × n` array, then the `n × n` torus at
/// the same λ (the torus has more capacity) and seed.
#[must_use]
pub fn torus_cells(n: usize, lambdas: &[f64], scale: &Scale) -> Vec<Scenario> {
    lambdas
        .iter()
        .flat_map(|&lambda| {
            [Scenario::mesh(n), Scenario::torus(n)].map(|sc| {
                sc.load(Load::Lambda(lambda))
                    .horizon(scale.horizon(0.8))
                    .warmup(scale.warmup(0.8))
                    .seed(scale.seed ^ 0x70 ^ ((lambda * 1e5) as u64))
            })
        })
        .collect()
}

/// Renders the torus study with the torus's Theorem 10 lower bound
/// (valid despite §6's open upper bound: the copy argument needs neither
/// layering nor Markov routing) and mean distance.
#[must_use]
pub fn render_torus(n: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["lambda", "T(array)", "torus lower", "T(torus)", "torus n̄"]);
    for pair in cells.chunks(2) {
        let (array, torus) = (&pair[0], &pair[1]);
        t.row(vec![
            format!("{:.4}", torus.bounds.lambda),
            format!("{:.3}", array.delay_mean),
            format!("{:.3}", torus.bounds.lower_best),
            format!("{:.3}", torus.delay_mean),
            format!("{:.3}", torus.bounds.mean_distance),
        ]);
    }
    format!(
        "Torus vs array, n = {n} (§6: torus upper bound open; Thm 10 lower bound shown)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Higher-dimensional meshes, slotted time and nearby destinations (§5.2).
// ---------------------------------------------------------------------

/// The `k`-dimensional mesh cells, one per shape. Their bounds come from
/// exact enumerated rates — §5.2's "one can explicitly determine the
/// arrival rates at individual queues combinatorially" — and greedy on a
/// `k`-dim mesh is layered axis by axis and Markovian, so Theorem 5
/// extends.
#[must_use]
pub fn kd_cells(shapes: &[Vec<usize>], lambda: f64, scale: &Scale) -> Vec<Scenario> {
    shapes
        .iter()
        .map(|dims| {
            Scenario::mesh_kd(dims)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.8))
                .warmup(scale.warmup(0.8))
                .seed(scale.seed ^ 0x6B64)
        })
        .collect()
}

/// Renders the higher-dimensional mesh study.
///
/// # Panics
///
/// Panics on a cell that is not a `k`-dimensional mesh.
#[must_use]
pub fn render_kd(cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["dims", "lambda", "peak util", "lower10", "T(sim)", "upper"]);
    for c in cells {
        let TopologySpec::MeshKd { dims } = &c.scenario.topology else {
            panic!("kd cells are k-dimensional meshes")
        };
        let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
        let b = &c.bounds;
        t.row(vec![
            dims.join("x"),
            format!("{:.3}", b.lambda),
            format!("{:.3}", b.utilization),
            format!("{:.3}", b.lower_thm10),
            format!("{:.3}", c.delay_mean),
            format!("{:.3}", b.upper),
        ]);
    }
    format!("Higher-dimensional meshes (§5.2)\n{}", t.render())
}

/// The slotted-time cells: the `n × n` array at Table-ρ `rho` in
/// continuous time, then slotted at each width in `taus`.
#[must_use]
pub fn slotted_cells(n: usize, rho: f64, taus: &[f64], scale: &Scale) -> Vec<Scenario> {
    let continuous = Scenario::mesh(n)
        .load(Load::Lambda(4.0 * rho / n as f64))
        .horizon(scale.horizon(rho))
        .warmup(scale.warmup(rho))
        .seed(scale.seed ^ 0x5107);
    let slotted = taus.iter().map(|&tau| continuous.clone().slot(tau));
    std::iter::once(continuous.clone()).chain(slotted).collect()
}

/// Renders the slotted study.
#[must_use]
pub fn render_slotted(n: usize, rho: f64, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["tau", "T(sim)"]);
    for c in cells {
        t.row(vec![
            c.scenario
                .slot
                .map_or_else(|| "continuous".into(), |tau| format!("{tau:.2}")),
            format!("{:.3}", c.delay_mean),
        ]);
    }
    format!(
        "Slotted time, n = {n}, ρ = {rho} (§5.2: slotted within τ of continuous)\n{}",
        t.render()
    )
}

/// The nearby-destination cells: the §5.2 walk on the `n × n` array at
/// each stop probability (1 recovers "stay very close"). The routing stays
/// Markovian, so the Theorem 5 upper bound still applies.
#[must_use]
pub fn nearby_cells(n: usize, stops: &[f64], lambda: f64, scale: &Scale) -> Vec<Scenario> {
    stops
        .iter()
        .map(|&stop| {
            Scenario::mesh(n)
                .traffic(TrafficSpec::nearby(stop))
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.8))
                .warmup(scale.warmup(0.8))
                .seed(scale.seed ^ 0x4EA ^ ((stop * 100.0) as u64))
        })
        .collect()
}

/// Renders the nearby-destination study.
///
/// # Panics
///
/// Panics on a cell without nearby destinations.
#[must_use]
pub fn render_nearby(n: usize, lambda: f64, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["stop", "T(sim)", "upper"]);
    for c in cells {
        let PatternSpec::Nearby { stop } = c.scenario.traffic.pattern else {
            panic!("nearby cells draw nearby destinations")
        };
        t.row(vec![
            format!("{stop:.2}"),
            format!("{:.3}", c.delay_mean),
            format!("{:.3}", c.bounds.upper),
        ]);
    }
    format!(
        "Nearby destinations (§5.2), n = {n}, λ = {lambda}\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Jackson dominance (§3.3): deterministic FIFO ≤ Jackson = product form.
// ---------------------------------------------------------------------

/// The dominance cells: per Table-ρ, the `n × n` array with deterministic
/// service (the standard model), then with exponential service (the
/// Jackson network).
#[must_use]
pub fn dominance_cells(n: usize, rhos: &[f64], scale: &Scale) -> Vec<Scenario> {
    rhos.iter()
        .flat_map(|&rho| {
            [
                (ServiceKind::Deterministic, 0xF1F0),
                (ServiceKind::Exponential, 0x1ACC),
            ]
            .map(|(service, salt)| {
                Scenario::mesh(n)
                    .load(Load::TableRho(rho))
                    .horizon(scale.horizon(rho))
                    .warmup(scale.warmup(rho))
                    .seed(scale.seed ^ salt)
                    .service(service)
            })
        })
        .collect()
}

/// Renders the dominance study: `T_FIFO ≤ T_Jackson ≈` the product form
/// (the Theorem 7 upper bound).
#[must_use]
pub fn render_dominance(n: usize, cells: &[SweepCellReport]) -> String {
    let mut t = TextTable::new(&["rho", "T FIFO(det)", "T Jackson(sim)", "product form"]);
    for pair in cells.chunks(2) {
        t.row(vec![
            format!("{:.2}", pair[0].bounds.table_rho),
            format!("{:.3}", pair[0].delay_mean),
            format!("{:.3}", pair[1].delay_mean),
            format!("{:.3}", pair[0].bounds.upper),
        ]);
    }
    format!("Jackson dominance (§3.3), n = {n}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executes `cells` at quick scale.
    fn run(cells: Vec<Scenario>) -> Vec<SweepCellReport> {
        super::super::run(cells, &Scale::quick())
    }

    #[test]
    fn bounds_bracket_simulation() {
        for c in &run(bounds_cells(5, &[0.3, 0.7], &Scale::quick())) {
            let (t_sim, b) = (c.delay_mean, &c.bounds);
            assert!(
                b.lower_best <= t_sim * 1.1,
                "ρ={}: lower {} vs sim {t_sim}",
                b.table_rho,
                b.lower_best
            );
            assert!(
                t_sim <= b.upper * 1.1,
                "ρ={}: sim {t_sim} vs upper {}",
                b.table_rho,
                b.upper
            );
        }
    }

    #[test]
    fn stability_flips_at_threshold() {
        let n = 6;
        let thr = mesh_stability_threshold(n);
        let cells = run(stability_cells(
            n,
            &[0.7 * thr, 1.3 * thr],
            false,
            &Scale::quick(),
        ));
        assert!(
            growth(&cells[0]) < 1.8,
            "below threshold grew: {}",
            cells[0].spec
        );
        assert!(
            growth(&cells[1]) > 1.8,
            "above threshold stable: {}",
            cells[1].spec
        );
    }

    #[test]
    fn optimal_rates_stabilize_beyond_standard_capacity() {
        // §5.1: λ between 4/n and 6/(n+1) is unstable standard but stable
        // with the Theorem 15 allocation.
        // n = 6: standard threshold 4/n = 0.667, optimal threshold 6/7 = 0.857.
        // λ = 0.76 sits comfortably between the two.
        let n = 6;
        let lambda = 0.76;
        assert!(lambda > 1.1 * mesh_stability_threshold(n));
        assert!(lambda < 0.9 * optimal_stability_threshold(n));
        let std = &run(stability_cells(n, &[lambda], false, &Scale::quick()))[0];
        let opt = &run(stability_cells(n, &[lambda], true, &Scale::quick()))[0];
        assert!(opt.scenario.service_rates.is_some());
        assert!(
            growth(std) > 1.8,
            "standard should destabilize: {}",
            growth(std)
        );
        assert!(
            growth(opt) < 1.8,
            "optimal should stabilize: {}",
            growth(opt)
        );
    }

    #[test]
    fn capacity_simulation_respects_jackson_upper_bound() {
        let n = 5;
        let cells = run(capacity_cells(n, &[0.3], &Scale::quick()));
        let (standard, optimal) = jackson_delays(n, 0.3);
        let (det, exp) = (cells[0].delay_mean, cells[1].delay_mean);
        assert!(optimal < standard);
        // Deterministic-service sim is upper-bounded by the Jackson value
        // (allow simulation noise).
        assert!(det <= optimal * 1.1, "det sim {det} vs jackson {optimal}");
        // Exponential-service sim matches the closed form.
        assert!(
            (exp - optimal).abs() / optimal < 0.15,
            "exp sim {exp} vs closed {optimal}"
        );
    }

    #[test]
    fn hypercube_sim_within_bounds() {
        let c = &run(hypercube_cells(5, &[0.5], 0.6, &Scale::quick()))[0];
        let (t_sim, b) = (c.delay_mean, &c.bounds);
        assert!(b.lower_thm12 <= t_sim * 1.1, "{t_sim} vs {b:?}");
        assert!(t_sim <= b.upper * 1.1, "{t_sim} vs {b:?}");
        assert!(hcb::new_gap(5, 0.5) < hcb::previous_gap(5));
    }

    #[test]
    fn butterfly_sim_within_bounds() {
        let c = &run(butterfly_cells(&[3], 0.6, &Scale::quick()))[0];
        let (t_sim, b) = (c.delay_mean, &c.bounds);
        assert!(b.lower_thm10 <= t_sim * 1.1, "{t_sim} vs {b:?}");
        assert!(t_sim <= b.upper * 1.1, "{t_sim} vs {b:?}");
        assert!(t_sim >= 3.0 * 0.95);
    }

    #[test]
    fn randomized_not_better_than_greedy() {
        // §6: randomized greedy performs slightly worse in simulation.
        let cells = run(randomized_cells(6, &[0.8], &Scale::quick()));
        let (greedy, randomized) = (cells[0].delay_mean, cells[1].delay_mean);
        assert_eq!(cells[1].router, "randomized");
        assert!(
            randomized > greedy * 0.97,
            "greedy {greedy}, randomized {randomized}"
        );
    }

    #[test]
    fn torus_beats_array_at_same_lambda() {
        // Wraparound halves distances and doubles the cut capacity.
        let cells = run(torus_cells(6, &[0.3], &Scale::quick()));
        let (array, torus) = (cells[0].delay_mean, cells[1].delay_mean);
        assert!(torus < array, "torus {torus}, array {array}");
    }

    #[test]
    fn kd_mesh_sim_within_bounds() {
        let shapes = [vec![3, 3, 3], vec![4, 4]];
        for c in &run(kd_cells(&shapes, 0.15, &Scale::quick())) {
            let (t_sim, b) = (c.delay_mean, &c.bounds);
            assert!(b.utilization < 1.0, "{}: {b:?}", c.label);
            assert!(
                b.lower_thm10 <= t_sim * 1.1,
                "{}: {t_sim} vs {b:?}",
                c.label
            );
            assert!(t_sim <= b.upper * 1.1, "{}: {t_sim} vs {b:?}", c.label);
        }
    }

    #[test]
    fn torus_lower_bound_below_sim() {
        let torus = &run(torus_cells(6, &[0.3], &Scale::quick()))[1];
        assert!(
            torus.bounds.lower_best <= torus.delay_mean * 1.05,
            "lower {} vs sim {}",
            torus.bounds.lower_best,
            torus.delay_mean
        );
    }

    #[test]
    fn slotted_within_tau_of_continuous() {
        let cells = run(slotted_cells(5, 0.5, &[1.0], &Scale::quick()));
        let (cont, slotted) = (cells[0].delay_mean, cells[1].delay_mean);
        assert_eq!(cells[1].scenario.slot, Some(1.0));
        assert!(
            (slotted - cont).abs() <= 1.0 + 0.5,
            "cont {cont}, slotted {slotted}"
        );
    }

    #[test]
    fn nearby_destinations_upper_bound_holds() {
        let c = &run(nearby_cells(5, &[0.5], 0.3, &Scale::quick()))[0];
        assert!(
            c.delay_mean <= c.bounds.upper * 1.1,
            "sim {} vs upper {}",
            c.delay_mean,
            c.bounds.upper
        );
    }

    #[test]
    fn jackson_dominates_fifo() {
        let cells = run(dominance_cells(5, &[0.7], &Scale::quick()));
        let (fifo, jackson, product) = (
            cells[0].delay_mean,
            cells[1].delay_mean,
            cells[0].bounds.upper,
        );
        assert!(fifo <= jackson * 1.05, "FIFO {fifo}, Jackson {jackson}");
        assert!(
            (jackson - product).abs() / product < 0.15,
            "Jackson {jackson}, product form {product}"
        );
    }
}
