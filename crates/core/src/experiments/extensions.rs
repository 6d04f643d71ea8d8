//! Experiments beyond the three tables: bounds curves, stability, capacity
//! allocation (§5.1), hypercube/butterfly gaps (§4.5), randomized greedy
//! and the torus (§6), slotted time and non-uniform destinations (§5.2),
//! and the Jackson-dominance check (§3.3).

use super::{Scale, TextTable};
use crate::report::BoundsReport;
use meshbound_queueing::bounds::{butterfly as bfb, hypercube as hcb};
use meshbound_queueing::capacity::{mesh_unit_budget, optimal_allocation, optimal_delay};
use meshbound_queueing::jackson;
use meshbound_queueing::little::mesh_total_arrival;
use meshbound_queueing::load::{mesh_stability_threshold, optimal_stability_threshold, Load};
use meshbound_routing::rates::mesh_thm6_rates;
use meshbound_sim::{RouterSpec, Scenario, ServiceKind, TrafficSpec};
use meshbound_topology::Mesh2D;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Bounds curve: simulation bracketed by analytic bounds across loads.
// ---------------------------------------------------------------------

/// One load point of the bounds-vs-simulation curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoundsCurveRow {
    /// Table-ρ.
    pub rho: f64,
    /// Simulated delay.
    pub t_sim: f64,
    /// Full analytic report at this load.
    pub report: BoundsReport,
}

/// Simulated delay against every analytic bound for `n` across `rhos`.
#[must_use]
pub fn bounds_curve(n: usize, rhos: &[f64], scale: &Scale) -> Vec<BoundsCurveRow> {
    rhos.par_iter()
        .map(|&rho| {
            let sc = Scenario::mesh(n)
                .load(Load::TableRho(rho))
                .horizon(scale.horizon(rho))
                .warmup(scale.warmup(rho))
                .seed(scale.seed ^ 0xC0DE ^ ((rho * 1e4) as u64));
            BoundsCurveRow {
                rho,
                t_sim: sc.run().avg_delay,
                report: BoundsReport::compute_for(&sc),
            }
        })
        .collect()
}

/// Renders the bounds curve.
#[must_use]
pub fn render_bounds_curve(n: usize, rows: &[BoundsCurveRow]) -> String {
    let mut t = TextTable::new(&["rho", "lower(best)", "T(sim)", "est(paper)", "upper", "gap"]);
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.rho),
            format!("{:.3}", r.report.lower_best),
            format!("{:.3}", r.t_sim),
            format!("{:.3}", r.report.est_paper),
            format!("{:.3}", r.report.upper),
            format!("{:.2}", r.report.gap()),
        ]);
    }
    format!("Bounds vs simulation, n = {n}\n{}", t.render())
}

// ---------------------------------------------------------------------
// Stability sweep (§5.1 thresholds).
// ---------------------------------------------------------------------

/// One λ point of a stability sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityRow {
    /// Per-node arrival rate.
    pub lambda: f64,
    /// λ relative to the standard threshold.
    pub lambda_over_threshold: f64,
    /// Population at the horizon divided by the time average — ≈ 1 for
    /// stable systems, ≫ 1 when the backlog grows linearly.
    pub growth: f64,
    /// Time-averaged population.
    pub avg_n: f64,
    /// Whether optimal §5.1 service rates were installed.
    pub optimal_rates: bool,
}

/// Sweeps λ across the stability boundary, optionally with the Theorem 15
/// allocation installed (budget = standard network cost `4n(n−1)`).
#[must_use]
pub fn stability_sweep(
    n: usize,
    lambdas: &[f64],
    optimal_rates: bool,
    scale: &Scale,
) -> Vec<StabilityRow> {
    let threshold = mesh_stability_threshold(n);
    lambdas
        .par_iter()
        .map(|&lambda| {
            let rates = if optimal_rates {
                let edge_rates = mesh_thm6_rates(&Mesh2D::square(n), lambda);
                let costs = vec![1.0; edge_rates.len()];
                optimal_allocation(&edge_rates, &costs, mesh_unit_budget(n))
            } else {
                None
            };
            let mut sc = Scenario::mesh(n)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.9))
                .warmup(0.0)
                .seed(scale.seed ^ 0x57AB ^ ((lambda * 1e6) as u64));
            if let Some(r) = rates {
                sc = sc.service_rates(r);
            }
            let res = sc.run();
            StabilityRow {
                lambda,
                lambda_over_threshold: lambda / threshold,
                growth: if res.time_avg_n > 0.0 {
                    res.final_n / res.time_avg_n
                } else {
                    0.0
                },
                avg_n: res.time_avg_n,
                optimal_rates,
            }
        })
        .collect()
}

/// Renders a stability sweep.
#[must_use]
pub fn render_stability(n: usize, rows: &[StabilityRow]) -> String {
    let mut t = TextTable::new(&["lambda", "λ/λ*", "avg N", "final/avg N", "verdict"]);
    for r in rows {
        t.row(vec![
            format!("{:.4}", r.lambda),
            format!("{:.3}", r.lambda_over_threshold),
            format!("{:.1}", r.avg_n),
            format!("{:.2}", r.growth),
            if r.growth > 1.8 {
                "UNSTABLE".into()
            } else {
                "stable".into()
            },
        ]);
    }
    format!(
        "Stability sweep, n = {n} ({}; standard λ* = {:.4}, optimal-allocation λ* = {:.4})\n{}",
        if rows.first().is_some_and(|r| r.optimal_rates) {
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

/// One λ point comparing the standard and optimally configured arrays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CapacityRow {
    /// Per-node arrival rate.
    pub lambda: f64,
    /// Jackson delay, standard unit rates.
    pub t_jackson_standard: f64,
    /// Jackson delay, Theorem 15 rates (closed form).
    pub t_jackson_optimal: f64,
    /// Simulated delay with deterministic transmissions and Theorem 15
    /// rates — the §5.1 claim is that the Jackson value upper-bounds this.
    pub t_sim_optimal_det: f64,
    /// Simulated delay with exponential transmissions and Theorem 15 rates
    /// — should match the closed form.
    pub t_sim_optimal_exp: f64,
}

/// Compares standard vs optimal capacity allocation at each λ.
#[must_use]
pub fn capacity_comparison(n: usize, lambdas: &[f64], scale: &Scale) -> Vec<CapacityRow> {
    lambdas
        .par_iter()
        .map(|&lambda| {
            let mesh = Mesh2D::square(n);
            let rates = mesh_thm6_rates(&mesh, lambda);
            let costs = vec![1.0; rates.len()];
            let budget = mesh_unit_budget(n);
            let gamma = mesh_total_arrival(n, lambda);
            let phi = optimal_allocation(&rates, &costs, budget)
                .expect("lambda above 6/(n+1) not allowed here");
            let sim = |service: ServiceKind, seed: u64| {
                Scenario::mesh(n)
                    .load(Load::Lambda(lambda))
                    .horizon(scale.horizon(0.9))
                    .warmup(scale.warmup(0.9))
                    .seed(seed)
                    .service(service)
                    .service_rates(phi.clone())
                    .run()
                    .avg_delay
            };
            CapacityRow {
                lambda,
                t_jackson_standard: jackson::mean_delay(&rates, &vec![1.0; rates.len()], gamma),
                t_jackson_optimal: optimal_delay(&rates, &costs, budget, gamma),
                t_sim_optimal_det: sim(ServiceKind::Deterministic, scale.seed ^ 0xD1),
                t_sim_optimal_exp: sim(ServiceKind::Exponential, scale.seed ^ 0xD2),
            }
        })
        .collect()
}

/// Renders the capacity comparison.
#[must_use]
pub fn render_capacity(n: usize, rows: &[CapacityRow]) -> String {
    let mut t = TextTable::new(&[
        "lambda",
        "Jackson std",
        "Jackson opt",
        "sim opt (det)",
        "sim opt (exp)",
    ]);
    for r in rows {
        t.row(vec![
            format!("{:.4}", r.lambda),
            format!("{:.3}", r.t_jackson_standard),
            format!("{:.3}", r.t_jackson_optimal),
            format!("{:.3}", r.t_sim_optimal_det),
            format!("{:.3}", r.t_sim_optimal_exp),
        ]);
    }
    format!(
        "Capacity allocation (Theorem 15), n = {n}, budget D = 4n(n−1)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Hypercube (§4.5).
// ---------------------------------------------------------------------

/// One `(p, λ)` point of the hypercube bound study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HypercubeRow {
    /// Bit-flip probability of the destination distribution.
    pub p: f64,
    /// Edge utilization `λp`.
    pub utilization: f64,
    /// Simulated delay.
    pub t_sim: f64,
    /// Product-form upper bound.
    pub t_upper: f64,
    /// Theorem 12 lower bound.
    pub t_lower12: f64,
    /// High-load gap of the new bound, `2(dp+1−p)`.
    pub new_gap: f64,
    /// Previous gap, `2d`.
    pub old_gap: f64,
}

/// Simulates the hypercube against its bounds for each `p` at fixed edge
/// utilization.
#[must_use]
pub fn hypercube_study(d: usize, ps: &[f64], utilization: f64, scale: &Scale) -> Vec<HypercubeRow> {
    ps.par_iter()
        .map(|&p| {
            let sc = Scenario::hypercube(d)
                .traffic(TrafficSpec::bernoulli(p))
                .load(Load::Utilization(utilization))
                .horizon(scale.horizon(utilization))
                .warmup(scale.warmup(utilization))
                .seed(scale.seed ^ 0xC0BE ^ ((p * 1e4) as u64));
            let lambda = sc.lambda();
            HypercubeRow {
                p,
                utilization,
                t_sim: sc.run().avg_delay,
                t_upper: hcb::upper_bound_delay(d, lambda, p),
                t_lower12: hcb::thm12_lower(d, lambda, p),
                new_gap: hcb::new_gap(d, p),
                old_gap: hcb::previous_gap(d),
            }
        })
        .collect()
}

/// Renders the hypercube study.
#[must_use]
pub fn render_hypercube(d: usize, rows: &[HypercubeRow]) -> String {
    let mut t = TextTable::new(&["p", "util", "lower12", "T(sim)", "upper", "2(dp+1−p)", "2d"]);
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.p),
            format!("{:.2}", r.utilization),
            format!("{:.3}", r.t_lower12),
            format!("{:.3}", r.t_sim),
            format!("{:.3}", r.t_upper),
            format!("{:.2}", r.new_gap),
            format!("{:.2}", r.old_gap),
        ]);
    }
    format!("Hypercube d = {d} (§4.5)\n{}", t.render())
}

// ---------------------------------------------------------------------
// Butterfly (§4.5).
// ---------------------------------------------------------------------

/// One butterfly size point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ButterflyRow {
    /// Levels `d`.
    pub d: usize,
    /// Input arrival rate λ (edge utilization λ/2).
    pub lambda: f64,
    /// Simulated delay.
    pub t_sim: f64,
    /// Product-form upper bound.
    pub t_upper: f64,
    /// Theorem 10 lower bound.
    pub t_lower10: f64,
}

/// Simulates butterflies of several depths against their bounds.
#[must_use]
pub fn butterfly_study(ds: &[usize], utilization: f64, scale: &Scale) -> Vec<ButterflyRow> {
    let lambda = 2.0 * utilization;
    ds.par_iter()
        .map(|&d| {
            let sc = Scenario::butterfly(d)
                .load(Load::Utilization(utilization))
                .horizon(scale.horizon(utilization))
                .warmup(scale.warmup(utilization))
                .seed(scale.seed ^ 0xBF ^ (d as u64));
            ButterflyRow {
                d,
                lambda,
                t_sim: sc.run().avg_delay,
                t_upper: bfb::upper_bound_delay(d, lambda),
                t_lower10: bfb::thm10_lower(d, lambda),
            }
        })
        .collect()
}

/// Renders the butterfly study.
#[must_use]
pub fn render_butterfly(rows: &[ButterflyRow]) -> String {
    let mut t = TextTable::new(&["d", "lambda", "lower10", "T(sim)", "upper"]);
    for r in rows {
        t.row(vec![
            r.d.to_string(),
            format!("{:.3}", r.lambda),
            format!("{:.3}", r.t_lower10),
            format!("{:.3}", r.t_sim),
            format!("{:.3}", r.t_upper),
        ]);
    }
    format!("Butterfly (§4.5)\n{}", t.render())
}

// ---------------------------------------------------------------------
// Randomized greedy vs standard greedy (§6).
// ---------------------------------------------------------------------

/// One load point of the randomized-vs-standard comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomizedRow {
    /// Table-ρ.
    pub rho: f64,
    /// Standard greedy simulated delay.
    pub t_greedy: f64,
    /// Randomized greedy simulated delay.
    pub t_randomized: f64,
}

/// Compares the two routers on the same grid of loads.
#[must_use]
pub fn randomized_study(n: usize, rhos: &[f64], scale: &Scale) -> Vec<RandomizedRow> {
    rhos.par_iter()
        .map(|&rho| {
            let run = |router: RouterSpec, seed: u64| {
                Scenario::mesh(n)
                    .load(Load::TableRho(rho))
                    .horizon(scale.horizon(rho))
                    .warmup(scale.warmup(rho))
                    .seed(seed)
                    .router(router)
                    .run()
                    .avg_delay
            };
            RandomizedRow {
                rho,
                t_greedy: run(RouterSpec::Greedy, scale.seed ^ 0x61 ^ ((rho * 1e3) as u64)),
                t_randomized: run(
                    RouterSpec::Randomized,
                    scale.seed ^ 0x62 ^ ((rho * 1e3) as u64),
                ),
            }
        })
        .collect()
}

/// Renders the comparison.
#[must_use]
pub fn render_randomized(n: usize, rows: &[RandomizedRow]) -> String {
    let mut t = TextTable::new(&["rho", "greedy", "randomized", "ratio"]);
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.rho),
            format!("{:.3}", r.t_greedy),
            format!("{:.3}", r.t_randomized),
            format!("{:.3}", r.t_randomized / r.t_greedy),
        ]);
    }
    format!(
        "Randomized greedy vs standard greedy, n = {n} (§6)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Torus vs array (§6).
// ---------------------------------------------------------------------

/// One load point of the torus-vs-array comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TorusRow {
    /// Per-node arrival rate.
    pub lambda: f64,
    /// Array simulated delay.
    pub t_array: f64,
    /// Torus simulated delay (same λ; the torus has more capacity).
    pub t_torus: f64,
    /// Torus mean distance (trivial lower bound).
    pub torus_nbar: f64,
    /// Theorem 10 lower bound for the torus (valid despite §6's open upper
    /// bound: the copy argument needs neither layering nor Markov routing).
    pub torus_lower10: f64,
}

/// Simulates the torus next to the array at the same arrival rates.
#[must_use]
pub fn torus_study(n: usize, lambdas: &[f64], scale: &Scale) -> Vec<TorusRow> {
    lambdas
        .par_iter()
        .map(|&lambda| {
            let torus = Scenario::torus(n)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.8))
                .warmup(scale.warmup(0.8))
                .seed(scale.seed ^ 0x70 ^ ((lambda * 1e5) as u64));
            let array = Scenario::mesh(n)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.8))
                .warmup(scale.warmup(0.8))
                .seed(scale.seed ^ 0x70 ^ ((lambda * 1e5) as u64));
            TorusRow {
                lambda,
                t_array: array.run().avg_delay,
                t_torus: torus.run().avg_delay,
                torus_nbar: torus.mean_distance(),
                torus_lower10: meshbound_queueing::bounds::torus::best_lower_bound(n, lambda),
            }
        })
        .collect()
}

/// Renders the torus study.
#[must_use]
pub fn render_torus(n: usize, rows: &[TorusRow]) -> String {
    let mut t = TextTable::new(&["lambda", "T(array)", "torus lower", "T(torus)", "torus n̄"]);
    for r in rows {
        t.row(vec![
            format!("{:.4}", r.lambda),
            format!("{:.3}", r.t_array),
            format!("{:.3}", r.torus_lower10),
            format!("{:.3}", r.t_torus),
            format!("{:.3}", r.torus_nbar),
        ]);
    }
    format!(
        "Torus vs array, n = {n} (§6: torus upper bound open; Thm 10 lower bound shown)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Higher-dimensional meshes (§5.2).
// ---------------------------------------------------------------------

/// One higher-dimensional mesh data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KdRow {
    /// Per-axis extents.
    pub dims: Vec<usize>,
    /// Per-node arrival rate.
    pub lambda: f64,
    /// Peak edge utilization (from exact enumerated rates).
    pub peak_util: f64,
    /// Simulated delay.
    pub t_sim: f64,
    /// Product-form upper bound from enumerated rates (greedy on a k-dim
    /// mesh is layered axis-by-axis and Markovian, so Theorem 5 extends).
    pub t_upper: f64,
    /// Theorem 10 lower bound with `d = Σ(n_a − 1)`.
    pub t_lower10: f64,
}

/// Simulates `k`-dimensional meshes against bounds computed from exact
/// enumerated rates — the §5.2 extension ("one can explicitly determine the
/// arrival rates at individual queues combinatorially"). The bounds are
/// [`BoundsReport::compute_for`]'s, which reads those rates.
#[must_use]
pub fn kd_study(shapes: &[Vec<usize>], lambda: f64, scale: &Scale) -> Vec<KdRow> {
    shapes
        .par_iter()
        .map(|dims| {
            let sc = Scenario::mesh_kd(dims)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.8))
                .warmup(scale.warmup(0.8))
                .seed(scale.seed ^ 0x6B64);
            let bounds = BoundsReport::compute_for(&sc);
            KdRow {
                dims: dims.clone(),
                lambda,
                peak_util: bounds.utilization,
                t_sim: sc.run().avg_delay,
                t_upper: bounds.upper,
                t_lower10: bounds.lower_thm10,
            }
        })
        .collect()
}

/// Renders the higher-dimensional mesh study.
#[must_use]
pub fn render_kd(rows: &[KdRow]) -> String {
    let mut t = TextTable::new(&["dims", "lambda", "peak util", "lower10", "T(sim)", "upper"]);
    for r in rows {
        let dims: Vec<String> = r.dims.iter().map(ToString::to_string).collect();
        t.row(vec![
            dims.join("x"),
            format!("{:.3}", r.lambda),
            format!("{:.3}", r.peak_util),
            format!("{:.3}", r.t_lower10),
            format!("{:.3}", r.t_sim),
            format!("{:.3}", r.t_upper),
        ]);
    }
    format!("Higher-dimensional meshes (§5.2)\n{}", t.render())
}

// ---------------------------------------------------------------------
// Slotted time (§5.2).
// ---------------------------------------------------------------------

/// One slot-width point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlottedRow {
    /// Slot width τ (0 denotes continuous time).
    pub tau: f64,
    /// Simulated delay.
    pub t_sim: f64,
}

/// Compares slotted arrivals at several widths against continuous time.
#[must_use]
pub fn slotted_study(n: usize, rho: f64, taus: &[f64], scale: &Scale) -> Vec<SlottedRow> {
    let lambda = 4.0 * rho / n as f64;
    let mut jobs: Vec<Option<f64>> = vec![None];
    jobs.extend(taus.iter().map(|&t| Some(t)));
    jobs.par_iter()
        .map(|&tau| {
            let mut sc = Scenario::mesh(n)
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(rho))
                .warmup(scale.warmup(rho))
                .seed(scale.seed ^ 0x5107);
            if let Some(t) = tau {
                sc = sc.slot(t);
            }
            SlottedRow {
                tau: tau.unwrap_or(0.0),
                t_sim: sc.run().avg_delay,
            }
        })
        .collect()
}

/// Renders the slotted study.
#[must_use]
pub fn render_slotted(n: usize, rho: f64, rows: &[SlottedRow]) -> String {
    let mut t = TextTable::new(&["tau", "T(sim)"]);
    for r in rows {
        t.row(vec![
            if r.tau == 0.0 {
                "continuous".into()
            } else {
                format!("{:.2}", r.tau)
            },
            format!("{:.3}", r.t_sim),
        ]);
    }
    format!(
        "Slotted time, n = {n}, ρ = {rho} (§5.2: slotted within τ of continuous)\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// Non-uniform (nearby) destinations (§5.2).
// ---------------------------------------------------------------------

/// One stop-probability point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NearbyRow {
    /// Per-node stop probability (1 recovers "stay very close").
    pub stop: f64,
    /// Simulated delay.
    pub t_sim: f64,
    /// Product-form upper bound computed from enumerated rates.
    pub t_upper: f64,
}

/// Simulates the §5.2 nearby-destination walk and checks the Theorem 5
/// upper bound still applies (the routing stays Markovian).
#[must_use]
pub fn nearby_study(n: usize, stops: &[f64], lambda: f64, scale: &Scale) -> Vec<NearbyRow> {
    stops
        .par_iter()
        .map(|&stop| {
            let sc = Scenario::mesh(n)
                .traffic(TrafficSpec::nearby(stop))
                .load(Load::Lambda(lambda))
                .horizon(scale.horizon(0.8))
                .warmup(scale.warmup(0.8))
                .seed(scale.seed ^ 0x4EA ^ ((stop * 100.0) as u64));
            NearbyRow {
                stop,
                t_sim: sc.run().avg_delay,
                t_upper: BoundsReport::compute_for(&sc).upper,
            }
        })
        .collect()
}

/// Renders the nearby-destination study.
#[must_use]
pub fn render_nearby(n: usize, lambda: f64, rows: &[NearbyRow]) -> String {
    let mut t = TextTable::new(&["stop", "T(sim)", "upper"]);
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.stop),
            format!("{:.3}", r.t_sim),
            format!("{:.3}", r.t_upper),
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

/// One load point of the dominance check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DominanceRow {
    /// Table-ρ.
    pub rho: f64,
    /// Deterministic-service FIFO simulated delay (the standard model).
    pub t_fifo_det: f64,
    /// Exponential-service (Jackson) simulated delay.
    pub t_jackson_sim: f64,
    /// Product-form closed form (= Theorem 7 upper bound).
    pub t_product_form: f64,
}

/// Verifies `T_FIFO ≤ T_Jackson ≈ product form` across loads.
#[must_use]
pub fn dominance_study(n: usize, rhos: &[f64], scale: &Scale) -> Vec<DominanceRow> {
    rhos.par_iter()
        .map(|&rho| {
            let lambda = 4.0 * rho / n as f64;
            let run = |service: ServiceKind, seed: u64| {
                Scenario::mesh(n)
                    .load(Load::TableRho(rho))
                    .horizon(scale.horizon(rho))
                    .warmup(scale.warmup(rho))
                    .seed(seed)
                    .service(service)
                    .run()
                    .avg_delay
            };
            DominanceRow {
                rho,
                t_fifo_det: run(ServiceKind::Deterministic, scale.seed ^ 0xF1F0),
                t_jackson_sim: run(ServiceKind::Exponential, scale.seed ^ 0x1ACC),
                t_product_form: meshbound_queueing::bounds::upper::upper_bound_delay(n, lambda),
            }
        })
        .collect()
}

/// Renders the dominance study.
#[must_use]
pub fn render_dominance(n: usize, rows: &[DominanceRow]) -> String {
    let mut t = TextTable::new(&["rho", "T FIFO(det)", "T Jackson(sim)", "product form"]);
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.rho),
            format!("{:.3}", r.t_fifo_det),
            format!("{:.3}", r.t_jackson_sim),
            format!("{:.3}", r.t_product_form),
        ]);
    }
    format!("Jackson dominance (§3.3), n = {n}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale::quick()
    }

    #[test]
    fn bounds_bracket_simulation() {
        let rows = bounds_curve(5, &[0.3, 0.7], &quick());
        for r in &rows {
            assert!(
                r.report.lower_best <= r.t_sim * 1.1,
                "ρ={}: lower {} vs sim {}",
                r.rho,
                r.report.lower_best,
                r.t_sim
            );
            assert!(
                r.t_sim <= r.report.upper * 1.1,
                "ρ={}: sim {} vs upper {}",
                r.rho,
                r.t_sim,
                r.report.upper
            );
        }
    }

    #[test]
    fn stability_flips_at_threshold() {
        let n = 6;
        let thr = mesh_stability_threshold(n);
        let rows = stability_sweep(n, &[0.7 * thr, 1.3 * thr], false, &quick());
        assert!(rows[0].growth < 1.8, "below threshold grew: {:?}", rows[0]);
        assert!(
            rows[1].growth > 1.8,
            "above threshold stable: {:?}",
            rows[1]
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
        let std_rows = stability_sweep(n, &[lambda], false, &quick());
        let opt_rows = stability_sweep(n, &[lambda], true, &quick());
        assert!(
            std_rows[0].growth > 1.8,
            "standard should destabilize: {:?}",
            std_rows[0]
        );
        assert!(
            opt_rows[0].growth < 1.8,
            "optimal should stabilize: {:?}",
            opt_rows[0]
        );
    }

    #[test]
    fn capacity_simulation_respects_jackson_upper_bound() {
        let n = 5;
        let rows = capacity_comparison(n, &[0.3], &quick());
        let r = &rows[0];
        assert!(r.t_jackson_optimal < r.t_jackson_standard);
        // Deterministic-service sim is upper-bounded by the Jackson value
        // (allow simulation noise).
        assert!(
            r.t_sim_optimal_det <= r.t_jackson_optimal * 1.1,
            "det sim {} vs jackson {}",
            r.t_sim_optimal_det,
            r.t_jackson_optimal
        );
        // Exponential-service sim matches the closed form.
        assert!(
            (r.t_sim_optimal_exp - r.t_jackson_optimal).abs() / r.t_jackson_optimal < 0.15,
            "exp sim {} vs closed {}",
            r.t_sim_optimal_exp,
            r.t_jackson_optimal
        );
    }

    #[test]
    fn hypercube_sim_within_bounds() {
        let rows = hypercube_study(5, &[0.5], 0.6, &quick());
        let r = &rows[0];
        assert!(r.t_lower12 <= r.t_sim * 1.1, "{r:?}");
        assert!(r.t_sim <= r.t_upper * 1.1, "{r:?}");
        assert!(r.new_gap < r.old_gap);
    }

    #[test]
    fn butterfly_sim_within_bounds() {
        let rows = butterfly_study(&[3], 0.6, &quick());
        let r = &rows[0];
        assert!(r.t_lower10 <= r.t_sim * 1.1, "{r:?}");
        assert!(r.t_sim <= r.t_upper * 1.1, "{r:?}");
        assert!(r.t_sim >= r.d as f64 * 0.95);
    }

    #[test]
    fn randomized_not_better_than_greedy() {
        // §6: randomized greedy performs slightly worse in simulation.
        let rows = randomized_study(6, &[0.8], &quick());
        assert!(
            rows[0].t_randomized > rows[0].t_greedy * 0.97,
            "{:?}",
            rows[0]
        );
    }

    #[test]
    fn torus_beats_array_at_same_lambda() {
        // Wraparound halves distances and doubles the cut capacity.
        let rows = torus_study(6, &[0.3], &quick());
        assert!(rows[0].t_torus < rows[0].t_array, "{:?}", rows[0]);
    }

    #[test]
    fn kd_mesh_sim_within_bounds() {
        let rows = kd_study(&[vec![3, 3, 3], vec![4, 4]], 0.15, &quick());
        for r in &rows {
            assert!(r.peak_util < 1.0, "{r:?}");
            assert!(r.t_lower10 <= r.t_sim * 1.1, "{r:?}");
            assert!(r.t_sim <= r.t_upper * 1.1, "{r:?}");
        }
    }

    #[test]
    fn torus_lower_bound_below_sim() {
        let rows = torus_study(6, &[0.3], &quick());
        assert!(
            rows[0].torus_lower10 <= rows[0].t_torus * 1.05,
            "{:?}",
            rows[0]
        );
    }

    #[test]
    fn slotted_within_tau_of_continuous() {
        let rows = slotted_study(5, 0.5, &[1.0], &quick());
        let cont = rows[0].t_sim;
        let slotted = rows[1].t_sim;
        assert!(
            (slotted - cont).abs() <= 1.0 + 0.5,
            "cont {cont}, slotted {slotted}"
        );
    }

    #[test]
    fn nearby_destinations_upper_bound_holds() {
        let rows = nearby_study(5, &[0.5], 0.3, &quick());
        assert!(rows[0].t_sim <= rows[0].t_upper * 1.1, "{:?}", rows[0]);
    }

    #[test]
    fn jackson_dominates_fifo() {
        let rows = dominance_study(5, &[0.7], &quick());
        let r = &rows[0];
        assert!(r.t_fifo_det <= r.t_jackson_sim * 1.05, "{r:?}");
        assert!(
            (r.t_jackson_sim - r.t_product_form).abs() / r.t_product_form < 0.15,
            "{r:?}"
        );
    }
}
