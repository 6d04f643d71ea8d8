//! One-stop analytic report for a scenario (topology + load).
//!
//! [`BoundsReport::compute_for`] fills the report for any
//! [`Scenario`] — mesh, torus, hypercube, butterfly or `k`-d mesh — from
//! one [`Scenario::resolve`]: the closed forms in
//! `meshbound_queueing::bounds` where the paper derives them and the
//! solved edge-rate vector otherwise.
//! [`BoundsReport::compute`] remains as the square-mesh shorthand.
//!
//! The report depends on the workload and the load alone, never on a
//! seed: a fault spec leaves it untouched, and the fault plans a run
//! draws are surveyed next to that run ([`DegradationReport::survey`]).

use meshbound_queueing::bounds::estimate::{estimate_from_rates, paper_queue_number};
use meshbound_queueing::bounds::{
    butterfly as bf_bounds, estimate, hypercube as hc_bounds, lower, torus as torus_bounds, upper,
};
use meshbound_queueing::load::{mesh_stability_threshold, optimal_stability_threshold, Load};
use meshbound_queueing::remaining::{dbar_closed, light_load_r, sbar_closed};
use meshbound_queueing::single::md1_mean_number;
use meshbound_sim::{RateClass, Resolution, Scenario, TopologySpec};
use meshbound_topology::Mesh2D;
use serde::{Deserialize, Serialize};

/// How the fault plans of a scenario's runs cut its network: the edges
/// they kill, the reachability they leave and the stability estimate
/// that follows, averaged over the plans [`DegradationReport::survey`]
/// is given. `repro scenario` surveys the plan of its one run; a faulted
/// sweep cell surveys the plans of its replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Distinct edges a plan takes down at least once.
    pub dead_edges: f64,
    /// Fraction of sampled source–destination pairs the router still
    /// connects with every failing edge permanently dead (worst case
    /// over the timeline — repairs only help).
    pub reachable_fraction: f64,
    /// First-order post-fault stability estimate: the healthy `λ*`
    /// scaled by [`reachable_fraction`](Self::reachable_fraction). The
    /// surviving traffic concentrates on fewer paths, so the true
    /// threshold can sit below this value; it is an upper estimate, not
    /// a bound.
    pub post_fault_lambda_star: f64,
}

impl DegradationReport {
    /// Surveys the fault plans of the runs at `seeds`
    /// ([`Scenario::fault_reachability`]; at least one seed) and averages
    /// them, scaling the healthy `λ*` of `bounds` (the scenario's analytic
    /// report); `None` for a healthy scenario.
    ///
    /// # Panics
    ///
    /// Panics if `sc` fails [`Scenario::validate`].
    #[must_use]
    pub fn survey(
        sc: &Scenario,
        bounds: &BoundsReport,
        seeds: impl IntoIterator<Item = u64>,
    ) -> Option<Self> {
        let plans: Vec<(usize, f64)> = seeds
            .into_iter()
            .map(|seed| sc.fault_reachability(seed))
            .collect::<Option<_>>()?;
        let n = plans.len() as f64;
        let reachable_fraction = plans.iter().map(|p| p.1).sum::<f64>() / n;
        Some(Self {
            dead_edges: plans.iter().map(|p| p.0 as f64).sum::<f64>() / n,
            reachable_fraction,
            post_fault_lambda_star: bounds.stability_lambda * reachable_fraction,
        })
    }
}

/// Every closed-form quantity the paper derives for a scenario at a given
/// load, gathered in one structure.
///
/// Use [`BoundsReport::compute_for`] to fill it for any [`Scenario`],
/// [`BoundsReport::compute`] as the square-mesh shorthand, and
/// [`BoundsReport::to_text`] for a human-readable summary. Theorem-specific
/// fields that the paper does not derive for a topology are set to `0.0`
/// (they are vacuous lower bounds, so `lower_best` stays correct). The
/// torus has no proven upper bound (§6's open problem), and neither has a
/// router that reads queue state, so their `upper` is `∞`. Simulated
/// values are *not* included here — see
/// [`crate::experiments`] and [`Scenario::run`] for the measurement
/// harnesses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BoundsReport {
    /// Topology label, e.g. `"array 10x10"` or `"torus 8x8"`.
    pub label: String,
    /// Characteristic size: array side `n`, torus side, hypercube dimension,
    /// butterfly levels, or the largest extent of a `k`-d mesh.
    pub n: usize,
    /// Total node count.
    pub nodes: usize,
    /// Per-source Poisson arrival rate.
    pub lambda: f64,
    /// Load in Table I's convention (`λn/4`) on the square mesh; equal to
    /// [`BoundsReport::utilization`] on every other topology.
    pub table_rho: f64,
    /// Peak edge utilization (`max_e λ_e`).
    pub utilization: f64,
    /// Mean greedy route length over the destination distribution.
    pub mean_distance: f64,
    /// Theorem 5/7 upper bound on the mean delay (`∞` for the torus, where
    /// the upper bound is §6's open problem, and for adaptive routers).
    pub upper: f64,
    /// §4.2 estimate, paper's printed form (Table I "Est.").
    pub est_paper: f64,
    /// §4.2 estimate, textbook M/D/1 form.
    pub est_md1: f64,
    /// Theorem 8 lower bound (any routing; square mesh only, else 0).
    pub lower_thm8_any: f64,
    /// Theorem 8 lower bound (oblivious routing; square mesh only, else 0).
    pub lower_thm8_oblivious: f64,
    /// Theorem 10 lower bound (copy network, max route length `d`).
    pub lower_thm10: f64,
    /// Theorem 12 lower bound (Markovian, max expected remaining distance
    /// `d̄`; 0 where `d̄` is not derived).
    pub lower_thm12: f64,
    /// Theorem 14 heavy-traffic lower bound (saturated edges; square mesh
    /// only, else 0).
    pub lower_thm14: f64,
    /// Trivial bound `n̄`.
    pub lower_trivial: f64,
    /// Best lower bound (max of the above).
    pub lower_best: f64,
    /// Maximum expected remaining distance `d̄` (0 where not derived).
    pub dbar: f64,
    /// Maximum expected remaining saturated distance `s̄` (square mesh only,
    /// else 0).
    pub sbar: f64,
    /// Light-load value of Table II's ratio `r` (square mesh only, else 0).
    pub light_load_r: f64,
    /// Stability threshold `λ*` of the topology's routing pattern.
    pub stability_lambda: f64,
    /// Stability threshold with optimal capacity allocation, `6/(n+1)`
    /// (square mesh only, else 0).
    pub optimal_stability_lambda: f64,
    /// Number of silent sources — all-zero traffic-matrix rows that
    /// generate nothing. Zero for every non-matrix workload. Surfaced so a
    /// mostly-zero matrix cannot masquerade as a healthy all-sources
    /// workload (the offered load concentrates on the speaking rows).
    pub silent_sources: usize,
}

impl BoundsReport {
    /// Computes the full report for an `n × n` array at the given load —
    /// the mesh shorthand for [`BoundsReport::compute_for`].
    #[must_use]
    pub fn compute(n: usize, load: Load) -> Self {
        let lambda = load.lambda(n);
        let rho_util = load.utilization(n);
        Self {
            label: format!("array {n}x{n}"),
            n,
            nodes: n * n,
            lambda,
            table_rho: lambda * n as f64 / 4.0,
            utilization: rho_util,
            mean_distance: Mesh2D::square(n).mean_distance(),
            upper: upper::upper_bound_delay(n, lambda),
            est_paper: estimate::estimate_paper(n, lambda),
            est_md1: estimate::estimate_md1(n, lambda),
            lower_thm8_any: lower::thm8_any_routing(n, rho_util),
            lower_thm8_oblivious: lower::thm8_oblivious(n, rho_util),
            lower_thm10: lower::thm10_lower(n, lambda),
            lower_thm12: lower::thm12_lower(n, lambda),
            lower_thm14: lower::thm14_lower(n, lambda),
            lower_trivial: lower::trivial_lower(n),
            lower_best: lower::best_lower_bound(n, lambda),
            dbar: dbar_closed(n),
            sbar: sbar_closed(n),
            light_load_r: light_load_r(n),
            stability_lambda: mesh_stability_threshold(n),
            optimal_stability_lambda: optimal_stability_threshold(n),
            silent_sources: 0,
        }
    }

    /// Computes the report for any [`Scenario`] from one
    /// [`Scenario::resolve`]: the topology's closed forms where the paper
    /// derives them (Theorem 6 on the square mesh, §4.5 hypercube and
    /// butterfly, §6 torus — all under the standard uniform workload) and
    /// the exact edge-rate vector otherwise: rectangular meshes, nearby
    /// destinations, randomized greedy and adaptive routers, `k`-d meshes,
    /// and every [`TrafficSpec`](meshbound_sim::TrafficSpec) workload
    /// (permutations, hotspots, matrices, weighted sources).
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::resolve`] fails: the scenario is invalid, or
    /// an adaptive router's rate solver does not converge.
    #[must_use]
    pub fn compute_for(sc: &Scenario) -> Self {
        let rates = sc.resolve().unwrap_or_else(|e| panic!("{e}"));
        Self::compute_with(sc, &rates)
    }

    /// [`BoundsReport::compute_for`] from a resolution the caller already
    /// holds (`rates` must come from `sc.resolve()`), so the report costs
    /// no second solve.
    #[must_use]
    pub fn compute_with(sc: &Scenario, rates: &Resolution) -> Self {
        match &rates.class {
            RateClass::Mesh(n) => Self::compute(*n, Load::Lambda(rates.lambda)),
            RateClass::Torus(n) => Self::torus_report(sc, rates, *n),
            RateClass::Hypercube(dim, p) => Self::hypercube_report(sc, rates, *dim, *p),
            RateClass::Butterfly(k) => Self::butterfly_report(sc, rates, *k),
            RateClass::Solved(_) => Self::generic_report(sc, rates),
        }
    }

    /// What every resolved report shares: the scenario's identity and
    /// load, with every bound left at `0.0` (vacuous) for the builders
    /// below to fill in.
    fn resolved(sc: &Scenario, res: &Resolution, n: usize) -> Self {
        Self {
            label: sc.label(),
            n,
            nodes: sc.topology.num_nodes(),
            lambda: res.lambda,
            table_rho: res.peak_utilization(),
            utilization: res.peak_utilization(),
            mean_distance: res.mean_distance,
            silent_sources: sc.silent_sources(),
            ..Self::default()
        }
    }

    /// §6 torus: Theorem 10's copy bound applies (it needs neither layering
    /// nor the Markov property), the upper bound is the paper's open
    /// problem, and the independence estimate is computed from the exact
    /// wraparound rates.
    fn torus_report(sc: &Scenario, res: &Resolution, n: usize) -> Self {
        let (lambda, rates) = (res.lambda, res.edge_rates());
        Self {
            upper: f64::INFINITY,
            est_paper: estimate_from_rates(&rates, res.gamma, paper_queue_number),
            est_md1: estimate_from_rates(&rates, res.gamma, md1_mean_number),
            lower_thm10: torus_bounds::thm10_lower(n, lambda),
            lower_trivial: torus_bounds::trivial_lower(n),
            lower_best: torus_bounds::best_lower_bound(n, lambda),
            stability_lambda: torus_bounds::stability_threshold(n),
            ..Self::resolved(sc, res, n)
        }
    }

    /// §4.5 hypercube with per-bit flip probability `p`: every edge carries
    /// `λp`, so every quantity has a closed form.
    fn hypercube_report(sc: &Scenario, res: &Resolution, d: usize, p: f64) -> Self {
        let (lambda, le) = (res.lambda, res.peak_utilization());
        let lower_thm10 = hc_bounds::thm10_lower(d, lambda, p);
        let lower_thm12 = hc_bounds::thm12_lower(d, lambda, p);
        let trivial = hc_bounds::mean_distance(d, p);
        Self {
            mean_distance: trivial,
            upper: hc_bounds::upper_bound_delay(d, lambda, p),
            // All d·2^d edges carry λp and γ = λ·2^d, so the per-edge sums
            // collapse to d·N(λp)/λ.
            est_paper: d as f64 * paper_queue_number(le) / lambda,
            est_md1: d as f64 * md1_mean_number(le) / lambda,
            lower_thm10,
            lower_thm12,
            lower_trivial: trivial,
            lower_best: lower_thm10.max(lower_thm12).max(trivial),
            dbar: hc_bounds::dbar(d, p),
            stability_lambda: 1.0 / p,
            ..Self::resolved(sc, res, d)
        }
    }

    /// §4.5 butterfly: every packet crosses exactly `k` edges, every edge
    /// carries `λ/2`, and every route has the same length (so `d̄ = d = k`
    /// and Theorems 10 and 12 coincide).
    fn butterfly_report(sc: &Scenario, res: &Resolution, k: usize) -> Self {
        let (lambda, le, kf) = (res.lambda, res.peak_utilization(), k as f64);
        let lower_thm10 = bf_bounds::thm10_lower(k, lambda);
        Self {
            upper: bf_bounds::upper_bound_delay(k, lambda),
            // k·2^{k+1} edges at λ/2 against γ = λ·2^k sources.
            est_paper: 2.0 * kf * paper_queue_number(le) / lambda,
            est_md1: 2.0 * kf * md1_mean_number(le) / lambda,
            lower_thm10,
            lower_thm12: lower_thm10,
            lower_trivial: kf,
            lower_best: lower_thm10.max(kf),
            dbar: kf,
            stability_lambda: 2.0,
            ..Self::resolved(sc, res, k)
        }
    }

    /// The solved-rates report for every remaining scenario: rectangular
    /// meshes, nearby destinations, randomized greedy and adaptive
    /// routers, `k`-d meshes, and all pattern/hotspot/matrix/weighted-source
    /// workloads. Uses the generic Theorem 5 product form and Theorem 10
    /// copy bound from the exact per-edge rates of the *actual* workload.
    /// On the torus the upper bound stays `∞` for every workload — §6's
    /// layerability obstruction does not depend on the traffic. So does
    /// an adaptive router's: Theorem 5 rests on the processor-sharing
    /// comparison, which the paper makes for Markovian routing
    /// (Corollary 4), and a router that reads queue state is not.
    fn generic_report(sc: &Scenario, res: &Resolution) -> Self {
        let (rates, gamma, trivial) = (res.edge_rates(), res.gamma, res.mean_distance);
        let d_max = sc.topology.max_distance() as f64;
        let lower_thm10 = lower::lower_bound_from_rates(&rates, d_max, gamma);
        let n = match &sc.topology {
            TopologySpec::Mesh { rows, cols } => *rows.max(cols),
            TopologySpec::MeshKd { dims } => dims.iter().copied().max().unwrap_or(0),
            other => other.num_nodes(),
        };
        Self {
            upper: if matches!(sc.topology, TopologySpec::Torus { .. }) || sc.router.is_adaptive() {
                f64::INFINITY
            } else {
                upper::upper_bound_from_rates(&rates, gamma)
            },
            est_paper: estimate_from_rates(&rates, gamma, paper_queue_number),
            est_md1: estimate_from_rates(&rates, gamma, md1_mean_number),
            lower_thm10,
            lower_trivial: trivial,
            lower_best: lower_thm10.max(trivial),
            // λ/peak, which can differ from 1/peak_unit in the last bit.
            stability_lambda: res.lambda / res.peak_utilization(),
            ..Self::resolved(sc, res, n)
        }
    }

    /// Ratio of upper to best lower bound (the "gap" the paper tracks);
    /// `∞` where the upper bound is open or the load saturates an edge.
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.upper / self.lower_best
    }

    /// Multi-line human-readable summary.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{0} ({1} nodes): λ = {2:.5} (Table-ρ {3:.3}, peak utilization {4:.3})\n",
            self.label, self.nodes, self.lambda, self.table_rho, self.utilization
        ));
        s.push_str(&format!(
            "  mean distance n̄ = {:.4}   d̄ = {:.1}   s̄ = {:.4}\n",
            self.mean_distance, self.dbar, self.sbar
        ));
        if self.upper.is_finite() {
            s.push_str(&format!(
                "  upper bound (Thm 5/7)      T ≤ {:.4}\n",
                self.upper
            ));
        } else {
            s.push_str(
                "  upper bound                open (torus §6, adaptive router) or saturated\n",
            );
        }
        s.push_str(&format!(
            "  estimate (paper / M/D/1)   T ≈ {:.4} / {:.4}\n",
            self.est_paper, self.est_md1
        ));
        s.push_str(&format!(
            "  lower bounds: Thm8any {:.4}  Thm8obl {:.4}  Thm10 {:.4}  Thm12 {:.4}  Thm14 {:.4}  n̄ {:.4}\n",
            self.lower_thm8_any,
            self.lower_thm8_oblivious,
            self.lower_thm10,
            self.lower_thm12,
            self.lower_thm14,
            self.lower_trivial
        ));
        if self.gap().is_finite() {
            s.push_str(&format!(
                "  best lower {:.4}   gap upper/lower = {:.3}\n",
                self.lower_best,
                self.gap()
            ));
        } else {
            s.push_str(&format!("  best lower {:.4}\n", self.lower_best));
        }
        if self.optimal_stability_lambda > 0.0 {
            s.push_str(&format!(
                "  stability: standard λ < {:.4}, optimal allocation λ < {:.4}\n",
                self.stability_lambda, self.optimal_stability_lambda
            ));
        } else {
            s.push_str(&format!("  stability: λ < {:.4}\n", self.stability_lambda));
        }
        if self.silent_sources > 0 {
            s.push_str(&format!(
                "  WARNING: {} of {} sources are silent (all-zero matrix rows) — \
                 the offered load concentrates on the remaining sources\n",
                self.silent_sources, self.nodes
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshbound_sim::{RouterSpec, SourceSpec, TrafficSpec};

    #[test]
    fn report_is_internally_consistent() {
        for n in [4usize, 5, 10, 15] {
            for rho in [0.2, 0.8, 0.95] {
                let r = BoundsReport::compute(n, Load::TableRho(rho));
                assert!(r.lower_best <= r.upper, "n={n}, ρ={rho}");
                assert!(r.est_paper <= r.est_md1);
                assert!(r.est_md1 <= r.upper + 1e-12);
                assert!(r.lower_best >= r.lower_trivial);
                assert!((r.table_rho - rho).abs() < 1e-12);
                assert!(r.gap() >= 1.0);
            }
        }
    }

    #[test]
    fn compute_for_square_mesh_matches_compute() {
        let sc = Scenario::mesh(10).load(Load::TableRho(0.8));
        let via_scenario = BoundsReport::compute_for(&sc);
        let direct = BoundsReport::compute(10, Load::TableRho(0.8));
        assert_eq!(via_scenario.upper.to_bits(), direct.upper.to_bits());
        assert_eq!(
            via_scenario.lower_best.to_bits(),
            direct.lower_best.to_bits()
        );
        assert_eq!(via_scenario.est_paper.to_bits(), direct.est_paper.to_bits());
        assert_eq!(via_scenario.label, direct.label);
    }

    #[test]
    fn compute_for_covers_every_topology() {
        let scenarios = [
            Scenario::mesh(6).load(Load::TableRho(0.5)),
            Scenario::mesh_rect(3, 6).load(Load::Utilization(0.5)),
            Scenario::mesh(5)
                .router(RouterSpec::Randomized)
                .load(Load::Lambda(0.2)),
            Scenario::mesh(5)
                .traffic(TrafficSpec::nearby(0.5))
                .load(Load::Lambda(0.3)),
            Scenario::torus(6).load(Load::Utilization(0.5)),
            Scenario::hypercube(5).load(Load::Utilization(0.5)),
            Scenario::hypercube(5)
                .traffic(TrafficSpec::bernoulli(0.25))
                .load(Load::Utilization(0.5)),
            Scenario::butterfly(4).load(Load::Utilization(0.5)),
            Scenario::mesh_kd(&[3, 3, 3]).load(Load::Utilization(0.5)),
            // TrafficSpec workloads resolve against their own rate
            // vectors.
            Scenario::mesh(8)
                .traffic(TrafficSpec::transpose())
                .load(Load::Utilization(0.5)),
            Scenario::mesh(8)
                .traffic(TrafficSpec::bit_reversal())
                .load(Load::Utilization(0.5)),
            Scenario::mesh(6)
                .traffic(TrafficSpec::hotspot(0.2))
                .load(Load::Utilization(0.5)),
            Scenario::hypercube(4)
                .traffic(TrafficSpec::bit_complement())
                .load(Load::Utilization(0.5)),
            Scenario::mesh(5)
                .source(SourceSpec::Hotspot {
                    node: None,
                    weight: 4.0,
                })
                .load(Load::Utilization(0.5)),
            // Adaptive routers: λ* and the bounds resolve against the
            // fixed-point rate vector.
            Scenario::mesh(6)
                .router(RouterSpec::WestFirst)
                .load(Load::Utilization(0.5)),
            Scenario::mesh(8)
                .router(RouterSpec::OddEven)
                .traffic(TrafficSpec::transpose())
                .load(Load::Utilization(0.5)),
            Scenario::torus(5)
                .router(RouterSpec::OddEven)
                .load(Load::Utilization(0.5)),
        ];
        for sc in &scenarios {
            let r = BoundsReport::compute_for(sc);
            assert!(r.lower_best > 0.0, "{}", r.label);
            assert!(r.lower_best.is_finite(), "{}", r.label);
            assert!(
                r.lower_best <= r.upper,
                "{}: {} > {}",
                r.label,
                r.lower_best,
                r.upper
            );
            assert!(r.lower_best >= r.lower_trivial, "{}", r.label);
            assert!(r.mean_distance > 0.0, "{}", r.label);
            assert!(r.stability_lambda > 0.0, "{}", r.label);
            assert!(
                (r.utilization - 0.5).abs() < 1e-9 || !matches!(sc.load, Load::Utilization(_)),
                "{}: utilization {}",
                r.label,
                r.utilization
            );
            // Every topology except the torus has a finite proven upper
            // bound below saturation, for every router that does not read
            // queue state.
            if !matches!(sc.topology, TopologySpec::Torus { .. }) && !sc.router.is_adaptive() {
                assert!(r.upper.is_finite(), "{}", r.label);
                assert!(r.est_md1 <= r.upper + 1e-9, "{}", r.label);
            }
            if sc.router.is_adaptive() {
                assert!(r.upper.is_infinite(), "{}", r.label);
            }
        }
    }

    #[test]
    fn torus_upper_bound_is_open() {
        let r = BoundsReport::compute_for(&Scenario::torus(8).load(Load::Utilization(0.5)));
        assert!(r.upper.is_infinite());
        assert!(r.est_md1.is_finite());
        assert!(r.to_text().contains("open"));
    }

    #[test]
    fn pattern_reports_use_the_actual_rate_vector() {
        // The transpose workload on an 8×8 mesh has a different peak than
        // uniform; at util=0.5 its report must say utilization 0.5 and a
        // finite upper bound strictly above the trivial one.
        let sc = Scenario::mesh(8)
            .traffic(TrafficSpec::transpose())
            .load(Load::Utilization(0.5));
        let r = BoundsReport::compute_for(&sc);
        assert!((r.utilization - 0.5).abs() < 1e-9);
        assert!(r.upper.is_finite() && r.upper > r.mean_distance);
        // The same λ under the uniform workload gives a *different*
        // report — the pattern matters.
        let uniform = BoundsReport::compute_for(&Scenario::mesh(8).load(Load::Lambda(sc.lambda())));
        assert_ne!(r.upper.to_bits(), uniform.upper.to_bits());
        // Torus workloads keep the open upper bound whatever the pattern.
        let torus = BoundsReport::compute_for(
            &Scenario::torus(4)
                .traffic(TrafficSpec::bit_complement())
                .load(Load::Utilization(0.4)),
        );
        assert!(torus.upper.is_infinite());
        assert!(torus.lower_best.is_finite() && torus.lower_best > 0.0);
    }

    #[test]
    fn hypercube_report_matches_closed_forms() {
        let sc = Scenario::hypercube(6)
            .traffic(TrafficSpec::bernoulli(0.25))
            .load(Load::Lambda(1.0));
        let r = BoundsReport::compute_for(&sc);
        assert!((r.upper - hc_bounds::upper_bound_delay(6, 1.0, 0.25)).abs() < 1e-12);
        assert!((r.lower_thm12 - hc_bounds::thm12_lower(6, 1.0, 0.25)).abs() < 1e-12);
        assert!((r.dbar - hc_bounds::dbar(6, 0.25)).abs() < 1e-12);
        assert!((r.mean_distance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn heavy_traffic_gap_bounded_for_even_n() {
        // Theorem 14's headline: the gap is ~3 for even n near capacity.
        let r = BoundsReport::compute(10, Load::TableRho(0.9999));
        assert!(r.gap() < 3.1, "gap {}", r.gap());
    }

    #[test]
    fn heavy_traffic_gap_bounded_for_odd_n() {
        let r = BoundsReport::compute(9, Load::Utilization(0.9999));
        assert!(r.gap() < 6.0, "gap {}", r.gap());
    }

    #[test]
    fn silent_sources_surface_in_the_report() {
        let rows = vec![
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ];
        let sc = Scenario::mesh(2)
            .pattern(meshbound_sim::PatternSpec::Matrix { rows })
            .load(Load::Lambda(0.1));
        let r = BoundsReport::compute_for(&sc);
        assert_eq!(r.silent_sources, 2);
        assert!(r.to_text().contains("2 of 4 sources are silent"));
        // Non-matrix workloads report zero and stay warning-free.
        let r = BoundsReport::compute(8, Load::TableRho(0.5));
        assert_eq!(r.silent_sources, 0);
        assert!(!r.to_text().contains("silent"));
    }

    #[test]
    fn faulted_scenarios_grow_a_degradation_section() {
        use meshbound_sim::FaultSpec;
        let healthy = Scenario::mesh(6).load(Load::TableRho(0.5));
        let base = BoundsReport::compute_for(&healthy);
        assert_eq!(DegradationReport::survey(&healthy, &base, [1, 2]), None);
        // The analytic report ignores the fault spec: it is the healthy
        // one, bit for bit.
        let faulted = healthy.clone().faults(FaultSpec::links(0.1));
        let r = BoundsReport::compute_for(&faulted);
        assert_eq!(serde::json::to_string(&r), serde::json::to_string(&base));
        assert_eq!(r.to_text(), base.to_text());
        // The survey averages the plans the runs at the given seeds draw.
        let seeds = [faulted.replication_seed(0), faulted.replication_seed(1)];
        let plans = seeds.map(|seed| faulted.fault_reachability(seed).unwrap());
        let d = DegradationReport::survey(&faulted, &r, seeds).expect("faults => degradation");
        assert_eq!(d.dead_edges, (plans[0].0 + plans[1].0) as f64 / 2.0);
        assert_eq!(d.reachable_fraction, (plans[0].1 + plans[1].1) / 2.0);
        assert!(d.dead_edges > 0.0);
        assert!((0.0..=1.0).contains(&d.reachable_fraction));
        assert_eq!(
            d.post_fault_lambda_star,
            r.stability_lambda * d.reachable_fraction
        );
        // One seed is one plan; the same seeds give the same survey.
        let one = DegradationReport::survey(&faulted, &r, [seeds[0]]).unwrap();
        assert_eq!(one.reachable_fraction, plans[0].1);
        assert_eq!(DegradationReport::survey(&faulted, &r, seeds), Some(d));
    }

    #[test]
    fn text_rendering_mentions_key_quantities() {
        let r = BoundsReport::compute(8, Load::TableRho(0.5));
        let text = r.to_text();
        assert!(text.contains("upper bound"));
        assert!(text.contains("Thm12"));
        assert!(text.contains("stability"));
        assert!(text.contains("array 8x8"));
    }
}
