//! Rate resolution: one classifier decides which closed form gives a
//! scenario's per-edge arrival rates, and [`Scenario::resolve`] turns the
//! answer into every rate-derived number the system reports.
//!
//! The paper derives the unit rates (mean source rate 1) in closed form
//! for four workloads, each with uniform sources and the topology's
//! greedy router: Theorem 6 on the square mesh, the §6 torus rows, and
//! the §4.5 hypercube (Bernoulli destinations) and butterfly. Every other
//! workload solves for its vector: exact path enumeration for oblivious
//! routers (with a sparse fast path above [`SPARSE_RATES_MIN_NODES`]
//! sources) and the fixed-point solver for adaptive ones. A closed form
//! carries only its peak; a solved vector is memoized per
//! `(topology, router, traffic)`, because it does not depend on the load
//! and sweeps resolve it again for every cell of a load axis.

use crate::engine::{SPARSE_RATES_MIN_NODES, STREAMING_STATS_MAX_EDGES};
use crate::scenario::{generic_dest_for, RouterSpec, Scenario, ScenarioError, TopologySpec};
use crate::traffic::{PatternSpec, SourceSpec};
use meshbound_queueing::load::Load;
use meshbound_routing::dest::{ButterflyOutput, DestSampler, NearbyWalk};
use meshbound_routing::pattern::PatternTopology;
use meshbound_routing::rates::{
    all_nodes, edge_rates_sparse, edge_rates_weighted, mesh_max_rate, mesh_thm6_rates,
    torus_row_rates, total_rate,
};
use meshbound_routing::{
    adaptive_edge_rates, ButterflyRouter, DimOrder, GreedyXY, KdGreedy, ObliviousRouter, OddEven,
    RandomizedGreedy, SplitRouting, TorusGreedy, WestFirst,
};
use meshbound_topology::{
    Butterfly, Direction, Hypercube, Mesh2D, MeshKD, NodeId, Topology, Torus2D,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which closed form gives a workload's unit edge rates, or the solved
/// vector where none does.
#[derive(Debug, Clone, PartialEq)]
pub enum RateClass {
    /// Theorem 6: uniform traffic under greedy XY routing on the `n × n`
    /// array, by side `n`.
    Mesh(usize),
    /// §6: uniform traffic under greedy wraparound routing on the `n × n`
    /// torus, by side `n`.
    Torus(usize),
    /// §4.5: Bernoulli-`p` destinations on the `dim`-cube, as
    /// `(dim, p)`; uniform traffic is `p = ½`, and every edge carries `p`.
    Hypercube(usize, f64),
    /// §4.5: uniform output rows on the `k`-level butterfly, by `k`; every
    /// edge carries ½.
    Butterfly(usize),
    /// No closed form: the unit-rate vector from path enumeration or the
    /// fixed-point solver.
    Solved(Arc<Vec<f64>>),
}

impl RateClass {
    /// Per-edge rates at unit mean source rate: built for a closed form
    /// (one `f64` per edge), borrowed when solved.
    pub(crate) fn unit_rates(&self) -> Cow<'_, [f64]> {
        match self {
            RateClass::Mesh(n) => mesh_thm6_rates(&Mesh2D::square(*n), 1.0).into(),
            RateClass::Torus(n) => torus_uniform_unit_rates(*n).into(),
            RateClass::Hypercube(dim, p) => vec![*p; dim << dim].into(),
            RateClass::Butterfly(k) => vec![0.5; k << (k + 1)].into(),
            RateClass::Solved(unit) => unit.as_slice().into(),
        }
    }

    /// Peak per-edge rate at unit mean source rate.
    fn peak(&self) -> f64 {
        match self {
            RateClass::Mesh(n) => mesh_max_rate(*n, 1.0),
            RateClass::Torus(n) => torus_row_rates(*n, 1.0).0,
            RateClass::Hypercube(_, p) => *p,
            RateClass::Butterfly(_) => 0.5,
            RateClass::Solved(unit) => unit.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// A scenario's rates, resolved once by [`Scenario::resolve`]: the
/// closed-form class, λ, γ, the mean distance and the peak unit rate.
/// `BoundsReport`, the engine's λ and every rate reader on [`Scenario`]
/// take their numbers from this value.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolution {
    /// The closed form of the unit rates, or the solved vector.
    pub class: RateClass,
    /// Peak per-edge rate at unit mean source rate.
    pub peak_unit: f64,
    /// Mean route length per generated packet (self-pairs included).
    pub mean_distance: f64,
    /// The mean per-source rate λ the load denotes.
    pub lambda: f64,
    /// Total external arrival rate `γ = λ × #sources`.
    pub gamma: f64,
}

impl Resolution {
    /// Per-edge arrival rates at λ; materializes one `f64` per edge.
    #[must_use]
    pub fn edge_rates(&self) -> Vec<f64> {
        self.class
            .unit_rates()
            .iter()
            .map(|r| r * self.lambda)
            .collect()
    }

    /// Peak edge utilization `max_e λ_e` at λ (unit service rates).
    #[must_use]
    pub fn peak_utilization(&self) -> f64 {
        self.lambda * self.peak_unit
    }

    /// The stability threshold `λ*`: the λ at which the busiest edge
    /// saturates (unit service rates).
    pub(crate) fn stability_lambda(&self) -> f64 {
        1.0 / self.peak_unit
    }
}

/// Memo entry cap: at the edge-count gate each vector is ≤ 0.5 MiB, so
/// the memo tops out around 32 MiB before it resets.
const MEMO_MAX_ENTRIES: usize = 64;

/// Absolute tolerance of the adaptive fixed-point rate solver. Minimal
/// routers give nilpotent per-destination chains, so the iteration is
/// exact after `diameter` sweeps — the tolerance only guards the
/// termination test against rounding noise.
const FP_TOL: f64 = 1e-13;

/// Sweep budget of the adaptive fixed-point rate solver; far above the
/// diameter of any topology that fits the edge-rate gates.
const FP_MAX_ITER: usize = 10_000;

impl Scenario {
    /// Resolves the scenario's rates once (see [`Resolution`]).
    ///
    /// A closed-form workload costs a few arithmetic operations and builds
    /// no vector. Any other workload solves its unit-rate vector: exact
    /// enumeration for oblivious routers, the fixed-point solver for
    /// adaptive ones. Below [`STREAMING_STATS_MAX_EDGES`] edges, solved
    /// vectors are memoized per `(topology, router, traffic)` — except
    /// traffic matrices and explicit per-source rate vectors, whose keys
    /// are unbounded and rarely repeat — so resolving the same workload at
    /// another load costs no second solve. A memo hit is bit-identical to
    /// the cold solve.
    ///
    /// # Errors
    ///
    /// Returns what [`Scenario::validate`] rejects, and
    /// [`ScenarioError::Convergence`] if an adaptive router's fixed-point
    /// solver runs out of sweeps.
    pub fn resolve(&self) -> Result<Resolution, ScenarioError> {
        self.validate()?;
        self.resolution()
    }

    /// [`Scenario::resolve`] for a scenario the caller has validated.
    pub(crate) fn resolution(&self) -> Result<Resolution, ScenarioError> {
        let (class, mean_distance) = self.unit_part()?;
        let peak_unit = class.peak();
        let lambda = self.load_lambda().unwrap_or_else(|rho| rho / peak_unit);
        Ok(Resolution {
            class,
            peak_unit,
            mean_distance,
            lambda,
            gamma: lambda * self.num_sources() as f64,
        })
    }

    /// λ alone: a load that fixes λ without the rates costs no solve.
    pub(crate) fn try_lambda(&self) -> Result<f64, ScenarioError> {
        self.load_lambda()
            .or_else(|_| self.resolution().map(|res| res.lambda))
    }

    /// The λ a load fixes on its own — `Load::Lambda` passes through, and
    /// `Load::TableRho(ρ)` keeps Table I's `λ = 4ρ/n` on square meshes —
    /// or else `Err(ρ)`, the peak utilization every other load asks for:
    /// λ solves `max_e λ_e = ρ`.
    pub(crate) fn load_lambda(&self) -> Result<f64, f64> {
        match (self.load, &self.topology) {
            (Load::Lambda(lambda), _) => Ok(lambda),
            (Load::TableRho(rho), TopologySpec::Mesh { rows, cols }) if rows == cols => {
                Ok(4.0 * rho / *rows as f64)
            }
            (Load::TableRho(rho) | Load::Utilization(rho), _) => Err(rho),
        }
    }

    /// The one classifier: the closed form of the unit rates of this
    /// topology, router and source model under `pattern`, or `None` when
    /// they must be solved.
    fn closed_class(&self, pattern: &PatternSpec) -> Option<RateClass> {
        Some(match (&self.topology, self.router, pattern) {
            _ if !self.traffic.source.is_uniform() => return None,
            (TopologySpec::Mesh { rows, cols }, RouterSpec::Greedy, PatternSpec::Uniform)
                if rows == cols =>
            {
                RateClass::Mesh(*rows)
            }
            // The torus rows describe greedy wraparound routing; adaptive
            // routers spread the flow differently.
            (TopologySpec::Torus { n }, router, PatternSpec::Uniform) if !router.is_adaptive() => {
                RateClass::Torus(*n)
            }
            (TopologySpec::Hypercube { dim }, _, PatternSpec::Uniform) => {
                RateClass::Hypercube(*dim, 0.5)
            }
            (TopologySpec::Hypercube { dim }, _, PatternSpec::Bernoulli { p }) => {
                RateClass::Hypercube(*dim, *p)
            }
            // The butterfly's pattern is always uniform output rows
            // (validated).
            (TopologySpec::Butterfly { k }, _, _) => RateClass::Butterfly(*k),
            _ => return None,
        })
    }

    /// The mean route length where a closed form gives it. This decision
    /// is separate from the rate classes: it does not depend on the
    /// router, and it covers workloads whose rates have no closed form.
    fn closed_mean_distance(&self) -> Option<f64> {
        // Mean |i−j| over uniform ordered pairs (self included) on a line
        // of m nodes: (m² − 1)/(3m).
        let line = |m: usize| {
            let m = m as f64;
            (m * m - 1.0) / (3.0 * m)
        };
        Some(match (&self.topology, &self.traffic.pattern) {
            // Every butterfly route is exactly k hops, whatever the
            // source weighting.
            (TopologySpec::Butterfly { k }, _) => *k as f64,
            _ if !self.traffic.source.is_uniform() => return None,
            (TopologySpec::Mesh { rows, cols }, PatternSpec::Uniform) => line(*rows) + line(*cols),
            (TopologySpec::Mesh { rows, cols }, PatternSpec::Nearby { stop }) => {
                let mesh = Mesh2D::rect(*rows, *cols);
                let w = NearbyWalk::new(*stop);
                let mut sum = 0.0;
                for s in mesh.nodes() {
                    let (r1, c1) = mesh.coords(s);
                    for d in mesh.nodes() {
                        let (r2, c2) = mesh.coords(d);
                        let dist = r1.abs_diff(r2) + c1.abs_diff(c2);
                        sum += w.weight(&mesh, s, d) * dist as f64;
                    }
                }
                sum / mesh.num_nodes() as f64
            }
            (TopologySpec::Torus { n }, PatternSpec::Uniform) => Torus2D::new(*n).mean_distance(),
            (TopologySpec::Hypercube { dim }, PatternSpec::Bernoulli { p }) => *dim as f64 * p,
            (TopologySpec::Hypercube { dim }, PatternSpec::Uniform) => *dim as f64 * 0.5,
            (TopologySpec::MeshKd { dims }, PatternSpec::Uniform) => {
                dims.iter().map(|&d| line(d)).sum()
            }
            _ => return None,
        })
    }

    /// The memo key: everything [`Scenario::solve`] reads.
    fn memo_key(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.topology, self.router, self.traffic)
    }

    /// The load-independent part of the resolution: the rate class and
    /// the mean distance. A solved workload goes through the
    /// process-global memo's one read site; see [`Scenario::resolve`] for
    /// what the memo admits.
    fn unit_part(&self) -> Result<(RateClass, f64), ScenarioError> {
        static MEMO: OnceLock<Mutex<HashMap<String, (RateClass, f64)>>> = OnceLock::new();
        // Where no closed form gives the mean route length, the
        // conservation identity Σ_e λ_e = Σ_s λ_s · E[route length | s]
        // gives the mean per generated packet (silent sources weigh 0).
        let with_mean = |class: RateClass| {
            let mean = self
                .closed_mean_distance()
                .unwrap_or_else(|| total_rate(&class.unit_rates()) / self.num_sources() as f64);
            (class, mean)
        };
        if let Some(class) = self.closed_class(&self.traffic.pattern) {
            return Ok(with_mean(class));
        }
        let solved = || -> Result<_, ScenarioError> {
            Ok(with_mean(RateClass::Solved(Arc::new(self.solve()?))))
        };
        let admitted = !matches!(self.traffic.pattern, PatternSpec::Matrix { .. })
            && !matches!(self.traffic.source, SourceSpec::Rates { .. })
            && self.topology.num_edges() <= STREAMING_STATS_MAX_EDGES;
        if !admitted {
            return solved();
        }
        let key = self.memo_key();
        let memo = MEMO.get_or_init(Mutex::default);
        if let Some(hit) = memo.lock().expect("rate memo poisoned").get(&key) {
            return Ok(hit.clone());
        }
        let part = solved()?;
        let mut map = memo.lock().expect("rate memo poisoned");
        if map.len() >= MEMO_MAX_ENTRIES {
            map.clear();
        }
        map.insert(key, part.clone());
        Ok(part)
    }

    /// The one solver call: the unit-rate vector of a workload with no
    /// closed form, by exact weighted enumeration for oblivious routers
    /// and the fixed-point solver for adaptive ones.
    pub(crate) fn solve(&self) -> Result<Vec<f64>, ScenarioError> {
        #[cfg(test)]
        tests::count_solve(self);
        Ok(match (&self.topology, self.router) {
            (TopologySpec::Mesh { rows, cols }, router) => {
                let mesh = Mesh2D::rect(*rows, *cols);
                match router {
                    RouterSpec::Greedy => self.enumerate(&mesh, &GreedyXY),
                    RouterSpec::Randomized => self.enumerate(&mesh, &RandomizedGreedy),
                    RouterSpec::WestFirst => self.fixed_point(&mesh, &WestFirst)?,
                    RouterSpec::OddEven => self.fixed_point(&mesh, &OddEven)?,
                }
            }
            (TopologySpec::Torus { n }, router) => {
                let torus = Torus2D::new(*n);
                match router {
                    RouterSpec::WestFirst => self.fixed_point(&torus, &WestFirst)?,
                    RouterSpec::OddEven => self.fixed_point(&torus, &OddEven)?,
                    _ => self.enumerate(&torus, &TorusGreedy),
                }
            }
            (TopologySpec::Hypercube { dim }, _) => {
                self.enumerate(&Hypercube::new(*dim), &DimOrder)
            }
            (TopologySpec::Butterfly { k }, _) => {
                // Sources are the level-0 inputs; destinations are uniform
                // output rows.
                let b = Butterfly::new(*k);
                let sources: Vec<NodeId> = (0..b.rows()).map(|w| b.node(0, w)).collect();
                let per = self.per_source(sources.len());
                edge_rates_weighted(&b, &ButterflyRouter, &ButterflyOutput, &per, &sources)
            }
            (TopologySpec::MeshKd { dims }, _) => self.enumerate(&MeshKD::new(dims), &KdGreedy),
        })
    }

    /// Weighted exact edge rates of an oblivious router, from every node.
    ///
    /// Above [`SPARSE_RATES_MIN_NODES`] sources, the sparse-support
    /// patterns (permutation, hotspot, matrix) take the O(N · route) fast
    /// path of [`edge_rates_sparse`], whose uniform remainder is the
    /// closed form of the same sources under uniform destinations, where
    /// one exists. Every other pattern, and every pattern at or below the
    /// gate, runs through the same enumeration that produced all published
    /// ≤512-node numbers.
    fn enumerate<T: PatternTopology, R: ObliviousRouter<T>>(
        &self,
        topo: &T,
        router: &R,
    ) -> Vec<f64> {
        let pattern = &self.traffic.pattern;
        let sources = all_nodes(topo);
        let per = self.per_source(sources.len());
        let dest = generic_dest_for(topo, pattern);
        // Uniform destinations report a sparse support too, but keep the
        // enumeration their published rates came from.
        let sparse = matches!(
            pattern,
            PatternSpec::Permutation { .. }
                | PatternSpec::Hotspot { .. }
                | PatternSpec::Matrix { .. }
        );
        if sparse && sources.len() > SPARSE_RATES_MIN_NODES {
            // A traffic matrix weights its sources too, but its support
            // has no uniform remainder to ask for.
            let remainder = || {
                let class = self.closed_class(&PatternSpec::Uniform);
                class.map(|class| class.unit_rates().into_owned())
            };
            if let Some(rates) = edge_rates_sparse(topo, router, &dest, &per, &sources, remainder) {
                return rates;
            }
        }
        edge_rates_weighted(topo, router, &dest, &per, &sources)
    }

    /// Steady-state edge rates of an adaptive (split-routing) router, from
    /// the fixed-point solver.
    fn fixed_point<T, R>(&self, topo: &T, router: &R) -> Result<Vec<f64>, ScenarioError>
    where
        T: PatternTopology,
        R: SplitRouting<T>,
    {
        let sources = all_nodes(topo);
        let per = self.per_source(sources.len());
        let dest = generic_dest_for(topo, &self.traffic.pattern);
        let rates = adaptive_edge_rates(topo, router, &dest, &per, &sources, FP_TOL, FP_MAX_ITER)?;
        Ok(rates)
    }

    /// Per-source rates at unit mean rate: the workload's source weights.
    fn per_source(&self, sources: usize) -> Vec<f64> {
        self.source_weights().unwrap_or_else(|| vec![1.0; sources])
    }
}

/// Closed-form unit-rate vector of the `n × n` torus with uniform sources
/// and uniform destinations ([`torus_row_rates`] expanded per edge); also
/// the hotspot fast path's uniform remainder.
fn torus_uniform_unit_rates(n: usize) -> Vec<f64> {
    let torus = Torus2D::new(n);
    let (pos, neg) = torus_row_rates(n, 1.0);
    torus
        .edges()
        .map(|e| match Direction::ALL[e.index() % 4] {
            Direction::Right | Direction::Down => pos,
            Direction::Left | Direction::Up => neg,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solves per memo key, counted at the one solver call. A global map
    /// (not a thread-local) so solves on Rayon workers count too; keyed,
    /// so tests running in parallel on other workloads do not interfere.
    static SOLVES: OnceLock<Mutex<HashMap<String, usize>>> = OnceLock::new();

    pub(super) fn count_solve(sc: &Scenario) {
        let mut map = SOLVES.get_or_init(Mutex::default).lock().unwrap();
        *map.entry(sc.memo_key()).or_default() += 1;
    }

    /// The solves `f` makes on `sc`'s workload.
    fn solves_during(sc: &Scenario, f: impl FnOnce()) -> usize {
        let solves = || {
            let map = SOLVES.get_or_init(Mutex::default).lock().unwrap();
            map.get(&sc.memo_key()).copied().unwrap_or(0)
        };
        let before = solves();
        f();
        solves() - before
    }

    #[test]
    fn one_solve_per_resolution_and_per_replicated_run_above_the_memo_gate() {
        let sc = Scenario::parse("hypercube:13 traffic=shuffle load=rho:0.5 horizon=4 warmup=1")
            .unwrap();
        assert!(sc.topology.num_edges() > STREAMING_STATS_MAX_EDGES);
        assert_eq!(solves_during(&sc, || drop(sc.resolve().unwrap())), 1);
        assert_eq!(solves_during(&sc, || drop(sc.run_replicated(3))), 1);
        let resolve_then_run = || {
            let rates = sc.resolve().unwrap();
            drop(sc.try_run_at(rates).unwrap());
        };
        assert_eq!(solves_during(&sc, resolve_then_run), 1);
    }

    #[test]
    fn the_memo_solves_a_workload_once_across_loads() {
        // No other test in this binary resolves this memo key.
        let sc = Scenario::parse("mesh:9 router=oddeven traffic=transpose util=0.3").unwrap();
        assert_eq!(solves_during(&sc, || drop(sc.resolve().unwrap())), 1);
        let other_load = sc.clone().load(Load::Utilization(0.2));
        assert_eq!(
            solves_during(&sc, || drop(other_load.resolve().unwrap())),
            0
        );
    }

    #[test]
    fn closed_forms_solve_nothing_and_build_no_vector() {
        let sc = Scenario::parse("mesh:20 rho=0.8").unwrap();
        let mut res = None;
        assert_eq!(solves_during(&sc, || res = Some(sc.resolve().unwrap())), 0);
        assert_eq!(res.unwrap().class, RateClass::Mesh(20));
    }
}
