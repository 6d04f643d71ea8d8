//! The topology-generic [`Scenario`] API: one front door for every
//! simulation the workspace can run.
//!
//! A [`Scenario`] names a complete experiment — topology, router, a
//! [`TrafficSpec`] workload (source model + destination model), load, and
//! every simulation setting — for any of the paper's network families: the
//! 2-D array (the paper's subject), the torus (§6), the hypercube and
//! butterfly (§4.5), and `k`-dimensional meshes (§5.2). One internal
//! dispatch point maps the specification onto concrete topology, router
//! and sampler types and builds each run's description from them, so
//! callers never touch the generic machinery. The FIFO network runs
//! ([`Scenario::run`]) on it, and so do the comparison networks of the
//! paper's proofs ([`Scenario::run_ps`], [`Scenario::run_copies`]):
//!
//! ```
//! use meshbound_sim::{Load, Scenario, TrafficSpec};
//!
//! let result = Scenario::torus(8).load(Load::Utilization(0.5)).run();
//! assert!(result.avg_delay > 0.0);
//!
//! // Any workload through the same entry point: the transpose
//! // permutation on an 8×8 array at half the pattern's capacity.
//! let result = Scenario::mesh(8)
//!     .traffic(TrafficSpec::transpose())
//!     .load(Load::Utilization(0.5))
//!     .run();
//! assert!(result.completed > 0);
//! ```
//!
//! Loads are accepted in any of the [`Load`] conventions and resolved per
//! topology *and workload* ([`Scenario::lambda`]): utilization-style loads
//! solve against the workload's actual edge-rate vector. Replications fan
//! out over Rayon ([`Scenario::run_replicated`]); and [`Scenario::parse`]
//! builds a scenario from a compact command-line spec such as
//! `"torus:8,util=0.9,horizon=5000"` or
//! `"mesh:8,traffic=transpose,util=0.5"` (see [`Scenario::spec_string`]
//! for the inverse).

use crate::copysys::{Copies, CopyResult};
use crate::engine::{EngineSpec, STREAMING_STATS_MAX_EDGES};
use crate::fault::{reachable_fraction, FaultPlan, FaultSpec};
use crate::network::{Fifo, NetworkSim, SimError, SimResult, System};
use crate::ps::{Ps, PsResult};
use crate::resolve::Resolution;
use crate::rng::splitmix64;
use crate::runner::ReplicatedResult;
use crate::service::ServiceKind;
use crate::spec::{self, Form};
use crate::telemetry::ProbeSpec;
use crate::traffic::{PatternSpec, SourceSpec, TrafficSpec};
use meshbound_queueing::load::Load;
use meshbound_routing::dest::{BernoulliDest, ButterflyOutput, DestSampler, NearbyWalk};
use meshbound_routing::pattern::{
    GenericDest, HotspotDest, MatrixDest, PatternTopology, PermutationDest, PermutationKind,
};
use meshbound_routing::{
    ButterflyRouter, DimOrder, GreedyXY, KdGreedy, OddEven, RandomizedGreedy, Router, TorusGreedy,
    TrafficConvergenceError, WestFirst,
};
use meshbound_topology::{Butterfly, Hypercube, Mesh2D, MeshKD, NodeId, Topology, Torus2D};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The network family and size a [`Scenario`] runs on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologySpec {
    /// A `rows × cols` array (the paper's main topology; square when
    /// `rows == cols`).
    Mesh {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// An `n × n` torus (§6).
    Torus {
        /// Side length.
        n: usize,
    },
    /// A `dim`-dimensional hypercube (§4.5).
    Hypercube {
        /// Dimension.
        dim: usize,
    },
    /// A butterfly with `k` edge levels (§4.5). Packets enter at level 0
    /// and leave at level `k`.
    Butterfly {
        /// Number of edge levels.
        k: usize,
    },
    /// A `k`-dimensional mesh with the given per-axis extents (§5.2).
    MeshKd {
        /// Per-axis extents, e.g. `[3, 3, 3]`.
        dims: Vec<usize>,
    },
}

impl TopologySpec {
    /// Human-readable label, e.g. `"torus 8x8"`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Mesh { rows, cols } => Mesh2D::rect(*rows, *cols).label(),
            TopologySpec::Torus { n } => Torus2D::new(*n).label(),
            TopologySpec::Hypercube { dim } => Hypercube::new(*dim).label(),
            TopologySpec::Butterfly { k } => Butterfly::new(*k).label(),
            TopologySpec::MeshKd { dims } => MeshKD::new(dims).label(),
        }
    }

    /// Total node count (`usize::MAX` when it overflows, which
    /// [`Scenario::validate`] rejects).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.size().map_or(usize::MAX, |(nodes, _)| nodes)
    }

    /// Total directed-edge count (`usize::MAX` when it overflows, which
    /// [`Scenario::validate`] rejects).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.size().map_or(usize::MAX, |(_, edges)| edges)
    }

    /// `(nodes, directed edges)` in checked arithmetic: `None` when either
    /// overflows `usize`.
    fn size(&self) -> Option<(usize, usize)> {
        let pow2 = |k: usize| 1usize.checked_shl(u32::try_from(k).ok()?);
        match self {
            TopologySpec::Mesh { rows, cols } => grid_size([*rows, *cols]),
            TopologySpec::Torus { n } => {
                let nodes = n.checked_mul(*n)?;
                Some((nodes, nodes.checked_mul(4)?))
            }
            // A hypercube is a k-d mesh with every extent 2.
            TopologySpec::Hypercube { dim } => grid_size(std::iter::repeat_n(2, *dim)),
            TopologySpec::Butterfly { k } => {
                let rows = pow2(*k)?;
                Some((rows.checked_mul(k + 1)?, rows.checked_mul(2 * k)?))
            }
            TopologySpec::MeshKd { dims } => grid_size(dims.iter().copied()),
        }
    }

    /// Whether every edge id fits [`EdgeId`]'s `u32`.
    fn fits_edge_ids(&self) -> bool {
        self.size()
            .is_some_and(|(_, edges)| edges <= u32::MAX as usize)
    }

    /// The maximum route length of the default greedy router.
    #[must_use]
    pub fn max_distance(&self) -> usize {
        match self {
            TopologySpec::Mesh { rows, cols } => (rows - 1) + (cols - 1),
            TopologySpec::Torus { n } => 2 * (n / 2),
            TopologySpec::Hypercube { dim } => *dim,
            TopologySpec::Butterfly { k } => *k,
            TopologySpec::MeshKd { dims } => dims.iter().map(|&d| d - 1).sum(),
        }
    }

    /// The spec-string head this topology parses from, e.g. `"torus:8"`.
    #[must_use]
    pub fn spec_head(&self) -> String {
        match self {
            TopologySpec::Mesh { rows, cols } if rows == cols => format!("mesh:{rows}"),
            TopologySpec::Mesh { rows, cols } => format!("mesh:{rows}x{cols}"),
            TopologySpec::Torus { n } => format!("torus:{n}"),
            TopologySpec::Hypercube { dim } => format!("hypercube:{dim}"),
            TopologySpec::Butterfly { k } => format!("butterfly:{k}"),
            TopologySpec::MeshKd { dims } => {
                let dims: Vec<String> = dims.iter().map(ToString::to_string).collect();
                format!("kd:{}", dims.join("x"))
            }
        }
    }

    /// Parses a spec-string head such as `"torus:8"` or `"kd:3x3x3"`.
    pub(crate) fn parse_head(head: &str) -> Result<Self, String> {
        let (name, size) = head.split_once(':').ok_or_else(|| {
            format!("topology `{head}` needs a size, e.g. `mesh:8` or `kd:3x3x3`")
        })?;
        let dims = size
            .split('x')
            .map(|d| {
                d.parse()
                    .map_err(|_| format!("bad extent `{d}` in `{head}`"))
            })
            .collect::<Result<Vec<usize>, _>>()?;
        let topology = match (name, dims.as_slice()) {
            ("mesh", &[n]) => TopologySpec::Mesh { rows: n, cols: n },
            ("mesh", &[rows, cols]) => TopologySpec::Mesh { rows, cols },
            ("torus", &[n]) => TopologySpec::Torus { n },
            ("hypercube", &[dim]) => TopologySpec::Hypercube { dim },
            ("butterfly", &[k]) => TopologySpec::Butterfly { k },
            ("kd", _) => TopologySpec::MeshKd { dims },
            ("mesh" | "torus" | "hypercube" | "butterfly", _) => {
                return Err(format!(
                    "`{name}` takes a single size (a mesh also `RxC`), got `{size}`"
                ))
            }
            _ => {
                return Err(format!(
                    "unknown topology `{name}` (expected mesh, torus, hypercube, butterfly or kd)"
                ))
            }
        };
        if !topology.fits_edge_ids() {
            return Err(format!(
                "topology `{head}` is too large: its edge count does not fit a 32-bit edge id"
            ));
        }
        Ok(topology)
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let bad = |msg: String| Err(ScenarioError::unsupported(msg));
        if !self.fits_edge_ids() {
            return bad(format!(
                "{self:?} is too large: its edge count does not fit a 32-bit edge id"
            ));
        }
        match self {
            TopologySpec::Mesh { rows, cols } => {
                if *rows < 2 || *cols < 2 {
                    return bad(format!("mesh needs at least 2x2 nodes, got {rows}x{cols}"));
                }
            }
            TopologySpec::Torus { n } => {
                if *n < 3 {
                    return bad(format!("torus needs side at least 3, got {n}"));
                }
            }
            TopologySpec::Hypercube { dim } => {
                if !(1..=26).contains(dim) {
                    return bad(format!("hypercube dimension {dim} out of range 1..=26"));
                }
            }
            TopologySpec::Butterfly { k } => {
                if !(1..=20).contains(k) {
                    return bad(format!("butterfly level count {k} out of range 1..=20"));
                }
            }
            TopologySpec::MeshKd { dims } => {
                if dims.is_empty() {
                    return bad("k-d mesh needs at least one dimension".into());
                }
                if dims.iter().any(|&d| d < 2) {
                    return bad(format!("every k-d mesh extent must be >= 2, got {dims:?}"));
                }
                if dims.iter().product::<usize>() >= u32::MAX as usize / 2 {
                    return bad(format!("k-d mesh {dims:?} too large"));
                }
            }
        }
        Ok(())
    }
}

/// `(nodes, directed edges)` of a grid with the given extents, in checked
/// arithmetic: along an axis of extent `d`, each of the `nodes / d` lines
/// has `d − 1` links, one edge each way.
fn grid_size<I>(dims: I) -> Option<(usize, usize)>
where
    I: IntoIterator<Item = usize>,
    I::IntoIter: Clone,
{
    let mut dims = dims.into_iter();
    let nodes = dims.clone().try_fold(1usize, |n, d| n.checked_mul(d))?;
    let edges = dims.try_fold(0usize, |e, d| {
        let lines = nodes.checked_div(d).unwrap_or(0);
        e.checked_add(lines.checked_mul(d.saturating_sub(1))?.checked_mul(2)?)
    })?;
    Some((nodes, edges))
}

/// Which router a [`Scenario`] uses. Each topology has a canonical greedy
/// router; the randomized variant exists only on the mesh, and the two
/// turn-model adaptive routers exist on the mesh and torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterSpec {
    /// The topology's canonical greedy router: [`GreedyXY`] on the mesh,
    /// [`TorusGreedy`] on the torus, [`DimOrder`] on the hypercube,
    /// [`ButterflyRouter`] on the butterfly and [`KdGreedy`] on `k`-d
    /// meshes.
    Greedy,
    /// §6's randomized-order greedy variant (mesh only).
    Randomized,
    /// West-first turn-model adaptive routing ([`WestFirst`]; mesh and
    /// torus).
    WestFirst,
    /// Odd-even turn-model adaptive routing ([`OddEven`]; mesh and
    /// torus).
    OddEven,
}

impl RouterSpec {
    /// The spec-string token, e.g. `"oddeven"` for `router=oddeven`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RouterSpec::Greedy => "greedy",
            RouterSpec::Randomized => "randomized",
            RouterSpec::WestFirst => "westfirst",
            RouterSpec::OddEven => "oddeven",
        }
    }

    /// Whether the router picks hops adaptively from local queue state.
    /// Adaptive routers have no enumerable path set, so their edge rates
    /// come from the fixed-point solver.
    #[must_use]
    pub fn is_adaptive(self) -> bool {
        matches!(self, RouterSpec::WestFirst | RouterSpec::OddEven)
    }

    /// Parses a spec token (the value of a `router=` key).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted tokens.
    pub fn parse_token(value: &str) -> Result<Self, String> {
        match value {
            "greedy" => Ok(RouterSpec::Greedy),
            "randomized" => Ok(RouterSpec::Randomized),
            "westfirst" => Ok(RouterSpec::WestFirst),
            "oddeven" => Ok(RouterSpec::OddEven),
            _ => Err(format!(
                "unknown router `{value}` (expected greedy, randomized, westfirst or oddeven)"
            )),
        }
    }
}

/// Builds the destination sampler of any pattern a [`PatternTopology`]
/// carries: uniform, nearby (mesh), Bernoulli (hypercube) and the
/// topology-generic patterns.
///
/// # Panics
///
/// Unreachable after [`Scenario::validate`], which rejects out-of-range
/// parameters, unsupported permutations and invalid matrices with a typed
/// [`ScenarioError`] before any code path can reach here.
pub(crate) fn generic_dest_for<T: PatternTopology>(topo: &T, pattern: &PatternSpec) -> GenericDest {
    match pattern {
        PatternSpec::Uniform => GenericDest::Uniform,
        PatternSpec::Nearby { stop } => GenericDest::Nearby(NearbyWalk::new(*stop)),
        PatternSpec::Bernoulli { p } => GenericDest::Bernoulli(BernoulliDest::new(*p)),
        PatternSpec::Permutation { kind } => {
            GenericDest::Permutation(PermutationDest::new(topo, *kind).unwrap_or_else(|e| {
                unreachable!("validate() rejects unsupported permutations: {e}")
            }))
        }
        PatternSpec::Hotspot { node, frac } => {
            let hot = node.map_or_else(|| topo.central_node(), |i| NodeId(i as u32));
            GenericDest::Hotspot(HotspotDest::new(hot, *frac))
        }
        PatternSpec::Matrix { rows } => GenericDest::Matrix(
            MatrixDest::from_rows(rows)
                .unwrap_or_else(|e| unreachable!("validate() rejects invalid matrices: {e}")),
        ),
    }
}

/// A computation on a scenario's concrete network, run by
/// [`Scenario::on_network`]: the topology, its router, the destination
/// sampler, and the packet sources (`None` = every node).
trait OnNetwork {
    type Output;

    fn on<T, R, D>(self, topo: T, router: R, dest: D, sources: Option<Vec<NodeId>>) -> Self::Output
    where
        T: PatternTopology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync;
}

/// One run of a validated scenario at the resolved `lambda` and the
/// replication `seed`, on the network `system` simulates.
struct Run<'a, S> {
    sc: &'a Scenario,
    lambda: f64,
    seed: u64,
    system: S,
}

impl<S: System> OnNetwork for Run<'_, S> {
    type Output = Result<S::Output, ScenarioError>;

    fn on<T, R, D>(self, topo: T, router: R, dest: D, sources: Option<Vec<NodeId>>) -> Self::Output
    where
        T: PatternTopology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync,
    {
        let sim = NetworkSim::new(self.sc, self.lambda, self.seed, topo, router, dest, sources);
        self.system.simulate(&sim).map_err(ScenarioError::Sim)
    }
}

/// The size of the fault plan that the run at seed `.1` draws and the
/// surviving reachability it leaves (see [`Scenario::fault_reachability`]);
/// `None` for a healthy scenario.
struct Survey<'a>(&'a Scenario, u64);

impl OnNetwork for Survey<'_> {
    type Output = Option<(usize, f64)>;

    fn on<T, R, D>(self, topo: T, router: R, _: D, _: Option<Vec<NodeId>>) -> Self::Output
    where
        T: PatternTopology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync,
    {
        let (spec, seed) = (self.0.faults.as_ref()?, self.1);
        let plan = FaultPlan::materialize(spec, seed, &topo);
        let frac = reachable_fraction(&topo, &router, &plan.down_edges, seed);
        Some((plan.down_edges.len(), frac))
    }
}

/// Why a scenario specification was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The spec string could not be parsed.
    Parse(String),
    /// The parsed combination is not supported (e.g. a randomized router on
    /// the torus).
    Unsupported(String),
    /// The fixed-point rate solver for an adaptive router ran out of
    /// sweeps before reaching tolerance (see
    /// [`adaptive_edge_rates`]).
    ///
    /// [`adaptive_edge_rates`]: meshbound_routing::adaptive_edge_rates
    Convergence(TrafficConvergenceError),
    /// The simulation itself failed mid-run with a structural
    /// [`SimError`] (surfaced by [`Scenario::try_run`]; the panicking
    /// [`Scenario::run`] aborts instead).
    Sim(SimError),
}

impl ScenarioError {
    fn unsupported(msg: String) -> Self {
        ScenarioError::Unsupported(msg)
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse(m) => write!(f, "scenario parse error: {m}"),
            ScenarioError::Unsupported(m) => write!(f, "unsupported scenario: {m}"),
            ScenarioError::Convergence(e) => write!(f, "scenario rate solver: {e}"),
            ScenarioError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Convergence(e) => Some(e),
            ScenarioError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrafficConvergenceError> for ScenarioError {
    fn from(e: TrafficConvergenceError) -> Self {
        ScenarioError::Convergence(e)
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Sim(e)
    }
}

pub(crate) const DEFAULT_HORIZON: f64 = 2_000.0;
pub(crate) const DEFAULT_WARMUP: f64 = 200.0;
pub(crate) const DEFAULT_SEED: u64 = 1;

/// Node count above which [`Scenario::new`] picks the short large-scale
/// default horizon instead of [`DEFAULT_HORIZON`]. Event count scales as
/// `nodes × λ × horizon × route length`, so at `hypercube:20` the
/// small-scale default of 2000 would mean ~10¹⁰ events; the per-event
/// statistics at that scale are already tight at a horizon of 50 (over a
/// million sources average the noise away). Chosen comfortably above every
/// topology used by the ≤512-node published tables so their defaults are
/// untouched.
pub(crate) const LARGE_SCALE_NODES: usize = 4096;
pub(crate) const LARGE_DEFAULT_HORIZON: f64 = 50.0;
pub(crate) const LARGE_DEFAULT_WARMUP: f64 = 5.0;

/// The default `(horizon, warmup)` for a topology: the classic
/// `(2000, 200)` up to [`LARGE_SCALE_NODES`] nodes, `(50, 5)` beyond.
pub(crate) fn default_horizon_for(topology: &TopologySpec) -> (f64, f64) {
    if topology.num_nodes() > LARGE_SCALE_NODES {
        (LARGE_DEFAULT_HORIZON, LARGE_DEFAULT_WARMUP)
    } else {
        (DEFAULT_HORIZON, DEFAULT_WARMUP)
    }
}

/// A complete, topology-generic simulation specification.
///
/// Build one with the convenience constructors ([`Scenario::mesh`],
/// [`Scenario::torus`], …) plus the chainable setters, or parse one from a
/// spec string ([`Scenario::parse`]). Then [`Scenario::run`] simulates it,
/// [`Scenario::run_replicated`] runs independent replications in parallel,
/// and `meshbound::BoundsReport::compute_for` reports every closed-form
/// bound available at its operating point.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Scenario {
    /// Network family and size.
    pub topology: TopologySpec,
    /// Router choice.
    pub router: RouterSpec,
    /// The workload: source model plus destination model.
    pub traffic: TrafficSpec,
    /// Offered load, in any [`Load`] convention; resolved to the **mean**
    /// per-source rate by [`Scenario::lambda`].
    pub load: Load,
    /// Simulated end time.
    pub horizon: f64,
    /// Warmup discarded from statistics.
    pub warmup: f64,
    /// Master seed.
    pub seed: u64,
    /// Transmission-time distribution (deterministic = standard model,
    /// exponential = Jackson model).
    pub service: ServiceKind,
    /// Count source-=-destination packets (delay 0) in the average. The
    /// paper's model allows them, and the default counts them. For how the
    /// paper's printed Table I simulation column treats them, see
    /// ROADMAP.md, direction 2.
    pub include_self_packets: bool,
    /// Track the remaining-saturated-services integral (Table III).
    /// Honored on square meshes, where Figure 2 defines the saturated
    /// edge classes; ignored elsewhere.
    pub track_saturated: bool,
    /// Optional per-edge service rates (§5.1); length must equal the
    /// topology's edge count.
    pub service_rates: Option<Vec<f64>>,
    /// Slotted-time width τ (§5.2); `None` = continuous time.
    pub slot: Option<f64>,
    /// Track delay quantiles (median / p95 / p99) via reservoir sampling.
    pub delay_quantiles: bool,
    /// Track per-edge time-averaged queue lengths.
    pub track_edge_queues: bool,
    /// Optional fault schedule ([`FaultSpec`]): deterministic, seed-derived
    /// link/node failures materialized into a [`FaultPlan`] per run.
    /// `None` keeps the healthy fast path bit-identical to pre-fault
    /// builds.
    pub faults: Option<FaultSpec>,
    /// Optional telemetry probes ([`ProbeSpec`]): deterministic
    /// sim-clock time-series sampling with flight-recorder storage.
    /// Probes never perturb results — `None` (the default) schedules no
    /// probe events at all, and probed runs are bit-identical to
    /// unprobed ones apart from the attached report.
    pub probes: Option<ProbeSpec>,
    /// Engine shard count ([`EngineSpec::Auto`], one shard, by default).
    /// `auto` and `sharded:1` are the same run; more shards are
    /// bit-identical per `(seed, shards)` pair.
    pub engine: EngineSpec,
}

// Hand-written (field-for-field identical to the derive) so the `probes`
// key appears only when probes are on: pre-telemetry consumers of sweep
// JSON see byte-identical `scenario` objects for unprobed cells.
impl Serialize for Scenario {
    fn serialize(&self, w: &mut serde::json::Writer) {
        w.begin_object();
        w.field("topology", &self.topology);
        w.field("router", &self.router);
        w.field("traffic", &self.traffic);
        w.field("load", &self.load);
        w.field("horizon", &self.horizon);
        w.field("warmup", &self.warmup);
        w.field("seed", &self.seed);
        w.field("service", &self.service);
        w.field("include_self_packets", &self.include_self_packets);
        w.field("track_saturated", &self.track_saturated);
        w.field("service_rates", &self.service_rates);
        w.field("slot", &self.slot);
        w.field("delay_quantiles", &self.delay_quantiles);
        w.field("track_edge_queues", &self.track_edge_queues);
        w.field("faults", &self.faults);
        if let Some(probes) = &self.probes {
            w.field("probes", probes);
        }
        w.field("engine", &self.engine);
        w.end_object();
    }
}

impl Scenario {
    /// Creates a scenario on `topology` with the default knobs: greedy
    /// routing, uniform destinations, `λ = 0.1`, horizon 2000, warmup 200
    /// (50 and 5 above 4096 nodes, where per-event statistics are dense
    /// enough that the long horizon only burns wall-clock time), seed 1,
    /// deterministic service.
    #[must_use]
    pub fn new(topology: TopologySpec) -> Self {
        let (horizon, warmup) = default_horizon_for(&topology);
        Self {
            topology,
            router: RouterSpec::Greedy,
            traffic: TrafficSpec::uniform(),
            load: Load::Lambda(0.1),
            horizon,
            warmup,
            seed: DEFAULT_SEED,
            service: ServiceKind::Deterministic,
            include_self_packets: true,
            track_saturated: false,
            service_rates: None,
            slot: None,
            delay_quantiles: false,
            track_edge_queues: false,
            faults: None,
            probes: None,
            engine: EngineSpec::Auto,
        }
    }

    /// An `n × n` array scenario.
    #[must_use]
    pub fn mesh(n: usize) -> Self {
        Self::new(TopologySpec::Mesh { rows: n, cols: n })
    }

    /// A `rows × cols` rectangular array scenario.
    #[must_use]
    pub fn mesh_rect(rows: usize, cols: usize) -> Self {
        Self::new(TopologySpec::Mesh { rows, cols })
    }

    /// An `n × n` torus scenario.
    #[must_use]
    pub fn torus(n: usize) -> Self {
        Self::new(TopologySpec::Torus { n })
    }

    /// A `dim`-dimensional hypercube scenario.
    #[must_use]
    pub fn hypercube(dim: usize) -> Self {
        Self::new(TopologySpec::Hypercube { dim })
    }

    /// A `k`-level butterfly scenario (sources at level 0, uniform output
    /// rows).
    #[must_use]
    pub fn butterfly(k: usize) -> Self {
        Self::new(TopologySpec::Butterfly { k })
    }

    /// A `k`-dimensional mesh scenario with the given per-axis extents.
    #[must_use]
    pub fn mesh_kd(dims: &[usize]) -> Self {
        Self::new(TopologySpec::MeshKd {
            dims: dims.to_vec(),
        })
    }

    /// Sets the router.
    #[must_use]
    pub fn router(mut self, router: RouterSpec) -> Self {
        self.router = router;
        self
    }

    /// Sets the whole workload (source model + destination model).
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the destination model, keeping the source model.
    #[must_use]
    pub fn pattern(mut self, pattern: PatternSpec) -> Self {
        self.traffic.pattern = pattern;
        self
    }

    /// Sets the source model, keeping the destination model.
    #[must_use]
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.traffic.source = source;
        self
    }

    /// Sets the offered load (any [`Load`] convention).
    #[must_use]
    pub fn load(mut self, load: Load) -> Self {
        self.load = load;
        self
    }

    /// Sets the horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the warmup.
    #[must_use]
    pub fn warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the transmission-time distribution.
    #[must_use]
    pub fn service(mut self, service: ServiceKind) -> Self {
        self.service = service;
        self
    }

    /// Enables or disables counting zero-distance packets.
    #[must_use]
    pub fn include_self_packets(mut self, yes: bool) -> Self {
        self.include_self_packets = yes;
        self
    }

    /// Enables or disables saturated-services tracking (square mesh only).
    #[must_use]
    pub fn track_saturated(mut self, yes: bool) -> Self {
        self.track_saturated = yes;
        self
    }

    /// Installs per-edge service rates (§5.1).
    #[must_use]
    pub fn service_rates(mut self, rates: Vec<f64>) -> Self {
        self.service_rates = Some(rates);
        self
    }

    /// Switches to slotted time with width `tau` (§5.2).
    #[must_use]
    pub fn slot(mut self, tau: f64) -> Self {
        self.slot = Some(tau);
        self
    }

    /// Enables delay-quantile tracking.
    #[must_use]
    pub fn delay_quantiles(mut self, yes: bool) -> Self {
        self.delay_quantiles = yes;
        self
    }

    /// Enables per-edge mean-queue tracking.
    #[must_use]
    pub fn track_edge_queues(mut self, yes: bool) -> Self {
        self.track_edge_queues = yes;
        self
    }

    /// Installs a fault schedule (see [`FaultSpec`]). The concrete failed
    /// edges are drawn deterministically from the master seed when the
    /// scenario runs.
    #[must_use]
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Turns on telemetry probes (see [`ProbeSpec`]). Probes sample
    /// deterministic sim-clock series into a flight recorder and attach a
    /// [`crate::telemetry::TelemetryReport`] to the result; they never
    /// change the simulation's outcome.
    #[must_use]
    pub fn probes(mut self, probes: ProbeSpec) -> Self {
        self.probes = Some(probes);
        self
    }

    /// Selects the engine's shard count (see [`EngineSpec`]).
    #[must_use]
    pub fn engine(mut self, engine: EngineSpec) -> Self {
        self.engine = engine;
        self
    }

    /// Human-readable label, e.g. `"hypercube d=6"`.
    #[must_use]
    pub fn label(&self) -> String {
        self.topology.label()
    }

    // ----------------------------------------------------------------
    // Load resolution and traffic characterization.
    // ----------------------------------------------------------------

    /// The **mean** per-source arrival rate λ this scenario's load denotes
    /// (each source `i` generates at `λ × w_i` with the mean-1 weights of
    /// the workload's source model, so `γ = λ × #sources` always holds).
    ///
    /// `Load::Lambda` passes through. `Load::Utilization(ρ)` solves
    /// `max_e λ_e = ρ` against the **workload's actual edge-rate vector**
    /// (permutations, hotspots and matrices included). `Load::TableRho(ρ)`
    /// keeps Table I's mesh convention `λ = 4ρ/n` on square meshes and
    /// coincides with the utilization convention everywhere else. The
    /// value is [`Resolution::lambda`]; a load that fixes λ on its own
    /// costs no resolution.
    ///
    /// # Panics
    ///
    /// Panics if the adaptive fixed-point solver fails to converge — use
    /// [`Scenario::resolve`] to handle that as a typed error.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.try_lambda().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of packet-generating nodes: all nodes except on the
    /// butterfly, where only the `2^k` level-0 inputs generate.
    #[must_use]
    pub fn num_sources(&self) -> usize {
        match &self.topology {
            TopologySpec::Butterfly { k } => 1 << k,
            other => other.num_nodes(),
        }
    }

    /// Total external arrival rate `γ = λ × #sources`.
    #[must_use]
    pub fn total_arrival(&self) -> f64 {
        self.lambda() * self.num_sources() as f64
    }

    /// Number of **silent sources**: traffic-matrix rows that are entirely
    /// zero, so those nodes generate no packets at all. Zero for every
    /// other pattern. A mostly-zero matrix is structurally valid (only the
    /// all-zero matrix is rejected) but concentrates the whole offered
    /// load on the speaking rows — `BoundsReport` surfaces this count so
    /// it can't masquerade as a healthy all-sources workload.
    #[must_use]
    pub fn silent_sources(&self) -> usize {
        match &self.traffic.pattern {
            PatternSpec::Matrix { rows } => rows
                .iter()
                .filter(|row| row.iter().all(|&w| w == 0.0))
                .count(),
            _ => 0,
        }
    }

    /// Materializes the fault plan of the run at `seed` (the scenario's
    /// own seed for [`Scenario::try_run`], [`Scenario::replication_seed`]
    /// for a replication) and estimates the surviving-topology
    /// reachability: the fraction of sampled source–destination pairs the
    /// router still connects with every failing edge treated as
    /// permanently dead — the worst case over the timeline, since repairs
    /// only help.
    ///
    /// Returns `(dead_edges, reachable_fraction)`, or `None` for healthy
    /// scenarios (no `faults=` clause). Deterministic for a fixed
    /// `(seed, faults, topology, router)`; see
    /// [`reachable_fraction`].
    ///
    /// # Panics
    ///
    /// Panics if the workload fails [`Scenario::validate`] — call it
    /// first.
    #[must_use]
    pub fn fault_reachability(&self, seed: u64) -> Option<(usize, f64)> {
        self.faults.as_ref()?;
        self.on_network(Survey(self, seed))
    }

    /// Exact per-edge arrival rates at the resolved λ, for the scenario's
    /// router and destination distribution (see [`Scenario::resolve`]).
    ///
    /// Uses closed forms where the paper provides them, exact path
    /// enumeration (`O(sources × nodes × route)`) for oblivious routers,
    /// and the fixed-point solver for adaptive ones. Materializes a
    /// vector of length `num_edges` — avoid on very large hypercubes.
    ///
    /// # Panics
    ///
    /// Panics if the adaptive fixed-point solver fails to converge — use
    /// [`Scenario::try_edge_rates`] to handle that as a typed error.
    #[must_use]
    pub fn edge_rates(&self) -> Vec<f64> {
        self.try_edge_rates().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Scenario::edge_rates`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Convergence`] if the fixed-point solver
    /// for an adaptive router runs out of sweeps (impossible for the
    /// minimal turn-model routers, whose per-destination chains are
    /// nilpotent — the variant exists so callers never face a panic).
    pub fn try_edge_rates(&self) -> Result<Vec<f64>, ScenarioError> {
        let class = self.resolution()?.class;
        let unit = class.unit_rates();
        // Scaled by the λ of the built vector's own peak, which on some odd
        // square meshes sits one ulp from Theorem 6's closed-form peak.
        let peak = unit.iter().copied().fold(0.0, f64::max);
        let lambda = self.load_lambda().unwrap_or_else(|rho| rho / peak);
        Ok(unit.iter().map(|r| r * lambda).collect())
    }

    /// Peak edge utilization `max_e λ_e` at the resolved λ (unit service
    /// rates); [`Resolution::peak_utilization`].
    ///
    /// # Panics
    ///
    /// Panics if the adaptive fixed-point solver fails to converge.
    #[must_use]
    pub fn peak_utilization(&self) -> f64 {
        self.resolved().peak_utilization()
    }

    /// The stability threshold `λ*` of the scenario's routing pattern with
    /// unit service rates: the λ at which the busiest edge saturates.
    ///
    /// # Panics
    ///
    /// Panics if the adaptive fixed-point solver fails to converge — use
    /// [`Scenario::try_stability_lambda`] to handle that as a typed error.
    #[must_use]
    pub fn stability_lambda(&self) -> f64 {
        self.try_stability_lambda()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Scenario::stability_lambda`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Convergence`] if the fixed-point solver
    /// for an adaptive router runs out of sweeps.
    pub fn try_stability_lambda(&self) -> Result<f64, ScenarioError> {
        Ok(self.resolution()?.stability_lambda())
    }

    /// Mean greedy route length over the scenario's workload (self-pairs
    /// included): closed forms for the paper's combinations, and for every
    /// other workload the conservation identity
    /// `Σ_e λ_e = Σ_s λ_s · E[route length | s]`, i.e. the total of the
    /// unit-rate vector divided by the source count
    /// ([`Resolution::mean_distance`]).
    ///
    /// With [silent sources](Scenario::silent_sources) the conservation
    /// fallback still divides by the **full** source count — which is
    /// correct, not a bug: the mean-1 source weights already sum to the
    /// source count with silent rows carrying weight 0, so the quotient is
    /// the rate-weighted mean `Σ_s w_s·E[len|s] / Σ_s w_s`, i.e. the mean
    /// route length per **generated** packet. Silent rows simply don't
    /// contribute packets to the average.
    ///
    /// # Panics
    ///
    /// Panics if the adaptive fixed-point solver fails to converge.
    #[must_use]
    pub fn mean_distance(&self) -> f64 {
        self.resolved().mean_distance
    }

    /// The panicking form of [`Scenario::resolve`] behind the rate
    /// readers, which leave validation to the caller.
    fn resolved(&self) -> Resolution {
        self.resolution().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Mean-1 per-source rate weights of the workload (`None` = uniform).
    ///
    /// # Panics
    ///
    /// Panics if the workload fails validation — call
    /// [`Scenario::validate`] first.
    pub(crate) fn source_weights(&self) -> Option<Vec<f64>> {
        self.traffic
            .source_weights(self.num_sources())
            .unwrap_or_else(|e| panic!("invalid source model: {e}"))
    }

    // ----------------------------------------------------------------
    // Validation.
    // ----------------------------------------------------------------

    /// The concrete topology's verdict on a permutation kind (the
    /// topology objects own the address arithmetic, so they own the
    /// support rules too).
    fn permutation_support(&self, kind: PermutationKind) -> Result<(), String> {
        match &self.topology {
            TopologySpec::Mesh { rows, cols } => {
                Mesh2D::rect(*rows, *cols).supports_permutation(kind)
            }
            TopologySpec::Torus { n } => Torus2D::new(*n).supports_permutation(kind),
            TopologySpec::Hypercube { dim } => Hypercube::new(*dim).supports_permutation(kind),
            TopologySpec::Butterfly { k } => Butterfly::new(*k).supports_permutation(kind),
            TopologySpec::MeshKd { dims } => MeshKD::new(dims).supports_permutation(kind),
        }
    }

    /// Checks that the combination of topology, router, workload, load
    /// and knobs is runnable.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError::Unsupported`] describing the first
    /// offending setting.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let bad = |msg: String| Err(ScenarioError::unsupported(msg));
        self.topology.validate()?;
        let is_mesh = matches!(self.topology, TopologySpec::Mesh { .. });
        if self.router == RouterSpec::Randomized && !is_mesh {
            return bad("the randomized greedy router exists only on the mesh".into());
        }
        if self.router.is_adaptive()
            && !matches!(
                self.topology,
                TopologySpec::Mesh { .. } | TopologySpec::Torus { .. }
            )
        {
            return bad(format!(
                "the {} adaptive router needs a 2-D turn model; {} has none — \
                 adaptive routing exists only on the mesh and torus",
                self.router.as_str(),
                self.topology.label()
            ));
        }
        if matches!(self.topology, TopologySpec::Butterfly { .. })
            && self.traffic.pattern != PatternSpec::Uniform
        {
            return bad(
                "the butterfly supports only uniform output-row destinations (its sources \
                 and destinations live on different levels)"
                    .into(),
            );
        }
        if let Err(e) = self.traffic.source.validate(self.num_sources()) {
            return bad(e);
        }
        match (&self.traffic.pattern, &self.topology) {
            (PatternSpec::Nearby { .. }, t) if !matches!(t, TopologySpec::Mesh { .. }) => {
                return bad("the nearby destination walk exists only on the mesh".into());
            }
            (PatternSpec::Nearby { stop }, _) if !(*stop > 0.0 && *stop <= 1.0) => {
                return bad(format!("nearby stop probability {stop} outside (0, 1]"));
            }
            (PatternSpec::Bernoulli { .. }, t) if !matches!(t, TopologySpec::Hypercube { .. }) => {
                return bad("the Bernoulli destination exists only on the hypercube".into());
            }
            // p = 0 generates only self-packets: no traffic, and a
            // utilization load would resolve to λ = ∞.
            (PatternSpec::Bernoulli { p }, _) if !(*p > 0.0 && *p <= 1.0) => {
                return bad(format!("Bernoulli flip probability {p} outside (0, 1]"));
            }
            (PatternSpec::Permutation { kind }, _) => {
                if let Err(e) = self.permutation_support(*kind) {
                    return bad(format!("{} on {}: {e}", kind, self.topology.label()));
                }
            }
            (PatternSpec::Hotspot { node, frac }, _) => {
                if !(frac.is_finite() && *frac > 0.0 && *frac <= 1.0) {
                    return bad(format!("hotspot fraction {frac} outside (0, 1]"));
                }
                if let Some(i) = node {
                    if *i >= self.topology.num_nodes() {
                        return bad(format!(
                            "hotspot node {i} out of range ({} has {} nodes)",
                            self.topology.label(),
                            self.topology.num_nodes()
                        ));
                    }
                }
            }
            (PatternSpec::Matrix { rows }, _) => {
                if self.traffic.source != SourceSpec::Uniform {
                    return bad(
                        "a traffic matrix fixes the per-source rates via its row sums; \
                         leave the source model uniform"
                            .into(),
                    );
                }
                if rows.len() != self.topology.num_nodes() {
                    return bad(format!(
                        "traffic matrix has {} rows but {} has {} nodes",
                        rows.len(),
                        self.topology.label(),
                        self.topology.num_nodes()
                    ));
                }
                if let Err(e) = MatrixDest::from_rows(rows) {
                    return bad(e);
                }
            }
            _ => {}
        }
        let value = match self.load {
            Load::Lambda(v) | Load::TableRho(v) | Load::Utilization(v) => v,
        };
        if !(value > 0.0 && value.is_finite()) {
            return bad(format!("load value {value} must be positive and finite"));
        }
        if !(self.horizon > 0.0 && self.horizon.is_finite()) {
            return bad(format!(
                "horizon {} must be positive and finite",
                self.horizon
            ));
        }
        if !(self.warmup >= 0.0 && self.warmup <= self.horizon) {
            return bad(format!(
                "warmup {} must lie in [0, horizon = {}]",
                self.warmup, self.horizon
            ));
        }
        if let Some(tau) = self.slot {
            if !(tau > 0.0 && tau.is_finite()) {
                return bad(format!("slot width {tau} must be positive and finite"));
            }
        }
        if self.track_edge_queues && self.topology.num_edges() > STREAMING_STATS_MAX_EDGES {
            return bad(format!(
                "per-edge queue tracking materializes a vector per edge; {} has {} edges, \
                 above the streaming-stats gate of {} — run without queues=true at this scale",
                self.topology.label(),
                self.topology.num_edges(),
                STREAMING_STATS_MAX_EDGES
            ));
        }
        if let EngineSpec::Sharded { shards } = self.engine {
            if shards >= 2 && self.service == ServiceKind::Exponential {
                return bad(format!(
                    "the sharded engine with shards={shards} needs deterministic service \
                     times — its conservative lookahead is the minimum cut-edge service \
                     time, which exponential service does not bound"
                ));
            }
        }
        if let Some(faults) = &self.faults {
            if let Err(e) = faults.check(self.topology.num_nodes(), self.topology.num_edges()) {
                return bad(e);
            }
        }
        if let Some(probes) = &self.probes {
            if let Err(e) = probes.check() {
                return bad(e);
            }
        }
        if let Some(rates) = &self.service_rates {
            if rates.len() != self.topology.num_edges() {
                return bad(format!(
                    "service_rates has {} entries but {} has {} edges",
                    rates.len(),
                    self.topology.label(),
                    self.topology.num_edges()
                ));
            }
            if !rates.iter().all(|&r| r > 0.0 && r.is_finite()) {
                return bad("every service rate must be positive and finite".into());
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Running.
    // ----------------------------------------------------------------

    /// Runs the scenario once.
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::validate`] rejects the specification or the
    /// simulation fails mid-run — use [`Scenario::try_run`] to handle
    /// both as typed errors.
    #[must_use]
    pub fn run(&self) -> SimResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the scenario once, surfacing every failure — invalid
    /// specification, rate-solver divergence, or a structural
    /// mid-simulation [`SimError`] — as a typed [`ScenarioError`] instead
    /// of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Unsupported`]/[`ScenarioError::Parse`]
    /// when validation rejects the specification,
    /// [`ScenarioError::Convergence`] when an adaptive router's rate
    /// solver diverges, and [`ScenarioError::Sim`] when the simulation
    /// itself fails.
    pub fn try_run(&self) -> Result<SimResult, ScenarioError> {
        self.validate()?;
        self.run_at(self.try_lambda()?, self.seed)
    }

    /// [`Scenario::try_run`] at the λ of a resolution the caller already
    /// holds (from [`Scenario::resolve`] on this scenario), so the run
    /// costs no second solve: the single-run twin of
    /// [`Scenario::run_replicated_at`]. A solved vector is freed before
    /// the run starts.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Sim`] when the simulation itself fails.
    pub fn try_run_at(&self, rates: Resolution) -> Result<SimResult, ScenarioError> {
        let lambda = rates.lambda;
        drop(rates);
        self.run_at(lambda, self.seed)
    }

    /// Runs `reps` independent replications in parallel (one derived seed
    /// per replication) and aggregates the headline metrics. λ is resolved
    /// once for all of them.
    ///
    /// # Panics
    ///
    /// Panics if `reps == 0`, the specification is invalid, or a run
    /// fails.
    #[must_use]
    pub fn run_replicated(&self, reps: usize) -> ReplicatedResult {
        let lambda = self.validate().and_then(|()| self.try_lambda());
        self.replicate(lambda.unwrap_or_else(|e| panic!("{e}")), reps)
    }

    /// [`Scenario::run_replicated`] at the λ of a resolution the caller
    /// already holds (from [`Scenario::resolve`] on this scenario), so the
    /// runs cost no second solve. A solved vector is freed before the
    /// replications start.
    ///
    /// # Panics
    ///
    /// Panics if `reps == 0` or a run fails.
    #[must_use]
    pub fn run_replicated_at(&self, rates: Resolution, reps: usize) -> ReplicatedResult {
        let lambda = rates.lambda;
        drop(rates);
        self.replicate(lambda, reps)
    }

    fn replicate(&self, lambda: f64, reps: usize) -> ReplicatedResult {
        assert!(reps >= 1);
        let runs: Vec<SimResult> = (0..reps)
            .into_par_iter()
            .map(|i| {
                let seed = self.replication_seed(i);
                self.run_at(lambda, seed).unwrap_or_else(|e| panic!("{e}"))
            })
            .collect();
        ReplicatedResult::from_runs(runs)
    }

    /// The derived master seed of replication `i` (replication 0 uses the
    /// scenario's own seed stream: `splitmix64(seed)`).
    #[must_use]
    pub fn replication_seed(&self, i: usize) -> u64 {
        // 64-bit golden-ratio constant for full high-bit spread across
        // replication indices.
        splitmix64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// One run of a validated scenario at the resolved `lambda`.
    fn run_at(&self, lambda: f64, seed: u64) -> Result<SimResult, ScenarioError> {
        self.on_network(Run {
            sc: self,
            lambda,
            seed,
            system: Fifo,
        })
    }

    /// Runs the scenario once on the processor-sharing network of
    /// Theorems 1 and 5: every packet queued at an edge gets an equal
    /// share of its server, one unit of work per hop. Its population
    /// dominates the FIFO network's, and its equilibrium is the product
    /// form of §2.2.
    ///
    /// # Errors
    ///
    /// What [`Scenario::try_run`] returns, and
    /// [`ScenarioError::Unsupported`] for what the network does not model:
    /// an adaptive router, exponential service, per-edge service rates,
    /// slotted time or faults. The engine and tracking settings do not
    /// apply to it.
    pub fn run_ps(&self) -> Result<PsResult, ScenarioError> {
        self.run_comparison(Ps)
    }

    /// Runs the scenario once on the copy network `Q₁` of Theorem 10: each
    /// packet leaves a copy at every queue on its route at once, and each
    /// copy takes one unit of FIFO service. Its population is the sum of
    /// the edges' M/D/1 populations.
    ///
    /// # Errors
    ///
    /// As [`Scenario::run_ps`].
    pub fn run_copies(&self) -> Result<CopyResult, ScenarioError> {
        self.run_comparison(Copies)
    }

    fn run_comparison<S: System>(&self, system: S) -> Result<S::Output, ScenarioError> {
        self.validate()?;
        let unmodelled = [
            (self.router.is_adaptive(), "adaptive routers"),
            (
                self.service == ServiceKind::Exponential,
                "exponential service",
            ),
            (self.service_rates.is_some(), "per-edge service rates"),
            (self.slot.is_some(), "slotted time"),
            (self.faults.is_some(), "faults"),
        ];
        if let Some((_, what)) = unmodelled.iter().find(|(asked, _)| *asked) {
            return Err(ScenarioError::unsupported(format!(
                "the PS and copy networks do not model {what}"
            )));
        }
        self.on_network(Run {
            sc: self,
            lambda: self.try_lambda()?,
            seed: self.seed,
            system,
        })
    }

    /// The single dispatch point: maps the topology × router pair onto
    /// concrete types, builds the destination sampler, and hands all three
    /// to `v`.
    fn on_network<V: OnNetwork>(&self, v: V) -> V::Output {
        let pattern = &self.traffic.pattern;
        match (&self.topology, self.router) {
            (TopologySpec::Mesh { rows, cols }, router) => {
                let mesh = Mesh2D::rect(*rows, *cols);
                let dest = generic_dest_for(&mesh, pattern);
                match router {
                    RouterSpec::Greedy => v.on(mesh, GreedyXY, dest, None),
                    RouterSpec::Randomized => v.on(mesh, RandomizedGreedy, dest, None),
                    RouterSpec::WestFirst => v.on(mesh, WestFirst, dest, None),
                    RouterSpec::OddEven => v.on(mesh, OddEven, dest, None),
                }
            }
            (TopologySpec::Torus { n }, router) => {
                let torus = Torus2D::new(*n);
                let dest = generic_dest_for(&torus, pattern);
                match router {
                    RouterSpec::WestFirst => v.on(torus, WestFirst, dest, None),
                    RouterSpec::OddEven => v.on(torus, OddEven, dest, None),
                    _ => v.on(torus, TorusGreedy, dest, None),
                }
            }
            (TopologySpec::Hypercube { dim }, _) => {
                let cube = Hypercube::new(*dim);
                let dest = generic_dest_for(&cube, pattern);
                v.on(cube, DimOrder, dest, None)
            }
            (TopologySpec::Butterfly { k }, _) => {
                let b = Butterfly::new(*k);
                let sources: Vec<NodeId> = (0..b.rows()).map(|w| b.node(0, w)).collect();
                v.on(b, ButterflyRouter, ButterflyOutput, Some(sources))
            }
            (TopologySpec::MeshKd { dims }, _) => {
                let kd = MeshKD::new(dims);
                let dest = generic_dest_for(&kd, pattern);
                v.on(kd, KdGreedy, dest, None)
            }
        }
    }

    // ----------------------------------------------------------------
    // Spec strings.
    // ----------------------------------------------------------------

    /// Parses a compact scenario spec of the form
    /// `"<topology>:<size>[,key=value]…"`, e.g.
    /// `"torus:8,util=0.9,horizon=5000,seed=7"`,
    /// `"mesh:8,traffic=transpose,util=0.5"` or
    /// `"hypercube:20 traffic=shuffle load=rho:0.5"` — fields separate on
    /// commas and/or whitespace, so a quoted shell argument with spaces is
    /// one valid spec, and a fragment without `=` continues the value
    /// before it (`probes=nsys,maxq`).
    ///
    /// The keys, their spellings and value syntax are the rows of
    /// [`spec::KEYS`]; each key may appear once. Per-edge
    /// `service_rates`, per-source rate vectors and traffic matrices have
    /// no spec syntax — set them on the builder.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Parse`] for malformed input and
    /// [`ScenarioError::Unsupported`] when the parsed combination fails
    /// [`Scenario::validate`].
    pub fn parse(spec: &str) -> Result<Self, ScenarioError> {
        let bad = ScenarioError::Parse;
        let mut fields = spec
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|f| !f.is_empty())
            .peekable();
        let head = fields.next().unwrap_or_default();
        let mut sc = Scenario::new(TopologySpec::parse_head(head).map_err(bad)?);
        let mut seen = 0;
        while let Some(field) = fields.next() {
            let (name, value) = field
                .split_once('=')
                .ok_or_else(|| bad(format!("expected `key=value`, got `{field}`")))?;
            // A fragment without `=` continues a comma-joined value.
            let mut value = std::borrow::Cow::Borrowed(value);
            while let Some(more) = fields.next_if(|f| !f.contains('=')) {
                *value.to_mut() += &format!(",{more}");
            }
            let (_, key) = spec::claim(&mut seen, name).map_err(bad)?;
            if key.role == spec::Role::Head {
                return Err(bad(format!(
                    "the topology is the head, not a `{name}=` clause"
                )));
            }
            (key.parse)(&mut sc, name, &value).map_err(bad)?;
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Renders the scenario as a spec string that [`Scenario::parse`]
    /// accepts: the topology head, then every clause whose value differs
    /// from [`Scenario::new`]'s default (the load always), in
    /// [`spec::KEYS`] order. The lossy fields are
    /// `service_rates`, `SourceSpec::Rates` vectors and
    /// `PatternSpec::Matrix` matrices, which have no spec syntax (a
    /// per-edge or per-pair table does not fit a one-line spec) and are
    /// omitted.
    #[must_use]
    pub fn spec_string(&self) -> String {
        let defaults = Scenario::new(self.topology.clone());
        let mut s = self.topology.spec_head();
        for key in spec::KEYS {
            let value = key.render(self, Form::Scenario);
            let at_default = !key.is_required() && value == key.render(&defaults, Form::Scenario);
            if let Some((name, text)) = value.filter(|_| !at_default) {
                s.push_str(&format!(",{name}={text}"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::RateClass;
    use meshbound_routing::rates::{torus_row_rates, total_rate};

    #[test]
    fn every_topology_runs_end_to_end() {
        let scenarios = [
            Scenario::mesh(4),
            Scenario::mesh_rect(3, 5),
            Scenario::torus(4),
            Scenario::hypercube(4),
            Scenario::butterfly(3),
            Scenario::mesh_kd(&[3, 3, 3]),
        ];
        for sc in scenarios {
            let res = sc
                .clone()
                .load(Load::Lambda(0.05))
                .horizon(600.0)
                .warmup(60.0)
                .run();
            assert!(res.completed > 0, "{} delivered nothing", sc.label());
            assert!(res.avg_delay > 0.0, "{}", sc.label());
        }
    }

    #[test]
    fn load_conventions_resolve_per_topology() {
        // Square mesh keeps Table I's λ = 4ρ/n.
        let mesh = Scenario::mesh(10).load(Load::TableRho(0.8));
        assert!((mesh.lambda() - 0.32).abs() < 1e-12);
        // Hypercube utilization: λp = ρ.
        let hc = Scenario::hypercube(6)
            .pattern(PatternSpec::Bernoulli { p: 0.25 })
            .load(Load::Utilization(0.5));
        assert!((hc.lambda() - 2.0).abs() < 1e-12);
        assert!((hc.peak_utilization() - 0.5).abs() < 1e-12);
        // Butterfly: λ/2 = ρ.
        let bf = Scenario::butterfly(4).load(Load::Utilization(0.7));
        assert!((bf.lambda() - 1.4).abs() < 1e-12);
        // Torus: TableRho coincides with utilization.
        let t1 = Scenario::torus(8).load(Load::TableRho(0.6));
        let t2 = Scenario::torus(8).load(Load::Utilization(0.6));
        assert_eq!(t1.lambda().to_bits(), t2.lambda().to_bits());
    }

    #[test]
    fn mean_distance_closed_forms() {
        assert!((Scenario::mesh(5).mean_distance() - 3.2).abs() < 1e-12);
        assert!((Scenario::torus(4).mean_distance() - 2.0).abs() < 1e-12);
        assert!((Scenario::hypercube(6).mean_distance() - 3.0).abs() < 1e-12);
        assert!((Scenario::butterfly(5).mean_distance() - 5.0).abs() < 1e-12);
        // k-d mesh: Σ (m²−1)/3m, and a [n, n] mesh equals the 2-D formula.
        let kd = Scenario::mesh_kd(&[5, 5]);
        assert!((kd.mean_distance() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn nearby_mean_distance_below_uniform() {
        let uniform = Scenario::mesh(6).mean_distance();
        let nearby = Scenario::mesh(6)
            .traffic(TrafficSpec::nearby(0.5))
            .mean_distance();
        assert!(nearby < uniform, "nearby {nearby} vs uniform {uniform}");
    }

    #[test]
    fn pattern_mean_distances_follow_geometry() {
        // Bit-complement on an n×n mesh: every source travels
        // (n−1−2r)+(n−1−2c) ... averaged = 2·mean|n−1−2c| over c.
        let n = 8usize;
        let per_axis: f64 = (0..n)
            .map(|c| (n as f64 - 1.0 - 2.0 * c as f64).abs())
            .sum::<f64>()
            / n as f64;
        let got = Scenario::mesh(n)
            .traffic(TrafficSpec::bit_complement())
            .mean_distance();
        assert!((got - 2.0 * per_axis).abs() < 1e-9, "{got}");
        // Transpose mean distance: E|r − c| × 2 over uniform (r, c).
        let mut sum = 0.0;
        for r in 0..n {
            for c in 0..n {
                sum += 2.0 * r.abs_diff(c) as f64;
            }
        }
        let expect = sum / (n * n) as f64;
        let got = Scenario::mesh(n)
            .traffic(TrafficSpec::transpose())
            .mean_distance();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn hotspot_and_weighted_sources_resolve_utilization_loads() {
        // Peak utilization must hit the requested ρ exactly, computed from
        // the workload's actual rate vector.
        for sc in [
            Scenario::mesh(6)
                .traffic(TrafficSpec::hotspot(0.3))
                .load(Load::Utilization(0.6)),
            Scenario::mesh(6)
                .traffic(TrafficSpec::transpose())
                .load(Load::Utilization(0.6)),
            Scenario::torus(4)
                .traffic(TrafficSpec::bit_complement())
                .load(Load::Utilization(0.6)),
            Scenario::mesh(5)
                .source(SourceSpec::Hotspot {
                    node: None,
                    weight: 5.0,
                })
                .load(Load::Utilization(0.6)),
        ] {
            sc.validate().unwrap();
            assert!(
                (sc.peak_utilization() - 0.6).abs() < 1e-9,
                "{}: {}",
                sc.spec_string(),
                sc.peak_utilization()
            );
            let rates = sc.edge_rates();
            let peak = rates.iter().fold(0.0f64, |a, &b| a.max(b));
            assert!((peak - 0.6).abs() < 1e-9, "{}", sc.spec_string());
        }
    }

    #[test]
    fn transpose_stresses_the_mesh_less_than_uniform_per_unit_lambda() {
        // The transpose pattern's peak edge rate differs from uniform's;
        // stability thresholds must reflect the actual pattern.
        let uniform = Scenario::mesh(8).stability_lambda();
        let transpose = Scenario::mesh(8)
            .traffic(TrafficSpec::transpose())
            .stability_lambda();
        assert!(transpose > 0.0 && uniform > 0.0);
        assert_ne!(transpose.to_bits(), uniform.to_bits());
    }

    #[test]
    fn matrix_workload_rates_match_the_matrix() {
        // A 2×2 mesh with a single flow 0 → 3 (one right edge + one down
        // edge, rate = λ·weight of the lone source).
        let n_nodes = 4;
        let mut rows = vec![vec![0.0; n_nodes]; n_nodes];
        rows[0][3] = 2.0;
        let sc = Scenario::mesh(2)
            .traffic(TrafficSpec::matrix(rows))
            .load(Load::Lambda(0.1));
        sc.validate().unwrap();
        let rates = sc.edge_rates();
        // Mean per-source rate 0.1 over 4 sources → total γ = 0.4, all of
        // it from source 0, route length 2 → Σ rates = 0.8.
        assert!((total_rate(&rates) - 0.8).abs() < 1e-12);
        let positive = rates.iter().filter(|&&r| r > 0.0).count();
        assert_eq!(positive, 2);
        assert!((sc.mean_distance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edge_rates_match_closed_forms() {
        // Torus direction split matches the closed form used by the bounds.
        let sc = Scenario::torus(5).load(Load::Lambda(0.2));
        let rates = sc.edge_rates();
        let (pos, neg) = torus_row_rates(5, 0.2);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - pos).abs() < 1e-12 && (min - neg).abs() < 1e-12);
        // Square-mesh closed form agrees with enumeration via the rect path.
        let closed = Scenario::mesh(4).load(Load::Lambda(0.1)).edge_rates();
        let enumerated = Scenario::mesh_rect(4, 4)
            .load(Load::Lambda(0.1))
            .edge_rates();
        for (a, b) in closed.iter().zip(&enumerated) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn validate_rejects_bad_combinations() {
        assert!(Scenario::torus(8)
            .router(RouterSpec::Randomized)
            .validate()
            .is_err());
        // Adaptive routers need a topology with a 2-D turn model; the
        // rejection is a typed Unsupported error, not a panic.
        for router in [RouterSpec::WestFirst, RouterSpec::OddEven] {
            for sc in [
                Scenario::hypercube(4).router(router),
                Scenario::butterfly(3).router(router),
                Scenario::mesh_kd(&[3, 3, 3]).router(router),
            ] {
                match sc.validate() {
                    Err(ScenarioError::Unsupported(msg)) => {
                        assert!(msg.contains(router.as_str()), "{msg}");
                    }
                    other => panic!("expected Unsupported, got {other:?}"),
                }
            }
            assert!(Scenario::mesh(4).router(router).validate().is_ok());
            assert!(Scenario::torus(4).router(router).validate().is_ok());
        }
        assert!(Scenario::hypercube(4)
            .traffic(TrafficSpec::nearby(0.5))
            .validate()
            .is_err());
        assert!(Scenario::mesh(4)
            .traffic(TrafficSpec::bernoulli(0.5))
            .validate()
            .is_err());
        assert!(Scenario::mesh(4)
            .load(Load::Lambda(-1.0))
            .validate()
            .is_err());
        assert!(Scenario::mesh(1).validate().is_err());
        assert!(Scenario::mesh(4)
            .service_rates(vec![1.0; 3])
            .validate()
            .is_err());
        assert!(Scenario::mesh(4).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_workloads() {
        // Transpose needs a square array.
        assert!(Scenario::mesh_rect(3, 5)
            .traffic(TrafficSpec::transpose())
            .validate()
            .is_err());
        // Bit reversal needs power-of-two extents.
        assert!(Scenario::mesh(5)
            .traffic(TrafficSpec::bit_reversal())
            .validate()
            .is_err());
        // Odd-dimension hypercube has no transpose.
        assert!(Scenario::hypercube(5)
            .traffic(TrafficSpec::transpose())
            .validate()
            .is_err());
        // The butterfly takes no pattern at all.
        assert!(Scenario::butterfly(3)
            .traffic(TrafficSpec::hotspot(0.2))
            .validate()
            .is_err());
        // Hotspot fraction and node must be in range.
        assert!(Scenario::mesh(4)
            .traffic(TrafficSpec::hotspot(0.0))
            .validate()
            .is_err());
        assert!(Scenario::mesh(4)
            .traffic(TrafficSpec::hotspot_at(0.2, 99))
            .validate()
            .is_err());
        // Source hotspot index out of range; zero weight.
        assert!(Scenario::mesh(4)
            .source(SourceSpec::Hotspot {
                node: Some(16),
                weight: 2.0
            })
            .validate()
            .is_err());
        assert!(Scenario::mesh(4)
            .source(SourceSpec::Rates {
                rates: vec![0.0; 16]
            })
            .validate()
            .is_err());
        // Matrices must be square, node-count sized, and ride uniform
        // sources.
        assert!(Scenario::mesh(4)
            .traffic(TrafficSpec::matrix(vec![vec![1.0; 3]; 3]))
            .validate()
            .is_err());
        assert!(Scenario::mesh(2)
            .traffic(
                TrafficSpec::matrix(vec![vec![1.0; 4]; 4]).sources(SourceSpec::Hotspot {
                    node: None,
                    weight: 2.0
                })
            )
            .validate()
            .is_err());
        // And the supported shapes pass.
        assert!(Scenario::mesh(4)
            .traffic(TrafficSpec::transpose())
            .validate()
            .is_ok());
        assert!(Scenario::mesh(8)
            .traffic(TrafficSpec::bit_reversal())
            .validate()
            .is_ok());
        assert!(Scenario::hypercube(6)
            .traffic(TrafficSpec::shuffle())
            .validate()
            .is_ok());
        assert!(Scenario::torus(5)
            .traffic(TrafficSpec::hotspot(0.5))
            .validate()
            .is_ok());
        assert!(Scenario::butterfly(3)
            .source(SourceSpec::Hotspot {
                node: Some(0),
                weight: 3.0
            })
            .validate()
            .is_ok());
    }

    #[test]
    fn replication_seeds_have_high_bit_spread() {
        // The 64-bit golden-ratio multiplier must separate consecutive
        // replication indices in the high bits before splitmix finishes
        // the job.
        let sc = Scenario::mesh(4);
        let seeds: Vec<u64> = (0..64).map(|i| sc.replication_seed(i)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b);
                // High 32 bits must differ too — the 32-bit constant left
                // them correlated before mixing.
                assert_ne!(a >> 32, b >> 32, "high bits collide: {a:x} vs {b:x}");
            }
        }
    }

    #[test]
    fn spec_round_trips() {
        let scenarios = [
            Scenario::mesh(8).load(Load::TableRho(0.9)),
            Scenario::mesh_rect(3, 7).load(Load::Lambda(0.05)).seed(9),
            Scenario::torus(8)
                .load(Load::Utilization(0.9))
                .horizon(5_000.0),
            Scenario::hypercube(6)
                .traffic(TrafficSpec::bernoulli(0.25))
                .load(Load::Lambda(0.8))
                .service(ServiceKind::Exponential),
            Scenario::butterfly(4)
                .load(Load::Utilization(0.6))
                .warmup(50.0),
            Scenario::mesh_kd(&[3, 4, 5])
                .load(Load::Lambda(0.02))
                .slot(1.0),
            Scenario::mesh(5)
                .router(RouterSpec::Randomized)
                .traffic(TrafficSpec::nearby(0.5))
                .load(Load::Lambda(0.1))
                .track_saturated(true)
                .include_self_packets(false)
                .delay_quantiles(true),
            Scenario::mesh(8)
                .traffic(TrafficSpec::transpose())
                .load(Load::Utilization(0.5)),
            Scenario::mesh(8)
                .traffic(TrafficSpec::bit_reversal())
                .load(Load::Lambda(0.05)),
            Scenario::torus(4)
                .traffic(TrafficSpec::shuffle())
                .load(Load::Lambda(0.1)),
            Scenario::mesh(6)
                .traffic(TrafficSpec::hotspot(0.25))
                .load(Load::Lambda(0.02)),
            Scenario::mesh(6)
                .traffic(TrafficSpec::hotspot_at(0.4, 7))
                .load(Load::Lambda(0.02)),
            Scenario::mesh(5)
                .source(SourceSpec::Hotspot {
                    node: None,
                    weight: 4.0,
                })
                .load(Load::Lambda(0.05)),
            Scenario::hypercube(6)
                .traffic(TrafficSpec::bit_complement())
                .load(Load::Utilization(0.3)),
            Scenario::mesh(6)
                .load(Load::TableRho(0.4))
                .engine(EngineSpec::Sharded { shards: 1 }),
            Scenario::torus(5)
                .load(Load::Utilization(0.3))
                .engine(EngineSpec::Sharded { shards: 3 }),
            Scenario::mesh(6)
                .router(RouterSpec::WestFirst)
                .load(Load::Lambda(0.05)),
            Scenario::torus(6)
                .router(RouterSpec::OddEven)
                .traffic(TrafficSpec::transpose())
                .load(Load::Utilization(0.4)),
        ];
        for sc in scenarios {
            let spec = sc.spec_string();
            let parsed = Scenario::parse(&spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            assert_eq!(parsed, sc, "round trip failed for `{spec}`");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "",
            "mesh",
            "ring:8",
            "mesh:0",
            "mesh:4x",
            "kd:3x1x3",
            "mesh:4,router=quantum",
            "mesh:4,traffic=nearby",
            "mesh:4,dest=uniform",
            "mesh:4,router=oddeven,router=greedy",
            "mesh:4,engine=auto,shards=2",
            "mesh:4,topo=torus:4",
            "mesh:4,reps=2",
            "mesh:4 junk",
            "torus:4294967296",
            "mesh:4294967296",
            "mesh:4294967296x4294967296",
            "kd:65536x65536x65536x65536x65536",
            "hypercube:64",
            "butterfly:64",
            "mesh:4,speed=9",
            "mesh:4,lambda=fast",
            "torus:8,router=randomized",
            "hypercube:4,router=oddeven",
            "butterfly:3,router=westfirst",
            "kd:3x3x3,router=oddeven",
            "mesh:4,router=eastlast",
            "mesh:4,seed=-1",
            "mesh:4,engine=quantum",
            "mesh:4,engine=heap",
            "mesh:4,engine=calendar",
            "mesh:4,sample=5",
            "mesh:4,traffic=warp",
            "mesh:4,traffic=hotspot",
            "mesh:3x5,traffic=transpose",
            "mesh:5,traffic=bitrev",
            "mesh:4,src=hotspot",
            "mesh:4,src=rates",
            "butterfly:3,traffic=transpose",
            "mesh:4,load=0.5",
            "mesh:4,load=parsecs:0.5",
            "mesh:4,load=rho:0.5,util=0.5",
            "mesh:4,lambda=0.1,load=rho:0.5",
        ] {
            assert!(Scenario::parse(spec).is_err(), "`{spec}` should not parse");
        }
    }

    #[test]
    fn butterfly_permutation_is_a_typed_error_not_a_panic() {
        // Regression: this used to reach `generic_dest_for`'s panic path
        // through run(); validation must reject it up front — in both the
        // comma and whitespace spellings.
        for spec in [
            "butterfly:3,traffic=transpose",
            "butterfly:3 traffic=transpose",
        ] {
            match Scenario::parse(spec) {
                Err(ScenarioError::Unsupported(msg)) => {
                    assert!(msg.contains("butterfly"), "`{spec}`: {msg}")
                }
                other => panic!("`{spec}`: expected Unsupported, got {other:?}"),
            }
        }
    }

    #[test]
    fn whitespace_and_load_key_parse() {
        let sc = Scenario::parse("hypercube:6 traffic=shuffle load=rho:0.5").unwrap();
        assert_eq!(sc.topology, TopologySpec::Hypercube { dim: 6 });
        assert_eq!(
            sc.traffic.pattern,
            PatternSpec::Permutation {
                kind: PermutationKind::Shuffle
            }
        );
        assert_eq!(sc.load, Load::TableRho(0.5));
        // Equivalent to the comma spelling with the short load key.
        let comma = Scenario::parse("hypercube:6,traffic=shuffle,rho=0.5").unwrap();
        assert_eq!(sc, comma);
        // Mixed separators and the other conventions.
        let sc = Scenario::parse("torus:8, traffic=transpose load=util:0.4 seed=3").unwrap();
        assert_eq!(sc.load, Load::Utilization(0.4));
        assert_eq!(sc.seed, 3);
        let sc = Scenario::parse("mesh:5 load=lambda:0.12").unwrap();
        assert_eq!(sc.load, Load::Lambda(0.12));
    }

    #[test]
    fn large_topologies_default_to_the_short_horizon() {
        let small = Scenario::hypercube(10);
        assert_eq!(
            (small.horizon, small.warmup),
            (DEFAULT_HORIZON, DEFAULT_WARMUP)
        );
        let big = Scenario::hypercube(16);
        assert_eq!(
            (big.horizon, big.warmup),
            (LARGE_DEFAULT_HORIZON, LARGE_DEFAULT_WARMUP)
        );
        // spec_string stays minimal at the per-topology default and
        // round-trips an explicit override.
        assert!(!big.spec_string().contains("horizon="));
        let long = big.horizon(2_000.0).warmup(200.0);
        let spec = long.spec_string();
        assert!(spec.contains("horizon=2000"), "{spec}");
        assert_eq!(Scenario::parse(&spec).unwrap(), long);
    }

    #[test]
    fn silent_sources_counted_for_matrices_only() {
        let rows = vec![
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ];
        let sc = Scenario::mesh(2).pattern(PatternSpec::Matrix { rows });
        sc.validate().unwrap();
        assert_eq!(sc.silent_sources(), 2);
        assert_eq!(Scenario::mesh(4).silent_sources(), 0);
        assert_eq!(
            Scenario::mesh(4)
                .traffic(TrafficSpec::hotspot(0.5))
                .silent_sources(),
            0
        );
    }

    #[test]
    fn parse_accepts_the_readme_examples() {
        let sc = Scenario::parse("torus:8,util=0.9,horizon=5000,seed=7").unwrap();
        assert_eq!(sc.topology, TopologySpec::Torus { n: 8 });
        assert_eq!(sc.seed, 7);
        assert!(sc.lambda() > 0.0);
        let sc = Scenario::parse("hypercube:6,traffic=bernoulli:0.25,lambda=0.8").unwrap();
        assert_eq!(sc.traffic.pattern, PatternSpec::Bernoulli { p: 0.25 });
        let sc = Scenario::parse("mesh:8,traffic=transpose,util=0.5,src=hotspot:4:0").unwrap();
        assert_eq!(
            sc.traffic.pattern,
            PatternSpec::Permutation {
                kind: PermutationKind::Transpose
            }
        );
        assert_eq!(
            sc.traffic.source,
            SourceSpec::Hotspot {
                node: Some(0),
                weight: 4.0
            }
        );
    }

    #[test]
    fn shards_key_round_trips_through_spec_strings() {
        let sc = Scenario::parse("mesh:6,rho=0.4,shards=4").unwrap();
        assert_eq!(sc.engine, EngineSpec::Sharded { shards: 4 });
        let spec = sc.spec_string();
        assert!(spec.ends_with(",shards=4"), "{spec}");
        assert_eq!(Scenario::parse(&spec).unwrap(), sc);
        // The long spelling resolves to the same scenario.
        let long = Scenario::parse("mesh:6,rho=0.4,engine=sharded:4").unwrap();
        assert_eq!(long, sc);
        assert!(Scenario::parse("mesh:6,shards=0").is_err());
        assert!(Scenario::parse("mesh:6,shards=two").is_err());
    }

    #[test]
    fn faults_clause_round_trips_and_validates() {
        let sc = Scenario::parse("mesh:6,rho=0.4,faults=links:0.05+at:100+repair:200").unwrap();
        let faults = sc.faults.clone().expect("faults parsed");
        assert_eq!(faults.spec_token(), "links:0.05+at:100+repair:200");
        let spec = sc.spec_string();
        assert!(
            spec.contains(",faults=links:0.05+at:100+repair:200"),
            "{spec}"
        );
        assert_eq!(Scenario::parse(&spec).unwrap(), sc);
        // The faults clause stays ahead of the engine clause so the engine
        // suffix contract (`…,shards=N`) holds for faulted specs too.
        let sharded = Scenario::parse("mesh:6,rho=0.4,faults=links:0.05,shards=4").unwrap();
        let spec = sharded.spec_string();
        assert!(spec.ends_with(",shards=4"), "{spec}");
        assert_eq!(Scenario::parse(&spec).unwrap(), sharded);
        // `faults=none` is the explicit healthy spelling and is not
        // emitted back.
        let none = Scenario::parse("mesh:6,rho=0.4,faults=none").unwrap();
        assert_eq!(none.faults, None);
        assert!(
            !none.spec_string().contains("faults"),
            "{}",
            none.spec_string()
        );
        // Out-of-range rates and ids are typed errors.
        assert!(Scenario::parse("mesh:4,faults=links:1.5").is_err());
        assert!(Scenario::parse("mesh:4,faults=link:9999").is_err());
        assert!(Scenario::parse("mesh:4,faults=node:400").is_err());
        assert!(Scenario::parse("mesh:4,faults=warp:0.1").is_err());
    }

    #[test]
    fn faulted_scenario_reports_degraded_delivery() {
        let sc = Scenario::parse("mesh:6,lambda=0.1,faults=links:0.1,horizon=800,warmup=80,seed=5")
            .unwrap();
        let a = sc.try_run().unwrap();
        let b = sc.try_run().unwrap();
        assert!(a.dropped.total() > 0, "no drops under links:0.1");
        assert!(a.delivered_fraction < 1.0 && a.delivered_fraction > 0.0);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
    }

    #[test]
    fn fault_specs_that_fail_everything_forever_are_refused() {
        for faults in ["links:0.99", "nodes:1", "nodes:0.97", "link:3+links:0.99"] {
            let spec = format!("mesh:4 lambda=0.1 faults={faults}");
            let err = Scenario::parse(&spec).unwrap_err();
            assert!(
                err.to_string().contains("leaves nothing to simulate"),
                "{spec}: {err}"
            );
        }
        // Repaired, the same full draws are runs that finish.
        for faults in [
            "link:3+links:1+repair:10",
            "link:3+links:0.99+repair:10",
            "node:5+nodes:1+repair:10",
        ] {
            let spec = format!("mesh:4 lambda=0.1 faults={faults} horizon=100 warmup=10");
            let sc = Scenario::parse(&spec).unwrap();
            assert_eq!(sc.fault_reachability(sc.seed).map(|(d, _)| d), Some(48));
            assert!(sc.try_run().unwrap().generated > 0, "{spec}");
        }
    }

    #[test]
    fn sharded_engine_rejects_exponential_service() {
        let err = Scenario::parse("mesh:6,rho=0.4,shards=4,service=exp").unwrap_err();
        assert!(err.to_string().contains("deterministic service"), "{err}");
        // A single shard has no cut edges, so exponential service is fine.
        assert!(Scenario::parse("mesh:6,rho=0.4,shards=1,service=exp").is_ok());
    }

    #[test]
    fn unit_rate_cache_hit_is_bit_identical_to_the_cold_path() {
        // Two resolutions of one workload: the second is a memo hit (same
        // topology/router/traffic key); both must agree bit for bit with a
        // cold solve.
        let sc = Scenario::mesh(7).traffic(TrafficSpec::transpose());
        let cold = sc.solve().unwrap();
        let unit = |res: Resolution| match res.class {
            RateClass::Solved(unit) => unit,
            closed => panic!("transpose has no closed form, got {closed:?}"),
        };
        let warm = unit(sc.resolve().unwrap());
        let hit = unit(sc.resolve().unwrap());
        assert_eq!(cold.len(), warm.len());
        for ((a, b), c) in cold.iter().zip(warm.iter()).zip(hit.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn adaptive_routers_run_end_to_end_from_spec_strings() {
        for spec in [
            "mesh:5,router=westfirst,lambda=0.05,horizon=300,warmup=30",
            "mesh:5,router=oddeven,traffic=transpose,util=0.4,horizon=300,warmup=30",
            "torus:5,router=westfirst,util=0.3,horizon=300,warmup=30",
            "torus:5,router=oddeven,lambda=0.05,horizon=300,warmup=30",
        ] {
            let sc = Scenario::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            let result = sc.run();
            assert!(result.completed > 0, "`{spec}` moved no packets");
            assert!(result.avg_delay.is_finite());
        }
    }

    #[test]
    fn adaptive_rates_come_from_the_fixed_point_solver() {
        // The solved vector must satisfy the conservation law
        // Σ_e λ_e = λ · Σ_s E[route length | s] — adaptive turn-model
        // routes are minimal, so the closed-form mean distance applies.
        for router in [RouterSpec::WestFirst, RouterSpec::OddEven] {
            for sc in [
                Scenario::mesh(6).router(router).load(Load::Lambda(0.2)),
                Scenario::torus(5).router(router).load(Load::Lambda(0.2)),
            ] {
                let rates = sc.try_edge_rates().unwrap();
                assert_eq!(rates.len(), sc.topology.num_edges());
                assert!(rates.iter().all(|r| r.is_finite() && *r >= 0.0));
                let total: f64 = rates.iter().sum();
                let expect = 0.2 * sc.num_sources() as f64 * sc.mean_distance();
                assert!(
                    (total - expect).abs() < 1e-9,
                    "{router:?} on {}: total {total} vs {expect}",
                    sc.label()
                );
                let lam = sc.try_stability_lambda().unwrap();
                assert!(lam.is_finite() && lam > 0.0);
            }
        }
    }

    #[test]
    fn oddeven_stability_exceeds_greedy_on_transpose() {
        // Odd-even spreads the transpose's corner-turn traffic over two
        // minimal candidates, so its busiest edge carries less flow than
        // greedy's single XY path: λ* (fixed point) > λ* (enumeration).
        let greedy = Scenario::mesh(16)
            .traffic(TrafficSpec::transpose())
            .stability_lambda();
        let oddeven = Scenario::mesh(16)
            .router(RouterSpec::OddEven)
            .traffic(TrafficSpec::transpose())
            .try_stability_lambda()
            .unwrap();
        assert!(
            oddeven > greedy * 1.05,
            "odd-even λ* = {oddeven} should beat greedy λ* = {greedy}"
        );
    }
}
