//! [`SweepSpec`]: a declarative grid of [`Scenario`]s.
//!
//! The paper's tables are really *sweeps* — a cartesian product of
//! topology, load, router and destination axes, one scenario per cell. A
//! [`SweepSpec`] names such a grid in the scenario grammar itself: each
//! clause is a scenario clause ([`spec::KEYS`]), and an
//! axis clause may list `a|b` alternatives. It expands deterministically
//! ([`SweepSpec::expand`]) and round-trips through its text
//! ([`SweepSpec::parse`] / [`SweepSpec::spec_string`]):
//!
//! ```
//! use meshbound_sim::SweepSpec;
//!
//! let sweep = SweepSpec::parse(
//!     "topo=mesh:5|torus:6 load=rho:0.2|rho:0.8 reps=2 horizon=800 warmup=80",
//! )
//! .unwrap();
//! let cells = sweep.expand().unwrap();
//! assert_eq!(cells.len(), 4); // 2 topologies × 2 loads
//! assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
//! ```
//!
//! Expansion is pure specification → scenarios: per-cell seeds are derived
//! by hashing each cell's parameters against the sweep seed, so the grid is
//! identical however (and in whatever order, on however many threads) the
//! cells are later executed. The parallel executor that runs an expanded
//! grid and emits the JSON report lives in the `meshbound` facade crate
//! (`meshbound::sweep`).

use crate::engine::EngineSpec;
use crate::rng::splitmix64;
use crate::scenario::{Scenario, DEFAULT_HORIZON, DEFAULT_SEED, DEFAULT_WARMUP};
use crate::spec::{self, Form, Role, SpecKey, KEYS, SWEEP_ORDER};
use meshbound_queueing::load::Load;
use serde::{Deserialize, Serialize};

/// How each cell's simulation horizon is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HorizonPolicy {
    /// Every cell runs the same fixed horizon and warmup.
    Fixed {
        /// Simulated end time.
        horizon: f64,
        /// Warmup discarded from statistics.
        warmup: f64,
    },
    /// Load-adaptive: `horizon = min(base / (1 − ρ), cap)` with
    /// `ρ` the cell's peak edge utilization (clamped to `1 − 10⁻³`) and
    /// warmup one fifth of the horizon — the same growth law the paper
    /// tables use, tracking the `O(1/(1−ρ)²)` relaxation time of heavily
    /// loaded queues.
    Auto {
        /// Base horizon at light load.
        base: f64,
        /// Hard horizon cap.
        cap: f64,
    },
}

impl HorizonPolicy {
    /// The `(horizon, warmup)` pair for a cell with peak utilization `rho`.
    #[must_use]
    pub fn resolve(&self, rho: f64) -> (f64, f64) {
        match *self {
            HorizonPolicy::Fixed { horizon, warmup } => (horizon, warmup),
            HorizonPolicy::Auto { base, cap } => {
                let horizon = (base / (1.0 - rho).max(1e-3)).min(cap);
                (horizon, horizon / 5.0)
            }
        }
    }

    /// The policy of a sweep's `horizon=` and `warmup=` values. A fixed
    /// horizon without a warmup keeps the default 1:10 warmup ratio rather
    /// than the absolute default (a 200-unit warmup would invalidate any
    /// shorter horizon).
    fn parse(horizon: Option<&str>, warmup: Option<&str>) -> Result<Self, String> {
        let (h, w) = (spec::HORIZON.names[0], spec::WARMUP.names[0]);
        match (horizon.and_then(|v| v.strip_prefix("auto")), warmup) {
            (Some(_), Some(_)) => Err(format!("`{w}=` only applies to a fixed horizon")),
            (Some(auto), None) => {
                let (base, cap) = auto
                    .strip_prefix(':')
                    .and_then(|a| a.split_once(':'))
                    .ok_or_else(|| format!("an auto horizon must be `{h}=auto:<base>:<cap>`"))?;
                let (base, cap) = (spec::number(h, base)?, spec::number(h, cap)?);
                Ok(HorizonPolicy::Auto { base, cap })
            }
            (None, warmup) => {
                let horizon = horizon.map_or(Ok(DEFAULT_HORIZON), |v| spec::number(h, v))?;
                let default_warmup = horizon * DEFAULT_WARMUP / DEFAULT_HORIZON;
                let warmup = warmup.map_or(Ok(default_warmup), |v| spec::number(w, v))?;
                Ok(HorizonPolicy::Fixed { horizon, warmup })
            }
        }
    }

    /// The policy's `horizon=` value (its `warmup=` value when
    /// `of_warmup`), or `None` where a sweep spec leaves the clause out.
    fn token(&self, of_warmup: bool) -> Option<String> {
        match *self {
            HorizonPolicy::Auto { base, cap } => (!of_warmup).then(|| format!("auto:{base}:{cap}")),
            HorizonPolicy::Fixed { horizon, warmup } => {
                let default = horizon == DEFAULT_HORIZON && warmup == DEFAULT_WARMUP;
                (!default).then(|| if of_warmup { warmup } else { horizon }.to_string())
            }
        }
    }
}

/// Why a sweep specification was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The sweep grammar could not be parsed.
    Parse(String),
    /// An axis is empty, so the grid has no cells.
    EmptyAxis(String),
    /// Two cells expand to the identical scenario.
    DuplicateCell(String),
    /// A cell fails [`Scenario::validate`].
    InvalidCell(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Parse(m) => write!(f, "sweep parse error: {m}"),
            SweepError::EmptyAxis(m) => write!(f, "empty sweep axis: {m}"),
            SweepError::DuplicateCell(m) => write!(f, "duplicate sweep cell: {m}"),
            SweepError::InvalidCell(m) => write!(f, "invalid sweep cell: {m}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A declarative grid of scenarios: scenario clauses, some with `a|b`
/// alternatives, plus the sweep's own replication count, master seed and
/// horizon policy.
///
/// Parse one from the sweep grammar with [`SweepSpec::parse`] (or start
/// from [`SweepSpec::new`] and [`SweepSpec::set`] clauses).
/// [`SweepSpec::expand`] turns it into concrete [`Scenario`]s in a
/// deterministic order (topology-major, then load, router, traffic,
/// faults, engine).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The canonical value tokens of each [`KEYS`] row; empty where the
    /// sweep leaves the key at its default.
    clauses: Vec<Vec<String>>,
    /// Independent replications per cell.
    pub reps: usize,
    /// Sweep master seed; each cell derives its own scenario seed from it.
    pub seed: u64,
    /// Horizon policy shared by every cell.
    pub horizon: HorizonPolicy,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// A sweep with no clauses: one replication, seed 1, fixed horizon
    /// 2000 / warmup 200. The `topo` and `load` axes must be set before
    /// [`SweepSpec::expand`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            clauses: vec![Vec::new(); KEYS.len()],
            reps: 1,
            seed: DEFAULT_SEED,
            horizon: HorizonPolicy::Fixed {
                horizon: DEFAULT_HORIZON,
                warmup: DEFAULT_WARMUP,
            },
        }
    }

    /// Sets the clause of a cell key: `value` is one scenario value, or
    /// `|`-separated alternatives where the key is an axis. Each value is
    /// stored in its canonical form, and a lone default value clears the
    /// clause, so equal grids compare equal however they were spelled.
    ///
    /// # Errors
    ///
    /// [`SweepError::Parse`] for a malformed value, alternatives on a
    /// key that is not an axis, or a key that is not a cell clause
    /// (`reps`, `seed`, `horizon`, `warmup` are the sweep's own fields).
    pub fn set(&mut self, key: &SpecKey, value: &str) -> Result<(), SweepError> {
        self.set_clause(spec::row(key), key.names[0], value)
            .map_err(SweepError::Parse)
    }

    fn set_clause(&mut self, row: usize, name: &str, value: &str) -> Result<(), String> {
        let key = KEYS[row];
        if !key.is_axis() && key.role != Role::Shared {
            return Err(format!("`{name}` is not a clause of sweep cells"));
        }
        let alternatives: Vec<&str> = value.split('|').collect();
        if alternatives.len() > 1 && !key.is_axis() {
            return Err(format!("`{name}` is not an axis: give one value"));
        }
        if alternatives.contains(&"") {
            return Err(format!("empty alternative in `{name}={value}`"));
        }
        // No value of a cell key depends on the topology, so any default
        // scenario serves to parse and re-render them.
        let mut cell = Scenario::mesh(2);
        let default = key.render(&cell, Form::Sweep).map(|(_, v)| v);
        let mut tokens = Vec::with_capacity(alternatives.len());
        for alternative in alternatives {
            (key.parse)(&mut cell, name, alternative)?;
            tokens.extend(key.render(&cell, Form::Sweep).map(|(_, v)| v));
        }
        let lone_default =
            !key.is_required() && tokens.len() == 1 && tokens.first() == default.as_ref();
        self.clauses[row] = if lone_default { Vec::new() } else { tokens };
        Ok(())
    }

    /// Number of cells the grid expands to (before validation).
    #[must_use]
    pub fn num_cells(&self) -> usize {
        match self.missing_axis() {
            Some(_) => 0,
            None => self.clauses.iter().map(|v| v.len().max(1)).product(),
        }
    }

    /// The first required axis the sweep does not give.
    fn missing_axis(&self) -> Option<&'static str> {
        let mut keys = KEYS.iter().zip(&self.clauses);
        keys.find(|(key, values)| key.is_required() && values.is_empty())
            .map(|(key, _)| key.names[0])
    }

    /// Expands the grid into concrete scenarios. Cells vary their axes in
    /// [`SWEEP_ORDER`] (`topo`, `load`, `router`, `traffic`, `faults`,
    /// `engine`), the last one fastest.
    ///
    /// Every cell gets a seed derived from the sweep seed and the cell's
    /// own parameters (see [`SweepSpec::cell_seed`]), so the expansion is a
    /// pure function of the spec — independent of execution order and
    /// thread count downstream.
    ///
    /// # Errors
    ///
    /// [`SweepError::EmptyAxis`] if a required axis or `reps` is empty,
    /// [`SweepError::InvalidCell`] if a cell fails [`Scenario::validate`]
    /// (e.g. a randomized router paired with a torus), and
    /// [`SweepError::DuplicateCell`] if two cells coincide.
    pub fn expand(&self) -> Result<Vec<Scenario>, SweepError> {
        if let Some(axis) = self.missing_axis() {
            return Err(SweepError::EmptyAxis(format!(
                "`{axis}` has no entries — a sweep needs at least one value per axis"
            )));
        }
        if self.reps == 0 {
            return Err(SweepError::EmptyAxis(format!(
                "`{}` is zero — a sweep needs at least one replication",
                spec::REPS.names[0]
            )));
        }
        let axes: Vec<(&SpecKey, &[String])> = SWEEP_ORDER
            .iter()
            .map(|key| (*key, self.clauses[spec::row(key)].as_slice()))
            .filter(|(_, values)| !values.is_empty())
            .collect();
        let mut cells = Vec::with_capacity(self.num_cells());
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut pick = vec![0; axes.len()];
        loop {
            // The `topo` axis comes first and replaces this placeholder
            // topology together with its default run length.
            let mut sc = Scenario::mesh(2);
            for ((key, values), &i) in axes.iter().zip(&pick) {
                (key.parse)(&mut sc, key.names[0], &values[i]).map_err(SweepError::InvalidCell)?;
            }
            // First validation catches unsupported combinations before
            // `cell_rho` resolves the load against them.
            let invalid =
                |sc: &Scenario, e| SweepError::InvalidCell(format!("`{}`: {e}", sc.spec_string()));
            sc.validate().map_err(|e| invalid(&sc, e))?;
            let (horizon, warmup) = self.horizon.resolve(cell_rho(&sc));
            sc = sc.horizon(horizon).warmup(warmup);
            sc.seed = self.cell_seed(&sc);
            sc.validate().map_err(|e| invalid(&sc, e))?;
            let spec = sc.spec_string();
            if !seen.insert(spec.clone()) {
                return Err(SweepError::DuplicateCell(format!(
                    "`{spec}` appears twice — deduplicate the axis lists"
                )));
            }
            cells.push(sc);
            let Some(axis) = (0..pick.len())
                .rev()
                .find(|&a| pick[a] + 1 < axes[a].1.len())
            else {
                return Ok(cells);
            };
            pick[axis] += 1;
            pick[axis + 1..].fill(0);
        }
    }

    /// The derived scenario seed of one cell: the sweep seed mixed (via
    /// FNV-1a and splitmix) with the cell's parameter string, so equal
    /// cells always get equal seeds and distinct cells get decorrelated
    /// streams.
    ///
    /// Only the cell's *physical* parameters feed the hash — its `seed`
    /// field is ignored, and so are its `engine` (cells differing only in
    /// shard count share a seed: an `engine=` axis is a wall-clock
    /// ablation)
    /// and its `probes` (telemetry reads state without perturbing it, so a
    /// probed sweep replays the exact sample paths of its unprobed twin).
    /// Re-deriving the seed of an already-expanded cell (e.g. one parsed
    /// back out of a sweep report) returns the value
    /// [`SweepSpec::expand`] assigned it.
    #[must_use]
    pub fn cell_seed(&self, cell: &Scenario) -> u64 {
        // Scenario spec strings omit the seed, engine and probes clauses
        // at their defaults, so clearing all three reproduces the
        // pre-seeding, engine-free, telemetry-free parameter string.
        let mut unseeded = cell.clone();
        unseeded.seed = DEFAULT_SEED;
        unseeded.engine = EngineSpec::Auto;
        unseeded.probes = None;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in unseeded.spec_string().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        splitmix64(self.seed ^ hash)
    }

    /// Parses the sweep grammar: whitespace-separated `key=value` clauses.
    ///
    /// Every clause is a scenario clause (see
    /// [`spec::KEYS`]), and each key may appear once.
    /// `topo=` (any scenario topology head) and `load=` are required; the
    /// axis keys `topo`, `load`, `router`, `traffic`, `faults` and
    /// `engine` take `|`-separated alternatives; `src`, `probes`,
    /// `service` and `saturated` take one value for every cell. Four keys
    /// belong to the sweep itself: `reps=<n>`, `seed=<master seed>`, and
    /// the horizon policy `horizon=<t> [warmup=<t>]` or
    /// `horizon=auto:<base>:<cap>`.
    ///
    /// ```text
    /// topo=mesh:5|mesh:10|torus:8 load=rho:0.2|util:0.9|lambda:0.1
    /// router=greedy|oddeven traffic=uniform|transpose|hotspot:0.2
    /// faults=none|links:0.05 engine=auto|sharded:2 probes=nsys,maxq@10
    /// src=hotspot:4 service=exp reps=2 seed=7 horizon=auto:1500:12000
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Parse`] for malformed input; expansion-time
    /// problems (empty axes, invalid or duplicate cells) surface from
    /// [`SweepSpec::expand`].
    pub fn parse(spec: &str) -> Result<Self, SweepError> {
        let bad = SweepError::Parse;
        let mut sweep = SweepSpec::new();
        let (mut horizon, mut warmup, mut seen) = (None, None, 0);
        for clause in spec.split_whitespace() {
            let (name, value) = clause
                .split_once('=')
                .ok_or_else(|| bad(format!("expected `key=value`, got `{clause}`")))?;
            let (row, key) = spec::claim(&mut seen, name).map_err(bad)?;
            match key.role {
                Role::ScenarioOnly => return Err(bad(format!("`{name}` is not a sweep key"))),
                Role::Reps => sweep.reps = spec::number(name, value).map_err(bad)?,
                Role::Seed => sweep.seed = spec::number(name, value).map_err(bad)?,
                Role::Horizon => horizon = Some(value),
                Role::Warmup => warmup = Some(value),
                _ => sweep.set_clause(row, name, value).map_err(bad)?,
            }
        }
        if let Some(axis) = sweep.missing_axis() {
            return Err(bad(format!("a sweep needs a `{axis}=` axis")));
        }
        sweep.horizon = HorizonPolicy::parse(horizon, warmup).map_err(bad)?;
        Ok(sweep)
    }

    /// Renders the sweep as a grammar string [`SweepSpec::parse`] accepts:
    /// the required axes and every non-default clause, in
    /// [`SWEEP_ORDER`].
    #[must_use]
    pub fn spec_string(&self) -> String {
        let mut clauses = Vec::new();
        for key in SWEEP_ORDER {
            let value = match key.role {
                Role::Reps => (self.reps != 1).then(|| self.reps.to_string()),
                Role::Seed => (self.seed != DEFAULT_SEED).then(|| self.seed.to_string()),
                Role::Horizon | Role::Warmup => self.horizon.token(key.role == Role::Warmup),
                _ => Some(self.clauses[spec::row(key)].join("|")).filter(|v| !v.is_empty()),
            };
            if let Some(value) = value {
                clauses.push(format!("{}={value}", key.names[0]));
            }
        }
        clauses.join(" ")
    }
}

/// The utilization the auto horizon policy scales by: the nominal load
/// value for `rho`/`util` conventions (what the paper's tables index by),
/// the exact peak utilization for raw-λ loads.
fn cell_rho(sc: &Scenario) -> f64 {
    match sc.load {
        Load::TableRho(v) | Load::Utilization(v) => v,
        Load::Lambda(_) => sc.peak_utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologySpec;
    use crate::traffic::PatternSpec;

    fn small() -> SweepSpec {
        SweepSpec::parse("topo=mesh:4|torus:4 load=rho:0.2|rho:0.8").unwrap()
    }

    fn with(extra: &str) -> SweepSpec {
        SweepSpec::parse(&format!("topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 {extra}")).unwrap()
    }

    #[test]
    fn expansion_counts_multiply_axes() {
        let sweep = small();
        assert_eq!(sweep.num_cells(), 4);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 4);
        // Topology-major order.
        assert_eq!(cells[0].topology, TopologySpec::Mesh { rows: 4, cols: 4 });
        assert_eq!(cells[1].topology, TopologySpec::Mesh { rows: 4, cols: 4 });
        assert_eq!(cells[2].topology, TopologySpec::Torus { n: 4 });
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut no_topo = SweepSpec::new();
        no_topo.set(&spec::LOAD, "lambda:0.1").unwrap();
        assert_eq!(no_topo.num_cells(), 0);
        assert!(matches!(no_topo.expand(), Err(SweepError::EmptyAxis(_))));
        assert!(matches!(
            SweepSpec::new().expand(),
            Err(SweepError::EmptyAxis(_))
        ));
        let mut no_reps = small();
        no_reps.reps = 0;
        assert!(matches!(no_reps.expand(), Err(SweepError::EmptyAxis(_))));
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let sweep = SweepSpec::parse("topo=mesh:4|torus:4 load=rho:0.5|rho:0.5").unwrap();
        assert!(matches!(sweep.expand(), Err(SweepError::DuplicateCell(_))));
    }

    #[test]
    fn invalid_cells_are_rejected_with_the_offending_spec() {
        match with("router=randomized").expand() {
            Err(SweepError::InvalidCell(msg)) => {
                assert!(msg.contains("torus"), "{msg}");
            }
            other => panic!("expected InvalidCell, got {other:?}"),
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = small().expand().unwrap();
        let b = small().expand().unwrap();
        let seeds: Vec<u64> = a.iter().map(|c| c.seed).collect();
        assert_eq!(seeds, b.iter().map(|c| c.seed).collect::<Vec<_>>());
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), seeds.len(), "cell seeds collide: {seeds:?}");
        // A different sweep seed moves every cell seed.
        let c = with("seed=99").expand().unwrap();
        assert!(c.iter().zip(&a).all(|(x, y)| x.seed != y.seed));
        // Re-deriving the seed of an already-seeded cell reproduces the
        // value expand() assigned (the seed field itself is not hashed).
        let sweep = small();
        for cell in &a {
            assert_eq!(sweep.cell_seed(cell), cell.seed, "{}", cell.spec_string());
        }
    }

    #[test]
    fn auto_horizon_grows_with_load_and_caps() {
        let sweep = with("horizon=auto:1000:20000");
        let cells = sweep.expand().unwrap();
        // ρ = 0.2 → 1250, ρ = 0.8 → 5000.
        assert!(cells[1].horizon > cells[0].horizon);
        assert!((cells[0].horizon - 1_250.0).abs() < 1e-9);
        assert!((cells[1].horizon - 5_000.0).abs() < 1e-9);
        assert!((cells[0].warmup - cells[0].horizon / 5.0).abs() < 1e-12);
    }

    #[test]
    fn engine_axis_cells_share_seeds_and_parameters() {
        let sweep = with("engine=auto|sharded:2");
        assert_eq!(sweep.num_cells(), 8);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 8);
        // Engine is the innermost axis; each adjacent pair differs only in
        // engine and shares the derived seed.
        for pair in cells.chunks(2) {
            assert_eq!(pair[0].engine, EngineSpec::Auto);
            assert_eq!(pair[1].engine, EngineSpec::Sharded { shards: 2 });
            assert_eq!(pair[0].seed, pair[1].seed, "{}", pair[0].spec_string());
            let mut a = pair[0].clone();
            a.engine = pair[1].engine;
            assert_eq!(a, pair[1]);
        }
    }

    #[test]
    fn grammar_round_trips() {
        for spec in [
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8",
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 engine=auto|sharded:2",
            // The sharded engine's count must survive the round trip
            // (`engine=sharded:4`, not a bare `engine=sharded`).
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 engine=sharded:1|sharded:4",
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 router=greedy|randomized reps=3 seed=42",
            "topo=hypercube:5 load=util:0.5|lambda:0.25 traffic=uniform|bernoulli:0.25 service=exp",
            "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 src=hotspot:4:0",
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 horizon=auto:1500:12000",
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 horizon=900 warmup=90 saturated=true",
        ] {
            let sweep = SweepSpec::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            assert_eq!(sweep.spec_string(), spec);
            assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
        }
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for spec in [
            "",
            "load=rho:0.5",
            "topo=mesh:5",
            "topo=mesh:5 load=rho",
            "topo=mesh:5 load=rho:0.5 load=rho:0.2",
            "topo=ring:8 load=rho:0.5",
            "topo=mesh:5 load=watts:0.5",
            "topo=mesh:5 load=rho:0.5 horizon=auto",
            "topo=mesh:5 load=rho:0.5 horizon=auto:100:200 warmup=10",
            "topo=mesh:5 load=rho:0.5 horizon=100 horizon=auto:100:200",
            "topo=mesh:5||torus:8 load=rho:0.5",
            "topo=mesh:5 load=rho:0.2|",
            "topo=mesh:5 load=rho:0.5 jobs=4",
            "topo=mesh:5 load=rho:0.5 reps=none",
            "topo=mesh:5 load=rho:0.5 engine=quantum",
            "topo=mesh:5 load=rho:0.5 engine=heap",
            "topo=mesh:5 load=rho:0.5 engine=auto|",
            "topo=mesh:5 load=rho:0.5 traffic=warp",
            "topo=mesh:5 load=rho:0.5 traffic=uniform dest=uniform",
            "topo=mesh:5 load=rho:0.5 dest=uniform",
            "topo=mesh:5 load=rho:0.5 src=rates",
            "topo=mesh:5 load=rho:0.5 src=uniform|hotspot:2",
            "topo=mesh:5 load=rho:0.5 slot=1",
            "topo=torus:4294967296 load=rho:0.5",
            "topo=mesh:4294967296 load=rho:0.5",
            "topo=mesh:4294967296x4294967296 load=rho:0.5",
            "topo=kd:65536x65536x65536x65536x65536 load=rho:0.5",
            "topo=hypercube:64 load=rho:0.5",
            "topo=butterfly:64 load=rho:0.5",
        ] {
            assert!(SweepSpec::parse(spec).is_err(), "`{spec}` should not parse");
        }
    }

    #[test]
    fn traffic_axis_expands_and_round_trips() {
        let sweep = SweepSpec::parse(
            "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 \
             horizon=400 warmup=40",
        )
        .unwrap();
        assert_eq!(sweep.num_cells(), 3);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].traffic.pattern, PatternSpec::Uniform);
        assert!(matches!(
            cells[1].traffic.pattern,
            PatternSpec::Permutation { .. }
        ));
        assert!(matches!(
            cells[2].traffic.pattern,
            PatternSpec::Hotspot { .. }
        ));
        // Every cell's spec string round-trips through Scenario::parse.
        for cell in &cells {
            let parsed = Scenario::parse(&cell.spec_string()).unwrap();
            assert_eq!(&parsed, cell, "{}", cell.spec_string());
        }
        // And the sweep grammar round-trips through its own spec string.
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
    }

    #[test]
    fn faults_axis_expands_and_round_trips() {
        let sweep = SweepSpec::parse(
            "topo=mesh:4 load=rho:0.2 faults=none|links:0.05|links:0.1+at:50+repair:100 \
             horizon=400 warmup=40",
        )
        .unwrap();
        assert_eq!(sweep.num_cells(), 3);
        let cells = sweep.expand().unwrap();
        assert_eq!(cells[0].faults, None);
        assert!(cells[1].faults.is_some());
        assert!(cells[2].faults.is_some());
        // Healthy and faulted cells differ in spec, so their derived
        // seeds decorrelate.
        assert_ne!(cells[0].seed, cells[1].seed);
        // Every cell spec round-trips through Scenario::parse, and the
        // sweep grammar through its own spec string.
        for cell in &cells {
            assert_eq!(&Scenario::parse(&cell.spec_string()).unwrap(), cell);
        }
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
        // A default (all-healthy) axis emits no faults clause.
        assert!(!small().spec_string().contains("faults"));
        assert_eq!(with("faults=none"), small());
        // Malformed fault tokens are parse errors; out-of-range rates
        // surface at expansion.
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 faults=warp:1").is_err());
        let bad_rate = SweepSpec::parse("topo=mesh:4 load=rho:0.2 faults=links:2.0").unwrap();
        assert!(matches!(bad_rate.expand(), Err(SweepError::InvalidCell(_))));
    }

    #[test]
    fn healthy_cell_seeds_are_unchanged_by_the_faults_axis_default() {
        // `faults` defaults to none, which must leave every pre-fault cell
        // spec string — and therefore every derived seed — untouched.
        let cells = small().expand().unwrap();
        for cell in &cells {
            assert!(
                !cell.spec_string().contains("faults"),
                "{}",
                cell.spec_string()
            );
        }
    }

    #[test]
    fn probes_clause_expands_and_round_trips() {
        let sweep = SweepSpec::parse(
            "topo=mesh:4 load=rho:0.2|rho:0.6 probes=nsys,maxq@10 horizon=400 warmup=40",
        )
        .unwrap();
        // The shared clause reaches every cell, and every cell spec
        // round-trips through Scenario::parse.
        let cells = sweep.expand().unwrap();
        let probes = cells[0].probes.unwrap();
        assert!(probes.nsys && probes.maxq && !probes.shards);
        assert_eq!(probes.every, Some(10.0));
        for cell in &cells {
            assert_eq!(cell.probes, Some(probes));
            assert!(cell.spec_string().contains("probes=nsys,maxq@10"));
            assert_eq!(&Scenario::parse(&cell.spec_string()).unwrap(), cell);
        }
        // The sweep grammar round-trips through its own spec string.
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
        // `probes=none` spells the default and emits no clause.
        let off =
            SweepSpec::parse("topo=mesh:4 load=rho:0.2|rho:0.6 probes=none horizon=400 warmup=40")
                .unwrap();
        assert!(off.expand().unwrap().iter().all(|c| c.probes.is_none()));
        assert!(!off.spec_string().contains("probes"));
        // Malformed probe tokens are parse errors.
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 probes=speed").is_err());
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 probes=nsys@0").is_err());
    }

    #[test]
    fn cell_seeds_are_unchanged_by_probes() {
        // Telemetry never changes the physics, so a probed sweep must
        // replay the exact sample paths — i.e. the exact cell seeds — of
        // its unprobed twin, and default cells carry no probes clause.
        let plain = small().expand().unwrap();
        let probed = with("probes=all").expand().unwrap();
        for (a, b) in plain.iter().zip(&probed) {
            assert_eq!(a.seed, b.seed, "{}", a.spec_string());
            assert!(!a.spec_string().contains("probes"));
            assert!(b.spec_string().contains("probes="));
        }
    }

    #[test]
    fn matrix_patterns_cannot_enter_a_sweep() {
        // A traffic matrix has no spec token, so no sweep can name one.
        assert!(SweepSpec::parse("topo=mesh:4 load=rho:0.2 traffic=matrix").is_err());
    }

    #[test]
    fn explicit_horizon_scales_the_default_warmup() {
        // `horizon=100` without `warmup=` must not keep the absolute
        // 200-unit default (which would invalidate every cell); the 1:10
        // ratio applies instead, and the result round-trips.
        let sweep = SweepSpec::parse("topo=mesh:4 load=rho:0.2 horizon=100").unwrap();
        assert_eq!(
            sweep.horizon,
            HorizonPolicy::Fixed {
                horizon: 100.0,
                warmup: 10.0
            }
        );
        assert!(sweep.expand().is_ok());
        assert_eq!(SweepSpec::parse(&sweep.spec_string()).unwrap(), sweep);
    }

    #[test]
    fn parsed_and_built_sweeps_expand_identically() {
        let parsed = SweepSpec::parse("topo=mesh:4|torus:4 load=rho:0.2|rho:0.8").unwrap();
        let mut built = SweepSpec::new();
        built.set(&spec::TOPO, "mesh:4|torus:4").unwrap();
        built.set(&spec::LOAD, "rho:0.2|rho:0.8").unwrap();
        built.set(&spec::ROUTER, "greedy").unwrap();
        assert_eq!(parsed, built);
        let a = parsed.expand().unwrap();
        let b = built.expand().unwrap();
        assert_eq!(a, b);
        // The sweep's own knobs are fields, not clauses.
        assert!(built.set(&spec::REPS, "2").is_err());
        assert!(built.set(&spec::SLOT, "1").is_err());
    }
}
