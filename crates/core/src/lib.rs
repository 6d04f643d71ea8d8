//! # meshbound
//!
//! A library reproduction of Michael Mitzenmacher's *Bounds on the Greedy
//! Routing Algorithm for Array Networks* (SPAA 1994; JCSS 53:317–327, 1996).
//!
//! The paper studies dynamic packet routing on an `n × n` array: every node
//! generates packets as a Poisson process with rate λ, destinations are
//! uniform, and packets follow greedy (column-first) routes over directed
//! edges that each serve one packet per unit time, FIFO, with infinite
//! buffers. The paper's contributions — all implemented here — are:
//!
//! * an **upper bound** on the mean delay via comparison with the
//!   product-form processor-sharing/Jackson network (Theorems 1–7);
//! * a practical **M/D/1 independence approximation** (§4.2, Table I);
//! * a new **lower-bound technique** comparing against a "rushed" copy
//!   network (Theorems 10 and 12), sharpened in heavy traffic by counting
//!   only saturated edges (Theorem 14) so that upper and lower bounds are
//!   within ×3 (even `n`) or ×6 (odd `n`);
//! * applications to the **hypercube and butterfly** (§4.5);
//! * extensions: **optimal capacity allocation** with stability up to
//!   `6/(n+1)` (Theorem 15, §5.1), non-uniform destinations, slotted time,
//!   higher-dimensional meshes (§5.2).
//!
//! The public front door is the topology-generic [`Scenario`]: one builder
//! that names any topology the workspace knows (mesh, torus, hypercube,
//! butterfly, `k`-d mesh), its router and destination distribution, and a
//! load in any [`Load`] convention — then simulates it, replicates it, or
//! reports every closed-form bound at its operating point.
//!
//! ## Crate map
//!
//! | need | start at |
//! |------|----------|
//! | Simulate any topology | [`Scenario::run`], [`Scenario::run_replicated`] |
//! | Run a whole scenario grid in parallel | [`run_sweep`], [`SweepSpec`] |
//! | All bounds for a scenario | [`BoundsReport::compute_for`] |
//! | Mesh shorthand for one `(n, load)` | [`BoundsReport::compute`] |
//! | Name a scenario on a command line | [`Scenario::parse`] |
//! | Regenerate a paper table/figure | [`experiments`] |
//! | Topologies / routers / formulas | [`topology`], [`routing`], [`queueing`] |
//! | The PS and copy comparison networks | [`Scenario::run_ps`], [`Scenario::run_copies`] |
//!
//! ## Quickstart
//!
//! ```
//! use meshbound::{BoundsReport, Load, Scenario};
//!
//! // Any topology through one entry point: simulate an 8×8 torus with
//! // every edge at 40% utilization, next to its analytic report.
//! let scenario = Scenario::torus(8).load(Load::Utilization(0.4)).seed(7);
//! let result = scenario.run();
//! let report = BoundsReport::compute_for(&scenario);
//! assert!(report.lower_best <= result.avg_delay * 1.2);
//!
//! // The square-mesh shorthand: all analytic quantities for a 10×10 array
//! // at 80% load.
//! let report = BoundsReport::compute(10, Load::TableRho(0.8));
//! assert!(report.lower_best <= report.upper);
//! assert!(report.upper > 20.0 && report.upper < 25.0);
//! println!("{}", report.to_text());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod report;
pub mod sweep;

pub use meshbound_queueing::load::Load;
pub use meshbound_sim::{
    set_progress_sink, DropCause, DropCounts, EngineSpec, FaultSpec, HorizonPolicy, PatternSpec,
    PermutationKind, ProbeSpec, ProgressFn, RouterSpec, Scenario, ScenarioError, SourceSpec,
    SweepError, SweepSpec, TelemetryReport, TopologySpec, TrafficSpec, TELEMETRY_SCHEMA,
};
pub use report::{BoundsReport, DegradationReport};
pub use sweep::{run_cells, run_sweep, BoundsCheck, Jobs, SweepCellReport, SweepReport};

/// Re-export of the topology crate (array, torus, hypercube, butterfly…).
pub mod topology {
    pub use meshbound_topology::*;
}

/// Re-export of the routing crate (greedy variants, destinations, rates).
pub mod routing {
    pub use meshbound_routing::*;
    pub use meshbound_routing::{dest, lemma3, rates};
}

/// Re-export of the queueing analytics crate (bounds, capacity, remaining).
pub mod queueing {
    pub use meshbound_queueing::*;
    pub use meshbound_queueing::{bounds, capacity, jackson, little, load, remaining, single};
}

/// Re-export of the statistics crate.
pub mod stats {
    pub use meshbound_stats::*;
}

/// Re-export of the simulator crate.
pub mod sim {
    pub use meshbound_sim::*;
    pub use meshbound_sim::{copysys, network, ps, runner, scenario};
}
