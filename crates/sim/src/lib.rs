//! Discrete-event, packet-level simulation of greedy routing networks.
//!
//! This crate is the measurement instrument of the `meshbound` workspace: it
//! simulates the paper's standard model — Poisson arrivals at every node,
//! uniform destinations, greedy routing, FIFO edges with unit transmission
//! time and infinite buffers — as well as every variant the paper analyzes:
//!
//! * **Jackson mode** (exponential transmission times, §3.3) and
//!   **processor-sharing mode** (the Theorem 1/5 comparison system, [`ps`]);
//! * the **copy/"rushed" reference system** of Theorem 10 ([`copysys`]);
//! * **variable per-edge service rates** for the §5.1 capacity experiments;
//! * **slotted time** with batch Poisson arrivals (§5.2);
//! * alternative topologies (torus, hypercube, butterfly, `k`-d meshes) and
//!   routers (randomized greedy).
//!
//! The front door is the topology-generic [`Scenario`] in [`scenario`]: it
//! names the topology, router, workload ([`TrafficSpec`]: source model +
//! destination model — uniform, nearby, Bernoulli, the classic address
//! permutations, hotspots, explicit traffic matrices) and load in any
//! [`Load`] convention, runs single simulations ([`Scenario::run`]) or
//! Rayon-parallel replications ([`Scenario::run_replicated`]), and parses
//! compact command-line specs ([`Scenario::parse`]). One key table,
//! [`spec::KEYS`], defines that grammar and the sweep grammar of
//! [`SweepSpec`], whose values may list `a|b` alternatives. Simulations are
//! deterministic given a seed. The one engine, in [`shard`], runs a
//! scenario on one node shard (`engine=auto`) or, as a conservative
//! parallel DES, across `N` threads (`sharded:<N>`) with
//! per-`(seed, shards)` determinism.
//!
//! # Quickstart
//!
//! ```
//! use meshbound_sim::{Load, Scenario};
//!
//! let result = Scenario::mesh(5)
//!     .load(Load::TableRho(0.2)) // λ = 4ρ/n = 0.16
//!     .run();
//! assert!(result.avg_delay > 3.0 && result.avg_delay < 4.5);
//!
//! // Any other topology through the same entry point:
//! let torus = Scenario::parse("torus:6,util=0.5,horizon=1000").unwrap().run();
//! assert!(torus.completed > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod copysys;
pub mod engine;
pub mod events;
pub mod fault;
pub mod network;
pub mod observer;
pub mod ps;
pub mod queue_sim;
pub mod rng;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod shard;
pub mod spec;
pub mod sweep;
pub mod telemetry;
pub mod traffic;

pub use engine::EngineSpec;
pub use fault::{DropCause, DropCounts, FaultPlan, FaultSpec};
pub use meshbound_queueing::load::Load;
pub use meshbound_routing::pattern::PermutationKind;
pub use network::{EdgeThroughputStats, NetworkSim, SimError, SimResult};
pub use runner::ReplicatedResult;
pub use scenario::{RouterSpec, Scenario, ScenarioError, TopologySpec};
pub use service::ServiceKind;
pub use sweep::{HorizonPolicy, SweepError, SweepSpec};
pub use telemetry::{
    set_progress_sink, ProbeSpec, ProgressFn, SeriesReport, TelemetryReport, TELEMETRY_SCHEMA,
};
pub use traffic::{PatternSpec, SourceSpec, TrafficSpec};
