//! Routing algorithms and traffic characterization for `meshbound`.
//!
//! The paper's routing discipline is **greedy routing**: a packet first moves
//! along row edges to its destination column, then along column edges to its
//! destination row ([`GreedyXY`]). This crate also implements the variants
//! the paper discusses:
//!
//! * [`RandomizedGreedy`] — §6's randomized variant that flips a coin between
//!   row-first and column-first order;
//! * [`TorusGreedy`] — greedy routing with wraparound on the torus (§6);
//! * [`DimOrder`] — canonical dimension-order routing on the hypercube (§4.5);
//! * [`ButterflyRouter`] — the unique-path butterfly routing (§4.5);
//! * [`KdGreedy`] — axis-by-axis greedy routing on `k`-dimensional meshes
//!   (§5.2).
//!
//! Beyond the paper's oblivious schemes, the [`policy`] module defines the
//! per-hop [`RoutingPolicy`] API (every [`Router`] is one via a blanket
//! impl) under which [`WestFirst`] and [`OddEven`] implement turn-model
//! **adaptive** routing on the mesh and torus; their steady-state edge
//! rates come from the fixed-point solver
//! [`adaptive_edge_rates`] instead of path
//! enumeration.
//!
//! Destination distributions live in [`dest`]: uniform (the standard model),
//! the hypercube's Bernoulli-`p` distribution, and the §5.2 "nearby" walk
//! distribution. The [`lemma3`] module implements the Markov chain of
//! Lemma 3 that realizes the uniform destination distribution as a
//! memoryless stopping process, and [`rates`] computes exact per-edge
//! arrival rates (Theorem 6's closed form plus a path-enumeration method
//! that works for every oblivious router and destination distribution).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod butterfly;
pub mod dest;
pub mod greedy;
mod grid;
pub mod hypercube;
pub mod kd;
pub mod lemma3;
pub mod oddeven;
pub mod pattern;
pub mod policy;
pub mod randomized;
pub mod rates;
pub mod router;
pub mod table;
pub mod torus;
pub mod traffic;
pub mod westfirst;

pub use butterfly::ButterflyRouter;
pub use dest::DestSupport;
pub use greedy::GreedyXY;
pub use hypercube::DimOrder;
pub use kd::KdGreedy;
pub use oddeven::OddEven;
pub use pattern::{
    GenericDest, HotspotDest, MatrixDest, PatternTopology, PermutationDest, PermutationKind,
};
pub use policy::{policy_route, LocalView, RoutingPolicy, SplitRouting, ZeroView};
pub use randomized::{Order, RandomizedGreedy};
pub use router::{ObliviousRouter, RouteOutcome, Router};
pub use table::RouteTable;
pub use torus::TorusGreedy;
pub use traffic::{
    adaptive_edge_rates, try_traffic_fixed_point, MarkovRouting, TrafficConvergenceError,
};
pub use westfirst::WestFirst;
