//! The per-hop routing surface: the [`LocalView`] of the switch that
//! [`Router::next_hop`] and [`Router::route_outcome`] read, and the
//! [`SplitRouting`] hook the steady-state rate solver uses.
//!
//! A pre-declared path — a function of `(source, destination, per-packet
//! state)` fixed at generation time — expresses oblivious routing only.
//! Adaptive disciplines — west-first and odd-even turn-model routing — pick
//! each hop from the congestion the packet *sees at the switch*, so the
//! engines route hop by hop: at every dequeue they call
//! [`Router::route_outcome`]`(topo, here, dst, state, local)`, where
//! `local` is their live [`LocalView`] of per-output-port queue occupancy.
//! Oblivious routers ignore the view; adaptive routers override the
//! [`Router::next_hop`] hook, and their `next_edge` remains the
//! *canonical* (empty-network) choice, which is what route materialization
//! and the route-table builder see.
//!
//! # The `LocalView` contract
//!
//! `queue_len(e)` is the number of packets currently queued (or in service)
//! on edge `e`, where `e` is an out-edge of the node the deciding packet
//! occupies. Engines only guarantee occupancy for those local out-edges —
//! a router must not query remote edges. The view is read at dequeue time,
//! so consecutive decisions at one switch see each other's effects.

use crate::router::Router;
use meshbound_topology::{EdgeId, NodeId, Topology};

/// What a packet can see when it picks its next hop: the occupancy of the
/// output queues at the switch it currently occupies.
///
/// Implemented by the engines over their live edge state; [`ZeroView`] is
/// the canonical empty-network view used outside simulation.
pub trait LocalView {
    /// Number of packets queued or in service on out-edge `e` of the
    /// deciding packet's current node. Querying a non-local edge is
    /// unspecified (engines may panic or return garbage).
    fn queue_len(&self, e: EdgeId) -> u32;

    /// Whether out-edge `e` is currently alive. Engines simulating a
    /// fault schedule override this with the run's liveness mask; the
    /// default (always live) keeps every pre-fault view — and therefore
    /// every healthy simulation — bit-identical.
    fn is_live(&self, _e: EdgeId) -> bool {
        true
    }
}

/// The empty-network view: every queue reports zero occupancy.
///
/// Under `ZeroView` an adaptive router always takes its canonical
/// tie-break, so `next_hop` coincides with [`Router::next_edge`]. Route
/// materialization, rate solving and tests use this view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroView;

impl LocalView for ZeroView {
    #[inline]
    fn queue_len(&self, _: EdgeId) -> u32 {
        0
    }
}

/// Materializes the route a router takes under a fixed view, hop by hop
/// through [`Router::next_hop`] (test/diagnostic use; simulation re-reads
/// the live view each hop).
///
/// # Panics
///
/// Panics if the router cycles (takes more hops than the topology has
/// edges).
pub fn policy_route<T: Topology, R: Router<T> + ?Sized>(
    router: &R,
    topo: &T,
    src: NodeId,
    dst: NodeId,
    state: R::State,
    local: &dyn LocalView,
) -> Vec<EdgeId> {
    let mut out = Vec::new();
    let mut cur = src;
    while let Some(e) = router.next_hop(topo, cur, dst, state, local) {
        out.push(e);
        cur = topo.edge_target(e);
        assert!(
            out.len() <= topo.num_edges(),
            "router cycled between {src} and {dst}"
        );
    }
    out
}

/// The steady-state branching model of a router, for the fixed-point rate
/// solver ([`crate::traffic::adaptive_edge_rates`]).
///
/// `splits(topo, prev, here, dst)` returns the `(edge, probability)` pairs
/// a packet headed for `dst` takes out of `here`, given the edge it
/// arrived on (`None` at the source). Probabilities must sum to 1 unless
/// `here == dst` (empty). For adaptive routers this is a *model* — the
/// conventional equal-split assumption over the permitted productive hops —
/// not the exact queue-dependent law; for oblivious routers it reproduces
/// the path-enumeration rates exactly.
pub trait SplitRouting<T: Topology> {
    /// Branching probabilities out of `here` toward `dst`, arriving on
    /// `prev` (`None` at the source).
    fn splits(
        &self,
        topo: &T,
        prev: Option<EdgeId>,
        here: NodeId,
        dst: NodeId,
    ) -> Vec<(EdgeId, f64)>;
}
