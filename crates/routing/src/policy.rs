//! The per-hop routing API: [`RoutingPolicy`], its [`LocalView`] of the
//! switch, and the [`SplitRouting`] hook the steady-state rate solver uses.
//!
//! [`Router`] bakes in oblivious routing: the route is a function of
//! `(source, destination, per-packet state)` fixed at generation time.
//! Adaptive disciplines — west-first and odd-even turn-model routing — pick
//! each hop from the congestion the packet *sees at the switch*, which a
//! pre-declared path cannot express. [`RoutingPolicy`] is that per-hop
//! surface: its core method is
//! [`next_hop`](RoutingPolicy::next_hop)`(topo, here, dst, state, local)`,
//! where `local` is the engine's live [`LocalView`] of per-output-port queue
//! occupancy.
//!
//! A blanket impl makes **every [`Router`] a [`RoutingPolicy`]** — oblivious
//! routers simply ignore the view — so the simulation engines consume the
//! per-hop API exclusively while `route()` survives as a provided
//! test/diagnostic method. Adaptive routers override the
//! [`Router::next_hop`] hook; their `next_edge` remains the *canonical*
//! (empty-network) choice, which is what route materialization and the
//! route-table builder see.
//!
//! # The `LocalView` contract
//!
//! `queue_len(e)` is the number of packets currently queued (or in service)
//! on edge `e`, where `e` is an out-edge of the node the deciding packet
//! occupies. Engines only guarantee occupancy for those local out-edges —
//! a policy must not query remote edges. The view is read at dequeue time,
//! so consecutive decisions at one switch see each other's effects.

use crate::router::Router;
use meshbound_topology::{EdgeId, NodeId, Topology};
use rand::rngs::SmallRng;

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

/// A per-hop routing discipline: given where a packet is and what it can
/// see locally, produce the next edge to cross.
///
/// This is the surface the simulation engines consume. Do **not** implement
/// it directly — implement [`Router`] (overriding
/// [`Router::next_hop`] for adaptive disciplines) and the blanket impl
/// makes the type a `RoutingPolicy` automatically.
pub trait RoutingPolicy<T: Topology> {
    /// Per-packet routing state, fixed at generation time.
    type State: Copy + Send + Sync + std::fmt::Debug;

    /// Draws the per-packet state for a new packet.
    fn init_state(&self, topo: &T, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> Self::State;

    /// The next edge a packet at `here` with destination `dst` crosses
    /// given the local congestion view, or `None` if it has arrived.
    fn next_hop(
        &self,
        topo: &T,
        here: NodeId,
        dst: NodeId,
        state: Self::State,
        local: &dyn LocalView,
    ) -> Option<EdgeId>;

    /// Number of edges the packet still has to cross from `here`
    /// (including the next one).
    fn remaining_hops(&self, topo: &T, here: NodeId, dst: NodeId, state: Self::State) -> usize;

    /// Total route length for a fresh packet.
    fn route_len(&self, topo: &T, src: NodeId, dst: NodeId, state: Self::State) -> usize;

    /// Whether `dst` is a valid destination for this policy.
    fn routes_to(&self, topo: &T, dst: NodeId) -> bool;

    /// Whether routes depend only on `(current node, destination)`, so
    /// that a packed [`crate::RouteTable`] can replay them. Adaptive
    /// policies must report `false`.
    fn is_route_deterministic(&self) -> bool;
}

impl<T: Topology, R: Router<T>> RoutingPolicy<T> for R {
    type State = R::State;

    #[inline]
    fn init_state(&self, topo: &T, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> Self::State {
        Router::init_state(self, topo, src, dst, rng)
    }

    #[inline]
    fn next_hop(
        &self,
        topo: &T,
        here: NodeId,
        dst: NodeId,
        state: Self::State,
        local: &dyn LocalView,
    ) -> Option<EdgeId> {
        Router::next_hop(self, topo, here, dst, state, local)
    }

    #[inline]
    fn remaining_hops(&self, topo: &T, here: NodeId, dst: NodeId, state: Self::State) -> usize {
        Router::remaining_hops(self, topo, here, dst, state)
    }

    #[inline]
    fn route_len(&self, topo: &T, src: NodeId, dst: NodeId, state: Self::State) -> usize {
        Router::route_len(self, topo, src, dst, state)
    }

    #[inline]
    fn routes_to(&self, topo: &T, dst: NodeId) -> bool {
        Router::routes_to(self, topo, dst)
    }

    #[inline]
    fn is_route_deterministic(&self) -> bool {
        Router::is_route_deterministic(self)
    }
}

/// Materializes the route a policy takes under a fixed view
/// (test/diagnostic use; simulation re-reads the live view each hop).
///
/// # Panics
///
/// Panics if the policy cycles (takes more hops than the topology has
/// edges).
pub fn policy_route<T: Topology, P: RoutingPolicy<T> + ?Sized>(
    policy: &P,
    topo: &T,
    src: NodeId,
    dst: NodeId,
    state: P::State,
    local: &dyn LocalView,
) -> Vec<EdgeId> {
    let mut out = Vec::new();
    let mut cur = src;
    while let Some(e) = policy.next_hop(topo, cur, dst, state, local) {
        out.push(e);
        cur = topo.edge_target(e);
        assert!(
            out.len() <= topo.num_edges(),
            "policy cycled between {src} and {dst}"
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
