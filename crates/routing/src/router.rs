//! The [`Router`] and [`ObliviousRouter`] traits.

use crate::policy::LocalView;
use meshbound_topology::{EdgeId, NodeId, Topology};
use rand::rngs::SmallRng;

/// The typed result of a fault-aware per-hop decision
/// ([`Router::route_outcome`]).
///
/// On a healthy topology every outcome is `Forward`; the failure variants
/// exist so engines can *account* for unroutable packets (drops by cause)
/// instead of aborting the run. They are also the structural home for the
/// geo-routing semantics the ring/small-world roadmap item needs: a
/// distance-greedy router on an augmented ring fails in exactly these two
/// ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteOutcome {
    /// Cross this edge next.
    Forward(EdgeId),
    /// No live out-edge leaves the current node (or the router has no hop
    /// at all for this destination — a contract violation when the
    /// topology is healthy).
    DeadEnd,
    /// Live out-edges exist, but none makes progress toward the
    /// destination: the packet is stuck in a local minimum of the
    /// router's distance function.
    LocalMinimum,
}

/// An incremental router: given a packet's current node, destination and
/// per-packet state, produce the next edge to cross.
///
/// Routers are *incremental* so the simulator's hot loop never materializes
/// route vectors: greedy routing is Markovian (Corollary 4 of the paper), so
/// the next hop is a function of the current position and a few bits of
/// per-packet state (e.g. the coin flip of randomized greedy).
pub trait Router<T: Topology> {
    /// Per-packet routing state, fixed at generation time.
    type State: Copy + Send + Sync + std::fmt::Debug;

    /// Draws the per-packet state for a new packet (e.g. randomized greedy's
    /// ordering coin). Deterministic routers return a unit-like state.
    fn init_state(&self, topo: &T, src: NodeId, dst: NodeId, rng: &mut SmallRng) -> Self::State;

    /// The next edge a packet at `cur` with destination `dst` crosses, or
    /// `None` if it has arrived.
    fn next_edge(&self, topo: &T, cur: NodeId, dst: NodeId, state: Self::State) -> Option<EdgeId>;

    /// The per-hop decision with a live congestion view, which
    /// [`Router::route_outcome`] consults at every hop of a simulation.
    ///
    /// The default ignores the view and forwards to [`Router::next_edge`],
    /// which keeps every oblivious router bit-identical to the
    /// pre-declared-path semantics. Adaptive routers override this to pick
    /// the least-occupied permitted productive hop; their `next_edge`
    /// remains the canonical ([`crate::ZeroView`]) choice.
    fn next_hop(
        &self,
        topo: &T,
        here: NodeId,
        dst: NodeId,
        state: Self::State,
        _local: &dyn LocalView,
    ) -> Option<EdgeId> {
        self.next_edge(topo, here, dst, state)
    }

    /// The fault-aware per-hop decision: like [`Router::next_hop`], but
    /// consulting the view's link liveness ([`LocalView::is_live`]) and
    /// returning a typed [`RouteOutcome`] instead of an `Option`.
    ///
    /// The provided implementation first asks `next_hop`; a live preferred
    /// edge forwards unchanged, so under an all-live view the outcome is
    /// bit-identical to the classic path. When the preferred edge is dead
    /// the router detours deterministically: it scans the node's out-edges
    /// in edge order and takes the first *live productive* one (strictly
    /// decreasing [`Router::remaining_hops`]). With live edges but no
    /// productive one the packet is at a [`RouteOutcome::LocalMinimum`];
    /// with no live out-edge at all (or no `next_hop` despite
    /// `here != dst`) it is at a [`RouteOutcome::DeadEnd`].
    #[inline]
    fn route_outcome(
        &self,
        topo: &T,
        here: NodeId,
        dst: NodeId,
        state: Self::State,
        local: &dyn LocalView,
    ) -> RouteOutcome {
        let want = self.next_hop(topo, here, dst, state, local);
        if let Some(e) = want {
            if local.is_live(e) {
                return RouteOutcome::Forward(e);
            }
        } else {
            // The router has no hop for this pair at all — a healthy-
            // topology contract violation, not a congestion condition, so
            // no detour scan applies.
            return RouteOutcome::DeadEnd;
        }
        let here_hops = self.remaining_hops(topo, here, dst, state);
        let mut any_live = false;
        for e in topo.out_edges(here) {
            if !local.is_live(e) {
                continue;
            }
            any_live = true;
            if self.remaining_hops(topo, topo.edge_target(e), dst, state) < here_hops {
                return RouteOutcome::Forward(e);
            }
        }
        if any_live {
            RouteOutcome::LocalMinimum
        } else {
            RouteOutcome::DeadEnd
        }
    }

    /// Number of edges the packet still has to cross from `cur` (including
    /// the next one), i.e. the "remaining distance" of Definition 11.
    fn remaining_hops(&self, topo: &T, cur: NodeId, dst: NodeId, state: Self::State) -> usize;

    /// Total route length for a fresh packet.
    fn route_len(&self, topo: &T, src: NodeId, dst: NodeId, state: Self::State) -> usize {
        self.remaining_hops(topo, src, dst, state)
    }

    /// Whether `dst` is a valid destination for this router. Most routers
    /// are total (`true` for every node); the butterfly only routes toward
    /// output-level nodes. Precomputation ([`crate::RouteTable`]) skips
    /// invalid destinations.
    fn routes_to(&self, _topo: &T, _dst: NodeId) -> bool {
        true
    }

    /// Whether routes depend only on `(current node, destination)` —
    /// i.e. the per-packet state and the RNG can never influence
    /// [`Router::next_edge`] or [`Router::remaining_hops`], and
    /// [`Router::init_state`] draws nothing from its RNG.
    ///
    /// Routers that uphold this contract can be compiled into a
    /// precomputed [`crate::RouteTable`]. The simulator itself always
    /// routes on the fly, so the flag gates no engine path; the
    /// conservative default is `false`.
    fn is_route_deterministic(&self) -> bool {
        false
    }

    /// Materializes the full route (test/diagnostic use only; simulation
    /// never calls this).
    fn route(&self, topo: &T, src: NodeId, dst: NodeId, state: Self::State) -> Vec<EdgeId> {
        let mut out = Vec::new();
        let mut cur = src;
        while let Some(e) = self.next_edge(topo, cur, dst, state) {
            out.push(e);
            cur = topo.edge_target(e);
            assert!(
                out.len() <= topo.num_edges(),
                "router cycled between {src} and {dst}"
            );
        }
        out
    }
}

/// A router whose path distribution for each source/destination pair is
/// fixed in advance (independent of network state).
///
/// Oblivious routers admit *exact* per-edge arrival-rate computation by path
/// enumeration (see [`crate::rates`]); both greedy and randomized greedy are
/// oblivious.
pub trait ObliviousRouter<T: Topology> {
    /// Enumerates the `(probability, path)` pairs for a source/destination
    /// pair. Probabilities must sum to 1; the path for `src == dst` is empty.
    fn paths(&self, topo: &T, src: NodeId, dst: NodeId) -> Vec<(f64, Vec<EdgeId>)>;
}
