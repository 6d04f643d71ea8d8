//! Precomputed next-hop route tables.
//!
//! Greedy routing is Markovian (Corollary 4): the next hop is a pure
//! function of `(current node, destination)` for every deterministic router
//! in this crate. A [`RouteTable`] materializes that function — plus route
//! lengths and edge targets — into flat arrays, so a route step or a route
//! length is a single array read. The simulator routes on the fly and does
//! not build tables; they serve analysis code and per-hop cost
//! measurements.
//!
//! Tables are only valid for routers whose
//! [`Router::is_route_deterministic`] contract holds (per-packet state and
//! RNG never influence the path).

use crate::router::Router;
use meshbound_topology::{EdgeId, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Sentinel marking "no next edge" (the packet is at its destination).
const NO_EDGE: u32 = 0xFFFF;

/// Flat next-hop, distance and edge-target tables for one
/// `(topology, router)` pair.
///
/// Storage is one packed `u32` per `(node, destination)` pair — next edge
/// in the low 16 bits, route length in the high 16 — plus one `u32` per
/// edge, so a 20×20 mesh's full table is ~640 KiB and an injection fetches
/// next hop *and* distance with a single load. Build cost is `O(nodes²)`
/// router queries. The 16-bit packing caps eligible topologies at 65534
/// edges (`RouteTable::fits` checks).
///
/// # Examples
///
/// ```
/// use meshbound_routing::{GreedyXY, RouteTable, Router};
/// use meshbound_topology::{Mesh2D, Topology};
///
/// let mesh = Mesh2D::square(4);
/// let table = RouteTable::build(&mesh, &GreedyXY);
/// let (src, dst) = (mesh.node(3, 0), mesh.node(0, 2));
/// assert_eq!(table.dist(src, dst), mesh.manhattan(src, dst));
///
/// // The table replays exactly the router's route, one read per hop.
/// let mut cur = src;
/// let mut hops = 0;
/// while cur != dst {
///     let e = table.next_edge(cur, dst);
///     assert_eq!(Some(e), GreedyXY.next_edge(&mesh, cur, dst, ()));
///     cur = table.edge_target(e);
///     hops += 1;
/// }
/// assert_eq!(hops, table.dist(src, dst));
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    nodes: usize,
    /// `cells[cur * nodes + dst]`: next edge id in the low 16 bits
    /// (`NO_EDGE` when `cur == dst` or the pair is invalid), route length
    /// in hops in the high 16 bits.
    cells: Vec<u32>,
    /// `edge_target[edge]`: the node an edge leads to.
    edge_target: Vec<u32>,
}

impl RouteTable {
    /// Whether a topology's identifiers fit the packed 16-bit layout:
    /// fewer than 65535 edges and every route shorter than 65536 hops
    /// (route length is bounded by the edge count).
    #[must_use]
    pub fn fits<T: Topology>(topo: &T) -> bool {
        topo.num_edges() < NO_EDGE as usize
    }

    /// Builds the table by querying `router` for every
    /// `(node, destination)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `router` does not declare
    /// [`Router::is_route_deterministic`] — a state- or RNG-dependent
    /// route cannot be tabulated — or if the topology fails
    /// [`RouteTable::fits`].
    #[must_use]
    pub fn build<T, R>(topo: &T, router: &R) -> Self
    where
        T: Topology,
        R: Router<T>,
    {
        assert!(
            router.is_route_deterministic(),
            "route tables require a deterministic router"
        );
        assert!(Self::fits(topo), "topology exceeds the 16-bit table layout");
        let nodes = topo.num_nodes();
        // Fill by memoized route walking: one `next_edge` query per cell,
        // distances by dynamic programming on the unwind (each cell is one
        // hop more than its successor), so the build never calls
        // `remaining_hops`. `UNKNOWN` marks unfilled cells; it cannot
        // collide with a real cell, whose distance is below the edge count
        // and therefore below 0xFFFF.
        const UNKNOWN: u32 = u32::MAX;
        let mut cells = vec![UNKNOWN; nodes * nodes];
        // The deterministic contract guarantees the state (and this
        // throwaway RNG) cannot influence the route.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut stack: Vec<(usize, u32)> = Vec::new();
        for dst in topo.nodes() {
            // Partial routers (the butterfly routes only to output nodes)
            // leave invalid destination columns at the `NO_EDGE` sentinel;
            // the simulator never draws such destinations.
            if !router.routes_to(topo, dst) {
                continue;
            }
            let di = dst.index();
            cells[di * nodes + di] = NO_EDGE; // distance 0, no next edge
            for src in topo.nodes() {
                let mut cur = src;
                while cells[cur.index() * nodes + di] == UNKNOWN {
                    let state = router.init_state(topo, cur, dst, &mut rng);
                    match router.next_edge(topo, cur, dst, state) {
                        Some(e) => {
                            stack.push((cur.index(), e.0));
                            cur = topo.edge_target(e);
                        }
                        None => {
                            // Dead end: a pair no real route visits (a
                            // partial router like the butterfly routes
                            // correctly only from cells reachable off
                            // level-0 sources).
                            cells[cur.index() * nodes + di] = NO_EDGE;
                            break;
                        }
                    }
                }
                let mut hops = cells[cur.index() * nodes + di] >> 16;
                while let Some((c, e)) = stack.pop() {
                    hops += 1;
                    debug_assert!(hops <= 0xFFFF, "route longer than the 16-bit layout");
                    cells[c * nodes + di] = (hops << 16) | e;
                }
            }
        }
        for cell in &mut cells {
            if *cell == UNKNOWN {
                *cell = NO_EDGE;
            }
        }
        let edge_target = topo.edges().map(|e| topo.edge_target(e).0).collect();
        Self {
            nodes,
            cells,
            edge_target,
        }
    }

    /// Number of nodes the table covers.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Raw packed cell (next edge low, distance high).
    #[inline]
    fn cell(&self, cur: NodeId, dst: NodeId) -> u32 {
        self.cells[cur.index() * self.nodes + dst.index()]
    }

    /// The next edge a packet at `cur` headed for `dst` crosses.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `cur == dst` — arrival is checked
    /// before routing on the hot path.
    #[inline]
    #[must_use]
    pub fn next_edge(&self, cur: NodeId, dst: NodeId) -> EdgeId {
        let e = self.cell(cur, dst) & 0xFFFF;
        debug_assert_ne!(e, NO_EDGE, "no next edge: packet already at {dst}");
        EdgeId(e)
    }

    /// Route length in hops from `src` to `dst` (0 when equal).
    #[inline]
    #[must_use]
    pub fn dist(&self, src: NodeId, dst: NodeId) -> usize {
        (self.cell(src, dst) >> 16) as usize
    }

    /// Next edge and route length with a single table load — the
    /// injection fast path.
    #[inline]
    #[must_use]
    pub fn next_and_dist(&self, src: NodeId, dst: NodeId) -> (EdgeId, usize) {
        let cell = self.cell(src, dst);
        (EdgeId(cell & 0xFFFF), (cell >> 16) as usize)
    }

    /// The node `e` leads to.
    #[inline]
    #[must_use]
    pub fn edge_target(&self, e: EdgeId) -> NodeId {
        NodeId(self.edge_target[e.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ButterflyRouter, DimOrder, GreedyXY, KdGreedy, TorusGreedy};
    use meshbound_topology::{Butterfly, Hypercube, Mesh2D, MeshKD, Torus2D};

    /// Replays every pair through the table and the router side by side.
    fn check_agreement<T, R>(topo: &T, router: &R)
    where
        T: Topology,
        R: Router<T, State = ()>,
    {
        let table = RouteTable::build(topo, router);
        for src in topo.nodes() {
            for dst in topo.nodes() {
                assert_eq!(
                    table.dist(src, dst),
                    router.route_len(topo, src, dst, ()),
                    "dist mismatch {src}->{dst}"
                );
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    let e = table.next_edge(cur, dst);
                    assert_eq!(
                        Some(e),
                        router.next_edge(topo, cur, dst, ()),
                        "next-edge mismatch at {cur} headed {dst}"
                    );
                    assert_eq!(table.edge_target(e), topo.edge_target(e));
                    cur = table.edge_target(e);
                    hops += 1;
                    assert!(hops <= topo.num_edges(), "table cycled {src}->{dst}");
                }
                assert_eq!(hops, table.dist(src, dst));
            }
        }
    }

    #[test]
    fn tables_agree_with_routers_on_every_topology() {
        check_agreement(&Mesh2D::square(4), &GreedyXY);
        check_agreement(&Mesh2D::rect(3, 5), &GreedyXY);
        check_agreement(&Torus2D::new(5), &TorusGreedy);
        check_agreement(&Hypercube::new(4), &DimOrder);
        check_agreement(&MeshKD::new(&[3, 3, 3]), &KdGreedy);
    }

    #[test]
    fn butterfly_table_agrees_on_output_destinations() {
        let b = Butterfly::new(3);
        let table = RouteTable::build(&b, &ButterflyRouter);
        for s in 0..b.rows() {
            for o in 0..b.rows() {
                let (src, dst) = (b.node(0, s), b.node(3, o));
                assert_eq!(table.dist(src, dst), 3);
                let mut cur = src;
                while cur != dst {
                    let e = table.next_edge(cur, dst);
                    assert_eq!(Some(e), ButterflyRouter.next_edge(&b, cur, dst, ()));
                    cur = table.edge_target(e);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "deterministic router")]
    fn randomized_routers_are_rejected() {
        let mesh = Mesh2D::square(3);
        let _ = RouteTable::build(&mesh, &crate::RandomizedGreedy);
    }
}
