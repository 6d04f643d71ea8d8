//! Node partitioning for the sharded parallel-DES engine.
//!
//! A [`Partition`] splits a topology's nodes into `k` contiguous,
//! balanced blocks (shards) and precomputes everything a conservative
//! parallel simulator needs: the owning shard of every node and edge
//! (an edge belongs to the shard of its **source** node, so enqueues
//! are always shard-local), compact per-shard edge indices for dense
//! per-shard state arrays, and the list of *cut edges* — edges whose
//! target lives in a different shard, which are the only places
//! cross-shard communication happens.
//!
//! The block assignment `shard(i) = i·k / n` is a pure function of
//! `(num_nodes, k)`: the same topology partitioned twice yields the
//! same partition, which the sharded engine's determinism contract
//! relies on.

use crate::ids::{EdgeId, NodeId};
use crate::traits::Topology;

/// A contiguous balanced node partition with edge ownership and
/// cut-edge data precomputed.
#[derive(Debug, Clone)]
pub struct Partition {
    shards: usize,
    /// The three lookup maps are empty when `shards == 1`; the accessors
    /// answer the identity directly.
    node_shard: Vec<u32>,
    edge_shard: Vec<u32>,
    /// Dense per-shard edge index: `edge_local[e]` is `e`'s position
    /// among the edges owned by `edge_shard[e]`, in global edge order.
    edge_local: Vec<u32>,
    shard_edge_counts: Vec<usize>,
    shard_nodes: Vec<Vec<NodeId>>,
    cut_edges: Vec<EdgeId>,
}

impl Partition {
    /// Partitions `topo` into (at most) `shards` contiguous node
    /// blocks. The effective shard count is clamped to
    /// `[1, num_nodes]`; block sizes differ by at most one node.
    #[must_use]
    pub fn contiguous<T: Topology + ?Sized>(topo: &T, shards: usize) -> Self {
        let n = topo.num_nodes();
        let k = shards.clamp(1, n.max(1));
        if k == 1 {
            // One block: every lookup below is the identity, so store no
            // per-node or per-edge maps (they would cost 8 bytes per edge
            // on single-shard runs at million-node scale).
            return Partition {
                shards: 1,
                node_shard: Vec::new(),
                edge_shard: Vec::new(),
                edge_local: Vec::new(),
                shard_edge_counts: vec![topo.num_edges()],
                shard_nodes: vec![topo.nodes().collect()],
                cut_edges: Vec::new(),
            };
        }
        let node_shard: Vec<u32> = (0..n).map(|i| ((i * k) / n.max(1)) as u32).collect();
        let mut edge_shard = vec![0u32; topo.num_edges()];
        let mut edge_local = vec![0u32; topo.num_edges()];
        let mut shard_edge_counts = vec![0usize; k];
        let mut cut_edges = Vec::new();
        for e in topo.edges() {
            let s = node_shard[topo.edge_source(e).index()];
            edge_shard[e.index()] = s;
            edge_local[e.index()] = shard_edge_counts[s as usize] as u32;
            shard_edge_counts[s as usize] += 1;
            if node_shard[topo.edge_target(e).index()] != s {
                cut_edges.push(e);
            }
        }
        let mut shard_nodes = vec![Vec::new(); k];
        for v in topo.nodes() {
            shard_nodes[node_shard[v.index()] as usize].push(v);
        }
        Partition {
            shards: k,
            node_shard,
            edge_shard,
            edge_local,
            shard_edge_counts,
            shard_nodes,
            cut_edges,
        }
    }

    /// Effective shard count (after clamping).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning node `v`.
    #[inline]
    #[must_use]
    pub fn node_shard(&self, v: NodeId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        self.node_shard[v.index()] as usize
    }

    /// The shard owning edge `e` (the shard of its source node).
    #[inline]
    #[must_use]
    pub fn edge_shard(&self, e: EdgeId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        self.edge_shard[e.index()] as usize
    }

    /// `e`'s dense index among the edges of its owning shard.
    #[inline]
    #[must_use]
    pub fn edge_local(&self, e: EdgeId) -> usize {
        if self.shards == 1 {
            return e.index();
        }
        self.edge_local[e.index()] as usize
    }

    /// Number of edges owned by shard `s`.
    #[must_use]
    pub fn shard_edge_count(&self, s: usize) -> usize {
        self.shard_edge_counts[s]
    }

    /// Nodes of shard `s`, in ascending id order.
    #[must_use]
    pub fn shard_nodes(&self, s: usize) -> &[NodeId] {
        &self.shard_nodes[s]
    }

    /// Edges whose target lives in a different shard than their source,
    /// in ascending edge order. Empty iff `shards() == 1`.
    #[must_use]
    pub fn cut_edges(&self) -> &[EdgeId] {
        &self.cut_edges
    }

    /// True iff `e` crosses a shard boundary.
    #[inline]
    #[must_use]
    pub fn is_cut(&self, e: EdgeId) -> bool {
        self.cut_edges.binary_search(&e).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::Hypercube;
    use crate::mesh::Mesh2D;

    #[test]
    fn blocks_are_contiguous_and_balanced() {
        let topo = Mesh2D::square(5); // 25 nodes
        for k in [1, 2, 3, 4, 7, 25] {
            let p = Partition::contiguous(&topo, k);
            assert_eq!(p.shards(), k);
            let mut sizes = vec![0usize; k];
            let mut last = 0usize;
            for v in topo.nodes() {
                let s = p.node_shard(v);
                assert!(s >= last, "shard ids must be nondecreasing in node order");
                last = s;
                sizes[s] += 1;
            }
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "k={k}: sizes {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), 25);
        }
    }

    #[test]
    fn shard_count_is_clamped() {
        let topo = Mesh2D::square(2); // 4 nodes
        assert_eq!(Partition::contiguous(&topo, 0).shards(), 1);
        assert_eq!(Partition::contiguous(&topo, 100).shards(), 4);
    }

    #[test]
    fn edges_belong_to_their_source_shard_with_dense_local_indices() {
        let topo = Hypercube::new(4);
        let p = Partition::contiguous(&topo, 3);
        let mut next_local = [0usize; 3];
        for e in topo.edges() {
            let s = p.edge_shard(e);
            assert_eq!(s, p.node_shard(topo.edge_source(e)));
            assert_eq!(p.edge_local(e), next_local[s]);
            next_local[s] += 1;
        }
        for (s, &count) in next_local.iter().enumerate() {
            assert_eq!(p.shard_edge_count(s), count);
        }
        assert_eq!(
            next_local.iter().sum::<usize>(),
            topo.num_edges(),
            "every edge is owned by exactly one shard"
        );
    }

    #[test]
    fn cut_edges_are_exactly_the_boundary_crossings() {
        let topo = Mesh2D::square(4);
        let p = Partition::contiguous(&topo, 4);
        for e in topo.edges() {
            let crosses = p.node_shard(topo.edge_source(e)) != p.node_shard(topo.edge_target(e));
            assert_eq!(p.is_cut(e), crosses, "{e}");
        }
        assert!(!p.cut_edges().is_empty());
        let single = Partition::contiguous(&topo, 1);
        assert!(single.cut_edges().is_empty());
    }

    #[test]
    fn shard_nodes_cover_all_nodes_once() {
        let topo = Hypercube::new(5);
        let p = Partition::contiguous(&topo, 4);
        let mut seen = vec![false; topo.num_nodes()];
        for s in 0..p.shards() {
            for &v in p.shard_nodes(s) {
                assert_eq!(p.node_shard(v), s);
                assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }
}
