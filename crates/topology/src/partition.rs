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
//! Where a topology numbers its out-edges by source node (hypercube,
//! torus, butterfly), each shard owns one contiguous range of edge ids,
//! and an edge's owner and local index come from `k + 1` range bases by a
//! subtraction. Interleaved numberings (the meshes number edges by
//! direction) get two per-edge tables instead.
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
    /// Owning shard of each node; empty when `shards == 1`, where the
    /// accessor answers 0 directly.
    node_shard: Vec<u32>,
    /// Owning shard and dense local index of each edge.
    edges: EdgeIndex,
    /// Number of edges each shard owns.
    shard_edge_counts: Vec<usize>,
    /// Edges whose target lives on another shard, in ascending id order.
    cut_edges: Vec<EdgeId>,
}

/// How a [`Partition`] finds an edge's owning shard and its local index:
/// its position among that shard's edges, in global edge order.
#[derive(Debug, Clone)]
enum EdgeIndex {
    /// Shard `s` owns the edge ids `bases[s]..bases[s + 1]`, so an edge's
    /// local index is its id minus its shard's base. Holds whenever the
    /// owning shard never decreases along edge ids — edges numbered by
    /// source node, and any numbering on one shard — at `shards + 1`
    /// words.
    Ranges(Vec<u32>),
    /// Any other numbering: both answers stored per edge, 8 bytes each.
    Tables { shard: Vec<u32>, local: Vec<u32> },
}

impl Partition {
    /// Partitions `topo` into (at most) `shards` contiguous node
    /// blocks. The effective shard count is clamped to
    /// `[1, num_nodes]`; block sizes differ by at most one node.
    #[must_use]
    pub fn contiguous<T: Topology + ?Sized>(topo: &T, shards: usize) -> Self {
        let (n, m) = (topo.num_nodes(), topo.num_edges());
        let k = shards.clamp(1, n.max(1));
        if k == 1 {
            // One block: every node lookup answers 0 and the edges are the
            // one range `0..m`, so no per-node or per-edge map is stored
            // (a map would cost 4 bytes per node or edge at million-node
            // scale).
            return Partition {
                shards: 1,
                node_shard: Vec::new(),
                edges: EdgeIndex::Ranges(vec![0, m as u32]),
                shard_edge_counts: vec![m],
                cut_edges: Vec::new(),
            };
        }
        let node_shard: Vec<u32> = (0..n).map(|i| ((i * k) / n) as u32).collect();
        let source_shard = |e: EdgeId| node_shard[topo.edge_source(e).index()];
        let mut shard_edge_counts = vec![0usize; k];
        let mut cut_edges = Vec::new();
        let mut ranged = true;
        let mut prev = 0;
        for e in topo.edges() {
            let s = source_shard(e);
            ranged &= s >= prev;
            prev = s;
            shard_edge_counts[s as usize] += 1;
            if node_shard[topo.edge_target(e).index()] != s {
                cut_edges.push(e);
            }
        }
        let edges = if ranged {
            let mut bases = vec![0u32];
            for &count in &shard_edge_counts {
                bases.push(bases[bases.len() - 1] + count as u32);
            }
            EdgeIndex::Ranges(bases)
        } else {
            let mut next_local = vec![0u32; k];
            let (shard, local) = topo
                .edges()
                .map(|e| {
                    let s = source_shard(e);
                    next_local[s as usize] += 1;
                    (s, next_local[s as usize] - 1)
                })
                .unzip();
            EdgeIndex::Tables { shard, local }
        };
        Partition {
            shards: k,
            node_shard,
            edges,
            shard_edge_counts,
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
        match &self.edges {
            // The last range starting at or before `e`: an empty range
            // shares its base with the next one and is passed over.
            EdgeIndex::Ranges(bases) => {
                debug_assert!(e.0 < bases[self.shards], "{e} is out of range");
                bases.partition_point(|&b| b <= e.0) - 1
            }
            EdgeIndex::Tables { shard, .. } => shard[e.index()] as usize,
        }
    }

    /// `e`'s dense index among the edges of shard `s`, which must own it
    /// ([`Partition::edge_shard`]). Taking the owner spares range-indexed
    /// partitions the search over their bases: the answer is a
    /// subtraction there, and one table read otherwise.
    #[inline]
    #[must_use]
    pub fn edge_local(&self, s: usize, e: EdgeId) -> usize {
        debug_assert_eq!(self.edge_shard(e), s, "{e} is not owned by shard {s}");
        match &self.edges {
            EdgeIndex::Ranges(bases) => (e.0 - bases[s]) as usize,
            EdgeIndex::Tables { local, .. } => local[e.index()] as usize,
        }
    }

    /// Number of edges owned by shard `s`.
    #[must_use]
    pub fn shard_edge_count(&self, s: usize) -> usize {
        self.shard_edge_counts[s]
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
    use crate::butterfly::Butterfly;
    use crate::hypercube::Hypercube;
    use crate::mesh::Mesh2D;
    use crate::meshkd::MeshKD;
    use crate::torus::Torus2D;

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

    /// Checks ownership and dense local indices on `topo` at `k` shards,
    /// and returns the partition.
    fn check_edge_ownership<T: Topology>(topo: &T, k: usize) -> Partition {
        let p = Partition::contiguous(topo, k);
        let label = format!("{} at k = {k}", topo.label());
        let mut next_local = vec![0usize; p.shards()];
        for e in topo.edges() {
            let s = p.edge_shard(e);
            assert_eq!(s, p.node_shard(topo.edge_source(e)), "{label}: {e}");
            assert_eq!(p.edge_local(s, e), next_local[s], "{label}: {e}");
            next_local[s] += 1;
        }
        for (s, &count) in next_local.iter().enumerate() {
            assert_eq!(p.shard_edge_count(s), count, "{label}: shard {s}");
        }
        assert_eq!(
            next_local.iter().sum::<usize>(),
            topo.num_edges(),
            "{label}: every edge is owned by exactly one shard"
        );
        p
    }

    #[test]
    fn edges_belong_to_their_source_shard_with_dense_local_indices() {
        let ranged = |p: Partition| matches!(p.edges, EdgeIndex::Ranges(_));
        for k in [1, 2, 3, 4, 7] {
            // The hypercube, torus and butterfly number out-edges by
            // source node, so every shard owns one id range. The meshes
            // number edges by direction and need the tables, except on
            // one shard.
            assert!(ranged(check_edge_ownership(&Torus2D::new(4), k)));
            assert!(ranged(check_edge_ownership(&Hypercube::new(4), k)));
            assert!(ranged(check_edge_ownership(&Butterfly::new(3), k)));
            let mesh = check_edge_ownership(&Mesh2D::rect(5, 4), k);
            assert_eq!(ranged(mesh), k == 1, "mesh at k = {k}");
            let mesh_kd = check_edge_ownership(&MeshKD::new(&[3, 2, 3]), k);
            assert_eq!(ranged(mesh_kd), k == 1, "mesh-kd at k = {k}");
        }
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
}
