//! Destination distributions.
//!
//! The standard model draws destinations uniformly over all nodes
//! ([`UniformDest`]); §4.5 studies a hypercube distribution where each bit
//! of the destination differs with probability `p` ([`BernoulliDest`]); and
//! §5.2 sketches a non-uniform "nearby" distribution realized by a stopping
//! walk ([`NearbyWalk`]). [`ButterflyOutput`] draws a uniform output row for
//! butterfly inputs.
//!
//! Every sampler also exposes its probability mass function
//! ([`DestSampler::weight`]), which the exact rate computation in
//! [`crate::rates`] integrates over all source/destination pairs.

use meshbound_topology::{Butterfly, Hypercube, Mesh2D, NodeId, Topology};
use rand::rngs::SmallRng;
use rand::Rng;

/// The sparse structure of a destination distribution at one source.
///
/// [`crate::rates::edge_rates_sparse`] uses this to replace the
/// all-destinations weight scan with a walk over the few destinations that
/// actually carry mass, turning permutation and hotspot rate vectors from
/// `O(N² · route)` into `O(N · route)`.
#[derive(Debug, Clone, PartialEq)]
pub enum DestSupport {
    /// No sparse structure known: enumerate every destination.
    Dense,
    /// The mass at this source decomposes as
    /// `weight(src, dst) = uniform / N + Σ_{(d, w) ∈ points, d = dst} w`:
    /// a few point masses plus a remainder spread uniformly over all `N`
    /// nodes.
    Sparse {
        /// Point masses `(destination, probability)`.
        points: Vec<(NodeId, f64)>,
        /// Total mass spread uniformly over all nodes (`0.0` for pure
        /// point-mass patterns such as permutations and matrix rows).
        uniform: f64,
    },
}

/// A destination distribution over a topology.
pub trait DestSampler<T: Topology> {
    /// Draws a destination for a packet generated at `src`.
    fn sample(&self, topo: &T, src: NodeId, rng: &mut SmallRng) -> NodeId;

    /// Probability that a packet generated at `src` is destined for `dst`.
    fn weight(&self, topo: &T, src: NodeId, dst: NodeId) -> f64;

    /// The sparse support of the distribution at `src`, when one is known.
    ///
    /// The default reports [`DestSupport::Dense`] — no structure — which
    /// keeps callers on the exact full-scan rate path. Samplers whose mass
    /// concentrates on a few destinations (permutations, hotspots, sparse
    /// matrix rows) override this so [`crate::rates::edge_rates_sparse`]
    /// can skip the scan without changing a single computed value.
    fn support(&self, topo: &T, src: NodeId) -> DestSupport {
        let _ = (topo, src);
        DestSupport::Dense
    }
}

/// Uniform destinations over all nodes, self-pairs included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UniformDest;

impl<T: Topology> DestSampler<T> for UniformDest {
    #[inline]
    fn sample(&self, topo: &T, _: NodeId, rng: &mut SmallRng) -> NodeId {
        NodeId(rng.gen_range(0..topo.num_nodes() as u32))
    }

    #[inline]
    fn weight(&self, topo: &T, _: NodeId, _: NodeId) -> f64 {
        1.0 / topo.num_nodes() as f64
    }

    fn support(&self, _: &T, _: NodeId) -> DestSupport {
        DestSupport::Sparse {
            points: Vec::new(),
            uniform: 1.0,
        }
    }
}

/// Hypercube destinations where each address bit differs from the source
/// with probability `p`, independently (§4.5). `p = 1/2` recovers the
/// uniform distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliDest {
    /// Per-dimension flip probability.
    pub p: f64,
}

impl BernoulliDest {
    /// Creates the distribution; `p` must lie in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        Self { p }
    }
}

impl DestSampler<Hypercube> for BernoulliDest {
    fn sample(&self, topo: &Hypercube, src: NodeId, rng: &mut SmallRng) -> NodeId {
        let mut dst = src.0;
        for i in 0..topo.dim() {
            if rng.gen_bool(self.p) {
                dst ^= 1 << i;
            }
        }
        NodeId(dst)
    }

    fn weight(&self, topo: &Hypercube, src: NodeId, dst: NodeId) -> f64 {
        let k = (src.0 ^ dst.0).count_ones() as i32;
        let d = topo.dim() as i32;
        self.p.powi(k) * (1.0 - self.p).powi(d - k)
    }
}

/// Uniform output row for packets entering a butterfly at level 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ButterflyOutput;

impl DestSampler<Butterfly> for ButterflyOutput {
    fn sample(&self, topo: &Butterfly, _: NodeId, rng: &mut SmallRng) -> NodeId {
        let row = rng.gen_range(0..topo.rows());
        topo.node(topo.levels(), row)
    }

    fn weight(&self, topo: &Butterfly, _: NodeId, dst: NodeId) -> f64 {
        let (level, _) = topo.coords(dst);
        if level == topo.levels() {
            1.0 / topo.rows() as f64
        } else {
            0.0
        }
    }
}

/// The §5.2 "nearby" destination distribution on the array.
///
/// Per axis, the packet picks a direction uniformly at random and then walks:
/// at each node it stops with probability `stop`, and it must stop at the
/// array boundary. The induced destination distribution concentrates around
/// the source; the routing process remains Markovian, so the upper and lower
/// bound machinery still applies (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearbyWalk {
    /// Per-node stopping probability (the paper uses 1/2).
    pub stop: f64,
}

impl NearbyWalk {
    /// Creates the distribution; `stop` must lie in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `stop` is outside `(0, 1]`.
    #[must_use]
    pub fn new(stop: f64) -> Self {
        assert!(stop > 0.0 && stop <= 1.0, "stop must be in (0,1]");
        Self { stop }
    }

    /// Walks one axis: starting at `c` on a line of `n` nodes, returns the
    /// stopping coordinate.
    fn walk_axis(&self, n: usize, c: usize, rng: &mut SmallRng) -> usize {
        let go_right = rng.gen_bool(0.5);
        let mut pos = c;
        loop {
            let at_boundary = if go_right { pos + 1 >= n } else { pos == 0 };
            if at_boundary || rng.gen_bool(self.stop) {
                return pos;
            }
            pos = if go_right { pos + 1 } else { pos - 1 };
        }
    }

    /// Probability mass of stopping at `c2` when starting from `c1` on a
    /// line of `n` nodes.
    fn axis_weight(&self, n: usize, c1: usize, c2: usize) -> f64 {
        let q = 1.0 - self.stop;
        // Probability of reaching displacement k (same direction) and
        // stopping there, with forced stop at boundary distance b.
        let dir_mass = |k: usize, b: usize| -> f64 {
            if k > b {
                0.0
            } else if k == b {
                q.powi(k as i32) // reached the boundary: forced stop
            } else {
                q.powi(k as i32) * self.stop
            }
        };
        if c2 == c1 {
            0.5 * dir_mass(0, n - 1 - c1) + 0.5 * dir_mass(0, c1)
        } else if c2 > c1 {
            0.5 * dir_mass(c2 - c1, n - 1 - c1)
        } else {
            0.5 * dir_mass(c1 - c2, c1)
        }
    }
}

impl DestSampler<Mesh2D> for NearbyWalk {
    fn sample(&self, topo: &Mesh2D, src: NodeId, rng: &mut SmallRng) -> NodeId {
        let (r, c) = topo.coords(src);
        let c2 = self.walk_axis(topo.cols(), c, rng);
        let r2 = self.walk_axis(topo.rows(), r, rng);
        topo.node(r2, c2)
    }

    fn weight(&self, topo: &Mesh2D, src: NodeId, dst: NodeId) -> f64 {
        let (r1, c1) = topo.coords(src);
        let (r2, c2) = topo.coords(dst);
        self.axis_weight(topo.cols(), c1, c2) * self.axis_weight(topo.rows(), r1, r2)
    }
}

/// Uniform destinations realized by the **Lemma 3 Markov chain** rather
/// than by direct sampling: the destination column and row are each chosen
/// by running the stopping walk of Lemma 3 along the corresponding axis.
///
/// By Lemma 3 the induced distribution is exactly uniform, which is what
/// makes greedy routing Markovian (Corollary 4) — this sampler exists to
/// make that equivalence executable and testable. It is interchangeable
/// with [`UniformDest`] in every simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lemma3Dest;

impl DestSampler<Mesh2D> for Lemma3Dest {
    fn sample(&self, topo: &Mesh2D, src: NodeId, rng: &mut SmallRng) -> NodeId {
        use crate::lemma3::Lemma3Walk;
        let (r, c) = topo.coords(src);
        let col_walk = Lemma3Walk::new(topo.cols());
        let row_walk = Lemma3Walk::new(topo.rows());
        let c2 = col_walk.run(c + 1, rng) - 1;
        let r2 = row_walk.run(r + 1, rng) - 1;
        topo.node(r2, c2)
    }

    fn weight(&self, topo: &Mesh2D, _: NodeId, _: NodeId) -> f64 {
        // Lemma 3: each axis position is uniform, independently.
        1.0 / (topo.rows() * topo.cols()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_weight_sums_to_one() {
        let m = Mesh2D::square(4);
        let src = m.node(1, 2);
        let total: f64 = m.nodes().map(|d| UniformDest.weight(&m, src, d)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_weight_sums_to_one() {
        let h = Hypercube::new(5);
        for p in [0.1, 0.5, 0.9] {
            let d = BernoulliDest::new(p);
            let src = NodeId(13);
            let total: f64 = h.nodes().map(|x| d.weight(&h, src, x)).sum();
            assert!((total - 1.0).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn bernoulli_half_is_uniform() {
        let h = Hypercube::new(4);
        let d = BernoulliDest::new(0.5);
        for x in h.nodes() {
            assert!((d.weight(&h, NodeId(3), x) - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn nearby_weight_sums_to_one() {
        for n in [3usize, 5, 6] {
            let m = Mesh2D::square(n);
            let w = NearbyWalk::new(0.5);
            for src in [m.node(0, 0), m.node(n / 2, n / 2), m.node(n - 1, 1)] {
                let total: f64 = m.nodes().map(|d| w.weight(&m, src, d)).sum();
                assert!((total - 1.0).abs() < 1e-12, "n={n}, src={src}");
            }
        }
    }

    #[test]
    fn nearby_concentrates_near_source() {
        let m = Mesh2D::square(9);
        let w = NearbyWalk::new(0.5);
        let src = m.node(4, 4);
        let at_src = w.weight(&m, src, src);
        let far = w.weight(&m, src, m.node(0, 0));
        assert!(at_src > far * 10.0);
    }

    #[test]
    fn nearby_sampling_matches_weights() {
        let m = Mesh2D::square(5);
        let w = NearbyWalk::new(0.5);
        let src = m.node(2, 1);
        let mut rng = rng();
        let trials = 200_000;
        let mut counts = vec![0u32; m.num_nodes()];
        for _ in 0..trials {
            counts[w.sample(&m, src, &mut rng).index()] += 1;
        }
        for d in m.nodes() {
            let expect = w.weight(&m, src, d);
            let got = f64::from(counts[d.index()]) / trials as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "dst {d}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn butterfly_output_always_level_d() {
        let b = Butterfly::new(3);
        let mut rng = rng();
        for _ in 0..100 {
            let d = ButterflyOutput.sample(&b, b.node(0, 0), &mut rng);
            assert_eq!(b.coords(d).0, 3);
        }
        let total: f64 = b
            .nodes()
            .map(|x| ButterflyOutput.weight(&b, b.node(0, 0), x))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lemma3_dest_is_uniform_on_the_mesh() {
        // The executable form of Corollary 4: the stopping-walk destination
        // matches the uniform distribution on every cell of the mesh.
        let m = Mesh2D::square(4);
        let src = m.node(1, 2);
        let mut rng = rng();
        let trials = 160_000;
        let mut counts = vec![0u32; m.num_nodes()];
        for _ in 0..trials {
            counts[Lemma3Dest.sample(&m, src, &mut rng).index()] += 1;
        }
        let expect = trials as f64 / 16.0;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (f64::from(c) - expect).abs() / expect;
            assert!(rel < 0.05, "cell {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn lemma3_dest_weight_is_uniform() {
        let m = Mesh2D::square(5);
        let total: f64 = m
            .nodes()
            .map(|d| Lemma3Dest.weight(&m, m.node(0, 0), d))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_sampling_is_roughly_uniform() {
        let m = Mesh2D::square(3);
        let mut rng = rng();
        let mut counts = vec![0u32; 9];
        for _ in 0..90_000 {
            counts[UniformDest.sample(&m, m.node(0, 0), &mut rng).index()] += 1;
        }
        for &c in &counts {
            assert!((f64::from(c) / 10_000.0 - 1.0).abs() < 0.05);
        }
    }
}
