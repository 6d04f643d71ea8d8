//! Traffic patterns: permutation, hotspot and matrix destination models.
//!
//! The paper proves its bounds for uniform random destinations, but the
//! bounding technique itself only needs the per-edge arrival-rate vector —
//! which [`crate::rates`] can compute for *any* oblivious workload. This
//! module supplies the standard array-network workloads from the
//! interconnection-network literature so scenarios can exercise them:
//!
//! * [`PermutationDest`] — the classic address permutations (transpose,
//!   bit-reversal, bit-complement, perfect shuffle), defined per topology
//!   through [`PatternTopology`];
//! * [`HotspotDest`] — a fraction of all traffic converges on one hot
//!   node, the rest stays uniform;
//! * [`MatrixDest`] — an explicit traffic matrix: each source draws its
//!   destination from its own (row-normalized) distribution.
//!
//! All three implement [`DestSampler`] for every [`Topology`], so they
//! plug into the simulator and the exact rate enumeration unchanged.
//! [`GenericDest`] wraps them together with the uniform, nearby and
//! Bernoulli distributions of [`crate::dest`], so one sampler type covers
//! every destination model a scenario can name.

use crate::dest::{BernoulliDest, DestSampler, DestSupport, NearbyWalk, UniformDest};
use meshbound_topology::{Butterfly, Hypercube, Mesh2D, MeshKD, NodeId, Topology, Torus2D};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The classic address permutations of the interconnection-network
/// literature (Dally & Towles' benchmark suite). Each maps every source
/// to exactly one destination; how the map reads the address is defined
/// per topology by [`PatternTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PermutationKind {
    /// Matrix transpose: `(r, c) → (c, r)` on square arrays; address
    /// rotation by half the bit width on the hypercube.
    Transpose,
    /// Reverse the address bits (per axis on arrays).
    BitReversal,
    /// Complement the address: `(r, c) → (R−1−r, C−1−c)` on arrays,
    /// bitwise NOT on the hypercube.
    BitComplement,
    /// Perfect shuffle: rotate the flat address left by one bit.
    Shuffle,
}

impl PermutationKind {
    /// All permutation kinds, in spec-grammar order.
    pub const ALL: [PermutationKind; 4] = [
        PermutationKind::Transpose,
        PermutationKind::BitReversal,
        PermutationKind::BitComplement,
        PermutationKind::Shuffle,
    ];

    /// The spec-string token (`"transpose"`, `"bitrev"`, `"bitcomp"`,
    /// `"shuffle"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PermutationKind::Transpose => "transpose",
            PermutationKind::BitReversal => "bitrev",
            PermutationKind::BitComplement => "bitcomp",
            PermutationKind::Shuffle => "shuffle",
        }
    }

    /// Parses a spec-string token.
    ///
    /// # Errors
    ///
    /// Returns the offending token when it is not one of
    /// `transpose|bitrev|bitcomp|shuffle`.
    pub fn parse_str(s: &str) -> Result<Self, String> {
        PermutationKind::ALL
            .into_iter()
            .find(|k| k.as_str() == s)
            .ok_or_else(|| {
                format!(
                    "unknown permutation `{s}` (expected transpose, bitrev, bitcomp or shuffle)"
                )
            })
    }
}

impl std::fmt::Display for PermutationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reverses the low `bits` bits of `x`.
fn reverse_bits(x: u32, bits: u32) -> u32 {
    if bits == 0 {
        return x;
    }
    x.reverse_bits() >> (32 - bits)
}

/// Rotates the low `bits` bits of `x` left by one.
fn rotl1(x: u32, bits: u32) -> u32 {
    debug_assert!(bits >= 1);
    ((x << 1) | (x >> (bits - 1))) & ((1u32 << bits) - 1).max(1)
}

/// `log2(n)` when `n` is a power of two.
fn log2_exact(n: usize) -> Option<u32> {
    if n.is_power_of_two() {
        Some(n.trailing_zeros())
    } else {
        None
    }
}

/// A topology on which address permutations are defined.
///
/// `supports_permutation` reports whether a kind is well-defined on this
/// instance (and not the identity map, which would generate no traffic);
/// `permutation_target` evaluates the map. Callers must validate support
/// before sampling — `permutation_target` panics on unsupported kinds.
pub trait PatternTopology: Topology {
    /// Whether `kind` is a well-defined, non-identity permutation here.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when it is not (wrong shape, size
    /// not a power of two, or an identity map).
    fn supports_permutation(&self, kind: PermutationKind) -> Result<(), String>;

    /// The destination `kind` maps `src` to.
    ///
    /// # Panics
    ///
    /// May panic if [`PatternTopology::supports_permutation`] rejects
    /// `kind` on this instance.
    fn permutation_target(&self, kind: PermutationKind, src: NodeId) -> NodeId;

    /// The topology's geometrically central node — the default hotspot
    /// placement. On grids this is the middle coordinate tuple (maximal
    /// fan-in, the Pfister–Norton convention); on vertex-transitive
    /// topologies any node serves.
    fn central_node(&self) -> NodeId {
        NodeId(self.num_nodes() as u32 / 2)
    }

    /// This topology as a 2-D array, if it is one: the nearby walk is
    /// defined only there.
    fn as_mesh(&self) -> Option<&Mesh2D> {
        None
    }

    /// This topology as a hypercube, if it is one: the Bernoulli
    /// distribution is defined only there.
    fn as_hypercube(&self) -> Option<&Hypercube> {
        None
    }
}

/// Shared array-shaped permutation logic for [`Mesh2D`] and [`Torus2D`]
/// (both are row-major `rows × cols` grids).
fn grid_supports(rows: usize, cols: usize, kind: PermutationKind) -> Result<(), String> {
    match kind {
        PermutationKind::Transpose => {
            if rows == cols {
                Ok(())
            } else {
                Err(format!("transpose needs a square array, got {rows}x{cols}"))
            }
        }
        PermutationKind::BitComplement => Ok(()),
        PermutationKind::BitReversal => {
            if log2_exact(rows).is_none() || log2_exact(cols).is_none() {
                Err(format!(
                    "bit reversal needs power-of-two extents, got {rows}x{cols}"
                ))
            } else if rows <= 2 && cols <= 2 {
                Err("bit reversal on a 2x2 array is the identity (no traffic)".into())
            } else {
                Ok(())
            }
        }
        PermutationKind::Shuffle => {
            if log2_exact(rows).is_none() || log2_exact(cols).is_none() {
                Err(format!(
                    "shuffle needs a power-of-two node count, got {rows}x{cols}"
                ))
            } else {
                Ok(())
            }
        }
    }
}

fn grid_target(
    rows: usize,
    cols: usize,
    kind: PermutationKind,
    r: usize,
    c: usize,
) -> (usize, usize) {
    match kind {
        PermutationKind::Transpose => (c, r),
        PermutationKind::BitComplement => (rows - 1 - r, cols - 1 - c),
        PermutationKind::BitReversal => {
            let rb = log2_exact(rows).expect("validated power of two");
            let cb = log2_exact(cols).expect("validated power of two");
            (
                reverse_bits(r as u32, rb) as usize,
                reverse_bits(c as u32, cb) as usize,
            )
        }
        PermutationKind::Shuffle => {
            // Perfect shuffle on the flat row-major address.
            let bits = log2_exact(rows * cols).expect("validated power of two");
            let id = rotl1((r * cols + c) as u32, bits) as usize;
            (id / cols, id % cols)
        }
    }
}

impl PatternTopology for Mesh2D {
    fn supports_permutation(&self, kind: PermutationKind) -> Result<(), String> {
        grid_supports(self.rows(), self.cols(), kind)
    }

    fn permutation_target(&self, kind: PermutationKind, src: NodeId) -> NodeId {
        let (r, c) = self.coords(src);
        let (r2, c2) = grid_target(self.rows(), self.cols(), kind, r, c);
        self.node(r2, c2)
    }

    fn central_node(&self) -> NodeId {
        self.node(self.rows() / 2, self.cols() / 2)
    }

    fn as_mesh(&self) -> Option<&Mesh2D> {
        Some(self)
    }
}

impl PatternTopology for Torus2D {
    fn supports_permutation(&self, kind: PermutationKind) -> Result<(), String> {
        grid_supports(self.side(), self.side(), kind)
    }

    fn permutation_target(&self, kind: PermutationKind, src: NodeId) -> NodeId {
        let (r, c) = self.coords(src);
        let (r2, c2) = grid_target(self.side(), self.side(), kind, r, c);
        self.node(r2, c2)
    }

    fn central_node(&self) -> NodeId {
        self.node(self.side() / 2, self.side() / 2)
    }
}

impl PatternTopology for Hypercube {
    fn supports_permutation(&self, kind: PermutationKind) -> Result<(), String> {
        let d = self.dim();
        match kind {
            PermutationKind::Transpose if !d.is_multiple_of(2) => Err(format!(
                "hypercube transpose rotates the address by d/2, which needs even d (got {d})"
            )),
            PermutationKind::BitReversal | PermutationKind::Shuffle if d == 1 => {
                Err("a 1-bit address makes this permutation the identity (no traffic)".into())
            }
            _ => Ok(()),
        }
    }

    fn permutation_target(&self, kind: PermutationKind, src: NodeId) -> NodeId {
        let d = self.dim() as u32;
        let mask = ((1u64 << d) - 1) as u32;
        let x = src.0;
        let y = match kind {
            // Rotate by d/2: swaps the "row" and "column" halves of the
            // address, the hypercube reading of matrix transpose.
            PermutationKind::Transpose => {
                let h = d / 2;
                ((x << h) | (x >> (d - h))) & mask
            }
            PermutationKind::BitReversal => reverse_bits(x, d),
            PermutationKind::BitComplement => !x & mask,
            PermutationKind::Shuffle => rotl1(x, d),
        };
        NodeId(y)
    }

    fn as_hypercube(&self) -> Option<&Hypercube> {
        Some(self)
    }
}

impl PatternTopology for MeshKD {
    fn supports_permutation(&self, kind: PermutationKind) -> Result<(), String> {
        let dims = self.dims();
        match kind {
            PermutationKind::Transpose => {
                let palindromic = dims.iter().eq(dims.iter().rev());
                if palindromic && dims.len() >= 2 {
                    Ok(())
                } else {
                    Err(format!(
                        "k-d transpose reverses the axis order, which needs ≥ 2 axes with \
                         mirror-symmetric extents (got {dims:?})"
                    ))
                }
            }
            PermutationKind::BitComplement => Ok(()),
            PermutationKind::BitReversal => {
                if dims.iter().any(|&d| log2_exact(d).is_none()) {
                    Err(format!(
                        "bit reversal needs power-of-two extents, got {dims:?}"
                    ))
                } else if dims.iter().all(|&d| d <= 2) {
                    Err("bit reversal over 1-bit axes is the identity (no traffic)".into())
                } else {
                    Ok(())
                }
            }
            PermutationKind::Shuffle => {
                if dims.iter().any(|&d| log2_exact(d).is_none()) {
                    Err(format!("shuffle needs power-of-two extents, got {dims:?}"))
                } else if self.num_nodes() == 2 {
                    Err("shuffle of a 1-bit address is the identity (no traffic)".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    fn permutation_target(&self, kind: PermutationKind, src: NodeId) -> NodeId {
        match kind {
            PermutationKind::Transpose => {
                let mut coords = self.coords(src);
                coords.reverse();
                self.node(&coords)
            }
            PermutationKind::BitComplement => {
                let dims = self.dims();
                let coords: Vec<usize> = self
                    .coords(src)
                    .into_iter()
                    .zip(&dims)
                    .map(|(c, &d)| d - 1 - c)
                    .collect();
                self.node(&coords)
            }
            PermutationKind::BitReversal => {
                let dims = self.dims();
                let coords: Vec<usize> = self
                    .coords(src)
                    .into_iter()
                    .zip(&dims)
                    .map(|(c, &d)| {
                        reverse_bits(c as u32, log2_exact(d).expect("validated")) as usize
                    })
                    .collect();
                self.node(&coords)
            }
            PermutationKind::Shuffle => {
                // Mixed-radix ids with power-of-two extents are plain
                // binary numbers, so the flat-address shuffle applies.
                let bits = log2_exact(self.num_nodes()).expect("validated");
                NodeId(rotl1(src.0, bits))
            }
        }
    }

    fn central_node(&self) -> NodeId {
        let coords: Vec<usize> = self.dims().iter().map(|&d| d / 2).collect();
        self.node(&coords)
    }
}

impl PatternTopology for Butterfly {
    fn supports_permutation(&self, _kind: PermutationKind) -> Result<(), String> {
        Err(
            "permutations are not defined on the butterfly: packets enter at level 0 \
             and leave at the output level, so sources and destinations are disjoint"
                .into(),
        )
    }

    fn permutation_target(&self, kind: PermutationKind, _src: NodeId) -> NodeId {
        panic!("butterfly does not support the {kind} permutation");
    }
}

/// A permutation workload: each source sends all its traffic to the one
/// destination its [`PermutationKind`] assigns it. Fixed points (e.g. the
/// diagonal under transpose) generate zero-distance packets.
///
/// The destination is computed on the fly from the topology's address
/// arithmetic — no table is materialized, so the sampler is free at any
/// topology size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PermutationDest {
    /// Which permutation to apply.
    pub kind: PermutationKind,
}

impl PermutationDest {
    /// Creates the sampler after checking the permutation is well-defined
    /// (and not the identity) on `topo`.
    ///
    /// # Errors
    ///
    /// Propagates [`PatternTopology::supports_permutation`] rejections.
    pub fn new<T: PatternTopology>(topo: &T, kind: PermutationKind) -> Result<Self, String> {
        topo.supports_permutation(kind)?;
        Ok(Self { kind })
    }
}

impl<T: PatternTopology> DestSampler<T> for PermutationDest {
    #[inline]
    fn sample(&self, topo: &T, src: NodeId, _: &mut SmallRng) -> NodeId {
        topo.permutation_target(self.kind, src)
    }

    #[inline]
    fn weight(&self, topo: &T, src: NodeId, dst: NodeId) -> f64 {
        if topo.permutation_target(self.kind, src) == dst {
            1.0
        } else {
            0.0
        }
    }

    fn support(&self, topo: &T, src: NodeId) -> DestSupport {
        DestSupport::Sparse {
            points: vec![(topo.permutation_target(self.kind, src), 1.0)],
            uniform: 0.0,
        }
    }
}

/// A hotspot workload: each packet targets the hot node with probability
/// `frac` and a uniformly random node otherwise (Pfister & Norton's
/// hot-spot model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotDest {
    /// The hot node.
    pub hot: NodeId,
    /// Probability a packet targets the hot node, in `(0, 1]`.
    pub frac: f64,
}

impl HotspotDest {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics unless `frac ∈ (0, 1]`.
    #[must_use]
    pub fn new(hot: NodeId, frac: f64) -> Self {
        assert!(
            frac > 0.0 && frac <= 1.0,
            "hotspot fraction must be in (0,1]"
        );
        Self { hot, frac }
    }
}

impl<T: Topology> DestSampler<T> for HotspotDest {
    fn sample(&self, topo: &T, _: NodeId, rng: &mut SmallRng) -> NodeId {
        // One uniform decides hot-vs-uniform, a second picks the uniform
        // destination — drawn only on the uniform branch so hot traffic
        // costs one draw.
        if rng.gen::<f64>() < self.frac {
            self.hot
        } else {
            NodeId(rng.gen_range(0..topo.num_nodes() as u32))
        }
    }

    fn weight(&self, topo: &T, _: NodeId, dst: NodeId) -> f64 {
        let uniform = (1.0 - self.frac) / topo.num_nodes() as f64;
        if dst == self.hot {
            self.frac + uniform
        } else {
            uniform
        }
    }

    fn support(&self, _: &T, _: NodeId) -> DestSupport {
        DestSupport::Sparse {
            points: vec![(self.hot, self.frac)],
            uniform: 1.0 - self.frac,
        }
    }
}

/// An explicit traffic matrix: `rows[s][d]` is the relative rate of the
/// `s → d` flow. Each source draws destinations from its own row,
/// normalized; row sums give the per-source rate weights (resolved by the
/// scenario layer).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixDest {
    n: usize,
    /// Row-wise cumulative distributions, flattened (`n × n`); an all-zero
    /// row stays all-zero and marks a silent source.
    cum: Vec<f64>,
    /// Row-normalized probabilities, flattened (for exact weights).
    prob: Vec<f64>,
}

impl MatrixDest {
    /// Builds the sampler from a square non-negative matrix.
    ///
    /// # Errors
    ///
    /// Rejects non-square shapes, negative or non-finite entries, and the
    /// all-zero matrix.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, String> {
        let n = rows.len();
        if n == 0 {
            return Err("traffic matrix is empty".into());
        }
        let mut cum = Vec::with_capacity(n * n);
        let mut prob = Vec::with_capacity(n * n);
        let mut any_positive = false;
        for (s, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(format!(
                    "traffic matrix row {s} has {} entries, expected {n}",
                    row.len()
                ));
            }
            let mut total = 0.0;
            for (d, &v) in row.iter().enumerate() {
                if !(v >= 0.0 && v.is_finite()) {
                    return Err(format!("traffic matrix entry [{s}][{d}] = {v} is invalid"));
                }
                total += v;
            }
            if total > 0.0 {
                any_positive = true;
                let mut acc = 0.0;
                for &v in row {
                    acc += v / total;
                    cum.push(acc);
                    prob.push(v / total);
                }
                // Guard against rounding shortfall from the *last positive*
                // entry onward: clamping only the final bucket would let a
                // trailing zero-weight destination absorb the residual mass
                // and be sampled despite weight() == 0.
                let last_positive = row.iter().rposition(|&v| v > 0.0).expect("total > 0");
                for c in &mut cum[s * n + last_positive..(s + 1) * n] {
                    *c = 1.0;
                }
            } else {
                cum.extend(std::iter::repeat_n(0.0, n));
                prob.extend(std::iter::repeat_n(0.0, n));
            }
        }
        if !any_positive {
            return Err("traffic matrix is all zero (no traffic)".into());
        }
        Ok(Self { n, cum, prob })
    }

    /// Matrix side (`num_nodes` of the topology it targets).
    #[must_use]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Number of all-zero rows — "silent sources" that generate no
    /// traffic at all. A mostly-zero matrix can look like a healthy
    /// workload (the rate vector and bounds are all finite), so the
    /// scenario layer surfaces this count in its reports.
    #[must_use]
    pub fn silent_sources(&self) -> usize {
        (0..self.n)
            .filter(|s| self.cum[(s + 1) * self.n - 1] == 0.0)
            .count()
    }
}

impl<T: Topology> DestSampler<T> for MatrixDest {
    fn sample(&self, _: &T, src: NodeId, rng: &mut SmallRng) -> NodeId {
        let row = &self.cum[src.index() * self.n..(src.index() + 1) * self.n];
        if row[self.n - 1] == 0.0 {
            // Silent source: its rate is zero, so this is never reached in
            // simulation; fall back to a self-packet for safety.
            return src;
        }
        let u: f64 = rng.gen();
        let d = row.partition_point(|&c| c <= u);
        NodeId(d.min(self.n - 1) as u32)
    }

    fn weight(&self, _: &T, src: NodeId, dst: NodeId) -> f64 {
        self.prob[src.index() * self.n + dst.index()]
    }

    fn support(&self, _: &T, src: NodeId) -> DestSupport {
        let row = &self.prob[src.index() * self.n..(src.index() + 1) * self.n];
        DestSupport::Sparse {
            points: row
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .map(|(d, &w)| (NodeId(d as u32), w))
                .collect(),
            uniform: 0.0,
        }
    }
}

/// One sampler type covering every destination model a scenario can
/// name, so scenario dispatch needs one instantiation per topology and
/// router instead of one per pattern. Each variant draws exactly the
/// random values of the sampler it wraps.
#[derive(Debug, Clone, PartialEq)]
pub enum GenericDest {
    /// [`UniformDest`].
    Uniform,
    /// A [`NearbyWalk`] (2-D arrays only).
    Nearby(NearbyWalk),
    /// A [`BernoulliDest`] (hypercubes only).
    Bernoulli(BernoulliDest),
    /// A [`PermutationDest`].
    Permutation(PermutationDest),
    /// A [`HotspotDest`].
    Hotspot(HotspotDest),
    /// A [`MatrixDest`].
    Matrix(MatrixDest),
}

fn mesh_of<T: PatternTopology>(topo: &T) -> &Mesh2D {
    topo.as_mesh()
        .expect("the nearby walk is defined only on the 2-D array")
}

fn cube_of<T: PatternTopology>(topo: &T) -> &Hypercube {
    topo.as_hypercube()
        .expect("the Bernoulli distribution is defined only on the hypercube")
}

impl<T: PatternTopology> DestSampler<T> for GenericDest {
    fn sample(&self, topo: &T, src: NodeId, rng: &mut SmallRng) -> NodeId {
        match self {
            GenericDest::Uniform => UniformDest.sample(topo, src, rng),
            GenericDest::Nearby(w) => w.sample(mesh_of(topo), src, rng),
            GenericDest::Bernoulli(b) => b.sample(cube_of(topo), src, rng),
            GenericDest::Permutation(p) => p.sample(topo, src, rng),
            GenericDest::Hotspot(h) => h.sample(topo, src, rng),
            GenericDest::Matrix(m) => m.sample(topo, src, rng),
        }
    }

    fn weight(&self, topo: &T, src: NodeId, dst: NodeId) -> f64 {
        match self {
            GenericDest::Uniform => UniformDest.weight(topo, src, dst),
            GenericDest::Nearby(w) => w.weight(mesh_of(topo), src, dst),
            GenericDest::Bernoulli(b) => b.weight(cube_of(topo), src, dst),
            GenericDest::Permutation(p) => p.weight(topo, src, dst),
            GenericDest::Hotspot(h) => h.weight(topo, src, dst),
            GenericDest::Matrix(m) => m.weight(topo, src, dst),
        }
    }

    fn support(&self, topo: &T, src: NodeId) -> DestSupport {
        match self {
            GenericDest::Uniform => UniformDest.support(topo, src),
            GenericDest::Nearby(_) | GenericDest::Bernoulli(_) => DestSupport::Dense,
            GenericDest::Permutation(p) => p.support(topo, src),
            GenericDest::Hotspot(h) => h.support(topo, src),
            GenericDest::Matrix(m) => m.support(topo, src),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    /// Every supported `(topology, kind)` pair must be a bijection.
    fn assert_bijection<T: PatternTopology>(topo: &T, kind: PermutationKind) {
        let mut seen = vec![false; topo.num_nodes()];
        for v in topo.nodes() {
            let d = topo.permutation_target(kind, v);
            assert!(d.index() < topo.num_nodes(), "{kind}: {v} -> {d}");
            assert!(!seen[d.index()], "{kind}: two sources map to {d}");
            seen[d.index()] = true;
        }
    }

    #[test]
    fn mesh_permutations_are_bijections() {
        let m = Mesh2D::square(8);
        for kind in PermutationKind::ALL {
            m.supports_permutation(kind).unwrap();
            assert_bijection(&m, kind);
        }
    }

    #[test]
    fn torus_and_kd_and_hypercube_permutations_are_bijections() {
        let t = Torus2D::new(4);
        let h = Hypercube::new(6);
        let kd = MeshKD::new(&[4, 4, 4]);
        for kind in PermutationKind::ALL {
            for result in [
                t.supports_permutation(kind),
                h.supports_permutation(kind),
                kd.supports_permutation(kind),
            ] {
                result.unwrap();
            }
            assert_bijection(&t, kind);
            assert_bijection(&h, kind);
            assert_bijection(&kd, kind);
        }
    }

    #[test]
    fn transpose_swaps_mesh_coordinates() {
        let m = Mesh2D::square(5);
        let d = m.permutation_target(PermutationKind::Transpose, m.node(1, 3));
        assert_eq!(m.coords(d), (3, 1));
        // Diagonal nodes are fixed points.
        let fixed = m.permutation_target(PermutationKind::Transpose, m.node(2, 2));
        assert_eq!(m.coords(fixed), (2, 2));
    }

    #[test]
    fn bit_reversal_reverses_each_axis() {
        let m = Mesh2D::square(8); // 3 bits per axis
        let d = m.permutation_target(PermutationKind::BitReversal, m.node(1, 6));
        // rev3(1) = 4, rev3(6 = 110b) = 011b = 3.
        assert_eq!(m.coords(d), (4, 3));
    }

    #[test]
    fn bit_complement_reflects_through_the_center() {
        let m = Mesh2D::rect(3, 5);
        let d = m.permutation_target(PermutationKind::BitComplement, m.node(0, 1));
        assert_eq!(m.coords(d), (2, 3));
    }

    #[test]
    fn hypercube_complement_is_all_bits() {
        let h = Hypercube::new(5);
        let d = h.permutation_target(PermutationKind::BitComplement, NodeId(0b10110));
        assert_eq!(d, NodeId(0b01001));
        assert_eq!(h.distance(NodeId(0b10110), d), 5);
    }

    #[test]
    fn unsupported_permutations_are_rejected() {
        // Non-square transpose.
        assert!(Mesh2D::rect(3, 5)
            .supports_permutation(PermutationKind::Transpose)
            .is_err());
        // Non-power-of-two bit reversal.
        assert!(Mesh2D::square(5)
            .supports_permutation(PermutationKind::BitReversal)
            .is_err());
        // Identity bit reversal.
        assert!(Mesh2D::square(2)
            .supports_permutation(PermutationKind::BitReversal)
            .is_err());
        // Odd-dimension hypercube transpose.
        assert!(Hypercube::new(5)
            .supports_permutation(PermutationKind::Transpose)
            .is_err());
        // Butterfly rejects everything.
        assert!(Butterfly::new(3)
            .supports_permutation(PermutationKind::Transpose)
            .is_err());
        // But complements exist everywhere else, even rectangles.
        assert!(Mesh2D::rect(3, 5)
            .supports_permutation(PermutationKind::BitComplement)
            .is_ok());
    }

    #[test]
    fn permutation_sampler_is_deterministic_and_weighted() {
        let m = Mesh2D::square(4);
        let p = PermutationDest::new(&m, PermutationKind::Transpose).unwrap();
        let mut r = rng();
        let src = m.node(1, 2);
        let d = p.sample(&m, src, &mut r);
        assert_eq!(m.coords(d), (2, 1));
        let total: f64 = m.nodes().map(|x| p.weight(&m, src, x)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(p.weight(&m, src, d), 1.0);
    }

    #[test]
    fn hotspot_weight_sums_to_one_and_concentrates() {
        let m = Mesh2D::square(5);
        let hot = m.node(2, 2);
        let h = HotspotDest::new(hot, 0.3);
        let src = m.node(0, 0);
        let total: f64 = m.nodes().map(|x| h.weight(&m, src, x)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(h.weight(&m, src, hot) > 0.3);
    }

    #[test]
    fn hotspot_sampling_matches_weights() {
        let m = Mesh2D::square(4);
        let hot = m.node(1, 1);
        let h = HotspotDest::new(hot, 0.4);
        let mut r = rng();
        let trials = 120_000;
        let mut counts = vec![0u32; m.num_nodes()];
        for _ in 0..trials {
            counts[h.sample(&m, m.node(0, 3), &mut r).index()] += 1;
        }
        for d in m.nodes() {
            let expect = h.weight(&m, m.node(0, 3), d);
            let got = f64::from(counts[d.index()]) / f64::from(trials);
            assert!((got - expect).abs() < 0.01, "dst {d}: {got} vs {expect}");
        }
    }

    #[test]
    fn matrix_rejects_bad_shapes_and_values() {
        assert!(MatrixDest::from_rows(&[]).is_err());
        assert!(MatrixDest::from_rows(&[vec![1.0, 0.0]]).is_err());
        assert!(MatrixDest::from_rows(&[vec![1.0, -1.0], vec![0.0, 0.0]]).is_err());
        assert!(MatrixDest::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]).is_err());
        assert!(MatrixDest::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).is_ok());
    }

    #[test]
    fn central_node_is_the_middle_coordinate() {
        assert_eq!(
            Mesh2D::square(8).central_node(),
            Mesh2D::square(8).node(4, 4)
        );
        assert_eq!(
            Mesh2D::rect(3, 5).central_node(),
            Mesh2D::rect(3, 5).node(1, 2)
        );
        assert_eq!(Torus2D::new(5).central_node(), Torus2D::new(5).node(2, 2));
        let kd = MeshKD::new(&[3, 4, 5]);
        assert_eq!(kd.central_node(), kd.node(&[1, 2, 2]));
    }

    #[test]
    fn matrix_rounding_never_leaks_into_zero_weight_tails() {
        // Nine equal entries then a zero: the cumulative sum of 1/9 nine
        // times carries rounding error, and the clamp must close it at
        // the last *positive* entry so index 9 (weight 0) is unreachable.
        let n = 10;
        let mut row = vec![0.1; n];
        row[n - 1] = 0.0;
        let rows = vec![row; n];
        let mx = MatrixDest::from_rows(&rows).unwrap();
        let topo = Mesh2D::rect(2, 5);
        assert_eq!(mx.weight(&topo, NodeId(0), NodeId(9)), 0.0);
        let mut r = rng();
        for _ in 0..20_000 {
            let d = mx.sample(&topo, NodeId(0), &mut r);
            assert_ne!(d, NodeId(9), "sampled a zero-weight destination");
        }
    }

    /// `support()` must reproduce `weight()` exactly at every destination:
    /// `weight(src, dst) = uniform/N + Σ matching point masses`.
    fn assert_support_matches_weights<T, D>(topo: &T, dest: &D)
    where
        T: Topology,
        D: DestSampler<T>,
    {
        for src in topo.nodes() {
            let DestSupport::Sparse { points, uniform } = dest.support(topo, src) else {
                panic!("expected sparse support at {src}");
            };
            let base = uniform / topo.num_nodes() as f64;
            for dst in topo.nodes() {
                let mass: f64 = points
                    .iter()
                    .filter(|&&(d, _)| d == dst)
                    .map(|&(_, w)| w)
                    .sum();
                let got = base + mass;
                let want = dest.weight(topo, src, dst);
                assert!(
                    (got - want).abs() < 1e-15,
                    "src {src}, dst {dst}: support gives {got}, weight gives {want}"
                );
            }
        }
    }

    #[test]
    fn sparse_supports_reproduce_the_weights() {
        let m = Mesh2D::square(4);
        for kind in PermutationKind::ALL {
            let p = PermutationDest::new(&m, kind).unwrap();
            assert_support_matches_weights(&m, &p);
            assert_support_matches_weights(&m, &GenericDest::Permutation(p));
        }
        let hot = HotspotDest::new(m.node(1, 1), 0.3);
        assert_support_matches_weights(&m, &hot);
        assert_support_matches_weights(&m, &GenericDest::Hotspot(hot));
        let rows = vec![
            vec![0.0, 2.0, 1.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.25, 0.25, 0.25, 0.25],
        ];
        let mx = MatrixDest::from_rows(&rows).unwrap();
        let small = Mesh2D::square(2);
        assert_support_matches_weights(&small, &mx);
        assert_support_matches_weights(&small, &GenericDest::Matrix(mx));
        // The default implementation stays dense.
        assert_eq!(
            crate::dest::UniformDest.support(&m, m.node(0, 0)),
            DestSupport::Sparse {
                points: Vec::new(),
                uniform: 1.0
            }
        );
    }

    #[test]
    fn silent_sources_counts_all_zero_rows() {
        let rows = vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0],
        ];
        let mx = MatrixDest::from_rows(&rows).unwrap();
        assert_eq!(mx.silent_sources(), 2);
        let dense = MatrixDest::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        assert_eq!(dense.silent_sources(), 0);
    }

    #[test]
    fn matrix_sampling_matches_row_distribution() {
        let m = Mesh2D::square(2); // 4 nodes
        let rows = vec![
            vec![0.0, 2.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0], // silent source
            vec![0.25, 0.25, 0.25, 0.25],
        ];
        let mx = MatrixDest::from_rows(&rows).unwrap();
        let src = NodeId(0);
        let total: f64 = m.nodes().map(|d| mx.weight(&m, src, d)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((mx.weight(&m, src, NodeId(1)) - 0.5).abs() < 1e-12);
        let mut r = rng();
        let trials = 80_000;
        let mut counts = [0u32; 4];
        for _ in 0..trials {
            counts[mx.sample(&m, src, &mut r).index()] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!((f64::from(counts[1]) / f64::from(trials) - 0.5).abs() < 0.01);
        // Silent sources fall back to self-packets.
        assert_eq!(mx.sample(&m, NodeId(2), &mut r), NodeId(2));
        assert_eq!(mx.weight(&m, NodeId(2), NodeId(0)), 0.0);
    }

    /// Draws `n` destinations per source from each sampler on one RNG
    /// stream each, and compares draws and weights.
    fn assert_same_stream<T, A, B>(topo: &T, a: &A, b: &B)
    where
        T: PatternTopology,
        A: DestSampler<T>,
        B: DestSampler<T>,
    {
        let (mut ra, mut rb) = (rng(), rng());
        for src in topo.nodes() {
            for _ in 0..8 {
                assert_eq!(a.sample(topo, src, &mut ra), b.sample(topo, src, &mut rb));
            }
            for dst in topo.nodes() {
                let (wa, wb) = (a.weight(topo, src, dst), b.weight(topo, src, dst));
                assert_eq!(wa.to_bits(), wb.to_bits());
            }
        }
    }

    #[test]
    fn generic_variants_draw_the_wrapped_samplers_values() {
        let mesh = Mesh2D::rect(4, 5);
        let cube = Hypercube::new(5);
        assert_same_stream(&mesh, &GenericDest::Uniform, &UniformDest);
        assert_same_stream(&cube, &GenericDest::Uniform, &UniformDest);
        let walk = NearbyWalk::new(0.4);
        assert_same_stream(&mesh, &GenericDest::Nearby(walk), &walk);
        let flips = BernoulliDest::new(0.3);
        assert_same_stream(&cube, &GenericDest::Bernoulli(flips), &flips);
    }
}
