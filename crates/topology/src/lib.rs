//! Directed-edge network topologies for greedy-routing analysis.
//!
//! This crate provides the graph substrate of the `meshbound` workspace: the
//! two-dimensional array network of Mitzenmacher's paper ([`Mesh2D`]), plus
//! the other topologies the paper simulates or bounds — the torus
//! ([`Torus2D`], §6), the hypercube and butterfly ([`Hypercube`],
//! [`Butterfly`], §4.5) and `k`-dimensional meshes ([`MeshKD`], §5.2).
//!
//! All topologies use **directed** edges: each neighbouring pair of nodes is
//! joined by two edges, one per direction, exactly as in the paper's model
//! where each edge is an independent FIFO server. Nodes and edges are indexed
//! densely by [`NodeId`] and [`EdgeId`] so that simulators can use flat
//! arrays for per-edge state.
//!
//! The [`layering`] module implements the Lemma 2 edge labelling that makes
//! the array a layered network under greedy routing (the paper's Figure 1),
//! and [`render`] draws meshes with per-edge annotations for regenerating the
//! paper's figures in text form.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod butterfly;
pub mod hypercube;
pub mod ids;
pub mod layering;
pub mod mesh;
pub mod meshkd;
pub mod partition;
pub mod render;
pub mod torus;
pub mod traits;

pub use butterfly::Butterfly;
pub use hypercube::Hypercube;
pub use ids::{EdgeId, NodeId};
pub use layering::{check_layered, lemma2_label};
pub use mesh::{Direction, Mesh2D};
pub use meshkd::MeshKD;
pub use partition::Partition;
pub use torus::Torus2D;
pub use traits::Topology;
