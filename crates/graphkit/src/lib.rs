#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # graphkit — weighted-graph substrate
//!
//! The foundation every other crate in this workspace builds on:
//!
//! * [`Graph`] / [`GraphBuilder`] — frozen CSR undirected weighted graphs
//!   with deterministic port numbering;
//! * [`mod@dijkstra`] — single-source shortest paths and the reusable
//!   [`DijkstraScratch`] behind every bounded ball `B(u, r)`, with
//!   `(distance, id)` tie-breaking; its `run_where` edge filter keeps a
//!   search inside a member set, so covers of an induced subgraph run
//!   in the host graph without extracting it;
//! * [`Tree`] — rooted weighted trees over graph-node subsets (landmark
//!   shortest-path trees, cover trees);
//! * [`mod@delta`] — churn primitives: [`GraphDelta`] batches applied onto
//!   a frozen graph, plus the exact dirty-set / proximity analysis that
//!   incremental repair builds on;
//! * [`metrics`] — parallel APSP, diameter, aspect ratio Δ;
//! * [`truth`] — [`truth::OnDemandTruth`], exact distances from lazy
//!   per-source Dijkstra (bounded row cache + parallel pair prefetch)
//!   for workloads where the Θ(n²) matrix is unaffordable;
//! * [`gen`] — synthetic workload families, including the
//!   exponential-weight graphs (Δ ≈ 2^40) that the scale-free
//!   experiments require;
//! * [`bits`] — the [`bits::StorageCost`] audit trait behind every
//!   "bits per node" number in EXPERIMENTS.md.
//!
//! ```
//! use graphkit::{gen, metrics, NodeId};
//!
//! let g = gen::Family::Grid.generate(64, 1);
//! let m = metrics::apsp(&g);
//! assert!(m.connected());
//! let sp = graphkit::dijkstra::dijkstra(&g, NodeId(0));
//! assert_eq!(sp.d(NodeId(0)), 0);
//! ```

pub mod bits;
pub mod delta;
pub mod digraph;
pub mod dijkstra;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod io;
pub mod metrics;
pub mod subgraph;
pub mod tree;
pub mod truth;
pub mod wire;

pub use bits::StorageCost;
pub use delta::{apply_deltas, delta_impact, DeltaImpact, GraphDelta};
pub use digraph::{DiGraph, DiGraphBuilder};
pub use dijkstra::{dijkstra, dijkstra_bounded, DijkstraScratch, Sssp};
pub use graph::{graph_from_edges, Graph, GraphBuilder};
pub use ids::{cost_add, octave_radius, Cost, NodeId, Weight, INFINITY};
pub use metrics::{apsp, diameter_matrix_free, DistMatrix};
pub use subgraph::components;
pub use tree::{Tree, TreeIx, TreeScratch};
pub use truth::OnDemandTruth;
