#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # compact-routing — scale-free name-independent compact routing
//!
//! A from-scratch Rust reproduction of **"On Space-Stretch Trade-Offs:
//! Upper Bounds"** (Ittai Abraham, Cyril Gavoille, Dahlia Malkhi —
//! SPAA 2006): for every weighted graph and every `k ≥ 1`, a
//! name-independent routing scheme with stretch `O(k)` and
//! `Õ(n^{1/k})`-bit tables whose size is **independent of the aspect
//! ratio Δ** — the first *scale-free* scheme with an asymptotically
//! optimal space-stretch trade-off.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graphkit`] — CSR weighted graphs, Dijkstra, metric balls, trees,
//!   parallel APSP, workload generators;
//! * [`decomposition`] — the sparse/dense neighborhood decomposition
//!   (Definitions 1–2, Lemma 2);
//! * [`landmarks`] — the landmark hierarchy `C₀ ⊇ … ⊇ C_k` with
//!   per-instance verification of Claims 1–2;
//! * [`treeroute`] — labeled (Lemma 5), error-reporting name-independent
//!   (Lemma 4), and fixed-budget cover-tree (Lemma 7) tree routing;
//! * [`covers`] — Awerbuch–Peleg sparse tree covers (Lemma 6);
//! * [`routing_core`] — the assembled Theorem 1 scheme;
//! * [`baselines`] — shortest-path tables, the log Δ hierarchical
//!   scheme, exponential-stretch landmark chaining, Thorup–Zwick
//!   labeled routing;
//! * [`sim`] — trace validation, stretch evaluation, storage audits.
//!
//! ## Quickstart
//!
//! ```
//! use compact_routing::prelude::*;
//!
//! // A 2-D grid with unit weights.
//! let g = Family::Grid.generate(100, 7);
//! let d = graphkit::apsp(&g);
//!
//! // Build the scheme at k = 2 and route a message.
//! let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 42));
//! let trace = scheme.route(NodeId(0), NodeId(99));
//! assert!(trace.delivered);
//! let stretch = trace.cost as f64 / d.d(NodeId(0), NodeId(99)) as f64;
//! assert!(stretch < 24.0); // O(k) with the measured envelope 12k
//! ```

pub use baselines;
pub use covers;
pub use decomposition;
pub use graphkit;
pub use landmarks;
pub use routing_core;
pub use sim;
pub use treeroute;

/// The names most programs need.
pub mod prelude {
    pub use baselines::{HierarchicalScheme, LandmarkChaining, ShortestPathTables, TzLabeled};
    pub use graphkit::gen::Family;
    pub use graphkit::{Cost, Graph, GraphBuilder, NodeId, OnDemandTruth, Weight};
    pub use routing_core::{serve_batch, ForceMode, Scheme, SchemeParams, ServeReport};
    pub use sim::{
        evaluate, evaluate_lenient, evaluate_parallel, evaluate_parallel_lenient, pairs,
        GroundTruth, Router, StorageAudit, StretchStats,
    };
}
