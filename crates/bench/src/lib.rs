#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # routing-bench — the experiment harness
//!
//! One function per experiment in DESIGN.md §3's index; each takes the
//! shared [`RunConfig`] and returns a formatted table so the
//! `experiments` binary, the integration tests, and EXPERIMENTS.md all
//! draw from the same code. Run
//! `cargo run --release -p routing-bench --bin experiments -- all`
//! to regenerate everything.

pub mod experiments;
pub mod table;

pub use table::Table;

/// Knobs shared by every experiment runner — the CLI surface of the
/// `experiments` binary (`--quick`, `--pairs-sampled`, `--threads`).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunConfig {
    /// Shrink instance sizes (the mode the integration tests run).
    pub quick: bool,
    /// Override the sampled-pair budget of evaluation workloads.
    pub pairs_sampled: Option<usize>,
    /// Worker threads for evaluation and truth prefetch (0 = available
    /// parallelism).
    pub threads: usize,
}

impl RunConfig {
    /// Defaults with the given quick flag (auto threads).
    pub fn new(quick: bool) -> Self {
        RunConfig { quick, ..Default::default() }
    }
}

/// The experiment registry: (id, description, runner).
pub type Runner = fn(&RunConfig) -> String;

/// All experiments in DESIGN.md order.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        ("t1", "Theorem 1: stretch & storage vs k", experiments::t1),
        ("t2", "Theorem 1: storage breakdown by component", experiments::t2),
        ("f1", "Figure 1 / Lemma 2: dense neighborhoods", experiments::f1),
        ("f2", "Figure 2 / Lemma 3: sparse neighborhoods", experiments::f2),
        ("c1", "Claim 1: landmark hitting", experiments::c1),
        ("c2", "Claim 2: landmark sparsity", experiments::c2),
        ("l4", "Lemma 4: j-bounded tree searches", experiments::l4),
        ("l5", "Lemma 5: labeled tree routing", experiments::l5),
        ("l6", "Lemma 6: sparse tree covers", experiments::l6),
        ("l7", "Lemma 7: cover-tree routing", experiments::l7),
        ("sf", "Scale-free: storage vs aspect ratio", experiments::sf),
        ("x1", "O(2^k) vs O(k): stretch growth in k", experiments::x1),
        ("x2", "Space-stretch frontier across schemes", experiments::x2),
        ("a1", "Ablation: sparse-only / dense-only", experiments::a1),
        ("dx", "Directed extension (paper §4)", experiments::dx),
        ("sc", "Scaling: Theorem-1 construction & evaluation beyond the n² wall", experiments::sc),
        (
            "serve",
            "Serving: snapshot load + sharded query batches vs sp-tables",
            experiments::serve,
        ),
        ("churn", "Churn: stale vs repaired scheme across mutation epochs", experiments::churn),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn registry_ids_unique() {
        let reg = super::registry();
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert_eq!(before, 18);
    }
}
