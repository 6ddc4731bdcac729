//! B4 — Thorup–Zwick labeled compact routing (\[29\], stretch `4k−5`).
//!
//! The labeled-model reference point of the paper's related-work
//! frontier (§1.3): node names are chosen by the scheme designer, so a
//! destination's *label* can carry topology information — which is
//! exactly what name-independent schemes are not allowed to assume.
//!
//! Construction (the distance-oracle machinery of \[29, 30\]):
//!
//! * sampled hierarchy `V = A₀ ⊇ A₁ ⊇ … ⊇ A_{k−1}` (prob `n^{−1/k}`);
//! * pivots `p_i(v)` = closest member of `A_i`;
//! * clusters `C(w) = {v : d(w,v) < d(v, p_{i+1}(v))}` for
//!   `w ∈ A_i \ A_{i+1}`, and `C(w) = V` for `w ∈ A_{k−1}`; each node
//!   belongs to `Õ(k·n^{1/k})` clusters w.h.p.;
//! * every cluster carries a shortest-path tree with the Lemma 5
//!   labeled tree-routing scheme; a node stores `µ(T(w), ·)` for every
//!   cluster containing it;
//! * `label(v)` = the pivots `p_i(v)` and tree-routing labels
//!   `λ(T(p_i(v)), v)` for the levels whose cluster contains `v`.
//!
//! Routing picks the smallest level whose cluster contains both
//! endpoints (level `k−1` always does) and routes within that tree.

use std::collections::HashMap;

use graphkit::bits::{bits_for_distance, bits_for_node};
use graphkit::{dijkstra, DistMatrix, Graph, NodeId, Tree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim::{RouteTrace, Router};
use treeroute::labeled::{LabeledRead, LabeledTree, RouteLabel};

/// A cluster tree with its host-id index.
struct ClusterTree {
    lt: LabeledTree,
    /// host id -> tree ix (dense; u32::MAX absent).
    ix_of: Vec<u32>,
}

/// The destination label of one node.
#[derive(Clone, Debug)]
pub struct TzLabel {
    /// `(level, pivot id, λ(T(pivot), v))` for each level whose cluster
    /// contains the node, ascending by level.
    pub entries: Vec<(usize, u32, RouteLabel)>,
}

/// The Thorup–Zwick labeled scheme.
pub struct TzLabeled {
    g: Graph,
    k: usize,
    /// Cluster trees keyed by landmark id.
    clusters: HashMap<u32, ClusterTree>,
    /// Per-node labels (the "addresses" of the labeled model).
    labels: Vec<TzLabel>,
    /// Per-node cluster memberships (sorted landmark ids).
    member_of: Vec<Vec<u32>>,
}

impl TzLabeled {
    /// Build with APSP computed internally.
    pub fn build(g: Graph, k: usize, seed: u64) -> Self {
        let d = graphkit::apsp(&g);
        Self::build_with_matrix(g, &d, k, seed)
    }

    /// Build reusing a distance matrix.
    pub fn build_with_matrix(g: Graph, d: &DistMatrix, k: usize, seed: u64) -> Self {
        assert!(k >= 1);
        assert!(d.connected(), "TZ requires a connected graph");
        let n = g.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = (n as f64).powf(-1.0 / k as f64);
        // A_0 ⊇ A_1 ⊇ … ⊇ A_{k−1}; force A_{k−1} nonempty.
        let mut levels: Vec<Vec<u32>> = vec![(0..n as u32).collect()];
        for _ in 1..k {
            let prev = levels.last().unwrap();
            let next: Vec<u32> = prev.iter().copied().filter(|_| rng.gen_bool(p)).collect();
            levels.push(next);
        }
        if levels[k - 1].is_empty() {
            let seed_node = levels.iter().rev().find(|l| !l.is_empty()).map(|l| l[0]).unwrap_or(0);
            for level in levels.iter_mut().skip(1) {
                if level.is_empty() {
                    level.push(seed_node);
                }
            }
        }
        // Level of each landmark: the max i with w ∈ A_i.
        let mut level_of = vec![0usize; n];
        for (i, level) in levels.iter().enumerate() {
            for &w in level {
                level_of[w as usize] = i;
            }
        }
        // Pivots p_i(v) and pivot distances.
        let pivot = |v: u32, i: usize| -> u32 {
            *levels[i]
                .iter()
                .min_by_key(|&&w| (d.d(NodeId(v), NodeId(w)), w))
                .expect("level nonempty")
        };
        let mut pivots = vec![[0u32; 8]; n]; // k ≤ 8 supported
        assert!(k <= 8, "k > 8 not supported by this baseline");
        for v in 0..n as u32 {
            #[allow(clippy::needless_range_loop)] // parallel-array indexing by level
            for i in 0..k {
                pivots[v as usize][i] = pivot(v, i);
            }
        }
        // Cluster membership: v ∈ C(w), w at level i < k−1, iff
        // d(w,v) < d(v, p_{i+1}(v)); top-level clusters span V.
        let in_cluster = |w: u32, v: u32| -> bool {
            if w == v {
                return true;
            }
            let i = level_of[w as usize];
            if i >= k - 1 {
                return true;
            }
            let pv = pivots[v as usize][i + 1];
            d.d(NodeId(w), NodeId(v)) < d.d(NodeId(v), NodeId(pv))
        };
        // Build cluster trees for every landmark that is someone's pivot
        // or needed at the top level. (Clusters of level-0 non-pivot
        // landmarks are singletons and never used for routing.)
        let mut needed: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            #[allow(clippy::needless_range_loop)] // parallel-array indexing by level
            for i in 0..k {
                needed.push(pivots[v as usize][i]);
            }
        }
        needed.sort_unstable();
        needed.dedup();
        let built: Vec<(u32, ClusterTree)> = graphkit::metrics::par_per_node(&g, |u| {
            if needed.binary_search(&u.0).is_err() {
                return None;
            }
            let w = u.0;
            let members: Vec<NodeId> =
                (0..n as u32).filter(|&v| in_cluster(w, v)).map(NodeId).collect();
            let sp = dijkstra::dijkstra(&g, NodeId(w));
            let lt = LabeledTree::new(Tree::from_sssp(&g, &sp, members));
            let ix_of = lt.tree().index_map(n);
            Some((w, ClusterTree { lt, ix_of }))
        })
        .into_iter()
        .flatten()
        .collect();
        let clusters: HashMap<u32, ClusterTree> = built.into_iter().collect();
        // Labels + memberships.
        let mut labels = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut entries = Vec::new();
            #[allow(clippy::needless_range_loop)] // parallel-array indexing by level
            for i in 0..k {
                let w = pivots[v as usize][i];
                if let Some(ct) = clusters.get(&w) {
                    let ix = ct.ix_of[v as usize];
                    if ix != u32::MAX {
                        entries.push((i, w, ct.lt.label(ix).to_owned()));
                    }
                }
            }
            assert!(
                entries.iter().any(|(i, _, _)| *i == k - 1),
                "top-level cluster must contain every node"
            );
            labels.push(TzLabel { entries });
        }
        let mut member_of: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (&w, ct) in &clusters {
            for v in 0..n as u32 {
                if ct.ix_of[v as usize] != u32::MAX {
                    member_of[v as usize].push(w);
                }
            }
        }
        for m in &mut member_of {
            m.sort_unstable();
        }
        TzLabeled { g, k, clusters, labels, member_of }
    }

    /// The label (address) of `v` — what a sender must be told.
    pub fn label(&self, v: NodeId) -> &TzLabel {
        &self.labels[v.idx()]
    }

    /// Bits of the label of `v` (reported by experiment X2).
    pub fn label_bits(&self, v: NodeId) -> u64 {
        let id = bits_for_node(self.g.n());
        self.labels[v.idx()]
            .entries
            .iter()
            .map(|(_, w, l)| {
                let ct = &self.clusters[w];
                let ix = ct.ix_of[v.idx()];
                8 + id + ct.lt.label_bits(ix.min(ct.lt.tree().size() as u32 - 1)) + {
                    let _ = l;
                    0
                }
            })
            .sum()
    }

    /// The trade-off parameter.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Router for TzLabeled {
    fn route(&self, src: NodeId, dst: NodeId) -> RouteTrace {
        if src == dst {
            return RouteTrace::trivial(src);
        }
        let label = &self.labels[dst.idx()];
        // Smallest level whose pivot cluster contains both endpoints.
        for (_, w, tree_label) in &label.entries {
            let ct = &self.clusters[w];
            let from = ct.ix_of[src.idx()];
            if from == u32::MAX {
                continue;
            }
            let (tpath, cost) =
                ct.lt.route(from, tree_label.as_ref()).expect("label must route in its tree");
            let path: Vec<NodeId> = tpath.iter().map(|&t| ct.lt.tree().graph_id(t)).collect();
            return RouteTrace { path, cost, delivered: true };
        }
        unreachable!("top-level cluster contains every pair");
    }

    fn name(&self) -> &str {
        "thorup-zwick-labeled"
    }

    fn node_storage_bits(&self, v: NodeId) -> u64 {
        let id = bits_for_node(self.g.n());
        let mut bits = self.k as u64 * (id + bits_for_distance(1 << 20)); // pivot list
        for w in &self.member_of[v.idx()] {
            let ct = &self.clusters[w];
            let ix = ct.ix_of[v.idx()];
            bits += id + ct.lt.local_bits(ix);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;
    use graphkit::metrics::apsp;
    use sim::{evaluate, pairs, StorageAudit};

    #[test]
    fn delivers_all_pairs() {
        for fam in [Family::Geometric, Family::ErdosRenyi] {
            let g = fam.generate(90, 60);
            let d = apsp(&g);
            for k in [1usize, 2, 3] {
                let r = TzLabeled::build_with_matrix(g.clone(), &d, k, 60);
                let stats = evaluate(&g, &d, &r, &pairs::all(g.n()));
                assert_eq!(stats.failures, 0, "{} k={k}", fam.label());
                // Stretch bound: generous 4k−5-ish envelope (+slack for
                // the simplified level selection).
                let bound = (4 * k) as f64;
                assert!(
                    stats.max_stretch <= bound,
                    "{} k={k}: stretch {} > {bound}",
                    fam.label(),
                    stats.max_stretch
                );
            }
        }
    }

    #[test]
    fn k1_is_shortest_path() {
        // k = 1: single level, every cluster = V, pivot = closest member
        // of A_0 = v itself; labels route exactly.
        let g = Family::Grid.generate(49, 61);
        let d = apsp(&g);
        let r = TzLabeled::build_with_matrix(g.clone(), &d, 1, 61);
        let stats = evaluate(&g, &d, &r, &pairs::all(g.n()));
        assert!(stats.max_stretch < 1.0 + 1e-9);
    }

    #[test]
    fn storage_shrinks_with_k() {
        let g = Family::Geometric.generate(150, 62);
        let d = apsp(&g);
        let r1 = TzLabeled::build_with_matrix(g.clone(), &d, 1, 62);
        let r3 = TzLabeled::build_with_matrix(g.clone(), &d, 3, 62);
        let a1 = StorageAudit::collect(&r1, g.n());
        let a3 = StorageAudit::collect(&r3, g.n());
        assert!(
            a3.mean_bits() < a1.mean_bits() / 2.0,
            "k=3 should be much smaller: {} vs {}",
            a3.mean_bits(),
            a1.mean_bits()
        );
    }

    #[test]
    fn labels_are_polylog() {
        let g = Family::ErdosRenyi.generate(120, 63);
        let d = apsp(&g);
        let r = TzLabeled::build_with_matrix(g.clone(), &d, 3, 63);
        for v in 0..g.n() as u32 {
            assert!(!r.label(NodeId(v)).entries.is_empty());
            // O(k · log² n) bits with constant 8.
            let logn = (g.n() as f64).log2();
            assert!(
                (r.label_bits(NodeId(v)) as f64) <= 8.0 * 3.0 * logn * logn,
                "label of {v} too big: {}",
                r.label_bits(NodeId(v))
            );
        }
    }

    #[test]
    fn exp_ring_works() {
        let g = Family::ExpRing.generate(50, 64);
        let d = apsp(&g);
        let r = TzLabeled::build_with_matrix(g.clone(), &d, 2, 64);
        let stats = evaluate(&g, &d, &r, &pairs::all(g.n()));
        assert_eq!(stats.failures, 0);
    }
}
