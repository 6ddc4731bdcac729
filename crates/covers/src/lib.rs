#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # covers — sparse tree covers `TC_{k,ρ}(G)` (Lemma 6)
//!
//! The Awerbuch–Peleg sparse-partition construction (\[9\]) with the
//! cover-tree packaging of \[3\], used by the dense-level routing
//! strategy. For every weighted graph `G` and integers `k, ρ ≥ 1` it
//! produces a collection of rooted trees such that:
//!
//! 1. **Cover** — for every `v`, some tree fully contains `B(v, ρ)`
//!    (that tree is `v`'s *home tree*);
//! 2. **Sparse** — no node appears in more than `2k·n^{1/k}` trees;
//! 3. **Small radius** — every tree has `rad(T) ≤ (2k−1)·ρ`;
//! 4. **Small edges** — every tree edge has weight `≤ 2ρ`.
//!
//! The construction repeatedly grabs an unserved ball and inflates it
//! by merging the balls of unserved centers it contains, until the
//! node count stops growing by the factor `n^{1/k}`; the inflation can
//! repeat at most `k` times, which caps the radius. Each inflation
//! round's union of balls `Z` is one multi-source bounded Dijkstra from
//! every center merged so far, so a round costs one search over `Z`,
//! not one per merged ball. All four properties are *verified* per
//! instance ([`verify_cover`], test suite, experiment L6).
//!
//! The scheme covers the subgraph `G_i` induced by a member set `V_i`
//! at each dense scale; [`build_cover_within`] does so in the host
//! graph, with searches that never enter a node outside `V_i`.

use graphkit::ids::nth_root_ceil;
use graphkit::{Cost, DijkstraScratch, Graph, NodeId, Tree, TreeScratch, Weight, INFINITY};

/// A sparse tree cover of one graph.
#[derive(Clone, Debug)]
pub struct TreeCover {
    /// The cover radius parameter ρ.
    pub rho: u64,
    /// The trade-off parameter k.
    pub k: usize,
    /// The cover trees; `graph_id`s refer to the host graph.
    pub trees: Vec<Tree>,
    /// `home[v]` = index into `trees` of the tree containing `B(v, ρ)`;
    /// `u32::MAX` for a node outside the covered set
    /// ([`build_cover_within`]).
    pub home: Vec<u32>,
}

impl TreeCover {
    /// Number of trees containing node `v`.
    pub fn overlap(&self, v: NodeId) -> usize {
        self.trees.iter().filter(|t| t.find(v).is_some()).count()
    }

    /// The home tree of `v` (the tree covering `B(v, ρ)`). Panics for a
    /// node outside the covered set.
    pub fn home_tree(&self, v: NodeId) -> &Tree {
        &self.trees[self.home[v.idx()] as usize]
    }

    /// Largest tree radius in the cover.
    pub fn max_radius(&self) -> Cost {
        self.trees.iter().map(Tree::radius).max().unwrap_or(0)
    }

    /// Heaviest tree edge in the cover.
    pub fn max_edge(&self) -> Weight {
        self.trees.iter().map(Tree::max_edge).max().unwrap_or(0)
    }
}

/// Build `TC_{k,ρ}(G)`. The graph may be disconnected; each component
/// is covered independently (as the paper prescribes for the `G_i`).
pub fn build_cover(g: &Graph, k: usize, rho: u64) -> TreeCover {
    build_cover_within(g, &vec![true; g.n()], k, rho)
}

/// Build `TC_{k,ρ}(G[V_i])` for `V_i = {v : inside[v]}` without
/// extracting the induced subgraph: no search relaxes an edge into a
/// node outside `V_i`, so trees and `home` carry host ids. The
/// sparsity factor is `σ = ⌈|V_i|^{1/k}⌉`, and `home[v] = u32::MAX`
/// for every `v ∉ V_i`.
pub fn build_cover_within(g: &Graph, inside: &[bool], k: usize, rho: u64) -> TreeCover {
    assert!(k >= 1 && rho >= 1);
    assert_eq!(inside.len(), g.n(), "one membership flag per node");
    let n = g.n();
    let mut scratch = Scratch::new(n);
    let mut home = vec![u32::MAX; n];
    let mut trees: Vec<Tree> = Vec::new();
    if k == 1 {
        // Radius bound (2k−1)ρ = ρ forbids any inflation: the cover is
        // one tree per ball (overlap ≤ n = 2k·n^{1/k}/2 is within spec).
        for v in (0..n as u32).filter(|&v| inside[v as usize]) {
            let members = scratch.balls(g, inside, &[NodeId(v)], rho);
            home[v as usize] = trees.len() as u32;
            trees.push(scratch.cluster_tree(g, NodeId(v), &members, rho));
        }
        return TreeCover { rho, k, trees, home };
    }
    let size = inside.iter().filter(|&&b| b).count();
    let sigma = nth_root_ceil(size as u64, k as u32);
    // A node outside V_i counts as served: it is never a center.
    let mut served: Vec<bool> = inside.iter().map(|&b| !b).collect();
    // Process unserved centers in id order for determinism.
    for v in 0..n as u32 {
        if served[v as usize] {
            continue;
        }
        let (members, merged) =
            grow_cluster(g, inside, NodeId(v), rho, sigma, &mut served, &mut scratch);
        for w in merged {
            home[w.idx()] = trees.len() as u32;
        }
        trees.push(scratch.cluster_tree(g, NodeId(v), &members, rho));
    }
    debug_assert!((0..n).all(|v| inside[v] == (home[v] != u32::MAX)));
    TreeCover { rho, k, trees, home }
}

/// One Awerbuch–Peleg cluster: start from `B(v,ρ)`, repeatedly merge
/// the balls of *unserved* centers inside the current kernel `Y`, stop
/// when `|Z| ≤ σ·|Y|`. Merged centers are marked in `served`.
/// Returns the final member set `Z` and the centers whose balls were
/// merged.
fn grow_cluster(
    g: &Graph,
    inside: &[bool],
    v: NodeId,
    rho: u64,
    sigma: u64,
    served: &mut [bool],
    scratch: &mut Scratch,
) -> (Vec<u32>, Vec<NodeId>) {
    let mut z = scratch.balls(g, inside, &[v], rho);
    let mut merged: Vec<NodeId> = Vec::new();
    loop {
        // Y = Z; merge every unserved center inside it.
        let (y_len, before) = (z.len(), merged.len());
        for &w in &z {
            if !served[w as usize] {
                served[w as usize] = true;
                merged.push(NodeId(w));
            }
        }
        if merged.len() == before {
            // Nothing new to absorb: Z is stable.
            return (z, merged);
        }
        z = scratch.balls(g, inside, &merged, rho);
        // Stop when the n^{1/k} growth failed: |Z| ≤ σ·|Y|.
        if z.len() as u64 <= sigma.saturating_mul(y_len as u64) {
            return (z, merged);
        }
    }
}

/// Reusable workspace of one cover build: graphkit's Dijkstra and tree
/// extractor, plus a member bitmap set and cleared per cluster.
struct Scratch {
    dijkstra: DijkstraScratch,
    tree: TreeScratch,
    member: Vec<bool>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            dijkstra: DijkstraScratch::new(n),
            tree: TreeScratch::new(n),
            member: vec![false; n],
        }
    }

    /// Members of `∪_{c ∈ centers} B(c, ρ)` in the subgraph induced by
    /// `inside`, in settle order: one multi-source run.
    fn balls(&mut self, g: &Graph, inside: &[bool], centers: &[NodeId], rho: u64) -> Vec<u32> {
        self.dijkstra.run_where(g, centers, rho, usize::MAX, |v, _| inside[v.idx()]);
        self.dijkstra.settled().iter().map(|&(_, v)| v).collect()
    }

    /// Shortest-path tree spanning a cluster, rooted at its seed, built
    /// in the subgraph induced by the members *with edges ≤ 2ρ* (which
    /// is what bounds `maxE(T)`). Falls back to unfiltered induced
    /// edges when some member is unreachable through light edges (never
    /// observed on the workloads; the verifier would flag the resulting
    /// heavy edge). Nodes are ordered by `(distance, id)`.
    fn cluster_tree(&mut self, g: &Graph, root: NodeId, members: &[u32], rho: u64) -> Tree {
        let Scratch { dijkstra, tree, member } = self;
        for &m in members {
            member[m as usize] = true;
        }
        let light = rho.saturating_mul(2);
        dijkstra.run_where(g, &[root], INFINITY, usize::MAX, |v, w| member[v.idx()] && w <= light);
        if dijkstra.settled().len() < members.len() {
            dijkstra.run_where(g, &[root], INFINITY, usize::MAX, |v, _| member[v.idx()]);
        }
        for &m in members {
            member[m as usize] = false;
        }
        let settled = dijkstra.settled().iter().map(|&(_, v)| NodeId(v));
        Tree::from_dist_parents_with(tree, g, root, dijkstra.dists(), dijkstra.parents(), settled)
    }
}

/// Result of checking Lemma 6's four properties.
#[derive(Clone, Debug, Default)]
pub struct CoverReport {
    /// Nodes whose ball `B(v,ρ)` is *not* inside their home tree.
    pub cover_violations: usize,
    /// Largest number of trees any node belongs to.
    pub max_overlap: usize,
    /// The sparsity bound `2k·n^{1/k}`.
    pub overlap_bound: u64,
    /// Largest tree radius.
    pub max_radius: Cost,
    /// The radius bound `(2k−1)·ρ`.
    pub radius_bound: Cost,
    /// Heaviest tree edge.
    pub max_edge: Weight,
    /// The edge bound `2ρ`.
    pub edge_bound: Weight,
}

impl CoverReport {
    /// All four properties hold?
    pub fn ok(&self) -> bool {
        self.cover_violations == 0
            && (self.max_overlap as u64) <= self.overlap_bound
            && self.max_radius <= self.radius_bound
            && self.max_edge <= self.edge_bound
    }
}

/// Check all four Lemma 6 properties of a cover. A node whose `home`
/// is `u32::MAX` lies outside the covered set `V_i`
/// ([`build_cover_within`]): it is skipped, balls stay inside `V_i`,
/// and the sparsity bound uses `|V_i|`.
///
/// The cover check runs tree by tree. A tree's nodes are marked in one
/// bitmap, and the union of the balls of the nodes it is home to is
/// one multi-source search, which must stay inside the marks. Only
/// when it leaves them is each of those balls searched on its own, to
/// count the nodes at fault. A valid cover thus costs one search per
/// tree, over at most the tree's nodes.
pub fn verify_cover(g: &Graph, cover: &TreeCover) -> CoverReport {
    let n = g.n();
    let k = cover.k;
    let inside: Vec<bool> = cover.home.iter().map(|&h| h != u32::MAX).collect();
    let size = inside.iter().filter(|&&b| b).count();
    let mut report = CoverReport {
        overlap_bound: 2 * k as u64 * nth_root_ceil(size as u64, k as u32),
        radius_bound: (2 * k as u64 - 1) * cover.rho,
        edge_bound: 2 * cover.rho,
        max_radius: cover.max_radius(),
        max_edge: cover.max_edge(),
        ..Default::default()
    };
    // Cover: B(v,ρ) ⊆ home tree, grouped by home tree.
    let home = |v: &NodeId| cover.home[v.idx()];
    let mut owners: Vec<NodeId> = g.nodes().filter(|&v| inside[v.idx()]).collect();
    owners.sort_by_key(home);
    let mut scratch = Scratch::new(n);
    let escapes = |s: &mut Scratch, centers: &[NodeId]| {
        let ball = s.balls(g, &inside, centers, cover.rho);
        ball.iter().any(|&m| !s.member[m as usize])
    };
    for group in owners.chunk_by(|a, b| home(a) == home(b)) {
        let Some(tree) = cover.trees.get(home(&group[0]) as usize) else {
            report.cover_violations += group.len();
            continue;
        };
        for &gid in tree.graph_ids() {
            scratch.member[gid as usize] = true;
        }
        if escapes(&mut scratch, group) {
            for &v in group {
                report.cover_violations += escapes(&mut scratch, &[v]) as usize;
            }
        }
        for &gid in tree.graph_ids() {
            scratch.member[gid as usize] = false;
        }
    }
    // Sparsity.
    let mut count = vec![0usize; n];
    for t in &cover.trees {
        for &gid in t.graph_ids() {
            count[gid as usize] += 1;
        }
    }
    report.max_overlap = count.into_iter().max().unwrap_or(0);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{preferential_attachment, Family, WeightDist};
    use graphkit::metrics::apsp;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check(fam: Family, n: usize, k: usize, rho: u64, seed: u64) -> CoverReport {
        let g = fam.generate(n, seed);
        let cover = build_cover(&g, k, rho);
        let rep = verify_cover(&g, &cover);
        assert_eq!(rep.cover_violations, 0, "{}: cover violated", fam.label());
        assert!(
            rep.max_radius <= rep.radius_bound,
            "{}: rad {} > {}",
            fam.label(),
            rep.max_radius,
            rep.radius_bound
        );
        assert!(
            rep.max_edge <= rep.edge_bound,
            "{}: edge {} > {}",
            fam.label(),
            rep.max_edge,
            rep.edge_bound
        );
        assert!(
            rep.max_overlap as u64 <= rep.overlap_bound,
            "{}: overlap {} > {}",
            fam.label(),
            rep.max_overlap,
            rep.overlap_bound
        );
        rep
    }

    #[test]
    fn lemma6_on_rings() {
        for rho in [1u64, 2, 8] {
            check(Family::Ring, 80, 2, rho, 61);
            check(Family::Ring, 80, 3, rho, 61);
        }
    }

    #[test]
    fn lemma6_on_grids() {
        for k in [1usize, 2, 3] {
            check(Family::Grid, 100, k, 3, 62);
        }
    }

    #[test]
    fn lemma6_on_er_and_geometric() {
        check(Family::ErdosRenyi, 150, 2, 4, 63);
        check(Family::Geometric, 150, 3, 50, 64);
    }

    #[test]
    fn lemma6_on_pref_attach() {
        check(Family::PrefAttach, 120, 2, 3, 65);
    }

    #[test]
    fn lemma6_with_huge_rho_single_tree() {
        // ρ ≥ diameter: the first cluster swallows everything. The
        // second input is the churn smoke's draw (Δ ≈ 2^30), whose
        // dense scale is such a whole-graph cluster.
        let mut rng = SmallRng::seed_from_u64(0xC4A0 + 400);
        let churn =
            preferential_attachment(400, 3, WeightDist::PowerOfTwo { max_exp: 30 }, &mut rng);
        for g in [Family::Grid.generate(64, 66), churn] {
            let d = apsp(&g);
            let cover = build_cover(&g, 2, d.diameter());
            assert_eq!(cover.trees.len(), 1);
            assert_eq!(cover.trees[0].size(), g.n());
            assert!(verify_cover(&g, &cover).ok());
        }
    }

    #[test]
    fn lemma6_rho_one_on_unit_ring() {
        // ρ = 1 on a unit ring: balls are 3 nodes; check everything.
        let rep = check(Family::Ring, 30, 2, 1, 67);
        assert!(rep.max_radius <= 3);
    }

    #[test]
    fn k1_cover_is_fine_too() {
        // k = 1: σ = n, so the very first size test passes and clusters
        // stay one inflation round; radius ≤ (2·1−1)ρ means plain balls.
        check(Family::Ring, 40, 1, 4, 68);
    }

    #[test]
    fn disconnected_graph_covered_per_component() {
        use graphkit::graph_from_edges;
        let g = graph_from_edges(6, &[(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)]);
        let cover = build_cover(&g, 2, 2);
        let rep = verify_cover(&g, &cover);
        assert_eq!(rep.cover_violations, 0);
        // No tree mixes the two components.
        for t in &cover.trees {
            let has_low = t.graph_ids().iter().any(|&v| v <= 2);
            let has_high = t.graph_ids().iter().any(|&v| v >= 3);
            assert!(!(has_low && has_high));
        }
    }

    #[test]
    fn home_tree_contains_ball() {
        let g = Family::Geometric.generate(100, 69);
        let cover = build_cover(&g, 3, 40);
        let mut scratch = Scratch::new(g.n());
        for v in 0..g.n() as u32 {
            let home = cover.home_tree(NodeId(v));
            for m in scratch.balls(&g, &vec![true; g.n()], &[NodeId(v)], cover.rho) {
                assert!(home.find(NodeId(m)).is_some());
            }
        }
    }

    #[test]
    fn verify_counts_each_node_at_fault() {
        // Re-home one node of a valid cover to a tree that misses part
        // of its ball: exactly that node is at fault, although its new
        // tree is home to others whose balls it holds.
        let g = Family::Ring.generate(60, 72);
        let mut cover = build_cover(&g, 2, 3);
        assert!(verify_cover(&g, &cover).ok());
        let mut scratch = Scratch::new(g.n());
        let all = vec![true; g.n()];
        let (v, t) = (0..g.n() as u32)
            .find_map(|v| {
                let ball = scratch.balls(&g, &all, &[NodeId(v)], cover.rho);
                let home = cover.home[v as usize] as usize;
                let lacks = |t: &Tree| ball.iter().any(|&m| t.find(NodeId(m)).is_none());
                (0..cover.trees.len())
                    .find(|&t| t != home && lacks(&cover.trees[t]))
                    .map(|t| (v, t))
            })
            .expect("a tree missing some ball");
        cover.home[v as usize] = t as u32;
        assert_eq!(verify_cover(&g, &cover).cover_violations, 1);
        // A node outside the covered set is skipped, not counted.
        cover.home[v as usize] = u32::MAX;
        assert_eq!(verify_cover(&g, &cover).cover_violations, 0);
    }

    #[test]
    fn every_tree_is_rooted_spanning_its_members() {
        let g = Family::ErdosRenyi.generate(90, 70);
        let cover = build_cover(&g, 2, 3);
        for t in &cover.trees {
            // Tree depths respect edge weights (consistency checked by
            // Tree::from_parents), and radius is finite.
            assert!(t.radius() < INFINITY);
            assert!(t.size() >= 1);
        }
    }

    #[test]
    fn deterministic_construction() {
        let g = Family::Geometric.generate(80, 71);
        let a = build_cover(&g, 2, 25);
        let b = build_cover(&g, 2, 25);
        assert_eq!(a.trees.len(), b.trees.len());
        assert_eq!(a.home, b.home);
    }
}
