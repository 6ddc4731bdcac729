//! Name-independent error-reporting routing on *cover trees* — the
//! paper's Lemma 7 (the AGM DISC'04 single-tree scheme with the
//! Lemma 5 labels).
//!
//! Unlike the Lemma 4 scheme (which trades a `j`-bounded search depth
//! against cost), this scheme pays a *fixed* cost of at most
//! `4·rad(T) + 2k·maxE(T)` per lookup, hit or miss:
//!
//! 1. climb from the source to the root (≤ rad);
//! 2. descend to the *directory node* at DFS position `h(target) mod m`
//!    (≤ rad along the path, plus at most `2·maxE` per B-tree sibling
//!    correction at high-degree nodes, at most `k` of them per such
//!    node — the `2k·maxE` term);
//! 3. the directory node stores the labels of every tree node hashing
//!    to its position: route to the target by label (≤ 2·rad), or — for
//!    unknown names — back to the source by the label carried in the
//!    header (≤ 2·rad), reporting failure.
//!
//! Per-node storage is O(σ·log² m) bits: two guide tables of ≤ s =
//! σ·⌈log m⌉ entries, the hash-bucket labels (expected O(1), verified
//! O(log m)), and the labeled-routing info.

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::ids::ceil_log2;
use graphkit::wire::{self, Reader, Writer};
use graphkit::{Cost, NodeId, Tree, TreeIx};
use std::io;

use crate::hashing::PolyHash;
use crate::labeled::{LabeledRead, LabeledStore, LabeledTree};
use crate::laing::SearchOutcome;

/// One level of a sibling-group guide: sampled boundaries over the DFS
/// range `[start, end)` this guide is responsible for. A boundary is a
/// node whose subtree starts there, so an entry is just that node's
/// index (= its DFS number). Build-time scratch only — the frozen form
/// lives in [`CoverStore`]'s arenas.
#[derive(Clone, Debug)]
struct Guide {
    start: u32,
    end: u32,
    entries: Vec<TreeIx>,
}

/// Per-node build scratch of the Lemma 7 scheme (beyond `µ(T,u)`):
/// the allocation-per-node form the guide recursion naturally produces,
/// flattened into [`CoverStore`] CSR arenas before routing.
#[derive(Clone, Debug, Default)]
struct CoverNode {
    /// Sampled children, each the DFS start of its subtree (≤ s
    /// entries; group leaders when the degree exceeds s).
    child_guide: Vec<TreeIx>,
    /// Guides for each sibling group this node leads, one per nesting
    /// level (a group leader also leads its own sub-group, so the
    /// tightest guide covering a position always makes progress).
    sibling_guides: Vec<Guide>,
    /// Directory bucket: `(graph id, tree index)` of the tree nodes
    /// whose hash position is this node's index (labels resolve through
    /// the shared hop arena).
    bucket: Vec<(u32, TreeIx)>,
}

/// The plain-old-data half of a [`CoverTreeRouter`]: labeled store plus
/// every Lemma-7 table in CSR arenas (child guides, sibling guides with
/// a per-guide entry arena, directory buckets). Serialized as part of a
/// [`CoverScale`] and routable as-is — loading performs no guide or
/// bucket rebuild.
#[derive(Clone, Debug)]
struct CoverStore {
    labeled: LabeledTree,
    hash: PolyHash,
    /// Guide fanout s = σ·⌈log m⌉.
    fanout: usize,
    /// Worst-case B-tree depth over all nodes (reported by experiments).
    max_guide_depth: u32,
    /// Child guides, CSR by tree index.
    cg_off: Vec<u32>,
    cg: Vec<TreeIx>,
    /// Sibling guides: node `t` leads guides `sg_off[t]..sg_off[t+1]`;
    /// guide `i` covers DFS range `sg_bounds[i]` with entries
    /// `sge[sge_off[i]..sge_off[i+1]]`.
    sg_off: Vec<u32>,
    sg_bounds: Vec<(u32, u32)>,
    sge_off: Vec<u32>,
    sge: Vec<TreeIx>,
    /// Directory buckets, CSR by tree index.
    bk_off: Vec<u32>,
    bk: Vec<(u32, TreeIx)>,
}

impl CoverStore {
    fn from_nodes(
        labeled: LabeledTree,
        hash: PolyHash,
        fanout: usize,
        max_guide_depth: u32,
        nodes: Vec<CoverNode>,
    ) -> Self {
        let m = nodes.len();
        let mut cg_off = vec![0u32; m + 1];
        let mut sg_off = vec![0u32; m + 1];
        let mut bk_off = vec![0u32; m + 1];
        let mut cg = Vec::new();
        let mut sg_bounds = Vec::new();
        let mut sge_off = vec![0u32];
        let mut sge = Vec::new();
        let mut bk = Vec::new();
        for (t, node) in nodes.into_iter().enumerate() {
            cg.extend_from_slice(&node.child_guide);
            cg_off[t + 1] = cg.len() as u32;
            for g in node.sibling_guides {
                sg_bounds.push((g.start, g.end));
                sge.extend_from_slice(&g.entries);
                sge_off.push(sge.len() as u32);
            }
            sg_off[t + 1] = sg_bounds.len() as u32;
            bk.extend_from_slice(&node.bucket);
            bk_off[t + 1] = bk.len() as u32;
        }
        CoverStore {
            labeled,
            hash,
            fanout,
            max_guide_depth,
            cg_off,
            cg,
            sg_off,
            sg_bounds,
            sge_off,
            sge,
            bk_off,
            bk,
        }
    }

    // lint:allow-fn(panic-free-serve): validate-then-index — from_wire checks the CSR offsets are monotone and in-bounds for every t < n
    fn child_guide(&self, t: TreeIx) -> &[TreeIx] {
        &self.cg[self.cg_off[t as usize] as usize..self.cg_off[t as usize + 1] as usize]
    }

    /// Sibling guides led by `t`: `(dfs_start, dfs_end, entries)`.
    // lint:allow-fn(panic-free-serve): validate-then-index — from_wire checks sg_off/sge_off monotone and in-bounds for every t < n
    fn sibling_guides(&self, t: TreeIx) -> impl Iterator<Item = (u32, u32, &[TreeIx])> {
        let (s, e) = (self.sg_off[t as usize] as usize, self.sg_off[t as usize + 1] as usize);
        (s..e).map(move |i| {
            let (start, end) = self.sg_bounds[i];
            (start, end, &self.sge[self.sge_off[i] as usize..self.sge_off[i + 1] as usize])
        })
    }

    // lint:allow-fn(panic-free-serve): validate-then-index — from_wire checks bk_off monotone and in-bounds for every t < n
    fn bucket(&self, t: TreeIx) -> &[(u32, TreeIx)] {
        &self.bk[self.bk_off[t as usize] as usize..self.bk_off[t as usize + 1] as usize]
    }

    /// Serialize every arena verbatim.
    fn to_wire(&self, w: &mut Writer) {
        w.u64(self.fanout as u64);
        w.u32(self.max_guide_depth);
        w.slice_u64(self.hash.coeffs());
        self.labeled.store().to_wire(w);
        w.slice_u32(&self.cg_off);
        w.slice_u32(&self.cg);
        w.slice_u32(&self.sg_off);
        w.slice_pairs(&self.sg_bounds);
        w.slice_u32(&self.sge_off);
        w.slice_u32(&self.sge);
        w.slice_u32(&self.bk_off);
        w.slice_pairs(&self.bk);
    }

    /// Inverse of [`CoverStore::to_wire`] with CSR invariant checks.
    // lint:allow-fn(panic-free-serve): validate-then-index — CSR invariants are checked before the indexing passes below
    fn from_wire(r: &mut Reader) -> io::Result<Self> {
        use wire::invalid;
        let fanout = r.u64()? as usize;
        let max_guide_depth = r.u32()?;
        let coeffs = r.slice_u64()?;
        if fanout < 2 || coeffs.is_empty() {
            return Err(invalid("bad cover-store record header"));
        }
        let hash = PolyHash::try_from_coeffs(coeffs)
            .ok_or_else(|| invalid("cover-store hash coefficient outside GF(p)"))?;
        let labeled = LabeledTree::from_store(LabeledStore::from_wire(r)?);
        let m = labeled.tree().size();
        let cg_off = r.slice_u32()?;
        let cg = r.slice_u32()?;
        let sg_off = r.slice_u32()?;
        let sg_bounds = r.slice_pairs()?;
        let sge_off = r.slice_u32()?;
        let sge = r.slice_u32()?;
        let bk_off = r.slice_u32()?;
        let bk = r.slice_pairs()?;
        let check_csr = |off: &[u32], len: usize, n: usize, what: &str| {
            if off.len() != n + 1
                || off[0] != 0
                || off[n] as usize != len
                || off.windows(2).any(|w| w[0] > w[1])
            {
                return Err(invalid(&format!("cover store {what} offsets corrupt")));
            }
            Ok(())
        };
        check_csr(&cg_off, cg.len(), m, "child-guide")?;
        check_csr(&sg_off, sg_bounds.len(), m, "sibling-guide")?;
        check_csr(&sge_off, sge.len(), sg_bounds.len(), "guide-entry")?;
        check_csr(&bk_off, bk.len(), m, "bucket")?;
        if cg.iter().chain(&sge).chain(bk.iter().map(|(_, ix)| ix)).any(|&ix| ix as usize >= m) {
            return Err(invalid("cover store entry out of range"));
        }
        Ok(CoverStore {
            labeled,
            hash,
            fanout,
            max_guide_depth,
            cg_off,
            cg,
            sg_off,
            sg_bounds,
            sge_off,
            sge,
            bk_off,
            bk,
        })
    }
}

/// A tree equipped with the Lemma 7 name-independent scheme: the thin
/// read-path half over its store of Lemma-7 tables.
/// [`CoverTreeRouter::new`] builds the store from scratch;
/// [`CoverScale::from_wire`] reads stores back with zero rebuild.
#[derive(Clone, Debug)]
pub struct CoverTreeRouter {
    store: CoverStore,
}

impl CoverTreeRouter {
    /// Build with fanout `s = max(2, σ·⌈log₂ m⌉)`.
    pub fn new(tree: Tree, sigma: u64, seed: u64) -> Self {
        let m = tree.size();
        let fanout = ((sigma as usize) * (ceil_log2(m.max(2) as u64) as usize).max(1)).max(2);
        let labeled = LabeledTree::new(tree);
        let hash = PolyHash::new(PolyHash::degree_for(m), seed);
        let mut b = CoverBuild { labeled, nodes: vec![CoverNode::default(); m], fanout };
        let max_guide_depth = b.build_guides();
        b.build_buckets(&hash);
        CoverTreeRouter {
            store: CoverStore::from_nodes(b.labeled, hash, fanout, max_guide_depth, b.nodes),
        }
    }

    /// DFS position responsible for a network id.
    fn position_of(&self, target: NodeId) -> u32 {
        (self.store.hash.eval(target.0 as u64) % self.store.labeled.tree().size() as u64) as u32
    }

    /// The underlying labeled scheme (and physical tree).
    pub fn labeled(&self) -> &LabeledTree {
        &self.store.labeled
    }

    /// Guide fanout s.
    pub fn fanout(&self) -> usize {
        self.store.fanout
    }

    /// Deepest guide B-tree in this instance (1 = no grouping anywhere).
    pub fn max_guide_depth(&self) -> u32 {
        self.store.max_guide_depth
    }

    /// Lemma 7 cost budget for this tree: `4·rad(T) + 2k·maxE(T)` where
    /// `k` is the worst guide depth (≤ ⌈log_s(max degree)⌉).
    pub fn cost_budget(&self) -> Cost {
        let t = self.store.labeled.tree();
        4 * t.radius() + 2 * self.store.max_guide_depth.max(1) as u64 * t.max_edge()
    }

    /// Route from tree node `from` toward the network id `target`,
    /// using only per-node storage plus an O(log² n) header (the target
    /// id, the source label, and — once learned — the target label).
    /// Returns the outcome and the full node path walked, `from` first.
    pub fn route(&self, from: TreeIx, target: NodeId) -> (SearchOutcome, Vec<TreeIx>) {
        // lint:allow(no-alloc-in-route): the returned walk owns its path; one Vec per route is the API
        let mut path = Vec::with_capacity(crate::PATH_CAPACITY);
        path.push(from);
        let outcome = self.walk_from(from, target, &mut path, |t| t);
        (outcome, path)
    }

    /// The Lemma 7 walk from tree node `from` toward `target`: appends
    /// `step(t)` for every node it moves to (not `from` itself) to
    /// `path`, and returns the outcome.
    fn walk_from<T>(
        &self,
        from: TreeIx,
        target: NodeId,
        path: &mut Vec<T>,
        step: impl Fn(TreeIx) -> T,
    ) -> SearchOutcome {
        let labeled = &self.store.labeled;
        let tree = labeled.tree();
        let mut cost: Cost = 0;
        let source_label = labeled.label(from); // carried in the header
        let mut at = from;
        // Short-circuit: the source is the target.
        if tree.graph_id(at) == target {
            return SearchOutcome::Found { cost: 0, delivered_at: at };
        }
        // Phase 1: climb to the root.
        while let Some(p) = tree.parent(at) {
            cost += tree.parent_weight(at);
            at = p;
            path.push(step(at));
        }
        // Phase 2: descend to the directory position: the node whose
        // index is `pos`.
        let pos = self.position_of(target);
        let covers = |t: TreeIx| pos >= t && labeled.dfs_out(t).is_some_and(|out| pos < out);
        while at != pos {
            debug_assert!(covers(at), "descent left the interval");
            // Pick from my child guide the last boundary ≤ pos. A
            // missing entry means a corrupt guide arena: report a miss
            // from where we stand rather than panicking the server.
            let Some(mut next) = guide_pick(self.store.child_guide(at), pos) else {
                return SearchOutcome::NotFound { cost };
            };
            cost += edge_w(tree, at, next);
            let parent = at;
            path.push(step(next));
            // Sibling corrections while pos is not inside `next`'s subtree:
            // consult the *tightest* guide at `next` covering pos. A group
            // leader also leads its own sub-groups, so the tightest guide
            // never returns `next` itself — each correction strictly
            // descends one guide level.
            let mut guard = 0;
            while !covers(next) {
                let Some(cand) = self
                    .store
                    .sibling_guides(next)
                    .filter(|&(start, end, _)| start <= pos && pos < end)
                    .min_by_key(|&(start, end, _)| end - start)
                    .and_then(|(_, _, entries)| guide_pick(entries, pos))
                else {
                    // Uncovered position = corrupt sibling guides;
                    // same degradation as a missing child guide.
                    return SearchOutcome::NotFound { cost };
                };
                // A guide that makes no progress, or a descent deeper
                // than the deepest guide, is a corrupt store too.
                guard += 1;
                if cand == next || guard > self.store.max_guide_depth + 1 {
                    return SearchOutcome::NotFound { cost };
                }
                // Correction: next -> parent -> cand (2 edges).
                cost += edge_w(tree, next, parent) + edge_w(tree, parent, cand);
                path.push(step(parent));
                path.push(step(cand));
                next = cand;
            }
            at = next;
        }
        // Phase 3: directory lookup, then walk by label straight into
        // the path: to the target on a hit, or — for an unknown name —
        // back to the source by the header's source label. A label that
        // no longer routes is a corrupt directory: its partial walk is
        // dropped and the lookup degrades to a miss instead of
        // panicking.
        let hit = self.store.bucket(at).iter().find(|(gid, _)| *gid == target.0).map(|&(_, ix)| ix);
        let base = path.len();
        let label = hit.map_or(source_label, |ix| labeled.label(ix));
        let Some((c, delivered_at)) = labeled.walk(at, label, &mut |t| path.push(step(t))) else {
            path.truncate(base);
            return SearchOutcome::NotFound { cost };
        };
        cost += c;
        match hit {
            Some(_) => SearchOutcome::Found { cost, delivered_at },
            None => SearchOutcome::NotFound { cost },
        }
    }

    /// Storage bits of tree node `t` under this scheme (φ(T,t) in the
    /// paper's notation).
    pub fn node_bits(&self, t: TreeIx) -> u64 {
        let labeled = &self.store.labeled;
        let m = labeled.tree().size();
        let b = bits_for_node(m);
        let mut bits = labeled.local_bits(t) + self.store.hash.storage_bits();
        bits += self.store.child_guide(t).len() as u64 * 2 * b;
        for (_, _, entries) in self.store.sibling_guides(t) {
            bits += 2 * b + entries.len() as u64 * 2 * b;
        }
        for &(_, ix) in self.store.bucket(t) {
            bits += b + labeled.label_bits(ix);
        }
        // The header-resident source label is storage at the source too.
        bits + labeled.label_bits(t)
    }

    /// Largest directory bucket (w.h.p. O(log m / log log m)).
    pub fn max_bucket(&self) -> usize {
        self.store.bk_off.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }
}

/// Build-time state for [`CoverTreeRouter::new`]: the per-node scratch
/// soup the guide recursion produces, flattened afterwards.
struct CoverBuild {
    labeled: LabeledTree,
    nodes: Vec<CoverNode>,
    fanout: usize,
}

impl CoverBuild {
    /// Assign all guide tables; returns the worst B-tree depth.
    fn build_guides(&mut self) -> u32 {
        let m = self.labeled.tree().size() as u32;
        let mut max_guide_depth = 0;
        for x in 0..m {
            // Children come in index order, which is DFS order: their
            // subtrees are consecutive intervals.
            let kids: Vec<TreeIx> = self.labeled.tree().children(x).to_vec();
            if kids.is_empty() {
                continue;
            }
            let depth = self.assign_guide_level(GuideOwner::Node(x), &kids, 1);
            max_guide_depth = max_guide_depth.max(depth);
        }
        max_guide_depth
    }

    /// Recursively spread the boundary table of `slice` (a run of
    /// siblings) over group leaders. Returns the B-tree depth used.
    fn assign_guide_level(&mut self, owner: GuideOwner, slice: &[TreeIx], level: u32) -> u32 {
        let entries: Vec<TreeIx>;
        let mut max_depth = level;
        if slice.len() <= self.fanout {
            entries = slice.to_vec();
        } else {
            // Split into `fanout` groups; record group leaders here and
            // recurse into each group via its leader.
            let group = slice.len().div_ceil(self.fanout);
            let mut leaders = Vec::new();
            for chunk in slice.chunks(group) {
                let leader = chunk[0];
                leaders.push(leader);
                if chunk.len() > 1 {
                    let d = self.assign_guide_level(GuideOwner::Leader(leader), chunk, level + 1);
                    max_depth = max_depth.max(d);
                }
            }
            entries = leaders;
        }
        match owner {
            GuideOwner::Node(x) => self.nodes[x as usize].child_guide = entries,
            GuideOwner::Leader(l) => {
                // The DFS range this guide covers: from the first member's
                // subtree start to the last member's subtree end. (An
                // empty slice never recurses here; guard anyway.)
                if let (Some(&start), Some(end)) =
                    (slice.first(), slice.last().and_then(|&last| self.labeled.dfs_out(last)))
                {
                    self.nodes[l as usize].sibling_guides.push(Guide { start, end, entries });
                }
            }
        }
        max_depth
    }

    fn build_buckets(&mut self, hash: &PolyHash) {
        let m = self.labeled.tree().size();
        for t in 0..m as u32 {
            let gid = self.labeled.tree().graph_id(t).0;
            let pos = hash.eval(gid as u64) % m as u64;
            self.nodes[pos as usize].bucket.push((gid, t));
        }
    }
}

enum GuideOwner {
    Node(TreeIx),
    Leader(TreeIx),
}

/// Last guide entry with boundary ≤ pos.
fn guide_pick(guide: &[TreeIx], pos: u32) -> Option<TreeIx> {
    let i = guide.partition_point(|&b| b <= pos);
    i.checked_sub(1).and_then(|j| guide.get(j)).copied()
}

/// Weight of the tree edge between adjacent nodes.
fn edge_w(tree: &Tree, a: TreeIx, b: TreeIx) -> Cost {
    if tree.parent(a) == Some(b) {
        tree.parent_weight(a)
    } else {
        debug_assert_eq!(tree.parent(b), Some(a));
        tree.parent_weight(b)
    }
}

impl StorageCost for CoverTreeRouter {
    fn storage_bits(&self) -> u64 {
        (0..self.store.labeled.tree().size() as u32).map(|t| self.node_bits(t)).sum()
    }
}

/// One scale of the dense strategy (§3.6): the Lemma 7 routers of one
/// Lemma 6 cover, plus a home table that gives each covered node `v`
/// its home tree `W(v, i)` and its own index in that tree. A route
/// starts at that index, so it performs no lookup by host id.
#[derive(Clone, Debug)]
pub struct CoverScale {
    routers: Vec<CoverTreeRouter>,
    /// `home[v]` = index of `v`'s home router (`u32::MAX` outside the
    /// cover).
    home: Vec<u32>,
    /// `home_ix[v]` = `v`'s index in its home router's (renumbered)
    /// tree (`u32::MAX` outside the cover).
    home_ix: Vec<TreeIx>,
}

impl CoverScale {
    /// Attach a Lemma 7 router to every tree of the cover of scale `s`.
    /// `home[v]` is the index in `trees` of host node `v`'s home tree
    /// (`u32::MAX` outside the cover). Router `ti` is seeded with
    /// `seed ^ ((s << 32) | ti)`.
    pub fn new(trees: Vec<Tree>, home: Vec<u32>, sigma: u64, seed: u64, s: u32) -> Self {
        // merge: routers concatenated in chunk (= tree index) order.
        let routers: Vec<CoverTreeRouter> = graphkit::metrics::par_chunks(trees.len(), |range| {
            range
                .map(|ti| {
                    let seed = seed ^ ((s as u64) << 32 | ti as u64);
                    CoverTreeRouter::new(trees[ti].clone(), sigma, seed)
                })
                .collect::<Vec<CoverTreeRouter>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let home_ix = home_indices(&routers, &home);
        CoverScale { routers, home, home_ix }
    }

    /// Number of cover trees.
    pub fn num_trees(&self) -> usize {
        self.routers.len()
    }

    /// Route from `src` toward `dst` in `src`'s home tree, appending
    /// the host id of every node the walk moves to (not `src` itself)
    /// to `path`. A source outside the cover is a miss at cost 0 with
    /// no hops.
    pub fn route(&self, src: NodeId, dst: NodeId, path: &mut Vec<NodeId>) -> SearchOutcome {
        let home = self.home.get(src.idx()).and_then(|&h| self.routers.get(h as usize));
        let (Some(router), Some(&from)) = (home, self.home_ix.get(src.idx())) else {
            return SearchOutcome::NotFound { cost: 0 };
        };
        let tree = router.labeled().tree();
        router.walk_from(from, dst, path, |t| tree.graph_id(t))
    }

    /// Add `per_membership + φ(T, v)` to `bits[v]` for every tree `T`
    /// of the cover and every member `v` of `T`.
    pub fn add_node_bits(&self, bits: &mut [u64], per_membership: u64) {
        for router in &self.routers {
            for (t, &gid) in router.labeled().tree().graph_ids().iter().enumerate() {
                if let Some(b) = bits.get_mut(gid as usize) {
                    *b += per_membership + router.node_bits(t as TreeIx);
                }
            }
        }
    }

    /// Largest routing label over every tree of the cover.
    pub fn max_label_bits(&self) -> u64 {
        let label_bits = |r: &CoverTreeRouter| {
            let lt = r.labeled();
            (0..lt.tree().size() as TreeIx).map(|t| lt.label_bits(t)).max().unwrap_or(0)
        };
        self.routers.iter().map(label_bits).max().unwrap_or(0)
    }

    /// Serialize the home tree ids, the router count, then every
    /// router's store of Lemma-7 tables.
    pub fn to_wire(&self, w: &mut Writer) {
        w.slice_u32(&self.home);
        w.len(self.routers.len());
        for router in &self.routers {
            router.store.to_wire(w);
        }
    }

    /// Inverse of [`CoverScale::to_wire`] over a graph of `n` nodes.
    /// Rejects a home table of the wrong length, a home id past the
    /// routers, a tree node outside the graph, and a covered node
    /// missing from its home tree (which a Lemma 6 cover never
    /// produces).
    pub fn from_wire(r: &mut Reader, n: usize) -> io::Result<Self> {
        let home = r.slice_u32()?;
        if home.len() != n {
            return Err(wire::invalid("cover home map has wrong length"));
        }
        let count = r.len()?;
        let routers = (0..count)
            .map(|_| CoverStore::from_wire(r).map(|store| CoverTreeRouter { store }))
            .collect::<io::Result<Vec<CoverTreeRouter>>>()?;
        if home.iter().any(|&h| h != u32::MAX && h as usize >= routers.len()) {
            return Err(wire::invalid("cover home map points past its routers"));
        }
        if routers.iter().any(|r| r.labeled().tree().graph_ids().iter().any(|&v| v as usize >= n)) {
            return Err(wire::invalid("cover tree names a node outside the graph"));
        }
        let home_ix = home_indices(&routers, &home);
        if home.iter().zip(&home_ix).any(|(&h, &ix)| h != u32::MAX && ix == u32::MAX) {
            return Err(wire::invalid("covered node missing from its home tree"));
        }
        Ok(CoverScale { routers, home, home_ix })
    }
}

/// Each covered node's index in its home router's tree, from one scan
/// of every router's graph ids (`u32::MAX` where no home tree holds
/// the node).
fn home_indices(routers: &[CoverTreeRouter], home: &[u32]) -> Vec<TreeIx> {
    let mut home_ix = vec![u32::MAX; home.len()];
    for (ti, router) in routers.iter().enumerate() {
        for (t, &gid) in router.labeled().tree().graph_ids().iter().enumerate() {
            let is_home = home.get(gid as usize) == Some(&(ti as u32));
            if let Some(slot) = home_ix.get_mut(gid as usize).filter(|_| is_home) {
                *slot = t as TreeIx;
            }
        }
    }
    home_ix
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{self, WeightDist};
    use graphkit::{dijkstra, Graph};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spanning_tree(g: &Graph, root: NodeId) -> Tree {
        let sp = dijkstra::dijkstra(g, root);
        Tree::from_sssp(g, &sp, g.nodes())
    }

    fn check_all_lookups(r: &CoverTreeRouter) {
        let m = r.labeled().tree().size() as u32;
        let budget = r.cost_budget();
        for from in 0..m {
            for t in 0..m {
                let target = r.labeled().tree().graph_id(t);
                let (outcome, path) = r.route(from, target);
                match outcome {
                    SearchOutcome::Found { cost, delivered_at } => {
                        assert_eq!(delivered_at, t);
                        assert_eq!(*path.last().unwrap(), t);
                        assert!(cost <= budget, "cost {cost} > budget {budget} ({from}->{t})");
                    }
                    SearchOutcome::NotFound { .. } => panic!("missed in-tree node {t}"),
                }
            }
        }
    }

    fn check_misses(r: &CoverTreeRouter, absent: &[u32]) {
        let m = r.labeled().tree().size() as u32;
        let budget = r.cost_budget();
        for &gid in absent {
            for from in (0..m).step_by(7) {
                let (outcome, path) = r.route(from, NodeId(gid));
                match outcome {
                    SearchOutcome::Found { .. } => panic!("found absent id {gid}"),
                    SearchOutcome::NotFound { cost } => {
                        assert_eq!(*path.last().unwrap(), from, "miss must return to source");
                        assert!(cost <= budget, "miss cost {cost} > budget {budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn path_tree() {
        let g = gen::path(20, 3);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 1);
        check_all_lookups(&r);
        check_misses(&r, &[500, 501]);
    }

    #[test]
    fn random_tree() {
        let mut rng = SmallRng::seed_from_u64(50);
        let g = gen::random_tree(90, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(4)), 3, 2);
        check_all_lookups(&r);
        check_misses(&r, &[7777]);
    }

    #[test]
    fn high_degree_star_exercises_guides() {
        // Star of degree 150 with sigma = 2: fanout = 2*8 = 16 < 150, so
        // descent must use sibling guides; the cost bound still holds.
        let g = gen::star(151, 4);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 2, 3);
        assert!(r.max_guide_depth() >= 2, "star must trigger grouped guides");
        check_all_lookups(&r);
        check_misses(&r, &[99999]);
    }

    #[test]
    fn caterpillar_tree() {
        let mut rng = SmallRng::seed_from_u64(51);
        let g = gen::caterpillar(10, 6, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 4);
        check_all_lookups(&r);
    }

    #[test]
    fn deep_guides_only_when_needed() {
        let mut rng = SmallRng::seed_from_u64(52);
        let g = gen::random_tree(100, WeightDist::Unit, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 4, 5);
        // Random recursive trees have max degree ~log n < fanout.
        assert_eq!(r.max_guide_depth(), 1);
    }

    #[test]
    fn buckets_cover_every_node() {
        let mut rng = SmallRng::seed_from_u64(53);
        let g = gen::random_tree(120, WeightDist::Unit, &mut rng);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 3, 6);
        assert_eq!(r.store.bk.len(), 120);
        // Max load stays logarithmic-ish.
        assert!(r.max_bucket() <= 16, "bucket load {}", r.max_bucket());
    }

    #[test]
    fn store_wire_roundtrip_routes_identically() {
        // The star forces real sibling guides into the arenas.
        let g = gen::star(151, 4);
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), 2, 3);
        let mut w = Writer::new();
        r.store.to_wire(&mut w);
        let bytes = w.into_bytes();
        let r2 =
            CoverTreeRouter { store: CoverStore::from_wire(&mut Reader::new(&bytes)).unwrap() };
        assert_eq!(r2.fanout(), r.fanout());
        assert_eq!(r2.max_guide_depth(), r.max_guide_depth());
        assert_eq!(r2.max_bucket(), r.max_bucket());
        let m = r.labeled().tree().size() as u32;
        for from in (0..m).step_by(13) {
            for t in (0..m).step_by(7) {
                let target = r.labeled().tree().graph_id(t);
                assert_eq!(r2.route(from, target), r.route(from, target));
            }
            assert_eq!(r2.route(from, NodeId(99999)), r.route(from, NodeId(99999)));
            assert_eq!(r2.node_bits(from), r.node_bits(from));
        }
        // Truncations error rather than panic.
        for cut in [0, 5, bytes.len() / 3, bytes.len() - 1] {
            assert!(CoverStore::from_wire(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn storage_within_lemma_bound() {
        // Lemma 7: O(k n^{1/k} log n) per node — ours is O(σ log² m);
        // assert with an explicit constant.
        let mut rng = SmallRng::seed_from_u64(54);
        let g = gen::random_tree(200, WeightDist::Unit, &mut rng);
        let sigma = 3u64;
        let r = CoverTreeRouter::new(spanning_tree(&g, NodeId(0)), sigma, 7);
        let log = ceil_log2(200) as u64;
        let bound = 64 * sigma * log * log;
        for t in 0..200u32 {
            assert!(r.node_bits(t) <= bound, "node {t}: {} > {bound}", r.node_bits(t));
        }
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::from_parents(vec![5], vec![u32::MAX], vec![0]);
        let r = CoverTreeRouter::new(t, 2, 8);
        let (outcome, _) = r.route(0, NodeId(5));
        assert_eq!(outcome, SearchOutcome::Found { cost: 0, delivered_at: 0 });
        let (outcome, _) = r.route(0, NodeId(9));
        assert_eq!(outcome, SearchOutcome::NotFound { cost: 0 });
    }

    /// A hand-made cover of a random tree graph: three overlapping
    /// balls, each spanned by its shortest-path tree, and a home table
    /// that sends each node to the first ball holding it (`u32::MAX`
    /// for the nodes in none).
    fn small_cover() -> (Vec<Tree>, Vec<u32>) {
        let mut rng = SmallRng::seed_from_u64(55);
        let g = gen::random_tree(80, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let trees: Vec<Tree> = [(0u32, 20u64), (40, 25), (79, 15)]
            .iter()
            .map(|&(root, radius)| {
                let sp = dijkstra::dijkstra_bounded(&g, NodeId(root), radius);
                Tree::from_sssp(&g, &sp, g.nodes().filter(|&v| sp.reachable(v)))
            })
            .collect();
        let mut home = vec![u32::MAX; g.n()];
        for (ti, t) in trees.iter().enumerate().rev() {
            for &gid in t.graph_ids() {
                home[gid as usize] = ti as u32;
            }
        }
        assert!(home.contains(&u32::MAX), "some node must stay uncovered");
        (trees, home)
    }

    /// Every `(src, dst, outcome, path)` of a scale, for every source
    /// and every target plus one absent id; paths start at `src`.
    fn all_routes(scale: &CoverScale) -> Vec<(u32, u32, SearchOutcome, Vec<NodeId>)> {
        let n = scale.home.len() as u32;
        let pairs = (0..n).flat_map(|src| (0..=n).map(move |dst| (src, dst)));
        let route = |(src, dst)| {
            let mut path = vec![NodeId(src)];
            (src, dst, scale.route(NodeId(src), NodeId(dst), &mut path), path)
        };
        pairs.map(route).collect()
    }

    fn wire_bytes(scale: &CoverScale) -> Vec<u8> {
        let mut w = Writer::new();
        scale.to_wire(&mut w);
        w.into_bytes()
    }

    #[test]
    fn cover_scale_routes_in_the_home_tree() {
        let (trees, home) = small_cover();
        let (sigma, seed, s) = (3, 9, 2);
        let scale = CoverScale::new(trees.clone(), home, sigma, seed, s);
        // Router ti is the tree's own router, seeded by (s, ti).
        for (ti, t) in trees.into_iter().enumerate() {
            let own = CoverTreeRouter::new(t, sigma, seed ^ ((s as u64) << 32 | ti as u64));
            let theirs = &scale.routers[ti];
            assert_eq!(own.labeled().tree().graph_ids(), theirs.labeled().tree().graph_ids());
            assert_eq!(own.store.hash.coeffs(), theirs.store.hash.coeffs());
        }
        for (src, dst, outcome, path) in all_routes(&scale) {
            let Some(router) = scale.routers.get(scale.home[src as usize] as usize) else {
                assert_eq!(outcome, SearchOutcome::NotFound { cost: 0 });
                assert_eq!(path, [NodeId(src)], "an uncovered source takes no hop");
                continue;
            };
            // Delivered exactly when the home tree holds the target, on
            // the tree router's own walk.
            let tree = router.labeled().tree();
            assert_eq!(outcome.is_found(), tree.find(NodeId(dst)).is_some());
            let (expect, tpath) = router.route(tree.find(NodeId(src)).unwrap(), NodeId(dst));
            assert_eq!(outcome, expect);
            assert!(path.iter().copied().eq(tpath.iter().map(|&t| tree.graph_id(t))));
        }
    }

    #[test]
    fn cover_scale_wire_roundtrip_is_byte_identical() {
        let (trees, home) = small_cover();
        let n = home.len();
        let scale = CoverScale::new(trees, home, 3, 10, 4);
        let bytes = wire_bytes(&scale);
        let back = CoverScale::from_wire(&mut Reader::new(&bytes), n).unwrap();
        assert_eq!(wire_bytes(&back), bytes);
        assert_eq!(all_routes(&back), all_routes(&scale));
        assert_eq!(back.max_label_bits(), scale.max_label_bits());
        let (mut bits, mut back_bits) = (vec![0; n], vec![0; n]);
        scale.add_node_bits(&mut bits, 7);
        back.add_node_bits(&mut back_bits, 7);
        assert_eq!(bits, back_bits);
        // The home table must match the graph, and truncations error.
        assert!(CoverScale::from_wire(&mut Reader::new(&bytes), n + 1).is_err());
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(CoverScale::from_wire(&mut Reader::new(&bytes[..cut]), n).is_err());
        }
    }

    #[test]
    fn cover_scale_rejects_a_home_tree_without_its_node() {
        let (trees, mut home) = small_cover();
        let n = home.len();
        // Send a node of tree 0 only to tree 2, which lacks it.
        let v = trees[0].graph_ids().iter().copied().find(|&v| trees[2].find(NodeId(v)).is_none());
        home[v.unwrap() as usize] = 2;
        let bytes = wire_bytes(&CoverScale::new(trees, home, 3, 11, 1));
        let err = CoverScale::from_wire(&mut Reader::new(&bytes), n).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
