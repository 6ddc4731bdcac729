//! Labeled (topology-dependent-name) tree routing — the paper's Lemma 5
//! (Fraigniaud–Gavoille ICALP'01, Thorup–Zwick SPAA'01).
//!
//! Given a rooted weighted tree, every node gets a *label*; a message
//! carrying the destination label is forwarded along the unique tree
//! path using only the local node's O(log n)-bit routing info plus the
//! label. Our variant is the heavy-path scheme:
//!
//! * nodes are numbered by heavy-first DFS, and a node's DFS number is
//!   its index: t's subtree is the interval `[t, dfs_out(t))` and its
//!   heavy child is `t + 1`;
//! * per-node info `µ(T,u)`: own interval, heavy-child interval, light
//!   depth — O(log n) bits;
//! * label `λ(T,v)`: v's DFS number plus one entry per *light* edge on
//!   the root→v path — O(log² n) bits worst case.
//!
//! Lemma 5 as stated trades storage `O(m^{1/k} log m)` against labels
//! `O(k log m)`; our point on the frontier has strictly smaller storage
//! (`O(log m)`) and `O(log² m)` labels, which keeps every storage bound
//! downstream within Theorem 1's `O(k² n^{1/k} log³ n)` (see DESIGN.md).

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::wire::{self, Reader, U32s, U64s, Writer};
use graphkit::{Cost, Tree, TreeIx, Weight};
use std::io;

/// Destination label `λ(T,v)`, owned. Inside a [`LabeledTree`] labels
/// live in one contiguous hop arena and are handed out as borrowing
/// [`LabelRef`]s; this owned form exists for callers that persist a
/// label beyond the tree's lifetime (message headers, baselines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteLabel {
    /// DFS number (= tree index) of the destination.
    pub dfs: u32,
    /// Light children entered on the root→destination path, in order.
    pub light_path: Vec<TreeIx>,
}

impl RouteLabel {
    /// Borrow as a [`LabelRef`] for routing calls.
    pub fn as_ref(&self) -> LabelRef<'_> {
        LabelRef { dfs: self.dfs, light_path: &self.light_path }
    }
}

/// Borrowed destination label: a view into the tree's shared hop arena
/// (or into an owned [`RouteLabel`]). `Copy`, 16 bytes — routing with
/// one allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelRef<'a> {
    /// DFS number (= tree index) of the destination.
    pub dfs: u32,
    /// Light children entered on the root→destination path, in order.
    pub light_path: &'a [TreeIx],
}

impl LabelRef<'_> {
    /// Copy into an owned [`RouteLabel`].
    pub fn to_owned(self) -> RouteLabel {
        RouteLabel { dfs: self.dfs, light_path: self.light_path.to_vec() }
    }
}

/// Outcome of a single local forwarding decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The current node is the destination.
    Deliver,
    /// Forward to this tree neighbor.
    Forward(TreeIx),
    /// The label does not belong to this tree (or is corrupt).
    NotInTree,
}

/// The plain-old-data half of a [`LabeledTree`]: the physical tree,
/// stored in heavy-first DFS order, plus the flat µ/λ arenas the read
/// path routes against. Everything here is CSR-shaped — no per-node
/// allocations — so a store serializes as a handful of flat arrays and
/// a snapshot load is one pass back into the same shape, no
/// preprocessing rerun.
///
/// One numbering serves every purpose: node `t`'s DFS number is `t`,
/// its heavy child (if any) is `t + 1`, and its light depth is the
/// length of its label. Labels are stored flat: one hop arena
/// (`light_hops`, one child index per light edge) plus an offset table
/// (`light_off`), CSR-style, so a node's label is a 16-byte
/// [`LabelRef`] view.
#[derive(Clone, Debug)]
pub struct LabeledStore {
    tree: Tree,
    /// End of each node's subtree interval, exclusive: the subtree of
    /// `t` is `[t, dfs_out[t])`.
    dfs_out: Vec<u32>,
    /// CSR offsets: node `t`'s light path is
    /// `light_hops[light_off[t]..light_off[t + 1]]`.
    light_off: Vec<u32>,
    light_hops: Vec<TreeIx>,
}

impl LabeledStore {
    /// The underlying physical tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Serialize as flat arrays: the tree, then the subtree ends, the
    /// light offsets and the hop arena.
    pub fn to_wire(&self, w: &mut Writer) {
        wire::write_tree(w, &self.tree);
        w.slice_u32(&self.dfs_out);
        w.slice_u32(&self.light_off);
        w.slice_u32(&self.light_hops);
    }

    /// Exact length of [`LabeledStore::to_wire`]'s output.
    pub fn wire_len(&self) -> usize {
        let m = self.tree.size();
        // Six length-prefixed arrays; per node: graph id, parent,
        // subtree end (4 B each), weight (8 B), light offset (4 B, plus
        // one); per light hop: 4 B.
        6 * 8 + m * (3 * 4 + 8 + 4) + 4 + self.light_hops.len() * 4
    }

    /// Inverse of [`LabeledStore::to_wire`]: the checks of
    /// [`LabeledView::validate`], then one copy into owned arrays, so a
    /// corrupt record errors instead of leaving out-of-bounds indices
    /// for the read path to trip over.
    pub fn from_wire(r: &mut Reader) -> io::Result<Self> {
        let view = LabeledView::split(r)?;
        view.validate()?;
        view.to_store()
    }
}

/// A destination label as the Lemma-5 walk reads it: the DFS number
/// plus the light children entered on the root→destination path.
/// Implemented by owned labels ([`LabelRef`]) and labels read in place
/// from a record ([`RecordLabel`]).
pub trait TreeLabel: Copy {
    /// DFS number of the destination.
    fn dfs(&self) -> u32;
    /// The light child entered by hop `i` of the root→destination
    /// path, if present.
    fn light_hop(&self, i: usize) -> Option<TreeIx>;
    /// Number of light hops.
    fn hop_count(&self) -> usize;
}

impl TreeLabel for LabelRef<'_> {
    fn dfs(&self) -> u32 {
        self.dfs
    }

    fn light_hop(&self, i: usize) -> Option<TreeIx> {
        self.light_path.get(i).copied()
    }

    fn hop_count(&self) -> usize {
        self.light_path.len()
    }
}

/// A label read in place from a [`LabeledView`]'s hop arena.
#[derive(Clone, Copy, Debug)]
pub struct RecordLabel<'a> {
    dfs: u32,
    hops: U32s<'a>,
}

impl TreeLabel for RecordLabel<'_> {
    fn dfs(&self) -> u32 {
        self.dfs
    }

    fn light_hop(&self, i: usize) -> Option<TreeIx> {
        self.hops.get(i)
    }

    fn hop_count(&self) -> usize {
        self.hops.len()
    }
}

/// Read access to a Lemma-5 labeled tree, over owned arenas
/// ([`LabeledTree`]) or record bytes ([`LabeledView`]). Every accessor
/// is checked — an out-of-range index reads as `None` — so the walk
/// below, written once for both, degrades to "not in this tree" on a
/// corrupt store instead of panicking.
pub trait LabeledRead {
    /// The label type this store hands out.
    type Label<'s>: TreeLabel
    where
        Self: 's;

    /// Number of tree nodes.
    fn size(&self) -> usize;
    /// Host-graph id of tree node `t`.
    fn host(&self, t: TreeIx) -> Option<u32>;
    /// Parent of `t` (`None` at the root or out of range).
    fn parent(&self, t: TreeIx) -> Option<TreeIx>;
    /// Weight of `t`'s parent edge (0 at the root or out of range).
    fn parent_weight(&self, t: TreeIx) -> Weight;
    /// End of `t`'s subtree interval `[t, dfs_out(t))`, exclusive.
    fn dfs_out(&self, t: TreeIx) -> Option<u32>;
    /// Label `λ(T,t)`.
    fn label_at(&self, t: TreeIx) -> Option<Self::Label<'_>>;

    /// Walk from `from` to the node carrying `label`, handing every
    /// node entered to `hop` (not `from` itself). Returns the walk's
    /// cost and the delivery node, or `None` for a foreign label. A
    /// walk that fails midway has already reported the hops it made.
    fn walk(
        &self,
        from: TreeIx,
        label: impl TreeLabel,
        hop: &mut impl FnMut(TreeIx),
    ) -> Option<(Cost, TreeIx)> {
        let mut at = from;
        let mut cost: Cost = 0;
        // A tree walk never revisits nodes; size() + 1 steps means the
        // label's invariants are broken (corrupt light path). Treat it
        // like any other foreign label — undeliverable, not a panic.
        for _ in 0..=self.size() {
            let (next, w) = match advance(self, at, label) {
                Move::Deliver => return Some((cost, at)),
                Move::Stuck => return None,
                Move::Up(p) => (p, self.parent_weight(at)),
                // A child the store names but that does not hang below
                // `at` is a corrupt store, not a hop.
                Move::Down(c) if self.parent(c) == Some(at) => (c, self.parent_weight(c)),
                Move::Down(_) => return None,
            };
            cost = cost.saturating_add(w);
            at = next;
            hop(at);
        }
        None
    }

    /// Storage bits of `µ(T,t)` for one node.
    fn local_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        // dfs_in + dfs_out + heavy option (2 interval ends + port) + light depth.
        let has_heavy = self.dfs_out(t).is_some_and(|out| t + 1 < out);
        let heavy = 1 + if has_heavy { 3 * b } else { 0 };
        2 * b + heavy + b
    }

    /// Storage bits of `λ(T,t)`.
    fn label_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        let hops = self.label_at(t).map_or(0, |l| l.hop_count()) as u64;
        b + hops * 2 * b + b // dfs + hops (child number + port) + length field
    }
}

/// One forwarding decision, with its direction.
enum Move {
    Deliver,
    Up(TreeIx),
    Down(TreeIx),
    Stuck,
}

/// The Lemma-5 decision at `at`, reading each field of `µ(T,at)` only
/// when the decision needs it — a record stores them in separate
/// arrays, so every field read is its own cache line.
fn advance<T: LabeledRead + ?Sized>(tree: &T, at: TreeIx, label: impl TreeLabel) -> Move {
    // An out-of-range position (corrupt caller state) is "not in this
    // tree", not a panic.
    let Some(out) = tree.dfs_out(at) else { return Move::Stuck };
    let dfs = label.dfs();
    if dfs == at {
        return Move::Deliver;
    }
    // Destination outside my subtree: go up.
    if dfs < at || dfs >= out {
        return tree.parent(at).map_or(Move::Stuck, Move::Up);
    }
    // A proper descendant, so I have children and the first is my heavy
    // child, at + 1.
    let heavy = at + 1;
    if tree.dfs_out(heavy).is_some_and(|heavy_out| dfs < heavy_out) {
        return Move::Down(heavy);
    }
    // Destination is in one of my light subtrees; the light path entry
    // at index `light depth(at)` (the length of my own label) is the
    // edge leaving me.
    let hop = tree.label_at(at).and_then(|own| label.light_hop(own.hop_count()));
    match hop {
        Some(child) if child > at && child < out => Move::Down(child),
        _ => Move::Stuck,
    }
}

/// Does any adjacent pair of CSR offsets decrease? One branch-free pass
/// over every pair, the last one included.
pub(crate) fn decreases(off: U32s<'_>) -> bool {
    off.iter().zip(off.iter().skip(1)).fold(false, |bad, (a, b)| bad | (b < a))
}

/// A [`LabeledStore`] read in place from its wire record: borrowed
/// little-endian arrays, no decode. [`LabeledView::split`] finds the
/// arrays in O(1); [`LabeledView::validate`] checks, without
/// allocating, every invariant the owned decode relies on.
#[derive(Clone, Copy, Debug)]
pub struct LabeledView<'a> {
    graph_ids: U32s<'a>,
    parents: U32s<'a>,
    weights: U64s<'a>,
    dfs_out: U32s<'a>,
    light_off: U32s<'a>,
    hops: U32s<'a>,
}

impl<'a> LabeledView<'a> {
    /// Locate the store's arrays at the reader's position (the layout
    /// [`LabeledStore::to_wire`] writes). Checks nothing beyond the
    /// length prefixes.
    pub fn split(r: &mut Reader<'a>) -> io::Result<Self> {
        Self::from_arrays(&mut |width| r.array(width))
    }

    /// Assemble from the store's arrays in record order; `next(width)`
    /// hands out each array's payload given its element width. The one
    /// place that knows the record's array order.
    pub(crate) fn from_arrays(
        next: &mut impl FnMut(usize) -> io::Result<&'a [u8]>,
    ) -> io::Result<Self> {
        Ok(LabeledView {
            graph_ids: U32s::new(next(4)?),
            parents: U32s::new(next(4)?),
            weights: U64s::new(next(8)?),
            dfs_out: U32s::new(next(4)?),
            light_off: U32s::new(next(4)?),
            hops: U32s::new(next(4)?),
        })
    }

    /// Check every invariant the walk and the owned decode rely on, in
    /// O(m + hops) without allocating: consistent lengths, node 0 the
    /// only root, every parent before its child, proper subtree
    /// intervals, monotone light offsets inside the hop arena, and
    /// in-range light hops.
    ///
    /// Acyclicity needs no traversal: every non-root `t` must satisfy
    /// `parent(t) < t`, so every parent chain strictly descends and must
    /// end at the one node without a parent — the root.
    ///
    /// Each per-element check is one pass over one array that folds its
    /// predicate with `|` and never exits early: a record that passes
    /// (the only kind a healthy store meets) reads every element anyway,
    /// and the branch-free loop runs at memory speed.
    pub fn validate(&self) -> io::Result<()> {
        use wire::invalid;
        let m = self.graph_ids.len();
        // Tree indices are u32: a record of more nodes is no tree (its
        // subtree interval at t = u32::MAX could not end past t), and
        // rejecting it here lets every pass below compare in u32, which
        // vectorizes where a widening compare to usize does not.
        let Ok(m32) = u32::try_from(m) else {
            return Err(invalid("inconsistent tree record"));
        };
        if m == 0 || self.parents.len() != m || self.weights.len() != m {
            return Err(invalid("inconsistent tree record"));
        }
        if self.dfs_out.len() != m || self.light_off.len() != m + 1 {
            return Err(invalid("labeled store arrays have mismatched lengths"));
        }
        if self.parents.get(0) != Some(u32::MAX) {
            return Err(invalid("node 0 must be the root"));
        }
        if self.light_off.get(0) != Some(0) || self.light_off.get(m) != Some(self.hops.len() as u32)
        {
            return Err(invalid("labeled store light-path arena bounds"));
        }
        // t < m ≤ u32::MAX, so `t as u32` is exact.
        let parents = self.parents.iter().enumerate().skip(1);
        if parents.fold(false, |bad, (t, p)| bad | (p >= t as u32)) {
            return Err(invalid("parent relation is not a connected tree"));
        }
        let outs = self.dfs_out.iter().enumerate();
        if outs.fold(false, |bad, (t, out)| bad | (out <= t as u32) | (out > m32)) {
            return Err(invalid("labeled store subtree interval out of range"));
        }
        if decreases(self.light_off) {
            return Err(invalid("labeled store light offsets decrease"));
        }
        if self.hops.iter().fold(false, |bad, child| bad | (child >= m32)) {
            return Err(invalid("labeled store light hop out of range"));
        }
        Ok(())
    }

    /// Check that every host id names a node of an `n`-node graph (which
    /// [`LabeledView::validate`] cannot know), in one branch-free fold.
    pub fn validate_hosts(&self, n: usize) -> io::Result<()> {
        let n32 = u32::try_from(n).unwrap_or(u32::MAX);
        if self.graph_ids.iter().fold(false, |bad, v| bad | (v >= n32)) {
            return Err(wire::invalid("tree record names a node outside the graph"));
        }
        Ok(())
    }

    /// Copy a validated view into an owned [`LabeledStore`].
    pub(crate) fn to_store(self) -> io::Result<LabeledStore> {
        let tree = Tree::try_from_parents(
            self.graph_ids.iter().collect(),
            self.parents.iter().collect(),
            self.weights.iter().collect(),
        )
        .map_err(|msg| wire::invalid(&msg))?;
        Ok(LabeledStore {
            tree,
            dfs_out: self.dfs_out.iter().collect(),
            light_off: self.light_off.iter().collect(),
            light_hops: self.hops.iter().collect(),
        })
    }
}

impl LabeledRead for LabeledView<'_> {
    type Label<'s>
        = RecordLabel<'s>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.graph_ids.len()
    }

    fn host(&self, t: TreeIx) -> Option<u32> {
        self.graph_ids.get(t as usize)
    }

    fn parent(&self, t: TreeIx) -> Option<TreeIx> {
        self.parents.get(t as usize).filter(|&p| p != u32::MAX)
    }

    fn parent_weight(&self, t: TreeIx) -> Weight {
        self.weights.get(t as usize).unwrap_or(0)
    }

    fn dfs_out(&self, t: TreeIx) -> Option<u32> {
        self.dfs_out.get(t as usize)
    }

    fn label_at(&self, t: TreeIx) -> Option<RecordLabel<'_>> {
        let i = t as usize;
        let (lo, hi) = (self.light_off.get(i)?, self.light_off.get(i + 1)?);
        Some(RecordLabel { dfs: t, hops: self.hops.range(lo as usize, hi as usize)? })
    }
}

/// A tree equipped with the labeled routing scheme: the thin read-path
/// half over a [`LabeledStore`]. [`LabeledTree::new`] preprocesses a
/// fresh tree; [`LabeledTree::from_store`] wraps a deserialized store
/// with zero rebuild — the same routing code serves both.
#[derive(Clone, Debug)]
pub struct LabeledTree {
    store: LabeledStore,
}

impl LabeledTree {
    /// Preprocess `tree` for labeled routing, renumbering it in
    /// heavy-first DFS order: the heavy child (largest subtree, ties to
    /// the smaller index) first, then the light children in index
    /// order. The result's tree is that renumbered copy, so callers
    /// read tree indices off [`LabeledTree::tree`], not off the input.
    /// A tree already in this order comes back unchanged. O(m) time.
    pub fn new(tree: Tree) -> Self {
        let m = tree.size();
        // Subtree sizes by iterative post-order.
        let mut sizes = vec![1u32; m];
        for &t in &post_order(&tree) {
            if let Some(p) = tree.parent(t) {
                sizes[p as usize] += sizes[t as usize];
            }
        }
        // Heavy-first DFS. Children are listed in index order, so
        // pushing the light ones in reverse and the heavy one last
        // visits the heavy child first, then the light ones in order.
        let mut order: Vec<TreeIx> = Vec::with_capacity(m);
        let mut stack = vec![tree.root()];
        while let Some(t) = stack.pop() {
            order.push(t);
            let kids = tree.children(t);
            // Max subtree size, ties to the smaller index.
            let heavy = kids.iter().copied().rev().max_by_key(|&c| sizes[c as usize]);
            stack.extend(kids.iter().rev().filter(|&&c| Some(c) != heavy));
            stack.extend(heavy);
        }
        debug_assert_eq!(order.len(), m);
        // Renumber: the node visited d-th becomes node d.
        let mut dfs_of = vec![0 as TreeIx; m];
        for (d, &t) in order.iter().enumerate() {
            dfs_of[t as usize] = d as TreeIx;
        }
        let parents =
            order.iter().map(|&t| tree.parent(t).map_or(u32::MAX, |p| dfs_of[p as usize]));
        let dfs_out: Vec<u32> =
            order.iter().enumerate().map(|(d, &t)| d as u32 + sizes[t as usize]).collect();
        let tree = Tree::from_parents(
            order.iter().map(|&t| tree.graph_id(t).0).collect(),
            parents.collect(),
            order.iter().map(|&t| tree.parent_weight(t)).collect(),
        );
        // Light-path arena: a node's path is its parent's path plus one
        // hop unless it is the parent's heavy child (parent + 1), so the
        // CSR offsets are a prefix sum, and parents precede children, so
        // one forward pass fills it: copy the parent's slice, then
        // append the light hop.
        let light = |t: TreeIx| tree.parent(t).is_some_and(|p| p + 1 != t);
        let mut light_off = vec![0u32; m + 1];
        for t in 0..m as TreeIx {
            let above =
                tree.parent(t).map_or(0, |p| light_off[p as usize + 1] - light_off[p as usize]);
            light_off[t as usize + 1] = light_off[t as usize] + above + light(t) as u32;
        }
        let mut light_hops = vec![0 as TreeIx; light_off[m] as usize];
        for t in 1..m as TreeIx {
            let Some(p) = tree.parent(t) else { continue };
            let (ps, pe) = (light_off[p as usize] as usize, light_off[p as usize + 1] as usize);
            let cs = light_off[t as usize] as usize;
            light_hops.copy_within(ps..pe, cs);
            if light(t) {
                light_hops[cs + (pe - ps)] = t;
            }
        }
        LabeledTree { store: LabeledStore { tree, dfs_out, light_off, light_hops } }
    }

    /// Wrap an already-built (typically snapshot-loaded) store. No
    /// preprocessing happens here — the store *is* the routing state.
    pub fn from_store(store: LabeledStore) -> Self {
        LabeledTree { store }
    }

    /// The plain-old-data half (for serialization).
    pub fn store(&self) -> &LabeledStore {
        &self.store
    }

    /// The underlying physical tree, in heavy-first DFS order.
    pub fn tree(&self) -> &Tree {
        &self.store.tree
    }

    /// Label of tree node `t`: a zero-copy view into the hop arena.
    pub fn label(&self, t: TreeIx) -> LabelRef<'_> {
        let s = &self.store;
        let (a, b) = (s.light_off[t as usize] as usize, s.light_off[t as usize + 1] as usize);
        LabelRef { dfs: t, light_path: &s.light_hops[a..b] }
    }

    /// One forwarding decision at `at` toward `label` — uses only
    /// `µ(T,at)` and the label (plus physical ports).
    pub fn route_step(&self, at: TreeIx, label: LabelRef<'_>) -> Step {
        match advance(self, at, label) {
            Move::Deliver => Step::Deliver,
            Move::Up(next) | Move::Down(next) => Step::Forward(next),
            Move::Stuck => Step::NotInTree,
        }
    }

    /// Route from `from` to the node carrying `label`. Returns the visited
    /// tree path (inclusive) and its cost, or `None` for foreign labels.
    pub fn route(&self, from: TreeIx, label: LabelRef<'_>) -> Option<(Vec<TreeIx>, Cost)> {
        // lint:allow(no-alloc-in-route): the returned walk owns its path; one Vec per tree route is the API
        let mut path = vec![from];
        let (cost, _) = self.walk(from, label, &mut |t| path.push(t))?;
        Some((path, cost))
    }

    /// Max light-path length over all labels (≤ ceil(log2 m)).
    pub fn max_light_depth(&self) -> u32 {
        self.store.light_off.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }
}

impl LabeledRead for LabeledTree {
    type Label<'s> = LabelRef<'s>;

    fn size(&self) -> usize {
        self.store.tree.size()
    }

    fn host(&self, t: TreeIx) -> Option<u32> {
        self.store.tree.graph_ids().get(t as usize).copied()
    }

    fn parent(&self, t: TreeIx) -> Option<TreeIx> {
        self.store.tree.parents().get(t as usize).copied().filter(|&p| p != u32::MAX)
    }

    fn parent_weight(&self, t: TreeIx) -> Weight {
        self.store.tree.parent_weights().get(t as usize).copied().unwrap_or(0)
    }

    fn dfs_out(&self, t: TreeIx) -> Option<u32> {
        self.store.dfs_out.get(t as usize).copied()
    }

    fn label_at(&self, t: TreeIx) -> Option<LabelRef<'_>> {
        let s = &self.store;
        let (lo, hi) = (*s.light_off.get(t as usize)?, *s.light_off.get(t as usize + 1)?);
        Some(LabelRef { dfs: t, light_path: s.light_hops.get(lo as usize..hi as usize)? })
    }
}

impl StorageCost for RouteLabel {
    fn storage_bits(&self) -> u64 {
        // Conservative: 32-bit fields; schemes that know their tree size
        // should prefer `LabeledTree::label_bits`.
        32 + self.light_path.len() as u64 * 64
    }
}

/// Iterative post-order (children before parents).
fn post_order(tree: &Tree) -> Vec<TreeIx> {
    let m = tree.size();
    let mut order = Vec::with_capacity(m);
    let mut stack = vec![tree.root()];
    while let Some(t) = stack.pop() {
        order.push(t);
        stack.extend_from_slice(tree.children(t));
    }
    order.reverse(); // reverse preorder = valid post-order for size sums
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::{self, WeightDist};
    use graphkit::{dijkstra, Graph, NodeId, Tree};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spanning_tree(g: &Graph, root: NodeId) -> Tree {
        let sp = dijkstra::dijkstra(g, root);
        Tree::from_sssp(g, &sp, g.nodes())
    }

    fn check_all_pairs(lt: &LabeledTree) {
        let m = lt.tree().size() as u32;
        for s in 0..m {
            for t in 0..m {
                let (path, cost) = lt.route(s, lt.label(t)).expect("in-tree label must route");
                assert_eq!(*path.first().unwrap(), s);
                assert_eq!(*path.last().unwrap(), t);
                // Optimality: cost equals the unique tree distance.
                assert_eq!(cost, lt.tree().tree_distance(s, t), "suboptimal {s}->{t}");
                // Path length equals tree path length (no detours).
                assert_eq!(path.len(), lt.tree().tree_path(s, t).len());
            }
        }
    }

    #[test]
    fn path_tree_routes_exactly() {
        let g = gen::path(10, 3);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn star_routes_exactly() {
        let g = gen::star(12, 2);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn balanced_tree_routes_exactly() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = gen::balanced_tree(3, 3, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    #[test]
    fn random_trees_route_exactly() {
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::random_tree(60, WeightDist::UniformInt { lo: 1, hi: 20 }, &mut rng);
            // Root somewhere non-trivial.
            let lt = LabeledTree::new(spanning_tree(&g, NodeId(7)));
            check_all_pairs(&lt);
        }
    }

    #[test]
    fn caterpillar_routes_exactly() {
        let mut rng = SmallRng::seed_from_u64(32);
        let g = gen::caterpillar(8, 4, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        check_all_pairs(&lt);
    }

    /// The trees the numbering tests run on: random trees rooted
    /// somewhere non-trivial, a path, a star and a caterpillar.
    fn numbering_cases() -> Vec<LabeledTree> {
        let mut cases = Vec::new();
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(33 + seed);
            let g = gen::random_tree(100, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
            cases.push(LabeledTree::new(spanning_tree(&g, NodeId(seed as u32 * 7))));
        }
        let mut rng = SmallRng::seed_from_u64(38);
        cases.push(LabeledTree::new(spanning_tree(&gen::path(30, 2), NodeId(11))));
        cases.push(LabeledTree::new(spanning_tree(&gen::star(25, 3), NodeId(0))));
        let g = gen::caterpillar(9, 4, WeightDist::Unit, &mut rng);
        cases.push(LabeledTree::new(spanning_tree(&g, NodeId(0))));
        cases
    }

    fn wire_of(lt: &LabeledTree) -> Vec<u8> {
        let mut w = graphkit::wire::Writer::new();
        lt.store().to_wire(&mut w);
        w.into_bytes()
    }

    #[test]
    fn dfs_number_is_the_index() {
        for lt in numbering_cases() {
            let tree = lt.tree();
            let m = tree.size() as u32;
            for t in 0..m {
                let out = lt.dfs_out(t).unwrap();
                // t's subtree is exactly [t, dfs_out(t)): every node in
                // the interval has t as an ancestor, and no other does.
                for v in 0..m {
                    let mut a = Some(v);
                    while a.is_some_and(|a| a > t) {
                        a = tree.parent(a.unwrap());
                    }
                    assert_eq!(a == Some(t), (t..out).contains(&v), "t={t} v={v}");
                }
                if t > 0 {
                    assert!(tree.parent(t).unwrap() < t, "parent after child at {t}");
                }
                // A node with children has its heavy child at t + 1.
                let kids = tree.children(t);
                if let Some(&first) = kids.first() {
                    assert_eq!(first, t + 1);
                    let size = |c: TreeIx| lt.dfs_out(c).unwrap() - c;
                    assert!(kids.iter().all(|&c| size(c) <= size(t + 1)), "heavy child at {t}");
                }
            }
            // Renumbering an already renumbered tree changes nothing:
            // the tie-breaks pick t + 1 and keep the light-child order.
            let again = LabeledTree::new(tree.clone());
            assert_eq!(wire_of(&again), wire_of(&lt));
        }
    }

    #[test]
    fn subtree_intervals_nest() {
        let mut rng = SmallRng::seed_from_u64(34);
        let g = gen::random_tree(80, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        for t in 0..80u32 {
            let out = lt.dfs_out(t).unwrap();
            assert!(t < out);
            for &c in lt.tree().children(t) {
                assert!(t < c && lt.dfs_out(c).unwrap() <= out);
            }
        }
    }

    #[test]
    fn light_depth_is_logarithmic() {
        let mut rng = SmallRng::seed_from_u64(35);
        let g = gen::random_tree(512, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        // Heavy-path decomposition: light depth <= log2(m).
        assert!(lt.max_light_depth() <= 9, "light depth {}", lt.max_light_depth());
    }

    #[test]
    fn foreign_label_rejected() {
        let g1 = gen::path(6, 1);
        let lt1 = LabeledTree::new(spanning_tree(&g1, NodeId(0)));
        // A label with a DFS number past the tree size cannot route.
        let bogus = RouteLabel { dfs: 99, light_path: vec![] };
        assert_eq!(lt1.route(3, bogus.as_ref()), None);
    }

    #[test]
    fn singleton_tree_delivers_immediately() {
        let t = Tree::from_parents(vec![0], vec![u32::MAX], vec![0]);
        let lt = LabeledTree::new(t);
        let (path, cost) = lt.route(0, lt.label(0)).unwrap();
        assert_eq!(path, vec![0]);
        assert_eq!(cost, 0);
    }

    #[test]
    fn store_wire_roundtrip_routes_identically() {
        let mut rng = SmallRng::seed_from_u64(37);
        let g = gen::random_tree(90, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let mut w = graphkit::wire::Writer::new();
        lt.store().to_wire(&mut w);
        let bytes = w.into_bytes();
        let store = LabeledStore::from_wire(&mut graphkit::wire::Reader::new(&bytes)).unwrap();
        let lt2 = LabeledTree::from_store(store);
        for s in 0..lt.tree().size() as u32 {
            for t in 0..lt.tree().size() as u32 {
                assert_eq!(lt2.route(s, lt2.label(t)), lt.route(s, lt.label(t)));
            }
        }
        // Truncations error rather than panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LabeledStore::from_wire(&mut graphkit::wire::Reader::new(&bytes[..cut])).is_err()
            );
        }
    }

    #[test]
    fn storage_bits_reasonable() {
        let mut rng = SmallRng::seed_from_u64(36);
        let g = gen::random_tree(256, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let b = graphkit::bits::bits_for_node(256); // 8
        for t in 0..256u32 {
            // µ is O(log m): at most 6 node-id fields + flag.
            assert!(lt.local_bits(t) <= 6 * b + 1);
            // λ is O(log^2 m): light depth * 2 ids + 2 ids.
            assert!(lt.label_bits(t) <= (2 * lt.max_light_depth() as u64 + 2) * b + 64);
        }
    }
}
