//! Labeled (topology-dependent-name) tree routing — the paper's Lemma 5
//! (Fraigniaud–Gavoille ICALP'01, Thorup–Zwick SPAA'01).
//!
//! Given a rooted weighted tree, every node gets a *label*; a message
//! carrying the destination label is forwarded along the unique tree
//! path using only the local node's O(log n)-bit routing info plus the
//! label. Our variant is the heavy-path scheme:
//!
//! * nodes are numbered by heavy-first DFS, so each subtree is a
//!   contiguous interval;
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
use graphkit::wire::{self, Pairs, Reader, U32s, U64s, Writer};
use graphkit::{Cost, Tree, TreeIx, Weight};
use std::io;

/// One light edge on the root→v path: the light child entered, plus its
/// DFS number (used to sanity-check foreign labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LightHop {
    /// DFS number of the light child entered.
    pub child_dfs: u32,
    /// Physical port: the tree index of that child.
    pub child: TreeIx,
}

/// Destination label `λ(T,v)`, owned. Inside a [`LabeledTree`] labels
/// live in one contiguous hop arena and are handed out as borrowing
/// [`LabelRef`]s; this owned form exists for callers that persist a
/// label beyond the tree's lifetime (message headers, baselines).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteLabel {
    /// DFS number of the destination.
    pub dfs: u32,
    /// Light edges on the root→destination path, in order.
    pub light_path: Vec<LightHop>,
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
    /// DFS number of the destination.
    pub dfs: u32,
    /// Light edges on the root→destination path, in order.
    pub light_path: &'a [LightHop],
}

impl LabelRef<'_> {
    /// Copy into an owned [`RouteLabel`].
    pub fn to_owned(self) -> RouteLabel {
        RouteLabel { dfs: self.dfs, light_path: self.light_path.to_vec() }
    }
}

/// Per-node routing information `µ(T,u)`.
#[derive(Clone, Copy, Debug)]
pub struct NodeLocal {
    /// Own DFS number (= interval start).
    pub dfs_in: u32,
    /// Interval end, exclusive: the subtree of `u` is `[dfs_in, dfs_out)`.
    pub dfs_out: u32,
    /// Heavy child's `(dfs_in, dfs_out, tree index)`, absent at leaves.
    pub heavy: Option<(u32, u32, TreeIx)>,
    /// Number of light edges on the root→u path.
    pub light_depth: u32,
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

/// The plain-old-data half of a [`LabeledTree`]: the physical tree plus
/// the flat µ/λ arenas the read path routes against. Everything here is
/// CSR-shaped — no per-node allocations — so a store serializes as a
/// handful of flat arrays and a snapshot load is one pass back into the
/// same shape, no preprocessing rerun.
///
/// Labels are stored flat: one hop arena (`light_hops`) plus an offset
/// table (`light_off`), CSR-style, instead of a `Vec<LightHop>` per
/// node — label storage is two allocations per tree regardless of size,
/// and a node's label is a 16-byte [`LabelRef`] view.
#[derive(Clone, Debug)]
pub struct LabeledStore {
    tree: Tree,
    locals: Vec<NodeLocal>,
    /// CSR offsets: node `t`'s light path is
    /// `light_hops[light_off[t]..light_off[t + 1]]`.
    light_off: Vec<u32>,
    light_hops: Vec<LightHop>,
    /// `dfs_order[d]` = tree index of the node with DFS number `d`.
    dfs_order: Vec<TreeIx>,
}

impl LabeledStore {
    /// The underlying physical tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Serialize as flat arrays (structure-of-arrays for the locals,
    /// `u32::MAX` heavy-child sentinel for leaves).
    pub fn to_wire(&self, w: &mut Writer) {
        wire::write_tree(w, &self.tree);
        let m = self.tree.size();
        w.len(m);
        self.locals.iter().for_each(|l| w.u32(l.dfs_in));
        w.len(m);
        self.locals.iter().for_each(|l| w.u32(l.dfs_out));
        w.len(m);
        self.locals.iter().for_each(|l| w.u32(l.light_depth));
        w.len(3 * m);
        for l in &self.locals {
            let (hi, ho, hc) = l.heavy.unwrap_or((0, 0, u32::MAX));
            w.u32(hi);
            w.u32(ho);
            w.u32(hc);
        }
        w.slice_u32(&self.light_off);
        w.len(self.light_hops.len());
        for h in &self.light_hops {
            w.u32(h.child_dfs);
            w.u32(h.child);
        }
        w.slice_u32(&self.dfs_order);
    }

    /// Exact length of [`LabeledStore::to_wire`]'s output.
    pub fn wire_len(&self) -> usize {
        let m = self.tree.size();
        // Ten length-prefixed arrays; per node: graph id, parent,
        // dfs_in, dfs_out, light depth, dfs order (4 B each), weight
        // (8 B), heavy triple (12 B), light offset (4 B, plus one).
        10 * 8 + m * (6 * 4 + 8 + 12 + 4) + 4 + self.light_hops.len() * 8
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
/// plus the light hops on the root→destination path. Implemented by
/// owned labels ([`LabelRef`]) and labels read in place from a record
/// ([`RecordLabel`]).
pub trait TreeLabel: Copy {
    /// DFS number of the destination.
    fn dfs(&self) -> u32;
    /// Light hop `i` of the root→destination path, if present.
    fn light_hop(&self, i: usize) -> Option<LightHop>;
    /// Number of light hops.
    fn hop_count(&self) -> usize;
}

impl TreeLabel for LabelRef<'_> {
    fn dfs(&self) -> u32 {
        self.dfs
    }

    fn light_hop(&self, i: usize) -> Option<LightHop> {
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
    hops: Pairs<'a>,
}

impl TreeLabel for RecordLabel<'_> {
    fn dfs(&self) -> u32 {
        self.dfs
    }

    fn light_hop(&self, i: usize) -> Option<LightHop> {
        self.hops.get(i).map(|(child_dfs, child)| LightHop { child_dfs, child })
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
    /// `t`'s DFS number (its subtree interval's start).
    fn dfs_in(&self, t: TreeIx) -> Option<u32>;
    /// End of `t`'s subtree interval, exclusive.
    fn dfs_out(&self, t: TreeIx) -> Option<u32>;
    /// `t`'s heavy child as `(dfs_in, dfs_out, tree index)`; `None` at
    /// a leaf or out of range.
    fn heavy(&self, t: TreeIx) -> Option<(u32, u32, TreeIx)>;
    /// Number of light edges on the root→t path.
    fn light_depth(&self, t: TreeIx) -> Option<u32>;
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
        let heavy = 1 + if self.heavy(t).is_some() { 3 * b } else { 0 };
        2 * b + heavy + b
    }

    /// Storage bits of `λ(T,t)`.
    fn label_bits(&self, t: TreeIx) -> u64 {
        let b = bits_for_node(self.size());
        let hops = self.label_at(t).map_or(0, |l| l.hop_count()) as u64;
        b + hops * 2 * b + b // dfs + hops + length field
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
    let Some(din) = tree.dfs_in(at) else { return Move::Stuck };
    let dfs = label.dfs();
    if dfs == din {
        return Move::Deliver;
    }
    // Destination outside my subtree: go up.
    let up = || tree.parent(at).map_or(Move::Stuck, Move::Up);
    if dfs < din {
        return up();
    }
    let Some(dout) = tree.dfs_out(at) else { return Move::Stuck };
    if dfs >= dout {
        return up();
    }
    if let Some((hi, ho, hc)) = tree.heavy(at) {
        if dfs >= hi && dfs < ho {
            return Move::Down(hc);
        }
    }
    // Destination is in one of my light subtrees; the light path entry
    // at index `light_depth` is the edge leaving me.
    let hop = tree.light_depth(at).and_then(|ld| label.light_hop(ld as usize));
    match hop {
        Some(hop) if hop.child_dfs > din && hop.child_dfs < dout => Move::Down(hop.child),
        _ => Move::Stuck,
    }
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
    dfs_in: U32s<'a>,
    dfs_out: U32s<'a>,
    light_depth: U32s<'a>,
    heavy: U32s<'a>,
    light_off: U32s<'a>,
    hops: Pairs<'a>,
    dfs_order: U32s<'a>,
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
            dfs_in: U32s::new(next(4)?),
            dfs_out: U32s::new(next(4)?),
            light_depth: U32s::new(next(4)?),
            heavy: U32s::new(next(4)?),
            light_off: U32s::new(next(4)?),
            hops: Pairs::new(next(8)?),
            dfs_order: U32s::new(next(4)?),
        })
    }

    /// Check every invariant the walk and the owned decode rely on, in
    /// O(m + hops) without allocating: consistent lengths, node 0 the
    /// only root, in-range parents, heavy children and light hops, a
    /// DFS numbering that is a permutation inverse to `dfs_order`,
    /// proper subtree intervals, and light offsets that agree with the
    /// light depths.
    ///
    /// Acyclicity needs no traversal: every non-root `t` must satisfy
    /// `dfs_in[parent(t)] < dfs_in[t]`. DFS numbers are distinct, so
    /// every parent chain strictly descends and must end at the one
    /// node without a parent — the root.
    pub fn validate(&self) -> io::Result<()> {
        use wire::invalid;
        let m = self.graph_ids.len();
        if m == 0 || self.parents.len() != m || self.weights.len() != m {
            return Err(invalid("inconsistent tree record"));
        }
        if self.dfs_in.len() != m
            || self.dfs_out.len() != m
            || self.light_depth.len() != m
            || self.heavy.len() != 3 * m
            || self.light_off.len() != m + 1
            || self.dfs_order.len() != m
        {
            return Err(invalid("labeled store arrays have mismatched lengths"));
        }
        if self.parents.get(0) != Some(u32::MAX) {
            return Err(invalid("node 0 must be the root"));
        }
        if self.light_off.get(0) != Some(0) || self.light_off.get(m) != Some(self.hops.len() as u32)
        {
            return Err(invalid("labeled store light-path arena bounds"));
        }
        let locals = self.dfs_in.iter().zip(self.dfs_out.iter()).zip(self.light_depth.iter());
        for (t, ((d, out), ld)) in locals.enumerate() {
            if d as usize >= m || self.dfs_order.get(d as usize) != Some(t as u32) {
                return Err(invalid("labeled store DFS order is not a permutation"));
            }
            if out <= d || out as usize > m {
                return Err(invalid("labeled store subtree interval out of range"));
            }
            let lo = self.light_off.get(t).unwrap_or(u32::MAX);
            let hi = self.light_off.get(t + 1).unwrap_or(0);
            if hi < lo || hi - lo != ld {
                return Err(invalid("labeled store light offsets disagree with depths"));
            }
            let hc = self.heavy.get(3 * t + 2).unwrap_or(0);
            if hc != u32::MAX && hc as usize >= m {
                return Err(invalid("labeled store heavy child out of range"));
            }
            if t > 0 {
                let p = self.parents.get(t).unwrap_or(u32::MAX);
                if p as usize >= m {
                    return Err(invalid(&format!("bad parent for node {t}")));
                }
                if self.dfs_in.get(p as usize).is_none_or(|pd| pd >= d) {
                    return Err(invalid("parent relation is not a connected tree"));
                }
            }
        }
        if self.hops.iter().any(|(_, child)| child as usize >= m) {
            return Err(invalid("labeled store light hop out of range"));
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
        let locals = (0..self.size() as u32)
            .map(|t| {
                Some(NodeLocal {
                    dfs_in: self.dfs_in(t)?,
                    dfs_out: self.dfs_out(t)?,
                    heavy: self.heavy(t),
                    light_depth: self.light_depth(t)?,
                })
            })
            .collect::<Option<Vec<NodeLocal>>>()
            .ok_or_else(|| wire::invalid("labeled store locals truncated"))?;
        Ok(LabeledStore {
            tree,
            locals,
            light_off: self.light_off.iter().collect(),
            light_hops: self
                .hops
                .iter()
                .map(|(child_dfs, child)| LightHop { child_dfs, child })
                .collect(),
            dfs_order: self.dfs_order.iter().collect(),
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

    fn dfs_in(&self, t: TreeIx) -> Option<u32> {
        self.dfs_in.get(t as usize)
    }

    fn dfs_out(&self, t: TreeIx) -> Option<u32> {
        self.dfs_out.get(t as usize)
    }

    fn heavy(&self, t: TreeIx) -> Option<(u32, u32, TreeIx)> {
        let t = 3 * t as usize;
        let hc = self.heavy.get(t + 2).filter(|&hc| hc != u32::MAX)?;
        Some((self.heavy.get(t)?, self.heavy.get(t + 1)?, hc))
    }

    fn light_depth(&self, t: TreeIx) -> Option<u32> {
        self.light_depth.get(t as usize)
    }

    fn label_at(&self, t: TreeIx) -> Option<RecordLabel<'_>> {
        let t = t as usize;
        let (lo, hi) = (self.light_off.get(t)?, self.light_off.get(t + 1)?);
        Some(RecordLabel {
            dfs: self.dfs_in.get(t)?,
            hops: self.hops.range(lo as usize, hi as usize)?,
        })
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
    /// Preprocess `tree` for labeled routing. O(m) time.
    pub fn new(tree: Tree) -> Self {
        let m = tree.size();
        // Subtree sizes by iterative post-order.
        let mut sizes = vec![1u32; m];
        let order = post_order(&tree);
        for &t in &order {
            if let Some(p) = tree.parent(t) {
                sizes[p as usize] += sizes[t as usize];
            }
        }
        // Heavy child per node: max subtree size, ties to smaller index.
        let mut heavy_child: Vec<Option<TreeIx>> = vec![None; m];
        for t in 0..m as u32 {
            let mut best: Option<TreeIx> = None;
            for &c in tree.children(t) {
                let better = match best {
                    None => true,
                    Some(b) => {
                        sizes[c as usize] > sizes[b as usize]
                            || (sizes[c as usize] == sizes[b as usize] && c < b)
                    }
                };
                if better {
                    best = Some(c);
                }
            }
            heavy_child[t as usize] = best;
        }
        // Heavy-first DFS: assign dfs_in/out and light depths. Light
        // paths are NOT materialized per node here; they land in one
        // shared arena below.
        let mut locals: Vec<NodeLocal> = (0..m)
            .map(|_| NodeLocal { dfs_in: 0, dfs_out: 0, heavy: None, light_depth: 0 })
            .collect();
        let mut dfs_order = vec![0 as TreeIx; m];
        let mut counter: u32 = 0;
        // Stack carries (node, light depth).
        let mut stack: Vec<(TreeIx, u32)> = vec![(tree.root(), 0)];
        while let Some((t, ld)) = stack.pop() {
            let dfs = counter;
            counter += 1;
            dfs_order[dfs as usize] = t;
            locals[t as usize].dfs_in = dfs;
            locals[t as usize].light_depth = ld;
            // Push children: light ones (reverse order) then heavy, so the
            // heavy child is visited first and gets dfs_in + 1.
            let hc = heavy_child[t as usize];
            let mut lights: Vec<TreeIx> =
                tree.children(t).iter().copied().filter(|&c| Some(c) != hc).collect();
            lights.sort_unstable_by(|a, b| b.cmp(a)); // reversed push order
            for c in lights {
                stack.push((c, ld + 1));
            }
            if let Some(h) = hc {
                stack.push((h, ld));
            }
        }
        debug_assert_eq!(counter as usize, m);
        // dfs_out by post-order accumulation: out = max over subtree + 1.
        let mut outs: Vec<u32> = locals.iter().map(|l| l.dfs_in + 1).collect();
        for &t in &order {
            if let Some(p) = tree.parent(t) {
                outs[p as usize] = outs[p as usize].max(outs[t as usize]);
            }
        }
        for t in 0..m {
            locals[t].dfs_out = outs[t];
        }
        // Fill heavy intervals.
        for t in 0..m as u32 {
            if let Some(h) = heavy_child[t as usize] {
                locals[t as usize].heavy =
                    Some((locals[h as usize].dfs_in, locals[h as usize].dfs_out, h));
            }
        }
        // Light-path arena: a node's path is its parent's path plus one
        // hop if the edge from the parent is light, so path length ==
        // light_depth and the CSR offsets are a prefix sum. Fill parent
        // before child (preorder walk): copy the parent's slice, then
        // append the light hop. Same O(m log m) total size as before,
        // but in exactly two allocations.
        let mut light_off = vec![0u32; m + 1];
        for t in 0..m {
            light_off[t + 1] = light_off[t] + locals[t].light_depth;
        }
        let mut light_hops = vec![LightHop { child_dfs: 0, child: 0 }; light_off[m] as usize];
        let mut walk = vec![tree.root()];
        while let Some(t) = walk.pop() {
            let (ps, pe) = (light_off[t as usize] as usize, light_off[t as usize + 1] as usize);
            for &c in tree.children(t) {
                let cs = light_off[c as usize] as usize;
                light_hops.copy_within(ps..pe, cs);
                if heavy_child[t as usize] != Some(c) {
                    light_hops[cs + (pe - ps)] =
                        LightHop { child_dfs: locals[c as usize].dfs_in, child: c };
                }
                walk.push(c);
            }
        }
        LabeledTree { store: LabeledStore { tree, locals, light_off, light_hops, dfs_order } }
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

    /// The underlying physical tree.
    pub fn tree(&self) -> &Tree {
        &self.store.tree
    }

    /// Label of tree node `t`: a zero-copy view into the hop arena.
    pub fn label(&self, t: TreeIx) -> LabelRef<'_> {
        let s = &self.store;
        let (a, b) = (s.light_off[t as usize] as usize, s.light_off[t as usize + 1] as usize);
        LabelRef { dfs: s.locals[t as usize].dfs_in, light_path: &s.light_hops[a..b] }
    }

    /// Local routing info of tree node `t`.
    pub fn local(&self, t: TreeIx) -> &NodeLocal {
        &self.store.locals[t as usize]
    }

    /// Tree node with DFS number `d`.
    pub fn node_at_dfs(&self, d: u32) -> TreeIx {
        self.store.dfs_order[d as usize]
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
        self.store.locals.iter().map(|l| l.light_depth).max().unwrap_or(0)
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

    fn dfs_in(&self, t: TreeIx) -> Option<u32> {
        self.store.locals.get(t as usize).map(|l| l.dfs_in)
    }

    fn dfs_out(&self, t: TreeIx) -> Option<u32> {
        self.store.locals.get(t as usize).map(|l| l.dfs_out)
    }

    fn heavy(&self, t: TreeIx) -> Option<(u32, u32, TreeIx)> {
        self.store.locals.get(t as usize).and_then(|l| l.heavy)
    }

    fn light_depth(&self, t: TreeIx) -> Option<u32> {
        self.store.locals.get(t as usize).map(|l| l.light_depth)
    }

    fn label_at(&self, t: TreeIx) -> Option<LabelRef<'_>> {
        let s = &self.store;
        let (lo, hi) = (*s.light_off.get(t as usize)?, *s.light_off.get(t as usize + 1)?);
        Some(LabelRef {
            dfs: s.locals.get(t as usize)?.dfs_in,
            light_path: s.light_hops.get(lo as usize..hi as usize)?,
        })
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

    #[test]
    fn dfs_numbers_are_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(33);
        let g = gen::random_tree(100, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let mut seen = [false; 100];
        for t in 0..100u32 {
            let d = lt.local(t).dfs_in as usize;
            assert!(!seen[d]);
            seen[d] = true;
            assert_eq!(lt.node_at_dfs(d as u32), t);
        }
    }

    #[test]
    fn subtree_intervals_nest() {
        let mut rng = SmallRng::seed_from_u64(34);
        let g = gen::random_tree(80, WeightDist::Unit, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        for t in 0..80u32 {
            let me = lt.local(t);
            assert!(me.dfs_in < me.dfs_out);
            for &c in lt.tree().children(t) {
                let ch = lt.local(c);
                assert!(me.dfs_in < ch.dfs_in && ch.dfs_out <= me.dfs_out);
            }
            if let Some((hi, ho, hc)) = me.heavy {
                assert_eq!(hi, me.dfs_in + 1, "heavy child must be visited first");
                assert_eq!(lt.local(hc).dfs_in, hi);
                assert_eq!(lt.local(hc).dfs_out, ho);
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
