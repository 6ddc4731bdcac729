//! Name-independent **error-reporting** tree routing — the paper's
//! Lemma 4 (an enhancement of Laing's scheme \[21\]).
//!
//! On a rooted weighted tree with `m` nodes and alphabet
//! `Σ = {0, …, σ−1}`:
//!
//! * nodes are *primary-named* by distance rank from the root
//!   ([`crate::names::Naming`]): the root is ε, the next σ nodes get
//!   1-digit names, the next σ² get 2-digit names, …;
//! * a Θ(log n)-wise independent hash ([`crate::hashing::PolyHash`])
//!   maps arbitrary network ids to digit strings in Σ^k;
//! * the node named `(x₁…x_j)` stores (1) its labeled-routing info
//!   `µ(T,u)`, (2) the labels of all nodes named `(x₁…x_j, y)`, and
//!   (3) a directory with the labels of the `σ·log n` closest-to-root
//!   nodes whose hash starts with `(x₁…x_j)`.
//!
//! A *j-bounded search* from the root follows the target's hash digits
//! through at most `j−1` named hops; Lemma 4 guarantees it finds any
//! node of `V_j` (the `Σ_{t≤j} σ^t` closest nodes) with stretch
//! `2j−1`, and otherwise reports failure back to the root at cost
//! `(2j−2)·max{d(root,v) : v ∈ V_{j−1}}`. Both bounds are asserted by
//! the test-suite and re-measured by experiment L4.
//!
//! ## Storage layout
//!
//! A record is one header (k, σ, the hash-verified flag), the hash
//! coefficients, the [`LabeledTree`]'s arrays, then the two directories.
//! A tree has one numbering: a node's index is its heavy-first DFS
//! number, the index its label routes to. Both directories are CSR
//! arrays by that index, and every entry refers to its target by it
//! too (the label itself stays in the labeled tree's shared hop arena).
//! No record stores a distance rank: the rank order — (depth, graph
//! id), [`Tree::nodes_by_depth`] — is needed only while the directories
//! are assembled. Name lookups use pure rank arithmetic
//! ([`Naming::child_rank`] / [`Naming::rank_of_name`] on a borrowed
//! digit slice) — no `Vec<u32>`-keyed hash maps anywhere.
//!
//! ## Two read paths, one search
//!
//! The search is written once, as [`ErtRead::bounded_search`], over
//! either the owned arenas of an [`ErrorReportingTree`] (the builder,
//! tests, the public [`ErrorReportingTree::search`]) or an [`ErtView`]
//! — the same arrays read in place from the record
//! [`ErtStore::to_wire`] writes, with no decode. [`ErtView::new`]
//! validates a record without allocating; [`ErtStore::from_wire`] is
//! that validation plus a copy into owned arrays.

use graphkit::bits::{bits_for_node, StorageCost};
use graphkit::ids::ceil_log2;
use graphkit::wire::{self, Pairs, Reader, U32s, U64s};
use graphkit::{Cost, NodeId, Tree, TreeIx};
use std::io;

use crate::hashing::{digit_at, poly_eval, PolyHash, FIELD_P};
use crate::labeled::{decreases, LabeledRead, LabeledTree, LabeledView};
use crate::names::Naming;

/// Outcome of a tree lookup: a j-bounded search (Lemma 4) or a
/// cover-tree route ([`crate::cover_router`], Lemma 7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// Target reached; `cost` is the total weighted path cost from
    /// where the lookup started (the root of a search, the source of a
    /// cover route), `delivered_at` the tree index of the target.
    Found {
        /// Total weighted cost of the walk.
        cost: Cost,
        /// Tree index of the target.
        delivered_at: TreeIx,
    },
    /// Target not found; the walk returned to where it started having
    /// paid `cost` in total (the closed-path cost).
    NotFound {
        /// Total cost of the closed path back to the start.
        cost: Cost,
    },
}

impl SearchOutcome {
    /// Total cost paid, found or not.
    pub fn cost(&self) -> Cost {
        match *self {
            SearchOutcome::Found { cost, .. } => cost,
            SearchOutcome::NotFound { cost } => cost,
        }
    }

    /// Did the search deliver?
    pub fn is_found(&self) -> bool {
        matches!(self, SearchOutcome::Found { .. })
    }
}

/// The plain-old-data half of an [`ErrorReportingTree`]: the labeled
/// store plus every Lemma-4 directory arena, already assembled. A store
/// serializes as flat arrays — no re-running of naming, labeling, or
/// directory assembly on the way back — and those same arrays are what
/// an [`ErtView`] routes on in place.
#[derive(Clone, Debug)]
pub struct ErtStore {
    labeled: LabeledTree,
    hash: PolyHash,
    k: usize,
    sigma: u64,
    max_load: usize,
    /// Item (2), CSR by tree index: `(digit y, name-child tree ix)`.
    nc_off: Vec<u32>,
    nc: Vec<(u32, TreeIx)>,
    /// Item (3), CSR by tree index: `(target graph id, target tree ix)`.
    hd_off: Vec<u32>,
    hd: Vec<(u32, TreeIx)>,
    /// Whether the hash verification succeeded within the retry budget.
    hash_verified: bool,
}

impl ErtStore {
    /// Serialize every arena verbatim — the record a snapshot section
    /// holds. Decoding is one pass plus bounds checks;
    /// nothing is recomputed.
    pub fn to_wire(&self, w: &mut wire::Writer) {
        w.u64(self.k as u64);
        w.u64(self.sigma);
        w.u8(self.hash_verified as u8);
        w.slice_u64(self.hash.coeffs());
        self.labeled.store().to_wire(w);
        w.slice_u32(&self.nc_off);
        w.slice_pairs(&self.nc);
        w.slice_u32(&self.hd_off);
        w.slice_pairs(&self.hd);
    }

    /// Exact length of [`ErtStore::to_wire`]'s record.
    pub fn wire_len(&self) -> usize {
        let m = self.labeled.size();
        // Header (k, σ, verified flag), then five length-prefixed
        // arrays around the labeled store.
        HEADER
            + 5 * 8
            + 8 * self.hash.coeffs().len()
            + self.labeled.store().wire_len()
            + 4 * 2 * (m + 1)
            + 8 * (self.nc.len() + self.hd.len())
    }

    /// Inverse of [`ErtStore::to_wire`]: the checks of
    /// [`ErtView::new`], then one copy into owned arrays. Corrupt bytes
    /// are an [`io::Error`], never a panic or a latent out-of-bounds
    /// index.
    pub fn from_wire(r: &mut wire::Reader) -> io::Result<Self> {
        let view = ErtView::split(r)?;
        view.validate()?;
        view.to_store()
    }
}

/// Read access to a Lemma-4 tree over owned arenas
/// ([`ErrorReportingTree`]) or record bytes ([`ErtView`]): the
/// per-node directories plus the hash description. Accessors are
/// checked, so the search degrades to a miss on a corrupt store.
pub trait ErtRead {
    /// The underlying labeled tree.
    type Tree: LabeledRead;
    /// A directory row: `(digit or graph id, tree index)` entries.
    type Row<'s>: Iterator<Item = (u32, TreeIx)>
    where
        Self: 's;

    /// The underlying labeled scheme (and physical tree).
    fn labeled(&self) -> &Self::Tree;
    /// Search depth bound k.
    fn k(&self) -> usize;
    /// Alphabet size σ.
    fn sigma(&self) -> u64;
    /// The tree's hash of network id `x`, as a field element.
    fn hash_eval(&self, x: u64) -> u64;
    /// Bits to store the hash description.
    fn hash_bits(&self) -> u64;
    /// Item (2) of `t`'s storage: `(digit, name-child tree index)`.
    fn name_row(&self, t: TreeIx) -> Self::Row<'_>;
    /// Item (3) of `t`'s storage: `(target graph id, tree index)`.
    fn hash_row(&self, t: TreeIx) -> Self::Row<'_>;

    /// Execute a `j`-bounded search from the root for the node whose
    /// network id is `target`, handing every node walked after the root
    /// to `hop`. Pure simulation: every decision uses only the current
    /// node's stored directories.
    fn bounded_search(&self, target: u32, j: usize, hop: &mut impl FnMut(TreeIx)) -> SearchOutcome {
        let tree = self.labeled();
        let k = self.k();
        // A 0-bounded search is read as 1-bounded. Names gain a digit
        // per round and no name is longer than size − 1 digits, so a
        // round past size() can only miss the same way the bound does;
        // the cap keeps a corrupt record's name cycle from spinning.
        let j = j.max(1).min(k).min(tree.size());
        let v = self.hash_eval(target as u64);
        let root: TreeIx = 0;
        let mut current = root;
        let mut cost: Cost = 0;
        let mut round = 1usize;
        // Every stored label below routes inside this tree by
        // construction; a label that no longer routes means a corrupt
        // store, and the search degrades to a failure from where it
        // stands — never a panicked serving thread.
        loop {
            // Does `current` know the target?
            let known = if tree.host(current) == Some(target) {
                Some(current)
            } else {
                self.hash_row(current).find(|&(gid, _)| gid == target).map(|(_, ix)| ix)
            };
            if let Some(tix) = known {
                let routed = tree.label_at(tix).and_then(|l| tree.walk(current, l, hop));
                return match routed {
                    Some((c, delivered_at)) => {
                        SearchOutcome::Found { cost: cost.saturating_add(c), delivered_at }
                    }
                    None => SearchOutcome::NotFound { cost },
                };
            }
            // Move to the node named (y_1 … y_round); a missing name
            // means the target is not in the tree at all (names fill
            // rank-by-rank; see module docs).
            let next = if round >= j {
                None
            } else {
                let digit = digit_at(v, self.sigma(), k, round - 1);
                self.name_row(current).find(|&(d, _)| d == digit).map(|(_, c)| c)
            };
            let Some(child) = next else {
                // Bounded out or name miss: report failure back to the
                // root.
                if let Some((c, _)) = tree.label_at(root).and_then(|l| tree.walk(current, l, hop)) {
                    cost = cost.saturating_add(c);
                }
                return SearchOutcome::NotFound { cost };
            };
            let Some((c, at)) = tree.label_at(child).and_then(|l| tree.walk(current, l, hop))
            else {
                return SearchOutcome::NotFound { cost };
            };
            cost = cost.saturating_add(c);
            current = at;
            round += 1;
        }
    }

    /// Storage bits of tree node `t` under this scheme: µ(T,t) + the two
    /// directories + the hash description (τ(T,t) in the paper's
    /// notation).
    fn node_bits(&self, t: TreeIx) -> u64 {
        let tree = self.labeled();
        let id_bits = bits_for_node(tree.size());
        let digit_bits = ceil_log2(self.sigma()) as u64;
        let mut bits = tree.local_bits(t) + self.hash_bits();
        for (_, child) in self.name_row(t) {
            bits += digit_bits + tree.label_bits(child);
        }
        for (_, ix) in self.hash_row(t) {
            bits += id_bits + tree.label_bits(ix);
        }
        bits
    }
}

/// One Lemma-4 tree record ([`ErtStore::to_wire`]'s layout) read in
/// place: borrowed little-endian arrays, nothing decoded. Serving
/// routes straight off a view; [`ErtView::new`] validates a record
/// without allocating, [`ErtView::locate`] only finds its arrays.
#[derive(Clone, Copy, Debug)]
pub struct ErtView<'a> {
    labeled: LabeledView<'a>,
    k: usize,
    sigma: u64,
    hash_verified: bool,
    coeffs: U64s<'a>,
    nc_off: U32s<'a>,
    nc: Pairs<'a>,
    hd_off: U32s<'a>,
    hd: Pairs<'a>,
}

impl<'a> ErtView<'a> {
    /// View one whole record and validate it: every check
    /// [`ErtStore::from_wire`] makes (it is the same code), in
    /// O(m + directories) without allocating. Trailing bytes are an
    /// error too.
    pub fn new(record: &'a [u8]) -> io::Result<Self> {
        let (view, _) = Self::locate(record)?;
        view.validate()?;
        Ok(view)
    }

    /// View one whole record without validating its contents, and note
    /// where its arrays are so [`ErtView::at`] can view it again cheaply
    /// — for records this process encoded or already validated. Only the
    /// array boundaries are checked (trailing bytes are an error);
    /// accessors stay checked, so even a bad record degrades, never
    /// panics.
    pub fn locate(record: &'a [u8]) -> io::Result<(Self, ErtLayout)> {
        let mut r = Reader::new(record);
        let mut ends = [0u32; ARRAYS];
        let mut i = 0;
        let view = Self::split_with(&mut r, &mut |r, width| {
            let bytes = r.array(width)?;
            if let Some(end) = ends.get_mut(i) {
                *end = r.position() as u32;
            }
            i += 1;
            Ok(bytes)
        })?;
        if !r.is_empty() {
            return Err(wire::invalid("trailing bytes after ERT record"));
        }
        Ok((view, ErtLayout { ends }))
    }

    /// Rebuild the view of a record whose layout was found earlier by
    /// [`ErtView::locate`], reading only the record's header — not the
    /// length prefixes, which on a large record each sit on a separate
    /// cache line.
    pub fn at(record: &'a [u8], layout: &ErtLayout) -> io::Result<Self> {
        let mut r = Reader::new(record);
        let mut starts_at = HEADER;
        let mut ends = layout.ends.iter();
        Self::split_with(&mut r, &mut |_, _| {
            let end = *ends.next().ok_or_else(|| wire::invalid("ERT layout too short"))? as usize;
            let start = starts_at + 8;
            starts_at = end;
            record.get(start..end).ok_or_else(|| wire::invalid("ERT layout outside its record"))
        })
    }

    fn split(r: &mut Reader<'a>) -> io::Result<Self> {
        Self::split_with(r, &mut |r, width| r.array(width))
    }

    /// Read the header from `r`, then take the record's arrays in order
    /// from `next(r, element width)`.
    fn split_with(
        r: &mut Reader<'a>,
        next: &mut impl FnMut(&mut Reader<'a>, usize) -> io::Result<&'a [u8]>,
    ) -> io::Result<Self> {
        let k = r.u64()?;
        let sigma = r.u64()?;
        let hash_verified = r.u8()? != 0;
        let mut next = |width| next(r, width);
        Ok(ErtView {
            k: usize::try_from(k).unwrap_or(usize::MAX),
            sigma,
            hash_verified,
            coeffs: U64s::new(next(8)?),
            labeled: LabeledView::from_arrays(&mut next)?,
            nc_off: U32s::new(next(4)?),
            nc: Pairs::new(next(8)?),
            hd_off: U32s::new(next(4)?),
            hd: Pairs::new(next(8)?),
        })
    }

    /// The record checks: a sane header and a hash inside GF(p), the
    /// labeled store ([`LabeledView::validate`]), and CSR directories
    /// whose offsets are monotone and in bounds and whose entries name
    /// real tree nodes.
    pub fn validate(&self) -> io::Result<()> {
        use wire::invalid;
        if self.k == 0
            || self.sigma == 0
            || self.coeffs.is_empty()
            || self.coeffs.iter().fold(false, |bad, c| bad | (c >= FIELD_P))
        {
            return Err(invalid("bad ERT record header"));
        }
        self.labeled.validate()?;
        let m = self.labeled.size();
        // The labeled store passed, so m ≤ u32::MAX: compare in u32.
        let m32 = u32::try_from(m).unwrap_or(u32::MAX);
        let check_csr = |off: U32s<'_>, arena: Pairs<'_>, what: &str| {
            if off.len() != m + 1
                || off.get(0) != Some(0)
                || off.get(m) != Some(arena.len() as u32)
                || decreases(off)
            {
                return Err(invalid(&format!("ERT {what} directory offsets corrupt")));
            }
            if arena.iter().fold(false, |bad, (_, ix)| bad | (ix >= m32)) {
                return Err(invalid(&format!("ERT {what} directory entry out of range")));
            }
            Ok(())
        };
        check_csr(self.nc_off, self.nc, "name-child")?;
        check_csr(self.hd_off, self.hd, "hash")
    }

    /// Copy a validated view into an owned [`ErtStore`].
    fn to_store(self) -> io::Result<ErtStore> {
        let labeled = LabeledTree::from_store(self.labeled.to_store()?);
        let hash = PolyHash::try_from_coeffs(self.coeffs.iter().collect())
            .ok_or_else(|| wire::invalid("bad ERT record header"))?;
        let max_load = ErrorReportingTree::load_budget(self.labeled.size(), self.sigma);
        Ok(ErtStore {
            labeled,
            hash,
            k: self.k,
            sigma: self.sigma,
            max_load,
            nc_off: self.nc_off.iter().collect(),
            nc: self.nc.iter().collect(),
            hd_off: self.hd_off.iter().collect(),
            hd: self.hd.iter().collect(),
            hash_verified: self.hash_verified,
        })
    }

    /// Did the hash pass the prefix-load verification at build time?
    pub fn hash_verified(&self) -> bool {
        self.hash_verified
    }

    /// Tree node `t`'s CSR row of a directory, empty when out of range.
    fn row(off: U32s<'a>, arena: Pairs<'a>, t: TreeIx) -> PairRow<'a> {
        let t = t as usize;
        let pairs = off.get(t).zip(off.get(t + 1));
        let pairs = pairs.and_then(|(lo, hi)| arena.range(lo as usize, hi as usize));
        PairRow { pairs: pairs.unwrap_or_default(), next: 0 }
    }
}

impl<'a> ErtRead for ErtView<'a> {
    type Tree = LabeledView<'a>;
    type Row<'s>
        = PairRow<'s>
    where
        Self: 's;

    fn labeled(&self) -> &LabeledView<'a> {
        &self.labeled
    }

    fn k(&self) -> usize {
        self.k
    }

    fn sigma(&self) -> u64 {
        self.sigma
    }

    fn hash_eval(&self, x: u64) -> u64 {
        poly_eval(self.coeffs.iter(), x)
    }

    fn hash_bits(&self) -> u64 {
        self.coeffs.len() as u64 * 61
    }

    fn name_row(&self, t: TreeIx) -> PairRow<'_> {
        Self::row(self.nc_off, self.nc, t)
    }

    fn hash_row(&self, t: TreeIx) -> PairRow<'_> {
        Self::row(self.hd_off, self.hd, t)
    }
}

/// Header bytes of an ERT record: k, σ, the hash-verified flag.
const HEADER: usize = 17;
/// Length-prefixed arrays in an ERT record.
const ARRAYS: usize = 11;

/// Where the arrays of one ERT record end, found once by
/// [`ErtView::locate`] so a store that keeps the record can rebuild its
/// view with [`ErtView::at`] without re-reading the length prefixes.
#[derive(Clone, Copy, Debug)]
pub struct ErtLayout {
    /// End offset of each array within the record, in record order.
    ends: [u32; ARRAYS],
}

/// A directory row read in place (the [`ErtView`] row type).
pub struct PairRow<'a> {
    pairs: Pairs<'a>,
    next: usize,
}

impl Iterator for PairRow<'_> {
    type Item = (u32, TreeIx);

    #[inline]
    fn next(&mut self) -> Option<(u32, TreeIx)> {
        let item = self.pairs.get(self.next)?;
        self.next += 1;
        Some(item)
    }
}

/// A tree equipped with the Lemma 4 name-independent error-reporting
/// scheme: the thin read-path half over an [`ErtStore`], plus the
/// (cheaply re-derivable) naming plan.
#[derive(Clone, Debug)]
pub struct ErrorReportingTree {
    store: ErtStore,
    naming: Naming,
}

impl ErrorReportingTree {
    /// Build with `σ = ⌈m^{1/k}⌉` (the paper's choice uses the *graph*
    /// size; pass it explicitly via [`ErrorReportingTree::with_sigma`]).
    pub fn new(tree: Tree, k: usize, seed: u64) -> Self {
        let sigma = graphkit::ids::nth_root_ceil(tree.size() as u64, k as u32).max(2);
        Self::with_sigma(tree, k, sigma, seed)
    }

    /// Build with an explicit alphabet size.
    pub fn with_sigma(tree: Tree, k: usize, sigma: u64, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(sigma >= 1);
        let m = tree.size();
        let naming = Naming::new(m, sigma);
        let labeled = LabeledTree::new(tree);
        // Distance ranks of the renumbered tree; (depth, graph id) order
        // does not depend on the numbering.
        let order = labeled.tree().nodes_by_depth();
        // Hash selection with verification + reseeding.
        let max_load = Self::load_budget(m, sigma);
        let degree = PolyHash::degree_for(m);
        let mut chosen: Option<PolyHash> = None;
        let mut best: Option<(usize, PolyHash)> = None;
        let mut verified = false;
        for attempt in 0..32u64 {
            let h = PolyHash::new(degree, seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9)));
            let load = Self::max_prefix_load(&h, &labeled, &order, &naming, k, sigma);
            if load <= max_load {
                chosen = Some(h);
                verified = true;
                break;
            }
            if best.as_ref().is_none_or(|(bl, _)| load < *bl) {
                best = Some((load, h));
            }
        }
        // 32 attempts guarantee `best` when nothing verified; the
        // final fallback (fresh seed-0 hash) is unreachable but keeps
        // this total — an over-budget hash costs search time, not a
        // panic.
        let hash = chosen.or(best.map(|(_, h)| h)).unwrap_or_else(|| PolyHash::new(degree, seed));
        Self::assemble(labeled, naming, order, k, sigma, hash, verified)
    }

    /// σ·log n directory budget (≥ σ + 2 so tiny trees stay correct).
    fn load_budget(m: usize, sigma: u64) -> usize {
        let sigma = sigma as usize;
        sigma
            .saturating_mul((ceil_log2(m.max(2) as u64) as usize).max(1))
            .max(sigma.saturating_add(2))
    }

    /// Lay out the two directories of a renumbered tree, given its
    /// distance-rank order (`order[rank]` = tree index).
    fn assemble(
        labeled: LabeledTree,
        naming: Naming,
        order: Vec<TreeIx>,
        k: usize,
        sigma: u64,
        hash: PolyHash,
        hash_verified: bool,
    ) -> Self {
        let m = labeled.tree().size();
        let max_load = Self::load_budget(m, sigma);
        let mut rank_of = vec![0usize; m];
        for (r, &t) in order.iter().enumerate() {
            rank_of[t as usize] = r;
        }
        // Item (2): name-children, in digit order. Child names of rank r
        // are contiguous ranks at the next level.
        let mut nc_off = vec![0u32; m + 1];
        let mut nc: Vec<(u32, TreeIx)> = Vec::new();
        for (t, &rank) in rank_of.iter().enumerate() {
            if naming.level_of_rank(rank) < k {
                for y in 0..sigma as u32 {
                    match naming.child_rank(rank, y) {
                        Some(cr) => nc.push((y, order[cr])),
                        // Child ranks grow with y; past capacity, all
                        // larger digits are absent too.
                        None => break,
                    }
                }
            }
            nc_off[t + 1] = nc.len() as u32;
        }
        // Item (3): hash directories. Collect (owner, target rank)
        // pairs — a target's prefix of length j is owned by the node
        // whose *name* equals those j digits — sort, and keep the first
        // `max_load` targets (closest-to-root first) per owner.
        let mut digits = vec![0u32; k];
        let mut pairs: Vec<u64> = Vec::new();
        for (rank, &tix) in order.iter().enumerate() {
            let gid = labeled.tree().graph_id(tix).0 as u64;
            hash.digits_into(gid, sigma, &mut digits);
            for plen in 0..k {
                if let Some(owner) = naming.rank_of_name(&digits[..plen]) {
                    pairs.push((order[owner] as u64) << 32 | rank as u64);
                }
            }
        }
        pairs.sort_unstable();
        let mut hd_off = vec![0u32; m + 1];
        let mut hd: Vec<(u32, TreeIx)> = Vec::new();
        let mut p = 0usize;
        for owner in 0..m {
            let start = p;
            while p < pairs.len() && (pairs[p] >> 32) as usize == owner {
                p += 1;
            }
            for &pair in &pairs[start..(start + max_load).min(p)] {
                let t = order[(pair & 0xFFFF_FFFF) as usize];
                hd.push((labeled.tree().graph_id(t).0, t));
            }
            hd_off[owner + 1] = hd.len() as u32;
        }
        ErrorReportingTree {
            store: ErtStore {
                labeled,
                hash,
                k,
                sigma,
                max_load,
                nc_off,
                nc,
                hd_off,
                hd,
                hash_verified,
            },
            naming,
        }
    }

    /// Wrap a deserialized [`ErtStore`], re-deriving only the naming
    /// plan (pure rank arithmetic, O(1) state). No directory assembly —
    /// this is the snapshot read path.
    pub fn from_store(store: ErtStore) -> Self {
        let naming = Naming::new(store.labeled.tree().size(), store.sigma);
        ErrorReportingTree { store, naming }
    }

    /// The plain-old-data half (for serialization).
    pub fn store(&self) -> &ErtStore {
        &self.store
    }

    /// Worst prefix load of `h` over all levels (the quantity the paper
    /// bounds by `σ·log n` w.h.p.). Prefixes are interned as base-σ
    /// codes (σ^k ≤ p < 2^64 by the hashing contract), so each level is
    /// a sort + run-length scan over a reused `u64` buffer.
    fn max_prefix_load(
        h: &PolyHash,
        labeled: &LabeledTree,
        order: &[TreeIx],
        naming: &Naming,
        k: usize,
        sigma: u64,
    ) -> usize {
        let levels = k.min(naming.max_level() + 1);
        let v_max = naming.level_capacity(levels);
        let mut digits = vec![0u32; v_max * k];
        for (i, &t) in order.iter().take(v_max).enumerate() {
            let gid = labeled.tree().graph_id(t).0 as u64;
            h.digits_into(gid, sigma, &mut digits[i * k..(i + 1) * k]);
        }
        let mut worst = 0usize;
        let mut codes: Vec<u64> = Vec::with_capacity(v_max);
        for plen in 0..levels {
            let vj = naming.level_capacity(plen + 1);
            codes.clear();
            for i in 0..vj {
                codes.push(
                    digits[i * k..i * k + plen].iter().fold(0u64, |a, &d| a * sigma + d as u64),
                );
            }
            codes.sort_unstable();
            let mut run = 1usize;
            let mut best = 1usize;
            for w in codes.windows(2) {
                if w[0] == w[1] {
                    run += 1;
                    best = best.max(run);
                } else {
                    run = 1;
                }
            }
            worst = worst.max(best);
        }
        worst
    }

    /// The underlying labeled scheme (and physical tree).
    pub fn labeled(&self) -> &LabeledTree {
        &self.store.labeled
    }

    /// The naming plan.
    pub fn naming(&self) -> &Naming {
        &self.naming
    }

    /// Search depth bound k.
    pub fn k(&self) -> usize {
        self.store.k
    }

    /// Alphabet size σ.
    pub fn sigma(&self) -> u64 {
        self.store.sigma
    }

    /// Directory budget σ·log n.
    pub fn max_load(&self) -> usize {
        self.store.max_load
    }

    /// Did the hash pass the prefix-load verification?
    pub fn hash_verified(&self) -> bool {
        self.store.hash_verified
    }

    /// Item (2) of node `t`'s storage: `(digit, name-child tree index)`.
    pub fn name_children(&self, t: TreeIx) -> &[(u32, TreeIx)] {
        Self::row(&self.store.nc_off, &self.store.nc, t)
    }

    /// Item (3) of node `t`'s storage: `(target graph id, tree index)`.
    pub fn hash_dir(&self, t: TreeIx) -> &[(u32, TreeIx)] {
        Self::row(&self.store.hd_off, &self.store.hd, t)
    }

    /// Tree node `t`'s CSR row, empty when out of range.
    fn row<'s>(off: &[u32], arena: &'s [(u32, TreeIx)], t: TreeIx) -> &'s [(u32, TreeIx)] {
        let t = t as usize;
        off.get(t)
            .zip(off.get(t + 1))
            .and_then(|(&lo, &hi)| arena.get(lo as usize..hi as usize))
            .unwrap_or_default()
    }

    /// Depth of the farthest node in `V_j` (used by the Lemma 4 cost
    /// bound on negative responses).
    pub fn max_depth_in_level(&self, j: usize) -> Cost {
        let tree = self.store.labeled.tree();
        let cap = self.naming.level_capacity(j);
        tree.nodes_by_depth().iter().take(cap).map(|&t| tree.depth(t)).max().unwrap_or(0)
    }

    /// Execute a `j`-bounded search from the root for the node whose
    /// network id is `target` ([`ErtRead::bounded_search`]). Returns the
    /// outcome and the sequence of tree nodes visited.
    pub fn search(&self, target: NodeId, j: usize) -> (SearchOutcome, Vec<TreeIx>) {
        let mut visited = vec![self.labeled().tree().root()];
        let outcome = self.bounded_search(target.0, j, &mut |t| visited.push(t));
        (outcome, visited)
    }

    /// Total storage over all nodes.
    pub fn total_bits(&self) -> u64 {
        (0..self.store.labeled.tree().size() as u32).map(|t| self.node_bits(t)).sum()
    }

    /// Serialize the full [`ErtStore`] — every directory arena verbatim,
    /// so an [`ErtView`] can route on the record in place and
    /// [`ErrorReportingTree::from_wire`] needs no reassembly. The
    /// full-store record trades bytes for the O(m log m) work of
    /// re-deriving the directories.
    pub fn to_wire(&self, w: &mut wire::Writer) {
        self.store.to_wire(w);
    }

    /// Inverse of [`ErrorReportingTree::to_wire`].
    pub fn from_wire(r: &mut wire::Reader) -> io::Result<Self> {
        Ok(Self::from_store(ErtStore::from_wire(r)?))
    }
}

impl ErtRead for ErrorReportingTree {
    type Tree = LabeledTree;
    type Row<'s> = std::iter::Copied<std::slice::Iter<'s, (u32, TreeIx)>>;

    fn labeled(&self) -> &LabeledTree {
        &self.store.labeled
    }

    fn k(&self) -> usize {
        self.store.k
    }

    fn sigma(&self) -> u64 {
        self.store.sigma
    }

    fn hash_eval(&self, x: u64) -> u64 {
        self.store.hash.eval(x)
    }

    fn hash_bits(&self) -> u64 {
        self.store.hash.storage_bits()
    }

    fn name_row(&self, t: TreeIx) -> Self::Row<'_> {
        self.name_children(t).iter().copied()
    }

    fn hash_row(&self, t: TreeIx) -> Self::Row<'_> {
        self.hash_dir(t).iter().copied()
    }
}

impl StorageCost for ErrorReportingTree {
    fn storage_bits(&self) -> u64 {
        self.total_bits()
    }
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

    fn build(g: &Graph, root: NodeId, k: usize, seed: u64) -> ErrorReportingTree {
        ErrorReportingTree::new(spanning_tree(g, root), k, seed)
    }

    /// Lemma 4(a): every node of V_j is found by a j-bounded search with
    /// stretch ≤ 2j−1 (w.r.t. its tree depth), for every j.
    fn check_hit_guarantee(s: &ErrorReportingTree) {
        for (rank, &t) in s.labeled().tree().nodes_by_depth().iter().enumerate() {
            let target = s.labeled().tree().graph_id(t);
            let level = s.naming().level_of_rank(rank).max(1);
            for j in level..=s.k() {
                let (outcome, _) = s.search(target, j);
                match outcome {
                    SearchOutcome::Found { cost, delivered_at } => {
                        assert_eq!(delivered_at, t, "delivered to wrong node");
                        let depth = s.labeled().tree().depth(t);
                        let bound = (2 * level as u64).saturating_sub(1) * depth;
                        if depth > 0 {
                            assert!(
                                cost <= bound.max(depth),
                                "stretch violated: rank={rank} level={level} j={j} \
                                 cost={cost} depth={depth}"
                            );
                        } else {
                            assert_eq!(cost, 0);
                        }
                    }
                    SearchOutcome::NotFound { .. } => {
                        panic!("rank {rank} in V_{j} not found by {j}-bounded search")
                    }
                }
            }
        }
    }

    /// Lemma 4(b): a j-bounded search that misses costs at most
    /// (2j−2)·max{d(r,v) : v ∈ V_{j−1}} and ends back at the root.
    fn check_miss_guarantee(s: &ErrorReportingTree, absent: &[u32]) {
        for &gid in absent {
            for j in 1..=s.k() {
                let (outcome, visited) = s.search(NodeId(gid), j);
                match outcome {
                    SearchOutcome::Found { .. } => panic!("found a node not in the tree"),
                    SearchOutcome::NotFound { cost } => {
                        assert_eq!(
                            *visited.last().unwrap(),
                            s.labeled().tree().root(),
                            "negative response must return to the root"
                        );
                        let bound = (2 * j as u64).saturating_sub(2)
                            * s.max_depth_in_level(j.saturating_sub(1)).max(1);
                        assert!(
                            cost <= bound,
                            "miss cost {cost} exceeds (2j-2)*maxdepth bound {bound} (j={j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn path_tree_searches() {
        let g = gen::path(30, 2);
        let s = build(&g, NodeId(0), 3, 1);
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[1000, 2000]);
    }

    #[test]
    fn star_tree_searches() {
        let g = gen::star(40, 3);
        let s = build(&g, NodeId(0), 2, 2);
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[999]);
    }

    #[test]
    fn random_tree_searches_k3() {
        let mut rng = SmallRng::seed_from_u64(40);
        let g = gen::random_tree(120, WeightDist::UniformInt { lo: 1, hi: 12 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 3);
        assert!(s.hash_verified());
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[5000, 5001, 5002]);
    }

    #[test]
    fn random_tree_searches_k1() {
        // k = 1: the root stores everything; stretch 1.
        let mut rng = SmallRng::seed_from_u64(41);
        let g = gen::random_tree(50, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 1, 4);
        check_hit_guarantee(&s);
        for &t in &s.labeled().tree().nodes_by_depth() {
            let (outcome, _) = s.search(s.labeled().tree().graph_id(t), 1);
            // 1-bounded: found exactly at optimal cost from the root.
            assert_eq!(outcome.cost(), s.labeled().tree().depth(t));
        }
    }

    #[test]
    fn caterpillar_searches_k4() {
        let mut rng = SmallRng::seed_from_u64(42);
        let g = gen::caterpillar(12, 5, WeightDist::UniformInt { lo: 1, hi: 4 }, &mut rng);
        let s = build(&g, NodeId(3), 4, 5);
        check_hit_guarantee(&s);
        check_miss_guarantee(&s, &[77777]);
    }

    #[test]
    fn bounded_search_misses_deep_nodes() {
        // With k = 3 and sigma = ceil(100^{1/3}) = 5, V_1 holds 6 nodes:
        // a 1-bounded search must miss nodes of rank >= 6.
        let mut rng = SmallRng::seed_from_u64(43);
        let g = gen::random_tree(100, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 6);
        let cap1 = s.naming().level_capacity(1);
        let mut missed = 0;
        for &t in &s.labeled().tree().nodes_by_depth()[cap1..] {
            let (outcome, _) = s.search(s.labeled().tree().graph_id(t), 1);
            if !outcome.is_found() {
                missed += 1;
            }
        }
        // Nodes outside V_1 may still be found via the root's hash
        // directory, but far-ranked ones must eventually be missed.
        assert!(missed > 0, "1-bounded search implausibly found every node");
    }

    #[test]
    fn rank_order_is_depth_order() {
        let mut rng = SmallRng::seed_from_u64(44);
        let g = gen::random_tree(60, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 7);
        let order = s.labeled().tree().nodes_by_depth();
        assert_eq!(order.len(), 60);
        let mut prev = 0;
        for &t in &order {
            let d = s.labeled().tree().depth(t);
            assert!(d >= prev);
            prev = d;
        }
        assert_eq!(order[0], s.labeled().tree().root());
    }

    #[test]
    fn storage_within_lemma_bound() {
        // Lemma 4: O(k · n^{1/k} · log² n) bits per node. Check against
        // the explicit constant-free form with a generous constant.
        let mut rng = SmallRng::seed_from_u64(46);
        let g = gen::random_tree(200, WeightDist::Unit, &mut rng);
        let k = 3;
        let s = build(&g, NodeId(0), k, 9);
        let m = 200u64;
        let sigma = s.sigma();
        let log = ceil_log2(m) as u64;
        let bound = 64 * (k as u64) * sigma * log * log;
        for t in 0..200u32 {
            assert!(
                s.node_bits(t) <= bound,
                "node {t} stores {} bits > bound {bound}",
                s.node_bits(t)
            );
        }
    }

    #[test]
    fn directory_budget_respected() {
        let mut rng = SmallRng::seed_from_u64(47);
        let g = gen::random_tree(300, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 10);
        for t in 0..300u32 {
            assert!(s.hash_dir(t).len() <= s.max_load());
            assert!(s.name_children(t).len() <= s.sigma() as usize);
        }
    }

    #[test]
    fn searches_deterministic() {
        let mut rng = SmallRng::seed_from_u64(48);
        let g = gen::random_tree(70, WeightDist::Unit, &mut rng);
        let s = build(&g, NodeId(0), 3, 11);
        for gid in [0u32, 10, 42, 9999] {
            let a = s.search(NodeId(gid), 3);
            let b = s.search(NodeId(gid), 3);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn wire_roundtrip_preserves_behavior() {
        let mut rng = SmallRng::seed_from_u64(49);
        let g = gen::random_tree(150, WeightDist::UniformInt { lo: 1, hi: 7 }, &mut rng);
        let s = build(&g, NodeId(0), 3, 12);
        let mut w = wire::Writer::new();
        s.to_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = wire::Reader::new(&bytes);
        let s2 = ErrorReportingTree::from_wire(&mut r).unwrap();
        assert!(r.is_empty(), "record fully consumed");
        assert_eq!(s2.sigma(), s.sigma());
        assert_eq!(s2.max_load(), s.max_load());
        assert_eq!(s2.hash_verified(), s.hash_verified());
        assert_eq!(s2.labeled().tree().nodes_by_depth(), s.labeled().tree().nodes_by_depth());
        for t in 0..150u32 {
            assert_eq!(s2.node_bits(t), s.node_bits(t));
            assert_eq!(s2.name_children(t), s.name_children(t));
            assert_eq!(s2.hash_dir(t), s.hash_dir(t));
        }
        for gid in [0u32, 7, 42, 149, 5000] {
            for j in 1..=3 {
                assert_eq!(s2.search(NodeId(gid), j), s.search(NodeId(gid), j));
            }
        }
    }

    fn record_of(s: &ErrorReportingTree) -> Vec<u8> {
        let mut w = wire::Writer::new();
        s.to_wire(&mut w);
        w.into_bytes()
    }

    /// Visited tree path of a search on any read path.
    fn walk_search(e: &impl ErtRead, target: u32, j: usize) -> (SearchOutcome, Vec<TreeIx>) {
        let mut visited = vec![0];
        let outcome = e.bounded_search(target, j, &mut |t| visited.push(t));
        (outcome, visited)
    }

    #[test]
    fn record_view_searches_like_the_owned_tree() {
        for (seed, k) in [(60u64, 2usize), (61, 3), (62, 1), (63, 4)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = gen::random_tree(140, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
            let s = build(&g, NodeId(3), k, seed);
            let bytes = record_of(&s);
            assert_eq!(bytes.len(), s.store().wire_len());
            let v = ErtView::new(&bytes).expect("a fresh record validates");
            assert_eq!((v.labeled().size(), v.k(), v.sigma()), (140, k, s.sigma()));
            assert_eq!(v.hash_verified(), s.hash_verified());
            for t in 0..140u32 {
                assert_eq!(v.node_bits(t), s.node_bits(t), "seed={seed} t={t}");
                assert_eq!(v.labeled().label_bits(t), s.labeled().label_bits(t));
                assert_eq!(v.labeled().host(t), Some(s.labeled().tree().graph_id(t).0));
            }
            let (_, layout) = ErtView::locate(&bytes).unwrap();
            let again = ErtView::at(&bytes, &layout).unwrap();
            for gid in (0..150u32).chain([999, u32::MAX]) {
                for j in 0..=k + 1 {
                    let owned = s.search(NodeId(gid), j.max(1));
                    assert_eq!(walk_search(&v, gid, j.max(1)), owned, "seed={seed} {gid} j={j}");
                    assert_eq!(walk_search(&s, gid, j), walk_search(&v, gid, j));
                    assert_eq!(walk_search(&again, gid, j), walk_search(&v, gid, j));
                }
            }
            // A layout applied to the wrong record reads garbage, but
            // never out of bounds.
            let other = record_of(&build(&g, NodeId(0), k, seed + 100));
            for rec in [&other[..], &bytes[..bytes.len() / 2], &[]] {
                if let Ok(w) = ErtView::at(rec, &layout) {
                    let _ = walk_search(&w, 5, k);
                }
            }
        }
    }

    #[test]
    fn record_view_rejects_what_from_wire_rejects() {
        let mut rng = SmallRng::seed_from_u64(64);
        let g = gen::random_tree(40, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 2, 13);
        let good = record_of(&s);
        for cut in 0..good.len() {
            assert!(ErtView::new(&good[..cut]).is_err(), "prefix {cut} must not validate");
        }
        let mut longer = good.clone();
        longer.push(0);
        assert!(ErtView::new(&longer).is_err(), "trailing bytes must not validate");
        // Every single-bit flip: the view and the owned decode agree on
        // acceptance, and whatever is accepted searches without panics.
        for i in 0..good.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[i] ^= bit;
                let view = ErtView::new(&bad);
                let owned = ErrorReportingTree::from_wire(&mut wire::Reader::new(&bad));
                assert_eq!(view.is_ok(), owned.is_ok(), "flip {bit:#x} at byte {i}");
                if let Ok(v) = view {
                    for gid in [0u32, 7, 39, 1000] {
                        let _ = walk_search(&v, gid, 2);
                        let _ = (0..40).map(|t| v.node_bits(t)).sum::<u64>();
                    }
                }
            }
        }
    }

    #[test]
    fn hash_coefficients_outside_the_field_are_rejected() {
        let mut rng = SmallRng::seed_from_u64(65);
        let g = gen::random_tree(30, WeightDist::Unit, &mut rng);
        let good = record_of(&build(&g, NodeId(0), 2, 14));
        // Header: k (8) + sigma (8) + verified (1) + coefficient count (8).
        let first = 25;
        for top in [0x20u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[first + 7] |= top;
            assert!(ErtView::new(&bad).is_err(), "top byte {top:#x}");
            assert!(ErrorReportingTree::from_wire(&mut wire::Reader::new(&bad)).is_err());
        }
    }

    #[test]
    fn parent_cycles_are_rejected_by_dfs_order() {
        // Re-point the root's heavy child at a deep descendant: still a
        // parent array of in-range indices, but no longer a tree.
        let t = Tree::from_parents(vec![10, 11, 12, 13], vec![u32::MAX, 0, 1, 2], vec![0, 1, 1, 1]);
        let s = ErrorReportingTree::new(t, 2, 5);
        let good = record_of(&s);
        assert!(ErtView::new(&good).is_ok());
        // parents array: after the header, the hash, and graph_ids.
        let coeffs = s.store().hash.coeffs().len();
        let parents = 25 + 8 * coeffs + (8 + 4 * 4) + 8;
        let mut bad = good.clone();
        bad[parents + 4..parents + 8].copy_from_slice(&3u32.to_le_bytes()); // 1 -> 3 -> 2 -> 1
        assert!(ErtView::new(&bad).is_err());
        assert!(ErrorReportingTree::from_wire(&mut wire::Reader::new(&bad)).is_err());
    }

    /// `good` with its `at`-th `u32` of array `array` set to `value`.
    /// Record order: 0 the hash coefficients, 1 graph ids, 2 parents,
    /// 3 weights, 4 subtree ends, 5 light offsets, 6 light hops, 7 and
    /// 8 the name-child offsets and entries, 9 and 10 the hash
    /// directory's; directory entry `i`'s tree index is `u32` 2i + 1.
    fn patched(good: &[u8], array: usize, at: usize, value: u32) -> Vec<u8> {
        let (_, layout) = ErtView::locate(good).unwrap();
        let start = if array == 0 { HEADER } else { layout.ends[array - 1] as usize } + 8;
        let mut bad = good.to_vec();
        bad[start + 4 * at..start + 4 * at + 4].copy_from_slice(&value.to_le_bytes());
        bad
    }

    /// Patch as [`patched`] and check that the view and the owned decode
    /// both reject the result.
    fn assert_u32_patch_rejected(good: &[u8], array: usize, at: usize, value: u32) {
        let bad = patched(good, array, at, value);
        assert!(ErtView::new(&bad).is_err(), "array {array}[{at}] = {value}");
        assert!(ErrorReportingTree::from_wire(&mut wire::Reader::new(&bad)).is_err());
    }

    #[test]
    fn each_record_check_fails_alone_at_both_ends() {
        // The validators fold every element without an early exit, so a
        // bad element goes where an off-by-one in a fold's range would
        // miss it: the first and the last position it can occupy. Each
        // patch breaks one check only, and the error must name it.
        let mut rng = SmallRng::seed_from_u64(67);
        let g = gen::random_tree(40, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 2, 16);
        let good = record_of(&s);
        assert!(ErtView::new(&good).is_ok());
        assert!(ErtStore::from_wire(&mut wire::Reader::new(&good)).is_ok());
        let st = s.store();
        let m = st.labeled.size();
        let light_off = |t: usize| -> u32 {
            (0..t as u32).map(|u| st.labeled.label(u).light_path.len() as u32).sum()
        };
        let hops = light_off(m) as usize;
        assert!(hops >= 2 && st.nc.len() >= 2 && st.hd.len() >= 2, "every arena has two entries");
        let m32 = m as u32;
        let parent = "parent relation is not a connected tree";
        let interval = "subtree interval out of range";
        let mut cases = vec![
            (2, 1, 1, parent),
            (2, m - 1, m32 - 1, parent),
            (4, 0, 0, interval),
            (4, m - 1, m32 - 1, interval),
            (4, 0, m32 + 1, interval),
            (4, m - 1, m32 + 1, interval),
            // Offset 0 is pinned to 0, so (1, 2) is the first pair that
            // can decrease; (m − 1, m) is the last.
            (5, 1, light_off(2) + 1, "light offsets decrease"),
            (5, m - 1, hops as u32 + 1, "light offsets decrease"),
            (6, 0, m32, "light hop out of range"),
            (6, hops - 1, m32, "light hop out of range"),
        ];
        let dirs = [
            (
                7,
                &st.nc_off,
                st.nc.len(),
                ["name-child directory offsets", "name-child directory entry"],
            ),
            (9, &st.hd_off, st.hd.len(), ["hash directory offsets", "hash directory entry"]),
        ];
        for (a, offs, n, [corrupt, range]) in dirs {
            cases.extend([
                (a, 1, offs[2] + 1, corrupt),
                (a, m - 1, n as u32 + 1, corrupt),
                (a + 1, 1, m32, range),
                (a + 1, 2 * (n - 1) + 1, m32, range),
            ]);
        }
        for (array, at, value, msg) in cases {
            let bad = patched(&good, array, at, value);
            let view = ErtView::new(&bad).map(|_| ()).unwrap_err();
            let owned = ErtStore::from_wire(&mut wire::Reader::new(&bad)).map(|_| ()).unwrap_err();
            for err in [view, owned] {
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "array {array}[{at}] = {value}");
                assert!(err.to_string().contains(msg), "array {array}[{at}] = {value}: {err}");
            }
        }
    }

    #[test]
    fn subtree_ends_and_light_offsets_are_checked() {
        let mut rng = SmallRng::seed_from_u64(66);
        let g = gen::random_tree(40, WeightDist::UniformInt { lo: 1, hi: 5 }, &mut rng);
        let s = build(&g, NodeId(0), 2, 15);
        let good = record_of(&s);
        assert!(ErtView::new(&good).is_ok());
        let lt = s.labeled();
        let m = lt.size() as u32;
        let light = (1..m).find(|&t| lt.label(t).light_path.len() == 1).expect("a light child");
        let leaf = (0..m).find(|&t| lt.tree().children(t).is_empty()).unwrap();
        // dfs_out(t) ≤ t: an empty (or reversed) subtree interval.
        assert_u32_patch_rejected(&good, 4, leaf as usize, leaf);
        assert_u32_patch_rejected(&good, 4, 3, 2);
        // dfs_out(t) > m: an interval past the tree.
        assert_u32_patch_rejected(&good, 4, leaf as usize, m + 1);
        assert_u32_patch_rejected(&good, 4, 0, u32::MAX);
        // A decreasing light offset: node `light`'s start moved past its
        // end.
        let end: u32 = (0..=light).map(|t| lt.label(t).light_path.len() as u32).sum();
        assert_u32_patch_rejected(&good, 5, light as usize, end + 1);
    }

    #[test]
    fn prefix_load_matches_reference_counting() {
        // The interned-code fast path must agree with a naive
        // HashMap-of-name-vectors count (the shape of the code it
        // replaced).
        use std::collections::HashMap;
        let mut rng = SmallRng::seed_from_u64(50);
        let g = gen::random_tree(90, WeightDist::Unit, &mut rng);
        let tree = spanning_tree(&g, NodeId(0));
        let k = 3usize;
        let sigma = 5u64;
        let naming = Naming::new(tree.size(), sigma);
        let labeled = LabeledTree::new(tree);
        let order = labeled.tree().nodes_by_depth();
        for seed in 0..4u64 {
            let h = PolyHash::new(PolyHash::degree_for(90), seed);
            let fast = ErrorReportingTree::max_prefix_load(&h, &labeled, &order, &naming, k, sigma);
            let mut slow = 0usize;
            for plen in 0..k.min(naming.max_level() + 1) {
                let vj = naming.level_capacity(plen + 1);
                let mut counts: HashMap<Vec<u32>, usize> = HashMap::new();
                for &t in order.iter().take(vj) {
                    let gid = labeled.tree().graph_id(t).0 as u64;
                    let digits = h.digits(gid, sigma, k);
                    *counts.entry(digits[..plen].to_vec()).or_insert(0) += 1;
                }
                slow = slow.max(counts.values().copied().max().unwrap_or(0));
            }
            assert_eq!(fast, slow, "seed={seed}");
        }
    }
}
