//! The full AGM SPAA'06 routing scheme (§3): preprocessing, the
//! iterative phase router, and bit-level storage accounting.
//!
//! The preprocessing pipeline is flat and parallel end-to-end: every
//! per-node phase (classification, S budgets, membership, `b(u,i)`)
//! and every per-tree phase (center trees, cover trees) fans across
//! threads via [`graphkit::metrics::par_chunks`] with deterministic
//! chunk-ordered merges, so a build is bit-identical at any thread
//! count (asserted by `tests/thread_parity.rs`).

use std::collections::HashMap;

use decomposition::Decomposition;
use graphkit::bits::{bits_for_node, bits_for_universe};
use graphkit::ids::octave_radius;
use graphkit::{
    apsp, dijkstra, induced_subgraph, Cost, DijkstraScratch, DistMatrix, Graph, NodeId, Tree,
    TreeIx, TreeScratch, INFINITY,
};
use landmarks::{LandmarkDistances, LandmarkHierarchy};
use sim::{GroundTruth, RouteTrace, Router, StretchStats};
use treeroute::cover_router::{CoverOutcome, CoverTreeRouter};
use treeroute::laing::{ErrorReportingTree, ErtRead};
use treeroute::{LabeledRead, Naming};

use crate::center_store::{self, CenterStore, SpillWriter};

/// Ablation switch (experiment A1): disable one side of the
/// sparse/dense decomposition to show why the paper needs both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForceMode {
    /// Treat every level as sparse (landmark trees only). Storage
    /// blows up: the S-set budgets must absorb dense neighborhoods.
    AllSparse,
    /// Treat every level as dense (cover trees only). Delivery breaks:
    /// sparse levels' targets may not participate at the search scale.
    AllDense,
}

/// How the landmark hierarchy is constructed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HierarchySource {
    /// Randomized sampling with per-instance Claims 1–2 verification
    /// and re-seeding (§2.3's construction, the default).
    #[default]
    SampledVerified,
    /// The deterministic greedy hitting-set construction
    /// ([`landmarks::greedy_hierarchy`]) — the effective counterpart of
    /// the paper's derandomization remark. Slower to build; use on
    /// moderate n.
    Greedy,
}

/// How the instance-tuned S-set budgets are resolved (see DESIGN.md).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SBudgetMode {
    /// One budget per landmark level, the max requirement over all
    /// nodes (the historical behavior, and the default).
    #[default]
    Global,
    /// Each node `v` keeps, per level, only the slots *its own*
    /// membership constraints require — strictly smaller S sets (and
    /// landmark trees) wherever requirements are skewed.
    PerNode,
    /// Compute per-node requirements, then flatten each level to its
    /// max over nodes — by construction identical to
    /// [`SBudgetMode::Global`] (the parity special case that
    /// `tests/budget_parity.rs` asserts end to end).
    PerNodeUniform,
}

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SchemeParams {
    /// The space-stretch trade-off parameter `k ≥ 1`.
    pub k: usize,
    /// Seed for the landmark hierarchy and the tree hash functions.
    pub seed: u64,
    /// Re-sampling attempts for a Claims-1/2-verified hierarchy.
    pub landmark_attempts: u32,
    /// Extra S-set slots beyond the instance-tuned requirement (margin
    /// against the tie-break edge; ≥ 1 recommended).
    pub s_margin: usize,
    /// Ablation override (None = the paper's decomposition).
    pub force_mode: Option<ForceMode>,
    /// Landmark construction: randomized-verified or deterministic.
    pub hierarchy: HierarchySource,
    /// Global or per-node S-set budgets.
    pub s_budget_mode: SBudgetMode,
    /// Stream completed center trees to an unlinked temp file instead
    /// of holding them all resident — trades route-time reloads for a
    /// build whose peak memory excludes the Õ(n^{1+1/k}) tree state.
    pub spill: bool,
    /// Retain the build-time state (`RepairState`) that
    /// [`Scheme::repair`] needs to patch the scheme in place after
    /// graph deltas — old membership lists and per-center label sizes,
    /// ~O(total members) extra resident memory. Off by default so the
    /// construction-scale memory tripwires are unaffected; a scheme
    /// built without it (or loaded from a snapshot, which never
    /// serializes repair state) falls back to a full rebuild on the
    /// first repair call.
    pub repairable: bool,
}

impl SchemeParams {
    /// Defaults: verified sampling with 16 attempts, margin 2, global
    /// budgets, all trees resident.
    pub fn new(k: usize, seed: u64) -> Self {
        SchemeParams {
            k,
            seed,
            landmark_attempts: 16,
            s_margin: 2,
            force_mode: None,
            hierarchy: HierarchySource::default(),
            s_budget_mode: SBudgetMode::default(),
            spill: false,
            repairable: false,
        }
    }

    /// Builder-style ablation switch.
    pub fn with_force_mode(mut self, mode: ForceMode) -> Self {
        self.force_mode = Some(mode);
        self
    }

    /// Builder-style deterministic-landmark switch.
    pub fn with_greedy_landmarks(mut self) -> Self {
        self.hierarchy = HierarchySource::Greedy;
        self
    }

    /// Builder-style S-budget mode switch.
    pub fn with_s_budget_mode(mut self, mode: SBudgetMode) -> Self {
        self.s_budget_mode = mode;
        self
    }

    /// Builder-style spill switch.
    pub fn with_spill(mut self) -> Self {
        self.spill = true;
        self
    }

    /// Builder-style incremental-repair switch.
    pub fn with_repair(mut self) -> Self {
        self.repairable = true;
        self
    }
}

/// Per-node storage split by component (experiment T2).
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageBreakdown {
    /// Level plans: dense flags, ranges, centers, b-values, root ids.
    pub plans_bits: u64,
    /// Sparse machinery: τ(T(c), v) over landmark trees containing v.
    pub landmark_bits: u64,
    /// Dense machinery: φ(T, v) over cover trees containing v.
    pub cover_bits: u64,
}

impl StorageBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.plans_bits + self.landmark_bits + self.cover_bits
    }
}

/// Per-(node, level) routing plan.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LevelPlan {
    /// Dense or sparse strategy for this level.
    pub(crate) dense: bool,
    /// The range `a(u, i)` (the dense strategy's scale).
    pub(crate) a: u32,
    /// Sparse: the center `c(u, i)` (host id). Dense: unused.
    pub(crate) center: u32,
    /// Sparse: the bounded-search level `b(u, i)`.
    pub(crate) b: u8,
    /// Sparse: the source's own tree index inside `T(c(u, i))`
    /// (`u32::MAX` when unknown). Simulation bookkeeping — a node knows
    /// itself — not routing state, so storage accounting ignores it.
    pub(crate) src_ix: u32,
}

/// Resolved S-set budgets: global per-level values, or a flat
/// `n × k` per-node table.
enum Budgets {
    /// `budget[l]` applies to every node.
    Global(Vec<usize>),
    /// `per[v·k + l]` — node `v`'s slot count at level `l`.
    PerNode { per: Vec<u32>, k: usize },
}

impl Budgets {
    /// The budget of node `v` at landmark level `l`.
    #[inline]
    fn of(&self, v: u32, l: usize) -> usize {
        match self {
            Budgets::Global(b) => b[l],
            Budgets::PerNode { per, k } => per[v as usize * k + l] as usize,
        }
    }
}

/// What the `b(u,i)` pass needs from one finished center tree, without
/// keeping (or reloading) the tree itself: each member's tree index and
/// bounded-search level, sorted by host id.
pub(crate) struct BuildIndex {
    /// `(host id, tree index, search level)`, sorted by id.
    members: Vec<(u32, u32, u8)>,
    /// Max search level over `members` — lets a whole-graph `E(u,i)`
    /// read `b(u,i)` off the tree in O(1).
    max_search_level: u8,
}

impl BuildIndex {
    /// `(tree index, search level)` of host node `v`, if a member.
    fn find(&self, v: u32) -> Option<(u32, u8)> {
        let p = self.members.binary_search_by_key(&v, |&(id, _, _)| id).ok()?;
        self.members.get(p).map(|&(_, ix, lvl)| (ix, lvl))
    }

    /// `b(u, i)` and `u`'s own tree index for one sparse scope of node
    /// `u`, plus that region's Lemma 3 `(checked, violations)` counts.
    pub(crate) fn plan(&self, u: u32, scope: &EScope, n: usize, k: usize) -> PlanFill {
        let mut checked = 0usize;
        let mut violations = 0usize;
        let mut b = 1usize;
        match scope {
            EScope::Global => {
                // E(u,i) = V: every non-member is a Lemma 3 violation,
                // and the members' worst search level is a per-tree
                // constant.
                checked += n;
                let missing = n - self.members.len();
                if missing > 0 {
                    violations += missing;
                    b = k;
                } else {
                    b = self.max_search_level as usize;
                }
            }
            EScope::Local(list) => {
                for &(v, _) in list {
                    checked += 1;
                    match self.find(v) {
                        Some((_, lvl)) => b = b.max(lvl as usize),
                        None => {
                            violations += 1;
                            b = k; // fall back to the deepest search
                        }
                    }
                }
            }
        }
        PlanFill {
            b: b.min(k).max(1) as u8,
            src_ix: self.find(u).map_or(u32::MAX, |(ix, _)| ix),
            checked,
            violations,
        }
    }
}

/// One sparse plan's share of the b-levels pass.
pub(crate) struct PlanFill {
    pub(crate) b: u8,
    pub(crate) src_ix: u32,
    pub(crate) checked: usize,
    pub(crate) violations: usize,
}

/// Per-center membership lists in CSR form: center `ci` (an index into
/// the sorted distinct-centers array) owns `items[off[ci]..off[ci+1]]`
/// as `(v, d(v, c))` with `v` ascending.
pub(crate) struct CenterMembers {
    off: Vec<usize>,
    pub(crate) items: Vec<(u32, Cost)>,
}

impl CenterMembers {
    #[inline]
    pub(crate) fn members(&self, ci: usize) -> &[(u32, Cost)] {
        &self.items[self.off[ci]..self.off[ci + 1]]
    }
}

/// Build-time state retained (under [`SchemeParams::repairable`]) so
/// [`Scheme::repair`] can tell which center trees a delta batch left
/// untouched and keep the bit-exact storage accounting without
/// re-deriving the whole scheme. Everything else repair needs is
/// recomputed fresh on the mutated graph (see DESIGN.md §"Churn &
/// incremental repair").
pub(crate) struct RepairState {
    /// The distinct centers of the previous build, ascending.
    pub(crate) centers: Vec<u32>,
    /// Their membership lists (CSR aligned with `centers`).
    pub(crate) members: CenterMembers,
    /// Per-center max routing-label bits — lets repair maintain
    /// `max_center_label_bits` exactly when trees are added/removed.
    pub(crate) center_labels: HashMap<u32, u64>,
}

/// How a sparse level's region `E(u, i)` is enumerated during
/// construction.
pub(crate) enum EScope {
    /// `a(u,i+1)` hit the `⌈log₂Δ⌉+3` cap, so `E(u,i) = V` exactly
    /// (see [`Decomposition::e_is_global`]); loops over it collapse
    /// to per-center aggregates instead of Θ(n) enumerations.
    Global,
    /// Explicit members as `(v, d(u,v))`, from a dense row or a
    /// radius-bounded Dijkstra.
    Local(Vec<(u32, Cost)>),
}

/// Where preprocessing reads distances from: the dense matrix (small
/// n, exact parity oracle) or the matrix-free sources — landmark
/// columns plus per-node bounded Dijkstras.
pub(crate) enum BuildSource<'a> {
    Dense {
        d: &'a DistMatrix,
        /// `sorted[v][l]` = `C_l` as `(d(v,·), id)`, sorted — the
        /// position oracle for S budgets and S membership.
        sorted: Vec<Vec<Vec<(Cost, u32)>>>,
    },
    OnDemand {
        ld: LandmarkDistances,
    },
}

impl<'a> BuildSource<'a> {
    /// The dense source: every node's `C_l` lists sorted by
    /// `(d(v,·), id)`, straight from the matrix rows.
    pub(crate) fn dense(d: &'a DistMatrix, hier: &LandmarkHierarchy, k: usize) -> Self {
        // merge: per-node lists, flattened in chunk (= node id) order.
        let sorted = graphkit::metrics::par_chunks(d.n(), |nodes| {
            nodes
                .map(|v| {
                    let row = d.row(NodeId(v as u32));
                    (0..k)
                        .map(|l| {
                            let mut m: Vec<(Cost, u32)> =
                                hier.level(l).iter().map(|&c| (row[c as usize], c)).collect();
                            m.sort_unstable();
                            m
                        })
                        .collect()
                })
                .collect::<Vec<Vec<Vec<(Cost, u32)>>>>()
        })
        .into_iter()
        .flatten()
        .collect();
        BuildSource::Dense { d, sorted }
    }

    /// The center `c(u, r)` (identical across sources).
    fn center(&self, hier: &LandmarkHierarchy, u: NodeId, r: Cost) -> u32 {
        match self {
            BuildSource::Dense { d, .. } => hier.center(d, u, r).0,
            BuildSource::OnDemand { ld } => ld.center(u, r).0,
        }
    }

    /// `d(v, c)`; on the matrix-free source only for a landmark `c` of
    /// rank ≥ 1 (those have columns).
    fn dist(&self, v: u32, c: u32) -> Cost {
        match self {
            BuildSource::Dense { d, .. } => d.d(NodeId(v), NodeId(c)),
            BuildSource::OnDemand { ld } => ld.d(c, NodeId(v)),
        }
    }

    /// `d(v, c)` for every node `v`, for a center `c` of rank `l`. The
    /// matrix-free source has no column for `C_0 = V`, so a rank-0
    /// center costs one full Dijkstra.
    fn column(&self, g: &Graph, c: u32, l: usize) -> Vec<Cost> {
        match self {
            BuildSource::OnDemand { .. } if l == 0 => dijkstra::dijkstra(g, NodeId(c)).dist,
            _ => (0..g.n() as u32).map(|v| self.dist(v, c)).collect(),
        }
    }

    /// `v`'s `C_l` as `(d(v,·), id)`, sorted; `None` for level 0 on the
    /// matrix-free source, whose callers run a Dijkstra around `v`.
    fn list(&self, v: u32, l: usize) -> Option<&[(Cost, u32)]> {
        match self {
            BuildSource::Dense { sorted, .. } => Some(&sorted[v as usize][l]),
            BuildSource::OnDemand { ld } => (l >= 1).then(|| ld.list(NodeId(v), l)),
        }
    }
}

/// All cover trees of one scale `i` (over the subgraph `G_i`).
pub(crate) struct ScaleCover {
    pub(crate) routers: Vec<CoverEntry>,
    /// host node id -> index of its home router (u32::MAX outside G_i).
    pub(crate) home: Vec<u32>,
}

/// One cover tree with the Lemma 7 scheme attached.
pub(crate) struct CoverEntry {
    pub(crate) router: CoverTreeRouter,
    /// host node id -> tree index.
    pub(crate) ix: HashMap<u32, TreeIx>,
}

impl CoverEntry {
    /// Wrap a router, deriving the host-id lookup from its tree.
    pub(crate) fn from_router(router: CoverTreeRouter) -> Self {
        let ix: HashMap<u32, TreeIx> = router
            .labeled()
            .tree()
            .graph_ids()
            .iter()
            .enumerate()
            .map(|(i, &gid)| (gid, i as TreeIx))
            .collect();
        CoverEntry { router, ix }
    }
}

/// Diagnostics accumulated during preprocessing (experiment F2 reads
/// these; violations should be zero on verified hierarchies).
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// (u, i, v) triples where Lemma 3 failed: `v ∈ E(u,i)` but the
    /// center's tree does not contain `v`.
    pub lemma3_violations: usize,
    /// Sparse (u, i, v) membership triples checked.
    pub lemma3_checked: usize,
    /// Effective S-set budget per landmark level (per-node modes
    /// report each level's max over nodes).
    pub s_budgets: Vec<usize>,
    /// Number of distinct centers (= landmark trees built).
    pub num_center_trees: usize,
    /// Number of scales with cover collections.
    pub num_scales: usize,
    /// Total cover trees across scales.
    pub num_cover_trees: usize,
    /// Total landmark-tree memberships (Σ over centers of tree size).
    pub total_members: usize,
    /// Wall-clock seconds per construction phase, in pipeline order —
    /// the machine-readable breakdown behind BENCH_construction.json.
    pub phase_seconds: Vec<(String, f64)>,
}

/// The scale-free name-independent routing scheme of Theorem 1.
pub struct Scheme {
    pub(crate) g: Graph,
    pub(crate) params: SchemeParams,
    pub(crate) dec: Decomposition,
    pub(crate) hier: LandmarkHierarchy,
    pub(crate) plans: Vec<Vec<LevelPlan>>,
    pub(crate) center_store: CenterStore,
    /// Per-node landmark-component storage bits (center id + τ over
    /// containing trees), accumulated during the fused build so that
    /// accounting never reloads spilled trees.
    pub(crate) landmark_bits: Vec<u64>,
    /// Largest routing label over all center trees (header accounting).
    pub(crate) max_center_label_bits: u64,
    pub(crate) scale_covers: HashMap<u32, ScaleCover>,
    pub(crate) stats: BuildStats,
    /// Build-time state for [`Scheme::repair`]; `None` unless built
    /// with [`SchemeParams::repairable`] (snapshots never carry it).
    pub(crate) repair_state: Option<RepairState>,
}

impl Scheme {
    /// Build the scheme, computing APSP internally.
    pub fn build(g: Graph, params: SchemeParams) -> Self {
        let d = apsp(&g);
        Self::build_with_matrix(g, &d, params)
    }

    /// Build the scheme reusing a precomputed distance matrix (the
    /// matrix is used for *preprocessing only*; routing reads only the
    /// constructed per-node structures).
    pub fn build_with_matrix(g: Graph, d: &DistMatrix, params: SchemeParams) -> Self {
        assert!(params.k >= 1);
        assert!(d.connected(), "the scheme requires a connected graph");
        let k = params.k;
        let dec = Decomposition::build(d, k);
        let hier = match params.hierarchy {
            HierarchySource::SampledVerified => {
                LandmarkHierarchy::sample_verified(d, k, params.seed, params.landmark_attempts)
            }
            HierarchySource::Greedy => landmarks::greedy_hierarchy(d, k),
        };
        let src = BuildSource::dense(d, &hier, k);
        let scopes = Self::dense_scopes(&g, d, &dec, &params);
        Self::assemble(g, params, dec, hier, src, scopes)
    }

    /// Build the scheme without ever materializing an n×n matrix — the
    /// Theorem 1 construction at 10⁵+ nodes.
    ///
    /// Substitutions relative to [`Scheme::build_with_matrix`]
    /// (documented in DESIGN.md §"Matrix-free construction"; output is
    /// parity-tested identical):
    ///
    /// * the decomposition's per-node ranges come from size-capped
    ///   Dijkstras ([`Decomposition::build_on_demand_with_diameter`]),
    ///   seeded with the exact diameter from
    ///   [`graphkit::diameter_matrix_free`];
    /// * the landmark side runs one full Dijkstra per rank-≥1 landmark
    ///   ([`LandmarkDistances`]) and serves Claims verification,
    ///   centers, rank positions, and the instance-tuned S budgets
    ///   from those columns;
    /// * `E(u,i)` balls come from radius-bounded Dijkstras, and levels
    ///   whose range hit the `⌈log₂Δ⌉+3` cap are handled as exact
    ///   whole-graph scopes so no Θ(n) per-node enumeration happens;
    /// * level-0 (`C_0 = V`) S-sets and positions come from per-node
    ///   size-capped Dijkstras instead of full sorted rows.
    ///
    /// Requires the default [`HierarchySource::SampledVerified`] (the
    /// greedy construction is inherently matrix-bound) and strictly
    /// positive edge weights (every generator in this workspace).
    pub fn build_on_demand(g: Graph, params: SchemeParams) -> Self {
        assert!(params.k >= 1);
        assert!(
            params.hierarchy == HierarchySource::SampledVerified,
            "on-demand construction supports the sampled-verified hierarchy only"
        );
        assert!(
            dijkstra::dijkstra(&g, NodeId(0)).dist.iter().all(|&x| x != INFINITY),
            "the scheme requires a connected graph"
        );
        let diameter = graphkit::diameter_matrix_free(&g);
        let dec = Decomposition::build_on_demand_with_diameter(&g, params.k, diameter);
        let (hier, ld) = LandmarkHierarchy::sample_verified_on_demand(
            &g,
            params.k,
            params.seed,
            params.landmark_attempts,
            diameter,
        );
        Self::build_on_demand_parts(g, params, dec, hier, ld)
    }

    /// The tail of [`Scheme::build_on_demand`] once the decomposition
    /// and the verified hierarchy (with its landmark columns) exist —
    /// shared with the repair path, which computes those parts itself
    /// on the mutated graph and falls back here when the hierarchy
    /// shape changed.
    pub(crate) fn build_on_demand_parts(
        g: Graph,
        params: SchemeParams,
        dec: Decomposition,
        hier: LandmarkHierarchy,
        ld: LandmarkDistances,
    ) -> Self {
        let scopes = Self::on_demand_scopes(&g, &dec, &params, g.n());
        Self::assemble(g, params, dec, hier, BuildSource::OnDemand { ld }, scopes)
    }

    /// Per-(u, i) `E(u,i)` scopes from dense rows (`None` = dense
    /// level, no sparse region), parallel over node chunks.
    pub(crate) fn dense_scopes(
        g: &Graph,
        d: &DistMatrix,
        dec: &Decomposition,
        params: &SchemeParams,
    ) -> Vec<Vec<Option<EScope>>> {
        let n = g.n();
        // merge: per-node scope rows, flattened in chunk (= node id) order.
        graphkit::metrics::par_chunks(n, |nodes| {
            nodes
                .map(|u| {
                    let u_id = NodeId(u as u32);
                    let row = d.row(u_id);
                    (0..params.k)
                        .map(|i| {
                            if level_is_dense(dec, u_id, i, params) {
                                None
                            } else if dec.e_is_global(u_id, i) {
                                Some(EScope::Global)
                            } else {
                                let radius = dec.e_radius(u_id, i);
                                Some(EScope::Local(
                                    row.iter()
                                        .enumerate()
                                        .filter(|&(_, &dist)| dist != INFINITY && dist <= radius)
                                        .map(|(v, &dist)| (v as u32, dist))
                                        .collect(),
                                ))
                            }
                        })
                        .collect()
                })
                .collect::<Vec<Vec<Option<EScope>>>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Per-(u, i) `E(u,i)` scopes from radius-bounded Dijkstras,
    /// parallel over node chunks with per-worker scratch.
    pub(crate) fn on_demand_scopes(
        g: &Graph,
        dec: &Decomposition,
        params: &SchemeParams,
        n: usize,
    ) -> Vec<Vec<Option<EScope>>> {
        // merge: per-node scope rows, flattened in chunk (= node id) order.
        graphkit::metrics::par_chunks(n, |nodes| {
            let mut scratch = DijkstraScratch::new(n);
            nodes
                .map(|u| {
                    let u = NodeId(u as u32);
                    (0..params.k)
                        .map(|lvl| {
                            if level_is_dense(dec, u, lvl, params) {
                                None
                            } else if dec.e_is_global(u, lvl) {
                                Some(EScope::Global)
                            } else {
                                scratch.run(g, u, dec.e_radius(u, lvl), usize::MAX);
                                let mut members: Vec<(u32, Cost)> =
                                    scratch.settled().iter().map(|&(dist, v)| (v, dist)).collect();
                                members.sort_unstable(); // id order, as the dense rows yield
                                Some(EScope::Local(members))
                            }
                        })
                        .collect()
                })
                .collect::<Vec<Vec<Option<EScope>>>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The shared construction skeleton: classification and centers,
    /// instance-tuned S budgets, center trees with Lemma 4 schemes,
    /// `b(u,i)` with Lemma 3 verification, and cover trees per dense
    /// scale. Every distance it consumes flows through `src` and the
    /// precomputed `scopes`, so the dense and matrix-free paths are
    /// the same algorithm over different storage; every phase fans out
    /// over deterministic chunks and merges in chunk order.
    fn assemble(
        g: Graph,
        params: SchemeParams,
        dec: Decomposition,
        hier: LandmarkHierarchy,
        src: BuildSource<'_>,
        scopes: Vec<Vec<Option<EScope>>>,
    ) -> Self {
        let n = g.n();
        let k = params.k;
        let mut stats = BuildStats::default();
        let mut clock = PhaseClock::start();
        let Prepared { mut plans, centers, members, s_budgets } =
            Self::prepare(&g, &params, &dec, &hier, &src, &scopes, &mut clock);
        stats.s_budgets = s_budgets;

        // ---- fused per-center pipeline -------------------------------
        let bounded = matches!(src, BuildSource::OnDemand { .. });
        // Spill-file creation failing (tmpdir full or unwritable)
        // degrades to the resident store: higher peak memory, same
        // routing.
        let spill = params.spill.then(SpillWriter::create).and_then(Result::ok);
        let jobs: Vec<(u32, &[(u32, Cost)])> =
            centers.iter().enumerate().map(|(ci, &c)| (c, members.members(ci))).collect();
        let TreeBatch { records, bix, lm_bits: landmark_bits, labels } =
            build_center_trees(&g, &params, &jobs, bounded, spill.as_ref());
        drop(jobs);
        let max_center_label_bits = labels.iter().map(|&(_, l)| l).max().unwrap_or(0);
        let center_store = match spill {
            Some(w) => w.finish(),
            None => CenterStore::resident(records),
        };
        stats.num_center_trees = centers.len();
        stats.total_members = members.items.len();
        clock.lap("center_trees", String::new());

        // ---- b(u, i) + Lemma 3 verification --------------------------
        // merge: rows concatenated in chunk (= node id) order; the
        // check counters are sums, which commute.
        let b_shards = graphkit::metrics::par_chunks(n, |nodes| {
            let base = nodes.start;
            let mut out = vec![(0u8, u32::MAX); nodes.len() * k];
            let mut checked = 0usize;
            let mut violations = 0usize;
            for u in nodes {
                for i in 0..k {
                    let Some(scope) = &scopes[u][i] else { continue };
                    let fill = bix[&plans[u][i].center].plan(u as u32, scope, n, k);
                    out[(u - base) * k + i] = (fill.b, fill.src_ix);
                    checked += fill.checked;
                    violations += fill.violations;
                }
            }
            (out, checked, violations)
        });
        let mut b_flat = Vec::with_capacity(n * k);
        for (out, checked, violations) in b_shards {
            b_flat.extend(out);
            stats.lemma3_checked += checked;
            stats.lemma3_violations += violations;
        }
        set_plan_fills(&mut plans, &b_flat, k);
        drop(bix);
        clock.lap("b_levels", String::new());

        // ---- cover trees per dense scale -----------------------------
        let mut scales: Vec<u32> =
            plans.iter().flatten().filter(|p| p.dense).map(|p| p.a).collect();
        scales.sort_unstable();
        scales.dedup();
        let mut scale_covers: HashMap<u32, ScaleCover> = HashMap::new();
        for &s in &scales {
            let sc = build_scale_cover(&g, &dec, &params, s);
            stats.num_cover_trees += sc.routers.len();
            scale_covers.insert(s, sc);
        }
        stats.num_scales = scale_covers.len();
        clock.lap("covers", String::new());
        stats.phase_seconds = clock.finish();

        let repair_state = params.repairable.then(|| RepairState {
            centers,
            center_labels: labels.into_iter().collect(),
            members,
        });

        Scheme {
            g,
            params,
            dec,
            hier,
            plans,
            center_store,
            landmark_bits,
            max_center_label_bits,
            scale_covers,
            stats,
            repair_state,
        }
    }

    /// Construction phases 1–3 — per-(u, i) classification and centers,
    /// instance-tuned S budgets, and center-tree membership — shared
    /// verbatim between [`Scheme::assemble`] and [`Scheme::repair`]
    /// (which runs them against the mutated graph; their cost is a few
    /// percent of a full build, so repair recomputes rather than
    /// patches them — see DESIGN.md §"Churn & incremental repair").
    pub(crate) fn prepare(
        g: &Graph,
        params: &SchemeParams,
        dec: &Decomposition,
        hier: &LandmarkHierarchy,
        src: &BuildSource<'_>,
        scopes: &[Vec<Option<EScope>>],
        clock: &mut PhaseClock,
    ) -> Prepared {
        let n = g.n();
        let k = params.k;
        // ---- per-(u, i) classification and centers -------------------
        // merge: per-node plan rows, flattened in chunk (= node id) order.
        let plans: Vec<Vec<LevelPlan>> = graphkit::metrics::par_chunks(n, |nodes| {
            nodes
                .map(|u| {
                    let u_id = NodeId(u as u32);
                    (0..k)
                        .map(|i| {
                            let a = dec.a(u_id, i);
                            let dense = level_is_dense(dec, u_id, i, params);
                            let center = if dense {
                                u32::MAX
                            } else {
                                src.center(hier, u_id, dec.ball_radius(u_id, i))
                            };
                            LevelPlan { dense, a, center, b: 1, src_ix: u32::MAX }
                        })
                        .collect()
                })
                .collect::<Vec<Vec<LevelPlan>>>()
        })
        .into_iter()
        .flatten()
        .collect();

        clock.lap("plans", String::new());
        // ---- instance-tuned S budgets (see DESIGN.md) ----------------
        let raw = Self::s_requirements(g, params, hier, src, &plans, scopes);
        // Never exceed the paper's budget (it is the proven bound);
        // every budget is at least 1 (a node is its own closest C_0
        // member).
        let paper_budget = hier.s_budget();
        let level_max: Vec<usize> = (0..k)
            .map(|l| {
                (0..n).map(|v| raw[v * k + l] as usize).max().unwrap_or(0).max(1).min(paper_budget)
            })
            .collect();
        let budgets = match params.s_budget_mode {
            SBudgetMode::Global | SBudgetMode::PerNodeUniform => Budgets::Global(level_max.clone()),
            SBudgetMode::PerNode => Budgets::PerNode {
                per: raw.iter().map(|&x| (x as usize).max(1).min(paper_budget) as u32).collect(),
                k,
            },
        };
        drop(raw);
        clock.lap("budgets", format!("{level_max:?}"));

        // ---- landmark-tree membership --------------------------------
        // v stores τ(T(c), v) iff c ∈ S(v) under the tuned budgets,
        // i.e. c is among the first budget(v, rank(c)) entries of v's
        // sorted C_{rank(c)} list.
        let mut centers: Vec<u32> =
            plans.iter().flatten().filter(|p| !p.dense).map(|p| p.center).collect();
        centers.sort_unstable();
        centers.dedup();
        let members = Self::center_members(g, src, hier, &centers, &budgets, n, k);
        clock.lap(
            "members",
            format!("{} centers, {} total members", centers.len(), members.items.len()),
        );
        Prepared { plans, centers, members, s_budgets: level_max }
    }

    /// The per-(node, level) S requirement table behind the budgets:
    /// `raw[v·k + l]` is the max, over the sparse regions containing `v`
    /// whose center `c` has rank `l`, of `pos(v, l, c) + 1 + margin`
    /// (0 where no region asks). `pos(v, l, c)` counts the entries of
    /// `v`'s `(distance, id)`-sorted `C_l` list below the key
    /// `(d(v, c), c)`, so it is monotone in that key: a first pass folds
    /// each (node, level)'s farthest key, a second takes one position
    /// per (node, level).
    pub(crate) fn s_requirements(
        g: &Graph,
        params: &SchemeParams,
        hier: &LandmarkHierarchy,
        src: &BuildSource<'_>,
        plans: &[Vec<LevelPlan>],
        scopes: &[Vec<Option<EScope>>],
    ) -> Vec<u32> {
        let n = g.n();
        let k = params.k;
        type Far = Vec<Option<(Cost, u32)>>;
        let fold = |far: &mut Far, v: usize, l: usize, key: (Cost, u32)| {
            let slot = &mut far[v * k + l];
            *slot = (*slot).max(Some(key));
        };
        // Whole-graph scopes ask at every node, once per distinct center.
        let mut global: Vec<(u32, usize)> = Vec::new();
        for (u, row) in scopes.iter().enumerate() {
            for (i, scope) in row.iter().enumerate() {
                if let Some(EScope::Global) = scope {
                    let c = plans[u][i].center;
                    global.push((c, hier.rank(NodeId(c))));
                }
            }
        }
        global.sort_unstable();
        global.dedup();
        // Both kinds of region touch arbitrary nodes, so workers fold
        // into private n×k tables.
        // merge: elementwise max — order-free, hence chunk-count independent.
        let local = graphkit::metrics::par_chunks(n, |nodes| {
            let mut far: Far = vec![None; n * k];
            for u in nodes {
                for (i, scope) in scopes[u].iter().enumerate() {
                    let Some(EScope::Local(list)) = scope else { continue };
                    let c = plans[u][i].center;
                    let l = hier.rank(NodeId(c));
                    for &(v, d_uv) in list {
                        // A rank-0 center is u's closest C_0 member, at
                        // distance 0 from u, so d(v, c) = d(v, u).
                        let d_vc = if l == 0 { d_uv } else { src.dist(v, c) };
                        fold(&mut far, v as usize, l, (d_vc, c));
                    }
                }
            }
            far
        });
        // merge: elementwise max, as above.
        let whole = graphkit::metrics::par_chunks(global.len(), |range| {
            let mut far: Far = vec![None; n * k];
            for &(c, l) in &global[range] {
                for (v, d_vc) in src.column(g, c, l).into_iter().enumerate() {
                    fold(&mut far, v, l, (d_vc, c));
                }
            }
            far
        });
        let mut far: Far = vec![None; n * k];
        for shard in local.into_iter().chain(whole) {
            for (acc, add) in far.iter_mut().zip(shard) {
                *acc = (*acc).max(add);
            }
        }
        // One position per (node, level). Matrix-free level 0 has no
        // sorted list: a run out to the key's distance settles every
        // node below the key, in key order.
        let margin = params.s_margin as u32;
        // merge: per-node rows, flattened in chunk (= node id) order.
        graphkit::metrics::par_chunks(n, |nodes| {
            let mut scratch = None;
            let mut out = Vec::with_capacity(nodes.len() * k);
            for v in nodes {
                for (l, &key) in far[v * k..(v + 1) * k].iter().enumerate() {
                    let Some(key) = key else {
                        out.push(0);
                        continue;
                    };
                    let pos = match src.list(v as u32, l) {
                        Some(list) => list.partition_point(|&e| e < key),
                        None => {
                            let s = scratch.get_or_insert_with(|| DijkstraScratch::new(n));
                            s.run(g, NodeId(v as u32), key.0, usize::MAX);
                            s.position_below(key)
                        }
                    };
                    out.push(pos as u32 + 1 + margin);
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Members `{v : c ∈ S(v)}` of every distinct center's tree, with
    /// `d(v, c)` attached (the bounded tree Dijkstra's radius), in CSR
    /// form aligned with the sorted `centers` array.
    ///
    /// Enumerated node-major: `c ∈ S(v)` iff `c` sits in the first
    /// `budget(v, rank(c))` entries of `v`'s sorted `C_{rank(c)}` list
    /// (positions are unique — the sort key `(distance, id)` is), so
    /// each node scans its own prefix once — `O(Σ_v Σ_l budget(v, l))`
    /// work instead of `O(|centers| · n)` position probes — and a
    /// counting sort by center re-buckets the stream. Chunks
    /// concatenate in node order and the placement scan is stable, so
    /// each center's members stay v-ascending, exactly as the old
    /// center-major enumeration produced them.
    fn center_members(
        g: &Graph,
        src: &BuildSource<'_>,
        hier: &LandmarkHierarchy,
        centers: &[u32],
        budgets: &Budgets,
        n: usize,
        k: usize,
    ) -> CenterMembers {
        debug_assert!(k < u8::MAX as usize);
        // Center rank by host id (u8::MAX = not a center), and each
        // center's slot in the sorted array.
        let mut center_rank = vec![u8::MAX; n];
        let mut center_slot = vec![u32::MAX; n];
        for (ci, &c) in centers.iter().enumerate() {
            center_rank[c as usize] = hier.rank(NodeId(c)) as u8;
            center_slot[c as usize] = ci as u32;
        }
        let has_rank0 = centers.iter().any(|&c| center_rank[c as usize] == 0);
        // merge: counting-sort scatter by center; within a center the
        // shard (= ascending node id) order is preserved.
        let shards: Vec<Vec<(u32, u32, Cost)>> = graphkit::metrics::par_chunks(n, |nodes| {
            let mut out = Vec::new();
            let mut scratch = None;
            for v in nodes {
                for l in 0..k {
                    let b = budgets.of(v as u32, l);
                    let prefix = match src.list(v as u32, l) {
                        Some(list) => &list[..b.min(list.len())],
                        // Matrix-free rank 0: c ∈ S(v) ⟺ c is among v's
                        // b closest nodes — one size-capped Dijkstra
                        // yields every rank-0 membership.
                        None if has_rank0 => {
                            let s = scratch.get_or_insert_with(|| DijkstraScratch::new(n));
                            s.run(g, NodeId(v as u32), INFINITY - 1, b);
                            s.settled()
                        }
                        None => continue,
                    };
                    for &(dist, c) in prefix {
                        if center_rank[c as usize] == l as u8 {
                            out.push((center_slot[c as usize], v as u32, dist));
                        }
                    }
                }
            }
            out
        });
        let mut off = vec![0usize; centers.len() + 1];
        for shard in &shards {
            for &(ci, _, _) in shard {
                off[ci as usize + 1] += 1;
            }
        }
        for i in 0..centers.len() {
            off[i + 1] += off[i];
        }
        let mut cursor = off.clone();
        let mut items = vec![(0u32, 0 as Cost); off[centers.len()]];
        for shard in shards {
            for (ci, v, dist) in shard {
                let p = &mut cursor[ci as usize];
                items[*p] = (v, dist);
                *p += 1;
            }
        }
        CenterMembers { off, items }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// Construction parameters.
    pub fn params(&self) -> &SchemeParams {
        &self.params
    }

    /// Preprocessing diagnostics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The decomposition (exposed for experiments F1/F2/A1).
    pub fn decomposition(&self) -> &Decomposition {
        &self.dec
    }

    /// The landmark hierarchy (exposed for experiments C1/C2).
    pub fn hierarchy(&self) -> &LandmarkHierarchy {
        &self.hier
    }

    /// Route a message (§3.7): phases `i = 0..k`, each using the dense
    /// or sparse strategy of level `i`, until the destination is found.
    pub fn route_message(&self, src: NodeId, dst: NodeId) -> RouteTrace {
        if src == dst {
            return RouteTrace::trivial(src);
        }
        // lint:allow(no-alloc-in-route): the returned RouteTrace owns its path; one Vec per route is the API
        let mut path = vec![src];
        let mut cost: Cost = 0;
        // A source outside the scheme's node range is undeliverable,
        // not a panic — serve_batch forwards caller-supplied ids.
        let Some(row) = self.plans.get(src.idx()) else {
            return RouteTrace { path, cost, delivered: false };
        };
        for i in 0..self.params.k {
            let Some(&plan) = row.get(i) else { break };
            let found = if plan.dense {
                self.dense_phase(src, dst, plan, &mut path, &mut cost)
            } else {
                self.sparse_phase(src, dst, plan, &mut path, &mut cost)
            };
            if found {
                return RouteTrace { path, cost, delivered: true };
            }
            debug_assert_eq!(*path.last().unwrap(), src, "phase must end at the source");
        }
        RouteTrace { path, cost, delivered: false }
    }

    /// Dense strategy (§3.6): look up `dst` in the home cover tree
    /// `W(u, i)` at scale `a(u, i)`. Returns true when delivered.
    fn dense_phase(
        &self,
        src: NodeId,
        dst: NodeId,
        plan: LevelPlan,
        path: &mut Vec<NodeId>,
        cost: &mut Cost,
    ) -> bool {
        // Every lookup degrades to "not found at this level" rather
        // than panicking: a stale plan (e.g. after a degraded repair)
        // must cost an undelivered route, not the serving thread.
        let Some(sc) = self.scale_covers.get(&plan.a) else { return false };
        let Some(&home) = sc.home.get(src.idx()) else { return false };
        debug_assert_ne!(home, u32::MAX, "source must participate at its own scale");
        let Some(entry) = sc.routers.get(home as usize) else { return false };
        let Some(&from) = entry.ix.get(&src.0) else { return false };
        let (outcome, tpath) = entry.router.route(from, dst);
        // The walk starts at the source, already the path's tail.
        let tree = entry.router.labeled().tree();
        path.extend(tpath.iter().skip(1).map(|&t| tree.graph_id(t)));
        *cost += outcome.cost();
        matches!(outcome, CoverOutcome::Found { .. })
    }

    /// Sparse strategy (§3.3): climb to the center `c(u, i)`, run a
    /// `b(u, i)`-bounded search on `T(c(u, i))`, and come back on a miss.
    /// The tree is read in place from its record.
    fn sparse_phase(
        &self,
        src: NodeId,
        dst: NodeId,
        plan: LevelPlan,
        path: &mut Vec<NodeId>,
        cost: &mut Cost,
    ) -> bool {
        // A missing or unreadable center tree (torn spill file, corrupt
        // lazily loaded record) degrades to "not found at this level":
        // the caller falls through to the next level and ultimately
        // reports an undelivered route — never a panicked serving thread.
        self.center_store
            .with_tree(plan.center, |ert| sparse_walk(ert, src, dst, plan, path, cost))
            .unwrap_or(false)
    }

    /// Evaluate this scheme over `pairs` with the parallel engine
    /// (`threads` = 0 → available parallelism), against any
    /// [`GroundTruth`] — the dense matrix used at build time or an
    /// on-demand truth for larger workloads. Results are bit-identical
    /// to sequential [`sim::evaluate`].
    pub fn evaluate(
        &self,
        truth: &(dyn GroundTruth + Sync),
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> StretchStats {
        sim::evaluate_parallel(&self.g, truth, self, pairs, threads)
    }

    /// Storage bits at node `v`: level plans, landmark-tree state
    /// `τ(T(c), v)` for every tree containing `v`, and cover-tree state
    /// `φ(T, v)` plus the home-root pointer for every scale in `R(v)`.
    pub fn storage_bits(&self, v: NodeId) -> u64 {
        self.storage_breakdown(v).total()
    }

    /// Storage bits at `v`, split by component (experiment T2). The
    /// landmark component was accumulated during the fused build, so
    /// this never touches the center store — a spilled scheme accounts
    /// its storage without a single disk read.
    pub fn storage_breakdown(&self, v: NodeId) -> StorageBreakdown {
        let n = self.g.n();
        let id = bits_for_node(n);
        let mut b = StorageBreakdown {
            // Plans: dense flag + range + center + b per level.
            plans_bits: self.params.k as u64
                * (1 + bits_for_universe(self.dec.log_delta() as u64 + 1)
                    + id
                    + bits_for_universe(self.params.k as u64 + 1)),
            landmark_bits: self.landmark_bits[v.idx()],
            ..Default::default()
        };
        for sc in self.scale_covers.values() {
            for entry in &sc.routers {
                if let Some(&ix) = entry.ix.get(&v.0) {
                    b.cover_bits += id + entry.router.node_bits(ix); // root id + φ
                }
            }
        }
        b
    }

    /// Theorem 1's per-node bound in explicit form (with the Lemma 11
    /// exponent; see DESIGN.md): `k² · n^{3/k} · log³ n` bits, constant
    /// 64.
    pub fn theorem1_bound(&self) -> f64 {
        let n = self.g.n() as f64;
        let k = self.params.k as f64;
        64.0 * k * k * n.powf(3.0 / k) * n.log2().powi(3)
    }

    /// Worst-case header size in bits — the paper's `Õ(1)` claim made
    /// concrete. A message carries: the destination id, the phase index,
    /// the search round, and (while walking a tree) the largest label of
    /// any tree in the scheme plus a return label for error reporting —
    /// O(log² n) total. (The center-tree max was recorded during the
    /// fused build; cover labels are read off the resident routers.)
    pub fn header_bits_bound(&self) -> u64 {
        let n = self.g.n();
        let id = bits_for_node(n);
        let phase = bits_for_universe(self.params.k as u64 + 1);
        let mut max_label = self.max_center_label_bits;
        for sc in self.scale_covers.values() {
            for entry in &sc.routers {
                let lt = entry.router.labeled();
                for t in 0..lt.tree().size() as u32 {
                    max_label = max_label.max(lt.label_bits(t));
                }
            }
        }
        id + 2 * phase + 2 * max_label
    }
}

/// Effective dense/sparse classification of level `i` (force-mode
/// aware; used identically by both construction sources).
pub(crate) fn level_is_dense(
    dec: &Decomposition,
    u: NodeId,
    i: usize,
    params: &SchemeParams,
) -> bool {
    match params.force_mode {
        None => dec.is_dense(u, i),
        Some(ForceMode::AllDense) => true,
        Some(ForceMode::AllSparse) => false,
    }
}

/// The sparse phase on one center tree, owned or read in place: climb
/// from the source to the root, search, and on a miss retrace the climb.
fn sparse_walk(
    ert: &impl ErtRead,
    src: NodeId,
    dst: NodeId,
    plan: LevelPlan,
    path: &mut Vec<NodeId>,
    cost: &mut Cost,
) -> bool {
    let tree = ert.labeled();
    // A source index that does not name the source in this tree (a
    // stale or corrupt plan) finds nothing at this level.
    if tree.host(plan.src_ix) != Some(src.0) {
        return false;
    }
    let host = |t| NodeId(tree.host(t).unwrap_or(u32::MAX));
    // Climb to the root along tree parents. The source sits at
    // path[base]; the climb lands in path[base + 1..].
    let base = path.len().saturating_sub(1);
    let mut climb_cost: Cost = 0;
    let mut at = plan.src_ix;
    for _ in 0..tree.size() {
        let Some(p) = tree.parent(at) else { break };
        climb_cost = climb_cost.saturating_add(tree.parent_weight(at));
        at = p;
        path.push(host(at));
    }
    let top = path.len();
    let climbed = top - base - 1;
    *cost = cost.saturating_add(climb_cost);
    // Bounded search from the root.
    let outcome = ert.bounded_search(dst.0, plan.b as usize, &mut |t| path.push(host(t)));
    *cost = cost.saturating_add(outcome.cost());
    if outcome.is_found() {
        return true;
    }
    // A miss ends back at the root (Lemma 4); only a corrupt record can
    // strand the walk elsewhere, and then its hops are dropped so the
    // phase still retraces to the source.
    if path.last() != path.get(top - 1) {
        path.truncate(top);
    }
    // Back down to the source for the next phase: the climb reversed.
    *cost = cost.saturating_add(climb_cost);
    for i in (base..base + climbed).rev() {
        if let Some(&v) = path.get(i) {
            path.push(v);
        }
    }
    false
}

/// Write the b-levels pass's `(b, source index)` per (node, level) into
/// the plans; a 0 `b` marks a dense level and leaves the plan alone.
pub(crate) fn set_plan_fills(plans: &mut [Vec<LevelPlan>], fills: &[(u8, u32)], k: usize) {
    for (u, row) in plans.iter_mut().enumerate() {
        for (i, plan) in row.iter_mut().enumerate() {
            let (b, src_ix) = fills[u * k + i];
            if b != 0 {
                plan.b = b;
                plan.src_ix = src_ix;
            }
        }
    }
}

/// Phase wall-clock bookkeeping behind [`BuildStats::phase_seconds`],
/// echoed to stderr when `SCHEME_TIMING` is set.
pub(crate) struct PhaseClock {
    started: std::time::Instant,
    prev: f64,
    timing: bool,
    laps: Vec<(String, f64)>,
}

impl PhaseClock {
    pub(crate) fn start() -> Self {
        PhaseClock {
            started: std::time::Instant::now(),
            prev: 0.0,
            timing: std::env::var_os("SCHEME_TIMING").is_some(),
            laps: Vec::new(),
        }
    }

    pub(crate) fn lap(&mut self, name: &str, detail: String) {
        let t = self.started.elapsed().as_secs_f64();
        self.laps.push((name.to_string(), t - self.prev));
        self.prev = t;
        if self.timing {
            eprintln!("[scheme {t:>8.2}s] {name} {detail}");
        }
    }

    pub(crate) fn finish(self) -> Vec<(String, f64)> {
        self.laps
    }
}

/// Output of [`Scheme::prepare`] — everything the per-center tree
/// pipeline and the later passes consume.
pub(crate) struct Prepared {
    pub(crate) plans: Vec<Vec<LevelPlan>>,
    /// Distinct sparse centers, ascending.
    pub(crate) centers: Vec<u32>,
    /// Membership CSR aligned with `centers`.
    pub(crate) members: CenterMembers,
    /// Effective per-level S budgets (for [`BuildStats::s_budgets`]).
    pub(crate) s_budgets: Vec<usize>,
}

/// One finished batch from the fused per-center pipeline: the encoded
/// tree records (empty when spilled — the writer received them
/// instead), the b-pass indexes keyed by center, per-node storage-bit
/// contributions, and each tree's largest routing label.
pub(crate) struct TreeBatch {
    pub(crate) records: Vec<(u32, Box<[u8]>)>,
    pub(crate) bix: HashMap<u32, BuildIndex>,
    pub(crate) lm_bits: Vec<u64>,
    pub(crate) labels: Vec<(u32, u64)>,
}

/// The fused per-center pipeline over an explicit job list: bounded
/// Dijkstra → tree extraction against reusable scratch → Lemma 4
/// scheme → storage accounting → wire record (kept, or appended to the
/// spill file). Each tree is encoded the moment it is finished and the
/// owned scheme dropped, so nothing tree-sized survives the pass beyond
/// the record bytes routing reads and the b-pass index. A full build
/// passes every center; repair passes only the invalidated ones.
pub(crate) fn build_center_trees(
    g: &Graph,
    params: &SchemeParams,
    jobs: &[(u32, &[(u32, Cost)])],
    bounded: bool,
    spill: Option<&SpillWriter>,
) -> TreeBatch {
    let n = g.n();
    let k = params.k;
    let sigma = graphkit::ids::nth_root_ceil(n as u64, k as u32).max(2);
    let id_bits = bits_for_node(n);
    struct CenterShard {
        records: Vec<(u32, Box<[u8]>)>,
        index: Vec<(u32, BuildIndex)>,
        lm_bits: Vec<u64>,
        labels: Vec<(u32, u64)>,
    }
    // merge: keyed by center id (maps), plus elementwise bit sums and
    // per-center label entries — shard order immaterial.
    let shards = graphkit::metrics::par_chunks(jobs.len(), |range| {
        let mut scratch = DijkstraScratch::new(n);
        let mut tscratch = TreeScratch::new(n);
        let mut records = Vec::new();
        let mut index = Vec::with_capacity(range.len());
        let mut lm_bits = vec![0u64; n];
        let mut labels = Vec::with_capacity(range.len());
        for ji in range {
            let (c, mem) = jobs[ji];
            let radius = if bounded {
                mem.iter().map(|&(_, dist)| dist).max().unwrap_or(0)
            } else {
                INFINITY - 1
            };
            scratch.run(g, NodeId(c), radius, usize::MAX);
            let tree = Tree::from_dist_parents_with(
                &mut tscratch,
                g,
                NodeId(c),
                scratch.dists(),
                scratch.parents(),
                mem.iter().map(|&(v, _)| NodeId(v)),
            );
            let ert = ErrorReportingTree::with_sigma(
                tree,
                k,
                sigma,
                params.seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let (entry, bits, max_label) = index_and_bits(&ert, id_bits);
            for &(gid, b) in &bits {
                lm_bits[gid as usize] += b;
            }
            labels.push((c, max_label));
            index.push((c, entry));
            let record = center_store::encode(&ert);
            match spill {
                Some(w) => w.write(c, &record),
                None => records.push((c, record)),
            }
        }
        CenterShard { records, index, lm_bits, labels }
    });
    let mut records = Vec::new();
    let mut bix: HashMap<u32, BuildIndex> = HashMap::with_capacity(jobs.len());
    let mut lm_bits = vec![0u64; n];
    let mut labels = Vec::with_capacity(jobs.len());
    for shard in shards {
        records.extend(shard.records);
        for (acc, add) in lm_bits.iter_mut().zip(&shard.lm_bits) {
            *acc += add;
        }
        bix.extend(shard.index);
        labels.extend(shard.labels);
    }
    TreeBatch { records, bix, lm_bits, labels }
}

/// Per-tree derived data, usable on a freshly built tree or one read
/// back from the store: the b-pass index, each member's
/// `(host id, storage-bit)` contribution (root id + τ), and the largest
/// routing label.
pub(crate) fn index_and_bits(
    ert: &impl ErtRead,
    id_bits: u64,
) -> (BuildIndex, Vec<(u32, u64)>, u64) {
    let tree = ert.labeled();
    let size = tree.size();
    let naming = Naming::new(size, ert.sigma());
    let mut members: Vec<(u32, u32, u8)> = Vec::with_capacity(size);
    let mut bits: Vec<(u32, u64)> = Vec::with_capacity(size);
    let mut max_search_level = 1u8;
    let mut max_label = 0u64;
    for ix in 0..size as u32 {
        let gid = tree.host(ix).unwrap_or(u32::MAX);
        let rank = ert.rank_of(ix).unwrap_or(0) as usize;
        let lvl = naming.level_of_rank(rank).clamp(1, u8::MAX as usize) as u8;
        max_search_level = max_search_level.max(lvl);
        members.push((gid, ix, lvl));
        bits.push((gid, id_bits + ert.node_bits(ix)));
        max_label = max_label.max(tree.label_bits(ix));
    }
    members.sort_unstable();
    (BuildIndex { members, max_search_level }, bits, max_label)
}

/// All cover trees of one dense scale `s`: the extended-range member
/// set, its induced subgraph, the AGM cover, and one Lemma 7 router
/// per tree lifted back to host ids. Deterministic in
/// `(g, dec, params, s)` — repair reuses a scale's covers only when
/// each of those provably matches what a fresh build would pass here.
pub(crate) fn build_scale_cover(
    g: &Graph,
    dec: &Decomposition,
    params: &SchemeParams,
    s: u32,
) -> ScaleCover {
    let n = g.n();
    let k = params.k;
    let sigma = graphkit::ids::nth_root_ceil(n as u64, k as u32).max(2);
    let members: Vec<u32> =
        (0..n as u32).filter(|&v| dec.in_extended_range(NodeId(v), s)).collect();
    let sub = induced_subgraph(g, &members);
    let rho = octave_radius(s);
    let cover = covers::build_cover(&sub.graph, k, rho);
    let mut home = vec![u32::MAX; n];
    for (local, &t) in cover.home.iter().enumerate() {
        home[sub.to_host[local] as usize] = t;
    }
    let routers: Vec<CoverEntry> =
        // merge: entries flattened in chunk (= tree index) order.
        graphkit::metrics::par_chunks(cover.trees.len(), |range| {
            range
                .map(|ti| {
                    let host_tree = remap_tree(&cover.trees[ti], &sub.to_host);
                    let ix: HashMap<u32, TreeIx> = host_tree
                        .graph_ids()
                        .iter()
                        .enumerate()
                        .map(|(i, &gid)| (gid, i as TreeIx))
                        .collect();
                    let router = CoverTreeRouter::new(
                        host_tree,
                        sigma,
                        params.seed ^ ((s as u64) << 32 | ti as u64),
                    );
                    CoverEntry { router, ix }
                })
                .collect::<Vec<CoverEntry>>()
        })
        .into_iter()
        .flatten()
        .collect();
    ScaleCover { routers, home }
}

/// Relabel a tree's node ids through a host map (used to lift subgraph
/// cover trees into host-graph ids).
fn remap_tree(t: &Tree, to_host: &[u32]) -> Tree {
    let ids: Vec<u32> = t.graph_ids().iter().map(|&l| to_host[l as usize]).collect();
    let parents: Vec<u32> = (0..t.size() as u32).map(|x| t.parent(x).unwrap_or(u32::MAX)).collect();
    let weights: Vec<u64> = (0..t.size() as u32).map(|x| t.parent_weight(x)).collect();
    Tree::from_parents(ids, parents, weights)
}

// The parallel evaluator shards pairs across threads that all borrow
// the scheme; routing mutates nothing shared (file-backed center stores
// read into per-thread buffers).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Scheme>();
};

impl Router for Scheme {
    fn route(&self, src: NodeId, dst: NodeId) -> RouteTrace {
        self.route_message(src, dst)
    }

    fn name(&self) -> &str {
        "agm-scale-free"
    }

    fn node_storage_bits(&self, v: NodeId) -> u64 {
        self.storage_bits(v)
    }
}
