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
use graphkit::{dijkstra, Cost, DijkstraScratch, Graph, NodeId, Tree, TreeScratch, INFINITY};
use landmarks::{LandmarkDistances, LandmarkHierarchy};
use sim::{GroundTruth, RouteTrace, Router, StretchStats};
use treeroute::cover_router::CoverScale;
use treeroute::laing::{ErrorReportingTree, ErtRead};
use treeroute::{LabeledRead, Naming};

use crate::center_store::{self, CenterStore, Records};
use crate::repair::{Prior, RepairReport};

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

/// Extra S-set slots beyond the instance-tuned requirement: a margin
/// against the tie-break edge.
pub(crate) const S_MARGIN: u32 = 2;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SchemeParams {
    /// The space-stretch trade-off parameter `k ≥ 1`.
    pub k: usize,
    /// Seed for the landmark hierarchy and the tree hash functions.
    pub seed: u64,
    /// Re-sampling attempts for a Claims-1/2-verified hierarchy.
    pub landmark_attempts: u32,
    /// Ablation override (None = the paper's decomposition).
    pub force_mode: Option<ForceMode>,
}

impl SchemeParams {
    /// Defaults: verified sampling with 16 attempts, the paper's
    /// decomposition.
    pub fn new(k: usize, seed: u64) -> Self {
        SchemeParams { k, seed, landmark_attempts: 16, force_mode: None }
    }

    /// Builder-style ablation switch.
    pub fn with_force_mode(mut self, mode: ForceMode) -> Self {
        self.force_mode = Some(mode);
        self
    }

    /// A no-op, kept so existing callers still compile: every scheme —
    /// built, repaired or loaded from a snapshot — repairs
    /// incrementally, reading what [`Scheme::repair`] needs off the
    /// scheme itself.
    pub fn with_repair(self) -> Self {
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
    fn plan(&self, u: u32, scope: &EScope, n: usize, k: usize) -> PlanFill {
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
struct PlanFill {
    b: u8,
    src_ix: u32,
    checked: usize,
    violations: usize,
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

/// How a sparse level's region `E(u, i)` is enumerated during
/// construction.
#[derive(Debug, PartialEq)]
pub(crate) enum EScope {
    /// `a(u,i+1)` hit the `⌈log₂Δ⌉+3` cap, so `E(u,i) = V` exactly
    /// (see [`Decomposition::e_is_global`]); loops over it collapse
    /// to per-center aggregates instead of Θ(n) enumerations.
    Global,
    /// Explicit members as `(v, d(u,v))`, id-ascending, from a
    /// radius-bounded Dijkstra.
    Local(Vec<(u32, Cost)>),
}

/// Diagnostics accumulated during preprocessing (experiment F2 reads
/// these; violations should be zero on verified hierarchies).
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// (u, i, v) triples where Lemma 3 failed: `v ∈ E(u,i)` but the
    /// center's tree does not contain `v`.
    pub lemma3_violations: usize,
    /// Sparse (u, i, v) membership triples checked. A repair derives
    /// every pair, so both Lemma 3 counters equal a fresh build's.
    pub lemma3_checked: usize,
    /// S-set budget per landmark level: the max requirement over all
    /// nodes, capped at the paper's budget. It counts only what local
    /// regions ask: a center with a whole-graph region has the explicit
    /// tree `T(c) = V` (see [`Scheme::whole_graph_trees`]), so neither
    /// that region nor any other region on the same center asks for a
    /// slot. Top-level regions are always whole-graph, so the top entry
    /// is the floor of 1 unless a lower region on a top-rank center
    /// asks.
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
    /// After a repair these are the repair's own laps (the same phases,
    /// run on the mutated graph), not the original build's.
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
    /// accounting never reads the center store.
    pub(crate) landmark_bits: Vec<u64>,
    /// Largest routing label over all center trees (header accounting).
    pub(crate) max_center_label_bits: u64,
    /// One [`CoverScale`] per dense scale, ascending by scale.
    pub(crate) scale_covers: Vec<(u32, CoverScale)>,
    /// Per-node cover storage bits (home-root id + φ over every cover
    /// tree containing the node) and the largest cover-tree label,
    /// computed once wherever `scale_covers` is assembled or loaded
    /// ([`cover_accounting`]).
    pub(crate) cover_bits: Vec<u64>,
    pub(crate) max_cover_label_bits: u64,
    pub(crate) stats: BuildStats,
}

impl Scheme {
    /// Build the scheme without ever materializing an n×n matrix — the
    /// Theorem 1 construction at 10⁵+ nodes.
    ///
    /// Each quantity the paper defines over all-pairs distances comes
    /// from bounded searches instead (DESIGN.md §"Matrix-free
    /// construction" names the test that checks each one against its
    /// dense reference):
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
    ///   the center of such a scope gets the explicit tree `T(c) = V`
    ///   rather than a slot in every node's S set;
    /// * level-0 (`C_0 = V`) S-sets and positions come from per-node
    ///   size-capped Dijkstras instead of full sorted rows.
    ///
    /// Requires `k ≥ 1`, a connected graph, and strictly positive edge
    /// weights (every generator in this workspace).
    pub fn build_on_demand(g: Graph, params: SchemeParams) -> Self {
        assert!(params.k >= 1);
        assert!(
            dijkstra::dijkstra(&g, NodeId(0)).dist.iter().all(|&x| x != INFINITY),
            "the scheme requires a connected graph"
        );
        let parts = Parts::compute(&g, &params);
        Self::assemble(g, params, parts, None).0
    }

    /// The one Theorem-1 assembler, behind both [`Scheme::build_on_demand`]
    /// and [`Scheme::repair`]. Runs classification and centers,
    /// instance-tuned S budgets, center trees with Lemma 4 schemes,
    /// `b(u,i)` with Lemma 3 verification, and cover trees per dense
    /// scale; every phase fans out over deterministic chunks and merges
    /// in chunk order.
    ///
    /// Every `b(u,i)` is derived and every scale cover is built. With no
    /// `prior` every center is a job — a fresh build. With the old
    /// scheme's center trees as `prior`, [`Prior::keeps_tree`] decides
    /// which records carry over; everything else is computed exactly as
    /// a build computes it. The report counts what was reused and
    /// rebuilt.
    pub(crate) fn assemble(
        g: Graph,
        params: SchemeParams,
        parts: Parts,
        mut prior: Option<Prior<'_>>,
    ) -> (Self, RepairReport) {
        let Parts { dec, hier, ld } = parts;
        let mut clock = PhaseClock::start();
        let scopes = Self::on_demand_scopes(&g, &dec, &params);
        clock.lap("scopes");
        let n = g.n();
        let k = params.k;
        let Prepared { mut plans, centers, members, s_budgets } =
            Self::prepare(&g, &params, &dec, &hier, &ld, &scopes, &mut clock);
        let mut stats = BuildStats {
            s_budgets,
            num_center_trees: centers.len(),
            total_members: members.items.len(),
            ..BuildStats::default()
        };
        let mut report = RepairReport { centers_total: centers.len(), ..RepairReport::default() };

        // ---- fused per-center pipeline -------------------------------
        // Every center whose tree the prior does not keep is a job. A
        // kept record is a finished tree: it moves out of the old store
        // and goes through the same per-tree pass as a fresh one.
        // merge: flags concatenated in chunk (= center) order.
        let kept = graphkit::metrics::par_chunks(centers.len(), |range| {
            let keeps = |ci: usize| {
                prior.as_ref().is_some_and(|p| p.keeps_tree(centers[ci], members.members(ci)))
            };
            range.map(keeps).collect::<Vec<bool>>()
        })
        .concat();
        let jobs: Vec<(u32, &[(u32, Cost)])> = centers
            .iter()
            .enumerate()
            .filter(|&(ci, _)| !kept[ci])
            .map(|(ci, &c)| (c, members.members(ci)))
            .collect();
        report.trees_rebuilt = jobs.len();
        report.trees_reused = centers.len() - jobs.len();
        let (mut records, mut trees) = build_center_trees(&g, &params, &jobs);
        drop(jobs);
        drop(members);
        let kept_centers: Vec<u32> =
            centers.iter().zip(&kept).filter(|&(_, &keep)| keep).map(|(&c, _)| c).collect();
        if let Some(p) = prior.as_mut() {
            records.extend(p.carry_trees(&kept_centers));
        }
        let center_store = CenterStore::resident(records);
        let id_bits = bits_for_node(n);
        // merge: TreeIndex::merge — keyed by center, sums and a max, so
        // shard order is immaterial.
        trees.merge(graphkit::metrics::par_chunks(kept_centers.len(), |range| {
            let mut index = TreeIndex::new(n);
            for &c in kept_centers.get(range).unwrap_or_default() {
                // A kept record that could not be carried over is not in
                // the store: routes through its center miss this level.
                let _ = center_store.with_tree(c, |t| index.add(c, t, id_bits));
            }
            index
        }));
        let TreeIndex { bix, lm_bits: landmark_bits, max_label: max_center_label_bits } = trees;
        clock.lap("center_trees");

        // ---- b(u, i) + Lemma 3 verification --------------------------
        // Every sparse plan is derived from its center's index, whether
        // the tree was kept or built fresh.
        // merge: rows concatenated in chunk (= node id) order; the
        // counters are sums, which commute.
        let b_shards = graphkit::metrics::par_chunks(n, |nodes| {
            let base = nodes.start;
            let mut out = vec![(0u8, u32::MAX); nodes.len() * k];
            let (mut checked, mut violations, mut derived) = (0usize, 0usize, 0usize);
            for u in nodes {
                for i in 0..k {
                    let Some(scope) = &scopes[u][i] else { continue };
                    // A center whose record could not be carried over has
                    // no index: the plan keeps no source index, so routing
                    // misses this level and falls through to the next.
                    let Some(ix) = bix.get(&plans[u][i].center) else { continue };
                    let pf = ix.plan(u as u32, scope, n, k);
                    out[(u - base) * k + i] = (pf.b, pf.src_ix);
                    checked += pf.checked;
                    violations += pf.violations;
                    derived += 1;
                }
            }
            (out, checked, violations, derived)
        });
        let mut b_flat = Vec::with_capacity(n * k);
        for (out, checked, violations, derived) in b_shards {
            b_flat.extend(out);
            stats.lemma3_checked += checked;
            stats.lemma3_violations += violations;
            report.b_recomputed += derived;
        }
        set_plan_fills(&mut plans, &b_flat, k);
        drop(bix);
        clock.lap("b_levels");

        // ---- cover trees per dense scale -----------------------------
        let mut scales: Vec<u32> =
            plans.iter().flatten().filter(|p| p.dense).map(|p| p.a).collect();
        scales.sort_unstable();
        scales.dedup();
        let scale_covers: Vec<(u32, CoverScale)> =
            scales.iter().map(|&s| (s, build_scale_cover(&g, &dec, &params, s))).collect();
        stats.num_cover_trees = scale_covers.iter().map(|(_, sc)| sc.num_trees()).sum();
        stats.num_scales = scale_covers.len();
        report.scales_rebuilt = scale_covers.len();
        let (cover_bits, max_cover_label_bits) = cover_accounting(&scale_covers, n);
        clock.lap("covers");
        stats.phase_seconds = clock.finish();

        let scheme = Scheme {
            g,
            params,
            dec,
            hier,
            plans,
            center_store,
            landmark_bits,
            max_center_label_bits,
            scale_covers,
            cover_bits,
            max_cover_label_bits,
            stats,
        };
        (scheme, report)
    }

    /// Per-(u, i) `E(u,i)` scopes from radius-bounded Dijkstras,
    /// parallel over node chunks with per-worker scratch.
    pub(crate) fn on_demand_scopes(
        g: &Graph,
        dec: &Decomposition,
        params: &SchemeParams,
    ) -> Vec<Vec<Option<EScope>>> {
        let n = g.n();
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
                                members.sort_unstable(); // id order
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

    /// Construction phases 1–3 — per-(u, i) classification and centers,
    /// instance-tuned S budgets, and center-tree membership. A repair
    /// runs them in full on the mutated graph: their cost is a few
    /// percent of a full build, so repair recomputes rather than patches
    /// them (DESIGN.md §"Churn & incremental repair").
    pub(crate) fn prepare(
        g: &Graph,
        params: &SchemeParams,
        dec: &Decomposition,
        hier: &LandmarkHierarchy,
        ld: &LandmarkDistances,
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
                                ld.center(u_id, dec.ball_radius(u_id, i)).0
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

        clock.lap("plans");
        // ---- instance-tuned S budgets (see DESIGN.md) ----------------
        let whole = whole_graph_centers(dec, &plans);
        let raw = Self::s_requirements(g, params, hier, ld, &plans, scopes, &whole);
        // Never exceed the paper's budget (it is the proven bound);
        // every budget is at least 1 (a node is its own closest C_0
        // member).
        let paper_budget = hier.s_budget();
        let level_max: Vec<usize> = (0..k)
            .map(|l| {
                (0..n).map(|v| raw[v * k + l] as usize).max().unwrap_or(0).max(1).min(paper_budget)
            })
            .collect();
        drop(raw);
        clock.lap("budgets");

        // ---- landmark-tree membership --------------------------------
        // v stores τ(T(c), v) iff c ∈ S(v) under the tuned budgets,
        // i.e. c is among the first level_max[rank(c)] entries of v's
        // sorted C_{rank(c)} list — or c has a whole-graph region.
        let mut centers: Vec<u32> =
            plans.iter().flatten().filter(|p| !p.dense).map(|p| p.center).collect();
        centers.sort_unstable();
        centers.dedup();
        let members = Self::center_members(g, ld, hier, &centers, &whole, &level_max);
        clock.lap("members");
        Prepared { plans, centers, members, s_budgets: level_max }
    }

    /// The per-(node, level) S requirement table behind the budgets:
    /// `raw[v·k + l]` is the max, over the local regions containing `v`
    /// whose center `c` has rank `l` and is not in `whole`, of
    /// `pos(v, l, c) + 1 + S_MARGIN` (0 where no region asks). A center
    /// in `whole` (sorted) has a whole-graph region and the explicit
    /// tree `T(c) = V`, so none of its regions ask. `pos(v, l, c)`
    /// counts the entries of `v`'s `(distance, id)`-sorted `C_l` list
    /// below the key `(d(v, c), c)`, so it is monotone in that key: a
    /// first pass folds each (node, level)'s farthest key, a second
    /// takes one position per (node, level).
    pub(crate) fn s_requirements(
        g: &Graph,
        params: &SchemeParams,
        hier: &LandmarkHierarchy,
        ld: &LandmarkDistances,
        plans: &[Vec<LevelPlan>],
        scopes: &[Vec<Option<EScope>>],
        whole: &[u32],
    ) -> Vec<u32> {
        let n = g.n();
        let k = params.k;
        type Far = Vec<Option<(Cost, u32)>>;
        // Regions touch arbitrary nodes, so workers fold into private
        // n×k tables.
        // merge: elementwise max — order-free, hence chunk-count independent.
        let shards = graphkit::metrics::par_chunks(n, |nodes| {
            let mut far: Far = vec![None; n * k];
            for u in nodes {
                for (i, scope) in scopes[u].iter().enumerate() {
                    let Some(EScope::Local(list)) = scope else { continue };
                    let c = plans[u][i].center;
                    if whole.binary_search(&c).is_ok() {
                        continue;
                    }
                    let l = hier.rank(NodeId(c));
                    for &(v, d_uv) in list {
                        // A rank-0 center is u's closest C_0 member, at
                        // distance 0 from u, so d(v, c) = d(v, u).
                        let d_vc = if l == 0 { d_uv } else { ld.d(c, NodeId(v)) };
                        let slot = &mut far[v as usize * k + l];
                        *slot = (*slot).max(Some((d_vc, c)));
                    }
                }
            }
            far
        });
        let mut far: Far = vec![None; n * k];
        for shard in shards {
            for (acc, add) in far.iter_mut().zip(shard) {
                *acc = (*acc).max(add);
            }
        }
        // One position per (node, level). Level 0 has no sorted list:
        // a run out to the key's distance settles every node below the
        // key, in key order.
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
                    let pos = if l >= 1 {
                        ld.list(NodeId(v as u32), l).partition_point(|&e| e < key)
                    } else {
                        let s = scratch.get_or_insert_with(|| DijkstraScratch::new(n));
                        s.run(g, NodeId(v as u32), key.0, usize::MAX);
                        s.position_below(key)
                    };
                    out.push(pos as u32 + 1 + S_MARGIN);
                }
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Members `{v : c ∈ S(v)}` of every distinct center's tree (all of
    /// V for a center with a whole-graph region), with `d(v, c)`
    /// attached (the bounded tree Dijkstra's radius), in CSR form
    /// aligned with the sorted `centers` array.
    ///
    /// Enumerated node-major: `c ∈ S(v)` iff `c` sits in the first
    /// `budgets[rank(c)]` entries of `v`'s sorted `C_{rank(c)}` list
    /// (positions are unique — the sort key `(distance, id)` is), so
    /// each node scans its own prefix once — `O(n · Σ_l budgets[l])`
    /// work instead of `O(|centers| · n)` position probes — and a
    /// counting sort by center re-buckets the stream. Chunks
    /// concatenate in node order and the placement scan is stable, so
    /// each center's members stay v-ascending, exactly as the old
    /// center-major enumeration produced them.
    ///
    /// The scan skips the centers in `whole` (sorted): each of those
    /// has a whole-graph region, and its slot gets all of V,
    /// node-ascending.
    fn center_members(
        g: &Graph,
        ld: &LandmarkDistances,
        hier: &LandmarkHierarchy,
        centers: &[u32],
        whole: &[u32],
        budgets: &[usize],
    ) -> CenterMembers {
        debug_assert!(budgets.len() < u8::MAX as usize);
        let n = g.n();
        // Center rank by host id (u8::MAX = not a scanned center), and
        // each center's slot in the sorted array.
        let mut center_rank = vec![u8::MAX; n];
        let mut center_slot = vec![u32::MAX; n];
        for (ci, &c) in centers.iter().enumerate() {
            center_slot[c as usize] = ci as u32;
            if whole.binary_search(&c).is_err() {
                center_rank[c as usize] = hier.rank(NodeId(c)) as u8;
            }
        }
        let has_rank0 = centers.iter().any(|&c| center_rank[c as usize] == 0);
        // merge: counting-sort scatter by center; within a center the
        // shard (= ascending node id) order is preserved.
        let shards: Vec<Vec<(u32, u32, Cost)>> = graphkit::metrics::par_chunks(n, |nodes| {
            let mut out = Vec::new();
            let mut scratch = None;
            for v in nodes {
                for (l, &b) in budgets.iter().enumerate() {
                    let prefix = if l >= 1 {
                        let list = ld.list(NodeId(v as u32), l);
                        &list[..b.min(list.len())]
                    } else if has_rank0 {
                        // Rank 0: c ∈ S(v) ⟺ c is among v's b closest
                        // nodes — one size-capped Dijkstra yields every
                        // rank-0 membership.
                        let s = scratch.get_or_insert_with(|| DijkstraScratch::new(n));
                        s.run(g, NodeId(v as u32), INFINITY - 1, b);
                        s.settled()
                    } else {
                        continue;
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
        // d(·, c) for each whole-graph center: C_0 = V has no landmark
        // column, so a rank-0 center costs one full Dijkstra.
        // merge: columns concatenated in chunk (= center) order.
        let columns: Vec<Vec<Cost>> = graphkit::metrics::par_chunks(whole.len(), |range| {
            whole[range]
                .iter()
                .map(|&c| {
                    if hier.rank(NodeId(c)) == 0 {
                        dijkstra::dijkstra(g, NodeId(c)).dist
                    } else {
                        (0..n as u32).map(|v| ld.d(c, NodeId(v))).collect()
                    }
                })
                .collect::<Vec<Vec<Cost>>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let mut off = vec![0usize; centers.len() + 1];
        for &c in whole {
            off[center_slot[c as usize] as usize + 1] = n;
        }
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
        for (&c, column) in whole.iter().zip(columns) {
            let base = off[center_slot[c as usize] as usize];
            for (v, dist) in column.into_iter().enumerate() {
                items[base + v] = (v as u32, dist);
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

    /// Explicit whole-graph trees per center rank: entry `l` counts the
    /// distinct rank-`l` centers with a whole-graph region
    /// `E(u, i) = V`, each of which has the tree `T(c) = V`. Read off
    /// the plans, the decomposition and the hierarchy, so a loaded
    /// scheme answers it too.
    pub fn whole_graph_trees(&self) -> Vec<usize> {
        let mut per_rank = vec![0; self.params.k];
        for c in whole_graph_centers(&self.dec, &self.plans) {
            per_rank[self.hier.rank(NodeId(c))] += 1;
        }
        per_rank
    }

    /// Route a message (§3.7): phases `i = 0..k`, each using the dense
    /// or sparse strategy of level `i`, until the destination is found.
    pub fn route_message(&self, src: NodeId, dst: NodeId) -> RouteTrace {
        if src == dst {
            return RouteTrace::trivial(src);
        }
        // lint:allow(no-alloc-in-route): the returned RouteTrace owns its path; one Vec per route is the API
        let mut path = Vec::with_capacity(treeroute::PATH_CAPACITY);
        path.push(src);
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
        // A scale with no cover (a stale plan, e.g. after a degraded
        // repair) degrades to "not found at this level" rather than
        // panicking: it must cost an undelivered route, not the serving
        // thread.
        let Some(sc) = self.scale_cover(plan.a) else { return false };
        let outcome = sc.route(src, dst, path);
        *cost += outcome.cost();
        outcome.is_found()
    }

    /// The cover of dense scale `s`, if the scheme has one.
    fn scale_cover(&self, s: u32) -> Option<&CoverScale> {
        let at = self.scale_covers.binary_search_by_key(&s, |&(scale, _)| scale).ok()?;
        self.scale_covers.get(at).map(|(_, sc)| sc)
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
        // A missing or unreadable center tree (a corrupt lazily loaded
        // record) degrades to "not found at this level":
        // the caller falls through to the next level and ultimately
        // reports an undelivered route — never a panicked serving thread.
        self.center_store
            .with_tree(plan.center, |ert| sparse_walk(ert, src, dst, plan, path, cost))
            .unwrap_or(false)
    }

    /// Evaluate this scheme over `pairs` with the parallel engine
    /// (`threads` = 0 → available parallelism), against any
    /// [`GroundTruth`] — a dense matrix on small instances or an
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
    /// landmark component was accumulated during the fused build and
    /// the cover component when the covers were built or loaded, so
    /// this never touches the center store or a cover tree — a lazily
    /// loaded scheme accounts its storage without a single disk read.
    pub fn storage_breakdown(&self, v: NodeId) -> StorageBreakdown {
        let n = self.g.n();
        let id = bits_for_node(n);
        StorageBreakdown {
            // Plans: dense flag + range + center + b per level.
            plans_bits: self.params.k as u64
                * (1 + bits_for_universe(self.dec.log_delta() as u64 + 1)
                    + id
                    + bits_for_universe(self.params.k as u64 + 1)),
            landmark_bits: self.landmark_bits[v.idx()],
            cover_bits: self.cover_bits[v.idx()],
        }
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
    /// O(log² n) total. (Both label maxima were recorded when the
    /// trees were built or loaded.)
    pub fn header_bits_bound(&self) -> u64 {
        let n = self.g.n();
        let id = bits_for_node(n);
        let phase = bits_for_universe(self.params.k as u64 + 1);
        let max_label = self.max_center_label_bits.max(self.max_cover_label_bits);
        id + 2 * phase + 2 * max_label
    }
}

/// The sorted, distinct centers of whole-graph regions: every sparse
/// `(u, i)` with `E(u, i) = V` ([`Decomposition::e_is_global`]). Each
/// gets the explicit tree `T(c) = V`, which satisfies Lemma 3 for every
/// region on `c` without asking any S set for a slot.
fn whole_graph_centers(dec: &Decomposition, plans: &[Vec<LevelPlan>]) -> Vec<u32> {
    let mut whole: Vec<u32> = Vec::new();
    for (u, row) in plans.iter().enumerate() {
        for (i, plan) in row.iter().enumerate() {
            if !plan.dense && dec.e_is_global(NodeId(u as u32), i) {
                whole.push(plan.center);
            }
        }
    }
    whole.sort_unstable();
    whole.dedup();
    whole
}

/// Effective dense/sparse classification of level `i` (force-mode
/// aware).
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
/// the plans; a 0 `b` leaves the plan as prepared.
fn set_plan_fills(plans: &mut [Vec<LevelPlan>], fills: &[(u8, u32)], k: usize) {
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

/// Phase wall-clock bookkeeping behind [`BuildStats::phase_seconds`].
pub(crate) struct PhaseClock {
    started: std::time::Instant,
    prev: f64,
    laps: Vec<(String, f64)>,
}

impl PhaseClock {
    pub(crate) fn start() -> Self {
        PhaseClock { started: std::time::Instant::now(), prev: 0.0, laps: Vec::new() }
    }

    fn lap(&mut self, name: &str) {
        let t = self.started.elapsed().as_secs_f64();
        self.laps.push((name.to_string(), t - self.prev));
        self.prev = t;
    }

    fn finish(self) -> Vec<(String, f64)> {
        self.laps
    }
}

/// The prefix every assembly starts from, computed on the graph being
/// assembled: the exact diameter seeds the decomposition and the
/// Claims-1/2-verified landmark hierarchy with its landmark columns.
pub(crate) struct Parts {
    dec: Decomposition,
    hier: LandmarkHierarchy,
    ld: LandmarkDistances,
}

impl Parts {
    pub(crate) fn compute(g: &Graph, params: &SchemeParams) -> Self {
        let diameter = graphkit::diameter_matrix_free(g);
        let dec = Decomposition::build_on_demand_with_diameter(g, params.k, diameter);
        let (hier, ld) = LandmarkHierarchy::sample_verified_on_demand(
            g,
            params.k,
            params.seed,
            params.landmark_attempts,
            diameter,
        );
        Parts { dec, hier, ld }
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
    /// Per-level S budgets (for [`BuildStats::s_budgets`]).
    pub(crate) s_budgets: Vec<usize>,
}

/// What the later passes read off a set of finished center trees,
/// fresh or kept: the b-pass index per center, per-node landmark
/// storage bits, and the largest routing label.
struct TreeIndex {
    bix: HashMap<u32, BuildIndex>,
    lm_bits: Vec<u64>,
    max_label: u64,
}

impl TreeIndex {
    fn new(n: usize) -> Self {
        TreeIndex { bix: HashMap::new(), lm_bits: vec![0; n], max_label: 0 }
    }

    /// The per-tree pass on center `c`'s tree, just built or read in
    /// place from its record: its b-pass index, each node's storage bits
    /// (root id + τ) and its largest routing label.
    fn add(&mut self, c: u32, ert: &impl ErtRead, id_bits: u64) {
        let tree = ert.labeled();
        let size = tree.size();
        let naming = Naming::new(size, ert.sigma());
        // Lemma-4 distance ranks: members in (depth, host id) order. Every
        // parent precedes its child, so one forward pass finds the depths.
        let mut depths: Vec<Cost> = Vec::with_capacity(size);
        let mut by_rank: Vec<(Cost, u32, u32)> = Vec::with_capacity(size);
        for ix in 0..size as u32 {
            let above = tree.parent(ix).and_then(|p| depths.get(p as usize).copied());
            let depth = above.map_or(0, |d| d.saturating_add(tree.parent_weight(ix)));
            depths.push(depth);
            let gid = tree.host(ix).unwrap_or(u32::MAX);
            by_rank.push((depth, gid, ix));
            // Stored records name only graph nodes (see `center_store`);
            // the checked index keeps a host id from indexing past n.
            if let Some(acc) = self.lm_bits.get_mut(gid as usize) {
                *acc += id_bits + ert.node_bits(ix);
            }
            self.max_label = self.max_label.max(tree.label_bits(ix));
        }
        by_rank.sort_unstable();
        let mut members: Vec<(u32, u32, u8)> = by_rank
            .iter()
            .enumerate()
            .map(|(rank, &(_, gid, ix))| {
                (gid, ix, naming.level_of_rank(rank).clamp(1, u8::MAX as usize) as u8)
            })
            .collect();
        let max_search_level = members.iter().map(|&(_, _, lvl)| lvl).max().unwrap_or(1);
        members.sort_unstable();
        self.bix.insert(c, BuildIndex { members, max_search_level });
    }

    /// Fold shards in: entries keyed by center, elementwise bit sums and
    /// a max, so shard order is immaterial.
    fn merge(&mut self, shards: Vec<TreeIndex>) {
        for shard in shards {
            self.bix.extend(shard.bix);
            for (acc, add) in self.lm_bits.iter_mut().zip(&shard.lm_bits) {
                *acc += add;
            }
            self.max_label = self.max_label.max(shard.max_label);
        }
    }
}

/// The fused per-center pipeline over an explicit job list: bounded
/// Dijkstra → tree extraction against reusable scratch → Lemma 4
/// scheme → storage accounting → wire record. Each tree is encoded the
/// moment it is finished and the owned scheme dropped, so nothing
/// tree-sized survives the pass beyond the record bytes routing reads
/// and the b-pass index. A build passes every center; a repair passes
/// only the ones whose trees it does not keep.
fn build_center_trees(
    g: &Graph,
    params: &SchemeParams,
    jobs: &[(u32, &[(u32, Cost)])],
) -> (Records, TreeIndex) {
    let n = g.n();
    let k = params.k;
    let sigma = graphkit::ids::nth_root_ceil(n as u64, k as u32).max(2);
    let id_bits = bits_for_node(n);
    // merge: records concatenated (the store sorts them by center),
    // plus TreeIndex::merge — shard order immaterial.
    let shards = graphkit::metrics::par_chunks(jobs.len(), |range| {
        let mut scratch = DijkstraScratch::new(n);
        let mut tscratch = TreeScratch::new(n);
        let mut records = Vec::with_capacity(range.len());
        let mut index = TreeIndex::new(n);
        for &(c, mem) in jobs.get(range).unwrap_or_default() {
            let radius = mem.iter().map(|&(_, dist)| dist).max().unwrap_or(0);
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
            index.add(c, &ert, id_bits);
            records.push((c, center_store::encode(&ert)));
        }
        (records, index)
    });
    let (records, indexes): (Vec<_>, Vec<_>) = shards.into_iter().unzip();
    let mut index = TreeIndex::new(n);
    index.merge(indexes);
    (records.into_iter().flatten().collect(), index)
}

/// All cover trees of one dense scale `s`: the AGM cover of the
/// extended-range member set `V_s`, built in the host graph, with one
/// Lemma 7 router per tree. Deterministic in `(g, dec, params, s)`, so
/// a repair, which builds every scale, gets the fresh build's covers.
fn build_scale_cover(g: &Graph, dec: &Decomposition, params: &SchemeParams, s: u32) -> CoverScale {
    let n = g.n();
    let k = params.k;
    let sigma = graphkit::ids::nth_root_ceil(n as u64, k as u32).max(2);
    let inside: Vec<bool> = (0..n as u32).map(|v| dec.in_extended_range(NodeId(v), s)).collect();
    let cover = covers::build_cover_within(g, &inside, k, octave_radius(s));
    CoverScale::new(cover.trees, cover.home, sigma, params.seed, s)
}

/// Per-node cover storage bits — the home-root id plus `φ(T, v)` for
/// every cover tree `T` containing `v`, over every scale — and the
/// largest cover-tree routing label (header accounting).
pub(crate) fn cover_accounting(scale_covers: &[(u32, CoverScale)], n: usize) -> (Vec<u64>, u64) {
    let id = bits_for_node(n);
    let mut bits = vec![0u64; n];
    for (_, sc) in scale_covers {
        sc.add_node_bits(&mut bits, id);
    }
    let max_label = scale_covers.iter().map(|(_, sc)| sc.max_label_bits()).max().unwrap_or(0);
    (bits, max_label)
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
