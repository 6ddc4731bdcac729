//! Oracle for the S requirement table. [`Scheme::s_requirements`] folds
//! each (node, level)'s farthest key `(d(v, c), c)` and takes one
//! position per (node, level), relying on `pos(v, l, c)` being monotone
//! in that key. The oracle instead takes `pos(v, rank(c), c)` for every
//! member of every region that asks, straight from its definition over
//! the dense matrix, then max + 1 + [`S_MARGIN`]. A center with a
//! whole-graph region has the explicit tree `T(c) = V`, so that region
//! and every other region on the same center ask nothing. The regions
//! and centers the oracle reads come from the matrix too, and the
//! build's own are checked against them. Each level's budget is the max
//! of the table over all nodes, capped at the paper's budget, and the
//! oracle derives every tree's members from those budgets by the same
//! definition.
//!
//! The same oracle with no whole-graph centers is the rule where every
//! region asks (`T(c) = V` only through the S budgets); its memberships
//! are the reference for the no-tree-grows invariant: every built tree
//! is a subset of that rule's tree. The k = 2 instances all have a
//! rank-0 center whose region is the whole graph — the case that made
//! the level-0 budget pay for it under that rule.

use decomposition::Decomposition;
use graphkit::gen::{erdos_renyi, random_tree, WeightDist};
use graphkit::metrics::apsp;
use graphkit::{DistMatrix, Graph, NodeId};
use landmarks::{LandmarkDistances, LandmarkHierarchy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::scheme::{EScope, LevelPlan, PhaseClock, S_MARGIN};
use crate::{Scheme, SchemeParams};

/// `pos(v, l, c)` by definition: the members of `C_l` whose key
/// `(d(v, ·), id)` lies strictly below `(d(v, c), c)`.
fn pos(d: &DistMatrix, hier: &LandmarkHierarchy, v: u32, l: usize, c: u32) -> usize {
    let key = (d.d(NodeId(v), NodeId(c)), c);
    hier.level(l).iter().filter(|&&w| (d.d(NodeId(v), NodeId(w)), w) < key).count()
}

/// Per-(u, i) regions `E(u, i)` read off the matrix rows (`None` for a
/// dense level).
fn matrix_scopes(d: &DistMatrix, dec: &Decomposition, k: usize) -> Vec<Vec<Option<EScope>>> {
    (0..d.n() as u32)
        .map(NodeId)
        .map(|u| {
            (0..k)
                .map(|i| {
                    if dec.is_dense(u, i) {
                        None
                    } else if dec.e_is_global(u, i) {
                        Some(EScope::Global)
                    } else {
                        let radius = dec.e_radius(u, i);
                        let row = d.row(u).iter().enumerate();
                        Some(EScope::Local(
                            row.filter(|&(_, &dist)| dist <= radius)
                                .map(|(v, &dist)| (v as u32, dist))
                                .collect(),
                        ))
                    }
                })
                .collect()
        })
        .collect()
}

/// The sorted, distinct centers of the whole-graph regions in `scopes`.
fn whole_centers(plans: &[Vec<LevelPlan>], scopes: &[Vec<Option<EScope>>]) -> Vec<u32> {
    let mut whole: Vec<u32> = scopes
        .iter()
        .zip(plans)
        .flat_map(|(row, prow)| row.iter().zip(prow))
        .filter(|(s, _)| matches!(s, Some(EScope::Global)))
        .map(|(_, p)| p.center)
        .collect();
    whole.sort_unstable();
    whole.dedup();
    whole
}

/// The requirement table, brute force over every member of every region
/// whose center is not in `whole`.
fn oracle(
    d: &DistMatrix,
    hier: &LandmarkHierarchy,
    plans: &[Vec<LevelPlan>],
    scopes: &[Vec<Option<EScope>>],
    whole: &[u32],
    k: usize,
) -> Vec<u32> {
    let n = d.n();
    let mut raw = vec![0u32; n * k];
    for (u, row) in scopes.iter().enumerate() {
        for (i, scope) in row.iter().enumerate() {
            let c = plans[u][i].center;
            if whole.contains(&c) {
                continue;
            }
            let members: Vec<u32> = match scope {
                None => continue,
                Some(EScope::Global) => (0..n as u32).collect(),
                Some(EScope::Local(list)) => list.iter().map(|&(v, _)| v).collect(),
            };
            let l = hier.rank(NodeId(c));
            for v in members {
                let need = pos(d, hier, v, l, c) as u32 + 1 + S_MARGIN;
                let slot = &mut raw[v as usize * k + l];
                *slot = (*slot).max(need);
            }
        }
    }
    raw
}

/// Level `l`'s budget under the `n × k` table `raw`: its max over all
/// nodes, at least 1 and at most the paper's budget.
fn level_budget(raw: &[u32], hier: &LandmarkHierarchy, l: usize) -> usize {
    let k = hier.k();
    (0..hier.n()).map(|v| (raw[v * k + l] as usize).max(1).min(hier.s_budget())).max().unwrap_or(1)
}

/// Memberships `(v, d(v, c))` of `c`'s tree under the table `raw`: all
/// of V for a center in `whole`, otherwise every `v` with `c` among the
/// first `level_budget(raw, rank(c))` entries of its sorted
/// `C_rank(c)`.
fn tree_of(
    d: &DistMatrix,
    hier: &LandmarkHierarchy,
    raw: &[u32],
    whole: &[u32],
    c: u32,
) -> Vec<(u32, u64)> {
    let l = hier.rank(NodeId(c));
    let budget = level_budget(raw, hier, l);
    (0..d.n() as u32)
        .filter(|&v| whole.contains(&c) || pos(d, hier, v, l, c) < budget)
        .map(|v| (v, d.d(NodeId(v), NodeId(c))))
        .collect()
}

/// Sparse random graphs with power-of-two weights (Δ up to 2³⁰), the
/// shape of the on-demand parity proptests.
fn instance(n: usize, seed: u64, wexp: u32) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let w = WeightDist::PowerOfTwo { max_exp: wexp };
    if n >= 30 {
        erdos_renyi(n, 0.08, w, &mut rng)
    } else {
        random_tree(n, w, &mut rng)
    }
}

/// What one instance's check measured.
struct Checked {
    /// Some sparse (u, i) has a rank-0 center and `E(u, i) = V`.
    rank0_whole: bool,
    /// Total memberships of the built trees.
    members: usize,
    /// Total memberships when every region asks.
    members_if_every_region_asks: usize,
}

/// Check the build's regions and centers against the matrix, its
/// requirement table against the oracle, the level budgets and
/// memberships `prepare` derives from it, and that no tree is larger
/// than under the rule where every region asks.
fn check(g: &Graph, k: usize, seed: u64) -> Checked {
    let d = apsp(g);
    assert!(d.connected());
    let params = SchemeParams::new(k, seed);
    let Scheme { dec, hier, plans, stats, .. } = Scheme::build_on_demand(g.clone(), params);
    assert_eq!(stats.lemma3_violations, 0, "Lemma 3 violations");
    let scopes = matrix_scopes(&d, &dec, k);
    assert_eq!(Scheme::on_demand_scopes(g, &dec, &params), scopes, "regions differ from the rows");
    for (u, row) in scopes.iter().enumerate() {
        let u_id = NodeId(u as u32);
        for i in (0..k).filter(|&i| row[i].is_some()) {
            let c = hier.center(&d, u_id, dec.ball_radius(u_id, i));
            assert_eq!(plans[u][i].center, c.0, "center of ({u}, {i})");
        }
    }
    let whole = whole_centers(&plans, &scopes);
    let want = oracle(&d, &hier, &plans, &scopes, &whole, k);
    let ld = LandmarkDistances::build(g, &hier);
    let got = Scheme::s_requirements(g, &params, &hier, &ld, &plans, &scopes, &whole);
    assert_eq!(got, want, "requirement table differs from the oracle");
    let prep = Scheme::prepare(g, &params, &dec, &hier, &ld, &scopes, &mut PhaseClock::start());
    for l in 0..k {
        assert_eq!(prep.s_budgets[l], level_budget(&want, &hier, l), "level {l} budget");
    }
    let every = oracle(&d, &hier, &plans, &scopes, &[], k);
    let mut members_if_every_region_asks = 0;
    for (ci, &c) in prep.centers.iter().enumerate() {
        let built = prep.members.members(ci);
        assert_eq!(built, &tree_of(&d, &hier, &want, &whole, c)[..], "members of center {c}");
        // No tree grows: every member is one the center's tree has
        // when every region asks.
        let reference = tree_of(&d, &hier, &every, &[], c);
        assert!(
            built.iter().all(|m| reference.binary_search(m).is_ok()),
            "T({c}) holds a node that it lacks when every region asks"
        );
        members_if_every_region_asks += reference.len();
    }
    let rank0_whole = whole.iter().any(|&c| hier.rank(NodeId(c)) == 0);
    Checked { rank0_whole, members: prep.members.items.len(), members_if_every_region_asks }
}

#[test]
fn requirement_table_matches_oracle_with_rank0_whole_graph_scopes() {
    for (n, seed, wexp) in [(24, 1, 20), (24, 13, 20), (40, 2, 24), (40, 4, 24), (50, 0, 30)] {
        let c = check(&instance(n, seed, wexp), 2, seed ^ 0xABCD);
        assert!(c.rank0_whole, "n={n} seed={seed}: no rank-0 whole-graph scope");
        assert!(
            c.members < c.members_if_every_region_asks,
            "n={n} seed={seed}: {} memberships, {} when every region asks",
            c.members,
            c.members_if_every_region_asks
        );
    }
}

#[test]
fn requirement_table_matches_oracle_at_k3() {
    for (n, seed, wexp) in [(40, 3, 24), (60, 5, 28), (80, 7, 30)] {
        check(&instance(n, seed, wexp), 3, seed ^ 0xABCD);
    }
}

/// `Scheme::whole_graph_trees` counts, per center rank, the distinct
/// centers of the matrix's whole-graph regions — on the built scheme
/// and on the same scheme loaded back from a snapshot.
#[test]
fn whole_graph_trees_match_matrix_scopes() {
    let (k, seed) = (2, 2 ^ 0xABCD);
    let g = instance(40, 2, 24);
    let d = apsp(&g);
    let scheme = Scheme::build_on_demand(g, SchemeParams::new(k, seed));
    let scopes = matrix_scopes(&d, &scheme.dec, k);
    let mut want = vec![0; k];
    for c in whole_centers(&scheme.plans, &scopes) {
        want[scheme.hier.rank(NodeId(c))] += 1;
    }
    assert!(want[0] > 0, "the instance has a rank-0 whole-graph region");
    assert_eq!(scheme.whole_graph_trees(), want);
    let path =
        std::env::temp_dir().join(format!("agm-whole-graph-trees-{}.bin", std::process::id()));
    scheme.save(&path).expect("save");
    let loaded = Scheme::load(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.expect("load").whole_graph_trees(), want, "loaded scheme");
}
