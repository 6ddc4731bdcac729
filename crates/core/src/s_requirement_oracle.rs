//! Oracle for the S requirement table. [`Scheme::s_requirements`] folds
//! each (node, level)'s farthest key `(d(v, c), c)` and takes one
//! position per (node, level), relying on `pos(v, l, c)` being monotone
//! in that key. The oracle instead takes `pos(v, rank(c), c)` for every
//! member of every sparse region, straight from its definition over the
//! dense matrix, then max + 1 + margin. The instances all have a rank-0
//! center whose region is the whole graph — the case that costs a full
//! Dijkstra and whose level-0 positions come from bounded runs.

use graphkit::gen::{erdos_renyi, random_tree, WeightDist};
use graphkit::metrics::apsp;
use graphkit::{DistMatrix, Graph, NodeId};
use landmarks::{LandmarkDistances, LandmarkHierarchy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::scheme::{BuildSource, EScope, LevelPlan, PhaseClock};
use crate::{SBudgetMode, Scheme, SchemeParams};

/// `pos(v, l, c)` by definition: the members of `C_l` whose key
/// `(d(v, ·), id)` lies strictly below `(d(v, c), c)`.
fn pos(d: &DistMatrix, hier: &LandmarkHierarchy, v: u32, l: usize, c: u32) -> usize {
    let key = (d.d(NodeId(v), NodeId(c)), c);
    hier.level(l).iter().filter(|&&w| (d.d(NodeId(v), NodeId(w)), w) < key).count()
}

/// The requirement table, brute force over every region member.
fn oracle(
    d: &DistMatrix,
    hier: &LandmarkHierarchy,
    plans: &[Vec<LevelPlan>],
    scopes: &[Vec<Option<EScope>>],
    k: usize,
    margin: usize,
) -> Vec<u32> {
    let n = d.n();
    let mut raw = vec![0u32; n * k];
    for (u, row) in scopes.iter().enumerate() {
        for (i, scope) in row.iter().enumerate() {
            let members: Vec<u32> = match scope {
                None => continue,
                Some(EScope::Global) => (0..n as u32).collect(),
                Some(EScope::Local(list)) => list.iter().map(|&(v, _)| v).collect(),
            };
            let c = plans[u][i].center;
            let l = hier.rank(NodeId(c));
            for v in members {
                let need = (pos(d, hier, v, l, c) + 1 + margin) as u32;
                let slot = &mut raw[v as usize * k + l];
                *slot = (*slot).max(need);
            }
        }
    }
    raw
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

/// Does some sparse (u, i) have a rank-0 center and `E(u, i) = V`?
fn has_rank0_global(
    hier: &LandmarkHierarchy,
    plans: &[Vec<LevelPlan>],
    scopes: &[Vec<Option<EScope>>],
) -> bool {
    scopes.iter().zip(plans).any(|(row, prow)| {
        row.iter()
            .zip(prow)
            .any(|(s, p)| matches!(s, Some(EScope::Global)) && hier.rank(NodeId(p.center)) == 0)
    })
}

/// Check both sources' requirement tables against the oracle, and the
/// per-node budgets and memberships `prepare` derives from them.
/// Returns whether the instance has a rank-0 whole-graph scope.
fn check(g: &Graph, k: usize, seed: u64) -> bool {
    let n = g.n();
    let d = apsp(g);
    assert!(d.connected());
    let params = SchemeParams::new(k, seed).with_s_budget_mode(SBudgetMode::PerNode);
    let Scheme { dec, hier, plans, .. } = Scheme::build_with_matrix(g.clone(), &d, params);
    let dense_scopes = Scheme::dense_scopes(g, &d, &dec, &params);
    let want = oracle(&d, &hier, &plans, &dense_scopes, k, params.s_margin);
    let paper = hier.s_budget();
    let budget = |v: usize, l: usize| (want[v * k + l] as usize).max(1).min(paper);
    let sources = [
        (BuildSource::dense(&d, &hier, k), dense_scopes),
        (
            BuildSource::OnDemand { ld: LandmarkDistances::build(g, &hier) },
            Scheme::on_demand_scopes(g, &dec, &params, n),
        ),
    ];
    for (src, scopes) in &sources {
        let got = Scheme::s_requirements(g, &params, &hier, src, &plans, scopes);
        assert_eq!(got, want, "requirement table differs from the oracle");
        let prep = Scheme::prepare(g, &params, &dec, &hier, src, scopes, &mut PhaseClock::start());
        for l in 0..k {
            let level_max = (0..n).map(|v| budget(v, l)).max().unwrap_or(1);
            assert_eq!(prep.s_budgets[l], level_max, "level {l} budget");
        }
        // PerNode: c ∈ S(v) iff c is among the first budget(v, rank(c))
        // entries of v's sorted C_rank(c).
        for (ci, &c) in prep.centers.iter().enumerate() {
            let l = hier.rank(NodeId(c));
            let members: Vec<(u32, u64)> = (0..n as u32)
                .filter(|&v| pos(&d, &hier, v, l, c) < budget(v as usize, l))
                .map(|v| (v, d.d(NodeId(v), NodeId(c))))
                .collect();
            assert_eq!(prep.members.members(ci), &members[..], "members of center {c}");
        }
    }
    has_rank0_global(&hier, &plans, &sources[0].1)
}

#[test]
fn requirement_table_matches_oracle_with_rank0_whole_graph_scopes() {
    for (n, seed, wexp) in [(24, 1, 20), (24, 13, 20), (40, 2, 24), (40, 4, 24), (50, 0, 30)] {
        let g = instance(n, seed, wexp);
        assert!(check(&g, 2, seed ^ 0xABCD), "n={n} seed={seed}: no rank-0 whole-graph scope");
    }
}

#[test]
fn requirement_table_matches_oracle_at_k3() {
    for (n, seed, wexp) in [(40, 3, 24), (60, 5, 28), (80, 7, 30)] {
        check(&instance(n, seed, wexp), 3, seed ^ 0xABCD);
    }
}
