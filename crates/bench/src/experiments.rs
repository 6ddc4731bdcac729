//! The experiment implementations. Each function regenerates one
//! table/figure of the paper (see DESIGN.md §3 for the index and
//! EXPERIMENTS.md for recorded output + interpretation).

use graphkit::gen::{self, Family, WeightDist};
use graphkit::ids::ceil_log2;
use graphkit::metrics::apsp;
use graphkit::OnDemandTruth;
use graphkit::{dijkstra, Graph, NodeId, Tree};
use landmarks::claims;
use landmarks::LandmarkHierarchy;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::bench_record::{self, TopicRecord};
use routing_core::churn::{run_churn, ChurnConfig, ChurnPlan};
use routing_core::{ForceMode, RepairOutcome, Scheme, SchemeParams};
use sim::{evaluate_parallel, evaluate_parallel_lenient, pairs, Router, StorageAudit};
use treeroute::cover_router::CoverTreeRouter;
use treeroute::labeled::{LabeledRead, LabeledTree};
use treeroute::laing::{ErrorReportingTree, ErtRead, SearchOutcome};

use crate::table::{bits, bitsf, f, Table};
use crate::RunConfig;

fn spanning_tree(g: &Graph, root: NodeId) -> Tree {
    let sp = dijkstra::dijkstra(g, root);
    Tree::from_sssp(g, &sp, g.nodes())
}

fn pair_workload(n: usize, cfg: &RunConfig, quick: bool) -> Vec<(NodeId, NodeId)> {
    let all = n * n.saturating_sub(1);
    let budget = cfg.pairs_sampled.unwrap_or(if quick { 2000 } else { 20_000 });
    if all <= budget {
        pairs::all(n)
    } else {
        pairs::sample(n, budget, 0xbead)
    }
}

// ---------------------------------------------------------------------
// T1 — Theorem 1: stretch & storage vs k
// ---------------------------------------------------------------------

/// For each family × n × k: measured stretch (max/mean), measured bits
/// per node (mean/max), and the Theorem 1 bound. The *shape* claims:
/// max stretch grows linearly in k; storage falls as k grows.
pub fn t1(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let mut t = Table::new(
        "T1 — Theorem 1: stretch and storage vs k",
        &[
            "family",
            "n",
            "k",
            "max-stretch",
            "mean-stretch",
            "O(k) bound 12k",
            "mean bits/node",
            "max bits/node",
            "thm1 bound",
        ],
    );
    let sizes: &[usize] = if quick { &[128] } else { &[128, 256, 512, 1024] };
    let ks: &[usize] = if quick { &[2, 3] } else { &[1, 2, 3, 4] };
    for &fam in &[Family::ErdosRenyi, Family::Geometric, Family::Grid, Family::ExpRing] {
        for &n in sizes {
            let g = fam.generate(n, 1000 + n as u64);
            let d = apsp(&g);
            for &k in ks {
                if k == 1 && n > 128 {
                    continue; // k=1 tables are Θ(n²) overall; keep it small
                }
                if k == 2 && n > 512 {
                    continue; // k=2 S-budgets scale with n^{2/2}=n; cap the sweep
                }
                let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 77));
                let stats = evaluate_parallel(
                    &g,
                    &d,
                    &scheme,
                    &pair_workload(g.n(), cfg, quick),
                    cfg.threads,
                );
                let audit = StorageAudit::collect(&scheme, g.n());
                t.row(vec![
                    fam.label().into(),
                    g.n().to_string(),
                    k.to_string(),
                    f(stats.max_stretch),
                    f(stats.mean_stretch),
                    (12 * k).to_string(),
                    bitsf(audit.mean_bits()),
                    bits(audit.max_bits()),
                    bitsf(scheme.theorem1_bound()),
                ]);
            }
        }
    }
    t.note("Expected shape: max-stretch grows ~linearly in k and stays far below the");
    t.note("12k envelope; storage falls with k and sits far below the Theorem 1 bound");
    t.note("(the bound's constants dwarf laptop-scale n; see EXPERIMENTS.md).");
    t.render()
}

// ---------------------------------------------------------------------
// T2 — storage breakdown
// ---------------------------------------------------------------------

/// Attribution of the per-node bits to plan / landmark-tree /
/// cover-tree components, per family at fixed n, k.
pub fn t2(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 128 } else { 256 };
    let k = 3;
    let mut t = Table::new(
        format!("T2 — storage breakdown by component (n={n}, k={k})"),
        &[
            "family",
            "plans (mean)",
            "landmark trees (mean)",
            "cover trees (mean)",
            "total (mean)",
            "total (max)",
        ],
    );
    for &fam in &[Family::ErdosRenyi, Family::Geometric, Family::ExpRing] {
        let g = fam.generate(n, 2000);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 78));
        let mut plans = 0u64;
        let mut lmk = 0u64;
        let mut cov = 0u64;
        let mut max_total = 0u64;
        for v in g.nodes() {
            let b = scheme.storage_breakdown(v);
            plans += b.plans_bits;
            lmk += b.landmark_bits;
            cov += b.cover_bits;
            max_total = max_total.max(b.total());
        }
        let nn = g.n() as f64;
        t.row(vec![
            fam.label().into(),
            bitsf(plans as f64 / nn),
            bitsf(lmk as f64 / nn),
            bitsf(cov as f64 / nn),
            bitsf((plans + lmk + cov) as f64 / nn),
            bits(max_total),
        ]);
    }
    t.note("Sparse families (exp-ring) shift weight to landmark trees; dense families");
    t.note("(erdos-renyi) to cover trees — the decomposition splitting as designed.");
    t.render()
}

// ---------------------------------------------------------------------
// F1 — Lemma 2 (dense neighborhoods, paper Figure 1)
// ---------------------------------------------------------------------

/// Verify `a(u,i) ∈ R(v)` for every dense level and `v ∈ F(u,i)`, and
/// report `max |R(u)|` against the `6(k+1)` bound.
pub fn f1(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 100 } else { 256 };
    let mut t = Table::new(
        format!("F1 — Lemma 2: dense neighborhoods (n={n})"),
        &["family", "k", "triples checked", "violations", "max |R(u)|", "bound 6(k+1)"],
    );
    for &fam in &[Family::ErdosRenyi, Family::Geometric, Family::Grid, Family::ExpRing] {
        for k in [2usize, 3] {
            let g = fam.generate(n, 3000);
            let d = apsp(&g);
            let dec = decomposition::Decomposition::build(&d, k);
            let rep = decomposition::verify_lemma2(&d, &dec);
            t.row(vec![
                fam.label().into(),
                k.to_string(),
                rep.checked.to_string(),
                rep.violations.to_string(),
                rep.max_extended_range.to_string(),
                (6 * (k + 1)).to_string(),
            ]);
        }
    }
    t.note("Violations must be 0 (Lemma 2 is unconditional); |R(u)| stays O(k) even at");
    t.note("aspect ratio 2^40 — the scale-free mechanism (paper Figure 1's invariant).");
    t.render()
}

// ---------------------------------------------------------------------
// F2 — Lemma 3 (sparse neighborhoods, paper Figure 2)
// ---------------------------------------------------------------------

/// Verify `c(u,i) ∈ S(v)` for every sparse level and `v ∈ E(u,i)` —
/// measured through the scheme build, which counts exactly these
/// membership triples — and report the instance-tuned S budgets.
pub fn f2(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 100 } else { 256 };
    let mut t = Table::new(
        format!("F2 — Lemma 3: sparse neighborhoods (n={n})"),
        &[
            "family",
            "k",
            "triples checked",
            "violations",
            "tuned S budgets",
            "paper budget 16n^(2/k)ln n",
        ],
    );
    for &fam in &[Family::Geometric, Family::Ring, Family::ExpRing, Family::ExpTree] {
        for k in [2usize, 3] {
            let g = fam.generate(n, 4000);
            let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 79));
            let st = scheme.stats();
            t.row(vec![
                fam.label().into(),
                k.to_string(),
                st.lemma3_checked.to_string(),
                st.lemma3_violations.to_string(),
                format!("{:?}", st.s_budgets),
                scheme.hierarchy().s_budget().to_string(),
            ]);
        }
    }
    t.note("Violations must be 0; the tuned budgets show how far below the paper's");
    t.note("worst-case 16·n^{2/k}·ln n the instances actually sit (Figure 2's invariant).");
    t.render()
}

// ---------------------------------------------------------------------
// C1 / C2 — the landmark claims
// ---------------------------------------------------------------------

/// Claim 1: every large-enough ball intersects C_j.
pub fn c1(cfg: &RunConfig) -> String {
    claims_table(cfg.quick, true)
}

/// Claim 2: small balls contain few C_j members.
pub fn c2(cfg: &RunConfig) -> String {
    claims_table(cfg.quick, false)
}

fn claims_table(quick: bool, first: bool) -> String {
    let n = if quick { 128 } else { 400 };
    let title = if first {
        format!("C1 — Claim 1: landmark hitting over all balls B(u,2^i) (n={n})")
    } else {
        format!("C2 — Claim 2: landmark sparsity over all balls B(u,2^i) (n={n})")
    };
    let headers: &[&str] = if first {
        &["family", "k", "(ball,level) pairs", "violations"]
    } else {
        &["family", "k", "(ball,level) pairs", "violations", "max |B∩C_j|", "bound 16n^(2/k)ln n"]
    };
    let mut t = Table::new(title, headers);
    for &fam in &[Family::ErdosRenyi, Family::Geometric, Family::Ring, Family::ExpRing] {
        for k in [2usize, 3, 4] {
            let g = fam.generate(n, 5000);
            let d = apsp(&g);
            let h = LandmarkHierarchy::sample_verified(&d, k, 80, 16);
            let rep = claims::verify_claims(&d, &h);
            let row = if first {
                vec![
                    fam.label().into(),
                    k.to_string(),
                    rep.claim1_checked.to_string(),
                    rep.claim1_violations.to_string(),
                ]
            } else {
                vec![
                    fam.label().into(),
                    k.to_string(),
                    rep.claim2_checked.to_string(),
                    rep.claim2_violations.to_string(),
                    rep.max_c2_load.to_string(),
                    f(rep.c2_bound),
                ]
            };
            t.row(row);
        }
    }
    t.note("Verified hierarchies: violations must be 0 (re-seeded on failure, which the");
    t.note("paper's w.h.p. analysis predicts is rare).");
    t.render()
}

// ---------------------------------------------------------------------
// L4 — Lemma 4: j-bounded searches
// ---------------------------------------------------------------------

/// For each tree shape and search bound j: hits obey stretch ≤ 2j−1,
/// misses return to the root within (2j−2)·maxdepth(V_{j−1}).
pub fn l4(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 200 } else { 800 };
    let k = 3;
    let mut t = Table::new(
        format!("L4 — Lemma 4: j-bounded searches on {n}-node trees (k={k})"),
        &[
            "tree",
            "j",
            "hits",
            "max hit stretch",
            "bound 2j-1",
            "misses",
            "max miss cost ratio",
            "storage max bits",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(90);
    let shapes: Vec<(&str, Graph)> = vec![
        ("random", gen::random_tree(n, WeightDist::UniformInt { lo: 1, hi: 16 }, &mut rng)),
        (
            "caterpillar",
            gen::caterpillar(n / 6, 5, WeightDist::UniformInt { lo: 1, hi: 8 }, &mut rng),
        ),
        ("star", gen::star(n, 3)),
        (
            "binary",
            gen::balanced_tree(2, ceil_log2(n as u64) as usize - 1, WeightDist::Unit, &mut rng),
        ),
    ];
    for (name, g) in shapes {
        let s = ErrorReportingTree::new(spanning_tree(&g, NodeId(0)), k, 91);
        let m = s.labeled().tree().size();
        let by_rank = s.labeled().tree().nodes_by_depth();
        for j in 1..=k {
            let mut hits = 0usize;
            let mut max_stretch = 0.0f64;
            for (rank, &tix) in by_rank.iter().enumerate() {
                let level = s.naming().level_of_rank(rank).max(1);
                if level > j {
                    continue;
                }
                let target = s.labeled().tree().graph_id(tix);
                let (outcome, _) = s.search(target, j);
                if let SearchOutcome::Found { cost, .. } = outcome {
                    hits += 1;
                    let depth = s.labeled().tree().depth(tix);
                    if depth > 0 {
                        max_stretch = max_stretch.max(cost as f64 / depth as f64);
                    }
                }
            }
            // Misses: absent ids.
            let mut misses = 0usize;
            let mut max_ratio = 0.0f64;
            let miss_bound = ((2 * j).saturating_sub(2)) as f64
                * s.max_depth_in_level(j.saturating_sub(1)).max(1) as f64;
            for absent in [1_000_000u32, 1_000_001, 1_000_002] {
                let (outcome, _) = s.search(NodeId(absent), j);
                if let SearchOutcome::NotFound { cost } = outcome {
                    misses += 1;
                    if miss_bound > 0.0 {
                        max_ratio = max_ratio.max(cost as f64 / miss_bound);
                    }
                }
            }
            let max_storage = (0..m as u32).map(|x| s.node_bits(x)).max().unwrap_or(0);
            t.row(vec![
                name.into(),
                j.to_string(),
                hits.to_string(),
                f(max_stretch),
                (2 * j - 1).to_string(),
                misses.to_string(),
                f(max_ratio),
                max_storage.to_string(),
            ]);
        }
    }
    t.note("max-hit-stretch must stay ≤ 2j−1; miss ratio ≤ 1 means the negative-response");
    t.note("cost bound (2j−2)·max d(r, V_{j−1}) holds.");
    t.render()
}

// ---------------------------------------------------------------------
// L5 — Lemma 5: labeled tree routing
// ---------------------------------------------------------------------

/// Labeled routing is exact (stretch 1) with O(log n) local info and
/// O(log² n) labels.
pub fn l5(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let sizes: &[usize] = if quick { &[100, 500] } else { &[100, 1000, 5000, 20000] };
    let mut t = Table::new(
        "L5 — Lemma 5: labeled tree routing is exact",
        &["tree size", "pairs", "max stretch", "max µ bits", "max λ bits", "max light depth"],
    );
    for &m in sizes {
        let mut rng = SmallRng::seed_from_u64(95);
        let g = gen::random_tree(m, WeightDist::UniformInt { lo: 1, hi: 9 }, &mut rng);
        let lt = LabeledTree::new(spanning_tree(&g, NodeId(0)));
        let workload = pairs::sample(m, if quick { 500 } else { 2000 }, 96);
        let mut max_stretch = 0.0f64;
        for &(s, d) in &workload {
            let (spath, cost) = lt.route(s.0, lt.label(d.0)).expect("in-tree");
            let opt = lt.tree().tree_distance(s.0, d.0);
            assert_eq!(*spath.last().unwrap(), d.0);
            if opt > 0 {
                max_stretch = max_stretch.max(cost as f64 / opt as f64);
            }
        }
        let mu = (0..m as u32).map(|x| lt.local_bits(x)).max().unwrap_or(0);
        let lam = (0..m as u32).map(|x| lt.label_bits(x)).max().unwrap_or(0);
        t.row(vec![
            m.to_string(),
            workload.len().to_string(),
            f(max_stretch),
            mu.to_string(),
            lam.to_string(),
            lt.max_light_depth().to_string(),
        ]);
    }
    t.note("max-stretch must be exactly 1 (tree routing is optimal); µ = O(log m),");
    t.note("λ = O(log² m), light depth ≤ log₂ m.");
    t.render()
}

// ---------------------------------------------------------------------
// L6 — Lemma 6: sparse covers
// ---------------------------------------------------------------------

/// The four cover invariants across families, k, and ρ.
pub fn l6(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 100 } else { 300 };
    let mut t = Table::new(
        format!("L6 — Lemma 6: sparse tree covers TC_k,rho (n={n})"),
        &[
            "family",
            "k",
            "rho",
            "trees",
            "cover ok",
            "max overlap",
            "bound 2k n^(1/k)",
            "max radius",
            "bound (2k-1)rho",
            "max edge",
            "bound 2rho",
        ],
    );
    for &fam in &[Family::ErdosRenyi, Family::Geometric, Family::Grid, Family::Ring] {
        let g = fam.generate(n, 6000);
        let d = apsp(&g);
        let diam = d.diameter();
        for k in [1usize, 2, 3] {
            for rho in [diam / 16, diam / 4].iter().filter(|&&r| r >= 1) {
                let cover = covers::build_cover(&g, k, *rho);
                let rep = covers::verify_cover(&g, &cover);
                t.row(vec![
                    fam.label().into(),
                    k.to_string(),
                    rho.to_string(),
                    cover.trees.len().to_string(),
                    (rep.cover_violations == 0).to_string(),
                    rep.max_overlap.to_string(),
                    rep.overlap_bound.to_string(),
                    rep.max_radius.to_string(),
                    rep.radius_bound.to_string(),
                    rep.max_edge.to_string(),
                    rep.edge_bound.to_string(),
                ]);
            }
        }
    }
    t.note("All four Lemma 6 properties must hold: cover-ok true, overlap ≤ 2k·n^{1/k},");
    t.note("radius ≤ (2k−1)ρ, edges ≤ 2ρ.");
    t.render()
}

// ---------------------------------------------------------------------
// L7 — Lemma 7: cover-tree routing
// ---------------------------------------------------------------------

/// Fixed-budget lookups: cost ≤ 4·rad + 2k·maxE for hits *and* misses.
pub fn l7(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 150 } else { 400 };
    let mut t = Table::new(
        format!("L7 — Lemma 7: cover-tree routing budget (trees of ~{n} nodes)"),
        &[
            "tree",
            "lookups",
            "max cost",
            "budget 4rad+2k·maxE",
            "guide depth",
            "max bucket",
            "miss max cost",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(97);
    let shapes: Vec<(&str, Graph)> = vec![
        ("random", gen::random_tree(n, WeightDist::UniformInt { lo: 1, hi: 12 }, &mut rng)),
        ("star", gen::star(n, 5)),
        (
            "caterpillar",
            gen::caterpillar(n / 5, 4, WeightDist::UniformInt { lo: 1, hi: 6 }, &mut rng),
        ),
    ];
    for (name, g) in shapes {
        let tree = spanning_tree(&g, NodeId(0));
        // Nodes are drawn by position in the spanning tree's (distance,
        // id) order; the router renumbers its copy, so go through host ids.
        let host = tree.graph_ids().to_vec();
        let r = CoverTreeRouter::new(tree, 2, 98);
        let ix = r.labeled().tree().index_map(g.n());
        let router_ix = |t: u32| ix[host[t as usize] as usize];
        let m = r.labeled().tree().size() as u32;
        let budget = r.cost_budget();
        let mut max_cost = 0;
        let lookups = if quick { 400 } else { 2000 };
        for &(s, d) in pairs::sample(m as usize, lookups, 99).iter() {
            let (outcome, _) = r.route(router_ix(s.0), NodeId(host[d.idx()]));
            assert!(outcome.is_found());
            max_cost = max_cost.max(outcome.cost());
        }
        let mut miss_max = 0;
        for absent in [2_000_000u32, 2_000_001] {
            for from in (0..m).step_by((m as usize / 10).max(1)) {
                let (outcome, _) = r.route(router_ix(from), NodeId(absent));
                assert!(!outcome.is_found());
                miss_max = miss_max.max(outcome.cost());
            }
        }
        t.row(vec![
            name.into(),
            lookups.to_string(),
            max_cost.to_string(),
            budget.to_string(),
            r.max_guide_depth().to_string(),
            r.max_bucket().to_string(),
            miss_max.to_string(),
        ]);
    }
    t.note("max cost and miss cost must both stay ≤ the 4·rad+2k·maxE budget; the star");
    t.note("forces guide depth ≥ 2 (grouped child tables), exercising the 2k·maxE term.");
    t.render()
}

// ---------------------------------------------------------------------
// SF — the scale-free headline
// ---------------------------------------------------------------------

/// Storage vs aspect ratio: ours flat, the hierarchical baseline ∝ logΔ.
pub fn sf(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 48 } else { 64 };
    let k = 2;
    let mut t = Table::new(
        format!("SF — storage vs aspect ratio (ring n={n}, k={k})"),
        &[
            "log2(Delta)",
            "agm mean bits",
            "agm max bits",
            "hier mean bits",
            "hier max bits",
            "hier scales",
            "agm stretch",
            "hier stretch",
        ],
    );
    let exps: &[u32] = if quick { &[4, 16, 32] } else { &[4, 8, 16, 24, 32, 40] };
    for &e in exps {
        let g = if e <= 6 { gen::ring(n, 1) } else { gen::exponential_ring(n, e) };
        let d = apsp(&g);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 100));
        let hier = baselines::HierarchicalScheme::build(g.clone(), k, 100);
        let workload = pair_workload(n, cfg, true);
        let ss = evaluate_parallel(&g, &d, &scheme, &workload, cfg.threads);
        let hs = evaluate_parallel(&g, &d, &hier, &workload, cfg.threads);
        let sa = StorageAudit::collect(&scheme, n);
        let ha = StorageAudit::collect(&hier, n);
        t.row(vec![
            f(d.aspect_ratio().unwrap_or(1.0).log2()),
            bitsf(sa.mean_bits()),
            bits(sa.max_bits()),
            bitsf(ha.mean_bits()),
            bits(ha.max_bits()),
            hier.num_scales().to_string(),
            f(ss.max_stretch),
            f(hs.max_stretch),
        ]);
    }
    t.note("The headline: AGM storage is flat in Δ while the Awerbuch–Peleg-style");
    t.note("hierarchical baseline grows ∝ log Δ (its scale count), at similar stretch.");
    t.render()
}

// ---------------------------------------------------------------------
// X1 — O(2^k) vs O(k)
// ---------------------------------------------------------------------

/// Stretch growth in k: the exponential landmark-chaining baseline vs
/// the paper's linear-stretch scheme.
pub fn x1(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 128 } else { 256 };
    let mut t = Table::new(
        format!("X1 — stretch vs k: exponential baseline vs AGM (geometric n={n})"),
        &[
            "k",
            "agm max",
            "agm mean",
            "chain max",
            "chain mean",
            "agm mean bits",
            "chain mean bits",
        ],
    );
    let g = Family::Geometric.generate(n, 7000);
    let d = apsp(&g);
    let workload = pair_workload(n, cfg, quick);
    let ks: &[usize] = if quick { &[2, 3, 4] } else { &[2, 3, 4, 5, 6] };
    for &k in ks {
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 101));
        let chain = baselines::LandmarkChaining::build_with_matrix(g.clone(), &d, k, 101);
        let ss = evaluate_parallel(&g, &d, &scheme, &workload, cfg.threads);
        let cs = evaluate_parallel(&g, &d, &chain, &workload, cfg.threads);
        let sa = StorageAudit::collect(&scheme, n);
        let ca = StorageAudit::collect(&chain, n);
        t.row(vec![
            k.to_string(),
            f(ss.max_stretch),
            f(ss.mean_stretch),
            f(cs.max_stretch),
            f(cs.mean_stretch),
            bitsf(sa.mean_bits()),
            bitsf(ca.mean_bits()),
        ]);
    }
    t.note("Expected shape: the chaining baseline's worst-case stretch is NOT O(k) —");
    t.note("it is governed by landmark drift (up to the network diameter over the pair");
    t.note("distance) and sits far above AGM at every k, while AGM's max stretch");
    t.note("stays inside the linear 12k envelope — the paper's §1 improvement.");
    t.render()
}

// ---------------------------------------------------------------------
// X2 — the space-stretch frontier
// ---------------------------------------------------------------------

/// All schemes on one graph: the related-work frontier of §1.3.
pub fn x2(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 128 } else { 256 };
    let k = 3;
    let mut t = Table::new(
        format!("X2 — space-stretch frontier (geometric n={n}, k={k})"),
        &["scheme", "model", "max stretch", "mean stretch", "mean bits/node", "max bits/node"],
    );
    let g = Family::Geometric.generate(n, 8000);
    let d = apsp(&g);
    let workload = pair_workload(n, cfg, quick);
    let routers: Vec<(&str, Box<dyn Router + Sync>)> = vec![
        ("name-indep", Box::new(baselines::ShortestPathTables::build(g.clone()))),
        ("name-indep", Box::new(baselines::HierarchicalScheme::build(g.clone(), k, 102))),
        (
            "name-indep",
            Box::new(baselines::LandmarkChaining::build_with_matrix(g.clone(), &d, k, 102)),
        ),
        ("labeled", Box::new(baselines::TzLabeled::build_with_matrix(g.clone(), &d, k, 102))),
        ("name-indep", Box::new(Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 102)))),
    ];
    for (model, r) in routers {
        let stats = evaluate_parallel(&g, &d, r.as_ref(), &workload, cfg.threads);
        let audit = StorageAudit::collect(r.as_ref(), n);
        t.row(vec![
            r.name().into(),
            model.into(),
            f(stats.max_stretch),
            f(stats.mean_stretch),
            bitsf(audit.mean_bits()),
            bits(audit.max_bits()),
        ]);
    }
    t.note("B1 anchors stretch 1 at Ω(n log n) bits; TZ (labeled) and AGM");
    t.note("(name-independent) trade space for low-stretch; chaining pays in stretch.");
    t.render()
}

// ---------------------------------------------------------------------
// A1 — ablation
// ---------------------------------------------------------------------

/// Disable one half of the decomposition: sparse-only inflates storage,
/// dense-only breaks delivery on sparse graphs.
pub fn a1(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 96 } else { 128 };
    let k = 3;
    let mut t = Table::new(
        format!("A1 — ablation of the sparse/dense decomposition (n={n}, k={k})"),
        &["family", "mode", "delivered %", "max stretch", "mean bits/node"],
    );
    for &fam in &[Family::ErdosRenyi, Family::ExpRing] {
        let g = fam.generate(n, 9000);
        let d = apsp(&g);
        let workload = pair_workload(g.n(), cfg, true);
        for (label, mode) in [
            ("combined", None),
            ("sparse-only", Some(ForceMode::AllSparse)),
            ("dense-only", Some(ForceMode::AllDense)),
        ] {
            let mut params = SchemeParams::new(k, 103);
            params.force_mode = mode;
            let scheme = Scheme::build_on_demand(g.clone(), params);
            let stats = evaluate_parallel_lenient(&g, &d, &scheme, &workload, cfg.threads);
            let audit = StorageAudit::collect(&scheme, g.n());
            let delivered = 100.0 * (stats.pairs - stats.failures) as f64 / stats.pairs as f64;
            t.row(vec![
                fam.label().into(),
                label.into(),
                f(delivered),
                f(stats.max_stretch),
                bitsf(audit.mean_bits()),
            ]);
        }
    }
    t.note("combined must deliver 100%; dense-only loses deliveries on sparse scales");
    t.note("(targets outside the cover subgraphs G_i) — catastrophically so on exp-ring.");
    t.note("sparse-only stays correct here (its instance-tuned budgets absorb dense");
    t.note("neighborhoods at laptop n) but is the configuration whose budgets grow");
    t.note("toward the 16n^{2/k}ln n worst case as n grows — see F2.");
    t.render()
}

// ---------------------------------------------------------------------
// DX — the §4 directed extension
// ---------------------------------------------------------------------

/// Routing on strongly connected digraphs against the round-trip
/// metric: delivery, stretch, and the support-graph distortion the
/// reduction pays (the paper deferred this to its full version).
pub fn dx(cfg: &RunConfig) -> String {
    let quick = cfg.quick;
    let n = if quick { 60 } else { 120 };
    let mut t = Table::new(
        format!("DX — directed extension: round-trip routing (n={n})"),
        &[
            "arcs/node",
            "k",
            "delivered %",
            "max rt-stretch",
            "mean rt-stretch",
            "support distortion",
        ],
    );
    use graphkit::digraph::random_strongly_connected;
    use routing_core::{validate_directed_trace, DirectedScheme};
    for &extra_per_node in &[2usize, 4] {
        for &k in &[2usize, 3] {
            let mut rng = SmallRng::seed_from_u64(2026 + extra_per_node as u64);
            let dg = random_strongly_connected(n, extra_per_node * n, 1, 32, &mut rng);
            let scheme = DirectedScheme::build(dg, SchemeParams::new(k, 55));
            let mut worst = 0.0f64;
            let mut mean = 0.0;
            let mut count = 0usize;
            let mut delivered = 0usize;
            for s in (0..n as u32).step_by(3) {
                for d in (0..n as u32).step_by(5) {
                    if s == d {
                        continue;
                    }
                    let trace = scheme.route_directed(NodeId(s), NodeId(d));
                    validate_directed_trace(scheme.digraph(), NodeId(s), NodeId(d), &trace)
                        .expect("directed walk invalid");
                    count += 1;
                    if trace.delivered {
                        delivered += 1;
                        let st = scheme.rt_stretch(NodeId(s), NodeId(d), &trace);
                        worst = worst.max(st);
                        mean += st;
                    }
                }
            }
            t.row(vec![
                format!("{}", extra_per_node + 1),
                k.to_string(),
                f(100.0 * delivered as f64 / count as f64),
                f(worst),
                f(mean / delivered.max(1) as f64),
                f(scheme.max_distortion()),
            ]);
        }
    }
    t.note("The conclusion's deferred extension, reconstructed: Theorem 1 over the");
    t.note("round-trip support graph, realized as genuine directed walks. rt-stretch");
    t.note("stays in the O(k) band times the (small, measured) support distortion.");
    t.render()
}

/// Merge `records` into the `(benchmark, env, file)` topic document:
/// at the path in the environment variable `env`, else at `file` —
/// except in a quick run without `env`, which never overwrites the
/// checked-in full-size baseline. Notes the outcome on `t`: the two
/// `quick` lines when nothing was written, else "`<what>` records
/// written to `<path>`" (or "NOT written … : `<error>`") and `tail`.
fn write_records(
    t: &mut Table,
    cfg: &RunConfig,
    (benchmark, env, file): (&str, &str, &str),
    records: &[TopicRecord],
    quick: [&str; 2],
    (what, tail): (&str, &str),
) {
    let out = std::env::var(env).ok();
    if cfg.quick && out.is_none() {
        for line in quick {
            t.note(line);
        }
        return;
    }
    let out = out.unwrap_or_else(|| file.to_string());
    match bench_record::write_merged(&out, &bench_record::render_topic_json(benchmark, records)) {
        Ok(()) => t.note(format!("{what} records written to {out}{tail}")),
        Err(e) => t.note(format!("{what} records NOT written to {out}: {e}{tail}")),
    };
}

// ---------------------------------------------------------------------
// SC — scaling beyond the n² wall
// ---------------------------------------------------------------------

/// Theorem-1 numbers at sizes where the dense matrix is unaffordable:
/// the AGM `Scheme` itself is preprocessed matrix-free on a scale-free
/// (heavy-tailed, Δ ≈ 2^30) workload, routed, and measured against
/// on-demand ground truth, next to the landmark-chaining baseline.
/// Honors `--pairs-sampled` and `--threads`.
/// Each AGM build also emits a machine-readable datapoint; the
/// collected records are merged into `BENCH_construction.json`, keeping
/// rows at other `(n, k)` (path override: `BENCH_CONSTRUCTION_OUT`;
/// suppressed in `--quick` runs unless redirected).
pub fn sc(cfg: &RunConfig) -> String {
    let sizes: &[usize] = if cfg.quick { &[2_000, 5_000] } else { &[10_000, 50_000] };
    let k = 2;
    let mut t = Table::new(
        format!("SC — Theorem-1 construction & evaluation beyond the n² wall (pref-attach, k={k})"),
        &[
            "scheme",
            "n",
            "pairs",
            "dijkstras",
            "build s",
            "truth s",
            "eval s",
            "max-stretch",
            "mean-stretch",
            "bits/node (sampled)",
            "n² matrix MiB (skipped)",
        ],
    );
    let mut records: Vec<TopicRecord> = Vec::new();
    for &n in sizes {
        let pairs_budget = cfg.pairs_sampled.unwrap_or(if cfg.quick { 2_000 } else { 10_000 });
        let mut rng = SmallRng::seed_from_u64(0x5CA1E + n as u64);
        let g =
            gen::preferential_attachment(n, 3, WeightDist::PowerOfTwo { max_exp: 30 }, &mut rng);
        // Group targets by source so ground truth needs one Dijkstra
        // per source, not per pair.
        let sources = pairs_budget.div_ceil(64).max(1);
        let workload = pairs::sample_grouped(n, sources, pairs_budget.div_ceil(sources), 0x5CA1E);

        let params = SchemeParams::new(k, 0x5CA1E);
        let routers: Vec<(&str, Box<dyn Router + Sync>, f64)> = {
            let t0 = std::time::Instant::now();
            let scheme = Scheme::build_on_demand(g.clone(), params);
            let scheme_s = t0.elapsed().as_secs_f64();
            let peak_rss_kib = graphkit::metrics::peak_rss_kib().unwrap_or(0);
            records.push(bench_record::construction_record(
                n,
                k,
                cfg.threads,
                scheme_s,
                peak_rss_kib,
                scheme.stats(),
            ));
            let scheme: Box<dyn Router + Sync> = Box::new(scheme);
            let t1 = std::time::Instant::now();
            let chain: Box<dyn Router + Sync> =
                Box::new(baselines::LandmarkChaining::build_on_demand(g.clone(), k, 0x5CA1E));
            let chain_s = t1.elapsed().as_secs_f64();
            vec![("agm-scale-free", scheme, scheme_s), ("landmark-chaining", chain, chain_s)]
        };

        // One truth serves both routers: the per-source Dijkstras
        // depend only on the workload, not on who routes it.
        let t1 = std::time::Instant::now();
        let mut truth = OnDemandTruth::new(&g);
        truth.prefetch_pairs(&workload, cfg.threads);
        let truth_s = t1.elapsed().as_secs_f64();

        for (name, router, build_s) in &routers {
            let t2 = std::time::Instant::now();
            let stats = evaluate_parallel(&g, &truth, router.as_ref(), &workload, cfg.threads);
            let eval_s = t2.elapsed().as_secs_f64();
            assert_eq!(stats.failures, 0, "scaling workload must deliver every pair");

            // A 256-node sample keeps the storage column affordable at
            // sizes where auditing all n nodes would dominate.
            let stride = (n / 256).max(1);
            let sampled: Vec<u64> = (0..n)
                .step_by(stride)
                .map(|v| router.node_storage_bits(NodeId(v as u32)))
                .collect();
            let mean_bits = sampled.iter().sum::<u64>() as f64 / sampled.len() as f64;

            t.row(vec![
                name.to_string(),
                n.to_string(),
                workload.len().to_string(),
                truth.rows_computed().to_string(),
                f(*build_s),
                f(truth_s),
                f(eval_s),
                f(stats.max_stretch),
                f(stats.mean_stretch),
                bitsf(mean_bits),
                f((n as f64) * (n as f64) * 8.0 / (1024.0 * 1024.0)),
            ]);
        }
    }
    write_records(
        &mut t,
        cfg,
        (bench_record::CONSTRUCTION, "BENCH_CONSTRUCTION_OUT", "BENCH_construction.json"),
        &records,
        [
            "Construction records not persisted in --quick mode (set",
            "BENCH_CONSTRUCTION_OUT to capture them; per-phase laps, peak RSS,",
        ],
        ("Construction", " (per-phase laps, peak RSS,"),
    );
    t.note("membership counts — the CI smoke's regression baseline).");
    t.note("The AGM scheme's own preprocessing now runs matrix-free: bounded-Dijkstra");
    t.note("ranges and E(u,i) balls, one Dijkstra per landmark for claims/centers/S-");
    t.note("budgets, an explicit all-of-V tree for each center with a whole-graph");
    t.note("region. No dense DistMatrix is ever materialized (last column: what the");
    t.note("old path would have needed).");
    t.render()
}

/// Serving: snapshot round trip plus a sharded query batch. Builds the
/// scheme matrix-free, saves it to a versioned snapshot, loads it back
/// (resident and lazy), and serves the same batch through
/// [`routing_core::serve_batch`] next to the shortest-path-table
/// baseline — throughput (routes/sec) and latency (p50/p99 µs) per
/// router. The scheme rows are also merged into `BENCH_serving.json`,
/// keeping rows at other `(n, k)` (path override: `BENCH_SERVING_OUT`;
/// suppressed in `--quick` runs unless redirected, mirroring `sc`).
pub fn serve(cfg: &RunConfig) -> String {
    let (n, batch) = if cfg.quick { (400, 2_000) } else { (3_000, 20_000) };
    let k = 2;
    let mut t = Table::new(
        format!(
            "SERVE — snapshot-loaded scheme vs shortest-path tables (pref-attach n={n}, k={k})"
        ),
        &["router", "load s", "queries", "delivered", "routes/s", "p50 µs", "p99 µs"],
    );
    let mut rng = SmallRng::seed_from_u64(0x5EB0 + n as u64);
    let g = gen::preferential_attachment(n, 3, WeightDist::PowerOfTwo { max_exp: 20 }, &mut rng);
    let queries = pairs::sample(n, batch, 0x5EB1);

    let built = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 0x5EB0));
    let snap = std::env::temp_dir().join(format!("agm-serve-bench-{}.snap", std::process::id()));
    built.save(&snap).expect("snapshot save");
    let snapshot_bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
    drop(built); // serve strictly from the snapshot — no rebuild path

    let mut scheme_record: Option<(f64, routing_core::ServeReport)> = None;
    type SchemeLoader = fn(&std::path::Path) -> std::io::Result<Scheme>;
    let loaders: [(&str, SchemeLoader); 2] = [
        ("agm (snapshot, resident)", |p| Scheme::load(p)),
        ("agm (snapshot, lazy trees)", |p| Scheme::load_lazy(p)),
    ];
    for (name, load) in loaders {
        let t0 = std::time::Instant::now();
        let scheme = load(&snap).expect("snapshot load");
        let load_s = t0.elapsed().as_secs_f64();
        let rep = routing_core::serve_batch(&scheme, &queries, cfg.threads);
        assert_eq!(rep.delivered, rep.queries, "serving must deliver every query");
        t.row(vec![
            name.to_string(),
            f(load_s),
            rep.queries.to_string(),
            rep.delivered.to_string(),
            f(rep.routes_per_sec),
            f(rep.p50_us),
            f(rep.p99_us),
        ]);
        if scheme_record.is_none() {
            scheme_record = Some((load_s, rep));
        }
    }
    let _ = std::fs::remove_file(&snap);

    let t0 = std::time::Instant::now();
    let tables = baselines::ShortestPathTables::build(g.clone());
    let build_s = t0.elapsed().as_secs_f64();
    let rep = routing_core::serve_batch(&tables, &queries, cfg.threads);
    t.row(vec![
        "sp-tables (rebuilt, n² state)".to_string(),
        f(build_s),
        rep.queries.to_string(),
        rep.delivered.to_string(),
        f(rep.routes_per_sec),
        f(rep.p50_us),
        f(rep.p99_us),
    ]);

    let (load_seconds, scheme_rep) = scheme_record.expect("scheme served");
    let baseline = Some(("sp_tables", &rep));
    write_records(
        &mut t,
        cfg,
        (bench_record::SERVING, "BENCH_SERVING_OUT", "BENCH_serving.json"),
        &[bench_record::serving_record(n, k, snapshot_bytes, load_seconds, &scheme_rep, baseline)],
        [
            "Serving records not persisted in --quick mode (set BENCH_SERVING_OUT",
            "to capture them).",
        ],
        ("Serving", "."),
    );
    t.note("The serve path never rebuilds: the scheme is dropped after save and");
    t.note("reconstructed purely from the snapshot's flat arenas. The sp-tables");
    t.note("baseline routes optimally but must be rebuilt from scratch (no snapshot)");
    t.note("and holds Θ(n²) next-hop state — the trade the paper's tables avoid.");
    t.render()
}

/// Churn: a seeded edge-only mutation schedule driven through
/// [`routing_core::churn::run_churn`]. Per epoch the *stale* scheme is
/// replayed on the mutated graph (paths crossing a failed edge
/// truncate to undelivered; surviving paths re-cost at current
/// weights), then [`Scheme::repair`] patches the scheme and the same
/// workload is measured again — degradation and recovery side by side.
/// Honors `--pairs-sampled` and `--threads`.
/// Each epoch also emits a machine-readable
/// [`bench_record::evaluation_record`]; the collected records are merged
/// into `BENCH_evaluation.json`, keeping rows at other `(n, k)` (path
/// override: `BENCH_EVALUATION_OUT`; suppressed in `--quick` runs unless
/// redirected, mirroring `sc`).
pub fn churn(cfg: &RunConfig) -> String {
    let (n, epochs, fails, reweights, pairs_default) =
        if cfg.quick { (1_200, 3, 6, 6, 400) } else { (10_000, 3, 30, 30, 2_000) };
    let k = 2;
    let mut t = Table::new(
        format!(
            "CHURN — stale vs repaired scheme across mutation epochs (pref-attach n={n}, k={k})"
        ),
        &[
            "epoch",
            "batch Δ",
            "pending Δ",
            "stale deliv",
            "stale p99",
            "stale max",
            "outcome",
            "trees reused",
            "repair s",
            "fixed deliv",
            "fixed p99",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(0xC4A0 + n as u64);
    let g = gen::preferential_attachment(n, 3, WeightDist::PowerOfTwo { max_exp: 30 }, &mut rng);
    let churn_cfg = ChurnConfig::edges_only(0xC4A1, epochs, fails, reweights);
    let plan = ChurnPlan::generate(&g, &churn_cfg);

    let params = SchemeParams::new(k, 0xC4A0);
    let pairs_per_epoch = cfg.pairs_sampled.unwrap_or(pairs_default);
    let rows = run_churn(&g, params, &plan, pairs_per_epoch, 0xC4A2, cfg.threads);

    let mut records: Vec<TopicRecord> = Vec::new();
    for row in &rows {
        records.push(bench_record::evaluation_record(n, k, row));
        let (outcome, reused, repair_s) = match &row.outcome {
            RepairOutcome::Repaired(r) => (
                "repaired".to_string(),
                format!("{}/{}", r.trees_reused, r.trees_reused + r.trees_rebuilt),
                r.seconds,
            ),
            RepairOutcome::RebuiltFull { reason, seconds } => {
                (format!("rebuilt ({reason:?})"), "—".to_string(), *seconds)
            }
            RepairOutcome::Deferred { reason } => {
                (format!("deferred ({reason:?})"), "—".to_string(), 0.0)
            }
        };
        // Edge-only schedules stay connected, so every epoch must come
        // back current — and once repaired, Theorem 1 holds on the
        // mutated graph: nothing may fail.
        assert!(
            !matches!(row.outcome, RepairOutcome::Deferred { .. }),
            "edge-only churn deferred in epoch {}",
            row.epoch
        );
        let post = row.post.as_ref().expect("repair ran");
        assert_eq!(post.failures, 0, "repaired scheme dropped pairs in epoch {}", row.epoch);
        t.row(vec![
            row.epoch.to_string(),
            row.batch_deltas.to_string(),
            row.pending_deltas.to_string(),
            f(row.pre_delivery_rate()),
            f(row.pre.p99_stretch),
            f(row.pre.max_stretch),
            outcome,
            reused,
            f(repair_s),
            f(row.post_delivery_rate().unwrap_or(0.0)),
            f(post.p99_stretch),
        ]);
    }
    write_records(
        &mut t,
        cfg,
        (bench_record::EVALUATION, "BENCH_EVALUATION_OUT", "BENCH_evaluation.json"),
        &records,
        [
            "Evaluation records not persisted in --quick mode (set",
            "BENCH_EVALUATION_OUT to capture them).",
        ],
        ("Evaluation", "."),
    );
    t.note("Stale rows replay the pre-mutation scheme's paths on the mutated graph:");
    t.note("a path crossing a failed edge counts as undelivered, surviving paths");
    t.note("re-cost at the current weights. 'trees reused' counts center trees");
    t.note("carried over bit-identically — reuse tracks how close the batch lands");
    t.note("to the pref-attach hubs (a hub-adjacent change dirties most distance");
    t.note("vectors; locality families reuse more — see the repair_parity tests).");
    t.render()
}
