//! Churn at scale: fail ~1% of the edges of a 50,000-node scale-free
//! graph under the paper's Theorem-1 scheme, measure the stale scheme
//! by replaying its paths on the mutated graph, repair incrementally
//! ([`Scheme::repair`]), and re-serve — the churn-path counterpart of
//! the `build_100k.rs` construction/serving smoke.
//!
//! ```text
//! cargo run --release --example churn_50k -- [n] [pairs] [threads] [serve_queries]
//! ```
//!
//! Defaults: n = 50000, pairs = 5000, threads = 0 (auto),
//! serve_queries = 10000. The epoch batch is a connectivity-checked
//! schedule of `m/100` edge failures plus a tenth as many weight
//! re-draws, drawn by [`ChurnPlan::generate`]. The run fails if repair
//! defers (an edge-only schedule never disconnects), if the repaired
//! scheme drops any pair, if the post-repair serve drops any query, or
//! if the stale measurement regresses vs the checked-in
//! `BENCH_evaluation.json` (delivery rate within 0.05 absolute, p99
//! stretch within 1.5x of the nearest-n baseline epoch; override the
//! baseline file with `BENCH_BASELINE`). Set `BENCH_EVALUATION_OUT`
//! to write the epoch's [`bench_record::evaluation_record`].

use std::time::Instant;

use compact_routing::prelude::*;
use graphkit::apply_deltas;
use graphkit::gen::{self, WeightDist};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::churn::{ChurnConfig, ChurnPlan, EpochRow};
use routing_core::{bench_record, RepairOutcome};
use sim::ReplayRouter;

fn main() {
    let args: Vec<usize> =
        std::env::args().skip(1).map(|a| a.parse().expect("numeric argument")).collect();
    let n = args.first().copied().unwrap_or(50_000);
    let pair_budget = args.get(1).copied().unwrap_or(5_000);
    let threads = args.get(2).copied().unwrap_or(0);
    let serve_queries = args.get(3).copied().unwrap_or(10_000);
    let k = 2;
    let seed = 0xC4A0 + n as u64;

    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = gen::preferential_attachment(n, 3, WeightDist::PowerOfTwo { max_exp: 30 }, &mut rng);
    let fails = (g.m() / 100).max(1);
    println!(
        "Churn smoke: preferential attachment, n = {n}, m = {} — failing {fails} edges (~1%)",
        g.m()
    );

    // One mutate→measure→repair→re-serve epoch. The schedule is
    // connectivity-checked, so repair must come back current.
    let cfg = ChurnConfig {
        seed: seed ^ 0xE90C,
        epochs: 1,
        edge_fails: fails,
        edge_restores: 0,
        weight_changes: fails / 10,
        node_leaves: 0,
        node_joins: 0,
        keep_connected: true,
    };
    let plan = ChurnPlan::generate(&g, &cfg);
    let batch = &plan.epochs[0].deltas;
    println!(
        "[{:>7.2}s] schedule drawn: {} deltas ({} skipped as disconnecting)",
        t0.elapsed().as_secs_f64(),
        batch.len(),
        plan.skipped_disconnecting
    );

    let t_build = Instant::now();
    let mut scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
    println!(
        "[{:>7.2}s] scheme built in {:.1}s: {} center trees",
        t0.elapsed().as_secs_f64(),
        t_build.elapsed().as_secs_f64(),
        scheme.stats().num_center_trees
    );

    let g2 = apply_deltas(&g, batch);
    let workload = pairs::sample(n, pair_budget, seed ^ 0x10AD);
    let mut truth = OnDemandTruth::new(&g2);
    truth.prefetch_pairs(&workload, threads);
    let replay = ReplayRouter::new(&scheme, &g2);
    let stale = evaluate_parallel_lenient(&g2, &truth, &replay, &workload, threads);
    println!(
        "[{:>7.2}s] stale scheme replayed on the mutated graph: {}/{} delivered, \
         p99 stretch {:.2}, max {:.2}",
        t0.elapsed().as_secs_f64(),
        stale.pairs - stale.failures,
        stale.pairs,
        stale.p99_stretch,
        stale.max_stretch
    );

    // Evaluation-regression tripwire (ROADMAP item 5): the stale
    // measurement must not regress vs the checked-in
    // BENCH_evaluation.json — delivery within 0.05 absolute, p99
    // stretch within 1.5x. Both metrics track the churn fraction (held
    // at ~1% here), not the graph size, so the gate anchors at the
    // nearest recorded n when this run's exact size has no epoch. Set
    // BENCH_BASELINE to point at a different baseline file.
    let baseline_path =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "BENCH_evaluation.json".to_string());
    let stale_rate = (stale.pairs - stale.failures) as f64 / stale.pairs.max(1) as f64;
    let base = std::fs::read_to_string(&baseline_path).ok().and_then(|doc| {
        let bn = bench_record::baseline_nearest_anchor(&doc, "n", n as u64)?;
        let rate: f64 =
            bench_record::baseline_value(&doc, "n", bn, "pre_delivery_rate")?.parse().ok()?;
        let p99: f64 =
            bench_record::baseline_value(&doc, "n", bn, "pre_p99_stretch")?.parse().ok()?;
        Some((bn, rate, p99))
    });
    match base {
        Some((bn, base_rate, base_p99)) => {
            println!(
                "[{:>7.2}s] evaluation gate vs {baseline_path} (anchor n = {bn}): \
                 delivery {stale_rate:.3} (floor {:.3}), p99 stretch {:.2} (ceiling {:.2})",
                t0.elapsed().as_secs_f64(),
                base_rate - 0.05,
                stale.p99_stretch,
                base_p99 * 1.5,
            );
            assert!(
                stale_rate >= base_rate - 0.05,
                "stale delivery rate regressed: {stale_rate:.3} vs baseline {base_rate:.3} - 0.05"
            );
            assert!(
                stale.p99_stretch <= base_p99 * 1.5,
                "stale p99 stretch regressed: {:.3} vs baseline {base_p99:.3} * 1.5",
                stale.p99_stretch
            );
        }
        None => println!("no usable evaluation baseline in {baseline_path}; gate skipped"),
    }

    let outcome = scheme.repair(batch);
    match &outcome {
        RepairOutcome::Repaired(r) => println!(
            "[{:>7.2}s] repaired in {:.1}s: {} dirty nodes, {} trees rebuilt, {} reused, \
             {} scales rebuilt",
            t0.elapsed().as_secs_f64(),
            r.seconds,
            r.dirty_nodes,
            r.trees_rebuilt,
            r.trees_reused,
            r.scales_rebuilt
        ),
        RepairOutcome::RebuiltFull { reason, seconds } => println!(
            "[{:>7.2}s] residue case {reason:?}: full rebuild in {seconds:.1}s",
            t0.elapsed().as_secs_f64()
        ),
        RepairOutcome::Deferred { reason } => {
            panic!("edge-only churn must never defer, got {reason:?}")
        }
    }

    let fixed = evaluate_parallel_lenient(&g2, &truth, &scheme, &workload, threads);
    println!(
        "[{:>7.2}s] repaired scheme evaluated: {}/{} delivered, p99 stretch {:.2}, max {:.2}",
        t0.elapsed().as_secs_f64(),
        fixed.pairs - fixed.failures,
        fixed.pairs,
        fixed.p99_stretch,
        fixed.max_stretch
    );
    assert_eq!(fixed.failures, 0, "repaired scheme must deliver every pair (Theorem 1 on G')");

    // Re-serve from the repaired scheme: the sharded engine must
    // deliver every query on the mutated graph.
    drop(truth);
    let queries = pairs::sample(n, serve_queries, seed ^ 0x5E57E);
    let report = serve_batch(&scheme, &queries, threads);
    assert_eq!(report.delivered, report.queries, "every post-repair query must deliver");
    println!(
        "[{:>7.2}s] re-served {} queries: {:.0} routes/s, p50 {:.1} µs, p99 {:.1} µs",
        t0.elapsed().as_secs_f64(),
        report.queries,
        report.routes_per_sec,
        report.p50_us,
        report.p99_us,
    );

    if let Ok(out) = std::env::var("BENCH_EVALUATION_OUT") {
        let row = EpochRow {
            epoch: 0,
            batch_deltas: batch.len(),
            pending_deltas: 0,
            pre: stale.clone(),
            outcome,
            post: Some(fixed),
        };
        let record = bench_record::evaluation_record(n, k, &row);
        let doc = bench_record::render_topic_json(bench_record::EVALUATION, &[record]);
        bench_record::write_merged(&out, &doc).expect("write evaluation record");
        println!("evaluation record written to {out}");
    }

    println!(
        "\nOK: {} edges churned, stale delivery {:.3}, repaired delivery 1.000, \
         {serve_queries} queries re-served without a rebuild",
        batch.len(),
        (stale.pairs - stale.failures) as f64 / stale.pairs as f64,
    );
}
