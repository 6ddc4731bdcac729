//! Breaking the O(n²) wall for *construction*: preprocess the AGM
//! Theorem-1 scheme itself on a 100,000-node scale-free graph —
//! decomposition ranges, verified landmark hierarchy, instance-tuned
//! S budgets, center trees, cover trees — without ever materializing a
//! dense distance matrix (which would be ~75 GiB at this size), then
//! route sampled pairs against on-demand ground truth.
//!
//! ```text
//! cargo run --release --example build_100k -- [n] [pairs] [threads] [serve_queries]
//! ```
//!
//! Defaults: n = 100000, pairs = 2000, threads = 0 (auto),
//! serve_queries = 10000. CI runs this at n = 50000 under a
//! wall-clock budget as the construction- and serving-scale
//! regression tripwire; when the checked-in `BENCH_construction.json`
//! has a record at the same n, the run fails if its peak RSS
//! (`VmHWM`) exceeds 2× that baseline. Set `BENCH_BASELINE` to point
//! at a different baseline file and `BENCH_CONSTRUCTION_OUT` /
//! `BENCH_SERVING_OUT` to write this run's records.
//!
//! After the evaluation pass, the build is **saved to a snapshot and
//! dropped**; the serve phase reloads the scheme from the snapshot
//! alone and answers `serve_queries` sharded lookups — the serve path
//! contains no rebuild, which is the acceptance criterion for the
//! serving engine.

use std::time::Instant;

use compact_routing::prelude::*;
use graphkit::gen::{self, WeightDist};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use routing_core::bench_record;
use sim::evaluate_parallel;

fn main() {
    let args: Vec<usize> =
        std::env::args().skip(1).map(|a| a.parse().expect("numeric argument")).collect();
    let n = args.first().copied().unwrap_or(100_000);
    let pair_budget = args.get(1).copied().unwrap_or(2_000);
    let threads = args.get(2).copied().unwrap_or(0);
    let serve_queries = args.get(3).copied().unwrap_or(10_000);
    let k = 2;
    let seed = 0x100_000;

    println!("Theorem-1 construction at scale: preferential attachment, n = {n}, Δ ≈ 2^30");
    println!("dense DistMatrix at this n would need {:.1} GiB — never built\n", gib(n));

    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = gen::preferential_attachment(n, 3, WeightDist::PowerOfTwo { max_exp: 30 }, &mut rng);
    println!("[{:>7.2}s] generated: {} nodes, {} edges", t0.elapsed().as_secs_f64(), g.n(), g.m());

    // Matrix-free Theorem-1 preprocessing: bounded-Dijkstra ranges,
    // one Dijkstra per landmark (≈ √(n ln n) of them at k = 2) for
    // claims verification / centers / S budgets, an explicit all-of-V
    // tree for each center with a whole-graph region, bounded
    // per-center tree extraction.
    let t_build = Instant::now();
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
    let build_s = t_build.elapsed().as_secs_f64();
    let st = scheme.stats();
    let peak_rss_kib = graphkit::metrics::peak_rss_kib().unwrap_or(0);
    println!(
        "[{:>7.2}s] scheme built (k = {k}): {} center trees, {} members, {} cover scales, \
         tuned S budgets {:?}, whole-graph trees per rank {:?}",
        t0.elapsed().as_secs_f64(),
        st.num_center_trees,
        st.total_members,
        st.num_scales,
        st.s_budgets,
        scheme.whole_graph_trees(),
    );
    let phases: Vec<String> =
        st.phase_seconds.iter().map(|(name, s)| format!("{name} {s:.1}s")).collect();
    println!(
        "          build {build_s:.1}s ({}), peak RSS {:.2} GiB",
        phases.join(", "),
        peak_rss_kib as f64 / (1024.0 * 1024.0),
    );
    if st.lemma3_violations > 0 {
        // Legitimate on unlucky n/seed combinations: the scheme falls
        // back to deepest searches (b = k) and still delivers — the
        // delivery assert below is the real tripwire.
        println!(
            "          note: {} Lemma 3 misses out of {} triples (b = k fallback engaged)",
            st.lemma3_violations, st.lemma3_checked
        );
    }

    // Theorem 1's storage side, audited at every node: the per-node
    // landmark and cover bits were summed when the trees were built, so
    // each node's audit is a few array reads.
    let audit = StorageAudit::collect(&scheme, n);
    println!(
        "[{:>7.2}s] storage audit ({} nodes): mean {:.0} bits/node, max {} bits \
         (Theorem 1 bound {:.1e})",
        t0.elapsed().as_secs_f64(),
        n,
        audit.mean_bits(),
        audit.max_bits(),
        scheme.theorem1_bound(),
    );

    // Theorem 1's stretch side: sampled pairs against on-demand truth.
    let sources = pair_budget.div_ceil(64).max(1);
    let workload = pairs::sample_grouped(n, sources, pair_budget.div_ceil(sources), seed);
    let mut truth = OnDemandTruth::new(&g);
    truth.prefetch_pairs(&workload, threads);
    println!(
        "[{:>7.2}s] ground truth prefetched: {} pairs pinned from {} Dijkstra runs",
        t0.elapsed().as_secs_f64(),
        truth.pinned_len(),
        truth.rows_computed()
    );

    let stats = evaluate_parallel(&g, &truth, &scheme, &workload, threads);
    println!(
        "[{:>7.2}s] evaluated {} pairs: max stretch {:.2}, mean {:.3}, mean hops {:.1}",
        t0.elapsed().as_secs_f64(),
        stats.pairs,
        stats.max_stretch,
        stats.mean_stretch,
        stats.mean_hops
    );
    assert_eq!(stats.failures, 0, "every pair must deliver");

    if let Ok(out) = std::env::var("BENCH_CONSTRUCTION_OUT") {
        let record = bench_record::construction_record(n, k, threads, build_s, peak_rss_kib, st);
        let doc = bench_record::render_topic_json(bench_record::CONSTRUCTION, &[record]);
        bench_record::write_merged(&out, &doc).expect("write construction record");
        println!("construction record written to {out}");
    }

    // Memory-regression tripwire: compare this build's VmHWM against
    // the checked-in baseline at the same n (CI runs from the repo
    // root, where BENCH_construction.json lives).
    let baseline_path =
        std::env::var("BENCH_BASELINE").unwrap_or_else(|_| "BENCH_construction.json".to_string());
    match std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|doc| bench_record::baseline_peak_rss_kib(&doc, n))
    {
        Some(base) if base > 0 => {
            let ratio = peak_rss_kib as f64 / base as f64;
            println!(
                "peak RSS vs {baseline_path} baseline at n = {n}: {peak_rss_kib} KiB vs {base} KiB \
                 ({ratio:.2}x)"
            );
            assert!(
                peak_rss_kib <= base.saturating_mul(2),
                "peak RSS regression: {peak_rss_kib} KiB is more than 2x the {base} KiB baseline"
            );
        }
        _ => println!(
            "no peak-RSS baseline for n = {n} in {baseline_path}; regression check skipped"
        ),
    }

    // ---- serving smoke: save → drop → load → serve ------------------
    // The snapshot is the only thing that crosses this line; the built
    // scheme (and the ground truth) are gone before the serve phase.
    drop(truth);
    let snap = std::env::temp_dir().join(format!("agm-build100k-{}.snap", std::process::id()));
    let t_save = Instant::now();
    scheme.save(&snap).expect("snapshot save");
    let save_s = t_save.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
    drop(scheme);
    println!(
        "[{:>7.2}s] snapshot saved: {:.1} MiB in {save_s:.1}s; builder dropped",
        t0.elapsed().as_secs_f64(),
        snapshot_bytes as f64 / (1024.0 * 1024.0),
    );

    let t_load = Instant::now();
    let served = Scheme::load(&snap).expect("snapshot load");
    let load_seconds = t_load.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&snap);
    let queries = pairs::sample(n, serve_queries, seed ^ 0x5E57E);
    let report = serve_batch(&served, &queries, threads);
    assert_eq!(report.delivered, report.queries, "every served query must deliver");
    println!(
        "[{:>7.2}s] served {} queries from the snapshot (load {load_seconds:.1}s, {} threads): \
         {:.0} routes/s, p50 {:.1} µs, p99 {:.1} µs",
        t0.elapsed().as_secs_f64(),
        report.queries,
        report.threads,
        report.routes_per_sec,
        report.p50_us,
        report.p99_us,
    );

    if let Ok(out) = std::env::var("BENCH_SERVING_OUT") {
        // No sp-tables baseline: it would need Θ(n²) state at this n.
        let record =
            bench_record::serving_record(n, k, snapshot_bytes, load_seconds, &report, None);
        let doc = bench_record::render_topic_json(bench_record::SERVING, &[record]);
        bench_record::write_merged(&out, &doc).expect("write serving record");
        println!("serving record written to {out}");
    }

    println!(
        "\nOK: Theorem-1 scheme built, {} pairs delivered with zero n² structures,\n\
         and the snapshot served a {}-query batch without any rebuild",
        stats.pairs, serve_queries
    );
}

fn gib(n: usize) -> f64 {
    (n as f64) * (n as f64) * 8.0 / (1024.0 * 1024.0 * 1024.0)
}
