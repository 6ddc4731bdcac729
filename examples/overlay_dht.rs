//! The paper's motivating application (§1): name-independent routing as
//! a DHT substrate. DHTs assign nodes *fixed identifiers* (hashes) that
//! say nothing about network position — exactly the name-independent
//! model. This example stores key→value pairs on the node whose id is
//! the closest hash successor, then serves GETs by routing to that id
//! with the AGM scheme, measuring the total link cost per lookup
//! against the optimal path.
//!
//! It also demonstrates the serving lifecycle end to end: the scheme
//! is built **matrix-free** (no n×n table anywhere), saved to a
//! versioned snapshot, dropped, and reloaded from the snapshot before
//! a single lookup runs — the DHT node that answers GETs is never the
//! process that ran preprocessing. Optimal distances for the stretch
//! column come from an on-demand ground truth (one Dijkstra per
//! client), not APSP. Then a link fails: the loaded scheme repairs in
//! place, reusing every center tree the failure provably left alone,
//! and serves the same GETs on the mutated graph.
//!
//! ```text
//! cargo run --release --example overlay_dht
//! ```

use compact_routing::prelude::*;
use graphkit::{apply_deltas, dijkstra, GraphDelta, INFINITY};
use routing_core::RepairOutcome;
use sim::validate_trace;
use treeroute::PolyHash;

/// The node responsible for a key: successor of `hash(key)` on the id
/// ring (consistent hashing over arbitrary node ids).
fn responsible(n: usize, h: &PolyHash, key: &str) -> NodeId {
    let target =
        h.eval(key.bytes().fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64)));
    // Node ids are 0..n; hash each and pick the circular successor.
    let mut best: Option<(u64, u32)> = None;
    let mut min: Option<(u64, u32)> = None;
    for v in 0..n as u32 {
        let hv = h.eval(v as u64);
        if min.is_none_or(|(m, _)| hv < m) {
            min = Some((hv, v));
        }
        if hv >= target && best.is_none_or(|(b, _)| hv < b) {
            best = Some((hv, v));
        }
    }
    NodeId(best.or(min).unwrap().1)
}

fn main() {
    // An internet-like topology: preferential attachment, 300 nodes.
    let n = 300;
    let g = Family::PrefAttach.generate(n, 21);

    // Build once (matrix-free), snapshot, and forget the builder.
    let snap = std::env::temp_dir().join(format!("agm-overlay-dht-{}.snap", std::process::id()));
    {
        let built = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 9));
        built.save(&snap).expect("snapshot save");
    }
    let snap_bytes = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);

    // The serving process: everything below runs against the loaded
    // snapshot — no Dijkstras, no tree construction.
    let mut scheme = Scheme::load(&snap).expect("snapshot load");
    let _ = std::fs::remove_file(&snap);
    let h = PolyHash::new(8, 2026);

    let keys = [
        "alpha.bin",
        "beta.conf",
        "gamma.log",
        "delta.db",
        "epsilon.txt",
        "zeta.iso",
        "eta.tar",
        "theta.json",
        "iota.wasm",
        "kappa.rs",
    ];
    println!("DHT over a {n}-node preferential-attachment network (k=3)");
    println!("serving from a {snap_bytes}-byte snapshot; build process exited\n");
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>8} {:>9}",
        "key", "home", "from", "cost", "optimal", "stretch"
    );

    // Optimal distances on demand: one Dijkstra per distinct client.
    let truth = OnDemandTruth::new(&g);
    let mut total_cost = 0u64;
    let mut total_opt = 0u64;
    let mut gets: Vec<(NodeId, NodeId)> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let home = responsible(n, &h, key);
        // GET issued from an arbitrary client node.
        let client = NodeId((i as u32 * 37 + 5) % n as u32);
        gets.push((client, home));
        let trace = scheme.route(client, home);
        assert!(trace.delivered, "lookup must reach the responsible node");
        let opt = truth.d(client, home);
        total_cost += trace.cost;
        total_opt += opt;
        println!(
            "{:<14} {:>6} {:>6} {:>8} {:>8} {:>8.2}x",
            key,
            home,
            client,
            trace.cost,
            opt,
            if opt == 0 { 1.0 } else { trace.cost as f64 / opt as f64 }
        );
    }
    println!(
        "\naggregate lookup cost: {} vs optimal {} ({:.2}x)",
        total_cost,
        total_opt,
        total_cost as f64 / total_opt.max(1) as f64
    );

    // A DHT front-end serves batches, not single GETs: push the same
    // lookups through the sharded serving engine for throughput and
    // tail-latency numbers.
    let batch: Vec<(NodeId, NodeId)> =
        std::iter::repeat_with(|| gets.iter().copied()).take(200).flatten().collect();
    let report = serve_batch(&scheme, &batch, 0);
    println!(
        "\nserved {} GETs on {} threads: {:.0} routes/s, p50 {:.1} µs, p99 {:.1} µs",
        report.queries, report.threads, report.routes_per_sec, report.p50_us, report.p99_us
    );

    // A link fails under the running DHT: the loaded scheme repairs in
    // place, and the same GETs must reach their homes over live links.
    let connected = |g: &Graph| !dijkstra(g, NodeId(0)).dist.contains(&INFINITY);
    let fail = |(u, v, _)| [GraphDelta::EdgeFail { u, v }];
    let failed = g.all_edges().map(fail).find(|d| connected(&apply_deltas(&g, d)));
    let failed = failed.expect("a link whose failure keeps the network connected");
    let g2 = apply_deltas(&g, &failed);
    let RepairOutcome::Repaired(r) = scheme.repair(&failed) else { panic!("must repair") };
    println!("\nlink failed: {} center trees reused, {} rebuilt", r.trees_reused, r.trees_rebuilt);
    for &(client, home) in &gets {
        let trace = scheme.route(client, home);
        assert!(trace.delivered && validate_trace(&g2, client, home, &trace).is_ok());
    }
    println!("all {} GETs delivered again over live links", gets.len());
    println!("No node was renamed and no key placement consulted the topology —");
    println!("the name-independent guarantee DHTs need (paper §1).");
}
