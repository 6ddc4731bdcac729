//! Quickstart: build the AGM scale-free scheme on a small network and
//! route a few messages, printing the walk each message takes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use compact_routing::prelude::*;

fn main() {
    // A random geometric network: 200 routers on the unit square,
    // link cost = Euclidean length.
    let n = 200;
    let g = Family::Geometric.generate(n, 7);
    println!("network: {} nodes, {} links", g.n(), g.m());

    // Ground truth for reporting stretch (not used by the router).
    let d = graphkit::apsp(&g);
    println!("diameter {}, aspect ratio {:.1}", d.diameter(), d.aspect_ratio().unwrap_or(1.0));

    // Preprocess the routing scheme: k trades table size for stretch.
    let k = 3;
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 42));
    println!(
        "scheme built: k={k}, {} landmark trees, {} cover scales\n",
        scheme.stats().num_center_trees,
        scheme.stats().num_scales,
    );

    // Route a few messages. Every forwarding decision uses only the
    // tables stored at the current node plus the message header —
    // the destination is addressed by its arbitrary network id alone.
    for (s, t) in [(0u32, 150u32), (17, 93), (140, 4)] {
        let (src, dst) = (NodeId(s), NodeId(t));
        let trace = scheme.route(src, dst);
        assert!(trace.delivered);
        let opt = d.d(src, dst);
        println!(
            "route {s} -> {t}: {} hops, cost {} (optimal {}, stretch {:.2})",
            trace.hops(),
            trace.cost,
            opt,
            trace.cost as f64 / opt as f64
        );
        let ids: Vec<String> = trace.path.iter().map(|v| v.to_string()).collect();
        println!("  walk: {}\n", ids.join(" -> "));
    }

    // Aggregate over a workload and audit the tables.
    let stats = evaluate(&g, &d, &scheme, &pairs::sample(n, 2000, 1));
    let audit = StorageAudit::collect(&scheme, n);
    println!(
        "over 2000 random pairs: max stretch {:.2}, mean stretch {:.2}",
        stats.max_stretch, stats.mean_stretch
    );
    println!(
        "routing tables: mean {:.0} bits/node, max {} bits/node ({} total)",
        audit.mean_bits(),
        audit.max_bits(),
        graphkit::bits::fmt_bits(audit.total_bits())
    );
}
