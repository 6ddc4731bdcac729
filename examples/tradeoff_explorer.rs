//! Sweep the trade-off parameter k and print the space-stretch
//! frontier on one network — the trade-off of the paper's title,
//! measured.
//!
//! ```text
//! cargo run --release --example tradeoff_explorer [n] [family]
//! ```
//!
//! `family` ∈ {erdos-renyi, geometric, grid, pref-attach, ring,
//! exp-ring, exp-tree}; defaults: n = 256, geometric.

use compact_routing::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(256);
    let fam = args
        .get(1)
        .map(|name| {
            Family::ALL
                .into_iter()
                .find(|f| f.label() == name)
                .unwrap_or_else(|| panic!("unknown family {name}"))
        })
        .unwrap_or(Family::Geometric);

    let g = fam.generate(n, 3);
    let d = graphkit::apsp(&g);
    println!(
        "{} graph: n={}, m={}, diameter={}, Δ={:.1}\n",
        fam.label(),
        g.n(),
        g.m(),
        d.diameter(),
        d.aspect_ratio().unwrap_or(1.0)
    );

    // The trivial scheme anchors the frontier at stretch 1.
    let trivial = ShortestPathTables::build(g.clone());
    let tstats = evaluate(&g, &d, &trivial, &pairs::sample(g.n(), 2000, 5));
    let tbits = StorageAudit::collect(&trivial, g.n()).mean_bits();
    println!(
        "{:>3} {:>12} {:>12} {:>14} {:>14}",
        "k", "max stretch", "mean stretch", "bits/node", "vs trivial"
    );
    println!(
        "{:>3} {:>12.2} {:>12.2} {:>14.0} {:>14}",
        "-", tstats.max_stretch, tstats.mean_stretch, tbits, "1.00x"
    );

    for k in 1..=5 {
        if k == 1 && g.n() > 300 {
            continue; // k=1 tables are quadratic overall; skip at scale
        }
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 5));
        let stats = evaluate(&g, &d, &scheme, &pairs::sample(g.n(), 2000, 5));
        let bits = StorageAudit::collect(&scheme, g.n()).mean_bits();
        println!(
            "{:>3} {:>12.2} {:>12.2} {:>14.0} {:>13.2}x",
            k,
            stats.max_stretch,
            stats.mean_stretch,
            bits,
            bits / tbits
        );
    }
    println!("\nLarger k: smaller tables, longer routes — the space-stretch trade-off.");
}
