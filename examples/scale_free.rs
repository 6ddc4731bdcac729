//! The paper's headline claim, live: routing-table size stays flat as
//! the network's aspect ratio Δ explodes from ~10 to ~10^12, while a
//! classical hierarchical scheme (whose tables scale with log Δ) keeps
//! growing.
//!
//! ```text
//! cargo run --release --example scale_free
//! ```

use compact_routing::prelude::*;

fn main() {
    let n = 64;
    let k = 2;
    println!("ring of {n} nodes; edge weights spread over 2^e for growing e\n");
    println!(
        "{:>10} {:>14} {:>16} {:>16} {:>12}",
        "log2(Δ)", "AGM bits/node", "hier bits/node", "hier scales", "AGM stretch"
    );
    for e in [4u32, 12, 20, 28, 36, 44] {
        let g =
            if e <= 6 { graphkit::gen::ring(n, 1) } else { graphkit::gen::exponential_ring(n, e) };
        let d = graphkit::apsp(&g);
        let agm = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 11));
        let hier = HierarchicalScheme::build(g.clone(), k, 11);
        let agm_bits = StorageAudit::collect(&agm, n).mean_bits();
        let hier_bits = StorageAudit::collect(&hier, n).mean_bits();
        let stats = evaluate(&g, &d, &agm, &pairs::all(n));
        println!(
            "{:>10.1} {:>14.0} {:>16.0} {:>16} {:>12.2}",
            d.aspect_ratio().unwrap_or(1.0).log2(),
            agm_bits,
            hier_bits,
            hier.num_scales(),
            stats.max_stretch,
        );
    }
    println!("\nThe AGM column is governed by n and k alone (scale-free); the hierarchical");
    println!("column tracks its scale count, which is exactly ⌈log2 Δ⌉ + 1.");
}
