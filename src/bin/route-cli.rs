//! `route-cli` — build routing schemes on graph files and query routes.
//!
//! ```text
//! route-cli gen <family> <n> <seed> > net.gr       # emit a workload graph
//! route-cli info net.gr                            # metric summary
//! route-cli route net.gr <k> <src> <dst> [seed]    # route one message
//! route-cli eval  net.gr <k> [pairs] [seed]        # stretch + storage report
//! ```
//!
//! Graph files use the DIMACS-flavored format of [`graphkit::io`].

use compact_routing::prelude::*;
use graphkit::metrics::apsp;
use graphkit::{dijkstra, INFINITY};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(|s| s.as_str()) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  route-cli gen <family> <n> <seed>\n  route-cli info <file>\n  \
                 route-cli route <file> <k> <src> <dst> [seed]\n  \
                 route-cli eval <file> <k> [pairs] [seed]\n\nfamilies: {}",
                Family::ALL.map(|f| f.label()).join(", ")
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

type CliResult = Result<(), String>;

fn load(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    graphkit::io::parse_graph(&text).map_err(|e| format!("{path}: {e}"))
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize, name: &str) -> Result<T, String> {
    args.get(i)
        .ok_or_else(|| format!("missing argument <{name}>"))?
        .parse()
        .map_err(|_| format!("bad value for <{name}>: {}", args[i]))
}

/// Optional positional: `default` only when absent — a present but
/// unparsable value is an error, never silently replaced.
fn arg_or<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    name: &str,
    default: T,
) -> Result<T, String> {
    match args.get(i) {
        None => Ok(default),
        Some(_) => arg(args, i, name),
    }
}

/// Reject, as CLI errors, the inputs the scheme's constructor asserts
/// on; connectivity is checked by each caller from its own distances.
fn check_buildable(g: &Graph, k: usize) -> CliResult {
    if k == 0 {
        return Err("k must be at least 1".into());
    }
    if g.n() < 2 {
        return Err(format!("the scheme needs at least 2 nodes, the graph has {}", g.n()));
    }
    Ok(())
}

const DISCONNECTED: &str = "the graph is disconnected; the scheme needs a connected graph";

fn cmd_gen(args: &[String]) -> CliResult {
    let name: String = arg(args, 0, "family")?;
    let n: usize = arg(args, 1, "n")?;
    let seed: u64 = arg(args, 2, "seed")?;
    let fam = Family::ALL
        .into_iter()
        .find(|f| f.label() == name)
        .ok_or_else(|| format!("unknown family {name}"))?;
    print!("{}", graphkit::io::write_graph(&fam.generate(n, seed)));
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let g = load(&arg::<String>(args, 0, "file")?)?;
    let d = apsp(&g);
    println!("nodes       {}", g.n());
    println!("edges       {}", g.m());
    println!("connected   {}", d.connected());
    println!("diameter    {}", d.diameter());
    println!("min dist    {}", d.min_distance());
    println!(
        "aspect Δ    {:.1} (log2 ≈ {:.1})",
        d.aspect_ratio().unwrap_or(1.0),
        d.aspect_ratio().unwrap_or(1.0).log2()
    );
    Ok(())
}

fn cmd_route(args: &[String]) -> CliResult {
    let g = load(&arg::<String>(args, 0, "file")?)?;
    let k: usize = arg(args, 1, "k")?;
    let src: u32 = arg(args, 2, "src")?;
    let dst: u32 = arg(args, 3, "dst")?;
    let seed: u64 = arg_or(args, 4, "seed", 42)?;
    if src as usize >= g.n() || dst as usize >= g.n() {
        return Err("src/dst out of range".into());
    }
    check_buildable(&g, k)?;
    // One Dijkstra from the source: the connectivity check and the
    // optimal cost.
    let dist = dijkstra(&g, NodeId(src)).dist;
    if dist.contains(&INFINITY) {
        return Err(DISCONNECTED.into());
    }
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
    let trace = scheme.route(NodeId(src), NodeId(dst));
    if !trace.delivered {
        return Err("not delivered".into());
    }
    sim::validate_trace(&g, NodeId(src), NodeId(dst), &trace)
        .map_err(|e| format!("trace audit failed: {e:?}"))?;
    let opt = dist[dst as usize];
    println!("delivered in {} hops, cost {}", trace.hops(), trace.cost);
    println!("optimal cost {}, stretch {:.3}", opt, trace.cost as f64 / opt.max(1) as f64);
    let walk: Vec<String> = trace.path.iter().map(|v| v.to_string()).collect();
    println!("walk: {}", walk.join(" -> "));
    Ok(())
}

fn cmd_eval(args: &[String]) -> CliResult {
    let g = load(&arg::<String>(args, 0, "file")?)?;
    let k: usize = arg(args, 1, "k")?;
    let num_pairs: usize = arg_or(args, 2, "pairs", 2000)?;
    let seed: u64 = arg_or(args, 3, "seed", 42)?;
    check_buildable(&g, k)?;
    let d = apsp(&g);
    if !d.connected() {
        return Err(DISCONNECTED.into());
    }
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
    let workload = if g.n() * (g.n() - 1) <= num_pairs {
        pairs::all(g.n())
    } else {
        pairs::sample(g.n(), num_pairs, seed)
    };
    let stats = evaluate(&g, &d, &scheme, &workload);
    let audit = StorageAudit::collect(&scheme, g.n());
    println!("pairs        {}", stats.pairs);
    println!("delivered    {}/{}", stats.pairs - stats.failures, stats.pairs);
    println!("max stretch  {:.3}", stats.max_stretch);
    println!("mean stretch {:.3}", stats.mean_stretch);
    println!("p99 stretch  {:.3}", stats.p99_stretch);
    println!("mean hops    {:.1}", stats.mean_hops);
    println!("bits/node    mean {:.0}, max {}", audit.mean_bits(), audit.max_bits());
    println!("total tables {}", graphkit::bits::fmt_bits(audit.total_bits()));
    Ok(())
}
