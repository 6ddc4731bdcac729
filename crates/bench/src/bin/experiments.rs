//! Regenerate the paper's tables/figures.
//!
//! ```text
//! experiments [--quick] [--pairs-sampled N] [--threads T] [ids…|all]
//! ```
//!
//! Without ids, prints the registry. An unknown flag or experiment id
//! prints it too and exits 2 before any experiment runs. `--quick`
//! shrinks instance sizes (the mode the integration tests run).
//! `--pairs-sampled` overrides the evaluation workload budget and
//! `--threads` the evaluation/prefetch worker count (0 = auto). Tables
//! are bit-identical across `--threads` settings.

use routing_bench::RunConfig;

fn usage(registry: &[(&str, &str, routing_bench::Runner)]) -> ! {
    eprintln!(
        "usage: experiments [--quick] [--pairs-sampled N] [--threads T] [ids…|all]\n\n\
         available experiments:"
    );
    for (id, desc, _) in registry {
        eprintln!("  {id:<4} {desc}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = routing_bench::registry();
    let mut cfg = RunConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg.quick = true,
            "--pairs-sampled" => {
                let v = it.next().and_then(|v| v.parse().ok()).filter(|&v: &usize| v > 0);
                let Some(v) = v else {
                    eprintln!("--pairs-sampled needs a positive integer");
                    usage(&registry);
                };
                cfg.pairs_sampled = Some(v);
            }
            "--threads" => {
                let v = it.next().and_then(|v| v.parse().ok());
                let Some(v) = v else {
                    eprintln!("--threads needs an integer (0 = auto)");
                    usage(&registry);
                };
                cfg.threads = v;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                usage(&registry);
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage(&registry);
    }
    if let Some(bad) =
        ids.iter().find(|i| *i != "all" && !registry.iter().any(|(id, _, _)| id == i))
    {
        eprintln!("unknown experiment {bad}");
        usage(&registry);
    }
    let run_all = ids.iter().any(|i| i == "all");
    for (id, desc, runner) in &registry {
        if run_all || ids.iter().any(|i| i == id) {
            eprintln!("[experiments] running {id} — {desc}");
            let started = std::time::Instant::now();
            print!("{}", runner(&cfg));
            eprintln!("[experiments] {id} done in {:.1}s", started.elapsed().as_secs_f64());
        }
    }
}
