//! The serving engine: batched routing lookups spread across threads.
//!
//! A *serve* workload is the read side of the scheme's lifecycle —
//! no construction, no ground truth, just `route(src, dst)` over a
//! batch of queries against an already-built (typically
//! snapshot-loaded) router. Workers take the batch in chunks of
//! `CHUNK` queries from a shared counter, so a worker that stalls —
//! a preempted thread, or a virtual CPU the host deschedules — holds up
//! only the chunk in its hands while the others serve the rest. Every
//! query is served exactly once; which worker serves it depends on
//! timing, and nothing in the report does.
//!
//! The engine reports throughput (routes/sec over the batch wall
//! clock) and per-query latency percentiles (p50/p99, microseconds),
//! the numbers `BENCH_serving.json` records.

use std::sync::atomic::{AtomicUsize, Ordering};

use graphkit::NodeId;
use sim::Router;

/// Queries a worker takes from the batch at a time: a few hundred
/// microseconds of routing, so one atomic add per chunk costs nothing
/// and an idle worker never waits long for the last chunks.
const CHUNK: usize = 64;

/// Aggregate results of one served batch.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Queries issued.
    pub queries: usize,
    /// Queries whose trace reported delivery.
    pub delivered: usize,
    /// Threads the batch ran on.
    pub threads: usize,
    /// Batch wall clock, seconds.
    pub elapsed_seconds: f64,
    /// `queries / elapsed_seconds`.
    pub routes_per_sec: f64,
    /// Median per-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
}

/// Serve `queries` against `router` on `threads` threads (0 = all
/// available), each taking `CHUNK` (64) queries at a time until the
/// batch is done. Returns the merged throughput/latency report; per-query
/// results are not retained.
pub fn serve_batch(
    router: &(dyn Router + Sync),
    queries: &[(NodeId, NodeId)],
    threads: usize,
) -> ServeReport {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        threads
    };
    let next = AtomicUsize::new(0);
    let started = std::time::Instant::now();
    let shards: Vec<(usize, Vec<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut delivered = 0usize;
                    let mut lat_ns = Vec::new();
                    loop {
                        let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                        let Some(rest) = queries.get(start..).filter(|r| !r.is_empty()) else {
                            break;
                        };
                        for &(s, t) in rest.iter().take(CHUNK) {
                            let q0 = std::time::Instant::now();
                            let trace = router.route(s, t);
                            lat_ns.push(q0.elapsed().as_nanos() as u64);
                            delivered += trace.delivered as usize;
                        }
                    }
                    (delivered, lat_ns)
                })
            })
            .collect();
        // A panicked worker contributes zero routes: the chunks it took
        // show up as undelivered queries in the report (visible,
        // bounded damage) instead of taking the whole batch down.
        workers.into_iter().map(|w| w.join().unwrap_or((0, Vec::new()))).collect()
    });
    let elapsed_seconds = started.elapsed().as_secs_f64();
    let mut delivered = 0usize;
    let mut lat_ns = Vec::with_capacity(queries.len());
    for (d, l) in shards {
        delivered += d;
        lat_ns.extend(l);
    }
    lat_ns.sort_unstable();
    ServeReport {
        queries: queries.len(),
        delivered,
        threads,
        elapsed_seconds,
        routes_per_sec: if elapsed_seconds > 0.0 {
            queries.len() as f64 / elapsed_seconds
        } else {
            0.0
        },
        p50_us: percentile_us(&lat_ns, 50),
        p99_us: percentile_us(&lat_ns, 99),
    }
}

/// Nearest-rank percentile of sorted nanosecond latencies, in µs.
fn percentile_us(sorted_ns: &[u64], p: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ns.len() - 1) * p / 100;
    sorted_ns.get(idx).copied().unwrap_or(0) as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheme, SchemeParams};
    use graphkit::gen::Family;
    use sim::pairs;

    #[test]
    fn serve_batch_delivers_and_reports() {
        let g = Family::Geometric.generate(100, 0x5E1);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x5E1));
        let queries = pairs::sample(g.n(), 500, 0x5E2);
        for threads in [1usize, 3] {
            let report = serve_batch(&scheme, &queries, threads);
            assert_eq!(report.queries, 500);
            assert_eq!(report.delivered, 500, "scheme must deliver every query");
            assert_eq!(report.threads, threads);
            assert!(report.routes_per_sec > 0.0);
            assert!(report.p50_us <= report.p99_us);
        }
    }

    #[test]
    fn sharding_covers_every_query_exactly_once() {
        // Delivered count equals the query count at any thread count —
        // no query is dropped or double-served by the sharding.
        let g = Family::Ring.generate(60, 0x5E3);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x5E3));
        let queries = pairs::all(g.n());
        let total = queries.len();
        for threads in [1usize, 2, 5, 16] {
            let report = serve_batch(&scheme, &queries, threads);
            assert_eq!((report.queries, report.delivered), (total, total), "threads={threads}");
        }
    }
}
