//! Degradation regression tests for the panic-free-serve fixes: every
//! failure the serving path can hit — out-of-range ids, corrupt or
//! missing store state, empty batches — must cost an undelivered
//! route or a zeroed statistic, never a panicked thread. Each test
//! here pins one conversion from `unwrap`/indexing to checked access
//! surfaced by `agm-lint`'s call-graph pass.

use graphkit::gen::Family;
use graphkit::NodeId;
use routing_core::{serve_batch, Scheme, SchemeParams};
use sim::{pairs, Router};

fn small_scheme() -> (graphkit::Graph, Scheme) {
    let g = Family::Geometric.generate(80, 0xDE6);
    let s = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0xDE6));
    (g, s)
}

/// `route` with ids past the node range: the plan-table lookup is a
/// checked `get` now, so the trace reports non-delivery instead of
/// panicking on a row index.
#[test]
fn out_of_range_ids_are_undelivered_not_a_panic() {
    let (g, s) = small_scheme();
    let n = g.n() as u32;
    for (src, dst) in [(n, 0), (n + 17, 3), (0, n), (n + 1, n + 2), (u32::MAX, 0)] {
        let t = s.route(NodeId(src), NodeId(dst));
        if src >= n {
            assert!(!t.delivered, "{src}->{dst} must degrade, not deliver");
        }
    }
    // In-range routing still works after the probes.
    let (a, b) = pairs::sample(g.n(), 1, 7)[0];
    assert!(s.route(a, b).delivered);
}

/// Self-routes at the boundary of the id range stay delivered.
#[test]
fn boundary_self_route_still_delivers() {
    let (g, s) = small_scheme();
    let last = NodeId(g.n() as u32 - 1);
    let t = s.route(last, last);
    assert!(t.delivered);
    assert_eq!(t.cost, 0);
}

/// An empty batch exercises the percentile fallback (`sorted.get(idx)`
/// on an empty latency vector) and the zero-question throughput math.
#[test]
fn empty_serve_batch_reports_zeros() {
    let (_, s) = small_scheme();
    let r = serve_batch(&s, &[], 2);
    assert_eq!(r.queries, 0);
    assert_eq!(r.delivered, 0);
    assert_eq!(r.p50_us, 0.0);
    assert_eq!(r.p99_us, 0.0);
}

/// A batch containing out-of-range sources must come back with the
/// bad queries counted as undelivered — the worker threads survive.
#[test]
fn serve_batch_with_bad_queries_degrades_per_query() {
    let (g, s) = small_scheme();
    let n = g.n() as u32;
    let mut queries = pairs::sample(g.n(), 64, 0xBAD);
    let good = queries.len();
    queries.push((NodeId(n + 5), NodeId(0)));
    queries.push((NodeId(n + 6), NodeId(n + 7)));
    let r = serve_batch(&s, &queries, 4);
    assert_eq!(r.queries, good + 2);
    assert_eq!(r.delivered, good, "bad queries must be undelivered, not fatal");
}
