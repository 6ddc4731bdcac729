//! Repair ≡ rebuild, bit for bit: after any delta batch,
//! `Scheme::repair` must leave the scheme indistinguishable — routed
//! paths, costs, per-node storage accounting, and every saved snapshot
//! section but META — from a scheme built from scratch on the mutated
//! graph. This is the load-bearing guarantee behind `core::churn`
//! (CLAIMS.md "incremental repair").

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use graphkit::gen::Family;
use graphkit::wire::{Reader, SnapshotReader};
use graphkit::{apply_deltas, dijkstra, Graph, GraphDelta, NodeId, INFINITY};
use routing_core::{BuildStats, RepairOutcome, Scheme, SchemeParams};
use sim::{pairs, Router};

/// Every snapshot section but META (id 1): META holds the phase
/// timings, so it legitimately differs.
const SECTIONS: [(u32, &str); 8] = [
    (2, "GRAPH"),
    (3, "DECOMPOSITION"),
    (4, "HIERARCHY"),
    (5, "PLANS"),
    (6, "LANDMARK_BITS"),
    (7, "CENTER_DIR"),
    (8, "CENTER_TREES"),
    (9, "SCALE_COVERS"),
];

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique path in the system temp dir; removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new() -> Self {
        let seq = SEQ.fetch_add(1, Ordering::SeqCst);
        let name = format!("agm-repair-parity-{}-{seq}.bin", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The compared sections of `scheme`'s snapshot, in [`SECTIONS`] order.
fn saved_sections(scheme: &Scheme) -> Vec<Vec<u8>> {
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let sr = SnapshotReader::open(&path.0).expect("open snapshot");
    SECTIONS.iter().map(|&(id, _)| sr.section(id).expect("section")).collect()
}

fn connected(g: &Graph) -> bool {
    dijkstra(g, NodeId(0)).dist.iter().all(|&x| x != INFINITY)
}

/// A deterministic, connectivity-preserving, *localized* delta mix:
/// starting at edge index `start` (wrapping), fail up to `fails`
/// edges (skipping any whose removal would disconnect) and nudge the
/// weights of the next `nudges` edges by ±1. Consecutive edges in
/// `all_edges` order share endpoints, so the whole batch perturbs one
/// neighborhood — trees rooted far from it must survive repair.
fn delta_mix(g: &Graph, fails: usize, nudges: usize, start: usize) -> Vec<GraphDelta> {
    let edges: Vec<_> = g.all_edges().collect();
    let mut deltas = Vec::new();
    let mut failed = 0;
    let mut nudged = 0;
    for j in 0..edges.len() {
        let (u, v, w) = edges[(start + j) % edges.len()];
        if failed < fails {
            let mut trial = deltas.clone();
            trial.push(GraphDelta::EdgeFail { u, v });
            if connected(&apply_deltas(g, &trial)) {
                deltas = trial;
                failed += 1;
            }
        } else if nudged < nudges {
            // ±1 only: a large decrease shortens paths graph-wide and
            // would dirty every node, leaving nothing to reuse.
            let w2 = if nudged % 2 == 0 { w + 1 } else { w.saturating_sub(1).max(1) };
            if w2 != w {
                deltas.push(GraphDelta::SetWeight { u, v, w: w2 });
                nudged += 1;
            }
        } else {
            break;
        }
    }
    deltas
}

/// Every restore for the `EdgeFail`s inside `deltas`, at fresh weights.
fn restores(g: &Graph, deltas: &[GraphDelta]) -> Vec<GraphDelta> {
    deltas
        .iter()
        .filter_map(|d| match *d {
            GraphDelta::EdgeFail { u, v } => {
                let w = g.edge_weight(u, v).expect("failed edge existed");
                Some(GraphDelta::EdgeRestore { u, v, w: w + 3 })
            }
            _ => None,
        })
        .collect()
}

fn assert_same_scheme(label: &str, got: &Scheme, want: &Scheme, n: usize, pair_seed: u64) {
    for v in (0..n as u32).map(NodeId) {
        assert_eq!(got.storage_bits(v), want.storage_bits(v), "{label}: storage at {v}");
    }
    assert_eq!(got.header_bits_bound(), want.header_bits_bound(), "{label}: header bound");
    // Every build stat but the phase timings, the Lemma 3 counters
    // included.
    let stats =
        |s: &Scheme| format!("{:?}", BuildStats { phase_seconds: vec![], ..s.stats().clone() });
    assert_eq!(stats(got), stats(want), "{label}: build stats");
    // Every plan's source index, every center record, every cover
    // store and the landmark bits — what sampled routes can miss.
    for ((got, want), (_, name)) in
        saved_sections(got).iter().zip(saved_sections(want)).zip(SECTIONS)
    {
        assert!(*got == want, "{label}: snapshot section {name} differs");
    }
    for (s, t) in pairs::sample(n, 250, pair_seed) {
        let ta = got.route(s, t);
        let tb = want.route(s, t);
        assert_eq!(
            (ta.delivered, ta.cost, &ta.path),
            (tb.delivered, tb.cost, &tb.path),
            "{label}: {s}->{t}"
        );
    }
}

/// Family × k, two repair rounds each (fail+reweigh, then
/// restore+reweigh) — every round compared against a from-scratch
/// build of the mutated graph.
#[test]
fn repair_matches_fresh_build_bit_for_bit() {
    // Reuse is only demanded where the topology has locality: in the
    // small-world pref-attach family a single hub-adjacent edge dirties
    // nearly every distance vector, and a full rebuild is the *correct*
    // repair — parity still must hold there.
    for (fam, expect_reuse) in
        [(Family::Geometric, true), (Family::ExpRing, true), (Family::PrefAttach, false)]
    {
        let g0 = fam.generate(110, 0x9E9A);
        for k in [1usize, 2, 3] {
            let label = format!("{} k={k}", fam.label());
            let params = SchemeParams::new(k, 0x9E9A);
            let mut scheme = Scheme::build_on_demand(g0.clone(), params);

            let m = g0.m();
            let batch1 = delta_mix(&g0, 2, 3, m / 2);
            assert!(!batch1.is_empty(), "{label}: empty first batch");
            let g1 = apply_deltas(&g0, &batch1);
            match scheme.repair(&batch1) {
                RepairOutcome::Repaired(r) => {
                    // k = 1 is the degenerate full-table regime: every
                    // level-0 tree spans (nearly) all of V, so any dirty
                    // node forces a near-total rebuild. Reuse is only a
                    // meaningful guarantee at k >= 2 (sublinear trees).
                    assert!(
                        k == 1 || !expect_reuse || r.trees_reused > 0,
                        "{label}: no trees reused ({r:?})"
                    );
                }
                other => panic!("{label}: round 1 not Repaired: {other:?}"),
            }
            let fresh1 = Scheme::build_on_demand(g1.clone(), params);
            assert_same_scheme(&label, &scheme, &fresh1, g1.n(), 0x9E9B);

            let mut batch2 = restores(&g0, &batch1);
            let touched: Vec<_> = batch2.iter().map(|d| d.endpoints()).collect();
            batch2.extend(delta_mix(&g1, 0, 3, m / 3).into_iter().filter(|d| {
                matches!(d, GraphDelta::SetWeight { .. }) && !touched.contains(&d.endpoints())
            }));
            let g2 = apply_deltas(&g1, &batch2);
            match scheme.repair(&batch2) {
                RepairOutcome::Repaired(r) => {
                    assert!(
                        k == 1 || !expect_reuse || r.trees_reused > 0,
                        "{label}: round 2 no trees reused"
                    )
                }
                other => panic!("{label}: round 2 not Repaired: {other:?}"),
            }
            let fresh2 = Scheme::build_on_demand(g2.clone(), params);
            assert_same_scheme(&label, &scheme, &fresh2, g2.n(), 0x9E9C);
        }
    }
}

/// An empty batch is a no-op that reuses everything.
#[test]
fn empty_batch_reuses_everything() {
    let g = Family::Geometric.generate(100, 0xE0);
    let mut scheme = Scheme::build_on_demand(g, SchemeParams::new(2, 0xE0));
    let trees = scheme.stats().num_center_trees;
    match scheme.repair(&[]) {
        RepairOutcome::Repaired(r) => {
            assert_eq!(r.trees_reused, trees);
            assert_eq!(r.trees_rebuilt, 0);
            assert_eq!(r.dirty_nodes, 0);
        }
        other => panic!("empty batch: {other:?}"),
    }
}

/// A batch that disconnects the graph is deferred: the scheme stays
/// exactly as it was (stale but self-consistent), and repairing again
/// with the accumulated batch — once connectivity is back — succeeds.
#[test]
fn disconnecting_batch_defers_until_connectivity_returns() {
    let g0 = Family::Geometric.generate(100, 0xE3);
    let params = SchemeParams::new(2, 0xE3);
    let mut scheme = Scheme::build_on_demand(g0.clone(), params);

    // Isolate node 0: fail every incident edge.
    let mut pending: Vec<GraphDelta> = g0
        .all_edges()
        .filter(|&(u, v, _)| u == NodeId(0) || v == NodeId(0))
        .map(|(u, v, _)| GraphDelta::EdgeFail { u, v })
        .collect();
    assert!(!pending.is_empty());
    let before: Vec<_> =
        pairs::sample(g0.n(), 100, 0xE4).iter().map(|&(s, t)| scheme.route(s, t)).collect();
    assert!(matches!(
        scheme.repair(&pending),
        RepairOutcome::Deferred { reason: routing_core::DeferReason::Disconnected }
    ));
    // Untouched: identical routes on the (stale) structures.
    for (&(s, t), old) in pairs::sample(g0.n(), 100, 0xE4).iter().zip(&before) {
        assert_eq!(&scheme.route(s, t), old, "{s}->{t} changed under Deferred");
    }

    // Reconnect node 0 by restoring one failed edge; repair the
    // accumulated batch and compare against a fresh build.
    let (u, v) = pending[0].endpoints();
    let w = g0.edge_weight(u, v).expect("edge existed") + 1;
    pending.push(GraphDelta::EdgeRestore { u, v, w });
    let g2 = apply_deltas(&g0, &pending);
    assert!(connected(&g2));
    match scheme.repair(&pending) {
        RepairOutcome::Repaired(_) => {}
        other => panic!("accumulated repair: {other:?}"),
    }
    let fresh = Scheme::build_on_demand(g2.clone(), params);
    assert_same_scheme("defer-then-repair", &scheme, &fresh, g2.n(), 0xE5);
}

/// How a test reads a saved scheme back.
type Loader = fn(&Path) -> io::Result<Scheme>;

/// Both snapshot loaders: every record resident, or every record read
/// from the file on each fetch.
const LOADERS: [(&str, Loader); 2] =
    [("resident", |p| Scheme::load(p)), ("lazy", |p| Scheme::load_lazy(p))];

/// The two rounds of `repair_matches_fresh_build_bit_for_bit` on
/// `scheme`, which must hold the build of `g0` under `params`: each
/// round must come back `Repaired`, reuse trees wherever that test
/// demands it, and match a fresh build bit for bit. Returns each
/// round's reused-tree count.
fn two_repair_rounds(
    label: &str,
    scheme: &mut Scheme,
    g0: &Graph,
    params: SchemeParams,
    expect_reuse: bool,
) -> [usize; 2] {
    let k = params.k;
    let m = g0.m();
    let batch1 = delta_mix(g0, 2, 3, m / 2);
    let g1 = apply_deltas(g0, &batch1);
    let mut batch2 = restores(g0, &batch1);
    let touched: Vec<_> = batch2.iter().map(|d| d.endpoints()).collect();
    batch2.extend(delta_mix(&g1, 0, 3, m / 3).into_iter().filter(|d| {
        matches!(d, GraphDelta::SetWeight { .. }) && !touched.contains(&d.endpoints())
    }));
    let g2 = apply_deltas(&g1, &batch2);
    let mut reused = [0; 2];
    for (round, (batch, g, pair_seed)) in
        [(&batch1, &g1, 0x9E9B), (&batch2, &g2, 0x9E9C)].into_iter().enumerate()
    {
        match scheme.repair(batch) {
            RepairOutcome::Repaired(r) => {
                assert!(
                    k == 1 || !expect_reuse || r.trees_reused > 0,
                    "{label}: round {} reused no trees ({r:?})",
                    round + 1
                );
                reused[round] = r.trees_reused;
            }
            other => panic!("{label}: round {} not Repaired: {other:?}", round + 1),
        }
        let fresh = Scheme::build_on_demand(g.clone(), params);
        assert_same_scheme(label, scheme, &fresh, g.n(), pair_seed);
    }
    reused
}

/// Load → repair ≡ build → repair ≡ fresh build: a scheme loaded from
/// its snapshot, resident or lazy, repairs incrementally through the
/// same two rounds as `repair_matches_fresh_build_bit_for_bit`, reuses
/// exactly the trees the built scheme reuses (the reuse rule reads only
/// the records), and ends bit-identical to a fresh build.
#[test]
fn loaded_scheme_repairs_bit_for_bit() {
    for (fam, expect_reuse) in
        [(Family::Geometric, true), (Family::ExpRing, true), (Family::PrefAttach, false)]
    {
        let g0 = fam.generate(110, 0x9E9A);
        for k in [1usize, 2, 3] {
            let params = SchemeParams::new(k, 0x9E9A);
            let mut built = Scheme::build_on_demand(g0.clone(), params);
            let path = TempPath::new();
            built.save(&path.0).expect("save");
            let label = format!("{} k={k}", fam.label());
            let want =
                two_repair_rounds(&format!("{label} built"), &mut built, &g0, params, expect_reuse);
            for (mode, load) in LOADERS {
                let label = format!("{label} {mode}");
                let mut loaded = load(&path.0).expect("load");
                let got = two_repair_rounds(&label, &mut loaded, &g0, params, expect_reuse);
                assert_eq!(got, want, "{label}: reused trees per round");
            }
        }
    }
}

/// `(center, file offset, length)` of every center-tree record in a
/// snapshot, ascending by center.
fn center_records(path: &Path) -> Vec<(u32, usize, usize)> {
    let sr = SnapshotReader::open(path).expect("open");
    let (section, _) = sr.section_range(8).expect("CENTER_TREES");
    let dir = sr.section(7).expect("CENTER_DIR");
    let mut r = Reader::new(&dir);
    (0..r.len().expect("count"))
        .map(|_| {
            let (c, off, len) = (r.u32().unwrap(), r.u64().unwrap(), r.u32().unwrap());
            (c, (section + off) as usize, len as usize)
        })
        .collect()
}

fn read_u64(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Overwrite `array[t]` of the tree inside the record at the start of
/// `record` with `x`, where `array` 0 is the graph ids and 1 the
/// parents. Record layout: k (8), σ (8), hash-verified flag (1), the
/// length-prefixed hash coefficients, then the tree's length-prefixed
/// graph ids and parents.
fn set_tree_entry(record: &mut [u8], array: usize, t: usize, x: u32) {
    let ids = 25 + 8 * read_u64(record, 17);
    let m = read_u64(record, ids);
    let at = ids + array * (8 + 4 * m) + 8 + 4 * t;
    record[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

/// A corrupt record that an intact repair would reuse costs exactly
/// that one tree. Lazy loading never checksums the center trees, so the
/// corruption reaches repair: one record gets a parent index at its own
/// node (caught by the record check), or a host id naming node n (caught
/// by the host check). Repair still returns `Repaired`, reuses one tree
/// fewer than the intact run, and matches a fresh build bit for bit,
/// storage bits included. A corrupt record that the intact run rebuilds
/// changes nothing. `Scheme::load` checksums the section and refuses
/// both files.
#[test]
fn corrupt_record_costs_exactly_its_own_reuse() {
    let g0 = Family::Geometric.generate(110, 0x9E9A);
    let n = g0.n() as u32;
    let params = SchemeParams::new(2, 0x9E9A);
    let batch = delta_mix(&g0, 2, 3, g0.m() / 2);
    let g1 = apply_deltas(&g0, &batch);
    let fresh = Scheme::build_on_demand(g1.clone(), params);
    let path = TempPath::new();
    Scheme::build_on_demand(g0.clone(), params).save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    let repaired = |file: &Path| {
        let mut scheme = Scheme::load_lazy(file).expect("lazy load never reads the trees");
        match scheme.repair(&batch) {
            RepairOutcome::Repaired(r) => (scheme, r.trees_reused),
            other => panic!("not Repaired: {other:?}"),
        }
    };
    let (_, intact) = repaired(&path.0);
    assert!(intact > 0, "the intact run reuses no tree");
    let bad = TempPath::new();
    for (what, array) in [("parent at its node", 1), ("host outside the graph", 0)] {
        let mut hit = None;
        for (c, off, len) in center_records(&path.0) {
            let mut corrupt = bytes.clone();
            let record = &mut corrupt[off..off + len];
            let ids = 25 + 8 * read_u64(record, 17);
            let last = read_u64(record, ids) - 1;
            if last == 0 {
                continue; // a lone root has no parent to corrupt
            }
            set_tree_entry(record, array, last, if array == 1 { last as u32 } else { n });
            std::fs::write(&bad.0, &corrupt).expect("write corrupt");
            assert!(Scheme::load(&bad.0).is_err(), "{what} at {c}: resident load accepted it");
            let (scheme, reused) = repaired(&bad.0);
            let label = format!("{what} at center {c}");
            assert_same_scheme(&label, &scheme, &fresh, g1.n(), 0x9E9D);
            assert!(reused == intact || reused + 1 == intact, "{label}: reused {reused}");
            if reused + 1 == intact {
                hit = Some(c);
                break;
            }
        }
        assert!(hit.is_some(), "{what}: no corrupt record cost a reused tree");
    }
}

/// On this batch some trees lose leaf members although no changed edge
/// lies within their radius (a scan over families, seeds and batches
/// found it), so the only clause of the record rule that rejects them
/// is "every non-root leaf is a member". Repair must rebuild exactly
/// those trees and still match a fresh build bit for bit, built and
/// loaded lazily.
#[test]
fn trees_that_lose_a_leaf_member_are_rebuilt() {
    let g0 = Family::Geometric.generate(150, 2);
    let params = SchemeParams::new(2, 2);
    let batch = delta_mix(&g0, 3, 2, g0.m() * 6 / 7);
    let g1 = apply_deltas(&g0, &batch);
    let fresh = Scheme::build_on_demand(g1.clone(), params);
    let mut built = Scheme::build_on_demand(g0.clone(), params);
    let path = TempPath::new();
    built.save(&path.0).expect("save");
    let mut lazy = Scheme::load_lazy(&path.0).expect("load_lazy");
    for (mode, scheme) in [("built", &mut built), ("lazy", &mut lazy)] {
        match scheme.repair(&batch) {
            RepairOutcome::Repaired(r) => assert!(r.trees_reused > 0, "{mode}: {r:?}"),
            other => panic!("{mode}: not Repaired: {other:?}"),
        }
        assert_same_scheme(mode, scheme, &fresh, g1.n(), 0x9E9E);
    }
}
