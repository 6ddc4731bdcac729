//! Snapshot parity: a scheme saved to a versioned snapshot and loaded
//! back — by what is conceptually another process — must route every
//! pair with byte-identical next-hop decisions, account identical
//! storage, and report identical build stats; and a corrupted or
//! truncated snapshot must surface as an `Err`, never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use graphkit::gen::Family;
use graphkit::metrics::apsp;
use graphkit::wire::{Reader, SnapshotReader};
use graphkit::{apply_deltas, GraphDelta};
use proptest::prelude::*;
use routing_core::{RepairOutcome, Scheme, SchemeParams};
use sim::{evaluate, pairs, validate_trace, RouteTrace, Router};

/// Snapshot section ids (stable across snapshot versions).
const SEC_CENTER_DIR: u32 = 7;
const SEC_CENTER_TREES: u32 = 8;

static SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique path in the system temp dir; removed by `TempPath::drop`.
struct TempPath(PathBuf);

impl TempPath {
    fn new() -> Self {
        let seq = SEQ.fetch_add(1, Ordering::SeqCst);
        TempPath(
            std::env::temp_dir()
                .join(format!("agm-snapshot-test-{}-{seq}.bin", std::process::id())),
        )
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Assert that `loaded` is behaviorally identical to `built`.
fn assert_parity(g: &graphkit::Graph, built: &Scheme, loaded: &Scheme, tag: &str) {
    assert_eq!(built.stats().s_budgets, loaded.stats().s_budgets, "{tag}");
    assert_eq!(built.stats().num_center_trees, loaded.stats().num_center_trees, "{tag}");
    assert_eq!(built.stats().num_cover_trees, loaded.stats().num_cover_trees, "{tag}");
    assert_eq!(built.stats().total_members, loaded.stats().total_members, "{tag}");
    assert_eq!(built.header_bits_bound(), loaded.header_bits_bound(), "{tag}");
    for v in g.nodes() {
        assert_eq!(built.storage_bits(v), loaded.storage_bits(v), "{tag} at {v}");
    }
    for (s, t) in pairs::sample(g.n(), 300, 0x51AB) {
        let ta = built.route(s, t);
        let tb = loaded.route(s, t);
        assert_eq!(ta.delivered, tb.delivered, "{tag} {s}->{t}");
        assert_eq!(ta.cost, tb.cost, "{tag} {s}->{t}");
        assert_eq!(ta.path, tb.path, "{tag} {s}->{t}");
    }
}

#[test]
fn saved_scheme_loads_and_routes_identically() {
    for (fam, k) in [
        (Family::Geometric, 2usize),
        (Family::ExpRing, 3),
        (Family::PrefAttach, 2),
        (Family::Grid, 1),
        (Family::ExpRing, 2),
    ] {
        let g = fam.generate(110, 0x54AD);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 0x54AD));
        let path = TempPath::new();
        scheme.save(&path.0).expect("save");
        let resident = Scheme::load(&path.0).expect("load");
        let lazy = Scheme::load_lazy(&path.0).expect("load_lazy");
        let tag = format!("{} k={k}", fam.label());
        assert_parity(&g, &scheme, &resident, &format!("{tag} resident"));
        assert_parity(&g, &scheme, &lazy, &format!("{tag} lazy"));
        assert_eq!(resident.params().k, k);
        assert_eq!(resident.params().seed, 0x54AD);
        assert_eq!(lazy.params().k, k);
    }
}

/// The parallel evaluator hammers a lazily loaded store from several
/// threads, each fetch landing in a per-thread buffer; its aggregate
/// stats must match the sequential engine — and the resident build —
/// bit for bit.
#[test]
fn lazy_scheme_survives_parallel_evaluation() {
    let g = Family::Geometric.generate(120, 0x5113);
    let d = apsp(&g);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 0x5113));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let lazy = Scheme::load_lazy(&path.0).expect("load_lazy");
    let workload = pairs::sample(g.n(), 400, 0x5114);
    let seq = evaluate(&g, &d, &lazy, &workload);
    let par = lazy.evaluate(&d, &workload, 4);
    let built = scheme.evaluate(&d, &workload, 1);
    assert_eq!(seq.failures, 0);
    for other in [&par, &built] {
        assert_eq!(seq.pairs, other.pairs);
        assert_eq!(seq.failures, other.failures);
        assert_eq!(seq.max_stretch.to_bits(), other.max_stretch.to_bits());
        assert_eq!(seq.mean_stretch.to_bits(), other.mean_stretch.to_bits());
    }
}

#[test]
fn snapshot_of_on_demand_build_round_trips() {
    let g = Family::ExpTree.generate(100, 0x54AF);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 0x54AF));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let loaded = Scheme::load(&path.0).expect("load");
    assert_parity(&g, &scheme, &loaded, "on-demand");
}

#[test]
fn truncated_snapshots_error_instead_of_panicking() {
    let g = Family::Geometric.generate(70, 0x54B0);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x54B0));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    let full = Scheme::load(&path.0).expect("intact snapshot must load");
    drop(full);
    // Every short prefix (subsampled beyond the header region) must
    // fail cleanly through the Err path.
    let cut = TempPath::new();
    let mut lens: Vec<usize> = (0..bytes.len().min(64)).collect();
    lens.extend((64..bytes.len()).step_by(89));
    for len in lens {
        std::fs::write(&cut.0, &bytes[..len]).expect("write truncated");
        assert!(Scheme::load(&cut.0).is_err(), "prefix of {len} bytes must not load");
    }
}

#[test]
fn corrupted_snapshots_error_instead_of_panicking() {
    let g = Family::Geometric.generate(70, 0x54B1);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x54B1));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    // Single-byte flips, subsampled across the file (the resident
    // loader checksums every section, so any payload flip must be
    // caught; header/table flips are caught structurally).
    let bad = TempPath::new();
    let mut offsets: Vec<usize> = (0..bytes.len().min(64)).collect();
    offsets.extend((64..bytes.len()).step_by(97));
    for off in offsets {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0x20;
        std::fs::write(&bad.0, &corrupt).expect("write corrupt");
        assert!(Scheme::load(&bad.0).is_err(), "flip at byte {off} must not load");
    }
}

/// `(file offset, length)` of every center-tree record in a snapshot.
fn center_records(path: &Path) -> Vec<(usize, usize)> {
    let sr = SnapshotReader::open(path).expect("open");
    let (section, _) = sr.section_range(SEC_CENTER_TREES).expect("center trees");
    let dir = sr.section(SEC_CENTER_DIR).expect("center directory");
    let mut r = Reader::new(&dir);
    (0..r.len().expect("count"))
        .map(|_| {
            let (_center, off, len) = (r.u32().unwrap(), r.u64().unwrap(), r.u32().unwrap());
            ((section + off) as usize, len as usize)
        })
        .collect()
}

fn read_u64(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Lazy mode never checksums CENTER_TREES, so a corrupt record reaches
/// the route path; it must cost that level, not the serving thread.
/// Covers the two corruptions that used to panic — a hash coefficient
/// outside GF(p) and graph ids moved out of range, which dropped the
/// source from its tree — plus a byte-flip sweep over the section.
#[test]
fn corrupt_center_trees_degrade_lazy_routes_instead_of_panicking() {
    let g = Family::Geometric.generate(80, 0x54B3);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x54B3));
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let bytes = std::fs::read(&path.0).expect("read back");
    let records = center_records(&path.0);
    assert!(!records.is_empty());
    let queries = pairs::sample(g.n(), 50, 0x54B4);
    let bad = TempPath::new();
    let serve = |corrupt: &[u8]| {
        std::fs::write(&bad.0, corrupt).expect("write corrupt");
        let lazy = Scheme::load_lazy(&bad.0).expect("lazy load never reads the trees");
        for &(s, t) in &queries {
            let _ = lazy.route(s, t);
        }
    };
    // Record layout: k (8), σ (8), hash-verified flag (1), then the
    // length-prefixed hash coefficients, then the tree's graph ids.
    let mut hashes = bytes.clone();
    for &(off, _) in &records {
        hashes[off + 25 + 7] |= 0x80; // top bit of the first coefficient
    }
    serve(&hashes);
    let mut ids = bytes.clone();
    for &(off, _) in &records {
        let at = off + 25 + 8 * read_u64(&ids, off + 17);
        for i in 0..read_u64(&ids, at) {
            let p = at + 8 + 4 * i;
            let v = u32::from_le_bytes(ids[p..p + 4].try_into().unwrap());
            ids[p..p + 4].copy_from_slice(&(v + 1_000_000).to_le_bytes());
        }
    }
    serve(&ids);
    // ~250 flips, spread over the whole section.
    let (first, last) = (records[0].0, records.iter().map(|&(o, l)| o + l).max().unwrap());
    for off in (first..last).step_by((last - first) / 250 + 1) {
        let mut flipped = bytes.clone();
        flipped[off] ^= 0x20;
        serve(&flipped);
    }
}

/// A center record may name a node that is not in the graph: the
/// record check cannot know n, and lazy mode never checksums the
/// section, so every fetch checks the host ids. With graph id 1 set to
/// u32::MAX − 1 in every record, no delivered route may fail
/// `validate_trace` (such a record is unreadable, so its level misses),
/// and a repair neither panics nor keeps such a record: it rebuilds
/// those trees and routes like a fresh build.
#[test]
fn records_naming_nodes_outside_the_graph_are_never_routed() {
    let g = Family::Geometric.generate(110, 0x54B7);
    let params = SchemeParams::new(2, 0x54B7);
    let scheme = Scheme::build_on_demand(g.clone(), params);
    let path = TempPath::new();
    scheme.save(&path.0).expect("save");
    let mut bytes = std::fs::read(&path.0).expect("read back");
    let mut corrupted = 0;
    for (off, _) in center_records(&path.0) {
        // Record layout as in the test above: graph ids after the
        // header and the hash coefficients.
        let at = off + 25 + 8 * read_u64(&bytes, off + 17);
        if read_u64(&bytes, at) > 1 {
            let p = at + 8 + 4;
            bytes[p..p + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            corrupted += 1;
        }
    }
    assert!(corrupted > 0);
    let bad = TempPath::new();
    std::fs::write(&bad.0, &bytes).expect("write corrupt");
    let mut lazy = Scheme::load_lazy(&bad.0).expect("lazy load never reads the trees");
    let nodes: Vec<_> = g.nodes().collect();
    for &s in &nodes {
        for &t in &nodes {
            let trace = lazy.route(s, t);
            if trace.delivered {
                assert_eq!(validate_trace(&g, s, t, &trace), Ok(()), "{s}->{t}");
            }
        }
    }
    let (u, v, w) = g.all_edges().next().expect("an edge");
    let batch = [GraphDelta::SetWeight { u, v, w: w + 1 }];
    assert!(matches!(lazy.repair(&batch), RepairOutcome::Repaired(_)));
    let fresh = Scheme::build_on_demand(apply_deltas(&g, &batch), params);
    assert_parity(&apply_deltas(&g, &batch), &fresh, &lazy, "repaired over corrupt hosts");
}

/// Two threads released together by a barrier route the same pairs on
/// a lazily loaded scheme: every fetch lands in a per-thread buffer,
/// and every trace must equal the resident scheme's.
#[test]
fn lazy_scheme_routes_identically_from_two_threads() {
    let g = Family::PrefAttach.generate(120, 0x54B5);
    let resident = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x54B5));
    let path = TempPath::new();
    resident.save(&path.0).expect("save");
    let lazy = Scheme::load_lazy(&path.0).expect("load_lazy");
    let queries = pairs::sample(g.n(), 300, 0x54B6);
    let want: Vec<RouteTrace> = queries.iter().map(|&(s, t)| resident.route(s, t)).collect();
    let barrier = Barrier::new(2);
    let got: Vec<Vec<RouteTrace>> = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                sc.spawn(|| {
                    barrier.wait();
                    queries.iter().map(|&(s, t)| lazy.route(s, t)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("routing thread panicked")).collect()
    });
    for (thread, traces) in got.iter().enumerate() {
        for (i, (a, b)) in want.iter().zip(traces).enumerate() {
            assert_eq!(a, b, "thread {thread}: {:?}", queries[i]);
        }
    }
}

#[test]
fn save_is_byte_deterministic() {
    let g = Family::PrefAttach.generate(90, 0x54B2);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 0x54B2));
    let a = TempPath::new();
    let b = TempPath::new();
    scheme.save(&a.0).expect("save a");
    scheme.save(&b.0).expect("save b");
    assert_eq!(std::fs::read(&a.0).unwrap(), std::fs::read(&b.0).unwrap());
    // And resaving a *loaded* scheme reproduces the same bytes — the
    // decode/encode pair is lossless, and a lazily loaded scheme copies
    // every record back out of its file unchanged.
    let loaded = Scheme::load(&a.0).expect("load");
    let lazy = Scheme::load_lazy(&a.0).expect("load_lazy");
    for (name, scheme) in [("resident", &loaded), ("lazy", &lazy)] {
        let c = TempPath::new();
        scheme.save(&c.0).expect("save c");
        assert_eq!(std::fs::read(&a.0).unwrap(), std::fs::read(&c.0).unwrap(), "{name} resave");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The acceptance criterion across random (family, n, k, seed):
    /// save → load → route is bit-identical on sampled pairs.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        fam_ix in 0usize..5,
        n in 60usize..120,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let fam = [
            Family::Geometric,
            Family::ErdosRenyi,
            Family::Grid,
            Family::ExpRing,
            Family::PrefAttach,
        ][fam_ix];
        let g = fam.generate(n, seed);
        let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
        let path = TempPath::new();
        scheme.save(&path.0).expect("save");
        let loaded = Scheme::load(&path.0).expect("load");
        for (s, t) in pairs::sample(g.n(), 150, seed ^ 0x5AB) {
            let ta = scheme.route(s, t);
            let tb = loaded.route(s, t);
            prop_assert_eq!(ta.delivered, tb.delivered, "{}->{}", s, t);
            prop_assert_eq!(ta.cost, tb.cost, "{}->{}", s, t);
            prop_assert_eq!(&ta.path, &tb.path, "{}->{}", s, t);
        }
    }
}
