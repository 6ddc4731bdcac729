//! Machine-readable benchmark records — the schema behind the
//! checked-in `BENCH_<topic>.json` documents.
//!
//! The workspace has no JSON dependency (offline container), so
//! records are rendered and scanned by hand through a small generic
//! layer: a [`TopicRecord`] is an ordered list of typed fields, and
//! [`render_topic_json`] renders any list of them as a
//! `BENCH_<topic>.json` document. Three schemas ride on it, each a
//! function that lays out one record's fields:
//!
//! * [`construction_record`] → `BENCH_construction.json`
//!   ([`CONSTRUCTION`]; the `sc` experiment; the CI construction smoke
//!   compares its peak RSS against the checked-in baseline and fails
//!   on a >2× regression);
//! * [`serving_record`] → `BENCH_serving.json` ([`SERVING`]; the
//!   `serve` experiment and the CI serving smoke: routes/sec and
//!   p50/p99 latency against a loaded snapshot);
//! * [`evaluation_record`] → `BENCH_evaluation.json` ([`EVALUATION`];
//!   the `churn` experiment: one record per mutate→repair epoch —
//!   stale vs repaired delivery rate and stretch percentiles, plus what
//!   the repair reused).
//!
//! Baseline scanning works on any topic document via
//! [`baseline_value`], anchored on the record's leading `"n"` field.
//! Writers go through [`write_merged`], which replaces only the records
//! at the sizes they measured, so a reference-size run never erases the
//! rows other sizes (and the CI gates) rely on.

use crate::churn::EpochRow;
use crate::repair::RepairOutcome;
use crate::serve::ServeReport;
use crate::BuildStats;

/// One typed field value of a [`TopicRecord`].
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// An unsigned integer, rendered bare.
    Int(u64),
    /// A float, rendered with three decimals.
    Float(f64),
    /// A list of unsigned integers.
    IntList(Vec<u64>),
    /// An ordered string→float map (e.g. per-phase seconds).
    FloatMap(Vec<(String, f64)>),
    /// A short enum-like string (rendered quoted; must not need
    /// escaping).
    Str(String),
}

impl FieldValue {
    fn render(&self) -> String {
        match self {
            FieldValue::Int(x) => x.to_string(),
            FieldValue::Float(x) => format!("{x:.3}"),
            FieldValue::Str(s) => format!("\"{s}\""),
            FieldValue::IntList(xs) => {
                let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
                format!("[{}]", items.join(", "))
            }
            FieldValue::FloatMap(m) => {
                let items: Vec<String> =
                    m.iter().map(|(k, v)| format!("\"{k}\": {v:.3}")).collect();
                format!("{{{}}}", items.join(", "))
            }
        }
    }
}

/// One benchmark datapoint of any topic: ordered `(key, value)`
/// fields, rendered in insertion order.
#[derive(Clone, Debug, Default)]
pub struct TopicRecord {
    fields: Vec<(String, FieldValue)>,
}

impl TopicRecord {
    /// An empty record.
    pub fn new() -> Self {
        TopicRecord::default()
    }

    /// Append a field (builder-style).
    pub fn field(mut self, key: &str, value: FieldValue) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }
}

/// Render a full `BENCH_<topic>.json` document: a `benchmark` name
/// plus the records in order.
pub fn render_topic_json(benchmark: &str, records: &[TopicRecord]) -> String {
    let body: Vec<String> = records
        .iter()
        .map(|r| {
            let fields: Vec<String> =
                r.fields.iter().map(|(k, v)| format!("      \"{k}\": {}", v.render())).collect();
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    document(benchmark, &body)
}

/// The document around already-rendered record blocks.
fn document(benchmark: &str, records: &[impl AsRef<str>]) -> String {
    let body: Vec<&str> = records.iter().map(AsRef::as_ref).collect();
    format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"records\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    )
}

/// The rendered record blocks of a topic document, `{` to `}`, in order.
fn record_blocks(doc: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find("\n    {\n") {
        let block = &rest[at + 1..];
        let Some(end) = block.find("\n    }") else { break };
        out.push(&block[..end + "\n    }".len()]);
        rest = &block[end..];
    }
    out
}

/// Merge a freshly rendered topic document into the text of an
/// existing one: every existing record whose `(n, k)` no fresh record
/// has is kept byte for byte, in order, and the fresh records follow,
/// replacing the ones that matched. Text with no records keeps nothing.
fn merge_topic_json(existing: &str, fresh: &str) -> String {
    let key = |block: &str| {
        let int = |name| baseline_anchors(block, name).first().copied();
        (int("n"), int("k"))
    };
    let fresh_blocks = record_blocks(fresh);
    let fresh_keys: Vec<_> = fresh_blocks.iter().map(|b| key(b)).collect();
    let mut blocks: Vec<&str> =
        record_blocks(existing).into_iter().filter(|b| !fresh_keys.contains(&key(b))).collect();
    blocks.extend(fresh_blocks);
    let benchmark = fresh.split("\"benchmark\": \"").nth(1).and_then(|s| s.split('"').next());
    document(benchmark.unwrap_or_default(), &blocks)
}

/// Write the freshly rendered topic document `fresh` into the one at
/// `path` (a missing file starts empty): existing records at an
/// `(n, k)` that `fresh` has no record for are kept byte for byte, the
/// rest are replaced by `fresh`'s records, which follow them.
pub fn write_merged(path: impl AsRef<std::path::Path>, fresh: &str) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    std::fs::write(path, merge_topic_json(&existing, fresh))
}

/// Benchmark name of `BENCH_construction.json`.
pub const CONSTRUCTION: &str = "agm-theorem1-construction";
/// Benchmark name of `BENCH_serving.json`.
pub const SERVING: &str = "agm-theorem1-serving";
/// Benchmark name of `BENCH_evaluation.json`.
pub const EVALUATION: &str = "agm-theorem1-evaluation";

/// One Theorem-1 construction datapoint: graph size, `k`, the worker
/// cap the build ran under (0 = auto), its wall clock, `VmHWM` in KiB
/// (0 where procfs is unavailable), and the build's stats (field order
/// is the document format; never reorder).
pub fn construction_record(
    n: usize,
    k: usize,
    threads: usize,
    build_seconds: f64,
    peak_rss_kib: u64,
    stats: &BuildStats,
) -> TopicRecord {
    TopicRecord::new()
        .field("n", FieldValue::Int(n as u64))
        .field("k", FieldValue::Int(k as u64))
        .field("threads", FieldValue::Int(threads as u64))
        .field("build_seconds", FieldValue::Float(build_seconds))
        .field("peak_rss_kib", FieldValue::Int(peak_rss_kib))
        .field("num_center_trees", FieldValue::Int(stats.num_center_trees as u64))
        .field("total_members", FieldValue::Int(stats.total_members as u64))
        .field(
            "s_budgets",
            FieldValue::IntList(stats.s_budgets.iter().map(|&b| b as u64).collect()),
        )
        .field("phase_seconds", FieldValue::FloatMap(stats.phase_seconds.clone()))
}

/// One serving datapoint: a snapshot-loaded scheme (`snapshot_bytes` on
/// disk, loaded in `load_seconds`) answering a query batch, optionally
/// next to a named comparison router served the same batch (e.g.
/// shortest-path tables, where one is feasible to build).
pub fn serving_record(
    n: usize,
    k: usize,
    snapshot_bytes: u64,
    load_seconds: f64,
    scheme: &ServeReport,
    baseline: Option<(&str, &ServeReport)>,
) -> TopicRecord {
    let serve = |r: TopicRecord, prefix: &str, rep: &ServeReport| {
        r.field(&format!("{prefix}routes_per_sec"), FieldValue::Float(rep.routes_per_sec))
            .field(&format!("{prefix}p50_us"), FieldValue::Float(rep.p50_us))
            .field(&format!("{prefix}p99_us"), FieldValue::Float(rep.p99_us))
    };
    let mut r = TopicRecord::new()
        .field("n", FieldValue::Int(n as u64))
        .field("k", FieldValue::Int(k as u64))
        .field("queries", FieldValue::Int(scheme.queries as u64))
        .field("delivered", FieldValue::Int(scheme.delivered as u64))
        .field("threads", FieldValue::Int(scheme.threads as u64))
        .field("snapshot_bytes", FieldValue::Int(snapshot_bytes))
        .field("load_seconds", FieldValue::Float(load_seconds));
    r = serve(r, "", scheme);
    if let Some((name, rep)) = baseline {
        r = r.field(&format!("baseline_{name}_queries"), FieldValue::Int(rep.queries as u64));
        r = serve(r, &format!("baseline_{name}_"), rep);
    }
    r
}

/// One churn-epoch datapoint: the stale scheme's degradation on the
/// mutated graph next to the repaired scheme on the same workload, plus
/// how much of the structure the repair reused. `outcome` is
/// `repaired`, `rebuilt-<reason>` or `deferred-<reason>`; the reuse
/// counters are zero unless repaired, and the post-repair fields are
/// present only when repair ran this epoch (field order is the document
/// format; never reorder).
pub fn evaluation_record(n: usize, k: usize, row: &EpochRow) -> TopicRecord {
    let (outcome, dirty_nodes, trees_rebuilt, trees_reused, repair_seconds) = match &row.outcome {
        RepairOutcome::Repaired(r) => {
            ("repaired".to_string(), r.dirty_nodes, r.trees_rebuilt, r.trees_reused, r.seconds)
        }
        RepairOutcome::RebuiltFull { reason, seconds } => {
            (format!("rebuilt-{reason:?}").to_lowercase(), 0, 0, 0, *seconds)
        }
        RepairOutcome::Deferred { reason } => {
            (format!("deferred-{reason:?}").to_lowercase(), 0, 0, 0, 0.0)
        }
    };
    let r = TopicRecord::new()
        .field("n", FieldValue::Int(n as u64))
        .field("k", FieldValue::Int(k as u64))
        .field("epoch", FieldValue::Int(row.epoch as u64))
        .field("batch_deltas", FieldValue::Int(row.batch_deltas as u64))
        .field("pending_deltas", FieldValue::Int(row.pending_deltas as u64))
        .field("pre_delivery_rate", FieldValue::Float(row.pre_delivery_rate()))
        .field("pre_p50_stretch", FieldValue::Float(row.pre.p50_stretch))
        .field("pre_p99_stretch", FieldValue::Float(row.pre.p99_stretch))
        .field("pre_max_stretch", FieldValue::Float(row.pre.max_stretch))
        .field("outcome", FieldValue::Str(outcome))
        .field("dirty_nodes", FieldValue::Int(dirty_nodes as u64))
        .field("trees_rebuilt", FieldValue::Int(trees_rebuilt as u64))
        .field("trees_reused", FieldValue::Int(trees_reused as u64))
        .field("repair_seconds", FieldValue::Float(repair_seconds));
    match (row.post_delivery_rate(), &row.post) {
        (Some(rate), Some(post)) => r
            .field("post_delivery_rate", FieldValue::Float(rate))
            .field("post_p50_stretch", FieldValue::Float(post.p50_stretch))
            .field("post_p99_stretch", FieldValue::Float(post.p99_stretch))
            .field("post_max_stretch", FieldValue::Float(post.max_stretch)),
        _ => r,
    }
}

/// Scan a rendered topic document for the record whose `anchor` field
/// (rendered first, e.g. `"n"`) equals `anchor_val`, and return the
/// raw text of `key` within that record (fields render in fixed
/// order, so the next occurrence of `key` after the anchor belongs to
/// that record).
pub fn baseline_value<'a>(
    json: &'a str,
    anchor: &str,
    anchor_val: u64,
    key: &str,
) -> Option<&'a str> {
    let anchor = format!("\"{anchor}\": {anchor_val},");
    let at = json.find(&anchor)?;
    let rest = &json[at + anchor.len()..];
    let needle = format!("\"{key}\": ");
    let kat = rest.find(&needle)?;
    let val = &rest[kat + needle.len()..];
    let end = val.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(val.len());
    Some(&val[..end])
}

/// The checked-in baseline's peak RSS (KiB) at graph size `n`.
pub fn baseline_peak_rss_kib(json: &str, n: usize) -> Option<u64> {
    baseline_value(json, "n", n as u64, "peak_rss_kib")?.parse().ok()
}

/// Every value the `anchor` field takes across a rendered topic
/// document, in record order — one entry per record.
pub fn baseline_anchors(json: &str, anchor: &str) -> Vec<u64> {
    let needle = format!("\"{anchor}\": ");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find(&needle) {
        let val = &rest[at + needle.len()..];
        let end = val.find(|c: char| !c.is_ascii_digit()).unwrap_or(val.len());
        if let Ok(v) = val[..end].parse() {
            out.push(v);
        }
        rest = &val[end..];
    }
    out
}

/// The anchor value of the record closest to `n` (ties break low) —
/// the gating anchor when the current run's exact size has no
/// checked-in epoch.
pub fn baseline_nearest_anchor(json: &str, anchor: &str, n: u64) -> Option<u64> {
    baseline_anchors(json, anchor).into_iter().min_by_key(|&a| (a.abs_diff(n), a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let small = BuildStats {
            num_center_trees: 9_000,
            total_members: 1_000_000,
            s_budgets: vec![60, 40],
            phase_seconds: vec![("plans".into(), 1.0), ("budgets".into(), 2.5)],
            ..BuildStats::default()
        };
        let large = BuildStats {
            num_center_trees: 45_000,
            total_members: 9_000_000,
            s_budgets: vec![80, 50],
            phase_seconds: vec![("plans".into(), 5.0)],
            ..BuildStats::default()
        };
        let records = [
            construction_record(10_000, 2, 1, 12.345, 400_000, &small),
            construction_record(50_000, 2, 0, 222.5, 2_000_000, &large),
        ];
        render_topic_json(CONSTRUCTION, &records)
    }

    #[test]
    fn roundtrip_per_size() {
        let json = sample();
        assert_eq!(baseline_peak_rss_kib(&json, 10_000), Some(400_000));
        assert_eq!(baseline_peak_rss_kib(&json, 50_000), Some(2_000_000));
        assert_eq!(baseline_value(&json, "n", 50_000, "build_seconds"), Some("222.500"));
        assert_eq!(baseline_peak_rss_kib(&json, 99), None);
    }

    #[test]
    fn nearest_anchor_selection() {
        let json = sample();
        assert_eq!(baseline_anchors(&json, "n"), vec![10_000, 50_000]);
        // Exact hit, nearest-below, nearest-above, and tie-breaks-low.
        assert_eq!(baseline_nearest_anchor(&json, "n", 50_000), Some(50_000));
        assert_eq!(baseline_nearest_anchor(&json, "n", 12_000), Some(10_000));
        assert_eq!(baseline_nearest_anchor(&json, "n", 1_000_000), Some(50_000));
        assert_eq!(baseline_nearest_anchor(&json, "n", 30_000), Some(10_000));
        assert_eq!(baseline_nearest_anchor("{}", "n", 5), None);
    }

    #[test]
    fn rendered_document_shape() {
        let json = sample();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"benchmark\": \"agm-theorem1-construction\""));
        assert!(json.contains("\"phase_seconds\": {\"plans\": 1.000, \"budgets\": 2.500}"));
    }

    #[test]
    fn arbitrary_topics_render_and_scan() {
        // The generalized layer: any topic, any field set, scanned
        // back through the same anchor machinery.
        let rec = TopicRecord::new()
            .field("n", FieldValue::Int(500))
            .field("widgets", FieldValue::Int(7))
            .field("ratio", FieldValue::Float(2.5));
        let json = render_topic_json("agm-widgets", &[rec]);
        assert!(json.contains("\"benchmark\": \"agm-widgets\""));
        assert_eq!(baseline_value(&json, "n", 500, "widgets"), Some("7"));
        assert_eq!(baseline_value(&json, "n", 500, "ratio"), Some("2.500"));
        assert_eq!(baseline_value(&json, "n", 501, "widgets"), None);
    }

    #[test]
    fn serving_record_shape() {
        let report = ServeReport {
            queries: 10_000,
            delivered: 10_000,
            threads: 4,
            elapsed_seconds: 2.0,
            routes_per_sec: 5_000.0,
            p50_us: 150.25,
            p99_us: 900.5,
        };
        let rec =
            serving_record(50_000, 2, 123_456_789, 1.5, &report, Some(("sp_tables", &report)));
        let json = render_topic_json(SERVING, &[rec]);
        assert!(json.contains("\"benchmark\": \"agm-theorem1-serving\""));
        assert_eq!(baseline_value(&json, "n", 50_000, "queries"), Some("10000"));
        assert_eq!(baseline_value(&json, "n", 50_000, "routes_per_sec"), Some("5000.000"));
        assert_eq!(baseline_value(&json, "n", 50_000, "p99_us"), Some("900.500"));
        assert_eq!(
            baseline_value(&json, "n", 50_000, "baseline_sp_tables_p50_us"),
            Some("150.250")
        );
    }

    #[test]
    fn merge_keeps_records_at_other_sizes() {
        let checked_in = include_str!("../../../BENCH_serving.json");
        let anchor = record_blocks(checked_in);
        assert_eq!(anchor.len(), 1);
        let report = ServeReport {
            queries: 20_000,
            delivered: 20_000,
            threads: 2,
            elapsed_seconds: 0.1,
            routes_per_sec: 200_000.0,
            p50_us: 5.0,
            p99_us: 12.0,
        };
        let small =
            |load_seconds| serving_record(3_000, 2, 500_000_000, load_seconds, &report, None);
        let merged = merge_topic_json(checked_in, &render_topic_json(SERVING, &[small(1.5)]));
        // The 50k CI anchor survives byte for byte, and the new row is
        // appended after it.
        assert_eq!(record_blocks(&merged)[0], anchor[0]);
        assert!(merged.starts_with("{\n  \"benchmark\": \"agm-theorem1-serving\""));
        assert_eq!(baseline_value(&merged, "n", 3_000, "queries"), Some("20000"));
        assert_eq!(baseline_value(&merged, "n", 50_000, "queries"), Some("10000"));
        // Re-measuring a size replaces its row instead of adding one.
        let merged = merge_topic_json(&merged, &render_topic_json(SERVING, &[small(2.0)]));
        assert_eq!(record_blocks(&merged).len(), 2);
        assert_eq!(record_blocks(&merged)[0], anchor[0]);
        assert_eq!(baseline_value(&merged, "n", 3_000, "load_seconds"), Some("2.000"));
        // A fresh document merged into nothing is the fresh document.
        let fresh = sample();
        assert_eq!(merge_topic_json("", &fresh), fresh);
        assert_eq!(merge_topic_json(&fresh, &fresh), fresh);
    }

    #[test]
    fn evaluation_record_shape() {
        let stats = |failures: usize| sim::StretchStats {
            pairs: 200,
            failures,
            max_stretch: 4.0,
            mean_stretch: 1.2,
            p50_stretch: 1.0,
            p99_stretch: 3.5,
            mean_hops: 2.0,
        };
        let repaired = EpochRow {
            epoch: 0,
            batch_deltas: 7,
            pending_deltas: 0,
            pre: stats(10),
            outcome: RepairOutcome::Repaired(crate::RepairReport {
                dirty_nodes: 42,
                trees_rebuilt: 5,
                trees_reused: 95,
                seconds: 1.25,
                ..Default::default()
            }),
            post: Some(stats(0)),
        };
        let deferred = EpochRow {
            epoch: 1,
            batch_deltas: 3,
            pending_deltas: 3,
            pre: stats(20),
            outcome: RepairOutcome::Deferred { reason: crate::DeferReason::Disconnected },
            post: None,
        };
        let records = [evaluation_record(500, 2, &repaired), evaluation_record(500, 2, &deferred)];
        let json = render_topic_json(EVALUATION, &records);
        assert!(json.contains("\"benchmark\": \"agm-theorem1-evaluation\""));
        assert_eq!(baseline_value(&json, "epoch", 0, "trees_reused"), Some("95"));
        assert_eq!(baseline_value(&json, "epoch", 0, "post_delivery_rate"), Some("1.000"));
        assert!(json.contains("\"outcome\": \"repaired\""));
        assert!(json.contains("\"outcome\": \"deferred-disconnected\""));
        // Deferred epochs omit the post-repair fields entirely.
        assert_eq!(baseline_value(&json, "epoch", 1, "post_delivery_rate"), None);
        assert_eq!(baseline_value(&json, "epoch", 1, "pre_delivery_rate"), Some("0.900"));
    }
}
