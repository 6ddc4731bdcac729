//! Machine-readable benchmark records — the schema behind the
//! checked-in `BENCH_<topic>.json` documents.
//!
//! The workspace has no JSON dependency (offline container), so
//! records are rendered and scanned by hand through a small generic
//! layer: a [`TopicRecord`] is an ordered list of typed fields, and
//! [`render_topic_json`] renders any list of them as a
//! `BENCH_<topic>.json` document. Three concrete schemas ride on it:
//!
//! * [`ConstructionRecord`] → `BENCH_construction.json` (the `sc`
//!   experiment; the CI construction smoke compares its peak RSS
//!   against the checked-in baseline and fails on a >2× regression);
//! * [`ServingRecord`] → `BENCH_serving.json` (the `serve`
//!   experiment and the CI serving smoke: routes/sec and p50/p99
//!   latency against a loaded snapshot);
//! * [`EvaluationRecord`] → `BENCH_evaluation.json` (the `churn`
//!   experiment: one record per mutate→repair epoch — stale vs
//!   repaired delivery rate and stretch percentiles, plus what the
//!   repair reused).
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

/// One Theorem-1 construction datapoint.
#[derive(Clone, Debug)]
pub struct ConstructionRecord {
    /// Graph size (nodes).
    pub n: usize,
    /// Trade-off parameter.
    pub k: usize,
    /// Worker-thread cap the build ran under (0 = auto).
    pub threads: usize,
    /// End-to-end scheme build wall clock.
    pub build_seconds: f64,
    /// `VmHWM` after the build, in KiB (0 where procfs is unavailable).
    pub peak_rss_kib: u64,
    /// Distinct centers (= landmark trees built).
    pub num_center_trees: usize,
    /// Total landmark-tree memberships.
    pub total_members: usize,
    /// Effective S-set budget per landmark level.
    pub s_budgets: Vec<usize>,
    /// Per-phase wall clock, in pipeline order (`BuildStats::phase_seconds`).
    pub phase_seconds: Vec<(String, f64)>,
}

impl ConstructionRecord {
    /// Snapshot a record from a finished build (peak RSS read from
    /// procfs at call time, so collect right after the build).
    pub fn collect(
        n: usize,
        k: usize,
        threads: usize,
        build_seconds: f64,
        stats: &BuildStats,
    ) -> Self {
        ConstructionRecord {
            n,
            k,
            threads,
            build_seconds,
            peak_rss_kib: graphkit::metrics::peak_rss_kib().unwrap_or(0),
            num_center_trees: stats.num_center_trees,
            total_members: stats.total_members,
            s_budgets: stats.s_budgets.clone(),
            phase_seconds: stats.phase_seconds.clone(),
        }
    }

    /// Lower into the generic topic schema (field order is the
    /// document format; never reorder).
    pub fn to_topic(&self) -> TopicRecord {
        TopicRecord::new()
            .field("n", FieldValue::Int(self.n as u64))
            .field("k", FieldValue::Int(self.k as u64))
            .field("threads", FieldValue::Int(self.threads as u64))
            .field("build_seconds", FieldValue::Float(self.build_seconds))
            .field("peak_rss_kib", FieldValue::Int(self.peak_rss_kib))
            .field("num_center_trees", FieldValue::Int(self.num_center_trees as u64))
            .field("total_members", FieldValue::Int(self.total_members as u64))
            .field(
                "s_budgets",
                FieldValue::IntList(self.s_budgets.iter().map(|&b| b as u64).collect()),
            )
            .field("phase_seconds", FieldValue::FloatMap(self.phase_seconds.clone()))
    }
}

/// Render the full `BENCH_construction.json` document.
pub fn render_json(records: &[ConstructionRecord]) -> String {
    let topics: Vec<TopicRecord> = records.iter().map(|r| r.to_topic()).collect();
    render_topic_json("agm-theorem1-construction", &topics)
}

/// One serving datapoint: a snapshot-loaded scheme answering a query
/// batch, optionally next to a baseline router served the same batch.
#[derive(Clone, Debug)]
pub struct ServingRecord {
    /// Graph size (nodes).
    pub n: usize,
    /// Trade-off parameter.
    pub k: usize,
    /// Snapshot file size, bytes.
    pub snapshot_bytes: u64,
    /// Wall clock of `Scheme::load`, seconds.
    pub load_seconds: f64,
    /// The scheme's serve report.
    pub scheme: ServeReport,
    /// The comparison router's report over the same batch (e.g.
    /// shortest-path tables), where one is feasible to build.
    pub baseline: Option<(String, ServeReport)>,
}

impl ServingRecord {
    /// Lower into the generic topic schema.
    pub fn to_topic(&self) -> TopicRecord {
        let serve = |r: TopicRecord, prefix: &str, rep: &ServeReport| {
            r.field(&format!("{prefix}routes_per_sec"), FieldValue::Float(rep.routes_per_sec))
                .field(&format!("{prefix}p50_us"), FieldValue::Float(rep.p50_us))
                .field(&format!("{prefix}p99_us"), FieldValue::Float(rep.p99_us))
        };
        let mut r = TopicRecord::new()
            .field("n", FieldValue::Int(self.n as u64))
            .field("k", FieldValue::Int(self.k as u64))
            .field("queries", FieldValue::Int(self.scheme.queries as u64))
            .field("delivered", FieldValue::Int(self.scheme.delivered as u64))
            .field("threads", FieldValue::Int(self.scheme.threads as u64))
            .field("snapshot_bytes", FieldValue::Int(self.snapshot_bytes))
            .field("load_seconds", FieldValue::Float(self.load_seconds));
        r = serve(r, "", &self.scheme);
        if let Some((name, rep)) = &self.baseline {
            r = r.field(&format!("baseline_{name}_queries"), FieldValue::Int(rep.queries as u64));
            r = serve(r, &format!("baseline_{name}_"), rep);
        }
        r
    }
}

/// Render the full `BENCH_serving.json` document.
pub fn render_serving_json(records: &[ServingRecord]) -> String {
    let topics: Vec<TopicRecord> = records.iter().map(|r| r.to_topic()).collect();
    render_topic_json("agm-theorem1-serving", &topics)
}

/// One churn-epoch datapoint: the stale scheme's degradation on the
/// mutated graph next to the repaired scheme on the same workload,
/// plus how much of the structure the repair reused.
#[derive(Clone, Debug)]
pub struct EvaluationRecord {
    /// Graph size (nodes).
    pub n: usize,
    /// Trade-off parameter.
    pub k: usize,
    /// Epoch index within the schedule (0-based).
    pub epoch: usize,
    /// Deltas applied this epoch.
    pub batch_deltas: usize,
    /// Deltas still outstanding after the repair attempt (nonzero only
    /// while repair defers on a disconnected graph).
    pub pending_deltas: usize,
    /// Delivered fraction of the stale (pre-repair) measurement.
    pub pre_delivery_rate: f64,
    /// Stale stretch percentiles over delivered pairs.
    pub pre_p50_stretch: f64,
    /// Stale 99th-percentile stretch.
    pub pre_p99_stretch: f64,
    /// Stale maximum stretch.
    pub pre_max_stretch: f64,
    /// What repair did: `repaired`, `rebuilt-<reason>`, or
    /// `deferred-<reason>`.
    pub outcome: String,
    /// Nodes whose distance vector changed (zero unless `repaired`).
    pub dirty_nodes: usize,
    /// Center trees rebuilt by the repair (zero unless `repaired`).
    pub trees_rebuilt: usize,
    /// Center trees reused bit-identically (zero unless `repaired`).
    pub trees_reused: usize,
    /// Wall clock of the repair or fallback rebuild (zero while
    /// deferred).
    pub repair_seconds: f64,
    /// Post-repair measurements on the same workload (`None` while
    /// deferred — those fields are omitted from the record).
    pub post_delivery_rate: Option<f64>,
    /// Repaired median stretch.
    pub post_p50_stretch: Option<f64>,
    /// Repaired 99th-percentile stretch.
    pub post_p99_stretch: Option<f64>,
    /// Repaired maximum stretch.
    pub post_max_stretch: Option<f64>,
}

impl EvaluationRecord {
    /// Lower one epoch of a churn run into the record schema.
    pub fn collect(n: usize, k: usize, row: &EpochRow) -> Self {
        let (outcome, dirty_nodes, trees_rebuilt, trees_reused, repair_seconds) = match &row.outcome
        {
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
        EvaluationRecord {
            n,
            k,
            epoch: row.epoch,
            batch_deltas: row.batch_deltas,
            pending_deltas: row.pending_deltas,
            pre_delivery_rate: row.pre_delivery_rate(),
            pre_p50_stretch: row.pre.p50_stretch,
            pre_p99_stretch: row.pre.p99_stretch,
            pre_max_stretch: row.pre.max_stretch,
            outcome,
            dirty_nodes,
            trees_rebuilt,
            trees_reused,
            repair_seconds,
            post_delivery_rate: row.post_delivery_rate(),
            post_p50_stretch: row.post.as_ref().map(|s| s.p50_stretch),
            post_p99_stretch: row.post.as_ref().map(|s| s.p99_stretch),
            post_max_stretch: row.post.as_ref().map(|s| s.max_stretch),
        }
    }

    /// Lower into the generic topic schema (field order is the
    /// document format; never reorder). Post-repair fields are present
    /// only when repair ran this epoch.
    pub fn to_topic(&self) -> TopicRecord {
        let mut r = TopicRecord::new()
            .field("n", FieldValue::Int(self.n as u64))
            .field("k", FieldValue::Int(self.k as u64))
            .field("epoch", FieldValue::Int(self.epoch as u64))
            .field("batch_deltas", FieldValue::Int(self.batch_deltas as u64))
            .field("pending_deltas", FieldValue::Int(self.pending_deltas as u64))
            .field("pre_delivery_rate", FieldValue::Float(self.pre_delivery_rate))
            .field("pre_p50_stretch", FieldValue::Float(self.pre_p50_stretch))
            .field("pre_p99_stretch", FieldValue::Float(self.pre_p99_stretch))
            .field("pre_max_stretch", FieldValue::Float(self.pre_max_stretch))
            .field("outcome", FieldValue::Str(self.outcome.clone()))
            .field("dirty_nodes", FieldValue::Int(self.dirty_nodes as u64))
            .field("trees_rebuilt", FieldValue::Int(self.trees_rebuilt as u64))
            .field("trees_reused", FieldValue::Int(self.trees_reused as u64))
            .field("repair_seconds", FieldValue::Float(self.repair_seconds));
        if let (Some(rate), Some(p50), Some(p99), Some(max)) = (
            self.post_delivery_rate,
            self.post_p50_stretch,
            self.post_p99_stretch,
            self.post_max_stretch,
        ) {
            r = r
                .field("post_delivery_rate", FieldValue::Float(rate))
                .field("post_p50_stretch", FieldValue::Float(p50))
                .field("post_p99_stretch", FieldValue::Float(p99))
                .field("post_max_stretch", FieldValue::Float(max));
        }
        r
    }
}

/// Render the full `BENCH_evaluation.json` document.
pub fn render_evaluation_json(records: &[EvaluationRecord]) -> String {
    let topics: Vec<TopicRecord> = records.iter().map(|r| r.to_topic()).collect();
    render_topic_json("agm-theorem1-evaluation", &topics)
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

/// The checked-in baseline's build wall clock (seconds) at graph size `n`.
pub fn baseline_build_seconds(json: &str, n: usize) -> Option<f64> {
    baseline_value(json, "n", n as u64, "build_seconds")?.parse().ok()
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
        let records = vec![
            ConstructionRecord {
                n: 10_000,
                k: 2,
                threads: 1,
                build_seconds: 12.345,
                peak_rss_kib: 400_000,
                num_center_trees: 9_000,
                total_members: 1_000_000,
                s_budgets: vec![60, 40],
                phase_seconds: vec![("plans".into(), 1.0), ("budgets".into(), 2.5)],
            },
            ConstructionRecord {
                n: 50_000,
                k: 2,
                threads: 0,
                build_seconds: 222.5,
                peak_rss_kib: 2_000_000,
                num_center_trees: 45_000,
                total_members: 9_000_000,
                s_budgets: vec![80, 50],
                phase_seconds: vec![("plans".into(), 5.0)],
            },
        ];
        render_json(&records)
    }

    #[test]
    fn roundtrip_per_size() {
        let json = sample();
        assert_eq!(baseline_peak_rss_kib(&json, 10_000), Some(400_000));
        assert_eq!(baseline_peak_rss_kib(&json, 50_000), Some(2_000_000));
        assert_eq!(baseline_build_seconds(&json, 50_000), Some(222.5));
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
        let rec = ServingRecord {
            n: 50_000,
            k: 2,
            snapshot_bytes: 123_456_789,
            load_seconds: 1.5,
            scheme: report.clone(),
            baseline: Some(("sp_tables".into(), report)),
        };
        let json = render_serving_json(&[rec]);
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
        let small = ServingRecord {
            n: 3_000,
            k: 2,
            snapshot_bytes: 500_000_000,
            load_seconds: 1.5,
            scheme: report.clone(),
            baseline: None,
        };
        let merged =
            merge_topic_json(checked_in, &render_serving_json(std::slice::from_ref(&small)));
        // The 50k CI anchor survives byte for byte, and the new row is
        // appended after it.
        assert_eq!(record_blocks(&merged)[0], anchor[0]);
        assert!(merged.starts_with("{\n  \"benchmark\": \"agm-theorem1-serving\""));
        assert_eq!(baseline_value(&merged, "n", 3_000, "queries"), Some("20000"));
        assert_eq!(baseline_value(&merged, "n", 50_000, "queries"), Some("10000"));
        // Re-measuring a size replaces its row instead of adding one.
        let again = ServingRecord { load_seconds: 2.0, ..small };
        let merged = merge_topic_json(&merged, &render_serving_json(&[again]));
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
        let records: Vec<EvaluationRecord> =
            [&repaired, &deferred].iter().map(|r| EvaluationRecord::collect(500, 2, r)).collect();
        let json = render_evaluation_json(&records);
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
