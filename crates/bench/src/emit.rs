//! Deterministic JSON and CSV emission for sweep results.
//!
//! Every JSON artifact of the harness is written through `pm_serve::json`
//! (the workspace's serde is a no-op stub, see `vendor/serde`): documents
//! through its [`Pretty`] writer, JSON Lines rows through
//! [`Json::emit_inline`]. Floats are printed with Rust's shortest
//! round-trip formatting, infinities become JSON `null` / CSV `inf`, and
//! iteration order follows the configuration, so identical configurations
//! produce byte-identical files — CI diffs them against the committed
//! baseline.

use crate::sweep::{BatchResult, SweepConfig, SweepResult};
use pm_core::report::{HeuristicKind, MulticastReport};
use pm_core::session::TransitionCost;
use pm_platform::topology::PlatformClass;
use pm_serve::json::{Json, Pretty};
use pm_serve::protocol::{kind_key, TransitionDesc};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;

/// Schema tag embedded in every JSON document, bumped on layout changes.
/// v2 added the `meta` block (`solve_ms` wall-clock total and the LP
/// warm-start counters); v3 added the per-heuristic
/// `meta.per_heuristic` aggregates (lp_solves / warm_hits / warm_misses
/// per curve); v4 added the realization stage (`fig11 --realize`): per-point
/// `realization` objects (simulated throughput, realization gap, one-port
/// violations per curve), a `meta.realization` aggregate block, and the
/// `simulated_throughput` / `realization_gap` CSV columns (empty without
/// `--realize`).
pub const JSON_SCHEMA: &str = "pm-bench/fig11-sweep/v4";

/// CSV header of [`batch_to_csv`] / [`sweep_to_csv`].
pub const CSV_HEADER: &str = "class,seed,paper_scale,platforms,density,instances,kind,mean_period,simulated_throughput,realization_gap";

/// CSV header of the streamed per-item rows (`fig11 --items-csv`).
pub const ITEMS_CSV_HEADER: &str = "class,seed,paper_scale,platform,density,nodes,targets,kind,period,simulated_throughput,realization_gap,one_port_violations,lp_solves,warm_hits,warm_misses";

/// Stable lower-case key of a platform class.
pub fn class_key(class: PlatformClass) -> &'static str {
    match class {
        PlatformClass::Small => "small",
        PlatformClass::Big => "big",
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    }
}

/// Wall time and LP accounting of a drift, faults or multi batch.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LpTally {
    /// Total wall-clock milliseconds (nondeterministic).
    pub solve_ms: u64,
    /// Linear programs solved.
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
}

impl LpTally {
    /// Warm-hit rate across every LP of the batch.
    pub fn warm_hit_rate(&self) -> f64 {
        ratio(self.warm_hits, self.lp_solves)
    }

    /// Writes the five fields the drift, faults and multi artifacts open
    /// their `meta` block with.
    pub(crate) fn write_json(&self, w: &mut Pretty) {
        w.field("solve_ms", self.solve_ms);
        w.field("lp_solves", self.lp_solves);
        w.field("warm_hits", self.warm_hits);
        w.field("warm_misses", self.warm_misses);
        w.field("warm_hit_rate", self.warm_hit_rate());
    }
}

/// The keys of `kinds` as an array.
pub(crate) fn kinds_json(kinds: &[HeuristicKind]) -> Json {
    Json::Arr(kinds.iter().map(|&k| kind_key(k).into()).collect())
}

/// An object with one member per `(kind, value)` entry, keyed by kind.
fn by_kind<T>(entries: &[(HeuristicKind, T)], value: impl Fn(&T) -> Json) -> Json {
    let members = entries
        .iter()
        .map(|(k, v)| (kind_key(*k).to_string(), value(v)));
    Json::Obj(members.collect())
}

/// A switchover cost in its wire encoding, `null` when absent.
pub(crate) fn transition_json(transition: Option<&TransitionCost>) -> Json {
    transition
        .map(|t| TransitionDesc::from_cost(t).to_json())
        .into()
}

/// A finite float for CSV, infinities spelled `inf`.
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "inf".to_string()
    }
}

fn write_sweep(w: &mut Pretty, sweep: &SweepResult) {
    let cfg = &sweep.config;
    w.field("class", class_key(cfg.class));
    w.field("seed", cfg.seed);
    w.field("paper_scale", cfg.paper_scale);
    w.field("platforms", cfg.platforms);
    w.field("kinds", kinds_json(&cfg.kinds));
    w.array("points", |w| {
        for point in &sweep.points {
            w.item_object(|w| {
                w.field("density", point.density);
                w.field("instances", point.instances);
                w.field("mean_period", by_kind(&point.mean_period, |&p| p.into()));
                let realization = by_kind(&point.realization, |r| {
                    Json::obj(vec![
                        ("realized", r.realized.into()),
                        ("simulated_throughput", r.mean_simulated_throughput.into()),
                        ("realization_gap", r.mean_realization_gap.into()),
                        ("max_realization_gap", r.max_realization_gap.into()),
                        ("one_port_violations", r.one_port_violations.into()),
                    ])
                });
                w.field("realization", realization);
            });
        }
    });
}

/// One sweep as a pretty-printed JSON document.
///
/// Single-sweep exports have no batch accounting, so the v2 `meta` block is
/// emitted zeroed — the document shape matches [`batch_to_json`] exactly,
/// as the shared schema tag promises.
pub fn sweep_to_json(sweep: &SweepResult) -> String {
    let batch = BatchResult {
        sweeps: vec![sweep.clone()],
        meta: crate::sweep::BatchMeta::default(),
    };
    batch_to_json(&batch)
}

/// A full batch as a pretty-printed JSON document.
///
/// The `meta` block carries the LP accounting of the run. Every field in it
/// is deterministic for a given configuration except `solve_ms`, which is a
/// wall-clock measurement — byte-comparisons of two runs (as CI does) must
/// filter the `"solve_ms"` line first.
pub fn batch_to_json(batch: &BatchResult) -> String {
    let meta = &batch.meta;
    Pretty::document(|w| {
        w.field("schema", JSON_SCHEMA);
        w.object("meta", |w| {
            w.field("solve_ms", meta.solve_ms);
            w.field("lp_solves", meta.lp_solves);
            w.field("warm_hits", meta.warm_hits);
            w.field("warm_misses", meta.warm_misses);
            let per_heuristic = by_kind(&meta.per_kind, |s| {
                Json::obj(vec![
                    ("lp_solves", s.lp_solves.into()),
                    ("warm_hits", s.warm_hits.into()),
                    ("warm_misses", s.warm_misses.into()),
                ])
            });
            w.field("per_heuristic", per_heuristic);
            let realization = by_kind(&meta.realization, |r| {
                Json::obj(vec![
                    ("realized", r.realized.into()),
                    ("failed", r.failed.into()),
                    ("one_port_violations", r.one_port_violations.into()),
                    ("max_gap", r.max_gap.into()),
                    ("mean_gap", r.mean_gap().into()),
                ])
            });
            w.field("realization", realization);
        });
        w.array("sweeps", |w| {
            for sweep in &batch.sweeps {
                w.item_object(|w| write_sweep(w, sweep));
            }
        });
    })
}

fn push_sweep_csv(out: &mut String, sweep: &SweepResult) {
    let cfg = &sweep.config;
    for point in &sweep.points {
        for &(kind, period) in &point.mean_period {
            // Realization columns: empty without `--realize` or when the
            // kind realized no instance at this point.
            let (sim, gap) = match point.realization(kind) {
                Some(r) if r.realized > 0 => (
                    csv_f64(r.mean_simulated_throughput),
                    csv_f64(r.mean_realization_gap),
                ),
                _ => (String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                class_key(cfg.class),
                cfg.seed,
                cfg.paper_scale,
                cfg.platforms,
                csv_f64(point.density),
                point.instances,
                kind_key(kind),
                csv_f64(period),
                sim,
                gap,
            ));
        }
    }
}

/// One sweep as CSV (long format: one row per `(density, kind)`).
pub fn sweep_to_csv(sweep: &SweepResult) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    push_sweep_csv(&mut out, sweep);
    out
}

/// A full batch as CSV (long format: one row per
/// `(class, seed, density, kind)`).
pub fn batch_to_csv(batch: &BatchResult) -> String {
    let mut out = format!("{CSV_HEADER}\n");
    for sweep in &batch.sweeps {
        push_sweep_csv(&mut out, sweep);
    }
    out
}

/// Format of the streamed per-item rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemRowFormat {
    /// One [`ITEMS_CSV_HEADER`] row per `(instance, kind)`.
    Csv,
    /// One JSON object per line per `(instance, kind)` (JSON Lines).
    Jsonl,
}

struct SinkState {
    /// The next item index to flush.
    next: usize,
    /// Chunks that arrived out of order, keyed by item index.
    pending: BTreeMap<usize, String>,
    out: Box<dyn Write + Send>,
}

/// An ordered streaming writer for per-item sweep rows.
///
/// Work items complete in scheduler order, but the file must be
/// byte-identical across runs and thread counts (the property every fig11
/// artifact upholds): each item submits its row chunk under its *item
/// index*, and the sink flushes chunks to the writer in index order,
/// buffering only the out-of-order window. Memory therefore stays
/// proportional to scheduler skew, not to the sweep size — this is what
/// lets paper-scale `--realize --full` sweeps keep their per-instance
/// detail without holding every report in memory.
pub struct ItemSink {
    format: ItemRowFormat,
    inner: Mutex<SinkState>,
}

impl ItemSink {
    /// Creates a sink over `out`, writing the CSV header up front (CSV
    /// format only).
    pub fn new(format: ItemRowFormat, mut out: Box<dyn Write + Send>) -> io::Result<Self> {
        if format == ItemRowFormat::Csv {
            writeln!(out, "{ITEMS_CSV_HEADER}")?;
        }
        Ok(ItemSink {
            format,
            inner: Mutex::new(SinkState {
                next: 0,
                pending: BTreeMap::new(),
                out,
            }),
        })
    }

    /// The sink's row format.
    pub fn format(&self) -> ItemRowFormat {
        self.format
    }

    /// Submits the rows of item `index`; flushes every chunk that is now
    /// contiguous with the already-written prefix.
    pub fn submit(&self, index: usize, chunk: String) -> io::Result<()> {
        let mut state = self.inner.lock().expect("item sink poisoned");
        state.pending.insert(index, chunk);
        loop {
            let next = state.next;
            let Some(chunk) = state.pending.remove(&next) else {
                break;
            };
            state.out.write_all(chunk.as_bytes())?;
            state.next += 1;
        }
        state.out.flush()
    }

    /// Flushes the writer; fails if chunks are still missing (an item index
    /// was never submitted).
    pub fn finish(self) -> io::Result<()> {
        let mut state = self.inner.into_inner().expect("item sink poisoned");
        if let Some((&index, _)) = state.pending.iter().next() {
            return Err(io::Error::other(format!(
                "item sink finished with unflushed chunk {index} (next expected {})",
                state.next
            )));
        }
        state.out.flush()
    }
}

/// Renders the per-item rows of one work item (every `(density, kind)` pair
/// of one platform's reports) in the sink's format. Rows follow the
/// configuration's density and kind order, so the streamed file is
/// deterministic once the sink has ordered the items.
pub fn item_rows(
    format: ItemRowFormat,
    config: &SweepConfig,
    platform_index: usize,
    reports: &[(usize, Option<MulticastReport>)],
    out: &mut String,
) {
    for (di, report) in reports {
        let Some(report) = report else { continue };
        let density = config.densities[*di];
        for &(kind, period) in &report.periods {
            let stats = report.lp_stats_for(kind).unwrap_or_default();
            let real = report.realization_for(kind);
            match format {
                ItemRowFormat::Csv => {
                    let (sim, gap, violations) = match real {
                        Some(r) => (
                            csv_f64(r.simulated_throughput),
                            csv_f64(r.realization_gap),
                            r.one_port_violations.to_string(),
                        ),
                        None => (String::new(), String::new(), String::new()),
                    };
                    out.push_str(&format!(
                        "{},{},{},{platform_index},{},{},{},{},{},{sim},{gap},{violations},{},{},{}
",
                        class_key(config.class),
                        config.seed,
                        config.paper_scale,
                        csv_f64(density),
                        report.nodes,
                        report.targets,
                        kind_key(kind),
                        csv_f64(period),
                        stats.lp_solves,
                        stats.warm_hits,
                        stats.warm_misses,
                    ));
                }
                ItemRowFormat::Jsonl => {
                    let realization = real.map(|r| {
                        Json::obj(vec![
                            ("simulated_throughput", r.simulated_throughput.into()),
                            ("realization_gap", r.realization_gap.into()),
                            ("one_port_violations", r.one_port_violations.into()),
                        ])
                    });
                    let row = Json::obj(vec![
                        ("class", class_key(config.class).into()),
                        ("seed", config.seed.into()),
                        ("paper_scale", config.paper_scale.into()),
                        ("platform", platform_index.into()),
                        ("density", density.into()),
                        ("nodes", report.nodes.into()),
                        ("targets", report.targets.into()),
                        ("kind", kind_key(kind).into()),
                        ("period", period.into()),
                        ("lp_solves", stats.lp_solves.into()),
                        ("warm_hits", stats.warm_hits.into()),
                        ("warm_misses", stats.warm_misses.into()),
                        ("realization", realization.into()),
                    ]);
                    out.push_str(&row.emit_inline());
                    out.push('\n');
                }
            }
        }
    }
}

/// Parses an artifact, checks its schema tag and drops every `"solve_ms"`
/// member (wall time), after checking that each one is a line of its own:
/// CI compares two runs with `grep -v '"solve_ms"'`.
#[cfg(test)]
pub(crate) fn parse_modulo_wall_time(text: &str, schema: &str) -> Json {
    for line in text.lines().filter(|l| l.contains("\"solve_ms\"")) {
        let member = line.trim_start().trim_end_matches(',');
        let value = member.strip_prefix("\"solve_ms\": ");
        assert!(value.is_some_and(|v| v.parse::<u64>().is_ok()), "{line}");
    }
    fn strip(value: &mut Json) {
        match value {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != "solve_ms");
                fields.iter_mut().for_each(|(_, v)| strip(v));
            }
            Json::Arr(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut doc = Json::parse(text).expect("the artifact parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(schema));
    strip(&mut doc);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{BatchResult, SweepConfig, SweepPoint};

    /// The first point of the first sweep of a parsed document.
    fn first_point(doc: &Json) -> &Json {
        let sweep = &doc.get("sweeps").and_then(Json::as_arr).unwrap()[0];
        &sweep.get("points").and_then(Json::as_arr).unwrap()[0]
    }

    fn fake_sweep() -> SweepResult {
        SweepResult {
            config: SweepConfig {
                class: PlatformClass::Small,
                paper_scale: false,
                platforms: 2,
                densities: vec![0.5],
                seed: 42,
                kinds: vec![HeuristicKind::Scatter, HeuristicKind::Mcph],
                realize: false,
            },
            points: vec![SweepPoint {
                density: 0.5,
                mean_period: vec![
                    (HeuristicKind::Scatter, 4.25),
                    (HeuristicKind::Mcph, f64::INFINITY),
                ],
                realization: Vec::new(),
                instances: 2,
            }],
        }
    }

    fn fake_realized_sweep() -> SweepResult {
        let mut sweep = fake_sweep();
        sweep.config.realize = true;
        sweep.points[0].realization = vec![
            (
                HeuristicKind::Scatter,
                crate::sweep::PointRealization {
                    realized: 2,
                    mean_simulated_throughput: 0.25,
                    mean_realization_gap: 0.0,
                    max_realization_gap: 0.0,
                    one_port_violations: 0,
                },
            ),
            (
                HeuristicKind::Mcph,
                crate::sweep::PointRealization {
                    realized: 0,
                    mean_simulated_throughput: f64::INFINITY,
                    mean_realization_gap: f64::INFINITY,
                    max_realization_gap: f64::INFINITY,
                    one_port_violations: 0,
                },
            ),
        ];
        sweep
    }

    #[test]
    fn json_contains_schema_keys_and_null_infinity() {
        let json = sweep_to_json(&fake_sweep());
        assert!(json.contains("\"schema\": \"pm-bench/fig11-sweep/v4\""));
        assert!(json.contains("\"class\": \"small\""));
        assert!(json.contains("\"scatter\": 4.25"));
        assert!(json.contains("\"mcph\": null"));
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(JSON_SCHEMA));
        let mean_period = first_point(&doc).get("mean_period").unwrap();
        assert_eq!(
            mean_period.get("scatter").and_then(Json::as_f64),
            Some(4.25)
        );
        assert_eq!(mean_period.get("mcph"), Some(&Json::Null));
    }

    #[test]
    fn csv_has_header_and_one_row_per_kind() {
        let csv = sweep_to_csv(&fake_sweep());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "small,42,false,2,0.5,2,scatter,4.25,,");
        assert_eq!(lines[2], "small,42,false,2,0.5,2,mcph,inf,,");
    }

    #[test]
    fn realized_sweep_emits_the_new_columns_and_objects() {
        let sweep = fake_realized_sweep();
        let csv = sweep_to_csv(&sweep);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[1], "small,42,false,2,0.5,2,scatter,4.25,0.25,0");
        // A kind that realized nothing keeps empty columns.
        assert_eq!(lines[2], "small,42,false,2,0.5,2,mcph,inf,,");
        let json = sweep_to_json(&sweep);
        assert!(json.contains(
            "\"scatter\": {\"realized\": 2, \"simulated_throughput\": 0.25, \
             \"realization_gap\": 0, \"max_realization_gap\": 0, \"one_port_violations\": 0}"
        ));
        let doc = Json::parse(&json).unwrap();
        let mcph = first_point(&doc).get("realization").unwrap().get("mcph");
        assert_eq!(
            mcph.unwrap().get("realized").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(mcph.unwrap().get("realization_gap"), Some(&Json::Null));
    }

    #[test]
    fn emission_is_deterministic() {
        let sweep = fake_sweep();
        assert_eq!(sweep_to_json(&sweep), sweep_to_json(&sweep));
        assert_eq!(sweep_to_csv(&sweep), sweep_to_csv(&sweep));
        let batch = BatchResult {
            sweeps: vec![sweep.clone(), sweep],
            meta: crate::sweep::BatchMeta::default(),
        };
        assert_eq!(batch_to_json(&batch), batch_to_json(&batch));
        assert_eq!(batch_to_csv(&batch), batch_to_csv(&batch));
    }

    #[test]
    fn batch_json_contains_the_meta_block() {
        let batch = BatchResult {
            sweeps: vec![fake_sweep()],
            meta: crate::sweep::BatchMeta {
                solve_ms: 1234,
                lp_solves: 64,
                warm_hits: 48,
                warm_misses: 16,
                per_kind: vec![(
                    HeuristicKind::ReducedBroadcast,
                    pm_core::report::KindLpStats {
                        lp_solves: 40,
                        warm_hits: 36,
                        warm_misses: 4,
                    },
                )],
                realization: vec![(
                    HeuristicKind::ReducedBroadcast,
                    crate::sweep::KindRealizationAgg {
                        realized: 4,
                        failed: 0,
                        one_port_violations: 0,
                        max_gap: 0.5,
                        sum_gap: 1.0,
                    },
                )],
            },
        };
        let json = batch_to_json(&batch);
        assert!(json.contains("\"meta\": {"));
        assert!(json.contains("\"solve_ms\": 1234"));
        assert!(json.contains("\"lp_solves\": 64"));
        assert!(json.contains("\"warm_hits\": 48"));
        assert!(json.contains("\"warm_misses\": 16"));
        assert!(json.contains(
            "\"reduced_broadcast\": {\"lp_solves\": 40, \"warm_hits\": 36, \"warm_misses\": 4}"
        ));
        assert!(json.contains(
            "\"reduced_broadcast\": {\"realized\": 4, \"failed\": 0, \
             \"one_port_violations\": 0, \"max_gap\": 0.5, \"mean_gap\": 0.25}"
        ));
        // Every member but the wall time survives the filter.
        let meta = parse_modulo_wall_time(&json, JSON_SCHEMA)
            .get("meta")
            .cloned()
            .unwrap();
        assert_eq!(meta.get("solve_ms"), None);
        assert_eq!(meta.get("lp_solves").and_then(Json::as_u64), Some(64));
    }
}
