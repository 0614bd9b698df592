//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <sweep|drift|serve> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A timed run (`--trace 0`) sets the workload up several times, measures
//! ops for `--seconds` seconds and prints the end-to-end metrics. A traced
//! run (`--trace 1`) runs a fixed amount of work twice, untraced and then
//! with a span around every call into the program, and prints the per-layer
//! metrics; the difference between the two is the tracing overhead. The
//! last line of standard output is always the result object. See
//! `perfbench/README.md`.

mod drift;
mod ops;
mod serve;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pm_core::report::HeuristicKind;
use pm_serve::protocol::kind_key;

/// Set-up repetitions of a traced sweep run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Passes of a timed run, at least (a serve pass is a round). Sweep and
/// drift set every pass up anew and serve every epoch of rounds; `setup_s`
/// is the median over the set-ups.
pub const MIN_PASSES: usize = 3;

/// The request types the serve workload times separately.
pub const SERVE_TYPES: [&str; 9] = [
    "create",
    "edit",
    "solve",
    "re_realize",
    "query",
    "transitions",
    "solve_multi",
    "re_realize_multi",
    "destroy",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few ops per workload, for the self-test.
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub scale: Scale,
    /// Where a traced run writes its spans (`None` in the self-test).
    pub spans: Option<PathBuf>,
}

/// End-to-end metrics of a timed run, with units.
pub fn end_to_end_table() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("ops_per_s", "1/s"),
        ("op_p50_ms", "ms"),
        ("op_p90_ms", "ms"),
        ("ops_ok_frac", "fraction"),
        ("peak_rss_mb", "MB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Per-layer metrics of a traced run, with units. Every workload reports
/// every metric; a layer the workload does not reach reads 0.
pub fn per_layer_table() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| t.push((name, unit));
    add("platform.generate_ms".into(), "ms");
    add("session.create_ms".into(), "ms");
    add("session.edits".into(), "count");
    add("session.edit_us".into(), "us");
    add("solve.ms".into(), "ms");
    add("solve.p50_ms".into(), "ms");
    add("solve.p90_ms".into(), "ms");
    for kind in HeuristicKind::ALL {
        add(format!("solve.{}.ms", kind_key(kind)), "ms");
    }
    add("lp.solves".into(), "count");
    add("lp.warm_hit_rate".into(), "fraction");
    add("lp.phase1_pivots".into(), "count");
    add("lp.phase2_pivots".into(), "count");
    add("lp.refactorizations".into(), "count");
    add("lp.degraded".into(), "count");
    for kind in HeuristicKind::ALL {
        add(format!("lp.{}.pivots", kind_key(kind)), "count");
    }
    add("realize.ms".into(), "ms");
    add("realize.p50_ms".into(), "ms");
    add("realize.lp_solves".into(), "count");
    add("realize.trees".into(), "count");
    add("realize.pack_ms".into(), "ms");
    add("realize.share_pct".into(), "%");
    add("sched.decompose_ms".into(), "ms");
    add("sched.color_ms".into(), "ms");
    add("sched.transfers".into(), "count");
    add("sim.replay_ms".into(), "ms");
    add("journal.entries".into(), "count");
    add("journal.snapshot_ms".into(), "ms");
    add("journal.compact_ms".into(), "ms");
    for ty in SERVE_TYPES {
        add(format!("serve.{ty}.p50_ms"), "ms");
        add(format!("serve.{ty}.p99_ms"), "ms");
    }
    add("serve.encode_us".into(), "us");
    add("serve.decode_us".into(), "us");
    add("serve.coalescing_ratio".into(), "ratio");
    add("serve.flushes".into(), "count");
    add("serve.template_hit_rate".into(), "fraction");
    add("serve.cache_hit_rate".into(), "fraction");
    add("serve.cache_evictions".into(), "count");
    add("serve.warm_hit_rate".into(), "fraction");
    add("serve.compactions".into(), "count");
    add("serve.journal_dropped".into(), "count");
    add("serve.shed".into(), "count");
    add("trace.overhead_pct".into(), "%");
    t
}

/// FNV-1a over the periods a run produced, in op order: a later change that
/// moves any result changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    pub values: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            values: 0,
        }
    }
}

impl Digest {
    pub fn add(&mut self, tag: u64, value: f64) {
        for word in [tag, value.to_bits()] {
            for b in word.to_le_bytes() {
                self.hash ^= b as u64;
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.values += 1;
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

/// Ops attempted, failed and timed, plus the period digest.
#[derive(Debug, Default)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    pub op_ns: Vec<u64>,
    pub digest: Digest,
    shown: usize,
}

impl OpLog {
    /// Records one finished op and the problems its checks found.
    pub fn finish(&mut self, elapsed_ns: u64, problems: &[String]) {
        self.attempted += 1;
        self.op_ns.push(elapsed_ns);
        if !problems.is_empty() {
            self.failed += 1;
            if self.shown < 10 {
                self.shown += 1;
                eprintln!(
                    "perfbench: op {} failed: {}",
                    self.attempted,
                    problems.join("; ")
                );
            }
        }
    }

    /// Counts the failed calls of a set-up as failed ops here. Set-up calls
    /// are checked like ops but are not part of the measured phase.
    pub fn absorb_failures(&mut self, setup: &OpLog) {
        self.attempted += setup.failed;
        self.failed += setup.failed;
    }

    /// Adds another log's ops; the digest stays this log's own.
    pub fn merge(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ns.extend(other.op_ns);
    }
}

/// One whole pass over a fixed op mix in a timed run: the op at a given
/// position of a pass is the same op in every pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// The pass's ops in `OpLog::op_ns`.
    pub ops: Range<usize>,
    /// Elapsed wall time of the pass.
    pub seconds: f64,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub log: OpLog,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Elapsed wall time of the measured phase.
    pub measured_s: f64,
    /// The passes of a timed run; its throughput and latency metrics come
    /// from each op's best time over the passes.
    pub passes: Vec<Pass>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
}

/// Where a pass begins in its log, and when.
pub struct PassStart {
    op: usize,
    at: Instant,
}

impl PassStart {
    pub fn now(log: &OpLog) -> PassStart {
        PassStart {
            op: log.op_ns.len(),
            at: Instant::now(),
        }
    }

    /// The pass of the ops logged since.
    pub fn end(self, log: &OpLog) -> Pass {
        Pass {
            ops: self.op..log.op_ns.len(),
            seconds: self.at.elapsed().as_secs_f64(),
        }
    }
}

/// Times the ops `measured` logs as one pass of a timed run.
pub fn time_pass(outcome: &mut Outcome, measured: impl FnOnce(&mut OpLog)) {
    let start = PassStart::now(&outcome.log);
    measured(&mut outcome.log);
    let pass = start.end(&outcome.log);
    outcome.measured_s += pass.seconds;
    outcome.passes.push(pass);
}

/// Whether a timed run of passes begun at `start` is done: `--seconds` have
/// passed and at least `MIN_PASSES` passes have run.
pub fn passes_done(args: &Args, outcome: &Outcome, start: Instant) -> bool {
    start.elapsed() >= args.seconds && outcome.passes.len() >= MIN_PASSES
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear interpolation between the closest ranks (0 for no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, b| a + b)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        sum(values) / values.len() as f64
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without leaving it
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <sweep|drift|serve> [--seed N] [--seconds S] \
         [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: Duration::from_secs(30),
        trace: false,
        scale: Scale::Full,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if !matches!(args.workload.as_str(), "sweep" | "drift" | "serve") {
        usage("--workload must be sweep, drift or serve");
    }
    if args.trace {
        args.spans = Some(PathBuf::from(format!(
            "perfbench/out/{}-{}.spans.jsonl",
            args.workload, args.seed
        )));
    }
    args
}

/// Refuses to measure a program that environment knobs would silently
/// reconfigure: the `PM_LP_*` knobs are read once, deep in the solver.
fn refuse_pinned_env() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PM_LP_") || k.starts_with("PM_SERVE_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; these change what is measured",
            set.join(", ")
        );
        std::process::exit(2);
    }
}

/// Pins the process to the last CPU it may run on, before any thread
/// starts, and returns that CPU. Every thread the program starts later
/// inherits the pin: the serve client and its shard hand each request over
/// on one CPU, and the greedy loops' parallel candidate chunks run inline
/// (`available_parallelism` reads 1). Across the two vCPUs of a shared host
/// both moved by 20% between runs of the same seed; see
/// `perfbench/README.md`.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Writes a traced run's spans to `perfbench/out/` (tests write none).
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    if let Some(path) = &args.spans {
        match trace::write_spans(path, tracer) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "sweep" => sweep::run(args),
        "drift" => drift::run(args),
        "serve" => serve::run(args),
        other => unreachable!("workload '{other}' was validated"),
    }
}

/// The metrics object of a finished run.
pub fn metrics(args: &Args, outcome: &Outcome) -> Vec<(String, f64, &'static str)> {
    if args.trace {
        return per_layer_table()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect();
    }
    let log = &outcome.log;
    let ok = log.attempted - log.failed;
    // Other work on a shared host only ever slows an op down, so each op's
    // best time over the passes is the steadiest estimate of what it costs
    // (as `timeit` takes the best of its repeats). A pass runs its ops one
    // after another, never overlapping, so their best times add up to the
    // pass's best wall time.
    let passes = &outcome.passes;
    let ops = passes.iter().map(|p| p.ops.len()).min().unwrap_or(0);
    let best_ms: Vec<f64> = (0..ops)
        .map(|i| {
            let best = passes.iter().map(|p| log.op_ns[p.ops.start + i]).min();
            best.unwrap_or(0) as f64 / 1e6
        })
        .collect();
    let values: BTreeMap<&str, f64> = [
        ("setup_s", median(&outcome.setup_s)),
        ("ops_per_s", ratio(ops as f64, sum(&best_ms) / 1e3)),
        ("op_p50_ms", percentile(&best_ms, 0.50)),
        ("op_p90_ms", percentile(&best_ms, 0.90)),
        ("ops_ok_frac", ratio(ok as f64, log.attempted as f64)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .collect();
    end_to_end_table()
        .into_iter()
        .map(|(name, unit)| {
            let value = values[name.as_str()];
            (name, value, unit)
        })
        .collect()
}

fn main() {
    refuse_pinned_env();
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu();
    if cpu.is_none() {
        eprintln!("perfbench: could not pin to one CPU; figures will move with the host");
    }
    let outcome = run(&args);
    let metrics = metrics(&args, &outcome);
    let log = &outcome.log;
    println!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"cpu\":{},\"rayon_threads\":{},\"commit\":\"{}\",\"digest\":\"{}\",\"digest_values\":{},\"measured_s\":{}}}}}",
        args.workload,
        args.seed,
        args.trace as u8,
        nproc,
        cpu.map_or("null".into(), |c| c.to_string()),
        rayon::current_num_threads(),
        commit(),
        log.digest.hex(),
        log.digest.values,
        json_num(outcome.measured_s),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        log.failed == 0 && log.attempted > 0,
        log.attempted.max(1),
        log.failed,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: Duration::from_millis(1),
            trace,
            scale: Scale::Tiny,
            spans: None,
        }
    }

    #[test]
    fn tiny_runs_of_every_workload_have_no_failed_ops() {
        for workload in ["sweep", "drift", "serve"] {
            let outcome = run(&tiny(workload, false));
            assert!(outcome.log.attempted > 0, "{workload}: no op ran");
            assert_eq!(outcome.log.failed, 0, "{workload}: failed ops");
            assert!(outcome.setup_s.len() >= MIN_PASSES, "{workload}");
        }
    }

    /// The counters later changes may claim on repeat exactly between two
    /// traced runs of the same seed.
    #[test]
    fn traced_runs_repeat_their_counters() {
        let deterministic = |name: &str| {
            name.starts_with("lp.")
                || name == "session.edits"
                || name == "journal.entries"
                || name == "sched.transfers"
                || name == "realize.lp_solves"
                || name == "realize.trees"
                || (name.starts_with("serve.") && !name.ends_with("_ms") && !name.ends_with("_us"))
        };
        for workload in ["sweep", "drift", "serve"] {
            let a = run(&tiny(workload, true));
            let b = run(&tiny(workload, true));
            assert_eq!(a.log.failed, 0, "{workload}");
            assert_eq!(a.log.digest, b.log.digest, "{workload}: digest");
            for (name, _) in per_layer_table() {
                if deterministic(&name) {
                    assert_eq!(
                        a.layers.get(&name),
                        b.layers.get(&name),
                        "{workload}: {name}"
                    );
                }
            }
            assert!(a.layers["lp.solves"] > 0.0, "{workload}: no LP counted");
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics the binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let table = |t: Vec<(String, &str)>| t.into_iter().map(|(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), table(end_to_end_table()));
        assert_eq!(names("per_layer"), table(per_layer_table()));
    }

    #[test]
    fn pass_metrics_use_each_ops_best_time() {
        let mut outcome = Outcome::default();
        outcome.log.op_ns = [1, 2, 9, 3, 4, 5].map(|ms| ms * 1_000_000).to_vec();
        outcome.log.attempted = 6;
        outcome.passes = [(0..2, 1.0), (2..4, 4.0), (4..6, 2.0)]
            .map(|(ops, seconds)| Pass { ops, seconds })
            .to_vec();
        let m = metrics(&tiny("sweep", false), &outcome);
        let value = |name: &str| m.iter().find(|(n, _, _)| n == name).expect(name).1;
        // Best times 1 ms and 2 ms: two ops in 3 ms.
        assert!((value("ops_per_s") - 2.0 / 0.003).abs() < 1e-9);
        assert_eq!(value("op_p50_ms"), 1.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
