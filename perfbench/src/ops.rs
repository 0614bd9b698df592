//! The session op shared by the `sweep` and `drift` workloads: one
//! `Session::solve` plus one `Session::re_realize` of a heuristic kind, with
//! the result checks, the deterministic counters read from the returned
//! `SessionOpStats`, and (traced runs only) a re-run of each realization
//! stage on the realization's own inputs.

use std::collections::BTreeMap;
use std::hint::black_box;

use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_core::{pack_trees, Realization, SteadyStateSolution};
use pm_sched::schedule::PeriodicSchedule;
use pm_sched::tree::WeightedTreeSet;
use pm_serve::protocol::kind_key;
use pm_sim::{SimulationConfig, Simulator};

use crate::trace::Tracer;
use crate::{median, percentile, ratio, sum, OpLog};

/// Tolerance of every period comparison.
pub const EPS: f64 = 1e-6;

pub fn kind_index(kind: HeuristicKind) -> usize {
    HeuristicKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL")
}

/// Deterministic work counters of a run: for a given seed and amount of
/// work they repeat exactly.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub lp_solves: u64,
    pub warm_hits: u64,
    pub phase1_pivots: u64,
    pub phase2_pivots: u64,
    pub refactorizations: u64,
    pub degraded: u64,
    pub kind_pivots: [u64; 7],
    pub realize_lp_solves: u64,
    pub realize_trees: u64,
    pub transfers: u64,
    pub edits: u64,
    pub journal_entries: u64,
}

/// Set-up timings shared by the session workloads (medians over the
/// set-up repetitions).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub create_ms: f64,
}

/// What one kind's solve and re-realization produced.
pub struct KindResult {
    pub kind: HeuristicKind,
    /// `None` when the solve failed.
    pub period: Option<f64>,
    pub realized: Option<Realization>,
}

/// Solves `kind` and, when its period is finite, re-realizes it, appending
/// every problem the checks find. The caller times the op around this call
/// and then hands the result to [`after_op`].
pub fn solve_and_realize(
    session: &mut Session,
    kind: HeuristicKind,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    problems: &mut Vec<String>,
) -> KindResult {
    let key = kind_key(kind);
    let solved = match tracer.span("solve", key, op, || session.solve(kind)) {
        Ok(solved) => solved,
        Err(e) => {
            problems.push(format!("solve({key}): {e}"));
            return KindResult {
                kind,
                period: None,
                realized: None,
            };
        }
    };
    let stats = solved.stats;
    counts.lp_solves += stats.lp_solves;
    counts.warm_hits += stats.warm_hits;
    counts.phase1_pivots += stats.phase1_pivots;
    counts.phase2_pivots += stats.phase2_pivots;
    counts.refactorizations += stats.refactorizations;
    counts.degraded += stats.degraded_solves;
    counts.kind_pivots[kind_index(kind)] += stats.phase1_pivots + stats.phase2_pivots;
    let period = solved.result.period;
    let mut realized = None;
    if period.is_finite() {
        match tracer.span("re_realize", key, op, || session.re_realize(kind)) {
            Ok(rr) => {
                counts.lp_solves += rr.stats.lp_solves;
                counts.warm_hits += rr.stats.warm_hits;
                counts.realize_lp_solves += rr.stats.lp_solves;
                check_realization(kind, &rr.realization, problems);
                realized = Some(rr.realization);
            }
            Err(e) => problems.push(format!("re_realize({key}) of period {period}: {e}")),
        }
    }
    KindResult {
        kind,
        period: Some(period),
        realized,
    }
}

/// Counts a finished op's realization and, in a traced run, re-runs its
/// stages — outside the op's time.
pub fn after_op(
    session: &Session,
    result: &KindResult,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let Some(real) = &result.realized else {
        return;
    };
    counts.realize_trees += real.tree_set.len() as u64;
    counts.transfers += real
        .schedule
        .slots
        .iter()
        .map(|s| s.transfers.len() as u64)
        .sum::<u64>();
    if tracer.enabled() {
        rerun_stages(session, result.kind, op, real, tracer);
    }
}

/// Every check a realization must pass. `Multicast-LB` may be unachievable
/// (the paper's hardness result), so its schedule is held to the period it
/// certifies instead of the LP's.
fn check_realization(kind: HeuristicKind, real: &Realization, problems: &mut Vec<String>) {
    let key = kind_key(kind);
    if real.simulated.one_port_violations > 0 {
        problems.push(format!(
            "{key}: {} one-port violations",
            real.simulated.one_port_violations
        ));
    }
    let gap = if kind == HeuristicKind::LowerBound {
        (real.simulated.period - real.achieved_period).abs() / real.achieved_period
    } else {
        real.realization_gap
    };
    if gap.is_nan() || gap > EPS {
        problems.push(format!("{key}: realization gap {gap:e}"));
    }
}

/// The cross-kind checks of one instance: no heuristic beats the lower
/// bound, and the multi-source heuristic never loses to plain scatter.
/// Problems are attributed to the offending kind's entry of `problems`,
/// which is aligned with `results`.
pub fn check_periods(results: &[KindResult], problems: &mut [Vec<String>]) {
    let get = |kind| {
        results
            .iter()
            .find(|r| r.kind == kind)
            .and_then(|r| r.period)
    };
    if let Some(lb) = get(HeuristicKind::LowerBound) {
        for (r, problems) in results.iter().zip(problems.iter_mut()) {
            if let Some(p) = r.period.filter(|&p| p < lb - EPS) {
                problems.push(format!(
                    "{} period {p} below the lower bound {lb}",
                    kind_key(r.kind)
                ));
            }
        }
    }
    if let (Some(ms), Some(scatter)) = (
        get(HeuristicKind::MultisourceMulticast),
        get(HeuristicKind::Scatter),
    ) {
        if ms > scatter + EPS {
            let i = results
                .iter()
                .position(|r| r.kind == HeuristicKind::MultisourceMulticast)
                .expect("present");
            problems[i].push(format!("multisource period {ms} above scatter {scatter}"));
        }
    }
}

/// Re-runs each public stage of the realization pipeline on the inputs the
/// realization used, each in its own span: flow decomposition, the packing
/// LP over the realized trees, König coloring and the simulator replay.
fn rerun_stages(
    session: &Session,
    kind: HeuristicKind,
    op: u64,
    real: &Realization,
    tracer: &mut Tracer,
) {
    let key = kind_key(kind);
    let instance = session.instance();
    let platform = &instance.platform;
    if let Some(SteadyStateSolution::TargetFlows { target_flows, .. }) = session
        .solution_for(kind)
        .and_then(|r| r.steady_state.as_ref())
    {
        tracer.span("sched.decompose", key, op, || {
            black_box(WeightedTreeSet::from_flows(instance, target_flows).ok())
        });
    }
    tracer.span("realize.pack", key, op, || {
        black_box(pack_trees(platform, real.tree_set.trees()).ok())
    });
    tracer.span("sched.color", key, op, || {
        black_box(
            PeriodicSchedule::from_weighted_trees(platform, &real.tree_set, real.achieved_period)
                .ok(),
        )
    });
    tracer.span("sim.replay", key, op, || {
        black_box(
            Simulator::new(SimulationConfig::default()).run_schedule(platform, &real.schedule),
        )
    });
}

/// Times `compact_journal` and `snapshot` on every session and counts the
/// journal entries they held (traced runs, after the measured ops).
pub fn journal_probe(sessions: &mut [Session], tracer: &mut Tracer, counts: &mut Counts) {
    for session in sessions.iter_mut() {
        counts.journal_entries += session.journal().len() as u64;
        tracer.span("journal.snapshot", "", 0, || black_box(session.snapshot()));
        tracer.span("journal.compact", "", 0, || {
            black_box(session.compact_journal())
        });
    }
}

/// The per-layer metrics of a traced session workload.
pub fn session_layers(
    tracer: &Tracer,
    counts: &Counts,
    setup: SetupTimes,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("platform.generate_ms", setup.generate_ms);
    put("session.create_ms", setup.create_ms);
    put("session.edits", counts.edits as f64);
    put(
        "session.edit_us",
        crate::mean(&tracer.durations_ms("edit", None)) * 1e3,
    );
    let solves = tracer.durations_ms("solve", None);
    put("solve.ms", sum(&solves));
    put("solve.p50_ms", median(&solves));
    put("solve.p90_ms", percentile(&solves, 0.9));
    for kind in HeuristicKind::ALL {
        let key = kind_key(kind);
        put(
            &format!("solve.{key}.ms"),
            sum(&tracer.durations_ms("solve", Some(key))),
        );
        put(
            &format!("lp.{key}.pivots"),
            counts.kind_pivots[kind_index(kind)] as f64,
        );
    }
    put("lp.solves", counts.lp_solves as f64);
    put(
        "lp.warm_hit_rate",
        ratio(counts.warm_hits as f64, counts.lp_solves as f64),
    );
    put("lp.phase1_pivots", counts.phase1_pivots as f64);
    put("lp.phase2_pivots", counts.phase2_pivots as f64);
    put("lp.refactorizations", counts.refactorizations as f64);
    put("lp.degraded", counts.degraded as f64);
    let realizes = tracer.durations_ms("re_realize", None);
    put("realize.ms", sum(&realizes));
    put("realize.p50_ms", median(&realizes));
    put("realize.lp_solves", counts.realize_lp_solves as f64);
    put("realize.trees", counts.realize_trees as f64);
    put(
        "realize.pack_ms",
        sum(&tracer.durations_ms("realize.pack", None)),
    );
    put(
        "realize.share_pct",
        100.0 * ratio(sum(&realizes), sum(&tracer.durations_ms("op", None))),
    );
    put(
        "sched.decompose_ms",
        sum(&tracer.durations_ms("sched.decompose", None)),
    );
    put(
        "sched.color_ms",
        sum(&tracer.durations_ms("sched.color", None)),
    );
    put("sched.transfers", counts.transfers as f64);
    put(
        "sim.replay_ms",
        sum(&tracer.durations_ms("sim.replay", None)),
    );
    put("journal.entries", counts.journal_entries as f64);
    put(
        "journal.snapshot_ms",
        sum(&tracer.durations_ms("journal.snapshot", None)),
    );
    put(
        "journal.compact_ms",
        sum(&tracer.durations_ms("journal.compact", None)),
    );
    m
}

/// Tracing overhead: traced op time over untraced op time of the same ops.
pub fn overhead_pct(untraced: &OpLog, traced: &OpLog) -> f64 {
    let total = |log: &OpLog| log.op_ns.iter().sum::<u64>() as f64;
    100.0 * (ratio(total(traced), total(untraced)) - 1.0)
}
