//! The `--chaos` sweep: the recovery ladder and degradable budgets under
//! seeded fault injection.
//!
//! Where the `--faults` sweep injects *message loss* into realized
//! schedules, the chaos sweep injects *solver faults* into the LP engine
//! itself (a [`pm_lp::ChaosConfig`] in the session's
//! [`pm_lp::SolveContext`]): singular factorizations, poisoned
//! warm-start hints, pricing stalls and NaN writes strike roughly one
//! solve in three, and every strike must end in a verified optimum — the
//! artifact records which recovery rung won each solve. Each scenario
//! additionally drives one injected *session panic* through the
//! write-ahead journal (healed, not propagated) and one budget-capped
//! re-solve per heuristic kind, measuring the degraded anytime solution's
//! gap against the certified optimum.
//!
//! Each scenario counts its two phases in tallies of its own: the injection
//! phase's session solves under a chaos-armed context with a ladder
//! [`pm_lp::SolveTally`], the budget phase's fresh sessions under a
//! chaos-free context with a budget tally. Nothing is shared between
//! scenarios, so they run on the rayon pool like the other sweeps.
//!
//! Determinism: whether a solve is struck is a pure function of the chaos
//! seed and the problem's structural signature, and the tallies are
//! commutative sums. Two runs at any `RAYON_NUM_THREADS` produce
//! byte-identical artifacts except for the `"solve_ms"` wall-time lines,
//! which CI filters exactly as it does for the other fig11 artifacts.

use crate::drift::pick_disable_candidate;
use crate::emit::{class_key, kinds_json, ratio};
use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_lp::{ChaosConfig, ChaosCounters, SolveContext, SolveTally};
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use pm_serve::json::{Json, Pretty};
use pm_serve::protocol::kind_key;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Schema tag of the chaos artifact (`fig11 --chaos --json`). v7 continues
/// the fig11 artifact lineage: the first schema carrying recovery-ladder
/// rung counters and budget-degradation rates.
pub const CHAOS_JSON_SCHEMA: &str = "pm-bench/fig11-chaos/v7";

/// Default chaos seed of the sweep (any fixed value works; this one is
/// baked into the committed baseline).
pub const DEFAULT_CHAOS_SEED: u64 = 0xC4A0_55EE;

/// Configuration of a chaos batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosBenchConfig {
    /// Platform classes to sweep.
    pub classes: Vec<PlatformClass>,
    /// Base seeds; each `(class, seed)` pair contributes `platforms`
    /// scenarios.
    pub seeds: Vec<u64>,
    /// Random platforms per `(class, seed)` cell.
    pub platforms: usize,
    /// Target density of the sampled instances.
    pub density: f64,
    /// Heuristic kinds solved under injection.
    pub kinds: Vec<HeuristicKind>,
    /// Seed of the fault-injection plans (see [`pm_lp::ChaosConfig`]).
    pub chaos_seed: u64,
    /// Node-churn rounds per scenario (each round masks one relay, re-solves
    /// every kind, restores it and re-solves again — lengthening the
    /// warm-start chains the faults strike).
    pub churn_rounds: usize,
    /// Paper-scale platform sizes.
    pub paper_scale: bool,
    /// Print per-scenario progress to stderr.
    pub progress: bool,
}

impl ChaosBenchConfig {
    /// The default `fig11 --chaos` configuration.
    pub fn quick() -> Self {
        ChaosBenchConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42, 43],
            platforms: 2,
            density: 0.5,
            kinds: crate::sweep::BASIC_KINDS.to_vec(),
            chaos_seed: DEFAULT_CHAOS_SEED,
            churn_rounds: 2,
            paper_scale: false,
            progress: false,
        }
    }

    /// The CI chaos-smoke configuration: tiny and cheap, but still striking
    /// enough solves to populate several recovery rungs.
    pub fn smoke() -> Self {
        ChaosBenchConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42],
            platforms: 1,
            churn_rounds: 1,
            ..ChaosBenchConfig::quick()
        }
    }
}

/// One heuristic kind of a chaos scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosKindResult {
    /// The heuristic kind.
    pub kind: HeuristicKind,
    /// Final period after the churn rounds (chaos on: must equal the
    /// fault-free period, which is what the baseline comparison pins).
    pub period: f64,
    /// LP solves of the kind across the injection phase.
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// Phase-1 pivots of the clean probe solve (budget phase).
    pub probe_phase1: u64,
    /// Phase-2 pivots of the clean probe solve (budget phase).
    pub probe_phase2: u64,
    /// The pivot cap of the budgeted re-solve (`0` when the probe's phase 2
    /// never pivots — then no budget cell ran).
    pub budget_cap: u64,
    /// The budgeted re-solve exhausted its cap and returned a degraded
    /// anytime solution.
    pub degraded: bool,
    /// Period of the budgeted solve (`NaN` when no budget cell ran).
    pub degraded_period: f64,
    /// Certified optimum of the same problem.
    pub optimum_period: f64,
    /// `degraded_period / optimum_period − 1` (≥ 0: anytime points are
    /// primal feasible, so they can only be worse).
    pub degraded_gap: f64,
}

/// One `(class, seed, platform)` scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosScenario {
    /// Platform class.
    pub class: PlatformClass,
    /// Base seed of the cell.
    pub seed: u64,
    /// Platform index within the cell.
    pub platform: usize,
    /// Nodes of the platform.
    pub nodes: usize,
    /// Targets of the sampled instance.
    pub targets: usize,
    /// Session panics injected and healed from the write-ahead journal
    /// (one per scenario by construction).
    pub panics_healed: u64,
    /// Ladder-phase counters: solves under injection, strikes, winning
    /// rungs, unrecovered failures (gated to zero).
    pub ladder: ChaosCounters,
    /// Budget-phase counters: probe + capped solves, degraded outcomes.
    pub budget: ChaosCounters,
    /// Per-kind results, in configuration order.
    pub kinds: Vec<ChaosKindResult>,
    /// Wall-clock milliseconds of the scenario (nondeterministic; filtered
    /// before byte comparisons).
    pub solve_ms: u64,
}

/// Aggregate accounting of a chaos batch.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ChaosMeta {
    /// Total wall-clock milliseconds across scenarios (nondeterministic).
    pub solve_ms: u64,
    /// Batch-wide ladder-phase counters.
    pub ladder: ChaosCounters,
    /// Batch-wide budget-phase counters.
    pub budget: ChaosCounters,
    /// Session panics injected and healed across the batch.
    pub panics_healed: u64,
}

impl ChaosMeta {
    /// Fraction of injection-phase solves that had a fault injected.
    pub fn injected_rate(&self) -> f64 {
        ratio(self.ladder.injected, self.ladder.solves)
    }

    /// Fraction of budget-phase solves that returned a degraded anytime
    /// solution.
    pub fn degraded_rate(&self) -> f64 {
        ratio(self.budget.degraded, self.budget.solves)
    }
}

/// The result of a [`run_chaos`] call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosResult {
    /// The configuration that produced the result.
    pub config: ChaosBenchConfig,
    /// One scenario per `(class, seed, platform)`, in configuration order.
    pub scenarios: Vec<ChaosScenario>,
    /// Aggregate accounting.
    pub meta: ChaosMeta,
}

/// Runs the injection phase of one scenario: solve every kind, churn a
/// relay node for `churn_rounds` rounds, then inject one session panic and
/// watch the journal heal it. The session's context arms the chaos.
fn run_injection_phase(
    session: &mut Session,
    config: &ChaosBenchConfig,
    rng: &mut StdRng,
) -> Vec<(HeuristicKind, f64, u64, u64, u64)> {
    let mut per_kind: Vec<(HeuristicKind, f64, u64, u64, u64)> = config
        .kinds
        .iter()
        .map(|&k| (k, f64::NAN, 0, 0, 0))
        .collect();
    fn solve_all(session: &mut Session, per_kind: &mut [(HeuristicKind, f64, u64, u64, u64)]) {
        for (kind, period, lp, hits, misses) in per_kind.iter_mut() {
            let solve = session
                .solve(*kind)
                .expect("chaos strikes are always survivable");
            *period = solve.result.period;
            *lp += solve.stats.lp_solves;
            *hits += solve.stats.warm_hits;
            *misses += solve.stats.warm_misses;
        }
    }
    solve_all(session, &mut per_kind);
    for _ in 0..config.churn_rounds {
        if let Some(node) = pick_disable_candidate(session, rng) {
            session
                .disable_node(node)
                .expect("candidate is disableable");
            solve_all(session, &mut per_kind);
            session.enable_node(node).expect("node exists");
        }
        solve_all(session, &mut per_kind);
    }
    // One injected panic: the next solve panics mid-operation with
    // deliberately corrupted template state; the session quarantines the
    // wreck, rebuilds from the write-ahead journal and retries.
    session.arm_panic(1);
    solve_all(session, &mut per_kind);
    per_kind
}

/// Runs the budget phase of one scenario: for every kind, probe the clean
/// pivot counts on a fresh session, then cap a second fresh session one
/// pivot short and record the degraded anytime solution's gap. Both
/// sessions solve under `ctx`, which must arm no chaos (capped ladder
/// retries could otherwise exhaust the budget in phase 1).
fn run_budget_phase(session: &Session, ctx: &SolveContext, results: &mut [ChaosKindResult]) {
    for result in results.iter_mut() {
        let mut probe = Session::new(session.instance().clone()).with_context(ctx.clone());
        let full = probe.solve(result.kind).expect("clean probe solve");
        result.probe_phase1 = full.stats.phase1_pivots;
        result.probe_phase2 = full.stats.phase2_pivots;
        result.optimum_period = full.result.period;
        result.degraded_period = f64::NAN;
        result.degraded_gap = 0.0;
        if full.stats.phase2_pivots == 0 {
            // Nothing to cap: the kind's LPs finish in phase 1 (or solve no
            // LP at all, like MCPH).
            continue;
        }
        let cap = full.stats.phase1_pivots + full.stats.phase2_pivots - 1;
        result.budget_cap = cap;
        let mut capped = Session::new(session.instance().clone()).with_context(ctx.clone());
        capped.set_budget(Some(pm_lp::SolveBudget::pivots(cap)));
        // A cold session replays the probe's exact pivot trajectory, so the
        // cap always outlasts phase 1 and the solve degrades gracefully.
        let solve = capped.solve(result.kind).expect("capped solve degrades");
        result.degraded = solve.stats.degraded_solves > 0;
        result.degraded_period = solve.result.period;
        result.degraded_gap = solve.result.period / result.optimum_period - 1.0;
    }
}

/// Runs one scenario: the injection phase under `ctx` with chaos armed,
/// the budget phase under `ctx` with chaos off, each phase counted in a
/// tally of its own.
fn run_scenario(
    config: &ChaosBenchConfig,
    ctx: &SolveContext,
    class: PlatformClass,
    seed: u64,
    platform_index: usize,
) -> ChaosScenario {
    let started = Instant::now();
    let mut generator = if config.paper_scale {
        TiersLikeGenerator::paper_scale(class, seed + platform_index as u64)
    } else {
        TiersLikeGenerator::reduced_scale(class, seed + platform_index as u64)
    };
    let topology = generator.generate();
    let mut rng =
        StdRng::seed_from_u64(seed ^ ((platform_index as u64) << 32) ^ 0x5eed_c4a0_5bad_f00d);
    let instance = topology.sample_instance(config.density, &mut rng);
    let nodes = instance.platform.node_count();
    let targets = instance.target_count();
    let ladder_tally = Arc::new(SolveTally::new());
    let mut session = Session::new(instance).with_context(SolveContext {
        chaos: Some(ChaosConfig::all(config.chaos_seed)),
        tally: Some(Arc::clone(&ladder_tally)),
        ..ctx.clone()
    });
    let per_kind = run_injection_phase(&mut session, config, &mut rng);
    let ladder = ladder_tally.counters();
    let panics_healed = session.stats().panics_healed;

    let budget_tally = Arc::new(SolveTally::new());
    let budget_ctx = SolveContext {
        chaos: None,
        tally: Some(Arc::clone(&budget_tally)),
        ..ctx.clone()
    };
    let mut kinds: Vec<ChaosKindResult> = per_kind
        .into_iter()
        .map(
            |(kind, period, lp_solves, warm_hits, warm_misses)| ChaosKindResult {
                kind,
                period,
                lp_solves,
                warm_hits,
                warm_misses,
                probe_phase1: 0,
                probe_phase2: 0,
                budget_cap: 0,
                degraded: false,
                degraded_period: f64::NAN,
                optimum_period: f64::NAN,
                degraded_gap: 0.0,
            },
        )
        .collect();
    run_budget_phase(&session, &budget_ctx, &mut kinds);
    let budget = budget_tally.counters();

    ChaosScenario {
        class,
        seed,
        platform: platform_index,
        nodes,
        targets,
        panics_healed,
        ladder,
        budget,
        kinds,
        solve_ms: started.elapsed().as_millis() as u64,
    }
}

/// Runs the chaos batch: every `(class, seed, platform)` scenario on the
/// rayon pool, collected in configuration order, each session solving
/// under `ctx` plus the scenario's own chaos arming and tallies.
pub fn run_chaos(config: &ChaosBenchConfig, ctx: &SolveContext) -> ChaosResult {
    let mut cells: Vec<(PlatformClass, u64, usize)> = Vec::new();
    for &class in &config.classes {
        for &seed in &config.seeds {
            for pi in 0..config.platforms {
                cells.push((class, seed, pi));
            }
        }
    }
    let scenarios: Vec<ChaosScenario> = cells
        .into_par_iter()
        .map(|(class, seed, pi)| {
            let scenario = run_scenario(config, ctx, class, seed, pi);
            if config.progress {
                eprintln!(
                    "fig11: chaos scenario class={class:?} seed={seed} platform={pi} done \
                     ({} injected / {} solves, {} degraded)",
                    scenario.ladder.injected, scenario.ladder.solves, scenario.budget.degraded
                );
            }
            scenario
        })
        .collect();

    let mut meta = ChaosMeta::default();
    for scenario in &scenarios {
        meta.solve_ms += scenario.solve_ms;
        meta.panics_healed += scenario.panics_healed;
        let add = |into: &mut ChaosCounters, from: &ChaosCounters| {
            into.solves += from.solves;
            into.injected += from.injected;
            for (slot, value) in into
                .recovered_by_rung
                .iter_mut()
                .zip(from.recovered_by_rung)
            {
                *slot += value;
            }
            into.degraded += from.degraded;
            into.unrecovered += from.unrecovered;
        };
        add(&mut meta.ladder, &scenario.ladder);
        add(&mut meta.budget, &scenario.budget);
    }
    ChaosResult {
        config: config.clone(),
        scenarios,
        meta,
    }
}

/// A counter block inline (no wall times).
fn counters_json(counters: &ChaosCounters) -> Json {
    let rungs = counters.recovered_by_rung.iter().map(|&r| r.into());
    Json::obj(vec![
        ("solves", counters.solves.into()),
        ("injected", counters.injected.into()),
        ("recovered_by_rung", Json::Arr(rungs.collect())),
        ("degraded", counters.degraded.into()),
        ("unrecovered", counters.unrecovered.into()),
    ])
}

/// One kind's results, inline.
fn kind_json(kind: &ChaosKindResult) -> Json {
    Json::obj(vec![
        ("kind", kind_key(kind.kind).into()),
        ("period", kind.period.into()),
        ("lp_solves", kind.lp_solves.into()),
        ("warm_hits", kind.warm_hits.into()),
        ("warm_misses", kind.warm_misses.into()),
        ("probe_phase1", kind.probe_phase1.into()),
        ("probe_phase2", kind.probe_phase2.into()),
        ("budget_cap", kind.budget_cap.into()),
        ("degraded", kind.degraded.into()),
        ("degraded_period", kind.degraded_period.into()),
        ("optimum_period", kind.optimum_period.into()),
        ("degraded_gap", kind.degraded_gap.into()),
    ])
}

/// The chaos batch as a pretty-printed schema-v7 JSON document.
///
/// Every `"solve_ms"` field sits on its own line, so the same
/// `grep -v '"solve_ms"'` filter CI applies to the other fig11 artifacts
/// makes two chaos runs byte-comparable.
pub fn chaos_to_json(result: &ChaosResult) -> String {
    let meta = &result.meta;
    Pretty::document(|w| {
        w.field("schema", CHAOS_JSON_SCHEMA);
        w.object("meta", |w| {
            w.field("solve_ms", meta.solve_ms);
            w.field("scenarios", result.scenarios.len());
            w.field("chaos_seed", result.config.chaos_seed);
            w.field("kinds", kinds_json(&result.config.kinds));
            w.field("panics_healed", meta.panics_healed);
            w.field("injected_rate", meta.injected_rate());
            w.field("degraded_rate", meta.degraded_rate());
            w.field("ladder", counters_json(&meta.ladder));
            w.field("budget", counters_json(&meta.budget));
        });
        w.array("scenarios", |w| {
            for scenario in &result.scenarios {
                w.item_object(|w| {
                    w.field("class", class_key(scenario.class));
                    w.field("seed", scenario.seed);
                    w.field("platform", scenario.platform);
                    w.field("nodes", scenario.nodes);
                    w.field("targets", scenario.targets);
                    w.field("panics_healed", scenario.panics_healed);
                    w.field("solve_ms", scenario.solve_ms);
                    w.field("ladder", counters_json(&scenario.ladder));
                    w.field("budget", counters_json(&scenario.budget));
                    w.array("kinds", |w| {
                        for kind in &scenario.kinds {
                            w.item(kind_json(kind));
                        }
                    });
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::parse_modulo_wall_time;

    fn tiny_config() -> ChaosBenchConfig {
        ChaosBenchConfig {
            classes: vec![PlatformClass::Small],
            seeds: vec![42],
            platforms: 1,
            churn_rounds: 1,
            ..ChaosBenchConfig::smoke()
        }
    }

    #[test]
    fn chaos_batch_recovers_every_strike_and_heals_the_panic() {
        let result = run_chaos(&tiny_config(), &SolveContext::default());
        assert_eq!(result.scenarios.len(), 1);
        let scenario = &result.scenarios[0];
        // The whole point of the ladder: strikes happen, failures don't.
        assert!(scenario.ladder.solves > 0);
        assert!(scenario.ladder.injected > 0, "no fault was injected");
        assert_eq!(scenario.ladder.unrecovered, 0);
        // The injected session panic was healed from the journal.
        assert_eq!(scenario.panics_healed, 1);
        // Every kind's chaos-era period matches its fault-free optimum
        // (the probe runs with chaos off on the same instance).
        for kind in &scenario.kinds {
            assert!(
                (kind.period - kind.optimum_period).abs() <= 1e-9,
                "{:?}: chaos period {} vs fault-free {}",
                kind.kind,
                kind.period,
                kind.optimum_period
            );
            if kind.budget_cap > 0 {
                assert!(
                    kind.degraded,
                    "{:?}: capped solve did not degrade",
                    kind.kind
                );
                assert!(kind.degraded_gap >= -1e-9);
            }
        }
        // At least one budget cell degraded somewhere in the batch.
        assert!(result.meta.budget.degraded > 0);
        assert_eq!(result.meta.ladder.unrecovered, 0);
    }

    #[test]
    fn chaos_json_is_deterministic_modulo_wall_time() {
        let config = tiny_config();
        let a = run_chaos(&config, &SolveContext::default());
        let b = run_chaos(&config, &SolveContext::default());
        let json = |result| parse_modulo_wall_time(&chaos_to_json(result), CHAOS_JSON_SCHEMA);
        assert_eq!(json(&a), json(&b));
    }
}
