//! The `--drift` scenario sweep: long-lived [`Session`]s on drifting
//! platforms.
//!
//! Where the Figure 11 sweep measures *one-shot* solves over a platform
//! grid, the drift sweep measures what the stateful session API buys when
//! the platform keeps changing under a running schedule: each scenario
//! builds one [`Session`] per `(class, seed, platform)` instance, applies a
//! seeded trace of edge-cost walks and node-churn events, and after every
//! event re-solves and re-realizes the configured heuristic kinds —
//! recording re-solve wall time, warm-hit rate, throughput delta and the
//! simulator-measured [`TransitionCost`] of swapping the periodic schedule.
//!
//! Determinism: events are generated from the configuration seed only,
//! sessions evolve sequentially inside their scenario, and scenarios are
//! collected in configuration order — two runs (at any thread count)
//! produce byte-identical artifacts except for the `"solve_ms"` wall-time
//! lines, which CI filters exactly as it does for the Figure 11 sweep.

use crate::emit::{class_key, json_f64, kind_key};
use pm_core::report::HeuristicKind;
use pm_core::session::{Session, SessionError, TransitionCost};
use pm_core::{FormulationError, RealizeError};
use pm_lp::SolveContext;
use pm_platform::graph::{EdgeId, NodeId};
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema tag of the drift artifact (`fig11 --drift --json`). v5 continues
/// the fig11 artifact lineage: it is the first schema carrying per-step
/// session measurements (warm-hit rates, transition costs) instead of
/// per-density aggregates.
pub const DRIFT_JSON_SCHEMA: &str = "pm-bench/fig11-drift/v5";

/// Edge costs drift multiplicatively within this clamp, so a long random
/// walk can neither collapse an edge to zero nor blow the LP scaling up.
const COST_CLAMP: (f64, f64) = (0.05, 50.0);

/// Configuration of a drift batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Platform classes to sweep.
    pub classes: Vec<PlatformClass>,
    /// Base seeds; each `(class, seed)` pair contributes `platforms`
    /// scenarios.
    pub seeds: Vec<u64>,
    /// Random platforms per `(class, seed)` cell.
    pub platforms: usize,
    /// Target density of the sampled instances.
    pub density: f64,
    /// Drift events applied per scenario (step 0 is the pre-drift
    /// baseline).
    pub steps: usize,
    /// Paper-scale platform sizes.
    pub paper_scale: bool,
    /// Heuristic kinds re-solved and re-realized after every event.
    pub kinds: Vec<HeuristicKind>,
    /// Print per-scenario progress to stderr.
    pub progress: bool,
}

impl DriftConfig {
    /// The default `fig11 --drift` configuration.
    pub fn quick() -> Self {
        DriftConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42, 43],
            platforms: 2,
            density: 0.5,
            steps: 8,
            paper_scale: false,
            kinds: vec![
                HeuristicKind::Scatter,
                HeuristicKind::Broadcast,
                HeuristicKind::Mcph,
            ],
            progress: false,
        }
    }

    /// The CI drift-smoke configuration: tiny, cheap, and restricted to the
    /// always-realizable kinds so the realization gate (zero violations,
    /// gap ≤ 1%) is a hard invariant rather than a lucky draw.
    pub fn smoke() -> Self {
        DriftConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42],
            platforms: 1,
            density: 0.5,
            steps: 6,
            paper_scale: false,
            kinds: vec![
                HeuristicKind::Scatter,
                HeuristicKind::Broadcast,
                HeuristicKind::Mcph,
            ],
            progress: false,
        }
    }
}

/// Per-kind measurements of one drift step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftKindRecord {
    /// The heuristic kind.
    pub kind: HeuristicKind,
    /// Period after the re-solve.
    pub period: f64,
    /// Simulated steady-state throughput of the re-realized schedule.
    pub simulated_throughput: f64,
    /// Change of simulated throughput against the previous step (0 at the
    /// baseline step).
    pub throughput_delta: f64,
    /// `|simulated − lp| / lp` of the re-realization.
    pub realization_gap: f64,
    /// One-port violations of the re-realized schedule (0 for valid ones).
    pub one_port_violations: u64,
    /// Trees in the re-realized combination.
    pub trees: usize,
    /// LP solves of the step (re-solve + packing LPs of re-realization).
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// The switchover cost against the previous realization (absent at the
    /// baseline step).
    pub transition: Option<TransitionCost>,
}

/// One drift step: the applied event plus the per-kind measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftStep {
    /// Step index (0 = pre-drift baseline).
    pub step: usize,
    /// Stable description of the applied event (`"init"` at step 0).
    pub event: String,
    /// Wall-clock milliseconds of the step's solves + realizations
    /// (nondeterministic; filtered before byte comparisons).
    pub solve_ms: u64,
    /// Per-kind measurements, in configuration kind order.
    pub kinds: Vec<DriftKindRecord>,
}

/// One `(class, seed, platform)` scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftScenario {
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
    /// Baseline step plus one step per drift event.
    pub steps: Vec<DriftStep>,
}

/// Aggregate accounting of a drift batch.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DriftMeta {
    /// Total wall-clock milliseconds across scenarios (nondeterministic).
    pub solve_ms: u64,
    /// Linear programs solved.
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// Scenarios run.
    pub scenarios: u64,
}

impl DriftMeta {
    /// Warm-hit rate across every LP of the batch.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lp_solves > 0 {
            self.warm_hits as f64 / self.lp_solves as f64
        } else {
            0.0
        }
    }
}

/// The result of a [`run_drift`] call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftResult {
    /// The configuration that produced the result.
    pub config: DriftConfig,
    /// One scenario per `(class, seed, platform)`, in configuration order.
    pub scenarios: Vec<DriftScenario>,
    /// Aggregate accounting.
    pub meta: DriftMeta,
}

/// The next drift event of a scenario's seeded trace, applied to `session`.
/// Returns its stable description.
fn apply_event(session: &mut Session, disabled: &mut Vec<NodeId>, rng: &mut StdRng) -> String {
    let platform_edges = session.instance().platform.edge_count();
    // 70% edge-cost walk, 30% node churn; churn falls back to an edge walk
    // when no node can be safely toggled.
    if rng.gen_range(0u32..100) >= 70 {
        if !disabled.is_empty() && rng.gen_bool(0.5) {
            let i = rng.gen_range(0..disabled.len());
            let node = disabled.swap_remove(i);
            session.enable_node(node).expect("node exists");
            return format!("enable {node}");
        }
        if let Some(node) = pick_disable_candidate(session, rng) {
            session
                .disable_node(node)
                .expect("candidate is disableable");
            disabled.push(node);
            return format!("disable {node}");
        }
    }
    let edge = EdgeId(rng.gen_range(0..platform_edges) as u32);
    let old = session.instance().platform.cost(edge);
    let factor: f64 = rng.gen_range(0.7..1.4);
    let cost = (old * factor).clamp(COST_CLAMP.0, COST_CLAMP.1);
    session.set_edge_cost(edge, cost).expect("edge exists");
    format!("edge {edge} cost {cost}")
}

/// A node that can be disabled while keeping every remaining active node
/// reachable from the source (so every configured kind stays solvable).
/// Shared with the `--faults` sweep, whose crash step needs the same
/// safety guarantee.
pub(crate) fn pick_disable_candidate(session: &Session, rng: &mut StdRng) -> Option<NodeId> {
    let instance = session.instance();
    let platform = &instance.platform;
    let mask = session.mask();
    let mut eligible: Vec<NodeId> = mask
        .iter()
        .filter(|&v| v != instance.source && !instance.is_target(v))
        .filter(|&v| {
            let candidate = mask.without(v);
            let seen = candidate.reachable_from(platform, instance.source);
            candidate.to_nodes().into_iter().all(|u| seen[u.index()])
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let i = rng.gen_range(0..eligible.len());
    Some(eligible.swap_remove(i))
}

/// Runs one scenario: baseline solves + realizations, then `steps` drift
/// events each followed by a re-solve + re-realization of every kind.
fn run_scenario(
    config: &DriftConfig,
    ctx: &SolveContext,
    class: PlatformClass,
    seed: u64,
    platform_index: usize,
) -> DriftScenario {
    let mut generator = if config.paper_scale {
        TiersLikeGenerator::paper_scale(class, seed + platform_index as u64)
    } else {
        TiersLikeGenerator::reduced_scale(class, seed + platform_index as u64)
    };
    let topology = generator.generate();
    let mut rng =
        StdRng::seed_from_u64(seed ^ ((platform_index as u64) << 32) ^ 0xd81f_7ad5_4c0e_99b1);
    let instance = topology.sample_instance(config.density, &mut rng);
    let nodes = instance.platform.node_count();
    let targets = instance.target_count();
    let mut session = Session::new(instance).with_context(ctx.clone());
    let mut disabled: Vec<NodeId> = Vec::new();
    let mut previous_throughput: Vec<Option<f64>> = vec![None; config.kinds.len()];

    let mut steps = Vec::with_capacity(config.steps + 1);
    for step in 0..=config.steps {
        let event = if step == 0 {
            "init".to_string()
        } else {
            apply_event(&mut session, &mut disabled, &mut rng)
        };
        let started = Instant::now();
        let mut kinds = Vec::with_capacity(config.kinds.len());
        for (ki, &kind) in config.kinds.iter().enumerate() {
            let record = drive_kind(&mut session, kind, &mut previous_throughput[ki]);
            kinds.push(record);
        }
        steps.push(DriftStep {
            step,
            event,
            solve_ms: started.elapsed().as_millis() as u64,
            kinds,
        });
    }
    DriftScenario {
        class,
        seed,
        platform: platform_index,
        nodes,
        targets,
        steps,
    }
}

/// One kind's re-solve + re-realization on the session, with the
/// throughput-delta bookkeeping against the previous step.
fn drive_kind(
    session: &mut Session,
    kind: HeuristicKind,
    previous_throughput: &mut Option<f64>,
) -> DriftKindRecord {
    let mut record = DriftKindRecord {
        kind,
        period: f64::INFINITY,
        simulated_throughput: f64::INFINITY,
        throughput_delta: 0.0,
        realization_gap: f64::INFINITY,
        one_port_violations: 0,
        trees: 0,
        lp_solves: 0,
        warm_hits: 0,
        warm_misses: 0,
        transition: None,
    };
    match session.solve(kind) {
        Ok(solve) => {
            record.period = solve.result.period;
            record.lp_solves += solve.stats.lp_solves;
            record.warm_hits += solve.stats.warm_hits;
            record.warm_misses += solve.stats.warm_misses;
        }
        // The event generator keeps every active node reachable, so an
        // unreachable solve is a bug worth failing loudly on.
        Err(e @ SessionError::Formulation(FormulationError::Unreachable(_))) => {
            panic!("drift event trace produced an unreachable instance: {e}")
        }
        Err(e) => panic!("drift re-solve failed: {e}"),
    }
    match session.re_realize(kind) {
        Ok(re) => {
            record.simulated_throughput = re.realization.simulated.throughput;
            record.realization_gap = re.realization.realization_gap;
            record.one_port_violations = re.realization.simulated.one_port_violations as u64;
            record.trees = re.realization.tree_set.len();
            record.lp_solves += re.stats.lp_solves;
            record.warm_hits += re.stats.warm_hits;
            record.warm_misses += re.stats.warm_misses;
            record.transition = re.transition;
            record.throughput_delta = previous_throughput
                .map(|p| re.realization.simulated.throughput - p)
                .unwrap_or(0.0);
            *previous_throughput = Some(re.realization.simulated.throughput);
        }
        Err(e @ SessionError::Realize(RealizeError::Schedule(_) | RealizeError::Packing(_))) => {
            panic!("drift re-realization pipeline failure: {e}")
        }
        // Decomposition / not-realizable outcomes are recorded as gaps of
        // +∞ (JSON null) without poisoning the deltas.
        Err(_) => {}
    }
    record
}

/// Runs the drift batch: every `(class, seed, platform)` scenario on the
/// rayon pool, collected in configuration order, each session solving
/// under `ctx`.
pub fn run_drift(config: &DriftConfig, ctx: &SolveContext) -> DriftResult {
    let mut cells: Vec<(PlatformClass, u64, usize)> = Vec::new();
    for &class in &config.classes {
        for &seed in &config.seeds {
            for pi in 0..config.platforms {
                cells.push((class, seed, pi));
            }
        }
    }
    let scenarios: Vec<DriftScenario> = cells
        .into_par_iter()
        .map(|(class, seed, pi)| {
            let scenario = run_scenario(config, ctx, class, seed, pi);
            if config.progress {
                eprintln!(
                    "fig11: drift scenario class={class:?} seed={seed} platform={pi} done \
                     ({} steps)",
                    scenario.steps.len()
                );
            }
            scenario
        })
        .collect();

    let mut meta = DriftMeta {
        scenarios: scenarios.len() as u64,
        ..DriftMeta::default()
    };
    for scenario in &scenarios {
        for step in &scenario.steps {
            meta.solve_ms += step.solve_ms;
            for kind in &step.kinds {
                meta.lp_solves += kind.lp_solves;
                meta.warm_hits += kind.warm_hits;
                meta.warm_misses += kind.warm_misses;
            }
        }
    }
    DriftResult {
        config: config.clone(),
        scenarios,
        meta,
    }
}

fn push_transition_json(out: &mut String, transition: Option<&TransitionCost>) {
    match transition {
        None => out.push_str("null"),
        Some(t) => out.push_str(&format!(
            "{{\"drain_time\": {}, \"first_delivery_latency\": {}, \"switch_time\": {}, \
             \"multicasts_lost\": {}, \"throughput_delta\": {}, \"trees_kept\": {}, \
             \"trees_added\": {}, \"trees_dropped\": {}}}",
            json_f64(t.drain_time),
            json_f64(t.first_delivery_latency),
            json_f64(t.switch_time),
            json_f64(t.multicasts_lost),
            json_f64(t.throughput_delta),
            t.trees_kept,
            t.trees_added,
            t.trees_dropped,
        )),
    }
}

/// The drift batch as a pretty-printed schema-v5 JSON document.
///
/// Every `"solve_ms"` field (the meta total and each step's wall time) sits
/// on its own line, so the same `grep -v '"solve_ms"'` filter CI applies to
/// the sweep artifacts makes two drift runs byte-comparable.
pub fn drift_to_json(result: &DriftResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{DRIFT_JSON_SCHEMA}\",\n"));
    out.push_str("  \"meta\": {\n");
    out.push_str(&format!("    \"solve_ms\": {},\n", result.meta.solve_ms));
    out.push_str(&format!("    \"lp_solves\": {},\n", result.meta.lp_solves));
    out.push_str(&format!("    \"warm_hits\": {},\n", result.meta.warm_hits));
    out.push_str(&format!(
        "    \"warm_misses\": {},\n",
        result.meta.warm_misses
    ));
    out.push_str(&format!(
        "    \"warm_hit_rate\": {},\n",
        json_f64(result.meta.warm_hit_rate())
    ));
    out.push_str(&format!("    \"scenarios\": {},\n", result.meta.scenarios));
    out.push_str(&format!(
        "    \"steps_per_scenario\": {}\n",
        result.config.steps
    ));
    out.push_str("  },\n");
    out.push_str("  \"scenarios\": [\n");
    for (si, scenario) in result.scenarios.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"class\": \"{}\",\n",
            class_key(scenario.class)
        ));
        out.push_str(&format!("      \"seed\": {},\n", scenario.seed));
        out.push_str(&format!("      \"platform\": {},\n", scenario.platform));
        out.push_str(&format!("      \"nodes\": {},\n", scenario.nodes));
        out.push_str(&format!("      \"targets\": {},\n", scenario.targets));
        out.push_str("      \"steps\": [\n");
        for (i, step) in scenario.steps.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!("          \"step\": {},\n", step.step));
            out.push_str(&format!("          \"event\": \"{}\",\n", step.event));
            out.push_str(&format!("          \"solve_ms\": {},\n", step.solve_ms));
            out.push_str("          \"kinds\": {");
            let entries: Vec<String> = step
                .kinds
                .iter()
                .map(|k| {
                    let mut entry = format!(
                        "\"{}\": {{\"period\": {}, \"simulated_throughput\": {}, \
                         \"throughput_delta\": {}, \"warm_hit_rate\": {}, \"lp_solves\": {}, \
                         \"warm_hits\": {}, \"warm_misses\": {}, \"realization_gap\": {}, \
                         \"one_port_violations\": {}, \"trees\": {}, \"transition\": ",
                        kind_key(k.kind),
                        json_f64(k.period),
                        json_f64(k.simulated_throughput),
                        json_f64(k.throughput_delta),
                        json_f64(if k.lp_solves > 0 {
                            k.warm_hits as f64 / k.lp_solves as f64
                        } else {
                            0.0
                        }),
                        k.lp_solves,
                        k.warm_hits,
                        k.warm_misses,
                        json_f64(k.realization_gap),
                        k.one_port_violations,
                        k.trees,
                    );
                    push_transition_json(&mut entry, k.transition.as_ref());
                    entry.push('}');
                    entry
                })
                .collect();
            out.push_str(&entries.join(", "));
            out.push_str("}\n");
            let comma = if i + 1 < scenario.steps.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("        }}{comma}\n"));
        }
        out.push_str("      ]\n");
        let comma = if si + 1 < result.scenarios.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DriftConfig {
        DriftConfig {
            classes: vec![PlatformClass::Small],
            seeds: vec![42],
            platforms: 1,
            density: 0.5,
            steps: 3,
            paper_scale: false,
            kinds: vec![HeuristicKind::Scatter, HeuristicKind::Mcph],
            progress: false,
        }
    }

    #[test]
    fn drift_scenarios_step_and_stay_valid() {
        let result = run_drift(&tiny_config(), &SolveContext::default());
        assert_eq!(result.scenarios.len(), 1);
        let scenario = &result.scenarios[0];
        assert_eq!(scenario.steps.len(), 4);
        assert_eq!(scenario.steps[0].event, "init");
        for step in &scenario.steps {
            for kind in &step.kinds {
                assert!(
                    kind.period.is_finite(),
                    "{:?} at step {}",
                    kind.kind,
                    step.step
                );
                assert_eq!(kind.one_port_violations, 0);
                assert!(kind.realization_gap < 0.01, "gap {}", kind.realization_gap);
                if step.step > 0 {
                    assert!(
                        kind.transition.is_some(),
                        "post-drift steps carry transitions"
                    );
                }
            }
        }
        // Warm starts dominate after the baseline step.
        assert!(result.meta.warm_hit_rate() > 0.5);
    }

    #[test]
    fn drift_json_is_deterministic_modulo_wall_time() {
        let config = tiny_config();
        let a = run_drift(&config, &SolveContext::default());
        let b = run_drift(&config, &SolveContext::default());
        let filter = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"solve_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(filter(&drift_to_json(&a)), filter(&drift_to_json(&b)));
        assert!(drift_to_json(&a).contains(DRIFT_JSON_SCHEMA));
    }
}
