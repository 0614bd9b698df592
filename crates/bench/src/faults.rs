//! The `--faults` frontier sweep: robust redundant realizations under
//! fault injection.
//!
//! Where the `--drift` sweep measures what the stateful session buys on a
//! *changing* platform, the faults sweep measures what redundancy buys on
//! an *unreliable* one: for every `(class, seed, platform)` scenario it
//! solves one heuristic kind, then realizes the solution robustly at each
//! requested disjointness level `f` ([`pm_core::realize_robust`]) and
//! replays the redundant schedule under a grid of i.i.d. message-loss
//! rates.  The artifact records the throughput-vs-redundancy/delivery
//! frontier — throughput sacrificed and delivery gained as `f` grows —
//! plus one crash/recovery round driven through
//! [`Session::re_realize_robust`] so the switchover [`TransitionCost`]s of
//! a node failure are measured, not modelled.
//!
//! Determinism: fault draws are counter-based ([`FaultModel`]), scenarios
//! evolve sequentially and are collected in configuration order, so two
//! runs (at any thread count) produce byte-identical artifacts except for
//! the `"solve_ms"` wall-time lines, which CI filters exactly as it does
//! for the sweep and drift artifacts.

use crate::drift::pick_disable_candidate;
use crate::emit::{class_key, json_f64, kind_key};
use pm_core::report::HeuristicKind;
use pm_core::session::{Session, TransitionCost};
use pm_core::{RobustOptions, RobustRealization};
use pm_lp::SolveContext;
use pm_platform::graph::{NodeId, PlatformBuilder};
use pm_platform::instances::MulticastInstance;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use pm_sim::{FaultModel, SimulationConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema tag of the faults artifact (`fig11 --faults --json`). v6
/// continues the fig11 artifact lineage: the first schema carrying
/// fault-injected delivery measurements and the redundancy frontier.
pub const FAULTS_JSON_SCHEMA: &str = "pm-bench/fig11-faults/v6";

/// Absolute slack allowed between a measured delivery ratio and the
/// analytic per-target floor [`RobustRealization::expected_delivery`]:
/// the replay is a finite sample of the loss process, so the measured
/// overall ratio may sit slightly below the worst-target expectation.
const DELIVERY_TOLERANCE: f64 = 0.08;

/// Configuration of a faults batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsConfig {
    /// Platform classes to sweep.
    pub classes: Vec<PlatformClass>,
    /// Base seeds; each `(class, seed)` pair contributes `platforms`
    /// scenarios.
    pub seeds: Vec<u64>,
    /// Random platforms per `(class, seed)` cell.
    pub platforms: usize,
    /// Target density of the sampled instances.
    pub density: f64,
    /// Uniform i.i.d. loss rates replayed against every robust schedule
    /// (must contain `0.0` for the fault-free gate to be meaningful).
    pub loss_rates: Vec<f64>,
    /// Requested disjointness levels `f`, in ascending order.
    pub redundancy: Vec<usize>,
    /// Fraction of the period reserved for acknowledgement slots.
    pub ack_overhead: f64,
    /// The heuristic kind whose steady state is realized robustly.
    pub kind: HeuristicKind,
    /// Periods replayed per delivery measurement.
    pub horizon: usize,
    /// Warm-up periods excluded from the throughput accounting.
    pub warmup: usize,
    /// Paper-scale platform sizes.
    pub paper_scale: bool,
    /// Print per-scenario progress to stderr.
    pub progress: bool,
}

impl FaultsConfig {
    /// The default `fig11 --faults` configuration.
    pub fn quick() -> Self {
        FaultsConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42, 43],
            platforms: 2,
            density: 0.5,
            loss_rates: vec![0.0, 0.02, 0.05, 0.1],
            redundancy: vec![1, 2, 3],
            ack_overhead: 0.05,
            kind: HeuristicKind::LowerBound,
            horizon: 160,
            warmup: 16,
            paper_scale: false,
            progress: false,
        }
    }

    /// The CI faults-smoke configuration: tiny and cheap, but still
    /// exercising the `f = 1` vs `f = 2` frontier and a crash round.
    pub fn smoke() -> Self {
        FaultsConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42],
            platforms: 1,
            density: 0.5,
            loss_rates: vec![0.0, 0.05],
            redundancy: vec![1, 2],
            ack_overhead: 0.05,
            kind: HeuristicKind::LowerBound,
            horizon: 120,
            warmup: 12,
            paper_scale: false,
            progress: false,
        }
    }

    /// The replay horizon/warm-up as a simulator configuration (faults and
    /// redundancy are set per measurement).
    fn sim_config(&self) -> SimulationConfig {
        SimulationConfig {
            horizon: self.horizon,
            warmup: self.warmup,
            ..SimulationConfig::default()
        }
    }
}

/// One loss rate replayed against one robust schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LossPoint {
    /// The injected uniform i.i.d. loss rate.
    pub loss: f64,
    /// Overall fraction of (message, target) deliveries that succeeded.
    pub delivery_ratio: f64,
    /// Fully delivered multicasts per unit time under this loss rate.
    pub goodput: f64,
    /// The analytic worst-target delivery floor at this loss rate.
    pub expected_floor: f64,
    /// Measured delivery within `DELIVERY_TOLERANCE` of the floor (and
    /// exactly `1.0` at loss `0.0`).
    pub meets_expected: bool,
}

/// One disjointness level of a scenario's frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierCell {
    /// The requested disjointness `f`.
    pub f: usize,
    /// Trees in the selected redundant combination.
    pub trees: usize,
    /// Worst-target union max-flow of the selection.
    pub achieved_disjointness: usize,
    /// Worst-target count of edge-disjoint per-tree delivery paths (the
    /// survival guarantee).
    pub path_disjointness: usize,
    /// Ack-costed period of the redundant schedule.
    pub period: f64,
    /// Throughput of the redundant schedule (`1 / period`).
    pub robust_throughput: f64,
    /// Non-redundant packing-LP throughput over the same pool.
    pub baseline_throughput: f64,
    /// `1 − robust / baseline` — the price of redundancy.
    pub throughput_sacrifice: f64,
    /// Replay-verified: every target still delivers under total loss of
    /// any single schedule edge (checked when `path_disjointness ≥ 2`).
    pub survives_single_edge_loss: bool,
    /// Warm-up fill latency of the fault-free replay.
    pub fill_latency: f64,
    /// Wall-clock milliseconds of the cell's realization + replays
    /// (nondeterministic; filtered before byte comparisons).
    pub solve_ms: u64,
    /// LP solves of the cell (re-solve + packing LPs).
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// One measurement per configured loss rate, in configuration order.
    pub losses: Vec<LossPoint>,
}

/// One crash or recovery round of a scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsTransition {
    /// Stable description of the applied event.
    pub event: String,
    /// Throughput of the robust realization after the event.
    pub robust_throughput: f64,
    /// Worst-target per-tree path disjointness after the event.
    pub path_disjointness: usize,
    /// The simulator-measured switchover cost against the previous robust
    /// realization.
    pub transition: Option<TransitionCost>,
}

/// One `(class, seed, platform)` scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsScenario {
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
    /// Worst-target edge-disjoint-path capability of the full platform
    /// (caps every achievable `f`).
    pub capability: usize,
    /// One cell per configured disjointness level, in configuration order.
    pub frontier: Vec<FrontierCell>,
    /// The crash round (absent when no node can be safely disabled).
    pub crash: Option<FaultsTransition>,
    /// The matching recovery round.
    pub recovery: Option<FaultsTransition>,
}

/// The deterministic worked-example frontier of a faults batch.
///
/// Random Tiers-like scenarios almost always contain a single-homed
/// target (worst-target capability 1, like the paper's Figure 1 whose
/// `P7` cut is a single edge), so their `f ≥ 2` cells can only report
/// *partial* redundancy. The dual-homed worked example — a source feeding
/// three targets through two edge-disjoint relay branches — supports two
/// edge-disjoint paths to every target, so this block is where the
/// artifact (and CI) pins the hard guarantee: `f = 2` achieves path
/// disjointness 2 and survives any single-edge total loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkedExample {
    /// Nodes of the dual-homed platform.
    pub nodes: usize,
    /// Targets of the dual-homed instance.
    pub targets: usize,
    /// Worst-target edge-disjoint-path capability (2 by construction).
    pub capability: usize,
    /// One cell per configured disjointness level.
    pub frontier: Vec<FrontierCell>,
}

/// Aggregate accounting of a faults batch.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FaultsMeta {
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

impl FaultsMeta {
    /// Warm-hit rate across every LP of the batch.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lp_solves > 0 {
            self.warm_hits as f64 / self.lp_solves as f64
        } else {
            0.0
        }
    }
}

/// The result of a [`run_faults`] call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsResult {
    /// The configuration that produced the result.
    pub config: FaultsConfig,
    /// The deterministic Figure 1 frontier (full `f = 2` redundancy).
    pub worked_example: WorkedExample,
    /// One scenario per `(class, seed, platform)`, in configuration order.
    pub scenarios: Vec<FaultsScenario>,
    /// Aggregate accounting.
    pub meta: FaultsMeta,
}

/// A deterministic per-measurement fault seed: mixes the scenario seed
/// with the disjointness level and the loss rate's bit pattern so no two
/// replays of a batch share a draw stream.
fn fault_seed(seed: u64, f: usize, loss: f64) -> u64 {
    seed ^ ((f as u64) << 48) ^ loss.to_bits().rotate_left(17)
}

/// Replays a robust schedule under a uniform i.i.d. loss rate and returns
/// the measured loss point.
fn measure_loss_point(
    session: &Session,
    realization: &RobustRealization,
    sim: &SimulationConfig,
    loss: f64,
    seed: u64,
) -> LossPoint {
    let instance = session.instance();
    let config = SimulationConfig {
        faults: (loss > 0.0).then(|| FaultModel::lossy(seed, loss)),
        redundant: true,
        ..sim.clone()
    };
    let report = Simulator::new(config)
        .run_schedule_on(
            &instance.platform,
            session.mask(),
            &realization.schedule,
            &instance.targets,
        )
        .expect("robust schedules never reference masked nodes");
    let expected_floor = realization.expected_delivery(&instance.platform, loss);
    let meets_expected = if loss == 0.0 {
        report.delivery_ratio == 1.0
    } else {
        report.delivery_ratio + DELIVERY_TOLERANCE >= expected_floor
    };
    LossPoint {
        loss,
        delivery_ratio: report.delivery_ratio,
        goodput: report.goodput,
        expected_floor,
        meets_expected,
    }
}

/// Realizes the session's solution robustly at every configured
/// disjointness level, replaying each redundant schedule over the loss
/// grid. Returns the frontier plus the options of the last level (the
/// crash round re-uses them). `seed` salts the fault draws.
fn run_frontier(
    session: &mut Session,
    config: &FaultsConfig,
    seed: u64,
) -> (Vec<FrontierCell>, RobustOptions) {
    let sim = config.sim_config();
    let mut frontier = Vec::with_capacity(config.redundancy.len());
    let mut options = RobustOptions {
        ack_overhead: config.ack_overhead,
        verify_loss: config
            .loss_rates
            .iter()
            .copied()
            .find(|&l| l > 0.0)
            .unwrap_or(0.05),
        sim: sim.clone(),
        ..RobustOptions::default()
    };
    for &f in &config.redundancy {
        let started = Instant::now();
        options.disjointness = f;
        options.seed = fault_seed(seed, f, 0.0);
        let solve = session.solve(config.kind).expect("faults re-solve");
        let re = session
            .re_realize_robust(config.kind, &options)
            .expect("robust realization of a reachable instance");
        let r = re.realization;
        let losses: Vec<LossPoint> = config
            .loss_rates
            .iter()
            .map(|&loss| measure_loss_point(session, &r, &sim, loss, fault_seed(seed, f, loss)))
            .collect();
        frontier.push(FrontierCell {
            f,
            trees: r.tree_set.len(),
            achieved_disjointness: r.achieved_disjointness,
            path_disjointness: r.path_disjointness,
            period: r.period,
            robust_throughput: r.robust_throughput,
            baseline_throughput: r.baseline_throughput,
            throughput_sacrifice: r.throughput_sacrifice(),
            survives_single_edge_loss: r.survives_single_edge_loss,
            fill_latency: r.fault_free.fill_latency,
            solve_ms: started.elapsed().as_millis() as u64,
            lp_solves: solve.stats.lp_solves + re.stats.lp_solves,
            warm_hits: solve.stats.warm_hits + re.stats.warm_hits,
            warm_misses: solve.stats.warm_misses + re.stats.warm_misses,
            losses,
        });
    }
    (frontier, options)
}

/// Worst-target edge-disjoint-path capability of a session's instance.
fn session_capability(session: &Session) -> usize {
    let instance = session.instance();
    instance
        .targets
        .iter()
        .map(|&t| instance.platform.edge_disjoint_paths(instance.source, t))
        .min()
        .unwrap_or(0)
}

/// Runs one scenario: solve once, realize robustly at every disjointness
/// level with the loss-rate replays, then one crash/recovery round at the
/// largest level.
fn run_scenario(
    config: &FaultsConfig,
    ctx: &SolveContext,
    class: PlatformClass,
    seed: u64,
    platform_index: usize,
) -> FaultsScenario {
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
    let capability = session_capability(&session);
    let (frontier, options) = run_frontier(&mut session, config, seed);

    // One crash/recovery round at the frontier's largest disjointness: the
    // session's previous robust realization is the last frontier cell, so
    // the recorded transitions measure exactly the degradation of losing a
    // node and the cost of winning it back.
    let mut crash = None;
    let mut recovery = None;
    if let Some(node) = pick_disable_candidate(&session, &mut rng) {
        session
            .disable_node(node)
            .expect("candidate is disableable");
        session.solve(config.kind).expect("masked re-solve");
        if let Ok(re) = session.re_realize_robust(config.kind, &options) {
            crash = Some(FaultsTransition {
                event: format!("disable {node}"),
                robust_throughput: re.realization.robust_throughput,
                path_disjointness: re.realization.path_disjointness,
                transition: re.transition,
            });
        }
        session.enable_node(node).expect("node exists");
        session.solve(config.kind).expect("restored re-solve");
        if let Ok(re) = session.re_realize_robust(config.kind, &options) {
            recovery = Some(FaultsTransition {
                event: format!("enable {node}"),
                robust_throughput: re.realization.robust_throughput,
                path_disjointness: re.realization.path_disjointness,
                transition: re.transition,
            });
        }
    }

    FaultsScenario {
        class,
        seed,
        platform: platform_index,
        nodes,
        targets,
        capability,
        frontier,
        crash,
        recovery,
    }
}

/// The dual-homed worked-example instance: source `S` reaches each of the
/// three targets through both relay branches (`S → A → Tᵢ` and
/// `S → B → Tᵢ` are edge-disjoint), with heterogeneous one-port costs so
/// the two branches are not interchangeable.
fn worked_example_instance() -> MulticastInstance {
    let mut b = PlatformBuilder::new();
    let s = b.add_named_node("S");
    let relay_a = b.add_named_node("A");
    let relay_b = b.add_named_node("B");
    let targets: Vec<NodeId> = (0..3).map(|i| b.add_named_node(&format!("T{i}"))).collect();
    b.add_edge(s, relay_a, 1.0).expect("uplink A");
    b.add_edge(s, relay_b, 1.2).expect("uplink B");
    for &t in &targets {
        b.add_edge(relay_a, t, 0.5).expect("branch A");
        b.add_edge(relay_b, t, 0.6).expect("branch B");
    }
    let platform = b.build().expect("worked-example platform");
    MulticastInstance::new(platform, s, targets).expect("worked-example instance")
}

/// Runs the dual-homed worked-example frontier (see [`WorkedExample`]).
fn run_worked_example(config: &FaultsConfig, ctx: &SolveContext) -> WorkedExample {
    let instance = worked_example_instance();
    let nodes = instance.platform.node_count();
    let targets = instance.target_count();
    let mut session = Session::new(instance).with_context(ctx.clone());
    let capability = session_capability(&session);
    let (frontier, _) = run_frontier(&mut session, config, 0xF1);
    WorkedExample {
        nodes,
        targets,
        capability,
        frontier,
    }
}

/// Runs the faults batch: the Figure 1 worked example plus every
/// `(class, seed, platform)` scenario on the rayon pool, collected in
/// configuration order, each session solving under `ctx`.
pub fn run_faults(config: &FaultsConfig, ctx: &SolveContext) -> FaultsResult {
    let mut cells: Vec<(PlatformClass, u64, usize)> = Vec::new();
    for &class in &config.classes {
        for &seed in &config.seeds {
            for pi in 0..config.platforms {
                cells.push((class, seed, pi));
            }
        }
    }
    let scenarios: Vec<FaultsScenario> = cells
        .into_par_iter()
        .map(|(class, seed, pi)| {
            let scenario = run_scenario(config, ctx, class, seed, pi);
            if config.progress {
                eprintln!(
                    "fig11: faults scenario class={class:?} seed={seed} platform={pi} done \
                     ({} frontier cells)",
                    scenario.frontier.len()
                );
            }
            scenario
        })
        .collect();

    let worked_example = run_worked_example(config, ctx);

    let mut meta = FaultsMeta {
        scenarios: scenarios.len() as u64,
        ..FaultsMeta::default()
    };
    for cell in worked_example
        .frontier
        .iter()
        .chain(scenarios.iter().flat_map(|s| &s.frontier))
    {
        meta.solve_ms += cell.solve_ms;
        meta.lp_solves += cell.lp_solves;
        meta.warm_hits += cell.warm_hits;
        meta.warm_misses += cell.warm_misses;
    }
    FaultsResult {
        config: config.clone(),
        worked_example,
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

fn push_round_json(out: &mut String, round: Option<&FaultsTransition>) {
    match round {
        None => out.push_str("null"),
        Some(r) => {
            out.push_str(&format!(
                "{{\"event\": \"{}\", \"robust_throughput\": {}, \"path_disjointness\": {}, \
                 \"transition\": ",
                r.event,
                json_f64(r.robust_throughput),
                r.path_disjointness,
            ));
            push_transition_json(out, r.transition.as_ref());
            out.push('}');
        }
    }
}

/// Emits a frontier-cell array with its items indented by `pad`.
fn push_frontier_json(out: &mut String, cells: &[FrontierCell], pad: &str) {
    out.push_str("[\n");
    for (ci, cell) in cells.iter().enumerate() {
        out.push_str(&format!("{pad}{{\n"));
        out.push_str(&format!("{pad}  \"f\": {},\n", cell.f));
        out.push_str(&format!("{pad}  \"trees\": {},\n", cell.trees));
        out.push_str(&format!(
            "{pad}  \"achieved_disjointness\": {},\n",
            cell.achieved_disjointness
        ));
        out.push_str(&format!(
            "{pad}  \"path_disjointness\": {},\n",
            cell.path_disjointness
        ));
        out.push_str(&format!("{pad}  \"period\": {},\n", json_f64(cell.period)));
        out.push_str(&format!(
            "{pad}  \"robust_throughput\": {},\n",
            json_f64(cell.robust_throughput)
        ));
        out.push_str(&format!(
            "{pad}  \"baseline_throughput\": {},\n",
            json_f64(cell.baseline_throughput)
        ));
        out.push_str(&format!(
            "{pad}  \"throughput_sacrifice\": {},\n",
            json_f64(cell.throughput_sacrifice)
        ));
        out.push_str(&format!(
            "{pad}  \"survives_single_edge_loss\": {},\n",
            cell.survives_single_edge_loss
        ));
        out.push_str(&format!(
            "{pad}  \"fill_latency\": {},\n",
            json_f64(cell.fill_latency)
        ));
        out.push_str(&format!("{pad}  \"solve_ms\": {},\n", cell.solve_ms));
        out.push_str(&format!(
            "{pad}  \"lp_solves\": {}, \"warm_hits\": {}, \"warm_misses\": {},\n",
            cell.lp_solves, cell.warm_hits, cell.warm_misses
        ));
        out.push_str(&format!("{pad}  \"losses\": ["));
        let points: Vec<String> = cell
            .losses
            .iter()
            .map(|p| {
                format!(
                    "{{\"loss\": {}, \"delivery_ratio\": {}, \"goodput\": {}, \
                     \"expected_floor\": {}, \"meets_expected\": {}}}",
                    json_f64(p.loss),
                    json_f64(p.delivery_ratio),
                    json_f64(p.goodput),
                    json_f64(p.expected_floor),
                    p.meets_expected,
                )
            })
            .collect();
        out.push_str(&points.join(", "));
        out.push_str("]\n");
        let comma = if ci + 1 < cells.len() { "," } else { "" };
        out.push_str(&format!("{pad}}}{comma}\n"));
    }
    // Closing bracket at one level out from the items.
    out.push_str(&pad[..pad.len().saturating_sub(2)]);
    out.push(']');
}

/// The faults batch as a pretty-printed schema-v6 JSON document.
///
/// Every `"solve_ms"` field (the meta total and each frontier cell's wall
/// time) sits on its own line, so the same `grep -v '"solve_ms"'` filter
/// CI applies to the sweep and drift artifacts makes two faults runs
/// byte-comparable.
pub fn faults_to_json(result: &FaultsResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{FAULTS_JSON_SCHEMA}\",\n"));
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
        "    \"kind\": \"{}\",\n",
        kind_key(result.config.kind)
    ));
    let floats = |v: &[f64]| {
        v.iter()
            .map(|&x| json_f64(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!(
        "    \"loss_rates\": [{}],\n",
        floats(&result.config.loss_rates)
    ));
    out.push_str(&format!(
        "    \"redundancy\": [{}]\n",
        result
            .config
            .redundancy
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  },\n");
    out.push_str("  \"worked_example\": {\n");
    out.push_str(&format!(
        "    \"nodes\": {},\n",
        result.worked_example.nodes
    ));
    out.push_str(&format!(
        "    \"targets\": {},\n",
        result.worked_example.targets
    ));
    out.push_str(&format!(
        "    \"capability\": {},\n",
        result.worked_example.capability
    ));
    out.push_str("    \"frontier\": ");
    push_frontier_json(&mut out, &result.worked_example.frontier, "      ");
    out.push_str("\n  },\n");
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
        out.push_str(&format!("      \"capability\": {},\n", scenario.capability));
        out.push_str("      \"frontier\": ");
        push_frontier_json(&mut out, &scenario.frontier, "        ");
        out.push_str(",\n");
        out.push_str("      \"crash\": ");
        push_round_json(&mut out, scenario.crash.as_ref());
        out.push_str(",\n      \"recovery\": ");
        push_round_json(&mut out, scenario.recovery.as_ref());
        out.push('\n');
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

    fn tiny_config() -> FaultsConfig {
        FaultsConfig {
            classes: vec![PlatformClass::Small],
            seeds: vec![42],
            platforms: 1,
            loss_rates: vec![0.0, 0.05],
            redundancy: vec![1, 2],
            horizon: 120,
            warmup: 12,
            ..FaultsConfig::smoke()
        }
    }

    #[test]
    fn worked_example_pins_full_redundancy() {
        let result = run_faults(&tiny_config(), &SolveContext::default());
        let we = &result.worked_example;
        assert_eq!(
            we.capability, 2,
            "the worked example dual-homes every target"
        );
        let f2 = we
            .frontier
            .iter()
            .find(|c| c.f == 2)
            .expect("an f = 2 cell");
        // The hard guarantee of the tentpole: two edge-disjoint delivery
        // paths per target, verified by max-flow on the union and by the
        // single-edge total-loss replay.
        assert!(f2.achieved_disjointness >= 2);
        assert!(f2.path_disjointness >= 2);
        assert!(f2.survives_single_edge_loss);
        for point in &f2.losses {
            assert!(point.meets_expected, "loss={}", point.loss);
            if point.loss == 0.0 {
                assert_eq!(point.delivery_ratio, 1.0);
            } else {
                // Redundancy buys delivery: the floor of the f = 2 cell
                // beats a single 2-hop chain's survival at the same loss.
                assert!(point.delivery_ratio > 1.0 - 2.0 * point.loss);
            }
        }
        let f1 = we
            .frontier
            .iter()
            .find(|c| c.f == 1)
            .expect("an f = 1 cell");
        assert!(!f1.survives_single_edge_loss);
        assert!(f2.robust_throughput <= f1.robust_throughput + 1e-9);
    }

    #[test]
    fn faults_frontier_holds_invariants() {
        let result = run_faults(&tiny_config(), &SolveContext::default());
        assert_eq!(result.scenarios.len(), 1);
        let scenario = &result.scenarios[0];
        assert_eq!(scenario.frontier.len(), 2);
        assert!(scenario.capability >= 1);
        let mut previous_throughput = f64::INFINITY;
        for cell in &scenario.frontier {
            // Redundancy is never free: throughput is non-increasing in f
            // and never beats the non-redundant packing baseline.
            assert!(
                cell.robust_throughput <= previous_throughput + 1e-9,
                "f={} throughput {} above previous {}",
                cell.f,
                cell.robust_throughput,
                previous_throughput
            );
            previous_throughput = cell.robust_throughput;
            assert!(cell.throughput_sacrifice >= -1e-6);
            assert!(cell.period.is_finite() && cell.period > 0.0);
            assert!(cell.path_disjointness >= 1);
            assert!(cell.achieved_disjointness >= cell.path_disjointness);
            // The f ≥ 2 guarantee: disjoint per-tree paths survive the
            // total loss of any single schedule edge.
            if cell.path_disjointness >= 2 {
                assert!(
                    cell.survives_single_edge_loss,
                    "f={} not survivable",
                    cell.f
                );
            }
            for point in &cell.losses {
                assert!(point.meets_expected, "f={} loss={}", cell.f, point.loss);
                if point.loss == 0.0 {
                    assert_eq!(point.delivery_ratio, 1.0);
                    assert!(point.goodput > 0.0);
                }
            }
        }
        // The crash round fired and measured a switchover against the last
        // frontier realization.
        let crash = scenario.crash.as_ref().expect("a disableable node");
        assert!(crash.transition.is_some());
        let recovery = scenario.recovery.as_ref().expect("recovery round");
        assert!(recovery.transition.is_some());
        assert!(recovery.robust_throughput.is_finite());
    }

    #[test]
    fn faults_json_is_deterministic_modulo_wall_time() {
        let config = tiny_config();
        let a = run_faults(&config, &SolveContext::default());
        let b = run_faults(&config, &SolveContext::default());
        let filter = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"solve_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(filter(&faults_to_json(&a)), filter(&faults_to_json(&b)));
        assert!(faults_to_json(&a).contains(FAULTS_JSON_SCHEMA));
    }
}
