//! The `--multi` scenario sweep: multi-commodity super-periods over the
//! commodity-count × rate-skew grid.
//!
//! Each cell samples `k` concurrent multicast demands from one Tiers-like
//! platform, solves the joint steady-state LP through
//! [`Session::solve_multi`], realizes the shared super-period schedule
//! through [`Session::re_realize_multi`], and gates on the subsystem's two
//! hard invariants: the combined schedule replays with **zero one-port
//! violations**, and **every commodity's simulated rate meets its LP rate**
//! (within `1e-6`). Each cell then applies one seeded edge-cost drift event
//! and re-solves + re-realizes, measuring the warm-start behaviour and the
//! super-period switchover [`TransitionCost`]. `k = 1` cells additionally
//! run the classic single-commodity `LOWER BOUND` pipeline on a fresh
//! session and assert the multi path reduces to it bit-for-bit.
//!
//! Determinism: commodities are sampled from the configuration seed only,
//! cells are independent and collected in configuration order — two runs
//! (at any thread count) produce byte-identical artifacts except for the
//! `"solve_ms"` wall-time lines, which CI filters exactly as it does for
//! the other fig11 artifacts.

use crate::emit::{class_key, json_f64};
use pm_core::multi::Commodity;
use pm_core::report::HeuristicKind;
use pm_core::session::{Session, TransitionCost};
use pm_lp::SolveContext;
use pm_platform::graph::EdgeId;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema tag of the multi-commodity artifact (`fig11 --multi --json`). v8
/// continues the fig11 artifact lineage: it is the first schema carrying
/// per-commodity rate certificates of a shared super-period.
pub const MULTI_JSON_SCHEMA: &str = "pm-bench/fig11-multi/v8";

/// A commodity's simulated rate must reach its LP rate up to this absolute
/// slack (the schedule delivers whole messages per super-period, so the
/// comparison is exact up to float noise).
const RATE_SLACK: f64 = 1e-6;

/// Drifted edge costs stay inside this clamp (same as the `--drift` sweep).
const COST_CLAMP: (f64, f64) = (0.05, 50.0);

/// How the demand rates are distributed over the `k` commodities of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateSkew {
    /// Every commodity demands 1 message per super-unit.
    Uniform,
    /// Commodity 0 demands 4 messages per super-unit, the rest 1 — the
    /// heavy flow must not starve the light ones (and vice versa).
    FourToOne,
}

/// Stable snake_case key of a skew (artifact field values).
pub fn skew_key(skew: RateSkew) -> &'static str {
    match skew {
        RateSkew::Uniform => "uniform",
        RateSkew::FourToOne => "four_to_one",
    }
}

impl RateSkew {
    /// The demand of commodity `c` under the skew.
    fn demand(self, c: usize) -> f64 {
        match self {
            RateSkew::Uniform => 1.0,
            RateSkew::FourToOne => {
                if c == 0 {
                    4.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// Configuration of a multi-commodity batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiBenchConfig {
    /// Platform classes to sweep.
    pub classes: Vec<PlatformClass>,
    /// Base seeds; each `(class, seed)` pair contributes `platforms`
    /// platforms, each swept over the full `ks × skews` grid.
    pub seeds: Vec<u64>,
    /// Random platforms per `(class, seed)` cell.
    pub platforms: usize,
    /// Target density of each sampled commodity's target set.
    pub density: f64,
    /// Commodity counts of the grid.
    pub ks: Vec<usize>,
    /// Rate skews of the grid.
    pub skews: Vec<RateSkew>,
    /// Paper-scale platform sizes.
    pub paper_scale: bool,
    /// Print per-cell progress to stderr.
    pub progress: bool,
}

impl MultiBenchConfig {
    /// The default `fig11 --multi` configuration.
    pub fn quick() -> Self {
        MultiBenchConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42, 43],
            platforms: 1,
            density: 0.5,
            ks: vec![1, 2, 4, 8],
            skews: vec![RateSkew::Uniform, RateSkew::FourToOne],
            paper_scale: false,
            progress: false,
        }
    }

    /// The CI multi-smoke configuration: one platform, but still the full
    /// `k × skew` grid, so the rate and one-port gates cover every
    /// commodity count the acceptance criteria name.
    pub fn smoke() -> Self {
        MultiBenchConfig {
            classes: vec![PlatformClass::Small],
            seeds: vec![42],
            platforms: 1,
            density: 0.5,
            ks: vec![1, 2, 4, 8],
            skews: vec![RateSkew::Uniform, RateSkew::FourToOne],
            paper_scale: false,
            progress: false,
        }
    }
}

/// One commodity's certificate inside a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiCommodityRecord {
    /// Commodity index within the cell.
    pub commodity: usize,
    /// Demand `d_c` (messages per super-unit).
    pub demand: f64,
    /// Targets of the commodity's multicast.
    pub targets: usize,
    /// The joint LP's steady-state rate `d_c / T*`.
    pub lp_rate: f64,
    /// The realization's certified rate `d_c · s_cert`.
    pub certified_rate: f64,
    /// The rate the commodity's tag-restricted sub-schedule actually
    /// sustains in the one-port simulator.
    pub simulated_rate: f64,
    /// `simulated_rate ≥ lp_rate − 1e-6` — the acceptance gate.
    pub rate_met: bool,
    /// Trees the commodity contributes to the shared super-period.
    pub trees: usize,
}

/// The post-drift re-solve + re-realization of a cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiDriftRecord {
    /// Stable description of the applied edge-cost event.
    pub event: String,
    /// The re-solved super-unit period `T*`.
    pub lp_period: f64,
    /// The re-realized certified super-period.
    pub super_period: f64,
    /// One-port violations of the re-realized combined schedule.
    pub one_port_violations: u64,
    /// Every commodity still meets its (re-solved) LP rate.
    pub all_rates_met: bool,
    /// LP solves of the step (re-solve + packing LPs).
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// The super-period switchover cost against the baseline realization.
    pub transition: Option<TransitionCost>,
}

/// One `(class, seed, platform, k, skew)` cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiCell {
    /// Platform class.
    pub class: PlatformClass,
    /// Base seed of the cell.
    pub seed: u64,
    /// Platform index within the `(class, seed)` pair.
    pub platform: usize,
    /// Concurrent commodities.
    pub k: usize,
    /// Demand distribution.
    pub skew: RateSkew,
    /// Nodes of the platform.
    pub nodes: usize,
    /// The joint super-unit period `T*`.
    pub lp_period: f64,
    /// The certified super-period of the realization.
    pub super_period: f64,
    /// The best common scale the shared packing LP reached.
    pub packed_scale: f64,
    /// `max_c |simulated_rate_c − certified_rate_c| / certified_rate_c`.
    pub realization_gap: f64,
    /// One-port violations of the combined schedule (the hard gate: 0).
    pub one_port_violations: u64,
    /// Trees in the shared super-period across commodities.
    pub trees: usize,
    /// LP solves of the baseline solve + realization.
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// Wall-clock milliseconds of the cell (nondeterministic; filtered
    /// before byte comparisons).
    pub solve_ms: u64,
    /// For `k = 1` cells: whether the multi pipeline reproduced the
    /// single-commodity `LOWER BOUND` pipeline bit-for-bit (period bits,
    /// schedule, tree set and simulator report). `None` for `k > 1`.
    pub matches_single: Option<bool>,
    /// Per-commodity certificates, in commodity order.
    pub commodities: Vec<MultiCommodityRecord>,
    /// The post-drift step.
    pub drift: MultiDriftRecord,
}

/// Aggregate accounting of a multi-commodity batch.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MultiMeta {
    /// Total wall-clock milliseconds across cells (nondeterministic).
    pub solve_ms: u64,
    /// Linear programs solved.
    pub lp_solves: u64,
    /// Solves that warm-started.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// Cells run.
    pub cells: u64,
}

impl MultiMeta {
    /// Warm-hit rate across every LP of the batch.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lp_solves > 0 {
            self.warm_hits as f64 / self.lp_solves as f64
        } else {
            0.0
        }
    }
}

/// The result of a [`run_multi`] call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiBenchResult {
    /// The configuration that produced the result.
    pub config: MultiBenchConfig,
    /// One cell per `(class, seed, platform, k, skew)`, in configuration
    /// order.
    pub cells: Vec<MultiCell>,
    /// Aggregate accounting.
    pub meta: MultiMeta,
}

/// Samples the cell's `k` commodities from the topology. The sampling
/// stream depends only on `(class, seed, platform)` and the commodity
/// index, so smaller `k` values see a prefix of larger ones.
fn sample_commodities(
    topology: &pm_platform::topology::GeneratedTopology,
    config: &MultiBenchConfig,
    k: usize,
    skew: RateSkew,
    rng: &mut StdRng,
) -> (pm_platform::instances::MulticastInstance, Vec<Commodity>) {
    let mut commodities = Vec::with_capacity(k);
    let mut base = None;
    for c in 0..k {
        let instance = topology.sample_instance(config.density, rng);
        commodities.push(Commodity {
            source: instance.source,
            targets: instance.targets.clone(),
            demand: skew.demand(c),
        });
        if c == 0 {
            base = Some(instance);
        }
    }
    (base.expect("k >= 1"), commodities)
}

/// For `k = 1` cells: replays the classic single-commodity `LOWER BOUND`
/// pipeline on a fresh session over commodity 0's instance and compares it
/// bit-for-bit against the multi path (both run cold on fresh templates,
/// so equal optima must be equal bit patterns).
fn matches_single_pipeline(
    ctx: &SolveContext,
    instance: pm_platform::instances::MulticastInstance,
    flow: &pm_core::multi::MultiFlow,
    realization: &pm_core::multi::MultiRealization,
) -> bool {
    let mut single = Session::new(instance).with_context(ctx.clone());
    let solve = single
        .solve(HeuristicKind::LowerBound)
        .expect("lower bound solves on strongly connected platforms");
    let re = single
        .re_realize(HeuristicKind::LowerBound)
        .expect("lower bound realizes on strongly connected platforms");
    flow.flows[0].period.to_bits() == solve.result.period.to_bits()
        && realization.schedule == re.realization.schedule
        && realization.tree_sets[0] == re.realization.tree_set
        && realization.simulated == re.realization.simulated
}

/// Runs one cell: joint solve + shared realization, the `k = 1` reduction
/// check, then one drift event followed by a warm re-solve +
/// re-realization.
fn run_cell(
    config: &MultiBenchConfig,
    ctx: &SolveContext,
    class: PlatformClass,
    seed: u64,
    platform_index: usize,
    k: usize,
    skew: RateSkew,
) -> MultiCell {
    let mut generator = if config.paper_scale {
        TiersLikeGenerator::paper_scale(class, seed + platform_index as u64)
    } else {
        TiersLikeGenerator::reduced_scale(class, seed + platform_index as u64)
    };
    let topology = generator.generate();
    let mut rng =
        StdRng::seed_from_u64(seed ^ ((platform_index as u64) << 32) ^ 0x9a3c_51b7_02de_6f41);
    let (base_instance, commodities) = sample_commodities(&topology, config, k, skew, &mut rng);
    let nodes = base_instance.platform.node_count();
    let single_instance = (k == 1).then(|| base_instance.clone());

    let started = Instant::now();
    let mut session = Session::new(base_instance).with_context(ctx.clone());
    let solve = session
        .solve_multi(&commodities)
        .unwrap_or_else(|e| panic!("joint solve failed (k={k}, {skew:?}): {e}"));
    let re = session
        .re_realize_multi()
        .unwrap_or_else(|e| panic!("joint realization failed (k={k}, {skew:?}): {e}"));
    let realization = &re.realization;

    let records: Vec<MultiCommodityRecord> = commodities
        .iter()
        .enumerate()
        .map(|(c, commodity)| {
            let lp_rate = solve.flow.rates[c];
            let simulated_rate = realization.simulated_rates[c];
            MultiCommodityRecord {
                commodity: c,
                demand: commodity.demand,
                targets: commodity.targets.len(),
                lp_rate,
                certified_rate: realization.certified_rates[c],
                simulated_rate,
                rate_met: simulated_rate >= lp_rate - RATE_SLACK,
                trees: realization.tag_ranges[c].1 - realization.tag_ranges[c].0,
            }
        })
        .collect();

    let matches_single = single_instance
        .map(|instance| matches_single_pipeline(ctx, instance, &solve.flow, realization));

    let lp_period = solve.flow.period;
    let super_period = realization.super_period;
    let packed_scale = realization.packed_scale;
    let realization_gap = realization.realization_gap;
    let one_port_violations = realization.simulated.one_port_violations as u64;
    let trees: usize = realization.tree_sets.iter().map(|s| s.trees().len()).sum();
    let baseline_lp_solves = solve.stats.lp_solves + re.stats.lp_solves;
    let baseline_warm_hits = solve.stats.warm_hits + re.stats.warm_hits;
    let baseline_warm_misses = solve.stats.warm_misses + re.stats.warm_misses;

    // One seeded edge-cost drift event, then the warm path: the stored
    // joint template absorbs the new cost and re-solves from the previous
    // basis; the re-realization seeds its pools from the previous trees and
    // reports the super-period switchover cost.
    let edge = EdgeId(rng.gen_range(0..session.instance().platform.edge_count()) as u32);
    let old_cost = session.instance().platform.cost(edge);
    let factor: f64 = rng.gen_range(0.7..1.4);
    let cost = (old_cost * factor).clamp(COST_CLAMP.0, COST_CLAMP.1);
    session.set_edge_cost(edge, cost).expect("edge exists");
    let event = format!("edge {edge} cost {cost}");

    let drift_solve = session
        .solve_multi(&commodities)
        .unwrap_or_else(|e| panic!("post-drift joint solve failed (k={k}, {skew:?}): {e}"));
    let drift_re = session
        .re_realize_multi()
        .unwrap_or_else(|e| panic!("post-drift joint realization failed (k={k}, {skew:?}): {e}"));
    let all_rates_met = drift_re
        .realization
        .simulated_rates
        .iter()
        .zip(&drift_solve.flow.rates)
        .all(|(&sim, &lp)| sim >= lp - RATE_SLACK);
    let drift = MultiDriftRecord {
        event,
        lp_period: drift_solve.flow.period,
        super_period: drift_re.realization.super_period,
        one_port_violations: drift_re.realization.simulated.one_port_violations as u64,
        all_rates_met,
        lp_solves: drift_solve.stats.lp_solves + drift_re.stats.lp_solves,
        warm_hits: drift_solve.stats.warm_hits + drift_re.stats.warm_hits,
        warm_misses: drift_solve.stats.warm_misses + drift_re.stats.warm_misses,
        transition: drift_re.transition,
    };

    MultiCell {
        class,
        seed,
        platform: platform_index,
        k,
        skew,
        nodes,
        lp_period,
        super_period,
        packed_scale,
        realization_gap,
        one_port_violations,
        trees,
        lp_solves: baseline_lp_solves,
        warm_hits: baseline_warm_hits,
        warm_misses: baseline_warm_misses,
        solve_ms: started.elapsed().as_millis() as u64,
        matches_single,
        commodities: records,
        drift,
    }
}

/// Runs the multi-commodity batch: every `(class, seed, platform, k, skew)`
/// cell on the rayon pool, collected in configuration order, each session
/// solving under `ctx`.
pub fn run_multi(config: &MultiBenchConfig, ctx: &SolveContext) -> MultiBenchResult {
    let mut cells: Vec<(PlatformClass, u64, usize, usize, RateSkew)> = Vec::new();
    for &class in &config.classes {
        for &seed in &config.seeds {
            for pi in 0..config.platforms {
                for &k in &config.ks {
                    for &skew in &config.skews {
                        cells.push((class, seed, pi, k, skew));
                    }
                }
            }
        }
    }
    let cells: Vec<MultiCell> = cells
        .into_par_iter()
        .map(|(class, seed, pi, k, skew)| {
            let cell = run_cell(config, ctx, class, seed, pi, k, skew);
            if config.progress {
                eprintln!(
                    "fig11: multi cell class={class:?} seed={seed} platform={pi} k={k} \
                     skew={} done (T*={:.4}, {} trees)",
                    skew_key(skew),
                    cell.lp_period,
                    cell.trees
                );
            }
            cell
        })
        .collect();

    let mut meta = MultiMeta {
        cells: cells.len() as u64,
        ..MultiMeta::default()
    };
    for cell in &cells {
        meta.solve_ms += cell.solve_ms;
        meta.lp_solves += cell.lp_solves + cell.drift.lp_solves;
        meta.warm_hits += cell.warm_hits + cell.drift.warm_hits;
        meta.warm_misses += cell.warm_misses + cell.drift.warm_misses;
    }
    MultiBenchResult {
        config: config.clone(),
        cells,
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

/// The multi-commodity batch as a pretty-printed schema-v8 JSON document.
///
/// Every `"solve_ms"` field (the meta total and each cell's wall time) sits
/// on its own line, so the same `grep -v '"solve_ms"'` filter CI applies to
/// the other fig11 artifacts makes two multi runs byte-comparable.
pub fn multi_to_json(result: &MultiBenchResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{MULTI_JSON_SCHEMA}\",\n"));
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
    out.push_str(&format!("    \"cells\": {}\n", result.meta.cells));
    out.push_str("  },\n");
    out.push_str("  \"cells\": [\n");
    for (ci, cell) in result.cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"class\": \"{}\",\n",
            class_key(cell.class)
        ));
        out.push_str(&format!("      \"seed\": {},\n", cell.seed));
        out.push_str(&format!("      \"platform\": {},\n", cell.platform));
        out.push_str(&format!("      \"k\": {},\n", cell.k));
        out.push_str(&format!("      \"skew\": \"{}\",\n", skew_key(cell.skew)));
        out.push_str(&format!("      \"nodes\": {},\n", cell.nodes));
        out.push_str(&format!(
            "      \"lp_period\": {},\n",
            json_f64(cell.lp_period)
        ));
        out.push_str(&format!(
            "      \"super_period\": {},\n",
            json_f64(cell.super_period)
        ));
        out.push_str(&format!(
            "      \"packed_scale\": {},\n",
            json_f64(cell.packed_scale)
        ));
        out.push_str(&format!(
            "      \"realization_gap\": {},\n",
            json_f64(cell.realization_gap)
        ));
        out.push_str(&format!(
            "      \"one_port_violations\": {},\n",
            cell.one_port_violations
        ));
        out.push_str(&format!("      \"trees\": {},\n", cell.trees));
        out.push_str(&format!("      \"lp_solves\": {},\n", cell.lp_solves));
        out.push_str(&format!("      \"warm_hits\": {},\n", cell.warm_hits));
        out.push_str(&format!("      \"warm_misses\": {},\n", cell.warm_misses));
        out.push_str(&format!("      \"solve_ms\": {},\n", cell.solve_ms));
        out.push_str(&format!(
            "      \"matches_single\": {},\n",
            match cell.matches_single {
                None => "null".to_string(),
                Some(b) => b.to_string(),
            }
        ));
        out.push_str("      \"commodities\": [\n");
        for (i, c) in cell.commodities.iter().enumerate() {
            let comma = if i + 1 < cell.commodities.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "        {{\"commodity\": {}, \"demand\": {}, \"targets\": {}, \
                 \"lp_rate\": {}, \"certified_rate\": {}, \"simulated_rate\": {}, \
                 \"rate_met\": {}, \"trees\": {}}}{comma}\n",
                c.commodity,
                json_f64(c.demand),
                c.targets,
                json_f64(c.lp_rate),
                json_f64(c.certified_rate),
                json_f64(c.simulated_rate),
                c.rate_met,
                c.trees,
            ));
        }
        out.push_str("      ],\n");
        out.push_str("      \"drift\": {\n");
        out.push_str(&format!("        \"event\": \"{}\",\n", cell.drift.event));
        out.push_str(&format!(
            "        \"lp_period\": {},\n",
            json_f64(cell.drift.lp_period)
        ));
        out.push_str(&format!(
            "        \"super_period\": {},\n",
            json_f64(cell.drift.super_period)
        ));
        out.push_str(&format!(
            "        \"one_port_violations\": {},\n",
            cell.drift.one_port_violations
        ));
        out.push_str(&format!(
            "        \"all_rates_met\": {},\n",
            cell.drift.all_rates_met
        ));
        out.push_str(&format!(
            "        \"lp_solves\": {},\n",
            cell.drift.lp_solves
        ));
        out.push_str(&format!(
            "        \"warm_hits\": {},\n",
            cell.drift.warm_hits
        ));
        out.push_str(&format!(
            "        \"warm_misses\": {},\n",
            cell.drift.warm_misses
        ));
        out.push_str("        \"transition\": ");
        push_transition_json(&mut out, cell.drift.transition.as_ref());
        out.push_str("\n      }\n");
        let comma = if ci + 1 < result.cells.len() { "," } else { "" };
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> MultiBenchConfig {
        MultiBenchConfig {
            classes: vec![PlatformClass::Small],
            seeds: vec![42],
            platforms: 1,
            density: 0.5,
            ks: vec![1, 2, 4],
            skews: vec![RateSkew::Uniform, RateSkew::FourToOne],
            paper_scale: false,
            progress: false,
        }
    }

    #[test]
    fn multi_cells_meet_every_commodity_rate_with_zero_violations() {
        let result = run_multi(&tiny_config(), &SolveContext::default());
        assert_eq!(result.cells.len(), 6);
        for cell in &result.cells {
            assert_eq!(cell.one_port_violations, 0, "k={} {:?}", cell.k, cell.skew);
            assert_eq!(cell.commodities.len(), cell.k);
            for c in &cell.commodities {
                assert!(
                    c.rate_met,
                    "commodity {} of k={} {:?}: simulated {} vs lp {}",
                    c.commodity, cell.k, cell.skew, c.simulated_rate, c.lp_rate
                );
            }
            if cell.k == 1 {
                assert_eq!(
                    cell.matches_single,
                    Some(true),
                    "k=1 must reduce to the single-commodity pipeline bit-for-bit"
                );
            } else {
                assert_eq!(cell.matches_single, None);
            }
            // The drift step re-solves the stored template from the
            // previous basis and swaps super-periods atomically.
            assert_eq!(cell.drift.one_port_violations, 0);
            assert!(cell.drift.all_rates_met, "k={} {:?}", cell.k, cell.skew);
            assert!(cell.drift.warm_hits >= 1, "post-drift solves warm-start");
            assert!(
                cell.drift.transition.is_some(),
                "post-drift realizations carry transitions"
            );
        }
    }

    #[test]
    fn multi_json_is_deterministic_modulo_wall_time() {
        let config = tiny_config();
        let a = run_multi(&config, &SolveContext::default());
        let b = run_multi(&config, &SolveContext::default());
        let filter = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"solve_ms\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(filter(&multi_to_json(&a)), filter(&multi_to_json(&b)));
        assert!(multi_to_json(&a).contains(MULTI_JSON_SCHEMA));
    }
}
