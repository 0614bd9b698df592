//! The Figure 11 sweep: run every heuristic over random Tiers-like platforms
//! and increasing densities of targets, and aggregate the period ratios.
//!
//! Two entry points:
//!
//! * [`run_sweep`] — one `(class, seed)` sweep over a density grid, the unit
//!   of Figure 11's four sub-figures,
//! * [`run_batch`] — the full Figure 11 reproduction: every platform class
//!   crossed with a seed grid, with all `(class, seed, platform)` work items
//!   flattened into a single rayon-parallel pool so the LP-heavy reports
//!   saturate every core regardless of how the grid is shaped.
//!
//! **Warm starts**: within one `(class, seed, platform)` work item the
//! density grid is swept *sequentially*, and every LP runs through a
//! [`Session`]: its masked templates warm-start each re-solve from the
//! previous optimal basis, and its realizations pack through the session's
//! own warm-start cache. Nothing is shared between items, so parallel
//! scheduling cannot leak state between them.
//!
//! Determinism: instance seeds are derived from the configuration only,
//! warm starts evolve deterministically inside their session, and
//! rayon's ordered collect keeps aggregation order independent of thread
//! scheduling, so two runs of the same configuration produce bitwise
//! identical results (the property the JSON/CSV baselines in CI rely on).

use pm_core::report::{CollectOptions, HeuristicKind, KindLpStats, MulticastReport};
use pm_core::session::Session;
use pm_lp::SolveContext;
use pm_platform::topology::{GeneratedTopology, PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Configuration of a sweep (one of the four sub-figures of Figure 11).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// The platform class ("small" or "big").
    pub class: PlatformClass,
    /// Use the paper-scale platform sizes (≈30-node small, ≈65-node big)
    /// instead of the reduced sizes. Affordable since the heuristics moved
    /// to the masked formulations (`pm_core::masked`): pass `--paper-scale`
    /// to the `fig11` binary; CI runs `--paper-scale --smoke`.
    pub paper_scale: bool,
    /// Number of random platforms per point (the paper uses 10).
    pub platforms: usize,
    /// Target densities to sweep (fraction of LAN nodes that are targets).
    pub densities: Vec<f64>,
    /// Base random seed.
    pub seed: u64,
    /// The heuristics / reference curves to run.
    pub kinds: Vec<HeuristicKind>,
    /// Realize every heuristic's winning solution as a weighted tree set,
    /// color it into a periodic schedule and verify it in the simulator
    /// (`fig11 --realize`): fills the per-point realization aggregates.
    pub realize: bool,
}

impl SweepConfig {
    /// A quick configuration suitable for CI and for the default
    /// `cargo run -p pm-bench --bin fig11` invocation.
    pub fn quick(class: PlatformClass) -> Self {
        SweepConfig {
            class,
            paper_scale: false,
            platforms: 2,
            densities: vec![0.25, 0.5, 0.75, 1.0],
            seed: 42,
            kinds: HeuristicKind::ALL.to_vec(),
            realize: false,
        }
    }
}

/// Per-kind realization aggregates of one sweep point (collected under
/// `fig11 --realize`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PointRealization {
    /// Instances whose solution was realized (≤ the point's instances).
    pub realized: usize,
    /// Mean simulated throughput of the realized schedules.
    pub mean_simulated_throughput: f64,
    /// Mean `|simulated_period − lp_period| / lp_period`.
    pub mean_realization_gap: f64,
    /// Largest realization gap over the realized instances.
    pub max_realization_gap: f64,
    /// Total one-port violations the simulator detected (0 for valid
    /// schedules).
    pub one_port_violations: u64,
}

/// Aggregated measurements for one `(density)` point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Target density of the point.
    pub density: f64,
    /// Mean period per heuristic kind (same order as the config's `kinds`),
    /// averaged over the platforms where the heuristic produced a finite
    /// period.
    pub mean_period: Vec<(HeuristicKind, f64)>,
    /// Per-kind realization aggregates, same order as `mean_period`; empty
    /// unless the sweep ran with [`SweepConfig::realize`].
    pub realization: Vec<(HeuristicKind, PointRealization)>,
    /// Number of instances aggregated.
    pub instances: usize,
}

impl SweepPoint {
    /// Mean period of a heuristic kind at this point.
    pub fn period(&self, kind: HeuristicKind) -> Option<f64> {
        self.mean_period
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, p)| p)
    }

    /// Realization aggregates of a heuristic kind at this point (only when
    /// the sweep realized solutions).
    pub fn realization(&self, kind: HeuristicKind) -> Option<PointRealization> {
        self.realization
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, r)| r)
    }

    /// Ratio of the mean period of `kind` to the mean period of `reference`
    /// (the quantity plotted in Figure 11).
    pub fn ratio(&self, kind: HeuristicKind, reference: HeuristicKind) -> Option<f64> {
        match (self.period(kind), self.period(reference)) {
            (Some(p), Some(r)) if r > 0.0 => Some(p / r),
            _ => None,
        }
    }
}

/// The result of a full sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// The configuration that produced the result.
    pub config: SweepConfig,
    /// One aggregated point per density.
    pub points: Vec<SweepPoint>,
}

/// Generates the per-platform topologies of a sweep. They are generated up
/// front so that every density sees the same set of platforms (as in the
/// paper: 10 platforms per class, reused for every target density).
fn generate_topologies(config: &SweepConfig) -> Vec<GeneratedTopology> {
    (0..config.platforms)
        .map(|i| {
            let mut generator = if config.paper_scale {
                TiersLikeGenerator::paper_scale(config.class, config.seed + i as u64)
            } else {
                TiersLikeGenerator::reduced_scale(config.class, config.seed + i as u64)
            };
            generator.generate()
        })
        .collect()
}

/// The deterministic instance seed of work item `(density index, platform
/// index)` under a sweep base seed.
fn instance_seed(base: u64, di: usize, pi: usize) -> u64 {
    base ^ (di as u64).wrapping_mul(0x9e37_79b9) ^ ((pi as u64) << 32)
}

/// Runs one work item: sample the instance and collect every heuristic on
/// a session solving under `ctx`.
fn collect_report(
    topology: &GeneratedTopology,
    config: &SweepConfig,
    ctx: &SolveContext,
    di: usize,
    pi: usize,
) -> Option<MulticastReport> {
    let density = config.densities[di];
    let mut rng = StdRng::seed_from_u64(instance_seed(config.seed, di, pi));
    let instance = topology.sample_instance(density, &mut rng);
    let mut session = Session::new(instance).with_context(ctx.clone());
    MulticastReport::collect_from_session(
        &mut session,
        &config.kinds,
        CollectOptions {
            realize: config.realize,
        },
    )
    .ok()
}

/// Aggregates the per-item reports of one sweep into per-density points.
fn aggregate(config: &SweepConfig, reports: &[(usize, Option<MulticastReport>)]) -> SweepResult {
    let mut points = Vec::with_capacity(config.densities.len());
    for (di, &density) in config.densities.iter().enumerate() {
        let at_point: Vec<&MulticastReport> = reports
            .iter()
            .filter_map(|(d, r)| if *d == di { r.as_ref() } else { None })
            .collect();
        let mut mean_period = Vec::with_capacity(config.kinds.len());
        let mut realization = Vec::new();
        for &kind in &config.kinds {
            let values: Vec<f64> = at_point
                .iter()
                .filter_map(|r| r.period(kind))
                .filter(|p| p.is_finite())
                .collect();
            let mean = if values.is_empty() {
                f64::INFINITY
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            mean_period.push((kind, mean));
            if config.realize {
                let realized: Vec<_> = at_point
                    .iter()
                    .filter_map(|r| r.realization_for(kind))
                    .collect();
                let n = realized.len();
                let agg = if n == 0 {
                    PointRealization {
                        realized: 0,
                        mean_simulated_throughput: f64::INFINITY,
                        mean_realization_gap: f64::INFINITY,
                        max_realization_gap: f64::INFINITY,
                        one_port_violations: 0,
                    }
                } else {
                    PointRealization {
                        realized: n,
                        mean_simulated_throughput: realized
                            .iter()
                            .map(|r| r.simulated_throughput)
                            .sum::<f64>()
                            / n as f64,
                        mean_realization_gap: realized
                            .iter()
                            .map(|r| r.realization_gap)
                            .sum::<f64>()
                            / n as f64,
                        max_realization_gap: realized
                            .iter()
                            .map(|r| r.realization_gap)
                            .fold(0.0, f64::max),
                        one_port_violations: realized.iter().map(|r| r.one_port_violations).sum(),
                    }
                };
                realization.push((kind, agg));
            }
        }
        points.push(SweepPoint {
            density,
            mean_period,
            realization,
            instances: at_point.len(),
        });
    }
    SweepResult {
        config: config.clone(),
        points,
    }
}

/// Batch-level realization accounting of one heuristic kind (stderr summary
/// and the JSON meta block of `fig11 --realize`).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct KindRealizationAgg {
    /// Instances whose solution was realized and simulated.
    pub realized: u64,
    /// Instances that produced a finite period but could not be realized.
    pub failed: u64,
    /// Total one-port violations across the realized schedules.
    pub one_port_violations: u64,
    /// Largest realization gap seen.
    pub max_gap: f64,
    /// Sum of realization gaps (mean = `sum_gap / realized`).
    pub sum_gap: f64,
}

impl KindRealizationAgg {
    /// Accumulates another aggregate.
    pub fn add(&mut self, other: KindRealizationAgg) {
        self.realized += other.realized;
        self.failed += other.failed;
        self.one_port_violations += other.one_port_violations;
        self.max_gap = self.max_gap.max(other.max_gap);
        self.sum_gap += other.sum_gap;
    }

    /// Mean realization gap over the realized instances.
    pub fn mean_gap(&self) -> f64 {
        if self.realized > 0 {
            self.sum_gap / self.realized as f64
        } else {
            0.0
        }
    }
}

/// Per-work-item measurements folded into [`BatchMeta`].
#[derive(Debug, Clone, Default)]
struct ItemStats {
    solve_us: u128,
    lp_solves: u64,
    warm_hits: u64,
    warm_misses: u64,
    /// Per-heuristic accounting, in [`HeuristicKind::ALL`] order (absent
    /// kinds omitted).
    per_kind: Vec<(HeuristicKind, KindLpStats)>,
    /// Per-heuristic realization accounting (empty without `--realize`).
    per_kind_realization: Vec<(HeuristicKind, KindRealizationAgg)>,
}

/// Accumulates `stats` into the `kind` entry of a per-heuristic aggregate
/// list (appending the kind on first sight) — the one merge rule shared by
/// the item-level and batch-level aggregations.
fn merge_kind(
    into: &mut Vec<(HeuristicKind, KindLpStats)>,
    kind: HeuristicKind,
    stats: KindLpStats,
) {
    match into.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, agg)) => agg.add(stats),
        None => into.push((kind, stats)),
    }
}

impl ItemStats {
    fn add_kind(&mut self, kind: HeuristicKind, stats: KindLpStats) {
        self.lp_solves += stats.lp_solves;
        self.warm_hits += stats.warm_hits;
        self.warm_misses += stats.warm_misses;
        merge_kind(&mut self.per_kind, kind, stats);
    }

    fn add_kind_realization(&mut self, kind: HeuristicKind, agg: KindRealizationAgg) {
        match self
            .per_kind_realization
            .iter_mut()
            .find(|(k, _)| *k == kind)
        {
            Some((_, existing)) => existing.add(agg),
            None => self.per_kind_realization.push((kind, agg)),
        }
    }
}

/// Runs the density grid of one platform sequentially (see the module
/// docs) and returns the per-density reports plus the item's LP
/// statistics.
///
/// The totals are the per-heuristic sums reported by the collected
/// [`MulticastReport`]s, which take them from each session operation's
/// accounting — every counter is deterministic for a given configuration.
fn collect_platform_reports(
    topology: &GeneratedTopology,
    config: &SweepConfig,
    ctx: &SolveContext,
    pi: usize,
    progress_label: Option<&str>,
) -> (Vec<(usize, Option<MulticastReport>)>, ItemStats) {
    let start = Instant::now();
    let reports: Vec<(usize, Option<MulticastReport>)> = (0..config.densities.len())
        .map(|di| {
            let density_start = Instant::now();
            let report = collect_report(topology, config, ctx, di, pi);
            if let Some(label) = progress_label {
                eprintln!(
                    "fig11: {label} density {}/{} ({}) done in {:.1}s",
                    di + 1,
                    config.densities.len(),
                    config.densities[di],
                    density_start.elapsed().as_secs_f64(),
                );
            }
            (di, report)
        })
        .collect();
    let mut stats = ItemStats {
        solve_us: start.elapsed().as_micros(),
        ..ItemStats::default()
    };
    for (_, report) in reports.iter() {
        if let Some(report) = report {
            for &(kind, kind_stats) in &report.lp_stats {
                stats.add_kind(kind, kind_stats);
            }
            for &(kind, real) in &report.realizations {
                let agg = match real {
                    Some(r) => KindRealizationAgg {
                        realized: 1,
                        failed: 0,
                        one_port_violations: r.one_port_violations,
                        max_gap: r.realization_gap,
                        sum_gap: r.realization_gap,
                    },
                    // A finite period that did not realize is a failure; an
                    // infinite one had nothing to realize.
                    None => KindRealizationAgg {
                        failed: report.period(kind).is_some_and(f64::is_finite) as u64,
                        ..KindRealizationAgg::default()
                    },
                };
                stats.add_kind_realization(kind, agg);
            }
        }
    }
    (reports, stats)
}

/// Runs the sweep, distributing the per-platform density grids over the
/// rayon pool.
pub fn run_sweep(config: &SweepConfig, ctx: &SolveContext) -> SweepResult {
    let topologies = generate_topologies(config);

    let per_platform: Vec<Vec<(usize, Option<MulticastReport>)>> = (0..topologies.len())
        .into_par_iter()
        .map(|pi| collect_platform_reports(&topologies[pi], config, ctx, pi, None).0)
        .collect();
    let reports: Vec<(usize, Option<MulticastReport>)> =
        per_platform.into_iter().flatten().collect();

    aggregate(config, &reports)
}

/// Configuration of the full Figure 11 batch: platform classes crossed with
/// a seed grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Platform classes to sweep (Figure 11 uses both).
    pub classes: Vec<PlatformClass>,
    /// Base seeds; each `(class, seed)` pair is one full sweep, so the seed
    /// grid controls how many independent platform draws enter the batch.
    pub seeds: Vec<u64>,
    /// Paper-scale platform sizes (see [`SweepConfig::paper_scale`]).
    pub paper_scale: bool,
    /// Random platforms per sweep.
    pub platforms: usize,
    /// Target densities.
    pub densities: Vec<f64>,
    /// Heuristics / reference curves to run.
    pub kinds: Vec<HeuristicKind>,
    /// Override of `kinds` for [`PlatformClass::Big`] sweeps. The iterated
    /// LP heuristics (Reduced Broadcast, Augmented Multicast, Augmented
    /// Sources) solve dozens of broadcast LPs per instance — seconds per
    /// big-class instance on the masked formulations (minutes before them)
    /// — so the default batch still restricts big platforms to the cheap
    /// curves; `None` applies `kinds` everywhere (`fig11 --full`).
    pub kinds_big: Option<Vec<HeuristicKind>>,
    /// Realize and simulator-verify every heuristic solution
    /// (`fig11 --realize`, see [`SweepConfig::realize`]).
    pub realize: bool,
    /// Print per-work-item progress to stderr as items finish (paper-scale
    /// `--full` sweeps run for a long time and should not go silent).
    /// Progress goes to stderr only, so the JSON/CSV artifacts stay
    /// byte-identical.
    pub progress: bool,
}

/// The cheap curves: references + the combinatorial MCPH heuristic (no
/// iterated LP solves).
pub const BASIC_KINDS: [HeuristicKind; 4] = [
    HeuristicKind::Scatter,
    HeuristicKind::LowerBound,
    HeuristicKind::Broadcast,
    HeuristicKind::Mcph,
];

impl BatchConfig {
    /// The default `fig11` binary configuration: both classes, a two-seed
    /// grid, quick sizes. Small platforms run the full Figure 11 comparison
    /// (lower bound vs. Reduced Broadcast / Augmented Multicast / Augmented
    /// Sources / MCPH); big platforms run the cheap curves (see
    /// [`BatchConfig::kinds_big`]).
    pub fn quick() -> Self {
        BatchConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42, 43],
            paper_scale: false,
            platforms: 2,
            densities: vec![0.25, 0.5, 0.75, 1.0],
            kinds: HeuristicKind::ALL.to_vec(),
            kinds_big: Some(BASIC_KINDS.to_vec()),
            realize: false,
            progress: false,
        }
    }

    /// A minimal batch for the CI bench-smoke job: one tiny sweep per class
    /// restricted to the cheap reference curves + MCPH.
    pub fn ci_smoke() -> Self {
        BatchConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![42],
            paper_scale: false,
            platforms: 1,
            densities: vec![0.5],
            kinds: vec![
                HeuristicKind::Scatter,
                HeuristicKind::LowerBound,
                HeuristicKind::Mcph,
            ],
            kinds_big: None,
            realize: false,
            progress: false,
        }
    }

    /// The curves run on a given platform class.
    pub fn kinds_for(&self, class: PlatformClass) -> Vec<HeuristicKind> {
        match (class, &self.kinds_big) {
            (PlatformClass::Big, Some(kinds)) => kinds.clone(),
            _ => self.kinds.clone(),
        }
    }

    /// The [`SweepConfig`] of one `(class, seed)` cell of the batch.
    pub fn sweep_config(&self, class: PlatformClass, seed: u64) -> SweepConfig {
        SweepConfig {
            class,
            paper_scale: self.paper_scale,
            platforms: self.platforms,
            densities: self.densities.clone(),
            seed,
            kinds: self.kinds_for(class),
            realize: self.realize,
        }
    }
}

/// Aggregate LP accounting of one [`run_batch`] call, emitted into the
/// JSON `meta` block (schema `pm-bench/fig11-sweep/v2`).
///
/// The counters (`lp_solves`, `warm_hits`, `warm_misses`) are deterministic
/// for a given configuration; `solve_ms` is a wall-clock measurement and
/// varies from run to run, which is why CI filters it before byte-comparing
/// artifacts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BatchMeta {
    /// Total wall-clock milliseconds spent inside the work items — the
    /// LP-dominated end-to-end cost of the sweep, including the (small)
    /// non-LP share: instance sampling and the combinatorial heuristics.
    /// Summed over items, so it exceeds the elapsed time on multi-core
    /// runs.
    pub solve_ms: u64,
    /// Linear programs solved across the batch (any engine: dense solves
    /// count as cold).
    pub lp_solves: u64,
    /// Solves warm-started from a previous basis (masked-template hints
    /// and session-cache hits alike; phase 1 skipped, or replaced by a few
    /// dual-pass pivots).
    pub warm_hits: u64,
    /// Solves that started cold.
    pub warm_misses: u64,
    /// Per-heuristic accounting, in [`HeuristicKind::ALL`] order (kinds
    /// that never ran are omitted).
    pub per_kind: Vec<(HeuristicKind, KindLpStats)>,
    /// Per-heuristic realization accounting, in [`HeuristicKind::ALL`]
    /// order; empty unless the batch ran with [`BatchConfig::realize`].
    pub realization: Vec<(HeuristicKind, KindRealizationAgg)>,
}

impl BatchMeta {
    fn fold(&mut self, item: &ItemStats) {
        self.solve_ms += (item.solve_us / 1000) as u64;
        self.lp_solves += item.lp_solves;
        self.warm_hits += item.warm_hits;
        self.warm_misses += item.warm_misses;
        for &(kind, stats) in &item.per_kind {
            merge_kind(&mut self.per_kind, kind, stats);
        }
        for &(kind, agg) in &item.per_kind_realization {
            match self.realization.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, existing)) => existing.add(agg),
                None => self.realization.push((kind, agg)),
            }
        }
    }

    /// Sorts the per-kind aggregates into [`HeuristicKind::ALL`] order so
    /// emission order never depends on item completion order.
    fn normalize(&mut self) {
        let all_order = |kind: HeuristicKind| {
            HeuristicKind::ALL
                .iter()
                .position(|&k| k == kind)
                .unwrap_or(usize::MAX)
        };
        self.per_kind.sort_by_key(|&(kind, _)| all_order(kind));
        self.realization.sort_by_key(|&(kind, _)| all_order(kind));
    }
}

/// The result of a [`run_batch`] call: one [`SweepResult`] per
/// `(class, seed)` pair, in configuration order, plus the LP accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchResult {
    /// One sweep per `(class, seed)`, classes outermost.
    pub sweeps: Vec<SweepResult>,
    /// Aggregate LP statistics of the run.
    pub meta: BatchMeta,
}

/// Runs the full batch with every `(class, seed, platform)` work item
/// flattened into a single rayon pool; each item sweeps its density grid
/// sequentially under a warm-start cache (see the module docs).
///
/// Flattening matters: a nested "parallel over sweeps, serial within" split
/// would leave cores idle at the tail of each sweep, while the flat pool
/// keeps the expensive LP-based heuristics busy until the very last item.
pub fn run_batch(config: &BatchConfig, ctx: &SolveContext) -> BatchResult {
    run_batch_streamed(config, &[], ctx)
}

/// [`run_batch`] with streaming per-item sinks: as each work item finishes,
/// its per-`(instance, kind)` rows are rendered and handed to every sink
/// ([`crate::emit::ItemSink`]), which flushes them to disk in item order —
/// paper-scale `--realize --full` sweeps keep their full per-instance
/// detail on disk instead of in memory, and the streamed files stay
/// byte-identical across runs and thread counts.
pub fn run_batch_streamed(
    config: &BatchConfig,
    sinks: &[&crate::emit::ItemSink],
    ctx: &SolveContext,
) -> BatchResult {
    // One SweepConfig + topology set per (class, seed) cell.
    let cells: Vec<(SweepConfig, Vec<GeneratedTopology>)> = config
        .classes
        .iter()
        .flat_map(|&class| config.seeds.iter().map(move |&seed| (class, seed)))
        .map(|(class, seed)| {
            let sweep_config = config.sweep_config(class, seed);
            let topologies = generate_topologies(&sweep_config);
            (sweep_config, topologies)
        })
        .collect();

    // Flattened work items: (item index, cell, platform).
    let mut work: Vec<(usize, usize, usize)> = Vec::new();
    for (ci, (_, topologies)) in cells.iter().enumerate() {
        for pi in 0..topologies.len() {
            work.push((work.len(), ci, pi));
        }
    }

    let total_items = work.len();
    let done = AtomicUsize::new(0);
    type ItemReports = Vec<(usize, Option<MulticastReport>)>;
    let items: Vec<(usize, ItemReports, ItemStats)> = work
        .into_par_iter()
        .map(|(item, ci, pi)| {
            let (sweep_config, topologies) = &cells[ci];
            let label = config.progress.then(|| {
                format!(
                    "class={:?} seed={} platform={pi}",
                    sweep_config.class, sweep_config.seed
                )
            });
            let (reports, stats) =
                collect_platform_reports(&topologies[pi], sweep_config, ctx, pi, label.as_deref());
            for sink in sinks {
                let mut chunk = String::new();
                crate::emit::item_rows(sink.format(), sweep_config, pi, &reports, &mut chunk);
                sink.submit(item, chunk)
                    .unwrap_or_else(|e| panic!("writing streamed item rows: {e}"));
            }
            if config.progress {
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!(
                    "fig11: [{finished}/{total_items}] class={:?} seed={} platform={pi} \
                     ({} densities, {} LP solves, {} warm hits, {:.1}s)",
                    sweep_config.class,
                    sweep_config.seed,
                    sweep_config.densities.len(),
                    stats.lp_solves,
                    stats.warm_hits,
                    stats.solve_us as f64 / 1e6,
                );
            }
            (ci, reports, stats)
        })
        .collect();

    let mut meta = BatchMeta::default();
    for (_, _, stats) in &items {
        meta.fold(stats);
    }
    meta.normalize();

    let sweeps = cells
        .iter()
        .enumerate()
        .map(|(ci, (sweep_config, _))| {
            let cell_reports: Vec<(usize, Option<MulticastReport>)> = items
                .iter()
                .filter(|(c, _, _)| *c == ci)
                .flat_map(|(_, reports, _)| reports.iter().cloned())
                .collect();
            aggregate(sweep_config, &cell_reports)
        })
        .collect();

    BatchResult { sweeps, meta }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_ordered_curves() {
        let config = SweepConfig {
            class: PlatformClass::Small,
            paper_scale: false,
            platforms: 1,
            densities: vec![0.5],
            seed: 7,
            kinds: vec![
                HeuristicKind::Scatter,
                HeuristicKind::LowerBound,
                HeuristicKind::Mcph,
            ],
            realize: false,
        };
        let result = run_sweep(&config, &SolveContext::default());
        assert_eq!(result.points.len(), 1);
        let point = &result.points[0];
        assert_eq!(point.instances, 1);
        let scatter = point.period(HeuristicKind::Scatter).unwrap();
        let lb = point.period(HeuristicKind::LowerBound).unwrap();
        let mcph = point.period(HeuristicKind::Mcph).unwrap();
        assert!(lb <= scatter + 1e-6);
        assert!(mcph >= lb - 1e-6);
        // Ratios normalise as in Figure 11.
        assert!(
            point
                .ratio(HeuristicKind::LowerBound, HeuristicKind::Scatter)
                .unwrap()
                <= 1.0 + 1e-9
        );
        assert!(
            point
                .ratio(HeuristicKind::Mcph, HeuristicKind::LowerBound)
                .unwrap()
                >= 1.0 - 1e-9
        );
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let config = SweepConfig {
            class: PlatformClass::Small,
            paper_scale: false,
            platforms: 2,
            densities: vec![0.25, 0.75],
            seed: 11,
            kinds: vec![HeuristicKind::Scatter, HeuristicKind::Mcph],
            realize: false,
        };
        let a = run_sweep(&config, &SolveContext::default());
        let b = run_sweep(&config, &SolveContext::default());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.instances, pb.instances);
            for ((ka, va), (kb, vb)) in pa.mean_period.iter().zip(&pb.mean_period) {
                assert_eq!(ka, kb);
                // Bitwise equality: same work items, same order, same FP ops.
                assert_eq!(va.to_bits(), vb.to_bits(), "{ka:?}");
            }
        }
    }

    #[test]
    fn realized_sweep_aggregates_simulated_throughput() {
        let config = SweepConfig {
            class: PlatformClass::Small,
            paper_scale: false,
            platforms: 1,
            densities: vec![0.5],
            seed: 7,
            kinds: vec![
                HeuristicKind::Scatter,
                HeuristicKind::Mcph,
                HeuristicKind::ReducedBroadcast,
            ],
            realize: true,
        };
        let result = run_sweep(&config, &SolveContext::default());
        let point = &result.points[0];
        assert_eq!(point.realization.len(), 3);
        for &kind in &config.kinds {
            let real = point.realization(kind).unwrap();
            assert_eq!(real.realized, 1, "{kind:?}");
            assert_eq!(real.one_port_violations, 0, "{kind:?}");
            // The certified schedule never overshoots the claimed period and
            // the gap is what separates it from the claim.
            let period = point.period(kind).unwrap();
            assert!(
                real.mean_simulated_throughput <= 1.0 / period + 1e-6,
                "{kind:?}"
            );
            assert!(real.max_realization_gap >= -1e-12, "{kind:?}");
        }
        // Determinism, bit for bit.
        let again = run_sweep(&config, &SolveContext::default());
        for (a, b) in result.points.iter().zip(&again.points) {
            for ((ka, ra), (kb, rb)) in a.realization.iter().zip(&b.realization) {
                assert_eq!(ka, kb);
                assert_eq!(
                    ra.mean_simulated_throughput.to_bits(),
                    rb.mean_simulated_throughput.to_bits()
                );
                assert_eq!(
                    ra.mean_realization_gap.to_bits(),
                    rb.mean_realization_gap.to_bits()
                );
            }
        }
    }

    #[test]
    fn batch_covers_every_class_seed_cell() {
        let config = BatchConfig {
            classes: vec![PlatformClass::Small, PlatformClass::Big],
            seeds: vec![3, 5],
            paper_scale: false,
            platforms: 1,
            densities: vec![0.5],
            kinds: vec![HeuristicKind::Scatter, HeuristicKind::Mcph],
            kinds_big: None,
            realize: false,
            progress: false,
        };
        let result = run_batch(&config, &SolveContext::default());
        assert_eq!(result.sweeps.len(), 4);
        assert_eq!(result.sweeps[0].config.class, PlatformClass::Small);
        assert_eq!(result.sweeps[0].config.seed, 3);
        assert_eq!(result.sweeps[3].config.class, PlatformClass::Big);
        assert_eq!(result.sweeps[3].config.seed, 5);
        for sweep in &result.sweeps {
            assert_eq!(sweep.points.len(), 1);
            assert_eq!(sweep.points[0].instances, 1);
        }
    }

    #[test]
    fn batch_cell_matches_standalone_sweep() {
        let batch_config = BatchConfig {
            classes: vec![PlatformClass::Small],
            seeds: vec![9],
            paper_scale: false,
            platforms: 2,
            densities: vec![0.5, 1.0],
            kinds: vec![HeuristicKind::Scatter, HeuristicKind::Mcph],
            kinds_big: None,
            realize: false,
            progress: false,
        };
        let batch = run_batch(&batch_config, &SolveContext::default());
        let standalone = run_sweep(
            &batch_config.sweep_config(PlatformClass::Small, 9),
            &SolveContext::default(),
        );
        assert_eq!(batch.sweeps.len(), 1);
        for (pb, ps) in batch.sweeps[0].points.iter().zip(&standalone.points) {
            assert_eq!(pb.instances, ps.instances);
            for ((kb, vb), (ks, vs)) in pb.mean_period.iter().zip(&ps.mean_period) {
                assert_eq!(kb, ks);
                assert_eq!(vb.to_bits(), vs.to_bits());
            }
        }
    }
}
