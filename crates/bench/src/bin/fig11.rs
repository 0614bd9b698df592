//! Regenerates Figure 11 of the paper: heuristic period ratios against the
//! `scatter` upper bound and against the theoretical lower bound, over
//! increasing target densities — for every platform class and a seed grid,
//! evaluated on a single flattened rayon pool.
//!
//! Usage:
//!   fig11 [small|big] [scatter|lower|all] [--paper-scale] [--platforms N]
//!         [--densities a,b,c] [--seeds a,b,c] [--kinds k1,k2,...] [--basic]
//!         [--full] [--smoke] [--realize] [--solver dense|revised]
//!         [--json PATH] [--csv PATH] [--items-csv PATH] [--items-jsonl PATH]
//!         [--drift] [--steps N] [--faults] [--chaos] [--chaos-seed N]
//!         [--multi]
//!
//! With no class argument both classes are swept (the full Figure 11).
//! `--smoke` selects the tiny CI configuration (one platform, density 0.5,
//! seed 42, scatter / lower bound / MCPH) for each of the platforms,
//! densities, seeds and kinds that no explicit flag chose, in any flag
//! order: `--smoke --full` and `--full --smoke` both run all seven kinds.
//! Machine-readable results are always written — to `fig11_sweep.json` /
//! `fig11_sweep.csv` by default, or wherever `--json` / `--csv` point: two
//! runs with the same configuration produce byte-identical files, which is
//! how CI detects throughput-trajectory drift against the committed
//! `BENCH_fig11_baseline.json`.
//!
//! `--items-csv` / `--items-jsonl` additionally *stream* one row per
//! `(instance, kind)` to disk as work items complete (ordered, so the files
//! are byte-identical across runs and thread counts) — paper-scale
//! `--realize --full` sweeps keep their per-instance detail without holding
//! every report in memory.
//!
//! `--drift` switches to the dynamic-platform scenario sweep: one long-lived
//! `pm_core::Session` per `(class, seed, platform)` instance is driven
//! through a seeded trace of edge-cost walks and node churn (`--steps`
//! events), re-solving and re-realizing after every event; the schema-v5
//! JSON artifact records per-step re-solve wall time, warm-hit rates,
//! throughput deltas and simulator-measured transition costs, and is
//! byte-compared against `BENCH_fig11_drift_baseline.json` in CI.
//!
//! `--faults` switches to the fault-injection frontier sweep: every
//! scenario's steady state is realized robustly at each disjointness level
//! `f` and replayed under a grid of i.i.d. loss rates; the schema-v6 JSON
//! artifact records the throughput-vs-redundancy/delivery frontier plus
//! one crash/recovery round of transition costs, and is byte-compared
//! against `BENCH_fig11_faults_baseline.json` in CI.
//!
//! `--chaos` switches to the solver-chaos sweep: seeded faults are
//! injected into the LP engine itself (plus one injected session panic
//! per scenario, healed from the write-ahead journal) and every heuristic
//! kind gets a budget-capped re-solve; the schema-v7 JSON artifact records
//! the recovery-rung counters and degraded-solve rates, is byte-compared
//! against `BENCH_fig11_chaos_baseline.json` in CI, and the run exits
//! nonzero if any solve exhausts the whole recovery ladder.
//!
//! `--multi` switches to the multi-commodity super-period sweep: each cell
//! of the commodity-count × rate-skew grid solves `k` concurrent demands
//! jointly and realizes them as one shared super-period schedule, then
//! applies one drift event and re-solves warm; the schema-v8 JSON artifact
//! records per-commodity rate certificates, is byte-compared against
//! `BENCH_fig11_multi_baseline.json` in CI, and the run exits nonzero if
//! any commodity misses its LP rate or any one-port violation occurs.

use pm_bench::{
    batch_to_csv, batch_to_json, chaos_to_json, drift_to_json, faults_to_json, format_period_table,
    format_ratio_table, multi_to_json, run_batch_streamed, run_chaos, run_drift, run_faults,
    run_multi, BatchConfig, ChaosBenchConfig, DriftConfig, FaultsConfig, ItemRowFormat, ItemSink,
    MultiBenchConfig,
};
use pm_core::report::HeuristicKind;
use pm_lp::{SolveContext, SolverKind};
use pm_platform::topology::PlatformClass;
use pm_serve::protocol::{kind_from_key, kind_key};

/// The value following a flag, or a named usage error (instead of an
/// index-out-of-bounds panic) when the command line ends at the flag.
fn flag_value<'a>(args: &'a [String], i: usize, flag: &str) -> &'a str {
    args.get(i).map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

/// A seed given to `flag`: an integer from 0 to 2^53, the largest the
/// artifacts' numbers (`f64`) write exactly; anything else is a usage
/// error.
fn seed_value(text: &str, flag: &str) -> u64 {
    match text.parse::<u64>() {
        Ok(seed) if seed <= 1 << 53 => seed,
        _ => {
            eprintln!("{flag} takes integers from 0 to 2^53, got {text:?}");
            std::process::exit(2);
        }
    }
}

/// The value of environment variable `name` among `choices`; an unknown
/// value is reported and ignored.
fn env_choice<T: Copy>(name: &str, choices: &[(&str, T)]) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let found = choices.iter().find(|(key, _)| *key == raw).map(|&(_, v)| v);
    if found.is_none() {
        let keys: Vec<&str> = choices.iter().map(|&(key, _)| key).collect();
        eprintln!(
            "fig11: ignoring unknown {name} value {raw:?} ({})",
            keys.join("|")
        );
    }
    found
}

/// The context every LP of the run is solved under, read once: `--solver`
/// wins over `PM_LP_SOLVER=dense|revised`, and `PM_LP_STATS=1` prints one
/// line per solve. Everything left unset keeps [`SolveContext::default`].
fn solve_context(solver_flag: Option<SolverKind>) -> SolveContext {
    let engines = [
        ("dense", SolverKind::Dense),
        ("revised", SolverKind::Revised),
    ];
    SolveContext {
        engine: solver_flag
            .or_else(|| env_choice("PM_LP_SOLVER", &engines))
            .unwrap_or_default(),
        stats: std::env::var_os("PM_LP_STATS").is_some_and(|v| v == "1"),
        ..SolveContext::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut solver: Option<SolverKind> = None;
    let mut classes: Option<Vec<PlatformClass>> = None;
    let mut reference = "all".to_string();
    let mut config = BatchConfig::quick();
    let mut json_path: Option<String> = None;
    let mut csv_path: Option<String> = Some("fig11_sweep.csv".to_string());
    let mut items_csv_path: Option<String> = None;
    let mut items_jsonl_path: Option<String> = None;
    let mut drift = false;
    let mut faults = false;
    let mut chaos = false;
    let mut multi = false;
    let mut chaos_seed: Option<u64> = None;
    let mut smoke = false;
    let mut steps: Option<usize> = None;
    let mut kinds_explicit = false;
    let mut density_explicit = false;
    let mut platforms_explicit = false;
    let mut seeds_explicit = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "small" => classes = Some(vec![PlatformClass::Small]),
            "big" => classes = Some(vec![PlatformClass::Big]),
            "scatter" | "lower" | "all" => reference = args[i].clone(),
            "--paper-scale" => config.paper_scale = true,
            // Realization stage: decompose every winning solution into
            // weighted trees, color them into a periodic schedule and verify
            // it in the simulator (schema v4 realization columns).
            "--realize" => config.realize = true,
            // Restrict to the reference curves + MCPH (no iterated LP
            // heuristics): useful on large platforms or slow machines.
            "--basic" => {
                kinds_explicit = true;
                config.kinds = pm_bench::sweep::BASIC_KINDS.to_vec();
                config.kinds_big = None;
            }
            // Run the full heuristic set on every class, including the
            // iterated-LP heuristics on big platforms (takes minutes per
            // big instance — see BatchConfig::kinds_big).
            "--full" => {
                kinds_explicit = true;
                config.kinds = HeuristicKind::ALL.to_vec();
                config.kinds_big = None;
            }
            // LP engine selection (the revised simplex is the default; the
            // dense tableau remains as a fallback / differential oracle).
            "--solver" => {
                i += 1;
                match flag_value(&args, i, "--solver") {
                    "dense" => solver = Some(SolverKind::Dense),
                    "revised" => solver = Some(SolverKind::Revised),
                    other => {
                        eprintln!("--solver takes dense|revised, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            // The CI bench-smoke configuration: tiny and cheap. It fills
            // only the fields no explicit flag set (after the loop), so
            // the flag order does not matter.
            "--smoke" => smoke = true,
            // Dynamic-platform scenario sweep on long-lived sessions.
            "--drift" => drift = true,
            // Fault-injected robust-realization frontier sweep.
            "--faults" => faults = true,
            // Solver-chaos sweep: recovery ladder + degradable budgets.
            "--chaos" => chaos = true,
            // Multi-commodity super-period sweep (k × skew grid).
            "--multi" => multi = true,
            // Seed of the chaos injection plans (chaos mode only).
            "--chaos-seed" => {
                i += 1;
                let text = flag_value(&args, i, "--chaos-seed");
                chaos_seed = Some(seed_value(text, "--chaos-seed"));
            }
            // Drift events per scenario (drift mode only).
            "--steps" => {
                i += 1;
                steps = Some(
                    flag_value(&args, i, "--steps")
                        .parse()
                        .expect("--steps takes an integer"),
                );
            }
            // Streamed per-item rows (see the module docs).
            "--items-csv" => {
                i += 1;
                items_csv_path = Some(flag_value(&args, i, "--items-csv").to_string());
            }
            "--items-jsonl" => {
                i += 1;
                items_jsonl_path = Some(flag_value(&args, i, "--items-jsonl").to_string());
            }
            // Explicit curve selection by stable key (see `pm_serve::protocol`).
            "--kinds" => {
                i += 1;
                kinds_explicit = true;
                config.kinds = flag_value(&args, i, "--kinds")
                    .split(',')
                    .map(|k| {
                        kind_from_key(k).unwrap_or_else(|| {
                            eprintln!(
                                "unknown heuristic kind {k:?}; valid keys: {:?}",
                                HeuristicKind::ALL.map(kind_key)
                            );
                            std::process::exit(2);
                        })
                    })
                    .collect();
                config.kinds_big = None;
            }
            "--platforms" => {
                i += 1;
                platforms_explicit = true;
                config.platforms = flag_value(&args, i, "--platforms")
                    .parse()
                    .expect("--platforms takes an integer");
            }
            "--seeds" => {
                i += 1;
                seeds_explicit = true;
                config.seeds = flag_value(&args, i, "--seeds")
                    .split(',')
                    .map(|s| seed_value(s, "--seeds"))
                    .collect();
            }
            // Backwards-compatible alias: a single base seed.
            "--seed" => {
                i += 1;
                seeds_explicit = true;
                config.seeds = vec![seed_value(flag_value(&args, i, "--seed"), "--seed")];
            }
            "--densities" => {
                i += 1;
                density_explicit = true;
                config.densities = flag_value(&args, i, "--densities")
                    .split(',')
                    .map(|d| d.parse().expect("--densities takes comma-separated floats"))
                    .collect();
            }
            "--json" => {
                i += 1;
                json_path = Some(flag_value(&args, i, "--json").to_string());
            }
            "--csv" => {
                i += 1;
                csv_path = Some(flag_value(&args, i, "--csv").to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if smoke {
        let ci = BatchConfig::ci_smoke();
        if !platforms_explicit {
            config.platforms = ci.platforms;
        }
        if !density_explicit {
            config.densities = ci.densities;
        }
        if !seeds_explicit {
            config.seeds = ci.seeds;
        }
        if !kinds_explicit {
            config.kinds = ci.kinds;
            config.kinds_big = ci.kinds_big;
        }
    }
    if let Some(classes) = &classes {
        config.classes = classes.clone();
    }
    if [drift, faults, chaos, multi].iter().filter(|&&m| m).count() > 1 {
        eprintln!("--drift, --faults, --chaos and --multi are distinct modes; pick one");
        std::process::exit(2);
    }
    let ctx = solve_context(solver);

    if multi {
        let mut multi_config = if smoke {
            MultiBenchConfig::smoke()
        } else {
            MultiBenchConfig::quick()
        };
        if let Some(classes) = classes {
            multi_config.classes = classes;
        }
        multi_config.seeds = config.seeds.clone();
        multi_config.platforms = config.platforms;
        multi_config.paper_scale = config.paper_scale;
        if density_explicit {
            multi_config.density = config.densities[0];
            if config.densities.len() > 1 {
                eprintln!(
                    "fig11: note: --multi samples one target set per commodity; using density {} \
                     and ignoring the rest of the grid",
                    multi_config.density
                );
            }
        }
        // Sweep-only flags have no multi counterpart: refuse them loudly
        // instead of exiting "successfully" without the requested files.
        for (flag, given) in [
            ("--csv", csv_path != Some("fig11_sweep.csv".to_string())),
            ("--items-csv", items_csv_path.is_some()),
            ("--items-jsonl", items_jsonl_path.is_some()),
            ("--realize", config.realize),
            ("--steps", steps.is_some()),
            ("--kinds", kinds_explicit),
        ] {
            if given {
                eprintln!(
                    "{flag} applies to the Figure 11 sweep only; --multi writes a single JSON \
                     artifact (use --json)"
                );
                std::process::exit(2);
            }
        }
        multi_config.progress = true;
        eprintln!(
            "running multi-commodity batch: classes={:?}, seeds={:?}, platforms={}, ks={:?}, \
             skews={:?} ({} worker threads)",
            multi_config.classes,
            multi_config.seeds,
            multi_config.platforms,
            multi_config.ks,
            multi_config.skews,
            rayon::current_num_threads()
        );
        let result = run_multi(&multi_config, &ctx);
        eprintln!(
            "fig11: multi {} cells, {} LP solves ({} warm hits, {:.0}% warm), {} ms total",
            result.cells.len(),
            result.meta.lp_solves,
            result.meta.warm_hits,
            100.0 * result.meta.warm_hit_rate(),
            result.meta.solve_ms,
        );
        let mut rates_missed = 0usize;
        let mut violations = 0u64;
        for cell in &result.cells {
            rates_missed += cell.commodities.iter().filter(|c| !c.rate_met).count();
            if !cell.drift.all_rates_met {
                rates_missed += 1;
            }
            violations += cell.one_port_violations + cell.drift.one_port_violations;
            eprintln!(
                "fig11:   class={:?} seed={} platform={} k={} skew={:<11} T*={:.4} \
                 super-period {:.4}, {} trees, rates [{}]{}",
                cell.class,
                cell.seed,
                cell.platform,
                cell.k,
                pm_bench::multi::skew_key(cell.skew),
                cell.lp_period,
                cell.super_period,
                cell.trees,
                cell.commodities
                    .iter()
                    .map(|c| format!("{:.4}", c.simulated_rate))
                    .collect::<Vec<_>>()
                    .join(", "),
                match cell.matches_single {
                    Some(true) => ", k=1 ≡ single pipeline",
                    Some(false) => ", k=1 DIVERGED from single pipeline",
                    None => "",
                },
            );
        }
        let path = json_path.unwrap_or_else(|| "fig11_multi.json".to_string());
        std::fs::write(&path, multi_to_json(&result))
            .unwrap_or_else(|e| panic!("writing multi JSON to {path}: {e}"));
        eprintln!("wrote multi JSON results to {path}");
        let diverged = result.cells.iter().any(|c| c.matches_single == Some(false));
        if rates_missed > 0 || violations > 0 || diverged {
            eprintln!(
                "fig11: FAIL: {rates_missed} commodity rates missed, {violations} one-port \
                 violations, k=1 divergence: {diverged}"
            );
            std::process::exit(1);
        }
        return;
    }

    if chaos {
        let mut chaos_config = if smoke {
            ChaosBenchConfig::smoke()
        } else {
            ChaosBenchConfig::quick()
        };
        if let Some(classes) = classes {
            chaos_config.classes = classes;
        }
        chaos_config.seeds = config.seeds.clone();
        chaos_config.platforms = config.platforms;
        chaos_config.paper_scale = config.paper_scale;
        if let Some(seed) = chaos_seed {
            chaos_config.chaos_seed = seed;
        }
        if kinds_explicit {
            chaos_config.kinds = config.kinds.clone();
        }
        if density_explicit {
            chaos_config.density = config.densities[0];
            if config.densities.len() > 1 {
                eprintln!(
                    "fig11: note: --chaos samples one instance per scenario; using density {} \
                     and ignoring the rest of the grid",
                    chaos_config.density
                );
            }
        }
        // Sweep-only outputs have no chaos counterpart: refuse them loudly
        // instead of exiting "successfully" without the requested files.
        for (flag, given) in [
            ("--csv", csv_path != Some("fig11_sweep.csv".to_string())),
            ("--items-csv", items_csv_path.is_some()),
            ("--items-jsonl", items_jsonl_path.is_some()),
            ("--realize", config.realize),
            ("--steps", steps.is_some()),
        ] {
            if given {
                eprintln!(
                    "{flag} applies to the Figure 11 sweep only; --chaos writes a single JSON \
                     artifact (use --json)"
                );
                std::process::exit(2);
            }
        }
        chaos_config.progress = true;
        eprintln!(
            "running chaos batch: classes={:?}, seeds={:?}, platforms={}, kinds={:?}, \
             chaos_seed={} ({} worker threads)",
            chaos_config.classes,
            chaos_config.seeds,
            chaos_config.platforms,
            chaos_config.kinds,
            chaos_config.chaos_seed,
            rayon::current_num_threads()
        );
        let result = run_chaos(&chaos_config, &ctx);
        let rungs = result.meta.ladder.recovered_by_rung;
        eprintln!(
            "fig11: chaos {} scenarios, {} solves under injection ({} struck, {:.0}%), \
             rungs [first={} cold={} dense={}], {} unrecovered, {} panics healed",
            result.scenarios.len(),
            result.meta.ladder.solves,
            result.meta.ladder.injected,
            100.0 * result.meta.injected_rate(),
            rungs[0],
            rungs[1],
            rungs[2],
            result.meta.ladder.unrecovered,
            result.meta.panics_healed,
        );
        eprintln!(
            "fig11: chaos budget phase: {} solves, {} degraded ({:.0}%)",
            result.meta.budget.solves,
            result.meta.budget.degraded,
            100.0 * result.meta.degraded_rate(),
        );
        let path = json_path.unwrap_or_else(|| "fig11_chaos.json".to_string());
        std::fs::write(&path, chaos_to_json(&result))
            .unwrap_or_else(|e| panic!("writing chaos JSON to {path}: {e}"));
        eprintln!("wrote chaos JSON results to {path}");
        if result.meta.ladder.unrecovered > 0 {
            eprintln!(
                "fig11: FAIL: {} solves exhausted the whole recovery ladder",
                result.meta.ladder.unrecovered
            );
            std::process::exit(1);
        }
        return;
    }

    if faults {
        let mut faults_config = if smoke {
            FaultsConfig::smoke()
        } else {
            FaultsConfig::quick()
        };
        if let Some(classes) = classes {
            faults_config.classes = classes;
        }
        faults_config.seeds = config.seeds.clone();
        faults_config.platforms = config.platforms;
        faults_config.paper_scale = config.paper_scale;
        if kinds_explicit {
            // The faults sweep realizes a single kind robustly.
            faults_config.kind = config.kinds[0];
            if config.kinds.len() > 1 {
                eprintln!(
                    "fig11: note: --faults realizes one kind; using {} and ignoring the rest",
                    kind_key(faults_config.kind)
                );
            }
        }
        if density_explicit {
            faults_config.density = config.densities[0];
            if config.densities.len() > 1 {
                eprintln!(
                    "fig11: note: --faults samples one instance per scenario; using density {} \
                     and ignoring the rest of the grid",
                    faults_config.density
                );
            }
        }
        // Sweep-only outputs have no faults counterpart: refuse them loudly
        // instead of exiting "successfully" without the requested files.
        for (flag, given) in [
            ("--csv", csv_path != Some("fig11_sweep.csv".to_string())),
            ("--items-csv", items_csv_path.is_some()),
            ("--items-jsonl", items_jsonl_path.is_some()),
            ("--realize", config.realize),
            ("--steps", steps.is_some()),
        ] {
            if given {
                eprintln!(
                    "{flag} applies to the Figure 11 sweep only; --faults writes a single JSON \
                     artifact (use --json)"
                );
                std::process::exit(2);
            }
        }
        faults_config.progress = true;
        eprintln!(
            "running faults batch: classes={:?}, seeds={:?}, platforms={}, losses={:?}, f={:?}, \
             kind={} ({} worker threads)",
            faults_config.classes,
            faults_config.seeds,
            faults_config.platforms,
            faults_config.loss_rates,
            faults_config.redundancy,
            kind_key(faults_config.kind),
            rayon::current_num_threads()
        );
        let result = run_faults(&faults_config, &ctx);
        eprintln!(
            "fig11: faults {} scenarios, {} LP solves ({} warm hits, {:.0}% warm), {} ms total",
            result.scenarios.len(),
            result.meta.lp_solves,
            result.meta.warm_hits,
            100.0 * result.meta.warm_hit_rate(),
            result.meta.solve_ms,
        );
        let cell_line = |label: &str, cell: &pm_bench::faults::FrontierCell| {
            let worst = cell
                .losses
                .iter()
                .rev()
                .find(|p| p.loss > 0.0)
                .map(|p| format!("{:.3}@{}", p.delivery_ratio, p.loss))
                .unwrap_or_else(|| "-".to_string());
            eprintln!(
                "fig11:   {label} f={} trees={} throughput {:.4} (sacrifice {:.1}%), \
                 delivery {} survives_edge_loss={}",
                cell.f,
                cell.trees,
                cell.robust_throughput,
                100.0 * cell.throughput_sacrifice,
                worst,
                cell.survives_single_edge_loss,
            );
        };
        for cell in &result.worked_example.frontier {
            cell_line("worked-example", cell);
        }
        for scenario in &result.scenarios {
            for cell in &scenario.frontier {
                cell_line(
                    &format!(
                        "class={:?} seed={} platform={}",
                        scenario.class, scenario.seed, scenario.platform
                    ),
                    cell,
                );
            }
        }
        let path = json_path.unwrap_or_else(|| "fig11_faults.json".to_string());
        std::fs::write(&path, faults_to_json(&result))
            .unwrap_or_else(|e| panic!("writing faults JSON to {path}: {e}"));
        eprintln!("wrote faults JSON results to {path}");
        return;
    }

    if drift {
        let mut drift_config = if smoke {
            DriftConfig::smoke()
        } else {
            DriftConfig::quick()
        };
        if let Some(classes) = classes {
            drift_config.classes = classes;
        }
        drift_config.seeds = config.seeds.clone();
        drift_config.platforms = config.platforms;
        drift_config.paper_scale = config.paper_scale;
        if kinds_explicit {
            drift_config.kinds = config.kinds.clone();
        }
        if density_explicit {
            // One instance per scenario: the drift sweep has a single
            // density, not a grid.
            drift_config.density = config.densities[0];
            if config.densities.len() > 1 {
                eprintln!(
                    "fig11: note: --drift samples one instance per scenario; using density {} \
                     and ignoring the rest of the grid",
                    drift_config.density
                );
            }
        }
        if let Some(steps) = steps {
            drift_config.steps = steps;
        }
        // Sweep-only outputs have no drift counterpart: refuse them loudly
        // instead of exiting "successfully" without the requested files.
        for (flag, given) in [
            ("--csv", csv_path != Some("fig11_sweep.csv".to_string())),
            ("--items-csv", items_csv_path.is_some()),
            ("--items-jsonl", items_jsonl_path.is_some()),
            ("--realize", config.realize),
        ] {
            if given {
                eprintln!(
                    "{flag} applies to the Figure 11 sweep only; --drift writes a single JSON \
                     artifact (use --json)"
                );
                std::process::exit(2);
            }
        }
        drift_config.progress = true;
        eprintln!(
            "running drift batch: classes={:?}, seeds={:?}, platforms={}, steps={}, kinds={:?} \
             ({} worker threads)",
            drift_config.classes,
            drift_config.seeds,
            drift_config.platforms,
            drift_config.steps,
            drift_config.kinds,
            rayon::current_num_threads()
        );
        let result = run_drift(&drift_config, &ctx);
        eprintln!(
            "fig11: drift {} scenarios, {} LP solves ({} warm hits, {:.0}% warm), {} ms total",
            result.scenarios.len(),
            result.meta.lp_solves,
            result.meta.warm_hits,
            100.0 * result.meta.warm_hit_rate(),
            result.meta.solve_ms,
        );
        for scenario in &result.scenarios {
            let last = scenario.steps.last().expect("scenario has steps");
            for kind in &last.kinds {
                let transitions: usize = scenario
                    .steps
                    .iter()
                    .flat_map(|s| &s.kinds)
                    .filter(|k| k.kind == kind.kind && k.transition.is_some())
                    .count();
                eprintln!(
                    "fig11:   class={:?} seed={} platform={} {:<10} final period {:.4}, \
                     gap {:.2e}, {} transitions",
                    scenario.class,
                    scenario.seed,
                    scenario.platform,
                    kind_key(kind.kind),
                    kind.period,
                    kind.realization_gap,
                    transitions,
                );
            }
        }
        let path = json_path.unwrap_or_else(|| "fig11_drift.json".to_string());
        std::fs::write(&path, drift_to_json(&result))
            .unwrap_or_else(|e| panic!("writing drift JSON to {path}: {e}"));
        eprintln!("wrote drift JSON results to {path}");
        return;
    }
    let json_path = json_path.or_else(|| Some("fig11_sweep.json".to_string()));

    // Long sweeps (--full / --paper-scale) must not go silent; progress goes
    // to stderr only, so the JSON/CSV artifacts stay byte-comparable.
    config.progress = true;

    eprintln!(
        "running Figure 11 batch: classes={:?}, paper_scale={}, platforms={}, seeds={:?}, \
         densities={:?} ({} worker threads)",
        config.classes,
        config.paper_scale,
        config.platforms,
        config.seeds,
        config.densities,
        rayon::current_num_threads()
    );
    let open_sink = |path: &Option<String>, format: ItemRowFormat| {
        path.as_ref().map(|path| {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("creating streamed item file {path}: {e}"));
            ItemSink::new(format, Box::new(std::io::BufWriter::new(file)))
                .unwrap_or_else(|e| panic!("initialising streamed item file {path}: {e}"))
        })
    };
    let csv_sink = open_sink(&items_csv_path, ItemRowFormat::Csv);
    let jsonl_sink = open_sink(&items_jsonl_path, ItemRowFormat::Jsonl);
    let sinks: Vec<&ItemSink> = csv_sink.iter().chain(jsonl_sink.iter()).collect();
    let batch = run_batch_streamed(&config, &sinks, &ctx);
    drop(sinks);
    for (sink, path) in [(csv_sink, &items_csv_path), (jsonl_sink, &items_jsonl_path)] {
        if let (Some(sink), Some(path)) = (sink, path) {
            sink.finish()
                .unwrap_or_else(|e| panic!("finishing streamed item file {path}: {e}"));
            eprintln!("streamed per-item rows to {path}");
        }
    }
    eprintln!(
        "fig11: {} LP solves ({} warm hits, {} cold), {} ms total work-item time",
        batch.meta.lp_solves, batch.meta.warm_hits, batch.meta.warm_misses, batch.meta.solve_ms
    );
    for &(kind, stats) in &batch.meta.per_kind {
        let rate = 100.0 * pm_bench::emit::ratio(stats.warm_hits, stats.lp_solves);
        eprintln!(
            "fig11:   {:<22} {:>6} LP solves, {:>6} warm hits ({rate:.0}%)",
            kind_key(kind),
            stats.lp_solves,
            stats.warm_hits,
        );
    }
    if !batch.meta.realization.is_empty() {
        eprintln!("fig11: realization (simulator-verified schedules):");
        for &(kind, agg) in &batch.meta.realization {
            eprintln!(
                "fig11:   {:<22} {:>4} realized, {:>2} failed, {} one-port violations, \
                 realization_gap mean {:.3}% max {:.3}%",
                kind_key(kind),
                agg.realized,
                agg.failed,
                agg.one_port_violations,
                100.0 * agg.mean_gap(),
                100.0 * agg.max_gap,
            );
        }
    }

    for sweep in &batch.sweeps {
        println!(
            "== class {:?}, seed {}: mean periods ==",
            sweep.config.class, sweep.config.seed
        );
        println!("{}", format_period_table(sweep));
        if reference == "scatter" || reference == "all" {
            println!("== Figure 11 (a)/(c): ratios vs scatter ==");
            println!("{}", format_ratio_table(sweep, HeuristicKind::Scatter));
        }
        if reference == "lower" || reference == "all" {
            println!("== Figure 11 (b)/(d): ratios vs lower bound ==");
            println!("{}", format_ratio_table(sweep, HeuristicKind::LowerBound));
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, batch_to_json(&batch))
            .unwrap_or_else(|e| panic!("writing JSON to {path}: {e}"));
        eprintln!("wrote JSON results to {path}");
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, batch_to_csv(&batch))
            .unwrap_or_else(|e| panic!("writing CSV to {path}: {e}"));
        eprintln!("wrote CSV results to {path}");
    }
}
