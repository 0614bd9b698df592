//! The `drift` workload: long-lived sessions, eight platforms per class at
//! the sizes `fig11 --drift` uses, with targets at density 0.5. Each
//! session follows a seeded trace of edge-cost walks (70%) and node churn
//! (30%), as `fig11 --drift` draws them. Each op is one event on the next
//! session in turn, followed by a warm `solve` and `re_realize` of scatter,
//! lower bound, broadcast and MCPH. The cold first solves and realizations
//! are part of the set-up. A pass sets the sessions up and runs the first
//! 2000 ops of their traces; a timed run measures whole passes until
//! `--seconds` have passed and reports each op's best time over them, a
//! traced run measures one pass.
//!
//! Here the LP work is mostly gone (warm bases, few pivots) and the
//! realization pipeline — decomposition, packing, coloring and replay —
//! takes a large share of every op. (At paper scale it does not: cold
//! broadcast re-solves of seconds after node churn on the big class bury
//! it; see `perfbench/README.md`.)

use std::time::Instant;

use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_platform::graph::{EdgeId, NodeId};
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ops::{self, Counts, SetupTimes};
use crate::trace::Tracer;
use crate::{median, Args, OpLog, Outcome, Scale};

const KINDS: [HeuristicKind; 4] = [
    HeuristicKind::Scatter,
    HeuristicKind::LowerBound,
    HeuristicKind::Broadcast,
    HeuristicKind::Mcph,
];

/// Edge costs walk multiplicatively within this clamp.
const COST_CLAMP: (f64, f64) = (0.05, 50.0);

/// Platforms per class.
const PLATFORMS: u64 = 8;

/// Ops of a pass: a traced run measures one, a timed run whole passes.
const PASS_OPS: usize = 2000;

struct Tenant {
    session: Session,
    rng: StdRng,
    disabled: Vec<NodeId>,
}

struct Setup {
    tenants: Vec<Tenant>,
    generate_ms: f64,
    create_ms: f64,
    seconds: f64,
}

/// Builds the sessions and runs their cold first solves and realizations.
fn setup(seed: u64, scale: Scale, log: &mut OpLog) -> Setup {
    let start = Instant::now();
    let (classes, platforms): (&[PlatformClass], u64) = match scale {
        Scale::Full => (&[PlatformClass::Small, PlatformClass::Big], PLATFORMS),
        Scale::Tiny => (&[PlatformClass::Small], 1),
    };
    let mut generate_ms = 0.0;
    let mut create_ms = 0.0;
    let mut tenants = Vec::new();
    for &class in classes {
        for pi in 0..platforms {
            let t = Instant::now();
            let topology = TiersLikeGenerator::reduced_scale(class, seed + pi).generate();
            // The per-scenario trace seed of `fig11 --drift`.
            let mut rng = StdRng::seed_from_u64(seed ^ (pi << 32) ^ 0xd81f_7ad5_4c0e_99b1);
            let instance = topology.sample_instance(0.5, &mut rng);
            generate_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let mut session = Session::new(instance);
            create_ms += t.elapsed().as_secs_f64() * 1e3;
            let mut problems = Vec::new();
            let mut untraced = Tracer::new(false, start);
            for kind in KINDS {
                ops::solve_and_realize(
                    &mut session,
                    kind,
                    0,
                    &mut untraced,
                    &mut Counts::default(),
                    &mut problems,
                );
            }
            if !problems.is_empty() {
                log.finish(0, &problems);
            }
            tenants.push(Tenant {
                session,
                rng,
                disabled: Vec::new(),
            });
        }
    }
    Setup {
        tenants,
        generate_ms,
        create_ms,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// A node whose removal keeps every other active node reachable from the
/// source, so every kind stays solvable.
fn disable_candidate(session: &Session, rng: &mut StdRng) -> Option<NodeId> {
    let instance = session.instance();
    let mask = session.mask();
    let eligible: Vec<NodeId> = mask
        .iter()
        .filter(|&v| v != instance.source && !instance.is_target(v))
        .filter(|&v| {
            let candidate = mask.without(v);
            let seen = candidate.reachable_from(&instance.platform, instance.source);
            candidate.to_nodes().into_iter().all(|u| seen[u.index()])
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    Some(eligible[rng.gen_range(0..eligible.len())])
}

/// Half the time, the index in `disabled` of a node to re-enable: one the
/// source reaches again (a node disabled earlier may hang off one disabled
/// later, and enabling it would leave it unreachable).
fn enable_candidate(session: &Session, disabled: &[NodeId], rng: &mut StdRng) -> Option<usize> {
    if disabled.is_empty() || !rng.gen_bool(0.5) {
        return None;
    }
    let instance = session.instance();
    let eligible: Vec<usize> = (0..disabled.len())
        .filter(|&i| {
            let node = disabled[i];
            session
                .mask()
                .with(node)
                .reachable_from(&instance.platform, instance.source)[node.index()]
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    Some(eligible[rng.gen_range(0..eligible.len())])
}

/// Applies the tenant's next drift event.
fn apply_event(
    tenant: &mut Tenant,
    op: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    counts.edits += 1;
    let Tenant {
        session,
        rng,
        disabled,
    } = tenant;
    if rng.gen_range(0u32..100) >= 70 {
        if let Some(i) = enable_candidate(session, disabled, rng) {
            let node = disabled.swap_remove(i);
            return tracer
                .span("edit", "enable_node", op, || session.enable_node(node))
                .map(drop)
                .map_err(|e| format!("enable {node}: {e}"));
        }
        if let Some(node) = disable_candidate(session, rng) {
            disabled.push(node);
            return tracer
                .span("edit", "disable_node", op, || session.disable_node(node))
                .map(drop)
                .map_err(|e| format!("disable {node}: {e}"));
        }
    }
    let edge = EdgeId(rng.gen_range(0..session.instance().platform.edge_count()) as u32);
    let factor: f64 = rng.gen_range(0.7..1.4);
    let cost = (session.instance().platform.cost(edge) * factor).clamp(COST_CLAMP.0, COST_CLAMP.1);
    tracer
        .span("edit", "set_edge_cost", op, || {
            session.set_edge_cost(edge, cost)
        })
        .map_err(|e| format!("edge {edge} cost {cost}: {e}"))
}

/// One op: the next event of tenant `op % tenants`, then every kind.
fn run_op(
    tenants: &mut [Tenant],
    op: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    log: &mut OpLog,
) {
    let n = tenants.len() as u64;
    let tenant = &mut tenants[(op % n) as usize];
    let mut problems = vec![Vec::new(); KINDS.len()];
    let start = Instant::now();
    let open = tracer.begin("op", "drift", op);
    if let Err(e) = apply_event(tenant, op, tracer, counts) {
        problems[0].push(e);
    }
    let results: Vec<ops::KindResult> = KINDS
        .iter()
        .zip(problems.iter_mut())
        .map(|(&kind, problems)| {
            ops::solve_and_realize(&mut tenant.session, kind, op, tracer, counts, problems)
        })
        .collect();
    tracer.end(open);
    let elapsed = start.elapsed().as_nanos() as u64;
    for result in &results {
        ops::after_op(&tenant.session, result, op, tracer, counts);
        if let Some(period) = result.period {
            log.digest.add(op, period);
        }
    }
    ops::check_periods(&results, &mut problems);
    log.finish(elapsed, &problems.concat());
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let pass_ops = match args.scale {
        Scale::Full => PASS_OPS,
        Scale::Tiny => 12,
    };

    if args.trace {
        // The same ops untraced, then traced, each from a fresh set-up.
        let origin = Instant::now();
        let mut untraced = OpLog::default();
        let mut setup_log = OpLog::default();
        let first = setup(args.seed, args.scale, &mut setup_log);
        let mut tenants = first.tenants;
        let mut scratch = Counts::default();
        let mut off = Tracer::new(false, origin);
        for op in 0..pass_ops as u64 {
            run_op(&mut tenants, op, &mut off, &mut scratch, &mut untraced);
        }
        let second = setup(args.seed, args.scale, &mut setup_log);
        let mut tenants = second.tenants;
        let mut tracer = Tracer::new(true, origin);
        let mut counts = Counts::default();
        let start = Instant::now();
        for op in 0..pass_ops as u64 {
            run_op(&mut tenants, op, &mut tracer, &mut counts, &mut outcome.log);
        }
        outcome.measured_s = start.elapsed().as_secs_f64();
        let mut sessions: Vec<Session> = tenants.into_iter().map(|t| t.session).collect();
        ops::journal_probe(&mut sessions, &mut tracer, &mut counts);
        let times = SetupTimes {
            generate_ms: median(&[first.generate_ms, second.generate_ms]),
            create_ms: median(&[first.create_ms, second.create_ms]),
        };
        outcome.setup_s = vec![first.seconds, second.seconds];
        outcome.layers = ops::session_layers(&tracer, &counts, times);
        outcome.layers.insert(
            "trace.overhead_pct".into(),
            ops::overhead_pct(&untraced, &outcome.log),
        );
        outcome.log.absorb_failures(&setup_log);
        outcome.log.absorb_failures(&untraced);
        crate::write_trace(args, &tracer);
        return outcome;
    }

    // Every pass is set up anew and replays the same trace, so every run
    // measures the same op mix however far a fast host would have taken
    // it, and the set-ups spread over the run (see `sweep`).
    let mut setup_log = OpLog::default();
    let mut tracer = Tracer::new(false, Instant::now());
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut first_pass_digest = None;
    loop {
        let s = setup(args.seed, args.scale, &mut setup_log);
        outcome.setup_s.push(s.seconds);
        let mut tenants = s.tenants;
        crate::time_pass(&mut outcome, |log| {
            for op in 0..pass_ops as u64 {
                run_op(&mut tenants, op, &mut tracer, &mut counts, log);
            }
        });
        first_pass_digest.get_or_insert(outcome.log.digest);
        if crate::passes_done(args, &outcome, start) {
            break;
        }
    }
    outcome.log.absorb_failures(&setup_log);
    // Later passes repeat the first one's results; the digest covers one.
    outcome.log.digest = first_pass_digest.expect("at least one pass ran");
    outcome
}
