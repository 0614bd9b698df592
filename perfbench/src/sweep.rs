//! The `sweep` workload: the small-class instances and heuristic kinds of
//! `fig11 --realize --full --seeds <seed> --platforms 16` — sixteen
//! platforms at the reduced size, densities {0.25, 0.5, 0.75, 1.0} and all
//! seven kinds, 448 (instance, kind) ops per pass. Each instance gets a fresh
//! `Session` per pass, and each op is `solve(kind)` plus `re_realize(kind)`.
//! LP pivots and the greedy candidate loops do nearly all the work.
//!
//! The set-up draws the instances, creates their sessions and solves and
//! realizes each one's lower bound cold. A timed run sets up and measures
//! whole passes until `--seconds` have passed, so every run measures the
//! same op mix, and its metrics come from each op's best time over the
//! passes. A traced run measures one pass.

use std::time::Instant;

use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_platform::instances::MulticastInstance;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use pm_serve::protocol::kind_key;

use crate::ops::{self, Counts, SetupTimes};
use crate::trace::Tracer;
use crate::{median, Args, OpLog, Outcome, Scale, SETUP_REPS};

/// Platforms: enough that one pass averages over the instance costs of
/// many topologies (the LP pivots of a pass spread 0.03 over ten seeds, 0.07
/// on 8 platforms).
const PLATFORMS: u64 = 16;

/// Set-ups before each pass of a timed run; the last one's instances run.
const PASS_SETUPS: usize = 3;

/// The small-class instances `fig11` draws for `seed`. (The big class is
/// left out: its few greedy ops of a second each would set the latency
/// tail on their own; see `perfbench/README.md`.)
fn generate(seed: u64, scale: Scale) -> Vec<MulticastInstance> {
    let (platforms, densities): (u64, &[f64]) = match scale {
        Scale::Full => (PLATFORMS, &[0.25, 0.5, 0.75, 1.0]),
        Scale::Tiny => (1, &[0.5]),
    };
    let mut instances = Vec::new();
    for pi in 0..platforms {
        let topology =
            TiersLikeGenerator::reduced_scale(PlatformClass::Small, seed + pi).generate();
        for (di, &density) in densities.iter().enumerate() {
            // The instance seed `fig11` derives for (density, platform).
            let instance_seed = seed ^ (di as u64).wrapping_mul(0x9e37_79b9) ^ (pi << 32);
            let mut rng = StdRng::seed_from_u64(instance_seed);
            instances.push(topology.sample_instance(density, &mut rng));
        }
    }
    instances
}

/// Runs the seven kinds on one instance's session.
fn run_instance(
    session: &mut Session,
    first_op: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    log: &mut OpLog,
) {
    let mut results = Vec::with_capacity(HeuristicKind::ALL.len());
    let mut problems = vec![Vec::new(); HeuristicKind::ALL.len()];
    let mut elapsed = Vec::with_capacity(HeuristicKind::ALL.len());
    for (i, kind) in HeuristicKind::ALL.into_iter().enumerate() {
        let op = first_op + i as u64;
        let start = Instant::now();
        let open = tracer.begin("op", kind_key(kind), op);
        let result = ops::solve_and_realize(session, kind, op, tracer, counts, &mut problems[i]);
        tracer.end(open);
        elapsed.push(start.elapsed().as_nanos() as u64);
        ops::after_op(session, &result, op, tracer, counts);
        if let Some(period) = result.period {
            log.digest.add(op, period);
        }
        results.push(result);
    }
    ops::check_periods(&results, &mut problems);
    for (ns, problems) in elapsed.into_iter().zip(&problems) {
        log.finish(ns, problems);
    }
}

/// One pass over every instance, each on a fresh session.
fn run_pass(
    instances: &[MulticastInstance],
    tracer: &mut Tracer,
    counts: &mut Counts,
    log: &mut OpLog,
) {
    let mut sessions: Vec<Session> = instances
        .iter()
        .map(|inst| tracer.span("session.new", "", 0, || Session::new(inst.clone())))
        .collect();
    for (ii, session) in sessions.iter_mut().enumerate() {
        let first_op = (ii * HeuristicKind::ALL.len()) as u64;
        run_instance(session, first_op, tracer, counts, log);
    }
}

/// One set-up: the instances, a session each and a cold solve and
/// realization of each instance's lower bound, the bound every op is
/// checked against. The passes run on sessions of their own, so that each
/// does the same work.
fn setup(seed: u64, scale: Scale, log: &mut OpLog) -> (Vec<MulticastInstance>, SetupTimes) {
    let start = Instant::now();
    let instances = generate(seed, scale);
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let created = Instant::now();
    let mut sessions: Vec<Session> = instances.iter().cloned().map(Session::new).collect();
    let create_ms = created.elapsed().as_secs_f64() * 1e3;
    let mut off = Tracer::new(false, start);
    for session in &mut sessions {
        let mut problems = Vec::new();
        let kind = HeuristicKind::LowerBound;
        ops::solve_and_realize(
            session,
            kind,
            0,
            &mut off,
            &mut Counts::default(),
            &mut problems,
        );
        if !problems.is_empty() {
            log.finish(0, &problems);
        }
    }
    let times = SetupTimes {
        generate_ms,
        create_ms,
    };
    (instances, times)
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_log = OpLog::default();
    let mut setup_times = Vec::new();
    let mut set_up = |outcome: &mut Outcome| {
        let start = Instant::now();
        let (instances, times) = setup(args.seed, args.scale, &mut setup_log);
        outcome.setup_s.push(start.elapsed().as_secs_f64());
        setup_times.push(times);
        instances
    };

    if args.trace {
        let instances = (0..SETUP_REPS)
            .map(|_| set_up(&mut outcome))
            .last()
            .expect("SETUP_REPS > 0");
        // The same pass untraced, then traced.
        let origin = Instant::now();
        let mut untraced = OpLog::default();
        let mut scratch = Counts::default();
        run_pass(
            &instances,
            &mut Tracer::new(false, origin),
            &mut scratch,
            &mut untraced,
        );
        let mut tracer = Tracer::new(true, origin);
        let mut counts = Counts::default();
        let start = Instant::now();
        run_pass(&instances, &mut tracer, &mut counts, &mut outcome.log);
        outcome.measured_s = start.elapsed().as_secs_f64();
        let setup = SetupTimes {
            generate_ms: median(
                &setup_times
                    .iter()
                    .map(|t| t.generate_ms)
                    .collect::<Vec<_>>(),
            ),
            create_ms: median(&setup_times.iter().map(|t| t.create_ms).collect::<Vec<_>>()),
        };
        outcome.layers = ops::session_layers(&tracer, &counts, setup);
        outcome.layers.insert(
            "trace.overhead_pct".into(),
            ops::overhead_pct(&untraced, &outcome.log),
        );
        outcome.log.absorb_failures(&untraced);
        outcome.log.absorb_failures(&setup_log);
        crate::write_trace(args, &tracer);
        return outcome;
    }

    // Every pass is set up anew, `PASS_SETUPS` times. One set-up takes
    // under 0.1 s, and the host runs such a stretch at speeds up to 45%
    // apart; a dozen set-ups spread over the whole run sample them all.
    let mut tracer = Tracer::new(false, Instant::now());
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut first_pass_digest = None;
    loop {
        let instances = (0..PASS_SETUPS)
            .map(|_| set_up(&mut outcome))
            .last()
            .expect("PASS_SETUPS > 0");
        crate::time_pass(&mut outcome, |log| {
            run_pass(&instances, &mut tracer, &mut counts, log)
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
