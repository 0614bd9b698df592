//! Solve contexts are per solve, not per process: two threads solving the
//! same LP at the same time, one under a chaos-armed context with a tally
//! and one under the default context, cannot see each other's
//! configuration. The default side must look exactly like a solve that ran
//! alone, and the chaos side's tally must count exactly its own solves.

use pm_lp::revised::{solve_in, RecoveryRung};
use pm_lp::{
    ChaosConfig, LpProblem, Objective, Relation, SolveContext, SolveOutcome, SolveTally, VarId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};

const ROUNDS: usize = 200;

/// A random always-feasible box-bounded LP (the origin is feasible).
fn bounded_lp(num_vars: usize, num_cons: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| lp.add_var(&format!("x{i}")))
        .collect();
    for &v in &vars {
        lp.set_objective_coeff(v, rng.gen_range(0.5..4.0));
        lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..5.0));
    }
    for _ in 0..num_cons {
        let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, rng.gen_range(0.1..2.0))).collect();
        lp.add_constraint(terms, Relation::Le, rng.gen_range(1.0..6.0));
    }
    lp
}

fn value_bits(out: &SolveOutcome) -> Vec<u64> {
    out.solution.values().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn concurrent_solves_under_different_contexts_do_not_interfere() {
    let lp = bounded_lp(8, 6, 2026);
    let solo = solve_in(&SolveContext::default(), &lp, None, None, None).unwrap();
    assert_eq!(solo.stats.attempts, 1);

    // A seed whose plan strikes this LP: the solve climbs past the first
    // attempt.
    let chaos_ctx = |seed: u64, tally: Option<Arc<SolveTally>>| SolveContext {
        chaos: Some(ChaosConfig::all(seed)),
        tally,
        ..SolveContext::default()
    };
    let seed = (0..1_000u64)
        .find(|&seed| {
            solve_in(&chaos_ctx(seed, None), &lp, None, None, None)
                .is_ok_and(|out| out.stats.attempts > 1)
        })
        .expect("some seed in 0..1000 strikes the LP");

    let tally = Arc::new(SolveTally::new());
    let chaos = chaos_ctx(seed, Some(Arc::clone(&tally)));
    let start = Barrier::new(2);
    let (default_side, chaos_side) = std::thread::scope(|s| {
        let default_side = s.spawn(|| {
            let ctx = SolveContext::default();
            start.wait();
            (0..ROUNDS)
                .map(|_| solve_in(&ctx, &lp, None, None, None).unwrap())
                .collect::<Vec<_>>()
        });
        let chaos_side = s.spawn(|| {
            start.wait();
            (0..ROUNDS)
                .map(|_| solve_in(&chaos, &lp, None, None, None).unwrap())
                .collect::<Vec<_>>()
        });
        (default_side.join().unwrap(), chaos_side.join().unwrap())
    });

    for out in &default_side {
        assert_eq!(out.stats.attempts, 1);
        assert_eq!(out.stats.rung, RecoveryRung::First);
        assert_eq!(value_bits(out), value_bits(&solo));
        assert_eq!(
            out.solution.objective.to_bits(),
            solo.solution.objective.to_bits()
        );
    }

    let mut by_rung = [0u64; 3];
    for out in &chaos_side {
        assert!(
            out.stats.attempts > 1,
            "the chosen seed strikes every solve"
        );
        by_rung[out.stats.rung.index()] += 1;
    }
    let counted = tally.counters();
    assert_eq!(counted.solves, ROUNDS as u64);
    assert_eq!(counted.injected, ROUNDS as u64);
    assert_eq!(counted.recovered_by_rung, by_rung);
    assert_eq!(counted.degraded, 0);
    assert_eq!(counted.unrecovered, 0);
}
