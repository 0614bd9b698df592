//! Chaos-harness property tests for the revised engine's recovery ladder.
//!
//! Every injected fault (`singular` basis, poisoned warm-start hint,
//! pricing stall, NaN injection) must end in a dense-differentially-verified
//! optimum, a budget-degraded anytime solution, or a structured [`LpError`]
//! — never a panic. And recovery must be byte-deterministic: the same seed
//! and fault always walk the same rung sequence and return the same
//! solution, regardless of thread. The ladder is `First` → `Cold` →
//! `Dense`: strikes past the sparse attempts end on the dense oracle.
//!
//! Every solve names its configuration in a [`SolveContext`], so the tests
//! of this binary run in parallel without sharing any solver state.

use pm_lp::revised::{solve_in, solve_with_hint, BoundsOverlay, RecoveryRung};
use pm_lp::{
    ChaosConfig, ChaosFault, LpProblem, Objective, RecoveryTrigger, Relation, SolveBudget,
    SolveContext, SolveTally, SolverKind, VarId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const TOL: f64 = 1e-6;

/// The default context with `cfg` armed.
fn chaos(cfg: ChaosConfig) -> SolveContext {
    SolveContext {
        chaos: Some(cfg),
        ..SolveContext::default()
    }
}

const FAULTS: [ChaosFault; 4] = [
    ChaosFault::SingularBasis,
    ChaosFault::PoisonHint,
    ChaosFault::PricingStall,
    ChaosFault::NanInjection,
];

/// A random always-feasible box-bounded LP (the origin is feasible).
fn random_bounded_lp(num_vars: usize, num_cons: usize, seed: u64) -> (LpProblem, Vec<VarId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| lp.add_var(&format!("x{i}")))
        .collect();
    for &v in &vars {
        lp.set_objective_coeff(v, rng.gen_range(-2.0..4.0));
        lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..5.0));
    }
    for _ in 0..num_cons {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.7) {
                terms.push((v, rng.gen_range(0.1..2.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        lp.add_constraint(terms, Relation::Le, rng.gen_range(0.5..6.0));
    }
    (lp, vars)
}

/// Fingerprint of a solve outcome that must be bit-identical between
/// deterministic reruns: exact value bits plus the recovery telemetry.
fn fingerprint(
    out: &Result<pm_lp::SolveOutcome, pm_lp::LpError>,
) -> Result<(u64, Vec<u64>, usize, RecoveryRung, bool), pm_lp::LpError> {
    out.as_ref()
        .map(|o| {
            (
                o.solution.objective.to_bits(),
                o.solution.values().iter().map(|v| v.to_bits()).collect(),
                o.stats.attempts,
                o.stats.rung,
                o.stats.degraded,
            )
        })
        .map_err(Clone::clone)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline chaos property: under every single-fault config and the
    /// all-faults config, cold and warm-chained solves never panic, and a
    /// successful non-degraded solve matches the dense tableau oracle.
    #[test]
    fn injected_faults_recover_to_the_dense_verified_optimum(
        num_vars in 1usize..6,
        num_cons in 0usize..6,
        lp_seed in 0u64..100_000,
        chaos_seed in 0u64..1_000,
    ) {
        let (lp, _) = random_bounded_lp(num_vars, num_cons, lp_seed);
        let dense = lp
            .solve_in(&SolveContext { engine: SolverKind::Dense, ..SolveContext::default() })
            .expect("bounded LP with feasible origin must solve");

        let mut configs: Vec<ChaosConfig> =
            FAULTS.iter().map(|&f| ChaosConfig::only(f, chaos_seed)).collect();
        configs.push(ChaosConfig::all(chaos_seed));

        for cfg in configs {
            let ctx = chaos(cfg);
            let solved = catch_unwind(AssertUnwindSafe(|| {
                let cold = solve_in(&ctx, &lp, None, None, None)?;
                // Warm chain: re-solve from the cold basis so the
                // hint-poisoning fault has a hint to corrupt.
                let warm = solve_in(&ctx, &lp, None, Some(&cold.basis), None)?;
                Ok::<_, pm_lp::LpError>((cold, warm))
            }));
            let outcome = match solved {
                Ok(outcome) => outcome,
                Err(_) => return Err(TestCaseError {
                    message: format!("panic escaped the recovery ladder under {cfg:?}"),
                }),
            };
            // Bounded + feasible: a structured error is not acceptable
            // here, the ladder must actually recover.
            let (cold, warm) = outcome.expect("recoverable fault must not surface an error");
            for out in [&cold, &warm] {
                prop_assert!(!out.solution.degraded(), "no budget set, must not degrade");
                prop_assert!(
                    (out.solution.objective - dense.objective).abs()
                        <= TOL * (1.0 + dense.objective.abs()),
                    "recovered objective {} disagrees with dense oracle {} under {cfg:?}",
                    out.solution.objective,
                    dense.objective,
                );
                prop_assert!(lp.is_feasible(out.solution.values(), TOL));
            }
        }
    }

    /// Recovery-ladder determinism: the same seed and fault produce the
    /// same rung walk (attempts, winning rung, telemetry) and bit-identical
    /// solutions — on this thread, and on a freshly spawned one.
    #[test]
    fn ladder_walk_is_deterministic_across_runs_and_threads(
        num_vars in 1usize..6,
        num_cons in 0usize..6,
        lp_seed in 0u64..100_000,
        chaos_seed in 0u64..1_000,
        fault_idx in 0usize..5,
    ) {
        let (lp, _) = random_bounded_lp(num_vars, num_cons, lp_seed);
        let cfg = if fault_idx < 4 {
            ChaosConfig::only(FAULTS[fault_idx], chaos_seed)
        } else {
            ChaosConfig::all(chaos_seed)
        };
        let run = {
            let lp = lp.clone();
            move || {
                let ctx = chaos(cfg);
                let cold = solve_in(&ctx, &lp, None, None, None);
                let hint = cold.as_ref().ok().map(|o| o.basis.clone());
                let warm = solve_in(&ctx, &lp, None, hint.as_ref(), None);
                (fingerprint(&cold), fingerprint(&warm))
            }
        };
        let first = run();
        let second = run();
        prop_assert!(first == second, "rerun diverged under {:?}", cfg);
        let threaded = std::thread::spawn(run).join().expect("no panics on worker threads");
        prop_assert!(first == threaded, "spawned thread diverged under {:?}", cfg);
    }

    /// Degradable budgets: an exhausted phase 2 yields a primal-feasible
    /// anytime point flagged `degraded` whose objective never beats the
    /// optimum; a generous budget reproduces the unbudgeted solve exactly.
    #[test]
    fn exhausted_budgets_degrade_to_feasible_anytime_points(
        num_vars in 2usize..7,
        num_cons in 2usize..7,
        lp_seed in 0u64..100_000,
    ) {
        let (lp, _) = random_bounded_lp(num_vars, num_cons, lp_seed);
        let full = solve_with_hint(&lp, None).expect("bounded feasible LP must solve");

        let ctx = SolveContext::default();
        let generous = solve_in(&ctx, &lp, None, None, Some(SolveBudget::pivots(1_000_000)))
            .expect("generous budget must not bite");
        prop_assert!(!generous.solution.degraded());
        prop_assert!(
            generous.solution.objective.to_bits() == full.solution.objective.to_bits(),
            "a budget that never binds must not change the solve"
        );

        // Tighten the budget one pivot at a time: every outcome must be
        // either a degraded-but-feasible anytime point that the optimum
        // dominates, or a structured budget error from phase 1.
        for max_pivots in 0..full.stats.phase1_pivots + full.stats.phase2_pivots + 1 {
            let out = solve_in(
                &ctx, &lp, None, None, Some(SolveBudget::pivots(max_pivots as u64)));
            match out {
                Ok(o) => {
                    prop_assert!(lp.is_feasible(o.solution.values(), TOL));
                    prop_assert!(
                        o.solution.objective <= full.solution.objective + TOL,
                        "anytime point beats the optimum: {} > {}",
                        o.solution.objective, full.solution.objective
                    );
                    if !o.solution.degraded() {
                        prop_assert!(
                            o.solution.objective.to_bits()
                                == full.solution.objective.to_bits(),
                            "non-degraded budgeted solve must be the optimum"
                        );
                    }
                }
                Err(e) => prop_assert_eq!(e, pm_lp::LpError::IterationLimit),
            }
        }
    }
}

/// Structured verdicts pass through the ladder untouched: chaos cannot turn
/// an infeasible model into anything else, and never into a panic.
#[test]
fn structured_verdicts_survive_chaos() {
    let mut lp = LpProblem::new(Objective::Minimize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
    for seed in 0..64 {
        let out = solve_in(&chaos(ChaosConfig::all(seed)), &lp, None, None, None);
        assert_eq!(out.unwrap_err(), pm_lp::LpError::Infeasible);
    }
}

/// Overlay re-solves (the masked-template fast path) under chaos: the
/// warm-chained path through the dual pass must recover like the plain one.
#[test]
fn overlay_resolves_recover_under_chaos() {
    let (lp, vars) = random_bounded_lp(5, 4, 77);
    let cold = lp
        .resolve_with_bounds(&BoundsOverlay::default(), None)
        .unwrap();
    let mut overlay = BoundsOverlay::default();
    overlay.fix_zero.push(vars[0]);
    let reference = lp.resolve_with_bounds(&overlay, None).unwrap();
    for seed in 0..64 {
        let out = lp
            .resolve_in(
                &chaos(ChaosConfig::all(seed)),
                &overlay,
                Some(&cold.basis),
                None,
            )
            .expect("overlay solve must recover under chaos");
        assert!(
            (out.solution.objective - reference.solution.objective).abs()
                <= TOL * (1.0 + reference.solution.objective.abs()),
            "seed {seed}: {} vs {}",
            out.solution.objective,
            reference.solution.objective
        );
    }
}

/// A strike inside the dual pass fails the attempt like a strike anywhere
/// else: the ladder climbs to `Cold` and records the trigger. (A pass that
/// swallowed the fault and fell back to a cold start inside the first
/// attempt would report `First`, one attempt and no trigger.)
#[test]
fn a_struck_dual_pass_climbs_to_the_cold_rung() {
    let (lp, vars) = random_bounded_lp(5, 4, 77);
    let cold = lp
        .resolve_with_bounds(&BoundsOverlay::default(), None)
        .unwrap();
    // Fix a column the hint holds positive: it installs basic above zero.
    let basic = *vars
        .iter()
        .find(|&&v| cold.solution.value(v) > TOL)
        .expect("the optimum uses a column");
    let overlay = BoundsOverlay {
        fix_zero: vec![basic],
        ..BoundsOverlay::default()
    };
    let unstruck = lp
        .resolve_in(&SolveContext::default(), &overlay, Some(&cold.basis), None)
        .unwrap();
    assert!(
        unstruck.stats.dual_pivots > 0,
        "the hint must need the pass"
    );
    let mut struck_once = 0;
    for seed in 0..64 {
        let tally = Arc::new(SolveTally::new());
        let ctx = SolveContext {
            chaos: Some(ChaosConfig::only(ChaosFault::SingularBasis, seed)),
            tally: Some(Arc::clone(&tally)),
            ..SolveContext::default()
        };
        let out = lp
            .resolve_in(&ctx, &overlay, Some(&cold.basis), None)
            .unwrap();
        if tally.counters().injected == 0 {
            assert_eq!(out.stats.attempts, 1, "seed {seed}");
            continue;
        }
        assert!(out.stats.attempts >= 2, "seed {seed}: the strike vanished");
        assert_eq!(
            out.stats.trigger,
            Some(RecoveryTrigger::SingularBasis),
            "seed {seed}"
        );
        if out.stats.attempts == 2 {
            assert_eq!(out.stats.rung, RecoveryRung::Cold, "seed {seed}");
            assert!(
                (out.solution.objective - unstruck.solution.objective).abs() <= 1e-9,
                "seed {seed}: {} vs {}",
                out.solution.objective,
                unstruck.solution.objective
            );
            struck_once += 1;
        }
    }
    assert!(struck_once > 0, "no seed in 0..64 strikes exactly once");
}

/// A healthy solve reports the telemetry of a first-attempt win.
#[test]
fn healthy_solves_report_first_rung() {
    let (lp, _) = random_bounded_lp(4, 3, 5);
    let out = solve_with_hint(&lp, None).unwrap();
    assert_eq!(out.stats.attempts, 1);
    assert_eq!(out.stats.rung, RecoveryRung::First);
    assert_eq!(out.stats.trigger, None);
    assert!(!out.stats.degraded);
}

/// The ladder's shape. A chaos plan is a pure function of the seed and the
/// problem's structure, so a hinted and an unhinted solve of one LP under
/// one seed are struck on the same number of leading attempts. A hinted
/// solve struck once is rescued by `Cold` (two attempts); one struck twice
/// or more fails on `First` and `Cold` and ends on `Dense` (three). An
/// unhinted solve already ran the all-artificial phase 1 on its first
/// attempt, so it skips `Cold`: struck once, it goes straight to `Dense` on
/// its second attempt.
#[test]
fn struck_sparse_rungs_end_on_the_dense_rung() {
    let (lp, _) = random_bounded_lp(5, 4, 11);
    let dense = lp
        .solve_in(&SolveContext {
            engine: SolverKind::Dense,
            ..SolveContext::default()
        })
        .unwrap();
    let close = |objective: f64| (objective - dense.objective).abs() <= TOL;
    let hint = solve_with_hint(&lp, None).unwrap().basis;
    let tally = Arc::new(SolveTally::new());
    let (mut struck_once, mut struck_twice) = (0u64, 0u64);
    for seed in 0..64 {
        let ctx = SolveContext {
            chaos: Some(ChaosConfig::only(ChaosFault::SingularBasis, seed)),
            tally: Some(Arc::clone(&tally)),
            ..SolveContext::default()
        };
        let hinted = solve_in(&ctx, &lp, None, Some(&hint), None).unwrap();
        match hinted.stats.attempts {
            1 => assert_eq!(hinted.stats.rung, RecoveryRung::First, "seed {seed}"),
            2 => {
                assert_eq!(hinted.stats.rung, RecoveryRung::Cold, "seed {seed}");
                let unhinted = solve_in(&ctx, &lp, None, None, None).unwrap();
                assert_eq!(unhinted.stats.rung, RecoveryRung::Dense, "seed {seed}");
                assert_eq!(unhinted.stats.attempts, 2, "seed {seed}");
                assert_eq!(unhinted.stats.trigger, Some(RecoveryTrigger::SingularBasis));
                assert!(close(unhinted.solution.objective), "seed {seed}");
                struck_once += 1;
            }
            _ => {
                assert_eq!(hinted.stats.rung, RecoveryRung::Dense, "seed {seed}");
                assert_eq!(hinted.stats.attempts, 3, "seed {seed}");
                assert_eq!(hinted.stats.trigger, Some(RecoveryTrigger::SingularBasis));
                assert!(close(hinted.solution.objective), "seed {seed}");
                struck_twice += 1;
            }
        }
    }
    assert!(struck_once > 0, "no seed in 0..64 strikes exactly once");
    assert!(struck_twice > 0, "no seed in 0..64 strikes twice or more");
    let counted = tally.counters();
    assert_eq!(counted.recovered_by_rung[1], struck_once);
    assert_eq!(counted.recovered_by_rung[2], struck_once + struck_twice);
    assert_eq!(counted.unrecovered, 0);
}
