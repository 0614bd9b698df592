//! Crash bases (`Basis::crash`, offered as `BoundsOverlay::crash`): how the
//! constructor lays out the rows it is not given, and how a solve treats
//! the crash — a start in place of the all-artificial phase 1 when it
//! installs, a plain cold solve when it does not, never a warm hit, and
//! never part of the recovery ladder's `Cold` rung.

use pm_lp::revised::resolve_with_bounds;
use pm_lp::{
    Basis, BoundsOverlay, ChaosConfig, ChaosFault, LpProblem, Objective, RecoveryRung, Relation,
    SolveContext, SolveOutcome, SolverKind, VarId, WarmStatus,
};

/// maximize x + y  s.t.  x + y ≤ 4,  2x + 2y ≤ 9,  x ≤ 3.
fn packing_lp() -> (LpProblem, VarId, VarId) {
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.set_objective_coeff(x, 1.0);
    lp.set_objective_coeff(y, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
    lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Le, 9.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 3.0);
    (lp, x, y)
}

/// A two-path flow LP: minimize t  s.t.  a + b = 1,  2a − t ≤ 0,
/// 3b − t ≤ 0. Its equality row gives phase 1 work to do.
fn flow_lp() -> (LpProblem, [VarId; 3]) {
    let mut lp = LpProblem::new(Objective::Minimize);
    let a = lp.add_var("a");
    let b = lp.add_var("b");
    let t = lp.add_var("t");
    lp.set_objective_coeff(t, 1.0);
    lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Eq, 1.0);
    lp.add_constraint(vec![(a, 2.0), (t, -1.0)], Relation::Le, 0.0);
    lp.add_constraint(vec![(b, 3.0), (t, -1.0)], Relation::Le, 0.0);
    (lp, [a, b, t])
}

fn with_crash(crash: Basis) -> BoundsOverlay {
    BoundsOverlay {
        crash: Some(crash),
        ..BoundsOverlay::new()
    }
}

fn bits(out: &SolveOutcome) -> Vec<u64> {
    out.solution.values().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn unnamed_rows_get_their_slack_or_artificial() {
    let mut lp = LpProblem::new(Objective::Minimize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.set_objective_coeff(x, 1.0);
    lp.set_objective_coeff(y, 1.0);
    // Slack columns are numbered after the variables, one per inequality
    // row in row order; a negative right-hand side flips the inequality.
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0); // slack 2
    lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 1.0); // artificial
    lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 0.5); // surplus 3, artificial
    lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Relation::Ge, -10.0); // flips to ≤: slack 4
    lp.add_constraint(vec![(x, -1.0), (y, 1.0)], Relation::Le, -0.25); // flips to ≥: surplus 5
    let r = Basis::REDUNDANT;
    assert_eq!(Basis::crash(&lp, []).columns(), &[2, r, r, 4, r]);
    assert_eq!(
        Basis::crash(&lp, [(1, x), (4, y)]).columns(),
        &[2, 0, r, 4, 1]
    );

    // The all-default crash is the cold start basis with its slacks named:
    // offered to a solve, it leads to the optimum of a solve without it.
    let plain = resolve_with_bounds(&lp, &BoundsOverlay::new(), None).unwrap();
    let crashed = resolve_with_bounds(&lp, &with_crash(Basis::crash(&lp, [])), None).unwrap();
    assert!((plain.solution.objective - crashed.solution.objective).abs() <= 1e-9);
    assert_eq!(crashed.stats.warm, WarmStatus::None);
}

#[test]
fn singular_and_infeasible_crashes_fall_back_to_the_cold_answer() {
    let (lp, x, y) = packing_lp();
    let cold = resolve_with_bounds(&lp, &BoundsOverlay::new(), None).unwrap();
    // x basic in row 0 and y in row 1: both columns read (1, 2) there.
    let singular = Basis::crash(&lp, [(0, x), (1, y)]);
    // x basic in row 0 puts x at 4, past row 2's x ≤ 3.
    let infeasible = Basis::crash(&lp, [(0, x)]);
    for (label, crash) in [("singular", singular), ("infeasible", infeasible)] {
        let out = resolve_with_bounds(&lp, &with_crash(crash), None).unwrap();
        assert_eq!(bits(&out), bits(&cold), "{label} crash");
        assert_eq!(out.stats.phase1_pivots, cold.stats.phase1_pivots, "{label}");
        assert_eq!(out.stats.phase2_pivots, cold.stats.phase2_pivots, "{label}");
        assert_eq!(out.stats.warm, WarmStatus::None, "{label}");
        assert_eq!(out.stats.attempts, 1, "{label}");
    }
}

#[test]
fn crash_starts_never_report_a_warm_hit() {
    let (lp, [a, _, t]) = flow_lp();
    let cold = resolve_with_bounds(&lp, &BoundsOverlay::new(), None).unwrap();
    assert!(
        cold.stats.phase1_pivots > 0,
        "phase 1 has an artificial to drive out"
    );
    // Route the unit over `a`, with t carrying the busier row.
    let crash = Basis::crash(&lp, [(0, a), (1, t)]);
    let overlay = with_crash(crash);

    let crashed = resolve_with_bounds(&lp, &overlay, None).unwrap();
    assert_eq!(crashed.stats.phase1_pivots, 0);
    assert_eq!(crashed.stats.warm, WarmStatus::None);
    assert!((crashed.solution.objective - cold.solution.objective).abs() <= 1e-9);

    // A hint of another shape is rejected; the crash still starts the solve.
    // So is the basis of a solve the dense oracle answered: the dense
    // engine's, and the last rung's of a chaos plan that strikes both
    // sparse rungs.
    let (other, _, _) = packing_lp();
    let dense_engine = SolveContext {
        engine: SolverKind::Dense,
        ..SolveContext::default()
    };
    let dense = lp.resolve_in(&dense_engine, &overlay, None, None).unwrap();
    let rescued = (0..256u64)
        .map(|seed| {
            let ctx = SolveContext {
                chaos: Some(ChaosConfig::only(ChaosFault::SingularBasis, seed)),
                ..SolveContext::default()
            };
            lp.resolve_in(&ctx, &overlay, None, None).unwrap()
        })
        .find(|out| out.stats.rung == RecoveryRung::Dense)
        .expect("some seed strikes both sparse rungs");
    for wrong in [Basis::crash(&other, []), dense.basis, rescued.basis] {
        let missed = resolve_with_bounds(&lp, &overlay, Some(&wrong)).unwrap();
        assert_eq!(missed.stats.phase1_pivots, 0);
        assert_eq!(missed.stats.warm, WarmStatus::Miss);
        assert_eq!(bits(&missed), bits(&crashed));
    }

    // A hint that installs wins over the crash, and only it is a hit.
    let hit = resolve_with_bounds(&lp, &overlay, Some(&cold.basis)).unwrap();
    assert_eq!(hit.stats.warm, WarmStatus::Hit);
    assert_eq!(hit.stats.phase2_pivots, 0);
}

#[test]
fn the_cold_rung_runs_without_the_crash() {
    let (lp, [a, _, t]) = flow_lp();
    let cold = resolve_with_bounds(&lp, &BoundsOverlay::new(), None).unwrap();
    let overlay = with_crash(Basis::crash(&lp, [(0, a), (1, t)]));
    // Find a seed whose plan strikes exactly the first attempt: the crash
    // start fails, and the `Cold` rung re-solves from the all-artificial
    // phase 1 — the same pivots as the solve without a crash.
    let struck = (0..256u64)
        .map(|seed| {
            let ctx = SolveContext {
                chaos: Some(ChaosConfig::only(ChaosFault::SingularBasis, seed)),
                ..SolveContext::default()
            };
            lp.resolve_in(&ctx, &overlay, None, None).unwrap()
        })
        .find(|out| out.stats.rung == RecoveryRung::Cold)
        .expect("some seed strikes only the first attempt");
    assert_eq!(struck.stats.attempts, 2);
    assert_eq!(struck.stats.warm, WarmStatus::None);
    assert_eq!(struck.stats.phase1_pivots, cold.stats.phase1_pivots);
    assert_eq!(bits(&struck), bits(&cold));
}
