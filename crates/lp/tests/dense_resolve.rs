//! `LpProblem::resolve_with_bounds` runs on the selected engine, as
//! `LpProblem::solve` does: with the dense oracle selected it solves the
//! overlay-materialized problem cold. The engine selection is process-wide,
//! so this check has a test binary of its own.

use pm_lp::{
    set_default_solver, Basis, BoundsOverlay, LpProblem, Objective, RecoveryRung, Relation,
    SolverKind, WarmStatus,
};

#[test]
fn the_dense_engine_solves_overlay_resolves() {
    // maximize x + y  s.t.  x + y ≤ 3,  x ≤ 2; the overlay fixes y to zero.
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.set_objective_coeff(x, 1.0);
    lp.set_objective_coeff(y, 1.0);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
    let overlay = BoundsOverlay {
        fix_zero: vec![y],
        crash: Some(Basis::crash(&lp, [(1, x)])),
        ..BoundsOverlay::new()
    };

    let revised = lp.resolve_with_bounds(&overlay, None).unwrap();
    set_default_solver(SolverKind::Dense);
    let dense = lp.resolve_with_bounds(&overlay, Some(&revised.basis));
    set_default_solver(SolverKind::Revised);
    let dense = dense.unwrap();

    assert_eq!(dense.stats.rung, RecoveryRung::Dense);
    assert_eq!(dense.stats.attempts, 1);
    assert_eq!(
        dense.stats.warm,
        WarmStatus::Miss,
        "the dense oracle uses no hint"
    );
    // Only the revised engine reports duals.
    assert!(dense.solution.duals().is_empty());
    assert!(!revised.solution.duals().is_empty());
    assert!((dense.solution.objective - 2.0).abs() <= 1e-9);
    assert!((dense.solution.objective - revised.solution.objective).abs() <= 1e-9);
    assert_eq!(dense.solution.value(y), 0.0);
}
