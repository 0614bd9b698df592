//! Differential tests: the sparse revised simplex and the dense tableau
//! simplex must agree on status and objective for every random LP, including
//! the degenerate generators and Beale's cycling example that exercised the
//! early anti-degeneracy work. The dense engine is the oracle; any
//! disagreement beyond 1e-6 is an engine bug, not an alternate optimum
//! (optimal *objectives* are unique even when optimal vertices are not).
//! Overlay re-solves run on the engine their context selects, too, and a
//! warm-chained revised re-solve — its LU updates running on a basis
//! installed by a warm start rather than built by its own pivot walk —
//! must agree with a fresh dense solve at every step. Chains whose hints
//! violate the new overlay's bounds run the dual pass, and under a
//! secondary objective they must land on the cold solve's point.

use pm_lp::{
    Basis, BoundsOverlay, LpError, LpProblem, Objective, RecoveryRung, Relation, SolveContext,
    SolverKind, VarId, WarmStatus,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-6;

/// The default context on `engine`.
fn on(engine: SolverKind) -> SolveContext {
    SolveContext {
        engine,
        ..SolveContext::default()
    }
}

/// Both engines on one problem: statuses must match, objectives must agree
/// within `TOL`, and each returned point must be feasible for the model.
fn assert_engines_agree(lp: &LpProblem) -> Result<(), TestCaseError> {
    let dense = lp.solve_in(&on(SolverKind::Dense));
    let revised = lp.solve_in(&on(SolverKind::Revised));
    match (&dense, &revised) {
        (Ok(d), Ok(r)) => {
            prop_assert!(
                (d.objective - r.objective).abs() <= TOL * (1.0 + d.objective.abs()),
                "objectives disagree: dense {} vs revised {}",
                d.objective,
                r.objective
            );
            prop_assert!(lp.is_feasible(d.values(), TOL), "dense point infeasible");
            prop_assert!(lp.is_feasible(r.values(), TOL), "revised point infeasible");
        }
        (Err(de), Err(re)) => {
            prop_assert_eq!(de, re);
        }
        _ => {
            prop_assert!(
                false,
                "status mismatch: dense {:?} vs revised {:?}",
                dense,
                revised
            );
        }
    }
    Ok(())
}

/// A random LP over box-bounded variables plus general `Le`/`Ge`/`Eq` rows.
/// The box keeps it bounded; feasibility is not guaranteed, which is the
/// point — infeasible instances must be flagged identically by both engines.
fn random_lp(num_vars: usize, num_cons: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(if rng.gen_bool(0.5) {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| lp.add_var(&format!("x{i}")))
        .collect();
    for &v in &vars {
        lp.set_objective_coeff(v, rng.gen_range(-3.0..3.0));
        lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..5.0));
    }
    for _ in 0..num_cons {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.6) {
                terms.push((v, rng.gen_range(-2.0..2.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let relation = match rng.gen_range(0..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let rhs = rng.gen_range(-2.0..4.0);
        lp.add_constraint(terms, relation, rhs);
    }
    lp
}

/// The degenerate generator: every row of `base` followed by `copies`
/// positively scaled duplicates (scale 1, 2, …), which makes the optimal
/// vertex over-determined — exactly where pivot paths diverge most between
/// engines, while the optimum must not move.
fn duplicated_lp(base: &LpProblem, copies: usize) -> LpProblem {
    let mut degen = base.clone();
    for row in base.rows() {
        for copy in 0..copies {
            let scale = 1.0 + copy as f64;
            let terms: Vec<(VarId, f64)> = row.terms().map(|(v, c)| (v, c * scale)).collect();
            degen.add_constraint(terms, row.relation, row.rhs * scale);
        }
    }
    degen
}

/// The revised engine's duals must certify the dense oracle's primal
/// objective (strong duality against the *exact* right-hand sides — the
/// shadow-RHS perturbation must never leak into the prices) and must be
/// dual feasible (no structural column prices as improving). Duals are not
/// unique on degenerate problems, so this checks the certificate, not the
/// values.
fn assert_duals_certify(lp: &LpProblem) -> Result<(), TestCaseError> {
    let (Ok(dense), Ok(revised)) = (
        lp.solve_in(&on(SolverKind::Dense)),
        lp.solve_in(&on(SolverKind::Revised)),
    ) else {
        return Ok(()); // infeasible/unbounded: no duals to check
    };
    let duals = revised.duals();
    prop_assert_eq!(duals.len(), lp.num_constraints());
    // Strong duality: Σ y_i b_i = optimal objective.
    let dual_obj: f64 = duals
        .iter()
        .zip(lp.rows())
        .map(|(y, row)| y * row.rhs)
        .sum();
    prop_assert!(
        (dual_obj - dense.objective).abs() <= TOL * (1.0 + dense.objective.abs()),
        "strong duality violated: dual objective {} vs dense primal {}",
        dual_obj,
        dense.objective
    );
    // Dual feasibility: reduced costs have the optimal sign in the
    // problem's own sense.
    let maximize = matches!(lp.objective(), Objective::Maximize);
    for j in 0..lp.num_vars() {
        let var = VarId(j);
        let mut rc = lp.objective_coeff(var);
        for (y, row) in duals.iter().zip(lp.rows()) {
            for (v, a) in row.terms() {
                if v == var {
                    rc -= y * a;
                }
            }
        }
        if maximize {
            prop_assert!(rc <= TOL, "column {} prices as improving: rc {}", j, rc);
        } else {
            prop_assert!(rc >= -TOL, "column {} prices as improving: rc {}", j, rc);
        }
    }
    Ok(())
}

/// Each step's status or objective along a warm chain: a cold solve, then
/// one re-solve per overlay. On the revised engine each accepted basis is
/// fed forward as the next step's hint; the dense oracle solves every
/// step afresh.
fn warm_chain(
    lp: &LpProblem,
    overlays: &[BoundsOverlay],
    engine: SolverKind,
) -> Vec<Result<f64, LpError>> {
    let ctx = on(engine);
    let mut out = Vec::with_capacity(overlays.len() + 1);
    let mut hint: Option<Basis> = None;
    let base = BoundsOverlay::default();
    for overlay in std::iter::once(&base).chain(overlays) {
        match lp.resolve_in(&ctx, overlay, hint.as_ref(), None) {
            Ok(o) => {
                out.push(Ok(o.solution.objective));
                if engine == SolverKind::Revised {
                    hint = Some(o.basis);
                }
            }
            Err(e) => out.push(Err(e)),
        }
    }
    out
}

fn random_overlays(lp: &LpProblem, chain: usize, seed: u64) -> Vec<BoundsOverlay> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00ff_1ce0_f00d);
    let n = lp.num_vars();
    let m = lp.num_constraints();
    (0..chain)
        .map(|_| {
            let mut overlay = BoundsOverlay::default();
            for j in 0..n {
                if rng.gen_bool(0.2) {
                    overlay.fix_zero.push(VarId(j));
                }
            }
            for r in 0..m {
                if rng.gen_bool(0.25) {
                    overlay.rhs.push((r, rng.gen_range(-1.0..4.0)));
                }
            }
            overlay
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_on_random_lps(
        num_vars in 1usize..7,
        num_cons in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        assert_engines_agree(&lp)?;
    }

    // The degenerate generator (see `duplicated_lp`).
    #[test]
    fn engines_agree_on_degenerate_duplicated_lps(
        num_vars in 1usize..5,
        num_cons in 1usize..5,
        seed in 0u64..1_000_000,
        copies in 1usize..4,
    ) {
        let base = random_lp(num_vars, num_cons, seed);
        assert_engines_agree(&duplicated_lp(&base, copies))?;
    }

    // Dual differential test (see `assert_duals_certify`), on the plain
    // generator and on its degenerate duplicate.
    #[test]
    fn revised_duals_certify_the_dense_objective(
        num_vars in 1usize..7,
        num_cons in 0usize..8,
        seed in 0u64..1_000_000,
        copies in 1usize..4,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        assert_duals_certify(&lp)?;
        assert_duals_certify(&duplicated_lp(&lp, copies))?;
    }

    // Warm-chained overlay re-solves: each revised step warm-starts from
    // the previous basis, so the LU engine's Forrest–Tomlin updates run on
    // installed (not self-built) bases. Statuses and objectives must agree
    // with a fresh dense solve of every step.
    #[test]
    fn warm_chains_agree_with_the_dense_oracle(
        num_vars in 2usize..7,
        num_cons in 1usize..8,
        chain in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        let overlays = random_overlays(&lp, chain, seed);
        let dense = warm_chain(&lp, &overlays, SolverKind::Dense);
        let revised = warm_chain(&lp, &overlays, SolverKind::Revised);
        prop_assert_eq!(dense.len(), revised.len());
        for (step, (d, r)) in dense.iter().zip(&revised).enumerate() {
            match (d, r) {
                (Ok(dobj), Ok(robj)) => prop_assert!(
                    (dobj - robj).abs() <= TOL * (1.0 + dobj.abs()),
                    "step {}: objectives disagree: dense {} vs revised {}",
                    step, dobj, robj
                ),
                (Err(de), Err(re)) => {
                    prop_assert!(de == re, "step {}: dense {:?} vs revised {:?}", step, de, re)
                }
                _ => prop_assert!(
                    false,
                    "step {}: status mismatch: dense {:?} vs revised {:?}",
                    step, d, r
                ),
            }
        }
    }

    // Unboundedness must be detected identically: a free variable with a
    // favourable objective coefficient and no upper bound.
    #[test]
    fn engines_agree_on_unbounded_lps(
        num_vars in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<VarId> = (0..num_vars)
            .map(|i| lp.add_var(&format!("x{i}")))
            .collect();
        for &v in &vars {
            lp.set_objective_coeff(v, rng.gen_range(-1.0..1.0));
            lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..3.0));
        }
        let free = lp.add_var("free");
        lp.set_objective_coeff(free, rng.gen_range(0.5..3.0));
        prop_assert_eq!(lp.solve_in(&on(SolverKind::Dense)), Err(LpError::Unbounded));
        prop_assert_eq!(lp.solve_in(&on(SolverKind::Revised)), Err(LpError::Unbounded));
    }
}

/// A random LP (see [`random_lp`]) with a positive secondary objective:
/// with random continuous coefficients its lexicographic optimum, and so
/// its optimal point, is unique.
fn random_lex_lp(num_vars: usize, num_cons: usize, seed: u64) -> LpProblem {
    let mut lp = random_lp(num_vars, num_cons, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ec0_0da7);
    for j in 0..num_vars {
        lp.set_secondary_coeff(VarId(j), rng.gen_range(0.5..2.0));
    }
    lp
}

/// Warm chains through the dual pass. Each step's overlay fixes some of
/// the columns the previous step's optimum holds positive, so they sit
/// basic above zero in the hint, and releases the columns the previous
/// step fixed, which may price negative against it. Every step must match
/// the dense oracle's status and objective, and a cold revised solve of
/// the same overlay in every value: the pass and phases 2 and 3 end on the
/// same lexicographic optimum as a cold solve.
#[test]
fn warm_chains_through_the_dual_pass_match_cold_solves() {
    let revised = on(SolverKind::Revised);
    let dense = on(SolverKind::Dense);
    let (mut steps, mut passes) = (0usize, 0usize);
    for seed in 0..200u64 {
        let lp = random_lex_lp(2 + seed as usize % 5, 1 + seed as usize % 7, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00c4_a12b);
        let Ok(mut previous) = lp.resolve_in(&revised, &BoundsOverlay::new(), None, None) else {
            continue;
        };
        for step in 0..4 {
            let positive: Vec<VarId> = (0..lp.num_vars())
                .map(VarId)
                .filter(|&v| previous.solution.value(v) > TOL)
                .collect();
            let Some(&always) = positive.get(rng.gen_range(0..positive.len().max(1))) else {
                break;
            };
            let mut overlay = BoundsOverlay::new();
            overlay.fix_zero = positive
                .iter()
                .copied()
                .filter(|&v| v == always || rng.gen_bool(0.3))
                .collect();
            let warm = lp.resolve_in(&revised, &overlay, Some(&previous.basis), None);
            let cold = lp.resolve_in(&revised, &overlay, None, None);
            let oracle = lp.resolve_in(&dense, &overlay, None, None);
            let label = format!("seed {seed} step {step}");
            match (&warm, &cold, &oracle) {
                (Ok(w), Ok(c), Ok(d)) => {
                    let (wo, dobj) = (w.solution.objective, d.solution.objective);
                    assert!(
                        (wo - dobj).abs() <= TOL * (1.0 + dobj.abs()),
                        "{label}: warm {wo} vs dense {dobj}"
                    );
                    for (a, b) in w.solution.values().iter().zip(c.solution.values()) {
                        assert!((a - b).abs() <= 1e-9, "{label}: warm {a} vs cold {b}");
                    }
                    steps += 1;
                    passes += (w.stats.dual_pivots > 0) as usize;
                }
                (Err(we), Err(ce), Err(de)) => {
                    assert!(we == ce && ce == de, "{label}: {we:?} / {ce:?} / {de:?}");
                }
                _ => panic!("{label}: status mismatch: {warm:?} / {cold:?} / {oracle:?}"),
            }
            match warm {
                Ok(w) => previous = w,
                Err(_) => break,
            }
        }
    }
    assert!(
        passes >= 50,
        "{passes} of {steps} solved steps ran the dual pass"
    );
}

/// Textbook duals: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 has the
/// unique optimal duals (0, 3/2, 1) — and a warm-started re-solve must
/// report the same prices.
#[test]
fn revised_duals_match_the_textbook_values() {
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.set_objective_coeff(x, 3.0);
    lp.set_objective_coeff(y, 5.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
    lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
    lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
    let cold = pm_lp::revised::solve_with_hint(&lp, None).unwrap();
    let warm = pm_lp::revised::solve_with_hint(&lp, Some(&cold.basis)).unwrap();
    for sol in [&cold.solution, &warm.solution] {
        let duals = sol.duals();
        assert!((duals[0] - 0.0).abs() < 1e-9, "dual 0: {}", duals[0]);
        assert!((duals[1] - 1.5).abs() < 1e-9, "dual 1: {}", duals[1]);
        assert!((duals[2] - 1.0).abs() < 1e-9, "dual 2: {}", duals[2]);
    }
    // The dense oracle reports no duals — the revised engine is the dual
    // source of the workspace.
    assert!(lp
        .solve_in(&on(SolverKind::Dense))
        .unwrap()
        .duals()
        .is_empty());
}

/// Beale's classic cycling LP: both engines must terminate at the known
/// optimum of −0.05.
#[test]
fn engines_agree_on_beales_example() {
    let mut lp = LpProblem::new(Objective::Minimize);
    let x1 = lp.add_var("x1");
    let x2 = lp.add_var("x2");
    let x3 = lp.add_var("x3");
    let x4 = lp.add_var("x4");
    lp.set_objective_coeff(x1, -0.75);
    lp.set_objective_coeff(x2, 150.0);
    lp.set_objective_coeff(x3, -0.02);
    lp.set_objective_coeff(x4, 6.0);
    lp.add_constraint(
        vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::Le,
        0.0,
    );
    lp.add_constraint(
        vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::Le,
        0.0,
    );
    lp.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
    for solver in [SolverKind::Dense, SolverKind::Revised] {
        let sol = lp
            .solve_in(&on(solver))
            .expect("Beale's example must solve");
        assert!(
            (sol.objective - (-0.05)).abs() < 1e-9,
            "{solver:?}: objective {} != -0.05",
            sol.objective
        );
    }
}

/// A structured flow-shaped instance (transportation LP): the kind of
/// network matrix the multicast formulations produce.
#[test]
fn engines_agree_on_a_transportation_lp() {
    let supply = [20.0, 30.0, 25.0];
    let demand = [10.0, 25.0, 20.0, 20.0];
    let cost = [
        [2.0, 3.0, 1.0, 4.0],
        [5.0, 1.0, 3.0, 2.0],
        [2.0, 2.0, 2.0, 6.0],
    ];
    let mut lp = LpProblem::new(Objective::Minimize);
    let mut vars = vec![];
    for (i, cost_row) in cost.iter().enumerate() {
        let mut row = vec![];
        for (j, &c) in cost_row.iter().enumerate() {
            let v = lp.add_var(&format!("x{i}{j}"));
            lp.set_objective_coeff(v, c);
            row.push(v);
        }
        vars.push(row);
    }
    for (i, &s) in supply.iter().enumerate() {
        let terms = (0..4).map(|j| (vars[i][j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Le, s);
    }
    for (j, &d) in demand.iter().enumerate() {
        let terms = (0..3).map(|i| (vars[i][j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Eq, d);
    }
    let dense = lp.solve_in(&on(SolverKind::Dense)).unwrap();
    let revised = lp.solve_in(&on(SolverKind::Revised)).unwrap();
    assert!((dense.objective - 120.0).abs() < 1e-6);
    assert!((revised.objective - 120.0).abs() < 1e-6);
}

/// With a lexicographic secondary objective the engines must agree not just
/// on the objective but on the *point*: the secondary makes the optimal
/// vertex unique, so the revised engine and the dense tableau land on the
/// same values no matter how differently they walk there.
#[test]
fn secondary_objective_makes_the_vertex_engine_independent() {
    // max x + y + z over x + y + z <= 2, x <= 1, z <= 1: the whole simplex
    // face x + y + z = 2 is optimal. On it the secondary 3x + 2y + z equals
    // 4 + x − z, minimized at x = 0, z = 1 → the unique canonical vertex
    // (0, 1, 1).
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    let z = lp.add_var("z");
    for v in [x, y, z] {
        lp.set_objective_coeff(v, 1.0);
    }
    lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Le, 2.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
    lp.add_constraint(vec![(z, 1.0)], Relation::Le, 1.0);
    lp.set_secondary_coeff(x, 3.0);
    lp.set_secondary_coeff(y, 2.0);
    lp.set_secondary_coeff(z, 1.0);
    let dense = lp.solve_in(&on(SolverKind::Dense)).unwrap();
    let revised = lp.solve_in(&on(SolverKind::Revised)).unwrap();
    assert!((dense.objective - 2.0).abs() < TOL);
    assert!((revised.objective - 2.0).abs() < TOL);
    for (a, b) in dense.values().iter().zip(revised.values()) {
        assert!(
            (a - b).abs() < TOL,
            "vertices differ: {:?} vs {:?}",
            dense.values(),
            revised.values()
        );
    }
    assert!((dense.value(x)).abs() < TOL);
    assert!((dense.value(y) - 1.0).abs() < TOL);
    assert!((dense.value(z) - 1.0).abs() < TOL);
}

/// `LpProblem::resolve_in` runs on the context's engine, as
/// `LpProblem::solve_in` does: with the dense oracle selected it solves the
/// overlay-materialized problem cold.
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
    let dense = lp
        .resolve_in(&on(SolverKind::Dense), &overlay, Some(&revised.basis), None)
        .unwrap();

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
