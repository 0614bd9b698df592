//! Property-based tests for the simplex solver: on random bounded LPs the
//! returned point must be feasible and at least as good as any sampled
//! feasible point.

use pm_lp::{LpError, LpProblem, Objective, Relation, VarId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random LP with box-bounded variables (so it is never unbounded
/// and always feasible: the origin satisfies all `<=` constraints with
/// non-negative rhs).
fn random_bounded_lp(
    num_vars: usize,
    num_cons: usize,
    seed: u64,
) -> (LpProblem, Vec<VarId>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| lp.add_var(&format!("x{i}")))
        .collect();
    let mut bounds = Vec::with_capacity(num_vars);
    for &v in &vars {
        lp.set_objective_coeff(v, rng.gen_range(-2.0..4.0));
        let ub = rng.gen_range(0.5..5.0);
        lp.add_constraint(vec![(v, 1.0)], Relation::Le, ub);
        bounds.push(ub);
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
        let rhs = rng.gen_range(0.5..6.0);
        lp.add_constraint(terms, Relation::Le, rhs);
    }
    (lp, vars, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solution_is_feasible_and_dominates_random_points(
        num_vars in 1usize..6,
        num_cons in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let (lp, _vars, bounds) = random_bounded_lp(num_vars, num_cons, seed);
        let sol = lp.solve().expect("bounded LP with feasible origin must solve");
        prop_assert!(lp.is_feasible(sol.values(), 1e-6));

        // The optimum must dominate a handful of random feasible points
        // obtained by rejection sampling inside the variable boxes.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let mut tried = 0;
        let mut accepted = 0;
        while tried < 2_000 && accepted < 20 {
            tried += 1;
            let candidate: Vec<f64> = bounds.iter().map(|&b| rng.gen_range(0.0..b)).collect();
            if lp.is_feasible(&candidate, 1e-9) {
                accepted += 1;
                let value = lp.objective_value_at(&candidate);
                prop_assert!(value <= sol.objective + 1e-6,
                    "sampled feasible point beats the 'optimum': {value} > {}", sol.objective);
            }
        }
    }

    #[test]
    fn scaling_the_objective_scales_the_optimum(
        num_vars in 1usize..5,
        seed in 0u64..1_000_000,
        scale in 1.0f64..10.0,
    ) {
        let (lp, vars, _) = random_bounded_lp(num_vars, 3, seed);
        let base = lp.solve().unwrap();
        let mut scaled = lp.clone();
        for &v in &vars {
            let c = scaled.objective_coeff(v);
            scaled.set_objective_coeff(v, c * scale);
        }
        let scaled_sol = scaled.solve().unwrap();
        prop_assert!((scaled_sol.objective - base.objective * scale).abs()
            <= 1e-6 * (1.0 + base.objective.abs() * scale));
    }
}

#[test]
fn infeasible_system_is_reported_infeasible() {
    let mut lp = LpProblem::new(Objective::Minimize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
    assert_eq!(lp.solve(), Err(LpError::Infeasible));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Degenerate pivots: duplicating constraints (verbatim and scaled) makes
    // the optimal vertex over-determined, which is exactly the situation
    // where a naive pivot rule can stall or cycle. The solver must still
    // terminate (Bland's rule) and must return the same optimum as the
    // clean formulation.
    #[test]
    fn degenerate_duplicated_constraints_keep_the_optimum(
        num_vars in 1usize..5,
        num_cons in 1usize..5,
        seed in 0u64..1_000_000,
        copies in 1usize..4,
    ) {
        let (lp, _vars, _bounds) = random_bounded_lp(num_vars, num_cons, seed);
        let base = lp.solve().expect("clean bounded LP must solve");

        let mut degen = lp.clone();
        for row in lp.rows() {
            for copy in 0..copies {
                // Verbatim duplicates plus positively scaled duplicates:
                // both describe the same halfspace, so the optimum must not
                // move, but each adds a redundant basis candidate.
                let scale = 1.0 + copy as f64;
                let terms: Vec<(VarId, f64)> = row.terms().map(|(v, c)| (v, c * scale)).collect();
                degen.add_constraint(terms, row.relation, row.rhs * scale);
            }
        }

        let sol = degen
            .solve()
            .expect("degenerate LP must still terminate under Bland's rule");
        prop_assert!(
            (sol.objective - base.objective).abs() <= 1e-6 * (1.0 + base.objective.abs()),
            "degenerate optimum {} drifted from clean optimum {}",
            sol.objective,
            base.objective
        );
        prop_assert!(degen.is_feasible(sol.values(), 1e-6));
        prop_assert!(lp.is_feasible(sol.values(), 1e-6));
    }

    // Unbounded detection: a maximized variable with a positive objective
    // coefficient and no upper-bounding constraint makes the LP unbounded
    // no matter what the bounded part looks like.
    #[test]
    fn unbounded_objective_is_detected(
        num_vars in 1usize..5,
        num_cons in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let (mut lp, _vars, _bounds) = random_bounded_lp(num_vars, num_cons, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
        let free = lp.add_var("free");
        lp.set_objective_coeff(free, rng.gen_range(0.5..3.0));
        if rng.gen_bool(0.5) {
            // A lower bound on the free variable must not fool the solver
            // into thinking the ray is blocked.
            lp.add_constraint(vec![(free, 1.0)], Relation::Ge, rng.gen_range(0.1..1.0));
        }
        prop_assert_eq!(lp.solve(), Err(LpError::Unbounded));
    }
}

/// Beale's classic cycling example: a naive most-negative-reduced-cost rule
/// cycles forever on this LP; Bland's fallback must terminate at the known
/// optimum of -0.05.
#[test]
fn beale_cycling_example_terminates_at_known_optimum() {
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
    let sol = lp.solve().expect("Beale's example must not cycle");
    assert!(
        (sol.objective - (-0.05)).abs() < 1e-9,
        "objective {} != -0.05",
        sol.objective
    );
    assert!((sol.value(x3) - 1.0).abs() < 1e-9);
}
