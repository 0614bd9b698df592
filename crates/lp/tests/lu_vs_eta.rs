//! Differential tests between the two basis factorizations of the revised
//! engine: sparse LU with Forrest–Tomlin updates (plus devex pricing) versus
//! the product-form eta file (plus Dantzig pricing). The engines walk
//! different pivot paths, but optimal *objectives* are unique: any
//! disagreement beyond 1e-6 is a factorization or pricing bug, not an
//! alternate optimum. Warm-chained re-solves under bounds overlays are the
//! adversarial case — Forrest–Tomlin updates then run on a basis installed
//! by a warm start rather than built by the factorization's own pivot walk.

use pm_lp::revised::{Basis, BoundsOverlay};
use pm_lp::{
    BasisFactorization, BasisKind, CscMatrix, LpError, LpProblem, LpSolution, LuBasis, Objective,
    Relation, SolveContext, VarId,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-6;

/// The default context on the `basis` factorization.
fn on(basis: BasisKind) -> SolveContext {
    SolveContext {
        basis,
        ..SolveContext::default()
    }
}

fn assert_bases_agree(lp: &LpProblem) -> Result<(), TestCaseError> {
    let eta = lp.solve_in(&on(BasisKind::Eta));
    let lu = lp.solve_in(&on(BasisKind::Lu));
    match (&eta, &lu) {
        (Ok(e), Ok(l)) => {
            prop_assert!(
                (e.objective - l.objective).abs() <= TOL * (1.0 + e.objective.abs()),
                "objectives disagree: eta {} vs lu {}",
                e.objective,
                l.objective
            );
            prop_assert!(lp.is_feasible(e.values(), TOL), "eta point infeasible");
            prop_assert!(lp.is_feasible(l.values(), TOL), "lu point infeasible");
            check_duals(lp, e)?;
            check_duals(lp, l)?;
        }
        (Err(ee), Err(le)) => {
            prop_assert_eq!(ee, le);
        }
        _ => {
            prop_assert!(false, "status mismatch: eta {:?} vs lu {:?}", eta, lu);
        }
    }
    Ok(())
}

/// Duals are not unique on degenerate problems, so the differential check is
/// certificate-based per engine: strong duality against the exact RHS plus
/// dual feasibility, rather than eta-vs-lu equality.
fn check_duals(lp: &LpProblem, sol: &LpSolution) -> Result<(), TestCaseError> {
    let duals = sol.duals();
    prop_assert_eq!(duals.len(), lp.num_constraints());
    let dual_obj: f64 = duals
        .iter()
        .zip(lp.constraints())
        .map(|(y, c)| y * c.rhs)
        .sum();
    prop_assert!(
        (dual_obj - sol.objective).abs() <= TOL * (1.0 + sol.objective.abs()),
        "strong duality violated: dual objective {} vs primal {}",
        dual_obj,
        sol.objective
    );
    let maximize = matches!(lp.objective(), Objective::Maximize);
    for j in 0..lp.num_vars() {
        let var = VarId(j);
        if lp.is_fixed(var) {
            continue;
        }
        let mut rc = lp.objective_coeff(var);
        for (y, c) in duals.iter().zip(lp.constraints()) {
            for &(v, a) in &c.terms {
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

/// Same generator family as `diff_engines.rs`: box-bounded variables plus
/// general rows; feasibility not guaranteed on purpose.
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

/// One engine's walk down a warm chain: solve cold, then repeatedly re-solve
/// under random overlays (masked-style zero-fixes plus RHS overrides),
/// feeding each accepted basis forward as the next hint. Returns the status
/// or objective at every step.
fn warm_chain(
    lp: &LpProblem,
    overlays: &[BoundsOverlay],
    kind: BasisKind,
) -> Vec<Result<f64, LpError>> {
    let ctx = on(kind);
    let mut out = Vec::with_capacity(overlays.len() + 1);
    let mut hint: Option<Basis> = None;
    let base = BoundsOverlay::default();
    for overlay in std::iter::once(&base).chain(overlays) {
        match lp.resolve_in(&ctx, overlay, hint.as_ref(), None) {
            Ok(o) => {
                out.push(Ok(o.solution.objective));
                hint = Some(o.basis);
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

/// The constraint matrix of `lp` followed by one unit column per row: the
/// shape of a standard form, so every row has a basic candidate.
fn with_unit_columns(lp: &LpProblem) -> CscMatrix {
    let (m, n) = (lp.num_constraints(), lp.num_vars());
    let mut triplets = Vec::new();
    for (r, c) in lp.constraints().iter().enumerate() {
        for &(v, coeff) in &c.terms {
            triplets.push((r, v.index(), coeff));
        }
        triplets.push((r, n + r, 1.0));
    }
    CscMatrix::from_triplets(m, n + m, &triplets)
}

/// Random bases of `a` (`m` distinct columns each, singular ones
/// included), and in the middle of them, when `a` has a structural column
/// with two entries, a basis that is singular only at its last elimination
/// step: that column twice, beside the unit columns of every other row.
/// Returns the bases and the position of that last one.
fn random_bases(a: &CscMatrix, count: usize, seed: u64) -> (Vec<Vec<usize>>, Option<usize>) {
    let (m, n) = (a.rows(), a.cols());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_55ed);
    let mut bases: Vec<Vec<usize>> = (0..count)
        .map(|_| {
            let mut cols: Vec<usize> = (0..n).collect();
            for i in 0..m {
                let k = rng.gen_range(i..n);
                cols.swap(i, k);
            }
            cols.truncate(m);
            cols
        })
        .collect();
    let j = (0..n - m).find(|&j| a.col_nnz(j) >= 2);
    let singular_at = j.map(|j| {
        let (rows, _) = a.col(j);
        let (r0, r1) = (rows[0] as usize, rows[1] as usize);
        let mut twice = vec![j, j];
        twice.extend((0..m).filter(|&r| r != r0 && r != r1).map(|r| n - m + r));
        bases.insert(count / 2, twice);
        count / 2
    });
    (bases, singular_at)
}

/// Factorizes `basis` on `lu` and, when that succeeds, exchanges up to
/// three non-basic columns in. Returns the verdicts, the permuted basis and
/// the bits of every FTRAN, sparse FTRAN (with its pattern) and BTRAN.
fn lu_trace(lu: &mut LuBasis, a: &CscMatrix, basis: &[usize]) -> Vec<u64> {
    let m = a.rows();
    let mut basis = basis.to_vec();
    let ok = lu.refactorize(a, &mut basis);
    let mut trace = vec![ok as u64];
    trace.extend(basis.iter().map(|&j| j as u64));
    if !ok {
        return trace;
    }
    let solves = |lu: &LuBasis, trace: &mut Vec<u64>| {
        let mut x: Vec<f64> = (0..m).map(|r| 1.0 + r as f64 * 0.5).collect();
        lu.ftran(&mut x);
        let mut y: Vec<f64> = (0..m).map(|r| (r % 3) as f64 - 1.0).collect();
        lu.btran(&mut y);
        trace.extend(x.iter().chain(&y).map(|v| v.to_bits()));
    };
    solves(lu, &mut trace);
    let mut stamp = vec![0u32; m];
    let entering: Vec<usize> = (0..a.cols())
        .filter(|j| !basis.contains(j))
        .take(3)
        .collect();
    for (epoch, q) in (1u32..).zip(entering) {
        let mut work = vec![0.0; m];
        let mut touched: Vec<u32> = Vec::new();
        let (rows, vals) = a.col(q);
        for (&r, &v) in rows.iter().zip(vals) {
            stamp[r as usize] = epoch;
            touched.push(r);
            work[r as usize] = v;
        }
        lu.ftran_sparse(&mut work, &mut touched, &mut stamp, epoch);
        trace.extend(touched.iter().map(|&i| i as u64));
        trace.extend(work.iter().map(|v| v.to_bits()));
        let Some(row) = (0..m)
            .filter(|&r| work[r].abs() > 1e-6)
            .max_by(|&x, &y| work[x].abs().total_cmp(&work[y].abs()))
        else {
            continue;
        };
        let updated = lu.update(row, &work, &touched);
        trace.push(updated as u64);
        if !updated {
            break;
        }
        basis[row] = q;
        solves(lu, &mut trace);
    }
    trace
}

/// Case count: 96 by default (CI-friendly), `PM_LP_DIFF_CASES` to crank it
/// up for soak runs.
fn cases() -> u32 {
    std::env::var("PM_LP_DIFF_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

/// With a lexicographic secondary objective the engines must agree not just
/// on the objective but on the *point*: the secondary makes the optimal
/// vertex unique, so eta/Dantzig and LU/devex land on the same values no
/// matter how differently they walk there.
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
    let eta = lp.solve_in(&on(BasisKind::Eta)).unwrap();
    let lu = lp.solve_in(&on(BasisKind::Lu)).unwrap();
    assert!((eta.objective - 2.0).abs() < TOL);
    assert!((lu.objective - 2.0).abs() < TOL);
    for (a, b) in eta.values().iter().zip(lu.values()) {
        assert!(
            (a - b).abs() < TOL,
            "vertices differ: {:?} vs {:?}",
            eta.values(),
            lu.values()
        );
    }
    assert!((eta.value(x)).abs() < TOL);
    assert!((eta.value(y) - 1.0).abs() < TOL);
    assert!((eta.value(z) - 1.0).abs() < TOL);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn bases_agree_on_random_lps(
        num_vars in 1usize..7,
        num_cons in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        assert_bases_agree(&lp)?;
    }

    // Degenerate duplicated rows: the over-determined optimal vertex is
    // where factorization bugs hide — many tied ratio tests, tiny pivots,
    // frequent refactorizations.
    #[test]
    fn bases_agree_on_degenerate_duplicated_lps(
        num_vars in 1usize..5,
        num_cons in 1usize..5,
        seed in 0u64..1_000_000,
        copies in 1usize..4,
    ) {
        let base = random_lp(num_vars, num_cons, seed);
        let mut degen = base.clone();
        for constraint in base.constraints().to_vec() {
            for copy in 0..copies {
                let scale = 1.0 + copy as f64;
                let terms: Vec<(VarId, f64)> = constraint
                    .terms
                    .iter()
                    .map(|&(v, c)| (v, c * scale))
                    .collect();
                degen.add_constraint(terms, constraint.relation, constraint.rhs * scale);
            }
        }
        assert_bases_agree(&degen)?;
    }

    // Warm-chained overlay re-solves: each step warm-starts from the
    // previous basis, so the LU engine's Forrest–Tomlin updates run on
    // installed (not self-built) bases. Statuses and objectives must agree
    // with the eta chain at every step.
    #[test]
    fn bases_agree_along_warm_chains(
        num_vars in 2usize..7,
        num_cons in 1usize..8,
        chain in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        let overlays = random_overlays(&lp, chain, seed);
        let eta = warm_chain(&lp, &overlays, BasisKind::Eta);
        let lu = warm_chain(&lp, &overlays, BasisKind::Lu);
        prop_assert_eq!(eta.len(), lu.len());
        for (step, (e, l)) in eta.iter().zip(&lu).enumerate() {
            match (e, l) {
                (Ok(eo), Ok(lo)) => prop_assert!(
                    (eo - lo).abs() <= TOL * (1.0 + eo.abs()),
                    "step {}: objectives disagree: eta {} vs lu {}",
                    step, eo, lo
                ),
                (Err(ee), Err(le)) => {
                    prop_assert!(ee == le, "step {}: eta {:?} vs lu {:?}", step, ee, le)
                }
                _ => prop_assert!(
                    false,
                    "step {}: status mismatch: eta {:?} vs lu {:?}",
                    step, e, l
                ),
            }
        }
    }

    // One LuBasis reused for a sequence of factorizations — some singular,
    // one failing at its last elimination step — must behave bit for bit
    // like a fresh LuBasis per basis: reuse keeps buffers, never state.
    #[test]
    fn reused_lu_matches_a_fresh_lu_per_basis(
        num_vars in 1usize..7,
        num_cons in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        let a = with_unit_columns(&lp);
        let (bases, singular_at) = random_bases(&a, 6, seed);
        let mut reused = LuBasis::new();
        for (k, basis) in bases.iter().enumerate() {
            let fresh = lu_trace(&mut LuBasis::new(), &a, basis);
            if Some(k) == singular_at {
                prop_assert!(fresh[0] == 0, "the duplicated column must be singular");
            }
            let again = lu_trace(&mut reused, &a, basis);
            prop_assert!(fresh == again, "basis {} ({:?}): reused LU diverged", k, basis);
        }
    }
}
