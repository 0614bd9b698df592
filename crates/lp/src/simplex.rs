//! Dense two-phase primal simplex on the full tableau.
//!
//! The implementation follows the textbook method:
//!
//! 1. constraints are normalised to `a·x (≤|≥|=) b` with `b ≥ 0`, slack and
//!    surplus variables are added, and artificial variables complete the
//!    initial basis;
//! 2. phase 1 minimizes the sum of artificials — a strictly positive optimum
//!    means the program is infeasible;
//! 3. phase 2 optimizes the user's objective starting from the feasible basis
//!    produced by phase 1.
//!
//! Pivoting uses Dantzig's rule (most negative reduced cost) with a switch to
//! Bland's rule after a large number of iterations to guarantee termination
//! on degenerate problems.

use crate::problem::{LpError, LpProblem, LpSolution, Objective, Relation};
use crate::solver::{effective_relation, perturb_rhs, phase1_budget, phase2_budget, splitmix64};

/// Numerical tolerance used throughout the solver.
const EPS: f64 = 1e-9;

/// After this many consecutive pivots without objective progress the solver
/// switches from Dantzig's rule to Bland's rule; it switches back as soon as
/// the objective moves again. Degenerate vertices are escaped in a handful
/// of Bland pivots, while the fast Dantzig rule drives all non-degenerate
/// progress — a fixed one-way switch (the previous behaviour) let Dantzig
/// stall for tens of thousands of pivots on the multicast LPs and then
/// crawled through the whole remaining solve under Bland.
const STALL_SWITCH: usize = 64;

/// A dense simplex tableau.
struct Tableau {
    /// Row-major coefficient matrix (m rows × n cols).
    a: Vec<f64>,
    /// Right-hand sides (length m), kept non-negative. Carries the
    /// anti-degeneracy perturbation (see `solve`), so it drives the ratio
    /// tests but is never reported.
    b: Vec<f64>,
    /// Unperturbed right-hand sides, updated by the same row operations as
    /// `b`; the final solution values are read from here.
    b_shadow: Vec<f64>,
    /// Objective row (reduced costs, length n) for the phase being solved.
    obj: Vec<f64>,
    /// Current objective value (negated running constant).
    obj_value: f64,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    m: usize,
    n: usize,
    /// SplitMix64 state for the randomized ratio-test tie-break; seeded
    /// deterministically from the problem dimensions so identical problems
    /// follow identical pivot paths (bit-reproducible solves).
    rng: u64,
    /// Pivots performed by the last `optimize` call (`PM_LP_STATS=1`
    /// diagnostics).
    iters: usize,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] = v;
    }

    /// Performs a pivot on `(row, col)`: the variable `col` enters the basis
    /// and the variable previously basic in `row` leaves.
    fn pivot(&mut self, row: usize, col: usize) {
        let n = self.n;
        let pivot = self.at(row, col);
        debug_assert!(pivot.abs() > EPS, "pivot element too small");
        let inv = 1.0 / pivot;
        // Normalize the pivot row.
        {
            let start = row * n;
            for j in 0..n {
                self.a[start + j] *= inv;
            }
            self.b[row] *= inv;
            self.b_shadow[row] *= inv;
        }
        // Eliminate the pivot column from every other row.
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor.abs() <= EPS {
                if factor != 0.0 {
                    self.set(r, col, 0.0);
                }
                continue;
            }
            let (pr_start, rr_start) = (row * n, r * n);
            for j in 0..n {
                self.a[rr_start + j] -= factor * self.a[pr_start + j];
            }
            self.b[r] -= factor * self.b[row];
            if self.b[r].abs() < EPS {
                self.b[r] = 0.0;
            }
            self.b_shadow[r] -= factor * self.b_shadow[row];
            self.set(r, col, 0.0);
        }
        // Update the objective row.
        let factor = self.obj[col];
        if factor.abs() > 0.0 {
            let pr_start = row * n;
            for j in 0..n {
                self.obj[j] -= factor * self.a[pr_start + j];
            }
            self.obj_value -= factor * self.b[row];
            self.obj[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Next word of the deterministic tie-break stream.
    fn next_rand(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Runs the simplex iterations on the current objective row
    /// (minimization: stop when every reduced cost is ≥ -EPS).
    fn optimize(&mut self, allowed: &dyn Fn(usize) -> bool, budget: usize) -> Result<(), LpError> {
        let mut stalled = 0usize;
        let mut last_obj = self.obj_value;
        self.iters = 0;
        for iter in 0..budget {
            let use_bland = stalled >= STALL_SWITCH;
            // Choose the entering column.
            let mut entering: Option<usize> = None;
            let mut best = -EPS;
            for j in 0..self.n {
                if !allowed(j) {
                    continue;
                }
                let rc = self.obj[j];
                if use_bland {
                    if rc < -EPS {
                        entering = Some(j);
                        break;
                    }
                } else if rc < best {
                    best = rc;
                    entering = Some(j);
                }
            }
            let Some(col) = entering else {
                return Ok(()); // optimal
            };
            // Ratio test for the leaving row. Ties (the degenerate case) are
            // broken by the smallest basis index under Bland's rule (required
            // for its termination guarantee) and uniformly at random
            // otherwise, via reservoir sampling over the tied rows. The
            // multicast LPs are massively degenerate (hundreds of rows tie
            // at ratio zero), and every deterministic tie-break rule we
            // tried (smallest basis index, largest pivot element, float
            // lexicographic) stalled for minutes on some generated instance;
            // random tie-breaking makes such adversarial patterns
            // measure-zero while the seeded generator keeps every solve
            // bit-reproducible. Bland's fallback still guarantees
            // termination if a stall does happen.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut ties = 0usize;
            for r in 0..self.m {
                let a = self.at(r, col);
                if a > EPS {
                    let ratio = self.b[r] / a;
                    match leaving {
                        None => {
                            leaving = Some(r);
                            best_ratio = ratio;
                            ties = 1;
                        }
                        Some(lr) => {
                            if ratio < best_ratio - EPS {
                                leaving = Some(r);
                                best_ratio = ratio;
                                ties = 1;
                            } else if (ratio - best_ratio).abs() <= EPS {
                                if use_bland {
                                    if self.basis[r] < self.basis[lr] {
                                        leaving = Some(r);
                                        best_ratio = ratio;
                                    }
                                } else {
                                    // Reservoir sampling: the k-th tied row
                                    // replaces the incumbent with prob. 1/k.
                                    ties += 1;
                                    if self.next_rand().is_multiple_of(ties as u64) {
                                        leaving = Some(r);
                                        best_ratio = ratio;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let Some(row) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
            self.iters = iter + 1;
            // Anti-stalling bookkeeping: count consecutive degenerate pivots.
            // `obj_value` is the running *negated* objective constant (see
            // `pivot`), so a productive minimization pivot makes it grow.
            if self.obj_value - last_obj > EPS * (1.0 + last_obj.abs()) {
                stalled = 0;
                last_obj = self.obj_value;
            } else {
                stalled += 1;
            }
        }
        Err(LpError::IterationLimit)
    }
}

/// Solves an [`LpProblem`] and returns the optimal solution. Of the
/// context only `stats` applies: one stderr line per solve.
pub fn solve(ctx: &crate::SolveContext, problem: &LpProblem) -> Result<LpSolution, LpError> {
    let num_user_vars = problem.num_vars();
    let m = problem.num_constraints();

    // Count slack/surplus and artificial variables.
    let mut num_slack = 0usize;
    let mut num_artificial = 0usize;
    for row in problem.rows() {
        // Normalise to b >= 0 first to decide what the row needs.
        let flip = row.rhs < 0.0;
        let relation = effective_relation(row.relation, flip);
        match relation {
            Relation::Le => num_slack += 1,
            Relation::Ge => {
                num_slack += 1;
                num_artificial += 1;
            }
            Relation::Eq => num_artificial += 1,
        }
    }

    let n = num_user_vars + num_slack + num_artificial;
    let mut a = vec![0.0; m * n];
    let mut b = vec![0.0; m];
    let mut basis = vec![usize::MAX; m];
    let artificial_start = num_user_vars + num_slack;
    // Effective (normalised) relation of each row, for the anti-degeneracy
    // perturbation below.
    let mut row_relation = vec![Relation::Eq; m];

    let mut slack_idx = num_user_vars;
    let mut art_idx = artificial_start;
    for (r, row) in problem.rows().enumerate() {
        let flip = row.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        for (v, coeff) in row.terms() {
            a[r * n + v.index()] += sign * coeff;
        }
        b[r] = sign * row.rhs;
        row_relation[r] = effective_relation(row.relation, flip);
        match row_relation[r] {
            Relation::Le => {
                a[r * n + slack_idx] = 1.0;
                basis[r] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                a[r * n + slack_idx] = -1.0; // surplus
                slack_idx += 1;
                a[r * n + art_idx] = 1.0;
                basis[r] = art_idx;
                art_idx += 1;
            }
            Relation::Eq => {
                a[r * n + art_idx] = 1.0;
                basis[r] = art_idx;
                art_idx += 1;
            }
        }
    }

    // Anti-degeneracy RHS perturbation (see `solver::perturb_rhs` for the
    // scheme shared with the revised engine); the solution values are read
    // from `b_shadow`, which carries the *unperturbed* RHS through the same
    // row operations (so they solve `B x_B = b_orig` exactly, up to the
    // usual floating-point error).
    let b_shadow = b.clone();
    perturb_rhs(&mut b, &row_relation, n);

    let mut tableau = Tableau {
        a,
        b,
        b_shadow,
        obj: vec![0.0; n],
        obj_value: 0.0,
        basis,
        m,
        n,
        rng: 0x9e37_79b9_7f4a_7c15 ^ ((m as u64) << 32) ^ n as u64,
        iters: 0,
    };
    let stats = ctx.stats;
    let nnz: usize =
        problem.rows().map(|row| row.len()).sum::<usize>() + num_slack + num_artificial;
    let solve_start = std::time::Instant::now();
    let mut phase1_iters = 0usize;

    // ---- Phase 1: minimize the sum of artificial variables. ----
    if num_artificial > 0 {
        for j in artificial_start..n {
            tableau.obj[j] = 1.0;
        }
        // Make the objective row consistent with the starting basis (price
        // out the basic artificial variables).
        for r in 0..m {
            if tableau.basis[r] >= artificial_start {
                for j in 0..n {
                    tableau.obj[j] -= tableau.at(r, j);
                }
                tableau.obj_value -= tableau.b[r];
            }
        }
        // Fixed-to-zero user columns may never enter (they start nonbasic at
        // zero and stay there; see `LpProblem::fix_var`).
        let phase1_allowed =
            |j: usize| j >= num_user_vars || !problem.is_fixed(crate::problem::VarId(j));
        let phase1 = tableau.optimize(&phase1_allowed, phase1_budget(m, n));
        phase1_iters = tableau.iters;
        let phase1_value = -tableau.obj_value;
        let phase1_failed = phase1.is_err() || phase1_value > 1e-6;
        if stats && phase1_failed {
            eprintln!(
                "pm-lp: engine=dense m={m} n={n} nnz={nnz} phase1_pivots={phase1_iters} \
                 phase2_pivots=0 refactorizations=0 warm=none elapsed={:.3}s status={}",
                solve_start.elapsed().as_secs_f64(),
                if phase1.is_err() {
                    "phase1-error"
                } else {
                    "infeasible"
                },
            );
        }
        phase1?;
        if phase1_value > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variable still in the basis out of it (or note
        // the row as redundant if it cannot pivot on a structural column).
        for r in 0..m {
            if tableau.basis[r] >= artificial_start {
                let mut pivot_col = None;
                for j in 0..artificial_start {
                    if j < num_user_vars && problem.is_fixed(crate::problem::VarId(j)) {
                        continue;
                    }
                    if tableau.at(r, j).abs() > 1e-7 {
                        pivot_col = Some(j);
                        break;
                    }
                }
                if let Some(col) = pivot_col {
                    tableau.pivot(r, col);
                }
            }
        }
    }

    // ---- Phase 2: optimize the user objective. ----
    // Internally we always *minimize*; a maximization problem is minimized
    // with negated coefficients.
    let sense = match problem.objective() {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };
    tableau.obj = vec![0.0; n];
    tableau.obj_value = 0.0;
    for j in 0..num_user_vars {
        tableau.obj[j] = sense * problem.objective_coeff(crate::problem::VarId(j));
    }
    // Price out the current basic variables.
    for r in 0..m {
        let bv = tableau.basis[r];
        let cost = tableau.obj[bv];
        if cost.abs() > 0.0 {
            for j in 0..n {
                let val = tableau.at(r, j);
                tableau.obj[j] -= cost * val;
            }
            tableau.obj_value -= cost * tableau.b[r];
            tableau.obj[bv] = 0.0;
        }
    }
    // Artificial columns must never re-enter the basis; neither may fixed
    // user columns.
    let allowed = |j: usize| {
        j < artificial_start && (j >= num_user_vars || !problem.is_fixed(crate::problem::VarId(j)))
    };
    let phase2 = tableau.optimize(&allowed, phase2_budget(m, n));
    if stats {
        eprintln!(
            "pm-lp: engine=dense m={m} n={n} nnz={nnz} phase1_pivots={phase1_iters} \
             phase2_pivots={} refactorizations=0 warm=none elapsed={:.3}s status={}",
            tableau.iters,
            solve_start.elapsed().as_secs_f64(),
            if phase2.is_err() { "failed" } else { "ok" },
        );
    }
    phase2?;

    // ---- Phase 3: lexicographic secondary objective (when present). ----
    // Minimize the secondary over the phase-2 optimal face: only columns
    // whose primary reduced cost is zero (read straight off the optimal
    // phase-2 objective row) may enter, so every pivot keeps the primary
    // objective value and the reported vertex becomes canonical. See
    // `LpProblem::set_secondary_coeff` for the contract; the revised engine
    // runs the same phase.
    if problem.has_secondary() {
        let eligible: Vec<bool> = (0..n)
            .map(|j| allowed(j) && tableau.obj[j].abs() <= EPS)
            .collect();
        tableau.obj = vec![0.0; n];
        tableau.obj_value = 0.0;
        for j in 0..num_user_vars {
            tableau.obj[j] = problem.secondary_coeff(crate::problem::VarId(j));
        }
        for r in 0..m {
            let bv = tableau.basis[r];
            let cost = tableau.obj[bv];
            if cost.abs() > 0.0 {
                for j in 0..n {
                    let val = tableau.at(r, j);
                    tableau.obj[j] -= cost * val;
                }
                tableau.obj_value -= cost * tableau.b[r];
                tableau.obj[bv] = 0.0;
            }
        }
        let allowed3 = |j: usize| eligible[j];
        match tableau.optimize(&allowed3, phase2_budget(m, n)) {
            // A descent ray of the secondary does not make the problem
            // unbounded — the primary optimum is certified and the current
            // vertex is on the optimal face, so stop best-effort.
            Ok(()) | Err(LpError::Unbounded) => {}
            Err(e) => return Err(e),
        }
    }

    // Extract the solution from the unperturbed shadow RHS (a basic variable
    // may come out at a tiny negative value where the perturbation resolved
    // a degenerate vertex; clamp it to the bound).
    let mut values = vec![0.0; num_user_vars];
    for r in 0..m {
        let bv = tableau.basis[r];
        if bv < num_user_vars {
            values[bv] = tableau.b_shadow[r].max(0.0);
        }
    }
    let objective = problem.objective_value_at(&values);
    Ok(LpSolution::new(objective, values))
}

#[cfg(test)]
mod tests {
    use crate::problem::{LpError, LpProblem, Objective, Relation};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6)
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 3.0);
        lp.set_objective_coeff(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        approx(s.objective, 36.0);
        approx(s.value(x), 2.0);
        approx(s.value(y), 6.0);
    }

    #[test]
    fn secondary_objective_canonicalizes_the_optimal_vertex() {
        // max x + y over x + y <= 1: the whole facet is optimal. The
        // secondary (min 2x + y over the optimal face) picks (0, 1) without
        // moving the primary objective.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 1.0);
        lp.set_objective_coeff(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.set_secondary_coeff(x, 2.0);
        lp.set_secondary_coeff(y, 1.0);
        let s = crate::simplex::solve(&crate::SolveContext::default(), &lp).unwrap();
        approx(s.objective, 1.0);
        approx(s.value(x), 0.0);
        approx(s.value(y), 1.0);
    }

    #[test]
    fn near_infeasible_large_rhs_is_still_infeasible() {
        // Infeasible by 1e-5 at RHS scale ~1000: the anti-degeneracy
        // perturbation must not relax the system into feasibility (its
        // per-row delta is capped well below the 1e-6 phase-1 tolerance).
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1000.00001);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1000.0);
        assert_eq!(lp.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn simple_minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> x=7,y=3 -> 23
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 2.0);
        lp.set_objective_coeff(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Ge, 3.0);
        let s = lp.solve().unwrap();
        approx(s.objective, 23.0);
        approx(s.value(x), 7.0);
        approx(s.value(y), 3.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1 -> 3
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 1.0);
        lp.set_objective_coeff(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = lp.solve().unwrap();
        approx(s.value(x), 2.0);
        approx(s.value(y), 1.0);
        approx(s.objective, 3.0);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // x - y <= -2 with x, y >= 0 means y >= x + 2.
        // min y s.t. x - y <= -2  -> y = 2 (x = 0).
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
        let s = lp.solve().unwrap();
        approx(s.objective, 2.0);
        approx(s.value(y), 2.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, 5.0);
        assert_eq!(lp.solve(), Err(LpError::Unbounded));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP (multiple constraints active at the origin).
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        let z = lp.add_var("z");
        lp.set_objective_coeff(x, 0.75);
        lp.set_objective_coeff(y, -150.0);
        lp.set_objective_coeff(z, 0.02);
        lp.add_constraint(vec![(x, 0.25), (y, -60.0), (z, -0.04)], Relation::Le, 0.0);
        lp.add_constraint(vec![(x, 0.5), (y, -90.0), (z, -0.02)], Relation::Le, 0.0);
        lp.add_constraint(vec![(z, 1.0)], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        assert!(s.objective.is_finite());
        assert!(lp.is_feasible(s.values(), 1e-6));
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // max x s.t. 0.5x + 0.5x <= 3  -> x = 3
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        approx(s.value(x), 3.0);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 stated twice plus x = 1: solution x = 1, y = 1.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        let s = lp.solve().unwrap();
        approx(s.value(x), 1.0);
        approx(s.value(y), 1.0);
    }

    #[test]
    fn zero_objective_returns_a_feasible_point() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        let s = lp.solve().unwrap();
        assert!(lp.is_feasible(s.values(), 1e-9));
        approx(s.objective, 0.0);
    }

    #[test]
    fn larger_random_like_lp_is_feasible_and_optimal_looking() {
        // A transportation-style LP: 3 sources, 4 sinks.
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
        for i in 0..3 {
            let terms = (0..4).map(|j| (vars[i][j], 1.0)).collect();
            lp.add_constraint(terms, Relation::Le, supply[i]);
        }
        for j in 0..4 {
            let terms = (0..3).map(|i| (vars[i][j], 1.0)).collect();
            lp.add_constraint(terms, Relation::Eq, demand[j]);
        }
        let s = lp.solve().unwrap();
        assert!(lp.is_feasible(s.values(), 1e-6));
        // Hand-checked optimum (verified with the transportation potentials
        // method): the optimal cost is 120.
        approx(s.objective, 120.0);
    }
}
