//! Linear program model: non-negative variables, linear constraints, and a
//! linear objective.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a decision variable in an [`LpProblem`].
///
/// All variables are implicitly constrained to be non-negative, which matches
/// every formulation in the paper (message fractions, occupation times and
/// tree weights are all non-negative quantities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub usize);

impl VarId {
    /// The variable id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Maximize the objective function (e.g. throughput).
    Maximize,
    /// Minimize the objective function (e.g. the period `T*`).
    Minimize,
}

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// One linear constraint `sum coeff_j * x_j  (<=|>=|==)  rhs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Sparse list of `(variable, coefficient)` terms.
    pub terms: Vec<(VarId, f64)>,
    /// The constraint relation.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

/// Errors returned by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The constraint set has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The solver exceeded its iteration budget (numerical trouble).
    IterationLimit,
    /// The model references an unknown variable or contains a non-finite
    /// coefficient.
    InvalidModel(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution of an [`LpProblem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LpSolution {
    /// Optimal objective value (in the problem's own direction).
    pub objective: f64,
    values: Vec<f64>,
    duals: Vec<f64>,
    degraded: bool,
}

impl LpSolution {
    pub(crate) fn new(objective: f64, values: Vec<f64>) -> Self {
        LpSolution {
            objective,
            values,
            duals: Vec::new(),
            degraded: false,
        }
    }

    pub(crate) fn with_duals(objective: f64, values: Vec<f64>, duals: Vec<f64>) -> Self {
        LpSolution {
            objective,
            values,
            duals,
            degraded: false,
        }
    }

    /// Flags this solution as an anytime answer produced under an exhausted
    /// [`crate::SolveBudget`] rather than a certified optimum.
    pub(crate) fn mark_degraded(&mut self) {
        self.degraded = true;
    }

    /// `true` when the solver ran out of its [`crate::SolveBudget`] before
    /// certifying optimality and returned the best primal-feasible vertex it
    /// reached instead. The solution is feasible and [`Self::objective`] is
    /// a valid achievable bound on the optimum (a lower bound when
    /// maximizing, an upper bound when minimizing), but a larger budget may
    /// find a strictly better point. Never set on an unlimited solve.
    #[inline]
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Value of a variable in the optimal solution.
    #[inline]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by [`VarId`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The optimal dual values (shadow prices), one per constraint row, in
    /// the problem's own optimization sense: `duals()[i]` is the marginal
    /// change of the optimal objective per unit increase of constraint `i`'s
    /// right-hand side.
    ///
    /// Only the revised engine produces duals (the dense tableau oracle
    /// reports an empty slice). They are *shadow-RHS aware*: the engine's
    /// anti-degeneracy RHS perturbation never enters the pricing vector, so
    /// strong duality `Σ_i duals()[i] · rhs_i = objective` holds against the
    /// exact, unperturbed right-hand sides — the property the differential
    /// test against the dense oracle pins down. This is the groundwork for
    /// exact column-generation pricing over the realization tree pool.
    ///
    /// ```
    /// use pm_lp::{LpProblem, Objective, Relation, SolverKind};
    ///
    /// // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2
    /// let mut lp = LpProblem::new(Objective::Maximize);
    /// let x = lp.add_var("x");
    /// let y = lp.add_var("y");
    /// lp.set_objective_coeff(x, 3.0);
    /// lp.set_objective_coeff(y, 2.0);
    /// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
    /// lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
    /// let sol = lp.solve_with(SolverKind::Revised).unwrap();
    ///
    /// // Both rows bind: relaxing row 0 is worth 2 (one more y), relaxing
    /// // row 1 is worth 1 (swap one y for one x).
    /// assert!((sol.duals()[0] - 2.0).abs() < 1e-9);
    /// assert!((sol.duals()[1] - 1.0).abs() < 1e-9);
    ///
    /// // Strong duality against the exact right-hand sides.
    /// let dual_obj: f64 = sol
    ///     .duals()
    ///     .iter()
    ///     .zip(lp.constraints())
    ///     .map(|(y, c)| y * c.rhs)
    ///     .sum();
    /// assert!((dual_obj - sol.objective).abs() < 1e-9);
    /// ```
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }
}

/// A linear program over non-negative variables.
///
/// Besides the implicit `x ≥ 0` bound, every variable can be *fixed to
/// zero* in place ([`LpProblem::fix_var`]), and every constraint's RHS can
/// be updated in place ([`LpProblem::set_rhs`]). Neither operation changes
/// the constraint *pattern*, so a sequence of re-solves after bound/RHS
/// updates keeps the same warm-start signature (see
/// [`crate::revised::WarmStartCache`]) — this is what the masked
/// sub-platform formulations in `pm-core` are built on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LpProblem {
    objective: Objective,
    names: Vec<String>,
    objective_coeffs: Vec<f64>,
    constraints: Vec<Constraint>,
    /// Variables currently fixed to zero (same length as `names`).
    fixed: Vec<bool>,
    /// Lexicographic secondary objective coefficients (empty when unused;
    /// grown on demand, so it may be shorter than `names`). See
    /// [`LpProblem::set_secondary_coeff`].
    secondary: Vec<f64>,
    /// Content stamp of the variables, constraint matrix and right-hand
    /// sides: a process-wide unique number, renewed by every edit of them.
    /// A clone keeps the stamp (same content), so equal stamps imply an
    /// equal standard form — the key of the revised engine's per-thread
    /// standard-form reuse. Objective, secondary and fixed-variable edits
    /// leave it alone: the standard form does not contain them.
    stamp: u64,
}

/// A content stamp no problem has had before. `Relaxed` suffices: the
/// counter publishes no other data, it only has to hand out distinct values.
fn fresh_stamp() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl LpProblem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        LpProblem {
            objective,
            names: Vec::new(),
            objective_coeffs: Vec::new(),
            constraints: Vec::new(),
            fixed: Vec::new(),
            secondary: Vec::new(),
            stamp: fresh_stamp(),
        }
    }

    /// Builds a problem from a `(row, col, value)` triplet stream: variable
    /// `j` gets objective coefficient `objective_coeffs[j]` and the name
    /// `x{j}`, row `i` is `Σ value · x_col (relation_i) rhs_i`. Duplicate
    /// `(row, col)` triplets are summed by the solvers; explicit zeros are
    /// dropped here. This is the preferred construction path for large
    /// machine-generated models (see also [`crate::sparse::SparseBuilder`]
    /// for an incremental variant with named variables).
    pub fn from_triplets(
        objective: Objective,
        objective_coeffs: Vec<f64>,
        rows: Vec<(Relation, f64)>,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LpError> {
        let names = (0..objective_coeffs.len())
            .map(|j| format!("x{j}"))
            .collect();
        Self::from_parts(objective, names, objective_coeffs, rows, triplets.to_vec())
    }

    /// Shared triplet-grouping backend of [`LpProblem::from_triplets`] and
    /// [`crate::sparse::SparseBuilder::build`].
    pub(crate) fn from_parts(
        objective: Objective,
        names: Vec<String>,
        objective_coeffs: Vec<f64>,
        rows: Vec<(Relation, f64)>,
        triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self, LpError> {
        let m = rows.len();
        // Counting sort by row keeps the grouping linear in nnz.
        let mut counts = vec![0usize; m + 1];
        for &(r, _, _) in &triplets {
            if r >= m {
                return Err(LpError::InvalidModel(format!(
                    "triplet references unknown row {r} (model has {m} rows)"
                )));
            }
            counts[r + 1] += 1;
        }
        for i in 0..m {
            counts[i + 1] += counts[i];
        }
        let mut terms: Vec<Vec<(VarId, f64)>> = counts
            .windows(2)
            .map(|w| Vec::with_capacity(w[1] - w[0]))
            .collect();
        for &(r, c, v) in &triplets {
            if v != 0.0 {
                terms[r].push((VarId(c), v));
            }
        }
        let constraints = terms
            .into_iter()
            .zip(rows)
            .map(|(terms, (relation, rhs))| Constraint {
                terms,
                relation,
                rhs,
            })
            .collect();
        let fixed = vec![false; names.len()];
        let problem = LpProblem {
            objective,
            names,
            objective_coeffs,
            constraints,
            fixed,
            secondary: Vec::new(),
            stamp: fresh_stamp(),
        };
        problem.validate()?;
        Ok(problem)
    }

    /// The optimization direction.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Adds a non-negative variable with objective coefficient 0 and returns
    /// its id.
    pub fn add_var(&mut self, name: &str) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.to_string());
        self.objective_coeffs.push(0.0);
        self.fixed.push(false);
        self.stamp = fresh_stamp();
        id
    }

    /// Fixes a variable to zero in place (an upper-bound update `x_j ≤ 0` on
    /// top of the implicit `x_j ≥ 0`). The constraint pattern — and thus the
    /// warm-start signature — is unchanged; the solvers simply never let the
    /// column take a positive value.
    pub fn fix_var(&mut self, var: VarId) {
        self.fixed[var.index()] = true;
    }

    /// Releases a variable previously fixed to zero.
    pub fn unfix_var(&mut self, var: VarId) {
        self.fixed[var.index()] = false;
    }

    /// Whether the variable is currently fixed to zero.
    #[inline]
    pub fn is_fixed(&self, var: VarId) -> bool {
        self.fixed[var.index()]
    }

    /// Releases every fixed variable.
    pub fn clear_fixed(&mut self) {
        self.fixed.iter_mut().for_each(|f| *f = false);
    }

    /// Number of variables currently fixed to zero.
    pub fn fixed_count(&self) -> usize {
        self.fixed.iter().filter(|&&f| f).count()
    }

    /// Updates the right-hand side of constraint `row` in place.
    ///
    /// The sign of the RHS participates in the structural signature (it
    /// decides the slack/artificial layout after the `b ≥ 0` normalisation),
    /// so warm-start-friendly updates should keep the sign; crossing zero is
    /// legal but produces a structurally different problem.
    ///
    /// # Panics
    /// Panics if `row` is out of range or `rhs` is not finite.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(rhs.is_finite(), "constraint {row} rhs must be finite");
        self.constraints[row].rhs = rhs;
        self.stamp = fresh_stamp();
    }

    /// The right-hand side of constraint `row`.
    pub fn rhs(&self, row: usize) -> f64 {
        self.constraints[row].rhs
    }

    /// Updates the coefficient of `var` in constraint `row` in place.
    ///
    /// The term must already exist and the new coefficient must be finite
    /// and nonzero: in-place edits may change coefficient *values* but never
    /// the sparsity *pattern*, so the warm-start signature (see
    /// [`crate::revised::WarmStartCache`]) is unchanged and any previous
    /// optimal basis of the problem remains a valid hint. This is what makes
    /// edge-cost drift on the masked `pm-core` templates a cheap delta: the
    /// occupation-row coefficients are rewritten and the next solve repairs
    /// the old basis in a few pivots instead of rebuilding the formulation.
    ///
    /// # Panics
    /// Panics if `row` is out of range, the term does not exist, or `coeff`
    /// is zero or non-finite.
    pub fn set_coeff(&mut self, row: usize, var: VarId, coeff: f64) {
        assert!(
            coeff.is_finite() && coeff != 0.0,
            "in-place coefficient of {} in row {row} must be finite and nonzero (got {coeff}); \
             a zero would change the sparsity pattern and with it the warm-start signature",
            self.names[var.index()]
        );
        let term = self.constraints[row]
            .terms
            .iter_mut()
            .find(|(v, _)| *v == var)
            .unwrap_or_else(|| {
                panic!(
                    "constraint {row} has no term on variable {}: in-place edits cannot \
                     create terms",
                    var.index()
                )
            });
        term.1 = coeff;
        self.stamp = fresh_stamp();
    }

    /// The coefficient of `var` in constraint `row` (0 when the term is not
    /// present).
    pub fn coeff(&self, row: usize, var: VarId) -> f64 {
        self.constraints[row]
            .terms
            .iter()
            .find(|(v, _)| *v == var)
            .map_or(0.0, |&(_, c)| c)
    }

    /// Updates the objective coefficient of a variable in place — the
    /// objective-side counterpart of [`LpProblem::set_coeff`]. Objective
    /// coefficients never participate in the warm-start signature, so this
    /// edit, too, keeps every cached basis reusable.
    pub fn set_obj(&mut self, var: VarId, coeff: f64) {
        self.set_objective_coeff(var, coeff);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// Sets the objective coefficient of a variable.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        self.objective_coeffs[var.index()] = coeff;
    }

    /// The objective coefficient of a variable.
    pub fn objective_coeff(&self, var: VarId) -> f64 {
        self.objective_coeffs[var.index()]
    }

    /// Sets `var`'s coefficient in the *lexicographic secondary objective*.
    ///
    /// Degenerate problems have many tied-optimal vertices, and which one a
    /// simplex engine reports depends on its pivot path — pricing rule,
    /// basis factorization, warm-start hints. When any secondary coefficient
    /// is set, the engines append a third phase after proving the primary
    /// objective optimal: they *minimize* `Σ secondaryⱼ·xⱼ` over the optimal
    /// face, pivoting only on columns whose primary reduced cost is zero.
    /// The primary objective value is untouched (every such pivot moves
    /// along the optimal face), but the reported *point* becomes canonical:
    /// whenever the secondary optimum is unique, cold solves, warm-started
    /// re-solves and both basis factorizations all land on the same vertex.
    ///
    /// The flow formulations in `pm-core` use this to report
    /// traffic-parsimonious flows (secondary = cost-weighted total traffic),
    /// which keeps greedy node scores independent of the pivot path.
    ///
    /// The secondary is always minimized, regardless of the primary sense,
    /// and must be bounded below on the optimal face (guaranteed for
    /// non-negative coefficients, since every variable satisfies `x ≥ 0`).
    /// Like primary costs, secondary coefficients never participate in the
    /// warm-start signature.
    pub fn set_secondary_coeff(&mut self, var: VarId, coeff: f64) {
        if self.secondary.len() <= var.index() {
            self.secondary.resize(var.index() + 1, 0.0);
        }
        self.secondary[var.index()] = coeff;
    }

    /// `var`'s coefficient in the lexicographic secondary objective (0 when
    /// never set).
    pub fn secondary_coeff(&self, var: VarId) -> f64 {
        self.secondary.get(var.index()).copied().unwrap_or(0.0)
    }

    /// Whether any secondary objective coefficient is set (the engines run
    /// the lexicographic cleanup phase exactly in this case).
    pub fn has_secondary(&self) -> bool {
        self.secondary.iter().any(|&c| c != 0.0)
    }

    /// Removes the secondary objective entirely.
    pub fn clear_secondary(&mut self) {
        self.secondary.clear();
    }

    /// Adds the constraint `sum terms (relation) rhs`. Terms referring to the
    /// same variable several times are summed.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> usize {
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
        self.stamp = fresh_stamp();
        self.constraints.len() - 1
    }

    /// The constraints of the problem.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The content stamp (see the field docs).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Validates the model: every referenced variable exists and every
    /// coefficient is finite.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, c) in self.constraints.iter().enumerate() {
            if !c.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "constraint {i} has non-finite rhs {}",
                    c.rhs
                )));
            }
            for &(v, coeff) in &c.terms {
                if v.index() >= self.names.len() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {i} references unknown variable {}",
                        v.index()
                    )));
                }
                if !coeff.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {i} has non-finite coefficient on {}",
                        self.names[v.index()]
                    )));
                }
            }
        }
        for (j, &c) in self.objective_coeffs.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "objective coefficient of {} is not finite",
                    self.names[j]
                )));
            }
        }
        if self.secondary.len() > self.names.len() {
            return Err(LpError::InvalidModel(format!(
                "secondary objective references {} variables (model has {})",
                self.secondary.len(),
                self.names.len()
            )));
        }
        for (j, &c) in self.secondary.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "secondary objective coefficient of {} is not finite",
                    self.names[j]
                )));
            }
        }
        Ok(())
    }

    /// Solves the problem with the default engine (the sparse revised
    /// simplex unless overridden, see [`crate::solver::SolverKind`]). When a
    /// [`crate::revised::WarmStartCache`] scope is active on the current
    /// thread, the revised engine warm-starts from the cached basis of the
    /// last structurally identical solve.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with(crate::solver::default_solver())
    }

    /// Solves the problem with an explicitly chosen engine. With
    /// `PM_LP_PRESOLVE=1` the problem is first reduced by
    /// [`crate::presolve::presolve`] (and the reduced solution postsolved
    /// back), unless a [`crate::revised::WarmStartCache`] scope is active on
    /// the current thread — presolve changes the constraint pattern and
    /// would defeat scoped warm-start reuse — or a lexicographic secondary
    /// objective is set (the reductions do not model it).
    pub fn solve_with(&self, solver: crate::solver::SolverKind) -> Result<LpSolution, LpError> {
        self.validate()?;
        if crate::solver::presolve_enabled()
            && !crate::revised::scope_active()
            && !self.has_secondary()
        {
            // Presolve is an accelerator, never a correctness dependency:
            // a reduction or postsolve failure (other than a genuine
            // infeasibility proof, which is a final verdict) falls back to
            // solving the original, unreduced problem.
            match crate::presolve::presolve(self) {
                Ok(presolved) if presolved.is_reduced() => match presolved.solve_with(solver) {
                    Ok(solution) => return Ok(solution),
                    Err(LpError::Infeasible) => return Err(LpError::Infeasible),
                    Err(_) => {}
                },
                Ok(_) => {}
                Err(LpError::Infeasible) => return Err(LpError::Infeasible),
                Err(_) => {}
            }
        }
        match solver {
            crate::solver::SolverKind::Dense => {
                // Keep the scope's solve accounting truthful when the dense
                // oracle is selected: every dense solve is a cold solve.
                crate::revised::note_scoped_cold_solve();
                crate::simplex::solve(self)
            }
            crate::solver::SolverKind::Revised => crate::revised::solve_scoped(self),
        }
    }

    /// Re-solves the problem under a [`crate::revised::BoundsOverlay`] —
    /// additional variables fixed to zero and RHS overrides applied on top
    /// of the stored model without mutating it — warm-starting from `hint`
    /// when one is given, else from the overlay's crash basis. The overlay
    /// makes candidate evaluation shareable: one immutable template problem
    /// can be re-solved concurrently under different overlays.
    ///
    /// Runs on the selected engine, like [`LpProblem::solve`]: the revised
    /// simplex ([`crate::revised::resolve_with_bounds`]) by default, or the
    /// dense oracle under `PM_LP_SOLVER=dense` /
    /// [`crate::set_default_solver`], which solves the overlay-materialized
    /// problem cold (hints, crash bases and budgets do not apply to it).
    pub fn resolve_with_bounds(
        &self,
        overlay: &crate::revised::BoundsOverlay,
        hint: Option<&crate::revised::Basis>,
    ) -> Result<crate::revised::SolveOutcome, LpError> {
        self.resolve_with_bounds_budgeted(overlay, hint, None)
    }

    /// [`Self::resolve_with_bounds`] under explicit deterministic work caps:
    /// see [`crate::SolveBudget`] and
    /// [`crate::revised::resolve_with_bounds_budgeted`] for the anytime
    /// degradation semantics (revised engine only).
    pub fn resolve_with_bounds_budgeted(
        &self,
        overlay: &crate::revised::BoundsOverlay,
        hint: Option<&crate::revised::Basis>,
        budget: Option<crate::solver::SolveBudget>,
    ) -> Result<crate::revised::SolveOutcome, LpError> {
        match crate::solver::default_solver() {
            crate::solver::SolverKind::Dense => crate::revised::resolve_dense(self, overlay, hint),
            crate::solver::SolverKind::Revised => {
                crate::revised::resolve_with_bounds_budgeted(self, overlay, hint, budget)
            }
        }
    }

    /// Evaluates the objective function at the given point.
    pub fn objective_value_at(&self, values: &[f64]) -> f64 {
        self.objective_coeffs
            .iter()
            .zip(values)
            .map(|(c, v)| c * v)
            .sum()
    }

    /// Checks whether `values` satisfies every constraint up to tolerance
    /// `tol` (and non-negativity).
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.num_vars() {
            return false;
        }
        if values.iter().any(|&v| v < -tol) {
            return false;
        }
        if values
            .iter()
            .zip(&self.fixed)
            .any(|(&v, &fixed)| fixed && v > tol)
        {
            return false;
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_building_and_accessors() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 1.0);
        lp.set_objective_coeff(y, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 1.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.var_name(y), "y");
        assert_eq!(lp.objective_coeff(y), 2.0);
        assert_eq!(lp.objective(), Objective::Minimize);
        assert!(lp.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_models() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.add_constraint(vec![(VarId(5), 1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.validate(), Err(LpError::InvalidModel(_))));

        let mut lp = LpProblem::new(Objective::Maximize);
        let x2 = lp.add_var("x");
        lp.add_constraint(vec![(x2, f64::NAN)], Relation::Le, 1.0);
        assert!(matches!(lp.validate(), Err(LpError::InvalidModel(_))));

        let mut lp = LpProblem::new(Objective::Maximize);
        lp.add_var("x");
        lp.set_objective_coeff(x, f64::INFINITY);
        assert!(matches!(lp.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn feasibility_checker() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 0.25);
        assert!(lp.is_feasible(&[0.5, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.1, 0.5], 1e-9)); // violates Ge
        assert!(!lp.is_feasible(&[0.8, 0.5], 1e-9)); // violates Le
        assert!(!lp.is_feasible(&[-0.5, 0.5], 1e-9)); // negative variable
        assert!(!lp.is_feasible(&[0.5], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_at_point() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 3.0);
        lp.set_objective_coeff(y, -1.0);
        assert_eq!(lp.objective_value_at(&[2.0, 4.0]), 2.0);
    }
}
