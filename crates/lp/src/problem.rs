//! Linear program model: non-negative variables, linear constraints, and a
//! linear objective.

use crate::revised::StandardForm;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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

/// A view of one linear constraint `sum coeff_j * x_j  (<=|>=|==)  rhs` of
/// an [`LpProblem`] (see [`LpProblem::row`]).
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    /// The constraint relation.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
    cols: &'a [u32],
    vals: &'a [f64],
}

impl<'a> Row<'a> {
    /// The `(variable, coefficient)` terms, in insertion order, duplicates
    /// included.
    pub fn terms(&self) -> impl ExactSizeIterator<Item = (VarId, f64)> + 'a {
        let (cols, vals) = (self.cols, self.vals);
        cols.iter().zip(vals).map(|(&c, &v)| (VarId(c as usize), v))
    }

    /// The number of terms.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the row has no term.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// Variable names, back to back in one buffer: variable `j`'s name ends at
/// `ends[j]`, and starts where variable `j - 1`'s ends.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    /// Appends a name and returns its variable's id.
    pub(crate) fn push(&mut self, name: &str) -> VarId {
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("variable names fit in 4 GiB");
        self.ends.push(end);
        VarId(self.ends.len() - 1)
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, j: usize) -> &str {
        let start = j.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[j] as usize]
    }
}

/// A column or term-offset index in the problem's `u32` storage.
fn index32(i: usize) -> u32 {
    u32::try_from(i).expect("an LP has fewer than 2^32 columns and terms")
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
    /// use pm_lp::{LpProblem, Objective, Relation, SolveContext, SolverKind};
    ///
    /// // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2
    /// let mut lp = LpProblem::new(Objective::Maximize);
    /// let x = lp.add_var("x");
    /// let y = lp.add_var("y");
    /// lp.set_objective_coeff(x, 3.0);
    /// lp.set_objective_coeff(y, 2.0);
    /// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
    /// lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
    /// let revised = SolveContext {
    ///     engine: SolverKind::Revised,
    ///     ..SolveContext::default()
    /// };
    /// let sol = lp.solve_in(&revised).unwrap();
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
    ///     .zip(lp.rows())
    ///     .map(|(y, row)| y * row.rhs)
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
///
/// A *finished* problem — one built by [`LpProblem::from_triplets`] or
/// [`crate::sparse::SparseBuilder::build`] — carries the standard form the
/// revised engine solves: the matrix with its slack and artificial columns
/// and the perturbed right-hand side. Its clones share that form, and
/// [`LpProblem::set_coeff`] patches it in place, so a template re-solved
/// after every edit never rebuilds it. [`LpProblem::add_var`],
/// [`LpProblem::add_constraint`] and [`LpProblem::set_rhs`] drop it; a
/// problem without one builds a private form for each solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LpProblem {
    objective: Objective,
    names: Names,
    objective_coeffs: Vec<f64>,
    /// Variables currently fixed to zero (one per variable).
    fixed: Vec<bool>,
    /// Lexicographic secondary objective coefficients (empty when unused;
    /// grown on demand, so it may be shorter than `names`). See
    /// [`LpProblem::set_secondary_coeff`].
    secondary: Vec<f64>,
    /// The constraint rows in one block, in insertion order: row `i`'s
    /// terms are `row_starts[i]..row_starts[i + 1]` of `cols` and `vals`,
    /// duplicates included.
    row_starts: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    rhs: Vec<f64>,
    relations: Vec<Relation>,
    /// The standard form of the variables, matrix and right-hand sides (see
    /// the type docs). Objective, secondary and fixed-variable edits leave
    /// it alone: the form does not contain them.
    form: Option<Arc<StandardForm>>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        LpProblem {
            objective,
            names: Names::default(),
            objective_coeffs: Vec::new(),
            fixed: Vec::new(),
            secondary: Vec::new(),
            row_starts: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            rhs: Vec::new(),
            relations: Vec::new(),
            form: None,
        }
    }

    /// Builds a problem from a `(row, col, value)` triplet stream: variable
    /// `j` gets objective coefficient `objective_coeffs[j]` and the name
    /// `x{j}`, row `i` is `Σ value · x_col (relation_i) rhs_i`. Duplicate
    /// `(row, col)` triplets are summed by the solvers; explicit zeros are
    /// dropped here. This is the preferred construction path for large
    /// machine-generated models (see also [`crate::sparse::SparseBuilder`]
    /// for an incremental variant with named variables). The problem is
    /// finished: it carries its standard form.
    pub fn from_triplets(
        objective: Objective,
        objective_coeffs: Vec<f64>,
        rows: Vec<(Relation, f64)>,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LpError> {
        let mut names = Names::default();
        for j in 0..objective_coeffs.len() {
            names.push(&format!("x{j}"));
        }
        Self::from_parts(objective, names, objective_coeffs, rows, triplets)
    }

    /// Shared triplet-grouping backend of [`LpProblem::from_triplets`] and
    /// [`crate::sparse::SparseBuilder::build`]; builds the standard form.
    pub(crate) fn from_parts(
        objective: Objective,
        names: Names,
        objective_coeffs: Vec<f64>,
        rows: Vec<(Relation, f64)>,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LpError> {
        let m = rows.len();
        // Counting sort by row keeps the grouping linear in nnz and the
        // terms of a row in stream order; the `u32` counts cannot overflow.
        index32(triplets.len());
        let mut row_starts = vec![0u32; m + 1];
        for &(r, _, v) in triplets {
            if r >= m {
                return Err(LpError::InvalidModel(format!(
                    "triplet references unknown row {r} (model has {m} rows)"
                )));
            }
            if v != 0.0 {
                row_starts[r + 1] += 1;
            }
        }
        for i in 0..m {
            row_starts[i + 1] += row_starts[i];
        }
        let nnz = row_starts[m] as usize;
        let mut next = row_starts.clone();
        let (mut cols, mut vals) = (vec![0u32; nnz], vec![0.0; nnz]);
        for &(r, c, v) in triplets {
            if v != 0.0 {
                let k = next[r] as usize;
                next[r] += 1;
                cols[k] = index32(c);
                vals[k] = v;
            }
        }
        let (relations, rhs) = rows.into_iter().unzip();
        let fixed = vec![false; names.len()];
        let mut problem = LpProblem {
            objective,
            names,
            objective_coeffs,
            fixed,
            secondary: Vec::new(),
            row_starts,
            cols,
            vals,
            rhs,
            relations,
            form: None,
        };
        problem.validate()?;
        problem.form = Some(Arc::new(StandardForm::build(&problem, None)));
        Ok(problem)
    }

    /// The optimization direction.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Adds a non-negative variable with objective coefficient 0 and returns
    /// its id.
    pub fn add_var(&mut self, name: &str) -> VarId {
        let id = self.names.push(name);
        self.objective_coeffs.push(0.0);
        self.fixed.push(false);
        self.form = None;
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
        self.rhs[row] = rhs;
        self.form = None;
    }

    /// The right-hand side of constraint `row`.
    pub fn rhs(&self, row: usize) -> f64 {
        self.rhs[row]
    }

    /// Updates the coefficient of `var` in constraint `row` in place.
    ///
    /// The term must already exist and the new coefficient must be finite
    /// and nonzero: in-place edits may change coefficient *values* but never
    /// the sparsity *pattern*, so the warm-start signature (see
    /// [`crate::revised::WarmStartCache`]) is unchanged and any previous
    /// optimal basis of the problem remains a valid hint. This is what makes
    /// edge-cost drift on the masked `pm-core` templates a cheap delta: the
    /// occupation-row coefficients are rewritten and the next solve restarts
    /// from the old basis in a few pivots instead of rebuilding the
    /// formulation.
    ///
    /// A finished problem's standard form is patched in place, not rebuilt:
    /// its matrix entry becomes the row's terms on `var` summed in term
    /// order, times the row's sign, exactly as a fresh build sums them.
    /// Clones sharing the form keep theirs. Only an edit that changes the
    /// form's pattern (duplicate terms summing to zero, before or after)
    /// rebuilds it.
    ///
    /// # Panics
    /// Panics if `row` is out of range, the term does not exist, or `coeff`
    /// is zero or non-finite.
    pub fn set_coeff(&mut self, row: usize, var: VarId, coeff: f64) {
        assert!(
            coeff.is_finite() && coeff != 0.0,
            "in-place coefficient of {} in row {row} must be finite and nonzero (got {coeff}); \
             a zero would change the sparsity pattern and with it the warm-start signature",
            self.var_name(var)
        );
        let terms = self.row_range(row);
        let col = index32(var.index());
        let k = (terms.clone())
            .find(|&k| self.cols[k] == col)
            .unwrap_or_else(|| {
                panic!(
                    "constraint {row} has no term on variable {}: in-place edits cannot \
                     create terms",
                    var.index()
                )
            });
        self.vals[k] = coeff;
        let patched = match &mut self.form {
            None => true,
            Some(form) => {
                let sign = form.row_sign(row);
                let mut entry = 0.0;
                for k in terms.filter(|&k| self.cols[k] == col) {
                    entry += sign * self.vals[k];
                }
                StandardForm::patch(form, row, var.index(), entry)
            }
        };
        if !patched {
            self.form = Some(Arc::new(StandardForm::build(self, None)));
        }
    }

    /// The coefficient of `var` in constraint `row` (0 when the term is not
    /// present; the first term when there are duplicates).
    pub fn coeff(&self, row: usize, var: VarId) -> f64 {
        self.row(row)
            .terms()
            .find(|&(v, _)| v == var)
            .map_or(0.0, |(_, c)| c)
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
        self.rhs.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        self.names.get(var.index())
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
        for (v, c) in terms {
            self.cols.push(index32(v.index()));
            self.vals.push(c);
        }
        self.row_starts.push(index32(self.cols.len()));
        self.rhs.push(rhs);
        self.relations.push(relation);
        self.form = None;
        self.rhs.len() - 1
    }

    /// Constraint `i`.
    pub fn row(&self, i: usize) -> Row<'_> {
        let terms = self.row_range(i);
        Row {
            relation: self.relations[i],
            rhs: self.rhs[i],
            cols: &self.cols[terms.clone()],
            vals: &self.vals[terms],
        }
    }

    /// The constraints of the problem, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> + '_ {
        (0..self.num_constraints()).map(|i| self.row(i))
    }

    /// Where row `i`'s terms sit in `cols` and `vals`.
    fn row_range(&self, i: usize) -> Range<usize> {
        self.row_starts[i] as usize..self.row_starts[i + 1] as usize
    }

    /// The standard form of a finished problem (see the type docs).
    pub(crate) fn form(&self) -> Option<&Arc<StandardForm>> {
        self.form.as_ref()
    }

    /// Whether the problem's standard form, if it carries one, equals bit
    /// for bit the form a fresh build of the problem gives: the check that
    /// [`LpProblem::set_coeff`]'s in-place patches are exact. A test hook.
    #[doc(hidden)]
    pub fn form_matches_rebuild(&self) -> bool {
        self.form
            .as_ref()
            .is_none_or(|form| form.bits() == StandardForm::build(self, None).bits())
    }

    /// Validates the model: every referenced variable exists and every
    /// coefficient is finite.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, row) in self.rows().enumerate() {
            if !row.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "constraint {i} has non-finite rhs {}",
                    row.rhs
                )));
            }
            for (v, coeff) in row.terms() {
                if v.index() >= self.num_vars() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {i} references unknown variable {}",
                        v.index()
                    )));
                }
                if !coeff.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {i} has non-finite coefficient on {}",
                        self.var_name(v)
                    )));
                }
            }
        }
        for (j, &c) in self.objective_coeffs.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "objective coefficient of {} is not finite",
                    self.var_name(VarId(j))
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
                    self.var_name(VarId(j))
                )));
            }
        }
        Ok(())
    }

    /// Solves the problem under [`crate::SolveContext::default`]: the
    /// sparse revised simplex on the LU basis, cold. A caller that re-solves
    /// structurally identical problems warm-starts them through a
    /// [`crate::revised::WarmStartCache`] instead.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_in(&crate::SolveContext::default())
    }

    /// Solves the problem cold under an explicit [`crate::SolveContext`]:
    /// its engine, chaos injection, diagnostics and tally.
    pub fn solve_in(&self, ctx: &crate::SolveContext) -> Result<LpSolution, LpError> {
        self.validate()?;
        match ctx.engine {
            crate::solver::SolverKind::Dense => crate::simplex::solve(ctx, self),
            crate::solver::SolverKind::Revised => {
                crate::revised::solve_in(ctx, self, None, None, None).map(|o| o.solution)
            }
        }
    }

    /// Re-solves the problem under a [`crate::revised::BoundsOverlay`] —
    /// additional variables fixed to zero and RHS overrides applied on top
    /// of the stored model without mutating it — warm-starting from `hint`
    /// when one is given, else from the overlay's crash basis. The overlay
    /// makes candidate evaluation shareable: one immutable template problem
    /// can be re-solved concurrently under different overlays.
    ///
    /// Runs under [`crate::SolveContext::default`]; see
    /// [`LpProblem::resolve_in`].
    pub fn resolve_with_bounds(
        &self,
        overlay: &crate::revised::BoundsOverlay,
        hint: Option<&crate::revised::Basis>,
    ) -> Result<crate::revised::SolveOutcome, LpError> {
        self.resolve_in(&crate::SolveContext::default(), overlay, hint, None)
    }

    /// [`Self::resolve_with_bounds`] under an explicit context and
    /// deterministic work caps. The context's engine decides: the revised
    /// simplex ([`crate::revised::solve_in`], with the anytime degradation
    /// semantics of [`crate::SolveBudget`]), or the dense oracle, which
    /// solves the overlay-materialized problem cold (hints, crash bases and
    /// budgets do not apply to it).
    pub fn resolve_in(
        &self,
        ctx: &crate::SolveContext,
        overlay: &crate::revised::BoundsOverlay,
        hint: Option<&crate::revised::Basis>,
        budget: Option<crate::solver::SolveBudget>,
    ) -> Result<crate::revised::SolveOutcome, LpError> {
        match ctx.engine {
            crate::solver::SolverKind::Dense => {
                crate::revised::resolve_dense(ctx, self, overlay, hint)
            }
            crate::solver::SolverKind::Revised => {
                crate::revised::solve_in(ctx, self, Some(overlay), hint, budget)
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
        for row in self.rows() {
            let lhs: f64 = row.terms().map(|(v, a)| a * values[v.index()]).sum();
            let ok = match row.relation {
                Relation::Le => lhs <= row.rhs + tol,
                Relation::Ge => lhs >= row.rhs - tol,
                Relation::Eq => (lhs - row.rhs).abs() <= tol,
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
