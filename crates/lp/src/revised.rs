//! Sparse revised simplex with pluggable basis factorizations and warm
//! starts.
//!
//! The engine never forms `B⁻¹` explicitly: all products go through a
//! [`crate::basis::BasisFactorization`]. The default is a sparse LU
//! factorization with Forrest–Tomlin pivot updates
//! ([`crate::basis::LuBasis`]); the historical product-form eta file
//! ([`crate::basis::EtaBasis`]) stays selectable with `PM_LP_BASIS=eta` as
//! a differential oracle. See [`crate::solver::BasisKind`].
//!
//! Each iteration works on sparse columns only:
//!
//! * BTRAN of the basic costs gives the pricing vector `y`,
//! * entering-column selection depends on the basis engine: the LU path
//!   prices with devex reference-framework weights over incrementally
//!   maintained reduced costs (recomputed from scratch whenever the
//!   factorization changes, and re-verified before declaring optimality);
//!   the eta path keeps the legacy Dantzig rule over rotating
//!   partial-pricing sections. Both switch to Bland's rule after a stall,
//! * FTRAN of the entering column feeds the ratio test.
//!
//! The anti-degeneracy toolkit of the dense engine is ported verbatim: the
//! shadow-RHS perturbation (inequality rows relaxed by a tiny seeded amount,
//! solution values read from an unperturbed shadow carried through the same
//! pivots), the Dantzig→Bland stall switch, and the seeded reservoir
//! tie-break in the ratio test — so solves stay bit-reproducible.
//!
//! **Warm starts**: [`solve_with_hint`] accepts the [`Basis`] returned by a
//! previous solve of a structurally identical problem and, when that basis
//! is still primal feasible, skips phase 1 entirely. [`WarmStartCache`]
//! automates this for solver-agnostic callers: inside a
//! [`WarmStartCache::scope`], every [`crate::LpProblem::solve`] call looks
//! up the basis of the last solve with the same constraint pattern.
//!
//! **Crash starts**: a [`BoundsOverlay::crash`] basis (built with
//! [`Basis::crash`]) stands in for a missing hint, or for one the install or
//! the bound repair cannot use. When it installs the solve skips the
//! all-artificial phase 1 exactly as a warm start does, but it counts as a
//! cold solve: its [`WarmStatus`] is never [`WarmStatus::Hit`].
//!
//! A hinted basis may hold artificial and fixed-to-zero columns at level
//! zero: the artificial of a row that was redundant under the hint's
//! overlay, or a column basic at zero that the new overlay fixes. From
//! phase 2 on the ratio test boxes each such basic column in `[0, 0]`: an
//! entering column that would push it up, not only down, pivots it out at
//! step `max(0, x_b / w)`. Phases 2 and 3 therefore keep those columns at
//! zero, and a warm re-solve needs no cold fallback for them. The check
//! after the solve that they sit at zero stays as a safety net (see
//! [`RecoveryRung::Cold`]).

use crate::basis::{BasisFactorization, BasisRepr, EtaBasis};
use crate::chaos::{ChaosFault, ChaosPlan};
use crate::problem::{LpError, LpProblem, LpSolution, Objective, Relation, VarId};
use crate::solver::{
    effective_relation, perturb_rhs, phase1_budget, phase2_budget, splitmix64, stats_enabled,
    BasisKind, SolveBudget,
};
use crate::sparse::CscMatrix;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Numerical tolerance (same value as the dense engine).
const EPS: f64 = 1e-9;

/// Reduced-cost/ratio pivot element below this magnitude is numerically
/// untrustworthy: the solver refactorizes, and skips the column if the
/// fresh factorization agrees.
const PIVOT_TOL: f64 = 1e-7;

/// Consecutive non-improving pivots before switching Dantzig → Bland
/// (mirrors the dense engine).
const STALL_SWITCH: usize = 64;

/// Pivots between scheduled refactorizations.
const REFACTOR_EVERY: usize = 128;

/// Solution-vector increments smaller than this are skipped in pivot
/// updates (same drop tolerance the basis factorizations use for their
/// stored vectors).
const ETA_DROP: f64 = 1e-12;

/// An optimal basis, reusable as a warm-start hint for a structurally
/// identical problem.
///
/// One entry per constraint row: the column (structural variable or
/// slack/surplus) basic in that row, or [`Basis::REDUNDANT`] when the row's
/// artificial variable stayed basic at level zero (a redundant constraint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<usize>,
}

impl Basis {
    /// Marker for rows whose artificial variable remained basic.
    pub const REDUNDANT: usize = usize::MAX;

    /// The basic column of each row (see the type-level docs).
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// A crash basis of `problem`: variable `var` basic in row `row` for
    /// every `(row, var)` pair, and every row no pair names on the column a
    /// cold solve starts it on — its slack for a `≤` row, its artificial
    /// ([`Basis::REDUNDANT`]) for an `=` or `≥` row, after the `b ≥ 0`
    /// normalisation of the problem's stored right-hand sides. A later pair
    /// for the same row replaces an earlier one.
    ///
    /// Offered as [`BoundsOverlay::crash`], it replaces the all-artificial
    /// phase 1 of a solve whenever it installs nonsingular and primal
    /// feasible; otherwise the solve runs that phase 1 as before.
    ///
    /// ```
    /// use pm_lp::{Basis, LpProblem, Objective, Relation};
    ///
    /// // minimize t  s.t.  x = 1,  x - t <= 0
    /// let mut lp = LpProblem::new(Objective::Minimize);
    /// let x = lp.add_var("x");
    /// let t = lp.add_var("t");
    /// lp.set_objective_coeff(t, 1.0);
    /// lp.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
    /// lp.add_constraint(vec![(x, 1.0), (t, -1.0)], Relation::Le, 0.0);
    ///
    /// // Unnamed rows keep their artificial (row 0) or slack (row 1, the
    /// // first slack column, numbered after the two variables).
    /// assert_eq!(Basis::crash(&lp, []).columns(), &[Basis::REDUNDANT, 2]);
    /// assert_eq!(Basis::crash(&lp, [(0, x), (1, t)]).columns(), &[0, 1]);
    /// ```
    ///
    /// # Panics
    /// Panics if a row is out of range.
    pub fn crash(problem: &LpProblem, basic: impl IntoIterator<Item = (usize, VarId)>) -> Basis {
        let mut slack = problem.num_vars();
        let mut cols: Vec<usize> = problem
            .constraints()
            .iter()
            .map(|c| match effective_relation(c.relation, c.rhs < 0.0) {
                Relation::Le => {
                    slack += 1;
                    slack - 1
                }
                Relation::Ge => {
                    slack += 1;
                    Basis::REDUNDANT
                }
                Relation::Eq => Basis::REDUNDANT,
            })
            .collect();
        for (row, var) in basic {
            cols[row] = var.index();
        }
        Basis { cols }
    }
}

/// How a warm-start hint fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStatus {
    /// No hint was offered: a cold solve (from the overlay's crash basis
    /// when it installs, else from the all-artificial phase 1).
    None,
    /// The hinted basis was primal feasible (possibly after the bound-repair
    /// pivots of [`resolve_with_bounds`]) and phase 1 was skipped.
    Hit,
    /// A hint was offered but rejected (singular or infeasible): a cold
    /// solve, as for [`WarmStatus::None`].
    Miss,
}

/// Bound and RHS updates applied on top of an [`LpProblem`] for one solve,
/// without mutating the problem.
///
/// This is the re-solve surface behind the masked sub-platform formulations:
/// one immutable template LP is shared (even across threads) and each
/// candidate sub-platform is expressed as an overlay — extra variables fixed
/// to zero plus RHS overrides — so every candidate keeps the template's
/// constraint pattern and can warm-start from any previous candidate's
/// basis.
///
/// RHS overrides must not flip the sign of the stored RHS: the sign decides
/// the row's slack/artificial layout, so a sign change builds a structurally
/// different standard form than the signature (and any basis hint) assumes.
/// Correctness is preserved regardless — a mismatched hint is rejected and
/// the solve falls back cold — but the warm start is lost.
#[derive(Debug, Clone, Default)]
pub struct BoundsOverlay {
    /// Variables fixed to zero for this solve (on top of the problem's own
    /// [`LpProblem::is_fixed`] marks).
    pub fix_zero: Vec<VarId>,
    /// `(row, rhs)` overrides of constraint right-hand sides.
    pub rhs: Vec<(usize, f64)>,
    /// A start basis for when the solve has no hint, or its hint fails to
    /// install or to repair (see [`Basis::crash`]). A crash start counts as
    /// a cold solve: its [`WarmStatus`] is never [`WarmStatus::Hit`].
    pub crash: Option<Basis>,
}

impl BoundsOverlay {
    /// An empty overlay (no fixes, no RHS overrides, no crash basis).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Outcome of installing a warm-start hint (see [`Engine::try_warm_start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmInstall {
    /// Singular or primal infeasible: cold basis restored.
    Rejected,
    /// Feasible under the current bounds: phase 1 skipped.
    Ready,
    /// Non-negative but some basic artificial/fixed column is positive: the
    /// bound-repair phase runs before phase 2.
    NeedsRepair,
}

/// What tripped the recovery ladder into escalating past an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryTrigger {
    /// A basis refactorization reported a singular (or numerically
    /// collapsed) basis.
    SingularBasis,
    /// A NaN or infinity was detected in the solution vector or a pivot
    /// ratio.
    NonFinite,
    /// The pricing loop exhausted its internal iteration budget (a stall),
    /// or every improving column was numerically banned.
    IterationLimit,
}

/// The recovery-ladder rung that produced the final answer. Each rung is a
/// full deterministic solve attempt; healthy solves stop at
/// [`RecoveryRung::First`] with one attempt, byte-identical to a
/// ladder-less engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The ordinary first attempt (warm-started when a hint was given,
    /// crash-started when the overlay carries a crash basis).
    First,
    /// The warm-start hint and the crash basis were discarded and the solve
    /// restarted from the all-artificial phase 1: after any error of an
    /// attempt that started from either (a singular basis, a stalled
    /// pricing loop, an injected fault), or when an artificial or
    /// fixed-to-zero column ended such a solve off zero. The phase-2/3
    /// ratio test holds those columns at zero, so the latter takes
    /// numerical drift past the check's tolerance.
    Cold,
    /// Cold restart under aggressive refactorization (every
    /// [`AGGRESSIVE_REFACTOR_EVERY`] pivots), to shed numerical drift.
    AggressiveRefactor,
    /// Cold restart on the *other* basis backend (LU↔eta, relative to the
    /// session default).
    SwappedBasis,
    /// Cold restart under Bland's rule from the first pivot (slow but
    /// cycling-proof).
    Bland,
    /// The dense-tableau oracle — the last resort, immune to every sparse
    /// failure mode.
    Dense,
}

impl RecoveryRung {
    /// The rung's position on the ladder (0 = first attempt, 5 = dense).
    pub fn index(self) -> usize {
        match self {
            RecoveryRung::First => 0,
            RecoveryRung::Cold => 1,
            RecoveryRung::AggressiveRefactor => 2,
            RecoveryRung::SwappedBasis => 3,
            RecoveryRung::Bland => 4,
            RecoveryRung::Dense => 5,
        }
    }
}

/// Refactorization cadence of the [`RecoveryRung::AggressiveRefactor`]
/// rung.
pub const AGGRESSIVE_REFACTOR_EVERY: usize = 16;

/// Per-solve diagnostics (printed on `PM_LP_STATS=1`, returned by
/// [`solve_with_hint`]).
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Constraint rows.
    pub m: usize,
    /// Total columns (structural + slack + artificial).
    pub n: usize,
    /// Stored nonzeros of the full constraint matrix.
    pub nnz: usize,
    /// Phase-1 pivots (0 when phase 1 was skipped), bound-repair pivots
    /// included.
    pub phase1_pivots: usize,
    /// Phase-2 pivots.
    pub phase2_pivots: usize,
    /// Basis refactorizations performed.
    pub refactorizations: usize,
    /// Which basis factorization ran the solve (see
    /// [`crate::solver::BasisKind`]).
    pub basis: BasisKind,
    /// Warm-start outcome.
    pub warm: WarmStatus,
    /// Wall-clock seconds spent in the solve.
    pub wall_s: f64,
    /// Total recovery-ladder attempts (1 for a healthy solve).
    pub attempts: usize,
    /// The ladder rung that produced the result.
    pub rung: RecoveryRung,
    /// What tripped the ladder, when more than one attempt ran.
    pub trigger: Option<RecoveryTrigger>,
    /// Whether the solution is a budget-degraded anytime point (see
    /// [`crate::solver::SolveBudget`]).
    pub degraded: bool,
}

/// A successful revised-simplex solve: the solution plus the optimal basis
/// (for warm-starting the next structurally identical problem) and the
/// solve diagnostics.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The optimal solution.
    pub solution: LpSolution,
    /// The optimal basis.
    pub basis: Basis,
    /// Solve diagnostics.
    pub stats: SolveStats,
}

/// Devex reference-framework pricing state (the LU path's entering rule).
///
/// Reduced costs are maintained incrementally across pivots — the exact
/// algebraic update `rc_j −= α_rj · rc_q / α_rq` over the pivot row `α` —
/// and recomputed from scratch (BTRAN of the basic costs + one pass over
/// the matrix) whenever the factorization changes or optimality is about to
/// be declared, so drift can never certify a wrong optimum. Weights follow
/// the classical devex reference-framework recurrence with the framework
/// reset whenever a weight overflows its trust range.
///
/// The pivot row `α = ρᵀA` is gathered sparsely over the CSR mirror of the
/// constraint matrix that [`StandardForm::csr`] keeps.
#[derive(Debug)]
struct DevexPricing {
    /// Maintained reduced costs, one per column.
    rc: Vec<f64>,
    /// Devex reference weights, one per column.
    weights: Vec<f64>,
    /// Whether `rc` reflects the current basis (false forces a recompute).
    valid: bool,
    /// Whether any pivot was applied since the last full recompute (a dirty
    /// `rc` may have drifted and must be re-verified before concluding
    /// optimality or unboundedness).
    dirty: bool,
    /// Scratch: the pivot row `α` scattered by column, with its pattern in
    /// `acols` (deduplicated through `astamp`/`aepoch`).
    alpha: Vec<f64>,
    acols: Vec<u32>,
    astamp: Vec<u32>,
    aepoch: u32,
    /// Scratch: `ρ = B⁻ᵀ e_r` for the pivot row.
    rho: Vec<f64>,
}

impl DevexPricing {
    fn new(m: usize, n_total: usize) -> Self {
        DevexPricing {
            rc: vec![0.0; n_total],
            weights: vec![1.0; n_total],
            valid: false,
            dirty: false,
            alpha: vec![0.0; n_total],
            acols: Vec::with_capacity(n_total),
            astamp: vec![0; n_total],
            aepoch: 0,
            rho: vec![0.0; m],
        }
    }

    /// The pivot-row entry for column `j` from the last
    /// [`Engine::compute_pivot_row`], respecting the scatter stamps.
    #[inline]
    fn alpha_at(&self, j: usize) -> f64 {
        if self.astamp[j] == self.aepoch {
            self.alpha[j]
        } else {
            0.0
        }
    }

    /// Resets to an all-ones reference framework with invalid reduced costs
    /// (done at phase boundaries: the cost vector changed wholesale).
    fn reset_phase(&mut self) {
        self.valid = false;
        self.dirty = false;
        self.weights.iter_mut().for_each(|w| *w = 1.0);
    }
}

/// Per-attempt engine configuration — the knobs the recovery ladder turns
/// between rungs. The default is byte-identical to the pre-ladder engine.
#[derive(Debug, Clone, Copy)]
struct EngineCfg {
    /// Basis backend (`None` = the session default, see
    /// [`crate::solver::default_basis`]).
    basis: Option<BasisKind>,
    /// Pivots between scheduled refactorizations.
    refactor_every: usize,
    /// Use Bland's rule from the first pivot.
    force_bland: bool,
    /// User-facing work caps (internal phase budgets always apply).
    budget: Option<SolveBudget>,
    /// A chaos fault armed for this attempt (consumed at the first
    /// optimization entry).
    chaos: Option<ChaosFault>,
}

impl EngineCfg {
    fn new(budget: Option<SolveBudget>) -> Self {
        EngineCfg {
            basis: None,
            refactor_every: REFACTOR_EVERY,
            force_bland: false,
            budget,
            chaos: None,
        }
    }
}

/// The revised-simplex working state.
struct Engine {
    /// The standard form being solved (shared, read-only).
    form: Rc<StandardForm>,
    m: usize,
    n_user: usize,
    /// First artificial column; structural + slack columns are below.
    artificial_start: usize,
    n_total: usize,
    /// Basic column of each row.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Columns fixed to zero (problem marks + overlay): they may never enter
    /// the basis, and a hinted basis containing one at a positive level goes
    /// through the bound-repair phase before phase 2.
    fixed: Vec<bool>,
    /// Whether any column is fixed (skips the per-column test otherwise).
    any_fixed: bool,
    /// Set from phase 2 on: the ratio test boxes every basic artificial
    /// and fixed-to-zero column in `[0, 0]` (see [`Engine::pinned`]).
    /// Phase 1, its drive-out and the bound repair run without it, because
    /// they must move those columns.
    hold_pinned: bool,
    /// Entering-column restriction of the lexicographic phase 3 (empty
    /// outside it): only columns whose primary reduced cost was zero at the
    /// phase-2 optimum may enter, so pivots move along the optimal face.
    restrict: Vec<bool>,
    /// The basis factorization (LU by default, eta via `PM_LP_BASIS=eta`).
    fac: BasisRepr,
    /// Devex pricing state — present exactly on the LU path; `None` keeps
    /// the eta path on the legacy Dantzig partial pricing, byte-for-byte.
    pricing: Option<DevexPricing>,
    /// `B⁻¹ b` (perturbed), indexed by row.
    x_b: Vec<f64>,
    /// `B⁻¹ b_shadow` (exact), same pivots.
    x_shadow: Vec<f64>,
    /// Cost of the phase being optimized, per column.
    cost: Vec<f64>,
    /// Rotating partial-pricing cursor.
    price_ptr: usize,
    /// Ratio-test tie-break stream.
    rng: u64,
    refactorizations: usize,
    pivots: usize,
    /// Scratch dense vector for FTRANed columns. Invariant: entries not
    /// listed in `touched` are exactly `0.0`.
    work: Vec<f64>,
    /// Indices of (potentially) nonzero `work` entries, deduplicated via
    /// `stamp`/`epoch`.
    touched: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Scratch dense vector for the BTRANed pricing vector.
    price: Vec<f64>,
    /// Pivots between scheduled refactorizations (the aggressive rung
    /// tightens this).
    refactor_every: usize,
    /// Bland's rule from the first pivot (the anti-cycling rung).
    force_bland: bool,
    /// User-facing work caps for this attempt (`None` = unlimited).
    budget: Option<SolveBudget>,
    /// Set when a user cap (not an internal phase budget) stopped the
    /// iteration — the degradable-budget path, never a ladder trigger.
    budget_exhausted: bool,
    /// First failure cause observed by this attempt (drives the ladder).
    trigger: Option<RecoveryTrigger>,
    /// A chaos fault armed for this attempt, consumed at the first
    /// optimization entry (never at extraction, so injected faults cannot
    /// trip the final-refactorization invariants).
    chaos: Option<ChaosFault>,
}

impl Engine {
    /// Sets up a solve of the problem's standard form (see
    /// [`StandardForm`]) from the all-slack/artificial basis. The overlay's
    /// RHS overrides go into the standard form; its fixed-variable marks
    /// are merged with the problem's own.
    fn new(problem: &LpProblem, overlay: Option<&BoundsOverlay>, cfg: EngineCfg) -> Engine {
        let form = standard_form(problem, overlay);
        let n_user = problem.num_vars();
        let m = form.a.rows();
        let n_total = form.n_total;
        let basis = form.start_basis.clone();
        let mut in_basis = vec![false; n_total];
        for &j in &basis {
            in_basis[j] = true;
        }
        let mut fixed = vec![false; n_total];
        for (j, f) in fixed.iter_mut().take(n_user).enumerate() {
            *f = problem.is_fixed(VarId(j));
        }
        if let Some(overlay) = overlay {
            for &v in &overlay.fix_zero {
                fixed[v.index()] = true;
            }
        }
        let any_fixed = fixed.iter().any(|&f| f);
        let kind = cfg.basis.unwrap_or_else(crate::solver::default_basis);
        let pricing = match kind {
            BasisKind::Lu => Some(DevexPricing::new(m, n_total)),
            BasisKind::Eta => None,
        };
        Engine {
            x_b: form.b.clone(),
            x_shadow: form.b_shadow.clone(),
            fac: BasisRepr::new(kind, m),
            pricing,
            m,
            n_user,
            artificial_start: form.artificial_start,
            n_total,
            form,
            basis,
            in_basis,
            fixed,
            any_fixed,
            hold_pinned: false,
            restrict: Vec::new(),
            cost: vec![0.0; n_total],
            price_ptr: 0,
            rng: 0x9e37_79b9_7f4a_7c15 ^ ((m as u64) << 32) ^ n_total as u64,
            refactorizations: 0,
            pivots: 0,
            work: vec![0.0; m],
            touched: Vec::with_capacity(m),
            stamp: vec![0; m],
            epoch: 0,
            price: vec![0.0; m],
            refactor_every: cfg.refactor_every,
            force_bland: cfg.force_bland,
            budget: cfg.budget,
            budget_exhausted: false,
            trigger: None,
            chaos: cfg.chaos,
        }
    }

    /// Records a failure cause for the recovery ladder (the first one
    /// observed wins) and returns the matching structured error.
    fn fail(&mut self, trigger: RecoveryTrigger) -> LpError {
        self.trigger.get_or_insert(trigger);
        LpError::IterationLimit
    }

    /// Whether a user-facing work cap is spent (internal phase budgets are
    /// separate, see [`crate::solver::phase2_budget`]).
    fn user_budget_exhausted(&self) -> bool {
        let Some(budget) = self.budget else {
            return false;
        };
        budget
            .max_pivots
            .is_some_and(|cap| self.pivots as u64 >= cap)
            || budget
                .max_refactorizations
                .is_some_and(|cap| self.refactorizations as u64 >= cap)
    }

    /// Entry guard of both pricing loops (once per [`Engine::optimize`]
    /// call, off the per-pivot hot path): consumes an armed chaos fault and
    /// verifies the solution vector is finite. In-loop NaN creation is
    /// caught by the O(1) pivot-ratio check in [`Engine::apply_pivot`] —
    /// every NaN entering `x_b` flows through a theta.
    fn entry_guard(&mut self) -> Result<(), LpError> {
        if let Some(fault) = self.chaos.take() {
            match fault {
                ChaosFault::SingularBasis => {
                    return Err(self.fail(RecoveryTrigger::SingularBasis));
                }
                ChaosFault::PricingStall => {
                    return Err(self.fail(RecoveryTrigger::IterationLimit));
                }
                ChaosFault::NanInjection => {
                    // Poison the solution vector and fall through: the
                    // genuine non-finite guard below must catch it.
                    if let Some(v) = self.x_b.first_mut() {
                        *v = f64::NAN;
                    }
                }
                // Hint poisoning happens before the engine exists.
                ChaosFault::PoisonHint => {}
            }
        }
        if self.x_b.iter().any(|v| !v.is_finite()) {
            return Err(self.fail(RecoveryTrigger::NonFinite));
        }
        Ok(())
    }

    /// Per-iteration budget guard (two comparisons): flags user-cap
    /// exhaustion so the caller can degrade instead of escalating.
    fn budget_guard(&mut self) -> Result<(), LpError> {
        if self.user_budget_exhausted() {
            self.budget_exhausted = true;
            return Err(LpError::IterationLimit);
        }
        Ok(())
    }

    /// Rebuilds the basis factorization from scratch (the factorization may
    /// permute basis slots so slot `r` pivots on row `r`), refreshes the
    /// solution vectors from the RHS to shed accumulated drift, and
    /// invalidates the maintained reduced costs. Returns `false` when the
    /// basis is singular.
    fn refactorize(&mut self) -> bool {
        self.refactorizations += 1;
        if !self.fac.refactorize(&self.form.a, &mut self.basis) {
            return false;
        }
        self.recompute_solution_vectors();
        if let Some(p) = &mut self.pricing {
            p.valid = false;
        }
        true
    }

    /// Recomputes `x_b` and `x_shadow` from the RHS through the current
    /// factorization (used after refactorizations to shed accumulated
    /// drift).
    fn recompute_solution_vectors(&mut self) {
        self.x_b.copy_from_slice(&self.form.b);
        self.fac.ftran(&mut self.x_b);
        for v in &mut self.x_b {
            if v.abs() < EPS {
                *v = 0.0;
            }
        }
        self.x_shadow.copy_from_slice(&self.form.b_shadow);
        self.fac.ftran(&mut self.x_shadow);
    }

    /// FTRAN of column `j` into `self.work`, tracking its nonzero pattern
    /// in `self.touched` (previous contents are cleared sparsely).
    fn ftran_col(&mut self, j: usize) {
        for &i in &self.touched {
            self.work[i as usize] = 0.0;
        }
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: reset every stale stamp (0 is never used as an epoch).
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        let (rows, vals) = self.form.a.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            self.stamp[r as usize] = self.epoch;
            self.touched.push(r);
            self.work[r as usize] = v;
        }
        self.fac.ftran_sparse(
            &mut self.work,
            &mut self.touched,
            &mut self.stamp,
            self.epoch,
        );
    }

    /// BTRAN of the basic costs into `self.price` (the pricing vector `y`).
    fn compute_pricing_vector(&mut self) {
        for r in 0..self.m {
            self.price[r] = self.cost[self.basis[r]];
        }
        self.fac.btran(&mut self.price);
    }

    /// Reduced cost of column `j` under the current pricing vector.
    #[inline]
    fn reduced_cost(&self, j: usize) -> f64 {
        self.cost[j] - self.form.a.col_dot(j, &self.price)
    }

    /// Whether column `j` may not enter the basis: already basic, fixed to
    /// zero by the problem/overlay bounds, or outside the optimal-face
    /// restriction of the lexicographic phase 3.
    #[inline]
    fn col_blocked(&self, j: usize) -> bool {
        self.in_basis[j]
            || (self.any_fixed && self.fixed[j])
            || (!self.restrict.is_empty() && !self.restrict[j])
    }

    /// Whether column `j` must sit at level zero whenever it is basic: an
    /// artificial, or a column fixed to zero.
    #[inline]
    fn pinned(&self, j: usize) -> bool {
        j >= self.artificial_start || (self.any_fixed && self.fixed[j])
    }

    /// Whether the ratio test holds the basic column of row `r` at zero
    /// from both sides (from phase 2 on, for pinned columns only).
    #[inline]
    fn held(&self, r: usize) -> bool {
        self.hold_pinned && self.pinned(self.basis[r])
    }

    /// Objective of the current phase at the current (perturbed) point.
    fn phase_objective(&self) -> f64 {
        let mut z = 0.0;
        for r in 0..self.m {
            let c = self.cost[self.basis[r]];
            if c != 0.0 {
                z += c * self.x_b[r];
            }
        }
        z
    }

    fn next_rand(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }

    /// Applies the pivot `(row, entering)` with `self.work` holding
    /// `B⁻¹ a_entering` (pattern in `self.touched`): updates the basis
    /// factorization, the basis and both solution vectors. When the
    /// factorization rejects the update as numerically untrustworthy (a
    /// vanishing Forrest–Tomlin diagonal), the basis is refactorized from
    /// scratch instead — an error there means the exchanged basis is
    /// singular beyond repair.
    ///
    /// A held row (see [`Engine::held`]) left through a negative pivot
    /// element steps by `max(0, x_b / w)`: its column goes back to zero,
    /// never past it.
    fn apply_pivot(&mut self, row: usize, entering: usize) -> Result<(), LpError> {
        let w_r = self.work[row];
        let mut theta = self.x_b[row] / w_r;
        if w_r < 0.0 && self.held(row) {
            theta = theta.max(0.0);
        }
        let theta_shadow = self.x_shadow[row] / w_r;
        if !theta.is_finite() || !theta_shadow.is_finite() {
            // A NaN/inf ratio would poison every touched row: stop on the
            // last consistent vertex and let the recovery ladder escalate.
            return Err(self.fail(RecoveryTrigger::NonFinite));
        }
        for &iu in &self.touched {
            let i = iu as usize;
            let w = self.work[i];
            if i == row || w.abs() <= ETA_DROP {
                continue;
            }
            self.x_b[i] -= theta * w;
            if self.x_b[i].abs() < EPS {
                self.x_b[i] = 0.0;
            }
            self.x_shadow[i] -= theta_shadow * w;
        }
        self.x_b[row] = theta;
        self.x_shadow[row] = theta_shadow;
        let clean = self.fac.update(row, &self.work, &self.touched);
        self.in_basis[self.basis[row]] = false;
        self.in_basis[entering] = true;
        self.basis[row] = entering;
        self.pivots += 1;
        if !clean && !self.refactorize() {
            return Err(self.fail(RecoveryTrigger::SingularBasis));
        }
        Ok(())
    }

    /// Scheduled refactorization: every [`REFACTOR_EVERY`] pivots (fewer on
    /// the aggressive recovery rung), or when the factorization's stored
    /// fill outgrows a small multiple of the matrix.
    fn maybe_refactorize(&mut self) -> Result<(), LpError> {
        let due = self.fac.updates_since_refactor() >= self.refactor_every
            || self.fac.wants_refactor(&self.form.a);
        if due && !self.refactorize() {
            return Err(self.fail(RecoveryTrigger::SingularBasis));
        }
        Ok(())
    }

    /// Chooses the entering column: Bland's rule (first negative reduced
    /// cost by index) when `use_bland`, otherwise Dantzig's rule over
    /// rotating partial-pricing sections. `banned` holds columns excluded
    /// for numerical reasons until the next successful pivot.
    fn choose_entering(
        &mut self,
        allowed_hi: usize,
        use_bland: bool,
        banned: &[usize],
    ) -> Option<usize> {
        if allowed_hi == 0 {
            return None;
        }
        if use_bland {
            for j in 0..allowed_hi {
                if self.col_blocked(j) || banned.contains(&j) {
                    continue;
                }
                if self.reduced_cost(j) < -EPS {
                    return Some(j);
                }
            }
            return None;
        }
        let section = (allowed_hi / 8).max(256).min(allowed_hi);
        let mut scanned = 0usize;
        let mut start = self.price_ptr % allowed_hi;
        while scanned < allowed_hi {
            let len = section.min(allowed_hi - scanned);
            let mut best: Option<usize> = None;
            let mut best_rc = -EPS;
            for offset in 0..len {
                let j = (start + offset) % allowed_hi;
                if self.col_blocked(j) || banned.contains(&j) {
                    continue;
                }
                let rc = self.reduced_cost(j);
                if rc < best_rc {
                    best_rc = rc;
                    best = Some(j);
                }
            }
            if let Some(j) = best {
                self.price_ptr = (j + 1) % allowed_hi;
                return Some(j);
            }
            scanned += len;
            start = (start + len) % allowed_hi;
        }
        None
    }

    /// The ratio test over `self.work` (the FTRANed entering column):
    /// smallest `x_b / w` over `w > EPS`, plus `max(0, x_b / w)` over
    /// `w < −EPS` on held rows (see [`Engine::held`]), ties broken by
    /// smallest basis index under Bland and by seeded reservoir sampling
    /// otherwise (ported from the dense engine, same rationale).
    fn choose_leaving(&mut self, use_bland: bool) -> Option<usize> {
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        let mut ties = 0usize;
        // Only touched entries of the FTRANed column can be nonzero. The
        // traversal order (insertion order of the fill) is deterministic,
        // so the seeded reservoir tie-break stays reproducible.
        for ti in 0..self.touched.len() {
            let r = self.touched[ti] as usize;
            let w = self.work[r];
            let held_below = w < -EPS && self.held(r);
            if w > EPS || held_below {
                let mut ratio = self.x_b[r] / w;
                if held_below {
                    ratio = ratio.max(0.0);
                }
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
        leaving
    }

    /// Runs simplex iterations on the current cost vector until optimal
    /// (all reduced costs ≥ −EPS over `0..allowed_hi`), unbounded, or out
    /// of budget. Returns the pivots performed. Dispatches on the pricing
    /// engine: devex with maintained reduced costs on the LU path, the
    /// legacy rotating Dantzig sections on the eta path.
    fn optimize(&mut self, allowed_hi: usize, budget: usize) -> Result<usize, LpError> {
        self.entry_guard()?;
        if self.pricing.is_some() {
            self.optimize_devex(allowed_hi, budget)
        } else {
            self.optimize_dantzig(allowed_hi, budget)
        }
    }

    /// The legacy pricing loop: BTRAN + Dantzig scan over rotating partial
    /// pricing sections every iteration (Bland's rule after a stall).
    fn optimize_dantzig(&mut self, allowed_hi: usize, budget: usize) -> Result<usize, LpError> {
        let mut stalled = 0usize;
        let mut last_obj = self.phase_objective();
        let mut performed = 0usize;
        // Columns skipped since the last successful pivot because their
        // FTRANed pivot element stayed tiny after a fresh factorization.
        let mut banned: Vec<usize> = Vec::new();
        while performed < budget {
            let use_bland = self.force_bland || stalled >= STALL_SWITCH;
            self.compute_pricing_vector();
            let Some(entering) = self.choose_entering(allowed_hi, use_bland, &banned) else {
                if banned.is_empty() {
                    return Ok(performed);
                }
                // Every remaining improving column is banned: this vertex
                // cannot be certified optimal (a banned column may still
                // price negative). Declaring optimality here would silently
                // return a suboptimal objective — or a spurious Infeasible
                // from phase 1 — so report numerical trouble instead.
                return Err(self.fail(RecoveryTrigger::IterationLimit));
            };
            // The user budget is checked only once an improving column
            // exists: certifying optimality is free, so a budget equal to
            // the exact pivot count still returns a certified optimum.
            self.budget_guard()?;
            self.ftran_col(entering);
            let Some(row) = self.choose_leaving(use_bland) else {
                return Err(LpError::Unbounded);
            };
            if self.work[row].abs() < PIVOT_TOL {
                // Numerically fragile pivot: refresh the factorization and
                // retry; if a fresh factorization still produces a tiny
                // pivot, exclude the column until the basis next changes.
                if self.fac.updates_since_refactor() > 0 {
                    if !self.refactorize() {
                        return Err(self.fail(RecoveryTrigger::SingularBasis));
                    }
                } else {
                    banned.push(entering);
                }
                continue;
            }
            self.apply_pivot(row, entering)?;
            performed += 1;
            banned.clear();
            self.maybe_refactorize()?;
            // Anti-stalling bookkeeping: both phases minimize, so a
            // productive pivot strictly decreases the phase objective.
            let obj = self.phase_objective();
            if obj < last_obj - EPS * (1.0 + last_obj.abs()) {
                stalled = 0;
                last_obj = obj;
            } else {
                stalled += 1;
                if stalled == STALL_SWITCH && self.fac.updates_since_refactor() > 0 {
                    // Entering Bland mode: shed drift first so its reduced
                    // costs are trustworthy.
                    if !self.refactorize() {
                        return Err(self.fail(RecoveryTrigger::SingularBasis));
                    }
                }
            }
        }
        Err(self.fail(RecoveryTrigger::IterationLimit))
    }

    /// Recomputes the maintained reduced costs from scratch: one BTRAN of
    /// the basic costs plus one pass over the matrix (`rc_j = c_j − yᵀa_j`).
    fn recompute_reduced_costs(&mut self) {
        self.compute_pricing_vector();
        let p = self.pricing.as_mut().expect("devex path");
        for j in 0..self.n_total {
            p.rc[j] = self.cost[j] - self.form.a.col_dot(j, &self.price);
        }
        p.valid = true;
        p.dirty = false;
    }

    /// Computes the pivot row `α = (B⁻ᵀ e_row)ᵀ A` into the pricing scratch
    /// (`ρ` dense, `α` scattered over the CSR mirror). Must run *before*
    /// the pivot is applied: the devex rc/weight recurrences are algebra on
    /// the pre-pivot basis.
    fn compute_pivot_row(&mut self, row: usize) {
        let (row_ptr, col_idx, vals) = self.form.csr();
        let p = self.pricing.as_mut().expect("devex path");
        p.rho.iter_mut().for_each(|v| *v = 0.0);
        p.rho[row] = 1.0;
        self.fac.btran(&mut p.rho);
        p.aepoch = p.aepoch.wrapping_add(1);
        if p.aepoch == 0 {
            p.astamp.iter_mut().for_each(|s| *s = 0);
            p.aepoch = 1;
        }
        p.acols.clear();
        for (i, &ri) in p.rho.iter().enumerate() {
            if ri.abs() <= 1e-12 {
                continue;
            }
            for e in row_ptr[i]..row_ptr[i + 1] {
                let j = col_idx[e] as usize;
                if p.astamp[j] != p.aepoch {
                    p.astamp[j] = p.aepoch;
                    p.alpha[j] = 0.0;
                    p.acols.push(j as u32);
                }
                p.alpha[j] += ri * vals[e];
            }
        }
    }

    /// The devex pricing loop (LU path). Reduced costs are maintained
    /// incrementally and re-verified by a full recompute before any
    /// optimality or unboundedness conclusion, so the incremental updates
    /// are a pure accelerator, never a correctness dependency.
    fn optimize_devex(&mut self, allowed_hi: usize, budget: usize) -> Result<usize, LpError> {
        let mut stalled = 0usize;
        let mut last_obj = self.phase_objective();
        let mut performed = 0usize;
        let mut banned: Vec<usize> = Vec::new();
        while performed < budget {
            let use_bland = self.force_bland || stalled >= STALL_SWITCH;
            if !self.pricing.as_ref().expect("devex path").valid {
                self.recompute_reduced_costs();
            }
            // Entering: max rc²/weight (Bland: first improving index), ties
            // to the smallest index for determinism.
            let entering = {
                let p = self.pricing.as_ref().expect("devex path");
                let mut best: Option<usize> = None;
                let mut best_score = 0.0;
                for j in 0..allowed_hi {
                    if self.col_blocked(j) || banned.contains(&j) {
                        continue;
                    }
                    let rc = p.rc[j];
                    if rc < -EPS {
                        if use_bland {
                            best = Some(j);
                            break;
                        }
                        let score = rc * rc / p.weights[j];
                        if score > best_score {
                            best_score = score;
                            best = Some(j);
                        }
                    }
                }
                best
            };
            let Some(entering) = entering else {
                // No improving column in the maintained rc. If pivots were
                // applied since the last full recompute the rc may have
                // drifted: re-verify before certifying this vertex.
                if self.pricing.as_ref().expect("devex path").dirty {
                    self.recompute_reduced_costs();
                    continue;
                }
                if banned.is_empty() {
                    return Ok(performed);
                }
                // Same reasoning as the Dantzig loop: banned columns may
                // still price negative, so this vertex cannot be certified.
                return Err(self.fail(RecoveryTrigger::IterationLimit));
            };
            // As in the Dantzig loop: only an actual pivot costs budget.
            self.budget_guard()?;
            self.ftran_col(entering);
            let Some(row) = self.choose_leaving(use_bland) else {
                // Unboundedness is only trustworthy under fresh reduced
                // costs (the FTRANed column is factual, the sign of its
                // reduced cost may have drifted).
                if self.pricing.as_ref().expect("devex path").dirty {
                    self.recompute_reduced_costs();
                    if self.pricing.as_ref().expect("devex path").rc[entering] < -EPS {
                        return Err(LpError::Unbounded);
                    }
                    continue;
                }
                return Err(LpError::Unbounded);
            };
            if self.work[row].abs() < PIVOT_TOL {
                if self.fac.updates_since_refactor() > 0 {
                    if !self.refactorize() {
                        return Err(self.fail(RecoveryTrigger::SingularBasis));
                    }
                } else {
                    banned.push(entering);
                }
                continue;
            }
            // Pivot row for the rc/weight recurrences, from the pre-pivot
            // basis. Its entry at the entering column must agree with the
            // FTRANed column's pivot element — a mismatch means the
            // factorization has drifted, so refresh and retry instead of
            // pivoting on inconsistent data.
            self.compute_pivot_row(row);
            let alpha_rq = self
                .pricing
                .as_ref()
                .expect("devex path")
                .alpha_at(entering);
            let w_r = self.work[row];
            if (alpha_rq - w_r).abs() > 1e-6 * w_r.abs().max(1.0) {
                if !self.refactorize() {
                    return Err(self.fail(RecoveryTrigger::SingularBasis));
                }
                continue;
            }
            let rc_q = self.pricing.as_ref().expect("devex path").rc[entering];
            let leaving_col = self.basis[row];
            self.apply_pivot(row, entering)?;
            performed += 1;
            banned.clear();
            // Devex recurrences over the pivot row's support (exact algebra
            // on the pre-pivot quantities; columns with α_rj = 0 keep their
            // reduced cost unchanged).
            {
                let p = self.pricing.as_mut().expect("devex path");
                let ratio = rc_q / alpha_rq;
                let wq = p.weights[entering].max(1.0);
                for idx in 0..p.acols.len() {
                    let j = p.acols[idx] as usize;
                    if j == entering || self.in_basis[j] {
                        continue;
                    }
                    let arj = p.alpha[j];
                    if arj == 0.0 {
                        continue;
                    }
                    p.rc[j] -= ratio * arj;
                    let r = arj / alpha_rq;
                    let cand = r * r * wq;
                    if cand > p.weights[j] {
                        p.weights[j] = cand;
                    }
                }
                p.rc[entering] = 0.0;
                p.rc[leaving_col] = -ratio;
                p.weights[leaving_col] = (wq / (alpha_rq * alpha_rq)).max(1.0);
                if p.weights[leaving_col] > 1e8 {
                    // The reference framework has degraded: restart it.
                    p.weights.iter_mut().for_each(|w| *w = 1.0);
                }
                p.dirty = true;
            }
            self.maybe_refactorize()?;
            // Anti-stalling bookkeeping, same as the Dantzig loop.
            let obj = self.phase_objective();
            if obj < last_obj - EPS * (1.0 + last_obj.abs()) {
                stalled = 0;
                last_obj = obj;
            } else {
                stalled += 1;
                if stalled == STALL_SWITCH
                    && self.fac.updates_since_refactor() > 0
                    && !self.refactorize()
                {
                    return Err(self.fail(RecoveryTrigger::SingularBasis));
                }
            }
        }
        Err(self.fail(RecoveryTrigger::IterationLimit))
    }

    /// Installs a start basis: a warm-start hint or a crash basis.
    ///
    /// * [`WarmInstall::Ready`] — nonsingular and primal feasible under the
    ///   current bounds: phase 1 can be skipped outright.
    /// * [`WarmInstall::NeedsRepair`] — nonsingular and non-negative, but
    ///   some basic artificial or fixed-to-zero column sits at a positive
    ///   level (the RHS or the fixed set changed since the hint's solve).
    ///   The basis stays installed for [`Engine::repair_bounds`].
    /// * [`WarmInstall::Rejected`] — singular or primal infeasible: the
    ///   all-slack/artificial cold basis is restored.
    fn try_warm_start(&mut self, hint: &Basis) -> WarmInstall {
        if hint.cols.len() != self.m {
            return WarmInstall::Rejected;
        }
        let mut cols = Vec::with_capacity(self.m);
        let mut used = vec![false; self.n_total];
        for (r, &c) in hint.cols.iter().enumerate() {
            // Redundant rows re-enter on their own artificial (or slack for
            // an inequality row, which has one by construction).
            let col = if c == Basis::REDUNDANT {
                match self.form.row_artificial[r].or(self.form.row_slack[r]) {
                    Some(col) => col,
                    None => return WarmInstall::Rejected,
                }
            } else if c < self.artificial_start {
                c
            } else {
                return WarmInstall::Rejected;
            };
            if used[col] {
                return WarmInstall::Rejected;
            }
            used[col] = true;
            cols.push(col);
        }
        let saved_basis = std::mem::replace(&mut self.basis, cols);
        let saved_in_basis = std::mem::replace(&mut self.in_basis, used);
        if !self.refactorize() {
            // Singular: restore the all-slack/artificial cold basis.
            self.basis = saved_basis;
            self.in_basis = saved_in_basis;
            let ok = self.refactorize();
            debug_assert!(ok, "initial unit basis cannot be singular");
            return WarmInstall::Rejected;
        }
        if self.x_b.iter().any(|&v| v < -PIVOT_TOL) {
            self.basis = saved_basis;
            self.in_basis = saved_in_basis;
            let ok = self.refactorize();
            debug_assert!(ok, "initial unit basis cannot be singular");
            return WarmInstall::Rejected;
        }
        let violated = (0..self.m).any(|r| self.pinned(self.basis[r]) && self.x_b[r] > PIVOT_TOL);
        if violated {
            WarmInstall::NeedsRepair
        } else {
            WarmInstall::Ready
        }
    }

    /// Phase-1-style bound repair from an installed (non-negative but
    /// bound-violating) hint basis: minimizes the total level of every
    /// artificial and fixed-to-zero column, entering only free structural
    /// and slack columns. Returns `Ok(true)` when the violation was driven
    /// to zero, `Ok(false)` when a positive residual remains (the hint
    /// cannot be repaired — the caller falls back to a cold solve, which
    /// also settles genuine infeasibility).
    fn repair_bounds(&mut self) -> Result<bool, LpError> {
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in self.artificial_start..self.n_total {
            self.cost[j] = 1.0;
        }
        if self.any_fixed {
            for j in 0..self.artificial_start {
                if self.fixed[j] {
                    self.cost[j] = 1.0;
                }
            }
        }
        self.price_ptr = 0;
        if let Some(p) = &mut self.pricing {
            p.reset_phase();
        }
        let budget = phase1_budget(self.m, self.n_total);
        self.optimize(self.artificial_start, budget)?;
        Ok(self.phase_objective() <= 1e-6)
    }

    /// Phase 1: minimize the sum of artificial variables from the unit
    /// basis.
    fn phase1(&mut self) -> Result<(), LpError> {
        if self.artificial_start == self.n_total {
            return Ok(());
        }
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in self.artificial_start..self.n_total {
            self.cost[j] = 1.0;
        }
        if let Some(p) = &mut self.pricing {
            p.reset_phase();
        }
        let budget = phase1_budget(self.m, self.n_total);
        self.optimize(self.n_total, budget)?;
        if self.phase_objective() > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive lingering artificial variables out of the basis where a
        // structural pivot exists (rows without one are redundant and keep
        // their artificial at level zero). No scheduled refactorization
        // inside this scan: `refactorize` re-derives the row ↔ basic-column
        // assignment by partial pivoting, which could move a still-basic
        // artificial to an already-visited row index and let it escape the
        // drive-out. The at most `m` extra etas are well within one
        // refactorization cycle, and phase 2 refactorizes on schedule.
        for r in 0..self.m {
            if self.basis[r] < self.artificial_start {
                continue;
            }
            // Row r of B⁻¹.
            self.price.iter_mut().for_each(|v| *v = 0.0);
            self.price[r] = 1.0;
            self.fac.btran(&mut self.price);
            let mut pivot_col = None;
            for j in 0..self.artificial_start {
                if self.col_blocked(j) {
                    continue;
                }
                if self.form.a.col_dot(j, &self.price).abs() > PIVOT_TOL {
                    pivot_col = Some(j);
                    break;
                }
            }
            if let Some(j) = pivot_col {
                self.ftran_col(j);
                // Same acceptance threshold as the dense engine's drive-out:
                // x_b[r] is ≤ the phase-1 tolerance here and there is no
                // ratio test, so theta = x_b[r] / work[r] must stay bounded
                // — a 1e-10 pivot would scatter O(1e4)-sized errors.
                if self.work[r].abs() > PIVOT_TOL {
                    self.apply_pivot(r, j)?;
                }
            }
        }
        Ok(())
    }

    /// Whether every artificial variable and every fixed-to-zero column
    /// still in the basis sits at level zero (exact shadow RHS). Called
    /// after [`Engine::extract`], whose final refactorization has just
    /// recomputed `x_shadow` to factorization accuracy.
    fn bounds_at_zero(&self) -> bool {
        (0..self.m).all(|r| !self.pinned(self.basis[r]) || self.x_shadow[r].abs() <= 1e-6)
    }

    /// Phase 2: minimize the (sense-normalised) user objective; artificial
    /// columns may never re-enter, and from here on the ratio test holds
    /// the pinned basic columns at zero.
    fn phase2(&mut self, problem: &LpProblem) -> Result<usize, LpError> {
        self.hold_pinned = true;
        let sense = match problem.objective() {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in 0..self.n_user {
            self.cost[j] = sense * problem.objective_coeff(VarId(j));
        }
        self.price_ptr = 0;
        if let Some(p) = &mut self.pricing {
            p.reset_phase();
        }
        let budget = phase2_budget(self.m, self.n_total);
        self.optimize(self.artificial_start, budget)
    }

    /// Phase 3 (lexicographic cleanup, run only when the problem carries a
    /// secondary objective): minimizes `Σ secondaryⱼ·xⱼ` over the phase-2
    /// optimal face. Only columns whose primary reduced cost is zero at the
    /// phase-2 optimum may enter, so every pivot keeps the primary objective
    /// value — in exact arithmetic the primary reduced costs are *invariant*
    /// under such pivots (`rc'ⱼ = rcⱼ − rc_q·αⱼ/α_q` with `rc_q = 0`), which
    /// also means the eligible set is fixed once at entry (a leaving basic
    /// column re-joins it with reduced cost zero). Whenever the secondary
    /// optimum is unique, every pivot path — cold, warm-started, eta or LU —
    /// lands on the same vertex, which is the whole point: downstream
    /// consumers that read the *values* (greedy node scores, tree
    /// decompositions) become independent of the solve history.
    ///
    /// Restores the phase-2 costs before returning so the dual extraction in
    /// [`Engine::extract`] keeps pricing the primary objective.
    fn phase3(&mut self, problem: &LpProblem) -> Result<usize, LpError> {
        // Shed factorization drift first: eligibility is decided by primary
        // reduced costs and a 1e-9 threshold needs trustworthy numbers.
        if self.fac.updates_since_refactor() > 0 && !self.refactorize() {
            return Err(self.fail(RecoveryTrigger::SingularBasis));
        }
        self.compute_pricing_vector();
        let mut restrict = vec![false; self.n_total];
        for (j, r) in restrict.iter_mut().enumerate().take(self.artificial_start) {
            if self.any_fixed && self.fixed[j] {
                continue;
            }
            if self.in_basis[j] || self.reduced_cost(j).abs() <= EPS {
                *r = true;
            }
        }
        // The secondary is always minimized as given (no sense flip).
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in 0..self.n_user {
            self.cost[j] = problem.secondary_coeff(VarId(j));
        }
        self.restrict = restrict;
        self.price_ptr = 0;
        if let Some(p) = &mut self.pricing {
            p.reset_phase();
        }
        let budget = phase2_budget(self.m, self.n_total);
        let out = match self.optimize(self.artificial_start, budget) {
            // A descent ray of the *secondary* does not make the problem
            // unbounded — the primary optimum is already certified, and the
            // current vertex is on the optimal face. Canonicalization is
            // best-effort: stop here. (Unreachable for the non-negative
            // secondaries pm-core emits, which are bounded below by zero.)
            Err(LpError::Unbounded) => Ok(self.pivots),
            other => other,
        };
        self.restrict = Vec::new();
        // Reinstall the phase-2 costs: `extract` derives the duals from
        // `self.cost` and they must certify the *primary* objective.
        let sense = match problem.objective() {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for j in 0..self.n_user {
            self.cost[j] = sense * problem.objective_coeff(VarId(j));
        }
        out
    }

    /// Extracts the solution values from the exact shadow RHS after a final
    /// refactorization (so the reported point solves `B x_B = b` to
    /// factorization accuracy, not eta-accumulation accuracy).
    fn extract(&mut self, problem: &LpProblem) -> (LpSolution, Basis) {
        if self.fac.updates_since_refactor() > 0 {
            let ok = self.refactorize();
            debug_assert!(ok, "optimal basis cannot be singular");
        }
        let mut values = vec![0.0; self.n_user];
        for r in 0..self.m {
            let j = self.basis[r];
            if j < self.n_user && !(self.any_fixed && self.fixed[j]) {
                values[j] = self.x_shadow[r].max(0.0);
            }
            // A fixed column still basic is at level ~0 (held there by the
            // phase-2/3 ratio test and checked by the caller's
            // `bounds_at_zero`); report it as exactly 0.
        }
        let objective = problem.objective_value_at(&values);
        // Duals: `y = B⁻ᵀ c_B` under the phase-2 costs still installed in
        // `self.cost`, mapped back to the user's rows by undoing the `b ≥ 0`
        // sign flips and the sense normalisation. The pricing vector never
        // sees the anti-degeneracy RHS perturbation (reduced costs are
        // independent of the RHS), so these are the duals of the *exact*
        // problem — strong duality holds against the unperturbed right-hand
        // sides.
        self.compute_pricing_vector();
        let sense = match problem.objective() {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let duals: Vec<f64> = (0..self.m)
            .map(|r| {
                let y = if self.form.row_flip[r] {
                    -self.price[r]
                } else {
                    self.price[r]
                };
                sense * y
            })
            .collect();
        let cols = self
            .basis
            .iter()
            .map(|&j| {
                if j < self.artificial_start {
                    j
                } else {
                    Basis::REDUNDANT
                }
            })
            .collect();
        (
            LpSolution::with_duals(objective, values, duals),
            Basis { cols },
        )
    }
}

/// The standard form of a problem, as the revised engine solves it: rows
/// normalised to `b ≥ 0`, `Le` rows with a slack, `Ge` rows with a surplus
/// and an artificial, `Eq` rows with an artificial; inequality RHS relaxed
/// by the seeded anti-degeneracy perturbation with an exact shadow.
///
/// It is a pure function of the problem's variables, matrix and RHS (plus
/// any overlay RHS overrides) and never changes during a solve, so engines
/// share it read-only: see [`standard_form`] for its per-thread reuse.
#[derive(Debug)]
struct StandardForm {
    a: CscMatrix,
    /// CSR mirror of `a` (row pointers, column indices, values) for the
    /// devex pivot rows, built on first use.
    csr: OnceCell<(Vec<usize>, Vec<u32>, Vec<f64>)>,
    /// Perturbed RHS (drives ratio tests, never reported).
    b: Vec<f64>,
    /// Exact RHS (solution values are read from its transform).
    b_shadow: Vec<f64>,
    /// First artificial column; structural + slack columns are below.
    artificial_start: usize,
    n_total: usize,
    /// Per row: its slack/surplus column, if any.
    row_slack: Vec<Option<usize>>,
    /// Per row: its artificial column, if any.
    row_artificial: Vec<Option<usize>>,
    /// Per row: whether the `b ≥ 0` normalisation negated it (needed to map
    /// the standard-form duals back to the user's rows).
    row_flip: Vec<bool>,
    /// The all-slack/artificial start basis, one column per row.
    start_basis: Vec<usize>,
}

impl StandardForm {
    /// Builds the standard form, mirroring the dense engine. The overlay's
    /// RHS overrides are applied before normalisation.
    fn build(problem: &LpProblem, overlay: Option<&BoundsOverlay>) -> StandardForm {
        let n_user = problem.num_vars();
        let constraints = problem.constraints();
        let m = constraints.len();

        let mut rhs_override: Vec<Option<f64>> = Vec::new();
        if let Some(overlay) = overlay {
            if !overlay.rhs.is_empty() {
                rhs_override = vec![None; m];
                for &(r, v) in &overlay.rhs {
                    rhs_override[r] = Some(v);
                }
            }
        }
        let row_rhs = |r: usize, stored: f64| -> f64 {
            rhs_override.get(r).and_then(|o| *o).unwrap_or(stored)
        };

        let mut num_slack = 0usize;
        let mut num_artificial = 0usize;
        let mut relations = Vec::with_capacity(m);
        for (r, c) in constraints.iter().enumerate() {
            let relation = effective_relation(c.relation, row_rhs(r, c.rhs) < 0.0);
            relations.push(relation);
            match relation {
                Relation::Le => num_slack += 1,
                Relation::Ge => {
                    num_slack += 1;
                    num_artificial += 1;
                }
                Relation::Eq => num_artificial += 1,
            }
        }
        let artificial_start = n_user + num_slack;
        let n_total = artificial_start + num_artificial;

        let nnz_guess: usize = constraints.iter().map(|c| c.terms.len()).sum();
        let mut triplets = Vec::with_capacity(nnz_guess + num_slack + num_artificial);
        let mut b = vec![0.0; m];
        let mut start_basis = vec![usize::MAX; m];
        let mut row_slack = vec![None; m];
        let mut row_artificial = vec![None; m];
        let mut row_flip = vec![false; m];
        let mut slack_idx = n_user;
        let mut art_idx = artificial_start;
        for (r, c) in constraints.iter().enumerate() {
            let rhs = row_rhs(r, c.rhs);
            let flip = rhs < 0.0;
            row_flip[r] = flip;
            let sign = if flip { -1.0 } else { 1.0 };
            for &(v, coeff) in &c.terms {
                triplets.push((r, v.index(), sign * coeff));
            }
            b[r] = sign * rhs;
            match relations[r] {
                Relation::Le => {
                    triplets.push((r, slack_idx, 1.0));
                    row_slack[r] = Some(slack_idx);
                    start_basis[r] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    triplets.push((r, slack_idx, -1.0));
                    row_slack[r] = Some(slack_idx);
                    slack_idx += 1;
                    triplets.push((r, art_idx, 1.0));
                    row_artificial[r] = Some(art_idx);
                    start_basis[r] = art_idx;
                    art_idx += 1;
                }
                Relation::Eq => {
                    triplets.push((r, art_idx, 1.0));
                    row_artificial[r] = Some(art_idx);
                    start_basis[r] = art_idx;
                    art_idx += 1;
                }
            }
        }
        let a = CscMatrix::from_triplets(m, n_total, &triplets);

        // Anti-degeneracy RHS perturbation with exact shadow (shared scheme
        // and seed with the dense engine, see `solver::perturb_rhs`).
        let b_shadow = b.clone();
        perturb_rhs(&mut b, &relations, n_total);
        StandardForm {
            a,
            csr: OnceCell::new(),
            b,
            b_shadow,
            artificial_start,
            n_total,
            row_slack,
            row_artificial,
            row_flip,
            start_basis,
        }
    }

    /// The CSR mirror of the matrix as `(row_ptr, col_idx, values)`.
    fn csr(&self) -> (&[usize], &[u32], &[f64]) {
        let (row_ptr, col_idx, vals) = self.csr.get_or_init(|| self.a.to_csr());
        (row_ptr, col_idx, vals)
    }
}

thread_local! {
    /// The standard form of the last problem solved on this thread without
    /// RHS overrides, with the problem's content stamp.
    static LAST_FORM: Cell<Option<(u64, Rc<StandardForm>)>> = const { Cell::new(None) };
}

/// The standard form of `problem` under `overlay`. A solve of the problem
/// the thread solved last, with unchanged content (same
/// [`LpProblem::stamp`]), shares that solve's form: the greedy heuristics'
/// masked re-solves differ only in fixed columns, which are not part of it.
/// Overlays with RHS overrides always build a private form. The slot is
/// only touched through `Cell::take`/`set`, never borrowed, so the recovery
/// ladder's nested engines can consult it freely.
fn standard_form(problem: &LpProblem, overlay: Option<&BoundsOverlay>) -> Rc<StandardForm> {
    if overlay.is_some_and(|o| !o.rhs.is_empty()) {
        return Rc::new(StandardForm::build(problem, overlay));
    }
    let stamp = problem.stamp();
    // A form of other content is dropped before the new one is built.
    let form = match LAST_FORM.with(Cell::take).filter(|(s, _)| *s == stamp) {
        Some((_, form)) => form,
        None => Rc::new(StandardForm::build(problem, None)),
    };
    LAST_FORM.with(|slot| slot.set(Some((stamp, Rc::clone(&form)))));
    form
}

/// Returns the engine's LU factorization to the thread for the next engine.
impl Drop for Engine {
    fn drop(&mut self) {
        // An empty eta file allocates nothing.
        std::mem::replace(&mut self.fac, BasisRepr::Eta(EtaBasis::default())).recycle();
    }
}

/// Solves a problem with the revised simplex, optionally warm-starting from
/// the basis of a previous structurally identical solve. The hint is only
/// ever an accelerator: a rejected hint falls back to a cold two-phase
/// solve, so correctness never depends on it.
pub fn solve_with_hint(problem: &LpProblem, hint: Option<&Basis>) -> Result<SolveOutcome, LpError> {
    solve_with_overlay(problem, None, hint, None)
}

/// [`solve_with_hint`] under explicit work caps; see
/// [`resolve_with_bounds_budgeted`] for the degradation semantics.
pub fn solve_with_hint_budgeted(
    problem: &LpProblem,
    hint: Option<&Basis>,
    budget: Option<SolveBudget>,
) -> Result<SolveOutcome, LpError> {
    solve_with_overlay(problem, None, hint, budget)
}

/// Re-solves a problem under a [`BoundsOverlay`] (extra variables fixed to
/// zero, RHS overrides), warm-starting from `hint` when given.
///
/// This is the masked-formulation fast path: when the hint basis contains
/// newly fixed columns (or the RHS overrides moved a hinted basis off its
/// old level), a deterministic *bound-repair* phase drives the violating
/// columns back to zero in a few pivots instead of discarding the hint and
/// paying a cold phase 1+2. Like plain warm starts, the repair is an
/// accelerator only — any failure falls back to a cold solve.
///
/// ```
/// use pm_lp::revised::{resolve_with_bounds, BoundsOverlay};
/// use pm_lp::{LpProblem, Objective, Relation};
///
/// // maximize x + y  s.t.  x + y <= 3,  x <= 2
/// let mut lp = LpProblem::new(Objective::Maximize);
/// let x = lp.add_var("x");
/// let y = lp.add_var("y");
/// lp.set_objective_coeff(x, 1.0);
/// lp.set_objective_coeff(y, 1.0);
/// lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
/// lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
///
/// // Cold solve of the unmodified problem; keep the optimal basis.
/// let cold = resolve_with_bounds(&lp, &BoundsOverlay::default(), None).unwrap();
/// assert!((cold.solution.objective - 3.0).abs() < 1e-9);
///
/// // Re-solve with y fixed to zero and a tightened RHS, warm-starting
/// // from the previous basis — the problem itself is untouched.
/// let mut overlay = BoundsOverlay::default();
/// overlay.fix_zero.push(y);
/// overlay.rhs.push((1, 1.5)); // row 1: x <= 1.5
/// let warm = resolve_with_bounds(&lp, &overlay, Some(&cold.basis)).unwrap();
/// assert!((warm.solution.objective - 1.5).abs() < 1e-9);
/// assert!((warm.solution.value(y)).abs() < 1e-9);
/// ```
pub fn resolve_with_bounds(
    problem: &LpProblem,
    overlay: &BoundsOverlay,
    hint: Option<&Basis>,
) -> Result<SolveOutcome, LpError> {
    solve_with_overlay(problem, Some(overlay), hint, None)
}

/// [`resolve_with_bounds`] under explicit work caps (see
/// [`crate::solver::SolveBudget`]): when phase 2 runs out of budget after
/// reaching feasibility, the current vertex is returned as an anytime
/// solution flagged [`LpSolution::degraded`] — its objective is a valid
/// bound on the optimum (primal feasibility is maintained throughout
/// phase 2). `budget: None` falls back to the `PM_LP_BUDGET` default.
pub fn resolve_with_bounds_budgeted(
    problem: &LpProblem,
    overlay: &BoundsOverlay,
    hint: Option<&Basis>,
    budget: Option<SolveBudget>,
) -> Result<SolveOutcome, LpError> {
    solve_with_overlay(problem, Some(overlay), hint, budget)
}

/// Deterministically corrupts a warm-start hint (the
/// [`crate::chaos::ChaosFault::PoisonHint`] injection): a few pseudo-random
/// rows are marked redundant, so their artificials re-enter the basis at
/// whatever level the RHS dictates — exactly the adversarial-hint shape the
/// post-phase-2 proof obligation exists to catch.
fn poison_hint(hint: &Basis, hash: u64) -> Basis {
    let mut cols = hint.cols.clone();
    if !cols.is_empty() {
        let mut h = hash;
        let strikes = 1 + (splitmix64(&mut h) as usize % cols.len().min(3));
        for _ in 0..strikes {
            let i = splitmix64(&mut h) as usize % cols.len();
            cols[i] = Basis::REDUNDANT;
        }
    }
    Basis { cols }
}

/// The [`RecoveryRung::Dense`] oracle: materializes the overlay into a
/// cloned problem and solves it with the dense tableau simplex, which
/// shares none of the sparse engine's failure modes (no factorization, no
/// incremental pricing) and ignores user budgets — the ladder's guaranteed
/// termination. The returned basis marks every row redundant: it installs
/// as the unit basis if ever used as a hint, which the repair phase handles
/// like any other stale hint. The dense oracle reports no duals.
fn dense_fallback(
    problem: &LpProblem,
    overlay: Option<&BoundsOverlay>,
) -> Result<(LpSolution, Basis), LpError> {
    let solution = match overlay {
        Some(overlay) if !overlay.fix_zero.is_empty() || !overlay.rhs.is_empty() => {
            let mut materialized = problem.clone();
            for &v in &overlay.fix_zero {
                materialized.fix_var(v);
            }
            for &(row, rhs) in &overlay.rhs {
                materialized.set_rhs(row, rhs);
            }
            crate::simplex::solve(&materialized)?
        }
        _ => crate::simplex::solve(problem)?,
    };
    let cols = vec![Basis::REDUNDANT; problem.num_constraints()];
    Ok((solution, Basis { cols }))
}

/// The dense-engine path of [`LpProblem::resolve_with_bounds_budgeted`]
/// (`PM_LP_SOLVER=dense`, [`crate::set_default_solver`]): the dense oracle
/// solves the overlay-materialized problem, as the ladder's last rung does.
/// Hints, crash bases and budgets do not apply to it, so every such solve
/// is cold. Its stats report the [`RecoveryRung::Dense`] rung on one
/// attempt and no pivot counts (the dense engine prints those under
/// `PM_LP_STATS=1`).
pub(crate) fn resolve_dense(
    problem: &LpProblem,
    overlay: &BoundsOverlay,
    hint: Option<&Basis>,
) -> Result<SolveOutcome, LpError> {
    let start = std::time::Instant::now();
    let (solution, basis) = dense_fallback(problem, Some(overlay))?;
    let n_user = problem.num_vars();
    let n = n_user
        + problem
            .constraints()
            .iter()
            .map(|c| match effective_relation(c.relation, c.rhs < 0.0) {
                Relation::Ge => 2,
                Relation::Le | Relation::Eq => 1,
            })
            .sum::<usize>();
    let terms: usize = problem.constraints().iter().map(|c| c.terms.len()).sum();
    let stats = SolveStats {
        m: problem.num_constraints(),
        n,
        nnz: terms + n - n_user,
        phase1_pivots: 0,
        phase2_pivots: 0,
        refactorizations: 0,
        basis: crate::solver::default_basis(),
        warm: if hint.is_some() {
            WarmStatus::Miss
        } else {
            WarmStatus::None
        },
        wall_s: start.elapsed().as_secs_f64(),
        attempts: 1,
        rung: RecoveryRung::Dense,
        trigger: None,
        degraded: false,
    };
    Ok(SolveOutcome {
        solution,
        basis,
        stats,
    })
}

fn solve_with_overlay(
    problem: &LpProblem,
    overlay: Option<&BoundsOverlay>,
    hint: Option<&Basis>,
    budget: Option<SolveBudget>,
) -> Result<SolveOutcome, LpError> {
    let start = std::time::Instant::now();
    let budget = budget.or_else(crate::solver::default_budget);
    let plan: Option<ChaosPlan> = crate::chaos::plan(|| signature(problem));
    let swapped = match crate::solver::default_basis() {
        BasisKind::Lu => BasisKind::Eta,
        BasisKind::Eta => BasisKind::Lu,
    };

    // The deterministic recovery ladder. Rung 0 and rung 1 are the ordinary
    // attempt (from the hint, else the overlay's crash basis, else the
    // all-artificial phase 1) and the cold fallback that discards both hint
    // and crash. A start from an installed basis skipped phase 1, so its
    // result carries an extra proof obligation — every re-entered
    // artificial and fixed column must have stayed at level zero through
    // phase 2 — and a violation (or any error: the start can steer the
    // iteration budget into a corner the cold path avoids) discards hint
    // and crash entirely. The phase-2/3 ratio test holds those columns at
    // zero, so the obligation fails only on faults; it stays because it is
    // what makes any start basis, however corrupt, safe to accept. Rungs
    // 2–4 only run on failures the old engine would have surfaced raw:
    // tighter refactorization against drift, the other basis backend
    // against factorization bugs, Bland's rule against cycling. The dense
    // oracle terminates the ladder unconditionally.
    // Structured verdicts (Infeasible/Unbounded/InvalidModel) and exhausted
    // user budgets never escalate.
    const LADDER: [RecoveryRung; 5] = [
        RecoveryRung::First,
        RecoveryRung::Cold,
        RecoveryRung::AggressiveRefactor,
        RecoveryRung::SwappedBasis,
        RecoveryRung::Bland,
    ];
    let mut attempts = 0usize;
    let mut trigger: Option<RecoveryTrigger> = None;
    let mut chosen: Option<(Attempt, WarmStatus, RecoveryRung)> = None;
    let mut failed: Option<(Attempt, WarmStatus, LpError)> = None;
    let mut exhausted_sparse = true;
    let mut idx = 0usize;
    while idx < LADDER.len() {
        let rung = LADDER[idx];
        let mut cfg = EngineCfg::new(budget);
        match rung {
            RecoveryRung::AggressiveRefactor => cfg.refactor_every = AGGRESSIVE_REFACTOR_EVERY,
            RecoveryRung::SwappedBasis => cfg.basis = Some(swapped),
            RecoveryRung::Bland => cfg.force_bland = true,
            _ => {}
        }
        let (attempt_hint, attempt_crash) = if rung == RecoveryRung::First {
            (hint, overlay.and_then(|o| o.crash.as_ref()))
        } else {
            (None, None)
        };
        // Chaos: the plan strikes the first `strikes` ladder attempts, so
        // injected faults are survivable by construction (the dense rung is
        // immune) and recovery is observable.
        let strike = plan.filter(|p| attempts < p.strikes);
        let poisoned: Option<Basis>;
        let attempt_hint = match (strike, attempt_hint) {
            (Some(p), Some(h)) if p.fault == ChaosFault::PoisonHint => {
                poisoned = Some(poison_hint(h, p.hash));
                poisoned.as_ref()
            }
            _ => attempt_hint,
        };
        if let Some(p) = strike {
            if p.fault != ChaosFault::PoisonHint {
                cfg.chaos = Some(p.fault);
            }
        }
        let (attempt, warm) = attempt_solve(problem, overlay, attempt_hint, attempt_crash, cfg);
        attempts += 1;
        match &attempt.outcome {
            Ok(_) => {
                if rung == RecoveryRung::First
                    && attempt.installed
                    && !attempt.engine.bounds_at_zero()
                {
                    idx = 1;
                    continue;
                }
                chosen = Some((attempt, warm, rung));
                exhausted_sparse = false;
                break;
            }
            Err(e) => {
                let e = e.clone();
                if attempt.engine.budget_exhausted {
                    // Out of user budget before feasibility: retrying under
                    // the same caps cannot help.
                    failed = Some((attempt, warm, e));
                    exhausted_sparse = false;
                    break;
                }
                match attempt.engine.trigger {
                    Some(t) => {
                        if trigger.is_none() {
                            trigger = Some(t);
                        }
                        let next = if rung == RecoveryRung::First && !attempt.installed {
                            // The first attempt already ran the
                            // all-artificial phase 1 (no start basis
                            // installed): rung 1 would repeat it verbatim.
                            2
                        } else {
                            idx + 1
                        };
                        failed = Some((attempt, warm, e));
                        idx = next;
                        continue;
                    }
                    None => {
                        if rung == RecoveryRung::First && attempt.installed {
                            // Legacy fallback: any error of an attempt from
                            // a hint or crash basis discards both and
                            // re-solves cold.
                            failed = Some((attempt, warm, e));
                            idx = 1;
                            continue;
                        }
                        // A structured verdict from an (effectively) cold
                        // solve is final.
                        failed = Some((attempt, warm, e));
                        exhausted_sparse = false;
                        break;
                    }
                }
            }
        }
    }

    // Every sparse rung failed with a recoverable trigger: the dense
    // tableau oracle is the last resort.
    let mut dense_result: Option<Result<(LpSolution, Basis), LpError>> = None;
    if chosen.is_none() && exhausted_sparse {
        attempts += 1;
        dense_result = Some(dense_fallback(problem, overlay));
    }

    // Assemble the stats from the decisive attempt (the winning one, or the
    // last failure when everything failed). The dense rung reports the last
    // sparse attempt's dimensions with its own rung marker.
    let hint_offered = hint.is_some();
    let build_stats =
        |attempt: &Attempt, warm: WarmStatus, rung: RecoveryRung, degraded: bool| SolveStats {
            m: attempt.engine.m,
            n: attempt.engine.n_total,
            nnz: attempt.engine.form.a.nnz(),
            phase1_pivots: attempt.phase1_pivots,
            phase2_pivots: attempt.phase2_pivots,
            refactorizations: attempt.engine.refactorizations,
            basis: attempt.engine.fac.kind(),
            warm: if rung == RecoveryRung::First {
                warm
            } else if hint_offered {
                WarmStatus::Miss
            } else {
                WarmStatus::None
            },
            wall_s: start.elapsed().as_secs_f64(),
            attempts,
            rung,
            trigger,
            degraded,
        };

    let injected = plan.is_some();
    let outcome: Result<SolveOutcome, (SolveStats, LpError)> = match (chosen, dense_result) {
        (Some((attempt, warm, rung)), _) => {
            let degraded = matches!(&attempt.outcome, Ok((s, _)) if s.degraded());
            let stats = build_stats(&attempt, warm, rung, degraded);
            let (solution, basis) = attempt
                .outcome
                .expect("chosen attempt is the successful one");
            Ok(SolveOutcome {
                solution,
                basis,
                stats,
            })
        }
        (None, Some(Ok((solution, basis)))) => {
            let (last, warm, _) = failed
                .take()
                .expect("the dense rung only runs after a failure");
            let mut stats = build_stats(&last, warm, RecoveryRung::Dense, false);
            stats.phase1_pivots = 0;
            stats.phase2_pivots = 0;
            Ok(SolveOutcome {
                solution,
                basis,
                stats,
            })
        }
        (None, Some(Err(e))) => {
            let (last, warm, _) = failed
                .take()
                .expect("the dense rung only runs after a failure");
            let stats = build_stats(&last, warm, RecoveryRung::Dense, false);
            Err((stats, e))
        }
        (None, None) => {
            let (last, warm, e) = failed.expect("a failed ladder recorded its last attempt");
            let rung = if attempts > 1 {
                LADDER[(attempts - 1).min(LADDER.len() - 1)]
            } else {
                RecoveryRung::First
            };
            let stats = build_stats(&last, warm, rung, false);
            Err((stats, e))
        }
    };

    match outcome {
        Ok(out) => {
            crate::chaos::record_outcome(
                injected,
                Some(out.stats.rung.index()),
                out.stats.degraded,
                false,
            );
            if stats_enabled() {
                print_stats(&out.stats, "ok");
            }
            Ok(out)
        }
        Err((stats, e)) => {
            crate::chaos::record_outcome(injected, None, false, e == LpError::IterationLimit);
            if stats_enabled() {
                print_stats(&stats, &format!("{e:?}"));
            }
            Err(e)
        }
    }
}

/// One two-phase run: from a hint, a crash basis or the all-artificial
/// phase 1.
struct Attempt {
    engine: Engine,
    /// Whether the run started from an installed hint or crash basis, so
    /// phase 1 was skipped.
    installed: bool,
    phase1_pivots: usize,
    phase2_pivots: usize,
    outcome: Result<(LpSolution, Basis), LpError>,
}

/// Installs `start` (a hint or a crash basis) into `engine`, running the
/// bound repair when it needs one. Returns whether phase 1 can be skipped.
/// A failed repair (positive residual or numerical trouble) rebuilds the
/// engine, so the next start begins from the canonical unit basis with
/// truthful pivot counters. An armed chaos fault the repair already
/// consumed stays consumed (its strike was absorbed by the repair).
fn install_start(
    engine: &mut Engine,
    start: &Basis,
    problem: &LpProblem,
    overlay: Option<&BoundsOverlay>,
    cfg: EngineCfg,
) -> bool {
    match engine.try_warm_start(start) {
        WarmInstall::Ready => true,
        WarmInstall::NeedsRepair => match engine.repair_bounds() {
            Ok(true) => true,
            _ => {
                let mut fresh = cfg;
                fresh.chaos = engine.chaos;
                *engine = Engine::new(problem, overlay, fresh);
                false
            }
        },
        WarmInstall::Rejected => false,
    }
}

/// Runs one attempt: from `hint` when it installs, else from `crash` when
/// that installs, else from the all-artificial phase 1. Only an installed
/// hint is a [`WarmStatus::Hit`]; a crash start is as cold as phase 1.
fn attempt_solve(
    problem: &LpProblem,
    overlay: Option<&BoundsOverlay>,
    hint: Option<&Basis>,
    crash: Option<&Basis>,
    cfg: EngineCfg,
) -> (Attempt, WarmStatus) {
    let mut engine = Engine::new(problem, overlay, cfg);
    let mut warm = WarmStatus::None;
    let mut installed = false;
    if let Some(hint) = hint {
        installed = install_start(&mut engine, hint, problem, overlay, cfg);
        warm = if installed {
            WarmStatus::Hit
        } else {
            WarmStatus::Miss
        };
    }
    if let (false, Some(crash)) = (installed, crash) {
        installed = install_start(&mut engine, crash, problem, overlay, cfg);
    }
    let mut phase1_pivots = 0;
    let mut degraded = false;
    let outcome = (|| {
        if !installed {
            let phase1 = engine.phase1();
            // Read the pivot counter before propagating a phase-1 error:
            // the split must stay truthful for infeasible/budget-exhausted
            // solves too (includes the artificial drive-out pivots).
            phase1_pivots = engine.pivots;
            phase1?;
        } else {
            // Bound-repair pivots (if any) belong to the phase-1 bucket.
            phase1_pivots = engine.pivots;
        }
        match engine.phase2(problem) {
            Ok(_) => {}
            Err(LpError::IterationLimit) if engine.budget_exhausted => {
                // Degradable budgets: phase 2 maintains primal feasibility,
                // so the current vertex is a certified-feasible anytime
                // answer; its objective bounds the optimum from the
                // feasible side. Only trust it if the warm-start proof
                // obligation holds (no artificial/fixed column drifted off
                // zero) — otherwise surface the budget error.
                let (solution, basis) = engine.extract(problem);
                if !engine.bounds_at_zero() {
                    return Err(LpError::IterationLimit);
                }
                degraded = true;
                return Ok((solution, basis));
            }
            Err(e) => return Err(e),
        }
        if problem.has_secondary() {
            match engine.phase3(problem) {
                Ok(_) => {}
                Err(LpError::IterationLimit) if engine.budget_exhausted => {
                    // The primary optimum is certified; only the
                    // canonicalizing secondary ran out of budget. The point
                    // is optimal but not canonical, so still flag it.
                    degraded = true;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(engine.extract(problem))
    })();
    let outcome = match outcome {
        Ok((mut solution, basis)) => {
            if degraded {
                solution.mark_degraded();
            }
            Ok((solution, basis))
        }
        Err(e) => Err(e),
    };
    let phase2_pivots = engine.pivots.saturating_sub(phase1_pivots);
    (
        Attempt {
            engine,
            installed,
            phase1_pivots,
            phase2_pivots,
            outcome,
        },
        warm,
    )
}

fn print_stats(stats: &SolveStats, status: &str) {
    eprintln!(
        "pm-lp: engine=revised basis={} m={} n={} nnz={} phase1_pivots={} phase2_pivots={} \
         refactorizations={} warm={} elapsed={:.3}s status={status}",
        match stats.basis {
            BasisKind::Eta => "eta",
            BasisKind::Lu => "lu",
        },
        stats.m,
        stats.n,
        stats.nnz,
        stats.phase1_pivots,
        stats.phase2_pivots,
        stats.refactorizations,
        match stats.warm {
            WarmStatus::None => "none",
            WarmStatus::Hit => "hit",
            WarmStatus::Miss => "miss",
        },
        stats.wall_s,
    );
    if stats.attempts > 1 || stats.degraded {
        eprintln!(
            "pm-lp: recovery attempts={} rung={:?} trigger={:?} degraded={}",
            stats.attempts, stats.rung, stats.trigger, stats.degraded,
        );
    }
}

/// Structural signature of a problem: dimensions, objective sense, and the
/// per-row relation + term sparsity pattern (coefficient *values*, RHS
/// magnitudes and the fixed-to-zero variable set are excluded on purpose —
/// a basis is a valid warm-start hint for any problem with the same
/// pattern, and bound/RHS mismatches are settled by the repair phase or a
/// cold fallback). `DefaultHasher` uses fixed keys, so signatures are
/// stable across runs.
fn signature(problem: &LpProblem) -> u64 {
    let mut h = DefaultHasher::new();
    problem.num_vars().hash(&mut h);
    matches!(problem.objective(), Objective::Maximize).hash(&mut h);
    problem.num_constraints().hash(&mut h);
    for c in problem.constraints() {
        // The effective relation and flip decide the slack/artificial
        // layout, so they are part of the structure.
        let flip = c.rhs < 0.0;
        (match effective_relation(c.relation, flip) {
            Relation::Le => 0u8,
            Relation::Ge => 1,
            Relation::Eq => 2,
        })
        .hash(&mut h);
        c.terms.len().hash(&mut h);
        for &(v, _) in &c.terms {
            v.index().hash(&mut h);
        }
    }
    h.finish()
}

thread_local! {
    static ACTIVE_CACHE: RefCell<Option<WarmStartCache>> = const { RefCell::new(None) };
}

/// One cached basis plus its last-touched stamp (for LRU eviction under a
/// capacity bound).
#[derive(Debug)]
struct CacheEntry {
    basis: Basis,
    touched: u64,
}

/// A per-thread cache of optimal bases keyed by problem structure.
///
/// Inside a [`WarmStartCache::scope`], every [`crate::LpProblem::solve`]
/// call routed to the revised engine looks up the basis of the last solve
/// with the same constraint pattern and warm-starts from it; the cache is
/// updated with the new optimal basis afterwards. Sequences of structurally
/// identical solves (e.g. consecutive densities of a Figure-11 sweep, or the
/// iterated broadcast LPs inside the greedy heuristics) then skip most of
/// phase 1.
///
/// By default the cache is *unbounded* — every distinct constraint pattern
/// keeps its basis forever, which is right for one sweep but a slow leak
/// for thousands of long-lived sessions. [`WarmStartCache::with_capacity`]
/// (or [`WarmStartCache::set_capacity`]) bounds the number of retained
/// bases with least-recently-used eviction: every lookup or store touches
/// its entry, and a store that would exceed the bound evicts the
/// longest-untouched pattern first (counted in
/// [`WarmStartCache::evictions`]). Eviction order is deterministic: touch
/// stamps are a simple monotone counter, so two runs of the same solve
/// sequence evict identically.
#[derive(Debug, Default)]
pub struct WarmStartCache {
    map: HashMap<u64, CacheEntry>,
    /// Solves that reused a cached basis.
    pub hits: u64,
    /// Solves that started cold (no cached basis, or the hint was rejected).
    pub misses: u64,
    /// Bases evicted by the LRU bound (always 0 while unbounded).
    pub evictions: u64,
    /// Maximum number of retained bases (`None` = unbounded, the default).
    capacity: Option<usize>,
    /// Monotone touch counter driving the LRU order.
    clock: u64,
}

impl WarmStartCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache retaining at most `capacity` bases (LRU
    /// eviction). A capacity of zero caches nothing: every solve runs cold
    /// and counts a miss.
    pub fn with_capacity(capacity: usize) -> Self {
        WarmStartCache {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Total revised solves performed inside this cache's scopes.
    pub fn solves(&self) -> u64 {
        self.hits + self.misses
    }

    /// The capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of bases currently retained.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no basis.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// (Re-)bounds the cache. Shrinking below the current population evicts
    /// least-recently-used entries immediately (counted in
    /// [`WarmStartCache::evictions`]); `None` lifts the bound.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        if let Some(cap) = capacity {
            while self.map.len() > cap {
                self.evict_lru();
            }
        }
    }

    /// Removes the least-recently-touched entry. Stamps are unique (a
    /// monotone counter), so the victim — and with it the whole eviction
    /// sequence — is deterministic.
    fn evict_lru(&mut self) {
        if let Some((&key, _)) = self.map.iter().min_by_key(|(_, e)| e.touched) {
            self.map.remove(&key);
            self.evictions += 1;
        }
    }

    /// The cached basis for `key`, touching its LRU stamp.
    fn lookup(&mut self, key: u64) -> Option<Basis> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(&key).map(|entry| {
            entry.touched = clock;
            entry.basis.clone()
        })
    }

    /// Stores (or refreshes) the basis for `key`, evicting the
    /// least-recently-used entry if the capacity bound would be exceeded.
    fn store(&mut self, key: u64, basis: Basis) {
        if self.capacity == Some(0) {
            return;
        }
        self.clock += 1;
        let touched = self.clock;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.basis = basis;
            entry.touched = touched;
            return;
        }
        if let Some(cap) = self.capacity {
            while self.map.len() >= cap {
                self.evict_lru();
            }
        }
        self.map.insert(key, CacheEntry { basis, touched });
    }

    /// Runs `f` with this cache active for [`crate::LpProblem::solve`] calls
    /// on the current thread.
    ///
    /// Scopes nest LIFO: entering a scope while another is active shelves
    /// the outer cache and restores it when the inner scope ends. Besides
    /// deliberate nesting, this keeps a work-stealing scheduler safe — a
    /// thread whose scope blocks in a parallel section may start an
    /// unrelated task that opens its own scope on the same thread, and the
    /// stolen task completes before the blocked section resumes, exactly
    /// the LIFO discipline.
    pub fn scope<R>(&mut self, f: impl FnOnce() -> R) -> R {
        struct Restore<'a> {
            cache: &'a mut WarmStartCache,
            outer: Option<WarmStartCache>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                ACTIVE_CACHE.with(|slot| {
                    let mut slot = slot.borrow_mut();
                    if let Some(cache) = slot.take() {
                        *self.cache = cache;
                    }
                    *slot = self.outer.take();
                });
            }
        }
        let outer = ACTIVE_CACHE.with(|slot| {
            let mut slot = slot.borrow_mut();
            let outer = slot.take();
            *slot = Some(std::mem::take(self));
            outer
        });
        let restore = Restore { cache: self, outer };
        let result = f();
        drop(restore);
        result
    }
}

/// The `(hits, misses)` counters of the thread's active [`WarmStartCache`]
/// scope, or `None` outside any scope. Callers that need per-phase
/// attribution of scoped solves (e.g. per-heuristic LP accounting in
/// `pm-core`) read the counters before and after a phase and keep the
/// delta.
pub fn scoped_cache_counts() -> Option<(u64, u64)> {
    ACTIVE_CACHE.with(|slot| slot.borrow().as_ref().map(|c| (c.hits, c.misses)))
}

/// Whether a [`WarmStartCache`] scope is active on the current thread.
/// `PM_LP_PRESOLVE=1` routing checks this: presolve changes the constraint
/// pattern, so scoped solves skip it to keep their warm-start signatures
/// stable.
pub(crate) fn scope_active() -> bool {
    ACTIVE_CACHE.with(|slot| slot.borrow().is_some())
}

/// Records a solve that bypassed the warm-start machinery (the dense
/// engine) in the thread's active cache, so `lp_solves` stays an honest
/// count of every LP solved inside the scope regardless of engine.
pub(crate) fn note_scoped_cold_solve() {
    ACTIVE_CACHE.with(|slot| {
        if let Some(cache) = slot.borrow_mut().as_mut() {
            cache.misses += 1;
        }
    });
}

/// The [`crate::LpProblem::solve`] entry point for the revised engine:
/// consults the thread's active [`WarmStartCache`] (if any) around
/// [`solve_with_hint`].
pub(crate) fn solve_scoped(problem: &LpProblem) -> Result<LpSolution, LpError> {
    let key_and_hint = ACTIVE_CACHE.with(|slot| {
        slot.borrow_mut().as_mut().map(|cache| {
            let key = signature(problem);
            let hint = cache.lookup(key);
            (key, hint)
        })
    });
    let Some((key, hint)) = key_and_hint else {
        return solve_with_hint(problem, None).map(|o| o.solution);
    };
    let outcome = solve_with_hint(problem, hint.as_ref());
    ACTIVE_CACHE.with(|slot| {
        if let Some(cache) = slot.borrow_mut().as_mut() {
            match &outcome {
                Ok(o) => {
                    if o.stats.warm == WarmStatus::Hit {
                        cache.hits += 1;
                    } else {
                        cache.misses += 1;
                    }
                    cache.store(key, o.basis.clone());
                }
                Err(_) => cache.misses += 1,
            }
        }
    });
    outcome.map(|o| o.solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, Objective, Relation};
    use crate::solver::SolverKind;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    fn sample_lp() -> LpProblem {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6)
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 3.0);
        lp.set_objective_coeff(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        lp
    }

    #[test]
    fn revised_matches_dense_on_the_textbook_lp() {
        let lp = sample_lp();
        let dense = lp.solve_with(SolverKind::Dense).unwrap();
        let revised = lp.solve_with(SolverKind::Revised).unwrap();
        approx(revised.objective, dense.objective);
    }

    /// A degenerate objective (`max x + y` over `x + y ≤ 1`) has every point
    /// of the constraint's facet optimal; the secondary picks one vertex
    /// canonically and keeps the primary objective exact.
    fn tied_face_lp() -> LpProblem {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 1.0);
        lp.set_objective_coeff(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.set_secondary_coeff(x, 2.0);
        lp.set_secondary_coeff(y, 1.0);
        lp
    }

    #[test]
    fn secondary_objective_canonicalizes_the_optimal_vertex() {
        // (Engine-pair agreement on the canonical vertex is covered by the
        // serialized `lu_vs_eta` differential binary; flipping the global
        // default basis here would race the parallel lib tests.)
        let lp = tied_face_lp();
        let s = solve_with_hint(&lp, None).unwrap().solution;
        approx(s.objective, 1.0);
        // min 2x + y over the face x + y = 1 lands on (0, 1).
        approx(s.value(VarId(0)), 0.0);
        approx(s.value(VarId(1)), 1.0);
    }

    #[test]
    fn secondary_objective_survives_warm_starts_and_overlays() {
        let lp = tied_face_lp();
        let cold = solve_with_hint(&lp, None).unwrap();
        // Warm re-solve from the canonical basis: same vertex.
        let warm = solve_with_hint(&lp, Some(&cold.basis)).unwrap();
        assert_eq!(warm.stats.warm, WarmStatus::Hit);
        approx(warm.solution.value(VarId(0)), 0.0);
        approx(warm.solution.value(VarId(1)), 1.0);
        // Under an overlay fixing y, the face degenerates to x = 1: the
        // secondary must not block the (now unique) primary optimum.
        let mut overlay = BoundsOverlay::default();
        overlay.fix_zero.push(VarId(1));
        let o = resolve_with_bounds(&lp, &overlay, Some(&cold.basis)).unwrap();
        approx(o.solution.objective, 1.0);
        approx(o.solution.value(VarId(0)), 1.0);
    }

    #[test]
    fn secondary_objective_keeps_dual_certificates() {
        let lp = tied_face_lp();
        let s = solve_with_hint(&lp, None).unwrap().solution;
        // Strong duality against the primary: y·rhs = 1·1 = objective.
        let dual: f64 = s
            .duals()
            .iter()
            .zip(lp.constraints())
            .map(|(y, c)| y * c.rhs)
            .sum();
        approx(dual, s.objective);
    }

    #[test]
    fn phase1_paths_agree_with_dense() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> 23
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 2.0);
        lp.set_objective_coeff(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Relation::Ge, 3.0);
        let s = lp.solve_with(SolverKind::Revised).unwrap();
        approx(s.objective, 23.0);
        approx(s.value(x), 7.0);
        approx(s.value(y), 3.0);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve_with(SolverKind::Revised), Err(LpError::Infeasible));

        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, 5.0);
        assert_eq!(lp.solve_with(SolverKind::Revised), Err(LpError::Unbounded));
    }

    #[test]
    fn warm_start_skips_phase1_on_identical_problem() {
        // An LP with Ge rows so a cold solve needs phase 1.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 2.0);
        lp.set_objective_coeff(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let cold = solve_with_hint(&lp, None).unwrap();
        assert!(cold.stats.phase1_pivots > 0);
        assert_eq!(cold.stats.warm, WarmStatus::None);
        let warm = solve_with_hint(&lp, Some(&cold.basis)).unwrap();
        assert_eq!(warm.stats.warm, WarmStatus::Hit);
        assert_eq!(warm.stats.phase1_pivots, 0);
        approx(warm.solution.objective, cold.solution.objective);
    }

    #[test]
    fn warm_start_with_wrong_shape_is_rejected() {
        let lp = sample_lp();
        let bogus = Basis { cols: vec![0] };
        let out = solve_with_hint(&lp, Some(&bogus)).unwrap();
        assert_eq!(out.stats.warm, WarmStatus::Miss);
        approx(out.solution.objective, 36.0);
    }

    #[test]
    fn warm_start_with_changed_costs_still_reoptimizes() {
        let lp = sample_lp();
        let first = solve_with_hint(&lp, None).unwrap();
        // Same structure, different objective: the old basis is feasible
        // (structure and RHS unchanged) and phase 2 must re-optimize.
        let mut flipped = lp.clone();
        let x = VarId(0);
        let y = VarId(1);
        flipped.set_objective_coeff(x, 10.0);
        flipped.set_objective_coeff(y, 1.0);
        let warm = solve_with_hint(&flipped, Some(&first.basis)).unwrap();
        assert_eq!(warm.stats.warm, WarmStatus::Hit);
        let dense = flipped.solve_with(SolverKind::Dense).unwrap();
        approx(warm.solution.objective, dense.objective);
    }

    #[test]
    fn cache_scope_hits_on_repeated_patterns() {
        let lp = sample_lp();
        let mut cache = WarmStartCache::new();
        cache.scope(|| {
            for _ in 0..3 {
                let s = lp.solve_with(SolverKind::Revised).unwrap();
                approx(s.objective, 36.0);
            }
        });
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.solves(), 3);
    }

    #[test]
    fn cache_scope_restores_on_exit() {
        let mut cache = WarmStartCache::new();
        cache.scope(|| {
            sample_lp().solve().unwrap();
        });
        // Outside the scope solves do not touch the cache.
        sample_lp().solve().unwrap();
        assert_eq!(cache.solves(), 1);
    }

    #[test]
    fn cache_scopes_nest_lifo() {
        let mut outer = WarmStartCache::new();
        let mut inner = WarmStartCache::new();
        outer.scope(|| {
            sample_lp().solve().unwrap();
            inner.scope(|| {
                sample_lp().solve().unwrap();
                sample_lp().solve().unwrap();
            });
            // The outer cache is active again (and its map still warm).
            sample_lp().solve().unwrap();
        });
        assert_eq!(inner.solves(), 2);
        assert_eq!(outer.solves(), 2);
        assert_eq!(outer.hits, 1);
    }

    /// A family of structurally distinct LPs: `max x  s.t.  x <= 1` padded
    /// with `k` extra constrained variables, so each `k` has its own
    /// warm-start signature.
    fn patterned_lp(k: usize) -> LpProblem {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        for i in 0..k {
            let y = lp.add_var(&format!("y{i}"));
            lp.add_constraint(vec![(y, 1.0)], Relation::Le, 1.0);
        }
        lp
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used_patterns() {
        let mut cache = WarmStartCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        cache.scope(|| {
            // Three distinct patterns through a 2-slot cache: storing the
            // third evicts the first (least recently touched).
            patterned_lp(0).solve().unwrap();
            patterned_lp(1).solve().unwrap();
            patterned_lp(2).solve().unwrap();
        });
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.misses, 3);
        cache.scope(|| {
            // Patterns 1 and 2 survived; 0 was evicted and runs cold again.
            patterned_lp(1).solve().unwrap();
            patterned_lp(2).solve().unwrap();
            patterned_lp(0).solve().unwrap();
        });
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.misses, 4);
        // Re-inserting pattern 0 evicted pattern 1 (LRU after the touches).
        assert_eq!(cache.evictions, 2);
        cache.scope(|| {
            patterned_lp(2).solve().unwrap();
            patterned_lp(0).solve().unwrap();
        });
        assert_eq!(cache.hits, 4);
    }

    #[test]
    fn lookups_refresh_the_lru_order() {
        let mut cache = WarmStartCache::with_capacity(2);
        cache.scope(|| {
            patterned_lp(0).solve().unwrap();
            patterned_lp(1).solve().unwrap();
            // Touch 0 so 1 becomes the LRU victim of the next store.
            patterned_lp(0).solve().unwrap();
            patterned_lp(2).solve().unwrap();
            // 0 stayed cached, 1 was evicted.
            patterned_lp(0).solve().unwrap();
        });
        assert_eq!(cache.hits, 2);
        assert_eq!(cache.evictions, 1);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_caches_nothing() {
        let mut cache = WarmStartCache::new();
        cache.scope(|| {
            for k in 0..4 {
                patterned_lp(k).solve().unwrap();
            }
        });
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.evictions, 0);
        cache.set_capacity(Some(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions, 3);
        cache.set_capacity(None);
        assert_eq!(cache.capacity(), None);

        let mut none = WarmStartCache::with_capacity(0);
        none.scope(|| {
            patterned_lp(0).solve().unwrap();
            patterned_lp(0).solve().unwrap();
        });
        assert!(none.is_empty());
        assert_eq!(none.misses, 2);
        assert_eq!(none.hits, 0);
    }

    #[test]
    fn redundant_equalities_keep_artificial_marker_and_warm_start() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Eq, 1.0);
        let cold = solve_with_hint(&lp, None).unwrap();
        approx(cold.solution.objective, 1.0);
        assert!(cold.basis.columns().contains(&Basis::REDUNDANT));
        let warm = solve_with_hint(&lp, Some(&cold.basis)).unwrap();
        assert_eq!(warm.stats.warm, WarmStatus::Hit);
        approx(warm.solution.objective, 1.0);
    }

    #[test]
    fn beale_example_terminates_on_revised_engine() {
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
        let sol = lp.solve_with(SolverKind::Revised).unwrap();
        approx(sol.objective, -0.05);
    }

    #[test]
    fn adversarial_redundant_hints_never_corrupt_results() {
        // Corrupt warm-start hints by marking arbitrary rows REDUNDANT (so
        // their artificial re-enters the basis): whatever the hint claims,
        // a successful solve must return a feasible point with the dense
        // oracle's objective — the bound repair and the phase-2 ratio test
        // keep re-entered artificials at zero, and the check after the
        // solve falls back to a cold solve if one still ends off zero.
        let mut rng_state = 0x1234_5678_9abc_def0u64;
        for case in 0..40u64 {
            let mut lp = LpProblem::new(if case % 2 == 0 {
                Objective::Maximize
            } else {
                Objective::Minimize
            });
            let n = 2 + (case as usize % 3);
            let vars: Vec<VarId> = (0..n).map(|i| lp.add_var(&format!("x{i}"))).collect();
            for &v in &vars {
                let c = (splitmix64(&mut rng_state) % 7) as f64 - 3.0;
                lp.set_objective_coeff(v, c);
                lp.add_constraint(vec![(v, 1.0)], Relation::Le, 4.0);
            }
            let terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
            lp.add_constraint(terms.clone(), Relation::Eq, 3.0);
            lp.add_constraint(terms, Relation::Eq, 3.0); // redundant duplicate
            let dense = lp.solve_with(SolverKind::Dense).unwrap();
            let cold = solve_with_hint(&lp, None).unwrap();
            // Corrupt: mark a pseudo-random subset of rows REDUNDANT.
            let mut cols = cold.basis.columns().to_vec();
            for c in cols.iter_mut() {
                if splitmix64(&mut rng_state).is_multiple_of(3) {
                    *c = Basis::REDUNDANT;
                }
            }
            let hint = Basis { cols };
            let warm = solve_with_hint(&lp, Some(&hint)).unwrap();
            assert!(
                (warm.solution.objective - dense.objective).abs() <= 1e-6,
                "case {case}: corrupted hint changed the objective: {} vs {}",
                warm.solution.objective,
                dense.objective
            );
            assert!(
                lp.is_feasible(warm.solution.values(), 1e-6),
                "case {case}: corrupted hint produced an infeasible point"
            );
        }
    }

    #[test]
    fn fixed_vars_are_held_at_zero_by_both_engines() {
        // max 3x + 5y, same constraints as `sample_lp`: with y fixed to
        // zero the optimum moves to x = 4 (objective 12).
        let mut lp = sample_lp();
        lp.fix_var(VarId(1));
        for kind in [SolverKind::Revised, SolverKind::Dense] {
            let s = lp.solve_with(kind).unwrap();
            approx(s.objective, 12.0);
            approx(s.value(VarId(0)), 4.0);
            approx(s.value(VarId(1)), 0.0);
        }
        lp.unfix_var(VarId(1));
        approx(lp.solve().unwrap().objective, 36.0);
    }

    #[test]
    fn overlay_fixes_without_mutating_the_problem() {
        let lp = sample_lp();
        let overlay = BoundsOverlay {
            fix_zero: vec![VarId(1)],
            rhs: vec![],
            crash: None,
        };
        let out = resolve_with_bounds(&lp, &overlay, None).unwrap();
        approx(out.solution.objective, 12.0);
        approx(out.solution.value(VarId(1)), 0.0);
        // The template itself is untouched.
        assert!(!lp.is_fixed(VarId(1)));
        approx(lp.solve().unwrap().objective, 36.0);
    }

    #[test]
    fn repair_path_recovers_a_basis_with_a_newly_fixed_column() {
        // Solve unmasked: y = 6 is basic in the optimal basis. Re-solving
        // with y fixed to zero from that basis must go through the bound
        // repair (or a cold fallback) and still land on the dense oracle's
        // masked optimum.
        let lp = sample_lp();
        let cold = solve_with_hint(&lp, None).unwrap();
        approx(cold.solution.objective, 36.0);
        let overlay = BoundsOverlay {
            fix_zero: vec![VarId(1)],
            rhs: vec![],
            crash: None,
        };
        let warm = resolve_with_bounds(&lp, &overlay, Some(&cold.basis)).unwrap();
        approx(warm.solution.objective, 12.0);
        approx(warm.solution.value(VarId(1)), 0.0);
        // And back: the masked basis warm-starts the unmasked problem.
        let back = solve_with_hint(&lp, Some(&warm.basis)).unwrap();
        approx(back.solution.objective, 36.0);
    }

    #[test]
    fn rhs_overrides_resolve_with_the_same_pattern() {
        // min x + y s.t. x + y >= d, x >= 1: warm-startable across d.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        let y = lp.add_var("y");
        lp.set_objective_coeff(x, 1.0);
        lp.set_objective_coeff(y, 1.0);
        let demand = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        let first = solve_with_hint(&lp, None).unwrap();
        approx(first.solution.objective, 10.0);
        for d in [4.0, 7.5, 0.0] {
            let overlay = BoundsOverlay {
                fix_zero: vec![],
                rhs: vec![(demand, d)],
                crash: None,
            };
            let out = resolve_with_bounds(&lp, &overlay, Some(&first.basis)).unwrap();
            approx(out.solution.objective, d.max(1.0));
            // The in-place API agrees.
            let mut inplace = lp.clone();
            inplace.set_rhs(demand, d);
            approx(inplace.solve().unwrap().objective, d.max(1.0));
        }
    }

    /// A relay platform: the source reaches the target directly (`n_st`,
    /// cost 3) or through a relay `v` (`n_sv` then `n_vt`, cost 1 each).
    /// Row 0 is the relay's conservation row, row 1 the target's demand.
    fn relay_lp() -> LpProblem {
        let mut lp = LpProblem::new(Objective::Minimize);
        let n_st = lp.add_var("n_st");
        let n_sv = lp.add_var("n_sv");
        let n_vt = lp.add_var("n_vt");
        lp.set_objective_coeff(n_st, 3.0);
        lp.set_objective_coeff(n_sv, 1.0);
        lp.set_objective_coeff(n_vt, 1.0);
        lp.add_constraint(vec![(n_sv, 1.0), (n_vt, -1.0)], Relation::Eq, 0.0);
        lp.add_constraint(vec![(n_st, 1.0), (n_vt, 1.0)], Relation::Eq, 1.0);
        lp
    }

    fn fixing(vars: &[usize]) -> BoundsOverlay {
        BoundsOverlay {
            fix_zero: vars.iter().map(|&j| VarId(j)).collect(),
            rhs: vec![],
            crash: None,
        }
    }

    /// Re-solves `lp` under `overlay` from `hint` and checks that the hint
    /// survives phase 2 in one attempt, on both basis engines, and lands
    /// where a cold solve does.
    fn assert_stays_warm(lp: &LpProblem, hint: &Basis, overlay: &BoundsOverlay) {
        let warm = resolve_with_bounds(lp, overlay, Some(hint)).unwrap();
        assert_eq!(warm.stats.warm, WarmStatus::Hit);
        assert_eq!(warm.stats.attempts, 1);
        assert_eq!(warm.stats.rung, RecoveryRung::First);
        let cold = resolve_with_bounds(lp, overlay, None).unwrap();
        assert!((warm.solution.objective - cold.solution.objective).abs() <= 1e-9);
        for (w, c) in warm.solution.values().iter().zip(cold.solution.values()) {
            assert!((w - c).abs() <= 1e-9, "warm {w} vs cold {c}");
        }
        // The devex (LU) and Dantzig (eta) loops share the ratio test.
        for kind in [BasisKind::Lu, BasisKind::Eta] {
            let mut cfg = EngineCfg::new(None);
            cfg.basis = Some(kind);
            let (attempt, warm) = attempt_solve(lp, Some(overlay), Some(hint), None, cfg);
            assert_eq!(warm, WarmStatus::Hit, "{kind:?}");
            assert!(attempt.outcome.is_ok(), "{kind:?}");
            assert!(attempt.engine.bounds_at_zero(), "{kind:?}");
        }
    }

    #[test]
    fn a_fixed_column_basic_at_zero_stays_at_zero_through_phase_2() {
        // With the edge v -> t cut, the relay row keeps n_sv basic at level
        // zero. Fixing n_sv and restoring n_vt makes n_vt the first entering
        // column, and its entry in n_sv's row is -1: an unguarded pivot
        // would route the demand through the fixed edge.
        let lp = relay_lp();
        let hint = resolve_with_bounds(&lp, &fixing(&[2]), None).unwrap().basis;
        assert_eq!(hint.columns()[0], 1);
        assert_stays_warm(&lp, &hint, &fixing(&[1]));
    }

    #[test]
    fn a_reactivated_conservation_row_keeps_its_artificial_at_zero() {
        // With the relay masked out its conservation row has no free
        // column, so its artificial stays basic (a redundant row). Un-fixing
        // the relay makes the row live again, and the first entering column
        // n_vt is negative in it: an unguarded pivot would let the
        // artificial absorb the flow out of the relay.
        let lp = relay_lp();
        let hint = resolve_with_bounds(&lp, &fixing(&[1, 2]), None)
            .unwrap()
            .basis;
        assert_eq!(hint.columns()[0], Basis::REDUNDANT);
        assert_stays_warm(&lp, &hint, &BoundsOverlay::new());
    }

    #[test]
    fn fixing_every_path_makes_the_lp_infeasible_not_wrong() {
        // x must be >= 2 but is fixed at zero: infeasible from both the
        // cold path and the warm repair path.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_var("x");
        lp.set_objective_coeff(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let cold = solve_with_hint(&lp, None).unwrap();
        let overlay = BoundsOverlay {
            fix_zero: vec![x],
            rhs: vec![],
            crash: None,
        };
        assert_eq!(
            resolve_with_bounds(&lp, &overlay, Some(&cold.basis)).unwrap_err(),
            LpError::Infeasible
        );
        assert_eq!(
            resolve_with_bounds(&lp, &overlay, None).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn signature_ignores_fixed_marks() {
        let a = sample_lp();
        let mut b = sample_lp();
        b.fix_var(VarId(0));
        assert_eq!(signature(&a), signature(&b));
    }

    #[test]
    fn signature_ignores_values_but_not_structure() {
        let a = sample_lp();
        let mut b = sample_lp();
        b.set_objective_coeff(VarId(0), 7.0);
        assert_eq!(signature(&a), signature(&b));
        let mut c = sample_lp();
        c.add_constraint(vec![(VarId(0), 1.0)], Relation::Le, 100.0);
        assert_ne!(signature(&a), signature(&c));
    }

    /// An LP that needs several phase-2 pivots, so that intermediate pivot
    /// budgets genuinely interrupt phase 2 mid-climb.
    fn climbing_lp() -> LpProblem {
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<VarId> = (0..12).map(|i| lp.add_var(&format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coeff(v, 1.0 + i as f64 * 0.1);
            lp.add_constraint(vec![(v, 1.0)], Relation::Le, 1.0);
        }
        let all: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(all, Relation::Le, 6.0);
        lp
    }

    #[test]
    fn exhausted_phase2_budget_returns_a_degraded_anytime_point() {
        let lp = climbing_lp();
        let full = solve_with_hint(&lp, None).unwrap();
        assert!(!full.solution.degraded());
        let total = full.stats.phase1_pivots + full.stats.phase2_pivots;
        let mut seen_degraded = false;
        for b in 0..=total {
            match solve_with_hint_budgeted(&lp, None, Some(SolveBudget::pivots(b as u64))) {
                Ok(o) => {
                    assert!(lp.is_feasible(o.solution.values(), 1e-6));
                    assert!(o.solution.objective <= full.solution.objective + 1e-6);
                    if o.solution.degraded() {
                        // A degraded point may even be the optimum (budget
                        // exhausted after the last pivot, before the
                        // certifying pricing pass) — only certification is
                        // lost, feasibility and the bound always hold.
                        seen_degraded = true;
                        assert!(o.stats.degraded);
                    }
                }
                Err(e) => assert_eq!(e, LpError::IterationLimit),
            }
        }
        assert!(
            seen_degraded,
            "no intermediate budget exercised the degraded path"
        );
        // The full budget reproduces the unbudgeted solve bit for bit.
        let exact =
            solve_with_hint_budgeted(&lp, None, Some(SolveBudget::pivots(total as u64))).unwrap();
        assert_eq!(
            exact.solution.objective.to_bits(),
            full.solution.objective.to_bits()
        );
        assert!(!exact.solution.degraded());
    }

    #[test]
    fn refactorization_budgets_cap_and_degrade_too() {
        let lp = climbing_lp();
        let budget = SolveBudget {
            max_pivots: None,
            max_refactorizations: Some(0),
        };
        // Zero refactorizations still allows the initial pivots up to the
        // first forced refactorization; whatever comes back must be a
        // feasible anytime point or a structured error.
        match solve_with_hint_budgeted(&lp, None, Some(budget)) {
            Ok(o) => assert!(lp.is_feasible(o.solution.values(), 1e-6)),
            Err(e) => assert_eq!(e, LpError::IterationLimit),
        }
    }

    #[test]
    fn chaos_singular_fault_recovers_and_reports_the_rung() {
        let lp = climbing_lp();
        let clean = solve_with_hint(&lp, None).unwrap();
        let mut recovered_late = false;
        for seed in 0..200 {
            let cfg = crate::chaos::ChaosConfig::only(ChaosFault::SingularBasis, seed);
            let out = crate::chaos::with_chaos(Some(cfg), || solve_with_hint(&lp, None)).unwrap();
            assert_eq!(
                out.solution.objective.to_bits(),
                clean.solution.objective.to_bits(),
                "seed {seed}: recovery changed the optimum"
            );
            if out.stats.rung > RecoveryRung::First {
                recovered_late = true;
                assert!(out.stats.attempts > 1);
                assert_eq!(out.stats.trigger, Some(RecoveryTrigger::SingularBasis));
            }
        }
        assert!(recovered_late, "no seed in 0..200 struck this solve");
    }

    #[test]
    fn standard_form_is_shared_until_an_edit() {
        let lp = sample_lp();
        let first = standard_form(&lp, None);
        assert!(Rc::ptr_eq(&first, &standard_form(&lp, None)));
        // Fixed columns are not part of the standard form.
        let mut fixes = BoundsOverlay::new();
        fixes.fix_zero.push(VarId(0));
        assert!(Rc::ptr_eq(&first, &standard_form(&lp, Some(&fixes))));
        // RHS overrides build a private form and leave the shared one.
        let mut rhs = BoundsOverlay::new();
        rhs.rhs.push((0, 3.0));
        assert!(!Rc::ptr_eq(&first, &standard_form(&lp, Some(&rhs))));
        assert!(Rc::ptr_eq(&first, &standard_form(&lp, None)));
        // A clone has the same content; an edit renews the stamp.
        let mut copy = lp.clone();
        assert!(Rc::ptr_eq(&first, &standard_form(&copy, None)));
        copy.set_rhs(0, 4.0);
        assert!(!Rc::ptr_eq(&first, &standard_form(&copy, None)));
    }

    /// The bits of everything a solve reports: objective, values, duals and
    /// basis.
    fn outcome_bits(outcome: &SolveOutcome) -> Vec<u64> {
        let solution = &outcome.solution;
        std::iter::once(solution.objective)
            .chain(solution.values().iter().copied())
            .chain(solution.duals().iter().copied())
            .map(f64::to_bits)
            .chain(outcome.basis.columns().iter().map(|&c| c as u64))
            .collect()
    }

    /// Solves `problem` on a new thread, which starts without a cached
    /// standard form or a spare factorization.
    fn fresh_thread_solve(problem: &LpProblem) -> Vec<u64> {
        let problem = problem.clone();
        std::thread::spawn(move || outcome_bits(&solve_with_hint(&problem, None).unwrap()))
            .join()
            .unwrap()
    }

    #[test]
    fn edits_after_a_solve_match_a_fresh_solve_bit_for_bit() {
        type Edit = fn(&mut LpProblem);
        let edits: [(&str, Edit); 4] = [
            ("set_coeff", |lp| lp.set_coeff(2, VarId(0), 2.5)),
            ("set_rhs", |lp| lp.set_rhs(1, 10.0)),
            ("add_constraint", |lp| {
                lp.add_constraint(vec![(VarId(0), 1.0), (VarId(1), 1.0)], Relation::Le, 7.0);
            }),
            ("add_var", |lp| {
                let z = lp.add_var("z");
                lp.set_objective_coeff(z, -1.0);
            }),
        ];
        for (name, edit) in edits {
            let mut lp = sample_lp();
            let before = solve_with_hint(&lp, None).unwrap();
            let mut overlay = BoundsOverlay::new();
            overlay.rhs.push((0, 3.0));
            resolve_with_bounds(&lp, &overlay, Some(&before.basis)).unwrap();
            edit(&mut lp);
            let after = outcome_bits(&solve_with_hint(&lp, None).unwrap());
            assert_ne!(
                after,
                outcome_bits(&before),
                "{name}: the edit must move the optimum"
            );
            assert_eq!(
                after,
                fresh_thread_solve(&lp),
                "{name}: stale standard form"
            );
        }
    }
}
