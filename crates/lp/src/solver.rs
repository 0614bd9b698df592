//! The [`SolveContext`] every solve runs under — engine, chaos injection,
//! diagnostics and outcome tally — plus the numerical knobs both engines
//! share. The shared helpers are the load-bearing part: the engines'
//! bit-reproducibility story assumes identical RNG streams, pivot budgets
//! and row normalisation, so they live here once instead of drifting apart
//! as two private copies.

use crate::chaos::{ChaosConfig, SolveTally};
use crate::problem::Relation;
use std::sync::Arc;

/// SplitMix64 step: the deterministic generator behind the anti-degeneracy
/// perturbation and the ratio-test tie-break of *both* engines (each stream
/// is seeded from a distinct constant).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hard phase-1 iteration cap, proportional to problem size: a healthy
/// simplex run needs a small multiple of `m` pivots, so a bounded multiple
/// of `m + n` (with a generous floor) separates "still converging" from
/// "stalled on numerically collapsed degeneracy" without letting a
/// pathological solve burn minutes of pivot work before reporting
/// [`crate::LpError::IterationLimit`]. Phase 1 gets a tighter multiple than
/// phase 2: its Eq rows cannot be de-degenerated by the RHS perturbation,
/// so a stalled phase 1 should give up quickly — observed healthy phase-1
/// runs on the multicast LPs stay under `0.4 (m + n)` pivots.
pub(crate) fn phase1_budget(m: usize, n: usize) -> usize {
    (2 * (m + n)).clamp(10_000, 50_000)
}

/// Hard phase-2 iteration cap (see [`phase1_budget`] for the rationale).
pub(crate) fn phase2_budget(m: usize, n: usize) -> usize {
    (8 * (m + n)).clamp(10_000, 200_000)
}

/// The relation of a row after the `b ≥ 0` normalisation (a negated row
/// flips its inequality direction).
pub(crate) fn effective_relation(relation: Relation, flipped: bool) -> Relation {
    if !flipped {
        return relation;
    }
    match relation {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// Anti-degeneracy RHS perturbation, shared by both engines (the classical
/// method, with the exact values kept in a shadow vector by the caller).
/// The multicast LPs are massively degenerate — hundreds of inequality rows
/// are tight at the initial vertex — and both Dantzig's and Bland's rules
/// stall there for minutes. Relaxing each inequality outward by a tiny
/// deterministic pseudo-random amount makes the tied ratio-test rows
/// distinct, so the simplex walks off degenerate vertices immediately:
///
/// * `Le` rows get `b += delta` (a strictly larger feasible region),
/// * `Ge` rows (normalised) get `b -= delta`, clamped at 0 (again a larger
///   region, and phase 1 still starts from `b ≥ 0`),
/// * `Eq` rows are left exact — perturbing them could make a feasible
///   flow-conservation system infeasible.
///
/// Optimality of the final basis transfers to the unperturbed problem
/// because reduced costs do not depend on the RHS. The per-row delta is
/// capped an order of magnitude below the 1e-6 phase-1 infeasibility
/// tolerance, so a large-RHS LP that is infeasible by just over 1e-6 cannot
/// be relaxed into feasibility. Seeded from the problem dimensions only
/// (distinct constant from the ratio-test tie-break stream), so identical
/// problems get identical perturbations in both engines.
pub(crate) fn perturb_rhs(b: &mut [f64], row_relations: &[Relation], n: usize) {
    let m = b.len();
    let mut seed = 0x243f_6a88_85a3_08d3u64 ^ ((m as u64) << 32) ^ n as u64;
    const PERTURB: f64 = 1e-8;
    for (br, &relation) in b.iter_mut().zip(row_relations) {
        // Uniform in [1, 2).
        let u = 1.0 + (splitmix64(&mut seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let delta = PERTURB * (1.0 + br.abs()).min(5.0) * u;
        match relation {
            Relation::Le => *br += delta,
            Relation::Ge => *br = (*br - delta).max(0.0),
            Relation::Eq => {}
        }
    }
}

/// The two LP engines of the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// The dense two-phase tableau simplex ([`crate::simplex`]).
    Dense,
    /// The sparse revised simplex on a sparse LU basis
    /// ([`crate::revised`]). The default.
    #[default]
    Revised,
}

/// The configuration one solve runs under, passed by reference from the
/// caller down to the engine. Nothing about a solve is read from process
/// state: two threads solving under different contexts cannot see each
/// other's settings.
///
/// The default is the production configuration: the revised engine, no
/// fault injection, no stderr diagnostics, no tally. Work caps are not part
/// of it: a [`SolveBudget`] belongs to the template or call that sets it,
/// and is passed beside the context. Neither is a warm-start cache: a
/// [`crate::WarmStartCache`] is mutable state with one owner, which lends
/// it to each solve by `&mut` ([`crate::WarmStartCache::solve`]).
///
/// ```
/// use pm_lp::{LpProblem, Objective, Relation, SolveContext, SolverKind};
///
/// let mut lp = LpProblem::new(Objective::Maximize);
/// let x = lp.add_var("x");
/// lp.set_objective_coeff(x, 1.0);
/// lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
/// let dense = SolveContext {
///     engine: SolverKind::Dense,
///     ..SolveContext::default()
/// };
/// assert_eq!(lp.solve_in(&dense).unwrap().objective, 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveContext {
    /// The engine (`fig11 --solver`, `PM_LP_SOLVER`).
    pub engine: SolverKind,
    /// Seeded fault injection into the revised engine's recovery ladder
    /// (`fig11 --chaos`); `None` injects nothing.
    pub chaos: Option<ChaosConfig>,
    /// One stderr line per solve (`PM_LP_STATS=1`).
    pub stats: bool,
    /// Where each revised-engine solve records its outcome (struck or not,
    /// winning rung, degraded, unrecovered). Shared by every clone of the
    /// context, so a session's templates all count into one tally.
    pub tally: Option<Arc<SolveTally>>,
}

/// Deterministic work caps for one solve attempt (see
/// `docs/robustness.md`).
///
/// Budgets are expressed in *pivots* and *refactorizations* — units that are
/// byte-deterministic across machines and thread counts — never wall-clock
/// time. A `None` cap is unlimited. When phase 2 runs out of budget after a
/// feasible point has been reached, the engine returns the current vertex as
/// an *anytime* solution flagged [`crate::LpSolution::degraded`] instead of
/// erroring; running out during phase 1 (no feasible point yet) reports
/// [`crate::LpError::IterationLimit`]. Budget exhaustion never escalates the
/// recovery ladder: retrying under the same caps cannot help, and the caps
/// exist precisely to bound total work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Cap on simplex pivots per solve attempt (all phases combined).
    pub max_pivots: Option<u64>,
    /// Cap on basis refactorizations per solve attempt.
    pub max_refactorizations: Option<u64>,
}

impl SolveBudget {
    /// An unlimited budget (both caps off) — the default.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capping only pivots.
    pub fn pivots(max: u64) -> Self {
        SolveBudget {
            max_pivots: Some(max),
            max_refactorizations: None,
        }
    }

    /// Whether any cap is set.
    pub fn is_limited(&self) -> bool {
        self.max_pivots.is_some() || self.max_refactorizations.is_some()
    }
}
