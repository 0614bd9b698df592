//! Seeded fault injection for the revised-simplex recovery ladder.
//!
//! Chaos mode deterministically injects solver faults — a "singular" basis
//! factorization, a poisoned warm-start hint, a pricing stall, a NaN in the
//! solution vector — so the recovery ladder of [`crate::revised`] can be
//! exercised end to end: every injected fault must end in a verified
//! optimum, a [`crate::LpSolution::degraded`] anytime solution, or a
//! structured [`crate::LpError`] — never a panic.
//!
//! A solve is struck only when its [`crate::SolveContext`] carries a
//! [`ChaosConfig`] (`fig11 --chaos` arms one per scenario session). Whether
//! a given solve is struck, which fault fires, and for how many ladder
//! attempts is a pure function of the seed and the problem's structural
//! signature, so chaos runs are byte-deterministic across runs and thread
//! counts. Outcomes are counted in the context's [`SolveTally`], whose
//! counters are commutative sums.

use std::sync::atomic::{AtomicU64, Ordering};

/// One injectable solver fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The basis factorization pretends to be singular at the next
    /// optimization entry (the refactorization-failure path).
    SingularBasis,
    /// The warm-start hint is deterministically corrupted before it is
    /// installed (rows marked redundant that are not).
    PoisonHint,
    /// The pricing loop pretends to stall out of its iteration budget.
    PricingStall,
    /// A NaN is written into the solution vector, to be caught by the
    /// engine's non-finite guards.
    NanInjection,
}

/// Bit masks of the four faults (for [`ChaosConfig::faults`]).
const F_SINGULAR: u8 = 1;
const F_HINT: u8 = 2;
const F_STALL: u8 = 4;
const F_NAN: u8 = 8;
const F_ALL: u8 = F_SINGULAR | F_HINT | F_STALL | F_NAN;

/// A chaos-injection configuration: which faults may fire, under which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed with each problem's structural signature to decide the
    /// per-solve injection plan.
    pub seed: u64,
    /// Bit mask of enabled faults (see [`ChaosConfig::all`] etc.).
    faults: u8,
}

impl ChaosConfig {
    /// Enables every fault under `seed`.
    pub fn all(seed: u64) -> Self {
        ChaosConfig {
            seed,
            faults: F_ALL,
        }
    }

    /// Enables a single fault under `seed`.
    pub fn only(fault: ChaosFault, seed: u64) -> Self {
        ChaosConfig {
            seed,
            faults: match fault {
                ChaosFault::SingularBasis => F_SINGULAR,
                ChaosFault::PoisonHint => F_HINT,
                ChaosFault::PricingStall => F_STALL,
                ChaosFault::NanInjection => F_NAN,
            },
        }
    }

    fn enabled_faults(&self) -> Vec<ChaosFault> {
        let mut out = Vec::with_capacity(4);
        if self.faults & F_SINGULAR != 0 {
            out.push(ChaosFault::SingularBasis);
        }
        if self.faults & F_HINT != 0 {
            out.push(ChaosFault::PoisonHint);
        }
        if self.faults & F_STALL != 0 {
            out.push(ChaosFault::PricingStall);
        }
        if self.faults & F_NAN != 0 {
            out.push(ChaosFault::NanInjection);
        }
        out
    }
}

/// The injection plan for one solve: which fault fires, on how many leading
/// ladder attempts, and the hash driving any further deterministic choices
/// (e.g. which hint rows to poison).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPlan {
    pub(crate) fault: ChaosFault,
    /// The fault strikes ladder attempts `0..strikes`. At most two sparse
    /// attempts run, so a strike count past them ends the solve on the
    /// dense rung, which is never struck.
    pub(crate) strikes: usize,
    pub(crate) hash: u64,
}

/// Computes the injection plan for a solve under `cfg`, given its
/// structural signature (computed lazily: signatures cost a hash pass and
/// chaos is usually off).
pub(crate) fn plan(
    cfg: Option<&ChaosConfig>,
    signature: impl FnOnce() -> u64,
) -> Option<ChaosPlan> {
    let cfg = cfg?;
    let enabled = cfg.enabled_faults();
    if enabled.is_empty() {
        return None;
    }
    let mut h = cfg.seed ^ signature();
    let pick = crate::solver::splitmix64(&mut h);
    // Strike roughly one solve in three, so chaos sweeps still exercise
    // plenty of healthy solves (warm-start chains survive in between).
    if !pick.is_multiple_of(3) {
        return None;
    }
    let fault = enabled[(pick >> 8) as usize % enabled.len()];
    let strikes = 1 + ((pick >> 32) as usize % 3);
    Some(ChaosPlan {
        fault,
        strikes,
        hash: crate::solver::splitmix64(&mut h),
    })
}

/// A snapshot of a [`SolveTally`] (see [`SolveTally::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Total revised-engine solves recorded.
    pub solves: u64,
    /// Solves that had at least one fault injected.
    pub injected: u64,
    /// Successful solves by winning recovery rung (see
    /// [`crate::RecoveryRung::index`]: 0 = first attempt, 1 = cold restart,
    /// 2 = the dense-tableau oracle).
    pub recovered_by_rung: [u64; 3],
    /// Solves that returned a budget-degraded anytime solution.
    pub degraded: u64,
    /// Solves that exhausted the whole ladder and still reported
    /// [`crate::LpError::IterationLimit`].
    pub unrecovered: u64,
}

/// The outcome counters of the revised-engine solves run under one
/// [`crate::SolveContext`] (its `tally` field). Atomic commutative sums,
/// so the totals do not depend on which threads solved in which order.
#[derive(Debug, Default)]
pub struct SolveTally {
    solves: AtomicU64,
    injected: AtomicU64,
    by_rung: [AtomicU64; 3],
    degraded: AtomicU64,
    unrecovered: AtomicU64,
}

impl SolveTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the counters.
    pub fn counters(&self) -> ChaosCounters {
        ChaosCounters {
            solves: self.solves.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
            recovered_by_rung: std::array::from_fn(|r| self.by_rung[r].load(Ordering::Relaxed)),
            degraded: self.degraded.load(Ordering::Relaxed),
            unrecovered: self.unrecovered.load(Ordering::Relaxed),
        }
    }

    /// Records one finished solve.
    pub(crate) fn record(
        &self,
        injected: bool,
        rung: Option<usize>,
        degraded: bool,
        unrecovered: bool,
    ) {
        self.solves.fetch_add(1, Ordering::Relaxed);
        if injected {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(r) = rung {
            self.by_rung[r.min(2)].fetch_add(1, Ordering::Relaxed);
        }
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if unrecovered {
            self.unrecovered.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_seed_and_signature() {
        let cfg = ChaosConfig::all(42);
        let a = plan(Some(&cfg), || 0xdead_beef).map(|p| (p.fault, p.strikes, p.hash));
        let b = plan(Some(&cfg), || 0xdead_beef).map(|p| (p.fault, p.strikes, p.hash));
        assert_eq!(a, b);
        assert!(plan(None, || 0xdead_beef).is_none());
    }

    #[test]
    fn single_fault_configs_only_fire_that_fault() {
        let cfg = ChaosConfig::only(ChaosFault::NanInjection, 7);
        for sig in 0..200u64 {
            if let Some(p) = plan(Some(&cfg), || sig) {
                assert_eq!(p.fault, ChaosFault::NanInjection);
                assert!((1..=3).contains(&p.strikes));
            }
        }
    }
}
