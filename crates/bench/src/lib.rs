//! # pm-bench
//!
//! The experiment harness of the reproduction: parameter sweeps over
//! Tiers-like platforms (Figure 11 of the paper), worked-example binaries
//! (Figures 1, 4/5, 12, the set-cover and prefix gadgets) and the Criterion
//! micro-benchmarks.
//!
//! The library part contains the sweep machinery; the `src/bin` binaries
//! print the tables documented in `EXPERIMENTS.md`.

pub mod chaos;
pub mod drift;
pub mod emit;
pub mod faults;
pub mod multi;
pub mod sweep;
pub mod table;

pub use chaos::{chaos_to_json, run_chaos, ChaosBenchConfig, ChaosResult, CHAOS_JSON_SCHEMA};
pub use drift::{drift_to_json, run_drift, DriftConfig, DriftResult};
pub use emit::{batch_to_csv, batch_to_json, sweep_to_csv, sweep_to_json, ItemRowFormat, ItemSink};
pub use faults::{faults_to_json, run_faults, FaultsConfig, FaultsResult};
pub use multi::{
    multi_to_json, run_multi, MultiBenchConfig, MultiBenchResult, RateSkew, MULTI_JSON_SCHEMA,
};
pub use sweep::{
    run_batch, run_batch_streamed, run_sweep, BatchConfig, BatchMeta, BatchResult, SweepConfig,
    SweepPoint, SweepResult,
};
pub use table::{format_period_table, format_ratio_table};

/// Serializes this crate's tests around the process-wide chaos
/// configuration: a chaos batch turns it on for every thread of the test
/// process, so the chaos tests hold this lock exclusively and every other
/// test that solves LPs holds it shared.
#[cfg(test)]
pub(crate) mod chaos_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    // The lock guards no data, so a test that panicked holding it leaves
    // nothing inconsistent behind.
    static LOCK: RwLock<()> = RwLock::new(());

    /// Held by a test that solves LPs: no chaos batch runs meanwhile.
    pub(crate) fn solving() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Held by a test that runs a chaos batch.
    pub(crate) fn chaos() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(PoisonError::into_inner)
    }
}
