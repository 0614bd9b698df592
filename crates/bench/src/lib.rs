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
