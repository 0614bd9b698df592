//! # pm-sim
//!
//! A discrete-event simulator for the one-port model, used to *validate* the
//! schedules and heuristics of the workspace rather than trust their
//! analytical throughput:
//!
//! * [`simulator::Simulator::run_schedule`] replays a periodic schedule for a
//!   number of periods, enforcing the one-port constraints at runtime and
//!   measuring the achieved throughput and port utilizations; its
//!   per-message deliveries walk every copy down its tree only under a
//!   [`fault::FaultModel`] that can fire, and under a null model are
//!   tallied from each tree's arrival offsets, bit-identical to the walk
//!   and with no allocation per message,
//! * [`simulator::Simulator::run_tree_pipeline`] simulates the greedy
//!   store-and-forward pipelining of a series of multicasts along a single
//!   multicast tree, and measures the steady-state throughput actually
//!   reached (which converges to `1 / tree.period()`);
//!   [`simulator::Simulator::tree_fill_makespan`] computes its horizon-1
//!   `total_time` in one pass down the tree,
//! * [`validate::validate_tree_set`] runs the whole
//!   scale → schedule → validate → replay pipeline on a weighted tree set in
//!   one call (the shared tail of the realization pipeline).

pub mod fault;
pub mod simulator;
pub mod validate;

pub use fault::{CrashEvent, FaultModel};
pub use simulator::{
    CommodityLane, FaultCause, FaultEvent, SimError, SimReport, SimulationConfig, Simulator,
};
pub use validate::{validate_tree_set, TreeSetValidation};
