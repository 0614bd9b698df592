//! # pm-core
//!
//! The core of the pipelined-multicast reproduction: everything needed to
//! bound, approximate and (on small platforms) exactly compute the optimal
//! steady-state throughput of a series of multicasts on a heterogeneous
//! one-port platform.
//!
//! * [`formulations`] — the paper's linear programs: `Multicast-LB`,
//!   `Multicast-UB` (scatter), `Broadcast-EB` and
//!   `MulticastMultiSource-UB`,
//! * [`masked`] — the same formulations built once on the full platform and
//!   re-solved under `NodeMask` sub-platform views (bound updates instead of
//!   rebuilds, so every solve warm-starts),
//! * [`heuristics`] — `REDUCED BROADCAST`, `AUGMENTED MULTICAST`,
//!   `AUGMENTED SOURCES` and the tree-based `MCPH`, plus the reference
//!   baselines (`scatter`, `broadcast`, `lower bound`),
//! * [`exact`] — the exact tree-packing optimum by exhaustive enumeration
//!   (small platforms; used to validate the heuristics and the Figure 1
//!   worked example),
//! * [`multi`] — multi-commodity super-periods: k concurrent demands
//!   (multicast, scatter and broadcast mixes) jointly scheduled through one
//!   LP with shared one-port occupation rows, realized as a single
//!   super-period schedule in which every commodity sustains its own rate,
//! * [`realize`] — the constructive half: decompose LP steady-state flows
//!   into weighted multicast trees, re-pack them, color them into a periodic
//!   schedule and certify the claimed period in the one-port simulator,
//! * [`session`] — the stateful [`Session`] API for
//!   long-lived, drifting platforms: incremental solves after edge-cost and
//!   node-churn deltas, re-realization with transition costs, a durable
//!   write-ahead journal ([`SessionEvent`]) with snapshot/replay, and
//!   panic-isolated solves that self-heal from the journal,
//! * [`report`] — per-instance comparison reports mirroring Figure 11
//!   (a thin consumer of a [`Session`]).
//!
//! ```
//! use pm_core::formulations::{MulticastLb, MulticastUb};
//! use pm_platform::instances::figure5_instance;
//!
//! let inst = figure5_instance(3);
//! let lb = MulticastLb::new(&inst).solve().unwrap();
//! let ub = MulticastUb::new(&inst).solve().unwrap();
//! // Figure 5 of the paper: the two bounds differ by the number of targets.
//! assert!((lb.period - 1.0).abs() < 1e-6);
//! assert!((ub.period - 3.0).abs() < 1e-6);
//! ```

pub mod exact;
pub mod formulations;
pub mod heuristics;
pub mod masked;
pub mod multi;
pub mod realize;
pub mod report;
pub mod robust;
pub mod session;

pub use exact::{pack_trees, ExactSolution, ExactTreePacking};
pub use formulations::{
    BroadcastEb, FlowSolution, FormulationError, MulticastLb, MulticastMultiSourceUb, MulticastUb,
};
pub use heuristics::{
    AugmentedMulticast, AugmentedSources, BroadcastBaseline, HeuristicResult, LowerBoundReference,
    Mcph, ReducedBroadcast, RunOptions, ScatterBaseline, ThroughputHeuristic,
};
pub use masked::{MaskedFlow, MaskedFlowLp, MaskedMultiSource, MaskedMultiSourceUb};
pub use multi::{
    pack_tree_groups, realize_multi, realize_multi_with_pool, Commodity, CommoditySet, MultiFlow,
    MultiRealization,
};
pub use realize::{Realization, RealizeError, SteadyStateSolution};
pub use report::{HeuristicKind, KindLpStats, MulticastReport};
pub use robust::{
    realize_robust, realize_robust_masked, RobustOptions, RobustRealization, TargetRedundancy,
};
pub use session::{
    MultiReRealization, ReRealization, RobustReRealization, Session, SessionError, SessionEvent,
    SessionMultiSolve, SessionOpStats, SessionSnapshot, SessionSolve, SessionStats, TransitionCost,
};
