//! A stateful solver session for long-lived, *drifting* platforms.
//!
//! Every other entry point of the crate is one-shot: it formulates, solves
//! and throws the machinery away. A [`Session`] is constructed once from a
//! [`MulticastInstance`] and then *owns* the moving parts the one-shot paths
//! rebuild on every call:
//!
//! * the four masked formulation templates of [`crate::masked`]
//!   (`Broadcast-EB`, `Multicast-LB`, `Multicast-UB` and the multi-source
//!   scatter), built lazily on first use,
//! * the per-template best [`Basis`] — every re-solve warm-starts from the
//!   previous optimum of the same template,
//! * the [`WarmStartCache`] the realization packing LPs solve through,
//! * the last [`Realization`] per heuristic kind — its weighted trees seed
//!   the next realization's candidate pool.
//!
//! Platform mutations are cheap deltas instead of rebuilds:
//!
//! * [`Session::set_edge_cost`] updates the authoritative platform and marks
//!   the affected coefficients of each built template dirty; the edits are
//!   applied in place ([`pm_lp::LpProblem::set_coeff`]) right before the
//!   template's next solve, so the constraint pattern — and every cached
//!   basis — survives,
//! * [`Session::disable_node`] / [`Session::enable_node`] only flip bits in
//!   the session's [`NodeMask`]: node churn was *already* a bounds overlay
//!   in the masked formulations, so the templates are untouched.
//!
//! [`Session::re_realize`] closes the loop on the ROADMAP's dynamic-platform
//! item: it realizes the latest solution (seeding the tree pool with the
//! previous realization), diffs the two [`WeightedTreeSet`]s and reports a
//! [`TransitionCost`] — how much steady-state throughput the switchover
//! forfeits while the old schedule drains and the new one fills its
//! pipeline, measured with the one-port simulator.
//!
//! Sessions are *durable*: every completed state-changing operation is
//! appended to a write-ahead journal of [`SessionEvent`]s.
//! [`Session::snapshot`] captures the pristine base instance plus that
//! journal, and [`Session::restore`] / [`Session::replay`] reconstruct the
//! session state bit-identically (every solve is deterministic). The same
//! journal powers panic isolation: a solve that panics quarantines the
//! session's derived state (templates, bases, caches), rebuilds the
//! authoritative platform state from the journal and retries once — a
//! second panic surfaces as [`SessionError::Poisoned`] instead of
//! unwinding into the caller. [`Session::set_budget`] threads a
//! deterministic [`SolveBudget`] through every template solve so exhausted
//! solves degrade to anytime solutions (counted in
//! [`SessionStats::degraded_solves`]) instead of erroring.
//!
//! Every LP the session solves — template solves and the realization
//! packing LPs alike — runs under the session's [`SolveContext`] (engine,
//! basis, chaos injection, diagnostics, tally): the default one, or the
//! one given to [`Session::set_context`]. The context is configuration,
//! not state: it is not journaled, and healing keeps it.
//!
//! ```
//! use pm_core::report::HeuristicKind;
//! use pm_core::session::Session;
//! use pm_platform::instances::figure5_instance;
//!
//! let mut session = Session::new(figure5_instance(3));
//! let first = session.solve(HeuristicKind::Scatter).unwrap();
//! // Drift one edge cost and re-solve: same templates, warm basis.
//! let edge = session.instance().platform.edge_ids().next().unwrap();
//! session.set_edge_cost(edge, 1.25).unwrap();
//! let second = session.solve(HeuristicKind::Scatter).unwrap();
//! assert!(second.result.period >= first.result.period);
//! assert_eq!(session.stats().edge_edits, 1);
//! ```
//!
//! [`WeightedTreeSet`]: pm_sched::tree::WeightedTreeSet

use crate::formulations::{FormulationError, MultiSourceSolution};
use crate::heuristics::{
    broadcast_commodities, AugmentedMulticast, AugmentedSources, HeuristicResult, Mcph,
    ReducedBroadcast, RunOptions, ThroughputHeuristic,
};
use crate::masked::{MaskedFlowLp, MaskedMultiSourceUb};
use crate::multi::{
    normalize_workload, realize_multi_with_pool, same_commodities, Commodity, CommoditySet,
    MultiFlow, MultiRealization,
};
use crate::realize::{realize_with_pool, Realization, RealizeError, SteadyStateSolution};
use crate::report::HeuristicKind;
use crate::robust::{realize_robust_masked, RobustOptions, RobustRealization};
use pm_lp::{Basis, SolveBudget, SolveContext, SolveStats, WarmStartCache, WarmStatus};
use pm_platform::graph::{EdgeId, NodeId};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
use pm_sched::tree::{MulticastTree, WeightedTreeSet};
use pm_sim::{SimulationConfig, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Template slots of a session, one per masked formulation family.
const SLOT_EB: usize = 0;
const SLOT_LB: usize = 1;
const SLOT_UB: usize = 2;
const SLOT_MS: usize = 3;
const SLOT_MULTI: usize = 4;
const SLOTS: usize = 5;

/// Structured failure of a [`Session`] operation.
///
/// Everything a session can fail with funnels into this enum, so callers
/// branch on variants instead of scraping strings: solve failures and
/// realization failures keep their structured payloads (reachable through
/// [`std::error::Error::source`]), and the two journal-specific variants
/// cover panic quarantine and replay.
#[derive(Debug)]
pub enum SessionError {
    /// A formulation or LP failure surfaced by a solve.
    Formulation(FormulationError),
    /// A realization-pipeline failure surfaced by a (re-)realization.
    Realize(RealizeError),
    /// An operation panicked, the session quarantined its derived state and
    /// rebuilt the authoritative platform state from the journal, and the
    /// retried operation panicked *again*. The session itself stays usable
    /// (mutations and completed results survive); only the poisoned
    /// operation is reported instead of unwinding into the caller.
    Poisoned {
        /// The operation that panicked (e.g. `solve(broadcast)`).
        op: String,
        /// Panic payload of the first attempt.
        first: String,
        /// Panic payload of the retry after self-healing.
        second: String,
    },
    /// A journal entry failed to re-apply during [`Session::replay`] or
    /// self-healing — the journal does not belong to the given base
    /// instance (or was edited by hand).
    Replay {
        /// Index of the offending entry in the journal.
        index: usize,
        /// The underlying failure.
        source: Box<SessionError>,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Formulation(e) => write!(f, "session solve failed: {e}"),
            SessionError::Realize(e) => write!(f, "session realization failed: {e}"),
            SessionError::Poisoned { op, first, second } => write!(
                f,
                "session operation {op} poisoned: panicked ({first}), healed from the \
                 journal, then panicked again ({second})"
            ),
            SessionError::Replay { index, source } => {
                write!(f, "journal entry {index} failed to replay: {source}")
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Formulation(e) => Some(e),
            SessionError::Realize(e) => Some(e),
            SessionError::Poisoned { .. } => None,
            SessionError::Replay { source, .. } => Some(source.as_ref()),
        }
    }
}

impl From<FormulationError> for SessionError {
    fn from(e: FormulationError) -> Self {
        SessionError::Formulation(e)
    }
}

impl From<RealizeError> for SessionError {
    fn from(e: RealizeError) -> Self {
        SessionError::Realize(e)
    }
}

/// One entry of a session's write-ahead journal: a completed state-changing
/// operation, recorded *after* it succeeded (a panicking or failing
/// operation leaves no entry). Replaying the journal on the pristine base
/// instance ([`Session::replay`]) reconstructs the session state
/// bit-identically, because every solve in the workspace is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// A successful [`Session::set_edge_cost`].
    SetEdgeCost {
        /// The edited edge.
        edge: EdgeId,
        /// The new cost.
        cost: f64,
    },
    /// A [`Session::disable_node`] that changed the mask.
    DisableNode {
        /// The disabled node.
        node: NodeId,
    },
    /// A [`Session::enable_node`] that changed the mask.
    EnableNode {
        /// The re-enabled node.
        node: NodeId,
    },
    /// A [`Session::set_budget`].
    SetBudget {
        /// The new per-solve work caps (`None` is unlimited).
        budget: Option<SolveBudget>,
    },
    /// A [`Session::set_sim_config`].
    SetSimConfig {
        /// The new simulation configuration.
        config: SimulationConfig,
    },
    /// A [`Session::set_cache_capacity`].
    SetCacheCapacity {
        /// The new warm-start cache capacity bound (`None` = unbounded).
        capacity: Option<usize>,
    },
    /// A completed [`Session::solve_with`] (or [`Session::solve`]).
    Solve {
        /// The solved heuristic kind.
        kind: HeuristicKind,
        /// Whether the steady state was captured for realization.
        capture_steady_state: bool,
    },
    /// A completed [`Session::solve_multisource`].
    SolveMultisource {
        /// The ordered source selection.
        sources: Vec<NodeId>,
    },
    /// A completed [`Session::re_realize`] (or [`Session::realize`]).
    ReRealize {
        /// The realized heuristic kind.
        kind: HeuristicKind,
    },
    /// A completed [`Session::re_realize_robust`].
    ReRealizeRobust {
        /// The realized heuristic kind.
        kind: HeuristicKind,
        /// The robustness knobs of the realization.
        options: RobustOptions,
    },
    /// A completed [`Session::solve_multi`].
    SolveMulti {
        /// The multi-commodity workload that was jointly solved.
        commodities: Vec<Commodity>,
    },
    /// A completed [`Session::re_realize_multi`].
    ReRealizeMulti,
}

/// A durable snapshot of a [`Session`]: the pristine base instance plus the
/// write-ahead journal — cheap relative to the solver state it stands for.
/// [`Session::restore`] reconstructs the full session from it.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    base: MulticastInstance,
    journal: Vec<SessionEvent>,
}

impl SessionSnapshot {
    /// The pristine instance the session was constructed with (pre-drift
    /// edge costs, full mask).
    pub fn base(&self) -> &MulticastInstance {
        &self.base
    }

    /// The journaled events, in application order.
    pub fn journal(&self) -> &[SessionEvent] {
        &self.journal
    }
}

/// The authoritative settings a journal leaves on its base instance: the
/// fold of its setting events ([`Settings::fold`]). Self-healing rebuilds
/// the session from the fold of the whole journal, compaction replaces a
/// dropped prefix by the fold of that prefix.
struct Settings {
    instance: MulticastInstance,
    mask: NodeMask,
    budget: Option<SolveBudget>,
    sim_config: SimulationConfig,
    cache_capacity: Option<usize>,
}

impl Settings {
    /// Applies the setting events of `journal` — edge costs, node mask,
    /// budget, simulation config and cache capacity — in order to `base`.
    /// Solve-class events only touch derived state and are skipped. Fails
    /// with [`SessionError::Replay`] on an edge edit that does not apply to
    /// `base`.
    fn fold(base: &MulticastInstance, journal: &[SessionEvent]) -> Result<Self, SessionError> {
        let mut settings = Settings {
            instance: base.clone(),
            mask: NodeMask::full(base.platform.node_count()),
            budget: None,
            sim_config: SimulationConfig::default(),
            cache_capacity: None,
        };
        for (index, event) in journal.iter().enumerate() {
            match event {
                SessionEvent::SetEdgeCost { edge, cost } => settings
                    .instance
                    .platform
                    .set_cost(*edge, *cost)
                    .map_err(|e| SessionError::Replay {
                        index,
                        source: Box::new(SessionError::from(FormulationError::InvalidArgument(
                            e.to_string(),
                        ))),
                    })?,
                SessionEvent::DisableNode { node } => {
                    settings.mask.remove(*node);
                }
                SessionEvent::EnableNode { node } => {
                    settings.mask.insert(*node);
                }
                SessionEvent::SetBudget { budget } => settings.budget = *budget,
                SessionEvent::SetSimConfig { config } => settings.sim_config = config.clone(),
                SessionEvent::SetCacheCapacity { capacity } => settings.cache_capacity = *capacity,
                SessionEvent::Solve { .. }
                | SessionEvent::SolveMultisource { .. }
                | SessionEvent::ReRealize { .. }
                | SessionEvent::ReRealizeRobust { .. }
                | SessionEvent::SolveMulti { .. }
                | SessionEvent::ReRealizeMulti => {}
            }
        }
        Ok(settings)
    }
}

/// How [`Session::operation`] books an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    /// A template solve: consumes an armed chaos panic and counts in
    /// [`SessionStats::solves`].
    Solve,
    /// A realization: counts in [`SessionStats::realizations`].
    Realize,
}

/// The template slots a [`Session::solve`] of `kind` builds.
fn kind_slots(kind: HeuristicKind) -> &'static [usize] {
    match kind {
        HeuristicKind::Scatter => &[SLOT_UB],
        HeuristicKind::LowerBound => &[SLOT_LB],
        HeuristicKind::Broadcast | HeuristicKind::ReducedBroadcast => &[SLOT_EB],
        HeuristicKind::AugmentedMulticast => &[SLOT_EB, SLOT_LB],
        HeuristicKind::Mcph => &[],
        HeuristicKind::MultisourceMulticast => &[SLOT_MS],
    }
}

/// Whether two instances are bit-identical (same graph, same cost bits,
/// same source and targets) — the precondition for sharing built templates.
fn same_instance(a: &MulticastInstance, b: &MulticastInstance) -> bool {
    a.source == b.source
        && a.targets == b.targets
        && a.platform.node_count() == b.platform.node_count()
        && a.platform.edge_count() == b.platform.edge_count()
        && a.platform.edge_ids().all(|e| {
            let (ea, eb) = (a.platform.edge(e), b.platform.edge(e));
            ea.src == eb.src && ea.dst == eb.dst && ea.cost.to_bits() == eb.cost.to_bits()
        })
}

/// The masked flow template of a flow slot, formulated on `instance`.
fn flow_template(slot: usize, instance: &MulticastInstance) -> MaskedFlowLp {
    match slot {
        SLOT_EB => MaskedFlowLp::broadcast_eb(instance),
        SLOT_LB => MaskedFlowLp::multicast_lb(instance),
        _ => MaskedFlowLp::multicast_ub(instance),
    }
}

/// The masked formulation templates of one instance: a [`Session`]'s own,
/// built lazily, or an eager build shared across every session of the
/// *same* instance (same graph, same cost bits, same source/targets).
/// Formulating a template walks the whole platform through a
/// [`pm_lp::SparseBuilder`]; cloning a built one is a flat copy of its
/// arrays. A server hosting thousands of sessions of one platform shape
/// builds each template once here and stamps out clones via
/// [`Session::with_templates`].
#[derive(Debug, Clone, Default)]
pub struct SessionTemplates {
    flow: [Option<MaskedFlowLp>; 3],
    ms: Option<MaskedMultiSourceUb>,
}

impl SessionTemplates {
    /// An empty template set; slots are built on demand by
    /// [`SessionTemplates::ensure_for`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds (once) the template slots a [`Session::solve`] of `kind`
    /// needs on `instance`. Further calls for the same slots are free.
    pub fn ensure_for(&mut self, instance: &MulticastInstance, kind: HeuristicKind) {
        for &slot in kind_slots(kind) {
            if slot == SLOT_MS {
                if self.ms.is_none() {
                    self.ms = Some(MaskedMultiSourceUb::new(instance));
                }
            } else if self.flow[slot].is_none() {
                self.flow[slot] = Some(flow_template(slot, instance));
            }
        }
    }

    /// Builds every template slot.
    pub fn ensure_all(&mut self, instance: &MulticastInstance) {
        for kind in HeuristicKind::ALL {
            self.ensure_for(instance, kind);
        }
    }

    /// Number of built template slots (`0..=4`).
    pub fn built(&self) -> usize {
        self.flow.iter().filter(|t| t.is_some()).count() + self.ms.is_some() as usize
    }
}

/// Structured accounting of one session operation (a [`Session::solve`] or a
/// [`Session::re_realize`]) — the programmatic replacement for scraping the
/// `PM_LP_STATS=1` stderr lines. Every field except `wall_s` is
/// deterministic for a given session history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionOpStats {
    /// Linear programs solved by the operation.
    pub lp_solves: u64,
    /// Solves that warm-started from a previous basis.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// Pivots before phase 2 (phase 1, or the dual pass of a hint that
    /// violated a bound) across the operation's solves.
    pub phase1_pivots: u64,
    /// Dual-pass pivots across the operation's solves (counted in
    /// `phase1_pivots`).
    pub dual_pivots: u64,
    /// Phase-2 pivots across the operation's solves, phase 3 included.
    pub phase2_pivots: u64,
    /// Phase-3 pivots across the operation's solves (counted in
    /// `phase2_pivots`).
    pub phase3_pivots: u64,
    /// Basis refactorizations across the operation's solves.
    pub refactorizations: u64,
    /// Solves that exhausted their [`SolveBudget`] and returned a degraded
    /// anytime solution instead of a certified optimum (always zero when no
    /// budget is set).
    pub degraded_solves: u64,
    /// Wall-clock seconds spent in the operation (nondeterministic; bench
    /// artifacts must filter it before byte comparisons).
    pub wall_s: f64,
}

impl SessionOpStats {
    /// Counts one masked-template solve.
    pub(crate) fn note(&mut self, stats: &SolveStats) {
        self.lp_solves += 1;
        if stats.warm == WarmStatus::Hit {
            self.warm_hits += 1;
        } else {
            self.warm_misses += 1;
        }
        self.phase1_pivots += stats.phase1_pivots as u64;
        self.dual_pivots += stats.dual_pivots as u64;
        self.phase2_pivots += stats.phase2_pivots as u64;
        self.phase3_pivots += stats.phase3_pivots as u64;
        self.refactorizations += stats.refactorizations as u64;
        self.degraded_solves += stats.degraded as u64;
    }

    /// The running totals of the LPs solved through `cache`. The
    /// difference of two readings is what an operation solved through it.
    fn of_cache(cache: &WarmStartCache) -> Self {
        SessionOpStats {
            lp_solves: cache.solves(),
            warm_hits: cache.hits,
            warm_misses: cache.misses,
            phase1_pivots: cache.phase1_pivots,
            dual_pivots: cache.dual_pivots,
            phase2_pivots: cache.phase2_pivots,
            phase3_pivots: cache.phase3_pivots,
            refactorizations: cache.refactorizations,
            ..SessionOpStats::default()
        }
    }

    /// Adds the LP counters of `after` minus those of `before` (two
    /// [`SessionOpStats::of_cache`] readings).
    fn add_since(&mut self, after: &SessionOpStats, before: &SessionOpStats) {
        self.lp_solves += after.lp_solves - before.lp_solves;
        self.warm_hits += after.warm_hits - before.warm_hits;
        self.warm_misses += after.warm_misses - before.warm_misses;
        self.phase1_pivots += after.phase1_pivots - before.phase1_pivots;
        self.dual_pivots += after.dual_pivots - before.dual_pivots;
        self.phase2_pivots += after.phase2_pivots - before.phase2_pivots;
        self.phase3_pivots += after.phase3_pivots - before.phase3_pivots;
        self.refactorizations += after.refactorizations - before.refactorizations;
    }

    /// Counts an LP solve that ended in a solver error (a cold solve).
    pub(crate) fn note_failed(&mut self) {
        self.lp_solves += 1;
        self.warm_misses += 1;
    }

    /// Writes the solve counters into `result`'s LP accounting.
    pub(crate) fn write_to(&self, result: &mut HeuristicResult) {
        result.lp_solves = self.lp_solves as usize;
        result.warm_hits = self.warm_hits as usize;
        result.warm_misses = self.warm_misses as usize;
        result.degraded_solves = self.degraded_solves as usize;
    }

    /// Fraction of the operation's LP solves that warm-started (0 when the
    /// operation solved no LP).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lp_solves > 0 {
            self.warm_hits as f64 / self.lp_solves as f64
        } else {
            0.0
        }
    }
}

/// Cumulative accounting of a session's lifetime, [`SessionOpStats`] summed
/// over every operation plus the mutation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// [`Session::solve`] calls performed.
    pub solves: u64,
    /// [`Session::re_realize`] / [`Session::realize`] calls that produced a
    /// realization.
    pub realizations: u64,
    /// [`Session::set_edge_cost`] mutations applied.
    pub edge_edits: u64,
    /// [`Session::disable_node`] / [`Session::enable_node`] calls that
    /// changed the mask.
    pub node_events: u64,
    /// Linear programs solved across all operations.
    pub lp_solves: u64,
    /// Solves that warm-started from a previous basis.
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
    /// Pivots before phase 2 (phase 1, or the dual pass).
    pub phase1_pivots: u64,
    /// Dual-pass pivots (counted in `phase1_pivots`).
    pub dual_pivots: u64,
    /// Phase-2 pivots, phase 3 included.
    pub phase2_pivots: u64,
    /// Phase-3 pivots (counted in `phase2_pivots`).
    pub phase3_pivots: u64,
    /// Basis refactorizations.
    pub refactorizations: u64,
    /// Solves that exhausted their [`SolveBudget`] and returned a degraded
    /// anytime solution (see [`Session::set_budget`]).
    pub degraded_solves: u64,
    /// Operations that panicked once and were healed from the journal
    /// (quarantine + rebuild + successful retry).
    pub panics_healed: u64,
    /// Wall-clock seconds across all operations (nondeterministic).
    pub wall_s: f64,
}

impl SessionStats {
    fn absorb(&mut self, op: &SessionOpStats) {
        self.lp_solves += op.lp_solves;
        self.warm_hits += op.warm_hits;
        self.warm_misses += op.warm_misses;
        self.phase1_pivots += op.phase1_pivots;
        self.dual_pivots += op.dual_pivots;
        self.phase2_pivots += op.phase2_pivots;
        self.phase3_pivots += op.phase3_pivots;
        self.refactorizations += op.refactorizations;
        self.degraded_solves += op.degraded_solves;
        self.wall_s += op.wall_s;
    }

    /// Lifetime warm-hit rate over every LP solved in the session.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.lp_solves > 0 {
            self.warm_hits as f64 / self.lp_solves as f64
        } else {
            0.0
        }
    }
}

/// One completed [`Session::solve`]: the heuristic result plus the
/// operation's structured accounting.
#[derive(Debug, Clone)]
pub struct SessionSolve {
    /// The heuristic kind that was solved.
    pub kind: HeuristicKind,
    /// The result, shaped exactly like a one-shot
    /// [`ThroughputHeuristic::run_with`] would report on the current
    /// platform state.
    pub result: HeuristicResult,
    /// The operation's accounting.
    pub stats: SessionOpStats,
}

/// What a schedule switchover costs, measured by replaying both schedules'
/// trees in the one-port simulator on the *current* (post-drift) platform.
///
/// The model: at a period boundary the old schedule stops injecting new
/// multicasts; its in-flight messages keep draining for up to the fill
/// makespan of its slowest tree. The new schedule starts injecting
/// immediately but delivers nothing until its fastest tree has filled its
/// pipeline once. The throughput forfeited during that window, expressed in
/// multicasts at the new steady-state rate, is the headline
/// [`TransitionCost::multicasts_lost`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionCost {
    /// Time for the old schedule's in-flight multicasts to finish after
    /// injection stops: the largest single-message fill makespan over the
    /// old tree set ([`Simulator::tree_fill_makespan`]).
    pub drain_time: f64,
    /// First-delivery latency of the new schedule: the smallest
    /// single-message fill makespan over the new tree set.
    pub first_delivery_latency: f64,
    /// `drain_time + first_delivery_latency` — the switchover window.
    pub switch_time: f64,
    /// Multicasts forfeited during the switchover window at the new
    /// schedule's simulated steady-state rate (the "periods lost" of the
    /// ROADMAP item, in units of multicasts).
    pub multicasts_lost: f64,
    /// `new − old` simulated steady-state throughput: positive when the
    /// re-solve recovered (or gained) capacity.
    pub throughput_delta: f64,
    /// Trees of the new combination that already existed in the old one
    /// (compared by edge set).
    pub trees_kept: usize,
    /// Trees of the new combination that are new.
    pub trees_added: usize,
    /// Trees of the old combination that were abandoned.
    pub trees_dropped: usize,
}

impl TransitionCost {
    /// Completes a [`Session::tree_swap`] with the two schedules' rates:
    /// the switchover window and what it forfeits.
    fn at_rates(mut self, old_rate: f64, new_rate: f64) -> Self {
        self.switch_time = self.drain_time + self.first_delivery_latency;
        self.multicasts_lost = self.switch_time * new_rate;
        self.throughput_delta = new_rate - old_rate;
        self
    }
}

/// One completed [`Session::re_realize`]: the fresh realization plus the
/// switchover cost against the previous one (absent on the first
/// realization of a kind).
#[derive(Debug, Clone)]
pub struct ReRealization {
    /// The new simulator-verified realization.
    pub realization: Realization,
    /// The switchover cost against the kind's previous realization.
    pub transition: Option<TransitionCost>,
    /// The operation's accounting (the packing LPs of the realization
    /// pipeline).
    pub stats: SessionOpStats,
}

/// One completed [`Session::re_realize_robust`]: the fresh redundant
/// realization plus the switchover cost against the kind's previous robust
/// realization (absent on the first robust realization of a kind).
#[derive(Debug, Clone)]
pub struct RobustReRealization {
    /// The new simulator-verified redundant realization.
    pub realization: RobustRealization,
    /// The switchover cost against the kind's previous robust realization —
    /// how a crash (or recovery) degrades service while the redundant
    /// schedule is swapped.
    pub transition: Option<TransitionCost>,
    /// The operation's accounting (the packing LPs of the robust pipeline).
    pub stats: SessionOpStats,
}

/// One completed [`Session::solve_multi`]: the joint multi-commodity flow
/// plus the operation's structured accounting.
#[derive(Debug, Clone)]
pub struct SessionMultiSolve {
    /// The joint solution: super-unit period, per-commodity rates and
    /// per-commodity unit flows.
    pub flow: MultiFlow,
    /// The operation's accounting.
    pub stats: SessionOpStats,
}

/// One completed [`Session::re_realize_multi`]: the fresh super-period
/// realization plus the switchover cost against the previous one (absent on
/// the session's first multi realization).
#[derive(Debug, Clone)]
pub struct MultiReRealization {
    /// The new simulator-verified super-period realization.
    pub realization: MultiRealization,
    /// The switchover cost against the previous multi realization: the
    /// super-period swaps atomically, so the slowest commodity's drain and
    /// fill gate the window, and every commodity forfeits its own rate
    /// across it.
    pub transition: Option<TransitionCost>,
    /// The operation's accounting (the shared packing LPs of the
    /// super-period pipeline).
    pub stats: SessionOpStats,
}

/// A long-lived solver session over one (drifting) platform. See the
/// [module docs](crate::session) for the design.
#[derive(Debug)]
pub struct Session {
    instance: MulticastInstance,
    mask: NodeMask,
    cache: WarmStartCache,
    /// The four single-commodity masked templates, built lazily.
    templates: SessionTemplates,
    /// Per slot: edges whose cost changed since the template last solved.
    dirty: [BTreeSet<u32>; SLOTS],
    /// Per slot: the basis of the template's last optimal solve.
    bases: [Option<Basis>; SLOTS],
    solutions: Vec<(HeuristicKind, HeuristicResult)>,
    realizations: Vec<(HeuristicKind, Realization)>,
    robust_realizations: Vec<(HeuristicKind, RobustRealization)>,
    /// The joint multi-commodity flow template, keyed by the commodity list
    /// it was built for (a solve with a different list rebuilds it).
    multi_template: Option<(Vec<Commodity>, MaskedFlowLp)>,
    /// The last completed multi-commodity solve, with its workload.
    multi_solution: Option<(Vec<Commodity>, MultiFlow)>,
    /// The last completed multi-commodity realization.
    multi_realization: Option<MultiRealization>,
    sim_config: SimulationConfig,
    stats: SessionStats,
    /// The instance exactly as constructed: the base every journal replay
    /// (and every self-heal) starts from.
    pristine: MulticastInstance,
    /// Write-ahead journal of completed state-changing operations.
    journal: Vec<SessionEvent>,
    /// Per-solve work caps applied to every template (`None` = unlimited).
    budget: Option<SolveBudget>,
    /// The context every LP of the session is solved under.
    ctx: SolveContext,
    /// Chaos hook: number of upcoming solve dispatches that panic.
    panic_armed: u8,
}

impl Session {
    /// Creates a session owning `instance`. Templates are built lazily on
    /// the first solve that needs them.
    pub fn new(instance: MulticastInstance) -> Self {
        let capacity = instance.platform.node_count();
        let pristine = instance.clone();
        Session {
            instance,
            mask: NodeMask::full(capacity),
            cache: WarmStartCache::new(),
            templates: SessionTemplates::new(),
            dirty: std::array::from_fn(|_| BTreeSet::new()),
            bases: std::array::from_fn(|_| None),
            solutions: Vec::new(),
            realizations: Vec::new(),
            robust_realizations: Vec::new(),
            multi_template: None,
            multi_solution: None,
            multi_realization: None,
            sim_config: SimulationConfig::default(),
            stats: SessionStats::default(),
            pristine,
            journal: Vec::new(),
            budget: None,
            ctx: SolveContext::default(),
            panic_armed: 0,
        }
    }

    /// [`Session::new`], but pre-seeding the masked formulation templates
    /// from a shared [`SessionTemplates`] build. Only slots whose template
    /// was built for a bit-identical instance are installed (a mismatched
    /// set is ignored and the session falls back to building its own
    /// lazily). A pre-seeded session behaves exactly like one that built
    /// the same slots itself: solves, warm paths and journal replay are
    /// unchanged — only the construction cost is shared.
    pub fn with_templates(instance: MulticastInstance, templates: &SessionTemplates) -> Self {
        let mut session = Session::new(instance);
        for slot in 0..3 {
            if let Some(t) = &templates.flow[slot] {
                if same_instance(t.instance(), &session.instance) {
                    session.templates.flow[slot] = Some(t.clone());
                }
            }
        }
        if let Some(t) = &templates.ms {
            if same_instance(t.instance(), &session.instance) {
                session.templates.ms = Some(t.clone());
            }
        }
        session
    }

    /// Number of template slots currently built in this session (`0..=4`)
    /// — template-sharing accounting for [`Session::with_templates`].
    pub fn templates_built(&self) -> usize {
        self.templates.built()
    }

    /// The authoritative instance: its platform carries the current
    /// (post-drift) edge costs.
    pub fn instance(&self) -> &MulticastInstance {
        &self.instance
    }

    /// The currently enabled nodes.
    pub fn mask(&self) -> &NodeMask {
        &self.mask
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Overrides the simulation configuration used by
    /// [`Session::re_realize`].
    pub fn set_sim_config(&mut self, config: SimulationConfig) {
        self.sim_config = config.clone();
        self.journal.push(SessionEvent::SetSimConfig { config });
    }

    /// Sets the deterministic per-solve work caps ([`SolveBudget`]) applied
    /// to every template solve of this session (`None` is unlimited, the
    /// default). Under an exhausted budget a phase-2 solve returns its best
    /// primal-feasible *anytime* point flagged degraded —
    /// counted in [`SessionStats::degraded_solves`] — instead of erroring,
    /// so a drifting platform keeps getting schedules even when solve work
    /// is capped.
    pub fn set_budget(&mut self, budget: Option<SolveBudget>) {
        self.budget = budget;
        for template in self.templates.flow.iter_mut().flatten() {
            template.set_budget(budget);
        }
        if let Some(template) = self.templates.ms.as_mut() {
            template.set_budget(budget);
        }
        if let Some((_, template)) = self.multi_template.as_mut() {
            template.set_budget(budget);
        }
        self.journal.push(SessionEvent::SetBudget { budget });
    }

    /// The session's current per-solve work caps (see
    /// [`Session::set_budget`]).
    pub fn budget(&self) -> Option<SolveBudget> {
        self.budget
    }

    /// Sets the [`SolveContext`] of every subsequent LP solve of this
    /// session: the built templates take it now, templates built or healed
    /// later take it when they are built, and the realization packing LPs
    /// read it per operation. Not journaled: the context changes how a
    /// solve is run and observed, never the session's state, so a
    /// [`Session::restore`] starts from the default context.
    pub fn set_context(&mut self, ctx: SolveContext) {
        for template in self.templates.flow.iter_mut().flatten() {
            template.set_context(ctx.clone());
        }
        if let Some(template) = self.templates.ms.as_mut() {
            template.set_context(ctx.clone());
        }
        if let Some((_, template)) = self.multi_template.as_mut() {
            template.set_context(ctx.clone());
        }
        self.ctx = ctx;
    }

    /// [`Session::set_context`] in builder form.
    pub fn with_context(mut self, ctx: SolveContext) -> Self {
        self.set_context(ctx);
        self
    }

    /// Bounds (or unbounds) the session's [`WarmStartCache`] — the
    /// per-signature basis store the realization packing LPs solve through.
    /// The bound is journaled, so a restore reproduces the same eviction
    /// sequence and warm-start accounting. Results never depend on it: an
    /// evicted basis only costs cold pivots on its next use.
    pub fn set_cache_capacity(&mut self, capacity: Option<usize>) {
        self.cache.set_capacity(capacity);
        self.journal
            .push(SessionEvent::SetCacheCapacity { capacity });
    }

    /// The session's warm-start cache: hit/miss/eviction counters,
    /// current size and capacity bound.
    pub fn cache(&self) -> &WarmStartCache {
        &self.cache
    }

    /// Swaps the session's warm-start cache with `cache`. A server
    /// sharding many sessions of similar shape over one worker swaps a
    /// *shard-level* cache in around each realization, so sessions share
    /// packing-LP bases instead of each growing a cold private cache. Not
    /// journaled: the cache only influences warm-start accounting,
    /// never results, so replay determinism is unaffected.
    pub fn swap_cache(&mut self, cache: &mut WarmStartCache) {
        std::mem::swap(&mut self.cache, cache);
    }

    /// The last solve result of a kind, if any.
    pub fn solution_for(&self, kind: HeuristicKind) -> Option<&HeuristicResult> {
        latest(&self.solutions, kind)
    }

    /// The last realization of a kind, if any.
    pub fn realization_for(&self, kind: HeuristicKind) -> Option<&Realization> {
        latest(&self.realizations, kind)
    }

    /// Updates an edge cost in place. The authoritative platform changes
    /// immediately; each built template is only marked dirty and re-synced
    /// (via [`pm_lp::LpProblem::set_coeff`]) right before its next solve, so
    /// a burst of edits costs one coefficient sweep, not one per edit.
    pub fn set_edge_cost(&mut self, edge: EdgeId, cost: f64) -> Result<(), SessionError> {
        if edge.index() >= self.instance.platform.edge_count() {
            return Err(SessionError::from(FormulationError::InvalidArgument(
                format!("unknown edge {edge}"),
            )));
        }
        self.instance
            .platform
            .set_cost(edge, cost)
            .map_err(|e| SessionError::from(FormulationError::InvalidArgument(e.to_string())))?;
        for slot in 0..SLOTS {
            if self.slot_built(slot) {
                self.dirty[slot].insert(edge.0);
            }
        }
        self.stats.edge_edits += 1;
        self.journal.push(SessionEvent::SetEdgeCost { edge, cost });
        Ok(())
    }

    /// Deactivates a node for all subsequent solves. The source and the
    /// instance targets cannot be disabled (every formulation would be
    /// trivially infeasible). Returns whether the mask changed.
    pub fn disable_node(&mut self, node: NodeId) -> Result<bool, SessionError> {
        if node.index() >= self.instance.platform.node_count() {
            return Err(SessionError::from(FormulationError::InvalidArgument(
                format!("unknown node {node}"),
            )));
        }
        if node == self.instance.source {
            return Err(SessionError::from(FormulationError::InvalidArgument(
                format!("cannot disable the source {node}"),
            )));
        }
        if self.instance.is_target(node) {
            return Err(SessionError::from(FormulationError::InvalidArgument(
                format!("cannot disable target {node}"),
            )));
        }
        let changed = self.mask.remove(node);
        self.stats.node_events += changed as u64;
        if changed {
            self.journal.push(SessionEvent::DisableNode { node });
        }
        Ok(changed)
    }

    /// Re-activates a node. Returns whether the mask changed.
    pub fn enable_node(&mut self, node: NodeId) -> Result<bool, SessionError> {
        if node.index() >= self.instance.platform.node_count() {
            return Err(SessionError::from(FormulationError::InvalidArgument(
                format!("unknown node {node}"),
            )));
        }
        let changed = self.mask.insert(node);
        self.stats.node_events += changed as u64;
        if changed {
            self.journal.push(SessionEvent::EnableNode { node });
        }
        Ok(changed)
    }

    /// Solves a heuristic kind on the current platform state, warm-starting
    /// from the session's previous bases, and captures the steady state for
    /// realization.
    pub fn solve(&mut self, kind: HeuristicKind) -> Result<SessionSolve, SessionError> {
        self.solve_with(kind, RunOptions::default())
    }

    /// [`Session::solve`] with explicit options (steady-state capture).
    ///
    /// Per-solve work caps come from [`Session::set_budget`]; the
    /// [`RunOptions::budget`] field only affects the one-shot
    /// [`ThroughputHeuristic::run_with`] path, which builds its own
    /// templates.
    ///
    /// The dispatch runs under panic isolation: a panicking solve
    /// quarantines the session's derived state, heals it from the journal
    /// and retries once (see [`SessionError::Poisoned`]).
    pub fn solve_with(
        &mut self,
        kind: HeuristicKind,
        options: RunOptions,
    ) -> Result<SessionSolve, SessionError> {
        let event = SessionEvent::Solve {
            kind,
            capture_steady_state: options.capture_steady_state,
        };
        let (result, stats) = self.operation(
            &format!("solve({})", kind.label()),
            OpClass::Solve,
            |session| session.solve_kind(kind, options),
            |_| event,
            |result| format!("period={}", result.period),
        )?;
        Ok(SessionSolve {
            kind,
            result,
            stats,
        })
    }

    /// The body of [`Session::solve_with`]: dispatches `kind` to its
    /// template(s) and keeps the winning bases and the result.
    fn solve_kind(
        &mut self,
        kind: HeuristicKind,
        options: RunOptions,
    ) -> Result<(HeuristicResult, SessionOpStats), SessionError> {
        let (result, op) = match kind {
            HeuristicKind::Scatter => self.solve_flow(SLOT_UB, kind, options)?,
            HeuristicKind::LowerBound => self.solve_flow(SLOT_LB, kind, options)?,
            HeuristicKind::Broadcast => self.solve_flow(SLOT_EB, kind, options)?,
            HeuristicKind::Mcph => self.solve_mcph(options)?,
            HeuristicKind::ReducedBroadcast => {
                self.ensure_flow(SLOT_EB);
                let hint = self.bases[SLOT_EB].clone();
                let template = self.templates.flow[SLOT_EB].as_ref().expect("just built");
                let run = ReducedBroadcast.run_on(template, &self.mask, hint.as_ref(), options)?;
                self.bases[SLOT_EB] = run.final_basis.or(self.bases[SLOT_EB].take());
                (run.result, run.counters)
            }
            HeuristicKind::AugmentedMulticast => {
                self.ensure_flow(SLOT_EB);
                self.ensure_flow(SLOT_LB);
                let eb_hint = self.bases[SLOT_EB].clone();
                let lb_hint = self.bases[SLOT_LB].clone();
                let eb = self.templates.flow[SLOT_EB].as_ref().expect("just built");
                let lb = self.templates.flow[SLOT_LB].as_ref().expect("just built");
                let run = AugmentedMulticast.run_on(
                    eb,
                    lb,
                    &self.mask,
                    eb_hint.as_ref(),
                    lb_hint.as_ref(),
                    options,
                )?;
                self.bases[SLOT_EB] = run.final_basis.or(self.bases[SLOT_EB].take());
                self.bases[SLOT_LB] = run.aux_basis.or(self.bases[SLOT_LB].take());
                (run.result, run.counters)
            }
            HeuristicKind::MultisourceMulticast => {
                self.ensure_ms();
                let hint = self.bases[SLOT_MS].clone();
                let template = self.templates.ms.as_ref().expect("just built");
                let run = AugmentedSources::default().run_on(
                    template,
                    &self.mask,
                    hint.as_ref(),
                    options,
                )?;
                self.bases[SLOT_MS] = run.final_basis.or(self.bases[SLOT_MS].take());
                (run.result, run.counters)
            }
        };
        remember(&mut self.solutions, kind, result.clone());
        Ok((result, op))
    }

    /// Solves the raw `MulticastMultiSource-UB` formulation for an explicit
    /// ordered source selection (the fourth masked formulation, without the
    /// greedy loop of [`HeuristicKind::MultisourceMulticast`]) on the
    /// current platform state, warm-starting from the session's multi-source
    /// basis.
    pub fn solve_multisource(
        &mut self,
        sources: &[NodeId],
    ) -> Result<MultiSourceSolution, SessionError> {
        let event = SessionEvent::SolveMultisource {
            sources: sources.to_vec(),
        };
        let (solution, _) = self.operation(
            "solve_multisource",
            OpClass::Solve,
            |session| {
                session.ensure_ms();
                let hint = session.bases[SLOT_MS].clone();
                let template = session.templates.ms.as_ref().expect("just built");
                let out = template.solve(&session.mask, sources, hint.as_ref())?;
                let mut op = SessionOpStats::default();
                op.note(&out.stats);
                session.bases[SLOT_MS] = Some(out.basis);
                Ok((out.solution, op))
            },
            |_| event,
            |solution| format!("sources={} period={}", sources.len(), solution.period),
        )?;
        Ok(solution)
    }

    /// Realizes the latest solution of `kind` as a simulator-verified
    /// periodic schedule, seeding the tree pool with the kind's previous
    /// realization, and stores it as the new baseline. A convenience
    /// wrapper over [`Session::re_realize`] for callers that do not need
    /// the transition cost.
    pub fn realize(&mut self, kind: HeuristicKind) -> Result<&Realization, SessionError> {
        self.re_realize(kind)?;
        Ok(self
            .realization_for(kind)
            .expect("re_realize just stored a realization"))
    }

    /// Re-realizes the latest solution of `kind` and measures the
    /// switchover against the kind's previous realization: the new tree
    /// pool is seeded with the still-valid previous trees, the two
    /// [`pm_sched::tree::WeightedTreeSet`]s are diffed, and the drain /
    /// fill latencies of the swap are replayed in the one-port simulator
    /// (see [`TransitionCost`]). The packing LPs run through the session's
    /// warm-start cache, so consecutive re-realizations of similar pools
    /// re-use their bases.
    ///
    /// Fails with [`RealizeError::NotRealizable`] when `kind` has not been
    /// solved in this session (or its last solve carried no steady state).
    pub fn re_realize(&mut self, kind: HeuristicKind) -> Result<ReRealization, SessionError> {
        let ((realization, transition), stats) = self.operation(
            &format!("re_realize({})", kind.label()),
            OpClass::Realize,
            |session| {
                let solution = session.steady_state(kind)?;
                // Seed the pool with the previous combination's trees that
                // are still executable (no disabled node).
                let seeds = session
                    .realization_for(kind)
                    .map(|old| session.active_trees(&old.tree_set))
                    .unwrap_or_default();
                let realization = realize_with_pool(
                    &session.ctx,
                    &mut session.cache,
                    &session.instance,
                    &solution,
                    &seeds,
                    session.sim_config.clone(),
                )?;
                let transition = session.realization_for(kind).map(|old| {
                    session
                        .tree_swap(&old.tree_set, &realization.tree_set)
                        .at_rates(old.simulated.throughput, realization.simulated.throughput)
                });
                remember(&mut session.realizations, kind, realization.clone());
                Ok(((realization, transition), SessionOpStats::default()))
            },
            |_| SessionEvent::ReRealize { kind },
            |(r, _)| format!("gap={:.3e} trees={}", r.realization_gap, r.tree_set.len()),
        )?;
        Ok(ReRealization {
            realization,
            transition,
            stats,
        })
    }

    /// The last robust realization of a kind, if any.
    pub fn robust_realization_for(&self, kind: HeuristicKind) -> Option<&RobustRealization> {
        latest(&self.robust_realizations, kind)
    }

    /// Re-realizes the latest solution of `kind` as a *redundant* schedule
    /// under the session's current node mask (see
    /// [`crate::robust::realize_robust_masked`]), and measures the
    /// switchover against the kind's previous robust realization.
    ///
    /// This is the crash-recovery loop of a drifting platform: a node crash
    /// ([`Session::disable_node`]) invalidates the trees through it, the
    /// robust re-realization rebuilds redundancy from what is left (seeded
    /// with the previous robust trees that survive the mask), and the
    /// returned [`TransitionCost`] measures the degradation; the matching
    /// [`Session::enable_node`] + re-realization measures the recovery.
    pub fn re_realize_robust(
        &mut self,
        kind: HeuristicKind,
        options: &RobustOptions,
    ) -> Result<RobustReRealization, SessionError> {
        let ((realization, transition), stats) = self.operation(
            &format!("re_realize_robust({})", kind.label()),
            OpClass::Realize,
            |session| {
                let solution = session.steady_state(kind)?;
                let seeds = session
                    .robust_realization_for(kind)
                    .map(|old| session.active_trees(&old.tree_set))
                    .unwrap_or_default();
                let realization = realize_robust_masked(
                    &session.ctx,
                    &mut session.cache,
                    &session.instance,
                    &session.mask,
                    &solution,
                    &seeds,
                    options,
                )?;
                let transition = session.robust_realization_for(kind).map(|old| {
                    session
                        .tree_swap(&old.tree_set, &realization.tree_set)
                        .at_rates(old.robust_throughput, realization.robust_throughput)
                });
                remember(&mut session.robust_realizations, kind, realization.clone());
                Ok(((realization, transition), SessionOpStats::default()))
            },
            |_| SessionEvent::ReRealizeRobust {
                kind,
                options: options.clone(),
            },
            |(r, _)| {
                format!(
                    "f={} achieved={} trees={}",
                    options.disjointness,
                    r.achieved_disjointness,
                    r.tree_set.len()
                )
            },
        )?;
        Ok(RobustReRealization {
            realization,
            transition,
            stats,
        })
    }

    /// The last multi-commodity solve, if any: the workload it was solved
    /// for and the joint flow.
    pub fn multi_solution(&self) -> Option<(&[Commodity], &MultiFlow)> {
        self.multi_solution.as_ref().map(|(c, f)| (c.as_slice(), f))
    }

    /// The last multi-commodity realization, if any.
    pub fn multi_realization(&self) -> Option<&MultiRealization> {
        self.multi_realization.as_ref()
    }

    /// Jointly solves a multi-commodity workload on the current platform
    /// state. The joint template is built on first use and kept as long as
    /// the workload stays bit-identical — subsequent solves (after edge
    /// drift or node churn) warm-start from the previous joint basis, like
    /// every other template slot. A solve with a *different* workload
    /// rebuilds the template (and drops the stale basis).
    ///
    /// A one-commodity workload keeps weight 1 in the flow template, whose
    /// LP is then the single-commodity `Multicast-LB` template's, so `k = 1`
    /// results are bit-identical to the existing pipeline.
    pub fn solve_multi(
        &mut self,
        commodities: &[Commodity],
    ) -> Result<SessionMultiSolve, SessionError> {
        let ((_, flow), stats) = self.operation(
            "solve_multi",
            OpClass::Solve,
            |session| {
                // Normalize the workload up front: the template key, the
                // journal entry and the stored solution all use the
                // normalized form, so a re-solve with an equivalent workload
                // (unsorted targets) reuses the template and its warm basis
                // instead of rebuilding.
                let commodities =
                    normalize_workload(&session.instance.platform, commodities.to_vec())?;
                session.ensure_multi(&commodities);
                let hint = session.bases[SLOT_MULTI].clone();
                let (_, template) = session.multi_template.as_ref().expect("just built");
                let out = template.solve_multi(&session.mask, hint.as_ref())?;
                let mut op = SessionOpStats::default();
                op.note(&out.stats);
                session.bases[SLOT_MULTI] = Some(out.basis.clone());
                session.multi_solution = Some((commodities.clone(), out.clone()));
                Ok(((commodities, out), op))
            },
            |(commodities, _)| SessionEvent::SolveMulti {
                commodities: commodities.clone(),
            },
            |(commodities, flow)| format!("k={} period={}", commodities.len(), flow.period),
        )?;
        Ok(SessionMultiSolve { flow, stats })
    }

    /// Re-realizes the last multi-commodity solve as a simulator-verified
    /// super-period schedule on the *current* (post-drift) platform,
    /// seeding every commodity's tree pool with its still-executable trees
    /// from the previous multi realization, and measures the switchover
    /// (see [`MultiReRealization`]).
    ///
    /// Fails with [`RealizeError::NotRealizable`] when no
    /// [`Session::solve_multi`] has completed in this session.
    pub fn re_realize_multi(&mut self) -> Result<MultiReRealization, SessionError> {
        let ((realization, transition), stats) = self.operation(
            "re_realize_multi",
            OpClass::Realize,
            |session| {
                let (commodities, flow) = session.multi_solution.clone().ok_or_else(|| {
                    RealizeError::NotRealizable(
                        "no multi-commodity solve has completed in this session".to_string(),
                    )
                })?;
                // The workload was validated when it was solved, and a
                // session's topology never changes: only the costs are
                // current (the realization replays trees on the drifted
                // platform).
                let set = CommoditySet::normalized(session.instance.platform.clone(), commodities);
                let previous = session
                    .multi_realization
                    .as_ref()
                    .filter(|old| old.tree_sets.len() == set.len());
                let seeds: Vec<Vec<MulticastTree>> = previous
                    .map(|old| {
                        old.tree_sets
                            .iter()
                            .map(|trees| session.active_trees(trees))
                            .collect()
                    })
                    .unwrap_or_default();
                let realization = realize_multi_with_pool(
                    &session.ctx,
                    &mut session.cache,
                    &set,
                    &flow,
                    &seeds,
                    session.sim_config.clone(),
                )?;
                let transition =
                    previous.map(|old| session.multi_transition_cost(&set, old, &realization));
                session.multi_realization = Some(realization.clone());
                Ok(((realization, transition), SessionOpStats::default()))
            },
            |_| SessionEvent::ReRealizeMulti,
            |(r, _)| {
                format!(
                    "k={} super_period={} gap={:.3e}",
                    r.tree_sets.len(),
                    r.super_period,
                    r.realization_gap
                )
            },
        )?;
        Ok(MultiReRealization {
            realization,
            transition,
            stats,
        })
    }

    /// Switchover cost between two multi realizations. The super-period
    /// swaps atomically: the slowest commodity's drain and the slowest
    /// commodity's first delivery gate the window, and every commodity
    /// forfeits its own rate across it.
    fn multi_transition_cost(
        &self,
        set: &CommoditySet,
        old: &MultiRealization,
        new: &MultiRealization,
    ) -> TransitionCost {
        let swap = |c: usize| self.tree_swap(&old.tree_sets[c], &new.tree_sets[c]);
        // A commodity set is never empty.
        let mut cost = swap(0);
        for part in (1..set.len()).map(swap) {
            cost.drain_time = cost.drain_time.max(part.drain_time);
            cost.first_delivery_latency =
                cost.first_delivery_latency.max(part.first_delivery_latency);
            cost.trees_kept += part.trees_kept;
            cost.trees_added += part.trees_added;
            cost.trees_dropped += part.trees_dropped;
        }
        cost.at_rates(
            old.simulated_rates.iter().sum(),
            new.simulated_rates.iter().sum(),
        )
    }

    /// Builds (or re-syncs) the joint multi-commodity template for the
    /// normalized workload `commodities`: an existing template built for a
    /// bit-identical workload only drains its pending edge-cost edits;
    /// anything else is a rebuild on the current platform (dropping the
    /// stale basis).
    fn ensure_multi(&mut self, commodities: &[Commodity]) {
        if let Some((stored, _)) = &self.multi_template {
            if same_commodities(stored, commodities) {
                let dirty = std::mem::take(&mut self.dirty[SLOT_MULTI]);
                let (_, template) = self.multi_template.as_mut().expect("checked above");
                for e in dirty {
                    let edge = EdgeId(e);
                    template.set_edge_cost(edge, self.instance.platform.cost(edge));
                }
                return;
            }
        }
        let set = CommoditySet::normalized(self.instance.platform.clone(), commodities.to_vec());
        let mut template = MaskedFlowLp::joint(set);
        template.set_budget(self.budget);
        template.set_context(self.ctx.clone());
        self.multi_template = Some((commodities.to_vec(), template));
        self.dirty[SLOT_MULTI].clear();
        self.bases[SLOT_MULTI] = None;
    }

    /// The write-ahead journal: every completed state-changing operation of
    /// this session, in order. Failed or panicked operations leave no
    /// entry.
    pub fn journal(&self) -> &[SessionEvent] {
        &self.journal
    }

    /// A durable snapshot: the pristine base instance plus the write-ahead
    /// journal — cheap relative to the solver state it stands for, and
    /// sufficient to reconstruct it bit-identically with
    /// [`Session::restore`].
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            base: self.pristine.clone(),
            journal: self.journal.clone(),
        }
    }

    /// Compacts the write-ahead journal in place. The longest prefix that
    /// no retained operation depends on is folded into the pristine base:
    /// drifted edge costs become base costs, and the net node mask, budget,
    /// simulation config and cache capacity become a short head of synthetic
    /// events; the suffix is kept verbatim. Kept live — never folded — are
    /// the last `Solve` of every kind, every `ReRealize`/`ReRealizeRobust`
    /// (realizations chain through their seeded tree pools, so the whole
    /// chain must replay), and the supporting `Solve` of each realization.
    ///
    /// [`Session::restore`] of the compacted snapshot reconstructs the same
    /// authoritative state, solutions and realizations as a restore of the
    /// full journal; only warm-start accounting may differ (a solve whose
    /// superseded predecessors were folded away replays cold instead of
    /// warm — same optimum, different pivot counts). Returns the number of
    /// journal entries dropped.
    pub fn compact_journal(&mut self) -> usize {
        let old_len = self.journal.len();
        let kind_index = |kind: HeuristicKind| {
            HeuristicKind::ALL
                .iter()
                .position(|&k| k == kind)
                .expect("every kind is in ALL")
        };
        let mut live = vec![false; old_len];
        let mut last_solve: [Option<usize>; HeuristicKind::ALL.len()] =
            [None; HeuristicKind::ALL.len()];
        let mut last_solve_multi: Option<usize> = None;
        for (i, event) in self.journal.iter().enumerate() {
            match event {
                SessionEvent::Solve { kind, .. } => last_solve[kind_index(*kind)] = Some(i),
                SessionEvent::SolveMulti { .. } => last_solve_multi = Some(i),
                SessionEvent::ReRealize { kind } | SessionEvent::ReRealizeRobust { kind, .. } => {
                    live[i] = true;
                    // The realization replays from the latest preceding
                    // solve of its kind: that solve must survive.
                    if let Some(j) = last_solve[kind_index(*kind)] {
                        live[j] = true;
                    }
                }
                SessionEvent::ReRealizeMulti => {
                    live[i] = true;
                    if let Some(j) = last_solve_multi {
                        live[j] = true;
                    }
                }
                _ => {}
            }
        }
        for idx in last_solve.iter().flatten() {
            live[*idx] = true;
        }
        if let Some(idx) = last_solve_multi {
            live[idx] = true;
        }
        let cut = live.iter().position(|&l| l).unwrap_or(old_len);
        if cut == 0 {
            return 0;
        }
        // Fold the dropped prefix into the authoritative state at the cut.
        let settings = Settings::fold(&self.pristine, &self.journal[..cut])
            .expect("a journaled edit re-applies to its own base");
        let mut compacted = Vec::with_capacity(old_len - cut + 4);
        for v in 0..settings.instance.platform.node_count() as u32 {
            if !settings.mask.contains(NodeId(v)) {
                compacted.push(SessionEvent::DisableNode { node: NodeId(v) });
            }
        }
        if settings.budget.is_some() {
            compacted.push(SessionEvent::SetBudget {
                budget: settings.budget,
            });
        }
        if settings.sim_config != SimulationConfig::default() {
            compacted.push(SessionEvent::SetSimConfig {
                config: settings.sim_config,
            });
        }
        if settings.cache_capacity.is_some() {
            compacted.push(SessionEvent::SetCacheCapacity {
                capacity: settings.cache_capacity,
            });
        }
        compacted.extend_from_slice(&self.journal[cut..]);
        let dropped = old_len.saturating_sub(compacted.len());
        self.pristine = settings.instance;
        self.journal = compacted;
        dropped
    }

    /// Reconstructs a session from a snapshot by replaying its journal on
    /// its base instance. Every solve in the workspace is deterministic, so
    /// the reconstruction is bit-identical: same platform state, same warm
    /// bases, same solutions and realizations, same statistics (up to the
    /// nondeterministic `wall_s` timings).
    pub fn restore(snapshot: &SessionSnapshot) -> Result<Session, SessionError> {
        Session::replay(snapshot.base.clone(), snapshot.journal())
    }

    /// Replays a journal on a pristine base instance, re-running every
    /// recorded operation in order. Fails with [`SessionError::Replay`]
    /// when an entry cannot be re-applied — a journal that does not belong
    /// to `instance` (replaying a journal against the instance it was
    /// recorded on cannot fail: only completed operations are journaled).
    pub fn replay(
        instance: MulticastInstance,
        journal: &[SessionEvent],
    ) -> Result<Session, SessionError> {
        let mut session = Session::new(instance);
        for (index, event) in journal.iter().enumerate() {
            session
                .apply_event(event)
                .map_err(|e| SessionError::Replay {
                    index,
                    source: Box::new(e),
                })?;
        }
        Ok(session)
    }

    fn apply_event(&mut self, event: &SessionEvent) -> Result<(), SessionError> {
        match event {
            SessionEvent::SetEdgeCost { edge, cost } => self.set_edge_cost(*edge, *cost),
            SessionEvent::DisableNode { node } => self.disable_node(*node).map(|_| ()),
            SessionEvent::EnableNode { node } => self.enable_node(*node).map(|_| ()),
            SessionEvent::SetBudget { budget } => {
                self.set_budget(*budget);
                Ok(())
            }
            SessionEvent::SetSimConfig { config } => {
                self.set_sim_config(config.clone());
                Ok(())
            }
            SessionEvent::SetCacheCapacity { capacity } => {
                self.set_cache_capacity(*capacity);
                Ok(())
            }
            SessionEvent::Solve {
                kind,
                capture_steady_state,
            } => self
                .solve_with(
                    *kind,
                    RunOptions {
                        capture_steady_state: *capture_steady_state,
                        ..RunOptions::default()
                    },
                )
                .map(|_| ()),
            SessionEvent::SolveMultisource { sources } => {
                self.solve_multisource(sources).map(|_| ())
            }
            SessionEvent::ReRealize { kind } => self.re_realize(*kind).map(|_| ()),
            SessionEvent::ReRealizeRobust { kind, options } => {
                self.re_realize_robust(*kind, options).map(|_| ())
            }
            SessionEvent::SolveMulti { commodities } => self.solve_multi(commodities).map(|_| ()),
            SessionEvent::ReRealizeMulti => self.re_realize_multi().map(|_| ()),
        }
    }

    /// Runs one session operation and books it. `body` runs under panic
    /// isolation ([`Session::with_healing`]), after the chaos hook for a
    /// [`OpClass::Solve`], and timed. Every LP it solves through the session
    /// cache (the realization packing LPs) counts in its accounting from the
    /// cache's running totals (warm outcomes, pivots, refactorizations),
    /// beside the template solves `body` reports.
    /// A completed operation then counts in [`SessionStats`], prints one
    /// stats line when the context asks for it (`detail` gives its
    /// operation-specific values) and appends `event`'s entry to the
    /// journal. A failed operation records nothing.
    fn operation<T>(
        &mut self,
        label: &str,
        class: OpClass,
        body: impl Fn(&mut Session) -> Result<(T, SessionOpStats), SessionError>,
        event: impl FnOnce(&T) -> SessionEvent,
        detail: impl FnOnce(&T) -> String,
    ) -> Result<(T, SessionOpStats), SessionError> {
        let (value, op) = self.with_healing(label, |session| {
            if class == OpClass::Solve {
                session.maybe_injected_panic();
            }
            let start = Instant::now();
            let before = SessionOpStats::of_cache(&session.cache);
            let (value, mut op) = body(session)?;
            op.add_since(&SessionOpStats::of_cache(&session.cache), &before);
            op.wall_s = start.elapsed().as_secs_f64();
            Ok((value, op))
        })?;
        match class {
            OpClass::Solve => self.stats.solves += 1,
            OpClass::Realize => self.stats.realizations += 1,
        }
        self.stats.absorb(&op);
        if self.ctx.stats {
            eprintln!(
                "pm-core: session {label} {} lp_solves={} warm={}h/{}m pivots={}+{} \
                 dual_pivots={} phase3_pivots={} refactorizations={} elapsed={:.3}s",
                detail(&value),
                op.lp_solves,
                op.warm_hits,
                op.warm_misses,
                op.phase1_pivots,
                op.phase2_pivots,
                op.dual_pivots,
                op.phase3_pivots,
                op.refactorizations,
                op.wall_s,
            );
        }
        self.journal.push(event(&value));
        Ok((value, op))
    }

    /// Runs `f` under panic isolation. A panicking operation quarantines
    /// the session's derived state, heals the authoritative state from the
    /// write-ahead journal and retries once; a second panic is reported as
    /// [`SessionError::Poisoned`]. Structured errors pass straight through:
    /// they leave the session consistent by construction.
    fn with_healing<T>(
        &mut self,
        op: &str,
        f: impl Fn(&mut Session) -> Result<T, SessionError>,
    ) -> Result<T, SessionError> {
        match catch_unwind(AssertUnwindSafe(|| f(&mut *self))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                let first = panic_text(payload.as_ref());
                self.heal()?;
                match catch_unwind(AssertUnwindSafe(|| f(&mut *self))) {
                    Ok(outcome) => outcome,
                    Err(retry) => Err(SessionError::Poisoned {
                        op: op.to_string(),
                        first,
                        second: panic_text(retry.as_ref()),
                    }),
                }
            }
        }
    }

    /// Quarantines every piece of derived state a panic may have poisoned —
    /// the formulation templates, their warm bases, the pending-edit sets
    /// and the warm-start cache — and rebuilds the authoritative settings
    /// (edge costs, node mask, budget, simulation config, cache capacity)
    /// from the write-ahead journal on the pristine base instance
    /// ([`Settings::fold`]). Completed solutions, realizations and
    /// statistics are plain values recorded only after their operation
    /// succeeded, so they survive as-is; the quarantined templates are
    /// rebuilt lazily (cold) on the next solve.
    fn heal(&mut self) -> Result<(), SessionError> {
        let settings = Settings::fold(&self.pristine, &self.journal)?;
        self.instance = settings.instance;
        self.mask = settings.mask;
        self.budget = settings.budget;
        self.sim_config = settings.sim_config;
        let mut cache = WarmStartCache::new();
        cache.set_capacity(settings.cache_capacity);
        self.cache = cache;
        self.templates = SessionTemplates::new();
        self.multi_template = None;
        self.dirty = std::array::from_fn(|_| BTreeSet::new());
        self.bases = std::array::from_fn(|_| None);
        self.stats.panics_healed += 1;
        Ok(())
    }

    /// Chaos hook: arms the next `n` solve dispatches to poison the
    /// session's pending-edit sets and panic mid-operation, exactly the way
    /// an interrupted mutation sweep would leave them. Exercises the
    /// quarantine + journal-heal path deterministically from integration
    /// tests; not part of the supported API surface.
    #[doc(hidden)]
    pub fn arm_panic(&mut self, n: u8) {
        self.panic_armed = n;
    }

    fn maybe_injected_panic(&mut self) {
        if self.panic_armed > 0 {
            self.panic_armed -= 1;
            // Poison the derived state the way a mid-sweep panic would
            // leave it: a dangling edge id in every pending-edit set (any
            // template re-sync would index out of bounds on it) and a
            // dropped warm-start cache. Healing must clear all of it.
            for slot in 0..SLOTS {
                self.dirty[slot].insert(u32::MAX);
            }
            self.cache = WarmStartCache::new();
            // `resume_unwind` unwinds without calling the panic hook, so a
            // panic that `with_healing` catches and heals prints nothing;
            // the payload is the same `&'static str` a `panic!` would carry.
            std::panic::resume_unwind(Box::new("injected session panic (chaos hook)"));
        }
    }

    /// The captured steady state of `kind`'s last solve, the input of its
    /// realizations.
    fn steady_state(&self, kind: HeuristicKind) -> Result<SteadyStateSolution, RealizeError> {
        self.solution_for(kind)
            .and_then(|r| r.steady_state.clone())
            .ok_or_else(|| {
                RealizeError::NotRealizable(format!(
                    "{} has no captured steady-state solution in this session",
                    kind.label()
                ))
            })
    }

    /// The trees of `trees` that are still executable under the current
    /// mask: the seed pool of a re-realization.
    fn active_trees(&self, trees: &WeightedTreeSet) -> Vec<MulticastTree> {
        trees
            .trees()
            .iter()
            .filter(|t| self.tree_active(t))
            .cloned()
            .collect()
    }

    /// Whether every edge of the tree is active under the current mask.
    fn tree_active(&self, tree: &MulticastTree) -> bool {
        tree.edges()
            .iter()
            .all(|&e| self.mask.edge_active(&self.instance.platform, e))
    }

    /// The swap of `old` for `new` (one commodity's tree sets): the drain of
    /// the old trees, the first delivery of the new ones and their diff by
    /// edge set (see [`TransitionCost`]). The switchover and rate fields are
    /// left at zero for [`TransitionCost::at_rates`].
    fn tree_swap(&self, old: &WeightedTreeSet, new: &WeightedTreeSet) -> TransitionCost {
        let platform = &self.instance.platform;
        // Old trees through a node the drift disabled cannot drain any
        // in-flight traffic (consistent with the seed-pool filter of the
        // re-realizations): only the still-executable ones bound the drain.
        let drain_time = old
            .trees()
            .iter()
            .filter(|t| self.tree_active(t))
            .map(|t| Simulator::tree_fill_makespan(platform, t))
            .fold(0.0, f64::max);
        let first_delivery_latency = new
            .trees()
            .iter()
            .map(|t| Simulator::tree_fill_makespan(platform, t))
            .fold(f64::INFINITY, f64::min);
        // Diff by edge set (a tree's edges are sorted and deduplicated).
        let old_keys: BTreeSet<&[EdgeId]> = old.trees().iter().map(|t| t.edges()).collect();
        let new_keys: BTreeSet<&[EdgeId]> = new.trees().iter().map(|t| t.edges()).collect();
        let trees_kept = new_keys.intersection(&old_keys).count();
        TransitionCost {
            drain_time,
            first_delivery_latency: if first_delivery_latency.is_finite() {
                first_delivery_latency
            } else {
                0.0
            },
            switch_time: 0.0,
            multicasts_lost: 0.0,
            throughput_delta: 0.0,
            trees_kept,
            trees_added: new_keys.len() - trees_kept,
            trees_dropped: old_keys.len() - trees_kept,
        }
    }

    fn slot_built(&self, slot: usize) -> bool {
        match slot {
            SLOT_MS => self.templates.ms.is_some(),
            SLOT_MULTI => self.multi_template.is_some(),
            _ => self.templates.flow[slot].is_some(),
        }
    }

    /// Builds the flow template of `slot` if missing, else replays the
    /// pending edge-cost edits into it.
    fn ensure_flow(&mut self, slot: usize) {
        if self.templates.flow[slot].is_none() {
            let mut template = flow_template(slot, &self.instance);
            template.set_budget(self.budget);
            template.set_context(self.ctx.clone());
            self.templates.flow[slot] = Some(template);
            self.dirty[slot].clear();
            return;
        }
        let dirty = std::mem::take(&mut self.dirty[slot]);
        let template = self.templates.flow[slot].as_mut().expect("checked above");
        for e in dirty {
            let edge = EdgeId(e);
            template.set_edge_cost(edge, self.instance.platform.cost(edge));
        }
    }

    /// Builds the multi-source template if missing, else replays the
    /// pending edge-cost edits into it.
    fn ensure_ms(&mut self) {
        if self.templates.ms.is_none() {
            let mut template = MaskedMultiSourceUb::new(&self.instance);
            template.set_budget(self.budget);
            template.set_context(self.ctx.clone());
            self.templates.ms = Some(template);
            self.dirty[SLOT_MS].clear();
            return;
        }
        let dirty = std::mem::take(&mut self.dirty[SLOT_MS]);
        let template = self.templates.ms.as_mut().expect("checked above");
        for e in dirty {
            let edge = EdgeId(e);
            template.set_edge_cost(edge, self.instance.platform.cost(edge));
        }
    }

    fn solve_flow(
        &mut self,
        slot: usize,
        kind: HeuristicKind,
        options: RunOptions,
    ) -> Result<(HeuristicResult, SessionOpStats), FormulationError> {
        self.ensure_flow(slot);
        let hint = self.bases[slot].clone();
        let template = self.templates.flow[slot].as_ref().expect("just built");
        let out = template.solve(&self.mask, hint.as_ref())?;
        let mut op = SessionOpStats::default();
        op.note(&out.stats);
        self.bases[slot] = Some(out.basis);
        let mut result = HeuristicResult::new(kind.label(), out.flow.period);
        op.write_to(&mut result);
        if options.capture_steady_state {
            let commodities = if slot == SLOT_EB {
                broadcast_commodities(&self.instance)
            } else {
                self.instance.targets.clone()
            };
            result.steady_state = SteadyStateSolution::from_flow_solution(
                &self.instance,
                &commodities,
                &out.flow,
                out.flow.period,
            );
        }
        Ok((result, op))
    }

    fn solve_mcph(
        &self,
        options: RunOptions,
    ) -> Result<(HeuristicResult, SessionOpStats), FormulationError> {
        let platform = &self.instance.platform;
        // Edges touching a disabled node are priced out of the tree.
        let costs: Vec<f64> = platform
            .edge_ids()
            .map(|e| {
                if self.mask.edge_active(platform, e) {
                    platform.cost(e)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let tree = Mcph.build_tree_with_costs(&self.instance, costs)?;
        let period = tree.period(platform);
        let mut result = HeuristicResult::new(Mcph.name(), period);
        if options.capture_steady_state && period.is_finite() && period > 0.0 {
            let mut trees = WeightedTreeSet::new();
            trees
                .push(tree.clone(), 1.0 / period)
                .expect("a finite period yields a finite weight");
            result.steady_state = Some(SteadyStateSolution::Trees { period, trees });
        }
        result.tree = Some(tree);
        Ok((result, SessionOpStats::default()))
    }
}

/// The entry of `kind` in a per-kind store, if any.
fn latest<T>(store: &[(HeuristicKind, T)], kind: HeuristicKind) -> Option<&T> {
    store.iter().find(|(k, _)| *k == kind).map(|(_, v)| v)
}

/// Replaces (or adds) the entry of `kind` in a per-kind store.
fn remember<T>(store: &mut Vec<(HeuristicKind, T)>, kind: HeuristicKind, value: T) {
    match store.iter_mut().find(|(k, _)| *k == kind) {
        Some((_, slot)) => *slot = value,
        None => store.push((kind, value)),
    }
}

/// Renders a caught panic payload (`&str` or `String` payloads; anything
/// else is reported opaquely).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{BroadcastBaseline, LowerBoundReference, ScatterBaseline};
    use pm_platform::instances::{figure1_instance, figure5_instance};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    /// The one-shot oracle: each heuristic run directly through its
    /// [`ThroughputHeuristic`] impl, rebuilding everything from scratch.
    fn one_shot(kind: HeuristicKind, inst: &MulticastInstance) -> HeuristicResult {
        let options = RunOptions::default();
        match kind {
            HeuristicKind::Scatter => ScatterBaseline.run_with(inst, options),
            HeuristicKind::LowerBound => LowerBoundReference.run_with(inst, options),
            HeuristicKind::Broadcast => BroadcastBaseline.run_with(inst, options),
            HeuristicKind::Mcph => Mcph.run_with(inst, options),
            HeuristicKind::AugmentedMulticast => AugmentedMulticast.run_with(inst, options),
            HeuristicKind::ReducedBroadcast => ReducedBroadcast.run_with(inst, options),
            HeuristicKind::MultisourceMulticast => {
                AugmentedSources::default().run_with(inst, options)
            }
        }
        .unwrap()
    }

    #[test]
    fn session_solves_match_one_shot_runs_on_a_static_platform() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        for kind in HeuristicKind::ALL {
            let fresh = one_shot(kind, &inst);
            let live = session.solve(kind).unwrap();
            approx(live.result.period, fresh.period);
        }
        assert_eq!(session.stats().solves, HeuristicKind::ALL.len() as u64);
    }

    #[test]
    fn edge_drift_resolves_warm_and_matches_fresh() {
        let inst = figure5_instance(3);
        let mut session = Session::new(inst.clone());
        session.solve(HeuristicKind::Scatter).unwrap();
        // Drift every relay->target edge cost upward.
        let edits: Vec<(EdgeId, f64)> = inst
            .platform
            .edges()
            .map(|(e, edge)| (e, edge.cost * 1.5))
            .collect();
        let mut drifted = inst.clone();
        for &(e, c) in &edits {
            session.set_edge_cost(e, c).unwrap();
            drifted.platform.set_cost(e, c).unwrap();
        }
        let live = session.solve(HeuristicKind::Scatter).unwrap();
        let fresh = one_shot(HeuristicKind::Scatter, &drifted);
        approx(live.result.period, fresh.period);
        // The re-solve warm-started from the pre-drift basis.
        assert_eq!(live.stats.lp_solves, 1);
        assert_eq!(live.stats.warm_hits, 1);
    }

    #[test]
    fn node_churn_is_a_mask_flip_and_matches_fresh_restriction() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        let before = session.solve(HeuristicKind::Broadcast).unwrap();
        // P4/P5 form a redundant backbone detour; disabling them keeps the
        // platform connected.
        assert!(session.disable_node(NodeId(4)).unwrap());
        assert!(session.disable_node(NodeId(5)).unwrap());
        let after = session.solve(HeuristicKind::Broadcast).unwrap();
        // Fewer active nodes = fewer broadcast commodities: the period may
        // move either way; what must hold is parity with a fresh session.
        let mut fresh = Session::new(inst.clone());
        fresh.disable_node(NodeId(4)).unwrap();
        fresh.disable_node(NodeId(5)).unwrap();
        let oracle = fresh.solve(HeuristicKind::Broadcast).unwrap();
        approx(after.result.period, oracle.result.period);
        // Re-enabling restores the original value.
        assert!(session.enable_node(NodeId(4)).unwrap());
        assert!(session.enable_node(NodeId(5)).unwrap());
        let restored = session.solve(HeuristicKind::Broadcast).unwrap();
        approx(restored.result.period, before.result.period);
        assert_eq!(session.stats().node_events, 4);
    }

    #[test]
    fn session_rejects_illegal_mutations() {
        let inst = figure5_instance(2);
        let mut session = Session::new(inst.clone());
        assert!(session.disable_node(inst.source).is_err());
        assert!(session.disable_node(inst.targets[0]).is_err());
        assert!(session.disable_node(NodeId(99)).is_err());
        assert!(session.enable_node(NodeId(99)).is_err());
        let edge = inst.platform.edge_ids().next().unwrap();
        assert!(session.set_edge_cost(edge, 0.0).is_err());
        assert!(session.set_edge_cost(edge, f64::NAN).is_err());
        assert!(session.set_edge_cost(EdgeId(9999), 1.0).is_err());
        assert_eq!(session.stats().edge_edits, 0);
    }

    #[test]
    fn re_realize_reports_transition_costs_after_drift() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        session.solve(HeuristicKind::Broadcast).unwrap();
        let first = session.re_realize(HeuristicKind::Broadcast).unwrap();
        assert!(first.transition.is_none());
        assert_eq!(first.realization.simulated.one_port_violations, 0);

        // Drift a backbone edge and re-solve + re-realize.
        let edge = inst.platform.edge_ids().next().unwrap();
        let cost = inst.platform.cost(edge);
        session.set_edge_cost(edge, cost * 2.0).unwrap();
        session.solve(HeuristicKind::Broadcast).unwrap();
        let second = session.re_realize(HeuristicKind::Broadcast).unwrap();
        let transition = second
            .transition
            .expect("second realization has a baseline");
        assert!(transition.drain_time > 0.0);
        assert!(transition.first_delivery_latency > 0.0);
        approx(
            transition.switch_time,
            transition.drain_time + transition.first_delivery_latency,
        );
        assert!(transition.multicasts_lost > 0.0);
        assert_eq!(
            transition.trees_kept + transition.trees_added,
            second.realization.tree_set.len()
        );
        assert_eq!(second.realization.simulated.one_port_violations, 0);
        assert_eq!(session.stats().realizations, 2);
    }

    #[test]
    fn re_realize_counts_the_work_of_its_packing_lps() {
        let mut session = Session::new(figure1_instance());
        let solved = session.solve(HeuristicKind::Broadcast).unwrap();
        let realized = session.re_realize(HeuristicKind::Broadcast).unwrap();
        let op = realized.stats;
        assert!(op.lp_solves > 0);
        assert!(op.phase2_pivots > 0, "the packing LP pivots: {op:?}");
        assert!(op.refactorizations > 0);
        let total = session.stats();
        assert_eq!(
            total.phase2_pivots,
            solved.stats.phase2_pivots + op.phase2_pivots
        );
        assert_eq!(
            total.refactorizations,
            solved.stats.refactorizations + op.refactorizations
        );
    }

    #[test]
    fn robust_re_realization_measures_crash_and_recovery_transitions() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        session.solve(HeuristicKind::LowerBound).unwrap();
        let options = RobustOptions {
            sim: pm_sim::SimulationConfig {
                horizon: 40,
                warmup: 4,
                ..pm_sim::SimulationConfig::default()
            },
            ..RobustOptions::default()
        };
        let healthy = session
            .re_realize_robust(HeuristicKind::LowerBound, &options)
            .unwrap();
        assert!(healthy.transition.is_none());
        assert_eq!(healthy.realization.fault_free.delivery_ratio, 1.0);
        assert_eq!(healthy.realization.fault_free.one_port_violations, 0);

        // Crash a relay: the robust pool rebuilds from what survives the
        // mask and the degradation is measured as a transition.
        assert!(session.disable_node(NodeId(4)).unwrap());
        session.solve(HeuristicKind::LowerBound).unwrap();
        let degraded = session
            .re_realize_robust(HeuristicKind::LowerBound, &options)
            .unwrap();
        let crash = degraded.transition.expect("crash has a baseline");
        assert!(crash.switch_time >= 0.0);
        assert_eq!(degraded.realization.fault_free.delivery_ratio, 1.0);

        // Recovery: re-enable and re-realize again.
        assert!(session.enable_node(NodeId(4)).unwrap());
        session.solve(HeuristicKind::LowerBound).unwrap();
        let recovered = session
            .re_realize_robust(HeuristicKind::LowerBound, &options)
            .unwrap();
        let recovery = recovered.transition.expect("recovery has a baseline");
        // Recovering the node can only restore (or keep) robust capacity.
        assert!(recovery.throughput_delta >= -1e-9);
        assert_eq!(session.stats().realizations, 3);
        assert!(session
            .robust_realization_for(HeuristicKind::LowerBound)
            .is_some());
    }

    #[test]
    fn realize_without_a_solve_is_not_realizable() {
        let mut session = Session::new(figure5_instance(2));
        session.arm_panic(1);
        assert!(matches!(
            session.re_realize(HeuristicKind::Scatter),
            Err(SessionError::Realize(RealizeError::NotRealizable(_)))
        ));
        // A failed operation records nothing, and only solves consume an
        // armed panic: the next solve fires it and heals.
        assert!(session.journal().is_empty());
        assert_eq!(session.stats(), SessionStats::default());
        session.solve(HeuristicKind::Scatter).unwrap();
        assert_eq!(session.stats().panics_healed, 1);
        assert_eq!(session.stats().solves, 1);
    }

    #[test]
    fn session_errors_expose_their_full_source_chain() {
        use std::error::Error;
        let err = SessionError::from(FormulationError::from(pm_lp::LpError::Infeasible));
        let level1 = err.source().expect("SessionError wraps a cause");
        assert!(level1.is::<FormulationError>());
        let level2 = level1
            .source()
            .expect("FormulationError wraps the LP cause");
        assert!(level2.is::<pm_lp::LpError>());
        assert!(level2.source().is_none());
        // Replay errors point at their boxed inner failure.
        let replay = SessionError::Replay {
            index: 3,
            source: Box::new(SessionError::from(RealizeError::NotRealizable(
                "no steady state".into(),
            ))),
        };
        assert!(replay.source().expect("replay cause").is::<SessionError>());
    }

    #[test]
    fn solve_multisource_matches_the_greedy_template_path() {
        let inst = figure5_instance(3);
        let mut session = Session::new(inst.clone());
        let single = session.solve_multisource(&[inst.source]).unwrap();
        let scatter = session.solve(HeuristicKind::Scatter).unwrap();
        approx(single.period, scatter.result.period);
        // Promoting the relay warm-starts from the single-source basis.
        let multi = session
            .solve_multisource(&[inst.source, NodeId(1)])
            .unwrap();
        assert!(multi.period < single.period - 0.25);
        assert!(session.stats().warm_hits >= 1);
    }

    #[test]
    fn journal_replay_reconstructs_bit_identical_state() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        session.solve(HeuristicKind::Broadcast).unwrap();
        let edge = inst.platform.edge_ids().next().unwrap();
        session
            .set_edge_cost(edge, inst.platform.cost(edge) * 2.0)
            .unwrap();
        assert!(session.disable_node(NodeId(4)).unwrap());
        assert!(session.disable_node(NodeId(5)).unwrap());
        session.solve(HeuristicKind::Broadcast).unwrap();
        session.re_realize(HeuristicKind::Broadcast).unwrap();

        let snapshot = session.snapshot();
        let mut replayed = Session::restore(&snapshot).unwrap();
        assert_eq!(replayed.journal(), session.journal());
        assert_eq!(
            replayed.instance().platform.cost(edge).to_bits(),
            session.instance().platform.cost(edge).to_bits()
        );
        assert_eq!(replayed.mask().to_nodes(), session.mask().to_nodes());

        // Deterministic solves: the replayed session's next solve is
        // bit-identical to the original's, down to the pivot counts (it
        // warm-starts from the same reconstructed basis).
        let a = session.solve(HeuristicKind::Broadcast).unwrap();
        let b = replayed.solve(HeuristicKind::Broadcast).unwrap();
        assert_eq!(a.result.period.to_bits(), b.result.period.to_bits());
        assert_eq!(a.stats.lp_solves, b.stats.lp_solves);
        assert_eq!(a.stats.warm_hits, b.stats.warm_hits);
        assert_eq!(a.stats.phase1_pivots, b.stats.phase1_pivots);
        assert_eq!(a.stats.phase2_pivots, b.stats.phase2_pivots);
        let (sa, sb) = (session.stats(), replayed.stats());
        assert_eq!(sa.lp_solves, sb.lp_solves);
        assert_eq!(sa.phase1_pivots, sb.phase1_pivots);
        assert_eq!(sa.phase2_pivots, sb.phase2_pivots);
        assert_eq!(sa.edge_edits, sb.edge_edits);
        assert_eq!(sa.node_events, sb.node_events);
    }

    #[test]
    fn replaying_a_foreign_journal_reports_the_offending_entry() {
        let mut session = Session::new(figure1_instance());
        let edge = session.instance().platform.edge_ids().next().unwrap();
        session.set_edge_cost(edge, 2.0).unwrap();
        let mut journal = session.journal().to_vec();
        // Corrupt the journal: an edge the tiny platform does not have.
        journal.push(SessionEvent::SetEdgeCost {
            edge: EdgeId(9999),
            cost: 1.0,
        });
        match Session::replay(figure1_instance(), &journal) {
            Err(SessionError::Replay { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected a replay error, got {other:?}"),
        }
    }

    #[test]
    fn a_panicking_solve_heals_from_the_journal() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        session.solve(HeuristicKind::Broadcast).unwrap();
        let edge = inst.platform.edge_ids().next().unwrap();
        session
            .set_edge_cost(edge, inst.platform.cost(edge) * 1.5)
            .unwrap();

        session.arm_panic(1);
        let healed = session.solve(HeuristicKind::Broadcast).unwrap();
        assert_eq!(session.stats().panics_healed, 1);

        // The healed solve matches a fresh session on the same mutation
        // history bit-for-bit: the quarantine rebuilt everything from the
        // journal, poisoned dirty sets and all.
        let mut fresh = Session::new(inst.clone());
        fresh
            .set_edge_cost(edge, inst.platform.cost(edge) * 1.5)
            .unwrap();
        let oracle = fresh.solve(HeuristicKind::Broadcast).unwrap();
        assert_eq!(
            healed.result.period.to_bits(),
            oracle.result.period.to_bits()
        );

        // And the session stays fully serviceable afterwards.
        session.re_realize(HeuristicKind::Broadcast).unwrap();
    }

    #[test]
    fn a_double_panic_reports_poisoned_instead_of_unwinding() {
        let mut session = Session::new(figure1_instance());
        session.arm_panic(2);
        match session.solve(HeuristicKind::Broadcast) {
            Err(SessionError::Poisoned { op, .. }) => assert!(op.contains("solve")),
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // The panicked operation never committed to the journal, and the
        // quarantined session still solves.
        assert!(session.journal().is_empty());
        session.solve(HeuristicKind::Broadcast).unwrap();
        assert_eq!(session.journal().len(), 1);
    }

    #[test]
    fn a_set_context_reaches_built_templates_and_packing_lps() {
        use pm_lp::SolveTally;
        use std::sync::Arc;
        let mut session = Session::new(figure1_instance());
        // Build the lower-bound template under the default context first.
        let before = session.solve(HeuristicKind::LowerBound).unwrap();
        let tally = Arc::new(SolveTally::new());
        session.set_context(SolveContext {
            tally: Some(Arc::clone(&tally)),
            ..SolveContext::default()
        });
        let solve = session.solve(HeuristicKind::LowerBound).unwrap();
        let realize = session.re_realize(HeuristicKind::LowerBound).unwrap();
        // The already-built template's solve and every packing LP count.
        assert!(solve.stats.lp_solves > 0 && realize.stats.lp_solves > 0);
        assert_eq!(
            tally.counters().solves,
            solve.stats.lp_solves + realize.stats.lp_solves
        );
        assert_eq!(
            solve.result.period.to_bits(),
            before.result.period.to_bits()
        );
        // The context is not journaled: a replay solves under the default
        // context, so nothing it solves reaches the tally.
        let replayed = Session::restore(&session.snapshot()).unwrap();
        assert!(replayed.ctx.tally.is_none());
        assert_eq!(
            tally.counters().solves,
            solve.stats.lp_solves + realize.stats.lp_solves
        );
    }

    #[test]
    fn session_budgets_degrade_to_anytime_solutions_instead_of_failing() {
        // Probe the unbudgeted pivot counts of a few formulations to pick
        // one whose phase 2 actually pivots, and a budget that exhausts it
        // while letting phase 1 finish.
        let inst = figure1_instance();
        let mut picked = None;
        for kind in [
            HeuristicKind::Broadcast,
            HeuristicKind::Scatter,
            HeuristicKind::LowerBound,
        ] {
            let mut probe = Session::new(inst.clone());
            let full = probe.solve(kind).unwrap();
            if full.stats.phase2_pivots > 0 {
                picked = Some((kind, full));
                break;
            }
        }
        let (kind, full) = picked.expect("some figure 1 formulation pivots in phase 2");
        let (p1, p2) = (full.stats.phase1_pivots, full.stats.phase2_pivots);

        let mut session = Session::new(inst);
        session.set_budget(Some(SolveBudget::pivots(p1 + p2 - 1)));
        let capped = session.solve(kind).unwrap();
        assert_eq!(capped.stats.degraded_solves, 1);
        assert_eq!(capped.result.degraded_solves, 1);
        assert!(session.stats().degraded_solves >= 1);
        // The anytime point is primal feasible, so its period can only be
        // worse than (or equal to) the certified optimum.
        assert!(capped.result.period >= full.result.period - 1e-9);
        // The budget is journaled: a replay reproduces the degraded solve.
        let replayed = Session::restore(&session.snapshot()).unwrap();
        assert_eq!(
            replayed.stats().degraded_solves,
            session.stats().degraded_solves
        );
        assert_eq!(replayed.budget(), session.budget());
    }

    #[test]
    fn compacted_journal_restores_bit_identically() {
        // Trace shape: churn → solve + realize → churn → solve + realize.
        // Compaction folds the leading churn and nothing solve-shaped, so
        // the retained suffix replays through the exact same arithmetic and
        // the two restores agree bit for bit, realizations included.
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        let edges: Vec<EdgeId> = inst.platform.edge_ids().collect();
        session.set_edge_cost(edges[0], 1.75).unwrap();
        session.set_edge_cost(edges[1], 2.5).unwrap();
        session.set_edge_cost(edges[0], 1.25).unwrap();
        assert!(session.disable_node(NodeId(4)).unwrap());
        assert!(session.enable_node(NodeId(4)).unwrap());
        assert!(session.disable_node(NodeId(5)).unwrap());
        session.set_budget(Some(SolveBudget::pivots(100_000)));
        session.solve(HeuristicKind::Broadcast).unwrap();
        session.re_realize(HeuristicKind::Broadcast).unwrap();
        session.set_edge_cost(edges[2], 3.0).unwrap();
        session.solve(HeuristicKind::Broadcast).unwrap();
        session.re_realize(HeuristicKind::Broadcast).unwrap();

        let full = session.snapshot();
        let before = session.journal().len();
        let dropped = session.compact_journal();
        // Seven prefix events fold into two head events (net disable +
        // budget); the five retained suffix events are kept verbatim.
        assert_eq!(dropped, 5);
        assert_eq!(session.journal().len(), before - dropped);
        let compacted = session.snapshot();

        let mut a = Session::restore(&full).unwrap();
        let mut b = Session::restore(&compacted).unwrap();
        for e in inst.platform.edge_ids() {
            assert_eq!(
                a.instance().platform.cost(e).to_bits(),
                b.instance().platform.cost(e).to_bits()
            );
        }
        assert_eq!(a.mask().to_nodes(), b.mask().to_nodes());
        assert_eq!(a.budget(), b.budget());
        let (sa, sb) = (
            a.solution_for(HeuristicKind::Broadcast).unwrap(),
            b.solution_for(HeuristicKind::Broadcast).unwrap(),
        );
        assert_eq!(sa.period.to_bits(), sb.period.to_bits());
        let (ra, rb) = (
            a.realization_for(HeuristicKind::Broadcast).unwrap(),
            b.realization_for(HeuristicKind::Broadcast).unwrap(),
        );
        assert_eq!(
            ra.simulated.throughput.to_bits(),
            rb.simulated.throughput.to_bits()
        );
        assert_eq!(ra.realization_gap.to_bits(), rb.realization_gap.to_bits());
        assert_eq!(ra.tree_set.len(), rb.tree_set.len());
        assert_eq!(ra.simulated.one_port_violations, 0);
        assert_eq!(rb.simulated.one_port_violations, 0);
        // And the *next* operation continues identically on both restores,
        // down to the pivot counts.
        let (na, nb) = (
            a.solve(HeuristicKind::Broadcast).unwrap(),
            b.solve(HeuristicKind::Broadcast).unwrap(),
        );
        assert_eq!(na.result.period.to_bits(), nb.result.period.to_bits());
        assert_eq!(na.stats.phase1_pivots, nb.stats.phase1_pivots);
        assert_eq!(na.stats.phase2_pivots, nb.stats.phase2_pivots);
        assert_eq!(na.stats.warm_hits, nb.stats.warm_hits);
    }

    #[test]
    fn compaction_drops_superseded_solves_and_keeps_results_equal() {
        let inst = figure5_instance(3);
        let e0 = inst.platform.edge_ids().next().unwrap();
        let mut session = Session::new(inst.clone());
        session.solve(HeuristicKind::Scatter).unwrap(); // superseded
        session.set_edge_cost(e0, 1.5).unwrap();
        session.solve(HeuristicKind::LowerBound).unwrap(); // superseded
        session.set_edge_cost(e0, 1.1).unwrap();
        session.solve(HeuristicKind::Scatter).unwrap(); // last of kind: live
        session.solve(HeuristicKind::LowerBound).unwrap(); // live

        let full = session.snapshot();
        let dropped = session.compact_journal();
        // The two superseded solves and the two cost edits fold away.
        assert_eq!(dropped, 4);
        assert_eq!(session.journal().len(), 2);

        let a = Session::restore(&full).unwrap();
        let b = Session::restore(&session.snapshot()).unwrap();
        assert_eq!(
            a.instance().platform.cost(e0).to_bits(),
            b.instance().platform.cost(e0).to_bits()
        );
        // A solve whose superseded predecessor was folded away replays
        // cold instead of warm: the optimum is the same unique value, but
        // the vertex may be reached through different pivots, so the
        // comparison is numeric, not bitwise.
        for kind in [HeuristicKind::Scatter, HeuristicKind::LowerBound] {
            let (pa, pb) = (
                a.solution_for(kind).unwrap().period,
                b.solution_for(kind).unwrap().period,
            );
            assert!((pa - pb).abs() <= 1e-9, "{kind:?}: {pa} vs {pb}");
        }
    }

    #[test]
    fn session_multi_solves_realize_and_replay_bit_identically() {
        let inst = figure1_instance();
        let mut session = Session::new(inst.clone());
        let commodities = vec![
            Commodity {
                source: inst.source,
                targets: inst.targets.clone(),
                demand: 1.0,
            },
            // A second multicast inside the fast P7 cluster: it competes
            // with commodity 0 for P7..P10's ports (figure 1 is a DAG, so
            // no reverse demand exists).
            Commodity {
                source: NodeId(7),
                targets: vec![NodeId(8), NodeId(9), NodeId(10)],
                demand: 2.0,
            },
        ];
        let solved = session.solve_multi(&commodities).unwrap();
        assert!(solved.flow.period.is_finite() && solved.flow.period > 0.0);
        // Demands 1:2 must split the rates 1:2.
        assert!((solved.flow.rates[1] / solved.flow.rates[0] - 2.0).abs() < 1e-6);
        let realized = session.re_realize_multi().unwrap();
        assert!(realized.transition.is_none());
        assert_eq!(realized.realization.simulated.one_port_violations, 0);
        for c in 0..2 {
            let (sim, cert) = (
                realized.realization.simulated_rates[c],
                realized.realization.certified_rates[c],
            );
            assert!(
                (sim - cert).abs() <= 1e-6 * cert.max(1.0),
                "{sim} vs {cert}"
            );
        }

        // Drift an edge: the joint template survives (one LP re-solve, no
        // rebuild), and the second realization reports a transition.
        let e0 = inst.platform.edge_ids().next().unwrap();
        session.set_edge_cost(e0, 1.5).unwrap();
        let re = session.solve_multi(&commodities).unwrap();
        assert_eq!(re.stats.lp_solves, 1);
        let re_realized = session.re_realize_multi().unwrap();
        let transition = re_realized.transition.expect("second realization diffs");
        assert!(transition.switch_time >= 0.0);

        // The journal replays the whole multi history bit-identically.
        let restored = Session::restore(&session.snapshot()).unwrap();
        let (ca, fa) = session.multi_solution().unwrap();
        let (cb, fb) = restored.multi_solution().unwrap();
        assert!(same_commodities(ca, cb));
        assert_eq!(fa.period.to_bits(), fb.period.to_bits());
        let (ra, rb) = (
            session.multi_realization().unwrap(),
            restored.multi_realization().unwrap(),
        );
        assert_eq!(ra.schedule, rb.schedule);
        assert_eq!(ra.simulated_rates, rb.simulated_rates);
        assert_eq!(ra.tag_ranges, rb.tag_ranges);

        // Compaction keeps the last multi solve and every multi
        // realization live; the compacted restore still agrees.
        let mut compacted = session;
        compacted.compact_journal();
        let c = Session::restore(&compacted.snapshot()).unwrap();
        assert_eq!(c.multi_realization().unwrap().schedule, rb.schedule);
    }

    #[test]
    fn session_multi_with_one_commodity_matches_the_lb_pipeline_bitwise() {
        let inst = figure1_instance();
        let commodities = vec![Commodity {
            source: inst.source,
            targets: inst.targets.clone(),
            demand: 1.0,
        }];
        let mut multi_session = Session::new(inst.clone());
        let solved = multi_session.solve_multi(&commodities).unwrap();
        let multi = multi_session.re_realize_multi().unwrap();

        let mut lb_session = Session::new(inst);
        let lb = lb_session.solve(HeuristicKind::LowerBound).unwrap();
        lb_session.re_realize(HeuristicKind::LowerBound).unwrap();
        let single = lb_session
            .realization_for(HeuristicKind::LowerBound)
            .unwrap();

        assert_eq!(
            solved.flow.flows[0].period.to_bits(),
            lb.result.period.to_bits()
        );
        assert_eq!(multi.realization.schedule, single.schedule);
        assert_eq!(multi.realization.tree_sets[0], single.tree_set);
        assert_eq!(multi.realization.simulated, single.simulated);
    }

    #[test]
    fn cache_capacity_is_journaled_and_bounds_the_ambient_cache() {
        let mut session = Session::new(figure1_instance());
        session.set_cache_capacity(Some(2));
        session.solve(HeuristicKind::Broadcast).unwrap();
        session.re_realize(HeuristicKind::Broadcast).unwrap();
        assert!(session.cache().len() <= 2);
        assert_eq!(session.cache().capacity(), Some(2));
        let restored = Session::restore(&session.snapshot()).unwrap();
        assert_eq!(restored.cache().capacity(), Some(2));
        assert_eq!(restored.cache().len(), session.cache().len());
        assert_eq!(restored.cache().evictions, session.cache().evictions);
        // Compaction folds the capacity into a head event that survives.
        session.compact_journal();
        assert!(matches!(
            session.journal()[0],
            SessionEvent::SetCacheCapacity { capacity: Some(2) }
        ));
        let recompacted = Session::restore(&session.snapshot()).unwrap();
        assert_eq!(recompacted.cache().capacity(), Some(2));
    }

    #[test]
    fn preseeded_templates_match_a_lazily_built_session() {
        let inst = figure5_instance(3);
        let mut templates = SessionTemplates::new();
        templates.ensure_for(&inst, HeuristicKind::Scatter);
        templates.ensure_for(&inst, HeuristicKind::AugmentedMulticast);
        assert_eq!(templates.built(), 3); // UB + EB + LB
        let mut seeded = Session::with_templates(inst.clone(), &templates);
        assert_eq!(seeded.templates_built(), 3);
        let mut lazy = Session::new(inst.clone());
        for kind in [HeuristicKind::Scatter, HeuristicKind::AugmentedMulticast] {
            let a = seeded.solve(kind).unwrap();
            let b = lazy.solve(kind).unwrap();
            assert_eq!(a.result.period.to_bits(), b.result.period.to_bits());
            assert_eq!(a.stats.phase1_pivots, b.stats.phase1_pivots);
            assert_eq!(a.stats.phase2_pivots, b.stats.phase2_pivots);
        }
        // A template set built for a different instance is refused and the
        // session stays lazy.
        let other = Session::with_templates(figure5_instance(4), &templates);
        assert_eq!(other.templates_built(), 0);
        // ensure_all builds the remaining slots exactly once.
        templates.ensure_all(&inst);
        assert_eq!(templates.built(), 4);
    }

    #[test]
    fn shard_cache_swap_shares_packing_bases_across_sessions() {
        let inst = figure1_instance();
        let mut shard_cache = WarmStartCache::new();
        // The first session realizes under the shard-level cache...
        let mut a = Session::new(inst.clone());
        a.solve(HeuristicKind::Broadcast).unwrap();
        a.swap_cache(&mut shard_cache);
        a.re_realize(HeuristicKind::Broadcast).unwrap();
        a.swap_cache(&mut shard_cache);
        let hits_after_first = shard_cache.hits;
        assert!(!shard_cache.is_empty());
        // ...and the second one warm-starts its packing LPs from it.
        let mut b = Session::new(inst.clone());
        b.solve(HeuristicKind::Broadcast).unwrap();
        b.swap_cache(&mut shard_cache);
        let realized = b.re_realize(HeuristicKind::Broadcast).unwrap();
        b.swap_cache(&mut shard_cache);
        assert!(shard_cache.hits > hits_after_first);
        assert_eq!(realized.realization.simulated.one_port_violations, 0);
    }
}
