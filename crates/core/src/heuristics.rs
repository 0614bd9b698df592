//! The paper's heuristics for the series-of-multicasts problem.
//!
//! LP-based refined heuristics (Section 5.2):
//!
//! * [`ReducedBroadcast`] — start from a broadcast on the whole platform and
//!   greedily remove the non-target nodes that contribute the least traffic,
//! * [`AugmentedMulticast`] — start from the platform restricted to
//!   `{Psource} ∪ Ptarget` and greedily add the non-target nodes that carry
//!   the most traffic in the `Multicast-LB` solution,
//! * [`AugmentedSources`] — greedily promote well-placed nodes to secondary
//!   sources in the `MulticastMultiSource-UB` formulation.
//!
//! All three run on the *masked* formulations of [`crate::masked`]: the LP
//! is built once per run on the full platform, and every candidate
//! sub-platform is a bound-update re-solve warm-started from the round's
//! optimal basis. Each round solves its candidates one at a time in score
//! order and stops at the first one that does not degrade the period, as
//! the sequential loops of Figures 6–8 do: no solve is thrown away, and the
//! results do not depend on the thread count.
//!
//! Tree-based heuristic (Section 6):
//!
//! * [`Mcph`] — the Minimum Cost Path Heuristic revisited for the one-port
//!   steady-state metric: the "cost" of adding a path is the largest
//!   *additional send-port occupation* it causes, and costs are updated so
//!   that reusing edges already in the tree is free.
//!
//! All heuristics return a [`HeuristicResult`] reporting the period they
//! achieve (time per multicast), so that they can be compared against the
//! `scatter` upper bound and the theoretical lower bound exactly as in
//! Figure 11 of the paper.

use crate::formulations::{BroadcastEb, FormulationError, MulticastLb, MulticastUb};
use crate::masked::{MaskedFlow, MaskedFlowLp, MaskedMultiSource, MaskedMultiSourceUb};
use crate::realize::SteadyStateSolution;
use pm_lp::WarmStatus;
use pm_platform::algo::multi_source_bottleneck;
use pm_platform::graph::{EdgeId, NodeId};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
use pm_sched::tree::{MulticastTree, WeightedTreeSet};
use serde::{Deserialize, Serialize};

/// Result of running a heuristic on an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeuristicResult {
    /// Human-readable name of the heuristic.
    pub name: String,
    /// Achieved period (time per multicast in steady state).
    pub period: f64,
    /// Achieved throughput (`1 / period`).
    pub throughput: f64,
    /// The multicast tree built by the heuristic, when it is tree-based.
    pub tree: Option<MulticastTree>,
    /// For `REDUCED BROADCAST` / `AUGMENTED MULTICAST`: the node set of the
    /// final sub-platform; for `AUGMENTED SOURCES`: the final source list.
    pub selected_nodes: Vec<NodeId>,
    /// Number of linear programs solved along the way.
    ///
    /// For the masked greedy heuristics this equals
    /// `warm_hits + warm_misses` (candidates rejected by the reachability
    /// pre-check never reach the LP and are not counted). The baseline
    /// curves solve through [`pm_lp::LpProblem::solve`] instead — their
    /// warm-start outcome lives in the ambient
    /// [`pm_lp::WarmStartCache`] scope (if any), so they report zero warm
    /// counters here; `crate::report::MulticastReport::collect` attributes
    /// those solves per kind from the scope's counter deltas.
    pub lp_solves: usize,
    /// Masked-template solves that warm-started from a previous basis.
    pub warm_hits: usize,
    /// Masked-template solves that ran cold (no or rejected hint).
    pub warm_misses: usize,
    /// Masked-template solves that exhausted their [`pm_lp::SolveBudget`]
    /// and returned a degraded anytime solution instead of a certified
    /// optimum (always zero when no budget is set).
    pub degraded_solves: usize,
    /// What the heuristic actually solved, in realizable form: the winning
    /// sub-platform flows (LP heuristics), the composed multi-source flows
    /// (`AUGMENTED SOURCES`) or the tree itself (`MCPH`). `None` when the
    /// heuristic could not serve the targets (infinite period).
    pub steady_state: Option<crate::realize::SteadyStateSolution>,
}

impl HeuristicResult {
    pub(crate) fn new(name: &str, period: f64) -> Self {
        HeuristicResult {
            name: name.to_string(),
            period,
            throughput: if period > 0.0 {
                1.0 / period
            } else {
                f64::INFINITY
            },
            tree: None,
            selected_nodes: Vec::new(),
            lp_solves: 0,
            warm_hits: 0,
            warm_misses: 0,
            degraded_solves: 0,
            steady_state: None,
        }
    }
}

/// The broadcast-commodity target list of the masked `Broadcast-EB`
/// templates (every non-source node, in platform order): the row layout of
/// the flows the greedy heuristics win with.
pub(crate) fn broadcast_commodities(instance: &MulticastInstance) -> Vec<NodeId> {
    instance
        .platform
        .nodes()
        .filter(|&v| v != instance.source)
        .collect()
}

/// LP accounting of one masked-heuristic run. The pivot/refactorization
/// sums mirror the per-solve [`pm_lp::SolveStats`] so a long-lived
/// [`crate::session::Session`] can aggregate structured solver statistics
/// without scraping the `PM_LP_STATS=1` stderr lines.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LpCounters {
    pub(crate) solves: usize,
    pub(crate) hits: usize,
    pub(crate) misses: usize,
    pub(crate) degraded: usize,
    pub(crate) phase1_pivots: u64,
    pub(crate) phase2_pivots: u64,
    pub(crate) refactorizations: u64,
}

impl LpCounters {
    fn note(&mut self, stats: &crate::masked::MaskedStats) {
        self.solves += 1;
        if stats.warm == WarmStatus::Hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if stats.solve.degraded {
            self.degraded += 1;
        }
        self.phase1_pivots += stats.solve.phase1_pivots as u64;
        self.phase2_pivots += stats.solve.phase2_pivots as u64;
        self.refactorizations += stats.solve.refactorizations as u64;
    }

    /// An LP solve that ended in a solver error (counted as a cold solve).
    fn note_failed(&mut self) {
        self.solves += 1;
        self.misses += 1;
    }

    fn write_to(&self, result: &mut HeuristicResult) {
        result.lp_solves = self.solves;
        result.warm_hits = self.hits;
        result.warm_misses = self.misses;
        result.degraded_solves = self.degraded;
    }
}

/// The outcome of a greedy run driven on caller-owned masked templates (the
/// [`crate::session::Session`] fast path): the plain [`HeuristicResult`]
/// plus the warm-start seeds and counters the session carries across
/// solves.
#[derive(Debug)]
pub(crate) struct GreedyRun {
    pub(crate) result: HeuristicResult,
    /// The basis of the winning solve on the primary template (`None` when
    /// the heuristic never completed an LP solve).
    pub(crate) final_basis: Option<pm_lp::Basis>,
    /// `AUGMENTED MULTICAST` only: the basis of the `Multicast-LB` scoring
    /// solve on the secondary template.
    pub(crate) aux_basis: Option<pm_lp::Basis>,
    pub(crate) counters: LpCounters,
}

/// Options of [`ThroughputHeuristic::run_with`].
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Capture the winning solution as a [`SteadyStateSolution`] in
    /// [`HeuristicResult::steady_state`]. Capturing clones the flow
    /// matrices, so callers that only need periods (the default fig11
    /// sweep) turn it off; [`ThroughputHeuristic::run`] keeps it on.
    pub capture_steady_state: bool,
    /// Deterministic per-solve work caps applied to the masked templates a
    /// run builds (`None` defers to the `PM_LP_BUDGET` default). Under an
    /// exhausted budget a greedy run keeps going on degraded anytime
    /// solutions — reported in [`HeuristicResult::degraded_solves`] —
    /// instead of failing.
    pub budget: Option<pm_lp::SolveBudget>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            capture_steady_state: true,
            budget: None,
        }
    }
}

/// Common interface of all the heuristics.
pub trait ThroughputHeuristic {
    /// Name used in reports and experiment tables.
    fn name(&self) -> &'static str;
    /// Runs the heuristic on an instance (capturing the steady-state
    /// solution for realization; see [`ThroughputHeuristic::run_with`]).
    fn run(&self, instance: &MulticastInstance) -> Result<HeuristicResult, FormulationError> {
        self.run_with(instance, RunOptions::default())
    }
    /// Runs the heuristic with explicit options.
    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError>;
}

/// Upper limit on greedy iterations, as a safety net (the greedy loops are
/// already bounded by the platform size).
const MAX_GREEDY_STEPS: usize = 256;

/// A masked candidate solve's result, as the greedy rounds need it: a
/// period to compare and a warm status to account.
trait CandidateOutcome {
    fn period(&self) -> f64;
    fn stats(&self) -> &crate::masked::MaskedStats;
}

impl CandidateOutcome for MaskedFlow {
    fn period(&self) -> f64 {
        self.flow.period
    }
    fn stats(&self) -> &crate::masked::MaskedStats {
        &self.stats
    }
}

impl CandidateOutcome for MaskedMultiSource {
    fn period(&self) -> f64 {
        self.solution.period
    }
    fn stats(&self) -> &crate::masked::MaskedStats {
        &self.stats
    }
}

/// Solves `candidates` (already in score order) one at a time and returns
/// the first one whose period does not degrade `best` — the acceptance rule
/// of the sequential greedy loops of Figures 6–8. The candidates after it
/// are never solved.
///
/// `solve(candidate)` maps a candidate to its masked solve (node removal
/// for `REDUCED BROADCAST`, addition for `AUGMENTED MULTICAST`, source
/// promotion for `AUGMENTED SOURCES`), warm-started from the round's
/// optimal basis. A candidate rejected before the LP (`Unreachable` from
/// the reachability pre-check) has period +∞ and costs no solve; like the
/// sequential loops, it still "does not degrade" an infinite `best` — this
/// is how `AUGMENTED MULTICAST` grows its node set while the restricted
/// platform is not yet connected — and such an acceptance carries no
/// solution.
fn first_improving<P: CandidateOutcome>(
    candidates: &[(f64, NodeId)],
    solve: impl Fn(NodeId) -> Result<P, FormulationError>,
    best: f64,
    counters: &mut LpCounters,
) -> Option<(NodeId, Option<P>)> {
    for &(_, v) in candidates {
        match solve(v) {
            Ok(out) => {
                counters.note(out.stats());
                if out.period() <= best + 1e-9 {
                    return Some((v, Some(out)));
                }
            }
            // Disconnected candidate: period +∞, no LP solved.
            Err(FormulationError::Unreachable(_)) => {
                if best.is_infinite() {
                    return Some((v, None));
                }
            }
            Err(FormulationError::InvalidArgument(_)) => {}
            Err(FormulationError::Lp(_)) => counters.note_failed(),
        }
    }
    None
}

/// `REDUCED BROADCAST` (Figure 6): repeatedly remove the non-target,
/// non-source node with the smallest incoming traffic in the current
/// `Broadcast-EB` solution, as long as the broadcast period on the reduced
/// platform does not degrade.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReducedBroadcast;

impl ReducedBroadcast {
    /// The greedy loop on a caller-owned `Broadcast-EB` template, restricted
    /// to the active nodes of `base_mask` and warm-started from `hint` — the
    /// [`crate::session::Session`] entry point ([`ThroughputHeuristic::run_with`]
    /// wraps it with a freshly built template and a full mask).
    pub(crate) fn run_on(
        &self,
        template: &MaskedFlowLp,
        base_mask: &NodeMask,
        hint: Option<&pm_lp::Basis>,
        options: RunOptions,
    ) -> Result<GreedyRun, FormulationError> {
        let instance = template.instance();
        let platform = &instance.platform;
        let mut counters = LpCounters::default();
        let mut mask = base_mask.clone();

        let initial = match template.solve(&mask, hint) {
            Ok(out) => {
                counters.note(&out.stats);
                Some(out)
            }
            // Some node is unreachable even on the base platform: the
            // broadcast value is +∞ and no removal can fix it.
            Err(FormulationError::Unreachable(_)) => None,
            Err(e) => {
                if matches!(e, FormulationError::Lp(_)) {
                    counters.note_failed();
                }
                return Err(e);
            }
        };
        let Some(mut current) = initial else {
            let mut result = HeuristicResult::new(self.name(), f64::INFINITY);
            result.selected_nodes = mask.to_nodes();
            counters.write_to(&mut result);
            return Ok(GreedyRun {
                result,
                final_basis: None,
                aux_basis: None,
                counters,
            });
        };
        let mut best = current.flow.period;
        let mut steps = 0;
        while steps < MAX_GREEDY_STEPS {
            steps += 1;
            // Score candidates with the current sub-platform's broadcast
            // flows; node ids never change under the mask, so the scores
            // read off the full platform directly.
            let mut candidates: Vec<(f64, NodeId)> = mask
                .iter()
                .filter(|&v| v != instance.source && !instance.is_target(v))
                .map(|v| (current.flow.incoming_flow_score(platform, v), v))
                .collect();
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let accepted = first_improving(
                &candidates,
                |v| template.solve(&mask.without(v), Some(&current.basis)),
                best,
                &mut counters,
            );
            // `best` is finite here (the infinite case returned early), so
            // an accepted candidate always carries a solution.
            let Some((node, Some(out))) = accepted else {
                break;
            };
            best = best.min(out.flow.period);
            mask.remove(node);
            current = out;
        }
        let mut result = HeuristicResult::new(self.name(), best);
        result.selected_nodes = mask.to_nodes();
        counters.write_to(&mut result);
        if options.capture_steady_state {
            result.steady_state = SteadyStateSolution::from_flow_solution(
                instance,
                &broadcast_commodities(instance),
                &current.flow,
                best,
            );
        }
        Ok(GreedyRun {
            result,
            final_basis: Some(current.basis),
            aux_basis: None,
            counters,
        })
    }
}

impl ThroughputHeuristic for ReducedBroadcast {
    fn name(&self) -> &'static str {
        "Red. BC"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let mut template = MaskedFlowLp::broadcast_eb(instance);
        template.set_budget(options.budget);
        let mask = NodeMask::full(instance.platform.node_count());
        self.run_on(&template, &mask, None, options)
            .map(|r| r.result)
    }
}

/// `AUGMENTED MULTICAST` (Figure 7): start from the platform restricted to
/// the source and the targets, and greedily add the node with the largest
/// incoming traffic in the full-platform `Multicast-LB` solution as long as
/// the broadcast period on the augmented platform does not degrade.
#[derive(Debug, Clone, Copy, Default)]
pub struct AugmentedMulticast;

impl AugmentedMulticast {
    /// The greedy loop on caller-owned templates: `eb_template` drives the
    /// augmented-broadcast solves, `lb_template` the one-off `Multicast-LB`
    /// scoring solve; candidates and the scoring solve are restricted to
    /// the active nodes of `base_mask`.
    pub(crate) fn run_on(
        &self,
        eb_template: &MaskedFlowLp,
        lb_template: &MaskedFlowLp,
        base_mask: &NodeMask,
        eb_hint: Option<&pm_lp::Basis>,
        lb_hint: Option<&pm_lp::Basis>,
        options: RunOptions,
    ) -> Result<GreedyRun, FormulationError> {
        let instance = eb_template.instance();
        let platform = &instance.platform;
        let mut counters = LpCounters::default();
        let mut mask = NodeMask::from_nodes(
            platform.node_count(),
            std::iter::once(instance.source).chain(instance.targets.iter().copied()),
        );
        // The restricted platform is usually disconnected at first: the
        // reachability pre-check reports that without solving any LP.
        let mut current = match eb_template.solve(&mask, eb_hint) {
            Ok(out) => {
                counters.note(&out.stats);
                Some(out)
            }
            Err(FormulationError::Unreachable(_)) => None,
            Err(e) => {
                if matches!(e, FormulationError::Lp(_)) {
                    counters.note_failed();
                }
                return Err(e);
            }
        };
        let mut best = current
            .as_ref()
            .map_or(f64::INFINITY, |out| out.flow.period);

        // Candidate scores come from the Multicast-LB solution on the whole
        // active platform and are computed once (through the masked template
        // so the solve is accounted here, not in the ambient cache scope).
        let lb = lb_template.solve(base_mask, lb_hint)?;
        counters.note(&lb.stats);
        let mut candidates: Vec<(f64, NodeId)> = base_mask
            .iter()
            .filter(|&v| v != instance.source && !instance.is_target(v))
            .map(|v| (lb.flow.incoming_flow_score(platform, v), v))
            .collect();
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

        let mut steps = 0;
        while steps < MAX_GREEDY_STEPS {
            steps += 1;
            let round: Vec<(f64, NodeId)> = candidates
                .iter()
                .copied()
                .filter(|&(_, v)| !mask.contains(v))
                .collect();
            let round_basis = current.as_ref().map(|out| &out.basis);
            let accepted = first_improving(
                &round,
                |v| eb_template.solve(&mask.with(v), round_basis),
                best,
                &mut counters,
            );
            let Some((node, out)) = accepted else { break };
            mask.insert(node);
            if let Some(out) = out {
                best = best.min(out.flow.period);
                current = Some(out);
            }
        }
        let mut result = HeuristicResult::new(self.name(), best);
        result.selected_nodes = mask.to_nodes();
        counters.write_to(&mut result);
        if options.capture_steady_state {
            if let Some(out) = &current {
                result.steady_state = SteadyStateSolution::from_flow_solution(
                    instance,
                    &broadcast_commodities(instance),
                    &out.flow,
                    best,
                );
            }
        }
        Ok(GreedyRun {
            result,
            final_basis: current.map(|out| out.basis),
            aux_basis: Some(lb.basis),
            counters,
        })
    }
}

impl ThroughputHeuristic for AugmentedMulticast {
    fn name(&self) -> &'static str {
        "Augm. MC"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let mut eb_template = MaskedFlowLp::broadcast_eb(instance);
        let mut lb_template = MaskedFlowLp::multicast_lb(instance);
        eb_template.set_budget(options.budget);
        lb_template.set_budget(options.budget);
        let mask = NodeMask::full(instance.platform.node_count());
        self.run_on(&eb_template, &lb_template, &mask, None, None, options)
            .map(|r| r.result)
    }
}

/// `AUGMENTED SOURCES` (Figure 8): greedily promote the node with the largest
/// incoming traffic in the current `MulticastMultiSource-UB` solution to a
/// secondary source, as long as the period does not degrade.
#[derive(Debug, Clone, Copy, Default)]
pub struct AugmentedSources {
    /// Optional cap on the number of secondary sources (0 = no cap). Useful
    /// to bound the LP sizes on large platforms.
    pub max_secondary_sources: usize,
}

impl AugmentedSources {
    /// The greedy source-promotion loop on a caller-owned multi-source
    /// template, restricted to the active nodes of `base_mask` and
    /// warm-started from `hint`.
    pub(crate) fn run_on(
        &self,
        template: &MaskedMultiSourceUb,
        base_mask: &NodeMask,
        hint: Option<&pm_lp::Basis>,
        options: RunOptions,
    ) -> Result<GreedyRun, FormulationError> {
        let instance = template.instance();
        let n = instance.platform.node_count();
        let mut counters = LpCounters::default();
        let mut sources = vec![instance.source];
        let mut is_source = vec![false; n];
        is_source[instance.source.index()] = true;

        // Candidate solves never extract the per-destination flow matrices
        // (periods and incoming scores drive the greedy); when the steady
        // state is captured, one warm re-solve of the winning configuration
        // extracts them at the end.
        let initial = template.solve_opts(base_mask, &sources, hint, false)?;
        counters.note(&initial.stats);
        let mut best = initial.solution.period;
        let mut current = initial;

        let mut steps = 0;
        while steps < MAX_GREEDY_STEPS {
            steps += 1;
            if self.max_secondary_sources > 0 && sources.len() > self.max_secondary_sources {
                break;
            }
            // Every active node is already a source: nothing to promote.
            let mut candidates: Vec<(f64, NodeId)> = base_mask
                .iter()
                .filter(|v| !is_source[v.index()])
                .map(|v| (current.solution.incoming_score[v.index()], v))
                .collect();
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let accepted = first_improving(
                &candidates,
                |v| {
                    let mut extended = sources.clone();
                    extended.push(v);
                    template.solve_opts(base_mask, &extended, Some(&current.basis), false)
                },
                best,
                &mut counters,
            );
            // `best` is finite here (the initial solve either succeeded or
            // propagated its error), so an accepted candidate always
            // carries a solution.
            let Some((node, Some(out))) = accepted else {
                break;
            };
            best = best.min(out.solution.period);
            sources.push(node);
            is_source[node.index()] = true;
            current = out;
        }
        let mut result = HeuristicResult::new(self.name(), best);
        let mut final_basis = current.basis.clone();
        if options.capture_steady_state {
            // One extra solve of the winning configuration, warm-started
            // from its own optimal basis, extracts the flow matrices the
            // candidate loop skipped. A failure here only loses the capture
            // (steady_state stays `None`): realization is a bonus and must
            // never poison the period measurement itself.
            match template.solve_opts(base_mask, &sources, Some(&current.basis), true) {
                Ok(refreshed) => {
                    counters.note(&refreshed.stats);
                    final_basis = refreshed.basis;
                    result.steady_state = Some(SteadyStateSolution::MultiSource {
                        period: best,
                        sources: sources.clone(),
                        dest_nodes: refreshed.solution.dest_nodes,
                        dest_flows: refreshed.solution.dest_flows,
                    });
                }
                Err(FormulationError::Lp(_)) => counters.note_failed(),
                Err(_) => {}
            }
        }
        result.selected_nodes = sources;
        counters.write_to(&mut result);
        Ok(GreedyRun {
            result,
            final_basis: Some(final_basis),
            aux_basis: None,
            counters,
        })
    }
}

impl ThroughputHeuristic for AugmentedSources {
    fn name(&self) -> &'static str {
        "Multisource MC"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let mut template = MaskedMultiSourceUb::new(instance);
        template.set_budget(options.budget);
        let mask = NodeMask::full(instance.platform.node_count());
        self.run_on(&template, &mask, None, options)
            .map(|r| r.result)
    }
}

/// The tree-based `MCPH` heuristic (Figure 9), adapted from the Minimum Cost
/// Path Heuristic for Steiner trees to the one-port steady-state metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcph;

impl Mcph {
    /// Builds the multicast tree chosen by the heuristic.
    pub fn build_tree(
        &self,
        instance: &MulticastInstance,
    ) -> Result<MulticastTree, FormulationError> {
        let cost: Vec<f64> = instance
            .platform
            .edge_ids()
            .map(|e| instance.platform.cost(e))
            .collect();
        self.build_tree_with_costs(instance, cost)
    }

    /// [`Mcph::build_tree`] over caller-supplied base edge costs (`+∞`
    /// excludes an edge entirely). The realization pipeline uses this to
    /// price congested ports and to restrict tree growth to an LP solution's
    /// support.
    pub fn build_tree_with_costs(
        &self,
        instance: &MulticastInstance,
        mut cost: Vec<f64>,
    ) -> Result<MulticastTree, FormulationError> {
        let platform = &instance.platform;
        // Modifiable edge costs: edges already carrying the message are free,
        // and adding a new outgoing edge to a node that already sends data
        // accounts for the serialization of its send port.
        let mut tree_nodes: Vec<NodeId> = vec![instance.source];
        let mut tree_edges: Vec<EdgeId> = Vec::new();
        let mut remaining: Vec<NodeId> = instance.targets.clone();

        while !remaining.is_empty() {
            let paths = multi_source_bottleneck(platform, &tree_nodes, &|e| cost[e.index()]);
            // Pick the reachable target whose path has the smallest bottleneck.
            let mut best: Option<(f64, usize)> = None;
            for (idx, &t) in remaining.iter().enumerate() {
                let d = paths.dist[t.index()];
                if d.is_finite() {
                    match best {
                        None => best = Some((d, idx)),
                        Some((bd, _)) if d < bd => best = Some((d, idx)),
                        _ => {}
                    }
                }
            }
            let Some((_, idx)) = best else {
                return Err(FormulationError::Unreachable(remaining[0]));
            };
            let target = remaining.swap_remove(idx);
            let path = paths
                .path_to(target, platform)
                .expect("reachable target has a path");
            // Add the path and update the modified costs (Figure 9, lines 11-13).
            for &e in &path {
                let edge = platform.edge(e);
                let added_cost = cost[e.index()];
                for &sibling in platform.out_edges(edge.src) {
                    if sibling != e {
                        cost[sibling.index()] += added_cost;
                    }
                }
                cost[e.index()] = 0.0;
                if !tree_nodes.contains(&edge.dst) {
                    tree_nodes.push(edge.dst);
                }
                tree_edges.push(e);
            }
        }
        MulticastTree::new(instance, tree_edges).map_err(|e| {
            FormulationError::InvalidArgument(format!("MCPH built an invalid tree: {e}"))
        })
    }
}

impl ThroughputHeuristic for Mcph {
    fn name(&self) -> &'static str {
        "MCPH"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let tree = self.build_tree(instance)?;
        let period = tree.period(&instance.platform);
        let mut result = HeuristicResult::new(self.name(), period);
        if options.capture_steady_state && period.is_finite() && period > 0.0 {
            let mut trees = WeightedTreeSet::new();
            trees
                .push(tree.clone(), 1.0 / period)
                .expect("a finite period yields a finite weight");
            result.steady_state = Some(SteadyStateSolution::Trees { period, trees });
        }
        result.tree = Some(tree);
        Ok(result)
    }
}

/// The `scatter` baseline: the period of `Multicast-UB`, i.e. pretending
/// every target must receive a distinct message.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScatterBaseline;

impl ThroughputHeuristic for ScatterBaseline {
    fn name(&self) -> &'static str {
        "scatter"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let sol = MulticastUb::new(instance).solve()?;
        let mut result = HeuristicResult::new(self.name(), sol.period);
        result.lp_solves = 1;
        if options.capture_steady_state {
            result.steady_state = SteadyStateSolution::from_flow_solution(
                instance,
                &instance.targets,
                &sol,
                sol.period,
            );
        }
        Ok(result)
    }
}

/// The `broadcast` baseline: broadcast to the whole platform
/// (`Broadcast-EB(P)`), which trivially also serves the targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastBaseline;

impl ThroughputHeuristic for BroadcastBaseline {
    fn name(&self) -> &'static str {
        "broadcast"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let sol = BroadcastEb::new(instance).solve()?;
        let mut result = HeuristicResult::new(self.name(), sol.period);
        result.lp_solves = 1;
        if options.capture_steady_state {
            result.steady_state = SteadyStateSolution::from_flow_solution(
                instance,
                &broadcast_commodities(instance),
                &sol,
                sol.period,
            );
        }
        Ok(result)
    }
}

/// The theoretical `lower bound` reference curve: the period of
/// `Multicast-LB` (not necessarily achievable).
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerBoundReference;

impl ThroughputHeuristic for LowerBoundReference {
    fn name(&self) -> &'static str {
        "lower bound"
    }

    fn run_with(
        &self,
        instance: &MulticastInstance,
        options: RunOptions,
    ) -> Result<HeuristicResult, FormulationError> {
        let sol = MulticastLb::new(instance).solve()?;
        let mut result = HeuristicResult::new(self.name(), sol.period);
        result.lp_solves = 1;
        if options.capture_steady_state {
            result.steady_state = SteadyStateSolution::from_flow_solution(
                instance,
                &instance.targets,
                &sol,
                sol.period,
            );
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_platform::instances::{chain_instance, figure1_instance, figure5_instance};

    #[test]
    fn mcph_on_a_chain_uses_the_chain() {
        let inst = chain_instance(5, 0.5);
        let res = Mcph.run(&inst).unwrap();
        assert!((res.period - 0.5).abs() < 1e-9);
        let tree = res.tree.unwrap();
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn mcph_on_figure5_goes_through_the_relay() {
        let inst = figure5_instance(3);
        let res = Mcph.run(&inst).unwrap();
        // The only possible tree: source -> relay -> {targets}; its period is
        // max(source send = 1, relay send = 3 * 1/3 = 1) = 1.
        assert!((res.period - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mcph_on_figure1_is_a_single_tree_solution() {
        let inst = figure1_instance();
        let res = Mcph.run(&inst).unwrap();
        let tree = res.tree.unwrap();
        // A single tree cannot reach the optimal period 1 (Section 3), but it
        // must stay within the scatter upper bound.
        assert!(res.period >= 1.0 - 1e-9);
        let scatter = ScatterBaseline.run(&inst).unwrap();
        assert!(res.period <= scatter.period + 1e-6);
        // The tree really spans all targets.
        for &t in &inst.targets {
            assert!(tree.covers(&inst.platform, t));
        }
    }

    #[test]
    fn lp_heuristics_are_bounded_by_lb_and_scatter_on_figure5() {
        let inst = figure5_instance(3);
        let lb = LowerBoundReference.run(&inst).unwrap().period;
        let scatter = ScatterBaseline.run(&inst).unwrap().period;
        for heuristic in [
            &ReducedBroadcast as &dyn ThroughputHeuristic,
            &AugmentedMulticast,
            &AugmentedSources::default(),
            &BroadcastBaseline,
            &Mcph,
        ] {
            let res = heuristic.run(&inst).unwrap();
            assert!(
                res.period >= lb - 1e-6,
                "{} beats the lower bound: {} < {lb}",
                res.name,
                res.period
            );
            assert!(
                res.period <= scatter + 1e-6,
                "{} is worse than scatter: {} > {scatter}",
                res.name,
                res.period
            );
        }
    }

    #[test]
    fn reduced_broadcast_on_figure5_keeps_the_relay() {
        // Removing the relay would disconnect the targets, so the heuristic
        // must keep it and end up with the broadcast value.
        let inst = figure5_instance(3);
        let res = ReducedBroadcast.run(&inst).unwrap();
        assert!(res.selected_nodes.contains(&NodeId(1)));
        assert!((res.period - 1.0).abs() < 1e-6);
        assert!(res.lp_solves >= 1);
    }

    #[test]
    fn augmented_multicast_on_figure1_adds_relays_until_feasible() {
        let inst = figure1_instance();
        let res = AugmentedMulticast.run(&inst).unwrap();
        // The restricted platform {source} ∪ targets is disconnected (the
        // targets are only reachable through the relays), so the heuristic
        // must have added relay nodes to produce a finite period.
        assert!(res.period.is_finite());
        assert!(res.selected_nodes.len() > 1 + inst.target_count());
        let lb = LowerBoundReference.run(&inst).unwrap().period;
        assert!(res.period >= lb - 1e-6);
    }

    #[test]
    fn augmented_sources_never_degrades_the_scatter_bound() {
        let inst = figure1_instance();
        let scatter = ScatterBaseline.run(&inst).unwrap().period;
        let res = AugmentedSources::default().run(&inst).unwrap();
        assert!(res.period <= scatter + 1e-6);
        assert!(res.selected_nodes.contains(&inst.source));
    }

    #[test]
    fn heuristic_names_are_stable() {
        assert_eq!(ReducedBroadcast.name(), "Red. BC");
        assert_eq!(AugmentedMulticast.name(), "Augm. MC");
        assert_eq!(AugmentedSources::default().name(), "Multisource MC");
        assert_eq!(Mcph.name(), "MCPH");
        assert_eq!(ScatterBaseline.name(), "scatter");
        assert_eq!(BroadcastBaseline.name(), "broadcast");
        assert_eq!(LowerBoundReference.name(), "lower bound");
    }
}
