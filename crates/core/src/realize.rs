//! Realizing LP steady-state solutions as simulator-verified periodic
//! schedules — the constructive half of the paper.
//!
//! The LP formulations bound the optimal period; this module closes the loop
//! by *executing* their solutions:
//!
//! ```text
//! rates ──► weighted-tree decomposition ──► packing LP re-weight
//!       ──► weighted König edge coloring ──► PeriodicSchedule
//!       ──► one-port Simulator check
//! ```
//!
//! Every heuristic (and reference curve) exposes what it solved as a
//! [`SteadyStateSolution`]; [`realize`] decomposes it into a
//! [`WeightedTreeSet`] ([`WeightedTreeSet::from_flows`]), re-weights the
//! peeled trees with the packing LP of Theorem 4 ([`crate::exact::pack_trees`])
//! and *clamps* the result to the LP throughput — the realization certifies
//! the claimed period, it does not race past it (tree sharing can beat the
//! scatter-accounted LPs outright, e.g. on Figure 5). The certified tree set
//! is colored into a [`PeriodicSchedule`] carrying exactly one multicast per
//! period and replayed by the [`Simulator`]; the gap between the simulated
//! and the claimed period is reported as [`Realization::realization_gap`].
//!
//! The `Multicast-LB` reference is *not* always achievable (that is the
//! paper's hardness result); its realization honestly reports the best
//! period the peeled trees support. The achievable formulations
//! (`Multicast-UB`, `Broadcast-EB`, the multi-source scatter) realize at
//! gap ≈ 0: for the scatter-accounted ones this is guaranteed — a tree never
//! occupies an edge more than the per-target copies the LP already paid for.

use crate::exact::pack_trees_in;
use crate::formulations::FlowSolution;
use pm_lp::{LpError, SolveContext, WarmStartCache};
use pm_platform::graph::NodeId;
use pm_platform::instances::MulticastInstance;
use pm_sched::schedule::{PeriodicSchedule, ScheduleError};
use pm_sched::tree::{cancel_flow_cycles, MulticastTree, TreeError, WeightedTreeSet};
use pm_sim::{SimReport, SimulationConfig, Simulator};
use serde::{Deserialize, Serialize};
use std::fmt;

const FLOW_EPS: f64 = 1e-9;

/// Errors raised while realizing a steady-state solution.
#[derive(Debug, Clone, PartialEq)]
pub enum RealizeError {
    /// The solution cannot be realized at all (infinite period, no trees).
    NotRealizable(String),
    /// The flow decomposition failed.
    Decomposition(TreeError),
    /// The tree-packing LP failed.
    Packing(LpError),
    /// The colored schedule could not be built or validated.
    Schedule(ScheduleError),
}

impl fmt::Display for RealizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RealizeError::NotRealizable(msg) => write!(f, "not realizable: {msg}"),
            RealizeError::Decomposition(e) => write!(f, "flow decomposition failed: {e}"),
            RealizeError::Packing(e) => write!(f, "tree packing failed: {e}"),
            RealizeError::Schedule(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for RealizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RealizeError::NotRealizable(_) => None,
            RealizeError::Decomposition(e) => Some(e),
            RealizeError::Packing(e) => Some(e),
            RealizeError::Schedule(e) => Some(e),
        }
    }
}

impl From<LpError> for RealizeError {
    fn from(e: LpError) -> Self {
        RealizeError::Packing(e)
    }
}

impl From<TreeError> for RealizeError {
    fn from(e: TreeError) -> Self {
        RealizeError::Decomposition(e)
    }
}

impl From<ScheduleError> for RealizeError {
    fn from(e: ScheduleError) -> Self {
        RealizeError::Schedule(e)
    }
}

/// What a heuristic actually solved, in a shape the realization pipeline can
/// execute. Edge indices always refer to the *full* platform (the masked
/// formulations never re-index), and flow rows are per-message fractions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SteadyStateSolution {
    /// A single-source flow: one ≈unit flow row per instance target, in
    /// `instance.targets` order (`Multicast-LB`/`UB` directly; `Broadcast-EB`
    /// solutions are restricted to their instance-target rows first).
    TargetFlows {
        /// The period the LP certified for these flows.
        period: f64,
        /// `target_flows[i][e]`: fraction of target `i`'s message on edge `e`.
        target_flows: Vec<Vec<f64>>,
    },
    /// A multi-source scatter solution: per-destination unit flows plus the
    /// ordered source list, to be composed into end-to-end flows from the
    /// primary source (a secondary source's traffic is re-rooted through the
    /// flows that delivered the message to it).
    MultiSource {
        /// The period the LP certified.
        period: f64,
        /// Ordered sources, the instance's own source first.
        sources: Vec<NodeId>,
        /// Destination nodes, aligned with `dest_flows`.
        dest_nodes: Vec<NodeId>,
        /// `dest_flows[d][e]`: fraction of destination `d`'s message on `e`.
        dest_flows: Vec<Vec<f64>>,
    },
    /// An explicit tree combination (MCPH, exact packing): already realized,
    /// the pipeline only re-packs, schedules and simulates it.
    Trees {
        /// The period claimed for the combination.
        period: f64,
        /// The trees with their rates (multicasts per time-unit).
        trees: WeightedTreeSet,
    },
}

impl SteadyStateSolution {
    /// The period the solution claims (what the realization must certify).
    pub fn period(&self) -> f64 {
        match self {
            SteadyStateSolution::TargetFlows { period, .. }
            | SteadyStateSolution::MultiSource { period, .. }
            | SteadyStateSolution::Trees { period, .. } => *period,
        }
    }

    /// Builds the [`SteadyStateSolution::TargetFlows`] view of a
    /// [`FlowSolution`] whose commodity rows follow `commodity_targets`
    /// (e.g. every non-source node for a `Broadcast-EB` solve): only the
    /// rows of the instance's own targets are kept, in instance order.
    /// Returns `None` when some instance target has no commodity row.
    pub fn from_flow_solution(
        instance: &MulticastInstance,
        commodity_targets: &[NodeId],
        flow: &FlowSolution,
        period: f64,
    ) -> Option<Self> {
        let rows: Option<Vec<Vec<f64>>> = instance
            .targets
            .iter()
            .map(|t| {
                commodity_targets
                    .iter()
                    .position(|c| c == t)
                    .map(|i| flow.target_flows[i].clone())
            })
            .collect();
        Some(SteadyStateSolution::TargetFlows {
            period,
            target_flows: rows?,
        })
    }
}

/// The result of realizing a steady-state solution: a certified tree set,
/// its periodic schedule and the simulator's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Realization {
    /// The period the LP (or tree heuristic) claimed.
    pub lp_period: f64,
    /// The realized combination, with rates clamped to the LP throughput
    /// (the schedule certifies the claim; any surplus the trees could reach
    /// beyond it is reported in `packed_throughput` instead).
    pub tree_set: WeightedTreeSet,
    /// The best throughput the packing LP found over the peeled trees
    /// (may exceed `1 / lp_period` when tree sharing beats the LP's
    /// accounting).
    pub packed_throughput: f64,
    /// The certified period (`1 /` the clamped throughput). Equals
    /// `lp_period` whenever the decomposition fully supports the claim.
    pub achieved_period: f64,
    /// The periodic schedule executing one multicast per `achieved_period`.
    pub schedule: PeriodicSchedule,
    /// The simulator's replay of `schedule`.
    pub simulated: SimReport,
    /// `|simulated_period − lp_period| / lp_period`.
    pub realization_gap: f64,
}

/// Realizes a steady-state solution as a simulator-verified periodic
/// schedule (see the module docs for the pipeline).
pub fn realize(
    instance: &MulticastInstance,
    solution: &SteadyStateSolution,
) -> Result<Realization, RealizeError> {
    realize_with(instance, solution, SimulationConfig::default())
}

/// [`realize`] with an explicit simulation configuration. The packing LPs
/// run cold under the default [`SolveContext`].
pub fn realize_with(
    instance: &MulticastInstance,
    solution: &SteadyStateSolution,
    config: SimulationConfig,
) -> Result<Realization, RealizeError> {
    realize_with_pool(
        &SolveContext::default(),
        &mut WarmStartCache::with_capacity(0),
        instance,
        solution,
        &[],
        config,
    )
}

/// [`realize_with`] with a *seed tree pool*: trees realized earlier (e.g.
/// the previous realization of a long-lived [`crate::session::Session`])
/// join the candidate pool before the packing LP runs. On a drifting
/// platform most of the previous combination usually stays packable, so the
/// re-weight starts from a pool that already certifies (most of) the claim
/// instead of re-discovering it; seeding can only extend the pool the
/// packing LP chooses from, so the certified period is never worse than the
/// unseeded one. Seeds must span the instance's targets (they are
/// [`MulticastTree`]s of this instance); the caller filters out trees that
/// use currently disabled nodes. Every packing LP runs under `ctx`, through
/// `cache`.
pub fn realize_with_pool(
    ctx: &SolveContext,
    cache: &mut WarmStartCache,
    instance: &MulticastInstance,
    solution: &SteadyStateSolution,
    seed_trees: &[MulticastTree],
    config: SimulationConfig,
) -> Result<Realization, RealizeError> {
    let platform = &instance.platform;
    let lp_period = solution.period();
    if !(lp_period.is_finite() && lp_period > 0.0) {
        return Err(RealizeError::NotRealizable(format!(
            "period {lp_period} is not finite and positive"
        )));
    }

    let (mut pool, flow_rows) = candidate_pool(instance, solution, seed_trees)?;

    // 3. Re-weight with the packing LP of Theorem 4 (the peel fixes
    // structure, the LP fixes rates), then close any remaining gap by
    // pricing: while the packed trees fall short of the LP throughput,
    // rebuild an MCPH tree inside the flow support with edge costs inflated
    // by the congestion of the current packing — a column-generation step
    // whose pricing is heuristic — and re-pack. Bounded and deterministic.
    let lp_throughput = 1.0 / lp_period;
    let (mut weights, mut packed_throughput) =
        pack_trees_in(ctx, cache, platform, &pool).map_err(RealizeError::Packing)?;
    if let Some(rows) = &flow_rows {
        let support: Vec<bool> = (0..platform.edge_count())
            .map(|e| rows.iter().any(|row| row[e] > FLOW_EPS))
            .collect();
        const PRICING_ROUNDS: usize = 4;
        for _ in 0..PRICING_ROUNDS {
            if packed_throughput >= lp_throughput * (1.0 - 1e-9) {
                break;
            }
            // Port utilizations of the current packing.
            let mut send_util = vec![0.0; platform.node_count()];
            let mut recv_util = vec![0.0; platform.node_count()];
            for (tree, &w) in pool.iter().zip(&weights) {
                for &e in tree.edges() {
                    let edge = platform.edge(e);
                    send_util[edge.src.index()] += w * edge.cost;
                    recv_util[edge.dst.index()] += w * edge.cost;
                }
            }
            let priced: Vec<f64> = platform
                .edge_ids()
                .map(|e| {
                    if !support[e.index()] {
                        return f64::INFINITY;
                    }
                    let edge = platform.edge(e);
                    edge.cost * (0.05 + send_util[edge.src.index()] + recv_util[edge.dst.index()])
                })
                .collect();
            let Ok(tree) = crate::heuristics::Mcph.build_tree_with_costs(instance, priced) else {
                break;
            };
            if pool.iter().any(|p| p.edges() == tree.edges()) {
                break;
            }
            pool.push(tree);
            let packed =
                pack_trees_in(ctx, cache, platform, &pool).map_err(RealizeError::Packing)?;
            weights = packed.0;
            packed_throughput = packed.1;
        }
    }
    let trees = pool;
    if packed_throughput <= FLOW_EPS {
        return Err(RealizeError::NotRealizable(
            "the packed tree set carries no throughput".to_string(),
        ));
    }

    // 4. Clamp to the claimed throughput: certify, don't overshoot.
    let certified_throughput = packed_throughput.min(lp_throughput);
    let mut packed_set = WeightedTreeSet::new();
    for (tree, &w) in trees.iter().zip(&weights) {
        if w > FLOW_EPS {
            packed_set.push(tree.clone(), w)?;
        }
    }
    let tree_set = packed_set.scaled_to_throughput(certified_throughput);
    let achieved_period = 1.0 / certified_throughput;

    // 5. Color the period and replay it: one multicast per period.
    let schedule = PeriodicSchedule::from_weighted_trees(platform, &tree_set, achieved_period)?;
    schedule.validate(platform)?;
    let simulated = Simulator::new(config).run_schedule(platform, &schedule);
    let realization_gap = (simulated.period - lp_period).abs() / lp_period;

    Ok(Realization {
        lp_period,
        tree_set,
        packed_throughput,
        achieved_period,
        schedule,
        simulated,
        realization_gap,
    })
}

/// Per-target end-to-end flow rows of a flow-shaped solution.
pub(crate) type FlowRows = Vec<Vec<f64>>;

/// The candidate-tree pool of a steady-state solution: the flow peels (two
/// target orders lay down different round skeletons) or the explicit tree
/// combination, extended with `seed_trees`, deduplicated by edge set.
/// Returns the pool together with the per-target flow rows when the
/// solution is flow-shaped (the rows bound the support of pricing rounds).
pub(crate) fn candidate_pool(
    instance: &MulticastInstance,
    solution: &SteadyStateSolution,
    seed_trees: &[MulticastTree],
) -> Result<(Vec<MulticastTree>, Option<FlowRows>), RealizeError> {
    // 1. Per-target end-to-end flows (when the solution is flow-shaped).
    let flow_rows: Option<Vec<Vec<f64>>> = match solution {
        SteadyStateSolution::TargetFlows { target_flows, .. } => Some(target_flows.clone()),
        SteadyStateSolution::MultiSource {
            sources,
            dest_nodes,
            dest_flows,
            ..
        } => Some(compose_target_flows(
            instance, sources, dest_nodes, dest_flows,
        )?),
        SteadyStateSolution::Trees { .. } => None,
    };

    // 2. Candidate trees: peel the flows, or take the explicit combination.
    let mut pool: Vec<MulticastTree> = Vec::new();
    // Different peel orders (and seed trees from a previous realization)
    // can find the same tree; duplicate columns would only bloat the
    // packing LP.
    let add_tree = |pool: &mut Vec<MulticastTree>, tree: &MulticastTree| {
        if !pool.iter().any(|p| p.edges() == tree.edges()) {
            pool.push(tree.clone());
        }
    };
    match (&flow_rows, solution) {
        (Some(rows), _) => {
            let natural = WeightedTreeSet::from_flows(instance, rows)?;
            for tree in natural.trees() {
                add_tree(&mut pool, tree);
            }
            let reversed: Vec<usize> = (0..instance.targets.len()).rev().collect();
            if let Ok(set) = WeightedTreeSet::from_flows_with_order(instance, rows, &reversed) {
                for tree in set.trees() {
                    add_tree(&mut pool, tree);
                }
            }
        }
        (None, SteadyStateSolution::Trees { trees, .. }) => {
            for tree in trees.trees() {
                add_tree(&mut pool, tree);
            }
        }
        (None, _) => unreachable!("flow-shaped solutions always produce rows"),
    }
    for tree in seed_trees {
        add_tree(&mut pool, tree);
    }
    if pool.is_empty() {
        return Err(RealizeError::NotRealizable(
            "the decomposition produced no tree".to_string(),
        ));
    }
    Ok((pool, flow_rows))
}

/// Composes the per-destination flows of a multi-source solution into one
/// end-to-end ≈unit flow per instance target, rooted at the primary source:
/// whatever a destination receives from a secondary source is re-rooted
/// through (its share of) the flows that delivered the message to that
/// source, recursively down to the primary source. Sources are ordered and
/// a secondary source only draws from strictly earlier ones, so the
/// recursion is well-founded.
fn compose_target_flows(
    instance: &MulticastInstance,
    sources: &[NodeId],
    dest_nodes: &[NodeId],
    dest_flows: &[Vec<f64>],
) -> Result<Vec<Vec<f64>>, RealizeError> {
    let platform = &instance.platform;
    let m = platform.edge_count();
    if dest_nodes.len() != dest_flows.len() {
        return Err(RealizeError::NotRealizable(format!(
            "{} destination rows for {} destinations",
            dest_flows.len(),
            dest_nodes.len()
        )));
    }
    let row_of = |node: NodeId| dest_nodes.iter().position(|&d| d == node);
    let mut composed: Vec<Option<Vec<f64>>> = vec![None; dest_nodes.len()];

    // Resolve destinations in source order first (each only pulls from
    // earlier sources), then the plain targets (they pull from any source).
    let mut order: Vec<usize> = Vec::with_capacity(dest_nodes.len());
    for &s in sources.iter().skip(1) {
        if let Some(di) = row_of(s) {
            order.push(di);
        }
    }
    for (di, &d) in dest_nodes.iter().enumerate() {
        if !sources.contains(&d) {
            order.push(di);
        }
    }

    for di in order {
        let mut row: Vec<f64> = dest_flows[di]
            .iter()
            .map(|&v| if v > FLOW_EPS { v } else { 0.0 })
            .collect();
        cancel_flow_cycles(platform, &mut row, FLOW_EPS);
        // Net injection at every secondary source = what this destination
        // drew from it; replace it by that share of the source's own
        // (already composed) delivery flow.
        let mut additions: Vec<(f64, usize)> = Vec::new();
        for &s in sources.iter().skip(1) {
            if s == dest_nodes[di] {
                continue;
            }
            let mut divergence = 0.0;
            for &e in platform.out_edges(s) {
                divergence += row[e.index()];
            }
            for &e in platform.in_edges(s) {
                divergence -= row[e.index()];
            }
            if divergence > FLOW_EPS {
                let si = row_of(s).ok_or_else(|| {
                    RealizeError::NotRealizable(format!(
                        "secondary source {s} injects flow but has no delivery row"
                    ))
                })?;
                additions.push((divergence, si));
            }
        }
        for (share, si) in additions {
            let delivery = composed[si].as_ref().ok_or_else(|| {
                RealizeError::NotRealizable(format!(
                    "delivery flow of source {} not composed yet",
                    dest_nodes[si]
                ))
            })?;
            for e in 0..m {
                row[e] += share * delivery[e];
            }
        }
        cancel_flow_cycles(platform, &mut row, FLOW_EPS);
        composed[di] = Some(row);
    }

    instance
        .targets
        .iter()
        .map(|&t| {
            let di = row_of(t).ok_or_else(|| {
                RealizeError::NotRealizable(format!("target {t} has no destination row"))
            })?;
            composed[di].clone().ok_or_else(|| {
                RealizeError::NotRealizable(format!("target {t} flow was never composed"))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulations::{BroadcastEb, MulticastLb, MulticastMultiSourceUb, MulticastUb};
    use crate::heuristics::{Mcph, ThroughputHeuristic};
    use pm_platform::instances::{chain_instance, figure1_instance, figure5_instance};

    fn target_flows_solution(
        instance: &MulticastInstance,
        flow: &FlowSolution,
    ) -> SteadyStateSolution {
        SteadyStateSolution::from_flow_solution(instance, &instance.targets, flow, flow.period)
            .expect("rows align with targets")
    }

    #[test]
    fn figure1_lower_bound_realizes_at_period_one() {
        // Figure 1 is the paper's worked example where the LB (period 1) is
        // actually achievable by two weighted trees: the decomposition must
        // find a certificate.
        let inst = figure1_instance();
        let lb = MulticastLb::new(&inst).solve().unwrap();
        let real = realize(&inst, &target_flows_solution(&inst, &lb)).unwrap();
        assert!(
            real.realization_gap < 1e-6,
            "gap {} (achieved {} vs LP {})",
            real.realization_gap,
            real.achieved_period,
            real.lp_period
        );
        assert_eq!(real.simulated.one_port_violations, 0);
        assert!(real.tree_set.len() >= 2, "one tree cannot reach period 1");
    }

    #[test]
    fn scatter_flows_always_realize_their_period() {
        // Sum accounting dominates tree sharing: the scatter bound is
        // achievable by construction.
        for inst in [
            figure1_instance(),
            figure5_instance(3),
            chain_instance(5, 0.7),
        ] {
            let ub = MulticastUb::new(&inst).solve().unwrap();
            let real = realize(&inst, &target_flows_solution(&inst, &ub)).unwrap();
            assert!(
                real.realization_gap < 1e-6,
                "gap {} on {} nodes",
                real.realization_gap,
                inst.platform.node_count()
            );
            assert_eq!(real.simulated.one_port_violations, 0);
            // The trees may genuinely beat the scatter accounting...
            assert!(real.packed_throughput >= ub.throughput - 1e-7);
            // ... but the certified schedule never overshoots the claim.
            assert!(real.achieved_period >= ub.period - 1e-7);
        }
    }

    #[test]
    fn broadcast_eb_realizes_on_figure1() {
        let inst = figure1_instance();
        let eb = BroadcastEb::new(&inst).solve().unwrap();
        // Broadcast commodity rows cover every non-source node; restrict to
        // the instance targets.
        let commodities: Vec<NodeId> = inst
            .platform
            .nodes()
            .filter(|&v| v != inst.source)
            .collect();
        let solution =
            SteadyStateSolution::from_flow_solution(&inst, &commodities, &eb, eb.period).unwrap();
        let real = realize(&inst, &solution).unwrap();
        assert!(real.realization_gap < 1e-6, "gap {}", real.realization_gap);
        assert_eq!(real.simulated.one_port_violations, 0);
    }

    #[test]
    fn multisource_composition_realizes_figure5() {
        let inst = figure5_instance(3);
        let relay = NodeId(1);
        let ms = MulticastMultiSourceUb::new(&inst, vec![inst.source, relay])
            .unwrap()
            .solve()
            .unwrap();
        let solution = SteadyStateSolution::MultiSource {
            period: ms.period,
            sources: vec![inst.source, relay],
            dest_nodes: ms.dest_nodes.clone(),
            dest_flows: ms.dest_flows.clone(),
        };
        let real = realize(&inst, &solution).unwrap();
        // The single source->relay->targets tree beats the multi-source
        // scatter accounting (period 1 vs 1+1/3): packed exceeds the LP,
        // the certificate clamps to it.
        assert!(real.packed_throughput >= ms.throughput - 1e-7);
        assert!(real.realization_gap < 1e-6, "gap {}", real.realization_gap);
        assert_eq!(real.simulated.one_port_violations, 0);
    }

    #[test]
    fn tree_solutions_realize_trivially() {
        let inst = figure1_instance();
        let res = Mcph.run(&inst).unwrap();
        let tree = res.tree.clone().unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(tree, 1.0 / res.period).unwrap();
        let solution = SteadyStateSolution::Trees {
            period: res.period,
            trees: set,
        };
        let real = realize(&inst, &solution).unwrap();
        assert!(real.realization_gap < 1e-6, "gap {}", real.realization_gap);
        assert_eq!(real.simulated.one_port_violations, 0);
    }

    #[test]
    fn infinite_periods_are_not_realizable() {
        let inst = chain_instance(3, 1.0);
        let solution = SteadyStateSolution::TargetFlows {
            period: f64::INFINITY,
            target_flows: vec![vec![0.0; inst.platform.edge_count()]; inst.targets.len()],
        };
        assert!(matches!(
            realize(&inst, &solution),
            Err(RealizeError::NotRealizable(_))
        ));
    }
}
