//! Multi-commodity steady state: k concurrent demands — distinct
//! multicasts, scatters and broadcast mixes, each with its own source,
//! target set and required rate — jointly scheduled on one shared one-port
//! platform.
//!
//! The paper optimizes a *single* series of multicasts; every layer of this
//! workspace (templates, realization, sessions, serve) was built around
//! that. This module generalizes the whole vertical slice:
//!
//! * [`CommoditySet`] describes the workload: commodity `c` wants `demand_c`
//!   messages from its source to its targets per *super-unit*. Rates are
//!   relative — the joint LP maximizes the common scale at which all
//!   demands are met simultaneously.
//! * [`MaskedFlowLp::joint`] is the joint LP: the k-commodity case of the
//!   [`crate::masked`] flow template. Each commodity is a block of unit
//!   flows with the single-commodity `Multicast-LB` rows (flows
//!   `x_{c,i,e}`, max-accounting loads `n_{c,e}`), and the blocks share the
//!   **one-port occupation rows** — every node's send and receive capacity
//!   is split across all commodities: `Σ_c d_c · Σ_{e ∈ port} c(e) · n_{c,e}
//!   ≤ T*`. `T*` is the super-unit period: the time to deliver `d_c`
//!   messages of *every* commodity `c`, so commodity `c`'s rate is
//!   `d_c / T*`. Like every masked template it re-solves under any
//!   [`pm_platform::mask::NodeMask`] through a [`pm_lp::BoundsOverlay`],
//!   warm-starting from any previous basis or, without one, from its
//!   per-commodity crash trees — sessions and drift work unchanged.
//! * [`realize_multi`] is the constructive half: per-commodity flow
//!   decomposition ([`WeightedTreeSet::from_flows`] per commodity), one
//!   **shared packing LP** with a scale variable (`Σ_k y_{c,k} = d_c · s`
//!   per commodity, one-port rows shared, maximize `s`), heuristic pricing
//!   rounds inside each commodity's flow support, and a single weighted
//!   König coloring interleaving all commodities' trees into one
//!   *super-period* [`PeriodicSchedule`] of length `P = 1 / s_cert` (each
//!   commodity completes exactly `d_c` messages per super-period). Every
//!   commodity's own rate is then verified in `pm-sim` by replaying its
//!   tag-restricted sub-schedule against its own target set.
//!
//! `k = 1` keeps weight 1 in the flow template, so its LP is the
//! single-commodity [`MaskedFlowLp::multicast_lb`] template's, and the
//! realization delegates to [`crate::realize::realize_with_pool`]: a
//! one-commodity set reproduces the single-commodity results bit for bit —
//! the reduction is by construction, not by coincidence.
//!
//! [`MaskedFlowLp::joint`]: crate::masked::MaskedFlowLp::joint
//! [`MaskedFlowLp::multicast_lb`]: crate::masked::MaskedFlowLp::multicast_lb

use crate::formulations::{FlowSolution, FormulationError};
use crate::realize::SteadyStateSolution;
use crate::realize::{candidate_pool, realize_with_pool, RealizeError};
use pm_lp::{
    Basis, LpError, LpProblem, Objective, Relation, SolveContext, SolveStats, VarId, WarmStartCache,
};
use pm_platform::graph::{NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use pm_sched::schedule::PeriodicSchedule;
use pm_sched::tree::{MulticastTree, WeightedTreeSet};
use pm_sim::{CommodityLane, SimReport, SimulationConfig, Simulator};
use serde::{Deserialize, Serialize};

const FLOW_EPS: f64 = 1e-9;

/// One steady-state demand: `demand` messages from `source` to every node
/// of `targets` per super-unit. A broadcast is a commodity whose targets
/// are every other node; a scatter decomposes into single-target
/// commodities; rate skew is expressed through `demand` (rates across
/// commodities are proportional to demands).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Commodity {
    /// The commodity's source processor.
    pub source: NodeId,
    /// The commodity's destination processors (normalized by
    /// [`CommoditySet::new`]: sorted, deduplicated, never the source).
    pub targets: Vec<NodeId>,
    /// Relative rate weight (finite, strictly positive).
    pub demand: f64,
}

impl Commodity {
    /// Bit-exact equality (demands compared by bits, not tolerance) — the
    /// criterion under which a session may keep reusing a built joint
    /// template.
    pub fn bits_eq(&self, other: &Commodity) -> bool {
        self.source == other.source
            && self.targets == other.targets
            && self.demand.to_bits() == other.demand.to_bits()
    }
}

/// Bit-exact equality of two commodity lists (see [`Commodity::bits_eq`]).
pub fn same_commodities(a: &[Commodity], b: &[Commodity]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
}

/// Validates and normalizes `commodities` against a borrowed `platform`
/// (the checks of [`CommoditySet::new`]), returning them in input order.
pub(crate) fn normalize_workload(
    platform: &Platform,
    commodities: Vec<Commodity>,
) -> Result<Vec<Commodity>, FormulationError> {
    if commodities.is_empty() {
        return Err(FormulationError::InvalidArgument(
            "a commodity set needs at least one commodity".to_string(),
        ));
    }
    let mut normalized = Vec::with_capacity(commodities.len());
    for (c, commodity) in commodities.into_iter().enumerate() {
        if !(commodity.demand.is_finite() && commodity.demand > 0.0) {
            return Err(FormulationError::InvalidArgument(format!(
                "commodity {c} demand {} is not finite and positive",
                commodity.demand
            )));
        }
        let targets =
            MulticastInstance::validated_targets(platform, commodity.source, commodity.targets)
                .map_err(|e| FormulationError::InvalidArgument(format!("commodity {c}: {e}")))?;
        normalized.push(Commodity {
            source: commodity.source,
            targets,
            demand: commodity.demand,
        });
    }
    Ok(normalized)
}

/// A validated multi-commodity workload on a shared platform.
#[derive(Debug, Clone)]
pub struct CommoditySet {
    platform: Platform,
    commodities: Vec<Commodity>,
}

impl CommoditySet {
    /// Validates and normalizes the workload: at least one commodity, every
    /// source and target a platform node and every target reachable from
    /// its source, targets sorted and deduplicated without their source,
    /// demands finite and strictly positive.
    pub fn new(platform: Platform, commodities: Vec<Commodity>) -> Result<Self, FormulationError> {
        let commodities = normalize_workload(&platform, commodities)?;
        Ok(CommoditySet {
            platform,
            commodities,
        })
    }

    /// A set of a workload that [`CommoditySet::new`]'s checks already
    /// normalized on a platform of the same topology (its costs may have
    /// drifted since), so nothing is checked again.
    pub(crate) fn normalized(platform: Platform, commodities: Vec<Commodity>) -> Self {
        CommoditySet {
            platform,
            commodities,
        }
    }

    /// The shared platform (carrying the set's *current* edge costs).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The normalized commodities, in input order.
    pub fn commodities(&self) -> &[Commodity] {
        &self.commodities
    }

    /// Number of commodities.
    pub fn len(&self) -> usize {
        self.commodities.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.commodities.is_empty()
    }

    /// Total demand `Σ_c d_c` (messages per super-unit across commodities).
    pub fn total_demand(&self) -> f64 {
        self.commodities.iter().map(|c| c.demand).sum()
    }

    /// The single-commodity [`MulticastInstance`] of commodity `c` (a
    /// platform clone; used to drive the per-commodity decomposition and
    /// the `k = 1` delegation).
    pub fn instance(&self, c: usize) -> MulticastInstance {
        MulticastInstance::new(
            self.platform.clone(),
            self.commodities[c].source,
            self.commodities[c].targets.clone(),
        )
        .expect("a validated commodity is a valid instance")
    }

    /// The platform and the commodities, moved out of the set.
    pub(crate) fn into_parts(self) -> (Platform, Vec<Commodity>) {
        (self.platform, self.commodities)
    }
}

/// A successful multi-commodity solve: the joint super-unit period, the
/// per-commodity rates it implies, and per-commodity unit flows ready for
/// decomposition.
#[derive(Debug, Clone)]
pub struct MultiFlow {
    /// The joint super-unit period `T*`: the time to deliver `d_c`
    /// messages of every commodity `c` simultaneously.
    pub period: f64,
    /// Per commodity: its steady-state rate `d_c / T*` (messages per
    /// time-unit).
    pub rates: Vec<f64>,
    /// Per commodity: its unit flow solution — `period` is the
    /// per-message period `T* / d_c`, `target_flows[i][e]` the fraction of
    /// one message bound to target `i` crossing edge `e`, `edge_load` the
    /// commodity's max-accounting edge loads.
    pub flows: Vec<FlowSolution>,
    /// The optimal basis (warm-start hint for the next solve of the same
    /// template, under any mask or drifted costs).
    pub basis: Basis,
    /// The LP solve's diagnostics.
    pub stats: SolveStats,
}

/// The result of realizing a multi-commodity solve: one super-period
/// schedule interleaving every commodity's weighted trees, with
/// per-commodity certification and simulator verdicts.
#[derive(Debug, Clone)]
pub struct MultiRealization {
    /// The joint super-unit period the LP claimed (`T*`).
    pub lp_period: f64,
    /// The certified super-period `P`: each commodity `c` completes
    /// exactly `d_c` messages per `P`. Equals `lp_period` whenever the
    /// packing fully supports the LP's claim.
    pub super_period: f64,
    /// The best common scale the shared packing LP reached (`s_packed`;
    /// the certified scale is `min(s_packed, 1 / T*)`).
    pub packed_scale: f64,
    /// Per commodity: its weighted tree set, scaled to its certified rate.
    pub tree_sets: Vec<WeightedTreeSet>,
    /// Per commodity: the half-open range of transfer tags its trees
    /// occupy inside the shared schedule.
    pub tag_ranges: Vec<(usize, usize)>,
    /// Per commodity: its certified rate `d_c · s_cert`.
    pub certified_rates: Vec<f64>,
    /// Per commodity: the scheduled rate its replayed sub-schedule
    /// actually sustains.
    pub simulated_rates: Vec<f64>,
    /// Per commodity: the full simulator report of its tag-restricted
    /// sub-schedule replayed against its own target set.
    pub commodity_reports: Vec<SimReport>,
    /// The shared super-period schedule.
    pub schedule: PeriodicSchedule,
    /// The simulator's replay of the *combined* schedule (the one-port
    /// verdict across commodities).
    pub simulated: SimReport,
    /// `max_c |simulated_rate_c − certified_rate_c| / certified_rate_c`.
    pub realization_gap: f64,
}

/// Realizes a multi-commodity solve with default simulation settings, its
/// packing LPs solved cold under the default [`SolveContext`].
pub fn realize_multi(
    set: &CommoditySet,
    flow: &MultiFlow,
) -> Result<MultiRealization, RealizeError> {
    realize_multi_with_pool(
        &SolveContext::default(),
        &mut WarmStartCache::with_capacity(0),
        set,
        flow,
        &[],
        SimulationConfig::default(),
    )
}

/// Realizes a multi-commodity solve as a simulator-verified super-period
/// schedule, seeding each commodity's candidate pool with `seeds[c]` (trees
/// of a previous realization; pass `&[]` for no seeds).
///
/// `k = 1` delegates to [`crate::realize::realize_with_pool`] — the
/// resulting schedule is bit-identical to the single-commodity pipeline's.
/// Every packing LP runs under `ctx`, through `cache`.
pub fn realize_multi_with_pool(
    ctx: &SolveContext,
    cache: &mut WarmStartCache,
    set: &CommoditySet,
    flow: &MultiFlow,
    seeds: &[Vec<MulticastTree>],
    config: SimulationConfig,
) -> Result<MultiRealization, RealizeError> {
    if !seeds.is_empty() && seeds.len() != set.len() {
        return Err(RealizeError::NotRealizable(format!(
            "{} seed pools for {} commodities",
            seeds.len(),
            set.len()
        )));
    }
    if flow.flows.len() != set.len() {
        return Err(RealizeError::NotRealizable(format!(
            "{} flow solutions for {} commodities",
            flow.flows.len(),
            set.len()
        )));
    }
    let t_star = flow.period;
    if !(t_star.is_finite() && t_star > 0.0) {
        return Err(RealizeError::NotRealizable(format!(
            "super-unit period {t_star} is not finite and positive"
        )));
    }
    let no_seeds: Vec<MulticastTree> = Vec::new();
    let seeds_for = |c: usize| -> &[MulticastTree] {
        if seeds.is_empty() {
            &no_seeds
        } else {
            &seeds[c]
        }
    };

    // k = 1: the single-commodity pipeline, verbatim.
    if set.len() == 1 {
        let demand = set.commodities[0].demand;
        let instance = set.instance(0);
        let solution = SteadyStateSolution::TargetFlows {
            period: flow.flows[0].period,
            target_flows: flow.flows[0].target_flows.clone(),
        };
        let single = realize_with_pool(ctx, cache, &instance, &solution, seeds_for(0), config)?;
        let certified = 1.0 / single.achieved_period;
        let gap = {
            let sim = single.simulated.throughput;
            (sim - certified).abs() / certified
        };
        return Ok(MultiRealization {
            lp_period: demand * single.lp_period,
            super_period: demand * single.achieved_period,
            packed_scale: single.packed_throughput / demand,
            tag_ranges: vec![(0, single.tree_set.trees().len())],
            certified_rates: vec![certified],
            simulated_rates: vec![single.simulated.throughput],
            commodity_reports: vec![single.simulated.clone()],
            schedule: single.schedule,
            simulated: single.simulated,
            realization_gap: gap,
            tree_sets: vec![single.tree_set],
        });
    }

    let platform = set.platform();
    let k = set.len();
    let demands: Vec<f64> = set.commodities.iter().map(|c| c.demand).collect();
    let instances: Vec<MulticastInstance> = (0..k).map(|c| set.instance(c)).collect();

    // 1. Per-commodity decomposition into candidate pools.
    let mut pools: Vec<Vec<MulticastTree>> = Vec::with_capacity(k);
    let mut flow_rows: Vec<Option<Vec<Vec<f64>>>> = Vec::with_capacity(k);
    for (c, instance) in instances.iter().enumerate() {
        let solution = SteadyStateSolution::TargetFlows {
            period: flow.flows[c].period,
            target_flows: flow.flows[c].target_flows.clone(),
        };
        let (pool, rows) = candidate_pool(instance, &solution, seeds_for(c))?;
        if pool.is_empty() {
            return Err(RealizeError::NotRealizable(format!(
                "commodity {c} decomposed into no trees"
            )));
        }
        pools.push(pool);
        flow_rows.push(rows);
    }

    // 2. Shared packing with a scale variable, plus bounded pricing rounds
    // inside each commodity's flow support (mirrors `realize_with_pool`,
    // with congestion shared across commodities).
    let s_target = 1.0 / t_star;
    let (mut weights, mut s_packed) =
        pack_tree_groups(ctx, cache, platform, &demands, &pools).map_err(RealizeError::Packing)?;
    let supports: Vec<Option<Vec<bool>>> = flow_rows
        .iter()
        .map(|rows| {
            rows.as_ref().map(|rows| {
                (0..platform.edge_count())
                    .map(|e| rows.iter().any(|row| row[e] > FLOW_EPS))
                    .collect()
            })
        })
        .collect();
    const PRICING_ROUNDS: usize = 4;
    for _ in 0..PRICING_ROUNDS {
        if s_packed >= s_target * (1.0 - 1e-9) {
            break;
        }
        let mut send_util = vec![0.0; platform.node_count()];
        let mut recv_util = vec![0.0; platform.node_count()];
        for (c, pool) in pools.iter().enumerate() {
            for (tree, &w) in pool.iter().zip(&weights[c]) {
                for &e in tree.edges() {
                    let edge = platform.edge(e);
                    send_util[edge.src.index()] += w * edge.cost;
                    recv_util[edge.dst.index()] += w * edge.cost;
                }
            }
        }
        let mut added = false;
        for c in 0..k {
            let Some(support) = &supports[c] else {
                continue;
            };
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
            let Ok(tree) = crate::heuristics::Mcph.build_tree_with_costs(&instances[c], priced)
            else {
                continue;
            };
            if pools[c].iter().any(|p| p.edges() == tree.edges()) {
                continue;
            }
            pools[c].push(tree);
            added = true;
        }
        if !added {
            break;
        }
        let packed = pack_tree_groups(ctx, cache, platform, &demands, &pools)
            .map_err(RealizeError::Packing)?;
        weights = packed.0;
        s_packed = packed.1;
    }
    if s_packed <= FLOW_EPS {
        return Err(RealizeError::NotRealizable(
            "the shared packing carries no throughput".to_string(),
        ));
    }

    // 3. Certify: never overshoot the LP's claim; every commodity is scaled
    // by the same factor, preserving the demand mix exactly.
    let s_cert = s_packed.min(s_target);
    let super_period = 1.0 / s_cert;
    let mut tree_sets = Vec::with_capacity(k);
    for (c, pool) in pools.iter().enumerate() {
        let mut packed_set = WeightedTreeSet::new();
        for (tree, &w) in pool.iter().zip(&weights[c]) {
            if w > FLOW_EPS {
                packed_set.push(tree.clone(), w)?;
            }
        }
        if packed_set.trees().is_empty() {
            return Err(RealizeError::NotRealizable(format!(
                "commodity {c} packed into no positive-rate trees"
            )));
        }
        tree_sets.push(packed_set.scaled_to_throughput(demands[c] * s_cert));
    }
    let certified_rates: Vec<f64> = demands.iter().map(|&d| d * s_cert).collect();

    // 4. One shared König coloring interleaves every commodity's trees
    // into a single super-period; commodity `c` completes `d_c` messages
    // per super-period.
    let group_refs: Vec<&WeightedTreeSet> = tree_sets.iter().collect();
    let (schedule, tag_ranges) =
        PeriodicSchedule::from_weighted_tree_groups(platform, &group_refs, super_period)?;
    schedule.validate(platform)?;

    // 5. Verify: the combined replay checks the one-port model across
    // commodities; each commodity's tag-restricted sub-schedule is
    // replayed against its *own* target set to certify its own rate.
    let simulator = Simulator::new(config);
    let simulated = simulator.run_schedule(platform, &schedule);
    let lanes: Vec<CommodityLane> = (0..k)
        .map(|c| CommodityLane {
            tags: tag_ranges[c].0..tag_ranges[c].1,
            multicasts_per_period: demands[c],
            targets: set.commodities[c].targets.clone(),
        })
        .collect();
    let commodity_reports = simulator.verify_commodity_rates(platform, &schedule, &lanes);
    let simulated_rates: Vec<f64> = commodity_reports.iter().map(|r| r.throughput).collect();
    let realization_gap = simulated_rates
        .iter()
        .zip(&certified_rates)
        .map(|(&sim, &cert)| (sim - cert).abs() / cert)
        .fold(0.0, f64::max);

    Ok(MultiRealization {
        lp_period: t_star,
        super_period,
        packed_scale: s_packed,
        tree_sets,
        tag_ranges,
        certified_rates,
        simulated_rates,
        commodity_reports,
        schedule,
        simulated,
        realization_gap,
    })
}

/// The shared tree-packing LP of the super-period: maximize the common
/// scale `s` subject to per-commodity mix rows `Σ_k y_{c,k} = d_c · s` and
/// the per-node one-port rows `Σ_{c,k} y_{c,k} · load ≤ 1` shared across
/// all commodities. Returns the per-commodity tree rates (aligned with
/// `pools`) and the optimal scale. The LP is solved under `ctx`, through
/// `cache`.
pub fn pack_tree_groups(
    ctx: &SolveContext,
    cache: &mut WarmStartCache,
    platform: &Platform,
    demands: &[f64],
    pools: &[Vec<MulticastTree>],
) -> Result<(Vec<Vec<f64>>, f64), LpError> {
    let mut lp = LpProblem::new(Objective::Maximize);
    let s = lp.add_var("s");
    lp.set_objective_coeff(s, 1.0);
    let y: Vec<Vec<VarId>> = pools
        .iter()
        .enumerate()
        .map(|(c, pool)| {
            (0..pool.len())
                .map(|k| lp.add_var(&format!("y_{c}_{k}")))
                .collect()
        })
        .collect();
    for (c, vars) in y.iter().enumerate() {
        let mut terms: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        terms.push((s, -demands[c]));
        lp.add_constraint(terms, Relation::Eq, 0.0);
    }
    for node in platform.nodes() {
        let mut send_terms: Vec<(VarId, f64)> = Vec::new();
        let mut recv_terms: Vec<(VarId, f64)> = Vec::new();
        for (c, pool) in pools.iter().enumerate() {
            for (k, tree) in pool.iter().enumerate() {
                let mut send = 0.0;
                let mut recv = 0.0;
                for &e in tree.edges() {
                    let edge = platform.edge(e);
                    if edge.src == node {
                        send += edge.cost;
                    }
                    if edge.dst == node {
                        recv += edge.cost;
                    }
                }
                if send > 0.0 {
                    send_terms.push((y[c][k], send));
                }
                if recv > 0.0 {
                    recv_terms.push((y[c][k], recv));
                }
            }
        }
        if !send_terms.is_empty() {
            lp.add_constraint(send_terms, Relation::Le, 1.0);
        }
        if !recv_terms.is_empty() {
            lp.add_constraint(recv_terms, Relation::Le, 1.0);
        }
    }
    let sol = cache.solve(ctx, &lp)?;
    let weights: Vec<Vec<f64>> = y
        .iter()
        .map(|vars| vars.iter().map(|&v| sol.value(v).max(0.0)).collect())
        .collect();
    Ok((weights, sol.objective.max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masked::MaskedFlowLp;
    use pm_platform::graph::PlatformBuilder;
    use pm_platform::mask::NodeMask;

    /// A diamond with symmetric return edges: S <-> A <-> T, S <-> B <-> T.
    fn diamond_platform() -> Platform {
        let mut b = PlatformBuilder::new();
        let s = b.add_named_node("s");
        let a = b.add_named_node("a");
        let bb = b.add_named_node("b");
        let t = b.add_named_node("t");
        for (u, v, c) in [(s, a, 1.0), (s, bb, 1.0), (a, t, 0.5), (bb, t, 0.5)] {
            b.add_edge(u, v, c).unwrap();
            b.add_edge(v, u, c).unwrap();
        }
        b.build().unwrap()
    }

    fn full_mask(platform: &Platform) -> NodeMask {
        NodeMask::full(platform.node_count())
    }

    #[test]
    fn single_commodity_multi_matches_the_single_template_bit_for_bit() {
        let platform = diamond_platform();
        let set = CommoditySet::new(
            platform.clone(),
            vec![Commodity {
                source: NodeId(0),
                targets: vec![NodeId(3)],
                demand: 2.0,
            }],
        )
        .unwrap();
        let template = MaskedFlowLp::joint(set.clone());
        let mask = full_mask(&platform);
        let multi = template.solve_multi(&mask, None).unwrap();

        let single = MaskedFlowLp::multicast_lb(&set.instance(0))
            .solve(&mask, None)
            .unwrap();
        assert_eq!(
            multi.flows[0].period.to_bits(),
            single.flow.period.to_bits()
        );
        assert_eq!(multi.flows[0].target_flows, single.flow.target_flows);
        assert_eq!(multi.period.to_bits(), (2.0 * single.flow.period).to_bits());
        assert_eq!(multi.rates[0].to_bits(), single.flow.throughput.to_bits());

        // The realization delegates to the single pipeline, bit for bit.
        let realized = realize_multi(&set, &multi).unwrap();
        let solution = SteadyStateSolution::TargetFlows {
            period: single.flow.period,
            target_flows: single.flow.target_flows.clone(),
        };
        let direct = realize_with_pool(
            &SolveContext::default(),
            &mut WarmStartCache::with_capacity(0),
            &set.instance(0),
            &solution,
            &[],
            SimulationConfig::default(),
        )
        .unwrap();
        assert_eq!(realized.schedule, direct.schedule);
        assert_eq!(realized.tree_sets[0], direct.tree_set);
        assert_eq!(realized.simulated, direct.simulated);
    }

    #[test]
    fn two_commodities_share_the_platform_and_both_meet_their_rates() {
        let platform = diamond_platform();
        // Two opposing multicasts: S -> T and T -> S, equal demand. Each
        // alone reaches rate 1 (two disjoint paths of period 1 each); the
        // relay ports are shared, so jointly each still reaches rate 1
        // (send and receive ports are distinct resources).
        let set = CommoditySet::new(
            platform.clone(),
            vec![
                Commodity {
                    source: NodeId(0),
                    targets: vec![NodeId(3)],
                    demand: 1.0,
                },
                Commodity {
                    source: NodeId(3),
                    targets: vec![NodeId(0)],
                    demand: 1.0,
                },
            ],
        )
        .unwrap();
        let template = MaskedFlowLp::joint(set.clone());
        let flow = template.solve_multi(&full_mask(&platform), None).unwrap();
        assert!(flow.period.is_finite() && flow.period > 0.0);
        assert_eq!(flow.rates.len(), 2);
        // Equal demands: equal rates, by the mix constraint.
        assert!((flow.rates[0] - flow.rates[1]).abs() < 1e-9);

        let realized = realize_multi(&set, &flow).unwrap();
        assert_eq!(realized.simulated.one_port_violations, 0);
        realized.schedule.validate(&platform).unwrap();
        for c in 0..2 {
            let report = &realized.commodity_reports[c];
            assert_eq!(report.one_port_violations, 0);
            assert!(
                (realized.simulated_rates[c] - realized.certified_rates[c]).abs()
                    <= 1e-6 * realized.certified_rates[c].max(1.0),
                "commodity {c}: simulated {} vs certified {}",
                realized.simulated_rates[c],
                realized.certified_rates[c]
            );
            assert!((report.delivery_ratio - 1.0).abs() < 1e-12);
        }
        // Each commodity completes d_c messages per super-period.
        for (c, report) in realized.commodity_reports.iter().enumerate() {
            let per_period = report.throughput * realized.super_period;
            assert!((per_period - set.commodities()[c].demand).abs() < 1e-9);
        }
    }

    #[test]
    fn skewed_demands_split_rates_proportionally() {
        let platform = diamond_platform();
        // Both commodities multicast S -> T: they compete head-on for the
        // same source send port, so the 3:1 demand skew must show up as a
        // 3:1 rate split.
        let set = CommoditySet::new(
            platform.clone(),
            vec![
                Commodity {
                    source: NodeId(0),
                    targets: vec![NodeId(3)],
                    demand: 3.0,
                },
                Commodity {
                    source: NodeId(0),
                    targets: vec![NodeId(3)],
                    demand: 1.0,
                },
            ],
        )
        .unwrap();
        let template = MaskedFlowLp::joint(set.clone());
        let flow = template.solve_multi(&full_mask(&platform), None).unwrap();
        assert!((flow.rates[0] / flow.rates[1] - 3.0).abs() < 1e-6);
        // Jointly they cannot beat the single-commodity optimum of the
        // shared path structure: total rate <= 1.
        let total: f64 = flow.rates.iter().sum();
        assert!(total <= 1.0 + 1e-9);

        let realized = realize_multi(&set, &flow).unwrap();
        assert_eq!(realized.simulated.one_port_violations, 0);
        for c in 0..2 {
            assert!(
                (realized.simulated_rates[c] - realized.certified_rates[c]).abs()
                    <= 1e-6 * realized.certified_rates[c].max(1.0)
            );
        }
    }

    #[test]
    fn masked_solve_and_drift_mirror_a_fresh_template() {
        let platform = diamond_platform();
        let commodities = vec![
            Commodity {
                source: NodeId(0),
                targets: vec![NodeId(3)],
                demand: 1.0,
            },
            Commodity {
                source: NodeId(3),
                targets: vec![NodeId(1), NodeId(2)],
                demand: 2.0,
            },
        ];
        let set = CommoditySet::new(platform.clone(), commodities.clone()).unwrap();
        let mut template = MaskedFlowLp::joint(set);
        let mask = full_mask(&platform);
        let before = template.solve_multi(&mask, None).unwrap();

        // Drift an edge: a *cold* re-solve of the edited template must match
        // a template built fresh on the drifted platform, bit for bit (the
        // in-place coefficient rewrite preserves the constraint pattern).
        let e = platform.find_edge(NodeId(0), NodeId(1)).unwrap();
        template.set_edge_cost(e, 2.5);
        let cold = template.solve_multi(&mask, None).unwrap();

        let mut fresh_platform = platform.clone();
        fresh_platform.set_cost(e, 2.5).unwrap();
        let fresh_set = CommoditySet::new(fresh_platform, commodities).unwrap();
        let fresh = MaskedFlowLp::joint(fresh_set)
            .solve_multi(&mask, None)
            .unwrap();
        assert_eq!(cold.period.to_bits(), fresh.period.to_bits());
        for (a, b) in cold.flows.iter().zip(&fresh.flows) {
            assert_eq!(a.target_flows, b.target_flows);
        }

        // A warm re-solve from the pre-drift basis reaches the same optimum
        // (possibly through a different pivot path, so compare by value).
        let warm = template.solve_multi(&mask, Some(&before.basis)).unwrap();
        assert!((warm.period - fresh.period).abs() < 1e-9);
    }

    #[test]
    fn masked_commodity_endpoints_are_validated() {
        let platform = diamond_platform();
        let set = CommoditySet::new(
            platform.clone(),
            vec![
                Commodity {
                    source: NodeId(0),
                    targets: vec![NodeId(3)],
                    demand: 1.0,
                },
                Commodity {
                    source: NodeId(1),
                    targets: vec![NodeId(2)],
                    demand: 1.0,
                },
            ],
        )
        .unwrap();
        let template = MaskedFlowLp::joint(set);
        let mut mask = full_mask(&platform);
        mask.remove(NodeId(1));
        // Node 1 is commodity 1's source.
        assert!(matches!(
            template.solve_multi(&mask, None),
            Err(FormulationError::InvalidArgument(_))
        ));
    }

    #[test]
    fn commodity_set_rejects_bad_demands_and_unknown_nodes() {
        let platform = diamond_platform();
        for demand in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(CommoditySet::new(
                platform.clone(),
                vec![Commodity {
                    source: NodeId(0),
                    targets: vec![NodeId(3)],
                    demand,
                }],
            )
            .is_err());
        }
        assert!(CommoditySet::new(
            platform.clone(),
            vec![Commodity {
                source: NodeId(9),
                targets: vec![NodeId(3)],
                demand: 1.0,
            }],
        )
        .is_err());
        assert!(CommoditySet::new(platform, vec![]).is_err());
    }
}
