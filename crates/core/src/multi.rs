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
//! * [`MultiFlowLp`] is the joint LP in the [`crate::masked`] template
//!   style: per-commodity unit flow conservation (identical to the
//!   single-commodity `Multicast-LB` rows) plus **shared one-port
//!   occupation rows** — every node's send and receive capacity is split
//!   across all commodities: `Σ_c d_c · Σ_{e ∈ port} c(e) · n_{c,e} ≤ T*`.
//!   `T*` is the super-unit period: the time to deliver `d_c` messages of
//!   *every* commodity `c`, so commodity `c`'s rate is `d_c / T*`. The
//!   template re-solves under any [`NodeMask`] through a
//!   [`pm_lp::BoundsOverlay`], warm-starting from any previous basis —
//!   sessions and drift work unchanged.
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
//! `k = 1` delegates to the existing single-commodity pipeline
//! ([`MaskedFlowLp::multicast_lb`] + [`crate::realize::realize_with_pool`])
//! via [`MultiTemplate::Single`], so a one-commodity set reproduces the
//! single-commodity results bit for bit — the reduction is by construction,
//! not by coincidence.

use crate::formulations::{FlowSolution, FormulationError};
use crate::masked::{MaskedFlowLp, MaskedStats};
use crate::realize::SteadyStateSolution;
use crate::realize::{candidate_pool, realize_with_pool, tree_edge_key, RealizeError};
use pm_lp::{
    Basis, BoundsOverlay, LpError, LpProblem, Objective, Relation, SolveBudget, SolveContext,
    SparseBuilder, VarId, WarmStartCache,
};
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
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
    /// criterion under which a session may keep reusing a built
    /// [`MultiTemplate`].
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
    /// Solve accounting.
    pub stats: MaskedStats,
}

/// The joint multi-commodity LP as a reusable masked template (the
/// [`crate::masked`] pattern): built once on the full platform, re-solved
/// under any [`NodeMask`] via bound overlays, edge-cost drift applied in
/// place through [`MultiFlowLp::set_edge_cost`].
#[derive(Debug, Clone)]
pub struct MultiFlowLp {
    set: CommoditySet,
    problem: LpProblem,
    /// `x[c][i][e]`: fraction of commodity `c`'s message bound to its
    /// target `i` crossing edge `e`.
    x: Vec<Vec<Vec<VarId>>>,
    /// `n[c][e]`: commodity `c`'s max-accounting load on edge `e`.
    n: Vec<Vec<VarId>>,
    t_star: VarId,
    /// Per node: the `(in-port, out-port)` shared occupation row indices.
    port_rows: Vec<(Option<usize>, Option<usize>)>,
    /// Per edge: its own shared occupation row index.
    edge_rows: Vec<usize>,
    /// Deterministic per-solve work caps; `None` is unlimited.
    budget: Option<SolveBudget>,
    /// The context every solve of the template runs under.
    ctx: SolveContext,
}

impl MultiFlowLp {
    /// Builds the joint template: per-commodity `Multicast-LB` conservation
    /// rows (unit demand per target, max accounting per commodity) and
    /// shared one-port occupation rows splitting every node's capacity
    /// across all commodities at their demand weights. The template keeps
    /// `set` (see [`MultiFlowLp::set`]).
    pub fn new(set: CommoditySet) -> Self {
        let platform = &set.platform;
        let m = platform.edge_count();
        let k = set.len();

        let mut lp = SparseBuilder::new(Objective::Minimize);
        let mut x: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(k);
        for (c, commodity) in set.commodities.iter().enumerate() {
            x.push(
                (0..commodity.targets.len())
                    .map(|i| {
                        (0..m)
                            .map(|e| lp.add_var(&format!("x_{c}_{i}_{e}")))
                            .collect()
                    })
                    .collect(),
            );
        }
        let n: Vec<Vec<VarId>> = (0..k)
            .map(|c| (0..m).map(|e| lp.add_var(&format!("n_{c}_{e}"))).collect())
            .collect();
        let t_star = lp.add_var("T*");
        lp.set_objective_coeff(t_star, 1.0);

        for (c, commodity) in set.commodities.iter().enumerate() {
            let source = commodity.source;
            // (1) one whole message of commodity `c` leaves its source, per
            // target — and (per commodity) never flows back into it. Other
            // commodities may still route *through* this commodity's source.
            for x_row in &x[c] {
                lp.add_constraint(
                    platform
                        .out_edges(source)
                        .iter()
                        .map(|&e| (x_row[e.index()], 1.0)),
                    Relation::Eq,
                    1.0,
                );
            }
            for x_row in &x[c] {
                for &e in platform.in_edges(source) {
                    lp.add_constraint([(x_row[e.index()], 1.0)], Relation::Eq, 0.0);
                }
            }
            // (2) the whole message reaches each of the commodity's targets.
            for (i, &target) in commodity.targets.iter().enumerate() {
                lp.add_constraint(
                    platform
                        .in_edges(target)
                        .iter()
                        .map(|&e| (x[c][i][e.index()], 1.0)),
                    Relation::Eq,
                    1.0,
                );
            }
            // (3) conservation at every other node.
            for (i, &target) in commodity.targets.iter().enumerate() {
                for node in platform.nodes() {
                    if node == source || node == target {
                        continue;
                    }
                    let terms: Vec<(VarId, f64)> = platform
                        .out_edges(node)
                        .iter()
                        .map(|&e| (x[c][i][e.index()], 1.0))
                        .chain(
                            platform
                                .in_edges(node)
                                .iter()
                                .map(|&e| (x[c][i][e.index()], -1.0)),
                        )
                        .collect();
                    if !terms.is_empty() {
                        lp.add_constraint(terms, Relation::Eq, 0.0);
                    }
                }
            }
            // (10') n_{c,e} >= x_{c,i,e}: max accounting per commodity.
            for x_row in &x[c] {
                for e in 0..m {
                    lp.add_constraint([(x_row[e], 1.0), (n[c][e], -1.0)], Relation::Le, 0.0);
                }
            }
        }

        // Shared occupation rows: a port (or edge) serves *all* commodities,
        // each at its demand weight, within one super-unit period.
        let load_terms = |e: usize| -> Vec<(VarId, f64)> {
            let cost = platform.cost(EdgeId(e as u32));
            set.commodities
                .iter()
                .enumerate()
                .map(|(c, commodity)| (n[c][e], commodity.demand * cost))
                .collect()
        };
        let mut port_rows: Vec<(Option<usize>, Option<usize>)> =
            vec![(None, None); platform.node_count()];
        for node in platform.nodes() {
            for (incoming, edges) in [
                (true, platform.in_edges(node)),
                (false, platform.out_edges(node)),
            ] {
                if edges.is_empty() {
                    continue;
                }
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &e in edges {
                    terms.extend(load_terms(e.index()));
                }
                terms.push((t_star, -1.0));
                let row = lp.add_constraint(terms, Relation::Le, 0.0);
                let slot = &mut port_rows[node.index()];
                if incoming {
                    slot.0 = Some(row.0);
                } else {
                    slot.1 = Some(row.0);
                }
            }
        }
        let mut edge_rows = Vec::with_capacity(m);
        for e in 0..m {
            let mut terms = load_terms(e);
            terms.push((t_star, -1.0));
            edge_rows.push(lp.add_constraint(terms, Relation::Le, 0.0).0);
        }
        // Lexicographic tie-break: among tied-optimal vertices, the one
        // moving the least demand-weighted cost-weighted traffic (the
        // multi-commodity analogue of the single template's tie-break).
        for e in 0..m {
            let cost = platform.cost(EdgeId(e as u32));
            for (c, commodity) in set.commodities.iter().enumerate() {
                for x_row in &x[c] {
                    lp.set_secondary_coeff(x_row[e], commodity.demand * cost);
                }
                lp.set_secondary_coeff(n[c][e], commodity.demand * cost);
            }
        }

        let problem = lp.build().expect("multi-commodity template is a valid LP");
        MultiFlowLp {
            set,
            problem,
            x,
            n,
            t_star,
            port_rows,
            edge_rows,
            budget: None,
            ctx: SolveContext::default(),
        }
    }

    /// The commodity set the template was built from (its platform carries
    /// the template's current edge costs).
    pub fn set(&self) -> &CommoditySet {
        &self.set
    }

    /// Sets the deterministic per-solve work caps (`None` is unlimited);
    /// see [`MaskedFlowLp::set_budget`].
    pub fn set_budget(&mut self, budget: Option<SolveBudget>) {
        self.budget = budget;
    }

    /// Sets the solve context; see [`MaskedFlowLp::set_context`].
    pub fn set_context(&mut self, ctx: SolveContext) {
        self.ctx = ctx;
    }

    /// Updates the cost of edge `e` in place, rewriting every shared
    /// occupation-row coefficient that carries it (one per commodity per
    /// row). The constraint pattern — and every cached basis — survives.
    ///
    /// # Panics
    /// Panics if `cost` is not finite and strictly positive.
    pub fn set_edge_cost(&mut self, e: EdgeId, cost: f64) {
        self.set
            .platform
            .set_cost(e, cost)
            .expect("edge-cost drift must keep costs finite and positive");
        let edge = *self.set.platform.edge(e);
        let rows = [
            self.port_rows[edge.dst.index()].0,
            self.port_rows[edge.src.index()].1,
            Some(self.edge_rows[e.index()]),
        ];
        for row in rows.into_iter().flatten() {
            for (c, commodity) in self.set.commodities.iter().enumerate() {
                self.problem
                    .set_coeff(row, self.n[c][e.index()], commodity.demand * cost);
            }
        }
        for (c, commodity) in self.set.commodities.iter().enumerate() {
            for x_row in &self.x[c] {
                self.problem
                    .set_secondary_coeff(x_row[e.index()], commodity.demand * cost);
            }
            self.problem
                .set_secondary_coeff(self.n[c][e.index()], commodity.demand * cost);
        }
    }

    /// Solves the joint formulation restricted to the active nodes of
    /// `mask`, warm-starting from `hint`. Every commodity's source and
    /// targets must stay active ([`FormulationError::InvalidArgument`]
    /// otherwise), and every target must be reachable from its commodity's
    /// source over the masked platform ([`FormulationError::Unreachable`],
    /// detected by a BFS pre-check before any LP work).
    pub fn solve(
        &self,
        mask: &NodeMask,
        hint: Option<&Basis>,
    ) -> Result<MultiFlow, FormulationError> {
        let platform = &self.set.platform;
        for (c, commodity) in self.set.commodities.iter().enumerate() {
            if !mask.contains(commodity.source) {
                return Err(FormulationError::InvalidArgument(format!(
                    "mask deactivates commodity {c}'s source {}",
                    commodity.source
                )));
            }
            for &t in &commodity.targets {
                if !mask.contains(t) {
                    return Err(FormulationError::InvalidArgument(format!(
                        "mask deactivates commodity {c}'s target {t}"
                    )));
                }
            }
            let seen = mask.reachable_from(platform, commodity.source);
            for &t in &commodity.targets {
                if !seen[t.index()] {
                    return Err(FormulationError::Unreachable(t));
                }
            }
        }

        let edge_active: Vec<bool> = platform
            .edge_ids()
            .map(|e| mask.edge_active(platform, e))
            .collect();
        let mut overlay = BoundsOverlay::new();
        for c in 0..self.set.len() {
            for (e, &active) in edge_active.iter().enumerate() {
                if !active {
                    for x_row in &self.x[c] {
                        overlay.fix_zero.push(x_row[e]);
                    }
                    overlay.fix_zero.push(self.n[c][e]);
                }
            }
        }

        let out = self
            .problem
            .resolve_in(&self.ctx, &overlay, hint, self.budget)
            .map_err(|e| match e {
                // The reachability pre-check passed, so a reported
                // Infeasible is numerical; mirror the single-template
                // convention (see `MaskedFlowLp::solve`).
                LpError::Infeasible => {
                    FormulationError::Unreachable(self.set.commodities[0].targets[0])
                }
                other => FormulationError::Lp(other),
            })?;
        let sol = &out.solution;
        let period = sol.value(self.t_star);
        let mut rates = Vec::with_capacity(self.set.len());
        let mut flows = Vec::with_capacity(self.set.len());
        for (c, commodity) in self.set.commodities.iter().enumerate() {
            let per_message = if commodity.demand > 0.0 {
                period / commodity.demand
            } else {
                f64::INFINITY
            };
            rates.push(if period > 0.0 {
                commodity.demand / period
            } else {
                f64::INFINITY
            });
            flows.push(FlowSolution {
                period: per_message,
                throughput: if per_message > 0.0 {
                    1.0 / per_message
                } else {
                    f64::INFINITY
                },
                target_flows: self.x[c]
                    .iter()
                    .map(|row| row.iter().map(|&v| sol.value(v)).collect())
                    .collect(),
                edge_load: self.n[c].iter().map(|&v| sol.value(v)).collect(),
            });
        }
        Ok(MultiFlow {
            period,
            rates,
            flows,
            basis: out.basis,
            stats: MaskedStats {
                warm: out.stats.warm,
                solve: out.stats,
            },
        })
    }
}

/// A multi-commodity template: the joint LP for `k ≥ 2`, or the existing
/// single-commodity `Multicast-LB` template for `k = 1` (bit-for-bit
/// delegation — the reduction is structural, not numerical).
#[derive(Debug, Clone)]
pub enum MultiTemplate {
    /// `k = 1`: the single-commodity masked template plus the commodity's
    /// demand (pure bookkeeping: the rate of a lone commodity never
    /// depends on its demand weight).
    Single {
        /// The wrapped single-commodity template.
        template: Box<MaskedFlowLp>,
        /// The commodity's demand weight.
        demand: f64,
    },
    /// `k ≥ 2`: the joint LP with shared occupation rows.
    Joint(Box<MultiFlowLp>),
}

impl MultiTemplate {
    /// Builds the template for a commodity set; the joint template keeps
    /// the set.
    pub fn new(set: CommoditySet) -> Self {
        if set.len() == 1 {
            MultiTemplate::Single {
                template: Box::new(MaskedFlowLp::multicast_lb(&set.instance(0))),
                demand: set.commodities[0].demand,
            }
        } else {
            MultiTemplate::Joint(Box::new(MultiFlowLp::new(set)))
        }
    }

    /// Sets the deterministic per-solve work caps.
    pub fn set_budget(&mut self, budget: Option<SolveBudget>) {
        match self {
            MultiTemplate::Single { template, .. } => template.set_budget(budget),
            MultiTemplate::Joint(lp) => lp.set_budget(budget),
        }
    }

    /// Sets the solve context of every solve.
    pub fn set_context(&mut self, ctx: SolveContext) {
        match self {
            MultiTemplate::Single { template, .. } => template.set_context(ctx),
            MultiTemplate::Joint(lp) => lp.set_context(ctx),
        }
    }

    /// Applies edge-cost drift in place (see [`MultiFlowLp::set_edge_cost`]).
    pub fn set_edge_cost(&mut self, e: EdgeId, cost: f64) {
        match self {
            MultiTemplate::Single { template, .. } => template.set_edge_cost(e, cost),
            MultiTemplate::Joint(lp) => lp.set_edge_cost(e, cost),
        }
    }

    /// Solves under `mask`, warm-starting from `hint`; both variants return
    /// the same [`MultiFlow`] shape.
    pub fn solve(
        &self,
        mask: &NodeMask,
        hint: Option<&Basis>,
    ) -> Result<MultiFlow, FormulationError> {
        match self {
            MultiTemplate::Single { template, demand } => {
                let out = template.solve(mask, hint)?;
                Ok(MultiFlow {
                    period: demand * out.flow.period,
                    rates: vec![out.flow.throughput],
                    flows: vec![out.flow],
                    basis: out.basis,
                    stats: out.stats,
                })
            }
            MultiTemplate::Joint(lp) => lp.solve(mask, hint),
        }
    }
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
            let key = tree_edge_key(&tree);
            if pools[c].iter().any(|p| tree_edge_key(p) == key) {
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
    use pm_platform::graph::PlatformBuilder;

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
        let template = MultiTemplate::new(set.clone());
        let mask = full_mask(&platform);
        let multi = template.solve(&mask, None).unwrap();

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
        let template = MultiTemplate::new(set.clone());
        let flow = template.solve(&full_mask(&platform), None).unwrap();
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
        let template = MultiTemplate::new(set.clone());
        let flow = template.solve(&full_mask(&platform), None).unwrap();
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
        let mut template = MultiFlowLp::new(set);
        let mask = full_mask(&platform);
        let before = template.solve(&mask, None).unwrap();

        // Drift an edge: a *cold* re-solve of the edited template must match
        // a template built fresh on the drifted platform, bit for bit (the
        // in-place coefficient rewrite preserves the constraint pattern).
        let e = platform.find_edge(NodeId(0), NodeId(1)).unwrap();
        template.set_edge_cost(e, 2.5);
        let cold = template.solve(&mask, None).unwrap();

        let mut fresh_platform = platform.clone();
        fresh_platform.set_cost(e, 2.5).unwrap();
        let fresh_set = CommoditySet::new(fresh_platform, commodities).unwrap();
        let fresh = MultiFlowLp::new(fresh_set).solve(&mask, None).unwrap();
        assert_eq!(cold.period.to_bits(), fresh.period.to_bits());
        for (a, b) in cold.flows.iter().zip(&fresh.flows) {
            assert_eq!(a.target_flows, b.target_flows);
        }

        // A warm re-solve from the pre-drift basis reaches the same optimum
        // (possibly through a different pivot path, so compare by value).
        let warm = template.solve(&mask, Some(&before.basis)).unwrap();
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
        let template = MultiFlowLp::new(set);
        let mut mask = full_mask(&platform);
        mask.remove(NodeId(1));
        // Node 1 is commodity 1's source.
        assert!(matches!(
            template.solve(&mask, None),
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
