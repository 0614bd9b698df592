//! Masked sub-platform formulations: the paper's LPs built *once* on the
//! full platform and re-solved under [`NodeMask`] views.
//!
//! The greedy heuristics of Section 5.2 evaluate one steady-state LP per
//! candidate node per round. Rebuilding the LP on the candidate sub-platform
//! ([`MulticastInstance::restrict_to`] + [`crate::formulations`]) re-indexes
//! nodes and edges, so every candidate is a structurally different problem
//! and no warm start applies. The masked formulations keep the original
//! indices: node removal is expressed as a [`pm_lp::BoundsOverlay`] — the
//! flow variables of every edge incident to a deactivated node are fixed to
//! zero. The constraint pattern — and with it the warm-start signature —
//! is identical across *all* candidates of a greedy run, so each candidate
//! solve starts from the previous optimal basis and costs a few dual-pass
//! pivots instead of a cold phase 1 + 2.
//!
//! Deactivating a node must also deactivate its *commodity* in the
//! broadcast and multi-source families (whose demand sets follow the node
//! set). Naively that is an RHS change (`demand = 1 → 0`), and lowering an
//! RHS under a basis whose solution carried that demand usually turns the
//! basis primal infeasible — rejecting the hint and paying a cold solve.
//! Instead, every toggling demand row carries a *skip* variable
//! (`Σ in-flow + w_i = 1`): while the commodity is active, `w_i` is fixed
//! to zero and the row is the paper's constraint; when the commodity
//! deactivates, `w_i` is released and absorbs the demand. Node removal is
//! then a pure bound-set change with an unchanged RHS, which the
//! lexicographic dual pass in `pm-lp` settles in a handful of pivots.
//!
//! **One flow template.** `Broadcast-EB`, `Multicast-LB`, `Multicast-UB` and
//! the joint multi-commodity LP of [`crate::multi`] share one LP shape:
//! unit-flow blocks under shared one-port occupation rows. [`MaskedFlowLp`]
//! lays out commodity blocks `c = 0..k`, each with a source, its targets
//! and a weight `w_c`. The columns are the flows `x`, the max-accounting
//! loads `n`, the skip variables (`Broadcast-EB` only), then `T*`. Each
//! block has its source-outflow, no-backflow, demand, conservation and
//! `x ≤ n` rows; the shared port and edge occupation rows follow, where a
//! load costs `w_c·c(e)`, as it does in the secondary objective. The
//! paper's three bounds are `k = 1`, `w = 1`; [`MaskedFlowLp::joint`]
//! weighs each commodity by its demand. [`MaskedMultiSourceUb`] keeps its
//! own destination blocks and shares the rest: the occupation rows, edge
//! costs, solve settings, error mapping and `T*` crash of
//! [`MaskedTemplate`].
//!
//! A solve without a usable hint does not run the all-artificial phase 1.
//! Every solve also builds a *crash basis* for its mask
//! ([`pm_lp::Basis::crash`], offered as [`pm_lp::BoundsOverlay::crash`])
//! from one cheapest-path tree ([`pm_platform::algo::dijkstra`]) per block
//! source over the active edges, weighted by edge cost — the secondary
//! objective's weights. For every active target the tree arc into each
//! reachable node is basic in that target's conservation or demand row, so
//! one unit flows down the path to the target and the other arcs sit
//! degenerate at zero. The skip variables are basic in the demand rows of
//! deactivated targets, under max accounting `n_{c,e}` is basic in the
//! `x ≤ n` row of the first target of block `c` routed over `e`, and `T*`
//! is basic in the busiest occupation row, whose load weighs each block by
//! `w_c`; every other row stays on its slack or artificial. That basis is a
//! feasible vertex, so `pm-lp` starts from it whenever the solve has no
//! hint, or the hint fails to install or its dual pass gives up. The same
//! trees are the reachability pre-check: an active target off its block's
//! tree is unreachable, and no LP is solved.
//! The whole arborescence is basic, not just the paths to the targets: an
//! off-path row left on its artificial costs phase-2 pivots to price out.
//! A crash start counts as a cold solve, never as a warm hit.
//!
//! The rebuild path stays available as the differential oracle, and it
//! keeps the all-artificial start; the `masked_vs_rebuilt` integration test
//! checks the two agree on status and period for all four formulations on
//! random platforms, and `crash_start` checks that hint-less template
//! solves skip phase 1 and match it.
//!
//! Templates are *owned* values (they clone the instance they are built
//! from), so a long-lived [`crate::session::Session`] can hold them next to
//! its authoritative platform without self-referential lifetimes. Edge-cost
//! drift is an in-place delta: [`MaskedTemplate::set_edge_cost`] rewrites
//! the occupation-row coefficients through [`LpProblem::set_coeff`] — the
//! constraint pattern (and with it every cached warm-start basis) survives
//! the edit.

use crate::formulations::{FlowSolution, FormulationError, MultiSourceSolution};
use crate::multi::{CommoditySet, MultiFlow};
use pm_lp::{
    Basis, BoundsOverlay, LpError, LpProblem, Objective, Relation, SolveBudget, SolveContext,
    SolveOutcome, SolveStats, SparseBuilder, VarId,
};
use pm_platform::algo::{dijkstra, PathTree};
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
use std::iter::once;
use std::sync::Arc;

/// A successful masked solve of a single-source formulation: the flow
/// solution (indexed by *full-platform* target and edge ids), the optimal
/// basis to warm-start the next candidate, and the solve's diagnostics.
#[derive(Debug, Clone)]
pub struct MaskedFlow {
    /// The optimal flows and period.
    pub flow: FlowSolution,
    /// The optimal basis (a warm-start hint for any other mask of the same
    /// template).
    pub basis: Basis,
    /// The LP solve's diagnostics (warm status, pivots, wall time).
    pub stats: SolveStats,
}

/// Per edge: a list of `(column, w)` terms whose coefficient, or secondary
/// cost, is `w·c(e)`. The lists are stored flat, edge after edge, a term as
/// its column and the index of its weight among the few distinct ones (at
/// most one per commodity block): 8 bytes a term.
#[derive(Debug, Default)]
struct EdgeTerms {
    /// `ends[e]`: one past edge `e`'s last term.
    ends: Vec<usize>,
    terms: Vec<(u32, u32)>,
    weights: Vec<f64>,
}

impl EdgeTerms {
    /// Appends `terms` to the list of the edge being filled.
    fn extend(&mut self, terms: impl IntoIterator<Item = (VarId, f64)>) {
        for (v, w) in terms {
            let known = self.weights.iter().position(|x| x.to_bits() == w.to_bits());
            let weight = known.unwrap_or_else(|| {
                self.weights.push(w);
                self.weights.len() - 1
            });
            let index = |i: usize| u32::try_from(i).expect("fewer than 2^32 columns");
            self.terms.push((index(v.index()), index(weight)));
        }
    }

    /// Ends the list of the edge being filled.
    fn close_edge(&mut self) {
        self.ends.push(self.terms.len());
    }

    /// Edge `e`'s terms.
    fn of(&self, e: EdgeId) -> impl Iterator<Item = (VarId, f64)> + '_ {
        let start = e.index().checked_sub(1).map_or(0, |prev| self.ends[prev]);
        let terms = self.terms[start..self.ends[e.index()]].iter();
        terms.map(|&(v, w)| (VarId(v as usize), self.weights[w as usize]))
    }
}

/// A reusable full-platform template of a masked formulation, re-solvable
/// under any [`NodeMask`]: [`MaskedFlowLp`] or [`MaskedMultiSourceUb`],
/// told apart by their column and row layout `L`.
///
/// Every template ends in the same shared one-port occupation rows: an
/// in-port and an out-port row per node and a row per edge, each
/// `Σ w·c(e)·load ≤ T*` over per-edge tables of `(column, w)` load terms.
/// The same tables price the lexicographic tie-break and drive the in-place
/// edge-cost edit, so that build, [`MaskedTemplate::set_edge_cost`], the
/// solve settings and the solve's error mapping exist once, here.
///
/// The template is immutable between edits: a solve builds only a
/// per-solve [`BoundsOverlay`], so a greedy round re-solves one template
/// under each candidate's mask, every time from the round's basis.
#[derive(Debug, Clone)]
pub struct MaskedTemplate<L> {
    instance: MulticastInstance,
    problem: LpProblem,
    t_star: VarId,
    /// Per node: the `(in-port, out-port)` occupation row indices (absent
    /// for nodes without edges on that side).
    port_rows: Vec<(Option<usize>, Option<usize>)>,
    /// Per edge: its own occupation row index.
    edge_rows: Vec<usize>,
    /// Per edge: the load terms of its occupation rows, coefficient
    /// `w·c(e)` there and secondary cost `w·c(e)`. Never changes after the
    /// build, so every clone of the template shares it.
    load_terms: Arc<EdgeTerms>,
    /// Per edge: further terms of secondary cost `w·c(e)`, in no occupation
    /// row (the flows under max accounting, whose loads are the `n`).
    traffic_terms: Arc<EdgeTerms>,
    /// Deterministic per-solve work caps; `None` is unlimited.
    budget: Option<SolveBudget>,
    /// The context every solve of the template runs under.
    ctx: SolveContext,
    layout: L,
}

impl<L> MaskedTemplate<L> {
    /// Finishes a template whose layout rows `lp` holds: appends the shared
    /// occupation rows — (5)(8)/(6)(9) per port, (4)(7) per edge — over
    /// `load_terms`, prices `load_terms` and `traffic_terms` in the
    /// secondary objective, and builds the LP.
    fn finish(
        instance: MulticastInstance,
        mut lp: SparseBuilder,
        t_star: VarId,
        mut load_terms: EdgeTerms,
        mut traffic_terms: EdgeTerms,
        layout: L,
    ) -> Self {
        let platform = &instance.platform;
        let load = |e: EdgeId| {
            let cost = platform.cost(e);
            load_terms.of(e).map(move |(v, w)| (v, w * cost))
        };
        let mut port_rows = vec![(None, None); platform.node_count()];
        for node in platform.nodes() {
            let (in_row, out_row) = &mut port_rows[node.index()];
            for (slot, edges) in [
                (in_row, platform.in_edges(node)),
                (out_row, platform.out_edges(node)),
            ] {
                if !edges.is_empty() {
                    let terms = edges.iter().flat_map(|&e| load(e));
                    let row =
                        lp.add_constraint(terms.chain(once((t_star, -1.0))), Relation::Le, 0.0);
                    *slot = Some(row.0);
                }
            }
        }
        let edge_rows = platform
            .edge_ids()
            .map(|e| {
                lp.add_constraint(load(e).chain(once((t_star, -1.0))), Relation::Le, 0.0)
                    .0
            })
            .collect();
        // Lexicographic tie-break: among the tied-optimal vertices of these
        // highly degenerate flow LPs, pick the one moving the least
        // cost-weighted traffic. This pins the greedy candidate scores (and
        // hence heuristic outcomes) to a canonical vertex, independent of
        // engine, pricing rule, or warm-start history. Skip and injection
        // variables stay unpenalized: skipping a commodity must never look
        // like traffic.
        for e in platform.edge_ids() {
            let cost = platform.cost(e);
            for (v, w) in load_terms.of(e).chain(traffic_terms.of(e)) {
                lp.set_secondary_coeff(v, w * cost);
            }
        }
        load_terms.terms.shrink_to_fit();
        traffic_terms.terms.shrink_to_fit();
        MaskedTemplate {
            instance,
            problem: lp.build().expect("a masked template is a valid LP"),
            t_star,
            port_rows,
            edge_rows,
            load_terms: Arc::new(load_terms),
            traffic_terms: Arc::new(traffic_terms),
            budget: None,
            ctx: SolveContext::default(),
            layout,
        }
    }

    /// Sets the deterministic per-solve work caps for every subsequent solve
    /// of this template (`None` is unlimited). Under an exhausted budget a
    /// solve returns a primal-feasible anytime solution whose stats flag
    /// [`pm_lp::SolveStats::degraded`] instead of erroring — a session under
    /// pressure serves a certified-suboptimal schedule rather than failing.
    /// Set it before sharing the template across threads: solves take
    /// `&self`.
    pub fn set_budget(&mut self, budget: Option<SolveBudget>) {
        self.budget = budget;
    }

    /// Sets the [`SolveContext`] every subsequent solve of this template runs
    /// under (the default context until set).
    pub fn set_context(&mut self, ctx: SolveContext) {
        self.ctx = ctx;
    }

    /// The instance the template was built from (its platform carries the
    /// template's *current* edge costs — [`MaskedTemplate::set_edge_cost`]
    /// keeps the two in sync). A joint template keeps its first commodity's.
    pub fn instance(&self) -> &MulticastInstance {
        &self.instance
    }

    /// Updates the cost of edge `e` in place: the template's platform copy
    /// and every coefficient that carries the cost — one per load term in
    /// each of the edge's three occupation rows, through
    /// [`LpProblem::set_coeff`], and the secondary objective's. The
    /// constraint pattern — and with it the warm-start signature and every
    /// previously returned [`Basis`] — is unchanged, so the next solve
    /// restarts from the old basis in a few pivots instead of paying a
    /// rebuild + cold solve.
    ///
    /// # Panics
    /// Panics if `cost` is not finite and strictly positive.
    pub fn set_edge_cost(&mut self, e: EdgeId, cost: f64) {
        self.instance
            .platform
            .set_cost(e, cost)
            .expect("edge-cost drift must keep costs finite and positive");
        let edge = *self.instance.platform.edge(e);
        let rows = [
            self.port_rows[edge.dst.index()].0,
            self.port_rows[edge.src.index()].1,
            Some(self.edge_rows[e.index()]),
        ];
        let (load, traffic) = (&self.load_terms, &self.traffic_terms);
        for row in rows.into_iter().flatten() {
            for (v, w) in load.of(e) {
                self.problem.set_coeff(row, v, w * cost);
            }
        }
        // Keep the lexicographic tie-break priced at the drifted cost.
        for (v, w) in load.of(e).chain(traffic.of(e)) {
            self.problem.set_secondary_coeff(v, w * cost);
        }
    }

    /// Solves the LP under `overlay`, warm-starting from `hint`. The
    /// reachability pre-check passed, so a reported `Infeasible` is
    /// numerical (the flow LP of reachable demands is always feasible). The
    /// rebuild path maps it to `Unreachable` all the same (`formulations`),
    /// and status parity with that oracle is what the differential tests
    /// pin down — so it reports `Unreachable(node)` rather than diverge.
    fn resolve(
        &self,
        overlay: &BoundsOverlay,
        hint: Option<&Basis>,
        node: NodeId,
    ) -> Result<SolveOutcome, FormulationError> {
        self.problem
            .resolve_in(&self.ctx, overlay, hint, self.budget)
            .map_err(|e| match e {
                LpError::Infeasible => FormulationError::Unreachable(node),
                other => FormulationError::Lp(other),
            })
    }

    /// The crash basis of the `(row, column)` pairs `basic` plus `T*`,
    /// basic in the occupation row with the largest occupation
    /// `Σ c(e)·load[e]`, where `load[e]` is what edge `e` carries in the
    /// crash's flow, weighted like its occupation terms. With `T*` there,
    /// every other occupation row keeps a non-negative slack. A port row's
    /// occupation is at least that of each of its edges' own rows, so the
    /// port rows suffice.
    fn crash(&self, mut basic: Vec<(usize, VarId)>, load: &[f64]) -> Basis {
        let platform = &self.instance.platform;
        let mut busiest: Option<(f64, usize)> = None;
        for node in platform.nodes() {
            let (in_row, out_row) = self.port_rows[node.index()];
            for (row, edges) in [
                (in_row, platform.in_edges(node)),
                (out_row, platform.out_edges(node)),
            ] {
                let Some(row) = row else { continue };
                let occupation: f64 = edges
                    .iter()
                    .map(|&e| platform.cost(e) * load[e.index()])
                    .sum();
                if busiest.is_none_or(|(max, _)| occupation > max) {
                    busiest = Some((occupation, row));
                }
            }
        }
        basic.extend(busiest.map(|(_, row)| (row, self.t_star)));
        Basis::crash(&self.problem, basic)
    }
}

/// The flow template: `Broadcast-EB`, `Multicast-LB`, `Multicast-UB` and the
/// joint multi-commodity LP (see the module docs).
pub type MaskedFlowLp = MaskedTemplate<FlowLayout>;

/// Which of the paper's single-source formulations the flow template's
/// blocks follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowKind {
    /// `Broadcast-EB` on the masked sub-platform: one target per non-source
    /// node, deactivated along with its node.
    BroadcastEb,
    /// `Multicast-LB` (equation 10', max accounting) on the masked
    /// sub-platform; the targets must stay active.
    MulticastLb,
    /// `Multicast-UB` (equation 10, scatter accounting); targets must stay
    /// active.
    MulticastUb,
}

/// The layout of a [`MaskedFlowLp`]: its formulation and commodity blocks.
#[derive(Debug, Clone)]
pub struct FlowLayout {
    kind: FlowKind,
    blocks: Vec<Block>,
    /// The super-unit period per unit of `T*` ([`MaskedFlowLp::solve_multi`]):
    /// the demand of a one-commodity joint template, whose block keeps
    /// weight 1; else 1.
    period_scale: f64,
}

/// One commodity block of the flow template: a unit of flow from `source`
/// to each of `targets`.
#[derive(Debug, Clone)]
struct Block {
    source: NodeId,
    targets: Vec<NodeId>,
    /// The block's weight `w` in the shared occupation rows and the
    /// secondary objective: 1, or the commodity's demand in a joint
    /// template.
    weight: f64,
    /// `x[i][e]`: fraction of the message bound to target `i` crossing edge
    /// `e`.
    x: Vec<Vec<VarId>>,
    /// `n[e]`: the block's edge loads (max accounting only).
    n: Option<Vec<VarId>>,
    /// Per target: the skip variables of its source-outflow and demand rows
    /// (`Broadcast-EB` only: a multicast target never deactivates). Fixed
    /// to zero while the target is active; released to absorb the demand
    /// when it deactivates.
    skips: Vec<Option<(VarId, VarId)>>,
    /// At `i·n + v`: the row of target `i`'s flow balance at node `v` — the
    /// source-outflow row at the source, the demand row at the target, the
    /// conservation row elsewhere (`u32::MAX` for a node without edges,
    /// which has none). The crash basis makes tree arcs basic in them. The
    /// table never changes after the build, so every clone of the template
    /// (each session clones its own) shares it.
    flow_rows: Arc<[u32]>,
    /// First row of the `x ≤ n` rows (max accounting only): target `i`'s
    /// row for edge `e` is `xn_first + i·m + e`.
    xn_first: usize,
}

impl MaskedFlowLp {
    /// Builds the masked `Broadcast-EB` template: targets are every
    /// non-source node of the platform; deactivating a node also
    /// deactivates its target.
    pub fn broadcast_eb(instance: &MulticastInstance) -> Self {
        let source = instance.source;
        let targets = instance.platform.nodes().filter(|&v| v != source).collect();
        let block = (source, targets, 1.0);
        Self::build(instance.clone(), FlowKind::BroadcastEb, vec![block], 1.0)
    }

    /// Builds the masked `Multicast-LB` template (max accounting, the lower
    /// bound). Every instance target must stay active in the masks it is
    /// solved under.
    pub fn multicast_lb(instance: &MulticastInstance) -> Self {
        let block = (instance.source, instance.targets.clone(), 1.0);
        Self::build(instance.clone(), FlowKind::MulticastLb, vec![block], 1.0)
    }

    /// Builds the masked `Multicast-UB` template (scatter accounting, the
    /// upper bound). Every instance target must stay active.
    pub fn multicast_ub(instance: &MulticastInstance) -> Self {
        let block = (instance.source, instance.targets.clone(), 1.0);
        Self::build(instance.clone(), FlowKind::MulticastUb, vec![block], 1.0)
    }

    /// Builds the joint multi-commodity template of `set` (see
    /// [`crate::multi`]): one `Multicast-LB` block per commodity, weighted
    /// by its demand `d_c` in the shared occupation rows, so `T*` is the
    /// super-unit period. A one-commodity set keeps weight 1 — its LP is
    /// [`MaskedFlowLp::multicast_lb`]'s, bit for bit — and scales the
    /// period by its demand instead. Every commodity's source and targets
    /// must stay active.
    pub fn joint(set: CommoditySet) -> Self {
        let (platform, commodities) = set.into_parts();
        let single = commodities.len() == 1;
        let scale = if single { commodities[0].demand } else { 1.0 };
        let (source, targets) = (commodities[0].source, commodities[0].targets.clone());
        let instance = MulticastInstance::new(platform, source, targets)
            .expect("a validated commodity is a valid instance");
        let blocks = (commodities.into_iter())
            .map(|c| (c.source, c.targets, if single { 1.0 } else { c.demand }))
            .collect();
        Self::build(instance, FlowKind::MulticastLb, blocks, scale)
    }

    fn build(
        instance: MulticastInstance,
        kind: FlowKind,
        commodities: Vec<(NodeId, Vec<NodeId>, f64)>,
        period_scale: f64,
    ) -> Self {
        let platform = &instance.platform;
        let (m, nn) = (platform.edge_count(), platform.node_count());
        let max_rule = kind != FlowKind::MulticastUb;

        let mut lp = SparseBuilder::new(Objective::Minimize);
        let x: Vec<Vec<Vec<VarId>>> = (commodities.iter().enumerate())
            .map(|(c, (_, targets, _))| {
                (0..targets.len())
                    .map(|i| {
                        (0..m)
                            .map(|e| lp.add_var(&format!("x_{c}_{i}_{e}")))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let n: Vec<Option<Vec<VarId>>> = (0..commodities.len())
            .map(|c| max_rule.then(|| (0..m).map(|e| lp.add_var(&format!("n_{c}_{e}"))).collect()))
            .collect();
        let skips: Vec<Vec<Option<(VarId, VarId)>>> = (commodities.iter().enumerate())
            .map(|(c, (_, targets, _))| {
                (0..targets.len())
                    .map(|i| {
                        (kind == FlowKind::BroadcastEb).then(|| {
                            let src = lp.add_var(&format!("skip_src_{c}_{i}"));
                            (src, lp.add_var(&format!("skip_dem_{c}_{i}")))
                        })
                    })
                    .collect()
            })
            .collect();
        let t_star = lp.add_var("T*");
        lp.set_objective_coeff(t_star, 1.0);

        let mut blocks = Vec::with_capacity(commodities.len());
        for (((source, targets, weight), x), (n, skips)) in
            commodities.into_iter().zip(x).zip(n.into_iter().zip(skips))
        {
            let mut flow_rows = vec![u32::MAX; targets.len() * nn];
            // (1) the whole message leaves the source, per target — or the
            // target's skip variable absorbs the demand when it deactivates.
            for (i, x_row) in x.iter().enumerate() {
                let terms = platform
                    .out_edges(source)
                    .iter()
                    .map(|&e| (x_row[e.index()], 1.0));
                let row = lp.add_constraint(
                    terms.chain(skips[i].map(|(u, _)| (u, 1.0))),
                    Relation::Eq,
                    1.0,
                );
                flow_rows[i * nn + source.index()] = row_index(row.0);
            }
            // No flow of the block back into its source (see
            // `formulations::solve_single_source` for the rationale); other
            // blocks may still route through it.
            for x_row in &x {
                for &e in platform.in_edges(source) {
                    lp.add_constraint([(x_row[e.index()], 1.0)], Relation::Eq, 0.0);
                }
            }
            // (2) the whole message reaches each target (or its skip absorbs
            // it). A never-deactivating target with no incoming edge gets an
            // unsatisfiable `0 = 1` row: harmless, because the reachability
            // pre-check reports it as unreachable before any solve.
            for (i, &target) in targets.iter().enumerate() {
                let terms = platform
                    .in_edges(target)
                    .iter()
                    .map(|&e| (x[i][e.index()], 1.0));
                let row = lp.add_constraint(
                    terms.chain(skips[i].map(|(_, w)| (w, 1.0))),
                    Relation::Eq,
                    1.0,
                );
                flow_rows[i * nn + target.index()] = row_index(row.0);
            }
            // (3) conservation at every other node.
            for (i, &target) in targets.iter().enumerate() {
                for node in platform.nodes().filter(|&v| v != source && v != target) {
                    let out = platform
                        .out_edges(node)
                        .iter()
                        .map(|&e| (x[i][e.index()], 1.0));
                    let back = platform
                        .in_edges(node)
                        .iter()
                        .map(|&e| (x[i][e.index()], -1.0));
                    let terms: Vec<(VarId, f64)> = out.chain(back).collect();
                    if !terms.is_empty() {
                        let row = lp.add_constraint(terms, Relation::Eq, 0.0);
                        flow_rows[i * nn + node.index()] = row_index(row.0);
                    }
                }
            }
            // (10') n_e >= x_i_e for the max rule.
            let xn_first = lp.num_rows();
            if let Some(n) = &n {
                for x_row in &x {
                    for e in 0..m {
                        lp.add_constraint([(x_row[e], 1.0), (n[e], -1.0)], Relation::Le, 0.0);
                    }
                }
            }
            blocks.push(Block {
                source,
                targets,
                weight,
                x,
                n,
                skips,
                flow_rows: flow_rows.into(),
                xn_first,
            });
        }
        // A block's load on an edge is `n_e` under max accounting, with the
        // flows priced in the secondary objective only; under scatter
        // accounting it is every target's flow.
        let (mut load_terms, mut traffic_terms) = (EdgeTerms::default(), EdgeTerms::default());
        for e in 0..m {
            for block in &blocks {
                let flows = block.x.iter().map(|row| (row[e], block.weight));
                match &block.n {
                    Some(n) => {
                        load_terms.extend([(n[e], block.weight)]);
                        traffic_terms.extend(flows);
                    }
                    None => load_terms.extend(flows),
                }
            }
            load_terms.close_edge();
            traffic_terms.close_edge();
        }
        let layout = FlowLayout {
            kind,
            blocks,
            period_scale,
        };
        MaskedTemplate::finish(instance, lp, t_star, load_terms, traffic_terms, layout)
    }

    /// Solves a single-commodity template restricted to the active nodes of
    /// `mask`, warm-starting from `hint` (the basis of any previous solve of
    /// this template, under any mask). A joint template reports its first
    /// commodity's flow; [`MaskedFlowLp::solve_multi`] reports them all.
    ///
    /// Errors mirror the rebuild path: an active target that the masked
    /// platform cannot reach reports [`FormulationError::Unreachable`]
    /// (detected by a pre-check on the crash basis's shortest-path trees,
    /// so no LP is solved), and a mask deactivating a source (or, for the
    /// multicast templates, a target) is an
    /// [`FormulationError::InvalidArgument`].
    pub fn solve(
        &self,
        mask: &NodeMask,
        hint: Option<&Basis>,
    ) -> Result<MaskedFlow, FormulationError> {
        let (_, mut flows, out) = self.solve_blocks(mask, hint)?;
        Ok(MaskedFlow {
            flow: flows.swap_remove(0),
            basis: out.basis,
            stats: out.stats,
        })
    }

    /// Solves the template like [`MaskedFlowLp::solve`] and reports every
    /// commodity: the super-unit period, each commodity's rate `w_c / T*`
    /// and its unit flow, whose period is the per-message `T* / w_c`.
    pub fn solve_multi(
        &self,
        mask: &NodeMask,
        hint: Option<&Basis>,
    ) -> Result<MultiFlow, FormulationError> {
        let (t_star, flows, out) = self.solve_blocks(mask, hint)?;
        let rates = self
            .layout
            .blocks
            .iter()
            .map(|block| {
                if t_star > 0.0 {
                    block.weight / t_star
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        Ok(MultiFlow {
            period: self.layout.period_scale * t_star,
            rates,
            flows,
            basis: out.basis,
            stats: out.stats,
        })
    }

    /// The pre-check, overlay, crash and solve of [`MaskedFlowLp::solve`]:
    /// returns `T*`, every block's flow and the LP outcome.
    fn solve_blocks(
        &self,
        mask: &NodeMask,
        hint: Option<&Basis>,
    ) -> Result<(f64, Vec<FlowSolution>, SolveOutcome), FormulationError> {
        let platform = &self.instance.platform;
        let (m, nn) = (platform.edge_count(), platform.node_count());
        let blocks = &self.layout.blocks;
        let edge_active: Vec<bool> = platform
            .edge_ids()
            .map(|e| mask.edge_active(platform, e))
            .collect();
        // Pre-check, block by block: the source and (multicast) the targets
        // stay active, and every active target is reachable over the masked
        // platform, on the crash tree of the block's source — else the LP
        // would be infeasible.
        let mut trees = Vec::with_capacity(blocks.len());
        for block in blocks {
            if !mask.contains(block.source) {
                return Err(FormulationError::InvalidArgument(format!(
                    "mask deactivates the source {}",
                    block.source
                )));
            }
            if self.layout.kind != FlowKind::BroadcastEb {
                if let Some(&t) = block.targets.iter().find(|&&t| !mask.contains(t)) {
                    return Err(FormulationError::InvalidArgument(format!(
                        "mask deactivates target {t}"
                    )));
                }
            }
            let tree = crash_tree(platform, block.source, &edge_active);
            let unreachable = |&&t: &&NodeId| mask.contains(t) && !tree.reachable(t);
            if let Some(&t) = block.targets.iter().find(unreachable) {
                return Err(FormulationError::Unreachable(t));
            }
            trees.push(tree);
        }

        // The overlay and, with it, the crash (see the module docs).
        let mut overlay = BoundsOverlay::new();
        let mut basic: Vec<(usize, VarId)> = Vec::new();
        // Per edge: the message units it carries, in the template's
        // accounting (max: the weight of every block routed over it;
        // scatter: one weight per target), as the occupation rows count it.
        let mut load = vec![0.0; m];
        let mut routed = vec![false; m];
        for (block, tree) in blocks.iter().zip(&trees) {
            let row = |i: usize, v: NodeId| {
                let row = block.flow_rows[i * nn + v.index()];
                debug_assert_ne!(row, u32::MAX, "a node with an edge has a balance row");
                row as usize
            };
            routed.fill(false);
            for (i, &target) in block.targets.iter().enumerate() {
                if !mask.contains(target) {
                    // Deactivated target: all flow forced to zero, the skip
                    // variables released and basic in its two demand rows.
                    overlay.fix_zero.extend(block.x[i].iter().copied());
                    let (u, w) = block.skips[i].expect("only broadcast targets deactivate");
                    basic.extend([(row(i, block.source), u), (row(i, target), w)]);
                    continue;
                }
                overlay
                    .fix_zero
                    .extend(block.skips[i].into_iter().flat_map(|(u, w)| [u, w]));
                for (e, &active) in edge_active.iter().enumerate() {
                    if !active {
                        overlay.fix_zero.push(block.x[i][e]);
                    }
                }
                for v in platform.nodes() {
                    if let Some(e) = tree.parent_edge[v.index()] {
                        basic.push((row(i, v), block.x[i][e.index()]));
                    }
                }
                for e in tree_path(platform, tree, target) {
                    match &block.n {
                        Some(n) if !routed[e] => {
                            routed[e] = true;
                            load[e] += block.weight;
                            basic.push((block.xn_first + i * m + e, n[e]));
                        }
                        Some(_) => {}
                        None => load[e] += block.weight,
                    }
                }
            }
            if let Some(n) = &block.n {
                for (e, &active) in edge_active.iter().enumerate() {
                    if !active {
                        overlay.fix_zero.push(n[e]);
                    }
                }
            }
        }
        overlay.crash = Some(self.crash(basic, &load));

        let out = self.resolve(&overlay, hint, blocks[0].targets[0])?;
        let sol = &out.solution;
        let t_star = sol.value(self.t_star);
        let flows = blocks
            .iter()
            .map(|block| {
                let period = t_star / block.weight;
                let target_flows: Vec<Vec<f64>> = block
                    .x
                    .iter()
                    .map(|row| row.iter().map(|&v| sol.value(v)).collect())
                    .collect();
                let edge_load = (0..m)
                    .map(|e| match &block.n {
                        Some(n) => sol.value(n[e]),
                        None => target_flows.iter().map(|row| row[e]).sum(),
                    })
                    .collect();
                FlowSolution {
                    period,
                    throughput: if period > 0.0 {
                        1.0 / period
                    } else {
                        f64::INFINITY
                    },
                    target_flows,
                    edge_load,
                }
            })
            .collect();
        Ok((t_star, flows, out))
    }
}

/// A successful masked multi-source solve.
#[derive(Debug, Clone)]
pub struct MaskedMultiSource {
    /// The optimal period, loads and per-node incoming scores.
    pub solution: MultiSourceSolution,
    /// The optimal basis (a warm-start hint for any other source selection
    /// or mask of the same template).
    pub basis: Basis,
    /// The LP solve's diagnostics.
    pub stats: SolveStats,
}

/// A reusable template of `MulticastMultiSource-UB` (Section 5.2.3) whose
/// source list is a per-solve *selection* instead of a structural property.
///
/// The per-origin commodities of the rebuild formulation are merged into one
/// flow per destination plus per-node *injection* variables `z[d][v]` ("the
/// share of `d`'s message entering the network at `v`"): conservation at
/// every node `v ≠ d` reads `out(v) − in(v) = z[d][v]`, the injections of a
/// destination sum to one, and one full message enters the destination.
/// Promoting a node to a source is then a pure bound update — unfix the
/// corresponding injections — and every node is a potential destination
/// whose demand toggles with the target/source sets. The merged LP has the
/// same optimal period as the per-origin form: any merged flow decomposes
/// into per-origin path flows and vice versa, with cycles (the only
/// decomposition obstruction) never load-decreasing. The `masked_vs_rebuilt`
/// differential test checks this equivalence on random platforms.
pub type MaskedMultiSourceUb = MaskedTemplate<MultiSourceLayout>;

/// The layout of a [`MaskedMultiSourceUb`]: one block per potential
/// destination, the shared occupation rows under scatter accounting.
#[derive(Debug, Clone)]
pub struct MultiSourceLayout {
    /// `x[d][e]`: flow of destination `d`'s message on edge `e` (destination
    /// index over `dest_nodes`).
    x: Vec<Vec<VarId>>,
    /// `z[d][v]`: injection of destination `d`'s message at node `v`
    /// (`None` at `v == d`).
    z: Vec<Vec<Option<VarId>>>,
    /// Every non-source node, in id order: the potential destinations.
    dest_nodes: Vec<NodeId>,
    /// Per destination: the skip variables of the injection-total and
    /// demand rows (fixed to zero while the destination is active).
    dest_skips: Vec<(VarId, VarId)>,
}

impl MaskedMultiSourceUb {
    /// Builds the template. Every non-source node is a potential destination
    /// and a potential (secondary) source; the actual selection is made per
    /// solve.
    pub fn new(instance: &MulticastInstance) -> Self {
        let platform = &instance.platform;
        let m = platform.edge_count();
        let nn = platform.node_count();
        let dest_nodes: Vec<NodeId> = platform.nodes().filter(|&v| v != instance.source).collect();

        let mut lp = SparseBuilder::new(Objective::Minimize);
        let mut x: Vec<Vec<VarId>> = Vec::with_capacity(dest_nodes.len());
        let mut z: Vec<Vec<Option<VarId>>> = Vec::with_capacity(dest_nodes.len());
        for (di, &d) in dest_nodes.iter().enumerate() {
            x.push((0..m).map(|e| lp.add_var(&format!("x_{di}_{e}"))).collect());
            z.push(
                (0..nn)
                    .map(|v| (v != d.index()).then(|| lp.add_var(&format!("z_{di}_{v}"))))
                    .collect(),
            );
        }
        let dest_skips: Vec<(VarId, VarId)> = (0..dest_nodes.len())
            .map(|di| {
                (
                    lp.add_var(&format!("skip_inj_{di}")),
                    lp.add_var(&format!("skip_dem_{di}")),
                )
            })
            .collect();
        let t_star = lp.add_var("T*");
        lp.set_objective_coeff(t_star, 1.0);

        for (di, &d) in dest_nodes.iter().enumerate() {
            // (1) the injections of destination d sum to one message (the
            // skip variable absorbs it while d is not a destination).
            let row = lp.add_constraint(
                z[di]
                    .iter()
                    .flatten()
                    .map(|&v| (v, 1.0))
                    .chain(once((dest_skips[di].0, 1.0))),
                Relation::Eq,
                1.0,
            );
            debug_assert_eq!(row.0, ms_injection_row(nn, di));
            // (2) one full message enters the destination (or its skip).
            let row = lp.add_constraint(
                platform
                    .in_edges(d)
                    .iter()
                    .map(|&e| (x[di][e.index()], 1.0))
                    .chain(once((dest_skips[di].1, 1.0))),
                Relation::Eq,
                1.0,
            );
            debug_assert_eq!(row.0, ms_balance_row(nn, di, d, d));
            // (3) conservation with injection at every node v ≠ d:
            // out(v) − in(v) − z[d][v] = 0.
            for v in platform.nodes().filter(|&v| v != d) {
                let out = platform
                    .out_edges(v)
                    .iter()
                    .map(|&e| (x[di][e.index()], 1.0));
                let back = platform
                    .in_edges(v)
                    .iter()
                    .map(|&e| (x[di][e.index()], -1.0));
                let z_v = z[di][v.index()].expect("z exists for v != d");
                let terms: Vec<(VarId, f64)> = out.chain(back).chain(once((z_v, -1.0))).collect();
                let row = lp.add_constraint(terms, Relation::Eq, 0.0);
                debug_assert_eq!(row.0, ms_balance_row(nn, di, d, v));
            }
        }
        // (10) scatter accounting: every destination's flow is a load;
        // injections and skips are no traffic.
        let (mut load_terms, mut no_traffic) = (EdgeTerms::default(), EdgeTerms::default());
        for e in 0..m {
            load_terms.extend(x.iter().map(|row| (row[e], 1.0)));
            load_terms.close_edge();
            no_traffic.close_edge();
        }
        let layout = MultiSourceLayout {
            x,
            z,
            dest_nodes,
            dest_skips,
        };
        MaskedTemplate::finish(instance.clone(), lp, t_star, load_terms, no_traffic, layout)
    }

    /// Solves the formulation for the ordered source list `sources`
    /// (beginning with the instance's source) on the sub-platform of `mask`,
    /// warm-starting from `hint`.
    ///
    /// Destinations are the secondary sources (each served by strictly
    /// earlier sources) and the active targets that are not sources (served
    /// by all sources), exactly as in the rebuild formulation.
    pub fn solve(
        &self,
        mask: &NodeMask,
        sources: &[NodeId],
        hint: Option<&Basis>,
    ) -> Result<MaskedMultiSource, FormulationError> {
        self.solve_opts(mask, sources, hint, true)
    }

    /// [`MaskedMultiSourceUb::solve`] with the per-destination flow
    /// extraction made optional: the greedy candidate loop solves dozens of
    /// LPs per round and only reads periods and incoming scores, so it skips
    /// the `O(dests × edges)` `dest_flows` allocation (`want_flows = false`)
    /// and extracts the matrices only on runs that capture their
    /// steady state for realization.
    pub fn solve_opts(
        &self,
        mask: &NodeMask,
        sources: &[NodeId],
        hint: Option<&Basis>,
        want_flows: bool,
    ) -> Result<MaskedMultiSource, FormulationError> {
        let platform = &self.instance.platform;
        let layout = &self.layout;
        let nn = platform.node_count();
        if sources.first() != Some(&self.instance.source) {
            return Err(FormulationError::InvalidArgument(
                "the first source must be the instance's source".to_string(),
            ));
        }
        let mut source_rank = vec![usize::MAX; nn];
        for (i, &s) in sources.iter().enumerate() {
            if s.index() >= nn {
                return Err(FormulationError::InvalidArgument(format!(
                    "unknown node {s}"
                )));
            }
            if source_rank[s.index()] != usize::MAX {
                return Err(FormulationError::InvalidArgument(format!(
                    "duplicate source {s}"
                )));
            }
            if !mask.contains(s) {
                return Err(FormulationError::InvalidArgument(format!(
                    "mask deactivates source {s}"
                )));
            }
            source_rank[s.index()] = i;
        }
        for &t in &self.instance.targets {
            if !mask.contains(t) {
                return Err(FormulationError::InvalidArgument(format!(
                    "mask deactivates target {t}"
                )));
            }
        }

        // Reachability pre-check: destination d must be reachable (over the
        // masked platform) from its allowed origins — the sources ranked
        // strictly below it for a secondary source, all sources for a plain
        // target. `reach[i]` marks the nodes reachable from the first `i+1`
        // sources; it grows monotonically, so one pass seeding source by
        // source suffices.
        let mut seen = vec![false; nn];
        let mut reach_at_rank: Vec<Vec<bool>> = Vec::with_capacity(sources.len());
        let mut stack: Vec<NodeId> = Vec::new();
        for &s in sources {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
            while let Some(u) = stack.pop() {
                for &e in platform.out_edges(u) {
                    let v = platform.edge(e).dst;
                    if mask.contains(v) && !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            reach_at_rank.push(seen.clone());
        }
        // Per destination: whether it receives a message under this
        // selection (an active secondary source or plain target).
        let active: Vec<bool> = layout
            .dest_nodes
            .iter()
            .map(|&d| {
                mask.contains(d)
                    && (source_rank[d.index()] != usize::MAX || self.instance.is_target(d))
            })
            .collect();
        for (&d, _) in layout.dest_nodes.iter().zip(&active).filter(|(_, &a)| a) {
            let rank = source_rank[d.index()];
            // A secondary source is served by strictly earlier sources, a
            // plain target (rank `usize::MAX`) by all of them.
            if !reach_at_rank[rank.min(sources.len()) - 1][d.index()] {
                return Err(FormulationError::Unreachable(d));
            }
        }
        if !active.contains(&true) {
            return Err(FormulationError::InvalidArgument(
                "no destination left: every target is already a source".to_string(),
            ));
        }

        let edge_active: Vec<bool> = platform
            .edge_ids()
            .map(|e| mask.edge_active(platform, e))
            .collect();
        let mut overlay = BoundsOverlay::new();
        for (di, &d) in layout.dest_nodes.iter().enumerate() {
            let rank = source_rank[d.index()];
            if !active[di] {
                // Not a destination: flow and injections forced to zero,
                // the skip variables absorb the two demand rows.
                overlay.fix_zero.extend(layout.x[di].iter().copied());
                overlay
                    .fix_zero
                    .extend(layout.z[di].iter().flatten().copied());
                continue;
            }
            overlay.fix_zero.push(layout.dest_skips[di].0);
            overlay.fix_zero.push(layout.dest_skips[di].1);
            // Allowed origins: sources ranked strictly below d (secondary
            // source) or every source (plain target).
            let origin_limit = rank.min(sources.len());
            for (&zv, &rank_v) in layout.z[di].iter().zip(&source_rank) {
                let Some(zv) = zv else { continue };
                if rank_v >= origin_limit {
                    overlay.fix_zero.push(zv);
                }
            }
            for (e, &ea) in edge_active.iter().enumerate() {
                if !ea {
                    overlay.fix_zero.push(layout.x[di][e]);
                }
            }
        }
        overlay.crash = Some(self.ms_crash(&active, &edge_active));

        let out = self.resolve(&overlay, hint, layout.dest_nodes[0])?;
        let sol = &out.solution;
        let period = sol.value(self.t_star);
        let m = platform.edge_count();
        let mut edge_load = vec![0.0; m];
        let mut dest_nodes: Vec<NodeId> = Vec::new();
        let mut dest_flows: Vec<Vec<f64>> = Vec::new();
        for (di, &d) in layout.dest_nodes.iter().enumerate() {
            if active[di] && want_flows {
                let row: Vec<f64> = (0..m).map(|e| sol.value(layout.x[di][e])).collect();
                for (e, load) in edge_load.iter_mut().enumerate() {
                    *load += row[e];
                }
                dest_nodes.push(d);
                dest_flows.push(row);
            } else {
                // Inactive destination (flows fixed to zero) or a solve
                // that skips extraction: accumulate without allocating.
                for (e, load) in edge_load.iter_mut().enumerate() {
                    *load += sol.value(layout.x[di][e]);
                }
            }
        }
        let mut incoming_score = vec![0.0; nn];
        for node in platform.nodes() {
            let mut s = 0.0;
            for &e in platform.in_edges(node) {
                for x_row in &layout.x {
                    s += sol.value(x_row[e.index()]);
                }
            }
            incoming_score[node.index()] = s;
        }
        Ok(MaskedMultiSource {
            solution: MultiSourceSolution {
                period,
                throughput: if period > 0.0 {
                    1.0 / period
                } else {
                    f64::INFINITY
                },
                edge_load,
                incoming_score,
                dest_nodes,
                dest_flows,
            },
            basis: out.basis,
            stats: out.stats,
        })
    }

    /// The crash basis of a solve (see the module docs): every `active`
    /// destination takes its unit from the instance's source — its injection
    /// there basic in the injection row — along the cheapest-path tree of
    /// the active edges, whose arc into each reachable node is basic in the
    /// destination's balance row there. An inactive destination has its
    /// skip variables basic in its two demand rows. The source reaches
    /// every active destination: the reachability pre-check serves each
    /// from earlier sources, which the source reaches in turn.
    fn ms_crash(&self, active: &[bool], edge_active: &[bool]) -> Basis {
        let platform = &self.instance.platform;
        let layout = &self.layout;
        let source = self.instance.source;
        let tree = crash_tree(platform, source, edge_active);
        let mut basic: Vec<(usize, VarId)> = Vec::new();
        // Per edge: the messages it carries (scatter accounting).
        let mut load = vec![0.0; platform.edge_count()];
        let nn = platform.node_count();
        for (di, &d) in layout.dest_nodes.iter().enumerate() {
            let injection = ms_injection_row(nn, di);
            if !active[di] {
                let (u, w) = layout.dest_skips[di];
                basic.extend([(injection, u), (ms_balance_row(nn, di, d, d), w)]);
                continue;
            }
            let z = layout.z[di][source.index()].expect("z exists for v != d");
            basic.push((injection, z));
            for v in platform.nodes() {
                if let Some(e) = tree.parent_edge[v.index()] {
                    basic.push((ms_balance_row(nn, di, d, v), layout.x[di][e.index()]));
                }
            }
            for e in tree_path(platform, &tree, d) {
                load[e] += 1.0;
            }
        }
        self.crash(basic, &load)
    }
}

/// A row index in the flow template's `u32` row table.
fn row_index(row: usize) -> u32 {
    u32::try_from(row).expect("a template has fewer than 2^32 rows")
}

/// The multi-source template lays its destination blocks out first: the
/// `n + 1` rows from `di·(n + 1)` on belong to destination `di` — its
/// injection-total row, its demand row, then the conservation row of every
/// other node in id order. This is the first.
fn ms_injection_row(nn: usize, di: usize) -> usize {
    di * (nn + 1)
}

/// The row of destination `di`'s (node `d`) flow balance at node `v` in
/// the multi-source template (see [`ms_injection_row`]): the demand row at
/// `d`, the conservation row elsewhere.
fn ms_balance_row(nn: usize, di: usize, d: NodeId, v: NodeId) -> usize {
    let block = ms_injection_row(nn, di);
    if v == d {
        block + 1
    } else {
        block + 2 + v.index() - usize::from(v > d)
    }
}

/// The cheapest-path arborescence of the active sub-platform, rooted at a
/// source and weighted by edge cost (the secondary objective's weights):
/// the routing of every crash basis. Inactive edges cost `+∞`, so the tree
/// never uses them.
fn crash_tree(platform: &Platform, source: NodeId, edge_active: &[bool]) -> PathTree {
    dijkstra(platform, source, &|e| {
        if edge_active[e.index()] {
            platform.cost(e)
        } else {
            f64::INFINITY
        }
    })
}

/// The edge indices of the tree path from the root to `v`, last edge first.
fn tree_path<'a>(
    platform: &'a Platform,
    tree: &'a PathTree,
    v: NodeId,
) -> impl Iterator<Item = usize> + 'a {
    std::iter::successors(tree.parent_edge[v.index()], move |&e| {
        tree.parent_edge[platform.edge(e).src.index()]
    })
    .map(EdgeId::index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulations::{BroadcastEb, MulticastLb, MulticastMultiSourceUb, MulticastUb};
    use crate::multi::CommoditySet;
    use pm_platform::instances::{figure1_instance, figure5_instance, relay_cross_instance};

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "expected {b}, got {a}");
    }

    #[test]
    fn full_mask_matches_rebuild_formulations() {
        for inst in [
            figure1_instance(),
            figure5_instance(3),
            relay_cross_instance(),
        ] {
            let full = NodeMask::full(inst.platform.node_count());
            let masked = MaskedFlowLp::broadcast_eb(&inst)
                .solve(&full, None)
                .unwrap();
            approx(
                masked.flow.period,
                BroadcastEb::new(&inst).solve().unwrap().period,
            );
            let masked = MaskedFlowLp::multicast_lb(&inst)
                .solve(&full, None)
                .unwrap();
            approx(
                masked.flow.period,
                MulticastLb::new(&inst).solve().unwrap().period,
            );
            let masked = MaskedFlowLp::multicast_ub(&inst)
                .solve(&full, None)
                .unwrap();
            approx(
                masked.flow.period,
                MulticastUb::new(&inst).solve().unwrap().period,
            );
        }
    }

    #[test]
    fn masked_broadcast_matches_restricted_rebuild() {
        let inst = figure1_instance();
        let n = inst.platform.node_count();
        // Remove the backbone detour P4 -> P5 (P6 stays reachable via P2).
        let mask = NodeMask::full(n).without(NodeId(4)).without(NodeId(5));
        let masked = MaskedFlowLp::broadcast_eb(&inst)
            .solve(&mask, None)
            .unwrap();
        let sub = MulticastInstance::new(inst.platform.clone(), inst.source, inst.targets.clone())
            .unwrap()
            .restrict_to(&mask.to_nodes())
            .unwrap();
        let rebuilt = BroadcastEb::new(&sub).solve().unwrap();
        approx(masked.flow.period, rebuilt.period);
    }

    #[test]
    fn masked_broadcast_warm_chain_agrees_with_cold() {
        // A chain of masks warm-starting each other must match per-mask
        // cold solves.
        let inst = figure1_instance();
        let n = inst.platform.node_count();
        let template = MaskedFlowLp::broadcast_eb(&inst);
        let mut mask = NodeMask::full(n);
        let mut hint = None;
        // P8 and P9 are cluster leaves with alternative feeds from P7.
        for node in [NodeId(8), NodeId(9)] {
            mask.remove(node);
            let warm = template.solve(&mask, hint.as_ref()).unwrap();
            let cold = template.solve(&mask, None).unwrap();
            approx(warm.flow.period, cold.flow.period);
            hint = Some(warm.basis);
        }
    }

    #[test]
    fn masked_detects_unreachable_active_nodes() {
        // Figure 1: P7's only in-edge comes from P6; removing P6 cuts the
        // whole P7 cluster off.
        let inst = figure1_instance();
        let n = inst.platform.node_count();
        let mask = NodeMask::full(n).without(NodeId(6));
        let res = MaskedFlowLp::broadcast_eb(&inst).solve(&mask, None);
        assert!(matches!(res, Err(FormulationError::Unreachable(_))));
        // Deactivating the source or a target is an argument error.
        let res =
            MaskedFlowLp::broadcast_eb(&inst).solve(&NodeMask::full(n).without(inst.source), None);
        assert!(matches!(res, Err(FormulationError::InvalidArgument(_))));
        let res = MaskedFlowLp::multicast_lb(&inst)
            .solve(&NodeMask::full(n).without(inst.targets[0]), None);
        assert!(matches!(res, Err(FormulationError::InvalidArgument(_))));
    }

    #[test]
    fn masked_multisource_matches_rebuild_on_figure5() {
        let inst = figure5_instance(3);
        let n = inst.platform.node_count();
        let full = NodeMask::full(n);
        let template = MaskedMultiSourceUb::new(&inst);
        // Single source: equals Multicast-UB.
        let single = template.solve(&full, &[inst.source], None).unwrap();
        let oracle = MulticastMultiSourceUb::new(&inst, vec![inst.source])
            .unwrap()
            .solve()
            .unwrap();
        approx(single.solution.period, oracle.period);
        // Relay promoted: equals the rebuild formulation, warm-started from
        // the single-source basis.
        let relay = NodeId(1);
        let multi = template
            .solve(&full, &[inst.source, relay], Some(&single.basis))
            .unwrap();
        let oracle = MulticastMultiSourceUb::new(&inst, vec![inst.source, relay])
            .unwrap()
            .solve()
            .unwrap();
        approx(multi.solution.period, oracle.period);
        assert!(multi.solution.period < single.solution.period - 0.25);
    }

    #[test]
    fn edge_cost_edits_match_a_fresh_template() {
        // Drift a third of the edge costs: the edited template re-solved
        // warm from the pre-drift basis must match a template built fresh
        // on the drifted platform, for every formulation family.
        let mut inst = figure1_instance();
        let full = NodeMask::full(inst.platform.node_count());
        let edits: Vec<(EdgeId, f64)> = inst
            .platform
            .edges()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(i, (e, edge))| (e, edge.cost * (1.0 + 0.1 * (1 + i % 5) as f64)))
            .collect();

        let mut eb = MaskedFlowLp::broadcast_eb(&inst);
        let mut lb = MaskedFlowLp::multicast_lb(&inst);
        let mut ms = MaskedMultiSourceUb::new(&inst);
        let eb_base = eb.solve(&full, None).unwrap();
        let lb_base = lb.solve(&full, None).unwrap();
        let ms_base = ms.solve(&full, &[inst.source], None).unwrap();
        for &(e, c) in &edits {
            inst.platform.set_cost(e, c).unwrap();
            eb.set_edge_cost(e, c);
            lb.set_edge_cost(e, c);
            ms.set_edge_cost(e, c);
            assert_eq!(eb.instance().platform.cost(e), c);
        }

        let eb_warm = eb.solve(&full, Some(&eb_base.basis)).unwrap();
        let eb_fresh = MaskedFlowLp::broadcast_eb(&inst)
            .solve(&full, None)
            .unwrap();
        approx(eb_warm.flow.period, eb_fresh.flow.period);
        assert!(eb_warm.flow.period > eb_base.flow.period - 1e-9);

        let lb_warm = lb.solve(&full, Some(&lb_base.basis)).unwrap();
        let lb_fresh = MaskedFlowLp::multicast_lb(&inst)
            .solve(&full, None)
            .unwrap();
        approx(lb_warm.flow.period, lb_fresh.flow.period);

        let ms_warm = ms
            .solve(&full, &[inst.source], Some(&ms_base.basis))
            .unwrap();
        let ms_fresh = MaskedMultiSourceUb::new(&inst)
            .solve(&full, &[inst.source], None)
            .unwrap();
        approx(ms_warm.solution.period, ms_fresh.solution.period);
    }

    #[test]
    fn masked_multisource_rejects_bad_selections() {
        let inst = figure5_instance(2);
        let n = inst.platform.node_count();
        let full = NodeMask::full(n);
        let template = MaskedMultiSourceUb::new(&inst);
        assert!(template.solve(&full, &[NodeId(1)], None).is_err());
        assert!(template
            .solve(&full, &[inst.source, inst.source], None)
            .is_err());
        assert!(template
            .solve(&full, &[inst.source, NodeId(99)], None)
            .is_err());
        assert!(template
            .solve(&full.without(NodeId(1)), &[inst.source, NodeId(1)], None)
            .is_err());
    }

    #[test]
    fn masked_multisource_incoming_scores_cover_used_relays() {
        let inst = figure5_instance(3);
        let n = inst.platform.node_count();
        let sol = MaskedMultiSourceUb::new(&inst)
            .solve(&NodeMask::full(n), &[inst.source], None)
            .unwrap();
        // The relay forwards everything: its incoming score is the largest.
        let relay = NodeId(1);
        let max = sol
            .solution
            .incoming_score
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(sol.solution.incoming_score[relay.index()] >= max - 1e-9);
    }

    /// FNV-1a over everything a solve reads: the column count, each row's
    /// relation, rhs bits and terms in order with their coefficient bits,
    /// and every column's objective and secondary coefficient bits.
    /// Variable names are left out (only error messages read them).
    fn lp_hash(problem: &LpProblem) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(problem.num_vars() as u64);
        for row in problem.constraints() {
            eat(match row.relation {
                Relation::Le => 0,
                Relation::Ge => 1,
                Relation::Eq => 2,
            });
            eat(row.rhs.to_bits());
            eat(row.terms.len() as u64);
            for &(v, a) in &row.terms {
                eat(v.index() as u64);
                eat(a.to_bits());
            }
        }
        for j in 0..problem.num_vars() {
            eat(problem.objective_coeff(VarId(j)).to_bits());
            eat(problem.secondary_coeff(VarId(j)).to_bits());
        }
        h
    }

    /// The diamond of the multi-commodity tests: S <-> A <-> T, S <-> B <-> T.
    fn diamond() -> Platform {
        let mut b = pm_platform::graph::PlatformBuilder::new();
        let n = b.add_nodes(4);
        for (u, v, c) in [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 0.5), (2, 3, 0.5)] {
            b.add_edge(n[u], n[v], c).unwrap();
            b.add_edge(n[v], n[u], c).unwrap();
        }
        b.build().unwrap()
    }

    /// `k` commodities with demands 1, 2, 0.5, 4: on the diamond, with
    /// fixed endpoints; on a seeded small-class platform, sampled like a
    /// `fig11 --multi` cell.
    fn joint_set(k: usize, small: bool) -> CommoditySet {
        use crate::multi::Commodity;
        use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
        use rand::SeedableRng;
        let demand = |c: usize| [1.0, 2.0, 0.5, 4.0][c % 4];
        if !small {
            let ends = [
                (0, vec![3]),
                (3, vec![1, 2]),
                (1, vec![2, 3]),
                (2, vec![0, 1]),
            ];
            let commodities = ends[..k]
                .iter()
                .enumerate()
                .map(|(c, (s, t))| Commodity {
                    source: NodeId(*s),
                    targets: t.iter().map(|&v| NodeId(v)).collect(),
                    demand: demand(c),
                })
                .collect();
            return CommoditySet::new(diamond(), commodities).unwrap();
        }
        let topology = TiersLikeGenerator::reduced_scale(PlatformClass::Small, 7).generate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let commodities = (0..k)
            .map(|c| {
                let inst = topology.sample_instance(0.5, &mut rng);
                Commodity {
                    source: inst.source,
                    targets: inst.targets,
                    demand: demand(c),
                }
            })
            .collect();
        CommoditySet::new(topology.platform.clone(), commodities).unwrap()
    }

    /// The edge whose cost the pin drifts: the platform's middle edge, at
    /// 1.75 times its cost.
    fn pin_edit(platform: &Platform) -> (EdgeId, f64) {
        let e = EdgeId((platform.edge_count() / 2) as u32);
        (e, platform.cost(e) * 1.75)
    }

    /// Every template's LP, before and after one edge-cost edit, is the
    /// one the separate single, multi-source and joint templates built:
    /// the hashes were taken from them. A layout change moves a hash.
    #[test]
    fn template_lps_are_pinned() {
        let pinned: [(&str, u64); 24] = [
            ("figure 1 Broadcast-EB", 0xc9db72552c9c0c44),
            ("figure 1 Broadcast-EB drifted", 0x03f875fb4e75c270),
            ("figure 1 Multicast-LB", 0xa222155e2cdb65cd),
            ("figure 1 Multicast-LB drifted", 0x29a693a0a30fbe71),
            ("figure 1 Multicast-UB", 0x04d4831ec5701750),
            ("figure 1 Multicast-UB drifted", 0x27e5969d892a3cc0),
            ("figure 1 MulticastMultiSource-UB", 0xaac5165fb036a9cf),
            (
                "figure 1 MulticastMultiSource-UB drifted",
                0x8685aa43329b54cf,
            ),
            ("figure 5 Broadcast-EB", 0x4878997c94c33337),
            ("figure 5 Broadcast-EB drifted", 0xca0caabf7a4cf967),
            ("figure 5 Multicast-LB", 0xe36943b2b674d58a),
            ("figure 5 Multicast-LB drifted", 0x5fdc02a60a89b07b),
            ("figure 5 Multicast-UB", 0x66288096381fa689),
            ("figure 5 Multicast-UB drifted", 0xb4ea37f9e3a77339),
            ("figure 5 MulticastMultiSource-UB", 0xc89332d21f1bbed3),
            (
                "figure 5 MulticastMultiSource-UB drifted",
                0x156bbf5c306771cb,
            ),
            ("diamond joint k=2", 0x9218d6774f33ef77),
            ("diamond joint k=2 drifted", 0xa4158878813b8fc3),
            ("diamond joint k=4", 0x28b1eba068b2166f),
            ("diamond joint k=4 drifted", 0x3a049402fbdf8ddb),
            ("small joint k=2", 0x758ed5399f7d2eab),
            ("small joint k=2 drifted", 0xe1f142c3177d49c2),
            ("small joint k=4", 0xa4f04a692f50bcac),
            ("small joint k=4 drifted", 0x635eed74aa760099),
        ];
        let mut got: Vec<(String, u64)> = Vec::new();
        for (name, inst) in [
            ("figure 1", figure1_instance()),
            ("figure 5", figure5_instance(3)),
        ] {
            let (e, cost) = pin_edit(&inst.platform);
            let flows = [
                ("Broadcast-EB", MaskedFlowLp::broadcast_eb(&inst)),
                ("Multicast-LB", MaskedFlowLp::multicast_lb(&inst)),
                ("Multicast-UB", MaskedFlowLp::multicast_ub(&inst)),
            ];
            for (kind, mut template) in flows {
                got.push((format!("{name} {kind}"), lp_hash(&template.problem)));
                template.set_edge_cost(e, cost);
                got.push((format!("{name} {kind} drifted"), lp_hash(&template.problem)));
            }
            let mut template = MaskedMultiSourceUb::new(&inst);
            let kind = "MulticastMultiSource-UB";
            got.push((format!("{name} {kind}"), lp_hash(&template.problem)));
            template.set_edge_cost(e, cost);
            got.push((format!("{name} {kind} drifted"), lp_hash(&template.problem)));
        }
        for small in [false, true] {
            for k in [2, 4] {
                let set = joint_set(k, small);
                let name = if small { "small" } else { "diamond" };
                let (e, cost) = pin_edit(set.platform());
                let mut template = MaskedFlowLp::joint(set);
                got.push((format!("{name} joint k={k}"), lp_hash(&template.problem)));
                template.set_edge_cost(e, cost);
                got.push((
                    format!("{name} joint k={k} drifted"),
                    lp_hash(&template.problem),
                ));
            }
        }
        assert_eq!(got.len(), pinned.len());
        for ((label, hash), (want_label, want)) in got.iter().zip(pinned) {
            assert_eq!(label, want_label);
            assert_eq!(
                *hash, want,
                "{label}: LP hash 0x{hash:016x}, pinned 0x{want:016x}"
            );
        }
    }
}
