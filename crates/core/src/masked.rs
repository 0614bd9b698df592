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
//! solve starts from the previous optimal basis and costs a few repair
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
//! warm-start repair phase in `pm-lp` settles in a handful of pivots.
//!
//! A solve without a usable hint does not run the all-artificial phase 1.
//! Every solve also builds a *crash basis* for its mask
//! ([`pm_lp::Basis::crash`], offered as [`pm_lp::BoundsOverlay::crash`])
//! from one cheapest-path tree ([`pm_platform::algo::dijkstra`]) rooted at
//! the source over the active edges, weighted by edge cost — the secondary
//! objective's weights. For every active commodity the tree arc into each
//! reachable node is basic in that node's conservation or demand row, so
//! one unit flows down the path to the target and the other arcs sit
//! degenerate at zero. The skip variables are basic in the demand rows of
//! deactivated commodities, under max accounting `n_e` is basic in the
//! `x ≤ n` row of the first commodity routed over `e`, and `T*` is basic in
//! the busiest occupation row; every other row stays on its slack or
//! artificial. That basis is a feasible vertex, so `pm-lp` starts from it
//! whenever the solve has no hint or the hint fails to install or repair.
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
//! drift is an in-place delta: [`MaskedFlowLp::set_edge_cost`] /
//! [`MaskedMultiSourceUb::set_edge_cost`] rewrite the occupation-row
//! coefficients through [`LpProblem::set_coeff`] — the constraint pattern
//! (and with it every cached warm-start basis) survives the edit.

use crate::formulations::{FlowSolution, FormulationError, MultiSourceSolution};
use pm_lp::{
    Basis, BoundsOverlay, LpError, LpProblem, Objective, Relation, SolveBudget, SolveStats,
    SparseBuilder, VarId, WarmStatus,
};
use pm_platform::algo::{dijkstra, PathTree};
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
use std::sync::Arc;

/// Accounting of one masked solve.
#[derive(Debug, Clone, Copy)]
pub struct MaskedStats {
    /// Warm-start outcome of the underlying LP solve. Solves skipped by the
    /// reachability pre-check report [`WarmStatus::None`].
    pub warm: WarmStatus,
    /// The full per-solve diagnostics of the underlying LP solve (pivot
    /// counts, refactorizations, wall time) — the structured counterpart of
    /// the `PM_LP_STATS=1` stderr lines, aggregated by
    /// [`crate::session::SessionStats`].
    pub solve: SolveStats,
}

/// A successful masked solve of a single-source formulation: the flow
/// solution (indexed by *full-platform* commodity and edge ids), the optimal
/// basis to warm-start the next candidate, and the solve accounting.
#[derive(Debug, Clone)]
pub struct MaskedFlow {
    /// The optimal flows and period.
    pub flow: FlowSolution,
    /// The optimal basis (a warm-start hint for any other mask of the same
    /// template).
    pub basis: Basis,
    /// Solve accounting.
    pub stats: MaskedStats,
}

/// Which of the paper's single-source formulations a [`MaskedFlowLp`]
/// template encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowKind {
    /// `Broadcast-EB` on the masked sub-platform: one commodity per
    /// non-source node, deactivated along with its node.
    BroadcastEb,
    /// `Multicast-LB` (equation 10', max accounting) on the masked
    /// sub-platform; the target set is the instance's and must stay active.
    MulticastLb,
    /// `Multicast-UB` (equation 10, scatter accounting); targets must stay
    /// active.
    MulticastUb,
}

/// A reusable full-platform template of one of the single-source
/// formulations, re-solvable under any [`NodeMask`].
///
/// The template is immutable after construction: a solve builds only a
/// per-solve [`BoundsOverlay`], so a greedy round re-solves one template
/// under each candidate's mask, every time from the round's basis.
#[derive(Debug, Clone)]
pub struct MaskedFlowLp {
    instance: MulticastInstance,
    kind: FlowKind,
    problem: LpProblem,
    /// `x[i][e]`: fraction of commodity `i` crossing edge `e`.
    x: Vec<Vec<VarId>>,
    /// `n[e]` edge-load variables (max accounting only).
    n: Option<Vec<VarId>>,
    t_star: VarId,
    /// The target node of each commodity.
    commodity_targets: Vec<NodeId>,
    /// Per commodity: the skip variables of the source-outflow and
    /// target-demand rows (`None` when the commodity can never deactivate,
    /// i.e. for the multicast templates). Fixed to zero while the commodity
    /// is active; released to absorb the demand when it deactivates.
    commodity_skips: Vec<Option<(VarId, VarId)>>,
    /// At `i·n + v`: the row of commodity `i`'s flow balance at node `v` —
    /// the source-outflow row at the source, the demand row at the target,
    /// the conservation row elsewhere (`u32::MAX` for a node without
    /// edges, which has none). The crash basis makes tree arcs basic in
    /// them. The table never changes after the build, so every clone of
    /// the template (each session clones its own) shares it.
    flow_rows: Arc<[u32]>,
    /// First row of the `x ≤ n` block (max accounting only): commodity
    /// `i`'s row for edge `e` is `xn_first + i·m + e`.
    xn_first: usize,
    /// Per node: the `(in-port, out-port)` occupation row indices (absent
    /// for nodes without edges on that side) — the rows an edge-cost edit
    /// must rewrite.
    port_rows: Vec<(Option<usize>, Option<usize>)>,
    /// Per edge: its own occupation row index.
    edge_rows: Vec<usize>,
    /// Deterministic per-solve work caps; `None` defers to `PM_LP_BUDGET`.
    budget: Option<SolveBudget>,
}

impl MaskedFlowLp {
    /// Builds the masked `Broadcast-EB` template: targets are every
    /// non-source node of the platform; deactivating a node also
    /// deactivates its commodity.
    pub fn broadcast_eb(instance: &MulticastInstance) -> Self {
        let targets: Vec<NodeId> = instance
            .platform
            .nodes()
            .filter(|&v| v != instance.source)
            .collect();
        Self::build(instance, FlowKind::BroadcastEb, targets)
    }

    /// Builds the masked `Multicast-LB` template (max accounting, the lower
    /// bound). Every instance target must stay active in the masks it is
    /// solved under.
    pub fn multicast_lb(instance: &MulticastInstance) -> Self {
        Self::build(instance, FlowKind::MulticastLb, instance.targets.clone())
    }

    /// Builds the masked `Multicast-UB` template (scatter accounting, the
    /// upper bound). Every instance target must stay active.
    pub fn multicast_ub(instance: &MulticastInstance) -> Self {
        Self::build(instance, FlowKind::MulticastUb, instance.targets.clone())
    }

    fn build(instance: &MulticastInstance, kind: FlowKind, targets: Vec<NodeId>) -> Self {
        let platform = &instance.platform;
        let m = platform.edge_count();
        let t_count = targets.len();
        let max_rule = matches!(kind, FlowKind::BroadcastEb | FlowKind::MulticastLb);

        let mut lp = SparseBuilder::new(Objective::Minimize);
        let mut x: Vec<Vec<VarId>> = Vec::with_capacity(t_count);
        for i in 0..t_count {
            x.push((0..m).map(|e| lp.add_var(&format!("x_{i}_{e}"))).collect());
        }
        let n: Option<Vec<VarId>> =
            max_rule.then(|| (0..m).map(|e| lp.add_var(&format!("n_{e}"))).collect());
        // Skip variables, only for the broadcast template (a commodity of a
        // multicast template can never deactivate: its target must stay in
        // every mask).
        let commodity_skips: Vec<Option<(VarId, VarId)>> = (0..t_count)
            .map(|i| {
                matches!(kind, FlowKind::BroadcastEb).then(|| {
                    (
                        lp.add_var(&format!("skip_src_{i}")),
                        lp.add_var(&format!("skip_dem_{i}")),
                    )
                })
            })
            .collect();
        let t_star = lp.add_var("T*");
        lp.set_objective_coeff(t_star, 1.0);

        let nn = platform.node_count();
        let mut flow_rows = vec![u32::MAX; t_count * nn];
        // (1) the whole message leaves the source, per commodity — or its
        // skip variable absorbs the demand when the commodity deactivates.
        for (i, x_row) in x.iter().enumerate() {
            let row = lp.add_constraint(
                platform
                    .out_edges(instance.source)
                    .iter()
                    .map(|&e| (x_row[e.index()], 1.0))
                    .chain(commodity_skips[i].map(|(u, _)| (u, 1.0))),
                Relation::Eq,
                1.0,
            );
            flow_rows[i * nn + instance.source.index()] = row_index(row.0);
        }
        // No commodity flows back into the source (see
        // `formulations::solve_single_source` for the rationale).
        for x_row in &x {
            for &e in platform.in_edges(instance.source) {
                lp.add_constraint([(x_row[e.index()], 1.0)], Relation::Eq, 0.0);
            }
        }
        // (2) the whole message reaches each target (or its skip absorbs
        // it). A never-deactivating target with no incoming edge gets an
        // unsatisfiable `0 = 1` row: harmless, because the reachability
        // pre-check reports it as unreachable before any solve.
        for (i, &target) in targets.iter().enumerate() {
            let row = lp.add_constraint(
                platform
                    .in_edges(target)
                    .iter()
                    .map(|&e| (x[i][e.index()], 1.0))
                    .chain(commodity_skips[i].map(|(_, w)| (w, 1.0))),
                Relation::Eq,
                1.0,
            );
            flow_rows[i * nn + target.index()] = row_index(row.0);
        }
        // (3) conservation at every other node.
        for (i, &target) in targets.iter().enumerate() {
            for node in platform.nodes() {
                if node == instance.source || node == target {
                    continue;
                }
                let terms: Vec<(VarId, f64)> = platform
                    .out_edges(node)
                    .iter()
                    .map(|&e| (x[i][e.index()], 1.0))
                    .chain(
                        platform
                            .in_edges(node)
                            .iter()
                            .map(|&e| (x[i][e.index()], -1.0)),
                    )
                    .collect();
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
        let load_terms = |e: usize| -> Vec<(VarId, f64)> {
            let cost = platform.cost(EdgeId(e as u32));
            match &n {
                Some(n) => vec![(n[e], cost)],
                None => x.iter().map(|row| (row[e], cost)).collect(),
            }
        };
        // (5)(8)/(6)(9) port occupations and (4)(7) edge occupations. The
        // row indices are recorded so edge-cost drift can rewrite exactly
        // the coefficients that carry a cost (see `set_edge_cost`).
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
        // Lexicographic tie-break: among the tied-optimal vertices of these
        // highly degenerate flow LPs, pick the one moving the least
        // cost-weighted traffic. This pins the greedy candidate scores (and
        // hence heuristic outcomes) to a canonical vertex, independent of
        // engine, pricing rule, or warm-start history. Skip variables stay
        // unpenalized: skipping a commodity must never look like traffic.
        for e in 0..m {
            let cost = platform.cost(EdgeId(e as u32));
            for x_row in &x {
                lp.set_secondary_coeff(x_row[e], cost);
            }
            if let Some(n) = &n {
                lp.set_secondary_coeff(n[e], cost);
            }
        }

        let problem = lp.build().expect("masked flow template is a valid LP");
        MaskedFlowLp {
            instance: instance.clone(),
            kind,
            problem,
            x,
            n,
            t_star,
            commodity_targets: targets,
            commodity_skips,
            flow_rows: flow_rows.into(),
            xn_first,
            port_rows,
            edge_rows,
            budget: None,
        }
    }

    /// Sets the deterministic per-solve work caps for every subsequent
    /// [`MaskedFlowLp::solve`] of this template (`None` defers to the
    /// `PM_LP_BUDGET` default). Under an exhausted budget a solve returns a
    /// primal-feasible anytime solution whose stats flag
    /// [`pm_lp::SolveStats::degraded`] instead of erroring — a session
    /// under pressure serves a certified-suboptimal schedule rather than
    /// failing. Set it before sharing the template across threads: solves
    /// take `&self`.
    pub fn set_budget(&mut self, budget: Option<SolveBudget>) {
        self.budget = budget;
    }

    /// The instance the template was built from (its platform carries the
    /// template's *current* edge costs — [`MaskedFlowLp::set_edge_cost`]
    /// keeps the two in sync).
    pub fn instance(&self) -> &MulticastInstance {
        &self.instance
    }

    /// Updates the cost of edge `e` in place: the template's platform copy
    /// and every occupation-row coefficient that carries the cost are
    /// rewritten through [`LpProblem::set_coeff`]. The constraint pattern —
    /// and with it the warm-start signature and every previously returned
    /// [`Basis`] — is unchanged, so the next [`MaskedFlowLp::solve`] repairs
    /// the old basis in a few pivots instead of paying a rebuild + cold
    /// solve.
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
        for row in rows.into_iter().flatten() {
            match &self.n {
                // Max accounting: the cost multiplies the edge-load variable.
                Some(n) => self.problem.set_coeff(row, n[e.index()], cost),
                // Scatter accounting: one term per commodity.
                None => {
                    for x_row in &self.x {
                        self.problem.set_coeff(row, x_row[e.index()], cost);
                    }
                }
            }
        }
        // Keep the lexicographic tie-break priced at the drifted cost.
        for x_row in &self.x {
            self.problem.set_secondary_coeff(x_row[e.index()], cost);
        }
        if let Some(n) = &self.n {
            self.problem.set_secondary_coeff(n[e.index()], cost);
        }
    }

    /// The number of commodities of the template.
    pub fn commodity_count(&self) -> usize {
        self.commodity_targets.len()
    }

    /// Solves the formulation restricted to the active nodes of `mask`,
    /// warm-starting from `hint` (the basis of any previous solve of this
    /// template, under any mask).
    ///
    /// Errors mirror the rebuild path: an active target that the masked
    /// platform cannot reach reports [`FormulationError::Unreachable`]
    /// (detected by a pre-check on the crash basis's shortest-path tree, so
    /// no LP is solved), and a mask deactivating the source (or, for the
    /// multicast templates, a target) is an
    /// [`FormulationError::InvalidArgument`].
    pub fn solve(
        &self,
        mask: &NodeMask,
        hint: Option<&Basis>,
    ) -> Result<MaskedFlow, FormulationError> {
        let platform = &self.instance.platform;
        let source = self.instance.source;
        if !mask.contains(source) {
            return Err(FormulationError::InvalidArgument(format!(
                "mask deactivates the source {source}"
            )));
        }
        if !matches!(self.kind, FlowKind::BroadcastEb) {
            for &t in &self.commodity_targets {
                if !mask.contains(t) {
                    return Err(FormulationError::InvalidArgument(format!(
                        "mask deactivates target {t}"
                    )));
                }
            }
        }
        let edge_active: Vec<bool> = platform
            .edge_ids()
            .map(|e| mask.edge_active(platform, e))
            .collect();
        // Reachability pre-check over the masked platform, on the crash
        // basis's tree: every active commodity must be reachable, else the
        // LP would be infeasible.
        let tree = crash_tree(platform, source, &edge_active);
        for &t in &self.commodity_targets {
            if mask.contains(t) && !tree.reachable(t) {
                return Err(FormulationError::Unreachable(t));
            }
        }
        let mut overlay = BoundsOverlay::new();
        for (i, &target) in self.commodity_targets.iter().enumerate() {
            if !mask.contains(target) {
                // Deactivated commodity: all flow forced to zero, the skip
                // variables released to absorb the demand rows.
                overlay.fix_zero.extend(self.x[i].iter().copied());
            } else {
                if let Some((u, w)) = self.commodity_skips[i] {
                    overlay.fix_zero.push(u);
                    overlay.fix_zero.push(w);
                }
                for (e, &active) in edge_active.iter().enumerate() {
                    if !active {
                        overlay.fix_zero.push(self.x[i][e]);
                    }
                }
            }
        }
        if let Some(n) = &self.n {
            for (e, &active) in edge_active.iter().enumerate() {
                if !active {
                    overlay.fix_zero.push(n[e]);
                }
            }
        }
        overlay.crash = Some(self.crash(mask, &tree));

        let out = self
            .problem
            .resolve_with_bounds_budgeted(&overlay, hint, self.budget)
            .map_err(|e| match e {
                // The reachability pre-check passed, so a reported
                // Infeasible is numerical (the flow LP of a reachable
                // demand is always feasible). The rebuild path maps it to
                // Unreachable all the same (`formulations`), and status
                // parity with that oracle is what the differential tests
                // pin down — so mirror it rather than diverge.
                LpError::Infeasible => FormulationError::Unreachable(self.commodity_targets[0]),
                other => FormulationError::Lp(other),
            })?;
        let sol = &out.solution;
        let period = sol.value(self.t_star);
        let target_flows: Vec<Vec<f64>> = self
            .x
            .iter()
            .map(|row| row.iter().map(|&v| sol.value(v)).collect())
            .collect();
        let edge_load: Vec<f64> = (0..platform.edge_count())
            .map(|e| match &self.n {
                Some(n) => sol.value(n[e]),
                None => target_flows.iter().map(|row| row[e]).sum(),
            })
            .collect();
        Ok(MaskedFlow {
            flow: FlowSolution {
                period,
                throughput: if period > 0.0 {
                    1.0 / period
                } else {
                    f64::INFINITY
                },
                target_flows,
                edge_load,
            },
            basis: out.basis,
            stats: MaskedStats {
                warm: out.stats.warm,
                solve: out.stats,
            },
        })
    }

    /// The crash basis of a solve under `mask` (see the module docs). Every
    /// active commodity routes its unit along the cheapest-path tree of the
    /// active edges: the tree arc into each reachable node is basic in the
    /// commodity's balance row there, so one unit flows down the path to
    /// the target and the other arcs sit at zero. A deactivated commodity
    /// has its skip variables basic in its two demand rows. Under max
    /// accounting `n_e` is basic in the `x ≤ n` row of the first commodity
    /// routed over `e`, and `T*` is basic in the busiest occupation row.
    fn crash(&self, mask: &NodeMask, tree: &PathTree) -> Basis {
        let platform = &self.instance.platform;
        let source = self.instance.source;
        let m = platform.edge_count();
        let mut basic: Vec<(usize, VarId)> = Vec::new();
        // Per edge: the message units it carries, in the template's
        // accounting (max: 0 or 1; scatter: one per commodity).
        let mut load = vec![0.0; m];
        let nn = platform.node_count();
        for (i, &target) in self.commodity_targets.iter().enumerate() {
            let row = |v: NodeId| {
                let row = self.flow_rows[i * nn + v.index()];
                debug_assert_ne!(row, u32::MAX, "a node with an edge has a balance row");
                row as usize
            };
            if !mask.contains(target) {
                let (u, w) =
                    self.commodity_skips[i].expect("only broadcast commodities deactivate");
                basic.extend([(row(source), u), (row(target), w)]);
                continue;
            }
            for v in platform.nodes() {
                if let Some(e) = tree.parent_edge[v.index()] {
                    basic.push((row(v), self.x[i][e.index()]));
                }
            }
            for e in tree_path(platform, tree, target) {
                match &self.n {
                    Some(n) if load[e] == 0.0 => {
                        load[e] = 1.0;
                        basic.push((self.xn_first + i * m + e, n[e]));
                    }
                    Some(_) => {}
                    None => load[e] += 1.0,
                }
            }
        }
        basic.extend(busiest_port_row(platform, &self.port_rows, &load).map(|r| (r, self.t_star)));
        Basis::crash(&self.problem, basic)
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
    /// Solve accounting.
    pub stats: MaskedStats,
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
#[derive(Debug, Clone)]
pub struct MaskedMultiSourceUb {
    instance: MulticastInstance,
    problem: LpProblem,
    /// `x[d][e]`: flow of destination `d`'s message on edge `e` (destination
    /// index over `dest_nodes`).
    x: Vec<Vec<VarId>>,
    /// `z[d][v]`: injection of destination `d`'s message at node `v`
    /// (`None` at `v == d`).
    z: Vec<Vec<Option<VarId>>>,
    t_star: VarId,
    /// Every non-source node, in id order: the potential destinations.
    dest_nodes: Vec<NodeId>,
    /// Per destination: the skip variables of the injection-total and
    /// demand rows (fixed to zero while the destination is active).
    dest_skips: Vec<(VarId, VarId)>,
    /// Per node: the `(in-port, out-port)` occupation row indices.
    port_rows: Vec<(Option<usize>, Option<usize>)>,
    /// Per edge: its own occupation row index.
    edge_rows: Vec<usize>,
    /// Deterministic per-solve work caps; `None` defers to `PM_LP_BUDGET`.
    budget: Option<SolveBudget>,
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
                    .chain(std::iter::once((dest_skips[di].0, 1.0))),
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
                    .chain(std::iter::once((dest_skips[di].1, 1.0))),
                Relation::Eq,
                1.0,
            );
            debug_assert_eq!(row.0, ms_balance_row(nn, di, d, d));
            // (3) conservation with injection at every node v ≠ d:
            // out(v) − in(v) − z[d][v] = 0.
            for v in platform.nodes() {
                if v == d {
                    continue;
                }
                let terms: Vec<(VarId, f64)> = platform
                    .out_edges(v)
                    .iter()
                    .map(|&e| (x[di][e.index()], 1.0))
                    .chain(
                        platform
                            .in_edges(v)
                            .iter()
                            .map(|&e| (x[di][e.index()], -1.0)),
                    )
                    .chain(std::iter::once((
                        z[di][v.index()].expect("z exists for v != d"),
                        -1.0,
                    )))
                    .collect();
                let row = lp.add_constraint(terms, Relation::Eq, 0.0);
                debug_assert_eq!(row.0, ms_balance_row(nn, di, d, v));
            }
        }
        // (10) scatter accounting + port/edge occupations against T*, with
        // the row indices recorded for in-place edge-cost edits.
        let load_terms = |e: usize| -> Vec<(VarId, f64)> {
            let cost = platform.cost(EdgeId(e as u32));
            x.iter().map(|row| (row[e], cost)).collect()
        };
        let mut port_rows: Vec<(Option<usize>, Option<usize>)> = vec![(None, None); nn];
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
        // Canonical-vertex tie-break, as in `MaskedFlowLp::build`: minimize
        // cost-weighted traffic over the optimal face. Injection (`z`) and
        // skip variables stay unpenalized — only edge traffic is "cost".
        for e in 0..m {
            let cost = platform.cost(EdgeId(e as u32));
            for x_row in &x {
                lp.set_secondary_coeff(x_row[e], cost);
            }
        }

        let problem = lp.build().expect("masked multi-source template is valid");
        MaskedMultiSourceUb {
            instance: instance.clone(),
            problem,
            x,
            z,
            t_star,
            dest_nodes,
            dest_skips,
            port_rows,
            edge_rows,
            budget: None,
        }
    }

    /// Sets the deterministic per-solve work caps; see
    /// [`MaskedFlowLp::set_budget`].
    pub fn set_budget(&mut self, budget: Option<SolveBudget>) {
        self.budget = budget;
    }

    /// The instance the template was built from (kept cost-synchronised by
    /// [`MaskedMultiSourceUb::set_edge_cost`]).
    pub fn instance(&self) -> &MulticastInstance {
        &self.instance
    }

    /// In-place edge-cost update; see [`MaskedFlowLp::set_edge_cost`] — the
    /// scatter accounting rewrites one coefficient per destination in each
    /// of the three occupation rows the edge participates in.
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
        for row in rows.into_iter().flatten() {
            for x_row in &self.x {
                self.problem.set_coeff(row, x_row[e.index()], cost);
            }
        }
        // Keep the lexicographic tie-break priced at the drifted cost.
        for x_row in &self.x {
            self.problem.set_secondary_coeff(x_row[e.index()], cost);
        }
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
        let full_reach = &reach_at_rank[sources.len() - 1];
        // Per destination: whether it receives a message under this
        // selection (an active secondary source or plain target).
        let active: Vec<bool> = self
            .dest_nodes
            .iter()
            .map(|&d| {
                mask.contains(d)
                    && (source_rank[d.index()] != usize::MAX || self.instance.is_target(d))
            })
            .collect();
        for (&d, _) in self.dest_nodes.iter().zip(&active).filter(|(_, &a)| a) {
            let rank = source_rank[d.index()];
            let reachable = if rank != usize::MAX {
                // Secondary source: served by strictly earlier sources.
                reach_at_rank[rank - 1][d.index()]
            } else {
                full_reach[d.index()]
            };
            if !reachable {
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
        for (di, &d) in self.dest_nodes.iter().enumerate() {
            let rank = source_rank[d.index()];
            if !active[di] {
                // Not a destination: flow and injections forced to zero,
                // the skip variables absorb the two demand rows.
                overlay.fix_zero.extend(self.x[di].iter().copied());
                overlay
                    .fix_zero
                    .extend(self.z[di].iter().flatten().copied());
                continue;
            }
            overlay.fix_zero.push(self.dest_skips[di].0);
            overlay.fix_zero.push(self.dest_skips[di].1);
            // Allowed origins: sources ranked strictly below d (secondary
            // source) or every source (plain target).
            let origin_limit = if rank != usize::MAX {
                rank
            } else {
                sources.len()
            };
            for (&zv, &rank_v) in self.z[di].iter().zip(&source_rank) {
                let Some(zv) = zv else { continue };
                if rank_v >= origin_limit {
                    overlay.fix_zero.push(zv);
                }
            }
            for (e, &ea) in edge_active.iter().enumerate() {
                if !ea {
                    overlay.fix_zero.push(self.x[di][e]);
                }
            }
        }
        overlay.crash = Some(self.crash(&active, &edge_active));

        let out = self
            .problem
            .resolve_with_bounds_budgeted(&overlay, hint, self.budget)
            .map_err(|e| match e {
                // Post-pre-check Infeasible is numerical; mapped to
                // Unreachable for status parity with the rebuild oracle
                // (see the single-source counterpart above).
                LpError::Infeasible => FormulationError::Unreachable(self.dest_nodes[0]),
                other => FormulationError::Lp(other),
            })?;
        let sol = &out.solution;
        let period = sol.value(self.t_star);
        let m = platform.edge_count();
        let mut edge_load = vec![0.0; m];
        let mut dest_nodes: Vec<NodeId> = Vec::new();
        let mut dest_flows: Vec<Vec<f64>> = Vec::new();
        for (di, &d) in self.dest_nodes.iter().enumerate() {
            if active[di] && want_flows {
                let row: Vec<f64> = (0..m).map(|e| sol.value(self.x[di][e])).collect();
                for (e, load) in edge_load.iter_mut().enumerate() {
                    *load += row[e];
                }
                dest_nodes.push(d);
                dest_flows.push(row);
            } else {
                // Inactive destination (flows fixed to zero) or a solve
                // that skips extraction: accumulate without allocating.
                for (e, load) in edge_load.iter_mut().enumerate() {
                    *load += sol.value(self.x[di][e]);
                }
            }
        }
        let mut incoming_score = vec![0.0; nn];
        for node in platform.nodes() {
            let mut s = 0.0;
            for &e in platform.in_edges(node) {
                for x_row in &self.x {
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
            stats: MaskedStats {
                warm: out.stats.warm,
                solve: out.stats,
            },
        })
    }

    /// The crash basis of a solve (see [`MaskedFlowLp`]'s and the module
    /// docs): every `active` destination takes its unit from the instance's
    /// source — its injection there basic in the injection row — along the
    /// cheapest-path tree of the active edges, whose arc into each
    /// reachable node is basic in the destination's balance row there. An
    /// inactive destination has its skip variables basic in its two demand
    /// rows, and `T*` is basic in the busiest occupation row. The source
    /// reaches every active destination: the reachability pre-check serves
    /// each from earlier sources, which the source reaches in turn.
    fn crash(&self, active: &[bool], edge_active: &[bool]) -> Basis {
        let platform = &self.instance.platform;
        let source = self.instance.source;
        let tree = crash_tree(platform, source, edge_active);
        let mut basic: Vec<(usize, VarId)> = Vec::new();
        // Per edge: the messages it carries (scatter accounting).
        let mut load = vec![0.0; platform.edge_count()];
        let nn = platform.node_count();
        for (di, &d) in self.dest_nodes.iter().enumerate() {
            let injection = ms_injection_row(nn, di);
            if !active[di] {
                let (u, w) = self.dest_skips[di];
                basic.extend([(injection, u), (ms_balance_row(nn, di, d, d), w)]);
                continue;
            }
            let z = self.z[di][source.index()].expect("z exists for v != d");
            basic.push((injection, z));
            for v in platform.nodes() {
                if let Some(e) = tree.parent_edge[v.index()] {
                    basic.push((ms_balance_row(nn, di, d, v), self.x[di][e.index()]));
                }
            }
            for e in tree_path(platform, &tree, d) {
                load[e] += 1.0;
            }
        }
        basic.extend(busiest_port_row(platform, &self.port_rows, &load).map(|r| (r, self.t_star)));
        Basis::crash(&self.problem, basic)
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

/// The cheapest-path arborescence of the active sub-platform, rooted at the
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

/// The occupation row with the largest occupation `Σ cost(e)·load[e]`
/// (`None` on a platform without edges). With `T*` basic there, every other
/// occupation row keeps a non-negative slack. A port row's occupation is at
/// least that of each of its edges' own rows, so the port rows suffice.
fn busiest_port_row(
    platform: &Platform,
    port_rows: &[(Option<usize>, Option<usize>)],
    load: &[f64],
) -> Option<usize> {
    let mut busiest: Option<(f64, usize)> = None;
    for node in platform.nodes() {
        let (in_row, out_row) = port_rows[node.index()];
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
    busiest.map(|(_, row)| row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulations::{BroadcastEb, MulticastLb, MulticastMultiSourceUb, MulticastUb};
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
}
