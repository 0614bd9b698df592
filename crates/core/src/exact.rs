//! Exact optimum by explicit tree enumeration and tree-packing LP.
//!
//! Theorem 4 of the paper shows that the optimal steady-state throughput is
//! the value of the linear program that packs weighted multicast trees under
//! the one-port constraints, and that an optimal solution uses at most
//! `2|E|` trees. The number of multicast trees is finite but exponential, so
//! this module is an *exact baseline for small platforms only*: it enumerates
//! every minimal multicast tree and solves the packing LP over them.
//!
//! This is what lets the test-suite verify, on the paper's worked example
//! (Figure 1), that no single tree reaches the optimal throughput while a
//! weighted combination does — and more generally that every heuristic stays
//! between the LP lower bound and the exact optimum.

use crate::formulations::FormulationError;
use pm_lp::{LpError, LpProblem, Objective, Relation, SolveContext, VarId, WarmStartCache};
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use pm_sched::tree::{MulticastTree, WeightedTreeSet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Limits protecting the exponential enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnumerationLimits {
    /// Maximum number of relay subsets explored.
    pub max_subsets: usize,
    /// Maximum number of trees enumerated.
    pub max_trees: usize,
}

impl Default for EnumerationLimits {
    fn default() -> Self {
        EnumerationLimits {
            max_subsets: 1 << 16,
            max_trees: 200_000,
        }
    }
}

/// Errors of the exact solver.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactError {
    /// The enumeration limits were exceeded; the instance is too large for
    /// the exact baseline.
    TooLarge,
    /// No multicast tree exists (some target unreachable).
    NoTree,
    /// The packing LP failed.
    Formulation(FormulationError),
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::TooLarge => write!(f, "instance too large for exact tree enumeration"),
            ExactError::NoTree => write!(f, "no multicast tree exists"),
            ExactError::Formulation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExactError::Formulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormulationError> for ExactError {
    fn from(e: FormulationError) -> Self {
        ExactError::Formulation(e)
    }
}

/// Result of the exact tree-packing optimisation.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Optimal steady-state throughput (multicasts per time-unit).
    pub throughput: f64,
    /// Optimal period (`1 / throughput`).
    pub period: f64,
    /// An optimal weighted tree set achieving the throughput.
    pub tree_set: WeightedTreeSet,
    /// Number of minimal multicast trees enumerated.
    pub trees_enumerated: usize,
    /// The best *single* tree (largest throughput when used alone).
    pub best_single_tree: MulticastTree,
    /// Throughput of the best single tree.
    pub best_single_tree_throughput: f64,
}

/// Exact optimum of the series-of-multicasts problem on small platforms.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactTreePacking {
    /// Enumeration limits (see [`EnumerationLimits`]).
    pub limits: EnumerationLimits,
}

impl ExactTreePacking {
    /// Creates the solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enumerates every *minimal* multicast tree of the instance: trees
    /// rooted at the source whose leaves are all targets (relay nodes with no
    /// children never appear).
    pub fn enumerate_trees(
        &self,
        instance: &MulticastInstance,
    ) -> Result<Vec<MulticastTree>, ExactError> {
        let platform = &instance.platform;
        let relays: Vec<NodeId> = platform
            .nodes()
            .filter(|&v| v != instance.source && !instance.is_target(v))
            .collect();
        if relays.len() >= usize::BITS as usize - 1
            || (1usize << relays.len()) > self.limits.max_subsets
        {
            return Err(ExactError::TooLarge);
        }
        let target_set: HashSet<NodeId> = instance.targets.iter().copied().collect();
        let mut trees: Vec<MulticastTree> = Vec::new();

        for mask in 0..(1usize << relays.len()) {
            let mut nodes: Vec<NodeId> = vec![instance.source];
            nodes.extend(instance.targets.iter().copied());
            for (i, &r) in relays.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    nodes.push(r);
                }
            }
            let node_set: HashSet<NodeId> = nodes.iter().copied().collect();
            // Non-root nodes, each of which must pick one incoming edge from
            // inside the subset.
            let non_root: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&v| v != instance.source)
                .collect();
            let choices: Vec<Vec<EdgeId>> = non_root
                .iter()
                .map(|&v| {
                    platform
                        .in_edges(v)
                        .iter()
                        .copied()
                        .filter(|&e| node_set.contains(&platform.edge(e).src))
                        .collect::<Vec<_>>()
                })
                .collect();
            if choices.iter().any(|c| c.is_empty()) {
                continue; // some node of the subset cannot be reached at all
            }
            // Depth-first enumeration of parent assignments.
            let mut assignment: Vec<usize> = vec![0; non_root.len()];
            let mut depth = 0usize;
            loop {
                if depth == non_root.len() {
                    // Candidate assignment complete: check acyclicity /
                    // reachability from the root and relay minimality.
                    if let Some(tree) = self.finalize_assignment(
                        instance,
                        &non_root,
                        &choices,
                        &assignment,
                        &target_set,
                    ) {
                        trees.push(tree);
                        if trees.len() > self.limits.max_trees {
                            return Err(ExactError::TooLarge);
                        }
                    }
                    // Backtrack.
                    depth -= 1;
                    loop {
                        assignment[depth] += 1;
                        if assignment[depth] < choices[depth].len() {
                            depth += 1;
                            break;
                        }
                        assignment[depth] = 0;
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    if depth == 0 && assignment[0] == 0 {
                        break;
                    }
                    continue;
                }
                depth += 1;
            }
        }
        if trees.is_empty() {
            return Err(ExactError::NoTree);
        }
        Ok(trees)
    }

    fn finalize_assignment(
        &self,
        instance: &MulticastInstance,
        non_root: &[NodeId],
        choices: &[Vec<EdgeId>],
        assignment: &[usize],
        target_set: &HashSet<NodeId>,
    ) -> Option<MulticastTree> {
        let platform = &instance.platform;
        let edges: Vec<EdgeId> = non_root
            .iter()
            .enumerate()
            .map(|(i, _)| choices[i][assignment[i]])
            .collect();
        // Reachability from the root through the chosen parent edges.
        let mut parent = vec![None; platform.node_count()];
        for &e in &edges {
            parent[platform.edge(e).dst.index()] = Some(platform.edge(e).src);
        }
        let mut has_child = vec![false; platform.node_count()];
        for &v in non_root {
            // Walk up to the root, detecting cycles by bounding the walk.
            let mut cur = v;
            let mut steps = 0;
            loop {
                match parent[cur.index()] {
                    None => {
                        if cur != instance.source {
                            return None; // dangling chain (should not happen)
                        }
                        break;
                    }
                    Some(p) => {
                        cur = p;
                        steps += 1;
                        if steps > non_root.len() + 1 {
                            return None; // cycle
                        }
                    }
                }
            }
        }
        for &e in &edges {
            has_child[platform.edge(e).src.index()] = true;
        }
        // Minimality: every relay of the subset must have at least one child.
        for &v in non_root {
            if !target_set.contains(&v) && !has_child[v.index()] {
                return None;
            }
        }
        MulticastTree::new(instance, edges).ok()
    }

    /// Solves the tree-packing LP over the enumerated trees: maximize
    /// `Σ_k y_k` subject to the one-port send/receive constraints of every
    /// node (the LP of Theorem 4).
    pub fn solve(&self, instance: &MulticastInstance) -> Result<ExactSolution, ExactError> {
        let platform = &instance.platform;
        let trees = self.enumerate_trees(instance)?;

        // Best single tree while we are at it.
        let (best_idx, best_period) = trees
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.period(platform)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .expect("at least one tree");

        let (weights, throughput) = pack_trees(platform, &trees)
            .map_err(|e| ExactError::Formulation(FormulationError::Lp(e)))?;

        let mut tree_set = WeightedTreeSet::new();
        for (tree, &w) in trees.iter().zip(&weights) {
            if w > 1e-9 {
                tree_set
                    .push(tree.clone(), w)
                    .expect("LP weights are non-negative");
            }
        }
        Ok(ExactSolution {
            throughput,
            period: if throughput > 0.0 {
                1.0 / throughput
            } else {
                f64::INFINITY
            },
            tree_set,
            trees_enumerated: trees.len(),
            best_single_tree: trees[best_idx].clone(),
            best_single_tree_throughput: 1.0 / best_period,
        })
    }
}

/// Solves the tree-packing LP of Theorem 4 over an explicit tree list:
/// maximize `Σ_k y_k` subject to every node's one-port send and receive
/// budgets. Returns the optimal weights (aligned with `trees`, zeros
/// included) and the achieved throughput.
///
/// Shared by the exhaustive exact baseline (which enumerates *all* minimal
/// trees) and the realization pipeline of [`crate::realize`] (which packs
/// only the trees peeled from an LP flow). Solves cold under the default
/// [`SolveContext`]; a session's realizations pack under its own context
/// and warm-start cache.
pub fn pack_trees(
    platform: &Platform,
    trees: &[MulticastTree],
) -> Result<(Vec<f64>, f64), LpError> {
    pack_trees_in(
        &SolveContext::default(),
        &mut WarmStartCache::with_capacity(0),
        platform,
        trees,
    )
}

/// [`pack_trees`] with the packing LP solved under `ctx` through `cache`.
pub(crate) fn pack_trees_in(
    ctx: &SolveContext,
    cache: &mut WarmStartCache,
    platform: &Platform,
    trees: &[MulticastTree],
) -> Result<(Vec<f64>, f64), LpError> {
    let mut lp = LpProblem::new(Objective::Maximize);
    let y: Vec<VarId> = (0..trees.len())
        .map(|k| lp.add_var(&format!("y{k}")))
        .collect();
    for &v in &y {
        lp.set_objective_coeff(v, 1.0);
    }
    // Per-node send and receive constraints.
    for node in platform.nodes() {
        let mut send_terms: Vec<(VarId, f64)> = Vec::new();
        let mut recv_terms: Vec<(VarId, f64)> = Vec::new();
        for (k, tree) in trees.iter().enumerate() {
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
                send_terms.push((y[k], send));
            }
            if recv > 0.0 {
                recv_terms.push((y[k], recv));
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
    let weights: Vec<f64> = y.iter().map(|&v| sol.value(v).max(0.0)).collect();
    Ok((weights, sol.objective))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulations::{MulticastLb, MulticastUb};
    use pm_platform::instances::{chain_instance, figure1_instance, figure5_instance};

    #[test]
    fn chain_has_a_single_tree() {
        let inst = chain_instance(4, 2.0);
        let exact = ExactTreePacking::new().solve(&inst).unwrap();
        assert_eq!(exact.trees_enumerated, 1);
        assert!((exact.period - 2.0).abs() < 1e-6);
        assert!((exact.best_single_tree_throughput - 0.5).abs() < 1e-6);
    }

    #[test]
    fn figure5_exact_matches_the_lower_bound() {
        let inst = figure5_instance(3);
        let exact = ExactTreePacking::new().solve(&inst).unwrap();
        assert!((exact.period - 1.0).abs() < 1e-6);
        // Only one tree exists (source -> relay -> all targets).
        assert_eq!(exact.trees_enumerated, 1);
    }

    #[test]
    fn figure1_single_tree_cannot_reach_the_optimum_but_a_combination_can() {
        let inst = figure1_instance();
        let exact = ExactTreePacking::new().solve(&inst).unwrap();
        // The optimal steady-state throughput is exactly 1 multicast per
        // time-unit (Section 3)...
        assert!(
            (exact.throughput - 1.0).abs() < 1e-5,
            "throughput {}",
            exact.throughput
        );
        // ... no single tree achieves it ...
        assert!(exact.best_single_tree_throughput < 1.0 - 1e-6);
        // ... and the optimal combination is feasible under one-port.
        assert!(exact.tree_set.is_feasible(&inst.platform, 1e-6));
        assert!(exact.tree_set.len() >= 2);
    }

    #[test]
    fn exact_is_sandwiched_between_the_lp_bounds() {
        for inst in [
            figure1_instance(),
            figure5_instance(4),
            chain_instance(5, 1.0),
        ] {
            let lb = MulticastLb::new(&inst).solve().unwrap().period;
            let ub = MulticastUb::new(&inst).solve().unwrap().period;
            let exact = ExactTreePacking::new().solve(&inst).unwrap();
            assert!(
                lb <= exact.period + 1e-6,
                "LB {lb} > exact {}",
                exact.period
            );
            assert!(
                exact.period <= ub + 1e-6,
                "exact {} > UB {ub}",
                exact.period
            );
        }
    }

    #[test]
    fn enumeration_limits_are_enforced() {
        let inst = figure1_instance();
        let solver = ExactTreePacking {
            limits: EnumerationLimits {
                max_subsets: 4,
                max_trees: 10,
            },
        };
        assert_eq!(
            solver.enumerate_trees(&inst).unwrap_err(),
            ExactError::TooLarge
        );
    }
}
