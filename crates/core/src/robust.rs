//! Robust redundant-tree realizations: trading steady-state throughput for
//! delivery guarantees on unreliable platforms.
//!
//! [`crate::realize`] certifies the *fastest* periodic schedule supporting a
//! steady-state claim; this module certifies the most *survivable* one. A
//! robust realization selects several multicast trees from the same
//! candidate pool and runs **all of them on every multicast**: each tree
//! carries a full copy of each message, and a target is served when any
//! copy arrives. Redundancy is driven by edge-disjointness:
//!
//! 1. greedy augmentation picks trees until every target is reached by
//!    [`RobustOptions::disjointness`] pairwise edge-disjoint delivery paths
//!    (capped by what the platform supports, measured by BFS max-flow:
//!    [`pm_platform::algo::edge_disjoint_paths`]); when the pool stalls,
//!    fresh MCPH trees are generated with already-used edges penalized,
//! 2. the achieved redundancy is *verified* by max-flow on the union of
//!    the selected trees' edges (and by the per-tree path witnesses that
//!    actually guarantee delivery — a mixed-tree flow path is not a
//!    deliverable copy),
//! 3. the period is costed honestly: every tree pays its full one-port
//!    load each period, plus an [`RobustOptions::ack_overhead`] fraction
//!    reserved for acknowledgement/retransmit slots,
//! 4. the one-port simulator replays the schedule fault-free, under the
//!    configured loss rate, and (for disjointness ≥ 2) under the total
//!    loss of every single union edge in turn — the survival claim is
//!    *measured*, not assumed.
//!
//! Because the fault draws are keyed by `(seed, edge, tree, msg)`
//! ([`pm_sim::FaultModel`]), copies of one message on different trees fail
//! independently even where the trees share an edge; the analytic floor
//! [`RobustRealization::expected_delivery`] is therefore exact under
//! i.i.d. loss, and the simulator's measured ratio tracks it.

use crate::exact::pack_trees_in;
use crate::heuristics::Mcph;
use crate::realize::{candidate_pool, RealizeError, SteadyStateSolution};
use pm_lp::{SolveContext, WarmStartCache};
use pm_platform::algo::edge_disjoint_paths_where;
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
use pm_sched::coloring::CommTask;
use pm_sched::load::OnePortLoads;
use pm_sched::schedule::PeriodicSchedule;
use pm_sched::tree::{MulticastTree, WeightedTreeSet};
use pm_sim::{FaultModel, SimReport, SimulationConfig, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Knobs of a robust realization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustOptions {
    /// Requested per-target count of pairwise edge-disjoint delivery paths
    /// (`f`). `1` degenerates to a single best tree; each target's
    /// requirement is capped by the max-flow the platform supports to it.
    pub disjointness: usize,
    /// Fraction of the period reserved for acknowledgement / retransmit
    /// slots (the period becomes `load × (1 + ack_overhead)`).
    pub ack_overhead: f64,
    /// Uniform i.i.d. loss rate of the under-loss verification replay.
    pub verify_loss: f64,
    /// Seed of the verification replays' fault draws.
    pub seed: u64,
    /// Horizon/warm-up of the verification replays (`redundant` and
    /// `faults` are set by the realizer).
    pub sim: SimulationConfig,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            disjointness: 2,
            ack_overhead: 0.05,
            verify_loss: 0.05,
            seed: 0xF417,
            sim: SimulationConfig::default(),
        }
    }
}

/// Per-target redundancy accounting of a robust realization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetRedundancy {
    /// The target.
    pub target: NodeId,
    /// Edge-disjoint paths the (masked) platform supports to this target —
    /// the ceiling of any redundancy scheme.
    pub capability: usize,
    /// The effective requirement: `min(options.disjointness, capability)`.
    pub required: usize,
    /// Pairwise edge-disjoint *per-tree delivery paths* achieved (the count
    /// that guarantees survival: each path is one tree's root→target path).
    pub disjoint_paths: usize,
    /// Max-flow on the union of the selected trees' edges (the ISSUE's
    /// verification measure; ≥ `disjoint_paths` since tree paths are a
    /// feasible flow).
    pub union_flow: usize,
}

/// A simulator-verified redundant realization. See the [module
/// docs](self) for the construction.
#[derive(Debug, Clone)]
pub struct RobustRealization {
    /// The options that produced it.
    pub options: RobustOptions,
    /// The selected trees, each at rate `1 / period`. Unlike a
    /// non-redundant set, the weights do not add up across trees: every
    /// tree carries a copy of *every* multicast, so the set's aggregate
    /// message rate is still one multicast per period.
    pub tree_set: WeightedTreeSet,
    /// Per-target redundancy accounting, in instance-target order.
    pub per_target: Vec<TargetRedundancy>,
    /// `min` over targets of the verified union max-flow.
    pub achieved_disjointness: usize,
    /// `min` over targets of the guaranteed per-tree disjoint paths.
    pub path_disjointness: usize,
    /// Throughput the *same pool* certifies without redundancy (packing LP,
    /// clamped to the solution's claim): the non-robust baseline whose gap
    /// to `robust_throughput` is the price of redundancy.
    pub baseline_throughput: f64,
    /// The robust steady-state throughput: `1 / period`.
    pub robust_throughput: f64,
    /// The robust period: union one-port load × `(1 + ack_overhead)`.
    pub period: f64,
    /// The periodic schedule executing every selected tree once per period.
    pub schedule: PeriodicSchedule,
    /// Fault-free replay of `schedule` (delivery ratio 1.0 by construction).
    pub fault_free: SimReport,
    /// Replay under uniform i.i.d. loss `options.verify_loss`.
    pub under_loss: SimReport,
    /// Whether the realization delivered 100% of multicasts under the total
    /// loss of each single union edge in turn (replayed edge by edge;
    /// guaranteed — and only checked — when `path_disjointness ≥ 2`).
    pub survives_single_edge_loss: bool,
}

impl RobustRealization {
    /// The analytic per-target delivery floor under uniform i.i.d. loss
    /// `loss`: `min_t 1 − Π_k (1 − Π_{e ∈ path_k(t)} (1 − loss))` over the
    /// selected trees covering `t`. Exact under the simulator's fault
    /// model, whose draws are independent per `(edge, tree, message)`.
    pub fn expected_delivery(&self, platform: &Platform, loss: f64) -> f64 {
        let mut floor = 1.0f64;
        for tr in &self.per_target {
            let mut miss_all = 1.0f64;
            for tree in self.tree_set.trees() {
                let Some(path) = tree_path(platform, tree, tr.target) else {
                    continue;
                };
                let arrive: f64 = path.iter().map(|_| 1.0 - loss).product();
                miss_all *= 1.0 - arrive;
            }
            floor = floor.min(1.0 - miss_all);
        }
        floor
    }

    /// Throughput given up for the redundancy:
    /// `1 − robust_throughput / baseline_throughput` (0 when the baseline
    /// carries no throughput).
    pub fn throughput_sacrifice(&self) -> f64 {
        if self.baseline_throughput > 0.0 {
            1.0 - self.robust_throughput / self.baseline_throughput
        } else {
            0.0
        }
    }
}

/// Realizes a steady-state solution as a redundant, simulator-verified
/// schedule on the fully enabled platform, its packing LP solved cold under
/// the default [`SolveContext`]. See the [module docs](self).
pub fn realize_robust(
    instance: &MulticastInstance,
    solution: &SteadyStateSolution,
    options: &RobustOptions,
) -> Result<RobustRealization, RealizeError> {
    let mask = NodeMask::full(instance.platform.node_count());
    realize_robust_masked(
        &SolveContext::default(),
        &mut WarmStartCache::with_capacity(0),
        instance,
        &mask,
        solution,
        &[],
        options,
    )
}

/// [`realize_robust`] under a node mask and with a seed tree pool (the
/// robust counterpart of [`crate::realize::realize_with_pool`], used by
/// [`crate::session::Session::re_realize_robust`]): seed trees and pool
/// candidates through disabled nodes are filtered out, and all max-flow
/// verification runs on the masked platform. The packing LP runs under
/// `ctx`, through `cache`.
pub fn realize_robust_masked(
    ctx: &SolveContext,
    cache: &mut WarmStartCache,
    instance: &MulticastInstance,
    mask: &NodeMask,
    solution: &SteadyStateSolution,
    seed_trees: &[MulticastTree],
    options: &RobustOptions,
) -> Result<RobustRealization, RealizeError> {
    let platform = &instance.platform;
    if options.disjointness == 0 {
        return Err(RealizeError::NotRealizable(
            "disjointness 0 requests no delivery path at all".to_string(),
        ));
    }
    if !(options.ack_overhead.is_finite() && options.ack_overhead >= 0.0) {
        return Err(RealizeError::NotRealizable(format!(
            "ack overhead {} is not finite and non-negative",
            options.ack_overhead
        )));
    }
    if !(0.0..1.0).contains(&options.verify_loss) {
        return Err(RealizeError::NotRealizable(format!(
            "verification loss rate {} is outside [0, 1)",
            options.verify_loss
        )));
    }
    let lp_period = solution.period();
    if !(lp_period.is_finite() && lp_period > 0.0) {
        return Err(RealizeError::NotRealizable(format!(
            "period {lp_period} is not finite and positive"
        )));
    }

    let tree_active =
        |tree: &MulticastTree| tree.edges().iter().all(|&e| mask.edge_active(platform, e));
    let (raw_pool, _rows) = candidate_pool(instance, solution, seed_trees)?;
    let mut pool: Vec<MulticastTree> = raw_pool.into_iter().filter(|t| tree_active(t)).collect();
    if pool.is_empty() {
        return Err(RealizeError::NotRealizable(
            "no candidate tree survives the node mask".to_string(),
        ));
    }

    // Per-target platform capability and effective requirement.
    let edge_ok = |e: EdgeId| mask.edge_active(platform, e);
    let capability: Vec<usize> = instance
        .targets
        .iter()
        .map(|&t| edge_disjoint_paths_where(platform, instance.source, t, &edge_ok))
        .collect();
    let required: Vec<usize> = capability
        .iter()
        .map(|&c| options.disjointness.min(c).max(1))
        .collect();

    // Greedy disjoint-tree augmentation: start from the best single tree,
    // add the tree that most reduces the total disjointness deficiency,
    // generating penalized MCPH trees when the pool stalls.
    let start = pool
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.period(platform)
                .partial_cmp(&b.period(platform))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .expect("pool is non-empty");
    let mut selected: Vec<usize> = vec![start];
    let deficiency = |selected: &[usize], pool: &[MulticastTree]| -> usize {
        instance
            .targets
            .iter()
            .zip(&required)
            .map(|(&t, &req)| {
                let d = disjoint_tree_paths(platform, pool, selected, t);
                req.saturating_sub(d)
            })
            .sum()
    };
    let mut current = deficiency(&selected, &pool);
    let max_rounds = 2 * options.disjointness + 6;
    for _ in 0..max_rounds {
        if current == 0 {
            break;
        }
        // Best pool candidate: smallest resulting deficiency, then smallest
        // period, then smallest index — all deterministic.
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, tree) in pool.iter().enumerate() {
            if selected.contains(&i) {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(i);
            let d = deficiency(&trial, &pool);
            if d >= current {
                continue;
            }
            let period = tree.period(platform);
            let better = match best {
                None => true,
                Some((bd, _, bp)) => d < bd || (d == bd && period < bp - 1e-12),
            };
            if better {
                best = Some((d, i, period));
            }
        }
        if let Some((d, i, _)) = best {
            selected.push(i);
            current = d;
            continue;
        }
        // The pool stalled: price a fresh MCPH tree away from used edges.
        let mut uses = vec![0usize; platform.edge_count()];
        for &k in &selected {
            for &e in pool[k].edges() {
                uses[e.index()] += 1;
            }
        }
        let costs: Vec<f64> = platform
            .edge_ids()
            .map(|e| {
                if !mask.edge_active(platform, e) {
                    f64::INFINITY
                } else {
                    platform.cost(e) * (1.0 + 8.0 * uses[e.index()] as f64)
                }
            })
            .collect();
        let Ok(tree) = Mcph.build_tree_with_costs(instance, costs) else {
            break;
        };
        if pool.iter().any(|p| p.edges() == tree.edges()) {
            break; // nothing new to offer: the deficiency is structural
        }
        pool.push(tree);
        let mut trial = selected.clone();
        trial.push(pool.len() - 1);
        let d = deficiency(&trial, &pool);
        if d < current {
            selected = trial;
            current = d;
        } else {
            pool.pop();
            break;
        }
    }

    // Verify the redundancy: per-tree path witnesses + union max-flow.
    let union: BTreeSet<u32> = selected
        .iter()
        .flat_map(|&k| pool[k].edges().iter().map(|e| e.0))
        .collect();
    let union_ok = |e: EdgeId| union.contains(&e.0) && mask.edge_active(platform, e);
    let per_target: Vec<TargetRedundancy> = instance
        .targets
        .iter()
        .enumerate()
        .map(|(i, &t)| TargetRedundancy {
            target: t,
            capability: capability[i],
            required: required[i],
            disjoint_paths: disjoint_tree_paths(platform, &pool, &selected, t),
            union_flow: edge_disjoint_paths_where(platform, instance.source, t, &union_ok),
        })
        .collect();
    let achieved_disjointness = per_target.iter().map(|t| t.union_flow).min().unwrap_or(0);
    let path_disjointness = per_target
        .iter()
        .map(|t| t.disjoint_paths)
        .min()
        .unwrap_or(0);

    // Cost the redundant period: every tree pays its full one-port load
    // each period, plus the ack/retransmit reservation.
    let mut loads = OnePortLoads::new(platform.node_count());
    for &k in &selected {
        for &e in pool[k].edges() {
            let edge = platform.edge(e);
            loads.add_transfer(edge.src, edge.dst, edge.cost);
        }
    }
    let period = loads.max_load() * (1.0 + options.ack_overhead);
    if !(period.is_finite() && period > 0.0) {
        return Err(RealizeError::NotRealizable(
            "the selected trees carry no load".to_string(),
        ));
    }
    let robust_throughput = 1.0 / period;

    // Non-redundant baseline over the same pool, clamped like `realize`.
    let (_, packed) = pack_trees_in(ctx, cache, platform, &pool).map_err(RealizeError::Packing)?;
    let baseline_throughput = packed.min(1.0 / lp_period);

    let mut tree_set = WeightedTreeSet::new();
    let mut tasks: Vec<CommTask> = Vec::new();
    for (k, &idx) in selected.iter().enumerate() {
        let tree = pool[idx].clone();
        for &e in tree.edges() {
            let edge = platform.edge(e);
            tasks.push(CommTask {
                src: edge.src,
                dst: edge.dst,
                duration: edge.cost,
                tag: k,
            });
        }
        tree_set.push(tree, robust_throughput)?;
    }
    let schedule = PeriodicSchedule::from_comm_tasks(platform, &tasks, period, 1.0)?;
    schedule.validate(platform)?;

    // Simulator verification: fault-free, under loss, and (when the path
    // witnesses promise it) under every single union edge's total loss.
    let replay = |faults: Option<FaultModel>| {
        let sim = Simulator::new(SimulationConfig {
            faults,
            redundant: true,
            ..options.sim.clone()
        });
        sim.run_schedule_on(platform, mask, &schedule, &instance.targets)
            .map_err(|e| RealizeError::NotRealizable(e.to_string()))
    };
    let fault_free = replay(None)?;
    let under_loss = replay(Some(FaultModel::lossy(options.seed, options.verify_loss)))?;
    let mut survives = path_disjointness >= 2;
    if survives {
        for &e in &union {
            let model = FaultModel::default().with_edge_loss(EdgeId(e), 1.0);
            let report = replay(Some(model))?;
            if report.delivery_ratio < 1.0 {
                survives = false;
                break;
            }
        }
    }

    Ok(RobustRealization {
        options: options.clone(),
        tree_set,
        per_target,
        achieved_disjointness,
        path_disjointness,
        baseline_throughput,
        robust_throughput,
        period,
        schedule,
        fault_free,
        under_loss,
        survives_single_edge_loss: survives,
    })
}

/// The root→`target` path of `tree` as an edge list, if `tree` covers the
/// target (walking parent edges up from the target).
fn tree_path(platform: &Platform, tree: &MulticastTree, target: NodeId) -> Option<Vec<EdgeId>> {
    let mut path = Vec::new();
    let mut v = target;
    while v != tree.source {
        let e = tree.parent_edge(platform, v)?;
        path.push(e);
        v = platform.edge(e).src;
        if path.len() > platform.edge_count() {
            return None; // defensive: malformed tree
        }
    }
    Some(path)
}

/// The number of pairwise edge-disjoint root→`target` delivery paths among
/// the selected trees, counted greedily in selection order (a deterministic
/// lower bound — and the count that matters for delivery: each path is one
/// tree's copy route, so `d` disjoint paths survive any `d − 1` edge
/// failures).
fn disjoint_tree_paths(
    platform: &Platform,
    pool: &[MulticastTree],
    selected: &[usize],
    target: NodeId,
) -> usize {
    let mut used: BTreeSet<u32> = BTreeSet::new();
    let mut count = 0usize;
    for &k in selected {
        let Some(path) = tree_path(platform, &pool[k], target) else {
            continue;
        };
        if path.iter().any(|e| used.contains(&e.0)) {
            continue;
        }
        for e in &path {
            used.insert(e.0);
        }
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulations::MulticastLb;
    use pm_platform::graph::PlatformBuilder;
    use pm_platform::instances::{chain_instance, figure1_instance};

    /// A diamond with two fully edge-disjoint source→target routes.
    fn diamond_instance() -> MulticastInstance {
        let mut b = PlatformBuilder::new();
        let s = b.add_node();
        let a = b.add_node();
        let c = b.add_node();
        let t = b.add_node();
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(s, c, 1.2).unwrap();
        b.add_edge(a, t, 1.0).unwrap();
        b.add_edge(c, t, 1.2).unwrap();
        let g = b.build().unwrap();
        MulticastInstance::new(g, s, vec![t]).unwrap()
    }

    fn lb_solution(inst: &MulticastInstance) -> SteadyStateSolution {
        let lb = MulticastLb::new(inst).solve().unwrap();
        SteadyStateSolution::from_flow_solution(inst, &inst.targets, &lb, lb.period).unwrap()
    }

    #[test]
    fn diamond_reaches_two_disjoint_paths_and_survives_edge_death() {
        let inst = diamond_instance();
        let solution = lb_solution(&inst);
        let robust = realize_robust(&inst, &solution, &RobustOptions::default()).unwrap();
        assert_eq!(robust.path_disjointness, 2);
        assert!(robust.achieved_disjointness >= 2);
        assert!(robust.survives_single_edge_loss);
        assert_eq!(robust.fault_free.delivery_ratio, 1.0);
        assert_eq!(robust.fault_free.one_port_violations, 0);
        // Redundancy costs throughput against the non-redundant baseline.
        assert!(robust.robust_throughput <= robust.baseline_throughput + 1e-9);
        // The measured ratio under 5% loss beats the single-tree floor.
        assert!(robust.under_loss.delivery_ratio > 0.9);
        let floor = robust.expected_delivery(&inst.platform, robust.options.verify_loss);
        assert!(
            robust.under_loss.delivery_ratio >= floor - 0.05,
            "measured {} vs floor {floor}",
            robust.under_loss.delivery_ratio
        );
    }

    #[test]
    fn f1_degenerates_to_the_best_single_tree() {
        let inst = diamond_instance();
        let solution = lb_solution(&inst);
        let options = RobustOptions {
            disjointness: 1,
            ack_overhead: 0.0,
            ..RobustOptions::default()
        };
        let robust = realize_robust(&inst, &solution, &options).unwrap();
        assert_eq!(robust.tree_set.len(), 1);
        assert!(!robust.survives_single_edge_loss);
        // One tree at zero overhead realizes that tree's own period.
        let tree_period = robust.tree_set.trees()[0].period(&inst.platform);
        assert!((robust.period - tree_period).abs() < 1e-9);
    }

    #[test]
    fn requirement_is_capped_by_the_platform_capability() {
        // A chain has exactly one path: requesting f=3 must cap at 1, not
        // loop or fail.
        let inst = chain_instance(4, 0.5);
        let solution = lb_solution(&inst);
        let options = RobustOptions {
            disjointness: 3,
            ..RobustOptions::default()
        };
        let robust = realize_robust(&inst, &solution, &options).unwrap();
        assert_eq!(robust.per_target[0].capability, 1);
        assert_eq!(robust.per_target[0].required, 1);
        assert_eq!(robust.path_disjointness, 1);
        assert!(!robust.survives_single_edge_loss);
    }

    #[test]
    fn figure1_f2_is_verified_by_max_flow_and_survival_replay() {
        let inst = figure1_instance();
        let solution = lb_solution(&inst);
        let options = RobustOptions {
            sim: SimulationConfig {
                horizon: 60,
                warmup: 6,
                ..SimulationConfig::default()
            },
            ..RobustOptions::default()
        };
        let robust = realize_robust(&inst, &solution, &options).unwrap();
        for tr in &robust.per_target {
            assert!(
                tr.disjoint_paths >= tr.required,
                "target {} got {} of {} disjoint paths",
                tr.target,
                tr.disjoint_paths,
                tr.required
            );
            assert!(tr.union_flow >= tr.disjoint_paths);
        }
        if robust.path_disjointness >= 2 {
            assert!(robust.survives_single_edge_loss);
        }
        assert_eq!(robust.fault_free.delivery_ratio, 1.0);
        assert_eq!(robust.fault_free.one_port_violations, 0);
    }

    #[test]
    fn bad_options_are_rejected() {
        let inst = diamond_instance();
        let solution = lb_solution(&inst);
        for options in [
            RobustOptions {
                disjointness: 0,
                ..RobustOptions::default()
            },
            RobustOptions {
                ack_overhead: -0.5,
                ..RobustOptions::default()
            },
            RobustOptions {
                verify_loss: 1.0,
                ..RobustOptions::default()
            },
        ] {
            assert!(matches!(
                realize_robust(&inst, &solution, &options),
                Err(RealizeError::NotRealizable(_))
            ));
        }
    }
}
