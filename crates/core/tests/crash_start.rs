//! Hint-less solves of the masked templates start from the shortest-path
//! crash basis (`pm_core::masked`): they run no phase 1 at all, finish on
//! their first attempt and count as cold, and they reach the period and
//! the cost-weighted traffic of the rebuild oracle (`pm_core::formulations`
//! on the restricted instance), whose LPs start from the all-artificial
//! basis. The joint multi-commodity template crash-starts the same way and
//! matches itself solved by the dense engine, which ignores crash bases. A
//! hint the install rejects falls back to the crash, not to phase 1.

use pm_core::formulations::{
    BroadcastEb, FlowSolution, FormulationError, MultiSourceSolution, MulticastLb,
    MulticastMultiSourceUb, MulticastUb,
};
use pm_core::masked::{MaskedFlowLp, MaskedMultiSourceUb};
use pm_core::multi::{Commodity, CommoditySet, MultiFlow};
use pm_lp::{RecoveryRung, SolveContext, SolveStats, SolverKind, WarmStatus};
use pm_platform::graph::{NodeId, Platform};
use pm_platform::instances::{figure1_instance, figure5_instance, MulticastInstance};
use pm_platform::mask::NodeMask;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Agreement with the oracle, relative to the magnitude (both sides solve
/// the same LP over different standard forms).
const TOL: f64 = 1e-9;

fn close(label: &str, what: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() <= TOL * want.abs().max(1.0),
        "{label}: {what} {got} vs oracle {want}"
    );
}

/// A hint-less solve started from the crash: no phase 1, one attempt, cold.
fn assert_crash_started(label: &str, stats: &SolveStats) {
    assert_eq!(stats.phase1_pivots, 0, "{label}: phase 1 ran");
    assert_eq!(stats.attempts, 1, "{label}: attempts");
    assert_eq!(stats.rung, RecoveryRung::First, "{label}: rung");
    assert_eq!(stats.warm, WarmStatus::None, "{label}: warm status");
}

/// The secondary objective's value: cost-weighted traffic of every
/// commodity, plus the cost-weighted loads `n_e` under max accounting.
fn flow_traffic(platform: &Platform, flow: &FlowSolution, max_rule: bool) -> f64 {
    platform
        .edges()
        .map(|(e, edge)| {
            let x: f64 = flow.target_flows.iter().map(|row| row[e.index()]).sum();
            let n = if max_rule {
                flow.edge_load[e.index()]
            } else {
                0.0
            };
            edge.cost * (x + n)
        })
        .sum()
}

fn multi_traffic(platform: &Platform, sol: &MultiSourceSolution) -> f64 {
    platform
        .edges()
        .map(|(e, edge)| edge.cost * sol.edge_load[e.index()])
        .sum()
}

/// The Figure 1 and Figure 5 instances and seeded small-class platforms.
fn instances() -> Vec<(String, MulticastInstance)> {
    let mut out = vec![
        ("figure 1".to_string(), figure1_instance()),
        ("figure 5".to_string(), figure5_instance(3)),
    ];
    for (seed, density) in [(0u64, 0.25), (1, 0.5), (2, 1.0)] {
        let topology = TiersLikeGenerator::reduced_scale(PlatformClass::Small, seed).generate();
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = topology.sample_instance(density, &mut rng);
        out.push((format!("small, seed {seed}"), inst));
    }
    out
}

/// The full mask, then masks deactivating one or two non-target nodes
/// that leave every active node reachable (so every template solves).
fn masks(inst: &MulticastInstance) -> Vec<NodeMask> {
    let n = inst.platform.node_count();
    let connected = |mask: &NodeMask| {
        let seen = mask.reachable_from(&inst.platform, inst.source);
        mask.iter().all(|v| seen[v.index()])
    };
    let full = NodeMask::full(n);
    let mut out = vec![full.clone()];
    let relays: Vec<NodeId> = inst
        .platform
        .nodes()
        .filter(|&v| v != inst.source && !inst.is_target(v))
        .filter(|&v| connected(&full.without(v)))
        .take(2)
        .collect();
    out.extend(relays.iter().map(|&v| full.without(v)));
    if let [a, b] = relays[..] {
        let both = full.without(a).without(b);
        if connected(&both) {
            out.push(both);
        }
    }
    out
}

#[test]
fn hintless_template_solves_skip_phase_1_and_match_the_oracle() {
    let mut masked_solves = 0;
    for (name, inst) in instances() {
        for mask in masks(&inst) {
            let label = format!("{name}, {} active nodes", mask.active_count());
            let sub = inst.restrict_to(&mask.to_nodes()).unwrap();
            let flows: [(
                &str,
                MaskedFlowLp,
                Result<FlowSolution, FormulationError>,
                bool,
            ); 3] = [
                (
                    "Broadcast-EB",
                    MaskedFlowLp::broadcast_eb(&inst),
                    BroadcastEb::new(&sub).solve(),
                    true,
                ),
                (
                    "Multicast-LB",
                    MaskedFlowLp::multicast_lb(&inst),
                    MulticastLb::new(&sub).solve(),
                    true,
                ),
                (
                    "Multicast-UB",
                    MaskedFlowLp::multicast_ub(&inst),
                    MulticastUb::new(&sub).solve(),
                    false,
                ),
            ];
            for (kind, template, oracle, max_rule) in flows {
                let label = format!("{label}, {kind}");
                let out = template.solve(&mask, None).unwrap();
                let oracle = oracle.unwrap();
                assert_crash_started(&label, &out.stats);
                close(&label, "period", out.flow.period, oracle.period);
                close(
                    &label,
                    "traffic",
                    flow_traffic(&inst.platform, &out.flow, max_rule),
                    flow_traffic(&sub.platform, &oracle, max_rule),
                );
            }

            // Multi-source: the source alone, then a relay (or, without
            // one, a target) promoted to a secondary source.
            let (_, to_sub, _) = inst.platform.induced_subgraph(&mask.to_nodes());
            let promoted = mask
                .iter()
                .filter(|&v| v != inst.source)
                .min_by_key(|&v| (inst.is_target(v), v));
            let template = MaskedMultiSourceUb::new(&inst);
            let mut selections = vec![vec![inst.source]];
            selections.extend(promoted.map(|p| vec![inst.source, p]));
            for sources in selections {
                let label = format!("{label}, MulticastMultiSource-UB from {sources:?}");
                let out = template.solve(&mask, &sources, None).unwrap();
                let sub_sources = sources.iter().map(|v| to_sub[v]).collect();
                let oracle = MulticastMultiSourceUb::new(&sub, sub_sources)
                    .unwrap()
                    .solve()
                    .unwrap();
                assert_crash_started(&label, &out.stats);
                close(&label, "period", out.solution.period, oracle.period);
                close(
                    &label,
                    "traffic",
                    multi_traffic(&inst.platform, &out.solution),
                    multi_traffic(&sub.platform, &oracle),
                );
            }
            masked_solves += usize::from(mask.active_count() < inst.platform.node_count());
        }
    }
    assert!(
        masked_solves >= 4,
        "too few deactivating masks: {masked_solves}"
    );
}

/// The joint template's secondary objective: the cost-weighted traffic of
/// every commodity, flows and max-accounting loads, weighted by its demand.
fn joint_traffic(set: &CommoditySet, flow: &MultiFlow) -> f64 {
    let weighted = set.commodities().iter().zip(&flow.flows);
    weighted
        .map(|(commodity, unit)| commodity.demand * flow_traffic(set.platform(), unit, true))
        .sum()
}

#[test]
fn hintless_joint_solves_skip_phase_1_and_match_the_dense_engine() {
    let dense = SolveContext {
        engine: SolverKind::Dense,
        ..SolveContext::default()
    };
    let mut relay_masks = 0;
    for seed in [0u64, 1, 2] {
        let topology = TiersLikeGenerator::reduced_scale(PlatformClass::Small, seed).generate();
        let platform = &topology.platform;
        for k in [2, 4, 8] {
            // Commodities sampled like a `fig11 --multi` cell, with demands
            // 1, 2, 3, 4, 1, ... so the blocks weigh differently.
            let mut rng = StdRng::seed_from_u64(seed);
            let commodities: Vec<Commodity> = (0..k)
                .map(|c| {
                    let inst = topology.sample_instance(0.5, &mut rng);
                    Commodity {
                        source: inst.source,
                        targets: inst.targets,
                        demand: (1 + c % 4) as f64,
                    }
                })
                .collect();
            let set = CommoditySet::new(platform.clone(), commodities).unwrap();
            // The full mask, then the first relay (no commodity's source or
            // target) whose removal leaves every commodity connected.
            let full = NodeMask::full(platform.node_count());
            let connected = |mask: &NodeMask| {
                set.commodities().iter().all(|c| {
                    let seen = mask.reachable_from(platform, c.source);
                    c.targets.iter().all(|t| seen[t.index()])
                })
            };
            let endpoint = |v: NodeId| {
                let mut ends = set.commodities().iter();
                ends.any(|c| c.source == v || c.targets.contains(&v))
            };
            let relay = platform
                .nodes()
                .filter(|&v| !endpoint(v))
                .map(|v| full.without(v))
                .find(connected);
            relay_masks += usize::from(relay.is_some());
            for mask in std::iter::once(full.clone()).chain(relay) {
                let label = format!("seed {seed}, k = {k}, {} active", mask.active_count());
                let mut template = MaskedFlowLp::joint(set.clone());
                let out = template.solve_multi(&mask, None).unwrap();
                assert_crash_started(&label, &out.stats);
                template.set_context(dense.clone());
                let oracle = template.solve_multi(&mask, None).unwrap();
                close(&label, "period", out.period, oracle.period);
                close(
                    &label,
                    "traffic",
                    joint_traffic(&set, &out),
                    joint_traffic(&set, &oracle),
                );
            }
        }
    }
    assert!(relay_masks >= 3, "too few relay masks: {relay_masks}");
}

#[test]
fn a_rejected_hint_falls_back_to_the_crash() {
    // Raise the cost of one loaded edge fifty-fold: the old optimum's `T*`
    // no longer covers that edge's ports, so the old basis installs primal
    // infeasible and is rejected — and the crash starts the solve.
    let inst = figure1_instance();
    let full = NodeMask::full(inst.platform.node_count());
    let base_template = MaskedFlowLp::multicast_ub(&inst);
    let base = base_template.solve(&full, None).unwrap();
    let mut rejected = 0;
    for (e, edge) in inst.platform.edges() {
        if base.flow.edge_load[e.index()] <= 1e-9 {
            continue;
        }
        let mut template = base_template.clone();
        template.set_edge_cost(e, edge.cost * 50.0);
        let out = template.solve(&full, Some(&base.basis)).unwrap();
        if out.stats.warm != WarmStatus::Miss {
            continue;
        }
        rejected += 1;
        let label = format!("edge {e:?} cost x50");
        assert_eq!(out.stats.phase1_pivots, 0, "{label}: phase 1 ran");
        assert_eq!(out.stats.attempts, 1, "{label}");
        let mut drifted = inst.clone();
        drifted.platform.set_cost(e, edge.cost * 50.0).unwrap();
        let oracle = MulticastUb::new(&drifted).solve().unwrap();
        close(&label, "period", out.flow.period, oracle.period);
    }
    assert!(rejected > 0, "no edit made the install reject the hint");
}
