//! Reference check of the greedy heuristics of Section 5.2 (Figures 6–8):
//! textbook loops written on the public masked API, which solve every
//! candidate without a hint in score order until the first one that does
//! not degrade the period, must end on the same node or source set as
//! `ReducedBroadcast`, `AugmentedMulticast` and `AugmentedSources`, at the
//! same period. A hint-less solve is cold — the template starts it from its
//! shortest-path crash basis, never from another candidate's optimum — so
//! the reference loops share no warm-start history with the heuristics.

use pm_core::formulations::FormulationError;
use pm_core::heuristics::{
    AugmentedMulticast, AugmentedSources, ReducedBroadcast, RunOptions, ThroughputHeuristic,
};
use pm_core::masked::{MaskedFlowLp, MaskedMultiSourceUb};
use pm_platform::graph::NodeId;
use pm_platform::instances::{figure1_instance, figure5_instance, MulticastInstance};
use pm_platform::mask::NodeMask;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A candidate is accepted when its period is at most the best one so far
/// plus this slack, the rule the heuristics apply.
const ACCEPT: f64 = 1e-9;

/// Period agreement between a heuristic and its reference loop.
const TOL: f64 = 1e-9;

/// The final selection (sorted) and period of a greedy run.
#[derive(Debug)]
struct Outcome {
    selected: Vec<NodeId>,
    period: f64,
}

impl Outcome {
    fn new(mut selected: Vec<NodeId>, period: f64) -> Self {
        selected.sort();
        Outcome { selected, period }
    }
}

/// `REDUCED BROADCAST`: drop the non-target node with the least incoming
/// broadcast traffic, as long as the broadcast period does not degrade.
fn reference_reduced_broadcast(inst: &MulticastInstance) -> Outcome {
    let platform = &inst.platform;
    let template = MaskedFlowLp::broadcast_eb(inst);
    let mut mask = NodeMask::full(platform.node_count());
    let mut current = match template.solve(&mask, None) {
        Ok(out) => out.flow,
        Err(FormulationError::Unreachable(_)) => {
            return Outcome::new(mask.to_nodes(), f64::INFINITY)
        }
        Err(e) => panic!("broadcast on the full platform: {e}"),
    };
    let mut best = current.period;
    loop {
        let mut candidates: Vec<(f64, NodeId)> = mask
            .iter()
            .filter(|&v| v != inst.source && !inst.is_target(v))
            .map(|v| (current.incoming_flow_score(platform, v), v))
            .collect();
        candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // `best` is finite, so an unreachable candidate always degrades it.
        let accepted = candidates.iter().find_map(|&(_, v)| {
            let out = template.solve(&mask.without(v), None).ok()?;
            (out.flow.period <= best + ACCEPT).then_some((v, out.flow))
        });
        let Some((v, flow)) = accepted else { break };
        mask.remove(v);
        best = best.min(flow.period);
        current = flow;
    }
    Outcome::new(mask.to_nodes(), best)
}

/// `AUGMENTED MULTICAST`: from the source and the targets, add the node
/// with the most incoming `Multicast-LB` traffic, as long as the broadcast
/// period does not degrade. An unreachable sub-platform has period +∞,
/// which does not degrade an infinite best.
fn reference_augmented_multicast(inst: &MulticastInstance) -> Outcome {
    let platform = &inst.platform;
    let n = platform.node_count();
    let template = MaskedFlowLp::broadcast_eb(inst);
    let period_on = |mask: &NodeMask| match template.solve(mask, None) {
        Ok(out) => Some(out.flow.period),
        Err(FormulationError::Unreachable(_)) => Some(f64::INFINITY),
        Err(_) => None,
    };
    let lb = MaskedFlowLp::multicast_lb(inst)
        .solve(&NodeMask::full(n), None)
        .expect("Multicast-LB on the full platform")
        .flow;
    let mut candidates: Vec<(f64, NodeId)> = platform
        .nodes()
        .filter(|&v| v != inst.source && !inst.is_target(v))
        .map(|v| (lb.incoming_flow_score(platform, v), v))
        .collect();
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    let mut mask = NodeMask::from_nodes(
        n,
        std::iter::once(inst.source).chain(inst.targets.iter().copied()),
    );
    let mut best = period_on(&mask).expect("broadcast on the restricted platform");
    loop {
        let accepted = candidates
            .iter()
            .filter(|&&(_, v)| !mask.contains(v))
            .find_map(|&(_, v)| {
                let period = period_on(&mask.with(v))?;
                (period <= best + ACCEPT).then_some((v, period))
            });
        let Some((v, period)) = accepted else { break };
        mask.insert(v);
        best = best.min(period);
    }
    Outcome::new(mask.to_nodes(), best)
}

/// `AUGMENTED SOURCES`: promote the node with the most incoming traffic in
/// the current multi-source solution to a secondary source, as long as the
/// period does not degrade.
fn reference_augmented_sources(inst: &MulticastInstance) -> Outcome {
    let template = MaskedMultiSourceUb::new(inst);
    let mask = NodeMask::full(inst.platform.node_count());
    let mut sources = vec![inst.source];
    let mut current = template
        .solve_opts(&mask, &sources, None, false)
        .expect("single-source multicast")
        .solution;
    let mut best = current.period;
    loop {
        let mut candidates: Vec<(f64, NodeId)> = mask
            .iter()
            .filter(|v| !sources.contains(v))
            .map(|v| (current.incoming_score[v.index()], v))
            .collect();
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let accepted = candidates.iter().find_map(|&(_, v)| {
            let mut extended = sources.clone();
            extended.push(v);
            let out = template.solve_opts(&mask, &extended, None, false).ok()?;
            (out.solution.period <= best + ACCEPT).then_some((v, out.solution))
        });
        let Some((v, solution)) = accepted else { break };
        sources.push(v);
        best = best.min(solution.period);
        current = solution;
    }
    Outcome::new(sources, best)
}

/// A reference loop: the instance in, the final selection and period out.
type Reference = fn(&MulticastInstance) -> Outcome;

/// Runs the three heuristics and their reference loops on `inst` and
/// asserts they agree.
fn check(label: &str, inst: &MulticastInstance) {
    let options = RunOptions {
        capture_steady_state: false,
        budget: None,
    };
    let cases: [(&dyn ThroughputHeuristic, Reference); 3] = [
        (&ReducedBroadcast, reference_reduced_broadcast),
        (&AugmentedMulticast, reference_augmented_multicast),
        (&AugmentedSources::default(), reference_augmented_sources),
    ];
    for (heuristic, reference) in cases {
        let got = heuristic.run_with(inst, options).unwrap();
        let got = Outcome::new(got.selected_nodes, got.period);
        let want = reference(inst);
        assert_eq!(
            got.selected,
            want.selected,
            "{label}, {}: final selection differs from the reference loop",
            heuristic.name()
        );
        let agree = if want.period.is_finite() {
            (got.period - want.period).abs() <= TOL
        } else {
            got.period.is_infinite()
        };
        assert!(
            agree,
            "{label}, {}: period {} vs reference {}",
            heuristic.name(),
            got.period,
            want.period
        );
    }
}

#[test]
fn paper_instances_match_the_reference_loops() {
    check("figure 1", &figure1_instance());
    for n in [2, 3, 5] {
        check(&format!("figure 5, n = {n}"), &figure5_instance(n));
    }
}

/// Three generated small-class platforms, one target density each: the
/// hint-less reference loops make an instance cost a fraction of a second
/// under the unoptimized test profile.
#[test]
fn small_class_instances_match_the_reference_loops() {
    for (seed, density) in [(0u64, 0.25), (1, 0.5), (2, 1.0)] {
        let topology = TiersLikeGenerator::reduced_scale(PlatformClass::Small, seed).generate();
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = topology.sample_instance(density, &mut rng);
        check(&format!("small, seed {seed}, density {density}"), &inst);
    }
}
