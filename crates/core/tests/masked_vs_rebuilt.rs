//! Differential test: on random platforms, the masked formulations
//! (`pm_core::masked`, bound-update re-solves of one full-platform template)
//! and the rebuild path (`MulticastInstance::restrict_to` + the
//! `pm_core::formulations` LPs on the re-indexed sub-platform) must agree on
//! status and period for all four formulations — including when the masked
//! solve warm-starts from the basis of a *different* mask, which exercises
//! the dual pass in `pm-lp`.

use pm_core::formulations::{
    BroadcastEb, FormulationError, MulticastLb, MulticastMultiSourceUb, MulticastUb,
};
use pm_core::masked::{MaskedFlowLp, MaskedMultiSourceUb};
use pm_platform::graph::{NodeId, PlatformBuilder};
use pm_platform::instances::MulticastInstance;
use pm_platform::mask::NodeMask;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Period tolerance: both paths solve the same LP (over different standard
/// forms), so the optima agree to solver accuracy.
const TOL: f64 = 1e-9;

struct Case {
    instance: MulticastInstance,
    mask: NodeMask,
    /// An ordered multi-source selection over active nodes, starting with
    /// the instance source.
    sources: Vec<NodeId>,
}

/// A random platform whose full graph reaches every node from node 0 (a
/// random arborescence plus random extra edges), a random target set, a
/// random mask keeping the source and targets, and a random source list.
/// Masked sub-platforms may well be disconnected — that is on purpose: the
/// status agreement (Ok vs Unreachable) is part of the contract.
fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4usize..9);
    let mut b = PlatformBuilder::new();
    let nodes = b.add_nodes(n);
    for i in 1..n {
        let parent = nodes[rng.gen_range(0..i)];
        let cost = rng.gen_range(0.2..2.0);
        b.add_edge(parent, nodes[i], cost).unwrap();
    }
    for _ in 0..rng.gen_range(n..3 * n) {
        let a = nodes[rng.gen_range(0..n)];
        let c = nodes[rng.gen_range(0..n)];
        if a != c {
            // Duplicate edges are rejected by the builder; just skip them.
            let _ = b.add_edge(a, c, rng.gen_range(0.2..2.0));
        }
    }
    let platform = b.build().unwrap();
    let source = nodes[0];
    let mut targets: Vec<NodeId> = nodes[1..]
        .iter()
        .copied()
        .filter(|_| rng.gen_range(0u32..100) < 40)
        .collect();
    if targets.is_empty() {
        targets.push(nodes[rng.gen_range(1..n)]);
    }
    let instance = MulticastInstance::new(platform, source, targets).unwrap();

    let mut mask = NodeMask::from_nodes(
        n,
        std::iter::once(source).chain(instance.targets.iter().copied()),
    );
    for &v in &nodes {
        if !mask.contains(v) && rng.gen_range(0u32..100) < 70 {
            mask.insert(v);
        }
    }

    let mut sources = vec![source];
    for _ in 0..rng.gen_range(0usize..3) {
        let v = nodes[rng.gen_range(0..n)];
        if mask.contains(v) && !sources.contains(&v) {
            sources.push(v);
        }
    }
    Case {
        instance,
        mask,
        sources,
    }
}

/// Statuses must agree by variant; periods within [`TOL`] when both solve.
fn check_agreement(
    label: &str,
    seed: u64,
    masked: Result<f64, &FormulationError>,
    rebuilt: Result<f64, &FormulationError>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match (masked, rebuilt) {
        (Ok(a), Ok(b)) => {
            prop_assert!(
                (a - b).abs() <= TOL,
                "{label} (seed {seed}): masked period {a} vs rebuilt {b}"
            );
        }
        (Err(FormulationError::Unreachable(_)), Err(FormulationError::Unreachable(_))) => {}
        (m, r) => {
            prop_assert!(
                false,
                "{label} (seed {seed}): masked {m:?} vs rebuilt {r:?}"
            );
        }
    }
    Ok(())
}

/// The rebuild path for a sub-platform: restrict the instance to the mask's
/// active nodes (the source and all targets are active by construction).
fn rebuilt_instance(case: &Case) -> MulticastInstance {
    // `restrict_to` renumbers nodes in `keep` order; reachability of the
    // targets is NOT validated here — the formulations report Unreachable
    // themselves, exactly like the masked pre-check.
    let keep = case.mask.to_nodes();
    let (platform, old_to_new, _) = case.instance.platform.induced_subgraph(&keep);
    MulticastInstance {
        platform,
        source: old_to_new[&case.instance.source],
        targets: case
            .instance
            .targets
            .iter()
            .map(|t| old_to_new[t])
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn masked_formulations_agree_with_rebuilds(seed in 0u64..1_000_000) {
        let case = random_case(seed);
        let inst = &case.instance;
        let sub = rebuilt_instance(&case);

        // Broadcast-EB.
        let masked = MaskedFlowLp::broadcast_eb(inst).solve(&case.mask, None);
        let rebuilt = BroadcastEb::new(&sub).solve();
        check_agreement(
            "broadcast_eb",
            seed,
            masked.as_ref().map(|o| o.flow.period),
            rebuilt.as_ref().map(|s| s.period),
        )?;

        // Multicast-LB.
        let masked = MaskedFlowLp::multicast_lb(inst).solve(&case.mask, None);
        let rebuilt = MulticastLb::new(&sub).solve();
        check_agreement(
            "multicast_lb",
            seed,
            masked.as_ref().map(|o| o.flow.period),
            rebuilt.as_ref().map(|s| s.period),
        )?;

        // Multicast-UB.
        let masked = MaskedFlowLp::multicast_ub(inst).solve(&case.mask, None);
        let rebuilt = MulticastUb::new(&sub).solve();
        check_agreement(
            "multicast_ub",
            seed,
            masked.as_ref().map(|o| o.flow.period),
            rebuilt.as_ref().map(|s| s.period),
        )?;

        // MulticastMultiSource-UB: the sources renumbered into the rebuilt
        // id space (keep order == sorted active nodes).
        let keep = case.mask.to_nodes();
        let mapped: Vec<NodeId> = case
            .sources
            .iter()
            .map(|s| NodeId(keep.binary_search(s).unwrap() as u32))
            .collect();
        let masked = MaskedMultiSourceUb::new(inst).solve(&case.mask, &case.sources, None);
        let rebuilt = MulticastMultiSourceUb::new(&sub, mapped)
            .expect("mapped source list is valid")
            .solve();
        check_agreement(
            "multisource_ub",
            seed,
            masked.as_ref().map(|o| o.solution.period),
            rebuilt.as_ref().map(|s| s.period),
        )?;
    }

    #[test]
    fn masked_warm_chains_agree_with_rebuilds(seed in 0u64..1_000_000) {
        // Solve the full platform first, then the masked sub-platform
        // warm-started from the full-platform basis: the dual pass must not
        // change the optimum.
        let case = random_case(seed);
        let inst = &case.instance;
        let sub = rebuilt_instance(&case);
        let full = NodeMask::full(inst.platform.node_count());

        let template = MaskedFlowLp::broadcast_eb(inst);
        let first = template.solve(&full, None).expect("full platform solves");
        let masked = template.solve(&case.mask, Some(&first.basis));
        let rebuilt = BroadcastEb::new(&sub).solve();
        check_agreement(
            "broadcast_eb_warm",
            seed,
            masked.as_ref().map(|o| o.flow.period),
            rebuilt.as_ref().map(|s| s.period),
        )?;

        let template = MaskedMultiSourceUb::new(inst);
        let first = template
            .solve(&full, &[inst.source], None)
            .expect("single-source multisource solves on the full platform");
        let keep = case.mask.to_nodes();
        let mapped: Vec<NodeId> = case
            .sources
            .iter()
            .map(|s| NodeId(keep.binary_search(s).unwrap() as u32))
            .collect();
        let masked = template.solve(&case.mask, &case.sources, Some(&first.basis));
        let rebuilt = MulticastMultiSourceUb::new(&sub, mapped)
            .expect("mapped source list is valid")
            .solve();
        check_agreement(
            "multisource_ub_warm",
            seed,
            masked.as_ref().map(|o| o.solution.period),
            rebuilt.as_ref().map(|s| s.period),
        )?;
    }
}
