//! Micro-benchmarks of the heuristics on fixed generated platforms. This is
//! the quantitative backing of two claims:
//!
//! * the paper's remark (Section 7) that MCPH is much cheaper to run than
//!   the LP-based heuristics while achieving a comparable period, and
//! * this repository's masked-formulation design: candidate sub-platform
//!   solves warm-started from a neighbouring mask's basis cost a few
//!   dual-pass pivots, while the same solves run cold pay a full phase
//!   1 + 2 — the difference that makes the big-class and paper-scale greedy
//!   loops affordable at all.

use criterion::{criterion_group, criterion_main, Criterion};
use pm_core::heuristics::{
    AugmentedMulticast, AugmentedSources, Mcph, ReducedBroadcast, ThroughputHeuristic,
};
use pm_core::masked::MaskedFlowLp;
use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_platform::graph::NodeId;
use pm_platform::instances::{figure1_instance, MulticastInstance};
use pm_platform::mask::NodeMask;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sample(class: PlatformClass, paper_scale: bool, seed: u64, density: f64) -> MulticastInstance {
    let mut generator = if paper_scale {
        TiersLikeGenerator::paper_scale(class, seed)
    } else {
        TiersLikeGenerator::reduced_scale(class, seed)
    };
    let topo = generator.generate();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17));
    topo.sample_instance(density, &mut rng)
}

fn bench_heuristics(c: &mut Criterion) {
    let figure1 = figure1_instance();
    let tiers_small = sample(PlatformClass::Small, false, 5, 0.5);
    let tiers_big = sample(PlatformClass::Big, false, 5, 0.5);

    let mut group = c.benchmark_group("heuristics");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, inst) in [("figure1", &figure1), ("tiers_small", &tiers_small)] {
        group.bench_function(format!("mcph/{label}"), |b| {
            b.iter(|| Mcph.run(inst).unwrap())
        });
        group.bench_function(format!("augmented_sources/{label}"), |b| {
            b.iter(|| AugmentedSources::default().run(inst).unwrap())
        });
    }
    group.bench_function("augmented_multicast/figure1", |b| {
        b.iter(|| AugmentedMulticast.run(&figure1).unwrap())
    });
    group.bench_function("reduced_broadcast/figure1", |b| {
        b.iter(|| ReducedBroadcast.run(&figure1).unwrap())
    });
    // Big-class greedy runs: dozens of broadcast LPs each, affordable only
    // because the masked candidate solves warm-start (PR 2's rebuild-based
    // loops took minutes per big instance).
    group.bench_function("reduced_broadcast/tiers_big", |b| {
        b.iter(|| ReducedBroadcast.run(&tiers_big).unwrap())
    });
    group.bench_function("augmented_multicast/tiers_big", |b| {
        b.iter(|| AugmentedMulticast.run(&tiers_big).unwrap())
    });
    group.finish();

    // Cold vs masked-warm candidate solves: the quantity the warm-start
    // design actually buys. One representative candidate (remove the
    // highest-id non-target LAN node) is solved from scratch and from the
    // full-platform basis.
    let mut group = c.benchmark_group("masked_candidate");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let paper_small = sample(PlatformClass::Small, true, 7, 0.5);
    for (label, inst) in [
        ("tiers_big", &tiers_big),
        ("paper_scale_smoke", &paper_small),
    ] {
        let template = MaskedFlowLp::broadcast_eb(inst);
        let n = inst.platform.node_count();
        let full = NodeMask::full(n);
        let base = template.solve(&full, None).unwrap();
        let candidate = (0..n as u32)
            .rev()
            .map(NodeId)
            .find(|&v| {
                v != inst.source
                    && !inst.is_target(v)
                    && template.solve(&full.without(v), None).is_ok()
            })
            .expect("some removable node keeps the platform connected");
        let mask = full.without(candidate);
        group.bench_function(format!("cold/{label}"), |b| {
            b.iter(|| template.solve(&mask, None).unwrap())
        });
        group.bench_function(format!("masked_warm/{label}"), |b| {
            b.iter(|| template.solve(&mask, Some(&base.basis)).unwrap())
        });
    }
    group.finish();

    // The session group backs the drifting-platform acceptance criterion:
    // after a single edge-cost edit, an incremental `Session::solve` (in-place
    // coefficient rewrite + warm basis) must be >= 3x faster than the
    // equivalent cold one-shot rebuild (fresh templates, cold phase 1 + 2).
    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, inst) in [("tiers_small", &tiers_small), ("tiers_big", &tiers_big)] {
        let edge = inst.platform.edge_ids().next().expect("platform has edges");
        let base_cost = inst.platform.cost(edge);
        group.bench_function(format!("one_shot_cold/{label}"), |b| {
            let mut flip = false;
            b.iter(|| {
                // The same single-edge drift the incremental path absorbs,
                // paid as a full rebuild: new session, fresh template, cold
                // solve.
                flip = !flip;
                let mut session = Session::new(inst.clone());
                session
                    .set_edge_cost(edge, if flip { base_cost * 1.25 } else { base_cost })
                    .unwrap();
                session.solve(HeuristicKind::Broadcast).unwrap()
            })
        });
        group.bench_function(format!("incremental_edge_edit/{label}"), |b| {
            let mut session = Session::new(inst.clone());
            session.solve(HeuristicKind::Broadcast).unwrap();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                session
                    .set_edge_cost(edge, if flip { base_cost * 1.25 } else { base_cost })
                    .unwrap();
                session.solve(HeuristicKind::Broadcast).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_heuristics);
criterion_main!(benches);
