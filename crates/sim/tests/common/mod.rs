//! Realized schedules of seeded generated instances, shared by the
//! integration tests of the replay.

use pm_core::formulations::{FlowSolution, MulticastLb, MulticastUb};
use pm_core::realize::{realize, Realization, SteadyStateSolution};
use pm_core::{realize_robust, RobustOptions};
use pm_platform::instances::MulticastInstance;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use pm_sched::schedule::PeriodicSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded reduced-scale instance of `class` at target density 0.5.
pub fn instance(class: PlatformClass, seed: u64) -> MulticastInstance {
    let topology = TiersLikeGenerator::reduced_scale(class, seed).generate();
    topology.sample_instance(0.5, &mut StdRng::seed_from_u64(seed))
}

/// The instance's Multicast-LB and Multicast-UB realizations, and the
/// schedule of its robust (f = 2) realization, which replays in redundant
/// mode.
pub fn realizations(instance: &MulticastInstance) -> (Vec<Realization>, PeriodicSchedule) {
    let steady_state = |flow: FlowSolution| {
        SteadyStateSolution::from_flow_solution(instance, &instance.targets, &flow, flow.period)
            .expect("rows align with targets")
    };
    let lb = steady_state(MulticastLb::new(instance).solve().expect("LB solves"));
    let ub = steady_state(MulticastUb::new(instance).solve().expect("UB solves"));
    let robust = realize_robust(instance, &lb, &RobustOptions::default()).expect("realizes");
    let realized = vec![
        realize(instance, &lb).expect("LB realizes"),
        realize(instance, &ub).expect("UB realizes"),
    ];
    (realized, robust.schedule)
}
