//! The fault-free replay shortcut against the edge walk.
//!
//! Under a null fault model no copy is lost, so every target a tree covers
//! receives message `m` at `inject_m + arrival[target]`, and the replay
//! skips the per-edge walk. A model whose only loss (1.0) sits on an edge
//! no tree of the schedule uses can never fire either, but it is not null,
//! so it forces the walk. On realized small-class schedules the two replays
//! must report the same thing in every field, bit for bit: in the
//! rate-spread mode and in the redundant mode of the robust realizations,
//! with explicit and with inferred targets.

mod common;

use common::{instance, realizations};
use pm_platform::graph::{EdgeId, Platform};
use pm_platform::mask::NodeMask;
use pm_platform::topology::PlatformClass;
use pm_sched::schedule::PeriodicSchedule;
use pm_sim::{FaultModel, SimulationConfig, Simulator};

/// The first platform edge that no transfer of `schedule` crosses.
fn unused_edge(platform: &Platform, schedule: &PeriodicSchedule) -> Option<EdgeId> {
    platform.edge_ids().find(|&e| {
        let edge = platform.edge(e);
        schedule
            .slots
            .iter()
            .flat_map(|slot| &slot.transfers)
            .all(|t| (t.src, t.dst) != (edge.src, edge.dst))
    })
}

#[test]
fn null_model_replays_equal_the_edge_walk() {
    let mut compared = 0;
    for seed in 0..6u64 {
        let instance = instance(PlatformClass::Small, seed);
        let platform = &instance.platform;
        let mask = NodeMask::full(platform.node_count());
        let (realized, robust) = realizations(&instance);
        let schedules = realized.into_iter().map(|r| r.schedule).chain([robust]);
        for schedule in schedules {
            let dead = unused_edge(platform, &schedule).expect("some edge is unused");
            let walk_model = FaultModel::default().with_edge_loss(dead, 1.0);
            assert!(!walk_model.is_null());
            for redundant in [false, true] {
                for horizon in [1, 37, 200] {
                    let config = |faults| SimulationConfig {
                        horizon,
                        warmup: horizon / 10,
                        faults,
                        redundant,
                    };
                    let shortcut = Simulator::new(config(None));
                    let walk = Simulator::new(config(Some(walk_model.clone())));
                    for targets in [&instance.targets[..], &[]] {
                        let a = shortcut
                            .run_schedule_on(platform, &mask, &schedule, targets)
                            .expect("nothing is masked");
                        let b = walk
                            .run_schedule_on(platform, &mask, &schedule, targets)
                            .expect("nothing is masked");
                        assert!(b.fault_events.is_empty());
                        assert_eq!(a, b, "seed {seed}, redundant {redundant}");
                        compared += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compared, 6 * 3 * 2 * 3 * 2);
}
