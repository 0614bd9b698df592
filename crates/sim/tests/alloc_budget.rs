//! Allocation budgets of a fault-free replay and of the König coloring.
//!
//! A fault-free replay tallies every message from what its carrier
//! delivers, computed once per replay, so it allocates the same number of
//! times whatever its horizon: nothing per message. The coloring reuses one
//! set of buffers across its slots, so besides that set it allocates only
//! its output: the slot list and one assignment list per slot.
//!
//! The binary installs a counting global allocator. Counts are kept per
//! thread, so the test harness's own threads cannot disturb them.

mod common;

use common::{instance, realizations};
use pm_platform::topology::PlatformClass;
use pm_sched::coloring::{schedule_tasks, CommTask};
use pm_sim::{SimulationConfig, Simulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations [`schedule_tasks`] may make besides one per slot: its
/// per-call buffers (18 of them) and the growth of the slot list.
const COLORING_FIXED: usize = 32;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread by `f`, with its result.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn fault_free_replays_allocate_nothing_per_message() {
    for seed in 0..4 {
        let instance = instance(PlatformClass::Small, seed);
        let (realized, robust) = realizations(&instance);
        let schedules = realized.iter().map(|r| &r.schedule).chain([&robust]);
        for schedule in schedules {
            for redundant in [false, true] {
                let allocations = |horizon| {
                    let sim = Simulator::new(SimulationConfig {
                        horizon,
                        redundant,
                        ..SimulationConfig::default()
                    });
                    let (count, report) =
                        count_allocations(|| sim.run_schedule(&instance.platform, schedule));
                    assert!(report.delivery_ratio > 0.0, "the replay delivers");
                    count
                };
                assert_eq!(
                    allocations(200),
                    allocations(2_000),
                    "seed {seed}, redundant {redundant}: allocations grow with the horizon"
                );
            }
        }
    }
}

#[test]
fn coloring_allocates_one_list_per_slot_and_a_fixed_set_of_buffers() {
    for class in [PlatformClass::Small, PlatformClass::Big] {
        for seed in 0..4 {
            let instance = instance(class, seed);
            let platform = &instance.platform;
            for realization in realizations(&instance).0 {
                let set = &realization.tree_set;
                let period = realization.achieved_period;
                let mut tasks = Vec::new();
                for (k, (tree, &w)) in set.trees().iter().zip(set.weights()).enumerate() {
                    for &e in tree.edges() {
                        let edge = platform.edge(e);
                        tasks.push(CommTask {
                            src: edge.src,
                            dst: edge.dst,
                            duration: w * period * edge.cost,
                            tag: k,
                        });
                    }
                }
                let (count, colored) =
                    count_allocations(|| schedule_tasks(platform.node_count(), &tasks));
                let slots = colored.slots.len();
                assert!(slots > 1, "a realization needs several slots");
                assert!(
                    count <= slots + COLORING_FIXED,
                    "{class:?} seed {seed}: {count} allocations for {slots} slots"
                );
            }
        }
    }
}
