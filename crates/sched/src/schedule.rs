//! Explicit periodic schedules for the series of multicasts.
//!
//! A periodic schedule describes what every node does during one period of
//! the steady state. It is built from a [`WeightedTreeSet`] (or, more
//! generally, from any list of per-edge communication durations) through the
//! weighted edge coloring of [`crate::coloring`], and can be validated and
//! replayed by the `pm-sim` discrete-event simulator.

use crate::coloring::{schedule_tasks, CommTask};
use crate::load::OnePortLoads;
use crate::tree::WeightedTreeSet;
use pm_platform::graph::{NodeId, Platform};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised while building or validating a periodic schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// The requested communications cannot fit in the requested period (their
    /// maximum port load exceeds it).
    PeriodTooShort {
        /// The requested period.
        period: f64,
        /// The minimum feasible period (maximum port load).
        required: f64,
    },
    /// A slot violates the one-port constraint.
    OnePortViolation {
        /// Index of the offending slot.
        slot: usize,
        /// The node sending or receiving more than one message in the slot.
        node: NodeId,
    },
    /// The slots overflow the period.
    SlotsExceedPeriod,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::PeriodTooShort { period, required } => {
                write!(f, "period {period} is shorter than the required {required}")
            }
            ScheduleError::OnePortViolation { slot, node } => {
                write!(f, "one-port violation in slot {slot} at node {node}")
            }
            ScheduleError::SlotsExceedPeriod => write!(f, "slots overflow the period"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One communication carried out during a slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Time spent on this transfer within the slot.
    pub duration: f64,
    /// Index of the multicast tree (or flow) this transfer belongs to.
    pub tree: usize,
}

/// A slot of the periodic schedule: all its transfers run in parallel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSlot {
    /// Offset of the slot from the start of the period.
    pub offset: f64,
    /// Length of the slot (every transfer inside lasts at most this long).
    pub duration: f64,
    /// The parallel transfers of the slot.
    pub transfers: Vec<Transfer>,
}

/// A periodic schedule: during each period of length `period`, the listed
/// slots are executed in order; `multicasts_per_period` messages are fully
/// multicast per period in steady state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodicSchedule {
    /// Length of one period.
    pub period: f64,
    /// Number of multicasts completed per period in steady state.
    pub multicasts_per_period: f64,
    /// The slots of one period, sorted by offset.
    pub slots: Vec<ScheduleSlot>,
}

impl PeriodicSchedule {
    /// Builds the schedule realizing one period of a weighted tree set.
    ///
    /// During a period of length `period`, tree `k` carries
    /// `weight_k * period` messages, occupying each of its edges `(u, v)` for
    /// `weight_k * period * c(u, v)` time-units. The weighted edge coloring
    /// packs all those occupations into `period` time-units; this fails with
    /// [`ScheduleError::PeriodTooShort`] if the tree set is infeasible.
    pub fn from_weighted_trees(
        platform: &Platform,
        trees: &WeightedTreeSet,
        period: f64,
    ) -> Result<Self, ScheduleError> {
        let mut tasks = Vec::new();
        for (k, (tree, &w)) in trees.trees().iter().zip(trees.weights()).enumerate() {
            if w <= 0.0 {
                continue;
            }
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
        Self::from_comm_tasks(platform, &tasks, period, trees.throughput() * period)
    }

    /// Builds a schedule from raw communication tasks. `multicasts` is the
    /// number of multicasts completed per period (only used for reporting the
    /// throughput of the schedule).
    pub fn from_comm_tasks(
        platform: &Platform,
        tasks: &[CommTask],
        period: f64,
        multicasts: f64,
    ) -> Result<Self, ScheduleError> {
        let mut loads = OnePortLoads::new(platform.node_count());
        for t in tasks {
            loads.add_transfer(t.src, t.dst, t.duration);
        }
        let required = loads.max_load();
        if required > period * (1.0 + 1e-9) + 1e-9 {
            return Err(ScheduleError::PeriodTooShort { period, required });
        }
        let colored = schedule_tasks(platform.node_count(), tasks);
        if colored.makespan > period * (1.0 + 1e-6) + 1e-6 {
            return Err(ScheduleError::PeriodTooShort {
                period,
                required: colored.makespan,
            });
        }
        let mut slots = Vec::with_capacity(colored.slots.len());
        let mut offset = 0.0;
        for slot in &colored.slots {
            let transfers = slot
                .assignments
                .iter()
                .map(|&(task_idx, used)| Transfer {
                    src: tasks[task_idx].src,
                    dst: tasks[task_idx].dst,
                    duration: used,
                    tree: tasks[task_idx].tag,
                })
                .collect();
            slots.push(ScheduleSlot {
                offset,
                duration: slot.duration,
                transfers,
            });
            offset += slot.duration;
        }
        Ok(PeriodicSchedule {
            period,
            multicasts_per_period: multicasts,
            slots,
        })
    }

    /// Builds one *super-period* schedule interleaving several weighted tree
    /// sets — one per commodity of a multi-commodity workload — and returns
    /// the half-open range of transfer tags each group occupies.
    ///
    /// During a super-period of length `period`, tree `k` of group `c`
    /// carries `weight * period` messages of commodity `c`; all groups'
    /// occupations share the same weighted König coloring, so the one-port
    /// capacity of every node is split across commodities exactly as the
    /// joint packing prescribed. Tags are global: group `c`'s trees occupy
    /// the contiguous tag range returned at index `c` (zero-weight trees
    /// still consume a tag, keeping tag minus range-start a stable index
    /// into the group's tree set). The reported `multicasts_per_period` is
    /// the sum of all groups' throughput shares.
    pub fn from_weighted_tree_groups(
        platform: &Platform,
        groups: &[&WeightedTreeSet],
        period: f64,
    ) -> Result<(Self, Vec<(usize, usize)>), ScheduleError> {
        let mut tasks = Vec::new();
        let mut ranges = Vec::with_capacity(groups.len());
        let mut next_tag = 0usize;
        let mut multicasts = 0.0;
        for trees in groups {
            let start = next_tag;
            for (tree, &w) in trees.trees().iter().zip(trees.weights()) {
                let tag = next_tag;
                next_tag += 1;
                if w <= 0.0 {
                    continue;
                }
                for &e in tree.edges() {
                    let edge = platform.edge(e);
                    tasks.push(CommTask {
                        src: edge.src,
                        dst: edge.dst,
                        duration: w * period * edge.cost,
                        tag,
                    });
                }
            }
            multicasts += trees.throughput() * period;
            ranges.push((start, next_tag));
        }
        let schedule = Self::from_comm_tasks(platform, &tasks, period, multicasts)?;
        Ok((schedule, ranges))
    }

    /// The sub-schedule carrying only the transfers whose tree tag falls in
    /// the half-open range `tags`, re-labelled as completing `multicasts`
    /// messages per period.
    ///
    /// Slot offsets and durations are preserved (empty slots are dropped),
    /// so the sub-schedule replays each surviving transfer at the exact
    /// instant it runs inside the parent super-period — this is how a
    /// multi-commodity realization verifies every commodity's own rate
    /// against its own target set without re-coloring anything.
    pub fn restricted_to_tags(
        &self,
        tags: std::ops::Range<usize>,
        multicasts: f64,
    ) -> PeriodicSchedule {
        let slots = self
            .slots
            .iter()
            .filter_map(|slot| {
                let transfers: Vec<Transfer> = slot
                    .transfers
                    .iter()
                    .filter(|t| tags.contains(&t.tree))
                    .cloned()
                    .collect();
                (!transfers.is_empty()).then_some(ScheduleSlot {
                    offset: slot.offset,
                    duration: slot.duration,
                    transfers,
                })
            })
            .collect();
        PeriodicSchedule {
            period: self.period,
            multicasts_per_period: multicasts,
            slots,
        }
    }

    /// The steady-state throughput of the schedule (multicasts per time-unit).
    pub fn throughput(&self) -> f64 {
        self.multicasts_per_period / self.period
    }

    /// Total busy time of the schedule (sum of slot durations).
    pub fn busy_time(&self) -> f64 {
        self.slots.iter().map(|s| s.duration).sum()
    }

    /// Checks the structural invariants of the schedule:
    /// * slots fit within the period,
    /// * within every slot, every node sends to at most one neighbour and
    ///   receives from at most one neighbour (one-port model),
    /// * transfer durations never exceed their slot duration.
    pub fn validate(&self, platform: &Platform) -> Result<(), ScheduleError> {
        let tol = 1e-6;
        if self.busy_time() > self.period * (1.0 + tol) + tol {
            return Err(ScheduleError::SlotsExceedPeriod);
        }
        // `send_slot[v]` / `recv_slot[v]`: one past the last slot in which
        // node v sent / received (transfers need not follow platform edges,
        // so the tables cover every node the slots name).
        let nodes = self
            .slots
            .iter()
            .flat_map(|slot| &slot.transfers)
            .map(|t| t.src.index().max(t.dst.index()) + 1)
            .fold(platform.node_count(), usize::max);
        let mut send_slot = vec![0usize; nodes];
        let mut recv_slot = vec![0usize; nodes];
        for (i, slot) in self.slots.iter().enumerate() {
            for t in &slot.transfers {
                if t.duration > slot.duration * (1.0 + tol) + tol {
                    return Err(ScheduleError::SlotsExceedPeriod);
                }
                if std::mem::replace(&mut send_slot[t.src.index()], i + 1) == i + 1 {
                    return Err(ScheduleError::OnePortViolation {
                        slot: i,
                        node: t.src,
                    });
                }
                if std::mem::replace(&mut recv_slot[t.dst.index()], i + 1) == i + 1 {
                    return Err(ScheduleError::OnePortViolation {
                        slot: i,
                        node: t.dst,
                    });
                }
            }
        }
        Ok(())
    }

    /// Per-node port occupation over one period.
    pub fn loads(&self, num_nodes: usize) -> OnePortLoads {
        let mut loads = OnePortLoads::new(num_nodes);
        for slot in &self.slots {
            for t in &slot.transfers {
                loads.add_transfer(t.src, t.dst, t.duration);
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MulticastTree;
    use pm_platform::graph::PlatformBuilder;
    use pm_platform::instances::{figure1_instance, MulticastInstance};

    fn diamond_instance() -> MulticastInstance {
        let mut b = PlatformBuilder::new();
        let s = b.add_named_node("s");
        let a = b.add_named_node("a");
        let bb = b.add_named_node("b");
        let t = b.add_named_node("t");
        b.add_edge(s, a, 1.0).unwrap();
        b.add_edge(s, bb, 1.0).unwrap();
        b.add_edge(a, t, 0.5).unwrap();
        b.add_edge(bb, t, 0.5).unwrap();
        let platform = b.build().unwrap();
        MulticastInstance::new(platform, s, vec![t]).unwrap()
    }

    fn two_tree_set(inst: &MulticastInstance) -> WeightedTreeSet {
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let t1 = MulticastTree::new(inst, vec![e(0, 1), e(1, 3)]).unwrap();
        let t2 = MulticastTree::new(inst, vec![e(0, 2), e(2, 3)]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(t1, 0.5).unwrap();
        set.push(t2, 0.5).unwrap();
        set
    }

    #[test]
    fn schedule_from_weighted_trees_is_valid() {
        let inst = diamond_instance();
        let set = two_tree_set(&inst);
        let sched = PeriodicSchedule::from_weighted_trees(&inst.platform, &set, 1.0).unwrap();
        assert!((sched.throughput() - 1.0).abs() < 1e-9);
        sched.validate(&inst.platform).unwrap();
        // Source send load over a period is 1 (saturated), target receive 0.5.
        let loads = sched.loads(inst.platform.node_count());
        assert!((loads.send(NodeId(0)) - 1.0).abs() < 1e-9);
        assert!((loads.recv(NodeId(3)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn infeasible_tree_set_is_rejected() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let t1 = MulticastTree::new(&inst, vec![e(0, 1), e(1, 3)]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(t1, 2.0).unwrap(); // source send load would be 2 > 1
        let err = PeriodicSchedule::from_weighted_trees(g, &set, 1.0).unwrap_err();
        assert!(matches!(err, ScheduleError::PeriodTooShort { .. }));
    }

    #[test]
    fn figure1_optimal_solution_is_schedulable_at_period_one() {
        let inst = figure1_instance();
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree_a = MulticastTree::new(
            &inst,
            vec![
                e(0, 1),
                e(0, 3),
                e(3, 4),
                e(4, 5),
                e(5, 6),
                e(6, 7),
                e(7, 8),
                e(7, 9),
                e(7, 10),
                e(1, 11),
                e(11, 12),
                e(11, 13),
            ],
        )
        .unwrap();
        let tree_b = MulticastTree::new(
            &inst,
            vec![
                e(0, 3),
                e(3, 2),
                e(2, 1),
                e(2, 6),
                e(6, 7),
                e(7, 8),
                e(7, 9),
                e(7, 10),
                e(1, 11),
                e(11, 12),
                e(11, 13),
            ],
        )
        .unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(tree_a, 0.5).unwrap();
        set.push(tree_b, 0.5).unwrap();
        let sched = PeriodicSchedule::from_weighted_trees(g, &set, 1.0).unwrap();
        sched.validate(g).unwrap();
        assert!((sched.throughput() - 1.0).abs() < 1e-9);
        // The busy time cannot exceed one period, and the bottleneck ports
        // (e.g. the source) are saturated.
        assert!(sched.busy_time() <= 1.0 + 1e-6);
        let loads = sched.loads(g.node_count());
        assert!((loads.send(NodeId(0)) - 1.0).abs() < 1e-6);
        assert!((loads.recv(NodeId(7)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tree_groups_interleave_into_one_valid_super_period() {
        let inst = diamond_instance();
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        // Commodity 0: both diamond paths at rate 0.25 each; commodity 1:
        // a single path at rate 0.5. Total source send load = 1.0.
        let t1 = MulticastTree::new(&inst, vec![e(0, 1), e(1, 3)]).unwrap();
        let t2 = MulticastTree::new(&inst, vec![e(0, 2), e(2, 3)]).unwrap();
        let mut c0 = WeightedTreeSet::new();
        c0.push(t1.clone(), 0.25).unwrap();
        c0.push(t2.clone(), 0.25).unwrap();
        let mut c1 = WeightedTreeSet::new();
        c1.push(t2, 0.5).unwrap();
        let (sched, ranges) =
            PeriodicSchedule::from_weighted_tree_groups(g, &[&c0, &c1], 2.0).unwrap();
        sched.validate(g).unwrap();
        assert_eq!(ranges, vec![(0, 2), (2, 3)]);
        // 0.5 + 0.5 messages per unit time over a super-period of 2.
        assert!((sched.multicasts_per_period - 2.0).abs() < 1e-9);
        // The tag-restricted sub-schedules carry exactly their group's
        // transfers at the parent's offsets, and their loads sum back to
        // the parent's.
        let sub0 = sched.restricted_to_tags(0..2, 1.0);
        let sub1 = sched.restricted_to_tags(2..3, 1.0);
        assert!((sub0.throughput() - 0.5).abs() < 1e-9);
        let n = g.node_count();
        let (all, l0, l1) = (sched.loads(n), sub0.loads(n), sub1.loads(n));
        for v in (0..n as u32).map(NodeId) {
            assert!((l0.send(v) + l1.send(v) - all.send(v)).abs() < 1e-9);
            assert!((l0.recv(v) + l1.recv(v) - all.recv(v)).abs() < 1e-9);
        }
        for slot in sub1.slots {
            assert!(slot.transfers.iter().all(|t| t.tree == 2));
            let parent = sched
                .slots
                .iter()
                .find(|s| (s.offset - slot.offset).abs() < 1e-12)
                .expect("sub-schedule slots keep parent offsets");
            assert_eq!(parent.duration, slot.duration);
        }
    }

    #[test]
    fn validate_catches_one_port_violations() {
        let inst = diamond_instance();
        let bad = PeriodicSchedule {
            period: 1.0,
            multicasts_per_period: 1.0,
            slots: vec![ScheduleSlot {
                offset: 0.0,
                duration: 0.5,
                transfers: vec![
                    Transfer {
                        src: NodeId(0),
                        dst: NodeId(1),
                        duration: 0.5,
                        tree: 0,
                    },
                    Transfer {
                        src: NodeId(0),
                        dst: NodeId(2),
                        duration: 0.5,
                        tree: 1,
                    },
                ],
            }],
        };
        assert!(matches!(
            bad.validate(&inst.platform),
            Err(ScheduleError::OnePortViolation {
                node: NodeId(0),
                ..
            })
        ));
    }

    #[test]
    fn validate_catches_period_overflow() {
        let inst = diamond_instance();
        let bad = PeriodicSchedule {
            period: 0.5,
            multicasts_per_period: 1.0,
            slots: vec![
                ScheduleSlot {
                    offset: 0.0,
                    duration: 0.4,
                    transfers: vec![Transfer {
                        src: NodeId(0),
                        dst: NodeId(1),
                        duration: 0.4,
                        tree: 0,
                    }],
                },
                ScheduleSlot {
                    offset: 0.4,
                    duration: 0.4,
                    transfers: vec![Transfer {
                        src: NodeId(0),
                        dst: NodeId(2),
                        duration: 0.4,
                        tree: 0,
                    }],
                },
            ],
        };
        assert_eq!(
            bad.validate(&inst.platform),
            Err(ScheduleError::SlotsExceedPeriod)
        );
    }
}
