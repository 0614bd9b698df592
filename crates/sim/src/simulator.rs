//! Discrete-event simulation of pipelined multicasts under the one-port
//! model, with optional seeded fault injection (message loss, node crashes).

use crate::fault::FaultModel;
use pm_platform::graph::{EdgeId, NodeId, Platform};
use pm_platform::mask::NodeMask;
use pm_sched::load::OnePortLoads;
use pm_sched::schedule::PeriodicSchedule;
use pm_sched::tree::MulticastTree;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

/// One commodity's lane inside a multi-commodity super-period schedule:
/// the transfer tags its trees occupy, how many of its messages complete
/// per super-period, and its own delivery target set. Consumed by
/// [`Simulator::verify_commodity_rates`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommodityLane {
    /// Half-open range of transfer tags (`Transfer::tree`) owned by the
    /// commodity inside the shared schedule.
    pub tags: std::ops::Range<usize>,
    /// Messages of this commodity completed per super-period (its demand
    /// share of the joint packing).
    pub multicasts_per_period: f64,
    /// The commodity's own target set (never inferred: different
    /// commodities cover different nodes).
    pub targets: Vec<NodeId>,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of steady-state periods to replay (schedule mode) or number of
    /// messages to inject (tree-pipeline mode).
    pub horizon: usize,
    /// Number of initial periods / messages ignored when measuring the
    /// steady-state throughput (warm-up of the pipeline).
    pub warmup: usize,
    /// Optional fault model: seeded per-edge message loss and scheduled
    /// node outages. `None` behaves exactly like a zero model (and replays
    /// are bit-for-bit identical between the two).
    pub faults: Option<FaultModel>,
    /// Redundant delivery mode for schedule replays: every tree of the
    /// schedule carries a copy of every multicast, and a target counts as
    /// served when *any* copy arrives (the delivery semantics of the robust
    /// redundant realizations). When `false`, multicasts are spread over
    /// the trees in proportion to their scheduled rates.
    pub redundant: bool,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            horizon: 200,
            warmup: 20,
            faults: None,
            redundant: false,
        }
    }
}

/// One message loss materialized during a replay, for the report's fault
/// event log.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Absolute simulation time of the failed edge crossing.
    pub time: f64,
    /// Index of the lost message.
    pub msg: usize,
    /// Tree (schedule tag) the copy was travelling on.
    pub tree: usize,
    /// The edge the message failed to cross.
    pub edge: EdgeId,
    /// What killed the crossing.
    pub cause: FaultCause,
}

/// The cause of a [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultCause {
    /// An i.i.d. message-loss draw fired on the edge.
    Loss,
    /// The sender or the receiver was crashed at crossing time.
    Crash,
}

/// Structured replay errors (as opposed to silently degraded reports).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The schedule references a transfer whose endpoint is disabled by the
    /// active [`NodeMask`]: the schedule is stale with respect to the
    /// platform state and must be re-realized, not replayed.
    MaskedTransfer {
        /// Index of the offending slot.
        slot: usize,
        /// Sender of the offending transfer.
        src: NodeId,
        /// Receiver of the offending transfer.
        dst: NodeId,
        /// The disabled endpoint that invalidates the transfer.
        disabled: NodeId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MaskedTransfer {
                slot,
                src,
                dst,
                disabled,
            } => write!(
                f,
                "slot {slot} transfer {src} -> {dst} uses disabled node {disabled}; \
                 the schedule is stale and must be re-realized"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Total simulated time.
    pub total_time: f64,
    /// Number of multicasts offered by the schedule over the horizon (the
    /// scheduled rate; see [`SimReport::goodput`] for the delivered side).
    pub completed_multicasts: f64,
    /// Scheduled steady-state throughput (multicasts per time-unit, measured
    /// after the warm-up).
    pub throughput: f64,
    /// Scheduled steady-state period (`1 / throughput`).
    pub period: f64,
    /// Per-node send/receive busy time divided by the total time.
    pub utilization: OnePortLoads,
    /// Number of one-port violations detected (always 0 for valid schedules).
    pub one_port_violations: usize,
    /// Fraction of `(message, target)` pairs delivered over the replay
    /// (1.0 on fault-free runs).
    pub delivery_ratio: f64,
    /// Per-target delivery ratios, `(target, delivered fraction)` pairs.
    pub target_delivery: Vec<(NodeId, f64)>,
    /// Fully-delivered multicasts (every target served) per time-unit —
    /// equals the throughput on fault-free runs, degrades under faults.
    pub goodput: f64,
    /// Warm-up fill latency: completion time of the earliest fully
    /// delivered multicast, measured directly from the replayed schedule
    /// (the pipeline-fill quantity; infinite when nothing is delivered).
    pub fill_latency: f64,
    /// Time of the last delivery of the replay (0 when nothing delivers).
    pub makespan: f64,
    /// The materialized message losses, in deterministic replay order.
    pub fault_events: Vec<FaultEvent>,
}

/// One reconstructed multicast tree of a replayed schedule: the pipelined
/// structure behind the schedule's tree-tagged transfers.
#[derive(Debug, Clone)]
struct ReplayTree {
    /// The schedule tag of the tree.
    tag: usize,
    /// Edges in BFS order from the root: `(edge, src, dst)`.
    edges: Vec<(EdgeId, NodeId, NodeId)>,
    /// Steady-state arrival offset of every node (indexed by node id;
    /// `f64::INFINITY` when the tree does not cover the node): the time
    /// within the pipeline at which a message injected at offset 0 becomes
    /// available at the node, following the schedule's slot placement
    /// period by period.
    arrival: Vec<f64>,
    /// The tree's share of the scheduled messages (its rate divided by the
    /// total rate), used by the round-robin message assignment.
    share: f64,
}

/// The delivery totals of a schedule replay.
#[derive(Debug)]
struct Tally {
    /// Delivered `(message, target)` pairs.
    pairs: usize,
    /// Messages delivered to every target.
    full: usize,
    /// The earliest completion of a fully delivered message.
    fill_latency: f64,
    /// The last delivery.
    makespan: f64,
    /// Messages delivered, per target.
    per_target: Vec<usize>,
}

impl Tally {
    fn new(targets: usize) -> Self {
        Tally {
            pairs: 0,
            full: 0,
            fill_latency: f64::INFINITY,
            makespan: 0.0,
            per_target: vec![0; targets],
        }
    }

    /// Records a message that reached `delivered` of the targets, the last
    /// of them at `latest` (ignored when it reached none); the caller
    /// counts the message in `per_target`.
    fn message(&mut self, delivered: usize, latest: f64) {
        self.pairs += delivered;
        if delivered > 0 && latest > self.makespan {
            self.makespan = latest;
        }
        if delivered == self.per_target.len() {
            self.full += 1;
            if latest < self.fill_latency {
                self.fill_latency = latest;
            }
        }
    }
}

/// The discrete-event simulator.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    /// Simulation parameters.
    pub config: SimulationConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimulationConfig) -> Self {
        Simulator { config }
    }

    /// Replays a periodic schedule for `config.horizon` periods on a fully
    /// enabled platform, inferring the delivery targets as the nodes covered
    /// by *every* tree of the schedule (for tree-shaped schedules this is
    /// the instance's target set plus any shared relays).
    ///
    /// Every slot of every period is checked against the one-port model (a
    /// node must not appear twice as a sender or twice as a receiver within a
    /// slot); violations are counted in the report. See
    /// [`Simulator::run_schedule_on`] for masked platforms and explicit
    /// targets.
    pub fn run_schedule(&self, platform: &Platform, schedule: &PeriodicSchedule) -> SimReport {
        let mask = NodeMask::full(platform.node_count());
        self.run_schedule_on(platform, &mask, schedule, &[])
            .expect("a full mask disables nothing")
    }

    /// Replays a periodic schedule under a node mask and an explicit target
    /// set, with whatever fault model the configuration carries.
    ///
    /// Errors with [`SimError::MaskedTransfer`] when the schedule references
    /// a transfer through a node the mask disables — a stale schedule must
    /// be re-realized, not silently replayed at degraded throughput.
    ///
    /// An empty `targets` slice infers the targets as the nodes covered by
    /// every tree of the schedule. The scheduled-rate fields (`throughput`,
    /// `period`, `completed_multicasts`, `utilization`) are analytic and
    /// fault-independent; the delivery fields (`delivery_ratio`, `goodput`,
    /// `fill_latency`, `makespan`, `fault_events`) come from a per-message
    /// replay of the schedule's reconstructed trees. Schedules that are not
    /// tree-shaped (a tag whose transfers do not form a tree over platform
    /// edges) replay analytically with a perfect-delivery verdict.
    pub fn run_schedule_on(
        &self,
        platform: &Platform,
        mask: &NodeMask,
        schedule: &PeriodicSchedule,
        targets: &[NodeId],
    ) -> Result<SimReport, SimError> {
        let periods = self.config.horizon.max(1);
        let mut busy = OnePortLoads::new(platform.node_count());
        let mut violations = 0usize;
        let mut senders: Vec<NodeId> = Vec::new();
        let mut receivers: Vec<NodeId> = Vec::new();
        for (slot_idx, slot) in schedule.slots.iter().enumerate() {
            senders.clear();
            receivers.clear();
            for t in &slot.transfers {
                for endpoint in [t.src, t.dst] {
                    if !mask.contains(endpoint) {
                        return Err(SimError::MaskedTransfer {
                            slot: slot_idx,
                            src: t.src,
                            dst: t.dst,
                            disabled: endpoint,
                        });
                    }
                }
                if senders.contains(&t.src) || receivers.contains(&t.dst) {
                    violations += 1;
                }
                senders.push(t.src);
                receivers.push(t.dst);
                busy.add_transfer(t.src, t.dst, t.duration);
            }
        }
        // Busy time accumulated over one period; utilization = busy / period.
        let total_time = schedule.period * periods as f64;
        let utilization = busy.scaled(1.0 / schedule.period);
        let completed = schedule.multicasts_per_period * periods as f64;
        let throughput = completed / total_time;
        let mut report = SimReport {
            total_time,
            completed_multicasts: completed,
            throughput,
            period: if throughput > 0.0 {
                1.0 / throughput
            } else {
                f64::INFINITY
            },
            utilization,
            one_port_violations: violations,
            delivery_ratio: 1.0,
            target_delivery: targets.iter().map(|&t| (t, 1.0)).collect(),
            goodput: throughput,
            fill_latency: 0.0,
            makespan: total_time,
            fault_events: Vec::new(),
        };
        self.replay_deliveries(platform, schedule, targets, periods, &mut report);
        Ok(report)
    }

    /// Verifies every commodity of a multi-commodity *super-period* schedule
    /// against its own target set: each lane's tag-restricted sub-schedule
    /// (see `PeriodicSchedule::restricted_to_tags`) is replayed on the fully
    /// enabled platform with the lane's targets, so the returned reports
    /// carry the lane's scheduled rate (`throughput`), its per-message
    /// delivery outcome (`delivery_ratio`, `goodput`) and its one-port
    /// verdict — the end-to-end evidence that the commodity sustains its
    /// rate inside the shared period.
    pub fn verify_commodity_rates(
        &self,
        platform: &Platform,
        schedule: &PeriodicSchedule,
        lanes: &[CommodityLane],
    ) -> Vec<SimReport> {
        let mask = NodeMask::full(platform.node_count());
        lanes
            .iter()
            .map(|lane| {
                let sub =
                    schedule.restricted_to_tags(lane.tags.clone(), lane.multicasts_per_period);
                self.run_schedule_on(platform, &mask, &sub, &lane.targets)
                    .expect("a full mask disables nothing")
            })
            .collect()
    }

    /// The per-message delivery replay behind [`Simulator::run_schedule_on`]:
    /// reconstructs the schedule's trees, spreads (or replicates) the
    /// offered multicasts over them, and delivers every copy down its tree
    /// under the configured fault model. Leaves the report's analytic
    /// fields untouched; falls back to the perfect-delivery defaults when
    /// the schedule is not tree-shaped.
    ///
    /// A copy of message `m` on tree `k` reaches target `t` at
    /// `inject_m + arrival_k[t]` if it reaches `t` at all. Under a model
    /// that can fire, a walk down the tree's edges decides which nodes each
    /// copy reaches, logging every loss. Under a null model every copy
    /// reaches every node its tree covers, so no edge is walked and a
    /// message is tallied from its carrier's precomputed targets; since
    /// rounding is monotone, `inject + a` is largest (smallest) where `a`
    /// is, and the report is the walk's bit for bit.
    fn replay_deliveries(
        &self,
        platform: &Platform,
        schedule: &PeriodicSchedule,
        targets: &[NodeId],
        periods: usize,
        report: &mut SimReport,
    ) {
        let Some(trees) = reconstruct_trees(platform, schedule) else {
            return;
        };
        if trees.is_empty() {
            return;
        }
        let n = platform.node_count();
        // Inferred targets: nodes covered by every tree (minus roots).
        let inferred: Vec<NodeId>;
        let targets = if targets.is_empty() {
            inferred = (0..n as u32)
                .map(NodeId)
                .filter(|v| {
                    trees
                        .iter()
                        .all(|t| t.arrival[v.index()].is_finite() && t.arrival[v.index()] > 0.0)
                })
                .collect();
            &inferred[..]
        } else {
            targets
        };
        if targets.is_empty() {
            return;
        }
        let messages = (schedule.multicasts_per_period * periods as f64).round() as usize;
        if messages == 0 || report.throughput <= 0.0 {
            return;
        }
        let inject_gap = 1.0 / report.throughput;

        // Target slot of every node (a repeated target keeps its last slot).
        let mut target_of = vec![usize::MAX; n];
        for (i, t) in targets.iter().enumerate() {
            if let Some(slot) = target_of.get_mut(t.index()) {
                *slot = i;
            }
        }
        // Per tree, in its BFS edge order: the targets it covers, as
        // `(target slot, node, arrival offset)`.
        let deliveries: Vec<Vec<(usize, NodeId, f64)>> = trees
            .iter()
            .map(|tree| {
                tree.edges
                    .iter()
                    .filter(|&&(_, _, dst)| target_of[dst.index()] != usize::MAX)
                    .map(|&(_, _, dst)| (target_of[dst.index()], dst, tree.arrival[dst.index()]))
                    .collect()
            })
            .collect();

        let mut tally = Tally::new(targets.len());
        let mut events = Vec::new();
        // Round-robin credits: the tree carrying each non-redundant message.
        let mut credits = vec![0.0f64; trees.len()];
        let mut next_tree = || {
            for (k, tree) in trees.iter().enumerate() {
                credits[k] += tree.share;
            }
            let chosen = credits
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
                .map(|(k, _)| k)
                .unwrap_or(0);
            credits[chosen] -= 1.0;
            chosen
        };
        let redundant = self.config.redundant;
        match self.config.faults.as_ref().filter(|f| !f.is_null()) {
            None => {
                // What a message's carrier delivers, as `(target slot,
                // offset)`: a tree's targets, or in redundant mode each
                // target's earliest copy over all trees.
                let carriers: Vec<Vec<(usize, f64)>> = if redundant {
                    let mut earliest = vec![f64::INFINITY; targets.len()];
                    for &(ti, _, offset) in deliveries.iter().flatten() {
                        if offset < earliest[ti] {
                            earliest[ti] = offset;
                        }
                    }
                    let union = earliest.into_iter().enumerate();
                    vec![union.filter(|(_, offset)| offset.is_finite()).collect()]
                } else {
                    let pairs = |d: &Vec<(usize, NodeId, f64)>| {
                        d.iter().map(|&(ti, _, offset)| (ti, offset)).collect()
                    };
                    deliveries.iter().map(pairs).collect()
                };
                let latest: Vec<f64> = carriers
                    .iter()
                    .map(|c| c.iter().map(|&(_, offset)| offset).fold(0.0, f64::max))
                    .collect();
                let mut carried = vec![0usize; carriers.len()];
                for msg in 0..messages {
                    let c = if redundant { 0 } else { next_tree() };
                    carried[c] += 1;
                    let inject = msg as f64 * inject_gap;
                    tally.message(carriers[c].len(), inject + latest[c]);
                }
                for (carrier, &count) in carriers.iter().zip(&carried) {
                    for &(ti, _) in carrier {
                        tally.per_target[ti] += count;
                    }
                }
            }
            Some(fault) => {
                // Nodes the current copy reached.
                let mut reached = vec![false; n];
                // Best delivery time per target for the current message.
                let mut best = vec![f64::INFINITY; targets.len()];
                for msg in 0..messages {
                    let inject = msg as f64 * inject_gap;
                    let carriers = if redundant {
                        0..trees.len()
                    } else {
                        let k = next_tree();
                        k..k + 1
                    };
                    best.iter_mut().for_each(|b| *b = f64::INFINITY);
                    for k in carriers {
                        let tree = &trees[k];
                        for item in reached.iter_mut() {
                            *item = false;
                        }
                        if let Some(&(_, root, _)) = tree.edges.first() {
                            reached[root.index()] = true;
                        }
                        for &(edge, src, dst) in &tree.edges {
                            if !reached[src.index()] {
                                continue;
                            }
                            let cross = inject + tree.arrival[dst.index()];
                            let crashed =
                                fault.node_down_at(src, cross) || fault.node_down_at(dst, cross);
                            let lost = fault.drop_message(edge, tree.tag, msg);
                            if crashed || lost {
                                events.push(FaultEvent {
                                    time: cross,
                                    msg,
                                    tree: tree.tag,
                                    edge,
                                    cause: if crashed {
                                        FaultCause::Crash
                                    } else {
                                        FaultCause::Loss
                                    },
                                });
                                continue;
                            }
                            reached[dst.index()] = true;
                        }
                        for &(ti, node, offset) in &deliveries[k] {
                            let cross = inject + offset;
                            if reached[node.index()] && cross < best[ti] {
                                best[ti] = cross;
                            }
                        }
                    }
                    let mut delivered = 0;
                    let mut latest = 0.0f64;
                    for (ti, &b) in best.iter().enumerate() {
                        if b.is_finite() {
                            delivered += 1;
                            tally.per_target[ti] += 1;
                            if b > latest {
                                latest = b;
                            }
                        }
                    }
                    tally.message(delivered, latest);
                }
            }
        }

        report.delivery_ratio = tally.pairs as f64 / (messages * targets.len()) as f64;
        report.target_delivery = targets
            .iter()
            .zip(&tally.per_target)
            .map(|(&t, &d)| (t, d as f64 / messages as f64))
            .collect();
        report.goodput = tally.full as f64 / report.total_time;
        report.fill_latency = tally.fill_latency;
        report.makespan = tally.makespan;
        report.fault_events = events;
    }

    /// The *fill makespan* of a single message multicast down `tree`: the
    /// time from an idle start until the last node of the tree has received
    /// it, under the one-port store-and-forward model. This is the
    /// pipeline-depth quantity behind transition costs on drifting
    /// platforms: it bounds both how long the in-flight messages of an
    /// abandoned schedule take to drain and how long a freshly installed
    /// schedule runs before its first delivery. An associated function (no
    /// receiver): a single message's makespan is independent of any
    /// horizon/warmup configuration.
    ///
    /// One pass from the source: every node forwards the message to its
    /// children in `tree.edges()` order, its send port busy for each child's
    /// edge cost in turn, starting when the message arrives (at `0.0` at the
    /// source). The result is the `total_time` of a horizon-1
    /// [`Simulator::run_tree_pipeline`], bit for bit.
    pub fn tree_fill_makespan(platform: &Platform, tree: &MulticastTree) -> f64 {
        let n = platform.node_count();
        // Each node's tree edges out, in `tree.edges()` order, as a linked
        // list: `first[v]` heads it and `next[i]` follows edge `i`.
        const NONE: usize = usize::MAX;
        let edges = tree.edges();
        let mut first = vec![NONE; n];
        let mut next = vec![NONE; edges.len()];
        for (i, &e) in edges.iter().enumerate().rev() {
            let src = platform.edge(e).src.index();
            next[i] = first[src];
            first[src] = i;
        }
        let mut makespan = 0.0f64;
        let mut stack = vec![(tree.source, 0.0f64)];
        while let Some((node, arrival)) = stack.pop() {
            let mut now = arrival;
            let mut i = first[node.index()];
            while i != NONE {
                let edge = platform.edge(edges[i]);
                now += edge.cost;
                if now > makespan {
                    makespan = now;
                }
                stack.push((edge.dst, now));
                i = next[i];
            }
        }
        makespan
    }

    /// Simulates the natural store-and-forward pipelining of a series of
    /// multicasts along a single multicast tree.
    ///
    /// The source injects `config.horizon` messages. Every node forwards each
    /// received message to its children in tree order, one child at a time
    /// (one-port in emission), and receives at most one message at a time
    /// (one-port in reception, enforced by construction since a node has a
    /// single parent). The measured steady-state throughput converges to the
    /// analytical `1 / tree.period()` of `pm-sched`.
    ///
    /// Under a fault model, a transfer whose loss draw fires (or whose
    /// endpoint is crashed at transfer time) is lost together with the
    /// whole subtree's copy of that message; the sender's port is still
    /// occupied for the transfer's duration (no retransmit).
    pub fn run_tree_pipeline(
        &self,
        platform: &Platform,
        tree: &MulticastTree,
        targets: &[NodeId],
    ) -> SimReport {
        let num_messages = self.config.horizon.max(1);
        let warmup = self.config.warmup.min(num_messages.saturating_sub(1));
        let n = platform.node_count();
        let null = FaultModel::default();
        let fault = self.config.faults.as_ref().unwrap_or(&null);

        // children[v] = tree edges leaving v, in a fixed order.
        let mut children: Vec<Vec<(NodeId, f64, EdgeId)>> = vec![Vec::new(); n];
        for &e in tree.edges() {
            let edge = platform.edge(e);
            children[edge.src.index()].push((edge.dst, edge.cost, e));
        }

        // Event-driven simulation. Each node keeps a FIFO of messages it
        // still has to forward; its send port serializes the transfers.
        #[derive(Debug, PartialEq)]
        struct Event {
            time: f64,
            kind: EventKind,
        }
        #[derive(Debug, PartialEq)]
        enum EventKind {
            /// `node` receives message `msg` (it may start forwarding it).
            Arrival { node: NodeId, msg: usize },
            /// The send port of `node` becomes free.
            SendFree { node: NodeId },
        }
        impl Eq for Event {}
        impl PartialOrd for Event {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Event {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .time
                    .partial_cmp(&self.time)
                    .expect("times are finite")
            }
        }

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        // Per node: queue of (message, next child index to serve).
        let mut queues: Vec<std::collections::VecDeque<(usize, usize)>> =
            vec![std::collections::VecDeque::new(); n];
        let mut send_busy = vec![false; n];
        let mut busy = OnePortLoads::new(n);
        // Delivery bookkeeping.
        let mut received_count = vec![0usize; num_messages];
        let mut completion_time = vec![f64::NAN; num_messages];
        let mut fault_events = Vec::new();
        let needed = targets.len();
        let target_mask: Vec<Option<usize>> = {
            let mut mask = vec![None; n];
            for (i, &t) in targets.iter().enumerate() {
                mask[t.index()] = Some(i);
            }
            mask
        };
        let mut delivered_per_target = vec![0usize; needed];
        let mut delivered_pairs = 0usize;
        let mut makespan = 0.0f64;

        // The source holds every message from the start: its queue is
        // pre-filled in message order and its send port starts working at 0.
        // (Going through Arrival events for the source would let the event
        // queue reorder same-time arrivals and scramble the message order.)
        if children[tree.source.index()].is_empty() {
            // Degenerate: the source has no children in the tree; nothing to do.
        } else {
            for msg in 0..num_messages {
                queues[tree.source.index()].push_back((msg, 0));
            }
            send_busy[tree.source.index()] = true;
            heap.push(Event {
                time: 0.0,
                kind: EventKind::SendFree { node: tree.source },
            });
        }

        let mut now = 0.0;
        let mut completed = 0usize;
        while let Some(event) = heap.pop() {
            now = event.time;
            match event.kind {
                EventKind::Arrival { node, msg } => {
                    if let Some(ti) = target_mask[node.index()] {
                        delivered_pairs += 1;
                        delivered_per_target[ti] += 1;
                        if now > makespan {
                            makespan = now;
                        }
                        received_count[msg] += 1;
                        if received_count[msg] == needed {
                            completion_time[msg] = now;
                            completed += 1;
                        }
                    }
                    if !children[node.index()].is_empty() {
                        queues[node.index()].push_back((msg, 0));
                        if !send_busy[node.index()] {
                            heap.push(Event {
                                time: now,
                                kind: EventKind::SendFree { node },
                            });
                            send_busy[node.index()] = true;
                        }
                    }
                }
                EventKind::SendFree { node } => {
                    // Pick the next (message, child) transfer for this node.
                    match queues[node.index()].pop_front() {
                        None => {
                            send_busy[node.index()] = false;
                        }
                        Some((msg, child_idx)) => {
                            let (child, cost, edge) = children[node.index()][child_idx];
                            busy.add_transfer(node, child, cost);
                            let done = now + cost;
                            let crashed =
                                fault.node_down_at(node, now) || fault.node_down_at(child, done);
                            let lost = fault.drop_message(edge, 0, msg);
                            if crashed || lost {
                                fault_events.push(FaultEvent {
                                    time: done,
                                    msg,
                                    tree: 0,
                                    edge,
                                    cause: if crashed {
                                        FaultCause::Crash
                                    } else {
                                        FaultCause::Loss
                                    },
                                });
                            } else {
                                heap.push(Event {
                                    time: done,
                                    kind: EventKind::Arrival { node: child, msg },
                                });
                            }
                            // Re-queue the message if more children remain.
                            if child_idx + 1 < children[node.index()].len() {
                                queues[node.index()].push_front((msg, child_idx + 1));
                            }
                            heap.push(Event {
                                time: done,
                                kind: EventKind::SendFree { node },
                            });
                        }
                    }
                }
            }
        }

        let total_time = now;
        // Steady-state throughput measured between the warmup-th completion
        // and the last completion (in completion-time order).
        let mut completions: Vec<f64> = completion_time
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect();
        completions.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (throughput, period) = if completions.len() > warmup + 1 {
            let t0 = completions[warmup];
            let t1 = *completions.last().expect("non-empty");
            let count = (completions.len() - 1 - warmup) as f64;
            if t1 > t0 {
                (count / (t1 - t0), (t1 - t0) / count)
            } else {
                (f64::INFINITY, 0.0)
            }
        } else {
            (0.0, f64::INFINITY)
        };
        let utilization = if total_time > 0.0 {
            busy.scaled(1.0 / total_time)
        } else {
            OnePortLoads::new(n)
        };
        let pairs = num_messages * needed;
        let delivery_ratio = if pairs > 0 {
            delivered_pairs as f64 / pairs as f64
        } else {
            1.0
        };
        let goodput = if total_time > 0.0 {
            completed as f64 / total_time
        } else {
            0.0
        };

        SimReport {
            total_time,
            completed_multicasts: completed as f64,
            throughput,
            period,
            utilization,
            one_port_violations: 0,
            delivery_ratio,
            target_delivery: targets
                .iter()
                .zip(&delivered_per_target)
                .map(|(&t, &d)| (t, d as f64 / num_messages as f64))
                .collect(),
            goodput,
            fill_latency: completions.first().copied().unwrap_or(f64::INFINITY),
            makespan,
            fault_events,
        }
    }
}

/// Reconstructs the multicast trees of a schedule from its tree-tagged
/// transfers, together with each node's steady-state arrival offset: the
/// edge coloring may split one tree edge's occupation across several slots,
/// so the pieces are re-merged by `(tree, src, dst)` and an edge's crossing
/// completes at its last piece's end within the period.
///
/// Returns `None` when some tag's transfers do not form a tree over
/// platform edges (duplicate receiver, no unique root, disconnected, or a
/// transfer that is not a platform edge) — such schedules replay
/// analytically without per-message delivery tracking.
fn reconstruct_trees(platform: &Platform, schedule: &PeriodicSchedule) -> Option<Vec<ReplayTree>> {
    let period = schedule.period;
    if !(period.is_finite() && period > 0.0) {
        return None;
    }
    // (src, dst) -> (total duration, completion offset) within one tag.
    type TagEdges = BTreeMap<(u32, u32), (f64, f64)>;
    let mut by_tag: BTreeMap<usize, TagEdges> = BTreeMap::new();
    for slot in &schedule.slots {
        for t in &slot.transfers {
            let entry = by_tag
                .entry(t.tree)
                .or_default()
                .entry((t.src.0, t.dst.0))
                .or_insert((0.0, 0.0));
            entry.0 += t.duration;
            let end = slot.offset + t.duration;
            if end > entry.1 {
                entry.1 = end;
            }
        }
    }
    if by_tag.is_empty() {
        return None;
    }
    let n = platform.node_count();
    const NONE: usize = usize::MAX;
    let mut trees = Vec::with_capacity(by_tag.len());
    let mut parent: Vec<Option<(NodeId, EdgeId, f64, f64)>> = vec![None; n];
    let mut is_node = vec![false; n];
    // Each node's children in ascending node order, as a linked list:
    // `first_child[u]` heads it and `next_sibling[v]` follows child `v`.
    let mut first_child = vec![NONE; n];
    let mut next_sibling = vec![NONE; n];
    let mut queue = std::collections::VecDeque::new();
    for (&tag, edges) in &by_tag {
        // Tree shape: every receiver has exactly one incoming transfer.
        parent.fill(None);
        is_node.fill(false);
        for (&(src, dst), &(duration, completion)) in edges {
            let (src, dst) = (NodeId(src), NodeId(dst));
            if src.index() >= n || dst.index() >= n {
                return None;
            }
            let edge = platform.find_edge(src, dst)?;
            if parent[dst.index()].is_some() {
                return None; // two parents: not a tree
            }
            parent[dst.index()] = Some((src, edge, duration, completion));
            is_node[src.index()] = true;
            is_node[dst.index()] = true;
        }
        // Unique root: a node of the tree with no parent.
        let mut roots = (0..n)
            .filter(|&v| is_node[v] && parent[v].is_none())
            .map(|v| NodeId(v as u32));
        let root = roots.next()?;
        if roots.next().is_some() {
            return None;
        }
        first_child.fill(NONE);
        for v in (0..n).rev() {
            if let Some((src, ..)) = parent[v] {
                next_sibling[v] = first_child[src.index()];
                first_child[src.index()] = v;
            }
        }
        // BFS from the root, computing the steady-state arrival offsets: a
        // message available at `src` at offset `a` crosses the edge in the
        // first period whose completion offset is not earlier than `a`.
        let mut arrival = vec![f64::INFINITY; n];
        arrival[root.index()] = 0.0;
        let mut order = Vec::with_capacity(edges.len());
        queue.clear();
        queue.push_back(root);
        let mut rate = 0.0f64;
        let mut rated_edges = 0usize;
        while let Some(u) = queue.pop_front() {
            let mut v = first_child[u.index()];
            while v != NONE {
                let (src, edge, duration, completion) = parent[v].expect("children have a parent");
                let next = next_sibling[v];
                if arrival[v].is_finite() {
                    v = next;
                    continue;
                }
                let a = arrival[u.index()];
                let skipped = if a > completion + 1e-12 {
                    ((a - completion) / period).ceil().max(0.0)
                } else {
                    0.0
                };
                arrival[v] = completion + skipped * period;
                order.push((edge, src, NodeId(v as u32)));
                let cost = platform.edge(edge).cost;
                if cost > 0.0 {
                    rate += duration / (period * cost);
                    rated_edges += 1;
                }
                queue.push_back(NodeId(v as u32));
                v = next;
            }
        }
        if order.len() != edges.len() {
            return None; // disconnected piece or cycle
        }
        let share = if rated_edges > 0 {
            rate / rated_edges as f64
        } else {
            0.0
        };
        trees.push(ReplayTree {
            tag,
            edges: order,
            arrival,
            share,
        });
    }
    let total: f64 = trees.iter().map(|t| t.share).sum();
    if total > 0.0 {
        for tree in &mut trees {
            tree.share /= total;
        }
    } else {
        let uniform = 1.0 / trees.len() as f64;
        for tree in &mut trees {
            tree.share = uniform;
        }
    }
    Some(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_platform::graph::PlatformBuilder;
    use pm_platform::instances::{chain_instance, figure1_instance, MulticastInstance};
    use pm_sched::tree::WeightedTreeSet;

    #[test]
    fn schedule_replay_reports_expected_throughput() {
        let inst = chain_instance(3, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2)]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(tree, 2.0).unwrap(); // 2 messages per time-unit, loads = 1
        let sched = PeriodicSchedule::from_weighted_trees(g, &set, 1.0).unwrap();
        let report = Simulator::default().run_schedule(g, &sched);
        assert_eq!(report.one_port_violations, 0);
        assert!((report.throughput - 2.0).abs() < 1e-9);
        assert!((report.period - 0.5).abs() < 1e-9);
        // Fault-free replays deliver everything.
        assert_eq!(report.delivery_ratio, 1.0);
        assert!((report.goodput - report.throughput).abs() < 1e-9);
        assert!(report.fault_events.is_empty());
        assert!(report.fill_latency.is_finite());
    }

    #[test]
    fn schedule_replay_measures_fill_latency_from_the_slots() {
        // Chain 0 -> 1 -> 2 at cost 0.5, one message per unit period: the
        // pipeline fills in 1.5 periods at most (two crossings, the second
        // waiting for the next period's slot).
        let inst = chain_instance(3, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2)]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(tree, 1.0).unwrap();
        let sched = PeriodicSchedule::from_weighted_trees(g, &set, 1.0).unwrap();
        let report = Simulator::default().run_schedule(g, &sched);
        assert!(report.fill_latency > 0.0);
        assert!(report.fill_latency <= 2.0, "fill {}", report.fill_latency);
        assert!(report.makespan <= report.total_time + 1e-9);
    }

    #[test]
    fn masked_transfer_is_a_structured_error_not_a_degraded_report() {
        let inst = chain_instance(3, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2)]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(tree, 1.0).unwrap();
        let sched = PeriodicSchedule::from_weighted_trees(g, &set, 1.0).unwrap();
        let mut mask = NodeMask::full(g.node_count());
        mask.remove(NodeId(1));
        let err = Simulator::default()
            .run_schedule_on(g, &mask, &sched, &inst.targets)
            .unwrap_err();
        match err {
            SimError::MaskedTransfer { disabled, .. } => assert_eq!(disabled, NodeId(1)),
        }
    }

    #[test]
    fn total_loss_on_a_chain_edge_kills_downstream_delivery() {
        let inst = chain_instance(3, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2)]).unwrap();
        let mut set = WeightedTreeSet::new();
        set.push(tree, 1.0).unwrap();
        let sched = PeriodicSchedule::from_weighted_trees(g, &set, 1.0).unwrap();
        let sim = Simulator::new(SimulationConfig {
            faults: Some(FaultModel::default().with_edge_loss(e(1, 2), 1.0)),
            ..SimulationConfig::default()
        });
        let report = sim
            .run_schedule_on(g, &NodeMask::full(3), &sched, &inst.targets)
            .unwrap();
        // The only target (node 2) sits behind the dead edge: zero delivery.
        assert_eq!(report.delivery_ratio, 0.0);
        assert_eq!(report.target_delivery, vec![(NodeId(2), 0.0)]);
        assert_eq!(report.goodput, 0.0);
        assert!(!report.fault_events.is_empty());
        // The scheduled-rate fields are fault-independent.
        assert!((report.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_loss_model_matches_fault_free_bit_for_bit() {
        let inst = figure1_instance();
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(
            &inst,
            vec![
                e(0, 1),
                e(0, 3),
                e(3, 2),
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
        set.push(tree, 0.5).unwrap();
        let sched = PeriodicSchedule::from_weighted_trees(g, &set, 2.0).unwrap();
        let plain = Simulator::default().run_schedule(g, &sched);
        let zeroed = Simulator::new(SimulationConfig {
            faults: Some(FaultModel::lossy(123, 0.0)),
            ..SimulationConfig::default()
        })
        .run_schedule(g, &sched);
        assert_eq!(plain, zeroed);
    }

    #[test]
    fn tree_pipeline_matches_the_analytical_period_on_a_chain() {
        let inst = chain_instance(4, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2), e(2, 3)]).unwrap();
        let sim = Simulator::new(SimulationConfig {
            horizon: 300,
            warmup: 30,
            ..SimulationConfig::default()
        });
        let report = sim.run_tree_pipeline(g, &tree, &inst.targets);
        assert!((report.period - tree.period(g)).abs() < 1e-6);
        assert_eq!(report.completed_multicasts, 300.0);
        assert_eq!(report.delivery_ratio, 1.0);
    }

    #[test]
    fn tree_pipeline_matches_the_analytical_period_on_a_star() {
        // Source with 3 children, costs 1, 2, 3: the send port serializes
        // them, period = 6.
        let mut b = PlatformBuilder::new();
        let s = b.add_node();
        let c1 = b.add_node();
        let c2 = b.add_node();
        let c3 = b.add_node();
        b.add_edge(s, c1, 1.0).unwrap();
        b.add_edge(s, c2, 2.0).unwrap();
        b.add_edge(s, c3, 3.0).unwrap();
        let g = b.build().unwrap();
        let inst = MulticastInstance::new(g.clone(), s, vec![c1, c2, c3]).unwrap();
        let e = |a: NodeId, b: NodeId| g.find_edge(a, b).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(s, c1), e(s, c2), e(s, c3)]).unwrap();
        let sim = Simulator::new(SimulationConfig {
            horizon: 200,
            warmup: 20,
            ..SimulationConfig::default()
        });
        let report = sim.run_tree_pipeline(&g, &tree, &inst.targets);
        assert!((tree.period(&g) - 6.0).abs() < 1e-12);
        assert!((report.period - 6.0).abs() < 1e-6);
    }

    #[test]
    fn tree_pipeline_on_figure1_single_tree_matches_its_period() {
        let inst = figure1_instance();
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        // The best single tree of the worked example (throughput 2/3).
        let tree = MulticastTree::new(
            &inst,
            vec![
                e(0, 1),
                e(0, 3),
                e(3, 2),
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
        let sim = Simulator::new(SimulationConfig {
            horizon: 400,
            warmup: 50,
            ..SimulationConfig::default()
        });
        let report = sim.run_tree_pipeline(g, &tree, &inst.targets);
        let analytical = tree.period(g);
        assert!(
            (report.period - analytical).abs() < 1e-3,
            "measured {} vs analytical {analytical}",
            report.period
        );
        assert_eq!(report.one_port_violations, 0);
    }

    #[test]
    fn tree_pipeline_under_loss_degrades_and_logs_events() {
        let inst = chain_instance(4, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2), e(2, 3)]).unwrap();
        let sim = Simulator::new(SimulationConfig {
            horizon: 300,
            warmup: 30,
            faults: Some(FaultModel::lossy(7, 0.2)),
            ..SimulationConfig::default()
        });
        let report = sim.run_tree_pipeline(g, &tree, &inst.targets);
        assert!(report.delivery_ratio < 1.0);
        assert!(report.delivery_ratio > 0.2);
        assert!(!report.fault_events.is_empty());
        // The delivered rate sits below the fault-free analytic rate.
        assert!(report.goodput < 1.0 / tree.period(g));
    }

    #[test]
    fn tree_pipeline_crash_window_loses_messages_then_recovers() {
        let inst = chain_instance(3, 1.0);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2)]).unwrap();
        let sim = Simulator::new(SimulationConfig {
            horizon: 50,
            warmup: 0,
            faults: Some(FaultModel::default().with_crash(NodeId(1), 5.0, 10.0)),
            ..SimulationConfig::default()
        });
        let report = sim.run_tree_pipeline(g, &tree, &inst.targets);
        assert!(report.delivery_ratio < 1.0, "outage loses deliveries");
        assert!(report.delivery_ratio > 0.5, "recovery resumes deliveries");
        assert!(report
            .fault_events
            .iter()
            .all(|ev| ev.cause == FaultCause::Crash));
    }

    #[test]
    fn fill_makespan_is_the_single_message_latency() {
        // Chain of 3 hops at cost 0.5: one message reaches the last node
        // after 1.5 time units.
        let inst = chain_instance(4, 0.5);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2), e(2, 3)]).unwrap();
        let makespan = Simulator::tree_fill_makespan(g, &tree);
        assert!((makespan - 1.5).abs() < 1e-12, "makespan {makespan}");
    }

    /// A seeded random tree: up to 24 nodes, where each node hangs below one
    /// of the first few earlier nodes (so parents have several children),
    /// the edges are added in shuffled order (so edge ids do not follow the
    /// tree), and a quarter of the edges cost 1e-300, which vanishes next
    /// to any arrival time: the zero-cost case, since a platform refuses
    /// costs of zero. Extra reverse edges stay out of the tree.
    fn random_tree(seed: u64) -> (Platform, MulticastTree) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..24usize);
        let mut links: Vec<(u32, u32, f64, bool)> = (1..n as u32)
            .map(|v| {
                let parent = rng.gen_range(0..v.min(4));
                let cost = if rng.gen_bool(0.25) {
                    1e-300
                } else {
                    rng.gen_range(0.1..2.0)
                };
                (parent, v, cost, true)
            })
            .collect();
        for v in 1..n as u32 {
            if rng.gen_bool(0.3) {
                links.push((v, rng.gen_range(0..v), 1.0, false));
            }
        }
        links.shuffle(&mut rng);
        let mut b = PlatformBuilder::new();
        let nodes = b.add_nodes(n);
        for &(u, v, cost, _) in &links {
            let _ = b.add_edge(nodes[u as usize], nodes[v as usize], cost);
        }
        let g = b.build().unwrap();
        let tree_edges: Vec<EdgeId> = links
            .iter()
            .filter(|l| l.3)
            .map(|&(u, v, ..)| g.find_edge(NodeId(u), NodeId(v)).unwrap())
            .collect();
        let targets = vec![NodeId(n as u32 - 1)];
        let inst = MulticastInstance::new(g.clone(), NodeId(0), targets).unwrap();
        let tree = MulticastTree::new(&inst, tree_edges).unwrap();
        (g, tree)
    }

    #[test]
    fn one_pass_fill_makespan_is_the_event_replay_bit_for_bit() {
        let one_shot = Simulator::new(SimulationConfig {
            horizon: 1,
            warmup: 0,
            ..SimulationConfig::default()
        });
        let mut branching = 0;
        for seed in 0..200 {
            let (g, tree) = random_tree(seed);
            let replayed = one_shot.run_tree_pipeline(&g, &tree, &[]).total_time;
            let one_pass = Simulator::tree_fill_makespan(&g, &tree);
            assert_eq!(one_pass.to_bits(), replayed.to_bits(), "seed {seed}");
            let mut children = vec![0; g.node_count()];
            for &e in tree.edges() {
                children[g.edge(e).src.index()] += 1;
            }
            branching += children.iter().filter(|&&c| c > 1).count();
        }
        assert!(branching > 200, "few nodes with several children");
    }

    #[test]
    fn warmup_larger_than_horizon_is_clamped() {
        let inst = chain_instance(3, 1.0);
        let g = &inst.platform;
        let e = |a: u32, b: u32| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        let tree = MulticastTree::new(&inst, vec![e(0, 1), e(1, 2)]).unwrap();
        let sim = Simulator::new(SimulationConfig {
            horizon: 5,
            warmup: 100,
            ..SimulationConfig::default()
        });
        let report = sim.run_tree_pipeline(g, &tree, &inst.targets);
        assert!(report.completed_multicasts >= 5.0 - 1e-9);
        assert!(report.throughput.is_finite());
    }
}
