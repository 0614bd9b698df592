//! Weighted bipartite edge coloring under the one-port model.
//!
//! Given a set of communication tasks (sender, receiver, duration), the
//! one-port model forbids a node from being involved in two sends (or two
//! receives) at the same instant. The weighted version of König's edge
//! coloring theorem states that all the tasks can be scheduled — allowing
//! preemption — within a makespan equal to the largest *port load*, i.e. the
//! maximum over nodes of the total send duration or total receive duration.
//!
//! The paper relies on this result twice: to check certificates in the
//! NP-membership proofs (Theorems 1 and 3) and to turn LP solutions or
//! weighted tree sets into actual periodic schedules. The procedure below is
//! the classical constructive proof: repeatedly extract a matching of the
//! bipartite (send-port, receive-port) multigraph that covers every
//! *critical* (maximally loaded) port, schedule it for as long as possible,
//! and recurse on the remaining durations. The number of produced slots is
//! polynomial in the number of tasks.

use pm_platform::graph::NodeId;
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-9;

/// One communication task: `src` sends to `dst` for `duration` time-units in
/// total (possibly split across several slots of the resulting schedule).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommTask {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Total communication time required.
    pub duration: f64,
    /// Free-form tag propagated to the schedule (e.g. the index of the
    /// multicast tree this transfer belongs to).
    pub tag: usize,
}

/// One slot of the colored schedule: all assignments in a slot run in
/// parallel, which is legal because they form a matching of the port graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColorSlot {
    /// Length of the slot.
    pub duration: f64,
    /// `(task index, time used)` pairs; `time used` always equals the slot
    /// duration except possibly for bookkeeping of numerically tiny residues.
    pub assignments: Vec<(usize, f64)>,
}

/// The result of [`schedule_tasks`]: an ordered list of slots whose total
/// duration (the makespan) matches the maximum port load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColoredSchedule {
    /// Total length of the schedule.
    pub makespan: f64,
    /// The slots, in chronological order.
    pub slots: Vec<ColorSlot>,
}

impl ColoredSchedule {
    /// Verifies that the schedule is one-port compliant (no port reused
    /// within a slot) and that every task received its full duration.
    pub fn validate(&self, tasks: &[CommTask], tol: f64) -> bool {
        let mut done = vec![0.0; tasks.len()];
        for slot in &self.slots {
            let mut senders = Vec::new();
            let mut receivers = Vec::new();
            for &(idx, used) in &slot.assignments {
                if idx >= tasks.len() || used > slot.duration + tol {
                    return false;
                }
                let t = &tasks[idx];
                if senders.contains(&t.src) || receivers.contains(&t.dst) {
                    return false;
                }
                senders.push(t.src);
                receivers.push(t.dst);
                done[idx] += used;
            }
        }
        tasks
            .iter()
            .zip(&done)
            .all(|(t, &d)| (d - t.duration).abs() <= tol * (1.0 + t.duration))
    }
}

/// Port loads of the remaining work, separately for send ports and receive
/// ports, written over `send` and `recv` (one entry per node).
fn port_loads(tasks: &[CommTask], remaining: &[f64], send: &mut [f64], recv: &mut [f64]) {
    send.fill(0.0);
    recv.fill(0.0);
    for (t, &r) in tasks.iter().zip(remaining) {
        if r > EPS {
            send[t.src.index()] += r;
            recv[t.dst.index()] += r;
        }
    }
}

/// The tasks with work left at every port of one side, in task order: the
/// tasks of port `p` are `tasks[start[p]..start[p + 1]]`.
#[derive(Debug, Default)]
struct Incidence {
    start: Vec<usize>,
    tasks: Vec<usize>,
}

impl Incidence {
    /// Rebuilds the lists from the tasks whose remaining work exceeds
    /// [`EPS`], each listed at `port(task)`.
    fn rebuild(
        &mut self,
        num_nodes: usize,
        tasks: &[CommTask],
        remaining: &[f64],
        port: impl Fn(&CommTask) -> usize,
    ) {
        self.start.clear();
        self.start.resize(num_nodes + 1, 0);
        for (t, &r) in tasks.iter().zip(remaining) {
            if r > EPS {
                self.start[port(t)] += 1;
            }
        }
        // Running sums: `start[p]` becomes the end of port p's tasks.
        for p in 1..=num_nodes {
            self.start[p] += self.start[p - 1];
        }
        self.tasks.clear();
        self.tasks.resize(self.start[num_nodes], 0);
        // Filling each port from its end, in reverse task order, keeps the
        // tasks in order and leaves `start[p]` at the port's first task.
        for (i, (t, &r)) in tasks.iter().zip(remaining).enumerate().rev() {
            if r > EPS {
                let p = port(t);
                self.start[p] -= 1;
                self.tasks[self.start[p]] = i;
            }
        }
    }

    /// The tasks of `port`.
    fn of(&self, port: usize) -> &[usize] {
        &self.tasks[self.start[port]..self.start[port + 1]]
    }
}

/// Storage of the alternating-path searches: visit stamps and the DFS of
/// [`repair_side`].
#[derive(Debug)]
struct Search {
    /// Port `v` is visited by the current search iff `visited[v] == epoch`.
    visited: Vec<u32>,
    epoch: u32,
    /// DFS paths as parent pointers: entry `(parent, non-matching task,
    /// matching task)`, with [`NO_ENTRY`] as the parent of a first step.
    arena: Vec<(usize, usize, usize)>,
    /// DFS stack: `(port, arena entry of the path that reached it)`.
    stack: Vec<(usize, usize)>,
    /// A path to flip, root to leaf.
    path: Vec<(usize, usize)>,
}

/// The empty path of the [`Search`] arena.
const NO_ENTRY: usize = usize::MAX;

impl Search {
    fn new(num_nodes: usize) -> Self {
        // A search visits every port at most once and extends a path only
        // to a port it has not visited: at most one entry per port, plus
        // the step to the released port.
        Search {
            visited: vec![0; num_nodes],
            epoch: 0,
            arena: Vec::with_capacity(num_nodes + 1),
            stack: Vec::with_capacity(num_nodes),
            path: Vec::with_capacity(num_nodes),
        }
    }

    /// Starts a search with no port visited.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn visited(&self, port: usize) -> bool {
        self.visited[port] == self.epoch
    }

    fn visit(&mut self, port: usize) {
        self.visited[port] = self.epoch;
    }

    /// Loads the path ending at arena entry `leaf` into `path`, root first.
    fn load_path(&mut self, mut leaf: usize) {
        self.path.clear();
        while leaf != NO_ENTRY {
            let (parent, e, m) = self.arena[leaf];
            self.path.push((e, m));
            leaf = parent;
        }
        self.path.reverse();
    }
}

/// The working storage of one [`schedule_tasks`] call, reset at every slot.
#[derive(Debug)]
struct Scratch {
    send: Vec<f64>,
    recv: Vec<f64>,
    critical_send: Vec<bool>,
    critical_recv: Vec<bool>,
    covered_send: Vec<bool>,
    covered_recv: Vec<bool>,
    by_send: Incidence,
    by_recv: Incidence,
    /// `matched_send[s]`: the task matched at send port `s`.
    matched_send: Vec<Option<usize>>,
    matched_recv: Vec<Option<usize>>,
    /// The matched tasks, in send-port order.
    matched: Vec<usize>,
    search: Search,
}

impl Scratch {
    fn new(num_nodes: usize) -> Self {
        Scratch {
            send: vec![0.0; num_nodes],
            recv: vec![0.0; num_nodes],
            critical_send: vec![false; num_nodes],
            critical_recv: vec![false; num_nodes],
            covered_send: vec![false; num_nodes],
            covered_recv: vec![false; num_nodes],
            by_send: Incidence::default(),
            by_recv: Incidence::default(),
            matched_send: vec![None; num_nodes],
            matched_recv: vec![None; num_nodes],
            matched: Vec::with_capacity(num_nodes),
            search: Search::new(num_nodes),
        }
    }

    /// Finds a matching (one task per send port, one per receive port)
    /// covering every critical port, into `matched_send`/`matched_recv`
    /// and, in send-port order, `matched`. `critical_send`/`critical_recv`
    /// flag the ports whose load equals the current maximum.
    ///
    /// The construction is the classical one: start from a maximum
    /// matching, then for every uncovered critical port flip an
    /// alternating path that ends, with a matching edge, at a
    /// *non-critical* port of the same side. Such a path always exists when
    /// the critical ports carry the maximum load, so the matching covers
    /// every critical port.
    fn critical_matching(&mut self, num_nodes: usize, tasks: &[CommTask], remaining: &[f64]) {
        self.matched_send.fill(None);
        self.matched_recv.fill(None);
        // Incidence lists restricted to tasks with work left.
        self.by_send
            .rebuild(num_nodes, tasks, remaining, |t| t.src.index());
        self.by_recv
            .rebuild(num_nodes, tasks, remaining, |t| t.dst.index());

        // Standard augmenting-path maximum matching built from the send side.
        for s in 0..num_nodes {
            if self.by_send.of(s).is_empty() || self.matched_send[s].is_some() {
                continue;
            }
            self.search.next_epoch();
            try_augment(
                s,
                &self.by_send,
                tasks,
                &mut self.matched_send,
                &mut self.matched_recv,
                &mut self.search,
            );
        }

        // Repair from the send side: cover every critical, uncovered send
        // port by flipping an alternating path
        //   s0 -e1- r1 -m1- s1 -e2- r2 -m2- s2 ...
        // that stops at the first s_k which is non-critical (s_k loses its
        // match, everything else stays covered and s0 becomes covered).
        repair_side(
            num_nodes,
            tasks,
            &self.critical_send,
            &self.by_send,
            &mut self.matched_send,
            &mut self.matched_recv,
            true,
            &mut self.search,
        );
        // Symmetric repair from the receive side.
        repair_side(
            num_nodes,
            tasks,
            &self.critical_recv,
            &self.by_recv,
            &mut self.matched_recv,
            &mut self.matched_send,
            false,
            &mut self.search,
        );

        self.matched.clear();
        self.matched
            .extend(self.matched_send.iter().filter_map(|&m| m));
    }
}

/// Augments the matching along a path from send port `s`, visiting every
/// receive port at most once per search.
fn try_augment(
    s: usize,
    by_send: &Incidence,
    tasks: &[CommTask],
    matched_send: &mut [Option<usize>],
    matched_recv: &mut [Option<usize>],
    search: &mut Search,
) -> bool {
    for &task_idx in by_send.of(s) {
        let r = tasks[task_idx].dst.index();
        if search.visited(r) {
            continue;
        }
        search.visit(r);
        let free = match matched_recv[r] {
            None => true,
            Some(other_task) => {
                let other_send = tasks[other_task].src.index();
                try_augment(
                    other_send,
                    by_send,
                    tasks,
                    matched_send,
                    matched_recv,
                    search,
                )
            }
        };
        if free {
            matched_send[s] = Some(task_idx);
            matched_recv[r] = Some(task_idx);
            return true;
        }
    }
    false
}

/// Flips alternating paths so that every critical port of one side becomes
/// covered. `incidence` lists the usable tasks per port of that side;
/// `matched_this` / `matched_other` are the matching maps of this side and of
/// the opposite side. `from_send_side` selects how task endpoints map to the
/// two sides.
#[allow(clippy::too_many_arguments)]
fn repair_side(
    num_nodes: usize,
    tasks: &[CommTask],
    critical: &[bool],
    incidence: &Incidence,
    matched_this: &mut [Option<usize>],
    matched_other: &mut [Option<usize>],
    from_send_side: bool,
    search: &mut Search,
) {
    let this_port = |task: &CommTask| {
        if from_send_side {
            task.src.index()
        } else {
            task.dst.index()
        }
    };
    let other_port = |task: &CommTask| {
        if from_send_side {
            task.dst.index()
        } else {
            task.src.index()
        }
    };

    for start in 0..num_nodes {
        if !critical[start] || matched_this[start].is_some() || incidence.of(start).is_empty() {
            continue;
        }
        // DFS over alternating paths. Stack entries: (port on this side,
        // arena entry of the (non-matching task, matching task) path used
        // to reach it).
        search.next_epoch();
        search.visit(start);
        search.arena.clear();
        search.stack.clear();
        search.stack.push((start, NO_ENTRY));
        'dfs: while let Some((s, path)) = search.stack.pop() {
            for &e in incidence.of(s) {
                let r = other_port(&tasks[e]);
                match matched_other[r] {
                    None => {
                        // Augmenting path: flip the non-matching edges.
                        search.load_path(path);
                        apply_flip(
                            &search.path,
                            tasks,
                            matched_this,
                            matched_other,
                            this_port,
                            other_port,
                            None,
                        );
                        matched_this[s] = Some(e);
                        matched_other[r] = Some(e);
                        // `start` is covered through the flipped path (or is
                        // `s` itself when the path is empty).
                        break 'dfs;
                    }
                    Some(m) => {
                        let s_next = this_port(&tasks[m]);
                        if s_next == s || search.visited(s_next) {
                            continue;
                        }
                        search.arena.push((path, e, m));
                        let new_path = search.arena.len() - 1;
                        if !critical[s_next] {
                            // Flip: s_next gives up its match, every other
                            // port on the path stays covered, start is now
                            // covered.
                            search.load_path(new_path);
                            apply_flip(
                                &search.path,
                                tasks,
                                matched_this,
                                matched_other,
                                this_port,
                                other_port,
                                Some(s_next),
                            );
                            break 'dfs;
                        }
                        search.visit(s_next);
                        search.stack.push((s_next, new_path));
                    }
                }
            }
        }
    }
}

/// Applies the flip of an alternating path described by `(non_matching_task,
/// matching_task)` pairs: each non-matching task becomes matched, each
/// matching task becomes unmatched, and `released` (if any) ends up uncovered
/// on "this" side.
fn apply_flip(
    path: &[(usize, usize)],
    tasks: &[CommTask],
    matched_this: &mut [Option<usize>],
    matched_other: &mut [Option<usize>],
    this_port: impl Fn(&CommTask) -> usize,
    other_port: impl Fn(&CommTask) -> usize,
    released: Option<usize>,
) {
    for &(e, _m) in path {
        let sp = this_port(&tasks[e]);
        let rp = other_port(&tasks[e]);
        matched_this[sp] = Some(e);
        matched_other[rp] = Some(e);
    }
    if let Some(rel) = released {
        // The released port's former matching task is superseded above; only
        // clear it if nothing re-matched it (it is the last port of the path).
        let still = matched_this[rel];
        if let Some(task_idx) = still {
            let rp = other_port(&tasks[task_idx]);
            if matched_other[rp] != Some(task_idx) {
                matched_this[rel] = None;
            } else {
                // The path did not actually go through `rel`'s match; keep it.
            }
        }
    }
}

/// Schedules all tasks preemptively under the one-port model.
///
/// The resulting makespan equals the maximum port load whenever the matching
/// extraction succeeds in covering every critical port at every step (which
/// the König argument guarantees for bipartite multigraphs); a small safety
/// margin above the bound can appear on numerically degenerate inputs, and
/// [`ColoredSchedule::validate`] always holds.
///
/// Every slot reuses one per-call set of buffers: besides that set, the
/// call allocates only its output (the slot list and each slot's
/// assignments).
pub fn schedule_tasks(num_nodes: usize, tasks: &[CommTask]) -> ColoredSchedule {
    let mut remaining: Vec<f64> = tasks.iter().map(|t| t.duration.max(0.0)).collect();
    let mut slots = Vec::new();
    let mut makespan = 0.0;
    let mut s = Scratch::new(num_nodes);

    let max_slots = 4 * (tasks.len() + 1) * (num_nodes + 1);
    for _ in 0..max_slots {
        port_loads(tasks, &remaining, &mut s.send, &mut s.recv);
        let max_load = s
            .send
            .iter()
            .chain(s.recv.iter())
            .copied()
            .fold(0.0, f64::max);
        if max_load <= EPS {
            break;
        }
        for (c, &l) in s.critical_send.iter_mut().zip(&s.send) {
            *c = l >= max_load - EPS;
        }
        for (c, &l) in s.critical_recv.iter_mut().zip(&s.recv) {
            *c = l >= max_load - EPS;
        }

        s.critical_matching(num_nodes, tasks, &remaining);
        if s.matched.is_empty() {
            break;
        }

        // Largest slot duration that keeps the critical ports critical:
        //  - no matched task may run longer than its remaining duration,
        //  - no uncovered port may become the (strictly) most loaded port.
        let mut delta = s
            .matched
            .iter()
            .map(|&i| remaining[i])
            .fold(f64::INFINITY, f64::min);
        s.covered_send.fill(false);
        s.covered_recv.fill(false);
        for &i in &s.matched {
            s.covered_send[tasks[i].src.index()] = true;
            s.covered_recv[tasks[i].dst.index()] = true;
        }
        let mut uncovered_max: f64 = 0.0;
        for v in 0..num_nodes {
            if !s.covered_send[v] {
                uncovered_max = uncovered_max.max(s.send[v]);
            }
            if !s.covered_recv[v] {
                uncovered_max = uncovered_max.max(s.recv[v]);
            }
        }
        let slack = max_load - uncovered_max;
        if uncovered_max > EPS && slack > EPS {
            delta = delta.min(slack);
        }
        if !delta.is_finite() || delta <= 0.0 {
            break;
        }

        let assignments: Vec<(usize, f64)> = s
            .matched
            .iter()
            .map(|&i| {
                let used = delta.min(remaining[i]);
                (i, used)
            })
            .collect();
        for &(i, used) in &assignments {
            remaining[i] -= used;
            if remaining[i] < EPS {
                remaining[i] = 0.0;
            }
        }
        makespan += delta;
        slots.push(ColorSlot {
            duration: delta,
            assignments,
        });
    }

    ColoredSchedule { makespan, slots }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(src: u32, dst: u32, duration: f64) -> CommTask {
        CommTask {
            src: NodeId(src),
            dst: NodeId(dst),
            duration,
            tag: 0,
        }
    }

    fn max_port_load(num_nodes: usize, tasks: &[CommTask]) -> f64 {
        let remaining: Vec<f64> = tasks.iter().map(|t| t.duration).collect();
        let (mut send, mut recv) = (vec![0.0; num_nodes], vec![0.0; num_nodes]);
        port_loads(tasks, &remaining, &mut send, &mut recv);
        send.iter().chain(recv.iter()).copied().fold(0.0, f64::max)
    }

    #[test]
    fn single_task_takes_its_duration() {
        let tasks = vec![task(0, 1, 2.5)];
        let sched = schedule_tasks(2, &tasks);
        assert!((sched.makespan - 2.5).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let tasks = vec![task(0, 1, 1.0), task(2, 3, 1.0)];
        let sched = schedule_tasks(4, &tasks);
        assert!((sched.makespan - 1.0).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
        assert_eq!(sched.slots.len(), 1);
        assert_eq!(sched.slots[0].assignments.len(), 2);
    }

    #[test]
    fn same_sender_tasks_are_serialized() {
        let tasks = vec![task(0, 1, 1.0), task(0, 2, 2.0)];
        let sched = schedule_tasks(3, &tasks);
        assert!((sched.makespan - 3.0).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
    }

    #[test]
    fn same_receiver_tasks_are_serialized() {
        let tasks = vec![task(0, 2, 1.5), task(1, 2, 0.5)];
        let sched = schedule_tasks(3, &tasks);
        assert!((sched.makespan - 2.0).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
    }

    #[test]
    fn send_and_receive_can_overlap_on_the_same_node() {
        // Node 1 receives from 0 and sends to 2: legal simultaneously.
        let tasks = vec![task(0, 1, 1.0), task(1, 2, 1.0)];
        let sched = schedule_tasks(3, &tasks);
        assert!((sched.makespan - 1.0).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
    }

    #[test]
    fn ring_exchange_achieves_the_port_load_bound() {
        // 0 -> 1, 1 -> 2, 2 -> 0, all duration 1: perfectly parallel.
        let tasks = vec![task(0, 1, 1.0), task(1, 2, 1.0), task(2, 0, 1.0)];
        let sched = schedule_tasks(3, &tasks);
        assert!((sched.makespan - 1.0).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
    }

    /// The per-edge occupations of the optimal Figure 1 solution (one
    /// time-unit of steady state): max port load is exactly 1.
    fn figure1_mix() -> Vec<CommTask> {
        vec![
            task(0, 1, 0.5),
            task(0, 3, 0.5),
            task(3, 2, 0.5),
            task(2, 1, 0.5),
            task(3, 4, 0.5),
            task(4, 5, 1.0),
            task(5, 6, 0.5),
            task(2, 6, 0.5),
            task(6, 7, 1.0),
            task(1, 11, 1.0),
            task(7, 8, 0.2),
            task(7, 9, 0.2),
            task(7, 10, 0.2),
            task(11, 12, 0.1),
            task(11, 13, 0.1),
        ]
    }

    #[test]
    fn figure1_like_mix_meets_the_bound() {
        let tasks = figure1_mix();
        let bound = max_port_load(14, &tasks);
        assert!((bound - 1.0).abs() < 1e-9);
        let sched = schedule_tasks(14, &tasks);
        assert!(sched.validate(&tasks, 1e-9));
        assert!(
            sched.makespan <= bound + 1e-6,
            "makespan {} exceeds the König bound {}",
            sched.makespan,
            bound
        );
    }

    #[test]
    fn zero_duration_tasks_are_ignored() {
        let tasks = vec![task(0, 1, 0.0), task(0, 2, 1.0)];
        let sched = schedule_tasks(3, &tasks);
        assert!((sched.makespan - 1.0).abs() < 1e-9);
        assert!(sched.validate(&tasks, 1e-9));
    }

    /// A seeded task set: node count and tasks, with the node and task
    /// counts drawn from the given ranges.
    fn random_task_set(
        seed: u64,
        nodes: std::ops::Range<usize>,
        count: std::ops::Range<usize>,
    ) -> (usize, Vec<CommTask>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(nodes);
        let m = rng.gen_range(count);
        let tasks = (0..m)
            .map(|_| {
                let src = rng.gen_range(0..n) as u32;
                let mut dst = rng.gen_range(0..n) as u32;
                while dst == src {
                    dst = rng.gen_range(0..n) as u32;
                }
                task(src, dst, rng.gen_range(0.05..2.0))
            })
            .collect();
        (n, tasks)
    }

    #[test]
    fn randomised_instances_meet_the_bound() {
        for seed in 0..30u64 {
            let (n, tasks) = random_task_set(seed, 3..10, 1..25);
            let bound = max_port_load(n, &tasks);
            let sched = schedule_tasks(n, &tasks);
            assert!(
                sched.validate(&tasks, 1e-7),
                "seed {seed}: invalid schedule"
            );
            assert!(
                sched.makespan <= bound * (1.0 + 1e-6) + 1e-6,
                "seed {seed}: makespan {} exceeds bound {}",
                sched.makespan,
                bound
            );
        }
    }

    /// Every slot of every schedule is the one the per-slot allocating
    /// coloring produced: an FNV-1a hash over each schedule's slot count and
    /// each slot's duration bits and `(task, time used)` assignments, over
    /// the seeded task sets of `randomised_instances_meet_the_bound`, ten
    /// larger ones (up to 40 nodes and 200 tasks, so the alternating-path
    /// repair runs deep) and the Figure 1 mix. A change to the matching,
    /// its port order or a tie moves the hash.
    #[test]
    fn schedule_tasks_is_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let sets = (0..30u64)
            .map(|seed| random_task_set(seed, 3..10, 1..25))
            .chain((100..110u64).map(|seed| random_task_set(seed, 10..40, 25..200)))
            .chain(std::iter::once((14, figure1_mix())));
        for (n, tasks) in sets {
            let sched = schedule_tasks(n, &tasks);
            eat(sched.slots.len() as u64);
            for slot in &sched.slots {
                eat(slot.duration.to_bits());
                eat(slot.assignments.len() as u64);
                for &(i, used) in &slot.assignments {
                    eat(i as u64);
                    eat(used.to_bits());
                }
            }
        }
        assert_eq!(h, 0xf4bc_d837_eeab_9024, "schedule hash {h:#018x}");
    }
}
