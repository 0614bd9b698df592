//! Multicast problem instances (platform + source + target set) and the
//! reference instances used throughout the paper.

use crate::algo::all_reachable;
use crate::graph::{NodeId, Platform, PlatformBuilder, PlatformError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors raised when assembling a [`MulticastInstance`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// The underlying platform was invalid.
    Platform(PlatformError),
    /// A node id used as source or target does not exist in the platform.
    UnknownNode(NodeId),
    /// The target set is empty.
    NoTargets,
    /// Some target cannot be reached from the source at all.
    UnreachableTarget(NodeId),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Platform(e) => write!(f, "invalid platform: {e}"),
            InstanceError::UnknownNode(n) => write!(f, "unknown node {n}"),
            InstanceError::NoTargets => write!(f, "target set is empty"),
            InstanceError::UnreachableTarget(n) => write!(f, "target {n} unreachable from source"),
        }
    }
}

impl std::error::Error for InstanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InstanceError::Platform(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for InstanceError {
    fn from(e: PlatformError) -> Self {
        InstanceError::Platform(e)
    }
}

/// An instance of the *Series of Multicasts* problem
/// `Series(V, E, c, Psource, Ptarget)`: a platform, the source processor and
/// the set of destination processors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MulticastInstance {
    /// The platform graph `G = (V, E, c)`.
    pub platform: Platform,
    /// The source processor `Psource` holding all messages initially.
    pub source: NodeId,
    /// The destination processors `Ptarget` (sorted, deduplicated, never
    /// containing the source).
    pub targets: Vec<NodeId>,
}

impl MulticastInstance {
    /// Builds and validates an instance.
    ///
    /// Targets are sorted and deduplicated; the source is removed from the
    /// target set if present (the source trivially holds every message).
    pub fn new(
        platform: Platform,
        source: NodeId,
        targets: Vec<NodeId>,
    ) -> Result<Self, InstanceError> {
        let targets = Self::validated_targets(&platform, source, targets)?;
        Ok(Self {
            platform,
            source,
            targets,
        })
    }

    /// The target set [`MulticastInstance::new`] would store for `source`
    /// and `targets` on `platform`, checked the same way, without building
    /// (or cloning a platform into) an instance.
    pub fn validated_targets(
        platform: &Platform,
        source: NodeId,
        targets: Vec<NodeId>,
    ) -> Result<Vec<NodeId>, InstanceError> {
        let n = platform.node_count() as u32;
        if source.0 >= n {
            return Err(InstanceError::UnknownNode(source));
        }
        let mut targets: Vec<NodeId> = targets.into_iter().filter(|&t| t != source).collect();
        targets.sort_unstable();
        targets.dedup();
        if targets.is_empty() {
            return Err(InstanceError::NoTargets);
        }
        for &t in &targets {
            if t.0 >= n {
                return Err(InstanceError::UnknownNode(t));
            }
        }
        if !all_reachable(platform, source, &targets) {
            let unreachable = targets
                .iter()
                .copied()
                .find(|&t| !all_reachable(platform, source, &[t]))
                .expect("at least one target is unreachable");
            return Err(InstanceError::UnreachableTarget(unreachable));
        }
        Ok(targets)
    }

    /// Number of targets `|Ptarget|`.
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// Whether this instance is a broadcast (every non-source node is a target).
    pub fn is_broadcast(&self) -> bool {
        self.targets.len() == self.platform.node_count() - 1
    }

    /// Whether `node` belongs to the target set.
    pub fn is_target(&self, node: NodeId) -> bool {
        self.targets.binary_search(&node).is_ok()
    }

    /// The broadcast instance on the same platform and source (targets = all
    /// other nodes).
    pub fn as_broadcast(&self) -> MulticastInstance {
        let targets = self
            .platform
            .nodes()
            .filter(|&v| v != self.source)
            .collect();
        MulticastInstance::new(self.platform.clone(), self.source, targets)
            .expect("broadcast instance on a valid multicast instance is valid")
    }

    /// Restricts the instance to the subgraph induced by `keep` (the source
    /// and all targets must belong to `keep`). Returns the new instance and
    /// the new node id of every kept node, indexed as in `keep`.
    pub fn restrict_to(&self, keep: &[NodeId]) -> Result<MulticastInstance, InstanceError> {
        let (platform, old_to_new, _) = self.platform.induced_subgraph(keep);
        let source = *old_to_new
            .get(&self.source)
            .ok_or(InstanceError::UnknownNode(self.source))?;
        let mut targets = Vec::with_capacity(self.targets.len());
        for &t in &self.targets {
            targets.push(*old_to_new.get(&t).ok_or(InstanceError::UnknownNode(t))?);
        }
        MulticastInstance::new(platform, source, targets)
    }
}

/// The worked example of the paper, Section 3 / Figure 1.
///
/// The source `P0` multicasts to `P7..P13`. The cut into `P7` (single
/// incoming edge of cost 1) caps the throughput at one multicast per
/// time-unit; the paper shows that no *single* multicast tree achieves it,
/// while a combination of two trees of weight ½ does.
///
/// Edge costs follow the constraints spelled out in Section 3 (all backbone
/// links cost 1, `P3 -> P4 -> P5` contains the cost-2 link, the source's link
/// to the `P3` branch costs ½, the `P7`-cluster links cost 1/5 and the
/// `P11`-cluster links cost 1/10).
pub fn figure1_instance() -> MulticastInstance {
    let mut b = PlatformBuilder::new();
    let source = b.add_named_node("Psource");
    // P1..P13 in order so that NodeId(i) is Pi.
    let p: Vec<NodeId> = (1..=13)
        .map(|i| b.add_named_node(&format!("P{i}")))
        .collect();
    let node = |i: usize| -> NodeId {
        if i == 0 {
            source
        } else {
            p[i - 1]
        }
    };
    let mut e = |s: usize, d: usize, c: f64| {
        b.add_edge(node(s), node(d), c).expect("figure 1 edge");
    };
    // Source branch feeding P1 directly and the relay chain through P3.
    e(0, 1, 1.0);
    e(0, 3, 0.5);
    // Relay backbone.
    e(3, 2, 1.0);
    e(2, 1, 1.0);
    e(3, 4, 1.0);
    e(4, 5, 2.0);
    e(5, 6, 1.0);
    e(2, 6, 1.0);
    // Entry points into the two target clusters.
    e(6, 7, 1.0);
    e(1, 11, 1.0);
    // Fast LAN-like cluster around P7 (cost 1/5).
    e(7, 8, 0.2);
    e(7, 9, 0.2);
    e(7, 10, 0.2);
    e(8, 9, 0.2);
    e(9, 10, 0.2);
    // Very fast cluster around P11 (cost 1/10).
    e(11, 12, 0.1);
    e(11, 13, 0.1);
    e(12, 13, 0.1);
    let platform = b.build().expect("figure 1 platform");
    let targets = (7..=13).map(|i| NodeId(i as u32)).collect();
    MulticastInstance::new(platform, source, targets).expect("figure 1 instance")
}

/// The tightness gadget of Figure 5: the gap between the lower and upper
/// LP bounds reaches the factor `|Ptarget|`.
///
/// The source is connected to a relay by a cost-1 link, and the relay serves
/// `n` targets through cost-`1/n` links. The lower bound (`Multicast-LB`)
/// finds period 1 (and it is achievable), while the scatter-like upper bound
/// (`Multicast-UB`) believes the source must push `n` distinct copies through
/// the cost-1 link and reports period `n`.
pub fn figure5_instance(n: usize) -> MulticastInstance {
    assert!(n >= 1, "figure 5 needs at least one target");
    let mut b = PlatformBuilder::new();
    let source = b.add_named_node("Psource");
    let relay = b.add_named_node("Relay");
    b.add_edge(source, relay, 1.0).expect("figure 5 edge");
    let mut targets = Vec::with_capacity(n);
    for i in 0..n {
        let t = b.add_named_node(&format!("T{}", i + 1));
        b.add_edge(relay, t, 1.0 / n as f64).expect("figure 5 edge");
        targets.push(t);
    }
    let platform = b.build().expect("figure 5 platform");
    MulticastInstance::new(platform, source, targets).expect("figure 5 instance")
}

/// A two-target gadget with a relay and cross links between the targets, on
/// which the scatter-like upper bound (`Multicast-UB`) is strictly
/// pessimistic: the optimum (one pipelined chain through the targets) halves
/// the period the upper bound reports.
///
/// Together with [`figure5_instance`] this illustrates Section 5.1.3 of the
/// paper (the bounds are not tight in general); the exhaustive search for
/// instances where *neither* bound is tight (Figure 4) lives in
/// `pm-core::exact::find_bounds_gap_instance`.
pub fn relay_cross_instance() -> MulticastInstance {
    let mut b = PlatformBuilder::new();
    let s = b.add_named_node("Psource");
    let r = b.add_named_node("Relay");
    let t1 = b.add_named_node("T1");
    let t2 = b.add_named_node("T2");
    // Direct but slow links to each target, and a shared relay path.
    b.add_edge(s, t1, 1.0).unwrap();
    b.add_edge(s, t2, 1.0).unwrap();
    b.add_edge(s, r, 1.0).unwrap();
    b.add_edge(r, t1, 1.0).unwrap();
    b.add_edge(r, t2, 1.0).unwrap();
    // Cross links between the two targets.
    b.add_edge(t1, t2, 1.0).unwrap();
    b.add_edge(t2, t1, 1.0).unwrap();
    let platform = b.build().expect("relay-cross platform");
    MulticastInstance::new(platform, s, vec![t1, t2]).expect("relay-cross instance")
}

/// A simple chain `P0 -> P1 -> ... -> P(n-1)` with uniform cost, multicasting
/// from the head to the tail node(s). Useful as a sanity-check instance: the
/// optimal period equals the largest edge cost.
pub fn chain_instance(n: usize, cost: f64) -> MulticastInstance {
    assert!(n >= 2, "a chain needs at least two nodes");
    let mut b = PlatformBuilder::new();
    let nodes = b.add_nodes(n);
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], cost).expect("chain edge");
    }
    let platform = b.build().expect("chain platform");
    MulticastInstance::new(platform, nodes[0], vec![nodes[n - 1]]).expect("chain instance")
}

/// A complete (fully connected) heterogeneous platform with `n` nodes where
/// `c(Pi, Pj)` depends only on the sender (`(i + 1) * base`), mirroring the
/// sender-heterogeneity model of Banikazemi et al. discussed in Section 8.
pub fn sender_heterogeneous_clique(n: usize, base: f64) -> MulticastInstance {
    assert!(n >= 2);
    let mut b = PlatformBuilder::new();
    let nodes = b.add_nodes(n);
    for (i, &u) in nodes.iter().enumerate() {
        for &v in &nodes {
            if u != v {
                b.add_edge(u, v, (i + 1) as f64 * base)
                    .expect("clique edge");
            }
        }
    }
    let platform = b.build().expect("clique platform");
    let targets = nodes[1..].to_vec();
    MulticastInstance::new(platform, nodes[0], targets).expect("clique instance")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let inst = figure1_instance();
        assert_eq!(inst.platform.node_count(), 14);
        assert_eq!(inst.target_count(), 7);
        assert!(!inst.is_broadcast());
        assert!(inst.is_target(NodeId(7)));
        assert!(!inst.is_target(NodeId(6)));
        // P7's only incoming edge costs 1: the throughput is capped at 1.
        assert_eq!(inst.platform.in_edges(NodeId(7)).len(), 1);
        assert_eq!(
            inst.platform.cost(inst.platform.in_edges(NodeId(7))[0]),
            1.0
        );
        // P1's in-neighbours are exactly {Psource, P2} (Section 3 argument).
        let mut innb: Vec<_> = inst.platform.in_neighbors(NodeId(1)).collect();
        innb.sort();
        assert_eq!(innb, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn figure5_shape() {
        let inst = figure5_instance(3);
        assert_eq!(inst.platform.node_count(), 5);
        assert_eq!(inst.target_count(), 3);
        assert!(
            (inst.platform.cost(inst.platform.out_edges(NodeId(1))[0]) - 1.0 / 3.0).abs() < 1e-12
        );
    }

    #[test]
    fn instance_validation() {
        let mut b = PlatformBuilder::new();
        let v = b.add_nodes(3);
        b.add_edge(v[0], v[1], 1.0).unwrap();
        let g = b.build().unwrap();
        // v[2] unreachable.
        assert!(matches!(
            MulticastInstance::new(g.clone(), v[0], vec![v[2]]),
            Err(InstanceError::UnreachableTarget(_))
        ));
        assert!(matches!(
            MulticastInstance::new(g.clone(), v[0], vec![]),
            Err(InstanceError::NoTargets)
        ));
        assert!(matches!(
            MulticastInstance::new(g.clone(), v[0], vec![v[0]]),
            Err(InstanceError::NoTargets)
        ));
        assert!(matches!(
            MulticastInstance::new(g.clone(), NodeId(9), vec![v[1]]),
            Err(InstanceError::UnknownNode(_))
        ));
        let ok = MulticastInstance::new(g, v[0], vec![v[1], v[1]]).unwrap();
        assert_eq!(ok.targets, vec![v[1]]);
    }

    #[test]
    fn as_broadcast_targets_everything_else() {
        let inst = figure5_instance(2);
        let bc = inst.as_broadcast();
        assert!(bc.is_broadcast());
        assert_eq!(bc.target_count(), inst.platform.node_count() - 1);
    }

    #[test]
    fn restrict_to_subplatform() {
        let inst = figure1_instance();
        // Keep the source, P1 and the P11 cluster: still a valid instance for
        // the targets that survive... here we restrict the target set too.
        let keep = vec![NodeId(0), NodeId(1), NodeId(11), NodeId(12), NodeId(13)];
        let sub = MulticastInstance::new(
            inst.platform.clone(),
            inst.source,
            vec![NodeId(11), NodeId(12), NodeId(13)],
        )
        .unwrap()
        .restrict_to(&keep)
        .unwrap();
        assert_eq!(sub.platform.node_count(), 5);
        assert_eq!(sub.target_count(), 3);
    }

    #[test]
    fn chain_and_clique_builders() {
        let c = chain_instance(5, 2.0);
        assert_eq!(c.platform.edge_count(), 4);
        assert_eq!(c.targets, vec![NodeId(4)]);
        let k = sender_heterogeneous_clique(4, 0.5);
        assert_eq!(k.platform.edge_count(), 12);
        assert!(k.is_broadcast());
    }
}
