//! Warm candidate solves of the greedy heuristics of Section 5.2 (Figures
//! 6–8) stay warm. Walking the candidate rounds of `REDUCED BROADCAST`,
//! `AUGMENTED MULTICAST` and `AUGMENTED SOURCES` through the public masked
//! API, every candidate is solved once warm from the round's optimal basis
//! and once cold, without a hint (the template starts that solve from its
//! shortest-path crash basis): the two periods agree, and the warm solve
//! finishes on its first attempt, without the cold re-solve the recovery
//! ladder falls back to when an artificial or fixed-to-zero column leaves
//! level zero. Each walk's final selection also matches the rebuild oracle
//! (`pm_core::formulations` on the restricted instance), which starts from
//! the all-artificial basis.

use pm_core::formulations::{BroadcastEb, FormulationError, MulticastMultiSourceUb};
use pm_core::masked::{
    MaskedFlow, MaskedFlowLp, MaskedMultiSource, MaskedMultiSourceUb, MaskedStats,
};
use pm_lp::{Basis, WarmStatus};
use pm_platform::graph::NodeId;
use pm_platform::instances::{figure5_instance, MulticastInstance};
use pm_platform::mask::NodeMask;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A candidate is accepted when its period is at most the best one so far
/// plus this slack, the rule the heuristics apply.
const ACCEPT: f64 = 1e-9;

/// Period agreement between the warm and the cold solve of a candidate,
/// and between a walk's final selection and the rebuild oracle.
const TOL: f64 = 1e-9;

/// The period and solve accounting of a masked solve.
trait Candidate {
    fn period(&self) -> f64;
    fn stats(&self) -> &MaskedStats;
}

impl Candidate for MaskedFlow {
    fn period(&self) -> f64 {
        self.flow.period
    }
    fn stats(&self) -> &MaskedStats {
        &self.stats
    }
}

impl Candidate for MaskedMultiSource {
    fn period(&self) -> f64 {
        self.solution.period
    }
    fn stats(&self) -> &MaskedStats {
        &self.stats
    }
}

/// Warm solves that kept their hint, over a whole walk.
#[derive(Default)]
struct Tally {
    warm_hits: usize,
}

impl Tally {
    /// Solves one candidate cold and warm from `hint`, asserts that both
    /// agree and that the warm solve took one attempt, and returns the warm
    /// outcome.
    fn warm_and_cold<C: Candidate>(
        &mut self,
        label: &str,
        hint: Option<&Basis>,
        solve: impl Fn(Option<&Basis>) -> Result<C, FormulationError>,
    ) -> Result<C, FormulationError> {
        let cold = solve(None);
        let warm = solve(hint);
        match (&warm, &cold) {
            (Ok(w), Ok(c)) => {
                assert!(
                    (w.period() - c.period()).abs() <= TOL,
                    "{label}: warm period {} vs cold {}",
                    w.period(),
                    c.period()
                );
                let stats = &w.stats().solve;
                assert_eq!(
                    stats.attempts, 1,
                    "{label}: the warm solve was re-solved on rung {:?}",
                    stats.rung
                );
                if stats.warm == WarmStatus::Hit {
                    self.warm_hits += 1;
                }
            }
            (Err(w), Err(c)) => assert_eq!(w, c, "{label}: warm and cold errors differ"),
            _ => panic!(
                "{label}: warm {:?} vs cold {:?}",
                warm.as_ref().map(C::period),
                cold.as_ref().map(C::period)
            ),
        }
        warm
    }

    /// `REDUCED BROADCAST`: drop the non-target node with the least
    /// incoming broadcast traffic while the period does not degrade.
    fn reduced_broadcast(&mut self, label: &str, inst: &MulticastInstance) {
        let platform = &inst.platform;
        let template = MaskedFlowLp::broadcast_eb(inst);
        let mut mask = NodeMask::full(platform.node_count());
        let mut current = match template.solve(&mask, None) {
            Ok(out) => out,
            Err(FormulationError::Unreachable(_)) => return,
            Err(e) => panic!("{label}: broadcast on the full platform: {e}"),
        };
        let mut best = current.flow.period;
        loop {
            let mut candidates: Vec<(f64, NodeId)> = mask
                .iter()
                .filter(|&v| v != inst.source && !inst.is_target(v))
                .map(|v| (current.flow.incoming_flow_score(platform, v), v))
                .collect();
            candidates.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let accepted = candidates.iter().find_map(|&(_, v)| {
                let label = format!("{label}, Red. BC without {v}");
                let out = self
                    .warm_and_cold(&label, Some(&current.basis), |hint| {
                        template.solve(&mask.without(v), hint)
                    })
                    .ok()?;
                (out.flow.period <= best + ACCEPT).then_some((v, out))
            });
            let Some((v, out)) = accepted else { break };
            mask.remove(v);
            best = best.min(out.flow.period);
            current = out;
        }
        matches_oracle(label, current.flow.period, broadcast_oracle(inst, &mask));
    }

    /// `AUGMENTED MULTICAST`: from the source and the targets, add the node
    /// with the most incoming `Multicast-LB` traffic while the broadcast
    /// period does not degrade. Each addition re-activates the conservation
    /// rows of the added node, whose artificials the round's basis may hold.
    fn augmented_multicast(&mut self, label: &str, inst: &MulticastInstance) {
        let platform = &inst.platform;
        let n = platform.node_count();
        let template = MaskedFlowLp::broadcast_eb(inst);
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
        let mut current = match template.solve(&mask, None) {
            Ok(out) => Some(out),
            Err(FormulationError::Unreachable(_)) => None,
            Err(e) => panic!("{label}: broadcast on the restricted platform: {e}"),
        };
        let mut best = current.as_ref().map_or(f64::INFINITY, |o| o.flow.period);
        loop {
            let round_basis = current.as_ref().map(|out| &out.basis);
            let accepted = candidates
                .iter()
                .filter(|&&(_, v)| !mask.contains(v))
                .find_map(|&(_, v)| {
                    let label = format!("{label}, Augm. MC with {v}");
                    match self.warm_and_cold(&label, round_basis, |hint| {
                        template.solve(&mask.with(v), hint)
                    }) {
                        Ok(out) => (out.flow.period <= best + ACCEPT).then_some((v, Some(out))),
                        Err(FormulationError::Unreachable(_)) => {
                            best.is_infinite().then_some((v, None))
                        }
                        Err(e) => panic!("{label}: {e}"),
                    }
                });
            let Some((v, out)) = accepted else { break };
            mask.insert(v);
            if let Some(out) = out {
                best = best.min(out.flow.period);
                current = Some(out);
            }
        }
        if let Some(out) = current {
            matches_oracle(label, out.flow.period, broadcast_oracle(inst, &mask));
        }
    }

    /// `AUGMENTED SOURCES`: promote the node with the most incoming traffic
    /// in the current multi-source solution while the period does not
    /// degrade.
    fn augmented_sources(&mut self, label: &str, inst: &MulticastInstance) {
        let template = MaskedMultiSourceUb::new(inst);
        let mask = NodeMask::full(inst.platform.node_count());
        let mut sources = vec![inst.source];
        let mut current = template
            .solve_opts(&mask, &sources, None, false)
            .expect("single-source multicast");
        let mut best = current.solution.period;
        loop {
            let mut candidates: Vec<(f64, NodeId)> = mask
                .iter()
                .filter(|v| !sources.contains(v))
                .map(|v| (current.solution.incoming_score[v.index()], v))
                .collect();
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let accepted = candidates.iter().find_map(|&(_, v)| {
                let mut extended = sources.clone();
                extended.push(v);
                let label = format!("{label}, Augm. sources {extended:?}");
                let out = self
                    .warm_and_cold(&label, Some(&current.basis), |hint| {
                        template.solve_opts(&mask, &extended, hint, false)
                    })
                    .ok()?;
                (out.solution.period <= best + ACCEPT).then_some((v, out))
            });
            let Some((v, out)) = accepted else { break };
            sources.push(v);
            best = best.min(out.solution.period);
            current = out;
        }
        let oracle = MulticastMultiSourceUb::new(inst, sources)
            .expect("valid source list")
            .solve()
            .expect("the final selection is reachable");
        matches_oracle(label, current.solution.period, oracle.period);
    }

    /// All three walks on one instance.
    fn walk(&mut self, label: &str, inst: &MulticastInstance) {
        self.reduced_broadcast(label, inst);
        self.augmented_multicast(label, inst);
        self.augmented_sources(label, inst);
    }
}

/// `Broadcast-EB` rebuilt on the sub-platform of `mask`, solved from the
/// all-artificial basis.
fn broadcast_oracle(inst: &MulticastInstance, mask: &NodeMask) -> f64 {
    let sub = inst
        .restrict_to(&mask.to_nodes())
        .expect("mask keeps the targets");
    BroadcastEb::new(&sub)
        .solve()
        .expect("the final sub-platform is reachable")
        .period
}

/// Asserts that a walk's final period matches the rebuild oracle.
fn matches_oracle(label: &str, period: f64, oracle: f64) {
    assert!(
        (period - oracle).abs() <= TOL,
        "{label}: final period {period} vs oracle {oracle}"
    );
}

/// The paper's Figure 5 family and three generated small-class platforms,
/// one target density each.
#[test]
fn candidate_solves_stay_warm_and_match_cold_solves() {
    let mut tally = Tally::default();
    for n in [2, 3, 5] {
        tally.walk(&format!("figure 5, n = {n}"), &figure5_instance(n));
    }
    for (seed, density) in [(0u64, 0.25), (1, 0.5), (2, 1.0)] {
        let topology = TiersLikeGenerator::reduced_scale(PlatformClass::Small, seed).generate();
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = topology.sample_instance(density, &mut rng);
        tally.walk(&format!("small, seed {seed}, density {density}"), &inst);
    }
    assert!(tally.warm_hits > 0, "no candidate solve kept its hint");
}
