//! Aggregated comparison reports, mirroring the curves of Figure 11.

use crate::formulations::FormulationError;
use crate::heuristics::RunOptions;
use crate::realize::RealizeError;
use crate::session::{Session, SessionError};
use pm_platform::instances::MulticastInstance;
use serde::{Deserialize, Serialize};

/// The heuristics and reference curves reported in the paper's evaluation
/// (Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeuristicKind {
    /// `scatter`: the `Multicast-UB` upper bound.
    Scatter,
    /// `lower bound`: the `Multicast-LB` lower bound (not always achievable).
    LowerBound,
    /// `broadcast`: broadcast on the whole platform.
    Broadcast,
    /// `MCPH`: the tree-based heuristic.
    Mcph,
    /// `Augm. MC`: the AUGMENTED MULTICAST heuristic.
    AugmentedMulticast,
    /// `Red. BC`: the REDUCED BROADCAST heuristic.
    ReducedBroadcast,
    /// `Multisource MC`: the AUGMENTED SOURCES heuristic.
    MultisourceMulticast,
}

impl HeuristicKind {
    /// All kinds, in the order used by the paper's legends.
    pub const ALL: [HeuristicKind; 7] = [
        HeuristicKind::Scatter,
        HeuristicKind::LowerBound,
        HeuristicKind::Broadcast,
        HeuristicKind::Mcph,
        HeuristicKind::AugmentedMulticast,
        HeuristicKind::ReducedBroadcast,
        HeuristicKind::MultisourceMulticast,
    ];

    /// The label used by the paper.
    pub fn label(self) -> &'static str {
        match self {
            HeuristicKind::Scatter => "scatter",
            HeuristicKind::LowerBound => "lower bound",
            HeuristicKind::Broadcast => "broadcast",
            HeuristicKind::Mcph => "MCPH",
            HeuristicKind::AugmentedMulticast => "Augm. MC",
            HeuristicKind::ReducedBroadcast => "Red. BC",
            HeuristicKind::MultisourceMulticast => "Multisource MC",
        }
    }
}

/// LP accounting of one heuristic run inside a report: how many linear
/// programs it solved and how they warm-started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindLpStats {
    /// Linear programs solved.
    pub lp_solves: u64,
    /// Solves that warm-started from a previous basis (masked-template
    /// hints and session [`pm_lp::WarmStartCache`] hits alike).
    pub warm_hits: u64,
    /// Solves that ran cold.
    pub warm_misses: u64,
}

impl KindLpStats {
    /// Accumulates another measurement.
    pub fn add(&mut self, other: KindLpStats) {
        self.lp_solves += other.lp_solves;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
    }
}

/// The simulator-verified realization of one heuristic's solution inside a
/// report (see [`crate::realize`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KindRealization {
    /// Throughput measured by replaying the realized periodic schedule.
    pub simulated_throughput: f64,
    /// `|simulated_period − lp_period| / lp_period`.
    pub realization_gap: f64,
    /// Number of weighted trees in the realized combination.
    pub trees: usize,
    /// One-port violations the simulator detected (0 for valid schedules).
    pub one_port_violations: u64,
}

/// Options of [`MulticastReport::collect_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectOptions {
    /// Realize every heuristic's solution as a periodic schedule and verify
    /// it in the simulator (fills [`MulticastReport::realizations`]).
    pub realize: bool,
}

/// Periods measured on one instance for every heuristic and reference curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MulticastReport {
    /// Number of nodes of the platform.
    pub nodes: usize,
    /// Number of targets of the instance.
    pub targets: usize,
    /// `(kind, period)` pairs, in [`HeuristicKind::ALL`] order. A period of
    /// `f64::INFINITY` means the heuristic could not serve the targets.
    pub periods: Vec<(HeuristicKind, f64)>,
    /// `(kind, stats)` LP accounting, same order as `periods`: the
    /// [`crate::session::SessionOpStats`] of the kind's session solve. When
    /// realization is enabled, the packing LPs of the kind's
    /// re-realization are included in its accounting.
    pub lp_stats: Vec<(HeuristicKind, KindLpStats)>,
    /// `(kind, realization)` outcomes, same order as `periods`; empty when
    /// the report was collected without [`CollectOptions::realize`]. `None`
    /// for a kind whose solution could not be realized (infinite period).
    pub realizations: Vec<(HeuristicKind, Option<KindRealization>)>,
}

impl MulticastReport {
    /// Runs every heuristic of `kinds` on the instance.
    pub fn collect(
        instance: &MulticastInstance,
        kinds: &[HeuristicKind],
    ) -> Result<Self, FormulationError> {
        Self::collect_with(instance, kinds, CollectOptions::default())
    }

    /// [`MulticastReport::collect`] with explicit options (realization).
    ///
    /// A thin convenience over [`MulticastReport::collect_from_session`]:
    /// one throwaway [`Session`] is built for the instance. Callers holding
    /// a long-lived session (drifting platforms) collect through it instead
    /// and keep its warm bases and tree pools.
    pub fn collect_with(
        instance: &MulticastInstance,
        kinds: &[HeuristicKind],
        options: CollectOptions,
    ) -> Result<Self, FormulationError> {
        let mut session = Session::new(instance.clone());
        Self::collect_from_session(&mut session, kinds, options)
    }

    /// Collects the report through a caller-owned [`Session`]: every kind is
    /// one `session.solve_with` (and, under `options.realize`, one
    /// `session.re_realize`), so consecutive kinds — and consecutive reports
    /// on a drifting platform — share templates and warm-start bases.
    pub fn collect_from_session(
        session: &mut Session,
        kinds: &[HeuristicKind],
        options: CollectOptions,
    ) -> Result<Self, FormulationError> {
        let mut periods = Vec::with_capacity(kinds.len());
        let mut lp_stats = Vec::with_capacity(kinds.len());
        let mut realizations = Vec::new();
        for &kind in kinds {
            // Steady-state capture clones the winning flow matrices, so it
            // is only requested when this report will realize them.
            let run = session.solve_with(
                kind,
                RunOptions {
                    capture_steady_state: options.realize,
                    ..RunOptions::default()
                },
            );
            let (period, mut stats) = match run {
                Ok(solve) => (
                    solve.result.period,
                    KindLpStats {
                        lp_solves: solve.stats.lp_solves,
                        warm_hits: solve.stats.warm_hits,
                        warm_misses: solve.stats.warm_misses,
                    },
                ),
                Err(SessionError::Formulation(FormulationError::Unreachable(_))) => {
                    (f64::INFINITY, KindLpStats::default())
                }
                Err(SessionError::Formulation(e)) => return Err(e),
                // Panic quarantine / replay failures have no formulation
                // shape; surface them as an invalid-argument wrapper so the
                // one-shot report API keeps its error type.
                Err(e) => return Err(FormulationError::InvalidArgument(e.to_string())),
            };
            let realization = if options.realize && period.is_finite() {
                match session.re_realize(kind) {
                    Ok(re) => {
                        // The packing LPs of the realization pipeline count
                        // toward the kind that produced the solution.
                        stats.add(KindLpStats {
                            lp_solves: re.stats.lp_solves,
                            warm_hits: re.stats.warm_hits,
                            warm_misses: re.stats.warm_misses,
                        });
                        Some(KindRealization {
                            simulated_throughput: re.realization.simulated.throughput,
                            realization_gap: re.realization.realization_gap,
                            trees: re.realization.tree_set.len(),
                            one_port_violations: re.realization.simulated.one_port_violations
                                as u64,
                        })
                    }
                    // Scheduling, packing or decomposition failures on a
                    // finite-period solution are pipeline bugs, not
                    // legitimately unrealizable solutions: make them visible
                    // (stderr only, so the artifacts stay deterministic).
                    Err(
                        e @ SessionError::Realize(
                            RealizeError::Schedule(_)
                            | RealizeError::Packing(_)
                            | RealizeError::Decomposition(_),
                        ),
                    ) => {
                        eprintln!(
                            "realize: {} pipeline failure on a {}-node instance: {e}",
                            kind.label(),
                            session.instance().platform.node_count()
                        );
                        None
                    }
                    Err(_) => None,
                }
            } else {
                None
            };
            periods.push((kind, period));
            lp_stats.push((kind, stats));
            if options.realize {
                realizations.push((kind, realization));
            }
        }
        Ok(MulticastReport {
            nodes: session.instance().platform.node_count(),
            targets: session.instance().target_count(),
            periods,
            lp_stats,
            realizations,
        })
    }

    /// The LP accounting of a given kind, if it was collected.
    pub fn lp_stats_for(&self, kind: HeuristicKind) -> Option<KindLpStats> {
        self.lp_stats
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, s)| s)
    }

    /// The realization outcome of a given kind, if realization ran and the
    /// kind's solution was realizable.
    pub fn realization_for(&self, kind: HeuristicKind) -> Option<KindRealization> {
        self.realizations
            .iter()
            .find(|(k, _)| *k == kind)
            .and_then(|&(_, r)| r)
    }

    /// The period measured for a given kind, if it was collected.
    pub fn period(&self, kind: HeuristicKind) -> Option<f64> {
        self.periods
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, p)| p)
    }

    /// The ratio `period(kind) / period(reference)`, the quantity plotted in
    /// Figure 11 (a)/(c) with `reference = Scatter` and (b)/(d) with
    /// `reference = LowerBound`.
    pub fn ratio_to(&self, kind: HeuristicKind, reference: HeuristicKind) -> Option<f64> {
        let p = self.period(kind)?;
        let r = self.period(reference)?;
        if r > 0.0 {
            Some(p / r)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_platform::instances::figure5_instance;

    #[test]
    fn report_collects_all_kinds_and_orders_ratios() {
        let inst = figure5_instance(3);
        let report = MulticastReport::collect(&inst, &HeuristicKind::ALL).unwrap();
        assert_eq!(report.periods.len(), 7);
        assert_eq!(report.lp_stats.len(), 7);
        assert_eq!(report.targets, 3);
        // The masked greedy heuristics account their LP solves themselves.
        let greedy = report
            .lp_stats_for(HeuristicKind::ReducedBroadcast)
            .unwrap();
        assert!(greedy.lp_solves >= 1);
        assert_eq!(greedy.lp_solves, greedy.warm_hits + greedy.warm_misses);
        let scatter = report.period(HeuristicKind::Scatter).unwrap();
        let lb = report.period(HeuristicKind::LowerBound).unwrap();
        assert!(scatter >= lb);
        // Every heuristic is at least as good as scatter on this instance and
        // no better than the lower bound.
        for kind in [
            HeuristicKind::Mcph,
            HeuristicKind::Broadcast,
            HeuristicKind::AugmentedMulticast,
            HeuristicKind::ReducedBroadcast,
            HeuristicKind::MultisourceMulticast,
        ] {
            let ratio_scatter = report.ratio_to(kind, HeuristicKind::Scatter).unwrap();
            let ratio_lb = report.ratio_to(kind, HeuristicKind::LowerBound).unwrap();
            assert!(ratio_scatter <= 1.0 + 1e-6, "{kind:?}");
            assert!(ratio_lb >= 1.0 - 1e-6, "{kind:?}");
        }
    }

    #[test]
    fn session_solves_are_attributed_per_kind() {
        let inst = figure5_instance(3);
        let kinds = [
            HeuristicKind::Scatter,
            HeuristicKind::LowerBound,
            HeuristicKind::Mcph,
        ];
        let mut session = crate::session::Session::new(inst.clone());
        let report =
            MulticastReport::collect_from_session(&mut session, &kinds, CollectOptions::default())
                .unwrap();
        // Scatter and LowerBound are one masked template solve each; MCPH
        // solves no LP. The session's cumulative counters agree with the
        // per-kind attribution.
        assert_eq!(
            report
                .lp_stats_for(HeuristicKind::Scatter)
                .unwrap()
                .lp_solves,
            1
        );
        assert_eq!(
            report.lp_stats_for(HeuristicKind::Mcph).unwrap().lp_solves,
            0
        );
        let total: u64 = report.lp_stats.iter().map(|&(_, s)| s.lp_solves).sum();
        assert_eq!(total, session.stats().lp_solves);
    }

    #[test]
    fn realized_report_verifies_every_curve_on_figure5() {
        let inst = figure5_instance(3);
        let report = MulticastReport::collect_with(
            &inst,
            &HeuristicKind::ALL,
            CollectOptions { realize: true },
        )
        .unwrap();
        assert_eq!(report.realizations.len(), 7);
        for &kind in &HeuristicKind::ALL {
            let real = report
                .realization_for(kind)
                .unwrap_or_else(|| panic!("{kind:?} did not realize"));
            assert_eq!(real.one_port_violations, 0, "{kind:?}");
            assert!(real.trees >= 1, "{kind:?}");
            // Figure 5's curves are all realizable: the certified schedule
            // reproduces each claimed period.
            assert!(
                real.realization_gap < 1e-6,
                "{kind:?} gap {}",
                real.realization_gap
            );
            let period = report.period(kind).unwrap();
            assert!(
                (real.simulated_throughput - 1.0 / period).abs() < 1e-6,
                "{kind:?}"
            );
        }
        // Without the option, no realization is collected.
        let plain = MulticastReport::collect(&inst, &HeuristicKind::ALL).unwrap();
        assert!(plain.realizations.is_empty());
        assert!(plain.realization_for(HeuristicKind::Scatter).is_none());
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(HeuristicKind::Scatter.label(), "scatter");
        assert_eq!(
            HeuristicKind::MultisourceMulticast.label(),
            "Multisource MC"
        );
        assert_eq!(HeuristicKind::ALL.len(), 7);
    }
}
