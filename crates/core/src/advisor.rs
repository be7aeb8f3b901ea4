//! The Section 6 design-space advisor.
//!
//! The paper's selection rule: enumerate every `(b Beefy, w Wimpy)` cluster
//! design, evaluate each one's response time and energy, normalize against
//! the all-Beefy reference design, and pick the design with the lowest
//! energy among those that still meet a performance floor ("the most
//! energy-efficient configuration that satisfies the performance target").
//!
//! The advisor ranks designs through *any* [`Estimator`] — the closed-form
//! Section 5.4 model for instant sweeps, the measured P-store runtime when
//! ground truth is worth the cost, or the behavioural law for first-order
//! what-ifs — so the selection rule is independent of the evaluation lens.
//!
//! Designs whose build-side hash table fits no execution mode are reported
//! as *infeasible* rather than silently dropped, so a sweep over a large
//! grid still accounts for every point.
//!
//! The advisor's report *is* the [`RunSeries`] the experiment runner builds
//! — same records, same normalized points, same infeasible list — and the
//! selection rules ([`RunSeries::recommend`], [`RunSeries::cheapest_meeting_p99`],
//! [`RunSeries::cheapest_meeting_availability`]) are defined here as methods
//! on it, so they work on any series, advisor-built or not.

use crate::error::CoreError;
use crate::experiment::{evaluate_series, RunSeries};
use crate::lens::Estimator;
use crate::record::{RunRecord, ServingStats};
use crate::workload::{Workload, WorkloadPlan};
use eedc_pstore::stats::ExecutionMode;
use eedc_pstore::ClusterSpec;
use eedc_simkit::metrics::{NormalizedPoint, EDP_EPSILON};
use eedc_simkit::units::Seconds;
use eedc_simkit::NodeSpec;
use std::fmt;

/// The `(b, w)` grid of candidate cluster designs built from one Beefy and
/// one Wimpy node type.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    beefy: NodeSpec,
    wimpy: NodeSpec,
    max_beefy: usize,
    max_wimpy: usize,
}

impl DesignSpace {
    /// A design space of every `(b, w)` combination with `b ≤ max_beefy`,
    /// `w ≤ max_wimpy`, and at least one node. `max_beefy` must be at least 1
    /// because the all-Beefy `(max_beefy, 0)` design is the normalization
    /// reference.
    pub fn new(
        beefy: NodeSpec,
        wimpy: NodeSpec,
        max_beefy: usize,
        max_wimpy: usize,
    ) -> Result<Self, CoreError> {
        if !beefy.is_beefy() {
            return Err(CoreError::invalid(format!(
                "design-space Beefy node '{}' is classed {}",
                beefy.name, beefy.class
            )));
        }
        if !wimpy.is_wimpy() {
            return Err(CoreError::invalid(format!(
                "design-space Wimpy node '{}' is classed {}",
                wimpy.name, wimpy.class
            )));
        }
        if max_beefy == 0 {
            return Err(CoreError::invalid(
                "the design space needs at least one Beefy node: the all-Beefy design is the reference",
            ));
        }
        Ok(Self {
            beefy,
            wimpy,
            max_beefy,
            max_wimpy,
        })
    }

    /// Number of designs in the grid (every `(b, w)` except `(0, 0)`).
    pub fn len(&self) -> usize {
        (self.max_beefy + 1) * (self.max_wimpy + 1) - 1
    }

    /// Whether the grid is empty (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reference design: all Beefy nodes, no Wimpy nodes.
    pub fn reference(&self) -> Result<ClusterSpec, CoreError> {
        Ok(ClusterSpec::homogeneous(
            self.beefy.clone(),
            self.max_beefy,
        )?)
    }

    /// Every design in the grid, row by row (`b` outer, `w` inner), the
    /// reference first.
    ///
    /// The node specs are built once, as the `(max_beefy B, max_wimpy W)`
    /// cluster; design `(b, w)` is its window of the last `b` Beefy and the
    /// first `w` Wimpy nodes ([`ClusterSpec::sub_cluster`]), each with its
    /// own validated fabric.
    pub fn designs(&self) -> Result<Vec<ClusterSpec>, CoreError> {
        let full = ClusterSpec::heterogeneous(
            self.beefy.clone(),
            self.max_beefy,
            self.wimpy.clone(),
            self.max_wimpy,
        )?;
        let mut designs = Vec::with_capacity(self.len());
        designs.push(full.sub_cluster(0..self.max_beefy)?);
        for b in (0..=self.max_beefy).rev() {
            for w in 0..=self.max_wimpy {
                if b + w == 0 || (b == self.max_beefy && w == 0) {
                    continue;
                }
                designs.push(full.sub_cluster(self.max_beefy - b..self.max_beefy + w)?);
            }
        }
        Ok(designs)
    }
}

/// A design the advisor recommends for a performance target.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Label of the recommended design (`"2B,2W"` convention).
    pub label: String,
    /// The design's normalized (performance, energy) point.
    pub point: NormalizedPoint,
    /// How the design executes the workload.
    pub mode: ExecutionMode,
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} execution]: {}",
            self.label, self.mode, self.point
        )
    }
}

/// The advisor's full assessment of a design space: the [`RunSeries`]
/// itself. The alias exists because `benchmark/` — which a PR that changes
/// library code may not edit — imports this name; it reads only `records`,
/// `infeasible` and [`recommend`](RunSeries::recommend). The next
/// `benchmark`-archetype PR may switch it to `RunSeries` and drop the alias.
pub type DesignSpaceReport = RunSeries;

/// The Section 6 selection rules, over any series.
impl RunSeries {
    /// The normalized point for a labelled design, if it was feasible.
    pub fn point(&self, label: &str) -> Option<&NormalizedPoint> {
        self.record(label)?.normalized.as_ref()
    }

    /// The SLA selection rule for serving sweeps: among feasible designs
    /// whose simulated 99th-percentile latency is at most `floor`, the one
    /// with the lowest absolute energy. `None` when no design's p99 clears
    /// the floor; an error when the records carry no serving statistics
    /// (the report was not evaluated under the `Serving` lens).
    pub fn cheapest_meeting_p99(&self, floor: Seconds) -> Result<Option<&RunRecord>, CoreError> {
        self.cheapest_serving("cheapest_meeting_p99", |stats| stats.p99 <= floor)
    }

    /// The availability selection rule for churn sweeps: among feasible
    /// designs whose simulated availability is at least `floor`, the one
    /// with the lowest absolute energy. A record without fault statistics
    /// ran fault-free and counts as availability 1.0. `None` when no
    /// design clears the floor; an error when the records carry no serving
    /// statistics at all (the report was not evaluated under the `Serving`
    /// lens).
    pub fn cheapest_meeting_availability(
        &self,
        floor: f64,
    ) -> Result<Option<&RunRecord>, CoreError> {
        self.cheapest_serving("cheapest_meeting_availability", |stats| {
            stats.faults.as_ref().map_or(1.0, |f| f.availability) >= floor
        })
    }

    /// The lowest-energy record whose serving statistics pass `qualifies`.
    fn cheapest_serving(
        &self,
        rule: &str,
        qualifies: impl Fn(&ServingStats) -> bool,
    ) -> Result<Option<&RunRecord>, CoreError> {
        if self.records.iter().all(|r| r.serving.is_none()) {
            return Err(CoreError::invalid(format!(
                "{rule} needs serving statistics — evaluate under the Serving lens"
            )));
        }
        Ok(self
            .records
            .iter()
            .filter(|record| record.serving.as_ref().is_some_and(&qualifies))
            .min_by(|a, b| a.energy.value().total_cmp(&b.energy.value())))
    }

    /// The Section 6 selection rule: among feasible designs whose normalized
    /// performance is at least `min_performance`, the one with the lowest
    /// normalized energy.
    pub fn recommend(&self, min_performance: f64) -> Option<Recommendation> {
        // Records are in series order (reference first, then design order),
        // so the first of several equal minima wins.
        self.records
            .iter()
            .filter_map(|record| Some((record, record.normalized?)))
            .filter(|(_, point)| point.performance + EDP_EPSILON >= min_performance)
            .min_by(|a, b| a.1.energy.total_cmp(&b.1.energy))
            .map(|(record, point)| Recommendation {
                label: record.design.clone(),
                point,
                mode: record.mode,
            })
    }
}

/// The design-space advisor: any estimator plus the workload plan the
/// cluster will run.
pub struct DesignAdvisor {
    estimator: Box<dyn Estimator>,
    plans: Vec<WorkloadPlan>,
}

impl DesignAdvisor {
    /// An advisor ranking designs under the given estimator — measured,
    /// analytical, or behavioural.
    ///
    /// The advisor evaluates exactly one plan: the workload's *first*. For
    /// multi-plan workloads (e.g. a [`crate::ConcurrencySweep`]), rank each
    /// plan with its own advisor, or sweep them all through
    /// [`crate::Experiment`].
    pub fn new(estimator: impl Estimator + 'static, workload: &dyn Workload) -> Self {
        Self {
            estimator: Box::new(estimator),
            plans: workload.plans(),
        }
    }

    /// The workload plan driving the evaluations (`None` for a degenerate
    /// workload that yielded no plans — evaluation then errors).
    pub fn plan(&self) -> Option<&WorkloadPlan> {
        self.plans.first()
    }

    /// Evaluate every design in `space` under the estimator, normalize
    /// against the all-Beefy reference, and report feasible points and
    /// infeasible designs.
    ///
    /// The reference design itself must be feasible; any other design the
    /// estimator refuses is recorded in [`RunSeries::infeasible`].
    pub fn evaluate(&self, space: &DesignSpace) -> Result<DesignSpaceReport, CoreError> {
        self.evaluate_designs(&space.designs()?)
    }

    /// Evaluate an explicit list of candidate designs (the first is the
    /// normalization reference) instead of a full `(b, w)` grid — the shape
    /// serving sweeps use, where a handful of named designs compete under
    /// an SLA.
    pub fn evaluate_designs(
        &self,
        designs: &[ClusterSpec],
    ) -> Result<DesignSpaceReport, CoreError> {
        let plan = self
            .plans
            .first()
            .ok_or_else(|| CoreError::invalid("the advisor's workload yields no plans"))?;
        evaluate_series(self.estimator.as_ref(), plan, designs)
    }

    /// The SLA objective for serving sweeps: evaluate the candidate designs
    /// under the advisor's estimator (which must be a `Serving` lens so the
    /// records carry p99 latencies) and return the lowest-energy design
    /// whose simulated 99th-percentile latency clears `floor`. `None` when
    /// no design meets the SLA.
    pub fn cheapest_meeting_p99(
        &self,
        designs: &[ClusterSpec],
        floor: Seconds,
    ) -> Result<Option<RunRecord>, CoreError> {
        let report = self.evaluate_designs(designs)?;
        Ok(report.cheapest_meeting_p99(floor)?.cloned())
    }

    /// The availability objective for churn sweeps: evaluate the candidate
    /// designs under the advisor's estimator (a `Serving` lens whose
    /// workload carries a fault model) and return the lowest-energy design
    /// whose simulated availability is at least `floor`. `None` when no
    /// design clears the floor.
    pub fn cheapest_meeting_availability(
        &self,
        designs: &[ClusterSpec],
        floor: f64,
    ) -> Result<Option<RunRecord>, CoreError> {
        let report = self.evaluate_designs(designs)?;
        Ok(report.cheapest_meeting_availability(floor)?.cloned())
    }

    /// Evaluate `space` and apply the Section 6 selection rule for
    /// `min_performance`. `None` when no feasible design meets the target
    /// (cannot happen for targets ≤ 1: the reference always qualifies).
    pub fn recommend(
        &self,
        space: &DesignSpace,
        min_performance: f64,
    ) -> Result<Option<Recommendation>, CoreError> {
        Ok(self.evaluate(space)?.recommend(min_performance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lens::{Analytical, Behavioural};
    use crate::model::SweepJoin;
    use eedc_pstore::{JoinQuerySpec, JoinStrategy};
    use eedc_simkit::catalog::{cluster_v_node, laptop_b};

    fn advisor() -> DesignAdvisor {
        DesignAdvisor::new(
            Analytical,
            &SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle()),
        )
    }

    #[test]
    fn design_space_enumerates_the_grid() {
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), 2, 2).unwrap();
        assert_eq!(space.len(), 8);
        assert!(!space.is_empty());
        let designs = space.designs().unwrap();
        assert_eq!(designs.len(), 8);
        assert_eq!(designs[0].label(), "2B,0W");
        let labels: Vec<String> = designs.iter().map(|d| d.label()).collect();
        for expected in ["2B,0W", "2B,2W", "1B,0W", "1B,2W", "0B,1W", "0B,2W"] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}");
        }
        assert_eq!(space.reference().unwrap().label(), "2B,0W");
    }

    #[test]
    fn designs_are_windows_over_one_shared_node_list() {
        // Same designs as building each with `ClusterSpec::heterogeneous`, in
        // the same order — and all of them slices of one (4B,8W) allocation.
        let (max_b, max_w) = (4, 8);
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), max_b, max_w).unwrap();
        let designs = space.designs().unwrap();
        let mut grid = vec![(max_b, 0)];
        for b in (0..=max_b).rev() {
            for w in 0..=max_w {
                if b + w > 0 && (b, w) != (max_b, 0) {
                    grid.push((b, w));
                }
            }
        }
        assert_eq!(designs.len(), space.len());
        assert_eq!(designs.len(), grid.len());
        for (design, &(b, w)) in designs.iter().zip(&grid) {
            let built = ClusterSpec::heterogeneous(cluster_v_node(), b, laptop_b(), w).unwrap();
            assert_eq!(design.label(), built.label());
            assert_eq!(design.label(), format!("{b}B,{w}W"));
            assert_eq!(design.nodes(), built.nodes());
            assert_eq!(design.fabric().len(), built.fabric().len());
            for id in 0..design.len() {
                assert_eq!(design.fabric().egress(id), built.fabric().egress(id));
                assert_eq!(design.fabric().ingress(id), built.fabric().ingress(id));
            }
        }

        // One allocation: the largest design spans it, and every design's
        // node slice lies inside that span.
        let full = designs
            .iter()
            .find(|d| d.len() == max_b + max_w)
            .expect("the (max_b, max_w) design is in the grid");
        let shared = full.nodes().as_ptr_range();
        for design in &designs {
            let window = design.nodes().as_ptr_range();
            assert!(
                shared.start <= window.start && window.end <= shared.end,
                "{} owns its node specs",
                design.label()
            );
        }
    }

    #[test]
    fn design_space_validates_inputs() {
        assert!(DesignSpace::new(laptop_b(), laptop_b(), 2, 2).is_err());
        assert!(DesignSpace::new(cluster_v_node(), cluster_v_node(), 2, 2).is_err());
        assert!(DesignSpace::new(cluster_v_node(), laptop_b(), 0, 4).is_err());
    }

    #[test]
    fn evaluation_accounts_for_every_design() {
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), 4, 4).unwrap();
        let report = advisor().evaluate(&space).unwrap();
        // Every grid point is either a feasible record carrying its
        // normalized point or recorded infeasible.
        assert_eq!(report.records.len() + report.infeasible.len(), space.len());
        assert!(report.records.iter().all(|r| r.normalized.is_some()));
        // The 70 GB dual-shuffle hash table fits no all-Wimpy design here
        // (17.5 GB+ per 8 GB laptop), so the infeasible list is non-empty.
        assert!(!report.infeasible.is_empty());
        assert!(report
            .infeasible
            .iter()
            .any(|(label, _)| label.starts_with("0B,")));
        // The reference leads the records and sits at (1, 1).
        assert_eq!(report.records[0].design, "4B,0W");
        assert_eq!(
            report.records[0].normalized,
            Some(NormalizedPoint::reference())
        );
        assert_eq!(report.point("4B,0W"), Some(&NormalizedPoint::reference()));
        // The grid form is the list form over the grid's designs: the two
        // return the same series, whole.
        let listed = advisor()
            .evaluate_designs(&space.designs().unwrap())
            .unwrap();
        assert_eq!(report, listed);
    }

    #[test]
    fn recommendation_meets_the_target_with_minimal_energy() {
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), 4, 8).unwrap();
        let report = advisor().evaluate(&space).unwrap();
        for target in [0.9, 0.75, 0.5] {
            let pick = report
                .recommend(target)
                .expect("reference always qualifies");
            assert!(
                pick.point.performance + 1e-9 >= target,
                "{target}: {pick} below the floor"
            );
            assert_eq!(report.point(&pick.label), Some(&pick.point), "{target}");
            assert_eq!(pick.mode, report.record(&pick.label).unwrap().mode);
            for record in &report.records {
                let point = record.normalized.unwrap();
                if point.performance + 1e-9 >= target {
                    assert!(
                        pick.point.energy <= point.energy + 1e-9,
                        "{target}: {} beats the pick",
                        record.design
                    );
                }
            }
        }
        // Mixed designs with more total nodes than the reference can beat it
        // (performance above 1.0) — but a truly unreachable target yields no
        // recommendation.
        assert!(report
            .records
            .iter()
            .any(|r| r.normalized.unwrap().performance > 1.0));
        assert!(report.recommend(1e9).is_none());
    }

    #[test]
    fn recommend_properties_hold_over_random_series() {
        // Property test over deterministic pseudo-random series: the
        // selection rule must (a) never return a point below the target and
        // (b) return a point of minimal energy among the qualifiers; when it
        // returns nothing, no point may qualify.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_unit = || {
            // xorshift64*: cheap, deterministic, no external dependency.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let word = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            (word >> 11) as f64 / (1u64 << 53) as f64
        };
        // One real record, relabelled and re-pointed per design.
        let design = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
        let template = Analytical
            .estimate(advisor().plan().unwrap(), &design)
            .unwrap();
        let record = |design: String, normalized: NormalizedPoint| RunRecord {
            design,
            normalized: Some(normalized),
            ..template.clone()
        };
        for trial in 0..200 {
            let mut records = vec![record("ref".into(), NormalizedPoint::reference())];
            let points = 1 + (next_unit() * 12.0) as usize;
            for i in 0..points {
                let point = NormalizedPoint {
                    performance: 0.05 + 1.5 * next_unit(),
                    energy: 0.05 + 1.5 * next_unit(),
                };
                records.push(record(format!("d{i}"), point));
            }
            let series = RunSeries {
                estimator: template.estimator.clone(),
                workload: template.workload.clone(),
                strategy: template.strategy,
                records,
                infeasible: Vec::new(),
            };
            let target = 1.6 * next_unit();
            let qualifies = |p: &NormalizedPoint| p.performance + EDP_EPSILON >= target;
            match series.recommend(target) {
                Some(pick) => {
                    assert!(
                        qualifies(&pick.point),
                        "trial {trial}: pick {} perf {} below target {target}",
                        pick.label,
                        pick.point.performance
                    );
                    for other in &series.records {
                        let point = other.normalized.unwrap();
                        if qualifies(&point) {
                            assert!(
                                pick.point.energy <= point.energy,
                                "trial {trial}: {} (energy {}) beats pick {} ({})",
                                other.design,
                                point.energy,
                                pick.label,
                                pick.point.energy
                            );
                        }
                    }
                }
                None => assert!(
                    series
                        .records
                        .iter()
                        .all(|r| !qualifies(&r.normalized.unwrap())),
                    "trial {trial}: a qualifying point was skipped"
                ),
            }
        }
    }

    #[test]
    fn recommend_convenience_matches_evaluate() {
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), 3, 3).unwrap();
        let adv = advisor();
        let direct = adv.recommend(&space, 0.75).unwrap();
        let via_report = adv.evaluate(&space).unwrap().recommend(0.75);
        assert_eq!(direct, via_report);
        assert!(direct.unwrap().to_string().contains("execution"));
    }

    #[test]
    fn empty_workloads_error_instead_of_panicking() {
        // A degenerate workload with no plans must surface as an error from
        // evaluation, not a panic in the constructor.
        let base = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
        let empty = crate::ConcurrencySweep::new(base, []);
        let adv = DesignAdvisor::new(Analytical, &empty);
        assert!(adv.plan().is_none());
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), 2, 2).unwrap();
        let err = adv.evaluate(&space).unwrap_err();
        assert!(err.to_string().contains("no plans"), "{err}");
    }

    #[test]
    fn cheapest_meeting_p99_picks_the_lowest_energy_design_that_clears_the_floor() {
        use crate::lens::Serving;
        use crate::workload::ServingWorkload;
        use eedc_pstore::JoinQuerySpec;

        // The acceptance sweep: three homogeneous designs under the Serving
        // lens. Smaller clusters serve slower (longer p99) but burn less
        // energy over the window, so an SLA floor slices the sweep.
        let sweep = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
        let designs: Vec<ClusterSpec> = [16, 8, 4]
            .map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap())
            .to_vec();
        let slowest = Analytical
            .estimate(&sweep.plans()[0], &designs[2])
            .unwrap()
            .response_time
            .value();
        let workload = ServingWorkload::new(&sweep, 0.2 / slowest, Seconds(500.0 * slowest), 2_024);
        let advisor = DesignAdvisor::new(Serving::fcfs(), &workload);
        let report = advisor.evaluate_designs(&designs).unwrap();
        assert_eq!(report.records.len(), 3);
        let p99s: Vec<f64> = report
            .records
            .iter()
            .map(|r| r.serving.as_ref().unwrap().p99.value())
            .collect();
        assert!(
            p99s[0] < p99s[1] && p99s[1] < p99s[2],
            "p99 must grow as the design shrinks: {p99s:?}"
        );

        // A floor between the 8-node and 4-node tails: the 4-node design is
        // cheapest but misses the SLA, so the pick must clear the floor and
        // be the cheapest among the qualifiers.
        let floor = Seconds((p99s[1] + p99s[2]) / 2.0);
        let pick = report
            .cheapest_meeting_p99(floor)
            .unwrap()
            .expect("two designs clear this floor");
        let pick_stats = pick.serving.as_ref().unwrap();
        assert!(
            pick_stats.p99 <= floor,
            "pick p99 {:?} above the floor {floor:?}",
            pick_stats.p99
        );
        for record in &report.records {
            if record.serving.as_ref().unwrap().p99 <= floor {
                assert!(
                    pick.energy <= record.energy,
                    "{} beats the pick on energy",
                    record.design
                );
            }
        }
        // The one-call advisor objective agrees with the report method.
        let direct = advisor
            .cheapest_meeting_p99(&designs, floor)
            .unwrap()
            .unwrap();
        assert_eq!(direct.design, pick.design);

        // An unreachable floor yields no design; a non-serving estimator is
        // a caller error, not an empty answer.
        assert!(report
            .cheapest_meeting_p99(Seconds(1e-9))
            .unwrap()
            .is_none());
        let plain = DesignAdvisor::new(Analytical, &sweep);
        let err = plain.cheapest_meeting_p99(&designs, floor).unwrap_err();
        assert!(err.to_string().contains("Serving"), "{err}");
        // And an empty design list is rejected up front.
        assert!(advisor.evaluate_designs(&[]).is_err());
    }

    #[test]
    fn cheapest_meeting_availability_agrees_with_brute_force() {
        use crate::lens::Serving;
        use crate::workload::ServingWorkload;
        use eedc_dbmsim::FaultModel;
        use eedc_simkit::units::Seconds;

        // Three homogeneous designs under a per-node hazard rate: larger
        // fleets fail more often (lower availability) but serve faster, so
        // an availability floor slices the sweep. The rate is expressed in
        // failures per node-hour such that even the 4-node design expects a
        // couple of dozen failures over the window.
        let sweep = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
        let designs: Vec<ClusterSpec> = [16, 8, 4]
            .map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap())
            .to_vec();
        let slowest = Analytical
            .estimate(&sweep.plans()[0], &designs[2])
            .unwrap()
            .response_time
            .value();
        let window = Seconds(200.0 * slowest);
        let rate = 20.0 * 3_600.0 / (4.0 * window.value());
        let model = FaultModel::new(rate).repair_time(Seconds(0.2 * slowest));
        let workload =
            ServingWorkload::new(&sweep, 0.2 / slowest, window, 2_024).with_faults(model);
        let advisor = DesignAdvisor::new(Serving::fcfs(), &workload);
        let report = advisor.evaluate_designs(&designs).unwrap();
        assert_eq!(report.records.len(), 3);
        let avail_of = |record: &RunRecord| {
            record
                .serving
                .as_ref()
                .unwrap()
                .faults
                .as_ref()
                .expect("churned records carry fault stats")
                .availability
        };
        let availabilities: Vec<f64> = report.records.iter().map(&avail_of).collect();
        assert!(availabilities.iter().all(|&a| a > 0.0 && a < 1.0));
        let lo = availabilities.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let hi = availabilities.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(lo < hi, "the hazard must bite the designs differently");

        // A floor strictly between the worst and best availability: at
        // least one design qualifies and at least one is excluded. The
        // method's pick must equal the brute-force minimum-energy design
        // among the qualifiers.
        let floor = (lo + hi) / 2.0;
        let brute = report
            .records
            .iter()
            .filter(|r| avail_of(r) >= floor)
            .min_by(|a, b| a.energy.value().total_cmp(&b.energy.value()))
            .expect("the best-availability design qualifies");
        let pick = report
            .cheapest_meeting_availability(floor)
            .unwrap()
            .expect("at least one design clears the floor");
        assert_eq!(pick.design, brute.design);
        assert_eq!(pick.energy, brute.energy);
        // The one-call advisor objective agrees with the report method.
        let direct = advisor
            .cheapest_meeting_availability(&designs, floor)
            .unwrap()
            .unwrap();
        assert_eq!(direct.design, pick.design);

        // An unreachable floor yields no design; a non-serving estimator is
        // a caller error, not an empty answer.
        assert!(report
            .cheapest_meeting_availability(1.01)
            .unwrap()
            .is_none());
        let plain = DesignAdvisor::new(Analytical, &sweep);
        let err = plain
            .cheapest_meeting_availability(&designs, floor)
            .unwrap_err();
        assert!(err.to_string().contains("Serving"), "{err}");
    }

    #[test]
    fn advisor_ranks_designs_under_any_estimator() {
        // The tentpole requirement: the Section 6 selection rule is
        // estimator-agnostic. Run the same space under the behavioural lens
        // — a completely different evaluation path — and the report still
        // accounts for every design and recommends a qualifying one.
        let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
        let adv = DesignAdvisor::new(Behavioural, &workload);
        assert_eq!(adv.plan().unwrap().strategy, JoinStrategy::DualShuffle);
        let space = DesignSpace::new(cluster_v_node(), laptop_b(), 4, 2).unwrap();
        let report = adv.evaluate(&space).unwrap();
        assert_eq!(report.records.len() + report.infeasible.len(), space.len());
        let pick = report.recommend(0.75).expect("reference qualifies");
        assert!(pick.point.performance + 1e-9 >= 0.75);
        assert_eq!(report.records[0].estimator, "behavioural");
    }
}
