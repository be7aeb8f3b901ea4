//! The trace-driven lens: utilization traces replayed under an engine
//! behaviour.

use super::Estimator;
use crate::error::CoreError;
use crate::model::AnalyticalModel;
use crate::record::{PhaseRecord, RunRecord};
use crate::workload::WorkloadPlan;
use eedc_dbmsim::{replay, EngineBehaviour, ReplayPhase, UtilizationTrace};
use eedc_pstore::stats::Bottleneck;
use eedc_pstore::ClusterSpec;

/// The trace-driven lens: synthesize a per-node, per-phase utilization
/// trace for the plan, shape it with an [`EngineBehaviour`], and replay it
/// through the node power models — the Section 3 methodology, simulated end
/// to end (`eedc_dbmsim::trace` / `replay` / `engines`).
///
/// The trace is exported from the Section 5.4 analytical model's prediction
/// by [`UtilizationTrace::from_execution`] — the same export a measured run
/// goes through (per-node CPU busy shares from the utilizations, each node's
/// own port busy fraction, the scan fraction on disk-resident plans). The
/// [`Traced::pstore`] engine — pipelined, never restarting — therefore
/// reproduces the [`Analytical`](crate::Analytical) lens exactly. The point of the lens is what
/// the *other* engines do to the same trace: [`Traced::dbms_x`] models the
/// Section 3.2 DBMS-X behaviour (repartitioned intermediates staged through
/// disk, plus a mid-query restart), a scenario family no measured P-store
/// run can reach.
///
/// ```
/// use eedc_core::{Experiment, SweepJoin, Traced};
/// use eedc_pstore::{ClusterSpec, JoinQuerySpec};
/// use eedc_simkit::catalog::cluster_v_node;
///
/// let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
/// let report = Experiment::new(&workload)
///     .designs([16, 8, 4].map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()))
///     .estimator(Traced::pstore())
///     .estimator(Traced::dbms_x())
///     .run()
///     .unwrap();
/// // Section 3.2's shape: the disk-staging, restarting engine pays strictly
/// // more time and energy than the pipelined engine on every design.
/// let (pstore, dbms_x) = (&report.series[0], &report.series[1]);
/// for (p, x) in pstore.records.iter().zip(&dbms_x.records) {
///     assert!(x.response_time > p.response_time, "{}", p.design);
///     assert!(x.energy > p.energy, "{}", p.design);
/// }
/// // The staged run's phase series carries the extra disk phases.
/// assert!(dbms_x.records[0].phases.iter().any(|p| p.label.ends_with("/stage")));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    engine: EngineBehaviour,
    name: String,
}

impl Traced {
    /// The pipelined, restart-free P-store engine — the baseline the other
    /// engine behaviours are compared against.
    pub fn pstore() -> Self {
        Self {
            engine: EngineBehaviour::pstore_like(),
            name: "traced".into(),
        }
    }

    /// The Section 3.2 DBMS-X engine: disk-staged intermediates and a
    /// representative mid-query restart.
    pub fn dbms_x() -> Self {
        Self {
            engine: EngineBehaviour::dbms_x(),
            name: "traced:dbms-x".into(),
        }
    }

    /// A traced lens over a custom engine behaviour (named
    /// `traced:<engine>` in reports).
    pub fn with_engine(engine: EngineBehaviour) -> Self {
        let name = format!("traced:{}", engine.name);
        Self { engine, name }
    }

    /// The engine behaviour shaping the replayed traces.
    pub fn engine(&self) -> &EngineBehaviour {
        &self.engine
    }
}

impl Default for Traced {
    fn default() -> Self {
        Self::pstore()
    }
}

impl Estimator for Traced {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let model = AnalyticalModel::new(plan.sweep)?;
        // Feasibility is decided exactly like every other lens: the model
        // refuses designs whose hash table fits no execution mode, which
        // the series protocol records as infeasible.
        let prediction = model.predict_skewed(design, plan.strategy, plan.skew.as_ref())?;
        let trace =
            UtilizationTrace::from_execution(&prediction, design.nodes(), plan.sweep.in_memory)?;
        let shaped = self.engine.apply(&trace, design.nodes())?;
        let result = replay(&shaped, design.nodes())?;
        Ok(RunRecord {
            workload: plan.label.clone(),
            estimator: self.name(),
            design: prediction.cluster_label.clone(),
            strategy: plan.strategy,
            mode: prediction.mode,
            concurrency: plan.sweep.concurrency,
            response_time: result.response_time(),
            energy: result.energy(),
            node_utilization: result.node_utilization(),
            node_energy: result.node_energy(),
            phases: result.phases.iter().map(record_from_replay_phase).collect(),
            output_rows: None,
            serving: None,
            normalized: None,
        })
    }
}

/// Shape a replayed phase like every other lens's phase record. Replay
/// reports busy *times* per resource rather than producer/consumer
/// completion times, so the mapping is: disk busy → `scan_time`, port busy
/// → `network_time`, CPU busy → `compute_time`, and the bottleneck is the
/// busiest of the three.
fn record_from_replay_phase(phase: &ReplayPhase) -> PhaseRecord {
    PhaseRecord {
        label: phase.label.clone(),
        duration: phase.duration,
        energy: phase.energy,
        bytes_over_network: phase.network_bytes,
        scan_time: phase.disk_time,
        network_time: phase.network_time,
        compute_time: phase.cpu_time,
        bottleneck: Bottleneck::slowest(phase.disk_time, phase.network_time, phase.cpu_time),
    }
}
