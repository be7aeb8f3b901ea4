//! The estimator side of the experiment API: *how* a workload is evaluated.
//!
//! The paper's whole argument runs on comparing the *same* workload through
//! different lenses:
//!
//! * [`Measured`] — the P-store cluster runtime of Section 5
//!   (engine-scale correctness, nominal-scale time/energy),
//! * [`Analytical`] — the closed-form Section 5.4 design model,
//! * [`Behavioural`] — the first-order Section 3.1 scaling law,
//! * [`Traced`] — the trace-driven behavioural simulator of Sections 3–3.2:
//!   per-node, per-phase utilization traces replayed through the node power
//!   models under a configurable engine behaviour (pipelined P-store, or
//!   the disk-staging / mid-query-restart DBMS-X engine),
//! * [`Serving`] — an open-loop query stream through the discrete-event
//!   serving simulator: latency percentiles, drops, energy per query.
//!
//! Every lens implements [`Estimator`] and yields the same [`RunRecord`]
//! shape, so examples, validation tests and the figures pipeline stop
//! hand-wiring the comparison. One file per lens; the trait, the
//! closed-form [`Analytical`] lens and the execution-to-record conversion
//! the measured and analytical lenses share live here.

mod behavioural;
mod measured;
mod serving;
mod traced;

pub use behavioural::Behavioural;
pub use measured::Measured;
pub use serving::Serving;
pub use traced::Traced;

use crate::error::CoreError;
use crate::model::AnalyticalModel;
use crate::record::{PhaseRecord, RunRecord};
use crate::workload::WorkloadPlan;
use eedc_pstore::stats::QueryExecution;
use eedc_pstore::ClusterSpec;
use eedc_simkit::units::{Joules, Seconds};

/// An evaluation lens over workload plans: measured execution, analytical
/// prediction, or behavioural extrapolation — anything that can turn a
/// `(plan, design)` pair into a [`RunRecord`].
///
/// The trait is object safe (`Box<dyn Estimator>` works), so callers can mix
/// lenses in one experiment and the Section 6 advisor can rank designs from
/// measured *or* modeled points.
pub trait Estimator {
    /// Short name used for report columns and JSON (`"measured"`,
    /// `"analytical"`, `"behavioural"`).
    fn name(&self) -> String;

    /// Estimate one plan on one design.
    ///
    /// A design the workload cannot run on at all (its hash table fits no
    /// execution mode) must surface as [`CoreError::Runtime`] so sweeps can
    /// record it as infeasible rather than aborting.
    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError>;
}

impl Estimator for Box<dyn Estimator> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        (**self).estimate(plan, design)
    }
}

fn record_from_execution(
    plan: &WorkloadPlan,
    estimator: String,
    execution: &QueryExecution,
) -> RunRecord {
    let (node_utilization, node_energy) = aggregate_nodes(
        execution
            .phases
            .iter()
            .map(|p| (p.duration, &p.node_utilization[..], &p.node_energy[..])),
    );
    RunRecord {
        workload: plan.label.clone(),
        estimator,
        design: execution.cluster_label.clone(),
        strategy: execution.strategy,
        mode: execution.mode,
        concurrency: execution.concurrency,
        response_time: execution.response_time(),
        energy: execution.energy(),
        node_utilization,
        node_energy,
        phases: execution.phases.iter().map(PhaseRecord::from).collect(),
        output_rows: execution.output_rows,
        serving: None,
        normalized: None,
    }
}

/// Duration-weighted per-node utilization and per-node energy totals across
/// phases.
fn aggregate_nodes<'a>(
    phases: impl Iterator<Item = (Seconds, &'a [f64], &'a [Joules])>,
) -> (Vec<f64>, Vec<Joules>) {
    let mut total_time = 0.0;
    let mut weighted = Vec::new();
    let mut energy: Vec<Joules> = Vec::new();
    for (duration, utilization, joules) in phases {
        if weighted.is_empty() {
            weighted = vec![0.0; utilization.len()];
            energy = vec![Joules::zero(); joules.len()];
        }
        total_time += duration.value();
        for (acc, &u) in weighted.iter_mut().zip(utilization) {
            *acc += u * duration.value();
        }
        for (acc, &e) in energy.iter_mut().zip(joules) {
            *acc += e;
        }
    }
    if total_time > f64::EPSILON {
        for u in &mut weighted {
            *u /= total_time;
        }
    }
    (weighted, energy)
}

/// The analytical lens: the closed-form Section 5.4 model, no data
/// generation and no flow simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Analytical;

impl Estimator for Analytical {
    fn name(&self) -> String {
        "analytical".into()
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let model = AnalyticalModel::new(plan.sweep)?;
        let prediction = model.predict_skewed(design, plan.strategy, plan.skew.as_ref())?;
        Ok(record_from_execution(plan, self.name(), &prediction))
    }
}
