//! The [`Experiment`] runner: sweep any [`Workload`] across cluster designs
//! under one or more [`Estimator`] lenses, and the [`RunSeries`] /
//! [`ExperimentReport`] it yields.
//!
//! Every lens (see [`crate::lens`]) yields the same [`RunRecord`] shape —
//! response time, energy, EDP, per-node utilization and energy, and a
//! normalized-vs-reference point — so examples, validation tests and the
//! figures pipeline stop hand-wiring the comparison. `evaluate_series` is
//! the one normalization / infeasibility protocol; the Section 6 advisor
//! runs it too and hands back the same [`RunSeries`]. Reports serialize to
//! JSON through [`crate::json`] for the figures pipeline and round-trip back
//! via [`ExperimentReport::from_json`].
//!
//! ```no_run
//! use eedc_core::{Analytical, Behavioural, Experiment, SweepJoin};
//! use eedc_pstore::{ClusterSpec, JoinQuerySpec};
//! use eedc_simkit::catalog::cluster_v_node;
//!
//! let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
//! let report = Experiment::new(&workload)
//!     .designs((1..=4).map(|i| ClusterSpec::homogeneous(cluster_v_node(), 4 * i).unwrap()))
//!     .estimator(Analytical)
//!     .estimator(Behavioural)
//!     .run()
//!     .unwrap();
//! for series in &report.series {
//!     for record in &series.records {
//!         println!("{}: {:?}", record.design, record.normalized);
//!     }
//! }
//! ```

use crate::error::CoreError;
use crate::json::{JsonValue, JsonWriter};
use crate::lens::Estimator;
use crate::record::RunRecord;
use crate::workload::{Workload, WorkloadPlan};
use eedc_pstore::{ClusterSpec, JoinQuerySpec, JoinStrategy};
use eedc_simkit::metrics::NormalizedPoint;
use std::io;
use std::path::Path;

/// One estimator's sweep of one workload plan across the experiment's
/// designs: the uniform records (reference first, each carrying the
/// normalized point the figures plot) and the designs the estimator refused
/// as infeasible.
///
/// This is also the Section 6 advisor's report:
/// [`DesignAdvisor::evaluate`](crate::DesignAdvisor::evaluate) returns the
/// series `evaluate_series` built rather than unpacking it into a second
/// struct, and the selection rules — `recommend`, `cheapest_meeting_p99`,
/// `cheapest_meeting_availability`, defined in [`crate::advisor`] — are
/// methods here, so they apply to a series from [`Experiment::run`] or one
/// read back from JSON just the same.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSeries {
    /// The estimator that produced the series.
    pub estimator: String,
    /// Label of the workload plan.
    pub workload: String,
    /// The join strategy evaluated.
    pub strategy: JoinStrategy,
    /// Records for every feasible design, reference first, each carrying its
    /// normalized point.
    pub records: Vec<RunRecord>,
    /// Designs whose hash table fits no execution mode, with the planner's
    /// reason — accounted rather than silently dropped.
    pub infeasible: Vec<(String, String)>,
}

impl RunSeries {
    /// The record for a labelled design, if it was feasible.
    pub fn record(&self, design: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.design == design)
    }

    /// The reference design's label: the first record's (empty for a series
    /// without records).
    fn reference(&self) -> &str {
        self.records.first().map_or("", |r| r.design.as_str())
    }

    /// Reconstruct a series from the JSON shape the writer emits. The
    /// `reference` must name the first record, and every later record must
    /// carry its normalized point, exactly as the evaluation protocol wrote
    /// them.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        let infeasible = value
            .array_field("infeasible")?
            .iter()
            .map(|entry| {
                Ok((
                    entry.str_field("design")?.to_string(),
                    entry.str_field("reason")?.to_string(),
                ))
            })
            .collect::<Result<_, CoreError>>()?;
        let series = Self {
            estimator: value.str_field("estimator")?.to_string(),
            workload: value.str_field("workload")?.to_string(),
            strategy: value.str_field("strategy")?.parse()?,
            records: value
                .array_field("records")?
                .iter()
                .map(RunRecord::from_json)
                .collect::<Result<_, _>>()?,
            infeasible,
        };
        let reference = value.str_field("reference")?;
        if reference != series.reference() {
            return Err(CoreError::invalid(format!(
                "serialized series names reference '{reference}' but its first record is '{}'",
                series.reference()
            )));
        }
        if let Some(record) = series
            .records
            .iter()
            .skip(1)
            .find(|r| r.normalized.is_none())
        {
            return Err(CoreError::invalid(format!(
                "record '{}' in a serialized series has no normalized point",
                record.design
            )));
        }
        Ok(series)
    }

    /// Write the series as a JSON object.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("estimator").string(&self.estimator);
        w.key("workload").string(&self.workload);
        w.key("strategy").string(self.strategy.as_str());
        w.key("reference").string(self.reference());
        w.key("records").begin_array();
        for record in &self.records {
            record.write_json(w);
        }
        w.end_array();
        w.key("infeasible").begin_array();
        for (design, reason) in &self.infeasible {
            w.begin_object();
            w.key("design").string(design);
            w.key("reason").string(reason);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// A full experiment report: one [`RunSeries`] per (estimator × workload
/// plan) pair, in estimator-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// The series, grouped by estimator, then workload plan.
    pub series: Vec<RunSeries>,
}

impl ExperimentReport {
    /// Every record across all series.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.series.iter().flat_map(|s| s.records.iter())
    }

    /// Render the report as an indented JSON string — the report's one
    /// serializer, streamed through the crate's JSON writer.
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new(true);
        w.begin_object();
        w.key("series").begin_array();
        for series in &self.series {
            series.write_json(&mut w);
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Write the report as JSON to `path`, creating parent directories as
    /// needed — the first step of the figures pipeline's real serialization.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }

    /// Reconstruct a report from the JSON shape
    /// [`to_json_string`](Self::to_json_string) emits —
    /// `from_json(parse(to_json_string())) == self` for every report the
    /// writer can produce.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        Ok(Self {
            series: value
                .array_field("series")?
                .iter()
                .map(RunSeries::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Read a report back from a JSON file written by
    /// [`write_json`](Self::write_json) — the reader half of the figures
    /// pipeline, for baseline comparisons across runs.
    pub fn read_json(path: impl AsRef<Path>) -> Result<Self, CoreError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|err| {
            CoreError::invalid(format!(
                "cannot read report '{}': {err}",
                path.as_ref().display()
            ))
        })?;
        Self::from_json(&JsonValue::parse(&text)?)
    }
}

/// Builder-style experiment runner: any workload, a set of cluster designs,
/// and one or more estimators — the single entry point the paper's
/// comparisons (and every example, bench, and validation test) go through.
///
/// The first design added is the normalization reference; it must be
/// feasible under every estimator. Designs an estimator refuses (hash table
/// fits no execution mode) are recorded per series as infeasible.
pub struct Experiment {
    plans: Vec<WorkloadPlan>,
    designs: Vec<ClusterSpec>,
    estimators: Vec<Box<dyn Estimator>>,
    strategy: Option<JoinStrategy>,
    query: Option<JoinQuerySpec>,
}

impl Experiment {
    /// Start an experiment over a workload's plans.
    pub fn new(workload: &dyn Workload) -> Self {
        Self {
            plans: workload.plans(),
            designs: Vec::new(),
            estimators: Vec::new(),
            strategy: None,
            query: None,
        }
    }

    /// Append another workload's plans to the experiment.
    pub fn workload(mut self, workload: &dyn Workload) -> Self {
        self.plans.extend(workload.plans());
        self
    }

    /// Override the join strategy of every plan.
    pub fn strategy(mut self, strategy: JoinStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Override the query spec the measured runtime executes (the analytical
    /// sweep volumes are left untouched).
    pub fn query(mut self, query: JoinQuerySpec) -> Self {
        self.query = Some(query);
        self
    }

    /// Add one candidate design. The first design added is the
    /// normalization reference.
    pub fn design(mut self, design: ClusterSpec) -> Self {
        self.designs.push(design);
        self
    }

    /// Add candidate designs in order.
    pub fn designs(mut self, designs: impl IntoIterator<Item = ClusterSpec>) -> Self {
        self.designs.extend(designs);
        self
    }

    /// Add an estimator. Estimators run in the order they were added.
    pub fn estimator(mut self, estimator: impl Estimator + 'static) -> Self {
        self.estimators.push(Box::new(estimator));
        self
    }

    /// Run every (estimator × plan) series across the designs.
    pub fn run(&self) -> Result<ExperimentReport, CoreError> {
        if self.plans.is_empty() {
            return Err(CoreError::invalid("experiment has no workload plans"));
        }
        if self.designs.is_empty() {
            return Err(CoreError::invalid("experiment has no designs"));
        }
        if self.estimators.is_empty() {
            return Err(CoreError::invalid("experiment has no estimators"));
        }
        let mut series = Vec::new();
        for estimator in &self.estimators {
            for plan in &self.plans {
                let mut plan = plan.clone();
                if let Some(strategy) = self.strategy {
                    plan.strategy = strategy;
                }
                if let Some(query) = self.query {
                    plan.query = query;
                }
                series.push(evaluate_series(estimator.as_ref(), &plan, &self.designs)?);
            }
        }
        Ok(ExperimentReport { series })
    }
}

/// Evaluate one (estimator, plan) series across `designs`: the first design
/// is the normalization reference and must be feasible; designs the
/// estimator refuses ([`CoreError::Runtime`]) are recorded as infeasible.
/// This is the single normalization/infeasibility protocol shared by
/// [`Experiment::run`] and the Section 6 advisor.
pub(crate) fn evaluate_series(
    estimator: &dyn Estimator,
    plan: &WorkloadPlan,
    designs: &[ClusterSpec],
) -> Result<RunSeries, CoreError> {
    let reference_design = designs
        .first()
        .ok_or_else(|| CoreError::invalid("a series needs at least one design"))?;
    let mut reference = estimator.estimate(plan, reference_design)?;
    let reference_measurement = reference.measurement();
    reference.normalized = Some(NormalizedPoint::reference());
    let mut records = vec![reference];
    let mut infeasible = Vec::new();
    for design in &designs[1..] {
        match estimator.estimate(plan, design) {
            Ok(mut record) => {
                let point = record
                    .measurement()
                    .normalized_against(&reference_measurement)?;
                record.normalized = Some(point);
                records.push(record);
            }
            Err(CoreError::Runtime(err)) => {
                infeasible.push((design.label(), err.to_string()));
            }
            Err(err) => return Err(err),
        }
    }
    Ok(RunSeries {
        estimator: estimator.name(),
        workload: plan.label.clone(),
        strategy: plan.strategy,
        records,
        infeasible,
    })
}

#[cfg(test)]
mod tests;
