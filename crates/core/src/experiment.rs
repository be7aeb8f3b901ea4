//! The estimator side of the experiment API: *how* a workload is evaluated,
//! and the [`Experiment`] runner that sweeps any [`Workload`] across cluster
//! designs under one or more estimators.
//!
//! The paper's whole argument runs on comparing the *same* workload through
//! four lenses:
//!
//! * [`Measured`] — the P-store cluster runtime of Section 5
//!   (engine-scale correctness, nominal-scale time/energy),
//! * [`Analytical`] — the closed-form Section 5.4 design model,
//! * [`Behavioural`] — the first-order Section 3.1 scaling law,
//! * [`Traced`] — the trace-driven behavioural simulator of Sections 3–3.2:
//!   per-node, per-phase utilization traces replayed through the node power
//!   models under a configurable engine behaviour (pipelined P-store, or
//!   the disk-staging / mid-query-restart DBMS-X engine).
//!
//! Every lens implements [`Estimator`] and yields the same [`RunRecord`]
//! shape — response time, energy, EDP, per-node utilization and energy, and
//! a normalized-vs-reference point — so examples, benches, validation tests
//! and the figures pipeline stop hand-wiring the comparison. Records
//! serialize to JSON through [`crate::json`] for the figures pipeline, and
//! reports round-trip back via [`ExperimentReport::from_json`].
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
use crate::json::JsonValue;
use crate::model::AnalyticalModel;
use crate::workload::{ServingParams, Workload, WorkloadPlan};
use eedc_dbmsim::{
    replay, simulate_serving, BehaviouralModel, EnergyAwareScheduler, EngineBehaviour, FaultModel,
    FcfsScheduler, JoinShortestQueue, PowerOfTwoChoices, ReplayPhase, Scheduler, ServiceProfile,
    ServingConfig, ServingServer, TransitionCost, UtilizationTrace,
};
use eedc_pstore::stats::{Bottleneck, ExecutionMode, PhaseStats, QueryExecution};
use eedc_pstore::{
    ClusterSpec, JoinQuerySpec, JoinStrategy, PStoreCluster, PStoreError, RunOptions,
};
use eedc_simkit::metrics::{Measurement, NormalizedPoint, NormalizedSeries};
use eedc_simkit::units::{Joules, Megabytes, Seconds, Watts};
use eedc_simkit::{NodeClass, NodeSpec};
use eedc_tpch::{QueryId, QueryProfile};
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::rc::Rc;

/// One execution phase of a run, shaped identically for measured and modeled
/// runs (behavioural extrapolations carry no phase breakdown).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRecord {
    /// Phase label (`"build"` / `"probe"`).
    pub label: String,
    /// Wall-clock duration of the phase.
    pub duration: Seconds,
    /// Cluster energy over the phase.
    pub energy: Joules,
    /// Bytes that crossed the network.
    pub bytes_over_network: Megabytes,
    /// Time the slowest producer spent scanning.
    pub scan_time: Seconds,
    /// Completion time of the network transfer.
    pub network_time: Seconds,
    /// Time the slowest consumer spent building/probing.
    pub compute_time: Seconds,
    /// The component that bounded the phase.
    pub bottleneck: Bottleneck,
}

impl From<&PhaseStats> for PhaseRecord {
    fn from(p: &PhaseStats) -> Self {
        Self {
            label: p.label.clone(),
            duration: p.duration,
            energy: p.energy,
            bytes_over_network: p.bytes_over_network,
            scan_time: p.scan_time,
            network_time: p.network_time,
            compute_time: p.compute_time,
            bottleneck: p.bottleneck,
        }
    }
}

/// The uniform result of estimating one workload plan on one cluster design
/// — the currency of the experiment API, identical across all estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Label of the workload plan.
    pub workload: String,
    /// Name of the estimator that produced the record.
    pub estimator: String,
    /// Label of the design (`"2B,2W"` convention).
    pub design: String,
    /// The join strategy evaluated.
    pub strategy: JoinStrategy,
    /// Homogeneous or heterogeneous execution.
    pub mode: ExecutionMode,
    /// Number of identical concurrent queries in the batch.
    pub concurrency: usize,
    /// Query (batch) response time.
    pub response_time: Seconds,
    /// Total cluster energy.
    pub energy: Joules,
    /// Time-averaged per-node CPU utilization, in cluster node order.
    pub node_utilization: Vec<f64>,
    /// Per-node energy, in cluster node order; sums to `energy`.
    pub node_energy: Vec<Joules>,
    /// Per-phase breakdown (empty for behavioural extrapolations).
    pub phases: Vec<PhaseRecord>,
    /// Verified join output rows — measured runs only.
    pub output_rows: Option<usize>,
    /// Serving-level statistics (latency percentiles, drop rate,
    /// energy-per-query) — [`Serving`] runs only.
    pub serving: Option<ServingStats>,
    /// The record's (performance, energy) point normalized against the
    /// experiment's reference design; filled in by [`Experiment::run`].
    pub normalized: Option<NormalizedPoint>,
}

/// Queueing statistics of one serving run — the fields only an open-loop
/// discrete-event simulation can produce, carried alongside the closed-form
/// shape of [`RunRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Placement policy that scheduled the queries.
    pub scheduler: String,
    /// Arrival-law name (`"poisson"` / `"trace"` / `"ramp"`). `None` when
    /// read back from a report written before arrival processes existed.
    pub arrival: Option<String>,
    /// Offered load (mean arrivals per second over the window).
    pub offered_qps: f64,
    /// Completions per second over the run.
    pub achieved_qps: f64,
    /// Queries that arrived / completed / were dropped / timed out.
    pub arrivals: usize,
    /// Queries that completed service.
    pub completed: usize,
    /// Arrivals rejected because the admission queue was full.
    pub dropped: usize,
    /// Queued queries abandoned after exceeding the configured wait bound.
    pub timed_out: usize,
    /// Fraction of arrivals lost to drops or timeouts.
    pub drop_rate: f64,
    /// Median latency.
    pub p50: Seconds,
    /// 95th-percentile latency.
    pub p95: Seconds,
    /// 99th-percentile latency.
    pub p99: Seconds,
    /// Mean completed-query latency.
    pub mean_latency: Seconds,
    /// Mean admission-queue wait before service.
    pub mean_wait: Seconds,
    /// Total run energy (idle power included) per completed query.
    pub energy_per_query: Joules,
    /// Time-averaged queries in system (waiting + in flight) per pool.
    /// Empty when read back from a report written before queue-depth
    /// accounting existed.
    pub pool_mean_depth: Vec<f64>,
    /// High-water mark of each pool's own queue (waiting only); empty for
    /// pre-queue-depth reports.
    pub pool_max_queued: Vec<usize>,
    /// Availability and lifecycle accounting — present only when the run
    /// carried an active [`FaultModel`], so
    /// fault-free reports keep their pre-fault byte shape.
    pub faults: Option<FaultStats>,
}

/// Fault-injection and cluster-lifecycle accounting of one serving run:
/// what failed, what the failures cost, and how the elastic policy moved
/// the fleet. Rides inside [`ServingStats`] only when the run's
/// [`FaultModel`] actually did something.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStats {
    /// Fraction of pool-time not lost to failures (repair + warm-up);
    /// deliberate parking by the scale policy does not count against it.
    pub availability: f64,
    /// Pool-down events (hazard draws plus scripted outages) that fired.
    pub failures: usize,
    /// In-flight queries killed by a pool failure.
    pub killed: usize,
    /// Killed queries re-admitted under the recovery policy.
    pub readmitted: usize,
    /// Parked pools revived by the scale policy.
    pub scale_out_events: usize,
    /// Idle pools parked by the scale policy.
    pub scale_in_events: usize,
    /// Summed pool-seconds lost to repair and restart warm-up.
    pub fault_downtime: Seconds,
    /// Energy billed to restarts and scale migrations (data movement).
    pub overhead_energy: Joules,
}

impl FaultStats {
    /// Render the stats as a JSON object (nested under the serving
    /// object's `"faults"` key).
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("availability", self.availability)
            .set("failures", self.failures)
            .set("killed", self.killed)
            .set("readmitted", self.readmitted)
            .set("scale_out_events", self.scale_out_events)
            .set("scale_in_events", self.scale_in_events)
            .set("fault_downtime_s", self.fault_downtime.value())
            .set("overhead_energy_j", self.overhead_energy.value());
        obj
    }

    /// Reconstruct the stats from the shape [`to_json`](Self::to_json)
    /// emits.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        Ok(Self {
            availability: value.f64_field("availability")?,
            failures: value.usize_field("failures")?,
            killed: value.usize_field("killed")?,
            readmitted: value.usize_field("readmitted")?,
            scale_out_events: value.usize_field("scale_out_events")?,
            scale_in_events: value.usize_field("scale_in_events")?,
            fault_downtime: Seconds(value.f64_field("fault_downtime_s")?),
            overhead_energy: Joules(value.f64_field("overhead_energy_j")?),
        })
    }
}

impl ServingStats {
    /// Render the stats as a JSON object. The later-vintage fields
    /// (`arrival`, the queue-depth vectors, the nested `faults` object) are
    /// emitted only when present, so stats read from an older report
    /// re-write byte-identically.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("scheduler", self.scheduler.clone());
        if let Some(arrival) = &self.arrival {
            obj.set("arrival", arrival.clone());
        }
        obj.set("offered_qps", self.offered_qps)
            .set("achieved_qps", self.achieved_qps)
            .set("arrivals", self.arrivals)
            .set("completed", self.completed)
            .set("dropped", self.dropped)
            .set("timed_out", self.timed_out)
            .set("drop_rate", self.drop_rate)
            .set("p50_s", self.p50.value())
            .set("p95_s", self.p95.value())
            .set("p99_s", self.p99.value())
            .set("mean_latency_s", self.mean_latency.value())
            .set("mean_wait_s", self.mean_wait.value())
            .set("energy_per_query_j", self.energy_per_query.value());
        if !self.pool_mean_depth.is_empty() {
            obj.set("pool_mean_depth", self.pool_mean_depth.clone());
        }
        if !self.pool_max_queued.is_empty() {
            obj.set("pool_max_queued", self.pool_max_queued.clone());
        }
        if let Some(faults) = &self.faults {
            obj.set("faults", faults.to_json());
        }
        obj
    }

    /// Reconstruct the stats from the JSON shape
    /// [`to_json`](Self::to_json) emits. Reports written before PR 9 carry
    /// no `arrival` / queue-depth keys; those read back as `None` / empty
    /// and re-write with the keys absent — byte-compatible.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        let arrival = match value.get("arrival") {
            None | Some(JsonValue::Null) => None,
            Some(kind) => Some(
                kind.as_str()
                    .ok_or_else(|| CoreError::invalid("serving 'arrival' is not a string"))?
                    .to_string(),
            ),
        };
        let f64_array = |key: &str| -> Result<Vec<f64>, CoreError> {
            match value.get(key) {
                None | Some(JsonValue::Null) => Ok(Vec::new()),
                Some(_) => value
                    .array_field(key)?
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| {
                            CoreError::invalid(format!("serving '{key}' holds a non-number"))
                        })
                    })
                    .collect(),
            }
        };
        Ok(Self {
            scheduler: value.str_field("scheduler")?.to_string(),
            arrival,
            offered_qps: value.f64_field("offered_qps")?,
            achieved_qps: value.f64_field("achieved_qps")?,
            arrivals: value.usize_field("arrivals")?,
            completed: value.usize_field("completed")?,
            dropped: value.usize_field("dropped")?,
            timed_out: value.usize_field("timed_out")?,
            drop_rate: value.f64_field("drop_rate")?,
            p50: Seconds(value.f64_field("p50_s")?),
            p95: Seconds(value.f64_field("p95_s")?),
            p99: Seconds(value.f64_field("p99_s")?),
            mean_latency: Seconds(value.f64_field("mean_latency_s")?),
            mean_wait: Seconds(value.f64_field("mean_wait_s")?),
            energy_per_query: Joules(value.f64_field("energy_per_query_j")?),
            pool_mean_depth: f64_array("pool_mean_depth")?,
            pool_max_queued: f64_array("pool_max_queued")?
                .into_iter()
                .map(|n| n as usize)
                .collect(),
            faults: match value.get("faults") {
                None | Some(JsonValue::Null) => None,
                Some(stats) => Some(FaultStats::from_json(stats)?),
            },
        })
    }
}

impl PhaseRecord {
    /// Reconstruct a phase record from the JSON shape the writer emits.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        Ok(Self {
            label: value.str_field("label")?.to_string(),
            duration: Seconds(value.f64_field("duration_s")?),
            energy: Joules(value.f64_field("energy_j")?),
            bytes_over_network: Megabytes(value.f64_field("bytes_over_network_mb")?),
            scan_time: Seconds(value.f64_field("scan_time_s")?),
            network_time: Seconds(value.f64_field("network_time_s")?),
            compute_time: Seconds(value.f64_field("compute_time_s")?),
            bottleneck: value.str_field("bottleneck")?.parse()?,
        })
    }
}

impl RunRecord {
    /// Collapse into a [`Measurement`] for normalization / EDP analysis.
    pub fn measurement(&self) -> Measurement {
        Measurement::new(self.response_time, self.energy)
    }

    /// Reconstruct a record from the JSON shape [`to_json`](Self::to_json)
    /// emits — the reader half of the figures pipeline, used for baseline
    /// comparisons against series already on disk.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        let number_array = |key: &str| -> Result<Vec<f64>, CoreError> {
            value
                .array_field(key)?
                .iter()
                .map(|v| {
                    v.as_f64().ok_or_else(|| {
                        CoreError::invalid(format!("JSON field '{key}' holds a non-number"))
                    })
                })
                .collect()
        };
        let output_rows = match value.field("output_rows")? {
            JsonValue::Null => None,
            _ => Some(value.usize_field("output_rows")?),
        };
        let normalized = match value.field("normalized")? {
            JsonValue::Null => None,
            point => Some(NormalizedPoint {
                performance: point.f64_field("performance")?,
                energy: point.f64_field("energy")?,
            }),
        };
        // Reports written before the serving lens carry no "serving" key at
        // all; both absent and null read back as None, and None re-writes
        // with the key absent — old reports stay byte-compatible.
        let serving = match value.get("serving") {
            None | Some(JsonValue::Null) => None,
            Some(stats) => Some(ServingStats::from_json(stats)?),
        };
        Ok(Self {
            workload: value.str_field("workload")?.to_string(),
            estimator: value.str_field("estimator")?.to_string(),
            design: value.str_field("design")?.to_string(),
            strategy: value.str_field("strategy")?.parse()?,
            mode: value.str_field("mode")?.parse()?,
            concurrency: value.usize_field("concurrency")?,
            response_time: Seconds(value.f64_field("response_time_s")?),
            energy: Joules(value.f64_field("energy_j")?),
            node_utilization: number_array("node_utilization")?,
            node_energy: number_array("node_energy_j")?
                .into_iter()
                .map(Joules)
                .collect(),
            phases: value
                .array_field("phases")?
                .iter()
                .map(PhaseRecord::from_json)
                .collect::<Result<_, _>>()?,
            output_rows,
            serving,
            normalized,
        })
    }

    /// The Energy-Delay Product in joule·seconds.
    pub fn edp(&self) -> f64 {
        self.measurement().edp()
    }

    /// Render the record as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("workload", self.workload.clone())
            .set("estimator", self.estimator.clone())
            .set("design", self.design.clone())
            .set("strategy", self.strategy.to_string())
            .set("mode", self.mode.to_string())
            .set("concurrency", self.concurrency)
            .set("response_time_s", self.response_time.value())
            .set("energy_j", self.energy.value())
            .set("edp_js", self.edp())
            .set("node_utilization", self.node_utilization.clone())
            .set(
                "node_energy_j",
                self.node_energy
                    .iter()
                    .map(|e| e.value())
                    .collect::<Vec<_>>(),
            );
        let mut phases = JsonValue::array();
        for phase in &self.phases {
            let mut p = JsonValue::object();
            p.set("label", phase.label.clone())
                .set("duration_s", phase.duration.value())
                .set("energy_j", phase.energy.value())
                .set("bytes_over_network_mb", phase.bytes_over_network.value())
                .set("scan_time_s", phase.scan_time.value())
                .set("network_time_s", phase.network_time.value())
                .set("compute_time_s", phase.compute_time.value())
                .set("bottleneck", phase.bottleneck.to_string());
            phases.push(p);
        }
        obj.set("phases", phases);
        obj.set("output_rows", self.output_rows);
        if let Some(serving) = &self.serving {
            obj.set("serving", serving.to_json());
        }
        match &self.normalized {
            Some(point) => {
                let mut p = JsonValue::object();
                p.set("performance", point.performance)
                    .set("energy", point.energy);
                obj.set("normalized", p);
            }
            None => {
                obj.set("normalized", JsonValue::Null);
            }
        }
        obj
    }
}

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

/// The measured lens: load a [`PStoreCluster`] for the design and actually
/// execute the plan — engine-scale relational correctness, nominal-scale
/// time and energy, exactly the Section 5 methodology. Every estimate
/// checks the distributed join's output cardinality against the scalar
/// reference join and fails loudly on a mismatch, so a measured
/// [`RunRecord`] is always an engine-verified point.
///
/// Loaded clusters are cached per estimator instance, keyed on the
/// `(design, options)` pair: generating and partitioning the engine-scale
/// tables dominates the cost of an estimate, and a multi-plan sweep (a
/// [`crate::ConcurrencySweep`] is `levels` plans over the same designs)
/// used to regenerate identical clusters once per plan. Plans that patch
/// the effective options (a [`crate::SkewedJoin`]'s skew lands in
/// `options.skew`) key separate entries, so a cache hit is always an
/// identical cluster.
#[derive(Debug, Clone)]
pub struct Measured {
    options: RunOptions,
    cache: RefCell<Vec<CachedCluster>>,
}

/// One cached engine-scale cluster: the effective options and node specs
/// that keyed its load, plus the shared cluster itself.
type CachedCluster = (RunOptions, Vec<NodeSpec>, Rc<PStoreCluster>);

impl Measured {
    /// A measured estimator loading clusters with the given options. The
    /// *plan* is the single source of truth for join-key skew: its `skew`
    /// field (including `None`) replaces whatever the options carry, so the
    /// measured and analytical lenses always evaluate the same workload.
    pub fn new(options: RunOptions) -> Self {
        Self {
            options,
            cache: RefCell::new(Vec::new()),
        }
    }

    /// The options used to load clusters.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Number of distinct `(design, options)` clusters currently cached.
    pub fn cached_clusters(&self) -> usize {
        self.cache.borrow().len()
    }

    /// The cluster for `(design, options)`, loading and caching it on first
    /// use.
    fn cluster(
        &self,
        design: &ClusterSpec,
        options: RunOptions,
    ) -> Result<Rc<PStoreCluster>, CoreError> {
        if let Some((_, _, cluster)) =
            self.cache
                .borrow()
                .iter()
                .find(|(cached_options, nodes, _)| {
                    *cached_options == options && nodes.as_slice() == design.nodes()
                })
        {
            return Ok(Rc::clone(cluster));
        }
        let cluster = Rc::new(PStoreCluster::load(design.clone(), options)?);
        self.cache
            .borrow_mut()
            .push((options, design.nodes().to_vec(), Rc::clone(&cluster)));
        Ok(cluster)
    }
}

/// Two measured estimators are equal when they load clusters the same way;
/// the cache is a transparent performance detail.
impl PartialEq for Measured {
    fn eq(&self, other: &Self) -> bool {
        self.options == other.options
    }
}

impl Default for Measured {
    fn default() -> Self {
        Self::new(RunOptions::default())
    }
}

impl Estimator for Measured {
    fn name(&self) -> String {
        "measured".into()
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let mut options = self.options;
        options.skew = plan.skew;
        let cluster = self.cluster(design, options)?;
        let execution = cluster.run_batch(&plan.query, plan.strategy, plan.sweep.concurrency)?;
        let reference = cluster.reference_join_rows(&plan.query)?;
        if execution.output_rows != Some(reference) {
            return Err(CoreError::invalid(format!(
                "{}: distributed join counted {:?} rows but the scalar reference produced {reference}",
                execution.cluster_label, execution.output_rows,
            )));
        }
        Ok(record_from_execution(plan, self.name(), &execution))
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

/// The behavioural lens: the first-order Section 3 scaling law, extrapolating
/// a work profile across cluster sizes with the paper's utilization→power
/// energy model.
///
/// Plans carrying a measured [`QueryProfile`] (the Vertica studies) are
/// extrapolated directly; for sweep-join plans without one, the estimator
/// derives the profile — and the absolute anchor — from the analytical model
/// evaluated at the reference configuration (eight homogeneous nodes of the
/// design's leading node type), mirroring how the paper measured its
/// profiles on the eight-node Cluster-V reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Behavioural;

impl Behavioural {
    /// Node count of the reference configuration the scaling law is
    /// anchored at — the paper's eight-node Cluster-V.
    const REFERENCE_NODES: usize = 8;

    /// Derive a work profile (and absolute anchor) for a profile-less plan
    /// from the analytical model at the reference configuration
    /// (`REFERENCE_NODES` homogeneous nodes of the design's leading type).
    /// When that synthetic reference cannot plan the workload — its node
    /// count may be memory-tighter than the actual design — the design
    /// itself (already known feasible) anchors the derivation instead.
    fn derive_profile(
        &self,
        plan: &WorkloadPlan,
        design: &ClusterSpec,
    ) -> Result<(QueryProfile, Seconds), CoreError> {
        let node = design.nodes()[0].clone();
        let reference = ClusterSpec::homogeneous(node, Self::REFERENCE_NODES)?;
        let model = AnalyticalModel::new(plan.sweep)?;
        let (prediction, predicted_nodes) =
            match model.predict_skewed(&reference, plan.strategy, plan.skew.as_ref()) {
                Ok(prediction) => (prediction, Self::REFERENCE_NODES),
                Err(_) => (
                    model.predict_skewed(design, plan.strategy, plan.skew.as_ref())?,
                    design.len(),
                ),
            };
        let total = prediction.response_time().value();
        let mut repartition = 0.0;
        let mut broadcast = 0.0;
        for phase in &prediction.phases {
            let bound = phase.network_time.value().min(phase.duration.value());
            if plan.strategy == JoinStrategy::Broadcast && phase.label == "build" {
                broadcast += bound;
            } else {
                repartition += bound;
            }
        }
        let local = (total - repartition - broadcast).max(0.0);
        // The sweep join is the paper's Q3-shaped workload; `custom`
        // normalizes the fractions to sum to one.
        let profile = QueryProfile::custom(QueryId::Q3, local, repartition, broadcast);
        // The anchor must be expressed in reference-configuration terms:
        // `predict` multiplies it by `rel(n)`, so divide out the relative
        // time of the cluster the derivation actually predicted on (1 in
        // the common case where that cluster IS the reference).
        let rel = BehaviouralModel {
            profile: profile.clone(),
            reference_nodes: Self::REFERENCE_NODES,
        }
        .relative_response_time(predicted_nodes);
        let anchor = if rel > f64::EPSILON {
            total / rel
        } else {
            total
        };
        Ok((profile, Seconds(anchor)))
    }
}

impl Estimator for Behavioural {
    fn name(&self) -> String {
        "behavioural".into()
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let (mode, profile, derived_anchor) = match &plan.profile {
            // A measured profile describes a run that demonstrably completed
            // on a real DBMS (which stages to disk rather than refusing), so
            // no memory-feasibility rule applies to it.
            Some(profile) => (ExecutionMode::Homogeneous, profile.clone(), Seconds(1.0)),
            // Profile-less sweep plans are judged on the design itself, with
            // the same hash-table rule every other lens applies — not on the
            // synthetic derivation reference, which may be differently sized.
            None => {
                let (mode, _) = eedc_pstore::select_execution_mode(
                    design.nodes(),
                    plan.strategy,
                    plan.sweep.total_hash_table(),
                    plan.sweep.hash_table_headroom,
                )?;
                let (profile, anchor) = self.derive_profile(plan, design)?;
                (mode, profile, anchor)
            }
        };
        let anchor = plan.reference_time.unwrap_or(derived_anchor);
        let model = BehaviouralModel {
            profile,
            reference_nodes: Self::REFERENCE_NODES,
        };
        let prediction = model.predict(design.nodes(), anchor);
        Ok(RunRecord {
            workload: plan.label.clone(),
            estimator: self.name(),
            design: design.label(),
            strategy: plan.strategy,
            // The scaling law itself has no demotion concept, but the record
            // reports the mode the planner would select for the design.
            mode,
            concurrency: plan.sweep.concurrency,
            response_time: prediction.response_time,
            energy: prediction.energy,
            node_utilization: prediction.node_utilization,
            node_energy: prediction.node_energy,
            phases: Vec::new(),
            output_rows: None,
            serving: None,
            normalized: None,
        })
    }
}

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
/// reproduces the [`Analytical`] lens exactly. The point of the lens is what
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

/// The serving lens: run the plan's [`ServingParams`] through the
/// discrete-event serving simulator (`eedc_dbmsim::serving`) on the
/// `eedc-simkit` event kernel — the fifth lens, and the only one that can
/// answer *service* questions: latency percentiles under sustained load,
/// admission drops, energy per query with idle power amortized in.
///
/// Per-query service times and energies come from an inner estimator
/// ([`Analytical`] by default) evaluated per query template on each node
/// *pool* of the design: a heterogeneous `(b Beefy, w Wimpy)` design serves
/// from two pools, and the scheduler's per-query choice between them is the
/// paper's Beefy-vs-Wimpy placement decision ([`Serving::fcfs`] baseline,
/// the [`Serving::energy_aware`] placer, or the queue-feedback
/// [`Serving::jsq`] / [`Serving::power_of_two`] policies). Pools serve up
/// to `pool_concurrency` queries at once — dedicated slots re-priced at
/// that concurrency through the inner estimator, or processor sharing
/// priced solo. A pool that cannot run a template
/// (hash table fits no execution mode) is simply never picked for it; a
/// design where some template fits *no* pool is recorded as infeasible,
/// like every other lens.
///
/// Records carry the usual closed-form shape (`response_time` is the mean
/// latency, `energy` the whole-run energy including idle power) plus
/// [`ServingStats`], so `Experiment`/`DesignAdvisor`/the figures pipeline
/// sweep throughput–energy Pareto curves with zero new plumbing.
///
/// ```
/// use eedc_core::{Experiment, Serving, ServingWorkload, SweepJoin};
/// use eedc_pstore::{ClusterSpec, JoinQuerySpec};
/// use eedc_simkit::catalog::cluster_v_node;
/// use eedc_simkit::units::Seconds;
///
/// // Serve the Section 5.4 join at 0.02 queries/s for a simulated hour.
/// let query = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
/// let workload = ServingWorkload::new(&query, 0.02, Seconds(3_600.0), 7);
/// let report = Experiment::new(&workload)
///     .designs([16, 8, 4].map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()))
///     .estimator(Serving::fcfs())
///     .run()
///     .unwrap();
/// let records = &report.series[0].records;
/// assert_eq!(records.len(), 3);
/// for record in records {
///     let stats = record.serving.as_ref().expect("serving stats ride along");
///     assert!(stats.completed > 0);
///     assert!(stats.p99 >= stats.p50);
///     assert!(stats.energy_per_query.value() > 0.0);
/// }
/// // Same seed, same report — bit for bit.
/// let again = Experiment::new(&workload)
///     .designs([16, 8, 4].map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()))
///     .estimator(Serving::fcfs())
///     .run()
///     .unwrap();
/// assert_eq!(report.to_json_string(), again.to_json_string());
/// ```
pub struct Serving {
    inner: Box<dyn Estimator>,
    policy: ServingPolicy,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServingPolicy {
    Fcfs,
    EnergyAware,
    JoinShortestQueue,
    PowerOfTwoChoices,
}

impl Serving {
    /// FCFS placement (first idle capable pool) over analytical per-query
    /// costs — the baseline.
    pub fn fcfs() -> Self {
        Self {
            inner: Box::new(Analytical),
            policy: ServingPolicy::Fcfs,
        }
    }

    /// Energy-aware placement: each query runs on the idle pool that serves
    /// it for the fewest joules.
    pub fn energy_aware() -> Self {
        Self {
            inner: Box::new(Analytical),
            policy: ServingPolicy::EnergyAware,
        }
    }

    /// Join-shortest-queue placement: each query commits to the capable
    /// pool with the fewest queries in system (waiting + in flight).
    pub fn jsq() -> Self {
        Self {
            inner: Box::new(Analytical),
            policy: ServingPolicy::JoinShortestQueue,
        }
    }

    /// Power-of-two-choices placement: probe two random capable pools (via
    /// the run's seeded RNG) and commit to the shallower one.
    pub fn power_of_two() -> Self {
        Self {
            inner: Box::new(Analytical),
            policy: ServingPolicy::PowerOfTwoChoices,
        }
    }

    /// Replace the inner estimator supplying per-template service costs
    /// (e.g. [`Traced::dbms_x`] to serve under an engine behaviour). The
    /// lens is then named `serving…@<inner>` in reports.
    pub fn with_inner(mut self, inner: impl Estimator + 'static) -> Self {
        self.inner = Box::new(inner);
        self
    }

    /// The node pools of a design: Beefy and Wimpy sub-clusters for a
    /// heterogeneous design, the whole design otherwise. Each pool serves
    /// up to the plan's `pool_concurrency` queries at a time.
    fn pools(design: &ClusterSpec) -> Result<Vec<(String, Vec<usize>, ClusterSpec)>, CoreError> {
        let beefy = design.beefy_ids();
        let wimpy = design.wimpy_ids();
        if beefy.is_empty() || wimpy.is_empty() {
            return Ok(vec![(
                design.label(),
                (0..design.len()).collect(),
                design.clone(),
            )]);
        }
        [beefy, wimpy]
            .into_iter()
            .map(|ids| {
                let nodes: Vec<NodeSpec> =
                    ids.iter().map(|&id| design.nodes()[id].clone()).collect();
                let label = format!(
                    "{}({})",
                    if nodes[0].class == NodeClass::Beefy {
                        "beefy"
                    } else {
                        "wimpy"
                    },
                    ids.len()
                );
                Ok((label, ids, ClusterSpec::from_nodes(nodes)?))
            })
            .collect()
    }

    /// Data-movement cost of one elastic scale transition under the
    /// port-volume model: the largest template's working set (build +
    /// probe bytes) is repartitioned evenly across the design's NICs, the
    /// move takes as long as the slowest port needs for its share, and
    /// each node's floor power burns for its own transfer time.
    fn derived_migration_cost(params: &ServingParams, design: &ClusterSpec) -> TransitionCost {
        let mut working_set = Megabytes(0.0);
        for template in &params.templates {
            let volume = template.sweep.build_bytes + template.sweep.probe_bytes;
            if volume.value() > working_set.value() {
                working_set = volume;
            }
        }
        let share = working_set / design.len() as f64;
        let mut time = Seconds(0.0);
        let mut energy = Joules::zero();
        for node in design.nodes() {
            let port = share / node.network_bandwidth;
            if port.value() > time.value() {
                time = port;
            }
            energy += node.idle_power * port;
        }
        TransitionCost { time, energy }
    }
}

impl Estimator for Serving {
    fn name(&self) -> String {
        let base = match self.policy {
            ServingPolicy::Fcfs => "serving".to_string(),
            ServingPolicy::EnergyAware => "serving:energy-aware".to_string(),
            ServingPolicy::JoinShortestQueue => "serving:jsq".to_string(),
            ServingPolicy::PowerOfTwoChoices => "serving:po2".to_string(),
        };
        let inner = self.inner.name();
        if inner == "analytical" {
            base
        } else {
            format!("{base}@{inner}")
        }
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let params = plan.serving.as_ref().ok_or_else(|| {
            CoreError::invalid(format!(
                "plan '{}' carries no serving parameters — wrap the workload in a ServingWorkload",
                plan.label
            ))
        })?;
        if params.templates.is_empty() {
            return Err(CoreError::invalid("serving needs at least one template"));
        }

        if params.pool_concurrency == 0 {
            return Err(CoreError::invalid("pool concurrency must be at least 1"));
        }

        // Price every template on every pool through the inner estimator.
        // A pool that refuses a template (Runtime error: the hash table fits
        // no execution mode there) just cannot serve it. A dedicated n-way
        // pool is priced *at* that concurrency — the template re-runs
        // through the inner estimator with `sweep.concurrency = n` (the
        // ConcurrencySweep axis), so the per-query time reflects measured/
        // analytical n-way contention and the batch energy is split per
        // query. A processor-sharing pool is priced solo: the simulator's
        // rate-sharing models the contention, and pricing it again here
        // would double-count.
        let dedicated_n = if params.processor_sharing {
            1
        } else {
            params.pool_concurrency
        };
        let mut servers = Vec::new();
        let mut pool_ids = Vec::new();
        for (label, ids, spec) in Self::pools(design)? {
            let mut profiles = Vec::with_capacity(params.templates.len());
            for template in &params.templates {
                let mut priced = template.clone();
                priced.sweep = priced.sweep.with_concurrency(dedicated_n);
                match self.inner.estimate(&priced, &spec) {
                    Ok(record) => profiles.push(Some(ServiceProfile {
                        time: record.response_time,
                        energy: record.energy / dedicated_n as f64,
                    })),
                    Err(CoreError::Runtime(_)) => profiles.push(None),
                    Err(err) => return Err(err),
                }
            }
            if profiles.iter().any(Option::is_some) {
                let idle_power = ids
                    .iter()
                    .map(|&id| design.nodes()[id].idle_power)
                    .sum::<Watts>();
                let mut server = ServingServer::new(label, idle_power, profiles)
                    .concurrency_limit(params.pool_concurrency)
                    .nodes(ids.len());
                if params.processor_sharing {
                    server = server.processor_sharing();
                }
                servers.push(server);
                pool_ids.push(ids);
            }
        }
        for (index, template) in params.templates.iter().enumerate() {
            if !servers.iter().any(|s| s.can_serve(index)) {
                return Err(CoreError::Runtime(PStoreError::planning(format!(
                    "template '{}' fits no pool of design {}",
                    template.label,
                    design.label()
                ))));
            }
        }

        // An active fault model rides into the simulator as-is, except that
        // a scale policy carrying no explicit migration cost gets one
        // derived from the design's port-volume model.
        let faults: Option<FaultModel> = params.faults.clone().map(|mut model| {
            if let Some(scale) = &mut model.scale {
                if scale.migration.is_none() {
                    scale.migration = Some(Self::derived_migration_cost(params, design));
                }
            }
            model
        });
        let churned = faults.as_ref().is_some_and(|model| !model.is_inert());
        let config = ServingConfig {
            arrival: params.arrival.clone(),
            duration: params.duration,
            template_theta: params.template_theta,
            queue_capacity: params.queue_capacity,
            max_wait: params.max_wait,
            seed: params.seed,
            service: eedc_dbmsim::ServiceDistribution::Deterministic,
            faults,
        };
        let mut scheduler: Box<dyn Scheduler> = match self.policy {
            ServingPolicy::Fcfs => Box::new(FcfsScheduler),
            ServingPolicy::EnergyAware => Box::new(EnergyAwareScheduler),
            ServingPolicy::JoinShortestQueue => Box::new(JoinShortestQueue),
            ServingPolicy::PowerOfTwoChoices => Box::new(PowerOfTwoChoices),
        };
        let result = simulate_serving(&servers, &config, scheduler.as_mut())?;

        // Per-node shares in cluster node order: each node carries its
        // pool's utilization and an equal split of the pool's energy (pools
        // are homogeneous, so the split is exact under a uniform layout).
        let mut node_utilization = vec![0.0; design.len()];
        let mut node_energy = vec![Joules::zero(); design.len()];
        for (pool, ids) in pool_ids.iter().enumerate() {
            let share = result.server_energy[pool] / ids.len() as f64;
            for &id in ids {
                node_utilization[id] = result.server_utilization(pool);
                node_energy[id] = share;
            }
        }

        let stats = ServingStats {
            scheduler: result.scheduler.clone(),
            arrival: Some(result.arrival.clone()),
            offered_qps: result.offered_qps,
            achieved_qps: result.achieved_qps(),
            arrivals: result.arrivals,
            completed: result.completed,
            dropped: result.dropped,
            timed_out: result.timed_out,
            drop_rate: result.drop_rate(),
            p50: result.p50(),
            p95: result.p95(),
            p99: result.p99(),
            mean_latency: result.mean_latency(),
            mean_wait: result.mean_wait,
            energy_per_query: result.energy_per_query(),
            pool_mean_depth: result.pool_mean_depth.clone(),
            pool_max_queued: result.pool_max_queued.clone(),
            faults: churned.then_some(FaultStats {
                availability: result.availability,
                failures: result.failures,
                killed: result.killed,
                readmitted: result.readmitted,
                scale_out_events: result.scale_out_events,
                scale_in_events: result.scale_in_events,
                fault_downtime: result.fault_downtime,
                overhead_energy: result.overhead_energy,
            }),
        };
        Ok(RunRecord {
            workload: plan.label.clone(),
            estimator: self.name(),
            design: design.label(),
            strategy: plan.strategy,
            mode: if pool_ids.len() > 1 {
                ExecutionMode::Heterogeneous
            } else {
                ExecutionMode::Homogeneous
            },
            concurrency: plan.sweep.concurrency,
            response_time: result.mean_latency(),
            energy: result.energy,
            node_utilization,
            node_energy,
            phases: Vec::new(),
            output_rows: None,
            serving: Some(stats),
            normalized: None,
        })
    }
}

/// One estimator's sweep of one workload plan across the experiment's
/// designs: the uniform records (reference first), the designs the estimator
/// refused as infeasible, and the normalized series the figures plot.
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
    /// The normalized (performance, energy) series relative to the reference
    /// design.
    pub normalized: NormalizedSeries,
}

impl RunSeries {
    /// The record for a labelled design, if it was feasible.
    pub fn record(&self, design: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.design == design)
    }

    /// Reconstruct a series from the JSON shape [`to_json`](Self::to_json)
    /// emits. The normalized series is rebuilt from the records' carried
    /// points (the reference design leads, exactly as the evaluation
    /// protocol wrote them).
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        let records: Vec<RunRecord> = value
            .array_field("records")?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<_, _>>()?;
        let reference = value.str_field("reference")?.to_string();
        let mut normalized = NormalizedSeries::with_reference(reference.clone());
        for record in &records {
            if record.design == reference {
                continue;
            }
            let point = record.normalized.ok_or_else(|| {
                CoreError::invalid(format!(
                    "record '{}' in a serialized series has no normalized point",
                    record.design
                ))
            })?;
            normalized.push(record.design.clone(), point);
        }
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
        Ok(Self {
            estimator: value.str_field("estimator")?.to_string(),
            workload: value.str_field("workload")?.to_string(),
            strategy: value.str_field("strategy")?.parse()?,
            records,
            infeasible,
            normalized,
        })
    }

    /// Render the series as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.set("estimator", self.estimator.clone())
            .set("workload", self.workload.clone())
            .set("strategy", self.strategy.to_string())
            .set("reference", self.normalized.reference_label.clone());
        let mut records = JsonValue::array();
        for record in &self.records {
            records.push(record.to_json());
        }
        obj.set("records", records);
        let mut infeasible = JsonValue::array();
        for (design, reason) in &self.infeasible {
            let mut entry = JsonValue::object();
            entry
                .set("design", design.clone())
                .set("reason", reason.clone());
            infeasible.push(entry);
        }
        obj.set("infeasible", infeasible);
        obj
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
    /// All series produced by the named estimator.
    pub fn by_estimator<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a RunSeries> {
        self.series.iter().filter(move |s| s.estimator == name)
    }

    /// The single series for an (estimator, workload) pair, if present.
    pub fn series_for(&self, estimator: &str, workload: &str) -> Option<&RunSeries> {
        self.series
            .iter()
            .find(|s| s.estimator == estimator && s.workload == workload)
    }

    /// Every record across all series.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.series.iter().flat_map(|s| s.records.iter())
    }

    /// Render the report as a JSON value.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        let mut series = JsonValue::array();
        for s in &self.series {
            series.push(s.to_json());
        }
        obj.set("series", series);
        obj
    }

    /// Render the report as an indented JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_pretty()
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

    /// Reconstruct a report from the JSON shape [`to_json`](Self::to_json)
    /// emits — `from_json(parse(to_json())) == self` for every report the
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
    let mut normalized = NormalizedSeries::with_reference(reference.design.clone());
    let mut records = vec![reference];
    let mut infeasible = Vec::new();
    for design in &designs[1..] {
        match estimator.estimate(plan, design) {
            Ok(mut record) => {
                let point = record
                    .measurement()
                    .normalized_against(&reference_measurement)?;
                record.normalized = Some(point);
                normalized.push(record.design.clone(), point);
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
        normalized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SweepJoin;
    use crate::workload::{ConcurrencySweep, ProfiledQuery, ServingWorkload, SkewedJoin};
    use eedc_simkit::catalog::{cluster_v_node, laptop_b};

    fn sweep() -> SweepJoin {
        SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle())
    }

    fn homogeneous(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()
    }

    #[test]
    fn analytical_series_normalizes_against_the_first_design() {
        let workload = sweep();
        let report = Experiment::new(&workload)
            .designs([homogeneous(16), homogeneous(8), homogeneous(4)])
            .estimator(Analytical)
            .run()
            .unwrap();
        assert_eq!(report.series.len(), 1);
        let series = &report.series[0];
        assert_eq!(series.estimator, "analytical");
        assert_eq!(series.records.len(), 3);
        assert_eq!(series.records[0].design, "16B,0W");
        assert_eq!(
            series.records[0].normalized,
            Some(NormalizedPoint::reference())
        );
        // Smaller clusters are slower: normalized performance below 1.
        let p8 = series.record("8B,0W").unwrap().normalized.unwrap();
        assert!(p8.performance < 1.0);
        // The normalized series carries the same points.
        assert_eq!(series.normalized.points().len(), 3);
        // Phase breakdowns and per-node vectors are populated.
        let r = series.record("4B,0W").unwrap();
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.node_utilization.len(), 4);
        assert_eq!(r.node_energy.len(), 4);
        let node_total: f64 = r.node_energy.iter().map(|e| e.value()).sum();
        assert!((node_total - r.energy.value()).abs() < 1e-6 * node_total);
        assert!(r.edp() > 0.0);
        assert_eq!(r.output_rows, None);
    }

    #[test]
    fn infeasible_designs_are_recorded_not_fatal() {
        let workload = sweep();
        let report = Experiment::new(&workload)
            .designs([
                homogeneous(16),
                ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
            ])
            .estimator(Analytical)
            .run()
            .unwrap();
        let series = &report.series[0];
        assert_eq!(series.records.len(), 1);
        assert_eq!(series.infeasible.len(), 1);
        assert_eq!(series.infeasible[0].0, "0B,4W");
        assert!(series.infeasible[0].1.contains("does not fit"));
    }

    #[test]
    fn estimators_and_plans_cross_product_into_series() {
        let workload = ConcurrencySweep::new(sweep(), [1, 2]);
        let report = Experiment::new(&workload)
            .designs([homogeneous(16), homogeneous(8)])
            .estimator(Analytical)
            .estimator(Behavioural)
            .run()
            .unwrap();
        // 2 estimators x 2 concurrency levels.
        assert_eq!(report.series.len(), 4);
        assert_eq!(report.by_estimator("analytical").count(), 2);
        assert_eq!(report.by_estimator("behavioural").count(), 2);
        assert_eq!(report.records().count(), 8);
        // Higher concurrency is slower under both lenses.
        for estimator in ["analytical", "behavioural"] {
            let series: Vec<_> = report.by_estimator(estimator).collect();
            let t1 = series[0].records[0].response_time;
            let t2 = series[1].records[0].response_time;
            assert!(t2 > t1, "{estimator}: x2 batch not slower");
        }
    }

    #[test]
    fn behavioural_tracks_analytical_at_the_reference_configuration() {
        // For a profile-less plan, the behavioural estimator derives its
        // profile and anchor from the analytical model at the 8-node
        // reference — so at exactly 8 nodes the two lenses coincide on
        // response time.
        let workload = sweep();
        let report = Experiment::new(&workload)
            .designs([homogeneous(8), homogeneous(16), homogeneous(4)])
            .estimator(Analytical)
            .estimator(Behavioural)
            .run()
            .unwrap();
        let analytical = &report.series[0].records[0];
        let behavioural = &report.series[1].records[0];
        assert!(
            (analytical.response_time.value() - behavioural.response_time.value()).abs()
                < 1e-6 * analytical.response_time.value()
        );
        // Away from the reference the lenses legitimately diverge — and the
        // divergence is the paper's Section 3 point. The analytical model
        // sees per-port shuffle volume shrink as nodes are added, so 16
        // nodes beat 8; the behavioural law pins repartition-bound work
        // (the dual-shuffle sweep is fully network-bound, so its derived
        // repartition fraction is 1) and predicts no speedup at all.
        let a16 = report.series[0].record("16B,0W").unwrap();
        let b16 = report.series[1].record("16B,0W").unwrap();
        assert!(a16.response_time < analytical.response_time);
        assert!(
            (b16.response_time.value() - behavioural.response_time.value()).abs()
                < 1e-9 * behavioural.response_time.value()
        );
        // Shrinking the cluster never speeds the law up.
        let b4 = report.series[1].record("4B,0W").unwrap();
        assert!(b4.response_time.value() >= behavioural.response_time.value() - 1e-9);
    }

    #[test]
    fn profiled_queries_flow_through_the_behavioural_estimator() {
        let q12 = ProfiledQuery::vertica_sf1000(eedc_tpch::QueryId::Q12);
        let report = Experiment::new(&q12)
            .designs([homogeneous(8), homogeneous(16), homogeneous(32)])
            .estimator(Behavioural)
            .run()
            .unwrap();
        let series = &report.series[0];
        // Unit anchor: the reference record reads exactly 1.0 s.
        assert!((series.records[0].response_time.value() - 1.0).abs() < 1e-12);
        // Q12 flattens out: 32 nodes is barely faster than 16.
        let t16 = series.record("16B,0W").unwrap().response_time.value();
        let t32 = series.record("32B,0W").unwrap().response_time.value();
        assert!(t16 < 1.0 && t32 < t16);
        assert!(t32 > 0.48, "t32 {t32} under the scaling floor");
        // ... while energy rises (the energy-proportionality gap).
        let e = |d: &str| series.record(d).unwrap().energy.value();
        assert!(e("32B,0W") > e("16B,0W"));
        assert!(e("16B,0W") > e("8B,0W"));
        // Behavioural records carry no phase breakdown.
        assert!(series.records[0].phases.is_empty());
    }

    #[test]
    fn skewed_workloads_run_hotter_than_uniform_under_the_model() {
        let uniform = sweep();
        let skewed = SkewedJoin::new(
            uniform,
            eedc_pstore::JoinSkew {
                theta: 1.5,
                key_domain: 1_000,
                seed: 7,
            },
        );
        let designs = [homogeneous(16)];
        let u = Experiment::new(&uniform)
            .designs(designs.clone())
            .estimator(Analytical)
            .run()
            .unwrap();
        let s = Experiment::new(&skewed)
            .designs(designs)
            .estimator(Analytical)
            .run()
            .unwrap();
        let ur = &u.series[0].records[0];
        let sr = &s.series[0].records[0];
        assert!(sr.response_time > ur.response_time);
        let hot = |r: &RunRecord| {
            r.node_energy
                .iter()
                .map(|e| e.value())
                .fold(0.0_f64, f64::max)
        };
        assert!(hot(sr) > hot(ur));
    }

    #[test]
    fn behavioural_and_analytical_agree_on_feasibility() {
        // Feasibility is a property of the design, not of the behavioural
        // estimator's synthetic derivation reference: 16 laptops CAN hold
        // the 70 GB dual-shuffle hash table (4.4 GB per node against 6.4 GB
        // usable) even though 8 of them cannot, while 4 laptops cannot hold
        // it in any mode. Both lenses must classify identically.
        let workload = sweep();
        let designs = [
            homogeneous(16),
            ClusterSpec::homogeneous(laptop_b(), 16).unwrap(),
            ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        ];
        let report = Experiment::new(&workload)
            .designs(designs)
            .estimator(Analytical)
            .estimator(Behavioural)
            .run()
            .unwrap();
        let analytical = &report.series[0];
        let behavioural = &report.series[1];
        for series in [analytical, behavioural] {
            assert!(
                series.record("0B,16W").is_some(),
                "{}: feasible all-Wimpy design dropped",
                series.estimator
            );
            assert_eq!(series.infeasible.len(), 1, "{}", series.estimator);
            assert_eq!(series.infeasible[0].0, "0B,4W", "{}", series.estimator);
        }
        // The fallback derivation (8 laptops cannot plan, so the design
        // itself anchors it) must express the anchor in reference terms:
        // round-tripping through rel(16) recovers the analytical time at
        // the design, not a mis-scaled multiple of it.
        let a = analytical.record("0B,16W").unwrap();
        let b = behavioural.record("0B,16W").unwrap();
        assert!(
            (a.response_time.value() - b.response_time.value()).abs()
                < 1e-9 * a.response_time.value(),
            "fallback anchor mis-scaled: analytical {} vs behavioural {}",
            a.response_time.value(),
            b.response_time.value(),
        );
    }

    #[test]
    fn measured_plan_skew_is_authoritative_over_options() {
        // The plan is the single source of truth for join-key skew: a
        // skew-free plan run through a Measured estimator whose options
        // carry a heavy skew must behave exactly like a skew-free run, so
        // measured and analytical lenses always see the same workload.
        let small = RunOptions {
            engine_scale: eedc_tpch::ScaleFactor(0.001),
            ..RunOptions::default()
        };
        let skew_options = RunOptions {
            skew: Some(eedc_pstore::JoinSkew {
                theta: 1.5,
                key_domain: 1_000,
                seed: 7,
            }),
            ..small
        };
        let plan = &sweep().plans()[0];
        let design = homogeneous(4);
        let plain = Measured::new(small).estimate(plan, &design).unwrap();
        let overridden = Measured::new(skew_options).estimate(plan, &design).unwrap();
        assert_eq!(plain.measurement(), overridden.measurement());
    }

    #[test]
    fn strategy_and_query_overrides_patch_every_plan() {
        let workload = sweep();
        let report = Experiment::new(&workload)
            .strategy(JoinStrategy::PrePartitioned)
            .designs([homogeneous(8)])
            .estimator(Analytical)
            .run()
            .unwrap();
        assert_eq!(report.series[0].strategy, JoinStrategy::PrePartitioned);
        assert_eq!(
            report.series[0].records[0].phases[0].bytes_over_network,
            Megabytes::zero()
        );
    }

    #[test]
    fn dyn_estimators_are_first_class() {
        // Object-safety smoke: estimators as trait objects, mixed in one
        // collection, driven through the same API.
        let estimators: Vec<Box<dyn Estimator>> = vec![
            Box::new(Analytical),
            Box::new(Behavioural),
            Box::new(Measured::default()),
        ];
        let plan = &sweep().plans()[0];
        let design = homogeneous(4);
        for estimator in &estimators {
            let record = estimator.estimate(plan, &design).unwrap();
            assert_eq!(record.estimator, estimator.name());
            assert!(record.response_time.value() > 0.0);
            assert!(record.energy.value() > 0.0);
        }
        // And a boxed estimator slots into the builder unchanged.
        let boxed: Box<dyn Estimator> = Box::new(Analytical);
        let report = Experiment::new(&sweep())
            .designs([homogeneous(8)])
            .estimator(boxed)
            .run()
            .unwrap();
        assert_eq!(report.series[0].estimator, "analytical");
    }

    #[test]
    fn traced_pstore_engine_reproduces_the_analytical_lens() {
        // The trace is exported from the analytical model's own prediction,
        // and the pipelined P-store engine is the identity transformation —
        // so replaying it must land on the analytical numbers, busy-share
        // round trip included.
        // In fact the whole record is bit-identical — asserted with `==`, no
        // tolerance — on concurrent, skewed and heterogeneous (demoted-Wimpy)
        // inputs too, whose per-node port shares differ across nodes.
        let mixed = ClusterSpec::heterogeneous(cluster_v_node(), 12, laptop_b(), 4).unwrap();
        let designs = [homogeneous(16), homogeneous(8), homogeneous(4), mixed];
        let plain = sweep();
        let concurrent = ConcurrencySweep::new(sweep(), [4]);
        let skewed = SkewedJoin::zipf(sweep().with_concurrency(4), 1.5);
        let workloads: [&dyn Workload; 3] = [&plain, &concurrent, &skewed];
        let mut demoted = 0;
        for workload in workloads {
            let report = Experiment::new(workload)
                .designs(designs.clone())
                .estimator(Analytical)
                .estimator(Traced::pstore())
                .run()
                .unwrap();
            let analytical = &report.series[0];
            let traced = &report.series[1];
            assert_eq!(traced.estimator, "traced");
            assert!(!analytical.records.is_empty());
            assert_eq!(analytical.infeasible, traced.infeasible);
            for (a, t) in analytical.records.iter().zip(&traced.records) {
                let case = format!("{} on {}", a.workload, a.design);
                assert_eq!((&a.design, a.mode), (&t.design, t.mode), "{case}");
                assert_eq!(a.response_time, t.response_time, "{case}: time");
                assert_eq!(a.energy, t.energy, "{case}: energy");
                assert_eq!(a.node_utilization, t.node_utilization, "{case}");
                assert_eq!(a.node_energy, t.node_energy, "{case}");
                for (ap, tp) in a.phases.iter().zip(&t.phases) {
                    assert_eq!(ap.duration, tp.duration, "{case}: {}", ap.label);
                    assert_eq!(ap.energy, tp.energy, "{case}: {}", ap.label);
                }
                assert_eq!(t.output_rows, None);
                demoted += usize::from(t.mode == ExecutionMode::Heterogeneous);
            }
        }
        assert!(demoted > 0, "no heterogeneous record was compared");
    }

    #[test]
    fn traced_lenses_agree_with_the_other_lenses_on_feasibility() {
        let workload = sweep();
        let report = Experiment::new(&workload)
            .designs([
                homogeneous(16),
                ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
            ])
            .estimator(Traced::pstore())
            .estimator(Traced::dbms_x())
            .run()
            .unwrap();
        for series in &report.series {
            assert_eq!(series.records.len(), 1, "{}", series.estimator);
            assert_eq!(series.infeasible.len(), 1, "{}", series.estimator);
            assert_eq!(series.infeasible[0].0, "0B,4W");
        }
        assert_eq!(report.series[1].estimator, "traced:dbms-x");
    }

    #[test]
    fn traced_custom_engines_are_first_class() {
        // A restart-only engine (no staging): the record costs exactly
        // (1 + restarts × redo) times the pipelined engine.
        let engine = eedc_dbmsim::EngineBehaviour::new(
            "flaky",
            false,
            eedc_dbmsim::RestartPolicy::new(2, 0.25).unwrap(),
        )
        .unwrap();
        let custom = Traced::with_engine(engine);
        assert_eq!(custom.name(), "traced:flaky");
        assert!(!custom.engine().disk_staging);
        let plan = &sweep().plans()[0];
        let design = homogeneous(8);
        let base = Traced::pstore().estimate(plan, &design).unwrap();
        let flaky = custom.estimate(plan, &design).unwrap();
        let ratio = flaky.response_time.value() / base.response_time.value();
        assert!((ratio - 1.5).abs() < 1e-9, "ratio {ratio}");
        let ratio = flaky.energy.value() / base.energy.value();
        assert!((ratio - 1.5).abs() < 1e-9, "energy ratio {ratio}");
    }

    #[test]
    fn skewed_synthesized_traces_carry_per_node_port_activity() {
        // The closed form knows each node's true egress/ingress volumes, so
        // the synthesized trace must charge every port its own activity —
        // not the hot port's. Observable through the record: the traced
        // phase's port-volume total must sit between the analytical egress
        // total and strictly below nodes × hot-port volume (what a
        // phase-level synthesis would charge under skew).
        let plan = &SkewedJoin::new(
            SweepJoin::section_5_4(JoinQuerySpec::new(0.2, 0.5)),
            eedc_pstore::JoinSkew {
                theta: 1.5,
                key_domain: 1_000,
                seed: 7,
            },
        )
        .plans()[0];
        let design = homogeneous(16);
        let traced = Traced::pstore().estimate(plan, &design).unwrap();
        let analytical = Analytical.estimate(plan, &design).unwrap();
        let bandwidth = cluster_v_node().network_bandwidth.value();
        for (t, a) in traced.phases.iter().zip(&analytical.phases) {
            let egress_total = a.bytes_over_network.value();
            let hot_port_total = 16.0 * a.network_time.value() * bandwidth;
            assert!(
                t.bytes_over_network.value() >= egress_total - 1e-6,
                "{}: port total below the egress total",
                t.label
            );
            assert!(
                t.bytes_over_network.value() < hot_port_total - 1e-6,
                "{}: every port charged the hot-port volume",
                t.label
            );
        }
        // The per-node refinement does not disturb the time/energy identity
        // with the analytical lens.
        assert!(
            (traced.energy.value() - analytical.energy.value()).abs()
                < 1e-9 * analytical.energy.value()
        );
    }

    #[test]
    fn measured_cache_deduplicates_cluster_loads() {
        // A concurrency sweep is `levels` plans over the same designs: the
        // cluster for each (design, options) pair must be generated once,
        // not once per plan.
        let options = RunOptions {
            engine_scale: eedc_tpch::ScaleFactor(0.001),
            ..RunOptions::default()
        };
        let measured = Measured::new(options);
        assert_eq!(measured.cached_clusters(), 0);
        let workload = ConcurrencySweep::new(sweep(), [1, 2, 4]);
        let designs = [homogeneous(4), homogeneous(2)];
        let report = Experiment::new(&workload)
            .designs(designs.clone())
            .estimator(measured.clone())
            .run()
            .unwrap();
        assert_eq!(report.series.len(), 3);
        // The estimator handed to the experiment was a clone sharing no
        // state; measure on a fresh instance driven directly instead.
        let direct = Measured::new(options);
        for plan in workload.plans() {
            for design in &designs {
                direct.estimate(&plan, design).unwrap();
            }
        }
        assert_eq!(
            direct.cached_clusters(),
            2,
            "3 plans x 2 designs -> 2 loads"
        );
        // A skewed plan patches the effective options and must key its own
        // cluster rather than reusing an unskewed one.
        let skewed = SkewedJoin::new(
            sweep(),
            eedc_pstore::JoinSkew {
                theta: 1.5,
                key_domain: 1_000,
                seed: 7,
            },
        );
        direct.estimate(&skewed.plans()[0], &designs[0]).unwrap();
        assert_eq!(direct.cached_clusters(), 3);
        // Cache hits return the identical cluster: re-estimating changes
        // nothing and the records stay engine-verified.
        let again = direct.estimate(&workload.plans()[0], &designs[0]).unwrap();
        assert_eq!(direct.cached_clusters(), 3);
        assert!(again.output_rows.unwrap() > 0);
        // Equality ignores the cache.
        assert_eq!(direct, Measured::new(options));
    }

    #[test]
    fn empty_experiments_are_invalid() {
        let workload = sweep();
        assert!(Experiment::new(&workload)
            .estimator(Analytical)
            .run()
            .is_err());
        assert!(Experiment::new(&workload)
            .designs([homogeneous(4)])
            .run()
            .is_err());
    }

    #[test]
    fn reports_round_trip_through_the_json_reader() {
        // Two estimators, an infeasible design, phase breakdowns, normalized
        // points — everything the writer can emit must come back bit-equal,
        // Display-formatted floats round-trip exactly in Rust.
        let workload = sweep();
        let report = Experiment::new(&workload)
            .designs([
                homogeneous(16),
                homogeneous(8),
                ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
            ])
            .estimator(Analytical)
            .estimator(Traced::dbms_x())
            .run()
            .unwrap();
        let parsed = JsonValue::parse(&report.to_json_string()).unwrap();
        let restored = ExperimentReport::from_json(&parsed).unwrap();
        assert_eq!(restored, report);
        // And through the file-based path.
        let dir = std::env::temp_dir().join("eedc-report-roundtrip-test");
        let path = dir.join("report.json");
        report.write_json(&path).unwrap();
        assert_eq!(ExperimentReport::read_json(&path).unwrap(), report);
        std::fs::remove_dir_all(&dir).ok();
        // Shape errors surface as errors, not panics.
        assert!(ExperimentReport::read_json(dir.join("missing.json")).is_err());
        assert!(ExperimentReport::from_json(&JsonValue::object()).is_err());
        let mut truncated = JsonValue::object();
        truncated.set("series", vec![0.0]);
        assert!(ExperimentReport::from_json(&truncated).is_err());
    }

    #[test]
    fn serving_tail_latency_grows_strictly_with_offered_load() {
        // A single 4-node design served at 30/60/90% of its analytical
        // service rate: queueing theory says the tail must stretch as the
        // load approaches saturation, and the simulator must reproduce it.
        let design = homogeneous(4);
        let service_time = Analytical
            .estimate(&sweep().plans()[0], &design)
            .unwrap()
            .response_time
            .value();
        let mu = 1.0 / service_time;
        let window = Seconds(3_000.0 * service_time);
        let workload = ServingWorkload::new(&sweep(), mu * 0.3, window, 77).qps_sweep([
            mu * 0.3,
            mu * 0.6,
            mu * 0.9,
        ]);
        let report = Experiment::new(&workload)
            .designs([design])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        assert_eq!(report.series.len(), 3, "one series per offered QPS");
        let stats: Vec<&ServingStats> = report
            .series
            .iter()
            .map(|s| s.records[0].serving.as_ref().unwrap())
            .collect();
        for s in &stats {
            assert!(s.completed > 500, "enough arrivals to trust the tail");
            assert_eq!(s.dropped + s.timed_out, 0);
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
            assert!(s.energy_per_query.value() > 0.0);
        }
        assert!(
            stats[0].p99 < stats[1].p99 && stats[1].p99 < stats[2].p99,
            "p99 must grow strictly with offered load: {:?}",
            stats.iter().map(|s| s.p99).collect::<Vec<_>>()
        );
        // The mean service rate bounds achieved throughput from above.
        assert!(stats[2].achieved_qps <= mu * 1.01);
    }

    #[test]
    fn serving_places_across_beefy_and_wimpy_pools() {
        // A join small enough that the Wimpy pool can serve it too.
        let mut small = sweep();
        small.build_bytes = Megabytes(2_000.0);
        small.probe_bytes = Megabytes(8_000.0);
        let design = ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 4).unwrap();
        let beefy_pool = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
        let wimpy_pool = ClusterSpec::homogeneous(laptop_b(), 4).unwrap();
        let plan = &small.plans()[0];
        let beefy_energy = Analytical.estimate(plan, &beefy_pool).unwrap().energy;
        let wimpy_energy = Analytical.estimate(plan, &wimpy_pool).unwrap().energy;
        // Load light enough that the preferred pool is almost always idle.
        let slowest = Analytical
            .estimate(plan, &wimpy_pool)
            .unwrap()
            .response_time
            .value()
            .max(
                Analytical
                    .estimate(plan, &beefy_pool)
                    .unwrap()
                    .response_time
                    .value(),
            );
        let qps = 0.05 / slowest;
        let workload = ServingWorkload::new(&small, qps, Seconds(2_000.0 * slowest), 5);
        let report = Experiment::new(&workload)
            .designs([design])
            .estimator(Serving::fcfs())
            .estimator(Serving::energy_aware())
            .run()
            .unwrap();
        let fcfs = &report.series[0].records[0];
        let aware = &report.series[1].records[0];
        assert_eq!(fcfs.estimator, "serving");
        assert_eq!(aware.estimator, "serving:energy-aware");
        assert_eq!(fcfs.mode, ExecutionMode::Heterogeneous);
        assert_eq!(fcfs.node_utilization.len(), 8);
        assert!(fcfs.serving.as_ref().unwrap().completed > 50);
        // FCFS takes the first capable pool — the Beefy nodes (ids 0..4).
        assert!(fcfs.node_utilization[0] > fcfs.node_utilization[4] * 2.0);
        // The energy-aware placer routes to whichever pool is cheaper.
        let (cheap, pricey) = if wimpy_energy < beefy_energy {
            (4, 0)
        } else {
            (0, 4)
        };
        assert!(
            aware.node_utilization[cheap] > aware.node_utilization[pricey] * 2.0,
            "energy-aware must prefer the cheaper pool ({:?})",
            aware.node_utilization
        );
        // Per-node energies cover every node (idle power never reads zero)
        // and sum to the record total.
        assert!(aware.node_energy.iter().all(|e| e.value() > 0.0));
        let total: f64 = aware.node_energy.iter().map(|e| e.value()).sum();
        assert!((total - aware.energy.value()).abs() < 1e-6 * total);
    }

    #[test]
    fn serving_requires_params_and_records_infeasible_designs() {
        // A plan without serving parameters is a caller error, not an
        // infeasible design.
        let bare = sweep().plans().remove(0);
        let err = Serving::fcfs()
            .estimate(&bare, &homogeneous(4))
            .unwrap_err();
        assert!(matches!(err, CoreError::Invalid(_)), "{err}");
        // A design where the big join fits no pool is recorded infeasible,
        // exactly like the other lenses.
        let workload = ServingWorkload::new(&sweep(), 0.001, Seconds(10_000.0), 9);
        let report = Experiment::new(&workload)
            .designs([
                homogeneous(16),
                ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
            ])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        let series = &report.series[0];
        assert_eq!(series.records.len(), 1);
        assert_eq!(series.infeasible.len(), 1);
        assert_eq!(series.infeasible[0].0, "0B,4W");
        assert!(series.infeasible[0].1.contains("fits no pool"));
    }

    #[test]
    fn serving_records_round_trip_and_old_reports_stay_byte_compatible() {
        // New serving fields round-trip through the JSON reader.
        let workload = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31);
        let report = Experiment::new(&workload)
            .designs([homogeneous(16), homogeneous(8)])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        let json = report.to_json_string();
        assert!(json.contains("\"serving\""), "{json}");
        assert!(json.contains("\"p99_s\""));
        assert!(json.contains("\"drop_rate\""));
        assert!(json.contains("\"energy_per_query_j\""));
        let restored = ExperimentReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(restored, report);
        assert_eq!(
            restored.to_json_string(),
            json,
            "bit-equal re-serialization"
        );
        // Reports written before the serving lens carry no "serving" key;
        // they parse to None and re-serialize byte-identically.
        let old_report = Experiment::new(&sweep())
            .designs([homogeneous(16), homogeneous(8)])
            .estimator(Analytical)
            .run()
            .unwrap();
        let old_json = old_report.to_json_string();
        assert!(
            !old_json.contains("\"serving\""),
            "non-serving records omit the key"
        );
        let old_restored =
            ExperimentReport::from_json(&JsonValue::parse(&old_json).unwrap()).unwrap();
        assert!(old_restored
            .records()
            .all(|record| record.serving.is_none()));
        assert_eq!(old_restored.to_json_string(), old_json, "byte-compatible");
    }

    #[test]
    fn serving_stats_new_keys_round_trip_and_old_stats_stay_byte_compatible() {
        // New runs emit the PR 9 keys and they round-trip.
        let workload = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31);
        let report = Experiment::new(&workload)
            .designs([homogeneous(16)])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        let json = report.to_json_string();
        assert!(json.contains("\"arrival\""), "{json}");
        assert!(json.contains("\"pool_mean_depth\""));
        assert!(json.contains("\"pool_max_queued\""));
        let stats = report.series[0].records[0].serving.as_ref().unwrap();
        assert_eq!(stats.arrival.as_deref(), Some("poisson"));
        assert_eq!(stats.pool_mean_depth.len(), 1);
        assert_eq!(stats.pool_max_queued.len(), 1);
        let back = ServingStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(&back, stats);

        // A ServingStats written before PR 9 carries none of the new keys;
        // it parses to None/empty and re-writes byte-identically (the same
        // contract the PR 7 "serving key omitted" test pins one level up).
        let mut old = JsonValue::object();
        old.set("scheduler", "fcfs")
            .set("offered_qps", 0.5)
            .set("achieved_qps", 0.5)
            .set("arrivals", 10usize)
            .set("completed", 10usize)
            .set("dropped", 0usize)
            .set("timed_out", 0usize)
            .set("drop_rate", 0.0)
            .set("p50_s", 1.0)
            .set("p95_s", 2.0)
            .set("p99_s", 3.0)
            .set("mean_latency_s", 1.2)
            .set("mean_wait_s", 0.2)
            .set("energy_per_query_j", 42.0);
        let old_json = old.to_json_pretty();
        let restored = ServingStats::from_json(&old).unwrap();
        assert_eq!(restored.arrival, None);
        assert!(restored.pool_mean_depth.is_empty());
        assert!(restored.pool_max_queued.is_empty());
        assert_eq!(
            restored.to_json().to_json_pretty(),
            old_json,
            "pre-PR 9 serving stats re-serialize byte-identically"
        );
    }

    #[test]
    fn serving_lens_reports_fault_stats_and_inert_models_stay_byte_compatible() {
        use eedc_dbmsim::FaultModel;

        // One arrival at t = 0, a scripted outage halfway through its
        // service: the query is killed, replayed, and the record's nested
        // fault stats account for the lost pool-time.
        let design = homogeneous(16);
        let solo = Analytical
            .estimate(&sweep().plans()[0], &design)
            .unwrap()
            .response_time
            .value();
        let window = Seconds(20.0 * solo);
        let model =
            FaultModel::scripted(Vec::new()).outage(0, Seconds(0.5 * solo), Seconds(2.0 * solo));
        let churned = ServingWorkload::new(&sweep(), 1.0, window, 31)
            .trace_arrivals([Seconds(0.0)])
            .with_faults(model);
        let report = Experiment::new(&churned)
            .designs([design.clone()])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        let stats = report.series[0].records[0].serving.as_ref().unwrap();
        let faults = stats
            .faults
            .as_ref()
            .expect("a churned run reports fault stats");
        assert_eq!(faults.failures, 1);
        assert_eq!(faults.killed, 1);
        assert_eq!(faults.readmitted, 1);
        assert_eq!(stats.completed, 1, "the replayed query still completes");
        assert!(
            faults.availability > 0.0 && faults.availability < 1.0,
            "outage downtime must dent availability: {}",
            faults.availability
        );
        assert!(faults.fault_downtime.value() > 0.0);
        // The nested "faults" object round-trips bit-for-bit.
        let json = report.to_json_string();
        assert!(json.contains("\"faults\""), "{json}");
        assert!(json.contains("\"availability\""), "{json}");
        let restored = ExperimentReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(restored, report);
        assert_eq!(restored.to_json_string(), json, "bit-equal re-write");

        // An inert model is invisible: the whole report — including its
        // JSON bytes — matches a fault-free run, and the "faults" key is
        // never emitted.
        let bare = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31);
        let inert = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31)
            .with_faults(FaultModel::new(0.0));
        let run = |workload: &ServingWorkload| {
            Experiment::new(workload)
                .designs([design.clone()])
                .estimator(Serving::fcfs())
                .run()
                .unwrap()
        };
        let bare_json = run(&bare).to_json_string();
        assert_eq!(bare_json, run(&inert).to_json_string());
        assert!(!bare_json.contains("\"faults\""), "inert runs omit the key");
    }

    #[test]
    fn serving_lens_derives_migration_cost_and_parks_idle_pools() {
        use eedc_dbmsim::{FaultModel, ScalePolicy};

        // A two-pool heterogeneous design under near-zero load with a scale
        // policy that carries no explicit migration cost: the lens derives
        // one from the port-volume model, and the elastic policy parks the
        // idle pool — visible as scale-in events and a cheaper run.
        let mut small = sweep();
        small.build_bytes = Megabytes(2_000.0);
        small.probe_bytes = Megabytes(8_000.0);
        let design = ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 4).unwrap();
        let solo = Analytical
            .estimate(
                &small.plans()[0],
                &ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
            )
            .unwrap()
            .response_time
            .value();
        let window = Seconds(400.0 * solo);
        let base = ServingWorkload::new(&small, 0.01 / solo, window, 13).queue_capacity(256);
        let elastic = base
            .clone()
            .with_faults(FaultModel::new(0.0).scale(ScalePolicy::new(8, 1, Seconds(solo))));
        let run = |workload: &ServingWorkload| {
            Experiment::new(workload)
                .designs([design.clone()])
                .estimator(Serving::fcfs())
                .run()
                .unwrap()
        };
        let still = run(&base);
        let scaled = run(&elastic);
        let record = &scaled.series[0].records[0];
        let faults = record.serving.as_ref().unwrap().faults.as_ref().unwrap();
        assert!(faults.scale_in_events > 0, "an idle pool must park");
        assert_eq!(faults.failures, 0);
        assert_eq!(
            faults.availability, 1.0,
            "deliberate parking is not downtime"
        );
        assert!(
            record.energy < still.series[0].records[0].energy,
            "parking an idle pool must save energy"
        );
    }

    #[test]
    fn serving_prices_pools_through_the_concurrency_sweep() {
        // A 4-way dedicated pool is priced at concurrency 4: with
        // deterministic service and near-zero load, every query's latency is
        // the *4-way* analytical response time, not the solo one.
        let design = homogeneous(8);
        let plan = sweep().plans().remove(0);
        let solo = Analytical.estimate(&plan, &design).unwrap();
        let mut four_way = plan.clone();
        four_way.sweep = four_way.sweep.with_concurrency(4);
        let batch = Analytical.estimate(&four_way, &design).unwrap();
        assert!(
            batch.response_time > solo.response_time,
            "4 concurrent queries must take longer than one"
        );

        let window = Seconds(2_000.0 * solo.response_time.value());
        let qps = 0.05 / solo.response_time.value();
        let pooled = ServingWorkload::new(&sweep(), qps, window, 7).pool_concurrency(4);
        let report = Experiment::new(&pooled)
            .designs([design.clone()])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        let record = &report.series[0].records[0];
        let stats = record.serving.as_ref().unwrap();
        assert!(stats.completed > 50);
        assert_eq!(stats.dropped + stats.timed_out, 0);
        // Light load: nothing queues, so p50 is exactly one service time —
        // the re-priced 4-way time.
        assert!(
            (stats.p50.value() - batch.response_time.value()).abs()
                < 1e-9 * batch.response_time.value(),
            "p50 {} vs 4-way response time {}",
            stats.p50.value(),
            batch.response_time.value()
        );
        // And the per-query energy reflects the batch split: query energy
        // alone is energy/4 per completion, so total per-query energy stays
        // below one solo run plus the idle share.
        assert!(stats.energy_per_query.value() > 0.0);

        // A processor-sharing pool is priced solo: at near-zero load each
        // query runs alone at the solo rate.
        let shared = ServingWorkload::new(&sweep(), qps, window, 7)
            .pool_concurrency(4)
            .processor_sharing();
        let report = Experiment::new(&shared)
            .designs([design])
            .estimator(Serving::fcfs())
            .run()
            .unwrap();
        let ps_stats = report.series[0].records[0].serving.as_ref().unwrap();
        assert!(
            (ps_stats.p50.value() - solo.response_time.value()).abs()
                < 1e-9 * solo.response_time.value(),
            "PS p50 {} vs solo response time {}",
            ps_stats.p50.value(),
            solo.response_time.value()
        );
        // Zero pool concurrency is a caller error.
        let mut bad = pooled.plans().remove(0);
        bad.serving.as_mut().unwrap().pool_concurrency = 0;
        assert!(Serving::fcfs().estimate(&bad, &homogeneous(8)).is_err());
    }

    #[test]
    fn serving_jsq_and_po2_lenses_run_deterministically() {
        let mut small = sweep();
        small.build_bytes = Megabytes(2_000.0);
        small.probe_bytes = Megabytes(8_000.0);
        let design = ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 4).unwrap();
        let solo = Analytical
            .estimate(
                &small.plans()[0],
                &ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
            )
            .unwrap()
            .response_time
            .value();
        let workload =
            ServingWorkload::new(&small, 0.8 / solo, Seconds(800.0 * solo), 13).queue_capacity(256);
        let run = || {
            Experiment::new(&workload)
                .designs([design.clone()])
                .estimator(Serving::jsq())
                .estimator(Serving::power_of_two())
                .run()
                .unwrap()
        };
        let report = run();
        let jsq = &report.series[0].records[0];
        let po2 = &report.series[1].records[0];
        assert_eq!(jsq.estimator, "serving:jsq");
        assert_eq!(po2.estimator, "serving:po2");
        let jsq_stats = jsq.serving.as_ref().unwrap();
        let po2_stats = po2.serving.as_ref().unwrap();
        assert_eq!(jsq_stats.scheduler, "jsq");
        assert_eq!(po2_stats.scheduler, "po2");
        // Queue-depth accounting covers both pools of the design.
        assert_eq!(jsq_stats.pool_mean_depth.len(), 2);
        assert!(jsq_stats.pool_mean_depth.iter().all(|&d| d > 0.0));
        assert_eq!(po2_stats.pool_max_queued.len(), 2);
        assert!(jsq_stats.completed > 200);
        assert!(po2_stats.completed > 200);
        // The po2 probes draw from the seeded kernel RNG: bit-identical.
        assert_eq!(report.to_json_string(), run().to_json_string());
    }

    #[test]
    fn reports_serialize_to_json() {
        let workload = sweep();
        let report = Experiment::new(&workload)
            .designs([
                homogeneous(16),
                homogeneous(8),
                ClusterSpec::homogeneous(laptop_b(), 2).unwrap(),
            ])
            .estimator(Analytical)
            .run()
            .unwrap();
        let json = report.to_json_string();
        assert!(json.contains("\"estimator\": \"analytical\""), "{json}");
        assert!(json.contains("\"design\": \"16B,0W\""));
        assert!(json.contains("\"normalized\""));
        assert!(json.contains("\"infeasible\""));
        assert!(json.contains("\"bottleneck\": \"network\""));
        // And lands on disk through the writer.
        let dir = std::env::temp_dir().join("eedc-experiment-test");
        let path = dir.join("nested").join("report.json");
        report.write_json(&path).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, json);
        std::fs::remove_dir_all(&dir).ok();
    }
}
