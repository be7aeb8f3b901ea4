//! The uniform result records every lens yields, and their JSON codec.
//!
//! [`RunRecord`] is the currency of the experiment API — response time,
//! energy, per-node utilization and energy, per-phase breakdown
//! ([`PhaseRecord`]), and, for [`Serving`](crate::Serving) runs, queueing
//! statistics ([`ServingStats`], with [`FaultStats`] nested inside when the
//! run was churned). Each struct carries its own `write_json` / `from_json`
//! pair over [`crate::json`]: `write_json` streams the struct's fields into
//! the crate's one JSON writer, `from_json` lifts them back out of a parsed
//! tree. Keys a later vintage added are read through
//! [`JsonValue::optional`] and omitted by the writer when absent, so older
//! reports re-serialize byte-identically.

use crate::error::CoreError;
use crate::json::{JsonValue, JsonWriter};
use eedc_pstore::stats::{Bottleneck, ExecutionMode, PhaseStats};
use eedc_pstore::JoinStrategy;
use eedc_simkit::metrics::{Measurement, NormalizedPoint};
use eedc_simkit::units::{Joules, Megabytes, Seconds};

/// Read a key that a later vintage of the writer added: `read` runs only
/// when the document carries the key ([`JsonValue::optional`]).
fn later<'a, T>(
    value: &'a JsonValue,
    key: &str,
    read: impl FnOnce(&'a JsonValue, &str) -> Result<T, CoreError>,
) -> Result<Option<T>, CoreError> {
    value.optional(key).map(|_| read(value, key)).transpose()
}

/// A normalized point as the `"normalized"` object of a record.
fn write_point(point: &NormalizedPoint, w: &mut JsonWriter) {
    w.begin_object();
    w.key("performance").number(point.performance);
    w.key("energy").number(point.energy);
    w.end_object();
}

/// The reader half of [`write_point`].
fn point_from_json(value: &JsonValue) -> Result<NormalizedPoint, CoreError> {
    Ok(NormalizedPoint {
        performance: value.f64_field("performance")?,
        energy: value.f64_field("energy")?,
    })
}

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
    /// energy-per-query) — [`Serving`](crate::Serving) runs only.
    pub serving: Option<ServingStats>,
    /// The record's (performance, energy) point normalized against the
    /// experiment's reference design; filled in by
    /// [`Experiment::run`](crate::Experiment::run).
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
    /// Fraction of arrivals dropped or timed out. Queries that a failure
    /// kills under `RecoveryPolicy::Drop` are lost too but not counted
    /// here: they are `killed − readmitted` in [`FaultStats`].
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
    /// carried an active [`FaultModel`](crate::FaultModel), so
    /// fault-free reports keep their pre-fault byte shape.
    pub faults: Option<FaultStats>,
}

/// Fault-injection and cluster-lifecycle accounting of one serving run:
/// what failed, what the failures cost, and how the elastic policy moved
/// the fleet. Rides inside [`ServingStats`] only when the run's
/// [`FaultModel`](crate::FaultModel) actually did something.
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
    /// Write the stats as a JSON object (nested under the serving
    /// object's `"faults"` key).
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("availability").number(self.availability);
        w.key("failures").number(self.failures as f64);
        w.key("killed").number(self.killed as f64);
        w.key("readmitted").number(self.readmitted as f64);
        w.key("scale_out_events")
            .number(self.scale_out_events as f64);
        w.key("scale_in_events").number(self.scale_in_events as f64);
        w.key("fault_downtime_s")
            .number(self.fault_downtime.value());
        w.key("overhead_energy_j")
            .number(self.overhead_energy.value());
        w.end_object();
    }

    /// Reconstruct the stats from the shape the writer emits.
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
    /// Write the stats as a JSON object. The later-vintage fields
    /// (`arrival`, the queue-depth vectors, the nested `faults` object) are
    /// emitted only when present, so stats read from an older report
    /// re-write byte-identically.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("scheduler").string(&self.scheduler);
        if let Some(arrival) = &self.arrival {
            w.key("arrival").string(arrival);
        }
        w.key("offered_qps").number(self.offered_qps);
        w.key("achieved_qps").number(self.achieved_qps);
        w.key("arrivals").number(self.arrivals as f64);
        w.key("completed").number(self.completed as f64);
        w.key("dropped").number(self.dropped as f64);
        w.key("timed_out").number(self.timed_out as f64);
        w.key("drop_rate").number(self.drop_rate);
        w.key("p50_s").number(self.p50.value());
        w.key("p95_s").number(self.p95.value());
        w.key("p99_s").number(self.p99.value());
        w.key("mean_latency_s").number(self.mean_latency.value());
        w.key("mean_wait_s").number(self.mean_wait.value());
        w.key("energy_per_query_j")
            .number(self.energy_per_query.value());
        if !self.pool_mean_depth.is_empty() {
            w.key("pool_mean_depth")
                .numbers(self.pool_mean_depth.iter().copied());
        }
        if !self.pool_max_queued.is_empty() {
            w.key("pool_max_queued")
                .numbers(self.pool_max_queued.iter().map(|&n| n as f64));
        }
        if let Some(faults) = &self.faults {
            w.key("faults");
            faults.write_json(w);
        }
        w.end_object();
    }

    /// Reconstruct the stats from the JSON shape the writer emits. Reports
    /// written before arrival processes and queue-depth accounting existed
    /// carry no `arrival` / queue-depth keys; those read back as `None` /
    /// empty and re-write with the keys absent — byte-compatible.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        Ok(Self {
            scheduler: value.str_field("scheduler")?.to_string(),
            arrival: later(value, "arrival", JsonValue::str_field)?.map(str::to_string),
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
            pool_mean_depth: later(value, "pool_mean_depth", JsonValue::f64_array_field)?
                .unwrap_or_default(),
            pool_max_queued: later(value, "pool_max_queued", JsonValue::usize_array_field)?
                .unwrap_or_default(),
            faults: value
                .optional("faults")
                .map(FaultStats::from_json)
                .transpose()?,
        })
    }
}

impl PhaseRecord {
    /// Write the phase as a JSON object (one element of a record's
    /// `"phases"` array).
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("label").string(&self.label);
        w.key("duration_s").number(self.duration.value());
        w.key("energy_j").number(self.energy.value());
        w.key("bytes_over_network_mb")
            .number(self.bytes_over_network.value());
        w.key("scan_time_s").number(self.scan_time.value());
        w.key("network_time_s").number(self.network_time.value());
        w.key("compute_time_s").number(self.compute_time.value());
        w.key("bottleneck").string(self.bottleneck.as_str());
        w.end_object();
    }

    /// Reconstruct a phase record from the shape the writer emits.
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

    /// Reconstruct a record from the JSON shape the writer emits — the
    /// reader half of the figures pipeline, used for baseline
    /// comparisons against series already on disk.
    pub fn from_json(value: &JsonValue) -> Result<Self, CoreError> {
        // `output_rows` and `normalized` are always written, as `null` when
        // there is nothing to say; only "serving" is a later-vintage key.
        let output_rows = match value.field("output_rows")? {
            JsonValue::Null => None,
            _ => Some(value.usize_field("output_rows")?),
        };
        let normalized = match value.field("normalized")? {
            JsonValue::Null => None,
            point => Some(point_from_json(point)?),
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
            node_utilization: value.f64_array_field("node_utilization")?,
            node_energy: value
                .f64_array_field("node_energy_j")?
                .into_iter()
                .map(Joules)
                .collect(),
            phases: value
                .array_field("phases")?
                .iter()
                .map(PhaseRecord::from_json)
                .collect::<Result<_, _>>()?,
            output_rows,
            serving: value
                .optional("serving")
                .map(ServingStats::from_json)
                .transpose()?,
            normalized,
        })
    }

    /// The Energy-Delay Product in joule·seconds.
    pub fn edp(&self) -> f64 {
        self.measurement().edp()
    }

    /// Write the record as a JSON object.
    pub(crate) fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("workload").string(&self.workload);
        w.key("estimator").string(&self.estimator);
        w.key("design").string(&self.design);
        w.key("strategy").string(self.strategy.as_str());
        w.key("mode").string(self.mode.as_str());
        w.key("concurrency").number(self.concurrency as f64);
        w.key("response_time_s").number(self.response_time.value());
        w.key("energy_j").number(self.energy.value());
        w.key("edp_js").number(self.edp());
        w.key("node_utilization")
            .numbers(self.node_utilization.iter().copied());
        w.key("node_energy_j")
            .numbers(self.node_energy.iter().map(|e| e.value()));
        w.key("phases").begin_array();
        for phase in &self.phases {
            phase.write_json(w);
        }
        w.end_array();
        match self.output_rows {
            Some(rows) => w.key("output_rows").number(rows as f64),
            None => w.key("output_rows").null(),
        }
        if let Some(serving) = &self.serving {
            w.key("serving");
            serving.write_json(w);
        }
        w.key("normalized");
        match &self.normalized {
            Some(point) => write_point(point, w),
            None => w.null(),
        }
        w.end_object();
    }
}
