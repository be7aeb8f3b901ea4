//! What a serving run reports: counts, latencies, energy splits and queue
//! depths, with the percentile and utilization accessors.

use eedc_simkit::units::{Joules, Seconds};

/// Aggregated outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResult {
    /// Name of the scheduler that placed the queries.
    pub scheduler: String,
    /// Arrival-law name (`"poisson"` / `"trace"` / `"ramp"`).
    pub arrival: String,
    /// Mean offered load over the window (arrivals per second).
    pub offered_qps: f64,
    /// Configured arrival window.
    pub window: Seconds,
    /// End of the run: the later of the arrival window and the last
    /// completion. Idle energy is metered over this span.
    pub makespan: Seconds,
    /// Queries that arrived.
    pub arrivals: usize,
    /// Queries that completed service.
    pub completed: usize,
    /// Arrivals rejected because the shared waiting room was full (plus any
    /// queries stranded in a queue when the run ended — possible only under
    /// fault churn).
    pub dropped: usize,
    /// Queued queries abandoned after waiting longer than `max_wait`.
    pub timed_out: usize,
    /// Pool failures (hazard plus scripted) during the run.
    pub failures: usize,
    /// In-flight queries killed by pool failures.
    pub killed: usize,
    /// Killed queries re-admitted per the recovery policy. The conservation
    /// invariant: `arrivals = completed + dropped + timed_out +
    /// (killed - readmitted)`.
    pub readmitted: usize,
    /// Pools revived by the scale policy.
    pub scale_out_events: usize,
    /// Pools parked by the scale policy.
    pub scale_in_events: usize,
    /// Summed pool-seconds lost to failures (repair plus warm-up).
    pub fault_downtime: Seconds,
    /// Summed pool-seconds deliberately parked by the scale policy
    /// (excluded from the availability metric).
    pub parked_time: Seconds,
    /// Fraction of pool-time the cluster was available:
    /// `1 − fault_downtime / (makespan × pools)`.
    pub availability: f64,
    /// Completed-query latencies (arrival → completion), sorted ascending.
    pub latencies: Vec<f64>,
    /// Mean time admitted queries waited before service started.
    pub mean_wait: Seconds,
    /// Total energy over the makespan: query energy plus idle power plus
    /// lifecycle overhead (restarts and migrations).
    pub energy: Joules,
    /// Energy attributed to query execution.
    pub query_energy: Joules,
    /// Energy burned idling between queries (unpowered repair and parked
    /// spans are not metered).
    pub idle_energy: Joules,
    /// Energy billed to lifecycle transitions: restart energy per recovery
    /// and data movement per scale transition.
    pub overhead_energy: Joules,
    /// Per-server busy time: summed per-slot service time for dedicated
    /// pools, wall-clock non-empty time for processor-sharing pools.
    pub server_busy: Vec<Seconds>,
    /// Per-server total energy (query energy plus that server's idle power
    /// over its idle time). Sums to `energy`.
    pub server_energy: Vec<Joules>,
    /// Per-server completed-query counts.
    pub server_queries: Vec<usize>,
    /// Per-server parallel capacity in query-slots (the utilization
    /// divisor): the concurrency limit for dedicated pools, 1 for
    /// processor-sharing pools.
    pub server_slots: Vec<usize>,
    /// Time-averaged queries in system (waiting + in flight) per pool.
    pub pool_mean_depth: Vec<f64>,
    /// High-water mark of each pool's own queue (waiting only).
    pub pool_max_queued: Vec<usize>,
    /// Time-averaged central-queue length.
    pub central_mean_depth: f64,
    /// Per-template completed-query counts.
    pub template_completed: Vec<usize>,
}

impl ServingResult {
    /// Nearest-rank percentile of the completed-query latency distribution.
    ///
    /// Defined for every input: `p` is clamped into `[0, 100]` (a NaN reads
    /// as 0), `p = 0` is the minimum, `p = 100` the maximum, a single-sample
    /// run returns that sample for every `p`, and an empty run returns zero
    /// seconds — never an index panic, never a NaN.
    pub fn latency_percentile(&self, p: f64) -> Seconds {
        if self.latencies.is_empty() {
            return Seconds::zero();
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let rank = ((p / 100.0) * self.latencies.len() as f64).ceil() as usize;
        Seconds(self.latencies[rank.clamp(1, self.latencies.len()) - 1])
    }

    /// Median latency.
    pub fn p50(&self) -> Seconds {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Seconds {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Seconds {
        self.latency_percentile(99.0)
    }

    /// Mean completed-query latency.
    pub fn mean_latency(&self) -> Seconds {
        if self.latencies.is_empty() {
            return Seconds::zero();
        }
        Seconds(self.latencies.iter().sum::<f64>() / self.latencies.len() as f64)
    }

    /// Completions per second over the makespan.
    pub fn achieved_qps(&self) -> f64 {
        if self.makespan.value() <= f64::EPSILON {
            return 0.0;
        }
        self.completed as f64 / self.makespan.value()
    }

    /// Fraction of arrivals dropped or timed out. Queries that a failure
    /// kills under [`RecoveryPolicy::Drop`](crate::faults::RecoveryPolicy::Drop)
    /// are lost too but not counted here: they are
    /// [`killed`](Self::killed) − [`readmitted`](Self::readmitted).
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.dropped + self.timed_out) as f64 / self.arrivals as f64
    }

    /// Total energy divided by completed queries (total energy when nothing
    /// completed, so a fully-saturated run still reads as expensive).
    pub fn energy_per_query(&self) -> Joules {
        if self.completed == 0 {
            return self.energy;
        }
        self.energy / self.completed as f64
    }

    /// Busy share of a server over the makespan: per-slot mean utilization
    /// for dedicated pools, non-empty fraction for processor sharing.
    /// `None` for a server id the run did not have.
    pub fn server_utilization(&self, server: usize) -> Option<f64> {
        let busy = self.server_busy.get(server)?.value();
        let slots = *self.server_slots.get(server)?;
        let capacity = self.makespan.value() * slots.max(1) as f64;
        if capacity <= f64::EPSILON {
            return Some(0.0);
        }
        Some((busy / capacity).clamp(0.0, 1.0))
    }

    /// Time-averaged queries in system across every pool and the central
    /// queue — the queue-depth figure of merit feedback schedulers drive
    /// down.
    pub fn mean_system_depth(&self) -> f64 {
        self.pool_mean_depth.iter().sum::<f64>() + self.central_mean_depth
    }
}
