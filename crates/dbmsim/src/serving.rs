//! Discrete-event *serving* simulator: open-loop arrivals, admission
//! queueing, pluggable placement.
//!
//! Everything else in this crate (and in the analytical model) evaluates one
//! query at a time in closed form. This module models a cluster run as a
//! long-lived **service**: queries arrive open loop under a configurable
//! [`ArrivalProcess`] (Poisson, a recorded trace, or a piecewise-rate
//! diurnal ramp), each arrival draws a query *template* from a Zipf-skewed
//! mix, a bounded admission queue absorbs bursts (with drop and timeout
//! accounting), and a [`Scheduler`] places each admitted query on one of
//! several *pools* (for a heterogeneous design: the Beefy pool and the Wimpy
//! pool). A pool serves up to [`ServingServer::concurrency_limit`] queries
//! at once — either on dedicated slots ([`ServiceMode::Dedicated`], the
//! M/M/c shape) or by dividing its single-query rate across everything in
//! flight ([`ServiceMode::ProcessorSharing`], the M/M/1-PS shape). Per-query
//! service times and energies are **inputs** ([`ServiceProfile`]) — they
//! come from the existing closed-form machinery (`eedc-core`'s
//! analytical/traced estimators), not from new physics; what this layer adds
//! is the queueing behaviour those closed forms cannot express: latency
//! percentiles, drops, saturation.
//!
//! Event flow (each hop is one event on the [`Simulation`] kernel):
//!
//! ```text
//! arrival ──▶ scheduler ──────────▶ pool ──▶ service ──▶ completion
//!    │            │ (FCFS / energy- │ queue                  │
//!    └─ schedules │  aware: free    │ (JSQ / po2 commit      └─ frees a
//!       the next  │  slots only;    │  here; timeouts and       slot; pulls
//!       arrival   │  else central   │  the shared bound         the pool
//!                 ▼  queue)         ▼  apply)                   queue, then
//!          central queue ───────────────────────────────────▶   the central
//!          (bounded, drop / timeout accounting)                 queue
//! ```
//!
//! Determinism: every random draw (inter-arrival gaps, template selection,
//! service-time jitter, the power-of-two-choices probes) comes from the
//! kernel's seeded RNG, so a given `(servers, config, scheduler)` triple
//! reproduces bit-identically. The queueing behaviour is cross-validated
//! against closed forms — Erlang-C for M/M/c waits, the M/M/1-PS sojourn
//! insensitivity, po2-beats-random — in
//! `crates/dbmsim/tests/queueing_validation.rs`.
//!
//! Fault injection and elastic lifecycle live in [`crate::faults`]: attach a
//! [`FaultModel`] via [`ServingConfig::faults`] and the engine schedules
//! node-down / node-up events — in-flight queries on a failed pool are
//! killed and dropped, replayed, or checkpoint-resumed per
//! [`RecoveryPolicy`](crate::faults::RecoveryPolicy); restart energy and
//! warm-up time are billed to the run; and a queue-depth
//! [`ScalePolicy`](crate::faults::ScalePolicy) parks and revives whole
//! pools mid-run, billing data movement per transition. An inert model
//! ([`FaultModel::is_inert`]) schedules no events and consumes no RNG
//! draws, so fault-free results stay bit-identical.

use crate::faults::{FaultModel, PoolLifecycle, TransitionCost};
use eedc_simkit::error::SimError;
use eedc_simkit::sim::{from_order_key, order_key, EventHandler, Simulation};
use eedc_simkit::units::{Joules, Seconds, Watts};
use std::collections::VecDeque;

/// Closed-form cost of running one query template on one server: the service
/// time and the energy drawn *above idle* while serving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// Mean service time of the template on this server.
    pub time: Seconds,
    /// Energy consumed serving one query of the template.
    pub energy: Joules,
}

/// How a pool shares its capacity across concurrent queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceMode {
    /// Up to `concurrency_limit` dedicated slots, each serving one query at
    /// the profile's full rate — the M/M/c shape. The per-query profile
    /// should then be priced *at* that concurrency (the `eedc-core` serving
    /// lens prices an n-way pool from `ConcurrencySweep` data).
    #[default]
    Dedicated,
    /// One shared processor at the single-query profile rate, divided
    /// equally across everything in flight (up to `concurrency_limit`) —
    /// the M/M/1-PS shape. Contention is modeled by the sharing itself, so
    /// profiles should be priced solo.
    ProcessorSharing,
}

/// One logical server: a pool of nodes serving up to
/// [`concurrency_limit`](Self::concurrency_limit) queries at a time.
///
/// For a heterogeneous `(b Beefy, w Wimpy)` design the serving layer builds
/// two pools — the Beefy pool and the Wimpy pool — so the scheduler's
/// per-query choice *is* the paper's Beefy-vs-Wimpy placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingServer {
    /// Human-readable label (e.g. `"beefy(4)"`, `"wimpy(16)"`).
    pub label: String,
    /// Wall power the pool burns while idle between queries.
    pub idle_power: Watts,
    /// Per-template cost, indexed by template id; `None` marks a template
    /// this server cannot serve (e.g. the build side overflows its memory).
    pub profiles: Vec<Option<ServiceProfile>>,
    /// Queries the pool serves simultaneously; beyond it they queue.
    pub concurrency_limit: usize,
    /// Dedicated slots or processor sharing across the in-flight set.
    pub mode: ServiceMode,
    /// Physical nodes backing the pool — the pool fails when its first node
    /// does, so this scales the hazard rate of a [`FaultModel`].
    pub nodes: usize,
}

impl ServingServer {
    /// A single-query, dedicated-slot pool (the pre-concurrency default).
    pub fn new(
        label: impl Into<String>,
        idle_power: Watts,
        profiles: Vec<Option<ServiceProfile>>,
    ) -> Self {
        Self {
            label: label.into(),
            idle_power,
            profiles,
            concurrency_limit: 1,
            mode: ServiceMode::Dedicated,
            nodes: 1,
        }
    }

    /// Serve up to `limit` queries at once (dedicated slots by default).
    pub fn concurrency_limit(mut self, limit: usize) -> Self {
        self.concurrency_limit = limit;
        self
    }

    /// Set the physical node count backing the pool (scales the hazard
    /// failure rate; defaults to one).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Divide the pool's single-query rate across in-flight queries instead
    /// of granting each a dedicated slot.
    pub fn processor_sharing(mut self) -> Self {
        self.mode = ServiceMode::ProcessorSharing;
        self
    }

    /// Whether this server can serve the given template.
    pub fn can_serve(&self, template: usize) -> bool {
        self.profiles.get(template).is_some_and(|p| p.is_some())
    }

    /// The utilization divisor: parallel service capacity in query-slots
    /// (a processor-sharing pool is one shared processor, whatever its
    /// multiprogramming limit).
    pub fn slots(&self) -> usize {
        match self.mode {
            ServiceMode::Dedicated => self.concurrency_limit.max(1),
            ServiceMode::ProcessorSharing => 1,
        }
    }
}

/// Service-time law applied around the profile's mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceDistribution {
    /// Every query of a template takes exactly the profile time (the
    /// closed-form machinery is deterministic, so this is the default).
    Deterministic,
    /// Exponentially distributed around the profile mean — the M/M/c law
    /// the kernel is cross-validated against.
    Exponential,
}

/// One piece of a piecewise-constant-rate arrival ramp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampSegment {
    /// How long the segment lasts.
    pub duration: Seconds,
    /// Mean Poisson arrival rate over the segment (`0.0` is a quiet spell).
    pub qps: f64,
}

/// The open-loop arrival law — the seam that replaces the PR 7 hard-coded
/// exponential gaps (the `dslab-faas` trace shape).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrivals per second.
        qps: f64,
    },
    /// Replay recorded arrival instants (non-decreasing, from time zero);
    /// instants at or beyond the arrival window are ignored.
    Trace(Vec<Seconds>),
    /// Piecewise-constant Poisson rates — a diurnal ramp. Segments tile the
    /// window from time zero; arrivals stop at the earlier of the last
    /// segment and the window.
    Ramp(Vec<RampSegment>),
}

impl ArrivalProcess {
    /// Short name recorded in results (`"poisson"` / `"trace"` / `"ramp"`).
    pub fn kind(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Trace(_) => "trace",
            ArrivalProcess::Ramp(_) => "ramp",
        }
    }

    /// Mean offered rate over an arrival window (the configured rate for
    /// Poisson; the realized rate for traces and ramps).
    pub fn mean_qps(&self, window: Seconds) -> f64 {
        let window = window.value();
        if window <= 0.0 {
            return 0.0;
        }
        match self {
            ArrivalProcess::Poisson { qps } => *qps,
            ArrivalProcess::Trace(times) => {
                times.iter().filter(|t| t.value() < window).count() as f64 / window
            }
            ArrivalProcess::Ramp(segments) => {
                let mut start = 0.0;
                let mut expected = 0.0;
                for segment in segments {
                    let end = (start + segment.duration.value()).min(window);
                    if end > start {
                        expected += segment.qps * (end - start);
                    }
                    start += segment.duration.value();
                    if start >= window {
                        break;
                    }
                }
                expected / window
            }
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        match self {
            ArrivalProcess::Poisson { qps } => {
                if !qps.is_finite() || *qps <= 0.0 {
                    return Err(SimError::invalid(format!(
                        "offered QPS must be positive, got {qps}"
                    )));
                }
            }
            ArrivalProcess::Trace(times) => {
                let mut last = 0.0;
                for time in times {
                    let t = time.value();
                    if !t.is_finite() || t < 0.0 {
                        return Err(SimError::invalid(format!(
                            "trace arrival instants must be finite and non-negative, got {t}"
                        )));
                    }
                    if t < last {
                        return Err(SimError::invalid(
                            "trace arrival instants must be non-decreasing",
                        ));
                    }
                    last = t;
                }
            }
            ArrivalProcess::Ramp(segments) => {
                if segments.is_empty() {
                    return Err(SimError::invalid("a ramp needs at least one segment"));
                }
                for segment in segments {
                    let d = segment.duration.value();
                    if !d.is_finite() || d <= 0.0 {
                        return Err(SimError::invalid(format!(
                            "ramp segment durations must be positive, got {d}"
                        )));
                    }
                    if !segment.qps.is_finite() || segment.qps < 0.0 {
                        return Err(SimError::invalid(format!(
                            "ramp segment rates must be finite and non-negative, got {}",
                            segment.qps
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Parameters of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// The open-loop arrival law.
    pub arrival: ArrivalProcess,
    /// Length of the arrival window; completions are drained past it.
    pub duration: Seconds,
    /// Zipf skew of the template mix: template `i` has weight
    /// `(i + 1)^-theta`. `0.0` is a uniform mix.
    pub template_theta: f64,
    /// Shared waiting-room bound across the central queue and every pool
    /// queue; arrivals beyond it are dropped.
    pub queue_capacity: usize,
    /// Queued queries waiting longer than this time out (checked lazily at
    /// the next arrival or completion). `None` disables timeouts.
    pub max_wait: Option<Seconds>,
    /// RNG seed; same seed ⇒ bit-identical run.
    pub seed: u64,
    /// Service-time law.
    pub service: ServiceDistribution,
    /// Fault-injection and lifecycle model; `None` (or an inert model)
    /// keeps every pool online for the whole run.
    pub faults: Option<FaultModel>,
}

impl ServingConfig {
    /// A deterministic-service, uniform-mix, Poisson-arrival configuration
    /// with a generous (but bounded) admission queue.
    pub fn new(qps: f64, duration: Seconds, seed: u64) -> Self {
        ServingConfig {
            arrival: ArrivalProcess::Poisson { qps },
            duration,
            template_theta: 0.0,
            queue_capacity: 1024,
            max_wait: None,
            seed,
            service: ServiceDistribution::Deterministic,
            faults: None,
        }
    }

    /// Replace the arrival law (trace replay, diurnal ramp).
    pub fn arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    /// Set the Zipf skew of the template mix.
    pub fn template_theta(mut self, theta: f64) -> Self {
        self.template_theta = theta;
        self
    }

    /// Set the admission-queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enable queue-wait timeouts.
    pub fn max_wait(mut self, wait: Seconds) -> Self {
        self.max_wait = Some(wait);
        self
    }

    /// Use exponentially distributed service times.
    pub fn exponential_service(mut self) -> Self {
        self.service = ServiceDistribution::Exponential;
        self
    }

    /// Attach a fault-injection and lifecycle model.
    pub fn faults(mut self, model: FaultModel) -> Self {
        self.faults = Some(model);
        self
    }
}

/// Read-only queue state of one pool at placement time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolView {
    /// Queries currently being served by the pool.
    pub in_flight: usize,
    /// Queries waiting in the pool's own queue.
    pub queued: usize,
    /// Service slots currently free (`0` for a full — or offline — pool).
    pub free_slots: usize,
    /// Whether the pool is serving. Failed and parked pools read offline;
    /// committing to one sends the query to the central queue instead.
    pub online: bool,
}

impl PoolView {
    /// Queue depth as feedback schedulers see it: waiting plus in service.
    pub fn depth(&self) -> usize {
        self.in_flight + self.queued
    }
}

/// Placement policy: given an admitted query's template and the queue state
/// of every pool, pick where it goes.
pub trait Scheduler {
    /// Policy name, recorded in results.
    fn name(&self) -> String;

    /// Choose a pool able to serve `template`, or `None` to wait in the
    /// central queue (the first pool to free a capable slot then takes it,
    /// oldest first). Returning `Some(pool)` *commits* the query to that
    /// pool: it starts immediately if a slot is free and joins the pool's
    /// own queue otherwise. `draw` yields uniform `[0, 1)` variates from
    /// the run's seeded RNG — the only randomness a policy may use, so
    /// placements stay a deterministic function of `(seed, arguments)`.
    /// A pool id out of range, or a pool that cannot serve `template`, ends
    /// the run: [`simulate_serving`] returns an error naming both.
    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize>;
}

/// FCFS baseline: the first pool (in id order) with a free slot that can
/// serve the template; central queue otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsScheduler;

impl Scheduler for FcfsScheduler {
    fn name(&self) -> String {
        "fcfs".into()
    }

    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        _draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        (0..servers.len())
            .find(|&s| pools[s].online && pools[s].free_slots > 0 && servers[s].can_serve(template))
    }
}

/// Energy-aware placer: among pools with a free slot able to serve the
/// template, pick the one whose profile costs the fewest joules (ties break
/// to the lower id); central queue when none is free. This is the per-query
/// Beefy-vs-Wimpy decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyAwareScheduler;

impl Scheduler for EnergyAwareScheduler {
    fn name(&self) -> String {
        "energy-aware".into()
    }

    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        _draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (s, (server, pool)) in servers.iter().zip(pools).enumerate() {
            let Some(Some(profile)) = server.profiles.get(template) else {
                continue;
            };
            let energy = profile.energy.value();
            if pool.online
                && pool.free_slots > 0
                && best.is_none_or(|(_, cheapest)| energy.total_cmp(&cheapest).is_lt())
            {
                best = Some((s, energy));
            }
        }
        best.map(|(s, _)| s)
    }
}

/// Join-shortest-queue: commit every arrival to the capable pool with the
/// fewest queries in system (waiting + in flight; ties break to the lower
/// id). Never uses the central queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl Scheduler for JoinShortestQueue {
    fn name(&self) -> String {
        "jsq".into()
    }

    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        _draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (s, (server, pool)) in servers.iter().zip(pools).enumerate() {
            if pool.online
                && server.can_serve(template)
                && best.is_none_or(|(_, shortest)| pool.depth() < shortest)
            {
                best = Some((s, pool.depth()));
            }
        }
        best.map(|(s, _)| s)
    }
}

/// Power-of-two-choices: probe two distinct capable pools chosen uniformly
/// through the run's seeded RNG and commit to the one with fewer queries in
/// system (ties break to the lower pool id). The classic
/// Mitzenmacher/Vvedenskaya result: two random probes buy an exponential
/// improvement in queue depth over one.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowerOfTwoChoices;

impl Scheduler for PowerOfTwoChoices {
    fn name(&self) -> String {
        "po2".into()
    }

    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        let mut capable = capable(template, servers, pools);
        match capable.clone().count() {
            0 => None,
            1 => capable.next(),
            n => {
                let first = sample_below(draw(), n);
                let second = (first + 1 + sample_below(draw(), n - 1)) % n;
                let (a, b) = (capable.clone().nth(first)?, capable.nth(second)?);
                Some(if (pools[a].depth(), a) <= (pools[b].depth(), b) {
                    a
                } else {
                    b
                })
            }
        }
    }
}

/// Uniform random assignment over capable pools — the queue-blind baseline
/// power-of-two-choices is validated against.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomScheduler;

impl Scheduler for RandomScheduler {
    fn name(&self) -> String {
        "random".into()
    }

    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        let mut capable = capable(template, servers, pools);
        match capable.clone().count() {
            0 => None,
            n => capable.nth(sample_below(draw(), n)),
        }
    }
}

/// The online pools able to serve `template`, in id order. The randomized
/// policies walk it twice — once to count, once to reach the drawn pool —
/// rather than collecting it on every placement.
fn capable<'a>(
    template: usize,
    servers: &'a [ServingServer],
    pools: &'a [PoolView],
) -> impl Iterator<Item = usize> + Clone + 'a {
    servers
        .iter()
        .zip(pools)
        .enumerate()
        .filter(move |(_, (server, pool))| pool.online && server.can_serve(template))
        .map(|(s, _)| s)
}

/// Map a uniform `[0, 1)` variate onto `0..n` (clamped defensively so a
/// draw of exactly 1.0 from a foreign source cannot index out of bounds).
fn sample_below(unit: f64, n: usize) -> usize {
    ((unit * n as f64) as usize).min(n.saturating_sub(1))
}

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

    /// Fraction of arrivals lost to drops or timeouts.
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
    pub fn server_utilization(&self, server: usize) -> f64 {
        let capacity = self.makespan.value() * self.server_slots[server].max(1) as f64;
        if capacity <= f64::EPSILON {
            return 0.0;
        }
        (self.server_busy[server].value() / capacity).clamp(0.0, 1.0)
    }

    /// Time-averaged queries in system across every pool and the central
    /// queue — the queue-depth figure of merit feedback schedulers drive
    /// down.
    pub fn mean_system_depth(&self) -> f64 {
        self.pool_mean_depth.iter().sum::<f64>() + self.central_mean_depth
    }
}

#[derive(Debug, Clone, Copy)]
enum ServingEvent {
    Arrival,
    /// A dedicated slot finishes the identified query.
    Completion {
        server: usize,
        query: u64,
    },
    /// The earliest remaining-work horizon of a processor-sharing pool;
    /// stale epochs (the in-flight set changed since scheduling) are
    /// ignored.
    PsHorizon {
        server: usize,
        epoch: u64,
    },
    /// A hazard failure drawn from the fault model; stale lifecycle epochs
    /// (the pool transitioned since the draw) are ignored.
    HazardFailure {
        server: usize,
        epoch: u64,
    },
    /// A scripted outage from the fault trace (index into
    /// [`FaultModel::trace`]); ignored when the pool is already offline.
    ScriptedOutage {
        outage: usize,
    },
    /// The pool finishes repair + warm-up (or migration) and rejoins.
    PoolRestore {
        server: usize,
        epoch: u64,
    },
    /// Periodic queue-depth check of the elastic scale policy.
    ScaleCheck,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    arrival: f64,
    template: usize,
    /// Fraction of the work already checkpointed before a kill (`0.0` for a
    /// fresh arrival); service starts at the residual requirement.
    progress: f64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: u64,
    arrival: f64,
    template: usize,
    /// Remaining service requirement in solo-rate seconds (advanced lazily
    /// for processor-sharing pools; unused for dedicated slots, whose
    /// completion instants are fixed at start).
    remaining: f64,
    /// Residual service requirement drawn at start (after checkpointed
    /// progress was deducted).
    service: f64,
    /// Instant service started (kill accounting for dedicated slots).
    started: f64,
    /// Checkpointed fraction of the *original* requirement carried in from
    /// earlier kills.
    progress: f64,
}

/// Per-pool runtime state: the in-flight set, the pool's own queue, and the
/// queue-depth integrals behind [`ServingResult::pool_mean_depth`].
struct Pool {
    in_flight: Vec<InFlight>,
    queue: VecDeque<Queued>,
    /// Invalidates in-air [`ServingEvent::PsHorizon`] events.
    epoch: u64,
    /// Last instant the in-flight remaining work was advanced (PS only).
    advanced_at: f64,
    busy: f64,
    query_energy: f64,
    /// Lifecycle overhead billed to this pool: restart energy per recovery
    /// and migration energy per scale transition.
    overhead: f64,
    completed: usize,
    max_queued: usize,
    depth_integral: f64,
    depth_since: f64,
}

impl Pool {
    fn new() -> Self {
        Pool {
            in_flight: Vec::new(),
            queue: VecDeque::new(),
            epoch: 0,
            advanced_at: 0.0,
            busy: 0.0,
            query_energy: 0.0,
            overhead: 0.0,
            completed: 0,
            max_queued: 0,
            depth_integral: 0.0,
            depth_since: 0.0,
        }
    }

    /// Integrate the in-system depth up to `now` (call before any change).
    fn note_depth(&mut self, now: f64) {
        self.depth_integral +=
            (now - self.depth_since) * (self.queue.len() + self.in_flight.len()) as f64;
        self.depth_since = now;
    }

    /// Advance every in-flight query's remaining work to `now` at the
    /// equal-share rate, accruing wall busy time (PS pools only).
    fn advance_shared(&mut self, now: f64) {
        let k = self.in_flight.len();
        if k > 0 {
            let elapsed = now - self.advanced_at;
            let each = elapsed / k as f64;
            for flight in &mut self.in_flight {
                flight.remaining -= each;
            }
            self.busy += elapsed;
        }
        self.advanced_at = now;
    }

    /// Index of the in-flight query with the least remaining work (ties
    /// break to the earliest-started — the lowest index).
    fn min_remaining(&self) -> Option<usize> {
        (0..self.in_flight.len()).min_by(|&a, &b| {
            self.in_flight[a]
                .remaining
                .total_cmp(&self.in_flight[b].remaining)
                .then(a.cmp(&b))
        })
    }
}

struct ServingEngine<'a> {
    servers: &'a [ServingServer],
    scheduler: &'a mut dyn Scheduler,
    config: &'a ServingConfig,
    /// The active fault model (`None` when absent or inert — the engine
    /// then schedules no lifecycle events and consumes no extra draws).
    faults: Option<&'a FaultModel>,
    /// Per-pool lifecycle state machines (all trivially online without an
    /// active fault model).
    life: Vec<PoolLifecycle>,
    /// Cumulative Zipf weights over templates, last entry 1.0.
    template_cdf: Vec<f64>,
    /// Cursor into a trace's arrival instants.
    trace_next: usize,
    next_query_id: u64,
    pools: Vec<Pool>,
    central: VecDeque<Queued>,
    central_integral: f64,
    central_since: f64,
    arrivals: usize,
    dropped: usize,
    timed_out: usize,
    failures: usize,
    killed: usize,
    readmitted: usize,
    scale_out_events: usize,
    scale_in_events: usize,
    /// Completed-query latencies as [`order_key`]s, so the closing sort is
    /// an integer sort in place.
    latencies: Vec<u64>,
    wait_sum: f64,
    wait_count: usize,
    template_completed: Vec<usize>,
    /// The run's first error — a placement the scheduler got wrong, or a
    /// draw or schedule the kernel refused; once set, every remaining event
    /// is ignored and [`simulate_serving`] returns it.
    error: Option<SimError>,
}

impl ServingEngine<'_> {
    fn draw_template(&mut self, sim: &mut Simulation<ServingEvent>) -> usize {
        let u = sim.sample_unit();
        self.template_cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.template_cdf.len() - 1)
    }

    /// Total queries waiting anywhere — bounded by `queue_capacity`.
    fn total_waiting(&self) -> usize {
        self.central.len() + self.pools.iter().map(|p| p.queue.len()).sum::<usize>()
    }

    fn note_central_depth(&mut self, now: f64) {
        self.central_integral += (now - self.central_since) * self.central.len() as f64;
        self.central_since = now;
    }

    /// The next arrival instant strictly inside the window, advancing the
    /// process state (trace cursor / RNG stream). A rate so small that its
    /// mean gap overflows to infinity is the kernel's error.
    fn next_arrival(
        &mut self,
        now: f64,
        sim: &mut Simulation<ServingEvent>,
    ) -> Result<Option<f64>, SimError> {
        let horizon = self.config.duration.value();
        match &self.config.arrival {
            ArrivalProcess::Poisson { qps } => {
                let gap = sim.sample_exponential(1.0 / qps)?;
                Ok(Some(now + gap).filter(|&t| t < horizon))
            }
            ArrivalProcess::Trace(times) => {
                let Some(time) = times.get(self.trace_next) else {
                    return Ok(None);
                };
                self.trace_next += 1;
                // Validation pinned the instants non-decreasing, so `time`
                // never lies before the clock.
                Ok(Some(time.value()).filter(|&t| t < horizon))
            }
            ArrivalProcess::Ramp(segments) => {
                let mut t = now;
                let mut start = 0.0;
                for segment in segments {
                    let end = start + segment.duration.value();
                    if end <= t {
                        start = end;
                        continue;
                    }
                    if segment.qps > 0.0 {
                        let gap = sim.sample_exponential(1.0 / segment.qps)?;
                        let candidate = t.max(start) + gap;
                        if candidate < end {
                            return Ok(Some(candidate).filter(|&c| c < horizon));
                        }
                    }
                    // Memorylessness: restarting the draw at the boundary
                    // with the next segment's rate is exact for a
                    // piecewise-constant Poisson process.
                    t = end;
                    start = end;
                }
                Ok(None)
            }
        }
    }

    /// Start service for `query` on `server` at time `now`, priced by
    /// `server`'s `profile` for the query's template.
    fn start(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        server: usize,
        profile: ServiceProfile,
        query: Queued,
        now: f64,
    ) -> Result<(), SimError> {
        let mut service = match self.config.service {
            ServiceDistribution::Deterministic => profile.time.value(),
            ServiceDistribution::Exponential => sim.sample_exponential(profile.time.value())?,
        };
        // Checkpoint recovery: a killed query resumes at its residual
        // requirement (the guard keeps the fault-free arithmetic untouched).
        if query.progress > 0.0 {
            service *= 1.0 - query.progress;
        }
        // Energy scales with actual service requirement, so exponential
        // draws keep the profile's mean power.
        let energy = profile.energy.value() * (service / profile.time.value());
        let pool = &mut self.pools[server];
        pool.note_depth(now);
        let id = self.next_query_id;
        self.next_query_id += 1;
        self.wait_sum += now - query.arrival;
        self.wait_count += 1;
        pool.query_energy += energy;
        match self.servers[server].mode {
            ServiceMode::Dedicated => {
                pool.busy += service;
                pool.in_flight.push(InFlight {
                    id,
                    arrival: query.arrival,
                    template: query.template,
                    remaining: 0.0,
                    service,
                    started: now,
                    progress: query.progress,
                });
                // A finite service time can still carry the clock past
                // `f64::MAX`; the kernel refuses that schedule.
                sim.schedule_in(service, ServingEvent::Completion { server, query: id })?;
            }
            ServiceMode::ProcessorSharing => {
                pool.advance_shared(now);
                pool.in_flight.push(InFlight {
                    id,
                    arrival: query.arrival,
                    template: query.template,
                    remaining: service,
                    service,
                    started: now,
                    progress: query.progress,
                });
                self.reschedule_ps(sim, server)?;
            }
        }
        Ok(())
    }

    /// Re-arm the processor-sharing horizon event for `server` after its
    /// in-flight set changed (remaining work must already be advanced).
    fn reschedule_ps(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        server: usize,
    ) -> Result<(), SimError> {
        let pool = &mut self.pools[server];
        pool.epoch += 1;
        // An empty in-flight set has no horizon to arm.
        let Some(soonest) = pool.min_remaining() else {
            return Ok(());
        };
        let (k, epoch) = (pool.in_flight.len(), pool.epoch);
        // Everyone shares the rate equally, so the least remaining work
        // completes after `remaining * k` wall seconds (clamped: float
        // drift may leave a hair of negative remainder at the horizon).
        let delay = (pool.in_flight[soonest].remaining * k as f64).max(0.0);
        sim.schedule_in(delay, ServingEvent::PsHorizon { server, epoch })?;
        Ok(())
    }

    /// Record a finished query popped out of `server`'s in-flight set.
    fn complete(&mut self, done: InFlight, server: usize, now: f64) {
        self.latencies.push(order_key(now - done.arrival));
        self.template_completed[done.template] += 1;
        self.pools[server].completed += 1;
    }

    /// Remove queued entries that have outlived `max_wait`, everywhere.
    fn purge_expired(&mut self, now: f64) {
        let Some(max_wait) = self.config.max_wait else {
            return;
        };
        let horizon = now - max_wait.value();
        self.note_central_depth(now);
        let before = self.central.len();
        self.central.retain(|q| q.arrival >= horizon);
        self.timed_out += before - self.central.len();
        for pool in &mut self.pools {
            pool.note_depth(now);
            let before = pool.queue.len();
            pool.queue.retain(|q| q.arrival >= horizon);
            self.timed_out += before - pool.queue.len();
        }
    }

    /// Place an admitted query, or queue/drop it.
    fn admit(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        query: Queued,
        now: f64,
    ) -> Result<(), SimError> {
        let views: Vec<PoolView> = self
            .pools
            .iter()
            .zip(self.servers)
            .zip(&self.life)
            .map(|((pool, server), life)| {
                let online = life.online();
                PoolView {
                    in_flight: pool.in_flight.len(),
                    queued: pool.queue.len(),
                    free_slots: if online {
                        server
                            .concurrency_limit
                            .saturating_sub(pool.in_flight.len())
                    } else {
                        0
                    },
                    online,
                }
            })
            .collect();
        let placed = {
            let scheduler = &mut *self.scheduler;
            let mut draw = || sim.sample_unit();
            scheduler.place(query.template, self.servers, &views, &mut draw)
        };
        // The scheduler is caller-supplied: a pool that does not exist or
        // cannot serve the template ends the run with an error.
        let placed = placed.map(|server| {
            let profile = self
                .servers
                .get(server)
                .and_then(|s| s.profiles[query.template]);
            (server, profile)
        });
        match placed {
            Some((server, None)) => return Err(self.misplaced(server, query.template)),
            Some((server, Some(profile))) if views[server].free_slots > 0 => {
                self.start(sim, server, profile, query, now)?;
            }
            Some((server, _))
                if views[server].online && self.total_waiting() < self.config.queue_capacity =>
            {
                let pool = &mut self.pools[server];
                pool.note_depth(now);
                pool.queue.push_back(query);
                pool.max_queued = pool.max_queued.max(pool.queue.len());
            }
            // A commitment to an offline pool falls back to the central
            // queue — the first pool to free a capable slot takes it.
            Some(_) | None if self.total_waiting() < self.config.queue_capacity => {
                self.note_central_depth(now);
                self.central.push_back(query);
            }
            _ => self.dropped += 1,
        }
        Ok(())
    }

    /// The error for a placement on a pool that does not exist or cannot
    /// serve `template`.
    fn misplaced(&self, server: usize, template: usize) -> SimError {
        let pool = match self.servers.get(server) {
            Some(s) => format!("pool {server} ('{}'), which cannot serve it", s.label),
            None => format!("pool {server} of a {}-pool cluster", self.servers.len()),
        };
        SimError::invalid(format!(
            "scheduler '{}' placed template {template} on {pool}",
            self.scheduler.name()
        ))
    }

    /// Fill every free slot of `server` from its own queue first, then from
    /// the oldest capable entry of the central queue.
    fn refill(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        server: usize,
        now: f64,
    ) -> Result<(), SimError> {
        if !self.life[server].online() {
            return Ok(());
        }
        let profiles = &self.servers[server].profiles;
        while self.pools[server].in_flight.len() < self.servers[server].concurrency_limit {
            let pool = &mut self.pools[server];
            // Admission checked every own-queue entry against this pool.
            if let Some((query, profile)) = pool
                .queue
                .front()
                .and_then(|q| Some((*q, profiles[q.template]?)))
            {
                pool.note_depth(now);
                pool.queue.pop_front();
                self.start(sim, server, profile, query, now)?;
                continue;
            }
            let Some((pos, profile)) = self
                .central
                .iter()
                .enumerate()
                .find_map(|(pos, q)| Some((pos, profiles[q.template]?)))
            else {
                break;
            };
            self.note_central_depth(now);
            let Some(query) = self.central.remove(pos) else {
                break;
            };
            self.start(sim, server, profile, query, now)?;
        }
        Ok(())
    }

    /// Draw a time-to-failure for `server` from the seeded RNG and schedule
    /// the hazard event if it lands inside the arrival window (armed once
    /// per online episode, so one draw per up-transition).
    /// A rate so small that the mean overflows to infinity is the kernel's
    /// error.
    fn arm_hazard(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        server: usize,
        now: f64,
    ) -> Result<(), SimError> {
        let Some(mean) = self
            .faults
            .and_then(|model| model.hazard_mean(self.servers[server].nodes))
        else {
            return Ok(());
        };
        let at = now + sim.sample_exponential(mean)?;
        if at < self.config.duration.value() {
            let epoch = self.life[server].epoch;
            sim.schedule_at(at, ServingEvent::HazardFailure { server, epoch })?;
        }
        Ok(())
    }

    /// Take `server` down at `now`: kill its in-flight queries (dropping or
    /// re-admitting them per the recovery policy), push its own queue back
    /// through admission, bill the restart, and schedule the rejoin after
    /// `repair` unpowered seconds plus the model's warm-up time.
    fn fail_pool(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        model: &FaultModel,
        server: usize,
        repair: f64,
    ) -> Result<(), SimError> {
        let now = sim.time();
        let (recovery, restart) = (model.recovery, model.restart);
        self.failures += 1;
        let pool = &mut self.pools[server];
        pool.note_depth(now);
        if self.servers[server].mode == ServiceMode::ProcessorSharing {
            pool.advance_shared(now);
        }
        let victims = std::mem::take(&mut pool.in_flight);
        // Strand every in-air completion/horizon of the old episode.
        pool.epoch += 1;
        pool.advanced_at = now;
        let waiting: Vec<Queued> = pool.queue.drain(..).collect();
        pool.overhead += restart.energy.value();
        self.life[server].fail(now, repair);

        let mut resumed: Vec<Queued> = Vec::new();
        for victim in victims {
            // Refund the unserved remainder credited at start: busy time
            // (dedicated slots credit the full service upfront; PS busy is
            // wall-clock and already exact) and energy.
            let (done, left) = match self.servers[server].mode {
                ServiceMode::Dedicated => {
                    let done = (now - victim.started).clamp(0.0, victim.service);
                    (done, victim.service - done)
                }
                ServiceMode::ProcessorSharing => {
                    let left = victim.remaining.clamp(0.0, victim.service);
                    (victim.service - left, left)
                }
            };
            let profile = self.servers[server].profiles[victim.template].ok_or_else(|| {
                SimError::invalid(format!(
                    "pool {server} ran template {} without a profile",
                    victim.template
                ))
            })?;
            let pool = &mut self.pools[server];
            if self.servers[server].mode == ServiceMode::Dedicated {
                pool.busy -= left;
            }
            pool.query_energy -= profile.energy.value() * (left / profile.time.value());
            self.killed += 1;
            // Checkpointed progress composes across kills: the surviving
            // fraction of the residual stacks onto what was already banked.
            let fraction = recovery.surviving_fraction(Seconds(done), Seconds(victim.service));
            if !matches!(recovery, crate::faults::RecoveryPolicy::Drop) {
                self.readmitted += 1;
                resumed.push(Queued {
                    arrival: victim.arrival,
                    template: victim.template,
                    progress: victim.progress + (1.0 - victim.progress) * fraction,
                });
            }
        }
        // Waiting queries lost nothing; re-admit them first, then the
        // killed set, so relative order is preserved within each class.
        for query in waiting {
            self.admit(sim, query, now)?;
        }
        for query in resumed {
            self.admit(sim, query, now)?;
        }
        let epoch = self.life[server].epoch;
        sim.schedule_in(
            repair + restart.time.value(),
            ServingEvent::PoolRestore { server, epoch },
        )?;
        Ok(())
    }

    /// One queue-depth check of the elastic scale policy: revive a parked
    /// pool when depth builds, park an idle pool when the system drains.
    fn scale_check(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        now: f64,
    ) -> Result<(), SimError> {
        let Some(policy) = self.faults.and_then(|m| m.scale) else {
            return Ok(());
        };
        let migration = policy.migration.unwrap_or_else(TransitionCost::free);
        let depth = self.central.len()
            + self
                .pools
                .iter()
                .map(|p| p.in_flight.len() + p.queue.len())
                .sum::<usize>();
        if depth >= policy.scale_out_depth {
            if let Some(server) = (0..self.pools.len()).find(|&s| self.life[s].parked()) {
                self.life[server].unpark(now);
                self.pools[server].overhead += migration.energy.value();
                self.scale_out_events += 1;
                let epoch = self.life[server].epoch;
                sim.schedule_in(
                    migration.time.value(),
                    ServingEvent::PoolRestore { server, epoch },
                )?;
            }
        } else if depth <= policy.scale_in_depth {
            let online: Vec<usize> = (0..self.pools.len())
                .filter(|&s| self.life[s].online())
                .collect();
            if online.len() > policy.min_pools {
                let templates = self.template_cdf.len();
                // Highest-numbered idle pool whose parking leaves every
                // template at least one capable online pool.
                let candidate = online.iter().rev().copied().find(|&s| {
                    self.pools[s].in_flight.is_empty()
                        && self.pools[s].queue.is_empty()
                        && (0..templates).all(|t| {
                            !self.servers[s].can_serve(t)
                                || online
                                    .iter()
                                    .any(|&o| o != s && self.servers[o].can_serve(t))
                        })
                });
                if let Some(server) = candidate {
                    self.life[server].park(now);
                    self.pools[server].overhead += migration.energy.value();
                    self.scale_in_events += 1;
                }
            }
        }
        let next = now + policy.check_interval.value();
        if next < self.config.duration.value() {
            sim.schedule_at(next, ServingEvent::ScaleCheck)?;
        }
        Ok(())
    }

    /// React to one event; the first error ends the run.
    fn handle(
        &mut self,
        sim: &mut Simulation<ServingEvent>,
        event: ServingEvent,
    ) -> Result<(), SimError> {
        let now = sim.time();
        match event {
            ServingEvent::Arrival => {
                self.arrivals += 1;
                self.purge_expired(now);
                let template = self.draw_template(sim);
                self.admit(
                    sim,
                    Queued {
                        arrival: now,
                        template,
                        progress: 0.0,
                    },
                    now,
                )?;
                // Open loop: the next arrival is scheduled regardless of
                // service progress, but only inside the arrival window.
                if let Some(at) = self.next_arrival(now, sim)? {
                    sim.schedule_at(at, ServingEvent::Arrival)?;
                }
            }
            ServingEvent::Completion { server, query } => {
                let pool = &mut self.pools[server];
                // A miss means the query was killed by a pool failure after
                // this completion was scheduled; the kill already accounted
                // for it.
                let Some(index) = pool.in_flight.iter().position(|f| f.id == query) else {
                    return Ok(());
                };
                pool.note_depth(now);
                let done = pool.in_flight.swap_remove(index);
                self.complete(done, server, now);
                self.purge_expired(now);
                self.refill(sim, server, now)?;
            }
            ServingEvent::HazardFailure { server, epoch } => {
                let Some(model) = self.faults else {
                    return Ok(());
                };
                // Stale draws (the pool transitioned since arming) are
                // dead letters; the next up-transition re-arms.
                if self.life[server].epoch != epoch || !self.life[server].online() {
                    return Ok(());
                }
                self.fail_pool(sim, model, server, model.repair_time.value())?;
            }
            ServingEvent::ScriptedOutage { outage } => {
                let Some(model) = self.faults else {
                    return Ok(());
                };
                let outage = model.trace[outage];
                // An outage aimed at an already-offline pool is ignored.
                if self.life[outage.pool].online() {
                    self.fail_pool(sim, model, outage.pool, outage.duration.value())?;
                }
            }
            ServingEvent::PoolRestore { server, epoch } => {
                if self.life[server].epoch != epoch {
                    return Ok(());
                }
                self.life[server].restore(now);
                self.arm_hazard(sim, server, now)?;
                self.purge_expired(now);
                self.refill(sim, server, now)?;
            }
            ServingEvent::ScaleCheck => self.scale_check(sim, now)?,
            ServingEvent::PsHorizon { server, epoch } => {
                if self.pools[server].epoch != epoch {
                    return Ok(()); // Stale horizon: the in-flight set changed.
                }
                let pool = &mut self.pools[server];
                pool.note_depth(now);
                pool.advance_shared(now);
                let Some(index) = pool.min_remaining() else {
                    return Ok(());
                };
                let done = pool.in_flight.swap_remove(index);
                self.complete(done, server, now);
                self.reschedule_ps(sim, server)?;
                self.purge_expired(now);
                self.refill(sim, server, now)?;
            }
        }
        Ok(())
    }
}

impl EventHandler<ServingEvent> for ServingEngine<'_> {
    fn on_event(&mut self, sim: &mut Simulation<ServingEvent>, event: ServingEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(error) = self.handle(sim, event) {
            self.error = Some(error);
        }
    }
}

/// Run one serving simulation to completion.
///
/// Validates the inputs, schedules the first arrival, and drives the event
/// loop until the arrival window has passed and every admitted query has
/// completed (or timed out). An invalid input is an error, and so is a
/// `scheduler` placing a query on a pool that does not exist or cannot
/// serve its template, or a draw or schedule the kernel refuses mid-run (a
/// rate whose mean gap overflows to infinity, a completion past `f64::MAX`
/// seconds): the first error ends the run.
pub fn simulate_serving(
    servers: &[ServingServer],
    config: &ServingConfig,
    scheduler: &mut dyn Scheduler,
) -> Result<ServingResult, SimError> {
    if servers.is_empty() {
        return Err(SimError::invalid("serving needs at least one server"));
    }
    let templates = servers[0].profiles.len();
    if templates == 0 {
        return Err(SimError::invalid("serving needs at least one template"));
    }
    for server in servers {
        if server.profiles.len() != templates {
            return Err(SimError::invalid(format!(
                "server '{}' profiles {} templates, expected {}",
                server.label,
                server.profiles.len(),
                templates
            )));
        }
        if server.concurrency_limit == 0 {
            return Err(SimError::invalid(format!(
                "server '{}' has a zero concurrency limit",
                server.label
            )));
        }
        if server.nodes == 0 {
            return Err(SimError::invalid(format!(
                "server '{}' has a zero node count",
                server.label
            )));
        }
        for profile in server.profiles.iter().flatten() {
            if profile.time.value() <= 0.0 || !profile.time.value().is_finite() {
                return Err(SimError::invalid(format!(
                    "server '{}' has a non-positive service time",
                    server.label
                )));
            }
        }
    }
    for template in 0..templates {
        if !servers.iter().any(|s| s.can_serve(template)) {
            return Err(SimError::invalid(format!(
                "no server can serve template {template}"
            )));
        }
    }
    config.arrival.validate()?;
    let window = config.duration.value();
    if !window.is_finite() || window <= 0.0 {
        return Err(SimError::invalid(format!(
            "arrival window must be positive and finite, got {window}"
        )));
    }
    let theta = config.template_theta;
    if theta.is_nan() || theta < 0.0 {
        return Err(SimError::invalid(format!(
            "Zipf theta must be non-negative, got {theta}"
        )));
    }
    if let Some(wait) = config.max_wait.map(Seconds::value) {
        if wait.is_nan() || wait < 0.0 {
            return Err(SimError::invalid(format!(
                "max wait must be non-negative, got {wait}"
            )));
        }
    }
    if let Some(model) = &config.faults {
        model.validate(servers.len())?;
    }
    // An inert model perturbs nothing; treat it as absent so results stay
    // bit-identical to a fault-free run under the same seed.
    let faults = config.faults.as_ref().filter(|m| !m.is_inert());

    // Zipf weights: template i gets (i + 1)^-theta, normalized to a CDF.
    let weights: Vec<f64> = (0..templates)
        .map(|i| ((i + 1) as f64).powf(-config.template_theta))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let template_cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();

    let mut engine = ServingEngine {
        servers,
        scheduler,
        config,
        faults,
        life: vec![PoolLifecycle::new(); servers.len()],
        template_cdf,
        trace_next: 0,
        next_query_id: 0,
        pools: (0..servers.len()).map(|_| Pool::new()).collect(),
        central: VecDeque::new(),
        central_integral: 0.0,
        central_since: 0.0,
        arrivals: 0,
        dropped: 0,
        timed_out: 0,
        failures: 0,
        killed: 0,
        readmitted: 0,
        scale_out_events: 0,
        scale_in_events: 0,
        latencies: Vec::new(),
        wait_sum: 0.0,
        wait_count: 0,
        template_completed: vec![0; templates],
        error: None,
    };

    let mut sim: Simulation<ServingEvent> = Simulation::new(config.seed);
    if let Some(first) = engine.next_arrival(0.0, &mut sim)? {
        sim.schedule_at(first, ServingEvent::Arrival)?;
    }
    if let Some(model) = faults {
        for (index, outage) in model.trace.iter().enumerate() {
            sim.schedule_at(
                outage.at.value(),
                ServingEvent::ScriptedOutage { outage: index },
            )?;
        }
        for server in 0..servers.len() {
            engine.arm_hazard(&mut sim, server, 0.0)?;
        }
        if let Some(policy) = &model.scale {
            let first = policy.check_interval.value();
            if first < config.duration.value() {
                sim.schedule_at(first, ServingEvent::ScaleCheck)?;
            }
        }
    }
    sim.run(&mut engine);
    if let Some(error) = engine.error {
        return Err(error);
    }

    // Under fault churn a run can end with stranded waiters (every capable
    // pool parked, or a post-window outage); they count as dropped. A
    // fault-free run never strands anything.
    let end = sim.time();
    engine.note_central_depth(end);
    let mut stranded = engine.central.len();
    engine.central.clear();
    for pool in &mut engine.pools {
        pool.note_depth(end);
        stranded += pool.queue.len();
        pool.queue.clear();
    }
    debug_assert!(
        faults.is_some() || stranded == 0,
        "fault-free run ended with queued queries"
    );
    engine.dropped += stranded;
    let makespan = sim.time().max(config.duration.value());
    engine.note_central_depth(makespan);
    for pool in &mut engine.pools {
        pool.note_depth(makespan);
    }
    for life in &mut engine.life {
        life.finalize(makespan);
    }
    // Keys sort like the latencies under `total_cmp`, and equal keys are
    // equal bits, so this is the stable float sort; the collect reuses the
    // allocation.
    let mut latencies = engine.latencies;
    latencies.sort_unstable();
    let latencies: Vec<f64> = latencies.into_iter().map(from_order_key).collect();

    let server_energy: Vec<Joules> = engine
        .pools
        .iter()
        .zip(servers)
        .zip(&engine.life)
        .map(|((pool, server), life)| {
            let slots = server.slots() as f64;
            // Idle power is metered only over the powered span (repairs and
            // parked spells are unpowered); lifecycle overhead rides on top.
            let powered = makespan - life.unpowered_time();
            let idle_time = (powered * slots - pool.busy).max(0.0) / slots;
            Joules(pool.query_energy + pool.overhead) + server.idle_power * Seconds(idle_time)
        })
        .collect();
    let query_energy = Joules(engine.pools.iter().map(|p| p.query_energy).sum());
    let overhead_energy = Joules(engine.pools.iter().map(|p| p.overhead).sum());
    let energy = server_energy.iter().copied().sum::<Joules>();
    let fault_downtime: f64 = engine.life.iter().map(PoolLifecycle::fault_downtime).sum();
    let parked_time: f64 = engine.life.iter().map(PoolLifecycle::parked_time).sum();
    let availability = 1.0 - fault_downtime / (makespan * servers.len() as f64);

    Ok(ServingResult {
        scheduler: engine.scheduler.name(),
        arrival: config.arrival.kind().to_string(),
        offered_qps: config.arrival.mean_qps(config.duration),
        window: config.duration,
        makespan: Seconds(makespan),
        arrivals: engine.arrivals,
        completed: latencies.len(),
        dropped: engine.dropped,
        timed_out: engine.timed_out,
        failures: engine.failures,
        killed: engine.killed,
        readmitted: engine.readmitted,
        scale_out_events: engine.scale_out_events,
        scale_in_events: engine.scale_in_events,
        fault_downtime: Seconds(fault_downtime),
        parked_time: Seconds(parked_time),
        availability,
        latencies,
        mean_wait: Seconds(if engine.wait_count == 0 {
            0.0
        } else {
            engine.wait_sum / engine.wait_count as f64
        }),
        energy,
        query_energy,
        idle_energy: energy - query_energy - overhead_energy,
        overhead_energy,
        server_busy: engine.pools.iter().map(|p| Seconds(p.busy)).collect(),
        server_energy,
        server_queries: engine.pools.iter().map(|p| p.completed).collect(),
        server_slots: servers.iter().map(ServingServer::slots).collect(),
        pool_mean_depth: engine
            .pools
            .iter()
            .map(|p| p.depth_integral / makespan)
            .collect(),
        pool_max_queued: engine.pools.iter().map(|p| p.max_queued).collect(),
        central_mean_depth: engine.central_integral / makespan,
        template_completed: engine.template_completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{RecoveryPolicy, ScalePolicy};

    fn server(label: &str, times: &[Option<(f64, f64)>], idle_power: f64) -> ServingServer {
        ServingServer::new(
            label,
            Watts(idle_power),
            times
                .iter()
                .map(|t| {
                    t.map(|(time, energy)| ServiceProfile {
                        time: Seconds(time),
                        energy: Joules(energy),
                    })
                })
                .collect(),
        )
    }

    /// The queueing kernel against closed form. An M/M/1 queue at
    /// ρ = λ/μ = 0.8 has mean wait ρ/(μ−λ) = 4 s; the simulated mean wait
    /// must land within 5%.
    #[test]
    fn mm1_mean_wait_matches_closed_form() {
        let lambda = 0.8;
        let mu = 1.0;
        let servers = vec![server("mm1", &[Some((1.0 / mu, 100.0))], 50.0)];
        let config = ServingConfig::new(lambda, Seconds(150_000.0), 4242)
            .queue_capacity(usize::MAX)
            .exponential_service();
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert!(result.arrivals > 100_000, "arrivals {}", result.arrivals);
        assert_eq!(result.dropped, 0);
        assert_eq!(result.completed, result.arrivals);
        let rho = lambda / mu;
        let expected = rho / (mu - lambda);
        let observed = result.mean_wait.value();
        assert!(
            (observed - expected).abs() / expected < 0.05,
            "simulated mean wait {observed} vs M/M/1 closed form {expected}"
        );
        // Utilization converges to ρ as well.
        assert!((result.server_utilization(0) - rho).abs() < 0.02);
        // The central queue is where every waiting query sat; its mean
        // length converges to the M/M/1 L_q = ρ²/(1−ρ).
        let lq = rho * rho / (1.0 - rho);
        assert!(
            (result.central_mean_depth - lq).abs() / lq < 0.06,
            "central depth {} vs L_q {lq}",
            result.central_mean_depth
        );
        assert_eq!(result.arrival, "poisson");
    }

    /// Two runs with the same seed are bit-identical.
    #[test]
    fn same_seed_is_bit_identical() {
        let servers = vec![
            server("beefy", &[Some((0.5, 300.0)), Some((2.0, 1200.0))], 120.0),
            server("wimpy", &[Some((1.5, 90.0)), None], 30.0),
        ];
        let config = ServingConfig::new(1.2, Seconds(2_000.0), 99)
            .template_theta(1.0)
            .queue_capacity(16)
            .max_wait(Seconds(20.0))
            .exponential_service();
        let a = simulate_serving(&servers, &config, &mut EnergyAwareScheduler).unwrap();
        let b = simulate_serving(&servers, &config, &mut EnergyAwareScheduler).unwrap();
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        let other = ServingConfig {
            seed: 100,
            ..config
        };
        let c = simulate_serving(&servers, &other, &mut EnergyAwareScheduler).unwrap();
        assert_ne!(a.latencies, c.latencies, "different seed must differ");
    }

    #[test]
    fn saturation_fills_the_queue_and_drops() {
        let servers = vec![server("slow", &[Some((1.0, 100.0))], 50.0)];
        let config = ServingConfig::new(3.0, Seconds(500.0), 7).queue_capacity(8);
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert!(result.dropped > 0, "offered 3× capacity must drop");
        assert!(result.drop_rate() > 0.5);
        assert_eq!(
            result.completed + result.dropped + result.timed_out,
            result.arrivals
        );
        // The server never idles once saturated; throughput pins near μ.
        assert!(result.server_utilization(0) > 0.95);
        assert!((result.achieved_qps() - 1.0).abs() < 0.05);
    }

    #[test]
    fn stale_queued_queries_time_out() {
        let servers = vec![server("slow", &[Some((2.0, 100.0))], 50.0)];
        let config = ServingConfig::new(2.0, Seconds(300.0), 11)
            .queue_capacity(usize::MAX)
            .max_wait(Seconds(4.0));
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert!(result.timed_out > 0, "stale queries must time out");
        assert_eq!(result.dropped, 0, "unbounded queue never drops");
        assert_eq!(
            result.completed + result.timed_out,
            result.arrivals,
            "every arrival either completes or times out"
        );
        // Lazy expiry bounds the wait of *served* queries by max_wait plus
        // one service time (the purge runs at the next event).
        assert!(result.latencies.last().unwrap() <= &(4.0 + 2.0 + 2.0));
    }

    #[test]
    fn energy_splits_into_query_and_idle_parts() {
        let servers = vec![server("one", &[Some((1.0, 200.0))], 100.0)];
        let config = ServingConfig::new(0.1, Seconds(1_000.0), 3);
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        let busy = result.server_busy[0].value();
        assert!((busy - result.completed as f64).abs() < 1e-9, "1 s each");
        let expected_query = 200.0 * result.completed as f64;
        assert!((result.query_energy.value() - expected_query).abs() < 1e-6);
        let expected_idle = 100.0 * (result.makespan.value() - busy);
        assert!((result.idle_energy.value() - expected_idle).abs() < 1e-6);
        assert!(
            (result.energy.value() - (result.query_energy.value() + result.idle_energy.value()))
                .abs()
                < 1e-6
        );
        assert!(
            result.energy_per_query() > Joules(200.0),
            "idle power amortizes in"
        );
    }

    #[test]
    fn energy_aware_placement_prefers_the_cheaper_pool() {
        // Both pools can serve the single template; the wimpy pool is slower
        // but far cheaper per query.
        let servers = vec![
            server("beefy", &[Some((0.5, 500.0))], 200.0),
            server("wimpy", &[Some((1.0, 100.0))], 40.0),
        ];
        let config = ServingConfig::new(0.05, Seconds(20_000.0), 21);
        let fcfs = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        let aware = simulate_serving(&servers, &config, &mut EnergyAwareScheduler).unwrap();
        // At this light load the preferred server is almost always idle, so
        // FCFS runs nearly everything on the beefy pool and the energy-aware
        // placer nearly everything on the wimpy pool (the other pool only
        // catches overflow).
        assert!(fcfs.server_queries[0] > fcfs.server_queries[1] * 5);
        assert!(aware.server_queries[1] > aware.server_queries[0] * 5);
        assert!(aware.query_energy < fcfs.query_energy);
        assert_eq!(aware.scheduler, "energy-aware");
        assert_eq!(fcfs.scheduler, "fcfs");
    }

    #[test]
    fn zipf_mix_skews_toward_early_templates() {
        let profiles: Vec<Option<(f64, f64)>> = vec![Some((0.1, 10.0)); 5];
        let servers = vec![server("s", &profiles, 50.0)];
        let config = ServingConfig::new(2.0, Seconds(5_000.0), 13).template_theta(1.5);
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        let counts = &result.template_completed;
        assert!(
            counts[0] > 2 * counts[1],
            "theta=1.5 strongly favours template 0"
        );
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "monotone mix {counts:?}"
        );
        // Uniform mix spreads evenly.
        let uniform_config = ServingConfig::new(2.0, Seconds(5_000.0), 13);
        let uniform = simulate_serving(&servers, &uniform_config, &mut FcfsScheduler).unwrap();
        let max = *uniform.template_completed.iter().max().unwrap() as f64;
        let min = *uniform.template_completed.iter().min().unwrap() as f64;
        assert!(max / min < 1.2, "uniform mix stays balanced");
    }

    #[test]
    fn tail_latency_grows_with_offered_load() {
        let servers = vec![server("s", &[Some((1.0, 100.0))], 50.0)];
        let p99_at = |qps: f64| {
            let config = ServingConfig::new(qps, Seconds(5_000.0), 17)
                .queue_capacity(usize::MAX)
                .exponential_service();
            simulate_serving(&servers, &config, &mut FcfsScheduler)
                .unwrap()
                .p99()
        };
        let low = p99_at(0.3);
        let mid = p99_at(0.6);
        let high = p99_at(0.9);
        assert!(
            low < mid && mid < high,
            "p99 must grow with load: {low:?} {mid:?} {high:?}"
        );
    }

    /// A pool with `c` dedicated slots drains `c` queries at once: offered
    /// load just under `c·μ` stays stable where a single slot saturates.
    #[test]
    fn concurrency_limit_multiplies_throughput() {
        let config = ServingConfig::new(3.0, Seconds(2_000.0), 23).queue_capacity(usize::MAX);
        let single = vec![server("s1", &[Some((1.0, 100.0))], 50.0)];
        let quad = vec![server("s4", &[Some((1.0, 100.0))], 50.0).concurrency_limit(4)];
        let saturated = simulate_serving(&single, &config, &mut FcfsScheduler).unwrap();
        let pooled = simulate_serving(&quad, &config, &mut FcfsScheduler).unwrap();
        // One slot at μ=1 cannot carry 3 qps; four slots carry it easily.
        assert!(saturated.makespan.value() > 2.0 * saturated.window.value());
        assert!(
            (pooled.achieved_qps() - 3.0).abs() < 0.1,
            "{}",
            pooled.achieved_qps()
        );
        assert!(pooled.mean_wait.value() < 1.0);
        // Per-slot utilization reads ρ = λ/(cμ) = 0.75, not 3.0.
        assert!((pooled.server_utilization(0) - 0.75).abs() < 0.05);
        assert_eq!(pooled.server_slots, vec![4]);
    }

    /// Processor sharing: every in-flight query progresses at rate 1/k, so
    /// two simultaneous unit jobs both finish at t = 2.
    #[test]
    fn processor_sharing_divides_the_rate() {
        let servers = vec![server("ps", &[Some((1.0, 100.0))], 50.0)
            .concurrency_limit(8)
            .processor_sharing()];
        // Two arrivals at t = 0 and t = 0 (trace), nothing else.
        let config = ServingConfig::new(1.0, Seconds(10.0), 5)
            .arrival(ArrivalProcess::Trace(vec![Seconds(0.0), Seconds(0.0)]));
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert_eq!(result.arrivals, 2);
        assert_eq!(result.completed, 2);
        assert_eq!(result.arrival, "trace");
        // Both share the processor: each takes 2 wall seconds.
        for latency in &result.latencies {
            assert!((latency - 2.0).abs() < 1e-9, "{:?}", result.latencies);
        }
        // Wall busy time is 2 s (one shared processor), not 4.
        assert!((result.server_busy[0].value() - 2.0).abs() < 1e-9);
        assert_eq!(result.server_slots, vec![1]);
        assert_eq!(result.mean_wait, Seconds(0.0), "PS admits immediately");
    }

    #[test]
    fn trace_arrivals_replay_the_recorded_instants() {
        let servers = vec![server("s", &[Some((0.5, 10.0))], 20.0)];
        let times = vec![Seconds(0.5), Seconds(1.0), Seconds(1.0), Seconds(7.5)];
        let config =
            ServingConfig::new(1.0, Seconds(5.0), 3).arrival(ArrivalProcess::Trace(times.clone()));
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        // The 7.5 s instant lies beyond the 5 s window and is ignored.
        assert_eq!(result.arrivals, 3);
        assert_eq!(result.completed, 3);
        let expected = ArrivalProcess::Trace(times).mean_qps(Seconds(5.0));
        assert!((result.offered_qps - expected).abs() < 1e-12);
        assert!((expected - 0.6).abs() < 1e-12);
        // Replays are deterministic even without RNG draws.
        let again = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert_eq!(result, again);
    }

    #[test]
    fn ramp_arrivals_follow_the_piecewise_rates() {
        let servers = vec![server("s", &[Some((0.01, 1.0))], 10.0).concurrency_limit(64)];
        // Quiet night, busy day, quiet evening.
        let ramp = ArrivalProcess::Ramp(vec![
            RampSegment {
                duration: Seconds(1_000.0),
                qps: 0.1,
            },
            RampSegment {
                duration: Seconds(1_000.0),
                qps: 5.0,
            },
            RampSegment {
                duration: Seconds(1_000.0),
                qps: 0.1,
            },
        ]);
        let config = ServingConfig::new(1.0, Seconds(3_000.0), 11)
            .arrival(ramp.clone())
            .queue_capacity(usize::MAX);
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert_eq!(result.arrival, "ramp");
        // Mean offered rate: (100 + 5000 + 100) / 3000 ≈ 1.733.
        assert!((result.offered_qps - 5_200.0 / 3_000.0).abs() < 1e-9);
        let expected = 5_200.0;
        let got = result.arrivals as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "arrivals {got} vs expected {expected}"
        );
        // The day segment dominates: most completions land inside it.
        let day_share = result.latencies.len() as f64;
        assert!(day_share > 0.0);
        // Window truncation: a ramp shorter than the window stops arriving.
        let short = ServingConfig::new(1.0, Seconds(10_000.0), 11)
            .arrival(ArrivalProcess::Ramp(vec![RampSegment {
                duration: Seconds(100.0),
                qps: 2.0,
            }]))
            .queue_capacity(usize::MAX);
        let truncated = simulate_serving(&servers, &short, &mut FcfsScheduler).unwrap();
        assert!(
            (truncated.arrivals as f64 - 200.0).abs() < 60.0,
            "{}",
            truncated.arrivals
        );
    }

    #[test]
    fn jsq_balances_where_random_piles_up() {
        let profiles: Vec<Option<(f64, f64)>> = vec![Some((1.0, 10.0))];
        let servers: Vec<ServingServer> = (0..4)
            .map(|i| server(&format!("s{i}"), &profiles, 10.0))
            .collect();
        let config = ServingConfig::new(3.2, Seconds(10_000.0), 31)
            .queue_capacity(usize::MAX)
            .exponential_service();
        let jsq = simulate_serving(&servers, &config, &mut JoinShortestQueue).unwrap();
        let random = simulate_serving(&servers, &config, &mut RandomScheduler).unwrap();
        assert_eq!(jsq.scheduler, "jsq");
        assert_eq!(random.scheduler, "random");
        assert_eq!(jsq.completed + jsq.timed_out + jsq.dropped, jsq.arrivals);
        // Queue-state feedback beats blind assignment on depth and tail.
        assert!(
            jsq.mean_system_depth() < random.mean_system_depth(),
            "jsq {} vs random {}",
            jsq.mean_system_depth(),
            random.mean_system_depth()
        );
        assert!(jsq.p99() < random.p99());
        // JSQ commits to pool queues; the central queue stays empty.
        assert_eq!(jsq.central_mean_depth, 0.0);
        assert!(jsq.pool_mean_depth.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn po2_respects_capability_and_stays_deterministic() {
        // Template 1 fits only pool 0; po2 must never probe it onto pool 1.
        let servers = vec![
            server("both", &[Some((0.5, 10.0)), Some((0.5, 10.0))], 10.0),
            server("only0", &[Some((0.5, 10.0)), None], 10.0),
        ];
        let config = ServingConfig::new(1.5, Seconds(4_000.0), 41).queue_capacity(usize::MAX);
        let a = simulate_serving(&servers, &config, &mut PowerOfTwoChoices).unwrap();
        let b = simulate_serving(&servers, &config, &mut PowerOfTwoChoices).unwrap();
        assert_eq!(a, b, "po2 draws come from the seeded kernel RNG");
        assert_eq!(a.scheduler, "po2");
        assert_eq!(a.completed + a.timed_out + a.dropped, a.arrivals);
        // Template 1 completions all ran somewhere capable (pool 0), and
        // pool 1 still served plenty of template 0.
        assert!(a.template_completed[1] > 0);
        assert!(a.server_queries[1] > 0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let result = ServingResult {
            scheduler: "fcfs".into(),
            arrival: "poisson".into(),
            offered_qps: 1.0,
            window: Seconds(1.0),
            makespan: Seconds(1.0),
            arrivals: 4,
            completed: 4,
            dropped: 0,
            timed_out: 0,
            failures: 0,
            killed: 0,
            readmitted: 0,
            scale_out_events: 0,
            scale_in_events: 0,
            fault_downtime: Seconds(0.0),
            parked_time: Seconds(0.0),
            availability: 1.0,
            latencies: vec![1.0, 2.0, 3.0, 4.0],
            mean_wait: Seconds(0.0),
            energy: Joules(0.0),
            query_energy: Joules(0.0),
            idle_energy: Joules(0.0),
            overhead_energy: Joules(0.0),
            server_busy: vec![Seconds(0.0)],
            server_energy: vec![Joules(0.0)],
            server_queries: vec![4],
            server_slots: vec![1],
            pool_mean_depth: vec![0.0],
            pool_max_queued: vec![0],
            central_mean_depth: 0.0,
            template_completed: vec![4],
        };
        assert_eq!(result.p50(), Seconds(2.0));
        assert_eq!(result.p95(), Seconds(4.0));
        assert_eq!(result.p99(), Seconds(4.0));
        assert_eq!(result.latency_percentile(1.0), Seconds(1.0));
        assert_eq!(result.mean_latency(), Seconds(2.5));
        // The edge cases are pinned, not caller-disciplined: p = 0 is the
        // minimum, p = 100 the maximum, out-of-range and NaN inputs clamp.
        assert_eq!(result.latency_percentile(0.0), Seconds(1.0));
        assert_eq!(result.latency_percentile(100.0), Seconds(4.0));
        assert_eq!(result.latency_percentile(-5.0), Seconds(1.0));
        assert_eq!(result.latency_percentile(250.0), Seconds(4.0));
        assert_eq!(result.latency_percentile(f64::NAN), Seconds(1.0));
        assert_eq!(result.latency_percentile(f64::INFINITY), Seconds(4.0));
        assert_eq!(result.latency_percentile(f64::NEG_INFINITY), Seconds(1.0));
        // A single-sample run returns that sample at every percentile.
        let single = ServingResult {
            latencies: vec![7.0],
            completed: 1,
            ..result.clone()
        };
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(single.latency_percentile(p), Seconds(7.0));
        }
        // An empty run returns a defined zero for every percentile.
        let empty = ServingResult {
            latencies: Vec::new(),
            completed: 0,
            ..result
        };
        for p in [0.0, 50.0, 99.0, 100.0, f64::NAN] {
            assert_eq!(empty.latency_percentile(p), Seconds::zero());
        }
        assert_eq!(empty.p99(), Seconds::zero());
        assert_eq!(empty.mean_latency(), Seconds::zero());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let ok = vec![server("s", &[Some((1.0, 1.0))], 1.0)];
        let config = ServingConfig::new(1.0, Seconds(10.0), 1);
        assert!(simulate_serving(&[], &config, &mut FcfsScheduler).is_err());
        let no_templates = vec![server("s", &[], 1.0)];
        assert!(simulate_serving(&no_templates, &config, &mut FcfsScheduler).is_err());
        let unservable = vec![server("s", &[Some((1.0, 1.0)), None], 1.0)];
        assert!(simulate_serving(&unservable, &config, &mut FcfsScheduler).is_err());
        let ragged = vec![
            server("a", &[Some((1.0, 1.0))], 1.0),
            server("b", &[Some((1.0, 1.0)), Some((1.0, 1.0))], 1.0),
        ];
        assert!(simulate_serving(&ragged, &config, &mut FcfsScheduler).is_err());
        let zero_time = vec![server("s", &[Some((0.0, 1.0))], 1.0)];
        assert!(simulate_serving(&zero_time, &config, &mut FcfsScheduler).is_err());
        let zero_limit = vec![server("s", &[Some((1.0, 1.0))], 1.0).concurrency_limit(0)];
        assert!(simulate_serving(&zero_limit, &config, &mut FcfsScheduler).is_err());
        let bad_qps = ServingConfig::new(0.0, Seconds(10.0), 1);
        assert!(simulate_serving(&ok, &bad_qps, &mut FcfsScheduler).is_err());
        let bad_duration = ServingConfig::new(1.0, Seconds(0.0), 1);
        assert!(simulate_serving(&ok, &bad_duration, &mut FcfsScheduler).is_err());
        let bad_theta = ServingConfig::new(1.0, Seconds(10.0), 1).template_theta(-1.0);
        assert!(simulate_serving(&ok, &bad_theta, &mut FcfsScheduler).is_err());
        // Arrival-process validation.
        let bad_trace = config
            .clone()
            .arrival(ArrivalProcess::Trace(vec![Seconds(2.0), Seconds(1.0)]));
        assert!(simulate_serving(&ok, &bad_trace, &mut FcfsScheduler).is_err());
        let nan_trace = config
            .clone()
            .arrival(ArrivalProcess::Trace(vec![Seconds(f64::NAN)]));
        assert!(simulate_serving(&ok, &nan_trace, &mut FcfsScheduler).is_err());
        let empty_ramp = config.clone().arrival(ArrivalProcess::Ramp(Vec::new()));
        assert!(simulate_serving(&ok, &empty_ramp, &mut FcfsScheduler).is_err());
        let bad_ramp = config
            .clone()
            .arrival(ArrivalProcess::Ramp(vec![RampSegment {
                duration: Seconds(0.0),
                qps: 1.0,
            }]));
        assert!(simulate_serving(&ok, &bad_ramp, &mut FcfsScheduler).is_err());
        let bad_rate = config.arrival(ArrivalProcess::Ramp(vec![RampSegment {
            duration: Seconds(1.0),
            qps: -2.0,
        }]));
        assert!(simulate_serving(&ok, &bad_rate, &mut FcfsScheduler).is_err());
        // An empty trace is a valid no-arrival run, not an error.
        let quiet =
            ServingConfig::new(1.0, Seconds(10.0), 1).arrival(ArrivalProcess::Trace(Vec::new()));
        let result = simulate_serving(&ok, &quiet, &mut FcfsScheduler).unwrap();
        assert_eq!(result.arrivals, 0);
        assert_eq!(result.makespan, Seconds(10.0));
        assert_eq!(result.p99(), Seconds::zero());
        // Fault-model validation runs through the same gate.
        let bad_faults = ServingConfig::new(1.0, Seconds(10.0), 1).faults(FaultModel::new(-1.0));
        assert!(simulate_serving(&ok, &bad_faults, &mut FcfsScheduler).is_err());
        let bad_pool = ServingConfig::new(1.0, Seconds(10.0), 1)
            .faults(FaultModel::new(0.0).outage(3, Seconds(1.0), Seconds(1.0)));
        assert!(simulate_serving(&ok, &bad_pool, &mut FcfsScheduler).is_err());
        let zero_nodes = vec![server("s", &[Some((1.0, 1.0))], 1.0).nodes(0)];
        let plain = ServingConfig::new(1.0, Seconds(10.0), 1);
        assert!(simulate_serving(&zero_nodes, &plain, &mut FcfsScheduler).is_err());
        // Windows, theta and max_wait: NaN and the unbounded window are
        // refused up front; an infinite theta (all weight on template 0) and
        // an infinite max_wait (no timeouts) stay legal.
        for window in [f64::NAN, f64::INFINITY] {
            let bad_window = ServingConfig::new(1.0, Seconds(window), 1);
            assert!(simulate_serving(&ok, &bad_window, &mut FcfsScheduler).is_err());
        }
        let nan_theta = plain.clone().template_theta(f64::NAN);
        assert!(simulate_serving(&ok, &nan_theta, &mut FcfsScheduler).is_err());
        for wait in [f64::NAN, -1.0] {
            let bad_wait = plain.clone().max_wait(Seconds(wait));
            assert!(simulate_serving(&ok, &bad_wait, &mut FcfsScheduler).is_err());
        }
        let lenient = plain
            .clone()
            .template_theta(f64::INFINITY)
            .max_wait(Seconds(f64::INFINITY));
        assert!(simulate_serving(&ok, &lenient, &mut FcfsScheduler).is_ok());
        // Inputs that pass validation but that the kernel refuses mid-run:
        // the run ends with the kernel's reason instead of a panic.
        let kernel_refuses = |servers: &[ServingServer], config: &ServingConfig, reason: &str| {
            let error = simulate_serving(servers, config, &mut FcfsScheduler)
                .expect_err("the kernel refuses this run");
            assert!(error.to_string().contains(reason), "{error}");
        };
        // A rate whose mean gap overflows to infinity.
        let mean = "exponential mean must be finite";
        kernel_refuses(&ok, &ServingConfig::new(1e-310, Seconds(10.0), 1), mean);
        let slow_ramp = plain
            .clone()
            .arrival(ArrivalProcess::Ramp(vec![RampSegment {
                duration: Seconds(10.0),
                qps: 1e-310,
            }]));
        kernel_refuses(&ok, &slow_ramp, mean);
        let rare_faults = plain.clone().faults(FaultModel::new(1e-320));
        kernel_refuses(&ok, &rare_faults, mean);
        // A finite service time whose second completion overflows the clock.
        let endless = vec![server("s", &[Some((1.7e308, 1.0))], 1.0)];
        kernel_refuses(&endless, &plain, "keep the clock");
    }

    /// `arrivals = completed + dropped + timed_out + (killed − readmitted)`
    /// — every query is accounted for exactly once.
    fn assert_conserves(result: &ServingResult) {
        assert!(result.readmitted <= result.killed);
        assert_eq!(
            result.completed
                + result.dropped
                + result.timed_out
                + (result.killed - result.readmitted),
            result.arrivals,
            "conservation violated: {result:?}"
        );
    }

    /// An inert fault model schedules no events and consumes no RNG draws:
    /// the run is bit-identical to one with no model at all.
    #[test]
    fn inert_fault_model_is_bit_identical() {
        let servers = vec![
            server("beefy", &[Some((0.5, 300.0)), Some((2.0, 1200.0))], 120.0),
            server("wimpy", &[Some((1.5, 90.0)), None], 30.0).nodes(4),
        ];
        let config = ServingConfig::new(1.2, Seconds(2_000.0), 99)
            .template_theta(1.0)
            .queue_capacity(16)
            .max_wait(Seconds(20.0))
            .exponential_service();
        let bare = simulate_serving(&servers, &config, &mut EnergyAwareScheduler).unwrap();
        let inert = config.clone().faults(FaultModel::new(0.0));
        let faulted = simulate_serving(&servers, &inert, &mut EnergyAwareScheduler).unwrap();
        assert_eq!(bare, faulted, "a zero-rate model must not perturb the run");
        assert_eq!(faulted.availability, 1.0);
        assert_eq!(faulted.failures, 0);
        assert_eq!(faulted.overhead_energy, Joules(0.0));
    }

    /// A scripted outage mid-query kills it; replay recovery redoes the
    /// whole query after repair + warm-up, with the restart billed and the
    /// unpowered repair span unmetered.
    #[test]
    fn scripted_outage_kills_and_replays() {
        let servers = vec![server("s", &[Some((10.0, 100.0))], 50.0)];
        let model = FaultModel::scripted(Vec::new())
            .outage(0, Seconds(5.0), Seconds(2.0))
            .restart_cost(TransitionCost {
                time: Seconds(1.0),
                energy: Joules(500.0),
            });
        let config = ServingConfig::new(1.0, Seconds(10.0), 1)
            .arrival(ArrivalProcess::Trace(vec![Seconds(0.0)]))
            .faults(model);
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert_eq!(result.arrivals, 1);
        assert_eq!(result.failures, 1);
        assert_eq!(result.killed, 1);
        assert_eq!(result.readmitted, 1);
        assert_eq!(result.completed, 1);
        assert_conserves(&result);
        // Killed at t=5, offline until t=8 (2 s repair + 1 s warm-up),
        // replayed from scratch: completion at t=18.
        assert!((result.latencies[0] - 18.0).abs() < 1e-9);
        assert_eq!(result.makespan, Seconds(18.0));
        assert_eq!(result.fault_downtime, Seconds(3.0));
        assert!((result.availability - (1.0 - 3.0 / 18.0)).abs() < 1e-12);
        // Busy: 5 s of wasted partial work plus the 10 s replay.
        assert!((result.server_busy[0].value() - 15.0).abs() < 1e-9);
        // Energy: 150 J of query work (half the first attempt refunded),
        // 500 J restart, idle power over the powered non-busy second only.
        assert!((result.query_energy.value() - 150.0).abs() < 1e-9);
        assert_eq!(result.overhead_energy, Joules(500.0));
        assert!((result.idle_energy.value() - 50.0).abs() < 1e-9);
        assert!((result.energy.value() - 700.0).abs() < 1e-9);
    }

    /// Checkpoint recovery resumes from the last whole interval instead of
    /// replaying from scratch: less redone work, lower latency and energy.
    #[test]
    fn checkpoint_recovery_redoes_less_than_replay() {
        let servers = vec![server("s", &[Some((10.0, 100.0))], 50.0)];
        let scenario = |recovery: RecoveryPolicy| {
            let model = FaultModel::scripted(Vec::new())
                .outage(0, Seconds(5.0), Seconds(2.0))
                .restart_cost(TransitionCost {
                    time: Seconds(1.0),
                    energy: Joules(500.0),
                })
                .recovery(recovery);
            let config = ServingConfig::new(1.0, Seconds(10.0), 1)
                .arrival(ArrivalProcess::Trace(vec![Seconds(0.0)]))
                .faults(model);
            simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap()
        };
        let replay = scenario(RecoveryPolicy::Replay);
        let checkpoint = scenario(RecoveryPolicy::Checkpoint {
            interval: Seconds(2.0),
        });
        // 5 s done at a 2 s cadence banks 4 s: the resume needs 6 s, so the
        // query finishes at t = 8 + 6 = 14 against replay's 18.
        assert!((checkpoint.latencies[0] - 14.0).abs() < 1e-9);
        assert!((replay.latencies[0] - 18.0).abs() < 1e-9);
        assert!(checkpoint.query_energy < replay.query_energy);
        assert_conserves(&checkpoint);
        assert_conserves(&replay);
    }

    /// Drop recovery forfeits killed queries; the conservation invariant
    /// books them as killed-not-readmitted.
    #[test]
    fn drop_recovery_loses_killed_queries() {
        let servers = vec![server("s", &[Some((10.0, 100.0))], 50.0)];
        let model = FaultModel::scripted(Vec::new())
            .outage(0, Seconds(5.0), Seconds(2.0))
            .recovery(RecoveryPolicy::Drop);
        let config = ServingConfig::new(1.0, Seconds(10.0), 1)
            .arrival(ArrivalProcess::Trace(vec![Seconds(0.0)]))
            .faults(model);
        let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
        assert_eq!(result.killed, 1);
        assert_eq!(result.readmitted, 0);
        assert_eq!(result.completed, 0);
        assert_conserves(&result);
        // The wasted partial work still burned energy (5 s of a 10 s / 100 J
        // profile), but the unserved remainder was refunded.
        assert!((result.query_energy.value() - 50.0).abs() < 1e-9);
    }

    /// Hazard failures drawn from the seeded RNG dent availability, conserve
    /// queries, and stay bit-reproducible.
    #[test]
    fn hazard_failures_reduce_availability() {
        let servers = vec![
            server("beefy", &[Some((0.5, 300.0)), Some((2.0, 1200.0))], 120.0).nodes(4),
            server("wimpy", &[Some((1.5, 90.0)), None], 30.0).nodes(16),
        ];
        let model = FaultModel::new(2.0)
            .repair_time(Seconds(30.0))
            .restart_cost(TransitionCost {
                time: Seconds(5.0),
                energy: Joules(1_000.0),
            });
        let config = ServingConfig::new(1.2, Seconds(2_000.0), 99)
            .template_theta(1.0)
            .queue_capacity(64)
            .faults(model);
        let a = simulate_serving(&servers, &config, &mut JoinShortestQueue).unwrap();
        let b = simulate_serving(&servers, &config, &mut JoinShortestQueue).unwrap();
        assert_eq!(a, b, "fault draws come from the seeded kernel RNG");
        assert!(a.failures > 0, "2 failures/node-hour over 20 node-hours");
        assert!(a.killed > 0);
        assert!(a.availability < 1.0);
        assert!(a.fault_downtime.value() > 0.0);
        assert!(a.overhead_energy.value() >= a.failures as f64 * 1_000.0);
        assert_conserves(&a);
        // Churn shows up in the tail: the same stream without faults has a
        // strictly better p99.
        let calm = ServingConfig {
            faults: None,
            ..config
        };
        let baseline = simulate_serving(&servers, &calm, &mut JoinShortestQueue).unwrap();
        assert!(a.p99() > baseline.p99(), "churn must inflate the tail");
    }

    /// The scale policy parks an idle pool through the quiet spell and
    /// revives it for the burst, saving idle energy net of migration costs.
    #[test]
    fn scale_policy_parks_and_revives() {
        let profiles: Vec<Option<(f64, f64)>> = vec![Some((1.0, 10.0))];
        let servers: Vec<ServingServer> = (0..2)
            .map(|i| server(&format!("s{i}"), &profiles, 100.0).concurrency_limit(4))
            .collect();
        // A quiet night then a burst near two-pool capacity.
        let ramp = ArrivalProcess::Ramp(vec![
            RampSegment {
                duration: Seconds(500.0),
                qps: 0.05,
            },
            RampSegment {
                duration: Seconds(500.0),
                qps: 6.0,
            },
        ]);
        let policy = ScalePolicy::new(6, 1, Seconds(10.0))
            .min_pools(1)
            .migration_cost(TransitionCost {
                time: Seconds(5.0),
                energy: Joules(200.0),
            });
        let config = ServingConfig::new(1.0, Seconds(1_000.0), 7)
            .arrival(ramp)
            .queue_capacity(usize::MAX)
            .faults(FaultModel::new(0.0).scale(policy));
        let scaled = simulate_serving(&servers, &config, &mut JoinShortestQueue).unwrap();
        assert!(scaled.scale_in_events >= 1, "the quiet spell parks a pool");
        assert!(scaled.scale_out_events >= 1, "the burst revives it");
        assert!(scaled.parked_time.value() > 0.0);
        assert_eq!(scaled.failures, 0);
        assert_eq!(
            scaled.availability, 1.0,
            "deliberate parking is not unavailability"
        );
        assert!(scaled.overhead_energy.value() > 0.0);
        assert_conserves(&scaled);
        // Parking beats idling: the saved idle power dwarfs the migration
        // bills at these spans.
        let always_on = ServingConfig {
            faults: None,
            ..config
        };
        let baseline = simulate_serving(&servers, &always_on, &mut JoinShortestQueue).unwrap();
        assert!(
            scaled.energy < baseline.energy,
            "scaled {:?} vs always-on {:?}",
            scaled.energy,
            baseline.energy
        );
        assert_conserves(&baseline);
    }
}
