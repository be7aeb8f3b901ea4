//! What a serving run is given: per-template service profiles, the pools
//! that serve them, the arrival law and the run's configuration, each with
//! the input checks `simulate_serving` runs before the first event.

use crate::faults::FaultModel;
use eedc_simkit::error::SimError;
use eedc_simkit::units::{Joules, Seconds, Watts};

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

    /// Check the pool against a `templates`-template mix: one profile slot
    /// per template, a non-zero concurrency limit and node count, and
    /// finite, non-negative idle power, service times and query energies.
    pub(super) fn validate(&self, templates: usize) -> Result<(), SimError> {
        if self.profiles.len() != templates {
            return Err(SimError::invalid(format!(
                "server '{}' profiles {} templates, expected {}",
                self.label,
                self.profiles.len(),
                templates
            )));
        }
        if self.concurrency_limit == 0 {
            return Err(SimError::invalid(format!(
                "server '{}' has a zero concurrency limit",
                self.label
            )));
        }
        if self.nodes == 0 {
            return Err(SimError::invalid(format!(
                "server '{}' has a zero node count",
                self.label
            )));
        }
        let idle = self.idle_power.value();
        if !idle.is_finite() || idle < 0.0 {
            return Err(SimError::invalid(format!(
                "server '{}' has idle power {idle}; it must be finite and non-negative",
                self.label
            )));
        }
        for profile in self.profiles.iter().flatten() {
            if profile.time.value() <= 0.0 || !profile.time.value().is_finite() {
                return Err(SimError::invalid(format!(
                    "server '{}' has a non-positive service time",
                    self.label
                )));
            }
            let energy = profile.energy.value();
            if !energy.is_finite() || energy < 0.0 {
                return Err(SimError::invalid(format!(
                    "server '{}' has query energy {energy}; it must be finite and non-negative",
                    self.label
                )));
            }
        }
        Ok(())
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

/// The open-loop arrival law: constant-rate Poisson gaps, a replayed trace,
/// or a piecewise-rate ramp (the `dslab-faas` trace shape).
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

    /// Check a run of this configuration on `servers`: at least one server
    /// and one template, every server valid and every template servable,
    /// then the arrival law, window, Zipf skew, wait bound and fault model —
    /// in that order, so the first broken input names the error.
    pub(super) fn validate(&self, servers: &[ServingServer]) -> Result<(), SimError> {
        if servers.is_empty() {
            return Err(SimError::invalid("serving needs at least one server"));
        }
        let templates = servers[0].profiles.len();
        if templates == 0 {
            return Err(SimError::invalid("serving needs at least one template"));
        }
        for server in servers {
            server.validate(templates)?;
        }
        for template in 0..templates {
            if !servers.iter().any(|s| s.can_serve(template)) {
                return Err(SimError::invalid(format!(
                    "no server can serve template {template}"
                )));
            }
        }
        self.arrival.validate()?;
        let window = self.duration.value();
        if !window.is_finite() || window <= 0.0 {
            return Err(SimError::invalid(format!(
                "arrival window must be positive and finite, got {window}"
            )));
        }
        let theta = self.template_theta;
        if theta.is_nan() || theta < 0.0 {
            return Err(SimError::invalid(format!(
                "Zipf theta must be non-negative, got {theta}"
            )));
        }
        if let Some(wait) = self.max_wait.map(Seconds::value) {
            if wait.is_nan() || wait < 0.0 {
                return Err(SimError::invalid(format!(
                    "max wait must be non-negative, got {wait}"
                )));
            }
        }
        if let Some(model) = &self.faults {
            model.validate(servers.len())?;
        }
        Ok(())
    }
}
