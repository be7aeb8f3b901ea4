//! Fault injection and cluster lifecycle for the serving simulator.
//!
//! The serving layer of [`crate::serving`] assumes every pool survives every
//! query. At production scale that assumption is the first casualty: nodes
//! fail mid-query, repairs and warm-ups burn time and energy, and an elastic
//! cluster parks and revives whole pools as load moves. This module is the
//! *model* of that churn — the serving engine consumes it and schedules the
//! actual node-down / node-up events:
//!
//! * [`FaultModel`] — a per-node-hour failure rate (hazard failures drawn
//!   from the simulation's single seeded RNG, so runs stay bit-reproducible)
//!   plus a deterministic scripted fault trace ([`FaultOutage`]) for
//!   what-if scenarios ("pool 1 dies at noon for ten minutes").
//! * [`RecoveryPolicy`] — what happens to the queries a failure kills:
//!   dropped, replayed from the start, or resumed from the last checkpoint
//!   (the serving-layer analogue of the DBMS-X
//!   [`RestartPolicy`](crate::engines::RestartPolicy) redo fraction).
//! * [`ScalePolicy`] — queue-depth-triggered elastic scale-out/in, parking
//!   pools when the system drains and reviving them when depth builds, with
//!   data movement billed per transition.
//! * [`PoolLifecycle`] — the per-pool state machine the engine drives
//!   (online / failed / parked / migrating), accruing the unpowered time,
//!   fault downtime, and parked time behind the availability and idle-energy
//!   accounting.
//!
//! Determinism: scripted outages and scale checks are fixed instants;
//! hazard failures are the only random element and draw exponential
//! time-to-failure variates from the kernel RNG in a fixed order, so a
//! given `(servers, config, scheduler)` triple still reproduces
//! bit-identically — and a model with zero hazard rate, no trace, and no
//! scale policy ([`FaultModel::is_inert`]) consumes no draws at all.

use eedc_simkit::error::SimError;
use eedc_simkit::units::{Joules, Seconds};

/// One scripted outage in a deterministic fault trace: `pool` goes down at
/// `at` and stays unpowered for `duration` (warm-up time is charged on top,
/// per [`FaultModel::restart`]). An outage aimed at a pool that is already
/// offline is ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultOutage {
    /// Pool (server index) the outage hits.
    pub pool: usize,
    /// Instant the pool fails.
    pub at: Seconds,
    /// Unpowered repair span before warm-up begins.
    pub duration: Seconds,
}

/// What happens to the in-flight queries a pool failure kills.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryPolicy {
    /// Killed queries are lost (counted, never re-admitted).
    Drop,
    /// Killed queries re-enter admission and replay from the start — the
    /// serving-layer analogue of a DBMS-X
    /// [`RestartPolicy`](crate::engines::RestartPolicy) with redo fraction 1.
    #[default]
    Replay,
    /// Killed queries re-enter admission and resume from their last
    /// checkpoint: work completes in `interval`-sized increments, and only
    /// the partial increment past the last checkpoint is redone.
    Checkpoint {
        /// Checkpoint cadence in service-seconds of the running query.
        interval: Seconds,
    },
}

impl RecoveryPolicy {
    /// Fraction of a killed query's work that survives, given how much
    /// service it had received (`done`) out of its total requirement
    /// (`service`), both in the killed pool's service-seconds. The survivor
    /// fraction is re-applied against the *next* pool's own service time, so
    /// progress is portable across heterogeneous pools.
    pub fn surviving_fraction(&self, done: Seconds, service: Seconds) -> f64 {
        let service = service.value();
        if service <= 0.0 {
            return 0.0;
        }
        match self {
            RecoveryPolicy::Drop | RecoveryPolicy::Replay => 0.0,
            RecoveryPolicy::Checkpoint { interval } => {
                let interval = interval.value();
                let done = done.value().clamp(0.0, service);
                let checkpointed = (done / interval).floor() * interval;
                (checkpointed / service).clamp(0.0, 1.0)
            }
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if let RecoveryPolicy::Checkpoint { interval } = self {
            let i = interval.value();
            if !i.is_finite() || i <= 0.0 {
                return Err(SimError::invalid(format!(
                    "checkpoint interval must be positive, got {i}"
                )));
            }
        }
        Ok(())
    }
}

/// Fixed cost of one pool lifecycle transition: wall time the pool spends
/// powered but not serving, and the energy billed to the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionCost {
    /// Powered-but-offline span (warm-up after a repair, data movement
    /// after a scale-out decision).
    pub time: Seconds,
    /// Energy billed per transition (restart or repartitioning cost).
    pub energy: Joules,
}

impl TransitionCost {
    /// A zero-cost transition.
    pub fn free() -> Self {
        TransitionCost {
            time: Seconds::zero(),
            energy: Joules(0.0),
        }
    }

    fn validate(&self, what: &str) -> Result<(), SimError> {
        let (t, e) = (self.time.value(), self.energy.value());
        if !t.is_finite() || t < 0.0 {
            return Err(SimError::invalid(format!(
                "{what} time must be finite and non-negative, got {t}"
            )));
        }
        if !e.is_finite() || e < 0.0 {
            return Err(SimError::invalid(format!(
                "{what} energy must be finite and non-negative, got {e}"
            )));
        }
        Ok(())
    }
}

/// Queue-depth-triggered elastic scaling. Every `check_interval` the engine
/// compares the total queries in system against the two thresholds: at or
/// above `scale_out_depth` it revives the lowest-numbered parked pool (online
/// after `migration.time`, billing `migration.energy`); at or below
/// `scale_in_depth` it parks the highest-numbered idle pool, as long as more
/// than `min_pools` stay online and no template loses its last capable pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePolicy {
    /// Queries in system at or above which a parked pool is revived.
    pub scale_out_depth: usize,
    /// Queries in system at or below which an idle pool is parked.
    pub scale_in_depth: usize,
    /// Cadence of the depth check.
    pub check_interval: Seconds,
    /// Pools that must always stay online.
    pub min_pools: usize,
    /// Data-movement cost per scale transition. `None` asks the caller
    /// (the `eedc-core` serving lens) to derive it from the port-volume
    /// model: repartitioning the working set across the cluster's NICs.
    pub migration: Option<TransitionCost>,
}

impl ScalePolicy {
    /// A hysteresis policy: scale out at or above `out_depth` queries in
    /// system, scale in at or below `in_depth`, checking every `interval`.
    pub fn new(out_depth: usize, in_depth: usize, interval: Seconds) -> Self {
        ScalePolicy {
            scale_out_depth: out_depth,
            scale_in_depth: in_depth,
            check_interval: interval,
            min_pools: 1,
            migration: None,
        }
    }

    /// Keep at least `min` pools online whatever the depth says.
    pub fn min_pools(mut self, min: usize) -> Self {
        self.min_pools = min;
        self
    }

    /// Bill each scale transition a fixed data-movement cost instead of the
    /// port-volume-derived default.
    pub fn migration_cost(mut self, cost: TransitionCost) -> Self {
        self.migration = Some(cost);
        self
    }

    fn validate(&self, pool_count: usize) -> Result<(), SimError> {
        if self.scale_out_depth <= self.scale_in_depth {
            return Err(SimError::invalid(format!(
                "scale-out depth {} must exceed scale-in depth {} (hysteresis)",
                self.scale_out_depth, self.scale_in_depth
            )));
        }
        let i = self.check_interval.value();
        if !i.is_finite() || i <= 0.0 {
            return Err(SimError::invalid(format!(
                "scale check interval must be positive, got {i}"
            )));
        }
        if self.min_pools == 0 || self.min_pools > pool_count {
            return Err(SimError::invalid(format!(
                "min_pools must lie in 1..={pool_count}, got {}",
                self.min_pools
            )));
        }
        if let Some(migration) = &self.migration {
            migration.validate("migration")?;
        }
        Ok(())
    }
}

/// Failure and lifecycle model of one serving run: who fails, when, what
/// happens to the killed work, and what each recovery costs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Mean failures per node per hour. Each online pool draws exponential
    /// time-to-failure variates at `rate × nodes` from the run's seeded
    /// RNG; `0.0` disables hazard failures.
    pub node_failures_per_hour: f64,
    /// Unpowered repair span after a hazard failure (scripted outages carry
    /// their own).
    pub repair_time: Seconds,
    /// Deterministic scripted outages, on top of the hazard process.
    pub trace: Vec<FaultOutage>,
    /// What happens to the queries a failure kills.
    pub recovery: RecoveryPolicy,
    /// Warm-up time and restart energy charged per pool recovery.
    pub restart: TransitionCost,
    /// Elastic scale-out/in; `None` keeps every pool online except for
    /// failures.
    pub scale: Option<ScalePolicy>,
}

impl FaultModel {
    /// A hazard-only model: `rate` failures per node-hour, ten-minute
    /// repairs, replay recovery, free restarts.
    pub fn new(rate: f64) -> Self {
        FaultModel {
            node_failures_per_hour: rate,
            repair_time: Seconds(600.0),
            trace: Vec::new(),
            recovery: RecoveryPolicy::Replay,
            restart: TransitionCost::free(),
            scale: None,
        }
    }

    /// Add one scripted outage.
    pub fn outage(mut self, pool: usize, at: Seconds, duration: Seconds) -> Self {
        self.trace.push(FaultOutage { pool, at, duration });
        self
    }

    /// Set the unpowered repair span after a hazard failure.
    pub fn repair_time(mut self, repair: Seconds) -> Self {
        self.repair_time = repair;
        self
    }

    /// Set the killed-query recovery policy.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Charge each pool recovery a warm-up time and restart energy.
    pub fn restart_cost(mut self, cost: TransitionCost) -> Self {
        self.restart = cost;
        self
    }

    /// Enable queue-depth-triggered elastic scaling.
    pub fn scale(mut self, policy: ScalePolicy) -> Self {
        self.scale = Some(policy);
        self
    }

    /// Whether the model can never perturb a run: no hazard rate, no
    /// scripted outages, no scale policy. An inert model schedules no
    /// events and consumes no RNG draws, so results stay bit-identical to a
    /// fault-free run.
    pub fn is_inert(&self) -> bool {
        self.node_failures_per_hour == 0.0 && self.trace.is_empty() && self.scale.is_none()
    }

    /// Mean time-to-failure in seconds for a pool of `nodes` nodes (the
    /// pool fails when its first node does), or `None` when hazard failures
    /// are disabled.
    pub fn hazard_mean(&self, nodes: usize) -> Option<f64> {
        if self.node_failures_per_hour <= 0.0 || nodes == 0 {
            return None;
        }
        Some(3_600.0 / (self.node_failures_per_hour * nodes as f64))
    }

    /// Check the model against a cluster of `pool_count` pools.
    pub fn validate(&self, pool_count: usize) -> Result<(), SimError> {
        let rate = self.node_failures_per_hour;
        if !rate.is_finite() || rate < 0.0 {
            return Err(SimError::invalid(format!(
                "node failure rate must be finite and non-negative, got {rate}"
            )));
        }
        let repair = self.repair_time.value();
        if !repair.is_finite() || repair < 0.0 {
            return Err(SimError::invalid(format!(
                "repair time must be finite and non-negative, got {repair}"
            )));
        }
        for outage in &self.trace {
            if outage.pool >= pool_count {
                return Err(SimError::invalid(format!(
                    "scripted outage targets pool {} of {pool_count}",
                    outage.pool
                )));
            }
            let at = outage.at.value();
            if !at.is_finite() || at < 0.0 {
                return Err(SimError::invalid(format!(
                    "scripted outage instants must be finite and non-negative, got {at}"
                )));
            }
            let d = outage.duration.value();
            if !d.is_finite() || d <= 0.0 {
                return Err(SimError::invalid(format!(
                    "scripted outage durations must be positive, got {d}"
                )));
            }
        }
        self.recovery.validate()?;
        self.restart.validate("restart")?;
        if let Some(scale) = &self.scale {
            scale.validate(pool_count)?;
        }
        Ok(())
    }
}

/// Lifecycle state of one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum LifeState {
    /// Serving.
    #[default]
    Online,
    /// Failed: unpowered while repairing, then powered warm-up until the
    /// restore event fires.
    Failed,
    /// Scaled in: parked unpowered until a scale-out decision.
    Parked,
    /// Rejoining after a scale-out decision: powered data movement.
    Migrating,
}

/// Per-pool lifecycle state machine, driven by the serving engine. Accrues
/// the three spans the accounting needs: *unpowered* time (no idle power is
/// metered), *fault downtime* (the availability metric: repair plus
/// warm-up), and *parked* time (deliberate elastic downtime, excluded from
/// the availability metric). The default is a pool online from time zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolLifecycle {
    state: LifeState,
    /// Start of the current state episode.
    since: f64,
    /// Unpowered repair span of the current `Failed` episode (the remainder
    /// up to the restore instant is powered warm-up).
    repair_span: f64,
    /// Bumped on every transition; stale in-air events carry the old value.
    pub epoch: u64,
    unpowered: f64,
    fault_downtime: f64,
    parked_time: f64,
}

impl PoolLifecycle {
    /// Whether the pool is serving.
    pub fn online(&self) -> bool {
        self.state == LifeState::Online
    }

    /// Whether the pool is parked by the scale policy.
    pub fn parked(&self) -> bool {
        self.state == LifeState::Parked
    }

    /// The pool fails at `now`; it stays unpowered for `repair` seconds and
    /// then warms up until [`restore`](Self::restore) is called.
    pub fn fail(&mut self, now: f64, repair: f64) {
        debug_assert_eq!(self.state, LifeState::Online, "only online pools fail");
        self.state = LifeState::Failed;
        self.since = now;
        self.repair_span = repair;
        self.epoch += 1;
    }

    /// The pool is parked by a scale-in decision at `now`.
    pub fn park(&mut self, now: f64) {
        debug_assert_eq!(self.state, LifeState::Online, "only online pools park");
        self.state = LifeState::Parked;
        self.since = now;
        self.epoch += 1;
    }

    /// A scale-out decision at `now` starts reviving a parked pool; it
    /// comes back online when [`restore`](Self::restore) is called.
    pub fn unpark(&mut self, now: f64) {
        debug_assert_eq!(self.state, LifeState::Parked, "only parked pools revive");
        let span = now - self.since;
        self.parked_time += span;
        self.unpowered += span;
        self.state = LifeState::Migrating;
        self.since = now;
        self.epoch += 1;
    }

    /// The pool rejoins service at `now` (after repair + warm-up, or after
    /// migration).
    pub fn restore(&mut self, now: f64) {
        match self.state {
            LifeState::Failed => {
                let span = now - self.since;
                self.fault_downtime += span;
                self.unpowered += self.repair_span.min(span);
            }
            LifeState::Migrating => {}
            LifeState::Online | LifeState::Parked => {
                debug_assert!(false, "restore from {:?}", self.state)
            }
        }
        self.state = LifeState::Online;
        self.since = now;
        self.epoch += 1;
    }

    /// Accrue the tail episode up to the end of the run (pools can end a
    /// run parked; failed pools always see their restore event first).
    pub fn finalize(&mut self, end: f64) {
        let span = (end - self.since).max(0.0);
        match self.state {
            LifeState::Online | LifeState::Migrating => {}
            LifeState::Failed => {
                self.fault_downtime += span;
                self.unpowered += self.repair_span.min(span);
            }
            LifeState::Parked => {
                self.parked_time += span;
                self.unpowered += span;
            }
        }
        self.since = end;
    }

    /// Seconds the pool spent unpowered (no idle power metered).
    pub fn unpowered_time(&self) -> f64 {
        self.unpowered
    }

    /// Seconds the pool was unavailable due to failures (repair + warm-up)
    /// — the numerator of the availability metric.
    pub fn fault_downtime(&self) -> f64 {
        self.fault_downtime
    }

    /// Seconds the pool spent deliberately parked by the scale policy.
    pub fn parked_time(&self) -> f64 {
        self.parked_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_models_are_detected() {
        assert!(FaultModel::new(0.0).is_inert());
        assert!(!FaultModel::new(0.5).is_inert());
        assert!(!FaultModel::new(0.0)
            .outage(0, Seconds(10.0), Seconds(5.0))
            .is_inert());
        assert!(!FaultModel::new(0.0)
            .scale(ScalePolicy::new(8, 1, Seconds(10.0)))
            .is_inert());
    }

    #[test]
    fn hazard_mean_scales_with_pool_size() {
        let model = FaultModel::new(0.1);
        // 0.1 failures/node-hour over 4 nodes: first failure after a mean
        // 3600 / 0.4 = 9000 s.
        assert_eq!(model.hazard_mean(4), Some(9_000.0));
        assert_eq!(model.hazard_mean(0), None);
        assert_eq!(FaultModel::new(0.0).hazard_mean(4), None);
    }

    #[test]
    fn validation_rejects_bad_models() {
        assert!(FaultModel::new(f64::NAN).validate(2).is_err());
        assert!(FaultModel::new(-1.0).validate(2).is_err());
        assert!(FaultModel::new(0.1)
            .repair_time(Seconds(f64::INFINITY))
            .validate(2)
            .is_err());
        // Scripted outages: pool in range, finite instants, positive spans.
        assert!(FaultModel::new(0.0)
            .outage(2, Seconds(1.0), Seconds(1.0))
            .validate(2)
            .is_err());
        assert!(FaultModel::new(0.0)
            .outage(0, Seconds(-1.0), Seconds(1.0))
            .validate(2)
            .is_err());
        assert!(FaultModel::new(0.0)
            .outage(0, Seconds(1.0), Seconds(0.0))
            .validate(2)
            .is_err());
        // Checkpoint intervals must be positive.
        assert!(FaultModel::new(0.1)
            .recovery(RecoveryPolicy::Checkpoint {
                interval: Seconds(0.0)
            })
            .validate(2)
            .is_err());
        // Transition costs must be finite and non-negative.
        assert!(FaultModel::new(0.1)
            .restart_cost(TransitionCost {
                time: Seconds(-1.0),
                energy: Joules(0.0),
            })
            .validate(2)
            .is_err());
        // Scale policies need hysteresis and a feasible floor.
        assert!(FaultModel::new(0.0)
            .scale(ScalePolicy::new(2, 2, Seconds(10.0)))
            .validate(2)
            .is_err());
        assert!(FaultModel::new(0.0)
            .scale(ScalePolicy::new(8, 1, Seconds(0.0)))
            .validate(2)
            .is_err());
        assert!(FaultModel::new(0.0)
            .scale(ScalePolicy::new(8, 1, Seconds(10.0)).min_pools(3))
            .validate(2)
            .is_err());
        // A sane model passes.
        assert!(FaultModel::new(0.1)
            .outage(1, Seconds(5.0), Seconds(2.0))
            .recovery(RecoveryPolicy::Checkpoint {
                interval: Seconds(1.0)
            })
            .restart_cost(TransitionCost {
                time: Seconds(3.0),
                energy: Joules(500.0),
            })
            .scale(ScalePolicy::new(8, 1, Seconds(10.0)).min_pools(1))
            .validate(2)
            .is_ok());
    }

    #[test]
    fn surviving_fraction_follows_the_policy() {
        let service = Seconds(10.0);
        // Drop and replay both forfeit everything.
        assert_eq!(
            RecoveryPolicy::Drop.surviving_fraction(Seconds(9.0), service),
            0.0
        );
        assert_eq!(
            RecoveryPolicy::Replay.surviving_fraction(Seconds(9.0), service),
            0.0
        );
        // Checkpoints keep whole intervals only: 7.5 s done at a 2 s cadence
        // checkpoints 6 s of the 10 s requirement.
        let ckpt = RecoveryPolicy::Checkpoint {
            interval: Seconds(2.0),
        };
        assert_eq!(ckpt.surviving_fraction(Seconds(7.5), service), 0.6);
        assert_eq!(ckpt.surviving_fraction(Seconds(0.5), service), 0.0);
        assert_eq!(ckpt.surviving_fraction(Seconds(10.0), service), 1.0);
        // Degenerate inputs clamp instead of escaping [0, 1].
        assert_eq!(ckpt.surviving_fraction(Seconds(25.0), service), 1.0);
        assert_eq!(ckpt.surviving_fraction(Seconds(5.0), Seconds(0.0)), 0.0);
    }

    #[test]
    fn lifecycle_accrues_unpowered_fault_and_parked_spans() {
        let mut life = PoolLifecycle::default();
        assert!(life.online());
        // Fail at t=100 with a 50 s repair; warm-up until restore at t=170.
        life.fail(100.0, 50.0);
        assert!(!life.online());
        life.restore(170.0);
        assert!(life.online());
        assert_eq!(life.fault_downtime(), 70.0);
        assert_eq!(life.unpowered_time(), 50.0);
        assert_eq!(life.parked_time(), 0.0);
        // Park at t=200, revive at t=260, online after 10 s migration.
        life.park(200.0);
        assert!(life.parked());
        life.unpark(260.0);
        assert!(!life.online() && !life.parked());
        life.restore(270.0);
        assert!(life.online());
        assert_eq!(life.parked_time(), 60.0);
        assert_eq!(life.unpowered_time(), 110.0);
        // Parked pools accrue through the end of the run.
        life.park(300.0);
        life.finalize(350.0);
        assert_eq!(life.parked_time(), 110.0);
        assert_eq!(life.unpowered_time(), 160.0);
        // Fault downtime never counted the deliberate parking.
        assert_eq!(life.fault_downtime(), 70.0);
        // Every transition bumped the epoch.
        assert_eq!(life.epoch, 6);
    }

    #[test]
    fn restore_clamps_unpowered_to_the_actual_episode() {
        // A restore that lands before the nominal repair span has elapsed
        // (e.g. a zero-warm-up model with a long repair clipped by the
        // engine) never counts more unpowered time than passed.
        let mut life = PoolLifecycle::default();
        life.fail(10.0, 100.0);
        life.restore(40.0);
        assert_eq!(life.fault_downtime(), 30.0);
        assert_eq!(life.unpowered_time(), 30.0);
    }
}
