//! The event-driven engine: per-pool runtime state, the handler that reacts
//! to arrivals, completions and lifecycle events, and `simulate_serving`,
//! which validates its inputs, drives the kernel and folds the result.

use super::{
    ArrivalProcess, PoolView, Scheduler, ServiceDistribution, ServiceMode, ServiceProfile,
    ServingConfig, ServingResult, ServingServer,
};
use crate::faults::{FaultModel, PoolLifecycle, TransitionCost};
use eedc_simkit::error::SimError;
use eedc_simkit::sim::{from_order_key, order_key, EventHandler, Simulation};
use eedc_simkit::units::{Joules, Seconds};
use std::collections::VecDeque;

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
#[derive(Default)]
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
        let flight = InFlight {
            id,
            arrival: query.arrival,
            template: query.template,
            remaining: service,
            service,
            started: now,
            progress: query.progress,
        };
        match self.servers[server].mode {
            ServiceMode::Dedicated => {
                pool.busy += service;
                pool.in_flight.push(flight);
                // A finite service time can still carry the clock past
                // `f64::MAX`; the kernel refuses that schedule.
                sim.schedule_in(service, ServingEvent::Completion { server, query: id })?;
            }
            ServiceMode::ProcessorSharing => {
                pool.advance_shared(now);
                pool.in_flight.push(flight);
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
        let shared = self.servers[server].mode == ServiceMode::ProcessorSharing;
        self.failures += 1;
        let pool = &mut self.pools[server];
        pool.note_depth(now);
        if shared {
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
            let profile = self.servers[server].profiles[victim.template].ok_or_else(|| {
                SimError::invalid(format!(
                    "pool {server} ran template {} without a profile",
                    victim.template
                ))
            })?;
            let pool = &mut self.pools[server];
            // Refund the unserved remainder credited at start: busy time
            // (dedicated slots credit the full service upfront; PS busy is
            // wall-clock and already exact) and energy.
            let (done, left) = if shared {
                let left = victim.remaining.clamp(0.0, victim.service);
                (victim.service - left, left)
            } else {
                let done = (now - victim.started).clamp(0.0, victim.service);
                pool.busy -= victim.service - done;
                (done, victim.service - done)
            };
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
    config.validate(servers)?;
    let templates = servers[0].profiles.len();
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
        life: vec![PoolLifecycle::default(); servers.len()],
        template_cdf,
        trace_next: 0,
        next_query_id: 0,
        pools: (0..servers.len()).map(|_| Pool::default()).collect(),
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
