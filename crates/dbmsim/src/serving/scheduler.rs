//! Placement: the queue state a policy sees, the `Scheduler` trait, and the
//! five policies the serving layer ships.

use super::ServingServer;

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
    /// the run: [`simulate_serving`](super::simulate_serving) returns an
    /// error naming both.
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
