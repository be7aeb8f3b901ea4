//! Discrete-event simulation kernel.
//!
//! The substrate's other modules are *closed-form*: they turn a workload
//! description directly into times and joules. This module adds the missing
//! *open-form* piece — a minimal event-driven kernel in the `dslab-core`
//! shape — so higher layers (the `eedc-dbmsim` serving simulator) can model
//! queueing phenomena that closed forms cannot: admission queues, drops,
//! latency percentiles under sustained load.
//!
//! The kernel is deliberately tiny:
//!
//! * a queryable `f64` clock ([`Simulation::time`]),
//! * a binary-heap event queue ordered by `(time, seq)` — the monotonically
//!   increasing sequence number gives **stable FIFO tie-breaking** for events
//!   scheduled at the same timestamp, which is what makes runs reproducible,
//! * an [`EventHandler`] trait the owning component implements, driven by
//!   [`Simulation::run`] until the queue is empty,
//! * a deterministic seeded RNG ([`Simulation::sample_unit`],
//!   [`Simulation::sample_exponential`]) so every draw in a run is a pure
//!   function of the seed.
//!
//! ```
//! use eedc_simkit::sim::{EventHandler, Simulation};
//!
//! struct Counter {
//!     fired: Vec<(f64, u32)>,
//! }
//!
//! impl EventHandler<u32> for Counter {
//!     fn on_event(&mut self, sim: &mut Simulation<u32>, payload: u32) {
//!         self.fired.push((sim.time(), payload));
//!         if payload < 3 {
//!             sim.schedule_in(1.0, payload + 1).unwrap();
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! sim.schedule_in(0.5, 1).unwrap();
//! let mut counter = Counter { fired: Vec::new() };
//! sim.run(&mut counter);
//! assert_eq!(counter.fired, vec![(0.5, 1), (1.5, 2), (2.5, 3)]);
//! ```

use crate::error::SimError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry. `BinaryHeap` is a max-heap, so `Ord` is inverted to pop the
/// *earliest* `(time, seq)` first.
#[derive(Debug)]
struct Scheduled<E> {
    time: f64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `total_cmp` keeps the order total even if a NaN ever slipped past
        // entry validation (a NaN-poisoned heap silently corrupts pop order
        // under `partial_cmp` + fallback); seq is unique, making the order
        // deterministic. Times are finite, so -0.0/+0.0 is the only pair
        // total_cmp splits that `==` does not — both sort before every
        // positive time, and seq still breaks exact ties FIFO.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A component that reacts to events popped by [`Simulation::run`].
///
/// The handler lives *outside* the simulation so it can freely schedule
/// follow-up events and draw random numbers through the `&mut Simulation`
/// it receives.
pub trait EventHandler<E> {
    /// React to one event; `sim.time()` reads the event's timestamp.
    fn on_event(&mut self, sim: &mut Simulation<E>, payload: E);
}

/// The discrete-event kernel: clock + ordered event queue + seeded RNG.
#[derive(Debug)]
pub struct Simulation<E> {
    clock: f64,
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    processed: u64,
    seed: u64,
    rng: SmallRng,
}

impl<E> Simulation<E> {
    /// Create an empty simulation at time zero with a deterministic RNG
    /// seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Simulation {
            clock: 0.0,
            queue: BinaryHeap::new(),
            next_seq: 0,
            processed: 0,
            seed,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// The seed this simulation's RNG was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `payload` to fire `delay` simulated seconds from now.
    /// Returns the event's sequence number.
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> Result<u64, SimError> {
        if !delay.is_finite() || delay < 0.0 {
            return Err(SimError::invalid(format!(
                "event delay must be finite and non-negative, got {delay}"
            )));
        }
        self.push(self.clock + delay, payload)
    }

    /// Schedule `payload` at absolute time `time` (which must not lie in the
    /// past). Returns the event's sequence number.
    pub fn schedule_at(&mut self, time: f64, payload: E) -> Result<u64, SimError> {
        if !time.is_finite() || time < self.clock {
            return Err(SimError::invalid(format!(
                "event time {time} is not finite or lies before the clock ({})",
                self.clock
            )));
        }
        self.push(time, payload)
    }

    fn push(&mut self, time: f64, payload: E) -> Result<u64, SimError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { time, seq, payload });
        Ok(seq)
    }

    /// Pop the earliest event's payload, advancing the clock to its
    /// timestamp. Events at equal times pop in scheduling (FIFO) order.
    fn step(&mut self) -> Option<E> {
        let next = self.queue.pop()?;
        debug_assert!(next.time >= self.clock, "event queue went backwards");
        self.clock = next.time;
        self.processed += 1;
        Some(next.payload)
    }

    /// Drive `handler` until the event queue is empty; returns the number of
    /// events processed by this call.
    pub fn run(&mut self, handler: &mut impl EventHandler<E>) -> u64 {
        let before = self.processed;
        while let Some(payload) = self.step() {
            handler.on_event(self, payload);
        }
        self.processed - before
    }

    /// One uniform draw in `[0, 1)` from the seeded RNG.
    pub fn sample_unit(&mut self) -> f64 {
        self.rng.gen_range(0.0..1.0)
    }

    /// One exponential draw with the given mean (inverse-CDF method) —
    /// the inter-arrival law of a Poisson process with rate `1 / mean`.
    pub fn sample_exponential(&mut self, mean: f64) -> Result<f64, SimError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(SimError::invalid(format!(
                "exponential mean must be finite and positive, got {mean}"
            )));
        }
        // sample_unit is in [0, 1), so 1 - u is in (0, 1] and ln stays finite.
        Ok(-(1.0 - self.sample_unit()).ln() * mean)
    }

    /// Direct access to the seeded RNG for distributions the helpers do not
    /// cover.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        fired: Vec<(f64, u8)>,
    }

    impl EventHandler<u8> for Recorder {
        fn on_event(&mut self, sim: &mut Simulation<u8>, payload: u8) {
            self.fired.push((sim.time(), payload));
        }
    }

    #[test]
    fn events_pop_in_time_order_with_fifo_tie_breaking() {
        let mut sim: Simulation<u8> = Simulation::new(1);
        sim.schedule_in(2.0, 10).unwrap();
        sim.schedule_in(1.0, 20).unwrap();
        // Three events at the same instant must pop in scheduling order.
        sim.schedule_in(1.0, 21).unwrap();
        sim.schedule_in(1.0, 22).unwrap();
        sim.schedule_at(0.5, 30).unwrap();
        let mut recorder = Recorder { fired: Vec::new() };
        let processed = sim.run(&mut recorder);
        assert_eq!(processed, 5);
        assert_eq!(
            recorder.fired,
            vec![(0.5, 30), (1.0, 20), (1.0, 21), (1.0, 22), (2.0, 10)]
        );
        assert!(sim.step().is_none());
        assert_eq!(sim.processed(), 5);
    }

    #[test]
    fn clock_is_queryable_and_monotonic() {
        let mut sim: Simulation<u8> = Simulation::new(1);
        assert_eq!(sim.time(), 0.0);
        sim.schedule_in(3.0, 1).unwrap();
        sim.schedule_in(1.0, 2).unwrap();
        let mut seen = Vec::new();
        while let Some(payload) = sim.step() {
            seen.push((sim.time(), payload));
        }
        assert_eq!(seen, vec![(1.0, 2), (3.0, 1)]);
        assert_eq!(sim.time(), 3.0);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let mut sim: Simulation<u8> = Simulation::new(1);
        assert!(sim.schedule_in(-1.0, 0).is_err());
        assert!(sim.schedule_in(f64::NAN, 0).is_err());
        assert!(sim.schedule_in(f64::INFINITY, 0).is_err());
        sim.schedule_in(5.0, 0).unwrap();
        sim.step();
        assert!(sim.schedule_at(4.0, 0).is_err(), "past is rejected");
        assert!(sim.schedule_at(5.0, 0).is_ok(), "present is allowed");
    }

    #[test]
    fn same_seed_gives_bit_identical_draws() {
        let draws = |seed: u64| -> Vec<f64> {
            let mut sim: Simulation<u8> = Simulation::new(seed);
            (0..256)
                .map(|i| {
                    if i % 2 == 0 {
                        sim.sample_unit()
                    } else {
                        sim.sample_exponential(2.0).unwrap()
                    }
                })
                .collect()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn total_cmp_heap_pops_in_stable_time_seq_order() {
        // The event-queue comparator moved from a `partial_cmp` +
        // `unwrap_or(Equal)` chain to `f64::total_cmp`; for finite inputs
        // the pop order must be unchanged — nondecreasing time, FIFO seq at
        // equal times — i.e. exactly the stable sort of the schedule.
        let mut sim: Simulation<usize> = Simulation::new(99);
        let mut times = Vec::new();
        for i in 0..512 {
            // Seeded draws, quantized so exact duplicate times occur often.
            let t = (sim.sample_unit() * 32.0).floor() / 8.0;
            times.push(t);
            sim.schedule_at(t, i).unwrap();
        }
        let mut expected: Vec<(f64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0)); // sort_by is stable
        let mut popped = Vec::new();
        // Payload `i` was the `i`-th event scheduled, so it is also the seq.
        while let Some(payload) = sim.step() {
            popped.push((sim.time(), payload));
        }
        assert_eq!(popped, expected);
    }

    #[test]
    fn exponential_sampling_matches_its_mean() {
        let mut sim: Simulation<u8> = Simulation::new(11);
        let n = 200_000;
        let mean = 0.25;
        let sum: f64 = (0..n).map(|_| sim.sample_exponential(mean).unwrap()).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() / mean < 0.02,
            "observed mean {observed} vs {mean}"
        );
        assert!(sim.sample_exponential(0.0).is_err());
        assert!(sim.sample_exponential(-1.0).is_err());
    }
}
