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
//! * an event queue ordered by `(time, seq)` — the monotonically increasing
//!   sequence number gives **stable FIFO tie-breaking** for events scheduled
//!   at the same timestamp, which is what makes runs reproducible. The queue
//!   is `std`'s [`BinaryHeap`] over one `u128` key per event,
//!   `(order_key(time) << 64) | seq`: one unsigned comparison is exactly the
//!   `f64::total_cmp`-then-`seq` order (so the pop order is the one a
//!   `(time, seq)` comparator gives, `-0.0` before `+0.0` included).
//!   [`order_key`] / [`from_order_key`] are public for any other `f64` that
//!   wants sorting as an integer,
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
use crate::rng::SplitMix64;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Map an `f64` onto a `u64` whose unsigned order is exactly
/// [`f64::total_cmp`] order: `-0.0` sorts before `+0.0`, and NaNs sit
/// outside the infinities by sign. [`from_order_key`] inverts it bit for
/// bit, so a sort of keys is a sort of the values.
#[inline]
pub fn order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    // Negative values flip every bit (larger magnitude sorts lower);
    // non-negative values only set the sign bit (lifting them above).
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// The inverse of [`order_key`]: `from_order_key(order_key(x))` has the
/// bits of `x`, NaN payloads and the sign of zero included.
#[inline]
pub fn from_order_key(key: u64) -> f64 {
    // A clear top bit marks a key that came from a negative value.
    f64::from_bits(key ^ (((!key as i64 >> 63) as u64) | (1 << 63)))
}

/// Queue entry: `(order_key(time) << 64) | seq` in one integer, so one
/// unsigned comparison is the `(time, seq)` order and `seq` (unique)
/// breaks exact ties FIFO.
#[derive(Debug)]
struct Scheduled<E> {
    key: u128,
    payload: E,
}

impl<E> Scheduled<E> {
    fn time(&self) -> f64 {
        from_order_key((self.key >> 64) as u64)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// By key alone, reversed: `BinaryHeap` is a max-heap, so the smallest
    /// key — the earliest `(time, seq)` — pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
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
    rng: SplitMix64,
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
            rng: SplitMix64::new(seed),
        }
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `payload` to fire `delay` simulated seconds from now (the
    /// sum must stay finite). Returns the event's sequence number.
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> Result<u64, SimError> {
        let time = self.clock + delay;
        if !delay.is_finite() || delay < 0.0 || !time.is_finite() {
            return Err(SimError::invalid(format!(
                "event delay {delay} must be finite, non-negative and keep the clock ({}) finite",
                self.clock
            )));
        }
        self.push(time, payload)
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

    #[inline]
    fn push(&mut self, time: f64, payload: E) -> Result<u64, SimError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled {
            key: (u128::from(order_key(time)) << 64) | u128::from(seq),
            payload,
        });
        Ok(seq)
    }

    /// Pop the earliest event's payload, advancing the clock to its
    /// timestamp. Events at equal times pop in scheduling (FIFO) order.
    #[inline]
    fn step(&mut self) -> Option<E> {
        let next = self.queue.pop()?;
        let time = next.time();
        debug_assert!(time >= self.clock, "event queue went backwards");
        self.clock = time;
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
        self.rng.unit()
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
        // A finite delay whose sum with the clock overflows to +inf.
        let mut sim: Simulation<u8> = Simulation::new(1);
        sim.schedule_at(1e308, 0).unwrap();
        sim.step();
        assert!(
            sim.schedule_in(1e308, 0).is_err(),
            "clock + delay overflows"
        );
        assert_eq!(sim.time(), 1e308);
        assert!(sim.schedule_at(1e308, 0).is_ok());
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
        // The pop order is nondecreasing time, FIFO seq at equal times —
        // i.e. exactly the stable sort of the schedule.
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

    /// Schedules from inside `on_event`, so pushes interleave with pops:
    /// each event schedules two more at quantized delays (zero included, so
    /// exact duplicates of the clock are common) until 4,000 exist.
    struct Spawner {
        scheduled: Vec<(f64, u64)>,
        popped: Vec<(u64, u64)>,
        max_queued: usize,
    }

    impl Spawner {
        fn schedule(&mut self, sim: &mut Simulation<u64>, delay: f64) {
            let seq = self.scheduled.len() as u64;
            assert_eq!(sim.schedule_in(delay, seq).unwrap(), seq);
            self.scheduled.push((sim.time() + delay, seq));
        }
    }

    impl EventHandler<u64> for Spawner {
        fn on_event(&mut self, sim: &mut Simulation<u64>, payload: u64) {
            self.popped.push((sim.time().to_bits(), payload));
            self.max_queued = self.max_queued.max(sim.queue.len() + 1);
            if self.scheduled.len() < 4_000 {
                for _ in 0..2 {
                    let delay = (sim.sample_unit() * 8.0).floor() / 4.0;
                    self.schedule(sim, delay);
                }
            }
        }
    }

    #[test]
    fn interleaved_pushes_and_pops_follow_the_stable_time_seq_order() {
        let mut sim: Simulation<u64> = Simulation::new(5);
        let mut spawner = Spawner {
            scheduled: Vec::new(),
            popped: Vec::new(),
            max_queued: 0,
        };
        // Both zeros at clock 0, in both scheduling orders: -0.0 pops
        // first whatever its seq, +0.0 entries FIFO among themselves.
        for time in [0.0, -0.0, 0.0, -0.0] {
            let seq = spawner.scheduled.len() as u64;
            sim.schedule_at(time, seq).unwrap();
            spawner.scheduled.push((time, seq));
        }
        assert_eq!(sim.run(&mut spawner), 4_000);
        assert!(spawner.max_queued > 300, "{}", spawner.max_queued);
        let mut expected = spawner.scheduled;
        expected.sort_by(|a, b| a.0.total_cmp(&b.0)); // sort_by is stable
        let expected: Vec<(u64, u64)> = expected.iter().map(|&(t, s)| (t.to_bits(), s)).collect();
        assert_eq!(
            &spawner.popped[..4],
            &[
                ((-0.0f64).to_bits(), 1),
                ((-0.0f64).to_bits(), 3),
                (0, 0),
                (0, 2)
            ]
        );
        assert_eq!(spawner.popped, expected);
    }

    thread_local! {
        static DROPPED: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
    }

    /// A payload that logs its id when dropped.
    struct Tracked(u64);

    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPPED.with(|d| d.borrow_mut().push(self.0));
        }
    }

    #[test]
    fn queue_drops_every_owned_payload_exactly_once() {
        // Every payload leaves the kernel once: popped by `step` (and
        // dropped by its owner) or dropped with the `Simulation`.
        let mut sim: Simulation<Tracked> = Simulation::new(3);
        let mut popped = Vec::new();
        for seq in 0..600_u64 {
            let time = sim.time() + (sim.sample_unit() * 64.0).floor();
            assert_eq!(sim.schedule_at(time, Tracked(seq)).unwrap(), seq);
            if seq % 3 == 0 {
                popped.extend(sim.step());
            }
        }
        while sim.queue.len() > 100 {
            popped.extend(sim.step());
        }
        assert!(DROPPED.with(|d| d.borrow().is_empty()));
        drop(popped);
        drop(sim);
        let mut dropped = DROPPED.with(|d| d.take());
        dropped.sort_unstable();
        assert_eq!(dropped, (0..600).collect::<Vec<u64>>());
    }

    #[test]
    fn order_key_round_trips_every_bit_pattern_class() {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0, // a larger subnormal
            -f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(0xfff8_0000_dead_beef), // negative NaN payload
            f64::from_bits(u64::MAX),
        ];
        for x in specials {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits(), "{x:?}");
        }
        for (a, b) in specials.iter().zip(specials.iter().skip(1)) {
            assert_eq!(
                order_key(*a).cmp(&order_key(*b)),
                a.total_cmp(b),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn order_key_order_is_total_cmp_order() {
        let mut rng = SplitMix64::new(23);
        // Raw bit patterns cover NaNs and subnormals; scaled draws give
        // near neighbours and exact duplicates.
        let values: Vec<f64> = (0..512)
            .map(|i| {
                let bits = rng.next_u64();
                if i % 2 == 0 {
                    f64::from_bits(bits)
                } else {
                    ((rng.unit() - 0.5) * 16.0).round() / 4.0
                }
            })
            .collect();
        for a in &values {
            assert_eq!(from_order_key(order_key(*a)).to_bits(), a.to_bits());
            for b in &values {
                assert_eq!(
                    order_key(*a).cmp(&order_key(*b)),
                    a.total_cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
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
