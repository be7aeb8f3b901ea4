//! The serving engine's default path held to an exact recursion.
//!
//! FCFS placement with a central queue, dedicated slots and deterministic
//! service is the Kiefer–Wolfowitz workload recursion (Lindley's for one
//! slot). Walking the arrivals in order:
//!
//! * an arrival that finds a free slot takes the lowest pool id that has
//!   one (`FcfsScheduler::place`) — or, under `EnergyAwareScheduler`, the
//!   pool whose profile costs the fewest joules, ties going to the lowest
//!   pool id;
//! * otherwise, if the shared waiting room holds `queue_capacity` queries,
//!   it is dropped;
//! * otherwise it waits for the earliest-freeing slot (ties go to the
//!   earliest-scheduled completion), because the central queue is served
//!   oldest first;
//! * it starts at `max(arrival, free_at)` and ends the pool's service time
//!   later.
//!
//! `JoinShortestQueue` follows the same recursion with a different choice:
//! an arrival commits to the pool with the fewest queries in system
//! (assigned queries whose end is after the arrival), ties going to the
//! lowest pool id. If that pool has no free slot, the arrival is dropped
//! when the shared waiting room is full, and otherwise waits, FIFO in that
//! pool's own queue, for the pool's earliest-freeing slot.
//!
//! Arrivals replay an `ArrivalProcess::Trace`, so no random draw separates
//! the engine from the recursion, and the recursion must reproduce
//! `latencies` bit for bit, the drop count, every pool's completed queries
//! and busy time, and the query energy, on every one of the seeded
//! configurations, under all three schedulers.
//!
//! The Poisson arrival draws the recursion skips are held to theory
//! instead: one single-slot pool with deterministic service is an M/D/1
//! queue, whose mean wait is the Pollaczek–Khinchine `ρ·S / (2(1 − ρ))`.

use eedc_dbmsim::{
    simulate_serving, ArrivalProcess, EnergyAwareScheduler, FcfsScheduler, JoinShortestQueue,
    Scheduler, ServiceProfile, ServingConfig, ServingServer,
};
use eedc_simkit::rng::SplitMix64;
use eedc_simkit::units::{Joules, Seconds, Watts};

const WINDOW: f64 = 200.0;
const CONFIGURATIONS: u64 = 1_000;

/// One seeded cluster and arrival trace.
struct Configuration {
    /// Per pool: (service time in seconds, slots).
    pools: Vec<(f64, usize)>,
    /// Per pool: the profile's energy in joules.
    energies: Vec<f64>,
    arrivals: Vec<f64>,
    queue_capacity: usize,
}

/// 1–4 pools of 1–3 slots with service 0.2–2.2 s and 50, 100 or 150 J per
/// query (so energy ties are common), Poisson arrivals at 0.5–1.1 of the
/// cluster's capacity over a 200 s window, and a waiting room from none to
/// unbounded.
fn configuration(seed: u64) -> Configuration {
    let mut rng = SplitMix64::new(seed);
    let pools: Vec<(f64, usize)> = (0..1 + rng.below(4))
        .map(|_| (0.2 + 2.0 * rng.unit(), 1 + rng.below(3) as usize))
        .collect();
    let capacity: f64 = pools.iter().map(|&(time, slots)| slots as f64 / time).sum();
    let qps = (0.5 + 0.6 * rng.unit()) * capacity;
    let queue_capacity = [0, 1, 3, 10, usize::MAX][rng.below(5) as usize];
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / qps;
        if t >= WINDOW {
            break;
        }
        arrivals.push(t);
    }
    let energies = pools
        .iter()
        .map(|_| [50.0, 100.0, 150.0][rng.below(3) as usize])
        .collect();
    Configuration {
        pools,
        energies,
        arrivals,
        queue_capacity,
    }
}

/// The three placement rules the recursion follows.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// `FcfsScheduler`: a free slot on the lowest pool id.
    Fcfs,
    /// `EnergyAwareScheduler`: a free slot on the cheapest profile energy,
    /// then the lowest pool id.
    EnergyAware,
    /// `JoinShortestQueue`: the fewest queries in system, then the lowest
    /// pool id, free slot or not.
    JoinShortestQueue,
}

/// What the recursion decides: sorted latencies, drops, per-pool
/// completions and busy time, and the query energy (floats as bits).
#[derive(Debug, PartialEq)]
struct Outcome {
    latencies: Vec<u64>,
    dropped: usize,
    server_queries: Vec<usize>,
    server_busy: Vec<u64>,
    query_energy: u64,
}

fn recursion(config: &Configuration, placement: Placement) -> Outcome {
    // Per slot: (free_at, order its current completion was scheduled, pool).
    let mut slots: Vec<(f64, u64, usize)> = config
        .pools
        .iter()
        .enumerate()
        .flat_map(|(pool, &(_, n))| std::iter::repeat_n((0.0, 0, pool), n))
        .collect();
    // Start instants of the queries that waited, and (end, pool) of every
    // assigned query: pruned to those still waiting / in system.
    let mut waiting_starts: Vec<f64> = Vec::new();
    let mut in_system: Vec<(f64, usize)> = Vec::new();
    let mut latencies = Vec::new();
    let mut dropped = 0;
    let mut server_queries = vec![0; config.pools.len()];
    let mut server_busy = vec![0.0; config.pools.len()];
    let mut pool_energy = vec![0.0; config.pools.len()];
    // The cheaper of two pools for `placement`, as an ordering.
    let cost = |a: usize, b: usize| match placement {
        Placement::Fcfs => a.cmp(&b),
        Placement::EnergyAware => config.energies[a]
            .total_cmp(&config.energies[b])
            .then(a.cmp(&b)),
        Placement::JoinShortestQueue => unreachable!("JSQ picks by depth"),
    };
    for (scheduled, &arrival) in (1..).zip(&config.arrivals) {
        waiting_starts.retain(|&start| start > arrival);
        in_system.retain(|&(end, _)| end > arrival);
        // The earliest-freeing slot among `candidates`, ties going to the
        // earliest-scheduled completion.
        let earliest = |candidates: &mut dyn Iterator<Item = usize>| {
            candidates
                .min_by(|&a, &b| {
                    slots[a]
                        .0
                        .total_cmp(&slots[b].0)
                        .then(slots[a].1.cmp(&slots[b].1))
                })
                .expect("every pool has a slot")
        };
        let slot = match placement {
            Placement::JoinShortestQueue => {
                let depth = |pool| in_system.iter().filter(|&&(_, p)| p == pool).count();
                let shortest = (0..config.pools.len())
                    .min_by_key(|&pool| (depth(pool), pool))
                    .expect("at least one pool");
                earliest(&mut (0..slots.len()).filter(|&s| slots[s].2 == shortest))
            }
            _ => (0..slots.len())
                .filter(|&s| slots[s].0 <= arrival)
                .min_by(|&a, &b| cost(slots[a].2, slots[b].2))
                .unwrap_or_else(|| earliest(&mut (0..slots.len()))),
        };
        if slots[slot].0 > arrival && waiting_starts.len() >= config.queue_capacity {
            dropped += 1;
            continue;
        }
        let pool = slots[slot].2;
        let start = arrival.max(slots[slot].0);
        if start > arrival {
            waiting_starts.push(start);
        }
        let end = start + config.pools[pool].0;
        slots[slot] = (end, scheduled, pool);
        in_system.push((end, pool));
        latencies.push(end - arrival);
        server_queries[pool] += 1;
        // Busy time and energy are billed when the query starts.
        server_busy[pool] += config.pools[pool].0;
        pool_energy[pool] += config.energies[pool];
    }
    latencies.sort_by(f64::total_cmp);
    Outcome {
        latencies: latencies.iter().map(|l| l.to_bits()).collect(),
        dropped,
        server_queries,
        server_busy: server_busy.iter().map(|b| b.to_bits()).collect(),
        query_energy: pool_energy.iter().sum::<f64>().to_bits(),
    }
}

fn engine(config: &Configuration, seed: u64, scheduler: &mut dyn Scheduler) -> Outcome {
    let servers: Vec<ServingServer> = config
        .pools
        .iter()
        .enumerate()
        .map(|(i, &(time, slots))| {
            ServingServer::new(
                format!("pool{i}"),
                Watts(10.0),
                vec![Some(ServiceProfile {
                    time: Seconds(time),
                    energy: Joules(config.energies[i]),
                })],
            )
            .concurrency_limit(slots)
        })
        .collect();
    let arrivals = config.arrivals.iter().map(|&t| Seconds(t)).collect();
    let serving = ServingConfig::new(1.0, Seconds(WINDOW), seed)
        .arrival(ArrivalProcess::Trace(arrivals))
        .queue_capacity(config.queue_capacity);
    let result = simulate_serving(&servers, &serving, scheduler).unwrap();
    assert_eq!(result.arrivals, config.arrivals.len(), "seed {seed}");
    assert_eq!(result.timed_out, 0, "seed {seed}");
    Outcome {
        latencies: result.latencies.iter().map(|l| l.to_bits()).collect(),
        dropped: result.dropped,
        server_queries: result.server_queries,
        server_busy: result
            .server_busy
            .iter()
            .map(|b| b.value().to_bits())
            .collect(),
        query_energy: result.query_energy.value().to_bits(),
    }
}

#[test]
fn fcfs_matches_the_kiefer_wolfowitz_recursion_bit_for_bit() {
    let (mut drops, mut multi_pool) = (0, 0);
    for seed in 0..CONFIGURATIONS {
        let config = configuration(seed);
        let expected = recursion(&config, Placement::Fcfs);
        assert_eq!(
            engine(&config, seed, &mut FcfsScheduler),
            expected,
            "seed {seed}"
        );
        drops += usize::from(expected.dropped > 0);
        multi_pool += usize::from(config.pools.len() > 1);
    }
    // The sample exercises what the recursion decides, not only its
    // single-pool, unbounded-room corner.
    assert!(drops > 100, "{drops} configurations dropped");
    assert!(multi_pool > 500, "{multi_pool} multi-pool configurations");
}

#[test]
fn energy_aware_placement_matches_the_recursion_bit_for_bit() {
    let mut not_lowest_id = 0;
    for seed in 0..CONFIGURATIONS {
        let config = configuration(seed);
        let expected = recursion(&config, Placement::EnergyAware);
        let observed = engine(&config, seed, &mut EnergyAwareScheduler);
        assert_eq!(observed, expected, "seed {seed}");
        let fcfs = recursion(&config, Placement::Fcfs);
        not_lowest_id += usize::from(fcfs.server_queries != expected.server_queries);
    }
    // The energy rule decides placements FCFS would make differently.
    assert!(not_lowest_id > 300, "{not_lowest_id} configurations differ");
}

#[test]
fn jsq_placement_matches_the_recursion_bit_for_bit() {
    let (mut drops, mut not_fcfs) = (0, 0);
    for seed in 0..CONFIGURATIONS {
        let config = configuration(seed);
        let expected = recursion(&config, Placement::JoinShortestQueue);
        let observed = engine(&config, seed, &mut JoinShortestQueue);
        assert_eq!(observed, expected, "seed {seed}");
        drops += usize::from(expected.dropped > 0);
        let fcfs = recursion(&config, Placement::Fcfs);
        not_fcfs += usize::from(fcfs.server_queries != expected.server_queries);
    }
    // Committing to a pool's own queue drops and places differently from
    // waiting centrally for the first free slot.
    assert!(drops > 500, "{drops} configurations dropped");
    assert!(not_fcfs > 500, "{not_fcfs} configurations differ from FCFS");
}

#[test]
fn md1_mean_wait_matches_pollaczek_khinchine() {
    // 4 seeds × ~50,000 Poisson arrivals per load. Over 8 single seeds the
    // mean wait's relative error reached 1.9 % at ρ = 0.5, 3.4 % at 0.7 and
    // 7.9 % at 0.9; for the mean of four, 2 %, 3 % and 8 % are each about
    // three standard deviations. Exponential service would read +100 %
    // (M/M/1 waits twice as long).
    let service = 1.0;
    let server = ServingServer::new(
        "md1",
        Watts(10.0),
        vec![Some(ServiceProfile {
            time: Seconds(service),
            energy: Joules(1.0),
        })],
    );
    for (rho, tolerance) in [(0.5, 0.02), (0.7, 0.03), (0.9, 0.08)] {
        let qps = rho / service;
        let waits: Vec<f64> = (0..4)
            .map(|seed| {
                let config = ServingConfig::new(qps, Seconds(50_000.0 / qps), seed)
                    .queue_capacity(usize::MAX);
                let result =
                    simulate_serving(std::slice::from_ref(&server), &config, &mut FcfsScheduler)
                        .unwrap();
                assert_eq!(result.dropped + result.timed_out, 0);
                result.mean_wait.value()
            })
            .collect();
        let observed = waits.iter().sum::<f64>() / waits.len() as f64;
        let expected = rho * service / (2.0 * (1.0 - rho));
        let error = observed / expected - 1.0;
        assert!(
            error.abs() < tolerance,
            "ρ = {rho}: mean wait {observed:.4} s vs P-K {expected:.4} s ({error:+.3})"
        );
    }
}
