//! The serving engine's default path held to an exact recursion.
//!
//! FCFS placement with a central queue, dedicated slots and deterministic
//! service is the Kiefer–Wolfowitz workload recursion (Lindley's for one
//! slot). Walking the arrivals in order:
//!
//! * an arrival that finds a free slot takes the lowest pool id that has
//!   one (`FcfsScheduler::place`);
//! * otherwise, if the shared waiting room holds `queue_capacity` queries,
//!   it is dropped;
//! * otherwise it waits for the earliest-freeing slot (ties go to the
//!   earliest-scheduled completion), because the central queue is served
//!   oldest first;
//! * it starts at `max(arrival, free_at)` and ends the pool's service time
//!   later.
//!
//! Arrivals replay an `ArrivalProcess::Trace`, so no random draw separates
//! the engine from the recursion, and the recursion must reproduce
//! `latencies` bit for bit, the drop count and every pool's completed
//! queries, on every one of the seeded configurations.

use eedc_dbmsim::{
    simulate_serving, ArrivalProcess, FcfsScheduler, ServiceProfile, ServingConfig, ServingServer,
};
use eedc_simkit::rng::SplitMix64;
use eedc_simkit::units::{Joules, Seconds, Watts};
use std::collections::VecDeque;

const WINDOW: f64 = 200.0;
const CONFIGURATIONS: u64 = 1_000;

/// One seeded cluster and arrival trace.
struct Configuration {
    /// Per pool: (service time in seconds, slots).
    pools: Vec<(f64, usize)>,
    arrivals: Vec<f64>,
    queue_capacity: usize,
}

/// 1–4 pools of 1–3 slots with service 0.2–2.2 s, Poisson arrivals at
/// 0.5–1.1 of the cluster's capacity over a 200 s window, and a waiting
/// room from none to unbounded.
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
    Configuration {
        pools,
        arrivals,
        queue_capacity,
    }
}

/// What the recursion decides: sorted latencies, drops and per-pool
/// completions.
#[derive(Debug, PartialEq)]
struct Outcome {
    latencies: Vec<u64>,
    dropped: usize,
    server_queries: Vec<usize>,
}

fn recursion(config: &Configuration) -> Outcome {
    // Per slot: (free_at, order its current completion was scheduled, pool).
    let mut slots: Vec<(f64, u64, usize)> = config
        .pools
        .iter()
        .enumerate()
        .flat_map(|(pool, &(_, n))| std::iter::repeat_n((0.0, 0, pool), n))
        .collect();
    let mut waiting_starts = VecDeque::new();
    let mut latencies = Vec::new();
    let mut dropped = 0;
    let mut server_queries = vec![0; config.pools.len()];
    for (scheduled, &arrival) in (1..).zip(&config.arrivals) {
        while waiting_starts
            .front()
            .is_some_and(|&start| start <= arrival)
        {
            waiting_starts.pop_front();
        }
        let free = (0..slots.len())
            .filter(|&s| slots[s].0 <= arrival)
            .min_by_key(|&s| slots[s].2);
        let slot = match free {
            Some(slot) => slot,
            None if waiting_starts.len() >= config.queue_capacity => {
                dropped += 1;
                continue;
            }
            None => (0..slots.len())
                .min_by(|&a, &b| {
                    slots[a]
                        .0
                        .total_cmp(&slots[b].0)
                        .then(slots[a].1.cmp(&slots[b].1))
                })
                .expect("every pool has a slot"),
        };
        let pool = slots[slot].2;
        let start = arrival.max(slots[slot].0);
        if start > arrival {
            waiting_starts.push_back(start);
        }
        let end = start + config.pools[pool].0;
        slots[slot] = (end, scheduled, pool);
        latencies.push(end - arrival);
        server_queries[pool] += 1;
    }
    latencies.sort_by(f64::total_cmp);
    Outcome {
        latencies: latencies.iter().map(|l| l.to_bits()).collect(),
        dropped,
        server_queries,
    }
}

fn engine(config: &Configuration, seed: u64) -> Outcome {
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
                    energy: Joules(time * 100.0),
                })],
            )
            .concurrency_limit(slots)
        })
        .collect();
    let arrivals = config.arrivals.iter().map(|&t| Seconds(t)).collect();
    let serving = ServingConfig::new(1.0, Seconds(WINDOW), seed)
        .arrival(ArrivalProcess::Trace(arrivals))
        .queue_capacity(config.queue_capacity);
    let result = simulate_serving(&servers, &serving, &mut FcfsScheduler).unwrap();
    assert_eq!(result.arrivals, config.arrivals.len(), "seed {seed}");
    assert_eq!(result.timed_out, 0, "seed {seed}");
    Outcome {
        latencies: result.latencies.iter().map(|l| l.to_bits()).collect(),
        dropped: result.dropped,
        server_queries: result.server_queries,
    }
}

#[test]
fn fcfs_matches_the_kiefer_wolfowitz_recursion_bit_for_bit() {
    let (mut drops, mut multi_pool) = (0, 0);
    for seed in 0..CONFIGURATIONS {
        let config = configuration(seed);
        let expected = recursion(&config);
        assert_eq!(engine(&config, seed), expected, "seed {seed}");
        drops += usize::from(expected.dropped > 0);
        multi_pool += usize::from(config.pools.len() > 1);
    }
    // The sample exercises what the recursion decides, not only its
    // single-pool, unbounded-room corner.
    assert!(drops > 100, "{drops} configurations dropped");
    assert!(multi_pool > 500, "{multi_pool} multi-pool configurations");
}
