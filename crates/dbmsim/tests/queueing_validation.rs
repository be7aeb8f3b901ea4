//! Queueing-theory cross-validation of the serving simulator.
//!
//! Every mechanism PR 9 adds to `eedc_dbmsim::serving` has a closed-form
//! ground truth, and this suite holds the simulator to it:
//!
//! * a concurrency-limited pool under Poisson arrivals and exponential
//!   service is an **M/M/c** queue — its mean wait must match **Erlang-C**;
//! * a processor-sharing pool is an **M/M/1-PS** queue — its mean sojourn
//!   is `1/(μ−λ)` *regardless of the service distribution* (the classic
//!   insensitivity result), which doubles as a check that the sharing
//!   engine is not quietly FCFS;
//! * **power-of-two-choices** must beat blind random assignment on mean
//!   queue depth at the same load (Mitzenmacher/Vvedenskaya).
//!
//! All runs are seeded and deterministic: a failure here reproduces
//! bit-identically.

use eedc_dbmsim::{
    simulate_serving, FcfsScheduler, PowerOfTwoChoices, RandomScheduler, ServiceProfile,
    ServingConfig, ServingServer,
};
use eedc_simkit::units::{Joules, Seconds, Watts};

fn pool(label: &str, service_time: f64, limit: usize) -> ServingServer {
    ServingServer::new(
        label,
        Watts(50.0),
        vec![Some(ServiceProfile {
            time: Seconds(service_time),
            energy: Joules(100.0),
        })],
    )
    .concurrency_limit(limit)
}

/// Erlang-C mean queueing delay for an M/M/c queue: with offered load
/// `a = λ/μ` and utilization `ρ = a/c`,
/// `P_wait = (a^c/c!)·(1/(1−ρ)) / (Σ_{k<c} a^k/k! + (a^c/c!)·(1/(1−ρ)))`
/// and `W_q = P_wait / (c·μ − λ)`.
fn erlang_c_mean_wait(lambda: f64, mu: f64, c: usize) -> f64 {
    let a = lambda / mu;
    let rho = a / c as f64;
    assert!(rho < 1.0, "Erlang-C needs a stable queue");
    let mut term = 1.0; // a^k / k!
    let mut sum = 0.0;
    for k in 0..c {
        if k > 0 {
            term *= a / k as f64;
        }
        sum += term;
    }
    let tail = term * (a / c as f64) / (1.0 - rho); // a^c/c! · 1/(1−ρ)
    let p_wait = tail / (sum + tail);
    p_wait / (c as f64 * mu - lambda)
}

/// A 4-slot pool at ρ = 0.8 must land within 5% of the Erlang-C mean wait.
#[test]
fn mmc_mean_wait_matches_erlang_c() {
    let c = 4;
    let mu = 1.0;
    let lambda = 3.2; // ρ = λ/(cμ) = 0.8
    let servers = vec![pool("mmc", 1.0 / mu, c)];
    let config = ServingConfig::new(lambda, Seconds(120_000.0), 20_240)
        .queue_capacity(usize::MAX)
        .exponential_service();
    let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
    assert!(result.arrivals > 300_000, "arrivals {}", result.arrivals);
    assert_eq!(result.dropped + result.timed_out, 0);
    assert_eq!(result.completed, result.arrivals);

    let expected = erlang_c_mean_wait(lambda, mu, c);
    let observed = result.mean_wait.value();
    assert!(
        (observed - expected).abs() / expected < 0.05,
        "simulated M/M/{c} mean wait {observed:.4} vs Erlang-C {expected:.4}"
    );
    // Per-slot utilization converges to ρ.
    assert!(
        (result.server_utilization(0).unwrap() - 0.8).abs() < 0.02,
        "utilization {:?}",
        result.server_utilization(0)
    );
}

/// Degenerate cross-check: Erlang-C at c = 1 is the M/M/1 wait ρ/(μ−λ),
/// and the simulator agrees there too (ties this suite to the PR 7 test).
#[test]
fn erlang_c_degenerates_to_mm1() {
    let lambda = 0.8;
    let mu = 1.0;
    let closed = erlang_c_mean_wait(lambda, mu, 1);
    let mm1 = (lambda / mu) / (mu - lambda);
    assert!((closed - mm1).abs() < 1e-12, "{closed} vs {mm1}");

    let servers = vec![pool("mm1", 1.0 / mu, 1)];
    let config = ServingConfig::new(lambda, Seconds(120_000.0), 77)
        .queue_capacity(usize::MAX)
        .exponential_service();
    let result = simulate_serving(&servers, &config, &mut FcfsScheduler).unwrap();
    let observed = result.mean_wait.value();
    assert!(
        (observed - closed).abs() / closed < 0.05,
        "simulated {observed:.4} vs closed form {closed:.4}"
    );
}

/// M/M/1-PS mean sojourn equals the M/M/1 FCFS sojourn `1/(μ−λ)` — the
/// processor-sharing queue redistributes waiting into slowdown without
/// changing the mean.
#[test]
fn mm1_ps_mean_sojourn_matches_mm1_fcfs() {
    let lambda = 0.8;
    let mu = 1.0;
    let expected = 1.0 / (mu - lambda); // 5 s

    let ps = vec![pool("ps", 1.0 / mu, usize::MAX >> 1).processor_sharing()];
    let config = ServingConfig::new(lambda, Seconds(120_000.0), 9_001)
        .queue_capacity(usize::MAX)
        .exponential_service();
    let ps_result = simulate_serving(&ps, &config, &mut FcfsScheduler).unwrap();
    assert_eq!(ps_result.completed, ps_result.arrivals);
    let ps_sojourn = ps_result.mean_latency().value();
    assert!(
        (ps_sojourn - expected).abs() / expected < 0.05,
        "M/M/1-PS mean sojourn {ps_sojourn:.4} vs 1/(μ−λ) = {expected:.4}"
    );
    // Under PS nobody waits in a queue — service starts immediately and the
    // delay shows up as slowdown instead.
    assert_eq!(ps_result.mean_wait, Seconds(0.0));

    // The FCFS twin of the same system agrees on the mean sojourn.
    let fcfs = vec![pool("fcfs", 1.0 / mu, 1)];
    let fcfs_result = simulate_serving(&fcfs, &config, &mut FcfsScheduler).unwrap();
    let fcfs_sojourn = fcfs_result.mean_latency().value();
    assert!(
        (ps_sojourn - fcfs_sojourn).abs() / fcfs_sojourn < 0.05,
        "PS {ps_sojourn:.4} vs FCFS {fcfs_sojourn:.4}"
    );
}

/// The insensitivity half of the M/M/1-PS result: with *deterministic*
/// service (an M/D/1-PS queue) the mean sojourn is still `1/(μ−λ)`,
/// while FCFS with deterministic service waits only half as long
/// (Pollaczek–Khinchine). If the sharing engine were secretly FCFS this
/// test would catch it.
#[test]
fn ps_sojourn_is_insensitive_to_the_service_distribution() {
    let lambda = 0.8;
    let mu = 1.0;
    let expected = 1.0 / (mu - lambda);

    let ps = vec![pool("ps", 1.0 / mu, usize::MAX >> 1).processor_sharing()];
    let config = ServingConfig::new(lambda, Seconds(120_000.0), 555).queue_capacity(usize::MAX);
    // Deterministic service (the config default).
    let ps_result = simulate_serving(&ps, &config, &mut FcfsScheduler).unwrap();
    let ps_sojourn = ps_result.mean_latency().value();
    assert!(
        (ps_sojourn - expected).abs() / expected < 0.05,
        "M/D/1-PS mean sojourn {ps_sojourn:.4} vs insensitive value {expected:.4}"
    );

    // FCFS under deterministic service: P-K mean wait ρ/(2(μ−λ)) = 2 s, so
    // sojourn ≈ 3 s — far below the PS value of 5 s.
    let fcfs = vec![pool("fcfs", 1.0 / mu, 1)];
    let fcfs_result = simulate_serving(&fcfs, &config, &mut FcfsScheduler).unwrap();
    let md1_sojourn = 1.0 / mu + (lambda / mu) / (2.0 * (mu - lambda));
    let fcfs_sojourn = fcfs_result.mean_latency().value();
    assert!(
        (fcfs_sojourn - md1_sojourn).abs() / md1_sojourn < 0.05,
        "M/D/1 FCFS sojourn {fcfs_sojourn:.4} vs P-K {md1_sojourn:.4}"
    );
    assert!(
        ps_sojourn > 1.5 * fcfs_sojourn,
        "PS ({ps_sojourn:.4}) and FCFS ({fcfs_sojourn:.4}) must differ under \
         deterministic service — otherwise sharing is not happening"
    );
}

/// Power-of-two-choices strictly beats blind random assignment on mean
/// queue depth at heavy load, and the mean tail follows.
#[test]
fn po2_mean_depth_is_strictly_below_random_assignment() {
    let n = 8;
    let servers: Vec<ServingServer> = (0..n).map(|i| pool(&format!("s{i}"), 1.0, 1)).collect();
    let config = ServingConfig::new(0.9 * n as f64, Seconds(20_000.0), 4_242)
        .queue_capacity(usize::MAX)
        .exponential_service();
    let po2 = simulate_serving(&servers, &config, &mut PowerOfTwoChoices).unwrap();
    let random = simulate_serving(&servers, &config, &mut RandomScheduler).unwrap();
    assert_eq!(po2.completed, po2.arrivals);
    assert_eq!(random.completed, random.arrivals);

    let po2_depth = po2.mean_system_depth();
    let random_depth = random.mean_system_depth();
    assert!(
        po2_depth < random_depth,
        "po2 mean depth {po2_depth:.3} must undercut random {random_depth:.3}"
    );
    // The gap at ρ = 0.9 is large (the doubly-exponential improvement), not
    // a statistical whisker.
    assert!(
        po2_depth < 0.6 * random_depth,
        "po2 {po2_depth:.3} vs random {random_depth:.3}: gap too small"
    );
    assert!(po2.p99() < random.p99());

    // Both runs are reproducible: the po2 probes draw from the seeded RNG.
    let again = simulate_serving(&servers, &config, &mut PowerOfTwoChoices).unwrap();
    assert_eq!(po2, again);
}
