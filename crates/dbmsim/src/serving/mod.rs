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
//! Event flow (each hop is one event on the
//! [`Simulation`](eedc_simkit::sim::Simulation) kernel):
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
//! `crates/dbmsim/tests/queueing_validation.rs`. Beside it,
//! `crates/dbmsim/tests/fcfs_recursion.rs` is the exact oracle for FCFS,
//! energy-aware and JSQ placement: with dedicated slots, deterministic
//! service and trace arrivals, the Kiefer–Wolfowitz workload recursion
//! reproduces the engine's latencies, drops, busy time and energy bit for
//! bit.
//!
//! Fault injection and elastic lifecycle live in [`crate::faults`]: attach a
//! [`FaultModel`](crate::faults::FaultModel) via [`ServingConfig::faults`]
//! and the engine schedules
//! node-down / node-up events — in-flight queries on a failed pool are
//! killed and dropped, replayed, or checkpoint-resumed per
//! [`RecoveryPolicy`](crate::faults::RecoveryPolicy); restart energy and
//! warm-up time are billed to the run; and a queue-depth
//! [`ScalePolicy`](crate::faults::ScalePolicy) parks and revives whole
//! pools mid-run, billing data movement per transition. An inert model
//! ([`FaultModel::is_inert`](crate::faults::FaultModel::is_inert)) schedules
//! no events and consumes no RNG draws, so fault-free results stay
//! bit-identical.
//!
//! The module is five files, cut along its seams: `config.rs` (service
//! profiles, pools, arrival laws, the run configuration and their input
//! checks), `scheduler.rs` ([`PoolView`], the [`Scheduler`] trait and the
//! five policies), `engine.rs` (per-pool state, the event handler and
//! [`simulate_serving`]), `result.rs` ([`ServingResult`] and its
//! accessors), and this `mod.rs` (the re-exports and the end-to-end tests).

mod config;
mod engine;
mod result;
mod scheduler;

pub use config::{
    ArrivalProcess, RampSegment, ServiceDistribution, ServiceMode, ServiceProfile, ServingConfig,
    ServingServer,
};
pub use engine::simulate_serving;
pub use result::ServingResult;
pub use scheduler::{
    EnergyAwareScheduler, FcfsScheduler, JoinShortestQueue, PoolView, PowerOfTwoChoices,
    RandomScheduler, Scheduler,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultModel, RecoveryPolicy, ScalePolicy, TransitionCost};
    use eedc_simkit::units::{Joules, Seconds, Watts};

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
        assert!((result.server_utilization(0).unwrap() - rho).abs() < 0.02);
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
        assert!(result.server_utilization(0).unwrap() > 0.95);
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
        assert!((pooled.server_utilization(0).unwrap() - 0.75).abs() < 0.05);
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
        // Energies that would total NaN or a negative number of joules.
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let bad_energy = vec![server("s", &[Some((1.0, bad))], 1.0)];
            assert!(simulate_serving(&bad_energy, &plain, &mut FcfsScheduler).is_err());
            let bad_idle = vec![server("s", &[Some((1.0, 1.0))], bad)];
            assert!(simulate_serving(&bad_idle, &plain, &mut FcfsScheduler).is_err());
        }
        // Zero is a legal energy and a legal idle power.
        let free = vec![server("s", &[Some((1.0, 0.0))], 0.0)];
        let result = simulate_serving(&free, &plain, &mut FcfsScheduler).unwrap();
        assert_eq!(result.energy, Joules::zero());
        // A one-pool result has utilization for pool 0 only.
        let result = simulate_serving(&ok, &plain, &mut FcfsScheduler).unwrap();
        assert!(result.server_utilization(0).is_some());
        assert_eq!(result.server_utilization(1), None);
        assert_eq!(result.server_utilization(3), None);
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
