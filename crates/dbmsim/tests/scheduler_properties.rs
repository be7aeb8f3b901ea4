//! Property tests for every `Scheduler` × `ArrivalProcess` combination.
//!
//! Three invariants must hold for *any* placement policy the serving layer
//! ships, under *any* arrival law:
//!
//! 1. **Capability** — no query is ever dispatched to a pool whose
//!    `can_serve` rejects its template (checked by wrapping each policy in
//!    a recorder that sees every placement decision).
//! 2. **Conservation** — completed + dropped + timed-out = arrivals once
//!    the run drains (the simulator runs to quiescence, so nothing stays
//!    in flight).
//! 3. **Determinism** — the same seed reproduces a bit-identical
//!    `ServingResult`, including for policies that consume RNG draws.
//!
//! The matrix is {FCFS, energy-aware, JSQ, po2, random} ×
//! {Poisson, trace, ramp} over a heterogeneous two-pool cluster where the
//! second template only fits pool 0 — the capability property is load-
//! bearing, not vacuous.

use eedc_dbmsim::{
    simulate_serving, ArrivalProcess, EnergyAwareScheduler, FcfsScheduler, JoinShortestQueue,
    PoolView, PowerOfTwoChoices, RampSegment, RandomScheduler, Scheduler, ServiceProfile,
    ServingConfig, ServingServer,
};
use eedc_simkit::units::{Joules, Seconds, Watts};

/// Wraps a policy and records every (template, pool) commitment it makes.
struct Recording<S> {
    inner: S,
    placements: Vec<(usize, usize)>,
}

impl<S: Scheduler> Recording<S> {
    fn new(inner: S) -> Self {
        Recording {
            inner,
            placements: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for Recording<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn place(
        &mut self,
        template: usize,
        servers: &[ServingServer],
        pools: &[PoolView],
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        let choice = self.inner.place(template, servers, pools, draw);
        if let Some(pool) = choice {
            self.placements.push((template, pool));
        }
        choice
    }
}

fn heterogeneous_cluster() -> Vec<ServingServer> {
    let profile = |time: f64, energy: f64| {
        Some(ServiceProfile {
            time: Seconds(time),
            energy: Joules(energy),
        })
    };
    vec![
        // Pool 0 serves both templates, four slots.
        ServingServer::new(
            "beefy",
            Watts(120.0),
            vec![profile(0.4, 250.0), profile(1.6, 900.0)],
        )
        .concurrency_limit(4),
        // Pool 1 serves only template 0, cheaper, two slots.
        ServingServer::new("wimpy", Watts(30.0), vec![profile(1.0, 80.0), None])
            .concurrency_limit(2),
    ]
}

fn arrival_processes() -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Poisson { qps: 2.5 },
        // A bursty recorded trace: pairs and triples landing together.
        ArrivalProcess::Trace(
            (0..900)
                .map(|i| Seconds((i / 3) as f64 * 0.9 + (i % 3) as f64 * 0.01))
                .collect(),
        ),
        ArrivalProcess::Ramp(vec![
            RampSegment {
                duration: Seconds(100.0),
                qps: 0.5,
            },
            RampSegment {
                duration: Seconds(100.0),
                qps: 6.0,
            },
            RampSegment {
                duration: Seconds(100.0),
                qps: 0.0,
            },
            RampSegment {
                duration: Seconds(100.0),
                qps: 2.0,
            },
        ]),
    ]
}

fn config_with(arrival: ArrivalProcess) -> ServingConfig {
    ServingConfig::new(1.0, Seconds(300.0), 31_337)
        .arrival(arrival)
        .template_theta(0.8)
        .queue_capacity(64)
        .max_wait(Seconds(25.0))
        .exponential_service()
}

fn run_matrix(mut check: impl FnMut(&str, &str, &[ServingServer], &ServingConfig)) {
    let servers = heterogeneous_cluster();
    for arrival in arrival_processes() {
        let config = config_with(arrival);
        for scheduler in ["fcfs", "energy-aware", "jsq", "po2", "random"] {
            check(scheduler, config.arrival.kind(), &servers, &config);
        }
    }
}

fn run_recorded(
    name: &str,
    servers: &[ServingServer],
    config: &ServingConfig,
) -> (eedc_dbmsim::ServingResult, Vec<(usize, usize)>) {
    // The recorder wrapper keeps the inner policy's name, so results remain
    // comparable with unwrapped runs.
    macro_rules! run {
        ($inner:expr) => {{
            let mut recording = Recording::new($inner);
            let result = simulate_serving(servers, config, &mut recording).unwrap();
            (result, recording.placements)
        }};
    }
    match name {
        "fcfs" => run!(FcfsScheduler),
        "energy-aware" => run!(EnergyAwareScheduler),
        "jsq" => run!(JoinShortestQueue),
        "po2" => run!(PowerOfTwoChoices),
        "random" => run!(RandomScheduler),
        other => panic!("unknown scheduler {other}"),
    }
}

/// Property 1: no policy ever commits a query to a pool that cannot serve
/// its template.
#[test]
fn no_policy_dispatches_to_an_incapable_pool() {
    run_matrix(|name, arrival, servers, config| {
        let (result, placements) = run_recorded(name, servers, config);
        assert!(
            !placements.is_empty(),
            "{name}/{arrival}: the recorder saw no placements"
        );
        for &(template, pool) in &placements {
            assert!(
                servers[pool].can_serve(template),
                "{name}/{arrival}: template {template} placed on incapable pool {pool}"
            );
        }
        // The restricted template really occurred and really completed.
        assert!(
            result.template_completed[1] > 0,
            "{name}/{arrival}: template 1 never completed — capability check is vacuous"
        );
    });
}

/// Property 2: arrivals are conserved — after the run drains, every arrival
/// either completed, was dropped at admission, or timed out in a queue.
#[test]
fn arrivals_are_conserved_across_every_policy_and_arrival_law() {
    run_matrix(|name, arrival, servers, config| {
        let (result, _) = run_recorded(name, servers, config);
        assert!(result.arrivals > 0, "{name}/{arrival}: no arrivals");
        assert_eq!(
            result.completed + result.dropped + result.timed_out,
            result.arrivals,
            "{name}/{arrival}: conservation violated"
        );
        assert_eq!(result.completed, result.latencies.len());
        assert_eq!(
            result.server_queries.iter().sum::<usize>(),
            result.completed,
            "{name}/{arrival}: per-server counts disagree with the total"
        );
        assert_eq!(
            result.template_completed.iter().sum::<usize>(),
            result.completed,
            "{name}/{arrival}: per-template counts disagree with the total"
        );
        // Latencies are sorted and non-negative, so percentiles are sane.
        assert!(result
            .latencies
            .windows(2)
            .all(|w| w[0] <= w[1] && w[0] >= 0.0));
        assert_eq!(result.scheduler, name);
        assert_eq!(result.arrival, arrival);
    });
}

/// Property 3: same seed ⇒ bit-identical result, for every policy including
/// the ones that consume RNG draws (po2, random), under every arrival law.
#[test]
fn same_seed_reproduces_bit_identically_for_every_combination() {
    run_matrix(|name, arrival, servers, config| {
        let (a, placements_a) = run_recorded(name, servers, config);
        let (b, placements_b) = run_recorded(name, servers, config);
        assert_eq!(a, b, "{name}/{arrival}: results diverged under one seed");
        assert_eq!(
            placements_a, placements_b,
            "{name}/{arrival}: placements diverged under one seed"
        );
        // And a different seed genuinely perturbs randomized runs (Poisson
        // gaps, service draws, po2 probes all consume the stream).
        let reseeded = ServingConfig {
            seed: config.seed + 1,
            ..config.clone()
        };
        let (c, _) = run_recorded(name, servers, &reseeded);
        assert_ne!(
            a.latencies, c.latencies,
            "{name}/{arrival}: a different seed changed nothing"
        );
    });
}

/// A foreign policy that always commits to one fixed pool, whatever it is.
struct Rogue(usize);

impl Scheduler for Rogue {
    fn name(&self) -> String {
        "rogue".into()
    }

    fn place(
        &mut self,
        _template: usize,
        _servers: &[ServingServer],
        _pools: &[PoolView],
        _draw: &mut dyn FnMut() -> f64,
    ) -> Option<usize> {
        Some(self.0)
    }
}

fn rogue_error(pool: usize) -> String {
    let config = config_with(ArrivalProcess::Poisson { qps: 2.5 });
    match simulate_serving(&heterogeneous_cluster(), &config, &mut Rogue(pool)) {
        Ok(result) => panic!("a rogue placement on pool {pool} ran to completion: {result:?}"),
        Err(error) => error.to_string(),
    }
}

/// A scheduler naming a pool the cluster does not have is an error naming
/// the scheduler, the pool and the template — not an index panic.
#[test]
fn an_out_of_range_placement_is_an_error() {
    let error = rogue_error(7);
    assert!(
        error.contains("'rogue'") && error.contains("pool 7") && error.contains("template 0"),
        "{error}"
    );
}

/// A scheduler committing a template to a pool that cannot serve it is an
/// error naming all three — not a panic when service starts.
#[test]
fn an_incapable_placement_is_an_error() {
    let error = rogue_error(1);
    assert!(
        error.contains("'rogue'") && error.contains("pool 1") && error.contains("template 1"),
        "{error}"
    );
}
