//! "No RNG draw or placement moved" as a per-push test: the FNV-1a-64
//! digest of every field of a `ServingResult` — each latency's bits and
//! every per-pool vector included — for a fixed set of serving runs.
//!
//! The runs cover {fcfs, energy-aware, jsq, po2, random} ×
//! {poisson, trace, ramp} on `scheduler_properties`' heterogeneous
//! cluster, one processor-sharing pool, and every scheduler under the
//! churn configuration (hazard failures, checkpoint recovery, restart cost
//! and an elastic scale policy). A change to the event kernel or the
//! schedulers that claims to alter nothing leaves the pinned digests alone
//! and still passes; a change that means to alter serving output updates
//! them in the same commit.

use eedc_dbmsim::{
    simulate_serving, ArrivalProcess, EnergyAwareScheduler, FaultModel, FcfsScheduler,
    JoinShortestQueue, PowerOfTwoChoices, RampSegment, RandomScheduler, RecoveryPolicy,
    ScalePolicy, Scheduler, ServiceProfile, ServingConfig, ServingResult, ServingServer,
    TransitionCost,
};
use eedc_simkit::units::{Joules, Seconds, Watts};

/// FNV-1a, 64 bit, fed one little-endian word at a time.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    fn f64s(&mut self, values: impl ExactSizeIterator<Item = f64>) {
        self.u64(values.len() as u64);
        for value in values {
            self.f64(value);
        }
    }

    fn usizes(&mut self, values: &[usize]) {
        self.u64(values.len() as u64);
        for &value in values {
            self.u64(value as u64);
        }
    }
}

/// Digest of every field; the exhaustive destructuring makes a new field a
/// compile error here rather than a silent gap.
fn digest(result: &ServingResult) -> String {
    let ServingResult {
        scheduler,
        arrival,
        offered_qps,
        window,
        makespan,
        arrivals,
        completed,
        dropped,
        timed_out,
        failures,
        killed,
        readmitted,
        scale_out_events,
        scale_in_events,
        fault_downtime,
        parked_time,
        availability,
        latencies,
        mean_wait,
        energy,
        query_energy,
        idle_energy,
        overhead_energy,
        server_busy,
        server_energy,
        server_queries,
        server_slots,
        pool_mean_depth,
        pool_max_queued,
        central_mean_depth,
        template_completed,
    } = result;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.str(scheduler);
    h.str(arrival);
    for value in [
        *offered_qps,
        window.value(),
        makespan.value(),
        fault_downtime.value(),
        parked_time.value(),
        *availability,
        mean_wait.value(),
        energy.value(),
        query_energy.value(),
        idle_energy.value(),
        overhead_energy.value(),
        *central_mean_depth,
    ] {
        h.f64(value);
    }
    h.usizes(&[
        *arrivals,
        *completed,
        *dropped,
        *timed_out,
        *failures,
        *killed,
        *readmitted,
        *scale_out_events,
        *scale_in_events,
    ]);
    h.f64s(latencies.iter().copied());
    h.f64s(server_busy.iter().map(|s| s.value()));
    h.f64s(server_energy.iter().map(|j| j.value()));
    h.usizes(server_queries);
    h.usizes(server_slots);
    h.f64s(pool_mean_depth.iter().copied());
    h.usizes(pool_max_queued);
    h.usizes(template_completed);
    format!("{:016x}", h.0)
}

fn profile(time: f64, energy: f64) -> Option<ServiceProfile> {
    Some(ServiceProfile {
        time: Seconds(time),
        energy: Joules(energy),
    })
}

/// The cluster of `scheduler_properties`: pool 0 serves both templates on
/// four slots, the cheaper pool 1 only template 0 on two.
fn heterogeneous_cluster() -> Vec<ServingServer> {
    vec![
        ServingServer::new(
            "beefy",
            Watts(120.0),
            vec![profile(0.4, 250.0), profile(1.6, 900.0)],
        )
        .concurrency_limit(4),
        ServingServer::new("wimpy", Watts(30.0), vec![profile(1.0, 80.0), None])
            .concurrency_limit(2),
    ]
}

/// The arrival laws of `scheduler_properties`.
fn arrival_processes() -> Vec<ArrivalProcess> {
    let ramp = [(0.5, 100.0), (6.0, 100.0), (0.0, 100.0), (2.0, 100.0)];
    vec![
        ArrivalProcess::Poisson { qps: 2.5 },
        ArrivalProcess::Trace(
            (0..900)
                .map(|i| Seconds((i / 3) as f64 * 0.9 + (i % 3) as f64 * 0.01))
                .collect(),
        ),
        ArrivalProcess::Ramp(
            ramp.iter()
                .map(|&(qps, duration)| RampSegment {
                    duration: Seconds(duration),
                    qps,
                })
                .collect(),
        ),
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

const SCHEDULERS: [&str; 5] = ["fcfs", "energy-aware", "jsq", "po2", "random"];

fn scheduler(name: &str) -> Box<dyn Scheduler> {
    match name {
        "fcfs" => Box::new(FcfsScheduler),
        "energy-aware" => Box::new(EnergyAwareScheduler),
        "jsq" => Box::new(JoinShortestQueue),
        "po2" => Box::new(PowerOfTwoChoices),
        "random" => Box::new(RandomScheduler),
        other => panic!("unknown scheduler {other}"),
    }
}

fn run(servers: &[ServingServer], config: &ServingConfig, name: &str) -> ServingResult {
    simulate_serving(servers, config, scheduler(name).as_mut()).unwrap()
}

#[test]
fn every_scheduler_and_arrival_law_reproduces_its_pinned_digest() {
    let servers = heterogeneous_cluster();
    let mut digests = Vec::new();
    for arrival in arrival_processes() {
        let config = config_with(arrival);
        for name in SCHEDULERS {
            digests.push(format!(
                "{name}/{} {}",
                config.arrival.kind(),
                digest(&run(&servers, &config, name))
            ));
        }
    }
    assert_eq!(
        digests,
        [
            "fcfs/poisson 7bfb28572ab27ee1",
            "energy-aware/poisson ad9c05aacb1f8f5b",
            "jsq/poisson 51354cf74607474d",
            "po2/poisson f019029049c353b2",
            "random/poisson 312d661b0a351790",
            "fcfs/trace c5fd526c905f6e1f",
            "energy-aware/trace 7131f91d58dd2dcc",
            "jsq/trace 3269c84ff904de1e",
            "po2/trace df589ee8969722c3",
            "random/trace 07c7866a69e240bc",
            "fcfs/ramp ea40f73931c06841",
            "energy-aware/ramp af38e01380864360",
            "jsq/ramp 32d501511c10c7a8",
            "po2/ramp e1ac5018c4baa5c6",
            "random/ramp 9c02c2bdf18691b4",
        ]
    );
}

#[test]
fn a_processor_sharing_pool_reproduces_its_pinned_digest() {
    let mut servers = heterogeneous_cluster();
    servers[0] = servers[0].clone().processor_sharing();
    let config = config_with(ArrivalProcess::Poisson { qps: 2.0 });
    let result = run(&servers, &config, "jsq");
    assert!(
        result.server_queries[0] > 0,
        "the shared pool served nothing"
    );
    assert_eq!(digest(&result), "5fca85a872e58922");
}

#[test]
fn every_scheduler_under_churn_reproduces_its_pinned_digest() {
    let servers = vec![
        ServingServer::new(
            "beefy",
            Watts(120.0),
            vec![profile(0.5, 300.0), profile(2.0, 1_200.0)],
        )
        .concurrency_limit(4)
        .nodes(4),
        ServingServer::new("wimpy-a", Watts(30.0), vec![profile(1.5, 90.0), None])
            .concurrency_limit(2)
            .nodes(8),
        ServingServer::new("wimpy-b", Watts(30.0), vec![profile(1.5, 90.0), None])
            .concurrency_limit(2)
            .nodes(8),
    ];
    let model = FaultModel::new(1.5)
        .repair_time(Seconds(40.0))
        .recovery(RecoveryPolicy::Checkpoint {
            interval: Seconds(0.5),
        })
        .restart_cost(TransitionCost {
            time: Seconds(5.0),
            energy: Joules(800.0),
        })
        .scale(
            ScalePolicy::new(12, 1, Seconds(25.0))
                .min_pools(1)
                .migration_cost(TransitionCost {
                    time: Seconds(10.0),
                    energy: Joules(400.0),
                }),
        );
    let config = ServingConfig::new(1.4, Seconds(1_200.0), 2_024)
        .template_theta(0.8)
        .queue_capacity(128)
        .max_wait(Seconds(60.0))
        .exponential_service()
        .faults(model);
    let digests: Vec<String> = SCHEDULERS
        .iter()
        .map(|name| {
            let result = run(&servers, &config, name);
            // The churn paths really ran: kills, re-admission and scaling.
            assert!(result.failures > 0 && result.readmitted > 0, "{name}");
            assert!(
                result.scale_in_events + result.scale_out_events > 0,
                "{name}"
            );
            format!("{name} {}", digest(&result))
        })
        .collect();
    assert_eq!(
        digests,
        [
            "fcfs 594267b18ecf6ea0",
            "energy-aware d6fe26f3de24bbaa",
            "jsq a39f02f66774f8af",
            "po2 e3c9bddf915d277c",
            "random 89f705dcd6bec598",
        ]
    );
}
