//! "Byte-identical reports" as a per-push test: the FNV-1a-64 digest of
//! `ExperimentReport::to_json_string()` for a small fixed set of experiments
//! covering every lens, both trace engines and the serving report's nested
//! `serving` / `faults` objects.
//!
//! A change that means to alter report output updates the pinned digest
//! below, so the diff shows which reports moved; a change that claims to
//! alter nothing leaves this file alone and still passes.
//! `scripts/same-output.sh` remains the wider (17-file) check.

use eedc::pstore::{ClusterSpec, JoinQuerySpec, RunOptions};
use eedc::simkit::catalog::{cluster_v_node, laptop_b};
use eedc::simkit::units::{Megabytes, Seconds};
use eedc::tpch::ScaleFactor;
use eedc::{
    Analytical, Behavioural, Estimator, Experiment, FaultModel, Measured, RecoveryPolicy,
    ScalePolicy, Serving, ServingWorkload, SweepJoin, Traced, Workload,
};

/// FNV-1a, 64 bit — the hash the benchmark's `output_digest` uses.
fn fnv1a64(bytes: &[u8]) -> String {
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{digest:016x}")
}

fn workload() -> SweepJoin {
    SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle())
}

/// Six designs: homogeneous Beefy scale-downs, two mixes, and an all-Wimpy
/// cluster whose hash table fits no execution mode (an `infeasible` entry).
fn designs() -> Vec<ClusterSpec> {
    [
        ClusterSpec::homogeneous(cluster_v_node(), 16),
        ClusterSpec::homogeneous(cluster_v_node(), 8),
        ClusterSpec::homogeneous(cluster_v_node(), 4),
        ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 8),
        ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 16),
        ClusterSpec::homogeneous(laptop_b(), 4),
    ]
    .into_iter()
    .map(|design| design.unwrap())
    .collect()
}

/// The report of one lens over `designs`, as the figures pipeline writes it.
fn report(
    workload: &dyn Workload,
    designs: &[ClusterSpec],
    lens: impl Estimator + 'static,
) -> String {
    Experiment::new(workload)
        .designs(designs.iter().cloned())
        .estimator(lens)
        .run()
        .unwrap()
        .to_json_string()
}

#[test]
fn model_lens_reports_are_byte_identical() {
    let (workload, designs) = (workload(), designs());
    let reports = [
        report(&workload, &designs, Analytical),
        report(&workload, &designs, Behavioural),
        report(&workload, &designs, Traced::pstore()),
        report(&workload, &designs, Traced::dbms_x()),
    ];
    for json in &reports {
        assert!(json.contains("does not fit any execution mode"), "{json}");
    }
    assert_eq!(
        reports.map(|json| fnv1a64(json.as_bytes())),
        [
            "554516f6c45e067f",
            "b3de59609a3ef545",
            "d8899d65b71b37d2",
            "c03af2bc47b231bc",
        ],
        "analytical, behavioural, traced:pstore, traced:dbms-x"
    );
}

#[test]
fn measured_reports_are_byte_identical() {
    let options = RunOptions {
        engine_scale: ScaleFactor(0.002),
        ..RunOptions::default()
    };
    let designs = &designs()[1..3];
    let json = report(&workload(), designs, Measured::new(options));
    assert!(json.contains("\"output_rows\": "), "{json}");
    assert_eq!(fnv1a64(json.as_bytes()), "0dfc859bfe2e71c9");
}

#[test]
fn serving_reports_are_byte_identical_with_and_without_faults() {
    let mut template = workload();
    template.build_bytes = Megabytes(2_000.0);
    template.probe_bytes = Megabytes(8_000.0);
    let designs = &designs()[1..5];
    let service_time = Analytical
        .estimate(&template.plans()[0], &designs[0])
        .unwrap()
        .response_time
        .value();
    let window = Seconds(200.0 * service_time);
    let steady = ServingWorkload::new(&template, 0.5 / service_time, window, 42);
    let model = FaultModel::new(4.0 * 3_600.0 / window.value())
        .repair_time(Seconds(2.0 * service_time))
        .recovery(RecoveryPolicy::Checkpoint {
            interval: Seconds(service_time / 4.0),
        })
        .outage(
            0,
            Seconds(0.25 * window.value()),
            Seconds(4.0 * service_time),
        )
        .scale(ScalePolicy::new(12, 1, Seconds(2.0 * service_time)));
    let churned = ServingWorkload::new(&template, 0.4 / service_time, window, 4_242)
        .queue_capacity(64)
        .with_faults(model);
    let steady = report(&steady, designs, Serving::fcfs());
    let churned = report(&churned, designs, Serving::fcfs());
    assert!(steady.contains("\"serving\": {") && !steady.contains("\"faults\""));
    assert!(churned.contains("\"faults\": {"), "{churned}");
    assert_eq!(
        [fnv1a64(steady.as_bytes()), fnv1a64(churned.as_bytes())],
        ["990d6ee57e09bdb9", "f454bd6ceac671e0"],
        "steady, churned"
    );
}
