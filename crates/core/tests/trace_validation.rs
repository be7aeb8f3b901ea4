//! Cross-lens validation of the trace-driven behavioural simulator.
//!
//! Three claims are held here:
//!
//! 1. **Traced replay agrees with the measured lens.** A utilization trace
//!    exported from a real `PStoreCluster` execution and replayed through
//!    the node power models must reproduce the measured response time and
//!    total energy within 1% (the busy-share ↔ utilization map is an exact
//!    inverse, so the agreement is really float-exact; 1% is the stated
//!    envelope).
//! 2. **The Section 3.2 shape.** The DBMS-X engine behaviour — disk-staged
//!    intermediates plus a mid-query restart — strictly dominates the
//!    pipelined P-store behaviour in both response time and energy on every
//!    design of the homogeneous scale-down sweep.
//! 3. **Figures series round-trip.** A four-lens experiment report written
//!    by the JSON writer reads back bit-equal through the
//!    `eedc_core::json` reader.

use eedc_core::{
    Analytical, Behavioural, Experiment, ExperimentReport, Measured, SweepJoin, Traced, Workload,
};
use eedc_dbmsim::{replay, EngineBehaviour, RestartPolicy, UtilizationTrace};
use eedc_pstore::{ClusterSpec, JoinQuerySpec, JoinStrategy, PStoreCluster, RunOptions};
use eedc_simkit::catalog::cluster_v_node;
use eedc_tpch::ScaleFactor;

/// Engine-scale options small enough for test-speed measured runs.
fn small_options() -> RunOptions {
    RunOptions {
        engine_scale: ScaleFactor(0.001),
        ..RunOptions::default()
    }
}

fn homogeneous(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(cluster_v_node(), n).expect("spec is valid")
}

#[test]
fn traced_replay_of_an_exported_trace_matches_the_measured_lens() {
    let design = homogeneous(4);
    let options = small_options();
    let cluster = PStoreCluster::load(design.clone(), options).unwrap();
    let query = JoinQuerySpec::q3_dual_shuffle();
    let execution = cluster.run(&query, JoinStrategy::DualShuffle).unwrap();

    let trace =
        UtilizationTrace::from_execution(&execution, design.nodes(), options.in_memory).unwrap();
    assert_eq!(trace.len(), execution.phases.len());
    assert_eq!(trace.node_count(), 4);

    let replayed = replay(&trace, design.nodes()).unwrap();
    // Stated envelope: 1%. The busy-share round trip is exact, so the
    // agreement is limited only by float arithmetic.
    let measured_time = execution.response_time().value();
    let measured_energy = execution.energy().value();
    let dt = (replayed.response_time().value() - measured_time).abs() / measured_time;
    let de = (replayed.energy().value() - measured_energy).abs() / measured_energy;
    assert!(dt < 0.01, "response time diverged by {:.4}%", 100.0 * dt);
    assert!(de < 0.01, "energy diverged by {:.4}%", 100.0 * de);
    // Per-node energies agree too — the trace preserves the whole profile,
    // not just the totals.
    let node_energy = replayed.node_energy();
    for (phase, replayed_phase) in execution.phases.iter().zip(&replayed.phases) {
        assert_eq!(phase.label, replayed_phase.label);
    }
    for (id, joules) in node_energy.iter().enumerate() {
        let measured: f64 = execution
            .phases
            .iter()
            .map(|p| p.node_energy[id].value())
            .sum();
        let diff = (joules.value() - measured).abs() / measured;
        assert!(
            diff < 0.01,
            "node {id} energy diverged by {:.4}%",
            100.0 * diff
        );
    }
}

#[test]
fn dbms_x_shaping_of_a_measured_trace_costs_strictly_more() {
    // The engine what-if the measured lens cannot reach: take a real run's
    // trace and ask what DBMS-X would have done with it.
    let design = homogeneous(4);
    let options = small_options();
    let cluster = PStoreCluster::load(design.clone(), options).unwrap();
    let execution = cluster
        .run(&JoinQuerySpec::q3_dual_shuffle(), JoinStrategy::DualShuffle)
        .unwrap();
    let trace =
        UtilizationTrace::from_execution(&execution, design.nodes(), options.in_memory).unwrap();

    let dbms_x = EngineBehaviour::dbms_x();
    let shaped = dbms_x.apply(&trace, design.nodes()).unwrap();
    let replayed = replay(&shaped, design.nodes()).unwrap();
    assert!(replayed.response_time() > execution.response_time());
    assert!(replayed.energy() > execution.energy());
    // The staged phases exist and burn floor power at zero CPU busy time.
    let stage = replayed.phase("probe/stage").expect("staging phase exists");
    assert!(stage.energy.value() > 0.0);
    assert_eq!(stage.cpu_time.value(), 0.0);
}

#[test]
fn dbms_x_restart_behaviour_dominates_pstore_on_the_scale_down_sweep() {
    // The Section 3.2 shape assertion: across the homogeneous scale-down
    // sweep, the DBMS-X engine strictly dominates the P-store engine on
    // energy (and time) at every cluster size, and the penalty includes
    // both staging and restart work: a staging-only engine sits strictly
    // between the two.
    let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
    let staging_only =
        EngineBehaviour::new("staging", true, RestartPolicy::none()).expect("policy is valid");
    let report = Experiment::new(&workload)
        .designs([16, 8, 4].map(homogeneous))
        .estimator(Traced::pstore())
        .estimator(Traced::dbms_x())
        .estimator(Traced::with_engine(staging_only))
        .run()
        .unwrap();
    let pstore = &report.series[0];
    let dbms_x = &report.series[1];
    let staging = &report.series[2];
    assert_eq!(pstore.records.len(), 3);
    assert_eq!(dbms_x.records.len(), 3);
    assert_eq!(staging.records.len(), 3);
    for ((p, x), s) in pstore
        .records
        .iter()
        .zip(&dbms_x.records)
        .zip(&staging.records)
    {
        assert_eq!(p.design, x.design);
        assert!(s.energy > p.energy, "{}: staging does not cost", p.design);
        assert!(x.energy > s.energy, "{}: restart does not cost", p.design);
        assert!(
            x.energy > p.energy,
            "{}: DBMS-X energy {:.0} does not dominate P-store {:.0}",
            p.design,
            x.energy.value(),
            p.energy.value(),
        );
        assert!(x.response_time > p.response_time, "{}", p.design);
        // The restart alone replays half the run: the penalty is at least
        // 1.5x before staging is even counted.
        assert!(
            x.energy.value() > 1.5 * p.energy.value(),
            "{}: penalty ratio only {:.3}",
            p.design,
            x.energy.value() / p.energy.value(),
        );
        // Staged and redo phases show up in the per-phase series.
        assert!(x.phases.iter().any(|ph| ph.label.ends_with("/stage")));
        assert!(x.phases.iter().any(|ph| ph.label.starts_with("redo1/")));
        assert!(p.phases.iter().all(|ph| !ph.label.contains("stage")));
    }
    // And the pipelined traced lens reproduces the analytical lens, so the
    // dominance statement transfers to the closed-form numbers as well.
    let analytical = Experiment::new(&workload)
        .designs([16, 8, 4].map(homogeneous))
        .estimator(Analytical)
        .run()
        .unwrap();
    for (a, p) in analytical.series[0].records.iter().zip(&pstore.records) {
        assert!(
            (a.energy.value() - p.energy.value()).abs() < 1e-6 * a.energy.value(),
            "{}: traced(p-store) diverged from analytical",
            a.design
        );
    }
}

#[test]
fn four_lens_figures_series_round_trip_through_the_json_reader() {
    // One experiment, all four lenses over the same two designs — the
    // figures pipeline's shape — written to disk and read back bit-equal.
    let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
    let report = Experiment::new(&workload)
        .designs([homogeneous(4), homogeneous(2)])
        .estimator(Measured::new(small_options()))
        .estimator(Analytical)
        .estimator(Behavioural)
        .estimator(Traced::dbms_x())
        .run()
        .unwrap();
    assert_eq!(report.series.len(), 4);
    let estimators: Vec<&str> = report.series.iter().map(|s| s.estimator.as_str()).collect();
    assert_eq!(
        estimators,
        ["measured", "analytical", "behavioural", "traced:dbms-x"]
    );

    let dir = std::env::temp_dir().join("eedc-trace-validation");
    let path = dir.join("four_lenses.json");
    report.write_json(&path).unwrap();
    let restored = ExperimentReport::read_json(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(restored, report);

    // The restored report is fully usable: measured records keep their
    // engine-verified cardinalities, phase breakdowns and normalized points.
    let measured = restored.series_for("measured", &workload.label()).unwrap();
    assert!(measured.records[0].output_rows.unwrap() > 0);
    assert_eq!(measured.records[0].phases.len(), 2);
    assert_eq!(
        restored.series_for("traced:dbms-x", &workload.label()),
        report.series_for("traced:dbms-x", &workload.label())
    );
}
