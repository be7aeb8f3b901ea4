//! Estimator-agreement validation through the experiment API: the measured
//! P-store lens and the closed-form analytical lens must produce
//! `RunRecord`s that agree within 15% — raw response time/energy,
//! normalized (performance, energy) coordinates, homogeneous scale-downs
//! and heterogeneous designs — and the Section 6 advisor must pick the same
//! design from either series.

use eedc_core::{Analytical, Estimator, Experiment, Measured, RunSeries, SweepJoin};
use eedc_pstore::{ClusterSpec, JoinQuerySpec, JoinStrategy, PStoreCluster, RunOptions};
use eedc_simkit::catalog::{cluster_v_node, laptop_b};
use eedc_tpch::ScaleFactor;

/// Acceptance tolerance on raw and normalized coordinates.
const TOLERANCE: f64 = 0.15;

/// Engine scale for the validation runs. The model assumes the per-node data
/// shares are uniform; at very small engine scales only a handful of
/// qualifying rows land on each of 16 ports and the runtime's realized port
/// volumes are dominated by sampling noise (30%+ over the uniform share), so
/// validation materialises enough rows for the law of large numbers to hold.
fn validation_options() -> RunOptions {
    RunOptions {
        engine_scale: ScaleFactor(0.05),
        ..RunOptions::default()
    }
}

fn assert_close(what: &str, modeled: f64, measured: f64) {
    let err = (modeled - measured).abs() / measured;
    assert!(
        err <= TOLERANCE,
        "{what}: modeled {modeled:.4} vs measured {measured:.4} ({:.1}% off)",
        err * 100.0
    );
}

/// The workload whose analytical volumes match what a loaded cluster
/// actually moves: nominal-scale working sets of the generated tables and
/// the *realized* (quantized) predicate selectivities.
fn matching_workload(options: RunOptions, query: &JoinQuerySpec) -> SweepJoin {
    let spec = ClusterSpec::homogeneous(cluster_v_node(), 4).expect("spec is valid");
    let cluster = PStoreCluster::load(spec, options).expect("cluster loads");
    SweepJoin::matching_cluster(&cluster, query).expect("workload derives")
}

/// Assert raw and normalized agreement between a measured and an analytical
/// series over the same designs.
fn assert_series_agree(measured: &RunSeries, analytical: &RunSeries) {
    assert_eq!(measured.records.len(), analytical.records.len());
    assert!(measured.infeasible.is_empty());
    assert!(analytical.infeasible.is_empty());
    for (m, a) in measured.records.iter().zip(&analytical.records) {
        assert_eq!(m.design, a.design);
        assert_eq!(
            m.mode, a.mode,
            "{}: lenses disagree on the execution mode",
            m.design
        );
        // Raw agreement first: the model predicts the runtime's absolute
        // response time and energy, not just the ratios.
        assert_close(
            &format!("{} response time", m.design),
            a.response_time.value(),
            m.response_time.value(),
        );
        assert_close(
            &format!("{} energy", m.design),
            a.energy.value(),
            m.energy.value(),
        );
        // Normalized agreement: the coordinates the figures actually plot.
        let (mp, ap) = (m.normalized.unwrap(), a.normalized.unwrap());
        assert_close(
            &format!("{} normalized performance", m.design),
            ap.performance,
            mp.performance,
        );
        assert_close(
            &format!("{} normalized energy", m.design),
            ap.energy,
            mp.energy,
        );
    }
}

#[test]
fn homogeneous_scale_down_agrees_across_estimators() {
    // The Figure 1(a)-shaped experiment: shrink an all-Beefy Cluster-V
    // cluster from 16 to 4 nodes and compare every point across the two
    // lenses — one Experiment invocation, both estimators.
    let options = validation_options();
    let query = JoinQuerySpec::q3_dual_shuffle();
    let workload = matching_workload(options, &query);

    let report = Experiment::new(&workload)
        // The measured lens re-executes the *requested* selectivities; the
        // workload's sweep already carries the realized ones.
        .query(query)
        .designs(
            [16usize, 12, 10, 8, 6, 4]
                .map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).expect("spec is valid")),
        )
        .estimator(Measured::new(options))
        .estimator(Analytical)
        .run()
        .expect("experiment runs");

    assert_eq!(report.series.len(), 2);
    let measured = &report.series[0];
    let analytical = &report.series[1];
    assert_eq!(measured.estimator, "measured");
    assert_eq!(analytical.estimator, "analytical");
    assert_series_agree(measured, analytical);

    // The Section 6 selection rule must pick the same design over the
    // modeled series as over the measured series.
    for target in [0.9, 0.75, 0.5] {
        let measured_pick = measured.recommend(target).map(|p| p.label);
        let modeled_pick = analytical.recommend(target).map(|p| p.label);
        assert_eq!(
            modeled_pick, measured_pick,
            "advisor pick diverges at target {target}"
        );
    }
}

#[test]
fn heterogeneous_design_agrees_across_estimators() {
    // A memory-tight 2 Beefy + 2 Wimpy design at SF-1000 goes heterogeneous
    // under broadcast (the Wimpy laptops cannot hold the ~30 GB hash table);
    // normalize it against the all-Beefy 4-node design and compare lenses.
    let options = RunOptions {
        nominal_scale: ScaleFactor::SF1000,
        ..validation_options()
    };
    let query = JoinQuerySpec::new(0.5, 0.05);
    let workload = matching_workload(options, &query);

    let report = Experiment::new(&workload)
        .query(query)
        .strategy(JoinStrategy::Broadcast)
        .design(ClusterSpec::homogeneous(cluster_v_node(), 4).expect("spec is valid"))
        .design(
            ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 2).expect("spec is valid"),
        )
        .estimator(Measured::new(options))
        .estimator(Analytical)
        .run()
        .expect("experiment runs");

    let measured = &report.series[0];
    let analytical = &report.series[1];
    let mixed = measured.record("2B,2W").expect("mixed design is feasible");
    assert_eq!(mixed.mode, eedc_pstore::ExecutionMode::Heterogeneous);
    assert_series_agree(measured, analytical);
}

#[test]
fn estimators_are_interchangeable_as_trait_objects() {
    // Integration-level object-safety smoke: build the estimator set
    // dynamically (exactly how callers plug custom lenses in), run each
    // against the same plan/design, and check the records line up.
    let options = RunOptions {
        engine_scale: ScaleFactor(0.005),
        ..RunOptions::default()
    };
    let query = JoinQuerySpec::q3_dual_shuffle();
    let workload = matching_workload(options, &query);
    let plan = eedc_core::Workload::plans(&workload).remove(0);
    let design = ClusterSpec::homogeneous(cluster_v_node(), 4).expect("spec is valid");

    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(Measured::new(options)),
        Box::new(Analytical),
        Box::new(eedc_core::Behavioural),
    ];
    for estimator in &estimators {
        let record = estimator
            .estimate(&plan, &design)
            .expect("every lens estimates the plan");
        assert_eq!(record.estimator, estimator.name());
        assert_eq!(record.design, "4B,0W");
        assert!(record.response_time.value() > 0.0);
        assert!(record.energy.value() > 0.0);
        assert_eq!(record.node_utilization.len(), 4);
    }
}
