//! Cross-strategy integration test: all three join strategies must agree on
//! the join result, and their network footprints must order the way the
//! paper's analysis predicts.

use eedc_pstore::{ClusterSpec, JoinQuerySpec, JoinStrategy, PStoreCluster, RunOptions};
use eedc_simkit::catalog::cluster_v_node;

fn cluster(nodes: usize) -> PStoreCluster {
    let spec = ClusterSpec::homogeneous(cluster_v_node(), nodes).unwrap();
    PStoreCluster::load(spec, RunOptions::default()).unwrap()
}

#[test]
fn all_strategies_produce_identical_cardinalities() {
    let cluster = cluster(4);
    for query in [
        JoinQuerySpec::q3_dual_shuffle(),
        JoinQuerySpec::q3_broadcast(),
        JoinQuerySpec::new(0.5, 0.05),
    ] {
        let reference = cluster.reference_join_rows(&query).unwrap();
        assert!(reference > 0, "query {} matched nothing", query.label());
        for strategy in JoinStrategy::ALL {
            let execution = cluster.run(&query, strategy).unwrap();
            assert_eq!(
                execution.output_rows,
                Some(reference),
                "strategy {strategy} disagrees with the reference join for {}",
                query.label()
            );
        }
    }
}

#[test]
fn broadcast_moves_more_bytes_than_shuffle_for_a_large_build_side() {
    // Shuffle moves ~(N-1)/N of both qualifying inputs; broadcast moves
    // (N-1) copies of the qualifying build side. With a 50%-selectivity
    // ORDERS build side, the broadcast volume dominates.
    let cluster = cluster(4);
    let query = JoinQuerySpec::new(0.5, 0.05);
    let shuffle = cluster.run(&query, JoinStrategy::DualShuffle).unwrap();
    let broadcast = cluster.run(&query, JoinStrategy::Broadcast).unwrap();
    let shuffle_bytes = shuffle.bytes_over_network();
    let broadcast_bytes = broadcast.bytes_over_network();
    assert!(
        broadcast_bytes.value() > shuffle_bytes.value(),
        "broadcast {broadcast_bytes} vs shuffle {shuffle_bytes}"
    );

    // And the prepartitioned baseline of Figure 5 moves nothing at all.
    let prepartitioned = cluster.run(&query, JoinStrategy::PrePartitioned).unwrap();
    assert_eq!(prepartitioned.bytes_over_network().value(), 0.0);
}

#[test]
fn small_build_sides_favour_broadcast() {
    // The paper's broadcast variant (Section 4.3.2) tightens ORDERS to 1%
    // exactly so the probe side never moves: with a small build side the
    // broadcast join ships fewer bytes than the dual shuffle.
    let cluster = cluster(4);
    let query = JoinQuerySpec::q3_broadcast();
    let shuffle = cluster.run(&query, JoinStrategy::DualShuffle).unwrap();
    let broadcast = cluster.run(&query, JoinStrategy::Broadcast).unwrap();
    assert!(broadcast.bytes_over_network().value() < shuffle.bytes_over_network().value());
    // The broadcast probe phase is fully local.
    assert_eq!(
        broadcast.phase("probe").unwrap().bytes_over_network.value(),
        0.0
    );
}

#[test]
fn executions_report_complete_phase_breakdowns() {
    let cluster = cluster(5);
    let execution = cluster
        .run(&JoinQuerySpec::q3_dual_shuffle(), JoinStrategy::DualShuffle)
        .unwrap();
    assert_eq!(execution.phases.len(), 2);
    assert!(execution.phase("build").is_some());
    assert!(execution.phase("probe").is_some());
    assert_eq!(execution.cluster_label, "5B,0W");
    let total = execution.response_time();
    assert!(
        (total.value()
            - execution
                .phases
                .iter()
                .map(|p| p.duration.value())
                .sum::<f64>())
        .abs()
            < 1e-12
    );
    let measurement = execution.measurement();
    assert_eq!(measurement.response_time, total);
    assert_eq!(measurement.energy, execution.energy());
}
