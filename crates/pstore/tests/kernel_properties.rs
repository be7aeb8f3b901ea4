//! Property tests for the morsel-driven join kernel: no combination of
//! worker count, morsel size, or radix bits may change the join's output row
//! multiset, and morsel stealing must actually distribute work.

use eedc_pstore::op::hash_join_with;
use eedc_pstore::op::kernel::JoinKernelConfig;
use eedc_storage::{ColumnType, Schema, Table, Value};
use eedc_tpch::gen::{LineitemGenerator, OrdersGenerator};
use eedc_tpch::ScaleFactor;

const SCALE: ScaleFactor = ScaleFactor(0.002);

/// The full-row multiset signature of a join output.
fn signature(output: &Table) -> Vec<Vec<Value>> {
    let names: Vec<&str> = output
        .schema()
        .columns()
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    output.sorted_row_signature(&names).unwrap()
}

#[test]
fn join_output_multiset_is_invariant_across_the_kernel_grid() {
    let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 11));
    let orders = Table::from_orders(OrdersGenerator::new(SCALE, 11));
    let reference = hash_join_with(
        &lineitem,
        "L_ORDERKEY",
        &orders,
        "O_ORDERKEY",
        1,
        JoinKernelConfig::default(),
    )
    .unwrap();
    let expected = signature(&reference.output);
    assert!(!expected.is_empty());

    // Small morsels force heavy stealing; a huge morsel degenerates to one
    // chunk; radix bits of 0 disable partitioning entirely.
    for workers in [1usize, 2, 8] {
        for morsel_rows in [64usize, 1 << 20] {
            for radix_bits in [0u8, 4, 8] {
                let config = JoinKernelConfig {
                    morsel_rows,
                    radix_bits,
                };
                let joined = hash_join_with(
                    &lineitem,
                    "L_ORDERKEY",
                    &orders,
                    "O_ORDERKEY",
                    workers,
                    config,
                )
                .unwrap();
                assert_eq!(
                    signature(&joined.output),
                    expected,
                    "workers={workers} morsel_rows={morsel_rows} radix_bits={radix_bits}"
                );
                assert_eq!(joined.output_rows, reference.output_rows);
            }
        }
    }
}

#[test]
fn duplicate_heavy_join_is_invariant_across_the_kernel_grid() {
    // Build side with duplicate keys (fan-out 3) plus probe misses, so the
    // invariance property also covers chained duplicate emission.
    let mut build = Table::empty(
        "B",
        Schema::new([("B_KEY", ColumnType::Int64), ("B_VAL", ColumnType::Int32)]),
    );
    for key in 0..200_i64 {
        for copy in 0..3_i32 {
            build
                .append_row(&[Value::Int64(key), Value::Int32(copy)])
                .unwrap();
        }
    }
    let mut probe = Table::empty("P", Schema::new([("P_KEY", ColumnType::Int64)]));
    for row in 0..5_000_i64 {
        // Roughly half the probe keys miss the build side entirely.
        probe.append_row(&[Value::Int64(row % 400)]).unwrap();
    }
    let reference = hash_join_with(
        &probe,
        "P_KEY",
        &build,
        "B_KEY",
        1,
        JoinKernelConfig::default(),
    )
    .unwrap();
    // 5000 probe rows cycle keys 0..400; 12 full cycles contribute 200
    // matching rows each, the 200-row tail all matches: 2600 hits × 3 copies.
    assert_eq!(reference.output_rows, 2_600 * 3);
    let expected = signature(&reference.output);

    for workers in [2usize, 8] {
        for morsel_rows in [17usize, 4_096] {
            for radix_bits in [0u8, 4, 8] {
                let joined = hash_join_with(
                    &probe,
                    "P_KEY",
                    &build,
                    "B_KEY",
                    workers,
                    JoinKernelConfig {
                        morsel_rows,
                        radix_bits,
                    },
                )
                .unwrap();
                assert_eq!(
                    signature(&joined.output),
                    expected,
                    "workers={workers} morsel_rows={morsel_rows} radix_bits={radix_bits}"
                );
            }
        }
    }
}

#[test]
fn skewed_probe_still_spreads_morsels_across_all_workers() {
    // Pathological skew: every probe row hits the same single build key, so
    // all matching work lands in one radix partition. Morsel stealing (plus
    // the first-claim guarantee) must still hand every worker at least one
    // morsel instead of serialising behind the hot partition.
    let mut build = Table::empty("B", Schema::new([("B_KEY", ColumnType::Int64)]));
    build.append_row(&[Value::Int64(42)]).unwrap();
    let mut probe = Table::empty("P", Schema::new([("P_KEY", ColumnType::Int64)]));
    for _ in 0..10_000 {
        probe.append_row(&[Value::Int64(42)]).unwrap();
    }

    let workers = 8;
    let config = JoinKernelConfig {
        morsel_rows: 256, // 40 morsels >> 8 workers
        ..JoinKernelConfig::default()
    };
    let joined = hash_join_with(&probe, "P_KEY", &build, "B_KEY", workers, config).unwrap();
    assert_eq!(joined.output_rows, 10_000);
    assert_eq!(joined.morsels_per_worker.len(), workers);
    let retired: usize = joined.morsels_per_worker.iter().sum();
    assert_eq!(retired, 10_000_usize.div_ceil(256));
    for (worker, &morsels) in joined.morsels_per_worker.iter().enumerate() {
        assert!(
            morsels >= 1,
            "worker {worker} retired no morsels: {:?}",
            joined.morsels_per_worker
        );
    }
}
