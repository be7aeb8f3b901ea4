//! Property tests for the morsel-driven join kernel: no combination of
//! worker count, morsel size, or radix bits may change the join's output —
//! the row multiset, and since the kernel orders its matches before it
//! writes them, the table itself — and morsel stealing must actually
//! distribute work.

use eedc_pstore::op::hash_join_with;
use eedc_pstore::op::kernel::JoinKernelConfig;
use eedc_storage::{Column, ColumnType, Schema, Table, Value};
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
fn join_output_is_the_same_table_across_the_kernel_grid() {
    // Not just the same rows: the same table, bit for bit, whatever the
    // schedule was. The second direction probes ORDERS against LINEITEM, so
    // a probe row has several matches and their chain order is pinned too.
    let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 11));
    let orders = Table::from_orders(OrdersGenerator::new(SCALE, 11));
    let directions = [
        (&lineitem, "L_ORDERKEY", &orders, "O_ORDERKEY"),
        (&orders, "O_ORDERKEY", &lineitem, "L_ORDERKEY"),
    ];
    for (probe, probe_key, build, build_key) in directions {
        let default = JoinKernelConfig::default();
        let reference = hash_join_with(probe, probe_key, build, build_key, 1, default).unwrap();
        assert_eq!(reference.output_rows, lineitem.row_count());
        for workers in [1usize, 2, 3, 8] {
            for morsel_rows in [64usize, 100, 1 << 20] {
                for radix_bits in [0u8, 4, 8] {
                    let config = JoinKernelConfig {
                        morsel_rows,
                        radix_bits,
                    };
                    let joined =
                        hash_join_with(probe, probe_key, build, build_key, workers, config)
                            .unwrap();
                    assert!(
                        joined.output == reference.output,
                        "{} probe: workers={workers} morsel_rows={morsel_rows} \
                         radix_bits={radix_bits} changed the output table",
                        probe.name()
                    );
                }
            }
        }
    }

    // Every LINEITEM row matches exactly once, so probe-row order means the
    // probe side of the output *is* the LINEITEM table.
    let joined = hash_join_with(
        &lineitem,
        "L_ORDERKEY",
        &orders,
        "O_ORDERKEY",
        3,
        JoinKernelConfig {
            morsel_rows: 64,
            radix_bits: 4,
        },
    )
    .unwrap();
    for column in 0..lineitem.schema().len() {
        assert_eq!(joined.output.column(column), lineitem.column(column));
    }
}

#[test]
fn a_join_without_matches_is_an_empty_table_of_the_full_schema() {
    let orders = Table::from_orders(OrdersGenerator::new(SCALE, 11));
    let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 11));
    // Order keys are positive; negate the probe keys so the ranges are
    // disjoint and every probe misses.
    let mut columns: Vec<Column> = (0..lineitem.schema().len())
        .map(|c| lineitem.column(c).unwrap().clone())
        .collect();
    let keys = columns[0].as_i64_slice().unwrap();
    columns[0] = Column::Int64(keys.iter().map(|key| -key - 1).collect());
    let strangers = Table::from_columns("LINEITEM", lineitem.schema().clone(), columns).unwrap();

    let config = JoinKernelConfig {
        morsel_rows: 100,
        ..JoinKernelConfig::default()
    };
    let joined =
        hash_join_with(&strangers, "L_ORDERKEY", &orders, "O_ORDERKEY", 4, config).unwrap();
    assert_eq!(joined.output_rows, 0);
    let schema = Schema::new(
        lineitem
            .schema()
            .columns()
            .iter()
            .chain(orders.schema().columns())
            .cloned(),
    );
    assert_eq!(schema.len(), 8);
    assert_eq!(joined.output, Table::empty("LINEITEM_join_ORDERS", schema));
    let morsels = strangers.row_count().div_ceil(100);
    assert_eq!(joined.morsels_per_worker.iter().sum::<usize>(), morsels);
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
