//! Property tests for the morsel-driven join kernel. The join's product is
//! its cardinality, and `output_rows` must not depend on the schedule: over
//! every combination of worker count, morsel size and radix bits it equals an
//! exact count — the sum over probe keys of the build key's multiplicity,
//! computed here with a `BTreeMap` and no hashing at all. Morsel stealing
//! must also actually distribute work.

use eedc_pstore::op::hash_join_with;
use eedc_pstore::op::kernel::JoinKernelConfig;
use eedc_storage::{Column, Schema, Table};
use eedc_tpch::gen::{LineitemGenerator, OrdersGenerator};
use eedc_tpch::ScaleFactor;
use std::collections::BTreeMap;

const SCALE: ScaleFactor = ScaleFactor(0.002);

/// The kernel grid: small morsels force heavy stealing, a huge morsel
/// degenerates to one chunk, and radix bits of 0 disable partitioning.
const WORKERS: [usize; 4] = [1, 2, 3, 8];
const MORSEL_ROWS: [usize; 3] = [64, 100, 1 << 20];
const RADIX_BITS: [u8; 3] = [0, 4, 8];

/// The keys of an integer column, widened to `i64`.
fn keys(table: &Table, key: &str) -> Vec<i64> {
    match table.column_by_name(key).unwrap() {
        Column::Int64(keys) => keys.clone(),
        Column::Int32(keys) => keys.iter().map(|&key| i64::from(key)).collect(),
    }
}

/// The exact join cardinality: for each probe key, how many build keys equal
/// it, summed.
fn exact_count(probe: &[i64], build: &[i64]) -> usize {
    let mut multiplicity = BTreeMap::new();
    for &key in build {
        *multiplicity.entry(key).or_insert(0usize) += 1;
    }
    probe
        .iter()
        .map(|key| multiplicity.get(key).copied().unwrap_or(0))
        .sum()
}

/// A one-column table of the given keys.
fn key_table(name: &str, column: Column) -> Table {
    let schema = Schema::new([(format!("{name}_KEY"), column.column_type())]);
    Table::from_columns(name, schema, vec![column]).unwrap()
}

/// Join `probe ⋈ build` at every point of the kernel grid and check each
/// result against the exact count; returns that count.
fn assert_exact_across_the_grid(
    probe: &Table,
    probe_key: &str,
    build: &Table,
    build_key: &str,
) -> usize {
    let expected = exact_count(&keys(probe, probe_key), &keys(build, build_key));
    for workers in WORKERS {
        for morsel_rows in MORSEL_ROWS {
            for radix_bits in RADIX_BITS {
                let config = JoinKernelConfig {
                    morsel_rows,
                    radix_bits,
                };
                let joined =
                    hash_join_with(probe, probe_key, build, build_key, workers, config).unwrap();
                let at = format!(
                    "{} ⋈ {}: workers={workers} morsel_rows={morsel_rows} radix_bits={radix_bits}",
                    probe.name(),
                    build.name()
                );
                assert_eq!(joined.output_rows, expected, "{at}");
                assert_eq!(joined.probe_rows, probe.row_count(), "{at}");
                assert_eq!(joined.build_rows, build.row_count(), "{at}");
                assert_eq!(joined.morsels_per_worker.len(), workers, "{at}");
                assert_eq!(
                    joined.morsels_per_worker.iter().sum::<usize>(),
                    probe.row_count().div_ceil(morsel_rows),
                    "{at}"
                );
            }
        }
    }
    expected
}

#[test]
fn join_output_multiset_is_invariant_across_the_kernel_grid() {
    // LINEITEM probing ORDERS: every line finds its one order, so the count
    // is the LINEITEM row count at every point of the grid.
    let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 11));
    let orders = Table::from_orders(OrdersGenerator::new(SCALE, 11));
    let count = assert_exact_across_the_grid(&lineitem, "L_ORDERKEY", &orders, "O_ORDERKEY");
    assert_eq!(count, lineitem.row_count());
}

#[test]
fn join_output_is_the_same_table_across_the_kernel_grid() {
    // The join's output is its counts, and they are the same whatever the
    // schedule. ORDERS probing LINEITEM fans each order out to its 1–7 lines,
    // so every probe row walks a duplicate chain.
    let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 11));
    let orders = Table::from_orders(OrdersGenerator::new(SCALE, 11));
    let count = assert_exact_across_the_grid(&orders, "O_ORDERKEY", &lineitem, "L_ORDERKEY");
    assert_eq!(count, lineitem.row_count());
    let reference = hash_join_with(
        &orders,
        "O_ORDERKEY",
        &lineitem,
        "L_ORDERKEY",
        1,
        JoinKernelConfig::default(),
    )
    .unwrap();
    let joined = hash_join_with(
        &orders,
        "O_ORDERKEY",
        &lineitem,
        "L_ORDERKEY",
        3,
        JoinKernelConfig {
            morsel_rows: 64,
            radix_bits: 4,
        },
    )
    .unwrap();
    assert_eq!(
        (joined.build_rows, joined.probe_rows, joined.output_rows),
        (
            reference.build_rows,
            reference.probe_rows,
            reference.output_rows
        )
    );
}

#[test]
fn duplicate_heavy_join_is_invariant_across_the_kernel_grid() {
    // Build side with duplicate keys (fan-out 3) plus probe misses.
    let build = key_table(
        "B",
        Column::Int64((0..200_i64).flat_map(|key| [key; 3]).collect()),
    );
    // Roughly half the probe keys miss the build side entirely.
    let probe = key_table(
        "P",
        Column::Int64((0..5_000_i64).map(|row| row % 400).collect()),
    );
    // 5000 probe rows cycle keys 0..400; 12 full cycles contribute 200
    // matching rows each, the 200-row tail all matches: 2600 hits × 3 copies.
    let count = assert_exact_across_the_grid(&probe, "P_KEY", &build, "B_KEY");
    assert_eq!(count, 2_600 * 3);
    // Every key duplicated on both sides: the count is a sum of products.
    let hot = key_table(
        "H",
        Column::Int64((0..3_000_i64).map(|row| row % 7).collect()),
    );
    let count = assert_exact_across_the_grid(&hot, "H_KEY", &hot, "H_KEY");
    assert!(count > hot.row_count() * 400, "{count}");
}

#[test]
fn narrow_and_negative_keys_match_an_exact_count_across_the_kernel_grid() {
    // `i32` keys on either side widen to the `i64` they equal; negative keys
    // and the extremes of both widths hash and match like any other.
    let mut wide: Vec<i64> = (-600..600_i64).map(|row| row * 3 % 1_000).collect();
    wide.extend([
        i64::MIN,
        i64::MAX,
        i64::from(i32::MIN),
        i64::from(i32::MAX),
        0,
        -1,
    ]);
    let mut narrow: Vec<i32> = (-2_000..2_000_i32).map(|row| row % 900).collect();
    narrow.extend([i32::MIN, i32::MAX, i32::MIN, 0, -1]);
    let wide = key_table("W", Column::Int64(wide));
    let narrow = key_table("N", Column::Int32(narrow));
    for (probe, probe_key, build, build_key) in [
        (&narrow, "N_KEY", &wide, "W_KEY"),
        (&wide, "W_KEY", &narrow, "N_KEY"),
        (&narrow, "N_KEY", &narrow, "N_KEY"),
    ] {
        let count = assert_exact_across_the_grid(probe, probe_key, build, build_key);
        assert!(count > 0, "{} ⋈ {}", probe.name(), build.name());
    }
}

#[test]
fn a_join_without_matches_counts_zero_rows() {
    let orders = Table::from_orders(OrdersGenerator::new(SCALE, 11));
    let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 11));
    // Order keys are positive; negate the probe keys so the ranges are
    // disjoint and every probe misses.
    let mut columns: Vec<Column> = lineitem
        .schema()
        .columns()
        .iter()
        .map(|(name, _)| lineitem.column_by_name(name).unwrap().clone())
        .collect();
    let keys = columns[0].as_i64_slice().unwrap();
    columns[0] = Column::Int64(keys.iter().map(|key| -key - 1).collect());
    let strangers = Table::from_columns("LINEITEM", lineitem.schema().clone(), columns).unwrap();
    let count = assert_exact_across_the_grid(&strangers, "L_ORDERKEY", &orders, "O_ORDERKEY");
    assert_eq!(count, 0);
}

#[test]
fn empty_sides_count_zero_rows_across_the_kernel_grid() {
    let some = key_table("S", Column::Int64((0..500).collect()));
    let none = key_table("E", Column::Int64(Vec::new()));
    for (probe, probe_key, build, build_key) in [
        (&some, "S_KEY", &none, "E_KEY"),
        (&none, "E_KEY", &some, "S_KEY"),
        (&none, "E_KEY", &none, "E_KEY"),
    ] {
        assert_eq!(
            assert_exact_across_the_grid(probe, probe_key, build, build_key),
            0
        );
    }
}

#[test]
fn skewed_probe_still_spreads_morsels_across_all_workers() {
    // Pathological skew: every probe row hits the same single build key, so
    // all matching work lands in one radix partition. Morsel stealing (plus
    // the first-claim guarantee) must still hand every worker at least one
    // morsel instead of serialising behind the hot partition.
    let build = key_table("B", Column::Int64(vec![42]));
    let probe = key_table("P", Column::Int64(vec![42; 10_000]));

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
