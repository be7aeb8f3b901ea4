//! Selection predicates.
//!
//! The paper's experiments dial predicate selectivity between 1% and 100% on
//! the LINEITEM and ORDERS tables (e.g. "we apply a 5% selectivity predicate
//! on both the tables using a predicate on the O_CUSTKEY attribute for ORDERS
//! and a predicate on the L_SHIPDATE attribute for LINEITEM"). Those two
//! column-versus-constant comparisons are the only predicates here. There is
//! one evaluator, [`Predicate::select_into`]: column-at-a-time over a row
//! range, producing the ascending indices of the rows that pass.

use crate::column::Column;
use crate::error::StorageError;
use crate::table::Table;
use std::ops::Range;

/// Rows per selection block. P-store is "built on top of a block-iterator
/// tuple-scan module" (Section 4.2): 4096 rows of 20-byte projected tuples is
/// ~80 KB, comfortably inside the L2 cache of every node in the catalog.
const BLOCK_ROWS: usize = 4096;

/// Append `base + i` for every `values[i]` that passes — the one loop every
/// comparison runs, monomorphised per element type and per test. It is
/// branch-free: each row's index is written at the cursor and the cursor
/// advances only past a row that passes, so a 50 %-selective predicate on
/// unsorted data costs what a 5 %-selective one does instead of a
/// misprediction every other row.
#[inline]
fn select_where<T: Copy>(values: &[T], base: usize, out: &mut Vec<u32>, pass: impl Fn(T) -> bool) {
    let start = out.len();
    out.resize(start + values.len(), 0);
    let mut cursor = start;
    for (offset, &value) in values.iter().enumerate() {
        out[cursor] = (base + offset) as u32;
        cursor += usize::from(pass(value));
    }
    out.truncate(cursor);
}

/// [`select_where`] over `values` one [`BLOCK_ROWS`]-row block at a time.
fn select_blocks<T: Copy>(
    values: &[T],
    base: usize,
    out: &mut Vec<u32>,
    pass: impl Fn(T) -> bool + Copy,
) {
    for (block, values) in values.chunks(BLOCK_ROWS).enumerate() {
        select_where(values, base + block * BLOCK_ROWS, out, pass);
    }
}

/// One of the paper's two selection predicates, each a comparison of one
/// named integer column against a cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// ORDERS rows whose `O_CUSTKEY` is at most the cutoff.
    OrdersCustkeyAtMost(i64),
    /// LINEITEM rows whose `L_SHIPDATE` is strictly below the cutoff.
    LineitemShipdateBelow(i32),
}

impl Predicate {
    /// The paper's LINEITEM ship-date predicate with the given cutoff (rows
    /// whose `L_SHIPDATE` is strictly below the cutoff qualify).
    pub fn lineitem_shipdate_below(cutoff: i32) -> Self {
        Predicate::LineitemShipdateBelow(cutoff)
    }

    /// The paper's ORDERS customer-key predicate with the given cutoff (rows
    /// whose `O_CUSTKEY` is at most the cutoff qualify).
    pub fn orders_custkey_at_most(cutoff: i64) -> Self {
        Predicate::OrdersCustkeyAtMost(cutoff)
    }

    /// The selection kernel: append to `out` the indices of the rows in
    /// `rows` that satisfy the predicate, ascending.
    ///
    /// Column-at-a-time: the predicate's column is resolved by name and its
    /// type checked once per call, then a native integer compare runs over
    /// the typed slice in 4096-row blocks. An unknown column, or one of the
    /// other integer type, is an error even over an empty range.
    pub fn select_into(
        &self,
        table: &Table,
        rows: Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), StorageError> {
        let name = match self {
            Predicate::OrdersCustkeyAtMost(_) => "O_CUSTKEY",
            Predicate::LineitemShipdateBelow(_) => "L_SHIPDATE",
        };
        let column = table.column_by_name(name)?;
        if rows.start > rows.end || rows.end > table.row_count() {
            return Err(StorageError::invalid(format!(
                "rows {rows:?} out of bounds in {}",
                table.name()
            )));
        }
        let base = rows.start;
        match (*self, column) {
            (Predicate::OrdersCustkeyAtMost(c), Column::Int64(v)) => {
                select_blocks(&v[rows], base, out, |v| v <= c);
            }
            (Predicate::LineitemShipdateBelow(d), Column::Int32(v)) => {
                select_blocks(&v[rows], base, out, |v| v < d);
            }
            (_, column) => {
                return Err(StorageError::schema(format!(
                    "{name} of table {} is {}, not the type its predicate compares",
                    table.name(),
                    column.column_type()
                )))
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use crate::partition::hash_i64;
    use crate::scan::scan;
    use crate::table::Schema;
    use eedc_tpch::gen::{
        custkey_cutoff_for_selectivity, date_cutoff_for_selectivity, LineitemGenerator,
        OrdersGenerator,
    };
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    /// A table holding both predicates' columns: `rows` seeded values in a
    /// range narrow enough that every cutoff below both passes and fails
    /// rows, with the types' extremes mixed in.
    fn typed_table(rows: usize, seed: u64) -> Table {
        let draw = |row: usize, salt: u64| hash_i64((seed ^ salt).wrapping_add(row as u64) as i64);
        let small = |row, salt| (draw(row, salt) % 9) as i64 - 4;
        let custkey = |row| match draw(row, 1) % 16 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => small(row, 2),
        };
        let shipdate = |row| match draw(row, 3) % 16 {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => small(row, 4) as i32,
        };
        Table::from_columns(
            "T",
            Schema::new([
                ("O_CUSTKEY", ColumnType::Int64),
                ("L_SHIPDATE", ColumnType::Int32),
            ]),
            vec![
                Column::Int64((0..rows).map(custkey).collect()),
                Column::Int32((0..rows).map(shipdate).collect()),
            ],
        )
        .unwrap()
    }

    /// The row-at-a-time filter the kernel must agree with: one typed read
    /// and one compare per row.
    fn passes(predicate: Predicate, table: &Table, row: usize) -> bool {
        match predicate {
            Predicate::OrdersCustkeyAtMost(c) => {
                let column = table.column_by_name("O_CUSTKEY").unwrap();
                column.as_i64_slice().unwrap()[row] <= c
            }
            Predicate::LineitemShipdateBelow(d) => {
                let column = table.column_by_name("L_SHIPDATE").unwrap();
                column.as_i32_slice().unwrap()[row] < d
            }
        }
    }

    #[test]
    fn selection_kernel_matches_the_row_at_a_time_oracle() {
        let cases = [
            [i64::MIN, -1, 0, 3, i64::MAX].map(Predicate::orders_custkey_at_most),
            [i32::MIN, -1, 0, 3, i32::MAX].map(Predicate::lineitem_shipdate_below),
        ];
        // Empty, one row, and a count that straddles the 7- and 4096-row
        // range and block boundaries.
        for (rows, seed) in [(0, 11), (1, 12), (2 * 4096 + 5, 13)] {
            let table = typed_table(rows, seed);
            for predicate in cases.iter().flatten() {
                let expected: Vec<u32> = (0..rows)
                    .filter(|&row| passes(*predicate, &table, row))
                    .map(|row| row as u32)
                    .collect();
                for range_rows in [1, 7, 4096] {
                    let mut selected = Vec::new();
                    for start in (0..rows).step_by(range_rows) {
                        let range = start..rows.min(start + range_rows);
                        predicate.select_into(&table, range, &mut selected).unwrap();
                    }
                    assert!(
                        selected.windows(2).all(|pair| pair[0] < pair[1]),
                        "{predicate:?}: not strictly ascending"
                    );
                    assert_eq!(
                        selected, expected,
                        "{predicate:?} over {rows} rows in ranges of {range_rows}"
                    );
                }
                let mut whole = Vec::new();
                predicate.select_into(&table, 0..rows, &mut whole).unwrap();
                assert_eq!(whole, expected, "{predicate:?} over {rows} rows at once");
            }
        }
    }

    #[test]
    fn comparison_operators() {
        // `O_CUSTKEY ≤ c` keeps the cutoff itself; `L_SHIPDATE < d` drops it.
        let table = Table::from_columns(
            "T",
            Schema::new([
                ("O_CUSTKEY", ColumnType::Int64),
                ("L_SHIPDATE", ColumnType::Int32),
            ]),
            vec![
                Column::Int64(vec![9, 10, 11]),
                Column::Int32(vec![9, 10, 11]),
            ],
        )
        .unwrap();
        let select = |predicate: Predicate| {
            let mut out = Vec::new();
            predicate.select_into(&table, 0..3, &mut out).unwrap();
            out
        };
        assert_eq!(select(Predicate::orders_custkey_at_most(10)), vec![0, 1]);
        assert_eq!(select(Predicate::lineitem_shipdate_below(10)), vec![0]);
        assert_eq!(
            select(Predicate::orders_custkey_at_most(8)),
            Vec::<u32>::new()
        );
        assert_eq!(
            select(Predicate::lineitem_shipdate_below(12)),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn paper_predicates_hit_their_target_selectivity() {
        let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 2));
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 2));
        for target in [0.01, 0.05, 0.10, 0.50] {
            let p = Predicate::lineitem_shipdate_below(date_cutoff_for_selectivity(target));
            let observed = scan(&lineitem, &p, None).unwrap().selectivity();
            assert!(
                (observed - target).abs() < 0.02,
                "lineitem target {target} observed {observed}"
            );
            let p =
                Predicate::orders_custkey_at_most(custkey_cutoff_for_selectivity(SCALE, target));
            let observed = scan(&orders, &p, None).unwrap().selectivity();
            assert!(
                (observed - target).abs() < 0.03,
                "orders target {target} observed {observed}"
            );
        }
    }

    #[test]
    fn unknown_columns_are_errors() {
        // Each predicate names its table's column: applied to the other
        // table, it fails — over an empty range and on an empty table too.
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 4));
        let shipdate = Predicate::lineitem_shipdate_below(100);
        let mut out = Vec::new();
        assert!(shipdate.select_into(&orders, 0..1, &mut out).is_err());
        assert!(shipdate.select_into(&orders, 0..0, &mut out).is_err());
        let empty = Table::empty("E", Schema::orders_projection());
        assert!(shipdate.select_into(&empty, 0..0, &mut out).is_err());
        // So is a range past the end of the table, or one that runs
        // backwards, and a column of the other integer type.
        let custkey = Predicate::orders_custkey_at_most(10);
        let past_the_end = orders.row_count()..orders.row_count() + 1;
        for bad in [past_the_end, Range { start: 2, end: 1 }] {
            assert!(custkey.select_into(&orders, bad, &mut out).is_err());
        }
        let narrow = Table::from_columns(
            "N",
            Schema::new([("O_CUSTKEY", ColumnType::Int32)]),
            vec![Column::Int32(vec![1])],
        )
        .unwrap();
        assert!(custkey.select_into(&narrow, 0..1, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn empty_table_has_unit_selectivity() {
        // Either paper predicate over an empty table of its schema selects
        // nothing, and the scan reports the selectivity of no rows as 1.0.
        let tables = [
            (
                Schema::orders_projection(),
                Predicate::orders_custkey_at_most(10),
            ),
            (
                Schema::lineitem_projection(),
                Predicate::lineitem_shipdate_below(10),
            ),
        ];
        for (schema, predicate) in tables {
            let empty = Table::empty("E", schema);
            let mut out = Vec::new();
            predicate.select_into(&empty, 0..0, &mut out).unwrap();
            assert!(out.is_empty());
            assert_eq!(scan(&empty, &predicate, None).unwrap().selectivity(), 1.0);
        }
    }
}
