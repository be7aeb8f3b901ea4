//! Selection predicates.
//!
//! The paper's experiments dial predicate selectivity between 1% and 100% on
//! the LINEITEM and ORDERS tables (e.g. "we apply a 5% selectivity predicate
//! on both the tables using a predicate on the O_CUSTKEY attribute for ORDERS
//! and a predicate on the L_SHIPDATE attribute for LINEITEM"). Predicates are
//! simple column-versus-constant comparisons plus conjunction / disjunction.
//! There is one evaluator, [`Predicate::select_into`]: column-at-a-time over
//! a row range, producing the ascending indices of the rows that pass.

use crate::column::{Column, Value};
use crate::error::StorageError;
use crate::table::Table;
use std::cmp::Ordering;
use std::ops::Range;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl CmpOp {
    fn matches(self, ordering: Ordering) -> bool {
        match self {
            CmpOp::Lt => ordering == Ordering::Less,
            CmpOp::Le => ordering != Ordering::Greater,
            CmpOp::Gt => ordering == Ordering::Greater,
            CmpOp::Ge => ordering != Ordering::Less,
            CmpOp::Eq => ordering == Ordering::Equal,
            CmpOp::Ne => ordering != Ordering::Equal,
        }
    }
}

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

/// A same-typed integer comparison: the operator is matched once, out here,
/// so each arm's loop is a bare native compare.
fn select_ord<T: Copy + Ord>(values: &[T], base: usize, op: CmpOp, c: T, out: &mut Vec<u32>) {
    match op {
        CmpOp::Lt => select_where(values, base, out, |v| v < c),
        CmpOp::Le => select_where(values, base, out, |v| v <= c),
        CmpOp::Gt => select_where(values, base, out, |v| v > c),
        CmpOp::Ge => select_where(values, base, out, |v| v >= c),
        CmpOp::Eq => select_where(values, base, out, |v| v == c),
        CmpOp::Ne => select_where(values, base, out, |v| v != c),
    }
}

/// Every other `(column, constant)` pairing: [`Value::compare`]'s mixed-type
/// rule, both sides as `f64` under `total_cmp`.
fn select_f64<T: Copy>(
    values: &[T],
    base: usize,
    op: CmpOp,
    constant: Value,
    out: &mut Vec<u32>,
    widen: impl Fn(T) -> f64,
) {
    let c = constant.as_f64();
    select_where(values, base, out, |v| op.matches(widen(v).total_cmp(&c)));
}

/// A selection predicate over one table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Accept every row.
    True,
    /// Compare a named column against a constant.
    Compare {
        /// Column name.
        column: String,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Both sub-predicates must hold.
    And(Box<Predicate>, Box<Predicate>),
    /// At least one sub-predicate must hold.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// A column-versus-constant comparison.
    pub fn compare(column: impl Into<String>, op: CmpOp, value: Value) -> Self {
        Predicate::Compare {
            column: column.into(),
            op,
            value,
        }
    }

    /// Conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// The paper's LINEITEM ship-date predicate with the given cutoff (rows
    /// whose `L_SHIPDATE` is strictly below the cutoff qualify).
    pub fn lineitem_shipdate_below(cutoff: i32) -> Self {
        Predicate::compare("L_SHIPDATE", CmpOp::Lt, Value::Int32(cutoff))
    }

    /// The paper's ORDERS customer-key predicate with the given cutoff (rows
    /// whose `O_CUSTKEY` is at most the cutoff qualify).
    pub fn orders_custkey_at_most(cutoff: i64) -> Self {
        Predicate::compare("O_CUSTKEY", CmpOp::Le, Value::Int64(cutoff))
    }

    /// The selection kernel: append to `out` the indices of the rows in
    /// `rows` that satisfy the predicate, ascending.
    ///
    /// Column-at-a-time — the column is resolved by name and its type
    /// matched against the constant's once per call, then one loop runs
    /// over the typed slice. A same-typed `Int64` / `Int32` comparison is a
    /// native integer compare with the operator chosen outside the loop; any
    /// other `(column, constant)` pairing keeps [`Value::compare`]'s rule
    /// (both sides as `f64`, `total_cmp`). An unknown column is an error
    /// even over an empty range, on either side of an `And` / `Or`.
    pub fn select_into(
        &self,
        table: &Table,
        rows: Range<usize>,
        out: &mut Vec<u32>,
    ) -> Result<(), StorageError> {
        if rows.start > rows.end || rows.end > table.row_count() {
            return Err(StorageError::invalid(format!(
                "rows {rows:?} out of bounds in {}",
                table.name()
            )));
        }
        match self {
            Predicate::True => out.extend(rows.map(|row| row as u32)),
            Predicate::Compare { column, op, value } => {
                let base = rows.start;
                match (table.column_by_name(column)?, *value) {
                    (Column::Int64(v), Value::Int64(c)) => select_ord(&v[rows], base, *op, c, out),
                    (Column::Int32(v), Value::Int32(c)) => select_ord(&v[rows], base, *op, c, out),
                    (Column::Int64(v), c) => select_f64(&v[rows], base, *op, c, out, |x| x as f64),
                    (Column::Int32(v), c) => select_f64(&v[rows], base, *op, c, out, f64::from),
                    (Column::Float64(v), c) => select_f64(&v[rows], base, *op, c, out, |x| x),
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                // On no hot path: mark each side's selection in a per-range
                // mask, then keep the rows marked by both (or by either).
                let mut marks = vec![0u8; rows.len()];
                let mut selected = Vec::new();
                for (side, bit) in [(a, 1), (b, 2)] {
                    selected.clear();
                    side.select_into(table, rows.clone(), &mut selected)?;
                    for &row in &selected {
                        marks[row as usize - rows.start] |= bit;
                    }
                }
                let both = matches!(self, Predicate::And(..));
                let marked = rows
                    .zip(marks)
                    .filter(|&(_, mark)| mark == 3 || !both && mark != 0);
                out.extend(marked.map(|(row, _)| row as u32));
            }
        }
        Ok(())
    }

    /// Evaluate the predicate over every row of `table`, returning a
    /// selection bitmap.
    pub fn evaluate(&self, table: &Table) -> Result<Vec<bool>, StorageError> {
        let mut passing = Vec::new();
        self.select_into(table, 0..table.row_count(), &mut passing)?;
        let mut selection = vec![false; table.row_count()];
        for row in passing {
            selection[row as usize] = true;
        }
        Ok(selection)
    }

    /// Observed selectivity of the predicate over a table (qualifying rows /
    /// total rows); 1.0 for an empty table.
    pub fn selectivity(&self, table: &Table) -> Result<f64, StorageError> {
        let rows = table.row_count();
        if rows == 0 {
            return Ok(1.0);
        }
        let mut passing = Vec::new();
        self.select_into(table, 0..rows, &mut passing)?;
        Ok(passing.len() as f64 / rows as f64)
    }

    /// Every column name referenced by the predicate.
    pub fn referenced_columns(&self) -> Vec<&str> {
        match self {
            Predicate::True => Vec::new(),
            Predicate::Compare { column, .. } => vec![column.as_str()],
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                let mut cols = a.referenced_columns();
                cols.extend(b.referenced_columns());
                cols
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnType;
    use crate::partition::hash_i64;
    use crate::table::Schema;
    use eedc_tpch::gen::{
        custkey_cutoff_for_selectivity, date_cutoff_for_selectivity, LineitemGenerator,
        OrdersGenerator,
    };
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    /// The row-at-a-time evaluator the kernel replaced — a name lookup, a
    /// boxed [`Value`] and an [`Ordering`] per row — kept as the oracle the
    /// differential test compares the kernel against.
    impl Predicate {
        fn matches_row(&self, table: &Table, row: usize) -> Result<bool, StorageError> {
            match self {
                Predicate::True => Ok(true),
                Predicate::Compare { column, op, value } => {
                    let col = table.column_by_name(column)?;
                    let cell = col.get(row).ok_or_else(|| {
                        StorageError::invalid(format!(
                            "row {row} out of bounds in {}",
                            table.name()
                        ))
                    })?;
                    Ok(op.matches(cell.compare(value)))
                }
                Predicate::And(a, b) => {
                    Ok(a.matches_row(table, row)? && b.matches_row(table, row)?)
                }
                Predicate::Or(a, b) => Ok(a.matches_row(table, row)? || b.matches_row(table, row)?),
            }
        }
    }

    /// A three-column table (one per [`ColumnType`]) of `rows` seeded values
    /// in a range narrow enough that every operator both passes and fails,
    /// with a few integers past 2^53 where the mixed-type f64 rule rounds.
    fn typed_table(rows: usize, seed: u64) -> Table {
        let draw = |row: usize, salt: u64| hash_i64((seed ^ salt).wrapping_add(row as u64) as i64);
        let small = |row, salt| (draw(row, salt) % 9) as i64 - 4;
        let wide = |row| match draw(row, 1) % 16 {
            0 => (1 << 53) + small(row, 2),
            1 => -(1 << 53) - small(row, 2),
            _ => small(row, 2),
        };
        Table::from_columns(
            "T",
            Schema::new([
                ("A", ColumnType::Int64),
                ("B", ColumnType::Int32),
                ("C", ColumnType::Float64),
            ]),
            vec![
                Column::Int64((0..rows).map(wide).collect()),
                Column::Int32((0..rows).map(|row| small(row, 3) as i32).collect()),
                Column::Float64((0..rows).map(|row| small(row, 4) as f64 / 2.0).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn selection_kernel_matches_the_row_at_a_time_oracle() {
        const OPS: [CmpOp; 6] = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        // Per column: a constant of the column's own type, then one of
        // another type.
        let constants = [
            ("A", [Value::Int64(1), Value::Float64(0.5)]),
            ("B", [Value::Int32(-1), Value::Int64(2)]),
            ("C", [Value::Float64(0.5), Value::Int32(1)]),
        ];
        let other = Predicate::compare("B", CmpOp::Ge, Value::Int64(0));
        let mut predicates = vec![Predicate::True];
        for op in OPS {
            for (column, values) in constants {
                for value in values {
                    let leaf = Predicate::compare(column, op, value);
                    predicates.push(leaf.clone().and(other.clone()));
                    predicates.push(other.clone().or(leaf.clone()));
                    predicates.push(leaf.clone().and(Predicate::True));
                    predicates.push(Predicate::True.or(leaf.clone()));
                    predicates.push(leaf);
                }
            }
        }
        // Empty, one row, and a count that straddles the 7- and 4096-row
        // block boundaries.
        for (rows, seed) in [(0, 11), (1, 12), (4096 + 5, 13)] {
            let table = typed_table(rows, seed);
            for predicate in &predicates {
                let expected: Vec<u32> = (0..rows)
                    .filter(|&row| predicate.matches_row(&table, row).unwrap())
                    .map(|row| row as u32)
                    .collect();
                for block_rows in [1, 7, 4096] {
                    let mut selected = Vec::new();
                    for start in (0..rows).step_by(block_rows) {
                        let block = start..rows.min(start + block_rows);
                        predicate.select_into(&table, block, &mut selected).unwrap();
                    }
                    assert!(
                        selected.windows(2).all(|pair| pair[0] < pair[1]),
                        "{predicate:?}: not strictly ascending"
                    );
                    assert_eq!(
                        selected, expected,
                        "{predicate:?} over {rows} rows in blocks of {block_rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparison_operators() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 1));
        let eq = Predicate::compare("O_ORDERKEY", CmpOp::Eq, Value::Int64(1));
        assert_eq!(
            eq.evaluate(&orders).unwrap().iter().filter(|&&b| b).count(),
            1
        );
        let ne = Predicate::compare("O_ORDERKEY", CmpOp::Ne, Value::Int64(1));
        assert_eq!(
            ne.evaluate(&orders).unwrap().iter().filter(|&&b| b).count(),
            orders.row_count() - 1
        );
        let ge = Predicate::compare("O_ORDERKEY", CmpOp::Ge, Value::Int64(1));
        assert!((ge.selectivity(&orders).unwrap() - 1.0).abs() < 1e-12);
        let gt_all = Predicate::compare(
            "O_ORDERKEY",
            CmpOp::Gt,
            Value::Int64(orders.row_count() as i64),
        );
        assert_eq!(gt_all.selectivity(&orders).unwrap(), 0.0);
        let le = Predicate::compare("O_ORDERKEY", CmpOp::Le, Value::Int64(10));
        let lt = Predicate::compare("O_ORDERKEY", CmpOp::Lt, Value::Int64(10));
        assert_eq!(
            le.evaluate(&orders).unwrap().iter().filter(|&&b| b).count(),
            10
        );
        assert_eq!(
            lt.evaluate(&orders).unwrap().iter().filter(|&&b| b).count(),
            9
        );
    }

    #[test]
    fn paper_predicates_hit_their_target_selectivity() {
        let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 2));
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 2));
        for target in [0.01, 0.05, 0.10, 0.50] {
            let p = Predicate::lineitem_shipdate_below(date_cutoff_for_selectivity(target));
            let observed = p.selectivity(&lineitem).unwrap();
            assert!(
                (observed - target).abs() < 0.02,
                "lineitem target {target} observed {observed}"
            );
            let p =
                Predicate::orders_custkey_at_most(custkey_cutoff_for_selectivity(SCALE, target));
            let observed = p.selectivity(&orders).unwrap();
            assert!(
                (observed - target).abs() < 0.03,
                "orders target {target} observed {observed}"
            );
        }
    }

    #[test]
    fn conjunction_and_disjunction() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 3));
        let a = Predicate::compare("O_ORDERKEY", CmpOp::Le, Value::Int64(100));
        let b = Predicate::compare("O_ORDERKEY", CmpOp::Gt, Value::Int64(50));
        let and = a.clone().and(b.clone());
        let or = a.clone().or(b.clone());
        let count = |p: &Predicate| p.evaluate(&orders).unwrap().iter().filter(|&&x| x).count();
        assert_eq!(count(&and), 50);
        assert_eq!(count(&or), orders.row_count());
        assert_eq!(count(&Predicate::True), orders.row_count());
        let cols = and.referenced_columns();
        assert_eq!(cols, vec!["O_ORDERKEY", "O_ORDERKEY"]);
        assert!(Predicate::True.referenced_columns().is_empty());
    }

    #[test]
    fn unknown_columns_are_errors() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 4));
        let p = Predicate::compare("O_NOPE", CmpOp::Eq, Value::Int64(1));
        assert!(p.evaluate(&orders).is_err());
        assert!(p.matches_row(&orders, 0).is_err());
        // The kernel resolves columns before it looks at a row: an empty
        // range, and the side of an `Or` the oracle would short-circuit
        // past, are errors too. So is a range past the end of the table,
        // or one that runs backwards.
        let mut out = Vec::new();
        assert!(p.select_into(&orders, 0..0, &mut out).is_err());
        let either = Predicate::True.or(p);
        assert!(either.select_into(&orders, 0..1, &mut out).is_err());
        assert!(either.matches_row(&orders, 0).unwrap());
        let past_the_end = orders.row_count()..orders.row_count() + 1;
        for bad in [past_the_end, Range { start: 2, end: 1 }] {
            assert!(Predicate::True.select_into(&orders, bad, &mut out).is_err());
        }
        assert!(out.is_empty());
    }

    #[test]
    fn empty_table_has_unit_selectivity() {
        let empty = Table::empty("E", Schema::orders_projection());
        let p = Predicate::orders_custkey_at_most(10);
        assert_eq!(p.selectivity(&empty).unwrap(), 1.0);
    }
}
