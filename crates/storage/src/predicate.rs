//! Selection predicates.
//!
//! The paper's experiments dial predicate selectivity between 1% and 100% on
//! the LINEITEM and ORDERS tables (e.g. "we apply a 5% selectivity predicate
//! on both the tables using a predicate on the O_CUSTKEY attribute for ORDERS
//! and a predicate on the L_SHIPDATE attribute for LINEITEM"). Predicates are
//! simple column-versus-constant comparisons plus conjunction / disjunction;
//! they evaluate over whole tables or individual rows.

use crate::column::Value;
use crate::error::StorageError;
use crate::table::Table;
use std::cmp::Ordering;

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

    /// Evaluate the predicate for one row of `table`.
    pub fn matches_row(&self, table: &Table, row: usize) -> Result<bool, StorageError> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Compare { column, op, value } => {
                let col = table.column_by_name(column)?;
                let cell = col.get(row).ok_or_else(|| {
                    StorageError::invalid(format!("row {row} out of bounds in {}", table.name()))
                })?;
                Ok(op.matches(cell.compare(value)))
            }
            Predicate::And(a, b) => Ok(a.matches_row(table, row)? && b.matches_row(table, row)?),
            Predicate::Or(a, b) => Ok(a.matches_row(table, row)? || b.matches_row(table, row)?),
        }
    }

    /// Evaluate the predicate over every row of `table`, returning a
    /// selection bitmap.
    pub fn evaluate(&self, table: &Table) -> Result<Vec<bool>, StorageError> {
        let rows = table.row_count();
        let mut selection = Vec::with_capacity(rows);
        for row in 0..rows {
            selection.push(self.matches_row(table, row)?);
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
        let selection = self.evaluate(table)?;
        let hits = selection.iter().filter(|&&b| b).count();
        Ok(hits as f64 / rows as f64)
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
    use crate::table::Table;
    use eedc_tpch::gen::{
        custkey_cutoff_for_selectivity, date_cutoff_for_selectivity, LineitemGenerator,
        OrdersGenerator,
    };
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

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
    }

    #[test]
    fn empty_table_has_unit_selectivity() {
        let empty = Table::empty("E", crate::table::Schema::orders_projection());
        let p = Predicate::orders_custkey_at_most(10);
        assert_eq!(p.selectivity(&empty).unwrap(), 1.0);
    }
}
