//! The scan / select / project operator.
//!
//! The scan operator is the leaf of every P-store plan: it walks a table in
//! blocks, applies a selection predicate, projects the requested columns, and
//! reports how many bytes it touched versus how many qualified — the two
//! quantities the energy model cares about (scanned bytes drive the disk /
//! CPU phase, qualifying bytes drive the network phase).

use crate::error::StorageError;
use crate::predicate::Predicate;
use crate::table::Table;
use eedc_simkit::units::Megabytes;

/// Rows per selection block. P-store is "built on top of a block-iterator
/// tuple-scan module" (Section 4.2): 4096 rows of 20-byte projected tuples is
/// ~80 KB, comfortably inside the L2 cache of every node in the catalog.
const BLOCK_ROWS: usize = 4096;

/// Statistics and output of one scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// The qualifying, projected rows.
    pub output: Table,
    /// Rows examined.
    pub rows_scanned: usize,
    /// Rows that passed the predicate.
    pub rows_passed: usize,
    /// Payload volume examined (full input rows).
    pub bytes_scanned: Megabytes,
    /// Payload volume of the qualifying, projected output.
    pub bytes_passed: Megabytes,
}

impl ScanResult {
    /// Observed selectivity of the scan (1.0 for an empty input).
    pub fn selectivity(&self) -> f64 {
        if self.rows_scanned == 0 {
            1.0
        } else {
            self.rows_passed as f64 / self.rows_scanned as f64
        }
    }
}

/// Scan `table`, keep rows satisfying `predicate`, and project `projection`
/// (or all columns if `projection` is `None`).
pub fn scan(
    table: &Table,
    predicate: &Predicate,
    projection: Option<&[&str]>,
) -> Result<ScanResult, StorageError> {
    let projected_schema = projection
        .map(|names| table.schema().project(names))
        .transpose()?;
    // Validate predicate columns eagerly so errors are not order-dependent.
    for column in predicate.referenced_columns() {
        if table.schema().index_of(column).is_none() {
            return Err(StorageError::UnknownColumn {
                column: column.into(),
                table: table.name().to_string(),
            });
        }
    }

    // Select, then gather: the predicate appends each block's qualifying row
    // indices column-at-a-time, and the output is materialised with one
    // gather per output column — straight from `table`, so a projected scan
    // allocates what it returns and nothing else.
    let rows = table.row_count();
    let mut passing: Vec<u32> = Vec::new();
    for start in (0..rows).step_by(BLOCK_ROWS) {
        predicate.select_into(table, start..rows.min(start + BLOCK_ROWS), &mut passing)?;
    }
    let rows_passed = passing.len();
    let name = format!("{}_scan", table.name());
    let output = match projected_schema {
        None => table.gather_rows(name, &passing),
        Some(schema) => {
            let columns = schema
                .columns()
                .iter()
                .map(|(column, _)| Ok(table.column_by_name(column)?.gathered(&passing)))
                .collect::<Result<_, StorageError>>()?;
            Table::from_columns(name, schema, columns)?
        }
    };

    Ok(ScanResult {
        bytes_scanned: table.byte_size(),
        bytes_passed: output.byte_size(),
        output,
        rows_scanned: rows,
        rows_passed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use crate::predicate::CmpOp;
    use eedc_tpch::gen::{date_cutoff_for_selectivity, LineitemGenerator, OrdersGenerator};
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    #[test]
    fn scan_with_true_predicate_returns_everything() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 1));
        let result = scan(&orders, &Predicate::True, None).unwrap();
        assert_eq!(result.rows_scanned, orders.row_count());
        assert_eq!(result.rows_passed, orders.row_count());
        assert_eq!(result.output.row_count(), orders.row_count());
        assert_eq!(result.selectivity(), 1.0);
        assert_eq!(result.bytes_scanned, orders.byte_size());
        assert_eq!(result.bytes_passed, orders.byte_size());
    }

    #[test]
    fn selective_scan_filters_rows() {
        let lineitem = Table::from_lineitem(LineitemGenerator::new(SCALE, 2));
        let cutoff = date_cutoff_for_selectivity(0.05);
        let predicate = Predicate::lineitem_shipdate_below(cutoff);
        let result = scan(&lineitem, &predicate, None).unwrap();
        assert!(result.rows_passed < result.rows_scanned / 10);
        assert!((result.selectivity() - 0.05).abs() < 0.02);
        // Every surviving row satisfies the predicate.
        let shipdates = result.output.column_by_name("L_SHIPDATE").unwrap();
        for i in 0..result.output.row_count() {
            match shipdates.get(i).unwrap() {
                Value::Int32(d) => assert!(d < cutoff),
                other => panic!("unexpected value {other:?}"),
            }
        }
    }

    #[test]
    fn projection_narrows_the_output() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 3));
        let result = scan(
            &orders,
            &Predicate::compare("O_SHIPPRIORITY", CmpOp::Eq, Value::Int32(0)),
            Some(&["O_ORDERKEY"]),
        )
        .unwrap();
        assert_eq!(result.output.schema().len(), 1);
        assert!(result.bytes_passed.value() < result.bytes_scanned.value());
        assert!(result.rows_passed > 0);
    }

    #[test]
    fn projected_scan_equals_projecting_the_full_scan() {
        // Gathering the named columns straight from the input must give the
        // rows, column order, schema and name that projecting first gave.
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 6));
        let predicate = Predicate::orders_custkey_at_most(50);
        let names = ["O_CUSTKEY", "O_ORDERKEY"];
        let projected = scan(&orders, &predicate, Some(&names)).unwrap();
        let full = scan(&orders, &predicate, None).unwrap();
        let mut expected = full.output.project(&names).unwrap();
        expected.set_name("ORDERS_scan");
        assert_eq!(projected.output, expected);
        assert_eq!(projected.rows_passed, full.rows_passed);
        assert_eq!(projected.bytes_passed, expected.byte_size());
        assert_eq!(projected.bytes_scanned, orders.byte_size());
    }

    #[test]
    fn unknown_columns_are_errors() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 5));
        assert!(scan(&orders, &Predicate::True, Some(&["O_NOPE"])).is_err());
        let bad_predicate = Predicate::compare("O_NOPE", CmpOp::Eq, Value::Int64(1));
        assert!(scan(&orders, &bad_predicate, None).is_err());
    }

    #[test]
    fn empty_input_scans_cleanly() {
        let empty = Table::empty("E", crate::table::Schema::orders_projection());
        let result = scan(&empty, &Predicate::orders_custkey_at_most(10), None).unwrap();
        assert_eq!(result.rows_scanned, 0);
        assert_eq!(result.rows_passed, 0);
        assert_eq!(result.selectivity(), 1.0);
    }
}
