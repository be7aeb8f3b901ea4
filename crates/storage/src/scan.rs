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

    // Select, then gather: the predicate resolves its column once and
    // appends the qualifying row indices block by block, and the output is
    // materialised with one gather per output column — straight from
    // `table`, so a projected scan allocates what it returns and nothing
    // else.
    let rows = table.row_count();
    let mut passing: Vec<u32> = Vec::new();
    predicate.select_into(table, 0..rows, &mut passing)?;
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
    use eedc_tpch::gen::{date_cutoff_for_selectivity, LineitemGenerator, OrdersGenerator};
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    #[test]
    fn scan_with_true_predicate_returns_everything() {
        // No customer key exceeds `i64::MAX`: every row passes.
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 1));
        let every_row = Predicate::orders_custkey_at_most(i64::MAX);
        let result = scan(&orders, &every_row, None).unwrap();
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
        let shipdates = shipdates.as_i32_slice().unwrap();
        assert_eq!(shipdates.len(), result.rows_passed);
        assert!(shipdates.iter().all(|&d| d < cutoff));
    }

    #[test]
    fn projection_narrows_the_output() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 3));
        let result = scan(
            &orders,
            &Predicate::orders_custkey_at_most(i64::MAX),
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
        // rows, column order and schema that projecting first gave.
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 6));
        let predicate = Predicate::orders_custkey_at_most(50);
        let names = ["O_CUSTKEY", "O_ORDERKEY"];
        let projected = scan(&orders, &predicate, Some(&names)).unwrap();
        let full = scan(&orders, &predicate, None).unwrap();
        let expected = full.output.project(&names).unwrap();
        assert_eq!(projected.output.name(), "ORDERS_scan");
        assert_eq!(projected.output.schema(), expected.schema());
        for name in names {
            assert_eq!(
                projected.output.column_by_name(name),
                expected.column_by_name(name)
            );
        }
        assert_eq!(projected.rows_passed, full.rows_passed);
        assert_eq!(projected.bytes_passed, expected.byte_size());
        assert_eq!(projected.bytes_scanned, orders.byte_size());
    }

    #[test]
    fn unknown_columns_are_errors() {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 5));
        let every_row = Predicate::orders_custkey_at_most(i64::MAX);
        assert!(scan(&orders, &every_row, Some(&["O_NOPE"])).is_err());
        // The LINEITEM predicate names a column ORDERS does not have, and
        // that is an error even when there is no row to test.
        let shipdate = Predicate::lineitem_shipdate_below(100);
        assert!(scan(&orders, &shipdate, None).is_err());
        let empty = Table::empty("E", crate::table::Schema::orders_projection());
        assert!(scan(&empty, &shipdate, None).is_err());
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
