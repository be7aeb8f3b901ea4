//! The TPC-H schema: table identities, row widths, and the column projections
//! the paper's P-store experiments use.

use std::fmt;

/// The eight TPC-H base tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchTable {
    /// LINEITEM — the fact table (6 M rows per scale factor unit).
    Lineitem,
    /// ORDERS (1.5 M rows per scale factor unit).
    Orders,
    /// CUSTOMER (150 K rows per scale factor unit).
    Customer,
    /// PARTSUPP (800 K rows per scale factor unit).
    PartSupp,
    /// PART (200 K rows per scale factor unit).
    Part,
    /// SUPPLIER (10 K rows per scale factor unit).
    Supplier,
    /// NATION (fixed 25 rows).
    Nation,
    /// REGION (fixed 5 rows).
    Region,
}

impl TpchTable {
    /// All base tables, largest first.
    pub const ALL: [TpchTable; 8] = [
        TpchTable::Lineitem,
        TpchTable::PartSupp,
        TpchTable::Orders,
        TpchTable::Part,
        TpchTable::Customer,
        TpchTable::Supplier,
        TpchTable::Nation,
        TpchTable::Region,
    ];

    /// Average full-width row size in bytes (TPC-H specification estimates,
    /// uncompressed).
    fn average_row_bytes(self) -> u32 {
        match self {
            TpchTable::Lineitem => 112,
            TpchTable::Orders => 121,
            TpchTable::Customer => 179,
            TpchTable::PartSupp => 144,
            TpchTable::Part => 155,
            TpchTable::Supplier => 159,
            TpchTable::Nation => 128,
            TpchTable::Region => 124,
        }
    }

    /// The table name as it appears in the TPC-H specification.
    pub fn name(self) -> &'static str {
        match self {
            TpchTable::Lineitem => "LINEITEM",
            TpchTable::Orders => "ORDERS",
            TpchTable::Customer => "CUSTOMER",
            TpchTable::PartSupp => "PARTSUPP",
            TpchTable::Part => "PART",
            TpchTable::Supplier => "SUPPLIER",
            TpchTable::Nation => "NATION",
            TpchTable::Region => "REGION",
        }
    }
}

impl fmt::Display for TpchTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Size in bytes of the projected tuples used by the paper's P-store
/// experiments (Section 4.3): four columns, 20 bytes per tuple, for both
/// LINEITEM (`L_ORDERKEY, L_EXTENDEDPRICE, L_DISCOUNT, L_SHIPDATE`) and ORDERS
/// (`O_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY, O_CUSTKEY`). Other tables fall
/// back to their full row width.
pub fn projected_tuple_bytes(table: TpchTable) -> u32 {
    match table {
        TpchTable::Lineitem | TpchTable::Orders => 20,
        other => other.average_row_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projected_tuples_are_20_bytes_for_the_join_tables() {
        assert_eq!(projected_tuple_bytes(TpchTable::Lineitem), 20);
        assert_eq!(projected_tuple_bytes(TpchTable::Orders), 20);
        assert_eq!(
            projected_tuple_bytes(TpchTable::Supplier),
            TpchTable::Supplier.average_row_bytes()
        );
    }

    #[test]
    fn names_and_display_agree() {
        for table in TpchTable::ALL {
            assert_eq!(table.to_string(), table.name());
            assert!(table.average_row_bytes() > 0);
        }
        assert_eq!(TpchTable::Lineitem.name(), "LINEITEM");
    }

    #[test]
    fn all_lists_every_table_once() {
        let mut names: Vec<&str> = TpchTable::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
