//! Scale factor arithmetic: cardinalities and byte sizes of the TPC-H tables.

use crate::schema::{projected_tuple_bytes, TpchTable};
use eedc_simkit::units::Megabytes;
use std::fmt;

/// A TPC-H scale factor.
///
/// Scale factor 1 corresponds to roughly 1 GB of raw data; the paper uses
/// scale factors 1000 (≈1 TB) and 400 (≈400 GB). Fractional scale factors are
/// allowed so that engine-level experiments can run on laptop-sized data while
/// preserving the tables' relative cardinalities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleFactor(pub f64);

impl ScaleFactor {
    /// The SF-1000 configuration of the Vertica / Cluster-V experiments.
    pub const SF1000: ScaleFactor = ScaleFactor(1000.0);
    /// The SF-400 configuration of the heterogeneous prototype experiments.
    pub const SF400: ScaleFactor = ScaleFactor(400.0);

    /// Construct a scale factor; values must be positive and finite.
    pub fn new(sf: f64) -> Self {
        ScaleFactor(sf)
    }

    /// The raw scale value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Row count of a table at this scale factor, using the TPC-H
    /// specification cardinalities (NATION and REGION are fixed-size).
    pub fn cardinality(self, table: TpchTable) -> u64 {
        let base: f64 = match table {
            TpchTable::Lineitem => 6_000_000.0,
            TpchTable::Orders => 1_500_000.0,
            TpchTable::Customer => 150_000.0,
            TpchTable::PartSupp => 800_000.0,
            TpchTable::Part => 200_000.0,
            TpchTable::Supplier => 10_000.0,
            TpchTable::Nation => return 25,
            TpchTable::Region => return 5,
        };
        (base * self.0).round().max(0.0) as u64
    }

    /// Size of the *projected* working set of a table at this scale factor —
    /// the paper's P-store experiments store exactly four 20-byte column
    /// projections per tuple for both LINEITEM and ORDERS (Section 4.3).
    pub fn projected_size(self, table: TpchTable) -> Megabytes {
        Megabytes::from_bytes(self.cardinality(table) * u64::from(projected_tuple_bytes(table)))
    }
}

impl fmt::Display for ScaleFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf1_cardinalities_match_the_specification() {
        let sf = ScaleFactor::new(1.0);
        assert_eq!(sf.cardinality(TpchTable::Lineitem), 6_000_000);
        assert_eq!(sf.cardinality(TpchTable::Orders), 1_500_000);
        assert_eq!(sf.cardinality(TpchTable::Customer), 150_000);
        assert_eq!(sf.cardinality(TpchTable::Supplier), 10_000);
        assert_eq!(sf.cardinality(TpchTable::Part), 200_000);
        assert_eq!(sf.cardinality(TpchTable::PartSupp), 800_000);
        assert_eq!(sf.cardinality(TpchTable::Nation), 25);
        assert_eq!(sf.cardinality(TpchTable::Region), 5);
    }

    #[test]
    fn fixed_tables_do_not_scale() {
        assert_eq!(ScaleFactor::SF1000.cardinality(TpchTable::Nation), 25);
        assert_eq!(ScaleFactor::SF400.cardinality(TpchTable::Region), 5);
    }

    #[test]
    fn sf400_projected_working_sets_match_section_5_2() {
        // "The working sets (after projection) for the LINEITEM and the ORDERS
        // tables are 48GB and 12GB respectively."
        let sf = ScaleFactor::SF400;
        let lineitem = sf.projected_size(TpchTable::Lineitem).as_gigabytes();
        let orders = sf.projected_size(TpchTable::Orders).as_gigabytes();
        assert!((lineitem - 48.0).abs() < 0.5, "lineitem {lineitem} GB");
        assert!((orders - 12.0).abs() < 0.2, "orders {orders} GB");
    }

    #[test]
    fn fractional_scale_factors_shrink_proportionally() {
        let sf = ScaleFactor::new(0.01);
        assert_eq!(sf.cardinality(TpchTable::Lineitem), 60_000);
        assert_eq!(sf.cardinality(TpchTable::Orders), 15_000);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ScaleFactor::SF1000.to_string(), "SF1000");
        assert_eq!(ScaleFactor::new(0.5).to_string(), "SF0.5");
    }
}
