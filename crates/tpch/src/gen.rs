//! Deterministic TPC-H–shaped data generation.
//!
//! The generators produce the *projected* tuples the paper's P-store
//! experiments operate on (Section 4.3): four columns per tuple for LINEITEM
//! and ORDERS. Generation is fully deterministic for a given scale factor and
//! seed, so tests and benchmarks are reproducible, and iterator-based so that
//! arbitrarily large tables can be streamed without materialising them.
//!
//! The value distributions follow the TPC-H specification where it matters to
//! the paper's experiments:
//!
//! * every ORDERS key has between 1 and 7 LINEITEM rows (4 on average),
//! * `L_SHIPDATE` and `O_ORDERDATE` are uniform over the 1992–1998 date range,
//!   so a date-range predicate of width `w` days has selectivity `w / 2405`,
//! * `O_CUSTKEY` is uniform over the CUSTOMER key domain, so an equality or
//!   range predicate on it has a predictable selectivity.

use crate::scale::ScaleFactor;
use crate::schema::TpchTable;
use eedc_simkit::rng::SplitMix64;

/// Number of distinct ship/order dates in the generated date domain
/// (1992-01-01 .. 1998-08-02, as in the TPC-H specification).
const DATE_DOMAIN_DAYS: i32 = 2405;

/// A projected LINEITEM tuple: the four columns used by the paper's joins,
/// 20 bytes of payload plus the row's line number for verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineitemRow {
    /// `L_ORDERKEY`: foreign key into ORDERS.
    pub orderkey: i64,
    /// `L_EXTENDEDPRICE` in cents.
    pub extendedprice: i64,
    /// `L_DISCOUNT` in basis points (0–1000).
    pub discount: i32,
    /// `L_SHIPDATE` as days since 1992-01-01.
    pub shipdate: i32,
}

/// A projected ORDERS tuple: the four columns used by the paper's joins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdersRow {
    /// `O_ORDERKEY`: primary key.
    pub orderkey: i64,
    /// `O_ORDERDATE` as days since 1992-01-01.
    pub orderdate: i32,
    /// `O_SHIPPRIORITY` (0–4).
    pub shippriority: i32,
    /// `O_CUSTKEY`: foreign key into CUSTOMER.
    pub custkey: i64,
}

/// Deterministic generator of ORDERS rows.
#[derive(Debug, Clone)]
pub struct OrdersGenerator {
    next_key: i64,
    last_key: i64,
    customers: i64,
    rng: SplitMix64,
}

impl OrdersGenerator {
    /// Generator over the full ORDERS table at `scale`, seeded for
    /// reproducibility.
    pub fn new(scale: ScaleFactor, seed: u64) -> Self {
        let orders = scale.cardinality(TpchTable::Orders) as i64;
        let customers = (scale.cardinality(TpchTable::Customer) as i64).max(1);
        Self {
            next_key: 1,
            last_key: orders,
            customers,
            rng: SplitMix64::new(seed ^ 0x00D5E55),
        }
    }

    /// Number of rows this generator will produce in total.
    pub fn total_rows(&self) -> u64 {
        (self.last_key.max(0)) as u64
    }
}

impl Iterator for OrdersGenerator {
    type Item = OrdersRow;

    fn next(&mut self) -> Option<OrdersRow> {
        if self.next_key > self.last_key {
            return None;
        }
        let orderkey = self.next_key;
        self.next_key += 1;
        Some(OrdersRow {
            orderkey,
            orderdate: self.rng.below(DATE_DOMAIN_DAYS as u64) as i32,
            shippriority: self.rng.below(5) as i32,
            custkey: 1 + self.rng.below(self.customers as u64) as i64,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.last_key - self.next_key + 1).max(0) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OrdersGenerator {}

/// Deterministic generator of LINEITEM rows.
///
/// Every order key receives between 1 and 7 line items (drawn uniformly, 4 on
/// average as in the specification), so foreign-key joins against ORDERS have
/// the correct fan-out.
#[derive(Debug, Clone)]
pub struct LineitemGenerator {
    current_order: i64,
    last_order: i64,
    lines_left_in_order: u32,
    rng: SplitMix64,
}

impl LineitemGenerator {
    /// Generator over the full LINEITEM table at `scale`, seeded for
    /// reproducibility.
    pub fn new(scale: ScaleFactor, seed: u64) -> Self {
        let orders = scale.cardinality(TpchTable::Orders) as i64;
        let mut rng = SplitMix64::new(seed ^ 0x11E17E);
        let first_lines = if orders > 0 {
            1 + rng.below(7) as u32
        } else {
            0
        };
        Self {
            current_order: 1,
            last_order: orders,
            lines_left_in_order: first_lines,
            rng,
        }
    }
}

impl Iterator for LineitemGenerator {
    type Item = LineitemRow;

    fn next(&mut self) -> Option<LineitemRow> {
        while self.lines_left_in_order == 0 {
            self.current_order += 1;
            if self.current_order > self.last_order {
                return None;
            }
            self.lines_left_in_order = 1 + self.rng.below(7) as u32;
        }
        if self.current_order > self.last_order {
            return None;
        }
        self.lines_left_in_order -= 1;
        Some(LineitemRow {
            orderkey: self.current_order,
            extendedprice: 10_000 + self.rng.below(990_001) as i64,
            discount: self.rng.below(1001) as i32,
            shipdate: self.rng.below(DATE_DOMAIN_DAYS as u64) as i32,
        })
    }

    /// The current order's remaining lines, plus 1 to 7 for each order still
    /// to come.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.lines_left_in_order as usize;
        let later = (self.last_order - self.current_order).max(0) as usize;
        (left + later, Some(left + 7 * later))
    }
}

/// The ship-date threshold (in days since 1992-01-01) below which a fraction
/// `selectivity` of uniformly distributed dates fall. Used to build predicates
/// with a target selectivity, mirroring how the paper dials the LINEITEM and
/// ORDERS predicates between 1% and 100%.
pub fn date_cutoff_for_selectivity(selectivity: f64) -> i32 {
    let s = selectivity.clamp(0.0, 1.0);
    (s * DATE_DOMAIN_DAYS as f64).round() as i32
}

/// The customer-key threshold below which a fraction `selectivity` of
/// uniformly distributed `O_CUSTKEY` values fall, for the ORDERS-side
/// predicate of the paper's Q3-style join.
pub fn custkey_cutoff_for_selectivity(scale: ScaleFactor, selectivity: f64) -> i64 {
    let customers = scale.cardinality(TpchTable::Customer) as f64;
    let s = selectivity.clamp(0.0, 1.0);
    (s * customers).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ScaleFactor = ScaleFactor(0.001);

    #[test]
    fn orders_generator_is_deterministic_and_complete() {
        let rows_a: Vec<OrdersRow> = OrdersGenerator::new(TINY, 7).collect();
        let rows_b: Vec<OrdersRow> = OrdersGenerator::new(TINY, 7).collect();
        assert_eq!(rows_a, rows_b);
        assert_eq!(rows_a.len(), 1500);
        // Keys are dense and unique: 1..=1500.
        let mut keys: Vec<i64> = rows_a.iter().map(|r| r.orderkey).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1500);
        assert_eq!(keys.first().copied(), Some(1));
        assert_eq!(keys.last().copied(), Some(1500));
    }

    #[test]
    fn different_seeds_produce_different_attributes() {
        let a: Vec<OrdersRow> = OrdersGenerator::new(TINY, 7).collect();
        let b: Vec<OrdersRow> = OrdersGenerator::new(TINY, 8).collect();
        assert_ne!(a, b);
        // but the key domain is identical.
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn lineitem_fanout_averages_four() {
        let rows: Vec<LineitemRow> = LineitemGenerator::new(TINY, 3).collect();
        let orders = 1500.0;
        let fanout = rows.len() as f64 / orders;
        assert!(fanout > 3.5 && fanout < 4.5, "fanout {fanout}");
        // Every order key is within the ORDERS key domain.
        assert!(rows.iter().all(|r| r.orderkey >= 1 && r.orderkey <= 1500));
    }

    #[test]
    fn every_lineitem_order_key_exists_in_orders() {
        let order_keys: std::collections::BTreeSet<i64> =
            OrdersGenerator::new(TINY, 7).map(|r| r.orderkey).collect();
        for row in LineitemGenerator::new(TINY, 7) {
            assert!(order_keys.contains(&row.orderkey));
        }
    }

    #[test]
    fn date_predicate_selectivity_is_predictable() {
        let rows: Vec<LineitemRow> = LineitemGenerator::new(ScaleFactor(0.01), 5).collect();
        for target in [0.01, 0.05, 0.10, 0.50] {
            let cutoff = date_cutoff_for_selectivity(target);
            let hits = rows.iter().filter(|r| r.shipdate < cutoff).count();
            let observed = hits as f64 / rows.len() as f64;
            assert!(
                (observed - target).abs() < 0.02,
                "target {target}, observed {observed}"
            );
        }
    }

    #[test]
    fn custkey_predicate_selectivity_is_predictable() {
        let scale = ScaleFactor(0.01);
        let rows: Vec<OrdersRow> = OrdersGenerator::new(scale, 5).collect();
        for target in [0.01, 0.10, 0.50] {
            let cutoff = custkey_cutoff_for_selectivity(scale, target);
            let hits = rows.iter().filter(|r| r.custkey <= cutoff).count();
            let observed = hits as f64 / rows.len() as f64;
            assert!(
                (observed - target).abs() < 0.03,
                "target {target}, observed {observed}"
            );
        }
    }

    #[test]
    fn cutoffs_are_clamped() {
        assert_eq!(date_cutoff_for_selectivity(-1.0), 0);
        assert_eq!(date_cutoff_for_selectivity(2.0), DATE_DOMAIN_DAYS);
        assert_eq!(
            custkey_cutoff_for_selectivity(ScaleFactor(1.0), 2.0),
            150_000
        );
    }

    #[test]
    fn lineitem_size_hint_bounds_the_rows_still_to_come() {
        for scale in [0.0, 0.0001, TINY.0, 0.003] {
            for seed in [0, 1, 7, 42] {
                let mut generator = LineitemGenerator::new(ScaleFactor(scale), seed);
                let total = generator.clone().count();
                if scale == 0.0 {
                    assert_eq!(total, 0);
                }
                for left in (0..=total).rev() {
                    let (lower, upper) = generator.size_hint();
                    assert!(
                        lower <= left && upper.is_some_and(|upper| left <= upper),
                        "scale {scale} seed {seed}: {left} rows left, hint ({lower}, {upper:?})"
                    );
                    assert_eq!(generator.next().is_some(), left > 0);
                }
                assert_eq!(generator.size_hint(), (0, Some(0)));
            }
        }
    }

    #[test]
    fn size_hint_matches_actual_count() {
        let generator = OrdersGenerator::new(TINY, 1);
        let (lo, hi) = generator.size_hint();
        let count = generator.count();
        assert_eq!(lo, count);
        assert_eq!(hi, Some(count));
    }
}
