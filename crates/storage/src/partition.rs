//! Table partitioning across cluster nodes.
//!
//! The paper's clusters *hash partition* ("hash segmentation") large tables
//! on a chosen attribute (Section 3.1). Whether a join's inputs are hash
//! partitioned on the join key decides whether the join is
//! partition-compatible (no network traffic) or requires a shuffle /
//! broadcast — the central distinction of the whole study. (Replicating a
//! small build table is what P-store's broadcast exchange does at run time.)

use crate::column::Column;
use crate::error::StorageError;
use crate::table::Table;

/// A deterministic 64-bit mix (splitmix64 finaliser) so partition placement
/// is stable across runs and platforms. Partition placement and the
/// execution kernel's per-probe-row hash are both this function, with
/// `Int32` keys widened to `i64`, so they can never disagree.
#[inline]
pub fn hash_i64(key: i64) -> u64 {
    let mut z = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A table split into per-node fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioned {
    /// One fragment per node, in node order.
    pub fragments: Vec<Table>,
}

impl Partitioned {
    /// Fragment `i` of `table` holds its rows `indices[i]`, in order.
    fn gather(table: &Table, indices: impl IntoIterator<Item = Vec<u32>>) -> Self {
        let fragments = indices
            .into_iter()
            .enumerate()
            .map(|(i, rows)| table.gather_rows(format!("{}_part{i}", table.name()), &rows));
        Partitioned {
            fragments: fragments.collect(),
        }
    }

    /// Total rows across fragments.
    pub fn total_rows(&self) -> usize {
        self.fragments.iter().map(Table::row_count).sum()
    }

    /// Number of fragments (nodes).
    pub fn len(&self) -> usize {
        self.fragments.len()
    }

    /// Whether there are no fragments.
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// The scatter pass of hash placement: the row indices of `key`, ascending,
/// per destination `hash_i64(key) % buckets` (`Int32` keys widened). The
/// column's type is matched once and the typed slice hashed in one loop;
/// every bucket reserves its even share of the rows up front.
/// [`hash_partition`] and P-store's shuffle exchange both place rows through
/// this one function.
pub fn hash_scatter(key: &Column, buckets: usize) -> Result<Vec<Vec<u32>>, StorageError> {
    fn scatter<T: Copy>(values: &[T], indices: &mut [Vec<u32>], raw: impl Fn(T) -> i64) {
        let buckets = indices.len() as u64;
        for (row, &value) in values.iter().enumerate() {
            indices[(hash_i64(raw(value)) % buckets) as usize].push(row as u32);
        }
    }
    if buckets == 0 {
        return Err(StorageError::invalid(
            "cannot scatter rows across zero buckets",
        ));
    }
    let share = key.len() / buckets + 1;
    let mut indices: Vec<Vec<u32>> = (0..buckets).map(|_| Vec::with_capacity(share)).collect();
    match key {
        Column::Int64(values) => scatter(values, &mut indices, |v| v),
        Column::Int32(values) => scatter(values, &mut indices, i64::from),
    }
    Ok(indices)
}

/// Hash partition `table` on `column` into `nodes` fragments. Runs as a
/// scatter: one pass computes each row's destination, then every fragment is
/// materialised with a per-column gather.
pub fn hash_partition(
    table: &Table,
    column: &str,
    nodes: usize,
) -> Result<Partitioned, StorageError> {
    let indices = hash_scatter(table.column_by_name(column)?, nodes)?;
    Ok(Partitioned::gather(table, indices))
}

/// Round-robin partition `table` into `nodes` fragments: fragment `i` holds
/// rows `i`, `i + nodes`, `i + 2 · nodes`, ….
pub fn round_robin_partition(table: &Table, nodes: usize) -> Result<Partitioned, StorageError> {
    if nodes == 0 {
        return Err(StorageError::invalid("cannot partition across zero nodes"));
    }
    let rows = table.row_count();
    let indices = (0..nodes).map(|i| (i..rows).step_by(nodes).map(|row| row as u32).collect());
    Ok(Partitioned::gather(table, indices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_tpch::gen::OrdersGenerator;
    use eedc_tpch::scale::ScaleFactor;
    use std::collections::BTreeSet;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    fn orders() -> Table {
        Table::from_orders(OrdersGenerator::new(SCALE, 1))
    }

    /// The largest fragment's row count over the mean: 1.0 is perfect
    /// balance.
    fn imbalance(partitioned: &Partitioned) -> f64 {
        let sizes = partitioned.fragments.iter().map(Table::row_count);
        let mean = partitioned.total_rows() as f64 / partitioned.len() as f64;
        sizes.max().unwrap() as f64 / mean
    }

    #[test]
    fn hash_partition_is_complete_and_disjoint() {
        let table = orders();
        let partitioned = hash_partition(&table, "O_ORDERKEY", 8).unwrap();
        assert_eq!(partitioned.len(), 8);
        assert!(!partitioned.is_empty());
        assert!(Partitioned { fragments: vec![] }.is_empty());
        assert_eq!(partitioned.total_rows(), table.row_count());
        // Keys are unique, so the union of fragment keys must equal the table
        // keys without duplication.
        let mut seen = BTreeSet::new();
        for fragment in &partitioned.fragments {
            let keys = fragment.column_by_name("O_ORDERKEY").unwrap();
            for &key in keys.as_i64_slice().unwrap() {
                assert!(seen.insert(key));
            }
        }
        assert_eq!(seen.len(), table.row_count());
    }

    #[test]
    fn hash_partition_is_reasonably_balanced() {
        let partitioned = hash_partition(&orders(), "O_ORDERKEY", 8).unwrap();
        let imbalance = imbalance(&partitioned);
        assert!(imbalance < 1.2, "{imbalance}");
    }

    #[test]
    fn hash_placement_is_deterministic() {
        let a = hash_partition(&orders(), "O_CUSTKEY", 4).unwrap();
        let b = hash_partition(&orders(), "O_CUSTKEY", 4).unwrap();
        for (x, y) in a.fragments.iter().zip(&b.fragments) {
            assert_eq!(x.row_count(), y.row_count());
        }
    }

    #[test]
    fn same_key_lands_on_same_node_across_tables() {
        // Co-partitioning guarantee: an `Int32` key column places every row
        // where the `Int64` column of the same integers does, so key columns
        // that differ only in width are still co-partitioned — negative keys
        // and the `i32` extremes included.
        let narrow = [0, 5, -5, 17, 123, 999, i32::MAX, i32::MIN];
        let wide = narrow.map(i64::from);
        for nodes in [1, 3, 8] {
            assert_eq!(
                hash_scatter(&Column::Int32(narrow.to_vec()), nodes).unwrap(),
                hash_scatter(&Column::Int64(wide.to_vec()), nodes).unwrap(),
                "{nodes} nodes"
            );
        }
    }

    #[test]
    fn typed_scatter_places_rows_where_the_value_hash_does() {
        // The reference: one widened key and one `hash_i64` per row.
        let table = orders();
        let reference = |column: &str, nodes: usize| -> Vec<Vec<u32>> {
            let key = table.column_by_name(column).unwrap();
            let keys: Vec<i64> = match key {
                Column::Int64(values) => values.clone(),
                Column::Int32(values) => values.iter().map(|&v| i64::from(v)).collect(),
            };
            let mut indices = vec![Vec::new(); nodes];
            for (row, &key) in keys.iter().enumerate() {
                indices[(hash_i64(key) % nodes as u64) as usize].push(row as u32);
            }
            indices
        };
        for column in ["O_ORDERKEY", "O_CUSTKEY", "O_ORDERDATE"] {
            for nodes in [1, 3, 8] {
                let key = table.column_by_name(column).unwrap();
                let expected = reference(column, nodes);
                assert_eq!(
                    hash_scatter(key, nodes).unwrap(),
                    expected,
                    "{column} across {nodes} nodes"
                );
                let partitioned = hash_partition(&table, column, nodes).unwrap();
                for (fragment, rows) in partitioned.fragments.iter().zip(&expected) {
                    assert_eq!(fragment, &table.gather_rows(fragment.name(), rows));
                }
            }
        }
        assert!(hash_scatter(&Column::Int64(vec![1]), 0).is_err());
    }

    #[test]
    fn scatter_reserves_every_buckets_share() {
        // Each bucket reserves its even share before the first push, not
        // only the last one: with every row on one key, the buckets no row
        // reaches still hold their share.
        for key in [
            Column::Int64((0..1000).collect()),
            Column::Int64(vec![42; 1000]),
        ] {
            for buckets in [1, 4, 7] {
                let scattered = hash_scatter(&key, buckets).unwrap();
                for (bucket, rows) in scattered.iter().enumerate() {
                    let share = key.len() / buckets;
                    assert!(rows.capacity() >= share, "bucket {bucket} of {buckets}");
                }
            }
        }
    }

    #[test]
    fn round_robin_is_balanced() {
        let table = orders();
        let partitioned = round_robin_partition(&table, 7).unwrap();
        assert_eq!(partitioned.total_rows(), table.row_count());
        assert!(imbalance(&partitioned) < 1.01);
        // Fragment `i` holds every 7th row from row `i`, in order.
        let keys = table.column_by_name("O_ORDERKEY").unwrap();
        let keys = keys.as_i64_slice().unwrap();
        for (i, fragment) in partitioned.fragments.iter().enumerate() {
            let column = fragment.column_by_name("O_ORDERKEY").unwrap();
            let expected: Vec<i64> = keys.iter().skip(i).step_by(7).copied().collect();
            assert_eq!(column.as_i64_slice(), Some(&expected[..]), "fragment {i}");
        }
    }

    #[test]
    fn zero_nodes_is_an_error() {
        let table = orders();
        assert!(hash_partition(&table, "O_ORDERKEY", 0).is_err());
        assert!(round_robin_partition(&table, 0).is_err());
    }

    #[test]
    fn unknown_partition_column_is_an_error() {
        assert!(hash_partition(&orders(), "O_NOPE", 4).is_err());
    }
}
