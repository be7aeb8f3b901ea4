//! Table partitioning across cluster nodes.
//!
//! The paper's clusters *hash partition* ("hash segmentation") large tables
//! on a chosen attribute (Section 3.1). Whether a join's inputs are hash
//! partitioned on the join key decides whether the join is
//! partition-compatible (no network traffic) or requires a shuffle /
//! broadcast — the central distinction of the whole study. (Replicating a
//! small build table is what P-store's broadcast exchange does at run time.)

use crate::column::{Column, Value};
use crate::error::StorageError;
use crate::table::Table;

/// How a table is laid out across the nodes of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionSpec {
    /// Hash partition on a column: row goes to `hash(value) % nodes`.
    Hash {
        /// The partitioning column.
        column: String,
    },
    /// Round-robin placement (used for tables scanned without joins).
    RoundRobin,
}

impl PartitionSpec {
    /// Hash partitioning on the given column.
    pub fn hash(column: impl Into<String>) -> Self {
        PartitionSpec::Hash {
            column: column.into(),
        }
    }
}

/// A deterministic 64-bit mix (splitmix64 finaliser) so partition placement is
/// stable across runs and platforms.
pub fn hash_of_value(value: &Value) -> u64 {
    let raw = match *value {
        Value::Int64(v) => v as u64,
        Value::Int32(v) => v as i64 as u64,
        Value::Float64(v) => v.to_bits(),
    };
    hash_i64(raw as i64)
}

/// The same splitmix64 mix over a raw integer key — the hash the execution
/// kernel applies per probe row, skipping the [`Value`] round-trip.
/// `hash_i64(k)` equals `hash_of_value(&Value::Int64(k))` (and the `Int32`
/// encoding of the same integer), so kernel-side hashing and partition
/// placement can never disagree.
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
    /// The layout that produced the fragments.
    pub spec: PartitionSpec,
    /// One fragment per node, in node order.
    pub fragments: Vec<Table>,
}

impl Partitioned {
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

    /// The ratio of the largest fragment's row count to the mean fragment row
    /// count — 1.0 is perfect balance; data skew drives it above 1.
    pub fn imbalance(&self) -> f64 {
        if self.fragments.is_empty() {
            return 1.0;
        }
        let total = self.total_rows() as f64;
        if total == 0.0 {
            return 1.0;
        }
        let mean = total / self.fragments.len() as f64;
        let max = self
            .fragments
            .iter()
            .map(Table::row_count)
            .max()
            .unwrap_or(0) as f64;
        max / mean
    }
}

/// The scatter pass of hash placement: the row indices of `key`, ascending,
/// per destination `hash % buckets`. The column's type is matched once and
/// the typed slice hashed with [`hash_i64`] (`Int32` widened, `Float64` by
/// bit pattern), which places every row exactly where a per-row
/// [`hash_of_value`] would. [`hash_partition`] and P-store's shuffle exchange
/// both place rows through this one function.
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
    let mut indices = vec![Vec::with_capacity(key.len() / buckets + 1); buckets];
    match key {
        Column::Int64(values) => scatter(values, &mut indices, |v| v),
        Column::Int32(values) => scatter(values, &mut indices, i64::from),
        Column::Float64(values) => scatter(values, &mut indices, |v| v.to_bits() as i64),
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
    let fragments = indices
        .iter()
        .enumerate()
        .map(|(i, rows)| table.gather_rows(format!("{}_part{}", table.name(), i), rows))
        .collect();
    Ok(Partitioned {
        spec: PartitionSpec::hash(column),
        fragments,
    })
}

/// Round-robin partition `table` into `nodes` fragments.
pub fn round_robin_partition(table: &Table, nodes: usize) -> Result<Partitioned, StorageError> {
    if nodes == 0 {
        return Err(StorageError::invalid("cannot partition across zero nodes"));
    }
    let mut indices: Vec<Vec<u32>> = vec![Vec::with_capacity(table.row_count() / nodes + 1); nodes];
    for row in 0..table.row_count() {
        indices[row % nodes].push(row as u32);
    }
    let fragments = indices
        .iter()
        .enumerate()
        .map(|(i, rows)| table.gather_rows(format!("{}_part{}", table.name(), i), rows))
        .collect();
    Ok(Partitioned {
        spec: PartitionSpec::RoundRobin,
        fragments,
    })
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

    #[test]
    fn hash_partition_is_complete_and_disjoint() {
        let table = orders();
        let partitioned = hash_partition(&table, "O_ORDERKEY", 8).unwrap();
        assert_eq!(partitioned.len(), 8);
        assert_eq!(partitioned.total_rows(), table.row_count());
        // Keys are unique, so the union of fragment keys must equal the table
        // keys without duplication.
        let mut seen = BTreeSet::new();
        for fragment in &partitioned.fragments {
            let keys = fragment.column_by_name("O_ORDERKEY").unwrap();
            for i in 0..fragment.row_count() {
                assert!(seen.insert(keys.get(i).unwrap().as_i64().unwrap()));
            }
        }
        assert_eq!(seen.len(), table.row_count());
    }

    #[test]
    fn hash_partition_is_reasonably_balanced() {
        let partitioned = hash_partition(&orders(), "O_ORDERKEY", 8).unwrap();
        assert!(partitioned.imbalance() < 1.2, "{}", partitioned.imbalance());
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
        // Co-partitioning guarantee: the same join-key value always maps to
        // the same node, which is what makes pre-partitioned joins free of
        // network traffic.
        for key in [1_i64, 17, 123, 999] {
            let v = Value::Int64(key);
            assert_eq!(hash_of_value(&v) % 8, hash_of_value(&v) % 8);
        }
        // Int32 and Int64 encodings of the same integer hash identically, so
        // co-partitioning still works when key columns differ only in width.
        assert_eq!(
            hash_of_value(&Value::Int64(5)),
            hash_of_value(&Value::Int32(5))
        );
        // The raw-key hash used by the execution kernel agrees with the
        // Value-level hash used for placement, including negative keys.
        for key in [0_i64, 5, -5, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(hash_i64(key), hash_of_value(&Value::Int64(key)));
        }
    }

    #[test]
    fn typed_scatter_places_rows_where_the_value_hash_does() {
        // The reference: one boxed `Value` and one `hash_of_value` per row.
        let mut table = orders();
        table.set_name("T");
        let reference = |column: &str, nodes: usize| -> Vec<Table> {
            let key = table.column_by_name(column).unwrap();
            let mut indices = vec![Vec::new(); nodes];
            for row in 0..table.row_count() {
                let node = hash_of_value(&key.get(row).unwrap()) % nodes as u64;
                indices[node as usize].push(row as u32);
            }
            let fragments = indices.iter().enumerate();
            fragments
                .map(|(i, rows)| table.gather_rows(format!("T_part{i}"), rows))
                .collect()
        };
        for column in ["O_ORDERKEY", "O_CUSTKEY", "O_ORDERDATE"] {
            for nodes in [1, 3, 8] {
                let partitioned = hash_partition(&table, column, nodes).unwrap();
                assert_eq!(
                    partitioned.fragments,
                    reference(column, nodes),
                    "{column} across {nodes} nodes"
                );
            }
        }
        // Floats hash by bit pattern, as `hash_of_value` does.
        let floats = Column::Float64(vec![0.0, -0.0, 1.5, f64::NAN, -7.25]);
        let scattered = hash_scatter(&floats, 3).unwrap();
        for (bucket, rows) in scattered.iter().enumerate() {
            for &row in rows {
                let value = floats.get(row as usize).unwrap();
                assert_eq!(hash_of_value(&value) % 3, bucket as u64);
            }
        }
        assert_eq!(scattered.iter().map(Vec::len).sum::<usize>(), floats.len());
        assert!(hash_scatter(&floats, 0).is_err());
    }

    #[test]
    fn round_robin_is_balanced() {
        let partitioned = round_robin_partition(&orders(), 7).unwrap();
        assert_eq!(partitioned.total_rows(), orders().row_count());
        assert!(partitioned.imbalance() < 1.01);
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

    #[test]
    fn empty_partitioned_imbalance_is_one() {
        let empty = Partitioned {
            spec: PartitionSpec::RoundRobin,
            fragments: Vec::new(),
        };
        assert_eq!(empty.imbalance(), 1.0);
        assert!(empty.is_empty());
    }
}
