//! The network exchange operator.
//!
//! The exchange operator is P-store's "workhorse" (Section 4.3): it moves
//! qualifying tuples between nodes, either *shuffling* them by a hash of the
//! join key or *broadcasting* them to every participant. This module performs
//! the real data movement (so downstream joins operate on exactly the rows
//! they would in a distributed run) and simultaneously emits the
//! [`FlowSet`] describing the bytes that crossed the network, which the
//! cluster runtime feeds to the flow-level simulator to obtain transfer
//! times.

use crate::error::PStoreError;
use eedc_netsim::{Flow, FlowSet, NodeId};
use eedc_simkit::units::Megabytes;
use eedc_storage::{hash_scatter, Table};

/// Output of an exchange: what every node received, and the flows that moved.
#[derive(Debug, Clone)]
pub struct ExchangeOutput {
    /// One received table per cluster node (nodes that are not destinations
    /// receive an empty table).
    pub received: Vec<Table>,
    /// The flows describing the data movement, including local (same-node)
    /// flows for exact byte accounting.
    pub flows: FlowSet,
}

/// The prologue both exchanges share: check `destinations` against the
/// cluster of `inputs.len()` nodes, and give every node an empty table shaped
/// like the first input fragment, named after the `operator`. Returns that
/// template fragment and the tables.
fn receivers<'a>(
    inputs: &'a [Table],
    destinations: &[NodeId],
    operator: &str,
) -> Result<(&'a Table, Vec<Table>), PStoreError> {
    if destinations.is_empty() {
        return Err(PStoreError::planning(format!(
            "{operator} needs at least one destination node"
        )));
    }
    let nodes = inputs.len();
    for &d in destinations {
        if d >= nodes {
            return Err(PStoreError::planning(format!(
                "destination node {d} outside cluster of {nodes} nodes"
            )));
        }
    }
    let template = inputs.first().ok_or_else(|| {
        PStoreError::planning(format!("{operator} needs at least one input fragment"))
    })?;
    let received = (0..nodes)
        .map(|node| {
            let name = format!("{}_{operator}_node{node}", template.name());
            Table::with_capacity(name, template.schema().clone(), 0)
        })
        .collect();
    Ok((template, received))
}

/// Hash-shuffle the per-node `inputs` on integer key column `key` across
/// `destinations`. `inputs` must hold one (possibly empty) table per cluster
/// node, all with identical schemas.
pub fn shuffle_exchange(
    inputs: &[Table],
    key: &str,
    destinations: &[NodeId],
    group: usize,
) -> Result<ExchangeOutput, PStoreError> {
    let (template, mut received) = receivers(inputs, destinations, "shuffle")?;
    let mut flows = FlowSet::new();
    let row_bytes: u64 = template
        .schema()
        .columns()
        .iter()
        .map(|(_, ty)| u64::from(ty.width_bytes()))
        .sum();

    for (source, input) in inputs.iter().enumerate() {
        // Scatter: one pass over the typed key column computes each row's
        // destination slot, then the rows are gathered straight onto the
        // end of their destination's table — written once, no fragment.
        let indices = hash_scatter(input.column_by_name(key)?, destinations.len())?;
        for (slot, rows) in indices.iter().enumerate() {
            let destination = destinations[slot];
            flows.push(Flow::with_group(
                source,
                destination,
                Megabytes::from_bytes(rows.len() as u64 * row_bytes),
                group,
            ));
            received[destination].append_gathered(input, rows)?;
        }
    }

    Ok(ExchangeOutput { received, flows })
}

/// Broadcast the per-node `inputs` to every destination: each destination
/// receives the concatenation of every node's input.
pub fn broadcast_exchange(
    inputs: &[Table],
    destinations: &[NodeId],
    group: usize,
) -> Result<ExchangeOutput, PStoreError> {
    let (_, mut received) = receivers(inputs, destinations, "broadcast")?;
    let mut flows = FlowSet::new();

    for (source, input) in inputs.iter().enumerate() {
        for &destination in destinations {
            flows.push(Flow::with_group(
                source,
                destination,
                input.byte_size(),
                group,
            ));
            received[destination].append_table(input)?;
        }
    }

    Ok(ExchangeOutput { received, flows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_storage::{hash_i64, hash_partition};
    use eedc_tpch::gen::OrdersGenerator;
    use eedc_tpch::scale::ScaleFactor;

    const SCALE: ScaleFactor = ScaleFactor(0.002);

    /// ORDERS hash-partitioned on O_CUSTKEY across 4 nodes — the
    /// partition-incompatible layout of the paper's Q3 experiments.
    fn orders_fragments() -> Vec<Table> {
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 1));
        hash_partition(&orders, "O_CUSTKEY", 4).unwrap().fragments
    }

    /// The construction `shuffle_exchange` replaced, kept as its oracle:
    /// materialise a fragment per (source, destination), size the flow from
    /// it, then copy it onto the destination.
    fn shuffle_by_fragments(
        inputs: &[Table],
        key: &str,
        destinations: &[NodeId],
        group: usize,
    ) -> ExchangeOutput {
        let (_, mut received) = receivers(inputs, destinations, "shuffle").unwrap();
        let mut flows = FlowSet::new();
        for (source, input) in inputs.iter().enumerate() {
            let indices =
                hash_scatter(input.column_by_name(key).unwrap(), destinations.len()).unwrap();
            for (slot, rows) in indices.iter().enumerate() {
                let destination = destinations[slot];
                let fragment = input.gather_rows("fragment", rows);
                flows.push(Flow::with_group(
                    source,
                    destination,
                    fragment.byte_size(),
                    group,
                ));
                received[destination].append_table(&fragment).unwrap();
            }
        }
        ExchangeOutput { received, flows }
    }

    fn received_rows(exchanged: &ExchangeOutput) -> usize {
        exchanged.received.iter().map(Table::row_count).sum()
    }

    #[test]
    fn shuffle_preserves_every_row_exactly_once() {
        let fragments = orders_fragments();
        let total: usize = fragments.iter().map(Table::row_count).sum();
        let exchanged = shuffle_exchange(&fragments, "O_ORDERKEY", &[0, 1, 2, 3], 0).unwrap();
        assert_eq!(received_rows(&exchanged), total);
        // Rows with the same key land on the same node: every row received
        // by node `d` must hash to destination `d`.
        for (node, node_table) in exchanged.received.iter().enumerate() {
            let keys = node_table.column_by_name("O_ORDERKEY").unwrap();
            for &key in keys.as_i64_slice().unwrap() {
                assert_eq!((hash_i64(key) % 4) as usize, node);
            }
        }
    }

    #[test]
    fn shuffle_gathers_what_fragment_then_append_built() {
        // Node 2 holds nothing, so every (2, destination) pair is empty and
        // still owes its zero-byte flow.
        let mut fragments = orders_fragments();
        fragments[2] = Table::empty(fragments[2].name(), fragments[2].schema().clone());
        for destinations in [&[0, 1, 2, 3][..], &[3, 1], &[2]] {
            let direct = shuffle_exchange(&fragments, "O_ORDERKEY", destinations, 5).unwrap();
            let staged = shuffle_by_fragments(&fragments, "O_ORDERKEY", destinations, 5);
            assert_eq!(direct.flows, staged.flows, "{destinations:?}");
            assert_eq!(direct.received, staged.received, "{destinations:?}");
            assert_eq!(direct.flows.len(), 4 * destinations.len());
            let from_empty = direct.flows.flows()[2 * destinations.len()];
            assert_eq!((from_empty.source, from_empty.bytes), (2, Megabytes(0.0)));
        }
    }

    #[test]
    fn shuffle_to_subset_only_populates_destinations() {
        // Heterogeneous execution: only the two Beefy nodes (0, 1) build hash
        // tables; Wimpy nodes end up with empty received tables.
        let fragments = orders_fragments();
        let total: usize = fragments.iter().map(Table::row_count).sum();
        let exchanged = shuffle_exchange(&fragments, "O_ORDERKEY", &[0, 1], 0).unwrap();
        assert_eq!(received_rows(&exchanged), total);
        assert!(exchanged.received[2].is_empty());
        assert!(exchanged.received[3].is_empty());
        assert!(!exchanged.received[0].is_empty());
        assert!(!exchanged.received[1].is_empty());
    }

    #[test]
    fn shuffle_flow_bytes_match_moved_data() {
        let fragments = orders_fragments();
        let total_bytes: f64 = fragments.iter().map(|t| t.byte_size().value()).sum();
        let exchanged = shuffle_exchange(&fragments, "O_ORDERKEY", &[0, 1, 2, 3], 0).unwrap();
        let flow_bytes = exchanged.flows.total_bytes().value();
        assert!((flow_bytes - total_bytes).abs() / total_bytes < 1e-9);
        // Roughly (N-1)/N of the data crosses the network.
        let network_fraction = exchanged.flows.network_bytes().value() / total_bytes;
        assert!((network_fraction - 0.75).abs() < 0.05, "{network_fraction}");
    }

    #[test]
    fn broadcast_replicates_everything_to_every_destination() {
        let fragments = orders_fragments();
        let total: usize = fragments.iter().map(Table::row_count).sum();
        let exchanged = broadcast_exchange(&fragments, &[0, 1, 2, 3], 0).unwrap();
        for node in 0..4 {
            assert_eq!(exchanged.received[node].row_count(), total);
        }
        // Each destination receives (N-1)/N of the data over the network; its
        // own fragment is local.
        let total_bytes: f64 = fragments.iter().map(|t| t.byte_size().value()).sum();
        let network = exchanged.flows.network_bytes().value();
        assert!((network - 3.0 * total_bytes).abs() / total_bytes < 1e-9);
    }

    #[test]
    fn exchange_rejects_bad_arguments() {
        let fragments = orders_fragments();
        assert!(shuffle_exchange(&fragments, "O_ORDERKEY", &[], 0).is_err());
        assert!(shuffle_exchange(&fragments, "O_ORDERKEY", &[9], 0).is_err());
        assert!(shuffle_exchange(&fragments, "O_NOPE", &[0], 0).is_err());
        assert!(broadcast_exchange(&fragments, &[], 0).is_err());
        assert!(broadcast_exchange(&fragments, &[7], 0).is_err());
        let empty: Vec<Table> = Vec::new();
        assert!(shuffle_exchange(&empty, "X", &[0], 0).is_err());
        assert!(broadcast_exchange(&empty, &[0], 0).is_err());
    }

    #[test]
    fn shuffle_after_partitioning_matches_direct_partitioning() {
        // Shuffling fragments partitioned on the "wrong" key yields the same
        // global multiset of rows per destination as hash-partitioning the
        // original table on the join key directly (up to row order).
        let orders = Table::from_orders(OrdersGenerator::new(SCALE, 2));
        let wrong = hash_partition(&orders, "O_CUSTKEY", 3).unwrap();
        let exchanged = shuffle_exchange(&wrong.fragments, "O_ORDERKEY", &[0, 1, 2], 0).unwrap();
        let direct = hash_partition(&orders, "O_ORDERKEY", 3).unwrap();
        // Row counts per node won't be identical (different modulus bases),
        // but totals must agree and every row must be present exactly once.
        assert_eq!(received_rows(&exchanged), direct.total_rows());
    }
}
