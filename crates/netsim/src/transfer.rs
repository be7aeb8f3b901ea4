//! Transfer plans and the flow-completion simulator.
//!
//! A *transfer* is a set of flows executed concurrently over the fabric: the
//! repartitioning shuffle of a partition-incompatible join (onto all nodes, or
//! onto the Beefy nodes of a heterogeneous plan) or the broadcast of a small
//! build table. The [`TransferSimulator`] advances simulated time
//! from flow completion to flow completion, recomputing the max–min fair
//! rates whenever a flow finishes, and reports per-flow and per-node
//! completion times.

use crate::error::NetError;
use crate::fabric::{Fabric, NodeId};
use crate::fairshare::max_min_fair_share;
use crate::flow::{Flow, FlowSet};
use eedc_simkit::units::{Megabytes, Seconds};
use std::collections::BTreeMap;

/// Numerical floor below which a flow is considered complete.
const BYTES_EPSILON: f64 = 1e-9;

/// Build the flow set of a hash-repartition *shuffle*: every node `i` holds
/// `qualifying[i]` MB of predicate-passing tuples and hash-partitions them
/// uniformly across `destinations`. Data hashed to the local node never
/// crosses the network and is recorded as a local flow.
///
/// With `destinations` equal to all nodes this is the dual-shuffle pattern of
/// Section 4.3.1; with `destinations` restricted to the Beefy nodes it is the
/// heterogeneous scan-and-forward pattern of Section 5.2.2.
pub fn shuffle_flows(qualifying: &[Megabytes], destinations: &[NodeId], group: usize) -> FlowSet {
    let mut set = FlowSet::new();
    if destinations.is_empty() {
        return set;
    }
    let share = 1.0 / destinations.len() as f64;
    for (source, &bytes) in qualifying.iter().enumerate() {
        if bytes.value() <= 0.0 {
            continue;
        }
        for &destination in destinations {
            set.push(Flow::with_group(source, destination, bytes * share, group));
        }
    }
    set
}

/// The result of simulating a transfer to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// Time at which the last flow finished.
    pub total_time: Seconds,
    /// Completion time of each flow, indexed like the input flow set. Local
    /// flows complete at time zero.
    pub flow_completion: Vec<Seconds>,
    /// Completion time of each flow group (query), keyed by group id.
    pub group_completion: BTreeMap<usize, Seconds>,
    /// Per-node time until the node finished sending all of its outbound
    /// flows.
    pub node_send_completion: Vec<Seconds>,
    /// Per-node time until the node finished receiving all of its inbound
    /// flows.
    pub node_receive_completion: Vec<Seconds>,
}

/// Flow-completion simulator over one fabric.
#[derive(Debug, Clone)]
pub struct TransferSimulator<'a> {
    fabric: &'a Fabric,
}

impl<'a> TransferSimulator<'a> {
    /// Create a simulator over the given fabric.
    pub fn new(fabric: &'a Fabric) -> Self {
        Self { fabric }
    }

    /// Simulate the flow set to completion.
    ///
    /// The simulation recomputes the max–min fair allocation each time a flow
    /// finishes; between completions the rates are constant, so each step
    /// advances time by the smallest remaining-bytes / rate among the active
    /// flows. The loop terminates in at most `flows.len()` steps because at
    /// least one flow completes per step.
    pub fn run(&self, flows: &FlowSet) -> Result<TransferOutcome, NetError> {
        flows.validate(self.fabric)?;
        let n_flows = flows.len();
        let n_nodes = self.fabric.len();
        let mut remaining: Vec<f64> = flows.flows().iter().map(|f| f.bytes.value()).collect();
        let mut completion = vec![Seconds::zero(); n_flows];
        let mut now = 0.0_f64;

        // Local flows and empty flows complete immediately.
        for (idx, flow) in flows.flows().iter().enumerate() {
            if flow.is_local() || remaining[idx] <= BYTES_EPSILON {
                remaining[idx] = 0.0;
            }
        }

        loop {
            let active: Vec<(usize, Flow)> = flows
                .flows()
                .iter()
                .enumerate()
                .filter(|(idx, flow)| remaining[*idx] > BYTES_EPSILON && !flow.is_local())
                .map(|(idx, flow)| (idx, *flow))
                .collect();
            if active.is_empty() {
                break;
            }
            let allocation = max_min_fair_share(self.fabric, &active)?;

            // Time until the first active flow completes at the current rates.
            let mut dt = f64::INFINITY;
            for rate in allocation.rates() {
                let r = rate.rate.value();
                if r > 0.0 {
                    dt = dt.min(remaining[rate.flow] / r);
                }
            }
            if !dt.is_finite() {
                return Err(NetError::stalled(
                    "every active flow has zero allocated rate",
                ));
            }

            now += dt;
            for rate in allocation.rates() {
                let r = rate.rate.value();
                if r <= 0.0 {
                    continue;
                }
                remaining[rate.flow] -= r * dt;
                if remaining[rate.flow] <= BYTES_EPSILON {
                    remaining[rate.flow] = 0.0;
                    completion[rate.flow] = Seconds(now);
                }
            }
        }

        let total_time = Seconds(now);
        let mut group_completion: BTreeMap<usize, Seconds> = BTreeMap::new();
        let mut node_send_completion = vec![Seconds::zero(); n_nodes];
        let mut node_receive_completion = vec![Seconds::zero(); n_nodes];
        for (idx, flow) in flows.flows().iter().enumerate() {
            let done = completion[idx];
            let entry = group_completion
                .entry(flow.group)
                .or_insert(Seconds::zero());
            *entry = entry.max(done);
            if !flow.is_local() {
                node_send_completion[flow.source] = node_send_completion[flow.source].max(done);
                node_receive_completion[flow.destination] =
                    node_receive_completion[flow.destination].max(done);
            }
        }

        Ok(TransferOutcome {
            total_time,
            flow_completion: completion,
            group_completion,
            node_send_completion,
            node_receive_completion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_simkit::units::MegabytesPerSec;

    fn uniform(megabytes: f64, nodes: usize) -> Vec<Megabytes> {
        vec![Megabytes(megabytes); nodes]
    }

    #[test]
    fn single_flow_time_is_bytes_over_port() {
        let fabric = Fabric::uniform(2, MegabytesPerSec(100.0)).unwrap();
        let flows = FlowSet::from_flows([Flow::new(0, 1, Megabytes(500.0))]);
        let outcome = TransferSimulator::new(&fabric).run(&flows).unwrap();
        assert!((outcome.total_time.value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn local_flows_are_instant() {
        let fabric = Fabric::gigabit(2).unwrap();
        let flows = FlowSet::from_flows([Flow::new(0, 0, Megabytes(10_000.0))]);
        let outcome = TransferSimulator::new(&fabric).run(&flows).unwrap();
        assert_eq!(outcome.total_time, Seconds::zero());
        assert_eq!(outcome.flow_completion[0], Seconds::zero());
    }

    #[test]
    fn empty_flow_set_completes_instantly() {
        let fabric = Fabric::gigabit(2).unwrap();
        let outcome = TransferSimulator::new(&fabric)
            .run(&FlowSet::new())
            .unwrap();
        assert_eq!(outcome.total_time, Seconds::zero());
        assert!(outcome.group_completion.is_empty());
    }

    #[test]
    fn shuffle_time_matches_closed_form() {
        // N nodes each shuffle D MB across all N nodes: each node sends
        // D·(N−1)/N over its egress port while receiving the same amount, so
        // the transfer takes D·(N−1)/(N·L).
        let n = 4;
        let d = 400.0;
        let l = 100.0;
        let fabric = Fabric::uniform(n, MegabytesPerSec(l)).unwrap();
        let dests: Vec<NodeId> = (0..n).collect();
        let flows = shuffle_flows(&uniform(d, n), &dests, 0);
        let outcome = TransferSimulator::new(&fabric).run(&flows).unwrap();
        let expected = d * (n as f64 - 1.0) / (n as f64 * l);
        assert!((outcome.total_time.value() - expected).abs() < 1e-6);
    }

    #[test]
    fn broadcast_time_is_independent_of_cluster_size() {
        // The algorithmic bottleneck: each receiver must ingest almost the
        // whole table, so going from 4 to 8 nodes barely changes the time.
        let total_table = 800.0;
        let l = 100.0;
        let mut times = Vec::new();
        for n in [4usize, 8usize] {
            let fabric = Fabric::uniform(n, MegabytesPerSec(l)).unwrap();
            let per_node = Megabytes(total_table / n as f64);
            // Every node sends its share to every node, itself included as
            // a local flow.
            let flows = FlowSet::from_flows(
                (0..n).flat_map(|from| (0..n).map(move |to| Flow::new(from, to, per_node))),
            );
            let outcome = TransferSimulator::new(&fabric).run(&flows).unwrap();
            // Each node receives (n-1)/n of the table over its ingress port.
            let expected = total_table * (n as f64 - 1.0) / (n as f64 * l);
            assert!((outcome.total_time.value() - expected).abs() < 1e-6);
            times.push(outcome.total_time.value());
        }
        // 4 nodes: 6.0 s, 8 nodes: 7.0 s — more nodes is *slower*, never
        // faster, for a broadcast of a fixed-size table.
        assert!(times[1] > times[0]);
    }

    #[test]
    fn heterogeneous_shuffle_is_bound_by_beefy_ingestion() {
        // 2 Beefy receivers (nodes 0, 1) ingest data scanned by all 4 nodes.
        // Paper, Section 5.3: "the Beefy nodes that are building the hash
        // tables can only receive data at the network's capacity even though
        // there may be many Wimpy nodes trying to send data to them".
        let fabric = Fabric::uniform(4, MegabytesPerSec(100.0)).unwrap();
        let flows = shuffle_flows(&uniform(400.0, 4), &[0, 1], 0);
        let outcome = TransferSimulator::new(&fabric).run(&flows).unwrap();
        // Each Beefy node receives 200 MB from each of the 3 other nodes
        // (its own 200 MB are local) = 600 MB at 100 MB/s = 6 s.
        assert!((outcome.total_time.value() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn group_completion_tracks_concurrent_queries() {
        let fabric = Fabric::uniform(2, MegabytesPerSec(100.0)).unwrap();
        let mut flows = FlowSet::new();
        flows.push(Flow::with_group(0, 1, Megabytes(100.0), 1));
        flows.push(Flow::with_group(0, 1, Megabytes(300.0), 2));
        let outcome = TransferSimulator::new(&fabric).run(&flows).unwrap();
        let g1 = outcome.group_completion[&1];
        let g2 = outcome.group_completion[&2];
        // Both flows share the port; the smaller one finishes first, after
        // which the bigger one gets the full port.
        assert!(g1 < g2);
        assert!((g2.value() - 4.0).abs() < 1e-6);
        assert_eq!(outcome.total_time, g2);
        assert_eq!(outcome.node_receive_completion[1], g2);
    }

    #[test]
    fn concurrency_slows_completion_but_not_throughput() {
        // Two concurrent all-to-all shuffles take twice as long as one, since
        // they share the same ports (Figure 3's concurrency sweep).
        let n = 4;
        let fabric = Fabric::uniform(n, MegabytesPerSec(100.0)).unwrap();
        let dests: Vec<NodeId> = (0..n).collect();
        let one = shuffle_flows(&uniform(400.0, n), &dests, 0);
        let t1 = TransferSimulator::new(&fabric)
            .run(&one)
            .unwrap()
            .total_time;
        let mut two = shuffle_flows(&uniform(400.0, n), &dests, 0);
        two.extend(&shuffle_flows(&uniform(400.0, n), &dests, 1));
        let t2 = TransferSimulator::new(&fabric)
            .run(&two)
            .unwrap()
            .total_time;
        assert!((t2.value() / t1.value() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn shuffle_with_no_destinations_is_empty() {
        assert!(shuffle_flows(&uniform(100.0, 3), &[], 0).is_empty());
    }

    #[test]
    fn invalid_flows_are_rejected() {
        let fabric = Fabric::gigabit(2).unwrap();
        let flows = FlowSet::from_flows([Flow::new(0, 5, Megabytes(1.0))]);
        assert!(TransferSimulator::new(&fabric).run(&flows).is_err());
    }

    #[test]
    fn byte_accounting_of_constructors() {
        let qualifying = [Megabytes(100.0), Megabytes(200.0), Megabytes(300.0)];
        let all: Vec<NodeId> = vec![0, 1, 2];
        let shuffle = shuffle_flows(&qualifying, &all, 0);
        assert!((shuffle.total_bytes().value() - 600.0).abs() < 1e-9);
        // Shuffle network bytes: each node keeps 1/3 locally.
        assert!((shuffle.network_bytes().value() - 400.0).abs() < 1e-9);
    }
}
