//! Flows: the unit of network work.

use crate::error::NetError;
use crate::fabric::{Fabric, NodeId};
use eedc_simkit::units::Megabytes;

/// Identifier of a flow within a [`FlowSet`] (its insertion index).
pub type FlowId = usize;

/// A single point-to-point transfer of `bytes` from `source` to
/// `destination`.
///
/// Flows whose source and destination are the same node represent local data
/// movement that never touches the network; the transfer simulator completes
/// them instantly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Sending node.
    pub source: NodeId,
    /// Receiving node.
    pub destination: NodeId,
    /// Data volume to move.
    pub bytes: Megabytes,
    /// Tag grouping flows that belong to the same logical query / operator;
    /// used by the concurrency experiments to attribute completion times back
    /// to individual queries.
    pub group: usize,
}

impl Flow {
    /// A flow belonging to group 0.
    pub fn new(source: NodeId, destination: NodeId, bytes: Megabytes) -> Self {
        Self {
            source,
            destination,
            bytes,
            group: 0,
        }
    }

    /// A flow tagged with a query / operator group.
    pub fn with_group(source: NodeId, destination: NodeId, bytes: Megabytes, group: usize) -> Self {
        Self {
            source,
            destination,
            bytes,
            group,
        }
    }

    /// Whether the flow stays on its source node and never crosses the
    /// network.
    pub fn is_local(&self) -> bool {
        self.source == self.destination
    }
}

/// An ordered collection of flows making up one transfer (or several
/// concurrent transfers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowSet {
    flows: Vec<Flow>,
}

impl FlowSet {
    /// An empty flow set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a flow set from an iterator of flows.
    pub fn from_flows(flows: impl IntoIterator<Item = Flow>) -> Self {
        Self {
            flows: flows.into_iter().collect(),
        }
    }

    /// Append a flow, returning its id.
    pub fn push(&mut self, flow: Flow) -> FlowId {
        self.flows.push(flow);
        self.flows.len() - 1
    }

    /// Append every flow of `other`, preserving their order.
    pub fn extend(&mut self, other: &FlowSet) {
        self.flows.extend_from_slice(&other.flows);
    }

    /// The flows in insertion order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the set contains no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total bytes across all flows (including local flows).
    pub fn total_bytes(&self) -> Megabytes {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Total bytes that actually cross the network (excluding local flows).
    pub fn network_bytes(&self) -> Megabytes {
        self.flows
            .iter()
            .filter(|f| !f.is_local())
            .map(|f| f.bytes)
            .sum()
    }

    /// Total bytes received by one node over the network.
    pub fn bytes_into(&self, node: NodeId) -> Megabytes {
        self.flows
            .iter()
            .filter(|f| f.destination == node && !f.is_local())
            .map(|f| f.bytes)
            .sum()
    }

    /// Total bytes sent by one node over the network.
    pub fn bytes_out_of(&self, node: NodeId) -> Megabytes {
        self.flows
            .iter()
            .filter(|f| f.source == node && !f.is_local())
            .map(|f| f.bytes)
            .sum()
    }

    /// Validate every flow against a fabric: node ids in range, byte counts
    /// finite and non-negative.
    pub fn validate(&self, fabric: &Fabric) -> Result<(), NetError> {
        for flow in &self.flows {
            fabric.check_node(flow.source)?;
            fabric.check_node(flow.destination)?;
            if !flow.bytes.value().is_finite() || flow.bytes.value() < 0.0 {
                return Err(NetError::invalid(format!(
                    "flow {} -> {} has invalid byte count {}",
                    flow.source,
                    flow.destination,
                    flow.bytes.value()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_flows_are_detected() {
        assert!(Flow::new(2, 2, Megabytes(10.0)).is_local());
        assert!(!Flow::new(2, 3, Megabytes(10.0)).is_local());
    }

    #[test]
    fn per_node_accounting() {
        let set = FlowSet::from_flows([
            Flow::new(0, 1, Megabytes(10.0)),
            Flow::new(0, 2, Megabytes(20.0)),
            Flow::new(1, 2, Megabytes(5.0)),
            Flow::new(2, 2, Megabytes(100.0)), // local, never on the wire
        ]);
        assert_eq!(set.len(), 4);
        assert_eq!(set.total_bytes(), Megabytes(135.0));
        assert_eq!(set.network_bytes(), Megabytes(35.0));
        assert_eq!(set.bytes_out_of(0), Megabytes(30.0));
        assert_eq!(set.bytes_into(2), Megabytes(25.0));
        assert_eq!(set.bytes_into(1), Megabytes(10.0));
        assert_eq!(set.bytes_out_of(2), Megabytes(0.0));
    }

    #[test]
    fn validation_against_fabric() {
        let fabric = Fabric::gigabit(3).unwrap();
        let ok = FlowSet::from_flows([Flow::new(0, 2, Megabytes(1.0))]);
        assert!(ok.validate(&fabric).is_ok());
        let bad_node = FlowSet::from_flows([Flow::new(0, 3, Megabytes(1.0))]);
        assert!(bad_node.validate(&fabric).is_err());
        let bad_bytes = FlowSet::from_flows([Flow::new(0, 1, Megabytes(-1.0))]);
        assert!(bad_bytes.validate(&fabric).is_err());
    }

    #[test]
    fn extend_and_push_preserve_order() {
        let mut a = FlowSet::new();
        assert!(a.is_empty());
        let id = a.push(Flow::new(0, 1, Megabytes(1.0)));
        assert_eq!(id, 0);
        let b = FlowSet::from_flows([Flow::with_group(1, 0, Megabytes(2.0), 7)]);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.flows()[1].group, 7);
    }
}
