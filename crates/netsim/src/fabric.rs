//! The physical cluster interconnect: per-node NIC capacities, an optional
//! switch backplane limit, and an interference model.

use crate::error::NetError;
use crate::interference::InterferenceModel;
use eedc_simkit::units::MegabytesPerSec;

/// Index of a node within the fabric (0-based).
pub type NodeId = usize;

/// The cluster interconnect.
///
/// The paper's clusters use a single 1 Gb/s switch (a 10/100/1000 SMCGS5 in
/// the prototype), so the default fabric is a uniform full-duplex 1 Gb/s port
/// per node and an unconstrained backplane. All parameters can be overridden
/// through the [`FabricBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    ingress: Vec<MegabytesPerSec>,
    egress: Vec<MegabytesPerSec>,
    switch_capacity: Option<MegabytesPerSec>,
    interference: InterferenceModel,
}

impl Fabric {
    /// A fabric of `nodes` identical full-duplex ports of `port_bandwidth`
    /// each, with an unconstrained switch backplane and no interference.
    pub fn uniform(nodes: usize, port_bandwidth: MegabytesPerSec) -> Result<Self, NetError> {
        FabricBuilder::new(nodes)
            .uniform_ports(port_bandwidth)
            .build()
    }

    /// The paper's 1 Gb/s gigabit-switch fabric (100 MB/s full-duplex ports).
    pub fn gigabit(nodes: usize) -> Result<Self, NetError> {
        Self::uniform(nodes, MegabytesPerSec::from_gigabits_per_sec(0.8))
    }

    /// Start building a fabric of `nodes` nodes.
    pub fn builder(nodes: usize) -> FabricBuilder {
        FabricBuilder::new(nodes)
    }

    /// Number of nodes attached to the fabric.
    pub fn len(&self) -> usize {
        self.ingress.len()
    }

    /// Whether the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.ingress.is_empty()
    }

    /// Ingress (receive) capacity of a node's port.
    pub fn ingress(&self, node: NodeId) -> Result<MegabytesPerSec, NetError> {
        self.ingress
            .get(node)
            .copied()
            .ok_or(NetError::UnknownNode {
                node,
                fabric_size: self.len(),
            })
    }

    /// Egress (send) capacity of a node's port.
    pub fn egress(&self, node: NodeId) -> Result<MegabytesPerSec, NetError> {
        self.egress.get(node).copied().ok_or(NetError::UnknownNode {
            node,
            fabric_size: self.len(),
        })
    }

    /// The switch backplane capacity, if constrained.
    pub fn switch_capacity(&self) -> Option<MegabytesPerSec> {
        self.switch_capacity
    }

    /// The interference model applied to concurrent flows.
    pub fn interference(&self) -> &InterferenceModel {
        &self.interference
    }

    /// Validate that a node id refers to a node of this fabric.
    pub fn check_node(&self, node: NodeId) -> Result<(), NetError> {
        if node < self.len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode {
                node,
                fabric_size: self.len(),
            })
        }
    }
}

/// Builder for [`Fabric`].
#[derive(Debug, Clone)]
pub struct FabricBuilder {
    nodes: usize,
    ingress: Vec<MegabytesPerSec>,
    egress: Vec<MegabytesPerSec>,
    switch_capacity: Option<MegabytesPerSec>,
    interference: InterferenceModel,
}

impl FabricBuilder {
    /// Start a builder for a fabric of `nodes` nodes with default 1 Gb/s
    /// full-duplex ports.
    pub fn new(nodes: usize) -> Self {
        let default_port = MegabytesPerSec::from_gigabits_per_sec(0.8);
        Self {
            nodes,
            ingress: vec![default_port; nodes],
            egress: vec![default_port; nodes],
            switch_capacity: None,
            interference: InterferenceModel::None,
        }
    }

    /// Give every node the same full-duplex port bandwidth.
    pub fn uniform_ports(mut self, bandwidth: MegabytesPerSec) -> Self {
        self.ingress = vec![bandwidth; self.nodes];
        self.egress = vec![bandwidth; self.nodes];
        self
    }

    /// Set one node's port bandwidth (both directions).
    pub fn port(mut self, node: NodeId, bandwidth: MegabytesPerSec) -> Self {
        if node < self.nodes {
            self.ingress[node] = bandwidth;
            self.egress[node] = bandwidth;
        }
        self
    }

    /// Set one node's ingress and egress bandwidths independently.
    pub fn asymmetric_port(
        mut self,
        node: NodeId,
        ingress: MegabytesPerSec,
        egress: MegabytesPerSec,
    ) -> Self {
        if node < self.nodes {
            self.ingress[node] = ingress;
            self.egress[node] = egress;
        }
        self
    }

    /// Constrain the total traffic through the switch backplane.
    pub fn switch_capacity(mut self, capacity: MegabytesPerSec) -> Self {
        self.switch_capacity = Some(capacity);
        self
    }

    /// Set the interference model applied to concurrent flows.
    pub fn interference(mut self, model: InterferenceModel) -> Self {
        self.interference = model;
        self
    }

    /// Validate and produce the fabric.
    pub fn build(self) -> Result<Fabric, NetError> {
        if self.nodes == 0 {
            return Err(NetError::invalid("a fabric needs at least one node"));
        }
        for (label, values) in [("ingress", &self.ingress), ("egress", &self.egress)] {
            for (node, bw) in values.iter().enumerate() {
                if !bw.value().is_finite() || bw.value() <= 0.0 {
                    return Err(NetError::invalid(format!(
                        "{label} bandwidth of node {node} must be positive and finite, got {}",
                        bw.value()
                    )));
                }
            }
        }
        if let Some(cap) = self.switch_capacity {
            if !cap.value().is_finite() || cap.value() <= 0.0 {
                return Err(NetError::invalid(format!(
                    "switch capacity must be positive and finite, got {}",
                    cap.value()
                )));
            }
        }
        Ok(Fabric {
            ingress: self.ingress,
            egress: self.egress,
            switch_capacity: self.switch_capacity,
            interference: self.interference,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fabric_has_identical_ports() {
        let fabric = Fabric::uniform(4, MegabytesPerSec(100.0)).unwrap();
        assert_eq!(fabric.len(), 4);
        for node in 0..4 {
            assert_eq!(fabric.ingress(node).unwrap(), MegabytesPerSec(100.0));
            assert_eq!(fabric.egress(node).unwrap(), MegabytesPerSec(100.0));
        }
        assert!(fabric.switch_capacity().is_none());
        assert_eq!(*fabric.interference(), InterferenceModel::None);
    }

    #[test]
    fn gigabit_fabric_matches_paper_port_speed() {
        // The paper's 1 Gb/s interconnect sustains roughly 95-100 MB/s of
        // payload; we use 0.8 Gb/s of goodput = 100 MB/s.
        let fabric = Fabric::gigabit(8).unwrap();
        assert!((fabric.ingress(0).unwrap().value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_nodes_are_errors() {
        let fabric = Fabric::gigabit(4).unwrap();
        assert!(fabric.ingress(4).is_err());
        assert!(fabric.egress(7).is_err());
        assert!(fabric.check_node(3).is_ok());
        assert!(fabric.check_node(4).is_err());
    }

    #[test]
    fn builder_overrides_individual_ports() {
        let fabric = Fabric::builder(3)
            .uniform_ports(MegabytesPerSec(100.0))
            .port(1, MegabytesPerSec(50.0))
            .asymmetric_port(2, MegabytesPerSec(200.0), MegabytesPerSec(25.0))
            .switch_capacity(MegabytesPerSec(400.0))
            .build()
            .unwrap();
        assert_eq!(fabric.ingress(1).unwrap(), MegabytesPerSec(50.0));
        assert_eq!(fabric.ingress(2).unwrap(), MegabytesPerSec(200.0));
        assert_eq!(fabric.egress(2).unwrap(), MegabytesPerSec(25.0));
        assert_eq!(fabric.switch_capacity(), Some(MegabytesPerSec(400.0)));
    }

    #[test]
    fn builder_ignores_out_of_range_overrides() {
        // Overriding a node that does not exist is a no-op rather than a
        // panic; validation still happens at build time.
        let fabric = Fabric::builder(2)
            .port(9, MegabytesPerSec(1.0))
            .build()
            .unwrap();
        assert_eq!(fabric.len(), 2);
    }

    #[test]
    fn builder_rejects_degenerate_parameters() {
        assert!(Fabric::builder(0).build().is_err());
        assert!(Fabric::builder(2)
            .uniform_ports(MegabytesPerSec(0.0))
            .build()
            .is_err());
        assert!(Fabric::builder(2)
            .port(0, MegabytesPerSec(-5.0))
            .build()
            .is_err());
        assert!(Fabric::builder(2)
            .switch_capacity(MegabytesPerSec(f64::NAN))
            .build()
            .is_err());
    }
}
