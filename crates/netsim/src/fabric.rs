//! The physical cluster interconnect: one full-duplex port per node.

use crate::error::NetError;
use eedc_simkit::units::MegabytesPerSec;

/// Index of a node within the fabric (0-based).
pub type NodeId = usize;

/// The cluster interconnect.
///
/// The paper's clusters use a single 1 Gb/s switch (a 10/100/1000 SMCGS5 in
/// the prototype) and its Section 5.4 model has one network parameter, the
/// per-node port bandwidth — so a fabric is exactly that: one full-duplex
/// port bandwidth per node over a non-blocking switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    ports: Vec<MegabytesPerSec>,
}

impl Fabric {
    /// A fabric with one full-duplex port per entry of `ports`, node `i`
    /// sending and receiving at `ports[i]`. An empty list and a bandwidth
    /// that is not positive and finite are errors.
    pub fn from_ports(ports: Vec<MegabytesPerSec>) -> Result<Self, NetError> {
        if ports.is_empty() {
            return Err(NetError::invalid("a fabric needs at least one node"));
        }
        for (node, bandwidth) in ports.iter().enumerate() {
            if !bandwidth.value().is_finite() || bandwidth.value() <= 0.0 {
                return Err(NetError::invalid(format!(
                    "port bandwidth of node {node} must be positive and finite, got {}",
                    bandwidth.value()
                )));
            }
        }
        Ok(Self { ports })
    }

    /// A fabric of `nodes` identical full-duplex ports of `port_bandwidth`
    /// each.
    pub fn uniform(nodes: usize, port_bandwidth: MegabytesPerSec) -> Result<Self, NetError> {
        Self::from_ports(vec![port_bandwidth; nodes])
    }

    /// Number of nodes attached to the fabric.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the fabric has no nodes (never true for a built fabric).
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Ingress (receive) capacity of a node's port.
    pub fn ingress(&self, node: NodeId) -> Result<MegabytesPerSec, NetError> {
        self.port(node)
    }

    /// Egress (send) capacity of a node's port.
    pub fn egress(&self, node: NodeId) -> Result<MegabytesPerSec, NetError> {
        self.port(node)
    }

    fn port(&self, node: NodeId) -> Result<MegabytesPerSec, NetError> {
        self.check_node(node).map(|()| self.ports[node])
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

#[cfg(test)]
mod tests {
    use super::*;

    impl Fabric {
        /// The paper's 1 Gb/s gigabit-switch fabric: 0.8 Gb/s of goodput,
        /// i.e. 100 MB/s full-duplex ports.
        pub(crate) fn gigabit(nodes: usize) -> Result<Self, NetError> {
            Self::uniform(nodes, MegabytesPerSec(100.0))
        }
    }

    #[test]
    fn uniform_fabric_has_identical_ports() {
        let fabric = Fabric::uniform(4, MegabytesPerSec(100.0)).unwrap();
        assert_eq!(fabric.len(), 4);
        for node in 0..4 {
            assert_eq!(fabric.ingress(node).unwrap(), MegabytesPerSec(100.0));
            assert_eq!(fabric.egress(node).unwrap(), MegabytesPerSec(100.0));
        }
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
    fn from_ports_keeps_each_nodes_bandwidth_and_rejects_degenerate_lists() {
        let ports = vec![MegabytesPerSec(100.0), MegabytesPerSec(12.5)];
        let fabric = Fabric::from_ports(ports.clone()).unwrap();
        assert_eq!(fabric.len(), 2);
        for (node, port) in ports.iter().enumerate() {
            assert_eq!(fabric.ingress(node).unwrap(), *port);
            assert_eq!(fabric.egress(node).unwrap(), *port);
        }
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let ports = vec![MegabytesPerSec(100.0), MegabytesPerSec(bad)];
            match Fabric::from_ports(ports) {
                Err(NetError::InvalidParameter { reason }) => {
                    assert!(reason.contains("node 1"), "{bad}: {reason}")
                }
                other => panic!("{bad}: expected InvalidParameter, got {other:?}"),
            }
        }
        assert!(matches!(
            Fabric::from_ports(Vec::new()),
            Err(NetError::InvalidParameter { .. })
        ));
        assert!(Fabric::uniform(0, MegabytesPerSec(100.0)).is_err());
        assert!(Fabric::uniform(2, MegabytesPerSec(0.0)).is_err());
    }
}
