//! Per-node hardware descriptions.
//!
//! A [`NodeSpec`] captures everything the higher layers need to know about a
//! single cluster node: its role class (Beefy or Wimpy, in the paper's
//! terminology), CPU configuration, memory capacity, I/O and network
//! bandwidth, the maximum rate at which its CPU can push tuples through the
//! P-store operators (the `C_B` / `C_W` constants of Table 3), the engine
//! utilization floor (`G_B` / `G_W`), and its wall-power model.
//!
//! The [`crate::catalog`] holds the exact machines used in the paper. Every
//! field is public, so a what-if node is a catalog machine with the fields
//! that differ overridden, e.g.
//! `NodeSpec { memory: Megabytes::from_gigabytes(2.0), ..laptop_b() }`.

use crate::power::PowerModel;
use crate::units::{Megabytes, MegabytesPerSec, Watts};
use std::fmt;

/// The role a node plays in a cluster design, following the paper's
/// terminology (Section 5): traditional server-class "Beefy" nodes versus
/// low-power "Wimpy" nodes ("slower but energy efficient").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Traditional server / workstation class hardware (Xeon, desktop i7).
    Beefy,
    /// Low-power hardware (mobile CPUs, Atom, laptops).
    Wimpy,
}

impl fmt::Display for NodeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeClass::Beefy => write!(f, "Beefy"),
            NodeClass::Wimpy => write!(f, "Wimpy"),
        }
    }
}

/// Complete hardware description of a single cluster node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name (e.g. `"cluster-v"`, `"laptop-b"`).
    pub name: String,
    /// Beefy or Wimpy role class.
    pub class: NodeClass,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads.
    pub threads: u32,
    /// Main memory capacity.
    pub memory: Megabytes,
    /// Sequential storage (disk/SSD) scan bandwidth — the model variable `I`.
    pub disk_bandwidth: MegabytesPerSec,
    /// Network interface bandwidth — the model variable `L`.
    pub network_bandwidth: MegabytesPerSec,
    /// Maximum rate at which the CPU can process tuples through the P-store
    /// operator pipeline — the model constants `C_B` / `C_W` of Table 3.
    pub cpu_bandwidth: MegabytesPerSec,
    /// Rate at which this machine executes the single-node, cache-conscious,
    /// multi-threaded hash-join microbenchmark of Section 5.1 / Figure 6.
    /// This is a different (heavier) code path than the P-store scan pipeline,
    /// hence a separate calibration constant.
    pub hashjoin_bandwidth: MegabytesPerSec,
    /// Engine-inherent CPU utilization floor while P-store is executing — the
    /// constants `G_B` / `G_W` of Table 3.
    pub utilization_floor: f64,
    /// CPU-utilization → wall-power model.
    pub power_model: PowerModel,
    /// Measured idle wall power (Table 2). For server nodes the paper reports
    /// only the regression model; for those we store the model's near-idle
    /// evaluation.
    pub idle_power: Watts,
}

impl NodeSpec {
    /// Whether this node is a Beefy node.
    pub fn is_beefy(&self) -> bool {
        self.class == NodeClass::Beefy
    }

    /// Whether this node is a Wimpy node.
    pub fn is_wimpy(&self) -> bool {
        self.class == NodeClass::Wimpy
    }

    /// Wall power drawn at the given CPU utilization fraction.
    pub fn power_at(&self, utilization: f64) -> Watts {
        self.power_model.power_at(utilization)
    }

    /// Peak wall power at 100% CPU utilization.
    pub fn peak_power(&self) -> Watts {
        self.power_model.peak_power()
    }

    /// CPU utilization while the node processes data at `rate`, following the
    /// paper's model: the engine floor (`G`) plus the fraction of the maximum
    /// CPU bandwidth (`C`) in use, clamped to `[0, 1]`.
    pub fn utilization_at_rate(&self, rate: MegabytesPerSec) -> f64 {
        let c = self.cpu_bandwidth.value();
        if c <= f64::EPSILON {
            return self.utilization_floor.clamp(0.0, 1.0);
        }
        (self.utilization_floor + rate.value() / c).clamp(0.0, 1.0)
    }

    /// Whether a hash table of `hash_table_size` fits in this node's memory,
    /// leaving `headroom_fraction` of memory for the rest of the execution
    /// (buffers, the probe-side working set, the OS).
    pub fn fits_hash_table(&self, hash_table_size: Megabytes, headroom_fraction: f64) -> bool {
        let usable = self.memory.value() * (1.0 - headroom_fraction.clamp(0.0, 1.0));
        hash_table_size.value() <= usable
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}c/{}t, {:.0} GB RAM, disk {:.0} MB/s, net {:.0} MB/s",
            self.name,
            self.class,
            self.cores,
            self.threads,
            self.memory.as_gigabytes(),
            self.disk_bandwidth.value(),
            self.network_bandwidth.value(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{cluster_v_node, laptop_b};

    #[test]
    fn utilization_at_rate_follows_model() {
        // Cluster-V: C_B = 5037, G_B = 0.25. A fully stalled node sits at the
        // engine floor.
        let n = cluster_v_node();
        assert!((n.utilization_at_rate(MegabytesPerSec(0.0)) - 0.25).abs() < 1e-12);
        // Processing at exactly C would exceed 1.0 together with the floor, so
        // it clamps.
        assert_eq!(n.utilization_at_rate(MegabytesPerSec(5037.0)), 1.0);
        // Half the CPU bandwidth → floor + 0.5.
        let u = n.utilization_at_rate(MegabytesPerSec(5037.0 / 2.0));
        assert!((u - 0.75).abs() < 1e-9);
    }

    #[test]
    fn power_at_rate_is_monotonic() {
        let n = laptop_b();
        let power_at_rate = |rate: f64| n.power_at(n.utilization_at_rate(MegabytesPerSec(rate)));
        let mut prev = power_at_rate(0.0).value();
        for i in 1..=10 {
            let cur = power_at_rate(i as f64 * 112.9).value();
            assert!(cur + 1e-9 >= prev);
            prev = cur;
        }
    }

    #[test]
    fn fits_hash_table_respects_headroom() {
        let n = laptop_b(); // 8 GB
        assert!(n.fits_hash_table(Megabytes::from_gigabytes(3.0), 0.125));
        assert!(!n.fits_hash_table(Megabytes::from_gigabytes(8.8), 0.125));
        // Zero headroom: exactly the memory size fits.
        assert!(n.fits_hash_table(Megabytes::from_gigabytes(8.0), 0.0));
    }

    #[test]
    fn display_is_readable() {
        let s = cluster_v_node().to_string();
        assert!(s.contains("cluster-v"));
        assert!(s.contains("Beefy"));
        assert!(s.contains("48 GB"));
    }

    #[test]
    fn class_display() {
        assert_eq!(NodeClass::Beefy.to_string(), "Beefy");
        assert_eq!(NodeClass::Wimpy.to_string(), "Wimpy");
    }
}
