//! Per-node hardware descriptions.
//!
//! A [`NodeSpec`] captures everything the higher layers need to know about a
//! single cluster node: its role class (Beefy or Wimpy, in the paper's
//! terminology), CPU configuration, memory capacity, I/O and network
//! bandwidth, the maximum rate at which its CPU can push tuples through the
//! P-store operators (the `C_B` / `C_W` constants of Table 3), the engine
//! utilization floor (`G_B` / `G_W`), and its wall-power model.
//!
//! Specs are constructed either from the [`crate::catalog`] (which contains
//! the exact machines used in the paper) or with [`NodeSpecBuilder`] for
//! what-if hardware.

use crate::error::SimError;
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
    /// Start building a node spec with the given name and class.
    pub fn builder(name: impl Into<String>, class: NodeClass) -> NodeSpecBuilder {
        NodeSpecBuilder::new(name, class)
    }

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

/// Builder for [`NodeSpec`] with validation of the physical parameters.
#[derive(Debug, Clone)]
pub struct NodeSpecBuilder {
    name: String,
    class: NodeClass,
    cores: u32,
    threads: u32,
    memory: Megabytes,
    disk_bandwidth: MegabytesPerSec,
    network_bandwidth: MegabytesPerSec,
    cpu_bandwidth: MegabytesPerSec,
    hashjoin_bandwidth: Option<MegabytesPerSec>,
    utilization_floor: f64,
    power_model: PowerModel,
    idle_power: Option<Watts>,
}

impl NodeSpecBuilder {
    /// Start a new builder. Sensible server-class defaults are supplied for
    /// every field; callers override what they know.
    pub fn new(name: impl Into<String>, class: NodeClass) -> Self {
        Self {
            name: name.into(),
            class,
            cores: 4,
            threads: 8,
            memory: Megabytes::from_gigabytes(32.0),
            disk_bandwidth: MegabytesPerSec(270.0),
            network_bandwidth: MegabytesPerSec::from_gigabits_per_sec(1.0),
            cpu_bandwidth: MegabytesPerSec(4000.0),
            hashjoin_bandwidth: None,
            utilization_floor: 0.25,
            power_model: PowerModel::power_law(130.03, 0.2369),
            idle_power: None,
        }
    }

    /// Set the core / hardware thread counts.
    pub fn cpu(mut self, cores: u32, threads: u32) -> Self {
        self.cores = cores;
        self.threads = threads;
        self
    }

    /// Set the main memory capacity.
    pub fn memory(mut self, memory: Megabytes) -> Self {
        self.memory = memory;
        self
    }

    /// Set the storage scan bandwidth (model variable `I`).
    pub fn disk_bandwidth(mut self, bw: MegabytesPerSec) -> Self {
        self.disk_bandwidth = bw;
        self
    }

    /// Set the network bandwidth (model variable `L`).
    pub fn network_bandwidth(mut self, bw: MegabytesPerSec) -> Self {
        self.network_bandwidth = bw;
        self
    }

    /// Set the maximum CPU processing bandwidth (model constants `C_B`/`C_W`).
    pub fn cpu_bandwidth(mut self, bw: MegabytesPerSec) -> Self {
        self.cpu_bandwidth = bw;
        self
    }

    /// Set the single-node hash-join microbenchmark rate (Figure 6).
    pub fn hashjoin_bandwidth(mut self, bw: MegabytesPerSec) -> Self {
        self.hashjoin_bandwidth = Some(bw);
        self
    }

    /// Set the engine utilization floor (model constants `G_B`/`G_W`).
    pub fn utilization_floor(mut self, floor: f64) -> Self {
        self.utilization_floor = floor;
        self
    }

    /// Set the CPU-utilization → wall-power model.
    pub fn power_model(mut self, model: PowerModel) -> Self {
        self.power_model = model;
        self
    }

    /// Set the measured idle power (Table 2). If not supplied, the power
    /// model's near-idle evaluation is used.
    pub fn idle_power(mut self, idle: Watts) -> Self {
        self.idle_power = Some(idle);
        self
    }

    /// Validate and produce the [`NodeSpec`].
    pub fn build(self) -> Result<NodeSpec, SimError> {
        if self.name.is_empty() {
            return Err(SimError::invalid("node name must not be empty"));
        }
        if self.cores == 0 || self.threads == 0 {
            return Err(SimError::invalid("core and thread counts must be positive"));
        }
        if self.threads < self.cores {
            return Err(SimError::invalid(format!(
                "thread count {} smaller than core count {}",
                self.threads, self.cores
            )));
        }
        for (label, v) in [
            ("memory", self.memory.value()),
            ("disk bandwidth", self.disk_bandwidth.value()),
            ("network bandwidth", self.network_bandwidth.value()),
            ("cpu bandwidth", self.cpu_bandwidth.value()),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(SimError::invalid(format!(
                    "{label} must be a positive finite value, got {v}"
                )));
            }
        }
        if !(0.0..=1.0).contains(&self.utilization_floor) {
            return Err(SimError::invalid(format!(
                "utilization floor {} outside [0, 1]",
                self.utilization_floor
            )));
        }
        let idle_power = self
            .idle_power
            .unwrap_or_else(|| self.power_model.near_idle_power());
        let hashjoin_bandwidth = self.hashjoin_bandwidth.unwrap_or(self.cpu_bandwidth);
        Ok(NodeSpec {
            name: self.name,
            class: self.class,
            cores: self.cores,
            threads: self.threads,
            memory: self.memory,
            disk_bandwidth: self.disk_bandwidth,
            network_bandwidth: self.network_bandwidth,
            cpu_bandwidth: self.cpu_bandwidth,
            hashjoin_bandwidth,
            utilization_floor: self.utilization_floor,
            power_model: self.power_model,
            idle_power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beefy() -> NodeSpec {
        NodeSpec::builder("beefy-test", NodeClass::Beefy)
            .cpu(8, 16)
            .memory(Megabytes::from_gigabytes(48.0))
            .disk_bandwidth(MegabytesPerSec(1200.0))
            .network_bandwidth(MegabytesPerSec(100.0))
            .cpu_bandwidth(MegabytesPerSec(5037.0))
            .utilization_floor(0.25)
            .power_model(PowerModel::power_law(130.03, 0.2369))
            .build()
            .unwrap()
    }

    fn wimpy() -> NodeSpec {
        NodeSpec::builder("wimpy-test", NodeClass::Wimpy)
            .cpu(2, 4)
            .memory(Megabytes::from_gigabytes(8.0))
            .disk_bandwidth(MegabytesPerSec(270.0))
            .network_bandwidth(MegabytesPerSec(100.0))
            .cpu_bandwidth(MegabytesPerSec(1129.0))
            .utilization_floor(0.13)
            .power_model(PowerModel::power_law(10.994, 0.2875))
            .idle_power(Watts(11.0))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_spec() {
        let n = beefy();
        assert!(n.is_beefy());
        assert!(!n.is_wimpy());
        assert_eq!(n.cores, 8);
        assert_eq!(n.memory, Megabytes::from_gigabytes(48.0));
        // Idle power defaults to the power model's near-idle value.
        assert!((n.idle_power.value() - 130.03).abs() < 1e-6);
        // Hash-join bandwidth defaults to the CPU bandwidth.
        assert_eq!(n.hashjoin_bandwidth, n.cpu_bandwidth);
    }

    #[test]
    fn explicit_idle_power_is_kept() {
        let n = wimpy();
        assert_eq!(n.idle_power, Watts(11.0));
    }

    #[test]
    fn utilization_at_rate_follows_model() {
        let n = beefy();
        // Fully stalled node sits at the engine floor.
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
        let n = wimpy();
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
        let n = wimpy(); // 8 GB
        assert!(n.fits_hash_table(Megabytes::from_gigabytes(3.0), 0.125));
        assert!(!n.fits_hash_table(Megabytes::from_gigabytes(8.8), 0.125));
        // Zero headroom: exactly the memory size fits.
        assert!(n.fits_hash_table(Megabytes::from_gigabytes(8.0), 0.0));
    }

    #[test]
    fn builder_rejects_invalid_input() {
        assert!(NodeSpec::builder("", NodeClass::Beefy).build().is_err());
        assert!(NodeSpec::builder("x", NodeClass::Beefy)
            .cpu(0, 0)
            .build()
            .is_err());
        assert!(NodeSpec::builder("x", NodeClass::Beefy)
            .cpu(8, 4)
            .build()
            .is_err());
        assert!(NodeSpec::builder("x", NodeClass::Beefy)
            .memory(Megabytes(0.0))
            .build()
            .is_err());
        assert!(NodeSpec::builder("x", NodeClass::Beefy)
            .disk_bandwidth(MegabytesPerSec(-1.0))
            .build()
            .is_err());
        assert!(NodeSpec::builder("x", NodeClass::Beefy)
            .utilization_floor(1.5)
            .build()
            .is_err());
    }

    #[test]
    fn display_is_readable() {
        let s = beefy().to_string();
        assert!(s.contains("beefy-test"));
        assert!(s.contains("Beefy"));
        assert!(s.contains("48 GB"));
    }

    #[test]
    fn class_display() {
        assert_eq!(NodeClass::Beefy.to_string(), "Beefy");
        assert_eq!(NodeClass::Wimpy.to_string(), "Wimpy");
    }
}
