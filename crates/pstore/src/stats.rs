//! Execution statistics: per-phase breakdowns and whole-query measurements.

use crate::plan::JoinStrategy;
use eedc_simkit::metrics::Measurement;
use eedc_simkit::units::{Joules, Megabytes, Seconds, Watts};
use std::fmt;

/// Whether every node executed the full operator tree or the Wimpy nodes were
/// demoted to scan-and-filter producers (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Every node scans, builds and probes.
    Homogeneous,
    /// Wimpy nodes only scan and filter; Beefy nodes build and probe.
    Heterogeneous,
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::Homogeneous => write!(f, "homogeneous"),
            ExecutionMode::Heterogeneous => write!(f, "heterogeneous"),
        }
    }
}

/// Inverse of the `Display` labels, so serialized run records round-trip.
impl std::str::FromStr for ExecutionMode {
    type Err = crate::error::PStoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "homogeneous" => Ok(ExecutionMode::Homogeneous),
            "heterogeneous" => Ok(ExecutionMode::Heterogeneous),
            other => Err(crate::error::PStoreError::planning(format!(
                "unknown execution mode '{other}'"
            ))),
        }
    }
}

/// The resource that bounded a phase's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The storage subsystem (or in-memory scan CPU path) of a producer node.
    Scan,
    /// The cluster interconnect.
    Network,
    /// The hash-table build / probe CPU path of a consumer node.
    Compute,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bottleneck::Scan => write!(f, "scan"),
            Bottleneck::Network => write!(f, "network"),
            Bottleneck::Compute => write!(f, "compute"),
        }
    }
}

/// Inverse of the `Display` labels, so serialized run records round-trip.
impl std::str::FromStr for Bottleneck {
    type Err = crate::error::PStoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scan" => Ok(Bottleneck::Scan),
            "network" => Ok(Bottleneck::Network),
            "compute" => Ok(Bottleneck::Compute),
            other => Err(crate::error::PStoreError::planning(format!(
                "unknown bottleneck '{other}'"
            ))),
        }
    }
}

/// Time, energy and data-volume breakdown of one execution phase (build or
/// probe).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase label (`"build"` / `"probe"`).
    pub label: String,
    /// Wall-clock duration of the phase.
    pub duration: Seconds,
    /// Cluster energy consumed during the phase.
    pub energy: Joules,
    /// Bytes scanned from the source fragments (at nominal scale).
    pub bytes_scanned: Megabytes,
    /// Qualifying bytes that crossed the network (at nominal scale).
    pub bytes_over_network: Megabytes,
    /// Time the slowest producer spent scanning/filtering.
    pub scan_time: Seconds,
    /// Completion time of the network transfer.
    pub network_time: Seconds,
    /// Time the slowest consumer spent building/probing.
    pub compute_time: Seconds,
    /// The component that bounded the phase.
    pub bottleneck: Bottleneck,
    /// Per-node CPU utilization during the phase, in cluster node order.
    pub node_utilization: Vec<f64>,
    /// Per-node energy over the phase, in cluster node order. Sums to
    /// `energy`; under join-key skew the hot node's share dominates.
    pub node_energy: Vec<Joules>,
    /// Bytes each node pushed out of its egress port during the phase (at
    /// nominal scale), in cluster node order.
    pub node_egress: Vec<Megabytes>,
    /// Bytes each node received on its ingress port during the phase (at
    /// nominal scale), in cluster node order.
    pub node_ingress: Vec<Megabytes>,
    /// Port-serialization time per node — the busier of its two directions
    /// over its port bandwidth — in cluster node order.
    pub node_network_time: Vec<Seconds>,
}

impl PhaseStats {
    /// Average cluster power during the phase.
    pub fn average_power(&self) -> Watts {
        if self.duration.value() <= f64::EPSILON {
            Watts::zero()
        } else {
            self.energy / self.duration
        }
    }

    /// Fraction of the phase the slowest producer/consumer CPUs were stalled
    /// waiting on the bottleneck resource (0 when the phase is CPU bound).
    pub fn stall_fraction(&self) -> f64 {
        if self.duration.value() <= f64::EPSILON {
            return 0.0;
        }
        let busy = self.scan_time.max(self.compute_time);
        (1.0 - busy.value() / self.duration.value()).max(0.0)
    }

    /// Fraction of the phase the slowest producer spent scanning, in
    /// `[0, 1]` — the scan busy share a utilization-trace export carries
    /// (see `eedc_dbmsim::trace`).
    pub fn scan_fraction(&self) -> f64 {
        self.busy_fraction(self.scan_time)
    }

    /// Fraction of the phase the network transfer was in flight, in
    /// `[0, 1]`.
    pub fn network_fraction(&self) -> f64 {
        self.busy_fraction(self.network_time)
    }

    /// Fraction of the phase the slowest consumer spent building or
    /// probing, in `[0, 1]`.
    pub fn compute_fraction(&self) -> f64 {
        self.busy_fraction(self.compute_time)
    }

    /// Fraction of the phase node `id`'s network port was serializing data,
    /// in `[0, 1]`. Falls back to the phase-level [`network_fraction`]
    /// (the completion time of the whole transfer) for stats recorded
    /// before per-node volumes were exported.
    ///
    /// [`network_fraction`]: PhaseStats::network_fraction
    pub fn node_network_fraction(&self, id: usize) -> f64 {
        match self.node_network_time.get(id) {
            Some(busy) => self.busy_fraction(*busy),
            None => self.network_fraction(),
        }
    }

    fn busy_fraction(&self, busy: Seconds) -> f64 {
        if self.duration.value() <= f64::EPSILON {
            return 0.0;
        }
        (busy.value() / self.duration.value()).clamp(0.0, 1.0)
    }
}

/// The complete result of executing one query (or one batch of concurrent
/// queries) on a P-store cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExecution {
    /// Human-readable cluster label (e.g. `"8B,0W"`, `"2B,2W"`).
    pub cluster_label: String,
    /// The join strategy that was executed.
    pub strategy: JoinStrategy,
    /// Homogeneous or heterogeneous execution.
    pub mode: ExecutionMode,
    /// Number of identical concurrent queries in the batch.
    pub concurrency: usize,
    /// Per-phase statistics, in execution order.
    pub phases: Vec<PhaseStats>,
    /// Join output rows (per query, verified against the engine-scale data).
    pub output_rows: usize,
}

impl QueryExecution {
    /// Total response time (phases are sequential).
    pub fn response_time(&self) -> Seconds {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Total cluster energy.
    pub fn energy(&self) -> Joules {
        self.phases.iter().map(|p| p.energy).sum()
    }

    /// Collapse into a [`Measurement`] for normalization / EDP analysis.
    pub fn measurement(&self) -> Measurement {
        Measurement::new(self.response_time(), self.energy())
    }

    /// Total bytes that crossed the network across all phases.
    pub fn bytes_over_network(&self) -> Megabytes {
        self.phases.iter().map(|p| p.bytes_over_network).sum()
    }

    /// The phase with the given label, if present.
    pub fn phase(&self, label: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// Fraction of the total response time spent in network-bound phases.
    pub fn network_bound_fraction(&self) -> f64 {
        let total = self.response_time().value();
        if total <= f64::EPSILON {
            return 0.0;
        }
        self.phases
            .iter()
            .filter(|p| p.bottleneck == Bottleneck::Network)
            .map(|p| p.duration.value())
            .sum::<f64>()
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(label: &str, duration: f64, energy: f64, bottleneck: Bottleneck) -> PhaseStats {
        PhaseStats {
            label: label.into(),
            duration: Seconds(duration),
            energy: Joules(energy),
            bytes_scanned: Megabytes(1000.0),
            bytes_over_network: Megabytes(100.0),
            scan_time: Seconds(duration * 0.5),
            network_time: Seconds(duration),
            compute_time: Seconds(duration * 0.1),
            bottleneck,
            node_utilization: vec![0.5, 0.5],
            node_energy: vec![Joules(energy / 2.0), Joules(energy / 2.0)],
            node_egress: vec![Megabytes(60.0), Megabytes(40.0)],
            node_ingress: vec![Megabytes(50.0), Megabytes(50.0)],
            node_network_time: vec![Seconds(duration), Seconds(duration * 0.25)],
        }
    }

    fn execution() -> QueryExecution {
        QueryExecution {
            cluster_label: "8B,0W".into(),
            strategy: JoinStrategy::DualShuffle,
            mode: ExecutionMode::Homogeneous,
            concurrency: 1,
            phases: vec![
                phase("build", 2.0, 500.0, Bottleneck::Network),
                phase("probe", 8.0, 2000.0, Bottleneck::Network),
            ],
            output_rows: 1234,
        }
    }

    #[test]
    fn totals_aggregate_phases() {
        let e = execution();
        assert_eq!(e.response_time(), Seconds(10.0));
        assert_eq!(e.energy(), Joules(2500.0));
        assert_eq!(e.measurement().response_time, Seconds(10.0));
        assert_eq!(e.bytes_over_network(), Megabytes(200.0));
        assert!(e.phase("build").is_some());
        assert!(e.phase("shuffle").is_none());
        assert_eq!(e.network_bound_fraction(), 1.0);
    }

    #[test]
    fn phase_helpers() {
        let p = phase("build", 4.0, 1000.0, Bottleneck::Network);
        assert_eq!(p.average_power(), Watts(250.0));
        assert!((p.stall_fraction() - 0.5).abs() < 1e-12);
        let idle = PhaseStats {
            duration: Seconds(0.0),
            ..p.clone()
        };
        assert_eq!(idle.average_power(), Watts::zero());
        assert_eq!(idle.stall_fraction(), 0.0);
    }

    #[test]
    fn busy_fractions_are_clamped_shares_of_the_duration() {
        // The fixture sets scan = duration/2, network = duration, compute =
        // duration/10 — exactly the busy shares a trace export carries.
        let p = phase("build", 4.0, 1000.0, Bottleneck::Network);
        assert!((p.scan_fraction() - 0.5).abs() < 1e-12);
        assert!((p.network_fraction() - 1.0).abs() < 1e-12);
        assert!((p.compute_fraction() - 0.1).abs() < 1e-12);
        // A component that outlasts the recorded duration clamps to 1, and a
        // zero-duration phase reads as fully idle.
        let long_scan = PhaseStats {
            scan_time: Seconds(10.0),
            ..p.clone()
        };
        assert_eq!(long_scan.scan_fraction(), 1.0);
        let idle = PhaseStats {
            duration: Seconds(0.0),
            ..p
        };
        assert_eq!(idle.network_fraction(), 0.0);
    }

    #[test]
    fn node_network_fraction_is_per_node_with_phase_level_fallback() {
        // The fixture gives node 0 a port busy for the whole phase and node 1
        // a port busy for a quarter of it.
        let p = phase("build", 4.0, 1000.0, Bottleneck::Network);
        assert!((p.node_network_fraction(0) - 1.0).abs() < 1e-12);
        assert!((p.node_network_fraction(1) - 0.25).abs() < 1e-12);
        // Stats recorded before per-node volumes were exported carry empty
        // vectors; every node then reads the phase-level transfer fraction.
        let legacy = PhaseStats {
            node_egress: Vec::new(),
            node_ingress: Vec::new(),
            node_network_time: Vec::new(),
            ..p.clone()
        };
        assert_eq!(legacy.node_network_fraction(0), legacy.network_fraction());
        assert_eq!(legacy.node_network_fraction(1), legacy.network_fraction());
    }

    #[test]
    fn display_of_enums() {
        assert_eq!(ExecutionMode::Homogeneous.to_string(), "homogeneous");
        assert_eq!(ExecutionMode::Heterogeneous.to_string(), "heterogeneous");
        assert_eq!(Bottleneck::Scan.to_string(), "scan");
        assert_eq!(Bottleneck::Network.to_string(), "network");
        assert_eq!(Bottleneck::Compute.to_string(), "compute");
    }

    #[test]
    fn enum_labels_round_trip_through_from_str() {
        for mode in [ExecutionMode::Homogeneous, ExecutionMode::Heterogeneous] {
            assert_eq!(mode.to_string().parse::<ExecutionMode>().unwrap(), mode);
        }
        for bottleneck in [Bottleneck::Scan, Bottleneck::Network, Bottleneck::Compute] {
            assert_eq!(
                bottleneck.to_string().parse::<Bottleneck>().unwrap(),
                bottleneck
            );
        }
        assert!("homo".parse::<ExecutionMode>().is_err());
        assert!("disk".parse::<Bottleneck>().is_err());
    }
}
