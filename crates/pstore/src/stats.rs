//! Execution statistics: per-phase breakdowns and whole-query measurements,
//! and [`PhaseStats::close`], the one rule that prices a phase.

use crate::cluster::ClusterSpec;
use crate::plan::JoinStrategy;
use eedc_simkit::metrics::Measurement;
use eedc_simkit::units::{Joules, Megabytes, MegabytesPerSec, Seconds};
use std::fmt;
use std::ops::Range;

/// Whether every node executed the full operator tree or the Wimpy nodes were
/// demoted to scan-and-filter producers (Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Every node scans, builds and probes.
    Homogeneous,
    /// Wimpy nodes only scan and filter; Beefy nodes build and probe.
    Heterogeneous,
}

impl ExecutionMode {
    /// Both modes.
    pub const ALL: [ExecutionMode; 2] = [ExecutionMode::Homogeneous, ExecutionMode::Heterogeneous];

    /// The mode's label: its `Display` text and its serialized form.
    pub const fn as_str(self) -> &'static str {
        match self {
            ExecutionMode::Homogeneous => "homogeneous",
            ExecutionMode::Heterogeneous => "heterogeneous",
        }
    }
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Inverse of [`ExecutionMode::as_str`], so serialized run records
/// round-trip.
impl std::str::FromStr for ExecutionMode {
    type Err = crate::error::PStoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|mode| mode.as_str() == s)
            .ok_or_else(|| {
                crate::error::PStoreError::planning(format!("unknown execution mode '{s}'"))
            })
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

impl Bottleneck {
    /// Every bottleneck.
    pub const ALL: [Bottleneck; 3] = [Bottleneck::Scan, Bottleneck::Network, Bottleneck::Compute];

    /// The bottleneck's label: its `Display` text and its serialized form.
    pub const fn as_str(self) -> &'static str {
        match self {
            Bottleneck::Scan => "scan",
            Bottleneck::Network => "network",
            Bottleneck::Compute => "compute",
        }
    }

    /// The component that bounds a phase whose three pipelined components
    /// take the given times. Ties read network, then scan, then compute.
    pub fn slowest(scan: Seconds, network: Seconds, compute: Seconds) -> Self {
        if network >= scan && network >= compute {
            Bottleneck::Network
        } else if scan >= compute {
            Bottleneck::Scan
        } else {
            Bottleneck::Compute
        }
    }
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Inverse of [`Bottleneck::as_str`], so serialized run records round-trip.
impl std::str::FromStr for Bottleneck {
    type Err = crate::error::PStoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|bottleneck| bottleneck.as_str() == s)
            .ok_or_else(|| crate::error::PStoreError::planning(format!("unknown bottleneck '{s}'")))
    }
}

/// Time, energy and data-volume breakdown of one execution phase (build or
/// probe), as [`PhaseStats::close`] prices it.
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

/// One node's per-query volumes in one phase, at nominal scale: what
/// [`PhaseStats::close`] prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeVolumes {
    /// Bytes scanned from the node's source fragment.
    pub scanned: Megabytes,
    /// Bytes pushed through the node's hash-table build/probe path.
    pub computed: Megabytes,
    /// Bytes sent through the node's egress port (local shares excluded).
    pub egress: Megabytes,
    /// Bytes received through the node's ingress port.
    pub ingress: Megabytes,
}

impl PhaseStats {
    /// Close one execution phase — the single pricing rule shared by the
    /// P-store runtime and the Section 5.4 analytical model.
    ///
    /// `volumes` gives every node of `design` its [`NodeVolumes`], as
    /// ranges of node ids that share them; every volume is per query and is
    /// multiplied by `batch` (the runtime hands in batch-scaled volumes and
    /// passes `1.0`). Scanning, transfer and compute are pipelined, so the
    /// phase lasts as long as its slowest component (ties read network, then
    /// scan, then compute), each node's utilization is `G + rate / C` at the
    /// rate it sustained over that duration, and its energy is the
    /// regression power at that utilization times the duration.
    ///
    /// `fabric` is what a flow simulation observed — transfer completion
    /// time (congestion included) and bytes moved. `None` is the closed
    /// form: the transfer completes when the busiest port drains, and the
    /// bytes moved are the summed egress. The per-node port times bound a
    /// simulated completion time from below either way.
    ///
    /// # Runs
    ///
    /// Every per-node term above is a function of the node's spec and its
    /// volumes (plus values shared by the whole phase). Runs are stated, not
    /// discovered: the spec states its runs of identical nodes
    /// ([`ClusterSpec::runs`]) and the caller states its ranges of equal
    /// volumes. Each piece of their intersection is derived once, and its
    /// port time, utilization, joules and scaled port volumes fill the
    /// piece. The same inputs through the same arithmetic give the same
    /// bits, folding an operand into a `max` a second time changes nothing,
    /// and the sent bytes, scanned bytes and energy are still added node by
    /// node in node order, so every field is bit-identical to deriving each
    /// node on its own. The closed-form model hands in a design's nodes in a
    /// few ranges (one per destination under key skew); the runtime's
    /// measured volumes differ from node to node, so it hands in one range
    /// per node.
    ///
    /// # Panics
    ///
    /// If the ranges of `volumes` do not tile `0..design.len()` — in order,
    /// each non-empty and starting where the previous one ends. That is a
    /// caller bug, not an input condition: both callers build the ranges
    /// from the same design.
    pub fn close(
        design: &ClusterSpec,
        label: &str,
        volumes: &[(Range<usize>, NodeVolumes)],
        batch: f64,
        fabric: Option<(Seconds, Megabytes)>,
        in_memory: bool,
    ) -> Self {
        let mut tiled = 0;
        for (range, _) in volumes {
            assert!(
                range.start == tiled && range.end > tiled,
                "volume range {range:?} does not continue the tiling at node {tiled}"
            );
            tiled = range.end;
        }
        assert_eq!(tiled, design.len(), "volume ranges do not cover the design");
        let nodes = design.nodes();

        let mut scan_time = Seconds::zero();
        let mut compute_time = Seconds::zero();
        let mut busiest_port = Seconds::zero();
        let mut node_network_time = Vec::with_capacity(nodes.len());
        for (end, v) in pieces(design, volumes) {
            let node = &nodes[node_network_time.len()];
            let scan_rate = if in_memory {
                node.cpu_bandwidth
            } else {
                node.disk_bandwidth.min(node.cpu_bandwidth)
            };
            scan_time = scan_time.max(v.scanned * batch / scan_rate);
            compute_time = compute_time.max(v.computed * batch / node.cpu_bandwidth);
            let port = v.egress.max(v.ingress);
            let port_time = port * batch / node.network_bandwidth;
            node_network_time.resize(end, port_time);
            busiest_port = busiest_port.max(port_time);
        }
        // One addition per node, in node order: each sum rounds as a
        // straight-line loop's does.
        let per_node = |volume: fn(&NodeVolumes) -> Megabytes| {
            volumes
                .iter()
                .flat_map(|(range, v)| range.clone().map(move |_| volume(v)))
                .sum::<Megabytes>()
        };
        let (network_time, bytes_over_network) =
            fabric.unwrap_or_else(|| (busiest_port, per_node(|v| v.egress) * batch));

        let duration = network_time.max(scan_time).max(compute_time);

        let mut energy = Joules::zero();
        let mut node_utilization = Vec::with_capacity(nodes.len());
        let mut node_energy = Vec::with_capacity(nodes.len());
        let mut node_egress = Vec::with_capacity(nodes.len());
        let mut node_ingress = Vec::with_capacity(nodes.len());
        for (end, v) in pieces(design, volumes) {
            let node = &nodes[node_energy.len()];
            let processed = (v.scanned + v.computed) * batch;
            let rate = if duration.value() > f64::EPSILON {
                processed / duration
            } else {
                MegabytesPerSec::zero()
            };
            let utilization = node.utilization_at_rate(rate);
            let joules = node.power_at(utilization) * duration;
            for _ in node_energy.len()..end {
                energy += joules;
            }
            node_utilization.resize(end, utilization);
            node_energy.resize(end, joules);
            node_egress.resize(end, v.egress * batch);
            node_ingress.resize(end, v.ingress * batch);
        }

        Self {
            label: label.into(),
            duration,
            energy,
            bytes_scanned: per_node(|v| v.scanned) * batch,
            bytes_over_network,
            scan_time,
            network_time,
            compute_time,
            bottleneck: Bottleneck::slowest(scan_time, network_time, compute_time),
            node_utilization,
            node_energy,
            node_egress,
            node_ingress,
            node_network_time,
        }
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

/// The pieces of `design` on which both the node spec and the volumes are
/// constant — the intersection of its runs with the ranges of `volumes`, both
/// tiling `0..design.len()` — as each piece's end and volumes, in node order.
fn pieces<'a>(
    design: &'a ClusterSpec,
    volumes: &'a [(Range<usize>, NodeVolumes)],
) -> impl Iterator<Item = (usize, &'a NodeVolumes)> + 'a {
    let mut runs = design.runs().peekable();
    let mut volumes = volumes.iter().peekable();
    std::iter::from_fn(move || {
        let run_end = runs.peek()?.end;
        let (range, v) = *volumes.peek()?;
        let end = run_end.min(range.end);
        if run_end == end {
            runs.next();
        }
        if range.end == end {
            volumes.next();
        }
        Some((end, v))
    })
}

/// One query (or one batch of concurrent queries) on one cluster design,
/// phase by phase: measured by the P-store runtime or predicted by the
/// Section 5.4 analytical model — the one phased-run shape in the workspace.
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
    /// Join output rows per query, counted on the engine-scale data —
    /// `None` for a model prediction, which joins nothing.
    pub output_rows: Option<usize>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_simkit::units::Watts;
    use eedc_simkit::NodeSpec;

    impl PhaseStats {
        /// Average cluster power during the phase.
        pub(crate) fn average_power(&self) -> Watts {
            if self.duration.value() <= f64::EPSILON {
                Watts::zero()
            } else {
                self.energy / self.duration
            }
        }
    }

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
            output_rows: Some(1234),
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
    }

    #[test]
    fn closing_rule_table() {
        use eedc_simkit::catalog::{cluster_v_node, laptop_b};
        // cluster-v: C 5037, I 1200, L 100 MB/s; laptop-b: C 1129, I 270,
        // L 95 MB/s. Volumes are picked so the component times are exact.
        let nodes = [cluster_v_node(), laptop_b()];
        let design = ClusterSpec::from_nodes(nodes.to_vec()).unwrap();
        let mb = |a: f64, b: f64| vec![Megabytes(a), Megabytes(b)];
        struct Case {
            name: &'static str,
            in_memory: bool,
            batch: f64,
            volumes: [Vec<Megabytes>; 4], // scanned, computed, egress, ingress
            fabric: Option<(Seconds, Megabytes)>,
            times: [f64; 3], // scan, network, compute
            bottleneck: Bottleneck,
            network_mb: f64,
        }
        let zero = || mb(0.0, 0.0);
        let table = [
            Case {
                name: "network == scan ties read network",
                in_memory: true,
                batch: 1.0,
                volumes: [mb(5037.0, 0.0), zero(), mb(100.0, 0.0), mb(0.0, 95.0)],
                fabric: None,
                times: [1.0, 1.0, 0.0],
                bottleneck: Bottleneck::Network,
                network_mb: 100.0,
            },
            Case {
                name: "scan == compute ties read scan",
                in_memory: true,
                batch: 1.0,
                volumes: [mb(5037.0, 0.0), mb(0.0, 1129.0), zero(), zero()],
                fabric: None,
                times: [1.0, 0.0, 1.0],
                bottleneck: Bottleneck::Scan,
                network_mb: 0.0,
            },
            Case {
                name: "compute strictly slowest",
                in_memory: true,
                batch: 1.0,
                volumes: [mb(5037.0, 1129.0), mb(0.0, 2258.0), mb(50.0, 0.0), zero()],
                fabric: None,
                times: [1.0, 0.5, 2.0],
                bottleneck: Bottleneck::Compute,
                network_mb: 50.0,
            },
            Case {
                name: "all-zero phase",
                in_memory: true,
                batch: 1.0,
                volumes: [zero(), zero(), zero(), zero()],
                fabric: None,
                times: [0.0, 0.0, 0.0],
                bottleneck: Bottleneck::Network,
                network_mb: 0.0,
            },
            Case {
                name: "disk-resident scans run at min(disk, cpu)",
                in_memory: false,
                batch: 1.0,
                volumes: [mb(1200.0, 540.0), zero(), zero(), zero()],
                fabric: None,
                times: [2.0, 0.0, 0.0],
                bottleneck: Bottleneck::Scan,
                network_mb: 0.0,
            },
            Case {
                name: "a simulated fabric overrides the per-port closed form",
                in_memory: true,
                batch: 1.0,
                volumes: [zero(), zero(), mb(100.0, 0.0), mb(0.0, 95.0)],
                fabric: Some((Seconds(3.0), Megabytes(42.0))),
                times: [0.0, 3.0, 0.0],
                bottleneck: Bottleneck::Network,
                network_mb: 42.0,
            },
            Case {
                name: "batch multiplies every per-query volume",
                in_memory: true,
                batch: 2.0,
                volumes: [
                    mb(5037.0, 0.0),
                    mb(0.0, 1129.0),
                    mb(100.0, 0.0),
                    mb(0.0, 95.0),
                ],
                fabric: None,
                times: [2.0, 2.0, 2.0],
                bottleneck: Bottleneck::Network,
                network_mb: 200.0,
            },
        ];
        for case in table {
            let name = case.name;
            let [scanned, computed, egress, ingress] = case.volumes;
            let volumes = per_node(&scanned, &computed, &egress, &ingress);
            let p = PhaseStats::close(
                &design,
                "probe",
                &volumes,
                case.batch,
                case.fabric,
                case.in_memory,
            );
            let [scan, network, compute] = case.times.map(Seconds);
            assert_eq!(
                (p.scan_time, p.network_time, p.compute_time),
                (scan, network, compute),
                "{name}"
            );
            assert_eq!(p.duration, scan.max(network).max(compute), "{name}");
            assert_eq!(p.bottleneck, case.bottleneck, "{name}");
            assert_eq!(p.bytes_over_network, Megabytes(case.network_mb), "{name}");
            let total: Megabytes = scanned.iter().copied().sum();
            assert_eq!(p.bytes_scanned, total * case.batch, "{name}");
            // Ports: recorded batch-scaled, timed per node whatever the fabric
            // said, and never above the transfer's completion time.
            for id in 0..nodes.len() {
                assert_eq!(p.node_egress[id], egress[id] * case.batch, "{name}");
                assert_eq!(p.node_ingress[id], ingress[id] * case.batch, "{name}");
                let port = p.node_egress[id].max(p.node_ingress[id]);
                let port_time = port / nodes[id].network_bandwidth;
                assert_eq!(p.node_network_time[id], port_time, "{name}");
                assert!(port_time <= p.network_time, "{name}");
            }
            // Energy: the per-node joules are the phase's, exactly; a node
            // never reads below its engine floor; nothing is NaN.
            assert_eq!(p.node_energy.iter().copied().sum::<Joules>(), p.energy);
            for (id, node) in nodes.iter().enumerate() {
                let u = p.node_utilization[id];
                assert!((node.utilization_floor..=1.0).contains(&u), "{name}: {u}");
                assert_eq!(p.node_energy[id], node.power_at(u) * p.duration, "{name}");
            }
            if p.duration == Seconds::zero() {
                let floors: Vec<f64> = nodes.iter().map(|n| n.utilization_floor).collect();
                assert_eq!(p.node_utilization, floors, "{name}");
                assert_eq!(p.energy, Joules::zero(), "{name}");
            } else {
                assert!(p.energy.value() > 0.0 && p.energy.is_finite(), "{name}");
            }
        }
        // The same scans, memory-resident, run at the CPU pipeline rate.
        let volumes = per_node(&mb(1200.0, 540.0), &zero(), &zero(), &zero());
        let p = PhaseStats::close(&design, "build", &volumes, 1.0, None, true);
        assert_eq!(p.scan_time, Seconds(540.0 / 1129.0));
    }

    /// Per-node volume columns as one single-node range per node — how the
    /// runtime hands in its measured volumes.
    fn per_node(
        scanned: &[Megabytes],
        computed: &[Megabytes],
        egress: &[Megabytes],
        ingress: &[Megabytes],
    ) -> Vec<(Range<usize>, NodeVolumes)> {
        (0..scanned.len())
            .map(|id| {
                let volumes = NodeVolumes {
                    scanned: scanned[id],
                    computed: computed[id],
                    egress: egress[id],
                    ingress: ingress[id],
                };
                (id..id + 1, volumes)
            })
            .collect()
    }

    /// The same volumes in maximal ranges: a node joins its predecessor's
    /// range when all four of its volumes have the same bits.
    fn maximal_ranges(
        per_node: &[(Range<usize>, NodeVolumes)],
    ) -> Vec<(Range<usize>, NodeVolumes)> {
        let bits = |v: &NodeVolumes| {
            [v.scanned, v.computed, v.egress, v.ingress].map(|m| m.value().to_bits())
        };
        let mut ranges: Vec<(Range<usize>, NodeVolumes)> = Vec::new();
        for (range, volumes) in per_node {
            match ranges.last_mut() {
                Some((last, same)) if bits(same) == bits(volumes) => last.end = range.end,
                _ => ranges.push((range.clone(), *volumes)),
            }
        }
        ranges
    }

    /// `PhaseStats::close` as it was before it closed by runs: every node
    /// derived on its own, in two straight-line loops. The oracle for
    /// `close_by_runs_is_bit_identical_to_the_straight_line_loop`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the oracle takes exactly `PhaseStats::close`'s arguments"
    )]
    fn close_reference(
        nodes: &[NodeSpec],
        label: &str,
        scanned: &[Megabytes],
        computed: &[Megabytes],
        mut node_egress: Vec<Megabytes>,
        mut node_ingress: Vec<Megabytes>,
        batch: f64,
        fabric: Option<(Seconds, Megabytes)>,
        in_memory: bool,
    ) -> PhaseStats {
        let mut scan_time = Seconds::zero();
        let mut compute_time = Seconds::zero();
        let mut busiest_port = Seconds::zero();
        let mut node_network_time = Vec::with_capacity(nodes.len());
        for (id, node) in nodes.iter().enumerate() {
            let scan_rate = if in_memory {
                node.cpu_bandwidth
            } else {
                node.disk_bandwidth.min(node.cpu_bandwidth)
            };
            scan_time = scan_time.max(scanned[id] * batch / scan_rate);
            compute_time = compute_time.max(computed[id] * batch / node.cpu_bandwidth);
            let port = node_egress[id].max(node_ingress[id]);
            let port_time = port * batch / node.network_bandwidth;
            node_network_time.push(port_time);
            busiest_port = busiest_port.max(port_time);
        }
        let (network_time, bytes_over_network) = fabric.unwrap_or_else(|| {
            let sent: Megabytes = node_egress.iter().copied().sum();
            (busiest_port, sent * batch)
        });

        let duration = network_time.max(scan_time).max(compute_time);

        let mut energy = Joules::zero();
        let mut node_utilization = Vec::with_capacity(nodes.len());
        let mut node_energy = Vec::with_capacity(nodes.len());
        for (id, node) in nodes.iter().enumerate() {
            let processed = (scanned[id] + computed[id]) * batch;
            let rate = if duration.value() > f64::EPSILON {
                processed / duration
            } else {
                MegabytesPerSec::zero()
            };
            let utilization = node.utilization_at_rate(rate);
            node_utilization.push(utilization);
            let joules = node.power_at(utilization) * duration;
            node_energy.push(joules);
            energy += joules;
        }
        for volume in node_egress.iter_mut().chain(&mut node_ingress) {
            *volume = *volume * batch;
        }

        PhaseStats {
            label: label.into(),
            duration,
            energy,
            bytes_scanned: scanned.iter().copied().sum::<Megabytes>() * batch,
            bytes_over_network,
            scan_time,
            network_time,
            compute_time,
            bottleneck: Bottleneck::slowest(scan_time, network_time, compute_time),
            node_utilization,
            node_energy,
            node_egress,
            node_ingress,
            node_network_time,
        }
    }

    /// Every float of a `PhaseStats` as its bit pattern, in field order —
    /// what "bit-identical" compares, `NaN`s and signed zeros included.
    fn float_bits(p: &PhaseStats) -> Vec<u64> {
        let scalars = [
            p.duration.value(),
            p.energy.value(),
            p.bytes_scanned.value(),
            p.bytes_over_network.value(),
            p.scan_time.value(),
            p.network_time.value(),
            p.compute_time.value(),
        ];
        scalars
            .into_iter()
            .chain(p.node_utilization.iter().copied())
            .chain(p.node_energy.iter().map(|j| j.value()))
            .chain(p.node_egress.iter().map(|v| v.value()))
            .chain(p.node_ingress.iter().map(|v| v.value()))
            .chain(p.node_network_time.iter().map(|t| t.value()))
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn close_by_runs_is_bit_identical_to_the_straight_line_loop() {
        use eedc_simkit::catalog::{cluster_v_node, laptop_b};
        use eedc_simkit::PowerModel;

        let (b, w) = (cluster_v_node(), laptop_b());
        let only = |edit: fn(&mut NodeSpec)| {
            let mut node = cluster_v_node();
            edit(&mut node);
            node
        };
        let node_lists: Vec<(&str, Vec<NodeSpec>)> = vec![
            ("one node", vec![b.clone()]),
            ("homogeneous run", vec![b.clone(); 6]),
            (
                "B..B W..W",
                [vec![b.clone(); 3], vec![w.clone(); 4]].concat(),
            ),
            (
                "interrupted run B W B",
                vec![b.clone(), w.clone(), b.clone()],
            ),
            (
                "B B W W B B",
                [vec![b.clone(); 2], vec![w.clone(); 2], vec![b.clone(); 2]].concat(),
            ),
            (
                "differ only in power_model",
                vec![
                    b.clone(),
                    only(|n| n.power_model = PowerModel::linear(90.0, 60.0)),
                    b.clone(),
                ],
            ),
            (
                "differ only in name",
                vec![b.clone(), only(|n| n.name.push('2')), b.clone()],
            ),
            (
                "differ only in utilization_floor",
                vec![b.clone(), only(|n| n.utilization_floor = 0.5), b.clone()],
            ),
        ];

        // Per-node volume patterns: [scanned, computed, egress, ingress] of
        // node `id` in a list of `nodes`.
        type Pattern = fn(usize, &[NodeSpec]) -> [f64; 4];
        let patterns: [(&str, Pattern); 8] = [
            ("zero-duration phase", |_, _| [0.0; 4]),
            ("uniform", |_, _| [9000.0, 450.0, 400.0, 410.0]),
            ("uniform within a class", |id, nodes| {
                if nodes[id].is_beefy() {
                    [9000.0, 900.0, 300.0, 800.0]
                } else {
                    [9000.0, 0.0, 450.0, 0.0]
                }
            }),
            ("skewed per-destination weights, no runs", |id, _| {
                // A small LCG on the node id: every node its own volumes.
                let x = (id as u64 + 1).wrapping_mul(6_364_136_223_846_793_005) >> 40;
                let share = 1.0 + (x % 1000) as f64 / 250.0;
                [9000.0, 450.0 * share, 400.0 / share, 410.0 * share]
            }),
            ("runs of length two", |id, _| {
                let step = (id / 2) as f64;
                [9000.0 + step, 450.0, 400.0 + 10.0 * step, 410.0]
            }),
            ("0.0 against -0.0", |id, _| {
                let zero = if id % 2 == 0 { 0.0 } else { -0.0 };
                [zero, 450.0, zero, zero]
            }),
            ("all -0.0", |_, _| [-0.0; 4]),
            ("NaN volumes", |id, _| {
                let nan = if id % 3 == 2 { 7.0 } else { f64::NAN };
                [9000.0, nan, 400.0, nan]
            }),
        ];

        let mut compared = 0;
        for (list, nodes) in &node_lists {
            let design = ClusterSpec::from_nodes(nodes.clone()).unwrap();
            for (pattern, volume) in &patterns {
                let column = |k: usize| -> Vec<Megabytes> {
                    (0..nodes.len())
                        .map(|id| Megabytes(volume(id, nodes)[k]))
                        .collect()
                };
                let [scanned, computed, egress, ingress] = [0, 1, 2, 3].map(column);
                let single = per_node(&scanned, &computed, &egress, &ingress);
                let maximal = maximal_ranges(&single);
                for batch in [1.0, 4.0] {
                    for in_memory in [true, false] {
                        for fabric in [None, Some((Seconds(3.5), Megabytes(1234.0)))] {
                            let case = format!(
                                "{list} / {pattern} / batch {batch} / in_memory {in_memory} / fabric {fabric:?}"
                            );
                            let straight = close_reference(
                                nodes,
                                "probe",
                                &scanned,
                                &computed,
                                egress.clone(),
                                ingress.clone(),
                                batch,
                                fabric,
                                in_memory,
                            );
                            for volumes in [&single, &maximal] {
                                let by_runs = PhaseStats::close(
                                    &design, "probe", volumes, batch, fabric, in_memory,
                                );
                                // Every float, `energy` and `duration` among
                                // them.
                                assert_eq!(float_bits(&by_runs), float_bits(&straight), "{case}");
                                assert_eq!(by_runs.label, straight.label, "{case}");
                                assert_eq!(by_runs.bottleneck, straight.bottleneck, "{case}");
                                // `==` on the whole struct wherever it can
                                // hold (a NaN is not equal to itself).
                                if float_bits(&straight)
                                    .iter()
                                    .all(|&bits| !f64::from_bits(bits).is_nan())
                                {
                                    assert_eq!(by_runs, straight, "{case}");
                                }
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, node_lists.len() * patterns.len() * 16);
    }

    #[test]
    #[should_panic(expected = "does not continue the tiling")]
    fn volumes_that_do_not_tile_the_design_panic() {
        use eedc_simkit::catalog::cluster_v_node;

        let design = ClusterSpec::homogeneous(cluster_v_node(), 3).unwrap();
        let zero = Megabytes::zero();
        let volumes = NodeVolumes {
            scanned: zero,
            computed: zero,
            egress: zero,
            ingress: zero,
        };
        // Nodes 0..1, then 2..3: node 1 has no volumes.
        PhaseStats::close(
            &design,
            "probe",
            &[(0..1, volumes), (2..3, volumes)],
            1.0,
            None,
            true,
        );
    }

    #[test]
    fn phase_helpers() {
        let p = phase("build", 4.0, 1000.0, Bottleneck::Network);
        assert_eq!(p.average_power(), Watts(250.0));
        let idle = PhaseStats {
            duration: Seconds(0.0),
            ..p.clone()
        };
        assert_eq!(idle.average_power(), Watts::zero());
    }

    #[test]
    fn busy_fractions_are_clamped_shares_of_the_duration() {
        // The fixture sets scan = duration/2, network = duration, compute =
        // duration/10 — exactly the busy shares a trace export carries.
        let p = phase("build", 4.0, 1000.0, Bottleneck::Network);
        assert!((p.scan_fraction() - 0.5).abs() < 1e-12);
        assert!((p.network_fraction() - 1.0).abs() < 1e-12);
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
        assert_eq!(ExecutionMode::ALL.len(), 2);
        for mode in ExecutionMode::ALL {
            assert_eq!(mode.to_string(), mode.as_str());
            assert_eq!(mode.as_str().parse::<ExecutionMode>().unwrap(), mode);
        }
        assert_eq!(Bottleneck::ALL.len(), 3);
        for bottleneck in Bottleneck::ALL {
            assert_eq!(bottleneck.to_string(), bottleneck.as_str());
            assert_eq!(
                bottleneck.as_str().parse::<Bottleneck>().unwrap(),
                bottleneck
            );
        }
        // Unknown labels keep their error text.
        let err = "homo".parse::<ExecutionMode>().unwrap_err().to_string();
        assert!(err.contains("unknown execution mode 'homo'"), "{err}");
        let err = "disk".parse::<Bottleneck>().unwrap_err().to_string();
        assert!(err.contains("unknown bottleneck 'disk'"), "{err}");
    }
}
