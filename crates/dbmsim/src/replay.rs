//! Trace replay: integrate a cluster trace through the node power models.
//!
//! This is the second half of the paper's Section 3 methodology. The first
//! half measures (or synthesizes) a per-node busy-share trace
//! ([`crate::trace`]); replay walks that trace phase by phase, maps each
//! node's CPU busy share to a utilization through the Section 3 model
//! (`u = G + busy · (1 − G)`), evaluates the node's published
//! utilization→power regression at that utilization, and integrates power
//! over the phase duration. The result is the same shape every other lens
//! produces — response time, total energy, per-node utilization and energy —
//! plus the per-phase series the figures plot.
//!
//! Replay is deliberately engine-agnostic: engine behaviour (disk staging,
//! mid-query restarts — the Section 3.2 DBMS-X story) is expressed as a
//! *trace transformation* in [`crate::engines`], so the same replay core
//! evaluates any engine.
//!
//! ```
//! use eedc_dbmsim::{replay, BusyShares, UtilizationTrace};
//! use eedc_simkit::catalog::cluster_v_node;
//! use eedc_simkit::units::Seconds;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two nodes, fully network-bound for 8 s, then CPU-saturated for 2 s.
//! let mut trace = UtilizationTrace::new("toy shuffle");
//! trace.push_phase("shuffle", Seconds(8.0), vec![BusyShares::new(0.0, 0.0, 1.0)?; 2])?;
//! trace.push_phase("probe", Seconds(2.0), vec![BusyShares::new(1.0, 0.0, 0.0)?; 2])?;
//!
//! let nodes = vec![cluster_v_node(); 2];
//! let result = replay(&trace, &nodes)?;
//! assert_eq!(result.response_time(), Seconds(10.0));
//! // While network-bound the nodes idle at the engine floor but keep
//! // drawing near-idle wall power — the energy-proportionality gap in
//! // miniature: 80% of the time contributes far more than 0% of the energy.
//! let stalled = result.phases[0].energy;
//! assert!(stalled.value() > 0.3 * result.energy().value());
//! # Ok(())
//! # }
//! ```

use crate::trace::{utilization_from_busy_share, UtilizationTrace};
use eedc_simkit::error::SimError;
use eedc_simkit::units::{Joules, Megabytes, Seconds};
use eedc_simkit::NodeSpec;

/// One replayed phase: the trace phase's shape evaluated against concrete
/// node hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPhase {
    /// Phase label, carried from the trace.
    pub label: String,
    /// Wall-clock duration of the phase.
    pub duration: Seconds,
    /// Cluster energy over the phase.
    pub energy: Joules,
    /// Per-node CPU utilization during the phase (floor + busy share of the
    /// headroom), in cluster node order.
    pub node_utilization: Vec<f64>,
    /// Per-node energy over the phase, in cluster node order; sums to
    /// `energy`.
    pub node_energy: Vec<Joules>,
    /// Longest per-node CPU busy time in the phase.
    pub cpu_time: Seconds,
    /// Longest per-node disk busy time in the phase.
    pub disk_time: Seconds,
    /// Longest per-node network busy time in the phase.
    pub network_time: Seconds,
    /// Port-volume estimate of the bytes that crossed the network during the
    /// phase: the sum over nodes of busy-share × port bandwidth × duration.
    /// For balanced transfer patterns (each port's ingress ≈ egress) this is
    /// the transferred volume; for lopsided patterns it overestimates by up
    /// to 2×.
    pub network_bytes: Megabytes,
}

/// The result of replaying a trace over concrete hardware: per-phase series
/// plus whole-run aggregates, mirroring what a measured run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResult {
    /// Label of the replayed trace.
    pub label: String,
    /// The replayed phases, in trace order.
    pub phases: Vec<ReplayPhase>,
}

impl ReplayResult {
    /// Total response time (phases are sequential).
    pub fn response_time(&self) -> Seconds {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Total cluster energy over the run.
    pub fn energy(&self) -> Joules {
        self.phases.iter().map(|p| p.energy).sum()
    }

    /// Time-averaged per-node CPU utilization over the run, in cluster node
    /// order.
    pub fn node_utilization(&self) -> Vec<f64> {
        let total = self.response_time().value();
        let n = self.phases.first().map_or(0, |p| p.node_utilization.len());
        let mut averaged = vec![0.0; n];
        if total <= f64::EPSILON {
            return averaged;
        }
        for phase in &self.phases {
            for (acc, &u) in averaged.iter_mut().zip(&phase.node_utilization) {
                *acc += u * phase.duration.value();
            }
        }
        for u in &mut averaged {
            *u /= total;
        }
        averaged
    }

    /// Per-node energy over the run, in cluster node order; sums to
    /// [`energy`](Self::energy).
    pub fn node_energy(&self) -> Vec<Joules> {
        let n = self.phases.first().map_or(0, |p| p.node_energy.len());
        let mut totals = vec![Joules::zero(); n];
        for phase in &self.phases {
            for (acc, &e) in totals.iter_mut().zip(&phase.node_energy) {
                *acc += e;
            }
        }
        totals
    }

    /// The replayed phase with the given label, if present.
    pub fn phase(&self, label: &str) -> Option<&ReplayPhase> {
        self.phases.iter().find(|p| p.label == label)
    }
}

/// Replay `trace` over `nodes`: integrate every node's busy-share signal
/// through its utilization→power model, phase by phase.
///
/// The trace must be non-empty and describe exactly `nodes.len()` nodes.
pub fn replay(trace: &UtilizationTrace, nodes: &[NodeSpec]) -> Result<ReplayResult, SimError> {
    if trace.is_empty() {
        return Err(SimError::invalid(format!(
            "trace '{}' has no phases to replay",
            trace.label()
        )));
    }
    if trace.node_count() != nodes.len() {
        return Err(SimError::invalid(format!(
            "trace '{}' describes {} nodes but {} specs were supplied",
            trace.label(),
            trace.node_count(),
            nodes.len()
        )));
    }
    let mut phases = Vec::with_capacity(trace.len());
    for phase in trace.phases() {
        let mut energy = Joules::zero();
        let mut node_utilization = Vec::with_capacity(nodes.len());
        let mut node_energy = Vec::with_capacity(nodes.len());
        let mut cpu = 0.0_f64;
        let mut disk = 0.0_f64;
        let mut network = 0.0_f64;
        let mut network_bytes = Megabytes::zero();
        for (id, node) in nodes.iter().enumerate() {
            let shares = &phase.node_shares[id];
            let utilization = utilization_from_busy_share(shares.cpu, node.utilization_floor);
            node_utilization.push(utilization);
            let joules = node.power_at(utilization) * phase.duration;
            node_energy.push(joules);
            energy += joules;
            cpu = cpu.max(shares.cpu);
            disk = disk.max(shares.disk);
            network = network.max(shares.network);
            network_bytes += phase.node_network_bytes(id, node);
        }
        phases.push(ReplayPhase {
            label: phase.label.clone(),
            duration: phase.duration,
            energy,
            node_utilization,
            node_energy,
            cpu_time: phase.duration * cpu,
            disk_time: phase.duration * disk,
            network_time: phase.duration * network,
            network_bytes,
        });
    }
    Ok(ReplayResult {
        label: trace.label().to_string(),
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BusyShares;
    use eedc_simkit::catalog::{cluster_v_node, laptop_b};

    fn shares(cpu: f64, disk: f64, network: f64) -> BusyShares {
        BusyShares::new(cpu, disk, network).unwrap()
    }

    fn two_phase_trace(n: usize) -> UtilizationTrace {
        let mut trace = UtilizationTrace::new("q");
        trace
            .push_phase("build", Seconds(2.0), vec![shares(0.5, 0.0, 1.0); n])
            .unwrap();
        trace
            .push_phase("probe", Seconds(8.0), vec![shares(0.9, 0.0, 1.0); n])
            .unwrap();
        trace
    }

    #[test]
    fn replay_matches_the_closed_form_integral() {
        let spec = cluster_v_node();
        let nodes = vec![spec.clone(); 4];
        let result = replay(&two_phase_trace(4), &nodes).unwrap();
        assert_eq!(result.response_time(), Seconds(10.0));
        assert_eq!(result.phases.len(), 2);
        // Per node: power at u(0.5) × 2 s + power at u(0.9) × 8 s.
        let u = |share: f64| utilization_from_busy_share(share, spec.utilization_floor);
        let expected_per_node =
            spec.power_at(u(0.5)) * Seconds(2.0) + spec.power_at(u(0.9)) * Seconds(8.0);
        let expected = expected_per_node.value() * 4.0;
        assert!((result.energy().value() - expected).abs() < 1e-9 * expected);
        // Per-node energies sum to the total and each matches the
        // hand-computed integral.
        let node_total: f64 = result.node_energy().iter().map(|e| e.value()).sum();
        assert!((node_total - result.energy().value()).abs() < 1e-9 * node_total);
        for node in result.node_energy() {
            assert!((node.value() - expected_per_node.value()).abs() < 1e-9);
        }
        // Time-averaged utilization interpolates the two phases.
        let avg = result.node_utilization()[0];
        assert!((avg - (u(0.5) * 0.2 + u(0.9) * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_nodes_draw_their_own_power() {
        let nodes = vec![cluster_v_node(), laptop_b()];
        let result = replay(&two_phase_trace(2), &nodes).unwrap();
        let energy = result.node_energy();
        // The Wimpy laptop burns roughly a tenth of the Beefy server.
        assert!(energy[1].value() < 0.2 * energy[0].value());
        // Different floors produce different utilizations for equal shares.
        assert!(
            result.phases[0].node_utilization[0] > result.phases[0].node_utilization[1],
            "Beefy floor (0.25) sits above the Wimpy floor"
        );
    }

    #[test]
    fn busy_time_and_port_volumes_are_reported() {
        let nodes = vec![cluster_v_node(); 2];
        let mut trace = UtilizationTrace::new("q");
        trace
            .push_phase("stage", Seconds(10.0), vec![shares(0.0, 0.6, 0.3); 2])
            .unwrap();
        let result = replay(&trace, &nodes).unwrap();
        let phase = result.phase("stage").unwrap();
        assert_eq!(phase.cpu_time, Seconds::zero());
        assert_eq!(phase.disk_time, Seconds(6.0));
        assert_eq!(phase.network_time, Seconds(3.0));
        let expected = nodes[0].network_bandwidth * Seconds(3.0) * 2.0;
        assert!((phase.network_bytes.value() - expected.value()).abs() < 1e-9);
        assert!(result.phase("missing").is_none());
    }

    #[test]
    fn degenerate_replays_are_rejected() {
        let nodes = vec![cluster_v_node(); 2];
        assert!(replay(&UtilizationTrace::new("empty"), &nodes).is_err());
        assert!(replay(&two_phase_trace(4), &nodes).is_err());
        // Empty-result aggregates stay well-defined.
        let empty = ReplayResult {
            label: "none".into(),
            phases: Vec::new(),
        };
        assert_eq!(empty.response_time(), Seconds::zero());
        assert!(empty.node_utilization().is_empty());
        assert!(empty.node_energy().is_empty());
    }
}
