//! Cluster utilization traces: per-node, per-phase busy-share time series.
//!
//! The paper's Section 3 behavioural argument is built from *per-query
//! utilization traces*: iLO2 / WattsUp streams of how busy each node's CPU,
//! disk and network were over the life of a query, replayed through the
//! per-node utilization→power regressions to obtain energy. A
//! [`UtilizationTrace`] is the simulated analogue of that measurement
//! stream at cluster granularity — for every execution phase, how large a
//! share of the phase each node spent busy on each resource.
//!
//! Traces come from one export, [`UtilizationTrace::from_execution`], which
//! converts the per-phase statistics of an `eedc_pstore::QueryExecution`
//! into busy shares. The execution is either
//!
//! * **a measured run** of a `PStoreCluster`, so a real run can be replayed
//!   under a different engine behaviour (see [`crate::engines`]), or
//! * **an analytical prediction** — the Section 5.4 model in `eedc-core`
//!   returns the same `QueryExecution` shape, and its `Traced` estimator
//!   exports it here, no cluster load required.
//!
//! Either way, [`crate::replay()`] integrates the trace through the node
//! power models to produce time / energy / per-node series; it is the one
//! path from a trace to joules.
//!
//! ## The busy-share ↔ utilization convention
//!
//! A node executing a query never idles below its engine utilization floor
//! `G` (the `G_B` / `G_W` constants of Table 3). The paper's Section 3
//! utilization model is `u = G + busy · (1 − G)`: a fully stalled node
//! reads `G`, a fully busy node reads 1. [`utilization_from_busy_share`]
//! and its inverse, which a trace export applies per node, are the two
//! directions of that map, and they round-trip exactly for any utilization
//! in `[G, 1]` — which is
//! why a trace exported from a measured run replays to the measured energy
//! (see the cross-lens validation in `eedc-core`).

use eedc_pstore::stats::QueryExecution;
use eedc_simkit::error::SimError;
use eedc_simkit::units::{Megabytes, Seconds};
use eedc_simkit::NodeSpec;

/// CPU utilization under the Section 3 model: the engine floor plus the busy
/// share of the remaining headroom, clamped to `[0, 1]`.
pub fn utilization_from_busy_share(share: f64, floor: f64) -> f64 {
    let floor = floor.clamp(0.0, 1.0);
    (floor + share.clamp(0.0, 1.0) * (1.0 - floor)).clamp(0.0, 1.0)
}

/// The inverse map: the busy share that produces `utilization` over a floor
/// of `floor` (0 when the floor already covers the utilization; 1 at full
/// utilization). Exact inverse of [`utilization_from_busy_share`] on
/// `[floor, 1]`.
fn busy_share_from_utilization(utilization: f64, floor: f64) -> f64 {
    let floor = floor.clamp(0.0, 1.0);
    if 1.0 - floor <= f64::EPSILON {
        return 0.0;
    }
    ((utilization.clamp(0.0, 1.0) - floor) / (1.0 - floor)).clamp(0.0, 1.0)
}

/// How busy one node was on each resource during one phase, as fractions of
/// the phase duration in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyShares {
    /// Share of the phase the CPU spent processing tuples (excluding the
    /// engine utilization floor, which is always present — see
    /// [`utilization_from_busy_share`]).
    pub cpu: f64,
    /// Share of the phase the storage subsystem spent reading or writing.
    pub disk: f64,
    /// Share of the phase the node's network port spent transferring (its
    /// busier direction).
    pub network: f64,
}

impl BusyShares {
    /// Validated busy shares.
    pub fn new(cpu: f64, disk: f64, network: f64) -> Result<Self, SimError> {
        let shares = Self { cpu, disk, network };
        shares.validate()?;
        Ok(shares)
    }

    /// A node that did nothing during the phase (it still draws floor power
    /// on replay).
    pub fn idle() -> Self {
        Self {
            cpu: 0.0,
            disk: 0.0,
            network: 0.0,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        for (label, share) in [
            ("cpu", self.cpu),
            ("disk", self.disk),
            ("network", self.network),
        ] {
            if !(0.0..=1.0).contains(&share) {
                return Err(SimError::invalid(format!(
                    "{label} busy share {share} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// One execution phase of a cluster trace: a label, a duration, and the busy
/// shares of every node (in cluster node order) over that duration.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePhase {
    /// Phase label (`"build"`, `"probe"`, `"probe/stage"`, …).
    pub label: String,
    /// Wall-clock duration of the phase.
    pub duration: Seconds,
    /// Per-node busy shares, in cluster node order.
    pub node_shares: Vec<BusyShares>,
}

impl TracePhase {
    /// Bytes node `id` moved through its network port during the phase,
    /// recovered from the port's busy share and bandwidth. This is the
    /// port-observed volume (the busier of ingress and egress), which is
    /// what an engine that stages shuffled intermediates must spill.
    pub fn node_network_bytes(&self, id: usize, spec: &NodeSpec) -> Megabytes {
        spec.network_bandwidth * (self.duration * self.node_shares[id].network)
    }
}

/// A per-node, per-phase busy-share time series over a whole query — the
/// simulated analogue of the paper's measured utilization traces.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTrace {
    label: String,
    phases: Vec<TracePhase>,
}

impl UtilizationTrace {
    /// An empty trace for the labelled query.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            phases: Vec::new(),
        }
    }

    /// The label of the traced query.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Append a phase. Every phase must describe the same node count;
    /// zero-duration phases are dropped.
    pub fn push_phase(
        &mut self,
        label: impl Into<String>,
        duration: Seconds,
        node_shares: Vec<BusyShares>,
    ) -> Result<(), SimError> {
        if !duration.is_finite() || duration.value() < 0.0 {
            return Err(SimError::invalid(format!(
                "phase duration must be non-negative and finite, got {}",
                duration.value()
            )));
        }
        if node_shares.is_empty() {
            return Err(SimError::invalid("a trace phase needs at least one node"));
        }
        if let Some(first) = self.phases.first() {
            if first.node_shares.len() != node_shares.len() {
                return Err(SimError::invalid(format!(
                    "phase describes {} nodes but the trace holds {}",
                    node_shares.len(),
                    first.node_shares.len()
                )));
            }
        }
        for shares in &node_shares {
            shares.validate()?;
        }
        if duration.value() > 0.0 {
            self.phases.push(TracePhase {
                label: label.into(),
                duration,
                node_shares,
            });
        }
        Ok(())
    }

    /// The phases of the trace, in execution order.
    pub fn phases(&self) -> &[TracePhase] {
        &self.phases
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the trace has no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Number of nodes the trace describes (0 for an empty trace).
    pub fn node_count(&self) -> usize {
        self.phases.first().map_or(0, |p| p.node_shares.len())
    }

    /// Total traced wall-clock time.
    pub fn total_time(&self) -> Seconds {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Export a trace from a [`QueryExecution`] — the per-phase statistics
    /// of a measured `PStoreCluster` run or of an analytical prediction.
    ///
    /// Per-node CPU busy shares are recovered exactly from the per-node
    /// utilizations via the inverse of [`utilization_from_busy_share`], so
    /// replaying the trace over the same nodes reproduces the execution's
    /// energy. Network
    /// shares are per-node: each node's egress/ingress volumes and the
    /// resulting port-serialization time ride along in the stats, so a node
    /// that shipped nothing carries a zero network share instead of the
    /// phase's transfer-completion fraction (stats recorded before the
    /// per-node export fall back to that phase-level fraction). Disk shares
    /// remain phase-level — the stats hold the completion time of the
    /// slowest producer scan, not per-node scan times. With memory-resident
    /// tables (`in_memory`) scans run through the CPU pipeline and the disk
    /// share is zero.
    pub fn from_execution(
        execution: &QueryExecution,
        nodes: &[NodeSpec],
        in_memory: bool,
    ) -> Result<Self, SimError> {
        let mut trace = Self::new(format!(
            "{} {} on {}",
            execution.strategy, execution.mode, execution.cluster_label
        ));
        for phase in &execution.phases {
            if phase.node_utilization.len() != nodes.len() {
                return Err(SimError::invalid(format!(
                    "phase '{}' describes {} nodes but {} specs were supplied",
                    phase.label,
                    phase.node_utilization.len(),
                    nodes.len()
                )));
            }
            let disk = if in_memory {
                0.0
            } else {
                phase.scan_fraction()
            };
            let shares = phase
                .node_utilization
                .iter()
                .zip(nodes)
                .enumerate()
                .map(|(id, (&u, spec))| BusyShares {
                    cpu: busy_share_from_utilization(u, spec.utilization_floor),
                    disk,
                    network: phase.node_network_fraction(id),
                })
                .collect();
            trace.push_phase(phase.label.clone(), phase.duration, shares)?;
        }
        Ok(trace)
    }

    /// The first `duration` seconds of the trace: whole leading phases plus
    /// a proportionally shortened copy of the phase the cut lands in (its
    /// busy shares are piecewise constant, so truncation preserves them).
    /// Returns the whole trace when `duration` covers it.
    ///
    /// This is the primitive behind mid-query restart modelling: the work an
    /// engine re-executes after aborting `duration` into a run is exactly
    /// this prefix.
    pub fn prefix(&self, duration: Seconds) -> UtilizationTrace {
        let mut prefix = UtilizationTrace::new(self.label.clone());
        let mut remaining = duration.value().max(0.0);
        for phase in &self.phases {
            if remaining <= 0.0 {
                break;
            }
            let take = phase.duration.value().min(remaining);
            remaining -= take;
            prefix.phases.push(TracePhase {
                label: phase.label.clone(),
                duration: Seconds(take),
                node_shares: phase.node_shares.clone(),
            });
        }
        prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_simkit::catalog::cluster_v_node;

    fn shares(cpu: f64, disk: f64, network: f64) -> BusyShares {
        BusyShares::new(cpu, disk, network).unwrap()
    }

    #[test]
    fn busy_share_round_trips_through_utilization() {
        let floor = 0.25;
        for share in [0.0, 0.1, 0.5, 0.99, 1.0] {
            let u = utilization_from_busy_share(share, floor);
            assert!(u >= floor && u <= 1.0);
            let back = busy_share_from_utilization(u, floor);
            assert!((back - share).abs() < 1e-12, "share {share} -> {back}");
        }
        // Below-floor utilizations (cannot occur during execution) clamp to 0.
        assert_eq!(busy_share_from_utilization(0.1, 0.25), 0.0);
        // A degenerate floor of 1 leaves no headroom at all.
        assert_eq!(busy_share_from_utilization(1.0, 1.0), 0.0);
        assert_eq!(utilization_from_busy_share(0.5, 1.0), 1.0);
    }

    #[test]
    fn phases_accumulate_and_validate() {
        let mut trace = UtilizationTrace::new("q");
        trace
            .push_phase("build", Seconds(2.0), vec![shares(0.5, 0.0, 1.0); 4])
            .unwrap();
        trace
            .push_phase("probe", Seconds(8.0), vec![shares(0.8, 0.0, 1.0); 4])
            .unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.node_count(), 4);
        assert_eq!(trace.total_time(), Seconds(10.0));
        assert_eq!(trace.label(), "q");

        // Mismatched node counts are rejected.
        assert!(trace
            .push_phase("bad", Seconds(1.0), vec![shares(0.1, 0.0, 0.0); 3])
            .is_err());
        // Invalid shares and durations are rejected.
        assert!(BusyShares::new(1.5, 0.0, 0.0).is_err());
        assert!(BusyShares::new(0.5, -0.1, 0.0).is_err());
        assert!(trace
            .push_phase("bad", Seconds(-1.0), vec![shares(0.1, 0.0, 0.0); 4])
            .is_err());
        assert!(trace.push_phase("bad", Seconds(1.0), Vec::new()).is_err());
        // Zero-duration phases are dropped, not stored.
        trace
            .push_phase("noop", Seconds(0.0), vec![BusyShares::idle(); 4])
            .unwrap();
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn prefix_cuts_mid_phase_proportionally() {
        let mut trace = UtilizationTrace::new("q");
        trace
            .push_phase("build", Seconds(2.0), vec![shares(0.5, 0.0, 1.0); 2])
            .unwrap();
        trace
            .push_phase("probe", Seconds(8.0), vec![shares(0.8, 0.0, 1.0); 2])
            .unwrap();
        let half = trace.prefix(Seconds(6.0));
        assert_eq!(half.len(), 2);
        assert_eq!(half.total_time(), Seconds(6.0));
        assert_eq!(half.phases()[1].duration, Seconds(4.0));
        // Shares survive the cut.
        assert_eq!(half.phases()[1].node_shares[0].cpu, 0.8);
        // A prefix past the end is the whole trace; a zero prefix is empty.
        assert_eq!(trace.prefix(Seconds(100.0)), trace);
        assert!(trace.prefix(Seconds(0.0)).is_empty());
    }

    #[test]
    fn port_bytes_recover_from_the_busy_share() {
        let spec = cluster_v_node();
        let mut trace = UtilizationTrace::new("q");
        trace
            .push_phase("probe", Seconds(10.0), vec![shares(0.2, 0.0, 0.5); 2])
            .unwrap();
        let bytes = trace.phases()[0].node_network_bytes(0, &spec);
        let expected = spec.network_bandwidth * Seconds(5.0);
        assert!((bytes.value() - expected.value()).abs() < 1e-9);
    }
}
