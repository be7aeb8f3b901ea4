//! Engine behaviour: how a DBMS shapes a query's utilization trace.
//!
//! Section 3.2 of the paper repeats the scale-down study on a second
//! commercial engine ("DBMS-X") and finds the energy story changes for
//! behavioural — not architectural — reasons: unlike the pipelined,
//! memory-resident P-store execution, DBMS-X *stages* repartitioned
//! intermediates through disk between execution phases, and a mid-query
//! fault or reconfiguration makes it *restart* the query, paying the
//! already-completed work again. Both behaviours stretch response time
//! while the CPUs sit at the engine utilization floor, so energy rises much
//! faster than time — the engine, not the hardware, wastes the joules.
//!
//! An [`EngineBehaviour`] captures exactly that as a *trace
//! transformation*: it takes the idealized execution trace (measured from a
//! `PStoreCluster` run or synthesized from the analytical model) and
//! returns the trace the engine would actually exhibit — extra disk-staging
//! phases after every network-bound phase, and redo prefixes for each
//! restart. [`crate::replay()`] then integrates either trace identically, so
//! engine what-ifs compose with every estimator lens.
//!
//! ```
//! use eedc_dbmsim::{replay, BusyShares, EngineBehaviour, UtilizationTrace};
//! use eedc_simkit::catalog::cluster_v_node;
//! use eedc_simkit::units::Seconds;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A shuffle-heavy trace: both phases keep the ports saturated.
//! let nodes = vec![cluster_v_node(); 4];
//! let mut trace = UtilizationTrace::new("Q3-style join");
//! trace.push_phase("build", Seconds(10.0), vec![BusyShares::new(0.3, 0.0, 1.0)?; 4])?;
//! trace.push_phase("probe", Seconds(40.0), vec![BusyShares::new(0.5, 0.0, 1.0)?; 4])?;
//!
//! let pstore = replay(&EngineBehaviour::pstore_like().apply(&trace, &nodes)?, &nodes)?;
//! let dbms_x = replay(&EngineBehaviour::dbms_x().apply(&trace, &nodes)?, &nodes)?;
//! // Disk staging and the mid-query restart strictly stretch both time and
//! // energy — the Section 3.2 observation.
//! assert!(dbms_x.response_time() > pstore.response_time());
//! assert!(dbms_x.energy() > pstore.energy());
//! // The staged run interleaves new disk-bound phases into the series.
//! assert!(dbms_x.phase("build/stage").is_some());
//! # Ok(())
//! # }
//! ```

use crate::trace::{BusyShares, UtilizationTrace};
use eedc_simkit::error::SimError;
use eedc_simkit::units::Seconds;
use eedc_simkit::NodeSpec;

/// Mid-query restart behaviour: how often the engine aborts a run and how
/// much of the completed work each abort throws away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestartPolicy {
    /// Number of mid-query restarts over the run.
    pub restarts: usize,
    /// How far through the run (as a fraction of its total time) each abort
    /// strikes, in `[0, 1]` — the aborted prefix is re-executed from the
    /// start.
    pub redo_fraction: f64,
}

impl RestartPolicy {
    /// No restarts at all (the P-store behaviour).
    pub fn none() -> Self {
        Self {
            restarts: 0,
            redo_fraction: 0.0,
        }
    }

    /// A validated restart policy.
    pub fn new(restarts: usize, redo_fraction: f64) -> Result<Self, SimError> {
        let policy = Self {
            restarts,
            redo_fraction,
        };
        policy.validate()?;
        Ok(policy)
    }

    fn validate(&self) -> Result<(), SimError> {
        if !(0.0..=1.0).contains(&self.redo_fraction) {
            return Err(SimError::invalid(format!(
                "redo fraction {} outside [0, 1]",
                self.redo_fraction
            )));
        }
        Ok(())
    }
}

/// The behavioural profile of a database engine, expressed as a trace
/// transformation.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBehaviour {
    /// Engine name, used in labels and estimator/report columns.
    pub name: String,
    /// Whether repartitioned intermediates are staged through disk between
    /// phases (written after the producing phase, read back by the
    /// consuming side) instead of pipelined in memory.
    pub disk_staging: bool,
    /// Mid-query restart behaviour.
    pub restart: RestartPolicy,
}

impl EngineBehaviour {
    /// The P-store behaviour of Sections 4–5: shuffled intermediates are
    /// pipelined in memory and a query never restarts — the transformation
    /// is the identity.
    pub fn pstore_like() -> Self {
        Self {
            name: "p-store".into(),
            disk_staging: false,
            restart: RestartPolicy::none(),
        }
    }

    /// The Section 3.2 DBMS-X behaviour: disk-staged intermediates plus one
    /// representative mid-query restart that strikes halfway through the
    /// run. Tune the fields (or [`RestartPolicy`]) for engine what-ifs.
    pub fn dbms_x() -> Self {
        Self {
            name: "dbms-x".into(),
            disk_staging: true,
            restart: RestartPolicy {
                restarts: 1,
                redo_fraction: 0.5,
            },
        }
    }

    /// A custom engine behaviour.
    pub fn new(
        name: impl Into<String>,
        disk_staging: bool,
        restart: RestartPolicy,
    ) -> Result<Self, SimError> {
        restart.validate()?;
        Ok(Self {
            name: name.into(),
            disk_staging,
            restart,
        })
    }

    /// Shape `trace` the way this engine would execute it on `nodes`.
    ///
    /// Disk staging appends, after every phase with network activity, a
    /// staging phase in which each node writes the volume its port moved and
    /// reads it back at its disk bandwidth (CPUs idle at the engine floor —
    /// which is exactly why staging costs energy out of proportion to its
    /// time). Restarts then prepend `restarts` redo copies of the first
    /// `redo_fraction` of the staged trace: work the engine completed before
    /// each abort and had to repeat.
    pub fn apply(
        &self,
        trace: &UtilizationTrace,
        nodes: &[NodeSpec],
    ) -> Result<UtilizationTrace, SimError> {
        self.restart.validate()?;
        if trace.node_count() != nodes.len() {
            return Err(SimError::invalid(format!(
                "trace '{}' describes {} nodes but {} specs were supplied",
                trace.label(),
                trace.node_count(),
                nodes.len()
            )));
        }
        let mut staged = UtilizationTrace::new(format!("{} [{}]", trace.label(), self.name));
        for phase in trace.phases() {
            staged.push_phase(
                phase.label.clone(),
                phase.duration,
                phase.node_shares.clone(),
            )?;
            if !self.disk_staging {
                continue;
            }
            // Write + read the port-observed volume at each node's disk rate.
            let stage_times: Vec<Seconds> = nodes
                .iter()
                .enumerate()
                .map(|(id, node)| phase.node_network_bytes(id, node) * 2.0 / node.disk_bandwidth)
                .collect();
            let stage_duration = stage_times
                .iter()
                .copied()
                .fold(Seconds::zero(), Seconds::max);
            if stage_duration.value() <= 0.0 {
                continue;
            }
            let shares = stage_times
                .iter()
                .map(|t| BusyShares {
                    cpu: 0.0,
                    disk: (t.value() / stage_duration.value()).clamp(0.0, 1.0),
                    network: 0.0,
                })
                .collect();
            staged.push_phase(format!("{}/stage", phase.label), stage_duration, shares)?;
        }

        if self.restart.restarts == 0 || self.restart.redo_fraction <= 0.0 {
            return Ok(staged);
        }
        let redo = staged.prefix(staged.total_time() * self.restart.redo_fraction);
        let mut shaped = UtilizationTrace::new(staged.label().to_string());
        for attempt in 1..=self.restart.restarts {
            for phase in redo.phases() {
                shaped.push_phase(
                    format!("redo{attempt}/{}", phase.label),
                    phase.duration,
                    phase.node_shares.clone(),
                )?;
            }
        }
        for phase in staged.phases() {
            shaped.push_phase(
                phase.label.clone(),
                phase.duration,
                phase.node_shares.clone(),
            )?;
        }
        Ok(shaped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use eedc_simkit::catalog::cluster_v_node;

    fn shares(cpu: f64, disk: f64, network: f64) -> BusyShares {
        BusyShares::new(cpu, disk, network).unwrap()
    }

    fn shuffle_trace(n: usize) -> UtilizationTrace {
        let mut trace = UtilizationTrace::new("q");
        trace
            .push_phase("build", Seconds(10.0), vec![shares(0.3, 0.0, 1.0); n])
            .unwrap();
        trace
            .push_phase("probe", Seconds(40.0), vec![shares(0.5, 0.0, 1.0); n])
            .unwrap();
        trace
    }

    #[test]
    fn pstore_behaviour_is_the_identity_up_to_the_label() {
        let nodes = vec![cluster_v_node(); 4];
        let trace = shuffle_trace(4);
        let shaped = EngineBehaviour::pstore_like()
            .apply(&trace, &nodes)
            .unwrap();
        assert_eq!(shaped.phases(), trace.phases());
        assert!(shaped.label().contains("p-store"), "{}", shaped.label());
    }

    #[test]
    fn disk_staging_inserts_floor_power_phases() {
        let nodes = vec![cluster_v_node(); 4];
        let engine = EngineBehaviour::new("stager", true, RestartPolicy::none()).unwrap();
        let shaped = engine.apply(&shuffle_trace(4), &nodes).unwrap();
        // build, build/stage, probe, probe/stage.
        assert_eq!(shaped.len(), 4);
        assert_eq!(shaped.phases()[1].label, "build/stage");
        // The staging phase writes and reads the port volume at disk rate:
        // 10 s of saturated port at 100 MB/s = 1000 MB, x2 / 1200 MB/s.
        let node = cluster_v_node();
        let volume = node.network_bandwidth * Seconds(10.0);
        let expected = volume * 2.0 / node.disk_bandwidth;
        assert!((shaped.phases()[1].duration.value() - expected.value()).abs() < 1e-9);
        // Homogeneous cluster: every node's disk is equally busy, CPUs idle.
        for s in &shaped.phases()[1].node_shares {
            assert_eq!(s.cpu, 0.0);
            assert!((s.disk - 1.0).abs() < 1e-12);
            assert_eq!(s.network, 0.0);
        }
        // A network-free trace stages nothing.
        let mut local = UtilizationTrace::new("local");
        local
            .push_phase("scan", Seconds(5.0), vec![shares(1.0, 0.0, 0.0); 4])
            .unwrap();
        assert_eq!(engine.apply(&local, &nodes).unwrap().len(), 1);
    }

    #[test]
    fn restarts_prepend_redo_prefixes() {
        let nodes = vec![cluster_v_node(); 2];
        let engine =
            EngineBehaviour::new("restarter", false, RestartPolicy::new(2, 0.25).unwrap()).unwrap();
        let trace = shuffle_trace(2);
        let shaped = engine.apply(&trace, &nodes).unwrap();
        // Total time: 2 redo passes of 25% plus the full run.
        let expected = trace.total_time().value() * 1.5;
        assert!((shaped.total_time().value() - expected).abs() < 1e-9);
        assert!(shaped.phases()[0].label.starts_with("redo1/"));
        assert!(shaped
            .phases()
            .iter()
            .any(|p| p.label.starts_with("redo2/")));
        // The redo prefix is real work: replaying costs proportionally more.
        let base = replay(&trace, &nodes).unwrap().energy();
        let shaped_energy = replay(&shaped, &nodes).unwrap().energy();
        assert!(shaped_energy.value() > 1.4 * base.value());
    }

    #[test]
    fn dbms_x_strictly_dominates_pstore_on_shuffle_work() {
        let nodes = vec![cluster_v_node(); 4];
        let trace = shuffle_trace(4);
        let pstore = replay(
            &EngineBehaviour::pstore_like()
                .apply(&trace, &nodes)
                .unwrap(),
            &nodes,
        )
        .unwrap();
        let dbms_x = replay(
            &EngineBehaviour::dbms_x().apply(&trace, &nodes).unwrap(),
            &nodes,
        )
        .unwrap();
        assert!(dbms_x.response_time() > pstore.response_time());
        assert!(dbms_x.energy() > pstore.energy());
        // Staging burns floor power: the staged phases carry nonzero energy
        // at zero CPU busy share.
        let stage = dbms_x.phase("probe/stage").unwrap();
        assert!(stage.energy.value() > 0.0);
        assert_eq!(stage.cpu_time, Seconds::zero());
        assert!(stage.disk_time.value() > 0.0);
    }

    #[test]
    fn invalid_policies_and_mismatched_nodes_are_rejected() {
        assert!(RestartPolicy::new(1, 1.5).is_err());
        assert!(EngineBehaviour::new(
            "bad",
            false,
            RestartPolicy {
                restarts: 1,
                redo_fraction: -0.1,
            }
        )
        .is_err());
        let nodes = vec![cluster_v_node(); 2];
        assert!(EngineBehaviour::dbms_x()
            .apply(&shuffle_trace(4), &nodes)
            .is_err());
    }
}
