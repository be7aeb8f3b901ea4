//! # eedc
//!
//! Umbrella crate for the energy-efficient database cluster toolkit: one
//! dependency that re-exports every layer of the workspace, and the home of
//! the runnable examples (see `examples/` at the workspace root).
//!
//! ## The experiment API
//!
//! The toolkit's front door is the [`Experiment`] builder: describe a
//! [`Workload`] once, pick the cluster designs to compare, and evaluate it
//! under any combination of [`Estimator`] lenses —
//!
//! * [`Measured`] — real P-store cluster runs (engine-scale correctness,
//!   nominal-scale time/energy; Section 5 of the paper),
//! * [`Analytical`] — the closed-form Section 5.4 design model,
//! * [`Behavioural`] — the first-order Section 3.1 scaling law,
//! * [`Traced`] — per-node utilization traces replayed through the power
//!   models under an engine behaviour: the pipelined P-store engine or the
//!   disk-staging, mid-query-restarting DBMS-X engine of Section 3.2,
//! * [`Serving`] — an open-loop query stream (wrap the workload in a
//!   [`ServingWorkload`]; Poisson or recorded-trace arrivals via
//!   [`ArrivalProcess`]) through the discrete-event serving simulator:
//!   admission queueing, concurrency-limited or processor-sharing pools,
//!   FCFS / energy-aware / join-shortest-queue / power-of-two-choices
//!   placement, latency percentiles and energy-per-query.
//!
//! Every lens yields the same [`RunRecord`] shape (response time, energy,
//! EDP, per-node utilization/energy, normalized-vs-reference point), and
//! reports serialize to JSON for the figures pipeline.
//!
//! ```
//! use eedc::{Analytical, Experiment, SweepJoin};
//! use eedc::pstore::{ClusterSpec, JoinQuerySpec};
//! use eedc::simkit::catalog::cluster_v_node;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Q3-style sweep join (5% predicates on both inputs) over a
//! // homogeneous scale-down, predicted in closed form.
//! let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
//! let report = Experiment::new(&workload)
//!     .designs([
//!         ClusterSpec::homogeneous(cluster_v_node(), 16)?,
//!         ClusterSpec::homogeneous(cluster_v_node(), 8)?,
//!     ])
//!     .estimator(Analytical)
//!     .run()?;
//!
//! let series = &report.series[0];
//! assert_eq!(series.records[0].design, "16B,0W");
//! // Half the cluster is slower but does not halve the energy — the
//! // energy-proportionality gap the paper is about.
//! let point = series.record("8B,0W").unwrap().normalized.unwrap();
//! assert!(point.performance < 1.0);
//! assert!(point.energy > point.performance);
//! # Ok(())
//! # }
//! ```
//!
//! ## Layer map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`simkit`] | `eedc-simkit` | units, power models, hardware catalog, metrics, discrete-event sim kernel |
//! | [`netsim`] | `eedc-netsim` | flow-level interconnect simulator |
//! | [`storage`] | `eedc-storage` | columnar tables, partitioning, scans |
//! | [`tpch`] | `eedc-tpch` | deterministic generators, scale arithmetic, profiles, Zipf skew |
//! | [`pstore`] | `eedc-pstore` | operators, cluster runtime (single and concurrent batches), the shared phase-closing rule, microbench |
//! | [`dbmsim`] | `eedc-dbmsim` | behavioural DBMS simulators: scaling law, utilization-trace replay, engine behaviours, serving layer |
//! | [`model`] | `eedc-core` | experiment API, Section 5.4 analytical model, Section 6 advisor, JSON writer/reader |
//!
//! A crate-by-crate tour with the full data-flow diagram lives in
//! `docs/ARCHITECTURE.md` at the repository root.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use eedc_core as model;
pub use eedc_dbmsim as dbmsim;
pub use eedc_netsim as netsim;
pub use eedc_pstore as pstore;
pub use eedc_simkit as simkit;
pub use eedc_storage as storage;
pub use eedc_tpch as tpch;

// The experiment API is the facade's front door: re-export it at the top
// level so examples and downstream code write `eedc::Experiment`.
pub use eedc_core::{
    Analytical, ArrivalProcess, Behavioural, ConcurrencySweep, DesignAdvisor, DesignSpace,
    Estimator, Experiment, ExperimentReport, FaultModel, FaultStats, Measured, ProfiledQuery,
    RecoveryPolicy, RunRecord, RunSeries, ScalePolicy, Serving, ServingStats, ServingWorkload,
    SkewedJoin, SweepJoin, Traced, TransitionCost, Workload, WorkloadPlan,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_layers_are_reachable_through_the_umbrella() {
        // One end-to-end smoke: run a tiny measured experiment through the
        // re-exported facade paths.
        let workload = SweepJoin::section_5_4(crate::pstore::JoinQuerySpec::q3_dual_shuffle());
        let spec =
            crate::pstore::ClusterSpec::homogeneous(crate::simkit::catalog::cluster_v_node(), 2)
                .unwrap();
        let options = crate::pstore::RunOptions {
            engine_scale: crate::tpch::ScaleFactor(0.001),
            ..Default::default()
        };
        let report = Experiment::new(&workload)
            .design(spec)
            .estimator(Measured::new(options))
            .run()
            .unwrap();
        let record = &report.series[0].records[0];
        assert!(record.output_rows.unwrap() > 0);
        assert!(record.edp() > 0.0);
        assert_eq!(record.estimator, "measured");
    }

    #[test]
    fn advisor_is_reachable_through_the_umbrella() {
        // Second smoke: the analytical layer, end to end — enumerate a small
        // design grid and recommend a design for a performance floor.
        let workload = SweepJoin::section_5_4(crate::pstore::JoinQuerySpec::q3_dual_shuffle());
        let advisor = DesignAdvisor::new(Analytical, &workload);
        let space = DesignSpace::new(
            crate::simkit::catalog::cluster_v_node(),
            crate::simkit::catalog::laptop_b(),
            4,
            4,
        )
        .unwrap();
        let pick = advisor.recommend(&space, 0.5).unwrap().unwrap();
        assert!(pick.point.performance >= 0.5);
    }
}
