//! # eedc-core
//!
//! The experiment API unifying the paper's five evaluation lenses, plus the
//! analytical cluster design model of Section 5.4 and the design-space
//! advisor of Section 6.
//!
//! * [`workload`] — the [`Workload`] trait and its implementations
//!   ([`SweepJoin`], [`ConcurrencySweep`], Zipf-skewed [`SkewedJoin`],
//!   profile-driven [`ProfiledQuery`], and the open-loop
//!   [`ServingWorkload`] wrapper): *what* is evaluated.
//! * [`lens`] — the [`Estimator`] trait and its five lenses, one file each
//!   ([`Measured`] P-store runs, [`Analytical`] closed-form predictions,
//!   [`Behavioural`] first-order scaling, [`Traced`] utilization-trace
//!   replay under engine behaviours, [`Serving`] discrete-event query
//!   streams with latency percentiles and energy-per-query): *how* it is
//!   evaluated.
//! * [`record`] — the uniform [`RunRecord`] every lens yields (with its
//!   [`PhaseRecord`], [`ServingStats`] and [`FaultStats`] parts) and their
//!   JSON codec.
//! * [`experiment`] — the builder-style [`Experiment`] runner, the
//!   [`RunSeries`] it produces per (estimator × plan), and the
//!   [`ExperimentReport`] that round-trips through JSON.
//! * [`model`] — closed-form per-phase response-time and energy predictions
//!   for any `(b Beefy, w Wimpy)` cluster design running the sweep join
//!   (700 GB ORDERS ⋈ 2.8 TB LINEITEM in the paper's sweeps): scan rates,
//!   per-node port bandwidth, broadcast versus shuffle volumes, and the
//!   homogeneous/heterogeneous mode selection shared with the P-store
//!   runtime via [`eedc_pstore::select_execution_mode`].
//! * [`advisor`] — enumerates the design grid under *any* estimator and
//!   returns the [`RunSeries`] the runner would; the selection rules
//!   (cheapest design meeting a performance, p99 or availability floor) are
//!   methods on that series.
//! * [`json`] — the hand-rolled JSON writer **and reader** that land
//!   [`RunRecord`] series on disk for the figures pipeline and read them
//!   back for baseline comparisons.
//! * [`params`] — the published working-set sizes of the Section 5.4 sweeps.
//!
//! The measured and analytical lenses are validated against each other in
//! `tests/model_validation.rs`: homogeneous scale-downs and heterogeneous
//! designs must agree within 15% through the experiment API, and the
//! advisor's pick must match across the two series.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod advisor;
pub mod error;
pub mod experiment;
pub mod json;
pub mod lens;
pub mod model;
pub mod record;
pub mod workload;

pub use advisor::{DesignAdvisor, DesignSpace, DesignSpaceReport, Recommendation};
pub use error::CoreError;
pub use experiment::{Experiment, ExperimentReport, RunSeries};
pub use json::JsonValue;
pub use lens::{Analytical, Behavioural, Estimator, Measured, Serving, Traced};
pub use model::{AnalyticalModel, SweepJoin};
pub use record::{FaultStats, PhaseRecord, RunRecord, ServingStats};
pub use workload::{
    ConcurrencySweep, ProfiledQuery, ServingParams, ServingWorkload, SkewedJoin, Workload,
    WorkloadPlan,
};
// The serving arrival law and the fault/lifecycle model ride inside
// `ServingParams`; re-export them so callers can build trace and churn
// workloads without naming `eedc_dbmsim`.
pub use eedc_dbmsim::{ArrivalProcess, FaultModel, RecoveryPolicy, ScalePolicy, TransitionCost};

pub mod params {
    //! Published parameters of the Section 5.4 model sweeps.
    //!
    //! The sweeps model a 700 GB ORDERS ⋈ 2.8 TB LINEITEM join; these
    //! working-set sizes are quoted directly by the paper rather than derived
    //! from a TPC-H scale factor, which is why they live here instead of in
    //! `eedc_tpch::scale`.

    use eedc_simkit::units::Megabytes;

    /// Working set of the ORDERS input to the Section 5.4 model sweeps
    /// (700 GB).
    pub const SWEEP_ORDERS_WORKING_SET: Megabytes = Megabytes(700_000.0);

    /// Working set of the LINEITEM input to the Section 5.4 model sweeps
    /// (2.8 TB).
    pub const SWEEP_LINEITEM_WORKING_SET: Megabytes = Megabytes(2_800_000.0);
}

#[cfg(test)]
mod tests {
    use super::params::*;

    #[test]
    fn sweep_working_sets_match_section_5_4() {
        assert_eq!(SWEEP_ORDERS_WORKING_SET.as_gigabytes(), 700.0);
        assert_eq!(SWEEP_LINEITEM_WORKING_SET.as_gigabytes(), 2800.0);
        // LINEITEM is exactly 4x ORDERS, mirroring the TPC-H fan-out.
        assert_eq!(
            SWEEP_LINEITEM_WORKING_SET.value() / SWEEP_ORDERS_WORKING_SET.value(),
            4.0
        );
    }
}
