//! # eedc-dbmsim
//!
//! Behavioural simulators of off-the-shelf DBMSs — the Vertica and DBMS-X
//! studies of Section 3 of the paper — at two levels of fidelity:
//!
//! * [`scaling`] — the **first-order scaling law** of Section 3.1
//!   ([`BehaviouralModel`]): extrapolate a measured
//!   [`QueryProfile`](eedc_tpch::QueryProfile) (node-local / repartition /
//!   broadcast split) across cluster sizes, with absolute time/energy
//!   points from the utilization→power regressions. Drives the Vertica
//!   SF-1000 scale-down study of Figures 1–2.
//! * [`trace`] + [`mod@replay`] + [`engines`] — the **trace-driven behavioural
//!   simulator**: a [`UtilizationTrace`] is a per-node, per-phase time
//!   series of CPU/disk/network busy shares (the simulated analogue of the
//!   paper's iLO2 / WattsUp measurement streams), exported from a
//!   `QueryExecution` — a measured `PStoreCluster` run or an analytical
//!   prediction;
//!   [`replay`](replay::replay) integrates it through the node power models
//!   into time/energy/per-node series; and an [`EngineBehaviour`] reshapes
//!   the trace the way a concrete engine would execute it — in particular
//!   the Section 3.2 **DBMS-X** behaviour of disk-staged intermediates and
//!   mid-query restarts ([`EngineBehaviour::dbms_x`]), versus the pipelined
//!   P-store behaviour ([`EngineBehaviour::pstore_like`]).
//! * [`serving`] — the **discrete-event serving simulator** on the
//!   `eedc-simkit` event kernel: open-loop arrivals under a pluggable
//!   [`ArrivalProcess`] (Poisson, recorded trace, diurnal ramp) with a
//!   Zipf-skewed template mix, concurrency-limited pools (dedicated M/M/c
//!   slots or processor sharing), bounded admission queues with
//!   drop/timeout accounting, and pluggable [`Scheduler`]s (FCFS,
//!   energy-aware Beefy-vs-Wimpy placement, join-shortest-queue,
//!   power-of-two-choices). Per-query costs are closed-form inputs; the
//!   module adds the queueing behaviour — latency percentiles, drops,
//!   saturation — that backs the fifth estimator lens (`Serving`), and is
//!   cross-validated against Erlang-C / M/M/1-PS closed forms in
//!   `tests/queueing_validation.rs`.
//!
//! In `eedc-core` the trace pipeline backs the fourth estimator lens
//! (`Traced`), next to the measured, analytical and behavioural lenses, so
//! engine-behaviour what-ifs run through the same `Workload × Estimator`
//! experiments, design advisor and figures pipeline as everything else.
//!
//! ```
//! use eedc_dbmsim::{replay, BusyShares, EngineBehaviour, UtilizationTrace};
//! use eedc_simkit::catalog::cluster_v_node;
//! use eedc_simkit::units::Seconds;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A hand-built trace: 4 nodes, a short CPU-heavy build phase, then a
//! // long network-bound probe phase (ports saturated, CPUs mostly stalled).
//! let nodes = vec![cluster_v_node(); 4];
//! let mut trace = UtilizationTrace::new("shuffle join");
//! trace.push_phase("build", Seconds(12.0), vec![BusyShares::new(0.9, 0.0, 0.4)?; 4])?;
//! trace.push_phase("probe", Seconds(48.0), vec![BusyShares::new(0.3, 0.0, 1.0)?; 4])?;
//!
//! // Replay through the utilization→power models: the stalled probe phase
//! // still burns most of the energy — the energy-proportionality gap.
//! let result = replay(&trace, &nodes)?;
//! assert_eq!(result.response_time(), Seconds(60.0));
//! assert!(result.phases[1].energy > result.phases[0].energy);
//!
//! // The same trace under the Section 3.2 DBMS-X behaviour (disk staging +
//! // a mid-query restart) costs strictly more time *and* energy.
//! let dbms_x = replay(&EngineBehaviour::dbms_x().apply(&trace, &nodes)?, &nodes)?;
//! assert!(dbms_x.response_time() > result.response_time());
//! assert!(dbms_x.energy() > result.energy());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod engines;
pub mod faults;
pub mod replay;
pub mod scaling;
pub mod serving;
pub mod trace;

pub use engines::{EngineBehaviour, RestartPolicy};
pub use faults::{FaultModel, FaultOutage, RecoveryPolicy, ScalePolicy, TransitionCost};
pub use replay::{replay, ReplayPhase, ReplayResult};
pub use scaling::{BehaviouralModel, BehaviouralPrediction};
pub use serving::{
    simulate_serving, ArrivalProcess, EnergyAwareScheduler, FcfsScheduler, JoinShortestQueue,
    PoolView, PowerOfTwoChoices, RampSegment, RandomScheduler, Scheduler, ServiceDistribution,
    ServiceMode, ServiceProfile, ServingConfig, ServingResult, ServingServer,
};
pub use trace::{utilization_from_busy_share, BusyShares, TracePhase, UtilizationTrace};
