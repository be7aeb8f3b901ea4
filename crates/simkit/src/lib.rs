//! # eedc-simkit
//!
//! Simulation substrate for the energy-efficient database cluster design toolkit.
//!
//! This crate provides the building blocks that every higher layer of the
//! workspace relies on:
//!
//! * strongly-typed physical [`units`] (seconds, joules, watts, megabytes),
//! * node [`power`] models (the CPU-utilization → wall-power regression models
//!   published in the paper, coefficients as printed),
//! * per-node hardware descriptions ([`node::NodeSpec`]) and a [`catalog`] of the
//!   exact machines used in the paper (the Cluster-V server, the Wimpy
//!   "Laptop B", Laptop A, the Atom desktop, and the two workstations),
//! * the energy-efficiency [`metrics`] used throughout the paper: response time,
//!   performance (1 / response time), energy, the Energy-Delay-Product (EDP) and
//!   normalized energy-vs-performance points relative to a reference
//!   configuration,
//! * a discrete-event [`sim`] kernel (queryable clock, integer-keyed
//!   binary-heap event queue with stable FIFO tie-breaking, deterministic
//!   seeded RNG) that the serving simulator in `eedc-dbmsim` builds on,
//! * the workspace's one random-number generator, [`rng::SplitMix64`], behind
//!   every seeded stream: the kernel's draws and the `eedc-tpch` generators.
//!
//! The substrate is deliberately free of any database logic; the storage engine,
//! the P-store execution kernel, the behavioural DBMS simulators and the
//! analytical model are all built on top of it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod catalog;
pub mod error;
pub mod metrics;
pub mod node;
pub mod power;
pub mod rng;
pub mod sim;
pub mod units;

pub use error::SimError;
pub use metrics::{Measurement, NormalizedPoint};
pub use node::{NodeClass, NodeSpec};
pub use power::PowerModel;
pub use sim::{EventHandler, Simulation};
pub use units::{Joules, Megabytes, MegabytesPerSec, Seconds, Watts};
