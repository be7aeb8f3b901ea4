//! # eedc-netsim
//!
//! Flow-level network simulator for shared-nothing database clusters.
//!
//! The paper identifies the cluster interconnect as the dominant hardware
//! bottleneck behind sub-linear speedup ("the repartitioning step is often
//! gated by the speed of the network interconnect", Section 4.1). This crate
//! simulates the one effect the paper's Section 5.4 model parameterises:
//! **per-NIC capacity limits**. Every node has one full-duplex port of finite
//! bandwidth (1 Gb/s ≈ 100 MB/s in the paper's clusters), so a node that must
//! ingest data from the entire cluster (the Beefy nodes of a heterogeneous
//! plan, or every node of a broadcast join) is limited by its inbound port no
//! matter how many senders there are. The switch itself is non-blocking: the
//! interference the paper mentions in passing (Section 4.1) has no parameter
//! in its model and none here.
//!
//! The simulator is *flow-level*: it never models individual packets. A
//! [`flow::Flow`] is a (source, destination, bytes) triple; the
//! [`fairshare`] module allocates max–min fair rates to all concurrently
//! active flows subject to the port capacities of a
//! [`fabric::Fabric`]; and the [`transfer::TransferSimulator`] advances time
//! from flow completion to flow completion, producing per-flow finish times
//! and per-node busy intervals that the execution layers convert into CPU
//! stall time (and therefore energy).
//!
//! The [`transfer`] module also contains constructors for the two transfer
//! patterns that the paper's joins need: hash-repartition *shuffles* and
//! small-table *broadcasts*, both in homogeneous (all nodes build hash
//! tables) and heterogeneous (only Beefy nodes build) variants.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod error;
pub mod fabric;
pub mod fairshare;
pub mod flow;
pub mod transfer;

pub use error::NetError;
pub use fabric::{Fabric, NodeId};
pub use fairshare::{FairShareAllocation, FlowRate};
pub use flow::{Flow, FlowId, FlowSet};
pub use transfer::{broadcast_flows, shuffle_flows, TransferOutcome, TransferSimulator};
