//! # eedc-pstore
//!
//! P-store: the custom parallel query execution kernel of the paper
//! (Section 4.2), re-implemented as a library.
//!
//! P-store exists to isolate the *fundamental* bottlenecks of parallel
//! analytic query processing — network repartitioning, broadcast, and data
//! skew — without the implementation noise of a full DBMS. It is built on the
//! block-iterator columnar storage engine of `eedc-storage` and adds:
//!
//! * physical [`op`]erators: a cache-conscious, morsel-driven parallel hash
//!   join (partitioned radix build, morsel-stealing probe, columnar batch
//!   materialization — see [`op`] for the full pipeline) and the network
//!   [`op::exchange`] operator (shuffle / broadcast) that is the paper's
//!   "workhorse",
//! * [`plan`]s for the three ways the paper executes a two-table join:
//!   dual-shuffle repartitioning, small-table broadcast, and pre-partitioned
//!   (partition-compatible) execution,
//! * a [`cluster`] runtime that executes a plan against real partitioned data
//!   for correctness while *simultaneously* driving the flow-level network
//!   simulator and the node power models, producing the response-time and
//!   energy measurements of Figures 3, 4, 5 and 7 — one query at a time or
//!   a batch of identical queries sharing the interconnect
//!   ([`PStoreCluster::run_batch`], the 1/2/4-query sweeps of Figures 3
//!   and 4),
//! * the single-node [`microbench`] hash join of Section 5.1 / Figure 6.
//!
//! ## Homogeneous versus heterogeneous execution
//!
//! Exactly as in Section 5.2, the cluster runtime picks between two execution
//! modes based on whether the build-side hash table fits in every node's
//! memory (`H` in Table 3): *homogeneous* execution has every node build and
//! probe; *heterogeneous* execution uses memory-poor Wimpy nodes purely as
//! scan-and-filter producers that forward qualifying tuples to the Beefy
//! nodes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod cluster;
pub mod error;
pub mod microbench;
pub mod op;
pub mod plan;
pub mod stats;

pub use cluster::{select_execution_mode, ClusterSpec, PStoreCluster, RunOptions};
pub use error::PStoreError;
pub use microbench::{single_node_hash_join, MicrobenchResult};
pub use op::{default_worker_threads, JoinKernelConfig};
pub use plan::{JoinQuerySpec, JoinSkew, JoinStrategy};
pub use stats::{ExecutionMode, NodeVolumes, PhaseStats, QueryExecution};
