//! Physical operators.
//!
//! P-store's operator set is deliberately small (Section 4.2): scans,
//! selections and projections come from the storage engine; this module adds
//! the two operators the paper built on top of it — the morsel-driven
//! [`hashjoin`] and the network [`exchange`] operator (shuffle, broadcast)
//! whose behaviour under load is the subject of the whole study. P-store is a
//! join engine: scan-aggregate queries such as TPC-H Q1 are priced from their
//! profiles (`eedc_tpch::QueryProfile`), never executed.
//!
//! # The morsel-driven execution kernel
//!
//! Every caller of the join reads its cardinality and nothing else, so the
//! join's product *is* its cardinality. It runs in two stages, built from
//! the primitives in [`kernel`]:
//!
//! 1. **Build: partitioned radix build.** Build-side keys are hashed once
//!    (`hash_i64`, the same splitmix64 mix used for cluster placement) and
//!    radix-partitioned on the low `radix_bits` hash bits with a counting
//!    sort — one flat array, no per-key `Vec`s. Workers steal whole
//!    partitions and build private open-addressing [`kernel::RadixTable`]s
//!    mapping each distinct key to its multiplicity; nothing is shared
//!    mutably, so the build needs no locks.
//! 2. **Count: morsel stealing.** The probe side is consumed in fixed-size
//!    row ranges (*morsels*) claimed from a shared atomic
//!    [`kernel::MorselCursor`]. Each worker is pre-assigned one first-claim
//!    morsel and then steals until the input is drained, so a slow worker
//!    delays the join by at most one morsel instead of a whole static chunk.
//!    A worker adds up the multiplicity of each probe row's key; nothing is
//!    written per match.
//!
//! Defaults ([`kernel::JoinKernelConfig`]'s `Default`: 16384-row morsels,
//! 4 radix bits): a 16K-row morsel of the paper's 20-byte tuples is ~320 KB
//! (cache-resident, one atomic claim per ~16K rows), and 16 partitions keep
//! each partition's table small enough to stay cache-resident at the
//! paper's 10 MB build sizes without making tiny builds pay for
//! partitioning. Both are overridable per join through the same config;
//! every configuration and every thread count
//! yields the same `output_rows`, since it is a sum of per-row counts.

pub mod exchange;
pub mod hashjoin;
pub mod kernel;

pub use exchange::{broadcast_exchange, shuffle_exchange, ExchangeOutput};
pub use hashjoin::{hash_join_with, HashJoinOutput};
pub use kernel::{default_worker_threads, JoinKernelConfig};
