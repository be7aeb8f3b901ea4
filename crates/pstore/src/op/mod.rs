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
//! The join's output rule is **match first, write once**, and it runs in
//! four stages, built from the primitives in [`kernel`]:
//!
//! 1. **Build: partitioned radix build.** Build-side keys are hashed once
//!    (`hash_i64`, the same splitmix64 mix used for cluster placement) and
//!    rows are radix-partitioned on the low `radix_bits` hash bits with a
//!    counting sort — one flat index array, no per-key `Vec`s. Workers steal
//!    whole partitions and build private open-addressing
//!    [`kernel::RadixTable`]s over `(key: i64, row: u32)` entries with
//!    intrusive duplicate chains; nothing is shared mutably, so the build
//!    needs no locks.
//! 2. **Probe: morsel stealing.** The probe side is consumed in fixed-size
//!    row ranges (*morsels*) claimed from a shared atomic
//!    [`kernel::MorselCursor`]. Each worker is pre-assigned one first-claim
//!    morsel and then steals until the input is drained, so a slow worker
//!    delays the join by at most one morsel instead of a whole static chunk.
//!    A worker writes no output: it records its matching
//!    `(probe_row, build_row)` pairs as two `u32` index lists, and where each
//!    morsel it retired ends in them.
//! 3. **Order.** The match lists are laid end to end in morsel order —
//!    probe-row order — whichever worker won which morsel.
//! 4. **Materialize: one gather per output column.** Each output column is
//!    gathered from its source column through the ordered index list into an
//!    allocation of exactly its final length; workers steal whole columns.
//!    No output cell is written twice, and never a row-at-a-time `Value`
//!    round-trip.
//!
//! Defaults ([`kernel::DEFAULT_MORSEL_ROWS`] = 16384 rows,
//! [`kernel::DEFAULT_RADIX_BITS`] = 4): a 16K-row morsel of the paper's
//! 20-byte tuples is ~320 KB (cache-resident, one atomic claim per ~16K
//! rows), and 16 partitions keep each partition's table small enough to stay
//! cache-resident at the paper's 10 MB build sizes without making tiny
//! builds pay for partitioning. Both are overridable per join via
//! [`kernel::JoinKernelConfig`]; every configuration and every thread count
//! yields the same output table, bit for bit (rows in probe-row order, one
//! probe row's several matches in the build's chain order).

pub mod exchange;
pub mod hashjoin;
pub mod kernel;

pub use exchange::{broadcast_exchange, shuffle_exchange, ExchangeOutput};
pub use hashjoin::{hash_join_with, HashJoinOutput};
pub use kernel::{default_worker_threads, JoinKernelConfig};
