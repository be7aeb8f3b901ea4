//! # eedc-storage
//!
//! A small in-memory columnar storage engine: the substrate underneath the
//! P-store parallel execution kernel.
//!
//! The paper describes P-store as being "built on top of a block-iterator
//! tuple-scan module and a storage engine … that has scan, project, and
//! select operators" (Section 4.2), with the experiment data stored as
//! four-column, 20-byte projected tuples in memory to simulate a columnar
//! storage manager. This crate reproduces that substrate:
//!
//! * typed integer [`column::Column`]s (`Int64`, `Int32`) and
//!   schema-carrying [`table::Table`]s,
//! * the paper's two selection [`predicate`]s, `O_CUSTKEY ≤ c` on ORDERS
//!   and `L_SHIPDATE < d` on LINEITEM,
//! * [`partition`]ing: hash (and round-robin) partitioning of tables across
//!   cluster nodes, exactly like Vertica's hash segmentation in Section 3.1,
//! * a [`scan()`] operator that selects block-at-a-time over fixed-size row
//!   ranges, gathers the projected columns, and reports the
//!   scanned/qualifying volumes that the energy model needs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod column;
pub mod error;
pub mod partition;
pub mod predicate;
pub mod scan;
pub mod table;

pub use column::{Column, ColumnType};
pub use error::StorageError;
pub use partition::{hash_i64, hash_partition, hash_scatter, round_robin_partition, Partitioned};
pub use predicate::Predicate;
pub use scan::{scan, ScanResult};
pub use table::{Schema, Table};
