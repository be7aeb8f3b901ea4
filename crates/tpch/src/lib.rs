//! # eedc-tpch
//!
//! TPC-H–shaped workload substrate: a deterministic data generator, scale
//! factor arithmetic, the query work profiles the paper reports, and skewed
//! key generators for the data-skew extension study.
//!
//! The paper runs its experiments against TPC-H at scale factors 1000 (the
//! Vertica / Cluster-V study), 400 (the heterogeneous prototype study) and a
//! modeled 700 GB ORDERS ⋈ 2.8 TB LINEITEM join (the Section 5.4 sweeps).
//! Reproducing those experiments does not require terabytes of bytes on disk:
//!
//! * the *engine-level* experiments (the P-store joins) need relationally
//!   correct data — join keys that match with the right cardinalities and
//!   predicates with controllable selectivity — which the [`gen`] module
//!   produces deterministically at laptop-scale scale factors;
//! * the *model-level* experiments only need table and working-set **sizes**,
//!   which [`scale`] computes for any scale factor using the published TPC-H
//!   cardinalities and the paper's 20-byte projected tuple layout.
//!
//! The [`queries`] module captures the per-query execution profiles that the
//! paper measured on Vertica (how much of the query is node-local work versus
//! network repartitioning), which drive the behavioural DBMS simulators in
//! `eedc-dbmsim`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy, library code only; the rest of the static policy is the
// root `clippy.toml` and `[workspace.lints]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod gen;
pub mod queries;
pub mod scale;
pub mod schema;
pub mod skew;

pub use gen::{LineitemGenerator, LineitemRow, OrdersGenerator, OrdersRow};
pub use queries::{QueryId, QueryProfile};
pub use scale::ScaleFactor;
pub use schema::{projected_tuple_bytes, TpchTable};
pub use skew::ZipfKeys;
