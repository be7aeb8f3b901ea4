//! Query work profiles.
//!
//! The paper's analysis of the off-the-shelf DBMSs (Section 3) boils each
//! TPC-H query down to how its execution time splits between *node-local*
//! work (which speeds up linearly with more nodes) and *network-bound*
//! repartitioning or broadcast work (which does not). A [`QueryProfile`]
//! captures that split — plus the predicate selectivities and the tables
//! involved — and is the input to the behavioural DBMS simulators in
//! `eedc-dbmsim` and to the workload-level advisor in `eedc-core`.
//!
//! The published reference points (all measured on the eight-node Cluster-V
//! configuration):
//!
//! * **Q1** — scan + aggregate over LINEITEM only; no repartitioning at all.
//! * **Q21** — four-table join, but only 5.5% of the execution is spent on
//!   the LINEITEM ⋈ ORDERS repartition.
//! * **Q12** — a two-table LINEITEM ⋈ ORDERS join that spends 48% of its
//!   execution network-bound during repartitioning.
//! * **Q3** — the partition-incompatible LINEITEM ⋈ ORDERS join the P-store
//!   experiments exercise with 5% predicates on both inputs.

use crate::schema::TpchTable;
use std::fmt;

/// The TPC-H queries the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// TPC-H Query 1: pricing summary report (scan + aggregate, no join).
    Q1,
    /// TPC-H Query 3: shipping priority (LINEITEM ⋈ ORDERS ⋈ CUSTOMER).
    Q3,
    /// TPC-H Query 12: shipping modes and order priority (LINEITEM ⋈ ORDERS).
    Q12,
    /// TPC-H Query 21: suppliers who kept orders waiting (4-table join).
    Q21,
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryId::Q1 => write!(f, "Q1"),
            QueryId::Q3 => write!(f, "Q3"),
            QueryId::Q12 => write!(f, "Q12"),
            QueryId::Q21 => write!(f, "Q21"),
        }
    }
}

/// How a query's execution divides between node-local work and network-bound
/// work, together with the workload parameters the paper reports for it.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The query this profile describes.
    pub query: QueryId,
    /// Fraction of the (reference-cluster) execution time spent on node-local
    /// computation. Node-local work speeds up linearly with the cluster size.
    pub local_fraction: f64,
    /// Fraction of the execution time spent network-bound repartitioning
    /// (shuffling) data. This work is limited by per-node port bandwidth and
    /// does not speed up when nodes are added.
    pub repartition_fraction: f64,
    /// Fraction of the execution time spent broadcasting a table to all
    /// nodes. Broadcast time *grows* slightly with the cluster size (every
    /// node must receive almost the whole table).
    pub broadcast_fraction: f64,
    /// Tables read by the query.
    pub tables: Vec<TpchTable>,
    /// Selectivity of the predicate on the probe-side (LINEITEM) input.
    pub probe_selectivity: f64,
    /// Selectivity of the predicate on the build-side (ORDERS) input; 1.0 for
    /// queries without a join.
    pub build_selectivity: f64,
    /// Short description of what the query does.
    pub description: &'static str,
}

impl QueryProfile {
    /// The profile the paper reports for a query (measured at eight nodes on
    /// Cluster-V, Section 3.1).
    pub fn paper(query: QueryId) -> Self {
        match query {
            QueryId::Q1 => QueryProfile {
                query,
                local_fraction: 1.0,
                repartition_fraction: 0.0,
                broadcast_fraction: 0.0,
                tables: vec![TpchTable::Lineitem],
                probe_selectivity: 0.98,
                build_selectivity: 1.0,
                description: "scan + aggregate over LINEITEM; perfectly partitionable",
            },
            QueryId::Q3 => QueryProfile {
                query,
                local_fraction: 0.45,
                repartition_fraction: 0.55,
                broadcast_fraction: 0.0,
                tables: vec![TpchTable::Lineitem, TpchTable::Orders, TpchTable::Customer],
                probe_selectivity: 0.05,
                build_selectivity: 0.05,
                description: "partition-incompatible LINEITEM ⋈ ORDERS with 5% predicates",
            },
            QueryId::Q12 => QueryProfile {
                query,
                local_fraction: 0.52,
                repartition_fraction: 0.48,
                broadcast_fraction: 0.0,
                tables: vec![TpchTable::Lineitem, TpchTable::Orders],
                probe_selectivity: 0.01,
                build_selectivity: 1.0,
                description: "LINEITEM ⋈ ORDERS spending 48% of execution repartitioning",
            },
            QueryId::Q21 => QueryProfile {
                query,
                local_fraction: 0.945,
                repartition_fraction: 0.055,
                broadcast_fraction: 0.0,
                tables: vec![
                    TpchTable::Supplier,
                    TpchTable::Lineitem,
                    TpchTable::Orders,
                    TpchTable::Nation,
                ],
                probe_selectivity: 0.04,
                build_selectivity: 0.5,
                description: "4-table join with only 5.5% of execution spent repartitioning",
            },
        }
    }

    /// A custom profile for what-if studies. Fractions are normalised to sum
    /// to one (zero-total inputs become a fully local profile).
    pub fn custom(query: QueryId, local: f64, repartition: f64, broadcast: f64) -> Self {
        let local = local.max(0.0);
        let repartition = repartition.max(0.0);
        let broadcast = broadcast.max(0.0);
        let total = local + repartition + broadcast;
        let (local_fraction, repartition_fraction, broadcast_fraction) = if total <= f64::EPSILON {
            (1.0, 0.0, 0.0)
        } else {
            (local / total, repartition / total, broadcast / total)
        };
        let mut profile = QueryProfile::paper(query);
        profile.local_fraction = local_fraction;
        profile.repartition_fraction = repartition_fraction;
        profile.broadcast_fraction = broadcast_fraction;
        profile.description = "custom profile";
        profile
    }

    /// Fraction of the execution that is bound by the network in any form.
    pub fn network_fraction(&self) -> f64 {
        self.repartition_fraction + self.broadcast_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        for query in [QueryId::Q1, QueryId::Q3, QueryId::Q12, QueryId::Q21] {
            let profile = QueryProfile::paper(query);
            let total =
                profile.local_fraction + profile.repartition_fraction + profile.broadcast_fraction;
            assert!((total - 1.0).abs() < 1e-9, "{:?}", profile.query);
        }
    }

    #[test]
    fn paper_reference_points_are_encoded() {
        let q12 = QueryProfile::paper(QueryId::Q12);
        assert!((q12.repartition_fraction - 0.48).abs() < 1e-9);
        let q21 = QueryProfile::paper(QueryId::Q21);
        assert!((q21.repartition_fraction - 0.055).abs() < 1e-9);
        let q1 = QueryProfile::paper(QueryId::Q1);
        assert_eq!(q1.repartition_fraction, 0.0);
    }

    #[test]
    fn scalability_classification_matches_the_paper() {
        // Q1 and Q21 scale nearly linearly — effectively all of their work
        // is node-local (Figures 2(a), 2(b), 12(a)); Q12 and Q3 are
        // network-bound.
        let network = |query| QueryProfile::paper(query).network_fraction();
        assert!(network(QueryId::Q1) < 0.10);
        assert!(network(QueryId::Q21) < 0.10);
        assert!(network(QueryId::Q12) >= 0.10);
        assert!(network(QueryId::Q3) >= 0.10);
    }

    #[test]
    fn custom_profiles_are_normalised() {
        let p = QueryProfile::custom(QueryId::Q12, 2.0, 1.0, 1.0);
        assert!((p.local_fraction - 0.5).abs() < 1e-12);
        assert!((p.network_fraction() - 0.5).abs() < 1e-12);
        let degenerate = QueryProfile::custom(QueryId::Q1, 0.0, 0.0, 0.0);
        assert_eq!(degenerate.local_fraction, 1.0);
        let negative = QueryProfile::custom(QueryId::Q1, -5.0, 1.0, 0.0);
        assert_eq!(negative.local_fraction, 0.0);
        assert_eq!(negative.repartition_fraction, 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(QueryId::Q12.to_string(), "Q12");
        assert_eq!(QueryId::Q21.to_string(), "Q21");
    }

    #[test]
    fn q3_uses_the_pstore_selectivities() {
        let q3 = QueryProfile::paper(QueryId::Q3);
        assert!((q3.probe_selectivity - 0.05).abs() < 1e-12);
        assert!((q3.build_selectivity - 0.05).abs() < 1e-12);
        assert!(q3.tables.contains(&TpchTable::Lineitem));
        assert!(q3.tables.contains(&TpchTable::Orders));
    }
}
