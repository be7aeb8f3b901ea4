//! The measured lens: real P-store cluster runs.

use super::{record_from_execution, Estimator};
use crate::error::CoreError;
use crate::record::RunRecord;
use crate::workload::WorkloadPlan;
use eedc_pstore::stats::QueryExecution;
use eedc_pstore::{ClusterSpec, JoinQuerySpec, PStoreCluster, RunOptions};
use eedc_simkit::NodeSpec;
use std::cell::RefCell;
use std::rc::Rc;

/// The measured lens: load a [`PStoreCluster`] for the design and actually
/// execute the plan — engine-scale relational correctness, nominal-scale
/// time and energy, exactly the Section 5 methodology. Every estimate
/// checks the distributed join's output cardinality against the scalar
/// reference join and fails loudly on a mismatch, so a measured
/// [`RunRecord`] is always an engine-verified point.
///
/// Two things are kept per estimator instance, and one thing never is:
///
/// * **Loaded clusters are cached**, keyed on the `(design, options)` pair.
///   A multi-plan sweep (a [`crate::ConcurrencySweep`] is `levels` plans
///   over the same designs) would otherwise regenerate and repartition
///   identical engine-scale tables once per plan. Plans that patch the
///   effective options (a [`crate::SkewedJoin`]'s skew lands in
///   `options.skew`) key separate entries, so a cache hit is always an
///   identical cluster.
/// * **Reference cardinalities are memoised** beside the cluster they were
///   computed on, keyed on the plan's [`JoinQuerySpec`]: the scalar
///   reference join (two full-table scans and a hash join) runs once per
///   `(cluster, query)`, not once per estimate. A memo hit is the same
///   tables under the same predicates, so it is the same number; nothing is
///   shared across designs.
/// * **The comparison is never skipped.** Every estimate executes the
///   distributed join for real and compares its `output_rows` with the
///   reference, on a memo hit exactly as on a miss.
#[derive(Debug, Clone)]
pub struct Measured {
    options: RunOptions,
    cache: RefCell<Vec<Rc<CachedCluster>>>,
}

/// One cached engine-scale cluster: the effective options and node specs
/// that keyed its load, the cluster itself, and the reference cardinality of
/// every query verified on it so far.
#[derive(Debug)]
struct CachedCluster {
    options: RunOptions,
    nodes: Vec<NodeSpec>,
    cluster: PStoreCluster,
    references: RefCell<Vec<(JoinQuerySpec, usize)>>,
}

impl CachedCluster {
    /// Fail unless `execution` produced exactly the scalar reference join's
    /// cardinality for `query` — the one comparison every estimate goes
    /// through. The reference join itself runs only the first time this
    /// cluster sees `query`.
    fn verify(&self, query: &JoinQuerySpec, execution: &QueryExecution) -> Result<(), CoreError> {
        let memoised = self
            .references
            .borrow()
            .iter()
            .find(|(seen, _)| seen == query)
            .map(|&(_, rows)| rows);
        let reference = match memoised {
            Some(rows) => rows,
            None => {
                let rows = self.cluster.reference_join_rows(query)?;
                self.references.borrow_mut().push((*query, rows));
                rows
            }
        };
        if execution.output_rows != Some(reference) {
            return Err(CoreError::invalid(format!(
                "{}: distributed join counted {:?} rows but the scalar reference produced {reference}",
                execution.cluster_label, execution.output_rows,
            )));
        }
        Ok(())
    }
}

impl Measured {
    /// A measured estimator loading clusters with the given options. The
    /// *plan* is the single source of truth for join-key skew: its `skew`
    /// field (including `None`) replaces whatever the options carry, so the
    /// measured and analytical lenses always evaluate the same workload.
    pub fn new(options: RunOptions) -> Self {
        Self {
            options,
            cache: RefCell::new(Vec::new()),
        }
    }

    /// Number of distinct `(design, options)` clusters currently cached.
    pub fn cached_clusters(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Number of reference cardinalities memoised across the cached
    /// clusters — which is also how many times the scalar reference join
    /// has run.
    pub fn cached_references(&self) -> usize {
        let cache = self.cache.borrow();
        cache.iter().map(|c| c.references.borrow().len()).sum()
    }

    /// The cluster for `(design, options)`, loading and caching it on first
    /// use.
    fn cluster(
        &self,
        design: &ClusterSpec,
        options: RunOptions,
    ) -> Result<Rc<CachedCluster>, CoreError> {
        if let Some(cached) = self
            .cache
            .borrow()
            .iter()
            .find(|c| c.options == options && c.nodes.as_slice() == design.nodes())
        {
            return Ok(Rc::clone(cached));
        }
        let cached = Rc::new(CachedCluster {
            options,
            nodes: design.nodes().to_vec(),
            cluster: PStoreCluster::load(design.clone(), options)?,
            references: RefCell::new(Vec::new()),
        });
        self.cache.borrow_mut().push(Rc::clone(&cached));
        Ok(cached)
    }
}

/// Two measured estimators are equal when they load clusters the same way;
/// the cache is a transparent performance detail.
impl PartialEq for Measured {
    fn eq(&self, other: &Self) -> bool {
        self.options == other.options
    }
}

impl Default for Measured {
    fn default() -> Self {
        Self::new(RunOptions::default())
    }
}

impl Estimator for Measured {
    fn name(&self) -> String {
        "measured".into()
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let mut options = self.options;
        options.skew = plan.skew;
        let cached = self.cluster(design, options)?;
        let execution =
            cached
                .cluster
                .run_batch(&plan.query, plan.strategy, plan.sweep.concurrency)?;
        cached.verify(&plan.query, &execution)?;
        Ok(record_from_execution(plan, self.name(), &execution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SweepJoin;
    use eedc_pstore::JoinStrategy;
    use eedc_simkit::catalog::cluster_v_node;

    fn options() -> RunOptions {
        RunOptions {
            engine_scale: eedc_tpch::ScaleFactor(0.001),
            ..RunOptions::default()
        }
    }

    fn plan(query: JoinQuerySpec, strategy: JoinStrategy) -> WorkloadPlan {
        WorkloadPlan::sweep_join(SweepJoin::section_5_4(query), strategy)
    }

    #[test]
    fn reference_join_runs_once_per_cluster_and_query() {
        let measured = Measured::new(options());
        let design = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
        let q3 = JoinQuerySpec::q3_dual_shuffle();
        assert_eq!(measured.cached_references(), 0);
        // Two plans, one query, one design: one reference join.
        let shuffled = measured
            .estimate(&plan(q3, JoinStrategy::DualShuffle), &design)
            .unwrap();
        let broadcast = measured
            .estimate(&plan(q3, JoinStrategy::Broadcast), &design)
            .unwrap();
        assert_eq!(measured.cached_references(), 1);
        assert_eq!(shuffled.output_rows, broadcast.output_rows);
        // A different query on the same cluster is a second reference join.
        let narrower = JoinQuerySpec::q3_broadcast();
        let narrow = measured
            .estimate(&plan(narrower, JoinStrategy::Broadcast), &design)
            .unwrap();
        assert_eq!(
            (measured.cached_clusters(), measured.cached_references()),
            (1, 2)
        );
        assert!(narrow.output_rows < shuffled.output_rows);
        // The memo is per cached cluster: the same query on another design
        // runs its own reference join.
        let smaller = ClusterSpec::homogeneous(cluster_v_node(), 2).unwrap();
        measured
            .estimate(&plan(q3, JoinStrategy::DualShuffle), &smaller)
            .unwrap();
        assert_eq!(
            (measured.cached_clusters(), measured.cached_references()),
            (2, 3)
        );
    }

    #[test]
    fn a_cardinality_mismatch_is_an_error_on_memo_miss_and_hit_alike() {
        let measured = Measured::new(options());
        let design = ClusterSpec::homogeneous(cluster_v_node(), 2).unwrap();
        let cached = measured.cluster(&design, options()).unwrap();
        let query = JoinQuerySpec::q3_dual_shuffle();
        let honest = cached
            .cluster
            .run(&query, JoinStrategy::DualShuffle)
            .unwrap();
        let rows = honest.output_rows.unwrap();
        let doctored = |output_rows| QueryExecution {
            output_rows,
            ..honest.clone()
        };
        let is_invalid = |execution: &QueryExecution| {
            matches!(cached.verify(&query, execution), Err(CoreError::Invalid(_)))
        };

        // Miss: the reference join runs, and a row too many is refused.
        assert_eq!(measured.cached_references(), 0);
        assert!(is_invalid(&doctored(Some(rows + 1))));
        assert_eq!(measured.cached_references(), 1);
        // Hit: the same doctored execution, and one with no count at all,
        // are refused from the memo; the honest one passes.
        assert!(is_invalid(&doctored(Some(rows + 1))));
        assert!(is_invalid(&doctored(None)));
        cached.verify(&query, &honest).unwrap();
        assert_eq!(measured.cached_references(), 1);
    }
}
