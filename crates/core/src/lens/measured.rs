//! The measured lens: real P-store cluster runs.

use super::{record_from_execution, Estimator};
use crate::error::CoreError;
use crate::record::RunRecord;
use crate::workload::WorkloadPlan;
use eedc_pstore::{ClusterSpec, PStoreCluster, RunOptions};
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
/// Loaded clusters are cached per estimator instance, keyed on the
/// `(design, options)` pair: generating and partitioning the engine-scale
/// tables dominates the cost of an estimate, and a multi-plan sweep (a
/// [`crate::ConcurrencySweep`] is `levels` plans over the same designs)
/// used to regenerate identical clusters once per plan. Plans that patch
/// the effective options (a [`crate::SkewedJoin`]'s skew lands in
/// `options.skew`) key separate entries, so a cache hit is always an
/// identical cluster.
#[derive(Debug, Clone)]
pub struct Measured {
    options: RunOptions,
    cache: RefCell<Vec<CachedCluster>>,
}

/// One cached engine-scale cluster: the effective options and node specs
/// that keyed its load, plus the shared cluster itself.
type CachedCluster = (RunOptions, Vec<NodeSpec>, Rc<PStoreCluster>);

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

    /// The cluster for `(design, options)`, loading and caching it on first
    /// use.
    fn cluster(
        &self,
        design: &ClusterSpec,
        options: RunOptions,
    ) -> Result<Rc<PStoreCluster>, CoreError> {
        if let Some((_, _, cluster)) =
            self.cache
                .borrow()
                .iter()
                .find(|(cached_options, nodes, _)| {
                    *cached_options == options && nodes.as_slice() == design.nodes()
                })
        {
            return Ok(Rc::clone(cluster));
        }
        let cluster = Rc::new(PStoreCluster::load(design.clone(), options)?);
        self.cache
            .borrow_mut()
            .push((options, design.nodes().to_vec(), Rc::clone(&cluster)));
        Ok(cluster)
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
        let cluster = self.cluster(design, options)?;
        let execution = cluster.run_batch(&plan.query, plan.strategy, plan.sweep.concurrency)?;
        let reference = cluster.reference_join_rows(&plan.query)?;
        if execution.output_rows != Some(reference) {
            return Err(CoreError::invalid(format!(
                "{}: distributed join counted {:?} rows but the scalar reference produced {reference}",
                execution.cluster_label, execution.output_rows,
            )));
        }
        Ok(record_from_execution(plan, self.name(), &execution))
    }
}
