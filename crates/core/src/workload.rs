//! The workload side of the experiment API: *what* is being evaluated,
//! independent of *how* it is evaluated.
//!
//! A [`Workload`] describes one or more join configurations as
//! [`WorkloadPlan`]s — a uniform descriptor every [`crate::Estimator`] knows
//! how to read. The same plan can be executed by the measured P-store
//! runtime, predicted by the Section 5.4 closed-form model, or extrapolated
//! by the Section 3 behavioural scaling law, which is exactly the
//! three-lens comparison the paper's figures are built on.
//!
//! Implementations:
//!
//! * [`SweepJoin`] — the paper's two-table sweep join (one plan),
//! * [`ConcurrencySweep`] — the 1/2/4 concurrent-query sweeps of
//!   Figures 3–4 (one plan per level),
//! * [`SkewedJoin`] — the sweep join with a Zipf-skewed join key, built on
//!   [`eedc_tpch::ZipfKeys`] (Section 4.1's deferred third bottleneck),
//! * [`ProfiledQuery`] — a measured [`QueryProfile`], driving the Vertica
//!   SF-1000 scale-down studies of Figures 1–2.

use crate::model::SweepJoin;
use eedc_dbmsim::{ArrivalProcess, FaultModel, RampSegment, ServingConfig};
use eedc_pstore::{JoinQuerySpec, JoinSkew, JoinStrategy, RunOptions};
use eedc_simkit::units::Seconds;
use eedc_tpch::{QueryId, QueryProfile, ScaleFactor, TpchTable};

/// The uniform workload descriptor every estimator consumes.
///
/// Each estimator reads the part it understands: the measured runtime
/// executes `query` under `strategy` (with `skew` wired into the cluster
/// options), the analytical model predicts from the `sweep` volumes, and the
/// behavioural law extrapolates `profile` (deriving one from the analytical
/// model at the reference configuration when the workload does not carry a
/// measured profile).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// Human-readable label, used in reports and JSON output.
    pub label: String,
    /// The closed-form join description: byte volumes, selectivities,
    /// hash-table sizing, and concurrency.
    pub sweep: SweepJoin,
    /// The predicate selectivities the measured runtime executes.
    pub query: JoinQuerySpec,
    /// How the join moves data.
    pub strategy: JoinStrategy,
    /// Optional Zipf skew on the join-key distribution.
    pub skew: Option<JoinSkew>,
    /// Optional measured work profile (node-local / repartition / broadcast
    /// split) for the behavioural estimator.
    pub profile: Option<QueryProfile>,
    /// Optional absolute anchor for the behavioural estimator: the response
    /// time of the reference configuration. For profile-less sweep plans,
    /// `None` derives the anchor from the analytical model at the reference
    /// configuration; for plans carrying a measured `profile`, `None` means
    /// a unit (1 s) anchor — predictions are then *relative*, exactly as
    /// Figures 1–2 plot them.
    pub reference_time: Option<Seconds>,
    /// Optional open-loop serving parameters, attached by
    /// [`ServingWorkload`] and read by the `Serving` estimator lens; every
    /// other estimator ignores them and evaluates the plan's single query.
    pub serving: Option<ServingParams>,
}

/// Open-loop serving parameters a [`ServingWorkload`] attaches to its plans:
/// the simulator's own run configuration, carried whole, plus the three
/// things only the `Serving` lens knows about — how it shapes the design's
/// node pools and which queries arrive.
///
/// `config` *is* the [`ServingConfig`] the lens hands to
/// `eedc_dbmsim::simulate_serving` (arrival law, window, template skew,
/// queue bound, wait bound, seed, service law, fault model); nothing is
/// copied field by field on the way, so a field added to the simulator's
/// configuration reaches the run without touching this crate. The lens
/// patches exactly one thing: a scale policy that names no migration cost
/// gets one derived from the design's port-volume model.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingParams {
    /// The serving run configuration, passed to the simulator as-is.
    pub config: ServingConfig,
    /// Queries each node pool serves simultaneously; beyond it they queue.
    /// Dedicated-slot pools are re-priced at this concurrency through the
    /// inner estimator (the [`ConcurrencySweep`] data), so an n-way pool's
    /// per-query profile comes from measured/analytical concurrency
    /// behaviour rather than a guess.
    pub pool_concurrency: usize,
    /// Divide each pool's single-query rate across in-flight queries
    /// (M/M/1-PS) instead of granting dedicated slots (M/M/c). Sharing
    /// itself models the contention, so profiles are then priced solo.
    pub processor_sharing: bool,
    /// The query templates arrivals draw from, in Zipf-weight order (the
    /// templates themselves carry no serving parameters).
    pub templates: Vec<WorkloadPlan>,
}

impl WorkloadPlan {
    /// A plan for a plain sweep join under the given strategy.
    pub fn sweep_join(sweep: SweepJoin, strategy: JoinStrategy) -> Self {
        let query = JoinQuerySpec::new(sweep.build_selectivity, sweep.probe_selectivity);
        let concurrency = if sweep.concurrency > 1 {
            format!(" x{}", sweep.concurrency)
        } else {
            String::new()
        };
        Self {
            label: format!("sweep {}{concurrency}", query.label()),
            sweep,
            query,
            strategy,
            skew: None,
            profile: None,
            reference_time: None,
            serving: None,
        }
    }
}

/// Something that can be evaluated by any [`crate::Estimator`]: a workload
/// description expanded into one or more uniform [`WorkloadPlan`]s.
///
/// The trait is object safe, so heterogeneous workload collections can be
/// swept through one [`crate::Experiment`].
pub trait Workload {
    /// Label of the workload as a whole.
    fn label(&self) -> String;

    /// The concrete plans to evaluate, in presentation order. Most workloads
    /// yield exactly one; sweeps yield one per swept point.
    fn plans(&self) -> Vec<WorkloadPlan>;
}

/// A plan is trivially a workload of itself.
impl Workload for WorkloadPlan {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn plans(&self) -> Vec<WorkloadPlan> {
        vec![self.clone()]
    }
}

/// The plain sweep join evaluates under the dual-shuffle repartitioning plan
/// (the paper's default execution method); use
/// [`Experiment::strategy`](crate::Experiment::strategy) for the other
/// strategies.
impl Workload for SweepJoin {
    fn label(&self) -> String {
        WorkloadPlan::sweep_join(*self, JoinStrategy::DualShuffle).label
    }

    fn plans(&self) -> Vec<WorkloadPlan> {
        vec![WorkloadPlan::sweep_join(*self, JoinStrategy::DualShuffle)]
    }
}

/// The 1/2/4 concurrent-query sweeps of Figures 3 and 4 as a workload: one
/// plan per concurrency level, each running `level` identical copies of the
/// base sweep join over the shared interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencySweep {
    base: SweepJoin,
    levels: Vec<usize>,
}

impl ConcurrencySweep {
    /// Sweep the base join over the given concurrency levels.
    pub fn new(base: SweepJoin, levels: impl IntoIterator<Item = usize>) -> Self {
        Self {
            base,
            levels: levels.into_iter().collect(),
        }
    }

    /// The concurrency levels of the paper's Figures 3 and 4.
    const PAPER_LEVELS: [usize; 3] = [1, 2, 4];

    /// The paper's 1/2/4 sweep.
    pub fn paper(base: SweepJoin) -> Self {
        Self::new(base, Self::PAPER_LEVELS)
    }

    /// The swept concurrency levels.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }
}

impl Workload for ConcurrencySweep {
    fn label(&self) -> String {
        format!("{} concurrency sweep", self.base.label())
    }

    fn plans(&self) -> Vec<WorkloadPlan> {
        self.levels
            .iter()
            .map(|&level| {
                WorkloadPlan::sweep_join(
                    self.base.with_concurrency(level.max(1)),
                    JoinStrategy::DualShuffle,
                )
            })
            .collect()
    }
}

/// The sweep join with a Zipf-skewed join-key distribution, built on
/// [`eedc_tpch::ZipfKeys`]: hash partitioning no longer splits work `1/n`,
/// so per-node utilization and energy unbalance toward the node holding the
/// hot partition (Section 4.1's deferred third bottleneck).
#[derive(Debug, Clone, PartialEq)]
pub struct SkewedJoin {
    base: SweepJoin,
    skew: JoinSkew,
}

impl SkewedJoin {
    /// A skewed variant of the base join.
    pub fn new(base: SweepJoin, skew: JoinSkew) -> Self {
        Self { base, skew }
    }

    /// A skewed variant with the given Zipf exponent over the default key
    /// domain.
    pub fn zipf(base: SweepJoin, theta: f64) -> Self {
        Self::new(base, JoinSkew::zipf(theta))
    }

    /// The skew parameters.
    pub fn skew(&self) -> &JoinSkew {
        &self.skew
    }

    /// The theoretical load fraction of the hottest of `partitions` hash
    /// partitions under this skew (uniform is `1 / partitions`).
    pub fn hot_partition_fraction(&self, partitions: usize) -> f64 {
        self.skew
            .partition_weights(partitions)
            .into_iter()
            .fold(0.0, f64::max)
            .max(if partitions == 0 { 1.0 } else { 0.0 })
    }
}

impl Workload for SkewedJoin {
    fn label(&self) -> String {
        self.plans().remove(0).label
    }

    fn plans(&self) -> Vec<WorkloadPlan> {
        let mut plan = WorkloadPlan::sweep_join(self.base, JoinStrategy::DualShuffle);
        plan.label = format!("{} zipf(θ={})", plan.label, self.skew.theta);
        plan.skew = Some(self.skew);
        vec![plan]
    }
}

/// A measured query profile as a workload: the Section 3 studies, where an
/// off-the-shelf DBMS's per-query work split (node-local / repartition /
/// broadcast) is known and the question is how the query scales with the
/// cluster size.
///
/// The behavioural estimator consumes the profile directly; the measured and
/// analytical estimators reconstruct the equivalent sweep join from the
/// profile's selectivities and the projected TPC-H working sets at `scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledQuery {
    profile: QueryProfile,
    scale: ScaleFactor,
    reference_time: Seconds,
}

impl ProfiledQuery {
    /// A profiled query at the given scale, anchored at the reference
    /// configuration's measured response time.
    pub fn new(profile: QueryProfile, scale: ScaleFactor, reference_time: Seconds) -> Self {
        Self {
            profile,
            scale,
            reference_time,
        }
    }

    /// The Vertica SF-1000 study of Figures 1–2 for one of the paper's
    /// queries, with a unit anchor (all predictions are then relative to the
    /// eight-node reference, exactly as the figures plot them).
    pub fn vertica_sf1000(query: QueryId) -> Self {
        Self::new(
            QueryProfile::paper(query),
            ScaleFactor::SF1000,
            Seconds(1.0),
        )
    }

    /// The profile driving the workload.
    pub fn profile(&self) -> &QueryProfile {
        &self.profile
    }
}

impl Workload for ProfiledQuery {
    fn label(&self) -> String {
        format!("{}@{}", self.profile.query, self.scale)
    }

    fn plans(&self) -> Vec<WorkloadPlan> {
        let defaults = RunOptions::default();
        let sweep = SweepJoin {
            build_bytes: self.scale.projected_size(TpchTable::Orders),
            probe_bytes: self.scale.projected_size(TpchTable::Lineitem),
            build_selectivity: self.profile.build_selectivity,
            probe_selectivity: self.profile.probe_selectivity,
            hash_table_expansion: defaults.hash_table_expansion,
            hash_table_headroom: defaults.hash_table_headroom,
            in_memory: defaults.in_memory,
            concurrency: 1,
        };
        vec![WorkloadPlan {
            label: self.label(),
            sweep,
            query: JoinQuerySpec::new(
                self.profile.build_selectivity,
                self.profile.probe_selectivity,
            ),
            strategy: JoinStrategy::DualShuffle,
            skew: None,
            profile: Some(self.profile.clone()),
            reference_time: Some(self.reference_time),
            serving: None,
        }]
    }
}

/// A long-lived *service* as a workload: open-loop Poisson arrivals at one
/// or more offered QPS levels, drawing query templates from an inner
/// workload's plans under a Zipf mix, with a bounded admission queue —
/// one [`WorkloadPlan`] per QPS level, each carrying [`ServingParams`] for
/// the `Serving` estimator lens. Sweeping the levels across designs yields
/// the throughput–energy Pareto curves the paper's question ultimately asks
/// about.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingWorkload {
    base_label: String,
    qps_levels: Vec<f64>,
    /// The parameters every expanded plan carries; only the Poisson rate
    /// varies across plans, one per QPS level.
    params: ServingParams,
}

impl ServingWorkload {
    /// Serve the inner workload's plans as query templates at one offered
    /// QPS over the given arrival window, with a deterministic seed. Every
    /// other setting starts at [`ServingConfig::new`]'s default.
    pub fn new(templates: &dyn Workload, qps: f64, duration: Seconds, seed: u64) -> Self {
        Self {
            base_label: templates.label(),
            qps_levels: vec![qps],
            params: ServingParams {
                config: ServingConfig::new(qps, duration, seed),
                pool_concurrency: 1,
                processor_sharing: false,
                templates: templates
                    .plans()
                    .into_iter()
                    .map(|mut plan| {
                        // Templates are single queries; nested serving
                        // parameters would recurse.
                        plan.serving = None;
                        plan
                    })
                    .collect(),
            },
        }
    }

    /// Serve the stream under a fault-injection and lifecycle model:
    /// hazard and scripted failures, kill/recovery of in-flight queries,
    /// and optional queue-depth elastic scaling. The `Serving` lens then
    /// reports availability, kill/re-admission counts, and lifecycle
    /// overhead next to the usual latency and energy figures.
    pub fn with_faults(mut self, model: FaultModel) -> Self {
        self.params.config.faults = Some(model);
        self
    }

    /// Replace the single QPS level with a sweep (one plan per level).
    pub fn qps_sweep(mut self, levels: impl IntoIterator<Item = f64>) -> Self {
        self.qps_levels = levels.into_iter().collect();
        self
    }

    /// Replay recorded arrival instants instead of drawing Poisson gaps
    /// (replaces any QPS sweep: a trace fixes the load).
    pub fn trace_arrivals(mut self, times: impl IntoIterator<Item = Seconds>) -> Self {
        self.params.config.arrival = ArrivalProcess::Trace(times.into_iter().collect());
        self
    }

    /// Drive arrivals with a piecewise-constant-rate diurnal ramp given as
    /// `(segment duration, qps)` pairs (replaces any QPS sweep).
    pub fn diurnal_ramp(mut self, segments: impl IntoIterator<Item = (Seconds, f64)>) -> Self {
        self.params.config.arrival = ArrivalProcess::Ramp(
            segments
                .into_iter()
                .map(|(duration, qps)| RampSegment { duration, qps })
                .collect(),
        );
        self
    }

    /// Let each node pool serve `limit` queries at once on dedicated slots;
    /// the `Serving` lens re-prices its per-query profiles at this
    /// concurrency through the inner estimator.
    pub fn pool_concurrency(mut self, limit: usize) -> Self {
        self.params.pool_concurrency = limit;
        self
    }

    /// Divide each pool's rate across in-flight queries (processor sharing)
    /// instead of granting dedicated slots.
    pub fn processor_sharing(mut self) -> Self {
        self.params.processor_sharing = true;
        self
    }

    /// Set the Zipf skew of the template mix.
    pub fn template_theta(mut self, theta: f64) -> Self {
        self.params.config.template_theta = theta;
        self
    }

    /// Set the admission-queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.params.config.queue_capacity = capacity;
        self
    }

    /// Enable queue-wait timeouts.
    pub fn max_wait(mut self, wait: Seconds) -> Self {
        self.params.config.max_wait = Some(wait);
        self
    }

    /// The swept offered-QPS levels.
    pub fn levels(&self) -> &[f64] {
        &self.qps_levels
    }

    /// The query templates arrivals draw from.
    pub fn templates(&self) -> &[WorkloadPlan] {
        &self.params.templates
    }
}

impl Workload for ServingWorkload {
    fn label(&self) -> String {
        format!("serving {}", self.base_label)
    }

    fn plans(&self) -> Vec<WorkloadPlan> {
        let Some(first) = self.params.templates.first() else {
            // An empty template set expands to no plans; Experiment::run
            // reports the absence rather than panicking here.
            return Vec::new();
        };
        // The plan's own sweep/query/strategy mirror the first template, so
        // non-serving estimators evaluate a meaningful single query instead
        // of failing.
        let plan = |suffix: String, params: ServingParams| {
            let mut plan = first.clone();
            plan.label = format!("{} @{suffix}", self.label());
            plan.serving = Some(params);
            plan
        };
        match &self.params.config.arrival {
            ArrivalProcess::Poisson { .. } => self
                .qps_levels
                .iter()
                .map(|&qps| {
                    let mut params = self.params.clone();
                    params.config.arrival = ArrivalProcess::Poisson { qps };
                    plan(format!("{qps}qps"), params)
                })
                .collect(),
            // A trace or ramp fixes the load: one plan, labelled by kind.
            fixed => vec![plan(fixed.kind().to_string(), self.params.clone())],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_simkit::units::Megabytes;

    fn base() -> SweepJoin {
        SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle())
    }

    /// Mean offered load of a plan's arrival law over its window.
    fn offered_qps(params: &ServingParams) -> f64 {
        params.config.arrival.mean_qps(params.config.duration)
    }

    #[test]
    fn sweep_join_yields_one_dual_shuffle_plan() {
        let plans = base().plans();
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.strategy, JoinStrategy::DualShuffle);
        assert_eq!(plan.query, JoinQuerySpec::q3_dual_shuffle());
        assert!(plan.skew.is_none());
        assert!(plan.profile.is_none());
        assert!(plan.label.contains("O5%/L5%"), "{}", plan.label);
        // The plan is itself a single-plan workload.
        assert_eq!(plan.plans(), plans);
        assert_eq!(Workload::label(plan), plan.label);
    }

    #[test]
    fn concurrency_sweep_expands_the_paper_levels() {
        let sweep = ConcurrencySweep::paper(base());
        assert_eq!(sweep.levels(), &[1, 2, 4]);
        let plans = sweep.plans();
        assert_eq!(plans.len(), 3);
        assert_eq!(plans[0].sweep.concurrency, 1);
        assert_eq!(plans[2].sweep.concurrency, 4);
        assert!(plans[2].label.contains("x4"), "{}", plans[2].label);
        assert!(Workload::label(&sweep).contains("concurrency sweep"));
        // Degenerate zero levels are clamped to 1.
        let clamped = ConcurrencySweep::new(base(), [0]);
        assert_eq!(clamped.plans()[0].sweep.concurrency, 1);
    }

    #[test]
    fn skewed_join_carries_its_skew_into_the_plan() {
        let skewed = SkewedJoin::zipf(base(), 1.0);
        let plans = skewed.plans();
        assert_eq!(plans.len(), 1);
        let skew = plans[0].skew.expect("plan carries the skew");
        assert_eq!(skew.theta, 1.0);
        assert!(plans[0].label.contains("zipf"), "{}", plans[0].label);
        assert!(Workload::label(&skewed).contains("zipf"));
        // The hot partition carries more than the uniform share.
        assert!(skewed.hot_partition_fraction(8) > 1.0 / 8.0);
        assert_eq!(skewed.hot_partition_fraction(0), 1.0);
    }

    #[test]
    fn serving_workload_expands_one_plan_per_qps_level() {
        let sweep = ConcurrencySweep::paper(base());
        let serving = ServingWorkload::new(&sweep, 0.5, Seconds(600.0), 7)
            .qps_sweep([0.25, 0.5, 1.0])
            .template_theta(1.0)
            .queue_capacity(32)
            .max_wait(Seconds(30.0));
        assert_eq!(serving.levels(), &[0.25, 0.5, 1.0]);
        assert_eq!(serving.templates().len(), 3);
        assert!(Workload::label(&serving).starts_with("serving"));
        let plans = serving.plans();
        assert_eq!(plans.len(), 3);
        for (plan, &qps) in plans.iter().zip(serving.levels()) {
            let params = plan.serving.as_ref().expect("serving params ride along");
            // The plan carries the simulator's own configuration: exactly
            // `ServingConfig::new`'s defaults with the builder-set fields
            // changed, so every default is stated once, over there.
            let expected = ServingConfig::new(qps, Seconds(600.0), 7)
                .template_theta(1.0)
                .queue_capacity(32)
                .max_wait(Seconds(30.0));
            assert_eq!(params.config, expected);
            assert_eq!(params.config.arrival, ArrivalProcess::Poisson { qps });
            assert_eq!(offered_qps(params), qps);
            assert_eq!(params.config.duration, Seconds(600.0));
            assert_eq!(params.config.template_theta, 1.0);
            assert_eq!(params.config.queue_capacity, 32);
            assert_eq!(params.config.max_wait, Some(Seconds(30.0)));
            assert_eq!(params.config.seed, 7);
            assert_eq!(params.pool_concurrency, 1, "dedicated single slot");
            assert!(!params.processor_sharing);
            assert_eq!(params.templates.len(), 3);
            assert!(
                params.templates.iter().all(|t| t.serving.is_none()),
                "templates must not nest serving parameters"
            );
            assert!(plan.label.contains("qps"), "{}", plan.label);
            // The plan mirrors the first template for non-serving lenses.
            assert_eq!(plan.sweep, params.templates[0].sweep);
        }
        // Ordinary workloads carry no serving parameters.
        assert!(base().plans()[0].serving.is_none());
    }

    #[test]
    fn serving_workload_carries_arrival_and_concurrency_options() {
        let sweep = ConcurrencySweep::paper(base());
        // A trace replaces the QPS sweep with one fixed-load plan.
        let traced = ServingWorkload::new(&sweep, 0.5, Seconds(10.0), 7)
            .qps_sweep([0.25, 0.5])
            .trace_arrivals([Seconds(1.0), Seconds(2.0), Seconds(4.0)])
            .pool_concurrency(4);
        let plans = traced.plans();
        assert_eq!(plans.len(), 1, "a trace fixes the load");
        let params = plans[0].serving.as_ref().unwrap();
        let trace = ArrivalProcess::Trace(vec![Seconds(1.0), Seconds(2.0), Seconds(4.0)]);
        assert_eq!(params.config.arrival, trace);
        // Untouched settings (the 1024-slot queue among them) are the
        // simulator's defaults, not a second copy of them.
        assert_eq!(
            params.config,
            ServingConfig::new(0.5, Seconds(10.0), 7).arrival(trace)
        );
        assert!((offered_qps(params) - 0.3).abs() < 1e-12);
        assert_eq!(params.pool_concurrency, 4);
        assert!(plans[0].label.ends_with("@trace"), "{}", plans[0].label);

        // A diurnal ramp builds segments from (duration, qps) pairs.
        let ramped = ServingWorkload::new(&sweep, 0.5, Seconds(300.0), 7)
            .diurnal_ramp([(Seconds(100.0), 0.1), (Seconds(200.0), 2.0)])
            .processor_sharing();
        let plans = ramped.plans();
        assert_eq!(plans.len(), 1);
        let params = plans[0].serving.as_ref().unwrap();
        assert_eq!(params.config.arrival.kind(), "ramp");
        assert_eq!(
            params.config,
            ServingConfig::new(0.5, Seconds(300.0), 7).arrival(params.config.arrival.clone())
        );
        assert!(params.processor_sharing);
        assert!((offered_qps(params) - 410.0 / 300.0).abs() < 1e-12);
        assert!(plans[0].label.ends_with("@ramp"), "{}", plans[0].label);
    }

    #[test]
    fn profiled_query_reconstructs_the_scaled_sweep() {
        let q12 = ProfiledQuery::vertica_sf1000(QueryId::Q12);
        let plans = q12.plans();
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.label, "Q12@SF1000");
        let profile = plan.profile.as_ref().expect("profile rides along");
        assert_eq!(profile.query, QueryId::Q12);
        assert_eq!(plan.reference_time, Some(Seconds(1.0)));
        // SF-1000 projected working sets: 2.5x the Section 5.2 SF-400 sizes.
        assert!(plan.sweep.probe_bytes > Megabytes(100_000.0));
        assert!(
            (plan.sweep.probe_bytes.value() / plan.sweep.build_bytes.value() - 4.0).abs() < 1e-9
        );
        assert_eq!(plan.query.probe_selectivity, profile.probe_selectivity);
    }
}
