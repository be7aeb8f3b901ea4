//! The serving lens: open-loop query streams through the discrete-event
//! serving simulator.

use super::{Analytical, Estimator};
use crate::error::CoreError;
use crate::record::{FaultStats, RunRecord, ServingStats};
use crate::workload::{ServingParams, WorkloadPlan};
use eedc_dbmsim::{
    simulate_serving, EnergyAwareScheduler, FcfsScheduler, JoinShortestQueue, PowerOfTwoChoices,
    Scheduler, ServiceProfile, ServingServer, TransitionCost,
};
use eedc_pstore::stats::ExecutionMode;
use eedc_pstore::{ClusterSpec, PStoreError};
use eedc_simkit::units::{Joules, Megabytes, Seconds, Watts};
use eedc_simkit::NodeSpec;

/// The serving lens: run the plan's [`ServingParams`] through the
/// discrete-event serving simulator (`eedc_dbmsim::serving`) on the
/// `eedc-simkit` event kernel — the fifth lens, and the only one that can
/// answer *service* questions: latency percentiles under sustained load,
/// admission drops, energy per query with idle power amortized in.
///
/// Per-query service times and energies come from an inner estimator
/// ([`Analytical`] by default) evaluated per query template on each node
/// *pool* of the design: a heterogeneous `(b Beefy, w Wimpy)` design serves
/// from two pools, and the scheduler's per-query choice between them is the
/// paper's Beefy-vs-Wimpy placement decision ([`Serving::fcfs`] baseline,
/// the [`Serving::energy_aware`] placer, or the queue-feedback
/// [`Serving::jsq`] / [`Serving::power_of_two`] policies). Pools serve up
/// to `pool_concurrency` queries at once — dedicated slots re-priced at
/// that concurrency through the inner estimator, or processor sharing
/// priced solo. A pool that cannot run a template
/// (hash table fits no execution mode) is simply never picked for it; a
/// design where some template fits *no* pool is recorded as infeasible,
/// like every other lens.
///
/// Records carry the usual closed-form shape (`response_time` is the mean
/// latency, `energy` the whole-run energy including idle power) plus
/// [`ServingStats`], so `Experiment`/`DesignAdvisor`/the figures pipeline
/// sweep throughput–energy Pareto curves with zero new plumbing.
///
/// ```
/// use eedc_core::{Experiment, Serving, ServingWorkload, SweepJoin};
/// use eedc_pstore::{ClusterSpec, JoinQuerySpec};
/// use eedc_simkit::catalog::cluster_v_node;
/// use eedc_simkit::units::Seconds;
///
/// // Serve the Section 5.4 join at 0.02 queries/s for a simulated hour.
/// let query = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
/// let workload = ServingWorkload::new(&query, 0.02, Seconds(3_600.0), 7);
/// let report = Experiment::new(&workload)
///     .designs([16, 8, 4].map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()))
///     .estimator(Serving::fcfs())
///     .run()
///     .unwrap();
/// let records = &report.series[0].records;
/// assert_eq!(records.len(), 3);
/// for record in records {
///     let stats = record.serving.as_ref().expect("serving stats ride along");
///     assert!(stats.completed > 0);
///     assert!(stats.p99 >= stats.p50);
///     assert!(stats.energy_per_query.value() > 0.0);
/// }
/// // Same seed, same report — bit for bit.
/// let again = Experiment::new(&workload)
///     .designs([16, 8, 4].map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()))
///     .estimator(Serving::fcfs())
///     .run()
///     .unwrap();
/// assert_eq!(report.to_json_string(), again.to_json_string());
/// ```
pub struct Serving {
    inner: Box<dyn Estimator>,
    /// Builds the run's placement policy; one fresh scheduler per estimate.
    scheduler: fn() -> Box<dyn Scheduler>,
}

impl Serving {
    /// A lens placing queries with `scheduler` over analytical per-query
    /// costs.
    fn placing(scheduler: fn() -> Box<dyn Scheduler>) -> Self {
        Self {
            inner: Box::new(Analytical),
            scheduler,
        }
    }

    /// FCFS placement (first idle capable pool) over analytical per-query
    /// costs — the baseline.
    pub fn fcfs() -> Self {
        Self::placing(|| Box::new(FcfsScheduler))
    }

    /// Energy-aware placement: each query runs on the idle pool that serves
    /// it for the fewest joules.
    pub fn energy_aware() -> Self {
        Self::placing(|| Box::new(EnergyAwareScheduler))
    }

    /// Join-shortest-queue placement: each query commits to the capable
    /// pool with the fewest queries in system (waiting + in flight).
    pub fn jsq() -> Self {
        Self::placing(|| Box::new(JoinShortestQueue))
    }

    /// Power-of-two-choices placement: probe two random capable pools (via
    /// the run's seeded RNG) and commit to the shallower one.
    pub fn power_of_two() -> Self {
        Self::placing(|| Box::new(PowerOfTwoChoices))
    }

    /// Replace the inner estimator supplying per-template service costs
    /// (e.g. [`Traced::dbms_x`](crate::Traced::dbms_x) to serve under an
    /// engine behaviour). The lens is then named `serving…@<inner>` in
    /// reports.
    pub fn with_inner(mut self, inner: impl Estimator + 'static) -> Self {
        self.inner = Box::new(inner);
        self
    }

    /// The node pools of a design: Beefy and Wimpy sub-clusters for a
    /// heterogeneous design, the whole design otherwise. Each pool serves
    /// up to the plan's `pool_concurrency` queries at a time.
    fn pools(design: &ClusterSpec) -> Result<Vec<(String, Vec<usize>, ClusterSpec)>, CoreError> {
        let beefy = design.beefy_ids();
        let wimpy = design.wimpy_ids();
        if beefy.is_empty() || wimpy.is_empty() {
            return Ok(vec![(
                design.label(),
                (0..design.len()).collect(),
                design.clone(),
            )]);
        }
        [("beefy", beefy), ("wimpy", wimpy)]
            .into_iter()
            .map(|(class, ids)| {
                let nodes: Vec<NodeSpec> =
                    ids.iter().map(|&id| design.nodes()[id].clone()).collect();
                let label = format!("{class}({})", ids.len());
                Ok((label, ids, ClusterSpec::from_nodes(nodes)?))
            })
            .collect()
    }

    /// Data-movement cost of one elastic scale transition under the
    /// port-volume model: the largest template's working set (build +
    /// probe bytes) is repartitioned evenly across the design's NICs, the
    /// move takes as long as the slowest port needs for its share, and
    /// each node's floor power burns for its own transfer time.
    fn derived_migration_cost(params: &ServingParams, design: &ClusterSpec) -> TransitionCost {
        let mut working_set = Megabytes(0.0);
        for template in &params.templates {
            let volume = template.sweep.build_bytes + template.sweep.probe_bytes;
            if volume.value() > working_set.value() {
                working_set = volume;
            }
        }
        let share = working_set / design.len() as f64;
        let mut time = Seconds(0.0);
        let mut energy = Joules::zero();
        for node in design.nodes() {
            let port = share / node.network_bandwidth;
            if port.value() > time.value() {
                time = port;
            }
            energy += node.idle_power * port;
        }
        TransitionCost { time, energy }
    }
}

impl Estimator for Serving {
    fn name(&self) -> String {
        // The report name is the scheduler's own, FCFS being the unmarked
        // baseline.
        let base = match (self.scheduler)().name().as_str() {
            "fcfs" => "serving".to_string(),
            policy => format!("serving:{policy}"),
        };
        let inner = self.inner.name();
        if inner == "analytical" {
            base
        } else {
            format!("{base}@{inner}")
        }
    }

    fn estimate(&self, plan: &WorkloadPlan, design: &ClusterSpec) -> Result<RunRecord, CoreError> {
        let params = plan.serving.as_ref().ok_or_else(|| {
            CoreError::invalid(format!(
                "plan '{}' carries no serving parameters — wrap the workload in a ServingWorkload",
                plan.label
            ))
        })?;
        if params.templates.is_empty() {
            return Err(CoreError::invalid("serving needs at least one template"));
        }

        if params.pool_concurrency == 0 {
            return Err(CoreError::invalid("pool concurrency must be at least 1"));
        }

        // Price every template on every pool through the inner estimator.
        // A pool that refuses a template (Runtime error: the hash table fits
        // no execution mode there) just cannot serve it. A dedicated n-way
        // pool is priced *at* that concurrency — the template re-runs
        // through the inner estimator with `sweep.concurrency = n` (the
        // ConcurrencySweep axis), so the per-query time reflects measured/
        // analytical n-way contention and the batch energy is split per
        // query. A processor-sharing pool is priced solo: the simulator's
        // rate-sharing models the contention, and pricing it again here
        // would double-count.
        let dedicated_n = if params.processor_sharing {
            1
        } else {
            params.pool_concurrency
        };
        let mut servers = Vec::new();
        let mut pool_ids = Vec::new();
        for (label, ids, spec) in Self::pools(design)? {
            let mut profiles = Vec::with_capacity(params.templates.len());
            for template in &params.templates {
                let mut priced = template.clone();
                priced.sweep = priced.sweep.with_concurrency(dedicated_n);
                match self.inner.estimate(&priced, &spec) {
                    Ok(record) => profiles.push(Some(ServiceProfile {
                        time: record.response_time,
                        energy: record.energy / dedicated_n as f64,
                    })),
                    Err(CoreError::Runtime(_)) => profiles.push(None),
                    Err(err) => return Err(err),
                }
            }
            if profiles.iter().any(Option::is_some) {
                let idle_power = ids
                    .iter()
                    .map(|&id| design.nodes()[id].idle_power)
                    .sum::<Watts>();
                let mut server = ServingServer::new(label, idle_power, profiles)
                    .concurrency_limit(params.pool_concurrency)
                    .nodes(ids.len());
                if params.processor_sharing {
                    server = server.processor_sharing();
                }
                servers.push(server);
                pool_ids.push(ids);
            }
        }
        for (index, template) in params.templates.iter().enumerate() {
            if !servers.iter().any(|s| s.can_serve(index)) {
                return Err(CoreError::Runtime(PStoreError::planning(format!(
                    "template '{}' fits no pool of design {}",
                    template.label,
                    design.label()
                ))));
            }
        }

        // The plan's configuration rides into the simulator as-is, except
        // that a scale policy carrying no explicit migration cost gets one
        // derived from the design's port-volume model.
        let mut config = params.config.clone();
        if let Some(scale) = config.faults.as_mut().and_then(|m| m.scale.as_mut()) {
            scale
                .migration
                .get_or_insert_with(|| Self::derived_migration_cost(params, design));
        }
        let churned = config.faults.as_ref().is_some_and(|m| !m.is_inert());
        let result = simulate_serving(&servers, &config, (self.scheduler)().as_mut())?;

        // Per-node shares in cluster node order: each node carries its
        // pool's utilization and an equal split of the pool's energy (pools
        // are homogeneous, so the split is exact under a uniform layout).
        let mut node_utilization = vec![0.0; design.len()];
        let mut node_energy = vec![Joules::zero(); design.len()];
        for (pool, ids) in pool_ids.iter().enumerate() {
            let (Some(&energy), Some(utilization)) = (
                result.server_energy.get(pool),
                result.server_utilization(pool),
            ) else {
                return Err(CoreError::invalid(format!(
                    "the serving run reports no pool {pool}"
                )));
            };
            let share = energy / ids.len() as f64;
            for &id in ids {
                node_utilization[id] = utilization;
                node_energy[id] = share;
            }
        }

        let stats = ServingStats {
            scheduler: result.scheduler.clone(),
            arrival: Some(result.arrival.clone()),
            offered_qps: result.offered_qps,
            achieved_qps: result.achieved_qps(),
            arrivals: result.arrivals,
            completed: result.completed,
            dropped: result.dropped,
            timed_out: result.timed_out,
            drop_rate: result.drop_rate(),
            p50: result.p50(),
            p95: result.p95(),
            p99: result.p99(),
            mean_latency: result.mean_latency(),
            mean_wait: result.mean_wait,
            energy_per_query: result.energy_per_query(),
            pool_mean_depth: result.pool_mean_depth.clone(),
            pool_max_queued: result.pool_max_queued.clone(),
            faults: churned.then_some(FaultStats {
                availability: result.availability,
                failures: result.failures,
                killed: result.killed,
                readmitted: result.readmitted,
                scale_out_events: result.scale_out_events,
                scale_in_events: result.scale_in_events,
                fault_downtime: result.fault_downtime,
                overhead_energy: result.overhead_energy,
            }),
        };
        Ok(RunRecord {
            workload: plan.label.clone(),
            estimator: self.name(),
            design: design.label(),
            strategy: plan.strategy,
            mode: if pool_ids.len() > 1 {
                ExecutionMode::Heterogeneous
            } else {
                ExecutionMode::Homogeneous
            },
            concurrency: plan.sweep.concurrency,
            response_time: result.mean_latency(),
            energy: result.energy,
            node_utilization,
            node_energy,
            phases: Vec::new(),
            output_rows: None,
            serving: Some(stats),
            normalized: None,
        })
    }
}
