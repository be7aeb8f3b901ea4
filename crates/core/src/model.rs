//! The closed-form analytical cluster design model of Section 5.4.
//!
//! Given a `(b Beefy, w Wimpy)` cluster design and the parameters of the
//! sweep join — 700 GB ORDERS ⋈ 2.8 TB LINEITEM in the paper's sweeps — the
//! model predicts the response time and energy of each execution phase from
//! first principles, with no data generation and no flow simulation:
//!
//! * **scan** — every node scans its `1/n` share of the input at its CPU
//!   pipeline rate (`C_B` / `C_W`; the disk rate `I` when the tables are not
//!   memory resident),
//! * **network** — the shuffle or broadcast volume each node must push
//!   through its egress port and pull through its ingress port, divided by
//!   the per-node port bandwidth `L`. This is exactly the completion time of
//!   the max–min fair allocation `eedc-netsim` computes for balanced
//!   transfer patterns, closed form,
//! * **compute** — the bytes each consumer builds into or probes against its
//!   hash table, again at the CPU pipeline rate,
//! * the phase is then closed by [`PhaseStats::close`] — the very function
//!   the P-store runtime calls: it lasts as long as its slowest component
//!   (the three are pipelined), and per-node energy follows the paper's
//!   utilization model, `u = G + rate / C`, wall power from the published
//!   regression models, energy = power × duration.
//!
//! A prediction is therefore a [`QueryExecution`], the shape a measured run
//! has, with `output_rows: None`; the model differs from the runtime only in
//! where the volumes and the network time come from. Mode selection —
//! homogeneous versus heterogeneous execution — likewise reuses
//! [`eedc_pstore::select_execution_mode`], so the model and the measured
//! runtime agree on which designs demote their Wimpy nodes. The integration
//! test in `tests/model_validation.rs` holds the model to within 15% of
//! measured `PStoreCluster` points (the gap is flow simulation against the
//! per-port closed form, nothing else).
//!
//! The paper states the model per node class, and so does the code: every
//! volume above is the same for all nodes that agree on whether they are a
//! destination of the phase's movement (and, under Zipf weights, on which
//! one). The model hands [`PhaseStats::close`] one volume set per such range
//! of nodes, not one per node, and `close` prices each piece of those ranges
//! and the design's runs of identical nodes ([`ClusterSpec::runs`]) once. A
//! `(b, w)` design without skew is therefore priced in a handful of
//! derivations per phase, whatever `b + w` is, with every output
//! bit-identical to the per-node model kept in this module's tests.

use crate::error::CoreError;
use crate::params;
use eedc_pstore::cluster::select_execution_mode;
use eedc_pstore::stats::{ExecutionMode, NodeVolumes, PhaseStats, QueryExecution};
use eedc_pstore::{ClusterSpec, JoinQuerySpec, JoinSkew, JoinStrategy, PStoreCluster, RunOptions};
use eedc_simkit::units::Megabytes;
use std::ops::Range;

/// Workload parameters of the modeled two-table sweep join.
///
/// Following the paper's convention, the build side is ORDERS and the probe
/// side is LINEITEM; both inputs are spread uniformly across the cluster
/// nodes (round-robin / hash placement makes the per-node share `1/n` of the
/// table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepJoin {
    /// Total build-side (ORDERS) working set.
    pub build_bytes: Megabytes,
    /// Total probe-side (LINEITEM) working set.
    pub probe_bytes: Megabytes,
    /// Selectivity of the predicate on the build input, in `(0, 1]`.
    pub build_selectivity: f64,
    /// Selectivity of the predicate on the probe input, in `(0, 1]`.
    pub probe_selectivity: f64,
    /// Hash-table bytes per qualifying build-side byte.
    pub hash_table_expansion: f64,
    /// Fraction of node memory reserved for everything that is not the
    /// build-side hash table.
    pub hash_table_headroom: f64,
    /// Whether the tables are memory resident (scans run at the CPU pipeline
    /// rate) or disk resident (scans gated by the storage bandwidth).
    pub in_memory: bool,
    /// Number of identical concurrent queries sharing the cluster.
    pub concurrency: usize,
}

impl SweepJoin {
    /// The Section 5.4 model sweep: a 700 GB ORDERS ⋈ 2.8 TB LINEITEM join
    /// with the given predicate selectivities, memory-resident, with the
    /// default hash-table sizing of the P-store runtime.
    pub fn section_5_4(query: JoinQuerySpec) -> Self {
        let defaults = RunOptions::default();
        Self {
            build_bytes: params::SWEEP_ORDERS_WORKING_SET,
            probe_bytes: params::SWEEP_LINEITEM_WORKING_SET,
            build_selectivity: query.build_selectivity,
            probe_selectivity: query.probe_selectivity,
            hash_table_expansion: defaults.hash_table_expansion,
            hash_table_headroom: defaults.hash_table_headroom,
            in_memory: defaults.in_memory,
            concurrency: 1,
        }
    }

    /// A workload that mirrors what a loaded [`PStoreCluster`] actually
    /// executes for `query`: the nominal-scale working sets of the generated
    /// tables and the *realized* predicate selectivities (the engine-scale
    /// cutoffs quantize the requested ones). Predictions built from this
    /// workload are directly comparable to the cluster's measured points.
    pub fn matching_cluster(
        cluster: &PStoreCluster,
        query: &JoinQuerySpec,
    ) -> Result<Self, CoreError> {
        let build_bytes = cluster.nominal_build_bytes();
        let probe_bytes = cluster.nominal_probe_bytes();
        if build_bytes.value() <= 0.0 || probe_bytes.value() <= 0.0 {
            return Err(CoreError::invalid("cluster holds empty tables"));
        }
        let options = cluster.options();
        Ok(Self {
            build_bytes,
            probe_bytes,
            build_selectivity: cluster.nominal_qualifying_build_bytes(query)? / build_bytes,
            probe_selectivity: cluster.nominal_qualifying_probe_bytes(query)? / probe_bytes,
            hash_table_expansion: options.hash_table_expansion,
            hash_table_headroom: options.hash_table_headroom,
            in_memory: options.in_memory,
            concurrency: 1,
        })
    }

    /// Run `concurrency` identical queries instead of one.
    pub fn with_concurrency(mut self, concurrency: usize) -> Self {
        self.concurrency = concurrency;
        self
    }

    /// Total build-side hash-table footprint across all concurrent queries.
    pub fn total_hash_table(&self) -> Megabytes {
        self.build_bytes
            * self.build_selectivity
            * self.hash_table_expansion
            * self.concurrency as f64
    }

    fn validate(&self) -> Result<(), CoreError> {
        for (label, v) in [
            ("build working set", self.build_bytes.value()),
            ("probe working set", self.probe_bytes.value()),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::invalid(format!(
                    "{label} must be positive and finite, got {v}"
                )));
            }
        }
        for (label, s) in [
            ("build", self.build_selectivity),
            ("probe", self.probe_selectivity),
        ] {
            if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                return Err(CoreError::invalid(format!(
                    "{label} selectivity {s} outside (0, 1]"
                )));
            }
        }
        if !(self.hash_table_expansion.is_finite() && self.hash_table_expansion >= 1.0) {
            return Err(CoreError::invalid(
                "hash table expansion must be at least 1",
            ));
        }
        if !(0.0..1.0).contains(&self.hash_table_headroom) {
            return Err(CoreError::invalid("hash table headroom must be in [0, 1)"));
        }
        if self.concurrency == 0 {
            return Err(CoreError::invalid("concurrency must be at least 1"));
        }
        Ok(())
    }
}

/// The Section 5.4 analytical model: closed-form phase predictions for any
/// cluster design running a [`SweepJoin`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticalModel {
    workload: SweepJoin,
}

impl AnalyticalModel {
    /// Build a model for the given workload, validating its parameters.
    pub fn new(workload: SweepJoin) -> Result<Self, CoreError> {
        workload.validate()?;
        Ok(Self { workload })
    }

    /// A model of the paper's Section 5.4 sweep join. Errs when the query's
    /// selectivities are outside `(0, 1]` — `JoinQuerySpec` itself does not
    /// validate them.
    pub fn section_5_4(query: JoinQuerySpec) -> Result<Self, CoreError> {
        Self::new(SweepJoin::section_5_4(query))
    }

    /// Predict the per-phase response time and energy of `design` executing
    /// the workload under `strategy`.
    ///
    /// Fails when the build-side hash table fits no execution mode on the
    /// design — the same designs the P-store runtime refuses to plan.
    pub fn predict(
        &self,
        design: &ClusterSpec,
        strategy: JoinStrategy,
    ) -> Result<QueryExecution, CoreError> {
        self.predict_skewed(design, strategy, None)
    }

    /// Like [`predict`](Self::predict), but with the join keys following a
    /// Zipf skew: hash-partitioned movement routes each destination its Zipf
    /// partition weight instead of the uniform `1/d` share, mirroring the
    /// [`eedc_pstore::RunOptions::skew`] hook of the runtime. Broadcast
    /// replication is unaffected by key skew.
    pub fn predict_skewed(
        &self,
        design: &ClusterSpec,
        strategy: JoinStrategy,
        skew: Option<&JoinSkew>,
    ) -> Result<QueryExecution, CoreError> {
        let w = &self.workload;
        let n = design.len();
        let share = 1.0 / n as f64;

        let (mode, destinations) = select_execution_mode(
            design.nodes(),
            strategy,
            w.total_hash_table(),
            w.hash_table_headroom,
        )?;
        // Per-destination hash-partition weights (`None` is the uniform
        // `1/d` split).
        let weights = skew
            .filter(|s| !s.is_uniform())
            .map(|s| s.partition_weights(destinations.len()));
        let ranges = destination_ranges(n, &destinations, weights.as_deref());
        let d = destinations.len() as f64;

        // ---- Build phase: scan + filter ORDERS, move it, build hash tables.
        let local = Movement::Local {
            weighted: weights.is_some(),
        };
        let build = match strategy {
            JoinStrategy::DualShuffle => Movement::Shuffle,
            JoinStrategy::Broadcast => Movement::Broadcast,
            JoinStrategy::PrePartitioned => local,
        };
        // ---- Probe phase: scan + filter LINEITEM, move it, probe.
        let probe = match (strategy, mode) {
            (JoinStrategy::DualShuffle, _)
            | (JoinStrategy::Broadcast, ExecutionMode::Heterogeneous) => Movement::Shuffle,
            (JoinStrategy::PrePartitioned, _) => local,
            // Every node holds the whole build side: key skew moves nothing.
            (JoinStrategy::Broadcast, ExecutionMode::Homogeneous) => {
                Movement::Local { weighted: false }
            }
        };

        let phases = [
            ("build", w.build_bytes, w.build_selectivity, build),
            ("probe", w.probe_bytes, w.probe_selectivity, probe),
        ]
        .map(|(label, bytes, selectivity, movement)| {
            let scanned = bytes * share;
            let qualifying = bytes * (share * selectivity);
            // Summed node by node, as the per-node volumes add up.
            let total: Megabytes = std::iter::repeat_n(qualifying, n).sum();
            let volumes: Vec<_> = ranges
                .iter()
                .map(|(range, weight)| {
                    let (computed, egress, ingress) =
                        movement.volumes(qualifying, total, d, *weight);
                    let volumes = NodeVolumes {
                        scanned,
                        computed,
                        egress,
                        ingress,
                    };
                    (range.clone(), volumes)
                })
                .collect();
            // The runtime's own closing rule; no flow simulation ran, so the
            // transfer completes when the busiest port drains.
            PhaseStats::close(
                design,
                label,
                &volumes,
                w.concurrency as f64,
                None,
                w.in_memory,
            )
        });

        Ok(QueryExecution {
            cluster_label: design.label(),
            strategy,
            mode,
            concurrency: w.concurrency,
            phases: phases.into(),
            output_rows: None,
        })
    }
}

/// How a phase moves each node's qualifying bytes.
#[derive(Clone, Copy)]
enum Movement {
    /// Hash shuffle: every node sends its qualifying bytes split across the
    /// destinations by the partition weights; the share hashed to the local
    /// node never crosses the network (mirrors `eedc_netsim::shuffle_flows`).
    Shuffle,
    /// Broadcast: every node sends its full qualifying bytes to every
    /// destination other than itself (mirrors the flows of
    /// `eedc_pstore::op::broadcast_exchange`).
    Broadcast,
    /// Nothing crosses the network. Each node consumes its own qualifying
    /// bytes — or, `weighted`, node `j` of a co-partitioned layout holds
    /// `total × w_j` of them.
    Local { weighted: bool },
}

impl Movement {
    /// The `(computed, egress, ingress)` volumes of a node that holds
    /// `qualifying` of the phase's `total` bytes, with partition `weight`
    /// when it is one of the `d` destinations.
    fn volumes(
        self,
        qualifying: Megabytes,
        total: Megabytes,
        d: f64,
        weight: Option<f64>,
    ) -> (Megabytes, Megabytes, Megabytes) {
        let zero = Megabytes::zero();
        match (self, weight) {
            // A source that is no destination keeps no share: all of it moves.
            (Movement::Shuffle, None) => (zero, qualifying, zero),
            (Movement::Shuffle, Some(w)) => {
                (total * w, qualifying * (1.0 - w), (total - qualifying) * w)
            }
            (Movement::Broadcast, None) => (zero, qualifying * d, zero),
            (Movement::Broadcast, Some(_)) => (total, qualifying * (d - 1.0), total - qualifying),
            (Movement::Local { weighted: true }, Some(w)) => (total * w, zero, zero),
            (Movement::Local { .. }, _) => (qualifying, zero, zero),
        }
    }
}

/// The design's nodes as ranges on which every [`Movement`]'s volumes are
/// constant, each with its partition weight if it is a destination: a range
/// is split where destination membership changes, and under partition
/// `weights` every destination is a range of its own (uniform destinations
/// weigh `1/d`). `destinations` is ascending.
fn destination_ranges(
    n: usize,
    destinations: &[usize],
    weights: Option<&[f64]>,
) -> Vec<(Range<usize>, Option<f64>)> {
    let uniform = 1.0 / destinations.len() as f64;
    let mut ranges: Vec<(Range<usize>, Option<f64>)> = Vec::new();
    let mut at = 0;
    for (slot, &id) in destinations.iter().enumerate() {
        if id > at {
            ranges.push((at..id, None));
        }
        match (ranges.last_mut(), weights) {
            (Some((range, Some(_))), None) if range.end == id => range.end = id + 1,
            _ => ranges.push((id..id + 1, Some(weights.map_or(uniform, |w| w[slot])))),
        }
        at = id + 1;
    }
    if at < n {
        ranges.push((at..n, None));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_pstore::stats::Bottleneck;
    use eedc_simkit::catalog::{cluster_v_node, laptop_b};
    use eedc_simkit::units::{Joules, Seconds};
    use eedc_simkit::NodeSpec;

    // ---- The per-node model: `predict_skewed` as it was before it priced
    // runs, every volume a per-node vector. The oracle for
    // `predict_by_ranges_is_bit_identical_to_the_per_node_model`.

    /// Per-node data-movement volumes of one phase (the scanned volumes are
    /// movement-independent and evaluated separately).
    struct MovementVolumes {
        /// Bytes each node pushes through its hash-table build/probe path.
        computed: Vec<Megabytes>,
        /// Network bytes each node sends (local shares excluded).
        egress: Vec<Megabytes>,
        /// Network bytes each node receives.
        ingress: Vec<Megabytes>,
    }

    impl MovementVolumes {
        /// No movement at all: every node consumes its own qualifying bytes.
        fn local(computed: Vec<Megabytes>) -> Self {
            let n = computed.len();
            Self {
                computed,
                egress: vec![Megabytes::zero(); n],
                ingress: vec![Megabytes::zero(); n],
            }
        }
    }

    /// Closed-form per-node volumes of a hash shuffle: every node sends its
    /// qualifying bytes split across the destinations by the hash-partition
    /// weights (uniform `1/d` when `weights` is `None`); the share hashed to the
    /// local node never crosses the network (mirrors
    /// `eedc_netsim::shuffle_flows`).
    fn shuffle_volumes(
        qualifying: &[Megabytes],
        destinations: &[usize],
        weights: Option<&[f64]>,
    ) -> MovementVolumes {
        let n = qualifying.len();
        let total: Megabytes = qualifying.iter().copied().sum();
        // Per-node destination weight: 0 for non-destinations, the partition
        // weight (uniform share without skew) for destinations.
        let mut weight = vec![0.0; n];
        for (slot, &id) in destinations.iter().enumerate() {
            weight[id] = match weights {
                Some(w) => w[slot],
                None => 1.0 / destinations.len() as f64,
            };
        }
        let mut egress = vec![Megabytes::zero(); n];
        let mut ingress = vec![Megabytes::zero(); n];
        let mut computed = vec![Megabytes::zero(); n];
        for (id, &q) in qualifying.iter().enumerate() {
            // Everything except the share hashed back to the local node.
            egress[id] = q * (1.0 - weight[id]);
        }
        for &id in destinations {
            computed[id] = total * weight[id];
            ingress[id] = (total - qualifying[id]) * weight[id];
        }
        MovementVolumes {
            computed,
            egress,
            ingress,
        }
    }

    /// Closed-form per-node volumes of a co-partitioned (local) layout under
    /// hash-partition weights: node `j` holds `total × w_j` of the qualifying
    /// bytes, and nothing crosses the network.
    fn local_weighted_volumes(qualifying: &[Megabytes], weights: &[f64]) -> MovementVolumes {
        let total: Megabytes = qualifying.iter().copied().sum();
        MovementVolumes::local(weights.iter().map(|&w| total * w).collect())
    }

    /// Closed-form per-node volumes of a broadcast: every node sends its full
    /// qualifying bytes to every destination other than itself (mirrors the
    /// flows of `eedc_pstore::op::broadcast_exchange`).
    fn broadcast_volumes(qualifying: &[Megabytes], destinations: &[usize]) -> MovementVolumes {
        let n = qualifying.len();
        let d = destinations.len() as f64;
        let total: Megabytes = qualifying.iter().copied().sum();
        let is_destination: Vec<bool> = {
            let mut v = vec![false; n];
            for &id in destinations {
                v[id] = true;
            }
            v
        };
        let mut egress = vec![Megabytes::zero(); n];
        let mut ingress = vec![Megabytes::zero(); n];
        let mut computed = vec![Megabytes::zero(); n];
        for (id, &q) in qualifying.iter().enumerate() {
            let copies = if is_destination[id] { d - 1.0 } else { d };
            egress[id] = q * copies;
        }
        for &id in destinations {
            computed[id] = total;
            ingress[id] = total - qualifying[id];
        }
        MovementVolumes {
            computed,
            egress,
            ingress,
        }
    }

    fn predict_per_node(
        model: &AnalyticalModel,
        design: &ClusterSpec,
        strategy: JoinStrategy,
        skew: Option<&JoinSkew>,
    ) -> Result<QueryExecution, CoreError> {
        let w = &model.workload;
        let nodes = design.nodes();
        let n = nodes.len();
        let share = 1.0 / n as f64;

        let (mode, destinations) =
            select_execution_mode(nodes, strategy, w.total_hash_table(), w.hash_table_headroom)?;
        // Per-destination hash-partition weights (None degenerates to the
        // uniform split inside the volume helpers).
        let weights = skew
            .filter(|s| !s.is_uniform())
            .map(|s| s.partition_weights(destinations.len()));
        let weights = weights.as_deref();

        // ---- Build phase: scan + filter ORDERS, move it, build hash tables.
        let build_scanned = vec![w.build_bytes * share; n];
        let build_qualifying = vec![w.build_bytes * (share * w.build_selectivity); n];
        let build = match strategy {
            JoinStrategy::DualShuffle => shuffle_volumes(&build_qualifying, &destinations, weights),
            JoinStrategy::Broadcast => broadcast_volumes(&build_qualifying, &destinations),
            JoinStrategy::PrePartitioned => match weights {
                Some(w) => local_weighted_volumes(&build_qualifying, w),
                None => MovementVolumes::local(build_qualifying),
            },
        };
        let build_phase = phase(model, design, "build", &build_scanned, build);

        // ---- Probe phase: scan + filter LINEITEM, move it, probe.
        let probe_scanned = vec![w.probe_bytes * share; n];
        let probe_qualifying = vec![w.probe_bytes * (share * w.probe_selectivity); n];
        let probe = match (strategy, mode) {
            (JoinStrategy::DualShuffle, _)
            | (JoinStrategy::Broadcast, ExecutionMode::Heterogeneous) => {
                shuffle_volumes(&probe_qualifying, &destinations, weights)
            }
            (JoinStrategy::PrePartitioned, _) => match weights {
                Some(w) => local_weighted_volumes(&probe_qualifying, w),
                None => MovementVolumes::local(probe_qualifying),
            },
            (JoinStrategy::Broadcast, ExecutionMode::Homogeneous) => {
                MovementVolumes::local(probe_qualifying)
            }
        };
        let probe_phase = phase(model, design, "probe", &probe_scanned, probe);

        Ok(QueryExecution {
            cluster_label: design.label(),
            strategy,
            mode,
            concurrency: w.concurrency,
            phases: vec![build_phase, probe_phase],
            output_rows: None,
        })
    }

    /// Price one phase with [`PhaseStats::close`], one volume range per
    /// node.
    fn phase(
        model: &AnalyticalModel,
        design: &ClusterSpec,
        label: &str,
        scanned: &[Megabytes],
        movement: MovementVolumes,
    ) -> PhaseStats {
        let volumes: Vec<_> = (0..design.len())
            .map(|id| {
                let volumes = NodeVolumes {
                    scanned: scanned[id],
                    computed: movement.computed[id],
                    egress: movement.egress[id],
                    ingress: movement.ingress[id],
                };
                (id..id + 1, volumes)
            })
            .collect();
        PhaseStats::close(
            design,
            label,
            &volumes,
            model.workload.concurrency as f64,
            None,
            model.workload.in_memory,
        )
    }

    fn q3_model() -> AnalyticalModel {
        AnalyticalModel::section_5_4(JoinQuerySpec::q3_dual_shuffle()).unwrap()
    }

    fn homogeneous(n: usize) -> ClusterSpec {
        ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()
    }

    #[test]
    fn section_5_4_workload_carries_the_published_sizes() {
        let w = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
        assert_eq!(w.build_bytes.as_gigabytes(), 700.0);
        assert_eq!(w.probe_bytes.as_gigabytes(), 2800.0);
        assert_eq!(w.concurrency, 1);
        // 5% of 700 GB × expansion 2 = 70 GB of hash table.
        assert!((w.total_hash_table().as_gigabytes() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn workload_validation_rejects_bad_parameters() {
        let good = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
        assert!(AnalyticalModel::new(good).is_ok());
        for bad in [
            SweepJoin {
                build_bytes: Megabytes(0.0),
                ..good
            },
            SweepJoin {
                probe_selectivity: 0.0,
                ..good
            },
            SweepJoin {
                build_selectivity: 1.5,
                ..good
            },
            SweepJoin {
                hash_table_expansion: 0.5,
                ..good
            },
            SweepJoin {
                hash_table_headroom: 1.0,
                ..good
            },
            SweepJoin {
                concurrency: 0,
                ..good
            },
        ] {
            assert!(AnalyticalModel::new(bad).is_err(), "{bad:?}");
        }
        // JoinQuerySpec does not validate its selectivities, so the
        // convenience constructor must surface the error rather than panic.
        assert!(AnalyticalModel::section_5_4(JoinQuerySpec::new(0.0, 0.05)).is_err());
        assert!(AnalyticalModel::section_5_4(JoinQuerySpec::new(0.05, f64::NAN)).is_err());
    }

    #[test]
    fn dual_shuffle_is_network_bound_and_slows_as_nodes_shrink() {
        // The paper's central observation, closed form: with memory-resident
        // data the repartitioning join is gated by the interconnect, and the
        // per-port shuffle volume grows as the cluster shrinks.
        let model = q3_model();
        let p16 = model
            .predict(&homogeneous(16), JoinStrategy::DualShuffle)
            .unwrap();
        let p4 = model
            .predict(&homogeneous(4), JoinStrategy::DualShuffle)
            .unwrap();
        assert_eq!(p16.mode, ExecutionMode::Homogeneous);
        for phase in &p16.phases {
            assert_eq!(phase.bottleneck, Bottleneck::Network);
            assert!(phase.energy.value() > 0.0);
        }
        assert!(p4.response_time() > p16.response_time());
        // Energy does NOT shrink proportionally: the smaller cluster runs
        // longer at low utilization (the energy-proportionality gap).
        assert!(p4.energy().value() > p16.energy().value() * 0.25);
        assert_eq!(p16.cluster_label, "16B,0W");
    }

    #[test]
    fn shuffle_volume_arithmetic_matches_the_exchange_operator() {
        // 4 nodes shuffling to all 4: each node keeps 1/4 of its data local,
        // so 3/4 of the total crosses the network.
        let q = vec![Megabytes(100.0); 4];
        let v = shuffle_volumes(&q, &[0, 1, 2, 3], None);
        let network: f64 = v.egress.iter().map(|b| b.value()).sum();
        assert!((network - 300.0).abs() < 1e-9);
        for id in 0..4 {
            assert!((v.egress[id].value() - 75.0).abs() < 1e-9);
            assert!((v.ingress[id].value() - 75.0).abs() < 1e-9);
            assert!((v.computed[id].value() - 100.0).abs() < 1e-9);
        }
        // Shuffling to a 2-node subset: sources outside the subset send
        // everything; each destination ingests (total - own)/2.
        let v = shuffle_volumes(&q, &[0, 1], None);
        assert!((v.egress[2].value() - 100.0).abs() < 1e-9);
        assert!((v.egress[0].value() - 50.0).abs() < 1e-9);
        assert!((v.ingress[0].value() - 150.0).abs() < 1e-9);
        assert!((v.computed[0].value() - 200.0).abs() < 1e-9);
        assert_eq!(v.computed[2], Megabytes::zero());
    }

    #[test]
    fn weighted_shuffle_routes_the_hot_partition_share() {
        // A 60/20/10/10 weight vector over 4 destinations: node 0 builds 60%
        // of the total and ingests 60% of everything it did not already hold.
        let q = vec![Megabytes(100.0); 4];
        let w = [0.6, 0.2, 0.1, 0.1];
        let v = shuffle_volumes(&q, &[0, 1, 2, 3], Some(&w));
        assert!((v.computed[0].value() - 240.0).abs() < 1e-9);
        assert!((v.computed[1].value() - 80.0).abs() < 1e-9);
        assert!((v.ingress[0].value() - 0.6 * 300.0).abs() < 1e-9);
        // Each source keeps only its locally-hashed share.
        assert!((v.egress[0].value() - 40.0).abs() < 1e-9);
        assert!((v.egress[2].value() - 90.0).abs() < 1e-9);
        // Total computed mass is conserved.
        let computed: f64 = v.computed.iter().map(|b| b.value()).sum();
        assert!((computed - 400.0).abs() < 1e-9);
        // The weighted local layout concentrates without any network volume.
        let v = local_weighted_volumes(&q, &w);
        assert!((v.computed[0].value() - 240.0).abs() < 1e-9);
        assert_eq!(v.egress[0], Megabytes::zero());
        assert_eq!(v.ingress[3], Megabytes::zero());
    }

    #[test]
    fn skewed_predictions_dominate_uniform_on_the_hot_node() {
        // Mirror of the runtime's skew test, in closed form: a heavy Zipf
        // skew over a tight key domain makes the hot node the bottleneck.
        // 20% build selectivity keeps the hash table feasible on 16 nodes
        // (280 GB / 16 = 17.5 GB per node) while the 50% probe side gives the
        // hash-partitioned volumes real weight next to the scans.
        let model =
            AnalyticalModel::new(SweepJoin::section_5_4(JoinQuerySpec::new(0.2, 0.5))).unwrap();
        let design = homogeneous(16);
        let skew = JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        };
        let uniform = model.predict(&design, JoinStrategy::DualShuffle).unwrap();
        let skewed = model
            .predict_skewed(&design, JoinStrategy::DualShuffle, Some(&skew))
            .unwrap();
        assert!(skewed.response_time() > uniform.response_time());
        for (sp, up) in skewed.phases.iter().zip(&uniform.phases) {
            let hot = |e: &[Joules]| e.iter().map(|j| j.value()).fold(0.0_f64, f64::max);
            assert!(hot(&sp.node_energy) > hot(&up.node_energy), "{}", sp.label);
            let total: f64 = sp.node_energy.iter().map(|j| j.value()).sum();
            assert!((total - sp.energy.value()).abs() < 1e-6 * total.max(1.0));
        }
        // A uniform (theta = 0) skew is exactly the unskewed prediction.
        let zero = model
            .predict_skewed(
                &design,
                JoinStrategy::DualShuffle,
                Some(&JoinSkew::zipf(0.0)),
            )
            .unwrap();
        assert_eq!(zero, uniform);
    }

    #[test]
    fn broadcast_volume_arithmetic_matches_the_exchange_operator() {
        // Broadcast to all 4 nodes: every destination receives the whole
        // table minus its own fragment — 3 × total over the network.
        let q = vec![Megabytes(100.0); 4];
        let v = broadcast_volumes(&q, &[0, 1, 2, 3]);
        let network: f64 = v.egress.iter().map(|b| b.value()).sum();
        assert!((network - 1200.0).abs() < 1e-9);
        for id in 0..4 {
            assert!((v.ingress[id].value() - 300.0).abs() < 1e-9);
            assert!((v.computed[id].value() - 400.0).abs() < 1e-9);
        }
        // Broadcast into a Beefy subset: Wimpy sources send |B| full copies.
        let v = broadcast_volumes(&q, &[0, 1]);
        assert!((v.egress[2].value() - 200.0).abs() < 1e-9);
        assert!((v.egress[0].value() - 100.0).abs() < 1e-9);
        assert!((v.ingress[1].value() - 300.0).abs() < 1e-9);
        assert_eq!(v.computed[3], Megabytes::zero());
    }

    #[test]
    fn oversized_broadcast_tables_demote_wimpy_nodes_in_the_model() {
        // The q3 broadcast build side is 1% of 700 GB × expansion 2 = 14 GB
        // of hash table per destination: fits the 48 GB Beefy nodes, not the
        // 8 GB laptops. The model must agree with the runtime's rule.
        let model = AnalyticalModel::section_5_4(JoinQuerySpec::q3_broadcast()).unwrap();
        let mixed = ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 6).unwrap();
        let p = model.predict(&mixed, JoinStrategy::Broadcast).unwrap();
        assert_eq!(p.mode, ExecutionMode::Heterogeneous);
        // Both phases cross the network: broadcast into the Beefy subset,
        // then the probe shuffle of the demoted producers.
        for phase in &p.phases {
            assert!(phase.bytes_over_network.value() > 0.0, "{}", phase.label);
        }
        // An all-Beefy design of the same size stays homogeneous.
        let p = model
            .predict(&homogeneous(8), JoinStrategy::Broadcast)
            .unwrap();
        assert_eq!(p.mode, ExecutionMode::Homogeneous);
    }

    #[test]
    fn infeasible_designs_are_errors_not_numbers() {
        // 70 GB of dual-shuffle hash table over 4 laptops is 17.5 GB per
        // node against 6.4 GB usable: no execution mode exists.
        let model = q3_model();
        let wimpy_only = ClusterSpec::homogeneous(laptop_b(), 4).unwrap();
        let err = model
            .predict(&wimpy_only, JoinStrategy::DualShuffle)
            .unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn prepartitioned_runs_without_network_time() {
        let model = q3_model();
        let p = model
            .predict(&homogeneous(8), JoinStrategy::PrePartitioned)
            .unwrap();
        assert_eq!(p.bytes_over_network(), Megabytes::zero());
        for phase in &p.phases {
            assert_eq!(phase.network_time, Seconds::zero());
            assert_ne!(phase.bottleneck, Bottleneck::Network);
            assert!(phase.energy.value() > 0.0);
        }
        // And it is faster than the repartitioning plan on the same design.
        let shuffle = model
            .predict(&homogeneous(8), JoinStrategy::DualShuffle)
            .unwrap();
        assert!(p.response_time() < shuffle.response_time());
    }

    #[test]
    fn concurrency_scales_volumes_linearly() {
        let one = q3_model();
        let two = AnalyticalModel::new(
            SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle()).with_concurrency(2),
        )
        .unwrap();
        let p1 = one
            .predict(&homogeneous(8), JoinStrategy::DualShuffle)
            .unwrap();
        let p2 = two
            .predict(&homogeneous(8), JoinStrategy::DualShuffle)
            .unwrap();
        // Twice the data through the same ports: twice the network time.
        let t1 = p1.phase("probe").unwrap().network_time.value();
        let t2 = p2.phase("probe").unwrap().network_time.value();
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!(p2.response_time().value() > p1.response_time().value());
    }

    /// Every float of a prediction as its bit pattern, phase by phase in
    /// field order — what "bit-identical" compares, so `-0.0 ≠ 0.0` and a
    /// `NaN` compares by its bits.
    fn float_bits(p: &QueryExecution) -> Vec<u64> {
        let mut bits = Vec::new();
        for phase in &p.phases {
            let scalars = [
                phase.duration.value(),
                phase.energy.value(),
                phase.bytes_scanned.value(),
                phase.bytes_over_network.value(),
                phase.scan_time.value(),
                phase.network_time.value(),
                phase.compute_time.value(),
            ];
            bits.extend(
                scalars
                    .into_iter()
                    .chain(phase.node_utilization.iter().copied())
                    .chain(phase.node_energy.iter().map(|j| j.value()))
                    .chain(phase.node_egress.iter().map(|v| v.value()))
                    .chain(phase.node_ingress.iter().map(|v| v.value()))
                    .chain(phase.node_network_time.iter().map(|t| t.value()))
                    .map(f64::to_bits),
            );
        }
        bits
    }

    /// The designs the model is held to the per-node oracle on: every window
    /// of a few node lists — the `bB,wW` grid, interrupted runs (`B W B`),
    /// neighbours that differ in memory only, specs with a `NaN` field —
    /// and windows of a window.
    fn oracle_designs() -> Vec<ClusterSpec> {
        let (b, w) = (cluster_v_node(), laptop_b());
        let edit = |node: &NodeSpec, change: fn(&mut NodeSpec)| {
            let mut node = node.clone();
            change(&mut node);
            node
        };
        let b_small = edit(&b, |n| n.memory = n.memory * 0.25);
        let w_large = edit(&w, |n| n.memory = n.memory * 4.0);
        let b_nan = edit(&b, |n| n.memory = Megabytes(f64::NAN));
        let w_nan = edit(&w, |n| n.cpu_bandwidth.0 = f64::NAN);
        let lists = [
            [vec![b.clone(); 6], vec![w.clone(); 6]].concat(),
            vec![
                b.clone(),
                b.clone(),
                w.clone(),
                w.clone(),
                b.clone(),
                b.clone(),
                w.clone(),
            ],
            vec![
                w.clone(),
                b.clone(),
                w.clone(),
                b.clone(),
                b.clone(),
                w.clone(),
                w.clone(),
                w.clone(),
            ],
            vec![
                b.clone(),
                b_small.clone(),
                b.clone(),
                b_small.clone(),
                b_small,
                w.clone(),
                w_large,
                w.clone(),
            ],
            vec![b.clone(), b_nan.clone(), b_nan, b.clone(), w_nan, w.clone()],
        ];
        let windows = |spec: &ClusterSpec| {
            let n = spec.len();
            (0..n)
                .flat_map(|start| (start + 1..=n).map(move |end| start..end))
                .map(|range| spec.sub_cluster(range).unwrap())
                .collect::<Vec<_>>()
        };
        let lists: Vec<_> = lists
            .into_iter()
            .map(|list| ClusterSpec::from_nodes(list).unwrap())
            .collect();
        let mut designs: Vec<_> = lists.iter().flat_map(windows).collect();
        // Windows of the grid's 4B,4W window.
        designs.extend(windows(&lists[0].sub_cluster(2..10).unwrap()));
        designs.push(ClusterSpec::heterogeneous(b.clone(), 16, w.clone(), 16).unwrap());
        designs.push(ClusterSpec::homogeneous(b, 24).unwrap());
        designs.push(ClusterSpec::homogeneous(w, 24).unwrap());
        designs
    }

    #[test]
    fn predict_by_ranges_is_bit_identical_to_the_per_node_model() {
        let designs = oracle_designs();
        assert!(designs.len() >= 233, "{} designs", designs.len());
        let mut models = Vec::new();
        for (build, probe) in [(0.001, 0.5), (0.01, 0.05), (0.05, 0.05), (0.2, 1.0)] {
            for concurrency in [1, 3] {
                for in_memory in [true, false] {
                    let workload = SweepJoin {
                        in_memory,
                        ..SweepJoin::section_5_4(JoinQuerySpec::new(build, probe))
                    };
                    models.push(
                        AnalyticalModel::new(workload.with_concurrency(concurrency)).unwrap(),
                    );
                }
            }
        }
        // A 200-key domain keeps the Zipf tables cheap in a debug build;
        // every destination still gets a weight of its own.
        let zipf = |theta| JoinSkew {
            key_domain: 200,
            ..JoinSkew::zipf(theta)
        };
        let skews = [None, Some(zipf(0.0)), Some(zipf(0.6)), Some(zipf(1.2))];
        let strategies = [
            JoinStrategy::DualShuffle,
            JoinStrategy::Broadcast,
            JoinStrategy::PrePartitioned,
        ];
        // Everything but the floats.
        let shape = |p: &QueryExecution| {
            let phases: Vec<_> = p
                .phases
                .iter()
                .map(|ph| (ph.label.clone(), ph.bottleneck))
                .collect();
            (
                p.cluster_label.clone(),
                p.strategy,
                p.mode,
                p.concurrency,
                p.output_rows,
                phases,
            )
        };

        let mut compared = 0;
        for model in &models {
            for skew in &skews {
                for strategy in strategies {
                    for design in &designs {
                        let case = || format!("{design:?} / {strategy:?} / {skew:?} / {model:?}");
                        let by_ranges = model.predict_skewed(design, strategy, skew.as_ref());
                        let per_node = predict_per_node(model, design, strategy, skew.as_ref());
                        match (by_ranges, per_node) {
                            (Ok(by_ranges), Ok(per_node)) => {
                                assert_eq!(
                                    float_bits(&by_ranges),
                                    float_bits(&per_node),
                                    "{}",
                                    case()
                                );
                                assert_eq!(shape(&by_ranges), shape(&per_node), "{}", case());
                            }
                            (Err(by_ranges), Err(per_node)) => {
                                assert_eq!(
                                    by_ranges.to_string(),
                                    per_node.to_string(),
                                    "{}",
                                    case()
                                );
                            }
                            (by_ranges, per_node) => {
                                panic!("{}: {by_ranges:?} against {per_node:?}", case())
                            }
                        }
                        compared += 1;
                    }
                }
            }
        }
        assert_eq!(compared, 16 * 4 * 3 * designs.len());
    }
}
