//! The P-store cluster runtime.
//!
//! [`PStoreCluster`] executes a [`JoinQuerySpec`] under a chosen
//! [`JoinStrategy`] against *real* partitioned tables — so join output
//! cardinalities are exact and verifiable against a scalar reference join —
//! while *simultaneously* driving the flow-level network simulator of
//! `eedc-netsim` for transfer times and the `eedc-simkit` power models for
//! per-phase joules. This dual execution is the paper's methodology in
//! miniature: engine-level correctness at laptop scale, time/energy modeled
//! at the nominal (paper) scale.
//!
//! ## Engine scale versus nominal scale
//!
//! Materialising SF-400 (let alone SF-1000) in memory is neither possible nor
//! necessary. The runtime generates data at a small *engine* scale factor for
//! relational correctness and multiplies every byte volume by
//! `nominal_scale / engine_scale` before it reaches the network simulator,
//! the scan/compute time model, or the hash-table memory check. TPC-H
//! cardinalities scale linearly in the scale factor, so the modeled volumes
//! are exactly what a nominal-scale run would move.
//!
//! ## Homogeneous versus heterogeneous execution
//!
//! Exactly as in Section 5.2 of the paper, the runtime picks the execution
//! mode from the build-side hash-table size: if the (nominal-scale) hash
//! table fits in every node's memory, every node builds and probes
//! (*homogeneous*); otherwise memory-poor Wimpy nodes are demoted to
//! scan-and-filter producers that forward qualifying tuples to the Beefy
//! nodes (*heterogeneous*).

use crate::error::PStoreError;
use crate::op::exchange::{broadcast_exchange, shuffle_exchange};
use crate::op::hashjoin::hash_join_with;
use crate::op::kernel::{default_worker_threads, JoinKernelConfig};
use crate::plan::{JoinQuerySpec, JoinSkew, JoinStrategy};
use crate::stats::{ExecutionMode, NodeVolumes, PhaseStats, QueryExecution};
use eedc_netsim::{Fabric, Flow, FlowSet, NodeId, TransferSimulator};
use eedc_simkit::units::{Megabytes, Seconds};
use eedc_simkit::{NodeClass, NodeSpec};
use eedc_storage::{hash_partition, round_robin_partition, scan, Partitioned, Predicate, Table};
use eedc_tpch::gen::{
    custkey_cutoff_for_selectivity, date_cutoff_for_selectivity, LineitemGenerator, OrdersGenerator,
};
use eedc_tpch::ScaleFactor;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The hardware composition of a P-store cluster: the per-node specs plus the
/// interconnect fabric derived from their NIC bandwidths.
///
/// A spec is a *window* over a shared, immutable list of node specs: cloning
/// one, or cutting a smaller design out of it with
/// [`sub_cluster`](Self::sub_cluster), copies no [`NodeSpec`]. That is what
/// lets the Section 6 design grid — every `(b, w)` design a contiguous slice
/// of the one `(max_b Beefy, max_w Wimpy)` cluster — cost one node list
/// instead of one per design. Every spec, however it was built, owns a fabric
/// validated for exactly its own nodes.
///
/// The node list is also recorded as its *runs*: maximal ranges of
/// consecutive nodes whose [`NodeSpec`]s are equal under the full
/// `PartialEq` — never class or name alone, so a spec with a `NaN` field
/// never joins a run. They are found once, when the list is made, and every
/// window shares them; [`runs`](Self::runs) clips them to the window. A
/// Section 6 design, `b` copies of one spec then `w` of another, is at most
/// two runs, and [`PhaseStats::close`] prices each run once.
#[derive(Clone)]
pub struct ClusterSpec {
    /// The shared node list; this spec is the nodes in `window`.
    shared: Arc<[NodeSpec]>,
    /// Where each run of `shared` starts, ascending, from `0`.
    starts: Arc<[usize]>,
    window: Range<usize>,
    fabric: Fabric,
}

impl ClusterSpec {
    /// A cluster of `count` identical nodes.
    pub fn homogeneous(node: NodeSpec, count: usize) -> Result<Self, PStoreError> {
        Self::from_nodes(vec![node; count])
    }

    /// A mixed cluster of `beefy_count` Beefy nodes followed by `wimpy_count`
    /// Wimpy nodes (the `bB,wW` designs of Section 5).
    pub fn heterogeneous(
        beefy: NodeSpec,
        beefy_count: usize,
        wimpy: NodeSpec,
        wimpy_count: usize,
    ) -> Result<Self, PStoreError> {
        let mut nodes = vec![beefy; beefy_count];
        nodes.extend(std::iter::repeat_n(wimpy, wimpy_count));
        Self::from_nodes(nodes)
    }

    /// A cluster from an explicit node list. The fabric gives every node a
    /// full-duplex port at its own NIC bandwidth; an empty list or a NIC
    /// bandwidth that is not positive and finite is the fabric's error.
    pub fn from_nodes(nodes: Vec<NodeSpec>) -> Result<Self, PStoreError> {
        let window = 0..nodes.len();
        let starts = (0..nodes.len())
            .filter(|&id| id == 0 || nodes[id] != nodes[id - 1])
            .collect();
        Self::over(nodes.into(), starts, window)
    }

    /// The cluster of this one's nodes `range` (ids relative to this spec, so
    /// a window of a window composes), sharing the node list instead of
    /// copying it. The fabric is built and validated for the narrower node
    /// set exactly as [`from_nodes`](Self::from_nodes) would: an empty range
    /// is the fabric's error. A range that is reversed or reaches past
    /// [`len`](Self::len) is a planning error.
    pub fn sub_cluster(&self, range: Range<usize>) -> Result<Self, PStoreError> {
        if range.start > range.end || range.end > self.len() {
            return Err(PStoreError::planning(format!(
                "sub-cluster {}..{} is not a range of a {}-node cluster",
                range.start,
                range.end,
                self.len()
            )));
        }
        let offset = self.window.start;
        Self::over(
            Arc::clone(&self.shared),
            Arc::clone(&self.starts),
            offset + range.start..offset + range.end,
        )
    }

    /// The one place a spec is made: the fabric is derived from, and checked
    /// against, the nodes in `window`.
    fn over(
        shared: Arc<[NodeSpec]>,
        starts: Arc<[usize]>,
        window: Range<usize>,
    ) -> Result<Self, PStoreError> {
        let ports = shared[window.clone()]
            .iter()
            .map(|n| n.network_bandwidth)
            .collect();
        let fabric = Fabric::from_ports(ports)?;
        Ok(Self {
            shared,
            starts,
            window,
            fabric,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the cluster has no nodes (never true for a built spec).
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The node specs, in cluster node order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.shared[self.window.clone()]
    }

    /// The runs of identical nodes, in node order, as ranges of node ids
    /// relative to this spec: they tile `0..len()`, and a run of the shared
    /// list that the window cuts is clipped to it.
    pub fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let Range { start, end } = self.window.clone();
        // Every run start strictly inside the window, then the window's end.
        let inside = self.starts.partition_point(|&s| s <= start);
        let mut from = start;
        self.starts[inside..]
            .iter()
            .copied()
            .take_while(move |&s| s < end)
            .chain([end])
            .map(move |to| {
                let run = from - start..to - start;
                from = to;
                run
            })
    }

    /// The interconnect fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Ids of the Beefy nodes.
    pub fn beefy_ids(&self) -> Vec<NodeId> {
        self.ids_of(NodeClass::Beefy)
    }

    /// Ids of the Wimpy nodes.
    pub fn wimpy_ids(&self) -> Vec<NodeId> {
        self.ids_of(NodeClass::Wimpy)
    }

    fn ids_of(&self, class: NodeClass) -> Vec<NodeId> {
        self.nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.class == class)
            .map(|(id, _)| id)
            .collect()
    }

    /// Human-readable label in the `bB,wW` convention of Section 5: `"2B,2W"`
    /// for a mixed cluster, `"8B,0W"` for all-Beefy, `"0B,8W"` for all-Wimpy.
    ///
    /// Uniform clusters deliberately keep an explicit zero count: the earlier
    /// `"{n}N"` shorthand made an all-Wimpy cluster indistinguishable from an
    /// all-Beefy one of the same size in advisor output and figure legends.
    pub fn label(&self) -> String {
        let (mut beefy, mut wimpy) = (0usize, 0usize);
        for node in self.nodes() {
            // No wildcard arm: a third class must be given a place in the
            // label before this compiles, rather than vanish from it.
            match node.class {
                NodeClass::Beefy => beefy += 1,
                NodeClass::Wimpy => wimpy += 1,
            }
        }
        format!("{beefy}B,{wimpy}W")
    }
}

/// The window's nodes, runs and fabric — not the shared list it was cut from.
impl fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("nodes", &self.nodes())
            .field("runs", &self.runs().collect::<Vec<_>>())
            .field("fabric", &self.fabric)
            .finish()
    }
}

/// Tunables for loading and running a [`PStoreCluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Scale factor of the data actually materialised in memory (relational
    /// correctness). Keep this laptop-sized.
    pub engine_scale: ScaleFactor,
    /// Scale factor whose byte volumes drive the time / energy / memory
    /// models (the paper's experiment scale).
    pub nominal_scale: ScaleFactor,
    /// Probe worker threads per node for the hash join. Defaults to the
    /// machine's available parallelism via [`default_worker_threads`]; set an
    /// explicit value (the runtime used to hard-code `2`) to pin it.
    pub threads: usize,
    /// Morsel / radix tunables of the join kernel. Every configuration
    /// produces the same join output; see [`JoinKernelConfig`].
    pub kernel: JoinKernelConfig,
    /// Fraction of node memory reserved for everything that is not the
    /// build-side hash table (buffers, probe working set, OS).
    pub hash_table_headroom: f64,
    /// Hash-table bytes per qualifying build-side byte (table of pointers,
    /// padding, load factor).
    pub hash_table_expansion: f64,
    /// Whether the tables are memory-resident, as in the paper's P-store
    /// experiments (Section 4.2): scans then run at the CPU pipeline rate.
    /// Set to `false` to model disk-resident data gated by the storage
    /// bandwidth.
    pub in_memory: bool,
    /// Optional Zipf skew on the join-key distribution (Section 4.1's
    /// deferred third bottleneck). When set, the nominal-scale volumes that
    /// hash-partitioning routes to each consumer are reweighted by the Zipf
    /// partition weights, so hot nodes receive more bytes, run hotter, and
    /// burn more energy. Engine-scale correctness is unaffected.
    pub skew: Option<JoinSkew>,
    /// Seed for the deterministic data generators.
    pub seed: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            engine_scale: ScaleFactor(0.002),
            nominal_scale: ScaleFactor::SF400,
            threads: default_worker_threads(),
            kernel: JoinKernelConfig::default(),
            hash_table_headroom: 0.2,
            hash_table_expansion: 2.0,
            in_memory: true,
            skew: None,
            seed: 7,
        }
    }
}

impl RunOptions {
    /// Validate the option values.
    fn validate(&self) -> Result<(), PStoreError> {
        for (label, scale) in [
            ("engine", self.engine_scale.value()),
            ("nominal", self.nominal_scale.value()),
        ] {
            if !scale.is_finite() || scale <= 0.0 {
                return Err(PStoreError::planning(format!(
                    "{label} scale must be positive and finite, got {scale}"
                )));
            }
        }
        if !(0.0..1.0).contains(&self.hash_table_headroom) {
            return Err(PStoreError::planning(
                "hash table headroom must be in [0, 1)",
            ));
        }
        if !(self.hash_table_expansion.is_finite() && self.hash_table_expansion >= 1.0) {
            return Err(PStoreError::planning(
                "hash table expansion must be at least 1",
            ));
        }
        if let Some(skew) = &self.skew {
            skew.validate()?;
        }
        self.kernel.validate()?;
        Ok(())
    }
}

/// A loaded cluster: hardware, interconnect, and the LINEITEM / ORDERS data
/// in every physical layout the three join strategies need.
///
/// The *partition-incompatible* layout of the paper's Q3 experiments stores
/// LINEITEM round-robin and ORDERS hash-partitioned on `O_CUSTKEY`, so a join
/// on `ORDERKEY` must shuffle or broadcast. The *partition-compatible* layout
/// co-partitions both tables on the join key (same hash, same node count), so
/// the pre-partitioned baseline runs without any network traffic.
#[derive(Debug, Clone)]
pub struct PStoreCluster {
    spec: ClusterSpec,
    options: RunOptions,
    /// Nominal-scale bytes per engine-scale byte.
    scale_ratio: f64,
    /// Full engine-scale tables, kept for the scalar reference join.
    lineitem: Table,
    orders: Table,
    /// Partition-incompatible layout (shuffle / broadcast strategies).
    probe_incompatible: Partitioned,
    build_incompatible: Partitioned,
    /// Co-partitioned layout (pre-partitioned baseline).
    probe_copartitioned: Partitioned,
    build_copartitioned: Partitioned,
}

impl PStoreCluster {
    /// Generate engine-scale TPC-H data and lay it out across the cluster.
    pub fn load(spec: ClusterSpec, options: RunOptions) -> Result<Self, PStoreError> {
        options.validate()?;
        let lineitem =
            Table::from_lineitem(LineitemGenerator::new(options.engine_scale, options.seed));
        let orders = Table::from_orders(OrdersGenerator::new(options.engine_scale, options.seed));
        if lineitem.is_empty() || orders.is_empty() {
            return Err(PStoreError::planning(
                "engine scale too small: generated tables are empty",
            ));
        }
        let n = spec.len();
        let probe_incompatible = round_robin_partition(&lineitem, n)?;
        let build_incompatible = hash_partition(&orders, "O_CUSTKEY", n)?;
        let probe_copartitioned = hash_partition(&lineitem, "L_ORDERKEY", n)?;
        let build_copartitioned = hash_partition(&orders, "O_ORDERKEY", n)?;
        let scale_ratio = options.nominal_scale.value() / options.engine_scale.value();
        Ok(Self {
            spec,
            options,
            scale_ratio,
            lineitem,
            orders,
            probe_incompatible,
            build_incompatible,
            probe_copartitioned,
            build_copartitioned,
        })
    }

    /// The cluster's hardware spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The options the cluster was loaded with.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// Nominal-scale bytes modeled per engine-scale byte moved.
    pub fn scale_ratio(&self) -> f64 {
        self.scale_ratio
    }

    /// Total build-side (ORDERS) bytes at the nominal scale — the working-set
    /// size the time/energy models see. Derived from the engine-scale table
    /// actually materialised, so an analytical model fed this value predicts
    /// over exactly the volumes the runtime moves.
    pub fn nominal_build_bytes(&self) -> Megabytes {
        self.orders.byte_size() * self.scale_ratio
    }

    /// Total probe-side (LINEITEM) bytes at the nominal scale.
    pub fn nominal_probe_bytes(&self) -> Megabytes {
        self.lineitem.byte_size() * self.scale_ratio
    }

    /// Nominal-scale bytes of the build side that qualify under the query's
    /// predicate. The engine-scale predicate cutoffs quantize the requested
    /// selectivity, so this *realized* volume (not `selectivity ×
    /// total bytes`) is what the runtime actually moves and hashes.
    pub fn nominal_qualifying_build_bytes(
        &self,
        query: &JoinQuerySpec,
    ) -> Result<Megabytes, PStoreError> {
        validate_query(query)?;
        let result = scan(&self.orders, &self.build_predicate(query), None)?;
        Ok(result.output.byte_size() * self.scale_ratio)
    }

    /// Nominal-scale bytes of the probe side that qualify under the query's
    /// predicate.
    pub fn nominal_qualifying_probe_bytes(
        &self,
        query: &JoinQuerySpec,
    ) -> Result<Megabytes, PStoreError> {
        validate_query(query)?;
        let result = scan(&self.lineitem, &self.probe_predicate(query), None)?;
        Ok(result.output.byte_size() * self.scale_ratio)
    }

    fn build_predicate(&self, query: &JoinQuerySpec) -> Predicate {
        Predicate::orders_custkey_at_most(custkey_cutoff_for_selectivity(
            self.options.engine_scale,
            query.build_selectivity,
        ))
    }

    fn probe_predicate(&self, query: &JoinQuerySpec) -> Predicate {
        Predicate::lineitem_shipdate_below(date_cutoff_for_selectivity(query.probe_selectivity))
    }

    /// Join output cardinality of a scalar (single-table, single-node)
    /// reference execution of the query — the ground truth every distributed
    /// strategy must reproduce.
    pub fn reference_join_rows(&self, query: &JoinQuerySpec) -> Result<usize, PStoreError> {
        validate_query(query)?;
        let build = scan(&self.orders, &self.build_predicate(query), None)?;
        let probe = scan(&self.lineitem, &self.probe_predicate(query), None)?;
        let joined = hash_join_with(
            &probe.output,
            "L_ORDERKEY",
            &build.output,
            "O_ORDERKEY",
            self.options.threads,
            self.options.kernel,
        )?;
        Ok(joined.output_rows)
    }

    /// Execute one query under the given strategy.
    pub fn run(
        &self,
        query: &JoinQuerySpec,
        strategy: JoinStrategy,
    ) -> Result<QueryExecution, PStoreError> {
        self.run_batch(query, strategy, 1)
    }

    /// Execute a batch of `concurrency` identical queries that share the
    /// interconnect and the node CPUs (the 1/2/4-query sweeps of Figures 3
    /// and 4). The returned execution describes the whole batch: its
    /// response time is the batch completion time, while `output_rows` stays
    /// per-query.
    pub fn run_batch(
        &self,
        query: &JoinQuerySpec,
        strategy: JoinStrategy,
        concurrency: usize,
    ) -> Result<QueryExecution, PStoreError> {
        validate_query(query)?;
        if concurrency == 0 {
            return Err(PStoreError::planning("concurrency must be at least 1"));
        }
        let n = self.spec.len();
        let batch = concurrency as f64;

        let (build_layout, probe_layout) = match strategy {
            JoinStrategy::DualShuffle | JoinStrategy::Broadcast => {
                (&self.build_incompatible, &self.probe_incompatible)
            }
            JoinStrategy::PrePartitioned => (&self.build_copartitioned, &self.probe_copartitioned),
        };

        // ---- Build phase: scan + filter ORDERS, move it, build hash tables.
        let build_pred = self.build_predicate(query);
        let mut build_scanned = Vec::with_capacity(n);
        let mut filtered_build = Vec::with_capacity(n);
        for fragment in &build_layout.fragments {
            let result = scan(fragment, &build_pred, None)?;
            build_scanned.push(result.bytes_scanned);
            filtered_build.push(result.output);
        }
        let qualifying_build_nominal = Megabytes(
            filtered_build
                .iter()
                .map(|t| t.byte_size().value())
                .sum::<f64>()
                * self.scale_ratio,
        );

        let (mode, destinations) =
            self.select_mode(strategy, qualifying_build_nominal, concurrency)?;
        let hash_factors = self.hash_skew_factors(&destinations);

        let (build_received, build_flows) = match strategy {
            JoinStrategy::DualShuffle => {
                let ex = shuffle_exchange(&filtered_build, "O_ORDERKEY", &destinations, 0)?;
                (ex.received, ex.flows)
            }
            JoinStrategy::Broadcast => {
                let ex = broadcast_exchange(&filtered_build, &destinations, 0)?;
                (ex.received, ex.flows)
            }
            JoinStrategy::PrePartitioned => (filtered_build, FlowSet::new()),
        };

        // Broadcast replicates the whole build side onto every destination,
        // so key skew cannot unbalance it; hash-partitioned movement (shuffle
        // and the co-partitioned layout) routes hot keys to hot nodes.
        let build_skew = match strategy {
            JoinStrategy::DualShuffle | JoinStrategy::PrePartitioned => hash_factors.as_deref(),
            JoinStrategy::Broadcast => None,
        };
        let build_phase = self.phase_stats(
            "build",
            &scale_volumes(&build_scanned, self.scale_ratio * batch),
            &apply_factors(
                &scale_volumes(&table_sizes(&build_received), self.scale_ratio * batch),
                build_skew,
            ),
            &self.batch_flows(&build_flows, concurrency, build_skew),
        )?;

        // ---- Probe phase: scan + filter LINEITEM, move it, probe.
        let probe_pred = self.probe_predicate(query);
        let mut probe_scanned = Vec::with_capacity(n);
        let mut filtered_probe = Vec::with_capacity(n);
        for fragment in &probe_layout.fragments {
            let result = scan(fragment, &probe_pred, None)?;
            probe_scanned.push(result.bytes_scanned);
            filtered_probe.push(result.output);
        }

        let (probe_received, probe_flows) = match (strategy, mode) {
            (JoinStrategy::DualShuffle, _)
            | (JoinStrategy::Broadcast, ExecutionMode::Heterogeneous) => {
                let ex = shuffle_exchange(&filtered_probe, "L_ORDERKEY", &destinations, 0)?;
                (ex.received, ex.flows)
            }
            (JoinStrategy::Broadcast, ExecutionMode::Homogeneous)
            | (JoinStrategy::PrePartitioned, _) => (filtered_probe, FlowSet::new()),
        };

        // The probe side is hash-partitioned in every case except the
        // homogeneous broadcast (which probes the local round-robin layout).
        let probe_skew = match (strategy, mode) {
            (JoinStrategy::Broadcast, ExecutionMode::Homogeneous) => None,
            _ => hash_factors.as_deref(),
        };
        let probe_phase = self.phase_stats(
            "probe",
            &scale_volumes(&probe_scanned, self.scale_ratio * batch),
            &apply_factors(
                &scale_volumes(&table_sizes(&probe_received), self.scale_ratio * batch),
                probe_skew,
            ),
            &self.batch_flows(&probe_flows, concurrency, probe_skew),
        )?;

        // ---- Correctness: actually join on every node that holds data.
        let mut output_rows = 0usize;
        for node in 0..n {
            let probe_table = &probe_received[node];
            let build_table = &build_received[node];
            if probe_table.is_empty() || build_table.is_empty() {
                continue;
            }
            let joined = hash_join_with(
                probe_table,
                "L_ORDERKEY",
                build_table,
                "O_ORDERKEY",
                self.options.threads,
                self.options.kernel,
            )?;
            output_rows += joined.output_rows;
        }

        Ok(QueryExecution {
            cluster_label: self.spec.label(),
            strategy,
            mode,
            concurrency,
            phases: vec![build_phase, probe_phase],
            output_rows: Some(output_rows),
        })
    }

    /// Pick homogeneous vs heterogeneous execution from the build-side
    /// hash-table footprint, as in Section 5.2: demote Wimpy nodes to
    /// scan-and-filter producers only when the hash table does not fit their
    /// memory.
    fn select_mode(
        &self,
        strategy: JoinStrategy,
        qualifying_build_nominal: Megabytes,
        concurrency: usize,
    ) -> Result<(ExecutionMode, Vec<NodeId>), PStoreError> {
        // Concurrent queries each build their own table.
        let total_ht =
            qualifying_build_nominal * self.options.hash_table_expansion * concurrency as f64;
        select_execution_mode(
            self.spec.nodes(),
            strategy,
            total_ht,
            self.options.hash_table_headroom,
        )
    }

    /// Per-node multipliers on hash-partitioned consumer volumes under the
    /// configured join-key skew: each destination's Zipf partition weight
    /// relative to its uniform share. `None` when the runtime is unskewed;
    /// non-destination nodes keep a factor of 1 (they receive nothing).
    fn hash_skew_factors(&self, destinations: &[NodeId]) -> Option<Vec<f64>> {
        let skew = self.options.skew.filter(|s| !s.is_uniform())?;
        let per_destination = skew.partition_factors(destinations.len());
        let mut factors = vec![1.0; self.spec.len()];
        for (slot, &id) in destinations.iter().enumerate() {
            factors[id] = per_destination[slot];
        }
        Some(factors)
    }

    /// Replicate a per-query engine-scale flow set into `concurrency` groups
    /// of nominal-scale flows, optionally reweighting each flow by its
    /// destination's skew factor. Local flows never touch the network and
    /// are dropped.
    fn batch_flows(
        &self,
        per_query: &FlowSet,
        concurrency: usize,
        skew: Option<&[f64]>,
    ) -> FlowSet {
        let mut set = FlowSet::new();
        for group in 0..concurrency {
            for flow in per_query.flows() {
                if flow.is_local() {
                    continue;
                }
                let factor = skew.map_or(1.0, |f| f[flow.destination]);
                set.push(Flow::with_group(
                    flow.source,
                    flow.destination,
                    flow.bytes * self.scale_ratio * factor,
                    group,
                ));
            }
        }
        set
    }

    /// Price one execution phase: `scanned` and `computed` are batch-scaled
    /// nominal bytes per node, and `flows` cross the simulated fabric. The
    /// closing rule itself is [`PhaseStats::close`], shared with the
    /// analytical model; the runtime's own contribution is the network side
    /// — the fabric-level completion time (congestion included) and the
    /// per-node port volumes of the flows actually routed.
    fn phase_stats(
        &self,
        label: &str,
        scanned: &[Megabytes],
        computed: &[Megabytes],
        flows: &FlowSet,
    ) -> Result<PhaseStats, PStoreError> {
        let network_time = if flows.is_empty() {
            Seconds::zero()
        } else {
            TransferSimulator::new(self.spec.fabric())
                .run(flows)?
                .total_time
        };
        // Measured volumes differ from node to node: one range per node.
        let volumes: Vec<_> = (0..self.spec.len())
            .map(|id| {
                let volumes = NodeVolumes {
                    scanned: scanned[id],
                    computed: computed[id],
                    egress: flows.bytes_out_of(id),
                    ingress: flows.bytes_into(id),
                };
                (id..id + 1, volumes)
            })
            .collect();
        Ok(PhaseStats::close(
            &self.spec,
            label,
            &volumes,
            1.0,
            Some((network_time, flows.network_bytes())),
            self.options.in_memory,
        ))
    }
}

/// The Section 5.2 execution-mode selection rule as a pure function over the
/// node specs, shared by the runtime above and by the closed-form analytical
/// model in `eedc-core` (which must select modes exactly as the runtime does
/// for its predictions to be comparable).
///
/// `total_hash_table` is the full build-side hash-table footprint across all
/// concurrent queries (qualifying bytes × expansion × concurrency). The per
/// destination share depends on the strategy: a broadcast replicates the whole
/// table onto every destination, while shuffled or co-partitioned tables split
/// across them. If the table fits every node, execution is homogeneous;
/// otherwise the Wimpy nodes are demoted and the Beefy subset must hold it —
/// for *both* repartitioning strategies, not just broadcast.
pub fn select_execution_mode(
    nodes: &[NodeSpec],
    strategy: JoinStrategy,
    total_hash_table: Megabytes,
    headroom: f64,
) -> Result<(ExecutionMode, Vec<NodeId>), PStoreError> {
    if nodes.is_empty() {
        return Err(PStoreError::planning(
            "mode selection needs at least one node",
        ));
    }
    let all: Vec<NodeId> = (0..nodes.len()).collect();
    let per_destination = |destinations: &[NodeId]| match strategy {
        // Broadcast puts the whole table on every destination.
        JoinStrategy::Broadcast => total_hash_table,
        // Shuffled / co-partitioned tables split across destinations.
        JoinStrategy::DualShuffle | JoinStrategy::PrePartitioned => {
            total_hash_table / destinations.len() as f64
        }
    };
    let fits = |destinations: &[NodeId]| {
        let ht = per_destination(destinations);
        destinations
            .iter()
            .all(|&id| nodes[id].fits_hash_table(ht, headroom))
    };

    if fits(&all) {
        return Ok((ExecutionMode::Homogeneous, all));
    }
    if strategy == JoinStrategy::PrePartitioned {
        return Err(PStoreError::planning(format!(
            "hash table of {:.0} does not fit the cluster and pre-partitioned data cannot be re-routed",
            per_destination(&all)
        )));
    }
    let beefy: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|&id| nodes[id].is_beefy())
        .collect();
    if !beefy.is_empty() && beefy.len() < nodes.len() && fits(&beefy) {
        return Ok((ExecutionMode::Heterogeneous, beefy));
    }
    let wimpy = nodes.len() - beefy.len();
    Err(PStoreError::planning(format!(
        "build-side hash table ({:.0} total) does not fit any execution mode on a cluster of {} Beefy / {wimpy} Wimpy nodes",
        total_hash_table,
        beefy.len(),
    )))
}

fn validate_query(query: &JoinQuerySpec) -> Result<(), PStoreError> {
    for (label, s) in [
        ("build", query.build_selectivity),
        ("probe", query.probe_selectivity),
    ] {
        if !(s.is_finite() && s > 0.0 && s <= 1.0) {
            return Err(PStoreError::planning(format!(
                "{label} selectivity {s} outside (0, 1]"
            )));
        }
    }
    Ok(())
}

fn table_sizes(tables: &[Table]) -> Vec<Megabytes> {
    tables.iter().map(Table::byte_size).collect()
}

fn scale_volumes(volumes: &[Megabytes], factor: f64) -> Vec<Megabytes> {
    volumes.iter().map(|&v| v * factor).collect()
}

/// Apply per-node skew factors to a volume vector (identity when unskewed).
fn apply_factors(volumes: &[Megabytes], factors: Option<&[f64]>) -> Vec<Megabytes> {
    match factors {
        None => volumes.to_vec(),
        Some(f) => volumes.iter().zip(f).map(|(&v, &x)| v * x).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Bottleneck;
    use eedc_simkit::catalog::{cluster_v_node, laptop_b};
    use eedc_simkit::units::Watts;

    fn uniform_cluster(n: usize) -> PStoreCluster {
        let spec = ClusterSpec::homogeneous(cluster_v_node(), n).unwrap();
        PStoreCluster::load(spec, RunOptions::default()).unwrap()
    }

    #[test]
    fn cluster_spec_labels_follow_paper_convention() {
        let uniform = ClusterSpec::homogeneous(cluster_v_node(), 8).unwrap();
        assert_eq!(uniform.label(), "8B,0W");
        assert_eq!(uniform.len(), 8);
        let mixed = ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 6).unwrap();
        assert_eq!(mixed.label(), "2B,6W");
        assert_eq!(mixed.beefy_ids(), vec![0, 1]);
        assert_eq!(mixed.wimpy_ids(), vec![2, 3, 4, 5, 6, 7]);
        assert!(ClusterSpec::from_nodes(Vec::new()).is_err());
    }

    #[test]
    fn uniform_labels_distinguish_the_design_families() {
        // The regression this guards: all-Wimpy used to be labeled "{n}N",
        // exactly like all-Beefy, so a 4-laptop cluster and a 4-server
        // cluster were indistinguishable in advisor output and figures.
        let all_beefy = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
        let all_wimpy = ClusterSpec::homogeneous(laptop_b(), 4).unwrap();
        assert_eq!(all_beefy.label(), "4B,0W");
        assert_eq!(all_wimpy.label(), "0B,4W");
        assert_ne!(all_beefy.label(), all_wimpy.label());
    }

    #[test]
    fn from_nodes_gives_each_node_its_own_port_and_propagates_fabric_errors() {
        use eedc_netsim::NetError;
        use eedc_simkit::units::MegabytesPerSec;

        let mixed = ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 2).unwrap();
        assert_ne!(
            mixed.nodes()[0].network_bandwidth,
            mixed.nodes()[3].network_bandwidth
        );
        for (id, node) in mixed.nodes().iter().enumerate() {
            assert_eq!(mixed.fabric().egress(id).unwrap(), node.network_bandwidth);
            assert_eq!(mixed.fabric().ingress(id).unwrap(), node.network_bandwidth);
        }

        let with_nic = |bandwidth: f64| {
            let mut bad = laptop_b();
            bad.network_bandwidth = MegabytesPerSec(bandwidth);
            vec![cluster_v_node(), bad]
        };
        let rejected = [
            ("no nodes", Vec::new()),
            ("zero", with_nic(0.0)),
            ("negative", with_nic(-100.0)),
            ("NaN", with_nic(f64::NAN)),
            ("infinite", with_nic(f64::INFINITY)),
        ];
        for (case, nodes) in rejected {
            let error = ClusterSpec::from_nodes(nodes).unwrap_err();
            assert!(
                matches!(
                    error,
                    PStoreError::Network(NetError::InvalidParameter { .. })
                ),
                "{case}: {error:?}"
            );
        }
    }

    #[test]
    fn sub_cluster_is_a_checked_window_that_shares_the_node_list() {
        use eedc_netsim::NetError;

        let full = ClusterSpec::heterogeneous(cluster_v_node(), 3, laptop_b(), 4).unwrap();
        let window = full.sub_cluster(1..5).unwrap();
        assert_eq!(window.label(), "2B,2W");
        assert_eq!(window.len(), 4);
        assert!(!window.is_empty());
        assert_eq!(window.nodes(), &full.nodes()[1..5]);
        assert_eq!(window.beefy_ids(), vec![0, 1]);
        assert_eq!(window.wimpy_ids(), vec![2, 3]);
        assert_eq!(window.fabric().len(), 4);
        assert!(std::ptr::eq(window.nodes().as_ptr(), &full.nodes()[1]));

        // A window of a window counts from the inner window's first node.
        let inner = window.sub_cluster(1..4).unwrap();
        assert_eq!(inner.label(), "1B,2W");
        assert!(std::ptr::eq(inner.nodes().as_ptr(), &full.nodes()[2]));
        for (id, node) in inner.nodes().iter().enumerate() {
            assert_eq!(inner.fabric().egress(id).unwrap(), node.network_bandwidth);
        }
        // The whole range is the same design again; a clone shares too.
        let whole = inner.sub_cluster(0..inner.len()).unwrap();
        assert_eq!(whole.nodes(), inner.nodes());
        assert!(std::ptr::eq(
            inner.clone().nodes().as_ptr(),
            inner.nodes().as_ptr()
        ));

        // An empty range is the fabric's error, as an empty node list is.
        assert!(matches!(
            full.sub_cluster(3..3).unwrap_err(),
            PStoreError::Network(NetError::InvalidParameter { .. })
        ));
        // A range that is no range of this spec is a planning error — judged
        // against the window's own length, not the shared list's.
        let reversed = Range { start: 2, end: 1 };
        for range in [reversed, 0..full.len() + 1] {
            assert!(matches!(
                full.sub_cluster(range).unwrap_err(),
                PStoreError::Planning { .. }
            ));
        }
        assert!(matches!(
            window.sub_cluster(0..5).unwrap_err(),
            PStoreError::Planning { .. }
        ));

        // A spec can cross threads: the shared list is an `Arc`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterSpec>();
    }

    #[test]
    fn runs_are_the_maximal_ranges_of_equal_specs_clipped_to_the_window() {
        let (b, w) = (cluster_v_node(), laptop_b());
        // As `(start, end)` pairs.
        let runs = |spec: &ClusterSpec| spec.runs().map(|r| (r.start, r.end)).collect::<Vec<_>>();
        assert_eq!(
            runs(&ClusterSpec::homogeneous(b.clone(), 5).unwrap()),
            [(0, 5)]
        );
        let mixed = ClusterSpec::heterogeneous(b.clone(), 3, w.clone(), 4).unwrap();
        assert_eq!(runs(&mixed), [(0, 3), (3, 7)]);
        // No Beefy nodes: one run, not an empty one in front.
        let wimpy = ClusterSpec::heterogeneous(b.clone(), 0, w.clone(), 2).unwrap();
        assert_eq!(runs(&wimpy), [(0, 2)]);
        let bwb = vec![b.clone(), w.clone(), b.clone()];
        assert_eq!(
            runs(&ClusterSpec::from_nodes(bwb).unwrap()),
            [(0, 1), (1, 2), (2, 3)]
        );

        // Windows clip the shared runs and count from their own first node;
        // a window of a window composes.
        let window = mixed.sub_cluster(1..5).unwrap();
        assert_eq!(runs(&window), [(0, 2), (2, 4)]);
        assert_eq!(runs(&window.sub_cluster(2..4).unwrap()), [(0, 2)]);
        assert_eq!(runs(&window.sub_cluster(1..3).unwrap()), [(0, 1), (1, 2)]);
        assert_eq!(runs(&mixed.sub_cluster(6..7).unwrap()), [(0, 1)]);
        assert_eq!(runs(&mixed.sub_cluster(0..3).unwrap()), [(0, 3)]);

        // Equal by value is equal, however the specs were made.
        let twice = ClusterSpec::from_nodes(vec![cluster_v_node(), cluster_v_node()]).unwrap();
        assert_eq!(runs(&twice), [(0, 2)]);
        let same = ClusterSpec::heterogeneous(b.clone(), 2, cluster_v_node(), 3).unwrap();
        assert_eq!(runs(&same), [(0, 5)]);
        // A NaN field never joins a run, not even with a copy of itself.
        for edit in [
            (|n: &mut NodeSpec| n.memory = Megabytes(f64::NAN)) as fn(&mut NodeSpec),
            |n| n.cpu_bandwidth.0 = f64::NAN,
        ] {
            let mut nan = b.clone();
            edit(&mut nan);
            let spec = ClusterSpec::from_nodes(vec![nan.clone(), nan, b.clone()]).unwrap();
            assert_eq!(runs(&spec), [(0, 1), (1, 2), (2, 3)]);
        }
    }

    #[test]
    fn debug_shows_the_window_not_the_shared_list() {
        let full = ClusterSpec::heterogeneous(cluster_v_node(), 48, laptop_b(), 96).unwrap();
        let one = format!("{:?}", full.sub_cluster(47..48).unwrap());
        assert_eq!(one.matches("NodeSpec {").count(), 1, "{one}");
        assert!(one.contains("runs: [0..1]"), "{one}");
        let two = format!("{:?}", full.sub_cluster(47..49).unwrap());
        assert_eq!(two.matches("NodeSpec {").count(), 2, "{two}");
        assert!(two.contains("runs: [0..1, 1..2]"), "{two}");
    }

    #[test]
    fn shuffle_join_moves_data_consumes_energy_and_matches_reference() {
        // The acceptance experiment: a dual-shuffle join on four nodes must
        // report nonzero network transfer time and nonzero joules in both
        // phases, and its distributed output cardinality must equal the
        // scalar reference join.
        let cluster = uniform_cluster(4);
        let query = JoinQuerySpec::q3_dual_shuffle();
        let execution = cluster.run(&query, JoinStrategy::DualShuffle).unwrap();

        assert_eq!(execution.phases.len(), 2);
        for phase in &execution.phases {
            assert!(
                phase.network_time.value() > 0.0,
                "{} phase network time is zero",
                phase.label
            );
            assert!(
                phase.energy.value() > 0.0,
                "{} phase energy is zero",
                phase.label
            );
            assert!(phase.bytes_over_network.value() > 0.0);
            assert_eq!(phase.node_utilization.len(), 4);
            // The paper's central observation: with memory-resident data the
            // repartitioning join is gated by the interconnect.
            assert_eq!(phase.bottleneck, Bottleneck::Network);
        }
        let reference = cluster.reference_join_rows(&query).unwrap();
        assert!(reference > 0);
        assert_eq!(execution.output_rows, Some(reference));
        assert_eq!(execution.mode, ExecutionMode::Homogeneous);
        assert_eq!(execution.cluster_label, "4B,0W");
        assert!(execution.response_time().value() > 0.0);
    }

    #[test]
    fn prepartitioned_join_never_touches_the_network() {
        let cluster = uniform_cluster(4);
        let query = JoinQuerySpec::q3_dual_shuffle();
        let execution = cluster.run(&query, JoinStrategy::PrePartitioned).unwrap();
        assert_eq!(execution.bytes_over_network(), Megabytes::zero());
        for phase in &execution.phases {
            assert_eq!(phase.network_time, Seconds::zero());
            assert!(phase.energy.value() > 0.0);
        }
        assert_eq!(
            execution.output_rows,
            Some(cluster.reference_join_rows(&query).unwrap())
        );
    }

    #[test]
    fn all_strategies_agree_on_cardinality() {
        let cluster = uniform_cluster(3);
        let query = JoinQuerySpec::new(0.10, 0.05);
        let reference = cluster.reference_join_rows(&query).unwrap();
        for strategy in JoinStrategy::ALL {
            let execution = cluster.run(&query, strategy).unwrap();
            assert_eq!(
                execution.output_rows,
                Some(reference),
                "strategy {strategy}"
            );
        }
    }

    #[test]
    fn oversized_hash_table_demotes_wimpy_nodes() {
        // At SF-1000, a 50%-selectivity broadcast build side is a ~30 GB hash
        // table: it fits the 48 GB Beefy nodes (with 20% headroom) but not
        // the 8 GB Wimpy laptops, so execution must go heterogeneous.
        let spec = ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 2).unwrap();
        let options = RunOptions {
            nominal_scale: ScaleFactor::SF1000,
            ..RunOptions::default()
        };
        let cluster = PStoreCluster::load(spec, options).unwrap();
        let query = JoinQuerySpec::new(0.5, 0.05);
        let execution = cluster.run(&query, JoinStrategy::Broadcast).unwrap();
        assert_eq!(execution.mode, ExecutionMode::Heterogeneous);
        // Wimpy nodes still scanned, so the probe phase shuffles their
        // qualifying tuples to the Beefy nodes.
        let probe = execution.phase("probe").unwrap();
        assert!(probe.network_time.value() > 0.0);
        assert_eq!(
            execution.output_rows,
            Some(cluster.reference_join_rows(&query).unwrap())
        );
        // The same query at the default small nominal scale is homogeneous.
        let small = uniform_cluster(4)
            .run(&query, JoinStrategy::Broadcast)
            .unwrap();
        assert_eq!(small.mode, ExecutionMode::Homogeneous);
    }

    #[test]
    fn oversized_hash_table_demotes_wimpy_nodes_under_dual_shuffle() {
        // The demotion rule is not broadcast-specific. Under DualShuffle the
        // hash table splits across the destinations, so on 2 Beefy + 2 Wimpy
        // nodes a ~30 GB table is ~7.5 GB per node — over the 8 GB Wimpy
        // laptops' usable memory (20% headroom → 6.4 GB) but fine for the two
        // 48 GB Beefy nodes at ~15 GB each. The Wimpy nodes must be demoted
        // to scan-and-filter producers and the join must still be exact.
        let spec = ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 2).unwrap();
        let options = RunOptions {
            nominal_scale: ScaleFactor::SF1000,
            ..RunOptions::default()
        };
        let cluster = PStoreCluster::load(spec, options).unwrap();
        let query = JoinQuerySpec::new(0.5, 0.05);
        let execution = cluster.run(&query, JoinStrategy::DualShuffle).unwrap();
        assert_eq!(execution.mode, ExecutionMode::Heterogeneous);
        // Both phases shuffle into the Beefy subset only, so both cross the
        // network.
        for phase in &execution.phases {
            assert!(
                phase.network_time.value() > 0.0,
                "{} phase network time is zero",
                phase.label
            );
        }
        assert_eq!(
            execution.output_rows,
            Some(cluster.reference_join_rows(&query).unwrap())
        );
        // The same cluster under the same query stays heterogeneous for
        // broadcast too (the existing demotion path), and the two modes agree
        // on cardinality.
        let broadcast = cluster.run(&query, JoinStrategy::Broadcast).unwrap();
        assert_eq!(broadcast.mode, ExecutionMode::Heterogeneous);
        assert_eq!(broadcast.output_rows, execution.output_rows);
    }

    #[test]
    fn impossible_hash_tables_are_planning_errors() {
        // An all-Wimpy cluster cannot hold a 30 GB broadcast hash table in
        // any mode.
        let spec = ClusterSpec::homogeneous(laptop_b(), 4).unwrap();
        let options = RunOptions {
            nominal_scale: ScaleFactor::SF1000,
            ..RunOptions::default()
        };
        let cluster = PStoreCluster::load(spec, options).unwrap();
        let query = JoinQuerySpec::new(0.5, 0.05);
        let err = cluster.run(&query, JoinStrategy::Broadcast).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn invalid_queries_and_options_are_rejected() {
        let cluster = uniform_cluster(2);
        assert!(cluster
            .run(&JoinQuerySpec::new(0.0, 0.5), JoinStrategy::DualShuffle)
            .is_err());
        assert!(cluster
            .run(&JoinQuerySpec::new(0.5, 1.5), JoinStrategy::DualShuffle)
            .is_err());
        assert!(cluster
            .run_batch(
                &JoinQuerySpec::q3_dual_shuffle(),
                JoinStrategy::DualShuffle,
                0
            )
            .is_err());

        let spec = ClusterSpec::homogeneous(cluster_v_node(), 2).unwrap();
        let bad = RunOptions {
            engine_scale: ScaleFactor(0.0),
            ..RunOptions::default()
        };
        assert!(PStoreCluster::load(spec.clone(), bad).is_err());
        let bad = RunOptions {
            hash_table_headroom: 1.5,
            ..RunOptions::default()
        };
        assert!(PStoreCluster::load(spec.clone(), bad).is_err());
        let bad = RunOptions {
            hash_table_expansion: 0.5,
            ..RunOptions::default()
        };
        assert!(PStoreCluster::load(spec, bad).is_err());
    }

    #[test]
    fn skewed_keys_unbalance_the_hottest_node() {
        // Section 4.1's deferred third bottleneck: a Zipf-skewed join key
        // routes a disproportionate share of the shuffled bytes to the node
        // owning the hot partition. The skewed run must dominate the uniform
        // run on the hottest node — higher peak utilization and a higher
        // utilization spread — while the engine-scale join stays exact.
        let spec = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
        let uniform = PStoreCluster::load(spec.clone(), RunOptions::default()).unwrap();
        // A tight key domain under heavy skew: the hot partition receives
        // roughly double its uniform share.
        let skew = JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        };
        let skewed = PStoreCluster::load(
            spec,
            RunOptions {
                skew: Some(skew),
                ..RunOptions::default()
            },
        )
        .unwrap();
        // Wide 50% predicates so the hash-partitioned (shuffled) volumes are
        // comparable to the scanned volumes — with Q3's 5% predicates the
        // qualifying bytes are a rounding error next to the scans and the
        // imbalance would be invisible in utilization.
        let query = JoinQuerySpec::new(0.5, 0.5);

        let u = uniform.run(&query, JoinStrategy::DualShuffle).unwrap();
        let s = skewed.run(&query, JoinStrategy::DualShuffle).unwrap();

        for (up, sp) in u.phases.iter().zip(&s.phases) {
            // The hottest node burns strictly more energy under skew: it
            // receives a disproportionate share of the shuffled bytes and the
            // whole (stretched) phase runs at its pace.
            let hot_energy = |p: &PhaseStats| {
                p.node_energy
                    .iter()
                    .map(|e| e.value())
                    .fold(0.0_f64, f64::max)
            };
            assert!(
                hot_energy(sp) > hot_energy(up),
                "{}: skewed hottest-node energy {:.1} does not dominate uniform {:.1}",
                sp.label,
                hot_energy(sp),
                hot_energy(up),
            );
            // Per-node energies always sum to the phase energy.
            let total: f64 = sp.node_energy.iter().map(|e| e.value()).sum();
            assert!((total - sp.energy.value()).abs() < 1e-6 * sp.energy.value().max(1.0));
        }
        // The imbalance also shows in utilization where hash-partitioned
        // volume carries real weight (the probe phase moves 4x the build
        // bytes): the hottest node's share of total utilization exceeds the
        // uniform run's ~1/4.
        let hot_share =
            |xs: &[f64]| xs.iter().copied().fold(0.0_f64, f64::max) / xs.iter().sum::<f64>();
        let u_probe = u.phase("probe").unwrap();
        let s_probe = s.phase("probe").unwrap();
        assert!(
            hot_share(&s_probe.node_utilization) > hot_share(&u_probe.node_utilization) + 0.01,
            "probe: skewed hot share {:.3} vs uniform {:.3}",
            hot_share(&s_probe.node_utilization),
            hot_share(&u_probe.node_utilization),
        );
        // The hot port also stretches the network-bound response time.
        assert!(s.response_time() > u.response_time());
        // Correctness is untouched: skew reweights modeled volumes only.
        assert_eq!(s.output_rows, u.output_rows);
        assert_eq!(
            s.output_rows,
            Some(uniform.reference_join_rows(&query).unwrap())
        );

        // theta = 0 must behave exactly like the unskewed default.
        let zero = PStoreCluster::load(
            ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap(),
            RunOptions {
                skew: Some(JoinSkew::zipf(0.0)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let z = zero.run(&query, JoinStrategy::DualShuffle).unwrap();
        assert_eq!(z.measurement(), u.measurement());

        // Invalid skew parameters are planning errors.
        let bad = RunOptions {
            skew: Some(JoinSkew {
                theta: f64::NAN,
                ..JoinSkew::zipf(1.0)
            }),
            ..RunOptions::default()
        };
        let spec = ClusterSpec::homogeneous(cluster_v_node(), 2).unwrap();
        assert!(PStoreCluster::load(spec, bad).is_err());
    }

    #[test]
    fn broadcast_build_side_is_immune_to_skew() {
        // A replicated build table puts the same bytes on every destination
        // no matter how the keys are distributed; only the (shuffled) probe
        // side of a heterogeneous broadcast can skew.
        let spec = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
        let uniform = PStoreCluster::load(spec.clone(), RunOptions::default()).unwrap();
        let skewed = PStoreCluster::load(
            spec,
            RunOptions {
                skew: Some(JoinSkew::zipf(1.2)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let query = JoinQuerySpec::q3_broadcast();
        let u = uniform.run(&query, JoinStrategy::Broadcast).unwrap();
        let s = skewed.run(&query, JoinStrategy::Broadcast).unwrap();
        // Homogeneous broadcast: build replicated, probe local — identical.
        assert_eq!(u.mode, ExecutionMode::Homogeneous);
        assert_eq!(s.measurement(), u.measurement());
    }

    /// The paper's 1/2/4 concurrent dual-shuffle batches on four nodes.
    fn paper_batches(cluster: &PStoreCluster) -> Vec<QueryExecution> {
        let query = JoinQuerySpec::q3_dual_shuffle();
        [1, 2, 4]
            .iter()
            .map(|&level| {
                cluster
                    .run_batch(&query, JoinStrategy::DualShuffle, level)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn concurrent_shuffles_share_the_interconnect() {
        // Figure 3: doubling the number of concurrent network-bound joins
        // roughly doubles the batch completion time — the queries split the
        // same ports, so no extra throughput materialises.
        let batches = paper_batches(&uniform_cluster(4));
        let times: Vec<f64> = batches.iter().map(|e| e.response_time().value()).collect();
        assert!(times[1] > times[0]);
        assert!(times[2] > times[1]);
        // No super-linear slowdown either: 4 queries take at most ~4x one.
        assert!(times[2] <= times[0] * 4.0 + 1e-6);
        // Completed queries per second stay roughly flat across the sweep.
        let ratio = (4.0 / times[2]) / (1.0 / times[0]);
        assert!((0.8..=1.3).contains(&ratio), "throughput ratio {ratio}");
    }

    #[test]
    fn batches_preserve_per_query_cardinality() {
        let cluster = uniform_cluster(4);
        let reference = cluster
            .reference_join_rows(&JoinQuerySpec::q3_dual_shuffle())
            .unwrap();
        for (execution, level) in paper_batches(&cluster).iter().zip([1, 2, 4]) {
            assert_eq!(execution.concurrency, level);
            assert_eq!(execution.output_rows, Some(reference), "level {level}");
        }
    }

    #[test]
    fn batch_energy_grows_with_concurrency() {
        // Figure 4: every level burns energy, and the whole batch burns more
        // the more queries share the cluster.
        let batches = paper_batches(&uniform_cluster(4));
        let totals: Vec<f64> = batches.iter().map(|e| e.energy().value()).collect();
        assert!(totals[0] > 0.0);
        assert!(totals[1] > totals[0]);
        assert!(totals[2] > totals[1]);
    }

    #[test]
    fn average_power_stays_within_the_node_envelope() {
        let cluster = uniform_cluster(4);
        let execution = cluster
            .run(&JoinQuerySpec::q3_dual_shuffle(), JoinStrategy::DualShuffle)
            .unwrap();
        let node = cluster_v_node();
        let peak_cluster: Watts = node.peak_power() * 4.0;
        for phase in &execution.phases {
            let power = phase.average_power();
            assert!(power.value() > 0.0);
            assert!(power.value() <= peak_cluster.value() + 1e-9);
        }
    }
}
