//! The first-order scaling law of Section 3.1.
//!
//! Node-local work speeds up linearly with the node count, repartitioning
//! work is pinned by the per-node port bandwidth, and broadcast work grows
//! slightly as nodes are added. It is exactly why Q1-style queries scale
//! while Q12-style queries flatten out — the origin of the paper's
//! energy-proportionality gap.
//!
//! Beyond the relative law, [`BehaviouralModel::predict`] produces *absolute*
//! `(response time, energy)` points for a cluster of [`NodeSpec`]s, anchored
//! at a reference response time: nodes run flat out during the node-local
//! share of the query and sit at the engine utilization floor while
//! network-bound, so the per-node wall power follows the paper's
//! utilization→power regressions. This is what drives the Vertica SF-1000
//! scale-down study (Figures 1–2) through the `Workload`/`Estimator`
//! experiment API in `eedc-core`. For the finer-grained, trace-driven
//! treatment of the same argument see [`crate::trace`] and
//! [`mod@crate::replay`].

use eedc_simkit::units::{Joules, Seconds};
use eedc_simkit::NodeSpec;
use eedc_tpch::QueryProfile;

/// First-order behavioural scaling model for one query profile.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviouralModel {
    /// The measured profile being extrapolated.
    pub profile: QueryProfile,
    /// Node count at which the profile's fractions were measured.
    pub reference_nodes: usize,
}

impl BehaviouralModel {
    /// A model extrapolating from the paper's eight-node Cluster-V
    /// measurements.
    pub fn from_paper(profile: QueryProfile) -> Self {
        Self {
            profile,
            reference_nodes: 8,
        }
    }

    /// A broadcast delivers (n-1)/n of the table to every node no matter how
    /// many participate, so the broadcast term grows gently with n.
    fn broadcast_shape(k: f64) -> f64 {
        if k <= 1.0 {
            0.0
        } else {
            (k - 1.0) / k
        }
    }

    /// Broadcast fraction rescaled by `shape / shape(reference)`; a
    /// single-node reference has no broadcast shape, so the fraction is
    /// carried through unscaled.
    fn broadcast_term(&self, shape: f64) -> f64 {
        let reference_shape = Self::broadcast_shape(self.reference_nodes.max(1) as f64);
        if reference_shape <= 0.0 {
            self.profile.broadcast_fraction
        } else {
            self.profile.broadcast_fraction * shape / reference_shape
        }
    }

    /// Predicted response time at `nodes` nodes, relative to the reference
    /// configuration (1.0 = as fast as the reference).
    pub fn relative_response_time(&self, nodes: usize) -> f64 {
        let n = nodes.max(1) as f64;
        let r = self.reference_nodes.max(1) as f64;
        let local = self.profile.local_fraction * r / n;
        let repartition = self.profile.repartition_fraction;
        local + repartition + self.broadcast_term(Self::broadcast_shape(n))
    }

    /// The response-time floor as the cluster grows without bound: the
    /// network-bound fractions never shrink.
    ///
    /// Computed as the exact closed-form limit of
    /// [`relative_response_time`](Self::relative_response_time): the local
    /// term vanishes, the repartition term is constant, and the broadcast
    /// shape `(n-1)/n` tends to 1, leaving
    /// `repartition + broadcast / shape(reference)`.
    pub fn scaling_floor(&self) -> f64 {
        // lim_{n→∞} broadcast_shape(n) = 1.
        self.profile.repartition_fraction + self.broadcast_term(1.0)
    }

    /// Fraction of the predicted execution at `nodes` nodes spent on
    /// node-local (CPU-busy) work; the remainder is network-bound stall.
    pub fn local_share(&self, nodes: usize) -> f64 {
        let rel = self.relative_response_time(nodes);
        if rel <= f64::EPSILON {
            return 1.0;
        }
        let n = nodes.max(1) as f64;
        let r = self.reference_nodes.max(1) as f64;
        ((self.profile.local_fraction * r / n) / rel).clamp(0.0, 1.0)
    }

    /// Absolute behavioural prediction for a cluster of `nodes`, anchored at
    /// `reference_time` — the measured (or assumed) response time of the
    /// query on the model's reference configuration.
    ///
    /// The energy model is deliberately first order, mirroring what the
    /// paper observed on Vertica: a node is CPU-saturated during the
    /// node-local share of the run and idles at the engine utilization floor
    /// while the query is network-bound, so its time-averaged utilization is
    /// `G + busy·(1 − G)` and its wall power follows the published
    /// utilization→power regression. As the cluster grows, the busy share
    /// shrinks while the stalled share does not — total energy stops falling
    /// long before response time does, which is the energy-proportionality
    /// gap of Figures 1–2.
    pub fn predict(&self, nodes: &[NodeSpec], reference_time: Seconds) -> BehaviouralPrediction {
        let count = nodes.len();
        let relative_response_time = self.relative_response_time(count);
        let response_time = reference_time * relative_response_time;
        let busy = self.local_share(count);
        let mut energy = Joules::zero();
        let mut node_utilization = Vec::with_capacity(count);
        let mut node_energy = Vec::with_capacity(count);
        for node in nodes {
            let utilization =
                (node.utilization_floor + busy * (1.0 - node.utilization_floor)).clamp(0.0, 1.0);
            node_utilization.push(utilization);
            let joules = node.power_at(utilization) * response_time;
            node_energy.push(joules);
            energy += joules;
        }
        BehaviouralPrediction {
            nodes: count,
            relative_response_time,
            response_time,
            energy,
            node_utilization,
            node_energy,
        }
    }
}

/// An absolute behavioural prediction: the first-order scaling law applied
/// to a concrete cluster, with the paper's utilization→power energy model.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviouralPrediction {
    /// Number of nodes in the predicted configuration.
    pub nodes: usize,
    /// Response time relative to the reference configuration (1.0 = as fast
    /// as the reference).
    pub relative_response_time: f64,
    /// Predicted absolute response time.
    pub response_time: Seconds,
    /// Predicted total cluster energy over the run.
    pub energy: Joules,
    /// Per-node time-averaged CPU utilization, in cluster node order.
    pub node_utilization: Vec<f64>,
    /// Per-node energy over the run, in cluster node order; sums to
    /// `energy`.
    pub node_energy: Vec<Joules>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eedc_tpch::QueryId;

    #[test]
    fn perfectly_local_queries_scale_linearly() {
        let model = BehaviouralModel::from_paper(QueryProfile::paper(QueryId::Q1));
        let t8 = model.relative_response_time(8);
        let t16 = model.relative_response_time(16);
        assert!((t8 - 1.0).abs() < 1e-12);
        assert!((t16 - 0.5).abs() < 1e-12);
        assert!((model.relative_response_time(4) - 2.0).abs() < 1e-12);
        // A perfectly local query has no network-bound work at all: its
        // closed-form floor is exactly zero, not merely small.
        assert_eq!(model.scaling_floor(), 0.0);
    }

    #[test]
    fn repartition_heavy_queries_flatten_out() {
        // Q12 spends 48% of its execution repartitioning: doubling the nodes
        // from 8 to 16 only removes half of the *local* 52%.
        let model = BehaviouralModel::from_paper(QueryProfile::paper(QueryId::Q12));
        let t16 = model.relative_response_time(16);
        assert!((t16 - (0.52 / 2.0 + 0.48)).abs() < 1e-12);
        // The closed-form floor is the repartition fraction itself — exactly
        // 0.48, with no float-rounding slack (the old implementation
        // evaluated the model at `usize::MAX / 2` and leaned on rounding).
        assert_eq!(model.scaling_floor(), 0.48);
        // ... and the finite-size curve stays above it while still falling.
        let t48 = model.relative_response_time(48);
        assert!(t48 > 0.48 && t48 < t16, "t48 {t48}");
        // Shrinking the cluster slows the query down.
        assert!(model.relative_response_time(4) > 1.0);
    }

    #[test]
    fn broadcast_fractions_raise_the_floor_above_the_repartition_share() {
        // A synthetic profile with broadcast work: at the 8-node reference the
        // broadcast shape is 7/8, and as n → ∞ the shape tends to 1, so the
        // floor is repartition + broadcast · 8/7 — *above* the naive
        // repartition + broadcast sum.
        let mut profile = QueryProfile::paper(QueryId::Q12);
        profile.local_fraction = 0.45;
        profile.repartition_fraction = 0.35;
        profile.broadcast_fraction = 0.20;
        let model = BehaviouralModel::from_paper(profile.clone());
        let floor = model.scaling_floor();
        assert!((floor - (0.35 + 0.20 * 8.0 / 7.0)).abs() < 1e-12);
        // The finite-n model approaches the closed form from above (the
        // vanishing local term dominates the broadcast-shape deficit here).
        let near = model.relative_response_time(1_000_000);
        assert!(near > floor);
        assert!((near - floor) < 1e-4);

        // Degenerate single-node reference: the broadcast term is carried
        // through unscaled, in both the model and its limit.
        let single = BehaviouralModel {
            profile,
            reference_nodes: 1,
        };
        assert!((single.scaling_floor() - (0.35 + 0.20)).abs() < 1e-12);
    }

    #[test]
    fn absolute_predictions_anchor_at_the_reference() {
        use eedc_simkit::catalog::cluster_v_node;
        let model = BehaviouralModel::from_paper(QueryProfile::paper(QueryId::Q12));
        let nodes = vec![cluster_v_node(); 8];
        let p = model.predict(&nodes, Seconds(100.0));
        assert_eq!(p.nodes, 8);
        assert!((p.relative_response_time - 1.0).abs() < 1e-9);
        assert!((p.response_time.value() - 100.0).abs() < 1e-6);
        assert_eq!(p.node_utilization.len(), 8);
        for &u in &p.node_utilization {
            assert!(u > cluster_v_node().utilization_floor - 1e-12 && u <= 1.0);
        }
        assert!(p.energy.value() > 0.0);
        // Per-node energies are carried explicitly and sum to the total.
        assert_eq!(p.node_energy.len(), 8);
        let total: f64 = p.node_energy.iter().map(|e| e.value()).sum();
        assert!((total - p.energy.value()).abs() < 1e-9 * total);
    }

    #[test]
    fn local_queries_scale_perfectly_in_time_and_energy() {
        use eedc_simkit::catalog::cluster_v_node;
        // Q1 is 100% node-local: every node is CPU-saturated the whole run,
        // so doubling the cluster halves the time at *constant* energy —
        // the one case with no energy-proportionality gap.
        let model = BehaviouralModel::from_paper(QueryProfile::paper(QueryId::Q1));
        let p8 = model.predict(&vec![cluster_v_node(); 8], Seconds(100.0));
        let p16 = model.predict(&vec![cluster_v_node(); 16], Seconds(100.0));
        assert!((p16.response_time.value() / p8.response_time.value() - 0.5).abs() < 1e-9);
        assert!((p16.energy.value() / p8.energy.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn network_bound_queries_pay_the_energy_proportionality_gap() {
        use eedc_simkit::catalog::cluster_v_node;
        // Q12 spends 48% of its execution network-bound: the extra nodes of
        // a 16-node cluster mostly idle at the utilization floor, so the
        // speedup is sub-linear and total energy *rises*.
        let model = BehaviouralModel::from_paper(QueryProfile::paper(QueryId::Q12));
        let p8 = model.predict(&vec![cluster_v_node(); 8], Seconds(100.0));
        let p16 = model.predict(&vec![cluster_v_node(); 16], Seconds(100.0));
        assert!(p16.response_time < p8.response_time);
        assert!(p16.response_time.value() > p8.response_time.value() * 0.5);
        assert!(p16.energy > p8.energy, "no gap: {:?}", p16.energy);
        // The stalled share shows in utilization: nodes run cooler at 16.
        assert!(p16.node_utilization[0] < p8.node_utilization[0]);
        // local_share is the busy fraction behind those utilizations.
        assert!((model.local_share(8) - 0.52).abs() < 1e-9);
        assert!(model.local_share(16) < 0.52);
        assert!(
            (BehaviouralModel::from_paper(QueryProfile::paper(QueryId::Q1)).local_share(16) - 1.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn reference_configuration_is_the_unit_point() {
        for query in [QueryId::Q1, QueryId::Q3, QueryId::Q12, QueryId::Q21] {
            let model = BehaviouralModel::from_paper(QueryProfile::paper(query));
            let t = model.relative_response_time(8);
            assert!((t - 1.0).abs() < 1e-9, "{query}: {t}");
        }
    }
}
