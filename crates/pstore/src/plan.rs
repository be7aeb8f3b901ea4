//! Join strategies, query specifications, and join-key skew.

use eedc_tpch::ZipfKeys;
use std::fmt;

/// How a partition-incompatible two-table join moves data, mirroring the two
/// execution methods of Section 4.3 plus the partition-compatible baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Repartition (shuffle) both inputs on the join key — Section 4.3.1.
    DualShuffle,
    /// Broadcast the qualifying build-side tuples to every participating
    /// node so the probe side never moves — Section 4.3.2.
    Broadcast,
    /// The inputs are already co-partitioned on the join key; no network
    /// traffic at all (the "prepartitioned" baseline of Figure 5).
    PrePartitioned,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl JoinStrategy {
    /// All strategies, in the order Figure 5 presents them.
    pub const ALL: [JoinStrategy; 3] = [
        JoinStrategy::DualShuffle,
        JoinStrategy::Broadcast,
        JoinStrategy::PrePartitioned,
    ];

    /// The strategy's label: its `Display` text and its serialized form.
    pub const fn as_str(self) -> &'static str {
        match self {
            JoinStrategy::DualShuffle => "dual-shuffle",
            JoinStrategy::Broadcast => "broadcast",
            JoinStrategy::PrePartitioned => "prepartitioned",
        }
    }
}

/// Inverse of [`JoinStrategy::as_str`], so serialized run records (the
/// `eedc_core::json` reader) round-trip.
impl std::str::FromStr for JoinStrategy {
    type Err = crate::error::PStoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|strategy| strategy.as_str() == s)
            .ok_or_else(|| {
                crate::error::PStoreError::planning(format!("unknown join strategy '{s}'"))
            })
    }
}

/// Parameters of the LINEITEM ⋈ ORDERS hash join the paper studies: the
/// predicate selectivities on the two inputs.
///
/// Following the paper's convention, ORDERS is always the (smaller) build
/// side and LINEITEM the probe side, joined on `ORDERKEY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinQuerySpec {
    /// Selectivity of the predicate on the build (ORDERS) input, in `(0, 1]`.
    pub build_selectivity: f64,
    /// Selectivity of the predicate on the probe (LINEITEM) input, in
    /// `(0, 1]`.
    pub probe_selectivity: f64,
}

impl JoinQuerySpec {
    /// A join with the given ORDERS (build) and LINEITEM (probe)
    /// selectivities.
    pub fn new(build_selectivity: f64, probe_selectivity: f64) -> Self {
        Self {
            build_selectivity,
            probe_selectivity,
        }
    }

    /// The TPC-H Q3-style join of Section 4.3: 5% selectivity on both inputs.
    pub fn q3_dual_shuffle() -> Self {
        Self::new(0.05, 0.05)
    }

    /// The broadcast variant of Section 4.3.2: ORDERS tightened to 1% so the
    /// full hash table fits in memory on every node, LINEITEM kept at 5%.
    pub fn q3_broadcast() -> Self {
        Self::new(0.01, 0.05)
    }

    /// Compact label such as `"O5%/L5%"`, used in reports.
    pub fn label(&self) -> String {
        format!(
            "O{}%/L{}%",
            format_pct(self.build_selectivity),
            format_pct(self.probe_selectivity)
        )
    }
}

/// Zipf skew on the join-key distribution — Section 4.1's deferred "third
/// bottleneck". Hash partitioning on a skewed key no longer splits work
/// `1/n`: the partition holding the hottest keys receives a
/// disproportionate share of the shuffled bytes, the hash-table build, and
/// the probe work, which surfaces as per-node utilization and energy
/// imbalance.
///
/// The runtime keeps executing the *engine-scale* join against the real
/// (uniform) generated keys — correctness is unchanged — and reweights the
/// *nominal-scale* volumes it feeds the time/energy models by the Zipf
/// partition weights, exactly as the engine/nominal scale split already
/// works for byte volumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSkew {
    /// Zipf exponent of the join-key popularity distribution. `0` is
    /// uniform; `~1` is the classic heavy skew.
    pub theta: f64,
    /// Number of distinct join keys the distribution ranges over.
    pub key_domain: u64,
    /// Seed of the deterministic generator (kept so that workloads replaying
    /// a skewed run reproduce the same weights).
    pub seed: u64,
}

impl JoinSkew {
    /// Default join-key domain: the ORDERS key space of a small engine-scale
    /// run is O(10^5) distinct keys, which keeps weight evaluation cheap.
    pub const DEFAULT_KEY_DOMAIN: u64 = 100_000;

    /// A Zipf skew with the given exponent over the default key domain.
    pub fn zipf(theta: f64) -> Self {
        Self {
            theta,
            key_domain: Self::DEFAULT_KEY_DOMAIN,
            seed: 7,
        }
    }

    /// Whether the skew degenerates to the uniform distribution.
    pub fn is_uniform(&self) -> bool {
        self.theta == 0.0
    }

    /// The load fraction each of `partitions` hash partitions receives
    /// (sums to 1; uniform is `1 / partitions` everywhere).
    pub fn partition_weights(&self, partitions: usize) -> Vec<f64> {
        ZipfKeys::new(self.key_domain, self.theta, self.seed).partition_weights(partitions)
    }

    /// Per-destination *relative* load factors: 1.0 everywhere for a uniform
    /// distribution, above 1.0 on hot partitions. This is the multiplier the
    /// cluster runtime applies to the uniform-share volumes.
    pub fn partition_factors(&self, partitions: usize) -> Vec<f64> {
        self.partition_weights(partitions)
            .into_iter()
            .map(|w| w * partitions as f64)
            .collect()
    }

    /// Validate the skew parameters.
    pub fn validate(&self) -> Result<(), crate::error::PStoreError> {
        if !(self.theta.is_finite() && self.theta >= 0.0) {
            return Err(crate::error::PStoreError::planning(format!(
                "skew theta must be finite and non-negative, got {}",
                self.theta
            )));
        }
        if self.key_domain == 0 {
            return Err(crate::error::PStoreError::planning(
                "skew key domain must be at least 1",
            ));
        }
        Ok(())
    }
}

fn format_pct(fraction: f64) -> String {
    let pct = fraction * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as i64)
    } else {
        format!("{pct}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_display_and_all() {
        assert_eq!(JoinStrategy::DualShuffle.to_string(), "dual-shuffle");
        assert_eq!(JoinStrategy::Broadcast.to_string(), "broadcast");
        assert_eq!(JoinStrategy::PrePartitioned.to_string(), "prepartitioned");
        for strategy in JoinStrategy::ALL {
            assert_eq!(strategy.to_string(), strategy.as_str());
            assert_eq!(strategy.as_str().parse::<JoinStrategy>().unwrap(), strategy);
        }
        let err = "shuffle".parse::<JoinStrategy>().unwrap_err();
        assert!(
            err.to_string().contains("unknown join strategy 'shuffle'"),
            "{err}"
        );
        assert_eq!(JoinStrategy::ALL.len(), 3);
    }

    #[test]
    fn paper_specs() {
        let dual = JoinQuerySpec::q3_dual_shuffle();
        assert_eq!(dual.build_selectivity, 0.05);
        assert_eq!(dual.probe_selectivity, 0.05);
        let broadcast = JoinQuerySpec::q3_broadcast();
        assert_eq!(broadcast.build_selectivity, 0.01);
        assert_eq!(broadcast.label(), "O1%/L5%");
        assert_eq!(JoinQuerySpec::new(0.125, 0.5).label(), "O12.5%/L50%");
    }

    #[test]
    fn skew_weights_and_factors_are_consistent() {
        let uniform = JoinSkew::zipf(0.0);
        assert!(uniform.is_uniform());
        for f in uniform.partition_factors(4) {
            assert!((f - 1.0).abs() < 1e-3, "uniform factor {f}");
        }
        let skewed = JoinSkew::zipf(1.0);
        assert!(!skewed.is_uniform());
        let weights = skewed.partition_weights(4);
        let factors = skewed.partition_factors(4);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (w, f) in weights.iter().zip(&factors) {
            assert!((w * 4.0 - f).abs() < 1e-12);
        }
        // The hot partition is loaded above its uniform share. Round-robin
        // rank placement over the large default domain bounds the imbalance
        // (each partition holds hot and cold ranks alike)...
        assert!(factors[0] > 1.1, "hot factor {}", factors[0]);
        // ...while a tight key domain under heavier skew concentrates hard.
        let tight = JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        };
        let hot = tight.partition_factors(4)[0];
        assert!(hot > 1.8, "tight-domain hot factor {hot}");
        assert!(skewed.validate().is_ok());
        assert!(JoinSkew {
            theta: f64::NAN,
            ..skewed
        }
        .validate()
        .is_err());
        assert!(JoinSkew {
            theta: -0.5,
            ..skewed
        }
        .validate()
        .is_err());
        assert!(JoinSkew {
            key_domain: 0,
            ..skewed
        }
        .validate()
        .is_err());
    }
}
