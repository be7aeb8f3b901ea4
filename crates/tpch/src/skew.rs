//! Skewed key generation for the data-skew extension study.
//!
//! Section 4.1 of the paper identifies data skew as the third bottleneck
//! category ("even a small skew can cause an imbalance in the utilization of
//! the cluster nodes") but defers its investigation to future work. We
//! implement that extension: a Zipf-distributed key generator whose output
//! can replace the uniform join keys of the base generator, letting the
//! P-store experiments and the skew-ablation benchmark quantify the node
//! imbalance and its energy cost.

use eedc_simkit::rng::SplitMix64;

/// A Zipf-distributed generator over the key domain `1..=n`.
///
/// `theta = 0` degenerates to the uniform distribution; `theta ≈ 1` is the
/// classic heavy Zipf skew where the hottest key receives a large constant
/// fraction of all references.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    n: u64,
    theta: f64,
    /// Total probability mass `H(n, theta)`, the generalized harmonic number
    /// normalizing every rank probability.
    harmonic: f64,
    /// Cumulative mass `H(k, theta)` for the first `min(n, EXACT_LIMIT)`
    /// ranks, precomputed at construction. A draw bisects this table in
    /// O(log EXACT_LIMIT) and falls through to the closed-form tail
    /// inversion beyond it — the old implementation re-summed an up-to-10
    /// 000-term harmonic series at *every* bisection step, making each draw
    /// O(n log n).
    cumulative_head: Vec<f64>,
    /// `H(min(n, EXACT_LIMIT), theta)`: the last entry of `cumulative_head`.
    head_mass: f64,
    rng: SplitMix64,
}

impl ZipfKeys {
    /// Create a generator over `1..=n` with skew parameter `theta`, seeded for
    /// reproducibility. `n` must be at least 1; `theta` is clamped to
    /// `[0, 5]`.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        let n = n.max(1);
        let theta = theta.clamp(0.0, 5.0);
        let (cumulative_head, head_mass) = head_table(n, theta);
        let harmonic = if n <= EXACT_LIMIT {
            head_mass
        } else {
            head_mass + tail_mass(EXACT_LIMIT, n, theta)
        };
        Self {
            n,
            theta,
            harmonic,
            cumulative_head,
            head_mass,
            rng: SplitMix64::new(seed ^ 0x51CE_F00D),
        }
    }

    /// Domain size.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Probability of the key at `rank` (1-based; rank 1 is the hottest key).
    fn probability_of_rank(&self, rank: u64) -> f64 {
        if rank == 0 || rank > self.n {
            return 0.0;
        }
        (rank as f64).powf(-self.theta) / self.harmonic
    }

    /// Draw the next key (1-based, rank order: key `k` has rank `k`).
    ///
    /// Inverse-CDF sampling: targets landing in the precomputed head table
    /// are resolved by bisection over it; targets beyond the head invert the
    /// continuous tail integral in closed form. Either way a draw costs
    /// O(log EXACT_LIMIT), independent of the domain size.
    pub fn next_key(&mut self) -> u64 {
        let u = self.rng.unit();
        let target = u * self.harmonic;
        if target <= self.head_mass {
            // Smallest rank whose cumulative mass reaches the target.
            let idx = self.cumulative_head.partition_point(|&c| c < target);
            return (idx as u64 + 1).min(self.n);
        }
        // Invert `head_mass + tail_mass(EXACT_LIMIT, k) = target` for k. The
        // tail integral is strictly increasing in k, so the smallest integer
        // rank covering the target is the ceiling of the continuous solution.
        let excess = target - self.head_mass;
        let limit = EXACT_LIMIT as f64;
        let k = if (self.theta - 1.0).abs() < 1e-9 {
            limit * excess.exp()
        } else {
            let base = excess * (1.0 - self.theta) + limit.powf(1.0 - self.theta);
            if base <= 0.0 {
                return self.n;
            }
            base.powf(1.0 / (1.0 - self.theta))
        };
        (k.ceil() as u64).clamp(EXACT_LIMIT + 1, self.n)
    }

    /// The theoretical load fraction of each of `partitions` hash partitions
    /// when keys are assigned round-robin by rank (mirroring hash placement
    /// of distinct keys). The fractions sum to 1; a perfectly uniform
    /// distribution yields `1 / partitions` everywhere, while skew
    /// concentrates mass on the partition holding rank 1.
    ///
    /// Like [`next_key`](Self::next_key), the cost is bounded by the exact
    /// head table: ranks up to `EXACT_LIMIT` are summed exactly, and the
    /// smoothly-decaying tail beyond it — whose ranks cycle round-robin over
    /// the partitions — splits uniformly via the closed-form tail integral,
    /// so billion-key domains stay O(EXACT_LIMIT), not O(n).
    pub fn partition_weights(&self, partitions: usize) -> Vec<f64> {
        if partitions == 0 {
            return Vec::new();
        }
        let mut load = vec![0.0_f64; partitions];
        for rank in 1..=self.n.min(EXACT_LIMIT) {
            load[(rank - 1) as usize % partitions] += self.probability_of_rank(rank);
        }
        if self.n > EXACT_LIMIT {
            let tail = tail_mass(EXACT_LIMIT, self.n, self.theta) / self.harmonic;
            for w in &mut load {
                *w += tail / partitions as f64;
            }
        }
        // Beyond the exact head table the normalizing harmonic is an integral
        // approximation, so renormalize to make the weights an exact
        // distribution.
        let total: f64 = load.iter().sum();
        if total > 0.0 {
            for w in &mut load {
                *w /= total;
            }
        }
        load
    }
}

/// Number of head ranks whose probability mass is summed (and tabulated)
/// exactly; the tail beyond it uses the Euler–Maclaurin integral
/// approximation so that construction never scans billion-key domains.
const EXACT_LIMIT: u64 = 10_000;

/// Cumulative mass table `H(k, theta)` for ranks `k = 1..=min(n,
/// EXACT_LIMIT)`, and its last entry, the head's total mass.
fn head_table(n: u64, theta: f64) -> (Vec<f64>, f64) {
    let head_len = n.min(EXACT_LIMIT) as usize;
    let mut table = Vec::with_capacity(head_len);
    let mut running = 0.0;
    for k in 1..=head_len as u64 {
        running += (k as f64).powf(-theta);
        table.push(running);
    }
    (table, running)
}

/// Integral approximation of the probability mass of ranks in `(from, to]`:
/// `∫ x^-theta dx` over that interval. Strictly increasing in `to`, which is
/// what lets `next_key` invert it in closed form.
fn tail_mass(from: u64, to: u64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        (to as f64 / from as f64).ln()
    } else {
        ((to as f64).powf(1.0 - theta) - (from as f64).powf(1.0 - theta)) / (1.0 - theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_keys(gen: &mut ZipfKeys, count: usize) -> Vec<u64> {
        (0..count).map(|_| gen.next_key()).collect()
    }

    #[test]
    fn zero_theta_is_uniform() {
        let mut gen = ZipfKeys::new(100, 0.0, 1);
        assert!((gen.probability_of_rank(1) - 0.01).abs() < 1e-9);
        assert!((gen.probability_of_rank(100) - 0.01).abs() < 1e-9);
        let keys = take_keys(&mut gen, 20_000);
        let hot = keys.iter().filter(|&&k| k == 1).count() as f64 / keys.len() as f64;
        assert!(hot < 0.03, "uniform hottest key fraction {hot}");
    }

    #[test]
    fn high_theta_concentrates_on_the_head() {
        let mut gen = ZipfKeys::new(1000, 1.0, 2);
        let keys = take_keys(&mut gen, 50_000);
        let head = keys.iter().filter(|&&k| k <= 10).count() as f64 / keys.len() as f64;
        // With theta=1 over 1000 keys, the top-10 ranks carry ~39% of the mass.
        assert!(head > 0.30, "head fraction {head}");
        let p1 = gen.probability_of_rank(1);
        let p100 = gen.probability_of_rank(100);
        assert!(p1 / p100 > 50.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let gen = ZipfKeys::new(500, 0.8, 3);
        let total: f64 = (1..=500).map(|r| gen.probability_of_rank(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(gen.probability_of_rank(0), 0.0);
        assert_eq!(gen.probability_of_rank(501), 0.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = take_keys(&mut ZipfKeys::new(100, 0.9, 7), 100);
        let b = take_keys(&mut ZipfKeys::new(100, 0.9, 7), 100);
        let c = take_keys(&mut ZipfKeys::new(100, 0.9, 8), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn keys_stay_in_domain() {
        let mut gen = ZipfKeys::new(64, 1.2, 11);
        for key in take_keys(&mut gen, 10_000) {
            assert!((1..=64).contains(&key));
        }
    }

    #[test]
    fn partition_imbalance_grows_with_skew() {
        let hottest = |theta: f64| {
            let weights = ZipfKeys::new(10_000, theta, 1).partition_weights(8);
            weights.into_iter().fold(0.0, f64::max)
        };
        let uniform = hottest(0.0);
        let skewed = hottest(1.0);
        assert!((uniform - 0.125).abs() < 0.01, "uniform {uniform}");
        assert!(
            skewed > uniform * 1.5,
            "skewed {skewed} vs uniform {uniform}"
        );
        // Degenerate partition count.
        assert!(ZipfKeys::new(10, 0.5, 1).partition_weights(0).is_empty());
    }

    #[test]
    fn partition_weights_sum_to_one_and_expose_the_hot_partition() {
        let gen = ZipfKeys::new(10_000, 1.0, 1);
        let weights = gen.partition_weights(8);
        assert_eq!(weights.len(), 8);
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum {total}");
        // Rank 1 lands on partition 0, so partition 0 is the hottest.
        let max = weights.iter().copied().fold(0.0, f64::max);
        assert_eq!(max, weights[0]);
        // Uniform distributions split evenly.
        for w in ZipfKeys::new(10_000, 0.0, 1).partition_weights(4) {
            assert!((w - 0.25).abs() < 1e-3, "uniform weight {w}");
        }
    }

    #[test]
    fn partition_weights_over_huge_domains_use_the_tail_approximation() {
        // A billion-key domain must evaluate in O(EXACT_LIMIT): the exact
        // head plus a uniformly-split closed-form tail. The result is still
        // a distribution with the hot partition above its uniform share.
        let gen = ZipfKeys::new(1_000_000_000, 1.0, 1);
        let weights = gen.partition_weights(8);
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum {total}");
        assert!(weights[0] > 1.0 / 8.0, "hot weight {}", weights[0]);
    }

    #[test]
    fn large_domains_use_the_tail_approximation() {
        // Construction must be fast and the head probabilities sensible even
        // for a billion-key domain.
        let gen = ZipfKeys::new(1_000_000_000, 0.99, 5);
        let p1 = gen.probability_of_rank(1);
        assert!(p1 > 0.0 && p1 < 1.0);
        let gen_uniform = ZipfKeys::new(1_000_000_000, 0.0, 5);
        let p = gen_uniform.probability_of_rank(123_456_789);
        assert!((p - 1e-9).abs() < 1e-10);
    }

    #[test]
    fn bulk_draws_over_huge_domains_are_cheap() {
        // 50k draws over a billion-key domain: each draw must be O(log) in
        // the head-table size — the old implementation re-summed a 10,000
        // term harmonic series per bisection step, which would take hours
        // here. The draws must also actually exercise the closed-form tail
        // inversion (ranks beyond the tabulated head).
        let mut gen = ZipfKeys::new(1_000_000_000, 0.9, 13);
        let keys = take_keys(&mut gen, 50_000);
        assert_eq!(keys.len(), 50_000);
        assert!(keys.iter().all(|&k| (1..=1_000_000_000).contains(&k)));
        let beyond_head = keys.iter().filter(|&&k| k > 10_000).count();
        assert!(beyond_head > 0, "no draw ever landed in the tail");
        // The skew concentrates vastly more mass on the 10k-rank head than
        // the uniform expectation of 10_000/10^9 = 0.001% of draws.
        let head = keys.iter().filter(|&&k| k <= 10_000).count();
        assert!(head > keys.len() / 10, "head draws {head}");
        // Determinism is preserved across the fast path.
        assert_eq!(
            take_keys(&mut ZipfKeys::new(1_000_000_000, 0.9, 13), 100),
            keys[..100]
        );
    }

    #[test]
    fn tail_inversion_matches_the_tabulated_distribution_shape() {
        // theta = 1 exercises the logarithmic branch of the tail inversion.
        let mut gen = ZipfKeys::new(10_000_000, 1.0, 21);
        let keys = take_keys(&mut gen, 30_000);
        let head = keys.iter().filter(|&&k| k <= 10_000).count() as f64 / keys.len() as f64;
        // With theta = 1, mass of the first 10k ranks ≈ H(10k)/H(10M) ≈
        // ln(10^4)/ln(10^7) ≈ 0.57.
        assert!((head - 0.57).abs() < 0.05, "head fraction {head}");
        assert!(keys.iter().all(|&k| (1..=10_000_000).contains(&k)));
    }

    #[test]
    fn parameters_are_clamped() {
        let gen = ZipfKeys::new(0, -1.0, 1);
        assert_eq!(gen.domain(), 1);
        assert_eq!(gen.theta(), 0.0);
        let gen = ZipfKeys::new(10, 99.0, 1);
        assert_eq!(gen.theta(), 5.0);
    }
}
