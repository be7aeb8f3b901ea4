//! The workspace's one random-number generator.
//!
//! [`SplitMix64`] (Steele, Lea & Flood): a Weyl sequence pushed through a
//! strong 64-bit mixer. It is tiny, fully deterministic per seed and uniform
//! well past the percent level the data generators and the serving
//! simulator's draws rely on. Not cryptographically secure.
//!
//! Every seeded stream in the workspace — the TPC-H-shaped tables, the Zipf
//! keys and the event kernel's arrival and service draws — is this
//! generator, so every pinned digest depends on its exact output.

/// A splitmix64 generator; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits of one word.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A draw in `0..n` as one word reduced modulo `n` (`n` must not be 0).
    /// The modulo bias is below `n / 2^64`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn matches_the_published_reference_stream() {
        let mut zero = SplitMix64::new(0);
        assert_eq!(zero.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(zero.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(zero.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(SplitMix64::new(1_234_567).next_u64(), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..32).map(|_| a.below(u64::MAX)).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.below(u64::MAX)).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.below(u64::MAX)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_covers_and_stays_in_bounds() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = 1 + rng.below(7);
            assert!((1..=7).contains(&v));
            seen[(v - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 1..=7 drawn");
        for _ in 0..1000 {
            let v = -5 + rng.below(10) as i32;
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SplitMix64::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.below(100) < 10).count();
        let fraction = hits as f64 / n as f64;
        assert!((fraction - 0.10).abs() < 0.01, "fraction {fraction}");
    }

    #[test]
    fn unit_is_uniform_in_bounds() {
        let mut rng = SplitMix64::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.unit();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
