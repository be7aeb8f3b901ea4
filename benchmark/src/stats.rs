//! Sample arithmetic, the output digest, and the `/proc` readers.
//!
//! Everything here is pure (the two `/proc` readers are thin wrappers over
//! pure parsers), so the rules the benchmark's numbers rest on — which
//! percentile is legal at which sample count, how rounds are pooled — are
//! unit-tested without running a workload.

use std::time::Instant;

/// Fewest samples a 90th percentile may be reported from: ten samples must
/// lie beyond the percentile, or a single slow iteration *is* the figure.
pub const P90_MIN_SAMPLES: usize = 100;

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice or one holding a NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted_finite(values)?;
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Nearest-rank 90th percentile. Refused (`None`) below
/// [`P90_MIN_SAMPLES`] samples.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < P90_MIN_SAMPLES {
        return None;
    }
    let sorted = sorted_finite(values)?;
    let rank = (0.9 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted_finite(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted)
}

/// FNV-1a, 64 bit: the `output_digest` of every workload iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold an integer (little-endian bytes).
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a float by bit pattern, so a last-digit change shows.
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A splitmix64 stream: how a workload turns `--seed` into input values that
/// are not themselves RNG seeds of the program under test.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    /// A stream for one workload; `salt` keeps workloads from sharing draws.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// User + system CPU ticks of the whole process (every thread, live or
/// joined) from the text of `/proc/self/stat`. The command name in field 2
/// may hold spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are the 12th and 13th after it.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in kB from the text of `/proc/self/status`.
pub fn parse_status_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Kernel clock ticks per second. `USER_HZ` has been 100 on every Linux
/// architecture since 2.6 and `sysconf` is not reachable from `std`; the
/// tick length is recorded in result files so a reader can check it.
pub const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Process CPU seconds so far; `None` where `/proc` is not available.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / CLOCK_TICKS_PER_S)
}

/// Peak resident set size so far in MB; `None` where `/proc` is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_vm_hwm_kb(&status)? as f64 / 1024.0)
}

/// Burn CPU on the calling thread for `seconds` (the sensitivity check's
/// injected slowdown — a sleep would not show in `cpu_s_per_iter`).
pub fn spin_for(seconds: f64) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_degenerate_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // Nearest rank: the 90th of 100 sorted samples, ten lie beyond it.
        assert_eq!(p90(&hundred), Some(90.0));
        let more: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(p90(&more), Some(225.0));
    }

    #[test]
    fn pooling_rounds_is_concatenation_not_a_median_of_medians() {
        // Three rounds whose medians are 1, 1 and 10: the pooled median is
        // taken over all nine samples.
        let rounds = [[1.0, 1.0, 9.0], [1.0, 1.0, 9.0], [10.0, 10.0, 10.0]];
        let pooled: Vec<f64> = rounds.iter().flatten().copied().collect();
        assert_eq!(median(&pooled), Some(9.0));
    }

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        // Floats fold by bit pattern: -0.0 and 0.0 differ.
        assert_ne!(
            Fnv::default().f64(0.0).finish(),
            Fnv::default().f64(-0.0).finish()
        );
    }

    #[test]
    fn seed_stream_is_deterministic_and_salted() {
        let mut a = SeedStream::new(7, 1);
        let mut b = SeedStream::new(7, 1);
        let mut c = SeedStream::new(7, 2);
        let x = a.next_u64();
        assert_eq!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
        for _ in 0..1000 {
            let u = a.uniform(0.04, 0.06);
            assert!((0.04..0.06).contains(&u));
        }
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let plain = "4242 (benchmark) R 1 4242 4242 0 -1 4194304 500 0 0 0 \
                     731 19 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(750));
        let hostile = "4242 (a b) c) (d) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                       12 30 0 0 20 0 1 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(42));
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_status_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_status_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn the_proc_readers_work_on_this_machine() {
        assert!(process_cpu_seconds().is_some());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
