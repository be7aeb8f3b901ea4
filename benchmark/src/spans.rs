//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A traced run replays a workload's end-to-end call as the sequence of
//! public layer calls it is made of, timing each from the outside. Spans
//! are kept in a `Vec` and written out once, when the run ends; nothing is
//! recorded inside the program under test.

use crate::stats::median;
use std::time::Instant;

/// Iteration id of spans recorded outside the per-iteration loop (set-up
/// replays and reference probes).
pub const SETUP_ITER: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `storage.scan`; `root` is the real end-to-end
    /// call and `replay` the replayed sequence.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Workload iteration the span belongs to ([`SETUP_ITER`] for set-up).
    pub iter: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work the call did, in the layer's own unit (rows, flows, events…).
    pub work: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans and exact counters for one traced child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    iter: u32,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    /// Counters that repeat exactly for a fixed seed (ratios, byte counts),
    /// keyed by metric name. Set by the replay that observes them.
    pub exact: Vec<(&'static str, f64)>,
    /// Per-iteration observations that are not times and do not repeat
    /// exactly (they depend on thread scheduling); reported as medians.
    pub samples: Vec<(&'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            iter: SETUP_ITER,
            spans: Vec::new(),
            exact: Vec::new(),
            samples: Vec::new(),
        }
    }
}

impl Tracer {
    /// Spans recorded from now on belong to workload iteration `iter`.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that will enclose other spans; close it with
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            iter: self.iter,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: usize, work: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Time one call as a leaf span. `work` is computed from the call's
    /// result, after the clock has stopped.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.open(name, parent);
        let out = call();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].work = work(&out);
        out
    }

    /// Record (or overwrite) an exact counter.
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        match self.exact.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.exact.push((name, value)),
        }
    }

    /// The value of an exact counter, if the replay set it.
    pub fn exact(&self, name: &str) -> Option<f64> {
        self.exact.iter().find(|(n, _)| *n == name).map(|e| e.1)
    }

    /// Record one per-iteration observation.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    /// Median of the observations recorded under `name`; 0 when none were.
    pub fn sample_median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|s| s.1)
            .collect();
        median(&values).unwrap_or(0.0)
    }

    /// Per-iteration totals `(seconds, work)` of every span called `name`,
    /// one entry per iteration id in which it occurs, in id order.
    pub fn per_iteration(&self, name: &str) -> Vec<(f64, u64)> {
        let mut totals: Vec<(u32, f64, u64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            match totals.last_mut() {
                Some(t) if t.0 == span.iter => {
                    t.1 += span.seconds();
                    t.2 += span.work;
                }
                _ => totals.push((span.iter, span.seconds(), span.work)),
            }
        }
        totals.into_iter().map(|(_, s, w)| (s, w)).collect()
    }

    /// Median over iterations of the time spent in spans called `name`:
    /// the layer's busy time per workload iteration. 0 when the workload
    /// never makes the call.
    pub fn busy_s(&self, name: &str) -> f64 {
        let seconds: Vec<f64> = self.per_iteration(name).iter().map(|t| t.0).collect();
        median(&seconds).unwrap_or(0.0)
    }

    /// Median over iterations of work ÷ busy time for spans called `name`.
    /// 0 when the workload never makes the call.
    pub fn rate_per_s(&self, name: &str) -> f64 {
        let rates: Vec<f64> = self
            .per_iteration(name)
            .iter()
            .filter(|t| t.0 > 0.0)
            .map(|t| t.1 as f64 / t.0)
            .collect();
        median(&rates).unwrap_or(0.0)
    }

    /// Summed duration of the direct children of span `id`.
    pub fn children_seconds(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum()
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        (self.spans[id].seconds() - self.children_seconds(id)).max(0.0)
    }

    /// Median over iterations of |Σ children of `replay` − `root`| ÷ `root`:
    /// how far the replayed layer calls are from adding up to the real
    /// end-to-end call.
    pub fn residual_share(&self) -> f64 {
        let mut shares = Vec::new();
        for (id, replay) in self.spans.iter().enumerate() {
            if replay.name != "replay" {
                continue;
            }
            let root = self
                .spans
                .iter()
                .find(|s| s.name == "root" && s.iter == replay.iter);
            if let Some(root) = root.filter(|r| r.seconds() > 0.0) {
                shares.push((self.children_seconds(id) - root.seconds()).abs() / root.seconds());
            }
        }
        median(&shares).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, iter: u32, s: u64, e: u64, w: u64) -> Span {
        Span {
            name,
            parent,
            iter,
            start_ns: s,
            end_ns: e,
            work: w,
        }
    }

    #[test]
    fn busy_time_and_rates_are_medians_over_iterations() {
        let t = Tracer {
            spans: vec![
                span("storage.scan", None, 0, 0, 1_000_000_000, 10),
                span("storage.scan", None, 0, 0, 1_000_000_000, 10),
                span("storage.scan", None, 1, 0, 4_000_000_000, 20),
                span("storage.scan", None, 2, 0, 3_000_000_000, 30),
            ],
            ..Tracer::default()
        };
        // Iteration totals: 2 s, 4 s, 3 s → median 3 s.
        assert_eq!(t.busy_s("storage.scan"), 3.0);
        // Rates: 10, 5, 10 per second → median 10.
        assert_eq!(t.rate_per_s("storage.scan"), 10.0);
        assert_eq!(t.busy_s("never.called"), 0.0);
        assert_eq!(t.rate_per_s("never.called"), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_residual_compares_with_root() {
        let t = Tracer {
            spans: vec![
                span("root", None, 0, 0, 100, 0),
                span("replay", None, 0, 100, 220, 0),
                span("a", Some(1), 0, 100, 150, 0),
                span("b", Some(1), 0, 160, 200, 0),
            ],
            ..Tracer::default()
        };
        assert!((t.self_seconds(1) - 30e-9).abs() < 1e-15);
        // Children add up to 90 ns against a 100 ns root.
        assert!((t.residual_share() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn spans_nest_and_carry_the_iteration_id() {
        let mut t = Tracer::default();
        let setup = t.span("tpch.gen", None, || 5u64, |rows| *rows);
        assert_eq!(setup, 5);
        t.set_iter(3);
        let replay = t.open("replay", None);
        t.span("core.model", Some(replay), || (), |_| 7);
        t.close(replay, 0);
        assert_eq!(t.spans[0].iter, SETUP_ITER);
        assert_eq!(t.spans[0].work, 5);
        assert_eq!(t.spans[2].parent, Some(replay));
        assert_eq!(t.spans[2].iter, 3);
        assert!(t.spans[1].end_ns >= t.spans[2].end_ns);
        t.set_exact("x", 1.0);
        t.set_exact("x", 2.0);
        assert_eq!(t.exact("x"), Some(2.0));
        assert_eq!(t.exact.len(), 1);
    }
}
