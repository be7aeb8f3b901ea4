//! One measuring process: set one workload up, warm it, time it, and print
//! one line of raw observations for the parent to pool.
//!
//! A child holds exactly one workload, so no workload's heap or caches time
//! another's, and set-up is measured from a cold process every time.

use crate::metrics::{layer_values, LAYERS};
use crate::spans::{Tracer, SETUP_ITER};
use crate::stats::{peak_rss_mb, process_cpu_seconds, spin_for};
use crate::workloads::{prepare, Outcome, Size, Workload};
use eedc_core::JsonValue;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Untimed iterations before the clock starts: caches fill, the measured
/// lens loads its cluster, and the reference digest is taken.
pub const WARMUPS: usize = 3;

/// What the parent asks of one child.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measure for at least this long…
    pub seconds: f64,
    /// …and at least this many iterations.
    pub min_iterations: usize,
    /// Replay the workload as layer calls and report per-layer metrics.
    pub trace: bool,
    /// Sensitivity check only: busy-wait this share (in %) of every timed
    /// iteration on top of it.
    pub inject_spin_pct: f64,
}

impl ChildArgs {
    /// The argument list that makes a child process run `self`.
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            "child".to_string(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--min-iterations".into(),
            self.min_iterations.to_string(),
        ];
        if self.trace {
            argv.push("--traced".into());
        }
        if self.inject_spin_pct > 0.0 {
            argv.push("--inject-spin-pct".into());
            argv.push(self.inject_spin_pct.to_string());
        }
        argv
    }
}

/// One iteration under `catch_unwind`: a panic is a failed iteration, not a
/// dead benchmark.
fn guarded(workload: &mut dyn Workload) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| workload.iterate()))
        .unwrap_or_else(|_| Err("iteration panicked".to_string()))
}

/// Run the child and return the line it prints. `started` is the process's
/// first instant, so `setup_s` covers everything before the first timed
/// iteration.
pub fn run(args: &ChildArgs, started: Instant) -> Result<JsonValue, String> {
    let mut workload = prepare(&args.workload, args.seed, Size::Full)?;
    let mut reference = None;
    for _ in 0..WARMUPS {
        let outcome = guarded(workload.as_mut()).map_err(|e| format!("warm-up failed: {e}"))?;
        if *reference.get_or_insert(outcome) != outcome {
            return Err("warm-up iterations disagree on digest or work".into());
        }
    }
    let reference = reference.expect("WARMUPS is at least 1");

    let mut tracer = args.trace.then(Tracer::default);
    if let Some(tracer) = tracer.as_mut() {
        workload.trace_setup(tracer)?;
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    let mut failed = 0usize;
    let mut attempted = 0usize;
    let mut first_failure = None;
    let mut note = |result: Result<Outcome, String>| {
        attempted += 1;
        let verdict = match result {
            Ok(outcome) if outcome == reference => return,
            Ok(_) => "digest or work changed between iterations".to_string(),
            Err(reason) => reason,
        };
        failed += 1;
        first_failure.get_or_insert(verdict);
    };

    // The timed loop: iterations back to back, nothing in between. A traced
    // child spends a quarter of its time here, before its first replay, so
    // the untraced reference of `trace.overhead_share` is undisturbed.
    let timed_seconds = args.seconds * if args.trace { 0.25 } else { 1.0 };
    let cpu_before = process_cpu_seconds();
    let clock = Instant::now();
    while clock.elapsed().as_secs_f64() < timed_seconds || samples.len() < args.min_iterations {
        let iteration = Instant::now();
        let result = guarded(workload.as_mut());
        if args.inject_spin_pct > 0.0 {
            spin_for(iteration.elapsed().as_secs_f64() * args.inject_spin_pct / 100.0);
        }
        samples.push(iteration.elapsed().as_secs_f64());
        note(result);
    }
    let cpu_s = match (cpu_before, process_cpu_seconds()) {
        (Some(before), Some(after)) => after - before,
        _ => return Err("/proc/self/stat is not readable: no CPU time".into()),
    };

    // The traced loop: the same call as the root span, then its replay.
    if let Some(tracer) = tracer.as_mut() {
        let clock = Instant::now();
        let mut repetition = 0;
        while clock.elapsed().as_secs_f64() < args.seconds - timed_seconds
            || repetition < args.min_iterations
        {
            tracer.set_iter(repetition as u32);
            let root = tracer.open("root", None);
            let result = guarded(workload.as_mut());
            tracer.close(root, reference.work);
            note(result);
            let replay = tracer.open("replay", None);
            workload.replay(tracer, replay)?;
            tracer.close(replay, 0);
            repetition += 1;
        }
    }

    let mut line = JsonValue::object();
    line.set("workload", args.workload.as_str())
        .set("setup_s", setup_s)
        .set("cpu_s", cpu_s)
        .set(
            "peak_rss_mb",
            peak_rss_mb().ok_or("/proc/self/status is not readable: no peak RSS")?,
        )
        .set("attempted", attempted)
        .set("failed", failed)
        .set("first_failure", first_failure)
        .set("digest", format!("{:016x}", reference.digest))
        .set("work", reference.work as usize);
    if let Some(tracer) = &tracer {
        let mut layers = JsonValue::object();
        for (metric, value) in LAYERS.iter().zip(layer_values(tracer, &samples)) {
            layers.set(metric.name, value);
        }
        line.set("layers", layers).set("spans", spans_json(tracer));
    }
    line.set("samples", samples);
    Ok(line)
}

/// Spans as an array of objects, the shape `trace.json` stores.
fn spans_json(tracer: &Tracer) -> JsonValue {
    let mut out = JsonValue::array();
    for (id, span) in tracer.spans.iter().enumerate() {
        let mut entry = JsonValue::object();
        entry
            .set("id", id)
            .set("name", span.name)
            .set("parent", span.parent)
            .set(
                "iter",
                (span.iter != SETUP_ITER).then_some(span.iter as usize),
            )
            .set("start_ns", span.start_ns as usize)
            .set("end_ns", span.end_ns as usize)
            .set("self_ns", (tracer.self_seconds(id) * 1e9).round())
            .set("work", span.work as usize);
        out.push(entry);
    }
    out
}
