//! The parent side: spawn one fresh child per (round, workload), pool what
//! they report, and turn the pool into named metrics and a result file.
//!
//! Rounds interleave the workloads, so drift of the machine over the run
//! lands on every workload alike instead of on whichever ran last.

use crate::child::ChildArgs;
use crate::metrics::{Better, END_TO_END, LAYERS};
use crate::stats::{median, p90, CLOCK_TICKS_PER_S};
use crate::text;
use crate::workloads::{Spec, THREADS};
use eedc_core::JsonValue;
use std::process::{Command, Stdio};

/// Version tag of the result-file layout.
pub const SCHEMA: &str = "eedc-benchmark/1";

/// What one `run` / `trace` invocation measures.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads to measure, in round order.
    pub workloads: Vec<Spec>,
    /// Input seed handed to every child.
    pub seed: u64,
    /// Fresh children per workload.
    pub rounds: usize,
    /// Measured seconds per workload, split evenly over the rounds.
    pub seconds: f64,
    /// Fewest pooled samples per workload; children iterate past their
    /// time share to reach it.
    pub min_samples: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Smoke mode: too few samples to compare; `agree` refuses the file.
    pub quick: bool,
    /// Sensitivity check only; recorded in the result file.
    pub inject_spin_pct: f64,
}

/// What the children of one workload reported, pooled.
#[derive(Debug, Default)]
struct Pool {
    /// Iteration times of every round, in host seconds.
    samples: Vec<f64>,
    setup_s: Vec<f64>,
    cpu_s_per_iter: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    attempted: usize,
    failed: usize,
    first_failure: Option<String>,
    digest: Option<String>,
    work: usize,
    layers: Option<JsonValue>,
    spans: Option<JsonValue>,
}

fn spawn_child(args: &ChildArgs) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // `output` waits for the child, so none outlives the parent.
    let output = Command::new(exe)
        .args(args.to_argv())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child for '{}' ended with {}",
            args.workload, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("child for '{}' printed nothing", args.workload))?;
    JsonValue::parse(line).map_err(|e| format!("child for '{}': {e}", args.workload))
}

impl Pool {
    fn absorb(&mut self, line: &JsonValue) -> Result<(), String> {
        let field = |key: &str| line.f64_field(key).map_err(text);
        let numbers = |key: &str| -> Result<Vec<f64>, String> {
            let array = line.array_field(key).map_err(text)?;
            Ok(array.iter().filter_map(JsonValue::as_f64).collect())
        };
        let samples = numbers("samples")?;
        let attempted = field("attempted")? as usize;
        let mut failed = field("failed")? as usize;
        let digest = line.str_field("digest").map_err(text)?;
        match &self.digest {
            None => self.digest = Some(digest.to_string()),
            // A round whose output differs from the first round's: every
            // iteration of it that looked fine changed the digest.
            Some(first) if first != digest => {
                failed = attempted;
                self.first_failure
                    .get_or_insert_with(|| format!("digest {digest} differs from {first}"));
            }
            Some(_) => {}
        }
        if let Some(reason) = line.get("first_failure").and_then(JsonValue::as_str) {
            self.first_failure.get_or_insert_with(|| reason.to_string());
        }
        self.setup_s.push(field("setup_s")?);
        self.cpu_s_per_iter
            .push(field("cpu_s")? / samples.len().max(1) as f64);
        self.peak_rss_mb.push(field("peak_rss_mb")?);
        self.attempted += attempted;
        self.failed += failed;
        self.work = field("work")? as usize;
        self.samples.extend(samples);
        self.layers = line.get("layers").cloned();
        self.spans = line.get("spans").cloned();
        Ok(())
    }

    /// The end-to-end metrics, in [`END_TO_END`] order; `None` where the
    /// pool is too small for the metric to be legal.
    fn end_to_end(&self) -> Vec<Option<f64>> {
        END_TO_END
            .iter()
            .map(|metric| match metric.name {
                "setup_s" => median(&self.setup_s),
                "work_per_s" => median(&self.samples).map(|s| self.work as f64 / s),
                "iter_p90_s" => p90(&self.samples),
                "cpu_s_per_iter" => median(&self.cpu_s_per_iter),
                "peak_rss_mb" => median(&self.peak_rss_mb),
                "failed_share" => {
                    (self.attempted > 0).then(|| self.failed as f64 / self.attempted as f64)
                }
                other => unreachable!("end-to-end metric '{other}' has no rule"),
            })
            .collect()
    }
}

fn valued(value: impl Into<JsonValue>, unit: &str, better: Better) -> JsonValue {
    let mut entry = JsonValue::object();
    entry
        .set("value", value)
        .set("unit", unit)
        .set("better", better.word());
    entry
}

/// Run the plan and build the result file.
pub fn measure(plan: &Plan) -> Result<JsonValue, String> {
    let mut pools: Vec<Pool> = plan.workloads.iter().map(|_| Pool::default()).collect();
    let rounds = plan.rounds.max(1);
    for round in 0..rounds {
        for (spec, pool) in plan.workloads.iter().zip(&mut pools) {
            eprintln!("round {}/{rounds}: {}", round + 1, spec.name);
            pool.absorb(&spawn_child(&ChildArgs {
                workload: spec.name.to_string(),
                seed: plan.seed,
                seconds: plan.seconds / rounds as f64,
                min_iterations: plan.min_samples.div_ceil(rounds),
                trace: plan.trace,
                inject_spin_pct: plan.inject_spin_pct,
            })?)?;
        }
    }

    let mut workloads = JsonValue::object();
    for (spec, pool) in plan.workloads.iter().zip(pools) {
        let mut entry = JsonValue::object();
        entry
            .set("why", spec.why)
            .set("work_unit", spec.work_unit)
            .set("work", pool.work)
            .set("digest", pool.digest.clone())
            .set("samples_n", pool.samples.len())
            .set("attempted", pool.attempted)
            .set("failed", pool.failed)
            .set("first_failure", pool.first_failure.clone());
        let mut metrics = JsonValue::object();
        if plan.trace {
            let layers = pool.layers.as_ref().ok_or("traced child sent no layers")?;
            for metric in &LAYERS {
                let value = layers.f64_field(metric.name).map_err(text)?;
                metrics.set(metric.name, valued(value, metric.unit, metric.better));
            }
        } else {
            for (metric, value) in END_TO_END.iter().zip(pool.end_to_end()) {
                metrics.set(metric.name, valued(value, metric.unit, metric.better));
            }
        }
        entry.set("metrics", metrics);
        if plan.trace {
            entry.set("spans", pool.spans);
        } else {
            entry
                .set("round_setup_s", pool.setup_s)
                .set("round_cpu_s_per_iter", pool.cpu_s_per_iter)
                .set("round_peak_rss_mb", pool.peak_rss_mb);
        }
        entry.set("samples_s", pool.samples);
        workloads.set(spec.name, entry);
    }

    let mut file = JsonValue::object();
    file.set("schema", SCHEMA)
        .set("mode", if plan.trace { "trace" } else { "run" })
        .set("quick", plan.quick)
        .set("seed", plan.seed as usize)
        .set("rounds", rounds)
        .set("seconds_per_workload", plan.seconds)
        .set("min_samples", plan.min_samples)
        .set("inject_spin_pct", plan.inject_spin_pct)
        .set("environment", environment())
        .set("workloads", workloads);
    Ok(file)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Where and with what the numbers were taken.
fn environment() -> JsonValue {
    let rustc = command_line("rustc", &["-vV"]).unwrap_or_default();
    let rustc_field = |prefix: &str| {
        rustc
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(|v| v.trim().to_string())
    };
    let mut env = JsonValue::object();
    env.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, usize::from),
    )
    .set("join_threads", THREADS)
    .set("rustc", rustc.lines().next().map(str::to_string))
    .set("target", rustc_field("host:"))
    .set("git_head", command_line("git", &["rev-parse", "HEAD"]))
    .set(
        "git_dirty",
        command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
    )
    .set("cpu_tick_s", 1.0 / CLOCK_TICKS_PER_S);
    env
}

/// Print every metric of a result file by name, with its unit.
pub fn print_table(file: &JsonValue) {
    let Some(workloads) = file.get("workloads").and_then(JsonValue::as_object) else {
        return;
    };
    for (name, entry) in workloads {
        let text = |key: &str| entry.get(key).and_then(JsonValue::as_str).unwrap_or("-");
        let count = |key: &str| entry.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        println!(
            "{name}  samples={} attempted={} failed={}  work={} {}  output_digest={}",
            count("samples_n"),
            count("attempted"),
            count("failed"),
            count("work"),
            text("work_unit"),
            text("digest"),
        );
        if let Some(reason) = entry.get("first_failure").and_then(JsonValue::as_str) {
            println!("  first failure: {reason}");
        }
        let metrics = entry.get("metrics").and_then(JsonValue::as_object);
        for (metric, valued) in metrics.unwrap_or_default() {
            let word = |key: &str| valued.get(key).and_then(JsonValue::as_str).unwrap_or("");
            let (unit, better) = (word("unit"), word("better"));
            match valued.get("value").and_then(JsonValue::as_f64) {
                Some(value) => {
                    println!("  {metric:<40} {value:>16.6} {unit:<10} ({better} is better)")
                }
                None => println!("  {metric:<40} {:>16} {unit:<10} (too few samples)", "n/a"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child_line(digest: &str, samples: Vec<f64>, failed: usize) -> JsonValue {
        let mut line = JsonValue::object();
        line.set("setup_s", 0.5)
            .set("cpu_s", samples.len() as f64 * 0.2)
            .set("peak_rss_mb", 10.0)
            .set("attempted", samples.len())
            .set("failed", failed)
            .set("digest", digest)
            .set("work", 1_000usize)
            .set("samples", samples);
        line
    }

    #[test]
    fn pooled_metrics_follow_their_definitions() {
        let mut pool = Pool::default();
        for round in 0..10 {
            let samples = (1..=10)
                .map(|i| 0.1 + f64::from(round * 10 + i) * 1e-3)
                .collect();
            pool.absorb(&child_line("00ff", samples, 0)).unwrap();
        }
        assert_eq!(pool.samples.len(), 100);
        let values = pool.end_to_end();
        let by_name = |name: &str| {
            let at = END_TO_END.iter().position(|m| m.name == name).unwrap();
            values[at].unwrap()
        };
        assert_eq!(by_name("setup_s"), 0.5);
        // Median of 0.101..=0.200 is 0.1505 s for 1000 units of work.
        assert!((by_name("work_per_s") - 1_000.0 / 0.1505).abs() < 1e-6);
        assert!((by_name("iter_p90_s") - 0.190).abs() < 1e-12);
        assert!((by_name("cpu_s_per_iter") - 0.2).abs() < 1e-12);
        assert_eq!(by_name("peak_rss_mb"), 10.0);
        assert_eq!(by_name("failed_share"), 0.0);
    }

    #[test]
    fn a_small_pool_has_no_p90_and_a_changed_digest_fails_its_round() {
        let mut pool = Pool::default();
        pool.absorb(&child_line("aaaa", vec![0.1; 5], 0)).unwrap();
        pool.absorb(&child_line("bbbb", vec![0.1; 5], 0)).unwrap();
        let values = pool.end_to_end();
        let p90_at = END_TO_END
            .iter()
            .position(|m| m.name == "iter_p90_s")
            .unwrap();
        assert_eq!(values[p90_at], None);
        assert_eq!(pool.failed, 5);
        assert_eq!(pool.attempted, 10);
        assert!(pool.first_failure.unwrap().contains("differs"));
    }
}
