//! The repo benchmark: six workloads, six end-to-end metrics, a per-layer
//! traced run. See `README.md` in this directory for every definition.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run   [--seed 7]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- trace [--seed 7]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- agree a.json b.json
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod agree;
mod child;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use child::ChildArgs;
use eedc_core::JsonValue;
use measure::{measure, print_table, Plan};
use metrics::{END_TO_END, LAYERS};
use stats::P90_MIN_SAMPLES;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::WORKLOADS;

const USAGE: &str = "\
usage: benchmark run   [--seed N] [--quick] [--out FILE]
       benchmark trace [--seed N] [--quick] [--out FILE]
       benchmark agree A.json B.json [--bounds BENCHMARK.json]
       benchmark --workload W --seed N --seconds S --trace 0|1

run    end-to-end metrics of all six workloads: 10 rounds, in each a fresh
       process per workload, 12 measured seconds per workload in all
trace  per-layer metrics: each workload replayed as public layer calls,
       one process and 6 seconds per workload
agree  compare two result files of the same kind against the bounds
The last form is what BENCHMARK.json's command runs: one workload, S
measured seconds over 3 fresh processes (one if traced), one JSON result
as the last line of standard output.";

/// The protocol's fixed sizes: `(rounds, measured seconds per workload)`.
/// They are not options, so two result files of one kind always hold the
/// same amount of measurement.
const RUN: (usize, f64) = (10, 12.0);
const TRACE: (usize, f64) = (1, 6.0);
/// Fresh processes per untraced contract run: the median set-up time of
/// three, and no single process's heap layout decides the run.
const CONTRACT_ROUNDS: usize = 3;
/// Fewest repetitions of a traced workload.
const TRACE_MIN_SAMPLES: usize = 5;

/// An error as the message this program reports.
fn text(err: impl std::fmt::Display) -> String {
    err.to_string()
}

/// Flags after the subcommand, as `(name, value)`; bare words are kept apart.
struct Flags {
    named: Vec<(String, String)>,
    bare: Vec<String>,
}

impl Flags {
    /// `switches` take no value; every other `--flag` takes one.
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut flags = Flags {
            named: Vec::new(),
            bare: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.named.push((name.to_string(), String::new()));
                }
                Some(name) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.named.push((name.to_string(), value.clone()));
                }
                None => flags.bare.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    /// The value of `--name` (the last one given).
    fn value(&self, name: &str) -> Option<&str> {
        let named = self.named.iter().rev();
        named
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .next()
    }

    fn has(&self, name: &str) -> bool {
        self.named.iter().any(|(n, _)| n == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read '{v}'")),
        }
    }

    fn allow_only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .named
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown flag --{name}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

/// Where result files go: next to the build, inside the checkout.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("benchmark")
}

fn write_file(path: &Path, file: &JsonValue) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, file.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn read_file(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Numbers from an unoptimised build, or from fewer cores than the join
/// workers need, are not the benchmark's.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: use --release".into());
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < workloads::THREADS {
        eprintln!(
            "warning: {cores} core(s) for {} join threads - no parallel speed-up can show",
            workloads::THREADS
        );
    }
    Ok(())
}

fn run_or_trace(trace: bool, args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["quick"])?;
    flags.allow_only(&["seed", "quick", "out", "inject-spin-pct"])?;
    guard()?;
    let quick = flags.has("quick");
    let (rounds, seconds) = if trace { TRACE } else { RUN };
    let mut plan = Plan {
        workloads: WORKLOADS.to_vec(),
        seed: flags.number("seed", 7)?,
        rounds,
        seconds,
        min_samples: if trace {
            TRACE_MIN_SAMPLES
        } else {
            P90_MIN_SAMPLES
        },
        trace,
        quick,
        inject_spin_pct: flags.number("inject-spin-pct", 0.0)?,
    };
    if quick {
        // 2 rounds x 3 iterations: does it run at all?
        plan.rounds = if trace { 1 } else { 2 };
        plan.seconds = 0.0;
        plan.min_samples = 3 * plan.rounds;
    }
    let file = measure(&plan)?;
    print_table(&file);
    if quick {
        println!("quick: not comparable");
    }
    let default_out = output_dir().join(if trace { "trace.json" } else { "run.json" });
    let out = flags.value("out").map_or(default_out, PathBuf::from);
    write_file(&out, &file)?;
    Ok(ExitCode::SUCCESS)
}

fn agree_command(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.allow_only(&["bounds"])?;
    let [a, b] = flags.bare.as_slice() else {
        return Err(format!("agree takes two result files\n{USAGE}"));
    };
    let bounds_path = flags.value("bounds").unwrap_or("BENCHMARK.json");
    let bounds = agree::bounds(&read_file(bounds_path)?)?;
    let rows = agree::compare(&read_file(a)?, &read_file(b)?, &bounds)?;
    Ok(match agree::report(&rows) {
        0 => {
            println!("agree: all {} pairs within their bounds", rows.len());
            ExitCode::SUCCESS
        }
        outside => {
            println!(
                "agree: {outside} of {} pairs outside their bounds",
                rows.len()
            );
            ExitCode::FAILURE
        }
    })
}

/// The `BENCHMARK.json` command: one workload, one result line.
fn contract(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &[])?;
    flags.allow_only(&["workload", "seed", "seconds", "trace"])?;
    guard()?;
    let trace = match flags.number("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let name = flags
        .value("workload")
        .ok_or_else(|| format!("give a --workload\n{USAGE}"))?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let plan = Plan {
        workloads: vec![*spec],
        seed: flags.number("seed", 7)?,
        rounds: if trace { 1 } else { CONTRACT_ROUNDS },
        seconds: flags.number("seconds", RUN.1)?,
        min_samples: if trace {
            TRACE_MIN_SAMPLES
        } else {
            P90_MIN_SAMPLES
        },
        trace,
        quick: false,
        inject_spin_pct: 0.0,
    };
    let file = measure(&plan)?;
    print_table(&file);
    let kind = if trace { "trace" } else { "run" };
    write_file(&output_dir().join(format!("{kind}-{name}.json")), &file)?;

    let entry = file
        .get("workloads")
        .and_then(|w| w.get(name))
        .ok_or("result file lacks the workload")?;
    let count = |key: &str| entry.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let measured = entry.get("metrics").ok_or("result lacks metrics")?;
    let mut metrics = JsonValue::object();
    let names: Vec<&str> = if trace {
        LAYERS.iter().map(|m| m.name).collect()
    } else {
        // Failures travel in `failed` / `attempted`, not as a metric.
        END_TO_END
            .iter()
            .map(|m| m.name)
            .filter(|n| *n != "failed_share")
            .collect()
    };
    for metric in names {
        let field = |key: &str| measured.get(metric).and_then(|m| m.get(key));
        let value = field("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{metric} could not be measured"))?;
        let unit = field("unit").and_then(JsonValue::as_str).unwrap_or("");
        let mut entry = JsonValue::object();
        entry.set("value", value).set("unit", unit);
        metrics.set(metric, entry);
    }
    let mut line = JsonValue::object();
    line.set("correct", count("failed") == 0.0)
        .set("attempted", count("attempted") as usize)
        .set("failed", count("failed") as usize)
        .set("metrics", metrics);
    println!("{}", line.to_json());
    Ok(ExitCode::SUCCESS)
}

fn child_command(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["traced"])?;
    let [workload] = flags.bare.as_slice() else {
        return Err("child takes one workload".into());
    };
    let line = child::run(
        &ChildArgs {
            workload: workload.clone(),
            seed: flags.number("seed", 7)?,
            seconds: flags.number("seconds", 1.0)?,
            min_iterations: flags.number("min-iterations", 1)?,
            trace: flags.has("traced"),
            inject_spin_pct: flags.number("inject-spin-pct", 0.0)?,
        },
        started,
    )?;
    println!("{}", line.to_json());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child_command(&args[1..], started),
        Some("run") => run_or_trace(false, &args[1..]),
        Some("trace") => run_or_trace(true, &args[1..]),
        Some("agree") => agree_command(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => contract(&args),
        _ => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::FAILURE
    })
}
