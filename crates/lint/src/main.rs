//! The `eedc-lint` CLI: the workspace determinism / panic-policy /
//! float-ordering gate.
//!
//! ```sh
//! eedc-lint check [--json <path>] [--filter <rule>] [--root <dir>]
//! eedc-lint baseline [--root <dir>]
//! eedc-lint rules
//! ```
//!
//! * `check` — lint every `.rs` file under `<root>/crates`, apply waivers
//!   and the ratchet baseline (`crates/lint/baseline.json`); exit non-zero
//!   naming every violation.
//!   `--json` additionally writes the machine-readable report (CI uploads
//!   it as an artifact); `--filter` restricts reporting to one rule.
//! * `baseline` — re-record the ratcheted rules' per-file counts. Run this
//!   after burning violations down (never to absorb growth: review the
//!   diff it produces).
//! * `rules` — print the rule table.

use eedc_lint::engine::{collect_workspace_files, run_check, LintReport, RatchetRow};
use eedc_lint::ratchet::Baseline;
use eedc_lint::rules;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: eedc-lint <check|baseline|rules>\n\
                     \x20      check    [--json <path>] [--filter <rule>] [--root <dir>]\n\
                     \x20      baseline [--root <dir>]";

/// Workspace-relative location of the committed ratchet baseline.
const BASELINE_PATH: &str = "crates/lint/baseline.json";

struct Args {
    command: Command,
    json: Option<PathBuf>,
    filter: Option<String>,
    root: PathBuf,
}

#[derive(PartialEq, Eq)]
enum Command {
    Check,
    Baseline,
    Rules,
}

/// `Ok(None)` is an explicit `--help`: print usage and succeed.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut iter = argv.iter();
    let command = match iter.next().map(String::as_str) {
        Some("check") => Command::Check,
        Some("baseline") => Command::Baseline,
        Some("rules") => Command::Rules,
        Some("--help" | "-h") | None => return Ok(None),
        Some(other) => return Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    let mut args = Args {
        command,
        json: None,
        filter: None,
        root: PathBuf::from("."),
    };
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--json" => args.json = Some(PathBuf::from(value("--json")?)),
            "--filter" => {
                let rule = value("--filter")?;
                if rules::rule_by_name(&rule).is_none() {
                    return Err(format!(
                        "--filter: unknown rule '{rule}' (rules: {})",
                        rules::rule_names().join(", ")
                    ));
                }
                args.filter = Some(rule);
            }
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("eedc-lint: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("eedc-lint: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if args.command == Command::Rules {
        print_rules();
        return Ok(ExitCode::SUCCESS);
    }

    let files = collect_workspace_files(&args.root)?;

    if args.command == Command::Baseline {
        let report = run_check(&files, &Baseline::default(), None);
        let baseline = Baseline::from_counts(&report.ratchet_counts);
        let path = args.root.join(BASELINE_PATH);
        std::fs::write(&path, baseline.to_json())
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        let total: usize = report
            .ratchet_counts
            .values()
            .flat_map(|files| files.values())
            .sum();
        println!(
            "eedc-lint: recorded {} ({} ratcheted violations across {} rules)",
            path.display(),
            total,
            report.ratchet_counts.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let baseline_path = args.root.join(BASELINE_PATH);
    let baseline_src = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "failed to read {} ({e}); run `eedc-lint baseline` once to create it",
            baseline_path.display()
        )
    })?;
    let baseline = Baseline::from_json(&baseline_src)?;
    let report = run_check(&files, &baseline, args.filter.as_deref());

    if let Some(json_path) = &args.json {
        std::fs::write(json_path, report.to_json().to_json_pretty())
            .map_err(|e| format!("failed to write {}: {e}", json_path.display()))?;
    }
    print_report(&report);
    if report.failed() {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn print_rules() {
    println!("rule                scope    test-exempt  invariant");
    for rule in rules::RULES {
        let scope = match rule.scope {
            rules::Scope::Library => "library",
            rules::Scope::All => "all",
        };
        println!(
            "{:<19} {:<8} {:<12} {}",
            rule.name,
            scope,
            if rule.skip_test_code { "yes" } else { "no" },
            rule.summary
                .split_whitespace()
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

fn print_report(report: &LintReport) {
    for violation in &report.errors {
        println!("{}", violation.render());
    }
    let grown: Vec<&RatchetRow> = report.ratchet.iter().filter(|r| r.grew()).collect();
    for row in &grown {
        println!(
            "{}: [{}] ratchet grew {} -> {} (baseline {}); fix the new sites or \
             waive them with a reason",
            row.path, row.rule, row.baseline, row.current, BASELINE_PATH
        );
    }
    let improved: Vec<&RatchetRow> = report.ratchet.iter().filter(|r| r.improved()).collect();
    if !improved.is_empty() {
        let freed: usize = improved.iter().map(|r| r.baseline - r.current).sum();
        println!(
            "note: {} ratcheted violations burned down in {} files — run \
             `cargo run -p eedc-lint -- baseline` to lock the improvement in",
            freed,
            improved.len()
        );
    }
    for (rule, files) in &report.ratchet_counts {
        let total: usize = files.values().sum();
        let file_count = files.values().filter(|&&c| c > 0).count();
        println!("{rule} (ratcheted): {total} sites across {file_count} files");
    }
    if !report.waived.is_empty() {
        println!("waivers in effect: {}", report.waived.len());
    }
    if report.failed() {
        println!(
            "eedc-lint: FAILED — {} errors, {} ratchet growths across {} files",
            report.errors.len(),
            grown.len(),
            report.files_scanned
        );
    } else {
        println!(
            "eedc-lint: ok — {} files, {} errors",
            report.files_scanned,
            report.errors.len()
        );
    }
}
