//! The lint gate, run against this repository's own tree.
//!
//! These tests *are* the acceptance criteria for the lint subsystem:
//!
//! * the real workspace passes `check` with zero errors and zero ratchet
//!   growth (what CI enforces),
//! * injecting a `HashMap` import or a `partial_cmp(...).unwrap()` into
//!   `crates/dbmsim/src/serving.rs` fails the check, naming the rule, the
//!   file, and the line,
//! * the determinism and float-ordering rules hold at zero (the kernel
//!   thread-default site is waived inline; no file is exempt).

use eedc_lint::engine::{collect_workspace_files, run_check};
use eedc_lint::ratchet::Baseline;
use eedc_lint::rules;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

fn load_real_tree() -> (Vec<(String, String)>, Baseline) {
    let root = workspace_root();
    let files = collect_workspace_files(&root).expect("workspace scan");
    let baseline_src = std::fs::read_to_string(root.join("crates/lint/baseline.json"))
        .expect("committed baseline.json");
    let baseline = Baseline::from_json(&baseline_src).expect("valid baseline.json");
    (files, baseline)
}

#[test]
fn workspace_passes_the_gate() {
    let (files, baseline) = load_real_tree();
    assert!(files.len() > 50, "workspace scan looks truncated");
    let report = run_check(&files, &baseline, None);
    let rendered: Vec<String> = report.errors.iter().map(|v| v.render()).collect();
    assert!(
        !report.failed(),
        "the workspace must pass its own lint gate:\n{}",
        rendered.join("\n")
    );
    assert!(report.errors.is_empty(), "{rendered:?}");
}

#[test]
fn determinism_and_float_ordering_are_at_zero() {
    let (files, baseline) = load_real_tree();
    for rule in [rules::DETERMINISM, rules::FLOAT_ORDERING] {
        // Not ratcheted, and no file can be exempted wholesale: every
        // unwaived site is an error.
        assert!(!rules::rule_by_name(rule).expect("known rule").ratcheted);
        let report = run_check(&files, &baseline, Some(rule));
        assert!(
            report.errors.is_empty(),
            "{rule} must hold at zero: {:?}",
            report.errors
        );
    }
}

#[test]
fn panic_policy_is_ratcheted_not_zero() {
    let (files, baseline) = load_real_tree();
    assert!(
        rules::rule_by_name(rules::PANIC_POLICY)
            .expect("known rule")
            .ratcheted
    );
    let report = run_check(&files, &baseline, Some(rules::PANIC_POLICY));
    // Debt exists, is recorded, and has not grown.
    let total: usize = report
        .ratchet_counts
        .get(rules::PANIC_POLICY)
        .map(|files| files.values().sum())
        .unwrap_or(0);
    assert!(total > 0, "the ratchet should be tracking real debt");
    assert!(!report.failed(), "ratchet must not have grown");
    // eedc_core::json burned down to zero in this PR: it must not reappear.
    assert_eq!(
        report
            .ratchet_counts
            .get(rules::PANIC_POLICY)
            .and_then(|files| files.get("crates/core/src/json.rs")),
        None,
        "crates/core/src/json.rs must stay panic-free"
    );
}

/// Splice `line` into the serving module just after its `use` block, so the
/// injection lands in non-test library code.
fn inject_into_serving(files: &mut [(String, String)], line: &str) -> u32 {
    let serving = files
        .iter_mut()
        .find(|(path, _)| path == "crates/dbmsim/src/serving.rs")
        .expect("serving.rs present");
    let insert_at = serving
        .1
        .lines()
        .position(|l| l.starts_with("use "))
        .expect("serving.rs has use declarations");
    let mut lines: Vec<&str> = serving.1.lines().collect();
    lines.insert(insert_at, line);
    serving.1 = lines.join("\n");
    insert_at as u32 + 1
}

#[test]
fn injected_hashmap_import_fails_naming_rule_file_line() {
    let (mut files, baseline) = load_real_tree();
    let line = inject_into_serving(&mut files, "use std::collections::HashMap;");
    let report = run_check(&files, &baseline, None);
    assert!(report.failed());
    let hit = report
        .errors
        .iter()
        .find(|v| v.rule == rules::DETERMINISM)
        .expect("determinism error expected");
    assert_eq!(hit.path, "crates/dbmsim/src/serving.rs");
    assert_eq!(hit.line, line);
    assert!(hit.message.contains("HashMap"), "{}", hit.message);
    // The rendered form carries rule + file + line for CI logs.
    let rendered = hit.render();
    assert!(
        rendered.contains("crates/dbmsim/src/serving.rs"),
        "{rendered}"
    );
    assert!(rendered.contains("[determinism]"), "{rendered}");
    assert!(rendered.contains(&format!(":{line}:")), "{rendered}");
}

#[test]
fn injected_partial_cmp_unwrap_fails_both_rules() {
    let (mut files, baseline) = load_real_tree();
    let line = inject_into_serving(
        &mut files,
        "fn worst(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }",
    );
    let report = run_check(&files, &baseline, None);
    assert!(report.failed());
    // float-ordering errors immediately…
    let float = report
        .errors
        .iter()
        .find(|v| v.rule == rules::FLOAT_ORDERING)
        .expect("float-ordering error expected");
    assert_eq!(float.path, "crates/dbmsim/src/serving.rs");
    assert_eq!(float.line, line);
    // …and the unwrap is ratchet *growth* for serving.rs, failing too.
    let grew = report
        .ratchet
        .iter()
        .find(|r| r.rule == rules::PANIC_POLICY && r.path == "crates/dbmsim/src/serving.rs")
        .expect("serving.rs ratchet row");
    assert!(grew.grew(), "unwrap must register as ratchet growth");
    assert_eq!(grew.current, grew.baseline + 1);
}

#[test]
fn injected_unsafe_without_safety_comment_fails() {
    let (mut files, baseline) = load_real_tree();
    let line = inject_into_serving(&mut files, "fn sneak(p: *const u8) -> u8 { unsafe { *p } }");
    let report = run_check(&files, &baseline, None);
    let hit = report
        .errors
        .iter()
        .find(|v| v.rule == rules::UNSAFE_AUDIT)
        .expect("unsafe-audit error expected");
    assert_eq!(
        (hit.path.as_str(), hit.line),
        ("crates/dbmsim/src/serving.rs", line)
    );
}

#[test]
fn committed_baseline_is_byte_stable_under_rerecording() {
    // `baseline` must be idempotent on an unchanged tree: what from_counts
    // produces for the current tree renders byte-identically to the
    // committed file (sorted keys, trailing newline).
    let (files, _) = load_real_tree();
    let report = run_check(&files, &Baseline::default(), None);
    let rerecorded = Baseline::from_counts(&report.ratchet_counts).to_json();
    let committed = std::fs::read_to_string(workspace_root().join("crates/lint/baseline.json"))
        .expect("committed baseline.json");
    assert_eq!(
        rerecorded, committed,
        "run `cargo run -p eedc-lint -- baseline`"
    );
}
