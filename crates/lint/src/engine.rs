//! The rule engine: runs every rule over every file, applies waivers and
//! `#[cfg(test)]` exemptions, and folds ratcheted rules against the
//! committed baseline.
//!
//! Flow per file (see `docs/ARCHITECTURE.md` § "Static analysis"):
//!
//! ```text
//! source ─lex─▶ tokens ─┬─▶ #[cfg(test)] line ranges ──┐
//!                       ├─▶ waivers (// lint:allow)    ├─▶ findings ─▶ waive /
//!                       └─▶ rule matchers ─────────────┘    ratchet
//! ```
//!
//! A finding survives as an *error* unless (a) a well-formed waiver for the
//! rule sits on the same or the preceding line, or (b) the rule is ratcheted
//! and the file's violation count has not grown past the committed
//! baseline. No file can be exempted from a rule, only a line, with a
//! reason. Waivers that suppress nothing are themselves errors
//! (`waiver-hygiene`), so the escape hatch cannot rot.

use crate::lexer::{lex, Token, TokenKind};
use crate::ratchet::Baseline;
use crate::rules::{self, FileView, Scope, WAIVER_HYGIENE};
use eedc_core::json::JsonValue;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// How a file is classified for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileCategory {
    /// Shipped library source: `src/**` excluding `src/bin/**`.
    Library,
    /// Integration tests, benches, examples, and binaries.
    Support,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileCategory {
    if path.contains("/src/") && !path.contains("/src/bin/") {
        FileCategory::Library
    } else {
        FileCategory::Support
    }
}

/// One confirmed policy violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl Violation {
    /// `path:line: [rule] message` — the single-line report format.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// An inline waiver comment: `// lint:allow(<rule>): <reason>`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Waiver {
    rule: String,
    line: u32,
    /// `Some(problem)` when the waiver is malformed (and cannot suppress).
    problem: Option<String>,
}

/// Parse waivers out of plain `//` comments (doc comments don't count).
fn parse_waivers(tokens: &[Token]) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let Some(body) = tok.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment
        }
        let body = body.trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some((rule, after)) = rest.split_once(')') else {
            waivers.push(Waiver {
                rule: String::new(),
                line: tok.line,
                problem: Some("malformed waiver: missing ')'".to_string()),
            });
            continue;
        };
        let rule = rule.trim().to_string();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        let problem = if rules::rule_by_name(&rule).is_none() {
            Some(format!("waiver names unknown rule '{rule}'"))
        } else if reason.is_empty() {
            Some(format!(
                "waiver for '{rule}' has no reason; write `lint:allow({rule}): <why>`"
            ))
        } else {
            None
        };
        waivers.push(Waiver {
            rule,
            line: tok.line,
            problem,
        });
    }
    waivers
}

/// Line ranges covered by `#[cfg(test)]` items (attribute line through the
/// item's closing brace or terminating semicolon). `cfg(all(test, …))` and
/// friends count: any `cfg` attribute mentioning the `test` ident. The inner
/// form `#![cfg(test)]` covers the rest of its file (a `tests.rs` module
/// file opens with it).
fn test_line_ranges(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let tok = |ci: usize| code.get(ci).map(|&i| &tokens[i]);
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let inner = tok(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = i + 1 + usize::from(inner);
        if !(tok(i).is_some_and(|t| t.is_punct('#')) && tok(open).is_some_and(|t| t.is_punct('[')))
        {
            i += 1;
            continue;
        }
        let start_line = tok(i).map_or(0, |t| t.line);
        let (attr, after) = attribute_body(tokens, code, open + 1);
        let is_cfg_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"));
        if !is_cfg_test {
            i = after;
            continue;
        }
        if inner {
            ranges.push((start_line, u32::MAX));
            break;
        }
        // Skip any further attributes between #[cfg(test)] and the item.
        let mut j = after;
        while tok(j).is_some_and(|t| t.is_punct('#')) && tok(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = attribute_body(tokens, code, j + 2).1;
        }
        // The item extends to its matching close brace, or to a `;` for
        // brace-less items (`#[cfg(test)] use …;`).
        let mut depth = 0usize;
        let mut entered = false;
        let mut end_line = start_line;
        while let Some(t) = tok(j) {
            end_line = t.end_line();
            if t.is_punct('{') {
                depth += 1;
                entered = true;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                if entered && depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_punct(';') && !entered {
                j += 1;
                break;
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j;
    }
    ranges
}

/// Collect the tokens inside `#[ … ]` starting at `start` (just past the
/// `[`); returns them and the code index just past the closing `]`.
fn attribute_body<'a>(
    tokens: &'a [Token],
    code: &[usize],
    start: usize,
) -> (Vec<&'a Token>, usize) {
    let mut depth = 1usize;
    let mut body = Vec::new();
    let mut j = start;
    while let Some(&idx) = code.get(j) {
        let t = &tokens[idx];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (body, j + 1);
            }
        }
        body.push(t);
        j += 1;
    }
    (body, j)
}

/// Per-file analysis outcome.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Violations that survived waivers (ratcheting is applied later,
    /// across files).
    pub active: Vec<Violation>,
    /// Violations suppressed by a well-formed waiver (reported for
    /// transparency, never errors).
    pub waived: Vec<Violation>,
}

/// Run every rule over one file; waivers come from the source itself.
pub fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let tokens = lex(src);
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let test_ranges = test_line_ranges(&tokens, &code);
    let in_test = |line: u32| test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    let waivers = parse_waivers(&tokens);
    let mut waiver_used = vec![false; waivers.len()];
    let category = classify(path);
    let view = FileView {
        tokens: &tokens,
        code: &code,
    };

    let mut analysis = FileAnalysis::default();
    for rule in rules::RULES {
        if rule.scope == Scope::Library && category != FileCategory::Library {
            continue;
        }
        for finding in rules::check(rule, &view) {
            if rule.skip_test_code && in_test(finding.line) {
                continue;
            }
            let violation = Violation {
                rule: rule.name,
                path: path.to_string(),
                line: finding.line,
                message: finding.message,
            };
            let waiver = waivers.iter().position(|w| {
                w.problem.is_none()
                    && w.rule == rule.name
                    && (w.line == finding.line || w.line + 1 == finding.line)
            });
            match waiver {
                Some(w) => {
                    waiver_used[w] = true;
                    analysis.waived.push(violation);
                }
                None => analysis.active.push(violation),
            }
        }
    }

    // Waiver hygiene: malformed waivers and waivers that suppressed nothing
    // are errors themselves — the escape hatch must not rot.
    for (waiver, used) in waivers.iter().zip(&waiver_used) {
        let message = match (&waiver.problem, used) {
            (Some(problem), _) => problem.clone(),
            (None, false) => format!(
                "stale waiver for '{}': it suppresses nothing on this or the next \
                 line; remove it",
                waiver.rule
            ),
            (None, true) => continue,
        };
        analysis.active.push(Violation {
            rule: WAIVER_HYGIENE,
            path: path.to_string(),
            line: waiver.line,
            message,
        });
    }
    analysis
}

/// One per-file row of a ratcheted rule's comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetRow {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Committed violation count.
    pub baseline: usize,
    /// Current violation count.
    pub current: usize,
}

impl RatchetRow {
    /// Growth is the only failure: equal holds the line, lower burns down.
    pub fn grew(&self) -> bool {
        self.current > self.baseline
    }

    /// Whether the count dropped below the baseline (re-record to lock in).
    pub fn improved(&self) -> bool {
        self.current < self.baseline
    }
}

/// Aggregated outcome of a whole-workspace check.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Non-ratcheted violations — each one fails the gate.
    pub errors: Vec<Violation>,
    /// Per-file ratchet comparisons (rows where either side is non-zero).
    pub ratchet: Vec<RatchetRow>,
    /// Waived violations, for the JSON report.
    pub waived: Vec<Violation>,
    /// Current counts of every ratcheted rule (input for `baseline`).
    pub ratchet_counts: BTreeMap<String, BTreeMap<String, usize>>,
}

impl LintReport {
    /// Whether the gate fails: any error, or any ratchet growth.
    pub fn failed(&self) -> bool {
        !self.errors.is_empty() || self.ratchet.iter().any(RatchetRow::grew)
    }

    /// Render the machine-readable report (uploaded as a CI artifact).
    pub fn to_json(&self) -> JsonValue {
        let violation_json = |v: &Violation| {
            let mut obj = JsonValue::object();
            obj.set("rule", v.rule)
                .set("path", v.path.as_str())
                .set("line", v.line as usize)
                .set("message", v.message.as_str());
            obj
        };
        let mut report = JsonValue::object();
        report.set("schema", 1usize);
        report.set("files_scanned", self.files_scanned);
        let mut errors = JsonValue::array();
        for v in &self.errors {
            errors.push(violation_json(v));
        }
        report.set("errors", errors);
        let mut waived = JsonValue::array();
        for v in &self.waived {
            waived.push(violation_json(v));
        }
        report.set("waived", waived);
        let mut ratchet = JsonValue::array();
        for row in &self.ratchet {
            let mut obj = JsonValue::object();
            obj.set("rule", row.rule.as_str())
                .set("path", row.path.as_str())
                .set("baseline", row.baseline)
                .set("current", row.current)
                .set("grew", row.grew());
            ratchet.push(obj);
        }
        report.set("ratchet", ratchet);
        report.set("failed", self.failed());
        report
    }
}

/// Run the whole check over in-memory `(path, source)` pairs.
///
/// `filter` restricts which rules *report* (all rules still run, so
/// waiver-hygiene stays accurate under filtering).
pub fn run_check(
    files: &[(String, String)],
    baseline: &Baseline,
    filter: Option<&str>,
) -> LintReport {
    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    let ratcheted: Vec<&str> = rules::RULES
        .iter()
        .filter(|r| r.ratcheted)
        .map(|r| r.name)
        .collect();
    let mut counts: BTreeMap<String, BTreeMap<String, usize>> = ratcheted
        .iter()
        .map(|&name| (name.to_string(), BTreeMap::new()))
        .collect();

    for (path, src) in files {
        let analysis = analyze_file(path, src);
        report.waived.extend(analysis.waived);
        for violation in analysis.active {
            if ratcheted.contains(&violation.rule) {
                if let Some(per_file) = counts.get_mut(violation.rule) {
                    *per_file.entry(violation.path.clone()).or_insert(0) += 1;
                }
            } else if filter.is_none_or(|f| f == violation.rule) {
                report.errors.push(violation);
            }
        }
    }
    report
        .errors
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    for (rule, per_file) in &counts {
        if filter.is_some_and(|f| f != rule) {
            continue;
        }
        let mut paths: Vec<&String> = per_file.keys().collect();
        if let Some(base_files) = baseline.rules.get(rule) {
            paths.extend(base_files.keys().filter(|p| !per_file.contains_key(*p)));
        }
        paths.sort();
        for path in paths {
            let current = per_file.get(path).copied().unwrap_or(0);
            let base = baseline.count(rule, path);
            if current == 0 && base == 0 {
                continue;
            }
            report.ratchet.push(RatchetRow {
                rule: rule.clone(),
                path: path.clone(),
                baseline: base,
                current,
            });
        }
    }
    report.ratchet_counts = counts;
    report
}

/// Collect every `.rs` file under `<root>/crates`, as sorted
/// workspace-relative `(path, contents)` pairs. `target/` dirs are skipped;
/// `vendor/` sits outside `crates/` and is never visited.
pub fn collect_workspace_files(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut |path| {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escaped the workspace root", path.display()))?;
        let rel = rel
            .to_str()
            .ok_or_else(|| format!("non-UTF-8 path {}", path.display()))?
            .replace('\\', "/");
        let contents =
            fs::read_to_string(path).map_err(|e| format!("failed to read {rel}: {e}"))?;
        files.push((rel, contents));
        Ok(())
    })?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, visit: &mut dyn FnMut(&Path) -> Result<(), String>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("failed to read {}: {e}", dir.display()))?;
    let mut entries: Vec<_> = entries
        .collect::<Result<_, _>>()
        .map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{DETERMINISM, FLOAT_ORDERING, PANIC_POLICY};

    fn lib(src: &str) -> FileAnalysis {
        analyze_file("crates/x/src/lib.rs", src)
    }

    #[test]
    fn classify_library_vs_support() {
        assert_eq!(classify("crates/core/src/json.rs"), FileCategory::Library);
        assert_eq!(
            classify("crates/pstore/src/op/kernel.rs"),
            FileCategory::Library
        );
        assert_eq!(
            classify("crates/eedc/src/bin/figures.rs"),
            FileCategory::Support
        );
        assert_eq!(
            classify("crates/pstore/tests/kernel_properties.rs"),
            FileCategory::Support
        );
        assert_eq!(
            classify("crates/eedc/examples/quickstart.rs"),
            FileCategory::Support
        );
        assert_eq!(
            classify("crates/eedc/benches/design_space.rs"),
            FileCategory::Support
        );
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "pub fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); let m = HashMap::new(); }\n\
                   }\n";
        assert!(lib(src).active.is_empty());
        // The same code outside the test module fires.
        let src = "pub fn f() { x.unwrap(); }";
        let analysis = lib(src);
        assert_eq!(analysis.active.len(), 1);
        assert_eq!(analysis.active[0].rule, PANIC_POLICY);
    }

    #[test]
    fn cfg_all_test_and_braceless_items_are_exempt() {
        let src = "#[cfg(all(test, feature = \"x\"))]\n\
                   fn helper() { y.expect(\"msg\"); }\n\
                   #[cfg(test)]\n\
                   use std::collections::HashMap;\n\
                   pub fn real() {}\n";
        assert!(lib(src).active.is_empty());
        // A module file that opens with the inner form is test code to its
        // end; the same file without it is not.
        let src = "//! Tests.\n#![cfg(test)]\nuse super::*;\nfn t() { x.unwrap(); }\n";
        assert!(lib(src).active.is_empty());
        assert_eq!(lib(&src.replace("#![cfg(test)]", "")).active.len(), 1);
    }

    #[test]
    fn test_region_does_not_swallow_following_code() {
        let src = "#[cfg(test)]\n\
                   mod tests { fn t() {} }\n\
                   pub fn f() { x.unwrap(); }\n";
        let analysis = lib(src);
        assert_eq!(analysis.active.len(), 1);
        assert_eq!(analysis.active[0].line, 3);
    }

    #[test]
    fn waiver_on_preceding_or_same_line_applies() {
        let src = "// lint:allow(determinism): fixed iteration asserted below\n\
                   use std::collections::HashMap;\n\
                   let t = SystemTime::now(); // lint:allow(determinism): test rig only\n";
        let analysis = lib(src);
        assert!(analysis.active.is_empty(), "{:?}", analysis.active);
        assert_eq!(analysis.waived.len(), 2);
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_apply() {
        let src = "// lint:allow(panic-policy): wrong rule\n\
                   use std::collections::HashMap;\n";
        let analysis = lib(src);
        // The HashMap still fires, and the waiver is stale: two errors.
        let rules: Vec<&str> = analysis.active.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&DETERMINISM));
        assert!(rules.contains(&WAIVER_HYGIENE));
    }

    #[test]
    fn stale_malformed_and_unknown_waivers_are_errors() {
        let src = "// lint:allow(determinism): nothing here to suppress\n\
                   pub fn fine() {}\n\
                   // lint:allow(determinism)\n\
                   use std::collections::HashSet;\n\
                   // lint:allow(no-such-rule): whatever\n";
        let analysis = lib(src);
        let hygiene: Vec<&Violation> = analysis
            .active
            .iter()
            .filter(|v| v.rule == WAIVER_HYGIENE)
            .collect();
        assert_eq!(hygiene.len(), 3, "{hygiene:?}");
        assert!(hygiene[0].message.contains("stale"));
        assert!(hygiene[1].message.contains("no reason"));
        assert!(hygiene[2].message.contains("unknown rule"));
        // The reason-less waiver did not suppress the HashSet.
        assert!(analysis.active.iter().any(|v| v.rule == DETERMINISM));
    }

    #[test]
    fn support_files_skip_library_rules() {
        let src = "x.unwrap(); let t = Instant::now(); a.partial_cmp(&b)";
        let analysis = analyze_file("crates/x/tests/it.rs", src);
        assert!(analysis.active.is_empty(), "{:?}", analysis.active);
        // unsafe-audit still applies everywhere.
        let analysis = analyze_file("crates/x/tests/it.rs", "unsafe { f() }");
        assert_eq!(analysis.active.len(), 1);
    }

    #[test]
    fn ratchet_passes_on_equal_fails_on_growth() {
        let files = vec![(
            "crates/x/src/lib.rs".to_string(),
            "fn f() { a.unwrap(); b.unwrap(); }".to_string(),
        )];
        let mut baseline = Baseline::default();
        baseline.set_count(PANIC_POLICY, "crates/x/src/lib.rs", 2);
        let report = run_check(&files, &baseline, None);
        assert!(!report.failed(), "equal counts must hold the line");
        assert_eq!(report.ratchet.len(), 1);
        assert!(!report.ratchet[0].grew());

        baseline.set_count(PANIC_POLICY, "crates/x/src/lib.rs", 1);
        let report = run_check(&files, &baseline, None);
        assert!(report.failed(), "+1 over baseline must fail");
        assert!(report.ratchet[0].grew());

        baseline.set_count(PANIC_POLICY, "crates/x/src/lib.rs", 3);
        let report = run_check(&files, &baseline, None);
        assert!(!report.failed());
        assert!(report.ratchet[0].improved());
    }

    #[test]
    fn ratchet_burned_down_file_disappears_from_rows_only_at_zero_baseline() {
        let files = vec![("crates/x/src/lib.rs".to_string(), "fn f() {}".to_string())];
        let mut baseline = Baseline::default();
        baseline.set_count(PANIC_POLICY, "crates/x/src/lib.rs", 4);
        let report = run_check(&files, &baseline, None);
        // Still listed (baseline 4, current 0) so `baseline` re-records it away.
        assert_eq!(report.ratchet.len(), 1);
        assert!(report.ratchet[0].improved());
        assert!(!report.failed());
    }

    #[test]
    fn unratcheted_violations_are_errors_and_sorted() {
        let files = vec![
            (
                "crates/b/src/lib.rs".to_string(),
                "let x = Instant::now();".to_string(),
            ),
            (
                "crates/a/src/lib.rs".to_string(),
                "v.sort_by(|a, b| a.partial_cmp(b).unwrap());".to_string(),
            ),
        ];
        let report = run_check(&files, &Baseline::default(), None);
        assert!(report.failed());
        // Sorted by path; the partial_cmp file's float-ordering site is an
        // error (its `unwrap` is panic-policy, which is ratcheted instead).
        assert_eq!(report.errors[0].path, "crates/a/src/lib.rs");
        assert!(report.errors.iter().any(|v| v.rule == FLOAT_ORDERING));
        let rendered = report.errors[0].render();
        assert!(rendered.contains("crates/a/src/lib.rs:1: ["), "{rendered}");
    }

    #[test]
    fn filter_restricts_reporting_but_not_waiver_accounting() {
        let files = vec![(
            "crates/a/src/lib.rs".to_string(),
            "// lint:allow(panic-policy): invariant documented here\n\
             x.unwrap();\n\
             let t = Instant::now();\n"
                .to_string(),
        )];
        let report = run_check(&files, &Baseline::default(), Some(DETERMINISM));
        // Only the determinism error reports; the used panic-policy waiver
        // is not suddenly stale.
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].rule, DETERMINISM);
    }

    #[test]
    fn report_json_shape() {
        let files = vec![(
            "crates/a/src/lib.rs".to_string(),
            "let t = Instant::now();".to_string(),
        )];
        let report = run_check(&files, &Baseline::default(), None);
        let json = report.to_json();
        assert_eq!(json.usize_field("schema").unwrap(), 1);
        assert_eq!(json.usize_field("files_scanned").unwrap(), 1);
        assert!(json.bool_field("failed").unwrap());
        let errors = json.array_field("errors").unwrap();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].str_field("rule").unwrap(), DETERMINISM);
        assert_eq!(errors[0].usize_field("line").unwrap(), 1);
        // The JSON report round-trips through the core parser.
        let reparsed = JsonValue::parse(&json.to_json_pretty()).unwrap();
        assert_eq!(reparsed, json);
    }
}
