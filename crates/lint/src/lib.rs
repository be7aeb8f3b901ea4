//! `eedc-lint` — the workspace's static-analysis pass.
//!
//! The repo's methodology rests on *reproducible* measurement: the
//! benchmark compares output digests across commits, and the serving
//! simulator promises bit-identical runs under a fixed seed. Those promises
//! were conventions; this crate makes them machine-checked contracts.
//!
//! The tool is self-contained by necessity (no registry access, so no
//! `syn`): a hand-rolled [`lexer`] resolves raw strings, byte strings,
//! nested block comments, and char-vs-lifetime ambiguity into a token
//! stream; [`rules`] states the policy as token patterns (and which rules
//! are ratcheted); [`engine`] applies inline waivers
//! (`// lint:allow(<rule>): <reason>`) and `#[cfg(test)]` exemptions; and
//! [`ratchet`] compares rules with pre-existing debt against the committed
//! `baseline.json`, failing only on growth. There is no configuration file
//! and no per-file exemption: a line is waived in place, with a reason.
//!
//! ```sh
//! cargo run -p eedc-lint -- check            # the CI gate
//! cargo run -p eedc-lint -- check --json eedc-lint-report.json
//! cargo run -p eedc-lint -- check --filter determinism
//! cargo run -p eedc-lint -- baseline         # re-record ratchet counts
//! cargo run -p eedc-lint -- rules            # print the rule table
//! ```
//!
//! Checking a single file programmatically:
//!
//! ```
//! use eedc_lint::engine::analyze_file;
//!
//! let analysis = analyze_file(
//!     "crates/x/src/lib.rs",
//!     "let when = std::time::Instant::now();",
//! );
//! assert_eq!(analysis.active.len(), 1);
//! assert_eq!(analysis.active[0].rule, "determinism");
//! assert!(analysis.active[0].render().contains("ambient clock"));
//! ```

pub mod engine;
pub mod lexer;
pub mod ratchet;
pub mod rules;

pub use engine::{analyze_file, collect_workspace_files, run_check, LintReport, Violation};
pub use ratchet::Baseline;
