//! The policy rules: what the workspace promises, stated as token patterns.
//!
//! Every rule here defends an invariant the measurement methodology depends
//! on (see `docs/ARCHITECTURE.md` § "Static analysis"):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | simulation and estimator outputs are a pure function of inputs + seed |
//! | `panic-policy` | library code degrades to `Err`, not `panic!` (ratcheted burn-down) |
//! | `float-ordering` | `f64` orderings are total (`total_cmp`), never NaN-dependent |
//! | `unsafe-audit` | every `unsafe` carries a `// SAFETY:` justification |
//! | `waiver-hygiene` | inline waivers that suppress nothing are themselves errors |
//!
//! Rules match on the [`lexer`](crate::lexer) token stream, so occurrences
//! inside strings, comments, and doc text never fire, and identifier
//! matches are exact (`unwrap_or` is not `unwrap`).

use crate::lexer::{Token, TokenKind};

/// Where a rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Library source only: `src/**` excluding `src/bin/**`. Integration
    /// tests, benches, examples, and binaries are exempt.
    Library,
    /// Every `.rs` file in the workspace's crates.
    All,
}

/// A rule's static description; the matching logic lives in [`check`].
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The rule's name — also its waiver / baseline key.
    pub name: &'static str,
    /// One-line statement of the enforced invariant (for `rules` output).
    pub summary: &'static str,
    /// Which files the rule runs on.
    pub scope: Scope,
    /// Whether code inside `#[cfg(test)]` items is exempt.
    pub skip_test_code: bool,
    /// Whether the rule has pre-existing debt: per-file counts are held to
    /// the committed `baseline.json` (growth fails, equal or lower passes)
    /// instead of every site being an error.
    pub ratcheted: bool,
}

/// Name of the determinism rule.
pub const DETERMINISM: &str = "determinism";
/// Name of the panic-policy rule.
pub const PANIC_POLICY: &str = "panic-policy";
/// Name of the float-ordering rule.
pub const FLOAT_ORDERING: &str = "float-ordering";
/// Name of the unsafe-audit rule.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Name of the waiver-hygiene rule (synthesized by the engine, not matched
/// here — stale waivers are only known once every other rule has run).
pub const WAIVER_HYGIENE: &str = "waiver-hygiene";

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: DETERMINISM,
        summary: "no ambient clocks, hash-order iteration, or unseeded randomness \
                  in library code",
        scope: Scope::Library,
        skip_test_code: true,
        ratcheted: false,
    },
    Rule {
        name: PANIC_POLICY,
        summary: "no unwrap()/expect()/panic! in non-test library code (ratcheted)",
        scope: Scope::Library,
        skip_test_code: true,
        ratcheted: true,
    },
    Rule {
        name: FLOAT_ORDERING,
        summary: "float comparisons use total_cmp, never partial_cmp chains",
        scope: Scope::Library,
        skip_test_code: true,
        ratcheted: false,
    },
    Rule {
        name: UNSAFE_AUDIT,
        summary: "every `unsafe` carries a `// SAFETY:` comment",
        scope: Scope::All,
        skip_test_code: false,
        ratcheted: false,
    },
    Rule {
        name: WAIVER_HYGIENE,
        summary: "waivers must be well-formed, name a real rule, and suppress \
                  something",
        scope: Scope::All,
        skip_test_code: false,
        ratcheted: false,
    },
];

/// Look up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// The names of all rules, for usage text.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// One raw rule match: the line it fired on and what to tell the author.
/// Waivers and ratchets are applied later by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable statement of the violation and the remedy.
    pub message: String,
}

/// Everything a rule matcher needs about one file.
pub struct FileView<'a> {
    /// All tokens, comments included, in source order.
    pub tokens: &'a [Token],
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: &'a [usize],
}

impl FileView<'_> {
    fn code_token(&self, code_idx: usize) -> Option<&Token> {
        self.code.get(code_idx).map(|&i| &self.tokens[i])
    }
}

/// Run one rule's matcher. `WAIVER_HYGIENE` has no matcher here (the engine
/// synthesizes its findings) and yields nothing.
pub fn check(rule: &Rule, view: &FileView<'_>) -> Vec<Finding> {
    match rule.name {
        DETERMINISM => check_determinism(view),
        PANIC_POLICY => check_panic_policy(view),
        FLOAT_ORDERING => check_float_ordering(view),
        UNSAFE_AUDIT => check_unsafe_audit(view),
        _ => Vec::new(),
    }
}

/// Ambient nondeterminism: wall clocks, hash-order collections, unseeded
/// RNGs, machine-sized parallelism. Each makes a simulation or estimator
/// output depend on something other than its inputs and seed.
fn check_determinism(view: &FileView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, &tok_idx) in view.code.iter().enumerate() {
        let tok = &view.tokens[tok_idx];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let complaint = match tok.text.as_str() {
            "HashMap" | "HashSet" => Some(format!(
                "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet \
                 or an explicitly ordered structure",
                tok.text
            )),
            "SystemTime" => {
                Some("`SystemTime` is an ambient wall clock; take time as an input".to_string())
            }
            "thread_rng" => Some(
                "`thread_rng` is ambient randomness; thread a seeded RNG through \
                 the simulation or RunOptions"
                    .to_string(),
            ),
            "available_parallelism" => Some(
                "`available_parallelism` makes behaviour machine-dependent; take \
                 the thread count as a parameter"
                    .to_string(),
            ),
            "Instant" => {
                // Only the ambient read `Instant::now` is deterministic poison;
                // passing an Instant *value* around is fine.
                let is_now = view.code_token(i + 1).is_some_and(|t| t.is_punct(':'))
                    && view.code_token(i + 2).is_some_and(|t| t.is_punct(':'))
                    && view.code_token(i + 3).is_some_and(|t| t.is_ident("now"));
                is_now.then(|| {
                    "`Instant::now` is an ambient clock read; simulated time must come \
                     from the kernel's clock"
                        .to_string()
                })
            }
            _ => None,
        };
        if let Some(message) = complaint {
            findings.push(Finding {
                line: tok.line,
                message,
            });
        }
    }
    findings
}

/// `.unwrap()` / `.expect(…)` / `panic!(…)` in library code. Ratcheted via
/// the committed baseline: existing sites burn down PR by PR, new ones are
/// growth and fail the gate. `assert!`/`debug_assert!` are deliberately
/// allowed — invariant checks are policy, error handling by panic is not.
fn check_panic_policy(view: &FileView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, &tok_idx) in view.code.iter().enumerate() {
        let tok = &view.tokens[tok_idx];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |c: char| view.code_token(i + 1).is_some_and(|t| t.is_punct(c));
        let message = match tok.text.as_str() {
            "unwrap" if next_is('(') => {
                "`.unwrap()` in library code; return Err (or waive with the invariant that holds)"
            }
            "expect" if next_is('(') => {
                "`.expect()` in library code; return Err (or waive with the invariant that holds)"
            }
            "panic" if next_is('!') => {
                "`panic!` in library code; return Err (or waive with the invariant that holds)"
            }
            _ => continue,
        };
        findings.push(Finding {
            line: tok.line,
            message: message.to_string(),
        });
    }
    findings
}

/// Any *use* of `partial_cmp` (a `fn partial_cmp` definition header is the
/// one exemption: a `PartialOrd` impl delegating to `Ord::cmp`). NaN makes
/// `partial_cmp` return `None`, and `unwrap_or(Equal)` fallbacks silently
/// corrupt orderings — `f64::total_cmp` is total and deterministic.
fn check_float_ordering(view: &FileView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, &tok_idx) in view.code.iter().enumerate() {
        let tok = &view.tokens[tok_idx];
        if !tok.is_ident("partial_cmp") {
            continue;
        }
        let defined_here = i
            .checked_sub(1)
            .and_then(|p| view.code_token(p))
            .is_some_and(|t| t.is_ident("fn"));
        if !defined_here {
            findings.push(Finding {
                line: tok.line,
                message: "`partial_cmp` on floats is NaN-partial; use `f64::total_cmp` \
                          (or waive stating why NaN cannot reach this ordering)"
                    .to_string(),
            });
        }
    }
    findings
}

/// Every `unsafe` token must have a comment containing `SAFETY:` ending at
/// most [`SAFETY_COMMENT_REACH`] lines above it (same line allowed).
fn check_unsafe_audit(view: &FileView<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &tok_idx in view.code {
        let tok = &view.tokens[tok_idx];
        if !tok.is_ident("unsafe") {
            continue;
        }
        let justified = view.tokens.iter().any(|t| {
            t.is_comment()
                && t.text.contains("SAFETY:")
                && t.end_line() + SAFETY_COMMENT_REACH >= tok.line
                && t.end_line() <= tok.line
        });
        if !justified {
            findings.push(Finding {
                line: tok.line,
                message: "`unsafe` without a `// SAFETY:` comment in the preceding \
                          lines; state why the contract holds"
                    .to_string(),
            });
        }
    }
    findings
}

/// How many lines above an `unsafe` token a `SAFETY:` comment may end.
pub const SAFETY_COMMENT_REACH: u32 = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule_name: &str, src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let view = FileView {
            tokens: &tokens,
            code: &code,
        };
        let rule = rule_by_name(rule_name).expect("known rule");
        check(rule, &view)
    }

    #[test]
    fn determinism_flags_each_construct() {
        let src = "use std::collections::HashMap;\n\
                   let t = Instant::now();\n\
                   let r = thread_rng();\n\
                   let n = std::thread::available_parallelism();\n\
                   let s = SystemTime::now();\n\
                   let h: HashSet<u8> = HashSet::new();";
        let findings = run(DETERMINISM, src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 2, 3, 4, 5, 6, 6]);
    }

    #[test]
    fn determinism_allows_instant_values_and_strings() {
        // An Instant *parameter* is fine; only the ambient `::now` read fires.
        assert!(run(
            DETERMINISM,
            "fn f(start: Instant) -> u64 { start.elapsed() }"
        )
        .is_empty());
        assert!(run(DETERMINISM, "let s = \"HashMap Instant::now\"; // HashMap").is_empty());
        // Qualified path form fires too.
        assert_eq!(run(DETERMINISM, "std::time::Instant::now()").len(), 1);
    }

    #[test]
    fn panic_policy_flags_calls_not_lookalikes() {
        let findings = run(
            PANIC_POLICY,
            "x.unwrap();\ny.expect(\"m\");\npanic!(\"boom\");",
        );
        assert_eq!(findings.len(), 3);
        // unwrap_or / expect_byte / panic paths are different identifiers.
        assert!(run(
            PANIC_POLICY,
            "x.unwrap_or(0); p.expect_byte(b'\"'); std::panic::catch_unwind(f); #[should_panic]"
        )
        .is_empty());
    }

    #[test]
    fn float_ordering_flags_uses_not_definitions() {
        assert_eq!(run(FLOAT_ORDERING, "a.partial_cmp(&b).unwrap()").len(), 1);
        assert_eq!(
            run(
                FLOAT_ORDERING,
                "v.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\"))"
            )
            .len(),
            1
        );
        // The PartialOrd impl header delegating to Ord is the sanctioned shape.
        assert!(run(
            FLOAT_ORDERING,
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }"
        )
        .is_empty());
        assert!(run(FLOAT_ORDERING, "v.sort_by(f64::total_cmp)").is_empty());
    }

    #[test]
    fn unsafe_audit_requires_nearby_safety_comment() {
        assert_eq!(run(UNSAFE_AUDIT, "unsafe { ptr.read() }").len(), 1);
        assert!(run(
            UNSAFE_AUDIT,
            "// SAFETY: index checked against len above\nunsafe { ptr.read() }"
        )
        .is_empty());
        // A SAFETY comment too far above does not count.
        assert_eq!(
            run(
                UNSAFE_AUDIT,
                "// SAFETY: stale\n\n\n\n\nunsafe { ptr.read() }"
            )
            .len(),
            1
        );
        // Block comments count via their end line.
        assert!(run(
            UNSAFE_AUDIT,
            "/* SAFETY: the buffer\n   outlives the call */\nunsafe { ptr.read() }"
        )
        .is_empty());
    }
}
