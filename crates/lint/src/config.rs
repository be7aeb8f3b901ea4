//! The committed lint configuration: a minimal TOML-subset reader.
//!
//! `crates/lint/lint.toml` declares, per rule, the *path allowlist* (files
//! where the rule does not run at all — reserved for files whose purpose is
//! the thing the rule forbids, like a timing harness calling
//! `Instant::now`) and whether the rule is *ratcheted* (violations compared
//! against the committed baseline instead of denied outright — see
//! [`ratchet`](crate::ratchet)).
//!
//! The accepted grammar is the slice of TOML the config actually needs:
//!
//! ```toml
//! # comment
//! [rule-name]
//! allow = [
//!     "crates/pstore/src/op/kernel.rs",
//! ]
//! ratchet = true
//! ```
//!
//! Anything outside that shape is a hard error with a line number — a lint
//! whose own config can silently rot would be a poor hygiene tool.

use std::collections::BTreeMap;

/// Per-rule configuration from `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleConfig {
    /// Workspace-relative file paths where the rule is skipped entirely.
    pub allow: Vec<String>,
    /// Whether violations ratchet against the committed baseline rather
    /// than failing outright.
    pub ratchet: bool,
}

/// The whole parsed configuration, keyed by rule name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    /// Rule name → its settings. Rules absent from the file get defaults.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Settings for `rule` (defaults when the config has no section for it).
    pub fn rule(&self, rule: &str) -> RuleConfig {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// Whether `path` is allowlisted for `rule`.
    pub fn is_allowed(&self, rule: &str, path: &str) -> bool {
        self.rules
            .get(rule)
            .is_some_and(|r| r.allow.iter().any(|a| a == path))
    }

    /// Parse the TOML subset described in the module docs.
    ///
    /// `known_rules` guards against typo'd section names: a section that
    /// names no real rule would silently allowlist nothing.
    pub fn parse(src: &str, known_rules: &[&str]) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section: Option<String> = None;
        let mut lines = src.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if !known_rules.contains(&name) {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown rule section '[{name}]' (rules: {})",
                        known_rules.join(", ")
                    ));
                }
                config.rules.entry(name.to_string()).or_default();
                section = Some(name.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint.toml:{lineno}: expected 'key = value', got '{line}'"
                ));
            };
            let Some(section) = &section else {
                return Err(format!(
                    "lint.toml:{lineno}: '{}' outside any [rule] section",
                    key.trim()
                ));
            };
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming lines until the ']'.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, more) in lines.by_ref() {
                    let more = strip_comment(more).trim().to_string();
                    value.push(' ');
                    value.push_str(&more);
                    if more.ends_with(']') {
                        break;
                    }
                }
                if !value.ends_with(']') {
                    return Err(format!("lint.toml:{lineno}: unterminated array"));
                }
            }
            let Some(entry) = config.rules.get_mut(section) else {
                return Err(format!("lint.toml:{lineno}: section state lost"));
            };
            match key.trim() {
                "allow" => entry.allow = parse_string_array(&value, lineno)?,
                "ratchet" => {
                    entry.ratchet = match value.as_str() {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(format!(
                                "lint.toml:{lineno}: ratchet must be true/false, got '{other}'"
                            ));
                        }
                    };
                }
                other => {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown key '{other}' (expected allow / ratchet)"
                    ));
                }
            }
        }
        Ok(config)
    }
}

/// Drop a `#`-to-end-of-line comment, honouring `#` inside quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// `[ "a", "b", ]` (trailing comma tolerated) → the string items.
fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{lineno}: allow must be an array of strings"))?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let item = part
            .strip_prefix('"')
            .and_then(|p| p.strip_suffix('"'))
            .ok_or_else(|| {
                format!("lint.toml:{lineno}: array items must be double-quoted, got '{part}'")
            })?;
        items.push(item.to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["determinism", "panic-policy"];

    #[test]
    fn parses_sections_arrays_and_flags() {
        let src = r#"
# top comment
[determinism]
allow = [
    "crates/pstore/src/op/kernel.rs",  # inline comments are skipped
    "crates/other.rs",
]

[panic-policy]
ratchet = true
allow = []
"#;
        let config = Config::parse(src, RULES).unwrap();
        assert!(config.is_allowed("determinism", "crates/pstore/src/op/kernel.rs"));
        assert!(config.is_allowed("determinism", "crates/other.rs"));
        assert!(!config.is_allowed("determinism", "crates/elsewhere.rs"));
        assert!(config.rule("panic-policy").ratchet);
        assert!(!config.rule("determinism").ratchet);
        // Rules with no section fall back to defaults.
        assert_eq!(config.rule("float-ordering"), RuleConfig::default());
    }

    #[test]
    fn single_line_array_and_inline_comment() {
        let src = "[determinism]\nallow = [\"a.rs\", \"b.rs\"] # tail\n";
        let config = Config::parse(src, RULES).unwrap();
        assert_eq!(config.rule("determinism").allow, ["a.rs", "b.rs"]);
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let src = "[determinism]\nallow = [\"weird#name.rs\"]\n";
        let config = Config::parse(src, RULES).unwrap();
        assert_eq!(config.rule("determinism").allow, ["weird#name.rs"]);
    }

    #[test]
    fn rejects_malformed_config() {
        for (src, needle) in [
            ("[typo-rule]\n", "unknown rule section"),
            ("allow = []\n", "outside any"),
            ("[determinism]\nallow = \"not-array\"\n", "array"),
            ("[determinism]\nratchet = maybe\n", "true/false"),
            ("[determinism]\nbogus = 1\n", "unknown key"),
            ("[determinism]\njust words\n", "key = value"),
        ] {
            let err = Config::parse(src, RULES).unwrap_err();
            assert!(err.contains(needle), "{src:?}: {err}");
            // Errors carry a line number.
            assert!(err.contains("lint.toml:"), "{err}");
        }
    }
}
