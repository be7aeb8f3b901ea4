//! The ratchet: committed per-file violation counts for rules with
//! pre-existing debt.
//!
//! A rule like `panic-policy` has real existing violations; denying them
//! outright would block every PR until a mass rewrite. Instead the counts
//! are committed to `crates/lint/baseline.json` and the gate fails only on
//! *growth* — equal counts hold the line, lower counts burn debt down
//! (re-record with `eedc-lint baseline` to lock the improvement in). The
//! committed file is the contract, the tool only compares against it.
//!
//! The file is plain JSON, written and parsed with the workspace's own
//! [`eedc_core::json`] writer/reader:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "rules": {
//!     "panic-policy": { "crates/core/src/advisor.rs": 1, ... }
//!   }
//! }
//! ```
//!
//! Keys are sorted (BTreeMap order) so re-recording produces minimal diffs.

use eedc_core::json::JsonValue;
use std::collections::BTreeMap;

/// Schema version stamped into the baseline file.
pub const BASELINE_SCHEMA: usize = 1;

/// Committed violation counts: rule → file → count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// Per-rule, per-file counts.
    pub rules: BTreeMap<String, BTreeMap<String, usize>>,
}

impl Baseline {
    /// The committed count for `rule` in `path` (0 when unlisted — new
    /// files start with no debt allowance).
    pub fn count(&self, rule: &str, path: &str) -> usize {
        self.rules
            .get(rule)
            .and_then(|files| files.get(path))
            .copied()
            .unwrap_or(0)
    }

    /// Set one count (used by `baseline` recording and tests).
    pub fn set_count(&mut self, rule: &str, path: &str, count: usize) {
        self.rules
            .entry(rule.to_string())
            .or_default()
            .insert(path.to_string(), count);
    }

    /// Build a baseline from freshly measured counts, dropping zero entries
    /// so burned-down files disappear from the committed file.
    pub fn from_counts(counts: &BTreeMap<String, BTreeMap<String, usize>>) -> Baseline {
        let mut baseline = Baseline::default();
        for (rule, files) in counts {
            let files: BTreeMap<String, usize> = files
                .iter()
                .filter(|(_, &count)| count > 0)
                .map(|(path, &count)| (path.clone(), count))
                .collect();
            baseline.rules.insert(rule.clone(), files);
        }
        baseline
    }

    /// Render to the committed JSON form (pretty, sorted, trailing newline).
    pub fn to_json(&self) -> String {
        let mut root = JsonValue::object();
        root.set("schema", BASELINE_SCHEMA);
        let mut rules = JsonValue::object();
        for (rule, files) in &self.rules {
            let mut obj = JsonValue::object();
            for (path, &count) in files {
                obj.set(path.as_str(), count);
            }
            rules.set(rule.as_str(), obj);
        }
        root.set("rules", rules);
        let mut out = root.to_json_pretty();
        out.push('\n');
        out
    }

    /// Parse the committed JSON form.
    pub fn from_json(src: &str) -> Result<Baseline, String> {
        let root = JsonValue::parse(src).map_err(|e| format!("baseline: {e}"))?;
        let schema = root
            .usize_field("schema")
            .map_err(|e| format!("baseline: {e}"))?;
        if schema != BASELINE_SCHEMA {
            return Err(format!(
                "baseline: schema {schema} (this tool reads {BASELINE_SCHEMA}); \
                 re-record with `eedc-lint baseline`"
            ));
        }
        let mut baseline = Baseline::default();
        let rules = root
            .field("rules")
            .ok()
            .and_then(JsonValue::as_object)
            .ok_or_else(|| "baseline: missing 'rules' object".to_string())?;
        for (rule, files) in rules {
            let files = files
                .as_object()
                .ok_or_else(|| format!("baseline: rule '{rule}' is not an object"))?;
            for (path, count) in files {
                let count = count
                    .as_f64()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .ok_or_else(|| {
                        format!("baseline: count for '{path}' is not a non-negative integer")
                    })?;
                baseline.set_count(rule, path, count as usize);
            }
        }
        Ok(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_core_json() {
        let mut baseline = Baseline::default();
        baseline.set_count("panic-policy", "crates/b/src/lib.rs", 3);
        baseline.set_count("panic-policy", "crates/a/src/lib.rs", 7);
        let json = baseline.to_json();
        // Sorted keys: crates/a before crates/b.
        assert!(json.find("crates/a").unwrap() < json.find("crates/b").unwrap());
        assert!(json.ends_with('\n'));
        let back = Baseline::from_json(&json).unwrap();
        assert_eq!(back, baseline);
        assert_eq!(back.count("panic-policy", "crates/a/src/lib.rs"), 7);
        assert_eq!(back.count("panic-policy", "crates/none.rs"), 0);
        assert_eq!(back.count("other-rule", "crates/a/src/lib.rs"), 0);
    }

    #[test]
    fn from_counts_drops_zero_entries() {
        let mut counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
        counts
            .entry("panic-policy".to_string())
            .or_default()
            .extend([("a.rs".to_string(), 0), ("b.rs".to_string(), 2)]);
        let baseline = Baseline::from_counts(&counts);
        assert_eq!(baseline.count("panic-policy", "b.rs"), 2);
        assert!(!baseline.to_json().contains("a.rs"));
    }

    #[test]
    fn rejects_malformed_baselines() {
        for (src, needle) in [
            ("{}", "schema"),
            ("{\"schema\": 9, \"rules\": {}}", "schema 9"),
            ("{\"schema\": 1}", "rules"),
            ("{\"schema\": 1, \"rules\": {\"r\": 3}}", "not an object"),
            (
                "{\"schema\": 1, \"rules\": {\"r\": {\"f.rs\": -1}}}",
                "non-negative",
            ),
            (
                "{\"schema\": 1, \"rules\": {\"r\": {\"f.rs\": 1.5}}}",
                "non-negative",
            ),
            ("not json", "JSON"),
        ] {
            let err = Baseline::from_json(src).unwrap_err();
            assert!(err.contains(needle), "{src:?}: {err}");
        }
    }
}
