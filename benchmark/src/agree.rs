//! `agree a.json b.json`: do two result files say the same thing?
//!
//! Only like is compared with like: files of different kinds, seeds,
//! rounds, measured seconds or workload sets are refused, and so is a
//! `--quick` file. End-to-end metrics agree when neither file is worse than
//! the other by more than the metric's bound in `BENCHMARK.json`;
//! `failed_share` must be 0 in both; output digests, the per-layer metrics
//! that repeat exactly for a fixed seed, and the injected slowdown of the
//! sensitivity check must be identical.

use crate::measure::SCHEMA;
use crate::metrics::{is_exact, Better, END_TO_END};
use crate::text;
use eedc_core::JsonValue;

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`output_digest` for the digest comparison).
    pub metric: String,
    /// Value in the first file, as text.
    pub a: String,
    /// Value in the second file, as text.
    pub b: String,
    /// How much worse `b` is than `a` as a share of `a` (negative: better);
    /// `None` for comparisons that are equal-or-not.
    pub worse_by: Option<f64>,
    /// The bound the pair was held to.
    pub bound: Option<f64>,
    /// Whether the pair is outside its bound.
    pub outside: bool,
}

/// The `bound` of every end-to-end metric listed in `BENCHMARK.json`.
pub fn bounds(benchmark_json: &JsonValue) -> Result<Vec<(String, f64)>, String> {
    benchmark_json
        .array_field("end_to_end")
        .map_err(text)?
        .iter()
        .map(|m| {
            Ok((
                m.str_field("name").map_err(text)?.to_string(),
                m.f64_field("bound").map_err(text)?,
            ))
        })
        .collect()
}

fn header<'a>(file: &'a JsonValue, which: &str) -> Result<&'a str, String> {
    let schema = file.str_field("schema").map_err(text)?;
    if schema != SCHEMA {
        return Err(format!("{which}: schema '{schema}', expected '{SCHEMA}'"));
    }
    if file.bool_field("quick").map_err(text)? {
        return Err(format!("{which}: a --quick file is not comparable"));
    }
    file.str_field("mode").map_err(text)
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two result files of the same mode.
pub fn compare<'a>(
    a: &'a JsonValue,
    b: &'a JsonValue,
    bounds: &[(String, f64)],
) -> Result<Vec<Row>, String> {
    let mode = header(a, "first file")?;
    if header(b, "second file")? != mode {
        return Err("the files are of different modes (run against trace)".into());
    }
    let number = |file: &JsonValue, key: &str| file.f64_field(key).map_err(text);
    for key in ["seed", "rounds", "seconds_per_workload"] {
        let (in_a, in_b) = (number(a, key)?, number(b, key)?);
        if in_a != in_b {
            return Err(format!(
                "the files are not comparable: {key} is {in_a} in one and {in_b} in the other"
            ));
        }
    }
    let workloads = |file: &'a JsonValue| {
        let entries = file.field("workloads").map_err(text)?;
        entries
            .as_object()
            .ok_or_else(|| "workloads is not an object".to_string())
    };
    let (workloads_a, workloads_b) = (workloads(a)?, workloads(b)?);
    if !workloads_a
        .iter()
        .map(|w| &w.0)
        .eq(workloads_b.iter().map(|w| &w.0))
    {
        return Err("the files are not comparable: they hold different workloads".into());
    }
    // A run slowed on purpose never agrees with a clean one, but its rows
    // are still printed: the sensitivity check reads them.
    let (inject_a, inject_b) = (number(a, "inject_spin_pct")?, number(b, "inject_spin_pct")?);
    let mut rows = vec![Row {
        workload: "(all)".into(),
        metric: "inject_spin_pct".into(),
        a: inject_a.to_string(),
        b: inject_b.to_string(),
        worse_by: None,
        bound: None,
        outside: inject_a != inject_b,
    }];
    for ((workload, entry_a), (_, entry_b)) in workloads_a.iter().zip(workloads_b) {
        let digest = |entry: &JsonValue| {
            entry
                .get("digest")
                .and_then(JsonValue::as_str)
                .unwrap_or("none")
                .to_string()
        };
        let (digest_a, digest_b) = (digest(entry_a), digest(entry_b));
        rows.push(Row {
            workload: workload.clone(),
            metric: "output_digest".into(),
            outside: digest_a != digest_b,
            a: digest_a,
            b: digest_b,
            worse_by: None,
            bound: None,
        });
        let value = |entry: &JsonValue, metric: &str| {
            entry
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
        };
        if mode == "run" {
            for metric in &END_TO_END {
                let pair = (value(entry_a, metric.name), value(entry_b, metric.name));
                let (Some(va), Some(vb)) = pair else {
                    return Err(format!("{workload}: {} is missing", metric.name));
                };
                let mut row = Row {
                    workload: workload.clone(),
                    metric: metric.name.into(),
                    a: va.to_string(),
                    b: vb.to_string(),
                    worse_by: None,
                    bound: None,
                    outside: false,
                };
                if metric.name == "failed_share" {
                    row.bound = Some(0.0);
                    row.outside = va != 0.0 || vb != 0.0;
                } else {
                    let bound = bounds
                        .iter()
                        .find(|(name, _)| name == metric.name)
                        .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", metric.name))?
                        .1;
                    let forward = worse_by(va, vb, metric.better);
                    row.worse_by = Some(forward);
                    row.bound = Some(bound);
                    row.outside = forward > bound || worse_by(vb, va, metric.better) > bound;
                }
                rows.push(row);
            }
        } else {
            let metrics = entry_a.get("metrics").and_then(JsonValue::as_object);
            for (metric, _) in metrics.unwrap_or_default() {
                if !is_exact(metric) {
                    continue;
                }
                let pair = (value(entry_a, metric), value(entry_b, metric));
                let (Some(va), Some(vb)) = pair else {
                    return Err(format!("{workload}: {metric} is missing"));
                };
                // 0 in both: a layer this workload does not call.
                if va == 0.0 && vb == 0.0 {
                    continue;
                }
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    a: va.to_string(),
                    b: vb.to_string(),
                    worse_by: None,
                    bound: Some(0.0),
                    outside: va != vb,
                });
            }
        }
    }
    Ok(rows)
}

/// Print one row per pair; returns how many are outside their bound.
pub fn report(rows: &[Row]) -> usize {
    for row in rows {
        let change = row
            .worse_by
            .map_or(String::new(), |w| format!("{:+.1}%", 100.0 * w));
        let bound = row
            .bound
            .map_or("=".to_string(), |b| format!("{:.0}%", 100.0 * b));
        println!(
            "{:<8} {:<17} {:<38} {:>20} {:>20} {:>8} (bound {bound})",
            if row.outside { "OUTSIDE" } else { "ok" },
            row.workload,
            row.metric,
            row.a,
            row.b,
            change,
        );
    }
    let outside: Vec<&Row> = rows.iter().filter(|r| r.outside).collect();
    for row in &outside {
        eprintln!("outside its bound: {} @ {}", row.metric, row.workload);
    }
    outside.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(work_per_s: f64, failed_share: f64, digest: &str, quick: bool) -> JsonValue {
        let mut metrics = JsonValue::object();
        for metric in &END_TO_END {
            let value = match metric.name {
                "work_per_s" => work_per_s,
                "failed_share" => failed_share,
                _ => 1.0,
            };
            let mut entry = JsonValue::object();
            entry.set("value", value).set("unit", metric.unit);
            metrics.set(metric.name, entry);
        }
        let mut workload = JsonValue::object();
        workload.set("digest", digest).set("metrics", metrics);
        let mut workloads = JsonValue::object();
        workloads.set("join_kernel", workload);
        let mut file = JsonValue::object();
        file.set("schema", SCHEMA)
            .set("mode", "run")
            .set("quick", quick)
            .set("seed", 7usize)
            .set("rounds", 10usize)
            .set("seconds_per_workload", 12.0)
            .set("inject_spin_pct", 0.0)
            .set("workloads", workloads);
        file
    }

    fn test_bounds() -> Vec<(String, f64)> {
        [
            "setup_s",
            "work_per_s",
            "iter_p90_s",
            "cpu_s_per_iter",
            "peak_rss_mb",
        ]
        .iter()
        .map(|n| (n.to_string(), 0.10))
        .collect()
    }

    fn outside(rows: &[Row]) -> Vec<&str> {
        rows.iter()
            .filter(|r| r.outside)
            .map(|r| r.metric.as_str())
            .collect()
    }

    #[test]
    fn runs_within_the_bound_agree_and_a_slowdown_is_named_either_way_round() {
        let base = run_file(100.0, 0.0, "aa", false);
        let close = run_file(95.0, 0.0, "aa", false);
        let slow = run_file(80.0, 0.0, "aa", false);
        let bounds = test_bounds();
        assert!(outside(&compare(&base, &close, &bounds).unwrap()).is_empty());
        assert_eq!(
            outside(&compare(&base, &slow, &bounds).unwrap()),
            ["work_per_s"]
        );
        // Agreement is symmetric: the faster file second is flagged too.
        assert_eq!(
            outside(&compare(&slow, &base, &bounds).unwrap()),
            ["work_per_s"]
        );
    }

    #[test]
    fn failures_and_digest_changes_are_absolute() {
        let base = run_file(100.0, 0.0, "aa", false);
        let failing = run_file(100.0, 0.01, "aa", false);
        let changed = run_file(100.0, 0.0, "bb", false);
        let bounds = test_bounds();
        assert_eq!(
            outside(&compare(&base, &failing, &bounds).unwrap()),
            ["failed_share"]
        );
        assert_eq!(
            outside(&compare(&base, &changed, &bounds).unwrap()),
            ["output_digest"]
        );
    }

    #[test]
    fn quick_files_mixed_modes_and_missing_bounds_are_refused() {
        let base = run_file(100.0, 0.0, "aa", false);
        let quick = run_file(100.0, 0.0, "aa", true);
        assert!(compare(&base, &quick, &test_bounds())
            .unwrap_err()
            .contains("quick"));
        let mut trace = base.clone();
        if let JsonValue::Object(fields) = &mut trace {
            fields[1].1 = JsonValue::from("trace");
        }
        assert!(compare(&base, &trace, &test_bounds()).is_err());
        assert!(compare(&base, &base, &[]).unwrap_err().contains("no bound"));
    }

    #[test]
    fn files_that_hold_different_amounts_of_measurement_are_refused() {
        let base = run_file(100.0, 0.0, "aa", false);
        let altered = |key: &str, value: JsonValue| {
            let mut file = base.clone();
            if let JsonValue::Object(fields) = &mut file {
                fields.iter_mut().find(|f| f.0 == key).unwrap().1 = value;
            }
            compare(&base, &file, &test_bounds())
        };
        for key in ["seed", "rounds", "seconds_per_workload"] {
            assert!(altered(key, 3.0.into()).unwrap_err().contains(key), "{key}");
        }
        assert!(altered("workloads", JsonValue::object())
            .unwrap_err()
            .contains("different workloads"));
        // An injected slowdown is compared row by row, and never agrees.
        let slowed = altered("inject_spin_pct", 25.0.into()).unwrap();
        assert_eq!(outside(&slowed), ["inject_spin_pct"]);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_json_shape() {
        let json = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "work_per_s", "unit": "work/s", "better": "higher", "bound": 0.1}]}"#;
        let parsed = bounds(&JsonValue::parse(json).unwrap()).unwrap();
        assert_eq!(
            parsed,
            [
                ("setup_s".to_string(), 0.25),
                ("work_per_s".to_string(), 0.1)
            ]
        );
    }
}
