//! The metric tables: six end-to-end metrics every workload reports, and
//! the 54 per-layer metrics a traced run derives from its spans.
//!
//! `BENCHMARK.json` repeats these names, units and directions for the
//! driver; a unit test holds the two in step.

use crate::spans::Tracer;
use crate::stats::median;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The end-to-end metrics, in print order. `failed_share` is reported by
/// `run` and checked by `agree` against an absolute bound of 0; it is not
/// listed in `BENCHMARK.json` because the driver's contract takes failures
/// from the result line's `failed` / `attempted` and wants metrics that are
/// never 0.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "work/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "iter_p90_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "cpu_s_per_iter",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
    },
];

/// How a per-layer metric is derived from a traced child's spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Median per-iteration seconds in spans of this name.
    Busy(&'static str),
    /// Median per-iteration work ÷ seconds of spans of this name, times a
    /// unit scale (1e-6 turns bytes/s into MB/s).
    Rate(&'static str, f64),
    /// Median seconds of one call: busy time ÷ calls per iteration.
    PerCall(&'static str),
    /// A counter the replay set; repeats exactly for a fixed seed.
    Exact,
    /// Median of per-iteration observations the replay recorded.
    Sample,
    /// Computed from other metrics in [`layer_values`].
    Derived,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction (for exact accuracy figures: the direction of "more
    /// accurate" or "less lost"; they must not move under a speed-up).
    pub better: Better,
    /// Where the value comes from.
    pub source: Source,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Busy, Derived, Exact, PerCall, Rate, Sample};

/// The 54 per-layer metrics. A workload that never makes a layer's call
/// reports 0 for that layer's metrics.
pub const LAYERS: [Layer; 54] = [
    // tpch
    layer(
        "tpch.gen_rows_per_s",
        "rows/s",
        Higher,
        Rate("tpch.gen", 1.0),
    ),
    layer("tpch.gen_busy_s", "s", Lower, Busy("tpch.gen")),
    // storage
    layer(
        "storage.table_build_rows_per_s",
        "rows/s",
        Higher,
        Rate("storage.table_build", 1.0),
    ),
    layer(
        "storage.scan_rows_per_s",
        "rows/s",
        Higher,
        Rate("storage.scan", 1.0),
    ),
    layer("storage.scan_busy_s", "s", Lower, Busy("storage.scan")),
    layer("storage.scan_selectivity", "ratio", Lower, Exact),
    layer(
        "storage.partition_rows_per_s",
        "rows/s",
        Higher,
        Rate("storage.partition", 1.0),
    ),
    layer(
        "storage.partition_busy_s",
        "s",
        Lower,
        Busy("storage.partition"),
    ),
    // pstore
    layer(
        "pstore.exchange_rows_per_s",
        "rows/s",
        Higher,
        Rate("pstore.exchange", 1.0),
    ),
    layer(
        "pstore.exchange_busy_s",
        "s",
        Lower,
        Busy("pstore.exchange"),
    ),
    layer(
        "pstore.hashjoin_rows_per_s",
        "rows/s",
        Higher,
        Rate("pstore.hashjoin", 1.0),
    ),
    layer(
        "pstore.hashjoin_busy_s",
        "s",
        Lower,
        Busy("pstore.hashjoin"),
    ),
    layer(
        "pstore.hashjoin_1t_rows_per_s",
        "rows/s",
        Higher,
        Rate("pstore.hashjoin_1t", 1.0),
    ),
    layer("pstore.hashjoin_thread_speedup", "ratio", Higher, Derived),
    layer("pstore.hashjoin_match_ratio", "ratio", Higher, Exact),
    layer("pstore.morsel_imbalance", "ratio", Lower, Sample),
    layer(
        "pstore.cluster_load_s",
        "s",
        Lower,
        Busy("pstore.cluster_load"),
    ),
    layer(
        "pstore.cluster_run_s",
        "s",
        Lower,
        Busy("pstore.cluster_run"),
    ),
    layer(
        "pstore.reference_join_s",
        "s",
        Lower,
        Busy("pstore.reference_join"),
    ),
    layer("pstore.network_mb", "MB", Lower, Exact),
    // netsim
    layer(
        "netsim.transfer_flows_per_s",
        "flows/s",
        Higher,
        Rate("netsim.transfer", 1.0),
    ),
    layer(
        "netsim.transfer_busy_s",
        "s",
        Lower,
        Busy("netsim.transfer"),
    ),
    layer(
        "netsim.transfer_64p_flows_per_s",
        "flows/s",
        Higher,
        Rate("netsim.transfer_64p", 1.0),
    ),
    // simkit
    layer(
        "simkit.sim_events_per_s",
        "events/s",
        Higher,
        Rate("simkit.sim", 1.0),
    ),
    layer(
        "simkit.power_evals_per_s",
        "evals/s",
        Higher,
        Rate("simkit.power", 1.0),
    ),
    // dbmsim
    layer("dbmsim.serving_ns_per_arrival", "ns", Lower, Derived),
    layer("dbmsim.serving_busy_s", "s", Lower, Busy("dbmsim.serving")),
    layer("dbmsim.serving_kernel_floor_share", "ratio", Lower, Derived),
    layer("dbmsim.serving_sim_p99_s", "s", Lower, Exact),
    layer("dbmsim.serving_sim_joules_per_query", "J", Lower, Exact),
    layer("dbmsim.serving_drop_share", "ratio", Lower, Exact),
    layer("dbmsim.serving_readmit_ratio", "ratio", Higher, Exact),
    layer("dbmsim.serving_failures", "count", Lower, Exact),
    layer("dbmsim.serving_scale_events", "count", Lower, Exact),
    layer("dbmsim.serving_availability", "ratio", Higher, Exact),
    layer(
        "dbmsim.replay_traces_per_s",
        "traces/s",
        Higher,
        Rate("dbmsim.replay", 1.0),
    ),
    layer(
        "dbmsim.engine_apply_traces_per_s",
        "traces/s",
        Higher,
        Rate("dbmsim.engine_apply", 1.0),
    ),
    layer(
        "dbmsim.behavioural_predictions_per_s",
        "1/s",
        Higher,
        Rate("dbmsim.behavioural", 1.0),
    ),
    // core
    layer(
        "core.model_predictions_per_s",
        "1/s",
        Higher,
        Rate("core.model", 1.0),
    ),
    layer("core.model_busy_s", "s", Lower, Busy("core.model")),
    layer(
        "core.advisor_enumerate_designs_per_s",
        "designs/s",
        Higher,
        Rate("core.advisor_enumerate", 1.0),
    ),
    layer(
        "core.advisor_recommend_s",
        "s",
        Lower,
        PerCall("core.advisor_recommend"),
    ),
    layer("core.advisor_infeasible_share", "ratio", Lower, Exact),
    layer(
        "core.lens_analytical_records_per_s",
        "records/s",
        Higher,
        Rate("core.lens_analytical", 1.0),
    ),
    layer(
        "core.lens_behavioural_records_per_s",
        "records/s",
        Higher,
        Rate("core.lens_behavioural", 1.0),
    ),
    layer(
        "core.lens_traced_records_per_s",
        "records/s",
        Higher,
        Rate("core.lens_traced", 1.0),
    ),
    layer("core.experiment_overhead_share", "ratio", Lower, Derived),
    layer(
        "core.json_emit_mb_per_s",
        "MB/s",
        Higher,
        Rate("core.json_emit", 1e-6),
    ),
    layer(
        "core.json_parse_mb_per_s",
        "MB/s",
        Higher,
        Rate("core.json_parse", 1e-6),
    ),
    layer(
        "core.json_decode_records_per_s",
        "records/s",
        Higher,
        Rate("core.json_decode", 1.0),
    ),
    layer("core.json_bytes_per_record", "B", Lower, Exact),
    layer("core.measured_vs_model_gap_pct", "%", Lower, Exact),
    // the benchmark itself: how far to trust the breakdown
    layer("trace.residual_share", "ratio", Lower, Derived),
    layer("trace.overhead_share", "ratio", Lower, Derived),
];

/// Whether the named per-layer metric must repeat exactly for a fixed seed.
pub fn is_exact(name: &str) -> bool {
    LAYERS
        .iter()
        .any(|l| l.name == name && l.source == Source::Exact)
}

/// The value of every per-layer metric for one traced child, in table
/// order. `untraced_s` holds the child's untraced iteration times.
pub fn layer_values(t: &Tracer, untraced_s: &[f64]) -> Vec<f64> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    LAYERS
        .iter()
        .map(|metric| match metric.source {
            Busy(span) => t.busy_s(span),
            Rate(span, scale) => t.rate_per_s(span) * scale,
            PerCall(span) => {
                let per_call: Vec<f64> = t
                    .per_iteration(span)
                    .iter()
                    .filter(|i| i.1 > 0)
                    .map(|i| i.0 / i.1 as f64)
                    .collect();
                median(&per_call).unwrap_or(0.0)
            }
            Exact => t.exact(metric.name).unwrap_or(0.0),
            Sample => t.sample_median(metric.name),
            Derived => match metric.name {
                "pstore.hashjoin_thread_speedup" => {
                    ratio(t.busy_s("pstore.hashjoin_1t"), t.busy_s("pstore.hashjoin"))
                }
                "dbmsim.serving_ns_per_arrival" => ratio(1e9, t.rate_per_s("dbmsim.serving")),
                "dbmsim.serving_kernel_floor_share" => {
                    // An arrival costs the kernel at least an arrival event
                    // and a completion event: two pushes and two pops.
                    let ns_per_event = ratio(1e9, t.rate_per_s("simkit.sim"));
                    let ns_per_arrival = ratio(1e9, t.rate_per_s("dbmsim.serving"));
                    ratio(2.0 * ns_per_event, ns_per_arrival)
                }
                "core.experiment_overhead_share" => {
                    let runs: f64 = [
                        "core.lens_analytical",
                        "core.lens_behavioural",
                        "core.lens_traced",
                    ]
                    .iter()
                    .map(|span| t.busy_s(span))
                    .sum();
                    // Only where the workload also timed the bare estimates.
                    match t.busy_s("core.estimate") {
                        estimates if estimates > 0.0 => ratio(runs - estimates, runs),
                        _ => 0.0,
                    }
                }
                "trace.residual_share" => t.residual_share(),
                "trace.overhead_share" => {
                    let untraced = median(untraced_s).unwrap_or(0.0);
                    ratio(t.busy_s("root") - untraced, untraced)
                }
                other => unreachable!("derived metric '{other}' has no rule"),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_is_legal(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_is_legal(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
            .chain(crate::workloads::WORKLOADS.iter().map(|w| (w.name, "x")));
        for (name, unit) in names {
            assert!(name_is_legal(name), "{name}");
            assert!(unit_is_legal(unit), "{name}: unit '{unit}'");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert_eq!(LAYERS.len(), 54);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let json = eedc_core::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |section: &str, keys: &[&str]| -> Vec<Vec<String>> {
            json.array_field(section)
                .unwrap()
                .iter()
                .map(|entry| {
                    assert_eq!(entry.as_object().unwrap().len(), keys.len(), "{section}");
                    keys.iter()
                        .map(|k| entry.str_field(k).unwrap().to_string())
                        .collect()
                })
                .collect()
        };
        let own = |rows: Vec<[&str; 3]>| -> Vec<Vec<String>> {
            rows.iter()
                .map(|row| row.iter().map(|s| s.to_string()).collect())
                .collect()
        };

        let workloads: Vec<Vec<String>> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(listed("workloads", &["name", "why"]), workloads);
        assert!(crate::workloads::WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200));

        // `failed_share` travels in the result line's failed / attempted.
        let end_to_end = END_TO_END
            .iter()
            .filter(|m| m.name != "failed_share")
            .map(|m| [m.name, m.unit, m.better.word()])
            .collect();
        let json_end_to_end: Vec<Vec<String>> = json
            .array_field("end_to_end")
            .unwrap()
            .iter()
            .map(|entry| {
                let bound = entry.f64_field("bound").unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
                ["name", "unit", "better"]
                    .iter()
                    .map(|k| entry.str_field(k).unwrap().to_string())
                    .collect()
            })
            .collect();
        assert_eq!(json_end_to_end, own(end_to_end));

        let layers = LAYERS
            .iter()
            .map(|m| [m.name, m.unit, m.better.word()])
            .collect();
        assert_eq!(
            listed("per_layer", &["name", "unit", "better"]),
            own(layers)
        );

        let paths = json.array_field("paths").unwrap();
        assert_eq!(paths.len(), 1);
        assert!(env!("CARGO_MANIFEST_DIR").ends_with(paths[0].as_str().unwrap()));
    }

    #[test]
    fn every_derived_metric_has_a_rule_and_untouched_layers_read_zero() {
        // An empty tracer is a workload that calls no layer at all.
        let values = layer_values(&Tracer::default(), &[]);
        assert_eq!(values.len(), LAYERS.len());
        assert!(values.iter().all(|v| *v == 0.0), "{values:?}");
    }

    #[test]
    fn exactness_follows_the_source() {
        assert!(is_exact("storage.scan_selectivity"));
        assert!(is_exact("dbmsim.serving_failures"));
        assert!(!is_exact("storage.scan_busy_s"));
        assert!(!is_exact("pstore.morsel_imbalance"));
        assert!(!is_exact("nope"));
    }
}
