//! Tests of the runner crossed with every lens: each drives a workload
//! through [`Experiment::run`] (or one lens's `estimate`) and checks the
//! records, the series protocol, or the JSON round trip.
#![cfg(test)]

use super::*;
use crate::advisor::DesignSpace;
use crate::lens::{Analytical, Behavioural, Measured, Serving, Traced};
use crate::model::SweepJoin;
use crate::record::ServingStats;
use crate::workload::{ConcurrencySweep, ProfiledQuery, ServingWorkload, SkewedJoin};
use eedc_pstore::stats::ExecutionMode;
use eedc_pstore::RunOptions;
use eedc_simkit::catalog::{cluster_v_node, laptop_b};
use eedc_simkit::units::{Megabytes, Seconds};

fn sweep() -> SweepJoin {
    SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle())
}

fn homogeneous(n: usize) -> ClusterSpec {
    ClusterSpec::homogeneous(cluster_v_node(), n).unwrap()
}

/// Serving stats on their own, as the pretty writer streams them into a
/// report.
fn stats_json(stats: &ServingStats) -> String {
    let mut w = JsonWriter::new(true);
    stats.write_json(&mut w);
    w.finish()
}

#[test]
fn analytical_series_normalizes_against_the_first_design() {
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([homogeneous(16), homogeneous(8), homogeneous(4)])
        .estimator(Analytical)
        .run()
        .unwrap();
    assert_eq!(report.series.len(), 1);
    let series = &report.series[0];
    assert_eq!(series.estimator, "analytical");
    assert_eq!(series.records.len(), 3);
    assert_eq!(series.records[0].design, "16B,0W");
    assert_eq!(
        series.records[0].normalized,
        Some(NormalizedPoint::reference())
    );
    // Smaller clusters are slower: normalized performance below 1.
    let p8 = series.record("8B,0W").unwrap().normalized.unwrap();
    assert!(p8.performance < 1.0);
    // Phase breakdowns and per-node vectors are populated.
    let r = series.record("4B,0W").unwrap();
    assert_eq!(r.phases.len(), 2);
    assert_eq!(r.node_utilization.len(), 4);
    assert_eq!(r.node_energy.len(), 4);
    let node_total: f64 = r.node_energy.iter().map(|e| e.value()).sum();
    assert!((node_total - r.energy.value()).abs() < 1e-6 * node_total);
    assert!(r.edp() > 0.0);
    assert_eq!(r.output_rows, None);
}

#[test]
fn infeasible_designs_are_recorded_not_fatal() {
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([
            homogeneous(16),
            ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        ])
        .estimator(Analytical)
        .run()
        .unwrap();
    let series = &report.series[0];
    assert_eq!(series.records.len(), 1);
    assert_eq!(series.infeasible.len(), 1);
    assert_eq!(series.infeasible[0].0, "0B,4W");
    assert!(series.infeasible[0].1.contains("does not fit"));
}

#[test]
fn estimators_and_plans_cross_product_into_series() {
    let workload = ConcurrencySweep::new(sweep(), [1, 2]);
    let report = Experiment::new(&workload)
        .designs([homogeneous(16), homogeneous(8)])
        .estimator(Analytical)
        .estimator(Behavioural)
        .run()
        .unwrap();
    // 2 estimators x 2 concurrency levels.
    assert_eq!(report.series.len(), 4);
    let by_estimator = |name: &str| {
        report
            .series
            .iter()
            .filter(|s| s.estimator == name)
            .collect::<Vec<_>>()
    };
    assert_eq!(by_estimator("analytical").len(), 2);
    assert_eq!(by_estimator("behavioural").len(), 2);
    assert_eq!(report.records().count(), 8);
    // Higher concurrency is slower under both lenses.
    for estimator in ["analytical", "behavioural"] {
        let series = by_estimator(estimator);
        let t1 = series[0].records[0].response_time;
        let t2 = series[1].records[0].response_time;
        assert!(t2 > t1, "{estimator}: x2 batch not slower");
    }
}

#[test]
fn behavioural_tracks_analytical_at_the_reference_configuration() {
    // For a profile-less plan, the behavioural estimator derives its
    // profile and anchor from the analytical model at the 8-node
    // reference — so at exactly 8 nodes the two lenses coincide on
    // response time.
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([homogeneous(8), homogeneous(16), homogeneous(4)])
        .estimator(Analytical)
        .estimator(Behavioural)
        .run()
        .unwrap();
    let analytical = &report.series[0].records[0];
    let behavioural = &report.series[1].records[0];
    assert!(
        (analytical.response_time.value() - behavioural.response_time.value()).abs()
            < 1e-6 * analytical.response_time.value()
    );
    // Away from the reference the lenses legitimately diverge — and the
    // divergence is the paper's Section 3 point. The analytical model
    // sees per-port shuffle volume shrink as nodes are added, so 16
    // nodes beat 8; the behavioural law pins repartition-bound work
    // (the dual-shuffle sweep is fully network-bound, so its derived
    // repartition fraction is 1) and predicts no speedup at all.
    let a16 = report.series[0].record("16B,0W").unwrap();
    let b16 = report.series[1].record("16B,0W").unwrap();
    assert!(a16.response_time < analytical.response_time);
    assert!(
        (b16.response_time.value() - behavioural.response_time.value()).abs()
            < 1e-9 * behavioural.response_time.value()
    );
    // Shrinking the cluster never speeds the law up.
    let b4 = report.series[1].record("4B,0W").unwrap();
    assert!(b4.response_time.value() >= behavioural.response_time.value() - 1e-9);
}

#[test]
fn profiled_queries_flow_through_the_behavioural_estimator() {
    let q12 = ProfiledQuery::vertica_sf1000(eedc_tpch::QueryId::Q12);
    let report = Experiment::new(&q12)
        .designs([homogeneous(8), homogeneous(16), homogeneous(32)])
        .estimator(Behavioural)
        .run()
        .unwrap();
    let series = &report.series[0];
    // Unit anchor: the reference record reads exactly 1.0 s.
    assert!((series.records[0].response_time.value() - 1.0).abs() < 1e-12);
    // Q12 flattens out: 32 nodes is barely faster than 16.
    let t16 = series.record("16B,0W").unwrap().response_time.value();
    let t32 = series.record("32B,0W").unwrap().response_time.value();
    assert!(t16 < 1.0 && t32 < t16);
    assert!(t32 > 0.48, "t32 {t32} under the scaling floor");
    // ... while energy rises (the energy-proportionality gap).
    let e = |d: &str| series.record(d).unwrap().energy.value();
    assert!(e("32B,0W") > e("16B,0W"));
    assert!(e("16B,0W") > e("8B,0W"));
    // Behavioural records carry no phase breakdown.
    assert!(series.records[0].phases.is_empty());
}

#[test]
fn skewed_workloads_run_hotter_than_uniform_under_the_model() {
    let uniform = sweep();
    let skewed = SkewedJoin::new(
        uniform,
        eedc_pstore::JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        },
    );
    let designs = [homogeneous(16)];
    let u = Experiment::new(&uniform)
        .designs(designs.clone())
        .estimator(Analytical)
        .run()
        .unwrap();
    let s = Experiment::new(&skewed)
        .designs(designs)
        .estimator(Analytical)
        .run()
        .unwrap();
    let ur = &u.series[0].records[0];
    let sr = &s.series[0].records[0];
    assert!(sr.response_time > ur.response_time);
    let hot = |r: &RunRecord| {
        r.node_energy
            .iter()
            .map(|e| e.value())
            .fold(0.0_f64, f64::max)
    };
    assert!(hot(sr) > hot(ur));
}

#[test]
fn behavioural_and_analytical_agree_on_feasibility() {
    // Feasibility is a property of the design, not of the behavioural
    // estimator's synthetic derivation reference: 16 laptops CAN hold
    // the 70 GB dual-shuffle hash table (4.4 GB per node against 6.4 GB
    // usable) even though 8 of them cannot, while 4 laptops cannot hold
    // it in any mode. Both lenses must classify identically.
    let workload = sweep();
    let designs = [
        homogeneous(16),
        ClusterSpec::homogeneous(laptop_b(), 16).unwrap(),
        ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
    ];
    let report = Experiment::new(&workload)
        .designs(designs)
        .estimator(Analytical)
        .estimator(Behavioural)
        .run()
        .unwrap();
    let analytical = &report.series[0];
    let behavioural = &report.series[1];
    for series in [analytical, behavioural] {
        assert!(
            series.record("0B,16W").is_some(),
            "{}: feasible all-Wimpy design dropped",
            series.estimator
        );
        assert_eq!(series.infeasible.len(), 1, "{}", series.estimator);
        assert_eq!(series.infeasible[0].0, "0B,4W", "{}", series.estimator);
    }
    // The fallback derivation (8 laptops cannot plan, so the design
    // itself anchors it) must express the anchor in reference terms:
    // round-tripping through rel(16) recovers the analytical time at
    // the design, not a mis-scaled multiple of it.
    let a = analytical.record("0B,16W").unwrap();
    let b = behavioural.record("0B,16W").unwrap();
    assert!(
        (a.response_time.value() - b.response_time.value()).abs() < 1e-9 * a.response_time.value(),
        "fallback anchor mis-scaled: analytical {} vs behavioural {}",
        a.response_time.value(),
        b.response_time.value(),
    );
}

#[test]
fn measured_plan_skew_is_authoritative_over_options() {
    // The plan is the single source of truth for join-key skew: a
    // skew-free plan run through a Measured estimator whose options
    // carry a heavy skew must behave exactly like a skew-free run, so
    // measured and analytical lenses always see the same workload.
    let small = RunOptions {
        engine_scale: eedc_tpch::ScaleFactor(0.001),
        ..RunOptions::default()
    };
    let skew_options = RunOptions {
        skew: Some(eedc_pstore::JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        }),
        ..small
    };
    let plan = &sweep().plans()[0];
    let design = homogeneous(4);
    let plain = Measured::new(small).estimate(plan, &design).unwrap();
    let overridden = Measured::new(skew_options).estimate(plan, &design).unwrap();
    assert_eq!(plain.measurement(), overridden.measurement());
}

#[test]
fn strategy_and_query_overrides_patch_every_plan() {
    let workload = sweep();
    let report = Experiment::new(&workload)
        .strategy(JoinStrategy::PrePartitioned)
        .designs([homogeneous(8)])
        .estimator(Analytical)
        .run()
        .unwrap();
    assert_eq!(report.series[0].strategy, JoinStrategy::PrePartitioned);
    assert_eq!(
        report.series[0].records[0].phases[0].bytes_over_network,
        Megabytes::zero()
    );
}

#[test]
fn dyn_estimators_are_first_class() {
    // Object-safety smoke: estimators as trait objects, mixed in one
    // collection, driven through the same API.
    let estimators: Vec<Box<dyn Estimator>> = vec![
        Box::new(Analytical),
        Box::new(Behavioural),
        Box::new(Measured::default()),
    ];
    let plan = &sweep().plans()[0];
    let design = homogeneous(4);
    for estimator in &estimators {
        let record = estimator.estimate(plan, &design).unwrap();
        assert_eq!(record.estimator, estimator.name());
        assert!(record.response_time.value() > 0.0);
        assert!(record.energy.value() > 0.0);
    }
    // And a boxed estimator slots into the builder unchanged.
    let boxed: Box<dyn Estimator> = Box::new(Analytical);
    let report = Experiment::new(&sweep())
        .designs([homogeneous(8)])
        .estimator(boxed)
        .run()
        .unwrap();
    assert_eq!(report.series[0].estimator, "analytical");
}

#[test]
fn traced_pstore_engine_reproduces_the_analytical_lens() {
    // The trace is exported from the analytical model's own prediction,
    // and the pipelined P-store engine is the identity transformation —
    // so replaying it must land on the analytical numbers, busy-share
    // round trip included.
    // In fact the whole record is bit-identical — asserted with `==`, no
    // tolerance — on concurrent, skewed and heterogeneous (demoted-Wimpy)
    // inputs too, whose per-node port shares differ across nodes.
    let mixed = ClusterSpec::heterogeneous(cluster_v_node(), 12, laptop_b(), 4).unwrap();
    // Four hand-picked designs, then a whole 6×12 grid of windows: `close`
    // finds runs in the model's volumes, the replay derives every node.
    let mut designs = vec![homogeneous(16), homogeneous(8), homogeneous(4), mixed];
    let grid = DesignSpace::new(cluster_v_node(), laptop_b(), 6, 12).unwrap();
    designs.extend(grid.designs().unwrap());
    let plain = sweep();
    let concurrent = ConcurrencySweep::new(sweep(), [4]);
    let skewed = SkewedJoin::zipf(sweep().with_concurrency(4), 1.5);
    let workloads: [&dyn Workload; 3] = [&plain, &concurrent, &skewed];
    let mut demoted = 0;
    for workload in workloads {
        let report = Experiment::new(workload)
            .designs(designs.clone())
            .estimator(Analytical)
            .estimator(Traced::pstore())
            .run()
            .unwrap();
        let analytical = &report.series[0];
        let traced = &report.series[1];
        assert_eq!(traced.estimator, "traced");
        assert!(!analytical.records.is_empty());
        assert_eq!(analytical.infeasible, traced.infeasible);
        for (a, t) in analytical.records.iter().zip(&traced.records) {
            let case = format!("{} on {}", a.workload, a.design);
            assert_eq!((&a.design, a.mode), (&t.design, t.mode), "{case}");
            assert_eq!(a.response_time, t.response_time, "{case}: time");
            assert_eq!(a.energy, t.energy, "{case}: energy");
            assert_eq!(a.node_utilization, t.node_utilization, "{case}");
            assert_eq!(a.node_energy, t.node_energy, "{case}");
            for (ap, tp) in a.phases.iter().zip(&t.phases) {
                assert_eq!(ap.duration, tp.duration, "{case}: {}", ap.label);
                assert_eq!(ap.energy, tp.energy, "{case}: {}", ap.label);
            }
            assert_eq!(t.output_rows, None);
            demoted += usize::from(t.mode == ExecutionMode::Heterogeneous);
        }
    }
    assert!(demoted > 0, "no heterogeneous record was compared");
}

#[test]
fn traced_lenses_agree_with_the_other_lenses_on_feasibility() {
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([
            homogeneous(16),
            ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        ])
        .estimator(Traced::pstore())
        .estimator(Traced::dbms_x())
        .run()
        .unwrap();
    for series in &report.series {
        assert_eq!(series.records.len(), 1, "{}", series.estimator);
        assert_eq!(series.infeasible.len(), 1, "{}", series.estimator);
        assert_eq!(series.infeasible[0].0, "0B,4W");
    }
    assert_eq!(report.series[1].estimator, "traced:dbms-x");
}

#[test]
fn traced_custom_engines_are_first_class() {
    // A restart-only engine (no staging): the record costs exactly
    // (1 + restarts × redo) times the pipelined engine.
    let engine = eedc_dbmsim::EngineBehaviour::new(
        "flaky",
        false,
        eedc_dbmsim::RestartPolicy::new(2, 0.25).unwrap(),
    )
    .unwrap();
    let custom = Traced::with_engine(engine);
    assert_eq!(custom.name(), "traced:flaky");
    assert!(!custom.engine().disk_staging);
    let plan = &sweep().plans()[0];
    let design = homogeneous(8);
    let base = Traced::pstore().estimate(plan, &design).unwrap();
    let flaky = custom.estimate(plan, &design).unwrap();
    let ratio = flaky.response_time.value() / base.response_time.value();
    assert!((ratio - 1.5).abs() < 1e-9, "ratio {ratio}");
    let ratio = flaky.energy.value() / base.energy.value();
    assert!((ratio - 1.5).abs() < 1e-9, "energy ratio {ratio}");
}

#[test]
fn skewed_synthesized_traces_carry_per_node_port_activity() {
    // The closed form knows each node's true egress/ingress volumes, so
    // the synthesized trace must charge every port its own activity —
    // not the hot port's. Observable through the record: the traced
    // phase's port-volume total must sit between the analytical egress
    // total and strictly below nodes × hot-port volume (what a
    // phase-level synthesis would charge under skew).
    let plan = &SkewedJoin::new(
        SweepJoin::section_5_4(JoinQuerySpec::new(0.2, 0.5)),
        eedc_pstore::JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        },
    )
    .plans()[0];
    let design = homogeneous(16);
    let traced = Traced::pstore().estimate(plan, &design).unwrap();
    let analytical = Analytical.estimate(plan, &design).unwrap();
    let bandwidth = cluster_v_node().network_bandwidth.value();
    for (t, a) in traced.phases.iter().zip(&analytical.phases) {
        let egress_total = a.bytes_over_network.value();
        let hot_port_total = 16.0 * a.network_time.value() * bandwidth;
        assert!(
            t.bytes_over_network.value() >= egress_total - 1e-6,
            "{}: port total below the egress total",
            t.label
        );
        assert!(
            t.bytes_over_network.value() < hot_port_total - 1e-6,
            "{}: every port charged the hot-port volume",
            t.label
        );
    }
    // The per-node refinement does not disturb the time/energy identity
    // with the analytical lens.
    assert!(
        (traced.energy.value() - analytical.energy.value()).abs()
            < 1e-9 * analytical.energy.value()
    );
}

#[test]
fn measured_cache_deduplicates_cluster_loads() {
    // A concurrency sweep is `levels` plans over the same designs: the
    // cluster for each (design, options) pair must be generated once,
    // not once per plan.
    let options = RunOptions {
        engine_scale: eedc_tpch::ScaleFactor(0.001),
        ..RunOptions::default()
    };
    let measured = Measured::new(options);
    assert_eq!(measured.cached_clusters(), 0);
    let workload = ConcurrencySweep::new(sweep(), [1, 2, 4]);
    let designs = [homogeneous(4), homogeneous(2)];
    let report = Experiment::new(&workload)
        .designs(designs.clone())
        .estimator(measured.clone())
        .run()
        .unwrap();
    assert_eq!(report.series.len(), 3);
    // The estimator handed to the experiment was a clone sharing no
    // state; measure on a fresh instance driven directly instead.
    let direct = Measured::new(options);
    for plan in workload.plans() {
        for design in &designs {
            direct.estimate(&plan, design).unwrap();
        }
    }
    assert_eq!(
        direct.cached_clusters(),
        2,
        "3 plans x 2 designs -> 2 loads"
    );
    // A skewed plan patches the effective options and must key its own
    // cluster rather than reusing an unskewed one.
    let skewed = SkewedJoin::new(
        sweep(),
        eedc_pstore::JoinSkew {
            theta: 1.5,
            key_domain: 1_000,
            seed: 7,
        },
    );
    direct.estimate(&skewed.plans()[0], &designs[0]).unwrap();
    assert_eq!(direct.cached_clusters(), 3);
    // Cache hits return the identical cluster: re-estimating changes
    // nothing and the records stay engine-verified.
    let again = direct.estimate(&workload.plans()[0], &designs[0]).unwrap();
    assert_eq!(direct.cached_clusters(), 3);
    assert!(again.output_rows.unwrap() > 0);
    // Equality ignores the cache.
    assert_eq!(direct, Measured::new(options));
}

#[test]
fn empty_experiments_are_invalid() {
    let workload = sweep();
    assert!(Experiment::new(&workload)
        .estimator(Analytical)
        .run()
        .is_err());
    assert!(Experiment::new(&workload)
        .designs([homogeneous(4)])
        .run()
        .is_err());
}

#[test]
fn reports_round_trip_through_the_json_reader() {
    // Two estimators, an infeasible design, phase breakdowns, normalized
    // points — everything the writer can emit must come back bit-equal,
    // Display-formatted floats round-trip exactly in Rust.
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([
            homogeneous(16),
            homogeneous(8),
            ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        ])
        .estimator(Analytical)
        .estimator(Traced::dbms_x())
        .run()
        .unwrap();
    let parsed = JsonValue::parse(&report.to_json_string()).unwrap();
    let restored = ExperimentReport::from_json(&parsed).unwrap();
    assert_eq!(restored, report);
    // And through the file-based path.
    let dir = std::env::temp_dir().join("eedc-report-roundtrip-test");
    let path = dir.join("report.json");
    report.write_json(&path).unwrap();
    assert_eq!(ExperimentReport::read_json(&path).unwrap(), report);
    std::fs::remove_dir_all(&dir).ok();
    // Shape errors surface as errors, not panics.
    assert!(ExperimentReport::read_json(dir.join("missing.json")).is_err());
    assert!(ExperimentReport::from_json(&JsonValue::object()).is_err());
    let mut truncated = JsonValue::object();
    truncated.set("series", vec![0.0]);
    assert!(ExperimentReport::from_json(&truncated).is_err());
}

#[test]
fn a_repeated_reference_design_round_trips() {
    // The reference is the first record, so a later record of the same
    // design is an ordinary point and comes back with the rest.
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([homogeneous(8), homogeneous(8)])
        .estimator(Analytical)
        .run()
        .unwrap();
    assert_eq!(report.series[0].records.len(), 2);
    let json = report.to_json_string();
    let restored = ExperimentReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
    assert_eq!(restored, report);
    // A reference that does not name the first record is refused.
    let renamed = json.replacen("\"reference\": \"8B,0W\"", "\"reference\": \"4B,0W\"", 1);
    assert_ne!(renamed, json);
    let err = ExperimentReport::from_json(&JsonValue::parse(&renamed).unwrap()).unwrap_err();
    assert!(err.to_string().contains("reference"), "{err}");
    // A series without records writes an empty reference and reads back.
    let empty = ExperimentReport {
        series: vec![RunSeries {
            records: Vec::new(),
            ..report.series[0].clone()
        }],
    };
    let json = empty.to_json_string();
    assert!(json.contains("\"reference\": \"\""), "{json}");
    let restored = ExperimentReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
    assert_eq!(restored, empty);
}

#[test]
fn serving_tail_latency_grows_strictly_with_offered_load() {
    // A single 4-node design served at 30/60/90% of its analytical
    // service rate: queueing theory says the tail must stretch as the
    // load approaches saturation, and the simulator must reproduce it.
    let design = homogeneous(4);
    let service_time = Analytical
        .estimate(&sweep().plans()[0], &design)
        .unwrap()
        .response_time
        .value();
    let mu = 1.0 / service_time;
    let window = Seconds(3_000.0 * service_time);
    let workload = ServingWorkload::new(&sweep(), mu * 0.3, window, 77).qps_sweep([
        mu * 0.3,
        mu * 0.6,
        mu * 0.9,
    ]);
    let report = Experiment::new(&workload)
        .designs([design])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    assert_eq!(report.series.len(), 3, "one series per offered QPS");
    let stats: Vec<&ServingStats> = report
        .series
        .iter()
        .map(|s| s.records[0].serving.as_ref().unwrap())
        .collect();
    for s in &stats {
        assert!(s.completed > 500, "enough arrivals to trust the tail");
        assert_eq!(s.dropped + s.timed_out, 0);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.energy_per_query.value() > 0.0);
    }
    assert!(
        stats[0].p99 < stats[1].p99 && stats[1].p99 < stats[2].p99,
        "p99 must grow strictly with offered load: {:?}",
        stats.iter().map(|s| s.p99).collect::<Vec<_>>()
    );
    // The mean service rate bounds achieved throughput from above.
    assert!(stats[2].achieved_qps <= mu * 1.01);
}

#[test]
fn serving_places_across_beefy_and_wimpy_pools() {
    // A join small enough that the Wimpy pool can serve it too.
    let mut small = sweep();
    small.build_bytes = Megabytes(2_000.0);
    small.probe_bytes = Megabytes(8_000.0);
    let design = ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 4).unwrap();
    let beefy_pool = ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap();
    let wimpy_pool = ClusterSpec::homogeneous(laptop_b(), 4).unwrap();
    let plan = &small.plans()[0];
    let beefy_energy = Analytical.estimate(plan, &beefy_pool).unwrap().energy;
    let wimpy_energy = Analytical.estimate(plan, &wimpy_pool).unwrap().energy;
    // Load light enough that the preferred pool is almost always idle.
    let slowest = Analytical
        .estimate(plan, &wimpy_pool)
        .unwrap()
        .response_time
        .value()
        .max(
            Analytical
                .estimate(plan, &beefy_pool)
                .unwrap()
                .response_time
                .value(),
        );
    let qps = 0.05 / slowest;
    let workload = ServingWorkload::new(&small, qps, Seconds(2_000.0 * slowest), 5);
    let report = Experiment::new(&workload)
        .designs([design])
        .estimator(Serving::fcfs())
        .estimator(Serving::energy_aware())
        .run()
        .unwrap();
    let fcfs = &report.series[0].records[0];
    let aware = &report.series[1].records[0];
    assert_eq!(fcfs.estimator, "serving");
    assert_eq!(aware.estimator, "serving:energy-aware");
    assert_eq!(fcfs.mode, ExecutionMode::Heterogeneous);
    assert_eq!(fcfs.node_utilization.len(), 8);
    assert!(fcfs.serving.as_ref().unwrap().completed > 50);
    // FCFS takes the first capable pool — the Beefy nodes (ids 0..4).
    assert!(fcfs.node_utilization[0] > fcfs.node_utilization[4] * 2.0);
    // The energy-aware placer routes to whichever pool is cheaper.
    let (cheap, pricey) = if wimpy_energy < beefy_energy {
        (4, 0)
    } else {
        (0, 4)
    };
    assert!(
        aware.node_utilization[cheap] > aware.node_utilization[pricey] * 2.0,
        "energy-aware must prefer the cheaper pool ({:?})",
        aware.node_utilization
    );
    // Per-node energies cover every node (idle power never reads zero)
    // and sum to the record total.
    assert!(aware.node_energy.iter().all(|e| e.value() > 0.0));
    let total: f64 = aware.node_energy.iter().map(|e| e.value()).sum();
    assert!((total - aware.energy.value()).abs() < 1e-6 * total);
}

#[test]
fn serving_requires_params_and_records_infeasible_designs() {
    // A plan without serving parameters is a caller error, not an
    // infeasible design.
    let bare = sweep().plans().remove(0);
    let err = Serving::fcfs()
        .estimate(&bare, &homogeneous(4))
        .unwrap_err();
    assert!(matches!(err, CoreError::Invalid(_)), "{err}");
    // A design where the big join fits no pool is recorded infeasible,
    // exactly like the other lenses.
    let workload = ServingWorkload::new(&sweep(), 0.001, Seconds(10_000.0), 9);
    let report = Experiment::new(&workload)
        .designs([
            homogeneous(16),
            ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        ])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    let series = &report.series[0];
    assert_eq!(series.records.len(), 1);
    assert_eq!(series.infeasible.len(), 1);
    assert_eq!(series.infeasible[0].0, "0B,4W");
    assert!(series.infeasible[0].1.contains("fits no pool"));
    // A rate the simulator's kernel refuses mid-run (its mean gap overflows
    // to infinity) is the kernel's error, not a panic and not infeasible.
    let glacial = ServingWorkload::new(&sweep(), 1e-310, Seconds(10.0), 9);
    let err = Experiment::new(&glacial)
        .designs([homogeneous(4)])
        .estimator(Serving::fcfs())
        .run()
        .unwrap_err();
    assert!(matches!(err, CoreError::Metrics(_)), "{err}");
}

#[test]
fn serving_records_round_trip_and_old_reports_stay_byte_compatible() {
    // New serving fields round-trip through the JSON reader.
    let workload = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31);
    let report = Experiment::new(&workload)
        .designs([homogeneous(16), homogeneous(8)])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    let json = report.to_json_string();
    assert!(json.contains("\"serving\""), "{json}");
    assert!(json.contains("\"p99_s\""));
    assert!(json.contains("\"drop_rate\""));
    assert!(json.contains("\"energy_per_query_j\""));
    let restored = ExperimentReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
    assert_eq!(restored, report);
    assert_eq!(
        restored.to_json_string(),
        json,
        "bit-equal re-serialization"
    );
    // Reports written before the serving lens carry no "serving" key;
    // they parse to None and re-serialize byte-identically.
    let old_report = Experiment::new(&sweep())
        .designs([homogeneous(16), homogeneous(8)])
        .estimator(Analytical)
        .run()
        .unwrap();
    let old_json = old_report.to_json_string();
    assert!(
        !old_json.contains("\"serving\""),
        "non-serving records omit the key"
    );
    let old_restored = ExperimentReport::from_json(&JsonValue::parse(&old_json).unwrap()).unwrap();
    assert!(old_restored
        .records()
        .all(|record| record.serving.is_none()));
    assert_eq!(old_restored.to_json_string(), old_json, "byte-compatible");
}

#[test]
fn serving_stats_new_keys_round_trip_and_old_stats_stay_byte_compatible() {
    // New runs emit the PR 9 keys and they round-trip.
    let workload = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31);
    let report = Experiment::new(&workload)
        .designs([homogeneous(16)])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    let json = report.to_json_string();
    assert!(json.contains("\"arrival\""), "{json}");
    assert!(json.contains("\"pool_mean_depth\""));
    assert!(json.contains("\"pool_max_queued\""));
    let stats = report.series[0].records[0].serving.as_ref().unwrap();
    assert_eq!(stats.arrival.as_deref(), Some("poisson"));
    assert_eq!(stats.pool_mean_depth.len(), 1);
    assert_eq!(stats.pool_max_queued.len(), 1);
    let back = ServingStats::from_json(&JsonValue::parse(&stats_json(stats)).unwrap()).unwrap();
    assert_eq!(&back, stats);

    // A ServingStats written before PR 9 carries none of the new keys;
    // it parses to None/empty and re-writes byte-identically (the same
    // contract the PR 7 "serving key omitted" test pins one level up).
    let mut old = JsonValue::object();
    old.set("scheduler", "fcfs")
        .set("offered_qps", 0.5)
        .set("achieved_qps", 0.5)
        .set("arrivals", 10usize)
        .set("completed", 10usize)
        .set("dropped", 0usize)
        .set("timed_out", 0usize)
        .set("drop_rate", 0.0)
        .set("p50_s", 1.0)
        .set("p95_s", 2.0)
        .set("p99_s", 3.0)
        .set("mean_latency_s", 1.2)
        .set("mean_wait_s", 0.2)
        .set("energy_per_query_j", 42.0);
    let old_json = old.to_json_pretty();
    let restored = ServingStats::from_json(&old).unwrap();
    assert_eq!(restored.arrival, None);
    assert!(restored.pool_mean_depth.is_empty());
    assert!(restored.pool_max_queued.is_empty());
    assert_eq!(
        stats_json(&restored),
        old_json,
        "pre-PR 9 serving stats re-serialize byte-identically"
    );
}

#[test]
fn serving_lens_reports_fault_stats_and_inert_models_stay_byte_compatible() {
    use eedc_dbmsim::FaultModel;

    // One arrival at t = 0, a scripted outage halfway through its
    // service: the query is killed, replayed, and the record's nested
    // fault stats account for the lost pool-time.
    let design = homogeneous(16);
    let solo = Analytical
        .estimate(&sweep().plans()[0], &design)
        .unwrap()
        .response_time
        .value();
    let window = Seconds(20.0 * solo);
    let model = FaultModel::new(0.0).outage(0, Seconds(0.5 * solo), Seconds(2.0 * solo));
    let churned = ServingWorkload::new(&sweep(), 1.0, window, 31)
        .trace_arrivals([Seconds(0.0)])
        .with_faults(model);
    let report = Experiment::new(&churned)
        .designs([design.clone()])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    let stats = report.series[0].records[0].serving.as_ref().unwrap();
    let faults = stats
        .faults
        .as_ref()
        .expect("a churned run reports fault stats");
    assert_eq!(faults.failures, 1);
    assert_eq!(faults.killed, 1);
    assert_eq!(faults.readmitted, 1);
    assert_eq!(stats.completed, 1, "the replayed query still completes");
    assert!(
        faults.availability > 0.0 && faults.availability < 1.0,
        "outage downtime must dent availability: {}",
        faults.availability
    );
    assert!(faults.fault_downtime.value() > 0.0);
    // The nested "faults" object round-trips bit-for-bit.
    let json = report.to_json_string();
    assert!(json.contains("\"faults\""), "{json}");
    assert!(json.contains("\"availability\""), "{json}");
    let restored = ExperimentReport::from_json(&JsonValue::parse(&json).unwrap()).unwrap();
    assert_eq!(restored, report);
    assert_eq!(restored.to_json_string(), json, "bit-equal re-write");

    // An inert model is invisible: the whole report — including its
    // JSON bytes — matches a fault-free run, and the "faults" key is
    // never emitted.
    let bare = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31);
    let inert = ServingWorkload::new(&sweep(), 0.002, Seconds(50_000.0), 31)
        .with_faults(FaultModel::new(0.0));
    let run = |workload: &ServingWorkload| {
        Experiment::new(workload)
            .designs([design.clone()])
            .estimator(Serving::fcfs())
            .run()
            .unwrap()
    };
    let bare_json = run(&bare).to_json_string();
    assert_eq!(bare_json, run(&inert).to_json_string());
    assert!(!bare_json.contains("\"faults\""), "inert runs omit the key");
}

#[test]
fn serving_lens_derives_migration_cost_and_parks_idle_pools() {
    use eedc_dbmsim::{FaultModel, ScalePolicy};

    // A two-pool heterogeneous design under near-zero load with a scale
    // policy that carries no explicit migration cost: the lens derives
    // one from the port-volume model, and the elastic policy parks the
    // idle pool — visible as scale-in events and a cheaper run.
    let mut small = sweep();
    small.build_bytes = Megabytes(2_000.0);
    small.probe_bytes = Megabytes(8_000.0);
    let design = ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 4).unwrap();
    let solo = Analytical
        .estimate(
            &small.plans()[0],
            &ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        )
        .unwrap()
        .response_time
        .value();
    let window = Seconds(400.0 * solo);
    let base = ServingWorkload::new(&small, 0.01 / solo, window, 13).queue_capacity(256);
    let elastic = base
        .clone()
        .with_faults(FaultModel::new(0.0).scale(ScalePolicy::new(8, 1, Seconds(solo))));
    let run = |workload: &ServingWorkload| {
        Experiment::new(workload)
            .designs([design.clone()])
            .estimator(Serving::fcfs())
            .run()
            .unwrap()
    };
    let still = run(&base);
    let scaled = run(&elastic);
    let record = &scaled.series[0].records[0];
    let faults = record.serving.as_ref().unwrap().faults.as_ref().unwrap();
    assert!(faults.scale_in_events > 0, "an idle pool must park");
    assert_eq!(faults.failures, 0);
    assert_eq!(
        faults.availability, 1.0,
        "deliberate parking is not downtime"
    );
    assert!(
        record.energy < still.series[0].records[0].energy,
        "parking an idle pool must save energy"
    );
}

#[test]
fn serving_prices_pools_through_the_concurrency_sweep() {
    // A 4-way dedicated pool is priced at concurrency 4: with
    // deterministic service and near-zero load, every query's latency is
    // the *4-way* analytical response time, not the solo one.
    let design = homogeneous(8);
    let plan = sweep().plans().remove(0);
    let solo = Analytical.estimate(&plan, &design).unwrap();
    let mut four_way = plan.clone();
    four_way.sweep = four_way.sweep.with_concurrency(4);
    let batch = Analytical.estimate(&four_way, &design).unwrap();
    assert!(
        batch.response_time > solo.response_time,
        "4 concurrent queries must take longer than one"
    );

    let window = Seconds(2_000.0 * solo.response_time.value());
    let qps = 0.05 / solo.response_time.value();
    let pooled = ServingWorkload::new(&sweep(), qps, window, 7).pool_concurrency(4);
    let report = Experiment::new(&pooled)
        .designs([design.clone()])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    let record = &report.series[0].records[0];
    let stats = record.serving.as_ref().unwrap();
    assert!(stats.completed > 50);
    assert_eq!(stats.dropped + stats.timed_out, 0);
    // Light load: nothing queues, so p50 is exactly one service time —
    // the re-priced 4-way time.
    assert!(
        (stats.p50.value() - batch.response_time.value()).abs()
            < 1e-9 * batch.response_time.value(),
        "p50 {} vs 4-way response time {}",
        stats.p50.value(),
        batch.response_time.value()
    );
    // And the per-query energy reflects the batch split: query energy
    // alone is energy/4 per completion, so total per-query energy stays
    // below one solo run plus the idle share.
    assert!(stats.energy_per_query.value() > 0.0);

    // A processor-sharing pool is priced solo: at near-zero load each
    // query runs alone at the solo rate.
    let shared = ServingWorkload::new(&sweep(), qps, window, 7)
        .pool_concurrency(4)
        .processor_sharing();
    let report = Experiment::new(&shared)
        .designs([design])
        .estimator(Serving::fcfs())
        .run()
        .unwrap();
    let ps_stats = report.series[0].records[0].serving.as_ref().unwrap();
    assert!(
        (ps_stats.p50.value() - solo.response_time.value()).abs()
            < 1e-9 * solo.response_time.value(),
        "PS p50 {} vs solo response time {}",
        ps_stats.p50.value(),
        solo.response_time.value()
    );
    // Zero pool concurrency is a caller error.
    let mut bad = pooled.plans().remove(0);
    bad.serving.as_mut().unwrap().pool_concurrency = 0;
    assert!(Serving::fcfs().estimate(&bad, &homogeneous(8)).is_err());
}

#[test]
fn serving_jsq_and_po2_lenses_run_deterministically() {
    let mut small = sweep();
    small.build_bytes = Megabytes(2_000.0);
    small.probe_bytes = Megabytes(8_000.0);
    let design = ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 4).unwrap();
    let solo = Analytical
        .estimate(
            &small.plans()[0],
            &ClusterSpec::homogeneous(laptop_b(), 4).unwrap(),
        )
        .unwrap()
        .response_time
        .value();
    let workload =
        ServingWorkload::new(&small, 0.8 / solo, Seconds(800.0 * solo), 13).queue_capacity(256);
    let run = || {
        Experiment::new(&workload)
            .designs([design.clone()])
            .estimator(Serving::jsq())
            .estimator(Serving::power_of_two())
            .run()
            .unwrap()
    };
    // Report names derive from `Scheduler::name()`: FCFS is the unmarked
    // baseline, every other policy is `serving:<its name>`, and a
    // non-analytical inner lens is appended after `@`.
    let names = [
        Serving::fcfs(),
        Serving::energy_aware(),
        Serving::jsq(),
        Serving::power_of_two(),
        Serving::fcfs().with_inner(Traced::dbms_x()),
        Serving::jsq().with_inner(Traced::dbms_x()),
    ]
    .map(|lens| lens.name());
    assert_eq!(
        names,
        [
            "serving",
            "serving:energy-aware",
            "serving:jsq",
            "serving:po2",
            "serving@traced:dbms-x",
            "serving:jsq@traced:dbms-x",
        ]
    );
    let report = run();
    let jsq = &report.series[0].records[0];
    let po2 = &report.series[1].records[0];
    assert_eq!(jsq.estimator, "serving:jsq");
    assert_eq!(po2.estimator, "serving:po2");
    let jsq_stats = jsq.serving.as_ref().unwrap();
    let po2_stats = po2.serving.as_ref().unwrap();
    assert_eq!(jsq_stats.scheduler, "jsq");
    assert_eq!(po2_stats.scheduler, "po2");
    // Queue-depth accounting covers both pools of the design.
    assert_eq!(jsq_stats.pool_mean_depth.len(), 2);
    assert!(jsq_stats.pool_mean_depth.iter().all(|&d| d > 0.0));
    assert_eq!(po2_stats.pool_max_queued.len(), 2);
    assert!(jsq_stats.completed > 200);
    assert!(po2_stats.completed > 200);
    // The po2 probes draw from the seeded kernel RNG: bit-identical.
    assert_eq!(report.to_json_string(), run().to_json_string());
}

#[test]
fn reports_serialize_to_json() {
    let workload = sweep();
    let report = Experiment::new(&workload)
        .designs([
            homogeneous(16),
            homogeneous(8),
            ClusterSpec::homogeneous(laptop_b(), 2).unwrap(),
        ])
        .estimator(Analytical)
        .run()
        .unwrap();
    let json = report.to_json_string();
    assert!(json.contains("\"estimator\": \"analytical\""), "{json}");
    assert!(json.contains("\"design\": \"16B,0W\""));
    assert!(json.contains("\"normalized\""));
    assert!(json.contains("\"infeasible\""));
    assert!(json.contains("\"bottleneck\": \"network\""));
    // And lands on disk through the writer.
    let dir = std::env::temp_dir().join("eedc-experiment-test");
    let path = dir.join("nested").join("report.json");
    report.write_json(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, json);
    std::fs::remove_dir_all(&dir).ok();
}
