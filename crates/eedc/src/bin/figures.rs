//! Regenerate the paper's headline numbers as a text report and land the
//! underlying `RunRecord` series on disk as JSON for the figures pipeline:
//! the Figure 5 strategy comparison, a design-space sweep under all four
//! estimator lenses (measured / analytical / behavioural / traced), the
//! Section 3.2 DBMS-X-vs-P-store engine comparison, the serving-layer
//! throughput–energy Pareto sweep, the availability-under-churn fault
//! sweep, and the Figure 6 single-node sweep.
//!
//! ```sh
//! cargo run --release -p eedc --bin figures [output-dir]
//! ```
//!
//! JSON series are written to `output-dir` (default `figures-data/`).

use eedc_core::{
    Analytical, Behavioural, Estimator, Experiment, FaultModel, Measured, RecoveryPolicy,
    ScalePolicy, Serving, ServingWorkload, SweepJoin, Traced, Workload,
};
use eedc_pstore::microbench::{table2_sweep, MicrobenchOptions};
use eedc_pstore::{ClusterSpec, JoinQuerySpec, JoinStrategy, RunOptions};
use eedc_simkit::catalog::{cluster_v_node, laptop_b};
use eedc_tpch::ScaleFactor;
use std::path::PathBuf;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("figures-data"), PathBuf::from);
    let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
    // Small enough to iterate, large enough that the measured joins are real.
    let options = RunOptions {
        engine_scale: ScaleFactor(0.002),
        ..RunOptions::default()
    };

    // ---- Figure 5: the three join strategies on eight Cluster-V nodes.
    println!("== Figure 5: join strategies on 8B,0W (O5%/L5%) ==");
    for strategy in JoinStrategy::ALL {
        let result = Experiment::new(&workload)
            .strategy(strategy)
            .design(ClusterSpec::homogeneous(cluster_v_node(), 8).expect("spec is valid"))
            .estimator(Measured::new(options))
            .run();
        match result {
            Ok(report) => {
                let record = &report.series[0].records[0];
                println!(
                    "{strategy:>15}: {:.1} s, {:.1} kJ, {:.0} MB over network",
                    record.response_time.value(),
                    record.energy.as_kilojoules(),
                    record
                        .phases
                        .iter()
                        .map(|p| p.bytes_over_network.value())
                        .sum::<f64>(),
                );
                let path = out_dir.join(format!("figure5_{strategy}.json"));
                match report.write_json(&path) {
                    Ok(()) => println!("{:>15}  -> {}", "", path.display()),
                    Err(err) => println!("{:>15}  !! JSON write failed: {err}", ""),
                }
            }
            Err(err) => println!("{strategy:>15}: {err}"),
        }
    }

    // ---- The design-space sweep, one Experiment invocation, all four
    // estimator lenses over the same designs.
    println!();
    println!("== Design-space sweep: measured vs analytical vs behavioural vs traced ==");
    let designs = [16usize, 8, 4]
        .map(|n| ClusterSpec::homogeneous(cluster_v_node(), n).expect("spec is valid"));
    match Experiment::new(&workload)
        .designs(designs.clone())
        .estimator(Measured::new(options))
        .estimator(Analytical)
        .estimator(Behavioural)
        .estimator(Traced::pstore())
        .run()
    {
        Ok(report) => {
            for series in &report.series {
                print!("{:>12}:", series.estimator);
                for record in &series.records {
                    let point = record.normalized.expect("records are normalized");
                    print!(
                        "  {} perf {:.2}/energy {:.2}",
                        record.design, point.performance, point.energy
                    );
                }
                println!();
            }
            let path = out_dir.join("design_space.json");
            match report.write_json(&path) {
                Ok(()) => println!("  -> {}", path.display()),
                Err(err) => println!("  !! JSON write failed: {err}"),
            }
        }
        Err(err) => println!("sweep failed: {err}"),
    }

    // ---- Section 3.2: the engine-behaviour comparison. Same designs, same
    // workload, but the trace is shaped by the DBMS-X behaviour — disk-staged
    // intermediates and a mid-query restart — before replay.
    println!();
    println!("== Section 3.2: P-store vs DBMS-X engine behaviour (traced) ==");
    match Experiment::new(&workload)
        .designs(designs)
        .estimator(Traced::pstore())
        .estimator(Traced::dbms_x())
        .run()
    {
        Ok(report) => {
            let pstore = &report.series[0];
            let dbms_x = &report.series[1];
            for (p, x) in pstore.records.iter().zip(&dbms_x.records) {
                println!(
                    "  {:>7}: p-store {:6.1} s / {:7.1} kJ  |  dbms-x {:6.1} s / {:7.1} kJ ({:4.2}x energy)",
                    p.design,
                    p.response_time.value(),
                    p.energy.as_kilojoules(),
                    x.response_time.value(),
                    x.energy.as_kilojoules(),
                    x.energy.value() / p.energy.value(),
                );
            }
            let path = out_dir.join("engine_behaviour.json");
            match report.write_json(&path) {
                Ok(()) => println!("  -> {}", path.display()),
                Err(err) => println!("  !! JSON write failed: {err}"),
            }
        }
        Err(err) => println!("engine comparison failed: {err}"),
    }

    // ---- The serving Pareto sweep: the same open-loop query stream offered
    // to three designs, each point a (tail latency, energy per query)
    // trade-off under energy-aware Beefy-vs-Wimpy placement and under
    // join-shortest-queue balancing.
    println!();
    println!("== Serving: latency vs energy-per-query across designs ==");
    let mut template = workload;
    template.build_bytes = eedc_simkit::units::Megabytes(2_000.0);
    template.probe_bytes = eedc_simkit::units::Megabytes(8_000.0);
    let serving_designs = [
        ClusterSpec::homogeneous(cluster_v_node(), 8),
        ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 8),
        ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 16),
    ]
    .map(|d| d.expect("spec is valid"));
    let serving_result = Analytical
        .estimate(&template.plans()[0], &serving_designs[0])
        .map(|reference| {
            let service_time = reference.response_time.value();
            let window = eedc_simkit::units::Seconds(2_000.0 * service_time);
            let serving = ServingWorkload::new(&template, 0.5 / service_time, window, 42);
            Experiment::new(&serving)
                .designs(serving_designs)
                .estimator(Serving::energy_aware())
                .estimator(Serving::jsq())
                .run()
        })
        .and_then(|r| r);
    match serving_result {
        Ok(report) => {
            for series in &report.series {
                println!("  [{}]", series.estimator);
                for record in &series.records {
                    let stats = record.serving.as_ref().expect("serving lens fills stats");
                    println!(
                        "  {:>7}: p50 {:6.2} s, p99 {:6.2} s, {:.4} qps, {:5.1}% lost, depth {:4.2}, {:6.0} J/query",
                        record.design,
                        stats.p50.value(),
                        stats.p99.value(),
                        stats.achieved_qps,
                        stats.drop_rate * 100.0,
                        stats.pool_mean_depth.iter().sum::<f64>(),
                        stats.energy_per_query.value(),
                    );
                }
            }
            let path = out_dir.join("serving_pareto.json");
            match report.write_json(&path) {
                Ok(()) => println!("  -> {}", path.display()),
                Err(err) => println!("  !! JSON write failed: {err}"),
            }
        }
        Err(err) => println!("serving sweep failed: {err}"),
    }

    // ---- Availability under churn: the same designs and stream, now with
    // node failures (hazard + scripted outages), checkpoint recovery, and an
    // elastic scale policy whose migration cost the lens derives from the
    // port-volume model. Closes with the availability objective.
    println!();
    println!("== Faults: availability and energy under churn ==");
    let churn_designs = [
        ClusterSpec::homogeneous(cluster_v_node(), 8),
        ClusterSpec::heterogeneous(cluster_v_node(), 4, laptop_b(), 8),
        ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 16),
    ]
    .map(|d| d.expect("spec is valid"));
    let churn_result = Analytical
        .estimate(&template.plans()[0], &churn_designs[0])
        .map(|reference| {
            let service_time = reference.response_time.value();
            let window = eedc_simkit::units::Seconds(1_000.0 * service_time);
            let rate = 6.0 * 3_600.0 / (8.0 * window.value());
            let model = FaultModel::new(rate)
                .repair_time(eedc_simkit::units::Seconds(2.0 * service_time))
                .recovery(RecoveryPolicy::Checkpoint {
                    interval: eedc_simkit::units::Seconds(service_time / 4.0),
                })
                .outage(
                    0,
                    eedc_simkit::units::Seconds(0.25 * window.value()),
                    eedc_simkit::units::Seconds(4.0 * service_time),
                )
                .scale(ScalePolicy::new(
                    12,
                    1,
                    eedc_simkit::units::Seconds(2.0 * service_time),
                ));
            let churned = ServingWorkload::new(&template, 0.4 / service_time, window, 4_242)
                .queue_capacity(256)
                .with_faults(model);
            let report = Experiment::new(&churned)
                .designs(churn_designs.clone())
                .estimator(Serving::fcfs())
                .run()?;
            let advisor = eedc_core::DesignAdvisor::new(Serving::fcfs(), &churned);
            let pick = advisor.cheapest_meeting_availability(&churn_designs, 0.98)?;
            Ok::<_, eedc_core::CoreError>((report, pick))
        })
        .and_then(|r| r);
    match churn_result {
        Ok((report, pick)) => {
            for record in &report.series[0].records {
                let stats = record.serving.as_ref().expect("serving lens fills stats");
                let faults = stats.faults.as_ref().expect("churned runs report faults");
                println!(
                    "  {:>7}: {:.5} available, {} failures, {}/{} killed/readmitted, {} scale events, {:6.0} J/query",
                    record.design,
                    faults.availability,
                    faults.failures,
                    faults.killed,
                    faults.readmitted,
                    faults.scale_out_events + faults.scale_in_events,
                    stats.energy_per_query.value(),
                );
            }
            match pick {
                Some(best) => println!(
                    "  cheapest design meeting availability >= 0.98: {}",
                    best.design
                ),
                None => println!("  no design meets availability >= 0.98"),
            }
            let path = out_dir.join("availability_churn.json");
            match report.write_json(&path) {
                Ok(()) => println!("  -> {}", path.display()),
                Err(err) => println!("  !! JSON write failed: {err}"),
            }
        }
        Err(err) => println!("churn sweep failed: {err}"),
    }

    // ---- Figure 6: the single-node microbenchmark (not a cluster workload;
    // stays on its dedicated path).
    println!();
    println!("== Figure 6: single-node hash join (10 MB x 2 GB) ==");
    match table2_sweep(&MicrobenchOptions::default()) {
        Ok(results) => {
            for result in results {
                println!(
                    "{:>15}: {:.1} s, {:.0} J",
                    result.node,
                    result.duration.value(),
                    result.energy.value(),
                );
            }
        }
        Err(err) => println!("sweep failed: {err}"),
    }
}
