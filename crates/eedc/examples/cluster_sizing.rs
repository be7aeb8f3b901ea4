//! Homogeneous cluster sizing (the Figure 1(a) shape): shrink a Cluster-V
//! cluster and plot each size as a normalized (performance, energy) point
//! against the largest configuration — under both the measured runtime and
//! the closed-form analytical model, side by side.

use eedc::pstore::{ClusterSpec, JoinQuerySpec};
use eedc::simkit::catalog::cluster_v_node;
use eedc::{Analytical, Experiment, Measured, SweepJoin};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
    let sizes = [16usize, 12, 8, 4];

    let report = Experiment::new(&workload)
        .designs(
            sizes
                .iter()
                .map(|&n| ClusterSpec::homogeneous(cluster_v_node(), n))
                .collect::<Result<Vec<_>, _>>()?,
        )
        .estimator(Measured::default())
        .estimator(Analytical)
        .run()?;

    for series in &report.series {
        println!(
            "{} lens, normalized against {}",
            series.estimator, series.records[0].design
        );
        for record in &series.records {
            let point = record.normalized.expect("experiment normalizes records");
            println!("  {:>6}: {point}", record.design);
        }
    }
    Ok(())
}
