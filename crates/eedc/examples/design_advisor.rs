//! The Section 6 design advisor over the Section 5.4 analytical model:
//! enumerate every `(b Beefy, w Wimpy)` cluster design, predict its response
//! time and energy for the 700 GB ⋈ 2.8 TB sweep join in closed form,
//! normalize against the all-Beefy reference, and pick the most
//! energy-efficient design meeting each performance target.
//!
//! The advisor is estimator-agnostic — swap `Analytical` for `Measured` (or
//! `Behavioural`) and the same selection rule ranks designs from real runs.
//!
//! ```sh
//! cargo run --release --example design_advisor
//! ```

use eedc::pstore::JoinQuerySpec;
use eedc::simkit::catalog::{cluster_v_node, laptop_b};
use eedc::{Analytical, DesignAdvisor, DesignSpace, SweepJoin};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Q3-style sweep join (5% predicates on both inputs) over a
    // grid of up to 8 Cluster-V "Beefy" servers and 16 Laptop-B "Wimpy"
    // nodes, executed with the dual-shuffle repartitioning plan.
    let workload = SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle());
    let advisor = DesignAdvisor::new(Analytical, &workload);
    let space = DesignSpace::new(cluster_v_node(), laptop_b(), 8, 16)?;

    let report = advisor.evaluate(&space)?;
    println!(
        "evaluated {} designs: {} feasible, {} infeasible (hash table fits no mode)",
        space.len(),
        report.records.len(),
        report.infeasible.len(),
    );
    println!(
        "normalized against {} (all-Beefy reference)",
        report.records[0].design
    );

    // A few representative rows of the design space.
    for label in ["8B,0W", "8B,8W", "4B,8W", "2B,16W", "1B,16W"] {
        match report.record(label) {
            Some(record) => {
                let point = record.normalized.expect("advisor normalizes records");
                println!(
                    "  {label:>7} [{} execution]: {:.1} s, {:.1} kJ — {point}",
                    record.mode,
                    record.response_time.value(),
                    record.energy.as_kilojoules(),
                );
            }
            None => println!("  {label:>7}: infeasible"),
        }
    }

    // The Section 6 selection rule for a range of performance floors.
    for target in [0.9, 0.75, 0.5] {
        match report.recommend(target) {
            Some(pick) => println!("target perf >= {target:.2}: pick {pick}"),
            None => println!("target perf >= {target:.2}: no design qualifies"),
        }
    }
    Ok(())
}
