//! Hardware catalog containing the exact machines studied in the paper.
//!
//! The catalog reproduces:
//!
//! * **Table 1** — the Cluster-V node (HP ProLiant DL360G6, dual Intel X5550,
//!   48 GB RAM, 8×300 GB disks, 1 Gb/s network) with the published
//!   `SysPower = 130.03 · C^0.2369` power model,
//! * **Table 2** — the five single-node systems used in the Section 5.1
//!   micro-benchmark (Workstation A/B, the Atom desktop, Laptop A/B) with the
//!   published idle powers,
//! * **Table 3 / Section 5.2** — the "Wimpy" Laptop B node
//!   (`10.994 · (100c)^0.2875`, `C_W = 1129`, `G_W = 0.13`), plus the modeled
//!   Cluster-V Beefy node (`C_B = 5037`, `G_B = 0.25`) used for the
//!   Section 5.4 design-space sweeps.
//!
//! The Section 5.2 "Beefy" prototype node is recorded here but not built, as
//! no experiment runs on it: an HP ProLiant SE326M1R2 with dual low-power
//! quad-core L5630 Xeons, 32 GB of memory and a Crucial C300 SSD,
//! `C_B = 4034` and `f_B(c) = 79.006 · (100c)^0.2451` (≈ 244 W at full load;
//! the paper reports ~154 W on average during the partially network-bound
//! prototype runs).
//!
//! The Table 2 machines additionally carry a calibrated hash-join processing
//! rate so that the Figure 6 single-node energy experiment can be regenerated;
//! each machine's `hashjoin_bandwidth` comment gives the Figure 6 time and
//! power it is calibrated to, which preserves the paper's qualitative result:
//! the workstations are fastest, Laptop B consumes the least energy.

use crate::node::{NodeClass, NodeSpec};
use crate::power::PowerModel;
use crate::units::{Megabytes, MegabytesPerSec, Watts};

/// The Cluster-V node of Table 1: the machine behind every Vertica experiment
/// and the Beefy node of the Section 5.4 model sweeps (`C_B = 5037`,
/// `G_B = 0.25`, `f_B(c) = 130.03 · (100c)^0.2369`).
pub fn cluster_v_node() -> NodeSpec {
    let power_model = PowerModel::power_law(130.03, 0.2369);
    NodeSpec {
        name: "cluster-v".into(),
        class: NodeClass::Beefy,
        cores: 8,
        threads: 16,
        memory: Megabytes::from_gigabytes(48.0),
        // Section 5.4 models the I/O subsystem as four Crucial C300 SSDs.
        disk_bandwidth: MegabytesPerSec(1200.0),
        network_bandwidth: MegabytesPerSec(100.0),
        cpu_bandwidth: MegabytesPerSec(5037.0),
        hashjoin_bandwidth: MegabytesPerSec(180.0),
        utilization_floor: 0.25,
        idle_power: power_model.near_idle_power(),
        power_model,
    }
}

/// Table 2 Workstation A: i7 920 (4 cores / 8 threads), 12 GB RAM, 93 W idle.
pub fn workstation_a() -> NodeSpec {
    NodeSpec {
        name: "workstation-a".into(),
        class: NodeClass::Beefy,
        cores: 4,
        threads: 8,
        memory: Megabytes::from_gigabytes(12.0),
        disk_bandwidth: MegabytesPerSec(250.0),
        network_bandwidth: MegabytesPerSec(100.0),
        cpu_bandwidth: MegabytesPerSec(3800.0),
        // Figure 6: ~13 s for the 2 GB probe → ~160 MB/s through the
        // cache-conscious join, drawing ~103 W on average → ~1300 J.
        hashjoin_bandwidth: MegabytesPerSec(160.0),
        utilization_floor: 0.2,
        power_model: PowerModel::linear(93.0, 40.0),
        idle_power: Watts(93.0),
    }
}

/// Table 2 Workstation B: quad-core Xeon (no SMT), 24 GB RAM, 69 W idle.
pub fn workstation_b() -> NodeSpec {
    NodeSpec {
        name: "workstation-b".into(),
        class: NodeClass::Beefy,
        cores: 4,
        threads: 4,
        memory: Megabytes::from_gigabytes(24.0),
        disk_bandwidth: MegabytesPerSec(250.0),
        network_bandwidth: MegabytesPerSec(100.0),
        cpu_bandwidth: MegabytesPerSec(3400.0),
        // Figure 6: slightly slower than Workstation A but lower power.
        hashjoin_bandwidth: MegabytesPerSec(140.0),
        utilization_floor: 0.2,
        power_model: PowerModel::linear(69.0, 28.0),
        idle_power: Watts(69.0),
    }
}

/// Table 2 Atom desktop: dual-core / 4-thread Atom, 4 GB RAM, 28 W idle.
pub fn desktop_atom() -> NodeSpec {
    NodeSpec {
        name: "desktop-atom".into(),
        class: NodeClass::Wimpy,
        cores: 2,
        threads: 4,
        memory: Megabytes::from_gigabytes(4.0),
        disk_bandwidth: MegabytesPerSec(120.0),
        network_bandwidth: MegabytesPerSec(100.0),
        cpu_bandwidth: MegabytesPerSec(600.0),
        // Figure 6: ~45 s for the join at ~29 W → ~1300 J; an in-order Atom is
        // the slowest of the five systems and not the most energy efficient.
        hashjoin_bandwidth: MegabytesPerSec(45.0),
        utilization_floor: 0.15,
        power_model: PowerModel::linear(28.0, 4.0),
        idle_power: Watts(28.0),
    }
}

/// Table 2 Laptop A: Core 2 Duo (2 cores / 2 threads), 4 GB RAM, 12 W idle
/// (screen off).
pub fn laptop_a() -> NodeSpec {
    NodeSpec {
        name: "laptop-a".into(),
        class: NodeClass::Wimpy,
        cores: 2,
        threads: 2,
        memory: Megabytes::from_gigabytes(4.0),
        disk_bandwidth: MegabytesPerSec(200.0),
        network_bandwidth: MegabytesPerSec(100.0),
        cpu_bandwidth: MegabytesPerSec(700.0),
        // Figure 6: ~48 s at ~19 W → ~900 J.
        hashjoin_bandwidth: MegabytesPerSec(42.0),
        utilization_floor: 0.13,
        power_model: PowerModel::linear(12.0, 9.0),
        idle_power: Watts(12.0),
    }
}

/// Table 2 / Section 5.2 Laptop B: i7 620m (2 cores / 4 threads), 8 GB RAM,
/// Crucial C300 SSD, 11 W idle (screen off). This is the paper's "Wimpy" node:
/// `C_W = 1129`, `G_W = 0.13`, `f_W(c) = 10.994 · (100c)^0.2875`, ~37 W average
/// during the prototype runs.
pub fn laptop_b() -> NodeSpec {
    NodeSpec {
        name: "laptop-b".into(),
        class: NodeClass::Wimpy,
        cores: 2,
        threads: 4,
        memory: Megabytes::from_gigabytes(8.0),
        disk_bandwidth: MegabytesPerSec(270.0),
        network_bandwidth: MegabytesPerSec(95.0),
        cpu_bandwidth: MegabytesPerSec(1129.0),
        // Figure 6: ~20 s at ~39 W → ~800 J, the lowest-energy system.
        hashjoin_bandwidth: MegabytesPerSec(100.0),
        utilization_floor: 0.13,
        power_model: PowerModel::power_law(10.994, 0.2875),
        idle_power: Watts(11.0),
    }
}

/// The five single-node systems of Table 2, in the paper's order.
pub fn table2_systems() -> [NodeSpec; 5] {
    [
        workstation_a(),
        workstation_b(),
        desktop_atom(),
        laptop_a(),
        laptop_b(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_machine_is_physically_valid() {
        for spec in std::iter::once(cluster_v_node()).chain(table2_systems()) {
            let name = &spec.name;
            assert!(!name.is_empty());
            assert!(spec.cores > 0 && spec.threads >= spec.cores, "{name}");
            for v in [
                spec.memory.value(),
                spec.disk_bandwidth.value(),
                spec.network_bandwidth.value(),
                spec.cpu_bandwidth.value(),
            ] {
                assert!(v.is_finite() && v > 0.0, "{name}: {v}");
            }
            assert!((0.0..=1.0).contains(&spec.utilization_floor), "{name}");
        }
        // The paper gives only a regression model for the server, so its
        // idle power is that model's near-idle evaluation.
        let server = cluster_v_node();
        assert_eq!(server.idle_power, server.power_model.near_idle_power());
    }

    #[test]
    fn table2_systems_are_in_the_papers_order() {
        let order: Vec<String> = table2_systems().into_iter().map(|s| s.name).collect();
        assert_eq!(
            order,
            [
                workstation_a().name,
                workstation_b().name,
                desktop_atom().name,
                laptop_a().name,
                laptop_b().name,
            ]
        );
    }

    #[test]
    fn cluster_v_matches_table_1() {
        let n = cluster_v_node();
        assert_eq!(n.memory, Megabytes::from_gigabytes(48.0));
        assert_eq!(n.network_bandwidth, MegabytesPerSec(100.0));
        assert_eq!(n.cpu_bandwidth, MegabytesPerSec(5037.0));
        assert!((n.utilization_floor - 0.25).abs() < 1e-12);
        // SysPower = 130.03 · C^0.2369 ⇒ coefficient at 1% utilization.
        assert!((n.power_at(0.01).value() - 130.03).abs() < 1e-6);
    }

    #[test]
    fn laptop_b_matches_table_2_and_3() {
        let n = laptop_b();
        assert!(n.is_wimpy());
        assert_eq!(n.memory, Megabytes::from_gigabytes(8.0));
        assert_eq!(n.idle_power, Watts(11.0));
        assert_eq!(n.cpu_bandwidth, MegabytesPerSec(1129.0));
        assert!((n.utilization_floor - 0.13).abs() < 1e-12);
    }

    #[test]
    fn table_2_idle_powers_match_the_paper() {
        assert_eq!(workstation_a().idle_power, Watts(93.0));
        assert_eq!(workstation_b().idle_power, Watts(69.0));
        assert_eq!(desktop_atom().idle_power, Watts(28.0));
        assert_eq!(laptop_a().idle_power, Watts(12.0));
        assert_eq!(laptop_b().idle_power, Watts(11.0));
    }

    #[test]
    fn wimpy_nodes_have_small_memory_and_low_power() {
        for spec in std::iter::once(cluster_v_node()).chain(table2_systems()) {
            if spec.is_wimpy() {
                assert!(spec.memory.as_gigabytes() <= 8.0, "{}", spec.name);
                assert!(spec.peak_power().value() < 60.0, "{}", spec.name);
            }
        }
    }
}
