//! Max–min fair-share bandwidth allocation.
//!
//! Given the set of currently active flows and the fabric's port capacities,
//! this module computes the classic max–min fair allocation by progressive
//! filling: every unfrozen flow's rate is raised uniformly until some port (a
//! sender's egress or a receiver's ingress) saturates; the flows crossing that
//! port are frozen at their current rate and the process repeats. This is the
//! standard steady-state abstraction of per-connection TCP fairness over a
//! non-blocking switch, and it reproduces the ingestion bottleneck the paper
//! highlights for heterogeneous plans: a Beefy node receiving from seven
//! senders caps the *sum* of their rates at its ingress capacity.

use crate::error::NetError;
use crate::fabric::Fabric;
use crate::flow::{Flow, FlowId};
use eedc_simkit::units::MegabytesPerSec;

/// The rate allocated to one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRate {
    /// The flow's id within the flow set passed to the allocator.
    pub flow: FlowId,
    /// Allocated transfer rate.
    pub rate: MegabytesPerSec,
}

/// A complete allocation: one rate per requested flow, in the same order.
#[derive(Debug, Clone, PartialEq)]
pub struct FairShareAllocation {
    rates: Vec<FlowRate>,
}

impl FairShareAllocation {
    /// The per-flow rates, ordered like the input flows.
    pub fn rates(&self) -> &[FlowRate] {
        &self.rates
    }
}

/// The ports that can constrain an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    Egress(usize),
    Ingress(usize),
}

/// Compute the max–min fair allocation for `active` flows over `fabric`.
///
/// `active` carries `(FlowId, Flow)` pairs: only *network* flows should be
/// passed (local flows have no rate).
pub fn max_min_fair_share(
    fabric: &Fabric,
    active: &[(FlowId, Flow)],
) -> Result<FairShareAllocation, NetError> {
    if active.is_empty() {
        return Ok(FairShareAllocation { rates: Vec::new() });
    }
    for (_, flow) in active {
        fabric.check_node(flow.source)?;
        fabric.check_node(flow.destination)?;
        if flow.is_local() {
            return Err(NetError::invalid(format!(
                "local flow on node {} passed to the fair-share allocator",
                flow.source
            )));
        }
    }

    let nodes = fabric.len();

    // Remaining capacity per port.
    let mut egress_left: Vec<f64> = (0..nodes)
        .map(|n| fabric.egress(n).map(|c| c.value()))
        .collect::<Result<_, _>>()?;
    let mut ingress_left: Vec<f64> = (0..nodes)
        .map(|n| fabric.ingress(n).map(|c| c.value()))
        .collect::<Result<_, _>>()?;

    let mut rate = vec![0.0_f64; active.len()];
    let mut frozen = vec![false; active.len()];
    let mut remaining = active.len();

    // Progressive filling: at each step, find the resource that saturates
    // first if all unfrozen flows are raised uniformly; raise by that
    // increment and freeze the flows crossing the saturated resource.
    while remaining > 0 {
        // Count unfrozen flows per resource.
        let mut egress_count = vec![0usize; nodes];
        let mut ingress_count = vec![0usize; nodes];
        for (idx, (_, flow)) in active.iter().enumerate() {
            if frozen[idx] {
                continue;
            }
            egress_count[flow.source] += 1;
            ingress_count[flow.destination] += 1;
        }

        // Smallest per-flow headroom across all ports.
        let mut increment = f64::INFINITY;
        let mut bottlenecks: Vec<Resource> = Vec::new();
        let mut consider = |resource: Resource, left: f64, count: usize| {
            if count == 0 {
                return;
            }
            let headroom = left / count as f64;
            if headroom < increment - 1e-12 {
                increment = headroom;
                bottlenecks.clear();
                bottlenecks.push(resource);
            } else if (headroom - increment).abs() <= 1e-12 {
                bottlenecks.push(resource);
            }
        };
        for n in 0..nodes {
            consider(Resource::Egress(n), egress_left[n], egress_count[n]);
            consider(Resource::Ingress(n), ingress_left[n], ingress_count[n]);
        }

        if !increment.is_finite() {
            return Err(NetError::stalled(
                "no constrained resource found for the remaining flows",
            ));
        }
        let increment = increment.max(0.0);

        // Raise every unfrozen flow and charge the resources it crosses.
        for (idx, (_, flow)) in active.iter().enumerate() {
            if frozen[idx] {
                continue;
            }
            rate[idx] += increment;
            egress_left[flow.source] = (egress_left[flow.source] - increment).max(0.0);
            ingress_left[flow.destination] = (ingress_left[flow.destination] - increment).max(0.0);
        }

        // Freeze flows crossing a saturated resource.
        let mut froze_any = false;
        for (idx, (_, flow)) in active.iter().enumerate() {
            if frozen[idx] {
                continue;
            }
            let hit = bottlenecks.iter().any(|b| match *b {
                Resource::Egress(n) => flow.source == n,
                Resource::Ingress(n) => flow.destination == n,
            });
            if hit {
                frozen[idx] = true;
                remaining -= 1;
                froze_any = true;
            }
        }
        if !froze_any {
            return Err(NetError::stalled(
                "progressive filling failed to freeze any flow",
            ));
        }
    }

    let rates = active
        .iter()
        .enumerate()
        .map(|(idx, (id, _))| FlowRate {
            flow: *id,
            rate: MegabytesPerSec(rate[idx]),
        })
        .collect();
    Ok(FairShareAllocation { rates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use eedc_simkit::units::Megabytes;

    fn flows(pairs: &[(usize, usize)]) -> Vec<(FlowId, Flow)> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| (i, Flow::new(s, d, Megabytes(100.0))))
            .collect()
    }

    /// The rate of the flow at position `id` (`flows` numbers them in order).
    fn rate(alloc: &FairShareAllocation, id: FlowId) -> f64 {
        assert_eq!(alloc.rates()[id].flow, id);
        alloc.rates()[id].rate.value()
    }

    #[test]
    fn single_flow_gets_full_port() {
        let fabric = Fabric::uniform(2, MegabytesPerSec(100.0)).unwrap();
        let alloc = max_min_fair_share(&fabric, &flows(&[(0, 1)])).unwrap();
        assert_eq!(alloc.rates().len(), 1);
        assert!((rate(&alloc, 0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ingress_port_is_shared_by_senders() {
        // Three senders into one receiver: each gets a third of the ingress.
        let fabric = Fabric::uniform(4, MegabytesPerSec(90.0)).unwrap();
        let alloc = max_min_fair_share(&fabric, &flows(&[(0, 3), (1, 3), (2, 3)])).unwrap();
        for id in 0..3 {
            assert!((rate(&alloc, id) - 30.0).abs() < 1e-9);
        }
        assert!(((0..3).map(|id| rate(&alloc, id)).sum::<f64>() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn egress_port_is_shared_by_receivers() {
        let fabric = Fabric::uniform(3, MegabytesPerSec(100.0)).unwrap();
        let alloc = max_min_fair_share(&fabric, &flows(&[(0, 1), (0, 2)])).unwrap();
        assert!((rate(&alloc, 0) - 50.0).abs() < 1e-9);
        assert!((rate(&alloc, 1) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_is_not_merely_proportional() {
        // Node 0 sends to 1 and 2; node 3 sends to 2 only. The ingress port of
        // node 2 is shared, but flow 0->1 can use the leftover egress of node
        // 0 beyond its share at node 2's port — the hallmark of max-min
        // fairness versus naive proportional splitting.
        let fabric = Fabric::uniform(4, MegabytesPerSec(100.0)).unwrap();
        let alloc = max_min_fair_share(&fabric, &flows(&[(0, 2), (3, 2), (0, 1)])).unwrap();
        let r02 = rate(&alloc, 0);
        let r32 = rate(&alloc, 1);
        let r01 = rate(&alloc, 2);
        // Ingress of node 2 saturated and split evenly.
        assert!((r02 + r32 - 100.0).abs() < 1e-9);
        assert!((r02 - 50.0).abs() < 1e-9);
        // Flow 0->1 takes the rest of node 0's egress.
        assert!((r01 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_empty_allocation() {
        let fabric = Fabric::gigabit(2).unwrap();
        let alloc = max_min_fair_share(&fabric, &[]).unwrap();
        assert!(alloc.rates().is_empty());
    }

    #[test]
    fn local_flows_are_rejected() {
        let fabric = Fabric::gigabit(2).unwrap();
        let active = vec![(0usize, Flow::new(1, 1, Megabytes(5.0)))];
        assert!(max_min_fair_share(&fabric, &active).is_err());
    }

    #[test]
    fn unknown_nodes_are_rejected() {
        let fabric = Fabric::gigabit(2).unwrap();
        let active = vec![(0usize, Flow::new(0, 5, Megabytes(5.0)))];
        assert!(max_min_fair_share(&fabric, &active).is_err());
    }

    #[test]
    fn all_to_all_shuffle_shares_every_port_evenly() {
        // 4 nodes, every node sends to every other node: 12 flows. Each port
        // carries 3 flows in each direction, so each flow gets a third of a
        // port.
        let fabric = Fabric::uniform(4, MegabytesPerSec(90.0)).unwrap();
        let mut pairs = Vec::new();
        for s in 0..4 {
            for d in 0..4 {
                if s != d {
                    pairs.push((s, d));
                }
            }
        }
        let alloc = max_min_fair_share(&fabric, &flows(&pairs)).unwrap();
        for r in alloc.rates() {
            assert!((r.rate.value() - 30.0).abs() < 1e-9);
        }
    }
}
