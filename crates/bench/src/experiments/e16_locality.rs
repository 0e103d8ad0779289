//! E16 — topology locality: collectives under pod oversubscription.
//!
//! On a flat crossbar, rank placement is irrelevant. Under a two-level
//! topology with oversubscribed uplinks, cross-pod rounds of a collective
//! serialize on the shared links; the gap between flat and oversubscribed
//! runs is the price of ignoring locality that paper-era middleware had to
//! reason about.

use crate::report::{us, Table};
use photon_core::PhotonCluster;
use photon_fabric::{NetworkModel, PodTopology};

/// Median of three [`alltoall_once_ns`] runs (the posting order below
/// removes the scheduling dependence that was found; the median covers
/// what was not).
fn alltoall_ns(n: usize, block: usize, topo: Option<PodTopology>) -> u64 {
    let mut runs = [(); 3].map(|()| alltoall_once_ns(n, block, topo));
    runs.sort_unstable();
    runs[1]
}

fn alltoall_once_ns(n: usize, block: usize, topo: Option<PodTopology>) -> u64 {
    let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), super::compact_photon_config());
    if let Some(t) = topo {
        c.fabric().switch().set_topology(t);
    }
    let ranks = c.ranks();
    std::thread::scope(|s| {
        for p in ranks {
            s.spawn(move || {
                // Every rank posts its n-1 blocks at the same virtual time,
                // and the switch grants port reservations in wall-clock
                // arrival order — so which rank's thread the OS runs first
                // decides who queues behind whom on the shared uplinks, and
                // the makespan moved by ±10% between runs. Post in rank
                // order instead: wait until the previous rank's blocks (one
                // send each) are in.
                if let Some(prev) = p.rank().checked_sub(1).map(|r| &ranks[r]) {
                    while prev.stats().sends < n as u64 - 1 {
                        std::thread::yield_now();
                    }
                }
                let send = vec![p.rank() as u8; n * block];
                let mut recv = vec![0u8; n * block];
                p.alltoall(&send, &mut recv).unwrap();
            });
        }
    });
    c.ranks().iter().map(|p| p.now().as_nanos()).max().unwrap()
}

/// Run the experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e16",
        "8-rank all-to-all (2KiB blocks) vs pod oversubscription (us)",
        &["topology", "alltoall_us", "slowdown"],
    );
    let n = 8;
    let block = 2048;
    let flat = alltoall_ns(n, block, None);
    t.row(vec!["flat".into(), us(flat), "1.00x".into()]);
    for over in [1u64, 2, 4, 8] {
        let topo = PodTopology { pod_size: 4, oversubscription: over, core_latency_ns: 300 };
        let v = alltoall_ns(n, block, Some(topo));
        t.row(vec![format!("pods4_over{over}"), us(v), format!("{:.2}x", v as f64 / flat as f64)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use photon_fabric::PodTopology;

    #[test]
    fn oversubscription_slows_cross_pod_alltoall() {
        let flat = super::alltoall_ns(8, 2048, None);
        let over4 = super::alltoall_ns(
            8,
            2048,
            Some(PodTopology { pod_size: 4, oversubscription: 4, core_latency_ns: 300 }),
        );
        assert!(over4 > flat * 2, "4x oversubscription must hurt an all-to-all: {flat} -> {over4}");
        // 1:1 pods still share one port's worth of uplink per pod, but
        // cost far less than 4:1.
        let over1 = super::alltoall_ns(
            8,
            2048,
            Some(PodTopology { pod_size: 4, oversubscription: 1, core_latency_ns: 300 }),
        );
        assert!(over1 < flat * 2, "{flat} -> {over1}");
    }
}
