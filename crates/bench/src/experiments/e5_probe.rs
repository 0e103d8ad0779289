//! E5 — completion-probe overhead vs peer count (wall time).
//!
//! Photon's consumer scans one ledger + one ring per peer; this measures the
//! real software cost of that scan, empty and with traffic, as the job
//! scales. (This experiment is wall-clock: it characterizes the middleware
//! implementation, not the modeled wire.)

use crate::report::Table;
use photon_core::{PhotonCluster, ProbeFlags};
use photon_fabric::NetworkModel;
use std::time::Instant;

/// Run the experiment.
pub fn run() -> Table {
    let mut t = Table::new(
        "e5",
        "probe cost vs peers (wall ns/probe)",
        &["peers", "empty_probe_ns", "loaded_probe_ns"],
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let c = PhotonCluster::new(n, NetworkModel::ideal(), super::compact_photon_config());
        let p0 = c.rank(0);
        // Empty probes: pure scan cost. Min over twenty short passes: a
        // pass that fits inside one scheduler timeslice is not inflated by
        // preemption, so on a busy host (other tests' rank threads spinning)
        // the fastest pass is still the scan's own cost — one long pass, or
        // a few, all got stretched together.
        let iters = 1_000;
        let empty_pass = || {
            let start = Instant::now();
            for _ in 0..iters {
                let _ = p0.poll_completion(ProbeFlags::Any).unwrap();
            }
            start.elapsed().as_nanos() as u64 / iters
        };
        let empty_ns = (0..20).map(|_| empty_pass()).min().expect("twenty passes");
        // Loaded: rank 1 feeds events in ring-sized batches (the consumer
        // is not probing during the fill); measure per-event probe cost.
        let batch = 128u64;
        let p1 = c.rank(1);
        let mut loaded_total = 0u128;
        let mut loaded_events = 0u64;
        for _ in 0..8 {
            for i in 0..batch {
                p1.send(0, &[1u8; 8], i).unwrap();
            }
            let start = Instant::now();
            let mut got = 0;
            while got < batch {
                if p0.poll_completion(ProbeFlags::Remote).unwrap().is_some() {
                    got += 1;
                }
            }
            loaded_total += start.elapsed().as_nanos();
            loaded_events += batch;
        }
        let loaded_ns = (loaded_total / loaded_events as u128) as u64;
        t.row(vec![n.to_string(), empty_ns.to_string(), loaded_ns.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_cost_is_finite_and_scales_subquadratically() {
        let t = super::run();
        let parse = |s: &str| s.parse::<f64>().unwrap();
        let at2 = parse(&t.rows[0][1]);
        let at64 = parse(&t.rows.last().unwrap()[1]);
        // Empty-probe cost grows with peers but stays well under 32x per
        // 32x peers (amortized by early exits), and under 100us absolute.
        assert!(at64 < 100_000.0);
        assert!(at64 >= at2 * 0.5, "sanity: more peers is not cheaper by 2x");
    }
}
