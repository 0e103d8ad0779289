//! E8 — application benchmarks driven through the runtime and middleware:
//! GUPS (random access via parcels), a 1-D-decomposed Jacobi stencil with
//! halo exchange, and raw parcel rate vs the two-sided baseline.

use crate::report::{mops, size_label, us, Table};
use photon_core::PhotonCluster;
use photon_fabric::NetworkModel;
use photon_msg::{MsgCluster, MsgConfig};
use photon_runtime::{ActionRegistry, GlobalArray, RtConfig, RuntimeCluster};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ------------------------------------------------------------------- GUPS

/// Giga-updates-per-second random access: every rank fires `updates`
/// xor-update parcels at random table locations; owners apply them.
/// (Like HPC-Challenge RandomAccess, small races are tolerated.)
fn gups(n: usize, updates_per_rank: usize, elems_per_rank: usize) -> f64 {
    let mut reg = ActionRegistry::new();
    let arr_slot: Arc<OnceLock<Arc<GlobalArray>>> = Arc::new(OnceLock::new());
    let applied = Arc::new(AtomicU64::new(0));
    let (slot2, applied2) = (Arc::clone(&arr_slot), Arc::clone(&applied));
    let update = reg.register("gups-update", move |ctx, payload| {
        let idx = u64::from_le_bytes(payload[0..8].try_into().unwrap()) as usize;
        let val = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        let arr = slot2.get().expect("array installed");
        let (owner, off) = arr.locate(idx);
        debug_assert_eq!(owner, ctx.rank());
        let block = arr.local_block(owner);
        block.write_u64(off, block.read_u64(off) ^ val);
        applied2.fetch_add(1, Ordering::Relaxed);
        None
    });
    let cfg =
        RtConfig { workers: 1, photon: super::compact_photon_config(), ..RtConfig::default() };
    let c = RuntimeCluster::new(n, NetworkModel::ib_fdr(), cfg, reg);
    let arr = c.alloc_global_array(elems_per_rank).unwrap();
    arr_slot.set(Arc::clone(&arr)).expect("set once");
    let total_elems = arr.len();
    std::thread::scope(|s| {
        for i in 0..n {
            let c = &c;
            let arr = &arr;
            s.spawn(move || {
                let node = c.node(i);
                let mut rng = StdRng::seed_from_u64(0xC0FFEE + i as u64);
                for _ in 0..updates_per_rank {
                    let idx = rng.gen_range(0..total_elems);
                    let (owner, _) = arr.locate(idx);
                    let mut payload = [0u8; 16];
                    payload[0..8].copy_from_slice(&(idx as u64).to_le_bytes());
                    payload[8..16].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                    node.send_parcel(owner, update, &payload).unwrap();
                }
            });
        }
    });
    let total = (n * updates_per_rank) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while applied.load(Ordering::Relaxed) < total {
        assert!(Instant::now() < deadline, "gups never drained");
        std::thread::sleep(Duration::from_micros(100));
    }
    let t_ns = c.nodes().iter().map(|nd| nd.photon().now().as_nanos()).max().unwrap();
    c.shutdown();
    total as f64 / (t_ns as f64 / 1e9)
}

/// GUPS with native remote fetch-adds instead of parcels: `window`
/// operations pipelined per rank, additive updates.
fn gups_atomics(n: usize, updates_per_rank: usize, elems_per_rank: usize) -> f64 {
    let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), super::compact_photon_config());
    let tables: Vec<_> =
        (0..n).map(|i| c.rank(i).register_buffer(elems_per_rank * 8).unwrap()).collect();
    let descs: Vec<_> = tables.iter().map(|t| t.descriptor()).collect();
    c.reset_time();
    std::thread::scope(|s| {
        for i in 0..n {
            let c = &c;
            let descs = &descs;
            s.spawn(move || {
                let p = c.rank(i);
                let window = 16usize;
                let results = p.register_buffer(window * 8).unwrap();
                let mut rng = StdRng::seed_from_u64(0xAAA + i as u64);
                for k in 0..updates_per_rank {
                    let tgt = rng.gen_range(0..n * elems_per_rank);
                    let (owner, off) = (tgt / elems_per_rank, (tgt % elems_per_rank) * 8);
                    let slot = k % window;
                    if k >= window {
                        p.wait_local((k - window) as u64).unwrap();
                    }
                    p.atomic_fetch_add(owner, &results, slot * 8, &descs[owner], off, 1, k as u64)
                        .unwrap();
                }
                for k in updates_per_rank.saturating_sub(window)..updates_per_rank {
                    p.wait_local(k as u64).unwrap();
                }
            });
        }
    });
    let t_ns = c.ranks().iter().map(|p| p.now().as_nanos()).max().unwrap();
    (n * updates_per_rank) as f64 / (t_ns as f64 / 1e9)
}

/// Run E8a.
pub fn run_gups() -> Table {
    let mut t = Table::new(
        "e8a",
        "GUPS random access (Mupdates/s, modeled FDR IB)",
        &["ranks", "updates_per_rank", "parcels_mups", "atomics_mups"],
    );
    for n in [2usize, 4, 8] {
        let updates = 4000;
        t.row(vec![
            n.to_string(),
            updates.to_string(),
            mops(gups(n, updates, 1 << 14)),
            mops(gups_atomics(n, updates, 1 << 14)),
        ]);
    }
    t
}

// ---------------------------------------------------------------- stencil

const COLS: usize = 512;
const ROWS: usize = 128;

/// One-dimensional Jacobi halo exchange over Photon puts: each rank owns
/// `ROWS`×`COLS` f64 cells plus two halo rows; per iteration it puts its
/// boundary rows into its ring neighbours' halo slots and waits for theirs.
/// Returns virtual ns per iteration.
fn photon_stencil_ns_per_iter(n: usize, iters: usize) -> u64 {
    let row_bytes = COLS * 8;
    // Halos land in pre-registered, pre-known destinations: the natural
    // Photon usage is the direct (zero-copy) path, not the eager ring.
    let cfg = photon_core::PhotonConfig { eager_threshold: 0, ..super::compact_photon_config() };
    let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), cfg);
    // Grid layout: row 0 = top halo, rows 1..=ROWS interior, row ROWS+1 =
    // bottom halo.
    let grids: Vec<_> =
        (0..n).map(|i| c.rank(i).register_buffer((ROWS + 2) * row_bytes).unwrap()).collect();
    let descs: Vec<_> = grids.iter().map(|g| g.descriptor()).collect();
    c.reset_time();
    std::thread::scope(|s| {
        for i in 0..n {
            let c = &c;
            let grids = &grids;
            let descs = &descs;
            s.spawn(move || {
                let p = c.rank(i);
                let g = &grids[i];
                let up = (i + n - 1) % n;
                let down = (i + 1) % n;
                for k in 0..iters as u64 {
                    // Top interior row -> `up`'s bottom halo; bottom
                    // interior row -> `down`'s top halo.
                    p.put_with_completion(
                        up,
                        g,
                        row_bytes,
                        row_bytes,
                        &descs[up],
                        (ROWS + 1) * row_bytes,
                        2 * k,
                        k,
                    )
                    .unwrap();
                    p.put_with_completion(
                        down,
                        g,
                        ROWS * row_bytes,
                        row_bytes,
                        &descs[down],
                        0,
                        2 * k + 1,
                        k,
                    )
                    .unwrap();
                    p.wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap();
                    p.wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap();
                    // Five-point relaxation over the interior, modeled at
                    // ~1 ns/cell of CPU work.
                    p.elapse((ROWS * COLS) as u64);
                    p.barrier().unwrap();
                }
            });
        }
    });
    c.ranks().iter().map(|p| p.now().as_nanos()).max().unwrap() / iters as u64
}

/// The same exchange over the two-sided baseline.
fn msg_stencil_ns_per_iter(n: usize, iters: usize) -> u64 {
    let row_bytes = COLS * 8;
    let c = MsgCluster::new(n, NetworkModel::ib_fdr(), super::compact_msg_config());
    let bufs: Vec<_> = (0..n).map(|i| c.rank(i).register_buffer(2 * row_bytes).unwrap()).collect();
    std::thread::scope(|s| {
        for i in 0..n {
            let c = &c;
            let bufs = &bufs;
            s.spawn(move || {
                let e = c.rank(i);
                let b = &bufs[i];
                let up = (i + n - 1) % n;
                let down = (i + 1) % n;
                for k in 0..iters as u64 {
                    e.send_from(up, b, 0, row_bytes, 2 * k).unwrap();
                    e.send_from(down, b, row_bytes, row_bytes, 2 * k + 1).unwrap();
                    e.recv_into(b, 0, row_bytes, Some(up), Some(2 * k + 1)).unwrap();
                    e.recv_into(b, row_bytes, row_bytes, Some(down), Some(2 * k)).unwrap();
                    e.elapse((ROWS * COLS) as u64);
                    e.barrier().unwrap();
                }
            });
        }
    });
    c.ranks().iter().map(|e| e.now().as_nanos()).max().unwrap() / iters as u64
}

/// Run E8b.
pub fn run_stencil() -> Table {
    let mut t = Table::new(
        "e8b",
        "Jacobi halo exchange, 128x512 f64 per rank (us/iter)",
        &["ranks", "photon_us_per_iter", "baseline_us_per_iter"],
    );
    for n in [2usize, 4, 8, 16] {
        t.row(vec![
            n.to_string(),
            us(photon_stencil_ns_per_iter(n, 10)),
            us(msg_stencil_ns_per_iter(n, 10)),
        ]);
    }
    t
}

// ------------------------------------------------------------ parcel rate

/// Parcel delivery rate: rank 0 floods rank 1 with `count` parcels of
/// `payload` bytes; returns parcels/s in virtual time.
fn parcel_rate(count: usize, payload: usize) -> f64 {
    let mut reg = ActionRegistry::new();
    let seen = Arc::new(AtomicU64::new(0));
    let seen2 = Arc::clone(&seen);
    let sink = reg.register("sink", move |_ctx, _payload| {
        seen2.fetch_add(1, Ordering::Relaxed);
        None
    });
    let cfg = RtConfig { workers: 1, ..RtConfig::default() };
    let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, reg);
    let body = vec![0u8; payload];
    let n0 = c.node(0);
    for _ in 0..count {
        n0.send_parcel(1, sink, &body).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen.load(Ordering::Relaxed) < count as u64 {
        assert!(Instant::now() < deadline, "parcels never drained");
        std::thread::yield_now();
    }
    let t_ns = c.node(1).photon().now().as_nanos();
    c.shutdown();
    count as f64 / (t_ns as f64 / 1e9)
}

/// The closest two-sided equivalent: tag-matched message flood.
fn msg_flood_rate(count: usize, payload: usize) -> f64 {
    let c = MsgCluster::new(2, NetworkModel::ib_fdr(), MsgConfig::default());
    let (e0, e1) = (c.rank(0), c.rank(1));
    let body = vec![0u8; payload];
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..count as u64 {
                e0.send(1, &body, i).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..count as u64 {
                e1.recv(Some(0), Some(i)).unwrap();
            }
        });
    });
    count as f64 / (c.rank(1).now().as_nanos() as f64 / 1e9)
}

/// Run E8c.
pub fn run_parcel_rate() -> Table {
    let mut t = Table::new(
        "e8c",
        "parcel delivery rate vs payload (Mparcels/s)",
        &["payload", "runtime_over_photon", "baseline_msg_flood"],
    );
    // The 64 KiB row is a large parcel (announce, then the receiver's get);
    // its smaller count keeps the sender's staged memory modest.
    for (payload, count) in [(16usize, 3000), (256, 3000), (4096, 3000), (64 * 1024, 300)] {
        t.row(vec![
            size_label(payload),
            mops(parcel_rate(count, payload)),
            mops(msg_flood_rate(count, payload)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn gups_runs_and_reports_positive_rate() {
        let r = super::gups(2, 500, 1 << 10);
        assert!(r > 0.0);
    }

    #[test]
    fn stencil_scales_gently() {
        let t2 = super::photon_stencil_ns_per_iter(2, 5);
        let t8 = super::photon_stencil_ns_per_iter(8, 5);
        // Weak scaling: 4x the ranks should cost far less than 4x per iter.
        assert!(t8 < 3 * t2, "t2={t2} t8={t8}");
    }

    #[test]
    fn parcel_rate_positive_and_baseline_comparable() {
        let p = super::parcel_rate(500, 64);
        let b = super::msg_flood_rate(500, 64);
        assert!(p > 0.0 && b > 0.0);
    }
}
