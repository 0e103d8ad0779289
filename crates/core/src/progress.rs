//! Dedicated progress threads (see DESIGN.md, "Progress engine").
//!
//! When [`PhotonConfig::progress_threads`](crate::PhotonConfig) is non-zero,
//! a [`PhotonCluster`](crate::PhotonCluster) spawns that many threads that
//! continuously run the completion engine on behalf of every rank: shard 0
//! also harvests the fabric completion queues, and each thread polls the
//! peers hashed to it ([`Photon::peer_shard`]). Callers' `wait_*` / `poll_*`
//! paths then become *consumers* of the sharded completion queues — a probe
//! that finds its event already harvested pays one shard lookup and no
//! progress work at all.
//!
//! Inline progress is the default (`progress_threads = 0`) and always stays
//! *possible*: callers keep help-pumping through [`Photon::progress`] even
//! in threaded mode, so the engine can never be slower than the inline
//! build, only less contended. Determinism-sensitive users (simtest's
//! schedule replay) simply leave the knob at zero. Correctness under the
//! extra concurrency rests on the per-peer receive locks (one poller per
//! peer at a time, bounded-skip arbitration), the completion table's
//! generation check (exactly-once CQE retirement), and credit returns
//! serialized under the receive lock (absolute counters stay monotone).

use crate::conn::Conn;
use crate::photon::Photon;
use crate::Rank;
use photon_fabric::verbs::Completion as Cqe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Consecutive idle passes before a thread starts yielding.
const IDLE_YIELD_AFTER: u32 = 64;
/// Consecutive idle passes before a thread parks between passes. Parking
/// matters on small hosts: an idle progress thread must not steal cycles
/// from the application thread it is trying to serve.
const IDLE_PARK_AFTER: u32 = 256;
/// How long an idle thread parks per pass once fully backed off.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Handle owning a cluster's progress threads. Dropping a
/// [`PhotonCluster`](crate::PhotonCluster) stops and joins them before any
/// rank's state is torn down.
#[derive(Debug)]
pub(crate) struct ProgressEngine {
    shutdown: Arc<AtomicBool>,
    ranks: Vec<Arc<Photon>>,
    handles: Vec<JoinHandle<()>>,
}

impl ProgressEngine {
    /// Spawn `threads` progress threads serving every rank in `ranks`.
    /// Returns `None` when `threads == 0` (inline progress).
    pub(crate) fn spawn(ranks: &[Arc<Photon>], threads: usize) -> Option<ProgressEngine> {
        if threads == 0 {
            return None;
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        for p in ranks {
            p.set_threads_active(true);
        }
        let handles = (0..threads)
            .map(|shard| {
                let shutdown = Arc::clone(&shutdown);
                let ranks: Vec<Arc<Photon>> = ranks.to_vec();
                std::thread::Builder::new()
                    .name(format!("photon-progress-{shard}"))
                    .spawn(move || run(&ranks, shard, threads, &shutdown))
                    .expect("spawn progress thread")
            })
            .collect();
        Some(ProgressEngine { shutdown, ranks: ranks.to_vec(), handles })
    }

    /// Stop and join every thread; idempotent. Probe paths fall back to
    /// inline progress the moment the active flags clear.
    pub(crate) fn stop(&mut self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            for p in &self.ranks {
                p.set_threads_active(false);
            }
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One progress thread's main loop: sweep every rank's shard, backing off
/// (yield, then park) across consecutive all-idle sweeps so an idle engine
/// costs (almost) nothing.
fn run(ranks: &[Arc<Photon>], shard: usize, nshards: usize, shutdown: &AtomicBool) {
    let mut scratch: Vec<Cqe> = Vec::new();
    let mut conns: Vec<Arc<Conn>> = Vec::new();
    let mut idle: u32 = 0;
    while !shutdown.load(Ordering::Acquire) {
        let mut work = 0usize;
        for p in ranks {
            work += p.progress_shard(shard, nshards, &mut scratch, &mut conns);
        }
        if work > 0 {
            idle = 0;
            continue;
        }
        idle = idle.saturating_add(1);
        if idle >= IDLE_PARK_AFTER {
            std::thread::park_timeout(IDLE_PARK);
        } else if idle >= IDLE_YIELD_AFTER {
            std::thread::yield_now();
        }
    }
}

/// The peer→shard map is total: every peer is owned by exactly one shard.
#[allow(dead_code)]
fn shards_cover_all_peers(n: Rank, nshards: usize) -> bool {
    (0..n).all(|j| Photon::peer_shard(j, nshards) < nshards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhotonCluster, PhotonConfig};
    use photon_fabric::NetworkModel;

    #[test]
    fn peer_shard_is_total_and_stable() {
        for nshards in 1..=8 {
            assert!(shards_cover_all_peers(64, nshards));
            for j in 0..64 {
                assert_eq!(
                    Photon::peer_shard(j, nshards),
                    Photon::peer_shard(j, nshards),
                    "assignment must be deterministic"
                );
            }
        }
        // With one shard everything maps to it (the single-thread engine
        // serves every peer).
        assert!((0..64).all(|j| Photon::peer_shard(j, 1) == 0));
    }

    #[test]
    fn engine_spawns_and_stops_cleanly() {
        let cfg = PhotonConfig::builder().progress_threads(2).build().unwrap();
        let cluster = PhotonCluster::new(2, NetworkModel::ib_fdr(), cfg);
        let p0 = cluster.rank(0);
        let p1 = cluster.rank(1);
        let dst = p1.register_buffer(64).unwrap();
        let src = p0.register_buffer(64).unwrap();
        src.write_at(0, b"threaded");
        p0.put_with_completion(1, &src, 0, 8, &dst.descriptor(), 0, 7, 99).unwrap();
        p0.wait_local(7).unwrap();
        let c = p1.wait_completion().unwrap();
        assert!(c.is_remote(), "expected remote completion, got {c:?}");
        assert_eq!(c.rid, 99);
        assert_eq!(dst.to_vec(0, 8), b"threaded");
        drop(cluster); // joins the threads; must not hang or panic
    }

    #[test]
    fn zero_threads_means_no_engine() {
        assert!(ProgressEngine::spawn(&[], 0).is_none());
    }
}
