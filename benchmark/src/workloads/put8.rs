//! `put8_w16_sim` / `put8_w16_sock`: 8-byte unbatched
//! `try_put_with_completion` at window 16.
//!
//! The smallest message, where per-op cost is everything. On the sim
//! backend `core` does nearly all the work, so this is the "unbatched
//! ceiling"; over sock the identical driver spends nearly all its time in
//! `fabric::sock`, so a core-only change predicts no change there and a
//! sock change predicts no change on `_sim`.

use super::{OpTable, RidSet, Tally, Workload, SAMPLE_EVERY, WINDOW};
use crate::meter::Meter;
use crate::trace::{Clock, Sp, Tracer};
use photon_core::{
    BackendKind, Completion, Photon, PhotonBuffer, PhotonCluster, PhotonConfig, ProbeFlags,
    StatsSnapshot,
};
use photon_fabric::{NetworkModel, RemoteKey};
use std::sync::Arc;

/// Outstanding latency samples: one op in `SAMPLE_EVERY` is stamped, so 64
/// slots cover 1024 ops in flight, far beyond the window.
const STAMPS: usize = 64;

pub struct Put8<const SOCK: bool> {
    // Field order is drop order: contexts and buffers go before the cluster
    // that owns the fabric.
    p0: Arc<Photon>,
    p1: Arc<Photon>,
    src: PhotonBuffer,
    dst: PhotonBuffer,
    dst_key: RemoteKey,
    _cluster: PhotonCluster,
    next: u64,
    local_done: u64,
    posted: RidSet,
    local: RidSet,
    remote: RidSet,
    events: Vec<Completion>,
    stamps: [u64; STAMPS],
    tally: Tally,
}

pub type Put8Sim = Put8<false>;
pub type Put8Sock = Put8<true>;

pub fn backend_config(backend: BackendKind) -> PhotonConfig {
    PhotonConfig { backend, ..PhotonConfig::default() }
}

impl<const SOCK: bool> Put8<SOCK> {
    /// Post up to `budget` ops while the window has room, then probe rank 1
    /// for deliveries and reap rank 0's local completions, once each.
    #[inline]
    fn step<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter, budget: u64) {
        let stop_at = self.next + budget;
        while self.next < stop_at && self.next - self.local_done < WINDOW as u64 {
            let rid = self.next;
            let off = (rid as usize % WINDOW) * 8;
            self.src.write_u64(off, table.word(rid));
            if rid.is_multiple_of(SAMPLE_EVERY) {
                self.stamps[(rid / SAMPLE_EVERY) as usize % STAMPS] = m.now_ns();
            }
            self.tally.post_attempts += 1;
            let (p0, src, key) = (&self.p0, &self.src, &self.dst_key);
            match tr.call(Sp::CorePostPut8, 0, rid, || {
                p0.try_put_with_completion(1, src, off, 8, key, off, rid, rid)
            }) {
                Ok(true) => {
                    self.tally.attempted += 1;
                    self.posted.add(rid);
                    self.next += 1;
                }
                Ok(false) => {
                    self.tally.stalls += 1;
                    break;
                }
                Err(e) => {
                    self.tally.attempted += 1;
                    self.tally.failed += 1;
                    eprintln!("{}: put {rid} failed: {e}", Self::NAME);
                    break;
                }
            }
        }

        self.events.clear();
        let (p1, events) = (&self.p1, &mut self.events);
        let n = tr.call_n(Sp::CorePollRemote, 1, || {
            p1.poll_completions(ProbeFlags::Remote, events, 64).expect("probe rank 1")
        });
        self.tally.poll(n);
        for c in &self.events {
            self.remote.add(c.rid);
            self.tally.failed += !c.is_ok() as u64;
            if c.rid.is_multiple_of(SAMPLE_EVERY) {
                let (t0, t1) = (self.stamps[(c.rid / SAMPLE_EVERY) as usize % STAMPS], m.now_ns());
                m.latency(t1 - t0);
                tr.op(c.rid, t0, t1);
            }
        }
        // An op counts when its data has been delivered and announced at
        // the target; the local completion below only frees the window.
        self.tally.completed += n as u64;
        m.complete(n as u64, 8 * n as u64);

        self.events.clear();
        let (p0, events) = (&self.p0, &mut self.events);
        let k = tr.call_n(Sp::CorePollLocal, 0, || {
            p0.poll_completions(ProbeFlags::Local, events, 128).expect("reap rank 0")
        });
        self.tally.poll(k);
        for c in &self.events {
            self.local.add(c.rid);
            self.tally.failed += !c.is_ok() as u64;
        }
        self.local_done += k as u64;
    }

    fn in_flight(&self) -> bool {
        self.local_done < self.next || self.remote.count() < self.next
    }

    /// Retire everything posted, with a wall-clock guard so a lost
    /// completion is a reported failure, not a hang.
    fn drain<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) {
        let deadline = m.now_ns() + 10_000_000_000;
        while self.in_flight() {
            self.step(table, tr, m, 0);
            if m.now_ns() > deadline {
                self.tally.failed += self.next - self.remote.count().min(self.next);
                eprintln!("{}: completions missing after 10 s", Self::NAME);
                return;
            }
        }
    }
}

impl<const SOCK: bool> Workload for Put8<SOCK> {
    const NAME: &'static str = if SOCK { "put8_w16_sock" } else { "put8_w16_sim" };
    const BACKEND: BackendKind = if SOCK { BackendKind::Sock } else { BackendKind::Sim };

    fn setup<T: Tracer>(table: &OpTable, clock: Clock, tr: &mut T) -> Self {
        let cluster = PhotonCluster::new(2, NetworkModel::ideal(), backend_config(Self::BACKEND));
        let (p0, p1) = (Arc::clone(cluster.rank(0)), Arc::clone(cluster.rank(1)));
        let src = tr
            .call(Sp::CoreRegisterBuffer, 0, 0, || p0.register_buffer(WINDOW * 8))
            .expect("register source");
        let dst = tr
            .call(Sp::CoreRegisterBuffer, 1, 0, || p1.register_buffer(WINDOW * 8))
            .expect("register destination");
        let mut w = Put8 {
            dst_key: dst.descriptor(),
            p0,
            p1,
            src,
            dst,
            _cluster: cluster,
            next: 0,
            local_done: 0,
            posted: RidSet::default(),
            local: RidSet::default(),
            remote: RidSet::default(),
            events: Vec::with_capacity(128),
            stamps: [0; STAMPS],
            tally: Tally::default(),
        };
        // One op end to end: the connection to the peer is made on first
        // contact, and set-up time should include it.
        let mut m = Meter::new(clock, 0.0, 0.0);
        let mut quiet = crate::trace::NoTrace;
        w.step(table, &mut quiet, &mut m, 1);
        w.drain(table, &mut quiet, &mut m);
        w
    }

    fn run<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) {
        while m.tick(m.now_ns()) {
            self.step(table, tr, m, WINDOW as u64);
        }
        self.drain(table, tr, m);
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn core_stats(&self) -> [StatsSnapshot; 2] {
        [self.p0.stats(), self.p1.stats()]
    }

    fn verify(&mut self, table: &OpTable) -> Vec<String> {
        let mut misses = Vec::new();
        if self.remote != self.posted {
            misses.push(format!(
                "remote completions {:?} != accepted puts {:?}",
                self.remote, self.posted
            ));
        }
        if self.local != self.posted {
            misses.push(format!(
                "local completions {:?} != accepted puts {:?}",
                self.local, self.posted
            ));
        }
        // Every destination slot holds the last payload written to it.
        for slot in 0..(WINDOW as u64).min(self.next) {
            let last = (self.next - 1 - slot) / WINDOW as u64 * WINDOW as u64 + slot;
            let (got, want) = (self.dst.read_u64(slot as usize * 8), table.word(last));
            if got != want {
                misses.push(format!("dst slot {slot}: {got:#x}, last put {last} wrote {want:#x}"));
            }
        }
        misses
    }
}
