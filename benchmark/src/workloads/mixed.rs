//! `mixed_rw_sim`: a seeded table of puts (50 %), gets (40 %) and
//! fetch-adds (10 %) at 8 B / 1 KiB / 64 KiB, window 16, sim backend.
//!
//! Reads beside writes and per-byte beside per-op cost, through the same
//! `core` entry points as `put8_w16_sim`. A change that folds `put` into
//! `put_many(k=1)`, pools buffers or caches registrations may help the 8 B
//! put and tax gets, large transfers or atomics; this is where that shows,
//! and where `goodput_MBps` is decided.

use super::{mix, Class, OpTable, RidSet, Tally, Workload, SAMPLE_EVERY, WINDOW};
use crate::meter::Meter;
use crate::trace::{Clock, Sp, Tracer, POST_CLASSES};
use photon_core::{
    BackendKind, Completion, Photon, PhotonBuffer, PhotonCluster, PhotonConfig, ProbeFlags,
    StatsSnapshot,
};
use photon_fabric::{NetworkModel, RemoteKey};
use std::sync::Arc;

const SLOT: usize = 65_536;
/// The get source on rank 1: any 64 KiB read at an offset below 64 KiB fits.
const PATTERN_LEN: usize = 2 * SLOT;

/// What the get-source pattern holds in the 8 bytes at `off` (8-aligned).
#[inline]
fn pattern(seed: u64, off: usize) -> u64 {
    mix(seed ^ off as u64)
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    rid: u64,
    class: u8,
    /// Completions still owed: puts need local + remote, the rest local.
    pending: u8,
    /// Source offset of a get.
    soff: u32,
    /// Post time when the op is a latency sample, else 0.
    t_post: u64,
}

pub struct Mixed {
    p0: Arc<Photon>,
    p1: Arc<Photon>,
    /// Rank 0: put sources, get landing zones, fetched old values.
    src: PhotonBuffer,
    land: PhotonBuffer,
    old: PhotonBuffer,
    /// Rank 1: put destinations, the get source pattern, the counter cell.
    dst: PhotonBuffer,
    pat: PhotonBuffer,
    cell: PhotonBuffer,
    dst_key: RemoteKey,
    pat_key: RemoteKey,
    cell_key: RemoteKey,
    _cluster: PhotonCluster,
    seed: u64,
    next: u64,
    slots: [Slot; WINDOW],
    free: Vec<u8>,
    /// Op index and length of the last put into each destination slot
    /// (length 0 = none yet).
    last_put: [(u64, usize); WINDOW],
    /// A slot whose source was stamped for a put that was then refused: its
    /// source bytes no longer match what the destination last received.
    stale_src: Option<usize>,
    posted_puts: RidSet,
    remote: RidSet,
    posted_all: RidSet,
    local: RidSet,
    atomics: u64,
    old_sum: u64,
    events: Vec<Completion>,
    tally: Tally,
}

/// rid = op index × 16 + slot: unique per op, and the completion names the
/// slot without a lookup.
#[inline]
fn slot_of(rid: u64) -> usize {
    rid as usize % WINDOW
}

impl Mixed {
    #[inline]
    fn post<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) -> bool {
        let Some(&slot) = self.free.last() else { return false };
        let slot = slot as usize;
        let (i, class) = (self.next, table.class(self.next));
        let (rid, len, base) = (i * WINDOW as u64 + slot as u64, class.bytes(), slot * SLOT);
        let word = table.word(i);
        let sp = POST_CLASSES[class as usize].0;
        let t_post = if i.is_multiple_of(SAMPLE_EVERY) { m.now_ns() } else { 0 };
        let (p0, src, land, old) = (&self.p0, &self.src, &self.land, &self.old);
        let mut soff = 0usize;
        let posted = match class {
            Class::Put8 | Class::Put1024 | Class::Put65536 => {
                // The payload is the slot's fill pattern with this op's
                // word stamped at its head and (inverted) at its tail.
                src.write_u64(base, word);
                src.write_u64(base + len - 8, !word);
                self.tally.post_attempts += 1;
                let key = &self.dst_key;
                tr.call(sp, 0, rid, || {
                    p0.try_put_with_completion(1, src, base, len, key, base, rid, rid)
                })
            }
            Class::Get8 | Class::Get1024 | Class::Get65536 => {
                soff = (word as usize % SLOT) & !7;
                let key = &self.pat_key;
                tr.call(sp, 0, rid, || p0.get_with_completion(1, land, base, len, key, soff, rid))
                    .map(|()| true)
            }
            Class::Atomic8 => {
                let key = &self.cell_key;
                tr.call(sp, 0, rid, || p0.atomic_fetch_add(1, old, slot * 8, key, 0, 1, rid))
                    .map(|()| true)
            }
        };
        match posted {
            Ok(true) => {}
            Ok(false) => {
                self.tally.stalls += 1;
                self.stale_src = Some(slot);
                return false;
            }
            Err(e) => {
                self.tally.attempted += 1;
                self.tally.failed += 1;
                self.stale_src = Some(slot);
                eprintln!("{}: op {i} ({class:?}) failed: {e}", Self::NAME);
                return false;
            }
        }
        self.free.pop();
        self.next += 1;
        self.tally.attempted += 1;
        self.posted_all.add(rid);
        let is_put = (class as u8) < Class::Get8 as u8;
        if is_put {
            self.posted_puts.add(rid);
            self.last_put[slot] = (i, len);
            if self.stale_src == Some(slot) {
                self.stale_src = None;
            }
        } else if class == Class::Atomic8 {
            self.atomics += 1;
        }
        self.slots[slot] =
            Slot { rid, class: class as u8, pending: 1 + is_put as u8, soff: soff as u32, t_post };
        true
    }

    /// One completion for `rid` arrived; retire the op when it was the last.
    #[inline]
    fn arrived<T: Tracer>(
        &mut self,
        rid: u64,
        ok: bool,
        table: &OpTable,
        tr: &mut T,
        m: &mut Meter,
    ) {
        let slot = slot_of(rid);
        let s = &mut self.slots[slot];
        if s.rid != rid || s.pending == 0 {
            self.tally.failed += 1;
            eprintln!("{}: completion for rid {rid:#x} matches no op in flight", Self::NAME);
            return;
        }
        s.pending -= 1;
        self.tally.failed += !ok as u64;
        if s.pending > 0 {
            return;
        }
        let s = *s;
        let class = Class::ALL[s.class as usize];
        let (len, base) = (class.bytes(), slot * SLOT);
        let word = table.word(rid / WINDOW as u64);
        let good = match class {
            Class::Put8 | Class::Put1024 | Class::Put65536 => {
                self.dst.read_u64(base) == if len == 8 { !word } else { word }
                    && self.dst.read_u64(base + len - 8) == !word
                    // Sampled ops compare every byte; the source slot is
                    // still this op's until it retires.
                    && (s.t_post == 0
                        || self.src.region().with_bytes(|want| {
                            self.dst
                                .region()
                                .with_bytes(|got| got[base..base + len] == want[base..base + len])
                        }))
            }
            Class::Get8 | Class::Get1024 | Class::Get65536 => {
                let soff = s.soff as usize;
                self.land.read_u64(base) == pattern(self.seed, soff)
                    && self.land.read_u64(base + len - 8) == pattern(self.seed, soff + len - 8)
                    // Sampled ops compare every byte against the source.
                    && (s.t_post == 0
                        || self.land.region().with_bytes(|got| {
                            self.pat
                                .region()
                                .with_bytes(|want| got[base..base + len] == want[soff..soff + len])
                        }))
            }
            Class::Atomic8 => {
                let old = self.old.read_u64(slot * 8);
                self.old_sum = self.old_sum.wrapping_add(old);
                old < self.atomics
            }
        };
        self.free.push(slot as u8);
        if good && ok {
            self.tally.completed += 1;
            m.complete(1, len as u64);
        } else {
            self.tally.failed += !good as u64;
        }
        if s.t_post != 0 {
            let t1 = m.now_ns();
            m.latency(t1 - s.t_post);
            tr.op(rid, s.t_post, t1);
        }
    }

    #[inline]
    fn step<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter, posting: bool) {
        while posting && self.post(table, tr, m) {}

        // `arrived` needs `&mut self`, so completions are copied out as
        // (rid, ok) pairs first; the array lives on the stack.
        let mut seen = [(0u64, false); 128];
        for (sp, rank, flags, max) in [
            (Sp::CorePollRemote, 1u8, ProbeFlags::Remote, 64usize),
            (Sp::CorePollLocal, 0u8, ProbeFlags::Local, 128usize),
        ] {
            self.events.clear();
            let (p, events) = (if rank == 1 { &self.p1 } else { &self.p0 }, &mut self.events);
            let n = tr.call_n(sp, rank, || p.poll_completions(flags, events, max).expect("poll"));
            self.tally.poll(n);
            for (dst, c) in seen.iter_mut().zip(&self.events) {
                *dst = (c.rid, c.is_ok());
                if rank == 1 {
                    self.remote.add(c.rid)
                } else {
                    self.local.add(c.rid)
                }
            }
            for &(rid, ok) in &seen[..n] {
                self.arrived(rid, ok, table, tr, m);
            }
        }
    }

    fn drain<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) {
        let deadline = m.now_ns() + 10_000_000_000;
        while self.free.len() < WINDOW {
            self.step(table, tr, m, false);
            if m.now_ns() > deadline {
                self.tally.failed += (WINDOW - self.free.len()) as u64;
                eprintln!("{}: completions missing after 10 s", Self::NAME);
                return;
            }
        }
    }
}

impl Workload for Mixed {
    const NAME: &'static str = "mixed_rw_sim";
    const BACKEND: BackendKind = BackendKind::Sim;

    fn setup<T: Tracer>(table: &OpTable, clock: Clock, tr: &mut T) -> Self {
        let cluster = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        let (p0, p1) = (Arc::clone(cluster.rank(0)), Arc::clone(cluster.rank(1)));
        let mut reg = |p: &Arc<Photon>, rank: u8, len: usize| {
            tr.call(Sp::CoreRegisterBuffer, rank, 0, || p.register_buffer(len)).expect("register")
        };
        let src = reg(&p0, 0, WINDOW * SLOT);
        let land = reg(&p0, 0, WINDOW * SLOT);
        let old = reg(&p0, 0, WINDOW * 8);
        let dst = reg(&p1, 1, WINDOW * SLOT);
        let pat = reg(&p1, 1, PATTERN_LEN);
        let cell = reg(&p1, 1, 8);
        let seed = table.seed;
        src.region().with_bytes_mut(|b| {
            for (k, chunk) in b.chunks_exact_mut(8).enumerate() {
                chunk.copy_from_slice(&mix(!seed ^ k as u64).to_le_bytes());
            }
        });
        pat.region().with_bytes_mut(|b| {
            for (k, chunk) in b.chunks_exact_mut(8).enumerate() {
                chunk.copy_from_slice(&pattern(seed, k * 8).to_le_bytes());
            }
        });
        let mut w = Mixed {
            dst_key: dst.descriptor(),
            pat_key: pat.descriptor(),
            cell_key: cell.descriptor(),
            p0,
            p1,
            src,
            land,
            old,
            dst,
            pat,
            cell,
            _cluster: cluster,
            seed,
            next: 0,
            slots: [Slot::default(); WINDOW],
            free: (0..WINDOW as u8).rev().collect(),
            last_put: [(0, 0); WINDOW],
            stale_src: None,
            posted_puts: RidSet::default(),
            remote: RidSet::default(),
            posted_all: RidSet::default(),
            local: RidSet::default(),
            atomics: 0,
            old_sum: 0,
            events: Vec::with_capacity(128),
            tally: Tally::default(),
        };
        let mut m = Meter::new(clock, 0.0, 0.0);
        let mut quiet = crate::trace::NoTrace;
        w.post(table, &mut quiet, &mut m);
        w.drain(table, &mut quiet, &mut m);
        w
    }

    fn run<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) {
        while m.tick(m.now_ns()) {
            self.step(table, tr, m, true);
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
        if self.remote != self.posted_puts {
            misses.push(format!(
                "remote completions {:?} != accepted puts {:?}",
                self.remote, self.posted_puts
            ));
        }
        if self.local != self.posted_all {
            misses.push(format!(
                "local completions {:?} != accepted ops {:?}",
                self.local, self.posted_all
            ));
        }
        // Every destination slot carries the stamps of the last put into
        // it and equals, byte for byte, that payload (which its source slot
        // still holds, unless a refused put re-stamped it since).
        self.src.region().with_bytes(|src| {
            self.dst.region().with_bytes(|dst| {
                for (slot, &(i, len)) in self.last_put.iter().enumerate() {
                    if len == 0 {
                        continue;
                    }
                    let r = slot * SLOT..slot * SLOT + len;
                    let word = table.word(i);
                    let head = if len == 8 { !word } else { word };
                    let stamps_ok = dst[r.start..r.start + 8] == head.to_le_bytes()
                        && dst[r.end - 8..r.end] == (!word).to_le_bytes();
                    let bytes_ok = self.stale_src == Some(slot) || src[r.clone()] == dst[r];
                    if !(stamps_ok && bytes_ok) {
                        misses
                            .push(format!("dst slot {slot}: differs from its last {len}-byte put"));
                    }
                }
            })
        });
        // The counter saw every fetch-add exactly once: it equals their
        // number, and the old values handed back are 0..n in some order.
        let (cell, n) = (self.cell.read_u64(0), self.atomics);
        if cell != n {
            misses.push(format!("fetch-add cell is {cell}, {n} atomics completed"));
        }
        let want_sum = if n == 0 { 0 } else { (n - 1).wrapping_mul(n) / 2 };
        if n < (1 << 32) && self.old_sum != want_sum {
            misses.push(format!("fetched old values sum to {}, want {want_sum}", self.old_sum));
        }
        misses
    }
}
