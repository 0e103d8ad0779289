//! `parcel_gups_sim`: the GUPS shape through `photon-runtime`.
//!
//! A 2-rank `RuntimeCluster` (one worker per rank, coalescing off); the
//! driver fires 16-byte xor-update parcels at rank 1 with `send_parcel` in
//! chunks of 20 000, calls `flush_parcels`, then waits until rank 1's
//! applied counter catches up. Parcel encode, scheduler hand-off and action
//! dispatch do most of the work, so this guards the runtime against
//! core/obs/membership changes aimed elsewhere.
//!
//! A chunk takes ~40 ms, so a 0.5 s segment holds a dozen whole ones (the
//! meter is only consulted between chunks).

use super::{OpTable, Tally, Workload, SAMPLE_EVERY};
use crate::meter::Meter;
use crate::trace::{Clock, Sp, Tracer};
use photon_core::{BackendKind, StatsSnapshot};
use photon_fabric::NetworkModel;
use photon_runtime::runtime::RtStats;
use photon_runtime::{ActionId, ActionRegistry, RtConfig, RuntimeCluster};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CHUNK: u64 = 20_000;
/// Update-table words on rank 1 (512 KiB: cache-resident, as in GUPS runs
/// that measure the messaging path rather than DRAM).
const TABLE_WORDS: usize = 65_536;
/// Latency stamps per chunk: one parcel in `SAMPLE_EVERY`, so the sampled
/// parcels of any `CHUNK` consecutive sequence numbers get distinct slots.
const STAMPS: usize = (CHUNK / SAMPLE_EVERY) as usize + 1;

#[inline]
fn stamp_slot(seq: u64) -> usize {
    (seq / SAMPLE_EVERY) as usize % STAMPS
}

#[inline]
fn index_of(val: u64) -> usize {
    (val >> 20) as usize % TABLE_WORDS
}

/// What the action handler on rank 1 updates.
struct Target {
    clock: Clock,
    table: Vec<AtomicU64>,
    applied: AtomicU64,
    /// When the handler ran, for the sampled parcels of the current chunk.
    applied_at: Vec<AtomicU64>,
}

pub struct Gups {
    cluster: RuntimeCluster,
    action: ActionId,
    target: Arc<Target>,
    /// The driver's own copy of the update table, kept in step with what it
    /// sent; rank 1's table must equal it at the end.
    mirror: Vec<u64>,
    sent: u64,
    posted_at: Vec<u64>,
    tally: Tally,
}

impl Gups {
    fn send_chunk<T: Tracer>(&mut self, n: u64, table: &OpTable, tr: &mut T, m: &mut Meter) {
        let node = self.cluster.node(0);
        let base = self.sent;
        let mut payload = [0u8; 16];
        let mut refused = 0u64;
        for seq in base..base + n {
            let val = table.word(seq);
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            payload[8..].copy_from_slice(&val.to_le_bytes());
            if seq.is_multiple_of(SAMPLE_EVERY) {
                self.posted_at[stamp_slot(seq)] = m.now_ns();
            }
            match tr.call(Sp::RtSendParcel, 0, seq, || node.send_parcel(1, self.action, &payload)) {
                Ok(()) => self.mirror[index_of(val)] ^= val,
                Err(e) => {
                    refused += 1;
                    eprintln!("{}: parcel {seq} refused: {e}", Self::NAME);
                }
            }
        }
        self.sent += n;
        self.tally.attempted += n;
        self.tally.failed += refused;
        if let Err(e) = tr.call(Sp::RtFlush, 0, base, || node.flush_parcels()) {
            eprintln!("{}: flush failed: {e}", Self::NAME);
        }

        // The driver now waits on rank 1's progress thread and worker. It
        // yields rather than spins: on two cores a spinning waiter takes a
        // core from the threads it is waiting for.
        let want = self.sent - self.tally.failed;
        let target = &self.target;
        let clock = m.clock;
        let caught_up = tr.call(Sp::RtDrainWait, 1, base, || {
            let deadline = clock.now_ns() + 30_000_000_000;
            while target.applied.load(Ordering::Acquire) < want {
                if clock.now_ns() > deadline {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        });
        if !caught_up {
            let missing = want - self.target.applied.load(Ordering::Acquire);
            eprintln!("{}: {missing} parcels not applied after 30 s", Self::NAME);
            self.tally.failed += missing;
            return;
        }
        let first = base.next_multiple_of(SAMPLE_EVERY);
        for seq in (first..base + n).step_by(SAMPLE_EVERY as usize) {
            let k = stamp_slot(seq);
            let (t0, t1) = (self.posted_at[k], self.target.applied_at[k].load(Ordering::Relaxed));
            m.latency(t1.saturating_sub(t0));
            tr.op(seq, t0, t1);
        }
        self.tally.completed += n - refused;
        m.complete(n - refused, 16 * (n - refused));
    }
}

impl Workload for Gups {
    const NAME: &'static str = "parcel_gups_sim";
    const BACKEND: BackendKind = BackendKind::Sim;

    fn setup<T: Tracer>(table: &OpTable, clock: Clock, tr: &mut T) -> Self {
        let target = Arc::new(Target {
            // The handler stamps with the same clock the meter reads, so
            // post→apply differences mean something.
            clock,
            table: (0..TABLE_WORDS).map(|_| AtomicU64::new(0)).collect(),
            applied: AtomicU64::new(0),
            applied_at: (0..STAMPS).map(|_| AtomicU64::new(0)).collect(),
        });
        let mut registry = ActionRegistry::new();
        let t = Arc::clone(&target);
        let action = registry.register("gups_xor_update", move |_ctx, payload| {
            let seq = u64::from_le_bytes(payload[..8].try_into().expect("16-byte parcel"));
            let val = u64::from_le_bytes(payload[8..16].try_into().expect("16-byte parcel"));
            t.table[index_of(val)].fetch_xor(val, Ordering::Relaxed);
            if seq.is_multiple_of(SAMPLE_EVERY) {
                t.applied_at[stamp_slot(seq)].store(t.clock.now_ns(), Ordering::Relaxed);
            }
            t.applied.fetch_add(1, Ordering::Release);
            None
        });
        let cfg = RtConfig { workers: 1, coalesce_max: 0, ..RtConfig::default() };
        let cluster = tr.call(Sp::RtBoot, 0, 0, || {
            RuntimeCluster::new(2, NetworkModel::ideal(), cfg, registry)
        });
        let mut w = Gups {
            cluster,
            action,
            target,
            mirror: vec![0; TABLE_WORDS],
            sent: 0,
            posted_at: vec![0; STAMPS],
            tally: Tally::default(),
        };
        // One parcel end to end: first contact makes the connection.
        let mut m = Meter::new(clock, 0.0, 0.0);
        w.send_chunk(1, table, &mut crate::trace::NoTrace, &mut m);
        w
    }

    fn run<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) {
        while m.tick(m.now_ns()) {
            self.send_chunk(CHUNK, table, tr, m);
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn core_stats(&self) -> [StatsSnapshot; 2] {
        let p = self.cluster.photon();
        [p.rank(0).stats(), p.rank(1).stats()]
    }

    fn verify(&mut self, _table: &OpTable) -> Vec<String> {
        let mut misses = Vec::new();
        let (applied, want) = (self.target.applied.load(Ordering::Acquire), self.tally.completed);
        if applied != want {
            misses.push(format!("rank 1 applied {applied} parcels, {want} were accepted"));
        }
        let differing = self
            .mirror
            .iter()
            .zip(&self.target.table)
            .filter(|(m, t)| **m != t.load(Ordering::Relaxed))
            .count();
        if differing > 0 {
            misses.push(format!("{differing} of {TABLE_WORDS} table words differ from the mirror"));
        }
        let checksum = |it: &mut dyn Iterator<Item = u64>| it.fold(0u64, |a, v| a ^ v);
        let (got, exp) = (
            checksum(&mut self.target.table.iter().map(|t| t.load(Ordering::Relaxed))),
            checksum(&mut self.mirror.iter().copied()),
        );
        if got != exp {
            misses.push(format!("xor checksum {got:#x}, want {exp:#x}"));
        }
        let failed = self.cluster.node(0).stats().parcels_failed;
        if failed > 0 {
            misses.push(format!("runtime counted {failed} failed parcels"));
        }
        misses
    }

    fn rt_stats(&self) -> Option<RtStats> {
        Some(self.cluster.node(0).stats())
    }

    fn teardown<T: Tracer>(self, tr: &mut T) {
        tr.call(Sp::RtShutdown, 0, 0, || self.cluster.shutdown());
    }
}
