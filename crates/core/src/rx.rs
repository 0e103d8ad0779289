//! The RX path and the progress entry point: CQE harvest and retire,
//! per-peer ledger / eager-ring polling, and routing of what is found into
//! the completion queues.

use crate::conn::Conn;
use crate::eager::{EagerFrame, FrameKind};
use crate::ledger::{Entry, EntryKind, ENTRY_BYTES};
use crate::obs::{OpKind, Stats};
use crate::photon::{MrCache, Photon, CQ_HARVEST_BATCH, RX_SKIP_LIMIT};
use crate::probe::{rid_space, Completion};
use crate::{PhotonError, Rank, Result};
use photon_fabric::api::{Access, Completion as Cqe, MemoryRegion, RemoteKey, VTime};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Photon {
    // ------------------------------------------------------------- probing

    /// Advance the engine: harvest fabric completions and scan all peers'
    /// ledgers and eager rings, routing what is found.
    ///
    /// The entire pass is gated on one atomic flag: when another thread is
    /// mid-pass this call is a no-op, because the active pass harvests
    /// everything pending (including this caller's completions) and every
    /// progress caller either spins (blocking loops) or retries by contract
    /// (the polling probe APIs). Convoying all spinning waiters through the
    /// CQ locks and per-peer region reads costs far more than the skipped
    /// pass is worth — a pass over idle queues is pure coherence traffic.
    pub fn progress(&self) -> Result<()> {
        if self
            .progress_gate
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return Ok(());
        }
        let res = self.progress_pass();
        self.progress_gate.store(false, Ordering::Release);
        res
    }

    /// Fill `out` with a snapshot of the live connections, sorted by peer
    /// rank: progress passes only touch peers we have actually spoken to
    /// (the lazy cache's whole point), and the stable order keeps the
    /// single-threaded simulator deterministic.
    fn snapshot_conns(&self, out: &mut Vec<Arc<Conn>>) {
        out.clear();
        out.extend(self.conns.read().values().cloned());
        out.sort_unstable_by_key(|c| c.peer);
    }

    /// Retire a harvested slice of send CQEs into local events: each CQE
    /// surfaces every rid its wr carries (all of a doorbell run's, whose
    /// sources became reusable when the run was staged). Retiring a CQE is
    /// one sharded-slab lookup; a stale or unsignaled wr_id simply misses.
    /// Exactly-once is guaranteed by the table's generation check, not by a
    /// global lock pairing, so the gated progress pass and an eviction
    /// flush can retire concurrently.
    fn retire_send_cqes(&self, cqes: &[Cqe]) {
        for c in cqes {
            self.wr_table.retire(c.wr_id, |peer, rids| {
                for &rid in rids {
                    self.obs.op_inject(rid, c.ts);
                }
                self.local_events.push_many(rids, peer, c.ts, c.status);
                Stats::add(&self.stats.local_completions, rids.len() as u64);
            });
        }
    }

    /// Route a harvested slice of recv CQEs (immediate-data completions)
    /// into remote events.
    fn retire_recv_cqes(&self, cqes: &[Cqe]) {
        for c in cqes {
            if let photon_fabric::verbs::CompletionKind::ImmDone { src, len, imm } = c.kind {
                self.deliver_remote(src, imm, OpKind::PutDirect, len, None, c.ts, |ev| {
                    self.remote_events.push(ev)
                });
            }
        }
    }

    /// Retire every send CQE currently in the queue into local events,
    /// harvesting through the recycled scratch buffer (no per-pass heap
    /// allocation).
    pub(crate) fn harvest_send_cq(&self) {
        let mut buf = self.cq_scratch.lock();
        buf.clear();
        if self.nic.poll_send_cq_into(CQ_HARVEST_BATCH, &mut buf) > 0 {
            self.retire_send_cqes(&buf);
        }
    }

    fn progress_pass(&self) -> Result<()> {
        self.harvest_send_cq();
        if self.cfg.imm_completions {
            let mut buf = self.cq_scratch.lock();
            buf.clear();
            if self.nic.poll_recv_cq_into(CQ_HARVEST_BATCH, &mut buf) > 0 {
                self.retire_recv_cqes(&buf);
            }
        }
        // The scratch mutex is uncontended here: progress_pass is
        // single-flight behind progress_gate.
        let mut conns = self.conn_scratch.lock();
        self.snapshot_conns(&mut conns);
        for conn in conns.iter() {
            self.poll_peer(conn)?;
        }
        Ok(())
    }

    /// Scan one peer's completion ledger and eager ring, routing everything
    /// pending.
    pub(crate) fn poll_peer(&self, conn: &Arc<Conn>) -> Result<()> {
        let j = conn.peer;
        // If another thread is already polling this peer, usually skip: the
        // holder harvests everything pending, and every caller of progress()
        // either re-polls on its next spin (blocking loops) or is a polling
        // API the caller retries by contract. Waiting here would convoy
        // every spinning waiter behind one receive lock. The skip is
        // *bounded*, though: the gated pass is not the only poller — an
        // eviction (`disconnect_locked`) drains both halves of a pair
        // outside the gate — so a persistently contended lock could
        // otherwise starve the peer's service, and after `RX_SKIP_LIMIT`
        // consecutive skips the caller blocks and takes a turn (pinned by
        // `bounded_rx_skip_forces_a_blocking_lock`).
        let mut rx = match conn.rx.try_lock() {
            Some(g) => {
                conn.rx_skips.store(0, Ordering::Relaxed);
                g
            }
            None => {
                if conn.rx_skips.fetch_add(1, Ordering::Relaxed) + 1 < RX_SKIP_LIMIT {
                    Stats::bump(&self.stats.rx_lock_skips);
                    return Ok(());
                }
                conn.rx_skips.store(0, Ordering::Relaxed);
                Stats::bump(&self.stats.rx_lock_waits);
                conn.rx.lock()
            }
        };
        // Credit returns are *coalesced* across the whole pass: every time
        // an interval fires we capture the latest `(consumed, cursor)` pair,
        // but only the final capture is written. The end state the producer
        // sees is identical to writing at every firing (each capture
        // dominates its predecessors), with one RDMA write per peer per
        // pass instead of one per interval.
        let mut credit: Option<(u64, u64)> = None;
        // Completion-ledger entries. Routing happens *under* the per-peer
        // receive lock (held across the whole pass): cursor advance and
        // event delivery must be atomic, or two concurrently probing threads
        // could publish a peer's events out of order (and mis-order
        // eager-put copy-outs).
        loop {
            let n = conn.svc.with_bytes(|b| {
                let rx = &mut *rx;
                let mut n = 0usize;
                loop {
                    let off = rx.ledger.head_offset();
                    let Some(e) = rx.ledger.accept(&b[off..off + ENTRY_BYTES]) else { break };
                    self.route_entry(j, e, &mut rx.ev_scratch);
                    n += 1;
                }
                n
            });
            if n == 0 {
                break;
            }
            // `credit_due` is a stateful threshold check against the total
            // consumed count, so one check per drained batch fires iff a
            // per-entry check would have fired somewhere inside it — and
            // captures an even fresher cursor.
            if rx.ledger.credit_due().is_some() {
                credit = Some((rx.ledger.consumed(), rx.ring.cursor()));
            }
        }
        // Eager frames, same discipline. Frames are routed *inside* the
        // service-region read closure so put payloads copy straight from
        // the ring to their destination region with no intermediate heap
        // buffer (svc.read → dst.write never nests the same lock: the one
        // degenerate case — a put targeting the service region itself — is
        // deferred and staged through a copy below).
        let svc_rkey = conn.svc.remote_key().rkey;
        let rbase = self.ledger_bytes;
        // One-entry destination-resolve cache for the pass: doorbell-batched
        // puts land as runs of frames aimed at the same rkey, and the MR
        // table lookup (map lock + hash + handle clone + bounds) was the
        // single largest per-frame cost. Generation-checked, so a racing
        // deregistration invalidates it exactly like a fresh resolve would.
        let mut mr_cache: MrCache = None;
        loop {
            let mut deferred: Option<(EagerFrame, usize)> = None;
            let mut err: Option<PhotonError> = None;
            // The service-region read lock is held across the whole drained
            // batch, not re-taken per frame; routing stays inside it so put
            // payloads copy straight from the ring to their destination
            // region with no intermediate heap buffer (svc.read → dst.write
            // never nests the same lock: the one degenerate case — a put
            // targeting the service region itself — is deferred and staged
            // through a copy below).
            let got = conn.svc.with_bytes(|b| {
                let rx = &mut *rx;
                let ring = &b[rbase..rbase + self.ring_bytes];
                let mut n = 0usize;
                while let Some(f) = rx.ring.accept(ring) {
                    n += 1;
                    let take = f.header.size as usize;
                    let pay: &[u8] = if f.header.kind != FrameKind::Skip && take > 0 {
                        &ring[f.payload_offset..f.payload_offset + take]
                    } else {
                        &[]
                    };
                    if f.header.kind == FrameKind::Put && f.header.dst_rkey == svc_rkey {
                        // A put whose destination *is* the service region:
                        // copying out under the read lock would nest it.
                        // Remember the payload's region-absolute offset and
                        // finish after the lock drops — the rx guard (held
                        // until the credit return below) keeps the ring slot
                        // from being overwritten in the meantime.
                        let src_off = rbase + f.payload_offset;
                        deferred = Some((f, src_off));
                        break;
                    }
                    if f.header.kind == FrameKind::Put && !pay.is_empty() {
                        Stats::bump(&self.stats.stage_copies_avoided);
                    }
                    if let Err(e) = self.route_frame(j, f, pay, &mut mr_cache, &mut rx.ev_scratch) {
                        err = Some(e);
                        break;
                    }
                }
                n
            });
            if got == 0 {
                break;
            }
            if let Some(e) = err {
                // Publish whatever routed cleanly before surfacing the
                // error; staged events must not sit in the scratch while
                // the caller sees the pass as failed.
                self.remote_events.push_drain(j, &mut rx.ev_scratch);
                return Err(e);
            }
            if let Some((f, src_off)) = deferred {
                // In-place ring → destination move inside the one region,
                // no intermediate heap buffer (ranges may overlap).
                let h = f.header;
                let take = h.size as usize;
                let (mr, off) =
                    self.resolve_write_cached(&mut mr_cache, h.dst_addr, h.dst_rkey, take)?;
                mr.with_bytes_mut(|b| b.copy_within(src_off..src_off + take, off));
                self.clock.advance_to(VTime(h.ts));
                let done = self.clock.advance(self.copy_ns(take));
                if take > 0 {
                    Stats::bump(&self.stats.stage_copies_avoided);
                }
                self.deliver_remote(j, h.rid, OpKind::PutEager, take, None, done, |ev| {
                    rx.ev_scratch.push(ev)
                });
            }
            if rx.ring.credit_due().is_some() {
                credit = Some((rx.ledger.consumed(), rx.ring.cursor()));
            }
        }
        // Publish the pass's staged events — ledger entries first, frames
        // after, exactly the order they were routed — in one locked append
        // per peer instead of one lock per event.
        self.remote_events.push_drain(j, &mut rx.ev_scratch);
        // The credit write happens while the receive lock is still held:
        // the words are *absolute* counters, so two writers racing (the
        // gated pass and an eviction drain) could publish a stale pair
        // after a newer one, silently re-crediting consumed slots to the
        // producer. Serializing through the rx guard makes each peer's
        // credit stream monotone. Lock order stays acyclic: the write path
        // takes only the stage/MR locks, which are never held around an rx
        // acquisition.
        if let Some((lc, rc)) = credit {
            self.return_credits(conn, lc, rc)?;
        }
        drop(rx);
        Ok(())
    }

    /// [`MrTable::resolve`] for `REMOTE_WRITE`, memoized through a one-entry
    /// `(rkey, generation, region)` cache. A hit skips the table's map lock
    /// and hash probe entirely; any deregistration bumps the table
    /// generation and forces a full (re-validating) resolve.
    fn resolve_write_cached<'c>(
        &self,
        cache: &'c mut MrCache,
        addr: u64,
        rkey: u32,
        len: usize,
    ) -> Result<(&'c MemoryRegion, usize)> {
        let mrs = self.nic.mrs();
        let gen = mrs.generation();
        // A hit hands back a borrow of the cached handle — no Arc clone
        // per frame, the region reference lives as long as the pass.
        let hit = match cache {
            Some((ck, cgen, mr)) if *ck == rkey && *cgen == gen => {
                let base = mr.base_addr();
                addr >= base
                    && ((addr - base) as usize).checked_add(len).is_some_and(|end| end <= mr.len())
            }
            _ => false,
        };
        if !hit {
            let (mr, _) = mrs.resolve(addr, rkey, len, Access::REMOTE_WRITE)?;
            *cache = Some((rkey, gen, mr));
        }
        let (_, _, mr) = cache.as_ref().expect("cache filled above");
        Ok((mr, (addr - mr.base_addr()) as usize))
    }

    /// Account one remote completion and send it where it belongs: a rid in
    /// the reserved namespace (collectives, gossip) is parked in the
    /// internal inbox; a user rid is stamped for the lifecycle spans and
    /// handed to `publish` as the event. `payload` is the message body of a
    /// `Msg` frame (owned by the event from here on — it outlives the ring
    /// slot).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn deliver_remote(
        &self,
        src: Rank,
        rid: u64,
        kind: OpKind,
        size: usize,
        payload: Option<&[u8]>,
        ts: VTime,
        publish: impl FnOnce(Completion),
    ) {
        Stats::bump(&self.stats.remote_completions);
        let payload = payload.map(<[u8]>::to_vec);
        if rid_space::is_reserved(rid) {
            let body = payload.unwrap_or_default();
            self.coll_inbox.lock().entry(rid).or_default().push_back((src, body, ts));
        } else {
            self.obs.op_deliver(src, rid, kind, size, ts);
            publish(Completion::remote(src, rid, size, payload, ts));
        }
    }

    /// Route one completion-ledger entry. Remote events go to `sink` (the
    /// drain pass's per-peer staging buffer), not straight to the event
    /// queue — the caller publishes the whole run under one peer lock.
    fn route_entry(&self, src: Rank, e: Entry, sink: &mut Vec<Completion>) {
        let ts = VTime(e.ts);
        match e.kind {
            EntryKind::Completion | EntryKind::GetNotify => {
                let size = e.size as usize;
                self.deliver_remote(src, e.rid, OpKind::PutDirect, size, None, ts, |ev| {
                    sink.push(ev)
                })
            }
            EntryKind::RdvPost => {
                Stats::bump(&self.stats.rendezvous_ops);
                self.rdv_announces.lock().insert(
                    (src, e.rid),
                    (RemoteKey { addr: e.addr, rkey: e.rkey, len: e.size as usize }, ts),
                );
            }
            EntryKind::Fin => {
                Stats::bump(&self.stats.rendezvous_ops);
                self.rdv_fins.lock().insert((src, e.rid), ts);
            }
        }
    }

    /// Route one eager frame. Remote events go to `sink` (the drain pass's
    /// per-peer staging buffer), not straight to the event queue — the
    /// caller publishes the whole run under one peer lock.
    fn route_frame(
        &self,
        src: Rank,
        f: EagerFrame,
        payload: &[u8],
        mr_cache: &mut MrCache,
        sink: &mut Vec<Completion>,
    ) -> Result<()> {
        let h = f.header;
        let ts = VTime(h.ts);
        match h.kind {
            FrameKind::Skip => {}
            FrameKind::Msg => {
                // Msg payloads become owned event data (they outlive the
                // ring slot); only Put frames get the in-place copy-out.
                let size = h.size as usize;
                self.deliver_remote(src, h.rid, OpKind::Send, size, Some(payload), ts, |ev| {
                    sink.push(ev)
                });
            }
            FrameKind::Put => {
                // Probe-time copy-out to the final destination.
                let (mr, off) =
                    self.resolve_write_cached(mr_cache, h.dst_addr, h.dst_rkey, h.size as usize)?;
                mr.write_at(off, payload);
                self.clock.advance_to(ts);
                let done = self.clock.advance(self.copy_ns(payload.len()));
                let size = h.size as usize;
                self.deliver_remote(src, h.rid, OpKind::PutEager, size, None, done, |ev| {
                    sink.push(ev)
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::BufferDescriptor;
    use crate::{PhotonCluster, PhotonConfig, ProbeFlags};
    use photon_fabric::NetworkModel;
    use std::time::Duration;

    fn pair() -> PhotonCluster {
        PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default())
    }

    #[test]
    fn bounded_rx_skip_forces_a_blocking_lock() {
        let c = pair();
        let p0 = c.rank(0).clone();
        // Hold peer 1's receive lock on another thread; every progress pass
        // skips it (bounded), and once the budget runs out the pass blocks
        // until the holder releases — the peer cannot be starved forever.
        let conn = p0.conn(1).unwrap();
        let holder = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || {
                let _rx = conn.rx.lock();
                std::thread::sleep(Duration::from_millis(200));
            })
        };
        // Wait until the holder owns the lock.
        while conn.rx.try_lock().is_some() {
            std::thread::yield_now();
        }
        for _ in 0..RX_SKIP_LIMIT - 1 {
            p0.progress().unwrap();
        }
        let s = p0.stats();
        assert_eq!(s.rx_lock_skips, (RX_SKIP_LIMIT - 1) as u64, "skips below the budget");
        assert_eq!(s.rx_lock_waits, 0, "no forced wait yet");
        // The budget is exhausted: the next pass blocks until the holder
        // releases instead of skipping again.
        p0.progress().unwrap();
        holder.join().unwrap();
        let s = p0.stats();
        assert_eq!(s.rx_lock_waits, 1, "the 16th consecutive skip blocks instead");
        assert_eq!(s.rx_lock_skips, (RX_SKIP_LIMIT - 1) as u64, "the wait is not a skip");
        // A successful try_lock resets the budget: later passes skip-count
        // from zero again instead of blocking immediately.
        p0.progress().unwrap();
        assert_eq!(p0.stats().rx_lock_waits, 1);
    }

    #[test]
    fn deferred_self_target_put_copies_in_place() {
        // A put whose destination is the receiver's own service region takes
        // the deferred RX path; it must land exactly like any other put and
        // count as an avoided staging copy.
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(64).unwrap();
        src.write_at(0, b"self-target payload");
        // Rank 1's own service region (its half of the 1↔0 connection) as
        // the destination (the degenerate case: probe-time copy-out source
        // and destination share the region).
        let conn1 = p1.conn(0).unwrap();
        let key = conn1.svc.remote_key();
        let dst = BufferDescriptor { addr: key.addr, rkey: key.rkey, len: 64 };
        let before = p1.stats().stage_copies_avoided;
        p0.put_with_completion(1, &src, 0, 19, &dst, 0, 1, 2).unwrap();
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!(ev.rid, 2);
        assert_eq!(ev.size, 19);
        assert!(ev.status.is_ok());
        assert_eq!(&conn1.svc.to_vec(0, 19), b"self-target payload");
        assert!(
            p1.stats().stage_copies_avoided > before,
            "deferred path must count its avoided staging copy"
        );
    }
}
