//! The TX path: staging and posting of eager frames, ledger entries and
//! tracked one-sided work requests, and the user-facing put / get / send
//! API built on them.

use crate::buffers::{BufferDescriptor, PhotonBuffer};
use crate::conn::{Conn, PeerTx, PEER_DEAD};
use crate::eager::{self, FrameHeader, FrameKind};
use crate::ledger::{self, Entry, EntryKind, ENTRY_BYTES};
use crate::obs::{OpKind, Stats, TraceOp};
use crate::photon::{Photon, CREDIT_BYTES, VEC_POOL_CAP};
use crate::probe::rid_space;
use crate::{PhotonError, Rank, Result};
use parking_lot::Mutex;
use photon_fabric::api::{FabricError, MemoryRegion, MrSlice, RemoteSlice, SendWr, VTime, WrOp};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Payload source of one frame in a doorbell run. Holds indices, not
/// borrows, so run scratch can be kept in [`PeerTx`] and recycled across
/// batches; the compose step resolves them against the run's shared context
/// (one source region and/or one payload slice per run).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunSrc {
    /// Byte offset into the run's shared source region.
    Region(usize),
    /// Index into the run's payload slice.
    Payload(usize),
}

/// One frame of a doorbell batch (see [`Photon::try_put_many`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunFrame {
    pub(crate) kind: FrameKind,
    pub(crate) rid: u64,
    pub(crate) dst: Option<(u64, u32)>,
    pub(crate) src: RunSrc,
    pub(crate) len: usize,
    pub(crate) local_rid: Option<u64>,
}

/// One control-ledger entry (see [`Photon::try_post_entry`]): a rendezvous
/// announce, a FIN, a get notification or a direct put's completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntrySpec {
    /// Control-entry kind (RdvPost, Fin, ...).
    pub(crate) kind: EntryKind,
    /// Request / tag id carried by the entry.
    pub(crate) rid: u64,
    /// Size field (protocol-specific).
    pub(crate) size: u64,
    /// Remote address field (protocol-specific).
    pub(crate) addr: u64,
    /// Remote rkey field (protocol-specific).
    pub(crate) rkey: u32,
}

impl EntrySpec {
    /// An entry that names no remote buffer (completion, get notification,
    /// FIN).
    pub(crate) fn plain(kind: EntryKind, rid: u64, size: u64) -> EntrySpec {
        EntrySpec { kind, rid, size, addr: 0, rkey: 0 }
    }
}

/// One element of a [`Photon::get_many`] doorbell batch: a read of
/// `src[soff..soff+len]` on the peer into `local[loff..]`, surfacing
/// `local_rid` when the whole batch's data has landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetManyItem {
    /// Destination offset within the local buffer.
    pub loff: usize,
    /// Bytes to fetch.
    pub len: usize,
    /// Source offset within the remote buffer.
    pub soff: usize,
    /// Local completion id (data landed).
    pub local_rid: u64,
}

/// One element of a [`Photon::put_many`] doorbell batch: a put of
/// `local[loff..loff+len]` to `dst[doff..]`, surfacing `local_rid` here and
/// `remote_rid` at the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutManyItem {
    /// Source offset within the local buffer.
    pub loff: usize,
    /// Bytes to put.
    pub len: usize,
    /// Destination offset within the remote buffer.
    pub doff: usize,
    /// Local completion id (source reusable).
    pub local_rid: u64,
    /// Remote completion id (data visible at the peer).
    pub remote_rid: u64,
}

// Free list for the delivery-stamp offset lists that cycle through
// doorbell-batched work requests (a run's rid list lives in its wr-table
// slot instead). Each vector reaches its working capacity once and is then
// recycled forever, so the steady-state batch path performs zero heap
// allocations (pinned by `obs_overhead`'s counting test).

/// Take a vector from a recycler cache (empty, capacity retained from
/// earlier batches).
fn pool_take<T>(pool: &Mutex<Vec<Vec<T>>>) -> Vec<T> {
    pool.lock().pop().unwrap_or_default()
}

/// Return a vector to a recycler cache (dropped past the retention cap).
fn pool_give<T>(pool: &Mutex<Vec<Vec<T>>>, mut v: Vec<T>) {
    let mut pool = pool.lock();
    if pool.len() < VEC_POOL_CAP {
        v.clear();
        pool.push(v);
    }
}

impl Photon {
    /// Post a run of tracked user work requests (writes, reads, atomics) on
    /// `conn` with one doorbell — the only place a user work request
    /// reaches the fabric. Only the last wr is signaled, and its one CQE
    /// surfaces every rid in `local_rids`. The wr is registered before the
    /// doorbell rings (another thread's progress pass may harvest the CQE
    /// at once) and unwound if the post fails. Draws no health consequence
    /// from a failure: callers apply [`Photon::fail_post`], after releasing
    /// the TX lock if they hold it.
    pub(crate) fn post_tracked<I>(
        &self,
        conn: &Conn,
        local_rids: impl IntoIterator<Item = u64>,
        ops: I,
    ) -> Result<()>
    where
        I: IntoIterator<Item = WrOp>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut ops = ops.into_iter();
        let last = ops.len() - 1;
        let wr_id = self.wr_table.insert(local_rids, conn.peer);
        let now = self.clock.now();
        let wr = |i, op| if i == last { SendWr::new(wr_id, op) } else { SendWr::unsignaled(op) };
        let res = if last == 0 {
            // A single op posts from the stack.
            self.nic.post_send(conn.qp, wr(0, ops.next().expect("a one-op run")), now)
        } else {
            let wrs: Vec<SendWr> = ops.enumerate().map(|(i, op)| wr(i, op)).collect();
            self.nic.post_send_many(conn.qp, &wrs, now)
        };
        res.map_err(|e| {
            self.wr_table.retire(wr_id, |_, _| ());
            e.into()
        })
    }

    // ------------------------------------------------------- posting layer

    /// Write `len` staged bytes at `sub` to the peer's mirror slot: the one
    /// place a staged protocol write (frame run, ledger-entry run, skip
    /// frame, credit words) reaches the fabric. Every offset in `stamps`
    /// (relative to the staged slice) gets the delivery stamp, and all of
    /// `local_rids` surface as local completions when the write's single
    /// CQE drains: the work-request table slot holds them all. Only a run
    /// carrying more than one stamp touches the stamp recycler pool, so a
    /// single frame or entry costs no lock beyond the work-request
    /// table's.
    fn post_stage_write(
        &self,
        conn: &Conn,
        sub: usize,
        len: usize,
        local_rids: impl IntoIterator<Item = u64>,
        stamps: impl IntoIterator<Item = usize>,
    ) -> Result<()> {
        let peer = conn.peer;
        let local = MrSlice::new(&conn.stage, sub, len);
        let remote = self.remote_slice(conn, sub, len);
        let op = WrOp::Write { local, remote, imm: None };
        let mut rids = local_rids.into_iter().peekable();
        let mut wr = match rids.peek() {
            None => SendWr::unsignaled(op),
            Some(_) => SendWr::new(self.wr_table.insert(rids, peer), op),
        };
        let mut stamps = stamps.into_iter().fuse();
        wr.stamp_deliver_at = stamps.next();
        if let Some(second) = stamps.next() {
            wr.stamp_deliver_also = pool_take(&self.stamp_vec_pool);
            wr.stamp_deliver_also.push(second);
            wr.stamp_deliver_also.extend(stamps);
        }
        // Post by reference so a recycled stamp list can be reclaimed after
        // the fabric consumes it.
        let res = self.nic.post_send_many(conn.qp, std::slice::from_ref(&wr), self.clock.now());
        if wr.stamp_deliver_also.capacity() > 0 {
            pool_give(&self.stamp_vec_pool, std::mem::take(&mut wr.stamp_deliver_also));
        }
        if res.is_err() && wr.signaled {
            self.wr_table.retire(wr.wr_id, |_, _| ());
        }
        res.map_err(Into::into)
    }

    /// Write and post an explicit `Skip` frame covering a dead ring tail,
    /// when a reservation requires one.
    fn post_skip(&self, conn: &Conn, skip: Option<(usize, u32, u64)>) -> Result<()> {
        let Some((off, dead, seq)) = skip else { return Ok(()) };
        let h = FrameHeader {
            seq,
            rid: 0,
            dst_addr: 0,
            dst_rkey: 0,
            size: dead,
            kind: FrameKind::Skip,
            ts: 0,
        };
        conn.stage.write_at(self.sub_ring(off), &h.encode());
        self.post_stage_write(conn, self.sub_ring(off), eager::FRAME_HDR, [], [eager::TS_OFFSET])
    }

    /// Post a contiguous run of eager frames to `peer` as **one** wire write
    /// — the only way a frame reaches the ring; a single put or send is the
    /// one-frame run. Returns how many of `frames` were posted: the longest
    /// prefix the ring could hold (halving on credit exhaustion), `0` on a
    /// full stall. The caller holds the TX lock across the whole batch, so
    /// the run is atomic in the peer's delivery order. `src_region`, when
    /// set, is the registered region every `Region` frame in the run reads
    /// from, and `payloads` the slice every `Payload` frame indexes: the
    /// whole run is composed under **one** source read lock and one stage
    /// write lock, with no intermediate heap buffer (the staging copy the
    /// paper's o-overhead charges is the *only* copy).
    fn post_frame_run_locked<P: AsRef<[u8]>>(
        &self,
        conn: &Conn,
        tx: &mut PeerTx,
        frames: &[RunFrame],
        src_region: Option<&MemoryRegion>,
        payloads: &[P],
    ) -> Result<usize> {
        debug_assert!(!frames.is_empty());
        // The span list lives in the TX state's scratch vector, so the
        // steady-state path performs no heap allocation at all.
        let mut lens = std::mem::take(&mut tx.lens);
        lens.clear();
        lens.extend(frames.iter().map(|f| f.len));
        let mut k = frames.len();
        let mut refreshed = None;
        let r = loop {
            if let Some(r) = tx.ring.try_reserve_run(&lens[..k]) {
                if let Some(t) = refreshed {
                    if k == frames.len() {
                        // Unblocked by the credit read: causally ordered after it.
                        self.clock.advance_to(t);
                    }
                }
                break r;
            }
            if refreshed.is_none() {
                refreshed = Some(self.refresh_tx_credits(conn, tx));
                continue;
            }
            k /= 2;
            if k == 0 {
                Stats::bump(&self.stats.credit_stalls);
                tx.lens = lens;
                return Ok(0);
            }
        };
        tx.lens = lens;
        self.post_skip(conn, r.skip)?;
        let base_sub = self.sub_ring(r.offset);
        let mut run_span = 0usize;
        let mut payload_bytes = 0usize;
        let mut compose = |sb: &mut [u8], shared: Option<&[u8]>| {
            let mut rel = 0usize;
            for (i, f) in frames[..k].iter().enumerate() {
                let (dst_addr, dst_rkey) = f.dst.unwrap_or((0, 0));
                let h = FrameHeader {
                    seq: r.first_seq + i as u64,
                    rid: f.rid,
                    dst_addr,
                    dst_rkey,
                    size: f.len as u32,
                    kind: f.kind,
                    ts: 0,
                };
                let fo = base_sub + rel;
                sb[fo..fo + eager::FRAME_HDR].copy_from_slice(&h.encode());
                if f.len > 0 {
                    let dst = &mut sb[fo + eager::FRAME_HDR..fo + eager::FRAME_HDR + f.len];
                    match f.src {
                        RunSrc::Payload(p) => dst.copy_from_slice(&payloads[p].as_ref()[..f.len]),
                        RunSrc::Region(off) => {
                            let s =
                                shared.expect("Region run frames carry the shared source region");
                            dst.copy_from_slice(&s[off..off + f.len]);
                            Stats::bump(&self.stats.stage_copies_avoided);
                        }
                    }
                    payload_bytes += f.len;
                }
                rel += eager::frame_span(f.len);
            }
            run_span = rel;
        };
        // Region → stage lock order; never the same lock (the stage is
        // middleware-internal and never a user buffer).
        match src_region {
            Some(region) => {
                region.with_bytes(|s| conn.stage.with_bytes_mut(|sb| compose(sb, Some(s))))
            }
            None => conn.stage.with_bytes_mut(|sb| compose(sb, None)),
        }
        if payload_bytes > 0 {
            // Staging memcpy is real middleware work: charge it.
            self.clock.advance(self.copy_ns(payload_bytes));
        }
        let local_rids = frames[..k].iter().filter_map(|f| f.local_rid);
        for rid in local_rids.clone() {
            self.obs.op_stage(rid, self.clock.now());
        }
        // One delivery stamp per frame header, at the frame's run offset.
        let stamps = frames[..k].iter().scan(0usize, |rel, f| {
            let at = *rel + eager::TS_OFFSET;
            *rel += eager::frame_span(f.len);
            Some(at)
        });
        self.post_stage_write(conn, base_sub, run_span, local_rids, stamps)?;
        Ok(k)
    }

    /// Claim one ledger slot toward `conn`'s peer, reading the credit words
    /// once on exhaustion. Returns the claimed slot's sequence number, or
    /// `None` on a stall.
    fn claim_ledger_slot(&self, conn: &Conn, tx: &mut PeerTx) -> Option<u64> {
        if let Some((_, seq)) = tx.ledger.try_produce() {
            return Some(seq);
        }
        let t = self.refresh_tx_credits(conn, tx);
        let Some((_, seq)) = tx.ledger.try_produce() else {
            Stats::bump(&self.stats.credit_stalls);
            return None;
        };
        // Unblocked by the credit read: causally ordered after it.
        self.clock.advance_to(t);
        Some(seq)
    }

    /// Stage `spec` into the ledger slot claimed as `seq` and post it: one
    /// wire write carrying the entry and its delivery stamp.
    fn post_claimed_entry(&self, conn: &Conn, seq: u64, spec: EntrySpec) -> Result<()> {
        let slot = ((seq - 1) % self.cfg.ledger_entries as u64) as usize;
        let e = Entry {
            seq,
            rid: spec.rid,
            size: spec.size,
            addr: spec.addr,
            rkey: spec.rkey,
            kind: spec.kind,
            ts: 0,
        };
        conn.stage.write_at(self.sub_ledger(slot), &e.encode());
        self.post_stage_write(conn, self.sub_ledger(slot), ENTRY_BYTES, [], [ledger::TS_OFFSET])
    }

    /// Post one control-ledger entry (rendezvous announce, FIN, get
    /// notification) toward `peer`. `Ok(false)` when the ledger is out of
    /// credits or the peer is gated.
    pub(crate) fn try_post_entry(&self, peer: Rank, spec: EntrySpec) -> Result<bool> {
        let Some(conn) = self.gated_conn(peer)? else {
            return Ok(false);
        };
        // The TX guard is released before `fail_post` (eviction locks the
        // same TX state).
        let r = {
            let mut tx = conn.tx.lock();
            match self.claim_ledger_slot(&conn, &mut tx) {
                Some(seq) => self.post_claimed_entry(&conn, seq, spec).map(|()| true),
                None => Ok(false),
            }
        };
        self.fail_post(&conn, r)
    }

    /// Blocking [`Photon::try_post_entry`]: spins through credit exhaustion
    /// until the entry is posted.
    pub(crate) fn post_entry(&self, what: &'static str, peer: Rank, spec: EntrySpec) -> Result<()> {
        self.blocking(what, |s| Ok(s.try_post_entry(peer, spec)?.then_some(())))
    }

    /// Read the local credit words for production over `conn`; returns the
    /// virtual delivery time of the last credit write.
    fn refresh_tx_credits(&self, conn: &Conn, tx: &mut PeerTx) -> VTime {
        let off = self.sub_credit();
        tx.ledger.update_credits(conn.svc.read_u64(off));
        tx.ring.update_credits(conn.svc.read_u64(off + 8));
        VTime(conn.svc.read_u64(off + 16))
    }

    pub(crate) fn return_credits(
        &self,
        conn: &Arc<Conn>,
        ledger_consumed: u64,
        ring_cursor: u64,
    ) -> Result<()> {
        let skip = self.cfg.skip_credit_return_interval;
        if skip > 0 && self.credit_return_seq.fetch_add(1, Ordering::Relaxed) % skip == skip - 1 {
            // Seeded credit-accounting bug (see PhotonConfig): the consumer
            // has advanced its counters but the producer is never told.
            return Ok(());
        }
        if conn.health.state.load(Ordering::Acquire) == PEER_DEAD {
            // No point writing credit words into a dead peer's memory.
            return Ok(());
        }
        let sub = self.sub_credit();
        conn.stage.write_u64(sub, ledger_consumed);
        conn.stage.write_u64(sub + 8, ring_cursor);
        match self.post_stage_write(conn, sub, CREDIT_BYTES, [], [16]) {
            Err(PhotonError::Fabric(FabricError::PeerUnreachable { .. })) => {
                // Swallow: a failed credit write must not poison this rank's
                // progress loop (other peers still need service), and credit
                // words are absolute counters, so dropping one write is
                // harmless — the next return re-publishes the same state.
                // The health machine is told so the path gets probed.
                self.note_unreachable(conn);
                return Ok(());
            }
            r => r?,
        }
        Stats::bump(&self.stats.credit_returns);
        self.tracer.record(self.clock.now(), TraceOp::CreditReturn, conn.peer, 0, CREDIT_BYTES);
        Ok(())
    }

    // ------------------------------------------------------------ user API

    /// One-sided put with local **and** remote completion (the Photon
    /// signature: `photon_put_with_completion`).
    ///
    /// Copies `len` bytes from `local[loff..]` to `dst[doff..]` on `peer`.
    /// `local_rid` is surfaced here when the source buffer is reusable;
    /// `remote_rid` is surfaced at `peer` when the data is visible there.
    /// Small payloads take the packed eager path (one wire op, copy-out at
    /// probe time); large payloads go direct RDMA + ledger entry.
    ///
    /// Blocks only on credit exhaustion; see
    /// [`Photon::try_put_with_completion`].
    #[allow(clippy::too_many_arguments)]
    pub fn put_with_completion(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        len: usize,
        dst: &BufferDescriptor,
        doff: usize,
        local_rid: u64,
        remote_rid: u64,
    ) -> Result<()> {
        self.blocking("pwc credits", |s| {
            s.try_put_with_completion(peer, local, loff, len, dst, doff, local_rid, remote_rid)
                .map(|posted| posted.then_some(()))
        })
    }

    /// Non-blocking [`Photon::put_with_completion`]: `Ok(false)` when out of
    /// credits. The one-item case of [`Photon::try_put_many`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_put_with_completion(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        len: usize,
        dst: &BufferDescriptor,
        doff: usize,
        local_rid: u64,
        remote_rid: u64,
    ) -> Result<bool> {
        let item = PutManyItem { loff, len, doff, local_rid, remote_rid };
        Ok(self.post_puts(peer, local, dst, std::slice::from_ref(&item), false)? == 1)
    }

    /// Doorbell-batched [`Photon::put_with_completion`]: post every item in
    /// `items` toward `peer`, coalescing runs of eager-sized items into a
    /// single contiguous ring reservation and **one** wire write (header
    /// run + payloads). The whole batch — including ledger entries for
    /// oversized items — posts under one TX lock acquisition, and the
    /// fabric charges its per-post overhead once per run instead of once
    /// per frame. Blocks on credit exhaustion.
    pub fn put_many(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        dst: &BufferDescriptor,
        items: &[PutManyItem],
    ) -> Result<()> {
        let mut done = 0usize;
        self.blocking("put_many credits", |s| {
            done += s.try_put_many(peer, local, dst, &items[done..])?;
            Ok((done == items.len()).then_some(()))
        })
    }

    /// Non-blocking [`Photon::put_many`]: posts the longest prefix of
    /// `items` the credits allow and returns how many were posted (`0` on a
    /// full stall — retry after probing).
    pub fn try_put_many(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        dst: &BufferDescriptor,
        items: &[PutManyItem],
    ) -> Result<usize> {
        self.post_puts(peer, local, dst, items, true)
    }

    /// The put dispatch, written once: eager runs, write-with-immediate, or
    /// direct RDMA + ledger entry per item, all under one TX lock
    /// acquisition. `batch_api` says the caller is a `*_many` entry point,
    /// whose eager runs count toward the doorbell-batch statistics.
    fn post_puts(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        dst: &BufferDescriptor,
        items: &[PutManyItem],
        batch_api: bool,
    ) -> Result<usize> {
        self.check_rank(peer)?;
        for it in items {
            local.check(it.loff, it.len)?;
            if it.doff + it.len > dst.len {
                return Err(PhotonError::OutOfRange { offset: it.doff, len: it.len, cap: dst.len });
            }
        }
        if items.is_empty() {
            return Ok(0);
        }
        let Some(conn) = self.gated_conn(peer)? else {
            return Ok(0);
        };
        let eager_ok =
            |len: usize| len <= self.cfg.eager_threshold && len <= self.cfg.max_eager_payload();
        // The whole batch posts inside the closure so the TX guard is
        // released before `fail_post` (eviction locks the same TX state).
        let res = (|| {
            let mut posted = 0usize;
            let mut tx = conn.tx.lock();
            // Run scratch lives in the TX state and is recycled across
            // batches (RunFrame holds indices, not borrows).
            let mut run = std::mem::take(&mut tx.run);
            while posted < items.len() {
                let it = &items[posted];
                if eager_ok(it.len) {
                    // Longest eager run from here whose combined span fits the
                    // ring (a run never wraps, so it can never exceed it).
                    let mut span = 0usize;
                    run.clear();
                    for it2 in &items[posted..] {
                        if !eager_ok(it2.len) {
                            break;
                        }
                        let s = eager::frame_span(it2.len);
                        if span + s > self.ring_bytes {
                            break;
                        }
                        span += s;
                        run.push(RunFrame {
                            kind: FrameKind::Put,
                            rid: it2.remote_rid,
                            dst: Some((dst.addr + it2.doff as u64, dst.rkey)),
                            src: RunSrc::Region(it2.loff),
                            len: it2.len,
                            local_rid: Some(it2.local_rid),
                        });
                    }
                    let want = run.len();
                    for it2 in &items[posted..posted + want] {
                        self.obs.op_post(
                            it2.local_rid,
                            peer,
                            OpKind::PutEager,
                            it2.len,
                            self.clock.now(),
                        );
                    }
                    let n = self.post_frame_run_locked::<&[u8]>(
                        &conn,
                        &mut tx,
                        &run,
                        Some(local.region()),
                        &[],
                    )?;
                    if batch_api && n > 0 {
                        self.stats.record_batch(n);
                    }
                    for it2 in &items[posted..posted + n] {
                        Stats::bump(&self.stats.puts_eager);
                        Stats::add(&self.stats.bytes_put, it2.len as u64);
                        self.tracer.record(
                            self.clock.now(),
                            TraceOp::PutEager,
                            peer,
                            it2.remote_rid,
                            it2.len,
                        );
                    }
                    posted += n;
                    if n < want {
                        break; // out of ring credits
                    }
                } else {
                    // Direct RDMA. In CQ-notification mode one
                    // write-with-immediate carries both the data and the
                    // remote completion id: no ledger, no credits.
                    // Otherwise the data write is posted under the
                    // completion entry's slot reservation, entry right
                    // behind it, so data and completion arrive in order.
                    let imm = self.cfg.imm_completions;
                    self.obs.op_post(
                        it.local_rid,
                        peer,
                        OpKind::PutDirect,
                        it.len,
                        self.clock.now(),
                    );
                    let entry_seq = if imm {
                        None
                    } else {
                        let Some(seq) = self.claim_ledger_slot(&conn, &mut tx) else {
                            break; // out of ledger credits
                        };
                        Some(seq)
                    };
                    let data = WrOp::Write {
                        local: MrSlice::new(local.region(), it.loff, it.len),
                        remote: RemoteSlice::from_key(dst, it.doff, it.len),
                        imm: imm.then_some(it.remote_rid),
                    };
                    self.post_tracked(&conn, [it.local_rid], [data])?;
                    if let Some(seq) = entry_seq {
                        let done =
                            EntrySpec::plain(EntryKind::Completion, it.remote_rid, it.len as u64);
                        self.post_claimed_entry(&conn, seq, done)?;
                    }
                    Stats::bump(&self.stats.puts_direct);
                    Stats::add(&self.stats.bytes_put, it.len as u64);
                    self.tracer.record(
                        self.clock.now(),
                        TraceOp::PutDirect,
                        peer,
                        it.remote_rid,
                        it.len,
                    );
                    posted += 1;
                }
            }
            tx.run = run;
            Ok(posted)
        })();
        self.fail_post(&conn, res)
    }

    /// Doorbell-batched [`Photon::send`]: deliver every payload to `peer` as
    /// its own eager `Msg` frame (each surfacing `remote_rid` with its
    /// payload), coalesced into as few wire writes as the ring allows.
    /// Blocks on credit exhaustion.
    pub fn send_many(&self, peer: Rank, payloads: &[Vec<u8>], remote_rid: u64) -> Result<()> {
        let mut done = 0usize;
        self.blocking("send_many credits", |s| {
            done += s.try_send_many(peer, &payloads[done..], remote_rid)?;
            Ok((done == payloads.len()).then_some(()))
        })
    }

    /// Non-blocking [`Photon::send_many`]: posts the longest prefix the
    /// credits allow, returns how many payloads were posted.
    pub fn try_send_many(
        &self,
        peer: Rank,
        payloads: &[Vec<u8>],
        remote_rid: u64,
    ) -> Result<usize> {
        self.check_msgs(peer, payloads)?;
        self.post_msgs(peer, payloads, remote_rid, None, true)
    }

    /// Validate a message post: rank in range, every payload eager-sized.
    fn check_msgs<P: AsRef<[u8]>>(&self, peer: Rank, payloads: &[P]) -> Result<()> {
        self.check_rank(peer)?;
        let max = self.cfg.max_eager_payload();
        match payloads.iter().map(|p| p.as_ref().len()).find(|&len| len > max) {
            Some(len) => Err(PhotonError::MessageTooLarge { len, max }),
            None => Ok(()),
        }
    }

    /// Post every (validated) payload as an eager `Msg` frame, in runs as
    /// long as the ring allows; returns how many were posted. `local_rid`,
    /// when set, surfaces when a payload has been injected (the single-send
    /// case); `batch_api` as in [`Photon::post_puts`].
    fn post_msgs<P: AsRef<[u8]>>(
        &self,
        peer: Rank,
        payloads: &[P],
        remote_rid: u64,
        local_rid: Option<u64>,
        batch_api: bool,
    ) -> Result<usize> {
        if payloads.is_empty() {
            return Ok(0);
        }
        let Some(conn) = self.gated_conn(peer)? else {
            return Ok(0);
        };
        let res = (|| {
            let mut posted = 0usize;
            let mut tx = conn.tx.lock();
            let mut run = std::mem::take(&mut tx.run);
            while posted < payloads.len() {
                let mut span = 0usize;
                run.clear();
                for (i, p) in payloads[posted..].iter().enumerate() {
                    let len = p.as_ref().len();
                    let s = eager::frame_span(len);
                    if span + s > self.ring_bytes {
                        break;
                    }
                    span += s;
                    run.push(RunFrame {
                        kind: FrameKind::Msg,
                        rid: remote_rid,
                        dst: None,
                        src: RunSrc::Payload(posted + i),
                        len,
                        local_rid,
                    });
                }
                let want = run.len();
                let n = self.post_frame_run_locked(&conn, &mut tx, &run, None, payloads)?;
                if batch_api && n > 0 {
                    self.stats.record_batch(n);
                }
                for f in &run[..n] {
                    Stats::bump(&self.stats.sends);
                    self.tracer.record(self.clock.now(), TraceOp::Send, peer, remote_rid, f.len);
                }
                posted += n;
                if n < want {
                    break;
                }
            }
            tx.run = run;
            Ok(posted)
        })();
        self.fail_post(&conn, res)
    }

    /// One-sided put with local completion only (`photon_post_os_put`):
    /// the peer is not notified.
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        len: usize,
        dst: &BufferDescriptor,
        doff: usize,
        local_rid: u64,
    ) -> Result<()> {
        self.check_rank(peer)?;
        local.check(loff, len)?;
        if doff + len > dst.len {
            return Err(PhotonError::OutOfRange { offset: doff, len, cap: dst.len });
        }
        // Direct RDMA has no credit gate to ride through the health machine:
        // settle it here before consuming a work-request slot.
        let conn = self.gate_blocking(peer)?;
        self.obs.op_post(local_rid, peer, OpKind::Put, len, self.clock.now());
        let op = WrOp::Write {
            local: MrSlice::new(local.region(), loff, len),
            remote: RemoteSlice::from_key(dst, doff, len),
            imm: None,
        };
        self.fail_post(&conn, self.post_tracked(&conn, [local_rid], [op]))?;
        Stats::bump(&self.stats.puts_direct);
        Stats::add(&self.stats.bytes_put, len as u64);
        self.tracer.record(self.clock.now(), TraceOp::Put, peer, local_rid, len);
        Ok(())
    }

    /// One-sided get with local completion (`photon_get_with_completion`):
    /// fetches `len` bytes from `src[soff..]` on `peer` into
    /// `local[loff..]`; `local_rid` is surfaced when the data has landed.
    /// The one-item case of [`Photon::get_many`].
    #[allow(clippy::too_many_arguments)]
    pub fn get_with_completion(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        len: usize,
        src: &BufferDescriptor,
        soff: usize,
        local_rid: u64,
    ) -> Result<()> {
        self.get_many(peer, local, src, &[GetManyItem { loff, len, soff, local_rid }])
    }

    /// Doorbell-batched [`Photon::get_with_completion`]: post every read in
    /// `items` toward `peer` with **one** doorbell and one signaled CQE.
    /// On a reliable-connected QP reads retire in posting order, so the
    /// final read's CQE means every earlier read's data has landed too: the
    /// one CQE surfaces all `items.len()` local completions, which its
    /// work-request table slot carries. Each item's `local_rid` therefore
    /// surfaces when the *batch* completes — items that need independent
    /// completion latitude should use single gets.
    pub fn get_many(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        src: &BufferDescriptor,
        items: &[GetManyItem],
    ) -> Result<()> {
        self.check_rank(peer)?;
        for it in items {
            local.check(it.loff, it.len)?;
            if it.soff + it.len > src.len {
                return Err(PhotonError::OutOfRange { offset: it.soff, len: it.len, cap: src.len });
            }
        }
        if items.is_empty() {
            return Ok(());
        }
        let conn = self.gate_blocking(peer)?;
        let now = self.clock.now();
        for it in items {
            self.obs.op_post(it.local_rid, peer, OpKind::Get, it.len, now);
        }
        let reads = items.iter().map(|it| WrOp::Read {
            local: MrSlice::new(local.region(), it.loff, it.len),
            remote: RemoteSlice::from_key(src, it.soff, it.len),
        });
        let rids = items.iter().map(|it| it.local_rid);
        self.fail_post(&conn, self.post_tracked(&conn, rids, reads))?;
        for it in items {
            Stats::bump(&self.stats.gets);
            Stats::add(&self.stats.bytes_got, it.len as u64);
            self.tracer.record(now, TraceOp::Get, peer, it.local_rid, it.len);
        }
        Ok(())
    }

    /// [`Photon::get_with_completion`] plus a remote notification: `peer`
    /// also receives `remote_rid` (so it can, e.g., recycle the source).
    #[allow(clippy::too_many_arguments)]
    pub fn get_with_remote_notify(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        len: usize,
        src: &BufferDescriptor,
        soff: usize,
        local_rid: u64,
        remote_rid: u64,
    ) -> Result<()> {
        self.get_with_completion(peer, local, loff, len, src, soff, local_rid)?;
        let notify = EntrySpec::plain(EntryKind::GetNotify, remote_rid, len as u64);
        self.post_entry("gwc notify credits", peer, notify)
    }

    /// Destination-less message (`photon_send` analogue): the payload is
    /// delivered to `peer` through its probe loop. This is the parcel /
    /// active-message primitive. Blocks on credit exhaustion.
    pub fn send(&self, peer: Rank, payload: &[u8], remote_rid: u64) -> Result<()> {
        debug_assert!(
            !rid_space::is_reserved(remote_rid),
            "user rids must stay below the reserved namespace"
        );
        self.send_internal(peer, payload, remote_rid, None)
    }

    /// [`Photon::send`] that also surfaces `local_rid` when the payload has
    /// been injected (source slice reusable).
    pub fn send_with_local(
        &self,
        peer: Rank,
        payload: &[u8],
        remote_rid: u64,
        local_rid: u64,
    ) -> Result<()> {
        self.send_internal(peer, payload, remote_rid, Some(local_rid))
    }

    /// Non-blocking send: `Ok(false)` when out of ring credits.
    pub fn try_send(&self, peer: Rank, payload: &[u8], remote_rid: u64) -> Result<bool> {
        let one = std::slice::from_ref(&payload);
        self.check_msgs(peer, one)?;
        Ok(self.post_msgs(peer, one, remote_rid, None, false)? == 1)
    }

    pub(crate) fn send_internal(
        &self,
        peer: Rank,
        payload: &[u8],
        remote_rid: u64,
        local_rid: Option<u64>,
    ) -> Result<()> {
        let one = std::slice::from_ref(&payload);
        self.check_msgs(peer, one)?;
        self.blocking("send credits", |s| {
            if let Some(rid) = local_rid {
                s.obs.op_post(rid, peer, OpKind::Send, payload.len(), s.clock.now());
            }
            Ok((s.post_msgs(peer, one, remote_rid, local_rid, false)? == 1).then_some(()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhotonCluster, PhotonConfig, ProbeFlags};
    use photon_fabric::NetworkModel;

    fn pair() -> PhotonCluster {
        PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default())
    }

    #[test]
    fn pwc_eager_roundtrip() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(256).unwrap();
        let dst = p1.register_buffer(256).unwrap();
        src.write_at(0, b"eager path");
        p0.put_with_completion(1, &src, 0, 10, &dst.descriptor(), 16, 7, 99).unwrap();
        assert!(p0.wait_local(7).unwrap() > VTime::ZERO);
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!(ev.rid, 99);
        assert_eq!(ev.peer, 0);
        assert_eq!(ev.size, 10);
        assert!(ev.payload.is_none(), "eager put copies out, no payload");
        assert_eq!(dst.to_vec(16, 10), b"eager path");
        assert_eq!(p0.stats().puts_eager, 1);
        // Remote completion happens after wire latency.
        assert!(ev.ts.as_nanos() >= 700);
    }

    #[test]
    fn pwc_direct_roundtrip() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let len = 64 * 1024; // above the eager threshold
        let src = p0.register_buffer(len).unwrap();
        let dst = p1.register_buffer(len).unwrap();
        src.fill(0xAB);
        p0.put_with_completion(1, &src, 0, len, &dst.descriptor(), 0, 1, 2).unwrap();
        p0.wait_local(1).unwrap();
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!(ev.rid, 2);
        assert_eq!(ev.size, len);
        assert_eq!(dst.to_vec(0, len), vec![0xAB; len]);
        assert_eq!(p0.stats().puts_direct, 1);
        assert_eq!(p0.stats().puts_eager, 0);
    }

    #[test]
    fn get_with_completion_pulls() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let dst = p0.register_buffer(128).unwrap();
        let src = p1.register_buffer(128).unwrap();
        src.write_at(32, b"pull me");
        p0.get_with_completion(1, &dst, 0, 7, &src.descriptor(), 32, 55).unwrap();
        p0.wait_local(55).unwrap();
        assert_eq!(dst.to_vec(0, 7), b"pull me");
        assert_eq!(p0.stats().gets, 1);
    }

    #[test]
    fn get_many_batches_reads_behind_one_cqe() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let dst = p0.register_buffer(256).unwrap();
        let src = p1.register_buffer(256).unwrap();
        for i in 0..32u8 {
            src.write_at(i as usize * 8, &[i; 8]);
        }
        let items: Vec<GetManyItem> = (0..32)
            .map(|i| GetManyItem { loff: i * 8, len: 8, soff: i * 8, local_rid: 100 + i as u64 })
            .collect();
        p0.get_many(1, &dst, &src.descriptor(), &items).unwrap();
        // One CQE fans out into every item's local completion, and the
        // first rid's completion already implies all data landed (RC
        // in-order retirement).
        for it in &items {
            p0.wait_local(it.local_rid).unwrap();
        }
        for i in 0..32u8 {
            assert_eq!(dst.to_vec(i as usize * 8, 8), vec![i; 8]);
        }
        assert_eq!(p0.stats().gets, 32);
        assert_eq!(p0.stats().local_completions, 32);
    }

    #[test]
    fn get_many_validates_and_handles_empty() {
        let c = pair();
        let p0 = c.rank(0);
        let dst = p0.register_buffer(16).unwrap();
        let src = c.rank(1).register_buffer(16).unwrap();
        p0.get_many(1, &dst, &src.descriptor(), &[]).unwrap();
        let bad = [GetManyItem { loff: 0, len: 8, soff: 12, local_rid: 1 }];
        assert!(matches!(
            p0.get_many(1, &dst, &src.descriptor(), &bad),
            Err(PhotonError::OutOfRange { .. })
        ));
        assert_eq!(p0.stats().gets, 0, "failed batch posts nothing");
    }

    #[test]
    fn get_with_remote_notify_notifies() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let dst = p0.register_buffer(8).unwrap();
        let src = p1.register_buffer(8).unwrap();
        p0.get_with_remote_notify(1, &dst, 0, 8, &src.descriptor(), 0, 1, 77).unwrap();
        p0.wait_local(1).unwrap();
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!(ev.rid, 77);
    }

    #[test]
    fn send_delivers_payload() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        p0.send(1, b"parcel bytes", 11).unwrap();
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!(ev.rid, 11);
        assert_eq!(ev.payload.as_deref(), Some(&b"parcel bytes"[..]));
        assert_eq!(p0.stats().sends, 1);
    }

    #[test]
    fn many_sends_wrap_the_ring() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::tiny());
        let (p0, p1) = (c.rank(0), c.rank(1));
        // Far more traffic than the 512-byte ring holds: exercises credits,
        // skips and wraparound. Consumer runs concurrently, but only once
        // the producer has filled the ring and stalled: the stall is what
        // the test asserts on, so the interleaving that produces it is
        // forced rather than left to the scheduler.
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..500u64 {
                    let payload = vec![i as u8; (i % 60) as usize];
                    p0.send(1, &payload, i).unwrap();
                }
            });
            s.spawn(|| {
                while p0.stats().credit_stalls == 0 {
                    std::thread::yield_now();
                }
                for i in 0..500u64 {
                    let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
                    assert_eq!(ev.rid, i, "in-order delivery");
                    assert_eq!(ev.payload.unwrap(), vec![i as u8; (i % 60) as usize]);
                }
            });
        });
        assert!(p0.stats().credit_stalls > 0, "ring pressure was exercised");
        assert!(p1.stats().credit_returns > 0);
    }

    #[test]
    fn ledger_backpressure_direct_puts() {
        let cfg = PhotonConfig { eager_threshold: 0, ..PhotonConfig::tiny() };
        let c = PhotonCluster::new(2, NetworkModel::ideal(), cfg);
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(64).unwrap();
        let dst = p1.register_buffer(64).unwrap();
        // 8-slot ledger: the 9th un-probed direct put must report no space.
        for i in 0..8 {
            assert!(p0.try_put_with_completion(1, &src, 0, 8, &dst.descriptor(), 0, i, i).unwrap());
        }
        assert!(!p0.try_put_with_completion(1, &src, 0, 8, &dst.descriptor(), 0, 9, 9).unwrap());
        assert!(p0.stats().credit_stalls > 0);
        // Once the peer probes, credits come back.
        for _ in 0..8 {
            p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        }
        assert!(p0.try_put_with_completion(1, &src, 0, 8, &dst.descriptor(), 0, 9, 9).unwrap());
    }

    #[test]
    fn plain_put_has_no_remote_event() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(8).unwrap();
        let dst = p1.register_buffer(8).unwrap();
        src.write_u64(0, 31337);
        p0.put(1, &src, 0, 8, &dst.descriptor(), 0, 4).unwrap();
        p0.wait_local(4).unwrap();
        assert_eq!(dst.read_u64(0), 31337);
        assert!(p1.poll_completion(ProbeFlags::Any).unwrap().is_none());
    }

    #[test]
    fn bounds_and_rank_checks() {
        let c = pair();
        let p0 = c.rank(0);
        let src = p0.register_buffer(8).unwrap();
        let d = src.descriptor();
        assert!(matches!(
            p0.put_with_completion(5, &src, 0, 8, &d, 0, 1, 1),
            Err(PhotonError::InvalidRank(5))
        ));
        assert!(matches!(
            p0.put_with_completion(1, &src, 4, 8, &d, 0, 1, 1),
            Err(PhotonError::OutOfRange { .. })
        ));
        assert!(matches!(
            p0.put_with_completion(1, &src, 0, 8, &d, 4, 1, 1),
            Err(PhotonError::OutOfRange { .. })
        ));
        let huge = vec![0u8; 1 << 20];
        assert!(matches!(p0.send(1, &huge, 1), Err(PhotonError::MessageTooLarge { .. })));
    }

    #[test]
    fn imm_completion_mode_delivers_direct_puts() {
        let cfg = PhotonConfig {
            eager_threshold: 0, // everything direct
            imm_completions: true,
            ..PhotonConfig::default()
        };
        let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), cfg);
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(4096).unwrap();
        let dst = p1.register_buffer(4096).unwrap();
        src.fill(0x42);
        p0.put_with_completion(1, &src, 0, 4096, &dst.descriptor(), 0, 1, 77).unwrap();
        p0.wait_local(1).unwrap();
        let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!((ev.rid, ev.size, ev.peer), (77, 4096, 0));
        assert_eq!(dst.to_vec(0, 8), vec![0x42; 8]);
        // No ledger entries were consumed for this put.
        assert_eq!(p1.stats().credit_returns, 0);
    }

    #[test]
    fn imm_mode_lacks_flow_control_cq_overflow() {
        // The documented trade: with CQ-notification and no credits, an
        // unprobed flood overruns the consumer's CQ and errors the producer.
        let fabric = photon_fabric::Cluster::with_config(
            2,
            NetworkModel::ideal(),
            photon_fabric::NicConfig { cq_depth: 32, ..photon_fabric::NicConfig::default() },
        );
        let cfg =
            PhotonConfig { eager_threshold: 0, imm_completions: true, ..PhotonConfig::default() };
        let c = PhotonCluster::with_fabric(fabric, cfg);
        let p0 = c.rank(0);
        let src = p0.register_buffer(8).unwrap();
        let dst = c.rank(1).register_buffer(8).unwrap();
        let d = dst.descriptor();
        let mut overflowed = false;
        for i in 0..64 {
            match p0.try_put_with_completion(1, &src, 0, 8, &d, 0, i, i) {
                Ok(true) => {}
                Err(PhotonError::Fabric(photon_fabric::FabricError::CqOverflow)) => {
                    overflowed = true;
                    break;
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(overflowed, "an unprobed flood must overflow the 32-deep CQ");
        // With the (default) ledger mode the same flood backpressures
        // cleanly instead.
        let fabric = photon_fabric::Cluster::with_config(
            2,
            NetworkModel::ideal(),
            photon_fabric::NicConfig { cq_depth: 32, ..photon_fabric::NicConfig::default() },
        );
        let cfg = PhotonConfig { eager_threshold: 0, ledger_entries: 8, ..PhotonConfig::default() };
        let c = PhotonCluster::with_fabric(fabric, cfg);
        let p0 = c.rank(0);
        let src = p0.register_buffer(8).unwrap();
        let dst = c.rank(1).register_buffer(8).unwrap();
        let d = dst.descriptor();
        let mut posted = 0;
        for i in 0..64 {
            if p0.try_put_with_completion(1, &src, 0, 8, &d, 0, i, i).unwrap() {
                posted += 1;
            } else {
                break;
            }
        }
        assert_eq!(posted, 8, "ledger mode stops cleanly at the credit limit");
    }

    #[test]
    fn eager_fast_path_avoids_staging_copies() {
        // The zero-alloc acceptance check: every eager put performs exactly
        // one direct MR→stage copy at TX and one in-place ring copy-out at
        // RX — no intermediate heap buffer on either side.
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(64).unwrap();
        let dst = p1.register_buffer(64).unwrap();
        let d = dst.descriptor();
        let n = 10u64;
        for i in 0..n {
            p0.put_with_completion(1, &src, 0, 8, &d, 0, i, i).unwrap();
            p0.wait_local(i).unwrap();
            p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        }
        assert_eq!(p0.stats().stage_copies_avoided, n, "one per TX staging");
        assert_eq!(p1.stats().stage_copies_avoided, n, "one per RX copy-out");
    }

    #[test]
    fn put_many_roundtrip_and_batch_stats() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(1024).unwrap();
        let dst = p1.register_buffer(1024).unwrap();
        let d = dst.descriptor();
        let items: Vec<PutManyItem> = (0..8usize)
            .map(|i| PutManyItem {
                loff: i * 16,
                len: 16,
                doff: i * 16,
                local_rid: 100 + i as u64,
                remote_rid: i as u64,
            })
            .collect();
        for (i, it) in items.iter().enumerate() {
            src.write_at(it.loff, &[i as u8 + 1; 16]);
        }
        assert_eq!(p0.try_put_many(1, &src, &d, &items).unwrap(), 8);
        // Remote completions surface per frame, in posting order, and the
        // data landed at each sub-put's destination.
        for (i, it) in items.iter().enumerate() {
            let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
            assert_eq!((ev.rid, ev.size), (i as u64, 16));
            assert_eq!(dst.to_vec(it.doff, 16), vec![i as u8 + 1; 16]);
        }
        // Every item's local completion surfaces off the one batched CQE.
        for it in &items {
            p0.wait_local(it.local_rid).unwrap();
        }
        let s = p0.stats();
        assert_eq!(s.puts_eager, 8);
        assert_eq!(s.batch_posts, 1, "one doorbell for the whole run");
        assert_eq!(s.frames_per_batch_5_16, 1);
        assert_eq!(s.stage_copies_avoided, 8);
    }

    #[test]
    fn put_many_mixes_eager_runs_and_ledger_entries() {
        // An oversized item in the middle splits the eager runs; the whole
        // batch still posts in order under one call.
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        let (p0, p1) = (c.rank(0), c.rank(1));
        let big = 16 * 1024; // above the default 8 KiB eager threshold
        let src = p0.register_buffer(big + 64).unwrap();
        let dst = p1.register_buffer(big + 64).unwrap();
        let d = dst.descriptor();
        src.fill(0x5A);
        let items = vec![
            PutManyItem { loff: 0, len: 8, doff: 0, local_rid: 100, remote_rid: 0 },
            PutManyItem { loff: 8, len: 8, doff: 8, local_rid: 101, remote_rid: 1 },
            PutManyItem { loff: 0, len: big, doff: 64, local_rid: 102, remote_rid: 2 },
            PutManyItem { loff: 16, len: 8, doff: 16, local_rid: 103, remote_rid: 3 },
        ];
        assert_eq!(p0.try_put_many(1, &src, &d, &items).unwrap(), 4);
        let mut rids = Vec::new();
        while rids.len() < 4 {
            if let Some(ev) = p1.poll_completion(ProbeFlags::Remote).unwrap() {
                rids.push(ev.rid);
            }
        }
        rids.sort_unstable();
        assert_eq!(rids, vec![0, 1, 2, 3]);
        assert_eq!(dst.to_vec(64, big), vec![0x5A; big]);
        for it in &items {
            p0.wait_local(it.local_rid).unwrap();
        }
        let s = p0.stats();
        assert_eq!((s.puts_eager, s.puts_direct), (3, 1));
        assert_eq!(s.batch_posts, 2, "the oversized item split the run in two");
    }

    #[test]
    fn batched_frames_stay_ordered_against_interleaved_ledger_entry() {
        // A doorbell batch is atomic in the peer's eager delivery order: an
        // interleaved direct put (ledger entry) never splits it, and eager
        // frames across batches surface in exact posting order.
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(64 * 1024).unwrap();
        let dst = p1.register_buffer(64 * 1024).unwrap();
        let d = dst.descriptor();
        let batch1: Vec<PutManyItem> = (0..2u64)
            .map(|i| PutManyItem {
                loff: i as usize * 8,
                len: 8,
                doff: i as usize * 8,
                local_rid: 100 + i,
                remote_rid: 1 + i,
            })
            .collect();
        assert_eq!(p0.try_put_many(1, &src, &d, &batch1).unwrap(), 2);
        // Interleaved ledger-path put (above the eager threshold).
        p0.put_with_completion(1, &src, 0, 16 * 1024, &d, 1024, 150, 50).unwrap();
        let batch2 = vec![PutManyItem { loff: 0, len: 8, doff: 64, local_rid: 103, remote_rid: 3 }];
        assert_eq!(p0.try_put_many(1, &src, &d, &batch2).unwrap(), 1);
        let mut rids = Vec::new();
        while rids.len() < 4 {
            if let Some(ev) = p1.poll_completion(ProbeFlags::Remote).unwrap() {
                rids.push(ev.rid);
            }
        }
        let eager_order: Vec<u64> = rids.iter().copied().filter(|r| *r != 50).collect();
        assert_eq!(eager_order, vec![1, 2, 3], "eager frames keep per-peer posting order");
        assert_eq!(rids.iter().filter(|r| **r == 50).count(), 1);
        let batch1_pos = rids.iter().position(|r| *r == 1).unwrap();
        let ledger_pos = rids.iter().position(|r| *r == 50).unwrap();
        assert!(
            ledger_pos < batch1_pos || ledger_pos > batch1_pos + 1,
            "ledger entry split a doorbell batch: {rids:?}"
        );
        for rid in [100, 101, 150, 103] {
            p0.wait_local(rid).unwrap();
        }
    }

    #[test]
    fn send_many_delivers_each_payload() {
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
        let (p0, p1) = (c.rank(0), c.rank(1));
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3 + i as usize]).collect();
        p0.send_many(1, &payloads, 7).unwrap();
        for want in &payloads {
            let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
            assert_eq!(ev.rid, 7);
            assert_eq!(ev.payload.as_deref(), Some(&want[..]));
        }
        let s = p0.stats();
        assert_eq!(s.sends, 5);
        assert_eq!(s.batch_posts, 1);
        assert_eq!(s.frames_per_batch_5_16, 1);
    }

    #[test]
    fn put_many_respects_credit_limits() {
        // A tiny ring takes only part of a large batch; the remainder posts
        // once the consumer probes, and nothing is lost or reordered.
        let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::tiny());
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(512).unwrap();
        let dst = p1.register_buffer(512).unwrap();
        let d = dst.descriptor();
        let items: Vec<PutManyItem> = (0..32u64)
            .map(|i| PutManyItem {
                loff: (i as usize % 16) * 8,
                len: 8,
                doff: (i as usize % 16) * 8,
                local_rid: 1000 + i,
                remote_rid: i,
            })
            .collect();
        let first = p0.try_put_many(1, &src, &d, &items).unwrap();
        assert!(first > 1 && first < 32, "tiny ring truncates the batch (got {first})");
        std::thread::scope(|s| {
            s.spawn(|| p0.put_many(1, &src, &d, &items[first..]).unwrap());
            s.spawn(|| {
                for i in 0..32u64 {
                    let ev = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
                    assert_eq!(ev.rid, i, "in-order delivery across partial batches");
                }
            });
        });
    }
}
