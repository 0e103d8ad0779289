//! The sockets NIC: the shared verbs [`Endpoint`] carried over UDP
//! datagrams.
//!
//! What is particular to this backend is the transport: per-peer reliable
//! channels, datagram trains, and the drain turn its reactor and its
//! pollers share (see [`super::reactor`]). One-sided semantics are
//! *emulated*: incoming write/read/atomic requests are executed by the
//! endpoint's target-side code on whichever thread holds the drain turn —
//! the standard software-RMA construction (and what Photon's original
//! sockets backend did). Posting encodes the work request's frames straight
//! from the source region into the channel's retransmit storage (so the
//! source buffer is reusable immediately, strictly stronger than verbs'
//! completion-gated reuse), and resolves the initiator completion when the
//! peer acknowledges (writes, sends) or responds (reads, atomics). A QP to
//! this node itself skips the wire: [`SockNic`] runs the same target-side
//! code inside the post.
//!
//! Timestamps are wall-clock nanoseconds relative to a job-wide epoch
//! distributed at bootstrap, clamped monotone per NIC, satisfying the
//! [`VTime`] contract the middleware's virtual clocks assume.

use super::chan::{Channel, Datagram, OpDone, TxWriter, Wire};
use super::reactor::{self, Turn, ARMED_WAIT, HOT_WINDOW};
use super::stats::{SockStats, SockStatsSnapshot};
use super::wire::{Body, F_HAS_IMM, F_LAST, MAX_FRAG};
use crate::backend::FabricBackend;
use crate::clock::VTime;
use crate::endpoint::{Endpoint, NicConfig};
use crate::error::{FabricError, Result};
use crate::verbs::{Atomic, Completion, CompletionKind, MrSlice, Qp, SendWr, WcStatus, WrOp};
use crate::NodeId;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A read or atomic in flight, awaiting its response packet.
#[derive(Debug)]
pub(super) struct PendingOp {
    pub wr_id: u64,
    pub signaled: bool,
    pub peer: NodeId,
    /// Local destination the response scatters into.
    pub local: MrSlice,
    /// True for atomics (response is one 8-byte old value).
    pub atomic: bool,
}

impl PendingOp {
    /// The completion this op resolves as (`old` matters to atomics only).
    pub fn kind(&self, old: u64) -> CompletionKind {
        if self.atomic {
            CompletionKind::AtomicDone { old }
        } else {
            CompletionKind::ReadDone
        }
    }
}

/// A send or write longer than one fragment, gathered until its last
/// fragment and then delivered or applied whole. Fragments arrive in
/// channel order, so each one appends.
#[derive(Debug)]
pub(super) struct Reasm {
    pub buf: Vec<u8>,
    /// A write's target `(addr, rkey)`, from its first fragment.
    pub target: (u64, u32),
    /// A write's stamp offsets, re-based to the whole write.
    pub stamps: Vec<usize>,
}

/// A sockets-transport fabric endpoint for one node.
///
/// Build with [`SockNic::bind`], wire with [`SockNic::start`] once every
/// peer's datagram address is known (bootstrap), then drive through the
/// [`crate::backend::FabricBackend`] surface exactly like the simulated
/// NIC.
#[derive(Debug)]
pub struct SockNic {
    pub(super) ep: Endpoint,
    n: usize,
    /// The receive side; only the drain-turn holder reads it.
    pub(super) sock: Arc<UdpSocket>,
    /// The transmit side and the counters, shared with every channel.
    wire: Arc<Wire>,
    /// Per-peer reliable channels, indexed by node id; set by `start`.
    pub(super) chans: OnceLock<Vec<Channel>>,
    next_op: AtomicU64,
    pub(super) pending: Mutex<HashMap<u64, PendingOp>>,
    /// Multi-fragment sends and writes in flight, by `(source, op id)`.
    pub(super) reasm: Mutex<HashMap<(NodeId, u64), Reasm>>,
    /// Job-wide wall-clock epoch (unix nanoseconds); timestamps are
    /// relative to it.
    epoch_ns: AtomicU64,
    /// Monotonicity floor for issued timestamps.
    vfloor: AtomicU64,
    /// Origin of `last_progress_ns`.
    born: Instant,
    /// When the owner last made a progress call (`poll_*_cq*`), in
    /// nanoseconds since `born`; 0 = never. The one observable the reactor
    /// decides armed-or-standby from. A statistic, not a publication:
    /// `Relaxed`.
    pub(super) last_progress_ns: AtomicU64,
    /// The reactor is armed (holds the turn, blocked in its wait): posts
    /// send at once instead of joining a train nobody would flush.
    pub(super) armed: AtomicBool,
    /// Some channel may hold an open train. Lets the progress call that has
    /// nothing to flush get away with one relaxed load.
    dirty: AtomicBool,
    /// The single-flight receive turn.
    pub(super) turn: Mutex<Turn>,
    pub(super) stop: AtomicBool,
    reactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SockNic {
    /// Bind a fresh endpoint for `node` of an `n`-rank job on a loopback
    /// UDP port chosen by the OS.
    pub fn bind(node: NodeId, n: usize) -> Result<Arc<SockNic>> {
        SockNic::bind_with(node, n, |sock| sock)
    }

    /// [`SockNic::bind`] with the transmit side chosen by `transport`,
    /// which is handed the endpoint's socket and returns what datagrams
    /// leave through (the socket itself, or a wrapper around it).
    pub(super) fn bind_with(
        node: NodeId,
        n: usize,
        transport: impl FnOnce(Arc<UdpSocket>) -> Arc<dyn Datagram>,
    ) -> Result<Arc<SockNic>> {
        let sock = UdpSocket::bind("127.0.0.1:0")
            .map_err(|e| FabricError::Io { what: format!("udp bind: {e}") })?;
        sock.set_read_timeout(Some(ARMED_WAIT))
            .map_err(|e| FabricError::Io { what: format!("udp timeout: {e}") })?;
        let sock = Arc::new(sock);
        let wire = Wire { out: transport(Arc::clone(&sock)), stats: SockStats::default() };
        Ok(Arc::new(SockNic {
            ep: Endpoint::new(node, NicConfig::default()),
            n,
            sock,
            wire: Arc::new(wire),
            chans: OnceLock::new(),
            next_op: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            reasm: Mutex::new(HashMap::new()),
            epoch_ns: AtomicU64::new(0),
            vfloor: AtomicU64::new(0),
            born: Instant::now(),
            last_progress_ns: AtomicU64::new(0),
            armed: AtomicBool::new(false),
            dirty: AtomicBool::new(false),
            turn: Mutex::new(Turn::new()),
            stop: AtomicBool::new(false),
            reactor: Mutex::new(None),
        }))
    }

    /// This endpoint's datagram address (exchange it at bootstrap).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.sock.local_addr().map_err(|e| FabricError::Io { what: format!("local addr: {e}") })
    }

    /// Wire the peer map and start the reactor thread. `peers[i]` is node
    /// `i`'s datagram address (this node's own entry is ignored);
    /// `epoch_ns` is the job-wide unix-nanosecond timestamp origin.
    pub fn start(self: &Arc<SockNic>, peers: Vec<SocketAddr>, epoch_ns: u64) -> Result<()> {
        if peers.len() != self.n {
            return Err(FabricError::Io {
                what: format!("peer map has {} entries for {}-rank job", peers.len(), self.n),
            });
        }
        self.epoch_ns.store(epoch_ns, Ordering::Release);
        let chans: Vec<Channel> = peers
            .iter()
            .enumerate()
            .map(|(i, a)| Channel::new(self.node(), i, *a, Arc::clone(&self.wire)))
            .collect();
        self.chans.set(chans).map_err(|_| FabricError::Io { what: "started twice".into() })?;
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("photon-sock-{}", self.node()))
            .spawn(move || reactor::run(me))
            .map_err(|e| FabricError::Io { what: format!("reactor spawn: {e}") })?;
        *self.reactor.lock() = Some(handle);
        Ok(())
    }

    /// Signal the reactor to exit and join it. Idempotent; also run on
    /// drop via [`super::SockCluster`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.reactor.lock().take() {
            // An armed reactor is blocked in its wait: an empty datagram to
            // our own address ends the wait now instead of at its timeout.
            if let Ok(addr) = self.sock.local_addr() {
                let _ = self.sock.send_to(&[], addr);
            }
            let _ = h.join();
        }
    }

    /// Current wall-clock virtual time: nanoseconds since the job epoch,
    /// clamped monotone per NIC.
    pub fn now_v(&self) -> VTime {
        let unix =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        let raw = unix.saturating_sub(self.epoch_ns.load(Ordering::Acquire));
        let prev = self.vfloor.fetch_max(raw, Ordering::AcqRel);
        VTime(raw.max(prev))
    }

    /// A snapshot of this endpoint's transport counters.
    pub fn stats(&self) -> SockStatsSnapshot {
        self.wire.stats.snapshot()
    }

    pub(super) fn counters(&self) -> &SockStats {
        &self.wire.stats
    }

    fn chan(&self, peer: NodeId) -> Result<&Channel> {
        self.chans.get().and_then(|c| c.get(peer)).ok_or(FabricError::NoSuchNode { node: peer })
    }

    // ------------------------------------------------------------- progress

    fn ns_since_born(&self, now: Instant) -> u64 {
        now.duration_since(self.born).as_nanos() as u64
    }

    /// Whether the owner made a progress call within [`HOT_WINDOW`] of `now`.
    pub(super) fn owner_is_hot(&self, now: Instant) -> bool {
        let last = self.last_progress_ns.load(Ordering::Relaxed);
        let idle = self.ns_since_born(now).saturating_sub(last);
        last != 0 && idle < HOT_WINDOW.as_nanos() as u64
    }

    /// Send every open train. One relaxed load when no post has queued
    /// anything since the last flush.
    pub(super) fn flush_trains(&self) {
        if self.dirty.load(Ordering::Relaxed) {
            self.flush_trains_now();
        }
    }

    /// [`SockNic::flush_trains`] for the reactor as it arms, where the read
    /// of the flag must be ordered after the store that armed it. The swap
    /// (not a load and a store) is what lets a post that sets the flag
    /// while the walk is under way keep it set for the next flush.
    pub(super) fn flush_trains_now(&self) {
        if self.dirty.swap(false, Ordering::SeqCst) {
            for ch in self.chans.get().into_iter().flatten() {
                ch.flush();
            }
        }
    }

    /// Queue frames on `ch` from the posting side. They ride the channel's
    /// open train if the owner is polling (the next progress call is the
    /// doorbell) and leave now if it is not: a first post ever, a
    /// post-and-forget. The reactor's `armed` flag is read as well as the
    /// clock because the two can disagree for a moment, and the order here
    /// is the other half of the reactor's arming sequence: the frames are
    /// queued and the endpoint marked dirty *before* `armed` is read, the
    /// reactor sets `armed` *before* it reads `dirty`, all four `SeqCst` —
    /// so either this post sees the reactor armed and sends now, or the
    /// arming reactor sees the endpoint dirty and sends for it. No frame is
    /// left for a timer.
    fn enqueue(&self, ch: &Channel, build: impl FnOnce(&mut TxWriter<'_>)) -> Option<bool> {
        ch.post(build, || {
            self.dirty.store(true, Ordering::SeqCst);
            let now = self.armed.load(Ordering::SeqCst) || !self.owner_is_hot(Instant::now());
            if now {
                SockStats::bump(&self.wire.stats.immediate_sends);
            }
            now
        })
    }

    /// Queue response frames generated inside a drain pass: they leave with
    /// the trains the pass flushes when it ends.
    pub(super) fn respond(&self, ch: &Channel, build: impl FnOnce(&mut TxWriter<'_>)) {
        let _ = ch.post(build, || false);
        self.dirty.store(true, Ordering::SeqCst);
    }

    /// An initiator-side completion. Resolved by an ack or a response, with
    /// nobody to refuse it to, so a full CQ drops it.
    pub(super) fn push_send_cqe(&self, c: Completion) {
        let _ = self.ep.send_cq().push(c);
    }

    /// Resolve the completions of a batch of acked frames, leaving `acked`
    /// empty for reuse.
    pub(super) fn complete_acked(&self, acked: &mut Vec<OpDone>, ts: VTime) {
        for d in acked.drain(..) {
            if !d.signaled {
                continue;
            }
            let status = if d.errored { WcStatus::FlushErr } else { WcStatus::Success };
            self.push_send_cqe(Completion { wr_id: d.wr_id, kind: d.kind, ts, status });
        }
    }

    /// Fail the channel to `peer`: error every QP to it and flush pending
    /// work as `RetryExceeded` completions.
    pub(super) fn fail_peer(&self, peer: NodeId) {
        let Ok(ch) = self.chan(peer) else { return };
        let mut flushed = Vec::new();
        ch.fail(&mut flushed);
        let ts = self.now_v();
        let status = WcStatus::RetryExceeded;
        for d in flushed {
            if d.signaled {
                self.push_send_cqe(Completion { wr_id: d.wr_id, kind: d.kind, ts, status });
            }
        }
        let mut dead_ops = Vec::new();
        self.pending.lock().retain(|_, p| {
            if p.peer == peer {
                dead_ops.push((p.wr_id, p.signaled, p.kind(0)));
            }
            p.peer != peer
        });
        for (wr_id, signaled, kind) in dead_ops {
            if signaled {
                self.push_send_cqe(Completion { wr_id, kind, ts, status });
            }
        }
        self.ep.each_qp(|st| {
            if st.qp.peer == peer {
                st.error.store(true, Ordering::Release);
            }
        });
        // Partial sends and writes from the peer can never complete.
        self.reasm.lock().retain(|&(src, _), _| src != peer);
    }

    // ------------------------------------------------------------ posting

    /// Refuse a post on an errored QP, or on one whose channel ran out of
    /// retries (which errors the QP).
    fn check_qp(&self, qp: Qp) -> Result<()> {
        self.ep.with_live_qp(qp, |st| {
            if qp.peer != self.node() && self.chan(qp.peer).is_ok_and(Channel::is_failed) {
                st.error.store(true, Ordering::Release);
                return Err(FabricError::PeerUnreachable { node: qp.peer });
            }
            Ok(())
        })
    }

    /// Execute `wr` on a QP to this node itself, synchronously, like the
    /// sim: the endpoint's target-side code runs inside the post, and
    /// effects and completions land before return (a refused send is
    /// refused to the poster).
    fn exec_loopback(&self, wr: &SendWr) -> Result<()> {
        let (ep, me, ts) = (&self.ep, self.node(), self.now_v());
        let atomic = |local: &MrSlice, addr, rkey, op| {
            let old = ep.apply_atomic(addr, rkey, op)?;
            local.mr.write_u64(local.offset, old);
            Ok::<_, FabricError>(CompletionKind::AtomicDone { old })
        };
        let kind = match &wr.op {
            WrOp::Send { local, imm } => {
                let data = local.mr.to_vec(local.offset, local.len);
                ep.deliver_send(me, Cow::Owned(data), *imm, ts)?;
                CompletionKind::SendDone
            }
            WrOp::Write { local, remote, imm } => {
                let payload = local.mr.to_vec(local.offset, local.len);
                ep.apply_write(remote.addr, remote.rkey, &payload, wr.stamps(), ts)?;
                if let Some(imm) = *imm {
                    ep.push_imm(me, local.len, imm, ts)?;
                }
                CompletionKind::WriteDone
            }
            WrOp::Read { local, remote } => {
                let (mr, off) = ep.read_source(remote.addr, remote.rkey, remote.len)?;
                local.mr.write_at(local.offset, &mr.to_vec(off, remote.len));
                CompletionKind::ReadDone
            }
            WrOp::FetchAdd { local, remote, add } => {
                atomic(local, remote.addr, remote.rkey, Atomic::FetchAdd(*add))?
            }
            WrOp::CompareSwap { local, remote, compare, swap } => {
                let op = Atomic::CompareSwap { compare: *compare, swap: *swap };
                atomic(local, remote.addr, remote.rkey, op)?
            }
        };
        if wr.signaled {
            ep.send_cq().push(Completion {
                wr_id: wr.wr_id,
                kind,
                ts,
                status: WcStatus::Success,
            })?;
        }
        Ok(())
    }

    /// Sequence `wr` toward `peer` and encode its frames, payload copied
    /// once: from the source region into the channel's retransmit storage.
    fn encode_wr(&self, w: &mut TxWriter<'_>, peer: NodeId, wr: &SendWr) {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let done =
            |kind| OpDone { op, wr_id: wr.wr_id, signaled: wr.signaled, kind, errored: false };
        let await_response = |local: &MrSlice, atomic| {
            let (wr_id, signaled, local) = (wr.wr_id, wr.signaled, local.clone());
            self.pending.lock().insert(op, PendingOp { wr_id, signaled, peer, local, atomic });
        };
        let last_flags = |last: bool, imm: &Option<u64>| match (last, imm) {
            (false, _) => 0,
            (true, None) => F_LAST,
            (true, Some(_)) => F_LAST | F_HAS_IMM,
        };
        match &wr.op {
            WrOp::Send { local, imm } => {
                local.mr.with_bytes(|b| {
                    for (at, n, last) in fragments(local.len) {
                        let body = Body::Send {
                            total: local.len as u32,
                            frag_off: at as u32,
                            imm: imm.unwrap_or(0),
                            payload: &b[local.offset + at..local.offset + at + n],
                        };
                        w.frame(last_flags(last, imm), op, body);
                    }
                });
                w.complete_on_ack(done(CompletionKind::SendDone));
            }
            WrOp::Write { local, remote, imm } => {
                local.mr.with_bytes(|b| {
                    for (at, n, last) in fragments(local.len) {
                        // Stamps whose 8 bytes fall inside this fragment,
                        // re-based to it.
                        let stamps = wr
                            .stamps()
                            .filter(|&s| s >= at && s + 8 <= at + n)
                            .map(|s| (s - at) as u32);
                        w.write_frame(
                            last_flags(last, imm),
                            op,
                            remote.addr + at as u64,
                            remote.rkey,
                            local.len as u32,
                            imm.unwrap_or(0),
                            stamps,
                            &b[local.offset + at..local.offset + at + n],
                        );
                    }
                });
                w.complete_on_ack(done(CompletionKind::WriteDone));
            }
            WrOp::Read { local, remote } => {
                await_response(local, false);
                let (addr, rkey, len) = (remote.addr, remote.rkey, remote.len as u32);
                w.frame(F_LAST, op, Body::ReadReq { addr, rkey, len });
            }
            WrOp::FetchAdd { local, remote, add } => {
                await_response(local, true);
                let (addr, rkey, atomic) = (remote.addr, remote.rkey, Atomic::FetchAdd(*add));
                w.frame(F_LAST, op, Body::AtomicReq { addr, rkey, atomic });
            }
            WrOp::CompareSwap { local, remote, compare, swap } => {
                await_response(local, true);
                let (addr, rkey) = (remote.addr, remote.rkey);
                let atomic = Atomic::CompareSwap { compare: *compare, swap: *swap };
                w.frame(F_LAST, op, Body::AtomicReq { addr, rkey, atomic });
            }
        }
    }
}

impl FabricBackend for SockNic {
    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    /// Each wr is executed by reference. RC ordering holds because all
    /// frames ride one in-order channel. The whole run is sequenced under
    /// one hold of the channel's transmit lock and leaves as trains.
    fn post_send_many(&self, qp: Qp, wrs: &[SendWr], _now: VTime) -> Result<()> {
        self.check_qp(qp)?;
        if qp.peer == self.node() {
            return wrs.iter().try_for_each(|wr| {
                self.ep.admit(wr)?;
                self.exec_loopback(wr)
            });
        }
        let ch = self.chan(qp.peer)?;
        let mut run = Ok(());
        let window_full = self.enqueue(ch, |w| {
            run = wrs.iter().try_for_each(|wr| {
                self.ep.admit(wr)?;
                self.encode_wr(w, qp.peer, wr);
                Ok(())
            });
        });
        match window_full {
            None => return Err(FabricError::PeerUnreachable { node: qp.peer }),
            // The window is full of frames nobody has acked yet: take a
            // drain turn for the acks (not a progress call — posting says
            // nothing about whether the owner polls).
            Some(true) => reactor::caller_turn(self, Instant::now()),
            Some(false) => {}
        }
        run
    }

    /// A failed channel reports `RetryExceeded` (the sockets transport
    /// cannot distinguish a dead process from a broken path).
    fn node_status(&self, peer: NodeId, _now: VTime) -> Option<WcStatus> {
        match self.chan(peer) {
            Ok(ch) if ch.is_failed() => Some(WcStatus::RetryExceeded),
            _ => None,
        }
    }

    /// A progress call by the endpoint's owner: note the time (the
    /// reactor's one observable) and take a drain turn on this thread,
    /// which receives and executes whatever has arrived before the poll
    /// reads its CQ (the [`crate::sock`] module docs have the progress
    /// model).
    fn progress(&self) {
        let now = Instant::now();
        self.last_progress_ns.store(self.ns_since_born(now).max(1), Ordering::Relaxed);
        reactor::caller_turn(self, now);
    }
}

impl Drop for SockNic {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Cut a `total`-byte transfer into `(offset, len, is_last)` fragments of
/// at most [`MAX_FRAG`] bytes; an empty transfer is one empty fragment.
pub(super) fn fragments(total: usize) -> impl Iterator<Item = (usize, usize, bool)> {
    let mut next = Some(0);
    std::iter::from_fn(move || {
        let at = next?;
        let n = (total - at).min(MAX_FRAG);
        let last = at + n == total;
        next = (!last).then_some(at + n);
        Some((at, n, last))
    })
}
