//! The sockets NIC: verbs-shaped endpoint over UDP datagrams.
//!
//! One-sided semantics are *emulated*: incoming write/read/atomic requests
//! are executed against the locally registered [`MrTable`] by whichever
//! thread holds the endpoint's drain turn (see [`super::reactor`]) — the
//! standard software-RMA construction (and what Photon's original sockets
//! backend did). Posting encodes the work request's frames straight from
//! the source region into the per-peer reliable channel's retransmit
//! storage (so the source buffer is reusable immediately, strictly stronger
//! than verbs' completion-gated reuse), and resolves the initiator
//! completion when the peer acknowledges (writes, sends) or responds
//! (reads, atomics).
//!
//! Timestamps are wall-clock nanoseconds relative to a job-wide epoch
//! distributed at bootstrap, clamped monotone per NIC, satisfying the
//! [`VTime`] contract the middleware's virtual clocks assume.

use super::chan::{Channel, Datagram, OpDone, TxWriter, Wire};
use super::reactor::{self, Turn, ARMED_WAIT, HOT_WINDOW};
use super::stats::{SockStats, SockStatsSnapshot};
use super::wire::{AtomicKind, Body, F_HAS_IMM, F_LAST, MAX_FRAG};
use crate::clock::VTime;
use crate::error::{FabricError, Result};
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::verbs::{
    Completion, CompletionKind, Cq, MrSlice, Qp, RecvWr, SendWr, WcStatus, WrOp, DEFAULT_CQ_DEPTH,
};
use crate::NodeId;
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Unexpected two-sided sends parked per NIC before new ones are dropped
/// (the reliable channel will have acked them; parking beyond the cap
/// trades the sim's synchronous RNR error for bounded memory).
pub const SOCK_PENDING_SEND_CAP: usize = 8192;

#[derive(Debug)]
struct SockQp {
    qp: Qp,
    error: AtomicBool,
}

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

#[derive(Debug)]
pub(super) struct ParkedSend {
    pub src: NodeId,
    pub data: Vec<u8>,
    pub imm: Option<u64>,
}

#[derive(Debug, Default)]
pub(super) struct SockRecvState {
    pub posted: VecDeque<RecvWr>,
    pub pending: VecDeque<ParkedSend>,
}

/// In-progress reassembly of a fragmented two-sided send.
#[derive(Debug)]
pub(super) struct SendReasm {
    pub buf: Vec<u8>,
    pub received: usize,
    pub imm: Option<u64>,
}

/// A sockets-transport fabric endpoint for one node.
///
/// Build with [`SockNic::bind`], wire with [`SockNic::start`] once every
/// peer's datagram address is known (bootstrap), then drive through the
/// [`crate::backend::FabricBackend`] surface exactly like the simulated
/// NIC.
#[derive(Debug)]
pub struct SockNic {
    node: NodeId,
    n: usize,
    mrs: MrTable,
    send_cq: Cq,
    recv_cq: Cq,
    /// The receive side; only the drain-turn holder reads it.
    pub(super) sock: Arc<UdpSocket>,
    /// The transmit side and the counters, shared with every channel.
    wire: Arc<Wire>,
    /// Per-peer reliable channels, indexed by node id; set by `start`.
    pub(super) chans: OnceLock<Vec<Channel>>,
    qps: RwLock<HashMap<u32, Arc<SockQp>>>,
    next_qp: AtomicU32,
    next_op: AtomicU64,
    pub(super) pending: Mutex<HashMap<u64, PendingOp>>,
    pub(super) rq: Mutex<SockRecvState>,
    pub(super) reasm: Mutex<HashMap<(NodeId, u64), SendReasm>>,
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
            node,
            n,
            mrs: MrTable::new(node),
            send_cq: Cq::new(DEFAULT_CQ_DEPTH),
            recv_cq: Cq::new(DEFAULT_CQ_DEPTH),
            sock,
            wire: Arc::new(wire),
            chans: OnceLock::new(),
            qps: RwLock::new(HashMap::new()),
            next_qp: AtomicU32::new(1),
            next_op: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            rq: Mutex::new(SockRecvState::default()),
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
            .map(|(i, a)| Channel::new(self.node, i, *a, Arc::clone(&self.wire)))
            .collect();
        self.chans.set(chans).map_err(|_| FabricError::Io { what: "started twice".into() })?;
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("photon-sock-{}", self.node))
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

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Job size.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The registration table.
    pub fn mrs(&self) -> &MrTable {
        &self.mrs
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

    /// A progress call by the endpoint's owner: note the time (the
    /// reactor's one observable) and take a drain turn on this thread.
    fn progress(&self) {
        let now = Instant::now();
        self.last_progress_ns.store(self.ns_since_born(now).max(1), Ordering::Relaxed);
        reactor::caller_turn(self, now);
    }

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

    pub(super) fn push_send_cqe(&self, c: Completion) {
        let _ = self.send_cq.push(c);
    }

    pub(super) fn push_recv_cqe(&self, c: Completion) {
        let _ = self.recv_cq.push(c);
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
        for st in self.qps.read().values() {
            if st.qp.peer == peer {
                st.error.store(true, Ordering::Release);
            }
        }
    }

    // ------------------------------------------------------------ verbs API

    /// Register a zeroed region of `len` bytes.
    pub fn register(&self, len: usize, flags: Access) -> Result<MemoryRegion> {
        self.mrs.register(len, flags)
    }

    /// Create a reliable-connected QP to `peer`.
    pub fn create_qp(&self, peer: NodeId) -> Result<Qp> {
        if peer >= self.n {
            return Err(FabricError::NoSuchNode { node: peer });
        }
        let num = self.next_qp.fetch_add(1, Ordering::Relaxed);
        let qp = Qp { num, node: self.node, peer };
        self.qps.write().insert(num, Arc::new(SockQp { qp, error: AtomicBool::new(false) }));
        Ok(qp)
    }

    /// Destroy a QP; subsequent posts on it fail.
    pub fn destroy_qp(&self, qp: Qp) -> Result<()> {
        self.qps.write().remove(&qp.num).map(|_| ()).ok_or(FabricError::NoSuchQp { qp: qp.num })
    }

    /// Clear a QP's error state (the channel itself stays failed once its
    /// retry budget is gone — reset only helps transient QP-level errors).
    pub fn reset_qp(&self, qp: Qp) -> Result<()> {
        let st = self
            .qps
            .read()
            .get(&qp.num)
            .filter(|st| st.qp == qp)
            .cloned()
            .ok_or(FabricError::NoSuchQp { qp: qp.num })?;
        st.error.store(false, Ordering::Release);
        Ok(())
    }

    /// True when `qp` is in the error state.
    pub fn qp_errored(&self, qp: Qp) -> bool {
        self.qps
            .read()
            .get(&qp.num)
            .is_some_and(|st| st.qp == qp && st.error.load(Ordering::Acquire))
    }

    /// Reachability verdict for `peer`: a failed channel reports
    /// `RetryExceeded` (the sockets transport cannot distinguish a dead
    /// process from a broken path).
    pub fn node_status(&self, peer: NodeId) -> Option<WcStatus> {
        match self.chans.get().and_then(|c| c.get(peer)) {
            Some(ch) if ch.is_failed() => Some(WcStatus::RetryExceeded),
            _ => None,
        }
    }

    /// Poll one initiator-side completion. Like every `poll_*` call, a
    /// progress call: it first receives and executes, on this thread,
    /// whatever has arrived (the [`crate::sock`] module docs have the
    /// progress model).
    pub fn poll_send_cq(&self) -> Option<Completion> {
        self.progress();
        self.send_cq.poll()
    }

    /// Poll one target-side completion.
    pub fn poll_recv_cq(&self) -> Option<Completion> {
        self.progress();
        self.recv_cq.poll()
    }

    /// Drain up to `n` initiator-side completions into `out`.
    pub fn poll_send_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.progress();
        self.send_cq.poll_n_into(n, out)
    }

    /// Drain up to `n` target-side completions into `out`.
    pub fn poll_recv_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.progress();
        self.recv_cq.poll_n_into(n, out)
    }

    /// Post a receive for the next matching two-sided send.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        wr.local.check()?;
        self.check_local(&wr.local)?;
        let mut rq = self.rq.lock();
        if let Some(p) = rq.pending.pop_front() {
            drop(rq);
            self.complete_recv(wr, p.src, &p.data, p.imm);
            return Ok(());
        }
        rq.posted.push_back(wr);
        Ok(())
    }

    /// Match `wr` with a landed send: scatter and complete.
    fn complete_recv(&self, wr: RecvWr, src: NodeId, data: &[u8], imm: Option<u64>) {
        let n = data.len().min(wr.local.len);
        wr.local.mr.write_at(wr.local.offset, &data[..n]);
        self.push_recv_cqe(Completion {
            wr_id: wr.wr_id,
            kind: CompletionKind::RecvDone { src, len: data.len(), imm },
            ts: self.now_v(),
            status: WcStatus::Success,
        });
    }

    /// Deliver a whole two-sided send: into a posted receive straight from
    /// wherever `data` lives (the datagram buffer, for an unfragmented
    /// send), or parked — the only case that needs it owned.
    pub(super) fn deliver_send(&self, src: NodeId, data: Cow<'_, [u8]>, imm: Option<u64>) {
        let mut rq = self.rq.lock();
        if let Some(wr) = rq.posted.pop_front() {
            drop(rq);
            self.complete_recv(wr, src, &data, imm);
        } else if rq.pending.len() < SOCK_PENDING_SEND_CAP {
            rq.pending.push_back(ParkedSend { src, data: data.into_owned(), imm });
        }
        // Past the cap the send is dropped after ack — the bounded-memory
        // analogue of the sim's synchronous RNR error.
    }

    fn check_local(&self, s: &MrSlice) -> Result<()> {
        if s.mr.node() != self.node {
            return Err(FabricError::InvalidLkey { lkey: s.mr.lkey() });
        }
        self.mrs.lookup_lkey(s.mr.lkey())?;
        Ok(())
    }

    fn qp_state(&self, qp: Qp) -> Result<Arc<SockQp>> {
        let st = self
            .qps
            .read()
            .get(&qp.num)
            .filter(|st| st.qp == qp)
            .cloned()
            .ok_or(FabricError::NoSuchQp { qp: qp.num })?;
        if st.error.load(Ordering::Acquire) {
            return Err(FabricError::PeerUnreachable { node: qp.peer });
        }
        if qp.peer != self.node {
            if let Some(ch) = self.chans.get().and_then(|c| c.get(qp.peer)) {
                if ch.is_failed() {
                    st.error.store(true, Ordering::Release);
                    return Err(FabricError::PeerUnreachable { node: qp.peer });
                }
            }
        }
        Ok(st)
    }

    /// Post one work request: the one-element run.
    pub fn post_send(&self, qp: Qp, wr: SendWr, now: VTime) -> Result<()> {
        self.post_send_many(qp, std::slice::from_ref(&wr), now)
    }

    /// Post a run of work requests, each executed by reference. RC ordering
    /// holds because all frames ride one in-order channel; stops at the
    /// first failing wr. The whole run is sequenced under one hold of the
    /// channel's transmit lock and leaves as trains.
    pub fn post_send_many(&self, qp: Qp, wrs: &[SendWr], _now: VTime) -> Result<()> {
        let _st = self.qp_state(qp)?;
        if qp.peer == self.node {
            return wrs.iter().try_for_each(|wr| {
                self.validate_wr(wr)?;
                self.exec_loopback(wr)
            });
        }
        let ch = self.chan(qp.peer)?;
        let mut run = Ok(());
        let window_full = self.enqueue(ch, |w| {
            run = wrs.iter().try_for_each(|wr| {
                self.validate_wr(wr)?;
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

    fn validate_wr(&self, wr: &SendWr) -> Result<()> {
        let local = match &wr.op {
            WrOp::Send { local, .. }
            | WrOp::Write { local, .. }
            | WrOp::Read { local, .. }
            | WrOp::FetchAdd { local, .. }
            | WrOp::CompareSwap { local, .. } => local,
        };
        local.check()?;
        self.check_local(local)?;
        match &wr.op {
            WrOp::Write { local, remote, .. } | WrOp::Read { local, remote } => {
                if local.len != remote.len {
                    return Err(FabricError::LengthMismatch {
                        local: local.len,
                        remote: remote.len,
                    });
                }
            }
            WrOp::FetchAdd { local, remote, .. } | WrOp::CompareSwap { local, remote, .. } => {
                if local.len != 8 || remote.len != 8 {
                    return Err(FabricError::BadAtomicTarget {
                        addr: remote.addr,
                        len: remote.len,
                    });
                }
            }
            WrOp::Send { .. } => {}
        }
        Ok(())
    }

    /// Emulate the wr locally for a loopback QP (synchronous, like the
    /// sim: effects and completions land before return).
    fn exec_loopback(&self, wr: &SendWr) -> Result<()> {
        let ts = self.now_v();
        match &wr.op {
            WrOp::Send { local, imm } => {
                let data = local.mr.to_vec(local.offset, local.len);
                self.deliver_send(self.node, Cow::Owned(data), *imm);
                if wr.signaled {
                    self.push_send_cqe(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::SendDone,
                        ts,
                        status: WcStatus::Success,
                    });
                }
            }
            WrOp::Write { local, remote, imm } => {
                let mut payload = local.mr.to_vec(local.offset, local.len);
                for &s in wr.stamp_deliver_at.iter().chain(&wr.stamp_deliver_also) {
                    if let Some(slot) = payload.get_mut(s..s + 8) {
                        slot.copy_from_slice(&ts.0.to_le_bytes());
                    }
                }
                let (mr, off) =
                    self.mrs.resolve(remote.addr, remote.rkey, remote.len, Access::REMOTE_WRITE)?;
                mr.write_at(off, &payload);
                if let Some(imm) = imm {
                    self.push_recv_cqe(Completion {
                        wr_id: 0,
                        kind: CompletionKind::ImmDone { src: self.node, len: local.len, imm: *imm },
                        ts,
                        status: WcStatus::Success,
                    });
                }
                if wr.signaled {
                    self.push_send_cqe(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::WriteDone,
                        ts,
                        status: WcStatus::Success,
                    });
                }
            }
            WrOp::Read { local, remote } => {
                let (mr, off) =
                    self.mrs.resolve(remote.addr, remote.rkey, remote.len, Access::REMOTE_READ)?;
                let data = mr.to_vec(off, remote.len);
                local.mr.write_at(local.offset, &data);
                if wr.signaled {
                    self.push_send_cqe(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::ReadDone,
                        ts,
                        status: WcStatus::Success,
                    });
                }
            }
            WrOp::FetchAdd { local, remote, add } => {
                let old = self.serve_atomic_local(remote.addr, remote.rkey, |mr, off| {
                    mr.fetch_add_u64(off, *add)
                })?;
                local.mr.write_u64(local.offset, old);
                if wr.signaled {
                    self.push_send_cqe(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::AtomicDone { old },
                        ts,
                        status: WcStatus::Success,
                    });
                }
            }
            WrOp::CompareSwap { local, remote, compare, swap } => {
                let old = self.serve_atomic_local(remote.addr, remote.rkey, |mr, off| {
                    mr.compare_swap_u64(off, *compare, *swap)
                })?;
                local.mr.write_u64(local.offset, old);
                if wr.signaled {
                    self.push_send_cqe(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::AtomicDone { old },
                        ts,
                        status: WcStatus::Success,
                    });
                }
            }
        }
        Ok(())
    }

    /// Resolve + execute an atomic against local memory (loopback and
    /// reactor service path share this).
    pub(super) fn serve_atomic_local(
        &self,
        addr: u64,
        rkey: u32,
        op: impl FnOnce(&MemoryRegion, usize) -> u64,
    ) -> Result<u64> {
        let (mr, off) = self.mrs.resolve(addr, rkey, 8, Access::REMOTE_ATOMIC)?;
        if off % 8 != 0 {
            return Err(FabricError::BadAtomicTarget { addr, len: 8 });
        }
        Ok(op(&mr, off))
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
                        let stamps = (wr.stamp_deliver_at.iter())
                            .chain(&wr.stamp_deliver_also)
                            .filter(|&&s| s >= at && s + 8 <= at + n)
                            .map(|&s| (s - at) as u32);
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
                let akind = AtomicKind::FetchAdd;
                let (addr, rkey) = (remote.addr, remote.rkey);
                w.frame(F_LAST, op, Body::AtomicReq { addr, rkey, akind, arg1: *add, arg2: 0 });
            }
            WrOp::CompareSwap { local, remote, compare, swap } => {
                await_response(local, true);
                let akind = AtomicKind::CompareSwap;
                let (addr, rkey, arg1, arg2) = (remote.addr, remote.rkey, *compare, *swap);
                w.frame(F_LAST, op, Body::AtomicReq { addr, rkey, akind, arg1, arg2 });
            }
        }
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
