//! The sockets NIC: verbs-shaped endpoint over UDP datagrams.
//!
//! One-sided semantics are *emulated*: every process runs a reactor thread
//! (see [`super::reactor`]) that executes incoming write/read/atomic
//! requests against the locally registered [`MrTable`] — the standard
//! software-RMA construction (and what Photon's original sockets backend
//! did). Posting gathers the payload synchronously (so the source buffer is
//! reusable immediately, strictly stronger than verbs' completion-gated
//! reuse), hands framed packets to the per-peer reliable channel, and
//! resolves the initiator completion when the peer acknowledges (writes,
//! sends) or responds (reads, atomics).
//!
//! Timestamps are wall-clock nanoseconds relative to a job-wide epoch
//! distributed at bootstrap, clamped monotone per NIC, satisfying the
//! [`VTime`] contract the middleware's virtual clocks assume.

use super::chan::{Channel, OpDone};
use super::wire::{AtomicKind, Body, Packet, F_HAS_IMM, F_LAST, MAX_FRAG};
use crate::clock::VTime;
use crate::error::{FabricError, Result};
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::verbs::{
    Completion, CompletionKind, Cq, MrSlice, Qp, RecvWr, SendWr, WcStatus, WrOp, DEFAULT_CQ_DEPTH,
};
use crate::NodeId;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

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
    pub(super) sock: UdpSocket,
    /// Per-peer reliable channels, indexed by node id; set by `start`.
    pub(super) chans: OnceLock<Vec<Arc<Channel>>>,
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
    pub(super) stop: AtomicBool,
    reactor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SockNic {
    /// Bind a fresh endpoint for `node` of an `n`-rank job on a loopback
    /// UDP port chosen by the OS.
    pub fn bind(node: NodeId, n: usize) -> Result<Arc<SockNic>> {
        let sock = UdpSocket::bind("127.0.0.1:0")
            .map_err(|e| FabricError::Io { what: format!("udp bind: {e}") })?;
        sock.set_read_timeout(Some(std::time::Duration::from_millis(1)))
            .map_err(|e| FabricError::Io { what: format!("udp timeout: {e}") })?;
        Ok(Arc::new(SockNic {
            node,
            n,
            mrs: MrTable::new(node),
            send_cq: Cq::new(DEFAULT_CQ_DEPTH),
            recv_cq: Cq::new(DEFAULT_CQ_DEPTH),
            sock,
            chans: OnceLock::new(),
            qps: RwLock::new(HashMap::new()),
            next_qp: AtomicU32::new(1),
            next_op: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            rq: Mutex::new(SockRecvState::default()),
            reasm: Mutex::new(HashMap::new()),
            epoch_ns: AtomicU64::new(0),
            vfloor: AtomicU64::new(0),
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
        let chans: Vec<Arc<Channel>> =
            peers.iter().enumerate().map(|(i, a)| Arc::new(Channel::new(i, *a))).collect();
        self.chans.set(chans).map_err(|_| FabricError::Io { what: "started twice".into() })?;
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("photon-sock-{}", self.node))
            .spawn(move || super::reactor::run(me))
            .map_err(|e| FabricError::Io { what: format!("reactor spawn: {e}") })?;
        *self.reactor.lock() = Some(handle);
        Ok(())
    }

    /// Signal the reactor to exit and join it. Idempotent; also run on
    /// drop via [`super::SockCluster`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.reactor.lock().take() {
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

    fn chan(&self, peer: NodeId) -> Result<&Arc<Channel>> {
        self.chans.get().and_then(|c| c.get(peer)).ok_or(FabricError::NoSuchNode { node: peer })
    }

    pub(super) fn push_send_cqe(&self, c: Completion) {
        let _ = self.send_cq.push(c);
    }

    pub(super) fn push_recv_cqe(&self, c: Completion) {
        let _ = self.recv_cq.push(c);
    }

    /// Resolve the completions of a batch of acked frames.
    pub(super) fn complete_acked(&self, _peer: NodeId, acked: Vec<OpDone>) {
        let ts = self.now_v();
        for d in acked {
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
        let flushed = ch.fail();
        let ts = self.now_v();
        for d in flushed {
            if d.signaled {
                self.push_send_cqe(Completion {
                    wr_id: d.wr_id,
                    kind: d.kind,
                    ts,
                    status: WcStatus::RetryExceeded,
                });
            }
        }
        let mut dead_ops = Vec::new();
        {
            let mut pend = self.pending.lock();
            pend.retain(|_, p| {
                if p.peer == peer {
                    dead_ops.push((p.wr_id, p.signaled, p.atomic));
                    false
                } else {
                    true
                }
            });
        }
        for (wr_id, signaled, atomic) in dead_ops {
            if signaled {
                let kind = if atomic {
                    CompletionKind::AtomicDone { old: 0 }
                } else {
                    CompletionKind::ReadDone
                };
                self.push_send_cqe(Completion { wr_id, kind, ts, status: WcStatus::RetryExceeded });
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

    /// Poll one initiator-side completion.
    pub fn poll_send_cq(&self) -> Option<Completion> {
        self.send_cq.poll()
    }

    /// Poll one target-side completion.
    pub fn poll_recv_cq(&self) -> Option<Completion> {
        self.recv_cq.poll()
    }

    /// Drain up to `n` initiator-side completions into `out`.
    pub fn poll_send_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.send_cq.poll_n_into(n, out)
    }

    /// Drain up to `n` target-side completions into `out`.
    pub fn poll_recv_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.recv_cq.poll_n_into(n, out)
    }

    /// Post a receive for the next matching two-sided send.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        wr.local.check()?;
        self.check_local(&wr.local)?;
        let mut rq = self.rq.lock();
        if let Some(p) = rq.pending.pop_front() {
            drop(rq);
            self.complete_recv(wr, p);
            return Ok(());
        }
        rq.posted.push_back(wr);
        Ok(())
    }

    /// Match `wr` with a landed send: scatter and complete.
    pub(super) fn complete_recv(&self, wr: RecvWr, p: ParkedSend) {
        let n = p.data.len().min(wr.local.len);
        wr.local.mr.write_at(wr.local.offset, &p.data[..n]);
        self.push_recv_cqe(Completion {
            wr_id: wr.wr_id,
            kind: CompletionKind::RecvDone { src: p.src, len: p.data.len(), imm: p.imm },
            ts: self.now_v(),
            status: WcStatus::Success,
        });
    }

    /// Deliver a fully reassembled two-sided send (reactor side).
    pub(super) fn deliver_send(&self, src: NodeId, data: Vec<u8>, imm: Option<u64>) {
        let mut rq = self.rq.lock();
        if let Some(wr) = rq.posted.pop_front() {
            drop(rq);
            self.complete_recv(wr, ParkedSend { src, data, imm });
        } else if rq.pending.len() < SOCK_PENDING_SEND_CAP {
            rq.pending.push_back(ParkedSend { src, data, imm });
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
    /// first failing wr.
    pub fn post_send_many(&self, qp: Qp, wrs: &[SendWr], _now: VTime) -> Result<()> {
        for wr in wrs {
            let _st = self.qp_state(qp)?;
            self.validate_wr(wr)?;
            if qp.peer == self.node {
                self.exec_loopback(wr)?;
            } else {
                self.transmit_wr(qp.peer, wr)?;
            }
        }
        Ok(())
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

    /// Gather the local payload and stamp-offset list of a send/write wr.
    fn gather(&self, local: &MrSlice, wr: &SendWr) -> (Vec<u8>, Vec<u32>) {
        let payload = local.mr.to_vec(local.offset, local.len);
        let mut stamps = Vec::new();
        if let Some(off) = wr.stamp_deliver_at {
            stamps.push(off as u32);
        }
        for &off in &wr.stamp_deliver_also {
            stamps.push(off as u32);
        }
        (payload, stamps)
    }

    /// Emulate the wr locally for a loopback QP (synchronous, like the
    /// sim: effects and completions land before return).
    fn exec_loopback(&self, wr: &SendWr) -> Result<()> {
        let ts = self.now_v();
        match &wr.op {
            WrOp::Send { local, imm } => {
                let data = local.mr.to_vec(local.offset, local.len);
                self.deliver_send(self.node, data, *imm);
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
                let (mut payload, stamps) = self.gather(local, wr);
                stamp_payload(&mut payload, &stamps, 0, ts);
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

    /// Frame and transmit a wr toward a remote peer.
    fn transmit_wr(&self, peer: NodeId, wr: &SendWr) -> Result<()> {
        let ch = self.chan(peer)?;
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        let (packets, done, pending) = match &wr.op {
            WrOp::Send { local, imm } => {
                let (payload, _) = self.gather(local, wr);
                let pkts = frag_send(self.node, peer, op, payload, *imm);
                let done = OpDone {
                    op,
                    wr_id: wr.wr_id,
                    signaled: wr.signaled,
                    kind: CompletionKind::SendDone,
                    errored: false,
                };
                (pkts, Some(done), None)
            }
            WrOp::Write { local, remote, imm } => {
                let (payload, stamps) = self.gather(local, wr);
                let pkts = frag_write(
                    self.node,
                    peer,
                    op,
                    remote.addr,
                    remote.rkey,
                    payload,
                    stamps,
                    *imm,
                );
                let done = OpDone {
                    op,
                    wr_id: wr.wr_id,
                    signaled: wr.signaled,
                    kind: CompletionKind::WriteDone,
                    errored: false,
                };
                (pkts, Some(done), None)
            }
            WrOp::Read { local, remote } => {
                let pkt = Packet {
                    flags: F_LAST,
                    src: self.node,
                    dst: peer,
                    seq: 0,
                    ack: 0,
                    op,
                    body: Body::ReadReq {
                        addr: remote.addr,
                        rkey: remote.rkey,
                        len: remote.len as u32,
                    },
                };
                let p = PendingOp {
                    wr_id: wr.wr_id,
                    signaled: wr.signaled,
                    peer,
                    local: local.clone(),
                    atomic: false,
                };
                (vec![pkt], None, Some(p))
            }
            WrOp::FetchAdd { local, remote, add } => {
                let pkt = atomic_req(self.node, peer, op, remote, AtomicKind::FetchAdd, *add, 0);
                let p = PendingOp {
                    wr_id: wr.wr_id,
                    signaled: wr.signaled,
                    peer,
                    local: local.clone(),
                    atomic: true,
                };
                (vec![pkt], None, Some(p))
            }
            WrOp::CompareSwap { local, remote, compare, swap } => {
                let pkt = atomic_req(
                    self.node,
                    peer,
                    op,
                    remote,
                    AtomicKind::CompareSwap,
                    *compare,
                    *swap,
                );
                let p = PendingOp {
                    wr_id: wr.wr_id,
                    signaled: wr.signaled,
                    peer,
                    local: local.clone(),
                    atomic: true,
                };
                (vec![pkt], None, Some(p))
            }
        };
        if let Some(p) = pending {
            self.pending.lock().insert(op, p);
        }
        if !ch.send_run(&self.sock, packets, done) {
            self.pending.lock().remove(&op);
            return Err(FabricError::PeerUnreachable { node: peer });
        }
        Ok(())
    }
}

impl Drop for SockNic {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.reactor.get_mut().take() {
            let _ = h.join();
        }
    }
}

/// Overwrite `payload` at each stamp offset (relative to `frag_off` within
/// the whole transfer) with the timestamp, skipping stamps outside this
/// fragment.
pub(super) fn stamp_payload(payload: &mut [u8], stamps: &[u32], frag_off: usize, ts: VTime) {
    for &s in stamps {
        let s = s as usize;
        if s >= frag_off && s + 8 <= frag_off + payload.len() {
            payload[s - frag_off..s - frag_off + 8].copy_from_slice(&ts.0.to_le_bytes());
        }
    }
}

fn frag_send(src: NodeId, dst: NodeId, op: u64, payload: Vec<u8>, imm: Option<u64>) -> Vec<Packet> {
    let total = payload.len();
    let mut pkts = Vec::new();
    let mut off = 0;
    loop {
        let n = (total - off).min(MAX_FRAG);
        let last = off + n == total;
        let mut flags = 0;
        if last {
            flags |= F_LAST;
            if imm.is_some() {
                flags |= F_HAS_IMM;
            }
        }
        pkts.push(Packet {
            flags,
            src,
            dst,
            seq: 0,
            ack: 0,
            op,
            body: Body::Send {
                total: total as u32,
                frag_off: off as u32,
                imm: imm.unwrap_or(0),
                payload: payload[off..off + n].to_vec(),
            },
        });
        off += n;
        if last {
            break;
        }
    }
    pkts
}

#[allow(clippy::too_many_arguments)]
fn frag_write(
    src: NodeId,
    dst: NodeId,
    op: u64,
    addr: u64,
    rkey: u32,
    payload: Vec<u8>,
    stamps: Vec<u32>,
    imm: Option<u64>,
) -> Vec<Packet> {
    let total = payload.len();
    let mut pkts = Vec::new();
    let mut off = 0;
    loop {
        let n = (total - off).min(MAX_FRAG);
        let last = off + n == total;
        let mut flags = 0;
        if last {
            flags |= F_LAST;
            if imm.is_some() {
                flags |= F_HAS_IMM;
            }
        }
        // Stamps whose 8 bytes fall inside this fragment, re-based to it.
        let frag_stamps: Vec<u32> = stamps
            .iter()
            .filter(|&&s| (s as usize) >= off && (s as usize) + 8 <= off + n)
            .map(|&s| s - off as u32)
            .collect();
        pkts.push(Packet {
            flags,
            src,
            dst,
            seq: 0,
            ack: 0,
            op,
            body: Body::Write {
                addr: addr + off as u64,
                rkey,
                total: total as u32,
                imm: imm.unwrap_or(0),
                stamps: frag_stamps,
                payload: payload[off..off + n].to_vec(),
            },
        });
        off += n;
        if last {
            break;
        }
    }
    pkts
}

fn atomic_req(
    src: NodeId,
    dst: NodeId,
    op: u64,
    remote: &crate::verbs::RemoteSlice,
    akind: AtomicKind,
    arg1: u64,
    arg2: u64,
) -> Packet {
    Packet {
        flags: F_LAST,
        src,
        dst,
        seq: 0,
        ack: 0,
        op,
        body: Body::AtomicReq { addr: remote.addr, rkey: remote.rkey, akind, arg1, arg2 },
    }
}
