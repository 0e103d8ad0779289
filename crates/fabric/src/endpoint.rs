//! The verbs endpoint every backend is built on, whatever its wire.
//!
//! A backend decides how bytes move and when; what a verbs NIC *has*
//! regardless lives here, once: the registration table, the send and
//! receive completion queues, the queue-pair table with its error flags,
//! the receive queue that matches two-sided sends with posted receives,
//! post-time validation of a work request (`Endpoint::admit`), and the
//! target-side execution of a write, a read and an atomic.
//!
//! The simulated [`crate::Nic`] runs the target-side steps on the target's
//! endpoint from the posting thread, at modeled delivery times;
//! [`crate::sock::SockNic`] runs them from whichever thread drains its
//! socket (or posts to itself), at wall-clock times. Each passes its own
//! timestamp in. The [`crate::FabricBackend`] trait's registration, QP,
//! receive and CQ-poll methods are provided over a backend's endpoint.
//!
//! Errors the target finds are returned typed. The sim returns them to the
//! poster; the sockets backend has already acknowledged the frames that
//! carried the request, so it answers a refused write, read or atomic with
//! an error acknowledgement and drops a send it cannot deliver.

use crate::clock::VTime;
use crate::error::{FabricError, Result};
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::verbs::{
    Atomic, Completion, CompletionKind, Cq, MrSlice, Qp, RecvWr, SendWr, WcStatus, WrOp,
    DEFAULT_CQ_DEPTH,
};
use crate::NodeId;
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Unexpected two-sided sends an endpoint parks before it refuses the next
/// with [`FabricError::ReceiverNotReady`] (an infinite-retry RNR policy with
/// bounded memory).
pub const PENDING_SEND_CAP: usize = 8192;

/// Per-endpoint resource limits (sizing and fault-injection hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Bytes of memory the node may register (pin).
    pub reg_limit_bytes: usize,
    /// Completion-queue depth (send and recv CQs).
    pub cq_depth: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig { reg_limit_bytes: crate::mr::DEFAULT_REG_LIMIT, cq_depth: DEFAULT_CQ_DEPTH }
    }
}

crate::counter_registry! {
    /// Live verbs-level counters of one endpoint.
    registry EndpointStats;
    /// A point-in-time copy of an endpoint's verbs-level counters.
    snapshot EndpointStatsSnapshot;
    table ENDPOINT_COUNTERS;
    counters {
        /// Two-sided sends admitted at post.
        sends,
        /// RDMA writes admitted at post.
        writes,
        /// RDMA reads admitted at post.
        reads,
        /// Remote atomics admitted at post.
        atomics,
        /// Receives matched with an incoming send.
        recvs_matched,
        /// Payload bytes of admitted sends and writes.
        bytes_tx,
        /// Payload bytes peers' sends and writes landed here.
        bytes_rx,
    }
}

/// One queue pair's state.
#[derive(Debug)]
pub(crate) struct QpState {
    pub(crate) qp: Qp,
    /// Verbs error state: set when the path to the peer fails; every post
    /// is refused until the QP is reset.
    pub(crate) error: AtomicBool,
    /// Virtual-time ordering floors of a modeled flow: no later op on this
    /// QP departs, or delivers, before them (see [`crate::Nic`]). A real
    /// wire orders its frames itself and leaves them at zero.
    pub(crate) depart_floor: AtomicU64,
    pub(crate) deliver_floor: AtomicU64,
}

/// A send that arrived before any receive was posted.
#[derive(Debug)]
struct Parked {
    src: NodeId,
    data: Vec<u8>,
    imm: Option<u64>,
    ts: VTime,
}

#[derive(Debug, Default)]
struct RecvQueue {
    posted: VecDeque<RecvWr>,
    parked: VecDeque<Parked>,
}

/// The verbs state of one node's endpoint (see the module docs).
#[derive(Debug)]
pub struct Endpoint {
    node: NodeId,
    mrs: MrTable,
    send_cq: Cq,
    recv_cq: Cq,
    qps: RwLock<HashMap<u32, QpState>>,
    next_qp: AtomicU32,
    rq: Mutex<RecvQueue>,
    stats: EndpointStats,
}

impl Endpoint {
    pub(crate) fn new(node: NodeId, cfg: NicConfig) -> Endpoint {
        Endpoint {
            node,
            mrs: MrTable::with_limit(node, cfg.reg_limit_bytes),
            send_cq: Cq::new(cfg.cq_depth),
            recv_cq: Cq::new(cfg.cq_depth),
            qps: RwLock::new(HashMap::new()),
            next_qp: AtomicU32::new(1),
            rq: Mutex::new(RecvQueue::default()),
            stats: EndpointStats::default(),
        }
    }

    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The registration table.
    pub fn mrs(&self) -> &MrTable {
        &self.mrs
    }

    /// Snapshot of the verbs-level counters.
    pub fn stats(&self) -> EndpointStatsSnapshot {
        self.stats.snapshot()
    }

    pub(crate) fn send_cq(&self) -> &Cq {
        &self.send_cq
    }

    pub(crate) fn recv_cq(&self) -> &Cq {
        &self.recv_cq
    }

    // ---------------------------------------------------------- queue pairs

    /// A new QP to `peer` (the caller has checked that `peer` exists).
    pub(crate) fn create_qp(&self, peer: NodeId) -> Qp {
        let num = self.next_qp.fetch_add(1, Ordering::Relaxed);
        let qp = Qp { num, node: self.node, peer };
        let st = QpState {
            qp,
            error: AtomicBool::new(false),
            depart_floor: AtomicU64::new(0),
            deliver_floor: AtomicU64::new(0),
        };
        self.qps.write().insert(num, st);
        qp
    }

    pub(crate) fn destroy_qp(&self, qp: Qp) -> Result<()> {
        self.qps.write().remove(&qp.num).map(|_| ()).ok_or(FabricError::NoSuchQp { qp: qp.num })
    }

    /// Run `f` on the state of `qp` under the QP table's read lock.
    fn with_qp<R>(&self, qp: Qp, f: impl FnOnce(&QpState) -> R) -> Result<R> {
        let qps = self.qps.read();
        let st = qps.get(&qp.num).filter(|st| st.qp == qp);
        Ok(f(st.ok_or(FabricError::NoSuchQp { qp: qp.num })?))
    }

    /// Run a post on `qp`: `f` gets the QP's state, borrowed under the QP
    /// table's read lock for the whole run, which is refused while the QP
    /// is errored. The lock is the first a post takes; `f` must not create,
    /// destroy or look up a QP of this endpoint (a waiting writer would
    /// block the nested read).
    pub(crate) fn with_live_qp<R>(
        &self,
        qp: Qp,
        f: impl FnOnce(&QpState) -> Result<R>,
    ) -> Result<R> {
        self.with_qp(qp, |st| {
            if st.error.load(Ordering::Acquire) {
                return Err(FabricError::PeerUnreachable { node: qp.peer });
            }
            f(st)
        })?
    }

    pub(crate) fn reset_qp(&self, qp: Qp) -> Result<()> {
        self.with_qp(qp, |st| st.error.store(false, Ordering::Release))
    }

    pub(crate) fn qp_errored(&self, qp: Qp) -> bool {
        self.with_qp(qp, |st| st.error.load(Ordering::Acquire)).unwrap_or(false)
    }

    /// Run `f` on every QP.
    pub(crate) fn each_qp(&self, f: impl FnMut(&QpState)) {
        self.qps.read().values().for_each(f);
    }

    // ------------------------------------------------------------ admission

    /// Post-time validation of `wr`, the same on every backend, and the
    /// count of what passes. A work request refused here has no effect and
    /// produces no completion. Checked: the local slice lies in a region of
    /// this node; one-sided lengths match; both ends of an atomic are 8
    /// bytes; every delivery stamp fits inside a write's payload (only
    /// writes carry stamps). What only the target can check — its rkey,
    /// bounds, access class and atomic alignment — is checked there.
    pub(crate) fn admit(&self, wr: &SendWr) -> Result<()> {
        let s = &self.stats;
        // Per op: its local slice, the remote length it must match, its
        // counter, and the payload bytes it sends.
        let (local, remote_len, counter, sent) = match &wr.op {
            WrOp::Send { local, .. } => (local, None, &s.sends, local.len),
            WrOp::Write { local, remote, .. } => (local, Some(remote.len), &s.writes, local.len),
            WrOp::Read { local, remote } => (local, Some(remote.len), &s.reads, 0),
            WrOp::FetchAdd { local, remote, .. } | WrOp::CompareSwap { local, remote, .. } => {
                if local.len != 8 || remote.len != 8 {
                    let (addr, len) = (remote.addr, remote.len);
                    return Err(FabricError::BadAtomicTarget { addr, len });
                }
                (local, None, &s.atomics, 0)
            }
        };
        self.check_local(local)?;
        if let Some(remote) = remote_len.filter(|&len| len != local.len) {
            return Err(FabricError::LengthMismatch { local: local.len, remote });
        }
        let stamped = if matches!(wr.op, WrOp::Write { .. }) { sent } else { 0 };
        if let Some(off) = wr.stamps().find(|off| off.saturating_add(8) > stamped) {
            let (addr, region_len) = (off as u64, stamped);
            return Err(FabricError::OutOfBounds { addr, len: 8, region_base: 0, region_len });
        }
        EndpointStats::bump(counter);
        if sent > 0 {
            EndpointStats::add(&s.bytes_tx, sent as u64);
        }
        Ok(())
    }

    /// A local slice must lie inside a region registered on *this* node.
    fn check_local(&self, s: &MrSlice) -> Result<()> {
        s.check()?;
        if s.mr.node() != self.node {
            return Err(FabricError::InvalidLkey { lkey: s.mr.lkey() });
        }
        Ok(())
    }

    // ------------------------------------------------------ receive matching

    /// Post a receive; the oldest parked send, if any, matches it at once.
    pub(crate) fn post_recv(&self, wr: RecvWr) -> Result<()> {
        self.check_local(&wr.local)?;
        let mut rq = self.rq.lock();
        match rq.parked.pop_front() {
            Some(p) => {
                drop(rq);
                self.complete_recv(wr, p.src, &p.data, p.imm, p.ts)
            }
            None => {
                rq.posted.push_back(wr);
                Ok(())
            }
        }
    }

    /// Deliver a whole two-sided send from `src`, delivered at `ts`: into
    /// the oldest posted receive straight from wherever `data` lives, or
    /// parked (the only case that needs it owned). Past
    /// [`PENDING_SEND_CAP`] parked sends it is refused with
    /// `ReceiverNotReady`; a receive too small for it is consumed and the
    /// send refused with `LengthMismatch`.
    pub(crate) fn deliver_send(
        &self,
        src: NodeId,
        data: Cow<'_, [u8]>,
        imm: Option<u64>,
        ts: VTime,
    ) -> Result<()> {
        let mut rq = self.rq.lock();
        if let Some(recv) = rq.posted.pop_front() {
            drop(rq);
            return self.complete_recv(recv, src, &data, imm, ts);
        }
        if rq.parked.len() >= PENDING_SEND_CAP {
            return Err(FabricError::ReceiverNotReady { node: self.node });
        }
        rq.parked.push_back(Parked { src, data: data.into_owned(), imm, ts });
        Ok(())
    }

    fn complete_recv(
        &self,
        recv: RecvWr,
        src: NodeId,
        data: &[u8],
        imm: Option<u64>,
        ts: VTime,
    ) -> Result<()> {
        let len = data.len();
        if recv.local.len < len {
            return Err(FabricError::LengthMismatch { local: recv.local.len, remote: len });
        }
        recv.local.mr.write_at(recv.local.offset, data);
        EndpointStats::bump(&self.stats.recvs_matched);
        EndpointStats::add(&self.stats.bytes_rx, len as u64);
        self.recv_cq.push(Completion {
            wr_id: recv.wr_id,
            kind: CompletionKind::RecvDone { src, len, imm },
            ts,
            status: WcStatus::Success,
        })
    }

    // ------------------------------------------------ target-side execution

    /// Land a write's `payload` at `(addr, rkey)` and overwrite each
    /// payload offset in `stamps` with the delivery time `ts`, in one
    /// critical section: a reader never sees the bytes without their
    /// stamps. Every stamp must fit in the payload (`admit` checks the
    /// poster's; a wire backend filters what it decodes).
    pub(crate) fn apply_write(
        &self,
        addr: u64,
        rkey: u32,
        payload: &[u8],
        stamps: impl Iterator<Item = usize>,
        ts: VTime,
    ) -> Result<()> {
        self.mrs.with_resolved(addr, rkey, payload.len(), Access::REMOTE_WRITE, |mr, off| {
            mr.with_bytes_mut(|b| {
                let dst = &mut b[off..off + payload.len()];
                dst.copy_from_slice(payload);
                for s in stamps {
                    dst[s..s + 8].copy_from_slice(&ts.as_nanos().to_le_bytes());
                }
            })
        })?;
        EndpointStats::add(&self.stats.bytes_rx, payload.len() as u64);
        Ok(())
    }

    /// The target's event for a whole `len`-byte write-with-immediate from
    /// `src`.
    pub(crate) fn push_imm(&self, src: NodeId, len: usize, imm: u64, ts: VTime) -> Result<()> {
        self.recv_cq.push(Completion {
            wr_id: 0,
            kind: CompletionKind::ImmDone { src, len, imm },
            ts,
            status: WcStatus::Success,
        })
    }

    /// Copy the source of a read at `(addr, rkey)` into `dst` (its length
    /// is the read's).
    pub(crate) fn read_into(&self, addr: u64, rkey: u32, dst: &mut [u8]) -> Result<()> {
        let len = dst.len();
        self.mrs.with_resolved(addr, rkey, len, Access::REMOTE_READ, |mr, off| mr.read_at(off, dst))
    }

    /// Resolve the source of a `len`-byte read at `(addr, rkey)` to an
    /// owned handle, for a caller that gathers from the region after the
    /// MR table's lock is gone.
    pub(crate) fn read_source(
        &self,
        addr: u64,
        rkey: u32,
        len: usize,
    ) -> Result<(MemoryRegion, usize)> {
        self.mrs.resolve(addr, rkey, len, Access::REMOTE_READ)
    }

    /// Execute `op` on the 8-byte word at `(addr, rkey)`, returning the
    /// word's prior value. Region bases are page-aligned, so an aligned
    /// address is an aligned offset.
    pub(crate) fn apply_atomic(&self, addr: u64, rkey: u32, op: Atomic) -> Result<u64> {
        if !addr.is_multiple_of(8) {
            return Err(FabricError::BadAtomicTarget { addr, len: 8 });
        }
        self.mrs.with_resolved(addr, rkey, 8, Access::REMOTE_ATOMIC, |mr, off| match op {
            Atomic::FetchAdd(add) => mr.fetch_add_u64(off, add),
            Atomic::CompareSwap { compare, swap } => mr.compare_swap_u64(off, compare, swap),
        })
    }
}
