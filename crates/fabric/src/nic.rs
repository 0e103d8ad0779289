//! The simulated NIC: work-request execution engine.
//!
//! Operations execute synchronously on the posting thread (the "NIC DMA" is
//! a locked memcpy into the target's registered region), while completion
//! *timestamps* come from the switch's LogGP accounting.  Per-QP ordering is
//! inherited from program order on the posting thread, matching the in-order
//! delivery guarantee of a reliable-connected QP.
//!
//! Target-side behaviour follows verbs semantics with one documented
//! divergence: a two-sided `Send` arriving before any receive is posted is
//! parked in a bounded pending queue (equivalent to an infinite-retry
//! RNR-NAK policy) instead of tearing down the connection; overflowing that
//! queue surfaces `ReceiverNotReady` to the sender.

use crate::clock::VTime;
use crate::error::{FabricError, Result};
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::verbs::{
    Completion, CompletionKind, Cq, MrSlice, Qp, RecvWr, RemoteSlice, SendWr, WcStatus, WrOp,
    DEFAULT_CQ_DEPTH,
};
use crate::wire::{Switch, Transfer, REQUEST_BYTES};
use crate::NodeId;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Default maximum number of unexpected two-sided sends parked per NIC
/// before the fabric reports `ReceiverNotReady`.
pub const PENDING_SEND_CAP: usize = 8192;

/// Message buffers kept in a NIC's free list for reuse.
const BUF_POOL_CAP: usize = 64;

/// Message buffers kept in each *thread's* front cache ahead of the shared
/// free list: the common send→deliver cycle recycles a buffer on the same
/// thread, so the front cache turns both pool touches into lock-free
/// thread-local pops. Deliberately small — buffers parked in one thread's
/// cache are invisible to the others.
const BUF_FRONT_CAP: usize = 8;

std::thread_local! {
    /// Thread-local front cache over every NIC's shared `buf_pool` (the
    /// buffers are plain `Vec<u8>`s, not NIC-specific, so one cache serves
    /// all NICs a thread drives).
    static BUF_FRONT: std::cell::RefCell<Vec<Vec<u8>>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Largest buffer capacity the free list retains; bigger one-off transfers
/// (rendezvous payloads) are returned to the allocator instead of pinning
/// megabytes in the pool.
const BUF_POOL_MAX_BYTES: usize = 256 * 1024;

/// Per-NIC resource limits (fault-injection and sizing hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Bytes of memory the node may register (pin).
    pub reg_limit_bytes: usize,
    /// Completion-queue depth (send and recv CQs).
    pub cq_depth: usize,
    /// Unexpected-send backlog before `ReceiverNotReady`.
    pub pending_send_cap: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            reg_limit_bytes: crate::mr::DEFAULT_REG_LIMIT,
            cq_depth: DEFAULT_CQ_DEPTH,
            pending_send_cap: PENDING_SEND_CAP,
        }
    }
}

#[derive(Debug)]
struct PendingSend {
    src: NodeId,
    data: Vec<u8>,
    imm: Option<u64>,
    ts: VTime,
}

#[derive(Debug, Default)]
struct RecvState {
    posted: VecDeque<RecvWr>,
    pending: VecDeque<PendingSend>,
}

/// Per-QP bookkeeping: the handle plus virtual-time ordering floors that
/// keep a reliable-connected flow in-order *in virtual time* (a later small
/// message must not book an earlier calendar hole than its predecessor).
#[derive(Debug)]
struct QpState {
    qp: Qp,
    /// No later op on this QP may depart before this instant.
    depart_floor: AtomicU64,
    /// No later op on this QP may deliver before this instant.
    deliver_floor: AtomicU64,
    /// Verbs error state: set when a transfer fails against a dead or
    /// partitioned peer; new posts are rejected until [`Nic::reset_qp`].
    error: AtomicBool,
}

/// Operation counters, updated relaxed; snapshot with [`Nic::counters`].
#[derive(Debug, Default)]
pub struct NicCounters {
    sends: AtomicU64,
    writes: AtomicU64,
    reads: AtomicU64,
    atomics: AtomicU64,
    recvs_matched: AtomicU64,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
}

/// A point-in-time copy of a NIC's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Two-sided sends initiated.
    pub sends: u64,
    /// RDMA writes initiated.
    pub writes: u64,
    /// RDMA reads initiated.
    pub reads: u64,
    /// Remote atomics initiated.
    pub atomics: u64,
    /// Receives matched with an incoming send.
    pub recvs_matched: u64,
    /// Payload bytes transmitted.
    pub bytes_tx: u64,
    /// Payload bytes received (one-sided writes landing here included).
    pub bytes_rx: u64,
}

impl QpState {
    /// Clamp a computed delivery time to this flow's in-order floor.
    fn order_deliver(&self, deliver: VTime) -> VTime {
        VTime(deliver.0.max(self.deliver_floor.load(Ordering::Acquire)))
    }

    /// Record this op's injection end and delivery as floors for successors.
    fn advance_floors(&self, injected: VTime, deliver: VTime) {
        self.depart_floor.fetch_max(injected.0, Ordering::AcqRel);
        self.deliver_floor.fetch_max(deliver.0, Ordering::AcqRel);
    }
}

/// A simulated RDMA NIC attached to one node of the cluster.
#[derive(Debug)]
pub struct Nic {
    node: NodeId,
    switch: Weak<Switch>,
    mrs: MrTable,
    send_cq: Cq,
    recv_cq: Cq,
    rq: Mutex<RecvState>,
    qps: RwLock<HashMap<u32, Arc<QpState>>>,
    next_qp: AtomicU32,
    pending_send_cap: usize,
    counters: NicCounters,
    /// Free list of message buffers: payload movement recycles `Vec`s here
    /// instead of allocating one per send/write/read-response.
    buf_pool: Mutex<Vec<Vec<u8>>>,
}

impl Nic {
    /// Create a NIC, attach it to `switch`, and return it. The node id is
    /// assigned densely by attach order.
    pub fn attach_new(switch: &Arc<Switch>, reg_limit_bytes: usize) -> Arc<Nic> {
        Self::attach_with_config(switch, NicConfig { reg_limit_bytes, ..NicConfig::default() })
    }

    /// Create a NIC with explicit resource limits.
    pub fn attach_with_config(switch: &Arc<Switch>, cfg: NicConfig) -> Arc<Nic> {
        switch.attach_with(|node| {
            Arc::new(Nic {
                node,
                switch: Arc::downgrade(switch),
                mrs: MrTable::with_limit(node, cfg.reg_limit_bytes),
                send_cq: Cq::new(cfg.cq_depth),
                recv_cq: Cq::new(cfg.cq_depth),
                rq: Mutex::new(RecvState::default()),
                qps: RwLock::new(HashMap::new()),
                next_qp: AtomicU32::new(1),
                pending_send_cap: cfg.pending_send_cap,
                counters: NicCounters::default(),
                buf_pool: Mutex::new(Vec::new()),
            })
        })
    }

    /// This NIC's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of nodes attached to this NIC's switch (job size).
    pub fn num_nodes(&self) -> usize {
        self.switch.upgrade().map_or(0, |sw| sw.len())
    }

    /// The registration table.
    pub fn mrs(&self) -> &MrTable {
        &self.mrs
    }

    /// Register a region of `len` bytes (convenience for `mrs().register`).
    pub fn register(&self, len: usize, flags: Access) -> Result<MemoryRegion> {
        self.mrs.register(len, flags)
    }

    /// Modeled virtual-time cost of registering `len` bytes.
    pub fn registration_cost_ns(&self, len: usize) -> u64 {
        self.switch.upgrade().map(|sw| sw.model().registration_ns(len)).unwrap_or(0)
    }

    /// Create a reliable-connected QP to `peer`.
    pub fn create_qp(&self, peer: NodeId) -> Result<Qp> {
        let sw = self.switch.upgrade().ok_or(FabricError::Down)?;
        if peer >= sw.len() {
            return Err(FabricError::NoSuchNode { node: peer });
        }
        let num = self.next_qp.fetch_add(1, Ordering::Relaxed);
        let qp = Qp { num, node: self.node, peer };
        self.qps.write().insert(
            num,
            Arc::new(QpState {
                qp,
                depart_floor: AtomicU64::new(0),
                deliver_floor: AtomicU64::new(0),
                error: AtomicBool::new(false),
            }),
        );
        Ok(qp)
    }

    /// Clear a QP's error state after the path to the peer has healed
    /// (reconnection). Ordering floors are preserved: the reconnected flow
    /// continues forward in virtual time.
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

    /// True when `qp` is in the error state (posts are rejected).
    pub fn qp_errored(&self, qp: Qp) -> bool {
        self.qps
            .read()
            .get(&qp.num)
            .is_some_and(|st| st.qp == qp && st.error.load(Ordering::Acquire))
    }

    /// Whether this NIC's *own* node is dead at `now` — i.e. the caller's
    /// virtual clock has crossed the node's scheduled kill time (probe
    /// rides and partition waits advance clocks past arbitrary fault
    /// boundaries). [`Nic::peer_status`] reports [`WcStatus::RemoteDead`]
    /// when *either* end of the wire is down; this read lets the layer
    /// above tell "the peer died" from "I died" so it never records a
    /// live peer dead on the strength of its own crash.
    pub fn self_dead_at(&self, now: VTime) -> bool {
        self.switch.upgrade().is_some_and(|sw| sw.faults().node_dead_at(self.node, now))
    }

    /// Reachability pre-check for `qp`'s peer at virtual time `now`:
    /// `None` when the path is healthy, otherwise the status a post at
    /// `now` would fail with ([`WcStatus::RemoteDead`] for a crashed node,
    /// [`WcStatus::RetryExceeded`] for an active partition). Consults only
    /// the fault plan, never the QP error flag, so callers can use it to
    /// decide when a reconnection probe ([`Nic::reset_qp`]) may succeed.
    pub fn peer_status(&self, qp: Qp, now: VTime) -> Option<WcStatus> {
        let sw = self.switch.upgrade()?;
        let f = sw.faults();
        if !f.has_disruptions() {
            return None;
        }
        if f.node_dead_at(qp.peer, now) || f.node_dead_at(self.node, now) {
            Some(WcStatus::RemoteDead)
        } else if f.partitioned_at(self.node, qp.peer, now) {
            Some(WcStatus::RetryExceeded)
        } else {
            None
        }
    }

    /// Reachability pre-check for `peer` without a QP — the connection-
    /// manager analogue of [`Nic::peer_status`], usable before any QP to
    /// the peer exists. Same status mapping: `RemoteDead` for a crashed
    /// node (or when this node itself is dead), `RetryExceeded` for an
    /// active partition, `None` for a healthy path.
    pub fn node_status(&self, peer: NodeId, now: VTime) -> Option<WcStatus> {
        let sw = self.switch.upgrade()?;
        let f = sw.faults();
        if !f.has_disruptions() {
            return None;
        }
        if f.node_dead_at(peer, now) || f.node_dead_at(self.node, now) {
            Some(WcStatus::RemoteDead)
        } else if f.partitioned_at(self.node, peer, now) {
            Some(WcStatus::RetryExceeded)
        } else {
            None
        }
    }

    /// The incarnation of `peer` at virtual time `now` (0 = original
    /// generation, +1 per [`crate::FaultPlan::revive_node_at`]). A
    /// connection established against one incarnation must not be reused
    /// against a later one.
    pub fn node_incarnation(&self, peer: NodeId, now: VTime) -> u64 {
        self.switch.upgrade().map_or(0, |sw| sw.faults().incarnation_at(peer, now))
    }

    /// Destroy a QP; subsequent posts on it fail.
    pub fn destroy_qp(&self, qp: Qp) -> Result<()> {
        self.qps.write().remove(&qp.num).map(|_| ()).ok_or(FabricError::NoSuchQp { qp: qp.num })
    }

    /// Poll the initiator-side completion queue.
    pub fn poll_send_cq(&self) -> Option<Completion> {
        self.send_cq.poll()
    }

    /// Poll the target-side completion queue (receives and imm events).
    pub fn poll_recv_cq(&self) -> Option<Completion> {
        self.recv_cq.poll()
    }

    /// Drain up to `n` initiator-side completions.
    pub fn poll_send_cq_n(&self, n: usize) -> Vec<Completion> {
        self.send_cq.poll_n(n)
    }

    /// Drain up to `n` target-side completions.
    pub fn poll_recv_cq_n(&self, n: usize) -> Vec<Completion> {
        self.recv_cq.poll_n(n)
    }

    /// Drain up to `n` initiator-side completions into `out` (appended),
    /// allocation-free; returns the number drained.
    pub fn poll_send_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.send_cq.poll_n_into(n, out)
    }

    /// Drain up to `n` target-side completions into `out` (appended),
    /// allocation-free; returns the number drained.
    pub fn poll_recv_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.recv_cq.poll_n_into(n, out)
    }

    /// Post a receive. If unexpected sends are parked, the oldest one
    /// matches immediately.
    pub fn post_recv(&self, wr: RecvWr) -> Result<()> {
        wr.local.check()?;
        self.check_local(&wr.local)?;
        let mut rq = self.rq.lock();
        if let Some(p) = rq.pending.pop_front() {
            drop(rq);
            return self.complete_recv(wr, p);
        }
        rq.posted.push_back(wr);
        Ok(())
    }

    /// Number of posted-but-unmatched receives.
    pub fn posted_recvs(&self) -> usize {
        self.rq.lock().posted.len()
    }

    /// Post a send-queue work request with the initiator's virtual clock at
    /// `now`.  Effects apply before return; completions are delivered to the
    /// relevant CQs with modeled timestamps.
    pub fn post_send(&self, qp: Qp, wr: SendWr, now: VTime) -> Result<()> {
        self.post_send_many(qp, std::slice::from_ref(&wr), now)
    }

    /// Post a *run* of send-queue work requests through one doorbell: the
    /// per-post overhead (`send_overhead_ns`) and the QP/switch lookup are
    /// charged once for the whole run instead of once per work request. The
    /// wrs execute in order on the same QP, so RC ordering holds across the
    /// run and a signaled *last* wr implies every earlier one has completed
    /// — the contract the middleware's one-CQE batch fan-out relies on.
    ///
    /// Stops at the first failing wr and returns its error; wrs executed
    /// before the failure keep their effects (as on hardware, where one
    /// doorbell covers already-fetched WQEs).
    pub fn post_send_many(&self, qp: Qp, wrs: &[SendWr], now: VTime) -> Result<()> {
        let (sw, state) = self.send_path(qp)?;
        let base = now + sw.model().send_overhead_ns;
        for wr in wrs {
            // RC in-order floor: never depart before a predecessor on this QP.
            let ready = base.max(VTime(state.depart_floor.load(Ordering::Acquire)));
            self.exec_send(&sw, &state, qp, wr, ready)?;
        }
        Ok(())
    }

    /// Shared post-path prologue: switch + QP state lookup, error-state
    /// rejection.
    fn send_path(&self, qp: Qp) -> Result<(Arc<Switch>, Arc<QpState>)> {
        let sw = self.switch.upgrade().ok_or(FabricError::Down)?;
        let state = self
            .qps
            .read()
            .get(&qp.num)
            .filter(|st| st.qp == qp)
            .cloned()
            .ok_or(FabricError::NoSuchQp { qp: qp.num })?;
        // A QP in the error state rejects every post until reset_qp.
        if state.error.load(Ordering::Acquire) {
            return Err(FabricError::PeerUnreachable { node: qp.peer });
        }
        Ok((sw, state))
    }

    /// Execute one work request whose departure is gated at `ready`.
    fn exec_send(
        &self,
        sw: &Arc<Switch>,
        state: &QpState,
        qp: Qp,
        wr: &SendWr,
        ready: VTime,
    ) -> Result<()> {
        match wr.op {
            WrOp::Send { ref local, imm } => {
                local.check()?;
                self.check_local(local)?;
                let mut data = self.take_buf(local.len);
                local.mr.read_at(local.offset, &mut data);
                let t = self.transfer_checked(
                    sw,
                    state,
                    self.node,
                    qp.peer,
                    local.len,
                    ready,
                    wr.wr_id,
                    CompletionKind::SendDone,
                )?;
                let deliver = state.order_deliver(t.deliver);
                state.advance_floors(t.injected, deliver);
                stamp_all(&mut data, wr, deliver)?;
                sw.nic(qp.peer)?.deliver_send(self.node, data, imm, deliver)?;
                self.counters.sends.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_tx.fetch_add(local.len as u64, Ordering::Relaxed);
                if wr.signaled {
                    self.send_cq.push(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::SendDone,
                        ts: t.injected,
                        status: WcStatus::Success,
                    })?;
                }
            }
            WrOp::Write { ref local, remote, imm } => {
                local.check()?;
                self.check_local(local)?;
                if local.len != remote.len {
                    return Err(FabricError::LengthMismatch {
                        local: local.len,
                        remote: remote.len,
                    });
                }
                let mut data = self.take_buf(local.len);
                local.mr.read_at(local.offset, &mut data);
                let t = self.transfer_checked(
                    sw,
                    state,
                    self.node,
                    qp.peer,
                    local.len,
                    ready,
                    wr.wr_id,
                    CompletionKind::WriteDone,
                )?;
                let deliver = state.order_deliver(t.deliver);
                state.advance_floors(t.injected, deliver);
                stamp_all(&mut data, wr, deliver)?;
                sw.nic(qp.peer)?.apply_write(self.node, &data, remote, imm, deliver)?;
                self.give_buf(data);
                self.counters.writes.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_tx.fetch_add(local.len as u64, Ordering::Relaxed);
                if wr.signaled {
                    self.send_cq.push(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::WriteDone,
                        ts: t.injected,
                        status: WcStatus::Success,
                    })?;
                }
            }
            WrOp::Read { ref local, remote } => {
                local.check()?;
                self.check_local(local)?;
                if local.len != remote.len {
                    return Err(FabricError::LengthMismatch {
                        local: local.len,
                        remote: remote.len,
                    });
                }
                // Header-only request travels out; data travels back.
                let req = self.transfer_checked(
                    sw,
                    state,
                    self.node,
                    qp.peer,
                    REQUEST_BYTES,
                    ready,
                    wr.wr_id,
                    CompletionKind::ReadDone,
                )?;
                let req_deliver = state.order_deliver(req.deliver);
                state.advance_floors(req.injected, req_deliver);
                let data = sw.nic(qp.peer)?.serve_read(remote)?;
                let resp = self.transfer_checked(
                    sw,
                    state,
                    qp.peer,
                    self.node,
                    remote.len,
                    req_deliver,
                    wr.wr_id,
                    CompletionKind::ReadDone,
                )?;
                local.mr.write_at(local.offset, &data);
                self.give_buf(data);
                self.counters.reads.fetch_add(1, Ordering::Relaxed);
                self.counters.bytes_rx.fetch_add(remote.len as u64, Ordering::Relaxed);
                if wr.signaled {
                    self.send_cq.push(Completion {
                        wr_id: wr.wr_id,
                        kind: CompletionKind::ReadDone,
                        ts: resp.deliver,
                        status: WcStatus::Success,
                    })?;
                }
            }
            WrOp::FetchAdd { ref local, remote, add } => {
                self.atomic_common(
                    sw,
                    state,
                    local,
                    remote,
                    ready,
                    wr.wr_id,
                    wr.signaled,
                    |nic| nic.serve_atomic(remote, |mr, off| mr.fetch_add_u64(off, add)),
                )?;
            }
            WrOp::CompareSwap { ref local, remote, compare, swap } => {
                self.atomic_common(
                    sw,
                    state,
                    local,
                    remote,
                    ready,
                    wr.wr_id,
                    wr.signaled,
                    |nic| {
                        nic.serve_atomic(remote, |mr, off| mr.compare_swap_u64(off, compare, swap))
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Shared path for both remote atomics.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn atomic_common(
        &self,
        sw: &Arc<Switch>,
        state: &QpState,
        local: &MrSlice,
        remote: RemoteSlice,
        ready: VTime,
        wr_id: u64,
        signaled: bool,
        serve: impl FnOnce(&Nic) -> Result<u64>,
    ) -> Result<u64> {
        let qp = state.qp;
        if local.len != 8 {
            return Err(FabricError::BadAtomicTarget { addr: remote.addr, len: local.len });
        }
        local.check()?;
        self.check_local(local)?;
        let req = self.transfer_checked(
            sw,
            state,
            self.node,
            qp.peer,
            REQUEST_BYTES,
            ready,
            wr_id,
            CompletionKind::AtomicDone { old: 0 },
        )?;
        let req_deliver = state.order_deliver(req.deliver);
        state.advance_floors(req.injected, req_deliver);
        let target = sw.nic(qp.peer)?;
        let old = serve(&target)?;
        let resp = self.transfer_checked(
            sw,
            state,
            qp.peer,
            self.node,
            8,
            req_deliver,
            wr_id,
            CompletionKind::AtomicDone { old: 0 },
        )?;
        local.mr.write_u64(local.offset, old);
        self.counters.atomics.fetch_add(1, Ordering::Relaxed);
        if signaled {
            self.send_cq.push(Completion {
                wr_id,
                kind: CompletionKind::AtomicDone { old },
                ts: resp.deliver,
                status: WcStatus::Success,
            })?;
        }
        Ok(old)
    }

    /// Wire reservation with the verbs failure model: when the transfer is
    /// rejected because the peer is dead or the path partitioned, transition
    /// the QP to the error state, flush the failing work request as an error
    /// CQE carrying its [`WcStatus`] ([`WcStatus::RemoteDead`] for a crashed
    /// node, [`WcStatus::RetryExceeded`] for an active partition), and
    /// surface [`FabricError::PeerUnreachable`] to the poster.  The error
    /// CQE is pushed even for unsignaled work requests (flush semantics);
    /// its `kind` metadata is unspecified, as on real hardware.
    #[allow(clippy::too_many_arguments)]
    fn transfer_checked(
        &self,
        sw: &Arc<Switch>,
        state: &QpState,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready: VTime,
        wr_id: u64,
        kind: CompletionKind,
    ) -> Result<Transfer> {
        match sw.transfer(src, dst, bytes, ready) {
            Err(FabricError::PeerUnreachable { node }) => {
                state.error.store(true, Ordering::Release);
                let f = sw.faults();
                let peer = state.qp.peer;
                let status = if f.node_dead_at(peer, ready) || f.node_dead_at(self.node, ready) {
                    WcStatus::RemoteDead
                } else {
                    WcStatus::RetryExceeded
                };
                // Best effort: a full CQ must not mask the post error.
                let _ = self.send_cq.push(Completion { wr_id, kind, ts: ready, status });
                Err(FabricError::PeerUnreachable { node })
            }
            other => other,
        }
    }

    /// Take a message buffer of exactly `len` bytes — first from this
    /// thread's lock-free front cache, then from the shared free list
    /// (allocating only when both are empty). Contents are unspecified;
    /// callers overwrite the whole buffer.
    fn take_buf(&self, len: usize) -> Vec<u8> {
        let mut v = BUF_FRONT
            .with(|c| c.borrow_mut().pop())
            .unwrap_or_else(|| self.buf_pool.lock().pop().unwrap_or_default());
        v.resize(len, 0);
        v
    }

    /// Return a message buffer for reuse: into the thread-local front cache
    /// while it has room (no lock at all on the send→deliver hot path),
    /// spilling to the shared bounded free list past that; oversized or
    /// excess buffers go back to the allocator.
    fn give_buf(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 || v.capacity() > BUF_POOL_MAX_BYTES {
            return;
        }
        v.clear();
        let cached = BUF_FRONT.with(|c| {
            let mut front = c.borrow_mut();
            if front.len() < BUF_FRONT_CAP {
                front.push(std::mem::take(&mut v));
                true
            } else {
                false
            }
        });
        if cached {
            return;
        }
        let mut pool = self.buf_pool.lock();
        if pool.len() < BUF_POOL_CAP {
            pool.push(v);
        }
    }

    /// A local slice must name memory registered on *this* node.
    fn check_local(&self, s: &MrSlice) -> Result<()> {
        if s.mr.node() != self.node {
            return Err(FabricError::InvalidLkey { lkey: s.mr.lkey() });
        }
        Ok(())
    }

    // ---- target-side entry points (called by the initiating thread) ----

    fn deliver_send(&self, src: NodeId, data: Vec<u8>, imm: Option<u64>, ts: VTime) -> Result<()> {
        let mut rq = self.rq.lock();
        if let Some(recv) = rq.posted.pop_front() {
            drop(rq);
            self.complete_recv(recv, PendingSend { src, data, imm, ts })
        } else {
            if rq.pending.len() >= self.pending_send_cap {
                return Err(FabricError::ReceiverNotReady { node: self.node });
            }
            rq.pending.push_back(PendingSend { src, data, imm, ts });
            Ok(())
        }
    }

    fn complete_recv(&self, recv: RecvWr, p: PendingSend) -> Result<()> {
        if recv.local.len < p.data.len() {
            return Err(FabricError::LengthMismatch {
                local: recv.local.len,
                remote: p.data.len(),
            });
        }
        recv.local.mr.write_at(recv.local.offset, &p.data);
        self.counters.recvs_matched.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes_rx.fetch_add(p.data.len() as u64, Ordering::Relaxed);
        let len = p.data.len();
        self.give_buf(p.data);
        self.recv_cq.push(Completion {
            wr_id: recv.wr_id,
            kind: CompletionKind::RecvDone { src: p.src, len, imm: p.imm },
            ts: p.ts,
            status: WcStatus::Success,
        })
    }

    fn apply_write(
        &self,
        src: NodeId,
        data: &[u8],
        remote: RemoteSlice,
        imm: Option<u64>,
        ts: VTime,
    ) -> Result<()> {
        let (mr, off) =
            self.mrs.resolve(remote.addr, remote.rkey, remote.len, Access::REMOTE_WRITE)?;
        mr.write_at(off, data);
        self.counters.bytes_rx.fetch_add(data.len() as u64, Ordering::Relaxed);
        if let Some(imm) = imm {
            self.recv_cq.push(Completion {
                wr_id: 0,
                kind: CompletionKind::ImmDone { src, len: data.len(), imm },
                ts,
                status: WcStatus::Success,
            })?;
        }
        Ok(())
    }

    fn serve_read(&self, remote: RemoteSlice) -> Result<Vec<u8>> {
        let (mr, off) =
            self.mrs.resolve(remote.addr, remote.rkey, remote.len, Access::REMOTE_READ)?;
        let mut data = self.take_buf(remote.len);
        mr.read_at(off, &mut data);
        Ok(data)
    }

    fn serve_atomic(
        &self,
        remote: RemoteSlice,
        op: impl FnOnce(&MemoryRegion, usize) -> u64,
    ) -> Result<u64> {
        if remote.len != 8 || !remote.addr.is_multiple_of(8) {
            return Err(FabricError::BadAtomicTarget { addr: remote.addr, len: remote.len });
        }
        let (mr, off) = self.mrs.resolve(remote.addr, remote.rkey, 8, Access::REMOTE_ATOMIC)?;
        Ok(op(&mr, off))
    }

    /// Zero all per-QP virtual-time ordering floors (benchmark repetitions;
    /// called by [`crate::Switch::reset_time`]).
    pub(crate) fn reset_flow_floors(&self) {
        for st in self.qps.read().values() {
            st.depart_floor.store(0, Ordering::Release);
            st.deliver_floor.store(0, Ordering::Release);
        }
    }

    /// Snapshot of the operation counters.
    pub fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            sends: self.counters.sends.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            reads: self.counters.reads.load(Ordering::Relaxed),
            atomics: self.counters.atomics.load(Ordering::Relaxed),
            recvs_matched: self.counters.recvs_matched.load(Ordering::Relaxed),
            bytes_tx: self.counters.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.counters.bytes_rx.load(Ordering::Relaxed),
        }
    }
}

/// Apply a delivery-time stamp to an outgoing payload (see
/// [`SendWr::stamp_deliver_at`]).
fn stamp(data: &mut [u8], at: Option<usize>, deliver: VTime) -> Result<()> {
    if let Some(off) = at {
        if off + 8 > data.len() {
            return Err(FabricError::OutOfBounds {
                addr: off as u64,
                len: 8,
                region_base: 0,
                region_len: data.len(),
            });
        }
        data[off..off + 8].copy_from_slice(&deliver.as_nanos().to_le_bytes());
    }
    Ok(())
}

/// Apply every stamp a work request carries: the primary offset plus the
/// per-frame offsets of a doorbell-batched post.
fn stamp_all(data: &mut [u8], wr: &SendWr, deliver: VTime) -> Result<()> {
    stamp(data, wr.stamp_deliver_at, deliver)?;
    for &off in &wr.stamp_deliver_also {
        stamp(data, Some(off), deliver)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkModel;
    use crate::mr::DEFAULT_REG_LIMIT;

    fn two_nodes(model: NetworkModel) -> (Arc<Switch>, Arc<Nic>, Arc<Nic>) {
        let sw = Arc::new(Switch::new(model));
        let a = Nic::attach_new(&sw, DEFAULT_REG_LIMIT);
        let b = Nic::attach_new(&sw, DEFAULT_REG_LIMIT);
        (sw, a, b)
    }

    #[test]
    fn rdma_write_moves_bytes_and_completes() {
        let (_sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let src = a.register(64, Access::ALL).unwrap();
        let dst = b.register(64, Access::ALL).unwrap();
        src.write_at(0, b"one-sided put!!!");
        let qp = a.create_qp(1).unwrap();
        let wr = SendWr::new(
            7,
            WrOp::Write {
                local: MrSlice::new(&src, 0, 16),
                remote: RemoteSlice::from_key(&dst.remote_key(), 0, 16),
                imm: None,
            },
        );
        a.post_send(qp, wr, VTime(0)).unwrap();
        assert_eq!(dst.to_vec(0, 16), b"one-sided put!!!");
        let c = a.poll_send_cq().unwrap();
        assert_eq!(c.wr_id, 7);
        assert_eq!(c.kind, CompletionKind::WriteDone);
        assert!(c.ts > VTime(0));
        // One-sided: the target CQ saw nothing.
        assert!(b.poll_recv_cq().is_none());
        assert_eq!(a.counters().writes, 1);
        assert_eq!(b.counters().bytes_rx, 16);
    }

    #[test]
    fn write_with_imm_notifies_target() {
        let (_sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let src = a.register(8, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        let wr = SendWr::new(
            1,
            WrOp::Write {
                local: MrSlice::whole(&src),
                remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                imm: Some(0xfeed),
            },
        );
        a.post_send(qp, wr, VTime(0)).unwrap();
        let c = b.poll_recv_cq().unwrap();
        assert_eq!(c.kind, CompletionKind::ImmDone { src: 0, len: 8, imm: 0xfeed });
    }

    #[test]
    fn rdma_read_pulls_remote_bytes() {
        let (sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let dst = a.register(32, Access::ALL).unwrap();
        let src = b.register(32, Access::ALL).unwrap();
        src.write_at(0, &[9u8; 32]);
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::new(
                2,
                WrOp::Read {
                    local: MrSlice::whole(&dst),
                    remote: RemoteSlice::from_key(&src.remote_key(), 0, 32),
                },
            ),
            VTime(0),
        )
        .unwrap();
        assert_eq!(dst.to_vec(0, 32), vec![9u8; 32]);
        let c = a.poll_send_cq().unwrap();
        assert_eq!(c.kind, CompletionKind::ReadDone);
        // A read is a round trip: strictly more than one-way latency.
        assert!(c.ts.as_nanos() > sw.model().latency_ns);
    }

    #[test]
    fn post_send_many_charges_one_doorbell() {
        // k Reads through one doorbell: the per-post overhead is charged
        // once, so the last completion lands strictly earlier than k
        // individual posts would, while every read's data still arrives.
        let (sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let dst = a.register(64, Access::ALL).unwrap();
        let src = b.register(64, Access::ALL).unwrap();
        src.write_at(0, &[7u8; 64]);
        let qp = a.create_qp(1).unwrap();
        let mk = |i: usize, signaled: bool| SendWr {
            wr_id: if signaled { 99 } else { 0 },
            op: WrOp::Read {
                local: MrSlice::new(&dst, i * 8, 8),
                remote: RemoteSlice::from_key(&src.remote_key(), i * 8, 8),
            },
            signaled,
            stamp_deliver_at: None,
            stamp_deliver_also: Vec::new(),
        };
        let wrs: Vec<SendWr> = (0..8).map(|i| mk(i, i == 7)).collect();
        a.post_send_many(qp, &wrs, VTime(0)).unwrap();
        assert_eq!(dst.to_vec(0, 64), vec![7u8; 64]);
        // Exactly one CQE: the signaled tail wr.
        let c = a.poll_send_cq().expect("tail CQE");
        assert_eq!(c.wr_id, 99);
        assert!(a.poll_send_cq().is_none());
        assert_eq!(a.counters().reads, 8);

        // Same 8 reads posted individually: the batched tail completes no
        // later in virtual time (back-to-back posts absorb the overhead in
        // the depart floor either way — the doorbell's saving is the
        // *wall-clock* post path: one QP lookup and one CQE for the run).
        let (_sw2, a2, b2) = {
            let sw2 = Arc::new(Switch::new(NetworkModel::ib_fdr()));
            let x = Nic::attach_new(&sw2, DEFAULT_REG_LIMIT);
            let y = Nic::attach_new(&sw2, DEFAULT_REG_LIMIT);
            (sw2, x, y)
        };
        let dst2 = a2.register(64, Access::ALL).unwrap();
        let src2 = b2.register(64, Access::ALL).unwrap();
        let qp2 = a2.create_qp(1).unwrap();
        let mut last = VTime(0);
        for i in 0..8 {
            let wr = SendWr::new(
                i as u64 + 1,
                WrOp::Read {
                    local: MrSlice::new(&dst2, i * 8, 8),
                    remote: RemoteSlice::from_key(&src2.remote_key(), i * 8, 8),
                },
            );
            a2.post_send(qp2, wr, VTime(0)).unwrap();
        }
        while let Some(c2) = a2.poll_send_cq() {
            last = last.max(c2.ts);
        }
        assert!(
            c.ts <= last,
            "doorbell batch tail {:?} must not lag {} serial posts finishing at {:?}",
            c.ts,
            8,
            last
        );
        assert!(sw.model().send_overhead_ns > 0, "model must charge a posting overhead");
    }

    #[test]
    fn poll_cq_into_appends_without_alloc_semantics() {
        let (_sw, a, b) = two_nodes(NetworkModel::ideal());
        let src = a.register(8, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        for i in 0..3 {
            let wr = SendWr::new(
                i + 1,
                WrOp::Write {
                    local: MrSlice::whole(&src),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: None,
                },
            );
            a.post_send(qp, wr, VTime(0)).unwrap();
        }
        let mut out = Vec::with_capacity(8);
        assert_eq!(a.poll_send_cq_into(2, &mut out), 2);
        assert_eq!(a.poll_send_cq_into(8, &mut out), 1);
        assert_eq!(a.poll_send_cq_into(8, &mut out), 0);
        let ids: Vec<u64> = out.iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, vec![1, 2, 3], "drained in order, appended");
    }

    #[test]
    fn send_recv_two_sided() {
        let (_sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let sbuf = a.register(16, Access::ALL).unwrap();
        let rbuf = b.register(16, Access::ALL).unwrap();
        sbuf.write_at(0, b"hello two-sided!");
        b.post_recv(RecvWr { wr_id: 42, local: MrSlice::whole(&rbuf) }).unwrap();
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::new(3, WrOp::Send { local: MrSlice::whole(&sbuf), imm: Some(5) }),
            VTime(0),
        )
        .unwrap();
        let c = b.poll_recv_cq().unwrap();
        assert_eq!(c.wr_id, 42);
        assert_eq!(c.kind, CompletionKind::RecvDone { src: 0, len: 16, imm: Some(5) });
        assert_eq!(rbuf.to_vec(0, 16), b"hello two-sided!");
        assert_eq!(a.poll_send_cq().unwrap().kind, CompletionKind::SendDone);
    }

    #[test]
    fn unexpected_send_parks_until_recv_posted() {
        let (_sw, a, b) = two_nodes(NetworkModel::ideal());
        let sbuf = a.register(8, Access::ALL).unwrap();
        sbuf.write_u64(0, 77);
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::new(1, WrOp::Send { local: MrSlice::whole(&sbuf), imm: None }),
            VTime(0),
        )
        .unwrap();
        assert!(b.poll_recv_cq().is_none());
        let rbuf = b.register(8, Access::ALL).unwrap();
        b.post_recv(RecvWr { wr_id: 9, local: MrSlice::whole(&rbuf) }).unwrap();
        let c = b.poll_recv_cq().unwrap();
        assert_eq!(c.wr_id, 9);
        assert_eq!(rbuf.read_u64(0), 77);
    }

    #[test]
    fn remote_atomics() {
        let (_sw, a, b) = two_nodes(NetworkModel::ideal());
        let res = a.register(8, Access::ALL).unwrap();
        let tgt = b.register(64, Access::ALL).unwrap();
        tgt.write_u64(8, 100);
        let qp = a.create_qp(1).unwrap();
        let remote = RemoteSlice::from_key(&tgt.remote_key(), 8, 8);
        a.post_send(
            qp,
            SendWr::new(1, WrOp::FetchAdd { local: MrSlice::whole(&res), remote, add: 5 }),
            VTime(0),
        )
        .unwrap();
        assert_eq!(res.read_u64(0), 100, "fetched old value");
        assert_eq!(tgt.read_u64(8), 105);
        assert_eq!(a.poll_send_cq().unwrap().kind, CompletionKind::AtomicDone { old: 100 });
        a.post_send(
            qp,
            SendWr::new(
                2,
                WrOp::CompareSwap { local: MrSlice::whole(&res), remote, compare: 105, swap: 1 },
            ),
            VTime(0),
        )
        .unwrap();
        assert_eq!(tgt.read_u64(8), 1);
        // Misaligned atomic target is rejected.
        let bad = RemoteSlice::from_key(&tgt.remote_key(), 4, 8);
        let err = a.post_send(
            qp,
            SendWr::new(3, WrOp::FetchAdd { local: MrSlice::whole(&res), remote: bad, add: 1 }),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::BadAtomicTarget { .. })));
    }

    #[test]
    fn protection_violations_surface_to_initiator() {
        let (_sw, a, b) = two_nodes(NetworkModel::ideal());
        let src = a.register(16, Access::ALL).unwrap();
        let dst = b.register(16, Access::REMOTE_READ.union(Access::LOCAL)).unwrap();
        let qp = a.create_qp(1).unwrap();
        // Write to a read-only region.
        let err = a.post_send(
            qp,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 16),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 16),
                    imm: None,
                },
            ),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::AccessDenied { .. })));
        // Length mismatch.
        let err = a.post_send(
            qp,
            SendWr::new(
                2,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 16),
                    imm: None,
                },
            ),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::LengthMismatch { .. })));
        // Using another node's region as a local slice.
        let err = a.post_send(
            qp,
            SendWr::new(3, WrOp::Send { local: MrSlice::whole(&dst), imm: None }),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::InvalidLkey { .. })));
    }

    #[test]
    fn qp_lifecycle() {
        let (_sw, a, _b) = two_nodes(NetworkModel::ideal());
        let qp = a.create_qp(1).unwrap();
        assert!(a.create_qp(5).is_err(), "peer must exist");
        a.destroy_qp(qp).unwrap();
        let src = a.register(8, Access::ALL).unwrap();
        let err = a.post_send(
            qp,
            SendWr::new(1, WrOp::Send { local: MrSlice::whole(&src), imm: None }),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::NoSuchQp { .. })));
        assert!(a.destroy_qp(qp).is_err());
    }

    #[test]
    fn unsignaled_ops_produce_no_local_completion() {
        let (_sw, a, b) = two_nodes(NetworkModel::ideal());
        let src = a.register(8, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::unsignaled(WrOp::Write {
                local: MrSlice::whole(&src),
                remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                imm: None,
            }),
            VTime(0),
        )
        .unwrap();
        assert!(a.poll_send_cq().is_none());
    }

    #[test]
    fn loopback_qp_works() {
        let (_sw, a, _b) = two_nodes(NetworkModel::ib_fdr());
        let src = a.register(8, Access::ALL).unwrap();
        let dst = a.register(8, Access::ALL).unwrap();
        src.write_u64(0, 314);
        let qp = a.create_qp(0).unwrap();
        a.post_send(
            qp,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::whole(&src),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: None,
                },
            ),
            VTime(0),
        )
        .unwrap();
        assert_eq!(dst.read_u64(0), 314);
    }

    #[test]
    fn pending_send_cap_surfaces_rnr() {
        let sw = Arc::new(Switch::new(NetworkModel::ideal()));
        let a = Nic::attach_with_config(&sw, NicConfig::default());
        let b =
            Nic::attach_with_config(&sw, NicConfig { pending_send_cap: 4, ..NicConfig::default() });
        let _ = &b;
        let src = a.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        let send = |id| {
            a.post_send(
                qp,
                SendWr::new(id, WrOp::Send { local: MrSlice::whole(&src), imm: None }),
                VTime(0),
            )
        };
        for i in 0..4 {
            send(i).unwrap();
        }
        assert!(matches!(send(5), Err(FabricError::ReceiverNotReady { node: 1 })));
    }

    #[test]
    fn cq_overflow_surfaces_to_poster() {
        let sw = Arc::new(Switch::new(NetworkModel::ideal()));
        let a = Nic::attach_with_config(&sw, NicConfig { cq_depth: 2, ..NicConfig::default() });
        let b = Nic::attach_with_config(&sw, NicConfig::default());
        let _ = &b;
        let src = a.register(8, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        let put = |id| {
            a.post_send(
                qp,
                SendWr::new(
                    id,
                    WrOp::Write {
                        local: MrSlice::whole(&src),
                        remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                        imm: None,
                    },
                ),
                VTime(0),
            )
        };
        put(1).unwrap();
        put(2).unwrap();
        assert!(matches!(put(3), Err(FabricError::CqOverflow)));
        // Polling drains the CQ and posting works again.
        assert!(a.poll_send_cq().is_some());
        put(3).unwrap();
    }

    #[test]
    fn qp_flow_stays_ordered_despite_calendar_holes() {
        // Create a hole: another flow on node 0's egress books far in the
        // virtual future. A big write then a small write on ONE QP must
        // still deliver in order — the small one may not jump into the hole.
        let m = NetworkModel::ib_fdr();
        let (sw, a, b) = two_nodes(m);
        let other = a.create_qp(1).unwrap();
        let src = a.register(1 << 20, Access::ALL).unwrap();
        let dst = b.register(1 << 20, Access::ALL).unwrap();
        // Future booking from a "skewed" op on a different QP.
        a.post_send(
            other,
            SendWr::new(
                9,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: None,
                },
            ),
            VTime(1_000_000),
        )
        .unwrap();
        let qp = a.create_qp(1).unwrap();
        let big = 1 << 19; // ~75us of serialization
        a.post_send(
            qp,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, big),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, big),
                    imm: Some(1),
                },
            ),
            VTime(0),
        )
        .unwrap();
        a.post_send(
            qp,
            SendWr::new(
                2,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 8, 8),
                    imm: Some(2),
                },
            ),
            VTime(0),
        )
        .unwrap();
        let c1 = b.poll_recv_cq().unwrap();
        let c2 = b.poll_recv_cq().unwrap();
        assert!(c1.kind == CompletionKind::ImmDone { src: 0, len: big, imm: 1 });
        assert!(
            c2.ts >= c1.ts,
            "same-QP delivery reordered in virtual time: {} then {}",
            c1.ts,
            c2.ts
        );
        let _ = sw;
    }

    #[test]
    fn ping_pong_latency_matches_model() {
        // A full ping-pong over the raw fabric: the virtual round-trip must
        // equal twice the analytic one-way time for gap-limited messages.
        let m = NetworkModel::ib_fdr();
        let (_sw, a, b) = two_nodes(m);
        let abuf = a.register(8, Access::ALL).unwrap();
        let bbuf = b.register(8, Access::ALL).unwrap();
        let qp_ab = a.create_qp(1).unwrap();
        let qp_ba = b.create_qp(0).unwrap();

        // a writes to b at t=0.
        a.post_send(
            qp_ab,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::whole(&abuf),
                    remote: RemoteSlice::from_key(&bbuf.remote_key(), 0, 8),
                    imm: Some(1),
                },
            ),
            VTime(0),
        )
        .unwrap();
        let arrive_b = b.poll_recv_cq().unwrap().ts;
        // b responds as soon as it (virtually) saw the ping.
        b.post_send(
            qp_ba,
            SendWr::new(
                2,
                WrOp::Write {
                    local: MrSlice::whole(&bbuf),
                    remote: RemoteSlice::from_key(&abuf.remote_key(), 0, 8),
                    imm: Some(2),
                },
            ),
            arrive_b,
        )
        .unwrap();
        let rtt = a.poll_recv_cq().unwrap().ts;
        let oneway = m.send_overhead_ns + m.latency_ns + m.msg_gap_ns;
        assert_eq!(rtt.as_nanos(), 2 * oneway);
    }

    #[test]
    fn dead_peer_flushes_wr_and_errors_the_qp() {
        let (sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let src = a.register(64, Access::ALL).unwrap();
        let dst = b.register(64, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        sw.faults().kill_node_at(1, VTime(10_000));
        let put = |id, now| {
            a.post_send(
                qp,
                SendWr::new(
                    id,
                    WrOp::Write {
                        local: MrSlice::new(&src, 0, 16),
                        remote: RemoteSlice::from_key(&dst.remote_key(), 0, 16),
                        imm: None,
                    },
                ),
                now,
            )
        };
        // Before the kill instant the path is healthy.
        put(1, VTime(0)).unwrap();
        assert!(a.poll_send_cq().unwrap().status.is_ok());
        assert!(a.peer_status(qp, VTime(0)).is_none());
        // At/after the kill, the post fails, the WR flushes as an error CQE,
        // and the QP enters the error state.
        let err = put(2, VTime(20_000));
        assert!(matches!(err, Err(FabricError::PeerUnreachable { node: 1 })));
        let c = a.poll_send_cq().unwrap();
        assert_eq!(c.wr_id, 2);
        assert_eq!(c.status, WcStatus::RemoteDead);
        assert!(a.qp_errored(qp));
        assert_eq!(a.peer_status(qp, VTime(20_000)), Some(WcStatus::RemoteDead));
        // New posts are rejected fast, with no further CQEs.
        assert!(matches!(put(3, VTime(30_000)), Err(FabricError::PeerUnreachable { node: 1 })));
        assert!(a.poll_send_cq().is_none());
        // The destination region never saw the failed writes.
        assert_eq!(sw.nic(1).unwrap().counters().bytes_rx, 16);
    }

    #[test]
    fn partition_window_heals_and_qp_resets() {
        use crate::fault::Window;
        let (sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let src = a.register(8, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        sw.faults().partition_during(0, 1, Window::new(VTime(1_000), VTime(50_000)));
        let put = |id, now| {
            a.post_send(
                qp,
                SendWr::new(
                    id,
                    WrOp::Write {
                        local: MrSlice::whole(&src),
                        remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                        imm: None,
                    },
                ),
                now,
            )
        };
        // Inside the window: RetryExceeded flush, QP errored.
        assert!(matches!(put(1, VTime(2_000)), Err(FabricError::PeerUnreachable { node: 1 })));
        assert_eq!(a.poll_send_cq().unwrap().status, WcStatus::RetryExceeded);
        assert_eq!(a.peer_status(qp, VTime(2_000)), Some(WcStatus::RetryExceeded));
        // The QP stays errored even after the window expires...
        assert!(matches!(put(2, VTime(60_000)), Err(FabricError::PeerUnreachable { .. })));
        // ...until reset; peer_status reports the heal so callers know when
        // a reconnect probe can succeed.
        assert!(a.peer_status(qp, VTime(60_000)).is_none());
        a.reset_qp(qp).unwrap();
        assert!(!a.qp_errored(qp));
        put(3, VTime(60_000)).unwrap();
        assert_eq!(a.poll_send_cq().unwrap().status, WcStatus::Success);
    }

    #[test]
    fn dead_source_fails_loopback_and_read_request() {
        let (sw, a, b) = two_nodes(NetworkModel::ib_fdr());
        let buf = a.register(32, Access::ALL).unwrap();
        let remote_buf = b.register(32, Access::ALL).unwrap();
        sw.faults().kill_node_at(0, VTime(0));
        // Loopback on the dead node itself fails.
        let lo = a.create_qp(0).unwrap();
        let err = a.post_send(
            lo,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::new(&buf, 0, 8),
                    remote: RemoteSlice::from_key(&buf.remote_key(), 8, 8),
                    imm: None,
                },
            ),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::PeerUnreachable { node: 0 })));
        assert_eq!(a.poll_send_cq().unwrap().status, WcStatus::RemoteDead);
        // Reads fail on the outbound request leg.
        let qp = b.create_qp(0).unwrap();
        let err = b.post_send(
            qp,
            SendWr::new(
                2,
                WrOp::Read {
                    local: MrSlice::whole(&remote_buf),
                    remote: RemoteSlice::from_key(&buf.remote_key(), 0, 32),
                },
            ),
            VTime(0),
        );
        assert!(matches!(err, Err(FabricError::PeerUnreachable { node: 0 })));
        assert_eq!(b.poll_send_cq().unwrap().status, WcStatus::RemoteDead);
    }
}
