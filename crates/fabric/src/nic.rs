//! The simulated NIC: LogGP timing, per-QP ordering floors and fault
//! gating over the shared verbs [`Endpoint`].
//!
//! Operations execute synchronously on the posting thread (the "NIC DMA" is
//! a locked memcpy into the target's registered region, through the
//! target's endpoint), while completion *timestamps* come from the switch's
//! LogGP accounting. Per-QP ordering is inherited from program order on the
//! posting thread, matching the in-order delivery guarantee of a
//! reliable-connected QP, and held in virtual time by each QP's floors: a
//! later small message must not book an earlier calendar hole than its
//! predecessor.
//!
//! A transfer the switch's fault plan rejects (dead node, partition) fails
//! the verbs way: the QP enters the error state, the work request flushes
//! as an error CQE, and the poster gets `PeerUnreachable`.
//!
//! A post finds everything it touches once and borrows it: the QP's state
//! under the QP table's read lock, both NICs (and their ports) under one
//! read of the switch's attach table, the target region under the target's
//! MR table read lock. Those locks nest in that order, then the region's
//! own lock, then a CQ's.

use crate::backend::FabricBackend;
use crate::clock::{raise_to, VTime};
use crate::endpoint::{Endpoint, NicConfig, QpState};
use crate::error::{FabricError, Result};
use crate::fault::FaultPlan;
use crate::verbs::{
    Atomic, Completion, CompletionKind, MrSlice, Qp, RemoteSlice, SendWr, WcStatus, WrOp,
};
use crate::wire::{Port, Switch, Transfer, REQUEST_BYTES};
use crate::NodeId;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Payloads up to this size are staged in a stack buffer; larger ones in a
/// pooled message buffer.
const INLINE_BYTES: usize = 64;

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

/// A simulated RDMA NIC attached to one node of the cluster.
#[derive(Debug)]
pub struct Nic {
    ep: Endpoint,
    switch: Weak<Switch>,
    /// This node's switch port (its egress and ingress calendars).
    pub(crate) port: Port,
    /// The switch's fault plan, shared so reachability reads need no switch.
    faults: Arc<FaultPlan>,
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
        switch.attach_with(|node, faults| {
            Arc::new(Nic {
                ep: Endpoint::new(node, cfg),
                switch: Arc::downgrade(switch),
                port: Port::default(),
                faults,
                buf_pool: Mutex::new(Vec::new()),
            })
        })
    }

    /// Execute one work request on the QP to `peer`, its departure gated at
    /// `ready`: the model books each wire leg, the target's endpoint applies
    /// the effect at the leg's ordered delivery time.
    fn exec(&self, sw: &Switch, peer: &Nic, st: &QpState, wr: &SendWr, ready: VTime) -> Result<()> {
        self.ep.admit(wr)?;
        let (me, target) = (self.ep.node(), &peer.ep);
        // One wire leg under the verbs failure model: when the fault plan
        // rejects the transfer, the QP enters the error state and the work
        // request flushes as an error CQE carrying `RemoteDead` (either end
        // crashed) or `RetryExceeded` (partition) — pushed even for an
        // unsignaled wr, its `kind` unspecified, as on real hardware.
        let leg = |outbound: bool, bytes, at: VTime, kind| {
            let (src, dst) = if outbound { (self, peer) } else { (peer, self) };
            match sw.leg(src, dst, bytes, at) {
                Err(FabricError::PeerUnreachable { node }) => {
                    st.error.store(true, Ordering::Release);
                    let f = &self.faults;
                    let status = if f.node_dead_at(peer.ep.node(), at) || f.node_dead_at(me, at) {
                        WcStatus::RemoteDead
                    } else {
                        WcStatus::RetryExceeded
                    };
                    // Best effort: a full CQ must not mask the post error.
                    let c = Completion { wr_id: wr.wr_id, kind, ts: at, status };
                    let _ = self.ep.send_cq().push(c);
                    Err(FabricError::PeerUnreachable { node })
                }
                other => other,
            }
        };
        // A header-only request travels out, 8 bytes of old value back.
        let atomic = |local: &MrSlice, remote: &RemoteSlice, op: Atomic| {
            let kind = CompletionKind::AtomicDone { old: 0 };
            let at = ordered(st, leg(true, REQUEST_BYTES, ready, kind.clone())?);
            let old = target.apply_atomic(remote.addr, remote.rkey, op)?;
            let resp = leg(false, 8, at, kind)?;
            local.mr.write_u64(local.offset, old);
            Ok::<_, FabricError>((CompletionKind::AtomicDone { old }, resp.deliver))
        };
        let (kind, ts) = match &wr.op {
            WrOp::Send { local, imm } => self.staged(local.len, gather(local), |data| {
                let t = leg(true, local.len, ready, CompletionKind::SendDone)?;
                target.deliver_send(me, Cow::Borrowed(data), *imm, ordered(st, t))?;
                Ok((CompletionKind::SendDone, t.injected))
            })?,
            WrOp::Write { local, remote, imm } => {
                self.staged(local.len, gather(local), |data| {
                    let t = leg(true, local.len, ready, CompletionKind::WriteDone)?;
                    let deliver = ordered(st, t);
                    target.apply_write(remote.addr, remote.rkey, data, wr.stamps(), deliver)?;
                    if let Some(imm) = *imm {
                        target.push_imm(me, local.len, imm, deliver)?;
                    }
                    Ok((CompletionKind::WriteDone, t.injected))
                })?
            }
            WrOp::Read { local, remote } => {
                // Header-only request travels out; data travels back.
                let at = ordered(st, leg(true, REQUEST_BYTES, ready, CompletionKind::ReadDone)?);
                let source = |buf: &mut [u8]| target.read_into(remote.addr, remote.rkey, buf);
                self.staged(remote.len, source, |data| {
                    let resp = leg(false, remote.len, at, CompletionKind::ReadDone)?;
                    local.mr.write_at(local.offset, data);
                    Ok((CompletionKind::ReadDone, resp.deliver))
                })?
            }
            WrOp::FetchAdd { local, remote, add } => atomic(local, remote, Atomic::FetchAdd(*add))?,
            WrOp::CompareSwap { local, remote, compare, swap } => {
                atomic(local, remote, Atomic::CompareSwap { compare: *compare, swap: *swap })?
            }
        };
        if wr.signaled {
            self.ep.send_cq().push(Completion {
                wr_id: wr.wr_id,
                kind,
                ts,
                status: WcStatus::Success,
            })?;
        }
        Ok(())
    }

    /// Stage a `len`-byte payload: `fill` copies it in, then `f` carries it.
    /// The copy is what lets the source region's lock go before the
    /// target's is taken (a QP to itself may name one region at both ends).
    /// Up to [`INLINE_BYTES`] it lives on the stack; past that in a message
    /// buffer from this thread's lock-free front cache, then from the shared
    /// free list, allocated only when both are empty.
    fn staged<R>(
        &self,
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<()>,
        f: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<R> {
        if len <= INLINE_BYTES {
            let mut inline = [0u8; INLINE_BYTES];
            let buf = &mut inline[..len];
            fill(buf)?;
            return f(buf);
        }
        let mut v = BUF_FRONT
            .with(|c| c.borrow_mut().pop())
            .unwrap_or_else(|| self.buf_pool.lock().pop().unwrap_or_default());
        v.resize(len, 0);
        let res = fill(&mut v).and_then(|()| f(&v));
        self.give_buf(v);
        res
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

    /// Zero all per-QP virtual-time ordering floors (benchmark repetitions;
    /// called by [`crate::Switch::reset_time`]).
    pub(crate) fn reset_flow_floors(&self) {
        self.ep.each_qp(|st| {
            st.depart_floor.store(0, Ordering::Release);
            st.deliver_floor.store(0, Ordering::Release);
        });
    }
}

/// A staging fill that copies `local` out of its region.
fn gather(local: &MrSlice) -> impl FnOnce(&mut [u8]) -> Result<()> + '_ {
    |buf| {
        local.mr.read_at(local.offset, buf);
        Ok(())
    }
}

/// Clamp a leg's delivery to its flow's in-order floor and record the leg
/// as the floors its successors on the QP must respect; returns the ordered
/// delivery time.
fn ordered(st: &QpState, t: Transfer) -> VTime {
    let deliver = VTime(t.deliver.0.max(st.deliver_floor.load(Ordering::Acquire)));
    raise_to(&st.depart_floor, t.injected.0);
    raise_to(&st.deliver_floor, deliver.0);
    deliver
}

impl FabricBackend for Nic {
    fn endpoint(&self) -> &Endpoint {
        &self.ep
    }

    /// Number of nodes attached to this NIC's switch.
    fn num_nodes(&self) -> usize {
        self.switch.upgrade().map_or(0, |sw| sw.len())
    }

    /// The per-post overhead (`send_overhead_ns`), the QP lookup and the
    /// peer lookup are paid once for the whole run. The wrs execute in
    /// order on the same QP, so a signaled *last* wr implies every earlier
    /// one has completed — the contract the middleware's one-CQE batch
    /// fan-out relies on. Effects apply before return; completions carry
    /// modeled timestamps.
    fn post_send_many(&self, qp: Qp, wrs: &[SendWr], now: VTime) -> Result<()> {
        let sw = self.switch.upgrade().ok_or(FabricError::Down)?;
        self.ep.with_live_qp(qp, |st| {
            let nics = sw.nics();
            let peer = nics.get(qp.peer).ok_or(FabricError::NoSuchNode { node: qp.peer })?;
            let base = now + sw.model().send_overhead_ns;
            for wr in wrs {
                // RC in-order floor: never depart before a predecessor on this QP.
                let ready = base.max(VTime(st.depart_floor.load(Ordering::Acquire)));
                self.exec(&sw, peer, st, wr, ready)?;
            }
            Ok(())
        })
    }

    /// From the fault plan: [`WcStatus::RemoteDead`] when `peer` or this
    /// node itself is dead at `now`, [`WcStatus::RetryExceeded`] inside a
    /// partition window, `None` for a healthy path.
    fn node_status(&self, peer: NodeId, now: VTime) -> Option<WcStatus> {
        let f = &self.faults;
        if !f.has_disruptions() {
            return None;
        }
        if f.node_dead_at(peer, now) || f.node_dead_at(self.ep.node(), now) {
            Some(WcStatus::RemoteDead)
        } else if f.partitioned_at(self.ep.node(), peer, now) {
            Some(WcStatus::RetryExceeded)
        } else {
            None
        }
    }

    fn registration_cost_ns(&self, len: usize) -> u64 {
        self.switch.upgrade().map(|sw| sw.model().registration_ns(len)).unwrap_or(0)
    }

    /// Whether the caller's virtual clock has crossed this node's scheduled
    /// kill time (probe rides and partition waits advance clocks past
    /// arbitrary fault boundaries). [`FabricBackend::node_status`] reports
    /// `RemoteDead` when *either* end of the wire is down; this read lets
    /// the layer above tell "the peer died" from "I died" so it never
    /// records a live peer dead on the strength of its own crash.
    fn self_dead_at(&self, now: VTime) -> bool {
        self.faults.node_dead_at(self.ep.node(), now)
    }

    /// The incarnation of `peer` at virtual time `now` (+1 per
    /// [`crate::FaultPlan::revive_node_at`]). A connection established
    /// against one incarnation must not be reused against a later one.
    fn node_incarnation(&self, peer: NodeId, now: VTime) -> u64 {
        self.faults.incarnation_at(peer, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetworkModel;
    use crate::mr::{Access, DEFAULT_REG_LIMIT};
    use crate::verbs::RecvWr;

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
        assert_eq!(a.endpoint().stats().writes, 1);
        assert_eq!(b.endpoint().stats().bytes_rx, 16);
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
        assert_eq!(a.endpoint().stats().reads, 8);

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
        let (_sw, a, _b) = two_nodes(NetworkModel::ideal());
        let src = a.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        // Unsignaled, so the send CQ cannot fill before the receiver's
        // unexpected-send queue does.
        let send = || {
            let op = WrOp::Send { local: MrSlice::whole(&src), imm: None };
            a.post_send(qp, SendWr::unsignaled(op), VTime(0))
        };
        for _ in 0..crate::endpoint::PENDING_SEND_CAP {
            send().unwrap();
        }
        assert!(matches!(send(), Err(FabricError::ReceiverNotReady { node: 1 })));
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
        assert_eq!(sw.nic(1).unwrap().endpoint().stats().bytes_rx, 16);
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
