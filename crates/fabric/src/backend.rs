//! The fabric backend seam: one verbs-shaped trait, many transports.
//!
//! The original Photon shipped verbs, uGNI *and* sockets backends behind a
//! single RMA API. This module is that seam for the reproduction:
//! [`FabricBackend`] captures exactly the surface the middleware consumes —
//! memory registration yielding `(addr, rkey)`, QP-style endpoints carrying
//! Send/Write(+imm)/Read/FetchAdd/CompareSwap work requests, and polled
//! completion queues — so the simulated [`crate::Nic`] and the real-sockets
//! [`crate::sock::SockNic`] are interchangeable above this line.
//!
//! ## Endpoint and transport
//!
//! Every backend owns one [`Endpoint`]: the registration table, both CQs,
//! the QP table, receive matching, post-time validation and target-side
//! execution, written once. Registration, QPs, receives and CQ polls are
//! therefore *provided* methods here, over [`FabricBackend::endpoint`]. A
//! backend implements only what its transport decides: job size, how a run
//! of work requests is carried out ([`FabricBackend::post_send_many`]),
//! reachability, and — for a transport that executes work only when its
//! owner polls — the [`FabricBackend::progress`] hook every CQ poll runs
//! first, and the [`FabricBackend::idle`] hook a blocking wait runs before
//! it yields.
//!
//! ## What stays behind the seam
//!
//! Fault injection ([`crate::FaultPlan`]) and the LogGP clock are *sim-only*
//! concerns: the trait exposes their observable consequences (reachability
//! verdicts, incarnations, modeled registration cost) with defaults that a
//! real transport satisfies trivially (`None`, `0`, `false`). Conversely,
//! retransmission and wire framing are sockets-only concerns the sim never
//! sees. Neither leaks through the trait.
//!
//! ## Timestamp contract
//!
//! Every completion carries a [`VTime`]. Backends must deliver timestamps
//! that are *monotone per flow*: a completion observed after another on the
//! same CQ never carries a smaller timestamp than causality allows. The sim
//! derives them from the LogGP model; the sockets backend uses wall-clock
//! nanoseconds against a job-wide epoch, clamped monotone.

use crate::clock::VTime;
use crate::endpoint::Endpoint;
use crate::error::{FabricError, Result};
use crate::mr::{Access, MemoryRegion, MrTable};
use crate::verbs::{Completion, Qp, RecvWr, SendWr, WcStatus};
use crate::NodeId;
use std::fmt::Debug;

/// A fabric transport endpoint for one node: the verbs-like surface the
/// middleware posts against.
///
/// Object-safe by design — the middleware holds `Arc<dyn FabricBackend>`
/// and the cost of dynamic dispatch is noise next to a post's real work
/// (locking, memcpy, or a syscall).
pub trait FabricBackend: Send + Sync + Debug {
    /// The verbs state this backend carries work requests for.
    fn endpoint(&self) -> &Endpoint;

    /// Number of nodes in the job this endpoint belongs to.
    fn num_nodes(&self) -> usize;

    /// Post a run of work requests through one doorbell with the
    /// initiator's clock at `now`. RC ordering holds across the run; stops
    /// at the first failing wr, whose error is returned (wrs before it keep
    /// their effects). Every wr passes [`Endpoint`]'s post-time validation
    /// first.
    fn post_send_many(&self, qp: Qp, wrs: &[SendWr], now: VTime) -> Result<()>;

    /// Reachability pre-check for `peer` without a QP (connection-manager
    /// analogue of [`FabricBackend::peer_status`]): `None` when the path is
    /// healthy, otherwise the status a post would fail with.
    fn node_status(&self, peer: NodeId, now: VTime) -> Option<WcStatus>;

    /// Run by every CQ poll before it reads the queue. A transport that
    /// executes inbound work only when its owner polls receives here; one
    /// that executes at post time has nothing to do.
    fn progress(&self) {}

    /// Run by a blocking wait whose progress pass and rechecks came up
    /// empty, just before it yields. A transport whose endpoints execute
    /// inbound work only when polled serves here the *other* endpoints the
    /// calling thread drives, which a thread stepping several ranks leaves
    /// unpolled while it blocks on one; the default does nothing.
    fn idle(&self) {}

    /// This endpoint's node id (dense, 0-based).
    fn node(&self) -> NodeId {
        self.endpoint().node()
    }

    /// The local registration table (resolve, deregister, accounting).
    fn mrs(&self) -> &MrTable {
        self.endpoint().mrs()
    }

    /// Register a zeroed region of `len` bytes.
    fn register(&self, len: usize, flags: Access) -> Result<MemoryRegion> {
        self.mrs().register(len, flags)
    }

    /// Modeled virtual-time cost of registering `len` bytes. Real
    /// transports charge nothing to virtual time (the wall clock *is* the
    /// clock there).
    fn registration_cost_ns(&self, _len: usize) -> u64 {
        0
    }

    /// Create a reliable-connected QP to `peer`.
    fn create_qp(&self, peer: NodeId) -> Result<Qp> {
        if peer >= self.num_nodes() {
            return Err(FabricError::NoSuchNode { node: peer });
        }
        Ok(self.endpoint().create_qp(peer))
    }

    /// Destroy a QP; subsequent posts on it fail.
    fn destroy_qp(&self, qp: Qp) -> Result<()> {
        self.endpoint().destroy_qp(qp)
    }

    /// Clear a QP's error state after the path to the peer has healed
    /// (reconnection). What the transport knows about the path is kept: a
    /// modeled flow keeps its ordering floors, and a sockets channel that
    /// ran out of retries stays failed.
    fn reset_qp(&self, qp: Qp) -> Result<()> {
        self.endpoint().reset_qp(qp)
    }

    /// True when `qp` is in the error state (posts are rejected).
    fn qp_errored(&self, qp: Qp) -> bool {
        self.endpoint().qp_errored(qp)
    }

    /// Post one send-queue work request: the one-element run.
    fn post_send(&self, qp: Qp, wr: SendWr, now: VTime) -> Result<()> {
        self.post_send_many(qp, std::slice::from_ref(&wr), now)
    }

    /// Post a receive for the next two-sided send; if unexpected sends are
    /// parked, the oldest one matches it at once.
    fn post_recv(&self, wr: RecvWr) -> Result<()> {
        self.endpoint().post_recv(wr)
    }

    /// Drain up to `n` initiator-side completions into `out` (appended);
    /// returns the number drained.
    fn poll_send_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.progress();
        self.endpoint().send_cq().poll_n_into(n, out)
    }

    /// Drain up to `n` target-side completions into `out` (appended);
    /// returns the number drained.
    fn poll_recv_cq_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        self.progress();
        self.endpoint().recv_cq().poll_n_into(n, out)
    }

    /// Poll one initiator-side completion.
    fn poll_send_cq(&self) -> Option<Completion> {
        self.progress();
        self.endpoint().send_cq().poll()
    }

    /// Poll one target-side completion (receives and imm events).
    fn poll_recv_cq(&self) -> Option<Completion> {
        self.progress();
        self.endpoint().recv_cq().poll()
    }

    /// Reachability pre-check for `qp`'s peer at `now`: `None` when the
    /// path is healthy, otherwise the status a post would fail with.
    /// Consults only reachability, never the QP error flag, so callers can
    /// use it to decide when a reconnection probe
    /// ([`FabricBackend::reset_qp`]) may succeed.
    fn peer_status(&self, qp: Qp, now: VTime) -> Option<WcStatus> {
        self.node_status(qp.peer, now)
    }

    /// Whether this endpoint's *own* node is dead at `now` (sim fault
    /// plans only; a real process that can ask is alive).
    fn self_dead_at(&self, _now: VTime) -> bool {
        false
    }

    /// The incarnation of `peer` at `now` (0 = original generation; bumped
    /// by sim-side revive-after-crash). Real transports have one
    /// generation per job.
    fn node_incarnation(&self, _peer: NodeId, _now: VTime) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verbs::{MrSlice, RemoteSlice, WrOp};
    use crate::{Cluster, NetworkModel};
    use std::sync::Arc;

    #[test]
    fn sim_nic_behind_trait_object() {
        let c = Cluster::new(2, NetworkModel::ib_fdr());
        let a: Arc<dyn FabricBackend> = Arc::clone(c.nic(0)) as Arc<dyn FabricBackend>;
        let b: Arc<dyn FabricBackend> = Arc::clone(c.nic(1)) as Arc<dyn FabricBackend>;
        assert_eq!(a.node(), 0);
        assert_eq!(a.num_nodes(), 2);
        let src = a.register(16, Access::ALL).unwrap();
        let dst = b.register(16, Access::ALL).unwrap();
        src.write_u64(0, 7777);
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: None,
                },
            ),
            VTime(0),
        )
        .unwrap();
        assert_eq!(dst.read_u64(0), 7777);
        let mut out = Vec::new();
        assert_eq!(a.poll_send_cq_into(8, &mut out), 1);
        assert_eq!(out[0].wr_id, 1);
        assert!(a.node_status(1, VTime(0)).is_none());
        assert!(!a.self_dead_at(VTime(0)));
        assert_eq!(a.node_incarnation(1, VTime(0)), 0);
    }
}
