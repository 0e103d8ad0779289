//! Verbs-like work-request and completion types.
//!
//! The shapes here deliberately mirror `ibv_post_send` / `ibv_post_recv` /
//! `ibv_poll_cq`: work requests carry a caller-chosen 64-bit `wr_id` that
//! comes back in the completion, operations name local memory through
//! registered-region slices and remote memory through `(addr, rkey)`
//! descriptors, and initiator- vs target-side events arrive on separate
//! completion queues.

use crate::clock::VTime;
use crate::error::{FabricError, Result};
use crate::mr::MemoryRegion;
use crate::NodeId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;

/// A slice of a locally registered region: the gather/scatter element of a
/// work request.
#[derive(Debug, Clone)]
pub struct MrSlice {
    /// The registered region.
    pub mr: MemoryRegion,
    /// Byte offset into the region.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

impl MrSlice {
    /// Slice covering the whole region.
    pub fn whole(mr: &MemoryRegion) -> MrSlice {
        MrSlice { mr: mr.clone(), offset: 0, len: mr.len() }
    }

    /// Slice `[offset, offset+len)` of `mr`.
    pub fn new(mr: &MemoryRegion, offset: usize, len: usize) -> MrSlice {
        MrSlice { mr: mr.clone(), offset, len }
    }

    /// Validate the slice lies within its region.
    pub fn check(&self) -> Result<()> {
        self.mr.check_bounds(self.offset, self.len)
    }
}

/// Remote target of a one-sided operation: `(addr, rkey)` within a peer's
/// registered region, plus the transfer length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSlice {
    /// Remote virtual address (within the peer's registered region).
    pub addr: u64,
    /// Remote key naming the region on the peer.
    pub rkey: u32,
    /// Length in bytes.
    pub len: usize,
}

impl RemoteSlice {
    /// Build from a [`crate::mr::RemoteKey`] at `offset` for `len` bytes.
    pub fn from_key(key: &crate::mr::RemoteKey, offset: usize, len: usize) -> RemoteSlice {
        RemoteSlice { addr: key.addr + offset as u64, rkey: key.rkey, len }
    }
}

/// The operation performed by a send-queue work request.
#[derive(Debug, Clone)]
pub enum WrOp {
    /// Two-sided send: consumes a posted receive at the target.
    Send {
        /// Payload gather.
        local: MrSlice,
        /// Optional 64-bit immediate delivered with the receive completion.
        imm: Option<u64>,
    },
    /// One-sided RDMA write; with `imm`, the target also gets a completion.
    Write {
        /// Payload gather.
        local: MrSlice,
        /// Remote destination.
        remote: RemoteSlice,
        /// Optional immediate: generates a target-side completion event.
        imm: Option<u64>,
    },
    /// One-sided RDMA read: remote bytes land in `local`.
    Read {
        /// Local destination scatter.
        local: MrSlice,
        /// Remote source.
        remote: RemoteSlice,
    },
    /// Remote 64-bit fetch-and-add; the old value lands in `local` (8 bytes).
    FetchAdd {
        /// 8-byte local destination for the fetched value.
        local: MrSlice,
        /// 8-byte, 8-aligned remote target.
        remote: RemoteSlice,
        /// Addend.
        add: u64,
    },
    /// Remote 64-bit compare-and-swap; the old value lands in `local`.
    CompareSwap {
        /// 8-byte local destination for the fetched value.
        local: MrSlice,
        /// 8-byte, 8-aligned remote target.
        remote: RemoteSlice,
        /// Expected value.
        compare: u64,
        /// Replacement value stored on match.
        swap: u64,
    },
}

/// A remote 64-bit atomic as the target executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atomic {
    /// Add the addend to the word.
    FetchAdd(u64),
    /// Store `swap` if the word equals `compare`.
    CompareSwap {
        /// Expected value.
        compare: u64,
        /// Replacement value stored on match.
        swap: u64,
    },
}

impl WrOp {
    /// Number of payload bytes this op moves on the wire (requests for
    /// reads/atomics are accounted separately by the engine).
    pub fn wire_bytes(&self) -> usize {
        match self {
            WrOp::Send { local, .. } | WrOp::Write { local, .. } => local.len,
            WrOp::Read { local, .. } => local.len,
            WrOp::FetchAdd { .. } | WrOp::CompareSwap { .. } => 8,
        }
    }
}

/// A send-queue work request.
#[derive(Debug, Clone)]
pub struct SendWr {
    /// Caller cookie returned in the completion.
    pub wr_id: u64,
    /// The operation.
    pub op: WrOp,
    /// If false, no initiator-side completion is generated (verbs
    /// "unsignaled"); used for piggybacked protocol writes.
    pub signaled: bool,
    /// If set (`Write` ops only), the target overwrites payload bytes
    /// `[off, off+8)` with the delivery time (LE nanoseconds) as the payload
    /// lands. This is the fabric's stand-in for hardware delivery
    /// timestamping and is how middleware propagates virtual time through
    /// one-sided protocol writes that generate no target-side completion. A
    /// stamp that does not fit the payload fails the post with
    /// `OutOfBounds`.
    pub stamp_deliver_at: Option<usize>,
    /// Additional payload offsets stamped exactly like `stamp_deliver_at`.
    /// A doorbell-batched post carries several protocol frames in one
    /// payload; each frame header gets its own delivery timestamp. Empty
    /// (allocation-free) for ordinary single-frame posts.
    pub stamp_deliver_also: Vec<usize>,
}

impl SendWr {
    /// A signaled work request.
    pub fn new(wr_id: u64, op: WrOp) -> SendWr {
        SendWr { wr_id, op, signaled: true, stamp_deliver_at: None, stamp_deliver_also: Vec::new() }
    }

    /// An unsignaled work request (no initiator completion).
    pub fn unsignaled(op: WrOp) -> SendWr {
        SendWr {
            wr_id: 0,
            op,
            signaled: false,
            stamp_deliver_at: None,
            stamp_deliver_also: Vec::new(),
        }
    }

    /// Request a delivery-time stamp at payload offset `off`.
    pub fn with_stamp(mut self, off: usize) -> SendWr {
        self.stamp_deliver_at = Some(off);
        self
    }

    /// Every payload offset this work request stamps.
    pub fn stamps(&self) -> impl Iterator<Item = usize> + '_ {
        self.stamp_deliver_at.iter().chain(&self.stamp_deliver_also).copied()
    }
}

/// A receive-queue work request: where the next matching two-sided send
/// scatters its payload.
#[derive(Debug, Clone)]
pub struct RecvWr {
    /// Caller cookie returned in the completion.
    pub wr_id: u64,
    /// Destination scatter.
    pub local: MrSlice,
}

/// What a completion reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompletionKind {
    /// Initiator: two-sided send fully injected.
    SendDone,
    /// Initiator: RDMA write fully injected (source buffer reusable).
    WriteDone,
    /// Initiator: RDMA read response arrived; data is in the local slice.
    ReadDone,
    /// Initiator: atomic response arrived; `old` is the prior remote value.
    AtomicDone {
        /// Value at the remote location before the operation.
        old: u64,
    },
    /// Target: a two-sided send landed in a posted receive.
    RecvDone {
        /// Source node.
        src: NodeId,
        /// Payload length scattered into the receive buffer.
        len: usize,
        /// Immediate data, if the sender attached any.
        imm: Option<u64>,
    },
    /// Target: an RDMA write-with-immediate landed.
    ImmDone {
        /// Source node.
        src: NodeId,
        /// Payload length written.
        len: usize,
        /// The immediate value.
        imm: u64,
    },
}

/// Completion status, mirroring `ibv_wc_status`: a successful event, or the
/// error class a flushed/failed work request carries. Error completions keep
/// their `wr_id` (so initiators can resolve the matching operation) but the
/// payload/metadata of `kind` is unspecified, as on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WcStatus {
    /// The operation completed successfully.
    Success,
    /// The work request was flushed from a queue pair in the error state
    /// without executing (`IBV_WC_WR_FLUSH_ERR`).
    FlushErr,
    /// The transport gave up retrying: the path to the peer is broken
    /// (`IBV_WC_RETRY_EXC_ERR`), e.g. an active partition.
    RetryExceeded,
    /// The remote node is dead (crash-stop); no retry can succeed.
    RemoteDead,
}

impl WcStatus {
    /// True for [`WcStatus::Success`].
    #[inline]
    pub fn is_ok(self) -> bool {
        self == WcStatus::Success
    }
}

impl fmt::Display for WcStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcStatus::Success => write!(f, "success"),
            WcStatus::FlushErr => write!(f, "work request flushed (WR_FLUSH_ERR)"),
            WcStatus::RetryExceeded => write!(f, "transport retries exceeded (RETRY_EXC_ERR)"),
            WcStatus::RemoteDead => write!(f, "remote peer dead"),
        }
    }
}

/// A completion-queue event.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Cookie from the originating work request (0 for target-side events of
    /// one-sided ops).
    pub wr_id: u64,
    /// Event classification and payload metadata.
    pub kind: CompletionKind,
    /// Virtual time at which the modeled hardware delivered this event.
    pub ts: VTime,
    /// Success, or the error class of a flushed/failed work request.
    pub status: WcStatus,
}

/// A polled completion queue.
///
/// Capacity-bounded, like a real CQ: overflow is an error surfaced to the
/// *poster* (the simulated NIC refuses the op), so tests can exercise
/// CQ-sizing bugs deterministically instead of corrupting events.
#[derive(Debug)]
pub struct Cq {
    q: Mutex<VecDeque<Completion>>,
    capacity: usize,
}

/// Default CQ depth, matching common verbs defaults.
pub const DEFAULT_CQ_DEPTH: usize = 4096;

impl Cq {
    /// A CQ holding at most `capacity` events.
    pub fn new(capacity: usize) -> Cq {
        Cq { q: Mutex::new(VecDeque::with_capacity(capacity.min(1024))), capacity }
    }

    /// Append an event; fails with `CqOverflow` when full.
    pub fn push(&self, c: Completion) -> Result<()> {
        let mut q = self.q.lock();
        if q.len() >= self.capacity {
            return Err(FabricError::CqOverflow);
        }
        q.push_back(c);
        Ok(())
    }

    /// Pop the oldest event, if any.
    pub fn poll(&self) -> Option<Completion> {
        self.q.lock().pop_front()
    }

    /// Pop up to `n` events into `out` (appended), returning how many were
    /// drained. Allocation-free: steady-state pollers keep one scratch
    /// vector alive instead of collecting a fresh one per harvest.
    pub fn poll_n_into(&self, n: usize, out: &mut Vec<Completion>) -> usize {
        let mut q = self.q.lock();
        let take = n.min(q.len());
        out.extend(q.drain(..take));
        take
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.q.lock().len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }
}

/// A reliable-connected queue-pair handle.
///
/// Cheap to copy; the NIC validates the handle on every post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Qp {
    /// Queue-pair number on the local NIC.
    pub num: u32,
    /// Local node.
    pub node: NodeId,
    /// Remote node this QP is connected to.
    pub peer: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mr::{Access, MrTable};

    #[test]
    fn cq_fifo_and_overflow() {
        let cq = Cq::new(2);
        let mk = |id| Completion {
            wr_id: id,
            kind: CompletionKind::SendDone,
            ts: VTime(id),
            status: WcStatus::Success,
        };
        cq.push(mk(1)).unwrap();
        cq.push(mk(2)).unwrap();
        assert!(matches!(cq.push(mk(3)), Err(FabricError::CqOverflow)));
        assert_eq!(cq.poll().unwrap().wr_id, 1);
        assert_eq!(cq.poll().unwrap().wr_id, 2);
        assert!(cq.poll().is_none());
        assert!(cq.is_empty());
    }

    #[test]
    fn cq_poll_n_drains_in_order() {
        let cq = Cq::new(16);
        for i in 0..5 {
            cq.push(Completion {
                wr_id: i,
                kind: CompletionKind::SendDone,
                ts: VTime(i),
                status: WcStatus::Success,
            })
            .unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(cq.poll_n_into(3, &mut got), 3);
        assert_eq!(got.iter().map(|c| c.wr_id).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll_n_into(10, &mut got), 2);
    }

    #[test]
    fn mr_slice_check() {
        let t = MrTable::new(0);
        let mr = t.register(32, Access::ALL).unwrap();
        assert!(MrSlice::new(&mr, 0, 32).check().is_ok());
        assert!(MrSlice::new(&mr, 16, 16).check().is_ok());
        assert!(MrSlice::new(&mr, 16, 17).check().is_err());
    }

    #[test]
    fn wire_bytes_per_op() {
        let t = MrTable::new(0);
        let mr = t.register(64, Access::ALL).unwrap();
        let local = MrSlice::new(&mr, 0, 48);
        let remote = RemoteSlice { addr: 0, rkey: 0, len: 48 };
        assert_eq!(WrOp::Send { local: local.clone(), imm: None }.wire_bytes(), 48);
        assert_eq!(WrOp::Write { local: local.clone(), remote, imm: None }.wire_bytes(), 48);
        let r8 = RemoteSlice { addr: 0, rkey: 0, len: 8 };
        assert_eq!(
            WrOp::FetchAdd { local: MrSlice::new(&mr, 0, 8), remote: r8, add: 1 }.wire_bytes(),
            8
        );
    }

    #[test]
    fn wc_status_display_and_classification() {
        assert_eq!(WcStatus::Success.to_string(), "success");
        assert!(WcStatus::FlushErr.to_string().contains("WR_FLUSH_ERR"));
        assert!(WcStatus::RetryExceeded.to_string().contains("RETRY_EXC_ERR"));
        assert!(WcStatus::RemoteDead.to_string().contains("dead"));
        assert!(WcStatus::Success.is_ok());
        for s in [WcStatus::FlushErr, WcStatus::RetryExceeded, WcStatus::RemoteDead] {
            assert!(!s.is_ok(), "{s} must not be ok");
        }
    }

    #[test]
    fn remote_slice_from_key() {
        let key = crate::mr::RemoteKey { addr: 0x1000, rkey: 9, len: 256 };
        let rs = RemoteSlice::from_key(&key, 128, 64);
        assert_eq!(rs.addr, 0x1080);
        assert_eq!(rs.rkey, 9);
        assert_eq!(rs.len, 64);
    }
}
