//! # photon-msg — the two-sided messaging baseline
//!
//! A deliberately classical tag-matched message-passing library (the shape
//! of an MPI point-to-point layer) over the same simulated RDMA fabric as
//! the Photon middleware.  It exists to reproduce the paper-era comparisons:
//! every latency/bandwidth/message-rate figure pits Photon's one-sided PWC
//! machinery against this baseline, so protocol differences — matching,
//! bounce-buffer copies, rendezvous handshakes, per-transfer registration —
//! are isolated from wire costs (identical by construction).
//!
//! Protocols:
//!
//! * **Eager** (small messages): header + payload in one two-sided `Send`
//!   into a pre-posted pool slot; the receiver matches `(src, tag)` against
//!   posted receives and copies the payload out of the slot (matched) or
//!   into an unexpected-message queue (unmatched).
//! * **Rendezvous** (large messages): `RTS(tag, size)` → receiver matches a
//!   posted receive, registers/provides a landing buffer, answers
//!   `CTS(descriptor)` → sender RDMA-writes the payload → `FIN` completes
//!   the receive.  The convenience [`MsgEndpoint::send`]/[`MsgEndpoint::recv`]
//!   path pays per-transfer registration, as an MPI without a registration
//!   cache would; [`MsgEndpoint::send_from`]/[`MsgEndpoint::recv_into`] use
//!   pre-registered [`MsgBuffer`]s for the zero-copy variant.
//!
//! Collectives (barrier, broadcast, reduce/allreduce) are built from
//! send/recv with internal tags, mirroring how the Photon collectives are
//! built from PWC — so collective comparisons are protocol-level, not
//! implementation-trick-level.
//!
//! ```
//! use photon_msg::{MsgCluster, MsgConfig};
//! use photon_fabric::NetworkModel;
//!
//! let c = MsgCluster::new(2, NetworkModel::ib_fdr(), MsgConfig::default());
//! c.rank(0).send(1, b"two-sided", 7).unwrap();
//! let m = c.rank(1).recv(Some(0), Some(7)).unwrap();
//! assert_eq!(m.data, b"two-sided");
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod collectives;
pub mod endpoint;
pub mod nonblocking;
pub mod wire;

pub use buffer::MsgBuffer;
pub use endpoint::{MsgCluster, MsgEndpoint, RecvMsg};
pub use nonblocking::{RecvRequest, SendRequest};

use photon_fabric::FabricError;
use std::fmt;

/// A rank in the messaging job.
pub type Rank = usize;

/// Errors surfaced by the baseline library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgError {
    /// Underlying fabric error.
    Fabric(FabricError),
    /// Rank out of range.
    InvalidRank(Rank),
    /// Receive buffer smaller than the incoming message.
    TruncatedReceive {
        /// Incoming message size.
        incoming: usize,
        /// Receiver capacity.
        capacity: usize,
    },
    /// A blocking wait exceeded the wall-clock deadline.
    Timeout(&'static str),
    /// The peer crashed or the path to it broke: the operation cannot
    /// complete, and every pending operation bound to that peer has been
    /// resolved with this error (no silent hangs). The baseline has no
    /// reconnection machinery — contrast with photon-core's health machine.
    PeerUnreachable(Rank),
    /// Peers disagree about a collective.
    Protocol(&'static str),
    /// Access outside a buffer's bounds.
    OutOfRange {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Buffer capacity.
        cap: usize,
    },
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::Fabric(e) => write!(f, "fabric: {e}"),
            MsgError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            MsgError::TruncatedReceive { incoming, capacity } => {
                write!(f, "message of {incoming} bytes exceeds receive capacity {capacity}")
            }
            MsgError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            MsgError::PeerUnreachable(r) => write!(f, "peer rank {r} is unreachable"),
            MsgError::Protocol(what) => write!(f, "protocol violation: {what}"),
            MsgError::OutOfRange { offset, len, cap } => {
                write!(f, "range [{offset}, +{len}) outside buffer of {cap} bytes")
            }
        }
    }
}

impl std::error::Error for MsgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MsgError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for MsgError {
    fn from(e: FabricError) -> Self {
        MsgError::Fabric(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, MsgError>;

/// Tunables of the baseline library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgConfig {
    /// Messages at or below this size take the eager path.
    pub eager_threshold: usize,
    /// Pre-posted receive-pool slots.
    pub pool_slots: usize,
    /// Modeled software cost of tag matching + receive-request completion
    /// per message, nanoseconds. This is the receive-path work one-sided
    /// delivery avoids; Photon's ledger poll is charged nothing by symmetry
    /// (it is a single local memory read).
    pub match_overhead_ns: u64,
    /// Wall-clock seconds a blocking wait may spin (deadlock guard).
    pub wait_timeout_secs: u64,
    /// Keep a size-keyed pool of registered regions for the convenience
    /// send/recv paths instead of registering per transfer (the classic MPI
    /// registration-cache optimization; ablated by experiment E12).
    pub registration_cache: bool,
}

impl Default for MsgConfig {
    fn default() -> Self {
        MsgConfig {
            eager_threshold: 8192,
            pool_slots: 256,
            match_overhead_ns: 150,
            wait_timeout_secs: 30,
            registration_cache: false,
        }
    }
}

/// Internal tag namespace for collectives (top byte set).
pub(crate) const RESERVED_TAG_BASE: u64 = 0xFF00_0000_0000_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(MsgError::from(FabricError::CqOverflow).to_string().contains("fabric"));
        assert!(MsgError::TruncatedReceive { incoming: 10, capacity: 5 }
            .to_string()
            .contains("exceeds"));
        assert_eq!(MsgError::PeerUnreachable(2).to_string(), "peer rank 2 is unreachable");
    }

    #[test]
    fn default_config_sane() {
        let c = MsgConfig::default();
        assert!(c.eager_threshold > 0 && c.pool_slots > 1);
    }
}
