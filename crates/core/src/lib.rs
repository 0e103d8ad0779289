//! # photon-core — the Photon RMA middleware
//!
//! A Rust reproduction of *Photon: Remote Memory Access Middleware for
//! High-Performance Runtime Systems* (Kissel & Swany, IPDRM 2016): the
//! network layer of the HPX-5 runtime stack.
//!
//! Photon's central abstraction is **put/get-with-completion (PWC)**: a
//! one-sided RDMA operation that carries *two* completion identifiers —
//! a `local` id returned to the initiator when its buffer is reusable, and a
//! `remote` id delivered to the *target*, which discovers it by probing.
//! This gives runtime systems (parcel/active-message layers) one-sided data
//! movement *with* remote progress notification, without tag matching,
//! unexpected-message queues, or receiver-side posting.
//!
//! Delivery machinery, as in the original implementation:
//!
//! * **Completion ledgers** ([`ledger`]) — per-peer circular buffers in the
//!   target's registered memory; producers append entries with plain RDMA
//!   writes, consumers poll local memory. Flow control is credit-based, with
//!   consumed-counts returned by RDMA writes to the producer's credit words.
//! * **Eager rings** ([`eager`]) — for small payloads, the data and its
//!   completion ride in a *single* RDMA write of a self-describing frame
//!   into a per-peer ring; the consumer copies the payload to its final
//!   destination at probe time.
//! * **Rendezvous** ([`Photon::post_recv_buffer`] & friends) — the legacy
//!   Photon buffer-exchange protocol: the receiver announces a registered
//!   buffer, the sender RDMA-writes into it and posts a FIN.
//! * **Collectives** ([`collectives`]) — barrier, broadcast, reduce,
//!   allreduce and all-to-all built purely from PWC operations.
//!
//! The protocol state machines are independent of the wire: they speak to
//! a [`photon_fabric::FabricBackend`] trait object, which is either the
//! simulated RDMA fabric from [`photon_fabric`] (deterministic LogGP
//! timing, fault injection — the default, see `DESIGN.md`) or the real
//! sockets transport in [`photon_fabric::sock`] selected via
//! [`PhotonConfig::builder`]'s `backend` knob. Multi-process jobs over the
//! sockets backend join through [`process::PhotonProcess`].
//!
//! ## Quickstart
//!
//! ```
//! use photon_core::{PhotonCluster, PhotonConfig, ProbeFlags};
//! use photon_fabric::NetworkModel;
//!
//! // Two "nodes" over a modeled FDR InfiniBand fabric.
//! let cluster = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
//! let p0 = cluster.rank(0);
//! let p1 = cluster.rank(1);
//!
//! // Rank 1 exposes a buffer; descriptors are exchanged out-of-band here.
//! let dst = p1.register_buffer(64).unwrap();
//! let src = p0.register_buffer(64).unwrap();
//! src.write_at(0, b"hello photon");
//!
//! // Rank 0: put-with-completion, local id 7, remote id 99.
//! p0.put_with_completion(1, &src, 0, 12, &dst.descriptor(), 0, 7, 99).unwrap();
//!
//! // Rank 0 sees its local completion...
//! let c = p0.wait_completion_matching(ProbeFlags::Any).unwrap();
//! assert!(c.is_local() && c.rid == 7);
//! // ...and rank 1 discovers the remote completion by probing.
//! let c = p1.wait_completion_matching(ProbeFlags::Any).unwrap();
//! assert!(c.is_remote());
//! assert_eq!((c.rid, c.peer), (99, 0));
//! assert_eq!(dst.to_vec(0, 12), b"hello photon");
//! ```

#![warn(missing_docs)]

pub mod atomics;
pub mod buffers;
mod cluster;
pub mod collectives;
pub(crate) mod completion;
pub mod config;
mod conn;
pub mod eager;
pub mod layout;
pub mod ledger;
pub mod membership;
pub mod obs;
pub mod photon;
pub mod pool;
pub mod probe;
pub mod process;
pub mod rendezvous;
mod rx;
mod tx;
mod wait;

pub use buffers::PhotonBuffer;
pub use collectives::ReduceOp;
pub use config::{BackendKind, PhotonConfig, PhotonConfigBuilder};
pub use membership::{GossipStats, MemberEntry, MemberStatus, Membership, MembershipConfig};
pub use obs::{
    KeyedLatency, KeyedSummary, LatencySummary, Metrics, Obs, OpKind, SpanTrace, StatsSnapshot,
    TraceExport, TraceOp, TraceRecord, Tracer,
};
pub use photon::{CreditState, GetManyItem, PeerHealthState, Photon, PhotonCluster, PutManyItem};
pub use pool::Recycler;
pub use probe::{Completion, CompletionClass, ProbeFlags};
pub use process::PhotonProcess;

/// The counter-declaration macro, defined in `photon-fabric` (the bottom of
/// the dependency graph) and re-exported so every layer above keeps
/// writing `photon_core::counter_registry!`.
pub use photon_fabric::counter_registry;
pub use photon_fabric::WcStatus;

use photon_fabric::FabricError;
use std::fmt;

/// A rank in the Photon job (dense, 0-based).
pub type Rank = usize;

/// Errors surfaced by the middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhotonError {
    /// An underlying fabric error (protection, resource, connectivity).
    Fabric(FabricError),
    /// The per-peer ledger or eager ring is out of credits; retry after the
    /// peer probes (the blocking wrappers do this automatically).
    WouldBlock,
    /// Rank out of range for this job.
    InvalidRank(Rank),
    /// The payload cannot ever fit the eager ring and no remote buffer was
    /// supplied (use the rendezvous API instead).
    MessageTooLarge {
        /// Requested payload length.
        len: usize,
        /// Maximum a single eager frame can carry under this config.
        max: usize,
    },
    /// Access outside a buffer's bounds.
    OutOfRange {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Buffer capacity.
        cap: usize,
    },
    /// A blocking wait exceeded its deadline (the config-wide wall-clock
    /// deadlock guard, or a per-call `wait_*_for` deadline).
    Timeout {
        /// What the wait was blocked on.
        what: &'static str,
        /// The request id being waited for, when the wait was rid-specific.
        rid: Option<u64>,
    },
    /// The peer has been declared dead by the health machine: it was
    /// evicted and new operations toward it fail fast until a reconnection
    /// probe succeeds.
    PeerDead(Rank),
    /// An operation completed with an error status (its work request was
    /// flushed because the peer died or the path to it broke).
    OpFailed {
        /// The local completion id of the failed operation.
        rid: u64,
        /// The error status carried by its completion.
        status: WcStatus,
    },
    /// An RPC invocation got no reply inside its retry/deadline budget while
    /// the server was still believed reachable (Healthy or Suspect): the
    /// outcome is *unknown* — the request may or may not have executed.
    /// At-most-once callers may safely re-issue with the same sequence
    /// number; the server-side dedup window guarantees single execution.
    RpcTimeout {
        /// The invoked method's registered name.
        method: String,
        /// Send attempts made before giving up (1 = no retries).
        attempts: u32,
    },
    /// An RPC invocation definitively failed: the server was declared dead
    /// by the health machine, the handler returned an application error, or
    /// the reply was unserviceable (unknown method, stale sequence number).
    /// Unlike [`PhotonError::RpcTimeout`] this is a *verdict*, not an
    /// unknown — retrying with the same arguments cannot succeed.
    RpcFailed {
        /// The invoked method's registered name.
        method: String,
        /// Human-readable failure classification.
        reason: String,
    },
    /// Collective participants disagree about parameters.
    Protocol(&'static str),
    /// A [`PhotonConfig`] failed validation (see
    /// [`PhotonConfig::builder`]); the message names the offending knobs.
    Config(String),
}

impl fmt::Display for PhotonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhotonError::Fabric(e) => write!(f, "fabric: {e}"),
            PhotonError::WouldBlock => write!(f, "out of credits (would block)"),
            PhotonError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            PhotonError::MessageTooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds eager capacity {max}")
            }
            PhotonError::OutOfRange { offset, len, cap } => {
                write!(f, "range [{offset}, +{len}) outside buffer of {cap} bytes")
            }
            PhotonError::Timeout { what, rid } => {
                write!(f, "timed out waiting for {what}")?;
                if let Some(rid) = rid {
                    write!(f, " (rid {rid:#x})")?;
                }
                Ok(())
            }
            PhotonError::PeerDead(r) => write!(f, "peer rank {r} is dead"),
            PhotonError::RpcTimeout { method, attempts } => {
                write!(f, "rpc {method} timed out after {attempts} attempt(s)")
            }
            PhotonError::RpcFailed { method, reason } => {
                write!(f, "rpc {method} failed: {reason}")
            }
            PhotonError::OpFailed { rid, status } => {
                write!(f, "operation rid {rid:#x} failed: {status}")
            }
            PhotonError::Protocol(what) => write!(f, "protocol violation: {what}"),
            PhotonError::Config(what) => write!(f, "invalid config: {what}"),
        }
    }
}

impl std::error::Error for PhotonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PhotonError::Fabric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FabricError> for PhotonError {
    fn from(e: FabricError) -> Self {
        PhotonError::Fabric(e)
    }
}

/// Convenience alias used throughout the middleware.
pub type Result<T> = std::result::Result<T, PhotonError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = PhotonError::from(FabricError::CqOverflow);
        assert!(e.to_string().contains("completion queue"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&PhotonError::WouldBlock).is_none());
        assert_eq!(
            PhotonError::MessageTooLarge { len: 10, max: 5 }.to_string(),
            "message of 10 bytes exceeds eager capacity 5"
        );
        assert_eq!(
            PhotonError::Timeout { what: "local completion", rid: None }.to_string(),
            "timed out waiting for local completion"
        );
        assert_eq!(
            PhotonError::Timeout { what: "local completion", rid: Some(0x2a) }.to_string(),
            "timed out waiting for local completion (rid 0x2a)"
        );
        assert_eq!(PhotonError::PeerDead(3).to_string(), "peer rank 3 is dead");
        assert_eq!(
            PhotonError::RpcTimeout { method: "kv.get".into(), attempts: 3 }.to_string(),
            "rpc kv.get timed out after 3 attempt(s)"
        );
        assert_eq!(
            PhotonError::RpcFailed { method: "kv.put".into(), reason: "peer dead".into() }
                .to_string(),
            "rpc kv.put failed: peer dead"
        );
        let e = PhotonError::OpFailed { rid: 0x10, status: WcStatus::RemoteDead };
        assert_eq!(e.to_string(), "operation rid 0x10 failed: remote peer dead");
    }
}
