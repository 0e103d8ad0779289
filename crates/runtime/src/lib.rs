//! # photon-runtime — an HPX-5-lite parcel runtime over Photon
//!
//! Photon's reason to exist is *runtime systems*: message-driven execution
//! models (HPX-5, AM++) that move work to data with active messages and
//! need one-sided data movement **with remote progress notification**.
//! This crate is a compact runtime of that species, built entirely on the
//! `photon-core` public API, serving both as the consumer that motivates the
//! middleware and as the driver for the application-level experiments
//! (GUPS, stencil, parcel rate).
//!
//! Pieces:
//!
//! * **Actions** ([`action`]) — named handlers registered identically on
//!   every rank before the runtime starts (the same-binary discipline of
//!   HPX-5 action registration).
//! * **Parcels** ([`parcel`]) — `(action, payload, optional continuation)`
//!   tuples. Small parcels travel as single eager PWC messages; a large
//!   one is staged in a registered buffer and announced in one eager
//!   message, and the receiver pulls it with a PWC get whose remote notify
//!   lets the sender release the buffer. The sender never waits.
//! * **Scheduler** ([`scheduler`]) — per-node worker pool over one shared
//!   run queue, executing parcel handlers; idle workers take turns polling
//!   the network, so a rank runs no thread besides its workers.
//! * **LCOs** ([`lco`]) — local control objects: futures, countdown
//!   latches, reductions; parcels can carry a continuation that sets a
//!   future on the spawning rank when the remote action returns a value.
//! * **PGAS** ([`gas`]) — a block-distributed global array addressed by
//!   element index, with one-sided `put`/`get` through Photon.
//! * **RPC** ([`rpc`]) — typed remote invocations over parcels with
//!   explicit delivery semantics (maybe / at-least-once / at-most-once with
//!   server-side dedup), plus the remote KV service built on them.
//!
//! ## Example
//!
//! ```
//! use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};
//! use photon_fabric::NetworkModel;
//!
//! let mut reg = ActionRegistry::new();
//! let echo = reg.register("echo", |_ctx, payload| Some(payload.to_vec()));
//!
//! let cluster = RuntimeCluster::new(2, NetworkModel::ib_fdr(), RtConfig::default(), reg);
//! let node0 = cluster.node(0);
//!
//! // Fire an action on rank 1, continuation delivers the result here.
//! let (lco, future) = node0.new_future();
//! node0.send_parcel_with_cont(1, echo, b"ping", lco).unwrap();
//! assert_eq!(future.wait(), b"ping");
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod coalesce;
pub mod gas;
pub mod launch;
pub mod lco;
pub mod parcel;
pub mod rpc;
pub mod runtime;
pub mod scheduler;

pub use action::{ActionId, ActionRegistry, RtContext};
pub use gas::GlobalArray;
pub use launch::{launch, LaunchSpec};
pub use lco::{when_all, CountdownLatch, FutureBytes, LcoRef, ReduceLco};
pub use parcel::Parcel;
pub use rpc::{DeliveryPolicy, RpcClient, RpcConfig, RpcMethod, RpcOptions, RpcStats, Wire};
pub use runtime::{RtConfig, RtNode, RuntimeCluster};

use photon_core::PhotonError;
use std::fmt;

/// A rank in the runtime job.
pub type Rank = usize;

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// Underlying middleware error.
    Photon(PhotonError),
    /// Unknown action id in a parcel.
    UnknownAction(u32),
    /// Rank out of range.
    InvalidRank(Rank),
    /// Malformed parcel bytes.
    BadParcel(&'static str),
    /// The runtime is shutting down.
    ShuttingDown,
    /// The target rank crashed or was evicted by the middleware's health
    /// machine: the parcel was not (and will never be) delivered. The
    /// runtime degrades gracefully — traffic to surviving ranks continues.
    PeerDead(Rank),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Photon(e) => write!(f, "photon: {e}"),
            RtError::UnknownAction(a) => write!(f, "unknown action {a}"),
            RtError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            RtError::BadParcel(w) => write!(f, "bad parcel: {w}"),
            RtError::ShuttingDown => write!(f, "runtime shutting down"),
            RtError::PeerDead(r) => write!(f, "peer rank {r} is dead"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Photon(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PhotonError> for RtError {
    fn from(e: PhotonError) -> Self {
        match e {
            // Normalize both faces of peer failure (declared-dead from the
            // health machine, raw unreachability from the fabric) into one
            // runtime-level classification.
            PhotonError::PeerDead(r) => RtError::PeerDead(r),
            PhotonError::Fabric(photon_fabric::FabricError::PeerUnreachable { node }) => {
                RtError::PeerDead(node)
            }
            e => RtError::Photon(e),
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RtError>;
