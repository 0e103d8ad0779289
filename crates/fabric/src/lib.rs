//! # photon-fabric — a simulated RDMA fabric
//!
//! This crate is the hardware substrate for the `photon-rs` reproduction of
//! *Photon: Remote Memory Access Middleware for High-Performance Runtime
//! Systems* (Kissel & Swany, IPDRM 2016).
//!
//! The original middleware runs over InfiniBand verbs and Cray uGNI.  Neither
//! is available here, so this crate provides a faithful, software-only stand-in
//! with the same structural API surface:
//!
//! * **Memory registration** — buffers must be registered before the "NIC" may
//!   touch them; registration yields `(addr, rkey)` descriptors that peers use
//!   for one-sided access, with bounds and access-flag checking on every op.
//! * **Queue pairs** — reliable-connected endpoints carrying `Send`,
//!   `RdmaWrite` (optionally with immediate data), `RdmaRead`, `FetchAdd` and
//!   `CompareSwap` work requests, with per-QP ordering.
//! * **Completion queues** — polled for initiator- and target-side completion
//!   events, exactly as a verbs consumer would.
//! * **A LogGP network model** — every operation is assigned virtual-time
//!   timestamps from a configurable `(L, o, g, G)` model with per-port
//!   serialization, so latency/bandwidth/message-rate *shapes* match what the
//!   protocols above would exhibit on the modeled hardware.
//!
//! ## Execution model
//!
//! Operations take effect *synchronously* at post time (the posting thread
//! performs the remote memory effect under the target's locks), while
//! completion **timestamps** are computed from the network model.  Virtual
//! time flows along causal chains: completions carry timestamps, consumers
//! advance their [`clock::VClock`] to the maximum of their own time and the
//! event's time, and subsequent posts depart no earlier than the consumer's
//! clock.  This makes sequential patterns (ping-pong, streaming windows,
//! dissemination rounds) deterministic in virtual time while keeping the
//! implementation free of background progress threads.
//!
//! Real wall-clock measurements of the software path (ledger manipulation,
//! probe costs, registration) remain meaningful because the fabric performs
//! real work (real locks, real memcpys) on the posting thread.

#![warn(missing_docs)]

pub mod api;
pub mod backend;
pub mod clock;
pub mod counters;
pub mod error;
pub mod fault;
pub mod model;
pub mod mr;
pub mod nic;
pub mod sock;
pub mod topology;
pub mod verbs;
pub mod wire;

pub use backend::FabricBackend;
pub use clock::{VClock, VTime, COPY_PS_PER_BYTE};
pub use error::{FabricError, Result};
pub use fault::{FaultPlan, Window};
pub use model::NetworkModel;
pub use mr::{Access, MemoryRegion, MrTable, RemoteKey};
pub use nic::{Nic, NicConfig};
pub use topology::Cluster;
pub use verbs::{
    Completion, CompletionKind, Cq, MrSlice, Qp, RecvWr, RemoteSlice, SendWr, WcStatus, WrOp,
};
pub use wire::{PodTopology, Switch};

/// Identifier of a simulated node (0-based, dense).
pub type NodeId = usize;
