//! Remote procedure calls over parcels, with explicit delivery semantics.
//!
//! The parcel/action layer gives fire-and-forget active messages; runtime
//! services (the paper's motivating HPX-5 workloads, and the remote KV
//! service in [`kv`]) need *invocations*: a typed request, a typed reply,
//! and a contract about how many times the handler runs when the network
//! misbehaves. This module adds that contract on top of parcels:
//!
//! * **Typed request/reply** — methods implement [`RpcMethod`] (a name plus
//!   [`wire::Wire`]-serializable request and reply types); correlation IDs
//!   match replies to outstanding calls, so any number of invocations can be
//!   in flight per node.
//! * **Delivery policies** ([`DeliveryPolicy`]):
//!   - `Maybe` — one send, one bounded wait, no retry. Cheapest; the call
//!     may execute zero or one times.
//!   - `AtLeastOnce` — deterministic retry with exponential per-attempt
//!     deadlines, riding the health machine ([`Photon::check_peer`]) between
//!     attempts so partitions heal (or evict) in virtual time. The handler
//!     may execute more than once.
//!   - `AtMostOnce` — `AtLeastOnce` retries plus per-client sequence numbers
//!     and a bounded server-side dedup window ([`dedup::DedupWindow`]) that
//!     **replays the cached reply instead of re-executing** when a retry
//!     arrives for a request that already ran. The handler executes at most
//!     once; a success reply implies exactly once.
//! * **Failure classification** — a call that exhausts its budget resolves
//!   to [`PhotonError::RpcTimeout`] when the server was still believed
//!   reachable (outcome unknown) or [`PhotonError::RpcFailed`] when the
//!   health machine declared it dead or the server returned a verdict
//!   (handler error, unknown method, stale sequence).
//! * **Observability** — a dedicated [`RpcStats`] counter registry per node
//!   and request-latency histograms keyed by method name
//!   ([`photon_core::KeyedLatency`]), exposed via
//!   [`RtNode::rpc_stats`](crate::RtNode::rpc_stats) and
//!   [`RtNode::rpc_latency`](crate::RtNode::rpc_latency).
//!
//! Server handlers run on the node's scheduler workers like any other
//! parcel handler (requests and replies are internal-action parcels, so they
//! share the eager/rendezvous transport, coalescing, and the quiescence
//! accounting of ordinary parcel traffic).
//!
//! [`Photon::check_peer`]: photon_core::Photon::check_peer
//! [`PhotonError::RpcTimeout`]: photon_core::PhotonError::RpcTimeout
//! [`PhotonError::RpcFailed`]: photon_core::PhotonError::RpcFailed

pub mod client;
pub mod dedup;
pub mod kv;
pub mod server;
pub mod wire;

pub use client::{RpcClient, RpcOptions};
pub use dedup::{Admit, DedupWindow};
pub use wire::Wire;

use parking_lot::{Mutex, RwLock};
use photon_core::KeyedLatency;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// How hard the client tries, and what the server promises about handler
/// execution counts. See the module docs for the full contracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// One attempt, bounded wait, no retry: zero or one executions.
    Maybe,
    /// Retry until reply or budget exhaustion: one or more executions.
    AtLeastOnce,
    /// Retries plus sequence-numbered dedup: at most one execution, and a
    /// success reply implies exactly one.
    AtMostOnce,
}

impl DeliveryPolicy {
    /// Wire encoding.
    pub fn code(self) -> u8 {
        match self {
            DeliveryPolicy::Maybe => 0,
            DeliveryPolicy::AtLeastOnce => 1,
            DeliveryPolicy::AtMostOnce => 2,
        }
    }

    /// Decode; unknown codes map to `None`.
    pub fn from_code(c: u8) -> Option<DeliveryPolicy> {
        Some(match c {
            0 => DeliveryPolicy::Maybe,
            1 => DeliveryPolicy::AtLeastOnce,
            2 => DeliveryPolicy::AtMostOnce,
            _ => return None,
        })
    }
}

/// A typed remote method: a stable name (hashed into the request envelope;
/// same-binary discipline, like action registration) plus the request and
/// reply types that ride the wire.
pub trait RpcMethod {
    /// Registered method name; must be identical on caller and server.
    const NAME: &'static str;
    /// Request payload type.
    type Req: Wire;
    /// Reply payload type.
    type Rep: Wire;
}

/// RPC-layer configuration (part of [`crate::RtConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcConfig {
    /// Per-client capacity of the server-side at-most-once dedup window:
    /// how many (in-flight + cached-reply) entries are retained per client
    /// before the oldest *completed* entries are evicted. Sizing: must cover
    /// the client's maximum concurrent outstanding at-most-once calls (or
    /// the window rejects admissions as busy) plus enough completed slack
    /// that a retry delayed by a full partition-heal cycle still finds its
    /// cached reply (see DESIGN.md, "RPC and delivery semantics").
    pub dedup_window: usize,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig { dedup_window: 64 }
    }
}

/// FNV-1a 64-bit over a method name: the wire identifier of a method.
pub(crate) fn method_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

photon_core::counter_registry! {
    /// Atomic RPC counters for one node (see [`RpcStats`]). Client-side and
    /// server-side counters share the registry because a node is usually
    /// both (every rank can serve and call).
    registry RpcCounters;
    /// RPC statistics for one node.
    snapshot RpcStats;
    table RPC_COUNTERS;
    counters {
        /// Invocations started on this node (any policy).
        calls,
        /// Request-send attempts (first tries and retries).
        attempts,
        /// Attempts beyond each call's first (`attempts - calls` for a
        /// retry-free workload is 0).
        retries,
        /// Calls resolved by a success reply.
        replies_ok,
        /// Calls resolved by a server-side verdict (handler error, unknown
        /// method, stale sequence).
        replies_err,
        /// Calls resolved as [`photon_core::PhotonError::RpcTimeout`].
        timeouts,
        /// Calls resolved as [`photon_core::PhotonError::RpcFailed`] because
        /// the server was declared dead.
        failed_dead,
        /// Replies that arrived after their call had already resolved
        /// (late duplicates; dropped).
        late_replies,
        /// Requests received by this node's server side.
        srv_requests,
        /// Handler executions (at-most-once dedup hits do not execute).
        srv_executed,
        /// At-most-once retries answered from the dedup cache instead of
        /// re-executing the handler.
        srv_replayed,
        /// At-most-once duplicates that arrived while the original was
        /// still executing (client told to back off and retry).
        srv_dup_inflight,
        /// At-most-once requests rejected because their sequence number
        /// fell below the dedup window (reply evicted long ago).
        srv_stale,
        /// At-most-once admissions rejected because the window was full of
        /// in-flight entries (eviction never removes in-flight work).
        srv_window_full,
        /// Requests naming a method this node never registered.
        srv_unknown_method,
        /// Replies this node failed to send (client dead or partitioned);
        /// the client's retry/timeout machinery owns recovery.
        srv_reply_failures,
        /// Handler executions that panicked; the panic was contained and
        /// converted to an `ST_HANDLER_ERR` reply (the server keeps
        /// serving).
        srv_handler_panics,
        /// At-most-once client identities whose dedup state was dropped
        /// because the health machine declared their rank dead.
        srv_clients_forgotten,
    }
}

/// Type-erased handler: raw request bytes in, `(status, body)` out —
/// exactly the reply tail the wire carries (and the dedup window caches),
/// so decode failures and application errors replay byte-identically to
/// successes.
pub(crate) type ErasedHandler = Arc<dyn Fn(&[u8]) -> (u8, Vec<u8>) + Send + Sync>;

/// One registered method on a node's server side.
pub(crate) struct MethodEntry {
    /// Dense key into the node's [`KeyedLatency`] bank.
    pub(crate) latency_key: usize,
    /// The method's type-erased handler.
    pub(crate) handler: ErasedHandler,
}

/// Per-node RPC state: the server-side method table and dedup window, the
/// client-side correlation table, and the shared observability surfaces.
pub(crate) struct RpcState {
    /// method-name hash → handler entry.
    pub(crate) methods: RwLock<HashMap<u64, MethodEntry>>,
    /// correlation id → reply slot for outstanding calls from this node.
    pub(crate) pending: Mutex<HashMap<u64, Arc<crate::lco::FutureBytes>>>,
    /// Correlation-id allocator (node-local; the envelope also carries the
    /// caller's rank, so ids never collide across nodes).
    pub(crate) next_corr: AtomicU64,
    /// Client-instance allocator for at-most-once client identities.
    pub(crate) next_client: AtomicU64,
    /// The at-most-once dedup window (server side).
    pub(crate) dedup: Mutex<DedupWindow>,
    /// RPC counter registry for this node.
    pub(crate) counters: RpcCounters,
    /// Request latency histograms keyed by method name. Client side records
    /// call round-trips; the same bank also carries per-method server
    /// execution latencies under the `<name>@srv` key.
    pub(crate) latency: KeyedLatency,
}

impl RpcState {
    pub(crate) fn new(cfg: RpcConfig) -> RpcState {
        RpcState {
            methods: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            next_client: AtomicU64::new(1),
            dedup: Mutex::new(DedupWindow::new(cfg.dedup_window)),
            counters: RpcCounters::default(),
            latency: KeyedLatency::new(),
        }
    }
}

impl std::fmt::Debug for RpcState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcState")
            .field("methods", &self.methods.read().len())
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_codes_round_trip() {
        for p in [DeliveryPolicy::Maybe, DeliveryPolicy::AtLeastOnce, DeliveryPolicy::AtMostOnce] {
            assert_eq!(DeliveryPolicy::from_code(p.code()), Some(p));
        }
        assert_eq!(DeliveryPolicy::from_code(9), None);
    }

    #[test]
    fn method_hash_distinguishes_names() {
        assert_ne!(method_hash("kv.get"), method_hash("kv.put"));
        assert_eq!(method_hash("kv.get"), method_hash("kv.get"));
    }
}
