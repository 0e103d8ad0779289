//! Client side: typed calls, correlation matching, retry and failure
//! classification.
//!
//! One [`RpcClient`] is one at-most-once identity: a `(rank, client_id)`
//! pair whose sequence numbers index the server's dedup window. Identities
//! are never reused across client instances (a fresh instance gets a fresh
//! id), so a restarted client can never collide with its predecessor's
//! sequence space.
//!
//! The retry loop is where delivery policy meets the PR-4 health machine:
//! after every failed send or expired wait the client calls
//! [`Photon::check_peer`] on the server, which runs one health-gate pass —
//! a Suspect (partitioned) server gets a backoff-paced reconnection probe
//! that advances the virtual clock toward the partition's heal point, and a
//! dead one is confirmed dead. Retry therefore *converges deterministically*
//! in virtual time instead of spinning on wall-clock luck: either the
//! partition window is crossed and a retry lands, or the server is declared
//! dead and the call resolves to a typed error.
//!
//! [`Photon::check_peer`]: photon_core::Photon::check_peer

use super::wire::{
    decode_reply, encode_request, ST_BAD_REQUEST, ST_BUSY, ST_HANDLER_ERR, ST_NO_SUCH_METHOD,
    ST_OK, ST_STALE,
};
use super::{method_hash, DeliveryPolicy, RpcCounters, RpcMethod, Wire};
use crate::lco::FutureBytes;
use crate::runtime::{RtNode, ACTION_RPC_REQ};
use crate::{Rank, Result, RtError};
use photon_core::{PeerHealthState, PhotonError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Per-call knobs: the delivery policy and the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcOptions {
    /// Delivery semantics for this call.
    pub policy: DeliveryPolicy,
    /// Base per-attempt reply deadline; attempt `k` waits
    /// `timeout × 2^min(k, 3)` so retries back off while staying bounded.
    pub timeout: Duration,
    /// Total send attempts (1 = no retries; forced to 1 for
    /// [`DeliveryPolicy::Maybe`]).
    pub max_attempts: u32,
}

impl Default for RpcOptions {
    fn default() -> Self {
        RpcOptions {
            policy: DeliveryPolicy::AtLeastOnce,
            timeout: Duration::from_millis(100),
            max_attempts: 4,
        }
    }
}

impl RpcOptions {
    /// Fire-and-hope: one attempt, no retry.
    pub fn maybe() -> RpcOptions {
        RpcOptions { policy: DeliveryPolicy::Maybe, max_attempts: 1, ..RpcOptions::default() }
    }

    /// Retry until reply or budget exhaustion (handler may run repeatedly).
    pub fn at_least_once() -> RpcOptions {
        RpcOptions::default()
    }

    /// Retry with server-side dedup (handler runs at most once).
    pub fn at_most_once() -> RpcOptions {
        RpcOptions { policy: DeliveryPolicy::AtMostOnce, ..RpcOptions::default() }
    }

    /// Builder-style deadline override.
    pub fn with_timeout(mut self, t: Duration) -> RpcOptions {
        self.timeout = t;
        self
    }

    /// Builder-style attempt-budget override.
    pub fn with_attempts(mut self, n: u32) -> RpcOptions {
        self.max_attempts = n;
        self
    }
}

/// A handle for invoking methods on one server rank.
#[derive(Debug)]
pub struct RpcClient {
    node: Arc<RtNode>,
    server: Rank,
    client_id: u64,
    next_seq: std::sync::atomic::AtomicU64,
}

impl RtNode {
    /// A client handle for invoking RPCs on `server` (may be this rank).
    /// Each handle is a distinct at-most-once identity.
    pub fn rpc_client(self: &Arc<Self>, server: Rank) -> RpcClient {
        RpcClient {
            node: Arc::clone(self),
            server,
            client_id: self.rpc().next_client.fetch_add(1, Ordering::Relaxed),
            next_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

impl RpcClient {
    /// The server rank this client targets.
    pub fn server(&self) -> Rank {
        self.server
    }

    /// Invoke method `M` with `req` under `opts`, blocking until the call
    /// resolves: `Ok` with the typed reply, or a typed error —
    /// [`PhotonError::RpcTimeout`] when the budget expired with the server
    /// still believed reachable (outcome unknown), [`PhotonError::RpcFailed`]
    /// when the server is dead or returned a verdict.
    pub fn call<M: RpcMethod>(&self, req: &M::Req, opts: RpcOptions) -> Result<M::Rep> {
        let node = &self.node;
        let rpc = node.rpc();
        let lat_key = rpc.latency.register(M::NAME);
        RpcCounters::bump(&rpc.counters.calls);

        let max_attempts =
            if opts.policy == DeliveryPolicy::Maybe { 1 } else { opts.max_attempts.max(1) };
        // Sequence numbers only mean something under at-most-once; other
        // policies carry zeros the server ignores.
        let (client_id, seq) = if opts.policy == DeliveryPolicy::AtMostOnce {
            (self.client_id, self.next_seq.fetch_add(1, Ordering::Relaxed))
        } else {
            (0, 0)
        };
        // Encode-time bound check: a request whose length-prefixed fields
        // exceed their u32 prefixes must fail here, before anything is
        // sent — truncating a prefix would desync the server's decoder.
        let req_bytes = match req.to_bytes() {
            Ok(b) => b,
            Err(e) => {
                RpcCounters::bump(&rpc.counters.replies_err);
                return Err(rpc_failed::<M>(format!("request encode failed: {e}")));
            }
        };

        // One correlation id for the whole call: every retry is a duplicate
        // of the same envelope, so whichever delivery's reply arrives first
        // resolves the call (the write-once future absorbs the rest). The
        // id only rotates on a Busy verdict, which consumes the future.
        let mut corr = rpc.next_corr.fetch_add(1, Ordering::Relaxed);
        let mut fut = FutureBytes::new();
        rpc.pending.lock().insert(corr, Arc::clone(&fut));
        let mut envelope = encode_request(
            corr,
            node.rank() as u32,
            client_id,
            seq,
            opts.policy.code(),
            method_hash(M::NAME),
            &req_bytes,
        );

        let started = std::time::Instant::now();
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            RpcCounters::bump(&rpc.counters.attempts);
            if attempts > 1 {
                RpcCounters::bump(&rpc.counters.retries);
            }
            let sent = match node.send_parcel(self.server, ACTION_RPC_REQ, &envelope) {
                Ok(()) => {
                    // Coalescing must not strand a lone request behind a
                    // half-full batch while we block on its reply.
                    let _ = node.flush_parcels();
                    true
                }
                Err(RtError::PeerDead(_)) => false,
                Err(e) => {
                    rpc.pending.lock().remove(&corr);
                    return Err(e);
                }
            };
            // Bounded wait even after a failed send: an *earlier* attempt
            // may have been delivered and its reply still be in flight.
            let deadline = opts.timeout * (1u32 << (attempts - 1).min(3));
            if let Some(reply) = fut.wait_for(deadline) {
                if matches!(decode_reply(&reply), Ok((_, ST_BUSY, _))) && attempts < max_attempts {
                    // The dedup window had no room; the future is spent,
                    // so the retry needs a fresh correlation id (the
                    // sequence number — the dedup identity — stays).
                    let mut pending = rpc.pending.lock();
                    pending.remove(&corr);
                    corr = rpc.next_corr.fetch_add(1, Ordering::Relaxed);
                    fut = FutureBytes::new();
                    pending.insert(corr, Arc::clone(&fut));
                    drop(pending);
                    envelope = encode_request(
                        corr,
                        node.rank() as u32,
                        client_id,
                        seq,
                        opts.policy.code(),
                        method_hash(M::NAME),
                        &req_bytes,
                    );
                    let _ = node.photon().check_peer(self.server);
                    // Busy is an instant verdict; without a pause the retry
                    // budget would burn out before any in-flight handler can
                    // finish and free a window slot.
                    std::thread::sleep(deadline / 2);
                    continue;
                }
                break Some(reply);
            }
            // No reply inside the attempt deadline: one health-gate pass —
            // probes a Suspect server (advancing the virtual clock toward a
            // partition heal) or confirms it dead.
            let _ = node.photon().check_peer(self.server);
            if !sent && opts.policy == DeliveryPolicy::Maybe {
                break None; // nothing was ever delivered; no point waiting
            }
            if attempts >= max_attempts {
                break None;
            }
        };
        rpc.pending.lock().remove(&corr);
        // A reply may have landed between the last wait and the removal.
        let outcome = outcome.or_else(|| fut.try_get());

        match outcome.as_deref().map(decode_reply) {
            Some(Ok((_, status, body))) => {
                rpc.latency.record(lat_key, started.elapsed().as_nanos() as u64);
                self.classify_reply::<M>(status, body)
            }
            Some(Err(_)) => {
                RpcCounters::bump(&rpc.counters.replies_err);
                Err(rpc_failed::<M>("malformed reply envelope".into()))
            }
            None => {
                let dead =
                    matches!(node.photon().peer_health(self.server), Ok(PeerHealthState::Dead));
                if dead {
                    RpcCounters::bump(&rpc.counters.failed_dead);
                    Err(rpc_failed::<M>(format!(
                        "server rank {} dead after {attempts} attempt(s)",
                        self.server
                    )))
                } else {
                    RpcCounters::bump(&rpc.counters.timeouts);
                    Err(RtError::Photon(PhotonError::RpcTimeout {
                        method: M::NAME.to_string(),
                        attempts,
                    }))
                }
            }
        }
    }

    fn classify_reply<M: RpcMethod>(&self, status: u8, body: &[u8]) -> Result<M::Rep> {
        let rpc = self.node.rpc();
        match status {
            ST_OK => match M::Rep::from_bytes(body) {
                Ok(rep) => {
                    RpcCounters::bump(&rpc.counters.replies_ok);
                    Ok(rep)
                }
                Err(_) => {
                    RpcCounters::bump(&rpc.counters.replies_err);
                    Err(rpc_failed::<M>("undecodable reply body".into()))
                }
            },
            ST_HANDLER_ERR => {
                RpcCounters::bump(&rpc.counters.replies_err);
                let msg = String::from_utf8_lossy(body).into_owned();
                Err(rpc_failed::<M>(format!("handler error: {msg}")))
            }
            ST_NO_SUCH_METHOD => {
                RpcCounters::bump(&rpc.counters.replies_err);
                Err(rpc_failed::<M>("no such method on server".into()))
            }
            ST_STALE => {
                RpcCounters::bump(&rpc.counters.replies_err);
                Err(rpc_failed::<M>("sequence number evicted from dedup window".into()))
            }
            ST_BUSY => {
                // Budget exhausted on a still-busy server: a verdict (the
                // request never executed), not an unknown.
                RpcCounters::bump(&rpc.counters.replies_err);
                Err(rpc_failed::<M>("server dedup window full".into()))
            }
            ST_BAD_REQUEST => {
                RpcCounters::bump(&rpc.counters.replies_err);
                let detail = if body.is_empty() {
                    "request failed to decode on server".to_string()
                } else {
                    String::from_utf8_lossy(body).into_owned()
                };
                Err(rpc_failed::<M>(detail))
            }
            other => {
                RpcCounters::bump(&rpc.counters.replies_err);
                Err(rpc_failed::<M>(format!("unknown reply status {other}")))
            }
        }
    }
}

fn rpc_failed<M: RpcMethod>(reason: String) -> RtError {
    RtError::Photon(PhotonError::RpcFailed { method: M::NAME.to_string(), reason })
}

/// Resolve one reply parcel against the pending-call table (already on a
/// scheduler worker). Replies for calls that already resolved (late
/// duplicates from retries) are counted and dropped.
pub(crate) fn handle_reply(node: &Arc<RtNode>, payload: &[u8]) {
    let rpc = node.rpc();
    let Ok((corr, _, _)) = decode_reply(payload) else { return };
    let fut = rpc.pending.lock().get(&corr).cloned();
    match fut {
        // The whole envelope is the call's resolution; duplicates are
        // absorbed by write-once semantics.
        Some(f) => f.set(payload.to_vec()),
        None => RpcCounters::bump(&rpc.counters.late_replies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::kv::{serve_kv, KvCas, KvGet, KvPut};
    use crate::rpc::RpcMethod;
    use crate::{ActionRegistry, RtConfig, RuntimeCluster};
    use photon_fabric::NetworkModel;

    fn boot(n: usize) -> RuntimeCluster {
        RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), ActionRegistry::new())
    }

    #[test]
    fn kv_round_trip_all_policies() {
        let c = boot(2);
        let store = serve_kv(c.node(1));
        let client = c.node(0).rpc_client(1);
        for (i, opts) in
            [RpcOptions::maybe(), RpcOptions::at_least_once(), RpcOptions::at_most_once()]
                .into_iter()
                .enumerate()
        {
            let key = vec![i as u8];
            client.call::<KvPut>(&(key.clone(), b"v".to_vec(), 10 + i as u64), opts).unwrap();
            assert_eq!(client.call::<KvGet>(&key, opts).unwrap(), Some(b"v".to_vec()));
            assert_eq!(store.apply_count(10 + i as u64), 1);
        }
        // CAS: success then failure against the moved value.
        let cas = RpcOptions::at_most_once();
        assert!(client
            .call::<KvCas>(&(vec![0], Some(b"v".to_vec()), b"w".to_vec(), 77), cas)
            .unwrap());
        assert!(!client
            .call::<KvCas>(&(vec![0], Some(b"v".to_vec()), b"x".to_vec(), 78), cas)
            .unwrap());
        assert_eq!(store.get(&[0]), Some(b"w".to_vec()));
        assert_eq!((store.apply_count(77), store.apply_count(78)), (1, 0));

        let cs = c.node(0).rpc_stats();
        assert_eq!(cs.calls, 8);
        assert_eq!(cs.replies_ok, 8);
        assert_eq!((cs.retries, cs.timeouts, cs.failed_dead), (0, 0, 0));
        let ss = c.node(1).rpc_stats();
        assert_eq!(ss.srv_requests, 8);
        assert_eq!(ss.srv_executed, 8);
        assert_eq!(ss.srv_replayed, 0);
        // Latency: client keys on method names, server on `@srv` keys.
        assert!(c.node(0).rpc_latency().summary_of("kv.put").unwrap().count >= 1);
        assert!(c.node(1).rpc_latency().summary_of("kv.put@srv").unwrap().count >= 1);
        c.shutdown();
    }

    #[test]
    fn self_calls_and_concurrent_clients_work() {
        let c = boot(2);
        let store = serve_kv(c.node(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    // Two clients call from rank 1, two from the server's
                    // own rank (the local short-circuit path).
                    let client = c.node((t % 2) as usize).rpc_client(0);
                    for i in 0..8u64 {
                        let token = 1 + t * 100 + i;
                        let key = vec![t as u8, i as u8];
                        client
                            .call::<KvPut>(
                                &(key.clone(), vec![9], token),
                                RpcOptions::at_most_once(),
                            )
                            .unwrap();
                        assert_eq!(
                            client.call::<KvGet>(&key, RpcOptions::at_most_once()).unwrap(),
                            Some(vec![9])
                        );
                    }
                });
            }
        });
        for t in 0..4u64 {
            for i in 0..8u64 {
                assert_eq!(store.apply_count(1 + t * 100 + i), 1);
            }
        }
        assert_eq!(store.len(), 32);
        c.shutdown();
    }

    #[test]
    fn unknown_method_and_handler_errors_are_verdicts() {
        struct Nope;
        impl RpcMethod for Nope {
            const NAME: &'static str = "nope";
            type Req = ();
            type Rep = ();
        }
        struct Boom;
        impl RpcMethod for Boom {
            const NAME: &'static str = "boom";
            type Req = ();
            type Rep = ();
        }
        let c = boot(2);
        serve_kv(c.node(1));
        c.node(1).rpc_serve::<Boom>(|()| Err("kaboom".into()));
        let client = c.node(0).rpc_client(1);
        let err = client.call::<Nope>(&(), RpcOptions::at_least_once()).unwrap_err();
        match err {
            RtError::Photon(PhotonError::RpcFailed { method, reason }) => {
                assert_eq!(method, "nope");
                assert!(reason.contains("no such method"), "{reason}");
            }
            other => panic!("expected RpcFailed, got {other:?}"),
        }
        let err = client.call::<Boom>(&(), RpcOptions::at_most_once()).unwrap_err();
        match err {
            RtError::Photon(PhotonError::RpcFailed { method, reason }) => {
                assert_eq!(method, "boom");
                assert!(reason.contains("kaboom"), "{reason}");
            }
            other => panic!("expected RpcFailed, got {other:?}"),
        }
        // Verdicts are not retried: one attempt each.
        let cs = c.node(0).rpc_stats();
        assert_eq!(cs.attempts, 2);
        assert_eq!(cs.replies_err, 2);
        assert_eq!(c.node(1).rpc_stats().srv_unknown_method, 1);
        c.shutdown();
    }

    #[test]
    fn busy_window_resolves_by_retry_after_completion() {
        // A window of 1 with a slow handler: a second in-flight at-most-once
        // call gets Busy verdicts until the first completes, then succeeds
        // on a retry with a fresh correlation id.
        struct Slow;
        impl RpcMethod for Slow {
            const NAME: &'static str = "slow";
            type Req = u64;
            type Rep = u64;
        }
        let cfg =
            RtConfig { rpc: crate::rpc::RpcConfig { dedup_window: 1 }, ..RtConfig::default() };
        let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, ActionRegistry::new());
        let admitted = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let a2 = Arc::clone(&admitted);
        c.node(1).rpc_serve::<Slow>(move |v| {
            a2.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(40));
            Ok(v * 2)
        });
        let n0 = Arc::clone(c.node(0));
        let client = Arc::new(n0.rpc_client(1));
        let opts =
            RpcOptions::at_most_once().with_timeout(Duration::from_millis(30)).with_attempts(6);
        let c1 = Arc::clone(&client);
        let h = std::thread::spawn(move || c1.call::<Slow>(&3, opts));
        // The second call takes its sequence number only once the first is
        // admitted. Were the two numbers to reach the server in the other
        // order, the higher one's completion would raise the window's floor
        // past the lower one, which then resolves as stale, not busy (the
        // case `dedup::eviction_can_strand_the_new_seq` pins).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !admitted.load(Ordering::Acquire) {
            assert!(std::time::Instant::now() < deadline, "the first call was never admitted");
            std::thread::yield_now();
        }
        let c2 = Arc::clone(&client);
        let h2 = std::thread::spawn(move || c2.call::<Slow>(&5, opts));
        let (a, b) = (h.join().unwrap().unwrap(), h2.join().unwrap().unwrap());
        assert_eq!(a + b, 16);
        // The window rejected at least one admission while full.
        assert!(c.node(1).rpc_stats().srv_window_full >= 1);
        c.shutdown();
    }

    #[test]
    fn at_most_once_sequences_are_per_client_instance() {
        let c = boot(2);
        let store = serve_kv(c.node(1));
        // Two client handles on the same rank: distinct identities, so
        // their identical sequence numbers never collide in the window.
        let a = c.node(0).rpc_client(1);
        let b = c.node(0).rpc_client(1);
        a.call::<KvPut>(&(vec![1], vec![1], 1), RpcOptions::at_most_once()).unwrap();
        b.call::<KvPut>(&(vec![2], vec![2], 2), RpcOptions::at_most_once()).unwrap();
        assert_eq!((store.apply_count(1), store.apply_count(2)), (1, 1));
        assert_eq!(c.node(1).rpc_stats().srv_executed, 2);
        c.shutdown();
    }
}
