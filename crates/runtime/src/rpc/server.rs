//! Server side: method registration and request dispatch.
//!
//! Requests arrive as internal-action parcels, so handlers already run on
//! the node's scheduler (an idle worker's poll turn harvests the parcel, a
//! worker executes it) — RPC needs no scheduler machinery of its own.
//! Dispatch is: decode envelope → look up method → (at-most-once only)
//! consult the dedup window → run the handler → reply with a parcel back to
//! the caller's rank.
//!
//! Reply sends can fail (caller died or partitioned mid-call). The server
//! treats that as the caller's problem: the failure is counted
//! (`srv_reply_failures`) and the reply dropped — for at-most-once the
//! cached copy in the dedup window still satisfies a retry after a heal.

use super::wire::{
    decode_request, encode_reply, ST_BAD_REQUEST, ST_BUSY, ST_HANDLER_ERR, ST_NO_SUCH_METHOD,
    ST_OK, ST_STALE,
};
use super::{
    method_hash, Admit, DeliveryPolicy, ErasedHandler, MethodEntry, RpcCounters, RpcMethod, Wire,
};
use crate::runtime::{RtNode, ACTION_RPC_REP};
use std::sync::Arc;

impl RtNode {
    /// Register a handler for method `M` on this node. The handler receives
    /// the decoded request and returns the reply or an application error
    /// string (delivered to the caller as
    /// [`PhotonError::RpcFailed`](photon_core::PhotonError::RpcFailed)).
    ///
    /// Same-binary discipline applies: register before traffic flows, and
    /// re-registering a name replaces its handler. Handlers run on scheduler
    /// workers and may themselves send parcels or RPCs (to *other* ranks;
    /// calling back into a busy self risks worker exhaustion).
    pub fn rpc_serve<M: RpcMethod>(
        &self,
        handler: impl Fn(M::Req) -> Result<M::Rep, String> + Send + Sync + 'static,
    ) {
        let srv_key = self.rpc().latency.register(&format!("{}@srv", M::NAME));
        let erased = Arc::new(move |bytes: &[u8]| match M::Req::from_bytes(bytes) {
            Ok(req) => match handler(req) {
                // A reply too large for its length prefixes is the request's
                // fault as stated (it asked for an unencodable answer): a
                // BAD_REQUEST verdict, never a truncated prefix on the wire.
                Ok(rep) => match rep.to_bytes() {
                    Ok(body) => (ST_OK, body),
                    Err(e) => (ST_BAD_REQUEST, format!("reply encode failed: {e}").into_bytes()),
                },
                Err(msg) => (ST_HANDLER_ERR, msg.into_bytes()),
            },
            Err(_) => (ST_BAD_REQUEST, Vec::new()),
        });
        self.rpc()
            .methods
            .write()
            .insert(method_hash(M::NAME), MethodEntry { latency_key: srv_key, handler: erased });
    }
}

/// Execute one request parcel (already on a scheduler worker).
pub(crate) fn handle_request(node: &Arc<RtNode>, payload: &[u8]) {
    let rpc = node.rpc();
    RpcCounters::bump(&rpc.counters.srv_requests);
    let Ok(env) = decode_request(payload) else {
        // No decodable correlation id: nowhere to send a verdict. The
        // caller's timeout owns this (same fate as a lost parcel).
        return;
    };
    let reply_to = env.client_rank as usize;

    // Resolve the method. The handler Arc is cloned out so the registry
    // lock is never held across handler execution.
    let entry = {
        let methods = rpc.methods.read();
        methods.get(&env.method).map(|m| (m.latency_key, Arc::clone(&m.handler)))
    };
    let Some((latency_key, handler)) = entry else {
        RpcCounters::bump(&rpc.counters.srv_unknown_method);
        send_reply(node, reply_to, env.corr, ST_NO_SUCH_METHOD, &[]);
        return;
    };

    if env.policy == DeliveryPolicy::AtMostOnce.code() {
        // Admission under the window lock, execution outside it: handlers
        // may be slow or themselves block, and duplicates arriving mid-run
        // must still get their InFlight verdict.
        let verdict = rpc.dedup.lock().admit(env.client_rank, env.client_id, env.seq);
        match verdict {
            Admit::Execute => {
                let (status, body) = timed_execute(node, latency_key, &handler, env.req);
                // Cache exactly the (status, body) tail the wire carries so
                // a replayed reply is byte-identical to this one.
                let mut cached = Vec::with_capacity(1 + body.len());
                cached.push(status);
                cached.extend_from_slice(&body);
                rpc.dedup.lock().complete(env.client_rank, env.client_id, env.seq, cached);
                send_reply(node, reply_to, env.corr, status, &body);
            }
            Admit::Replay(cached) => {
                RpcCounters::bump(&rpc.counters.srv_replayed);
                let (status, body) =
                    cached.split_first().map_or((ST_OK, &[][..]), |(s, b)| (*s, b));
                send_reply(node, reply_to, env.corr, status, body);
            }
            Admit::InFlight => {
                // The original execution will reply; answering here would
                // race it. The client's retry timer covers a lost original.
                RpcCounters::bump(&rpc.counters.srv_dup_inflight);
            }
            Admit::Stale => {
                RpcCounters::bump(&rpc.counters.srv_stale);
                send_reply(node, reply_to, env.corr, ST_STALE, &[]);
            }
            Admit::Busy => {
                RpcCounters::bump(&rpc.counters.srv_window_full);
                send_reply(node, reply_to, env.corr, ST_BUSY, &[]);
            }
        }
    } else {
        // Maybe / at-least-once: every delivery executes.
        let (status, body) = timed_execute(node, latency_key, &handler, env.req);
        send_reply(node, reply_to, env.corr, status, &body);
    }
}

/// Run the handler, recording its execution latency under `<method>@srv`.
///
/// Handler panics are contained here: they must not unwind into the
/// scheduler worker (killing it would silently shrink the worker pool for
/// every later parcel). A panic becomes an `ST_HANDLER_ERR` verdict like
/// any application error — cached, replayed, and counted under
/// `srv_handler_panics` — and the server keeps serving.
fn timed_execute(
    node: &Arc<RtNode>,
    latency_key: usize,
    handler: &ErasedHandler,
    req: &[u8],
) -> (u8, Vec<u8>) {
    let rpc = node.rpc();
    RpcCounters::bump(&rpc.counters.srv_executed);
    let start = std::time::Instant::now();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(req)))
        .unwrap_or_else(|payload| {
            RpcCounters::bump(&rpc.counters.srv_handler_panics);
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (ST_HANDLER_ERR, format!("handler panicked: {msg}").into_bytes())
        });
    rpc.latency.record(latency_key, start.elapsed().as_nanos() as u64);
    out
}

fn send_reply(node: &Arc<RtNode>, reply_to: usize, corr: u64, status: u8, body: &[u8]) {
    let enc = encode_reply(corr, status, body);
    if node.send_parcel(reply_to, ACTION_RPC_REP, &enc).is_err() {
        RpcCounters::bump(&node.rpc().counters.srv_reply_failures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::kv::{serve_kv, KvGet, KvPut};
    use crate::rpc::{Admit, RpcOptions};
    use crate::{ActionRegistry, RtConfig, RtError, RuntimeCluster};
    use photon_core::PhotonError;
    use photon_fabric::{NetworkModel, VTime};
    use std::time::Duration;

    fn boot(n: usize) -> RuntimeCluster {
        RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), ActionRegistry::new())
    }

    /// Satellite pin: a panicking handler must be contained as an
    /// `ST_HANDLER_ERR` verdict — not unwind a scheduler worker — and the
    /// server must keep serving afterwards. Pre-fix, the panic killed the
    /// worker thread and the call timed out instead of resolving.
    #[test]
    fn panicking_handler_is_a_verdict_and_the_server_keeps_serving() {
        struct Boom;
        impl RpcMethod for Boom {
            const NAME: &'static str = "boom.panic";
            type Req = u64;
            type Rep = u64;
        }
        let c = boot(2);
        let store = serve_kv(c.node(1));
        c.node(1).rpc_serve::<Boom>(|v| {
            if v == 13 {
                panic!("unlucky request {v}");
            }
            Ok(v)
        });
        let client = c.node(0).rpc_client(1);

        let err = client.call::<Boom>(&13, RpcOptions::at_most_once()).unwrap_err();
        match err {
            RtError::Photon(PhotonError::RpcFailed { method, reason }) => {
                assert_eq!(method, "boom.panic");
                assert!(reason.contains("handler panicked"), "{reason}");
                assert!(reason.contains("unlucky request 13"), "{reason}");
            }
            other => panic!("expected RpcFailed verdict, got {other:?}"),
        }
        // The same method still works for non-panicking input, and other
        // methods on the same node are untouched: no worker died.
        assert_eq!(client.call::<Boom>(&7, RpcOptions::at_most_once()).unwrap(), 7);
        client
            .call::<KvPut>(&(b"k".to_vec(), b"v".to_vec(), 1), RpcOptions::at_most_once())
            .unwrap();
        assert_eq!(
            client.call::<KvGet>(&b"k".to_vec(), RpcOptions::at_most_once()).unwrap(),
            Some(b"v".to_vec())
        );
        assert_eq!(store.apply_count(1), 1);
        let s = c.node(1).rpc_stats();
        assert_eq!(s.srv_handler_panics, 1);
        assert_eq!(s.srv_reply_failures, 0);
        // The panic verdict was cached like any reply: a replayed retry of
        // the same sequence number must not re-execute (and re-panic).
        let verdict = c.node(1).rpc().dedup.lock().admit(0, 1, 0);
        match verdict {
            Admit::Replay(cached) => assert_eq!(cached.first(), Some(&super::ST_HANDLER_ERR)),
            other => panic!("expected cached panic verdict, got {other:?}"),
        }
        c.shutdown();
    }

    /// Satellite pin: when the health machine declares a client's rank
    /// dead, the server must invoke the dedup window's forget path —
    /// otherwise dead clients' windows leak forever and a restarted rank
    /// reusing a client id collides with the dead instance's sequence
    /// state. Pre-fix, `clients()` stays non-zero and the rejoin admit
    /// below answers `Replay` instead of `Execute`.
    #[test]
    fn dead_client_rank_is_forgotten_and_a_rejoin_starts_clean() {
        let c = boot(3);
        serve_kv(c.node(0));
        // Rank 1 calls at-most-once, populating rank 0's dedup window for
        // client_rank=1 (first client id on a node is 1, seq starts at 0).
        let client = c.node(1).rpc_client(0);
        for i in 0..3u64 {
            client
                .call::<KvPut>(&(vec![i as u8], vec![9], 100 + i), RpcOptions::at_most_once())
                .unwrap();
        }
        assert_eq!(c.node(0).rpc().dedup.lock().clients(), 1);

        // Rank 1 dies; the server discovers it via its own health machine
        // (here: an explicit probe, as any traffic toward 1 would).
        c.photon().fabric().switch().faults().kill_node_at(1, VTime(0));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let _ = c.node(0).photon().check_peer(1);
            // The progress loop drains the dead-peer queue; wait for the
            // reap to land.
            if c.node(0).rpc_stats().srv_clients_forgotten >= 1 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "dead client never reaped");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(c.node(0).rpc().dedup.lock().clients(), 0, "dead rank's windows must drop");

        // A restarted rank 1 reusing client id 1 starts from seq 0: with
        // the stale window gone this is a fresh Execute, not a replay of
        // the dead instance's cached reply.
        assert_eq!(c.node(0).rpc().dedup.lock().admit(1, 1, 0), Admit::Execute);
        c.shutdown();
    }
}
