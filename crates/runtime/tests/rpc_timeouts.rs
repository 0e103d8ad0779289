//! Timeout-path classification for RPCs that never get a reply, end to end
//! through the runtime stack: a stuck handler vs a dead server vs a
//! partitioned link must resolve to *different* typed errors —
//! [`PhotonError::RpcTimeout`] (outcome unknown), [`PhotonError::RpcFailed`]
//! (server dead: a verdict), and plain [`PhotonError::Timeout`] for
//! Photon-core waits (`wait_local` / `wait_completion_from`) that expire at
//! the config's `wait_timeout_secs` while the RPC is wedged — with retry
//! counters matching the fault plan.

use photon_core::{PeerHealthState, PhotonConfig, PhotonError};
use photon_fabric::{NetworkModel, VTime, Window};
use photon_runtime::rpc::kv::{serve_kv, KvPut};
use photon_runtime::rpc::RpcMethod;
use photon_runtime::{ActionRegistry, RpcOptions, RtConfig, RtError, RuntimeCluster};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn boot(n: usize) -> RuntimeCluster {
    RuntimeCluster::new(n, NetworkModel::ib_fdr(), RtConfig::default(), ActionRegistry::new())
}

/// A method whose handler blocks until the test releases it: the reply
/// exists but arrives after every deadline — the "never gets a reply" case
/// with the server perfectly healthy.
struct Stuck;
impl RpcMethod for Stuck {
    const NAME: &'static str = "stuck";
    type Req = u64;
    type Rep = u64;
}

/// A latch the stuck handler parks on.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

fn serve_stuck(c: &RuntimeCluster, rank: usize) -> Arc<Latch> {
    let latch = Arc::new(Latch::default());
    let l = Arc::clone(&latch);
    c.node(rank).rpc_serve::<Stuck>(move |v| {
        l.wait();
        Ok(v)
    });
    latch
}

#[test]
fn healthy_server_without_reply_is_rpc_timeout_with_full_budget() {
    let c = boot(2);
    let latch = serve_stuck(&c, 1);
    let client = c.node(0).rpc_client(1);
    let opts = RpcOptions::at_least_once().with_timeout(Duration::from_millis(10)).with_attempts(3);
    let err = client.call::<Stuck>(&7, opts).unwrap_err();
    match err {
        RtError::Photon(PhotonError::RpcTimeout { method, attempts }) => {
            assert_eq!(method, "stuck");
            assert_eq!(attempts, 3, "the whole retry budget must burn before giving up");
        }
        other => panic!("expected RpcTimeout, got {other:?}"),
    }
    // Counters tell the same story: one call, three attempts, two retries,
    // one timeout — and no death verdict, because the server is healthy.
    let s = c.node(0).rpc_stats();
    assert_eq!((s.calls, s.attempts, s.retries), (1, 3, 2));
    assert_eq!((s.timeouts, s.failed_dead), (1, 0));
    assert_eq!(c.node(0).photon().peer_health(1).unwrap(), PeerHealthState::Healthy);
    latch.release();
    c.shutdown();
}

#[test]
fn at_most_once_retries_of_a_stuck_call_never_reexecute() {
    let c = boot(2);
    let latch = serve_stuck(&c, 1);
    let client = c.node(0).rpc_client(1);
    let opts = RpcOptions::at_most_once().with_timeout(Duration::from_millis(10)).with_attempts(3);
    let err = client.call::<Stuck>(&7, opts).unwrap_err();
    assert!(
        matches!(err, RtError::Photon(PhotonError::RpcTimeout { .. })),
        "stuck-but-healthy must classify as timeout, got {err:?}"
    );
    // All retries hit the in-flight entry in the dedup window: exactly one
    // handler execution, duplicates suppressed without a reply.
    let s = c.node(1).rpc_stats();
    assert_eq!(s.srv_executed, 1);
    assert!(
        s.srv_dup_inflight >= 1,
        "retries must be absorbed as in-flight duplicates (saw {})",
        s.srv_dup_inflight
    );
    latch.release();
    c.shutdown();
}

#[test]
fn dead_server_resolves_as_rpc_failed_with_retry_audit() {
    let c = boot(2);
    serve_kv(c.node(1));
    c.photon().fabric().switch().faults().kill_node_at(1, VTime(0));
    let client = c.node(0).rpc_client(1);
    let opts = RpcOptions::at_least_once().with_timeout(Duration::from_millis(5)).with_attempts(3);
    let err = client.call::<KvPut>(&(b"k".to_vec(), b"v".to_vec(), 1), opts).unwrap_err();
    match err {
        RtError::Photon(PhotonError::RpcFailed { method, reason }) => {
            assert_eq!(method, "kv.put");
            assert!(reason.contains("dead after 3 attempt(s)"), "{reason}");
        }
        other => panic!("expected RpcFailed, got {other:?}"),
    }
    let s = c.node(0).rpc_stats();
    assert_eq!((s.attempts, s.retries), (3, 2));
    assert_eq!((s.failed_dead, s.timeouts), (1, 0), "death is a verdict, not a timeout");
    assert_eq!(c.node(0).photon().peer_health(1).unwrap(), PeerHealthState::Dead);
    c.shutdown();
}

#[test]
fn partition_that_heals_lets_the_call_land_exactly_once() {
    let c = boot(2);
    let store = serve_kv(c.node(1));
    // Same regime as the core healing test: a 400us window that the health
    // machine's backoff probes cross well inside the death budget.
    let t0 = c.node(0).photon().now().as_nanos();
    c.photon().fabric().switch().faults().partition_during(
        0,
        1,
        Window::new(VTime(t0), VTime(t0 + 400_000)),
    );
    let client = c.node(0).rpc_client(1);
    let opts = RpcOptions::at_most_once().with_timeout(Duration::from_millis(50)).with_attempts(6);
    client.call::<KvPut>(&(b"k".to_vec(), b"v".to_vec(), 9), opts).unwrap();
    assert_eq!(store.apply_count(9), 1, "healed retries must apply exactly once");
    assert!(
        c.node(0).photon().now().as_nanos() >= t0 + 400_000,
        "success cannot precede the partition window's end"
    );
    let ps = c.node(0).photon().stats();
    assert!(ps.peers_suspected >= 1, "the partition must trip the detector");
    assert_eq!(ps.peers_dead, 0);
    assert_eq!(c.node(0).photon().peer_health(1).unwrap(), PeerHealthState::Healthy);
    c.shutdown();
}

#[test]
fn permanent_partition_evicts_and_never_applies() {
    let c = boot(2);
    let store = serve_kv(c.node(1));
    c.photon().fabric().switch().faults().partition_during(0, 1, Window::ALWAYS);
    let client = c.node(0).rpc_client(1);
    let opts = RpcOptions::at_most_once().with_timeout(Duration::from_millis(5)).with_attempts(3);
    let err = client.call::<KvPut>(&(b"k".to_vec(), b"v".to_vec(), 5), opts).unwrap_err();
    match err {
        RtError::Photon(PhotonError::RpcFailed { reason, .. }) => {
            assert!(reason.contains("dead"), "probe-budget exhaustion evicts: {reason}");
        }
        other => panic!("expected RpcFailed after eviction, got {other:?}"),
    }
    assert_eq!(c.node(0).rpc_stats().failed_dead, 1);
    // The request never crossed the cut: nothing may have applied.
    assert_eq!(store.apply_count(5), 0);
    assert!(store.is_empty());
    c.shutdown();
}

#[test]
fn core_waits_classify_as_timeout_while_an_rpc_is_wedged() {
    // While an RPC is stuck awaiting a reply that never comes, app-level
    // Photon waits on the same node must expire as plain `Timeout` — a
    // different error than the RPC's own classification, so callers can
    // tell "my wait expired" from "my invocation's outcome is unknown".
    let cfg = RtConfig {
        photon: PhotonConfig { wait_timeout_secs: 1, ..PhotonConfig::default() },
        ..RtConfig::default()
    };
    let c = RuntimeCluster::new(2, NetworkModel::ib_fdr(), cfg, ActionRegistry::new());
    let latch = serve_stuck(&c, 1);
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let client = c.node(0).rpc_client(1);
            let opts = RpcOptions::at_least_once()
                .with_timeout(Duration::from_millis(20))
                .with_attempts(2);
            client.call::<Stuck>(&1, opts)
        });
        let p0 = c.node(0).photon();
        // A rid nothing will ever complete: bounded wait, typed timeout,
        // operation left pending.
        let e = p0.wait_local(0xBEEF).unwrap_err();
        assert_eq!(e, PhotonError::Timeout { what: "local completion", rid: Some(0xBEEF) });
        // Remote-completion wait on the silent server: same classification
        // (RPC parcels ride the eager path; no PWC completion ever comes).
        let e = p0.wait_completion_from(1).unwrap_err();
        assert_eq!(e, PhotonError::Timeout { what: "remote completion from peer", rid: None });
        let rpc_err = handle.join().expect("rpc thread").unwrap_err();
        assert!(
            matches!(rpc_err, RtError::Photon(PhotonError::RpcTimeout { .. })),
            "the wedged RPC itself classifies as RpcTimeout, got {rpc_err:?}"
        );
    });
    latch.release();
    c.shutdown();
}
