//! End-to-end peer-failure semantics through the full middleware stack:
//! fault-plan injection (crash-stop, windowed partition) → QP error →
//! per-peer health machine → eviction or backoff recovery, exercised over
//! the public API only. Companion to the failure-model section of
//! DESIGN.md and experiment E17.

use photon_core::{PeerHealthState, PhotonCluster, PhotonConfig, PhotonError, WcStatus};
use photon_fabric::{NetworkModel, VTime, Window};

fn pair(cfg: PhotonConfig) -> PhotonCluster {
    PhotonCluster::new(2, NetworkModel::ib_fdr(), cfg)
}

#[test]
fn kill_mid_stream_evicts_peer_and_fails_fast() {
    let c = pair(PhotonConfig { wait_timeout_secs: 5, ..PhotonConfig::default() });
    let (p0, p1) = (c.rank(0), c.rank(1));
    let src = p0.register_buffer(64).unwrap();
    let dst = p1.register_buffer(64).unwrap();
    let d = dst.descriptor();
    for i in 0..3u64 {
        p0.put_with_completion(1, &src, 0, 64, &d, 0, i, 100 + i).unwrap();
    }
    // Kill rank 1 one virtual nanosecond from now: the next put's staging
    // memcpy advances the clock across the kill instant, so its transfer
    // fails mid-flight rather than at the pre-post health gate.
    c.fabric().switch().faults().kill_node_at(1, VTime(p0.now().as_nanos() + 1));
    let mut failed_at = None;
    for i in 3..20u64 {
        match p0.put_with_completion(1, &src, 0, 64, &d, 0, i, 100 + i) {
            Ok(()) => continue,
            Err(e) => {
                failed_at = Some((i, e));
                break;
            }
        }
    }
    let (first_failed, e) = failed_at.expect("the kill must surface as an error");
    assert_eq!(e, PhotonError::PeerDead(1));
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Dead);
    // Every rid accepted before the failure resolves — zero hangs. (Their
    // sources were staged, so their local completions are genuine.)
    for i in 0..first_failed {
        p0.wait_local(i).unwrap();
    }
    assert_eq!(p0.in_flight(), 0, "eviction leaves nothing pending toward the dead peer");
    // New operations of every flavor fail fast, without spinning.
    assert_eq!(
        p0.put_with_completion(1, &src, 0, 64, &d, 0, 99, 199),
        Err(PhotonError::PeerDead(1))
    );
    assert_eq!(p0.try_send(1, b"x", 55), Err(PhotonError::PeerDead(1)));
    assert_eq!(p0.put(1, &src, 0, 8, &d, 0, 98), Err(PhotonError::PeerDead(1)));
    let s = p0.stats();
    assert_eq!(s.peers_dead, 1);
    // Death is permanent: even at a much later virtual time the peer stays
    // evicted (crash-stop has no resurrection).
    p0.elapse(1_000_000_000);
    assert_eq!(p0.try_send(1, b"x", 56), Err(PhotonError::PeerDead(1)));
}

#[test]
fn windowed_partition_heals_through_backoff_probes() {
    let c = pair(PhotonConfig { wait_timeout_secs: 10, ..PhotonConfig::default() });
    let (p0, p1) = (c.rank(0), c.rank(1));
    let src = p0.register_buffer(32).unwrap();
    let dst = p1.register_buffer(32).unwrap();
    let d = dst.descriptor();
    src.write_at(0, b"after the storm");
    // Partition 0<->1 for 400us of virtual time starting now. The default
    // backoff schedule (50us deadline, 20us base doubling to 1ms) crosses
    // the window's end well before the 12-probe death budget.
    let t0 = p0.now().as_nanos();
    c.fabric().switch().faults().partition_during(
        0,
        1,
        Window::new(VTime(t0), VTime(t0 + 400_000)),
    );
    // Blocks, turns Suspect, probes with backoff, heals, then posts.
    p0.put_with_completion(1, &src, 0, 15, &d, 0, 7, 8).unwrap();
    p0.wait_local(7).unwrap();
    assert!(
        p0.now().as_nanos() >= t0 + 400_000,
        "recovery cannot precede the partition window's end"
    );
    let ev = p1.wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap();
    assert_eq!((ev.rid, ev.size), (8, 15));
    assert!(ev.status.is_ok());
    assert_eq!(dst.to_vec(0, 15), b"after the storm");
    let s = p0.stats();
    assert!(s.peers_suspected >= 1, "partition must trip the detector");
    assert!(s.reconnect_probes >= 2, "healing takes more than one probe here");
    assert_eq!(s.peer_recoveries, 1);
    assert_eq!(s.peers_dead, 0);
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Healthy);
    // The healed path keeps working with no residual state.
    p0.put_with_completion(1, &src, 0, 15, &d, 16, 9, 10).unwrap();
    p0.wait_local(9).unwrap();
    assert_eq!(p1.wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap().rid, 10);
}

#[test]
fn permanent_partition_exhausts_probe_budget_and_evicts() {
    let c = pair(PhotonConfig { wait_timeout_secs: 5, ..PhotonConfig::default() });
    let p0 = c.rank(0);
    let src = p0.register_buffer(8).unwrap();
    let dst = c.rank(1).register_buffer(8).unwrap();
    let d = dst.descriptor();
    c.fabric().switch().faults().partition_during(0, 1, Window::ALWAYS);
    let e = p0.put_with_completion(1, &src, 0, 8, &d, 0, 1, 2).unwrap_err();
    assert_eq!(e, PhotonError::PeerDead(1));
    let s = p0.stats();
    assert_eq!(s.peers_suspected, 1);
    assert_eq!(s.peers_dead, 1);
    assert!(
        s.reconnect_probes >= u64::from(PhotonConfig::default().suspect_death_probes),
        "eviction only after the full probe budget: {} probes",
        s.reconnect_probes
    );
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Dead);
}

#[test]
fn dead_peer_does_not_stall_traffic_to_survivors() {
    let c = PhotonCluster::new(3, NetworkModel::ib_fdr(), PhotonConfig::default());
    let (p0, p1) = (c.rank(0), c.rank(1));
    c.fabric().switch().faults().kill_node_at(2, VTime(0));
    // Toward the dead rank: immediate, clean failure.
    assert_eq!(p0.try_send(2, b"nope", 1), Err(PhotonError::PeerDead(2)));
    // Toward the survivor: unaffected, exactly-once, payload intact.
    for i in 0..50u64 {
        p0.send(1, format!("msg-{i}").as_bytes(), i).unwrap();
    }
    for i in 0..50u64 {
        let ev = p1.wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap();
        assert_eq!(ev.rid, i);
        assert_eq!(ev.payload.as_deref(), Some(format!("msg-{i}").as_bytes()));
    }
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Healthy);
    assert_eq!(p0.peer_health(2).unwrap(), PeerHealthState::Dead);
}

#[test]
fn eviction_reclaims_credits_and_purges_rendezvous_state() {
    // Tiny rings so a dead consumer would wedge the producer within a few
    // frames if eviction failed to reclaim flow-control credits.
    let cfg = PhotonConfig { wait_timeout_secs: 5, ..PhotonConfig::tiny() };
    let c = pair(cfg);
    let (p0, p1) = (c.rank(0), c.rank(1));
    // Rank 1 announces a rendezvous landing zone; rank 0 parks it.
    let land = p1.register_buffer(64).unwrap();
    p1.post_recv_buffer(0, &land, 0, 64, 42).unwrap();
    while p0.queued_rendezvous().0 == 0 {
        p0.progress().unwrap();
    }
    c.fabric().switch().faults().kill_node_at(1, VTime(p0.now().as_nanos() + 1));
    // Drive sends until the death is detected. Without credit reclamation
    // these would end in a credit-stall timeout, not PeerDead.
    let e = loop {
        match p0.send(1, &[0u8; 48], 5) {
            Ok(()) => continue,
            Err(e) => break e,
        }
    };
    assert_eq!(e, PhotonError::PeerDead(1));
    assert_eq!(
        p0.queued_rendezvous(),
        (0, 0),
        "announces from the dead peer can never complete and must be dropped"
    );
    // Post-eviction sends fail fast instead of stalling on ghost credits.
    assert_eq!(p0.send(1, &[0u8; 48], 6), Err(PhotonError::PeerDead(1)));
}

#[test]
fn wait_local_timeout_leaves_operation_pending() {
    let c = pair(PhotonConfig { wait_timeout_secs: 1, ..PhotonConfig::default() });
    let p0 = c.rank(0);
    let e = p0.wait_local(0x77).unwrap_err();
    assert_eq!(e, PhotonError::Timeout { what: "local completion", rid: Some(0x77) });
    // The rid was never consumed: a later completion still reaches it.
    let src = p0.register_buffer(8).unwrap();
    let dst = c.rank(1).register_buffer(8).unwrap();
    p0.put(1, &src, 0, 8, &dst.descriptor(), 0, 0x77).unwrap();
    p0.wait_local(0x77).unwrap();
}

#[test]
fn failure_status_display_is_stable() {
    // The error surface the runtime layer matches on.
    assert_eq!(PhotonError::PeerDead(3).to_string(), "peer rank 3 is dead");
    assert_eq!(
        PhotonError::OpFailed { rid: 0x10, status: WcStatus::FlushErr }.to_string(),
        "operation rid 0x10 failed: work request flushed (WR_FLUSH_ERR)"
    );
}
