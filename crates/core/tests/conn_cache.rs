//! Lazy connection cache + incarnation lifecycle, over the public API:
//! establishment on first contact, bounded-LRU eviction with
//! mark_dead-equivalent flushing, reconnect-on-demand, and the
//! kill-then-rejoin incarnation guard. Companion to DESIGN.md "Membership
//! and connection lifecycle" and experiment E22.

use photon_core::{GetManyItem, PeerHealthState, PhotonCluster, PhotonConfig, PhotonError};
use photon_fabric::{NetworkModel, VTime};

#[test]
fn connections_establish_lazily_on_first_contact() {
    let c = PhotonCluster::new(8, NetworkModel::ideal(), PhotonConfig::default());
    let p0 = c.rank(0);
    for p in c.ranks() {
        assert_eq!(p.conn_count(), 0, "no wiring before traffic");
    }
    // Talking to exactly two peers allocates exactly two connections on
    // this side (plus the acceptor half on each target) — the other five
    // ranks cost nothing.
    p0.send(1, b"one", 1).unwrap();
    p0.send(5, b"five", 2).unwrap();
    assert_eq!(p0.conn_count(), 2);
    assert_eq!(c.rank(1).conn_count(), 1);
    assert_eq!(c.rank(5).conn_count(), 1);
    for r in [2, 3, 4, 6, 7] {
        assert_eq!(c.rank(r).conn_count(), 0, "rank {r} was never contacted");
    }
    assert_eq!(p0.stats().conns_opened, 2);
    // Remote-event FIFOs are lazy too: the receivers allocate one (for
    // rank 0), the bystanders none.
    assert_eq!(c.rank(1).wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap().rid, 1);
    assert_eq!(c.rank(1).remote_fifos_allocated(), 1);
    assert_eq!(c.rank(2).remote_fifos_allocated(), 0);
}

#[test]
fn per_rank_state_is_bounded_by_contacts_not_cluster_size() {
    // The O(N) -> O(contacts) memory pin: a rank in a 64-node job that
    // talks to 3 peers must hold state proportional to 3 blocks, not 64.
    let cfg = PhotonConfig::default();
    let c = PhotonCluster::new(64, NetworkModel::ideal(), cfg);
    let p0 = c.rank(0);
    assert_eq!(p0.conn_state_bytes(), 0, "an idle rank holds no per-peer state");
    for peer in 1..=3usize {
        p0.send(peer, b"hi", peer as u64).unwrap();
    }
    // Self-calibrating bound: rank 1 holds exactly one connection, so
    // rank 0's three contacts may cost at most three of those (plus small
    // fixed overhead) — and in particular nothing close to 63 blocks.
    let one = c.rank(1).conn_state_bytes();
    assert!(one > 0);
    assert!(
        p0.conn_state_bytes() <= 3 * one + 4096,
        "3 contacts cost {} bytes, over the 3-connection bound {}",
        p0.conn_state_bytes(),
        3 * one + 4096
    );
    // A rank that never spoke holds nothing, regardless of cluster size.
    assert_eq!(c.rank(63).conn_state_bytes(), 0);
}

#[test]
fn lru_eviction_disconnects_and_reconnects_on_demand() {
    let cfg = PhotonConfig::builder().conn_cache_cap(2).build().unwrap();
    let c = PhotonCluster::new(4, NetworkModel::ideal(), cfg);
    let p0 = c.rank(0);
    p0.send(1, b"a", 1).unwrap();
    p0.send(2, b"b", 2).unwrap();
    assert_eq!(p0.conn_count(), 2);
    // Third contact exceeds the cap: the LRU victim (peer 1) is torn down.
    p0.send(3, b"c", 3).unwrap();
    assert_eq!(p0.conn_count(), 2);
    assert_eq!(p0.stats().conns_evicted, 1);
    assert_eq!(c.rank(1).conn_count(), 0, "teardown removes the acceptor half too");
    // Eviction is not death: the peer is still healthy, and traffic toward
    // it transparently reconnects (evicting the next LRU victim in turn).
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Healthy);
    p0.send(1, b"again", 4).unwrap();
    assert_eq!(p0.conn_count(), 2);
    assert_eq!(p0.stats().conns_opened, 4, "reconnect counts as a fresh establishment");
    // Teardown was lossless: every message, including the pre-eviction
    // one, reaches its receiver exactly once.
    let ev = c.rank(1).wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap();
    assert_eq!((ev.rid, ev.payload.as_deref()), (1, Some(b"a".as_slice())));
    let ev = c.rank(1).wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap();
    assert_eq!((ev.rid, ev.payload.as_deref()), (4, Some(b"again".as_slice())));
    assert_eq!(c.rank(2).wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap().rid, 2);
    assert_eq!(c.rank(3).wait_completion_matching(photon_core::ProbeFlags::Remote).unwrap().rid, 3);
    // No rank ever exceeded the cap.
    for p in c.ranks() {
        assert!(p.conn_count() <= 2, "rank {} holds {} conns", p.rank(), p.conn_count());
    }
}

#[test]
fn eviction_resolves_in_flight_rids_like_mark_dead() {
    // Eviction runs the mark_dead flush discipline: CQEs that already
    // exist deliver with their true status first, anything left drains as
    // FlushErr — either way every accepted rid resolves typed and the
    // wr table is left empty.
    let cfg = PhotonConfig::builder().conn_cache_cap(2).build().unwrap();
    let c = PhotonCluster::new(4, NetworkModel::ib_fdr(), cfg);
    let p0 = c.rank(0);
    let src = p0.register_buffer(256 * 1024).unwrap();
    let dst = c.rank(1).register_buffer(256 * 1024).unwrap();
    // A direct RDMA put whose CQE lies in the virtual future.
    p0.put(1, &src, 0, 256 * 1024, &dst.descriptor(), 0, 7).unwrap();
    assert_eq!(p0.in_flight(), 1);
    // Evict peer 1 while that wr is outstanding.
    p0.send(2, b"x", 100).unwrap();
    p0.send(3, b"y", 101).unwrap();
    assert!(p0.stats().conns_evicted >= 1);
    assert_eq!(p0.in_flight(), 0, "eviction leaves nothing pending");
    match p0.wait_local(7) {
        Ok(_) => {} // the CQE existed at flush time: true status delivered
        Err(PhotonError::OpFailed { rid: 7, .. }) => {} // drained as FlushErr
        other => panic!("rid must resolve typed, got {other:?}"),
    }
    // The resolved generation stays resolved: reusing the rid after the
    // reconnect completes exactly once, with a genuine success.
    p0.put(1, &src, 0, 64, &dst.descriptor(), 0, 7).unwrap();
    p0.wait_local(7).unwrap();

    // A doorbell batch in flight: four 64 KiB reads behind one CQE. Once
    // peer 1 is evicted, every member has resolved exactly once — through
    // the harvested CQE or the drained wr — not just the wr that carries
    // them.
    let items: Vec<GetManyItem> = (0..4u64)
        .map(|i| GetManyItem {
            loff: i as usize * 64 * 1024,
            len: 64 * 1024,
            soff: i as usize * 64 * 1024,
            local_rid: 20 + i,
        })
        .collect();
    p0.get_many(1, &src, &dst.descriptor(), &items).unwrap();
    assert_eq!(p0.in_flight(), 1, "one wr carries the whole batch");
    // Two more peers push peer 1 out of the two-entry cache again.
    p0.send(2, b"x", 102).unwrap();
    p0.send(3, b"y", 103).unwrap();
    assert_eq!(p0.in_flight(), 0, "eviction leaves nothing pending");
    for it in &items {
        match p0.wait_local(it.local_rid) {
            Ok(_) => {}
            Err(PhotonError::OpFailed { rid, .. }) if rid == it.local_rid => {}
            other => panic!("rid {} must resolve typed, got {other:?}", it.local_rid),
        }
    }
    assert_eq!(p0.queued_events().0, 0, "each member resolved exactly once");
    let opened = p0.stats().conns_opened;
    p0.send(1, b"z", 104).unwrap();
    assert_eq!(p0.stats().conns_opened, opened + 1, "peer 1 had been evicted");
}

#[test]
fn killed_peer_cannot_resurrect_before_rejoin() {
    let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
    let p0 = c.rank(0);
    let kill_at = p0.now().as_nanos() + 1;
    p0.send(1, b"pre", 1).unwrap();
    c.fabric().switch().faults().kill_node_at(1, VTime(kill_at));
    p0.elapse(10);
    let e = loop {
        match p0.send(1, b"mid", 2) {
            Ok(()) => continue,
            Err(e) => break e,
        }
    };
    assert_eq!(e, PhotonError::PeerDead(1));
    assert_eq!(p0.take_dead_peers(), vec![1], "one death, one notification");
    // Long after the crash the peer is still dead — same incarnation, no
    // reconnect, no CM round-trip.
    p0.elapse(1_000_000_000);
    assert_eq!(p0.send(1, b"late", 3), Err(PhotonError::PeerDead(1)));
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Dead);
}

#[test]
fn rejoined_peer_gets_fresh_incarnation_and_state() {
    let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
    let (p0, p1) = (c.rank(0), c.rank(1));
    let src = p0.register_buffer(64).unwrap();
    let dst = p1.register_buffer(64).unwrap();
    let t0 = p0.now().as_nanos();
    c.fabric().switch().faults().kill_node_at(1, VTime(t0 + 1));
    c.fabric().switch().faults().revive_node_at(1, VTime(t0 + 1_000_000));
    p0.elapse(10);
    // Drive traffic into the crash: ops accepted before detection flush.
    let mut flushed = Vec::new();
    let mut rid = 10u64;
    let death = loop {
        match p0.put(1, &src, 0, 64, &dst.descriptor(), 0, rid) {
            Ok(()) => {
                flushed.push(rid);
                rid += 1;
            }
            Err(e) => break e,
        }
    };
    assert_eq!(death, PhotonError::PeerDead(1));
    // Every accepted rid resolves (success or typed flush) — no hangs, and
    // exactly once.
    for r in &flushed {
        let _ = p0.wait_local(*r);
    }
    assert_eq!(p0.in_flight(), 0);
    assert_eq!(p0.take_dead_peers(), vec![1]);
    // Still the dead incarnation: the guard refuses resurrection.
    assert_eq!(p0.send(1, b"too-soon", 500), Err(PhotonError::PeerDead(1)));
    // Cross the revive instant: the next op reconnects against the new
    // incarnation and completes for real.
    p0.elapse(2_000_000);
    p0.put(1, &src, 0, 64, &dst.descriptor(), 0, 900).unwrap();
    p0.wait_local(900).unwrap();
    assert_eq!(p0.peer_health(1).unwrap(), PeerHealthState::Healthy);
    // A rid flushed in the old generation completes cleanly when reused in
    // the new one — the old generation's flush cannot leak into it.
    if let Some(&r) = flushed.first() {
        p0.put(1, &src, 0, 8, &dst.descriptor(), 0, r).unwrap();
        p0.wait_local(r).unwrap();
    }
    assert_eq!(p0.take_dead_peers(), Vec::<usize>::new(), "no duplicate death notification");
}
