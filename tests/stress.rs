//! Stress and soak tests: sustained mixed traffic at scale, tiny-resource
//! configurations, and many-rank jobs.

use photon::core::{PhotonCluster, PhotonConfig, ReduceOp};
use photon::fabric::NetworkModel;
use photon::msg::{MsgCluster, MsgConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn tiny_resources_sustained_flood() {
    // 8-slot ledgers and a 512-byte ring under 2000 mixed messages per
    // direction: every credit path wraps many times.
    let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::tiny());
    let (p0, p1) = (c.rank(0), c.rank(1));
    // Before the flood, while rank 1 has not probed, rank 0 sends until its
    // ring is out of credits: the `Ok(false)` that ends this loop is a
    // certain credit stall. The flood's rids continue after these.
    let mut primed: u64 = 0;
    while p0.try_send(1, &[primed as u8; 16], primed).unwrap() {
        primed += 1;
    }
    assert_eq!(p0.stats().credit_stalls, 1, "priming ends on exactly one stall");
    std::thread::scope(|s| {
        for (me, other) in [(p0, p1), (p1, p0)] {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(me.rank() as u64);
                let mut expected: u64 = if me.rank() == 0 { primed } else { 0 };
                let mut got: u64 = 0;
                let total = 2000u64;
                while expected < total || got < total {
                    if expected < total && rng.gen_bool(0.6) {
                        let len = rng.gen_range(0..60);
                        me.send(other.rank(), &vec![expected as u8; len], expected).unwrap();
                        expected += 1;
                    } else if got < total {
                        if let Some(ev) =
                            me.poll_completion(photon::core::ProbeFlags::Remote).unwrap()
                        {
                            assert_eq!(ev.rid, got, "in-order delivery per peer");
                            got += 1;
                        }
                    }
                }
            });
        }
    });
    assert!(p0.stats().credit_stalls > 0 || p1.stats().credit_stalls > 0);
}

#[test]
fn sixteen_ranks_all_to_all_pwc_storm() {
    let n = 16;
    let cfg =
        PhotonConfig { ledger_entries: 32, eager_ring_bytes: 8 * 1024, ..PhotonConfig::default() };
    let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), cfg);
    let per_pair = 40u64;
    std::thread::scope(|s| {
        for i in 0..n {
            let c = &c;
            s.spawn(move || {
                let p = c.rank(i);
                let mut sent = vec![0u64; n];
                let mut recvd = 0u64;
                let want = per_pair * (n as u64 - 1);
                let mut turn = 0usize;
                while sent.iter().sum::<u64>() < want || recvd < want {
                    let j = turn % n;
                    turn += 1;
                    if j != i && sent[j] < per_pair {
                        // Encode (src, seq) in the rid for verification.
                        let rid = ((i as u64) << 32) | sent[j];
                        if p.try_send(j, &[i as u8; 16], rid).unwrap() {
                            sent[j] += 1;
                        }
                    }
                    while let Some(r) = p.poll_completion(photon::core::ProbeFlags::Remote).unwrap()
                    {
                        assert_eq!((r.rid >> 32) as usize, r.peer);
                        assert_eq!(r.payload.unwrap(), vec![r.peer as u8; 16]);
                        recvd += 1;
                    }
                }
            });
        }
    });
    // Conservation: every rank sent and received exactly the same count.
    let total_remote: u64 = c.ranks().iter().map(|p| p.stats().remote_completions).sum();
    assert_eq!(total_remote, (n as u64) * per_pair * (n as u64 - 1));
}

#[test]
fn collectives_stress_many_generations() {
    let n = 5;
    let c = PhotonCluster::new(n, NetworkModel::ib_fdr(), PhotonConfig::default());
    std::thread::scope(|s| {
        for p in c.ranks() {
            s.spawn(move || {
                for round in 0..50u64 {
                    let mut v = vec![p.rank() as u64 + round];
                    p.allreduce_u64(&mut v, ReduceOp::Sum).unwrap();
                    let expect: u64 = (0..n as u64).map(|r| r + round).sum();
                    assert_eq!(v[0], expect, "round {round}");
                }
            });
        }
    });
}

#[test]
fn baseline_wildcard_storm() {
    // Many senders, one receiver matching with wildcards: ordering per
    // sender must hold even under wall-clock racing.
    let n = 5;
    let per_sender = 200u64;
    let c = MsgCluster::new(n, NetworkModel::ib_fdr(), MsgConfig::default());
    std::thread::scope(|s| {
        for i in 1..n {
            let c = &c;
            s.spawn(move || {
                let e = c.rank(i);
                for k in 0..per_sender {
                    let mut payload = vec![0u8; 12];
                    payload[0..4].copy_from_slice(&(i as u32).to_le_bytes());
                    payload[4..12].copy_from_slice(&k.to_le_bytes());
                    e.send(0, &payload, 1).unwrap();
                }
            });
        }
        s.spawn(|| {
            let e = c.rank(0);
            let mut next = vec![0u64; n];
            for _ in 0..per_sender * (n as u64 - 1) {
                let m = e.recv(None, Some(1)).unwrap();
                let src = u32::from_le_bytes(m.data[0..4].try_into().unwrap()) as usize;
                let k = u64::from_le_bytes(m.data[4..12].try_into().unwrap());
                assert_eq!(m.src, src);
                assert_eq!(k, next[src], "per-sender FIFO violated");
                next[src] += 1;
            }
        });
    });
}

#[test]
fn rendezvous_pipeline_many_transfers() {
    // Back-to-back tagged rendezvous transfers with payload verification.
    let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
    let (p0, p1) = (c.rank(0), c.rank(1));
    let len = 128 * 1024;
    let sbuf = p0.register_buffer(len).unwrap();
    let rbuf = p1.register_buffer(len).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            for t in 0..20u64 {
                sbuf.fill(t as u8);
                p0.send_rendezvous(1, &sbuf, 0, len, t).unwrap();
                // The receiver confirms consumption before we mutate sbuf.
                let ev = p0.wait_completion_matching(photon::core::ProbeFlags::Remote).unwrap();
                assert_eq!(ev.rid, t);
            }
        });
        s.spawn(|| {
            for t in 0..20u64 {
                p1.recv_rendezvous(0, &rbuf, 0, len, t).unwrap();
                assert_eq!(rbuf.to_vec(len - 16, 16), vec![t as u8; 16]);
                p1.send(0, &[], t).unwrap();
            }
        });
    });
}
