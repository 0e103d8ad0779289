//! Backend conformance suite.
//!
//! Every [`FabricBackend`] implementation — the simulated RDMA NIC and the
//! real-sockets transport — must satisfy the same observable contract:
//! registration bounds and access classes are enforced, RC queue pairs
//! deliver writes in posting order, atomics are serialized at the target,
//! completions are delivered exactly once with per-CQ monotone timestamps,
//! and remote protection violations surface as an error (synchronously at
//! post time, as the sim does, or as an error CQE, as a wire transport
//! must). Each scenario below runs against *both* backends through the
//! trait object, never a concrete type.

use photon_fabric::api::{
    Access, Completion, CompletionKind, FabricBackend, FabricError, MrSlice, RecvWr, RemoteSlice,
    SendWr, VTime, WcStatus, WrOp,
};
use photon_fabric::sock::SockCluster;
use photon_fabric::{Cluster, NetworkModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a polled expectation may take before the suite declares the
/// backend broken. Loopback UDP is fast; ten seconds is CI headroom.
const DEADLINE: Duration = Duration::from_secs(10);

/// Two live endpoints plus whatever owns them (the cluster must outlive
/// the trait objects' use).
struct Fixture {
    name: &'static str,
    _owner: Box<dyn std::any::Any>,
    nics: Vec<Arc<dyn FabricBackend>>,
}

fn sim(n: usize) -> Fixture {
    let c = Cluster::new(n, NetworkModel::ib_fdr());
    let nics = (0..n).map(|i| Arc::clone(c.nic(i)) as Arc<dyn FabricBackend>).collect();
    Fixture { name: "sim", _owner: Box::new(c), nics }
}

fn sock(n: usize) -> Fixture {
    let c = SockCluster::new(n).expect("bind sockets cluster");
    let nics = (0..n).map(|i| Arc::clone(c.nic(i)) as Arc<dyn FabricBackend>).collect();
    Fixture { name: "sock", _owner: Box::new(c), nics }
}

/// Both backends, two nodes each.
fn backends() -> Vec<Fixture> {
    vec![sim(2), sock(2)]
}

/// Collect exactly `n` initiator-side completions, spinning until the
/// deadline (the sim completes at post time; sockets complete on ack).
fn wait_send_cqes(nic: &dyn FabricBackend, n: usize) -> Vec<Completion> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < n {
        nic.poll_send_cq_into(n - out.len(), &mut out);
        assert!(start.elapsed() < DEADLINE, "send CQ: got {} of {n} events", out.len());
        std::hint::spin_loop();
    }
    out
}

/// Collect exactly `n` target-side completions before the deadline.
fn wait_recv_cqes(nic: &dyn FabricBackend, n: usize) -> Vec<Completion> {
    let mut out = Vec::new();
    let start = Instant::now();
    while out.len() < n {
        nic.poll_recv_cq_into(n - out.len(), &mut out);
        assert!(start.elapsed() < DEADLINE, "recv CQ: got {} of {n} events", out.len());
        std::hint::spin_loop();
    }
    out
}

/// Spin until the remote region's word at `off` equals `want` (one-sided
/// writes need no target CQE; the data itself is the observable).
fn wait_remote_u64(mr: &photon_fabric::api::MemoryRegion, off: usize, want: u64) {
    let start = Instant::now();
    while mr.read_u64(off) != want {
        assert!(start.elapsed() < DEADLINE, "remote word never became {want:#x}");
        std::hint::spin_loop();
    }
}

#[test]
fn identity_and_registration() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        assert_eq!((a.node(), b.node()), (0, 1), "{}", f.name);
        assert_eq!((a.num_nodes(), b.num_nodes()), (2, 2), "{}", f.name);

        let mr = a.register(256, Access::ALL).unwrap();
        assert_eq!(mr.len(), 256, "{}", f.name);
        assert_eq!(mr.node(), 0, "{}", f.name);
        // Fresh registrations are zeroed.
        assert_eq!(mr.to_vec(0, 256), vec![0u8; 256], "{}", f.name);
        // The region resolves through the local table under its rkey.
        let rk = mr.remote_key();
        assert!(a.mrs().resolve(rk.addr, rk.rkey, 256, Access::REMOTE_WRITE).is_ok(), "{}", f.name);
        // Deregistration invalidates it.
        a.mrs().deregister(&mr).unwrap();
        assert!(a.mrs().resolve(rk.addr, rk.rkey, 8, Access::REMOTE_WRITE).is_err(), "{}", f.name);
    }
}

#[test]
fn registration_bounds_and_access_classes() {
    for f in backends() {
        let b = f.nics[1].as_ref();
        let mrs = b.mrs();

        let wr_only = b.register(64, Access::LOCAL.union(Access::REMOTE_WRITE)).unwrap();
        let rk = wr_only.remote_key();
        // In-bounds with the granted class: ok.
        assert!(mrs.resolve(rk.addr + 8, rk.rkey, 8, Access::REMOTE_WRITE).is_ok(), "{}", f.name);
        // Out of bounds (tail past the end, head before the base): rejected.
        assert!(mrs.resolve(rk.addr + 60, rk.rkey, 8, Access::REMOTE_WRITE).is_err(), "{}", f.name);
        assert!(mrs.resolve(rk.addr.wrapping_sub(1), rk.rkey, 1, Access::REMOTE_WRITE).is_err());
        // A class the registration never granted: rejected.
        assert!(mrs.resolve(rk.addr, rk.rkey, 8, Access::REMOTE_READ).is_err(), "{}", f.name);
        assert!(mrs.resolve(rk.addr, rk.rkey, 8, Access::REMOTE_ATOMIC).is_err(), "{}", f.name);
        // A bogus rkey never resolves, even at a valid address.
        assert!(mrs.resolve(rk.addr, rk.rkey ^ 0xDEAD, 8, Access::REMOTE_WRITE).is_err());

        // LOCAL-only registrations are invisible to remote classes entirely.
        let private = b.register(64, Access::LOCAL).unwrap();
        let pk = private.remote_key();
        assert!(mrs.resolve(pk.addr, pk.rkey, 8, Access::REMOTE_WRITE).is_err(), "{}", f.name);
        assert!(mrs.resolve(pk.addr, pk.rkey, 8, Access::REMOTE_READ).is_err(), "{}", f.name);
    }
}

#[test]
fn write_roundtrip_and_read() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let src = a.register(64, Access::ALL).unwrap();
        let dst = b.register(64, Access::ALL).unwrap();
        src.write_at(0, b"conformance!");
        let qp = a.create_qp(1).unwrap();

        a.post_send(
            qp,
            SendWr::new(
                11,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 12),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 12),
                    imm: None,
                },
            ),
            VTime(0),
        )
        .unwrap();
        let cq = wait_send_cqes(a, 1);
        assert_eq!(cq[0].wr_id, 11, "{}", f.name);
        assert_eq!(cq[0].kind, CompletionKind::WriteDone, "{}", f.name);
        assert!(cq[0].status.is_ok(), "{}", f.name);
        wait_remote_u64(&dst, 0, u64::from_le_bytes(*b"conforma"));
        assert_eq!(dst.to_vec(0, 12), b"conformance!", "{}", f.name);

        // Read the bytes back into a fresh local region.
        let back = a.register(64, Access::ALL).unwrap();
        a.post_send(
            qp,
            SendWr::new(
                12,
                WrOp::Read {
                    local: MrSlice::new(&back, 0, 12),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 12),
                },
            ),
            VTime(0),
        )
        .unwrap();
        let cq = wait_send_cqes(a, 1);
        assert_eq!((cq[0].wr_id, cq[0].kind.clone()), (12, CompletionKind::ReadDone), "{}", f.name);
        assert!(cq[0].status.is_ok(), "{}", f.name);
        assert_eq!(back.to_vec(0, 12), b"conformance!", "{}", f.name);
    }
}

#[test]
fn write_with_immediate_reaches_target_cq() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let src = a.register(32, Access::ALL).unwrap();
        let dst = b.register(32, Access::ALL).unwrap();
        src.write_at(0, b"imm-data");
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::new(
                21,
                WrOp::Write {
                    local: MrSlice::new(&src, 0, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: Some(0xFACE),
                },
            ),
            VTime(0),
        )
        .unwrap();
        let ev = wait_recv_cqes(b, 1).remove(0);
        match ev.kind {
            CompletionKind::ImmDone { src: s, len, imm } => {
                assert_eq!((s, len, imm), (0, 8, 0xFACE), "{}", f.name);
            }
            other => panic!("{}: expected ImmDone, got {other:?}", f.name),
        }
        assert!(ev.status.is_ok(), "{}", f.name);
        assert_eq!(dst.to_vec(0, 8), b"imm-data", "{}", f.name);
        wait_send_cqes(a, 1);
    }
}

#[test]
fn two_sided_send_consumes_posted_receive() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let src = a.register(32, Access::ALL).unwrap();
        let rcv = b.register(32, Access::ALL).unwrap();
        src.write_at(0, b"hello-two-sided");
        b.post_recv(RecvWr { wr_id: 77, local: MrSlice::new(&rcv, 0, 32) }).unwrap();
        let qp = a.create_qp(1).unwrap();
        a.post_send(
            qp,
            SendWr::new(31, WrOp::Send { local: MrSlice::new(&src, 0, 15), imm: Some(42) }),
            VTime(0),
        )
        .unwrap();
        let ev = wait_recv_cqes(b, 1).remove(0);
        assert_eq!(ev.wr_id, 77, "{}", f.name);
        match ev.kind {
            CompletionKind::RecvDone { src: s, len, imm } => {
                assert_eq!((s, len, imm), (0, 15, Some(42)), "{}", f.name);
            }
            other => panic!("{}: expected RecvDone, got {other:?}", f.name),
        }
        assert_eq!(rcv.to_vec(0, 15), b"hello-two-sided", "{}", f.name);
        let cq = wait_send_cqes(a, 1);
        assert_eq!((cq[0].wr_id, cq[0].kind.clone()), (31, CompletionKind::SendDone), "{}", f.name);
    }
}

/// RC ordering: back-to-back writes to the same remote word apply in
/// posting order (the final value is the last write), their initiator
/// completions retire in posting order, and CQ timestamps never step
/// backwards. Half the run goes through the doorbell-batched entry point.
#[test]
fn qp_ordering_and_monotone_timestamps() {
    const N: u64 = 32;
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let src = a.register(8 * N as usize, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();

        let wr = |i: u64| {
            src.write_u64(8 * i as usize, 0x1000 + i);
            SendWr::new(
                i,
                WrOp::Write {
                    local: MrSlice::new(&src, 8 * i as usize, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: None,
                },
            )
        };
        for i in 0..N / 2 {
            a.post_send(qp, wr(i), VTime(0)).unwrap();
        }
        let batch: Vec<SendWr> = (N / 2..N).map(wr).collect();
        a.post_send_many(qp, &batch, VTime(0)).unwrap();

        let cq = wait_send_cqes(a, N as usize);
        let ids: Vec<u64> = cq.iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, (0..N).collect::<Vec<_>>(), "{}: completions in posting order", f.name);
        for w in cq.windows(2) {
            assert!(w[1].ts >= w[0].ts, "{}: CQ timestamps must be monotone", f.name);
        }
        wait_remote_u64(&dst, 0, 0x1000 + N - 1);
    }
}

/// A read posted ahead of a write on one QP has taken its bytes by the
/// time the write is visible at the target: once B sees the flag word, B
/// may overwrite the region A read, and A still gets the old bytes. A
/// PWC get-with-remote-notify relies on this: its notify follows its read,
/// and the owner may recycle the source as soon as the notify lands.
#[test]
fn read_completes_before_a_later_write_lands() {
    const LEN: usize = 64 * 1024;
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let x = b.register(LEN, Access::ALL).unwrap();
        let y = b.register(8, Access::ALL).unwrap();
        let back = a.register(LEN, Access::ALL).unwrap();
        let flag = a.register(8, Access::ALL).unwrap();
        x.fill(0xA5);
        flag.write_u64(0, 0xF1A6);
        let qp = a.create_qp(1).unwrap();
        let read = WrOp::Read {
            local: MrSlice::new(&back, 0, LEN),
            remote: RemoteSlice::from_key(&x.remote_key(), 0, LEN),
        };
        let write = WrOp::Write {
            local: MrSlice::new(&flag, 0, 8),
            remote: RemoteSlice::from_key(&y.remote_key(), 0, 8),
            imm: None,
        };
        a.post_send(qp, SendWr::new(1, read), VTime(0)).unwrap();
        a.post_send(qp, SendWr::new(2, write), VTime(0)).unwrap();
        wait_remote_u64(&y, 0, 0xF1A6);
        x.fill(0x5A);
        let cq = wait_send_cqes(a, 2);
        assert!(cq.iter().all(|c| c.status.is_ok()), "{}: {cq:?}", f.name);
        assert!(
            back.to_vec(0, LEN).iter().all(|&v| v == 0xA5),
            "{}: read saw the overwrite",
            f.name
        );
    }
}

#[test]
fn atomics_serialize_at_target() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let loc = a.register(8, Access::ALL).unwrap();
        let word = b.register(8, Access::ALL).unwrap();
        word.write_u64(0, 100);
        let qp = a.create_qp(1).unwrap();
        let remote = || RemoteSlice::from_key(&word.remote_key(), 0, 8);

        a.post_send(
            qp,
            SendWr::new(
                41,
                WrOp::FetchAdd { local: MrSlice::new(&loc, 0, 8), remote: remote(), add: 5 },
            ),
            VTime(0),
        )
        .unwrap();
        let ev = wait_send_cqes(a, 1).remove(0);
        assert_eq!(ev.kind, CompletionKind::AtomicDone { old: 100 }, "{}", f.name);
        assert_eq!(loc.read_u64(0), 100, "{}: fetched value lands locally", f.name);
        assert_eq!(word.read_u64(0), 105, "{}", f.name);

        // CAS that matches swaps and reports the old value...
        a.post_send(
            qp,
            SendWr::new(
                42,
                WrOp::CompareSwap {
                    local: MrSlice::new(&loc, 0, 8),
                    remote: remote(),
                    compare: 105,
                    swap: 1000,
                },
            ),
            VTime(0),
        )
        .unwrap();
        let ev = wait_send_cqes(a, 1).remove(0);
        assert_eq!(ev.kind, CompletionKind::AtomicDone { old: 105 }, "{}", f.name);
        assert_eq!(word.read_u64(0), 1000, "{}", f.name);

        // ...and a CAS that misses leaves the word untouched.
        a.post_send(
            qp,
            SendWr::new(
                43,
                WrOp::CompareSwap {
                    local: MrSlice::new(&loc, 0, 8),
                    remote: remote(),
                    compare: 105,
                    swap: 7,
                },
            ),
            VTime(0),
        )
        .unwrap();
        let ev = wait_send_cqes(a, 1).remove(0);
        assert_eq!(ev.kind, CompletionKind::AtomicDone { old: 1000 }, "{}", f.name);
        assert_eq!(word.read_u64(0), 1000, "{}: failed CAS must not store", f.name);
    }
}

/// Exactly-once CQE delivery: every *signaled* work request produces one
/// completion, unsignaled ones produce none, and a drained CQ stays empty.
#[test]
fn cq_delivery_is_exactly_once() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let src = a.register(64, Access::ALL).unwrap();
        let dst = b.register(64, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        let slice = |i: usize| MrSlice::new(&src, 8 * i, 8);
        let rem = |i: usize| RemoteSlice::from_key(&dst.remote_key(), 8 * i, 8);

        // Signaled rids 0,2,4,6; unsignaled in between.
        for i in 0..8usize {
            src.write_u64(8 * i, i as u64 + 1);
            let op = WrOp::Write { local: slice(i), remote: rem(i), imm: None };
            let wr = if i % 2 == 0 { SendWr::new(i as u64, op) } else { SendWr::unsignaled(op) };
            a.post_send(qp, wr, VTime(0)).unwrap();
        }
        let cq = wait_send_cqes(a, 4);
        let ids: Vec<u64> = cq.iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, vec![0, 2, 4, 6], "{}: signaled wrs, once each, in order", f.name);
        // All data landed regardless of signaling.
        wait_remote_u64(&dst, 8 * 7, 8);
        for i in 0..8usize {
            assert_eq!(dst.read_u64(8 * i), i as u64 + 1, "{}", f.name);
        }
        // Nothing further may ever surface for these posts.
        std::thread::sleep(Duration::from_millis(100));
        assert!(a.poll_send_cq().is_none(), "{}: drained CQ must stay empty", f.name);
    }
}

/// A remote protection violation must surface as an *error*, never as
/// silent success: synchronously at post time (the sim validates against
/// the shared MR table) or as an error completion (a wire transport only
/// learns at the target). Both are conformant; losing the op is not.
#[test]
fn remote_violation_surfaces_as_error() {
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let loc = a.register(8, Access::ALL).unwrap();
        let dst = b.register(8, Access::ALL).unwrap();
        let qp = a.create_qp(1).unwrap();
        let mut bad = dst.remote_key();
        bad.rkey ^= 0xBADC0DE;

        let posted = a.post_send(
            qp,
            SendWr::new(
                51,
                WrOp::Read {
                    local: MrSlice::new(&loc, 0, 8),
                    remote: RemoteSlice::from_key(&bad, 0, 8),
                },
            ),
            VTime(0),
        );
        match posted {
            Err(_) => {} // synchronous rejection (sim)
            Ok(()) => {
                let ev = wait_send_cqes(a, 1).remove(0);
                assert_eq!(ev.wr_id, 51, "{}", f.name);
                assert!(
                    !ev.status.is_ok(),
                    "{}: bad-rkey read completed with {:?}",
                    f.name,
                    ev.status
                );
                assert_ne!(ev.status, WcStatus::Success, "{}", f.name);
            }
        }
        // The endpoint must survive the violation: a well-formed op still works.
        a.post_send(
            qp,
            SendWr::new(
                52,
                WrOp::Read {
                    local: MrSlice::new(&loc, 0, 8),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                },
            ),
            VTime(0),
        )
        .unwrap();
        let ev = wait_send_cqes(a, 1).remove(0);
        assert_eq!((ev.wr_id, ev.status), (52, WcStatus::Success), "{}", f.name);
    }
}

/// Post-time validation is the endpoint's, one rule for every backend: a
/// one-sided length mismatch, a 4-byte atomic, a local slice registered on
/// another node and a delivery stamp that runs past the payload are each
/// refused synchronously with the same error, push no completion, and
/// leave the QP usable.
#[test]
fn malformed_work_requests_fail_at_post() {
    let mut refusals = Vec::new();
    for f in backends() {
        let a = f.nics[0].as_ref();
        let b = f.nics[1].as_ref();
        let src = a.register(16, Access::ALL).unwrap();
        let dst = b.register(16, Access::ALL).unwrap();
        let remote = |len| RemoteSlice::from_key(&dst.remote_key(), 0, len);
        let write = |local: MrSlice, len| WrOp::Write { local, remote: remote(len), imm: None };
        let qp = a.create_qp(1).unwrap();
        let bad = [
            SendWr::new(1, write(MrSlice::new(&src, 0, 8), 16)),
            SendWr::new(
                2,
                WrOp::FetchAdd { local: MrSlice::new(&src, 0, 4), remote: remote(4), add: 1 },
            ),
            SendWr::new(3, write(MrSlice::new(&dst, 0, 8), 8)),
            SendWr::new(4, write(MrSlice::new(&src, 0, 8), 8)).with_stamp(4),
        ];
        let errs: Vec<FabricError> =
            bad.into_iter().map(|wr| a.post_send(qp, wr, VTime(0)).expect_err(f.name)).collect();
        assert!(
            matches!(errs[0], FabricError::LengthMismatch { local: 8, remote: 16 }),
            "{}",
            f.name
        );
        assert!(matches!(errs[1], FabricError::BadAtomicTarget { len: 4, .. }), "{}", f.name);
        assert!(matches!(errs[2], FabricError::InvalidLkey { .. }), "{}", f.name);
        assert!(matches!(errs[3], FabricError::OutOfBounds { addr: 4, len: 8, .. }), "{}", f.name);
        assert!(!a.qp_errored(qp), "{}", f.name);

        // A well-formed write on the same QP still works, and its CQE is
        // the only one: the refused posts left nothing behind.
        src.write_u64(0, 0x600d);
        a.post_send(qp, SendWr::new(5, write(MrSlice::new(&src, 0, 8), 8)), VTime(0)).unwrap();
        let cq = wait_send_cqes(a, 1);
        assert_eq!((cq[0].wr_id, cq[0].status), (5, WcStatus::Success), "{}", f.name);
        wait_remote_u64(&dst, 0, 0x600d);
        assert!(a.poll_send_cq().is_none(), "{}", f.name);
        refusals.push(errs);
    }
    assert_eq!(refusals[0], refusals[1], "both backends refuse with identical errors");
}

/// A QP to the node itself: send/recv, write-with-immediate carrying a
/// delivery stamp, read, fetch-add and compare-swap, all executed by the
/// endpoint's target-side code inside the post. Both backends must leave
/// the same bytes (stamp aside: its value is each backend's clock) and
/// report the same completion kinds and statuses.
#[test]
fn loopback_qp_round_trips() {
    let mut seen = Vec::new();
    for f in backends() {
        let a = f.nics[0].as_ref();
        let src = a.register(64, Access::ALL).unwrap();
        let dst = a.register(64, Access::ALL).unwrap();
        let rcv = a.register(64, Access::ALL).unwrap();
        let key = dst.remote_key();
        let qp = a.create_qp(0).unwrap();
        src.write_at(0, b"loopback send!..write-payload...");
        dst.write_u64(48, 40);

        a.post_recv(RecvWr { wr_id: 100, local: MrSlice::new(&rcv, 0, 64) }).unwrap();
        let wrs = [
            SendWr::new(1, WrOp::Send { local: MrSlice::new(&src, 0, 16), imm: Some(7) }),
            SendWr::new(
                2,
                WrOp::Write {
                    local: MrSlice::new(&src, 16, 16),
                    remote: RemoteSlice::from_key(&key, 0, 16),
                    imm: Some(8),
                },
            )
            .with_stamp(8),
            SendWr::new(
                3,
                WrOp::Read {
                    local: MrSlice::new(&src, 32, 8),
                    remote: RemoteSlice::from_key(&key, 0, 8),
                },
            ),
            SendWr::new(
                4,
                WrOp::FetchAdd {
                    local: MrSlice::new(&src, 40, 8),
                    remote: RemoteSlice::from_key(&key, 48, 8),
                    add: 2,
                },
            ),
            SendWr::new(
                5,
                WrOp::CompareSwap {
                    local: MrSlice::new(&src, 48, 8),
                    remote: RemoteSlice::from_key(&key, 48, 8),
                    compare: 42,
                    swap: 99,
                },
            ),
        ];
        for wr in wrs {
            a.post_send(qp, wr, VTime(0)).unwrap();
        }
        let outcome = |c: &Completion| (c.wr_id, c.kind.clone(), c.status);
        let sent: Vec<_> = wait_send_cqes(a, 5).iter().map(outcome).collect();
        let landed: Vec<_> = wait_recv_cqes(a, 2).iter().map(outcome).collect();
        assert_ne!(dst.read_u64(8), 0, "{}: the write carried a delivery stamp", f.name);
        dst.write_u64(8, 0);
        seen.push((sent, landed, rcv.to_vec(0, 64), dst.to_vec(0, 64), src.to_vec(0, 64)));
    }
    let (sent, landed, rcv, dst, src) = &seen[0];
    assert_eq!(
        sent.iter().map(|(id, kind, _)| (*id, kind.clone())).collect::<Vec<_>>(),
        vec![
            (1, CompletionKind::SendDone),
            (2, CompletionKind::WriteDone),
            (3, CompletionKind::ReadDone),
            (4, CompletionKind::AtomicDone { old: 40 }),
            (5, CompletionKind::AtomicDone { old: 42 }),
        ]
    );
    assert_eq!(
        landed.iter().map(|(id, kind, _)| (*id, kind.clone())).collect::<Vec<_>>(),
        vec![
            (100, CompletionKind::RecvDone { src: 0, len: 16, imm: Some(7) }),
            (0, CompletionKind::ImmDone { src: 0, len: 16, imm: 8 }),
        ]
    );
    assert!(sent.iter().chain(landed).all(|(_, _, status)| status.is_ok()));
    assert_eq!(&rcv[..16], b"loopback send!..");
    assert_eq!(&dst[..8], b"write-pa");
    assert_eq!(u64::from_le_bytes(dst[48..56].try_into().unwrap()), 99);
    assert_eq!(&src[32..40], b"write-pa", "read back the landed write");
    assert_eq!(seen[0], seen[1], "both backends agree");
}

/// A post holds its QP and its target region only for as long as it runs,
/// and never waits on set-up or tear-down elsewhere: one thread streams
/// 8-byte writes on a QP while a second creates and destroys QPs on the
/// same endpoint (each destroyed one refusing a post with `NoSuchQp`) and
/// a third registers and deregisters regions on the target. Every post
/// resolves with its completion, and all three threads finish before a
/// wall-clock deadline: a lock-order inversion hangs them instead.
#[test]
fn posts_survive_qp_and_mr_churn() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier};
    const POSTS: u64 = 2_000;
    const CHURNS: u64 = 100;
    for f in backends() {
        let (a, b, name) = (Arc::clone(&f.nics[0]), Arc::clone(&f.nics[1]), f.name);
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let (a, b) = (a.as_ref(), b.as_ref());
            let src = a.register(8, Access::ALL).unwrap();
            let dst = b.register(8, Access::ALL).unwrap();
            let qp = a.create_qp(1).unwrap();
            let write = |id| {
                let (local, remote) = (MrSlice::new(&src, 0, 8), dst.remote_key());
                let remote = RemoteSlice::from_key(&remote, 0, 8);
                SendWr::new(id, WrOp::Write { local, remote, imm: None })
            };
            let (start, stop) = (Barrier::new(3), AtomicBool::new(false));
            let (qp_churns, mr_churns) = (AtomicU64::new(0), AtomicU64::new(0));
            std::thread::scope(|s| {
                s.spawn(|| {
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        let gone = a.create_qp(1).unwrap();
                        a.destroy_qp(gone).unwrap();
                        let refused = a.post_send(gone, write(0), VTime(0));
                        assert!(matches!(refused, Err(FabricError::NoSuchQp { .. })), "{name}");
                        qp_churns.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                });
                s.spawn(|| {
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        let mr = b.register(64, Access::ALL).unwrap();
                        b.mrs().deregister(&mr).unwrap();
                        mr_churns.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                });
                start.wait();
                let churned =
                    || qp_churns.load(Ordering::Relaxed).min(mr_churns.load(Ordering::Relaxed));
                let mut id = 0;
                while id < POSTS || churned() < CHURNS {
                    src.write_u64(0, id);
                    a.post_send(qp, write(id), VTime(0)).unwrap_or_else(|e| panic!("{name}: {e}"));
                    let c = wait_send_cqes(a, 1).remove(0);
                    assert_eq!((c.wr_id, c.status), (id, WcStatus::Success), "{name}");
                    id += 1;
                }
                wait_remote_u64(&dst, 0, id - 1);
                stop.store(true, Ordering::Release);
            });
            let _ = done.send(());
        });
        // A panic in the scenario drops `done` at once; a hang times out.
        let outcome = finished.recv_timeout(3 * DEADLINE);
        assert!(outcome.is_ok(), "{name}: a churn thread panicked or hung ({outcome:?})");
    }
}
