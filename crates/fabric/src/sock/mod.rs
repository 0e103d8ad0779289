//! The sockets fabric backend: real OS transport behind the
//! [`crate::FabricBackend`] seam.
//!
//! Where the simulated NIC models an RDMA fabric in virtual time, this
//! backend moves bytes over UDP datagrams on a real network path (loopback
//! today; any routable address in principle):
//!
//! * **Framing** — self-delimiting frames ([`wire`]), one per fragment,
//!   fragments capped at [`wire::MAX_FRAG`] bytes. A datagram carries a
//!   *train* of them: every frame posted between two doorbells toward one
//!   peer leaves in one `sendto`.
//! * **Reliability** — per-`(src, dst)` cumulative sequence/ack channels
//!   with go-back-N retransmission and a bounded retry budget (`chan`);
//!   exhausting it fails the channel and resolves pending work as
//!   `RetryExceeded`, the verbs `IBV_WC_RETRY_EXC_ERR` analogue. Acks are
//!   cumulative and sent once per receive pass, riding an outgoing train
//!   when there is one.
//! * **Emulated one-sided ops** — write/read/atomic requests are executed
//!   against locally registered memory, as Photon's original sockets
//!   backend did — by the *caller* when it polls a completion queue, and
//!   by a per-endpoint reactor thread when nobody polls (`reactor` has the
//!   progress model).
//! * **Bootstrap** — a TCP rendezvous (`bootstrap`) distributes the job
//!   size, a shared wall-clock epoch, and per-rank metadata (datagram
//!   addresses, service-block keys) for multi-process jobs.
//! * **Counters** — [`SockStats`]: datagrams, frames, trains, acks,
//!   retransmissions, and who took each drain turn.
//!
//! Two deployment shapes share all of the above:
//! [`SockCluster`] wires `n` endpoints *in one process* (tests, benches —
//! the data path still crosses real sockets), while [`join_job`] builds
//! this process's single endpoint of a *multi-process* job launched by
//! `photon-launch`.

mod bootstrap;
mod chan;
mod nic;
mod reactor;
mod stats;
mod sys;
pub mod wire;

pub use bootstrap::{Bootstrap, BootstrapServer};
pub use nic::SockNic;
pub use stats::{SockStats, SockStatsSnapshot, SOCK_COUNTERS};

use crate::error::{FabricError, Result};
use crate::NodeId;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// An `n`-endpoint sockets cluster in one process: every rank gets its own
/// UDP socket and reactor thread, and the data path crosses the loopback
/// interface for real. The in-process twin of a `photon-launch` job, used
/// by tests and single-process benches.
#[derive(Debug)]
pub struct SockCluster {
    nics: Vec<Arc<SockNic>>,
}

impl SockCluster {
    /// Bind and start `n` endpoints wired to each other over loopback.
    pub fn new(n: usize) -> Result<SockCluster> {
        SockCluster::start_all((0..n).map(|i| SockNic::bind(i, n)).collect::<Result<_>>()?)
    }

    /// Exchange the addresses of bound endpoints and start them.
    fn start_all(nics: Vec<Arc<SockNic>>) -> Result<SockCluster> {
        let peers: Vec<_> = nics.iter().map(|nic| nic.local_addr()).collect::<Result<_>>()?;
        let epoch =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        for nic in &nics {
            nic.start(peers.clone(), epoch)?;
        }
        Ok(SockCluster { nics })
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.nics.len()
    }

    /// True for a zero-endpoint cluster.
    pub fn is_empty(&self) -> bool {
        self.nics.is_empty()
    }

    /// Endpoint of node `i`.
    pub fn nic(&self, i: NodeId) -> &Arc<SockNic> {
        &self.nics[i]
    }
}

impl Drop for SockCluster {
    fn drop(&mut self) {
        for nic in &self.nics {
            nic.shutdown();
        }
    }
}

/// Join a multi-process job as one rank: rendezvous at `bootstrap_addr`
/// (the `PHOTON_BOOTSTRAP` address a `photon-launch` parent exported),
/// exchange datagram addresses, and start this process's endpoint.
///
/// Returns the live endpoint plus the still-open [`Bootstrap`] connection
/// so higher layers can run further allgather rounds (connection key
/// exchange) before releasing it.
pub fn join_job(bootstrap_addr: &str, rank: NodeId) -> Result<(Arc<SockNic>, Bootstrap)> {
    let mut bs = Bootstrap::connect(bootstrap_addr, rank)?;
    let nic = SockNic::bind(rank, bs.n)?;
    let my_addr = nic.local_addr()?.to_string();
    let addrs = bs.allgather(my_addr.as_bytes())?;
    let peers: Vec<_> = addrs
        .iter()
        .map(|b| {
            std::str::from_utf8(b)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| FabricError::Io { what: "bad peer address in bootstrap".into() })
        })
        .collect::<Result<_>>()?;
    nic.start(peers, bs.epoch_ns)?;
    Ok((nic, bs))
}

#[cfg(test)]
mod tests {
    use super::chan::Datagram;
    use super::*;
    use crate::backend::FabricBackend;
    use crate::clock::VTime;
    use crate::mr::{Access, MemoryRegion};
    use crate::verbs::{
        Completion, CompletionKind, MrSlice, RecvWr, RemoteSlice, SendWr, WcStatus, WrOp,
    };
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::net::{SocketAddr, UdpSocket};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    const PATIENCE: Duration = Duration::from_secs(10);

    /// Spin (yielding) until `ready` yields a value.
    fn wait_for<T>(what: &str, mut ready: impl FnMut() -> Option<T>) -> T {
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(v) = ready() {
                return v;
            }
            assert!(Instant::now() < deadline, "no {what} within {PATIENCE:?}");
            std::thread::yield_now();
        }
    }

    fn wait_send_cqe(nic: &SockNic) -> Completion {
        wait_for("send completion", || nic.poll_send_cq())
    }

    fn wait_recv_cqe(nic: &SockNic) -> Completion {
        wait_for("recv completion", || nic.poll_recv_cq())
    }

    fn write8(wr_id: u64, src: &MemoryRegion, dst: &MemoryRegion, off: usize) -> SendWr {
        SendWr::new(
            wr_id,
            WrOp::Write {
                local: MrSlice::new(src, off, 8),
                remote: RemoteSlice::from_key(&dst.remote_key(), off, 8),
                imm: None,
            },
        )
    }

    #[test]
    fn write_with_imm_crosses_sockets() {
        let c = SockCluster::new(2).unwrap();
        let src = c.nic(0).register(64, Access::ALL).unwrap();
        let dst = c.nic(1).register(64, Access::ALL).unwrap();
        src.write_u64(0, 0xabcd);
        let qp = c.nic(0).create_qp(1).unwrap();
        c.nic(0)
            .post_send(
                qp,
                SendWr::new(
                    5,
                    WrOp::Write {
                        local: MrSlice::new(&src, 0, 8),
                        remote: RemoteSlice::from_key(&dst.remote_key(), 8, 8),
                        imm: Some(42),
                    },
                ),
                VTime(0),
            )
            .unwrap();
        let cqe = wait_send_cqe(c.nic(0));
        assert_eq!(cqe.wr_id, 5);
        assert_eq!(cqe.status, WcStatus::Success);
        assert_eq!(cqe.kind, CompletionKind::WriteDone);
        let ev = wait_recv_cqe(c.nic(1));
        assert!(matches!(ev.kind, CompletionKind::ImmDone { src: 0, len: 8, imm: 42 }));
        assert_eq!(dst.read_u64(8), 0xabcd);
    }

    #[test]
    fn read_and_atomics_round_trip() {
        let c = SockCluster::new(2).unwrap();
        let local = c.nic(0).register(64, Access::ALL).unwrap();
        let remote = c.nic(1).register(64, Access::ALL).unwrap();
        remote.write_u64(0, 999);
        let qp = c.nic(0).create_qp(1).unwrap();
        c.nic(0)
            .post_send(
                qp,
                SendWr::new(
                    1,
                    WrOp::Read {
                        local: MrSlice::new(&local, 0, 8),
                        remote: RemoteSlice::from_key(&remote.remote_key(), 0, 8),
                    },
                ),
                VTime(0),
            )
            .unwrap();
        assert_eq!(wait_send_cqe(c.nic(0)).kind, CompletionKind::ReadDone);
        assert_eq!(local.read_u64(0), 999);

        c.nic(0)
            .post_send(
                qp,
                SendWr::new(
                    2,
                    WrOp::FetchAdd {
                        local: MrSlice::new(&local, 8, 8),
                        remote: RemoteSlice::from_key(&remote.remote_key(), 0, 8),
                        add: 11,
                    },
                ),
                VTime(0),
            )
            .unwrap();
        let cqe = wait_send_cqe(c.nic(0));
        assert!(matches!(cqe.kind, CompletionKind::AtomicDone { old: 999 }));
        assert_eq!(remote.read_u64(0), 1010);

        c.nic(0)
            .post_send(
                qp,
                SendWr::new(
                    3,
                    WrOp::CompareSwap {
                        local: MrSlice::new(&local, 16, 8),
                        remote: RemoteSlice::from_key(&remote.remote_key(), 0, 8),
                        compare: 1010,
                        swap: 7,
                    },
                ),
                VTime(0),
            )
            .unwrap();
        assert!(matches!(wait_send_cqe(c.nic(0)).kind, CompletionKind::AtomicDone { old: 1010 }));
        assert_eq!(remote.read_u64(0), 7);
    }

    #[test]
    fn two_sided_send_and_large_fragmented_write() {
        let c = SockCluster::new(2).unwrap();
        let src = c.nic(0).register(200_000, Access::ALL).unwrap();
        let dst = c.nic(1).register(200_000, Access::ALL).unwrap();
        // Two-sided with a posted receive.
        let rbuf = c.nic(1).register(64, Access::ALL).unwrap();
        c.nic(1).post_recv(RecvWr { wr_id: 77, local: MrSlice::new(&rbuf, 0, 64) }).unwrap();
        let qp = c.nic(0).create_qp(1).unwrap();
        src.write_at(0, b"parcel");
        c.nic(0)
            .post_send(
                qp,
                SendWr::new(1, WrOp::Send { local: MrSlice::new(&src, 0, 6), imm: Some(9) }),
                VTime(0),
            )
            .unwrap();
        let ev = wait_recv_cqe(c.nic(1));
        assert_eq!(ev.wr_id, 77);
        assert!(matches!(ev.kind, CompletionKind::RecvDone { src: 0, len: 6, imm: Some(9) }));
        assert_eq!(rbuf.to_vec(0, 6), b"parcel");
        assert_eq!(wait_send_cqe(c.nic(0)).kind, CompletionKind::SendDone);

        // A write spanning many fragments lands byte-exact.
        let pattern: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        src.write_at(0, &pattern);
        c.nic(0)
            .post_send(
                qp,
                SendWr::new(
                    2,
                    WrOp::Write {
                        local: MrSlice::new(&src, 0, 200_000),
                        remote: RemoteSlice::from_key(&dst.remote_key(), 0, 200_000),
                        imm: None,
                    },
                ),
                VTime(0),
            )
            .unwrap();
        let cqe = wait_send_cqe(c.nic(0));
        assert_eq!(cqe.status, WcStatus::Success);
        assert_eq!(dst.to_vec(0, 200_000), pattern);
    }

    #[test]
    fn loopback_is_synchronous() {
        let c = SockCluster::new(1).unwrap();
        let a = c.nic(0).register(32, Access::ALL).unwrap();
        let b = c.nic(0).register(32, Access::ALL).unwrap();
        a.write_u64(0, 31337);
        let qp = c.nic(0).create_qp(0).unwrap();
        c.nic(0)
            .post_send(
                qp,
                SendWr::new(
                    1,
                    WrOp::Write {
                        local: MrSlice::new(&a, 0, 8),
                        remote: RemoteSlice::from_key(&b.remote_key(), 0, 8),
                        imm: None,
                    },
                ),
                VTime(0),
            )
            .unwrap();
        assert_eq!(b.read_u64(0), 31337);
        assert_eq!(c.nic(0).poll_send_cq().unwrap().wr_id, 1);
    }

    #[test]
    fn timestamps_are_monotone() {
        let c = SockCluster::new(1).unwrap();
        let mut last = VTime(0);
        for _ in 0..100 {
            let t = c.nic(0).now_v();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn multi_process_style_bootstrap_over_threads() {
        let server = BootstrapServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let srv = std::thread::spawn(move || server.run(2));
        let mk = |rank: NodeId, addr: String| {
            std::thread::spawn(move || {
                let (nic, _bs) = join_job(&addr, rank).unwrap();
                nic
            })
        };
        let h0 = mk(0, addr.clone());
        let h1 = mk(1, addr);
        let n0 = h0.join().unwrap();
        let n1 = h1.join().unwrap();
        srv.join().unwrap().unwrap();
        // Post a real write across the two endpoints.
        let src = n0.register(8, Access::ALL).unwrap();
        let dst = n1.register(8, Access::ALL).unwrap();
        src.write_u64(0, 4242);
        let qp = n0.create_qp(1).unwrap();
        n0.post_send(
            qp,
            SendWr::new(
                1,
                WrOp::Write {
                    local: MrSlice::whole(&src),
                    remote: RemoteSlice::from_key(&dst.remote_key(), 0, 8),
                    imm: None,
                },
            ),
            VTime(0),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while dst.read_u64(0) != 4242 {
            assert!(Instant::now() < deadline);
            std::thread::yield_now();
        }
        n0.shutdown();
        n1.shutdown();
    }

    // ------------------------------------------------- progress hand-off

    /// Hot -> cold: an endpoint that was being polled and then is not must
    /// still be served — right after the polling stops (the reactor is
    /// parked until the owner's window lapses, then arms) and once it has
    /// long been armed.
    #[test]
    fn a_target_that_stops_polling_is_still_served() {
        let c = SockCluster::new(2).unwrap();
        let local = c.nic(0).register(64, Access::ALL).unwrap();
        let remote = c.nic(1).register(64, Access::ALL).unwrap();
        let qp = c.nic(0).create_qp(1).unwrap();
        for (round, settle) in [Duration::ZERO, 20 * reactor::HOT_WINDOW].into_iter().enumerate() {
            let until = Instant::now() + 3 * reactor::HOT_WINDOW;
            while Instant::now() < until {
                assert!(c.nic(1).poll_send_cq().is_none());
            }
            std::thread::sleep(settle);
            // From here on nobody polls node 1.
            let word = 0xc01d_0000 + round as u64;
            local.write_u64(0, word);
            c.nic(0).post_send(qp, write8(1, &local, &remote, 0), VTime(0)).unwrap();
            assert_eq!(wait_send_cqe(c.nic(0)).status, WcStatus::Success);
            assert_eq!(remote.read_u64(0), word);
            remote.write_u64(8, !word);
            let read = WrOp::Read {
                local: MrSlice::new(&local, 8, 8),
                remote: RemoteSlice::from_key(&remote.remote_key(), 8, 8),
            };
            c.nic(0).post_send(qp, SendWr::new(2, read), VTime(0)).unwrap();
            assert_eq!(wait_send_cqe(c.nic(0)).kind, CompletionKind::ReadDone);
            assert_eq!(local.read_u64(8), !word);
        }
        assert!(c.nic(1).stats().reactor_drain_passes > 0);
    }

    /// Post-and-forget: a node that posts and never polls again still
    /// delivers — whether it never polled at all (reactor armed: the post
    /// sends at once) or polled a moment ago (the frame joins a train that
    /// leaves when the parked reactor arms, at most `HOT_WINDOW` later).
    #[test]
    fn a_post_that_is_never_followed_by_a_poll_still_delivers() {
        let c = SockCluster::new(2).unwrap();
        let src = c.nic(0).register(64, Access::ALL).unwrap();
        let dst = c.nic(1).register(64, Access::ALL).unwrap();
        let qp = c.nic(0).create_qp(1).unwrap();

        src.write_u64(0, 0xf1f0);
        c.nic(0).post_send(qp, write8(1, &src, &dst, 0), VTime(0)).unwrap();
        wait_for("first write to land", || (dst.read_u64(0) == 0xf1f0).then_some(()));
        assert_eq!(c.nic(0).stats().immediate_sends, 1);

        // The write above is acked, so this poll finds its completion and
        // leaves the owner marked as polling.
        assert_eq!(wait_send_cqe(c.nic(0)).wr_id, 1);
        src.write_u64(8, 0xf1f1);
        c.nic(0).post_send(qp, write8(2, &src, &dst, 8), VTime(0)).unwrap();
        wait_for("second write to land", || (dst.read_u64(8) == 0xf1f1).then_some(()));
    }

    /// Two threads polling one endpoint's send CQ as fast as they can, its
    /// reactor running, the peer streaming writes at it: the drain turn is
    /// single-flight and every completion surfaces exactly once.
    #[test]
    fn concurrent_pollers_see_every_completion_exactly_once() {
        const OPS: u64 = 20_000;
        const WINDOW: u64 = 64;
        let c = SockCluster::new(2).unwrap();
        let bufs: Vec<_> = (0..2).map(|i| c.nic(i).register(64, Access::ALL).unwrap()).collect();
        let qps = [c.nic(0).create_qp(1).unwrap(), c.nic(1).create_qp(0).unwrap()];
        // (count, xor, sum) of the wr_ids each side has seen complete.
        let seen = [Mutex::new((0u64, 0u64, 0u64)), Mutex::new((0u64, 0u64, 0u64))];
        let start = Barrier::new(4);
        let stop = AtomicBool::new(false);
        let reap = |node: usize| {
            let mut out = Vec::with_capacity(64);
            c.nic(node).poll_send_cq_into(64, &mut out);
            let mut s = seen[node].lock();
            for cqe in out {
                assert_eq!(cqe.status, WcStatus::Success);
                *s = (s.0 + 1, s.1 ^ cqe.wr_id, s.2 + cqe.wr_id);
            }
            s.0
        };
        let stream = |node: usize, reap_own: bool| {
            start.wait();
            for id in 0..OPS {
                let deadline = Instant::now() + PATIENCE;
                while id >= WINDOW + if reap_own { reap(node) } else { seen[node].lock().0 } {
                    assert!(Instant::now() < deadline, "node {node} stuck at wr {id}");
                    std::thread::yield_now();
                }
                let wr = write8(id, &bufs[node], &bufs[1 - node], 0);
                c.nic(node).post_send(qps[node], wr, VTime(0)).unwrap();
            }
            wait_for("every completion", || (reap(node) == OPS).then_some(()));
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    while !stop.load(Ordering::Acquire) {
                        reap(0);
                    }
                });
            }
            s.spawn(|| stream(1, true));
            stream(0, false);
            stop.store(true, Ordering::Release);
        });
        let want = (OPS, (0..OPS).fold(0, |x, id| x ^ id), (0..OPS).sum::<u64>());
        assert_eq!(*seen[0].lock(), want);
        assert_eq!(*seen[1].lock(), want);
        assert!(c.nic(0).poll_send_cq().is_none());
    }

    /// Sixteen posts between two progress calls are one train, answered by
    /// one ack: the counters say so exactly. The test holds node 0's drain
    /// turn while it posts, so its reactor cannot arm and flush the train
    /// early; node 1 is never polled, so its armed reactor takes the train
    /// in one wake-up.
    #[test]
    fn sixteen_posts_between_polls_are_one_train_and_one_ack() {
        let c = SockCluster::new(2).unwrap();
        let src = c.nic(0).register(128, Access::ALL).unwrap();
        let dst = c.nic(1).register(128, Access::ALL).unwrap();
        let qp = c.nic(0).create_qp(1).unwrap();
        // Poll until the reactor has seen the owner polling, left its armed
        // state and parked; with the turn in hand it cannot arm again. Then
        // stop the owner's clock, so that however long this thread is kept
        // off the CPU the posts below are made by a polling owner.
        let turn = wait_for("a parked reactor", || {
            assert!(c.nic(0).poll_send_cq().is_none());
            let turn = c.nic(0).turn.lock();
            (!c.nic(0).armed.load(Ordering::SeqCst)).then_some(turn)
        });
        c.nic(0).last_progress_ns.store(u64::MAX, Ordering::Relaxed);
        for id in 0..16 {
            c.nic(0).post_send(qp, write8(id, &src, &dst, 8 * id as usize), VTime(0)).unwrap();
        }
        let queued = c.nic(0).stats();
        assert_eq!((queued.datagrams_tx, queued.immediate_sends), (0, 0), "{queued:?}");
        drop(turn);
        let mut done = Vec::new();
        wait_for("16 completions", || {
            c.nic(0).poll_send_cq_into(16, &mut done);
            (done.len() == 16).then_some(())
        });
        assert!(done.iter().map(|cqe| cqe.wr_id).eq(0..16), "RC order");
        let (tx, rx) = (c.nic(0).stats(), c.nic(1).stats());
        assert_eq!(
            (tx.trains_tx, tx.frames_tx, tx.acks_tx, tx.datagrams_tx),
            (1, 16, 0, 1),
            "{tx:?}"
        );
        assert_eq!((tx.datagrams_rx, tx.frames_rx), (1, 1), "one ack came back: {tx:?}");
        assert_eq!((rx.datagrams_rx, rx.frames_rx, rx.reactor_wakeups), (1, 16, 1), "{rx:?}");
        assert_eq!((rx.acks_tx, rx.datagrams_tx, rx.caller_drain_passes), (1, 1, 0), "{rx:?}");
        assert!(tx.caller_drain_passes > 0 && tx.retransmits == 0);
        // The same numbers by name, the way a bench or a dump reads them.
        assert_eq!(SOCK_COUNTERS.len(), tx.iter().count());
        assert_eq!(tx.get("trains_tx"), Some(1));
        assert!(tx.export_json().contains("\"frames_tx\":16"));
    }

    // ------------------------------------------------------------- loss

    /// A transport that loses and duplicates datagrams on their way out,
    /// reproducibly.
    #[derive(Debug)]
    struct Lossy {
        inner: Arc<UdpSocket>,
        rng: Mutex<StdRng>,
        drop_pct: u32,
        dup_pct: u32,
    }

    impl Datagram for Lossy {
        fn send_to(&self, buf: &[u8], to: SocketAddr) -> std::io::Result<usize> {
            let roll = self.rng.lock().gen_range(0u32..100);
            if roll < self.drop_pct {
                return Ok(buf.len());
            }
            if roll < self.drop_pct + self.dup_pct {
                self.inner.send_to(buf, to)?;
            }
            self.inner.send_to(buf, to)
        }
    }

    /// Drops the first transmission of the second datagram that carries a
    /// full fragment, and passes everything else.
    #[derive(Debug)]
    struct DropSecondFragment {
        inner: Arc<UdpSocket>,
        full: AtomicU32,
    }

    impl Datagram for DropSecondFragment {
        fn send_to(&self, buf: &[u8], to: SocketAddr) -> std::io::Result<usize> {
            if buf.len() > wire::MAX_FRAG && self.full.fetch_add(1, Ordering::Relaxed) == 1 {
                return Ok(buf.len());
            }
            self.inner.send_to(buf, to)
        }
    }

    /// A write longer than one fragment lands whole or not at all. With its
    /// second fragment lost, the target shows none of it while the first
    /// sits received, until the retransmission completes it: a target that
    /// polls a region for a frame header (an eager ring) must never find a
    /// frame whose tail is still on the wire.
    #[test]
    fn a_fragmented_write_lands_only_when_whole() {
        const LEN: usize = 64 * 1024;
        let lossy = SockNic::bind_with(0, 2, |inner| {
            Arc::new(DropSecondFragment { inner, full: AtomicU32::new(0) })
        });
        let c = SockCluster::start_all(vec![lossy.unwrap(), SockNic::bind(1, 2).unwrap()]).unwrap();
        let src = c.nic(0).register(LEN, Access::ALL).unwrap();
        let dst = c.nic(1).register(LEN, Access::ALL).unwrap();
        // No zero byte: an all-zero target holds none of the write.
        let pattern: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8 | 1).collect();
        src.write_at(0, &pattern);
        let qp = c.nic(0).create_qp(1).unwrap();
        let write = WrOp::Write {
            local: MrSlice::new(&src, 0, LEN),
            remote: RemoteSlice::from_key(&dst.remote_key(), 0, LEN),
            imm: None,
        };
        c.nic(0).post_send(qp, SendWr::new(1, write), VTime(0)).unwrap();
        wait_for("the first fragment", || (c.nic(1).stats().frames_rx > 0).then_some(()));
        let early = dst.to_vec(0, LEN);
        assert_eq!(c.nic(0).stats().retransmits, 0, "looked after the retransmission");
        assert!(early.iter().all(|&b| b == 0), "a prefix of the write landed alone");
        assert_eq!(wait_send_cqe(c.nic(0)).status, WcStatus::Success);
        assert_eq!(dst.to_vec(0, LEN), pattern);
        assert!(c.nic(0).stats().retransmits > 0);
    }

    /// What coalescing changed about loss: a lost datagram is now a lost
    /// train, and a lost ack covered a whole pass. Every kind of operation,
    /// windowed, over ~5 % loss and ~5 % duplication in both directions:
    /// each completes exactly once, successfully, with the right bytes.
    #[test]
    fn every_op_completes_exactly_once_over_a_lossy_duplicating_path() {
        let nics = (0..2)
            .map(|i| {
                SockNic::bind_with(i, 2, |inner| {
                    let rng = Mutex::new(StdRng::seed_from_u64(0x1055 + i as u64));
                    Arc::new(Lossy { inner, rng, drop_pct: 5, dup_pct: 5 })
                })
            })
            .collect::<Result<_>>()
            .unwrap();
        let c = SockCluster::start_all(nics).unwrap();
        const BIG: usize = 200_000;
        const ROUNDS: u64 = 40;
        const WINDOW: u64 = 8;
        let local = c.nic(0).register(BIG + 4096, Access::ALL).unwrap();
        let remote = c.nic(1).register(BIG + 4096, Access::ALL).unwrap();
        let qp = c.nic(0).create_qp(1).unwrap();
        let key = remote.remote_key();
        let pattern: Vec<u8> = (0..BIG).map(|i| (i % 251) as u8).collect();
        local.write_at(4096, &pattern);
        remote.write_u64(2048, 0xfeed_f00d);

        // wr_id = round * 4 + kind; a round is write-with-imm, read,
        // fetch-add, and (every tenth) the 200 KB write.
        let (mut posted, mut done) = (Vec::new(), Vec::new());
        let (mut imms, mut olds) = (Vec::new(), Vec::new());
        let mut reap = |posted: &Vec<u64>| {
            while let Some(cqe) = c.nic(0).poll_send_cq() {
                assert_eq!(cqe.status, WcStatus::Success, "wr {}", cqe.wr_id);
                if let CompletionKind::AtomicDone { old } = cqe.kind {
                    olds.push(old);
                }
                done.push(cqe.wr_id);
            }
            while let Some(ev) = c.nic(1).poll_recv_cq() {
                match ev.kind {
                    CompletionKind::ImmDone { src: 0, len: 8, imm } => imms.push(imm),
                    other => panic!("unexpected target event {other:?}"),
                }
            }
            // (ops outstanding, immediates seen)
            ((posted.len() - done.len()) as u64, imms.len() as u64)
        };
        for round in 0..ROUNDS {
            let slot = (round % 64) as usize * 8;
            local.write_u64(slot, round);
            let write = WrOp::Write {
                local: MrSlice::new(&local, slot, 8),
                remote: RemoteSlice::from_key(&key, slot, 8),
                imm: Some(round),
            };
            let read = WrOp::Read {
                local: MrSlice::new(&local, 1024, 8),
                remote: RemoteSlice::from_key(&key, 2048, 8),
            };
            let fetch_add = WrOp::FetchAdd {
                local: MrSlice::new(&local, 1032, 8),
                remote: RemoteSlice::from_key(&key, 2056, 8),
                add: 1,
            };
            let big = WrOp::Write {
                local: MrSlice::new(&local, 4096, BIG),
                remote: RemoteSlice::from_key(&key, 4096, BIG),
                imm: None,
            };
            let ops = [Some(write), Some(read), Some(fetch_add), (round % 10 == 0).then_some(big)];
            for (kind, op) in ops.into_iter().enumerate() {
                let Some(op) = op else { continue };
                wait_for("window room", || (reap(&posted).0 < WINDOW).then_some(()));
                let wr_id = round * 4 + kind as u64;
                c.nic(0).post_send(qp, SendWr::new(wr_id, op), VTime(0)).unwrap();
                posted.push(wr_id);
            }
        }
        wait_for("every op and immediate", || (reap(&posted) == (0, ROUNDS)).then_some(()));

        // Exactly once: a lost or doubled completion breaks the equality.
        done.sort_unstable();
        assert_eq!(done, posted, "each wr completes once");
        assert_eq!(imms, (0..ROUNDS).collect::<Vec<_>>(), "immediates arrive once, in order");
        olds.sort_unstable();
        assert_eq!(olds, (0..ROUNDS).collect::<Vec<_>>(), "no fetch-add applied twice");
        assert_eq!(remote.read_u64(2056), ROUNDS);
        assert_eq!(local.read_u64(1024), 0xfeed_f00d);
        assert_eq!(remote.to_vec(4096, BIG), pattern);
        for round in ROUNDS.saturating_sub(64)..ROUNDS {
            assert_eq!(remote.read_u64((round % 64) as usize * 8), round);
        }
        for i in 0..2 {
            let status = c.nic(i).node_status(1 - i, VTime(0));
            assert_eq!(status, None, "no channel ran out of retries");
        }
        let (a, b) = (c.nic(0).stats(), c.nic(1).stats());
        assert!(a.retransmits + b.retransmits > 0, "loss was injected: {a:?} {b:?}");
        assert!(a.rto_fires + b.rto_fires > 0);
    }
}
