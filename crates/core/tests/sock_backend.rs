//! The middleware over the real sockets transport: every operation class
//! between every ordered pair of a 3-rank `BackendKind::Sock` cluster, one
//! thread per rank, blocking waits throughout — and the single-driver
//! ping-pong on one pinned CPU, the schedule in which a reactor that is
//! not runnable when its owner stops polling costs a timer per round trip.

use photon_core::{
    BackendKind, GetManyItem, Photon, PhotonBuffer, PhotonCluster, PhotonConfig, ProbeFlags,
    PutManyItem, Rank,
};
use photon_fabric::{NetworkModel, RemoteKey};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn sock_cluster(n: usize) -> PhotonCluster {
    let cfg = PhotonConfig { backend: BackendKind::Sock, ..PhotonConfig::default() };
    PhotonCluster::new(n, NetworkModel::ideal(), cfg)
}

const N: usize = 3;
/// Each rank's landing buffer has one stripe per source rank.
const STRIPE: usize = 128 * 1024;
const EAGER_AT: usize = 0;
const MANY_AT: usize = 1024;
const DIRECT_AT: usize = 4096;
const DIRECT_LEN: usize = 32 * 1024;
const RDV_AT: usize = 48 * 1024;
const RDV_LEN: usize = 64 * 1024;
/// After the stripes: bytes peers read, a fetch-add cell, a CAS cell per peer.
const READ_AT: usize = N * STRIPE;
const READ_LEN: usize = 16 * 1024;
const ADD_CELL: usize = READ_AT + READ_LEN;
const CAS_CELLS: usize = ADD_CELL + 8;
const LAND_LEN: usize = CAS_CELLS + 8 * N;

/// The byte rank `from` sends to rank `to` at position `i` of a transfer.
fn pat(from: Rank, to: Rank, i: usize) -> u8 {
    (i.wrapping_mul(31) ^ (from * 7 + to * 3 + 1)) as u8
}

fn fill(from: Rank, to: Rank, len: usize) -> Vec<u8> {
    (0..len).map(|i| pat(from, to, i)).collect()
}

/// Remote completion ids: `(source rank, op slot)`.
fn rid(from: Rank, slot: u64) -> u64 {
    from as u64 * 100 + slot
}

/// A barrier that gives up: if a rank has panicked, the others fail here
/// instead of waiting for it forever.
#[derive(Default)]
struct Phase(AtomicUsize);

impl Phase {
    /// Block until all `N` ranks have arrived at their `k`-th sync point.
    fn sync(&self, k: usize) {
        self.0.fetch_add(1, Ordering::AcqRel);
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.0.load(Ordering::Acquire) < k * N {
            assert!(Instant::now() < deadline, "a rank never reached sync point {k}");
            std::thread::yield_now();
        }
    }
}

struct RankCtx<'a> {
    me: Rank,
    p: &'a Photon,
    land: &'a PhotonBuffer,
    work: &'a PhotonBuffer,
    keys: &'a [RemoteKey],
    phase: &'a Phase,
}

impl RankCtx<'_> {
    fn peers(&self) -> impl Iterator<Item = Rank> + '_ {
        (0..N).filter(|&r| r != self.me)
    }

    /// Eager put, direct put, a `put_many` run and a destination-less send
    /// to every peer; then, as everyone's target, the fourteen remote
    /// completions those make here.
    fn puts_and_sends(&self) {
        let (me, p) = (self.me, self.p);
        let mut local_rids = Vec::new();
        for to in self.peers() {
            let base = to * STRIPE;
            self.work.write_at(base, &fill(me, to, DIRECT_AT + DIRECT_LEN));
            let stripe = me * STRIPE;
            let key = &self.keys[to];
            let l = |slot: u64| 10_000 + rid(to, slot);
            p.put_with_completion(
                to,
                self.work,
                base + EAGER_AT,
                64,
                key,
                stripe + EAGER_AT,
                l(1),
                rid(me, 1),
            )
            .unwrap();
            p.put_with_completion(
                to,
                self.work,
                base + DIRECT_AT,
                DIRECT_LEN,
                key,
                stripe + DIRECT_AT,
                l(2),
                rid(me, 2),
            )
            .unwrap();
            let items: Vec<PutManyItem> = (0..4u64)
                .map(|i| PutManyItem {
                    loff: base + MANY_AT + 16 * i as usize,
                    len: 16,
                    doff: stripe + MANY_AT + 16 * i as usize,
                    local_rid: l(3 + i),
                    remote_rid: rid(me, 3 + i),
                })
                .collect();
            p.put_many(to, self.work, key, &items).unwrap();
            p.send(to, format!("parcel {me}->{to}").as_bytes(), rid(me, 7)).unwrap();
            local_rids.extend((1..=6).map(l));
        }
        for l in local_rids {
            p.wait_local(l).unwrap();
        }

        let mut seen = BTreeSet::new();
        while seen.len() < 7 * (N - 1) {
            let c = p.wait_completion_matching(ProbeFlags::Remote).unwrap();
            assert!(c.is_ok() && c.is_remote(), "{c:?}");
            if c.rid == rid(c.peer, 7) {
                let want = format!("parcel {}->{me}", c.peer);
                assert_eq!(c.payload.as_deref(), Some(want.as_bytes()));
            }
            assert!(seen.insert((c.peer, c.rid)), "remote completion seen twice: {c:?}");
        }
        let want: BTreeSet<_> =
            self.peers().flat_map(|from| (1..=7).map(move |s| (from, rid(from, s)))).collect();
        assert_eq!(seen, want);
        for from in self.peers() {
            let sent = fill(from, me, DIRECT_AT + DIRECT_LEN);
            let at = from * STRIPE;
            for (off, len) in [(EAGER_AT, 64), (MANY_AT, 64), (DIRECT_AT, DIRECT_LEN)] {
                assert_eq!(
                    self.land.to_vec(at + off, len),
                    sent[off..off + len],
                    "{from}->{me} @{off}"
                );
            }
        }
    }

    /// A get, a `get_many` run, a fetch-add and two compare-and-swaps
    /// against every peer.
    fn gets_and_atomics(&self) {
        let (me, p) = (self.me, self.p);
        for from in self.peers() {
            let key = &self.keys[from];
            let base = from * STRIPE;
            p.get_with_completion(from, self.work, base, READ_LEN, key, READ_AT, 1).unwrap();
            p.wait_local(1).unwrap();
            assert_eq!(self.work.to_vec(base, READ_LEN), fill(from, from, READ_LEN));

            let items: Vec<GetManyItem> = (0..4u64)
                .map(|i| GetManyItem {
                    loff: base + READ_LEN + 32 * i as usize,
                    len: 32,
                    soff: READ_AT + 1000 * i as usize,
                    local_rid: 10 + i,
                })
                .collect();
            p.get_many(from, self.work, key, &items).unwrap();
            for it in &items {
                p.wait_local(it.local_rid).unwrap();
                let want: Vec<u8> =
                    (it.soff - READ_AT..).take(32).map(|i| pat(from, from, i)).collect();
                assert_eq!(self.work.to_vec(it.loff, 32), want);
            }

            p.fetch_add(from, key, ADD_CELL, me as u64 + 1).unwrap();
            let cell = CAS_CELLS + 8 * me;
            assert_eq!(p.compare_swap(from, key, cell, 0, me as u64 + 100).unwrap(), 0);
            assert_eq!(
                p.compare_swap(from, key, cell, 0, 999).unwrap(),
                me as u64 + 100,
                "lost CAS"
            );
        }
        self.phase.sync(2);
        let added: u64 = self.peers().map(|r| r as u64 + 1).sum();
        assert_eq!(self.land.read_u64(ADD_CELL), added);
        for from in self.peers() {
            assert_eq!(self.land.read_u64(CAS_CELLS + 8 * from), from as u64 + 100);
        }
    }

    /// A 64 KiB rendezvous to and from every peer: announce every landing
    /// zone first, then send (which waits for the peer's announce), then
    /// wait for the peers' FINs.
    fn rendezvous(&self) {
        let (me, p) = (self.me, self.p);
        let tag = |from: Rank, to: Rank| 0x7000 + (from * N + to) as u64;
        for from in self.peers() {
            p.post_recv_buffer(from, self.land, from * STRIPE + RDV_AT, RDV_LEN, tag(from, me))
                .unwrap();
        }
        for to in self.peers() {
            self.work.write_at(to * STRIPE, &fill(me, to, RDV_LEN));
            p.send_rendezvous(to, self.work, to * STRIPE, RDV_LEN, tag(me, to)).unwrap();
        }
        for from in self.peers() {
            p.wait_fin(from, tag(from, me)).unwrap();
            assert_eq!(self.land.to_vec(from * STRIPE + RDV_AT, RDV_LEN), fill(from, me, RDV_LEN));
        }
    }
}

#[test]
fn every_operation_class_between_every_pair_over_sockets() {
    let c = sock_cluster(N);
    let land: Vec<PhotonBuffer> =
        (0..N).map(|r| c.rank(r).register_buffer(LAND_LEN).unwrap()).collect();
    let work: Vec<PhotonBuffer> =
        (0..N).map(|r| c.rank(r).register_buffer(N * STRIPE).unwrap()).collect();
    let keys: Vec<RemoteKey> = land.iter().map(|b| b.descriptor()).collect();
    for (r, buf) in land.iter().enumerate() {
        buf.write_at(READ_AT, &fill(r, r, READ_LEN));
    }
    let phase = Phase::default();
    std::thread::scope(|s| {
        for me in 0..N {
            let ctx = RankCtx {
                me,
                p: c.rank(me),
                land: &land[me],
                work: &work[me],
                keys: &keys,
                phase: &phase,
            };
            s.spawn(move || {
                ctx.puts_and_sends();
                ctx.phase.sync(1);
                ctx.gets_and_atomics();
                ctx.phase.sync(3);
                ctx.rendezvous();
            });
        }
    });
    for r in 0..N {
        let s = c.sock_stats(r).expect("a sockets cluster has transport counters");
        assert!(s.frames_tx > 0 && s.frames_rx > 0 && s.trains_tx <= s.frames_tx, "{s:?}");
    }
}

/// Every rank sends a 96 KiB message to every other rank, then all-to-alls
/// 96 KiB blocks: each one eager frame three fragments long on the wire. A
/// receiver polls its eager ring by frame header, so when write fragments
/// were applied as they arrived it could accept a frame whose tail was
/// still in flight, and read zeros from byte 32,720 on (one fragment less
/// the 48-byte frame header).
#[test]
fn large_sends_and_alltoall_blocks_arrive_whole_over_sockets() {
    const BIG: usize = 96 * 1024;
    let check = |what: &str, got: &[u8], want: Vec<u8>| {
        let bad = got.iter().zip(&want).position(|(a, b)| a != b);
        assert!(got.len() == want.len() && bad.is_none(), "{what}: first wrong byte {bad:?}");
    };
    let c = sock_cluster(N);
    std::thread::scope(|s| {
        for me in 0..N {
            let p = c.rank(me);
            s.spawn(move || {
                for to in (0..N).filter(|&r| r != me) {
                    p.send(to, &fill(me, to, BIG), rid(me, 8)).unwrap();
                }
                for _ in 1..N {
                    let m = p.wait_completion_matching(ProbeFlags::Remote).unwrap();
                    let got = m.payload.expect("a send carries its payload");
                    check(&format!("send {}->{me}", m.peer), &got, fill(m.peer, me, BIG));
                }
                let send: Vec<u8> = (0..N).flat_map(|to| fill(me, to, BIG)).collect();
                let mut recv = vec![0u8; N * BIG];
                p.alltoall(&send, &mut recv).unwrap();
                for (from, got) in recv.chunks(BIG).enumerate() {
                    check(&format!("block {from}->{me}"), got, fill(from, me, BIG));
                }
            });
        }
    });
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and every thread it spawns afterwards) to the
/// first CPU it is allowed on. `false` if the kernel refused.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable bit set of `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else { return false };
    let bit = mask[word].trailing_zeros();
    mask = [0u64; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above, read-only this time.
    unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> bool {
    false
}

/// One driver thread stepping both ranks of a ping-pong, everything on one
/// CPU: while it blocks in rank 0's `wait_local`, rank 1 is polled by
/// nobody and only rank 1's reactor can take the ping off the socket. The
/// reactor must be runnable at that moment — asleep on a timer, each round
/// trip costs the timer (2.2 ms a round when this was tried).
#[test]
fn single_driver_pingpong_on_one_cpu_never_waits_for_a_timer() {
    const ROUNDS: u64 = 2_000;
    const BOUND: Duration = Duration::from_secs(4); // 2 ms a round
    if !pin_to_one_cpu() {
        eprintln!("skipped: cannot pin to one CPU here");
        return;
    }
    let c = sock_cluster(2);
    let (p0, p1) = (c.rank(0), c.rank(1));
    let (b0, b1) = (p0.register_buffer(16).unwrap(), p1.register_buffer(16).unwrap());
    let (k0, k1) = (b0.descriptor(), b1.descriptor());
    let round = |rid: u64| {
        b0.write_u64(0, !rid);
        p0.put_with_completion(1, &b0, 0, 8, &k1, 0, rid, rid).unwrap();
        p0.wait_local(rid).unwrap();
        let ping = p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert!(ping.is_ok() && ping.rid == rid);
        p1.put_with_completion(0, &b1, 0, 8, &k0, 8, rid, rid).unwrap();
        p1.wait_local(rid).unwrap();
        let echo = p0.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert!(echo.is_ok() && echo.rid == rid);
        assert_eq!(b0.read_u64(8), !rid);
    };
    round(0); // first contact in both directions
    let t0 = Instant::now();
    (1..=ROUNDS).for_each(round);
    let took = t0.elapsed();
    assert!(took < BOUND, "{ROUNDS} round trips took {took:?}: {:?} each", took / ROUNDS as u32);
}
