//! `micro`: wall-clock cost of the pieces no other suite isolates — the
//! pure ledger / eager-ring state machines (the protocol's minimum CPU
//! cost, no fabric involved), the codecs, buffer registration (E9),
//! collectives with their threads, and the empty probe (E5's software
//! side).

use crate::experiments::compact_photon_config;
use crate::harness::{best_of, Args, Cell, Report};
use crate::report::size_label;
use photon_core::eager::{EagerRx, EagerTx, FrameHeader, FrameKind, FRAME_HDR};
use photon_core::ledger::{Entry, EntryKind, LedgerRx, LedgerTx, ENTRY_BYTES};
use photon_core::{PhotonCluster, PhotonConfig, ProbeFlags, ReduceOp};
use photon_fabric::mr::RemoteKey;
use photon_fabric::NetworkModel;
use std::hint::black_box;
use std::time::Instant;

/// Time `iters` calls of `f`.
fn timed(name: &str, iters: u64, mut f: impl FnMut()) -> Cell {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    Cell::new(name, iters, t0.elapsed().as_nanos() as u64)
}

fn ledger_produce_encode_accept(iters: u64) -> Cell {
    let slots = 256;
    let mut tx = LedgerTx::new(slots);
    let mut rx = LedgerRx::new(slots, 128);
    let mut mem = vec![0u8; slots * ENTRY_BYTES];
    timed("ledger_produce_encode_accept", iters, || {
        let (slot, seq) = tx.try_produce().unwrap_or_else(|| {
            tx.update_credits(rx.consumed());
            tx.try_produce().unwrap()
        });
        let e = Entry {
            seq,
            rid: seq,
            size: 8,
            addr: 0,
            rkey: 0,
            kind: EntryKind::Completion,
            ts: seq,
        };
        let off = tx.slot_offset(slot);
        mem[off..off + ENTRY_BYTES].copy_from_slice(&e.encode());
        let off = rx.head_offset();
        let got = rx.accept(&mem[off..off + ENTRY_BYTES]).unwrap();
        let _ = rx.credit_due();
        black_box(got.rid);
    })
}

fn eager_ring_reserve_write_accept(iters: u64) -> Cell {
    let ring_bytes = 64 * 1024;
    let mut tx = EagerTx::new(ring_bytes);
    let mut rx = EagerRx::new(ring_bytes, 16 * 1024);
    let mut ring = vec![0u8; ring_bytes];
    let payload = [0xA5u8; 64];
    let header = |seq, size, kind| FrameHeader {
        seq,
        rid: seq,
        dst_addr: 0,
        dst_rkey: 0,
        size,
        kind,
        ts: 0,
    };
    timed("eager_ring_reserve_write_accept_64B", iters, || {
        let r = tx.try_reserve(64).unwrap_or_else(|| {
            tx.update_credits(rx.cursor());
            tx.try_reserve(64).unwrap()
        });
        if let Some((off, dead, seq)) = r.skip {
            ring[off..off + FRAME_HDR]
                .copy_from_slice(&header(seq, dead, FrameKind::Skip).encode());
        }
        let body = r.offset + FRAME_HDR;
        ring[r.offset..body].copy_from_slice(&header(r.seq, 64, FrameKind::Msg).encode());
        ring[body..body + 64].copy_from_slice(&payload);
        let rid = loop {
            let f = rx.accept(&ring).unwrap();
            let _ = rx.credit_due();
            if f.header.kind != FrameKind::Skip {
                break f.header.rid;
            }
        };
        black_box(rid);
    })
}

fn entry_encode_decode(iters: u64) -> Cell {
    let e = Entry {
        seq: 12345,
        rid: 0xfeed_beef,
        size: 4096,
        addr: 0x1000_0000,
        rkey: 42,
        kind: EntryKind::Completion,
        ts: 987_654,
    };
    timed("entry_encode_decode", iters, || {
        black_box(Entry::decode(&black_box(e).encode()).unwrap());
    })
}

/// Every rank of `cluster` runs `f` on its own thread, `iters` times over.
fn collective(
    name: String,
    iters: u64,
    cluster: &PhotonCluster,
    f: impl Fn(&photon_core::Photon) + Sync,
) -> Cell {
    timed(&name, iters, || {
        std::thread::scope(|s| {
            for p in cluster.ranks() {
                s.spawn(|| f(p));
            }
        });
    })
}

/// The `micro` suite. `--ops` is the iteration count of the sub-µs
/// scenarios; registration and the thread-spawning collectives, which cost
/// 10²–10³× more per iteration, run proportionally fewer.
pub fn run(a: &Args) -> Report {
    let (ops, reps) = (a.ops(200_000, 2_000), a.reps(5, 2));
    let mut r = Report::new(a, reps);
    r.cells = vec![
        best_of(reps, || ledger_produce_encode_accept(ops)),
        best_of(reps, || eager_ring_reserve_write_accept(ops)),
        best_of(reps, || entry_encode_decode(ops)),
    ];

    let one = PhotonCluster::new(1, NetworkModel::ideal(), PhotonConfig::default());
    let p = one.rank(0);
    for size in [4096usize, 64 * 1024, 1 << 20, 4 << 20] {
        let name = format!("register_deregister_{}", size_label(size));
        r.cells.push(best_of(reps, || {
            timed(&name, (ops / 100).max(1), || {
                let buf = p.register_buffer(size).unwrap();
                p.release_buffer(&buf).unwrap();
            })
        }));
    }
    let buf = p.register_buffer(4096).unwrap();
    r.cells.push(best_of(reps, || {
        timed("descriptor_encode_decode", ops, || {
            black_box(RemoteKey::from_bytes(&buf.descriptor().to_bytes()));
        })
    }));

    let coll_iters = (ops / 400).max(1);
    for n in [2usize, 4, 8] {
        let c = PhotonCluster::new(n, NetworkModel::ideal(), compact_photon_config());
        r.cells.push(best_of(reps, || {
            collective(format!("barrier_wall_n{n}"), coll_iters, &c, |p| p.barrier().unwrap())
        }));
        r.cells.push(best_of(reps, || {
            collective(format!("allreduce8_wall_n{n}"), coll_iters, &c, |p| {
                let mut v = [p.rank() as u64; 8];
                p.allreduce_u64(&mut v, ReduceOp::Sum).unwrap();
            })
        }));
    }
    for n in [2usize, 8, 32] {
        let c = PhotonCluster::new(n, NetworkModel::ideal(), compact_photon_config());
        r.cells.push(best_of(reps, || {
            timed(&format!("probe_empty_n{n}"), ops, || {
                black_box(c.rank(0).poll_completion(ProbeFlags::Any).unwrap());
            })
        }));
    }
    r
}
