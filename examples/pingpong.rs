//! Multi-process ping-pong, windowed puts and an all-to-all over the
//! sockets backend.
//!
//! This example is the `photon-launch` smoke workload: run it as a real
//! multi-process cluster on localhost —
//!
//! ```text
//! cargo build --example pingpong
//! cargo run --bin photon-launch -- -n 4 -- target/debug/examples/pingpong
//! ```
//!
//! Each rank joins the job through the launcher's environment contract
//! (`PHOTON_RANK`/`PHOTON_BOOTSTRAP`), then runs three phases over real UDP
//! sockets: PWC ping-pong in rank pairs, a ring of windowed
//! put-with-completions, and a verified all-to-all of 48 KiB blocks. It
//! prints `PINGPONG OK` / `WINDOWED-PUT OK` / `ALLTOALL OK` markers
//! (grepped by CI) and exits non-zero on any failure.

use photon::core::buffers::BufferDescriptor;
use photon::core::{Completion, PhotonConfig, PhotonProcess, ProbeFlags};
use std::time::Instant;

/// Remote rid carrying a buffer descriptor during setup.
const RID_DESC: u64 = 1_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters = 200u64;
    let mut ops = 2_000u64;
    let mut window = 16usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args[i + 1].parse().expect("--iters takes a count");
                i += 2;
            }
            "--ops" => {
                ops = args[i + 1].parse().expect("--ops takes a count");
                i += 2;
            }
            "--window" => {
                window = args[i + 1].parse().expect("--window takes a count");
                i += 2;
            }
            other => {
                eprintln!("unknown arg: {other} (try --iters/--ops/--window)");
                std::process::exit(2);
            }
        }
    }

    let me = PhotonProcess::from_env(PhotonConfig::default()).unwrap_or_else(|e| {
        eprintln!("pingpong: join failed ({e}); run me under photon-launch");
        std::process::exit(1);
    });
    let (rank, n) = (me.rank(), me.n());
    let p = me.photon();
    assert!(n >= 2, "pingpong needs at least 2 ranks");

    // Phase 1 — PWC ping-pong in pairs (rank 2k <-> 2k+1). With odd n the
    // last rank sits this phase out at the barrier.
    let buf = p.register_buffer(4096).unwrap();
    let partner = rank ^ 1;
    if partner < n {
        p.send(partner, &buf.descriptor().to_bytes(), RID_DESC).unwrap();
        let c = p.wait_completion_from(partner).unwrap();
        assert_eq!(c.rid, RID_DESC);
        let dst = BufferDescriptor::from_bytes(&c.payload.unwrap());
        let t0 = Instant::now();
        for i in 0..iters {
            if rank % 2 == 0 {
                p.put_with_completion(partner, &buf, 0, 8, &dst, 0, i, i).unwrap();
                p.wait_local(i).unwrap();
                p.wait_completion_from(partner).unwrap();
            } else {
                p.wait_completion_from(partner).unwrap();
                p.put_with_completion(partner, &buf, 0, 8, &dst, 0, i, i).unwrap();
                p.wait_local(i).unwrap();
            }
        }
        let half_rtt_ns = t0.elapsed().as_nanos() as u64 / (2 * iters);
        println!(
            "PINGPONG OK rank={rank} partner={partner} iters={iters} half_rtt_us={:.1}",
            half_rtt_ns as f64 / 1000.0
        );
    }
    p.barrier().unwrap();

    // Phase 2 — ring of windowed puts: every rank keeps `window` 8-byte
    // PWCs in flight toward the next rank while draining the remote
    // completions arriving from the previous one (which is what returns
    // that producer's ring credits).
    let to = (rank + 1) % n;
    let from = (rank + n - 1) % n;
    p.send(from, &buf.descriptor().to_bytes(), RID_DESC + 1).unwrap();
    let c = p.wait_completion_from(to).unwrap();
    assert_eq!(c.rid, RID_DESC + 1);
    let dst = BufferDescriptor::from_bytes(&c.payload.unwrap());

    let t0 = Instant::now();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    let (mut posted, mut done, mut drained) = (0u64, 0u64, 0u64);
    let mut inflight = 0usize;
    while done < ops || drained < ops {
        while inflight < window && posted < ops {
            if p.try_put_with_completion(to, &buf, 0, 8, &dst, 0, posted, posted).unwrap() {
                posted += 1;
                inflight += 1;
            } else {
                break; // out of ring credits until `from`-side probes catch up
            }
        }
        evs.clear();
        drained += p.poll_completions(ProbeFlags::Remote, &mut evs, 64).unwrap() as u64;
        evs.clear();
        let k = p.poll_completions(ProbeFlags::Local, &mut evs, 64).unwrap();
        done += k as u64;
        inflight -= k;
    }
    let rate = ops as f64 / t0.elapsed().as_secs_f64() / 1.0e6;
    println!("WINDOWED-PUT OK rank={rank} ops={ops} window={window} mops={rate:.3}");

    // Phase 3 — all-to-all of 48 KiB blocks: each block is one eager
    // message, two fragments on the wire, and every byte is checked.
    const BLOCK: usize = 48 * 1024;
    let pat =
        |from: usize, to: usize, i: usize| (i.wrapping_mul(31) ^ (from * 7 + to * 3 + 1)) as u8;
    let send: Vec<u8> = (0..n).flat_map(|to| (0..BLOCK).map(move |i| pat(rank, to, i))).collect();
    let mut recv = vec![0u8; n * BLOCK];
    p.alltoall(&send, &mut recv).unwrap();
    for (from, got) in recv.chunks(BLOCK).enumerate() {
        let bad = (0..BLOCK).find(|&i| got[i] != pat(from, rank, i));
        assert!(bad.is_none(), "all-to-all block {from}->{rank}: first wrong byte {bad:?}");
    }
    println!("ALLTOALL OK rank={rank} n={n} block={BLOCK}");

    p.barrier().unwrap();
    println!("ALL DONE rank={rank} n={n}");
}
