//! `probe`: wall-clock throughput of the completion engine, on the `ideal`
//! model so time is the engine's own locking and queueing.

use crate::harness::{best_of, Args, Cell, Pump, Report};
use photon_core::{Completion, PhotonCluster, ProbeFlags};
use std::time::Instant;

/// Depth of the queued-completion backlog the `*_10k` scenarios consume.
const BACKLOG: u64 = 10_000;

/// Queue `depth` local completions on rank 0 (chunked posts so the send CQ
/// never overflows), rids `1000..1000+depth` in arrival order.
fn fill_local_events(c: &PhotonCluster, depth: u64) {
    let (p0, p1) = (c.rank(0), c.rank(1));
    let src = p0.register_buffer(8).unwrap();
    let dst = p1.register_buffer(8).unwrap();
    let d = dst.descriptor();
    let mut posted = 0u64;
    while posted < depth {
        let chunk = 128.min(depth - posted);
        for i in 0..chunk {
            p0.put(1, &src, 0, 8, &d, 0, 1000 + posted + i).unwrap();
        }
        posted += chunk;
        p0.progress().unwrap();
    }
}

/// Time `consume` draining a `BACKLOG`-deep local-completion queue.
fn backlog_cell(name: &str, consume: impl Fn(&PhotonCluster)) -> Cell {
    let c = Pump::ideal_sim().cluster();
    fill_local_events(&c, BACKLOG);
    let t0 = Instant::now();
    consume(&c);
    Cell::new(name, BACKLOG, t0.elapsed().as_nanos() as u64)
}

/// Consume the backlog by rid in reverse-arrival order: every wait is a
/// worst-case lookup — quadratic on a scanning queue, linear on an indexed
/// one.
fn wait_local_deep() -> Cell {
    backlog_cell("wait_local_deep_10k", |c| {
        for rid in (0..BACKLOG).rev() {
            c.rank(0).wait_local(1000 + rid).unwrap();
        }
    })
}

/// Drain the backlog through single-event probes.
fn drain() -> Cell {
    backlog_cell("drain_10k", |c| {
        let mut got = 0u64;
        while got < BACKLOG {
            got += c.rank(0).poll_completion(ProbeFlags::Local).unwrap().is_some() as u64;
        }
    })
}

/// Drain the backlog through the batch probe.
fn drain_batch() -> Cell {
    backlog_cell("drain_10k_batch", |c| {
        let mut buf: Vec<Completion> = Vec::with_capacity(256);
        let mut got = 0u64;
        while got < BACKLOG {
            got += c.rank(0).poll_completions(ProbeFlags::Local, &mut buf, 256).unwrap() as u64;
            buf.clear();
        }
    })
}

/// Single-threaded post+probe ping: batches of 16 eager sends drained by
/// the consumer's probe loop.
fn st_send_probe(ops: u64) -> Cell {
    let c = Pump::ideal_sim().cluster();
    let (p0, p1) = (c.rank(0), c.rank(1));
    let payload = [7u8; 64];
    let t0 = Instant::now();
    let mut done = 0u64;
    while done < ops {
        let n = 16.min(ops - done);
        for i in 0..n {
            p0.send(1, &payload, done + i).unwrap();
        }
        let mut got = 0u64;
        while got < n {
            got += p1.poll_completion(ProbeFlags::Any).unwrap().is_some() as u64;
        }
        done += n;
    }
    Cell::new("st_send_probe", ops, t0.elapsed().as_nanos() as u64)
}

/// `threads` producers hammering `put` + `wait_local` on one shared
/// context: the many-workers-one-NIC pattern the sharded engine exists for.
fn mt_post_probe(threads: u64, per_thread: u64) -> Cell {
    let c = Pump::ideal_sim().cluster();
    let p0 = c.rank(0);
    let dst = c.rank(1).register_buffer(64).unwrap();
    let d = dst.descriptor();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let src = p0.register_buffer(8).unwrap();
            s.spawn(move || {
                for i in 0..per_thread {
                    let rid = (t << 32) | i;
                    p0.put(1, &src, 0, 8, &d, 0, rid).unwrap();
                    p0.wait_local(rid).unwrap();
                }
            });
        }
    });
    Cell::new("mt_post_probe", threads * per_thread, t0.elapsed().as_nanos() as u64)
}

/// The `probe` suite.
pub fn run(a: &Args) -> Report {
    let (ops, reps) = (a.ops(50_000, 8_000), a.reps(5, 2));
    let mut r = Report::new(a, reps);
    r.cells = vec![
        best_of(reps, wait_local_deep),
        best_of(reps, || st_send_probe(ops)),
        best_of(reps, || mt_post_probe(4, (ops / 4).max(1))),
        best_of(reps, drain),
        best_of(reps, drain_batch),
    ];
    r
}
