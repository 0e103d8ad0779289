//! Wall-clock throughput of the completion path, recorded as a JSON
//! baseline so successive PRs have a perf trajectory.
//!
//! ```text
//! probe_bench --label sharded          # writes results/BENCH_probe_sharded.json
//! probe_bench --label baseline --ops 20000
//! ```
//!
//! Scenarios (all on the `ideal` network model so wall-clock time is
//! dominated by the engine's own locking and queueing, not modeled wire
//! latency):
//!
//! * `wait_local_deep_10k` — consume 10 000 queued local completions by rid
//!   in worst-case (reverse-arrival) order: quadratic on a scan-based
//!   queue, linear on an indexed one.
//! * `st_send_probe` — single-threaded post+probe ping: batches of eager
//!   sends drained by the consumer's probe loop.
//! * `mt_post_probe` — 4 producer threads hammering `put` + `wait_local`
//!   on one shared context: the many-workers-one-NIC pattern the sharded
//!   engine exists for.
//! * `drain_10k` — one rank drains a 10 000-event backlog through the
//!   probe API (single-event probes; the sharded engine also records
//!   `drain_10k_batch` through `probe_completions`).

use photon_core::{Completion, PhotonCluster, PhotonConfig, ProbeFlags};
use photon_fabric::NetworkModel;
use std::fmt::Write as _;
use std::time::Instant;

struct Entry {
    name: &'static str,
    ops: u64,
    ns: u128,
}

impl Entry {
    fn mops(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.ops as f64 / self.ns as f64 * 1000.0
        }
    }
}

fn cluster() -> PhotonCluster {
    PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default())
}

/// Queue `depth` local completions on rank 0 (chunked posts so the send CQ
/// never overflows), rids `1000..1000+depth` in arrival order.
fn fill_local_events(c: &PhotonCluster, depth: u64) {
    let p0 = c.rank(0);
    let p1 = c.rank(1);
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

fn wait_local_deep(depth: u64) -> Entry {
    let c = cluster();
    fill_local_events(&c, depth);
    let p0 = c.rank(0);
    let t0 = Instant::now();
    // Reverse order: every wait is a worst-case lookup for a scanning queue.
    for rid in (0..depth).rev() {
        p0.wait_local(1000 + rid).unwrap();
    }
    Entry { name: "wait_local_deep_10k", ops: depth, ns: t0.elapsed().as_nanos() }
}

fn st_send_probe(ops: u64) -> Entry {
    let c = cluster();
    let p0 = c.rank(0);
    let p1 = c.rank(1);
    let payload = [7u8; 64];
    let batch = 16u64;
    let t0 = Instant::now();
    let mut done = 0u64;
    while done < ops {
        let n = batch.min(ops - done);
        for i in 0..n {
            p0.send(1, &payload, done + i).unwrap();
        }
        let mut got = 0u64;
        while got < n {
            if p1.poll_completion(ProbeFlags::Any).unwrap().is_some() {
                got += 1;
            }
        }
        done += n;
    }
    Entry { name: "st_send_probe", ops, ns: t0.elapsed().as_nanos() }
}

fn mt_post_probe(threads: u64, per_thread: u64) -> Entry {
    let c = cluster();
    let p0 = c.rank(0);
    let p1 = c.rank(1);
    let dst = p1.register_buffer(64).unwrap();
    let d = dst.descriptor();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let p0 = p0.clone();
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
    Entry { name: "mt_post_probe", ops: threads * per_thread, ns: t0.elapsed().as_nanos() }
}

fn drain_10k(depth: u64) -> Entry {
    let c = cluster();
    fill_local_events(&c, depth);
    let p0 = c.rank(0);
    let t0 = Instant::now();
    let mut got = 0u64;
    while got < depth {
        if p0.poll_completion(ProbeFlags::Local).unwrap().is_some() {
            got += 1;
        }
    }
    Entry { name: "drain_10k", ops: depth, ns: t0.elapsed().as_nanos() }
}

fn drain_10k_batch(depth: u64) -> Entry {
    let c = cluster();
    fill_local_events(&c, depth);
    let p0 = c.rank(0);
    let mut buf: Vec<Completion> = Vec::with_capacity(256);
    let t0 = Instant::now();
    let mut got = 0u64;
    while got < depth {
        got += p0.poll_completions(ProbeFlags::Local, &mut buf, 256).unwrap() as u64;
        buf.clear();
    }
    Entry { name: "drain_10k_batch", ops: depth, ns: t0.elapsed().as_nanos() }
}

/// Min over `reps` runs: each scenario does a fixed amount of work, so the
/// minimum is the run least disturbed by scheduler noise (this matters on
/// small shared vCPUs, where single runs swing by tens of percent).
fn best_of(reps: u32, f: impl Fn() -> Entry) -> Entry {
    let mut best: Option<Entry> = None;
    for _ in 0..reps {
        let e = f();
        best = Some(match best {
            Some(b) if b.ns <= e.ns => b,
            _ => e,
        });
    }
    best.expect("reps >= 1")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = String::from("current");
    let mut ops = 50_000u64;
    let mut reps = 5u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--label" => {
                label = args[i + 1].clone();
                i += 2;
            }
            "--ops" => {
                ops = args[i + 1].parse().expect("--ops takes a number");
                i += 2;
            }
            "--reps" => {
                reps = args[i + 1].parse().expect("--reps takes a number");
                i += 2;
            }
            other => {
                eprintln!("unknown arg: {other}");
                std::process::exit(2);
            }
        }
    }

    let entries = [
        best_of(reps, || wait_local_deep(10_000)),
        best_of(reps, || st_send_probe(ops)),
        best_of(reps, || mt_post_probe(4, ops / 4)),
        best_of(reps, || drain_10k(10_000)),
        best_of(reps, || drain_10k_batch(10_000)),
    ];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"probe_completion_engine\",");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"stat\": \"min_over_reps\",");
    let _ = writeln!(json, "  \"entries\": [");
    for (k, e) in entries.iter().enumerate() {
        let comma = if k + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ops\": {}, \"ns_total\": {}, \"mops_per_sec\": {:.4}}}{comma}",
            e.name, e.ops, e.ns, e.mops()
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    for e in &entries {
        println!("{:>20}  {:>9} ops  {:>12} ns  {:>8.3} Mops/s", e.name, e.ops, e.ns, e.mops());
    }
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("BENCH_probe_{label}.json"));
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {}", path.display());
}
