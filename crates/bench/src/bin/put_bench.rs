//! Wall-clock throughput of the eager put TX path, recorded as a JSON
//! baseline so successive PRs have a perf trajectory (sibling of
//! `probe_bench`, which covers the completion side).
//!
//! ```text
//! put_bench --label baseline           # writes results/BENCH_put_baseline.json
//! put_bench --label batched --ops 100000
//! put_bench --check results/BENCH_put_batched.json --max-regress-pct 2
//! put_bench --label traced --trace     # extra obs-enabled pass + Perfetto trace
//! put_bench --progress-threads 2       # dedicated completion threads on
//! put_bench --backend sock --ops 2000  # real loopback sockets transport
//! ```
//!
//! Scenarios (all on the `ideal` network model so wall-clock time is
//! dominated by the posting path's own allocation, locking, and per-post
//! bookkeeping, not modeled wire latency):
//!
//! * `single_put_8B` — strict request-response: one 8-byte
//!   `put_with_completion` outstanding at a time, local completion reaped
//!   before the next post.
//! * `windowed_put_8B_w{4,16,64}` — keep `w` puts outstanding; the sender
//!   reaps local completions in batches while the receiver drains remote
//!   notifications (returning ring credits). This is the E3 message-rate
//!   shape, and the scenario the zero-alloc/doorbell work targets.
//! * `batched_put_8B_w{4,16,64}` — same windows, but
//!   each window posts through `put_many`: one TX lock acquisition and one
//!   doorbell per window instead of one per frame.
//!
//! `--check <baseline.json>` compares this run against a committed baseline
//! (scenarios matched by name) and exits non-zero when any shared scenario
//! regressed by more than `--max-regress-pct` (default 2%). `--trace` runs
//! one extra *observability-enabled* windowed pass (excluded from the timed
//! entries), writes its span trace as Chrome trace_event JSON loadable in
//! Perfetto, and folds per-stage latency summaries into the result JSON's
//! `notes` array.

use photon_core::obs::chrome_trace_json;
use photon_core::{BackendKind, Completion, PhotonCluster, PhotonConfig, ProbeFlags, TraceExport};
use photon_fabric::NetworkModel;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

struct Entry {
    name: String,
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

/// Progress threads for every cluster this process builds (0 = inline).
static PROGRESS_THREADS: AtomicUsize = AtomicUsize::new(0);
/// `--backend sock`: run over the real sockets transport (loopback UDP)
/// instead of the simulated fabric. Wall-clock numbers then include real
/// syscall + wire costs and are NOT comparable to sim baselines — use a
/// separate `--label`.
static BACKEND_SOCK: AtomicBool = AtomicBool::new(false);

fn cluster() -> PhotonCluster {
    let cfg = PhotonConfig {
        progress_threads: PROGRESS_THREADS.load(Ordering::Relaxed),
        backend: if BACKEND_SOCK.load(Ordering::Relaxed) {
            BackendKind::Sock
        } else {
            BackendKind::Sim
        },
        ..PhotonConfig::default()
    };
    PhotonCluster::new(2, NetworkModel::ideal(), cfg)
}

/// Drain up to `want` of rank 1's remote notifications (returns credits to
/// the sender as a side effect of its probe loop).
fn drain_remote(c: &PhotonCluster, evs: &mut Vec<Completion>, want: u64) -> u64 {
    let p1 = c.rank(1);
    let mut got = 0u64;
    while got < want {
        evs.clear();
        let n = p1.poll_completions(ProbeFlags::Remote, evs, 64).expect("remote probe") as u64;
        if n == 0 {
            break;
        }
        got += n;
    }
    got
}

/// `window` 8-byte eager puts kept in flight over `ops` total operations.
fn windowed_put(name: String, ops: u64, window: usize) -> Entry {
    let c = cluster();
    let p0 = c.rank(0);
    let src = p0.register_buffer(64).unwrap();
    let dst = c.rank(1).register_buffer(64).unwrap();
    let d = dst.descriptor();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    let t0 = Instant::now();
    let (mut posted, mut done, mut drained) = (0u64, 0u64, 0u64);
    let mut inflight = 0usize;
    while done < ops {
        while inflight < window && posted < ops {
            if p0.try_put_with_completion(1, &src, 0, 8, &d, 0, posted, posted).unwrap() {
                posted += 1;
                inflight += 1;
            } else {
                break; // out of ring credits: let the receiver catch up
            }
        }
        drained += drain_remote(&c, &mut evs, posted - drained);
        evs.clear();
        let n = p0.poll_completions(ProbeFlags::Local, &mut evs, 128).unwrap();
        done += n as u64;
        inflight -= n;
    }
    Entry { name, ops, ns: t0.elapsed().as_nanos() }
}

/// Same windows, posted through the doorbell-batch API: one `put_many` call
/// per window.
fn batched_put(name: String, ops: u64, window: usize) -> Entry {
    use photon_core::PutManyItem;
    let c = cluster();
    let p0 = c.rank(0);
    let src = p0.register_buffer(64).unwrap();
    let dst = c.rank(1).register_buffer(64).unwrap();
    let d = dst.descriptor();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    let mut items: Vec<PutManyItem> = Vec::with_capacity(window);
    let t0 = Instant::now();
    let (mut posted, mut done, mut drained) = (0u64, 0u64, 0u64);
    while done < ops {
        let n = (window as u64).min(ops - posted);
        if n > 0 {
            items.clear();
            for i in 0..n {
                items.push(PutManyItem {
                    loff: 0,
                    len: 8,
                    doff: 0,
                    local_rid: posted + i,
                    remote_rid: posted + i,
                });
            }
            let accepted = p0.try_put_many(1, &src, &d, &items).unwrap() as u64;
            posted += accepted;
        }
        drained += drain_remote(&c, &mut evs, posted - drained);
        evs.clear();
        done += p0.poll_completions(ProbeFlags::Local, &mut evs, 128).unwrap() as u64;
    }
    Entry { name, ops, ns: t0.elapsed().as_nanos() }
}

/// Min over `reps` runs: each scenario does a fixed amount of work, so the
/// minimum is the run least disturbed by scheduler noise.
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

/// One windowed pass with span/histogram recording *on*: returns the Chrome
/// trace_event JSON (all ranks), the op-log JSON, and latency-summary
/// footnote lines. Never folded into the timed entries.
fn traced_pass(ops: u64, window: usize) -> (String, String, Vec<String>) {
    let c = cluster();
    for p in c.ranks() {
        p.obs().enable();
        p.tracer().enable();
    }
    let p0 = c.rank(0);
    let src = p0.register_buffer(64).unwrap();
    let dst = c.rank(1).register_buffer(64).unwrap();
    let d = dst.descriptor();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    let (mut posted, mut done, mut drained) = (0u64, 0u64, 0u64);
    let mut inflight = 0usize;
    while done < ops {
        while inflight < window && posted < ops {
            if p0.try_put_with_completion(1, &src, 0, 8, &d, 0, posted, posted).unwrap() {
                posted += 1;
                inflight += 1;
            } else {
                break;
            }
        }
        drained += drain_remote(&c, &mut evs, posted - drained);
        evs.clear();
        let n = p0.poll_completions(ProbeFlags::Local, &mut evs, 128).unwrap();
        done += n as u64;
        inflight -= n;
    }
    let spans: Vec<_> = c.ranks().iter().map(|p| p.span_trace()).collect();
    let chrome = chrome_trace_json(&spans);
    let ops_json = TraceExport::json(&p0.tracer().records());
    let mut notes = Vec::new();
    for r in 0..c.len() {
        for s in c.rank(r).metrics().latencies {
            notes.push(format!(
                "rank{r} {} peer{}: count={} p50={}ns p99={}ns max={}ns",
                s.kind.as_str(),
                s.peer,
                s.count,
                s.p50_ns,
                s.p99_ns,
                s.max_ns
            ));
        }
    }
    (chrome, ops_json, notes)
}

/// Pull `(name, mops_per_sec)` pairs out of a bench JSON produced by this
/// binary. Hand-rolled line scan — the format is ours and stable.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else { continue };
        let rest = &line[npos + 9..];
        let Some(nend) = rest.find('"') else { continue };
        let name = rest[..nend].to_string();
        let Some(mpos) = line.find("\"mops_per_sec\": ") else { continue };
        let tail = &line[mpos + 16..];
        let num: String =
            tail.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Compare `entries` against `baseline`, cell by cell. Every measured
/// scenario must have a baseline entry and vice versa — a missing cell is a
/// failure, not a silent skip (the old behavior let a renamed scenario
/// evade the gate entirely). Returns the per-scenario verdict lines (ending
/// with a worst-regression summary) and whether the check failed.
fn check_against(
    entries: &[Entry],
    baseline: &[(String, f64)],
    max_pct: f64,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut breached = false;
    // Worst (most negative) delta across the compared cells.
    let mut worst: Option<(&str, f64)> = None;
    for e in entries {
        let Some((_, base)) = baseline.iter().find(|(n, _)| *n == e.name) else {
            breached = true;
            lines.push(format!(
                "{:>20}  MISSING from baseline — regenerate it to cover this scenario",
                e.name
            ));
            continue;
        };
        let cur = e.mops();
        let delta_pct = if *base > 0.0 { (cur - base) / base * 100.0 } else { 0.0 };
        if worst.is_none_or(|(_, w)| delta_pct < w) {
            worst = Some((&e.name, delta_pct));
        }
        let bad = delta_pct < -max_pct;
        breached |= bad;
        lines.push(format!(
            "{:>20}  base {:>8.3}  now {:>8.3} Mops/s  {:>+7.2}%  {}",
            e.name,
            base,
            cur,
            delta_pct,
            if bad { "REGRESSED" } else { "ok" }
        ));
    }
    for (name, _) in baseline {
        if !entries.iter().any(|e| e.name == *name) {
            breached = true;
            lines.push(format!("{name:>20}  in baseline but NOT measured this run"));
        }
    }
    if let Some((name, delta)) = worst {
        lines.push(format!("worst regression: {name} ({delta:+.2}%)"));
    }
    (lines, breached)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = String::from("current");
    let mut ops = 100_000u64;
    let mut reps = 5u32;
    let mut check: Option<String> = None;
    let mut max_regress_pct = 2.0f64;
    let mut trace = false;
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
            "--check" => {
                check = Some(args[i + 1].clone());
                i += 2;
            }
            "--max-regress-pct" => {
                max_regress_pct = args[i + 1].parse().expect("--max-regress-pct takes a number");
                i += 2;
            }
            "--trace" => {
                trace = true;
                i += 1;
            }
            "--progress-threads" => {
                let n: usize = args[i + 1].parse().expect("--progress-threads takes a number");
                PROGRESS_THREADS.store(n, Ordering::Relaxed);
                i += 2;
            }
            "--backend" => {
                match args[i + 1].as_str() {
                    "sim" => BACKEND_SOCK.store(false, Ordering::Relaxed),
                    "sock" => BACKEND_SOCK.store(true, Ordering::Relaxed),
                    other => {
                        eprintln!("--backend takes sim|sock, got {other}");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("unknown arg: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut entries = vec![
        best_of(reps, || windowed_put("single_put_8B".into(), ops / 4, 1)),
        best_of(reps, || windowed_put("windowed_put_8B_w4".into(), ops, 4)),
        best_of(reps, || windowed_put("windowed_put_8B_w16".into(), ops, 16)),
        best_of(reps, || windowed_put("windowed_put_8B_w64".into(), ops, 64)),
    ];
    for w in [4usize, 16, 64] {
        entries.push(best_of(reps, || batched_put(format!("batched_put_8B_w{w}"), ops, w)));
    }

    // Optional obs-enabled pass: its artifacts ride along as footnotes and
    // side files; it never contributes to the timed entries above.
    let mut notes: Vec<String> = Vec::new();
    let mut trace_files: Vec<String> = Vec::new();
    let dir = std::path::Path::new("results");
    if trace {
        let (chrome, ops_json, hist_notes) = traced_pass(ops.min(10_000), 16);
        std::fs::create_dir_all(dir).expect("create results dir");
        let span_path = dir.join(format!("BENCH_put_{label}_trace.json"));
        std::fs::write(&span_path, &chrome).expect("write span trace");
        let ops_path = dir.join(format!("BENCH_put_{label}_ops.json"));
        std::fs::write(&ops_path, &ops_json).expect("write op log");
        trace_files.push(span_path.display().to_string());
        trace_files.push(ops_path.display().to_string());
        notes.extend(hist_notes);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"eager_put_tx_path\",");
    let _ = writeln!(json, "  \"label\": \"{label}\",");
    let _ = writeln!(
        json,
        "  \"backend\": \"{}\",",
        if BACKEND_SOCK.load(Ordering::Relaxed) { "sock" } else { "sim" }
    );
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
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"notes\": [");
    for (k, n) in notes.iter().enumerate() {
        let comma = if k + 1 < notes.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\"{comma}", n.replace('"', "'"));
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    for e in &entries {
        println!("{:>20}  {:>9} ops  {:>12} ns  {:>8.3} Mops/s", e.name, e.ops, e.ns, e.mops());
    }
    for n in &notes {
        println!("  # {n}");
    }
    for f in &trace_files {
        println!("wrote {f}");
    }
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("BENCH_put_{label}.json"));
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {}", path.display());

    if let Some(base_path) = check {
        let text = std::fs::read_to_string(&base_path)
            .unwrap_or_else(|e| panic!("read baseline {base_path}: {e}"));
        let baseline = parse_baseline(&text);
        let (lines, breached) = check_against(&entries, &baseline, max_regress_pct);
        println!("-- check vs {base_path} (max regression {max_regress_pct}%) --");
        for l in &lines {
            println!("{l}");
        }
        if breached {
            eprintln!("FAIL: at least one scenario regressed beyond {max_regress_pct}%");
            std::process::exit(1);
        }
        println!("check passed");
    }
}
