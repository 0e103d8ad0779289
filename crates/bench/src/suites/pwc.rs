//! The suites that are the two-rank [`Pump`] swept along one axis each:
//! `put` / `get` (window × posting mode) and `sockets` (× backend, beside
//! the modeled run).

use crate::experiments::drivers;
use crate::harness::{best_of, write_file, Args, Cell, Op, Pump, Report};
use photon_core::obs::chrome_trace_json;
use photon_core::{BackendKind, PhotonCluster, PhotonConfig, TraceExport};
use photon_fabric::sock::SOCK_COUNTERS;
use photon_fabric::NetworkModel;
use std::path::Path;

const WINDOWS: [usize; 3] = [4, 16, 64];

/// `windowed_put_8B_w16`, `batched_get_8B_w4`, ...
fn scenario(op: Op, batched: bool, window: usize) -> String {
    format!("{}_{}_8B_w{window}", if batched { "batched" } else { "windowed" }, op.name())
}

/// Wall-clock cell for one pump run, min over `reps` fresh clusters.
fn wall_cell(
    pump: Pump,
    name: &str,
    op: Op,
    batched: bool,
    window: usize,
    ops: u64,
    reps: u32,
) -> Cell {
    best_of(reps, || Cell::new(name, ops, pump.run(op, batched, window, ops).wall_ns))
}

/// `put` / `get`: strict request-response (`single_*`: one operation
/// outstanding, reaped before the next post), then `w` outstanding posted
/// one by one (`windowed_*`) or as one doorbell per window (`batched_*`).
fn window_sweep(op: Op, a: &Args) -> Report {
    let (ops, reps) = (a.ops(100_000, 10_000), a.reps(5, 2));
    let mut r = Report::new(a, reps);
    let pump = Pump::ideal_sim();
    let single = format!("single_{}_8B", op.name());
    r.cells.push(wall_cell(pump, &single, op, false, 1, (ops / 4).max(1), reps));
    for batched in [false, true] {
        for w in WINDOWS {
            r.cells.push(wall_cell(pump, &scenario(op, batched, w), op, batched, w, ops, reps));
        }
    }
    // One doorbell per window must beat one post per operation.
    for w in WINDOWS {
        let (b, u) = (r.rate_of(&scenario(op, true, w)), r.rate_of(&scenario(op, false, w)));
        r.verdicts.push(format!(
            "{}_w{w}: batched {b:.3} vs windowed {u:.3} Mops/s -> {}",
            op.name(),
            if b > u { "PASS" } else { "FAIL" }
        ));
    }
    r
}

/// Eager put TX path. `--trace` adds one obs-enabled windowed pass, never
/// folded into the timed cells: its span trace (Chrome trace_event JSON,
/// loadable in Perfetto) and op log land beside the report, its per-stage
/// latency summaries in the notes.
pub fn put(a: &Args) -> Report {
    let mut r = window_sweep(Op::Put, a);
    if a.trace {
        let c = Pump::ideal_sim().cluster();
        for p in c.ranks() {
            p.obs().enable();
            p.tracer().enable();
        }
        Pump::drive(&c, Op::Put, false, 16, a.ops(100_000, 10_000).min(10_000));
        let spans: Vec<_> = c.ranks().iter().map(|p| p.span_trace()).collect();
        let side_files = [
            ("trace", chrome_trace_json(&spans)),
            ("ops", TraceExport::json(&c.rank(0).tracer().records())),
        ];
        for (kind, text) in side_files {
            let path = Path::new("results").join(format!("{}_{kind}.json", a.stem()));
            match write_file(&path, &text) {
                Ok(()) => r.notes.push(format!("wrote {}", path.display())),
                Err(e) => r.notes.push(format!("could not write {}: {e}", path.display())),
            }
        }
        for (rank, p) in c.ranks().iter().enumerate() {
            for s in p.metrics().latencies {
                r.notes.push(format!(
                    "rank{rank} {} peer{}: count={} p50={}ns p99={}ns max={}ns",
                    s.kind.as_str(),
                    s.peer,
                    s.count,
                    s.p50_ns,
                    s.p99_ns,
                    s.max_ns
                ));
            }
        }
    }
    r
}

/// One-sided GET path. Reads have no receiver to drain and no ring-credit
/// backpressure, so batching shows up as saved per-post bookkeeping.
pub fn get(a: &Args) -> Report {
    window_sweep(Op::Get, a)
}

/// Attach the transport counters of a two-rank sockets cluster, summed over
/// both endpoints, to the cell measured on it: `datagrams_tx / ops` is
/// datagrams per operation, `frames_tx / trains_tx` frames per train,
/// `datagrams_tx + datagrams_rx + caller_drain_passes +
/// reactor_drain_passes + reactor_wakeups` the system calls made.
fn with_sock_counters(cell: Cell, c: &PhotonCluster) -> Cell {
    let stats = [0, 1].map(|r| c.sock_stats(r).expect("sockets cluster"));
    SOCK_COUNTERS.iter().fold(cell, |cell, def| {
        let total: u64 = stats.iter().filter_map(|s| s.get(def.name)).sum();
        cell.with(def.name, total as f64)
    })
}

/// E23: the same PWC code over the LogGP-modeled NIC (`*_modeled` cells,
/// `ns_total` in **virtual** ns) and over real loopback UDP (`*_sock`
/// cells, wall ns, min over reps). Absolute numbers are not comparable —
/// one models FDR InfiniBand, the other pays Linux syscalls — so the
/// verdicts compare *shapes*: latency must rise with size and message rate
/// with window, point-wise on the deterministic modeled curve, first to
/// last on the jittery real one.
pub fn sockets(a: &Args) -> Report {
    // 5 000 ops: at the sock rates of a few hundred kops/s a cell is tens
    // of milliseconds — long enough that reactor-thread start-up (a
    // millisecond or two on this class of host) is not most of it.
    let (ops, reps) = (a.ops(5_000, 100), a.reps(3, 1));
    let iters = (ops / 10).max(1) as usize;
    let mut r = Report::new(a, reps);
    let model = NetworkModel::ib_fdr();
    let sim = Pump { model, ..Pump::ideal_sim() };
    let sock = Pump { backend: BackendKind::Sock, ..sim };
    let mut curves: [Vec<f64>; 4] = Default::default(); // lat modeled/real, rate modeled/real
    for size in [8usize, 64, 512, 4096, 16384] {
        let trips = 2 * iters as u64;
        let name = format!("pingpong_{size}B");
        let (_, virt) = drivers::photon_pingpong(model, PhotonConfig::default(), size, iters);
        let modeled = Cell::new(format!("{name}_modeled"), trips, virt);
        let real = best_of(reps, || {
            let c = sock.cluster();
            let (wall, _) = drivers::photon_pingpong_on(&c, size, iters);
            with_sock_counters(Cell::new(format!("{name}_sock"), trips, wall), &c)
        });
        curves[0].push(modeled.ns_total as f64);
        curves[1].push(real.ns_total as f64);
        r.cells.extend([modeled, real]);
    }
    for w in [1usize, 4, 16, 64] {
        let name = scenario(Op::Put, false, w);
        let virt = sim.run(Op::Put, false, w, ops).virt_ns;
        let modeled = Cell::new(format!("{name}_modeled"), ops, virt);
        let real = best_of(reps, || {
            let c = sock.cluster();
            let wall = Pump::drive(&c, Op::Put, false, w, ops).wall_ns;
            with_sock_counters(Cell::new(format!("{name}_sock"), ops, wall), &c)
        });
        curves[2].push(modeled.rate());
        curves[3].push(real.rate());
        r.cells.extend([modeled, real]);
    }
    let monotone = |xs: &[f64]| xs.windows(2).all(|w| w[1] >= w[0]);
    let grows = |xs: &[f64]| xs.last() > xs.first();
    r.verdicts.push(format!(
        "latency_rises_with_size modeled={} real={}",
        monotone(&curves[0]),
        grows(&curves[1])
    ));
    r.verdicts.push(format!(
        "msgrate_rises_with_window modeled={} real={}",
        monotone(&curves[2]),
        grows(&curves[3])
    ));
    r.notes.push("*_modeled cells: ns_total is virtual ns on the ib_fdr model".to_string());
    r
}
