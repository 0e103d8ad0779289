//! One run of one workload in this process: either the untraced pass that
//! yields the end-to-end metrics, or the traced pass that yields the
//! per-layer ones.

use crate::host;
use crate::json::Json;
use crate::meter::{median, Meter};
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::trace::{Clock, NoTrace, Sp, SpanLog, SpanSum, POST_CLASSES};
use crate::workloads::gups::Gups;
use crate::workloads::mixed::Mixed;
use crate::workloads::pingpong::PingPong;
use crate::workloads::put8::{Put8Sim, Put8Sock};
use crate::workloads::{fabric_probe, OpTable, Workload};
use photon_core::{BackendKind, StatsSnapshot};
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Short phases and few set-ups: checks that everything runs, not how fast.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricSpec, f64)>,
    /// Everything else worth keeping: sample counts, the op-table hash, the
    /// verification misses.
    pub info: Json,
}

impl RunOutput {
    /// The four fields the driver reads.
    fn driver_fields(&self) -> Vec<(&'static str, Json)> {
        let metrics = self.metrics.iter().map(|(m, v)| {
            let entry = Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]);
            (m.name.to_string(), entry)
        });
        vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics.collect())),
        ]
    }

    /// The one-line object the driver reads from the end of stdout.
    pub fn driver_line(&self) -> String {
        Json::obj(self.driver_fields()).render()
    }

    /// The pass file: the driver's fields plus everything in `info`.
    pub fn to_json(&self) -> Json {
        let mut fields = self.driver_fields();
        fields.insert(
            3,
            ("fail_ratio", Json::Num(self.failed as f64 / self.attempted.max(1) as f64)),
        );
        fields.push(("info", self.info.clone()));
        Json::obj(fields)
    }
}

/// Call `$f::<W>($args)` for the workload type `W` that `$name` names.
macro_rules! dispatch {
    ($name:expr, $f:ident($($arg:expr),*)) => {
        match $name {
            "put8_w16_sim" => Some($f::<Put8Sim>($($arg),*)),
            "put8_w16_sock" => Some($f::<Put8Sock>($($arg),*)),
            "pingpong8_sock" => Some($f::<PingPong>($($arg),*)),
            "mixed_rw_sim" => Some($f::<Mixed>($($arg),*)),
            "parcel_gups_sim" => Some($f::<Gups>($($arg),*)),
            _ => None,
        }
    };
}

/// `None` for a workload name the benchmark does not have.
pub fn run(args: &RunArgs) -> Option<RunOutput> {
    dispatch!(args.workload.as_str(), pass(args))
}

fn pass<W: Workload>(args: &RunArgs) -> RunOutput {
    debug_assert_eq!(W::NAME, args.workload);
    if args.trace {
        traced::<W>(args)
    } else {
        end_to_end::<W>(args)
    }
}

fn backend_note(b: BackendKind) -> &'static str {
    match b {
        BackendKind::Sim => "sim: in-process simulated NIC, ideal model",
        BackendKind::Sock => "sock: real UDP over host loopback, not a link",
    }
}

fn rates_json(meter: &Meter) -> Json {
    let r = &meter.rates();
    let series = meter.segment_series();
    let column =
        |f: fn(&(f64, f64)) -> f64| Json::Arr(series.iter().map(|s| Json::Num(f(s))).collect());
    Json::obj([
        ("segments", Json::Num(r.segments as f64)),
        ("timed_s", Json::Num(r.timed_s)),
        ("timed_ops", Json::Num(r.timed_ops as f64)),
        ("ops_per_s_fastest_state", Json::Num(r.ops_per_s)),
        ("fastest_state_share_of_segments", Json::Num(r.fastest_state_share)),
        ("ops_per_s_median_of_segments", Json::Num(r.ops_per_s_median)),
        ("ops_per_s_whole_run_mean", Json::Num(r.ops_per_s_mean)),
        ("lat_samples", Json::Num(r.lat_samples as f64)),
        ("lat_p50_us_fastest_state", Json::Num(r.lat_p50_us)),
        ("lat_p50_us_median_of_segments", Json::Num(r.lat_p50_us_median)),
        ("lat_p99_us", Json::Num(r.lat_p99_us)),
        ("segment_ops_per_s", column(|s| s.0.round())),
        ("segment_lat_p50_us", column(|s| (s.1 * 100.0).round() / 100.0)),
    ])
}

fn common_info<W: Workload>(
    args: &RunArgs,
    table: &OpTable,
    misses: &[String],
) -> Vec<(String, Json)> {
    vec![
        ("workload".into(), Json::str(W::NAME)),
        ("backend".into(), Json::str(backend_note(W::BACKEND))),
        ("load".into(), Json::str("closed loop, one driver thread stepping both ranks")),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("op_table_hash".into(), Json::str(format!("{:016x}", table.hash()))),
        ("seconds".into(), Json::Num(args.seconds)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("misses".into(), Json::Arr(misses.iter().map(Json::str).collect())),
    ]
}

/// Untraced pass: cold set-ups timed on their own, then warm-up and the
/// timed phase, compiled with no tracing code at all.
fn end_to_end<W: Workload>(args: &RunArgs) -> RunOutput {
    let clock = Clock::default();
    let table = OpTable::new(args.seed);
    let (reps, warm_s) =
        if args.smoke { (3, 0.5) } else { (spec::SETUP_REPS, spec::WARMUP_SECONDS) };
    let mut setups = cold_setups(args, reps);
    let reps = setups.len();
    let setup_s = median(&mut setups);

    let mut w = W::setup(&table, clock, &mut NoTrace);
    let mut meter = Meter::new(clock, warm_s, args.seconds);
    w.run(&table, &mut NoTrace, &mut meter);
    let misses = w.verify(&table);
    let tally = w.tally();
    w.teardown(&mut NoTrace);

    let r = meter.rates();
    let values =
        [r.ops_per_s, r.lat_p50_us, r.mbytes_per_s, setup_s, host::peak_rss_mb().unwrap_or(0.0)];
    let failed = tally.failed + misses.len() as u64;
    let mut info = common_info::<W>(args, &table, &misses);
    info.extend([
        ("warmup_s".to_string(), Json::Num(warm_s)),
        ("setup_reps".to_string(), Json::Num(reps as f64)),
        ("credit_stalls".to_string(), Json::Num(tally.stalls as f64)),
        ("timed_phase".to_string(), rates_json(&meter)),
    ]);
    RunOutput {
        correct: failed == 0 && r.timed_ops > 0,
        attempted: tally.attempted.max(1),
        failed,
        metrics: END_TO_END.iter().map(|(m, _)| *m).zip(values).collect(),
        info: Json::Obj(info),
    }
}

/// Time `reps` cold set-ups, each in a fresh child process that does
/// nothing else: the first set-up in a process pays for page faults, thread
/// creation and the allocator's first growth, and later ones in the same
/// process pay for whatever state the allocator was left in, which differs
/// from process to process (repeated in-process set-ups of `mixed_rw_sim`
/// settled at 0.45 ms in some processes and 1.1 ms in others). A child
/// inherits this process's CPU pinning and reports its own elapsed time, so
/// process start-up is not counted.
fn cold_setups(args: &RunArgs, min_reps: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of this executable");
    let started = std::time::Instant::now();
    let mut times = Vec::new();
    // At least `min_reps`; a sim set-up and its process take a few
    // milliseconds, so keep going while the lot stays under a second (up to
    // 101) and the median gets that much steadier.
    while times.len() < min_reps
        || (!args.smoke && times.len() < 101 && started.elapsed().as_secs_f64() < 1.0)
    {
        let out = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .output()
            .expect("spawn set-up probe");
        assert!(out.status.success(), "set-up probe: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        times.push(text.trim().parse().expect("set-up probe prints seconds"));
    }
    times
}

/// One cold set-up and tear-down, timed; what a `--setup-probe` child runs.
pub fn setup_probe(workload: &str, seed: u64) -> Option<f64> {
    fn once<W: Workload>(seed: u64) -> f64 {
        let table = OpTable::new(seed);
        let clock = Clock::default();
        let t0 = clock.now_ns();
        W::setup(&table, clock, &mut NoTrace).teardown(&mut NoTrace);
        (clock.now_ns() - t0) as f64 / 1e9
    }
    dispatch!(workload, once(seed))
}

fn stat_delta(after: &[StatsSnapshot; 2], before: &[StatsSnapshot; 2], name: &str) -> f64 {
    (0..2).map(|r| after[r].get(name).unwrap_or(0) - before[r].get(name).unwrap_or(0)).sum::<u64>()
        as f64
}

fn per_call(s: SpanSum) -> f64 {
    s.ns as f64 / s.calls.max(1) as f64
}

fn per_item(s: SpanSum) -> f64 {
    s.ns as f64 / s.items.max(1) as f64
}

/// Traced pass: the bare-fabric probe, a few traced set-ups, an untraced
/// reference phase, then the traced phase on the same warmed-up cluster.
fn traced<W: Workload>(args: &RunArgs) -> RunOutput {
    let clock = Clock::default();
    let table = OpTable::new(args.seed);
    let fab = fabric_probe::run(W::BACKEND, &table, clock, args.seconds * 0.25);

    let mut setup_log = SpanLog::new(clock);
    for _ in 0..if args.smoke { 1 } else { 3 } {
        W::setup(&table, clock, &mut setup_log).teardown(&mut setup_log);
    }

    let mut w = W::setup(&table, clock, &mut NoTrace);

    // Reference: what the same cluster does with tracing compiled out.
    let ref_s = args.seconds * 0.25;
    let warm_s = (ref_s * 0.2).min(0.5);
    let mut ref_meter = Meter::new(clock, warm_s, ref_s - warm_s);
    let (cpu0, tally0) = (host::cpu_time_us(), w.tally());
    w.run(&table, &mut NoTrace, &mut ref_meter);
    let (cpu1, tally1) = (host::cpu_time_us(), w.tally());
    let reference = ref_meter.rates();

    // Traced: no warm-up of its own, the reference phase was one.
    let mut log = SpanLog::new(clock);
    let (stats0, rt0) = (w.core_stats(), w.rt_stats());
    let mut meter = Meter::new(clock, 0.0, args.seconds * 0.5);
    let t0 = clock.now_ns();
    w.run(&table, &mut log, &mut meter);
    let wall_ns = (clock.now_ns() - t0) as f64;
    let (stats1, rt1, tally2) = (w.core_stats(), w.rt_stats(), w.tally());
    let traced = meter.rates();

    let misses = w.verify(&table);
    w.teardown(&mut NoTrace);
    let trace_path = args.out_dir.join(format!("trace_{}.json", W::NAME));
    let trace_written = log.write_chrome_trace(&trace_path, W::NAME);
    if let Err(e) = &trace_written {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    let sum = |sp: Sp| log.sum(sp);
    let t = tally2.since(&tally1);
    let ops = t.completed.max(1) as f64;
    let posts = POST_CLASSES.iter().map(|(sp, _)| sum(*sp)).fold(SpanSum::default(), |a, b| {
        SpanSum { ns: a.ns + b.ns, calls: a.calls + b.calls, items: a.items + b.items }
    });
    let core_post_ns = per_call(posts);
    let (poll_local_ns, poll_remote_ns) =
        (per_item(sum(Sp::CorePollLocal)), per_item(sum(Sp::CorePollRemote)));
    let (wait_local_ns, wait_remote_ns) =
        (per_call(sum(Sp::CoreWaitLocal)), per_call(sum(Sp::CoreWaitRemote)));
    let core_calls_ns =
        core_post_ns + poll_local_ns + poll_remote_ns + wait_local_ns + wait_remote_ns;
    let (ref_rate, traced_rate) = (reference.ops_per_s, traced.ops_per_s);
    let per_op = |name: &str| stat_delta(&stats1, &stats0, name) / ops;
    let rt_delta = |f: fn(&photon_runtime::runtime::RtStats) -> u64| match (&rt0, &rt1) {
        (Some(a), Some(b)) => (f(b) - f(a)) as f64,
        _ => 0.0,
    };
    let ref_ops = tally1.since(&tally0).completed.max(1) as f64;

    let mut values: Vec<(&str, f64)> = vec![
        ("fabric.write8_post_ns", fab.write8_post_ns),
        ("fabric.write8_poll_ns", fab.write8_poll_ns),
        ("fabric.write8_ops_per_s", fab.write8_ops_per_s),
        ("fabric.write8_rtt_us", fab.write8_rtt_us),
        ("fabric.cqe_per_poll", fab.cqe_per_poll),
        ("fabric.empty_poll_ratio", fab.empty_poll_ratio),
        ("fabric.register_us", fab.register_us),
        ("core.post_ns", core_post_ns),
        ("core.poll_local_ns", poll_local_ns),
        ("core.poll_remote_ns", poll_remote_ns),
        ("core.wait_local_ns", wait_local_ns),
        ("core.wait_remote_ns", wait_remote_ns),
        ("core.completions_per_poll", t.polled as f64 / (t.polls - t.empty_polls).max(1) as f64),
        ("core.empty_poll_ratio", t.empty_polls as f64 / t.polls.max(1) as f64),
        ("core.credit_stall_ratio", t.stalls as f64 / t.post_attempts.max(1) as f64),
        ("core.register_buffer_us", per_call(setup_log.sum(Sp::CoreRegisterBuffer)) / 1e3),
        ("core.puts_eager_per_op", per_op("puts_eager")),
        ("core.puts_direct_per_op", per_op("puts_direct")),
        ("core.gets_per_op", per_op("gets")),
        ("core.sends_per_op", per_op("sends")),
        ("core.credit_returns_per_op", per_op("credit_returns")),
        ("core.probes_per_op", per_op("probes")),
        ("core.stage_copies_avoided_per_op", per_op("stage_copies_avoided")),
        ("core.rx_lock_skips", stat_delta(&stats1, &stats0, "rx_lock_skips")),
        // Derived, not measured: what core's calls cost beyond the bare
        // fabric calls underneath them. 0 where the driver makes no core
        // calls of its own (the runtime workload).
        (
            "core.self_ns_per_op",
            if posts.calls == 0 {
                0.0
            } else {
                core_calls_ns - (fab.write8_post_ns + fab.write8_poll_ns)
            },
        ),
        ("runtime.send_parcel_ns", per_call(sum(Sp::RtSendParcel))),
        ("runtime.flush_ns", per_call(sum(Sp::RtFlush))),
        ("runtime.drain_wait_ns_per_op", sum(Sp::RtDrainWait).ns as f64 / ops),
        ("runtime.batches_sent_per_parcel", rt_delta(|s| s.batches_sent) / ops),
        ("runtime.parcels_failed", rt_delta(|s| s.parcels_failed)),
        ("runtime.boot_ms", per_call(setup_log.sum(Sp::RtBoot)) / 1e6),
        ("runtime.shutdown_ms", per_call(setup_log.sum(Sp::RtShutdown)) / 1e6),
        ("caller.lat_p99_us", reference.lat_p99_us),
        (
            "proc.cpu_us_per_op",
            match (cpu0, cpu1) {
                (Some(a), Some(b)) => (b - a) / ref_ops,
                _ => 0.0,
            },
        ),
        ("trace.overhead_pct", (ref_rate - traced_rate) / ref_rate.max(f64::MIN_POSITIVE) * 100.0),
        ("trace.coverage_pct", log.ns_in_calls() as f64 / wall_ns.max(1.0) * 100.0),
    ];
    values.extend(POST_CLASSES.iter().map(|(sp, metric)| (*metric, per_call(sum(*sp)))));
    let metrics: Vec<(MetricSpec, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            (*m, v.unwrap_or_else(|| panic!("no value computed for {}", m.name)))
        })
        .collect();

    let failed = tally2.failed + misses.len() as u64 + fab.failed + trace_written.is_err() as u64;
    let mut info = common_info::<W>(args, &table, &misses);
    info.extend([
        ("reference_phase".to_string(), rates_json(&ref_meter)),
        ("traced_phase".to_string(), rates_json(&meter)),
        ("traced_ops".to_string(), Json::Num(ops)),
        ("spans_kept".to_string(), Json::Num(log.kept() as f64)),
        ("trace_file".to_string(), Json::str(trace_path.display().to_string())),
        ("fabric_probe_ops".to_string(), Json::Num(fab.ops as f64)),
        (
            "derived".to_string(),
            Json::Arr(vec![Json::str("core.self_ns_per_op"), Json::str("trace.overhead_pct")]),
        ),
    ]);
    RunOutput {
        correct: failed == 0 && t.completed > 0,
        attempted: (tally2.attempted + fab.ops).max(1),
        failed,
        metrics,
        info: Json::Obj(info),
    }
}
