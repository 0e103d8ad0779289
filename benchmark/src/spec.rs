//! The benchmark's fixed parts: workload names and lengths, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repo root states
//! the same tables for the driver; `tests/smoke.rs` checks the two agree.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Timed seconds of the untraced pass when one command runs them all.
    pub seconds: u64,
    pub why: &'static str,
}

/// Run length the driver passes as `--seconds` (`run_seconds` in
/// `BENCHMARK.json`), identical on every commit.
pub const RUN_SECONDS: u64 = 18;
/// Length of the traced pass when one command runs every workload.
pub const TRACED_SECONDS: u64 = 4;
/// Untimed warm-up before the timed phase.
pub const WARMUP_SECONDS: f64 = 2.0;
/// Fewest cold set-ups per run, each in a fresh process; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 15;

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "put8_w16_sim",
        seconds: 18,
        why: "8 B unbatched put at window 16 on sim: per-op cost is everything and core does nearly all of it",
    },
    WorkloadSpec {
        name: "put8_w16_sock",
        seconds: 18,
        why: "the same driver over loopback UDP: fabric::sock does nearly all the work, core under a tenth",
    },
    WorkloadSpec {
        name: "pingpong8_sock",
        seconds: 18,
        why: "window-1 echo over sock: latency, which batching or delayed acks would trade away for message rate",
    },
    WorkloadSpec {
        name: "mixed_rw_sim",
        seconds: 18,
        why: "seeded put/get/fetch-add mix at 8 B, 1 KiB and 64 KiB: reads, atomics and per-byte cost beside the 8 B put",
    },
    WorkloadSpec {
        name: "parcel_gups_sim",
        seconds: 20,
        why: "16 B xor-update parcels through photon-runtime: encode, scheduler hand-off and dispatch, not core, bound it",
    },
];

/// `(spec, bound)`: the share of the parent's median a metric may worsen by
/// before it counts as a regression.
pub const END_TO_END: [(MetricSpec, f64); 5] = [
    (MetricSpec { name: "ops_per_s", unit: "1/s", better: Better::Higher }, 0.15),
    (MetricSpec { name: "lat_p50_us", unit: "us", better: Better::Lower }, 0.20),
    (MetricSpec { name: "goodput_MBps", unit: "MB/s", better: Better::Higher }, 0.15),
    (MetricSpec { name: "setup_s", unit: "s", better: Better::Lower }, 0.25),
    (MetricSpec { name: "rss_mb", unit: "MB", better: Better::Lower }, 0.15),
];

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher }
}

/// Every per-layer metric, reported by every traced run. A metric whose
/// layer the workload does not exercise (say `runtime.*` on a put workload)
/// reads 0.
pub const PER_LAYER: [MetricSpec; 43] = [
    lower("fabric.write8_post_ns", "ns"),
    lower("fabric.write8_poll_ns", "ns"),
    higher("fabric.write8_ops_per_s", "1/s"),
    lower("fabric.write8_rtt_us", "us"),
    higher("fabric.cqe_per_poll", "count"),
    lower("fabric.empty_poll_ratio", "ratio"),
    lower("fabric.register_us", "us"),
    lower("core.post_ns", "ns"),
    lower("core.post_ns.put_8", "ns"),
    lower("core.post_ns.put_1024", "ns"),
    lower("core.post_ns.put_65536", "ns"),
    lower("core.post_ns.get_8", "ns"),
    lower("core.post_ns.get_1024", "ns"),
    lower("core.post_ns.get_65536", "ns"),
    lower("core.post_ns.atomic_8", "ns"),
    lower("core.poll_local_ns", "ns"),
    lower("core.poll_remote_ns", "ns"),
    lower("core.wait_local_ns", "ns"),
    lower("core.wait_remote_ns", "ns"),
    higher("core.completions_per_poll", "count"),
    lower("core.empty_poll_ratio", "ratio"),
    lower("core.credit_stall_ratio", "ratio"),
    lower("core.register_buffer_us", "us"),
    lower("core.puts_eager_per_op", "count"),
    lower("core.puts_direct_per_op", "count"),
    lower("core.gets_per_op", "count"),
    lower("core.sends_per_op", "count"),
    lower("core.credit_returns_per_op", "count"),
    lower("core.probes_per_op", "count"),
    higher("core.stage_copies_avoided_per_op", "count"),
    higher("core.rx_lock_skips", "count"),
    lower("core.self_ns_per_op", "ns"),
    lower("runtime.send_parcel_ns", "ns"),
    lower("runtime.flush_ns", "ns"),
    lower("runtime.drain_wait_ns_per_op", "ns"),
    lower("runtime.batches_sent_per_parcel", "count"),
    lower("runtime.parcels_failed", "count"),
    lower("runtime.boot_ms", "ms"),
    lower("runtime.shutdown_ms", "ms"),
    lower("caller.lat_p99_us", "us"),
    lower("proc.cpu_us_per_op", "us"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage_pct", "%"),
];
