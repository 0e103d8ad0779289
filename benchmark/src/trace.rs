//! Spans around the calls the harness makes into each layer.
//!
//! Nothing inside `crates/` is instrumented: a span is a pair of clock
//! reads in the benchmark's own code around one call of a layer's public
//! function. Drivers are generic over [`Tracer`], so the untraced run is
//! compiled with [`NoTrace`] and carries no clock reads, branches or stores
//! for tracing at all; the traced run uses [`SpanLog`].

use crate::json::Json;
use std::io::Write as _;
use std::time::Instant;

/// Nanoseconds since the harness started; one clock for spans, segments
/// and latency samples so they line up in the trace.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Default for Clock {
    fn default() -> Self {
        Clock(Instant::now())
    }
}

impl Clock {
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Every call site the harness wraps. The discriminant indexes the sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Sp {
    /// Root span of one sampled op: post start → last completion observed.
    Op,
    FabricPostSend,
    FabricPollSendCq,
    CorePostPut8,
    CorePostPut1024,
    CorePostPut65536,
    CorePostGet8,
    CorePostGet1024,
    CorePostGet65536,
    CorePostAtomic8,
    CorePollLocal,
    CorePollRemote,
    CoreWaitLocal,
    CoreWaitRemote,
    CoreRegisterBuffer,
    RtSendParcel,
    RtFlush,
    RtDrainWait,
    RtBoot,
    RtShutdown,
}

const SPAN_KINDS: usize = Sp::RtShutdown as usize + 1;

/// The seven post spans with the per-layer metric each one feeds, in
/// `workloads::Class` order.
pub const POST_CLASSES: [(Sp, &str); 7] = [
    (Sp::CorePostPut8, "core.post_ns.put_8"),
    (Sp::CorePostPut1024, "core.post_ns.put_1024"),
    (Sp::CorePostPut65536, "core.post_ns.put_65536"),
    (Sp::CorePostGet8, "core.post_ns.get_8"),
    (Sp::CorePostGet1024, "core.post_ns.get_1024"),
    (Sp::CorePostGet65536, "core.post_ns.get_65536"),
    (Sp::CorePostAtomic8, "core.post_ns.atomic_8"),
];

impl Sp {
    /// `(layer, function)` as shown in the trace viewer.
    pub fn label(self) -> (&'static str, &'static str) {
        match self {
            Sp::Op => ("caller", "op"),
            Sp::FabricPostSend => ("fabric", "post_send"),
            Sp::FabricPollSendCq => ("fabric", "poll_send_cq_into"),
            Sp::CorePostPut8 => ("core", "try_put_with_completion[8]"),
            Sp::CorePostPut1024 => ("core", "try_put_with_completion[1024]"),
            Sp::CorePostPut65536 => ("core", "try_put_with_completion[65536]"),
            Sp::CorePostGet8 => ("core", "get_with_completion[8]"),
            Sp::CorePostGet1024 => ("core", "get_with_completion[1024]"),
            Sp::CorePostGet65536 => ("core", "get_with_completion[65536]"),
            Sp::CorePostAtomic8 => ("core", "atomic_fetch_add"),
            Sp::CorePollLocal => ("core", "poll_completions[Local]"),
            Sp::CorePollRemote => ("core", "poll_completions[Remote]"),
            Sp::CoreWaitLocal => ("core", "wait_local"),
            Sp::CoreWaitRemote => ("core", "wait_completion_matching[Remote]"),
            Sp::CoreRegisterBuffer => ("core", "register_buffer"),
            Sp::RtSendParcel => ("runtime", "send_parcel"),
            Sp::RtFlush => ("runtime", "flush_parcels"),
            Sp::RtDrainWait => ("runtime", "drain_wait"),
            Sp::RtBoot => ("runtime", "RuntimeCluster::new"),
            Sp::RtShutdown => ("runtime", "shutdown"),
        }
    }
}

pub trait Tracer {
    /// Wrap one call. `rank` is the rank being stepped, `rid` the op the
    /// call belongs to (its root span's key).
    fn call<R>(&mut self, sp: Sp, rank: u8, rid: u64, f: impl FnOnce() -> R) -> R;

    /// Wrap a batch call that returns how many items it handled; the span
    /// records that `n` so its time can be attributed time ÷ n.
    fn call_n(&mut self, sp: Sp, rank: u8, f: impl FnOnce() -> usize) -> usize;

    /// Record the root span of a sampled op from timestamps the driver
    /// already took for its latency sample.
    fn op(&mut self, rid: u64, start_ns: u64, end_ns: u64);
}

/// The untraced run: every method is the bare call.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn call<R>(&mut self, _: Sp, _: u8, _: u64, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn call_n(&mut self, _: Sp, _: u8, f: impl FnOnce() -> usize) -> usize {
        f()
    }

    #[inline(always)]
    fn op(&mut self, _: u64, _: u64, _: u64) {}
}

#[derive(Debug, Clone, Copy)]
struct Span {
    sp: Sp,
    rank: u8,
    n: u32,
    rid: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// Totals of one span kind over the whole run (kept spans or not).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSum {
    pub ns: u64,
    pub calls: u64,
    /// Items handled by batch calls (equals `calls` for plain calls).
    pub items: u64,
}

/// The first spans of a run are kept for the trace file; sums cover all.
pub const KEPT_SPANS: usize = 200_000;

#[derive(Debug)]
pub struct SpanLog {
    clock: Clock,
    spans: Vec<Span>,
    sums: [SpanSum; SPAN_KINDS],
}

impl SpanLog {
    pub fn new(clock: Clock) -> SpanLog {
        SpanLog {
            clock,
            spans: Vec::with_capacity(KEPT_SPANS),
            sums: [SpanSum::default(); SPAN_KINDS],
        }
    }

    pub fn sum(&self, sp: Sp) -> SpanSum {
        self.sums[sp as usize]
    }

    /// Time inside every wrapped call (root spans of ops excluded: they
    /// overlap the calls made on the op's behalf).
    pub fn ns_in_calls(&self) -> u64 {
        self.sums.iter().skip(Sp::Op as usize + 1).map(|s| s.ns).sum()
    }

    /// Spans held for the trace file (at most [`KEPT_SPANS`]).
    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    #[inline]
    fn push(&mut self, sp: Sp, rank: u8, rid: u64, n: usize, start_ns: u64, end_ns: u64) {
        let dur_ns = end_ns.saturating_sub(start_ns);
        let s = &mut self.sums[sp as usize];
        s.ns += dur_ns;
        s.calls += 1;
        s.items += n as u64;
        if self.spans.len() < KEPT_SPANS {
            self.spans.push(Span { sp, rank, n: n as u32, rid, start_ns, dur_ns });
        }
    }

    /// Write the kept spans as Chrome `trace_event` JSON (load it in
    /// `chrome://tracing` or Perfetto). Calls are complete events on the
    /// thread of the rank they stepped; each sampled op is an async
    /// begin/end pair keyed by its rid, which is also the `rid` argument of
    /// the calls made on its behalf.
    pub fn write_chrome_trace(
        &self,
        path: &std::path::Path,
        workload: &str,
    ) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |ns: u64| ns as f64 / 1000.0;
        let workload = Json::str(workload).render();
        writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":{workload}}},")?;
        write!(w, "\"traceEvents\":[")?;
        for rank in 0..2 {
            let sep = if rank == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{rank},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"driver stepping rank {rank}\"}}}}"
            )?;
        }
        for s in &self.spans {
            let (layer, func) = s.sp.label();
            if s.sp == Sp::Op {
                write!(
                    w,
                    ",\n{{\"ph\":\"b\",\"cat\":\"op\",\"name\":\"op\",\"id\":{rid},\"pid\":1,\"tid\":0,\"ts\":{ts}}},\n\
                     {{\"ph\":\"e\",\"cat\":\"op\",\"name\":\"op\",\"id\":{rid},\"pid\":1,\"tid\":0,\"ts\":{te}}}",
                    rid = s.rid,
                    ts = us(s.start_ns),
                    te = us(s.start_ns + s.dur_ns),
                )?;
            } else {
                write!(
                    w,
                    ",\n{{\"ph\":\"X\",\"cat\":\"{layer}\",\"name\":\"{layer}.{func}\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{ts},\"dur\":{dur},\"args\":{{\"rid\":{rid},\"n\":{n}}}}}",
                    tid = s.rank,
                    ts = us(s.start_ns),
                    dur = us(s.dur_ns),
                    rid = s.rid,
                    n = s.n,
                )?;
            }
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn call<R>(&mut self, sp: Sp, rank: u8, rid: u64, f: impl FnOnce() -> R) -> R {
        let t0 = self.clock.now_ns();
        let r = f();
        let t1 = self.clock.now_ns();
        self.push(sp, rank, rid, 1, t0, t1);
        r
    }

    #[inline]
    fn call_n(&mut self, sp: Sp, rank: u8, f: impl FnOnce() -> usize) -> usize {
        let t0 = self.clock.now_ns();
        let n = f();
        let t1 = self.clock.now_ns();
        self.push(sp, rank, 0, n, t0, t1);
        n
    }

    #[inline]
    fn op(&mut self, rid: u64, start_ns: u64, end_ns: u64) {
        self.push(Sp::Op, 0, rid, 1, start_ns, end_ns);
    }
}
