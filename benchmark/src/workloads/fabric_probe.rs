//! Bare-backend probe: 8-byte RDMA-write work requests posted straight at
//! `&dyn FabricBackend`, the way `crates/fabric/tests/conformance.rs`
//! drives it, on whichever backend the workload runs over.
//!
//! It is what `core` sits on: `core.self_ns_per_op` is core's per-op time
//! minus this layer's, and the `fabric.*` metrics say whether a change in
//! an end-to-end number on a `_sock` workload started below `core`.

use super::{OpTable, WINDOW};
use crate::hist::LogHist;
use crate::meter::median;
use crate::trace::{Clock, NoTrace, Sp, SpanLog, Tracer};
use photon_core::BackendKind;
use photon_fabric::api::{
    Access, Completion, FabricBackend, MemoryRegion, MrSlice, RemoteSlice, SendWr, VTime, WrOp,
};
use photon_fabric::sock::SockCluster;
use photon_fabric::{Cluster, NetworkModel, Qp};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, Default)]
pub struct FabricMetrics {
    pub write8_post_ns: f64,
    pub write8_poll_ns: f64,
    pub write8_ops_per_s: f64,
    pub write8_rtt_us: f64,
    pub cqe_per_poll: f64,
    pub empty_poll_ratio: f64,
    pub register_us: f64,
    pub ops: u64,
    pub failed: u64,
}

struct Probe {
    a: Arc<dyn FabricBackend>,
    src: MemoryRegion,
    dst: MemoryRegion,
    qp: Qp,
    cqes: Vec<Completion>,
    next: u64,
    done: u64,
    polls: u64,
    empty_polls: u64,
    failed: u64,
    // Keeps the fabric (and the sock reactors) alive; dropped last.
    _owner: Box<dyn std::any::Any>,
}

impl Probe {
    fn new(backend: BackendKind) -> Probe {
        let (owner, a, b): (
            Box<dyn std::any::Any>,
            Arc<dyn FabricBackend>,
            Arc<dyn FabricBackend>,
        ) = match backend {
            BackendKind::Sim => {
                let c = Cluster::new(2, NetworkModel::ideal());
                let (a, b) = (Arc::clone(c.nic(0)) as _, Arc::clone(c.nic(1)) as _);
                (Box::new(c), a, b)
            }
            BackendKind::Sock => {
                let c = SockCluster::new(2).expect("bind sockets cluster");
                let (a, b) = (Arc::clone(c.nic(0)) as _, Arc::clone(c.nic(1)) as _);
                (Box::new(c), a, b)
            }
        };
        let src = a.register(WINDOW * 8, Access::ALL).expect("register probe source");
        let dst = b.register(WINDOW * 8, Access::ALL).expect("register probe destination");
        let qp = a.create_qp(1).expect("create probe qp");
        Probe {
            a,
            src,
            dst,
            qp,
            cqes: Vec::with_capacity(WINDOW),
            next: 0,
            done: 0,
            polls: 0,
            empty_polls: 0,
            failed: 0,
            _owner: owner,
        }
    }

    /// Post while fewer than `window` writes are in flight (and `posting`),
    /// then poll the send CQ once.
    #[inline]
    fn step<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, window: u64, posting: bool) {
        while posting && self.next - self.done < window {
            let id = self.next;
            let off = (id as usize % WINDOW) * 8;
            self.src.write_u64(off, table.word(id));
            let wr = SendWr::new(
                id,
                WrOp::Write {
                    local: MrSlice::new(&self.src, off, 8),
                    remote: RemoteSlice::from_key(&self.dst.remote_key(), off, 8),
                    imm: None,
                },
            );
            let (a, qp) = (&self.a, self.qp);
            if let Err(e) = tr.call(Sp::FabricPostSend, 0, id, || a.post_send(qp, wr, VTime(0))) {
                panic!("fabric probe: post_send failed: {e}");
            }
            self.next += 1;
        }
        self.cqes.clear();
        let (a, cqes) = (&self.a, &mut self.cqes);
        let n = tr.call_n(Sp::FabricPollSendCq, 0, || a.poll_send_cq_into(WINDOW, cqes));
        self.polls += 1;
        if n == 0 {
            self.empty_polls += 1;
            // As the conformance suite's wait loops do: a bare spin on the
            // CQ lock would starve the sock reactor that fills the CQ.
            std::hint::spin_loop();
        }
        for c in &self.cqes {
            // RC order: completions retire in posting order.
            self.failed += (c.wr_id != self.done || !c.status.is_ok()) as u64;
            self.done += 1;
        }
    }

    fn run_for<T: Tracer>(
        &mut self,
        table: &OpTable,
        tr: &mut T,
        clock: Clock,
        ns: u64,
        window: u64,
    ) {
        let end = clock.now_ns() + ns;
        while clock.now_ns() < end {
            self.step(table, tr, window, true);
        }
        let deadline = clock.now_ns() + 10_000_000_000;
        while self.done < self.next && clock.now_ns() < deadline {
            self.step(table, tr, window, false);
        }
        self.failed += self.next - self.done;
    }
}

/// Run the probe for about `seconds` in all: a plain window-16 pass for the
/// rate and poll ratios, a span-timed window-16 pass for time per call, and
/// a window-1 pass for the round trip.
pub fn run(backend: BackendKind, table: &OpTable, clock: Clock, seconds: f64) -> FabricMetrics {
    let mut p = Probe::new(backend);
    let phase_ns = (seconds * 1e9 / 3.0) as u64;
    let mut out = FabricMetrics::default();

    // Registration: 64 KiB, a fresh region each time.
    let mut reg_us: Vec<f64> = (0..32)
        .map(|_| {
            let t0 = clock.now_ns();
            let mr = p.a.register(65_536, Access::ALL).expect("register 64 KiB");
            let dt = clock.now_ns() - t0;
            p.a.mrs().deregister(&mr).expect("deregister");
            dt as f64 / 1000.0
        })
        .collect();
    out.register_us = median(&mut reg_us);

    // Warm the path (first datagrams, first CQ pages), then count.
    p.run_for(table, &mut NoTrace, clock, phase_ns / 4, WINDOW as u64);
    let (t0, done0, polls0, empty0) = (clock.now_ns(), p.done, p.polls, p.empty_polls);
    p.run_for(table, &mut NoTrace, clock, phase_ns, WINDOW as u64);
    let (dt, ops, polls) = (clock.now_ns() - t0, p.done - done0, p.polls - polls0);
    let empty = p.empty_polls - empty0;
    out.write8_ops_per_s = ops as f64 / (dt as f64 / 1e9);
    out.cqe_per_poll = ops as f64 / (polls - empty).max(1) as f64;
    out.empty_poll_ratio = empty as f64 / polls.max(1) as f64;

    let mut log = SpanLog::new(clock);
    let done0 = p.done;
    p.run_for(table, &mut log, clock, phase_ns, WINDOW as u64);
    let ops = (p.done - done0).max(1) as f64;
    out.write8_post_ns = log.sum(Sp::FabricPostSend).ns as f64 / ops;
    out.write8_poll_ns = log.sum(Sp::FabricPollSendCq).ns as f64 / ops;

    // Window 1: post, spin on the CQ until it retires, repeat.
    let mut rtt = LogHist::default();
    let end = clock.now_ns() + phase_ns;
    let mut t_post = clock.now_ns();
    while t_post < end {
        let before = p.done;
        p.step(table, &mut NoTrace, 1, true);
        while p.done == before {
            p.step(table, &mut NoTrace, 1, false);
            if clock.now_ns() - t_post > 10_000_000_000 {
                p.failed += 1;
                break;
            }
        }
        let now = clock.now_ns();
        rtt.record(now - t_post);
        t_post = now;
    }
    out.write8_rtt_us = rtt.quantile_ns(0.5).unwrap_or(0.0) / 1000.0;

    // The destination holds the last word written to each slot.
    for slot in 0..(WINDOW as u64).min(p.done) {
        let last = (p.done - 1 - slot) / WINDOW as u64 * WINDOW as u64 + slot;
        p.failed += (p.dst.read_u64(slot as usize * 8) != table.word(last)) as u64;
    }
    out.ops = p.done;
    out.failed = p.failed;
    out
}
