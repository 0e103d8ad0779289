//! `pingpong8_sock`: strict window-1 8-byte PWC ping-pong over loopback
//! UDP (put → `wait_local` → peer `wait_completion_matching(Remote)` →
//! echo), payload echoed and checked.
//!
//! Same layer as `put8_w16_sock`, but for latency instead of rate: delayed
//! or piggybacked acks, `sendmmsg` batching or reactor changes that buy
//! message rate by adding wait show up here as a worse `lat_p50_us`.
//!
//! One op is one verified round trip (ping + echo, 16 payload bytes). The
//! loop reads the clock once per round trip for the segment check anyway,
//! so every round trip is a latency sample, not every sixteenth.

use super::put8::backend_config;
use super::{OpTable, Tally, Workload};
use crate::meter::Meter;
use crate::trace::{Clock, Sp, Tracer};
use photon_core::{BackendKind, Photon, PhotonBuffer, PhotonCluster, ProbeFlags, StatsSnapshot};
use photon_fabric::{NetworkModel, RemoteKey};
use std::sync::Arc;

pub struct PingPong {
    p0: Arc<Photon>,
    p1: Arc<Photon>,
    /// Rank 0: ping source at offset 0, echo landing zone at offset 8.
    b0: PhotonBuffer,
    /// Rank 1: ping landing zone at offset 0, which is also the echo source.
    b1: PhotonBuffer,
    k0: RemoteKey,
    k1: RemoteKey,
    _cluster: PhotonCluster,
    next: u64,
    tally: Tally,
}

impl PingPong {
    /// One round trip; `true` when every call succeeded and the echo
    /// carried the payload back.
    #[inline]
    fn round_trip<T: Tracer>(&mut self, table: &OpTable, tr: &mut T) -> bool {
        let rid = self.next;
        self.next += 1;
        let word = table.word(rid);
        self.b0.write_u64(0, word);
        let (p0, p1, b0, b1, k0, k1) = (&self.p0, &self.p1, &self.b0, &self.b1, &self.k0, &self.k1);

        let ping = tr.call(Sp::CorePostPut8, 0, rid, || {
            p0.put_with_completion(1, b0, 0, 8, k1, 0, rid, rid)
        });
        let ping_local = tr.call(Sp::CoreWaitLocal, 0, rid, || p0.wait_local(rid));
        let ping_seen =
            tr.call(Sp::CoreWaitRemote, 1, rid, || p1.wait_completion_matching(ProbeFlags::Remote));
        let echo = tr.call(Sp::CorePostPut8, 1, rid, || {
            p1.put_with_completion(0, b1, 0, 8, k0, 8, rid, rid)
        });
        let echo_local = tr.call(Sp::CoreWaitLocal, 1, rid, || p1.wait_local(rid));
        let echo_seen =
            tr.call(Sp::CoreWaitRemote, 0, rid, || p0.wait_completion_matching(ProbeFlags::Remote));

        let delivered = |c: &photon_core::Result<photon_core::Completion>| matches!(c, Ok(c) if c.rid == rid && c.is_ok());
        ping.is_ok()
            && ping_local.is_ok()
            && delivered(&ping_seen)
            && echo.is_ok()
            && echo_local.is_ok()
            && delivered(&echo_seen)
            && self.b0.read_u64(8) == word
    }

    fn count(&mut self, ok: bool) {
        self.tally.attempted += 1;
        if ok {
            self.tally.completed += 1;
        } else {
            self.tally.failed += 1;
        }
    }
}

impl Workload for PingPong {
    const NAME: &'static str = "pingpong8_sock";
    const BACKEND: BackendKind = BackendKind::Sock;

    fn setup<T: Tracer>(table: &OpTable, _clock: Clock, tr: &mut T) -> Self {
        let cluster = PhotonCluster::new(2, NetworkModel::ideal(), backend_config(Self::BACKEND));
        let (p0, p1) = (Arc::clone(cluster.rank(0)), Arc::clone(cluster.rank(1)));
        let b0 = tr
            .call(Sp::CoreRegisterBuffer, 0, 0, || p0.register_buffer(16))
            .expect("register rank 0 buffer");
        let b1 = tr
            .call(Sp::CoreRegisterBuffer, 1, 0, || p1.register_buffer(16))
            .expect("register rank 1 buffer");
        let mut w = PingPong {
            k0: b0.descriptor(),
            k1: b1.descriptor(),
            p0,
            p1,
            b0,
            b1,
            _cluster: cluster,
            next: 0,
            tally: Tally::default(),
        };
        // First contact in both directions, so set-up pays both connects.
        let ok = w.round_trip(table, &mut crate::trace::NoTrace);
        w.count(ok);
        w
    }

    fn run<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter) {
        let mut t0 = m.now_ns();
        while m.tick(t0) {
            let rid = self.next;
            let ok = self.round_trip(table, tr);
            let t1 = m.now_ns();
            self.count(ok);
            if ok {
                m.complete(1, 16);
                m.latency(t1 - t0);
                tr.op(rid, t0, t1);
            }
            t0 = t1;
        }
    }

    fn tally(&self) -> Tally {
        self.tally
    }

    fn core_stats(&self) -> [StatsSnapshot; 2] {
        [self.p0.stats(), self.p1.stats()]
    }

    fn verify(&mut self, table: &OpTable) -> Vec<String> {
        // Every round trip was checked as it happened; what is left is the
        // memory the last one should have left behind.
        let mut misses = Vec::new();
        if self.next > 0 {
            let want = table.word(self.next - 1);
            for (name, got) in
                [("rank 1 landing", self.b1.read_u64(0)), ("echo", self.b0.read_u64(8))]
            {
                if got != want {
                    misses.push(format!("{name} holds {got:#x}, last ping carried {want:#x}"));
                }
            }
        }
        misses
    }
}
