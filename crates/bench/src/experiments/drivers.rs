//! Shared measurement drivers used by several experiments.
//!
//! All drivers return **virtual-time** nanoseconds measured on the modeled
//! fabric. Patterns are causal chains, so the results are deterministic for
//! a given configuration.

use photon_core::{PhotonCluster, PhotonConfig, ProbeFlags, PutManyItem, StatsSnapshot};
use photon_fabric::NetworkModel;
use photon_msg::{MsgCluster, MsgConfig};

/// A Photon PWC ping-pong at `size` bytes for `iters` round trips, timed on
/// both clocks: `(wall_ns, virtual_ns)` for the whole exchange. The virtual
/// figure is the modeled fabric's (sim backend); the wall figure is what a
/// sockets-backed `cfg` is measured by.
pub fn photon_pingpong(
    model: NetworkModel,
    cfg: PhotonConfig,
    size: usize,
    iters: usize,
) -> (u64, u64) {
    photon_pingpong_on(&PhotonCluster::new(2, model, cfg), size, iters)
}

/// [`photon_pingpong`] on a cluster the caller built (and can inspect
/// afterwards).
pub fn photon_pingpong_on(c: &PhotonCluster, size: usize, iters: usize) -> (u64, u64) {
    let (p0, p1) = (c.rank(0), c.rank(1));
    let b0 = p0.register_buffer(size.max(8)).unwrap();
    let b1 = p1.register_buffer(size.max(8)).unwrap();
    let d0 = b0.descriptor();
    let d1 = b1.descriptor();
    c.reset_time(); // exclude registration from the latency figure
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..iters as u64 {
                p0.put_with_completion(1, &b0, 0, size, &d1, 0, i, i).unwrap();
                p0.wait_local(i).unwrap();
                p0.wait_completion_matching(ProbeFlags::Remote).unwrap(); // the pong
            }
        });
        s.spawn(|| {
            for i in 0..iters as u64 {
                p1.wait_completion_matching(ProbeFlags::Remote).unwrap(); // the ping
                p1.put_with_completion(0, &b1, 0, size, &d0, 0, i, i).unwrap();
                p1.wait_local(i).unwrap();
            }
        });
    });
    (t0.elapsed().as_nanos() as u64, p0.now().as_nanos())
}

/// Half-round-trip (one-way) modeled latency of [`photon_pingpong`],
/// averaged over `iters` round trips.
pub fn photon_pingpong_ns(
    model: NetworkModel,
    cfg: PhotonConfig,
    size: usize,
    iters: usize,
) -> u64 {
    photon_pingpong(model, cfg, size, iters).1 / (2 * iters as u64)
}

/// Half-round-trip latency of a two-sided send/recv ping-pong.
pub fn msg_pingpong_ns(model: NetworkModel, cfg: MsgConfig, size: usize, iters: usize) -> u64 {
    let c = MsgCluster::new(2, model, cfg);
    let (e0, e1) = (c.rank(0), c.rank(1));
    let payload = vec![0u8; size];
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..iters as u64 {
                e0.send(1, &payload, i).unwrap();
                e0.recv(Some(1), Some(i)).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..iters as u64 {
                e1.recv(Some(0), Some(i)).unwrap();
                e1.send(0, &payload, i).unwrap();
            }
        });
    });
    c.rank(0).now().as_nanos() / (2 * iters as u64)
}

/// Streaming put bandwidth (bytes/s): `count` puts of `size` from rank 0 to
/// rank 1, consumer probing concurrently; time is the consumer's last
/// remote-completion timestamp.
pub fn photon_put_bw(model: NetworkModel, cfg: PhotonConfig, size: usize, count: usize) -> f64 {
    let c = PhotonCluster::new(2, model, cfg);
    let (p0, p1) = (c.rank(0), c.rank(1));
    let b0 = p0.register_buffer(size).unwrap();
    let b1 = p1.register_buffer(size).unwrap();
    let d1 = b1.descriptor();
    c.reset_time();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..count as u64 {
                p0.put_with_completion(1, &b0, 0, size, &d1, 0, i, i).unwrap();
            }
        });
        s.spawn(|| {
            for _ in 0..count {
                p1.wait_completion_matching(ProbeFlags::Remote).unwrap();
            }
        });
    });
    (size * count) as f64 / (p1.now().as_nanos() as f64 / 1e9)
}

/// Streaming get bandwidth (bytes/s): rank 0 pulls `count` blocks of `size`
/// from rank 1.
pub fn photon_get_bw(model: NetworkModel, cfg: PhotonConfig, size: usize, count: usize) -> f64 {
    let c = PhotonCluster::new(2, model, cfg);
    let (p0, p1) = (c.rank(0), c.rank(1));
    let b0 = p0.register_buffer(size).unwrap();
    let b1 = p1.register_buffer(size).unwrap();
    let d1 = b1.descriptor();
    c.reset_time();
    // Window of 16 outstanding gets.
    let window = 16u64;
    for i in 0..count as u64 {
        p0.get_with_completion(1, &b0, 0, size, &d1, 0, i).unwrap();
        if i >= window {
            p0.wait_local(i - window).unwrap();
        }
    }
    for i in count as u64 - window.min(count as u64)..count as u64 {
        p0.wait_local(i).unwrap();
    }
    (size * count) as f64 / (p0.now().as_nanos() as f64 / 1e9)
}

/// Streaming two-sided bandwidth with pre-registered buffers (zero-copy
/// rendezvous for large sizes).
pub fn msg_stream_bw(model: NetworkModel, cfg: MsgConfig, size: usize, count: usize) -> f64 {
    let c = MsgCluster::new(2, model, cfg);
    let (e0, e1) = (c.rank(0), c.rank(1));
    let sbuf = e0.register_buffer(size).unwrap();
    let rbuf = e1.register_buffer(size).unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..count as u64 {
                e0.send_from(1, &sbuf, 0, size, i).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..count as u64 {
                e1.recv_into(&rbuf, 0, size, Some(0), Some(i)).unwrap();
            }
        });
    });
    (size * count) as f64 / (c.rank(1).now().as_nanos() as f64 / 1e9)
}

/// Acked message rate (msgs/s) for 8-byte PWC puts with `window` outstanding
/// un-acked messages.
pub fn photon_msg_rate(model: NetworkModel, cfg: PhotonConfig, window: usize, msgs: usize) -> f64 {
    acked_rate(model, cfg, window, msgs, false).0
}

/// Acked message rate for 8-byte puts posted in doorbell-batched chunks of
/// `window` through `put_many` (acks stay per-item, so the comparison with
/// [`photon_msg_rate`] isolates the TX batching). Also returns the sender's
/// stats snapshot so callers can surface the batch counters.
pub fn photon_msg_rate_batched(
    model: NetworkModel,
    cfg: PhotonConfig,
    window: usize,
    msgs: usize,
) -> (f64, StatsSnapshot) {
    acked_rate(model, cfg, window, msgs, true)
}

/// Both acked-rate drivers as one single-thread stepper, so every post and
/// probe happens in a fixed order and virtual time does not depend on how
/// the OS schedules two threads (on a multi-core host the threaded form
/// measured the scheduler: E3's unbatched column sagged to ~1.4 Mmsg/s and
/// moved between runs). Each rank in turn runs until it would block —
/// rank 0 posts what the window allows and reaps acks, refilling after
/// each; rank 1 acks each notification with a 0-byte put on the eager path
/// — which is the interleaving a one-core host gives the threaded form, the
/// one EXPERIMENTS.md's E3 numbers were recorded under. Unbatched refills
/// one put per reaped ack; batched posts a whole window as one `put_many`
/// once the previous window is fully acked.
fn acked_rate(
    model: NetworkModel,
    cfg: PhotonConfig,
    window: usize,
    msgs: usize,
    batched: bool,
) -> (f64, StatsSnapshot) {
    let c = PhotonCluster::new(2, model, cfg);
    let (p0, p1) = (c.rank(0), c.rank(1));
    let b0 = p0.register_buffer(8).unwrap();
    let b1 = p1.register_buffer(8).unwrap();
    let d1 = b1.descriptor();
    let d0 = b0.descriptor();
    c.reset_time();
    let (window, msgs) = (window as u64, msgs as u64);
    let (mut sent, mut acked) = (0u64, 0u64);
    // Rank 1's side: notifications seen, acks it managed to post.
    let (mut seen, mut ack_sent) = (0u64, 0u64);
    while acked < msgs {
        loop {
            if batched && sent == acked {
                let items: Vec<PutManyItem> = (sent..msgs.min(sent + window))
                    .map(|rid| PutManyItem {
                        loff: 0,
                        len: 8,
                        doff: 0,
                        local_rid: rid,
                        remote_rid: rid,
                    })
                    .collect();
                sent += p0.try_put_many(1, &b0, &d1, &items).unwrap() as u64;
            }
            while !batched
                && sent < msgs.min(acked + window)
                && p0.try_put_with_completion(1, &b0, 0, 8, &d1, 0, sent, sent).unwrap()
            {
                sent += 1;
            }
            if p0.poll_completion(ProbeFlags::Remote).unwrap().is_none() {
                break;
            }
            acked += 1;
        }
        // An ack that finds no ring credit is retried on the next turn,
        // after rank 0 has probed.
        loop {
            if ack_sent == seen {
                match p1.poll_completion(ProbeFlags::Remote).unwrap() {
                    Some(_) => seen += 1,
                    None => break,
                }
            }
            if !p1.try_put_with_completion(0, &b1, 0, 0, &d0, 0, ack_sent, ack_sent).unwrap() {
                break;
            }
            ack_sent += 1;
        }
    }
    (msgs as f64 / (p0.now().as_nanos() as f64 / 1e9), p0.stats())
}

/// Acked message rate for the two-sided baseline (8-byte sends, tag-matched
/// acks, `window` outstanding).
pub fn msg_msg_rate(model: NetworkModel, cfg: MsgConfig, window: usize, msgs: usize) -> f64 {
    let c = MsgCluster::new(2, model, cfg);
    let (e0, e1) = (c.rank(0), c.rank(1));
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut sent = 0u64;
            let mut acked = 0u64;
            while sent < window.min(msgs) as u64 {
                e0.send(1, &[0u8; 8], sent).unwrap();
                sent += 1;
            }
            while acked < msgs as u64 {
                e0.recv(Some(1), Some(acked)).unwrap();
                acked += 1;
                if sent < msgs as u64 {
                    e0.send(1, &[0u8; 8], sent).unwrap();
                    sent += 1;
                }
            }
        });
        s.spawn(|| {
            for i in 0..msgs as u64 {
                e1.recv(Some(0), Some(i)).unwrap();
                e1.send(0, &[], i).unwrap();
            }
        });
    });
    msgs as f64 / (c.rank(0).now().as_nanos() as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_latency_in_model_ballpark() {
        let m = NetworkModel::ib_fdr();
        let lat = photon_pingpong_ns(m, PhotonConfig::default(), 8, 10);
        // One-way for 8B is >= o + L and well under 5 us on modeled FDR.
        assert!(lat >= m.send_overhead_ns + m.latency_ns, "{lat}");
        assert!(lat < 5_000, "{lat}");
        let msg_lat = msg_pingpong_ns(m, MsgConfig::default(), 8, 10);
        assert!(msg_lat >= lat, "two-sided ({msg_lat}) >= one-sided ({lat})");
    }

    #[test]
    fn put_bandwidth_approaches_line_rate() {
        let m = NetworkModel::ib_fdr();
        let bw = photon_put_bw(m, PhotonConfig::default(), 1 << 20, 32);
        let line = m.bandwidth_bytes_per_sec() as f64;
        assert!(bw > 0.8 * line, "bw {bw} vs line {line}");
        assert!(bw <= 1.05 * line);
    }

    #[test]
    fn message_rate_grows_with_window() {
        let m = NetworkModel::ib_fdr();
        let r1 = photon_msg_rate(m, PhotonConfig::default(), 1, 200);
        let r64 = photon_msg_rate(m, PhotonConfig::default(), 64, 2000);
        assert!(r64 > 3.0 * r1, "window must lift rate: {r1} -> {r64}");
    }
}
