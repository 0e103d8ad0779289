//! The legacy Photon rendezvous protocol.
//!
//! Before PWC, Photon's API revolved around explicit buffer exchange: the
//! receiver *posts* a registered buffer toward a sender
//! ([`Photon::post_recv_buffer`]), the sender waits for the descriptor
//! ([`Photon::wait_send_buffer`]), RDMA-writes the payload straight into it,
//! and posts a FIN ([`Photon::send_fin`]) which the receiver waits on
//! ([`Photon::wait_fin`]).  This is the zero-copy large-message path: no
//! intermediate buffers, one descriptor exchange, one data write, one FIN.
//!
//! Descriptors and FINs travel through the completion ledgers as `RdvPost`
//! and `Fin` entries keyed by a user-chosen `tag`.  One (peer, tag) pair may
//! be in flight at a time in each direction — the same discipline the
//! original API imposes.
//!
//! ```
//! use photon_core::{PhotonCluster, PhotonConfig};
//! use photon_fabric::NetworkModel;
//!
//! let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
//! let (p0, p1) = (c.rank(0).clone(), c.rank(1).clone());
//! let len = 256 * 1024;
//! let sbuf = p0.register_buffer(len).unwrap();
//! sbuf.fill(0x7E);
//! let t = std::thread::spawn(move || {
//!     let rbuf = p1.register_buffer(len).unwrap();
//!     p1.recv_rendezvous(0, &rbuf, 0, len, /*tag=*/ 1).unwrap();
//!     assert_eq!(rbuf.to_vec(0, 4), vec![0x7E; 4]);
//! });
//! p0.send_rendezvous(1, &sbuf, 0, len, 1).unwrap();
//! t.join().unwrap();
//! ```

use crate::buffers::{BufferDescriptor, PhotonBuffer};
use crate::ledger::EntryKind;
use crate::obs::Stats;
use crate::tx::EntrySpec;
use crate::{Photon, PhotonError, Rank, Result};
use photon_fabric::VTime;

/// Control entry announcing `d` as the landing zone for `tag`.
fn rdv_post(tag: u64, d: &BufferDescriptor) -> EntrySpec {
    EntrySpec { kind: EntryKind::RdvPost, rid: tag, size: d.len as u64, addr: d.addr, rkey: d.rkey }
}

/// Control entry telling the peer the transfer tagged `tag` is complete.
fn fin(tag: u64) -> EntrySpec {
    EntrySpec::plain(EntryKind::Fin, tag, 0)
}

impl Photon {
    /// Announce `buf[off..off+len]` to `peer` as the landing zone for the
    /// transfer tagged `tag`. Blocks only on ledger credits.
    pub fn post_recv_buffer(
        &self,
        peer: Rank,
        buf: &PhotonBuffer,
        off: usize,
        len: usize,
        tag: u64,
    ) -> Result<()> {
        buf.check(off, len)?;
        let post = rdv_post(tag, &buf.descriptor_at(off, len)?);
        Stats::bump(&self.stats.rendezvous_ops);
        self.post_entry_run("rendezvous post credits", peer, &[post])
    }

    /// Non-blocking [`Photon::post_recv_buffer`]: `Ok(false)` when the
    /// control ledger toward `peer` is out of credits (retry after the peer
    /// probes). Single-threaded steppers use this to announce buffers
    /// without spinning.
    pub fn try_post_recv_buffer(
        &self,
        peer: Rank,
        buf: &PhotonBuffer,
        off: usize,
        len: usize,
        tag: u64,
    ) -> Result<bool> {
        buf.check(off, len)?;
        let post = rdv_post(tag, &buf.descriptor_at(off, len)?);
        let posted = self.try_post_entry_run(peer, &[post])? == 1;
        if posted {
            Stats::bump(&self.stats.rendezvous_ops);
        }
        Ok(posted)
    }

    /// Wait for `peer` to announce a receive buffer for `tag`; returns its
    /// descriptor. Fails with [`PhotonError::PeerDead`] instead of hanging
    /// if `peer` crashes or is evicted while the wait is pending (each spin
    /// runs the health gate, so a partitioned peer is probed with backoff
    /// and either heals or exhausts its probe budget).
    pub fn wait_send_buffer(&self, peer: Rank, tag: u64) -> Result<BufferDescriptor> {
        self.check_rank(peer)?;
        let (desc, ts) = self.blocking("rendezvous buffer announce", |s| {
            if let Some(got) = s.rdv_announces.lock().remove(&(peer, tag)) {
                return Ok(Some(got));
            }
            s.peer_gate(peer)?;
            Ok(None)
        })?;
        self.clock.advance_to(ts);
        Ok(desc)
    }

    /// Non-blocking [`Photon::wait_send_buffer`]: drives progress once and
    /// returns `Ok(None)` when `peer` has not yet announced a buffer for
    /// `tag`. Single-threaded steppers (the simulation-test executor) use
    /// this instead of the spinning wait.
    pub fn try_wait_send_buffer(&self, peer: Rank, tag: u64) -> Result<Option<BufferDescriptor>> {
        self.check_rank(peer)?;
        self.progress()?;
        let got = self.rdv_announces.lock().remove(&(peer, tag));
        Ok(got.map(|(desc, ts)| {
            self.clock.advance_to(ts);
            desc
        }))
    }

    /// Doorbell-batched [`Photon::post_recv_buffer`]: announce every
    /// `(tag, descriptor)` pair to `peer` in one call, coalescing the
    /// control entries of contiguous ledger slots into single wire writes
    /// (runtimes pre-posting a window of landing zones pay one doorbell
    /// for the window instead of one per buffer). Blocks on ledger credits.
    pub fn post_recv_buffers(&self, peer: Rank, posts: &[(u64, BufferDescriptor)]) -> Result<()> {
        self.check_rank(peer)?;
        let specs: Vec<EntrySpec> = posts.iter().map(|(tag, d)| rdv_post(*tag, d)).collect();
        self.post_entry_run("rendezvous batch post credits", peer, &specs)?;
        Stats::add(&self.stats.rendezvous_ops, posts.len() as u64);
        Ok(())
    }

    /// Doorbell-batched [`Photon::send_fin`]: post a FIN for every tag in
    /// `tags` toward `peer`, coalescing contiguous control entries into
    /// single wire writes. Blocks on ledger credits.
    pub fn send_fins(&self, peer: Rank, tags: &[u64]) -> Result<()> {
        self.check_rank(peer)?;
        let specs: Vec<EntrySpec> = tags.iter().map(|&tag| fin(tag)).collect();
        self.post_entry_run("fin batch credits", peer, &specs)?;
        Stats::add(&self.stats.rendezvous_ops, tags.len() as u64);
        Ok(())
    }

    /// Tell `peer` the put into its announced buffer for `tag` is complete.
    pub fn send_fin(&self, peer: Rank, tag: u64) -> Result<()> {
        Stats::bump(&self.stats.rendezvous_ops);
        self.post_entry_run("fin credits", peer, &[fin(tag)])
    }

    /// Non-blocking [`Photon::send_fin`]: `Ok(false)` when the control
    /// ledger toward `peer` is out of credits.
    pub fn try_send_fin(&self, peer: Rank, tag: u64) -> Result<bool> {
        let posted = self.try_post_entry_run(peer, &[fin(tag)])? == 1;
        if posted {
            Stats::bump(&self.stats.rendezvous_ops);
        }
        Ok(posted)
    }

    /// Wait for `peer`'s FIN for `tag`; returns its virtual arrival time.
    /// Fails with [`PhotonError::PeerDead`] instead of hanging if `peer`
    /// crashes or is evicted mid-transfer.
    pub fn wait_fin(&self, peer: Rank, tag: u64) -> Result<VTime> {
        self.check_rank(peer)?;
        let ts = self.blocking("fin", |s| {
            if let Some(ts) = s.rdv_fins.lock().remove(&(peer, tag)) {
                return Ok(Some(ts));
            }
            s.peer_gate(peer)?;
            Ok(None)
        })?;
        self.clock.advance_to(ts);
        Ok(ts)
    }

    /// Non-blocking [`Photon::wait_fin`]: drives progress once and returns
    /// `Ok(None)` when `peer`'s FIN for `tag` has not yet arrived.
    pub fn try_wait_fin(&self, peer: Rank, tag: u64) -> Result<Option<VTime>> {
        self.check_rank(peer)?;
        self.progress()?;
        let got = self.rdv_fins.lock().remove(&(peer, tag));
        Ok(got.inspect(|&ts| {
            self.clock.advance_to(ts);
        }))
    }

    /// Full sender side of a rendezvous transfer: wait for the buffer
    /// announce, RDMA-write `buf[off..off+len]` into it, wait for local
    /// injection, and post the FIN.
    pub fn send_rendezvous(
        &self,
        peer: Rank,
        buf: &PhotonBuffer,
        off: usize,
        len: usize,
        tag: u64,
    ) -> Result<()> {
        let d = self.wait_send_buffer(peer, tag)?;
        if len > d.len {
            return Err(PhotonError::OutOfRange { offset: 0, len, cap: d.len });
        }
        let lrid = self.internal_rid();
        self.put(peer, buf, off, len, &d, 0, lrid)?;
        self.wait_local(lrid)?;
        self.send_fin(peer, tag)
    }

    /// Full receiver side: announce `buf[off..off+len]` and wait for the
    /// FIN. On return the payload is in place.
    pub fn recv_rendezvous(
        &self,
        peer: Rank,
        buf: &PhotonBuffer,
        off: usize,
        len: usize,
        tag: u64,
    ) -> Result<()> {
        self.post_recv_buffer(peer, buf, off, len, tag)?;
        self.wait_fin(peer, tag)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhotonCluster, PhotonConfig};
    use photon_fabric::NetworkModel;

    fn pair() -> PhotonCluster {
        PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default())
    }

    #[test]
    fn rendezvous_transfer_end_to_end() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let len = 1 << 20;
        let sbuf = p0.register_buffer(len).unwrap();
        let rbuf = p1.register_buffer(len).unwrap();
        sbuf.fill(0x5A);
        std::thread::scope(|s| {
            s.spawn(|| p0.send_rendezvous(1, &sbuf, 0, len, 42).unwrap());
            s.spawn(|| p1.recv_rendezvous(0, &rbuf, 0, len, 42).unwrap());
        });
        assert_eq!(rbuf.to_vec(0, len), vec![0x5A; len]);
        assert!(p0.stats().rendezvous_ops > 0);
        // The receiver's clock reflects the large transfer: at least the
        // serialization time of 1 MiB at 7 GB/s.
        assert!(p1.now().as_nanos() > 140_000);
    }

    #[test]
    fn rendezvous_steps_explicit() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let rbuf = p1.register_buffer(64).unwrap();
        p1.post_recv_buffer(0, &rbuf, 16, 32, 7).unwrap();
        let d = p0.wait_send_buffer(1, 7).unwrap();
        assert_eq!(d.len, 32);
        assert_eq!(d.addr, rbuf.descriptor().addr + 16);
        let sbuf = p0.register_buffer(32).unwrap();
        sbuf.write_at(0, b"explicit rendezvous steps work!!");
        let rid = p0.internal_rid();
        p0.put(1, &sbuf, 0, 32, &d, 0, rid).unwrap();
        p0.wait_local(rid).unwrap();
        p0.send_fin(1, 7).unwrap();
        p1.wait_fin(0, 7).unwrap();
        assert_eq!(rbuf.to_vec(16, 32), b"explicit rendezvous steps work!!");
    }

    #[test]
    fn distinct_tags_do_not_cross() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let r1 = p1.register_buffer(8).unwrap();
        let r2 = p1.register_buffer(8).unwrap();
        p1.post_recv_buffer(0, &r1, 0, 8, 1).unwrap();
        p1.post_recv_buffer(0, &r2, 0, 8, 2).unwrap();
        // Sender asks for tag 2 first; must get r2, not r1.
        let d2 = p0.wait_send_buffer(1, 2).unwrap();
        let d1 = p0.wait_send_buffer(1, 1).unwrap();
        assert_eq!(d2.addr, r2.descriptor().addr);
        assert_eq!(d1.addr, r1.descriptor().addr);
    }

    #[test]
    fn batched_posts_and_fins_coalesce_doorbells() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let n = 8usize;
        let bufs: Vec<_> = (0..n).map(|_| p1.register_buffer(32).unwrap()).collect();
        let posts: Vec<(u64, crate::buffers::BufferDescriptor)> =
            bufs.iter().enumerate().map(|(i, b)| (i as u64, b.descriptor())).collect();
        // One call announces the whole window; contiguous ledger slots ride
        // single wire writes instead of one per entry.
        p1.post_recv_buffers(0, &posts).unwrap();
        assert_eq!(p1.stats().rendezvous_ops, n as u64);
        let sbuf = p0.register_buffer(32).unwrap();
        for tag in 0..n as u64 {
            let d = p0.wait_send_buffer(1, tag).unwrap();
            assert_eq!(d.addr, bufs[tag as usize].descriptor().addr);
            sbuf.write_at(0, &[tag as u8; 32]);
            let rid = p0.internal_rid();
            p0.put(1, &sbuf, 0, 32, &d, 0, rid).unwrap();
            p0.wait_local(rid).unwrap();
        }
        // One call FINs the whole window.
        let tags: Vec<u64> = (0..n as u64).collect();
        p0.send_fins(1, &tags).unwrap();
        for tag in 0..n as u64 {
            p1.wait_fin(0, tag).unwrap();
            assert_eq!(bufs[tag as usize].to_vec(0, 32), vec![tag as u8; 32]);
        }
    }

    #[test]
    fn batched_posts_survive_credit_exhaustion() {
        // More entries than the control ledger has slots: the batch must
        // ride through credit stalls (progress on the consumer side frees
        // slots) and still deliver every announcement exactly once.
        let c = pair();
        let (p0, p1) = (c.rank(0).clone(), c.rank(1).clone());
        let slots = PhotonConfig::default().ledger_entries;
        let n = slots * 3;
        let buf = p1.register_buffer(8).unwrap();
        let posts: Vec<(u64, crate::buffers::BufferDescriptor)> =
            (0..n as u64).map(|tag| (tag, buf.descriptor())).collect();
        let t = std::thread::spawn(move || {
            for tag in 0..n as u64 {
                p0.wait_send_buffer(1, tag).unwrap();
            }
        });
        p1.post_recv_buffers(0, &posts).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn oversized_send_rejected() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let rbuf = p1.register_buffer(16).unwrap();
        p1.post_recv_buffer(0, &rbuf, 0, 16, 9).unwrap();
        let sbuf = p0.register_buffer(64).unwrap();
        let err = p0.send_rendezvous(1, &sbuf, 0, 64, 9);
        assert!(matches!(err, Err(PhotonError::OutOfRange { .. })));
    }
}
