//! Remote atomic operations (extension).
//!
//! Photon-class middleware on verbs exposes the NIC's 64-bit remote atomics
//! (fetch-and-add, compare-and-swap) for lock-free counters, queues and
//! random-access updates without owner involvement. This module surfaces
//! them with the same completion-id discipline as PWC: the fetched old
//! value lands in a local buffer and `local_rid` is surfaced when it is
//! readable.
//!
//! Targets must be 8-byte aligned u64 slots inside a peer's registered
//! buffer — the same constraint real NIC atomics impose.
//!
//! ```
//! use photon_core::{PhotonCluster, PhotonConfig};
//! use photon_fabric::NetworkModel;
//!
//! let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default());
//! let counter = c.rank(1).register_buffer(8).unwrap();
//! let d = counter.descriptor();
//! assert_eq!(c.rank(0).fetch_add(1, &d, 0, 5).unwrap(), 0);
//! assert_eq!(c.rank(0).compare_swap(1, &d, 0, 5, 99).unwrap(), 5);
//! assert_eq!(counter.read_u64(0), 99);
//! ```

use crate::buffers::{BufferDescriptor, PhotonBuffer};
use crate::obs::Stats;
use crate::{Photon, PhotonError, Rank, Result};
use photon_fabric::verbs::{MrSlice, RemoteSlice, WrOp};

impl Photon {
    /// Remote fetch-and-add: atomically add `add` to the u64 at
    /// `dst[doff..doff+8]` on `peer`; the previous value lands in
    /// `local[loff..loff+8]` and `local_rid` completes when it is readable.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic_fetch_add(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        dst: &BufferDescriptor,
        doff: usize,
        add: u64,
        local_rid: u64,
    ) -> Result<()> {
        self.post_atomic(peer, local, loff, dst, doff, local_rid, |l, r| WrOp::FetchAdd {
            local: l,
            remote: r,
            add,
        })
    }

    /// Remote compare-and-swap: if the u64 at `dst[doff..]` equals
    /// `compare`, replace it with `swap`; either way the previous value
    /// lands in `local[loff..]`.
    #[allow(clippy::too_many_arguments)]
    pub fn atomic_compare_swap(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        dst: &BufferDescriptor,
        doff: usize,
        compare: u64,
        swap: u64,
        local_rid: u64,
    ) -> Result<()> {
        self.post_atomic(peer, local, loff, dst, doff, local_rid, |l, r| WrOp::CompareSwap {
            local: l,
            remote: r,
            compare,
            swap,
        })
    }

    /// Blocking convenience: fetch-and-add returning the old value.
    pub fn fetch_add(
        &self,
        peer: Rank,
        dst: &BufferDescriptor,
        doff: usize,
        add: u64,
    ) -> Result<u64> {
        let tmp = self.register_buffer(8)?;
        let rid = self.internal_rid();
        self.atomic_fetch_add(peer, &tmp, 0, dst, doff, add, rid)?;
        self.wait_local(rid)?;
        let old = tmp.read_u64(0);
        self.release_buffer(&tmp)?;
        Ok(old)
    }

    /// Blocking convenience: compare-and-swap returning the old value
    /// (success iff the return equals `compare`).
    pub fn compare_swap(
        &self,
        peer: Rank,
        dst: &BufferDescriptor,
        doff: usize,
        compare: u64,
        swap: u64,
    ) -> Result<u64> {
        let tmp = self.register_buffer(8)?;
        let rid = self.internal_rid();
        self.atomic_compare_swap(peer, &tmp, 0, dst, doff, compare, swap, rid)?;
        self.wait_local(rid)?;
        let old = tmp.read_u64(0);
        self.release_buffer(&tmp)?;
        Ok(old)
    }

    #[allow(clippy::too_many_arguments)]
    fn post_atomic(
        &self,
        peer: Rank,
        local: &PhotonBuffer,
        loff: usize,
        dst: &BufferDescriptor,
        doff: usize,
        local_rid: u64,
        mk: impl FnOnce(MrSlice, RemoteSlice) -> WrOp,
    ) -> Result<()> {
        self.check_rank(peer)?;
        local.check(loff, 8)?;
        if doff + 8 > dst.len {
            return Err(PhotonError::OutOfRange { offset: doff, len: 8, cap: dst.len });
        }
        let l = MrSlice::new(local.region(), loff, 8);
        let r = RemoteSlice::from_key(dst, doff, 8);
        let conn = self.gate_blocking(peer)?;
        self.fail_post(&conn, self.post_tracked(&conn, [local_rid], [mk(l, r)]))?;
        Stats::bump(&self.stats.gets); // accounted with one-sided reads
        Ok(())
    }
}

#[cfg(test)]
mod tests {

    use crate::{PhotonCluster, PhotonConfig};
    use photon_fabric::{FabricError, NetworkModel};

    fn pair() -> PhotonCluster {
        PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default())
    }

    #[test]
    fn fetch_add_roundtrip() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let counter = p1.register_buffer(64).unwrap();
        counter.write_u64(8, 100);
        let d = counter.descriptor();
        assert_eq!(p0.fetch_add(1, &d, 8, 5).unwrap(), 100);
        assert_eq!(p0.fetch_add(1, &d, 8, 5).unwrap(), 105);
        assert_eq!(counter.read_u64(8), 110);
        // An atomic is a round trip: the clock reflects ~2 wire latencies.
        assert!(p0.now().as_nanos() >= 2 * 700);
    }

    #[test]
    fn compare_swap_semantics() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let slot = p1.register_buffer(8).unwrap();
        let d = slot.descriptor();
        assert_eq!(p0.compare_swap(1, &d, 0, 0, 42).unwrap(), 0, "won the race");
        assert_eq!(p0.compare_swap(1, &d, 0, 0, 77).unwrap(), 42, "lost: value unchanged");
        assert_eq!(slot.read_u64(0), 42);
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let c = PhotonCluster::new(3, NetworkModel::ideal(), PhotonConfig::default());
        let owner = c.rank(0);
        let counter = owner.register_buffer(8).unwrap();
        let d = counter.descriptor();
        std::thread::scope(|s| {
            for i in 1..3 {
                let c = &c;
                let d = &d;
                s.spawn(move || {
                    let p = c.rank(i);
                    for _ in 0..500 {
                        p.fetch_add(0, d, 0, 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(counter.read_u64(0), 1000, "no lost updates");
    }

    #[test]
    fn misaligned_target_rejected() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let slot = p1.register_buffer(16).unwrap();
        let d = slot.descriptor();
        let err = p0.fetch_add(1, &d, 4, 1);
        assert!(matches!(
            err,
            Err(crate::PhotonError::Fabric(FabricError::BadAtomicTarget { .. }))
        ));
        // Out-of-range is caught before the fabric.
        let err = p0.fetch_add(1, &d, 12, 1);
        assert!(matches!(err, Err(crate::PhotonError::OutOfRange { .. })));
    }
}
