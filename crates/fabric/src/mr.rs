//! Memory registration.
//!
//! RDMA NICs can only DMA into *registered* (pinned, IOMMU-mapped) memory.
//! Registration returns a local key (`lkey`, used in local work requests) and
//! a remote key (`rkey`, handed to peers for one-sided access).  This module
//! simulates that contract: all fabric memory lives inside [`MemoryRegion`]s
//! owned by a per-node [`MrTable`], every one-sided access is resolved and
//! bounds/permission checked through the table, and registration carries a
//! modeled virtual-time cost proportional to the number of pages pinned.
//!
//! The application reads and writes registered memory through the region
//! handle (`write_at` / `read_at` / typed helpers); this stands in for the
//! raw pointer access a real consumer would use, while keeping the simulated
//! cross-"node" accesses data-race free behind a per-region `RwLock`.

use crate::error::{FabricError, Result};
use crate::NodeId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Access permissions for a registered region, verbs-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access(u8);

impl Access {
    /// Local read/write only (the NIC may gather from it).
    pub const LOCAL: Access = Access(0b001);
    /// Peers may RDMA-write into the region.
    pub const REMOTE_WRITE: Access = Access(0b010);
    /// Peers may RDMA-read from the region.
    pub const REMOTE_READ: Access = Access(0b100);
    /// Peers may perform remote atomics on the region.
    pub const REMOTE_ATOMIC: Access = Access(0b1000);
    /// Everything: the common choice for middleware-managed buffers.
    pub const ALL: Access = Access(0b1111);

    /// Union of two permission sets.
    #[inline]
    pub fn union(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }

    /// Does this permission set include all bits of `needed`?
    #[inline]
    pub fn allows(self, needed: Access) -> bool {
        self.0 & needed.0 == needed.0
    }
}

/// The `(addr, rkey, len)` descriptor a peer needs for one-sided access.
///
/// This is what Photon's buffer-exchange metadata carries on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteKey {
    /// Base virtual address of the region on the owning node.
    pub addr: u64,
    /// Remote key naming the region.
    pub rkey: u32,
    /// Length in bytes.
    pub len: usize,
}

impl RemoteKey {
    /// Descriptor for the sub-range `[offset, offset + len)` of this region.
    pub fn slice(&self, offset: usize, len: usize) -> RemoteKey {
        debug_assert!(offset + len <= self.len);
        RemoteKey { addr: self.addr + offset as u64, rkey: self.rkey, len }
    }

    /// Serialize to fixed-size bytes for in-band exchange (20 bytes).
    pub fn to_bytes(&self) -> [u8; 20] {
        let mut b = [0u8; 20];
        b[0..8].copy_from_slice(&self.addr.to_le_bytes());
        b[8..12].copy_from_slice(&self.rkey.to_le_bytes());
        b[12..20].copy_from_slice(&(self.len as u64).to_le_bytes());
        b
    }

    /// Inverse of [`RemoteKey::to_bytes`].
    pub fn from_bytes(b: &[u8]) -> RemoteKey {
        RemoteKey {
            addr: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            rkey: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            len: u64::from_le_bytes(b[12..20].try_into().unwrap()) as usize,
        }
    }
}

#[derive(Debug)]
struct MrInner {
    node: NodeId,
    base: u64,
    rkey: u32,
    lkey: u32,
    flags: Access,
    /// Region size. Registration sizes are immutable, so hot-path bounds
    /// checks read this instead of taking the data lock.
    len: usize,
    data: RwLock<Box<[u8]>>,
}

/// A registered memory region on a simulated node.
///
/// Cloning the handle is cheap (`Arc`); the underlying memory is shared.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    inner: Arc<MrInner>,
}

impl MemoryRegion {
    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Base virtual address on the owning node.
    pub fn base_addr(&self) -> u64 {
        self.inner.base
    }

    /// Remote key peers use to name this region.
    pub fn rkey(&self) -> u32 {
        self.inner.rkey
    }

    /// Local key.
    pub fn lkey(&self) -> u32 {
        self.inner.lkey
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access flags the region was registered with.
    pub fn flags(&self) -> Access {
        self.inner.flags
    }

    /// Full remote descriptor for this region.
    pub fn remote_key(&self) -> RemoteKey {
        RemoteKey { addr: self.inner.base, rkey: self.inner.rkey, len: self.len() }
    }

    /// Copy `src` into the region at `offset` (local CPU store).
    pub fn write_at(&self, offset: usize, src: &[u8]) {
        let mut d = self.inner.data.write();
        d[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Copy from the region at `offset` into `dst` (local CPU load).
    pub fn read_at(&self, offset: usize, dst: &mut [u8]) {
        let d = self.inner.data.read();
        dst.copy_from_slice(&d[offset..offset + dst.len()]);
    }

    /// Read a little-endian `u64` at `offset`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read_at(offset, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64` at `offset`.
    pub fn write_u64(&self, offset: usize, v: u64) {
        self.write_at(offset, &v.to_le_bytes());
    }

    /// Fill the whole region with `byte`.
    pub fn fill(&self, byte: u8) {
        self.inner.data.write().fill(byte);
    }

    /// Snapshot `len` bytes from `offset` into a fresh `Vec`.
    pub fn to_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let d = self.inner.data.read();
        d[offset..offset + len].to_vec()
    }

    /// Run `f` with shared access to the raw bytes (used by the NIC engine
    /// to gather without an intermediate copy).
    pub fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.inner.data.read())
    }

    /// Run `f` with exclusive access to the raw bytes (used by the NIC
    /// engine to scatter).
    pub fn with_bytes_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.inner.data.write())
    }

    /// Check that `[offset, offset+len)` lies inside the region.
    pub fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        let region_len = self.len();
        if offset.checked_add(len).is_none_or(|end| end > region_len) {
            return Err(FabricError::OutOfBounds {
                addr: self.inner.base + offset as u64,
                len,
                region_base: self.inner.base,
                region_len,
            });
        }
        Ok(())
    }

    /// Atomically fetch-and-add at a u64-aligned `offset`, returning the old
    /// value. Used by the NIC engine for remote atomics; atomicity is
    /// provided by the region's write lock.
    pub fn fetch_add_u64(&self, offset: usize, add: u64) -> u64 {
        let mut d = self.inner.data.write();
        let old = u64::from_le_bytes(d[offset..offset + 8].try_into().unwrap());
        d[offset..offset + 8].copy_from_slice(&old.wrapping_add(add).to_le_bytes());
        old
    }

    /// Atomically compare-and-swap at a u64-aligned `offset`, returning the
    /// old value (swap happens only if old == `compare`).
    pub fn compare_swap_u64(&self, offset: usize, compare: u64, swap: u64) -> u64 {
        let mut d = self.inner.data.write();
        let old = u64::from_le_bytes(d[offset..offset + 8].try_into().unwrap());
        if old == compare {
            d[offset..offset + 8].copy_from_slice(&swap.to_le_bytes());
        }
        old
    }
}

/// Per-node registration table: allocates keys and virtual addresses,
/// resolves `(addr, rkey)` descriptors, and enforces a registration limit.
#[derive(Debug)]
pub struct MrTable {
    node: NodeId,
    by_rkey: RwLock<HashMap<u32, MemoryRegion>>,
    next_key: AtomicU32,
    next_addr: AtomicU64,
    registered_bytes: AtomicUsize,
    limit_bytes: usize,
    /// Bumped on every deregistration. Rkeys are never reused, so a resolve
    /// result cached against a generation stays valid exactly while the
    /// generation holds (registration can only add rkeys, never repoint one).
    generation: AtomicU64,
}

/// Default per-node registration limit: 1 GiB of pinned memory.
pub const DEFAULT_REG_LIMIT: usize = 1 << 30;

impl MrTable {
    /// New table for `node` with the default registration limit.
    pub fn new(node: NodeId) -> Self {
        Self::with_limit(node, DEFAULT_REG_LIMIT)
    }

    /// New table with an explicit pinning limit (fault-injection hook).
    pub fn with_limit(node: NodeId, limit_bytes: usize) -> Self {
        MrTable {
            node,
            by_rkey: RwLock::new(HashMap::new()),
            next_key: AtomicU32::new(1),
            // Start virtual addresses away from zero so a zero addr is
            // recognizably invalid, as on real hardware.
            next_addr: AtomicU64::new(0x1000_0000),
            registered_bytes: AtomicUsize::new(0),
            limit_bytes,
            generation: AtomicU64::new(0),
        }
    }

    /// Register a zero-initialized region of `len` bytes.
    pub fn register(&self, len: usize, flags: Access) -> Result<MemoryRegion> {
        // Charge against the pinning limit first.
        let mut cur = self.registered_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur + len;
            if next > self.limit_bytes {
                return Err(FabricError::RegistrationLimit { limit_bytes: self.limit_bytes });
            }
            match self.registered_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        // Page-align and pad address allocation like a pinned allocator would.
        let span = len.div_ceil(crate::model::PAGE_SIZE).max(1) * crate::model::PAGE_SIZE;
        let base = self.next_addr.fetch_add(span as u64, Ordering::Relaxed);
        let mr = MemoryRegion {
            inner: Arc::new(MrInner {
                node: self.node,
                base,
                rkey: key,
                lkey: key,
                flags,
                len,
                data: RwLock::new(vec![0u8; len].into_boxed_slice()),
            }),
        };
        self.by_rkey.write().insert(key, mr.clone());
        Ok(mr)
    }

    /// Deregister a region, releasing its pinning budget. Outstanding handles
    /// keep the memory alive but the table will no longer resolve its rkey.
    pub fn deregister(&self, mr: &MemoryRegion) -> Result<()> {
        self.generation.fetch_add(1, Ordering::Relaxed);
        let removed = self.by_rkey.write().remove(&mr.rkey());
        match removed {
            Some(r) => {
                self.registered_bytes.fetch_sub(r.len(), Ordering::Relaxed);
                Ok(())
            }
            None => Err(FabricError::InvalidRkey { node: self.node, rkey: mr.rkey() }),
        }
    }

    /// Resolve a one-sided access `(addr, rkey, len)` to a region and offset,
    /// verifying bounds and that the region allows `needed` access. The
    /// returned handle is a clone, for a caller that keeps it.
    pub fn resolve(
        &self,
        addr: u64,
        rkey: u32,
        len: usize,
        needed: Access,
    ) -> Result<(MemoryRegion, usize)> {
        self.with_resolved(addr, rkey, len, needed, |mr, off| (mr.clone(), off))
    }

    /// [`MrTable::resolve`] without the clone: run `f` on the region and
    /// offset under the table's read lock. Registrations wait for `f`, so
    /// `f` must not use this table (a waiting writer blocks a nested read).
    pub(crate) fn with_resolved<R>(
        &self,
        addr: u64,
        rkey: u32,
        len: usize,
        needed: Access,
        f: impl FnOnce(&MemoryRegion, usize) -> R,
    ) -> Result<R> {
        let table = self.by_rkey.read();
        let mr = table.get(&rkey).ok_or(FabricError::InvalidRkey { node: self.node, rkey })?;
        if !mr.flags().allows(needed) {
            return Err(FabricError::AccessDenied { rkey, needed: access_name(needed) });
        }
        let base = mr.base_addr();
        if addr < base {
            return Err(FabricError::OutOfBounds {
                addr,
                len,
                region_base: base,
                region_len: mr.len(),
            });
        }
        let offset = (addr - base) as usize;
        mr.check_bounds(offset, len)?;
        Ok(f(mr, offset))
    }

    /// Resolve-cache validity token: unchanged generation means every rkey
    /// that resolved before still resolves to the same region.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Bytes currently pinned.
    pub fn registered_bytes(&self) -> usize {
        self.registered_bytes.load(Ordering::Relaxed)
    }

    /// The pinning limit this table enforces.
    pub fn limit_bytes(&self) -> usize {
        self.limit_bytes
    }

    /// Number of live registrations.
    pub fn region_count(&self) -> usize {
        self.by_rkey.read().len()
    }
}

fn access_name(a: Access) -> &'static str {
    if a.allows(Access::REMOTE_ATOMIC) {
        "remote-atomic"
    } else if a.allows(Access::REMOTE_WRITE) {
        "remote-write"
    } else if a.allows(Access::REMOTE_READ) {
        "remote-read"
    } else {
        "local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_rw_roundtrip() {
        let t = MrTable::new(0);
        let mr = t.register(128, Access::ALL).unwrap();
        assert_eq!(mr.len(), 128);
        mr.write_at(16, b"hello photon");
        let mut buf = [0u8; 12];
        mr.read_at(16, &mut buf);
        assert_eq!(&buf, b"hello photon");
        mr.write_u64(0, 0xdead_beef);
        assert_eq!(mr.read_u64(0), 0xdead_beef);
    }

    #[test]
    fn resolve_checks_bounds_and_flags() {
        let t = MrTable::new(2);
        let mr = t.register(64, Access::REMOTE_WRITE.union(Access::LOCAL)).unwrap();
        let rk = mr.remote_key();
        // In-bounds write resolve is fine.
        let (r, off) = t.resolve(rk.addr + 8, rk.rkey, 8, Access::REMOTE_WRITE).unwrap();
        assert_eq!(off, 8);
        assert_eq!(r.rkey(), mr.rkey());
        // Out-of-bounds fails.
        let err = t.resolve(rk.addr + 60, rk.rkey, 8, Access::REMOTE_WRITE);
        assert!(matches!(err, Err(FabricError::OutOfBounds { .. })));
        // Address below the base fails.
        let err = t.resolve(rk.addr - 1, rk.rkey, 1, Access::REMOTE_WRITE);
        assert!(matches!(err, Err(FabricError::OutOfBounds { .. })));
        // Missing access flag fails.
        let err = t.resolve(rk.addr, rk.rkey, 8, Access::REMOTE_READ);
        assert!(matches!(err, Err(FabricError::AccessDenied { .. })));
        // Unknown rkey fails.
        let err = t.resolve(rk.addr, 999, 8, Access::REMOTE_WRITE);
        assert!(matches!(err, Err(FabricError::InvalidRkey { node: 2, .. })));
    }

    #[test]
    fn deregister_releases_budget_and_resolution() {
        let t = MrTable::with_limit(0, 256);
        let mr = t.register(200, Access::ALL).unwrap();
        assert_eq!(t.registered_bytes(), 200);
        // Second registration exceeds the limit.
        assert!(matches!(t.register(100, Access::ALL), Err(FabricError::RegistrationLimit { .. })));
        let rk = mr.remote_key();
        t.deregister(&mr).unwrap();
        assert_eq!(t.registered_bytes(), 0);
        assert!(t.resolve(rk.addr, rk.rkey, 8, Access::LOCAL).is_err());
        // Double-deregister reports an error.
        assert!(t.deregister(&mr).is_err());
        // Now there is room again.
        t.register(100, Access::ALL).unwrap();
    }

    #[test]
    fn addresses_do_not_overlap() {
        let t = MrTable::new(0);
        let a = t.register(5000, Access::ALL).unwrap();
        let b = t.register(64, Access::ALL).unwrap();
        assert!(b.base_addr() >= a.base_addr() + 5000);
        assert_ne!(a.rkey(), b.rkey());
    }

    #[test]
    fn remote_key_bytes_roundtrip() {
        let rk = RemoteKey { addr: 0x1234_5678_9abc, rkey: 77, len: 4096 };
        assert_eq!(RemoteKey::from_bytes(&rk.to_bytes()), rk);
        let sliced = rk.slice(100, 50);
        assert_eq!(sliced.addr, rk.addr + 100);
        assert_eq!(sliced.len, 50);
    }

    #[test]
    fn atomics_on_region() {
        let t = MrTable::new(0);
        let mr = t.register(64, Access::ALL).unwrap();
        mr.write_u64(8, 10);
        assert_eq!(mr.fetch_add_u64(8, 5), 10);
        assert_eq!(mr.read_u64(8), 15);
        assert_eq!(mr.compare_swap_u64(8, 15, 99), 15);
        assert_eq!(mr.read_u64(8), 99);
        // Failed CAS leaves the value alone.
        assert_eq!(mr.compare_swap_u64(8, 15, 1), 99);
        assert_eq!(mr.read_u64(8), 99);
    }

    #[test]
    fn access_flag_algebra() {
        assert!(Access::ALL.allows(Access::REMOTE_ATOMIC));
        assert!(!Access::LOCAL.allows(Access::REMOTE_WRITE));
        let rw = Access::REMOTE_READ.union(Access::REMOTE_WRITE);
        assert!(rw.allows(Access::REMOTE_READ));
        assert!(rw.allows(Access::REMOTE_WRITE));
        assert!(!rw.allows(Access::REMOTE_ATOMIC));
    }
}
