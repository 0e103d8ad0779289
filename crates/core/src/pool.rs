//! A registered-buffer pool.
//!
//! One-sided operations require registered memory; transient operations
//! (8-byte atomics, small GAS transfers, staging) would otherwise pay a
//! registration round trip each time. [`BufferPool`] keeps released buffers
//! keyed by *size class* for reuse — the middleware-side analogue of the
//! baseline's registration cache, here an *explicit* tool rather than
//! hidden magic.
//!
//! ## Size classes
//!
//! Buffers are bucketed by power-of-two size class rather than exact
//! length, so a request for 1023 bytes is served by a pooled 1024-byte
//! buffer instead of registering a fresh region. Fresh allocations are
//! rounded **up** to the class size (so they re-pool cleanly); foreign
//! buffers handed to [`give`](BufferPool::give) are bucketed by the largest
//! class they can fully back, which keeps every pooled buffer at least as
//! large as any request its bucket serves.
//!
//! ## Capacity
//!
//! Pooled-but-idle buffers still count against the NIC's pinning budget, so
//! the pool caps the bytes it retains (an eighth of the registration limit
//! by default, tunable via [`with_capacity`](BufferPool::with_capacity));
//! overflow buffers are deregistered on `give` instead of hoarded.

use crate::buffers::PhotonBuffer;
use crate::{Photon, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Round `len` up to its power-of-two size class (0 stays 0).
fn class_of(len: usize) -> usize {
    len.next_power_of_two()
}

/// The largest class a buffer of `len` bytes can fully back.
fn class_backed_by(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - len.leading_zeros())
    }
}

/// A size-class-keyed pool of registered buffers over one Photon context.
#[derive(Debug)]
pub struct BufferPool {
    photon: Arc<Photon>,
    free: Mutex<HashMap<usize, Vec<PhotonBuffer>>>,
    /// Bytes currently held in `free` (pinned but idle).
    pooled_bytes: AtomicU64,
    /// Retention cap: `give` deregisters instead of pooling past this.
    max_pooled_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// A pool allocating through `photon`, retaining at most an eighth of
    /// the node's pinning limit.
    pub fn new(photon: Arc<Photon>) -> BufferPool {
        let cap = photon.nic().mrs().limit_bytes() / 8;
        BufferPool::with_capacity(photon, cap)
    }

    /// A pool retaining at most `max_pooled_bytes` of idle registered
    /// memory; buffers given back past the cap are deregistered.
    pub fn with_capacity(photon: Arc<Photon>, max_pooled_bytes: usize) -> BufferPool {
        BufferPool {
            photon,
            free: Mutex::new(HashMap::new()),
            pooled_bytes: AtomicU64::new(0),
            max_pooled_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Take a buffer of *at least* `len` bytes: pooled when the size class
    /// has one (zeroed for reuse), freshly registered at the class size
    /// otherwise (registration cost charged once, at first allocation).
    pub fn take(&self, len: usize) -> Result<PhotonBuffer> {
        let class = class_of(len);
        if let Some(b) = self.free.lock().get_mut(&class).and_then(Vec::pop) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.pooled_bytes.fetch_sub(b.len() as u64, Ordering::Relaxed);
            b.fill(0);
            return Ok(b);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.photon.register_buffer(class)
    }

    /// Return a buffer for reuse. Past the retention cap the buffer is
    /// deregistered instead, releasing its pinning budget.
    pub fn give(&self, buf: PhotonBuffer) {
        let len = buf.len() as u64;
        if self.pooled_bytes.load(Ordering::Relaxed) + len > self.max_pooled_bytes as u64 {
            let _ = self.photon.release_buffer(&buf);
            return;
        }
        self.pooled_bytes.fetch_add(len, Ordering::Relaxed);
        self.free.lock().entry(class_backed_by(buf.len())).or_default().push(buf);
    }

    /// Deregister everything currently pooled (releases pinning budget).
    pub fn drain(&self) -> Result<()> {
        let all: Vec<PhotonBuffer> = self.free.lock().drain().flat_map(|(_, v)| v).collect();
        for b in all {
            self.pooled_bytes.fetch_sub(b.len() as u64, Ordering::Relaxed);
            self.photon.release_buffer(&b)?;
        }
        Ok(())
    }

    /// Bytes currently retained (pinned but idle).
    pub fn pooled_bytes(&self) -> usize {
        self.pooled_bytes.load(Ordering::Relaxed) as usize
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

// --------------------------------------------------------------- Recycler

/// Per-class retention cap of the thread-local [`Recycler`] cache.
const RECYCLER_PER_CLASS: usize = 16;
/// Largest class the recycler retains (1 MiB); bigger buffers are rare and
/// not worth hoarding per-thread.
const RECYCLER_MAX_CLASS: usize = 1 << 20;

/// Classes the recycler retains: every power of two up to
/// [`RECYCLER_MAX_CLASS`].
const RECYCLER_CLASSES: usize = RECYCLER_MAX_CLASS.trailing_zeros() as usize + 1;

std::thread_local! {
    /// One bucket per retained class, indexed by the class's log2: a take
    /// or give on the parcel hot path is an index, not a hash.
    static RECYCLER: std::cell::RefCell<[Vec<Vec<u8>>; RECYCLER_CLASSES]> =
        const { std::cell::RefCell::new([const { Vec::new() }; RECYCLER_CLASSES]) };
}

/// A thread-local recycler cache for plain heap buffers (`Vec<u8>`),
/// bucketed by the same power-of-two size classes as [`BufferPool`].
///
/// Where [`BufferPool`] recycles *registered* regions (saving the
/// registration round trip), `Recycler` recycles ordinary staging vectors —
/// parcel encodings, coalescer batches, bounce buffers — saving the
/// allocator round trip on hot paths. Being thread-local it takes no lock
/// and needs no ownership protocol: `take` hands out a cleared vector with
/// at least the class capacity, `give` returns it to the caller's own
/// cache (dropped past a per-class cap, so idle threads cannot hoard).
///
/// Ownership rule (see DESIGN.md, "Progress engine"): a recycled vector
/// belongs to exactly one thread's cache at a time; giving a vector back
/// on a different thread than took it is fine (caches are independent),
/// but the *same* vector must not be given twice.
#[derive(Debug, Default, Clone, Copy)]
pub struct Recycler;

impl Recycler {
    /// Take a cleared `Vec<u8>` with capacity for at least `len` bytes,
    /// reusing a cached one of the same size class when available.
    pub fn take(len: usize) -> Vec<u8> {
        let class = class_of(len);
        if class > RECYCLER_MAX_CLASS {
            return Vec::with_capacity(len);
        }
        RECYCLER.with(|c| match c.borrow_mut()[class.trailing_zeros() as usize].pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::with_capacity(class),
        })
    }

    /// Return a vector to this thread's cache. Vectors past the per-class
    /// retention cap, above the size ceiling, or with no capacity are
    /// simply dropped.
    pub fn give(v: Vec<u8>) {
        let class = class_backed_by(v.capacity());
        if class == 0 || class > RECYCLER_MAX_CLASS {
            return;
        }
        RECYCLER.with(|c| {
            let bucket = &mut c.borrow_mut()[class.trailing_zeros() as usize];
            if bucket.len() < RECYCLER_PER_CLASS {
                bucket.push(v);
            }
        });
    }

    /// Number of vectors currently cached on this thread (all classes).
    pub fn cached() -> usize {
        RECYCLER.with(|c| c.borrow().iter().map(Vec::len).sum())
    }

    /// Drop everything cached on this thread.
    pub fn clear() {
        RECYCLER.with(|c| c.borrow_mut().iter_mut().for_each(Vec::clear));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhotonCluster, PhotonConfig};
    use photon_fabric::NetworkModel;

    #[test]
    fn pool_reuses_and_zeroes() {
        let c = PhotonCluster::new(1, NetworkModel::ib_fdr(), PhotonConfig::default());
        let pool = BufferPool::new(c.rank(0).clone());
        let before = c.rank(0).now();
        let a = pool.take(64).unwrap();
        a.write_u64(0, 7);
        let a_key = a.descriptor();
        pool.give(a);
        let after_first = c.rank(0).now();
        assert!(after_first > before, "first take pays registration");
        let b = pool.take(64).unwrap();
        assert_eq!(b.descriptor().rkey, a_key.rkey, "same region reused");
        assert_eq!(b.read_u64(0), 0, "reused buffer is zeroed");
        assert_eq!(c.rank(0).now(), after_first, "hit is free in virtual time");
        assert_eq!(pool.stats(), (1, 1));
        pool.give(b);
    }

    #[test]
    fn different_sizes_do_not_mix() {
        let c = PhotonCluster::new(1, NetworkModel::ideal(), PhotonConfig::default());
        let pool = BufferPool::new(c.rank(0).clone());
        let a = pool.take(32).unwrap();
        pool.give(a);
        let b = pool.take(64).unwrap();
        assert_eq!(b.len(), 64);
        assert_eq!(pool.stats(), (0, 2));
    }

    #[test]
    fn size_class_serves_near_sizes() {
        let c = PhotonCluster::new(1, NetworkModel::ideal(), PhotonConfig::default());
        let pool = BufferPool::new(c.rank(0).clone());
        let a = pool.take(1024).unwrap();
        pool.give(a);
        // 1023 rounds up to the 1024 class: the pooled buffer is reused.
        let b = pool.take(1023).unwrap();
        assert_eq!(b.len(), 1024, "class-size buffer serves the request");
        assert_eq!(pool.stats(), (1, 1));
        // Odd sizes round up on registration too, so they re-pool cleanly.
        let d = pool.take(700).unwrap();
        assert_eq!(d.len(), 1024);
        pool.give(d);
        let e = pool.take(513).unwrap();
        assert_eq!(pool.stats(), (2, 2));
        pool.give(e);
        pool.give(b);
    }

    #[test]
    fn foreign_odd_buffer_backs_smaller_class_only() {
        let c = PhotonCluster::new(1, NetworkModel::ideal(), PhotonConfig::default());
        let p = c.rank(0);
        let pool = BufferPool::new(p.clone());
        // A 1000-byte buffer registered outside the pool can only fully
        // back 512-byte-class requests.
        let odd = p.register_buffer(1000).unwrap();
        pool.give(odd);
        let b = pool.take(600).unwrap();
        assert!(b.len() >= 600, "freshly registered, not the short pooled one");
        assert_eq!(pool.stats(), (0, 1));
        let s = pool.take(512).unwrap();
        assert_eq!(s.len(), 1000, "pooled odd buffer serves its class");
        assert_eq!(pool.stats(), (1, 1));
        pool.give(s);
        pool.give(b);
    }

    #[test]
    fn capacity_cap_deregisters_overflow() {
        let c = PhotonCluster::new(1, NetworkModel::ideal(), PhotonConfig::default());
        let p = c.rank(0);
        let pool = BufferPool::with_capacity(p.clone(), 1024);
        let before = p.nic().mrs().registered_bytes();
        let a = pool.take(1024).unwrap();
        let b = pool.take(1024).unwrap();
        assert_eq!(p.nic().mrs().registered_bytes(), before + 2048);
        pool.give(a); // fits the cap: retained
        assert_eq!(pool.pooled_bytes(), 1024);
        pool.give(b); // would exceed the cap: deregistered
        assert_eq!(pool.pooled_bytes(), 1024);
        assert_eq!(p.nic().mrs().registered_bytes(), before + 1024);
    }

    #[test]
    fn recycler_reuses_capacity_per_class() {
        Recycler::clear();
        let mut a = Recycler::take(100);
        assert!(a.capacity() >= 128, "rounded up to the class size");
        a.extend_from_slice(&[7u8; 100]);
        let ptr = a.as_ptr();
        Recycler::give(a);
        assert_eq!(Recycler::cached(), 1);
        let b = Recycler::take(128);
        assert_eq!(b.as_ptr(), ptr, "same allocation reused");
        assert!(b.is_empty(), "handed out cleared");
        assert_eq!(Recycler::cached(), 0);
        Recycler::give(b);
        Recycler::clear();
    }

    #[test]
    fn recycler_caps_retention_per_class() {
        Recycler::clear();
        for _ in 0..(RECYCLER_PER_CLASS + 5) {
            Recycler::give(Vec::with_capacity(64));
        }
        assert_eq!(Recycler::cached(), RECYCLER_PER_CLASS, "overflow dropped");
        // Zero-capacity and oversized vectors are never cached.
        Recycler::give(Vec::new());
        Recycler::give(Vec::with_capacity(RECYCLER_MAX_CLASS * 2));
        assert_eq!(Recycler::cached(), RECYCLER_PER_CLASS);
        Recycler::clear();
        assert_eq!(Recycler::cached(), 0);
    }

    #[test]
    fn drain_releases_pinning() {
        let c = PhotonCluster::new(1, NetworkModel::ideal(), PhotonConfig::default());
        let p = c.rank(0);
        let pool = BufferPool::new(p.clone());
        let before = p.nic().mrs().registered_bytes();
        let a = pool.take(4096).unwrap();
        pool.give(a);
        assert_eq!(p.nic().mrs().registered_bytes(), before + 4096);
        pool.drain().unwrap();
        assert_eq!(p.nic().mrs().registered_bytes(), before);
        assert_eq!(pool.pooled_bytes(), 0);
    }
}
