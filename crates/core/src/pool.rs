//! A thread-local recycler for plain staging vectors.
//!
//! Hot paths (parcel encodings, coalescer batches, bounce buffers) would
//! otherwise pay an allocator round trip per message. [`Recycler`] keeps
//! released `Vec<u8>`s keyed by *size class* for reuse on the same thread.
//!
//! ## Size classes
//!
//! Vectors are bucketed by power-of-two size class rather than exact
//! length, so a request for 1023 bytes is served by a cached 1024-byte
//! vector. Fresh allocations are rounded **up** to the class size (so they
//! re-cache cleanly); vectors handed back are bucketed by the largest class
//! their capacity can fully back, which keeps every cached vector at least
//! as large as any request its bucket serves.
//!
//! Registered memory is not recycled here: a transient registration is
//! owned by [`Photon::with_scratch`](crate::Photon::with_scratch), which
//! releases it on every path.

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
/// bucketed by power-of-two size class.
///
/// Being thread-local it takes no lock and needs no ownership protocol:
/// `take` hands out a cleared vector with at least the class capacity,
/// `give` returns it to the caller's own cache (dropped past a per-class
/// cap, so idle threads cannot hoard).
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
}
