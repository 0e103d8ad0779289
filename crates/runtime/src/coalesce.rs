//! Parcel coalescing.
//!
//! Fine-grained message-driven applications (GUPS, graph traversal) emit
//! torrents of tiny parcels; per-message injection overhead then dominates.
//! Coalescing buffers parcels per destination and flushes a whole batch
//! through [`photon_core::Photon::send_many`] — every parcel stays its own
//! eager frame (decoded independently at the receiver, no repacking), but
//! the entire batch is composed into one contiguous ring reservation and
//! posted as a **single** doorbell-batched RDMA write. This is the
//! aggregation optimization the HPX/AM++ literature shows is decisive for
//! irregular workloads (at the price of added latency for the first parcel
//! in a batch).
//!
//! Flushing is explicit or threshold-driven: a batch flushes when it holds
//! [`crate::RtConfig::coalesce_max`] parcels or would exceed the eager
//! capacity; [`crate::RtNode::flush_parcels`] force-flushes (applications
//! call it before waiting on replies).

use crate::Rank;

/// One destination's pending batch: encoded parcels, kept separate so the
/// flush can hand them to the batched send API frame-by-frame.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    parcels: Vec<Vec<u8>>,
    bytes: usize,
}

impl Batch {
    /// Append an encoded parcel, taking its staging vector as is. The
    /// vector came from the thread-local [`photon_core::Recycler`] cache and
    /// the flush path gives it back after the send, so a steady-state
    /// parcel loop allocates nothing here.
    pub(crate) fn push(&mut self, enc: Vec<u8>) {
        self.bytes += enc.len();
        self.parcels.push(enc);
    }

    /// Parcels queued.
    pub(crate) fn len(&self) -> usize {
        self.parcels.len()
    }

    /// Total payload bytes queued (flush-threshold accounting; the fabric
    /// adds its own per-frame header on the wire).
    pub(crate) fn wire_len(&self) -> usize {
        self.bytes
    }

    /// Take the queued parcels, resetting the batch.
    pub(crate) fn take(&mut self) -> Vec<Vec<u8>> {
        self.bytes = 0;
        std::mem::take(&mut self.parcels)
    }
}

/// Destination-indexed batches (one per peer).
#[derive(Debug)]
pub(crate) struct Coalescer {
    batches: Vec<Batch>,
}

impl Coalescer {
    pub(crate) fn new(n: usize) -> Coalescer {
        Coalescer { batches: (0..n).map(|_| Batch::default()).collect() }
    }

    pub(crate) fn batch_mut(&mut self, peer: Rank) -> &mut Batch {
        &mut self.batches[peer]
    }

    /// Take every non-empty batch as `(peer, parcels)`.
    pub(crate) fn take_all(&mut self) -> Vec<(Rank, Vec<Vec<u8>>)> {
        self.batches
            .iter_mut()
            .enumerate()
            .filter(|(_, b)| b.len() > 0)
            .map(|(peer, b)| (peer, b.take()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lco::LcoRef;
    use crate::parcel::{decode_header, encode_into, PARCEL_HDR};

    fn enc(action: u32, cont: Option<LcoRef>, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::new();
        encode_into(&mut b, action, cont, payload);
        b
    }

    #[test]
    fn batch_keeps_parcels_separate() {
        let mut b = Batch::default();
        let cont = Some(LcoRef { rank: 2, id: 9 });
        let want = [(17, None, vec![1u8; 5]), (18, None, vec![]), (19, cont, vec![7u8; 100])];
        for (action, cont, payload) in &want {
            b.push(enc(*action, *cont, payload));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.wire_len(), 3 * PARCEL_HDR + 105);
        let frames = b.take();
        assert_eq!(b.len(), 0);
        assert_eq!(b.wire_len(), 0);
        // Each frame decodes back to its parcel independently — no
        // batch-level framing to strip.
        for (f, (action, cont, payload)) in frames.iter().zip(&want) {
            assert_eq!(decode_header(f).unwrap(), (*action, *cont));
            assert_eq!(&f[PARCEL_HDR..], &payload[..]);
        }
    }

    #[test]
    fn coalescer_tracks_per_peer() {
        let mut c = Coalescer::new(3);
        c.batch_mut(0).push(enc(1, None, b"a"));
        c.batch_mut(2).push(enc(2, None, b"b"));
        c.batch_mut(2).push(enc(3, None, b"c"));
        let flushed = c.take_all();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].0, 0);
        assert_eq!(flushed[1].0, 2);
        assert_eq!(flushed[1].1.len(), 2);
        assert!(c.take_all().is_empty());
    }
}
