//! Completion events and probing types.
//!
//! Photon surfaces progress through *probing*: the application (or an idle
//! runtime worker holding the poll turn) repeatedly asks the context for
//! the next completion event.  Local events answer "may I reuse / free this
//! buffer?"; remote events answer "what just landed in my memory, and what
//! does it mean?" — the identifier is the meaning, assigned by the
//! initiator.
//!
//! Both classes share one type, [`Completion`], and each way to consume one
//! is a single `Photon` method: probe (`poll_completion`,
//! `poll_completions`), test (`test_local`) or wait (`wait_local`,
//! `wait_completion_matching`, `wait_completion_from`). Every wait gives up
//! after the config's `wait_timeout_secs` with
//! [`PhotonError::Timeout`](crate::PhotonError::Timeout).

use crate::Rank;
use photon_fabric::{VTime, WcStatus};

/// Which event classes a probe should consider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFlags {
    /// Only initiator-side (local) completions.
    Local,
    /// Only target-side (remote) completions.
    Remote,
    /// Either class, drained fairly: successive probes alternate which
    /// class they try first, so a flood of one class cannot starve the
    /// other.
    Any,
}

/// Which side of the wire a [`Completion`] was observed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionClass {
    /// Initiator-side: an operation posted here finished locally (the local
    /// buffer is reusable).
    Local,
    /// Target-side: a peer's operation finished at this rank.
    Remote,
}

/// The one completion type, returned by every class-addressed probe and
/// wait (`Photon::poll_completion` / `poll_completions` /
/// `wait_completion_matching` / `wait_completion_from`) and held as is in
/// the remote event queues.
///
/// One shape for both directions: rid, peer, timestamp, status, and class,
/// plus the payload/size a remote send delivers. Rid-addressed calls
/// ([`crate::Photon::wait_local`], [`crate::Photon::test_local`]) return
/// only the completion's virtual time — the caller already knows the rid —
/// and surface an error status as [`crate::PhotonError::OpFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The completion identifier: the `local` id the initiator passed (for
    /// [`CompletionClass::Local`]) or the `remote` id it attached (for
    /// [`CompletionClass::Remote`]).
    pub rid: u64,
    /// The other end of the operation: destination rank for local
    /// completions, initiating rank for remote ones.
    pub peer: Rank,
    /// Virtual completion time (injection finished / arrival).
    pub ts: VTime,
    /// Completion status; anything but [`WcStatus::Success`] means the
    /// operation failed (peer death, partition flush).
    pub status: WcStatus,
    /// Which side of the wire this completion was observed on.
    pub class: CompletionClass,
    /// Payload size in bytes (0 for pure completions and local events).
    pub size: usize,
    /// For destination-less sends surfacing remotely: the payload itself.
    pub payload: Option<Vec<u8>>,
}

impl Completion {
    /// Did the operation behind this completion succeed?
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// Is this an initiator-side (local) completion?
    pub fn is_local(&self) -> bool {
        self.class == CompletionClass::Local
    }

    /// Is this a target-side (remote) completion?
    pub fn is_remote(&self) -> bool {
        self.class == CompletionClass::Remote
    }

    pub(crate) fn local(rid: u64, peer: Rank, ts: VTime, status: WcStatus) -> Completion {
        Completion { rid, peer, ts, status, class: CompletionClass::Local, size: 0, payload: None }
    }

    /// A successful remote completion: `src`'s operation `rid` landed here.
    pub(crate) fn remote(
        src: Rank,
        rid: u64,
        size: usize,
        payload: Option<Vec<u8>>,
        ts: VTime,
    ) -> Completion {
        let status = WcStatus::Success;
        Completion { rid, peer: src, ts, status, class: CompletionClass::Remote, size, payload }
    }
}

/// Identifier namespaces.
///
/// User-visible rids live below [`rid_space::RESERVED_BASE`]; the middleware reserves
/// the top byte for collectives and internal control so they can share the
/// delivery channels without colliding with application identifiers.
pub mod rid_space {
    /// All rids at or above this value are reserved for the middleware.
    pub const RESERVED_BASE: u64 = 0xFF00_0000_0000_0000;
    /// Collective-operation namespace tag (occupies the top 10 bits).
    pub const COLLECTIVE: u64 = 0xFFC0_0000_0000_0000;
    /// Gossip membership frames (see [`crate::membership`]): routed to the
    /// internal inbox like collectives, never surfaced as user events.
    pub const GOSSIP: u64 = 0xFF47_0551_0000_0001;

    /// Width of the `kind` field (bits 40..48).
    pub const KIND_BITS: u32 = 8;
    /// Width of the `generation` field (bits 8..40).
    pub const GENERATION_BITS: u32 = 32;
    /// Width of the `round` field (bits 0..8).
    pub const ROUND_BITS: u32 = 8;

    const KIND_SHIFT: u32 = GENERATION_BITS + ROUND_BITS;
    const GENERATION_SHIFT: u32 = ROUND_BITS;
    const KIND_MASK: u64 = (1 << KIND_BITS) - 1;
    const GENERATION_MASK: u64 = (1 << GENERATION_BITS) - 1;
    const ROUND_MASK: u64 = (1 << ROUND_BITS) - 1;

    /// Does `rid` belong to the middleware-internal namespace?
    pub fn is_reserved(rid: u64) -> bool {
        rid >= RESERVED_BASE
    }

    /// Encode a collective rid from `(kind, generation, round)`.
    ///
    /// Layout: `COLLECTIVE | kind:8 << 40 | generation:32 << 8 | round:8`.
    /// Each field is masked to its declared width (and width violations are
    /// debug-asserted), so an out-of-range value can never smear into an
    /// adjacent field or the namespace tag.
    pub fn collective(kind: u8, generation: u32, round: u8) -> u64 {
        debug_assert_eq!(kind as u64 & !KIND_MASK, 0, "collective kind exceeds field width");
        debug_assert_eq!(
            generation as u64 & !GENERATION_MASK,
            0,
            "collective generation exceeds field width"
        );
        debug_assert_eq!(round as u64 & !ROUND_MASK, 0, "collective round exceeds field width");
        COLLECTIVE
            | ((kind as u64 & KIND_MASK) << KIND_SHIFT)
            | ((generation as u64 & GENERATION_MASK) << GENERATION_SHIFT)
            | (round as u64 & ROUND_MASK)
    }

    /// Decode a collective rid back into `(kind, generation, round)`.
    pub fn collective_parts(rid: u64) -> (u8, u32, u8) {
        (
            ((rid >> KIND_SHIFT) & KIND_MASK) as u8,
            ((rid >> GENERATION_SHIFT) & GENERATION_MASK) as u32,
            (rid & ROUND_MASK) as u8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_accessors_by_class() {
        let c = Completion::local(5, 3, VTime(10), WcStatus::Success);
        assert!(c.is_ok() && c.is_local() && !c.is_remote());
        assert_eq!((c.rid, c.peer, c.ts), (5, 3, VTime(10)));

        let c = Completion::remote(2, 9, 4, Some(vec![1, 2, 3, 4]), VTime(3));
        assert!(c.is_ok() && c.is_remote() && !c.is_local());
        assert_eq!((c.peer, c.rid, c.size, c.ts), (2, 9, 4, VTime(3)));
        assert_eq!(c.payload.as_deref(), Some(&[1u8, 2, 3, 4][..]));

        let bad = Completion::local(1, 0, VTime(1), WcStatus::FlushErr);
        assert!(!bad.is_ok());
    }

    #[test]
    fn rid_namespaces_disjoint() {
        assert!(!rid_space::is_reserved(0));
        assert!(!rid_space::is_reserved(0xFEFF_FFFF_FFFF_FFFF));
        assert!(rid_space::is_reserved(rid_space::collective(1, 0, 0)));
        // Distinct parameters yield distinct rids.
        let a = rid_space::collective(1, 7, 0);
        let b = rid_space::collective(1, 7, 1);
        let c = rid_space::collective(2, 7, 0);
        let d = rid_space::collective(1, 8, 0);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn collective_rid_roundtrips() {
        for (k, g, r) in [(0, 0, 0), (255, u32::MAX, 255), (3, 0xDEAD_BEEF, 17)] {
            let rid = rid_space::collective(k, g, r);
            assert!(rid_space::is_reserved(rid));
            assert_eq!(rid & rid_space::COLLECTIVE, rid_space::COLLECTIVE, "tag intact");
            assert_eq!(rid_space::collective_parts(rid), (k, g, r));
        }
    }

    #[test]
    fn collective_fields_never_smear() {
        // Extreme field values stay inside their lanes: the namespace tag
        // survives and neighboring fields decode unchanged.
        let rid = rid_space::collective(u8::MAX, u32::MAX, u8::MAX);
        assert_eq!(rid_space::collective_parts(rid), (u8::MAX, u32::MAX, u8::MAX));
        let (k, g, r) = rid_space::collective_parts(rid_space::collective(u8::MAX, 0, 0));
        assert_eq!((k, g, r), (u8::MAX, 0, 0));
    }
}
