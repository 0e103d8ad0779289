//! Parcels: the active-message unit.
//!
//! Wire format (little-endian):
//!
//! ```text
//! [ action u32 | flags u8 | pad ×3 | cont_rank u32 | cont_id u64 | payload… ]
//! ```
//!
//! A remote parcel has one wire path and no owned form. The sender writes
//! header and payload once, with [`encode_into`], into a staging vector
//! from the thread-local [`photon_core::Recycler`]; that vector is then
//! either sent and given back, or handed to the coalescer as is. The
//! receiver decodes only the header, with [`decode_header`]. The task owns
//! the payload vector the probe harvested and runs the handler on
//! `&payload[PARCEL_HDR..]`. [`Parcel`] owns its payload, and exists only
//! where that ownership is real: a parcel to self, which outlives the
//! caller's slice. A large parcel's header rides its announcement, and
//! its pull runs the handler on the vector the get landed.

use crate::lco::LcoRef;
use crate::{ActionId, Rank, RtError};
use bytes::Bytes;

/// Parcel header size on the wire.
pub const PARCEL_HDR: usize = 20;

const FLAG_CONT: u8 = 1;

/// An active message: run `action(payload)` at the target; if the handler
/// returns bytes and a continuation is present, set that LCO with them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parcel {
    /// Handler to run at the target.
    pub action: ActionId,
    /// Handler argument bytes.
    pub payload: Bytes,
    /// Optional continuation LCO (usually on the spawning rank).
    pub cont: Option<LcoRef>,
}

/// Append the wire form of `(action, cont, payload)` to `out`.
pub fn encode_into(out: &mut Vec<u8>, action: ActionId, cont: Option<LcoRef>, payload: &[u8]) {
    let (flags, crank, cid) = match cont {
        Some(c) => (FLAG_CONT, c.rank as u32, c.id),
        None => (0, 0, 0),
    };
    out.extend_from_slice(&action.to_le_bytes());
    out.extend_from_slice(&[flags, 0, 0, 0]);
    out.extend_from_slice(&crank.to_le_bytes());
    out.extend_from_slice(&cid.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode the header of a wire parcel; its payload is `b[PARCEL_HDR..]`.
pub fn decode_header(b: &[u8]) -> Result<(ActionId, Option<LcoRef>), RtError> {
    if b.len() < PARCEL_HDR {
        return Err(RtError::BadParcel("short header"));
    }
    let action = u32::from_le_bytes(b[0..4].try_into().unwrap());
    let cont = (b[4] & FLAG_CONT != 0).then(|| LcoRef {
        rank: u32::from_le_bytes(b[8..12].try_into().unwrap()) as Rank,
        id: u64::from_le_bytes(b[12..20].try_into().unwrap()),
    });
    Ok((action, cont))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(action: ActionId, cont: Option<LcoRef>, payload: &[u8]) {
        let mut b = Vec::new();
        encode_into(&mut b, action, cont, payload);
        assert_eq!(b.len(), PARCEL_HDR + payload.len());
        assert_eq!(decode_header(&b).unwrap(), (action, cont));
        assert_eq!(&b[PARCEL_HDR..], payload);
    }

    #[test]
    fn roundtrip_with_and_without_cont() {
        roundtrip(17, None, b"work");
        roundtrip(99, Some(LcoRef { rank: 3, id: 0xdead }), b"");
    }

    #[test]
    fn wire_bytes_are_fixed() {
        let mut b = Vec::new();
        encode_into(&mut b, 0x0102_0304, Some(LcoRef { rank: 5, id: 0x0a0b }), b"xy");
        let want: &[u8] =
            &[4, 3, 2, 1, FLAG_CONT, 0, 0, 0, 5, 0, 0, 0, 0x0b, 0x0a, 0, 0, 0, 0, 0, 0, b'x', b'y'];
        assert_eq!(b, want);
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(matches!(decode_header(&[0u8; 5]), Err(RtError::BadParcel(_))));
        assert!(decode_header(&[0u8; PARCEL_HDR]).is_ok());
    }

    proptest! {
        #[test]
        fn roundtrip_prop(action in any::<u32>(), payload in proptest::collection::vec(any::<u8>(), 0..256),
                          cont in proptest::option::of((0usize..64, any::<u64>()))) {
            roundtrip(action, cont.map(|(rank, id)| LcoRef { rank, id }), &payload);
        }
    }
}
