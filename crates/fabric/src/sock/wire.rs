//! Datagram wire format of the sockets backend.
//!
//! A UDP datagram carries a **train**: one or more frames back to back.
//! Every frame is self-delimiting — a fixed header followed by a
//! kind-specific body whose variable parts are length-prefixed — so a
//! train needs no framing of its own: the receiver decodes a frame, learns
//! how many bytes it used ([`Packet::decode_prefix`]), and continues at the
//! next byte until the datagram ends ([`frames`]). A frame that does not
//! decode ends the walk; the intact prefix before it still counts. All
//! integers are little-endian.
//!
//! Frames other than [`Kind::Ack`] consume one sequence number on the
//! per-`(src, dst)` channel and are retransmitted until cumulatively
//! acknowledged; ACKs are unsequenced and idempotent. Every frame header
//! carries the sender's cumulative ack of the reverse direction, stamped
//! when the train is built, so a train doubles as an ack.
//!
//! Large transfers are fragmented at [`MAX_FRAG`] payload bytes. Write
//! fragments are *independent* (each names its own remote address), so a
//! receiver applies them as they arrive in channel order; send and
//! read-response fragments carry `(total, frag_off)` and are reassembled
//! per op id.
//!
//! Decoding borrows: payloads and stamp tables are slices of the datagram
//! buffer, applied to registered memory from where the kernel put them.
//! Decoding never allocates.

use crate::NodeId;

/// First two bytes of every frame; anything else ends the walk.
pub const MAGIC: u16 = 0x9A07;

/// Fixed header size in bytes.
pub const HDR: usize = 36;

/// Byte offset of the piggybacked cumulative ack inside a frame header.
const ACK_AT: usize = 20;

/// Maximum payload bytes per fragment: comfortably under the 64 KiB UDP
/// datagram ceiling with header + stamp-table overhead included.
pub const MAX_FRAG: usize = 32 * 1024;

/// Largest datagram a train may fill: the UDP-over-IPv4 payload ceiling
/// (65 535 − 20 IP − 8 UDP).
pub const MAX_DGRAM: usize = 65_507;

/// Final fragment of its work request.
pub const F_LAST: u8 = 1 << 0;
/// The op carries immediate data (valid only with `F_LAST`).
pub const F_HAS_IMM: u8 = 1 << 1;
/// On an ACK: the op named by `op` failed remote validation (bounds,
/// access, unknown rkey); the initiator resolves it as an error completion.
pub const F_ERR: u8 = 1 << 2;

/// Packet kind discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Cumulative acknowledgement (unsequenced).
    Ack = 0,
    /// Two-sided send fragment.
    Send = 1,
    /// One-sided write fragment.
    Write = 2,
    /// RDMA-read request.
    ReadReq = 3,
    /// RDMA-read response fragment.
    ReadResp = 4,
    /// Remote-atomic request.
    AtomicReq = 5,
    /// Remote-atomic response.
    AtomicResp = 6,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        Some(match v {
            0 => Kind::Ack,
            1 => Kind::Send,
            2 => Kind::Write,
            3 => Kind::ReadReq,
            4 => Kind::ReadResp,
            5 => Kind::AtomicReq,
            6 => Kind::AtomicResp,
            _ => return None,
        })
    }
}

/// Atomic sub-operation inside [`Body::AtomicReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicKind {
    /// 64-bit fetch-and-add; `arg1` is the addend.
    FetchAdd,
    /// 64-bit compare-and-swap; `arg1` is the expected value, `arg2` the
    /// replacement.
    CompareSwap,
}

/// A write fragment's stamp table as it sits on the wire: little-endian
/// `u32` payload offsets the receiver overwrites with its delivery
/// timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamps<'a>(&'a [u8]);

impl<'a> Stamps<'a> {
    /// View `bytes` (a whole number of little-endian `u32`s; a ragged tail
    /// is ignored) as a stamp table.
    pub fn from_le_bytes(bytes: &'a [u8]) -> Stamps<'a> {
        Stamps(&bytes[..bytes.len() / 4 * 4])
    }

    /// The offsets, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.0.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
    }
}

/// Kind-specific frame body. Payloads borrow from the buffer the frame was
/// decoded from (or, on the transmit side, from the memory being sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body<'a> {
    /// Cumulative ACK; op-level errors ride the header's `F_ERR` + `op`.
    Ack,
    /// Two-sided send fragment: reassembled per op id.
    Send {
        /// Total payload bytes of the whole send.
        total: u32,
        /// This fragment's offset within the send.
        frag_off: u32,
        /// Immediate data (valid if `F_HAS_IMM`).
        imm: u64,
        /// Fragment payload.
        payload: &'a [u8],
    },
    /// One-sided write fragment targeting `(addr, rkey)` directly.
    Write {
        /// Remote virtual address this fragment lands at.
        addr: u64,
        /// Remote key naming the target region.
        rkey: u32,
        /// Total payload bytes of the whole write (reported in `ImmDone`).
        total: u32,
        /// Immediate data (valid if `F_HAS_IMM`, on the last fragment).
        imm: u64,
        /// Payload-relative offsets (within this fragment) the receiver
        /// overwrites with its delivery timestamp as it applies the bytes.
        stamps: Stamps<'a>,
        /// Fragment payload.
        payload: &'a [u8],
    },
    /// RDMA-read request for `len` bytes at `(addr, rkey)`.
    ReadReq {
        /// Remote source address.
        addr: u64,
        /// Remote key naming the source region.
        rkey: u32,
        /// Bytes to read.
        len: u32,
    },
    /// RDMA-read response fragment, scattered into the initiator's local
    /// slice at `frag_off`.
    ReadResp {
        /// Total bytes of the whole response.
        total: u32,
        /// This fragment's offset.
        frag_off: u32,
        /// Fragment payload.
        payload: &'a [u8],
    },
    /// Remote-atomic request on the 8-byte word at `(addr, rkey)`.
    AtomicReq {
        /// Remote target address (8-aligned within its region).
        addr: u64,
        /// Remote key naming the target region.
        rkey: u32,
        /// Which atomic.
        akind: AtomicKind,
        /// Addend (FAA) or expected value (CAS).
        arg1: u64,
        /// Replacement value (CAS only).
        arg2: u64,
    },
    /// Remote-atomic response carrying the prior value.
    AtomicResp {
        /// Value at the remote word before the operation.
        old: u64,
    },
}

impl Body<'_> {
    fn kind(&self) -> Kind {
        match self {
            Body::Ack => Kind::Ack,
            Body::Send { .. } => Kind::Send,
            Body::Write { .. } => Kind::Write,
            Body::ReadReq { .. } => Kind::ReadReq,
            Body::ReadResp { .. } => Kind::ReadResp,
            Body::AtomicReq { .. } => Kind::AtomicReq,
            Body::AtomicResp { .. } => Kind::AtomicResp,
        }
    }
}

/// One frame: decoded from a datagram, or about to be encoded into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet<'a> {
    /// Flag bits (`F_LAST`, `F_HAS_IMM`, `F_ERR`).
    pub flags: u8,
    /// Sending node.
    pub src: NodeId,
    /// Intended receiver (guards against port-map confusion).
    pub dst: NodeId,
    /// Channel sequence number (0 and unused for ACKs).
    pub seq: u64,
    /// Piggybacked cumulative ACK of the reverse direction.
    pub ack: u64,
    /// Work-request correlation id (request/response matching).
    pub op: u64,
    /// Kind-specific body.
    pub body: Body<'a>,
}

fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(b: &mut Vec<u8>, payload: &[u8]) {
    put_u32(b, payload.len() as u32);
    b.extend_from_slice(payload);
}

/// Append a frame header. With [`put_write_body`], the transmit path's way
/// to encode a write whose stamp table is still a list of offsets rather
/// than the wire bytes [`Body::Write`] borrows; [`Packet::encode_into`] is
/// built from the same two functions.
#[allow(clippy::too_many_arguments)]
pub(super) fn put_header(
    out: &mut Vec<u8>,
    kind: Kind,
    flags: u8,
    src: NodeId,
    dst: NodeId,
    seq: u64,
    ack: u64,
    op: u64,
) {
    put_u16(out, MAGIC);
    out.push(kind as u8);
    out.push(flags);
    put_u32(out, src as u32);
    put_u32(out, dst as u32);
    put_u64(out, seq);
    put_u64(out, ack);
    put_u64(out, op);
}

/// Append the body of a write frame (see [`put_header`]).
pub(super) fn put_write_body(
    out: &mut Vec<u8>,
    addr: u64,
    rkey: u32,
    total: u32,
    imm: u64,
    stamps: impl Iterator<Item = u32>,
    payload: &[u8],
) {
    put_u64(out, addr);
    put_u32(out, rkey);
    put_u32(out, total);
    put_u64(out, imm);
    // The count goes in front of a table whose length is only known once
    // the iterator is spent: reserve it, then patch it.
    let count_at = out.len();
    put_u16(out, 0);
    let mut n = 0u16;
    for s in stamps.take(u16::MAX as usize) {
        put_u32(out, s);
        n += 1;
    }
    out[count_at..count_at + 2].copy_from_slice(&n.to_le_bytes());
    put_bytes(out, payload);
}

/// Overwrite the piggybacked cumulative ack of the encoded frame that
/// starts at `frame[0]` (stamped when a train is built, and again when a
/// stored frame is retransmitted).
pub(super) fn set_ack(frame: &mut [u8], ack: u64) {
    frame[ACK_AT..ACK_AT + 8].copy_from_slice(&ack.to_le_bytes());
}

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes(s.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
    /// Length-prefixed byte string, borrowed.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

impl<'a> Packet<'a> {
    /// Append this frame's encoding to `out` (a train under construction,
    /// or a channel's retransmit storage).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let kind = self.body.kind();
        put_header(out, kind, self.flags, self.src, self.dst, self.seq, self.ack, self.op);
        match &self.body {
            Body::Ack => {}
            Body::Send { total, frag_off, imm, payload } => {
                put_u32(out, *total);
                put_u32(out, *frag_off);
                put_u64(out, *imm);
                put_bytes(out, payload);
            }
            Body::Write { addr, rkey, total, imm, stamps, payload } => {
                put_write_body(out, *addr, *rkey, *total, *imm, stamps.iter(), payload);
            }
            Body::ReadReq { addr, rkey, len } => {
                put_u64(out, *addr);
                put_u32(out, *rkey);
                put_u32(out, *len);
            }
            Body::ReadResp { total, frag_off, payload } => {
                put_u32(out, *total);
                put_u32(out, *frag_off);
                put_bytes(out, payload);
            }
            Body::AtomicReq { addr, rkey, akind, arg1, arg2 } => {
                put_u64(out, *addr);
                put_u32(out, *rkey);
                out.push(match akind {
                    AtomicKind::FetchAdd => 0,
                    AtomicKind::CompareSwap => 1,
                });
                put_u64(out, *arg1);
                put_u64(out, *arg2);
            }
            Body::AtomicResp { old } => {
                put_u64(out, *old);
            }
        }
    }

    /// Parse the frame at the start of `b`, returning it and the number of
    /// bytes it occupied; the rest of `b` is the rest of the train. `None`
    /// for anything malformed or cut short (dropped silently, like line
    /// noise).
    pub fn decode_prefix(b: &'a [u8]) -> Option<(Packet<'a>, usize)> {
        let mut c = Cursor { b, at: 0 };
        if c.u16()? != MAGIC {
            return None;
        }
        let kind = Kind::from_u8(c.u8()?)?;
        let flags = c.u8()?;
        let src = c.u32()? as NodeId;
        let dst = c.u32()? as NodeId;
        let seq = c.u64()?;
        let ack = c.u64()?;
        let op = c.u64()?;
        let body = match kind {
            Kind::Ack => Body::Ack,
            Kind::Send => {
                let total = c.u32()?;
                let frag_off = c.u32()?;
                let imm = c.u64()?;
                Body::Send { total, frag_off, imm, payload: c.bytes()? }
            }
            Kind::Write => {
                let addr = c.u64()?;
                let rkey = c.u32()?;
                let total = c.u32()?;
                let imm = c.u64()?;
                let nstamp = c.u16()? as usize;
                let stamps = Stamps(c.take(nstamp * 4)?);
                Body::Write { addr, rkey, total, imm, stamps, payload: c.bytes()? }
            }
            Kind::ReadReq => Body::ReadReq { addr: c.u64()?, rkey: c.u32()?, len: c.u32()? },
            Kind::ReadResp => {
                let total = c.u32()?;
                let frag_off = c.u32()?;
                Body::ReadResp { total, frag_off, payload: c.bytes()? }
            }
            Kind::AtomicReq => {
                let addr = c.u64()?;
                let rkey = c.u32()?;
                let akind = match c.u8()? {
                    0 => AtomicKind::FetchAdd,
                    1 => AtomicKind::CompareSwap,
                    _ => return None,
                };
                Body::AtomicReq { addr, rkey, akind, arg1: c.u64()?, arg2: c.u64()? }
            }
            Kind::AtomicResp => Body::AtomicResp { old: c.u64()? },
        };
        Some((Packet { flags, src, dst, seq, ack, op, body }, c.at))
    }
}

/// Walk a received datagram frame by frame. Stops at the end of the
/// datagram or at the first frame that does not decode (a truncated last
/// frame, trailing garbage): everything before it is delivered, nothing
/// after it is guessed at.
pub fn frames(mut dgram: &[u8]) -> impl Iterator<Item = Packet<'_>> {
    std::iter::from_fn(move || {
        let (p, used) = Packet::decode_prefix(dgram)?;
        dgram = &dgram[used..];
        Some(p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAMP_TABLE: [u8; 8] = [0, 0, 0, 0, 24, 0, 0, 0];

    /// One frame of every [`Kind`], payloads included.
    fn one_of_each() -> Vec<Packet<'static>> {
        vec![
            Packet { flags: 0, src: 1, dst: 2, seq: 0, ack: 41, op: 0, body: Body::Ack },
            Packet {
                flags: F_LAST | F_HAS_IMM,
                src: 0,
                dst: 3,
                seq: 9,
                ack: 2,
                op: 77,
                body: Body::Send { total: 12, frag_off: 0, imm: 0xfeed, payload: b"hello photon" },
            },
            Packet {
                flags: F_LAST,
                src: 2,
                dst: 0,
                seq: 10,
                ack: 0,
                op: 78,
                body: Body::Write {
                    addr: 0x1000_0040,
                    rkey: 7,
                    total: 64,
                    imm: 0,
                    stamps: Stamps::from_le_bytes(&STAMP_TABLE),
                    payload: &[0xab; 64],
                },
            },
            Packet {
                flags: 0,
                src: 1,
                dst: 0,
                seq: 11,
                ack: 5,
                op: 80,
                body: Body::ReadReq { addr: 0x2000, rkey: 3, len: 4096 },
            },
            Packet {
                flags: F_LAST,
                src: 0,
                dst: 1,
                seq: 4,
                ack: 11,
                op: 80,
                body: Body::ReadResp { total: 4096, frag_off: 2048, payload: &[1; 2048] },
            },
            Packet {
                flags: F_LAST,
                src: 0,
                dst: 1,
                seq: 5,
                ack: 0,
                op: 81,
                body: Body::AtomicReq {
                    addr: 0x3000,
                    rkey: 9,
                    akind: AtomicKind::CompareSwap,
                    arg1: 17,
                    arg2: 18,
                },
            },
            Packet {
                flags: F_LAST,
                src: 1,
                dst: 0,
                seq: 6,
                ack: 5,
                op: 81,
                body: Body::AtomicResp { old: 17 },
            },
        ]
    }

    fn train_of(pkts: &[Packet<'_>]) -> Vec<u8> {
        let mut b = Vec::new();
        for p in pkts {
            p.encode_into(&mut b);
        }
        b
    }

    #[test]
    fn all_kinds_roundtrip_alone_and_as_one_train() {
        let pkts = one_of_each();
        for p in &pkts {
            let enc = train_of(std::slice::from_ref(p));
            assert_eq!(Packet::decode_prefix(&enc), Some((*p, enc.len())));
        }
        let train = train_of(&pkts);
        assert!(train.len() <= MAX_DGRAM);
        assert_eq!(frames(&train).collect::<Vec<_>>(), pkts);
        let stamps: Vec<u32> = match pkts[2].body {
            Body::Write { stamps, .. } => stamps.iter().collect(),
            _ => unreachable!(),
        };
        assert_eq!(stamps, [0, 24]);
    }

    #[test]
    fn damaged_tail_yields_the_intact_prefix() {
        let pkts = one_of_each();
        let whole = train_of(&pkts);
        let last_len = train_of(&pkts[pkts.len() - 1..]).len();
        // Cut anywhere inside the last frame: the six before it survive.
        for cut in 1..last_len {
            let got: Vec<_> = frames(&whole[..whole.len() - cut]).collect();
            assert_eq!(got, pkts[..pkts.len() - 1], "cut {cut} bytes off the tail");
        }
        // Trailing garbage after an intact train: the walk stops at it.
        let mut noisy = whole.clone();
        noisy.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3]);
        assert_eq!(frames(&noisy).collect::<Vec<_>>(), pkts);
        // A frame whose payload length field overshoots the datagram.
        let mut lying = train_of(&pkts[..2]);
        let len_at = lying.len() - 12 - 4;
        lying[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(frames(&lying).collect::<Vec<_>>(), pkts[..1]);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Packet::decode_prefix(&[]).is_none());
        assert!(Packet::decode_prefix(&[0u8; 10]).is_none());
        let mut ok = train_of(&one_of_each()[3..4]);
        ok[0] ^= 0xff; // clobber the magic
        assert!(Packet::decode_prefix(&ok).is_none());
    }

    #[test]
    fn set_ack_restamps_a_stored_frame() {
        let p = one_of_each()[3];
        let mut enc = train_of(&[p]);
        set_ack(&mut enc, 99);
        assert_eq!(Packet::decode_prefix(&enc).unwrap().0, Packet { ack: 99, ..p });
    }

    /// Bytes of `input` that `p`'s borrowed fields cover; `None` if any of
    /// them lies outside `input` (the type system already says they cannot).
    fn borrowed_inside(p: &Packet<'_>, input: &[u8]) -> Option<usize> {
        let inside = |s: &[u8]| {
            let (lo, hi) = (input.as_ptr() as usize, input.as_ptr() as usize + input.len());
            let at = s.as_ptr() as usize;
            (s.is_empty() || (at >= lo && at + s.len() <= hi)).then_some(s.len())
        };
        match p.body {
            Body::Send { payload, .. } | Body::ReadResp { payload, .. } => inside(payload),
            Body::Write { stamps, payload, .. } => Some(inside(stamps.0)? + inside(payload)?),
            _ => Some(0),
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes never panic the decoder, a decoded frame never
        /// claims more bytes than it was given, and everything it hands
        /// back is a view into the input: decoding allocates nothing, so
        /// no length field can make it allocate.
        #[test]
        fn decode_prefix_is_total_and_bounded(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..160),
            frame in 0usize..7,
            splice_at in 0usize..200,
        ) {
            // Raw noise, and noise spliced into a valid frame so the
            // decoder gets past the magic and into the length fields.
            let mut spliced = train_of(&one_of_each()[frame..frame + 1]);
            let at = splice_at % spliced.len();
            let n = noise.len().min(spliced.len() - at);
            spliced[at..at + n].copy_from_slice(&noise[..n]);
            for input in [&noise[..], &spliced[..]] {
                if let Some((p, used)) = Packet::decode_prefix(input) {
                    proptest::prop_assert!(used >= HDR && used <= input.len());
                    let held = borrowed_inside(&p, input);
                    proptest::prop_assert!(held.is_some_and(|h| h <= used));
                }
                let mut total = 0usize;
                for p in frames(input) {
                    total += HDR + borrowed_inside(&p, input).unwrap_or(usize::MAX / 2);
                }
                proptest::prop_assert!(total <= input.len());
            }
        }
    }
}
