//! Wire serialization for RPC payloads and envelopes.
//!
//! Little-endian, length-prefixed, no self-description — both sides run the
//! same binary (the action-registration discipline), so the method's
//! [`super::RpcMethod::Req`]/`Rep` types *are* the schema. Decoding is
//! defensive anyway: truncated or trailing bytes surface as
//! [`WireError::Malformed`], never panics, because requests cross trust
//! domains (a confused peer must not crash a server). Encoding is bounded
//! too: length prefixes are `u32`, so a body of 4 GiB or more is rejected
//! at encode time as [`WireError::TooLarge`] — truncating the prefix would
//! silently desync the codec.

use std::fmt;

/// Wire codec failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Decode failure: the bytes do not parse as the expected type.
    Malformed,
    /// Encode failure: a length-prefixed body is too large for its `u32`
    /// prefix (≥ 4 GiB); encoding it would truncate the prefix.
    TooLarge,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed => write!(f, "malformed wire bytes"),
            WireError::TooLarge => write!(f, "body exceeds u32 length prefix"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append a `u32` length prefix for a body of `len` bytes, rejecting bodies
/// the prefix cannot represent. All length-prefixed [`Wire`] impls funnel
/// through here, so the bound is enforced in exactly one place.
pub fn put_len_prefix(out: &mut Vec<u8>, len: usize) -> Result<(), WireError> {
    let n = u32::try_from(len).map_err(|_| WireError::TooLarge)?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

/// A cursor over undecoded input.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Take `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Take a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    /// Take a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Take a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> &'a [u8] {
        self.buf
    }

    /// Error unless every byte was consumed (catches schema drift).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed)
        }
    }
}

/// Types that can ride RPC payloads.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`. Fails only when a
    /// length-prefixed body exceeds its `u32` prefix.
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError>;
    /// Decode one value from the reader.
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encode to a fresh buffer.
    fn to_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.put(&mut out)?;
        Ok(out)
    }

    /// Decode from exactly `buf` (trailing bytes are an error).
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::take(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Wire for () {
    fn put(&self, _out: &mut Vec<u8>) -> Result<(), WireError> {
        Ok(())
    }
    fn take(_r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.push(*self as u8);
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed),
        }
    }
}

impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.push(*self);
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(&self.to_le_bytes());
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        out.extend_from_slice(&self.to_le_bytes());
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        put_len_prefix(out, self.len())?;
        out.extend_from_slice(self);
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        Ok(r.bytes(n)?.to_vec())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        put_len_prefix(out, self.len())?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.u32()? as usize;
        String::from_utf8(r.bytes(n)?.to_vec()).map_err(|_| WireError::Malformed)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out)?;
            }
        }
        Ok(())
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            _ => Err(WireError::Malformed),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.0.put(out)?;
        self.1.put(out)
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.0.put(out)?;
        self.1.put(out)?;
        self.2.put(out)
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?, C::take(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.0.put(out)?;
        self.1.put(out)?;
        self.2.put(out)?;
        self.3.put(out)
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::take(r)?, B::take(r)?, C::take(r)?, D::take(r)?))
    }
}

// ------------------------------------------------------------- envelopes

/// Reply status: the handler ran and succeeded.
pub(crate) const ST_OK: u8 = 0;
/// Reply status: the handler ran and returned an application error
/// (body is the UTF-8 message).
pub(crate) const ST_HANDLER_ERR: u8 = 1;
/// Reply status: the server has no such method registered.
pub(crate) const ST_NO_SUCH_METHOD: u8 = 2;
/// Reply status: at-most-once admission would exceed the dedup window's
/// in-flight capacity; retryable after backoff.
pub(crate) const ST_BUSY: u8 = 3;
/// Reply status: the request's sequence number fell below the dedup window
/// (its cached reply was evicted long ago); not retryable.
pub(crate) const ST_STALE: u8 = 4;
/// Reply status: the request was unserviceable as stated — its bytes did
/// not decode as the method's Req type, or its reply could not be encoded
/// within wire limits (body is an optional UTF-8 detail message).
pub(crate) const ST_BAD_REQUEST: u8 = 5;

/// A decoded request envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RequestEnvelope<'a> {
    /// Correlation id (caller-local; reply echoes it back).
    pub corr: u64,
    /// Caller's rank (reply destination).
    pub client_rank: u32,
    /// At-most-once client identity (0 for other policies).
    pub client_id: u64,
    /// At-most-once sequence number (0 for other policies).
    pub seq: u64,
    /// Delivery policy code.
    pub policy: u8,
    /// Method-name hash.
    pub method: u64,
    /// The encoded `Req` value.
    pub req: &'a [u8],
}

/// Encode a request envelope.
pub(crate) fn encode_request(
    corr: u64,
    client_rank: u32,
    client_id: u64,
    seq: u64,
    policy: u8,
    method: u64,
    req: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 8 + 8 + 1 + 8 + req.len());
    out.extend_from_slice(&corr.to_le_bytes());
    out.extend_from_slice(&client_rank.to_le_bytes());
    out.extend_from_slice(&client_id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(policy);
    out.extend_from_slice(&method.to_le_bytes());
    out.extend_from_slice(req);
    out
}

/// Decode a request envelope.
pub(crate) fn decode_request(buf: &[u8]) -> Result<RequestEnvelope<'_>, WireError> {
    let mut r = Reader::new(buf);
    let corr = r.u64()?;
    let client_rank = r.u32()?;
    let client_id = r.u64()?;
    let seq = r.u64()?;
    let policy = r.u8()?;
    let method = r.u64()?;
    Ok(RequestEnvelope { corr, client_rank, client_id, seq, policy, method, req: r.remaining() })
}

/// Encode a reply envelope: `[corr][status][body]`. The status+body tail is
/// exactly what the dedup window caches, so replayed replies are
/// byte-identical to the original (including handler errors).
pub(crate) fn encode_reply(corr: u64, status: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 1 + body.len());
    out.extend_from_slice(&corr.to_le_bytes());
    out.push(status);
    out.extend_from_slice(body);
    out
}

/// Decode a reply envelope into `(corr, status, body)`.
pub(crate) fn decode_reply(buf: &[u8]) -> Result<(u64, u8, &[u8]), WireError> {
    let mut r = Reader::new(buf);
    let corr = r.u64()?;
    let status = r.u8()?;
    Ok((corr, status, r.remaining()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_bytes(&v.to_bytes().unwrap()).unwrap(), v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(());
        round_trip(true);
        round_trip(false);
        round_trip(0xabu8);
        round_trip(0xdead_beefu32);
        round_trip(0x0123_4567_89ab_cdefu64);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Vec::<u8>::new());
        round_trip(vec![1u8, 2, 3]);
        round_trip(String::from("kv.get"));
        round_trip(Option::<Vec<u8>>::None);
        round_trip(Some(vec![9u8; 40]));
        round_trip((7u64, vec![1u8], String::from("x")));
        round_trip((1u8, 2u32, 3u64, Some(false)));
    }

    #[test]
    fn truncated_and_trailing_bytes_fail() {
        let enc = 0x1122_3344u32.to_bytes().unwrap();
        assert_eq!(u32::from_bytes(&enc[..3]), Err(WireError::Malformed));
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(u32::from_bytes(&extra), Err(WireError::Malformed));
        // Length prefix pointing past the buffer.
        let bogus = 100u32.to_le_bytes().to_vec();
        assert_eq!(Vec::<u8>::from_bytes(&bogus), Err(WireError::Malformed));
        // Bad bool/option discriminants.
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::Malformed));
        assert_eq!(Option::<u8>::from_bytes(&[7]), Err(WireError::Malformed));
        // Non-UTF-8 string bytes.
        let mut s = 2u32.to_le_bytes().to_vec();
        s.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&s), Err(WireError::Malformed));
    }

    #[test]
    fn length_prefix_boundary_at_u32_max() {
        // The bound check lives in `put_len_prefix`, so the boundary is
        // testable without materializing 4 GiB bodies: exactly `u32::MAX`
        // bytes still encode; one more must be rejected, not truncated.
        let mut out = Vec::new();
        put_len_prefix(&mut out, u32::MAX as usize).unwrap();
        assert_eq!(out, u32::MAX.to_le_bytes());
        out.clear();
        assert_eq!(put_len_prefix(&mut out, u32::MAX as usize + 1), Err(WireError::TooLarge));
        assert!(out.is_empty(), "a rejected prefix must write nothing");
        // And a plainly huge length maps to the same error.
        assert_eq!(put_len_prefix(&mut out, usize::MAX), Err(WireError::TooLarge));
    }

    #[test]
    fn oversized_bodies_poison_the_whole_encode() {
        // A too-large field inside a composite value fails the composite's
        // encode (no partial emission of later fields).
        struct Huge;
        impl Wire for Huge {
            fn put(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
                put_len_prefix(out, u32::MAX as usize + 1)
            }
            fn take(_r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Huge)
            }
        }
        assert_eq!((7u64, Huge).to_bytes().unwrap_err(), WireError::TooLarge);
        assert_eq!(Some(Huge).to_bytes().unwrap_err(), WireError::TooLarge);
    }

    #[test]
    fn request_envelope_round_trips() {
        let enc = encode_request(42, 3, 17, 9, 2, 0xfeed, b"payload");
        let env = decode_request(&enc).unwrap();
        assert_eq!(
            env,
            RequestEnvelope {
                corr: 42,
                client_rank: 3,
                client_id: 17,
                seq: 9,
                policy: 2,
                method: 0xfeed,
                req: b"payload",
            }
        );
        assert_eq!(decode_request(&enc[..10]), Err(WireError::Malformed));
    }

    #[test]
    fn reply_envelope_round_trips() {
        let enc = encode_reply(7, ST_OK, b"body");
        assert_eq!(decode_reply(&enc).unwrap(), (7, ST_OK, &b"body"[..]));
        assert_eq!(decode_reply(&enc[..5]), Err(WireError::Malformed));
    }

    /// Counts this thread's heap allocations, so a decoder can be shown to
    /// reject a huge length prefix *before* allocating for it. Per thread:
    /// the other tests in this binary allocate concurrently.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: every call forwards to `System` unchanged; the counter is a
    // const-initialised thread local without a destructor, so touching it
    // neither allocates nor fails.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    /// Fixed header bytes of a request / reply envelope.
    const REQ_HDR: usize = 8 + 4 + 8 + 8 + 1 + 8;
    const REP_HDR: usize = 8 + 1;

    /// `part` lies inside `input`, by pointer range.
    fn within(part: &[u8], input: &[u8]) -> bool {
        let (lo, at) = (input.as_ptr() as usize, part.as_ptr() as usize);
        at >= lo && at + part.len() <= lo + input.len()
    }

    /// `v` round-trips, and every strict prefix of its encoding is
    /// `Malformed` (every byte of a [`Wire`] encoding is load-bearing).
    fn prefixes_fail<T: Wire + PartialEq + std::fmt::Debug>(
        v: T,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let enc = v.to_bytes().unwrap();
        proptest::prop_assert_eq!(T::from_bytes(&enc), Ok(v));
        for cut in 0..enc.len() {
            proptest::prop_assert_eq!(T::from_bytes(&enc[..cut]), Err(WireError::Malformed));
        }
        Ok(())
    }

    proptest::proptest! {
        /// Arbitrary bytes never panic a decoder; the envelope decoders
        /// hand back views into the input rather than copies; strict
        /// prefixes of valid encodings are `Malformed`; and a `u32::MAX`
        /// length prefix is refused before anything is allocated for it.
        #[test]
        fn decoders_are_total_and_bounded(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24),
            corr in proptest::prelude::any::<u64>(),
        ) {
            if let Ok(env) = decode_request(&noise) {
                proptest::prop_assert_eq!(env.req.len(), noise.len() - REQ_HDR);
                proptest::prop_assert!(within(env.req, &noise));
            }
            if let Ok((_, _, rest)) = decode_reply(&noise) {
                proptest::prop_assert_eq!(rest.len(), noise.len() - REP_HDR);
                proptest::prop_assert!(within(rest, &noise));
            }
            let _ = Vec::<u8>::from_bytes(&noise);
            let _ = String::from_bytes(&noise);
            let _ = Option::<Vec<u8>>::from_bytes(&noise);
            let _ = <(u64, Vec<u8>, String)>::from_bytes(&noise);
            let _ = <(u8, u32, u64, Option<bool>)>::from_bytes(&noise);
            let _ = <(Option<String>, Vec<u8>)>::from_bytes(&noise);

            let text: String = body.iter().map(|b| char::from(b'a' + b % 26)).collect();
            prefixes_fail(body.clone())?;
            prefixes_fail(text.clone())?;
            prefixes_fail(Some(body.clone()))?;
            prefixes_fail(Option::<String>::None)?;
            prefixes_fail((corr, body.clone(), text.clone()))?;
            prefixes_fail((Some(text), body.clone()))?;
            let req = encode_request(corr, 1, 2, 3, 4, 5, &body);
            let rep = encode_reply(corr, ST_OK, &body);
            for cut in 0..REQ_HDR {
                proptest::prop_assert_eq!(decode_request(&req[..cut]), Err(WireError::Malformed));
            }
            for cut in 0..REP_HDR {
                proptest::prop_assert_eq!(decode_reply(&rep[..cut]), Err(WireError::Malformed));
            }

            let mut huge = u32::MAX.to_le_bytes().to_vec();
            huge.extend_from_slice(&noise);
            let before = ALLOCS.with(Cell::get);
            let (v, s) = (Vec::<u8>::from_bytes(&huge), String::from_bytes(&huge));
            let allocs = ALLOCS.with(Cell::get) - before;
            proptest::prop_assert_eq!((v, s), (Err(WireError::Malformed), Err(WireError::Malformed)));
            proptest::prop_assert_eq!(allocs, 0);
        }
    }
}
