//! Reliable delivery over one `(src, dst)` direction: cumulative
//! sequence/ack with go-back-N retransmission and bounded retry.
//!
//! All QPs between one pair of nodes share a channel, so channel order
//! implies per-QP order (strictly stronger, as on a shared RC link). A
//! channel that exhausts its retry budget is *failed*: every QP to the peer
//! enters the error state and pending work requests resolve as
//! [`crate::verbs::WcStatus::RetryExceeded`] completions — the sockets
//! analogue of `IBV_WC_RETRY_EXC_ERR`.
//!
//! Frames are encoded exactly once, straight into the channel's
//! retransmit storage: one contiguous byte buffer holding every unacked
//! frame in sequence order. A **train** — the datagram that actually hits
//! the wire — is therefore just a slice of that buffer: the unsent frames
//! the window admits, up to one datagram's worth, sent with a single
//! `sendto` and no copy. First transmissions, ack-driven window openings
//! and timeout resends all leave through the one `pump_window`.

use super::stats::SockStats;
use super::wire::{self, Body, Kind, Packet, F_ERR, MAX_DGRAM, MAX_FRAG};
use crate::verbs::CompletionKind;
use crate::NodeId;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// In-flight window: frames past either cap wait, already sequenced, for
/// ack progress before hitting the wire.
pub const WINDOW_PKTS: usize = 128;
/// Byte-based companion cap, keeping bursts under the default UDP socket
/// buffer on localhost.
pub const WINDOW_BYTES: usize = 256 * 1024;

/// Initial retransmission timeout; doubles per round up to [`RTO_MAX`].
pub const RTO_INITIAL: Duration = Duration::from_millis(20);
/// Retransmission timeout ceiling.
pub const RTO_MAX: Duration = Duration::from_millis(200);
/// Retransmit rounds without ack progress before the channel fails.
pub const MAX_TRIES: u32 = 10;

/// Retransmit storage kept across an idle moment. A full window is
/// [`WINDOW_BYTES`]; twice that covers a window in flight plus one queued
/// behind it. Storage that grew past this for one large transfer is
/// returned to the allocator when the channel drains, so memory follows
/// demand.
const STORAGE_KEEP: usize = 2 * WINDOW_BYTES;

/// Where a datagram leaves the process. The transmit path sees only this,
/// so a test can put a lossy transport under an otherwise real endpoint.
pub(super) trait Datagram: Send + Sync + fmt::Debug {
    /// Send `buf` as one datagram to `to`.
    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<usize>;
}

impl Datagram for UdpSocket {
    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<usize> {
        UdpSocket::send_to(self, buf, to)
    }
}

/// What every channel of one endpoint transmits through and counts into.
#[derive(Debug)]
pub(super) struct Wire {
    pub out: Arc<dyn Datagram>,
    pub stats: SockStats,
}

impl Wire {
    fn send(&self, dgram: &[u8], to: SocketAddr) {
        SockStats::bump(&self.stats.datagrams_tx);
        // A send error is a lost datagram: the retransmission timer owns
        // recovery, and a peer that stays unreachable exhausts the budget.
        let _ = self.out.send_to(dgram, to);
    }
}

/// What to resolve when a sequenced frame is cumulatively acked: the
/// initiator-side completion of the work request whose last fragment this
/// was.
#[derive(Debug)]
pub struct OpDone {
    /// Op correlation id (for remote-validation errors arriving by ACK).
    pub op: u64,
    /// Caller cookie for the completion.
    pub wr_id: u64,
    /// False for unsignaled wrs: resolve silently, no CQE.
    pub signaled: bool,
    /// `SendDone` or `WriteDone`.
    pub kind: CompletionKind,
    /// Remote validation failed (set by an `F_ERR` ACK before the frame
    /// was acked).
    pub errored: bool,
}

#[derive(Debug)]
struct TxState {
    /// Highest cumulatively acked sequence. `frames[i]` carries sequence
    /// `acked + 1 + i`.
    acked: u64,
    /// Encoded frames, back to back in sequence order; the first unacked
    /// frame starts at `head`.
    buf: Vec<u8>,
    head: usize,
    /// Encoded length of each unacked frame.
    frames: VecDeque<u32>,
    /// `frames[..sent_pkts]` have hit the wire and are in flight; the rest
    /// is the open train (or waits for the window).
    sent_pkts: usize,
    /// Bytes of that in-flight prefix.
    sent_bytes: usize,
    /// Completions to resolve at cumulative ack, keyed by seq (ascending).
    on_ack: VecDeque<(u64, OpDone)>,
    /// Last transmission or ack-progress instant (RTO anchor).
    last_activity: Instant,
    /// Retransmit rounds since the last ack progress.
    tries: u32,
    current_rto: Duration,
}

impl TxState {
    /// Drop the storage of acked frames once that is cheap: for free when
    /// nothing is left, by one move of the live tail once the dead prefix
    /// is at least as long (so every byte is moved at most once per byte
    /// acked).
    fn reclaim(&mut self) {
        if self.frames.is_empty() {
            self.buf.clear();
            self.head = 0;
            if self.buf.capacity() > STORAGE_KEEP {
                self.buf = Vec::new();
            }
        } else if self.head >= MAX_DGRAM && self.head >= self.buf.len() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// One direction of a node pair: reliable transmission toward `peer` plus
/// in-order acceptance of `peer`'s frames.
#[derive(Debug)]
pub struct Channel {
    /// The local node (the `src` of every frame sent here).
    me: NodeId,
    /// The remote node.
    pub peer: NodeId,
    /// The remote node's datagram address.
    pub peer_addr: SocketAddr,
    wire: Arc<Wire>,
    tx: Mutex<TxState>,
    failed: AtomicBool,
    /// Frames wait unsent (an open train, or held back by the window).
    /// Written under the tx lock; read without it by the flush walk.
    unsent: AtomicBool,
    /// Mirror of `tx.acked`, so a frame whose piggybacked ack says nothing
    /// new costs one load instead of the tx lock.
    acked_mirror: AtomicU64,
    /// Highest in-order sequence accepted from the peer. Only the holder of
    /// the endpoint's drain turn writes it; the `Release` store pairs with
    /// the `Acquire` load of whichever thread stamps it into a train, so an
    /// ack never overtakes the memory effects it acknowledges.
    rx_cum: AtomicU64,
    /// Highest cumulative ack advertised to the peer, on a train or alone.
    ack_sent: AtomicU64,
    /// The peer sent sequenced frames this drain pass (the pass owes it an
    /// ack). Drain-turn holder only.
    pub(super) touched: AtomicBool,
}

/// Appends frames to a channel under its transmit lock: each call
/// sequences one frame and encodes it into the retransmit storage.
pub(super) struct TxWriter<'a> {
    ch: &'a Channel,
    tx: MutexGuard<'a, TxState>,
    /// A frame holding at least one full fragment was appended.
    bulk: bool,
}

impl TxWriter<'_> {
    fn next_seq(&self) -> u64 {
        self.tx.acked + self.tx.frames.len() as u64 + 1
    }

    fn pushed(&mut self, start: usize) {
        let len = self.tx.buf.len() - start;
        self.bulk |= len > MAX_FRAG;
        self.tx.frames.push_back(len as u32);
    }

    /// Sequence and encode one frame.
    pub fn frame(&mut self, flags: u8, op: u64, body: Body<'_>) {
        let (src, dst, seq) = (self.ch.me, self.ch.peer, self.next_seq());
        let start = self.tx.buf.len();
        Packet { flags, src, dst, seq, ack: 0, op, body }.encode_into(&mut self.tx.buf);
        self.pushed(start);
    }

    /// Sequence and encode one write fragment whose stamp table is still an
    /// offset list.
    #[allow(clippy::too_many_arguments)]
    pub fn write_frame(
        &mut self,
        flags: u8,
        op: u64,
        addr: u64,
        rkey: u32,
        total: u32,
        imm: u64,
        stamps: impl Iterator<Item = u32>,
        payload: &[u8],
    ) {
        let (src, dst, seq) = (self.ch.me, self.ch.peer, self.next_seq());
        let start = self.tx.buf.len();
        wire::put_header(&mut self.tx.buf, Kind::Write, flags, src, dst, seq, 0, op);
        wire::put_write_body(&mut self.tx.buf, addr, rkey, total, imm, stamps, payload);
        self.pushed(start);
    }

    /// Resolve `done` when the frame appended last is cumulatively acked.
    pub fn complete_on_ack(&mut self, done: OpDone) {
        let seq = self.next_seq() - 1;
        self.tx.on_ack.push_back((seq, done));
    }
}

impl Channel {
    /// Fresh channel from `me` toward `peer` at `peer_addr`.
    pub(super) fn new(me: NodeId, peer: NodeId, peer_addr: SocketAddr, wire: Arc<Wire>) -> Channel {
        Channel {
            me,
            peer,
            peer_addr,
            wire,
            tx: Mutex::new(TxState {
                acked: 0,
                buf: Vec::new(),
                head: 0,
                frames: VecDeque::new(),
                sent_pkts: 0,
                sent_bytes: 0,
                on_ack: VecDeque::new(),
                last_activity: Instant::now(),
                tries: 0,
                current_rto: RTO_INITIAL,
            }),
            failed: AtomicBool::new(false),
            unsent: AtomicBool::new(false),
            acked_mirror: AtomicU64::new(0),
            rx_cum: AtomicU64::new(0),
            ack_sent: AtomicU64::new(0),
            touched: AtomicBool::new(false),
        }
    }

    /// True once the retry budget is exhausted.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Append the frames `build` writes, then either let them ride the
    /// channel's open train or send them now. They go now when `send_now`
    /// says so (evaluated *after* the frames are queued — `SockNic::enqueue`
    /// has why the order matters),
    /// when one of them holds bulk data, or when the open train would
    /// overflow a datagram or the window. Returns `None` on a failed
    /// channel, else whether frames are left that the window does not admit.
    pub(super) fn post(
        &self,
        build: impl FnOnce(&mut TxWriter<'_>),
        send_now: impl FnOnce() -> bool,
    ) -> Option<bool> {
        if self.is_failed() {
            return None;
        }
        let mut w = TxWriter { ch: self, tx: self.tx.lock(), bulk: false };
        build(&mut w);
        let TxWriter { mut tx, bulk, .. } = w;
        self.unsent.store(tx.sent_pkts < tx.frames.len(), Ordering::Relaxed);
        let send_now = send_now();
        let open_bytes = tx.buf.len() - tx.head - tx.sent_bytes;
        let pump = send_now || bulk || open_bytes > MAX_DGRAM || tx.frames.len() > WINDOW_PKTS;
        if pump {
            self.pump_window(&mut tx);
        }
        Some(pump && tx.sent_pkts < tx.frames.len())
    }

    /// Send whatever waits unsent and the window admits (the flush of an
    /// open train). One relaxed load when nothing waits.
    pub(super) fn flush(&self) {
        if self.unsent.load(Ordering::Relaxed) {
            self.pump_window(&mut self.tx.lock());
        }
    }

    /// Transmit the unsent frames the window admits, as trains: each
    /// datagram is the longest run of them that fits [`MAX_DGRAM`], sent
    /// from the retransmit storage in place, every header stamped with the
    /// current cumulative ack as the train is built.
    fn pump_window(&self, tx: &mut TxState) {
        let stats = &self.wire.stats;
        let ack = self.rx_cum.load(Ordering::Acquire);
        let mut sent_any = false;
        loop {
            let start = tx.head + tx.sent_bytes;
            let (mut n, mut bytes) = (0usize, 0usize);
            while let Some(&len) = tx.frames.get(tx.sent_pkts + n) {
                let len = len as usize;
                let in_flight = tx.sent_bytes + bytes;
                if tx.sent_pkts + n >= WINDOW_PKTS
                    || (in_flight > 0 && in_flight + len > WINDOW_BYTES)
                    || (n > 0 && bytes + len > MAX_DGRAM)
                {
                    break;
                }
                wire::set_ack(&mut tx.buf[start + bytes..], ack);
                n += 1;
                bytes += len;
            }
            if n == 0 {
                break;
            }
            self.wire.send(&tx.buf[start..start + bytes], self.peer_addr);
            SockStats::bump(&stats.trains_tx);
            SockStats::add(&stats.frames_tx, n as u64);
            tx.sent_pkts += n;
            tx.sent_bytes += bytes;
            sent_any = true;
        }
        if sent_any {
            tx.last_activity = Instant::now();
            self.ack_sent.fetch_max(ack, Ordering::Relaxed);
        }
        self.unsent.store(tx.sent_pkts < tx.frames.len(), Ordering::Relaxed);
    }

    /// Process a cumulative ack from the peer, appending the completions it
    /// resolved to `done` in seq order; an ack that opens the window sends
    /// what was waiting behind it. `err_op` carries an op id the peer
    /// flagged as failing remote validation (`F_ERR`).
    pub(super) fn on_ack(&self, ack: u64, err_op: Option<u64>, done: &mut Vec<OpDone>) {
        if err_op.is_none() && ack <= self.acked_mirror.load(Ordering::Relaxed) {
            return;
        }
        let mut tx = self.tx.lock();
        if let Some(bad) = err_op {
            for (_, d) in tx.on_ack.iter_mut() {
                if d.op == bad {
                    d.errored = true;
                }
            }
        }
        // Only frames that hit the wire can be acked; a larger value is a
        // confused peer and must not release frames nobody received.
        let ack = ack.min(tx.acked + tx.sent_pkts as u64);
        if ack > tx.acked {
            let n = (ack - tx.acked) as usize;
            let bytes: usize = tx.frames.drain(..n).map(|len| len as usize).sum();
            tx.head += bytes;
            tx.sent_pkts -= n;
            tx.sent_bytes -= bytes;
            tx.acked = ack;
            self.acked_mirror.store(ack, Ordering::Relaxed);
            tx.tries = 0;
            tx.current_rto = RTO_INITIAL;
            tx.last_activity = Instant::now();
            tx.reclaim();
            self.pump_window(&mut tx);
        }
        while tx.on_ack.front().is_some_and(|(s, _)| *s <= tx.acked) {
            done.extend(tx.on_ack.pop_front().map(|(_, d)| d));
        }
    }

    /// Retransmission tick: if the RTO expired, the in-flight frames go
    /// out again (go-back-N), as trains, through [`Channel::pump_window`].
    /// Returns `true` when this tick exhausted the retry budget (the caller
    /// fails the channel and flushes its ops).
    pub(super) fn tick(&self, now: Instant) -> bool {
        if self.is_failed() {
            return false;
        }
        let mut tx = self.tx.lock();
        if tx.sent_pkts == 0 || now.duration_since(tx.last_activity) < tx.current_rto {
            return false;
        }
        tx.tries += 1;
        if tx.tries > MAX_TRIES {
            return true;
        }
        tx.current_rto = (tx.current_rto * 2).min(RTO_MAX);
        SockStats::bump(&self.wire.stats.rto_fires);
        SockStats::add(&self.wire.stats.retransmits, tx.sent_pkts as u64);
        tx.sent_pkts = 0;
        tx.sent_bytes = 0;
        self.pump_window(&mut tx);
        false
    }

    /// Fail the channel, appending every pending completion to `done`
    /// (they resolve as `RetryExceeded` at the caller).
    pub(super) fn fail(&self, done: &mut Vec<OpDone>) {
        self.failed.store(true, Ordering::Release);
        let mut tx = self.tx.lock();
        tx.frames.clear();
        (tx.sent_pkts, tx.sent_bytes) = (0, 0);
        tx.reclaim();
        self.unsent.store(false, Ordering::Relaxed);
        done.extend(tx.on_ack.drain(..).map(|(_, d)| d));
    }

    /// In-order acceptance of a sequenced frame: `true` to process it (it
    /// is the expected one), `false` to drop it (duplicate or out-of-order
    /// under go-back-N). Drain-turn holder only.
    pub(super) fn accept(&self, seq: u64) -> bool {
        if seq == self.rx_cum.load(Ordering::Relaxed) + 1 {
            self.rx_cum.store(seq, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Advertise the cumulative ack in a datagram of its own if the peer
    /// has not been told yet (a train built since the frames arrived may
    /// have carried it), or regardless when `force`d: the go-back-N
    /// re-advertisement that answers a duplicate, and the `F_ERR` ack that
    /// names `err_op` as failing remote validation.
    /// `scratch` is where the datagram is built.
    pub(super) fn send_ack(&self, force: bool, err_op: Option<u64>, scratch: &mut Vec<u8>) {
        let cum = self.rx_cum.load(Ordering::Relaxed);
        if !force && cum <= self.ack_sent.load(Ordering::Relaxed) {
            return;
        }
        self.ack_sent.fetch_max(cum, Ordering::Relaxed);
        scratch.clear();
        Packet {
            flags: if err_op.is_some() { F_ERR } else { 0 },
            src: self.me,
            dst: self.peer,
            seq: 0,
            ack: cum,
            op: err_op.unwrap_or(0),
            body: Body::Ack,
        }
        .encode_into(scratch);
        SockStats::bump(&self.wire.stats.acks_tx);
        self.wire.send(scratch, self.peer_addr);
    }

    /// Whether any frames await (re)transmission or acknowledgement.
    #[cfg(test)]
    pub fn has_unacked(&self) -> bool {
        !self.tx.lock().frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_sock() -> UdpSocket {
        let s = UdpSocket::bind("127.0.0.1:0").expect("bind");
        s.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        s
    }

    /// A channel from node 0 to node 1 whose datagrams land in the returned
    /// socket.
    fn chan_into_sink() -> (Channel, UdpSocket) {
        let sink = loop_sock();
        let wire = Arc::new(Wire { out: Arc::new(loop_sock()), stats: SockStats::default() });
        (Channel::new(0, 1, sink.local_addr().unwrap(), wire), sink)
    }

    fn read_req(w: &mut TxWriter<'_>, op: u64) {
        w.frame(0, op, Body::ReadReq { addr: 0, rkey: 0, len: 8 });
    }

    fn write_done(op: u64, wr_id: u64) -> OpDone {
        OpDone { op, wr_id, signaled: true, kind: CompletionKind::WriteDone, errored: false }
    }

    fn recv_frames(sink: &UdpSocket) -> Vec<(u64, u64)> {
        let mut buf = vec![0u8; MAX_DGRAM];
        let n = sink.recv(&mut buf).expect("a datagram");
        wire::frames(&buf[..n]).map(|p| (p.seq, p.ack)).collect()
    }

    #[test]
    fn seq_assignment_and_cumulative_ack() {
        let (ch, _sink) = chan_into_sink();
        let full = ch.post(
            |w| {
                (1..=3).for_each(|op| read_req(w, op));
                w.complete_on_ack(write_done(7, 42));
            },
            || true,
        );
        assert_eq!(full, Some(false));
        assert!(ch.has_unacked());
        let mut done = Vec::new();
        // Ack of the middle frame resolves nothing (op rides frame 3).
        ch.on_ack(2, None, &mut done);
        assert!(done.is_empty());
        ch.on_ack(3, None, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].wr_id, 42);
        assert!(!done[0].errored);
        assert!(!ch.has_unacked());
    }

    #[test]
    fn err_ack_marks_op() {
        let (ch, _sink) = chan_into_sink();
        ch.post(
            |w| {
                read_req(w, 9);
                w.complete_on_ack(write_done(9, 1));
            },
            || true,
        );
        let mut done = Vec::new();
        ch.on_ack(1, Some(9), &mut done);
        assert_eq!(done.len(), 1);
        assert!(done[0].errored);
    }

    #[test]
    fn rx_accept_is_in_order_and_acks_are_not_repeated() {
        let (ch, sink) = chan_into_sink();
        assert!(ch.accept(1));
        assert!(!ch.accept(3)); // gap: go-back-N drops it
        assert!(ch.accept(2));
        ch.send_ack(false, None, &mut Vec::new());
        assert_eq!(recv_frames(&sink), [(0, 2)]);
        ch.send_ack(false, None, &mut Vec::new()); // nothing new: no datagram
        ch.send_ack(true, None, &mut Vec::new()); // forced re-advertisement
        assert_eq!(recv_frames(&sink), [(0, 2)]);
        assert!(!ch.accept(1)); // duplicate
        assert_eq!(ch.wire.stats.snapshot().acks_tx, 2);
    }

    #[test]
    fn queued_frames_leave_as_one_train_carrying_the_ack() {
        let (ch, sink) = chan_into_sink();
        // The owner is polling (`send_now` false): five posts, no datagram.
        for op in 1..=5 {
            assert_eq!(ch.post(|w| read_req(w, op), || false), Some(false));
        }
        assert_eq!(ch.wire.stats.snapshot().datagrams_tx, 0);
        // Frames 1 and 2 of the peer arrive before the flush: the train
        // acknowledges them, and no ack of its own is owed afterwards.
        assert!(ch.accept(1) && ch.accept(2));
        ch.flush();
        assert_eq!(recv_frames(&sink), [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]);
        ch.send_ack(false, None, &mut Vec::new());
        let s = ch.wire.stats.snapshot();
        assert_eq!((s.datagrams_tx, s.trains_tx, s.frames_tx, s.acks_tx), (1, 1, 5, 0));
        // Nobody polling: the next post leaves at once.
        ch.post(|w| read_req(w, 6), || true);
        assert_eq!(recv_frames(&sink), [(6, 2)]);
    }

    #[test]
    fn window_holds_frames_back_until_acked_and_a_false_ack_frees_nothing() {
        let (ch, sink) = chan_into_sink();
        let n = WINDOW_PKTS as u64 + 10;
        let mut full = Some(false);
        for op in 1..=n {
            full = ch.post(|w| read_req(w, op), || false);
        }
        // Overrunning the window flushed the train and reported it full.
        assert_eq!(full, Some(true));
        let first = recv_frames(&sink);
        assert_eq!(first.len(), WINDOW_PKTS);
        assert_eq!(first.last().unwrap().0, WINDOW_PKTS as u64);
        let mut done = Vec::new();
        // An ack beyond what was sent is clamped to it.
        ch.on_ack(n + 5, None, &mut done);
        let rest: Vec<u64> = recv_frames(&sink).iter().map(|f| f.0).collect();
        assert_eq!(rest, (WINDOW_PKTS as u64 + 1..=n).collect::<Vec<_>>());
        assert!(ch.has_unacked());
        ch.on_ack(n, None, &mut done);
        assert!(!ch.has_unacked());
    }

    #[test]
    fn bulk_frames_leave_at_once_one_per_datagram() {
        let (ch, sink) = chan_into_sink();
        let payload = vec![7u8; MAX_FRAG];
        ch.post(
            |w| {
                for _ in 0..3 {
                    w.write_frame(0, 1, 0, 0, 0, 0, std::iter::empty(), &payload);
                }
                w.write_frame(0, 1, 0, 0, 0, 0, std::iter::empty(), &payload[..100]);
            },
            || false,
        );
        // Two full fragments cannot share a datagram; the short tail rides
        // with the last of them.
        assert_eq!(recv_frames(&sink).len(), 1);
        assert_eq!(recv_frames(&sink).len(), 1);
        assert_eq!(recv_frames(&sink).len(), 2);
        let mut done = Vec::new();
        ch.on_ack(4, None, &mut done);
        let tx = ch.tx.lock();
        assert!(tx.buf.is_empty() && tx.head == 0, "drained storage starts over");
    }

    #[test]
    fn timeout_resends_the_window_as_a_train_then_the_budget_runs_out() {
        let (ch, sink) = chan_into_sink();
        for op in 1..=4 {
            ch.post(|w| read_req(w, op), || false);
        }
        ch.flush();
        assert_eq!(recv_frames(&sink).len(), 4);
        let far = Instant::now();
        assert!(!ch.tick(far), "RTO not yet expired");
        let mut failed = false;
        for i in 0..(MAX_TRIES + 2) {
            // Pretend ever-later ticks so every tick fires the RTO.
            let t = far + Duration::from_secs(u64::from(i + 1) * 10);
            if ch.tick(t) {
                failed = true;
                break;
            }
            assert_eq!(recv_frames(&sink).len(), 4, "resend {i} is one train");
        }
        assert!(failed);
        let s = ch.wire.stats.snapshot();
        assert_eq!((s.rto_fires, s.retransmits), (MAX_TRIES as u64, 4 * MAX_TRIES as u64));
        let mut flushed = Vec::new();
        ch.fail(&mut flushed);
        assert!(ch.is_failed());
        assert!(flushed.is_empty());
        assert_eq!(ch.post(|w| read_req(w, 9), || true), None);
    }
}
