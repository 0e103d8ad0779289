//! Progress: who receives, when, and what a receive pass does.
//!
//! Photon's completion model is probe-driven — an operation advances when
//! its owner polls — and this backend keeps to it: the thread that calls
//! `poll_*_cq*` drains the socket itself, executes what arrived against
//! local registered memory, and finds the completions it caused in the CQ
//! it is about to read. No hand-off, no wake-up, no second thread on the
//! critical path.
//!
//! **The drain turn.** Receiving is single-flight: whoever holds the
//! endpoint's [`Turn`] is the only thread reading the socket, so datagrams
//! are handled in arrival order (go-back-N would drop anything a second
//! reader handled early). The turn is only ever *tried*: a caller that
//! finds it taken lets the holder do the work and reads the CQ as it is.
//! One pass receives until the socket is empty (non-blocking), walks each
//! datagram's train frame by frame, and then — once, at the end — sends
//! what the pass produced: open trains (responses, window openings), one
//! cumulative ack per peer that sent sequenced frames (unless a train just
//! carried it), and at most once a millisecond the retransmission timers.
//! `F_ERR` acks and the re-advertisement that answers a duplicate do not
//! wait for the end of the pass.
//!
//! **The reactor thread** exists because a passive target must be served
//! with nobody polling it. It decides what to do from one observable: how
//! long ago the endpoint's owner last made a progress call.
//!
//! * *Armed* — the owner has been quiet for longer than [`HOT_WINDOW`]. The
//!   reactor takes the turn and blocks in `recv`: one wait system call per
//!   wake-up, which returns the first datagram; non-blocking receives pick
//!   up the rest. While armed, posts send at once
//!   ([`super::nic::SockNic::post_send_many`]) — there is no next progress
//!   call for a train to wait for.
//! * *Standby* — the owner is polling. The reactor stays *runnable*
//!   (`yield_now` in a loop) and takes the turn by `try_lock` whenever it
//!   is scheduled. On a busy core that is exactly when the owner has
//!   yielded inside a blocking wait or been preempted: the moments the
//!   owner is not polling. It must not sleep: with one driver thread
//!   stepping two ranks, rank 1 goes unpolled for as long as the driver
//!   blocks on rank 0, and a reactor asleep for a millisecond makes that
//!   round trip a millisecond long. It must not block on the socket
//!   either: a reactor woken per datagram while the owner also drains pays
//!   a context switch per datagram and races the owner for the turn.
//!
//! No frame ever waits on a timer. A frame posted while the owner is
//! polling joins its channel's open train and leaves at the owner's next
//! progress call or the standby reactor's next turn, whichever comes
//! first, and the reactor is runnable; a frame posted while the owner is
//! not polling, or while the reactor is armed, leaves inside the post.

use super::chan::{Channel, OpDone};
use super::nic::{fragments, PendingOp, Reasm, SockNic};
use super::stats::SockStats;
use super::sys;
use super::wire::{self, Body, Packet, F_ERR, F_HAS_IMM, F_LAST, MAX_DGRAM};
use crate::backend::FabricBackend;
use crate::clock::VTime;
use crate::verbs::{Completion, CompletionKind, WcStatus};
use crate::NodeId;
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long after its last progress call an endpoint's owner still counts
/// as polling. Derived from the two gaps it has to sit between. Below it:
/// the longest pause of an owner that *is* polling — a single driver
/// stepping several ranks leaves each unpolled for a peer round trip
/// (10–20 µs on loopback), and one yielding inside a blocking wait on a
/// shared core waits out the other runnable threads' turns (tens of µs,
/// since standby reactors yield straight back). Above it: nothing forces a
/// ceiling but the cost of lingering — a standby reactor spins on
/// `yield_now` for this long after the owner's last poll. A wrong guess in
/// either direction costs one wake-up or a millisecond of yields, never an
/// operation.
pub(super) const HOT_WINDOW: Duration = Duration::from_millis(1);

/// Retransmission timers run at most this often, whoever holds the turn.
const TICK: Duration = Duration::from_millis(1);

/// Read timeout of the armed wait. It only bounds how late a retransmission
/// timer can run with nobody polling (the kernel rounds it up to a
/// scheduler tick); shutdown does not wait for it, it sends a wake-up.
pub(super) const ARMED_WAIT: Duration = Duration::from_millis(1);

/// Datagrams one pass receives before it sends its acks, so a peer
/// streaming into a slow pass is not held at a full window.
const DRAIN_MAX: usize = 64;

/// The single-flight receive state of one endpoint: held, by `try_lock`
/// only, for the length of one drain pass (or of the armed reactor's wait).
#[derive(Debug)]
pub(super) struct Turn {
    /// One datagram.
    buf: Vec<u8>,
    /// Peers owed an ack at the end of this pass.
    touched: Vec<NodeId>,
    /// Scratch: completions released by one ack.
    done: Vec<OpDone>,
    /// Scratch: an ack datagram under construction.
    ack_buf: Vec<u8>,
    /// When the retransmission timers last ran.
    last_tick: Instant,
}

impl Turn {
    pub(super) fn new() -> Turn {
        Turn {
            buf: vec![0u8; MAX_DGRAM],
            touched: Vec::new(),
            done: Vec::new(),
            ack_buf: Vec::new(),
            last_tick: Instant::now(),
        }
    }
}

/// A progress call's drain turn, on the calling thread: take the turn if it
/// is free, else leave the socket to its holder and just send our own open
/// trains (which needs no turn).
pub(super) fn caller_turn(nic: &SockNic, now: Instant) {
    match nic.turn.try_lock() {
        Some(mut turn) => {
            SockStats::bump(&nic.counters().caller_drain_passes);
            drain_pass(nic, &mut turn, None, now);
        }
        None => {
            SockStats::bump(&nic.counters().turn_skips);
            nic.flush_trains();
        }
    }
}

/// Reactor thread body for `nic` (named `photon-sock-<node>`).
pub(super) fn run(nic: Arc<SockNic>) {
    let stats = nic.counters();
    let mut armed = false;
    while !nic.stop.load(Ordering::Acquire) {
        let Some(mut turn) = nic.turn.try_lock() else {
            SockStats::bump(&stats.turn_skips);
            std::thread::yield_now();
            continue;
        };
        let now = Instant::now();
        if nic.owner_is_hot(now) {
            // Standby.
            if std::mem::take(&mut armed) {
                nic.armed.store(false, Ordering::SeqCst);
            }
            SockStats::bump(&stats.reactor_drain_passes);
            drain_pass(&nic, &mut turn, None, now);
            drop(turn);
            std::thread::yield_now();
            continue;
        }
        // Armed. From this store on, posts send at once; a post that read
        // the flag just before it has already marked the endpoint dirty, so
        // the flush below sends its frames (both sides `SeqCst`: one of the
        // two must see the other).
        armed = true;
        nic.armed.store(true, Ordering::SeqCst);
        nic.flush_trains_now();
        // `stop` is re-read with the turn held: only the turn holder takes
        // datagrams off the socket, so shutdown's wake-up datagram cannot
        // be eaten between this check and the wait.
        if nic.stop.load(Ordering::Acquire) {
            break;
        }
        let first = nic.sock.recv(&mut turn.buf).ok();
        if first.is_some() {
            SockStats::bump(&stats.reactor_wakeups);
        }
        SockStats::bump(&stats.reactor_drain_passes);
        drain_pass(&nic, &mut turn, first, Instant::now());
    }
}

/// One drain pass (see the module docs). `first` is the length of a
/// datagram already sitting in the turn's buffer (the armed wait's).
fn drain_pass(nic: &SockNic, turn: &mut Turn, first: Option<usize>, now: Instant) {
    let Some(chans) = nic.chans.get() else { return };
    let stats = nic.counters();
    let Turn { buf, touched, done, ack_buf, last_tick } = turn;
    let mut next = first;
    for _ in 0..DRAIN_MAX {
        let n = match next.take() {
            Some(n) => n,
            None => match sys::recv_nonblocking(&nic.sock, buf) {
                Ok(n) => n,
                Err(_) => break,
            },
        };
        SockStats::bump(&stats.datagrams_rx);
        // One timestamp per datagram: its frames arrived together.
        let mut rx = Rx { nic, ts: nic.now_v(), touched, done, ack_buf, readvertised: false };
        let frames = wire::frames(&buf[..n]).map(|p| rx.handle(chans, &p)).count();
        SockStats::add(&stats.frames_rx, frames as u64);
    }
    nic.flush_trains();
    for peer in touched.drain(..) {
        let ch = &chans[peer];
        ch.touched.store(false, Ordering::Relaxed);
        ch.send_ack(false, None, ack_buf);
    }
    if now.duration_since(*last_tick) >= TICK {
        *last_tick = now;
        for ch in chans.iter().filter(|ch| ch.peer != nic.node()) {
            if ch.tick(now) {
                nic.fail_peer(ch.peer);
            }
        }
    }
}

/// What handling one datagram's frames needs at hand.
struct Rx<'a> {
    nic: &'a SockNic,
    ts: VTime,
    touched: &'a mut Vec<NodeId>,
    done: &'a mut Vec<OpDone>,
    ack_buf: &'a mut Vec<u8>,
    /// This datagram already drew a duplicate re-advertisement: a whole
    /// duplicated train is answered once, not once per frame.
    readvertised: bool,
}

impl Rx<'_> {
    fn send_cqe(&self, op: &PendingOp, kind: CompletionKind, status: WcStatus) {
        if op.signaled {
            self.nic.push_send_cqe(Completion { wr_id: op.wr_id, kind, ts: self.ts, status });
        }
    }

    /// The peer's `op` fails local validation (bounds, access, unknown
    /// rkey): tell it now.
    fn refuse(&mut self, ch: &Channel, op: u64) {
        ch.send_ack(true, Some(op), self.ack_buf);
    }

    /// Add one fragment of a multi-fragment send or write to its op's
    /// reassembly, opened at the first fragment with the write's `target`;
    /// the whole op once its last fragment is in.
    fn reassemble(
        &self,
        p: &Packet<'_>,
        target: (u64, u32),
        payload: &[u8],
        stamps: impl Iterator<Item = usize>,
    ) -> Option<Reasm> {
        let key = (p.src, p.op);
        let mut reasm = self.nic.reasm.lock();
        let r = reasm.entry(key).or_insert_with(|| Reasm {
            buf: Vec::new(),
            target,
            stamps: Vec::new(),
        });
        let at = r.buf.len();
        r.stamps.extend(stamps.map(|s| at + s));
        r.buf.extend_from_slice(payload);
        if p.flags & F_LAST != 0 {
            reasm.remove(&key)
        } else {
            None
        }
    }

    fn handle(&mut self, chans: &[Channel], p: &Packet<'_>) {
        let nic = self.nic;
        if p.dst != nic.node() || p.src == nic.node() {
            return;
        }
        let Some(ch) = chans.get(p.src) else { return };

        // Piggybacked cumulative ack (every frame carries one).
        let is_ack = matches!(p.body, Body::Ack);
        let err_op = (is_ack && p.flags & F_ERR != 0).then_some(p.op);
        ch.on_ack(p.ack, err_op, self.done);
        nic.complete_acked(self.done, self.ts);
        // Remote-validation failure of a read/atomic resolves its pending op.
        if let Some(bad) = err_op {
            let failed = nic.pending.lock().remove(&bad);
            if let Some(op) = failed {
                self.send_cqe(&op, op.kind(0), WcStatus::FlushErr);
            }
        }
        if is_ack {
            return;
        }

        // Sequenced frame: accept in order or drop + re-advertise (go-back-N).
        if !ch.accept(p.seq) {
            if !self.readvertised {
                self.readvertised = true;
                ch.send_ack(true, None, self.ack_buf);
            }
            return;
        }

        match p.body {
            Body::Ack => unreachable!("handled above"),
            Body::Write { addr, rkey, total, imm, stamps, payload } => {
                // Stamp offsets come off the wire: only those that fit the
                // fragment are applied.
                let stamps = stamps.iter().map(|s| s as usize).filter(|s| s + 8 <= payload.len());
                let last = p.flags & F_LAST != 0;
                let applied = if last && payload.len() == total as usize {
                    // One fragment: applied straight from the datagram.
                    nic.ep.apply_write(addr, rkey, payload, stamps, self.ts)
                } else {
                    // Several: applied whole at the last one, because a
                    // target polling the region (an eager ring) accepts a
                    // frame once its header has landed.
                    match self.reassemble(p, (addr, rkey), payload, stamps) {
                        Some(w) => {
                            let (addr, rkey) = w.target;
                            nic.ep.apply_write(addr, rkey, &w.buf, w.stamps.into_iter(), self.ts)
                        }
                        None => Ok(()),
                    }
                };
                if applied.is_err() {
                    return self.refuse(ch, p.op);
                }
                if last && p.flags & F_HAS_IMM != 0 {
                    let _ = nic.ep.push_imm(p.src, total as usize, imm, self.ts);
                }
            }
            // The endpoint refuses a send past its unexpected-send cap or
            // into a receive too small for it; the frames are acked already,
            // so such a send is dropped.
            Body::Send { total, frag_off, imm, payload } => {
                let imm = (p.flags & F_HAS_IMM != 0).then_some(imm);
                if frag_off == 0 && payload.len() == total as usize {
                    let _ = nic.ep.deliver_send(p.src, Cow::Borrowed(payload), imm, self.ts);
                } else if let Some(whole) = self.reassemble(p, (0, 0), payload, std::iter::empty())
                {
                    let _ = nic.ep.deliver_send(p.src, Cow::Owned(whole.buf), imm, self.ts);
                }
            }
            Body::ReadReq { addr, rkey, len } => {
                // An owned handle, not a borrow under the MR table's lock:
                // the response is encoded under the channel's lock, which
                // must not nest inside the table's.
                let Ok((mr, off)) = nic.ep.read_source(addr, rkey, len as usize) else {
                    return self.refuse(ch, p.op);
                };
                // The response is encoded from the region into the
                // channel's storage and leaves with this pass's trains.
                nic.respond(ch, |w| {
                    mr.with_bytes(|b| {
                        for (at, n, last) in fragments(len as usize) {
                            let payload = &b[off + at..off + at + n];
                            let body = Body::ReadResp { total: len, frag_off: at as u32, payload };
                            w.frame(if last { F_LAST } else { 0 }, p.op, body);
                        }
                    })
                });
            }
            Body::ReadResp { frag_off, payload, .. } => {
                let mut pend = nic.pending.lock();
                if let Some(op) = pend.get(&p.op) {
                    let off = frag_off as usize;
                    let n = payload.len().min(op.local.len.saturating_sub(off));
                    if n > 0 {
                        op.local.mr.write_at(op.local.offset + off, &payload[..n]);
                    }
                    if p.flags & F_LAST != 0 {
                        let op = pend.remove(&p.op);
                        drop(pend);
                        if let Some(op) = op {
                            self.send_cqe(&op, CompletionKind::ReadDone, WcStatus::Success);
                        }
                    }
                }
            }
            Body::AtomicReq { addr, rkey, atomic } => {
                let Ok(old) = nic.ep.apply_atomic(addr, rkey, atomic) else {
                    return self.refuse(ch, p.op);
                };
                nic.respond(ch, |w| w.frame(F_LAST, p.op, Body::AtomicResp { old }));
            }
            Body::AtomicResp { old } => {
                let op = nic.pending.lock().remove(&p.op);
                if let Some(op) = op {
                    op.local.mr.write_u64(op.local.offset, old);
                    self.send_cqe(&op, op.kind(old), WcStatus::Success);
                }
            }
        }
        // The pass owes this peer a cumulative ack when it ends. (Only the
        // turn holder touches the flag: a load and a store, no RMW.)
        if !ch.touched.load(Ordering::Relaxed) {
            ch.touched.store(true, Ordering::Relaxed);
            self.touched.push(p.src);
        }
    }
}
