//! DS chaos driver: concurrent DHT/queue clients under crash/partition,
//! checked for per-key linearizability.
//!
//! A ds-campaign case reuses the rpc campaign's schedule shape (one
//! many-clients workload with chaos riding along) but drives the
//! `photon-ds` structures instead of the KV server: each [`Op::RpcCall`] is
//! reinterpreted as a DHT `get`/`put`/`cas` (`method` keeps its 0/1/2
//! meaning) and its delivery-policy draw picks the **access path** — the
//! at-most-once band maps to one-sided RDMA, the rest to RPC — so both
//! paths interleave on the same contended 8-key space while nodes crash and
//! links partition. Every fourth case drives the MPSC queue instead.
//!
//! # The checkers
//!
//! *DHT cases* record a timed history per key (logical invocation/response
//! ticks from a global counter; every mutation writes a value unique to its
//! op) and check **linearizability per key** with a Wing–Gong style
//! memoized search: some sequential order of the operations, consistent
//! with real-time (an op that returned before another was invoked must
//! linearize first), must explain every observed read and cas verdict.
//! Operations that resolved as typed errors are *indeterminate* — a timed-out
//! put may or may not have landed — so they enter the search as optional
//! mutations with unbounded response time. An untyped error, or a call that
//! never resolves, is a named violation on its own.
//!
//! *Queue cases* check what MPSC promises: no popped value was popped twice
//! or never pushed, and each producer's successfully-pushed values come out
//! in push order. Pushes that resolved as errors are indeterminate (their
//! value may legitimately surface), and completeness is deliberately not
//! asserted — a crashed owner takes undrained elements with it.
//!
//! *Both flavors* end with the registration audit
//! ([`check_registrations`]): once the runtime has stopped, every rank
//! holds the registrations it held right after the structure booted, net
//! of connection blocks. A one-sided op that failed without releasing its
//! scratch buffer shows up here.

use crate::checkers::{check_registrations, held_registrations, Violations};
use crate::clients::{self, token_of, with_clients};
use crate::exec::CaseReport;
use crate::schedule::{Op, Schedule, SimParams};
use photon_ds::{AccessPath, DQueue, DQueueConfig, Dht, DhtConfig, DsError};
use photon_runtime::{RtError, RuntimeCluster};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A register value in the checker: mutation tokens, unique per op.
type Val = u64;

/// One operation in a per-key history, as the linearizability search sees
/// it. Definite ops happened exactly as recorded; `Maybe*` ops resolved as
/// errors and may or may not have taken effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DsEv {
    /// Completed lookup observing this value (`None` = absent).
    Read(Option<Val>),
    /// Completed last-write-wins store.
    Write(Val),
    /// Compare-and-set that reported success: requires the state to equal
    /// `expected` at its linearization point.
    CasOk(Option<Val>, Val),
    /// Compare-and-set that reported a mismatch, observing the current
    /// value: linearizes as an atomic read of that observation.
    CasFail(Option<Val>, Option<Val>),
    /// Store that resolved as an error: applied at most once, at any point
    /// after its invocation — or never.
    MaybeWrite(Val),
    /// Compare-and-set that resolved as an error: may have applied iff the
    /// state matched `expected` at some point after its invocation.
    MaybeCas(Option<Val>, Val),
}

/// A history entry: the event plus logical invocation/response ticks.
/// Indeterminate ops carry `ret = u64::MAX` (their effect, if any, has no
/// real-time upper bound the checker could trust).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// What happened.
    pub ev: DsEv,
    /// Logical tick taken just before the call was issued.
    pub inv: u64,
    /// Logical tick taken after it returned (`u64::MAX` = indeterminate).
    pub ret: u64,
}

/// Is `hist` (one key's operations) linearizable from an initially-absent
/// register? Wing–Gong search: repeatedly pick a *minimal* pending op (one
/// no other pending op finished before it started) and try it as the next
/// linearization point; indeterminate ops may also be dropped entirely.
/// Memoized on `(done-set, state)` — re-reaching a visited configuration
/// cannot succeed where it already failed.
pub fn linearizable_key(hist: &[Timed]) -> bool {
    assert!(hist.len() <= 64, "per-key history too long for the bitmask search");
    let definite: u64 = hist
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.ev, DsEv::MaybeWrite(_) | DsEv::MaybeCas(..)))
        .fold(0, |m, (i, _)| m | 1 << i);
    let mut memo = HashSet::new();
    search(hist, definite, 0, None, &mut memo)
}

fn search(
    hist: &[Timed],
    definite: u64,
    done: u64,
    state: Option<Val>,
    memo: &mut HashSet<(u64, Option<Val>)>,
) -> bool {
    if definite & !done == 0 {
        // Every definite op is explained; leftover indeterminate ops
        // linearize after the history's end, where nothing observes them.
        return true;
    }
    if !memo.insert((done, state)) {
        return false;
    }
    for i in 0..hist.len() {
        if done & 1 << i != 0 {
            continue;
        }
        // Real-time order: i can be next only if no *pending* op finished
        // before i was invoked.
        let minimal =
            (0..hist.len()).all(|j| done & 1 << j != 0 || j == i || hist[j].ret >= hist[i].inv);
        if !minimal {
            continue;
        }
        let next = done | 1 << i;
        let ok = match hist[i].ev {
            DsEv::Read(v) => state == v && search(hist, definite, next, state, memo),
            DsEv::Write(v) => search(hist, definite, next, Some(v), memo),
            DsEv::CasOk(exp, new) => state == exp && search(hist, definite, next, Some(new), memo),
            DsEv::CasFail(exp, obs) => {
                state == obs && exp != obs && search(hist, definite, next, state, memo)
            }
            DsEv::MaybeWrite(v) => {
                // Either it landed here, or it never landed at all.
                search(hist, definite, next, Some(v), memo)
                    || search(hist, definite, next, state, memo)
            }
            DsEv::MaybeCas(exp, new) => {
                (state == exp && search(hist, definite, next, Some(new), memo))
                    || search(hist, definite, next, state, memo)
            }
        };
        if ok {
            return true;
        }
    }
    false
}

/// How a ds *error* classifies, for the resolution audit.
enum Resolution {
    /// A typed, expected error: transport ([`RtError`]) or back-pressure
    /// ([`DsError::Unavailable`] / [`DsError::QueueFull`]).
    TypedErr,
    /// Anything else — always a violation.
    Unexpected(String),
}

fn classify(err: &DsError) -> Resolution {
    use photon_core::PhotonError as PE;
    match err {
        // Chaos-legal failures: RPC outcomes, fast-failed/flushed one-sided
        // ops toward dead or partitioned peers, wall-clock wait deadlines,
        // and the structures' own back-pressure verdicts.
        DsError::Rt(RtError::Photon(
            PE::RpcTimeout { .. }
            | PE::RpcFailed { .. }
            | PE::PeerDead(_)
            | PE::OpFailed { .. }
            | PE::Timeout { .. }
            | PE::Fabric(_),
        ))
        | DsError::Rt(RtError::PeerDead(_))
        | DsError::Unavailable(_)
        | DsError::QueueFull => Resolution::TypedErr,
        other => Resolution::Unexpected(format!("{other:?}")),
    }
}

/// The access path for a schedule op: the at-most-once policy band maps to
/// one-sided RDMA so roughly half of all traffic exercises each path.
fn path_of(policy: u8) -> AccessPath {
    if policy == 2 {
        AccessPath::OneSided
    } else {
        AccessPath::Rpc
    }
}

/// One recorded call: key, event, ticks. `Ok(None)` = errored read (no
/// effect, no observation — it only proves the call resolved); `Err` = an
/// untyped error, reported verbatim as a violation.
struct Recorded {
    key: u8,
    ev: Result<Option<DsEv>, String>,
    inv: u64,
    ret: u64,
}

/// Run one seeded ds chaos case. Schedule and chaos are deterministic per
/// `(seed, case_id)`; thread interleavings are not, so the digest hashes
/// only stable facts (shape + verdicts), like the rpc driver's.
pub fn run_ds_case(seed: u64, case_id: u64, params: &SimParams) -> CaseReport {
    let sched = Schedule::generate(seed, case_id, params);
    let cluster = clients::boot(&sched);
    // Every fourth case drives the queue; the rest drive the DHT.
    let (flavor, (mut violations, booted)) = if case_id % 4 == 3 {
        ("dq", run_queue_case(&cluster, &sched))
    } else {
        ("dht", run_dht_case(&cluster, &sched))
    };
    // Audited once the runtime has stopped: no worker is then midway
    // through opening or dropping a connection, whose blocks the audit nets
    // out.
    cluster.shutdown();
    check_registrations(cluster.photon(), &booted, &mut violations);

    let digest_src = format!(
        "ds n={} flavor={flavor} ops={} v={:?}",
        sched.nodes,
        sched.ops.len(),
        violations.items()
    );
    CaseReport::verdict(seed, case_id, violations, &digest_src)
}

/// Run a DHT case: its violations, and each rank's registrations right
/// after the table booted (for the registration audit).
fn run_dht_case(cluster: &RuntimeCluster, sched: &Schedule) -> (Violations, Vec<usize>) {
    let dht = Dht::new(
        cluster,
        DhtConfig { buckets_per_rank: 64, key_max: 8, val_max: 16, ..DhtConfig::default() },
    )
    .expect("dht boots before chaos");
    let booted = held_registrations(cluster.photon());

    let clock = AtomicU64::new(0);
    let records: Vec<Mutex<Option<Recorded>>> =
        sched.ops.iter().map(|_| Mutex::new(None)).collect();
    let mut violations = Violations::default();

    with_clients(cluster, sched, |rank, idx| {
        let Op::RpcCall { method, key, policy, .. } = sched.ops[idx] else {
            unreachable!("with_clients yields only call ops");
        };
        let node = cluster.node(rank);
        let k = [key];
        let token = token_of(idx);
        let val = token.to_le_bytes();
        let inv = clock.fetch_add(1, Ordering::Relaxed);
        let (ev, err) = match method {
            0 => match dht.get(node, &k, path_of(policy)) {
                Ok(v) => (Some(DsEv::Read(v.map(decode_val))), None),
                Err(e) => (None, Some(e)), // reads have no effect to model
            },
            1 => match dht.put(node, &k, &val, path_of(policy)) {
                Ok(()) => (Some(DsEv::Write(token)), None),
                Err(e) => (Some(DsEv::MaybeWrite(token)), Some(e)),
            },
            _ => {
                // Expected value guessed from a racy fresh read; whether the
                // swap lands is decided by contention, which is the point.
                // An unreadable key (dead owner) guesses "absent".
                let exp = dht.get(node, &k, AccessPath::Rpc).ok().flatten();
                let expected = exp.as_deref();
                match dht.cas(node, &k, expected, &val) {
                    Ok((true, _)) => (Some(DsEv::CasOk(exp.map(decode_val), token)), None),
                    Ok((false, obs)) => {
                        (Some(DsEv::CasFail(exp.map(decode_val), obs.map(decode_val))), None)
                    }
                    Err(e) => (Some(DsEv::MaybeCas(exp.map(decode_val), token)), Some(e)),
                }
            }
        };
        let ret = if err.is_some() { u64::MAX } else { clock.fetch_add(1, Ordering::Relaxed) };
        let ev = match err {
            Some(e) => match classify(&e) {
                Resolution::TypedErr => Ok(ev),
                Resolution::Unexpected(msg) => Err(format!("op {idx}: untyped ds error {msg}")),
            },
            None => Ok(ev),
        };
        *records[idx].lock().expect("record lock") = Some(Recorded { key, ev, inv, ret });
    });

    // Resolution audit + per-key histories.
    let mut per_key: HashMap<u8, Vec<Timed>> = HashMap::new();
    for (idx, op) in sched.ops.iter().enumerate() {
        let Op::RpcCall { .. } = op else { continue };
        let rec = records[idx].lock().expect("record lock").take();
        let Some(rec) = rec else {
            violations.push(format!("op {idx}: call never resolved"));
            continue;
        };
        match rec.ev {
            Err(msg) => violations.push(msg),
            Ok(Some(ev)) => {
                per_key.entry(rec.key).or_default().push(Timed { ev, inv: rec.inv, ret: rec.ret })
            }
            Ok(None) => {} // errored read: resolved, nothing to model
        }
    }
    let mut keys: Vec<u8> = per_key.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let hist = &per_key[&key];
        if !linearizable_key(hist) {
            violations.push(format!("key {key}: history not linearizable: {hist:?}"));
        }
    }
    (violations, booted)
}

fn decode_val(v: Vec<u8>) -> Val {
    u64::from_le_bytes(v.as_slice().try_into().expect("ds values are token u64s"))
}

/// Run a queue case: like [`run_dht_case`], violations plus the
/// registrations right after the queue booted.
fn run_queue_case(cluster: &RuntimeCluster, sched: &Schedule) -> (Violations, Vec<usize>) {
    let owner = sched.rpc_server.expect("ds schedules carry an owner rank");
    let q = DQueue::new(
        cluster,
        DQueueConfig { capacity: 16, val_max: 16, owner, ..Default::default() },
    )
    .expect("queue boots before chaos");
    let booted = held_registrations(cluster.photon());

    // Push outcome per op: Ok(true) = success, Ok(false) = typed error
    // (indeterminate), Err = untyped error, None = never resolved.
    let outcomes: Vec<Mutex<Option<Result<bool, String>>>> =
        sched.ops.iter().map(|_| Mutex::new(None)).collect();
    let popped = Mutex::new(Vec::<u64>::new());
    let producers_done = AtomicBool::new(false);
    let mut violations = Violations::default();

    std::thread::scope(|s| {
        // Consumer at the owner: drain until producers finish and the queue
        // stays empty (or the owner's fabric dies). Bounded empty-polling —
        // a producer that errored between ticket claim and publish wedges
        // the head, and that must end the case, not hang it.
        s.spawn(|| {
            let node = cluster.node(owner);
            let mut idle = 0u32;
            loop {
                node.photon().elapse(20_000);
                match q.pop(node) {
                    Ok(Some(v)) if v.len() == 8 => {
                        popped.lock().expect("popped lock").push(decode_val(v));
                        idle = 0;
                    }
                    Ok(Some(_)) | Err(_) => break, // torn value / dead owner
                    Ok(None) => {
                        idle += 1;
                        if producers_done.load(Ordering::Acquire) && idle > 50 {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
            }
        });

        with_clients(cluster, sched, |rank, idx| {
            let Op::RpcCall { policy, .. } = sched.ops[idx] else {
                unreachable!("with_clients yields only call ops");
            };
            let node = cluster.node(rank);
            let val = token_of(idx).to_le_bytes();
            let out = match q.push(node, &val, path_of(policy)) {
                Ok(()) => Ok(true),
                Err(e) => match classify(&e) {
                    Resolution::TypedErr => Ok(false),
                    Resolution::Unexpected(msg) => Err(format!("op {idx}: untyped ds error {msg}")),
                },
            };
            *outcomes[idx].lock().expect("outcome lock") = Some(out);
        });
        producers_done.store(true, Ordering::Release);
    });

    // MPSC contract audit.
    let mut pushed_ok: Vec<Vec<u64>> = vec![Vec::new(); cluster.len()];
    let mut attempted = HashSet::new();
    for (idx, op) in sched.ops.iter().enumerate() {
        let Op::RpcCall { client, .. } = *op else { continue };
        attempted.insert(token_of(idx));
        match outcomes[idx].lock().expect("outcome lock").take() {
            Some(Ok(true)) => pushed_ok[client].push(token_of(idx)),
            Some(Ok(false)) => {}
            Some(Err(msg)) => violations.push(msg),
            None => violations.push(format!("op {idx}: push never resolved")),
        }
    }
    let popped = popped.into_inner().expect("popped lock");
    let mut seen = HashSet::new();
    for &v in &popped {
        if !attempted.contains(&v) {
            violations.push(format!("popped value {v} was never pushed"));
        }
        if !seen.insert(v) {
            violations.push(format!("value {v} popped twice"));
        }
    }
    // Per producer, successful pushes surface in push order (each success
    // fully published before the producer's next push started).
    for (client, mine) in pushed_ok.iter().enumerate() {
        let order: Vec<u64> = popped.iter().copied().filter(|v| mine.contains(v)).collect();
        let expected: Vec<u64> = mine.iter().copied().filter(|v| order.contains(v)).collect();
        if order != expected {
            violations
                .push(format!("producer {client}: pops {order:?} out of push order {expected:?}"));
        }
    }
    (violations, booted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ev: DsEv, inv: u64, ret: u64) -> Timed {
        Timed { ev, inv, ret }
    }

    #[test]
    fn ds_cases_hold_invariants() {
        let p = SimParams::ds();
        for case in 0..4 {
            // Case 3 is a queue case, 0..3 are dht cases.
            let rep = run_ds_case(0xD5, case, &p);
            assert!(rep.violations.is_empty(), "case {case}: {:?}", rep.violations);
        }
    }

    #[test]
    fn sequential_histories_linearize() {
        // write 1 · read 1 · cas(1→2) ok · read 2, strictly ordered.
        let h = [
            t(DsEv::Write(1), 0, 1),
            t(DsEv::Read(Some(1)), 2, 3),
            t(DsEv::CasOk(Some(1), 2), 4, 5),
            t(DsEv::Read(Some(2)), 6, 7),
        ];
        assert!(linearizable_key(&h));
        assert!(linearizable_key(&[])); // empty history is trivially fine
        assert!(linearizable_key(&[t(DsEv::Read(None), 0, 1)]));
    }

    #[test]
    fn stale_reads_are_caught() {
        // Non-overlapping write 1 · write 2 · read 1: the read returned
        // after write 2 completed, so observing 1 is a real-time violation.
        let h = [t(DsEv::Write(1), 0, 1), t(DsEv::Write(2), 2, 3), t(DsEv::Read(Some(1)), 4, 5)];
        assert!(!linearizable_key(&h));
        // ...but with the write and read overlapping, either order works.
        let h = [t(DsEv::Write(1), 0, 1), t(DsEv::Write(2), 2, 6), t(DsEv::Read(Some(1)), 4, 5)];
        assert!(linearizable_key(&h));
    }

    #[test]
    fn phantom_and_lost_values_are_caught() {
        // A read observing a value nobody wrote.
        assert!(!linearizable_key(&[t(DsEv::Read(Some(9)), 0, 1)]));
        // A cas that succeeded against an expectation that never held.
        let h = [t(DsEv::Write(1), 0, 1), t(DsEv::CasOk(Some(3), 4), 2, 3)];
        assert!(!linearizable_key(&h));
        // A cas-mismatch that observed the value it claimed mismatched.
        assert!(!linearizable_key(&[
            t(DsEv::Write(1), 0, 1),
            t(DsEv::CasFail(Some(1), Some(1)), 2, 3),
        ]));
    }

    #[test]
    fn indeterminate_ops_may_or_may_not_apply() {
        // A timed-out write explains a later read of its value...
        let h = [
            t(DsEv::Write(1), 0, 1),
            t(DsEv::MaybeWrite(2), 2, u64::MAX),
            t(DsEv::Read(Some(2)), 4, 5),
        ];
        assert!(linearizable_key(&h));
        // ...and equally explains never appearing at all...
        let h = [
            t(DsEv::Write(1), 0, 1),
            t(DsEv::MaybeWrite(2), 2, u64::MAX),
            t(DsEv::Read(Some(1)), 4, 5),
        ];
        assert!(linearizable_key(&h));
        // ...but cannot explain a third value.
        let h = [
            t(DsEv::Write(1), 0, 1),
            t(DsEv::MaybeWrite(2), 2, u64::MAX),
            t(DsEv::Read(Some(7)), 4, 5),
        ];
        assert!(!linearizable_key(&h));
        // An indeterminate op's effect still cannot precede its invocation.
        let h = [t(DsEv::Read(Some(2)), 0, 1), t(DsEv::MaybeWrite(2), 2, u64::MAX)];
        assert!(!linearizable_key(&h));
    }

    #[test]
    fn ds_schedules_reuse_the_rpc_shape() {
        let p = SimParams::ds();
        let s = Schedule::generate(0xC1C7, 0, &p);
        assert!(s.rpc_server.is_some(), "ds cases reuse the rpc generator");
        assert!(s.ops.iter().any(|o| matches!(o, Op::RpcCall { .. })));
    }
}
