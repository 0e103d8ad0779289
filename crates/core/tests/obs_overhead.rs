//! With recording *disabled* (the default), the op-lifecycle observability
//! hooks must cost nothing on the steady-state eager put path — in
//! particular, zero heap allocations per operation. A counting global
//! allocator arms around a windowed put loop and counts every `alloc`;
//! the zero-alloc property of the staged TX path (established by the
//! doorbell-batching work) must survive the hook insertion.

use photon_core::{Completion, PhotonCluster, PhotonConfig, ProbeFlags};
use photon_fabric::NetworkModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counter is process-global, so a test that arms it must not overlap
/// another test's allocations: every test in this file holds this lock.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test poisons the lock; the guarded data is `()`.
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Allocations of 1024 [`single_sends_and_gets`] rounds measured at the
/// parent of the posting-path fold (commit a5a29f5), where single sends and
/// gets still had their own posting code.
const PARENT_SEND_GET_ALLOCS: u64 = 1_029;

/// Run `ops` windowed 8-byte eager puts (window 16), sender reaping local
/// completions while the receiver drains remote notifications.
fn windowed_puts(c: &PhotonCluster, base_rid: u64, ops: u64) {
    let p0 = c.rank(0);
    let p1 = c.rank(1);
    let src = p0.register_buffer(64).unwrap();
    let dst = p1.register_buffer(64).unwrap();
    let d = dst.descriptor();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    let (mut posted, mut done) = (0u64, 0u64);
    let mut inflight = 0usize;
    while done < ops {
        while inflight < 16 && posted < ops {
            let rid = base_rid + posted;
            if p0.try_put_with_completion(1, &src, 0, 8, &d, 0, rid, rid).unwrap() {
                posted += 1;
                inflight += 1;
            } else {
                break;
            }
        }
        loop {
            evs.clear();
            if p1.poll_completions(ProbeFlags::Remote, &mut evs, 64).unwrap() == 0 {
                break;
            }
        }
        evs.clear();
        let n = p0.poll_completions(ProbeFlags::Local, &mut evs, 128).unwrap();
        done += n as u64;
        inflight -= n;
    }
}

/// Run `ops` rounds of one 8-byte `send` plus one 8-byte
/// `get_with_completion`, each a single (k=1) post, waiting for the get and
/// draining the receiver every round.
fn single_sends_and_gets(c: &PhotonCluster, base_rid: u64, ops: u64) {
    let p0 = c.rank(0);
    let p1 = c.rank(1);
    let local = p0.register_buffer(64).unwrap();
    let remote = p1.register_buffer(64).unwrap();
    let d = remote.descriptor();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    for i in 0..ops {
        let rid = base_rid + i;
        p0.send(1, &[0x5A; 8], rid).unwrap();
        p0.get_with_completion(1, &local, 0, 8, &d, 0, rid).unwrap();
        p0.wait_local(rid).unwrap();
        evs.clear();
        while p1.poll_completions(ProbeFlags::Remote, &mut evs, 64).unwrap() == 0 {}
    }
}

#[test]
fn disabled_recording_allocates_nothing_per_op() {
    let _serial = serialized();
    let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
    assert!(!c.rank(0).obs().is_enabled());

    // Warm-up: fills the staging rings, completion shard vectors, probe
    // scratch, etc., so the measured window sees only steady-state work.
    windowed_puts(&c, 0, 2_048);
    single_sends_and_gets(&c, 20_000, 1_024);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    windowed_puts(&c, 10_000, 2_048);
    ARMED.store(false, Ordering::SeqCst);

    // The path is not literally allocation-free: the receiver's periodic
    // credit-return machinery allocates roughly once per 15 frames (133
    // allocations for this exact workload, measured identically on the
    // pre-observability tree). The invariant the hooks must preserve is
    // *amortized* zero: anything per-op would add >= 2048 allocations here
    // and trip the bound at once.
    let n = ALLOCS.load(Ordering::SeqCst);
    assert!(
        n <= 2_048 / 14,
        "eager put path allocated {n} times over 2048 ops with recording disabled \
         (pre-obs baseline: 133; a per-op hook allocation would show as >= 2048)"
    );

    // Single sends and gets — the k=1 case of the run-based posting path.
    // Not allocation-free at the parent either, so the parent's count is
    // pinned rather than zero: every `Msg` delivery owns its payload (one
    // `to_vec` per send at the receiver; the other five are the helper's
    // two buffer registrations), while the get and both TX sides allocate
    // nothing. A k=1 get routed through a `Vec<SendWr>`, or a k=1 send
    // through a freshly allocated rid / stamp list, would add at least one
    // allocation per round on top.
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    single_sends_and_gets(&c, 30_000, 1_024);
    ARMED.store(false, Ordering::SeqCst);
    let n = ALLOCS.load(Ordering::SeqCst);
    assert!(
        n <= PARENT_SEND_GET_ALLOCS,
        "1024 single send + get rounds allocated {n} times with recording disabled \
         (parent commit: {PARENT_SEND_GET_ALLOCS}; one more allocation per op would show as +1024)"
    );
}

#[test]
fn recycler_caches_make_the_batched_put_loop_allocation_free() {
    let _serial = serialized();
    // The tightened form of the bound above, for the doorbell-batched path:
    // with the CQE harvest reading into recycled scratch, the batch rid /
    // stamp vectors cycling through the context pools, and the run frames
    // living in per-peer TX scratch, the steady-state batched put loop
    // performs literally zero heap allocations. Setup (buffer registration,
    // caller-side scratch) happens before the allocator arms.
    let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
    assert!(!c.rank(0).obs().is_enabled());
    let p0 = c.rank(0);
    let p1 = c.rank(1);
    let src = p0.register_buffer(64).unwrap();
    let dst = p1.register_buffer(64).unwrap();
    let d = dst.descriptor();
    let mut evs: Vec<Completion> = Vec::with_capacity(128);
    let mut items: Vec<photon_core::PutManyItem> = Vec::with_capacity(16);

    // Run `ops` doorbell-batched 8-byte eager puts (batches of 16 through
    // `try_put_many`), sender reaping local completions while the receiver
    // drains remote notifications — the hot loop the recycler caches serve.
    let mut batched_puts = |base_rid: u64, ops: u64| {
        let (mut posted, mut done) = (0u64, 0u64);
        while done < ops {
            if posted < ops {
                items.clear();
                for i in 0..16.min(ops - posted) {
                    let rid = base_rid + posted + i;
                    items.push(photon_core::PutManyItem {
                        loff: 0,
                        len: 8,
                        doff: 0,
                        local_rid: rid,
                        remote_rid: rid,
                    });
                }
                posted += p0.try_put_many(1, &src, &d, &items).unwrap() as u64;
            }
            loop {
                evs.clear();
                if p1.poll_completions(ProbeFlags::Remote, &mut evs, 64).unwrap() == 0 {
                    break;
                }
            }
            evs.clear();
            done += p0.poll_completions(ProbeFlags::Local, &mut evs, 128).unwrap() as u64;
        }
    };

    // Warm-up: grows every recycled vector to its working capacity.
    batched_puts(0, 2_048);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    batched_puts(10_000, 2_048);
    ARMED.store(false, Ordering::SeqCst);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(n, 0, "batched put loop allocated {n} times over 2048 steady-state ops");
}

#[test]
fn enabled_recording_observes_the_same_traffic() {
    let _serial = serialized();
    // Sanity inverse: with recording on, the same loop yields spans and
    // latency samples (allocation is expected and unchecked here).
    let c = PhotonCluster::new(2, NetworkModel::ideal(), PhotonConfig::default());
    for p in c.ranks() {
        p.obs().enable();
    }
    windowed_puts(&c, 0, 256);
    let m = c.rank(0).metrics();
    assert!(m.counters.puts_eager >= 256);
    let lat = m
        .latencies
        .iter()
        .find(|s| s.kind == photon_core::OpKind::PutEager)
        .expect("put-eager latency summary");
    assert_eq!(lat.count, 256);
    assert!(c.rank(0).span_trace().spans.len() >= 256);
}
