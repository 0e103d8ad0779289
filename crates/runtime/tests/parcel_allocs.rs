//! A remote parcel costs at most two heap allocations in steady state,
//! summed over every thread of both ranks: the event payload core harvests
//! on the receiver, and the boxed task that owns it until the handler has
//! run. The sending thread allocates none: it encodes header and payload
//! once into a recycled staging vector and sends from there.
//!
//! A counting global allocator arms around a run of warm parcels in the
//! `parcel_gups_sim` configuration: 2 ranks, the ideal network model,
//! `workers: 1`, `coalesce_max: 0`, 16-byte payloads. Before parcels had
//! one wire path (owned `Parcel` on both sides, a `Bytes` copy of the
//! payload at each end, a fresh encode vector per send) the same loop read
//! 6.000 allocations per parcel.

use photon_fabric::NetworkModel;
use photon_runtime::{ActionRegistry, RtConfig, RuntimeCluster};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static SENDER_ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread that sends the parcels. Const-initialised and
    /// without a destructor, so reading it never allocates.
    static SENDER: Cell<bool> = const { Cell::new(false) };
}

fn count(kind: &AtomicU64) {
    if ARMED.load(Ordering::Relaxed) {
        kind.fetch_add(1, Ordering::Relaxed);
        if SENDER.try_with(Cell::get).unwrap_or(false) {
            SENDER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Parcels sent before counting starts: fills the recycler, the ring, the
/// run queue and the completion FIFOs to their working sizes.
const WARM: u64 = 5_000;
/// Parcels counted.
const MEASURED: u64 = 20_000;
/// Reallocations allowed over the whole counted run. When the receiver
/// falls further behind than it did in the warm-up, a queue or scratch
/// vector on its side doubles once more: a handful per run however many
/// parcels are counted, never one per parcel.
const GROWTH: u64 = 64;

#[test]
fn remote_parcel_costs_two_allocations_and_none_on_the_sender() {
    let applied = Arc::new(AtomicU64::new(0));
    let mut reg = ActionRegistry::new();
    let a = Arc::clone(&applied);
    let update = reg.register("update", move |_ctx, payload| {
        assert_eq!(payload.len(), 16);
        a.fetch_add(1, Ordering::Release);
        None
    });
    let cfg = RtConfig { workers: 1, coalesce_max: 0, ..RtConfig::default() };
    let c = RuntimeCluster::new(2, NetworkModel::ideal(), cfg, reg);
    let node = c.node(0);
    // Send parcels `from..to` to rank 1 and wait until its handler ran them.
    let send = |from: u64, to: u64| {
        let mut payload = [0u8; 16];
        for seq in from..to {
            payload[..8].copy_from_slice(&seq.to_le_bytes());
            node.send_parcel(1, update, &payload).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while applied.load(Ordering::Acquire) < to {
            assert!(Instant::now() < deadline, "parcels never ran");
            std::thread::yield_now();
        }
    };
    SENDER.set(true);
    send(0, WARM);
    ARMED.store(true, Ordering::SeqCst);
    send(WARM, WARM + MEASURED);
    ARMED.store(false, Ordering::SeqCst);
    SENDER.set(false);
    c.shutdown();

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let reallocs = REALLOCS.load(Ordering::Relaxed);
    let sender = SENDER_ALLOCS.load(Ordering::Relaxed);
    let per_parcel = allocs as f64 / MEASURED as f64;
    eprintln!(
        "{MEASURED} parcels: {allocs} allocations ({per_parcel:.3} each), {reallocs} reallocations, \
         {sender} of them on the sender"
    );
    assert!(allocs <= 2 * MEASURED, "{per_parcel:.3} allocations per remote parcel (budget 2)");
    assert!(reallocs <= GROWTH, "{reallocs} reallocations: something grows per parcel");
    assert_eq!(sender, 0, "the sending thread allocated");
}
