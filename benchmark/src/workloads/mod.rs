//! The five workloads and what they share: the seeded op table, the
//! running tallies, and the [`Workload`] trait the runner drives.
//!
//! Load shape, for all of them: **closed loop, one driver thread**. The
//! callers of an RMA middleware are ranks that each wait for their own
//! completions, so the next op goes out only when the window has room. The
//! single driver steps *every* rank (post on rank 0, probe on rank 1, reap
//! on rank 0); the only other threads are the program's own (sock reactors,
//! runtime progress and worker threads). On the 2-vCPU host a second driver
//! thread makes the sock numbers swing by ±25 % run to run; one driver
//! keeps them inside ±5 %.

pub mod fabric_probe;
pub mod gups;
pub mod mixed;
pub mod pingpong;
pub mod put8;

use crate::meter::Meter;
use crate::trace::{Clock, Tracer};
use photon_core::{BackendKind, StatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ops in flight on the windowed workloads.
pub const WINDOW: usize = 16;
/// Every `SAMPLE_EVERY`-th op gets a post→completion latency sample.
pub const SAMPLE_EVERY: u64 = 16;
/// Entries in the op table; drivers cycle through it.
pub const TABLE_LEN: usize = 65_536;

/// Operation classes of `mixed_rw_sim`, in `core.post_ns.<class>` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    Put8,
    Put1024,
    Put65536,
    Get8,
    Get1024,
    Get65536,
    Atomic8,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Put8,
        Class::Put1024,
        Class::Put65536,
        Class::Get8,
        Class::Get1024,
        Class::Get65536,
        Class::Atomic8,
    ];

    pub fn bytes(self) -> usize {
        match self {
            Class::Put8 | Class::Get8 | Class::Atomic8 => 8,
            Class::Put1024 | Class::Get1024 => 1024,
            Class::Put65536 | Class::Get65536 => 65_536,
        }
    }
}

/// The generated inputs of one run: everything that varies with `--seed`.
/// Every workload takes its payload words from here; `mixed_rw_sim` also
/// takes each op's class and source offset.
#[derive(Debug)]
pub struct OpTable {
    pub seed: u64,
    words: Vec<u64>,
    classes: Vec<Class>,
}

impl OpTable {
    pub fn new(seed: u64) -> OpTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut words = Vec::with_capacity(TABLE_LEN);
        let mut classes = Vec::with_capacity(TABLE_LEN);
        for _ in 0..TABLE_LEN {
            words.push(rng.gen::<u64>());
            // Kinds: put 50 % / get 40 % / fetch-add 10 %. Sizes: 8 B 60 % /
            // 1 KiB 25 % (eager) / 64 KiB 15 % (direct); atomics are 8 B.
            let kind = rng.gen_range(0u32..100);
            let size = match rng.gen_range(0u32..100) {
                0..=59 => 0,
                60..=84 => 1,
                _ => 2,
            };
            classes.push(match kind {
                0..=49 => Class::ALL[size],
                50..=89 => Class::ALL[3 + size],
                _ => Class::Atomic8,
            });
        }
        OpTable { seed, words, classes }
    }

    #[inline]
    pub fn word(&self, i: u64) -> u64 {
        // Mixing in the op index keeps payloads distinct after the table
        // wraps, so a stale delivery can never pass for the current one.
        self.words[i as usize % TABLE_LEN] ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[inline]
    pub fn class(&self, i: u64) -> Class {
        self.classes[i as usize % TABLE_LEN]
    }

    /// FNV-1a over the table: same seed ⇒ same hash, recorded in the output
    /// so two result files can be checked to have run the same inputs.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (w, c) in self.words.iter().zip(&self.classes) {
            for b in w.to_le_bytes().into_iter().chain([*c as u8]) {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// SplitMix64 finalizer: the fill pattern of source buffers.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counters a driver keeps while it runs; plain integer bumps, kept in
/// traced and untraced runs alike.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Ops the driver tried to start (accepted or errored; a `try_*` that
    /// returned `false` for lack of credits is retried, not counted).
    pub attempted: u64,
    /// Ops that errored, completed with a bad status, or failed a check.
    pub failed: u64,
    /// Ops whose every completion was seen and checked.
    pub completed: u64,
    /// `try_*` calls made, and how many returned `false`.
    pub post_attempts: u64,
    pub stalls: u64,
    /// Completion polls made, how many came back empty, and how many
    /// completions they returned in total.
    pub polls: u64,
    pub empty_polls: u64,
    pub polled: u64,
}

impl Tally {
    #[inline]
    pub fn poll(&mut self, n: usize) {
        self.polls += 1;
        self.empty_polls += (n == 0) as u64;
        self.polled += n as u64;
    }

    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            attempted: self.attempted - earlier.attempted,
            failed: self.failed - earlier.failed,
            completed: self.completed - earlier.completed,
            post_attempts: self.post_attempts - earlier.post_attempts,
            stalls: self.stalls - earlier.stalls,
            polls: self.polls - earlier.polls,
            empty_polls: self.empty_polls - earlier.empty_polls,
            polled: self.polled - earlier.polled,
        }
    }
}

/// Exactly-once check on completion ids: every rid posted must come back
/// once per completion class. A count plus a running xor and sum catches a
/// lost, duplicated or foreign rid without storing any of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RidSet {
    count: u64,
    xor: u64,
    sum: u64,
}

impl RidSet {
    #[inline]
    pub fn add(&mut self, rid: u64) {
        self.count += 1;
        self.xor ^= rid;
        self.sum = self.sum.wrapping_add(rid);
    }

    pub fn count(&self) -> u64 {
        self.count
    }
}

/// What the runner needs from a workload. `setup` is the cold set-up whose
/// time is `setup_s`: construct the cluster, register the buffers, complete
/// one op to the peer (connections are lazy), so that dropping the value is
/// the tear-down.
pub trait Workload: Sized {
    const NAME: &'static str;
    const BACKEND: BackendKind;
    fn setup<T: Tracer>(table: &OpTable, clock: Clock, tr: &mut T) -> Self;

    /// Drive ops until `m.tick` says the phase is over, then retire
    /// everything still in flight.
    fn run<T: Tracer>(&mut self, table: &OpTable, tr: &mut T, m: &mut Meter);

    fn tally(&self) -> Tally;

    /// `Photon::stats()` of rank 0 and rank 1.
    fn core_stats(&self) -> [StatsSnapshot; 2];

    /// End-of-run checks on memory and counters; every miss, described as
    /// text for the report, is a failure.
    fn verify(&mut self, table: &OpTable) -> Vec<String>;

    /// `RtStats` of the sending node, for workloads that run on the runtime.
    fn rt_stats(&self) -> Option<photon_runtime::runtime::RtStats> {
        None
    }

    /// Tear down; the gups workload times its runtime shutdown here.
    fn teardown<T: Tracer>(self, _tr: &mut T) {}
}
