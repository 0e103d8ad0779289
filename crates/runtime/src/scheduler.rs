//! Per-node task scheduler whose idle workers own the network.
//!
//! HPX-5's worker model, abridged: a node runs `w` worker threads over one
//! shared FIFO run queue (parcels harvested off the network, local spawns),
//! and a worker that finds no task polls the network itself — there is no
//! separate progress thread. One worker at a time holds the **poll turn**:
//! it runs its poll hook, appends every task the poll harvested to the run
//! queue in one locked append, and releases the turn *before* running any
//! of them. A handler that blocks therefore never holds the turn, and every
//! harvested task stays runnable by any other worker.
//!
//! The idle policy, stated once: a worker whose turn comes up empty yields
//! [`SPIN_TURNS`] times, then sleeps [`TURN_SLEEP`] between turns; a worker
//! that finds no task and cannot take the turn parks on the condvar for at
//! most [`PARK`]. [`Scheduler::submit`] wakes a parked worker only when one
//! is parked — a sleeper count, read after the push, rules out a lost
//! wakeup without a `futex_wake` per task.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Consecutive empty turns a worker follows with a `yield_now`; past this
/// it sleeps [`TURN_SLEEP`] after each one.
pub const SPIN_TURNS: u32 = 256;
/// Sleep after an empty turn once a worker has spun [`SPIN_TURNS`] of them.
pub const TURN_SLEEP: Duration = Duration::from_micros(50);
/// Longest park of a worker that found no task while another held the turn.
pub const PARK: Duration = Duration::from_millis(1);

#[derive(Default)]
struct Parking {
    lock: Mutex<()>,
    cv: Condvar,
    /// Workers parked, or about to park, on `cv`.
    sleepers: AtomicUsize,
}

/// The shared half of a node scheduler.
pub struct Scheduler {
    queue: Mutex<VecDeque<Task>>,
    /// Set while one worker runs its poll hook.
    turn: AtomicBool,
    parking: Parking,
    shutdown: AtomicBool,
    executed: AtomicU64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("queued", &self.queue.lock().len())
            .field("executed", &self.executed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Scheduler {
    /// A scheduler with no workers yet (see [`Scheduler::start_workers`]).
    pub fn new() -> Arc<Scheduler> {
        Arc::new(Scheduler {
            queue: Mutex::new(VecDeque::new()),
            turn: AtomicBool::new(false),
            parking: Parking::default(),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
        })
    }

    /// Start `workers` threads named `{name}-w{i}`. Each gets its own poll
    /// hook from `make_poll`, built before its thread starts: run under the
    /// turn, the hook appends the tasks it harvested to its argument and
    /// returns whether it saw any activity. Returns the join handles
    /// (joined by the owner after [`Scheduler::stop`]).
    pub fn start_workers<P>(
        self: &Arc<Self>,
        workers: usize,
        name: &str,
        mut make_poll: impl FnMut() -> P,
    ) -> Vec<JoinHandle<()>>
    where
        P: FnMut(&mut Vec<Task>) -> bool + Send + 'static,
    {
        (0..workers)
            .map(|i| {
                let s = Arc::clone(self);
                let poll = make_poll();
                std::thread::Builder::new()
                    .name(format!("{name}-w{i}"))
                    .spawn(move || s.worker_loop(poll))
                    .expect("spawn worker")
            })
            .collect()
    }

    /// Submit a task from outside the pool (application, handlers).
    pub fn submit(&self, t: Task) {
        self.queue.lock().push_back(t);
        self.wake_one();
    }

    /// Request shutdown; workers exit once the run queue drains.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        let _g = self.parking.lock.lock();
        self.parking.cv.notify_all();
    }

    /// True once [`Scheduler::stop`] was called.
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Tasks executed so far.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    fn wake_one(&self) {
        // Pairs with the increment in `park`: either this load sees the
        // sleeper, or the sleeper's re-check sees the pushed task. Taking
        // the lock keeps the notify from landing between a parker's re-check
        // and its wait.
        if self.parking.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.parking.lock.lock();
            self.parking.cv.notify_one();
        }
    }

    fn park(&self) {
        let mut g = self.parking.lock.lock();
        self.parking.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-check under the lock: a task queued, the turn freed or a stop
        // requested since the caller looked means there is work to do now.
        let idle =
            self.queue.lock().is_empty() && self.turn.load(Ordering::Acquire) && !self.stopping();
        if idle {
            self.parking.cv.wait_for(&mut g, PARK);
        }
        self.parking.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn worker_loop(&self, mut poll: impl FnMut(&mut Vec<Task>) -> bool) {
        let mut harvested = Vec::new();
        let mut empty_turns: u32 = 0;
        loop {
            let next = self.queue.lock().pop_front();
            if let Some(t) = next {
                t();
                self.executed.fetch_add(1, Ordering::Relaxed);
                empty_turns = 0;
                continue;
            }
            if self.stopping() {
                return;
            }
            if self.turn.swap(true, Ordering::Acquire) {
                self.park();
                continue;
            }
            let busy = poll(&mut harvested);
            let got = !harvested.is_empty();
            if got {
                self.queue.lock().extend(harvested.drain(..));
            }
            self.turn.store(false, Ordering::Release);
            if got {
                // A parked sibling can share the batch, or take the turn
                // while this worker runs it.
                self.wake_one();
            }
            if busy {
                empty_turns = 0;
            } else {
                empty_turns = empty_turns.saturating_add(1);
                if empty_turns > SPIN_TURNS {
                    std::thread::sleep(TURN_SLEEP);
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler whose workers have no network to poll.
    fn start(workers: usize, name: &str) -> (Arc<Scheduler>, Vec<JoinHandle<()>>) {
        let s = Scheduler::new();
        let handles = s.start_workers(workers, name, || |_: &mut Vec<Task>| false);
        (s, handles)
    }

    #[test]
    fn executes_submitted_tasks() {
        let (s, handles) = start(4, "test");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            s.submit(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        while counter.load(Ordering::Relaxed) < 1000 {
            std::thread::yield_now();
        }
        s.stop();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.executed(), 1000);
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        // Recursive fan-out: 1 task spawns 2, depth 8 => 2^9 - 1 tasks.
        let (s, handles) = start(3, "fanout");
        let counter = Arc::new(AtomicUsize::new(0));
        fn fan(s: &Arc<Scheduler>, c: &Arc<AtomicUsize>, depth: u32) {
            c.fetch_add(1, Ordering::Relaxed);
            if depth == 0 {
                return;
            }
            for _ in 0..2 {
                let s2 = Arc::clone(s);
                let c2 = Arc::clone(c);
                let s3 = Arc::clone(s);
                s3.submit(Box::new(move || fan(&s2, &c2, depth - 1)));
            }
        }
        fan(&s, &counter, 8);
        let expect = (1usize << 9) - 1;
        while counter.load(Ordering::Relaxed) < expect {
            std::thread::yield_now();
        }
        s.stop();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn stop_terminates_idle_workers() {
        let (s, handles) = start(2, "idle");
        std::thread::sleep(Duration::from_millis(5));
        s.stop();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.executed(), 0);
    }

    #[test]
    fn harvested_batch_runs_beside_a_blocked_task() {
        // One poll harvests two tasks: the first blocks until the second
        // runs, so the second must be picked up by the other worker.
        let s = Scheduler::new();
        let released = Arc::new(AtomicBool::new(false));
        let delivered = Arc::new(AtomicBool::new(false));
        let handles = s.start_workers(2, "batch", || {
            let (released, delivered) = (Arc::clone(&released), Arc::clone(&delivered));
            move |out: &mut Vec<Task>| {
                if delivered.swap(true, Ordering::AcqRel) {
                    return false;
                }
                let (wait, open) = (Arc::clone(&released), Arc::clone(&released));
                out.push(Box::new(move || {
                    while !wait.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }));
                out.push(Box::new(move || open.store(true, Ordering::Release)));
                true
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.executed() < 2 {
            assert!(std::time::Instant::now() < deadline, "the batch's second task never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        s.stop();
        for h in handles {
            h.join().unwrap();
        }
    }
}
