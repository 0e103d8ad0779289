//! The wait / probe surface: dequeueing completions and blocking waits.

use crate::obs::{Stats, TraceOp};
use crate::photon::Photon;
use crate::probe::{Completion, CompletionClass, ProbeFlags};
use crate::{PhotonError, Rank, Result};
use photon_fabric::api::{VTime, WcStatus};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl Photon {
    /// Dequeue one event honoring `flags`. For `Any`, the starting class
    /// alternates on every take, so sustained traffic of one class can delay
    /// the other by at most one event — the old local-first drain starved
    /// remote delivery indefinitely.
    /// Dequeue one event matching `flags` in the consolidated
    /// [`Completion`] shape; every dequeue path funnels through here, which
    /// is also where the lifecycle spans get their `complete` stamp.
    fn take_one_completion(&self, flags: ProbeFlags) -> Option<Completion> {
        let local = |s: &Self| {
            s.local_events
                .pop_front()
                .map(|(rid, peer, ts, status)| Completion::local(rid, peer, ts, status))
        };
        let remote = |s: &Self| s.remote_events.pop_any();
        let got = match flags {
            ProbeFlags::Local => local(self),
            ProbeFlags::Remote => remote(self),
            ProbeFlags::Any => {
                if self.any_toggle.fetch_add(1, Ordering::Relaxed) & 1 == 0 {
                    local(self).or_else(|| remote(self))
                } else {
                    remote(self).or_else(|| local(self))
                }
            }
        };
        if let Some(c) = &got {
            self.observe_completion(c);
        }
        got
    }

    /// The lifecycle span's `complete` stamp for a dequeued event.
    fn observe_completion(&self, c: &Completion) {
        match c.class {
            CompletionClass::Local => self.obs.op_complete_local(c.rid, c.ts, c.status),
            CompletionClass::Remote => self.obs.op_complete_remote(c.peer, c.rid, c.ts, c.status),
        }
    }

    /// Run progress ahead of a probe, amortized: when events matching
    /// `flags` are already queued, only every 8th probe pays for a full
    /// pass — the probe can be satisfied from the queue, and consecutive
    /// single-event probes draining a backlog would otherwise spend most of
    /// their time re-polling idle fabric queues. An empty queue always
    /// progresses (that is the only way events appear).
    fn progress_for_probe(&self, flags: ProbeFlags) -> Result<()> {
        let queued = match flags {
            ProbeFlags::Local => self.local_events.len() > 0,
            ProbeFlags::Remote => self.remote_events.len() > 0,
            ProbeFlags::Any => self.local_events.len() > 0 || self.remote_events.len() > 0,
        };
        if !queued || self.probe_ticks.fetch_add(1, Ordering::Relaxed) & 7 == 0 {
            self.progress()?;
        }
        Ok(())
    }

    /// Block until the local completion `rid` arrives; other events stay
    /// queued. Returns the completion's virtual time, or
    /// [`PhotonError::OpFailed`] when the operation completed with an error
    /// status (its peer died or the path to it broke), or
    /// [`PhotonError::Timeout`] (carrying `rid`) when it does not arrive
    /// within the config's `wait_timeout_secs`, leaving the operation
    /// pending. The lookup is O(1) per spin (indexed by rid), independent
    /// of queue depth.
    pub fn wait_local(&self, rid: u64) -> Result<VTime> {
        // Consumer-first fast path: a completion already harvested — by an
        // earlier pass, ours or another thread's — is taken with no
        // progress work at all.
        if let Some((ts, status)) = self.local_events.take_rid(rid) {
            return self.finish_local(rid, ts, status);
        }
        // Optimistic inline pass: with synchronous fabric effects one pass
        // usually harvests the completion.
        self.progress()?;
        if let Some((ts, status)) = self.local_events.take_rid(rid) {
            return self.finish_local(rid, ts, status);
        }
        let (ts, status) = self
            .blocking("local completion", |s| Ok(s.local_events.take_rid(rid)))
            .map_err(|e| match e {
                PhotonError::Timeout { what, .. } => PhotonError::Timeout { what, rid: Some(rid) },
                e => e,
            })?;
        self.finish_local(rid, ts, status)
    }

    /// Consume one harvested local completion: advance the clock, trace,
    /// and surface an error status as [`PhotonError::OpFailed`].
    fn finish_local(&self, rid: u64, ts: VTime, status: WcStatus) -> Result<VTime> {
        self.clock.advance_to(ts);
        self.obs.op_complete_local(rid, ts, status);
        self.tracer.record(ts, TraceOp::LocalDone, self.rank, rid, 0);
        if status.is_ok() {
            Ok(ts)
        } else {
            Err(PhotonError::OpFailed { rid, status })
        }
    }

    // ---------------------------------------- consolidated completion view

    /// Probe for the next completion in the consolidated [`Completion`]
    /// shape: one struct carrying rid, peer, timestamp, status, and class
    /// for both local and remote completions. Non-blocking; `Ok(None)` when
    /// nothing is pending (`photon_probe_completion`).
    pub fn poll_completion(&self, flags: ProbeFlags) -> Result<Option<Completion>> {
        Stats::bump(&self.stats.probes);
        self.progress_for_probe(flags)?;
        let c = self.take_one_completion(flags);
        if let Some(c) = &c {
            self.clock.advance_to(c.ts);
            self.trace_completion(c);
        }
        Ok(c)
    }

    /// Batch [`Photon::poll_completion`]: run progress once, then drain up
    /// to `max` completions matching `flags` into `out` (appended; the
    /// caller's buffer is not cleared). Returns how many were delivered.
    ///
    /// One progress pass and a handful of shard-lock acquisitions amortize
    /// across the whole batch, which is what a runtime worker's poll turn
    /// wants under load; `Any` interleaves local and remote events fairly
    /// within the batch.
    pub fn poll_completions(
        &self,
        flags: ProbeFlags,
        out: &mut Vec<Completion>,
        max: usize,
    ) -> Result<usize> {
        Stats::bump(&self.stats.probes);
        Stats::bump(&self.stats.probe_batches);
        self.progress_for_probe(flags)?;
        // A single-class drain takes its queue's batched path: the locks are
        // taken once per run instead of once per event, and the clock is
        // advanced once to the batch maximum (`advance_to` is a running
        // max, so order is immaterial). The per-event hooks run after the
        // queue's locks are released.
        let first = out.len();
        let got = match flags {
            ProbeFlags::Local => self.local_events.pop_front_batch(max, |rid, peer, ts, status| {
                out.push(Completion::local(rid, peer, ts, status))
            }),
            ProbeFlags::Remote => self.remote_events.pop_batch(max, |c| out.push(c)),
            ProbeFlags::Any => return Ok(self.poll_any_completions(out, max)),
        };
        let mut latest = VTime(0);
        for c in &out[first..] {
            self.observe_completion(c);
            latest = latest.max(c.ts);
            self.trace_completion(c);
        }
        if got > 0 {
            self.clock.advance_to(latest);
        }
        Ok(got)
    }

    /// The `Any` drain: one event at a time, so local and remote events
    /// interleave fairly within the batch.
    fn poll_any_completions(&self, out: &mut Vec<Completion>, max: usize) -> usize {
        let mut got = 0;
        while got < max {
            let Some(c) = self.take_one_completion(ProbeFlags::Any) else { break };
            self.clock.advance_to(c.ts);
            self.trace_completion(&c);
            out.push(c);
            got += 1;
        }
        got
    }

    /// Block until a completion matching `flags` arrives, in the
    /// consolidated [`Completion`] shape. [`ProbeFlags::Any`] takes either
    /// class fairly; [`ProbeFlags::Remote`] is the historical `wait_remote`
    /// (events of the other class stay queued); [`ProbeFlags::Local`]
    /// blocks for the next initiator-side completion regardless of rid.
    pub fn wait_completion_matching(&self, flags: ProbeFlags) -> Result<Completion> {
        let what = match flags {
            ProbeFlags::Local => "local completion",
            ProbeFlags::Remote => "remote completion",
            ProbeFlags::Any => "completion",
        };
        let c = self.blocking(what, |s| Ok(s.take_one_completion(flags)))?;
        self.clock.advance_to(c.ts);
        self.trace_completion(&c);
        Ok(c)
    }

    /// Block until a remote completion *from `src`* arrives, in the
    /// consolidated [`Completion`] shape; events from other peers stay
    /// queued (the per-proc probe of the original API). O(1) per spin: the
    /// per-peer queue is popped directly, never scanned.
    pub fn wait_completion_from(&self, src: Rank) -> Result<Completion> {
        self.check_rank(src)?;
        let c =
            self.blocking("remote completion from peer", |s| Ok(s.remote_events.pop_from(src)))?;
        self.clock.advance_to(c.ts);
        self.observe_completion(&c);
        self.trace_completion(&c);
        Ok(c)
    }

    fn trace_completion(&self, c: &Completion) {
        if self.tracer.is_enabled() {
            match c.class {
                CompletionClass::Local => {
                    self.tracer.record(c.ts, TraceOp::LocalDone, self.rank, c.rid, 0)
                }
                CompletionClass::Remote => {
                    self.tracer.record(c.ts, TraceOp::RemoteDone, c.peer, c.rid, c.size)
                }
            }
        }
    }

    /// Non-blocking check for the local completion `rid` (`photon_test`):
    /// consumes and returns its timestamp when present; an error-status
    /// completion surfaces as [`PhotonError::OpFailed`]. O(1) lookup.
    pub fn test_local(&self, rid: u64) -> Result<Option<VTime>> {
        // Consumer-first, like `wait_local`: an already-harvested
        // completion costs one shard lookup and no progress pass.
        if let Some((ts, status)) = self.local_events.take_rid(rid) {
            return self.finish_local(rid, ts, status).map(Some);
        }
        self.progress()?;
        match self.local_events.take_rid(rid) {
            Some((ts, status)) => self.finish_local(rid, ts, status).map(Some),
            None => Ok(None),
        }
    }

    /// Block until a collective-namespace message with `rid` arrives.
    pub(crate) fn wait_coll(&self, rid: u64) -> Result<(Rank, Vec<u8>, VTime)> {
        let got = self.blocking("collective message", |s| {
            // Every collective generation has fresh rids: an emptied queue
            // goes with its last message.
            let mut inbox = s.coll_inbox.lock();
            let Some(q) = inbox.get_mut(&rid) else { return Ok(None) };
            let got = q.pop_front();
            if q.is_empty() {
                inbox.remove(&rid);
            }
            Ok(got)
        })?;
        self.clock.advance_to(got.2);
        Ok(got)
    }

    /// Spin, making progress, until `f` yields a value or the config's
    /// `wait_timeout_secs` pass, which reports [`PhotonError::Timeout`].
    /// A pass whose rechecks come up empty runs the backend's
    /// [`photon_fabric::FabricBackend::idle`] hook before it yields: over
    /// sockets, a thread that drives several ranks serves the others there,
    /// which is what lets their reactors stay parked while it blocks.
    pub(crate) fn blocking<T>(
        &self,
        what: &'static str,
        mut f: impl FnMut(&Self) -> Result<Option<T>>,
    ) -> Result<T> {
        let deadline = Instant::now() + Duration::from_secs(self.cfg.wait_timeout_secs);
        let mut spins: u32 = 0;
        loop {
            self.progress()?;
            // The predicate is O(1) on the sharded engine; the progress pass
            // is the expensive half of the spin. Re-check a few times per
            // pass so a harvest by a concurrently progressing thread is
            // picked up without paying for another full pass of our own.
            for _ in 0..4 {
                if let Some(v) = f(self)? {
                    return Ok(v);
                }
                std::hint::spin_loop();
            }
            // A full pass plus rechecks came up empty: whatever this caller
            // is waiting on must be produced by another thread (or will not
            // arrive at all), so hand the core over instead of burning the
            // rest of the quantum re-polling idle queues.
            self.nic.idle();
            std::thread::yield_now();
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(16) && Instant::now() > deadline {
                return Err(PhotonError::Timeout { what, rid: None });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PhotonCluster, PhotonConfig};
    use photon_fabric::NetworkModel;

    fn pair() -> PhotonCluster {
        PhotonCluster::new(2, NetworkModel::ib_fdr(), PhotonConfig::default())
    }

    #[test]
    fn probe_flags_separate_queues() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        p0.send(1, b"x", 1).unwrap();
        p1.send(0, b"y", 2).unwrap();
        // p0 has a remote event incoming; probing Local only must not eat it.
        p0.blocking("event arrival", |s| Ok((s.queued_events().1 > 0).then_some(()))).unwrap();
        assert!(p0.poll_completion(ProbeFlags::Local).unwrap().is_none());
        let ev = p0.poll_completion(ProbeFlags::Remote).unwrap().unwrap();
        assert_eq!(ev.rid, 2);
    }

    #[test]
    fn wait_completion_from_filters_by_source() {
        let c = PhotonCluster::new(3, NetworkModel::ib_fdr(), PhotonConfig::default());
        let (p0, p1, p2) = (c.rank(0), c.rank(1), c.rank(2));
        p1.send(0, b"from-1", 11).unwrap();
        // Ensure rank 1's message is already queued before rank 2 sends, so
        // the filter (not arrival order) is what's being tested.
        p0.blocking("first arrival", |s| Ok((s.queued_events().1 > 0).then_some(()))).unwrap();
        p2.send(0, b"from-2", 22).unwrap();
        let ev = p0.wait_completion_from(2).unwrap();
        assert_eq!((ev.peer, ev.rid), (2, 22));
        let ev = p0.wait_completion_matching(ProbeFlags::Remote).unwrap();
        assert_eq!((ev.peer, ev.rid), (1, 11), "skipped event still queued");
        assert!(p0.wait_completion_from(9).is_err());
    }

    #[test]
    fn test_local_is_nonblocking() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        assert_eq!(p0.test_local(5).unwrap(), None);
        let src = p0.register_buffer(8).unwrap();
        let dst = p1.register_buffer(8).unwrap();
        p0.put(1, &src, 0, 8, &dst.descriptor(), 0, 5).unwrap();
        let ts = p0.test_local(5).unwrap();
        assert!(ts.is_some());
        assert_eq!(p0.test_local(5).unwrap(), None, "consumed");
    }

    #[test]
    fn any_probe_is_fair_under_local_backlog() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        // One remote event queued on p0...
        p1.send(0, b"hi", 42).unwrap();
        p0.blocking("arrival", |s| Ok((s.queued_events().1 > 0).then_some(()))).unwrap();
        // ...behind a deep backlog of local completions.
        let src = p0.register_buffer(8).unwrap();
        let dst = p1.register_buffer(8).unwrap();
        for i in 0..64 {
            p0.put(1, &src, 0, 8, &dst.descriptor(), 0, i).unwrap();
        }
        p0.progress().unwrap();
        // A fair Any drain surfaces the remote event within two probes; the
        // old local-first drain served all 64 locals before it.
        let surfaced = (0..2).any(
            |_| matches!(p0.poll_completion(ProbeFlags::Any).unwrap(), Some(c) if c.is_remote()),
        );
        assert!(surfaced, "remote event starved behind local backlog");
    }

    #[test]
    fn batch_probe_drains_mixed_classes_fairly() {
        let c = pair();
        let (p0, p1) = (c.rank(0), c.rank(1));
        let src = p0.register_buffer(8).unwrap();
        let dst = p1.register_buffer(8).unwrap();
        for i in 0..8 {
            p0.put(1, &src, 0, 8, &dst.descriptor(), 0, 100 + i).unwrap();
        }
        for i in 0..4 {
            p1.send(0, b"m", 200 + i).unwrap();
        }
        p0.blocking("arrivals", |s| Ok((s.queued_events().1 == 4).then_some(()))).unwrap();
        let mut buf = Vec::new();
        let n = p0.poll_completions(ProbeFlags::Any, &mut buf, 64).unwrap();
        assert_eq!(n, 12);
        let remote_slots: Vec<usize> =
            buf.iter().enumerate().filter(|(_, e)| e.is_remote()).map(|(k, _)| k).collect();
        assert_eq!(remote_slots.len(), 4);
        // Fair interleave inside the batch: remote events alternate with
        // locals instead of bunching at the tail after every local.
        assert!(
            *remote_slots.last().unwrap() <= 8,
            "remote events bunched at batch tail: {remote_slots:?}"
        );
        // A capped drain delivers at most `max` and leaves the rest queued.
        for i in 0..8 {
            p0.put(1, &src, 0, 8, &dst.descriptor(), 0, 300 + i).unwrap();
        }
        p0.progress().unwrap();
        let mut small = Vec::new();
        assert_eq!(p0.poll_completions(ProbeFlags::Local, &mut small, 3).unwrap(), 3);
        assert_eq!(p0.queued_events().0, 5);
        assert_eq!(p0.stats().probe_batches, 2);
    }

    #[test]
    fn error_status_completion_surfaces_as_op_failed() {
        // The queues carry the status end-to-end: an error completion must
        // reach the caller as OpFailed from every consumption API, never be
        // silently swallowed as a success.
        let c = pair();
        let p0 = c.rank(0);
        p0.local_events.push(7, 1, VTime(10), WcStatus::FlushErr);
        assert_eq!(
            p0.wait_local(7),
            Err(PhotonError::OpFailed { rid: 7, status: WcStatus::FlushErr })
        );
        p0.local_events.push(8, 1, VTime(11), WcStatus::RemoteDead);
        assert_eq!(
            p0.test_local(8),
            Err(PhotonError::OpFailed { rid: 8, status: WcStatus::RemoteDead })
        );
        p0.local_events.push(9, 1, VTime(12), WcStatus::RetryExceeded);
        let ev = p0.wait_completion_matching(ProbeFlags::Any).unwrap();
        assert!(!ev.is_ok());
        assert_eq!(ev.status, WcStatus::RetryExceeded);
        assert_eq!(ev.rid, 9);
    }

    #[test]
    fn wait_local_reports_timeout_with_rid() {
        let cfg = PhotonConfig { wait_timeout_secs: 1, ..PhotonConfig::default() };
        let c = PhotonCluster::new(2, NetworkModel::ib_fdr(), cfg);
        let p0 = c.rank(0);
        let e = p0.wait_local(0x2a).unwrap_err();
        assert_eq!(e, PhotonError::Timeout { what: "local completion", rid: Some(0x2a) });
        assert!(e.to_string().contains("0x2a"));
        let e = p0.wait_completion_matching(ProbeFlags::Any).unwrap_err();
        assert_eq!(e, PhotonError::Timeout { what: "completion", rid: None });
    }
}
