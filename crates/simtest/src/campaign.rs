//! Campaign runner: many seeded cases, parallel *across* cases.
//!
//! A campaign is a named parameter preset plus a case count. Case `i` of a
//! campaign with seed `S` is always `(S, i)` — workers pull case ids from a
//! shared counter but results are collected in id order, so the campaign
//! digest is independent of `--jobs`. Failures carry a one-line reproducer
//! (`SIMTEST_SEED=… SIMTEST_CASE=… cargo run -q -p photon-simtest --bin
//! simtest -- replay <campaign>`) and, for executor cases, a shrunk
//! schedule. [`Campaign::driver`] is the one place that decides which
//! driver runs a case.
//!
//! Before generated cases run, known-bad seeds from the committed corpus
//! (`proptest-regressions/simtest.txt`) for this campaign are replayed, so
//! past failures act as permanent regression tests.

use crate::churn_driver::run_churn_case;
use crate::ds_driver::run_ds_case;
use crate::exec::{run_case, CaseReport};
use crate::fnv1a;
use crate::msg_driver::run_msg_case;
use crate::rpc_driver::run_rpc_case;
use crate::rt_driver::run_runtime_case;
use crate::schedule::{Schedule, SimParams};
use crate::shrink::shrink_schedule;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Named campaign presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// Mixed ops, moderate faults — the default tier-1 gate.
    Smoke,
    /// Tiny ledgers/rings everywhere: maximum backpressure on the credit
    /// protocol.
    Credits,
    /// Every case carries a fault plan plus registration churn.
    Faults,
    /// Quiescence-focused mix that also exercises the msg and runtime
    /// layers' own drivers.
    Quiescence,
    /// Peer-failure chaos: every case crashes a node and/or partitions a
    /// link mid-traffic; the all-ops-resolve checker enforces that no op
    /// ever hangs.
    Crash,
    /// RPC delivery-semantics chaos: many clients hammer one KV server
    /// while nodes crash and links partition mid-call; the token audit
    /// enforces that at-most-once traffic never double-applies and every
    /// call resolves to a success or a typed error.
    Rpc,
    /// Distributed-data-structure chaos: concurrent DHT (and, every fourth
    /// case, MPSC-queue) clients mix one-sided and RPC paths while nodes
    /// crash and links partition; a per-key linearizability checker must
    /// explain every observation, with errored ops as indeterminate.
    Ds,
    /// Membership churn: nodes crash, rejoin and late-join mid-traffic
    /// while every rank runs gossip membership over a bounded connection
    /// cache; checkers enforce all-ops-resolve, view convergence to fabric
    /// ground truth, reconnect-on-demand and bounded per-rank state.
    Churn,
}

impl Campaign {
    /// All campaigns, in CLI listing order.
    pub fn all() -> [Campaign; 8] {
        [
            Campaign::Smoke,
            Campaign::Credits,
            Campaign::Faults,
            Campaign::Quiescence,
            Campaign::Crash,
            Campaign::Rpc,
            Campaign::Ds,
            Campaign::Churn,
        ]
    }

    /// The routing table: CLI name, generator preset and driver of every
    /// campaign, written once.
    fn row(self) -> (&'static str, fn() -> SimParams, Driver) {
        match self {
            Campaign::Smoke => ("smoke", SimParams::smoke, Driver::Executor),
            Campaign::Credits => ("credits", SimParams::credits, Driver::Executor),
            Campaign::Faults => ("faults", SimParams::faults, Driver::Executor),
            Campaign::Quiescence => ("quiescence", SimParams::quiescence, Driver::Executor),
            Campaign::Crash => ("crash", SimParams::crash, Driver::Executor),
            Campaign::Rpc => ("rpc", SimParams::rpc, Driver::Rpc),
            Campaign::Ds => ("ds", SimParams::ds, Driver::Ds),
            Campaign::Churn => ("churn", SimParams::churn, Driver::Churn),
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        self.row().0
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Campaign> {
        Campaign::all().into_iter().find(|c| c.name() == s)
    }

    /// Generator bounds for this campaign's cases.
    pub fn params(self) -> SimParams {
        (self.row().1)()
    }

    /// The driver that runs case `case_id`. The quiescence stream
    /// interleaves msg-layer and runtime-layer cases into its executor
    /// cases.
    pub fn driver(self, case_id: u64) -> Driver {
        match (self, case_id % 8) {
            (Campaign::Quiescence, 3) => Driver::Msg,
            (Campaign::Quiescence, 6) => Driver::Runtime,
            _ => self.row().2,
        }
    }
}

/// The code that runs one case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The deterministic schedule executor over Photon core ([`crate::exec`]);
    /// the only driver whose failures shrink.
    Executor,
    /// The deterministic two-sided stepper ([`crate::msg_driver`]).
    Msg,
    /// The threaded parcel-cascade driver ([`crate::rt_driver`]).
    Runtime,
    /// The threaded KV-over-RPC driver ([`crate::rpc_driver`]).
    Rpc,
    /// The threaded DHT/queue driver ([`crate::ds_driver`]).
    Ds,
    /// The single-threaded membership-churn stepper ([`crate::churn_driver`]).
    Churn,
}

impl Driver {
    /// True when the driver runs the case's generated [`Schedule`]; the
    /// others derive their own workload from `(seed, case_id)`.
    pub fn reads_schedule(self) -> bool {
        matches!(self, Driver::Executor | Driver::Rpc | Driver::Ds)
    }
}

/// Options for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    /// Number of generated cases.
    pub cases: u64,
    /// Campaign seed; case `i` runs as `(seed, i)`.
    pub seed: u64,
    /// Worker threads (parallelism is across cases; 0 is treated as 1).
    pub jobs: usize,
    /// Shrink failing schedule-based cases.
    pub shrink: bool,
    /// Regression corpus path; `None` uses the committed default and
    /// silently skips a missing file.
    pub corpus: Option<PathBuf>,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts { cases: 50, seed: 0x5EED, jobs: 4, shrink: true, corpus: None }
    }
}

/// One failing case, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Campaign seed the case ran under.
    pub seed: u64,
    /// Case id.
    pub case_id: u64,
    /// Which campaign's parameters it used.
    pub campaign: Campaign,
    /// Invariant violations, in discovery order.
    pub violations: Vec<String>,
    /// `Display` of the shrunk schedule, when shrinking ran and helped.
    pub shrunk: Option<String>,
    /// Where the case's op-lifecycle span trace (Chrome trace_event JSON,
    /// loadable in Perfetto / `chrome://tracing`) was written, when the
    /// case produced spans and the dump succeeded.
    pub span_path: Option<PathBuf>,
}

impl CaseFailure {
    /// The copy-pasteable one-line reproducer.
    pub fn reproducer(&self) -> String {
        format!(
            "SIMTEST_SEED={:#x} SIMTEST_CASE={} cargo run -q -p photon-simtest --bin simtest -- replay {}",
            self.seed,
            self.case_id,
            self.campaign.name()
        )
    }

    /// The corpus line that pins this failure as a regression test.
    pub fn corpus_line(&self) -> String {
        format!("{} {:#x} {}", self.campaign.name(), self.seed, self.case_id)
    }
}

/// Outcome of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// Generated cases executed (corpus replays come on top).
    pub cases_run: u64,
    /// Corpus entries replayed before the generated cases.
    pub corpus_run: u64,
    /// FNV-1a over the per-case digests of the generated cases, in case-id
    /// order. Identical across machines and `--jobs` levels.
    pub digest: u64,
    /// Every failing case (corpus and generated).
    pub failures: Vec<CaseFailure>,
}

impl CampaignResult {
    /// True when no case failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable report; failure entries include the reproducer line
    /// and any shrunk schedule.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "campaign {}: {} cases ({} corpus), {} failure(s), digest {:#018x}\n",
            self.campaign.name(),
            self.cases_run,
            self.corpus_run,
            self.failures.len(),
            self.digest
        );
        for f in &self.failures {
            let _ = writeln!(s, "case {} FAILED:", f.case_id);
            for v in &f.violations {
                let _ = writeln!(s, "  - {v}");
            }
            let _ = writeln!(s, "  reproduce: {}", f.reproducer());
            if let Some(p) = &f.span_path {
                let _ = writeln!(s, "  span trace: {}", p.display());
            }
            let _ = writeln!(
                s,
                "  pin it:    echo '{}' >> proptest-regressions/simtest.txt",
                f.corpus_line()
            );
            if let Some(sh) = &f.shrunk {
                let _ = writeln!(s, "  shrunk schedule:");
                for line in sh.lines() {
                    let _ = writeln!(s, "    {line}");
                }
            }
        }
        s
    }
}

/// Run one case exactly as a campaign would, on the driver
/// [`Campaign::driver`] picks.
pub fn run_one(campaign: Campaign, seed: u64, case_id: u64) -> CaseReport {
    let params = campaign.params();
    match campaign.driver(case_id) {
        Driver::Executor => run_case(seed, case_id, &params),
        Driver::Msg => run_msg_case(seed, case_id),
        Driver::Runtime => run_runtime_case(seed, case_id),
        Driver::Rpc => run_rpc_case(seed, case_id, &params),
        Driver::Ds => run_ds_case(seed, case_id, &params),
        Driver::Churn => run_churn_case(seed, case_id, &params),
    }
}

/// Parse a corpus/CLI integer: decimal or `0x`-prefixed hex.
pub fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// The committed corpus location (`proptest-regressions/simtest.txt` at the
/// workspace root).
pub fn default_corpus_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../proptest-regressions/simtest.txt")
}

/// Load corpus entries: one `<campaign> <seed> <case_id>` triple per line,
/// `#` comments and blank lines ignored, malformed lines skipped.
pub fn load_corpus(path: &Path) -> Vec<(String, u64, u64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let mut it = line.split_whitespace();
            let name = it.next()?.to_string();
            let seed = parse_u64(it.next()?)?;
            let case = parse_u64(it.next()?)?;
            Some((name, seed, case))
        })
        .collect()
}

/// Write a failing case's span trace (Chrome trace_event JSON) under the OS
/// temp dir so failure reports can point at it. Returns `None` when the case
/// produced no spans or the write failed — failure reporting must never
/// itself fail.
pub fn dump_span_trace(campaign: &str, rep: &CaseReport) -> Option<PathBuf> {
    if rep.span_json.is_empty() {
        return None;
    }
    let dir = std::env::temp_dir().join("photon-simtest");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("span-{campaign}-{:#x}-{}.json", rep.seed, rep.case_id));
    std::fs::write(&path, &rep.span_json).ok()?;
    Some(path)
}

fn failure_from(campaign: Campaign, rep: &CaseReport, shrink: bool) -> CaseFailure {
    let shrunk = if shrink && campaign.driver(rep.case_id) == Driver::Executor {
        let sched = Schedule::generate(rep.seed, rep.case_id, &campaign.params());
        shrink_schedule(&sched, 128).map(|s| {
            format!("{} (shrunk from {} ops in {} runs)", s.schedule, sched.ops.len(), s.runs_used)
        })
    } else {
        None
    };
    CaseFailure {
        seed: rep.seed,
        case_id: rep.case_id,
        campaign,
        violations: rep.violations.clone(),
        shrunk,
        span_path: dump_span_trace(campaign.name(), rep),
    }
}

/// Run a campaign: corpus replays first, then `opts.cases` generated cases
/// across `opts.jobs` workers.
pub fn run_campaign(campaign: Campaign, opts: &CampaignOpts) -> CampaignResult {
    let mut failures = Vec::new();

    // Corpus replays (sequential — these are few and must not perturb the
    // generated-case digest).
    let corpus_path = opts.corpus.clone().unwrap_or_else(default_corpus_path);
    let corpus: Vec<(u64, u64)> = load_corpus(&corpus_path)
        .into_iter()
        .filter(|(name, _, _)| name == campaign.name())
        .map(|(_, s, c)| (s, c))
        .collect();
    for &(seed, case_id) in &corpus {
        let rep = run_one(campaign, seed, case_id);
        if !rep.passed() {
            failures.push(failure_from(campaign, &rep, opts.shrink));
        }
    }

    // Generated cases: workers pull ids from a counter, results land in
    // id-indexed slots so collection order never depends on scheduling.
    let total = opts.cases;
    let jobs = opts.jobs.clamp(1, 64).min(total.max(1) as usize);
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<CaseReport>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if id >= total {
                    break;
                }
                let rep = run_one(campaign, opts.seed, id);
                *slots[id as usize].lock().expect("slot lock") = Some(rep);
            });
        }
    });

    let mut digest_src = String::new();
    for slot in &slots {
        let rep = slot.lock().expect("slot lock").take().expect("case ran");
        let _ = write!(digest_src, "{}:{:x};", rep.case_id, rep.digest);
        if !rep.passed() {
            failures.push(failure_from(campaign, &rep, opts.shrink));
        }
    }

    CampaignResult {
        campaign,
        cases_run: total,
        corpus_run: corpus.len() as u64,
        digest: fnv1a(digest_src.as_bytes()),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_case_gets_a_span_trace_dump() {
        // Any executed schedule case carries spans; fake a violation so the
        // failure path (dump + summary line) runs end to end.
        let mut rep = run_one(Campaign::Smoke, 0x5EED, 0);
        assert!(
            rep.span_json.starts_with("{\"displayTimeUnit\":"),
            "span JSON missing/ malformed: {}",
            &rep.span_json[..rep.span_json.len().min(80)]
        );
        assert!(rep.span_json.trim_end().ends_with('}'));
        rep.violations.push("synthetic violation for dump test".into());
        let f = failure_from(Campaign::Smoke, &rep, false);
        let path = f.span_path.clone().expect("span dump written");
        let text = std::fs::read_to_string(&path).expect("dump readable");
        assert_eq!(text, rep.span_json);
        // The summary points the user at the dump, next to the reproducer.
        let result = CampaignResult {
            campaign: Campaign::Smoke,
            cases_run: 1,
            corpus_run: 0,
            digest: 0,
            failures: vec![f],
        };
        let summary = result.summary();
        assert!(summary.contains("reproduce: "));
        assert!(summary.contains(&format!("span trace: {}", path.display())));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_names_round_trip() {
        for c in Campaign::all() {
            assert_eq!(Campaign::from_name(c.name()), Some(c));
        }
        assert_eq!(Campaign::from_name("bogus"), None);
    }

    #[test]
    fn digest_is_jobs_independent() {
        let mk = |jobs| CampaignOpts {
            cases: 6,
            seed: 0xD16E57,
            jobs,
            shrink: false,
            corpus: Some(PathBuf::from("/nonexistent")),
        };
        let a = run_campaign(Campaign::Smoke, &mk(1));
        let b = run_campaign(Campaign::Smoke, &mk(3));
        assert!(a.passed(), "{}", a.summary());
        assert!(b.passed(), "{}", b.summary());
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn corpus_parses_and_filters() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("simtest-corpus-{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "# pinned failures\nsmoke 0x10 3\n\ncredits 17 0\nbad-line\nsmoke 0x20 4\n",
        )
        .expect("write corpus");
        let entries = load_corpus(&path);
        assert_eq!(
            entries,
            vec![
                ("smoke".to_string(), 0x10, 3),
                ("credits".to_string(), 17, 0),
                ("smoke".to_string(), 0x20, 4),
            ]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quiescence_campaign_mixes_all_drivers() {
        let opts = CampaignOpts {
            cases: 8, // ids 3 and 6 hit the msg and runtime drivers
            seed: 0x0AB5_CE55,
            jobs: 2,
            shrink: false,
            corpus: Some(PathBuf::from("/nonexistent")),
        };
        let r = run_campaign(Campaign::Quiescence, &opts);
        assert!(r.passed(), "{}", r.summary());
    }

    #[test]
    fn routing_table_picks_each_cases_driver() {
        use Driver::*;
        let expected = [
            (Campaign::Smoke, Executor),
            (Campaign::Credits, Executor),
            (Campaign::Faults, Executor),
            (Campaign::Quiescence, Executor),
            (Campaign::Crash, Executor),
            (Campaign::Rpc, Rpc),
            (Campaign::Ds, Ds),
            (Campaign::Churn, Churn),
        ];
        assert_eq!(expected.map(|(c, _)| c), Campaign::all());
        for (campaign, driver) in expected {
            for id in 0..16 {
                let want = match (campaign, id % 8) {
                    (Campaign::Quiescence, 3) => Msg,
                    (Campaign::Quiescence, 6) => Runtime,
                    _ => driver,
                };
                assert_eq!(campaign.driver(id), want, "{} case {id}", campaign.name());
            }
        }
        // The shrinker re-runs edited schedules through the executor, which
        // cannot run an rpc or ds schedule at all: a failure of any other
        // driver must come back unshrunk, without a re-run.
        for (campaign, id) in [(Campaign::Quiescence, 3), (Campaign::Quiescence, 6)]
            .into_iter()
            .chain([Campaign::Rpc, Campaign::Ds, Campaign::Churn].map(|c| (c, 0)))
        {
            let mut v = crate::Violations::default();
            v.push("synthetic".into());
            let rep = CaseReport::verdict(0x5EED, id, v, "");
            assert!(failure_from(campaign, &rep, true).shrunk.is_none());
        }
    }
}
