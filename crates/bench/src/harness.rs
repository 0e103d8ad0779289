//! The one wall-clock bench harness: the [`Cell`]/[`Report`] schema with
//! its JSON writer and parser, the both-directions [`check`], `best_of`,
//! the two-rank [`Pump`] every put/get scenario runs on, and the one argv
//! parser. Suites (`crate::suites`) are plain functions from [`Args`] to a
//! [`Report`]; nothing here knows which suite is running.

use photon_core::{
    BackendKind, Completion, GetManyItem, PhotonCluster, PhotonConfig, ProbeFlags, PutManyItem,
};
use photon_fabric::NetworkModel;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

// ------------------------------------------------------------------ schema

/// One measured scenario: `ops` operations took `ns_total` nanoseconds
/// (wall clock unless the suite's notes say otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Scenario name; `--check` matches cells by it.
    pub name: String,
    /// Operations the scenario performed.
    pub ops: u64,
    /// Total time for those operations.
    pub ns_total: u64,
    /// Suite-specific numeric side data (`clients`, `net_us_per_op`, ...).
    pub extra: Vec<(String, f64)>,
}

impl Cell {
    /// A measured cell.
    pub fn new(name: impl Into<String>, ops: u64, ns_total: u64) -> Cell {
        Cell { name: name.into(), ops, ns_total, extra: Vec::new() }
    }

    /// Attach one `extra` value.
    pub fn with(mut self, key: &str, value: f64) -> Cell {
        self.extra.push((key.to_string(), value));
        self
    }

    /// Look up an `extra` value.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Throughput in millions of operations per second.
    pub fn rate(&self) -> f64 {
        if self.ns_total == 0 {
            0.0
        } else {
            self.ops as f64 / self.ns_total as f64 * 1000.0
        }
    }
}

/// Where a report was measured, probed at run time; a probe that fails
/// records `unknown` (`cpus`: 0) instead of failing the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub cpus: usize,
    /// `uname -r`.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`.
    pub git_rev: String,
}

impl Host {
    /// Probe the running host.
    pub fn probe() -> Host {
        let line = |prog: &str, args: &[&str]| {
            std::process::Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Host {
            cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: line("uname", &["-r"]),
            rustc: line("rustc", &["--version"]),
            git_rev: line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

/// What every suite returns and every `results/BENCH_*.json` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Suite name (`put`, `gups`, ...).
    pub bench: String,
    /// Run label (`baseline` for the committed, unlabelled recording).
    pub label: String,
    /// Host fingerprint.
    pub host: Host,
    /// Repetitions each cell is the minimum over.
    pub reps: u32,
    /// How repetitions fold into a cell.
    pub stat: String,
    /// The measurements.
    pub cells: Vec<Cell>,
    /// Pass/fail lines the suite computed from its own cells.
    pub verdicts: Vec<String>,
    /// Free-form footnotes.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for the suite `args` names, fingerprinting the host
    /// now.
    pub fn new(args: &Args, reps: u32) -> Report {
        Report {
            bench: args.suite.clone(),
            label: args.label().unwrap_or("baseline").to_string(),
            host: Host::probe(),
            reps,
            stat: "min_over_reps".to_string(),
            cells: Vec::new(),
            verdicts: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The cell called `name`.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Throughput of the cell called `name` (0 when absent).
    pub fn rate_of(&self, name: &str) -> f64 {
        self.cell(name).map_or(0.0, Cell::rate)
    }

    /// Serialize in the one schema (one cell per line).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": {},", quote(&self.bench));
        let _ = writeln!(s, "  \"label\": {},", quote(&self.label));
        let h = &self.host;
        let _ = writeln!(
            s,
            "  \"host\": {{\"cpus\": {}, \"kernel\": {}, \"rustc\": {}, \"git_rev\": {}}},",
            h.cpus,
            quote(&h.kernel),
            quote(&h.rustc),
            quote(&h.git_rev)
        );
        let _ = writeln!(s, "  \"reps\": {},", self.reps);
        let _ = writeln!(s, "  \"stat\": {},", quote(&self.stat));
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let mut line = format!(
                    "{{\"name\": {}, \"ops\": {}, \"ns_total\": {}, \"mops_per_sec\": {:.4}",
                    quote(&c.name),
                    c.ops,
                    c.ns_total,
                    c.rate()
                );
                if !c.extra.is_empty() {
                    let kv: Vec<String> =
                        c.extra.iter().map(|(k, v)| format!("{}: {}", quote(k), num(*v))).collect();
                    let _ = write!(line, ", \"extra\": {{{}}}", kv.join(", "));
                }
                line + "}"
            })
            .collect();
        write_array(&mut s, "cells", &cells, ",");
        let quoted = |xs: &[String]| xs.iter().map(|x| quote(x)).collect::<Vec<_>>();
        write_array(&mut s, "verdicts", &quoted(&self.verdicts), ",");
        write_array(&mut s, "notes", &quoted(&self.notes), "");
        let _ = writeln!(s, "}}");
        s
    }

    /// Parse a report written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let root = p.value()?;
        let text = |obj: &Json, key: &str| Ok::<_, String>(obj.field(key)?.str()?.to_string());
        let strings = |key: &str| -> Result<Vec<String>, String> {
            root.field(key)?.arr()?.iter().map(|v| v.str().map(String::from)).collect()
        };
        let host = root.field("host")?;
        let cells = root
            .field("cells")?
            .arr()?
            .iter()
            .map(|c| {
                Ok(Cell {
                    name: text(c, "name")?,
                    ops: c.field("ops")?.num()? as u64,
                    ns_total: c.field("ns_total")?.num()? as u64,
                    extra: match c.field("extra") {
                        Ok(Json::Obj(kv)) => kv
                            .iter()
                            .map(|(k, v)| Ok((k.clone(), v.num()?)))
                            .collect::<Result<_, String>>()?,
                        _ => Vec::new(),
                    },
                })
            })
            .collect::<Result<Vec<Cell>, String>>()?;
        Ok(Report {
            bench: text(&root, "bench")?,
            label: text(&root, "label")?,
            host: Host {
                cpus: host.field("cpus")?.num()? as usize,
                kernel: text(host, "kernel")?,
                rustc: text(host, "rustc")?,
                git_rev: text(host, "git_rev")?,
            },
            reps: root.field("reps")?.num()? as u32,
            stat: text(&root, "stat")?,
            cells,
            verdicts: strings("verdicts")?,
            notes: strings("notes")?,
        })
    }

    /// Read and parse a committed baseline.
    pub fn load(path: &str) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("parse {path}: {e}"))
    }

    /// Write the JSON to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_file(path, &self.to_json())
    }

    /// Print the cells, verdicts and notes.
    pub fn print(&self) {
        let h = &self.host;
        println!(
            "{} ({}): {} cpus, {}, {}, rev {}",
            self.bench, self.label, h.cpus, h.kernel, h.rustc, h.git_rev
        );
        for c in &self.cells {
            // Extras at display precision; the JSON keeps every digit.
            let extras: String =
                c.extra.iter().map(|(k, v)| format!(" {k}={}", (v * 1e3).round() / 1e3)).collect();
            println!(
                "{:>36}  {:>9} ops  {:>12} ns  {:>8.3} Mops/s  {:>10.1} ns/op {extras}",
                c.name,
                c.ops,
                c.ns_total,
                c.rate(),
                c.ns_total as f64 / c.ops.max(1) as f64
            );
        }
        for line in self.verdicts.iter().chain(&self.notes) {
            println!("  # {line}");
        }
    }
}

/// Write `text` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn write_array(s: &mut String, key: &str, items: &[String], comma: &str) {
    let _ = writeln!(s, "  \"{key}\": [");
    for (k, item) in items.iter().enumerate() {
        let _ = writeln!(s, "    {item}{}", if k + 1 < items.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ]{comma}");
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out + "\""
}

/// JSON has no NaN/inf: a non-finite value is written as `null` and reads
/// back as NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// ------------------------------------------------------------ JSON parser

#[derive(Debug)]
enum Json {
    Null,
    /// `true`/`false`: legal JSON, but no key of this schema holds one.
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
        .ok_or_else(|| format!("missing key \"{key}\""))
    }

    fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }

    fn num(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("expected an array, found {other:?}")),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// Comma-separated items up to `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1; // the opening bracket
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            if self.peek() == Some(b',') {
                self.i += 1;
            } else {
                self.expect(close)?;
                return Ok(out);
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => Ok(Json::Obj(self.list(b'}', |p| {
                let k = p.string()?;
                p.expect(b':')?;
                Ok((k, p.value()?))
            })?)),
            b'[' => Ok(Json::Arr(self.list(b']', Parser::value)?)),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool),
            b'f' => self.literal("false", Json::Bool),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                let tok = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                tok.parse().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other), // \" \\ \/
                    }
                }
                c => out.push(c),
            }
        }
    }
}

// ------------------------------------------------------------------ check

/// Compare `measured` against `baseline`, cell by cell, in both
/// directions: a measured cell missing from the baseline, a baseline cell
/// not measured, and a cell whose `ops` differ (throughput at one op count
/// says nothing about another) are failures, exactly like a throughput
/// drop beyond `max_pct` percent. Returns the verdict lines (ending with
/// the worst regression) and whether the check failed.
pub fn check(measured: &Report, baseline: &Report, max_pct: f64) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut failed = false;
    if measured.host.cpus != baseline.host.cpus {
        lines.push(format!(
            "warning: baseline was recorded on {} cpus, this host has {}",
            baseline.host.cpus, measured.host.cpus
        ));
    }
    let mut worst: Option<(&str, f64)> = None;
    for c in &measured.cells {
        let name = &c.name;
        let Some(base) = baseline.cell(name) else {
            failed = true;
            lines.push(format!("{name:>36}  MISSING from baseline — re-record it"));
            continue;
        };
        if c.ops != base.ops {
            failed = true;
            lines.push(format!(
                "{name:>36}  OPS MISMATCH: baseline {} ops, measured {} — rerun with matching --ops",
                base.ops, c.ops
            ));
            continue;
        }
        let (was, now) = (base.rate(), c.rate());
        let delta = if was > 0.0 { (now - was) / was * 100.0 } else { 0.0 };
        if worst.is_none_or(|(_, w)| delta < w) {
            worst = Some((name, delta));
        }
        let bad = delta < -max_pct;
        failed |= bad;
        lines.push(format!(
            "{name:>36}  base {was:>8.3}  now {now:>8.3} Mops/s  {delta:>+7.2}%  {}",
            if bad { "REGRESSED" } else { "ok" }
        ));
    }
    for base in &baseline.cells {
        if measured.cell(&base.name).is_none() {
            failed = true;
            lines.push(format!("{:>36}  in baseline but NOT measured this run", base.name));
        }
    }
    if let Some((name, delta)) = worst {
        lines.push(format!("worst regression: {name} ({delta:+.2}%)"));
    }
    (lines, failed)
}

// ------------------------------------------------------------ measurement

/// Minimum over `reps` runs: each scenario does a fixed amount of work, so
/// the minimum is the run least disturbed by scheduler noise (single runs
/// swing by tens of percent on small shared vCPUs).
pub fn best_of(reps: u32, mut f: impl FnMut() -> Cell) -> Cell {
    (0..reps.max(1)).map(|_| f()).min_by_key(|c| c.ns_total).expect("at least one rep")
}

/// Which one-sided operation the pump posts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// 8-byte `put_with_completion` / `put_many`.
    Put,
    /// 8-byte `get_with_completion` / `get_many`.
    Get,
}

impl Op {
    /// `put` / `get`, as it appears in scenario names.
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
        }
    }
}

/// What one pump run took: wall clock, and rank 0's virtual clock (only
/// meaningful on the sim backend).
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Modeled nanoseconds on rank 0's clock.
    pub virt_ns: u64,
}

/// The two-rank 8-byte put/get pump. The axes the old per-bin copies of
/// this loop hard-coded are fields here.
#[derive(Debug, Clone, Copy)]
pub struct Pump {
    /// Simulated fabric or real loopback sockets.
    pub backend: BackendKind,
    /// Network model (the sockets backend ignores it).
    pub model: NetworkModel,
}

impl Pump {
    /// The sim backend on the `ideal` model: wall-clock time is then
    /// dominated by the posting path's own locking and bookkeeping, not
    /// modeled wire latency.
    pub fn ideal_sim() -> Pump {
        Pump { backend: BackendKind::Sim, model: NetworkModel::ideal() }
    }

    /// A two-rank cluster on this pump's axes.
    pub fn cluster(&self) -> PhotonCluster {
        let cfg = PhotonConfig { backend: self.backend, ..PhotonConfig::default() };
        PhotonCluster::new(2, self.model, cfg)
    }

    /// Build a cluster and [`Pump::drive`] it.
    pub fn run(&self, op: Op, batched: bool, window: usize, ops: u64) -> Elapsed {
        Pump::drive(&self.cluster(), op, batched, window, ops)
    }

    /// Rank 0 keeps up to `window` 8-byte operations toward rank 1 in
    /// flight until `ops` have completed locally and, for puts, rank 1 has
    /// reaped every notification (which is what returns ring credits).
    /// `batched` posts whatever fits in the window through one
    /// `put_many`/`get_many` doorbell instead of one post per operation.
    /// Registration happens before the clocks start.
    pub fn drive(c: &PhotonCluster, op: Op, batched: bool, window: usize, ops: u64) -> Elapsed {
        let (p0, p1) = (c.rank(0), c.rank(1));
        let local = p0.register_buffer(64).expect("register");
        let remote = p1.register_buffer(64).expect("register");
        let d = remote.descriptor();
        let mut evs: Vec<Completion> = Vec::with_capacity(128);
        let mut puts: Vec<PutManyItem> = Vec::with_capacity(window);
        let mut gets: Vec<GetManyItem> = Vec::with_capacity(window);
        let to_drain = if op == Op::Put { ops } else { 0 };
        c.reset_time();
        let t0 = Instant::now();
        let (mut posted, mut done, mut drained) = (0u64, 0u64, 0u64);
        while done < ops || drained < to_drain {
            let rids = posted..posted + (window as u64 - (posted - done)).min(ops - posted);
            posted += match (op, batched) {
                // Out of ring credits posts a short prefix: the receiver
                // catches up below.
                (Op::Put, false) => rids
                    .take_while(|&rid| {
                        p0.try_put_with_completion(1, &local, 0, 8, &d, 0, rid, rid).expect("put")
                    })
                    .count() as u64,
                (Op::Put, true) => {
                    puts.clear();
                    puts.extend(rids.map(|rid| PutManyItem {
                        loff: 0,
                        len: 8,
                        doff: 0,
                        local_rid: rid,
                        remote_rid: rid,
                    }));
                    p0.try_put_many(1, &local, &d, &puts).expect("put_many") as u64
                }
                (Op::Get, false) => {
                    let n = rids.end - rids.start;
                    for rid in rids {
                        p0.get_with_completion(1, &local, 0, 8, &d, 0, rid).expect("get");
                    }
                    n
                }
                (Op::Get, true) => {
                    gets.clear();
                    gets.extend(rids.map(|rid| GetManyItem {
                        loff: 0,
                        len: 8,
                        soff: 0,
                        local_rid: rid,
                    }));
                    p0.get_many(1, &local, &d, &gets).expect("get_many");
                    gets.len() as u64
                }
            };
            while drained < posted.min(to_drain) {
                evs.clear();
                let n = p1.poll_completions(ProbeFlags::Remote, &mut evs, 64).expect("probe");
                if n == 0 {
                    break;
                }
                drained += n as u64;
            }
            evs.clear();
            done += p0.poll_completions(ProbeFlags::Local, &mut evs, 128).expect("probe") as u64;
        }
        Elapsed { wall_ns: t0.elapsed().as_nanos() as u64, virt_ns: p0.now().as_nanos() }
    }
}

// ------------------------------------------------------------------- argv

/// The usage line (suite names are appended by the caller that knows them).
pub const USAGE: &str =
    "usage: photon-bench <suite> [--smoke] [--label NAME] [--ops N] [--reps N] \
     [--check BASELINE.json] [--max-regress-pct P] [--trace]\n       \
     photon-bench figures [ID...|--list]";

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// First positional argument.
    pub suite: String,
    /// `figures` only: experiment ids (empty = all).
    pub ids: Vec<String>,
    /// `figures --list`.
    pub list: bool,
    /// CI-sized run.
    pub smoke: bool,
    /// Output label (see [`Args::label`]).
    pub label: Option<String>,
    /// Operation-count override.
    pub ops: Option<u64>,
    /// Repetition-count override.
    pub reps: Option<u32>,
    /// Baseline to compare against.
    pub check: Option<String>,
    /// Allowed throughput drop for `--check`, percent.
    pub max_regress_pct: f64,
    /// `put` only: one extra obs-enabled pass, written as a Perfetto trace.
    pub trace: bool,
}

impl Args {
    /// Defaults for `suite`, as if no flag was given.
    pub fn for_suite(suite: &str) -> Args {
        Args {
            suite: suite.to_string(),
            ids: Vec::new(),
            list: false,
            smoke: false,
            label: None,
            ops: None,
            reps: None,
            check: None,
            max_regress_pct: 2.0,
            trace: false,
        }
    }

    /// Parse everything after the program name. Every malformed input — no
    /// suite, an unknown flag, a flag missing its value, a value that does
    /// not parse, an argument the suite does not take — is an `Err` the
    /// caller turns into usage + exit 2.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut it = argv.iter();
        let suite = it.next().filter(|s| !s.starts_with('-')).ok_or("missing <suite>")?;
        let mut a = Args::for_suite(suite);
        let figures = suite == "figures";
        fn value<'a, T: std::str::FromStr>(
            flag: &str,
            it: &mut impl Iterator<Item = &'a String>,
        ) -> Result<T, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse \"{v}\""))
        }
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list" if figures => a.list = true,
                id if figures && !id.starts_with('-') => a.ids.push(id.to_string()),
                _ if figures => return Err(format!("figures takes ids or --list, not {arg}")),
                "--smoke" => a.smoke = true,
                "--trace" if suite == "put" => a.trace = true,
                "--trace" => return Err("--trace applies to the put suite only".to_string()),
                "--label" => a.label = Some(value(arg, &mut it)?),
                "--ops" => a.ops = Some(value(arg, &mut it)?),
                "--reps" => a.reps = Some(value(arg, &mut it)?),
                "--check" => a.check = Some(value(arg, &mut it)?),
                "--max-regress-pct" => a.max_regress_pct = value(arg, &mut it)?,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if a.ops == Some(0) || a.reps == Some(0) {
            return Err("--ops and --reps must be at least 1".to_string());
        }
        Ok(a)
    }

    /// The effective label. Only a full, unlabelled, unchecked run records
    /// the committed `BENCH_<suite>.json`; a `--smoke` or `--check` run
    /// without `--label` is labelled after the flag so it can never
    /// overwrite the baseline it is compared with.
    pub fn label(&self) -> Option<&str> {
        match &self.label {
            Some(l) => Some(l),
            None if self.smoke => Some("smoke"),
            None if self.check.is_some() => Some("check"),
            None => None,
        }
    }

    /// Output file stem: `BENCH_<suite>` or `BENCH_<suite>_<label>`.
    pub fn stem(&self) -> String {
        match self.label() {
            Some(l) => format!("BENCH_{}_{l}", self.suite),
            None => format!("BENCH_{}", self.suite),
        }
    }

    /// `--ops`, else the suite's full or smoke default.
    pub fn ops(&self, full: u64, smoke: u64) -> u64 {
        self.ops.unwrap_or(if self.smoke { smoke } else { full })
    }

    /// `--reps`, else the suite's full or smoke default.
    pub fn reps(&self, full: u32, smoke: u32) -> u32 {
        self.reps.unwrap_or(if self.smoke { smoke } else { full })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn report(cells: Vec<Cell>) -> Report {
        Report {
            bench: "put".into(),
            label: "t".into(),
            host: Host {
                cpus: 2,
                kernel: "6.1 \"quoted\"".into(),
                rustc: "rustc 1.0".into(),
                git_rev: "abc1234".into(),
            },
            reps: 3,
            stat: "min_over_reps".into(),
            cells,
            verdicts: strs(&["w4: batched 2.0 vs windowed 1.0 -> PASS"]),
            notes: strs(&["back\\slash, tab\there, newline\nthere, µs"]),
        }
    }

    /// 1 Mops/s at `mops == 1.0`: 1000 ops in `1e6 / mops` ns.
    fn cell(name: &str, mops: f64) -> Cell {
        Cell::new(name, 1000, (1e6 / mops) as u64)
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let r = report(vec![
            cell("a", 2.0).with("clients", 4.0).with("net_us_per_op", 3.046_449_999_999_999_7),
            Cell::new("big", u32::MAX as u64 * 1000, 1 << 52),
            cell("nan", 1.0).with("conv_rounds_mean", f64::NAN),
        ]);
        let back = Report::from_json(&r.to_json()).expect("parses");
        let nan = back.cells[2].get("conv_rounds_mean").unwrap();
        assert!(nan.is_nan(), "non-finite extras read back as NaN, got {nan}");
        // NaN != NaN, so compare that cell by its other fields.
        assert_eq!(back.cells[2].name, "nan");
        assert_eq!(back.cells[..2], r.cells[..2]);
        assert_eq!(
            (&back.bench, &back.label, &back.host, back.reps, &back.stat),
            (&r.bench, &r.label, &r.host, r.reps, &r.stat)
        );
        assert_eq!((back.verdicts, back.notes), (r.verdicts, r.notes));
    }

    #[test]
    fn parser_accepts_reformatted_json_and_names_what_is_missing() {
        let compact = r#"{"bench":"x","label":"l","host":{"cpus":1,"kernel":"k","rustc":"r",
            "git_rev":"g"},"reps":1,"stat":"s","unknown_key":[true,false,null,{"a":-1.5e3}],
            "cells":[{"name":"a","ops":10,"ns_total":20}],"verdicts":[],"notes":["\u00b5s"]}"#;
        let r = Report::from_json(compact).expect("parses");
        assert_eq!(r.cells, vec![Cell::new("a", 10, 20)]);
        assert_eq!(r.notes, strs(&["µs"]));
        let err = Report::from_json(r#"{"bench":"x"}"#).unwrap_err();
        assert!(err.starts_with("missing key"), "{err}");
        assert!(Report::from_json("{\"bench\": ").is_err());
        assert!(Report::from_json("").is_err());
    }

    #[test]
    fn check_passes_within_threshold_and_reports_the_worst_cell() {
        let base = report(vec![cell("a", 1.0), cell("b", 1.0)]);
        let now = report(vec![cell("a", 0.95), cell("b", 1.2)]);
        let (lines, failed) = check(&now, &base, 10.0);
        assert!(!failed, "{lines:?}");
        assert!(lines.iter().all(|l| !l.contains("REGRESSED")));
        let worst = lines.last().unwrap();
        assert!(worst.starts_with("worst regression: a (-5."), "{worst}");
    }

    #[test]
    fn check_fails_beyond_threshold() {
        let base = report(vec![cell("a", 1.0), cell("b", 1.0)]);
        let now = report(vec![cell("a", 0.5), cell("b", 1.0)]);
        let (lines, failed) = check(&now, &base, 30.0);
        assert!(failed);
        assert!(lines.iter().any(|l| l.contains(" a ") && l.contains("REGRESSED")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains(" b ") && l.ends_with("ok")), "{lines:?}");
    }

    #[test]
    fn check_fails_on_cell_set_differences_in_both_directions() {
        let base = report(vec![cell("a", 1.0), cell("old", 1.0)]);
        let now = report(vec![cell("a", 1.0), cell("new", 1.0)]);
        let (lines, failed) = check(&now, &base, 30.0);
        assert!(failed);
        assert!(lines.iter().any(|l| l.contains("new") && l.contains("MISSING from baseline")));
        assert!(lines.iter().any(|l| l.contains("old") && l.contains("NOT measured")));
        // Each direction fails on its own.
        assert!(check(&report(vec![cell("a", 1.0)]), &base, 30.0).1);
        assert!(check(&now, &report(vec![cell("a", 1.0)]), 30.0).1);
    }

    #[test]
    fn check_names_an_ops_mismatch_instead_of_comparing() {
        let base = report(vec![Cell::new("a", 100_000, 100_000_000)]);
        // Same Mops/s, different op count: still not comparable.
        let now = report(vec![Cell::new("a", 20_000, 20_000_000)]);
        let (lines, failed) = check(&now, &base, 30.0);
        assert!(failed);
        assert!(lines[0].contains("OPS MISMATCH") && lines[0].contains("100000"), "{lines:?}");
        assert!(!lines.iter().any(|l| l.starts_with("worst regression")), "{lines:?}");
    }

    #[test]
    fn check_warns_on_cpu_mismatch() {
        let mut base = report(vec![cell("a", 1.0)]);
        base.host.cpus = 8;
        let now = report(vec![cell("a", 1.0)]);
        let (lines, failed) = check(&now, &base, 5.0);
        assert!(!failed, "{lines:?}");
        assert!(lines[0].starts_with("warning:") && lines[0].contains("8 cpus"), "{lines:?}");
    }

    #[test]
    fn argv_errors_are_errors_not_panics() {
        for bad in [
            &[][..],
            &["--smoke"],
            &["put", "--ops"],
            &["put", "--ops", "many"],
            &["put", "--ops", "0"],
            &["put", "--label"],
            &["put", "--backend", "sock"],
            &["put", "stray"],
            &["get", "--trace"],
            &["figures", "--smoke"],
        ] {
            assert!(Args::parse(&strs(bad)).is_err(), "{bad:?} must be rejected");
        }
        // ... which the command line turns into usage + exit 2, as it does an
        // unknown suite and an unreadable baseline (before measuring).
        for bad in [&["nope"][..], &["put", "--reps"], &["put", "--check", "/no/such.json"]] {
            assert_eq!(crate::suites::main(&strs(bad)), 2, "{bad:?}");
        }
    }

    #[test]
    fn argv_parses_every_flag_and_labels_never_clobber_the_baseline() {
        let a = Args::parse(&strs(&[
            "put",
            "--smoke",
            "--label",
            "ci",
            "--ops",
            "7",
            "--reps",
            "2",
            "--check",
            "b.json",
            "--max-regress-pct",
            "30",
            "--trace",
        ]))
        .unwrap();
        let want = Args {
            smoke: true,
            label: Some("ci".into()),
            ops: Some(7),
            reps: Some(2),
            check: Some("b.json".into()),
            max_regress_pct: 30.0,
            trace: true,
            ..Args::for_suite("put")
        };
        assert_eq!(a, want);
        assert_eq!((a.stem(), a.ops(100, 10), a.reps(5, 1)), ("BENCH_put_ci".into(), 7, 2));

        let stem = |argv: &[&str]| Args::parse(&strs(argv)).unwrap().stem();
        assert_eq!(stem(&["put"]), "BENCH_put");
        assert_eq!(stem(&["put", "--smoke"]), "BENCH_put_smoke");
        assert_eq!(stem(&["put", "--check", "results/BENCH_put.json"]), "BENCH_put_check");
        let full = Args::for_suite("gups");
        assert_eq!((full.ops(2000, 300), full.reps(1, 1)), (2000, 1));

        let f = Args::parse(&strs(&["figures", "e1", "e3"])).unwrap();
        assert_eq!((f.ids, f.list), (strs(&["e1", "e3"]), false));
        assert!(Args::parse(&strs(&["figures", "--list"])).unwrap().list);
    }

    #[test]
    fn the_fastest_rep_is_kept() {
        let mut times = [30u64, 10, 20].into_iter();
        let c = best_of(3, || Cell::new("x", 1, times.next().unwrap()));
        assert_eq!(c.ns_total, 10);
    }

    #[test]
    fn pump_completes_every_mode_and_the_modeled_clock_moves() {
        let pump = Pump { model: NetworkModel::ib_fdr(), ..Pump::ideal_sim() };
        for op in [Op::Put, Op::Get] {
            for batched in [false, true] {
                for window in [1usize, 16] {
                    let e = pump.run(op, batched, window, 200);
                    assert!(e.wall_ns > 0 && e.virt_ns > 0, "{op:?} batched={batched} w{window}");
                }
            }
        }
        // Latency hiding: a deeper window finishes the same puts in less
        // modeled time.
        let (w1, w16) = (pump.run(Op::Put, false, 1, 200), pump.run(Op::Put, false, 16, 200));
        assert!(w16.virt_ns < w1.virt_ns, "{} !< {}", w16.virt_ns, w1.virt_ns);
    }
}
