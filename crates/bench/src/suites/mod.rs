//! The wall-clock suites and the command line that runs them. A suite is a
//! plain function from [`Args`] to a [`Report`]; [`main`] is everything the
//! `photon-bench` binary does.

mod churn;
mod gups;
mod micro;
mod probe;
mod pwc;

use crate::experiments;
use crate::harness::{check, Args, Report, USAGE};
use std::path::Path;
use std::time::Instant;

/// A suite: the parsed command line in, one report out.
pub type Suite = fn(&Args) -> Report;

/// Every suite, by the name given on the command line.
pub const SUITES: &[(&str, Suite)] = &[
    ("put", pwc::put),
    ("get", pwc::get),
    ("probe", probe::run),
    ("sockets", pwc::sockets),
    ("gups", gups::run),
    ("churn", churn::run),
    ("micro", micro::run),
];

fn find(name: &str) -> Option<Suite> {
    SUITES.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

/// Run suite `name`; `None` when there is no such suite.
pub fn run(name: &str, args: &Args) -> Option<Report> {
    find(name).map(|suite| suite(args))
}

fn usage_error(msg: &str) -> i32 {
    let names: Vec<&str> = SUITES.iter().map(|(n, _)| *n).collect();
    eprintln!("error: {msg}\n{USAGE}\nsuites: {}", names.join(" "));
    2
}

/// The `photon-bench` command line: returns the process exit code (0 ok,
/// 1 a `--check` failed, 2 usage error).
pub fn main(argv: &[String]) -> i32 {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    if args.suite == "figures" {
        return figures(&args);
    }
    let Some(suite) = find(&args.suite) else {
        return usage_error(&format!("unknown suite: {}", args.suite));
    };
    // Load the baseline before measuring: a bad path fails in milliseconds.
    let baseline = match args.check.as_deref().map(Report::load).transpose() {
        Ok(b) => b,
        Err(e) => return usage_error(&e),
    };
    let report = suite(&args);
    report.print();
    let path = Path::new("results").join(format!("{}.json", args.stem()));
    if let Err(e) = report.write(&path) {
        eprintln!("error: write {}: {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    let Some(baseline) = baseline else { return 0 };
    let max = args.max_regress_pct;
    println!("-- check vs {} (max regression {max}%) --", args.check.as_deref().unwrap_or(""));
    let (lines, failed) = check(&report, &baseline, max);
    for l in &lines {
        println!("{l}");
    }
    if failed {
        eprintln!("FAIL: at least one cell regressed beyond {max}%, or the cell sets differ");
        return 1;
    }
    println!("check passed");
    0
}

/// `photon-bench figures [ids|--list]`: the modeled E1–E19 tables, printed
/// and written as `results/<id>.csv`.
fn figures(args: &Args) -> i32 {
    if args.list {
        for id in experiments::ALL {
            println!("{id}");
        }
        return 0;
    }
    let all: Vec<String> = experiments::ALL.iter().map(|s| s.to_string()).collect();
    for id in if args.ids.is_empty() { &all } else { &args.ids } {
        let start = Instant::now();
        let Some(table) = experiments::run(id) else {
            eprintln!("unknown experiment id: {id} (try --list)");
            return 2;
        };
        eprintln!("[{} finished in {:.1}s]", table.id, start.elapsed().as_secs_f64());
        println!("{}", table.render());
        if let Err(e) = table.write_csv(Path::new("results")) {
            eprintln!("warning: could not write CSV for {}: {e}", table.id);
        }
    }
    0
}
