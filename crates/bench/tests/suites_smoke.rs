//! Every suite, run in-process at `--smoke` size: a suite that stops
//! building, stops producing cells, or writes JSON the parser rejects fails
//! here instead of rotting until someone next runs it by hand.

use photon_bench::harness::{check, Args, Report};
use photon_bench::suites::{self, SUITES};
use std::collections::HashSet;

#[test]
fn every_suite_runs_at_smoke_size_and_round_trips_through_its_file() {
    let dir = std::env::temp_dir().join(format!("photon-bench-smoke-{}", std::process::id()));
    for (name, _) in SUITES {
        let args = Args { smoke: true, ..Args::for_suite(name) };
        let report = suites::run(name, &args).expect("suite is registered");
        assert_eq!((report.bench.as_str(), report.label.as_str()), (*name, "smoke"));
        assert!(!report.cells.is_empty(), "{name}: no cells");
        let mut seen = HashSet::new();
        for c in &report.cells {
            assert!(seen.insert(&c.name), "{name}: duplicate cell {}", c.name);
            assert!(c.ops > 0, "{name}/{}: zero ops", c.name);
            assert!(c.ns_total > 0, "{name}/{}: zero ns_total", c.name);
            let mops = c.rate();
            assert!(mops.is_finite() && mops > 0.0, "{name}/{}: {mops} Mops/s", c.name);
        }

        let path = dir.join(format!("{}.json", args.stem()));
        report.write(&path).expect("write report");
        let back = Report::load(path.to_str().unwrap()).expect("parse what was written");
        assert_eq!(back.cells.len(), report.cells.len(), "{name}");
        for (a, b) in back.cells.iter().zip(&report.cells) {
            assert_eq!((&a.name, a.ops, a.ns_total), (&b.name, b.ops, b.ns_total));
            assert_eq!(a.extra.len(), b.extra.len(), "{name}/{}", a.name);
        }
        assert_eq!(
            (&back.host, &back.verdicts, &back.notes),
            (&report.host, &report.verdicts, &report.notes)
        );
        // A run checked against itself passes: same cells, same ops.
        let (lines, failed) = check(&back, &back, 0.0);
        assert!(!failed, "{name}: {lines:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_suite_is_none() {
    assert!(suites::run("no_such_suite", &Args::for_suite("x")).is_none());
}
