//! ```text
//! photon-benchmark                     every workload, untraced + traced pass, writes out/result.json
//! photon-benchmark --smoke             the same with 1 s phases (checks that it runs, not how fast)
//! photon-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                      one pass of one workload; last stdout line is the result object
//! photon-benchmark compare A.json B.json
//!                                      end-to-end metrics of two result files against the bounds
//! ```
//! `--out DIR` (default `benchmark/out`) is where result, pass and trace
//! files go.

use photon_benchmark::runner::{self, RunArgs};
use photon_benchmark::{host, report, spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: photon-benchmark [--smoke] [--seed N] [--out DIR]\n       \
         photon-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]\n       \
         photon-benchmark compare A.json B.json\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { return usage("compare takes two result files") };
        return match report::compare(Path::new(a), Path::new(b)) {
            Ok(0) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => usage(&e),
        };
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, None, false);
    let (mut smoke, mut setup_probe, mut out_dir) = (false, false, PathBuf::from("benchmark/out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                smoke = true;
                continue;
            }
            // Internal: what the untraced pass spawns to time a cold set-up.
            "--setup-probe" => {
                setup_probe = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0);
                seconds.is_some()
            }
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                out_dir = PathBuf::from(value);
                true
            }
            _ => return usage(&format!("unknown argument {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }

    if setup_probe {
        return match workload.and_then(|w| runner::setup_probe(&w, seed)) {
            Some(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            None => usage("--setup-probe needs a known --workload"),
        };
    }

    // A pass pins itself to one CPU; everything else on the host (this
    // process's parent, the kernel's own threads) needs another to run on,
    // or it would take its time out of the measurement.
    if host::nproc() < 2 {
        eprintln!("refusing to run: {} CPU available, the benchmark needs 2", host::nproc());
        return ExitCode::from(2);
    }
    if let Some(load) = host::load_average().filter(|&l| l > 1.0) {
        eprintln!("warning: load average is {load}; expect numbers outside their usual spread");
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let Some(workload) = workload else {
        return match report::run_all(seed, smoke, &out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("full run failed: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let Some(seconds) = seconds else { return usage("--workload needs --seconds") };
    // One pass runs on one CPU: this thread and every thread the workload
    // spawns (sock reactors, runtime progress and worker threads). See
    // "Load shape" in the README for why.
    if host::pin_to_one_cpu().is_none() {
        eprintln!("warning: cannot pin to one CPU; expect the sock and runtime numbers to wander");
    }
    let run = RunArgs { workload, seed, seconds, trace, smoke, out_dir };
    let Some(out) = runner::run(&run) else {
        return usage(&format!("unknown workload {}", run.workload));
    };
    for (m, v) in &out.metrics {
        println!("{:<36} {:>18} {}", m.name, report::show(*v), m.unit);
    }
    println!(
        "{:<36} {:>18} ratio  ({} failed of {} attempted)",
        "fail_ratio",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    let file = report::pass_file(&run.out_dir, &run.workload, run.trace);
    if let Err(e) = std::fs::write(&file, out.to_json().render_pretty()) {
        eprintln!("cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", out.driver_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: output verification failed: {}", run.workload, out.info.render());
        ExitCode::FAILURE
    }
}
