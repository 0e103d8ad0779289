//! The full run (every workload, both passes, one child process each) and
//! the `compare` subcommand over two of its result files.

use crate::host;
use crate::json::Json;
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// File a pass leaves in the output directory for the full run to collect.
pub fn pass_file(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(format!("{workload}.{}.json", if traced { "traced" } else { "end_to_end" }))
}

/// Run every workload sequentially, each pass in its own child process so
/// peak RSS, CPU time and allocator state belong to that workload alone.
/// Returns whether every pass was correct.
pub fn run_all(seed: u64, smoke: bool, out_dir: &Path) -> std::io::Result<bool> {
    let exe = std::env::current_exe()?;
    let host = host::fingerprint();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut run_pass = |traced: bool| -> std::io::Result<Json> {
            let seconds = match (smoke, traced) {
                (true, _) => 1,
                (false, false) => w.seconds,
                (false, true) => spec::TRACED_SECONDS,
            };
            let kind = if traced { "traced" } else { "untraced" };
            println!("== {} · {kind} pass · {seconds} s ==", w.name);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(out_dir);
            if smoke {
                cmd.arg("--smoke");
            }
            // The child inherits stdout: its metric lines are the report.
            let status = cmd.status()?;
            let pass = std::fs::read_to_string(pass_file(out_dir, w.name, traced))
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t));
            Ok(match pass {
                Ok(p) if status.success() => {
                    all_correct &= p.get("correct").and_then(Json::as_bool).unwrap_or(false);
                    p
                }
                _ => {
                    eprintln!("{}: {kind} pass failed ({status})", w.name);
                    all_correct = false;
                    Json::obj([("correct", Json::Bool(false))])
                }
            })
        };
        let (end_to_end, per_layer) = (run_pass(false)?, run_pass(true)?);
        workloads.push(Json::obj([
            ("name", Json::str(w.name)),
            ("why", Json::str(w.why)),
            ("seconds", Json::Num(if smoke { 1.0 } else { w.seconds as f64 })),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
        ]));
    }

    let bounds = Json::Obj(
        END_TO_END
            .iter()
            .map(|(m, bound)| {
                let entry = Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(*bound)),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    );
    let result = Json::obj([
        ("benchmark", Json::str("photon-benchmark")),
        ("host", host),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        (
            "run_lengths_s",
            Json::obj([
                ("warmup", Json::Num(if smoke { 0.5 } else { spec::WARMUP_SECONDS })),
                ("traced_pass", Json::Num(if smoke { 1.0 } else { spec::TRACED_SECONDS as f64 })),
                ("driver_run_seconds", Json::Num(spec::RUN_SECONDS as f64)),
            ]),
        ),
        ("end_to_end_metrics", bounds),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = out_dir.join("result.json");
    std::fs::write(&path, result.render_pretty())?;
    print_summary(&result);
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// Four significant digits or four decimals, whichever shows more: a 0.1 ms
/// set-up must not print as 0.0001.
pub fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 1.0 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

fn metric_value(pass: &Json, name: &str) -> Option<f64> {
    pass.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_summary(result: &Json) {
    let workloads = result.get("workloads").and_then(Json::as_arr).unwrap_or(&[]);
    println!("\n== end to end ==");
    print!("{:<18}", "workload");
    for (m, _) in &END_TO_END {
        print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>10} {:>8}", "fail_ratio", "correct");
    for w in workloads {
        let pass = w.get("end_to_end").unwrap_or(&Json::Null);
        print!("{:<18}", w.get("name").and_then(Json::as_str).unwrap_or("?"));
        for (m, _) in &END_TO_END {
            match metric_value(pass, m.name) {
                Some(v) => print!(" {:>16}", show(v)),
                None => print!(" {:>16}", "-"),
            }
        }
        println!(
            " {:>10} {:>8}",
            pass.get("fail_ratio").and_then(Json::as_f64).map_or("-".into(), |v| format!("{v}")),
            pass.get("correct").and_then(Json::as_bool).unwrap_or(false)
        );
    }
    println!("\n== per layer (0 = the workload does not exercise that layer) ==");
    print!("{:<36}", "metric [unit]");
    for w in workloads {
        print!(" {:>16}", w.get("name").and_then(Json::as_str).unwrap_or("?"));
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<36}", format!("{} [{}]", m.name, m.unit));
        for w in workloads {
            match w.get("per_layer").and_then(|p| metric_value(p, m.name)) {
                Some(v) => print!(" {:>16}", show(v)),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// Compare the end-to-end metrics of two result files, pair by pair.
/// Returns how many (workload, metric) pairs differ by more than the
/// metric's bound, in either direction, plus any rise in `fail_ratio`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<usize, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let passes = |r: &Json| -> Vec<(String, Json)> {
        r.get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| {
                Some((w.get("name")?.as_str()?.to_string(), w.get("end_to_end")?.clone()))
            })
            .collect()
    };
    let (pa, pb) = (passes(&a), passes(&b));
    for key in ["seed", "smoke"] {
        if a.get(key) != b.get(key) {
            println!("note: the files differ in `{key}`: {:?} vs {:?}", a.get(key), b.get(key));
        }
    }
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "diff", "bound"
    );
    let mut wide = 0;
    for (name, ea) in &pa {
        let Some((_, eb)) = pb.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} missing from {}", b_path.display());
            wide += 1;
            continue;
        };
        for (m, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(ea, m.name), metric_value(eb, m.name)) else {
                println!("{name:<18} {:<14} missing", m.name);
                wide += 1;
                continue;
            };
            let diff = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse = match m.better {
                Better::Higher => diff < 0.0,
                Better::Lower => diff > 0.0,
            };
            let verdict = match (diff.abs() > *bound, worse) {
                (false, _) => "within bound",
                (true, true) => "WIDER THAN BOUND: b is worse",
                (true, false) => "WIDER THAN BOUND: b is better",
            };
            wide += (diff.abs() > *bound) as usize;
            println!(
                "{name:<18} {:<14} {:>16} {:>16} {:>+8.2}% {:>6.0}%  {verdict}",
                m.name,
                show(va),
                show(vb),
                diff * 100.0,
                bound * 100.0
            );
        }
        let ratio = |e: &Json| e.get("fail_ratio").and_then(Json::as_f64).unwrap_or(1.0);
        let (fa, fb) = (ratio(ea), ratio(eb));
        // Any rise in failures counts; there is no bound to stay within.
        let rose = fb > fa;
        wide += rose as usize;
        println!(
            "{name:<18} {:<14} {fa:>16} {fb:>16} {:>9} {:>7}  {}",
            "fail_ratio",
            "",
            "any",
            if rose { "ROSE" } else { "no rise" }
        );
    }
    for (name, _) in pb.iter().filter(|(n, _)| !pa.iter().any(|(m, _)| m == n)) {
        println!("{name:<18} missing from {}", a_path.display());
        wide += 1;
    }
    println!("{wide} pair(s) differ by more than their bound");
    Ok(wide)
}
