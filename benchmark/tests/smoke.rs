//! `cargo test --offline --manifest-path benchmark/Cargo.toml`
//!
//! Checks that the benchmark runs and reports what it says it reports; it
//! makes no statement about speed (phases are 1 s, bounds are not applied).

use photon_benchmark::json::Json;
use photon_benchmark::report;
use photon_benchmark::spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use photon_benchmark::workloads::OpTable;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn load(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every name in `specs` appears exactly once in `pass.metrics`, finite and
/// with its unit, and nothing else does.
fn check_metrics(workload: &str, pass: &Json, specs: &[(&str, &str)]) {
    let metrics = pass
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{workload}: pass has no metrics object: {}", pass.render()));
    for (name, unit) in specs {
        let hits: Vec<&Json> = metrics.iter().filter(|(k, _)| k == name).map(|(_, v)| v).collect();
        assert_eq!(hits.len(), 1, "{workload}: {name} reported {} times", hits.len());
        let value = hits[0].get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload}: {name} is not a finite number");
        assert_eq!(hits[0].get("unit").and_then(Json::as_str), Some(*unit), "{workload}: {name}");
    }
    assert_eq!(metrics.len(), specs.len(), "{workload}: metrics beyond the declared ones");
}

#[test]
fn smoke_run_reports_every_metric_once_and_verifies() {
    let out = scratch("smoke");
    let status = Command::new(env!("CARGO_BIN_EXE_photon-benchmark"))
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("spawn the benchmark");
    assert!(status.success(), "smoke run exited with {status}");

    let result = load(&out.join("result.json"));
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let host = result.get("host").expect("host fingerprint block");
    for key in ["nproc", "kernel", "rustc", "git_rev", "sock"] {
        assert!(host.get(key).is_some(), "host fingerprint lacks {key}");
    }
    assert_eq!(result.get("seed").and_then(Json::as_f64), Some(7.0));

    let workloads = result.get("workloads").and_then(Json::as_arr).expect("workloads array");
    let names: Vec<&str> = workloads.iter().filter_map(|w| w.get("name")?.as_str()).collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));

    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|(m, _)| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let hash = format!("{:016x}", OpTable::new(7).hash());
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        for (key, specs) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            let pass = w.get(key).unwrap_or_else(|| panic!("{name}: no {key} pass"));
            check_metrics(name, pass, specs);
            assert_eq!(pass.get("correct").and_then(Json::as_bool), Some(true), "{name} {key}");
            assert_eq!(pass.get("fail_ratio").and_then(Json::as_f64), Some(0.0), "{name} {key}");
            assert!(pass.get("attempted").and_then(Json::as_f64).is_some_and(|a| a >= 1.0));
            let info = pass.get("info").expect("info block");
            assert_eq!(info.get("op_table_hash").and_then(Json::as_str), Some(hash.as_str()));
        }
        // No end-to-end metric may read 0: the driver divides by them.
        for (metric, _) in &end_to_end {
            let v = w
                .get("end_to_end")
                .and_then(|p| p.get("metrics")?.get(metric)?.get("value")?.as_f64());
            assert!(v.is_some_and(|v| v > 0.0), "{name}: {metric} = {v:?}");
        }
        let trace = out.join(format!("trace_{name}.json"));
        let events = load(&trace);
        assert!(
            events.get("traceEvents").and_then(Json::as_arr).is_some_and(|e| e.len() > 2),
            "{}: no spans",
            trace.display()
        );
    }

    // A result file agrees with itself; halving one rate does not.
    assert_eq!(report::compare(&out.join("result.json"), &out.join("result.json")), Ok(0));
    let text = std::fs::read_to_string(out.join("result.json")).unwrap();
    let first = result.get("workloads").and_then(Json::as_arr).unwrap()[0]
        .get("end_to_end")
        .and_then(|p| p.get("metrics")?.get("ops_per_s")?.get("value")?.as_f64())
        .unwrap();
    let halved = out.join("halved.json");
    std::fs::write(&halved, text.replacen(&format!("{first}"), &format!("{}", first / 2.0), 1))
        .unwrap();
    assert_eq!(report::compare(&out.join("result.json"), &halved), Ok(1));
}

#[test]
fn seed_selects_the_op_table() {
    assert_eq!(OpTable::new(1).hash(), OpTable::new(1).hash());
    assert_ne!(OpTable::new(1).hash(), OpTable::new(2).hash());
}

/// `BENCHMARK.json` is what the driver reads; `spec.rs` is what the binary
/// does. They must say the same thing.
#[test]
fn benchmark_json_matches_the_binary() {
    let manifest = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    assert_eq!(manifest.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));
    let strs = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| Some(s.as_str()?.to_string()))
            .collect()
    };
    assert_eq!(strs("paths"), ["benchmark"]);
    assert!(strs("command").iter().any(|a| a == "benchmark/Cargo.toml"));

    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let listed = |key: &str| manifest.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();

    let workloads: Vec<(String, String)> =
        listed("workloads").iter().map(|w| (field(w, "name"), field(w, "why"))).collect();
    let want: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
    assert_eq!(workloads, want);

    let end_to_end: Vec<(String, String, String, Option<f64>)> = listed("end_to_end")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let want: Vec<(String, String, String, Option<f64>)> = END_TO_END
        .iter()
        .map(|(m, b)| (m.name.into(), m.unit.into(), m.better.as_str().into(), Some(*b)))
        .collect();
    assert_eq!(end_to_end, want);

    let per_layer: Vec<(String, String, String)> = listed("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
        .collect();
    assert_eq!(per_layer, want);
}
