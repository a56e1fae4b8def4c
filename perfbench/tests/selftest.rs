//! Tiny-size self-test of the benchmark: every workload declared in
//! `BENCHMARK.json`, untraced and traced, runs in seconds and must
//! print, as its last line, a correct result carrying every metric the
//! file declares for that mode, each with its declared unit.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use groupsa_json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn benchmark() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("an array")
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn declared(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let bench = benchmark();
    let workloads = names(bench.get("workloads").expect("workloads"));
    assert!(workloads.len() >= 2, "at least two workloads");
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_groupsa-perfbench"))
                .current_dir(repo_root())
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--size",
                    "tiny",
                ])
                .output()
                .expect("the benchmark runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last)
                .unwrap_or_else(|e| panic!("{workload}: result is not JSON ({e}): {last}"));
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} --trace {trace}: {stdout}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}: {last}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .is_some_and(|a| a >= 1.0),
                "{workload}: {last}"
            );
            let metrics = result.get("metrics").expect("metrics");
            let want = declared(&bench, key);
            for (name, unit) in &want {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{workload}: {name} has no numeric value"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{workload}: {name} unit"
                );
            }
            let Json::Object(members) = metrics else {
                panic!("metrics is not an object")
            };
            assert_eq!(
                members.len(),
                want.len(),
                "{workload} --trace {trace} prints undeclared metrics"
            );
        }
    }
}

#[test]
fn end_to_end_metrics_include_setup_time_with_the_largest_bound() {
    let bench = benchmark();
    let e2e = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end");
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("a bound");
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    assert!(e2e
        .iter()
        .all(|m| bound(m) <= bound(setup) && bound(m) <= 0.25));
}
