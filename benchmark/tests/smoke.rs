//! The whole benchmark at `--smoke` scale, end to end: all four
//! workloads, untraced and traced, probes and correctness checks
//! included, through the same `all` command and child processes the
//! real run uses.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_fbp-benchmark");

fn run_in(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn listed(benchmark: &serde_json::Value, key: &str) -> Vec<String> {
    let serde_json::Value::Array(items) = &benchmark[key] else {
        panic!("{key} is not an array");
    };
    items
        .iter()
        .map(|m| m["name"].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn smoke_scale_runs_every_workload_and_records_every_metric() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-all");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let started = Instant::now();
    run_in(&dir, &["all", "--seed", "5", "--seconds", "0.6", "--smoke"]);
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 15, "smoke scale took {elapsed:?}");

    let out = dir.join("benchmark").join("out");
    let record = std::fs::read_to_string(out.join("result_5.json")).unwrap();
    let record = serde_json::from_str(&record).unwrap();
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark = serde_json::from_str(&std::fs::read_to_string(benchmark).unwrap()).unwrap();
    assert!(record["host"]["nproc"].as_f64().unwrap() >= 1.0);
    assert!(record["host"]["stream_read_gbps"].as_f64().unwrap() > 0.0);
    for workload in listed(&benchmark, "workloads") {
        let w = &record["workloads"][workload.as_str()];
        assert!(w["correct"] == true, "{workload} not correct");
        assert!(w["failed"] == 0.0, "{workload} had failures");
        for layer in ["end_to_end", "per_layer"] {
            for metric in listed(&benchmark, layer) {
                let m = &w[layer][metric.as_str()];
                assert!(m["value"].as_f64().is_some(), "{workload} lacks {metric}");
                assert!(
                    m["samples"].as_f64().is_some(),
                    "{workload} {metric} has no sample count"
                );
            }
        }
        for metric in listed(&benchmark, "end_to_end") {
            let value = w["end_to_end"][metric.as_str()]["value"].as_f64().unwrap();
            assert!(value > 0.0, "{workload} {metric} = {value}");
        }
        let trace = std::fs::read_to_string(out.join(format!("trace_{workload}.jsonl"))).unwrap();
        assert!(
            trace.lines().count() > 10,
            "{workload} trace is nearly empty"
        );
        for line in trace.lines() {
            serde_json::from_str(line).unwrap();
        }
    }

    // The record compares clean against itself.
    let record_path = out.join("result_5.json");
    let record_path = record_path.to_str().unwrap();
    let bounds = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let table = run_in(
        &dir,
        &["compare", record_path, record_path, "--bounds", bounds],
    );
    assert!(table.contains("0 regressions, 0 unresolved"), "{table}");
}

#[test]
fn inputs_follow_the_seed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-seed");
    std::fs::create_dir_all(&dir).unwrap();
    let digest = |seed: &str| -> String {
        let args = [
            "--workload",
            "router_small",
            "--seed",
            seed,
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--smoke",
        ];
        let stdout = run_in(&dir, &args);
        let note = stdout
            .lines()
            .find(|l| l.contains("inputs "))
            .expect("inputs note");
        note.rsplit("inputs ").next().unwrap().to_string()
    };
    let first = digest("7");
    assert_eq!(first.len(), 16);
    assert_eq!(first, digest("7"));
    assert_ne!(first, digest("8"));
}

#[test]
fn refuses_an_unknown_workload_without_a_result_line() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
