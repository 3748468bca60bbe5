//! Exercises the whole harness at a scale that fits a test run, and pins
//! `BENCHMARK.json` to what the program reports.

use std::path::Path;

use pricebench::run::{end_to_end, traced, Better, Outcome, END_TO_END};
use pricebench::workloads::WORKLOADS;
use serde_json::Value;

/// Timed seconds per smoke run; warm-ups are cut a hundredfold with it.
const SMOKE_SECONDS: f64 = 0.3;
const SMOKE_WARMUP_DIV: usize = 100;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str_value(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let get = |k: &str| m.as_object().unwrap()[k].as_str().unwrap().to_string();
            (get("name"), get("unit"))
        })
        .collect()
}

fn reported(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_runs_verified_at_smoke_scale() {
    let spec = benchmark_json();
    let spec = spec.as_object().unwrap();
    let listed: Vec<String> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_object().unwrap()["name"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        listed, WORKLOADS,
        "BENCHMARK.json lists the program's workloads"
    );

    for workload in WORKLOADS {
        let outcome = end_to_end(workload, 31, SMOKE_SECONDS, SMOKE_WARMUP_DIV);
        assert!(outcome.correct, "{workload}: {:?}", outcome.errors);
        assert_eq!(outcome.failed, 0, "{workload}");
        assert!(outcome.attempted >= 1, "{workload}");
        assert_eq!(
            reported(&outcome),
            names_and_units(&spec["end_to_end"]),
            "{workload} reports BENCHMARK.json's end-to-end metrics"
        );
        for m in &outcome.metrics {
            assert!(
                m.value > 0.0,
                "{workload}/{} is never zero, got {}",
                m.name,
                m.value
            );
        }
        let line = outcome.to_json();
        let parsed = serde_json::from_str_value(&line).expect("result line is JSON");
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }
}

#[test]
fn end_to_end_table_matches_benchmark_json() {
    let spec = benchmark_json();
    let listed = spec.as_object().unwrap()["end_to_end"].as_array().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (m, def) in listed.iter().zip(&END_TO_END) {
        let m = m.as_object().unwrap();
        assert_eq!(m["name"].as_str(), Some(def.name));
        assert_eq!(m["unit"].as_str(), Some(def.unit));
        let better = match def.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(m["better"].as_str(), Some(better), "{}", def.name);
        assert_eq!(m["bound"].as_f64(), Some(def.bound), "{}", def.name);
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_spans() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced-smoke");
    let outcome = traced("tcp_window", 31, SMOKE_SECONDS, SMOKE_WARMUP_DIV, &out);
    assert!(outcome.correct, "{:?}", outcome.errors);
    let spec = benchmark_json();
    assert_eq!(
        reported(&outcome),
        names_and_units(&spec.as_object().unwrap()["per_layer"]),
        "the traced run reports BENCHMARK.json's per-layer metrics"
    );
    for name in [
        "wire.frames_per_check",
        "wire.proto.send_ns",
        "kmeans.private.iter_ms_t2",
    ] {
        assert!(outcome.value(name).unwrap() > 0.0, "{name}");
    }
    assert_eq!(outcome.value("core.protocol.retransmits"), Some(0.0));
    let spans = std::fs::read_to_string(out.join("trace-tcp_window.json")).expect("trace file");
    let spans = serde_json::from_str_value(&spans).expect("trace file is JSON");
    let spans = spans.as_array().unwrap();
    assert!(spans
        .iter()
        .any(|s| s.as_object().unwrap()["name"].as_str() == Some("check")));
    let _ = std::fs::remove_dir_all(&out);
}
