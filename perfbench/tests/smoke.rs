//! Quick-scale smoke runs of every workload through the benchmark's own
//! command path: each must pass its correctness gate and print every
//! metric `BENCHMARK.json` names, with that metric's unit.

use serde::Value;
use std::process::Command;

/// A JSON document as the vendored serde's value tree.
struct Json(Value);

impl serde::Deserialize for Json {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn parse(text: &str) -> Value {
    serde_json::from_str::<Json>(text).expect("valid JSON").0
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        Value::I64(v) => *v as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn items(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
    items(get(&parse(&spec), section))
        .iter()
        .map(|m| {
            (
                text(get(m, "name")).to_string(),
                text(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let spec = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
    items(get(&parse(&spec), "workloads"))
        .iter()
        .map(|w| text(get(w, "name")).to_string())
        .collect()
}

/// Runs one quick-scale workload and checks its output.
fn smoke(workload: &str, trace: bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_dstress-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--scale",
            "quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stdout}",
        output.status
    );
    let result = parse(stdout.lines().last().expect("a result line"));
    assert_eq!(
        get(&result, "correct"),
        &Value::Bool(true),
        "{workload} failed its gate:\n{stdout}"
    );
    assert_eq!(number(get(&result, "failed")), 0.0, "{workload}:\n{stdout}");
    assert!(
        number(get(&result, "attempted")) >= 1.0,
        "{workload}:\n{stdout}"
    );
    let metrics = get(&result, "metrics");
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    match metrics {
        Value::Map(entries) => assert_eq!(entries.len(), expected.len(), "{workload}:\n{stdout}"),
        other => panic!("metrics is not an object: {other:?}"),
    }
    for (name, unit) in expected {
        let metric = get(metrics, &name);
        assert_eq!(text(get(metric, "unit")), unit, "{workload}/{name}");
        assert!(
            number(get(metric, "value")).is_finite(),
            "{workload}/{name}"
        );
        assert!(
            stdout.contains(&format!("{workload}/{name} = ")),
            "{workload}/{name} is not printed by name"
        );
    }
}

#[test]
fn every_workload_passes_its_gate_and_prints_every_end_to_end_metric() {
    for workload in workloads() {
        smoke(&workload, false);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in workloads() {
        smoke(&workload, true);
    }
}

#[test]
fn malformed_arguments_are_refused_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "word64", "--trace", "2"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dstress-perfbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert!(!output.status.success(), "{args:?} was accepted");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
