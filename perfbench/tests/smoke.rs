//! Smoke tests of the benchmark's output contract: one short run per
//! mode, checked against the metric lists in `BENCHMARK.json`.

use std::process::Command;

use tels_trace::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// Runs the benchmark and returns its exit status and parsed last line.
fn run(args: &[&str]) -> (bool, Option<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
    (out.status.success(), last)
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = list
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect();
    v.sort();
    v
}

fn check_result(result: &Json, expected: &[(String, String)]) {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let mut got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    got.sort();
    assert_eq!(got, expected);
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let spec = benchmark_json();
    let expected = names_and_units(spec.get("end_to_end").expect("end_to_end"));
    let (ok, result) = run(&[
        "--workload",
        "serve_mixed",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(ok);
    check_result(&result.expect("a JSON result line"), &expected);
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let spec = benchmark_json();
    let expected = names_and_units(spec.get("per_layer").expect("per_layer"));
    let (ok, result) = run(&[
        "--workload",
        "serve_mixed",
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(ok);
    check_result(&result.expect("a JSON result line"), &expected);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "wide_psi9",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "wide_psi9"][..],
    ] {
        let (ok, result) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(result.is_none(), "{args:?} must not print a result");
    }
}
