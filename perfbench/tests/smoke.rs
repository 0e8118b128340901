//! Keeps the harness from rotting: `BENCHMARK.json` must list exactly the
//! workloads and metrics the runner emits, and `perf_report --smoke` must
//! run every workload, timed and traced, with no failed operation.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The string values of `"<key>": "<value>"` pairs inside the JSON array
/// called `section` (the arrays of `BENCHMARK.json` hold flat objects).
fn names_in(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let needle = format!("\"{key}\"");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            let open = rest.find('"').expect("string value") + 1;
            let len = rest[open..].find('"').expect("closing quote");
            rest[open..open + len].to_string()
        })
        .collect()
}

/// Metric names of the result object on the line for `workload` in a
/// summary, or of a bare result object.
fn metric_names(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices("\": {\"value\"")
        .map(|(at, _)| {
            let name_start = metrics[..at].rfind('"').expect("metric name") + 1;
            metrics[name_start..at].to_string()
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn smoke(extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .arg("--smoke")
        .args(extra)
        .output()
        .expect("run perf_report");
    assert!(
        output.status.success(),
        "perf_report --smoke {extra:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Checks one `--smoke` summary: all five workloads, each correct, each
/// with exactly the metrics `section` of `BENCHMARK.json` names.
fn check_summary(stdout: &str, section: &str) {
    let contract = benchmark_json();
    let summary = stdout.lines().last().expect("summary line");
    assert!(
        summary.ends_with("\"claim\": null}"),
        "summary claims: {summary}"
    );
    let expected = names_in(&contract, section, "name");
    assert!(!expected.is_empty());
    let workloads = names_in(&contract, "workloads", "name");
    assert_eq!(workloads.len(), 5);
    let mut rest = summary;
    for (i, workload) in workloads.iter().enumerate() {
        let at = rest
            .find(&format!("\"{workload}\": {{\"correct\""))
            .unwrap_or_else(|| panic!("{workload} missing or out of order"));
        rest = &rest[at..];
        let end = match workloads.get(i + 1) {
            Some(next) => rest
                .find(&format!("\"{next}\": {{"))
                .expect("next workload"),
            None => rest.find("\"better\"").expect("end of workloads"),
        };
        let result = &rest[..end];
        assert!(result.contains("\"correct\": true"), "{workload}: {result}");
        assert!(result.contains("\"failed\": 0"), "{workload}: {result}");
        assert_eq!(metric_names(result), expected, "{workload} ({section})");
    }
}

#[test]
fn smoke_run_emits_exactly_the_contract_end_to_end_metrics() {
    check_summary(&smoke(&[]), "end_to_end");
}

#[test]
fn traced_smoke_run_emits_exactly_the_contract_per_layer_metrics() {
    check_summary(&smoke(&["--traced"]), "per_layer");
}

#[test]
fn contract_names_are_unique_and_bounded() {
    let contract = benchmark_json();
    let mut seen = BTreeSet::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in names_in(&contract, section, "name") {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }
    assert!(names_in(&contract, "end_to_end", "name").contains(&"setup_s".to_string()));
}

#[test]
fn refuses_to_start_under_a_behaviour_changing_variable() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf_report"))
        .arg("--smoke")
        .env("SDB_TRACE", "1")
        .output()
        .expect("run perf_report");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("SDB_TRACE"));
}
