//! Benchmark self-test: every workload of `BENCHMARK.json` at its short
//! `--smoke` horizon, in both modes. Every metric the file names must be
//! reported, finite and in its unit, and every output check must pass.
//!
//! ```text
//! cargo test --release --offline --manifest-path wallbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
}

fn benchmark_json() -> String {
    std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json")
}

/// The `[...]` array that follows `"key":` in `json` (its entries hold no
/// nested arrays).
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = at + json[at..].find('[').expect("array start");
    let close = open + json[open..].find(']').expect("array end");
    &json[open + 1..close]
}

/// The string value of `"field": "..."` in `obj`.
fn field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let start = obj.find(&tag)? + tag.len();
    let len = obj[start..].find('"')?;
    Some(&obj[start..start + len])
}

/// `(name, unit)` of every entry of a metric section.
fn metrics(json: &str, key: &str) -> Vec<(String, String)> {
    section(json, key)
        .split('{')
        .filter_map(|obj| {
            Some((
                field(obj, "name")?.to_string(),
                field(obj, "unit")?.to_string(),
            ))
        })
        .collect()
}

/// Runs one workload in one mode and checks its result line.
fn check_run(workload: &str, trace: u8, expected: &[(String, String)]) {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let context = format!(
        "{workload} --trace {trace}\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "{context}");
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true, "), "{context}");
    assert!(last.contains("\"failed\": 0, "), "{context}");
    assert_eq!(
        last.matches("{\"value\": ").count(),
        expected.len(),
        "reports exactly the metrics BENCHMARK.json names\n{context}"
    );
    for (name, unit) in expected {
        let tag = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&tag)
            .unwrap_or_else(|| panic!("no {name}\n{context}"))
            + tag.len();
        let rest = &last[at..];
        let end = rest.find(',').expect("value ends");
        let value: f64 = rest[..end]
            .parse()
            .unwrap_or_else(|_| panic!("{name} is not a number\n{context}"));
        assert!(value.is_finite(), "{name} = {value}\n{context}");
        assert!(
            rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} must be in {unit}\n{context}"
        );
    }
}

fn check_workload(workload: &str) {
    let json = benchmark_json();
    assert!(
        section(&json, "workloads").contains(&format!("\"name\": \"{workload}\"")),
        "{workload} is a workload of BENCHMARK.json"
    );
    check_run(workload, 0, &metrics(&json, "end_to_end"));
    check_run(workload, 1, &metrics(&json, "per_layer"));
}

#[test]
fn mesh_table1() {
    check_workload("mesh_table1");
}

#[test]
fn cube_shuffle_sharded() {
    check_workload("cube_shuffle_sharded");
}

#[test]
fn mesh_transpose_faulted() {
    check_workload("mesh_transpose_faulted");
}

#[test]
fn every_workload_is_tested() {
    let json = benchmark_json();
    let names: Vec<&str> = section(&json, "workloads")
        .split('{')
        .filter_map(|obj| field(obj, "name"))
        .collect();
    assert_eq!(
        names,
        [
            "mesh_table1",
            "cube_shuffle_sharded",
            "mesh_transpose_faulted"
        ]
    );
}

#[test]
fn all_runs_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
        .current_dir(repo_root())
        .args(["--workload", "all", "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": true, "))
        .collect();
    assert_eq!(results.len(), 3, "{stdout}");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_wallbench"))
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
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
