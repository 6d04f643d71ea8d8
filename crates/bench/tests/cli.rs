//! End-to-end tests of the `repro` binary: the fault-injection surface
//! and the structured-error contract (nonzero exit + single-line
//! `repro: …` on stderr, never a panic backtrace).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn faulted_scenario_completes_and_reports_degradation() {
    let out = repro(&[
        "scenario",
        "mesh:8,util=0.4,faults=links:0.1,horizon=600,warmup=60,seed=3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The analytic degradation section (reachability, post-fault λ*) and
    // the measured drop accounting both reach the terminal.
    assert!(stdout.contains("degradation:"), "{stdout}");
    assert!(stdout.contains("degraded: delivered"), "{stdout}");
    assert!(stdout.contains("link-down"), "{stdout}");
}

#[test]
fn healthy_scenario_prints_no_degradation_lines() {
    let out = repro(&["scenario", "mesh:6,util=0.3,horizon=400,warmup=40"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("degradation:"), "{stdout}");
    assert!(!stdout.contains("degraded:"), "{stdout}");
}

#[test]
fn bad_fault_spec_exits_nonzero_with_structured_error() {
    let out = repro(&["scenario", "mesh:8,util=0.4,faults=warp:1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("repro:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");
}

#[test]
fn unsupported_engine_config_is_a_structured_error_not_a_panic() {
    // Exponential service has no lower bound, so the sharded engine's
    // conservative lookahead does not exist: the run must be refused
    // with a typed error, not abort the process.
    let out = repro(&["scenario", "mesh:6,util=0.3,service=exp,shards=2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("repro:"), "{stderr}");
    assert!(stderr.contains("deterministic service"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Drops the one wall-clock line (`… events at Nk events/s`) so the rest
/// of the output can be compared byte-for-byte.
fn deterministic_lines(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains("events/s"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn faulted_reruns_are_bit_identical_on_both_engines() {
    // The acceptance scenario: same seed + same fault spec → identical
    // simulated output, on one shard (`auto`) and on two shards alike
    // (only the events/s wall-clock figure may move).
    for engine in ["auto", "sharded:2"] {
        let spec = format!(
            "mesh:16 traffic=transpose load=rho:0.5 faults=links:0.05 \
             horizon=400 warmup=40 seed=11 engine={engine}"
        );
        let a = repro(&["scenario", &spec]);
        let b = repro(&["scenario", &spec]);
        assert!(
            a.status.success(),
            "engine={engine} stderr: {}",
            String::from_utf8_lossy(&a.stderr)
        );
        assert_eq!(
            deterministic_lines(&a),
            deterministic_lines(&b),
            "engine={engine} rerun differs"
        );
        let stdout = String::from_utf8_lossy(&a.stdout);
        assert!(stdout.contains("degraded: delivered"), "{stdout}");
    }
}
