//! End-to-end tests of the `repro` binary: the fault-injection surface
//! and the structured-error contract (nonzero exit + single-line
//! `repro: …` on stderr, never a panic backtrace).

use std::process::{Command, Output, Stdio};

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
    // One fault line carries the measured drop accounting and the survey
    // of the plan this run drew (reachability, post-fault λ*).
    let fault_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("dead edges"))
        .collect();
    assert_eq!(fault_lines.len(), 1, "{stdout}");
    let line = fault_lines[0];
    assert!(line.starts_with("  degraded: delivered"), "{stdout}");
    assert!(line.contains("link-down"), "{stdout}");
    assert!(line.contains("reachability"), "{stdout}");
    assert!(line.contains("post-fault λ*"), "{stdout}");
    assert!(!stdout.contains("degradation:"), "{stdout}");
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

#[test]
fn faulted_reruns_are_bit_identical_on_both_engines() {
    // The acceptance scenario: same seed + same fault spec → byte-identical
    // output, on one shard (`auto`) and on two shards alike.
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
            String::from_utf8_lossy(&a.stdout),
            String::from_utf8_lossy(&b.stdout),
            "engine={engine} rerun differs"
        );
        let stdout = String::from_utf8_lossy(&a.stdout);
        assert!(stdout.contains("degraded: delivered"), "{stdout}");
    }
}

#[test]
fn timeline_probes_every_series_when_the_spec_says_probes_none() {
    // `probes=none` is the default, so it names no series, and `timeline`
    // probes them all.
    let out = repro(&["timeline", "mesh:4 probes=none horizon=100 warmup=10"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for series in [
        "nsys",
        "maxq",
        "drops",
        "delivered",
        "shard0:events",
        "shard0:qmass",
        "shard0:cut",
    ] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(series)),
            "no `{series}` series:\n{stdout}"
        );
    }
}

/// Asserts the CLI's error contract: a failed run exits nonzero with a
/// `repro: …` line on stderr, and no run ever panics.
fn assert_clean_exit(args: &[&str], out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    if !out.status.success() {
        assert!(stderr.starts_with("repro:"), "{args:?}: {stderr}");
    }
}

#[test]
fn oversized_topology_heads_are_one_line_errors() {
    // Their edge counts overflow a 32-bit edge id: debug builds used to
    // panic on the node-count arithmetic, release builds to wrap it into a
    // 0-node report.
    for args in [
        ["scenario", "torus:4294967296"],
        ["scenario", "torus:4294967296,horizon=1,warmup=0"],
        ["scenario", "mesh:4294967296"],
        ["scenario", "kd:65536x65536x65536x65536x65536"],
        ["scenario", "hypercube:64"],
        ["sweep", "topo=torus:4294967296 load=rho:0.5"],
    ] {
        let out = repro(&args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert_clean_exit(&args, &out);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("too large"),
            "{args:?}"
        );
    }
}

#[test]
fn token_soups_exit_cleanly_and_accepted_specs_round_trip() {
    // A fixed handful of token soups in the style of the grammar fuzz test
    // (`tests/spec_fuzz.rs`): spellings, example values and separators run
    // together, some of them valid.
    let scenarios = [
        "mesh:4,probes=nsys,,shards=2 =",
        "torus:6|rho=0.2:traffic=shuffle",
        "hypercube:4 engine=sharded:2|service=exp",
        "mesh:5 rho=0.2 util=0.5",
        "mesh:4,dest=uniform",
        "☃=☃",
        "=",
        "kd:3x3x3,src=hotspot:2.5:3 lambda=0.05 horizon=60 warmup=6 probes=nsys,maxq@10",
        "mesh:4 load=rho:0.3 shards=2 faults=links:0.05+at:5 horizon=60 warmup=6",
    ];
    for spec in scenarios {
        let args = ["scenario", spec];
        let out = repro(&args);
        assert_clean_exit(&args, &out);
        if out.status.success() {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let printed = stdout
                .lines()
                .find_map(|l| l.strip_prefix("scenario: "))
                .expect("a scenario line");
            let sc = meshbound::Scenario::parse(printed).expect("printed spec parses");
            assert_eq!(sc.spec_string(), printed);
        }
    }
    let sweeps = [
        "topo=mesh:5|torus:6 load=rho:0.2 router=westfirst|randomized",
        "topo=mesh:4 load=rho:0.2 reps=0",
        "topo=mesh:4 load=rho:0.2| horizon=auto:1:",
        "topo=kd:3x3x3 load=lambda:0.05 lambda=0.05",
        "topo=mesh:4 load=rho:0.2|util:0.3 faults=none|links:0.05 horizon=60 warmup=6",
    ];
    for spec in sweeps {
        let args = ["sweep", spec, "--jobs", "1"];
        let out = repro(&args);
        assert_clean_exit(&args, &out);
        if out.status.success() {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let printed = stdout
                .lines()
                .find_map(|l| l.strip_prefix("sweep: "))
                .and_then(|l| l.rsplit_once(" ("))
                .expect("a sweep line")
                .0;
            let sweep = meshbound::SweepSpec::parse(printed).expect("printed sweep parses");
            assert_eq!(sweep.spec_string(), printed);
        }
    }
}

/// The CLI's usage contract, one command line per row. Every usage or
/// spec error exits 2 with one `repro: …` line naming the culprit, then
/// the usage text, and never panics.
#[test]
fn usage_errors_exit_2_with_one_repro_line() {
    let tel = std::env::temp_dir().join(format!("meshbound_cli_usage_{}.json", std::process::id()));
    let tel = tel.to_str().expect("UTF-8 temp path");
    let quick_scenario = "mesh:3,horizon=50,warmup=5";
    // (command line, a fragment of the first stderr line)
    let rows: &[(&[&str], &str)] = &[
        (
            &["--engine", "sharded:2", "scenario", "mesh:3 service=exp"],
            "`--engine`",
        ),
        (&["--telemetry"], "`--telemetry`"),
        (&["sweep", "table3", "--out"], "`--out`"),
        (&["sweep", "table3", "--jobs"], "`--jobs`"),
        (&["--quick", "--quick", "report"], "`--quick`"),
        (
            &["--telemetry", tel, "--telemetry", tel, "scenario", "mesh:3"],
            "`--telemetry`",
        ),
        (&["--bogus", "report"], "`--bogus`"),
        (&["tableX"], "`tableX`"),
        (&["report", "scenario", quick_scenario], "`scenario`"),
        (&["--telemetry", tel, "sweep", "table3"], "--out"),
        (&["--progress", "report"], "`--progress`"),
        (&["--quick", "scenario", quick_scenario], "`--quick`"),
        (&["--out", tel, "report"], "`--out`"),
        (&["--check", "scenario", quick_scenario], "`--check`"),
        (&["scenario"], "`scenario`"),
        (&["timeline"], "`timeline`"),
        (&["sweep"], "`sweep`"),
        (&["sweep", "table1", "table2"], "`table2`"),
        (&["sweep", "table3", "--jobs", "0"], "`--jobs`"),
        (&["sweep", "table3", "--jobs", "two"], "`--jobs`"),
        (
            &["--telemetry", tel, "scenario", "mesh:3", "mesh:4"],
            "`--telemetry`",
        ),
        (&["--shards", "2", "scenario", quick_scenario], "`--shards`"),
        (&["scenario", "mesh:3 warp=1"], "warp"),
        (&["sweep", "topo=mesh:4 load=warp:0.5"], "warp"),
    ];
    for &(args, fragment) in rows {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or("");
        assert!(first.starts_with("repro:"), "{args:?}: {stderr}");
        assert!(first.contains(fragment), "{args:?}: {stderr}");
        let second = lines.next().unwrap_or("");
        assert!(second.starts_with("usage: repro"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(tel).exists(),
        "a refused run wrote {tel}"
    );

    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        let arg = std::ffi::OsStr::from_bytes(b"table\xff");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(arg)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "non-UTF-8 argument: {stderr}");
        assert!(stderr.starts_with("repro:"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    for args in [
        &["--help"][..],
        &["sweep", "--help"],
        &["scenario", "mesh:3", "-h"],
    ] {
        let out = repro(args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: repro"), "{args:?}: {stdout}");
    }

    // A flag may come before its command.
    let args = [
        "--out",
        tel,
        "sweep",
        "topo=mesh:3 load=rho:0.2 horizon=50 warmup=5",
    ];
    let out = repro(&args);
    assert!(out.status.success(), "{args:?}");
    assert!(std::fs::remove_file(tel).is_ok(), "{args:?} wrote no {tel}");

    // Artifacts print in the artifact table's order, whatever the order on
    // the command line.
    let out = repro(&["--quick", "report", "fig1", "fig2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = |line: &str| stdout.find(line).unwrap_or_else(|| panic!("no `{line}`"));
    assert!(at("Figure 1 — Lemma 2 layering labels") < at("Figure 2 — saturated edges"));
    assert!(at("Figure 2 — saturated edges") < at("array 5x5 (25 nodes)"));
}

#[test]
fn closed_stdout_ends_quietly() {
    // stdout is a pipe whose reader has gone before `repro` starts, as
    // when `repro --quick report | head -1` has stopped reading.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "report"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn closed_stderr_keeps_the_exit_status() {
    // stderr is a pipe whose reader has gone, as under
    // `repro … 2>&1 | head -1`: the error message cannot be written, but
    // the command still exits with its own status instead of panicking.
    for (args, status) in [
        (&["--bogus"][..], 2),
        (&["scenario", "hypercube:1 traffic=shuffle"][..], 2),
        (&["scenario", "mesh:4", "--telemetry", "/"][..], 1),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(writer)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(status), "{args:?}");
    }
}
