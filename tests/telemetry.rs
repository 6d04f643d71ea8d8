//! Telemetry contract tests: probes observe, never perturb.
//!
//! The hard guarantee of the telemetry subsystem is that a probed run is
//! bit-identical to an unprobed one on every engine — probe events read
//! state and schedule their successor, nothing else. These tests pin that
//! across topologies and engines, exercise the `probes=` grammar (whose
//! value is itself comma-joined, stressing the spec parser's
//! comma-continuation rule), and observe the paper's stability boundary
//! dynamically: N(t) diverges past the threshold and flattens below it.

use meshbound::sim::SimResult;
use meshbound::{EngineSpec, ProbeSpec, Scenario, TELEMETRY_SCHEMA};

/// Bitwise comparison of every `SimResult` field shared by probed and
/// unprobed runs (`telemetry` is the probed run's extra output).
fn assert_unperturbed(label: &str, off: &SimResult, on: &SimResult) {
    let f = f64::to_bits;
    assert_eq!(f(off.avg_delay), f(on.avg_delay), "{label}: avg_delay");
    assert_eq!(
        f(off.delay_std_err),
        f(on.delay_std_err),
        "{label}: std_err"
    );
    assert_eq!(off.generated, on.generated, "{label}: generated");
    assert_eq!(off.completed, on.completed, "{label}: completed");
    assert_eq!(off.dropped, on.dropped, "{label}: dropped");
    assert_eq!(f(off.time_avg_n), f(on.time_avg_n), "{label}: time_avg_n");
    assert_eq!(f(off.time_avg_r), f(on.time_avg_r), "{label}: time_avg_r");
    assert_eq!(
        f(off.time_avg_rs),
        f(on.time_avg_rs),
        "{label}: time_avg_rs"
    );
    assert_eq!(f(off.r_ratio), f(on.r_ratio), "{label}: r_ratio");
    assert_eq!(f(off.rs_ratio), f(on.rs_ratio), "{label}: rs_ratio");
    assert_eq!(f(off.little_delay), f(on.little_delay), "{label}: little");
    assert_eq!(
        f(off.max_edge_utilization),
        f(on.max_edge_utilization),
        "{label}: max_edge_utilization"
    );
    assert_eq!(f(off.final_n), f(on.final_n), "{label}: final_n");
    assert_eq!(f(off.peak_n), f(on.peak_n), "{label}: peak_n");
    assert_eq!(
        off.events_processed, on.events_processed,
        "{label}: events_processed (probe ticks must not leak into the count)"
    );
    for (i, (x, y)) in off
        .edge_throughput
        .iter()
        .zip(&on.edge_throughput)
        .enumerate()
    {
        assert_eq!(f(*x), f(*y), "{label}: edge_throughput[{i}]");
    }
    assert!(
        off.telemetry.is_none(),
        "{label}: unprobed run has telemetry"
    );
    assert!(on.telemetry.is_some(), "{label}: probed run lost telemetry");
}

#[test]
fn probes_do_not_perturb_any_engine() {
    // Three topology families × (auto, sharded:2); sharded runs need
    // deterministic service, which is the default.
    for base in ["mesh:4", "torus:4", "hypercube:3"] {
        let spec = format!("{base},util=0.6,horizon=300,warmup=30");
        for engine in [EngineSpec::Auto, EngineSpec::Sharded { shards: 2 }] {
            let sc = Scenario::parse(&spec).unwrap().engine(engine);
            let off = sc.clone().run();
            let on = sc
                .clone()
                .probes(ProbeSpec::parse_token("all").unwrap().unwrap())
                .run();
            let label = format!("{spec} [{engine}]");
            assert_unperturbed(&label, &off, &on);
            let report = on.telemetry.unwrap();
            assert_eq!(report.schema, TELEMETRY_SCHEMA);
            let names: Vec<&str> = report.series.iter().map(|s| s.name.as_str()).collect();
            assert!(names.contains(&"nsys"), "{label}: {names:?}");
            assert!(names.contains(&"maxq"), "{label}: {names:?}");
            assert!(names.contains(&"shard0:events"), "{label}: {names:?}");
            assert!(names.contains(&"shard0:cut"), "{label}: {names:?}");
            if matches!(engine, EngineSpec::Sharded { .. }) {
                // Per-shard load-balance series, one triple per shard.
                assert!(names.contains(&"shard1:events"), "{label}: {names:?}");
                assert!(names.contains(&"shard1:cut"), "{label}: {names:?}");
            }
            // Every series sampled on the common tick schedule.
            let ticks = report.series[0].samples.len();
            assert!(ticks > 0, "{label}: no samples");
            for s in &report.series {
                assert_eq!(s.samples.len(), ticks, "{label}: {} off-tick", s.name);
            }
        }
    }
}

#[test]
fn probe_clause_survives_comma_continuation_and_round_trips() {
    // The `probes=` value is itself comma-joined, so in the comma-separated
    // scenario form `maxq` lands in its own part and must be folded back.
    let sc = Scenario::parse("mesh:4,probes=nsys,maxq@5,util=0.5").unwrap();
    let probes = sc.probes.expect("probes parsed");
    assert!(probes.nsys && probes.maxq);
    assert!(!(probes.drops || probes.delivered || probes.shards));
    assert_eq!(probes.every, Some(5.0));
    // Canonical spec string round-trips through the parser.
    let again = Scenario::parse(&sc.spec_string()).unwrap();
    assert_eq!(again, sc);
    assert!(sc.spec_string().contains("probes=nsys,maxq@5"));
    // Whitespace form and `probes=none` (explicit off) both round-trip.
    let ws = Scenario::parse("mesh:4 probes=drops,delivered util=0.5").unwrap();
    assert!(ws.probes.unwrap().drops);
    let off = Scenario::parse("mesh:4,probes=none,util=0.5").unwrap();
    assert_eq!(off.probes, None);
    assert!(!off.spec_string().contains("probes"));
}

#[test]
fn nsys_series_sees_the_stability_boundary() {
    // The paper's instability signature, observed dynamically: transpose
    // traffic on an 8×8 mesh diverges at table-ρ 0.9 (utilization > 1)
    // while ρ = 0.2 (utilization 0.75) settles. Compare the retained
    // N(t) sample nearest the warmup boundary with the final one.
    let ratio = |rho: f64| {
        let sc = Scenario::parse(&format!(
            "mesh:8 traffic=transpose load=rho:{rho} horizon=800 warmup=80 probes=nsys"
        ))
        .unwrap();
        let report = sc.run().telemetry.unwrap();
        let nsys = &report.series[0];
        let at_warmup = nsys
            .samples
            .iter()
            .find(|(t, _)| *t >= 80.0)
            .expect("sample past warmup")
            .1;
        let final_v = nsys.samples.last().unwrap().1;
        final_v / at_warmup.max(1.0)
    };
    let diverging = ratio(0.9);
    let settled = ratio(0.2);
    assert!(diverging > 5.0, "overloaded N(t) ratio {diverging} not > 5");
    assert!(settled < 2.0, "stable N(t) ratio {settled} not < 2");
}

#[test]
fn telemetry_cli_writes_report_and_renders_timeline() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = std::env::temp_dir().join(format!(
        "meshbound_telemetry_cli_test_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let output = std::process::Command::new(&cargo)
        .args([
            "run",
            "--release",
            "-p",
            "meshbound_bench",
            "--bin",
            "repro",
            "--",
            "--progress",
            "scenario",
            "mesh:4,util=0.5,horizon=200,warmup=20,probes=nsys,maxq",
            "--telemetry",
        ])
        .arg(&out)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run repro");
    assert!(
        output.status.success(),
        "repro scenario --telemetry failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    // `--progress` auto-disables when stderr is a pipe: no carriage
    // returns may pollute captured logs.
    assert!(
        !String::from_utf8_lossy(&output.stderr).contains('\r'),
        "progress line leaked to a non-TTY stderr"
    );
    let json = std::fs::read_to_string(&out).expect("telemetry JSON written");
    assert!(json.contains("\"schema\": \"meshbound.telemetry/v1\""));
    assert!(json.contains("\"name\": \"nsys\""));
    let _ = std::fs::remove_file(&out);

    let timeline = std::process::Command::new(&cargo)
        .args([
            "run",
            "--release",
            "-p",
            "meshbound_bench",
            "--bin",
            "repro",
            "--",
            "timeline",
            "mesh:4,util=0.5,horizon=200,warmup=20",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run repro timeline");
    assert!(timeline.status.success());
    let text = String::from_utf8_lossy(&timeline.stdout);
    assert!(text.contains("telemetry meshbound.telemetry/v1"));
    assert!(text.contains("nsys") && text.contains("shard0:events"));
}
