//! Integration tests for the sweep subsystem: grammar round-trips, grid
//! expansion, bit-determinism under parallelism, bit-identity of the
//! re-expressed paper tables, and the JSON report contract.

use meshbound::experiments::{self, table1, table2, table3, Scale};
use meshbound::sweep::{run_cells, run_sweep, Jobs, SCHEMA};
use meshbound::{Scenario, SweepError, SweepSpec};

/// A reduced scale so the table grids finish quickly in debug-mode tests;
/// structurally identical to `Scale::quick`.
fn tiny_scale() -> Scale {
    Scale {
        horizon_base: 150.0,
        horizon_cap: 600.0,
        reps: 1,
        seed: 0x6d65_7368,
    }
}

#[test]
fn grammar_round_trips_and_expands() {
    let spec = SweepSpec::parse(
        "topo=mesh:5|mesh:3x7|torus:6|hypercube:4|butterfly:3|kd:3x3x3 \
         load=rho:0.2|util:0.7|lambda:0.05 reps=2 seed=11 horizon=auto:500:4000",
    )
    .unwrap();
    assert_eq!(spec.num_cells(), 18);
    assert_eq!(SweepSpec::parse(&spec.spec_string()).unwrap(), spec);
    let cells = spec.expand().unwrap();
    assert_eq!(cells.len(), 18);
    // Each cell's spec string round-trips through the Scenario parser.
    for cell in &cells {
        assert_eq!(Scenario::parse(&cell.spec_string()).unwrap(), *cell);
    }
}

#[test]
fn expansion_rejects_empty_axes_and_duplicates() {
    assert!(matches!(
        SweepSpec::new().expand(),
        Err(SweepError::EmptyAxis(_))
    ));
    let dup = SweepSpec::parse("topo=mesh:4|mesh:4 load=rho:0.5").unwrap();
    assert!(matches!(dup.expand(), Err(SweepError::DuplicateCell(_))));
    let invalid = SweepSpec::parse("topo=torus:4 load=rho:0.5 router=randomized").unwrap();
    assert!(matches!(invalid.expand(), Err(SweepError::InvalidCell(_))));
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let spec = SweepSpec::parse(
        "topo=mesh:4|torus:4|hypercube:3 load=rho:0.2|rho:0.6 reps=2 \
         horizon=400 warmup=40",
    )
    .unwrap();
    let seq = run_sweep(&spec, Jobs::Sequential).unwrap();
    let par = run_sweep(&spec, Jobs::Parallel).unwrap();
    assert_eq!(seq.num_cells, 6);
    // The deterministic projections must agree to the last bit — same
    // JSON, same delay bit patterns, same packet counts.
    assert_eq!(
        seq.without_timings().to_json(),
        par.without_timings().to_json()
    );
    for (a, b) in seq.cells.iter().zip(&par.cells) {
        assert_eq!(a.delay_mean.to_bits(), b.delay_mean.to_bits(), "{}", a.spec);
        assert_eq!(a.r_ratio.to_bits(), b.r_ratio.to_bits(), "{}", a.spec);
        assert_eq!((a.generated, a.completed), (b.generated, b.completed));
    }
}

#[test]
fn sweep_engine_reproduces_table_cells_bit_identically() {
    // The tables ride the sweep engine; their cells must match the direct
    // Scenario path (the pre-sweep implementation) bit for bit.
    let scale = tiny_scale();
    let t1 = experiments::run(table1::cells(&scale), &scale);
    for (cell, sc) in t1.iter().zip(table1::cells(&scale)) {
        let direct = sc.run_replicated(scale.reps);
        assert_eq!(
            cell.delay_mean.to_bits(),
            direct.delay.mean().to_bits(),
            "table1 {}",
            cell.spec
        );
        let final_n = direct.runs.iter().map(|r| r.final_n).sum::<f64>() / scale.reps as f64;
        assert_eq!(
            cell.final_n.to_bits(),
            final_n.to_bits(),
            "table1 {}",
            cell.spec
        );
    }
    let t2 = experiments::run(table2::cells(&scale), &scale);
    for (cell, sc) in t2.iter().zip(table2::cells(&scale)) {
        let direct = sc.run_replicated(scale.reps);
        assert_eq!(
            cell.r_ratio.to_bits(),
            direct.r_ratio.mean().to_bits(),
            "table2 {}",
            cell.spec
        );
    }
    let t3 = experiments::run(table3::cells(&scale), &scale);
    for (cell, sc) in t3.iter().zip(table3::cells(&scale)) {
        let direct = sc.run_replicated(scale.reps);
        assert_eq!(
            cell.rs_ratio.to_bits(),
            direct.rs_ratio.mean().to_bits(),
            "table3 {}",
            cell.spec
        );
    }
}

#[test]
fn table_grids_run_through_the_engine_with_verdicts() {
    let scale = tiny_scale();
    let report = run_cells("table3", table3::cells(&scale), scale.reps, Jobs::Parallel);
    assert_eq!(report.schema, SCHEMA);
    assert_eq!(report.num_cells, 5);
    assert_eq!(report.spec, "table3");
    // ρ = 0.99 cells: the Theorem 7 upper bound is still finite below
    // saturation, and the short-horizon simulation must stay bracketed.
    for cell in &report.cells {
        assert!(cell.upper_bound_finite, "{}", cell.spec);
        assert!(cell.scenario.track_saturated);
    }
}

#[test]
fn json_report_contract() {
    let spec = SweepSpec::parse("topo=mesh:4|torus:4 load=rho:0.2 horizon=400 warmup=40").unwrap();
    let report = run_sweep(&spec, Jobs::Parallel).unwrap();
    assert!(report.all_within_bounds, "{}", report.to_text());
    let json = report.to_json();
    assert!(json.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
    for key in [
        "\"spec\":",
        "\"cells\":[",
        "\"within_bounds\":true",
        "\"delay_mean\":",
        "\"bounds\":{",
        "\"lower_best\":",
        "\"wall_s\":",
        "\"speedup\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    // The torus's open upper bound must be null (valid JSON), never `inf`.
    assert!(json.contains("\"upper\":null"));
    let pretty = report.to_json_pretty();
    assert!(pretty.contains("\n  \"schema\": \"meshbound.sweep/v10\""));
    // v4: the cell wall clock is split into setup and hot-loop time.
    for key in ["\"setup_s\":", "\"sim_s\":"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn rate_cache_hits_are_bit_identical_to_the_cold_path() {
    // `Scenario::edge_rates` memoizes the unit-rate vector per
    // (topology, router, pattern); cells that differ only in load share
    // one cache entry. A warm hit must reproduce the cold computation bit
    // for bit, and so must whole sweeps run back to back (first run cold,
    // second run entirely warm).
    let sc = Scenario::parse("mesh:6,traffic=transpose,rho=0.3").unwrap();
    let cold = sc.edge_rates();
    let warm = sc.edge_rates();
    assert_eq!(cold.len(), warm.len());
    for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "edge_rates[{i}] differs on a hit");
    }
    // A different load over the same (topology, router, pattern) rides the
    // same unit-rate entry — scaling must stay exact: rates are
    // unit_rates · λ, so the ratio of the two vectors is the λ ratio.
    let spec = SweepSpec::parse(
        "topo=mesh:6 traffic=transpose load=rho:0.2|rho:0.6 horizon=300 warmup=30",
    )
    .unwrap();
    let first = run_sweep(&spec, Jobs::Sequential).unwrap();
    let second = run_sweep(&spec, Jobs::Sequential).unwrap();
    assert_eq!(
        first.without_timings().to_json(),
        second.without_timings().to_json(),
        "a warm rate cache changed sweep results"
    );
}

#[test]
fn repro_sweep_cli_writes_checked_json() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    // Unique per process: concurrent checkouts share the temp dir.
    let out = std::env::temp_dir().join(format!(
        "meshbound_sweep_cli_test_{}.json",
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
            "sweep",
            "topo=mesh:4|torus:4 load=rho:0.2|rho:0.5 reps=2 horizon=400 warmup=40",
            "--jobs",
            "2",
            "--check",
            "--out",
        ])
        .arg(&out)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run repro");
    assert!(
        output.status.success(),
        "repro sweep failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let json = std::fs::read_to_string(&out).expect("JSON written");
    assert!(json.contains("\"schema\": \"meshbound.sweep/v10\""));
    assert!(json.contains("\"all_within_bounds\": true"));
    let _ = std::fs::remove_file(&out);
    // A bad grammar and a bounds-violating check path must exit nonzero.
    let bad = std::process::Command::new(&cargo)
        .args([
            "run",
            "--release",
            "-p",
            "meshbound_bench",
            "--bin",
            "repro",
            "--",
            "sweep",
            "topo=mesh:4 load=warp:0.5",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run repro");
    assert!(!bad.status.success());
}
