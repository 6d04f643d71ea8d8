//! Cross-crate tests for the first-class `TrafficSpec` workloads:
//! the uniform-workload bit-identity pin against the pre-TrafficSpec
//! scalar-λ path, per-pattern conservation laws, the delay ≥ distance
//! lower bound, bit-identical rerun determinism, and the end-to-end
//! `repro` CLI path.

use meshbound::sim::SimResult;
use meshbound::{
    BoundsReport, Load, PatternSpec, PermutationKind, Scenario, SourceSpec, TrafficSpec,
};

/// The acceptance pin: uniform sources at the scalar λ and an *explicit*
/// uniform per-source rate vector are one run, bit for bit — the
/// generalized arrival scheduler draws the identical RNG stream.
#[test]
fn uniform_trafficspec_bit_identical_to_scalar_lambda_path() {
    let sc = Scenario::mesh(5)
        .traffic(TrafficSpec::uniform())
        .load(Load::Lambda(0.15))
        .horizon(1_500.0)
        .warmup(150.0)
        .seed(23);
    let scalar = sc.run();
    let with_rates = sc
        .source(SourceSpec::Rates {
            rates: vec![1.0; 25],
        })
        .run();
    assert_eq!(with_rates.avg_delay.to_bits(), scalar.avg_delay.to_bits());
    assert_eq!(with_rates.generated, scalar.generated);
    assert_eq!(with_rates.completed, scalar.completed);
    assert_eq!(with_rates.time_avg_n.to_bits(), scalar.time_avg_n.to_bits());
    assert_eq!(with_rates.events_processed, scalar.events_processed);
}

/// Every new workload, one scenario each, exercised end to end.
fn pattern_zoo() -> Vec<Scenario> {
    vec![
        Scenario::mesh(8)
            .traffic(TrafficSpec::transpose())
            .load(Load::Utilization(0.4)),
        Scenario::mesh(8)
            .traffic(TrafficSpec::bit_reversal())
            .load(Load::Lambda(0.05)),
        Scenario::mesh(7)
            .traffic(TrafficSpec::bit_complement())
            .load(Load::Lambda(0.04)),
        Scenario::mesh(8)
            .traffic(TrafficSpec::shuffle())
            .load(Load::Lambda(0.05)),
        Scenario::mesh(6)
            .traffic(TrafficSpec::hotspot(0.3))
            .load(Load::Utilization(0.5)),
        Scenario::torus(4)
            .traffic(TrafficSpec::transpose())
            .load(Load::Lambda(0.08)),
        Scenario::hypercube(6)
            .traffic(TrafficSpec::shuffle())
            .load(Load::Lambda(0.3)),
        Scenario::hypercube(4)
            .traffic(TrafficSpec::bit_complement())
            .load(Load::Utilization(0.4)),
        Scenario::mesh_kd(&[4, 4, 4])
            .traffic(TrafficSpec::bit_complement())
            .load(Load::Lambda(0.03)),
        Scenario::mesh(5)
            .source(SourceSpec::Hotspot {
                node: None,
                weight: 5.0,
            })
            .load(Load::Lambda(0.08)),
        Scenario::mesh(4).traffic(TrafficSpec::matrix(hot_corner_matrix(16))),
    ]
}

/// A matrix sending most traffic from the first row of nodes to the last
/// node, with a uniform background.
fn hot_corner_matrix(n: usize) -> Vec<Vec<f64>> {
    let mut rows = vec![vec![1.0; n]; n];
    for row in rows.iter_mut().take(4) {
        row[n - 1] = 10.0;
    }
    rows
}

fn run_measured(sc: &Scenario) -> SimResult {
    // warmup = 0 makes the conservation law exact: every in-flight packet
    // at the horizon was generated inside the measurement window.
    sc.clone().horizon(2_000.0).warmup(0.0).seed(11).run()
}

/// Conservation: generated = delivered + in flight at the horizon, for
/// every pattern.
#[test]
fn conservation_arrivals_equal_departures_plus_in_flight() {
    for sc in pattern_zoo() {
        let res = run_measured(&sc);
        assert!(res.completed > 0, "{} delivered nothing", sc.spec_string());
        assert_eq!(
            res.generated,
            res.completed + res.final_n as u64,
            "{}: generated {} vs completed {} + in-flight {}",
            sc.spec_string(),
            res.generated,
            res.completed,
            res.final_n
        );
    }
}

/// Each hop costs at least one unit of service, so the mean delay can
/// never fall below the workload's mean route length (small tolerance for
/// the horizon's censoring of long routes).
#[test]
fn delay_respects_the_distance_lower_bound() {
    for sc in pattern_zoo() {
        let res = run_measured(&sc);
        let nbar = sc.mean_distance();
        assert!(
            res.avg_delay >= nbar * 0.95,
            "{}: delay {} below mean distance {}",
            sc.spec_string(),
            res.avg_delay,
            nbar
        );
    }
}

/// Simulated edge throughput must match the exact enumerated rate vector
/// the bounds are computed from — the workload the simulator runs is the
/// workload the analysis describes.
#[test]
fn edge_throughput_matches_pattern_rate_vectors() {
    for sc in [
        Scenario::mesh(6)
            .traffic(TrafficSpec::transpose())
            .load(Load::Utilization(0.4)),
        Scenario::mesh(6)
            .traffic(TrafficSpec::hotspot(0.3))
            .load(Load::Utilization(0.4)),
    ] {
        let res = sc.clone().horizon(40_000.0).warmup(1_000.0).seed(3).run();
        let rates = sc.edge_rates();
        for (e, (&got, &want)) in res.edge_throughput.iter().zip(&rates).enumerate() {
            assert!(
                (got - want).abs() < 0.1 * want.max(0.05),
                "{} edge {e}: throughput {got} vs rate {want}",
                sc.spec_string()
            );
        }
    }
}

/// Bit-identical rerun determinism across all new patterns (and one
/// seed-sensitivity spot check).
#[test]
fn reruns_are_bit_identical_for_every_pattern() {
    for sc in pattern_zoo() {
        let sc = sc.horizon(800.0).warmup(80.0).seed(42);
        let a = sc.run();
        let b = sc.run();
        assert_eq!(
            a.avg_delay.to_bits(),
            b.avg_delay.to_bits(),
            "{}",
            sc.spec_string()
        );
        assert_eq!(a.generated, b.generated, "{}", sc.spec_string());
        assert_eq!(
            a.events_processed,
            b.events_processed,
            "{}",
            sc.spec_string()
        );
        assert_eq!(a.time_avg_n.to_bits(), b.time_avg_n.to_bits());
    }
    let base = Scenario::mesh(8)
        .traffic(TrafficSpec::transpose())
        .load(Load::Lambda(0.05))
        .horizon(800.0)
        .warmup(80.0);
    let a = base.clone().seed(1).run();
    let b = base.seed(2).run();
    assert_ne!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
}

/// Permutation, hotspot and weighted-source workloads run end to end with
/// bounds computed from their own edge-rate vectors bracketing the
/// simulation.
#[test]
fn bounds_bracket_simulation_for_patterns() {
    for sc in [
        Scenario::mesh(8)
            .traffic(TrafficSpec::transpose())
            .load(Load::Utilization(0.5)),
        Scenario::mesh(8)
            .traffic(TrafficSpec::bit_reversal())
            .load(Load::Utilization(0.5)),
        Scenario::mesh(6)
            .traffic(TrafficSpec::hotspot(0.25))
            .load(Load::Utilization(0.5)),
        Scenario::mesh(5)
            .source(SourceSpec::Hotspot {
                node: Some(12),
                weight: 4.0,
            })
            .load(Load::Utilization(0.5)),
    ] {
        let sc = sc.horizon(20_000.0).warmup(2_000.0).seed(9);
        let report = BoundsReport::compute_for(&sc);
        let res = sc.run();
        assert!(
            res.avg_delay >= report.lower_best * 0.9,
            "{}: delay {} below lower bound {}",
            sc.spec_string(),
            res.avg_delay,
            report.lower_best
        );
        assert!(
            res.avg_delay <= report.upper * 1.1,
            "{}: delay {} above upper bound {}",
            sc.spec_string(),
            res.avg_delay,
            report.upper
        );
        // The report reflects the requested operating point.
        assert!(
            (report.utilization - 0.5).abs() < 1e-9,
            "{}",
            sc.spec_string()
        );
        assert!(
            (res.max_edge_utilization - 0.5).abs() < 0.05,
            "{}: measured peak utilization {}",
            sc.spec_string(),
            res.max_edge_utilization
        );
    }
}

/// Zero-rate sources stay silent: a matrix whose row is all zero
/// generates nothing from that node.
#[test]
fn silent_matrix_rows_generate_nothing() {
    let n = 9; // 3×3 mesh
    let mut rows = vec![vec![0.0; n]; n];
    // Only node 0 talks, to node 8.
    rows[0][8] = 1.0;
    let sc = Scenario::mesh(3)
        .traffic(TrafficSpec::matrix(rows))
        .load(Load::Lambda(0.1))
        .horizon(5_000.0)
        .warmup(0.0);
    let res = sc.run();
    assert!(res.completed > 0);
    // All traffic rides the single 0 → 8 greedy route (4 hops); delays of
    // completed packets are at least that.
    assert!(res.avg_delay >= 4.0, "delay {}", res.avg_delay);
    // Mean per-source rate 0.1 over 9 sources, all concentrated on node
    // 0: γ = 0.9 total, all from one source.
    let rates = sc.edge_rates();
    let positive = rates.iter().filter(|&&r| r > 1e-12).count();
    assert_eq!(positive, 4, "exactly the 0 → 8 route carries traffic");
}

/// The spec grammar names the new workloads: parse → run → spec_string
/// round trip, through the same strings the `repro` CLI accepts.
#[test]
fn traffic_specs_parse_and_run_end_to_end() {
    for spec in [
        "mesh:8,traffic=transpose,util=0.4,horizon=600,warmup=60",
        "mesh:8,traffic=bitrev,lambda=0.05,horizon=600,warmup=60",
        "mesh:8,traffic=shuffle,lambda=0.05,horizon=600,warmup=60",
        "mesh:6,traffic=hotspot:0.3,util=0.4,horizon=600,warmup=60",
        "mesh:6,traffic=hotspot:0.5:0,lambda=0.03,horizon=600,warmup=60",
        "mesh:5,src=hotspot:4,lambda=0.05,horizon=600,warmup=60",
        "hypercube:6,traffic=bitcomp,util=0.4,horizon=600,warmup=60",
        "torus:4,traffic=transpose,lambda=0.08,horizon=600,warmup=60",
    ] {
        let sc = Scenario::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        let round = Scenario::parse(&sc.spec_string()).unwrap();
        assert_eq!(round, sc, "`{spec}` round trip");
        let res = sc.run();
        assert!(res.completed > 0, "`{spec}` delivered nothing");
        let report = BoundsReport::compute_for(&sc);
        assert!(report.lower_best > 0.0 && report.lower_best.is_finite());
    }
}

/// The `repro` CLI runs traffic-pattern scenarios and sweeps end to end.
#[test]
fn repro_cli_accepts_traffic_workloads() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = std::process::Command::new(&cargo)
        .args([
            "run",
            "--release",
            "-p",
            "meshbound_bench",
            "--bin",
            "repro",
            "--",
            "scenario",
            "mesh:8,traffic=transpose,util=0.5,horizon=400,warmup=40",
            "mesh:6,traffic=hotspot:0.25,lambda=0.05,horizon=400,warmup=40",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run repro");
    assert!(
        output.status.success(),
        "repro scenario failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("traffic=transpose"));
    assert!(stdout.contains("simulated: T ="));

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
            "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 \
             horizon=400 warmup=40",
            "--check",
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo run repro sweep");
    assert!(
        output.status.success(),
        "repro sweep failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("traffic=transpose"));
    assert!(stdout.contains("traffic=hotspot:0.25"));
}

/// Sweep cells that differ only in the traffic axis get decorrelated
/// seeds, and uniform cells keep the exact seeds they had before the
/// traffic axis existed (the axis is additive).
#[test]
fn traffic_axis_cells_have_distinct_seeds() {
    use meshbound::SweepSpec;
    let sweep = SweepSpec::parse(
        "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 horizon=400 warmup=40",
    )
    .unwrap();
    let cells = sweep.expand().unwrap();
    assert_eq!(cells.len(), 3);
    let seeds: std::collections::HashSet<u64> = cells.iter().map(|c| c.seed).collect();
    assert_eq!(seeds.len(), 3, "traffic cells share a seed");
    // The uniform cell's spec string carries no traffic clause, so its
    // derived seed is identical to the one a traffic-free sweep assigns.
    let legacy = SweepSpec::parse("topo=mesh:4 load=util:0.3 horizon=400 warmup=40").unwrap();
    let legacy_cells = legacy.expand().unwrap();
    assert_eq!(cells[0].seed, legacy_cells[0].seed);
    assert!(
        matches!(cells[0].traffic.pattern, PatternSpec::Uniform),
        "first cell is the uniform one"
    );
    assert!(matches!(
        cells[1].traffic.pattern,
        PatternSpec::Permutation {
            kind: PermutationKind::Transpose
        }
    ));
}
