//! Cross-topology invariants of the unified `Scenario` API: every
//! `TopologySpec` runs end-to-end through `Scenario::run` and
//! `run_replicated`, light-load delays approach the mean greedy distance,
//! `BoundsReport::compute_for` stays ordered on every topology, and
//! `Scenario::parse` round-trips.

use meshbound::{BoundsReport, Load, Scenario, TopologySpec, TrafficSpec};

/// One light-load scenario per topology family (and the non-uniform
/// destination variants), sized to finish in seconds.
fn light_load_scenarios() -> Vec<Scenario> {
    let light = |sc: Scenario| {
        sc.load(Load::Utilization(0.05))
            .horizon(8_000.0)
            .warmup(400.0)
            .seed(2024)
    };
    vec![
        light(Scenario::mesh(5)),
        light(Scenario::mesh_rect(3, 6)),
        light(Scenario::torus(6)),
        light(Scenario::hypercube(5)),
        light(Scenario::hypercube(5).traffic(TrafficSpec::bernoulli(0.3))),
        light(Scenario::butterfly(4)),
        light(Scenario::mesh_kd(&[3, 3, 3])),
    ]
}

#[test]
fn light_load_delay_approaches_mean_distance_on_every_topology() {
    // At vanishing load every hop costs one unit of transmission time, so
    // T → n̄ from above; queueing can only add delay, so the mean distance
    // is an ε-floor.
    for sc in light_load_scenarios() {
        let res = sc.run();
        let nbar = sc.mean_distance();
        assert!(res.completed > 100, "{}: too few packets", sc.label());
        assert!(
            res.avg_delay >= nbar - 0.05,
            "{}: delay {} below mean distance {}",
            sc.label(),
            res.avg_delay,
            nbar
        );
        assert!(
            res.avg_delay <= nbar * 1.25 + 0.5,
            "{}: light-load delay {} far above mean distance {}",
            sc.label(),
            res.avg_delay,
            nbar
        );
    }
}

#[test]
fn bounds_report_is_ordered_on_every_topology() {
    for sc in light_load_scenarios() {
        let r = BoundsReport::compute_for(&sc);
        assert!(
            r.lower_best <= r.upper,
            "{}: lower {} above upper {}",
            r.label,
            r.lower_best,
            r.upper
        );
        assert!(
            r.lower_best.is_finite() && r.lower_best > 0.0,
            "{}",
            r.label
        );
        assert!(r.lower_best >= r.lower_trivial, "{}", r.label);
        assert!(r.est_paper <= r.est_md1 + 1e-12, "{}", r.label);
        // The torus upper bound is §6's open problem; everywhere else the
        // Theorem 5 product form is finite at 5% utilization.
        if matches!(sc.topology, TopologySpec::Torus { .. }) {
            assert!(r.upper.is_infinite(), "{}", r.label);
        } else {
            assert!(r.upper.is_finite(), "{}", r.label);
        }
    }
}

#[test]
fn replication_works_on_every_topology() {
    for sc in light_load_scenarios() {
        let sc = sc.horizon(1_000.0).warmup(100.0);
        let rep = sc.run_replicated(3);
        assert_eq!(rep.runs.len(), 3, "{}", sc.label());
        // Derived seeds must differ (the 64-bit golden-ratio derivation).
        assert!(
            rep.runs[0].avg_delay.to_bits() != rep.runs[1].avg_delay.to_bits()
                || rep.runs[1].avg_delay.to_bits() != rep.runs[2].avg_delay.to_bits(),
            "{}: replications identical",
            sc.label()
        );
        // The aggregate mean lies inside the per-run envelope.
        let lo = rep
            .runs
            .iter()
            .map(|r| r.avg_delay)
            .fold(f64::INFINITY, f64::min);
        let hi = rep
            .runs
            .iter()
            .map(|r| r.avg_delay)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            rep.delay.mean() >= lo && rep.delay.mean() <= hi,
            "{}",
            sc.label()
        );
    }
}

#[test]
fn simulated_delay_within_bounds_at_moderate_load() {
    // The acceptance sweep: 50% utilization on each topology with a finite
    // upper bound; the simulation must land between the bounds.
    let scenarios = [
        Scenario::mesh(5),
        Scenario::hypercube(5),
        Scenario::butterfly(4),
        Scenario::mesh_kd(&[3, 3]),
    ];
    for sc in scenarios {
        let sc = sc
            .load(Load::Utilization(0.5))
            .horizon(10_000.0)
            .warmup(1_000.0)
            .seed(11);
        let r = BoundsReport::compute_for(&sc);
        let t = sc.run().avg_delay;
        assert!(
            r.lower_best <= t * 1.1,
            "{}: lower {} vs sim {t}",
            r.label,
            r.lower_best
        );
        assert!(
            t <= r.upper * 1.1,
            "{}: sim {t} vs upper {}",
            r.label,
            r.upper
        );
    }
}

#[test]
fn parse_round_trips_every_topology() {
    for sc in light_load_scenarios() {
        let spec = sc.spec_string();
        let parsed = Scenario::parse(&spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        assert_eq!(parsed, sc, "round trip failed for `{spec}`");
    }
}

#[test]
fn parse_accepts_full_specs_and_rejects_garbage() {
    let sc = Scenario::parse("torus:8,util=0.9,horizon=5000,warmup=500,seed=3").unwrap();
    assert_eq!(sc.topology, TopologySpec::Torus { n: 8 });
    assert!((sc.peak_utilization() - 0.9).abs() < 1e-9);

    let sc = Scenario::parse("mesh:6,router=randomized,rho=0.5,service=exp").unwrap();
    assert_eq!(sc.router, meshbound::RouterSpec::Randomized);

    for bad in [
        "",
        "mesh",                                           // missing size
        "hexagon:7",                                      // unknown topology
        "mesh:1",                                         // too small
        "torus:2",                                        // too small
        "mesh:4,router=randomized,traffic=bernoulli:0.5", // pattern/topology mismatch
        "butterfly:3,traffic=nearby:0.5",                 // pattern/topology mismatch
        "mesh:4,rho=-0.2",                                // non-positive load
        "mesh:4,horizon=0",                               // degenerate horizon
        "mesh:4,warmup=99999",                            // warmup beyond horizon
        "mesh:4,turbo=yes",                               // unknown key
        "mesh:4,slot=abc",                                // malformed number
        "torus:8x9",                                      // torus takes a single size
        "hypercube:4x4",                                  // hypercube takes a single size
        "hypercube:4,traffic=bernoulli:0,util=0.5",       // p = 0 ⇒ λ = ∞
        "mesh:8,rho=0.9,util=0.2",                        // conflicting load keys
    ] {
        assert!(Scenario::parse(bad).is_err(), "`{bad}` should be rejected");
    }
}

#[test]
fn every_boolean_knob_round_trips() {
    let sc = Scenario::mesh(4)
        .load(Load::Lambda(0.1))
        .include_self_packets(false)
        .track_saturated(true)
        .delay_quantiles(true)
        .track_edge_queues(true);
    let parsed = Scenario::parse(&sc.spec_string()).unwrap();
    assert_eq!(parsed, sc);
    assert!(parsed.track_edge_queues);
}
