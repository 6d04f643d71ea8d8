//! Integration tests for the comparison-network machinery: the PS/Jackson
//! dominance of Theorem 5, the Jackson product form on every oblivious
//! family, and the copy-system inequalities of Theorems 10 and 12, checked
//! across sizes and loads; and the single-queue formulas the bounds are
//! assembled from (M/D/1, M/M/1, Pollaczek–Khinchine), checked on the
//! engine itself.

use meshbound::queueing::jackson::mean_number_unit;
use meshbound::queueing::remaining::dbar_closed;
use meshbound::queueing::single::{
    md1_mean_number, md1_mean_sojourn, mg1_mean_sojourn, mm1_mean_sojourn,
};
use meshbound::sim::ServiceKind;
use meshbound::stats::Summary;
use meshbound::{EngineSpec, Load, Scenario};

/// An `n × n` mesh at `lambda` over a horizon of 15 000.
fn mesh(n: usize, lambda: f64, seed: u64) -> Scenario {
    Scenario::mesh(n)
        .load(Load::Lambda(lambda))
        .horizon(15_000.0)
        .warmup(1_500.0)
        .seed(seed)
}

/// The PS and copy networks' outputs, bit for bit: PS `(completed,
/// time_avg_n, avg_delay)` and copies `(generated, time_avg_copies)` on
/// `mesh:4` and `torus:5`, one operating point each.
#[test]
fn ps_and_copy_outputs_are_pinned() {
    let at = |sc: Scenario, lambda, seed| {
        sc.load(Load::Lambda(lambda))
            .horizon(3_000.0)
            .warmup(300.0)
            .seed(seed)
    };
    let got: Vec<_> = [
        at(Scenario::mesh(4), 0.2, 7),
        at(Scenario::torus(5), 0.3, 8),
    ]
    .iter()
    .map(|sc| {
        let ps = sc.run_ps().unwrap();
        let copies = sc.run_copies().unwrap();
        (
            (
                ps.completed,
                ps.time_avg_n.to_bits(),
                ps.avg_delay.to_bits(),
            ),
            (copies.generated, copies.time_avg_copies.to_bits()),
        )
    })
    .collect();
    let pinned = [
        (
            (8667, 0x4023_6b5b_7584_bad7, 0x4008_2857_6f60_cfa8),
            (8209, 0x4021_ea88_eda0_d58f),
        ),
        (
            (20219, 0x4035_d5cf_7bcd_d3ca, 0x4007_4f67_82a8_a650),
            (19509, 0x4034_1e12_586c_d7eb),
        ),
    ];
    assert_eq!(got, pinned, "mesh:4 then torus:5, bits in hex: {got:#x?}");
}

#[test]
fn theorem5_ps_dominates_fifo_across_loads() {
    for &(n, rho) in &[(4usize, 0.5), (5, 0.7), (6, 0.85)] {
        let sc = mesh(n, 4.0 * rho / n as f64, 11);
        let fifo = sc.run();
        let ps = sc.run_ps().unwrap();
        assert!(
            fifo.time_avg_n <= ps.time_avg_n * 1.02,
            "n={n}, ρ={rho}: FIFO {} vs PS {}",
            fifo.time_avg_n,
            ps.time_avg_n
        );
    }
}

/// With FIFO edges, exponential unit service and routes fixed at
/// generation, the network is a Kelly network, so its population is the
/// product form `E[N] = Σ_e λ_e/(1−λ_e)` for every oblivious router and
/// destination model.
#[test]
fn jackson_simulation_matches_product_form() {
    for spec in [
        "torus:4",
        "hypercube:4",
        "butterfly:3",
        "kd:3x3x3",
        "mesh:4x6",
        "mesh:6 traffic=transpose",
        "mesh:5 router=randomized",
    ] {
        let sc = Scenario::parse(&format!(
            "{spec} util=0.5 service=exp horizon=3000 warmup=300 seed=5"
        ))
        .unwrap();
        assert_covers(
            &sc.run_replicated(REPS).n,
            mean_number_unit(&sc.edge_rates()),
            &format!("Jackson E[N] on {spec}"),
        );
    }
}

#[test]
fn copy_system_obeys_thm10_and_thm12() {
    for &(n, rho) in &[(4usize, 0.6), (5, 0.8)] {
        let sc = mesh(n, 4.0 * rho / n as f64, 17);
        let fifo = sc.run();
        let copies = sc.run_copies().unwrap();
        let d = 2.0 * (n as f64 - 1.0);
        let dbar = dbar_closed(n);
        assert!(
            copies.time_avg_copies <= d * fifo.time_avg_n,
            "Thm 10 violated at n={n}, ρ={rho}"
        );
        assert!(
            copies.time_avg_copies <= dbar * fifo.time_avg_n,
            "Thm 12 violated at n={n}, ρ={rho}"
        );
        // And the copy population matches the analytic Σ M/D/1.
        let expect: f64 = sc.edge_rates().iter().map(|&l| md1_mean_number(l)).sum();
        let rel = (copies.time_avg_copies - expect).abs() / expect;
        assert!(
            rel < 0.08,
            "n={n}: copies {} vs Σ M/D/1 {expect}",
            copies.time_avg_copies
        );
    }
}

#[test]
fn service_variance_ordering() {
    // Deterministic service beats exponential service at equal rates
    // (the factor behind Lemma 9), visible directly in simulation.
    let det = mesh(5, 0.5, 19);
    let exp = det.clone().service(ServiceKind::Exponential).run();
    let det = det.run();
    assert!(
        det.avg_delay < exp.avg_delay,
        "det {} vs exp {}",
        det.avg_delay,
        exp.avg_delay
    );
}

// Exact single-queue oracles. `hypercube:1` is two nodes joined by one
// edge each way. Destinations are uniform over both nodes, so half of each
// node's packets address itself; with self-packets excluded those never
// enter the network, and each edge is an exact M/G/1 queue fed at
// λ_e = λ/2. The mean delay is that queue's mean sojourn, and the
// time-average population is twice its mean number in system. Under
// `sharded:2` both edges are cut edges and every delivery is a handoff.

/// Replications per check, and the level of the t-interval that must
/// cover the formula.
const REPS: usize = 8;
const LEVEL: f64 = 0.999;

/// The engines that run deterministic service: one shard, and two shards
/// that cut both edges.
const DET_ENGINES: [EngineSpec; 2] = [EngineSpec::Auto, EngineSpec::Sharded { shards: 2 }];

/// Two nodes whose edges each see Poisson arrivals at `lambda_e`.
fn two_nodes(lambda_e: f64, service: ServiceKind, engine: EngineSpec) -> Scenario {
    Scenario::hypercube(1)
        .load(Load::Lambda(2.0 * lambda_e))
        .service(service)
        .include_self_packets(false)
        .horizon(20_000.0)
        .warmup(1_000.0)
        .seed(3)
        .engine(engine)
}

/// Asserts that the replication t-interval of `metric` covers `expect`.
fn assert_covers(metric: &Summary, expect: f64, what: &str) {
    let ci = metric.confidence_interval(LEVEL);
    assert!(
        ci.contains(expect),
        "{what}: {:.4} ± {:.4} over {} replications misses {expect:.4}",
        ci.mean,
        ci.half_width,
        metric.count()
    );
}

#[test]
fn md1_sojourn_matches_pollaczek_khinchine_on_the_engine() {
    for engine in DET_ENGINES {
        for lambda_e in [0.3, 0.6] {
            let rep = two_nodes(lambda_e, ServiceKind::Deterministic, engine).run_replicated(REPS);
            assert_covers(
                &rep.delay,
                md1_mean_sojourn(lambda_e),
                &format!("M/D/1 sojourn, λ_e = {lambda_e}, {engine:?}"),
            );
        }
    }
}

#[test]
fn mm1_sojourn_matches_closed_form_on_the_engine() {
    for lambda_e in [0.25, 0.5] {
        let rep =
            two_nodes(lambda_e, ServiceKind::Exponential, EngineSpec::Auto).run_replicated(REPS);
        assert_covers(
            &rep.delay,
            mm1_mean_sojourn(lambda_e, 1.0),
            &format!("M/M/1 sojourn, λ_e = {lambda_e}"),
        );
    }
}

#[test]
fn per_edge_rates_match_the_mg1_sojourn() {
    // Rate-2 servers under deterministic service: E[S] = 1/2, E[S²] = 1/4.
    let (lambda_e, mu) = (1.0, 2.0);
    let expect = mg1_mean_sojourn(
        lambda_e,
        1.0 / mu,
        ServiceKind::Deterministic.second_moment(mu),
    );
    for engine in DET_ENGINES {
        let rep = two_nodes(lambda_e, ServiceKind::Deterministic, engine)
            .service_rates(vec![mu; 2])
            .run_replicated(REPS);
        assert_covers(
            &rep.delay,
            expect,
            &format!("M/G/1 sojourn at rate {mu}, {engine:?}"),
        );
    }
}

#[test]
fn md1_population_is_twice_the_pollaczek_khinchine_number() {
    let lambda_e = 0.6;
    for engine in DET_ENGINES {
        let rep = two_nodes(lambda_e, ServiceKind::Deterministic, engine).run_replicated(REPS);
        assert_covers(
            &rep.n,
            2.0 * md1_mean_number(lambda_e),
            &format!("time-average N, λ_e = {lambda_e}, {engine:?}"),
        );
    }
}
