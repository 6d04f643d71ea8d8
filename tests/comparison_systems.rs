//! Integration tests for the comparison-network machinery: the PS/Jackson
//! dominance of Theorem 5 and the copy-system inequalities of Theorems 10
//! and 12, checked across sizes and loads; and the single-queue formulas
//! the bounds are assembled from (M/D/1, M/M/1, Pollaczek–Khinchine),
//! checked on the engine itself.

use meshbound::queueing::remaining::dbar_closed;
use meshbound::queueing::single::{
    md1_mean_number, md1_mean_sojourn, mg1_mean_sojourn, mm1_mean_sojourn,
};
use meshbound::routing::dest::UniformDest;
use meshbound::routing::rates::mesh_thm6_rates;
use meshbound::routing::GreedyXY;
use meshbound::sim::copysys::CopySystemSim;
use meshbound::sim::network::{NetConfig, NetworkSim};
use meshbound::sim::ps::PsNetworkSim;
use meshbound::sim::ServiceKind;
use meshbound::stats::Summary;
use meshbound::topology::Mesh2D;
use meshbound::{EngineSpec, Load, Scenario};

fn cfg(lambda: f64, seed: u64) -> NetConfig {
    NetConfig {
        lambda,
        horizon: 15_000.0,
        warmup: 1_500.0,
        seed,
        ..NetConfig::default()
    }
}

#[test]
fn theorem5_ps_dominates_fifo_across_loads() {
    for &(n, rho) in &[(4usize, 0.5), (5, 0.7), (6, 0.85)] {
        let lambda = 4.0 * rho / n as f64;
        let mesh = Mesh2D::square(n);
        let fifo = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg(lambda, 11)).run();
        let ps = PsNetworkSim::new(mesh, GreedyXY, UniformDest, cfg(lambda, 11)).run();
        assert!(
            fifo.time_avg_n <= ps.time_avg_n * 1.02,
            "n={n}, ρ={rho}: FIFO {} vs PS {}",
            fifo.time_avg_n,
            ps.time_avg_n
        );
    }
}

#[test]
fn jackson_simulation_matches_product_form() {
    let n = 5;
    let lambda = 0.4;
    let mesh = Mesh2D::square(n);
    let mut c = cfg(lambda, 13);
    c.service = ServiceKind::Exponential;
    c.horizon = 30_000.0;
    let sim = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, c).run();
    let expect: f64 = mesh_thm6_rates(&mesh, lambda)
        .iter()
        .map(|&l| l / (1.0 - l))
        .sum();
    let rel = (sim.time_avg_n - expect).abs() / expect;
    assert!(
        rel < 0.08,
        "Jackson sim {} vs product form {expect}",
        sim.time_avg_n
    );
}

#[test]
fn copy_system_obeys_thm10_and_thm12() {
    for &(n, rho) in &[(4usize, 0.6), (5, 0.8)] {
        let lambda = 4.0 * rho / n as f64;
        let mesh = Mesh2D::square(n);
        let fifo = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg(lambda, 17)).run();
        let copies = CopySystemSim::new(mesh.clone(), GreedyXY, UniformDest, cfg(lambda, 17)).run();
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
        let expect: f64 = mesh_thm6_rates(&mesh, lambda)
            .iter()
            .map(|&l| md1_mean_number(l))
            .sum();
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
    let n = 5;
    let lambda = 0.5;
    let mesh = Mesh2D::square(n);
    let det = NetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg(lambda, 19)).run();
    let mut c = cfg(lambda, 19);
    c.service = ServiceKind::Exponential;
    let exp = NetworkSim::new(mesh, GreedyXY, UniformDest, c).run();
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
