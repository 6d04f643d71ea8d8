//! End-to-end tests on the non-array topologies: the §4.5 hypercube and
//! butterfly studies and the §6 torus, including its unlayerability.

use meshbound::routing::{GreedyXY, ObliviousRouter, TorusGreedy};
use meshbound::topology::layering::find_layering;
use meshbound::topology::{Hypercube, Mesh2D, Topology, Torus2D};
use meshbound::{Load, Scenario, TrafficSpec};

/// `sc` at `lambda` over a horizon of 10 000.
fn at(sc: Scenario, lambda: f64, seed: u64) -> Scenario {
    sc.load(Load::Lambda(lambda))
        .horizon(10_000.0)
        .warmup(1_000.0)
        .seed(seed)
}

#[test]
fn torus_greedy_is_not_layerable_but_array_is() {
    // §6: "any network containing a ring of directed edges cannot be
    // layered". Discover this computationally from the actual route sets.
    let n = 4;

    let torus = Torus2D::new(n);
    let mut torus_paths = Vec::new();
    for a in torus.nodes() {
        for b in torus.nodes() {
            let paths = TorusGreedy.paths(&torus, a, b);
            torus_paths.extend(paths.into_iter().map(|(_, p)| p));
        }
    }
    assert!(
        find_layering(torus.num_edges(), &torus_paths).is_none(),
        "torus greedy routes must not admit a layering"
    );

    let mesh = Mesh2D::square(n);
    let mut mesh_paths = Vec::new();
    for a in mesh.nodes() {
        for b in mesh.nodes() {
            let paths = GreedyXY.paths(&mesh, a, b);
            mesh_paths.extend(paths.into_iter().map(|(_, p)| p));
        }
    }
    assert!(
        find_layering(mesh.num_edges(), &mesh_paths).is_some(),
        "array greedy routes must admit a layering (Lemma 2)"
    );
}

#[test]
fn hypercube_simulation_matches_upper_bound_shape() {
    // d = 5, p = 0.5, utilization 0.5: sim between Thm 12 lower and
    // product-form upper.
    let d = 5;
    let p = 0.5;
    let lambda = 1.0; // λp = 0.5
    let cube = Scenario::hypercube(d).traffic(TrafficSpec::bernoulli(p));
    let sim = at(cube, lambda, 3).run();
    let upper = meshbound::queueing::bounds::hypercube::upper_bound_delay(d, lambda, p);
    let lower = meshbound::queueing::bounds::hypercube::thm12_lower(d, lambda, p);
    assert!(
        lower <= sim.avg_delay * 1.05,
        "lower {lower} vs sim {}",
        sim.avg_delay
    );
    assert!(
        sim.avg_delay <= upper * 1.05,
        "sim {} vs upper {upper}",
        sim.avg_delay
    );
    // Mean route length = dp = 2.5 at vanishing queueing.
    assert!(sim.avg_delay >= d as f64 * p);
}

#[test]
fn hypercube_edge_throughput_is_lambda_p() {
    let d = 4;
    let p = 0.3;
    let lambda = 0.8;
    let h = Hypercube::new(d);
    let cube = Scenario::hypercube(d).traffic(TrafficSpec::bernoulli(p));
    let sim = at(cube, lambda, 5).run();
    let expect = lambda * p;
    for e in h.edges() {
        let got = sim.edge_throughput[e.index()];
        assert!(
            (got - expect).abs() < 0.1 * expect + 0.02,
            "edge {e}: {got} vs {expect}"
        );
    }
}

#[test]
fn butterfly_delay_at_least_d_and_within_bounds() {
    let d = 4;
    let util: f64 = 0.6;
    let lambda = 2.0 * util;
    // Only the level-0 inputs generate packets.
    let sim = at(Scenario::butterfly(d), lambda, 7).run();
    assert!(sim.avg_delay >= d as f64, "every packet crosses d edges");
    let upper = meshbound::queueing::bounds::butterfly::upper_bound_delay(d, lambda);
    assert!(
        sim.avg_delay <= upper * 1.05,
        "sim {} vs upper {upper}",
        sim.avg_delay
    );
}

#[test]
fn torus_outperforms_array_near_array_capacity() {
    // At λ just under the array's threshold, the torus (double capacity,
    // shorter routes) has far lower delay.
    let n = 6;
    let lambda = 0.6; // array threshold 4/6 ≈ 0.667
    let array = at(Scenario::mesh(n), lambda, 13).run();
    let torus = at(Scenario::torus(n), lambda, 13).run();
    assert!(
        torus.avg_delay < 0.6 * array.avg_delay,
        "torus {} vs array {}",
        torus.avg_delay,
        array.avg_delay
    );
}
