//! Fault-injection determinism: a materialized `FaultPlan` is a pure
//! function of `(seed, FaultSpec, topology)`, `faults=none` reproduces
//! the pre-fault golden fingerprints bit for bit on every topology
//! family, and the calendar and sharded engines agree on what a faulted
//! network delivers.

use meshbound::sim::{FaultPlan, SimResult};
use meshbound::topology::{Butterfly, Hypercube, Mesh2D, MeshKD, Topology, Torus2D};
use meshbound::{EngineSpec, FaultSpec, Scenario};
use proptest::prelude::*;

/// Materializes `spec` on one of the five topology families, returning
/// the plan and the family's directed edge count.
fn plan_for(topo: usize, spec: &FaultSpec, seed: u64) -> (FaultPlan, usize) {
    match topo {
        0 => {
            let t = Mesh2D::square(5);
            (FaultPlan::materialize(spec, seed, &t), t.num_edges())
        }
        1 => {
            let t = Torus2D::new(4);
            (FaultPlan::materialize(spec, seed, &t), t.num_edges())
        }
        2 => {
            let t = Hypercube::new(4);
            (FaultPlan::materialize(spec, seed, &t), t.num_edges())
        }
        3 => {
            let t = Butterfly::new(3);
            (FaultPlan::materialize(spec, seed, &t), t.num_edges())
        }
        _ => {
            let t = MeshKD::new(&[3, 3, 3]);
            (FaultPlan::materialize(spec, seed, &t), t.num_edges())
        }
    }
}

proptest! {
    /// Same `(seed, spec, topology)` → the identical plan, with every
    /// structural invariant the engines rely on: a sorted, in-range,
    /// duplicate-free dead set, one fail event per dead edge at `at`,
    /// and one repair event per dead edge iff the spec repairs.
    #[test]
    fn fault_plans_are_pure_and_well_formed(
        topo in 0usize..5,
        link_rate in 0.0f64..0.5,
        node_rate in 0.0f64..0.25,
        at in 0.0f64..500.0,
        repairs in any::<bool>(),
        repair_dt in 1.0f64..400.0,
        seed in 1u64..100_000,
    ) {
        let repair = repairs.then_some(repair_dt);
        let mut spec = FaultSpec::links(link_rate).at(at);
        spec.node_rate = node_rate;
        spec.repair = repair;
        let (plan, num_edges) = plan_for(topo, &spec, seed);
        let (again, _) = plan_for(topo, &spec, seed);
        prop_assert_eq!(&plan, &again);
        prop_assert!(plan.down_edges.windows(2).all(|w| w[0] < w[1]),
            "dead set not strictly ascending");
        prop_assert!(plan.down_edges.iter().all(|e| e.index() < num_edges),
            "dead edge out of range");
        let per_edge = if repair.is_some() { 2 } else { 1 };
        prop_assert_eq!(plan.events.len(), plan.down_edges.len() * per_edge);
        for ev in &plan.events {
            if ev.up {
                prop_assert_eq!(ev.time, at + repair.unwrap());
            } else {
                prop_assert_eq!(ev.time, at);
            }
        }
    }
}

#[test]
fn the_seed_selects_the_dead_set() {
    let spec = FaultSpec::links(0.1);
    let (a, _) = plan_for(0, &spec, 1);
    let (b, _) = plan_for(0, &spec, 2);
    assert_eq!(
        a.down_edges.len(),
        b.down_edges.len(),
        "same rate, same count"
    );
    assert_ne!(a.down_edges, b.down_edges, "different seeds, same dead set");
    // Explicit ids bypass the draw entirely and survive any seed.
    let pinned = FaultSpec {
        links: vec![3, 7],
        ..FaultSpec::default()
    };
    let (p1, _) = plan_for(0, &pinned, 1);
    let (p2, _) = plan_for(0, &pinned, 999);
    assert_eq!(p1, p2);
    assert_eq!(
        p1.down_edges.iter().map(|e| e.index()).collect::<Vec<_>>(),
        vec![3, 7]
    );
}

/// Bitwise comparison of the deterministic `SimResult` fields this suite
/// cares about, plus the fault accounting.
fn assert_bit_identical(label: &str, a: &SimResult, b: &SimResult) {
    let f = f64::to_bits;
    assert_eq!(f(a.avg_delay), f(b.avg_delay), "{label}: avg_delay");
    assert_eq!(a.generated, b.generated, "{label}: generated");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(f(a.time_avg_n), f(b.time_avg_n), "{label}: time_avg_n");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: events_processed"
    );
    assert_eq!(a.dropped, b.dropped, "{label}: dropped");
    assert_eq!(
        f(a.delivered_fraction),
        f(b.delivered_fraction),
        "{label}: delivered_fraction"
    );
}

#[test]
fn faults_none_reproduces_the_pre_fault_fingerprints() {
    // These pins predate the fault layer (see engine_equivalence.rs): a
    // spec that *names* the fault grammar but injects nothing must not
    // move a single bit on any topology family — the healthy hot path
    // carries no fault overhead.
    struct Pin {
        spec: &'static str,
        events: u64,
        delay_bits: u64,
        completed: u64,
    }
    let pins = [
        Pin {
            spec: "mesh:4,lambda=0.08",
            events: 1765,
            delay_bits: 0x40034e42a2b5e7f1,
            completed: 461,
        },
        Pin {
            spec: "torus:4,lambda=0.08",
            events: 1542,
            delay_bits: 0x3fff6cfb98aa1384,
            completed: 463,
        },
        Pin {
            spec: "hypercube:4,lambda=0.2",
            events: 3856,
            delay_bits: 0x40009025f0b3aae9,
            completed: 1132,
        },
        Pin {
            spec: "butterfly:3,lambda=0.3",
            events: 3952,
            delay_bits: 0x40098a857354d1bd,
            completed: 863,
        },
        Pin {
            spec: "kd:3x3x3,lambda=0.06",
            events: 2380,
            delay_bits: 0x4005c289c7b2432a,
            completed: 576,
        },
    ];
    for pin in &pins {
        let spec = format!("{},horizon=400,warmup=40,seed=17,faults=none", pin.spec);
        let sc = Scenario::parse(&spec).expect("faults=none parses");
        assert!(sc.faults.is_none(), "{spec}: `none` must stay None");
        let res = sc.run();
        assert_eq!(res.events_processed, pin.events, "{spec}: events drifted");
        assert_eq!(
            res.avg_delay.to_bits(),
            pin.delay_bits,
            "{spec}: avg_delay drifted"
        );
        assert_eq!(res.completed, pin.completed, "{spec}: completed drifted");
        assert_eq!(
            res.dropped.total(),
            0,
            "{spec}: healthy run dropped packets"
        );
    }
}

#[test]
fn calendar_and_sharded_agree_on_faulted_delivery_statistically() {
    // Shards >= 2 re-stream the RNG, so faulted results differ bitwise
    // from the one-shard (calendar-queue) `auto` oracle — but both replay
    // the *same* fault plan, so the delivered fraction and the drop mass
    // must agree within sampling noise.
    let sc = Scenario::parse(
        "mesh:8,lambda=0.12,faults=links:0.1+at:100,horizon=1200,warmup=120,seed=13",
    )
    .unwrap();
    let oracle = sc.clone().engine(EngineSpec::Auto).run();
    assert!(oracle.dropped.total() > 0, "oracle saw no drops");
    assert!(oracle.delivered_fraction < 1.0);
    let sharded = sc.engine(EngineSpec::Sharded { shards: 2 }).run();
    let rel_delivered =
        (sharded.delivered_fraction - oracle.delivered_fraction).abs() / oracle.delivered_fraction;
    assert!(
        rel_delivered < 0.10,
        "delivered {} vs oracle {} (rel {rel_delivered:.3})",
        sharded.delivered_fraction,
        oracle.delivered_fraction
    );
    let (d, o) = (
        sharded.dropped.total() as f64,
        oracle.dropped.total() as f64,
    );
    let rel_dropped = (d - o).abs() / o;
    assert!(
        rel_dropped < 0.35,
        "dropped {d} vs oracle {o} (rel {rel_dropped:.3})"
    );
}

#[test]
fn acceptance_scenario_is_degraded_and_rerun_stable_on_both_engines() {
    // The PR acceptance gate: the 16×16 transpose mesh at ρ = 0.5 with 5%
    // of links down completes (no abort), reports a delivered fraction
    // below 1 with cause-tallied drops, and reruns bit-identically for a
    // fixed seed on one shard and on two shards alike.
    let base = Scenario::parse(
        "mesh:16 traffic=transpose load=rho:0.5 faults=links:0.05 \
         horizon=400 warmup=40 seed=11",
    )
    .unwrap();
    for engine in [EngineSpec::Auto, EngineSpec::Sharded { shards: 2 }] {
        let sc = base.clone().engine(engine);
        let label = sc.spec_string();
        let a = sc.clone().try_run().expect("faulted run must not abort");
        let b = sc.try_run().unwrap();
        assert_bit_identical(&format!("{label} rerun"), &a, &b);
        assert!(
            a.delivered_fraction > 0.0 && a.delivered_fraction < 1.0,
            "{label}: delivered_fraction {}",
            a.delivered_fraction
        );
        assert!(a.dropped.total() > 0, "{label}: no drops accounted");
        assert!(
            a.completed + a.dropped.total() <= a.generated,
            "{label}: accounting identity violated"
        );
    }
}
