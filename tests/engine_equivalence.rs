//! Engine equivalence: the simulator has one engine, and `EngineSpec` only
//! picks its shard count. `auto` (one shard) and `sharded:1` are run side
//! by side over every topology family, both time modes, and random
//! loads/seeds, and every deterministic `SimResult` field is compared bit
//! for bit. Golden pins fix the one-shard physics, every tracked field of
//! the all-options run, and the `sharded:{2,4}` fingerprints;
//! `sharded:{2,4}` also agree with one shard statistically, and every
//! `(seed, shards)` pair reruns bit-identically.

use meshbound::sim::fault::FaultPlan;
use meshbound::sim::SimResult;
use meshbound::stats::{t_quantile, Summary};
use meshbound::topology::{EdgeId, Hypercube, Partition, Topology, Torus2D};
use meshbound::{EngineSpec, Load, RouterSpec, Scenario, TrafficSpec};
use proptest::prelude::*;

/// Bitwise comparison of every deterministic `SimResult` field.
fn assert_bit_identical(label: &str, a: &SimResult, b: &SimResult) {
    let f = f64::to_bits;
    assert_eq!(f(a.avg_delay), f(b.avg_delay), "{label}: avg_delay");
    assert_eq!(f(a.delay_std_err), f(b.delay_std_err), "{label}: std_err");
    assert_eq!(a.generated, b.generated, "{label}: generated");
    assert_eq!(a.completed, b.completed, "{label}: completed");
    assert_eq!(f(a.time_avg_n), f(b.time_avg_n), "{label}: time_avg_n");
    assert_eq!(f(a.time_avg_r), f(b.time_avg_r), "{label}: time_avg_r");
    assert_eq!(f(a.time_avg_rs), f(b.time_avg_rs), "{label}: time_avg_rs");
    assert_eq!(f(a.r_ratio), f(b.r_ratio), "{label}: r_ratio");
    assert_eq!(f(a.rs_ratio), f(b.rs_ratio), "{label}: rs_ratio");
    assert_eq!(f(a.little_delay), f(b.little_delay), "{label}: little");
    assert_eq!(
        f(a.max_edge_utilization),
        f(b.max_edge_utilization),
        "{label}: max_edge_utilization"
    );
    assert_eq!(f(a.final_n), f(b.final_n), "{label}: final_n");
    assert_eq!(f(a.peak_n), f(b.peak_n), "{label}: peak_n");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{label}: events_processed"
    );
    assert_eq!(a.delay_p50, b.delay_p50, "{label}: delay_p50");
    assert_eq!(a.delay_p99, b.delay_p99, "{label}: delay_p99");
    assert_eq!(a.edge_mean_queue, b.edge_mean_queue, "{label}: edge queues");
    for (i, (x, y)) in a.edge_throughput.iter().zip(&b.edge_throughput).enumerate() {
        assert_eq!(f(*x), f(*y), "{label}: edge_throughput[{i}]");
    }
}

/// Runs one scenario on `auto` and on `sharded:1` and cross-checks.
fn check_all_engines(sc: Scenario) {
    let label = sc.spec_string();
    let auto = sc.clone().engine(EngineSpec::Auto).run();
    let one = sc.engine(EngineSpec::Sharded { shards: 1 }).run();
    assert_bit_identical(&format!("{label} sharded:1-vs-auto"), &auto, &one);
    assert!(auto.events_processed > 0, "{label}: no events simulated");
}

/// The five topology families at a fixed operating point.
fn family(idx: usize) -> Scenario {
    match idx {
        0 => Scenario::mesh(4),
        1 => Scenario::torus(4),
        2 => Scenario::hypercube(4),
        3 => Scenario::butterfly(3),
        _ => Scenario::mesh_kd(&[3, 3, 3]),
    }
}

proptest! {
    /// All five `TopologySpec` families × slotted/continuous × random
    /// load and seed: `auto` and `sharded:1` must agree bit for bit.
    #[test]
    fn engines_agree_across_topologies_and_modes(
        topo in 0usize..5,
        slotted in any::<bool>(),
        lambda in 0.02f64..0.12,
        seed in 1u64..1_000,
    ) {
        let mut sc = family(topo)
            .load(Load::Lambda(lambda))
            .horizon(250.0)
            .warmup(25.0)
            .seed(seed);
        if slotted {
            sc = sc.slot(1.0);
        }
        check_all_engines(sc);
    }
}

#[test]
fn engines_agree_with_every_tracking_option_enabled() {
    // Saturated-service tracking, delay quantiles and per-edge queues all
    // at once, plus the Jackson (exponential) service mode.
    let sc = tracking_scenario();
    check_all_engines(sc.clone());
    check_all_engines(sc.service(meshbound::sim::ServiceKind::Exponential));
}

/// The all-options scenario of `engines_agree_with_every_tracking_option_enabled`.
fn tracking_scenario() -> Scenario {
    Scenario::mesh(5)
        .load(Load::TableRho(0.7))
        .horizon(1_500.0)
        .warmup(150.0)
        .seed(99)
        .track_saturated(true)
        .delay_quantiles(true)
        .track_edge_queues(true)
}

/// FNV-1a over the bit patterns of `values`.
fn bits_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn every_tracked_field_is_pinned_on_auto() {
    // Golden pin, captured on the two-engine build that this single
    // engine replaced (its route-table fast path counted saturated hops
    // from a precomputed table): every field the tracking options add, on
    // `auto`, for deterministic and exponential service. Bit patterns of
    // the delay quantiles, peak N, the r and r_s ratios, and FNV-1a hashes
    // of the per-edge throughput and mean-queue vectors.
    struct Pin {
        exponential: bool,
        events: u64,
        delay: u64,
        p50: u64,
        p95: u64,
        p99: u64,
        peak_n: u64,
        r: u64,
        rs: u64,
        throughput: u64,
        queues: u64,
    }
    let pins = [
        Pin {
            exponential: false,
            events: 87044,
            delay: 0x40137c7d1b9a6ee6,
            p50: 0x4011dbd15328cf60,
            p95: 0x4024eb1adb03e680,
            p99: 0x402b54d48a884a20,
            peak_n: 0x4058800000000000,
            r: 0x4004970f8166f8b4,
            rs: 0x3ff9d3ce877a15bb,
            throughput: 0x42a953ec920f445d,
            queues: 0x088ca4f333c2f540,
        },
        Pin {
            exponential: true,
            events: 87987,
            delay: 0x4021436b708eaceb,
            p50: 0x401d3ee44eca2580,
            p95: 0x4035ac6e23b20b80,
            p99: 0x403dc487dd63ce40,
            peak_n: 0x4064e00000000000,
            r: 0x400429440bb02257,
            rs: 0x3ff9a1d833d05ed9,
            throughput: 0xb6d49508966c3bf0,
            queues: 0x5d8ee0146cf7f8d9,
        },
    ];
    for pin in &pins {
        let mut sc = tracking_scenario();
        if pin.exponential {
            sc = sc.service(meshbound::sim::ServiceKind::Exponential);
        }
        let label = sc.spec_string();
        let r = sc.run();
        let bits = |x: Option<f64>| x.expect("quantiles tracked").to_bits();
        assert_eq!(r.events_processed, pin.events, "{label}: events_processed");
        assert_eq!(r.avg_delay.to_bits(), pin.delay, "{label}: avg_delay");
        assert_eq!(bits(r.delay_p50), pin.p50, "{label}: delay_p50");
        assert_eq!(bits(r.delay_p95), pin.p95, "{label}: delay_p95");
        assert_eq!(bits(r.delay_p99), pin.p99, "{label}: delay_p99");
        assert_eq!(r.peak_n.to_bits(), pin.peak_n, "{label}: peak_n");
        assert_eq!(r.r_ratio.to_bits(), pin.r, "{label}: r_ratio");
        assert_eq!(r.rs_ratio.to_bits(), pin.rs, "{label}: rs_ratio");
        assert_eq!(r.edge_throughput.len(), 80, "{label}: edge count");
        assert_eq!(
            bits_hash(&r.edge_throughput),
            pin.throughput,
            "{label}: edge_throughput"
        );
        let queues = r.edge_mean_queue.expect("queues tracked");
        assert_eq!(bits_hash(&queues), pin.queues, "{label}: edge_mean_queue");
    }
}

#[test]
fn sharded_fingerprints_are_pinned() {
    // Golden pin, captured on the two-engine build that this single
    // engine replaced: `(events_processed, avg_delay bits, time_avg_n
    // bits)` at two and four shards on the five topology families, a mesh
    // with 5% of links down, and a slotted mesh.
    let family = |idx: usize| -> Scenario {
        let (sc, lambda) = match idx {
            0 => (Scenario::mesh(4), 0.08),
            1 => (Scenario::torus(4), 0.08),
            2 => (Scenario::hypercube(4), 0.2),
            3 => (Scenario::butterfly(3), 0.3),
            _ => (Scenario::mesh_kd(&[3, 3, 3]), 0.06),
        };
        sc.load(Load::Lambda(lambda))
            .horizon(400.0)
            .warmup(40.0)
            .seed(17)
    };
    let mut cases: Vec<Scenario> = (0..5).map(family).collect();
    cases.push(
        Scenario::parse("mesh:6,lambda=0.1,faults=links:0.05,horizon=400,warmup=40,seed=17")
            .unwrap(),
    );
    cases.push(
        Scenario::mesh(5)
            .load(Load::Lambda(0.1))
            .slot(1.0)
            .horizon(400.0)
            .warmup(40.0)
            .seed(17),
    );
    // One `[sharded:2, sharded:4]` pair of `(events, delay, N)` per case.
    let pins: [[(u64, u64, u64); 2]; 7] = [
        [
            (2091, 0x40043ade4061bd41, 0x400aa91c339ad6b0),
            (2592, 0x4004bdd56daca2fa, 0x400b907fac1509c4),
        ],
        [
            (1850, 0x400034338ecdf979, 0x40055cbab5a40fd2),
            (2140, 0x400033cb981554b6, 0x400576720e908406),
        ],
        [
            (4430, 0x40005bfdab369ada, 0x401a26e2045af736),
            (5186, 0x4000779fa59b1151, 0x401a69c143a3417a),
        ],
        [
            (4940, 0x40098a857354d1bd, 0x401f24b1257a6d28),
            (6915, 0x40098a857354d1bd, 0x401f24b1257a6d28),
        ],
        [
            (2975, 0x4005e683f7593dc8, 0x40125ac7ac522a24),
            (3277, 0x4005d54c5c55d108, 0x4011e03a0a287b3b),
        ],
        [
            (7296, 0x400f6fc5b6cc5dc4, 0x402b7e0fa77b1209),
            (8254, 0x400f58d4a1470ede, 0x402b4513709e5906),
        ],
        [
            (4451, 0x400a6e62a46756e9, 0x40202eeeeeeeeeef),
            (6237, 0x4009fe52417806b5, 0x4020a4fa4fa4fa50),
        ],
    ];
    for (sc, pair) in cases.iter().zip(&pins) {
        for (shards, &(events, delay, n)) in [2, 4].into_iter().zip(pair) {
            let engine = EngineSpec::Sharded { shards };
            let label = format!("{} [{engine}]", sc.spec_string());
            let r = sc.clone().engine(engine).run();
            assert_eq!(r.events_processed, events, "{label}: events_processed");
            assert_eq!(r.avg_delay.to_bits(), delay, "{label}: avg_delay");
            assert_eq!(r.time_avg_n.to_bits(), n, "{label}: time_avg_n");
        }
    }
    // The faulted case must actually exercise the drop path.
    let faulted = cases[5]
        .clone()
        .engine(EngineSpec::Sharded { shards: 2 })
        .run();
    assert!(faulted.dropped.total() > 0, "{:?}", faulted.dropped);
}

/// Cut edges at `shards` that `sc`'s fault plan fails at least once.
fn downed_cut_edges<T: Topology>(topo: &T, sc: &Scenario, shards: usize) -> usize {
    let spec = sc.faults.as_ref().expect("a faulted scenario");
    let plan = FaultPlan::materialize(spec, sc.seed, topo);
    let part = Partition::contiguous(topo, shards);
    plan.down_edges.iter().filter(|&&e| part.is_cut(e)).count()
}

#[test]
fn faulted_torus_and_hypercube_fingerprints_are_pinned() {
    // Golden pin, captured before shards indexed their edges by id range:
    // `(events_processed, avg_delay bits, time_avg_n bits, dropped)` at
    // two and four shards on a torus and a hypercube whose fault plans
    // fail cut edges mid-run and repair them later, so window ends move
    // with cut-edge liveness. Both families number out-edges by source
    // node, unlike the faulted mesh of `sharded_fingerprints_are_pinned`.
    let torus = Scenario::parse(
        "torus:6 lambda=0.1 faults=links:0.1+at:60+repair:150 horizon=400 warmup=40 seed=17",
    )
    .unwrap();
    let cube = Scenario::parse(
        "hypercube:5 lambda=0.25 faults=links:0.05+at:60+repair:150 horizon=400 warmup=40 seed=17",
    )
    .unwrap();
    // The torus again, with every service rate 1 except one cut edge's 2:
    // the lookahead Δ is that edge's service time, 0.5, until it fails at
    // t = 60, then 1 until its repair at t = 210, then 0.5 again, so the
    // window ends follow a Δ the fault plan changes mid-run.
    let torus6 = Torus2D::new(6);
    let fast = EdgeId(70); // (2, 5) → (3, 5)
    let mut rates = vec![1.0; torus6.num_edges()];
    rates[fast.index()] = 2.0;
    assert_eq!(rates.iter().filter(|&&r| r > 1.0).count(), 1);
    let rated = Scenario::parse(&format!(
        "torus:6 lambda=0.1 faults=link:{}+at:60+repair:150 horizon=400 warmup=40 seed=17",
        fast.0
    ))
    .unwrap()
    .service_rates(rates.clone());
    for shards in [2, 4] {
        for (sc, downed) in [
            (&torus, downed_cut_edges(&torus6, &torus, shards)),
            (&cube, downed_cut_edges(&Hypercube::new(5), &cube, shards)),
            (&rated, downed_cut_edges(&torus6, &rated, shards)),
        ] {
            assert!(
                downed > 0,
                "{} downs no cut edge at {shards} shards",
                sc.spec_string()
            );
        }
        let part = Partition::contiguous(&torus6, shards);
        let fastest: Vec<EdgeId> = part
            .cut_edges()
            .iter()
            .copied()
            .filter(|e| rates[e.index()] > 1.0)
            .collect();
        assert_eq!(fastest, [fast], "the fastest cut edge at {shards} shards");
    }
    // One `[sharded:2, sharded:4]` pair of `(events, delay, N, dropped)`
    // per case. The rated case was captured while per-edge deterministic
    // rates still had their own service-time vector and handoffs looked
    // their resume node up in a per-slot table.
    let pins: [[(u64, u64, u64, u64); 2]; 3] = [
        [
            (6446, 0x40088124d463279d, 0x4025e894e01593ab, 67),
            (7341, 0x40088f6a58605d93, 0x4025c6dd2149cabc, 58),
        ],
        [
            (12639, 0x40050a03d0532af3, 0x4034cbb09fb1d5fd, 69),
            (14412, 0x40052130abadc453, 0x40350736fefaff34, 72),
        ],
        [
            (6487, 0x400872296fc3ebf9, 0x4026417d1ac01b19, 11),
            (7308, 0x40085692b5e1b2d4, 0x402600add5820c8e, 15),
        ],
    ];
    for (sc, pair) in [&torus, &cube, &rated].into_iter().zip(&pins) {
        for (shards, &(events, delay, n, dropped)) in [2, 4].into_iter().zip(pair) {
            let engine = EngineSpec::Sharded { shards };
            let label = format!("{} [{engine}]", sc.spec_string());
            let r = sc.clone().engine(engine).run();
            assert_eq!(r.events_processed, events, "{label}: events_processed");
            assert_eq!(r.avg_delay.to_bits(), delay, "{label}: avg_delay");
            assert_eq!(r.time_avg_n.to_bits(), n, "{label}: time_avg_n");
            assert_eq!(r.dropped.total(), dropped, "{label}: dropped");
        }
    }
}

#[test]
fn greedy_routing_policy_reproduces_the_pre_policy_fingerprints() {
    // Golden pin: these fingerprints were captured *before* the per-hop
    // `RoutingPolicy` refactor, when the engines consumed whole
    // `Router::route` paths. Greedy routing is oblivious — queue state
    // must never change its decisions — so routing hop by hop through
    // `route_outcome` has to reproduce the old trajectories bit for bit.
    // A mismatch means the adapter changed the physics.
    struct Pin {
        sc: fn() -> Scenario,
        lambda: f64,
        events: u64,
        delay_bits: u64,
        completed: u64,
        time_avg_n_bits: u64,
    }
    let pins = [
        Pin {
            sc: || Scenario::mesh(4),
            lambda: 0.08,
            events: 1765,
            delay_bits: 0x40034e42a2b5e7f1,
            completed: 461,
            time_avg_n_bits: 0x4008fa97cee2fe1b,
        },
        Pin {
            sc: || Scenario::torus(4),
            lambda: 0.08,
            events: 1542,
            delay_bits: 0x3fff6cfb98aa1384,
            completed: 463,
            time_avg_n_bits: 0x40045a74a48281eb,
        },
        Pin {
            sc: || Scenario::hypercube(4),
            lambda: 0.2,
            events: 3856,
            delay_bits: 0x40009025f0b3aae9,
            completed: 1132,
            time_avg_n_bits: 0x401a4bfa0449b79a,
        },
        Pin {
            sc: || Scenario::butterfly(3),
            lambda: 0.3,
            events: 3952,
            delay_bits: 0x40098a857354d1bd,
            completed: 863,
            time_avg_n_bits: 0x401f24b1257a6a4e,
        },
        Pin {
            sc: || Scenario::mesh_kd(&[3, 3, 3]),
            lambda: 0.06,
            events: 2380,
            delay_bits: 0x4005c289c7b2432a,
            completed: 576,
            time_avg_n_bits: 0x401197309818a7c1,
        },
    ];
    let engines = [EngineSpec::Auto, EngineSpec::Sharded { shards: 1 }];
    for pin in &pins {
        let sc = (pin.sc)()
            .load(Load::Lambda(pin.lambda))
            .horizon(400.0)
            .warmup(40.0)
            .seed(17);
        let label = sc.spec_string();
        for engine in engines {
            let res = sc.clone().engine(engine).run();
            assert_eq!(
                res.events_processed, pin.events,
                "{label} {engine}: events_processed drifted from the pre-policy pin"
            );
            assert_eq!(
                res.avg_delay.to_bits(),
                pin.delay_bits,
                "{label} {engine}: avg_delay drifted from the pre-policy pin"
            );
            assert_eq!(
                res.completed, pin.completed,
                "{label} {engine}: completed drifted from the pre-policy pin"
            );
            assert_eq!(
                res.time_avg_n.to_bits(),
                pin.time_avg_n_bits,
                "{label} {engine}: time_avg_n drifted from the pre-policy pin"
            );
        }
    }
}

#[test]
fn engines_agree_for_adaptive_routers() {
    // Adaptive routers read live queue views at every hop; auto and
    // sharded:1 must still agree bit for bit on mesh and torus.
    for router in [RouterSpec::WestFirst, RouterSpec::OddEven] {
        for sc in [
            Scenario::mesh(5).load(Load::Lambda(0.12)),
            Scenario::mesh(4)
                .traffic(TrafficSpec::transpose())
                .load(Load::Lambda(0.2)),
            Scenario::torus(4).load(Load::Lambda(0.12)),
        ] {
            check_all_engines(sc.router(router).horizon(600.0).warmup(60.0).seed(29));
        }
    }
}

#[test]
fn engines_agree_for_randomized_router_fallback() {
    // The randomized router draws per-packet state from the RNG: the
    // draw order must not depend on the shard machinery.
    let sc = Scenario::mesh(5)
        .router(RouterSpec::Randomized)
        .load(Load::Lambda(0.1))
        .horizon(800.0)
        .warmup(80.0)
        .seed(7);
    check_all_engines(sc);
}

#[test]
fn engines_agree_for_nonuniform_destinations_and_rates() {
    let sc = Scenario::mesh(4)
        .traffic(TrafficSpec::nearby(0.4))
        .load(Load::Lambda(0.15))
        .horizon(900.0)
        .warmup(90.0)
        .seed(31)
        .service_rates(vec![1.5; 48]);
    check_all_engines(sc);
    let hc = Scenario::hypercube(4)
        .traffic(TrafficSpec::bernoulli(0.25))
        .load(Load::Lambda(0.3))
        .horizon(600.0)
        .warmup(60.0)
        .seed(32);
    check_all_engines(hc);
}

#[test]
fn heterogeneous_deterministic_rates_are_pinned() {
    // Golden pin, captured before unit-service departures got their
    // ordered lane: `(events_processed, avg_delay bits, time_avg_n bits)`
    // with per-edge deterministic rates cycling 0.8/1.0/1.25/2.0. Unequal
    // service times make departures reach the event list out of time
    // order, so this is the deterministic-service run that sends ordered
    // offers back to the calendar.
    let rates: Vec<f64> = (0..80).map(|e| [0.8, 1.0, 1.25, 2.0][e % 4]).collect();
    let sc = Scenario::mesh(5)
        .load(Load::Lambda(0.3))
        .horizon(600.0)
        .warmup(60.0)
        .seed(23)
        .service_rates(rates);
    let pins = [
        (
            EngineSpec::Auto,
            (19281, 0x400adedb91f75002, 0x4039e08af623eb9d),
        ),
        (
            EngineSpec::Sharded { shards: 2 },
            (21181, 0x400a4494b512e8aa, 0x403896ea49ab606d),
        ),
    ];
    for (engine, (events, delay, n)) in pins {
        let label = format!("{} [{engine}]", sc.spec_string());
        let r = sc.clone().engine(engine).run();
        assert_eq!(r.events_processed, events, "{label}: events_processed");
        assert_eq!(r.avg_delay.to_bits(), delay, "{label}: avg_delay");
        assert_eq!(r.time_avg_n.to_bits(), n, "{label}: time_avg_n");
    }
}

/// The sharded-oracle operating points: small members of the families the
/// conservative parallel engine supports, at a load where queues form.
fn sharded_cases() -> Vec<Scenario> {
    vec![
        Scenario::mesh(5).load(Load::Lambda(0.15)),
        Scenario::torus(4).load(Load::Lambda(0.12)),
        Scenario::hypercube(4).load(Load::Lambda(0.3)),
    ]
}

#[test]
fn one_shard_matches_the_calendar_engine_bit_for_bit() {
    // `auto` is the calendar-queue engine on one shard, and `sharded:1`
    // names the same run: every tracked field must agree exactly.
    for sc in sharded_cases() {
        let sc = sc
            .horizon(600.0)
            .warmup(60.0)
            .seed(23)
            .delay_quantiles(true)
            .track_edge_queues(true);
        check_all_engines(sc);
    }
}

/// Asserts that two replication sets of one metric share a mean: a
/// two-sided Welch t-test at the 99.9% level, on the Welch–Satterthwaite
/// degrees of freedom rounded down.
fn assert_same_mean(what: &str, a: &Summary, b: &Summary) {
    let var = |s: &Summary| s.std_dev().powi(2) / s.count() as f64;
    let (va, vb) = (var(a), var(b));
    let t = (a.mean() - b.mean()) / (va + vb).sqrt();
    let dof = (va + vb).powi(2)
        / (va.powi(2) / (a.count() - 1) as f64 + vb.powi(2) / (b.count() - 1) as f64);
    let critical = t_quantile(0.9995, dof as u64);
    assert!(
        t.abs() <= critical,
        "{what}: {:.4} vs {:.4} over {} replications each, |t| = {:.2} > {critical:.2}",
        a.mean(),
        b.mean(),
        a.count(),
        t.abs()
    );
}

#[test]
fn sharded_engine_agrees_statistically_with_the_oracle() {
    // At shards >= 2 the partition changes the per-shard RNG streams, so
    // results differ bitwise from the one-shard oracle — but they
    // simulate the same system, so the replication means must agree.
    // Sized so that handoffs landing 0.05 late fail the test.
    const REPS: usize = 16;
    for sc in sharded_cases() {
        let sc = sc.horizon(1800.0).warmup(180.0).seed(41);
        let label = sc.spec_string();
        let oracle = sc.clone().engine(EngineSpec::Auto).run_replicated(REPS);
        for shards in [2, 4] {
            let res = sc
                .clone()
                .engine(EngineSpec::Sharded { shards })
                .run_replicated(REPS);
            let what = |m: &str| format!("{label} shards={shards}: {m}");
            assert_same_mean(&what("avg_delay"), &res.delay, &oracle.delay);
            assert_same_mean(&what("time_avg_n"), &res.n, &oracle.n);
        }
    }
}

#[test]
fn sharded_engine_is_deterministic_at_every_shard_count() {
    // Fixed (seed, shards) must reproduce the identical SimResult across
    // reruns — thread scheduling is invisible by construction.
    for sc in sharded_cases() {
        let sc = sc.horizon(600.0).warmup(60.0).seed(57);
        let label = sc.spec_string();
        for shards in [1, 2, 4] {
            let spec = sc.clone().engine(EngineSpec::Sharded { shards });
            let a = spec.clone().run();
            let b = spec.run();
            assert_bit_identical(&format!("{label} shards={shards} rerun"), &a, &b);
        }
    }
}

#[test]
fn replication_runner_is_engine_invariant() {
    // run_replicated fans out over Rayon with derived seeds; naming the
    // one-shard run either way must be invisible there too.
    let base = Scenario::torus(5)
        .load(Load::Utilization(0.5))
        .horizon(500.0)
        .warmup(50.0)
        .seed(11);
    let a = base
        .clone()
        .engine(EngineSpec::Sharded { shards: 1 })
        .run_replicated(3);
    let b = base.engine(EngineSpec::Auto).run_replicated(3);
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_bit_identical("replicated torus", x, y);
    }
}
