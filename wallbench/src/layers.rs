//! Per-layer metrics: what each one measures, which end-to-end metric it
//! should move and on which workloads, and the micro-timings that price
//! each layer in isolation at a workload's own sizes.

use crate::trace::Tracer;
use meshbound::routing::dest::{DestSampler, UniformDest};
use meshbound::routing::{
    DimOrder, GenericDest, GreedyXY, LocalView, OddEven, PermutationDest, RouteOutcome, RouteTable,
    Router,
};
use meshbound::sim::engine::ROUTE_TABLE_MAX_NODES;
use meshbound::sim::events::{CalendarQueue, EventQueue};
use meshbound::sim::fault::FaultPlan;
use meshbound::sim::observer::Observer;
use meshbound::sim::rng::{derive_rng, exp_sample};
use meshbound::topology::{EdgeId, Hypercube, Mesh2D, NodeId, Topology};
use meshbound::{EngineSpec, PatternSpec, RouterSpec, Scenario, TopologySpec};
use rand::rngs::SmallRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

const ALL: &[&str] = &[
    "mesh_table1",
    "cube_shuffle_sharded",
    "mesh_transpose_faulted",
];
const HEALTHY: &[&str] = &["mesh_table1", "cube_shuffle_sharded"];
const MESH: &[&str] = &["mesh_table1", "mesh_transpose_faulted"];

/// One per-layer metric and the prediction it carries: the end-to-end
/// metric it should move, the workloads where it should move most, and
/// the workloads where it should stay flat.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub measured_as: &'static str,
    pub moves: &'static str,
    pub mostly_on: &'static [&'static str],
    pub flat_on: &'static [&'static str],
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    measured_as: &'static str,
    moves: &'static str,
    mostly_on: &'static [&'static str],
    flat_on: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        measured_as,
        moves,
        mostly_on,
        flat_on,
    }
}

/// Every metric the traced run reports, in output order. `BENCHMARK.json`
/// lists the same names and units (the self-test checks it).
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    metric("sim.network.events", "count", "events_processed per run (mean over the run's seeds)", "sim_rate", ALL, &[]),
    metric("sim.network.ns_per_event", "ns", "run wall / events over every measured run", "sim_rate", ALL, &[]),
    metric("sim.network.run_s", "s", "mean Scenario::try_run wall in the traced run", "sim_rate", ALL, &[]),
    metric("sim.events.hold_ns", "ns", "CalendarQueue pop+push at the workload's pending count per shard (sources + sum of edge rates), unit-service and exponential inter-arrival increments", "sim_rate", HEALTHY, &[]),
    metric("routing.router.hop_ns", "ns", "one decision as the engine makes it: RouteTable::next_and_dist, Router::next_hop, or Router::route_outcome under the plan's dead set", "sim_rate", &["mesh_transpose_faulted"], &["mesh_table1"]),
    metric("routing.router.hops", "count", "decisions per run, computed: events - expected arrivals (total arrival rate x horizon) - cut handoffs", "sim_rate", ALL, &[]),
    metric("routing.dest.sample_ns", "ns", "DestSampler::sample for the workload's pattern", "sim_rate", ALL, &[]),
    metric("sim.rng.exp_ns", "ns", "exp_sample at the workload's per-source rate", "sim_rate", ALL, &[]),
    metric("sim.observer.update_ns", "ns", "Observer packet_enters + service_done + packet_exits, per hop", "sim_rate", ALL, &[]),
    metric("routing.table.build_s", "s", "RouteTable::build (0 where the engine builds no table)", "sim_rate", &["mesh_table1"], &["cube_shuffle_sharded", "mesh_transpose_faulted"]),
    metric("sim.network.residual_frac", "ratio", "1 - layers.sum_s / (run_s x worker threads)", "sim_rate", &["cube_shuffle_sharded"], &[]),
    metric("wallbench.layers.sum_s", "s", "per run: events x hold + hops x (hop + observer) + expected arrivals x (sample + exp)", "sim_rate", ALL, &[]),
    metric("routing.rates.solve_s", "s", "cold Scenario::try_edge_rates", "setup_s", &["cube_shuffle_sharded", "mesh_transpose_faulted"], &["mesh_table1"]),
    metric("core.report.bounds_s", "s", "BoundsReport::compute_for with the unit-rate cache warm (the cube's vector is above the cache gate)", "setup_s", &["mesh_transpose_faulted"], &["mesh_table1"]),
    metric("sim.fault.plan_s", "s", "FaultPlan::materialize (0 without a fault clause)", "setup_s, sim_rate", &["mesh_transpose_faulted"], HEALTHY),
    metric("sim.fault.drops.dead_end", "count", "SimResult::dropped.dead_end per run (mean over the run's seeds)", "delivered_frac", &["mesh_transpose_faulted"], HEALTHY),
    metric("sim.fault.drops.local_minimum", "count", "SimResult::dropped.local_minimum per run (mean over the run's seeds)", "delivered_frac", &["mesh_transpose_faulted"], HEALTHY),
    metric("sim.fault.drops.ttl_exceeded", "count", "SimResult::dropped.ttl_exceeded per run (mean over the run's seeds)", "delivered_frac", &["mesh_transpose_faulted"], HEALTHY),
    metric("sim.fault.drops.link_down", "count", "SimResult::dropped.link_down per run (mean over the run's seeds)", "delivered_frac", &["mesh_transpose_faulted"], HEALTHY),
    metric("sim.shard.cut_handoffs", "count", "sum of final shard<i>:cut from a probes=shards run, same physics bit for bit (0 on one shard)", "sim_rate", &["cube_shuffle_sharded"], MESH),
    metric("sim.shard.imbalance", "ratio", "max / mean of final shard<i>:events (1 on one shard)", "sim_rate", &["cube_shuffle_sharded"], MESH),
    metric("sim.shard.speedup_vs_auto", "ratio", "run wall on engine=auto / run wall on the workload's engine, same scenario (1 where that engine is auto)", "sim_rate", &["cube_shuffle_sharded"], MESH),
    metric("wallbench.trace.sim_rate", "simtime/s", "median horizon / try_run wall over the traced runs", "sim_rate", ALL, &[]),
    metric("wallbench.trace.overhead_frac", "ratio", "1 - traced sim_rate / untraced sim_rate, interleaved rounds in one process", "sim_rate", &[], ALL),
];

impl LayerMetric {
    /// What this metric predicts for `workload`.
    pub fn expectation(&self, workload: &str) -> &'static str {
        if self.flat_on.contains(&workload) {
            "flat here"
        } else if self.mostly_on.contains(&workload) {
            "moves most here"
        } else {
            "may move here"
        }
    }
}

/// Isolated per-operation costs of one workload's layers.
pub struct LayerCosts {
    pub hold_ns: f64,
    pub hop_ns: f64,
    pub sample_ns: f64,
    pub exp_ns: f64,
    pub observer_ns: f64,
    pub table_build_s: f64,
    pub plan_s: f64,
}

/// RNG stream of the benchmark's own draws, apart from the engine's.
const BENCH_STREAM: u64 = 0x5741_4C4C;
/// Operations per timed pass of a micro-timing.
const PASS_OPS: usize = 1 << 20;
/// Timed passes per micro-timing; the median is reported.
const PASSES: usize = 5;
/// Decision points sampled from real routes for the routing and observer
/// timings.
const WALK_HOPS: usize = 1 << 14;
/// Pre-drawn inter-arrival gaps the hold model cycles through, so it
/// times the queue and not the RNG.
const GAP_RING: usize = 4096;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median over [`PASSES`] timed passes (after one untimed pass) of the
/// nanoseconds per operation; `pass` makes one pass and returns its
/// operation count and a checksum that keeps the work observable.
fn ns_per_op(mut pass: impl FnMut() -> (usize, u64)) -> f64 {
    black_box(pass());
    let per: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            let (ops, sum) = pass();
            let ns = t.elapsed().as_secs_f64() * 1e9 / ops as f64;
            black_box(sum);
            ns
        })
        .collect();
    median(&per)
}

/// Median wall seconds of `reps` calls of `f`.
fn median_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&per)
}

/// A live-queue view with a static dead set: queue lengths drawn once,
/// liveness from the fault plan (empty = every edge live).
struct BenchView {
    qlen: Vec<u32>,
    live: Vec<bool>,
}

impl LocalView for BenchView {
    #[inline]
    fn queue_len(&self, e: EdgeId) -> u32 {
        self.qlen[e.index()]
    }

    #[inline]
    fn is_live(&self, e: EdgeId) -> bool {
        self.live.is_empty() || self.live[e.index()]
    }
}

/// One routing decision taken on a sampled route.
struct Hop<S> {
    cur: NodeId,
    dst: NodeId,
    state: S,
    edge: EdgeId,
}

/// Decision points of packets drawn like the workload's: uniform sources,
/// the workload's destinations, routed hop by hop under `view` until
/// delivery or a drop. Returns the hops and each packet's hop count.
fn sample_routes<T, R, D>(
    topo: &T,
    router: &R,
    dest: &D,
    view: &BenchView,
    rng: &mut SmallRng,
) -> (Vec<Hop<R::State>>, Vec<usize>)
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    let nodes = topo.num_nodes() as u32;
    let mut hops = Vec::with_capacity(WALK_HOPS + 64);
    let mut lengths = Vec::new();
    while hops.len() < WALK_HOPS {
        let src = NodeId(rng.gen_range(0..nodes));
        let dst = dest.sample(topo, src, rng);
        if src == dst {
            continue;
        }
        let state = router.init_state(topo, src, dst, rng);
        let start = hops.len();
        let budget = 4 * router.route_len(topo, src, dst, state) + 8;
        let mut cur = src;
        while cur != dst && hops.len() - start < budget {
            match router.route_outcome(topo, cur, dst, state, view) {
                RouteOutcome::Forward(edge) => {
                    hops.push(Hop {
                        cur,
                        dst,
                        state,
                        edge,
                    });
                    cur = topo.edge_target(edge);
                }
                RouteOutcome::DeadEnd | RouteOutcome::LocalMinimum => break,
            }
        }
        if hops.len() > start {
            lengths.push(hops.len() - start);
        }
    }
    (hops, lengths)
}

/// What a workload's layers run on, beyond its topology/router/pattern.
pub struct LayerInput<'a> {
    pub scenario: &'a Scenario,
    /// Σ λ_e at the resolved load (the expected number of packets in
    /// service with unit service times).
    pub total_edge_rate: f64,
    /// Worker threads the engine splits the scenario over.
    pub shards: usize,
}

/// Prices every layer of the scenario's topology/router/pattern.
///
/// # Errors
///
/// When the scenario is not one this benchmark has a layer model for.
pub fn price(input: &LayerInput<'_>, tracer: &mut Tracer) -> Result<LayerCosts, String> {
    let sc = input.scenario;
    match (&sc.topology, sc.router, &sc.traffic.pattern) {
        (TopologySpec::Mesh { rows, cols }, RouterSpec::Greedy, PatternSpec::Uniform) => {
            price_with(
                input,
                &Mesh2D::rect(*rows, *cols),
                &GreedyXY,
                &UniformDest,
                tracer,
            )
        }
        (
            TopologySpec::Mesh { rows, cols },
            RouterSpec::OddEven,
            PatternSpec::Permutation { kind },
        ) => {
            let mesh = Mesh2D::rect(*rows, *cols);
            let dest = GenericDest::Permutation(PermutationDest::new(&mesh, *kind)?);
            price_with(input, &mesh, &OddEven, &dest, tracer)
        }
        (TopologySpec::Hypercube { dim }, _, PatternSpec::Permutation { kind }) => {
            let cube = Hypercube::new(*dim);
            let dest = GenericDest::Permutation(PermutationDest::new(&cube, *kind)?);
            price_with(input, &cube, &DimOrder, &dest, tracer)
        }
        _ => Err(format!("no layer model for {}", sc.spec_string())),
    }
}

fn price_with<T, R, D>(
    input: &LayerInput<'_>,
    topo: &T,
    router: &R,
    dest: &D,
    tracer: &mut Tracer,
) -> Result<LayerCosts, String>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    let sc = input.scenario;
    let mut rng = derive_rng(sc.seed, BENCH_STREAM);
    let lambda = sc.lambda();

    let (plan, plan_s) = tracer.span("sim.fault.plan", |_| match &sc.faults {
        Some(spec) => (
            FaultPlan::materialize(spec, sc.seed, topo),
            median_s(5, || FaultPlan::materialize(spec, sc.seed, topo)),
        ),
        None => (FaultPlan::default(), 0.0),
    });
    let mut live = Vec::new();
    if !plan.down_edges.is_empty() {
        live = vec![true; topo.num_edges()];
        for e in &plan.down_edges {
            live[e.index()] = false;
        }
    }
    let view = BenchView {
        // Light-load occupancy: the adaptive routers break ties on it.
        qlen: (0..topo.num_edges())
            .map(|_| rng.gen_range(0..3u32))
            .collect(),
        live,
    };
    let (hops, lengths) = sample_routes(topo, router, dest, &view, &mut rng);

    // The engine's own rule (see `NetworkSim::build_tables`): tables only
    // on the auto engine, for deterministic routers, on small healthy
    // topologies.
    let tabled = sc.engine == EngineSpec::Auto
        && sc.faults.is_none()
        && router.is_route_deterministic()
        && topo.num_nodes() <= ROUTE_TABLE_MAX_NODES
        && RouteTable::fits(topo);
    let (table, table_build_s) = tracer.span("routing.table.build", |_| {
        if tabled {
            (
                Some(RouteTable::build(topo, router)),
                median_s(3, || RouteTable::build(topo, router)),
            )
        } else {
            (None, 0.0)
        }
    });

    let over_hops = |f: &mut dyn FnMut(&Hop<R::State>) -> u64| {
        let mut sum = 0u64;
        let mut ops = 0;
        while ops < PASS_OPS {
            for h in &hops {
                sum = sum.wrapping_add(f(h));
            }
            ops += hops.len();
        }
        (ops, sum)
    };
    let hop_ns = tracer.span("routing.router.hop", |_| {
        match (&table, sc.faults.is_some()) {
            (Some(t), _) => ns_per_op(|| {
                over_hops(&mut |h| {
                    let (e, d) = t.next_and_dist(h.cur, h.dst);
                    u64::from(e.0) + d as u64
                })
            }),
            (None, true) => ns_per_op(|| {
                over_hops(
                    &mut |h| match router.route_outcome(topo, h.cur, h.dst, h.state, &view) {
                        RouteOutcome::Forward(e) => u64::from(e.0),
                        RouteOutcome::DeadEnd | RouteOutcome::LocalMinimum => 1,
                    },
                )
            }),
            (None, false) => ns_per_op(|| {
                over_hops(&mut |h| {
                    router
                        .next_hop(topo, h.cur, h.dst, h.state, &view)
                        .map_or(1, |e| u64::from(e.0))
                })
            }),
        }
    });

    let nodes = topo.num_nodes();
    let sample_ns = tracer.span("routing.dest.sample", |_| {
        ns_per_op(|| {
            let mut sum = 0u64;
            for i in 0..PASS_OPS {
                let src = NodeId((i % nodes) as u32);
                sum = sum.wrapping_add(u64::from(dest.sample(topo, src, &mut rng).0));
            }
            (PASS_OPS, sum)
        })
    });
    let exp_ns = tracer.span("sim.rng.exp", |_| {
        ns_per_op(|| {
            let mut sum = 0u64;
            for _ in 0..PASS_OPS {
                sum = sum.wrapping_add(exp_sample(&mut rng, lambda).to_bits());
            }
            (PASS_OPS, sum)
        })
    });

    let observer_ns = tracer.span("sim.observer.update", |_| {
        let mut obs = Observer::new(topo.num_edges(), 0.0);
        let mut now = 0.0;
        ns_per_op(|| {
            let mut ops = 0;
            while ops < PASS_OPS {
                let mut at = 0;
                for &len in &lengths {
                    let born = now;
                    obs.packet_enters(now, len, 0);
                    for h in &hops[at..at + len] {
                        now += 1e-3;
                        obs.service_done(now, h.edge.index(), 1.0, false);
                    }
                    obs.packet_exits(now, born, true);
                    at += len;
                }
                ops += at;
            }
            (ops, obs.completed)
        })
    });

    let hold_ns = tracer.span("sim.events.hold", |_| {
        let shards = input.shards.max(1);
        let arrivals = nodes.div_ceil(shards);
        let services = (input.total_edge_rate / shards as f64).round() as usize;
        hold_model_ns(arrivals, services, lambda, &mut rng)
    });

    Ok(LayerCosts {
        hold_ns,
        hop_ns,
        sample_ns,
        exp_ns,
        observer_ns,
        table_build_s,
        plan_s,
    })
}

/// Arrival and departure events with the engine's `u32` payload, so queue
/// entries have the engine's size.
#[derive(Clone, Copy, PartialEq)]
enum HoldEv {
    Arrival(u32),
    Departure(u32),
}

/// Classic hold model at a fixed population: `arrivals` Poisson sources
/// (each pop reschedules at an exponential gap) and `services` unit-time
/// transmissions (each pop reschedules one time unit later).
fn hold_model_ns(arrivals: usize, services: usize, rate: f64, rng: &mut SmallRng) -> f64 {
    let gaps: Vec<f64> = (0..GAP_RING).map(|_| exp_sample(rng, rate)).collect();
    let mut queue = CalendarQueue::for_simulation(4 * arrivals.max(1));
    for i in 0..arrivals {
        queue.schedule(gaps[i % GAP_RING], HoldEv::Arrival(i as u32));
    }
    for i in 0..services {
        queue.schedule(rng.gen::<f64>(), HoldEv::Departure(i as u32));
    }
    // Long enough passes to cycle the whole population several times.
    let ops = PASS_OPS.max(4 * (arrivals + services));
    let mut next_gap = 0usize;
    ns_per_op(|| {
        let mut sum = 0u64;
        for _ in 0..ops {
            let (t, ev) = queue.next().expect("the hold model keeps its population");
            let dt = match ev {
                HoldEv::Arrival(_) => {
                    next_gap = (next_gap + 1) % GAP_RING;
                    gaps[next_gap]
                }
                HoldEv::Departure(_) => 1.0,
            };
            queue.schedule(t + dt, ev);
            sum = sum.wrapping_add(t.to_bits());
        }
        (ops, sum)
    })
}
