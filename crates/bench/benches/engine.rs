//! Simulator-engine ablations: event-queue implementations, raw simulation
//! throughput, and the shard-count comparison that feeds
//! `BENCH_engine.json`.
//!
//! Running this bench always measures events/sec for `auto`, `sharded:1`
//! and `sharded:4` on the Table-I mesh workload (ρ = 0.8) and on
//! hypercube shuffles (ρ = 0.5, up to 2¹⁶ nodes), asserts that `auto` and
//! `sharded:1` agree bit for bit, and writes a schema-versioned JSON
//! report to `$ENGINE_BENCH_OUT` (default `BENCH_engine.json`) — the point
//! of the perf trajectory CI archives. Pass `-- --smoke` for the reduced
//! CI variant that skips the criterion timing groups. End-to-end wall
//! time per workload is the job of the `wallbench` benchmark
//! (`BENCHMARK.json`).

use criterion::{BatchSize, Criterion, Throughput};
use meshbound::sim::events::{CalendarQueue, EventQueue, HeapQueue, LaneQueue};
use meshbound::{EngineSpec, Load, RouterSpec, Scenario, TrafficSpec};
use serde::Serialize;

/// Schema identifier of the JSON report; bump on layout changes.
/// v2: rows gained a `topo`/`nodes` axis and the table-free hypercube
/// shuffle workloads joined the mesh sweep.
/// v3: rows gained a `cores` axis and the sharded parallel engine joined
/// the comparison (`sharded:1`, `sharded:4`), with a sharded headline.
/// v4: the report gained a `router_comparison` block measuring greedy vs
/// odd-even adaptive events/sec on the mesh transpose workload.
/// v5: the heap and calendar engines are gone (one engine, `auto` = one
/// shard): rows are `auto`, `sharded:1` and `sharded:4`, each row's
/// `speedup_vs_heap` became `speedup_vs_auto`, and the
/// `speedup_auto_vs_heap` headline was dropped.
const SCHEMA: &str = "meshbound.engine-bench/v5";

#[derive(Serialize)]
struct EngineBenchReport {
    schema: String,
    /// Human description of the measured workload.
    workload: String,
    /// Threads the measuring host offered
    /// (`std::thread::available_parallelism`) — the context for the
    /// sharded rows: `sharded:4` can only beat `sharded:1` when
    /// `host_cores > 1`.
    host_cores: usize,
    /// One row per (workload size, engine).
    rows: Vec<Row>,
    /// Parallel headline: `sharded:4` vs `sharded:1` events/sec at the
    /// largest size. Only meaningful on a multi-core host — a 1-core
    /// runner reports ~1.0 or below (barrier overhead, no parallelism).
    speedup_sharded4_vs_sharded1: f64,
    /// Routing-layer overhead probe: the per-hop adaptive path (odd-even,
    /// queue-aware `next_hop` at every dequeue) against the oblivious
    /// path (greedy) on the same workload.
    router_comparison: RouterComparison,
}

/// Greedy vs odd-even simulator throughput on one transpose workload —
/// the cost of per-hop adaptive decisions relative to oblivious ones.
#[derive(Serialize)]
struct RouterComparison {
    /// Human description of the measured workload.
    workload: String,
    greedy_events_per_sec: f64,
    oddeven_events_per_sec: f64,
}

#[derive(Serialize, Clone)]
struct Row {
    engine: String,
    /// Worker threads the engine runs on: 1 for `auto`, the shard count
    /// for `sharded:<N>`.
    cores: usize,
    /// Topology family: `"mesh"` (Table-I uniform) or `"hypercube"`
    /// (shuffle permutation).
    topo: String,
    /// Size parameter: mesh side or hypercube dimension.
    n: usize,
    /// Total node count — the scaling axis (`n²` or `2^n`).
    nodes: usize,
    rho: f64,
    horizon: f64,
    /// Deterministic event count (identical for `auto` and `sharded:1`;
    /// `sharded:4` adds handoff events).
    events_processed: u64,
    /// Best-of-reps simulator throughput.
    events_per_sec: f64,
    /// This row's events/sec over the `auto` row's at the same size.
    speedup_vs_auto: f64,
}

/// One measured point on the (topology, nodes) grid.
struct Workload {
    topo: &'static str,
    n: usize,
    nodes: usize,
    rho: f64,
    horizon: f64,
}

impl Workload {
    fn mesh(n: usize, horizon: f64) -> Self {
        Workload {
            topo: "mesh",
            n,
            nodes: n * n,
            rho: 0.8,
            horizon,
        }
    }

    /// Hypercube shuffle: the workload family the million-node scenarios
    /// run.
    fn cube_shuffle(dim: usize, horizon: f64) -> Self {
        Workload {
            topo: "hypercube",
            n: dim,
            nodes: 1 << dim,
            rho: 0.5,
            horizon,
        }
    }

    fn scenario(&self, engine: EngineSpec) -> Scenario {
        let base = match self.topo {
            "mesh" => Scenario::mesh(self.n).load(Load::TableRho(self.rho)),
            "hypercube" => Scenario::hypercube(self.n)
                .traffic(TrafficSpec::shuffle())
                .load(Load::Utilization(self.rho)),
            other => unreachable!("unknown workload topology {other}"),
        };
        base.horizon(self.horizon)
            .warmup(self.horizon / 5.0)
            .seed(13)
            .engine(engine)
    }
}

/// Measures greedy vs odd-even events/sec on the mesh:16 transpose
/// workload at ρ = 0.8 — the acceptance workload where odd-even's extra
/// path diversity pays off. Best of `reps` interleaved rounds, like the
/// engine grid.
fn router_comparison(smoke: bool) -> RouterComparison {
    let horizon = if smoke { 200.0 } else { 1_000.0 };
    let reps = if smoke { 3 } else { 5 };
    let scenario = |router: RouterSpec| {
        Scenario::mesh(16)
            .traffic(TrafficSpec::transpose())
            .load(Load::Utilization(0.8))
            .horizon(horizon)
            .warmup(horizon / 5.0)
            .seed(13)
            .router(router)
    };
    let mut best = [0.0f64; 2];
    for _ in 0..reps {
        for (slot, router) in [RouterSpec::Greedy, RouterSpec::OddEven]
            .into_iter()
            .enumerate()
        {
            let res = scenario(router).run();
            best[slot] = best[slot].max(res.events_per_sec);
        }
    }
    RouterComparison {
        workload: format!("mesh:16 transpose (util rho=0.8), horizon {horizon}, seed 13"),
        greedy_events_per_sec: best[0],
        oddeven_events_per_sec: best[1],
    }
}

/// The shard-count comparison: measures every engine row at several
/// sizes, asserts `auto` ≡ `sharded:1`, and assembles the JSON report.
///
/// Reps are *interleaved* — every round measures each engine once — so
/// machine-noise phases (a busy neighbor, a thermal dip) hit all engines
/// alike instead of biasing whichever ran during the bad stretch; the
/// best round per engine is reported.
fn engine_comparison(smoke: bool) -> EngineBenchReport {
    // Horizons track real workloads (the Scenario default is 2000, or 50
    // above 4096 nodes): engine setup is one-time, so unrealistically
    // short runs would under-credit (or over-credit) whichever engine
    // amortizes differently.
    let sizes: Vec<Workload> = if smoke {
        vec![
            Workload::mesh(5, 200.0),
            Workload::mesh(10, 400.0),
            Workload::cube_shuffle(10, 100.0),
            Workload::cube_shuffle(14, 20.0),
        ]
    } else {
        vec![
            Workload::mesh(5, 500.0),
            Workload::mesh(10, 1_000.0),
            Workload::mesh(20, 1_000.0),
            Workload::cube_shuffle(10, 200.0),
            Workload::cube_shuffle(14, 50.0),
            Workload::cube_shuffle(16, 50.0),
        ]
    };
    // Slots 0 and 1 (auto, sharded:1) are the same run and must agree bit
    // for bit; sharded:4 replicates the per-shard ticks and adds handoff
    // events, so its fingerprint is only required to be *rep-stable*.
    let engines = [
        EngineSpec::Auto,
        EngineSpec::Sharded { shards: 1 },
        EngineSpec::Sharded { shards: 4 },
    ];
    let reps = if smoke { 3 } else { 5 };
    let mut rows = Vec::new();
    let mut sharded_headline = 0.0;
    for w in &sizes {
        let mut best = [0.0f64; 3];
        let mut fingerprint: [Option<(u64, u64)>; 3] = [None; 3];
        for _ in 0..reps {
            for (slot, &engine) in engines.iter().enumerate() {
                let res = w.scenario(engine).run();
                best[slot] = best[slot].max(res.events_per_sec);
                let fp = (res.events_processed, res.avg_delay.to_bits());
                match fingerprint[slot] {
                    None => fingerprint[slot] = Some(fp),
                    Some(prev) => assert_eq!(
                        prev, fp,
                        "engine {engine} is not deterministic across reps on {} n={}",
                        w.topo, w.n
                    ),
                }
            }
        }
        assert_eq!(
            fingerprint[1], fingerprint[0],
            "sharded:1 diverged from auto on {} n={}",
            w.topo, w.n
        );
        for (slot, &engine) in engines.iter().enumerate() {
            let cores = match engine {
                EngineSpec::Sharded { shards } => shards,
                _ => 1,
            };
            rows.push(Row {
                engine: engine.to_string(),
                cores,
                topo: w.topo.to_string(),
                n: w.n,
                nodes: w.nodes,
                rho: w.rho,
                horizon: w.horizon,
                events_processed: fingerprint[slot].expect("measured above").0,
                events_per_sec: best[slot],
                speedup_vs_auto: best[slot] / best[0],
            });
        }
        sharded_headline = best[2] / best[1]; // last size wins: the headline scale
    }
    EngineBenchReport {
        schema: SCHEMA.to_string(),
        workload: "Table-I square mesh (rho=0.8) and hypercube shuffle (rho=0.5), seed 13"
            .to_string(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        speedup_sharded4_vs_sharded1: sharded_headline,
        router_comparison: router_comparison(smoke),
    }
}

/// A fixed xorshift stream of U(0,1) draws for the hold models.
fn uniform_stream() -> impl FnMut() -> f64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Classic hold-model: pop one event, push one event at t + U(0,2).
fn hold_model<Q: EventQueue<u32>>(queue: &mut Q, ops: usize) {
    let mut rnd = uniform_stream();
    for i in 0..256u32 {
        queue.schedule(rnd() * 2.0, i);
    }
    for _ in 0..ops {
        let (t, id) = queue.next().unwrap();
        queue.schedule(t + rnd() * 2.0, id);
    }
}

/// Hold model with the engine's unit-service event mix: 400 Poisson
/// sources at the Table-I rate (each pop reschedules at an exponential
/// gap) and 1000 unit-service chains started in 50 tied clumps (each pop
/// reschedules one time unit later, through `schedule_unit`). Unlike
/// `hold_model`, the chains form exact ties and arrive in time order, as
/// the engine's departures do.
fn unit_service_hold<Q: EventQueue<u32>>(
    queue: &mut Q,
    ops: usize,
    schedule_unit: fn(&mut Q, f64, u32),
) {
    const SOURCES: u32 = 400;
    const RATE: f64 = 0.16;
    let mut rnd = uniform_stream();
    let mut gap = move || -(1.0 - rnd()).ln() / RATE;
    for i in 0..SOURCES {
        queue.schedule(gap(), i);
    }
    for clump in 0..50u32 {
        let t0 = gap() * RATE;
        for k in 0..20 {
            schedule_unit(queue, t0, SOURCES + 20 * clump + k);
        }
    }
    for _ in 0..ops {
        let (t, id) = queue.next().unwrap();
        if id < SOURCES {
            queue.schedule(t + gap(), id);
        } else {
            schedule_unit(queue, t + 1.0, id);
        }
    }
}

fn criterion_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_hold_model");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("binary_heap", |b| {
        b.iter_batched(
            HeapQueue::<u32>::new,
            |mut q| hold_model(&mut q, 100_000),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("calendar_queue", |b| {
        b.iter_batched(
            || CalendarQueue::<u32>::new(64, 0.125),
            |mut q| hold_model(&mut q, 100_000),
            BatchSize::SmallInput,
        );
    });
    group.finish();

    // The engine's queue against the calendar alone on tie-forming unit
    // service: the lane queue takes the chains on its ordered lane.
    let mut group = c.benchmark_group("event_queue_unit_service");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("calendar_queue", |b| {
        b.iter_batched(
            || CalendarQueue::<u32>::for_simulation(1_600),
            |mut q| unit_service_hold(&mut q, 100_000, |q, t, id| q.schedule(t, id)),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("lane_queue", |b| {
        b.iter_batched(
            || LaneQueue::new(CalendarQueue::<u32>::for_simulation(1_600)),
            |mut q| unit_service_hold(&mut q, 100_000, LaneQueue::schedule_ordered),
            BatchSize::SmallInput,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("network_sim_throughput");
    group.sample_size(10);
    for n in [5usize, 10, 20] {
        group.bench_function(format!("mesh_n{n}_rho0.8_auto"), |b| {
            b.iter(|| {
                Scenario::mesh(n)
                    .load(Load::TableRho(0.8))
                    .horizon(500.0)
                    .warmup(100.0)
                    .seed(13)
                    .run()
            });
        });
    }
    group.finish();
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let report = engine_comparison(smoke);
    println!("engine comparison ({}):", report.workload);
    for row in &report.rows {
        println!(
            "  {:<9} n={:<3} ({:>6} nodes) {:<9} cores={} {:>10.0} events/s  \
             ({:.2}x vs auto, {} events)",
            row.topo,
            row.n,
            row.nodes,
            row.engine,
            row.cores,
            row.events_per_sec,
            row.speedup_vs_auto,
            row.events_processed
        );
    }
    println!(
        "headline: sharded:4 vs sharded:1 {:.2}x at the largest size",
        report.speedup_sharded4_vs_sharded1
    );
    println!(
        "routers ({}): greedy {:.0} events/s, oddeven {:.0} events/s",
        report.router_comparison.workload,
        report.router_comparison.greedy_events_per_sec,
        report.router_comparison.oddeven_events_per_sec
    );
    let out = std::env::var("ENGINE_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    match std::fs::write(&out, serde::json::to_string_pretty(&report)) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            // The report is this binary's entire point in CI: fail loudly
            // rather than letting the smoke step pass without its artifact.
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    if !smoke {
        let mut c = Criterion::default();
        criterion_groups(&mut c);
    }
}
