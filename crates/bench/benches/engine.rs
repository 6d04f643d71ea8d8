//! Event-queue ablations: the classic hold model on the binary heap and
//! the calendar queue, and the engine's lane queue against the calendar
//! alone on the unit-service event mix. End-to-end wall time per workload
//! is the job of the `wallbench` benchmark (`BENCHMARK.json`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use meshbound::sim::events::{CalendarQueue, EventQueue, HeapQueue, LaneQueue};

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

fn bench(c: &mut Criterion) {
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
}

criterion_group!(benches, bench);
criterion_main!(benches);
