//! The simulation engine: one event loop over `k` node shards
//! ([`EngineSpec`]). `engine=auto` runs `k = 1`;
//! `sharded:<N>` asks for `N` shards, one thread each.
//!
//! # The loop
//!
//! The topology is partitioned into contiguous node blocks
//! ([`Partition::contiguous`]); each directed edge belongs to the shard of
//! its **source** node, so every enqueue a shard performs is on an edge it
//! owns. A shard has its own future-event list, its own RNG stream
//! (`derive_rng(seed, shard)`) and its own [`Observer`], so threads share
//! nothing mutable. Within a shard:
//!
//! * the **future-event list** is a [`LaneQueue`]: departures are offered
//!   to its ordered FIFO lane (under unit service they are scheduled at
//!   `now + 1` with `now` non-decreasing, so they arrive in time order),
//!   and every other event goes to its calendar queue. Departures that
//!   come out of order — exponential service, unequal per-edge rates —
//!   fall back to the calendar one by one, and the pop order is the one a
//!   single calendar would give;
//! * **edge queues** are intrusive linked lists threaded through one
//!   shared slab (`qnext[pid]`), so an edge's state is two `u32` cursors
//!   and the shard's queue storage is a single allocation;
//! * a shard's edge records sit in one dense array, **indexed by edge-id
//!   range** where the topology numbers out-edges by source node
//!   (hypercube, torus, butterfly: a record's slot is the edge id minus
//!   the shard's base) and **by table** otherwise (the meshes number
//!   edges by direction); see [`Partition`];
//! * packet records live in a free-list slab, and a **departure event
//!   carries the packet in service** along with its edge, so completing a
//!   service loads the edge record and the packet side by side instead of
//!   reaching the packet through the edge's queue head;
//! * **routing** makes one [`Router::route_outcome`] call at injection and
//!   after every hop, with a live [`LocalView`] of the switch's output
//!   queues and link liveness. A packet that cannot move is a
//!   cause-tallied drop under a fault plan and a
//!   [`SimError::RouterStalled`] on a healthy topology;
//! * a **uniform service rate is one service time**: under deterministic
//!   unit service every service takes 1, with no per-edge state. Per-edge
//!   rates (the scenario's `service_rates`) are read at each service
//!   start, which takes `1/rate` under deterministic service.
//!
//! With `k = 1` there are no cut edges, so the run is one unbounded window
//! with no channels and no handoffs: `sharded:1` and `auto` are the same
//! run by construction.
//!
//! # Protocol
//!
//! Time is divided into epochs of length Δ, the **conservative lookahead**:
//! the minimum service time over cut edges (edges whose source and target
//! live on different shards). A packet crossing shard boundaries must be
//! serviced by a cut edge, which takes at least Δ, so an event executed in
//! epoch `j` can only affect other shards at times `≥ (j+1)·Δ` — each shard
//! may therefore run epoch `j` to completion without hearing from its
//! peers. Because the lookahead must be known in advance, shards > 1
//! requires [`ServiceKind::Deterministic`] service times, which
//! [`Scenario::validate`] enforces. A window pops only the events before
//! its end ([`LaneQueue::next_before`]): the first event past it stays
//! queued with its sequence number, so the events of consecutive windows
//! come in `(time, seq)` order, and a probe tick at the end decides
//! nothing.
//!
//! Cross-shard transfers are *sent at service start*: when a cut edge
//! begins serving a packet at `t`, its completion time `t + 1/rate` is
//! already known, so the packet (destination, router state, generation
//! time, completion time) goes into the per-peer outbox immediately. At
//! each epoch boundary every shard sends one batch (possibly empty) to
//! every other shard over a bounded channel and then receives one from
//! every other shard — the exchange is the barrier. Received packets are
//! merged in `(time, sender, sequence)` order (a stable sort over
//! concatenated batches in fixed sender order) and scheduled as handoff
//! events, which route the packet onward from the cut edge's target node.
//! The exchange checks the lookahead in every build: a handoff that would
//! land before the window end, in the receiver's past, panics the run.
//!
//! # Determinism
//!
//! For a fixed `(seed, shard_count)` the result is **bit-identical across
//! reruns and thread schedules**: all cross-thread data flows through the
//! barrier exchange, whose merge order is deterministic, and everything
//! else is shard-local. With `shards > 1` the RNG streams decompose
//! differently from `k = 1`, so the single-shard run acts as the
//! *statistical* oracle: delay, throughput and the conservation ratios
//! agree within replication noise.
//!
//! # Statistics merge
//!
//! Per-shard observers are merged in shard order after the join. Sums
//! (generated, completed, events), time integrals (`E[N]`, `E[R]`,
//! `E[R_s]` — the integral of a sum is the sum of integrals) and the
//! per-edge busy/service tallies are exact. Delay mean/variance merge via
//! [`Welford::merge`] (exact). Two quantities are approximations at
//! `shards > 1` and exact at `shards = 1`: `peak_n` reports the **sum of
//! per-shard peaks**, an upper bound on the true global peak (shards need
//! not peak simultaneously), and delay quantiles re-feed the per-shard
//! reservoir samples through a fresh reservoir, which is a uniform
//! subsample of a uniform subsample rather than of the raw stream.

use crate::engine::{EngineSpec, STREAMING_STATS_MAX_EDGES};
use crate::events::{CalendarQueue, EventQueue, LaneQueue};
use crate::fault::{ttl_budget, DropCause, DropCounts, FaultPlan};
use crate::network::{stall, EdgeThroughputStats, NetworkSim, SimError, SimResult};
use crate::observer::Observer;
use crate::rng::{derive_rng, exp_sample, poisson_sample};
use crate::scenario::Scenario;
use crate::service::ServiceKind;
use crate::telemetry::{ProbeSample, Recorder};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::{LocalView, RouteOutcome, Router};
use meshbound_stats::{Reservoir, Welford};
use meshbound_topology::{EdgeId, NodeId, Partition, Topology};
use rand::rngs::SmallRng;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Size of the delay-quantile reservoir.
const RESERVOIR_CAPACITY: usize = 1 << 16;

/// Per-peer channel depth. One in-flight batch plus one being composed is
/// enough: the exchange is fully synchronous (every shard sends to every
/// peer, then receives from every peer, in fixed order each epoch), so no
/// sender can ever run more than one epoch ahead of a receiver.
const CHANNEL_DEPTH: usize = 2;

/// Sentinel for "no packet" in the intrusive edge-queue lists.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Packet<S> {
    dst: NodeId,
    state: S,
    gen_time: f64,
    /// Remaining misroute budget ([`ttl_budget`] of the route length),
    /// decremented per hop.
    ttl: u32,
}

/// A packet in flight between shards: everything the receiving shard needs
/// to resume it at the cut edge's target node.
#[derive(Debug, Clone, Copy)]
struct Msg<S> {
    /// Service-completion time on the cut edge — the handoff time.
    time: f64,
    /// The cut edge's target node (where routing resumes).
    node: NodeId,
    packet: Packet<S>,
}

type Batch<S> = Vec<Msg<S>>;

/// One shard's row of outgoing channels, indexed by destination shard
/// (`None` on the diagonal — a shard never messages itself).
type TxRow<S> = Vec<Option<SyncSender<Batch<S>>>>;

/// One shard's row of incoming channels, indexed by sender shard
/// (`None` on the diagonal).
type RxRow<S> = Vec<Option<Receiver<Batch<S>>>>;

/// Event kinds. `Departure` carries the **global** edge id (service rates
/// and the saturated-edge set are indexed globally); `Arrival` carries the
/// global source index, so per-source rates stay positional.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// Next external arrival at source `idx`.
    Arrival(u32),
    /// Service completion at a (globally indexed) owned edge. It carries
    /// the packet in service, known when the service starts, so the
    /// departure reads the edge record and the packet side by side instead
    /// of finding the packet through the edge's queue head.
    Departure { edge: u32, pid: u32 },
    /// A packet handed over from another shard, parked at slab slot
    /// `pid`, resumes routing at `node`, the cut edge's target.
    Handoff { pid: u32, node: NodeId },
    /// Slot boundary (slotted mode) for this shard's sources.
    Slot,
    /// Warmup boundary.
    Warmup,
    /// Liveness transition `k` of the run's fault plan. Scheduled only
    /// when a plan is installed, so fault-free runs process the exact
    /// pre-fault event sequence. Every shard replays the full (global)
    /// timeline so the liveness mask agrees everywhere; only the owning
    /// shard flushes an edge's queue.
    Fault(u32),
    /// Telemetry probe tick. Scheduled only when probes are configured;
    /// every shard runs the identical tick schedule, so per-shard
    /// recorders merge sample-by-sample after the join. The handler reads
    /// shard state, draws no randomness and mutates nothing, and its ticks
    /// are not counted as events, so probed runs stay bit-identical to
    /// unprobed ones.
    Probe,
}

/// One directed edge's server state — the hot 24 bytes touched on every
/// enqueue/departure. The FIFO queue is an intrusive linked list threaded
/// through the shard's `qnext` slab (indexed by packet id), so an edge owns
/// no heap allocation — just head/tail cursors. The optional
/// queue-length-integral tracking lives in a separate cold array
/// ([`QTrack`]) so the default configuration keeps the edge array compact.
#[derive(Debug)]
struct EdgeState {
    /// Packet in service (when busy) and head of the waiting line.
    head: u32,
    /// Last packet in the line (`NIL` when empty).
    tail: u32,
    /// Queue length including the packet in service.
    qlen: u32,
    busy: bool,
    /// Whether the edge's target node belongs to another shard.
    cut: bool,
    service_start: f64,
}

impl Default for EdgeState {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            qlen: 0,
            busy: false,
            cut: false,
            service_start: 0.0,
        }
    }
}

impl EdgeState {
    /// Appends `pid` to the FIFO (`qnext` is the shared slab).
    #[inline]
    fn push(&mut self, qnext: &mut Vec<u32>, pid: u32) {
        let i = pid as usize;
        if qnext.len() <= i {
            qnext.resize(i + 1, NIL);
        }
        qnext[i] = NIL;
        if self.tail == NIL {
            self.head = pid;
        } else {
            qnext[self.tail as usize] = pid;
        }
        self.tail = pid;
        self.qlen += 1;
    }

    /// Removes the head-of-line packet, `pid`.
    #[inline]
    fn pop(&mut self, qnext: &[u32], pid: u32) {
        debug_assert_eq!(self.head, pid, "departure of a packet not at the head");
        self.head = qnext[pid as usize];
        if self.head == NIL {
            self.tail = NIL;
        }
        self.qlen -= 1;
    }

    /// Cuts the waiting line off behind the packet in service (if any) and
    /// returns its first packet, still chained through `qnext`.
    fn detach_waiting(&mut self, qnext: &mut [u32]) -> u32 {
        if self.busy {
            let waiting = qnext[self.head as usize];
            qnext[self.head as usize] = NIL;
            self.tail = self.head;
            self.qlen = 1;
            waiting
        } else {
            let waiting = self.head;
            self.head = NIL;
            self.tail = NIL;
            self.qlen = 0;
            waiting
        }
    }
}

/// Cold per-edge tracking state: time-weighted queue-length integral and
/// its last update time (allocated only under `track_edge_queues`).
#[derive(Debug, Clone, Copy, Default)]
struct QTrack {
    integral: f64,
    last: f64,
}

/// Accumulates an edge's queue-length integral up to `now` (post-warmup
/// clipping happens at extraction time via the warmup reset).
#[inline]
fn qtick(t: &mut QTrack, qlen: u32, now: f64) {
    t.integral += f64::from(qlen) * (now - t.last);
    t.last = now;
}

/// The engine's live [`LocalView`]: per-output-port queue occupancy read
/// straight off the shard's edge slab, and link liveness under the fault
/// plan. Out-edges belong to their source's shard, so every edge a router
/// inspects at a node this shard owns is in the slab.
struct ShardView<'a> {
    edges: &'a [EdgeState],
    part: &'a Partition,
    /// The shard whose slab `edges` is.
    me: usize,
    /// Global liveness mask (empty = every edge live).
    live: &'a [bool],
}

impl LocalView for ShardView<'_> {
    #[inline]
    fn queue_len(&self, e: EdgeId) -> u32 {
        self.edges[self.part.edge_local(self.me, e)].qlen
    }

    #[inline]
    fn is_live(&self, e: EdgeId) -> bool {
        self.live.is_empty() || self.live[e.index()]
    }
}

/// Where a service start takes its duration from, fixed once per run.
#[derive(Debug, Clone, Copy)]
enum ServiceTime {
    /// Deterministic service at the uniform unit rate: every service
    /// takes 1.
    Unit,
    /// Drawn from the run's service distribution at the edge's rate
    /// (`1/rate` under deterministic service, without touching the RNG).
    Sampled,
}

/// A packet that cannot move on a healthy topology: stuck at `at`, heading
/// for `dst`. Kept to two words so the hot path returns it in registers;
/// the run reports it as a [`SimError::RouterStalled`].
#[derive(Debug, Clone, Copy)]
struct Stalled {
    at: NodeId,
    dst: NodeId,
}

/// What one shard returns: its observer, its event count, and its
/// queue-length integrals (closed at the horizon) when tracked.
struct ShardOut {
    obs: Observer,
    events: u64,
    queue_integrals: Option<Vec<f64>>,
    /// This shard's telemetry recorder, when probes are configured.
    recorder: Option<Recorder>,
}

/// One shard's world. Everything mutable in here is owned by exactly one
/// thread; the only data leaving it mid-run are the outbox batches.
struct Shard<'a, T, R, D>
where
    T: Topology,
    R: Router<T>,
    D: DestSampler<T>,
{
    sim: &'a NetworkSim<'a, T, R, D>,
    /// The run's scenario, one hop from `self`: the settings the event
    /// loop reads.
    sc: &'a Scenario,
    part: &'a Partition,
    service: ServiceTime,
    me: usize,
    /// This shard's sources as `(global source index, node)`, in global
    /// order.
    sources: &'a [(u32, NodeId)],
    rng: SmallRng,
    obs: Observer,
    /// Owned edges, indexed by the shard-local dense edge index.
    edges: Vec<EdgeState>,
    qtrack: Vec<QTrack>,
    packets: Vec<Packet<R::State>>,
    qnext: Vec<u32>,
    free: Vec<u32>,
    queue: LaneQueue<Ev>,
    /// Per-peer outgoing packets, flushed at each epoch boundary.
    outboxes: Vec<Batch<R::State>>,
    /// Per-edge liveness (**global** indexing) under the run's fault plan;
    /// empty on healthy runs.
    live: Vec<bool>,
    events: u64,
    cut_handoffs: u64,
    recorder: Option<Recorder>,
}

impl<'a, T, R, D> Shard<'a, T, R, D>
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    /// Allocates shard `me`'s state and primes its event list.
    fn new(
        sim: &'a NetworkSim<'a, T, R, D>,
        part: &'a Partition,
        service: ServiceTime,
        me: usize,
        sources: &'a [(u32, NodeId)],
    ) -> Self {
        let sc = sim.sc;
        let local_edges = part.shard_edge_count(me);
        let mut edges: Vec<EdgeState> = (0..local_edges).map(|_| EdgeState::default()).collect();
        for &e in part.cut_edges() {
            if part.edge_shard(e) == me {
                edges[part.edge_local(me, e)].cut = true;
            }
        }
        let mut obs = Observer::new(local_edges, sc.warmup);
        if sc.delay_quantiles {
            obs.enable_delay_quantiles(RESERVOIR_CAPACITY, sim.seed ^ 0x5EED);
        }
        let mut shard = Shard {
            sim,
            sc,
            part,
            service,
            me,
            sources,
            rng: derive_rng(sim.seed, me as u64),
            obs,
            edges,
            qtrack: if sc.track_edge_queues {
                vec![QTrack::default(); local_edges]
            } else {
                Vec::new()
            },
            packets: Vec::with_capacity(1024),
            qnext: Vec::with_capacity(1024),
            free: Vec::new(),
            queue: LaneQueue::new(CalendarQueue::for_simulation(4 * sources.len().max(1))),
            outboxes: (0..part.shards()).map(|_| Vec::new()).collect(),
            live: if sim.fault_plan.is_empty() {
                Vec::new()
            } else {
                vec![true; sim.topo.num_edges()]
            },
            events: 0,
            cut_handoffs: 0,
            recorder: None,
        };

        // Prime the event list. Zero-rate sources never get an arrival
        // event; every positive-rate source draws in list order.
        match sc.slot {
            None => {
                for &(gi, _) in sources {
                    let rate = sim.source_rate(gi as usize);
                    if rate > 0.0 {
                        let dt = exp_sample(&mut shard.rng, rate);
                        shard.queue.schedule(dt, Ev::Arrival(gi));
                    }
                }
            }
            Some(tau) => shard.queue.schedule(tau, Ev::Slot),
        }
        if sc.warmup > 0.0 {
            shard.queue.schedule(sc.warmup, Ev::Warmup);
        }
        for (k, fe) in sim.fault_plan.events.iter().enumerate() {
            if fe.time <= sc.horizon {
                shard.queue.schedule(fe.time, Ev::Fault(k as u32));
            }
        }
        // Probe priming comes last, after everything an unprobed run
        // schedules, so probes shift no other event's sequence number.
        if let Some(spec) = &sc.probes {
            let rec = Recorder::for_shard(spec, sc.horizon, me);
            shard.queue.schedule(rec.base(), Ev::Probe);
            shard.recorder = Some(rec);
        }
        shard
    }

    /// Runs the shard through every window, exchanging handoffs at each
    /// window boundary. Returns `Err(None)` when a peer disappears mid-run
    /// (its own error is reported from its thread) and `Err(Some(_))` for
    /// this shard's own structural failures.
    fn run(
        mut self,
        windows: &[f64],
        tx_row: &[Option<SyncSender<Batch<R::State>>>],
        rx_row: &[Option<Receiver<Batch<R::State>>>],
    ) -> Result<ShardOut, Option<SimError>> {
        for (wi, &end) in windows.iter().enumerate() {
            let last = wi + 1 == windows.len();
            // A window runs the events strictly before its end; the last
            // one runs everything up to and including the horizon.
            // Events past it stay queued as they are, so the next window
            // pops them in `(time, seq)` order.
            let stop = if last { self.sc.horizon.next_up() } else { end };
            while let Some((t, ev)) = self.queue.next_before(stop) {
                // Probe ticks ride the event list but are not engine work.
                self.events += u64::from(!matches!(ev, Ev::Probe));
                self.step(t, ev)
                    .map_err(|Stalled { at, dst }| Some(stall::<R>(at, dst)))?;
            }
            if last {
                break;
            }
            self.exchange(end, tx_row, rx_row)?;
        }
        Ok(self.finish())
    }

    /// Handles one event at time `now`.
    #[inline]
    fn step(&mut self, now: f64, ev: Ev) -> Result<(), Stalled> {
        match ev {
            Ev::Arrival(gi) => {
                self.inject(now, self.sim.sources[gi as usize])?;
                let dt = exp_sample(&mut self.rng, self.sim.source_rate(gi as usize));
                self.queue.schedule(now + dt, Ev::Arrival(gi));
            }
            Ev::Departure { edge, pid } => self.depart(now, edge, pid)?,
            Ev::Handoff { pid, node } => {
                self.cut_handoffs += 1;
                self.forward(now, node, pid)?;
            }
            Ev::Slot => {
                let tau = self.sc.slot.expect("slot event without a slot width");
                for &(gi, src) in self.sources {
                    let mean = self.sim.source_rate(gi as usize) * tau;
                    for _ in 0..poisson_sample(&mut self.rng, mean) {
                        self.inject(now, src)?;
                    }
                }
                self.queue.schedule(now + tau, Ev::Slot);
            }
            Ev::Warmup => {
                self.obs.reset_at_warmup();
                let warmup = self.sc.warmup;
                for (edge, tq) in self.edges.iter().zip(self.qtrack.iter_mut()) {
                    qtick(tq, edge.qlen, warmup);
                    tq.integral = 0.0;
                }
            }
            Ev::Fault(k) => self.fault(now, k),
            Ev::Probe => self.probe(now),
        }
        Ok(())
    }

    /// Allocates a packet slot from the free list (or grows the slab).
    fn alloc(&mut self, pk: Packet<R::State>) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.packets[id as usize] = pk;
                id
            }
            None => {
                self.packets.push(pk);
                (self.packets.len() - 1) as u32
            }
        }
    }

    #[inline]
    fn is_live(&self, ei: usize) -> bool {
        self.live.is_empty() || self.live[ei]
    }

    /// Starts service on owned edge `le` (global id `ge`). If the edge is
    /// a cut edge, the packet's handoff is emitted to the target shard's
    /// outbox *now* — its completion time is already determined, and it
    /// is `≥` the next epoch boundary by the lookahead invariant.
    #[inline]
    fn start_service(&mut self, le: usize, ge: u32, now: f64) {
        let dur = match self.service {
            ServiceTime::Unit => 1.0,
            ServiceTime::Sampled => self
                .sc
                .service
                .sample(self.sim.service_rate(ge as usize), &mut self.rng),
        };
        let edge = &mut self.edges[le];
        debug_assert!(!edge.busy && edge.qlen > 0);
        edge.busy = true;
        edge.service_start = now;
        let (pid, cut) = (edge.head, edge.cut);
        let done = now + dur;
        self.queue
            .schedule_ordered(done, Ev::Departure { edge: ge, pid });
        if cut {
            let node = self.sim.topo.edge_target(EdgeId(ge));
            self.outboxes[self.part.node_shard(node)].push(Msg {
                time: done,
                node,
                packet: self.packets[pid as usize],
            });
        }
    }

    /// Appends `pid` to edge `e`'s FIFO and starts service if idle.
    #[inline]
    fn enqueue(&mut self, e: EdgeId, pid: u32, now: f64) {
        let le = self.part.edge_local(self.me, e);
        if self.sc.track_edge_queues {
            qtick(&mut self.qtrack[le], self.edges[le].qlen, now);
        }
        self.edges[le].push(&mut self.qnext, pid);
        if !self.edges[le].busy {
            self.start_service(le, e.0, now);
        }
    }

    /// Completes the service in progress on edge `ge`, whose packet in
    /// service is `pid`, and moves the packet onward.
    fn depart(&mut self, now: f64, ge: u32, pid: u32) -> Result<(), Stalled> {
        let ei = ge as usize;
        let le = self.part.edge_local(self.me, EdgeId(ge));
        if self.sc.track_edge_queues {
            qtick(&mut self.qtrack[le], self.edges[le].qlen, now);
        }
        let edge = &mut self.edges[le];
        edge.pop(&self.qnext, pid);
        let duration = now - edge.service_start;
        edge.busy = false;
        let (waiting, cut) = (edge.qlen > 0, edge.cut);
        self.obs
            .service_done(now, le, duration, self.sim.is_saturated(ei));
        if waiting && self.is_live(ei) {
            self.start_service(le, ge, now);
        }
        if cut {
            // The packet was already emitted to the target shard at
            // service start; its slot is free again.
            self.free.push(pid);
            Ok(())
        } else {
            self.forward(now, self.sim.topo.edge_target(EdgeId(ge)), pid)
        }
    }

    /// Generates one packet at `src` and sends it on its first hop.
    fn inject(&mut self, now: f64, src: NodeId) -> Result<(), Stalled> {
        let sim = self.sim;
        let dst = sim.dest.sample(&sim.topo, src, &mut self.rng);
        if src == dst {
            if self.sc.include_self_packets {
                self.obs.zero_distance_packet(now);
            }
            return Ok(());
        }
        self.obs.packet_generated(now);
        let state = sim.router.init_state(&sim.topo, src, dst, &mut self.rng);
        let hops = sim.router.route_len(&sim.topo, src, dst, state);
        let sat = sim.count_saturated_on_route(src, dst, state);
        self.obs.packet_enters(now, hops, sat);
        let pid = self.alloc(Packet {
            dst,
            state,
            gen_time: now,
            ttl: ttl_budget(hops),
        });
        self.route(now, src, pid)
    }

    /// Moves the packet in slot `pid` onward from `at`: exit if delivered,
    /// otherwise route it. The next edge is always shard-local — out-edges
    /// belong to their source's shard, and `at` is on this shard whenever
    /// this is called.
    #[inline]
    fn forward(&mut self, now: f64, at: NodeId, pid: u32) -> Result<(), Stalled> {
        let pk = self.packets[pid as usize];
        if at == pk.dst {
            self.obs.packet_exits(now, pk.gen_time, true);
            self.free.push(pid);
            return Ok(());
        }
        self.route(now, at, pid)
    }

    /// The one forwarding decision, made at injection and after every hop:
    /// the router picks the next edge out of `at` under the live view, and
    /// the packet joins its queue. A packet that cannot move — a dead end,
    /// a local minimum or an exhausted misroute budget — is a
    /// cause-tallied drop under a fault plan. On a healthy topology it is
    /// a [`SimError::RouterStalled`]: greedy routers are total there and
    /// their routes minimal, so the budget never runs out.
    #[inline]
    fn route(&mut self, now: f64, at: NodeId, pid: u32) -> Result<(), Stalled> {
        let pk = self.packets[pid as usize];
        let decision = if pk.ttl == 0 {
            Err(DropCause::TtlExceeded)
        } else {
            let view = ShardView {
                edges: &self.edges,
                part: self.part,
                me: self.me,
                live: &self.live,
            };
            match self
                .sim
                .router
                .route_outcome(&self.sim.topo, at, pk.dst, pk.state, &view)
            {
                RouteOutcome::Forward(next) => Ok(next),
                RouteOutcome::DeadEnd => Err(DropCause::DeadEnd),
                RouteOutcome::LocalMinimum => Err(DropCause::LocalMinimum),
            }
        };
        match decision {
            Ok(next) => {
                self.packets[pid as usize].ttl -= 1;
                self.enqueue(next, pid, now);
                Ok(())
            }
            Err(_) if self.live.is_empty() => Err(Stalled { at, dst: pk.dst }),
            Err(cause) => {
                self.drop_packet(now, at, pid, cause);
                Ok(())
            }
        }
    }

    /// Drops the packet in slot `pid` at node `at`: unwind the integrals
    /// by its remaining work, tally the cause, recycle the slot.
    fn drop_packet(&mut self, now: f64, at: NodeId, pid: u32, cause: DropCause) {
        let sim = self.sim;
        let pk = self.packets[pid as usize];
        let remaining = sim.router.remaining_hops(&sim.topo, at, pk.dst, pk.state);
        let sat = sim.count_saturated_on_route(at, pk.dst, pk.state);
        self.obs
            .packet_dropped(now, remaining as f64, sat as f64, pk.gen_time, cause);
        self.free.push(pid);
    }

    /// Applies liveness transition `k` of the fault plan.
    fn fault(&mut self, now: f64, k: u32) {
        let fe = self.sim.fault_plan.events[k as usize];
        self.live[fe.edge.index()] = fe.up;
        if self.part.edge_shard(fe.edge) != self.me {
            return;
        }
        let le = self.part.edge_local(self.me, fe.edge);
        if fe.up {
            // Defensive: the flush below leaves at most the in-flight head
            // queued on a dead edge, but if a packet is waiting, service
            // must restart.
            if self.edges[le].qlen > 0 && !self.edges[le].busy {
                self.start_service(le, fe.edge.0, now);
            }
            return;
        }
        if self.sc.track_edge_queues {
            qtick(&mut self.qtrack[le], self.edges[le].qlen, now);
        }
        // The in-flight transmission (if any) finishes; everything waiting
        // behind it drops on the spot.
        let mut pid = self.edges[le].detach_waiting(&mut self.qnext);
        let at = self.sim.topo.edge_source(fe.edge);
        while pid != NIL {
            let next_waiting = self.qnext[pid as usize];
            self.drop_packet(now, at, pid, DropCause::LinkDown);
            pid = next_waiting;
        }
    }

    /// Records one telemetry tick and schedules the next.
    fn probe(&mut self, now: f64) {
        let rec = self
            .recorder
            .as_mut()
            .expect("probe event without recorder");
        let spec = *rec.spec();
        let mut sample = ProbeSample {
            nsys: self.obs.n_sys.value(),
            drops: self.obs.dropped.total() as f64,
            delivered: self.obs.completed as f64,
            events: self.events as f64,
            cut: self.cut_handoffs as f64,
            ..ProbeSample::default()
        };
        if spec.maxq || spec.shards {
            let mut maxq = 0u32;
            let mut qmass = 0u64;
            for e in &self.edges {
                maxq = maxq.max(e.qlen);
                qmass += u64::from(e.qlen);
            }
            sample.maxq = f64::from(maxq);
            sample.qmass = qmass as f64;
        }
        rec.record(now, &sample);
        if self.me == 0 {
            // One writer only: shard 0 speaks for the run (its event
            // count, the shared clock).
            crate::telemetry::emit_progress(now, self.sc.horizon, sample.events as u64);
        }
        let next = now + rec.interval();
        self.queue.schedule(next, Ev::Probe);
    }

    /// The epoch barrier at window end `end`: flush every outbox, then
    /// drain every peer, in fixed order, and schedule the received packets
    /// as handoffs. A closed channel means a peer died on its own error —
    /// bail with the sentinel so the join loop reports theirs.
    ///
    /// # Panics
    ///
    /// Panics if a received handoff lands before `end`, in this shard's
    /// past: the lookahead schedule (`window_ends`) is wrong. Every
    /// service starts on a live edge at or after the window start and
    /// lasts the `1/rate` the window length was computed from, so the
    /// check holds exactly, rounding included.
    fn exchange(
        &mut self,
        end: f64,
        tx_row: &[Option<SyncSender<Batch<R::State>>>],
        rx_row: &[Option<Receiver<Batch<R::State>>>],
    ) -> Result<(), Option<SimError>> {
        for (to, tx) in tx_row.iter().enumerate() {
            if let Some(tx) = tx {
                let batch = std::mem::take(&mut self.outboxes[to]);
                tx.send(batch).map_err(|_| None)?;
            }
        }
        let mut incoming: Batch<R::State> = Vec::new();
        for rx in rx_row.iter().flatten() {
            incoming.extend(rx.recv().map_err(|_| None)?);
        }
        // Stable sort on time: ties keep (sender, emission) order, which
        // is identical on every rerun.
        incoming.sort_by(|a, b| a.time.total_cmp(&b.time));
        if let Some(first) = incoming.first() {
            assert!(
                first.time >= end,
                "shard {}: a handoff at t = {} landed before the window end {end}",
                self.me,
                first.time
            );
        }
        for m in incoming {
            let pid = self.alloc(m.packet);
            self.queue
                .schedule(m.time, Ev::Handoff { pid, node: m.node });
        }
        Ok(())
    }

    /// Closes the queue integrals at the horizon and hands back what the
    /// merge needs.
    fn finish(mut self) -> ShardOut {
        let horizon = self.sc.horizon;
        let queue_integrals = self.sc.track_edge_queues.then(|| {
            self.edges
                .iter()
                .zip(self.qtrack.iter_mut())
                .map(|(e, tq)| {
                    qtick(tq, e.qlen, horizon);
                    tq.integral
                })
                .collect()
        });
        ShardOut {
            obs: self.obs,
            events: self.events,
            queue_integrals,
            recorder: self.recorder,
        }
    }
}

/// Runs `sim` on the shard count its scenario's engine names (clamped to
/// `[1, num_nodes]`): partitions the topology, runs shard 0 on the calling
/// thread and every other shard on a thread of its own, and merges the
/// per-shard statistics into one [`SimResult`].
///
/// # Errors
///
/// Shard-local [`SimError`]s, collected through the barrier protocol
/// rather than unwinding across worker threads.
///
/// # Panics
///
/// Panics only when a shard itself panics (the panic is propagated).
pub(crate) fn run<T, R, D>(sim: &NetworkSim<'_, T, R, D>) -> Result<SimResult, SimError>
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    let shards = match sim.sc.engine {
        EngineSpec::Auto => 1,
        EngineSpec::Sharded { shards } => shards,
    };
    let part = Partition::contiguous(&sim.topo, shards);
    let k = part.shards();
    // Epoch `j` covers event times `[w_j, w_{j+1})` where the window ends
    // come from the fault-aware lookahead schedule; the final epoch is
    // unbounded and terminates on the horizon. All handoffs emitted during
    // the final epoch would land past the horizon (their send time is
    // within Δ of it), so it needs no exchange.
    let windows = if part.cut_edges().is_empty() {
        // No cross-shard traffic (one shard): one unbounded epoch, no
        // barriers, whatever the fault plan says.
        vec![f64::INFINITY]
    } else {
        window_ends(
            part.cut_edges(),
            |e| 1.0 / sim.service_rate(e.index()),
            &sim.fault_plan,
            sim.sc.horizon,
        )
    };
    let service = match (sim.sc.service, &sim.sc.service_rates) {
        (ServiceKind::Deterministic, None) => ServiceTime::Unit,
        _ => ServiceTime::Sampled,
    };

    // Shard-local source lists, preserving global order. The global index
    // rides along for positional per-source rate lookup.
    let mut source_lists: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); k];
    for (i, &src) in sim.sources.iter().enumerate() {
        source_lists[part.node_shard(src)].push((i as u32, src));
    }

    // The full k×k channel mesh. `txs[from][to]` / `rxs[to][from]`; the
    // diagonal stays `None`.
    let mut txs: Vec<TxRow<R::State>> = (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    let mut rxs: Vec<RxRow<R::State>> = (0..k).map(|_| (0..k).map(|_| None).collect()).collect();
    for from in 0..k {
        for to in 0..k {
            if from != to {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                txs[from][to] = Some(tx);
                rxs[to][from] = Some(rx);
            }
        }
    }

    let (sim_ref, part_ref) = (sim, &part);
    let (sources_ref, windows_ref) = (&source_lists, &windows);
    let shard = move |me: usize, tx_row: TxRow<R::State>, rx_row: RxRow<R::State>| {
        Shard::new(sim_ref, part_ref, service, me, &sources_ref[me]).run(
            windows_ref,
            &tx_row,
            &rx_row,
        )
    };
    let results: Vec<Result<ShardOut, Option<SimError>>> = std::thread::scope(|scope| {
        let mut rows = txs.into_iter().zip(rxs);
        let (tx0, rx0) = rows.next().expect("a partition has at least one shard");
        let peers: Vec<_> = rows
            .enumerate()
            .map(|(i, (tx_row, rx_row))| scope.spawn(move || shard(i + 1, tx_row, rx_row)))
            .collect();
        // Shard 0 runs here, so a single-shard run spawns no thread.
        let first = shard(0, tx0, rx0);
        std::iter::once(first)
            .chain(peers.into_iter().map(|h| match h.join() {
                Ok(r) => r,
                // A shard panicked; its channels dropped on unwind, so the
                // peers have already bailed out. Re-raise the panic.
                Err(payload) => std::panic::resume_unwind(payload),
            }))
            .collect()
    });

    let mut outs: Vec<ShardOut> = Vec::with_capacity(k);
    let mut first_err: Option<SimError> = None;
    for r in results {
        match r {
            Ok(o) => outs.push(o),
            Err(Some(e)) => {
                first_err.get_or_insert(e);
            }
            // Peer-died sentinel: some other shard carries the real error.
            Err(None) => {}
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    assert_eq!(outs.len(), k, "a shard aborted without reporting an error");

    Ok(merge(sim, &part, outs))
}

/// The epoch cutoffs of the conservative window protocol, fault-aware.
///
/// Each window's lookahead Δ is the minimum service time over the cut
/// edges **live during that window** (a dead edge starts no service, so
/// it cannot emit a handoff), and windows never straddle a fault event —
/// liveness transitions land exactly on epoch boundaries, where every
/// shard recomputes the same Δ from the same plan. The final entry is
/// `∞`: the last epoch runs to the horizon without a barrier.
///
/// `cut` is ascending ([`Partition::cut_edges`]); `service_time` gives a
/// cut edge's deterministic service time.
fn window_ends(
    cut: &[EdgeId],
    service_time: impl Fn(EdgeId) -> f64,
    plan: &FaultPlan,
    horizon: f64,
) -> Vec<f64> {
    // Liveness of `cut[i]`. Δ changes only when a cut edge's liveness
    // does, so it is recomputed only at those window starts.
    let mut live = vec![true; cut.len()];
    let lookahead = |live: &[bool]| {
        cut.iter()
            .zip(live)
            .filter(|&(_, &up)| up)
            .map(|(&e, _)| service_time(e))
            .fold(f64::INFINITY, f64::min)
    };
    let mut delta = lookahead(&live);
    let mut ends = Vec::new();
    let mut start = 0.0f64;
    let mut idx = 0;
    loop {
        // Apply every transition at or before the window start; what's
        // left of the plan is strictly inside or past this window.
        let mut flipped = false;
        while idx < plan.events.len() && plan.events[idx].time <= start {
            let fe = &plan.events[idx];
            if let Ok(i) = cut.binary_search(&fe.edge) {
                flipped |= live[i] != fe.up;
                live[i] = fe.up;
            }
            idx += 1;
        }
        if flipped {
            delta = lookahead(&live);
        }
        let next_fault = plan.events.get(idx).map_or(f64::INFINITY, |fe| fe.time);
        let end = (start + delta).min(next_fault);
        if !end.is_finite() || end > horizon {
            ends.push(f64::INFINITY);
            return ends;
        }
        ends.push(end);
        start = end;
    }
}

/// Merges per-shard outputs into one [`SimResult`] — the run's one result
/// assembly. Per-edge figures are read in global edge order from each
/// edge's owning shard, so no global per-edge vector is materialized
/// beyond what the result itself carries.
fn merge<T, R, D>(
    sim: &NetworkSim<'_, T, R, D>,
    part: &Partition,
    mut outs: Vec<ShardOut>,
) -> SimResult
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    let sc = sim.sc;
    let measure_time = (sc.horizon - sc.warmup).max(f64::MIN_POSITIVE);

    // Per-shard telemetry recorders merge deterministically in shard
    // order: all shards ran the identical probe tick schedule, so shared
    // series combine sample-by-sample (sum/max) and per-shard series
    // concatenate.
    let recorders: Vec<Recorder> = outs.iter_mut().filter_map(|o| o.recorder.take()).collect();
    let telemetry = (!recorders.is_empty()).then(|| Recorder::merge(recorders).into_report());

    let mut delay = Welford::new();
    let mut n_integral = 0.0;
    let mut r_integral = 0.0;
    let mut rs_integral = 0.0;
    let mut final_n = 0.0;
    let mut peak_n = 0.0;
    let mut generated = 0u64;
    let mut completed = 0u64;
    let mut dropped = DropCounts::default();
    let mut events_processed = 0u64;
    for o in &outs {
        delay.merge(&o.obs.delay);
        n_integral += o.obs.n_sys.integral(sc.horizon);
        r_integral += o.obs.r_total.integral(sc.horizon);
        rs_integral += o.obs.rs_total.integral(sc.horizon);
        final_n += o.obs.n_sys.value();
        peak_n += o.obs.n_sys.peak();
        generated += o.obs.generated;
        completed += o.obs.completed;
        dropped.merge(&o.obs.dropped);
        events_processed += o.events;
    }
    let time_avg_n = n_integral / measure_time;
    let time_avg_r = r_integral / measure_time;
    let time_avg_rs = rs_integral / measure_time;
    let throughput = completed as f64 / measure_time;

    // Per-edge tallies by global edge index, from the owning shard.
    let num_edges = sim.topo.num_edges();
    let owner = |ei: usize| {
        let e = EdgeId(ei as u32);
        let s = part.edge_shard(e);
        (&outs[s], part.edge_local(s, e))
    };
    let edge_rate = |ei: usize| {
        let (o, le) = owner(ei);
        o.obs.edge_services[le] as f64 / measure_time
    };
    let max_util = (0..num_edges)
        .map(|ei| {
            let (o, le) = owner(ei);
            o.obs.edge_busy[le]
        })
        .fold(0.0f64, f64::max)
        / measure_time;
    let mut rates = Welford::new();
    for ei in 0..num_edges {
        rates.push(edge_rate(ei));
    }

    let quantiles = sc.delay_quantiles.then(|| {
        let mut merged = Reservoir::new(RESERVOIR_CAPACITY, sim.seed ^ 0x5EED);
        for o in &outs {
            if let Some(r) = &o.obs.delay_sample {
                for &x in r.samples() {
                    merged.push(x);
                }
            }
        }
        merged
    });

    let edge_mean_queue = sc.track_edge_queues.then(|| {
        (0..num_edges)
            .map(|ei| {
                let (o, le) = owner(ei);
                let integrals = o
                    .queue_integrals
                    .as_ref()
                    .expect("queue integrals tracked on every shard");
                integrals[le] / measure_time
            })
            .collect()
    });

    SimResult {
        avg_delay: delay.mean(),
        delay_std_err: delay.standard_error(),
        generated,
        completed,
        dropped,
        delivered_fraction: if generated > 0 {
            completed as f64 / generated as f64
        } else {
            0.0
        },
        time_avg_n,
        time_avg_r,
        time_avg_rs,
        r_ratio: if time_avg_n > 0.0 {
            time_avg_r / time_avg_n
        } else {
            0.0
        },
        rs_ratio: if time_avg_n > 0.0 {
            time_avg_rs / time_avg_n
        } else {
            0.0
        },
        little_delay: if throughput > 0.0 {
            time_avg_n / throughput
        } else {
            0.0
        },
        max_edge_utilization: max_util,
        edge_throughput: if num_edges <= STREAMING_STATS_MAX_EDGES {
            (0..num_edges).map(edge_rate).collect()
        } else {
            Vec::new()
        },
        edge_throughput_stats: EdgeThroughputStats {
            edges: num_edges,
            mean: rates.mean(),
            max: rates.max(),
            std_dev: rates.sample_variance().sqrt(),
        },
        final_n,
        peak_n,
        measure_time,
        events_processed,
        delay_p50: quantiles.as_ref().and_then(|r| r.quantile(0.5)),
        delay_p95: quantiles.as_ref().and_then(|r| r.quantile(0.95)),
        delay_p99: quantiles.as_ref().and_then(|r| r.quantile(0.99)),
        edge_mean_queue,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::EngineSpec;
    use crate::network::SimResult;
    use crate::{Load, Scenario};

    fn mesh(engine: EngineSpec) -> Scenario {
        Scenario::mesh(5)
            .load(Load::Lambda(0.15))
            .horizon(800.0)
            .warmup(80.0)
            .seed(9)
            .engine(engine)
    }

    fn run(engine: EngineSpec) -> SimResult {
        mesh(engine)
            .delay_quantiles(true)
            .track_edge_queues(true)
            .run()
    }

    fn assert_bits(a: &SimResult, b: &SimResult) {
        assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
        assert_eq!(a.delay_std_err.to_bits(), b.delay_std_err.to_bits());
        assert_eq!(a.time_avg_n.to_bits(), b.time_avg_n.to_bits());
        assert_eq!(a.time_avg_r.to_bits(), b.time_avg_r.to_bits());
        assert_eq!(a.final_n.to_bits(), b.final_n.to_bits());
        assert_eq!(a.peak_n.to_bits(), b.peak_n.to_bits());
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.delay_p50, b.delay_p50);
        assert_eq!(a.delay_p99, b.delay_p99);
        assert_eq!(a.edge_mean_queue, b.edge_mean_queue);
        assert_eq!(a.edge_throughput, b.edge_throughput);
    }

    /// `auto` is the calendar-queue engine at `k = 1`; `sharded:1` must be
    /// the same run.
    #[test]
    fn one_shard_reproduces_the_calendar_engine_bit_for_bit() {
        let auto = run(EngineSpec::Auto);
        let sharded = run(EngineSpec::Sharded { shards: 1 });
        assert_bits(&auto, &sharded);
    }

    #[test]
    fn reruns_are_bit_identical_at_every_shard_count() {
        for shards in [2, 3, 4, 7] {
            let a = run(EngineSpec::Sharded { shards });
            let b = run(EngineSpec::Sharded { shards });
            assert_bits(&a, &b);
        }
    }

    #[test]
    fn sharded_runs_agree_statistically_with_the_oracle() {
        let oracle = run(EngineSpec::Auto);
        let sharded = run(EngineSpec::Sharded { shards: 4 });
        // Different RNG decomposition ⇒ different sample path; physics
        // must still match within loose Monte-Carlo noise.
        let rel = (sharded.avg_delay - oracle.avg_delay).abs() / oracle.avg_delay;
        assert!(rel < 0.10, "delay off by {rel:.3}");
        assert!(sharded.completed > 0);
        assert!(sharded.completed <= sharded.generated);
        // Conservation: every serviced hop is someone's remaining work.
        assert!(sharded.r_ratio > 0.9 && sharded.r_ratio < oracle.r_ratio * 1.2);
    }

    #[test]
    fn shard_count_beyond_node_count_is_clamped_and_deterministic() {
        let a = run(EngineSpec::Sharded { shards: 64 });
        let b = run(EngineSpec::Sharded { shards: 64 });
        assert_bits(&a, &b);
        assert!(a.completed > 0);
    }

    fn run_faulted(engine: EngineSpec) -> SimResult {
        use crate::fault::FaultSpec;
        mesh(engine).faults(FaultSpec::links(0.2).at(100.0)).run()
    }

    #[test]
    fn faulted_sharded_runs_are_bit_identical_and_drop_packets() {
        for shards in [1, 2, 3] {
            let a = run_faulted(EngineSpec::Sharded { shards });
            let b = run_faulted(EngineSpec::Sharded { shards });
            assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
            assert_eq!(a.generated, b.generated);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.dropped, b.dropped);
            assert_eq!(a.events_processed, b.events_processed);
            assert!(a.dropped.total() > 0, "{shards} shards saw no drops");
            assert!(a.delivered_fraction < 1.0);
            assert!(a.completed > 0);
        }
    }

    #[test]
    fn faulted_one_shard_matches_the_calendar_engine_bit_for_bit() {
        let auto = run_faulted(EngineSpec::Auto);
        let sharded = run_faulted(EngineSpec::Sharded { shards: 1 });
        assert_eq!(auto.avg_delay.to_bits(), sharded.avg_delay.to_bits());
        assert_eq!(auto.generated, sharded.generated);
        assert_eq!(auto.completed, sharded.completed);
        assert_eq!(auto.dropped, sharded.dropped);
    }

    /// Δ is the fastest live cut edge's service time, recomputed where a
    /// transition flips a cut edge; every fault time, cut edge or not, is
    /// a window end.
    #[test]
    fn window_ends_follow_cut_edge_liveness() {
        use super::window_ends;
        use crate::fault::{FaultEvent, FaultPlan};
        use meshbound_topology::EdgeId;
        let cut = [EdgeId(1), EdgeId(3)];
        let service_time = |e: EdgeId| if e == EdgeId(3) { 0.5 } else { 1.0 };
        let event = |time, edge, up| FaultEvent {
            time,
            edge: EdgeId(edge),
            up,
        };
        let plan = FaultPlan {
            events: vec![
                event(1.25, 0, false),
                event(2.0, 3, false),
                event(4.0, 3, true),
            ],
            down_edges: vec![EdgeId(0), EdgeId(3)],
        };
        let ends = window_ends(&cut, service_time, &plan, 5.0);
        let expected = [0.5, 1.0, 1.25, 1.75, 2.0, 3.0, 4.0, 4.5, 5.0, f64::INFINITY];
        assert_eq!(ends, expected);
        let healthy = window_ends(&cut, service_time, &FaultPlan::default(), 1.2);
        assert_eq!(healthy, [0.5, 1.0, f64::INFINITY]);
    }

    #[test]
    fn faulted_sharded_runs_agree_statistically_with_the_oracle() {
        let oracle = run_faulted(EngineSpec::Auto);
        let sharded = run_faulted(EngineSpec::Sharded { shards: 2 });
        assert!(sharded.dropped.total() > 0);
        let rel = (sharded.delivered_fraction - oracle.delivered_fraction).abs()
            / oracle.delivered_fraction;
        assert!(rel < 0.10, "delivered fraction off by {rel:.3}");
    }
}
