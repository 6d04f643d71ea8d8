//! The packet-level FIFO network (the paper's standard model and its
//! Jackson variant): the description of one run, and the result it
//! produces.
//!
//! Each directed edge is a server with its own FIFO queue and service rate.
//! Packets are generated at source nodes by Poisson processes (or in batch
//! at slot boundaries in slotted mode, §5.2), routed hop by hop by a
//! [`Router`], and leave the system on reaching their destination.
//!
//! [`Scenario`]'s one dispatch builds each run's description, `NetworkSim`:
//! the concrete topology, router and destination sampler, the sources and
//! their rates, the saturated-edge mask and the fault plan, next to the
//! validated scenario itself, the resolved λ and the replication seed. The
//! one engine in [`crate::shard`] runs it ([`Scenario::run`]), and so do
//! the comparison networks in [`crate::ps`] ([`Scenario::run_ps`]) and
//! [`crate::copysys`] ([`Scenario::run_copies`]).

use crate::fault::{DropCounts, FaultPlan};
use crate::scenario::Scenario;
use crate::telemetry::TelemetryReport;
use meshbound_queueing::remaining::saturated_edges;
use meshbound_routing::dest::DestSampler;
use meshbound_routing::pattern::PatternTopology;
use meshbound_routing::{Router, ZeroView};
use meshbound_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// Aggregated output of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Mean packet delay `T` (generation → delivery), zero-distance packets
    /// included when configured.
    pub avg_delay: f64,
    /// Standard error of the delay mean (per-packet, correlated — use
    /// replications for honest intervals).
    pub delay_std_err: f64,
    /// Packets generated after warmup.
    pub generated: u64,
    /// Packets delivered that were generated after warmup.
    pub completed: u64,
    /// Packets dropped by the fault machinery, tallied by cause. All-zero
    /// on a healthy run — nothing drops without a fault plan.
    pub dropped: DropCounts,
    /// `completed / generated`: the fraction of the measured offered load
    /// that was delivered (the rest dropped or was still in flight at the
    /// horizon). Zero when nothing was generated.
    pub delivered_fraction: f64,
    /// Time-averaged number in system `E[N]`.
    pub time_avg_n: f64,
    /// Time-averaged remaining services `E[R]` (Table II numerator).
    pub time_avg_r: f64,
    /// Time-averaged remaining saturated services `E[R_s]` (Table III).
    pub time_avg_rs: f64,
    /// `r = E[R]/E[N]`.
    pub r_ratio: f64,
    /// `r_s = E[R_s]/E[N]`.
    pub rs_ratio: f64,
    /// Little's-law delay `E[N] / throughput` — should agree with
    /// `avg_delay` when the run is long enough.
    pub little_delay: f64,
    /// Highest per-edge busy fraction observed.
    pub max_edge_utilization: f64,
    /// Per-edge empirical service throughput (completions per unit time).
    /// Materialized only up to
    /// [`STREAMING_STATS_MAX_EDGES`](crate::engine::STREAMING_STATS_MAX_EDGES)
    /// edges; above that scale the vector is empty and
    /// [`SimResult::edge_throughput_stats`] carries the streaming summary
    /// instead.
    pub edge_throughput: Vec<f64>,
    /// Streaming (Welford) summary of the per-edge service throughput —
    /// always present, and the only per-edge throughput view at scales
    /// where the full vector is not materialized.
    pub edge_throughput_stats: EdgeThroughputStats,
    /// `N(t)` at the horizon (large values flag instability).
    pub final_n: f64,
    /// Peak `N(t)` observed.
    pub peak_n: f64,
    /// Measurement window length (horizon − warmup).
    pub measure_time: f64,
    /// Future-event-list events processed over the whole run (arrivals,
    /// departures, slot/warmup/fault ticks). Deterministic given the
    /// seed. With more than one shard every shard replays the ticks and
    /// each cross-shard packet transfer adds one handoff event, so the
    /// count is comparable only across runs of the same
    /// `(seed, shards)` pair.
    pub events_processed: u64,
    /// Median delay, when `delay_quantiles` was enabled.
    pub delay_p50: Option<f64>,
    /// 95th-percentile delay, when `delay_quantiles` was enabled.
    pub delay_p95: Option<f64>,
    /// 99th-percentile delay, when `delay_quantiles` was enabled.
    pub delay_p99: Option<f64>,
    /// Per-edge time-averaged queue length (including the packet in
    /// service), when `track_edge_queues` was enabled.
    pub edge_mean_queue: Option<Vec<f64>>,
    /// Flight-recorder telemetry, when [`Scenario::probes`] was set.
    /// Purely additive: every other field is bit-identical to the same
    /// run with probes off.
    pub telemetry: Option<TelemetryReport>,
}

/// Streaming cross-edge summary of per-edge service throughput, computed
/// with a single Welford pass so it costs O(1) memory however many edges
/// the topology has. Deterministic given the seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeThroughputStats {
    /// Number of edges summarized.
    pub edges: usize,
    /// Mean per-edge throughput (completions per unit time).
    pub mean: f64,
    /// Largest per-edge throughput.
    pub max: f64,
    /// Sample standard deviation across edges (0 with fewer than 2 edges).
    pub std_dev: f64,
}

/// A structural failure inside a simulation run: a router/topology
/// contract violation on a *healthy* topology. Greedy routers are total
/// there; under a fault plan an unroutable packet becomes an accounted drop
/// instead. [`Scenario::run`] panics on it, and [`Scenario::try_run`]
/// surfaces it as [`ScenarioError::Sim`](crate::ScenarioError::Sim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The router produced no next edge at `node` for a packet destined
    /// for `dst` on a healthy topology.
    RouterStalled {
        /// Node the packet was stranded at.
        node: NodeId,
        /// The packet's destination.
        dst: NodeId,
        /// Type name of the offending router.
        router: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SimError::RouterStalled { node, dst, router } = self;
        write!(
            f,
            "router {router} stalled at {node} before reaching destination {dst}"
        )
    }
}

impl std::error::Error for SimError {}

/// A [`SimError::RouterStalled`] for a packet stuck at `node` heading for
/// `dst` under router `R`, named by its short type name (the last path
/// segment).
pub(crate) fn stall<R: ?Sized>(node: NodeId, dst: NodeId) -> SimError {
    let full = std::any::type_name::<R>();
    SimError::RouterStalled {
        node,
        dst,
        router: full.rsplit("::").next().unwrap_or(full),
    }
}

/// One run of a validated [`Scenario`]: the concrete network its dispatch
/// built, with the λ and seed of this run. Every other setting is read from
/// `sc`.
pub(crate) struct NetworkSim<'a, T, R, D> {
    pub(crate) sc: &'a Scenario,
    /// Mean per-source Poisson rate λ.
    pub(crate) lambda: f64,
    /// Master seed of this run: the scenario's, or a replication's.
    pub(crate) seed: u64,
    pub(crate) topo: T,
    pub(crate) router: R,
    pub(crate) dest: D,
    pub(crate) sources: Vec<NodeId>,
    /// Per-source Poisson rates, positional with `sources` (`None` = every
    /// source at `lambda`, the scalar path).
    pub(crate) source_rates: Option<Vec<f64>>,
    /// Saturated-edge mask; empty unless saturated edges are tracked.
    pub(crate) sat_edge: Vec<bool>,
    /// Materialized failure timeline ([`FaultPlan::is_empty`] = healthy
    /// run on the exact pre-fault code path).
    pub(crate) fault_plan: FaultPlan,
}

/// A network simulated over a run description: the FIFO engine or one of
/// the comparison networks.
pub(crate) trait System {
    type Output;

    fn simulate<T, R, D>(self, sim: &NetworkSim<'_, T, R, D>) -> Result<Self::Output, SimError>
    where
        T: Topology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync;
}

/// The FIFO network, run by the engine in [`crate::shard`].
pub(crate) struct Fifo;

impl System for Fifo {
    type Output = SimResult;

    fn simulate<T, R, D>(self, sim: &NetworkSim<'_, T, R, D>) -> Result<SimResult, SimError>
    where
        T: Topology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync,
    {
        crate::shard::run(sim)
    }
}

impl<'a, T, R, D> NetworkSim<'a, T, R, D>
where
    T: Topology + Sync,
    R: Router<T> + Sync,
    D: DestSampler<T> + Sync,
{
    /// The run of `sc` at `lambda` and `seed` on `topo`, routed by `router`
    /// to destinations drawn from `dest`. `sources` = `None` makes every
    /// node a source. The fault plan is drawn from `seed`.
    pub(crate) fn new(
        sc: &'a Scenario,
        lambda: f64,
        seed: u64,
        topo: T,
        router: R,
        dest: D,
        sources: Option<Vec<NodeId>>,
    ) -> Self
    where
        T: PatternTopology,
    {
        let fault_plan = sc.faults.as_ref().map_or_else(FaultPlan::default, |spec| {
            FaultPlan::materialize(spec, seed, &topo)
        });
        // Figure 2 defines the saturated edge classes on square meshes only.
        let sat = match topo.as_mesh() {
            Some(mesh) if sc.track_saturated && mesh.is_square() => saturated_edges(mesh),
            _ => Vec::new(),
        };
        let mut sat_edge = vec![false; if sat.is_empty() { 0 } else { topo.num_edges() }];
        for e in sat {
            sat_edge[e.index()] = true;
        }
        let source_rates = sc
            .source_weights()
            .map(|weights| weights.into_iter().map(|w| w * lambda).collect());
        Self {
            sc,
            lambda,
            seed,
            sources: sources.unwrap_or_else(|| topo.nodes().collect()),
            topo,
            router,
            dest,
            source_rates,
            sat_edge,
            fault_plan,
        }
    }

    /// The Poisson rate of source `i` (by position in the source list).
    #[inline]
    pub(crate) fn source_rate(&self, i: usize) -> f64 {
        match &self.source_rates {
            Some(r) => r[i],
            None => self.lambda,
        }
    }

    /// The service rate of edge `e` (by global index).
    #[inline]
    pub(crate) fn service_rate(&self, e: usize) -> f64 {
        match &self.sc.service_rates {
            Some(r) => r[e],
            None => 1.0,
        }
    }

    /// Whether edge `e` (by global index) is a tracked saturated edge.
    #[inline]
    pub(crate) fn is_saturated(&self, e: usize) -> bool {
        !self.sat_edge.is_empty() && self.sat_edge[e]
    }

    /// Saturated hops along the *canonical* (empty-network) route — the
    /// zero-view walk, which coincides with the actual route for oblivious
    /// routers and is the conventional reference path for adaptive ones.
    /// Zero, without a walk, when no saturated edges are tracked.
    pub(crate) fn count_saturated_on_route(
        &self,
        src: NodeId,
        dst: NodeId,
        state: R::State,
    ) -> usize {
        if self.sat_edge.is_empty() {
            return 0;
        }
        let mut count = 0;
        let mut cur = src;
        while let Some(e) = self.router.next_hop(&self.topo, cur, dst, state, &ZeroView) {
            if self.sat_edge[e.index()] {
                count += 1;
            }
            cur = self.topo.edge_target(e);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineSpec;
    use crate::fault::FaultSpec;
    use crate::service::ServiceKind;
    use crate::telemetry::ProbeSpec;
    use crate::{Load, ScenarioError};
    use meshbound_topology::Mesh2D;

    /// An `n × n` mesh at `lambda`, run over `[0, horizon]` with the given
    /// warmup and seed.
    fn mesh(n: usize, lambda: f64, (horizon, warmup): (f64, f64), seed: u64) -> Scenario {
        Scenario::mesh(n)
            .load(Load::Lambda(lambda))
            .horizon(horizon)
            .warmup(warmup)
            .seed(seed)
    }

    fn tiny() -> Scenario {
        mesh(4, 0.05, (500.0, 50.0), 3)
    }

    #[test]
    fn light_load_delay_near_mean_distance() {
        let res = mesh(5, 0.001, (40_000.0, 100.0), 3).run();
        // At vanishing load every hop costs exactly 1: T → n̄ = 3.2.
        let n_bar = Mesh2D::square(5).mean_distance();
        assert!(
            (res.avg_delay - n_bar).abs() < 0.15,
            "delay {}",
            res.avg_delay
        );
    }

    #[test]
    fn littles_law_holds_in_simulation() {
        let res = mesh(5, 0.1, (20_000.0, 1_000.0), 3).run();
        // With self-packets included on both sides, Little's law gives
        // avg_delay = E[N] / (total throughput incl. zero-distance packets):
        // zero-distance packets contribute 0 to both the N-integral and the
        // delay sum while inflating the throughput denominator equally.
        assert!(
            (res.avg_delay - res.little_delay).abs() < 0.12,
            "delay {} vs little {}",
            res.avg_delay,
            res.little_delay
        );
    }

    #[test]
    fn zero_distance_packets_counted_when_enabled() {
        let sc = mesh(3, 0.02, (5_000.0, 0.0), 3);
        let with = sc.run();
        let without = sc.include_self_packets(false).run();
        // Excluding zero-delay packets raises the average delay.
        assert!(without.avg_delay > with.avg_delay);
    }

    #[test]
    fn edge_throughput_matches_thm6_rates() {
        let lambda = 0.2;
        let res = mesh(4, lambda, (50_000.0, 1_000.0), 11).run();
        let mesh = Mesh2D::square(4);
        let expect = meshbound_routing::rates::mesh_thm6_rates(&mesh, lambda);
        for e in mesh.edges() {
            let got = res.edge_throughput[e.index()];
            let want = expect[e.index()];
            assert!(
                (got - want).abs() < 0.05 * want.max(0.05),
                "edge {e}: throughput {got} vs Theorem 6 rate {want}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny().run();
        let b = tiny().run();
        assert_eq!(a.avg_delay, b.avg_delay);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.time_avg_n, b.time_avg_n);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny().run();
        let b = tiny().seed(999).run();
        assert_ne!(a.avg_delay, b.avg_delay);
    }

    /// The heart of the engine contract: `auto` and `sharded:1` are one
    /// run, bit for bit — on the plain workload and with every expensive
    /// tracking option turned on at once.
    #[test]
    fn engines_are_bit_identical() {
        for fancy in [false, true] {
            let base = mesh(4, 0.2, (2_000.0, 200.0), 21)
                .track_edge_queues(fancy)
                .delay_quantiles(fancy)
                .track_saturated(fancy)
                .service(if fancy {
                    ServiceKind::Exponential
                } else {
                    ServiceKind::Deterministic
                })
                .service_rates(vec![1.25; 48]);
            let auto = base.clone().run();
            let one = base.engine(EngineSpec::Sharded { shards: 1 }).run();
            assert_eq!(auto.avg_delay.to_bits(), one.avg_delay.to_bits());
            assert_eq!(auto.generated, one.generated);
            assert_eq!(auto.completed, one.completed);
            assert_eq!(auto.time_avg_n.to_bits(), one.time_avg_n.to_bits());
            assert_eq!(auto.time_avg_rs.to_bits(), one.time_avg_rs.to_bits());
            assert_eq!(auto.events_processed, one.events_processed);
            assert_eq!(auto.delay_p99, one.delay_p99);
            assert_eq!(auto.edge_mean_queue, one.edge_mean_queue);
            assert!(auto.events_processed > 0);
        }
    }

    #[test]
    fn slotted_mode_close_to_continuous() {
        let cont = mesh(5, 0.1, (30_000.0, 1_000.0), 5);
        let slot = cont.clone().slot(1.0).run();
        let cont = cont.run();
        // §5.2: the slotted average is within τ of the continuous one
        // (plus simulation noise).
        assert!(
            (slot.avg_delay - cont.avg_delay).abs() < 1.0 + 0.3,
            "slotted {} vs continuous {}",
            slot.avg_delay,
            cont.avg_delay
        );
    }

    #[test]
    fn saturated_tracking_counts_central_edges() {
        let res = mesh(4, 0.2, (10_000.0, 500.0), 4)
            .track_saturated(true)
            .run();
        assert!(res.time_avg_rs > 0.0);
        assert!(res.rs_ratio > 0.0 && res.rs_ratio < res.r_ratio);
    }

    #[test]
    fn variable_service_rates_speed_up_network() {
        let slow = mesh(4, 0.15, (20_000.0, 1_000.0), 6);
        let fast = slow.clone().service_rates(vec![2.0; 48]).run();
        let slow = slow.run();
        assert!(
            fast.avg_delay < slow.avg_delay * 0.7,
            "fast {} vs slow {}",
            fast.avg_delay,
            slow.avg_delay
        );
    }

    /// The structured stall error: a router that refuses to route
    /// surfaces the stuck (node, dst, router) triple as a `SimError`
    /// value.
    #[test]
    fn router_stall_reports_the_stuck_triple() {
        use meshbound_routing::dest::UniformDest;
        use meshbound_topology::EdgeId;
        use rand::rngs::SmallRng;

        /// A router that always stalls.
        struct Stuck;
        impl<T: Topology> Router<T> for Stuck {
            type State = ();
            fn init_state(&self, _: &T, _: NodeId, _: NodeId, _: &mut SmallRng) {}
            fn next_edge(&self, _: &T, _: NodeId, _: NodeId, (): ()) -> Option<EdgeId> {
                None
            }
            fn remaining_hops(&self, _: &T, _: NodeId, _: NodeId, (): ()) -> usize {
                1
            }
        }

        let sc = mesh(3, 0.5, (100.0, 0.0), 1);
        let sim = NetworkSim::new(
            &sc,
            0.5,
            sc.seed,
            Mesh2D::square(3),
            Stuck,
            UniformDest,
            None,
        );
        let err = Fifo.simulate(&sim).unwrap_err();
        let SimError::RouterStalled { node, dst, router } = &err;
        assert_ne!(node, dst);
        assert_eq!(*router, "Stuck");
        let msg = err.to_string();
        assert!(msg.contains("Stuck") && msg.contains("stalled"), "{msg}");
    }

    /// Destinations drawn through the Lemma 3 chain reproduce the
    /// uniform-destination run statistically: same delay within noise
    /// (Corollary 4 made executable end to end).
    #[test]
    fn lemma3_destinations_reproduce_uniform_simulation() {
        use meshbound_routing::dest::Lemma3Dest;
        use meshbound_routing::GreedyXY;
        let sc = mesh(5, 0.3, (10_000.0, 1_000.0), 11);
        let uniform = sc.run();
        let sim = NetworkSim::new(
            &sc,
            0.3,
            sc.seed,
            Mesh2D::square(5),
            GreedyXY,
            Lemma3Dest,
            None,
        );
        let lemma3 = Fifo.simulate(&sim).unwrap();
        let rel = (uniform.avg_delay - lemma3.avg_delay).abs() / uniform.avg_delay;
        assert!(
            rel < 0.05,
            "uniform {} vs Lemma 3 chain {}",
            uniform.avg_delay,
            lemma3.avg_delay
        );
    }

    /// A fault plan turns unroutable packets into accounted drops — the
    /// run completes, attributes every loss to a cause, and `auto` and
    /// `sharded:1` stay the same run.
    #[test]
    fn fault_plan_drops_packets_instead_of_stalling() {
        let sc = mesh(4, 0.2, (2_000.0, 100.0), 9).faults(FaultSpec::links(0.2));
        let auto = sc.run();
        assert!(auto.dropped.total() > 0, "{:?}", auto.dropped);
        assert!(auto.delivered_fraction < 1.0);
        assert!(auto.completed > 0, "some pairs must survive 20% link loss");
        let one = sc.engine(EngineSpec::Sharded { shards: 1 }).run();
        assert_eq!(auto.avg_delay.to_bits(), one.avg_delay.to_bits());
        assert_eq!(auto.dropped, one.dropped);
        assert_eq!(auto.completed, one.completed);
        assert_eq!(auto.events_processed, one.events_processed);
    }

    /// A repaired network resumes delivering: with failures confined to
    /// `[50, 250)`, more packets complete than under permanent failures.
    #[test]
    fn repairs_restore_delivery() {
        let sc = mesh(4, 0.15, (4_000.0, 0.0), 12);
        let forever = FaultSpec::links(0.25).at(50.0);
        let broken = sc.clone().faults(forever.clone()).run();
        let healed = sc.faults(forever.repair(200.0)).run();
        assert!(
            healed.delivered_fraction > broken.delivered_fraction,
            "healed {} vs broken {}",
            healed.delivered_fraction,
            broken.delivered_fraction
        );
        assert!(healed.dropped.total() < broken.dropped.total());
    }

    /// `N(t)` is sampled by the `nsys` probe.
    #[test]
    fn n_sampling_produces_trajectory() {
        let probes = ProbeSpec::parse_token("nsys@10").unwrap().unwrap();
        let res = mesh(4, 0.1, (100.0, 0.0), 1).probes(probes).run();
        let telemetry = res.telemetry.expect("probed run");
        let nsys = &telemetry.series[0];
        assert_eq!(nsys.name, "nsys");
        assert!(nsys.samples.len() >= 9);
        for w in nsys.samples.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    /// A slot width the event loop cannot step by is a typed error from
    /// `Scenario::validate`, on one shard and on two.
    #[test]
    fn nonpositive_slot_width_is_an_unsupported_config() {
        for slot in [0.0, -1.0, f64::NAN] {
            for shards in [1, 2] {
                let sc = Scenario::mesh(3)
                    .slot(slot)
                    .engine(EngineSpec::Sharded { shards });
                let err = sc.validate().unwrap_err();
                assert!(
                    matches!(&err, ScenarioError::Unsupported(m) if m.contains("slot width")),
                    "{err}"
                );
                assert!(matches!(sc.try_run(), Err(ScenarioError::Unsupported(_))));
            }
        }
    }
}

#[cfg(test)]
mod quantile_tests {
    use crate::{Load, Scenario};

    #[test]
    fn delay_quantiles_tracked_when_enabled() {
        let res = Scenario::mesh(5)
            .load(Load::Lambda(0.3))
            .horizon(5_000.0)
            .warmup(500.0)
            .seed(8)
            .delay_quantiles(true)
            .run();
        let p50 = res.delay_p50.expect("median tracked");
        let p95 = res.delay_p95.expect("p95 tracked");
        let p99 = res.delay_p99.expect("p99 tracked");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Mean between median and p99 for this right-skewed distribution.
        assert!(res.avg_delay >= p50 * 0.8);
        assert!(res.avg_delay <= p99);
        // Max route on a 5-mesh is 8 hops, so p50 below 8 + some queueing.
        assert!(p50 <= 12.0);
    }

    #[test]
    fn quantiles_absent_when_disabled() {
        let res = Scenario::mesh(4)
            .load(Load::Lambda(0.1))
            .horizon(500.0)
            .warmup(0.0)
            .run();
        assert!(res.delay_p50.is_none());
    }
}
