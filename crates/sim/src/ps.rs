//! Processor-sharing network simulation (the Theorem 1/5 comparison
//! system).
//!
//! Under PS every packet queued at an edge receives an equal share of the
//! server. With equal service requirements (one unit of work each) and FIFO
//! arrival order, packets complete in arrival order, which permits an O(1)
//! *virtual-time* implementation: the server accumulates virtual service
//! `dv = dt / k(t)`, a packet arriving at virtual time `v` completes at
//! virtual time `v + 1`, and real completion instants are recovered by
//! inverting the accumulation. Theorem 1 (Stamoulis–Tsitsiklis) states that
//! this network's total population stochastically dominates the FIFO
//! network's; its equilibrium is product-form, equal to the Jackson model's
//! (§2.2, §3.3).
//!
//! [`Scenario::run_ps`](crate::Scenario::run_ps) runs it over the same run
//! description as the FIFO engine, so it covers every family with an
//! oblivious router, the butterfly's level-0 sources and weighted sources
//! included.

use crate::events::{EventQueue, HeapQueue};
use crate::network::{stall, NetworkSim, SimError, System};
use crate::rng::{derive_rng, exp_sample};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::Router;
use meshbound_topology::{EdgeId, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Output of a PS-network run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PsResult {
    /// Mean delay of delivered packets generated post-warmup (self-packets
    /// included as zero).
    pub avg_delay: f64,
    /// Time-averaged number in system.
    pub time_avg_n: f64,
    /// Completed post-warmup packets.
    pub completed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrival(u32),
    /// Head-of-edge completion with an epoch for lazy invalidation.
    Completion(u32, u32),
    Warmup,
}

#[derive(Debug, Clone, Copy)]
struct Packet<S> {
    dst: NodeId,
    state: S,
    gen_time: f64,
}

#[derive(Debug, Default)]
struct PsEdge {
    /// (packet id, virtual completion time), in arrival order.
    jobs: VecDeque<(u32, f64)>,
    /// Accumulated virtual service.
    vnow: f64,
    /// Real time of the last `vnow` update.
    last_update: f64,
    /// Bumped whenever the head's completion event must be rescheduled.
    epoch: u32,
}

impl PsEdge {
    /// Advances virtual time to real time `now`.
    fn advance(&mut self, now: f64) {
        let k = self.jobs.len();
        if k > 0 {
            self.vnow += (now - self.last_update) / k as f64;
        }
        self.last_update = now;
    }

    /// Real completion time of the current head (requires non-empty).
    fn head_completion(&self, now: f64) -> f64 {
        let (_, vc) = *self.jobs.front().expect("no head");
        now + (vc - self.vnow).max(0.0) * self.jobs.len() as f64
    }
}

/// The PS version of a network (unit work per edge crossing).
///
/// Only the total-population and delay statistics are tracked; this
/// network exists to verify Theorem 5 (`E[N_FIFO] ≤ E[N_PS]`) and the
/// product-form equilibrium of §2.2.
pub(crate) struct Ps;

impl System for Ps {
    type Output = PsResult;

    fn simulate<T, R, D>(self, sim: &NetworkSim<'_, T, R, D>) -> Result<PsResult, SimError>
    where
        T: Topology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync,
    {
        let sc = sim.sc;
        let mut rng = derive_rng(sim.seed, 1);
        let num_edges = sim.topo.num_edges();
        let mut queue: HeapQueue<Ev> = HeapQueue::new();
        let mut edges: Vec<PsEdge> = (0..num_edges).map(|_| PsEdge::default()).collect();
        let mut packets: Vec<Packet<R::State>> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut delays = meshbound_stats::Welford::new();
        let mut n_sys = meshbound_stats::TimeWeighted::new(0.0, 0.0);
        let mut completed = 0u64;

        for i in 0..sim.sources.len() {
            let rate = sim.source_rate(i);
            if rate > 0.0 {
                queue.schedule(exp_sample(&mut rng, rate), Ev::Arrival(i as u32));
            }
        }
        if sc.warmup > 0.0 {
            queue.schedule(sc.warmup, Ev::Warmup);
        }

        let enqueue =
            |edges: &mut Vec<PsEdge>, queue: &mut HeapQueue<Ev>, e: usize, pid: u32, now: f64| {
                let edge = &mut edges[e];
                edge.advance(now);
                edge.jobs.push_back((pid, edge.vnow + 1.0));
                // Arrival slows the head: reschedule.
                edge.epoch = edge.epoch.wrapping_add(1);
                let t = edge.head_completion(now);
                queue.schedule(t, Ev::Completion(e as u32, edge.epoch));
            };

        while let Some((now, ev)) = queue.next() {
            if now > sc.horizon {
                break;
            }
            match ev {
                Ev::Warmup => n_sys.reset(sc.warmup),
                Ev::Arrival(i) => {
                    let src = sim.sources[i as usize];
                    let dst = sim.dest.sample(&sim.topo, src, &mut rng);
                    if src == dst {
                        if sc.include_self_packets && now >= sc.warmup {
                            delays.push(0.0);
                            completed += 1;
                        }
                    } else {
                        let state = sim.router.init_state(&sim.topo, src, dst, &mut rng);
                        let pid = match free.pop() {
                            Some(id) => {
                                packets[id as usize] = Packet {
                                    dst,
                                    state,
                                    gen_time: now,
                                };
                                id
                            }
                            None => {
                                packets.push(Packet {
                                    dst,
                                    state,
                                    gen_time: now,
                                });
                                (packets.len() - 1) as u32
                            }
                        };
                        n_sys.add(now, 1.0);
                        let first = sim
                            .router
                            .next_edge(&sim.topo, src, dst, state)
                            .ok_or_else(|| stall::<R>(src, dst))?;
                        enqueue(&mut edges, &mut queue, first.index(), pid, now);
                    }
                    let dt = exp_sample(&mut rng, sim.source_rate(i as usize));
                    queue.schedule(now + dt, Ev::Arrival(i));
                }
                Ev::Completion(e, epoch) => {
                    let ei = e as usize;
                    if edges[ei].epoch != epoch {
                        continue; // stale event
                    }
                    edges[ei].advance(now);
                    let (pid, _vc) = edges[ei]
                        .jobs
                        .pop_front()
                        .expect("completion on empty edge");
                    // Reschedule the new head (it speeds up).
                    edges[ei].epoch = edges[ei].epoch.wrapping_add(1);
                    if !edges[ei].jobs.is_empty() {
                        let t = edges[ei].head_completion(now);
                        queue.schedule(t, Ev::Completion(e, edges[ei].epoch));
                    }
                    let cur = sim.topo.edge_target(EdgeId(e));
                    let pk = packets[pid as usize];
                    if cur == pk.dst {
                        n_sys.add(now, -1.0);
                        if pk.gen_time >= sc.warmup {
                            delays.push(now - pk.gen_time);
                            completed += 1;
                        }
                        free.push(pid);
                    } else {
                        let next = sim
                            .router
                            .next_edge(&sim.topo, cur, pk.dst, pk.state)
                            .ok_or_else(|| stall::<R>(cur, pk.dst))?;
                        enqueue(&mut edges, &mut queue, next.index(), pid, now);
                    }
                }
            }
        }

        let measure = (sc.horizon - sc.warmup).max(f64::MIN_POSITIVE);
        Ok(PsResult {
            avg_delay: delays.mean(),
            time_avg_n: n_sys.integral(sc.horizon) / measure,
            completed,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::{FaultSpec, Load, RouterSpec, Scenario, ScenarioError, ServiceKind, SourceSpec};
    use meshbound_queueing::jackson::mean_number_unit;
    use meshbound_stats::Summary;

    /// Asserts that the 99.9% t-interval of `metric` over 8 replications
    /// of `sc`, one derived seed each, covers `expect`.
    pub(crate) fn assert_covers(sc: &Scenario, expect: f64, metric: impl Fn(&Scenario) -> f64) {
        let runs: Vec<f64> = (0..8)
            .map(|i| metric(&sc.clone().seed(sc.replication_seed(i))))
            .collect();
        let ci = Summary::from_values(&runs).confidence_interval(0.999);
        assert!(
            ci.contains(expect),
            "{}: {:.4} ± {:.4} misses {expect:.4}",
            sc.spec_string(),
            ci.mean,
            ci.half_width
        );
    }

    /// The oblivious workloads both comparison networks are judged on:
    /// the butterfly's level-0 sources and weighted sources included.
    pub(crate) fn workloads() -> [Scenario; 4] {
        [
            Scenario::mesh(4),
            Scenario::butterfly(3),
            Scenario::hypercube(4),
            Scenario::mesh(5).source(SourceSpec::Hotspot {
                node: None,
                weight: 4.0,
            }),
        ]
        .map(|sc| {
            sc.load(Load::Utilization(0.5))
                .horizon(4_000.0)
                .warmup(400.0)
        })
    }

    #[test]
    fn ps_single_packet_crosses_in_unit_time_per_edge() {
        // With negligible load a packet is alone at each edge: PS equals
        // FIFO and the delay is the distance.
        let sc = Scenario::mesh(4)
            .load(Load::Lambda(0.0005))
            .horizon(60_000.0)
            .warmup(0.0)
            .seed(21);
        let res = sc.run_ps().unwrap();
        assert!(
            (res.avg_delay - sc.mean_distance()).abs() < 0.2,
            "delay {}",
            res.avg_delay
        );
    }

    #[test]
    fn ps_matches_product_form() {
        // §2.2: the PS equilibrium is product-form with geometric queues:
        // E[N] = Σ_e λ_e/(1−λ_e).
        for sc in workloads() {
            let expect = mean_number_unit(&sc.edge_rates());
            assert_covers(&sc, expect, |sc| sc.run_ps().unwrap().time_avg_n);
        }
    }

    #[test]
    fn ps_dominates_fifo() {
        // Theorem 5: E[N_PS] ≥ E[N_FIFO] for the same parameters.
        let sc = Scenario::mesh(4)
            .load(Load::Lambda(0.3))
            .horizon(30_000.0)
            .warmup(2_000.0)
            .seed(23);
        let fifo = sc.run();
        let ps = sc.run_ps().unwrap();
        assert!(
            ps.time_avg_n > fifo.time_avg_n,
            "PS {} vs FIFO {}",
            ps.time_avg_n,
            fifo.time_avg_n
        );
    }

    #[test]
    fn comparison_networks_refuse_what_they_do_not_model() {
        for sc in [
            Scenario::mesh(4).router(RouterSpec::OddEven),
            Scenario::mesh(4).service(ServiceKind::Exponential),
            Scenario::mesh(4).service_rates(vec![2.0; 48]),
            Scenario::mesh(4).slot(1.0),
            Scenario::mesh(4).faults(FaultSpec::links(0.1)),
        ] {
            assert!(sc.validate().is_ok());
            let spec = sc.spec_string();
            assert!(
                matches!(sc.run_ps(), Err(ScenarioError::Unsupported(_))),
                "{spec}"
            );
            assert!(
                matches!(sc.run_copies(), Err(ScenarioError::Unsupported(_))),
                "{spec}"
            );
        }
    }
}
