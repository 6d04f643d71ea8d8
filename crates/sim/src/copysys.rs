//! The "rushed" copy system of Theorem 10 (the network `Q₁`).
//!
//! When a packet is generated, a copy is deposited **immediately** at every
//! queue on its route; copies are served FIFO with unit deterministic
//! service and leave after their single service. Each queue in isolation is
//! an M/D/1 queue with the corresponding edge arrival rate, so by linearity
//! `E[N̄] = Σ_e N_{M/D/1}(λ_e)` — even though the queues are *dependent*
//! (copies of one packet arrive simultaneously). Theorems 10 and 12 bound
//! `E[N̄] ≤ d·E[N]` and `E[N̄] ≤ d̄·E[N]` against the real network; this
//! simulator verifies both the product value and the inequalities
//! empirically.
//!
//! [`Scenario::run_copies`](crate::Scenario::run_copies) runs it over the
//! same run description as the FIFO engine, on every family with an
//! oblivious router.

use crate::events::{EventQueue, HeapQueue};
use crate::network::{NetworkSim, SimError, System};
use crate::rng::{derive_rng, exp_sample};
use meshbound_routing::dest::DestSampler;
use meshbound_routing::Router;
use meshbound_stats::TimeWeighted;
use meshbound_topology::Topology;
use serde::{Deserialize, Serialize};

/// Output of a copy-system run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CopyResult {
    /// Time-averaged total number of copies in the system, `E[N̄]`.
    pub time_avg_copies: f64,
    /// Packets generated post-warmup (copies / route length each).
    pub generated: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrival(u32),
    Departure(u32),
    Warmup,
}

/// The Theorem 10 copy network `Q₁`.
pub(crate) struct Copies;

impl System for Copies {
    type Output = CopyResult;

    fn simulate<T, R, D>(self, sim: &NetworkSim<'_, T, R, D>) -> Result<CopyResult, SimError>
    where
        T: Topology + Sync,
        R: Router<T> + Sync,
        D: DestSampler<T> + Sync,
    {
        let sc = sim.sc;
        let mut rng = derive_rng(sim.seed, 2);
        let num_edges = sim.topo.num_edges();
        // Per-edge: copies queued, the one in service included.
        let mut backlog: Vec<u32> = vec![0; num_edges];
        let mut queue: HeapQueue<Ev> = HeapQueue::new();
        let mut copies = TimeWeighted::new(0.0, 0.0);
        let mut generated = 0u64;

        for i in 0..sim.sources.len() {
            let rate = sim.source_rate(i);
            if rate > 0.0 {
                queue.schedule(exp_sample(&mut rng, rate), Ev::Arrival(i as u32));
            }
        }
        if sc.warmup > 0.0 {
            queue.schedule(sc.warmup, Ev::Warmup);
        }

        while let Some((now, ev)) = queue.next() {
            if now > sc.horizon {
                break;
            }
            match ev {
                Ev::Warmup => copies.reset(sc.warmup),
                Ev::Arrival(i) => {
                    let src = sim.sources[i as usize];
                    let dst = sim.dest.sample(&sim.topo, src, &mut rng);
                    if src != dst {
                        if now >= sc.warmup {
                            generated += 1;
                        }
                        let state = sim.router.init_state(&sim.topo, src, dst, &mut rng);
                        let mut cur = src;
                        while let Some(e) = sim.router.next_edge(&sim.topo, cur, dst, state) {
                            let ei = e.index();
                            copies.add(now, 1.0);
                            backlog[ei] += 1;
                            if backlog[ei] == 1 {
                                queue.schedule(now + 1.0, Ev::Departure(ei as u32));
                            }
                            cur = sim.topo.edge_target(e);
                        }
                    }
                    let dt = exp_sample(&mut rng, sim.source_rate(i as usize));
                    queue.schedule(now + dt, Ev::Arrival(i));
                }
                Ev::Departure(e) => {
                    let ei = e as usize;
                    debug_assert!(backlog[ei] > 0);
                    backlog[ei] -= 1;
                    copies.add(now, -1.0);
                    if backlog[ei] > 0 {
                        queue.schedule(now + 1.0, Ev::Departure(e));
                    }
                }
            }
        }

        let measure = (sc.horizon - sc.warmup).max(f64::MIN_POSITIVE);
        Ok(CopyResult {
            time_avg_copies: copies.integral(sc.horizon) / measure,
            generated,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ps::tests::{assert_covers, workloads};
    use crate::{Load, Scenario};
    use meshbound_queueing::single::md1_mean_number;

    #[test]
    fn copy_population_matches_sum_of_md1_queues() {
        // Linearity of expectation across *dependent* M/D/1 queues: the
        // crucial step in Theorem 10's proof, verified by simulation.
        for sc in workloads() {
            let expect: f64 = sc.edge_rates().iter().map(|&l| md1_mean_number(l)).sum();
            assert_covers(&sc, expect, |sc| sc.run_copies().unwrap().time_avg_copies);
        }
    }

    #[test]
    fn thm12_inequality_against_fifo_network() {
        // E[N̄] ≤ d̄ · E[N] with d̄ = n − 1/2.
        let n = 5;
        let sc = Scenario::mesh(n)
            .load(Load::Lambda(0.35))
            .horizon(30_000.0)
            .warmup(2_000.0)
            .seed(32);
        let fifo = sc.run();
        let copies = sc.run_copies().unwrap();
        let dbar = n as f64 - 0.5;
        assert!(
            copies.time_avg_copies <= dbar * fifo.time_avg_n,
            "E[N̄] = {} > d̄·E[N] = {}",
            copies.time_avg_copies,
            dbar * fifo.time_avg_n
        );
    }
}
