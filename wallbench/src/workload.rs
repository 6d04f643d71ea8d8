//! The benchmark's workloads: one scenario spec string each, plus the run
//! length and the number of simulation seeds one benchmark run covers.

use meshbound::sim::rng::splitmix64;

pub struct Workload {
    pub name: &'static str,
    /// Scenario spec without run length or seed.
    pub spec: &'static str,
    pub horizon: f64,
    pub warmup: f64,
    /// Distinct simulation seeds per benchmark run, all derived from the
    /// `--seed` argument. Averaging over several seeds keeps the
    /// seed-dependent parts of the physics (the faulted workload's dead
    /// links above all) from dominating the run-to-run spread.
    pub seeds: usize,
    /// Run length of the `--smoke` variant the self-test uses.
    pub smoke_horizon: f64,
    pub smoke_warmup: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    // The paper's Table-I operating point: greedy routing on the 20×20
    // array at ρ = 0.8. Route tables and the deterministic-service
    // precompute are on; sharding, faults and adaptive routing are
    // bypassed. Hot state fits in L2, so the event queue dominates.
    Workload {
        name: "mesh_table1",
        spec: "mesh:20 load=rho:0.8",
        horizon: 4_000.0,
        warmup: 400.0,
        seeds: 4,
        smoke_horizon: 400.0,
        smoke_warmup: 40.0,
    },
    // 2^16 nodes and 2^20 edges, table-free dimension-order routing, a
    // working set far beyond L2, two worker threads. The only workload
    // that exercises shard sync and the sparse rate path. A horizon of
    // 20 or more keeps the delay past the bounds' lower limit; shorter
    // runs censor long trips. The peak RSS depends on the seed, so a run
    // covers four.
    Workload {
        name: "cube_shuffle_sharded",
        spec: "hypercube:16 traffic=shuffle load=rho:0.5 engine=sharded:2",
        horizon: 20.0,
        warmup: 5.0,
        seeds: 4,
        smoke_horizon: 20.0,
        smoke_warmup: 5.0,
    },
    // Adaptive per-hop routing under a live queue view with 5% of links
    // dead: no route tables, the fixed-point rate solver in setup, and
    // about a fifth of all packets dropped at local minima. Each seed
    // draws its own dead set, hence the many seeds per run.
    Workload {
        name: "mesh_transpose_faulted",
        spec: "mesh:16 traffic=transpose router=oddeven load=util:0.5 faults=links:0.05",
        horizon: 2_000.0,
        warmup: 200.0,
        seeds: 64,
        smoke_horizon: 400.0,
        smoke_warmup: 40.0,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Seeds per run; the smoke variant runs two.
    pub fn seed_count(&self, smoke: bool) -> usize {
        if smoke {
            self.seeds.min(2)
        } else {
            self.seeds
        }
    }

    /// The `k`-th simulation seed of benchmark seed `seed`.
    pub fn sim_seed(seed: u64, k: usize) -> u64 {
        splitmix64(seed ^ splitmix64(k as u64))
    }

    /// The full spec string of the `k`-th simulation of a run.
    pub fn spec_for(&self, seed: u64, k: usize, smoke: bool) -> String {
        let (horizon, warmup) = self.run_length(smoke);
        format!(
            "{} horizon={horizon} warmup={warmup} seed={}",
            self.spec,
            Self::sim_seed(seed, k)
        )
    }

    pub fn run_length(&self, smoke: bool) -> (f64, f64) {
        if smoke {
            (self.smoke_horizon, self.smoke_warmup)
        } else {
            (self.horizon, self.warmup)
        }
    }
}
