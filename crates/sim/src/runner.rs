//! Replication aggregation for [`Scenario::run_replicated`](crate::scenario::Scenario::run_replicated).
//!
//! The topology-generic front door is [`crate::scenario::Scenario`]; this
//! module keeps the [`ReplicatedResult`] aggregate it returns.

use crate::network::SimResult;
use meshbound_stats::Summary;
use serde::{Deserialize, Serialize};

/// Aggregated replication statistics for an experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicatedResult {
    /// Per-replication raw results.
    pub runs: Vec<SimResult>,
    /// Mean delay across replications.
    pub delay: Summary,
    /// Time-average `N` across replications.
    pub n: Summary,
    /// `r = E[R]/E[N]` across replications.
    pub r_ratio: Summary,
    /// `r_s = E[R_s]/E[N]` across replications.
    pub rs_ratio: Summary,
}

impl ReplicatedResult {
    /// Aggregates per-replication results (in replication order, so the
    /// summaries are independent of worker scheduling).
    #[must_use]
    pub fn from_runs(runs: Vec<SimResult>) -> Self {
        let mut delay = Summary::new();
        let mut n = Summary::new();
        let mut r_ratio = Summary::new();
        let mut rs_ratio = Summary::new();
        for r in &runs {
            delay.push(r.avg_delay);
            n.push(r.time_avg_n);
            r_ratio.push(r.r_ratio);
            rs_ratio.push(r.rs_ratio);
        }
        Self {
            runs,
            delay,
            n,
            r_ratio,
            rs_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{RouterSpec, Scenario};
    use crate::traffic::TrafficSpec;
    use meshbound_queueing::load::Load;

    fn base() -> Scenario {
        Scenario::mesh(4)
            .load(Load::Lambda(0.1))
            .horizon(3_000.0)
            .warmup(300.0)
            .track_saturated(true)
    }

    #[test]
    fn replications_have_distinct_seeds_and_tight_summary() {
        let rep = base().run_replicated(4);
        assert_eq!(rep.runs.len(), 4);
        // Distinct seeds → distinct results.
        assert!(rep
            .runs
            .windows(2)
            .any(|w| w[0].avg_delay != w[1].avg_delay));
        // The summary mean lies within the per-run envelope.
        let lo = rep
            .runs
            .iter()
            .map(|r| r.avg_delay)
            .fold(f64::INFINITY, f64::min);
        let hi = rep
            .runs
            .iter()
            .map(|r| r.avg_delay)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(rep.delay.mean() >= lo && rep.delay.mean() <= hi);
    }

    #[test]
    fn randomized_router_runs() {
        let res = base()
            .load(Load::Lambda(0.15))
            .horizon(2_000.0)
            .warmup(200.0)
            .router(RouterSpec::Randomized)
            .run();
        assert!(res.avg_delay > 0.0);
        assert!(res.completed > 0);
    }

    #[test]
    fn nearby_dest_shortens_delay() {
        let base = Scenario::mesh(6)
            .load(Load::Lambda(0.1))
            .horizon(6_000.0)
            .warmup(500.0)
            .track_saturated(true);
        let uniform = base.clone().run();
        let nearby = base.traffic(TrafficSpec::nearby(0.5)).run();
        assert!(
            nearby.avg_delay < uniform.avg_delay,
            "nearby {} vs uniform {}",
            nearby.avg_delay,
            uniform.avg_delay
        );
    }
}
