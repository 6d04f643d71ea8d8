//! Statistics collection during a simulation run.
//!
//! The observer maintains, as piecewise-constant time integrals:
//!
//! * `N(t)` — packets in the system (Table I via Little's law);
//! * `R(t)` — total remaining services over all packets (Table II);
//! * `R_s(t)` — total remaining *saturated* services (Table III);
//!
//! plus per-packet delay moments and per-edge busy time / service counts
//! (used to verify Theorem 6's arrival rates empirically).

use crate::fault::{DropCause, DropCounts};
use meshbound_stats::{Reservoir, TimeWeighted, Welford};

/// Live statistics of one simulation run.
#[derive(Debug, Clone)]
pub struct Observer {
    /// Delay (sojourn) of completed packets generated after warmup.
    pub delay: Welford,
    /// Packets in system.
    pub n_sys: TimeWeighted,
    /// Remaining services over in-system packets.
    pub r_total: TimeWeighted,
    /// Remaining saturated services over in-system packets.
    pub rs_total: TimeWeighted,
    /// Per-edge cumulative busy time (post-warmup).
    pub edge_busy: Vec<f64>,
    /// Per-edge completed services (post-warmup).
    pub edge_services: Vec<u64>,
    /// Packets generated post-warmup (including zero-distance ones).
    pub generated: u64,
    /// Packets delivered whose generation was post-warmup.
    pub completed: u64,
    /// Packets dropped by the fault machinery (post-warmup generations
    /// only, like `completed`), tallied by cause.
    pub dropped: DropCounts,
    /// Warmup time after which statistics accumulate.
    pub warmup: f64,
    /// Optional reservoir of delays for quantile estimation.
    pub delay_sample: Option<Reservoir>,
}

impl Observer {
    /// Creates an observer for `num_edges` servers with the given warmup.
    #[must_use]
    pub fn new(num_edges: usize, warmup: f64) -> Self {
        Self {
            delay: Welford::new(),
            n_sys: TimeWeighted::new(0.0, 0.0),
            r_total: TimeWeighted::new(0.0, 0.0),
            rs_total: TimeWeighted::new(0.0, 0.0),
            edge_busy: vec![0.0; num_edges],
            edge_services: vec![0; num_edges],
            generated: 0,
            completed: 0,
            dropped: DropCounts::default(),
            warmup,
            delay_sample: None,
        }
    }

    /// Enables delay-quantile tracking with a bounded reservoir.
    pub fn enable_delay_quantiles(&mut self, capacity: usize, seed: u64) {
        self.delay_sample = Some(Reservoir::new(capacity, seed));
    }

    /// Whether `now` is past the warmup boundary.
    #[inline]
    #[must_use]
    pub fn measuring(&self, now: f64) -> bool {
        now >= self.warmup
    }

    /// Discards pre-warmup integrals (call exactly once, at the warmup
    /// boundary).
    pub fn reset_at_warmup(&mut self) {
        self.n_sys.reset(self.warmup);
        self.r_total.reset(self.warmup);
        self.rs_total.reset(self.warmup);
    }

    /// Records a packet entering the system at `now` with `hops` remaining
    /// services, `sat` of them saturated.
    #[inline]
    pub fn packet_enters(&mut self, now: f64, hops: usize, sat: usize) {
        self.n_sys.add(now, 1.0);
        self.r_total.add(now, hops as f64);
        if sat > 0 {
            self.rs_total.add(now, sat as f64);
        }
    }

    /// Records one completed service on `edge` at `now`; `sat` marks a
    /// saturated edge.
    #[inline]
    pub fn service_done(&mut self, now: f64, edge: usize, duration: f64, sat: bool) {
        self.r_total.add(now, -1.0);
        if sat {
            self.rs_total.add(now, -1.0);
        }
        if now >= self.warmup {
            // Clip the busy interval at the warmup boundary.
            let clipped = duration.min(now - self.warmup);
            self.edge_busy[edge] += clipped;
            self.edge_services[edge] += 1;
        }
    }

    /// Records a packet leaving the system at `now`.
    #[inline]
    pub fn packet_exits(&mut self, now: f64, generated_at: f64, counted: bool) {
        self.n_sys.add(now, -1.0);
        if counted && generated_at >= self.warmup {
            self.delay.push(now - generated_at);
            self.completed += 1;
            if let Some(r) = &mut self.delay_sample {
                r.push(now - generated_at);
            }
        }
    }

    /// Records a packet dropped by the fault machinery at `now`: it leaves
    /// the system with `remaining` services undone (`sat_remaining` of
    /// them saturated) and counts toward the per-cause drop tally iff it
    /// was generated after warmup — the same gate `completed` uses, so
    /// `completed + dropped ≤ generated` holds exactly.
    #[inline]
    pub fn packet_dropped(
        &mut self,
        now: f64,
        remaining: f64,
        sat_remaining: f64,
        generated_at: f64,
        cause: DropCause,
    ) {
        self.n_sys.add(now, -1.0);
        self.r_total.add(now, -remaining);
        if sat_remaining > 0.0 {
            self.rs_total.add(now, -sat_remaining);
        }
        if generated_at >= self.warmup {
            self.dropped.record(cause);
        }
    }

    /// Records a zero-distance packet (source = destination): it spends no
    /// time in the system but counts toward the delay average, matching the
    /// paper's model where "we allow a packet's destination to be the same
    /// as its starting point".
    #[inline]
    pub fn zero_distance_packet(&mut self, now: f64) {
        if now >= self.warmup {
            self.delay.push(0.0);
            self.generated += 1;
            self.completed += 1;
            if let Some(r) = &mut self.delay_sample {
                r.push(0.0);
            }
        }
    }

    /// Counts a generated packet (post-warmup only).
    #[inline]
    pub fn packet_generated(&mut self, now: f64) {
        if now >= self.warmup {
            self.generated += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrals_track_population() {
        let mut obs = Observer::new(2, 0.0);
        obs.packet_enters(0.0, 3, 1);
        obs.packet_enters(1.0, 2, 0);
        obs.service_done(2.0, 0, 1.0, true);
        obs.packet_exits(4.0, 0.0, true);
        // N: 1 on [0,1), 2 on [1,4), 1 after.
        assert!((obs.n_sys.integral(4.0) - (1.0 + 2.0 * 3.0)).abs() < 1e-12);
        // R: 3 on [0,1), 5 on [1,2), 4 on [2,4).
        assert!((obs.r_total.integral(4.0) - (3.0 + 5.0 + 8.0)).abs() < 1e-12);
        // R_s: 1 on [0,2), 0 after.
        assert!((obs.rs_total.integral(4.0) - 2.0).abs() < 1e-12);
        assert_eq!(obs.completed, 1);
        assert!((obs.delay.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_gates_delay_recording() {
        let mut obs = Observer::new(1, 10.0);
        obs.packet_enters(5.0, 1, 0);
        obs.packet_exits(8.0, 5.0, true); // generated pre-warmup: not recorded
        assert_eq!(obs.completed, 0);
        obs.packet_enters(11.0, 1, 0);
        obs.packet_exits(12.5, 11.0, true);
        assert_eq!(obs.completed, 1);
        assert!((obs.delay.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn drops_reverse_integrals_and_gate_on_generation_time() {
        let mut obs = Observer::new(1, 10.0);
        obs.packet_enters(5.0, 3, 1);
        // Generated pre-warmup: the integrals unwind but no drop counts.
        obs.packet_dropped(8.0, 3.0, 1.0, 5.0, DropCause::LinkDown);
        assert_eq!(obs.dropped.total(), 0);
        assert!((obs.n_sys.value()).abs() < 1e-12);
        obs.packet_enters(11.0, 4, 0);
        obs.packet_dropped(13.0, 2.0, 0.0, 11.0, DropCause::DeadEnd);
        assert_eq!(obs.dropped.dead_end, 1);
        assert_eq!(obs.dropped.total(), 1);
        assert!((obs.n_sys.value()).abs() < 1e-12);
        // The packet entered with 4 remaining services but was dropped
        // with only 2 left: R unwinds by the 2 still undone.
        assert!((obs.r_total.value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn busy_time_clipped_at_warmup() {
        let mut obs = Observer::new(1, 10.0);
        // Service ran 9.5 → 10.5: only 0.5 counts.
        obs.service_done(10.5, 0, 1.0, false);
        assert!((obs.edge_busy[0] - 0.5).abs() < 1e-12);
    }
}
