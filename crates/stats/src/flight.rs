//! Bounded time-series storage with flight-recorder decimation.
//!
//! Long simulations want trajectories — `N(t)`, queue mass, drop counts —
//! but an unbounded `Vec<(t, v)>` grows linearly with the horizon. A
//! [`DecimatingSeries`] keeps at most `capacity` samples at any horizon:
//! when the buffer fills it discards every other retained sample in place
//! and doubles its stride, so the surviving samples always sit at
//! contiguous multiples of `stride × Δ` for the caller's base interval Δ.
//! Memory is `O(capacity)` forever; resolution degrades gracefully (by
//! powers of two) instead of storage growing without bound.
//!
//! Decimation is a pure function of the number of samples pushed — never
//! of the sample *values* or of wall-clock time — so two series fed the
//! same number of ticks always agree on which ticks they retained. The
//! sharded simulation engine relies on this to merge per-shard series
//! sample-by-sample.

/// A fixed-capacity time series that halves its resolution instead of
/// growing.
///
/// Every [`DecimatingSeries::record`] call stores its sample. After each
/// call the caller re-reads [`DecimatingSeries::stride`] and takes its
/// next sample `stride × Δ` ahead, so once the buffer has decimated no
/// work is spent on samples it would discard (the telemetry probes
/// reschedule their sampling events this way).
///
/// # Examples
///
/// ```
/// use meshbound_stats::DecimatingSeries;
/// let mut s = DecimatingSeries::new(4);
/// let mut k = s.stride();
/// while k <= 32 {
///     s.record(k as f64, (k * k) as f64);
///     k += s.stride();
/// }
/// assert!(s.len() <= 4);
/// assert_eq!(s.stride(), 16);
/// // The newest sample always survives decimation.
/// assert_eq!(s.samples().last().unwrap().0, 32.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecimatingSeries {
    capacity: usize,
    stride: u64,
    samples: Vec<(f64, f64)>,
}

impl DecimatingSeries {
    /// Creates an empty series holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` or `capacity` is odd (decimation halves
    /// the buffer in place, which needs an even capacity to keep the
    /// newest sample).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 2 && capacity.is_multiple_of(2),
            "DecimatingSeries capacity must be an even number >= 2, got {capacity}"
        );
        Self {
            capacity,
            stride: 1,
            samples: Vec::new(),
        }
    }

    /// Stores `(t, v)`, decimating if the buffer is now full. Callers
    /// should re-read [`DecimatingSeries::stride`] after each call and
    /// schedule their next sample `stride × Δ` ahead.
    pub fn record(&mut self, t: f64, v: f64) {
        self.samples.push((t, v));
        self.maybe_decimate();
    }

    /// Drops the 0-based even-index samples and doubles the stride once
    /// the buffer is full. With samples at ticks `k·s` for `k = 1..=cap`,
    /// the survivors sit at ticks `2s, 4s, …, cap·s` — contiguous
    /// multiples of the doubled stride, newest sample included.
    fn maybe_decimate(&mut self) {
        if self.samples.len() < self.capacity {
            return;
        }
        let mut keep = 0;
        for i in (1..self.samples.len()).step_by(2) {
            self.samples[keep] = self.samples[i];
            keep += 1;
        }
        self.samples.truncate(keep);
        self.stride *= 2;
    }

    /// Current stride: the retained samples sit `stride` base intervals
    /// apart. Always a power of two; 1 until the first decimation.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retained `(time, value)` samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }

    /// Combines this series' values with another series sampled on the
    /// identical tick schedule: each retained value becomes
    /// `f(self, other)` at the same tick. The parallel-merge step for
    /// series tracked independently per shard (sum for counts, max for
    /// peaks).
    ///
    /// # Panics
    ///
    /// Panics if the two series retain different sample counts (they were
    /// not fed the same tick schedule); debug-asserts the retained tick
    /// times agree bit-for-bit.
    pub fn combine_values(&mut self, other: &Self, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(
            self.samples.len(),
            other.samples.len(),
            "combine_values needs series on the same tick schedule"
        );
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            debug_assert_eq!(a.0.to_bits(), b.0.to_bits(), "sample ticks disagree");
            a.1 = f(a.1, b.1);
        }
    }

    /// Consumes the series, returning the retained samples.
    #[must_use]
    pub fn into_samples(self) -> Vec<(f64, f64)> {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Records `t²` at base ticks `stride, 2·stride, …` up to `ticks`,
    /// rescheduling at the widened stride after each decimation, the way
    /// the telemetry probes feed their series. Returns the calls made.
    fn feed(s: &mut DecimatingSeries, ticks: u64) -> u64 {
        let mut calls = 0;
        let mut k = s.stride();
        while k <= ticks {
            s.record(k as f64, (k * k) as f64);
            calls += 1;
            k += s.stride();
        }
        calls
    }

    fn times(s: &DecimatingSeries) -> Vec<f64> {
        s.samples().iter().map(|p| p.0).collect()
    }

    #[test]
    #[should_panic(expected = "even number")]
    fn odd_capacity_rejected() {
        let _ = DecimatingSeries::new(3);
    }

    #[test]
    fn below_capacity_keeps_everything() {
        let mut s = DecimatingSeries::new(8);
        assert_eq!(feed(&mut s, 7), 7);
        assert_eq!(s.len(), 7);
        assert_eq!(s.stride(), 1);
        assert_eq!(times(&s), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn first_decimation_keeps_even_ticks() {
        let mut s = DecimatingSeries::new(8);
        feed(&mut s, 8);
        assert_eq!(s.stride(), 2);
        assert_eq!(times(&s), vec![2.0, 4.0, 6.0, 8.0]);
        // The caller schedules its next sample one widened stride on, at
        // tick 10, so the retained ticks stay contiguous.
        s.record(10.0, 100.0);
        assert_eq!(times(&s), vec![2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn million_offers_stay_bounded() {
        let mut s = DecimatingSeries::new(64);
        let calls = feed(&mut s, 1_000_000);
        assert!(s.len() <= 64);
        assert!(s.stride().is_power_of_two());
        let newest = s.samples().last().unwrap().0 as u64;
        assert!(1_000_000 - newest < s.stride());
        // Rescheduling at the widened stride costs about `capacity / 2`
        // calls per doubling, not one per base tick.
        assert!(calls <= 64 + 32 * u64::from(s.stride().trailing_zeros()));
    }

    proptest! {
        #[test]
        fn prop_flight_recorder_invariants(
            ticks in 1u64..5000,
            half_cap in 1usize..32,
        ) {
            let capacity = 2 * half_cap;
            let mut s = DecimatingSeries::new(capacity);
            feed(&mut s, ticks);
            // Bounded memory.
            prop_assert!(s.len() <= capacity);
            // Stride is a power of two.
            prop_assert!(s.stride().is_power_of_two());
            // Retained ticks are contiguous multiples of the stride,
            // ending at the newest stored tick.
            let stride = s.stride();
            let times: Vec<u64> = s.samples().iter().map(|p| p.0 as u64).collect();
            let last_stored = (ticks / stride) * stride;
            for (i, &t) in times.iter().rev().enumerate() {
                prop_assert_eq!(t, last_stored - i as u64 * stride);
            }
            // Once at least `stride` ticks have elapsed, something is
            // retained and the newest retained tick is within one
            // stride of the horizon.
            if ticks >= stride {
                prop_assert!(!s.is_empty());
                prop_assert!(ticks - last_stored < stride);
            }
        }
    }
}
