//! Deterministic time-series telemetry: probe specs, flight recorders,
//! and the [`TelemetryReport`] attached to simulation results.
//!
//! A [`ProbeSpec`] (the `probes=` spec clause) selects which series to
//! sample — packets in system, peak queue length, drop and delivery
//! counts, per-shard engine counters — and optionally a base sampling
//! interval Δ. Samplers fire at deterministic **sim-clock** ticks
//! `t = k·Δ`, scheduled as ordinary events, never from wall-clock time:
//! telemetry of a run is a pure function of the spec and seed.
//!
//! Storage has flight-recorder semantics: each series is a bounded
//! [`DecimatingSeries`]. When the buffer fills, the sampling stride
//! doubles and the retained samples decimate in place, so a probed run
//! costs `O(capacity)` memory at any horizon. Decimation depends only on
//! tick counts, so the per-shard recorders of a sharded run stay in
//! lockstep and merge deterministically.
//!
//! Probes read engine state but never mutate it, and the engines do not
//! count their ticks as events — simulation results with probes on are
//! bit-identical to probes off, at every shard count.

use meshbound_stats::{DecimatingSeries, Welford};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Schema tag of [`TelemetryReport`].
pub const TELEMETRY_SCHEMA: &str = "meshbound.telemetry/v1";

/// Number of retained samples per series. Even (decimation halves the
/// buffer keeping the newest sample) and comfortably above the default
/// tick count, so a default-interval run never decimates.
pub const TELEMETRY_CAPACITY: usize = 512;

/// Ticks the default probe interval aims for when the spec gives no
/// explicit `@<dt>`: Δ = horizon / `DEFAULT_TICKS`.
const DEFAULT_TICKS: f64 = 256.0;

/// Progress callback fired from probe ticks: `(now, horizon, events)`.
/// Observability only — the engines call it *after* recording a sample,
/// so it can never perturb simulation state or results.
pub type ProgressFn = Arc<dyn Fn(f64, f64, u64) + Send + Sync>;

/// The process-wide progress sink (`repro --progress` installs one).
static PROGRESS_SINK: Mutex<Option<ProgressFn>> = Mutex::new(None);

/// Installs (or, with `None`, clears) the process-wide progress sink.
/// While installed, probed runs call it at every telemetry tick with the
/// current sim time, the run horizon, and the events processed so far
/// (shard 0's count on a sharded run). The sink rides the probe
/// schedule: a run without a `probes=` clause never fires it.
pub fn set_progress_sink(sink: Option<ProgressFn>) {
    *PROGRESS_SINK.lock().unwrap() = sink;
}

/// Fires the installed progress sink, if any. The `Arc` is cloned out of
/// the lock before the call so a slow sink cannot block installers.
pub(crate) fn emit_progress(now: f64, horizon: f64, events: u64) {
    let sink = PROGRESS_SINK.lock().unwrap().clone();
    if let Some(f) = sink {
        f(now, horizon, events);
    }
}

/// Which telemetry series a scenario samples, and how often — the value
/// of the `probes=` clause in scenario and sweep specs.
///
/// The grammar is a comma-joined series list with an optional interval
/// suffix: `probes=nsys,maxq@10` samples packets-in-system and the peak
/// queue length every 10 time units. `probes=none` (the default) turns
/// telemetry off entirely — no probe events are scheduled and the run is
/// byte-identical to a pre-telemetry build.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeSpec {
    /// Sample `N(t)`, the packets-in-system count (the paper's central
    /// time-averaged quantity).
    pub nsys: bool,
    /// Sample the maximum queue length over all edges. Scans every edge
    /// per tick — cheap next to the event loop, but prefer a coarse
    /// interval on multi-million-edge topologies.
    pub maxq: bool,
    /// Sample the cumulative fault-drop count.
    pub drops: bool,
    /// Sample the cumulative delivered-packet count.
    pub delivered: bool,
    /// Sample per-shard engine counters (events processed, queue mass,
    /// cut-edge handoffs), one series per shard — load-balance
    /// observability for sharded runs. A one-shard run reports
    /// `shard0:*`, with an all-zero `shard0:cut`.
    pub shards: bool,
    /// Base sampling interval Δ; `None` picks `horizon / 256`.
    pub every: Option<f64>,
}

impl ProbeSpec {
    /// Parses the value of a `probes=` key: a comma-joined subset of
    /// `nsys`, `maxq`, `drops`, `delivered`, `shards` (or `all`), with an
    /// optional `@<dt>` interval suffix. `none` yields `Ok(None)` —
    /// telemetry off, matching the absent-clause default.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending series token or interval.
    pub fn parse_token(value: &str) -> Result<Option<ProbeSpec>, String> {
        if value == "none" {
            return Ok(None);
        }
        let (series, every) = match value.split_once('@') {
            Some((s, dt)) => {
                let dt: f64 = dt
                    .parse()
                    .map_err(|_| format!("bad probe interval `@{dt}`"))?;
                (s, Some(dt))
            }
            None => (value, None),
        };
        let mut spec = ProbeSpec {
            nsys: false,
            maxq: false,
            drops: false,
            delivered: false,
            shards: false,
            every,
        };
        for token in series.split(',').filter(|t| !t.is_empty()) {
            match token {
                "nsys" => spec.nsys = true,
                "maxq" => spec.maxq = true,
                "drops" => spec.drops = true,
                "delivered" => spec.delivered = true,
                "shards" => spec.shards = true,
                "all" => {
                    spec.nsys = true;
                    spec.maxq = true;
                    spec.drops = true;
                    spec.delivered = true;
                    spec.shards = true;
                }
                other => {
                    return Err(format!(
                        "unknown probe series `{other}` (expected nsys, maxq, drops, \
                         delivered, shards or all; or the whole clause `none`)"
                    ))
                }
            }
        }
        spec.check()?;
        Ok(Some(spec))
    }

    /// Renders the canonical spec token [`ProbeSpec::parse_token`]
    /// accepts: series names in fixed order, `@<dt>` appended when an
    /// explicit interval is set.
    #[must_use]
    pub fn spec_token(&self) -> String {
        let mut names = Vec::new();
        for (on, name) in [
            (self.nsys, "nsys"),
            (self.maxq, "maxq"),
            (self.drops, "drops"),
            (self.delivered, "delivered"),
            (self.shards, "shards"),
        ] {
            if on {
                names.push(name);
            }
        }
        let mut s = names.join(",");
        if let Some(dt) = self.every {
            s.push_str(&format!("@{dt}"));
        }
        s
    }

    /// Validates the spec: at least one series selected, and an explicit
    /// interval (if any) positive and finite.
    ///
    /// # Errors
    ///
    /// A message naming the violated constraint.
    pub fn check(&self) -> Result<(), String> {
        if !(self.nsys || self.maxq || self.drops || self.delivered || self.shards) {
            return Err(
                "probes= selects no series (expected a comma-joined subset of nsys, \
                 maxq, drops, delivered, shards)"
                    .into(),
            );
        }
        if let Some(dt) = self.every {
            if !(dt > 0.0 && dt.is_finite()) {
                return Err(format!(
                    "probe interval `@{dt}` must be positive and finite"
                ));
            }
        }
        Ok(())
    }

    /// The base sampling interval Δ for a run of the given horizon: the
    /// explicit `@<dt>` when set, `horizon / 256` otherwise.
    #[must_use]
    pub fn base_interval(&self, horizon: f64) -> f64 {
        self.every.unwrap_or(horizon / DEFAULT_TICKS)
    }
}

/// How a series combines across the shards of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeOp {
    /// Shard values add (counts, packets in system).
    Sum,
    /// Shard values take the elementwise maximum (peak queue length).
    Max,
    /// Per-shard series: never combined, reported per shard.
    Keep,
}

/// One named series inside a [`Recorder`].
#[derive(Debug, Clone)]
struct Series {
    name: String,
    op: MergeOp,
    /// Picks this series' value out of a tick's [`ProbeSample`].
    read: fn(&ProbeSample) -> f64,
    data: DecimatingSeries,
}

impl Series {
    fn new(name: impl Into<String>, op: MergeOp, read: fn(&ProbeSample) -> f64) -> Self {
        Self {
            name: name.into(),
            op,
            read,
            data: DecimatingSeries::new(TELEMETRY_CAPACITY),
        }
    }
}

/// One probe tick's worth of engine readings, gathered by the engine and
/// handed to [`Recorder::record`]. Fields the spec did not select are
/// ignored; engines may leave them zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeSample {
    /// Packets currently in the system (this shard's share).
    pub nsys: f64,
    /// Maximum queue length over (owned) edges.
    pub maxq: f64,
    /// Cumulative dropped packets.
    pub drops: f64,
    /// Cumulative delivered packets.
    pub delivered: f64,
    /// Events processed so far (this shard).
    pub events: f64,
    /// Total queued packets over (owned) edges.
    pub qmass: f64,
    /// Cumulative cut-edge handoffs received (zero on a one-shard run).
    pub cut: f64,
}

/// The engine-side flight recorder: one [`DecimatingSeries`] per selected
/// series, all fed on the same tick so they decimate in lockstep.
///
/// Engines schedule a probe event at `t = Δ`, call [`Recorder::record`]
/// from the handler, and reschedule `interval()` ahead — after a
/// decimation the interval widens to `stride × Δ`, so no work is spent on
/// samples that would be discarded.
#[derive(Debug, Clone)]
pub struct Recorder {
    spec: ProbeSpec,
    base: f64,
    series: Vec<Series>,
}

impl Recorder {
    /// Recorder for shard `shard` of a run of the given horizon. Shared
    /// series (nsys, maxq, drops, delivered) carry shard-local values
    /// combined by [`Recorder::merge`]; the `shards` selector adds this
    /// shard's own `shard<k>:events` / `shard<k>:qmass` / `shard<k>:cut`
    /// series.
    #[must_use]
    pub fn for_shard(spec: &ProbeSpec, horizon: f64, shard: usize) -> Self {
        let mut series = Vec::new();
        if spec.nsys {
            series.push(Series::new("nsys", MergeOp::Sum, |p| p.nsys));
        }
        if spec.maxq {
            series.push(Series::new("maxq", MergeOp::Max, |p| p.maxq));
        }
        if spec.drops {
            series.push(Series::new("drops", MergeOp::Sum, |p| p.drops));
        }
        if spec.delivered {
            series.push(Series::new("delivered", MergeOp::Sum, |p| p.delivered));
        }
        if spec.shards {
            let name = |s: &str| format!("shard{shard}:{s}");
            series.push(Series::new(name("events"), MergeOp::Keep, |p| p.events));
            series.push(Series::new(name("qmass"), MergeOp::Keep, |p| p.qmass));
            series.push(Series::new(name("cut"), MergeOp::Keep, |p| p.cut));
        }
        Self {
            spec: *spec,
            base: spec.base_interval(horizon),
            series,
        }
    }

    /// The probe spec this recorder was built from.
    #[must_use]
    pub fn spec(&self) -> &ProbeSpec {
        &self.spec
    }

    /// The base sampling interval Δ.
    #[must_use]
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The current effective sampling interval `stride × Δ`; widens by
    /// powers of two as the flight recorder decimates. Engines schedule
    /// the next probe event this far ahead.
    #[must_use]
    pub fn interval(&self) -> f64 {
        let stride = self.series.first().map_or(1, |s| s.data.stride());
        stride as f64 * self.base
    }

    /// Feeds one probe tick at sim time `now` into every series.
    pub fn record(&mut self, now: f64, sample: &ProbeSample) {
        for s in &mut self.series {
            s.data.record(now, (s.read)(sample));
        }
    }

    /// Deterministically merges per-shard recorders (in shard order) into
    /// one: shared series combine sample-by-sample under their merge op
    /// (sum for counts, max for queue peaks), per-shard series pass
    /// through unchanged. All shards feed the same tick schedule, so the
    /// sample times agree bit-for-bit by construction.
    ///
    /// # Panics
    ///
    /// Panics if the parts disagree on series layout or tick counts —
    /// impossible for recorders driven by the engine's common
    /// probe schedule.
    #[must_use]
    pub fn merge(mut parts: Vec<Recorder>) -> Recorder {
        let mut acc = parts.remove(0);
        for part in parts {
            let mut shared = 0;
            for ps in part.series {
                if ps.op == MergeOp::Keep {
                    acc.series.push(ps);
                    continue;
                }
                let s = &mut acc.series[shared];
                shared += 1;
                assert_eq!(s.name, ps.name, "shards disagree on telemetry series");
                match s.op {
                    MergeOp::Sum => s.data.combine_values(&ps.data, |a, b| a + b),
                    MergeOp::Max => s.data.combine_values(&ps.data, f64::max),
                    MergeOp::Keep => unreachable!(),
                }
            }
        }
        acc
    }

    /// Closes the recorder into the serializable [`TelemetryReport`].
    #[must_use]
    pub fn into_report(self) -> TelemetryReport {
        let base = self.base;
        let series = self
            .series
            .into_iter()
            .map(|s| {
                let interval = s.data.stride() as f64 * base;
                let samples = s.data.into_samples();
                let mut w = Welford::new();
                for &(_, v) in &samples {
                    w.push(v);
                }
                let (min, max) = if w.count() == 0 {
                    (0.0, 0.0)
                } else {
                    (w.min(), w.max())
                };
                SeriesReport {
                    name: s.name,
                    interval,
                    min,
                    mean: w.mean(),
                    max,
                    samples,
                }
            })
            .collect();
        TelemetryReport {
            schema: TELEMETRY_SCHEMA.to_string(),
            interval: base,
            capacity: TELEMETRY_CAPACITY,
            series,
        }
    }
}

/// One rendered telemetry series: summary statistics plus the retained
/// `(time, value)` samples at the series' effective interval.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesReport {
    /// Series name (`nsys`, `maxq`, `drops`, `delivered`, or a per-shard
    /// name such as `shard2:events`).
    pub name: String,
    /// Effective sampling interval `stride × Δ` after any decimation.
    pub interval: f64,
    /// Smallest retained sample value (0 when the series is empty).
    pub min: f64,
    /// Mean of the retained sample values.
    pub mean: f64,
    /// Largest retained sample value (0 when the series is empty).
    pub max: f64,
    /// Retained `(time, value)` samples, oldest first.
    pub samples: Vec<(f64, f64)>,
}

/// The telemetry output of a probed run (schema
/// `meshbound.telemetry/v1`), attached to `SimResult::telemetry` and
/// sweep cells, and written by `repro scenario … --telemetry out.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Schema tag, [`TELEMETRY_SCHEMA`].
    pub schema: String,
    /// Base sampling interval Δ of the run.
    pub interval: f64,
    /// Per-series retention capacity (flight-recorder bound).
    pub capacity: usize,
    /// The sampled series, in deterministic order: shared series first
    /// (nsys, maxq, drops, delivered), then per-shard series by shard.
    pub series: Vec<SeriesReport>,
}

impl TelemetryReport {
    /// Compact JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Pretty (two-space-indented) JSON rendering.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Text rendering for `repro timeline`: one block per series with
    /// min/mean/max and a coarse ASCII trajectory (each column is the
    /// mean of its time bucket, mapped onto a 9-level density ramp).
    #[must_use]
    pub fn render_timeline(&self) -> String {
        const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];
        const WIDTH: usize = 64;
        let mut out = format!(
            "telemetry {} | base interval {} | capacity {}\n",
            self.schema, self.interval, self.capacity
        );
        for s in &self.series {
            out.push_str(&format!(
                "  {:<16} dt={:<10} n={:<4} min={:.4} mean={:.4} max={:.4}\n",
                s.name,
                s.interval,
                s.samples.len(),
                s.min,
                s.mean,
                s.max
            ));
            if s.samples.is_empty() {
                continue;
            }
            let cols = WIDTH.min(s.samples.len());
            let per = s.samples.len() as f64 / cols as f64;
            let span = s.max - s.min;
            let mut line = String::with_capacity(cols + 4);
            line.push_str("  [");
            for c in 0..cols {
                let lo = (c as f64 * per) as usize;
                let hi = (((c + 1) as f64 * per) as usize).max(lo + 1);
                let bucket = &s.samples[lo..hi.min(s.samples.len())];
                let mean = bucket.iter().map(|p| p.1).sum::<f64>() / bucket.len() as f64;
                let level = if span > 0.0 {
                    (((mean - s.min) / span) * (RAMP.len() - 1) as f64).round() as usize
                } else {
                    RAMP.len() / 2
                };
                line.push(RAMP[level.min(RAMP.len() - 1)]);
            }
            line.push_str("]\n");
            out.push_str(&line);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_token_round_trips() {
        for token in [
            "nsys",
            "maxq",
            "nsys,maxq",
            "nsys,maxq,drops,delivered,shards",
            "drops,shards@2.5",
            "nsys@10",
        ] {
            let spec = ProbeSpec::parse_token(token).unwrap().unwrap();
            assert_eq!(spec.spec_token(), token, "round trip of `{token}`");
            let again = ProbeSpec::parse_token(&spec.spec_token()).unwrap().unwrap();
            assert_eq!(again, spec);
        }
        assert_eq!(ProbeSpec::parse_token("none").unwrap(), None);
        // `all` expands to every series.
        let all = ProbeSpec::parse_token("all@5").unwrap().unwrap();
        assert_eq!(all.spec_token(), "nsys,maxq,drops,delivered,shards@5");
    }

    #[test]
    fn parse_token_rejects_malformed() {
        for bad in ["", "speed", "nsys@", "nsys@0", "nsys@-3", "nsys@inf", "@5"] {
            assert!(ProbeSpec::parse_token(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn recorder_decimates_and_reports() {
        let spec = ProbeSpec::parse_token("nsys,maxq@1").unwrap().unwrap();
        let mut rec = Recorder::for_shard(&spec, 1e9, 0);
        let mut t = 0.0;
        for _ in 0..10_000 {
            t += rec.interval();
            rec.record(
                t,
                &ProbeSample {
                    nsys: t,
                    maxq: 2.0 * t,
                    ..ProbeSample::default()
                },
            );
        }
        let report = rec.into_report();
        assert_eq!(report.schema, TELEMETRY_SCHEMA);
        assert_eq!(report.series.len(), 2);
        for s in &report.series {
            assert!(s.samples.len() <= TELEMETRY_CAPACITY);
            assert!(!s.samples.is_empty());
            // Effective interval widened to a power-of-two multiple.
            let stride = s.interval / report.interval;
            assert!(stride >= 1.0 && (stride as u64).is_power_of_two());
        }
        let text = report.render_timeline();
        assert!(text.contains("nsys") && text.contains("maxq"));
    }

    #[test]
    fn merge_sums_and_maxes_shared_series() {
        let spec = ProbeSpec::parse_token("nsys,maxq,shards@1")
            .unwrap()
            .unwrap();
        let mut parts: Vec<Recorder> = (0..3)
            .map(|k| Recorder::for_shard(&spec, 100.0, k))
            .collect();
        for tick in 1..=20 {
            let t = tick as f64;
            for (k, rec) in parts.iter_mut().enumerate() {
                rec.record(
                    t,
                    &ProbeSample {
                        nsys: 1.0 + k as f64,
                        maxq: 10.0 * (k + 1) as f64,
                        events: t,
                        qmass: k as f64,
                        cut: 0.0,
                        ..ProbeSample::default()
                    },
                );
            }
        }
        let report = Recorder::merge(parts).into_report();
        // Shared series first, then 3 shards × (events, qmass, cut).
        assert_eq!(report.series.len(), 2 + 9);
        let nsys = &report.series[0];
        assert_eq!(nsys.name, "nsys");
        assert!(nsys.samples.iter().all(|&(_, v)| v == 6.0));
        let maxq = &report.series[1];
        assert_eq!(maxq.name, "maxq");
        assert!(maxq.samples.iter().all(|&(_, v)| v == 30.0));
        assert_eq!(report.series[2].name, "shard0:events");
        assert_eq!(report.series[5].name, "shard1:events");
        assert_eq!(report.series[9].name, "shard2:qmass");
        // Every series keeps each of the 20 ticks once.
        assert!(report.series.iter().all(|s| s.samples.len() == 20));
    }
}
