//! The parallel sweep executor: expanded scenario grids in, a
//! machine-readable report out.
//!
//! [`run_sweep`] executes a [`SweepSpec`] (or [`run_cells`] any explicit
//! cell list, which is how the paper-table harnesses ride the engine):
//! every cell is simulated with its replications, paired with its analytic
//! [`BoundsReport`], and judged against the bounds. The result is a
//! [`SweepReport`] that serializes to schema-versioned JSON
//! ([`SweepReport::to_json`]) so CI can gate on it and archive it:
//!
//! ```
//! use meshbound::sweep::{run_sweep, Jobs, SCHEMA};
//! use meshbound::SweepSpec;
//!
//! let spec = SweepSpec::parse("topo=mesh:4 load=rho:0.2 horizon=400 warmup=40").unwrap();
//! let report = run_sweep(&spec, Jobs::Sequential).unwrap();
//! assert_eq!(report.schema, SCHEMA);
//! assert!(report.cells[0].within_bounds);
//! ```
//!
//! Cell *results* are bit-deterministic: a grid run sequentially
//! ([`Jobs::Sequential`]) and the same grid run on every core
//! ([`Jobs::Parallel`]) produce identical simulated numbers, because each
//! cell carries its own derived seed and the executor preserves input
//! order. Only the wall-clock fields differ; strip them with
//! [`SweepReport::without_timings`] before comparing reports.

use crate::report::{BoundsReport, DegradationReport};
use meshbound_sim::{DropCounts, FaultSpec, Scenario, SweepError, SweepSpec, TelemetryReport};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema identifier embedded in every report; bump when the JSON layout
/// changes shape. v2 added `events_processed`/`events_per_sec` to every
/// cell; v3 added the per-cell `traffic` workload label; v4 split each
/// cell's wall clock into `setup_s` (the cell's one rate resolution and
/// its analytic bounds) and `sim_s` (replication hot loop) and redefined
/// `events_per_sec` over `sim_s` alone; v5 added the per-cell `router`
/// label alongside the `router=` sweep axis; v6 added the per-cell
/// `faults` label, the `delivered_fraction`/`dropped` drop accounting,
/// and the `degradation` section inside each cell's bounds report; v7
/// added the shared `probes=` telemetry clause and the optional per-cell
/// `telemetry` flight-recorder report (schema `meshbound.telemetry/v1`) —
/// unprobed sweeps serialize byte-identically to v6 apart from this
/// schema tag; v8 dropped `sample_every` from each cell's `scenario`
/// object (the `probes=nsys` series is the one `N(t)` sampler); v9 moved
/// `degradation` out of each cell's bounds report into the cell, as the
/// survey of the fault plans its replications ran, with
/// `delivered_fraction`/`dropped` kept once, on the cell; v10 added the
/// per-cell `final_n`, the mean number in system at the horizon.
pub const SCHEMA: &str = "meshbound.sweep/v10";

/// Tolerance for judging a simulated mean delay against analytic bounds.
///
/// The bounds constrain *expectations*; a finite-horizon simulation
/// estimates them with noise, so the verdict allows
/// `rel · delay + abs` of slack on each side before declaring a
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundsCheck {
    /// Relative slack (fraction of the simulated delay).
    pub rel: f64,
    /// Absolute slack (delay units).
    pub abs: f64,
}

impl Default for BoundsCheck {
    fn default() -> Self {
        Self {
            rel: 0.05,
            abs: 0.5,
        }
    }
}

impl BoundsCheck {
    /// True iff `delay` respects `bounds` within the tolerance. The lower
    /// bound always applies (it is finite for every topology); the upper
    /// bound applies only where the paper proves one (`∞` marks the torus
    /// open problem and saturated operating points).
    #[must_use]
    pub fn verdict(&self, delay: f64, bounds: &BoundsReport) -> bool {
        let slack = self.rel * delay.abs() + self.abs;
        let lower_ok = delay + slack >= bounds.lower_best;
        let upper_ok = !bounds.upper.is_finite() || delay <= bounds.upper + slack;
        lower_ok && upper_ok
    }
}

/// How many workers execute sweep cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Jobs {
    /// One cell at a time on the calling thread (replications inside a
    /// cell still fan out).
    Sequential,
    /// Cells in parallel across the Rayon pool (all cores, or the global
    /// cap installed via `rayon::ThreadPoolBuilder`).
    Parallel,
}

impl Jobs {
    /// Worker count this choice resolves to right now.
    #[must_use]
    pub fn workers(self) -> usize {
        match self {
            Jobs::Sequential => 1,
            Jobs::Parallel => rayon::current_num_threads(),
        }
    }
}

/// One executed sweep cell: the scenario, its simulated statistics, the
/// matching analytic bounds and the verdict.
///
/// `Serialize` is hand-written (field order matches declaration order,
/// like the derive) so the optional `telemetry` section is omitted —
/// rather than emitted as `null` — when the cell ran without probes.
#[derive(Debug, Clone, Deserialize)]
pub struct SweepCellReport {
    /// The cell's full scenario spec string (round-trips through
    /// `Scenario::parse`).
    pub spec: String,
    /// Human-readable topology label.
    pub label: String,
    /// The cell's workload label (e.g. `"uniform"`, `"transpose"`,
    /// `"hotspot:0.25"`, `"src:hotspot:4+uniform"`).
    pub traffic: String,
    /// The cell's router label (`"greedy"`, `"randomized"`,
    /// `"westfirst"` or `"oddeven"`).
    pub router: String,
    /// The cell's fault label (e.g. `"links:0.05"`, `"none"` for a
    /// healthy cell).
    pub faults: String,
    /// The structured scenario (topology, router, traffic, load, seed, …).
    pub scenario: Scenario,
    /// Replications run for this cell.
    pub reps: usize,
    /// Mean delay across replications.
    pub delay_mean: f64,
    /// 95% Student-t half-width across replications (0 for one
    /// replication). In a faulted cell each replication draws its own
    /// fault plan from its seed, so the interval spans plan-to-plan spread
    /// as well as simulation noise.
    pub delay_half_width: f64,
    /// Mean time-averaged number-in-system across replications.
    pub time_avg_n: f64,
    /// Mean number in system at the horizon across replications; against
    /// [`time_avg_n`](Self::time_avg_n) it tells a growing backlog from a
    /// stable one.
    pub final_n: f64,
    /// Mean remaining-work ratio `r = E[R]/E[N]` across replications.
    pub r_ratio: f64,
    /// Mean saturated ratio `r_s = E[R_s]/E[N]` across replications.
    pub rs_ratio: f64,
    /// Mean delivered throughput (packets per unit time) across
    /// replications.
    pub throughput: f64,
    /// Packets generated, summed over replications.
    pub generated: u64,
    /// Packets delivered, summed over replications.
    pub completed: u64,
    /// `completed / generated` over all replications (1 minus the drop
    /// and still-in-flight fractions; 0 when nothing was generated).
    pub delivered_fraction: f64,
    /// Fault-induced drops by cause, summed over replications (all zero
    /// for healthy cells).
    pub dropped: DropCounts,
    /// The fault plans of the cell's replications, surveyed and averaged
    /// ([`DegradationReport::survey`] at
    /// [`Scenario::replication_seed`]`(0..reps)`); `None` for a healthy
    /// cell.
    pub degradation: Option<DegradationReport>,
    /// Future-event-list events processed, summed over replications
    /// (deterministic: a pure work measure).
    pub events_processed: u64,
    /// Simulator throughput over the hot loop alone: total
    /// `events_processed` divided by [`sim_s`](Self::sim_s). Setup work
    /// (bounds, edge-rate derivation) is excluded, so this measures the
    /// event loop rather than the cell overhead. A timing field, zeroed by
    /// [`SweepReport::without_timings`].
    pub events_per_sec: f64,
    /// The analytic report at this cell's operating point.
    pub bounds: BoundsReport,
    /// Whether the simulated delay respects the bounds (see
    /// [`BoundsCheck`]); vacuously true where no finite bound applies,
    /// and for faulted cells — the analytic bounds describe the healthy
    /// topology and do not constrain a degraded one.
    pub within_bounds: bool,
    /// Whether a finite upper bound constrained this cell (the torus has
    /// none, and saturated loads push the Theorem 7 bound to `∞`).
    pub upper_bound_finite: bool,
    /// Wall-clock seconds of cell setup: the cell's one rate resolution
    /// ([`Scenario::resolve`]), the analytic [`BoundsReport`] built from
    /// it and, in a faulted cell, the survey of its fault plans.
    pub setup_s: f64,
    /// Wall-clock seconds of the replication hot loop
    /// ([`Scenario::run_replicated_at`]), which runs at the resolved λ and
    /// solves nothing.
    pub sim_s: f64,
    /// Wall-clock seconds this cell took (simulation + bounds).
    pub wall_s: f64,
    /// Flight-recorder telemetry of the cell's first replication, when
    /// the sweep's `probes=` clause was set (schema
    /// `meshbound.telemetry/v1`). Omitted from the JSON entirely when
    /// absent.
    pub telemetry: Option<TelemetryReport>,
}

impl SweepCellReport {
    /// The delay interval's half-width as a text column prints it: `n/a`
    /// for one replication, which has no interval (the JSON keeps `0`).
    #[must_use]
    pub fn half_width_text(&self) -> String {
        if self.reps < 2 {
            "n/a".into()
        } else {
            format!("{:.3}", self.delay_half_width)
        }
    }
}

impl Serialize for SweepCellReport {
    fn serialize(&self, w: &mut serde::json::Writer) {
        w.begin_object();
        w.field("spec", &self.spec);
        w.field("label", &self.label);
        w.field("traffic", &self.traffic);
        w.field("router", &self.router);
        w.field("faults", &self.faults);
        w.field("scenario", &self.scenario);
        w.field("reps", &self.reps);
        w.field("delay_mean", &self.delay_mean);
        w.field("delay_half_width", &self.delay_half_width);
        w.field("time_avg_n", &self.time_avg_n);
        w.field("final_n", &self.final_n);
        w.field("r_ratio", &self.r_ratio);
        w.field("rs_ratio", &self.rs_ratio);
        w.field("throughput", &self.throughput);
        w.field("generated", &self.generated);
        w.field("completed", &self.completed);
        w.field("delivered_fraction", &self.delivered_fraction);
        w.field("dropped", &self.dropped);
        w.field("degradation", &self.degradation);
        w.field("events_processed", &self.events_processed);
        w.field("events_per_sec", &self.events_per_sec);
        w.field("bounds", &self.bounds);
        w.field("within_bounds", &self.within_bounds);
        w.field("upper_bound_finite", &self.upper_bound_finite);
        w.field("setup_s", &self.setup_s);
        w.field("sim_s", &self.sim_s);
        w.field("wall_s", &self.wall_s);
        if let Some(telemetry) = &self.telemetry {
            w.field("telemetry", telemetry);
        }
        w.end_object();
    }
}

/// A complete executed sweep: header, per-cell results, timing roll-up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Report schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// The sweep spec string (grammar form for grammar-driven sweeps, a
    /// descriptive name for programmatic cell lists).
    pub spec: String,
    /// Worker configuration the sweep ran under.
    pub jobs: Jobs,
    /// Worker count [`SweepReport::jobs`] resolved to.
    pub workers: usize,
    /// Replications per cell.
    pub reps: usize,
    /// Number of cells.
    pub num_cells: usize,
    /// True iff every cell's `within_bounds` verdict is true.
    pub all_within_bounds: bool,
    /// Relative + absolute tolerance the verdicts used.
    pub tolerance: BoundsCheck,
    /// Per-cell results, in grid order.
    pub cells: Vec<SweepCellReport>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Sum of per-cell wall-clock seconds (the sequential-equivalent
    /// cost).
    pub cells_wall_s: f64,
    /// Measured parallel speedup: `cells_wall_s / wall_s`.
    pub speedup: f64,
}

impl SweepReport {
    /// Compact single-line JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }

    /// Two-space-indented JSON (what `repro sweep --out` writes).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// A copy with every wall-clock field zeroed — the deterministic part
    /// of the report, suitable for bit-exact comparison across runs and
    /// worker counts.
    #[must_use]
    pub fn without_timings(&self) -> Self {
        let mut copy = self.clone();
        copy.jobs = Jobs::Sequential;
        copy.workers = 1;
        copy.wall_s = 0.0;
        copy.cells_wall_s = 0.0;
        copy.speedup = 0.0;
        for cell in &mut copy.cells {
            cell.setup_s = 0.0;
            cell.sim_s = 0.0;
            cell.wall_s = 0.0;
            cell.events_per_sec = 0.0;
        }
        copy
    }

    /// Fixed-width text summary of the grid (one row per cell).
    #[must_use]
    pub fn to_text(&self) -> String {
        use crate::experiments::TextTable;
        let mut t = TextTable::new(&[
            "cell", "T(sim)", "±", "lower", "upper", "bounds", "wall s", "ev/s",
        ]);
        for cell in &self.cells {
            t.row(vec![
                cell.spec.clone(),
                format!("{:.3}", cell.delay_mean),
                cell.half_width_text(),
                format!("{:.3}", cell.bounds.lower_best),
                if cell.bounds.upper.is_finite() {
                    format!("{:.3}", cell.bounds.upper)
                } else {
                    "open".into()
                },
                if cell.within_bounds { "ok" } else { "VIOLATED" }.into(),
                format!("{:.2}", cell.wall_s),
                format!("{:.0}k", cell.events_per_sec / 1e3),
            ]);
        }
        let mut out = format!(
            "sweep: {} ({} cells, reps={}, {} workers)\n",
            self.spec, self.num_cells, self.reps, self.workers
        );
        out.push_str(&t.render());
        if self.cells.iter().any(|c| c.scenario.faults.is_some()) {
            out.push_str(
                "note: a faulted cell's ± spans fault plans as well as simulation noise \
                 (each replication draws its own plan)\n",
            );
        }
        out.push_str(&format!(
            "wall {:.2}s, cells {:.2}s, speedup {:.2}x, bounds {}\n",
            self.wall_s,
            self.cells_wall_s,
            self.speedup,
            if self.all_within_bounds {
                "ok"
            } else {
                "VIOLATED"
            }
        ));
        out
    }
}

/// Expands `spec` and executes the grid.
///
/// # Errors
///
/// Propagates [`SweepSpec::expand`] rejections (empty axes, invalid or
/// duplicate cells).
pub fn run_sweep(spec: &SweepSpec, jobs: Jobs) -> Result<SweepReport, SweepError> {
    let cells = spec.expand()?;
    Ok(run_cells(&spec.spec_string(), cells, spec.reps, jobs))
}

/// Executes an explicit scenario list as a sweep. This is the entry point
/// the paper-table harnesses use: they construct their exact legacy cells
/// (seeds, horizons) and ride the same parallel engine and report format.
///
/// # Panics
///
/// Panics if `reps == 0` or any cell fails `Scenario::validate`
/// ([`run_sweep`] rejects both up front via [`SweepSpec::expand`]).
#[must_use]
pub fn run_cells(spec: &str, cells: Vec<Scenario>, reps: usize, jobs: Jobs) -> SweepReport {
    assert!(reps >= 1, "a sweep needs at least one replication per cell");
    let check = BoundsCheck::default();
    let t0 = Instant::now();
    let run_one = |sc: &Scenario| run_cell(sc, reps, check);
    let cell_reports: Vec<SweepCellReport> = match jobs {
        Jobs::Sequential => cells.iter().map(run_one).collect(),
        Jobs::Parallel => cells.par_iter().map(run_one).collect(),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cells_wall_s: f64 = cell_reports.iter().map(|c| c.wall_s).sum();
    SweepReport {
        schema: SCHEMA.to_string(),
        spec: spec.to_string(),
        jobs,
        workers: jobs.workers(),
        reps,
        num_cells: cell_reports.len(),
        all_within_bounds: cell_reports.iter().all(|c| c.within_bounds),
        tolerance: check,
        cells: cell_reports,
        wall_s,
        cells_wall_s,
        speedup: if wall_s > 0.0 {
            cells_wall_s / wall_s
        } else {
            1.0
        },
    }
}

/// Simulates one cell and assembles its report.
///
/// The cell resolves its rates once: the analytic bounds and every
/// replication read that one resolution, so `sim_s` times the event loop
/// alone.
///
/// # Panics
///
/// Panics if the cell's scenario fails [`Scenario::resolve`].
fn run_cell(sc: &Scenario, reps: usize, check: BoundsCheck) -> SweepCellReport {
    let t0 = Instant::now();
    let rates = sc.resolve().unwrap_or_else(|e| panic!("{e}"));
    let bounds = BoundsReport::compute_with(sc, &rates);
    let seeds = (0..reps).map(|i| sc.replication_seed(i));
    let degradation = DegradationReport::survey(sc, &bounds, seeds);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let rep = sc.run_replicated_at(rates, reps);
    let sim_s = t1.elapsed().as_secs_f64();
    let delay_mean = rep.delay.mean();
    let delay_half_width = if reps >= 2 {
        rep.delay.confidence_interval(0.95).half_width
    } else {
        0.0
    };
    let (mut throughput, mut final_n) = (0.0, 0.0);
    let (mut generated, mut completed, mut events_processed) = (0u64, 0u64, 0u64);
    let mut dropped = DropCounts::default();
    for run in &rep.runs {
        throughput += run.completed as f64 / run.measure_time;
        final_n += run.final_n;
        generated += run.generated;
        completed += run.completed;
        events_processed += run.events_processed;
        dropped.merge(&run.dropped);
    }
    throughput /= rep.runs.len() as f64;
    final_n /= rep.runs.len() as f64;
    let delivered_fraction = if generated > 0 {
        completed as f64 / generated as f64
    } else {
        0.0
    };
    // Healthy analytic bounds do not constrain a faulted topology:
    // faulted cells pass vacuously, like cells with no finite upper
    // bound.
    let within_bounds = sc.faults.is_some() || check.verdict(delay_mean, &bounds);
    let events_per_sec = if sim_s > 0.0 {
        events_processed as f64 / sim_s
    } else {
        0.0
    };
    SweepCellReport {
        spec: sc.spec_string(),
        label: sc.label(),
        traffic: sc.traffic.label(),
        router: sc.router.as_str().to_string(),
        faults: sc
            .faults
            .as_ref()
            .map_or_else(|| "none".to_string(), FaultSpec::spec_token),
        scenario: sc.clone(),
        reps,
        delay_mean,
        delay_half_width,
        time_avg_n: rep.n.mean(),
        final_n,
        r_ratio: rep.r_ratio.mean(),
        rs_ratio: rep.rs_ratio.mean(),
        throughput,
        generated,
        completed,
        delivered_fraction,
        dropped,
        degradation,
        events_processed,
        events_per_sec,
        within_bounds,
        upper_bound_finite: bounds.upper.is_finite(),
        bounds,
        setup_s,
        sim_s,
        wall_s: t0.elapsed().as_secs_f64(),
        // One representative trajectory per cell: replications share the
        // cell's physics, so the first run's flight recorder stands for
        // the cell without multiplying report size by `reps`.
        telemetry: rep.runs.first().and_then(|r| r.telemetry.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshbound_sim::SweepSpec;

    fn tiny_at(loads: &str) -> SweepSpec {
        SweepSpec::parse(&format!(
            "topo=mesh:4|torus:4 load={loads} horizon=500 warmup=50"
        ))
        .unwrap()
    }

    fn tiny() -> SweepSpec {
        tiny_at("rho:0.2|rho:0.6")
    }

    #[test]
    fn report_header_and_verdicts() {
        let report = run_sweep(&tiny(), Jobs::Parallel).unwrap();
        assert_eq!(report.schema, SCHEMA);
        assert_eq!(report.num_cells, 4);
        assert_eq!(report.cells.len(), 4);
        assert!(report.all_within_bounds, "{}", report.to_text());
        assert!(report.wall_s > 0.0);
        assert!(report.cells_wall_s > 0.0);
        // Torus cells have no finite upper bound; mesh cells do.
        assert!(report.cells[0].upper_bound_finite);
        assert!(!report.cells[2].upper_bound_finite);
        // Every cell spec round-trips through Scenario::parse.
        for cell in &report.cells {
            let parsed = Scenario::parse(&cell.spec).unwrap();
            assert_eq!(parsed, cell.scenario);
        }
    }

    #[test]
    fn perf_counters_are_populated_and_stripped_with_timings() {
        let report = run_sweep(&tiny_at("rho:0.2"), Jobs::Sequential).unwrap();
        for cell in &report.cells {
            assert!(cell.events_processed > 0, "{}", cell.spec);
            assert!(cell.events_per_sec > 0.0, "{}", cell.spec);
            // v4: the wall clock is split — setup (rate resolution +
            // bounds) and the simulation hot loop are timed separately, and ev/s
            // is events over sim_s alone.
            assert!(cell.setup_s > 0.0, "{}", cell.spec);
            assert!(cell.sim_s > 0.0, "{}", cell.spec);
            assert!(cell.wall_s >= cell.setup_s + cell.sim_s, "{}", cell.spec);
            let expected = cell.events_processed as f64 / cell.sim_s;
            assert!(
                (cell.events_per_sec - expected).abs() < 1e-9 * expected,
                "ev/s is not events/sim_s for {}",
                cell.spec
            );
        }
        let stripped = report.without_timings();
        for cell in &stripped.cells {
            assert!(cell.events_processed > 0); // deterministic: kept
            assert_eq!(cell.events_per_sec, 0.0); // wall-clock: zeroed
            assert_eq!(cell.setup_s, 0.0);
            assert_eq!(cell.sim_s, 0.0);
        }
    }

    #[test]
    fn sequential_and_parallel_agree_bit_for_bit() {
        let seq = run_sweep(&tiny(), Jobs::Sequential).unwrap();
        let par = run_sweep(&tiny(), Jobs::Parallel).unwrap();
        assert_eq!(
            seq.without_timings().to_json(),
            par.without_timings().to_json()
        );
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(a.delay_mean.to_bits(), b.delay_mean.to_bits());
            assert_eq!(a.generated, b.generated);
        }
    }

    #[test]
    fn json_is_schema_versioned_and_machine_readable() {
        let report = run_sweep(&tiny_at("rho:0.2"), Jobs::Sequential).unwrap();
        let json = report.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":\"{SCHEMA}\"")));
        assert!(json.contains("\"within_bounds\":true"));
        assert!(json.contains("\"cells\":["));
        // v3: every cell carries its workload label.
        assert!(json.contains("\"traffic\":\"uniform\""));
        // v5: every cell carries its router label.
        assert!(json.contains("\"router\":\"greedy\""));
        // v6: every cell carries its fault label and drop accounting.
        assert!(json.contains("\"faults\":\"none\""));
        assert!(json.contains("\"delivered_fraction\":"));
        assert!(json.contains("\"link_down\":0"));
        // v9: the degradation section sits on the cell, null when healthy.
        assert!(json.contains("\"link_down\":0},\"degradation\":null"));
        // v10: every cell carries the mean number in system at the horizon.
        assert!(json.contains("\"final_n\":"));
        // The torus's open upper bound serializes as null, not Infinity.
        assert!(json.contains("\"upper\":null"));
        assert!(!json.contains("inf"));
    }

    #[test]
    fn traffic_axis_cells_carry_their_labels_and_check_out() {
        let spec = meshbound_sim::SweepSpec::parse(
            "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 \
             horizon=500 warmup=50 reps=2",
        )
        .unwrap();
        let report = run_sweep(&spec, Jobs::Parallel).unwrap();
        assert_eq!(report.num_cells, 3);
        let labels: Vec<&str> = report.cells.iter().map(|c| c.traffic.as_str()).collect();
        assert_eq!(labels, ["uniform", "transpose", "hotspot:0.25"]);
        // Each workload's simulated delay respects the bounds computed
        // from its own edge-rate vector.
        assert!(report.all_within_bounds, "{}", report.to_text());
        // A healthy grid carries no fault-plan note.
        assert!(!report.to_text().contains("fault plans"));
        // And the JSON carries the labels.
        let json = report.to_json();
        assert!(json.contains("\"traffic\":\"transpose\""));
        assert!(json.contains("\"traffic\":\"hotspot:0.25\""));
    }

    #[test]
    fn faulted_cells_report_degradation_and_pass_bounds_vacuously() {
        let spec = meshbound_sim::SweepSpec::parse(
            "topo=mesh:5 load=rho:0.4 faults=none|links:0.1 horizon=600 warmup=60",
        )
        .unwrap();
        let report = run_sweep(&spec, Jobs::Sequential).unwrap();
        assert_eq!(report.num_cells, 2);
        let healthy = &report.cells[0];
        let faulted = &report.cells[1];
        assert_eq!(healthy.faults, "none");
        assert!(healthy.degradation.is_none());
        assert_eq!(healthy.dropped.total(), 0);
        assert_eq!(faulted.faults, "links:0.1");
        assert!(faulted.dropped.total() > 0, "{}", faulted.spec);
        assert!(faulted.delivered_fraction < healthy.delivered_fraction);
        assert!(faulted.within_bounds, "faulted verdicts are vacuous");
        assert!(report.all_within_bounds);
        let d = faulted.degradation.as_ref().unwrap();
        assert!(d.dead_edges > 0.0);
        assert!((0.0..=1.0).contains(&d.reachable_fraction));
        // The labels and the degradation section reach the JSON, and the
        // delivered fraction and the drops appear there once.
        let json = report.to_json();
        assert!(json.contains("\"faults\":\"links:0.1\""));
        assert!(json.contains("\"degradation\":{"));
        let cell = serde::json::to_string(faulted);
        assert_eq!(cell.matches("\"delivered_fraction\":").count(), 1);
        assert_eq!(cell.matches("\"dropped\":").count(), 1);
        // The text table says what a faulted cell's interval spans.
        assert!(report.to_text().contains("spans fault plans"));
    }

    #[test]
    fn faulted_cells_survey_the_plans_their_replications_ran() {
        let spec = SweepSpec::parse(
            "topo=mesh:8 load=lambda:0.12 faults=links:0.1 reps=2 horizon=300 warmup=30",
        )
        .unwrap();
        let report = run_sweep(&spec, Jobs::Sequential).unwrap();
        let cell = &report.cells[0];
        let sc = &cell.scenario;
        let plans: Vec<(usize, f64)> = (0..2)
            .map(|i| sc.fault_reachability(sc.replication_seed(i)).unwrap())
            .collect();
        let d = cell.degradation.as_ref().unwrap();
        assert_eq!(d.reachable_fraction, (plans[0].1 + plans[1].1) / 2.0);
        assert_eq!(d.dead_edges, (plans[0].0 + plans[1].0) as f64 / 2.0);
        // Not the plan of the cell's own seed, which no replication runs.
        let own = sc.fault_reachability(sc.seed).unwrap().1;
        assert_ne!(d.reachable_fraction, own);
    }

    #[test]
    fn probed_sweeps_attach_telemetry_without_perturbing_results() {
        let base = "topo=mesh:4 load=rho:0.2 horizon=400 warmup=40";
        let plain = run_sweep(&SweepSpec::parse(base).unwrap(), Jobs::Sequential).unwrap();
        let probed = run_sweep(
            &SweepSpec::parse(&format!("{base} probes=nsys,shards")).unwrap(),
            Jobs::Sequential,
        )
        .unwrap();
        // An unprobed report carries no telemetry key at all.
        let plain_json = plain.to_json();
        assert!(!plain_json.contains("telemetry"));
        assert!(plain_json.starts_with("{\"schema\":\"meshbound.sweep/v10\""));
        assert!(plain.cells[0].telemetry.is_none());
        // The probed twin shares the cell seed and every simulated number
        // bit for bit; only the telemetry section differs.
        let (a, b) = (&plain.cells[0], &probed.cells[0]);
        assert_eq!(a.scenario.seed, b.scenario.seed);
        assert_eq!(a.delay_mean.to_bits(), b.delay_mean.to_bits());
        assert_eq!(a.time_avg_n.to_bits(), b.time_avg_n.to_bits());
        assert_eq!(a.events_processed, b.events_processed);
        let telemetry = b
            .telemetry
            .as_ref()
            .expect("probed cell lost its telemetry");
        assert_eq!(telemetry.schema, meshbound_sim::TELEMETRY_SCHEMA);
        let names: Vec<&str> = telemetry.series.iter().map(|s| s.name.as_str()).collect();
        // An `auto` cell is one shard: its `shards` series carry the one
        // shard's counters, with an all-zero cut-handoff series.
        assert_eq!(
            names,
            ["nsys", "shard0:events", "shard0:qmass", "shard0:cut"]
        );
        let cut = &telemetry.series[3];
        assert!(cut.samples.iter().all(|&(_, v)| v == 0.0));
        assert!(telemetry.series.iter().all(|s| !s.samples.is_empty()));
        assert!(probed.to_json().contains("\"telemetry\":{\"schema\":"));
    }

    #[test]
    fn one_replication_prints_no_interval() {
        let mut report = run_sweep(&tiny_at("rho:0.2"), Jobs::Sequential).unwrap();
        let cell = &report.cells[0];
        assert_eq!((cell.reps, cell.delay_half_width), (1, 0.0));
        assert_eq!(cell.half_width_text(), "n/a");
        assert!(report.to_text().contains(" n/a "), "{}", report.to_text());
        // The JSON keeps the documented zero.
        assert!(report.to_json().contains("\"delay_half_width\":0"));
        report.cells[0].reps = 2;
        report.cells[0].delay_half_width = 0.25;
        assert_eq!(report.cells[0].half_width_text(), "0.250");
    }

    #[test]
    fn text_rendering_flags_violations() {
        let mut report = run_sweep(&tiny_at("rho:0.2"), Jobs::Sequential).unwrap();
        assert!(report.to_text().contains("ok"));
        report.cells[0].within_bounds = false;
        assert!(report.to_text().contains("VIOLATED"));
    }
}
