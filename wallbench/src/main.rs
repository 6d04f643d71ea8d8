//! Wall-clock benchmark of meshbound's scenario front door.
//!
//! Each workload is one scenario spec. A run takes it through the same
//! steps as `repro scenario` — `Scenario::parse`, then
//! `BoundsReport::compute_for`, then `Scenario::try_run` — and checks every
//! result. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of [`layers`], timing
//! calls into each layer's public functions at the workload's own sizes
//! and recording spans around them.
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--workload all` runs every workload in turn, each in its own process.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Operations are
//! packets: `attempted` counts the packets the measured runs accounted
//! for (delivered or dropped by the fault model), and `failed` counts the
//! packets of runs that errored, panicked or failed an output check (an
//! errored run counts as one). Packets the fault model drops are
//! simulated outcomes, reported by `delivered_frac`, not failures.
//! `--smoke` shortens every run, for the self-test.

mod layers;
mod trace;
mod workload;

use layers::{median, LayerInput, LAYER_METRICS};
use meshbound::sim::SimResult;
use meshbound::{BoundsCheck, BoundsReport, EngineSpec, ProbeSpec, Scenario};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::{Workload, WORKLOADS};

/// Cold set-ups per run, each in a fresh process: the unit-rate cache is
/// process-wide, so a second set-up in one process would time a hit. A
/// run starts processes until [`SETUP_BUDGET_S`] is spent, between the
/// minimum and the maximum count: the cheap set-ups, whose few
/// microseconds vary most, get the most samples.
const SETUP_PROCESSES: (usize, usize) = (5, 31);
const SETUP_BUDGET_S: f64 = 3.0;
const SMOKE_SETUP_PROCESSES: usize = 3;
/// Rounds (every seed once) a run makes at least, so every seed's
/// fingerprint is compared against a rerun.
const MIN_ROUNDS: usize = 2;
/// Where the traced run writes its spans and layer table.
const TRACE_DIR: &str = ".bench_out";

/// The end-to-end metrics, in output order.
const SIM_RATE: (&str, &str) = ("sim_rate", "simtime/s");
const SETUP_S: (&str, &str) = ("setup_s", "s");
const PEAK_RSS: (&str, &str) = ("peak_rss_mib", "MiB");
const DELAY_MEAN: (&str, &str) = ("delay_mean", "simtime");
const DELIVERED: (&str, &str) = ("delivered_frac", "ratio");

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Internal: time one cold set-up of this simulation index and exit.
    cold_setup: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: wallbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut cold_setup = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--cold-setup" => {
                cold_setup = Some(value.parse::<usize>().map_err(|_| bad("an index"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if cold_setup.is_some() {
        return Ok(Args {
            workload,
            seed,
            seconds: 0.0,
            trace: false,
            smoke,
            cold_setup,
        });
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        cold_setup,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = argv
        .windows(2)
        .position(|pair| pair[0] == "--workload" && pair[1] == "all")
    {
        return run_all(&argv, at + 1);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.cold_setup {
        Some(k) => cold_setup(&args, k),
        None if args.trace => traced(&args),
        None => end_to_end(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--workload all`: every workload in turn, each in its own process with
/// the same arguments.
fn run_all(argv: &[String], at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wallbench: cannot locate the benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut code = ExitCode::SUCCESS;
    for w in &WORKLOADS {
        let mut args = argv.to_vec();
        args[at] = w.name.to_string();
        if !Command::new(&exe)
            .args(&args)
            .status()
            .is_ok_and(|s| s.success())
        {
            code = ExitCode::FAILURE;
        }
    }
    code
}

// ------------------------------------------------------------------
// Cases, runs and output checks.
// ------------------------------------------------------------------

/// One simulation of a run: its parsed scenario, analytic bounds, and
/// what its first run returned.
struct Case {
    scenario: Scenario,
    bounds: BoundsReport,
    /// `(events_processed, avg_delay bits)` of the first run; every rerun
    /// must match it.
    fingerprint: Option<(u64, u64)>,
    first: Option<SimResult>,
}

impl Case {
    fn new(scenario: Scenario, bounds: BoundsReport) -> Self {
        Self {
            scenario,
            bounds,
            fingerprint: None,
            first: None,
        }
    }

    fn build(spec: &str) -> Result<Self, String> {
        let scenario = Scenario::parse(spec).map_err(|e| format!("{spec}: {e}"))?;
        let bounds = BoundsReport::compute_for(&scenario);
        Ok(Self::new(scenario, bounds))
    }

    /// The output checks; returns every violation.
    fn check(&self, r: &SimResult) -> Vec<String> {
        let mut bad = Vec::new();
        let dropped = r.dropped.total();
        if !(r.avg_delay.is_finite() && r.avg_delay > 0.0 && r.completed > 0) {
            bad.push(format!(
                "no usable delay: T = {}, {} completed",
                r.avg_delay, r.completed
            ));
        }
        if self.scenario.faults.is_some() {
            if r.completed + dropped > r.generated {
                bad.push(format!(
                    "completed {} + dropped {dropped} exceeds generated {}",
                    r.completed, r.generated
                ));
            }
            if dropped == 0 {
                bad.push("a faulted run dropped nothing".to_string());
            }
        } else {
            if r.completed > r.generated {
                bad.push(format!(
                    "completed {} exceeds generated {}",
                    r.completed, r.generated
                ));
            }
            if dropped != 0 {
                bad.push(format!("a healthy run dropped {dropped} packets"));
            }
            if !BoundsCheck::default().verdict(r.avg_delay, &self.bounds) {
                bad.push(format!(
                    "T = {} outside the bounds [{}, {}]",
                    r.avg_delay, self.bounds.lower_best, self.bounds.upper
                ));
            }
        }
        bad
    }

    /// Checks `r`, compares its fingerprint with the first run's, and
    /// keeps the first result.
    fn record(&mut self, r: SimResult) -> Vec<String> {
        let mut bad = self.check(&r);
        let fp = (r.events_processed, r.avg_delay.to_bits());
        match self.fingerprint {
            None => {
                self.fingerprint = Some(fp);
                self.first = Some(r);
            }
            Some(first) if first != fp => bad.push(format!(
                "fingerprint (events {}, T bits {:#x}) differs from the first run's \
                 (events {}, T bits {:#x})",
                fp.0, fp.1, first.0, first.1
            )),
            Some(_) => {}
        }
        bad
    }
}

/// One timed `Scenario::try_run`.
struct Sample {
    case: usize,
    wall_s: f64,
    traced: bool,
    events: u64,
    /// Packets the run accounted for (1 for a run that errored).
    packets: u64,
    problems: Vec<String>,
}

fn run_once(case: &mut Case, index: usize) -> Sample {
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| case.scenario.try_run()));
    let wall_s = t.elapsed().as_secs_f64();
    let mut sample = Sample {
        case: index,
        wall_s,
        traced: false,
        events: 0,
        packets: 1,
        problems: Vec::new(),
    };
    match outcome {
        Ok(Ok(r)) => {
            sample.events = r.events_processed;
            sample.packets = r.completed + r.dropped.total();
            sample.problems = case.record(r);
        }
        Ok(Err(e)) => sample.problems.push(format!("try_run failed: {e}")),
        Err(_) => sample.problems.push("try_run panicked".to_string()),
    }
    sample
}

/// Runs every case once per round, for at least `seconds` and
/// [`MIN_ROUNDS`] rounds. With a tracer, odd rounds run inside spans, so
/// traced and untraced runs interleave.
fn measure(cases: &mut [Case], seconds: f64, mut tracer: Option<&mut Tracer>) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for (k, case) in cases.iter_mut().enumerate() {
            let sample = match tracer.as_deref_mut() {
                Some(t) if round % 2 == 1 => {
                    let mut s = t.span("sim.network.run", |_| run_once(case, k));
                    s.traced = true;
                    s
                }
                _ => run_once(case, k),
            };
            samples.push(sample);
        }
        round += 1;
    }
    samples
}

/// Median of `horizon / wall` over the given runs that passed their checks.
fn sim_rate<'a>(horizon: f64, samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let rates: Vec<f64> = samples
        .filter(|s| s.problems.is_empty())
        .map(|s| horizon / s.wall_s)
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

/// Packet counts and problems over every measured run.
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

fn tally(samples: &[Sample], extra: &[String]) -> Tally {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        problems: extra.to_vec(),
    };
    for s in samples {
        t.attempted += s.packets;
        if !s.problems.is_empty() {
            t.failed += s.packets;
            for p in &s.problems {
                t.problems.push(format!("seed #{}: {p}", s.case));
            }
        }
    }
    t
}

/// First results of every case that produced one.
fn firsts(cases: &[Case]) -> impl Iterator<Item = &SimResult> {
    cases.iter().filter_map(|c| c.first.as_ref())
}

fn mean_over<'a>(
    results: impl Iterator<Item = &'a SimResult>,
    f: impl Fn(&SimResult) -> f64,
) -> f64 {
    let (sum, n) = results.fold((0.0, 0usize), |(s, n), r| (s + f(r), n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

// ------------------------------------------------------------------
// Output.
// ------------------------------------------------------------------

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .env("GIT_DIR", ".git")
            .output()
    };
    match git(&["rev-parse", "HEAD"]) {
        Ok(o) if o.status.success() => {
            let head = String::from_utf8_lossy(&o.stdout).trim().to_string();
            let dirty = git(&["diff", "--quiet", "HEAD"]).is_ok_and(|o| !o.status.success());
            if dirty {
                format!("{head}+uncommitted")
            } else {
                head
            }
        }
        _ => "unknown".to_string(),
    }
}

fn print_header(args: &Args) {
    let w = args.workload;
    println!(
        "wallbench workload={} seed={} seconds={} trace={}{}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    println!(
        "provenance: host_cores={} rustc=\"{}\" profile=\"{}\" commit={} seed={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("WALLBENCH_RUSTC"),
        env!("WALLBENCH_PROFILE"),
        git_commit(),
        args.seed
    );
    let (horizon, warmup) = w.run_length(args.smoke);
    println!(
        "spec: {} horizon={horizon} warmup={warmup}, {} seeds per run",
        w.spec,
        w.seed_count(args.smoke)
    );
}

/// Prints the result line. Non-finite values are a defect: they make the
/// result incorrect and print as 0.
fn print_result(tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let mut correct = tally.problems.is_empty();
    let rows: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() {
                value
            } else {
                correct = false;
                eprintln!("wallbench: {name} is not finite ({value})");
                0.0
            };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        rows.join(", ")
    );
}

fn print_problems(tally: &Tally) {
    if tally.problems.is_empty() {
        println!("checks: every run passed");
    } else {
        println!("checks: {} problems", tally.problems.len());
        for p in tally.problems.iter().take(20) {
            println!("  FAILED {p}");
        }
    }
}

fn print_fingerprints(cases: &[Case]) {
    for (k, c) in cases.iter().enumerate() {
        if let Some((events, bits)) = c.fingerprint {
            println!(
                "fingerprint seed #{k} ({}): events_processed={events} avg_delay_bits={bits:#018x}",
                c.scenario.seed
            );
        }
    }
}

// ------------------------------------------------------------------
// The three modes.
// ------------------------------------------------------------------

/// Child process: one cold `parse` + `compute_for`, printed in seconds.
fn cold_setup(args: &Args, k: usize) -> Result<(), String> {
    let spec = args.workload.spec_for(args.seed, k, args.smoke);
    let t = Instant::now();
    let scenario = Scenario::parse(&spec).map_err(|e| format!("{spec}: {e}"))?;
    let report = BoundsReport::compute_for(&scenario);
    let secs = t.elapsed().as_secs_f64();
    black_box(report);
    println!("{secs}");
    Ok(())
}

/// Cold set-up times, one fresh process each.
fn cold_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let w = args.workload;
    let (min, max) = if args.smoke {
        (SMOKE_SETUP_PROCESSES, SMOKE_SETUP_PROCESSES)
    } else {
        SETUP_PROCESSES
    };
    let start = Instant::now();
    let mut times = Vec::with_capacity(max);
    while times.len() < min || (times.len() < max && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let k = (times.len() % w.seed_count(args.smoke)).to_string();
        let seed = args.seed.to_string();
        let mut cmd = Command::new(&exe);
        cmd.args(["--cold-setup", &k, "--workload", w.name, "--seed", &seed]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start a set-up process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "set-up process failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        times.push(
            stdout
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("set-up process printed {stdout:?}"))?,
        );
    }
    Ok(times)
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn end_to_end(args: &Args) -> Result<(), String> {
    let w = args.workload;
    print_header(args);
    let setups = cold_setups(args)?;
    let setup_s = median(&setups);
    let mut cases = (0..w.seed_count(args.smoke))
        .map(|k| Case::build(&w.spec_for(args.seed, k, args.smoke)))
        .collect::<Result<Vec<_>, _>>()?;
    let (horizon, _) = w.run_length(args.smoke);
    let samples = measure(&mut cases, args.seconds, None);
    let peak_rss = peak_rss_mib()?;

    let tally = tally(&samples, &[]);
    let (completed, dropped) = firsts(&cases).fold((0u64, 0u64), |(c, d), r| {
        (c + r.completed, d + r.dropped.total())
    });
    // The median over seeds: on the faulted workload about one dead set in
    // eight saturates a link and doubles T, which would dominate a mean.
    let delays: Vec<f64> = firsts(&cases).map(|r| r.avg_delay).collect();
    let delay_mean = if delays.is_empty() {
        0.0
    } else {
        median(&delays)
    };
    let delivered = if tally.problems.is_empty() && completed > 0 {
        completed as f64 / (completed + dropped) as f64
    } else {
        0.0
    };
    let rate = sim_rate(horizon, samples.iter());

    println!(
        "setup: {} cold processes, median {setup_s:.6} s (min {:.6}, max {:.6})",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "runs: {} (wall min {:.4} s, median {:.4} s, max {:.4} s)",
        samples.len(),
        samples
            .iter()
            .map(|s| s.wall_s)
            .fold(f64::INFINITY, f64::min),
        median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        samples.iter().map(|s| s.wall_s).fold(0.0, f64::max)
    );
    print_fingerprints(&cases);
    print_problems(&tally);
    let metrics = [
        (SIM_RATE.0, rate, SIM_RATE.1),
        (SETUP_S.0, setup_s, SETUP_S.1),
        (PEAK_RSS.0, peak_rss, PEAK_RSS.1),
        (DELAY_MEAN.0, delay_mean, DELAY_MEAN.1),
        (DELIVERED.0, delivered, DELIVERED.1),
    ];
    for (name, value, unit) in &metrics {
        println!("  {name:<16} {value:>16.6} {unit}");
    }
    print_result(&tally, &metrics);
    Ok(())
}

/// Shard counters of a sharded workload, from a probed rerun of its first
/// seed plus an `engine=auto` run of the same scenario.
struct ShardStats {
    cut_handoffs: f64,
    imbalance: f64,
    speedup_vs_auto: f64,
}

fn shard_stats(
    case: &Case,
    samples: &[Sample],
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<ShardStats, String> {
    let EngineSpec::Sharded { shards } = case.scenario.engine else {
        return Ok(ShardStats {
            cut_handoffs: 0.0,
            imbalance: 1.0,
            speedup_vs_auto: 1.0,
        });
    };
    let probes = ProbeSpec::parse_token("shards")?.ok_or("no probe spec")?;
    let probed = case.scenario.clone().probes(probes);
    let r = tracer
        .span("sim.shard.probed_run", |_| probed.try_run())
        .map_err(|e| format!("probed run failed: {e}"))?;
    if Some((r.events_processed, r.avg_delay.to_bits())) != case.fingerprint {
        problems.push("the probes=shards rerun changed the fingerprint".to_string());
    }
    let telemetry = r.telemetry.ok_or("the probed run returned no telemetry")?;
    let last = |name: String| {
        telemetry
            .series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.samples.last())
            .map_or(0.0, |&(_, v)| v)
    };
    let cut_handoffs: f64 = (0..shards).map(|i| last(format!("shard{i}:cut"))).sum();
    let events: Vec<f64> = (0..shards)
        .map(|i| last(format!("shard{i}:events")))
        .collect();
    let mean = events.iter().sum::<f64>() / shards as f64;
    let imbalance = events.iter().copied().fold(0.0, f64::max) / mean;

    let auto = case.scenario.clone().engine(EngineSpec::Auto);
    let t = Instant::now();
    let r = tracer
        .span("sim.shard.auto_run", |_| auto.try_run())
        .map_err(|e| format!("engine=auto run failed: {e}"))?;
    let auto_s = t.elapsed().as_secs_f64();
    for p in case.check(&r) {
        problems.push(format!("engine=auto rerun: {p}"));
    }
    let own: Vec<f64> = samples
        .iter()
        .filter(|s| s.case == 0)
        .map(|s| s.wall_s)
        .collect();
    Ok(ShardStats {
        cut_handoffs,
        imbalance,
        speedup_vs_auto: auto_s / median(&own),
    })
}

fn traced(args: &Args) -> Result<(), String> {
    let w = args.workload;
    print_header(args);
    let (horizon, _) = w.run_length(args.smoke);
    let mut tracer = Tracer::new();
    let mut problems = Vec::new();

    let root = tracer.span(w.name, |t| -> Result<_, String> {
        let spec = w.spec_for(args.seed, 0, args.smoke);
        let scenario = t
            .span("core.scenario.parse", |_| Scenario::parse(&spec))
            .map_err(|e| format!("{spec}: {e}"))?;
        let shards = match scenario.engine {
            EngineSpec::Sharded { shards } => shards,
            _ => 1,
        };
        let solve = Instant::now();
        let rates = t
            .span("routing.rates.solve", |_| scenario.try_edge_rates())
            .map_err(|e| format!("rate solve failed: {e}"))?;
        let solve_s = solve.elapsed().as_secs_f64();
        let total_edge_rate: f64 = rates.iter().sum();
        drop(rates);
        let bounds_t = Instant::now();
        let bounds = t.span("core.report.bounds", |_| {
            BoundsReport::compute_for(&scenario)
        });
        let bounds_s = bounds_t.elapsed().as_secs_f64();

        let mut cases = vec![Case::new(scenario, bounds)];
        t.span("wallbench.cases", |_| -> Result<(), String> {
            for k in 1..w.seed_count(args.smoke) {
                cases.push(Case::build(&w.spec_for(args.seed, k, args.smoke))?);
            }
            Ok(())
        })?;
        let samples = t.span("wallbench.runs", |t| {
            measure(&mut cases, args.seconds, Some(t))
        });
        let costs = t.span("wallbench.layers", |t| {
            layers::price(
                &LayerInput {
                    scenario: &cases[0].scenario,
                    total_edge_rate,
                    shards,
                },
                t,
            )
        })?;
        let shard = t.span("sim.shard", |t| {
            shard_stats(&cases[0], &samples, t, &mut problems)
        })?;
        Ok((cases, samples, costs, shard, solve_s, bounds_s, shards))
    });
    let (cases, samples, costs, shard, solve_s, bounds_s, shards) = root?;

    // Per-run counts, averaged over the run's seeds.
    let per_run = |f: &dyn Fn(&SimResult) -> f64| mean_over(firsts(&cases), f);
    let events = per_run(&|r| r.events_processed as f64);
    // Every event is an arrival, a departure (one routing decision) or a
    // cross-shard handoff; arrivals are taken at their expected count.
    let arrivals = cases[0].scenario.total_arrival() * horizon;
    let hops = events - arrivals - shard.cut_handoffs;
    let drops = |f: &dyn Fn(&SimResult) -> u64| per_run(&|r| f(r) as f64);
    let run_s = samples.iter().map(|s| s.wall_s).sum::<f64>() / samples.len() as f64;
    let all_events: u64 = samples.iter().map(|s| s.events).sum();
    let ns_per_event =
        samples.iter().map(|s| s.wall_s).sum::<f64>() * 1e9 / all_events.max(1) as f64;
    let layers_sum_s = (events * costs.hold_ns
        + hops * (costs.hop_ns + costs.observer_ns)
        + arrivals * (costs.sample_ns + costs.exp_ns))
        * 1e-9;
    let residual = 1.0 - layers_sum_s / (run_s * shards as f64);
    let traced_rate = sim_rate(horizon, samples.iter().filter(|s| s.traced));
    let untraced_rate = sim_rate(horizon, samples.iter().filter(|s| !s.traced));

    let values: Vec<(&str, f64)> = vec![
        ("sim.network.events", events),
        ("sim.network.ns_per_event", ns_per_event),
        ("sim.network.run_s", run_s),
        ("sim.events.hold_ns", costs.hold_ns),
        ("routing.router.hop_ns", costs.hop_ns),
        ("routing.router.hops", hops),
        ("routing.dest.sample_ns", costs.sample_ns),
        ("sim.rng.exp_ns", costs.exp_ns),
        ("sim.observer.update_ns", costs.observer_ns),
        ("routing.table.build_s", costs.table_build_s),
        ("sim.network.residual_frac", residual),
        ("wallbench.layers.sum_s", layers_sum_s),
        ("routing.rates.solve_s", solve_s),
        ("core.report.bounds_s", bounds_s),
        ("sim.fault.plan_s", costs.plan_s),
        ("sim.fault.drops.dead_end", drops(&|r| r.dropped.dead_end)),
        (
            "sim.fault.drops.local_minimum",
            drops(&|r| r.dropped.local_minimum),
        ),
        (
            "sim.fault.drops.ttl_exceeded",
            drops(&|r| r.dropped.ttl_exceeded),
        ),
        ("sim.fault.drops.link_down", drops(&|r| r.dropped.link_down)),
        ("sim.shard.cut_handoffs", shard.cut_handoffs),
        ("sim.shard.imbalance", shard.imbalance),
        ("sim.shard.speedup_vs_auto", shard.speedup_vs_auto),
        ("wallbench.trace.sim_rate", traced_rate),
        (
            "wallbench.trace.overhead_frac",
            1.0 - traced_rate / untraced_rate,
        ),
    ];
    let metrics: Vec<(&str, f64, &str)> = LAYER_METRICS
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("layer metric {} has no value", m.name));
            (m.name, value, m.unit)
        })
        .collect();

    let tally = tally(&samples, &problems);
    println!(
        "runs: {} ({} traced), untraced sim_rate {untraced_rate:.3}, traced {traced_rate:.3}",
        samples.len(),
        samples.iter().filter(|s| s.traced).count()
    );
    println!(
        "layers: sum {layers_sum_s:.6} s per run against run wall {run_s:.6} s x {shards} \
         worker threads; residual {:.1}%",
        100.0 * residual
    );
    print_fingerprints(&cases);
    print_problems(&tally);
    for (m, &(_, value, _)) in LAYER_METRICS.iter().zip(&metrics) {
        println!(
            "  {:<30} {value:>16.6} {:<9} moves {}; {}",
            m.name,
            m.unit,
            m.moves,
            m.expectation(w.name)
        );
    }
    let path = write_trace(args, &tracer, &metrics)?;
    println!("trace: {} spans written to {path}", tracer.spans().len());
    print_result(&tally, &metrics);
    Ok(())
}

/// Writes the spans and the tagged layer table of a traced run.
fn write_trace(
    args: &Args,
    tracer: &Tracer,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let w = args.workload;
    let quote = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|s| format!("{s:?}")).collect();
        format!("[{}]", q.join(", "))
    };
    let layers: Vec<String> = LAYER_METRICS
        .iter()
        .zip(metrics)
        .map(|(m, &(_, value, _))| {
            format!(
                "{{\"name\": {:?}, \"value\": {value}, \"unit\": {:?}, \"measured_as\": {:?}, \
                 \"moves\": {:?}, \"mostly_on\": {}, \"flat_on\": {}}}",
                m.name,
                m.unit,
                m.measured_as,
                m.moves,
                quote(m.mostly_on),
                quote(m.flat_on)
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"workload\": {:?},\n  \"seed\": {},\n  \"host_cores\": {},\n  \"rustc\": {:?},\n  \
         \"profile\": {:?},\n  \"commit\": {:?},\n  \"layers\": [\n    {}\n  ],\n  \"spans\": {}\n}}\n",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("WALLBENCH_RUSTC"),
        env!("WALLBENCH_PROFILE"),
        git_commit(),
        layers.join(",\n    "),
        tracer.to_json()
    );
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", w.name, args.seed);
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}
