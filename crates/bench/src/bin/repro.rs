//! `repro` — regenerate every table and figure of the paper, or run any
//! scenario named on the command line.
//!
//! ```text
//! repro [--quick] [table1|table2|table3|fig1|fig2|bounds|stability|
//!        capacity|hypercube|butterfly|randomized|torus|kd|slotted|
//!        nonuniform|dominance|report|all]
//! repro [--engine auto|sharded:<N>] scenario <spec> [<spec>…]
//! repro [--shards N] scenario <spec> [<spec>…]
//! repro [--quick] [--engine E] sweep <spec> [--out FILE] [--jobs N] [--check]
//! ```
//!
//! Without `--quick` the publication-scale sweeps run (several minutes for
//! the heavy ρ = 0.99 cells); with it, a reduced but structurally identical
//! pass finishes in seconds per artifact.
//!
//! `repro scenario torus:8,util=0.9,horizon=5000` simulates any
//! [`Scenario`] spec (see `Scenario::parse`) and prints the analytic
//! [`BoundsReport`] next to the simulated result. Unknown artifact names
//! and unknown flags exit nonzero with a usage message.
//!
//! `--engine` sets the engine's shard count (`EngineSpec`) on every
//! scenario or sweep cell named on the command line: `auto` is one shard,
//! `sharded:<N>` partitions the topology across `N` threads (requires
//! deterministic service times when `N >= 2`; deterministic per
//! `(seed, shards)` pair). `--shards N` is shorthand for
//! `--engine sharded:N`.
//!
//! `repro sweep` runs a whole scenario grid in parallel and emits the
//! machine-readable JSON report (`meshbound::sweep`). The spec is either a
//! sweep-grammar string such as
//! `"topo=mesh:5|torus:8 load=rho:0.2|rho:0.8 reps=2"` or one of the
//! predefined paper grids `table1`/`table2`/`table3` (honoring `--quick`).
//! `--out` writes the JSON report, `--jobs 1` forces sequential cell
//! execution (`--jobs N` caps the Rayon pool), and `--check` exits
//! nonzero unless every cell's simulated delay lies within its analytic
//! bounds.

use meshbound::experiments::{extensions, fig1, fig2, table1, table2, table3, Scale};
use meshbound::queueing::load::{mesh_stability_threshold, optimal_stability_threshold};
use meshbound::sweep::{run_cells, run_sweep, Jobs};
use meshbound::{
    set_progress_sink, BoundsReport, EngineSpec, Load, ProbeSpec, Scenario, SweepSpec,
};
use std::io::IsTerminal;
use std::process::ExitCode;

const ARTIFACTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "bounds",
    "stability",
    "capacity",
    "hypercube",
    "butterfly",
    "randomized",
    "torus",
    "kd",
    "slotted",
    "nonuniform",
    "dominance",
    "report",
    "all",
];

fn usage() -> String {
    format!(
        "usage: repro [--quick] [{}]\n\
         \x20      repro [--quick] [--engine auto|sharded:<N>] scenario <spec> [<spec>…]\n\
         \x20      repro [--quick] [--shards N] scenario <spec> [<spec>…]\n\
         \x20      repro [--progress] [--telemetry FILE] scenario <spec>\n\
         \x20      repro [--progress] timeline <spec> [<spec>…]\n\
         \x20      repro [--quick] [--engine E] [--progress] sweep <spec> [--out FILE] [--jobs N] [--check]\n\
         \n\
         scenario specs look like `torus:8,util=0.9,horizon=5000`,\n\
         `mesh:8,traffic=transpose,util=0.5` or (quoted, whitespace and\n\
         commas both separate) `\"hypercube:20 traffic=shuffle\n\
         load=rho:0.5\"` — topology head (mesh:N, mesh:RxC, torus:N,\n\
         hypercube:D, butterfly:K, kd:AxBxC) followed by key=value\n\
         options (router=greedy|randomized|westfirst|oddeven, traffic,\n\
         src, lambda/rho/util or\n\
         load=<convention>:<value>, horizon, warmup, seed, service, slot,\n\
         self, saturated, quantiles, queues, engine, faults).\n\
         \n\
         faults= injects a deterministic failure schedule: none,\n\
         links:<rate>, nodes:<rate>, link:<id>, node:<id>, joined with\n\
         `+` and optionally extended with at:<t> and repair:<dt>, e.g.\n\
         faults=links:0.05+at:100+repair:400. Unroutable packets become\n\
         accounted drops and the output reports the delivered fraction.\n\
         \n\
         traffic= names the workload: uniform, nearby:<stop>,\n\
         bernoulli:<p>, transpose, bitrev, bitcomp, shuffle or\n\
         hotspot:<frac>[:<node>] (dest= is the legacy alias); src= names\n\
         the source model: uniform or hotspot:<weight>[:<node>].\n\
         \n\
         --engine auto|sharded:<N> sets the engine's shard count for every\n\
         scenario or sweep cell (auto is one shard; sharded:N runs the\n\
         conservative parallel engine on N threads, and N >= 2 needs\n\
         service=det); --shards N is shorthand for --engine sharded:N.\n\
         \n\
         probes=<series>[@<dt>] turns on telemetry: deterministic\n\
         sim-clock sampling of nsys, maxq, drops, delivered and/or\n\
         shards (or all; none = off, the default) onto a bounded\n\
         flight-recorder buffer. `repro timeline <spec>` runs a spec\n\
         (defaulting probes=all) and prints each series as an ASCII\n\
         trajectory; `--telemetry FILE` writes the probed scenario's\n\
         meshbound.telemetry/v1 JSON report; `--progress` streams a\n\
         probe-tick progress line to stderr (TTY only).\n\
         \n\
         sweep specs are either table1|table2|table3 (the paper grids at\n\
         the current scale) or an axis grammar like\n\
         `topo=mesh:5|torus:8 load=rho:0.2|rho:0.8\n\
         traffic=uniform|transpose reps=2 seed=7 horizon=auto:1500:12000`\n\
         (axes: topo, load, router, traffic, faults, engine; shared\n\
         knobs: src, service, reps, seed, horizon, warmup, saturated,\n\
         probes).",
        ARTIFACTS.join("|")
    )
}

/// Prints a sweep-usage error and returns the CLI error exit code.
fn sweep_fail(msg: &str) -> ExitCode {
    eprintln!("repro: {msg}\n{}", usage());
    ExitCode::from(2)
}

/// Extracts a leading-or-anywhere `--engine <name>` flag from `args`,
/// returning the engine (if any) or a usage error message.
fn extract_engine(args: &mut Vec<String>) -> Result<Option<EngineSpec>, String> {
    let Some(pos) = args.iter().position(|a| a == "--engine") else {
        return Ok(None);
    };
    let Some(name) = args.get(pos + 1) else {
        return Err("`--engine` needs a value (auto or sharded:<N>)".into());
    };
    let engine = EngineSpec::parse_str(name)?;
    args.drain(pos..=pos + 1);
    if args.iter().any(|a| a == "--engine") {
        return Err("`--engine` given twice".into());
    }
    Ok(Some(engine))
}

/// Extracts a `--shards <N>` flag from `args` — shorthand for
/// `--engine sharded:<N>`.
fn extract_shards(args: &mut Vec<String>) -> Result<Option<EngineSpec>, String> {
    let Some(pos) = args.iter().position(|a| a == "--shards") else {
        return Ok(None);
    };
    let shards = match args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => return Err("`--shards` needs a shard count >= 1".into()),
    };
    args.drain(pos..=pos + 1);
    if args.iter().any(|a| a == "--shards") {
        return Err("`--shards` given twice".into());
    }
    Ok(Some(EngineSpec::Sharded { shards }))
}

/// Extracts a `--telemetry <path>` flag from `args` — the output file for
/// the probed scenario's `meshbound.telemetry/v1` JSON report.
fn extract_telemetry(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == "--telemetry") else {
        return Ok(None);
    };
    let Some(path) = args.get(pos + 1).cloned() else {
        return Err("`--telemetry` needs a file path".into());
    };
    args.drain(pos..=pos + 1);
    if args.iter().any(|a| a == "--telemetry") {
        return Err("`--telemetry` given twice".into());
    }
    Ok(Some(path))
}

/// Extracts a boolean `--progress` flag from `args`.
fn extract_progress(args: &mut Vec<String>) -> bool {
    let before = args.len();
    args.retain(|a| a != "--progress");
    args.len() != before
}

/// Installs a stderr progress line fed by the telemetry probe ticks of the
/// next run: percentage of the sim horizon, events processed, and events
/// per wall-clock second. No-op (returns false) when stderr is not a TTY —
/// redirected logs never fill with carriage returns.
fn install_progress() -> bool {
    if !std::io::stderr().is_terminal() {
        return false;
    }
    let start = std::time::Instant::now();
    set_progress_sink(Some(std::sync::Arc::new(move |now, horizon, events| {
        let pct = (100.0 * now / horizon).min(100.0);
        let secs = start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        };
        eprint!(
            "\r  {pct:5.1}%  t={now:.0}/{horizon:.0}  {events} events  {:.0}k ev/s   ",
            rate / 1e3
        );
    })));
    true
}

/// Clears the progress sink and wipes the stderr line it was drawing.
fn clear_progress() {
    set_progress_sink(None);
    eprint!("\r{:78}\r", "");
}

/// The `repro sweep` subcommand.
fn sweep_command(
    args: &[String],
    mut quick: bool,
    engine: Option<EngineSpec>,
    progress: bool,
) -> ExitCode {
    let mut spec: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut jobs: usize = 0; // 0 = the full Rayon pool
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => match it.next() {
                Some(path) => out = Some(path),
                None => return sweep_fail("`--out` needs a file path"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return sweep_fail("`--jobs` needs a positive integer"),
            },
            flag if flag.starts_with("--") => {
                return sweep_fail(&format!("unknown sweep flag `{flag}`"))
            }
            s if spec.is_none() => spec = Some(s),
            s => return sweep_fail(&format!("unexpected extra sweep spec `{s}`")),
        }
    }
    let Some(spec) = spec else {
        return sweep_fail("`sweep` needs a spec (table1|table2|table3 or an axis grammar)");
    };
    if jobs >= 1 {
        // Cap the whole Rayon pool — with `--jobs 1` this also keeps each
        // cell's replication fan-out on one thread. One-shot global
        // install; a second `repro sweep` in the same process cannot
        // happen, so a prior-init error is moot.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build_global();
    }
    let jobs_mode = if jobs == 1 {
        Jobs::Sequential
    } else {
        Jobs::Parallel
    };
    let scale = if quick { Scale::quick() } else { Scale::full() };
    // An engine override re-engines every cell; seeds are unchanged (the
    // cell seed ignores the engine), and `auto` ≡ `sharded:1`.
    let re_engine = |cells: Vec<Scenario>| -> Vec<Scenario> {
        match engine {
            Some(e) => cells.into_iter().map(|c| c.engine(e)).collect(),
            None => cells,
        }
    };
    // Live progress rides the telemetry probe ticks of probed cells — a
    // sweep without a `probes=` clause has no ticks and stays silent.
    let live = progress && install_progress();
    let report = match spec {
        "table1" => run_cells(
            "table1",
            re_engine(table1::cells(&scale)),
            scale.reps,
            jobs_mode,
        ),
        "table2" => run_cells(
            "table2",
            re_engine(table2::cells(&scale)),
            scale.reps,
            jobs_mode,
        ),
        "table3" => run_cells(
            "table3",
            re_engine(table3::cells(&scale)),
            scale.reps,
            jobs_mode,
        ),
        grammar => {
            let parsed = SweepSpec::parse(grammar).map(|sw| match engine {
                Some(e) => sw.engines(vec![e]),
                None => sw,
            });
            match parsed.and_then(|sw| run_sweep(&sw, jobs_mode)) {
                Ok(report) => report,
                Err(e) => return sweep_fail(&e.to_string()),
            }
        }
    };
    if live {
        clear_progress();
    }
    print!("{}", report.to_text());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, report.to_json_pretty()) {
            eprintln!("repro: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if check && !report.all_within_bounds {
        eprintln!("repro: sweep has cells outside their analytic bounds");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let engine = match (extract_engine(&mut args), extract_shards(&mut args)) {
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("repro: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
        (Ok(Some(_)), Ok(Some(_))) => {
            eprintln!(
                "repro: `--engine` and `--shards` conflict — pick one\n{}",
                usage()
            );
            return ExitCode::from(2);
        }
        (Ok(engine), Ok(shards)) => engine.or(shards),
    };
    let progress = extract_progress(&mut args);
    let telemetry_out = match extract_telemetry(&mut args) {
        Ok(t) => t,
        Err(msg) => {
            eprintln!("repro: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The sweep subcommand has its own flags (`--out`, `--jobs`, `--check`)
    // and is handled separately; only `--quick` may precede it.
    if let Some(pos) = args.iter().position(|a| a == "sweep") {
        if args[..pos].iter().all(|a| a == "--quick") {
            if telemetry_out.is_some() {
                eprintln!(
                    "repro: `--telemetry` applies to the scenario and timeline \
                     commands — `sweep` writes its report with `--out`\n{}",
                    usage()
                );
                return ExitCode::from(2);
            }
            // The guard admits only `--quick` prefixes, so any prefix at
            // all means quick mode.
            return sweep_command(&args[pos + 1..], pos > 0, engine, progress);
        }
    }
    let mut quick = false;
    let mut timeline = false;
    let mut what: Vec<&str> = Vec::new();
    let mut specs: Vec<&str> = Vec::new();
    let mut expecting_specs = false;
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("repro: unknown flag `{flag}`\n{}", usage());
                return ExitCode::from(2);
            }
            "scenario" if !expecting_specs => expecting_specs = true,
            "timeline" if !expecting_specs => {
                expecting_specs = true;
                timeline = true;
            }
            name if expecting_specs => specs.push(name),
            name if ARTIFACTS.contains(&name) => what.push(name),
            name => {
                eprintln!("repro: unknown artifact `{name}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if expecting_specs && specs.is_empty() {
        eprintln!(
            "repro: `{}` needs at least one spec\n{}",
            if timeline { "timeline" } else { "scenario" },
            usage()
        );
        return ExitCode::from(2);
    }

    let scale = if quick { Scale::quick() } else { Scale::full() };

    if engine.is_some() && !expecting_specs {
        eprintln!(
            "repro: `--engine`/`--shards` apply to the scenario and sweep commands\n{}",
            usage()
        );
        return ExitCode::from(2);
    }
    if (telemetry_out.is_some() || progress) && !expecting_specs {
        eprintln!(
            "repro: `--telemetry`/`--progress` apply to the scenario, timeline \
             and sweep commands\n{}",
            usage()
        );
        return ExitCode::from(2);
    }
    if telemetry_out.is_some() && specs.len() != 1 {
        eprintln!(
            "repro: `--telemetry` writes one report — give exactly one spec\n{}",
            usage()
        );
        return ExitCode::from(2);
    }

    // Parse every spec before running any, so a typo in the last spec
    // cannot waste the minutes the first ones take.
    let mut scenarios = Vec::new();
    for spec in specs {
        match Scenario::parse(spec) {
            Ok(sc) => {
                let mut sc = match engine {
                    Some(e) => sc.engine(e),
                    None => sc,
                };
                // `timeline` and `--telemetry` need series to report;
                // `--progress` needs ticks to fire. A spec that already
                // says `probes=` keeps its own selection.
                if sc.probes.is_none() {
                    if timeline || telemetry_out.is_some() {
                        sc = sc.probes(ProbeSpec::parse_token("all").unwrap().unwrap());
                    } else if progress {
                        sc = sc.probes(ProbeSpec::parse_token("nsys").unwrap().unwrap());
                    }
                }
                scenarios.push(sc);
            }
            Err(e) => {
                eprintln!("repro: {e}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    for sc in &scenarios {
        let live = progress && install_progress();
        let ran = run_scenario(sc);
        if live {
            clear_progress();
        }
        let res = match ran {
            Ok(res) => res,
            Err(code) => return code,
        };
        if timeline {
            match &res.telemetry {
                Some(tel) => print!("{}", tel.render_timeline()),
                None => println!("  (no telemetry: spec says probes=none)"),
            }
        }
        if let Some(path) = &telemetry_out {
            let Some(tel) = &res.telemetry else {
                eprintln!("repro: `--telemetry` needs probes — spec says probes=none");
                return ExitCode::from(2);
            };
            if let Err(e) = std::fs::write(path, tel.to_json_pretty()) {
                eprintln!("repro: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
    }

    if what.is_empty() && !expecting_specs {
        what.push("all");
    }
    let wants = |name: &str| what.contains(&name) || what.contains(&"all");

    if wants("fig1") {
        println!("{}", fig1::render(&fig1::run(5)));
    }
    if wants("fig2") {
        let (even, odd) = fig2::run(4, 5);
        println!("{}", fig2::render(&even, &odd));
    }
    if wants("table1") {
        println!("Table I — simulation vs M/D/1 estimate (λ = 4ρ/n)");
        println!("{}", table1::render(&table1::run(&scale)));
    }
    if wants("table2") {
        println!("Table II — r = E[R]/E[N]");
        println!("{}", table2::render(&table2::run(&scale)));
    }
    if wants("table3") {
        println!("Table III — r_s at ρ = 0.99");
        println!("{}", table3::render(&table3::run(&scale)));
    }
    if wants("bounds") {
        let rhos = [0.2, 0.5, 0.8, 0.9, 0.95, 0.99];
        for n in [8usize, 9] {
            let rows = extensions::bounds_curve(n, &rhos, &scale);
            println!("{}", extensions::render_bounds_curve(n, &rows));
        }
    }
    if wants("stability") {
        for n in [6usize, 7] {
            let thr = mesh_stability_threshold(n);
            let lambdas = [0.8 * thr, 0.95 * thr, 1.05 * thr, 1.2 * thr];
            let rows = extensions::stability_sweep(n, &lambdas, false, &scale);
            println!("{}", extensions::render_stability(n, &rows));
        }
        // Optimal allocation: stable between 4/n and 6/(n+1).
        let n = 6;
        let mid = 0.5 * (mesh_stability_threshold(n) + optimal_stability_threshold(n));
        let rows = extensions::stability_sweep(n, &[mid], true, &scale);
        println!("{}", extensions::render_stability(n, &rows));
    }
    if wants("capacity") {
        let n = 8;
        let lambdas = [0.1, 0.2, 0.3, 0.4];
        let rows = extensions::capacity_comparison(n, &lambdas, &scale);
        println!("{}", extensions::render_capacity(n, &rows));
    }
    if wants("hypercube") {
        let rows = extensions::hypercube_study(8, &[0.1, 0.25, 0.5, 0.75, 0.9], 0.9, &scale);
        println!("{}", extensions::render_hypercube(8, &rows));
    }
    if wants("butterfly") {
        let rows = extensions::butterfly_study(&[2, 3, 4, 5, 6], 0.9, &scale);
        println!("{}", extensions::render_butterfly(&rows));
    }
    if wants("randomized") {
        let rows = extensions::randomized_study(10, &[0.2, 0.5, 0.8, 0.9], &scale);
        println!("{}", extensions::render_randomized(10, &rows));
    }
    if wants("torus") {
        let n = 8;
        let lambdas = [0.1, 0.2, 0.3, 0.4];
        let rows = extensions::torus_study(n, &lambdas, &scale);
        println!("{}", extensions::render_torus(n, &rows));
    }
    if wants("kd") {
        let rows = extensions::kd_study(
            &[vec![4, 4], vec![3, 3, 3], vec![4, 4, 4], vec![3, 3, 3, 3]],
            0.1,
            &scale,
        );
        println!("{}", extensions::render_kd(&rows));
    }
    if wants("slotted") {
        let rows = extensions::slotted_study(8, 0.7, &[0.25, 0.5, 1.0, 2.0], &scale);
        println!("{}", extensions::render_slotted(8, 0.7, &rows));
    }
    if wants("nonuniform") {
        let rows = extensions::nearby_study(8, &[0.25, 0.5, 0.75], 0.4, &scale);
        println!("{}", extensions::render_nearby(8, 0.4, &rows));
    }
    if wants("dominance") {
        let rows = extensions::dominance_study(8, &[0.2, 0.5, 0.8, 0.9], &scale);
        println!("{}", extensions::render_dominance(8, &rows));
    }
    if wants("report") {
        for n in [5usize, 10, 20] {
            println!(
                "{}",
                BoundsReport::compute(n, Load::TableRho(0.9)).to_text()
            );
        }
    }
    ExitCode::SUCCESS
}

/// Simulates one parsed scenario and prints the analytic report next to
/// the measured delay, returning the full result (the `timeline` and
/// `--telemetry` paths read its telemetry). A mid-simulation failure is a
/// structured single-line error on stderr and a nonzero exit — never a
/// panic backtrace.
fn run_scenario(sc: &Scenario) -> Result<meshbound::sim::SimResult, ExitCode> {
    println!("scenario: {}", sc.spec_string());
    print!("{}", BoundsReport::compute_for(sc).to_text());
    let res = match sc.try_run() {
        Ok(res) => res,
        Err(e) => {
            eprintln!("repro: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    println!(
        "  simulated: T = {:.3} (completed {} packets, E[N] = {:.2}, \
         Little cross-check {:.3}, peak edge utilization {:.3})",
        res.avg_delay, res.completed, res.time_avg_n, res.little_delay, res.max_edge_utilization
    );
    if sc.faults.is_some() {
        println!(
            "  degraded: delivered {:.4} of generated; drops: dead-end {}, \
             local-min {}, ttl {}, link-down {}",
            res.delivered_fraction,
            res.dropped.dead_end,
            res.dropped.local_minimum,
            res.dropped.ttl_exceeded,
            res.dropped.link_down
        );
    }
    println!(
        "  engine {}: {} events at {:.0}k events/s\n",
        sc.engine,
        res.events_processed,
        res.events_per_sec / 1e3
    );
    Ok(res)
}
