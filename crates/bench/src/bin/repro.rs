//! `repro` — regenerate every table and figure of the paper, or run any
//! scenario or sweep named on the command line.
//!
//! ```text
//! repro [--quick] [fig1|fig2|table1|table2|table3|bounds|stability|
//!        capacity|hypercube|butterfly|randomized|torus|kd|slotted|
//!        nonuniform|dominance|report|all]…
//! repro [--progress] [--telemetry FILE] scenario <spec>…
//! repro [--progress] [--telemetry FILE] timeline <spec>…
//! repro [--quick] [--progress] [--out FILE] [--jobs N] [--check] sweep <spec>
//! ```
//!
//! The command line is read once, by `parse_args`, against two tables:
//! `FLAGS` gives every flag, the value it takes and the commands it
//! applies to; `ARTIFACTS` lists the paper artifacts in output order. The
//! first positional word picks the command — `scenario`, `timeline`,
//! `sweep`, or else a list of artifacts (none, or `all`, renders every
//! one). A flag may appear anywhere on the line, once, and only with a
//! command it applies to; `-h`/`--help` anywhere prints the usage. A usage
//! or spec error is one `repro: …` line plus the usage text and exit 2;
//! a failed run, a failed write or a `--check` violation exits 1.
//!
//! Without `--quick` the publication-scale sweeps run (several minutes for
//! the heavy ρ = 0.99 cells); with it, a reduced but structurally identical
//! pass finishes in seconds per artifact.
//!
//! `repro scenario torus:8,util=0.9,horizon=5000` simulates any
//! [`Scenario`] spec (see `Scenario::parse`) and prints the analytic
//! [`BoundsReport`] next to the simulated result (a faulted run adds one
//! `degraded:` line: its drops and the survey of the fault plan it drew);
//! `repro timeline` also draws each telemetry series. A spec picks its
//! own engine with its `engine=auto|sharded:<N>` (or `shards=N`) clause,
//! validated with the rest of the spec: `sharded:<N>` partitions the
//! topology across `N` threads (deterministic service times when
//! `N >= 2`; deterministic per `(seed, shards)` pair).
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
//!
//! Every stdout write goes through `out!`: once the reader has gone
//! (`repro … | head`), the process ends at once with status 141 and
//! nothing on stderr. Every stderr write goes through `err!`, which
//! ignores a reader that has gone (`repro … 2>&1 | head -1`): the
//! command keeps its own status, 2 for a usage error and 1 for a failed
//! run.

use meshbound::experiments::{extensions, fig1, fig2, table1, table2, table3, Scale};
use meshbound::queueing::load::{mesh_stability_threshold, optimal_stability_threshold};
use meshbound::sim::spec::{self, Form};
use meshbound::sweep::{run_cells, Jobs};
use meshbound::{
    set_progress_sink, BoundsReport, DegradationReport, Load, ProbeSpec, Scenario, ScenarioError,
    SweepSpec,
};
use std::io::{IsTerminal, Write};
use std::process::ExitCode;

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `print!` to stderr through [`write_stderr`].
macro_rules! err {
    ($($arg:tt)*) => {
        write_stderr(format_args!($($arg)*))
    };
}

/// Writes to stdout. A reader that has gone (`repro … | head`) ends the
/// process at once with the shell's SIGPIPE status, 141, and nothing on
/// stderr; any other write failure is a `repro:` line and exit 1.
fn write_stdout(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        err!("repro: cannot write to stdout: {e}\n");
        std::process::exit(1);
    }
}

/// Writes to stderr and ignores a failed write: the message has nowhere
/// else to go, and the caller's exit status still reports the problem.
fn write_stderr(args: std::fmt::Arguments) {
    let _ = std::io::stderr().write_fmt(args);
}

/// What a command line asks for, picked by its first positional word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Command {
    /// `-h`/`--help` anywhere on the line: print the usage.
    Help,
    /// Render the named paper artifacts (every one when none is named).
    #[default]
    Artifacts,
    /// Run scenario specs and print each one's bounds and simulation.
    Scenario,
    /// Run scenario specs and draw each one's telemetry series.
    Timeline,
    /// Run one sweep grid and report it as text and JSON.
    Sweep,
}

impl Command {
    /// The command's word on the command line.
    fn name(self) -> &'static str {
        match self {
            Command::Help => "--help",
            Command::Artifacts => "artifacts",
            Command::Scenario => "scenario",
            Command::Timeline => "timeline",
            Command::Sweep => "sweep",
        }
    }
}

/// A parsed command line.
#[derive(Default)]
struct Cli {
    command: Command,
    /// The artifact names, or the specs of `scenario`, `timeline` or
    /// `sweep`.
    words: Vec<String>,
    quick: bool,
    progress: bool,
    telemetry: Option<String>,
    out: Option<String>,
    /// The `--jobs` cap on the Rayon pool; 0 when not given.
    jobs: usize,
    check: bool,
}

impl Cli {
    /// The experiment scale: reduced under `--quick`, else publication.
    fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// One row of the flag table.
struct Flag {
    name: &'static str,
    /// The value the flag takes, as the usage text shows it; empty for a
    /// switch.
    value: &'static str,
    /// The commands the flag applies to.
    commands: &'static [Command],
    /// What the flag does, for the usage text.
    help: &'static str,
    /// Records the flag, with its value, in the parsed command line.
    set: fn(&mut Cli, &str) -> Result<(), String>,
}

impl Flag {
    /// The flag as typed: `--out FILE`, or `--quick` for a switch.
    fn spelled(&self) -> String {
        match self.value {
            "" => self.name.to_string(),
            value => format!("{} {value}", self.name),
        }
    }
}

/// Stores a flag's value in its [`Cli`] field.
fn store<T>(field: &mut T, value: T) -> Result<(), String> {
    *field = value;
    Ok(())
}

/// Every flag `repro` takes (`-h`/`--help` apart).
const FLAGS: &[Flag] = &[
    Flag {
        name: "--quick",
        value: "",
        commands: &[Command::Artifacts, Command::Sweep],
        help: "reduced but structurally identical runs, seconds per artifact",
        set: |cli, _| store(&mut cli.quick, true),
    },
    Flag {
        name: "--progress",
        value: "",
        commands: &[Command::Scenario, Command::Timeline, Command::Sweep],
        help: "stream a probe-tick progress line to stderr (TTY only)",
        set: |cli, _| store(&mut cli.progress, true),
    },
    Flag {
        name: "--telemetry",
        value: "FILE",
        commands: &[Command::Scenario, Command::Timeline],
        help: "write the one spec's meshbound.telemetry/v1 JSON report",
        set: |cli, path| store(&mut cli.telemetry, Some(path.into())),
    },
    Flag {
        name: "--out",
        value: "FILE",
        commands: &[Command::Sweep],
        help: "write the sweep's JSON report",
        set: |cli, path| store(&mut cli.out, Some(path.into())),
    },
    Flag {
        name: "--jobs",
        value: "N",
        commands: &[Command::Sweep],
        help: "cap the thread pool at N >= 1; 1 runs one cell at a time",
        set: |cli, n| match n.parse() {
            Ok(n) if n >= 1 => store(&mut cli.jobs, n),
            _ => Err(format!("`--jobs` needs a positive integer, got `{n}`")),
        },
    },
    Flag {
        name: "--check",
        value: "",
        commands: &[Command::Sweep],
        help: "exit 1 unless every cell lies within its analytic bounds",
        set: |cli, _| store(&mut cli.check, true),
    },
];

/// Renders one artifact as the blocks it prints, each on its own line.
type Render = fn(&Scale) -> Vec<String>;

/// Every paper artifact, in output order.
const ARTIFACTS: &[(&str, Render)] = &[
    ("fig1", |_| vec![fig1::render(&fig1::run(5))]),
    ("fig2", |_| {
        let (even, odd) = fig2::run(4, 5);
        vec![fig2::render(&even, &odd)]
    }),
    ("table1", |scale| {
        vec![
            "Table I — simulation vs M/D/1 estimate (λ = 4ρ/n)".into(),
            table1::render(&table1::run(scale)),
        ]
    }),
    ("table2", |scale| {
        vec![
            "Table II — r = E[R]/E[N]".into(),
            table2::render(&table2::run(scale)),
        ]
    }),
    ("table3", |scale| {
        vec![
            "Table III — r_s at ρ = 0.99".into(),
            table3::render(&table3::run(scale)),
        ]
    }),
    ("bounds", |scale| {
        let rhos = [0.2, 0.5, 0.8, 0.9, 0.95, 0.99];
        [8, 9]
            .map(|n| extensions::render_bounds_curve(n, &extensions::bounds_curve(n, &rhos, scale)))
            .into()
    }),
    ("stability", |scale| {
        let mut blocks: Vec<String> = [6, 7]
            .map(|n| {
                let thr = mesh_stability_threshold(n);
                let lambdas = [0.8 * thr, 0.95 * thr, 1.05 * thr, 1.2 * thr];
                let rows = extensions::stability_sweep(n, &lambdas, false, scale);
                extensions::render_stability(n, &rows)
            })
            .into();
        // Optimal allocation: stable between 4/n and 6/(n+1).
        let n = 6;
        let mid = 0.5 * (mesh_stability_threshold(n) + optimal_stability_threshold(n));
        let rows = extensions::stability_sweep(n, &[mid], true, scale);
        blocks.push(extensions::render_stability(n, &rows));
        blocks
    }),
    ("capacity", |scale| {
        let rows = extensions::capacity_comparison(8, &[0.1, 0.2, 0.3, 0.4], scale);
        vec![extensions::render_capacity(8, &rows)]
    }),
    ("hypercube", |scale| {
        let rows = extensions::hypercube_study(8, &[0.1, 0.25, 0.5, 0.75, 0.9], 0.9, scale);
        vec![extensions::render_hypercube(8, &rows)]
    }),
    ("butterfly", |scale| {
        let rows = extensions::butterfly_study(&[2, 3, 4, 5, 6], 0.9, scale);
        vec![extensions::render_butterfly(&rows)]
    }),
    ("randomized", |scale| {
        let rows = extensions::randomized_study(10, &[0.2, 0.5, 0.8, 0.9], scale);
        vec![extensions::render_randomized(10, &rows)]
    }),
    ("torus", |scale| {
        let rows = extensions::torus_study(8, &[0.1, 0.2, 0.3, 0.4], scale);
        vec![extensions::render_torus(8, &rows)]
    }),
    ("kd", |scale| {
        let shapes = [vec![4, 4], vec![3, 3, 3], vec![4, 4, 4], vec![3, 3, 3, 3]];
        vec![extensions::render_kd(&extensions::kd_study(
            &shapes, 0.1, scale,
        ))]
    }),
    ("slotted", |scale| {
        let rows = extensions::slotted_study(8, 0.7, &[0.25, 0.5, 1.0, 2.0], scale);
        vec![extensions::render_slotted(8, 0.7, &rows)]
    }),
    ("nonuniform", |scale| {
        let rows = extensions::nearby_study(8, &[0.25, 0.5, 0.75], 0.4, scale);
        vec![extensions::render_nearby(8, 0.4, &rows)]
    }),
    ("dominance", |scale| {
        let rows = extensions::dominance_study(8, &[0.2, 0.5, 0.8, 0.9], scale);
        vec![extensions::render_dominance(8, &rows)]
    }),
    ("report", |_| {
        [5, 10, 20]
            .map(|n| BoundsReport::compute(n, Load::TableRho(0.9)).to_text())
            .into()
    }),
];

/// The flags `command` takes, as the usage lines show them.
fn flags_of(command: Command) -> String {
    let flags = FLAGS.iter().filter(|f| f.commands.contains(&command));
    flags
        .map(|f| format!("[{}]", f.spelled()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn usage() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    let flags: String = FLAGS
        .iter()
        .map(|f| format!("  {:<18}{}\n", f.spelled(), f.help))
        .collect();
    format!(
        "usage: repro {} [{}|all]…\n\
         \x20      repro {} scenario <spec>…\n\
         \x20      repro {} timeline <spec>…\n\
         \x20      repro {} sweep <spec>\n\
         \n\
         A flag may appear anywhere on the line, once:\n\
         {flags}\
         \n\
         scenario specs look like `torus:8,util=0.9,horizon=5000`,\n\
         `mesh:8,traffic=transpose,util=0.5` or (quoted, whitespace and\n\
         commas both separate) `\"hypercube:20 traffic=shuffle\n\
         load=rho:0.5 engine=sharded:4\"`: a topology head ({}) followed\n\
         by key=value options, each at most once:\n\
         {}\
         \n\
         sweep specs are either table1|table2|table3 (the paper grids at\n\
         the current scale) or whitespace-separated scenario clauses such as\n\
         `topo=mesh:5|torus:8 load=rho:0.2|rho:0.8 traffic=uniform|transpose\n\
         reps=2 seed=7 horizon=auto:1500:12000`, where an axis takes\n\
         `|`-separated alternatives. Sweep keys:\n\
         {}\
         \n\
         `repro timeline <spec>` runs a spec and prints each telemetry\n\
         series as an ASCII trajectory. `timeline` and `--telemetry` probe\n\
         all series unless the spec names some; probes=none, the default,\n\
         names none. `--progress` alone probes nsys.",
        flags_of(Command::Artifacts),
        names.join("|"),
        flags_of(Command::Scenario),
        flags_of(Command::Timeline),
        flags_of(Command::Sweep),
        spec::TOPO.syntax,
        spec::usage(Form::Scenario),
        spec::usage(Form::Sweep),
    )
}

/// Prints a usage error — one `repro:` line, then the usage text — and
/// returns exit status 2.
fn usage_error(msg: &str) -> ExitCode {
    err!("repro: {msg}\n{}\n", usage());
    ExitCode::from(2)
}

/// Reads a whole command line against [`FLAGS`] and [`ARTIFACTS`]. Pure:
/// every problem comes back as a one-line message.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        cli.command = Command::Help;
        return Ok(cli);
    }
    let mut given: Vec<&Flag> = Vec::new();
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            words.push(arg.clone());
            continue;
        }
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag `{arg}`"));
        };
        if given.iter().any(|g| g.name == arg) {
            return Err(format!("`{arg}` given twice"));
        }
        let value = match flag.value {
            "" => "",
            kind => match it.next() {
                Some(v) if !v.starts_with("--") => v,
                _ => return Err(format!("`{arg}` needs a value ({kind})")),
            },
        };
        (flag.set)(&mut cli, value)?;
        given.push(flag);
    }
    cli.command = [Command::Scenario, Command::Timeline, Command::Sweep]
        .into_iter()
        .find(|c| words.first().is_some_and(|w| w == c.name()))
        .unwrap_or(Command::Artifacts);
    if cli.command != Command::Artifacts {
        words.remove(0);
    }
    if let Some(flag) = given.iter().find(|f| !f.commands.contains(&cli.command)) {
        let command = cli.command.name();
        return Err(format!(
            "`{}` does not apply to {command}; {command} flags: {}",
            flag.name,
            flags_of(cli.command)
        ));
    }
    match cli.command {
        Command::Artifacts => {
            let known = |w: &String| w == "all" || ARTIFACTS.iter().any(|(name, _)| name == w);
            if let Some(w) = words.iter().find(|w| !known(w)) {
                return Err(format!("unknown artifact `{w}`"));
            }
        }
        Command::Sweep if words.is_empty() => {
            return Err("`sweep` needs a spec (table1|table2|table3 or an axis grammar)".into())
        }
        Command::Sweep if words.len() > 1 => {
            return Err(format!("unexpected extra sweep spec `{}`", words[1]))
        }
        command if words.is_empty() => {
            return Err(format!("`{}` needs at least one spec", command.name()))
        }
        _ if cli.telemetry.is_some() && words.len() > 1 => {
            return Err("`--telemetry` writes one report — give exactly one spec".into())
        }
        _ => {}
    }
    cli.words = words;
    Ok(cli)
}

/// Runs `run`, drawing a progress line on stderr from its telemetry probe
/// ticks when `on` and stderr is a TTY (redirected logs never fill with
/// carriage returns): percentage of the sim horizon, events processed,
/// and events per wall-clock second. The line is wiped when `run` ends.
fn with_progress<T>(on: bool, run: impl FnOnce() -> T) -> T {
    if !on || !std::io::stderr().is_terminal() {
        return run();
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
        err!(
            "\r  {pct:5.1}%  t={now:.0}/{horizon:.0}  {events} events  {:.0}k ev/s   ",
            rate / 1e3
        );
    })));
    let result = run();
    set_progress_sink(None);
    err!("\r{:78}\r", "");
    result
}

/// Renders the named artifacts, or every one, in table order.
fn artifacts(cli: &Cli) -> ExitCode {
    let scale = cli.scale();
    let all = cli.words.is_empty() || cli.words.iter().any(|w| w == "all");
    for (name, render) in ARTIFACTS {
        if all || cli.words.iter().any(|w| w == name) {
            for block in render(&scale) {
                out!("{block}\n");
            }
        }
    }
    ExitCode::SUCCESS
}

/// `repro scenario` and `repro timeline`.
fn scenarios(cli: &Cli) -> ExitCode {
    let timeline = cli.command == Command::Timeline;
    // `timeline` and `--telemetry` need series to report; `--progress`
    // needs ticks to fire. A spec that names series keeps its own
    // selection; `probes=none` is the default, so it selects nothing.
    let probes = match (timeline || cli.telemetry.is_some(), cli.progress) {
        (true, _) => "all",
        (false, true) => "nsys",
        (false, false) => "none",
    };
    let probes = ProbeSpec::parse_token(probes).ok().flatten();
    // Parse every spec before running any, so a typo in the last spec
    // cannot waste the minutes the first ones take.
    let scenarios: Result<Vec<Scenario>, _> =
        cli.words.iter().map(|s| Scenario::parse(s)).collect();
    let scenarios = match scenarios {
        Ok(scenarios) => scenarios,
        Err(e) => return usage_error(&e.to_string()),
    };
    for mut sc in scenarios {
        sc.probes = sc.probes.or(probes);
        let res = match with_progress(cli.progress, || run_scenario(&sc)) {
            Ok(res) => res,
            Err(code) => return code,
        };
        // `timeline` and `--telemetry` always run probed (see above).
        let Some(tel) = &res.telemetry else { continue };
        if timeline {
            out!("{}", tel.render_timeline());
        }
        if let Some(path) = &cli.telemetry {
            if let Err(e) = std::fs::write(path, tel.to_json_pretty()) {
                err!("repro: cannot write `{path}`: {e}\n");
                return ExitCode::FAILURE;
            }
            out!("wrote {path}\n");
        }
    }
    ExitCode::SUCCESS
}

/// `repro sweep`: one grid, run in parallel, reported as text and JSON.
fn sweep(cli: &Cli) -> ExitCode {
    let scale = cli.scale();
    let grid = match cli.words[0].as_str() {
        "table1" => Ok(("table1".into(), table1::cells(&scale), scale.reps)),
        "table2" => Ok(("table2".into(), table2::cells(&scale), scale.reps)),
        "table3" => Ok(("table3".into(), table3::cells(&scale), scale.reps)),
        grammar => {
            SweepSpec::parse(grammar).and_then(|sw| Ok((sw.spec_string(), sw.expand()?, sw.reps)))
        }
    };
    let (name, cells, reps) = match grid {
        Ok(grid) => grid,
        Err(e) => return usage_error(&e.to_string()),
    };
    if cli.jobs >= 1 {
        // Cap the whole Rayon pool — with `--jobs 1` this also keeps each
        // cell's replication fan-out on one thread. One-shot global
        // install; a second `repro sweep` in the same process cannot
        // happen, so a prior-init error is moot.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(cli.jobs)
            .build_global();
    }
    let jobs = if cli.jobs == 1 {
        Jobs::Sequential
    } else {
        Jobs::Parallel
    };
    // Live progress rides the telemetry probe ticks of probed cells — a
    // sweep without a `probes=` clause has no ticks and stays silent.
    let report = with_progress(cli.progress, || run_cells(&name, cells, reps, jobs));
    out!("{}", report.to_text());
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, report.to_json_pretty()) {
            err!("repro: cannot write `{path}`: {e}\n");
            return ExitCode::FAILURE;
        }
        out!("wrote {path}\n");
    }
    if cli.check && !report.all_within_bounds {
        err!("repro: sweep has cells outside their analytic bounds\n");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect();
    let parsed = match args {
        Ok(args) => parse_args(&args),
        Err(arg) => Err(format!("argument {arg:?} is not valid UTF-8")),
    };
    let cli = match parsed {
        Ok(cli) => cli,
        Err(msg) => return usage_error(&msg),
    };
    match cli.command {
        Command::Help => {
            out!("{}\n", usage());
            ExitCode::SUCCESS
        }
        Command::Artifacts => artifacts(&cli),
        Command::Scenario | Command::Timeline => scenarios(&cli),
        Command::Sweep => sweep(&cli),
    }
}

/// Simulates one parsed scenario and prints the analytic report next to
/// the measured delay, returning the full result (the `timeline` and
/// `--telemetry` paths read its telemetry). A mid-simulation failure is a
/// structured single-line error on stderr and a nonzero exit — never a
/// panic backtrace.
fn run_scenario(sc: &Scenario) -> Result<meshbound::sim::SimResult, ExitCode> {
    let fail = |e: ScenarioError| {
        err!("repro: {e}\n");
        ExitCode::FAILURE
    };
    out!("scenario: {}\n", sc.spec_string());
    // One resolution serves the report and the run.
    let rates = sc.resolve().map_err(fail)?;
    let bounds = BoundsReport::compute_with(sc, &rates);
    out!("{}", bounds.to_text());
    let res = sc.try_run_at(rates).map_err(fail)?;
    out!(
        "  simulated: T = {:.3} (completed {} packets, E[N] = {:.2}, \
         Little cross-check {:.3}, peak edge utilization {:.3})\n",
        res.avg_delay,
        res.completed,
        res.time_avg_n,
        res.little_delay,
        res.max_edge_utilization
    );
    // The survey of the plan this run drew (the run's seed is the
    // scenario's).
    if let Some(d) = DegradationReport::survey(sc, &bounds, [sc.seed]) {
        out!(
            "  degraded: delivered {:.4} of generated; drops: dead-end {}, \
             local-min {}, ttl {}, link-down {}; {} dead edges, reachability {:.4}, \
             post-fault λ* ≈ {:.4}\n",
            res.delivered_fraction,
            res.dropped.dead_end,
            res.dropped.local_minimum,
            res.dropped.ttl_exceeded,
            res.dropped.link_down,
            d.dead_edges,
            d.reachable_fraction,
            d.post_fault_lambda_star
        );
    }
    out!(
        "  engine {}: {} events\n\n",
        sc.engine,
        res.events_processed
    );
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Flags, values, command words, specs and junk for token soups.
    const SOUP: &[&str] = &[
        "--quick",
        "--progress",
        "--telemetry",
        "--out",
        "--jobs",
        "--check",
        "--help",
        "-h",
        "--engine",
        "--shards",
        "--",
        "-",
        "scenario",
        "timeline",
        "sweep",
        "all",
        "report",
        "fig1",
        "table1",
        "tableX",
        "mesh:3",
        "topo=mesh:4 load=rho:0.2",
        "sharded:2",
        "0",
        "1",
        "-1",
        "t.json",
        "",
        "☃",
    ];

    proptest! {
        #[test]
        fn parse_args_obeys_the_flag_table(
            soups in proptest::collection::vec(proptest::collection::vec(0..SOUP.len(), 0..7), 1..32)
        ) {
            for soup in soups {
                let args: Vec<String> = soup.iter().map(|&i| SOUP[i].to_string()).collect();
                let help = args.iter().any(|a| a == "-h" || a == "--help");
                let cli = match parse_args(&args) {
                    Ok(cli) => cli,
                    Err(msg) => {
                        prop_assert!(!help, "{args:?}: {msg}");
                        prop_assert!(!msg.is_empty() && !msg.contains('\n'), "{args:?}: {msg}");
                        continue;
                    }
                };
                prop_assert_eq!(cli.command == Command::Help, help);
                if help {
                    continue;
                }
                // A value never starts with `--`, so every flag-named
                // token on an accepted line is a given flag.
                for flag in FLAGS {
                    let given = args.iter().filter(|a| *a == flag.name).count();
                    prop_assert!(given <= 1, "{args:?}: {} twice", flag.name);
                    prop_assert!(
                        given == 0 || flag.commands.contains(&cli.command),
                        "{args:?}: {} given to {:?}",
                        flag.name,
                        cli.command
                    );
                }
                match cli.command {
                    Command::Sweep => prop_assert_eq!(cli.words.len(), 1),
                    Command::Scenario | Command::Timeline => {
                        prop_assert!(!cli.words.is_empty(), "{args:?}")
                    }
                    _ => prop_assert!(
                        cli.words
                            .iter()
                            .all(|w| w == "all" || ARTIFACTS.iter().any(|(name, _)| name == w)),
                        "{args:?}"
                    ),
                }
                if cli.telemetry.is_some() {
                    prop_assert_eq!(cli.words.len(), 1);
                }
            }
        }
    }
}
