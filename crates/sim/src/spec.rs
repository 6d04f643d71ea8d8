//! The spec grammar's one key table.
//!
//! Every `key=value` clause a scenario spec ([`Scenario::parse`]) or a
//! sweep spec ([`SweepSpec::parse`]) accepts is one [`SpecKey`] row of
//! [`KEYS`]: the key's spellings, its value syntax, example values, its
//! [`Role`] in each grammar, and the two functions that parse a value into
//! a [`Scenario`] and render it back. Both parsers, both renderers,
//! `repro`'s usage text and the grammar fuzz test read these rows. A sweep
//! clause is a scenario clause whose value may list `a|b` alternatives.
//!
//! Scenario specs render their clauses in [`KEYS`] order and leave out a
//! clause whose value is [`Scenario::new`]'s default. Sweep specs render
//! in [`SWEEP_ORDER`]. Neither order may change: a sweep derives each
//! cell's seed from a hash of the cell's scenario spec string, and its
//! report is labelled with its own spec string.
//!
//! [`SweepSpec::parse`]: crate::SweepSpec::parse

use crate::engine::EngineSpec;
use crate::fault::FaultSpec;
use crate::scenario::{default_horizon_for, RouterSpec, Scenario, TopologySpec};
use crate::service::ServiceKind;
use crate::telemetry::ProbeSpec;
use crate::traffic::{PatternSpec, SourceSpec};
use meshbound_queueing::load::Load;
use std::fmt::Write;
use std::str::FromStr;

/// The grammar a value is rendered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// A scenario spec: `rho=0.8`, `shards=4`.
    Scenario,
    /// A sweep spec: `load=rho:0.8`, `engine=sharded:4`.
    Sweep,
}

/// What a key is to each grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The topology: a scenario spec's head, a sweep's first required axis.
    Head,
    /// A scenario key and an axis every sweep must give.
    Required,
    /// A scenario key; a sweep may give `a|b` alternatives.
    Axis,
    /// A scenario key; a sweep gives one value for every cell.
    Shared,
    /// A scenario key with no sweep form.
    ScenarioOnly,
    /// The sweep's replication count (no scenario form).
    Reps,
    /// The scenario seed; in a sweep, the master seed of every cell seed.
    Seed,
    /// The scenario horizon; in a sweep, a fixed horizon or
    /// `auto:<base>:<cap>`.
    Horizon,
    /// The scenario warmup; in a sweep, the warmup of a fixed horizon.
    Warmup,
}

/// One key of the spec grammar.
#[derive(Debug)]
pub struct SpecKey {
    /// Spellings. The first is canonical; the others are shorthands a
    /// scenario spec renders (`rho=0.8` for `load=rho:0.8`, `shards=4` for
    /// `engine=sharded:4`).
    pub names: &'static [&'static str],
    /// The value syntax, as usage text shows it.
    pub syntax: &'static str,
    /// Valid example values, `|`-separated.
    pub example: &'static str,
    /// What the key is to each grammar.
    pub role: Role,
    /// Sets the value given under spelling `name` on a scenario.
    pub(crate) parse: fn(&mut Scenario, &str, &str) -> Result<(), String>,
    /// The value as `(spelling index, text)`, or `None` when it has no
    /// spec syntax (a builder-only value, or the topology in a scenario
    /// spec, whose head it is).
    render: fn(&Scenario, Form) -> Option<(usize, String)>,
}

impl SpecKey {
    /// Whether a sweep may give `a|b` alternatives.
    #[must_use]
    pub fn is_axis(&self) -> bool {
        matches!(self.role, Role::Head | Role::Required | Role::Axis)
    }

    /// Whether a sweep must give the key.
    #[must_use]
    pub fn is_required(&self) -> bool {
        matches!(self.role, Role::Head | Role::Required)
    }

    /// The value of `sc` as `(spelling, text)` in grammar `form`.
    pub(crate) fn render(&self, sc: &Scenario, form: Form) -> Option<(&'static str, String)> {
        (self.render)(sc, form).map(|(i, text)| (self.names[i], text))
    }
}

/// A key whose value is one [`Scenario`] field: `parse(name, value)` reads
/// it, `Display` writes it. The short form is a `true|false` flag.
macro_rules! field {
    ($name:literal, $role:ident, $field:ident) => {
        field!($name, $role, "true|false", "true|false", $field, number)
    };
    ($name:literal, $role:ident, $syntax:literal, $example:literal, $field:ident, $parse:ident) => {
        SpecKey {
            names: &[$name],
            syntax: $syntax,
            example: $example,
            role: Role::$role,
            parse: |sc, name, v| set(&mut sc.$field, $parse(name, v)),
            render: |sc, _| canonical(sc.$field),
        }
    };
}

const LOAD_NAMES: &[&str] = &["load", "lambda", "rho", "util"];
const ENGINE_NAMES: &[&str] = &["engine", "shards"];

/// The topology (`mesh:8`, `kd:3x3x3`).
pub static TOPO: SpecKey = SpecKey {
    names: &["topo"],
    syntax: "mesh:<n>|mesh:<r>x<c>|torus:<n>|hypercube:<d>|butterfly:<k>|kd:<a>x<b>x…",
    example: "mesh:5|mesh:3x7|torus:6|hypercube:4|butterfly:3|kd:3x3x3",
    role: Role::Head,
    parse: |sc, _, v| {
        let topology = TopologySpec::parse_head(v)?;
        (sc.horizon, sc.warmup) = default_horizon_for(&topology);
        sc.topology = topology;
        Ok(())
    },
    render: |sc, form| (form == Form::Sweep).then(|| (0, sc.topology.spec_head())),
};

/// The router.
pub static ROUTER: SpecKey = SpecKey {
    names: &["router"],
    syntax: "greedy|randomized|westfirst|oddeven",
    example: "greedy|randomized|westfirst|oddeven",
    role: Role::Axis,
    parse: |sc, _, v| set(&mut sc.router, RouterSpec::parse_token(v)),
    render: |sc, _| canonical(sc.router.as_str()),
};

/// The destination pattern.
pub static TRAFFIC: SpecKey = SpecKey {
    names: &["traffic"],
    syntax: "uniform|nearby:<stop>|bernoulli:<p>|transpose|bitrev|bitcomp|shuffle|\
             hotspot:<frac>[:<node>]",
    example: "uniform|nearby:0.5|bernoulli:0.25|transpose|bitrev|shuffle|hotspot:0.4:7",
    role: Role::Axis,
    parse: |sc, _, v| set(&mut sc.traffic.pattern, PatternSpec::parse_token(v)),
    render: |sc, _| Some((0, sc.traffic.pattern.spec_token()?)),
};

/// The source model.
pub static SRC: SpecKey = SpecKey {
    names: &["src"],
    syntax: "uniform|hotspot:<weight>[:<node>]",
    example: "uniform|hotspot:4|hotspot:2.5:3",
    role: Role::Shared,
    parse: |sc, _, v| set(&mut sc.traffic.source, SourceSpec::parse_token(v)),
    render: |sc, _| Some((0, sc.traffic.source.spec_token()?)),
};

/// The offered load, in any [`Load`] convention.
pub static LOAD: SpecKey = SpecKey {
    names: LOAD_NAMES,
    syntax: "lambda:<v>|rho:<v>|util:<v>",
    example: "rho:0.2|util:0.5|lambda:0.05",
    role: Role::Required,
    parse: set_load,
    render: |sc, form| {
        let (conv, v) = match sc.load {
            Load::Lambda(v) => (1, v),
            Load::TableRho(v) => (2, v),
            Load::Utilization(v) => (3, v),
        };
        Some(match form {
            Form::Scenario => (conv, v.to_string()),
            Form::Sweep => (0, format!("{}:{v}", LOAD_NAMES[conv])),
        })
    },
};

/// The simulated end time. A sweep also takes `auto:<base>:<cap>`, a
/// load-adaptive horizon policy.
pub static HORIZON: SpecKey = field!("horizon", Horizon, "<t>", "600|2000", horizon, number);
/// The warmup discarded from statistics.
pub static WARMUP: SpecKey = field!("warmup", Warmup, "<t>", "60|0", warmup, number);
/// The master seed.
pub static SEED: SpecKey = field!("seed", Seed, "<u64>", "7|11", seed, number);

/// The transmission-time distribution.
pub static SERVICE: SpecKey = SpecKey {
    names: &["service"],
    syntax: "det|exp",
    example: "det|exp",
    role: Role::Shared,
    parse: |sc, _, v| match v {
        "det" | "deterministic" => set(&mut sc.service, Ok(ServiceKind::Deterministic)),
        "exp" | "exponential" => set(&mut sc.service, Ok(ServiceKind::Exponential)),
        _ => Err(format!("unknown service `{v}` (expected det or exp)")),
    },
    render: |sc, _| match sc.service {
        ServiceKind::Deterministic => canonical("det"),
        ServiceKind::Exponential => canonical("exp"),
    },
};

/// Slotted time (§5.2).
pub static SLOT: SpecKey = SpecKey {
    names: &["slot"],
    syntax: "<tau>",
    example: "1|0.25",
    role: Role::ScenarioOnly,
    parse: |sc, name, v| set(&mut sc.slot, number(name, v).map(Some)),
    render: |sc, _| canonical(sc.slot?),
};

/// Whether zero-distance packets count in the average.
pub static SELF: SpecKey = field!("self", ScenarioOnly, include_self_packets);
/// Remaining-saturated-services tracking (Table III; square meshes).
pub static SATURATED: SpecKey = field!("saturated", Shared, track_saturated);
/// Delay-quantile tracking.
pub static QUANTILES: SpecKey = field!("quantiles", ScenarioOnly, delay_quantiles);
/// Per-edge mean-queue tracking.
pub static QUEUES: SpecKey = field!("queues", ScenarioOnly, track_edge_queues);

/// The fault schedule.
pub static FAULTS: SpecKey = SpecKey {
    names: &["faults"],
    syntax: "none|<part>[+<part>…] with parts links:<rate>, nodes:<rate>, link:<id>, \
             node:<id>, at:<t>, repair:<dt>",
    example: "none|links:0.05|links:0.1+at:50+repair:100|nodes:0.02+link:7+node:3",
    role: Role::Axis,
    parse: |sc, _, v| set(&mut sc.faults, FaultSpec::parse_token(v)),
    render: |sc, _| or_none(sc.faults.as_ref().map(FaultSpec::spec_token)),
};

/// The telemetry probes.
pub static PROBES: SpecKey = SpecKey {
    names: &["probes"],
    syntax: "none|<series>[,<series>…][@<dt>] with series nsys, maxq, drops, delivered, \
             shards or all",
    example: "none|nsys|nsys,maxq@10|all@5",
    role: Role::Shared,
    parse: |sc, _, v| set(&mut sc.probes, ProbeSpec::parse_token(v)),
    render: |sc, _| or_none(sc.probes.map(|p| p.spec_token())),
};

/// The engine's shard count.
pub static ENGINE: SpecKey = SpecKey {
    names: ENGINE_NAMES,
    syntax: "auto|sharded:<n>",
    example: "auto|sharded:1|sharded:2",
    role: Role::Axis,
    parse: |sc, name, v| {
        let engine = match (name == ENGINE_NAMES[0], number(name, v)) {
            (true, _) => EngineSpec::parse_str(v),
            (false, Ok(shards)) if shards >= 1 => Ok(EngineSpec::Sharded { shards }),
            (false, _) => Err(format!("`{name}` needs a shard count >= 1, got `{v}`")),
        };
        set(&mut sc.engine, engine)
    },
    render: |sc, form| match (form, sc.engine) {
        (Form::Scenario, EngineSpec::Sharded { shards }) => Some((1, shards.to_string())),
        (_, engine) => canonical(engine),
    },
};

/// The replications per sweep cell.
pub static REPS: SpecKey = SpecKey {
    names: &["reps"],
    syntax: "<n>",
    example: "1|2",
    role: Role::Reps,
    parse: |_, name, _| Err(format!("`{name}` applies to sweeps only")),
    render: |_, _| None,
};

/// Every key, in the order a scenario spec renders them.
pub static KEYS: [&SpecKey; 18] = [
    &TOPO, &ROUTER, &TRAFFIC, &SRC, &LOAD, &HORIZON, &WARMUP, &SEED, &SERVICE, &SLOT, &SELF,
    &SATURATED, &QUANTILES, &QUEUES, &FAULTS, &PROBES, &ENGINE, &REPS,
];

/// The keys a sweep spec takes, in the order it renders them. A sweep's
/// cells vary its axes in this order too, the last one fastest.
pub static SWEEP_ORDER: [&SpecKey; 14] = [
    &TOPO, &LOAD, &ROUTER, &TRAFFIC, &SRC, &FAULTS, &PROBES, &ENGINE, &SERVICE, &REPS, &SEED,
    &HORIZON, &WARMUP, &SATURATED,
];

/// Stores a parsed value.
fn set<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// A value rendered under the key's canonical spelling.
fn canonical(value: impl ToString) -> Option<(usize, String)> {
    Some((0, value.to_string()))
}

/// An optional value's token, `none` when absent.
fn or_none(token: Option<String>) -> Option<(usize, String)> {
    Some((0, token.unwrap_or_else(|| "none".into())))
}

/// Parses a value given for key `name`. The error names the expected
/// type, as in "bad f64 `x` for `horizon`".
pub(crate) fn number<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("bad {} `{v}` for `{name}`", std::any::type_name::<T>()))
}

/// `load=<convention>:<v>`, or the shorthand `<convention>=<v>`.
fn set_load(sc: &mut Scenario, name: &str, value: &str) -> Result<(), String> {
    let (conv, v) = if name == LOAD_NAMES[0] {
        value
            .split_once(':')
            .ok_or_else(|| format!("expected `{name}=<convention>:<value>`, got `{value}`"))?
    } else {
        (name, value)
    };
    let conventions: [fn(f64) -> Load; 3] = [Load::Lambda, Load::TableRho, Load::Utilization];
    let Some(i) = LOAD_NAMES[1..].iter().position(|n| *n == conv) else {
        return Err(format!(
            "unknown load convention `{conv}` (expected lambda, rho or util)"
        ));
    };
    set(&mut sc.load, number(name, v).map(conventions[i]))
}

/// Finds the key spelled `name` and marks it given in `seen` (one bit per
/// [`KEYS`] row, which fits while the table has at most 32 rows), so that
/// no key appears twice under any spelling.
pub(crate) fn claim(seen: &mut u32, name: &str) -> Result<(usize, &'static SpecKey), String> {
    let row = KEYS
        .iter()
        .position(|key| key.names.contains(&name))
        .ok_or_else(|| format!("unknown key `{name}`"))?;
    let key = KEYS[row];
    if *seen & (1 << row) != 0 {
        return Err(format!("`{name}` repeats the `{}` clause", key.names[0]));
    }
    *seen |= 1 << row;
    Ok((row, key))
}

/// The [`KEYS`] row of `key`.
pub(crate) fn row(key: &SpecKey) -> usize {
    KEYS.iter()
        .position(|k| std::ptr::eq(*k, key))
        .expect("every key is a row of KEYS")
}

/// Usage text: one line per key of grammar `form`, in its render order.
#[must_use]
pub fn usage(form: Form) -> String {
    let keys: &[&SpecKey] = match form {
        Form::Scenario => &KEYS,
        Form::Sweep => &SWEEP_ORDER,
    };
    let mut out = String::new();
    let shown = |k: &&&SpecKey| form == Form::Sweep || !matches!(k.role, Role::Head | Role::Reps);
    for key in keys.iter().filter(shown) {
        let _ = write!(out, "  {}={}", key.names[0], key.syntax);
        if key.names.len() > 1 {
            let _ = write!(out, " (or {}=…)", key.names[1..].join("=…, "));
        }
        if form == Form::Sweep && key.is_axis() {
            out.push_str(if key.is_required() {
                " (required axis)"
            } else {
                " (axis)"
            });
        }
        out.push('\n');
    }
    out
}
