//! Grammar fuzzing from the spec key table.
//!
//! Every spelling and example value of `meshbound::sim::spec::KEYS`, plus
//! malformed values, topology heads whose edge count overflows a 32-bit
//! edge id, and junk, is fed to both grammars in two shapes: raw token
//! soup joined by the grammars' separators, and clause lists that pick a
//! spelling and a value (or junk) for each key. Neither parser, nor a
//! sweep's expansion, may panic on any input; every scenario or sweep they
//! accept must round-trip through its own spec string, and so must every
//! expanded cell.

use meshbound::sim::spec::{SpecKey, KEYS, TOPO};
use meshbound::{Scenario, SweepSpec};
use proptest::collection::vec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The separators the two grammars know, space and comma weighted up so
/// that soups often split into well-formed clauses.
const SEPARATORS: [&str; 9] = [" ", " ", " ", ",", ",", "|", "=", ":", ""];

/// Values no table row produces: malformed numbers, heads whose edge count
/// overflows a 32-bit edge id, and junk.
const JUNK: [&str; 20] = [
    "",
    "mesh",
    "mesh:0",
    "torus:4294967296",
    "mesh:4294967296",
    "mesh:4294967296x4294967296",
    "kd:65536x65536x65536x65536x65536",
    "hypercube:64",
    "butterfly:64",
    "NaN",
    "-inf",
    "1e999",
    "-1",
    "18446744073709551616",
    "dest=uniform",
    "hotspot:0.5:99",
    "link:4294967295",
    "@",
    "auto:1:",
    "☃",
];

/// Every spelling, every example value, every `spelling=example` clause
/// and the junk tokens.
fn vocabulary() -> Vec<String> {
    let mut words: Vec<String> = JUNK.iter().map(ToString::to_string).collect();
    for key in KEYS {
        words.extend(key.names.iter().map(ToString::to_string));
        words.push(key.example.to_string());
        for value in key.example.split('|') {
            words.push(value.to_string());
            words.extend(key.names.iter().map(|name| format!("{name}={value}")));
        }
    }
    words
}

/// A value for choice `c` of a key: one of its example values, all of
/// them as `|` alternatives, or junk.
fn value_of(example: &str, c: usize) -> String {
    let values: Vec<&str> = example.split('|').collect();
    match c % (values.len() + 2) {
        i if i < values.len() => values[i].to_string(),
        i if i == values.len() => example.to_string(),
        _ => JUNK[c % JUNK.len()].to_string(),
    }
}

/// A `spelling=value` clause of `key` for choice `c`. A shorthand spelling
/// takes the part of the value after its last `:` (`rho=0.2`, `shards=2`).
fn clause(key: &SpecKey, c: usize) -> String {
    let spelling = c % key.names.len();
    let value = value_of(key.example, c / key.names.len());
    let value = match spelling {
        0 => value.as_str(),
        _ => value.rsplit(':').next().unwrap_or_default(),
    };
    format!("{}={value}", key.names[spelling])
}

/// Runs `f`, failing the case if it panics.
fn no_panic<T>(what: &str, input: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f))
        .map_err(|_| TestCaseError::fail(format!("{what} panicked on {input:?}")))
}

/// Feeds `scenario` to the scenario grammar and `sweep` to the sweep
/// grammar: no panic, and whatever parses round-trips.
fn check(scenario: &str, sweep: &str) -> Result<(), TestCaseError> {
    if let Ok(sc) = no_panic("Scenario::parse", scenario, || Scenario::parse(scenario))? {
        let spec = sc.spec_string();
        let again = Scenario::parse(&spec);
        prop_assert!(
            again == Ok(sc),
            "{scenario:?} renders as `{spec}`: {again:?}"
        );
    }
    let Ok(grid) = no_panic("SweepSpec::parse", sweep, || SweepSpec::parse(sweep))? else {
        return Ok(());
    };
    let spec = grid.spec_string();
    let again = SweepSpec::parse(&spec);
    prop_assert!(
        again.as_ref() == Ok(&grid),
        "{sweep:?} renders as `{spec}`: {again:?}"
    );
    if let Ok(cells) = no_panic("SweepSpec::expand", sweep, || grid.expand())? {
        for cell in cells {
            let spec = cell.spec_string();
            let again = Scenario::parse(&spec);
            prop_assert!(again == Ok(cell), "{sweep:?} cell `{spec}`: {again:?}");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn token_soup_never_panics_and_accepted_specs_round_trip(
        soups in vec(vec((0..vocabulary().len(), 0..SEPARATORS.len()), 0..12), 1..48)
    ) {
        let words = vocabulary();
        for tokens in &soups {
            let soup: String = tokens
                .iter()
                .map(|&(word, sep)| format!("{}{}", words[word], SEPARATORS[sep]))
                .collect();
            check(&soup, &soup)?;
        }
    }

    #[test]
    fn table_clause_lists_never_panic_and_accepted_specs_round_trip(
        lists in vec(vec((0..256usize, 0..SEPARATORS.len()), KEYS.len()..KEYS.len() + 1), 1..64)
    ) {
        for choices in &lists {
            // A key joins the list with probability 1/4, so most lists
            // stay short enough to pass validation; the topology is always
            // given, and a sweep always gets its required load axis.
            let head = value_of(TOPO.example, choices[0].0);
            let (mut scenario, mut sweep) = (head.clone(), format!("{}={head}", TOPO.names[0]));
            for (key, &(c, sep)) in KEYS.iter().zip(choices).skip(1) {
                if c < 192 && !key.is_required() {
                    continue;
                }
                let clause = clause(key, c);
                if c >= 192 {
                    scenario.push_str(if SEPARATORS[sep] == " " { " " } else { "," });
                    scenario.push_str(&clause);
                }
                sweep.push(' ');
                sweep.push_str(&clause);
            }
            check(&scenario, &sweep)?;
        }
    }
}
