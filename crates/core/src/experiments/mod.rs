//! Reproduction harnesses for every table and figure in the paper.
//!
//! | module | regenerates |
//! |--------|-------------|
//! | [`table1`] | Table I — simulated delay vs the M/D/1 estimate |
//! | [`table2`] | Table II — the ratio `r = E[R]/E[N]` |
//! | [`table3`] | Table III — the saturated ratio `r_s` at ρ = 0.99 |
//! | [`fig1`] | Figure 1 — the Lemma 2 layering labels |
//! | [`fig2`] | Figure 2 — saturated edges, even vs odd `n` |
//! | [`extensions`] | §4.5/§5/§6 studies: bounds curves, stability, capacity allocation, hypercube/butterfly gaps, randomized greedy, torus, slotted time, non-uniform destinations |
//!
//! Every artifact with simulated columns is a cell list on the sweep
//! executor: a `cells` function builds its scenarios at a [`Scale`],
//! [`run`] executes them once, and a `render` function reads the executed
//! [`SweepCellReport`]s — simulated columns from each cell's statistics
//! (means over its replications, with their interval), analytic columns
//! from the cell's bounds report. Tests and `repro --quick` run reduced
//! but structurally identical versions ([`Scale::quick`]); plain `repro`
//! runs publication-scale sweeps ([`Scale::full`]).

pub mod extensions;
pub mod fig1;
pub mod fig2;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::sweep::{run_cells, Jobs, SweepCellReport};
use meshbound_sim::{HorizonPolicy, Scenario};
use serde::{Deserialize, Serialize};

/// Executes an artifact's `cells` once on the sweep executor — cells in
/// parallel, [`Scale::reps`] replications each — and returns their
/// reports in cell order.
#[must_use]
pub fn run(cells: Vec<Scenario>, scale: &Scale) -> Vec<SweepCellReport> {
    run_cells("artifact", cells, scale.reps, Jobs::Parallel).cells
}

/// Sizing knobs for a simulation sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Scale {
    /// Base horizon; actual horizon grows like `base/(1−ρ)` up to the cap,
    /// tracking the O(1/(1−ρ)²) relaxation time of heavily loaded queues.
    pub horizon_base: f64,
    /// Hard horizon cap.
    pub horizon_cap: f64,
    /// Independent replications per cell.
    pub reps: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Reduced scale for tests and `repro --quick` (seconds, not minutes).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            horizon_base: 1_500.0,
            horizon_cap: 12_000.0,
            reps: 1,
            seed: 0x6d65_7368,
        }
    }

    /// Publication scale used by the `repro` binary. Sized so the complete
    /// `repro all` sweep finishes in tens of minutes on a single core;
    /// every heavy cell still runs ≥ 10 relaxation times at ρ = 0.99.
    #[must_use]
    pub fn full() -> Self {
        Self {
            horizon_base: 6_000.0,
            horizon_cap: 100_000.0,
            reps: 2,
            seed: 0x6d65_7368,
        }
    }

    /// Horizon for a cell at Table-ρ `rho`: the [`HorizonPolicy::Auto`]
    /// rule with this scale's base and cap.
    #[must_use]
    pub fn horizon(&self, rho: f64) -> f64 {
        self.auto().resolve(rho).0
    }

    /// Warmup used for a cell: the policy's fifth of the horizon.
    #[must_use]
    pub fn warmup(&self, rho: f64) -> f64 {
        self.auto().resolve(rho).1
    }

    fn auto(&self) -> HorizonPolicy {
        let (base, cap) = (self.horizon_base, self.horizon_cap);
        HorizonPolicy::Auto { base, cap }
    }
}

/// Minimal fixed-width text-table builder used by all renderers.
#[derive(Debug, Default, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..ncols {
                if i > 0 {
                    s.push_str("  ");
                }
                let w = widths[i];
                s.push_str(&format!("{:>w$}", cells[i]));
            }
            s.push('\n');
            s
        };
        let mut out = line(&self.header);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_grows_with_load_and_caps() {
        let s = Scale::quick();
        assert!(s.horizon(0.9) > s.horizon(0.2));
        assert!(s.horizon(0.999) <= s.horizon_cap);
        assert!(s.warmup(0.5) < s.horizon(0.5));
    }

    #[test]
    fn text_table_alignment() {
        let mut t = TextTable::new(&["n", "value"]);
        t.row(vec!["5".into(), "3.14".into()]);
        t.row(vec!["100".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[2].ends_with("3.14"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
