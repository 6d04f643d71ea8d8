//! Shared helpers for the reproduction benchmarks and the `repro` binary.
//!
//! Each Criterion bench regenerates one table or figure of the paper at
//! [`meshbound::experiments::Scale::quick`] scale (so the benches both time
//! the harness and print the reproduced artifact), while `repro` runs the
//! publication-scale sweeps and writes the rendered tables to stdout.

use meshbound::experiments::Scale;

/// The scale used inside Criterion benches: fast enough to iterate, large
/// enough that the printed table shows the paper's qualitative shape.
#[must_use]
pub fn bench_scale() -> Scale {
    Scale::quick()
}
