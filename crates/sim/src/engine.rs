//! Engine selection for [`Scenario::run`](crate::Scenario::run).
//!
//! The simulator has one engine, the shard loop in `crate::shard`;
//! [`EngineSpec`] only says how many node shards it runs on. `auto` is one
//! shard, so `auto` and `sharded:1` are the same run by construction.
//!
//! More shards ([`EngineSpec::Sharded`]) carry a weaker but still hard
//! contract: for a fixed `(seed, shard_count)` a run is bit-identical
//! across reruns and thread schedules, and the one-shard run is its
//! statistical oracle (delay, throughput and conservation-law ratios agree
//! within replication noise). `tests/engine_equivalence.rs` pins both.

use serde::{Deserialize, Serialize};

/// Node-count gate for the precomputed [`RouteTable`]: a table stores one
/// packed `u32` per `(node, destination)` pair, so the gate caps table
/// memory at 512² × 4 B = 1 MiB. The engine no longer reads route tables —
/// it routes every hop through [`Router::route_outcome`] — so the gate
/// only serves callers that build tables of their own.
///
/// [`RouteTable`]: meshbound_routing::RouteTable
/// [`Router::route_outcome`]: meshbound_routing::Router::route_outcome
pub const ROUTE_TABLE_MAX_NODES: usize = 512;

/// Source-count gate above which a rate solve
/// ([`Scenario::resolve`](crate::Scenario::resolve)) tries the
/// sparse-support fast path
/// ([`edge_rates_sparse`](meshbound_routing::rates::edge_rates_sparse))
/// before falling back to the O(N² · route) all-destinations scan. At or
/// below 512 sources enumeration is already sub-millisecond and stays the
/// single code path that every ≤512-node published number was produced
/// by; above it, permutation and hotspot workloads get O(N · diameter)
/// rate vectors that remain exact to enumeration (pinned by
/// `tests/scale.rs`).
pub const SPARSE_RATES_MIN_NODES: usize = 512;

/// Edge-count gate above which [`SimResult`](crate::SimResult) stops
/// materializing full per-edge vectors (`edge_throughput`) and reports only
/// the streaming Welford summary (`edge_throughput_stats`). At
/// `hypercube:20` there are `20 · 2²⁰ ≈ 2.1 × 10⁷` directed edges; a
/// per-edge `f64` vector per replication is ~168 MiB of copying that no
/// caller inspects edge-by-edge at that scale. Every topology that fits a
/// route table (≤ 512 nodes ⇒ ≤ 5120 edges) sits far below this gate, so
/// published small-scale results are untouched bit-for-bit.
pub const STREAMING_STATS_MAX_EDGES: usize = 1 << 16;

/// How many node shards the simulator's one engine runs on.
///
/// * [`EngineSpec::Auto`] (the default) — one shard on the calling thread:
///   a [`LaneQueue`](crate::events::LaneQueue) future-event list (departures
///   offered in time order ride its FIFO lane, everything else its
///   calendar), per-hop routing, no windows and no exchange.
/// * [`EngineSpec::Sharded`] — conservative parallel DES: the topology is
///   partitioned into `shards` node blocks, each runs the same loop on its
///   own thread, and cross-shard packets are exchanged at epoch
///   boundaries (see `crate::shard`), each shard with its own lane
///   queue. More than one shard requires deterministic service times (the
///   lookahead is the minimum cut-edge service time).
///
/// `sharded:1` is `auto`: the same run, bit for bit.
///
/// # Examples
///
/// Selecting an engine on a scenario spec and via the builder:
///
/// ```
/// use meshbound_sim::{EngineSpec, Load, Scenario};
///
/// let auto = Scenario::mesh(5).load(Load::TableRho(0.5)).seed(3);
/// let one = auto.clone().engine(EngineSpec::Sharded { shards: 1 });
/// let a = auto.run();
/// let b = one.run();
/// // One shard is the auto engine, bit for bit:
/// assert_eq!(a.avg_delay.to_bits(), b.avg_delay.to_bits());
/// assert_eq!(a.events_processed, b.events_processed);
///
/// // Spec strings round-trip the engine choice:
/// let sc = Scenario::parse("mesh:5,rho=0.5,engine=sharded:2").unwrap();
/// assert_eq!(sc.engine, EngineSpec::Sharded { shards: 2 });
/// assert!(Scenario::parse("mesh:5,rho=0.5,engine=calendar").is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// One shard (the default).
    Auto,
    /// Conservative parallel DES over `shards` node shards, one thread
    /// per shard (spec form `sharded:<N>`, or the `shards=<N>` key).
    Sharded {
        /// Requested shard count (clamped to `[1, num_nodes]` at run
        /// time; determinism depends on the requested count, not the
        /// host's core count).
        shards: usize,
    },
}

// Not `#[derive(Default)]`: the offline serde_derive stub parses the enum
// body and does not understand variant-level `#[default]` attributes.
#[allow(clippy::derivable_impls)]
impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec::Auto
    }
}

impl EngineSpec {
    /// The spec-string family name (`"auto"` or `"sharded"` — the shard
    /// count is carried by [`std::fmt::Display`] and the `shards=` spec
    /// key).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EngineSpec::Auto => "auto",
            EngineSpec::Sharded { .. } => "sharded",
        }
    }

    /// Parses a spec-string name: `auto` or `sharded:<N>` (N ≥ 1).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending input when it is not one of
    /// the forms above.
    pub fn parse_str(s: &str) -> Result<Self, String> {
        if s == "auto" {
            return Ok(EngineSpec::Auto);
        }
        if let Some(count) = s.strip_prefix("sharded:") {
            return match count.parse::<usize>() {
                Ok(shards) if shards >= 1 => Ok(EngineSpec::Sharded { shards }),
                _ => Err(format!(
                    "engine `sharded:` needs a shard count >= 1, got `{count}`"
                )),
            };
        }
        Err(format!(
            "unknown engine `{s}` (expected auto or sharded:<N>)"
        ))
    }
}

impl std::fmt::Display for EngineSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSpec::Sharded { shards } => write!(f, "sharded:{shards}"),
            other => f.write_str(other.as_str()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let auto = EngineSpec::Auto;
        assert_eq!(EngineSpec::parse_str(auto.as_str()), Ok(auto));
        assert_eq!(format!("{auto}"), auto.as_str());
        // The retired single-core engine names fail like any unknown one.
        for gone in ["quantum", "heap", "calendar"] {
            let err = EngineSpec::parse_str(gone).unwrap_err();
            assert!(err.contains(gone) && !err.contains('\n'), "{err}");
        }
    }

    #[test]
    fn sharded_round_trips_with_its_count() {
        let e = EngineSpec::parse_str("sharded:4").unwrap();
        assert_eq!(e, EngineSpec::Sharded { shards: 4 });
        assert_eq!(e.as_str(), "sharded");
        assert_eq!(format!("{e}"), "sharded:4");
        assert_eq!(EngineSpec::parse_str(&format!("{e}")), Ok(e));
        for bad in ["sharded", "sharded:", "sharded:0", "sharded:x"] {
            assert!(EngineSpec::parse_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(EngineSpec::default(), EngineSpec::Auto);
    }
}
