//! Deterministic fault injection: [`FaultSpec`] (the `faults=` grammar)
//! materializes into a [`FaultPlan`] — a seed-derived timeline of link
//! failures and repairs the engines replay.
//!
//! The paper's bounds assume a pristine array; this module asks how
//! gracefully greedy routing degrades when the array is not. A spec names
//! *what* fails (a rate over links or nodes, or explicit ids), *when*
//! (`at:<t>`, default 0) and for how long (`repair:<dt>`, default forever);
//! [`FaultPlan::materialize`] turns it into a concrete edge timeline using
//! an RNG stream derived from the scenario seed, so a fixed
//! `(seed, FaultSpec)` pair yields the identical plan on every engine —
//! the contract `tests/fault_injection.rs` pins with a proptest.
//!
//! A node failure is modeled as the death of every edge incident to the
//! node (in- and out-edges): the switch goes dark, but the node's source
//! process keeps offering traffic, which then drops at injection — the
//! offered-load accounting the degradation report needs.

use crate::rng::derive_rng;
use meshbound_routing::{LocalView, RouteOutcome, Router};
use meshbound_topology::{EdgeId, Topology};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// RNG stream index reserved for fault materialization. Far above any
/// shard index (streams `0..k` belong to the engines), so fault draws
/// never interleave with arrival or service sampling.
pub const FAULT_STREAM: u64 = 0xFA01_7000;

/// Per-hop budget for a packet routed under faults: a packet that crosses
/// more than `4 · route_len + 8` edges is misrouting in a cycle and is
/// dropped as [`DropCause::TtlExceeded`]. Minimal routes on a healthy
/// topology never approach the budget, so it is inert without faults.
#[must_use]
pub fn ttl_budget(route_len: usize) -> u32 {
    u32::try_from(4 * route_len + 8).unwrap_or(u32::MAX)
}

/// Why a packet was dropped instead of delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropCause {
    /// No live out-edge left the packet's node.
    DeadEnd,
    /// Live out-edges existed but none made progress.
    LocalMinimum,
    /// The packet exhausted its [`ttl_budget`] misroute allowance.
    TtlExceeded,
    /// The packet was queued on an edge at the instant the edge failed.
    LinkDown,
}

/// Dropped-packet accounting, one counter per [`DropCause`].
///
/// Counters only cover packets generated after warmup (the same gate the
/// delivered counters use), so `completed + dropped + in-flight` accounts
/// for every measured packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropCounts {
    /// Drops at a dead end (no live out-edge).
    pub dead_end: u64,
    /// Drops at a local minimum (live but unproductive out-edges).
    pub local_minimum: u64,
    /// Drops from an exhausted misroute budget.
    pub ttl_exceeded: u64,
    /// Drops of packets queued on a failing edge.
    pub link_down: u64,
}

impl DropCounts {
    /// Total packets dropped across all causes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dead_end + self.local_minimum + self.ttl_exceeded + self.link_down
    }

    /// Records one drop.
    pub fn record(&mut self, cause: DropCause) {
        match cause {
            DropCause::DeadEnd => self.dead_end += 1,
            DropCause::LocalMinimum => self.local_minimum += 1,
            DropCause::TtlExceeded => self.ttl_exceeded += 1,
            DropCause::LinkDown => self.link_down += 1,
        }
    }

    /// Adds another tally into this one (shard merge).
    pub fn merge(&mut self, other: &DropCounts) {
        self.dead_end += other.dead_end;
        self.local_minimum += other.local_minimum;
        self.ttl_exceeded += other.ttl_exceeded;
        self.link_down += other.link_down;
    }
}

/// A declarative failure schedule: what fails, when, and for how long.
///
/// The grammar token (scenario clause `faults=<token>`, sweep axis
/// `faults=<token>|<token>`) joins parts with `+` — `,`, whitespace and
/// `|` all separate clauses at higher grammar levels:
///
/// ```text
/// faults=none                          no faults (never emitted back)
/// faults=links:0.05                    5% of directed edges fail
/// faults=nodes:0.02                    2% of nodes fail (all incident edges)
/// faults=link:3+link:17                explicit edge ids
/// faults=node:5                        explicit node id
/// faults=links:0.05+at:100             failures strike at t = 100 (default 0)
/// faults=links:0.1+at:50+repair:200    … and repair at t = 250
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Fraction of directed edges to fail, drawn without replacement
    /// (`links:<rate>`, `0.0` = none).
    pub link_rate: f64,
    /// Fraction of nodes to fail (`nodes:<rate>`, `0.0` = none).
    pub node_rate: f64,
    /// Explicit edge ids to fail (`link:<id>`, repeatable).
    pub links: Vec<u32>,
    /// Explicit node ids to fail (`node:<id>`, repeatable).
    pub nodes: Vec<u32>,
    /// Failure time (`at:<t>`, default `0.0` — failed from the start).
    pub at: f64,
    /// Repair delay after the failure (`repair:<dt>`); `None` means the
    /// faults persist to the horizon.
    pub repair: Option<f64>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            link_rate: 0.0,
            node_rate: 0.0,
            links: Vec::new(),
            nodes: Vec::new(),
            at: 0.0,
            repair: None,
        }
    }
}

impl FaultSpec {
    /// A rate-drawn link-failure spec (`faults=links:<rate>`).
    #[must_use]
    pub fn links(rate: f64) -> Self {
        Self {
            link_rate: rate,
            ..Self::default()
        }
    }

    /// A rate-drawn node-failure spec (`faults=nodes:<rate>`).
    #[must_use]
    pub fn nodes(rate: f64) -> Self {
        Self {
            node_rate: rate,
            ..Self::default()
        }
    }

    /// Sets the failure time (`at:<t>`).
    #[must_use]
    pub fn at(mut self, t: f64) -> Self {
        self.at = t;
        self
    }

    /// Sets the repair delay (`repair:<dt>`).
    #[must_use]
    pub fn repair(mut self, dt: f64) -> Self {
        self.repair = Some(dt);
        self
    }

    /// True iff the spec names nothing to fail (materializes to an empty
    /// plan on every topology).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link_rate == 0.0
            && self.node_rate == 0.0
            && self.links.is_empty()
            && self.nodes.is_empty()
    }

    /// Parses a `faults=` grammar token. `"none"` yields `None`; anything
    /// else must be a `+`-joined list of parts.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    pub fn parse_token(value: &str) -> Result<Option<FaultSpec>, String> {
        if value == "none" {
            return Ok(None);
        }
        let mut spec = FaultSpec::default();
        let mut seen = 0u8;
        let f64_of = |key: &str, v: &str| -> Result<f64, String> {
            match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                _ => Err(format!("bad number `{v}` in fault part `{key}`")),
            }
        };
        let id_of = |key: &str, v: &str| -> Result<u32, String> {
            v.parse::<u32>()
                .map_err(|_| format!("bad id `{v}` in fault part `{key}`"))
        };
        for part in value.split('+') {
            let (key, v) = part.split_once(':').ok_or_else(|| {
                format!("fault part `{part}` must be `<kind>:<value>` (or the whole clause `none`)")
            })?;
            // Rates and times are single-valued; explicit ids may repeat.
            if let Some(bit) = ["links", "nodes", "at", "repair"]
                .iter()
                .position(|k| *k == key)
            {
                if seen & (1 << bit) != 0 {
                    return Err(format!("duplicate `{key}:` fault part"));
                }
                seen |= 1 << bit;
            }
            match key {
                "links" => spec.link_rate = f64_of(key, v)?,
                "nodes" => spec.node_rate = f64_of(key, v)?,
                "link" => spec.links.push(id_of(key, v)?),
                "node" => spec.nodes.push(id_of(key, v)?),
                "at" => spec.at = f64_of(key, v)?,
                "repair" => spec.repair = Some(f64_of(key, v)?),
                other => {
                    return Err(format!(
                        "unknown fault part `{other}` (expected links, nodes, link, node, \
                         at or repair)"
                    ))
                }
            }
        }
        if spec.is_empty() {
            return Err(format!(
                "fault spec `{value}` names nothing to fail (use `faults=none` for no faults)"
            ));
        }
        Ok(Some(spec))
    }

    /// Renders the spec as a grammar token [`FaultSpec::parse_token`]
    /// accepts; canonical part order so round-trips are exact.
    #[must_use]
    pub fn spec_token(&self) -> String {
        let mut parts = Vec::new();
        if self.link_rate != 0.0 {
            parts.push(format!("links:{}", self.link_rate));
        }
        if self.node_rate != 0.0 {
            parts.push(format!("nodes:{}", self.node_rate));
        }
        for id in &self.links {
            parts.push(format!("link:{id}"));
        }
        for id in &self.nodes {
            parts.push(format!("node:{id}"));
        }
        if self.at != 0.0 {
            parts.push(format!("at:{}", self.at));
        }
        if let Some(dt) = self.repair {
            parts.push(format!("repair:{dt}"));
        }
        parts.join("+")
    }

    /// Validates the spec against a topology's shape.
    ///
    /// # Errors
    ///
    /// A message naming the violated constraint: rates outside `[0, 1]`,
    /// ids out of range, non-finite or negative times, or a schedule
    /// without repair whose explicit ids and rounded draw fail every link
    /// or every node.
    pub fn check(&self, num_nodes: usize, num_edges: usize) -> Result<(), String> {
        for (label, rate) in [("links", self.link_rate), ("nodes", self.node_rate)] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate `{label}:{rate}` must lie in [0, 1]"));
            }
        }
        if let Some(&id) = self.links.iter().find(|&&id| id as usize >= num_edges) {
            return Err(format!(
                "fault edge id {id} out of range (topology has {num_edges} edges)"
            ));
        }
        if let Some(&id) = self.nodes.iter().find(|&&id| id as usize >= num_nodes) {
            return Err(format!(
                "fault node id {id} out of range (topology has {num_nodes} nodes)"
            ));
        }
        if !(self.at >= 0.0 && self.at.is_finite()) {
            return Err(format!(
                "fault time `at:{}` must be finite and >= 0",
                self.at
            ));
        }
        if let Some(dt) = self.repair {
            if !(dt > 0.0 && dt.is_finite()) {
                return Err(format!("repair delay `repair:{dt}` must be finite and > 0"));
            }
        }
        if self.repair.is_none() {
            // What `materialize` kills: the distinct explicit ids plus the
            // rounded draw.
            for (what, ids, rate, total) in [
                ("link", &self.links, self.link_rate, num_edges),
                ("node", &self.nodes, self.node_rate, num_nodes),
            ] {
                let distinct = ids.iter().collect::<std::collections::BTreeSet<_>>().len();
                if distinct + rate_draw(rate, total) >= total {
                    return Err(format!(
                        "failing every {what} forever leaves nothing to simulate — fail \
                         fewer {what}s or add a `repair:` delay"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How many of `total` links or nodes a `rate` draw fails.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn rate_draw(rate: f64, total: usize) -> usize {
    (rate * total as f64).round() as usize
}

/// One scheduled liveness transition of one edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the transition.
    pub time: f64,
    /// The affected edge.
    pub edge: EdgeId,
    /// `false` = the edge fails, `true` = it repairs.
    pub up: bool,
}

/// A materialized failure timeline: the concrete, seed-resolved edge
/// transitions a run replays.
///
/// A plan is a **pure function** of `(seed, FaultSpec, topology shape)`:
/// the draw uses the dedicated [`FAULT_STREAM`] RNG stream and visits
/// links before nodes, so every engine (and every shard of the sharded
/// engine) reconstructs the identical timeline independently.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Transitions sorted by `(time, edge)`; fail events precede repairs
    /// because `repair > 0` is enforced at validation.
    pub events: Vec<FaultEvent>,
    /// Distinct edges that fail at least once, ascending — the
    /// worst-case dead set reachability analysis uses.
    pub down_edges: Vec<EdgeId>,
}

impl FaultPlan {
    /// Draws the concrete plan for `spec` on `topo` under `seed`.
    #[must_use]
    pub fn materialize<T: Topology>(spec: &FaultSpec, seed: u64, topo: &T) -> FaultPlan {
        let num_edges = topo.num_edges();
        let num_nodes = topo.num_nodes();
        let mut rng = derive_rng(seed, FAULT_STREAM);
        let mut dead: std::collections::BTreeSet<EdgeId> = std::collections::BTreeSet::new();
        for &id in &spec.links {
            dead.insert(EdgeId(id));
        }
        // Rate-drawn links first, then nodes — a fixed visit order keeps
        // the RNG stream (and therefore the plan) reproducible.
        // Each draw stops at what is still alive: explicit ids may already
        // hold part of a full rate.
        let link_target =
            rate_draw(spec.link_rate, num_edges).min(num_edges.saturating_sub(dead.len()));
        let mut drawn = 0usize;
        while drawn < link_target {
            let e = EdgeId(rng.gen_range(0..num_edges as u32));
            if dead.insert(e) {
                drawn += 1;
            }
        }
        let mut dead_nodes: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for &id in &spec.nodes {
            dead_nodes.insert(id);
        }
        let node_target =
            rate_draw(spec.node_rate, num_nodes).min(num_nodes.saturating_sub(dead_nodes.len()));
        let mut drawn_nodes = 0usize;
        while drawn_nodes < node_target {
            let v = rng.gen_range(0..num_nodes as u32);
            if dead_nodes.insert(v) {
                drawn_nodes += 1;
            }
        }
        if !dead_nodes.is_empty() {
            // A dead node takes down every incident edge: its own
            // out-edges plus every in-edge targeting it.
            for e in topo.edges() {
                let s = topo.edge_source(e).0;
                let t = topo.edge_target(e).0;
                if dead_nodes.contains(&s) || dead_nodes.contains(&t) {
                    dead.insert(e);
                }
            }
        }
        let down_edges: Vec<EdgeId> = dead.into_iter().collect();
        let mut events = Vec::with_capacity(down_edges.len() * 2);
        for &e in &down_edges {
            events.push(FaultEvent {
                time: spec.at,
                edge: e,
                up: false,
            });
        }
        if let Some(dt) = spec.repair {
            for &e in &down_edges {
                events.push(FaultEvent {
                    time: spec.at + dt,
                    edge: e,
                    up: true,
                });
            }
        }
        // Already (time, edge)-sorted by construction: one fail batch,
        // then one repair batch at a strictly later time.
        FaultPlan { events, down_edges }
    }

    /// True iff the plan schedules no transitions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The all-queues-empty view with a static dead-edge mask — what the
/// reachability analysis routes against.
struct DeadSetView<'a> {
    down: &'a [EdgeId],
}

impl LocalView for DeadSetView<'_> {
    fn queue_len(&self, _: EdgeId) -> u32 {
        0
    }

    fn is_live(&self, e: EdgeId) -> bool {
        self.down.binary_search(&e).is_err()
    }
}

/// Sampled source–destination pairs used by [`reachable_fraction`].
pub const REACHABILITY_SAMPLES: usize = 2048;

/// Estimates the fraction of source–destination pairs the router still
/// connects when every edge in `down` (sorted ascending) is dead for the
/// whole walk — the worst-case surviving-topology reachability the
/// degradation report quotes.
///
/// Pairs are drawn from a seed-derived stream (destinations filtered by
/// [`Router::routes_to`]), each walked through
/// [`Router::route_outcome`] under the dead-set view with a
/// [`ttl_budget`] step cap; deterministic for fixed inputs.
#[must_use]
pub fn reachable_fraction<T: Topology, R: Router<T>>(
    topo: &T,
    router: &R,
    down: &[EdgeId],
    seed: u64,
) -> f64 {
    let n = topo.num_nodes() as u32;
    if n < 2 {
        return 1.0;
    }
    let view = DeadSetView { down };
    let mut rng = derive_rng(seed, FAULT_STREAM ^ 1);
    let mut reached = 0usize;
    let mut sampled = 0usize;
    'outer: while sampled < REACHABILITY_SAMPLES {
        let src = meshbound_topology::NodeId(rng.gen_range(0..n));
        let mut dst = meshbound_topology::NodeId(rng.gen_range(0..n));
        // Re-draw invalid destinations (e.g. butterfly non-output levels);
        // bail after a bounded number of misses so a router with no valid
        // destination cannot loop forever.
        let mut tries = 0;
        while dst == src || !router.routes_to(topo, dst) {
            dst = meshbound_topology::NodeId(rng.gen_range(0..n));
            tries += 1;
            if tries > 64 {
                break 'outer;
            }
        }
        sampled += 1;
        let state = router.init_state(topo, src, dst, &mut rng);
        let mut here = src;
        let mut ttl = ttl_budget(router.route_len(topo, src, dst, state));
        loop {
            if here == dst {
                reached += 1;
                break;
            }
            if ttl == 0 {
                break;
            }
            ttl -= 1;
            match router.route_outcome(topo, here, dst, state, &view) {
                RouteOutcome::Forward(e) => here = topo.edge_target(e),
                RouteOutcome::DeadEnd | RouteOutcome::LocalMinimum => break,
            }
        }
    }
    if sampled == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        reached as f64 / sampled as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meshbound_routing::GreedyXY;
    use meshbound_topology::Mesh2D;

    #[test]
    fn grammar_round_trips() {
        for token in [
            "links:0.05",
            "nodes:0.02",
            "link:3+link:17",
            "node:5",
            "links:0.1+at:50+repair:200",
            "links:0.05+nodes:0.01+link:2+node:3+at:10+repair:40",
        ] {
            let spec = FaultSpec::parse_token(token).unwrap().unwrap();
            assert_eq!(spec.spec_token(), token, "canonical form of `{token}`");
            assert_eq!(
                FaultSpec::parse_token(&spec.spec_token()).unwrap(),
                Some(spec),
                "round trip of `{token}`"
            );
        }
        assert_eq!(FaultSpec::parse_token("none").unwrap(), None);
    }

    #[test]
    fn grammar_rejects_malformed_tokens() {
        for token in [
            "",
            "links",
            "links:abc",
            "links:0.05+links:0.1",
            "at:10",    // names nothing to fail
            "repair:5", // likewise
            "links:0.05+at:1+at:2",
            "quake:0.5",
            "link:-1",
            "links:inf",
        ] {
            assert!(
                FaultSpec::parse_token(token).is_err(),
                "`{token}` should not parse"
            );
        }
    }

    #[test]
    fn check_enforces_ranges_and_times() {
        assert!(FaultSpec::links(0.05).check(16, 48).is_ok());
        assert!(FaultSpec::links(1.5).check(16, 48).is_err());
        assert!(FaultSpec::links(-0.1).check(16, 48).is_err());
        assert!(FaultSpec::links(1.0).check(16, 48).is_err()); // all links forever
        assert!(FaultSpec::links(1.0).repair(10.0).check(16, 48).is_ok());
        assert!(FaultSpec::links(0.05).at(-1.0).check(16, 48).is_err());
        assert!(FaultSpec::links(0.05).repair(0.0).check(16, 48).is_err());
        let explicit = FaultSpec {
            links: vec![48],
            ..FaultSpec::default()
        };
        assert!(explicit.check(16, 48).is_err());
        let explicit_node = FaultSpec {
            nodes: vec![16],
            ..FaultSpec::default()
        };
        assert!(explicit_node.check(16, 48).is_err());
    }

    #[test]
    fn full_draws_beside_explicit_ids_stop_at_the_last_live_element() {
        let topo = Mesh2D::square(4);
        for token in [
            "link:3+links:1+repair:10",
            "link:3+links:0.99+repair:10",
            "node:5+nodes:1+repair:10",
        ] {
            let spec = FaultSpec::parse_token(token).unwrap().unwrap();
            assert_eq!(spec.check(16, 48), Ok(()), "{token}");
            let plan = FaultPlan::materialize(&spec, 1, &topo);
            assert_eq!(plan.down_edges.len(), 48, "{token}");
        }
        // Without the repair each of them, and every other spelling of
        // "all links" or "all nodes", is refused.
        for token in [
            "link:3+links:1",
            "link:3+links:0.99",
            "links:0.99",
            "node:5+nodes:1",
            "nodes:1",
            "nodes:0.97",
        ] {
            let spec = FaultSpec::parse_token(token).unwrap().unwrap();
            let err = spec.check(16, 48).unwrap_err();
            assert!(err.contains("leaves nothing to simulate"), "{token}: {err}");
        }
        assert!(FaultSpec::nodes(0.9).check(16, 48).is_ok());
    }

    #[test]
    fn materialization_is_deterministic_and_counts_match() {
        let topo = Mesh2D::square(8);
        let spec = FaultSpec::links(0.1);
        let a = FaultPlan::materialize(&spec, 7, &topo);
        let b = FaultPlan::materialize(&spec, 7, &topo);
        assert_eq!(a, b);
        let expected = (0.1 * topo.num_edges() as f64).round() as usize;
        assert_eq!(a.down_edges.len(), expected);
        // No repairs scheduled, so one event per dead edge.
        assert_eq!(a.events.len(), expected);
        // A different seed draws a different set.
        let c = FaultPlan::materialize(&spec, 8, &topo);
        assert_ne!(a.down_edges, c.down_edges);
    }

    #[test]
    fn node_failures_kill_all_incident_edges() {
        let topo = Mesh2D::square(4);
        let spec = FaultSpec {
            nodes: vec![5],
            ..FaultSpec::default()
        };
        let plan = FaultPlan::materialize(&spec, 1, &topo);
        for e in topo.edges() {
            let incident = topo.edge_source(e).0 == 5 || topo.edge_target(e).0 == 5;
            assert_eq!(
                plan.down_edges.binary_search(&e).is_ok(),
                incident,
                "edge {e} incident={incident}"
            );
        }
    }

    #[test]
    fn repair_schedules_a_second_batch() {
        let topo = Mesh2D::square(4);
        let spec = FaultSpec::links(0.1).at(50.0).repair(100.0);
        let plan = FaultPlan::materialize(&spec, 3, &topo);
        let fails = plan.events.iter().filter(|ev| !ev.up).count();
        let repairs = plan.events.iter().filter(|ev| ev.up).count();
        assert_eq!(fails, repairs);
        assert!(plan.events.iter().all(|ev| if ev.up {
            ev.time == 150.0
        } else {
            ev.time == 50.0
        }));
        // Sorted by time: all fails precede all repairs.
        assert!(plan.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn reachability_is_one_on_a_healthy_mesh_and_degrades() {
        let topo = Mesh2D::square(6);
        let router = GreedyXY;
        let healthy = reachable_fraction(&topo, &router, &[], 17);
        assert!((healthy - 1.0).abs() < f64::EPSILON, "healthy {healthy}");
        let spec = FaultSpec::links(0.2);
        let plan = FaultPlan::materialize(&spec, 17, &topo);
        let faulted = reachable_fraction(&topo, &router, &plan.down_edges, 17);
        assert!(faulted < 1.0, "faulted {faulted}");
        assert!(faulted > 0.0, "faulted {faulted}");
        // Deterministic for fixed inputs.
        assert_eq!(
            faulted.to_bits(),
            reachable_fraction(&topo, &router, &plan.down_edges, 17).to_bits()
        );
    }
}
