//! Workspace-level checks on the adaptive turn-model routers: whatever
//! queue state the network is in, west-first and odd-even must stay
//! minimal and never take a forbidden turn — and at near-saturation load
//! every run must drain to completion. The payoff test at the bottom
//! pins the point of the whole feature: odd-even's measured saturation
//! throughput beats greedy's on the transpose permutation.

use meshbound::routing::{policy_route, LocalView, OddEven, WestFirst};
use meshbound::topology::{Direction, EdgeId, Mesh2D, Topology};
use meshbound::{Load, RouterSpec, Scenario, TrafficSpec};
use proptest::prelude::*;

/// A frozen queue map: the adversary's congestion pattern. `policy_route`
/// re-consults it at every hop, so the adaptive pick is exercised on each
/// decision, not just the first.
struct QueueMap(Vec<u32>);

impl LocalView for QueueMap {
    fn queue_len(&self, e: EdgeId) -> u32 {
        self.0[e.index()]
    }
}

/// Deterministic pseudo-random queue lengths from a proptest-drawn seed
/// (xorshift64*): lets the strategy stay independent of the mesh size.
fn queue_map(num_edges: usize, mut seed: u64) -> QueueMap {
    QueueMap(
        (0..num_edges)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 60) as u32
            })
            .collect(),
    )
}

proptest! {
    /// Odd-even under adversarial congestion: every route the adaptive
    /// picks produce is still minimal and never takes East→North/South at
    /// an even column or North/South→West at an odd column.
    #[test]
    fn oddeven_never_takes_a_forbidden_turn_under_any_view(
        n in 4usize..9,
        a in 0u32..200,
        b in 0u32..200,
        seed in 1u64..u64::MAX,
    ) {
        let m = Mesh2D::square(n);
        let nn = (n * n) as u32;
        let (src, dst) = (meshbound::topology::NodeId(a % nn), meshbound::topology::NodeId(b % nn));
        let view = queue_map(m.num_edges(), seed);
        let src_col = m.coords(src).1 as u32;
        let route = policy_route(&OddEven, &m, src, dst, src_col, &view);
        prop_assert_eq!(route.len(), m.manhattan(src, dst));
        for pair in route.windows(2) {
            let from = m.direction(pair[0]);
            let to = m.direction(pair[1]);
            let col = m.coords(m.edge_source(pair[1])).1;
            prop_assert!(
                !(from == Direction::Right && !to.is_row() && col.is_multiple_of(2)),
                "EN/ES turn at even column {} on {}->{}", col, src, dst
            );
            prop_assert!(
                !(!from.is_row() && to == Direction::Left && col % 2 == 1),
                "NW/SW turn at odd column {} on {}->{}", col, src, dst
            );
        }
    }

    /// West-first under adversarial congestion: minimal, and every West
    /// hop precedes every non-West hop (the defining turn restriction —
    /// once a packet turns off the West direction it may never turn back).
    #[test]
    fn westfirst_goes_west_first_under_any_view(
        n in 4usize..9,
        a in 0u32..200,
        b in 0u32..200,
        seed in 1u64..u64::MAX,
    ) {
        let m = Mesh2D::square(n);
        let nn = (n * n) as u32;
        let (src, dst) = (meshbound::topology::NodeId(a % nn), meshbound::topology::NodeId(b % nn));
        let view = queue_map(m.num_edges(), seed);
        let route = policy_route(&WestFirst, &m, src, dst, (), &view);
        prop_assert_eq!(route.len(), m.manhattan(src, dst));
        let mut west_done = false;
        for &e in &route {
            if m.direction(e) == Direction::Left {
                prop_assert!(!west_done, "West hop after a non-West hop on {}->{}", src, dst);
            } else {
                west_done = true;
            }
        }
    }
}

#[test]
fn adaptive_routers_complete_at_ninety_percent_load() {
    // ρ = 0.9 on uniform and transpose workloads: queues form and the
    // adaptive picks fire constantly, yet (turn restriction ⇒ no cyclic
    // dependency) every run must keep delivering packets to the end of
    // the horizon rather than wedging.
    for router in [RouterSpec::WestFirst, RouterSpec::OddEven] {
        for sc in [
            Scenario::mesh(6).load(Load::Utilization(0.9)),
            Scenario::mesh(6)
                .traffic(TrafficSpec::transpose())
                .load(Load::Utilization(0.9)),
            Scenario::torus(5).load(Load::Utilization(0.9)),
        ] {
            let sc = sc.router(router).horizon(800.0).warmup(80.0).seed(3);
            let label = sc.spec_string();
            let res = sc.run();
            assert!(res.completed > 0, "{label}: nothing delivered");
            assert!(
                res.completed as f64 >= 0.5 * res.generated as f64,
                "{label}: only {}/{} packets delivered — throughput collapsed",
                res.completed,
                res.generated
            );
        }
    }
}

#[test]
fn oddeven_outdelivers_greedy_past_the_transpose_saturation_point() {
    // The acceptance property, measured rather than analytic: on the
    // mesh:16 transpose permutation, greedy funnels the whole diagonal's
    // traffic through a few center edges while odd-even spreads it over
    // the permitted minimal paths. Drive both 30% past greedy's analytic
    // saturation rate and compare delivered packets — odd-even must win.
    let lambda = Scenario::mesh(16)
        .traffic(TrafficSpec::transpose())
        .stability_lambda()
        * 1.3;
    let run = |router: RouterSpec| {
        Scenario::mesh(16)
            .traffic(TrafficSpec::transpose())
            .load(Load::Lambda(lambda))
            .router(router)
            .horizon(1_500.0)
            .warmup(0.0)
            .seed(5)
            .run()
    };
    let greedy = run(RouterSpec::Greedy);
    let oddeven = run(RouterSpec::OddEven);
    assert!(
        oddeven.completed > greedy.completed,
        "odd-even delivered {} vs greedy {} past greedy's saturation rate {lambda:.4}",
        oddeven.completed,
        greedy.completed
    );
}

#[test]
fn adaptive_cells_are_checked_against_the_lower_bound_only() {
    // Theorem 5's product form rests on the processor-sharing comparison
    // the paper makes for Markovian routing (Corollary 4); odd-even reads
    // queue state, and this cell measures T = 33.45 against the 18.2 the
    // product form would give. Its report claims no upper bound, so the
    // `--check` verdict tests the lower bound alone.
    use meshbound::sweep::{run_sweep, Jobs};
    let spec = meshbound::SweepSpec::parse(
        "topo=mesh:16 traffic=transpose router=oddeven load=util:0.8 reps=1 seed=7",
    )
    .unwrap();
    let report = run_sweep(&spec, Jobs::Sequential).unwrap();
    let cell = &report.cells[0];
    assert!(cell.bounds.upper.is_infinite() && !cell.upper_bound_finite);
    assert!(cell.delay_mean > 30.0, "{}", report.to_text());
    assert!(report.all_within_bounds, "{}", report.to_text());
}
