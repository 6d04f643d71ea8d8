//! The comparison systems behind the bounds (§3, §4.3).
//!
//! ```text
//! cargo run --release --example jackson_vs_fifo
//! ```
//!
//! Simulates, at one operating point, all four systems the paper reasons
//! about and verifies the ordering its theorems assert:
//!
//! 1. the standard FIFO network with deterministic transmission,
//! 2. the processor-sharing network (Theorem 1's "delayed" system),
//! 3. the Jackson network (exponential transmission, §3.3) — equal in
//!    equilibrium to the PS network and to the product form,
//! 4. the copy ("rushed") system of Theorem 10, whose population equals
//!    `Σ_e N_{M/D/1}(λ_e)` and is at most `d̄·E[N_FIFO]`.

use meshbound::queueing::jackson::mean_number_unit;
use meshbound::queueing::remaining::dbar_closed;
use meshbound::queueing::single::md1_mean_number;
use meshbound::routing::dest::UniformDest;
use meshbound::routing::rates::mesh_thm6_rates;
use meshbound::routing::GreedyXY;
use meshbound::sim::copysys::CopySystemSim;
use meshbound::sim::network::NetConfig;
use meshbound::sim::ps::PsNetworkSim;
use meshbound::sim::ServiceKind;
use meshbound::topology::Mesh2D;
use meshbound::{Load, Scenario};
use meshbound_repro::banner;

fn main() {
    let n = 6;
    let rho: f64 = 0.7;
    let lambda = 4.0 * rho / n as f64;
    let mesh = Mesh2D::square(n);
    // The FIFO and Jackson systems go through the unified Scenario front
    // door; the PS and copy comparison systems are simulator internals the
    // paper's proofs reason about, so they use their dedicated engines
    // with the same NetConfig.
    let scenario = Scenario::mesh(n)
        .load(Load::TableRho(rho))
        .horizon(40_000.0)
        .warmup(4_000.0)
        .seed(99);
    let cfg = NetConfig {
        lambda,
        horizon: 40_000.0,
        warmup: 4_000.0,
        seed: 99,
        ..NetConfig::default()
    };

    banner(&format!("n = {n}, Table-ρ = {rho} (λ = {lambda:.3})"));

    let fifo = scenario.clone().run();
    println!(
        "1. FIFO, deterministic service: E[N] = {:>8.2}   T = {:.3}",
        fifo.time_avg_n, fifo.avg_delay
    );

    let ps = PsNetworkSim::new(mesh.clone(), GreedyXY, UniformDest, cfg.clone()).run();
    println!(
        "2. processor sharing:           E[N] = {:>8.2}   T = {:.3}",
        ps.time_avg_n, ps.avg_delay
    );

    let jackson = scenario.service(ServiceKind::Exponential).run();
    println!(
        "3. Jackson (exp. service):      E[N] = {:>8.2}   T = {:.3}",
        jackson.time_avg_n, jackson.avg_delay
    );

    let rates = mesh_thm6_rates(&mesh, lambda);
    let product_form = mean_number_unit(&rates);
    println!("   product form Σ λe/(1−λe):    E[N] = {product_form:>8.2}");

    let copies = CopySystemSim::new(mesh.clone(), GreedyXY, UniformDest, cfg).run();
    let md1_sum: f64 = rates.iter().map(|&l| md1_mean_number(l)).sum();
    println!(
        "4. copy system (Thm 10):        E[N̄] = {:>7.2}   (Σ M/D/1 = {md1_sum:.2})",
        copies.time_avg_copies
    );

    banner("Orderings the theorems assert");
    let checks = [
        (
            "Thm 5:  E[N_FIFO] ≤ E[N_PS]",
            fifo.time_avg_n <= ps.time_avg_n,
        ),
        (
            "§3.3:   E[N_PS] ≈ E[N_Jackson] ≈ product form",
            (ps.time_avg_n - product_form).abs() / product_form < 0.1
                && (jackson.time_avg_n - product_form).abs() / product_form < 0.1,
        ),
        (
            "Thm 10: E[N̄] = Σ M/D/1 (linearity under dependence)",
            (copies.time_avg_copies - md1_sum).abs() / md1_sum < 0.1,
        ),
        (
            "Thm 12: E[N̄] ≤ d̄·E[N_FIFO]",
            copies.time_avg_copies <= dbar_closed(n) * fifo.time_avg_n,
        ),
        (
            "Lemma 9: Σ M/M/1 ≤ 2·Σ M/D/1",
            product_form <= 2.0 * md1_sum,
        ),
    ];
    for (label, ok) in checks {
        println!("{}  {label}", if ok { "✓" } else { "✗" });
    }
}
