//! Golden pins for the spec grammars: rendered scenario and sweep strings,
//! byte for byte, and the per-cell seeds a sweep derives from them.
//!
//! A sweep hashes each cell's `Scenario::spec_string` into that cell's
//! seed, so a renderer that moves one byte moves every downstream sample
//! path. These strings were rendered by the two hand-written grammars
//! that preceded the shared key table; the table must reproduce them.

use meshbound::{Scenario, SweepSpec};

/// `(input, Scenario::parse(input).spec_string())`: every key, every
/// topology family, both load spellings, `shards=`/`engine=`, `faults=`
/// and `probes=`.
const SCENARIO_PINS: &[(&str, &str)] = &[
    ("mesh:20 load=rho:0.8", "mesh:20,rho=0.8"),
    ("mesh:20,rho=0.8", "mesh:20,rho=0.8"),
    ("mesh:20 load=rho:0.8 horizon=4000 warmup=400 seed=12345678901234567", "mesh:20,rho=0.8,horizon=4000,warmup=400,seed=12345678901234567"),
    ("mesh:3x7,lambda=0.05,seed=9", "mesh:3x7,lambda=0.05,seed=9"),
    ("mesh:4", "mesh:4,lambda=0.1"),
    ("torus:8,util=0.9,horizon=5000", "torus:8,util=0.9,horizon=5000"),
    ("torus:8 load=util:0.9 horizon=5000", "torus:8,util=0.9,horizon=5000"),
    ("hypercube:6,traffic=bernoulli:0.25,lambda=0.8,service=exp", "hypercube:6,traffic=bernoulli:0.25,lambda=0.8,service=exp"),
    ("hypercube:6,traffic=bernoulli:0.25,lambda=0.8,service=exponential,shards=1", "hypercube:6,traffic=bernoulli:0.25,lambda=0.8,service=exp,shards=1"),
    ("butterfly:4,util=0.6,warmup=50", "butterfly:4,util=0.6,warmup=50"),
    ("butterfly:3,src=hotspot:3:1,lambda=0.2", "butterfly:3,src=hotspot:3:1,lambda=0.2"),
    ("kd:3x4x5,lambda=0.02,slot=1", "kd:3x4x5,lambda=0.02,slot=1"),
    ("kd:3x3,lambda=0.02,slot=0.25,queues=true", "kd:3x3,lambda=0.02,slot=0.25,queues=true"),
    ("mesh:5,router=randomized,traffic=nearby:0.5,lambda=0.1,saturated=true,self=false,quantiles=true", "mesh:5,router=randomized,traffic=nearby:0.5,lambda=0.1,self=false,saturated=true,quantiles=true"),
    ("mesh:8,traffic=transpose,util=0.5,queues=true", "mesh:8,traffic=transpose,util=0.5,queues=true"),
    ("mesh:8,traffic=bitrev,lambda=0.05,self=true,saturated=false", "mesh:8,traffic=bitrev,lambda=0.05"),
    ("torus:6,router=oddeven,traffic=transpose,util=0.4", "torus:6,router=oddeven,traffic=transpose,util=0.4"),
    ("torus:4,router=westfirst,traffic=shuffle,lambda=0.1", "torus:4,router=westfirst,traffic=shuffle,lambda=0.1"),
    ("mesh:6,traffic=hotspot:0.4:7,src=hotspot:2.5:3,lambda=0.02", "mesh:6,traffic=hotspot:0.4:7,src=hotspot:2.5:3,lambda=0.02"),
    ("mesh:6,traffic=hotspot:0.25,lambda=0.02", "mesh:6,traffic=hotspot:0.25,lambda=0.02"),
    ("hypercube:6,traffic=bitcomp,util=0.3", "hypercube:6,traffic=bitcomp,util=0.3"),
    ("hypercube:16 traffic=shuffle load=rho:0.5 engine=sharded:2", "hypercube:16,traffic=shuffle,rho=0.5,shards=2"),
    ("hypercube:16 traffic=shuffle load=rho:0.5 engine=sharded:2 horizon=20 warmup=5 seed=3", "hypercube:16,traffic=shuffle,rho=0.5,horizon=20,seed=3,shards=2"),
    ("hypercube:16,horizon=2000,warmup=200", "hypercube:16,lambda=0.1,horizon=2000,warmup=200"),
    ("mesh:16 traffic=transpose router=oddeven load=util:0.5 faults=links:0.05", "mesh:16,router=oddeven,traffic=transpose,util=0.5,faults=links:0.05"),
    ("mesh:6,rho=0.4,faults=links:0.05+at:100+repair:200,shards=4", "mesh:6,rho=0.4,faults=links:0.05+at:100+repair:200,shards=4"),
    ("mesh:6,rho=0.4,faults=none,probes=none,engine=auto", "mesh:6,rho=0.4"),
    ("mesh:6,rho=0.4,probes=nsys,maxq@10", "mesh:6,rho=0.4,probes=nsys,maxq@10"),
    ("torus:5 util=0.3 probes=all engine=sharded:3 router=westfirst", "torus:5,router=westfirst,util=0.3,probes=nsys,maxq,drops,delivered,shards,shards=3"),
    ("mesh:8,lambda=0.05,faults=nodes:0.02+link:7+node:3+at:5,probes=drops,delivered", "mesh:8,lambda=0.05,faults=nodes:0.02+link:7+node:3+at:5,probes=drops,delivered"),
    ("mesh:8,load=lambda:0.05,seed=0,horizon=900,warmup=0", "mesh:8,lambda=0.05,horizon=900,warmup=0,seed=0"),
];

/// `(input, SweepSpec::parse(input).spec_string())`: the CI sweep smoke
/// strings plus default-valued and reordered clauses.
const SWEEP_PINS: &[(&str, &str)] = &[
    ("topo=mesh:5|torus:5|hypercube:3|butterfly:3 load=rho:0.2|rho:0.6 reps=2 seed=7 horizon=600 warmup=60", "topo=mesh:5|torus:5|hypercube:3|butterfly:3 load=rho:0.2|rho:0.6 reps=2 seed=7 horizon=600 warmup=60"),
    ("topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 reps=2 seed=7 horizon=600 warmup=60", "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 reps=2 seed=7 horizon=600 warmup=60"),
    ("topo=mesh:6 traffic=transpose load=util:0.3 router=greedy|oddeven reps=2 seed=7 horizon=600 warmup=60", "topo=mesh:6 load=util:0.3 router=greedy|oddeven traffic=transpose reps=2 seed=7 horizon=600 warmup=60"),
    ("topo=hypercube:16 traffic=shuffle load=rho:0.3 reps=1 seed=7 horizon=30 warmup=3", "topo=hypercube:16 load=rho:0.3 traffic=shuffle seed=7 horizon=30 warmup=3"),
    ("topo=hypercube:16 traffic=shuffle load=rho:0.3 reps=1 seed=7 horizon=30 warmup=3 probes=nsys,shards", "topo=hypercube:16 load=rho:0.3 traffic=shuffle probes=nsys,shards seed=7 horizon=30 warmup=3"),
    ("topo=hypercube:16 traffic=shuffle load=rho:0.3 faults=none|links:0.05 reps=1 seed=7 horizon=30 warmup=3", "topo=hypercube:16 load=rho:0.3 traffic=shuffle faults=none|links:0.05 seed=7 horizon=30 warmup=3"),
    ("topo=mesh:5|mesh:3x7|torus:6|hypercube:4|butterfly:3|kd:3x3x3 load=rho:0.2|util:0.7|lambda:0.05 reps=2 seed=11 horizon=auto:500:4000", "topo=mesh:5|mesh:3x7|torus:6|hypercube:4|butterfly:3|kd:3x3x3 load=rho:0.2|util:0.7|lambda:0.05 reps=2 seed=11 horizon=auto:500:4000"),
    ("topo=mesh:4 load=rho:0.5 router=greedy service=det src=uniform faults=none engine=auto probes=none saturated=false", "topo=mesh:4 load=rho:0.5"),
    ("topo=mesh:4 load=rho:0.2 horizon=100", "topo=mesh:4 load=rho:0.2 horizon=100 warmup=10"),
];

/// Canonical sweep strings (those of the sweep grammar's round-trip unit
/// test); each renders back to itself.
const CANONICAL_SWEEPS: &[&str] = &[
    "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8",
    "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 engine=auto|sharded:2",
    "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 engine=sharded:1|sharded:4",
    "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 router=greedy|randomized reps=3 seed=42",
    "topo=hypercube:5 load=util:0.5|lambda:0.25 traffic=uniform|bernoulli:0.25 service=exp",
    "topo=mesh:4 load=util:0.3 traffic=uniform|transpose|hotspot:0.25 src=hotspot:4:0",
    "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 horizon=auto:1500:12000",
    "topo=mesh:4|torus:4 load=rho:0.2|rho:0.8 horizon=900 warmup=90 saturated=true",
];

/// A sweep that varies all six axes, with probes on.
const CELL_SWEEP: &str = "topo=mesh:4|torus:4 load=rho:0.2|util:0.3 router=greedy|westfirst \
    traffic=uniform|transpose faults=none|links:0.05 engine=auto|sharded:2 \
    probes=nsys,maxq@10 saturated=true horizon=400 warmup=40 seed=7";

/// `CELL_SWEEP`'s canonical rendering.
const CELL_SWEEP_CANONICAL: &str = "topo=mesh:4|torus:4 load=rho:0.2|util:0.3 router=greedy|westfirst traffic=uniform|transpose faults=none|links:0.05 probes=nsys,maxq@10 engine=auto|sharded:2 seed=7 horizon=400 warmup=40 saturated=true";

/// `(cell spec_string, cell seed)` of every cell of `CELL_SWEEP`, in
/// expansion order.
const CELL_PINS: &[(&str, u64)] = &[
    ("mesh:4,rho=0.2,horizon=400,warmup=40,seed=1602179304129671046,saturated=true,probes=nsys,maxq@10", 0x163c1596a121af86),
    ("mesh:4,rho=0.2,horizon=400,warmup=40,seed=1602179304129671046,saturated=true,probes=nsys,maxq@10,shards=2", 0x163c1596a121af86),
    ("mesh:4,rho=0.2,horizon=400,warmup=40,seed=4166903852787293769,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x39d3d0fa1697de49),
    ("mesh:4,rho=0.2,horizon=400,warmup=40,seed=4166903852787293769,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x39d3d0fa1697de49),
    ("mesh:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=4228999872013080111,saturated=true,probes=nsys,maxq@10", 0x3ab06cfa3683162f),
    ("mesh:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=4228999872013080111,saturated=true,probes=nsys,maxq@10,shards=2", 0x3ab06cfa3683162f),
    ("mesh:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=14381829686645222107,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0xc79685e6dca7eadb),
    ("mesh:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=14381829686645222107,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0xc79685e6dca7eadb),
    ("mesh:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=17544140743167891761,saturated=true,probes=nsys,maxq@10", 0xf3794f0d95fad931),
    ("mesh:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=17544140743167891761,saturated=true,probes=nsys,maxq@10,shards=2", 0xf3794f0d95fad931),
    ("mesh:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=16681112650417375177,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0xe77f3793426707c9),
    ("mesh:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=16681112650417375177,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0xe77f3793426707c9),
    ("mesh:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=1788978157190592100,saturated=true,probes=nsys,maxq@10", 0x18d3ba27d2473664),
    ("mesh:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=1788978157190592100,saturated=true,probes=nsys,maxq@10,shards=2", 0x18d3ba27d2473664),
    ("mesh:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3252824767526002161,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x2d245ae450faddf1),
    ("mesh:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3252824767526002161,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x2d245ae450faddf1),
    ("mesh:4,util=0.3,horizon=400,warmup=40,seed=16693755456453283758,saturated=true,probes=nsys,maxq@10", 0xe7ac2223ed230fae),
    ("mesh:4,util=0.3,horizon=400,warmup=40,seed=16693755456453283758,saturated=true,probes=nsys,maxq@10,shards=2", 0xe7ac2223ed230fae),
    ("mesh:4,util=0.3,horizon=400,warmup=40,seed=4463438051052725788,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x3df1514255f5a61c),
    ("mesh:4,util=0.3,horizon=400,warmup=40,seed=4463438051052725788,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x3df1514255f5a61c),
    ("mesh:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16231071811489352692,saturated=true,probes=nsys,maxq@10", 0xe14059d10fadcbf4),
    ("mesh:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16231071811489352692,saturated=true,probes=nsys,maxq@10,shards=2", 0xe14059d10fadcbf4),
    ("mesh:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=981254415179581923,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x0d9e1db1131009e3),
    ("mesh:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=981254415179581923,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x0d9e1db1131009e3),
    ("mesh:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=17506817749283963575,saturated=true,probes=nsys,maxq@10", 0xf2f4b5fce59302b7),
    ("mesh:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=17506817749283963575,saturated=true,probes=nsys,maxq@10,shards=2", 0xf2f4b5fce59302b7),
    ("mesh:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=9551981719825864822,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x848f74c3ff3ed876),
    ("mesh:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=9551981719825864822,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x848f74c3ff3ed876),
    ("mesh:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16664337171928886745,saturated=true,probes=nsys,maxq@10", 0xe7439e5dce28add9),
    ("mesh:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16664337171928886745,saturated=true,probes=nsys,maxq@10,shards=2", 0xe7439e5dce28add9),
    ("mesh:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16927356468215642766,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0xeaea0d05da677a8e),
    ("mesh:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16927356468215642766,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0xeaea0d05da677a8e),
    ("torus:4,rho=0.2,horizon=400,warmup=40,seed=14971929508281025881,saturated=true,probes=nsys,maxq@10", 0xcfc6fa9027478559),
    ("torus:4,rho=0.2,horizon=400,warmup=40,seed=14971929508281025881,saturated=true,probes=nsys,maxq@10,shards=2", 0xcfc6fa9027478559),
    ("torus:4,rho=0.2,horizon=400,warmup=40,seed=9765715874849408848,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x8786cad8e1cac750),
    ("torus:4,rho=0.2,horizon=400,warmup=40,seed=9765715874849408848,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x8786cad8e1cac750),
    ("torus:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3616499247706109340,saturated=true,probes=nsys,maxq@10", 0x323062e79dfd759c),
    ("torus:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3616499247706109340,saturated=true,probes=nsys,maxq@10,shards=2", 0x323062e79dfd759c),
    ("torus:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=13877876713340545167,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0xc0981f57b754288f),
    ("torus:4,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=13877876713340545167,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0xc0981f57b754288f),
    ("torus:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=8893367591520908988,saturated=true,probes=nsys,maxq@10", 0x7b6b96b4959336bc),
    ("torus:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=8893367591520908988,saturated=true,probes=nsys,maxq@10,shards=2", 0x7b6b96b4959336bc),
    ("torus:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=6001298902809411208,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x5348e58e4ce57e88),
    ("torus:4,router=westfirst,rho=0.2,horizon=400,warmup=40,seed=6001298902809411208,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x5348e58e4ce57e88),
    ("torus:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3295916246758519689,saturated=true,probes=nsys,maxq@10", 0x2dbd725d297af389),
    ("torus:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3295916246758519689,saturated=true,probes=nsys,maxq@10,shards=2", 0x2dbd725d297af389),
    ("torus:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3947781890259315298,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x36c956b683a06a62),
    ("torus:4,router=westfirst,traffic=transpose,rho=0.2,horizon=400,warmup=40,seed=3947781890259315298,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x36c956b683a06a62),
    ("torus:4,util=0.3,horizon=400,warmup=40,seed=6635443665134462996,saturated=true,probes=nsys,maxq@10", 0x5c15d4db7b74a814),
    ("torus:4,util=0.3,horizon=400,warmup=40,seed=6635443665134462996,saturated=true,probes=nsys,maxq@10,shards=2", 0x5c15d4db7b74a814),
    ("torus:4,util=0.3,horizon=400,warmup=40,seed=9025409742058931083,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x7d40b2577bc5c38b),
    ("torus:4,util=0.3,horizon=400,warmup=40,seed=9025409742058931083,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x7d40b2577bc5c38b),
    ("torus:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=15291712619178218065,saturated=true,probes=nsys,maxq@10", 0xd437139bb179d251),
    ("torus:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=15291712619178218065,saturated=true,probes=nsys,maxq@10,shards=2", 0xd437139bb179d251),
    ("torus:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16118524332755465222,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0xdfb0807b25613406),
    ("torus:4,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=16118524332755465222,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0xdfb0807b25613406),
    ("torus:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=2823511597431509127,saturated=true,probes=nsys,maxq@10", 0x272f20d69819d087),
    ("torus:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=2823511597431509127,saturated=true,probes=nsys,maxq@10,shards=2", 0x272f20d69819d087),
    ("torus:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=10264100321258988694,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0x8e7168dc539d6496),
    ("torus:4,router=westfirst,util=0.3,horizon=400,warmup=40,seed=10264100321258988694,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0x8e7168dc539d6496),
    ("torus:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=1647207774746263186,saturated=true,probes=nsys,maxq@10", 0x16dc0ebe6d033e92),
    ("torus:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=1647207774746263186,saturated=true,probes=nsys,maxq@10,shards=2", 0x16dc0ebe6d033e92),
    ("torus:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=11862337612286694829,saturated=true,faults=links:0.05,probes=nsys,maxq@10", 0xa49f7d35821a95ad),
    ("torus:4,router=westfirst,traffic=transpose,util=0.3,horizon=400,warmup=40,seed=11862337612286694829,saturated=true,faults=links:0.05,probes=nsys,maxq@10,shards=2", 0xa49f7d35821a95ad),
];

#[test]
fn scenario_spec_strings_are_pinned() {
    for &(input, want) in SCENARIO_PINS {
        let sc = Scenario::parse(input).unwrap_or_else(|e| panic!("`{input}`: {e}"));
        assert_eq!(sc.spec_string(), want, "rendering of `{input}`");
        let again = Scenario::parse(want).unwrap_or_else(|e| panic!("`{want}`: {e}"));
        assert_eq!(again, sc, "`{want}` parses to a different scenario");
        assert_eq!(again.spec_string(), want);
    }
}

#[test]
fn sweep_spec_strings_are_pinned() {
    for &(input, want) in SWEEP_PINS {
        let sweep = SweepSpec::parse(input).unwrap_or_else(|e| panic!("`{input}`: {e}"));
        assert_eq!(sweep.spec_string(), want, "rendering of `{input}`");
        let again = SweepSpec::parse(want).unwrap_or_else(|e| panic!("`{want}`: {e}"));
        assert_eq!(again, sweep, "`{want}` parses to a different sweep");
        assert_eq!(again.spec_string(), want);
    }
    for &canonical in CANONICAL_SWEEPS {
        let sweep = SweepSpec::parse(canonical).unwrap_or_else(|e| panic!("`{canonical}`: {e}"));
        assert_eq!(sweep.spec_string(), canonical);
    }
}

#[test]
fn cell_specs_and_seeds_are_pinned() {
    let sweep = SweepSpec::parse(CELL_SWEEP).unwrap();
    assert_eq!(sweep.spec_string(), CELL_SWEEP_CANONICAL);
    let cells = sweep.expand().unwrap();
    let got: Vec<(String, u64)> = cells.iter().map(|c| (c.spec_string(), c.seed)).collect();
    assert_eq!(got.len(), CELL_PINS.len());
    for (i, ((spec, seed), &(want_spec, want_seed))) in got.iter().zip(CELL_PINS).enumerate() {
        assert_eq!(spec, want_spec, "cell {i}");
        assert_eq!(*seed, want_seed, "cell {i} seed");
        assert_eq!(
            sweep.cell_seed(&cells[i]),
            want_seed,
            "cell {i} re-derived seed"
        );
    }
}
