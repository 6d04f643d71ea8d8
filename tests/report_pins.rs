//! Golden pins for the analytic side: every finite bit of a scenario's
//! `BoundsReport` and of the rate readers it is built from.
//!
//! For each scenario the table pins
//! - an FNV-1a hash of `BoundsReport::compute_for`'s compact JSON (the
//!   writer prints shortest round-trip floats, so this covers every
//!   finite bit of every field);
//! - the bits of `upper`, because JSON writes ∞ and NaN alike as `null`;
//! - the bits of `lambda()` and `total_arrival()`;
//! - an FNV-1a hash of the bits of `edge_rates()`;
//! - an FNV-1a hash of the bits of `mean_distance()`,
//!   `stability_lambda()` and `peak_utilization()`.
//!
//! The scenarios cover every closed form (Theorem 6 on the square mesh,
//! the §6 torus rows, the §4.5 hypercube and butterfly), path
//! enumeration, the sparse path above 512 nodes, both adaptive routers on
//! both 2-D families, a faulted scenario, builder-only workloads, each
//! load convention, and a cube above the unit-rate memo's edge gate.
//!
//! The report is seed-free: every pinned scenario serializes identically
//! at two seeds, the faulted one included (its fault plans are surveyed
//! next to the runs that draw them, not in the report).

use meshbound::{Load, Scenario, SourceSpec, TrafficSpec};

/// `(name, report JSON hash, upper bits, lambda bits, total_arrival bits,
/// edge_rates hash, reader hash)`.
type Pin = (&'static str, u64, u64, u64, u64, u64, u64);

const PINS: &[Pin] = &[
    (
        "mesh:10 rho=0.8",
        0x9a0cc90762aa0f79,
        0x4036083127f8f098,
        0x3fd47ae147ae147b,
        0x4040000000000000,
        0x4c48da745eb1bdad,
        0xb1303483bb2e8c63,
    ),
    (
        "mesh:20 rho=0.8",
        0x1499812ce3fbbd7c,
        0x404614ed5abe77c1,
        0x3fc47ae147ae147b,
        0x4050000000000000,
        0xedee780b06bf6025,
        0x3bc74c1412dad8ce,
    ),
    (
        "torus:8 util=0.5",
        0xa1c1e092738c923a,
        0x7ff0000000000000,
        0x3fd999999999999a,
        0x403999999999999a,
        0xa96364c6b44dee25,
        0x72864be96f392249,
    ),
    (
        "hypercube:6 util=0.5",
        0x1c9670236a47744d,
        0x4018000000000000,
        0x3ff0000000000000,
        0x4050000000000000,
        0x4433204bfe73db25,
        0x8f47a54fbf5c20b0,
    ),
    (
        "hypercube:6 traffic=bernoulli:0.25 util=0.5",
        0x510fbd9ffeaefb75,
        0x4008000000000000,
        0x4000000000000000,
        0x4060000000000000,
        0x4433204bfe73db25,
        0x0076edd2e142a9dd,
    ),
    (
        "hypercube:6 traffic=bernoulli:0.25 lambda=0.8",
        0x842e7a6962bb9966,
        0x3ffe000000000000,
        0x3fe999999999999a,
        0x404999999999999a,
        0x2727e5d9dc5a5e25,
        0x2d8dbbaabdbbd88d,
    ),
    (
        "butterfly:4 util=0.7",
        0xa9047ccaf9eb61ac,
        0x402aaaaaaaaaaaaa,
        0x3ff6666666666666,
        0x4036666666666666,
        0x19e68e6d881e9f25,
        0x6ce310a682c66f6a,
    ),
    (
        "mesh:3x6 util=0.5",
        0x5946b3ed9f8168fe,
        0x40120c60c60c60c4,
        0x3fd5555555555554,
        0x4017fffffffffffe,
        0xa09950a53c9cef4d,
        0x3b8757c6b4158c09,
    ),
    (
        "mesh:5 router=randomized lambda=0.2",
        0x939081f5d7346f07,
        0x401033540cd50337,
        0x3fc999999999999a,
        0x4014000000000000,
        0xe38c99b271831b65,
        0x7a6b07e91828035e,
    ),
    (
        "mesh:6 router=randomized traffic=transpose util=0.5",
        0x8eba64661c34771f,
        0x4016ff8c6a8dc552,
        0x3fc999999999999a,
        0x401ccccccccccccd,
        0x4bdcd22ce988a7f5,
        0x4fa7dc0974975792,
    ),
    (
        "mesh:5 traffic=nearby:0.5 lambda=0.3",
        0x7ae1149cc16c54fa,
        0x3ff65a55aa8d281f,
        0x3fd3333333333333,
        0x401e000000000000,
        0xf6ad7a9cf474b975,
        0xd439d9d5341a8651,
    ),
    (
        "kd:3x3x3 util=0.5",
        0x3be9596fcaddf3b3,
        0x4015555555555553,
        0x3fe8000000000002,
        0x4034400000000002,
        0x02fe0bc22f51d7e5,
        0x5ec190d6811769b4,
    ),
    (
        "mesh:8 traffic=transpose util=0.5",
        0xcf5174fc301c5d92,
        0x401e57368aae7c60,
        0x3fb2492492492492,
        0x4012492492492492,
        0x76098759bc732395,
        0x0640f30a70d779ac,
    ),
    (
        "mesh:8 traffic=bitrev util=0.5",
        0xc024781b6bccd53c,
        0x4012aaaaaaaaaaad,
        0x3fd0000000000000,
        0x4030000000000000,
        0x6ceaf39480536325,
        0xa502ec8a5a3067dd,
    ),
    (
        "mesh:6 traffic=hotspot:0.2 util=0.5",
        0x16713903c7718570,
        0x4011ac4bd8130f6e,
        0x3fbaaaaaaaaaaaac,
        0x400e000000000002,
        0xe137e75792f0381c,
        0x42805a2676119f9c,
    ),
    (
        "torus:4 traffic=bitcomp util=0.4",
        0xa6bd973f23c75e51,
        0x7ff0000000000000,
        0x3fd999999999999a,
        0x401999999999999a,
        0x50254a14c39d9965,
        0x4d3dee1fb02b0945,
    ),
    (
        "torus:8 traffic=hotspot:0.2 util=0.5",
        0x92c48e6757be3516,
        0x7ff0000000000000,
        0x3fb14c1bacf914ba,
        0x40114c1bacf914ba,
        0xa5ea196557212622,
        0xa0473a795b749647,
    ),
    (
        "hypercube:4 traffic=bitcomp util=0.5",
        0x58d687d7bcc5bfa2,
        0x4020000000000000,
        0x3fe0000000000000,
        0x4020000000000000,
        0x486be5f4d9751725,
        0x4186217bf8239c25,
    ),
    (
        "hypercube:6 traffic=hotspot:0.3 util=0.5",
        0xb7e1aeaed66d825e,
        0x400a7aaa06799851,
        0x3fa9ba885c9f8485,
        0x4009ba885c9f8485,
        0x8f8d5eb342985796,
        0xcfd86849d4681a9c,
    ),
    (
        "mesh:5 src=hotspot:4 util=0.5",
        0x16f1d68b4108cbc5,
        0x4010bda7103b5a48,
        0x3fcddddddddddddc,
        0x4017555555555554,
        0x7cef2ce48e1a0b74,
        0x2ccb49cec2b47260,
    ),
    (
        "mesh:4 traffic=hotspot:0.3:5 src=hotspot:2:3 lambda=0.05",
        0x6d602f34da0e6841,
        0x400438e215a47c14,
        0x3fa999999999999a,
        0x3fe999999999999a,
        0x20eb5563744c3efd,
        0x4232c4fbc0824e26,
    ),
    (
        "butterfly:3 src=hotspot:4 lambda=0.2",
        0x0b7f72de2aa1b727,
        0x400bb6b36b36b369,
        0x3fc999999999999a,
        0x3ff999999999999a,
        0x9b4a5be83d129f35,
        0xd9172cbe3b9d9128,
    ),
    (
        "butterfly:4 src=hotspot:4:0 util=0.5",
        0x110d0004ae8fbece,
        0x4013b001abdfd17d,
        0x3fd3000000000000,
        0x4013000000000000,
        0x94bafe4703e495a5,
        0x5c34f815cb89169e,
    ),
    (
        "hypercube:10 traffic=shuffle rho=0.5",
        0x771f385974b943ff,
        0x4024000000000000,
        0x3fe0000000000000,
        0x4080000000000000,
        0xede24c1ff49aa325,
        0x3f24bdf485348281,
    ),
    (
        "hypercube:10 traffic=hotspot:0.2 util=0.5",
        0x2ffeb4cefd309aca,
        0x4014b07fb6a5fc43,
        0x3f73ec13ec13ebe2,
        0x4013ec13ec13ebe2,
        0x8e3950d11b155aff,
        0xaed7c43d546e2f66,
    ),
    (
        "mesh:24 traffic=hotspot:0.1 util=0.5",
        0x10d7cd2d236b30e0,
        0x4031104e36043f02,
        0x3f8df1077c41deee,
        0x4020d79435e50d66,
        0xe7c0775ad4916e02,
        0xfea48fcdfbf912f3,
    ),
    (
        "torus:24 traffic=hotspot:0.1 util=0.5",
        0x62137b010b9ad7c0,
        0x7ff0000000000000,
        0x3f9023814faf4e65,
        0x402227f179a53832,
        0x3963fc7a96ad1c21,
        0x69f55e5d510c6fee,
    ),
    (
        "mesh:6 router=westfirst util=0.5",
        0xa9ae4d446b6085da,
        0x7ff0000000000000,
        0x3fd06d84ca9c106f,
        0x40227b3563ef927d,
        0x9e189197f1f9cba8,
        0x7afd13fe33bf8d29,
    ),
    (
        "mesh:6 router=westfirst traffic=transpose util=0.4",
        0xbe20bc79a08c6b68,
        0x7ff0000000000000,
        0x3fb47ae147ae147b,
        0x40070a3d70a3d70a,
        0x4c3876c8b4549585,
        0x53ea554873e8fc32,
    ),
    (
        "mesh:8 router=oddeven traffic=transpose util=0.5",
        0x9c08343fe6937ae0,
        0x7ff0000000000000,
        0x3fb7ad2208e0ecc3,
        0x4017ad2208e0ecc3,
        0xc14be817640cb994,
        0x2c30c2d6c98e7169,
    ),
    (
        "torus:5 router=oddeven util=0.5",
        0x15b75641968fcf6d,
        0x7ff0000000000000,
        0x3fe8ffffffffffff,
        0x403387ffffffffff,
        0xd4a8f50615e1b503,
        0x4701342e5a33134e,
    ),
    (
        "torus:5 router=oddeven lambda=0.05",
        0x96982b09d0224456,
        0x7ff0000000000000,
        0x3fa999999999999a,
        0x3ff4000000000000,
        0xf9e8c41a3d8f5dd1,
        0xe9613adc76e188b8,
    ),
    (
        "torus:5 router=westfirst util=0.3",
        0xd7940a3433a1d271,
        0x7ff0000000000000,
        0x3fdffffffffffffe,
        0x4028fffffffffffe,
        0x90206e2d215bd804,
        0x1e4eb43a6ae22377,
    ),
    (
        "mesh:6 rho=0.5 faults=links:0.1",
        0xdf2058c7a050e7ab,
        0x401af42f42f42f43,
        0x3fd5555555555555,
        0x4028000000000000,
        0xabf12c2ba3b25c35,
        0x7cba8d80cd301e0d,
    ),
    (
        "mesh:7 lambda=0.05",
        0x820b784849561e8a,
        0x4013b2be097d3ff2,
        0x3fa999999999999a,
        0x400399999999999a,
        0x5f7dad9fa6dbec85,
        0xd8f6f109807e41c2,
    ),
    (
        "mesh:7 rho=0.5",
        0xa0f82bd5409dc06c,
        0x401f956b86576fa0,
        0x3fd2492492492492,
        0x402c000000000000,
        0x5353569bfd755f85,
        0x0522806d3a40e1cd,
    ),
    (
        "mesh:7 util=0.5",
        0xa38d4367b4f5e92b,
        0x40200bf112a8ad28,
        0x3fd2aaaaaaaaaaab,
        0x402c955555555556,
        0x6208bd556121bbe5,
        0x51351aa5e7e481c6,
    ),
    (
        "mesh:9 util=0.6",
        0x31cf685579fa8fa0,
        0x4028740988177e09,
        0x3fd147ae147ae147,
        0x4035deb851eb851e,
        0xc2c94a5aa536f585,
        0x3122692447e290fb,
    ),
    (
        "mesh:13 util=0.5",
        0xb47ac54e0e74e1a5,
        0x402db65ced934076,
        0x3fc3cf3cf3cf3cf4,
        0x403a279e79e79e7a,
        0xf6416609c7830fc5,
        0xd8f313e7785c833a,
    ),
    (
        "mesh:3x6 rho=0.4",
        0x49c218a486eda91b,
        0x40100833e5c74ee0,
        0x3fd1111111111110,
        0x4013333333333332,
        0xca69efb2ca9c0f69,
        0x1034d075fd4cdb39,
    ),
    (
        "mesh:3x6 lambda=0.05",
        0xf817369545645e3f,
        0x4007eff7cddf6ed9,
        0x3fa999999999999a,
        0x3feccccccccccccd,
        0xbefb576e926e142d,
        0x004cc33162cd6976,
    ),
    (
        "torus:5 rho=0.5",
        0x9bbe7cd2961ecd0d,
        0x7ff0000000000000,
        0x3feaaaaaaaaaaaab,
        0x4034d55555555556,
        0x8f376f92e07f9965,
        0x34d09a61be9a9157,
    ),
    (
        "torus:7 util=0.6",
        0xe3f6952b739e8715,
        0x7ff0000000000000,
        0x3fe6666666666667,
        0x4041266666666667,
        0x9659a71794865fe5,
        0xd56c20f7e2559f1c,
    ),
    (
        "hypercube:5 rho=0.3",
        0x9a0b728ec18d97a1,
        0x400c924924924926,
        0x3fe3333333333333,
        0x4033333333333333,
        0xa6cf720ad7deed25,
        0x6448e4548228124d,
    ),
    (
        "butterfly:5 rho=0.3",
        0xabe938066c57894f,
        0x401c924924924926,
        0x3fe3333333333333,
        0x4033333333333333,
        0xa16d1e8a0d63b725,
        0x1d40b91aa7d5ea3d,
    ),
    (
        "kd:3x4x5 rho=0.4",
        0xd53c9485f62ca4b5,
        0x4015765bc2d37315,
        0x3fd5555555555553,
        0x4033fffffffffffe,
        0xbd5c19d589f3b445,
        0x4c533a8b12686abd,
    ),
    (
        "kd:3x4x5 lambda=0.02",
        0x2c7b36d350280f14,
        0x400e73cae8f2b837,
        0x3f947ae147ae147b,
        0x3ff3333333333333,
        0x6f0c19aecf30f275,
        0x5cabd4d6c5de714f,
    ),
    (
        "hypercube:13 traffic=shuffle rho=0.5",
        0xc1647fba4e1bec25,
        0x402a000000000000,
        0x3fe0000000000000,
        0x40b0000000000000,
        0x708cf52283142325,
        0xef5ab8b85ac49caf,
    ),
    (
        "matrix mesh:2 silent rows lambda=0.1",
        0xa4ca70d602b721b1,
        0x3ffa082082082083,
        0x3fb999999999999a,
        0x3fd999999999999a,
        0x65638ca15644f7ae,
        0x7fc458716f3db5c9,
    ),
    (
        "matrix mesh:2 silent rows util=0.5",
        0xb346bbe3c1276ebc,
        0x4000cccccccccccd,
        0x3fc5555555555555,
        0x3fe5555555555555,
        0x55aa67067e944ea8,
        0x8700dbbf0ed7470b,
    ),
    (
        "rates mesh:3 1..9 util=0.5",
        0xa8c8d98f27157591,
        0x40066bff03cadb33,
        0x3fdaaaaaaaaaaaab,
        0x400e000000000000,
        0x9f250189d9ae8e5c,
        0x124007bd4b232d2d,
    ),
];

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fnv_bits(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Scenarios given by spec string; the spec is the pin's name.
const SPECS: &[&str] = &[
    // Closed forms.
    "mesh:10 rho=0.8",
    "mesh:20 rho=0.8",
    "torus:8 util=0.5",
    "hypercube:6 util=0.5",
    "hypercube:6 traffic=bernoulli:0.25 util=0.5",
    "hypercube:6 traffic=bernoulli:0.25 lambda=0.8",
    "butterfly:4 util=0.7",
    // Path enumeration.
    "mesh:3x6 util=0.5",
    "mesh:5 router=randomized lambda=0.2",
    "mesh:6 router=randomized traffic=transpose util=0.5",
    "mesh:5 traffic=nearby:0.5 lambda=0.3",
    "kd:3x3x3 util=0.5",
    "mesh:8 traffic=transpose util=0.5",
    "mesh:8 traffic=bitrev util=0.5",
    "mesh:6 traffic=hotspot:0.2 util=0.5",
    "torus:4 traffic=bitcomp util=0.4",
    "torus:8 traffic=hotspot:0.2 util=0.5",
    "hypercube:4 traffic=bitcomp util=0.5",
    "hypercube:6 traffic=hotspot:0.3 util=0.5",
    "mesh:5 src=hotspot:4 util=0.5",
    "mesh:4 traffic=hotspot:0.3:5 src=hotspot:2:3 lambda=0.05",
    "butterfly:3 src=hotspot:4 lambda=0.2",
    "butterfly:4 src=hotspot:4:0 util=0.5",
    // The sparse path above 512 nodes, with and without a closed-form
    // uniform remainder.
    "hypercube:10 traffic=shuffle rho=0.5",
    "hypercube:10 traffic=hotspot:0.2 util=0.5",
    "mesh:24 traffic=hotspot:0.1 util=0.5",
    "torus:24 traffic=hotspot:0.1 util=0.5",
    // Adaptive routers on the mesh and the torus.
    "mesh:6 router=westfirst util=0.5",
    "mesh:6 router=westfirst traffic=transpose util=0.4",
    "mesh:8 router=oddeven traffic=transpose util=0.5",
    "torus:5 router=oddeven util=0.5",
    "torus:5 router=oddeven lambda=0.05",
    "torus:5 router=westfirst util=0.3",
    // A fault spec, which the analytic report ignores.
    "mesh:6 rho=0.5 faults=links:0.1",
    // Each load convention, on odd and even sides and every family.
    "mesh:7 lambda=0.05",
    "mesh:7 rho=0.5",
    "mesh:7 util=0.5",
    "mesh:9 util=0.6",
    // Theorem 6's closed-form peak sits one ulp from the built vector's
    // maximum at n = 13.
    "mesh:13 util=0.5",
    "mesh:3x6 rho=0.4",
    "mesh:3x6 lambda=0.05",
    "torus:5 rho=0.5",
    "torus:7 util=0.6",
    "hypercube:5 rho=0.3",
    "butterfly:5 rho=0.3",
    "kd:3x4x5 rho=0.4",
    "kd:3x4x5 lambda=0.02",
    // Above the unit-rate memo's 2^16-edge gate.
    "hypercube:13 traffic=shuffle rho=0.5",
];

/// Every pinned scenario, named.
fn cases() -> Vec<(String, Scenario)> {
    let mut cases: Vec<(String, Scenario)> = SPECS
        .iter()
        .map(|spec| {
            let sc = Scenario::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"));
            ((*spec).to_string(), sc)
        })
        .collect();
    // A traffic matrix with two silent rows.
    let rows = vec![
        vec![0.0, 1.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 0.0],
        vec![1.0, 0.0, 2.0, 0.0],
    ];
    cases.push((
        "matrix mesh:2 silent rows lambda=0.1".into(),
        Scenario::mesh(2)
            .traffic(TrafficSpec::matrix(rows.clone()))
            .load(Load::Lambda(0.1)),
    ));
    cases.push((
        "matrix mesh:2 silent rows util=0.5".into(),
        Scenario::mesh(2)
            .traffic(TrafficSpec::matrix(rows))
            .load(Load::Utilization(0.5)),
    ));
    // An explicit per-source rate vector.
    cases.push((
        "rates mesh:3 1..9 util=0.5".into(),
        Scenario::mesh(3)
            .source(SourceSpec::Rates {
                rates: (1..=9).map(f64::from).collect(),
            })
            .load(Load::Utilization(0.5)),
    ));
    cases
}

fn pin_of(name: &str, sc: &Scenario) -> String {
    sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = meshbound::BoundsReport::compute_for(sc);
    let json = serde::json::to_string(&report);
    let readers = [
        sc.mean_distance(),
        sc.stability_lambda(),
        sc.peak_utilization(),
    ];
    format!(
        "    (\"{name}\", {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
        fnv1a(json.bytes()),
        report.upper.to_bits(),
        sc.lambda().to_bits(),
        sc.total_arrival().to_bits(),
        fnv_bits(&sc.edge_rates()),
        fnv_bits(&readers),
    )
}

#[test]
fn reports_and_rate_readers_are_bit_identical_to_the_pins() {
    let expected: Vec<String> = PINS
        .iter()
        .map(|&(name, report, upper, lambda, gamma, rates, readers)| {
            format!(
                "    (\"{name}\", {report:#018x}, {upper:#018x}, {lambda:#018x}, {gamma:#018x}, {rates:#018x}, {readers:#018x}),"
            )
        })
        .collect();
    let actual: Vec<String> = cases().iter().map(|(name, sc)| pin_of(name, sc)).collect();
    let moved: Vec<&String> = actual
        .iter()
        .filter(|row| !expected.contains(row))
        .collect();
    assert!(
        moved.is_empty() && actual.len() == expected.len(),
        "{} of {} pins moved:\n{}\n\nfull table:\n{}",
        moved.len(),
        actual.len(),
        moved
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n"),
        actual.join("\n")
    );
}

#[test]
fn reports_are_seed_free() {
    for (name, sc) in cases() {
        let at = |seed: u64| {
            serde::json::to_string(&meshbound::BoundsReport::compute_for(
                &sc.clone().seed(seed),
            ))
        };
        assert_eq!(at(1), at(2), "{name}");
    }
}
