//! Golden worlds: generated universes pinned byte for byte.
//!
//! Serve answers on generated worlds are pinned as whole response lines,
//! and two fixture worlds are pinned as FNV-1a digests of every fault
//! region (plus the bit pattern of their usage profile). The pins were
//! recorded before fault regions were drawn with the sparse index
//! sampler and before usage profiles shared their storage, so any change
//! to which demands a region covers, to rng consumption while drawing
//! them, or to a profile's probabilities shows up here.
//!
//! A failure prints the observed value for inspection, never for blind
//! re-pinning.

use diversim_bench::hashing::fnv1a64;
use diversim_bench::serve::EvaluationService;
use diversim_bench::worlds::{large, medium_cascade, World};
use diversim_universe::population::Population;

/// One generated-world request line per shape the pins cover.
const REQUESTS: [(&str, &str); 4] = [
    (
        // `serve-cold`'s world shape and request.
        "cold-shape",
        concat!(
            r#"{"api":"diversim/v1","id":"cold-shape","kind":"evaluate","seed":11,"stream":3,"#,
            r#""world":{"kind":"generated","demands":16384,"faults":1024,"region_max":8,"#,
            r#""zipf":1,"prop_lo":0.01,"prop_hi":0.2,"seed":424242},"#,
            r#""regime":"shared","suite_size":16,"replications":50,"study":"estimate"}"#
        ),
    ),
    (
        // Uniform usage (`zipf` 0), independent suites, a growth curve.
        "uniform-q",
        concat!(
            r#"{"api":"diversim/v1","id":"uniform-q","kind":"evaluate","seed":5,"stream":0,"#,
            r#""world":{"kind":"generated","demands":4096,"faults":512,"region_max":4,"#,
            r#""zipf":0,"prop_lo":0.05,"prop_hi":0.5,"seed":7},"#,
            r#""regime":"independent","suite_size":8,"replications":40,"#,
            r#""study":{"kind":"growth","checkpoints":[0,4,8]}}"#
        ),
    ),
    (
        // The largest accepted demand space, 2^20 demands.
        "max-demands",
        concat!(
            r#"{"api":"diversim/v1","id":"max-demands","kind":"evaluate","seed":2,"stream":1,"#,
            r#""world":{"kind":"generated","demands":1048576,"faults":256,"region_max":8,"#,
            r#""zipf":0.5,"prop_lo":0.05,"prop_hi":0.5,"seed":3},"#,
            r#""regime":"shared","suite_size":8,"replications":4,"study":"estimate"}"#
        ),
    ),
    (
        // The largest accepted region size.
        "region-max-64",
        concat!(
            r#"{"api":"diversim/v1","id":"region-max-64","kind":"evaluate","seed":9,"stream":2,"#,
            r#""world":{"kind":"generated","demands":8192,"faults":2048,"region_max":64,"#,
            r#""zipf":2,"prop_lo":0.01,"prop_hi":0.1,"seed":5},"#,
            r#""regime":"independent","suite_size":32,"replications":20,"study":"estimate"}"#
        ),
    ),
];

/// The response line each request in [`REQUESTS`] must get, in order.
const RESPONSES: [&str; 4] = [
    concat!(
        r#"{"api":"diversim/v1","id":"cold-shape","ok":true,"#,
        r#""result":{"kind":"estimate","world":"generated (16384 demands, 1024 faults,"#,
        r#" regions ≤8, skewed Q)","world_hash":"0af3102ca558a72a","#,
        r#""root_seed":"14883607698119369440","replications":50,"#,
        r#""system_pfd":{"mean":0.003710440618251606,"se":0.0003826851963294612},"#,
        r#""version_a_pfd":{"mean":0.0217859477764522,"se":0.0009412407017968586},"#,
        r#""version_b_pfd":{"mean":0.02264413048363739,"se":0.0010282425835286668}}}"#,
    ),
    concat!(
        r#"{"api":"diversim/v1","id":"uniform-q","ok":true,"result":{"kind":"growth","#,
        r#""world":"generated (4096 demands, 512 faults, regions ≤4, uniform Q)","#,
        r#""world_hash":"ef6054c4d698ec94","root_seed":"477579684994630751","#,
        r#""replications":40,"checkpoints":[0,4,8],"#,
        r#""system":[{"mean":0.03298950195312501,"se":0.0007089994115973606},"#,
        r#"{"mean":0.03261718750000001,"se":0.0007040572981936544},"#,
        r#"{"mean":0.032513427734374996,"se":0.0007071485626086724}],"#,
        r#""version_a":[{"mean":0.08348388671874998,"se":0.0008491522528670362},"#,
        r#"{"mean":0.08311157226562502,"se":0.0008246328074327631},"#,
        r#"{"mean":0.08294677734374999,"se":0.0008207717187693556}],"#,
        r#""version_b":[{"mean":0.08411254882812501,"se":0.0009333508734945653},"#,
        r#"{"mean":0.08383178710937501,"se":0.0009100412174549629},"#,
        r#"{"mean":0.083599853515625,"se":0.0009310515042691866}]}}"#,
    ),
    concat!(
        r#"{"api":"diversim/v1","id":"max-demands","ok":true,"#,
        r#""result":{"kind":"estimate","world":"generated (1048576 demands, 256 faults,"#,
        r#" regions ≤8, skewed Q)","world_hash":"3dcd68ca8f478ecb","#,
        r#""root_seed":"12550539900899741067","replications":4,"#,
        r#""system_pfd":{"mean":0.00011748800356416414,"se":0.000009317964454085557},"#,
        r#""version_a_pfd":{"mean":0.00029755411352887066,"#,
        r#""se":0.0000071545426102575235},"#,
        r#""version_b_pfd":{"mean":0.0002874720568635156,"#,
        r#""se":0.000023766986446330493}}}"#,
    ),
    concat!(
        r#"{"api":"diversim/v1","id":"region-max-64","ok":true,"#,
        r#""result":{"kind":"estimate","world":"generated (8192 demands, 2048 faults,"#,
        r#" regions ≤64, skewed Q)","world_hash":"d0129b09488fd1cc","#,
        r#""root_seed":"1594477027395996004","replications":20,"#,
        r#""system_pfd":{"mean":0.01453547716660686,"se":0.002146406311344738},"#,
        r#""version_a_pfd":{"mean":0.04061154364799004,"se":0.0027216898417377006},"#,
        r#""version_b_pfd":{"mean":0.05090919711245665,"se":0.005829867070314957}}}"#,
    ),
];

#[test]
fn generated_world_responses_keep_their_bytes() {
    let service = EvaluationService::new(2, 8);
    let mut mismatches = Vec::new();
    for ((name, request), expected) in REQUESTS.iter().zip(RESPONSES) {
        let observed = service.handle_line(request);
        if observed != expected {
            mismatches.push(format!("{name}:\n    {observed}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated-world responses moved:\n{}",
        mismatches.join("\n")
    );
}

/// FNV-1a digests of every fault region (its size, then its demand
/// indices, all little-endian) and of the profile's probability bits.
fn world_digest(world: &World) -> (u64, u64) {
    let model = world.pop_a.model();
    let mut regions = Vec::new();
    for f in model.fault_ids() {
        let region = model.fault(f).region();
        regions.extend_from_slice(&(region.len() as u32).to_le_bytes());
        for x in region {
            regions.extend_from_slice(&x.raw().to_le_bytes());
        }
    }
    let profile: Vec<u8> = world
        .profile
        .probabilities()
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    (fnv1a64(&regions), fnv1a64(&profile))
}

#[test]
fn fixture_world_regions_keep_their_digests() {
    let observed = [
        ("medium_cascade(11)", world_digest(&medium_cascade(11))),
        ("large(2)", world_digest(&large(2))),
    ];
    let expected: [(u64, u64); 2] = [
        (0x3a0dcf1d11c51797, 0x97c0206d82322c59),
        (0x4543d33d4cabb95b, 0x3898932c72158884),
    ];
    let mismatches: Vec<String> = observed
        .iter()
        .zip(expected)
        .filter(|((_, got), want)| *got != *want)
        .map(|((name, (r, p)), _)| format!("{name}: (0x{r:016x}, 0x{p:016x})"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "fixture world digests moved:\n{}",
        mismatches.join("\n")
    );
}
