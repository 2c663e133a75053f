//! The serve workloads' request schedules: pure functions of the
//! workload seed. The server only ever sees the lines rendered here.

use diversim_bench::serve::request::{
    EvaluateRequest, EvaluationRequest, RegimeSpec, RequestKind, StudySpec, SystemSpec, WorldSpec,
};
use diversim_sim::policy::PolicySpec;
use diversim_testing::oracle::IdenticalFailureModel;

use crate::config::PING_EVERY;

/// SplitMix64: a small, fully specified generator, so a schedule
/// depends on nothing but its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` salted by `stream`, so the phases of one
    /// run draw unrelated sequences from one workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seed the wire carries exactly (below 2^53, as JSON numbers
    /// are doubles).
    fn wire_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full-profile sweep: one cold pass, then warm `--resume`
    /// passes.
    CampaignFull,
    /// Open-loop requests on cached fixture worlds.
    ServeHot,
    /// Open-loop requests on a distinct generated world each.
    ServeCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignFull,
        Workload::ServeHot,
        Workload::ServeCold,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignFull => "campaign-full",
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The request classes of the serve mixes; `handle_us` is split by
/// class in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Pair estimate under shared, independent or back-to-back testing.
    Estimate,
    /// Reliability-growth curve.
    Growth,
    /// 2-out-of-3 structure estimate.
    System,
    /// Adaptive (greedy or UCB) allocation.
    Adaptive,
    /// A singleton world with a few replications.
    Light,
    /// A freshly generated world.
    Cold,
    /// Liveness probe.
    Ping,
}

impl Class {
    /// Classes whose handling the traced run times, in metric order.
    pub const HANDLED: [Class; 6] = [
        Class::Estimate,
        Class::Growth,
        Class::System,
        Class::Adaptive,
        Class::Light,
        Class::Cold,
    ];

    /// The class's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Estimate => "estimate",
            Class::Growth => "growth",
            Class::System => "system",
            Class::Adaptive => "adaptive",
            Class::Light => "light",
            Class::Cold => "cold",
            Class::Ping => "ping",
        }
    }
}

/// One scheduled request before it gets its id.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    /// Its class.
    pub class: Class,
    /// The request, with an empty id.
    pub request: EvaluationRequest,
}

impl Body {
    /// The wire line of this body under `id`.
    pub fn line(&self, id: &str) -> String {
        let mut request = self.request.clone();
        request.id = id.to_string();
        request.to_json()
    }
}

/// The standard fixtures `serve-hot` cycles over.
const FIXTURES: [&str; 5] = [
    "small-graded",
    "mirrored",
    "negative-coupling",
    "medium-cascade",
    "large",
];

/// The one singleton world of the light class.
const LIGHT_PROPS: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.3, 0.5];

/// Replications of the heavier `serve-hot` classes on each fixture:
/// about 500, fewer on the two big fixtures, so that no fixture's
/// requests dominate the latency distribution.
fn hot_replications(world: &str) -> u64 {
    match world {
        "medium-cascade" => 150,
        "large" => 100,
        _ => 500,
    }
}

/// Replications of the light class.
const LIGHT_REPLICATIONS: u64 = 20;

/// Replications of a `serve-cold` request: the world build dominates.
const COLD_REPLICATIONS: u64 = 50;

fn evaluate(
    world: WorldSpec,
    regime: RegimeSpec,
    suite_size: usize,
    replications: u64,
    study: StudySpec,
    system: Option<SystemSpec>,
) -> RequestKind {
    RequestKind::Evaluate(EvaluateRequest {
        world,
        regime,
        suite_size,
        replications,
        study,
        system,
    })
}

fn fixture(name: &str) -> WorldSpec {
    WorldSpec::Fixture {
        name: name.to_string(),
    }
}

fn light_world() -> WorldSpec {
    WorldSpec::Singleton {
        props: LIGHT_PROPS.to_vec(),
    }
}

fn cold_world(seed: u64) -> WorldSpec {
    WorldSpec::Generated {
        demands: 16_384,
        faults: 1_024,
        region_max: 8,
        zipf: 1.0,
        prop_lo: 0.01,
        prop_hi: 0.2,
        seed,
    }
}

fn two_of_three() -> SystemSpec {
    SystemSpec::KOutOfN {
        k: 2,
        children: (0..3)
            .map(|index| SystemSpec::Component { index })
            .collect(),
    }
}

/// The `serve-hot` request for `class` on fixture `world`.
fn hot_kind(class: Class, world: &str, variant: u64) -> RequestKind {
    let w = fixture(world);
    let reps = hot_replications(world);
    match class {
        Class::Estimate => {
            let regime = match variant % 3 {
                0 => RegimeSpec::Shared,
                1 => RegimeSpec::Independent,
                _ => RegimeSpec::BackToBack {
                    model: IdenticalFailureModel::Bernoulli(0.3),
                },
            };
            evaluate(w, regime, 8, reps, StudySpec::Estimate, None)
        }
        Class::Growth => evaluate(
            w,
            RegimeSpec::Independent,
            8,
            reps,
            StudySpec::Growth {
                checkpoints: vec![0, 2, 4, 8],
            },
            None,
        ),
        Class::System => evaluate(
            w,
            RegimeSpec::Shared,
            8,
            reps,
            StudySpec::Estimate,
            Some(two_of_three()),
        ),
        Class::Adaptive => {
            let policy = if variant.is_multiple_of(2) {
                PolicySpec::GreedyOnFailures
            } else {
                PolicySpec::UcbIndex { c: 1.0 }
            };
            evaluate(
                w,
                RegimeSpec::Adaptive { policy },
                8,
                reps,
                StudySpec::Estimate,
                None,
            )
        }
        Class::Light => evaluate(
            light_world(),
            RegimeSpec::Shared,
            2,
            LIGHT_REPLICATIONS,
            StudySpec::Estimate,
            None,
        ),
        Class::Cold | Class::Ping => unreachable!("not a serve-hot class"),
    }
}

/// One `serve-hot` cycle: every fixture under three estimate regimes,
/// growth, 2-of-3 system and both adaptive policies, plus one light
/// request per fixture, in a seed-shuffled order. Every cycle has the
/// same mix, so the work per request does not depend on the seed.
fn hot_cycle(rng: &mut SplitMix64) -> Vec<(Class, RequestKind)> {
    let mut cycle = Vec::new();
    for world in FIXTURES {
        for variant in 0..3 {
            cycle.push((Class::Estimate, hot_kind(Class::Estimate, world, variant)));
        }
        for class in [Class::Growth, Class::System, Class::Light] {
            cycle.push((class, hot_kind(class, world, 0)));
        }
        for variant in 0..2 {
            cycle.push((Class::Adaptive, hot_kind(Class::Adaptive, world, variant)));
        }
    }
    rng.shuffle(&mut cycle);
    cycle
}

/// A liveness probe.
pub fn ping() -> Body {
    Body {
        class: Class::Ping,
        request: EvaluationRequest {
            id: String::new(),
            seed: 0,
            stream: 0,
            kind: RequestKind::Ping,
        },
    }
}

/// The first `n` bodies of `workload`'s request stream for `seed`:
/// every [`PING_EVERY`]-th is a ping, the rest follow the workload's
/// mix with seed-drawn replication seeds, streams and (for
/// `serve-cold`) world seeds.
pub fn bodies(workload: Workload, seed: u64, n: usize) -> Vec<Body> {
    let mut rng = SplitMix64::new(seed, 1);
    let mut pending: Vec<(Class, RequestKind)> = Vec::new();
    (0..n)
        .map(|i| {
            if i % PING_EVERY == PING_EVERY - 1 {
                return ping();
            }
            let (class, kind) = match workload {
                Workload::ServeHot => {
                    if pending.is_empty() {
                        pending = hot_cycle(&mut rng);
                    }
                    pending.pop().expect("a cycle is never empty")
                }
                Workload::ServeCold => {
                    let world = cold_world(rng.wire_seed());
                    let kind = evaluate(
                        world,
                        RegimeSpec::Shared,
                        16,
                        COLD_REPLICATIONS,
                        StudySpec::Estimate,
                        None,
                    );
                    (Class::Cold, kind)
                }
                Workload::CampaignFull => panic!("campaign-full has no request stream"),
            };
            Body {
                class,
                request: EvaluationRequest {
                    id: String::new(),
                    seed: rng.wire_seed(),
                    stream: rng.below(16),
                    kind,
                },
            }
        })
        .collect()
}

/// One request per world of `workload`'s mix, sent before measuring:
/// the five fixtures and the light world for `serve-hot`, one
/// generated world (outside the measured stream) for `serve-cold`.
pub fn warmups(workload: Workload) -> Vec<Body> {
    let kinds: Vec<(Class, RequestKind)> = match workload {
        Workload::ServeHot => FIXTURES
            .iter()
            .map(|world| (Class::Estimate, hot_kind(Class::Estimate, world, 0)))
            .chain([(Class::Light, hot_kind(Class::Light, FIXTURES[0], 0))])
            .collect(),
        Workload::ServeCold => vec![(
            Class::Cold,
            evaluate(
                cold_world(u64::MAX >> 11),
                RegimeSpec::Shared,
                16,
                COLD_REPLICATIONS,
                StudySpec::Estimate,
                None,
            ),
        )],
        Workload::CampaignFull => Vec::new(),
    };
    kinds
        .into_iter()
        .map(|(class, kind)| Body {
            class,
            request: EvaluationRequest {
                id: String::new(),
                seed: 1,
                stream: 0,
                kind,
            },
        })
        .collect()
}

/// Open-loop arrival offsets (seconds from the phase start) at `rate`
/// per second for `seconds`: `round(rate × seconds)` independent
/// uniform points, sorted — a Poisson process conditioned on its
/// count, so every seed offers exactly the same load.
pub fn arrivals(seed: u64, phase: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed, 100 + phase);
    let n = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}
