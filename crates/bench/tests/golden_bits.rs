//! Golden-bits regression: replicated studies pinned to the exact `f64`
//! bit patterns they produced before the replication kernels were made
//! lean (each study now evaluates only the pfds it reads), plus the
//! zero-skipping brute-force joint checked against the verbatim full
//! quadruple sum on e03's world/measure pairs.
//!
//! Any change to rng consumption order, fold order or pfd accumulation
//! order moves at least one of these bits. The pinned values are the
//! contract; a failure prints the observed table for inspection, never
//! for blind re-pinning.

use std::sync::Arc;

use diversim_bench::worlds::{asymmetric, medium_cascade, mirrored, small_graded};
use diversim_core::structure::Structure;
use diversim_exact::brute::{joint_on_demand_independent, TestedEnsemble};
use diversim_sim::campaign::CampaignRegime;
use diversim_sim::estimate::Estimate;
use diversim_sim::policy::PolicySpec;
use diversim_sim::system::SystemSpec;
use diversim_stats::online::MeanVar;
use diversim_stats::stopping::StoppingRule;
use diversim_testing::oracle::IdenticalFailureModel;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::demand::DemandId;
use diversim_universe::population::Population;
use diversim_universe::profile::UsageProfile;

/// e17's seven arms (three static regimes, four adaptive policies).
const ARMS: [(&str, CampaignRegime); 7] = [
    ("independent", CampaignRegime::IndependentSuites),
    ("shared", CampaignRegime::SharedSuite),
    (
        "b2b(0.5)",
        CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.5)),
    ),
    (
        "round_robin",
        CampaignRegime::Adaptive(PolicySpec::RoundRobin),
    ),
    (
        "greedy",
        CampaignRegime::Adaptive(PolicySpec::GreedyOnFailures),
    ),
    (
        "epsilon_greedy(0.1)",
        CampaignRegime::Adaptive(PolicySpec::EpsilonGreedy { epsilon: 0.1 }),
    ),
    (
        "ucb(0.5)",
        CampaignRegime::Adaptive(PolicySpec::UcbIndex { c: 0.5 }),
    ),
];

const RUN_FIELDS: [&str; 6] = [
    "first_pfd",
    "second_pfd",
    "system_pfd",
    "first_before",
    "second_before",
    "system_before",
];

fn push_estimate(out: &mut Vec<(String, f64)>, name: &str, e: &Estimate) {
    out.push((format!("{name}.mean"), e.mean));
    out.push((format!("{name}.se"), e.standard_error));
}

fn push_moments(out: &mut Vec<(String, f64)>, name: &str, m: &MeanVar) {
    out.push((format!("{name}.mean"), m.mean()));
    out.push((format!("{name}.var"), m.sample_variance()));
}

fn observed() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let w = asymmetric();

    // Scenario::estimate on every e17 arm (static suite 4, budget 8).
    for (i, (label, regime)) in ARMS.iter().enumerate() {
        let size = match regime {
            CampaignRegime::Adaptive(_) => 8,
            _ => 4,
        };
        let s = w
            .scenario()
            .suite_size(size)
            .regime(*regime)
            .seed(1700 + i as u64)
            .build()
            .unwrap();
        let est = s.estimate(3_000, 2);
        push_estimate(&mut out, &format!("e17.{label}.a"), &est.version_a_pfd);
        push_estimate(&mut out, &format!("e17.{label}.b"), &est.version_b_pfd);
        push_estimate(&mut out, &format!("e17.{label}.system"), &est.system_pfd);
        // Single campaigns' full outcomes, "before" pfds included,
        // summed in seed order.
        let mut sums = [0.0f64; 6];
        for seed in 0..64 {
            let o = s.run(seed);
            let fields = [
                o.first_pfd,
                o.second_pfd,
                o.system_pfd,
                o.first_pfd_before,
                o.second_pfd_before,
                o.system_pfd_before,
            ];
            for (sum, x) in sums.iter_mut().zip(fields) {
                *sum += x;
            }
        }
        for (field, sum) in RUN_FIELDS.iter().zip(sums) {
            out.push((format!("run.{label}.{field}"), sum));
        }
    }

    // A 2-of-3 system under a shared suite on a cascading world.
    let mc = medium_cascade(11);
    let spec = SystemSpec::homogeneous(Structure::k_of_n(2, 3), mc.pop_a.clone()).unwrap();
    let s = mc
        .scenario()
        .system(spec)
        .suite_size(6)
        .regime(CampaignRegime::SharedSuite)
        .seed(31)
        .build()
        .unwrap();
    let est = s.system_estimate(400, 2).unwrap();
    for (i, c) in est.component_pfds.iter().enumerate() {
        push_estimate(&mut out, &format!("sys2of3.c{i}"), c);
    }
    push_estimate(&mut out, "sys2of3.before", &est.system_pfd_before);
    push_estimate(&mut out, "sys2of3.system", &est.system_pfd);

    // An adaptive two-component series system (e20's wiring).
    let spec = SystemSpec::new(
        Structure::series(2),
        vec![Arc::new(w.pop_a.clone()), Arc::new(w.pop_b.clone())],
    )
    .unwrap();
    let s = w
        .scenario()
        .system(spec)
        .suite_size(16)
        .regime(CampaignRegime::Adaptive(PolicySpec::GreedyOnFailures))
        .seed(2010)
        .build()
        .unwrap();
    let est = s.system_estimate(3_000, 2).unwrap();
    for (i, c) in est.component_pfds.iter().enumerate() {
        push_estimate(&mut out, &format!("sysadaptive.c{i}"), c);
    }
    push_estimate(&mut out, "sysadaptive.before", &est.system_pfd_before);
    push_estimate(&mut out, "sysadaptive.system", &est.system_pfd);
    let (mut before, mut after) = (0.0, 0.0);
    for seed in 0..64 {
        let run = s.system_run(seed).unwrap();
        before += run.system_pfd_before;
        after += run.system_pfd;
    }
    out.push(("sysadaptive.run.before".into(), before));
    out.push(("sysadaptive.run.system".into(), after));

    // One policy study.
    let study = w
        .scenario()
        .suite_size(16)
        .regime(CampaignRegime::Adaptive(PolicySpec::EpsilonGreedy {
            epsilon: 0.1,
        }))
        .seed(2013)
        .build()
        .unwrap()
        .policy_study(3_000, 2)
        .unwrap();
    push_moments(&mut out, "policy.shared_fraction", &study.shared_fraction);
    push_moments(&mut out, "policy.only_a", &study.only_a);
    push_moments(&mut out, "policy.only_b", &study.only_b);
    push_moments(&mut out, "policy.shared", &study.shared);

    // One stopping-rule study (e15's failure-free rule).
    let study = mc.scenario().seed(200).build().unwrap().adaptive_study(
        StoppingRule::FailureFree {
            target: 0.02,
            confidence: 0.95,
        },
        100_000,
        0.02,
        300,
        2,
    );
    push_moments(&mut out, "stopping.demands", &study.demands);
    push_moments(&mut out, "stopping.achieved_pfd", &study.achieved_pfd);
    out.push(("stopping.target_met_rate".into(), study.target_met_rate));
    out.push(("stopping.rule_fired_rate".into(), study.rule_fired_rate));
    out
}

/// `(observable, f64::to_bits)` as recorded before the lean kernels.
const GOLDEN: &[(&str, u64)] = &[
    ("e17.independent.a.mean", 0x3fbaec33e1f67151),
    ("e17.independent.a.se", 0x3f6b1b8acdd50f75),
    ("e17.independent.b.mean", 0x3f9db22d0e56041e),
    ("e17.independent.b.se", 0x3f548086e3c11f9b),
    ("e17.independent.system.mean", 0x3f66c16c16c16c1e),
    ("e17.independent.system.se", 0x3f3a0c45cb719669),
    ("run.independent.first_pfd", 0x4018aaaaaaaaaaaa),
    ("run.independent.second_pfd", 0x3ff8000000000000),
    ("run.independent.system_pfd", 0x3fc5555555555555),
    ("run.independent.first_before", 0x4045155555555556),
    ("run.independent.second_before", 0x400bffffffffffff),
    ("run.independent.system_before", 0x4005555555555554),
    ("e17.shared.a.mean", 0x3fba9fbe76c8b43a),
    ("e17.shared.a.se", 0x3f6b016cb5b71396),
    ("e17.shared.b.mean", 0x3f9ed57275dfafe6),
    ("e17.shared.b.se", 0x3f54707f1fadd4b6),
    ("e17.shared.system.mean", 0x3f789374bc6a7ef4),
    ("e17.shared.system.se", 0x3f431b1b4076e998),
    ("run.shared.first_pfd", 0x4018aaaaaaaaaaaa),
    ("run.shared.second_pfd", 0x3ffd555555555556),
    ("run.shared.system_pfd", 0x3fd5555555555555),
    ("run.shared.first_before", 0x4045155555555556),
    ("run.shared.second_before", 0x400bffffffffffff),
    ("run.shared.system_before", 0x4005555555555554),
    ("e17.b2b(0.5).a.mean", 0x3fbc2c99d3daae53),
    ("e17.b2b(0.5).a.se", 0x3f6bc22ca4faab38),
    ("e17.b2b(0.5).b.mean", 0x3fa1612a8d8a204f),
    ("e17.b2b(0.5).b.se", 0x3f567eb125b0454c),
    ("e17.b2b(0.5).system.mean", 0x3f85810624dd2f19),
    ("e17.b2b(0.5).system.se", 0x3f4a1336d8174bf5),
    ("run.b2b(0.5).first_pfd", 0x4019ffffffffffff),
    ("run.b2b(0.5).second_pfd", 0x4002aaaaaaaaaaaa),
    ("run.b2b(0.5).system_pfd", 0x3fe0000000000000),
    ("run.b2b(0.5).first_before", 0x4045155555555556),
    ("run.b2b(0.5).second_before", 0x400bffffffffffff),
    ("run.b2b(0.5).system_before", 0x4005555555555554),
    ("e17.round_robin.a.mean", 0x3fb8b7dd695bb475),
    ("e17.round_robin.a.se", 0x3f6a375b3d455373),
    ("e17.round_robin.b.mean", 0x3f9fbe76c8b43956),
    ("e17.round_robin.b.se", 0x3f5528c9f2ac0f67),
    ("e17.round_robin.system.mean", 0x3f6907f6e5d4c3b6),
    ("e17.round_robin.system.se", 0x3f3b3f993ee4d682),
    ("run.round_robin.first_pfd", 0x4014aaaaaaaaaaaa),
    ("run.round_robin.second_pfd", 0x3ffd555555555556),
    ("run.round_robin.system_pfd", 0x0000000000000000),
    ("run.round_robin.first_before", 0x4045155555555556),
    ("run.round_robin.second_before", 0x400bffffffffffff),
    ("run.round_robin.system_before", 0x4005555555555554),
    ("e17.greedy.a.mean", 0x3faa23f42ac7cb34),
    ("e17.greedy.a.se", 0x3f64f4affd5de889),
    ("e17.greedy.b.mean", 0x3fa70a3d70a3d709),
    ("e17.greedy.b.se", 0x3f59ac6b6dfa35de),
    ("e17.greedy.system.mean", 0x3f67aa706995f58c),
    ("e17.greedy.system.se", 0x3f3b07bfb26cd2bf),
    ("run.greedy.first_pfd", 0x4005555555555555),
    ("run.greedy.second_pfd", 0x4006aaaaaaaaaaaa),
    ("run.greedy.system_pfd", 0x0000000000000000),
    ("run.greedy.first_before", 0x4045155555555556),
    ("run.greedy.second_before", 0x400bffffffffffff),
    ("run.greedy.system_before", 0x4005555555555554),
    ("e17.epsilon_greedy(0.1).a.mean", 0x3fa5c28f5c28f5c0),
    ("e17.epsilon_greedy(0.1).a.se", 0x3f630d640a70d2cb),
    ("e17.epsilon_greedy(0.1).b.mean", 0x3fa71185933a7b57),
    ("e17.epsilon_greedy(0.1).b.se", 0x3f58d3e2d73945ad),
    ("e17.epsilon_greedy(0.1).system.mean", 0x3f5e098ead65b7ac),
    ("e17.epsilon_greedy(0.1).system.se", 0x3f34cdad8e7e37fa),
    ("run.epsilon_greedy(0.1).first_pfd", 0x4005555555555555),
    ("run.epsilon_greedy(0.1).second_pfd", 0x4004000000000000),
    ("run.epsilon_greedy(0.1).system_pfd", 0x0000000000000000),
    ("run.epsilon_greedy(0.1).first_before", 0x4045155555555556),
    ("run.epsilon_greedy(0.1).second_before", 0x400bffffffffffff),
    ("run.epsilon_greedy(0.1).system_before", 0x4005555555555554),
    ("e17.ucb(0.5).a.mean", 0x3fa6e5d4c3b2a195),
    ("e17.ucb(0.5).a.se", 0x3f6374c9cccd9502),
    ("e17.ucb(0.5).b.mean", 0x3fa563e59a829def),
    ("e17.ucb(0.5).b.se", 0x3f5837038bd97cf0),
    ("e17.ucb(0.5).system.mean", 0x3f54ef6371185934),
    ("e17.ucb(0.5).system.se", 0x3f31659cf92fb683),
    ("run.ucb(0.5).first_pfd", 0x3fffffffffffffff),
    ("run.ucb(0.5).second_pfd", 0x4005555555555554),
    ("run.ucb(0.5).system_pfd", 0x0000000000000000),
    ("run.ucb(0.5).first_before", 0x4045155555555556),
    ("run.ucb(0.5).second_before", 0x400bffffffffffff),
    ("run.ucb(0.5).system_before", 0x4005555555555554),
    ("sys2of3.c0.mean", 0x3fc4e86d1cb06ac5),
    ("sys2of3.c0.se", 0x3f67ff1897abd4d8),
    ("sys2of3.c1.mean", 0x3fc5898bcfc9ee7d),
    ("sys2of3.c1.se", 0x3f691fb177d6efc8),
    ("sys2of3.c2.mean", 0x3fc53082333497b5),
    ("sys2of3.c2.se", 0x3f67f8375b6e7105),
    ("sys2of3.before.mean", 0x3fc799264f9f0b90),
    ("sys2of3.before.se", 0x3f6ae4fbd206ce8d),
    ("sys2of3.system.mean", 0x3fc295a827a03ba6),
    ("sys2of3.system.se", 0x3f6782f8b9b1c0a9),
    ("sysadaptive.c0.mean", 0x3f8eb851eb851eb9),
    ("sysadaptive.c0.se", 0x3f5a514942ddd30a),
    ("sysadaptive.c1.mean", 0x3fa4cafac42723b9),
    ("sysadaptive.c1.se", 0x3f58b66bbe38d8d4),
    ("sysadaptive.before.mean", 0x3fe615d867c3ece1),
    ("sysadaptive.before.se", 0x3f74aa985fec3ed8),
    ("sysadaptive.system.mean", 0x3fac4d5e6f8091a8),
    ("sysadaptive.system.se", 0x3f6150a4c2921daa),
    ("sysadaptive.run.before", 0x4045800000000002),
    ("sysadaptive.run.system", 0x4009555555555554),
    ("policy.shared_fraction.mean", 0x3fc5e76c8b439582),
    ("policy.shared_fraction.var", 0x3f9118b159b28e41),
    ("policy.only_a.mean", 0x40280a6921735ee5),
    ("policy.only_a.var", 0x40255ade88aaae83),
    ("policy.only_b.mean", 0x3ff3dddddddddddf),
    ("policy.only_b.var", 0x401c71a179de40ef),
    ("policy.shared.mean", 0x3ff5e76c8b439582),
    ("policy.shared.var", 0x3ff118b159b28e41),
    ("stopping.demands.mean", 0x4079ba81b4e81b4d),
    ("stopping.demands.var", 0x40cd300269bbc192),
    ("stopping.achieved_pfd.mean", 0x3f78178c31dc0fb2),
    ("stopping.achieved_pfd.var", 0x3eff5c2dfe831611),
    ("stopping.target_met_rate", 0x3fef5c28f5c28f5c),
    ("stopping.rule_fired_rate", 0x3ff0000000000000),
];

#[test]
fn replicated_studies_keep_their_bits() {
    let observed = observed();
    let table: String = observed
        .iter()
        .map(|(name, v)| format!("    ({name:?}, {:#018x}),\n", v.to_bits()))
        .collect();
    assert_eq!(
        observed.len(),
        GOLDEN.len(),
        "observable count changed; observed table:\n{table}"
    );
    for ((name, value), (golden_name, golden_bits)) in observed.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name, "observable order changed:\n{table}");
        assert_eq!(
            value.to_bits(),
            *golden_bits,
            "{name} = {value} moved from {}; observed table:\n{table}",
            f64::from_bits(*golden_bits)
        );
    }
}

/// The independent-suites joint exactly as the full quadruple sum
/// evaluates it: every combination scores its weight or `0.0`, and only
/// zero A-side scores are skipped.
fn reference_joint(ens_a: &TestedEnsemble, ens_b: &TestedEnsemble, x: DemandId) -> f64 {
    let scores = |ens: &TestedEnsemble| -> Vec<f64> {
        ens.combos()
            .iter()
            .map(|(w, fs)| if fs.contains(x.index()) { *w } else { 0.0 })
            .collect()
    };
    let (scores_a, scores_b) = (scores(ens_a), scores(ens_b));
    let mut total = 0.0;
    for &wa in &scores_a {
        if wa == 0.0 {
            continue;
        }
        for &wb in &scores_b {
            total += wa * wb;
        }
    }
    total
}

#[test]
fn zero_skipping_joint_matches_the_full_quadruple_sum_on_e03_worlds() {
    let graded = small_graded();
    let support = graded.pop_a.enumerate(1 << 12).unwrap();
    let debug_skewed =
        UsageProfile::from_weights(graded.profile.space(), vec![0.05, 0.05, 0.1, 0.2, 0.3, 0.3])
            .unwrap();
    let mirror = mirrored(0.5, 0.05);
    let (sa, sb) = (
        mirror.pop_a.enumerate(1 << 12).unwrap(),
        mirror.pop_b.enumerate(1 << 12).unwrap(),
    );
    let tail_heavy = UsageProfile::from_weights(
        mirror.profile.space(),
        vec![0.05, 0.05, 0.05, 0.05, 0.2, 0.2, 0.2, 0.2],
    )
    .unwrap();
    for n in [1usize, 2] {
        let suites = |profile: &UsageProfile| enumerate_iid_suites(profile, n, 1 << 14).unwrap();
        // (regime, supports, suite measures, model) as e03 pairs them.
        let cases = [
            (
                "eq16",
                &support,
                &support,
                suites(&graded.profile),
                suites(&graded.profile),
                graded.pop_a.model(),
            ),
            (
                "eq17",
                &sa,
                &sb,
                suites(&mirror.profile),
                suites(&mirror.profile),
                mirror.pop_a.model(),
            ),
            (
                "eq18",
                &support,
                &support,
                suites(&graded.profile),
                suites(&debug_skewed),
                graded.pop_a.model(),
            ),
            (
                "eq19",
                &sa,
                &sb,
                suites(&mirror.profile),
                suites(&tail_heavy),
                mirror.pop_a.model(),
            ),
        ];
        for (regime, support_a, support_b, ma, mb, model) in &cases {
            let ens_a = TestedEnsemble::new(support_a, ma, model);
            let ens_b = TestedEnsemble::new(support_b, mb, model);
            for x in model.space().iter() {
                let expected = reference_joint(&ens_a, &ens_b, x).to_bits();
                assert_eq!(
                    ens_a.joint_on_demand_independent(&ens_b, x).to_bits(),
                    expected,
                    "{regime} n={n} x={x:?}"
                );
                assert_eq!(
                    joint_on_demand_independent(support_a, support_b, ma, mb, model, x).to_bits(),
                    expected,
                    "{regime} n={n} x={x:?} (free function)"
                );
            }
        }
    }
}
