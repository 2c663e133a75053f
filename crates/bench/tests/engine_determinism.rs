//! Integration tests for the experiment engine: thread-count
//! determinism of the rendered result files and of `diversim run`'s
//! printed narration, a full-registry smoke run, and the generated-docs
//! drift guard.

use std::process::Command;

use diversim_bench::engine::{run_experiment, RESULT_SCHEMA};
use diversim_bench::registry;
use diversim_bench::spec::Profile;

/// The engine's rendered JSON and CSV must be byte-identical whether
/// the Monte Carlo replications run on 1 thread or 8 — the ISSUE-2
/// acceptance criterion for deterministic parallelism. `e06` covers
/// `Scenario::estimate` and `e08` additionally `merged_estimate`, both
/// folding through `parallel_reduce` with a `MomentsArray` reducer.
#[test]
fn engine_output_is_byte_identical_for_1_and_8_threads() {
    for key in ["e06", "e08"] {
        let spec = registry::find(key).expect("registered");
        let one = run_experiment(spec, Profile::Smoke, 1, true);
        let eight = run_experiment(spec, Profile::Smoke, 8, true);
        assert_eq!(
            one.json, eight.json,
            "{key}: JSON differs between 1 and 8 threads"
        );
        assert_eq!(
            one.csv, eight.csv,
            "{key}: CSV differs between 1 and 8 threads"
        );
    }
}

/// Every registered spec must run to completion under the smoke
/// profile and produce non-empty, well-formed results.
#[test]
fn all_twenty_specs_run_under_smoke_profile() {
    let specs = registry::all();
    assert_eq!(specs.len(), 20);
    for spec in specs {
        let outcome = run_experiment(spec, Profile::Smoke, 2, true);
        assert!(
            outcome.passed,
            "{} failed under smoke (checks must not be enforced there)",
            spec.name
        );
        assert!(
            !outcome.checks.is_empty(),
            "{} recorded no reproduction checks",
            spec.name
        );
        assert!(
            outcome
                .json
                .starts_with(&format!("{{\"schema\":\"{RESULT_SCHEMA}\"")),
            "{} JSON missing schema header",
            spec.name
        );
        assert!(
            outcome.json.contains("\"tables\":[{"),
            "{} produced no tables",
            spec.name
        );
        assert!(
            outcome.csv.lines().count() > 1,
            "{} produced an empty CSV",
            spec.name
        );
    }
}

/// `EXPERIMENTS.md` at the workspace root is generated from the
/// registry; this guard makes drift a test failure. Regenerate with
/// `diversim docs --write`.
#[test]
fn experiments_md_matches_registry() {
    let on_disk = include_str!("../../../EXPERIMENTS.md");
    assert_eq!(
        on_disk,
        registry::experiments_md(),
        "EXPERIMENTS.md is stale; run `cargo run -p diversim-bench --bin diversim -- docs --write`"
    );
}

/// `diversim run --all --smoke` stdout with what may differ between
/// thread counts masked: the summary title's thread count, the `wall`
/// column and the total-time line's seconds.
fn run_all_stdout(threads: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_diversim"))
        .args(["run", "--all", "--smoke", "--threads", threads])
        .output()
        .expect("diversim runs");
    assert!(
        output.status.success(),
        "run --all --smoke exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    let is_seconds = |field: &str| {
        field
            .strip_suffix('s')
            .is_some_and(|n| n.parse::<f64>().is_ok())
    };
    let mut masked = String::new();
    let mut in_summary = false;
    for line in stdout.lines() {
        if let Some((title, _threads)) = line
            .strip_prefix("── campaign summary (")
            .and_then(|rest| rest.split_once(", "))
        {
            in_summary = true;
            masked.push_str(title);
        } else if in_summary {
            let fields: Vec<&str> = line.split_whitespace().filter(|f| !is_seconds(f)).collect();
            masked.push_str(&fields.join(" "));
        } else {
            masked.push_str(line);
        }
        masked.push('\n');
    }
    assert!(in_summary, "stdout has a campaign summary");
    masked
}

/// `--threads` also sets how many experiments run side by side, yet the
/// printed narration keeps its bytes and registry order.
#[test]
fn run_all_stdout_is_identical_for_1_and_4_threads() {
    let one = run_all_stdout("1");
    let four = run_all_stdout("4");
    assert!(one.contains("━━━ e20 (20/20) ━━━"), "every banner printed");
    assert_eq!(
        one, four,
        "run --all stdout differs between 1 and 4 threads"
    );
}
