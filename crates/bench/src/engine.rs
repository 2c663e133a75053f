//! The experiment engine: executes any [`ExperimentSpec`] and renders
//! machine-readable results.
//!
//! One run produces one JSON document and one long-format CSV, both
//! pure functions of `(spec, profile)` — no timestamps, hostnames or
//! thread counts leak into the output, so result files are
//! byte-identical across machines and worker counts and can be diffed
//! by regression tooling.
//!
//! [`run_side_by_side`] runs a list of experiments at once, one lane per
//! worker thread; every all-experiments pass of the CLI goes through it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::report::{json_escape, tables_to_long_csv};
use crate::spec::{Check, ExperimentSpec, Profile, RunContext, Transcript};

/// Identifies the result-file schema emitted by this engine.
pub const RESULT_SCHEMA: &str = "diversim-result/v1";

/// Everything one experiment run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The spec that ran.
    pub spec: &'static ExperimentSpec,
    /// The profile it ran under.
    pub profile: Profile,
    /// Every reproduction-claim check, in execution order.
    pub checks: Vec<Check>,
    /// `false` iff a check failed *and* the profile enforces checks.
    pub passed: bool,
    /// The JSON result document (deterministic).
    pub json: String,
    /// The long-format CSV result (deterministic).
    pub csv: String,
    /// Wall-clock duration of the run (not part of the result files).
    pub wall: Duration,
    /// The run's narration, for the caller to print (empty when quiet).
    pub transcript: Transcript,
}

/// Executes one experiment under a profile and renders its results.
/// Every cell the experiment declares computes inline.
pub fn run_experiment(
    spec: &'static ExperimentSpec,
    profile: Profile,
    threads: usize,
    quiet: bool,
) -> RunOutcome {
    run_experiment_with_cells(spec, profile, threads, quiet, None)
}

/// [`run_experiment`] with an explicit cell-execution policy: `cells`
/// decides per declared cell whether to compute, serve from cache or
/// skip (the sweep engine's entry point).
pub fn run_experiment_with_cells(
    spec: &'static ExperimentSpec,
    profile: Profile,
    threads: usize,
    quiet: bool,
    cells: Option<Box<dyn crate::sweep::cell::CellExecutor>>,
) -> RunOutcome {
    let started = Instant::now();
    let mut ctx = RunContext::for_experiment(spec.name, profile, threads, quiet, cells);
    (spec.run)(&mut ctx);
    let wall = started.elapsed();
    let failed = ctx.failed_checks().len();
    let passed = failed == 0 || !profile.enforces_checks();
    let json = render_json(spec, profile, &ctx);
    let csv = tables_to_long_csv(ctx.tables());
    RunOutcome {
        spec,
        profile,
        checks: ctx.checks().to_vec(),
        passed,
        json,
        csv,
        wall,
        transcript: ctx.take_transcript(),
    }
}

/// Runs `run` on every item, side by side, and returns the results in
/// item order.
///
/// `min(threads, items.len())` lanes each claim the next unclaimed item
/// until none is left; the calling thread is lane 0, so a one-item call
/// spawns no thread. `release` sees each result in item order as soon
/// as it and every earlier result are done, which lets a caller print
/// per-item output in a fixed order while later items still run.
///
/// Each item keeps the full `threads` budget for its own workers: when
/// one lane is in a serial stretch or has run out of items, the other
/// lanes' workers take the idle cores.
pub fn run_side_by_side<S, T>(
    items: &[S],
    threads: usize,
    run: impl Fn(&S) -> T + Sync,
    release: impl FnMut(&T) + Send,
) -> Vec<T>
where
    S: Sync,
    T: Send,
{
    // The counter only hands out indices; results travel through the
    // mutex, so the claim needs no ordering beyond its own atomicity.
    let next = AtomicUsize::new(0);
    let slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
    let done = Mutex::new((slots, 0usize, release));
    let lane = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(index) else {
            return;
        };
        let result = run(item);
        let mut guard = done.lock().expect("a side-by-side lane panicked");
        let (results, released, release) = &mut *guard;
        results[index] = Some(result);
        while let Some(Some(result)) = results.get(*released) {
            release(result);
            *released += 1;
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(items.len()) {
            scope.spawn(lane);
        }
        lane();
    });
    let (results, _, _) = done.into_inner().expect("a side-by-side lane panicked");
    results
        .into_iter()
        .map(|result| result.expect("every item ran"))
        .collect()
}

fn render_json(spec: &ExperimentSpec, profile: Profile, ctx: &RunContext) -> String {
    let mut out = String::new();
    out.push('{');
    out.push_str(&format!("\"schema\":\"{}\",", json_escape(RESULT_SCHEMA)));
    out.push_str(&format!("\"id\":{},", spec.id));
    out.push_str(&format!("\"slug\":\"{}\",", json_escape(spec.slug)));
    out.push_str(&format!("\"name\":\"{}\",", json_escape(spec.name)));
    out.push_str(&format!("\"title\":\"{}\",", json_escape(spec.title)));
    out.push_str(&format!(
        "\"paper_ref\":\"{}\",",
        json_escape(spec.paper_ref)
    ));
    out.push_str(&format!("\"claim\":\"{}\",", json_escape(spec.claim)));
    out.push_str(&format!("\"sweep\":\"{}\",", json_escape(spec.sweep)));
    out.push_str(&format!("\"profile\":\"{}\",", profile.name()));
    out.push_str(&format!(
        "\"full_replications\":{},",
        spec.full_replications
    ));
    out.push_str(&format!(
        "\"replication_budget\":{},",
        profile.replications(spec.full_replications)
    ));
    out.push_str(&format!(
        "\"checks_passed\":{},",
        ctx.failed_checks().is_empty()
    ));
    out.push_str("\"checks\":[");
    for (i, check) in ctx.checks().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"passed\":{}}}",
            json_escape(&check.label),
            check.passed
        ));
    }
    out.push_str("],\"tables\":[");
    for (i, (table, stem)) in ctx.tables().iter().zip(ctx.table_stems()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Splice the stem into the table object: `{"stem":…,<table fields>}`.
        let table_json = table.to_json();
        out.push_str(&format!(
            "{{\"stem\":\"{}\",{}",
            json_escape(stem),
            &table_json[1..]
        ));
    }
    out.push_str("]}");
    out
}

/// Writes `<dir>/<name>.json` and `<dir>/<name>.csv`, creating `dir`
/// if needed. Returns the two paths.
///
/// # Errors
///
/// Propagates any filesystem error.
pub fn write_outcome(dir: &Path, outcome: &RunOutcome) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{}.json", outcome.spec.name));
    let csv_path = dir.join(format!("{}.csv", outcome.spec.name));
    std::fs::write(&json_path, &outcome.json)?;
    std::fs::write(&csv_path, &outcome.csv)?;
    Ok((json_path, csv_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    fn demo_run(ctx: &mut RunContext) {
        let mut t = Table::new("demo \"table\"", &["k", "v"]);
        t.row(&["a,b".into(), "1".into()]);
        ctx.emit(t, "demo_stem");
        ctx.check(true, "identity holds");
        ctx.check(false, "this one fails");
    }

    static DEMO: ExperimentSpec = ExperimentSpec {
        id: 99,
        slug: "e99",
        name: "e99_demo",
        title: "demo",
        paper_ref: "none",
        claim: "none",
        sweep: "none",
        full_replications: 1000,
        figures: &[],
        run: demo_run,
    };

    #[test]
    fn outcome_is_deterministic_and_structured() {
        let a = run_experiment(&DEMO, Profile::Smoke, 1, true);
        let b = run_experiment(&DEMO, Profile::Smoke, 8, true);
        assert_eq!(a.json, b.json);
        assert_eq!(a.csv, b.csv);
        assert!(a.json.starts_with("{\"schema\":\"diversim-result/v1\""));
        assert!(a.json.contains("\"replication_budget\":50"));
        assert!(a.json.contains("\"checks_passed\":false"));
        assert!(a.json.contains("\"stem\":\"demo_stem\""));
        assert!(a.csv.starts_with("table,row,column,value\n"));
        assert!(a.csv.contains("\"a,b\""));
    }

    #[test]
    fn smoke_profile_tolerates_failed_checks_but_fast_does_not() {
        let smoke = run_experiment(&DEMO, Profile::Smoke, 1, true);
        assert!(smoke.passed, "smoke must not enforce checks");
        let fast = run_experiment(&DEMO, Profile::Fast, 1, true);
        assert!(!fast.passed, "fast must enforce checks");
        assert_eq!(fast.checks.len(), 2);
    }

    #[test]
    fn side_by_side_returns_and_releases_in_item_order() {
        let items: Vec<u64> = (0..23).collect();
        // Item 0 finishes last: it waits until every other item has run,
        // so order must come from the items, not from completion.
        let others_done = (std::sync::Mutex::new(0), std::sync::Condvar::new());
        let mut released = Vec::new();
        let results = run_side_by_side(
            &items,
            4,
            |&i| {
                let (count, changed) = &others_done;
                let mut count = count.lock().expect("test counter");
                if i == 0 {
                    while *count < items.len() - 1 {
                        count = changed.wait(count).expect("test counter");
                    }
                } else {
                    *count += 1;
                    changed.notify_all();
                }
                i * i
            },
            |&r| released.push(r),
        );
        let squares: Vec<u64> = items.iter().map(|i| i * i).collect();
        assert_eq!(results, squares);
        assert_eq!(released, squares);
    }

    #[test]
    fn one_item_pass_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = run_side_by_side(&[()], 8, |_| std::thread::current().id(), |_| {});
        assert_eq!(ran_on, [caller]);
        let empty: [(); 0] = [];
        assert!(run_side_by_side(&empty, 8, |_| 1, |_| {}).is_empty());
    }

    #[test]
    fn loud_outcome_carries_the_transcript() {
        let quiet = run_experiment(&DEMO, Profile::Smoke, 1, true);
        assert!(quiet.transcript.lines().is_empty());
        let loud = run_experiment(&DEMO, Profile::Smoke, 1, false);
        assert_eq!(
            loud.transcript.lines().len(),
            2,
            "the table and the failed check"
        );
        assert_eq!(loud.json, quiet.json);
    }

    #[test]
    fn write_outcome_creates_both_files() {
        let outcome = run_experiment(&DEMO, Profile::Smoke, 1, true);
        let dir = std::env::temp_dir().join(format!("diversim-engine-test-{}", std::process::id()));
        let (json_path, csv_path) = write_outcome(&dir, &outcome).unwrap();
        assert_eq!(std::fs::read_to_string(&json_path).unwrap(), outcome.json);
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), outcome.csv);
        std::fs::remove_dir_all(&dir).ok();
    }
}
