//! `campaign-full`: the paper-faithful batch job.
//!
//! The untraced run drives the shipped binary in rounds: a cold
//! `diversim sweep --all --full` into a fresh cell store, then warm
//! `--resume` passes over that store — full passes and single-experiment
//! queries in turn, writing nothing — with `diversim list` round trips
//! (set-up) between them, until the round's share of the run is up.
//! Every pass must exit 0 (every experiment passed its checks); every
//! cold pass, and a merge pass before and after the warm ones, must
//! write result files byte-identical to the first cold pass's.
//!
//! The traced run re-runs the same sweep in process, timing calls into
//! the engine (`run_experiment_with_cells`) and the cell store through
//! a timing [`CellExecutor`].

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diversim_bench::engine::run_experiment_with_cells;
use diversim_bench::hashing::fnv1a64_hex;
use diversim_bench::registry;
use diversim_bench::spec::Profile;
use diversim_bench::sweep::{CellExecutor, CellId, CellLoad, CellScope, CellStore};

use crate::config::{
    CAMPAIGN_THREADS, COLD_PASSES, LIST_SETUPS_PER_WARM_PASS, QUERIES_PER_WARM_PASS,
};
use crate::fresh_dir;
use crate::proc::{run_timed, Finished};
use crate::report::Outcome;
use crate::stats::{median, windowed};

/// The result files of one pass, by file name.
pub type Files = BTreeMap<String, Vec<u8>>;

fn read_files(dir: &Path) -> io::Result<Files> {
    let mut files = Files::new();
    if !dir.exists() {
        return Ok(files);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            let name = entry.file_name().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(entry.path())?);
        }
    }
    Ok(files)
}

/// FNV-1a over every file name and its bytes, in name order.
fn digest(files: &Files) -> String {
    let mut all = Vec::new();
    for (name, bytes) in files {
        all.extend_from_slice(name.as_bytes());
        all.push(0);
        all.extend_from_slice(bytes);
    }
    fnv1a64_hex(&all)
}

/// `(computed, cached)` from the binary's closing `sweep [...]: N
/// cells: C computed (...), H cached, ...` line.
fn cell_counts(stdout: &str) -> Option<(u64, u64)> {
    let line = stdout.lines().rev().find(|l| l.starts_with("sweep ["))?;
    let number_before = |word: &str| -> Option<u64> {
        let end = line.find(word)?;
        line[..end].split_whitespace().last()?.parse().ok()
    };
    Some((number_before(" computed")?, number_before(" cached")?))
}

fn sweep_args<'a>(
    keys: &[&'a str],
    profile: &'a str,
    threads: &'a str,
    out: Option<&'a str>,
    resume: bool,
) -> Vec<&'a str> {
    let mut args = vec!["sweep"];
    args.extend_from_slice(keys);
    args.extend_from_slice(&[profile, "--threads", threads, "--cells", "cells", "--quiet"]);
    if let Some(out) = out {
        args.extend_from_slice(&["--out", out]);
    }
    if resume {
        args.push("--resume");
    }
    args
}

/// Runs `diversim` processes in `work`, gating each on exit 0 and
/// keeping the peak of their resident sets.
struct Runner<'a> {
    diversim: &'a Path,
    work: &'a Path,
    threads: String,
    peak_kib: u64,
}

impl Runner<'_> {
    fn run(&mut self, o: &mut Outcome, args: &[&str], what: &str) -> io::Result<Finished> {
        let f = run_timed(self.diversim, args, self.work)?;
        self.peak_kib = self.peak_kib.max(f.max_rss_kib);
        o.gate(f.status.success(), || {
            format!("{what} exited with {}", f.status)
        });
        Ok(f)
    }

    /// A full-profile sweep of `keys`, writing result files to `out`.
    fn sweep(
        &mut self,
        o: &mut Outcome,
        keys: &[&str],
        out: Option<&str>,
        resume: bool,
    ) -> io::Result<Finished> {
        let threads = self.threads.clone();
        let args = sweep_args(keys, "--full", &threads, out, resume);
        self.run(o, &args, &format!("sweep {}", keys.join(" ")))
    }

    /// A timed warm sweep of `keys` that writes nothing and must serve
    /// every cell from the store; its wall time.
    fn warm(&mut self, o: &mut Outcome, keys: &[&str]) -> io::Result<f64> {
        let f = self.sweep(o, keys, None, true)?;
        let counts = cell_counts(&f.stdout);
        o.gate(matches!(counts, Some((0, h)) if h > 0), || {
            format!("warm sweep {keys:?} cell counts {counts:?}, want every cell cached")
        });
        Ok(f.wall_s)
    }

    /// A merge pass: a warm sweep of everything writing result files,
    /// which must be byte-identical to `reference`.
    fn merge(&mut self, o: &mut Outcome, reference: &Files, pass: &str) -> io::Result<()> {
        fresh_dir(&self.work.join("merged"))?;
        self.sweep(o, &["--all"], Some("merged"), true)?;
        let files = read_files(&self.work.join("merged"))?;
        o.gate(&files == reference, || {
            format!("{pass} merge pass results differ from the cold pass")
        });
        Ok(())
    }
}

/// The untraced run: see the module docs. `work` must be empty.
///
/// # Errors
///
/// Spawn and file-system failures.
pub fn run(diversim: &Path, work: &Path, seconds: f64) -> io::Result<Outcome> {
    let started = Instant::now();
    let mut o = Outcome::default();
    let mut runner = Runner {
        diversim,
        work,
        threads: CAMPAIGN_THREADS.to_string(),
        peak_kib: 0,
    };

    // The run is COLD_PASSES rounds: a cold pass into a fresh cell
    // store, then warm passes, queries and set-ups over that store until
    // the round's share of the run is up. Spreading every kind of pass
    // over the run lets each metric's median sample the whole run rather
    // than a few seconds of a shared machine.
    let specs = registry::all();
    let mut setups = Vec::new();
    let mut colds: Vec<f64> = Vec::new();
    let mut cells = 0;
    let mut reference = Files::new();
    let mut warm = Vec::new();
    let mut queries = Vec::new();
    for round in 0..COLD_PASSES {
        fresh_dir(&work.join("cells"))?;
        fresh_dir(&work.join("cold"))?;
        let cold = runner.sweep(&mut o, &["--all"], Some("cold"), false)?;
        colds.push(cold.wall_s);
        let counts = cell_counts(&cold.stdout);
        o.gate(matches!(counts, Some((c, 0)) if c > 0), || {
            format!("cold pass cell counts {counts:?}, want every cell computed")
        });
        let files = read_files(&work.join("cold"))?;
        if round == 0 {
            cells = counts.map_or(0, |(computed, _)| computed);
            o.gate(files.len() == 2 * specs.len(), || {
                format!("cold pass wrote {} result files", files.len())
            });
            o.note(format!(
                "cold pass: {cells} cells computed, {} result files, digest {}",
                files.len(),
                digest(&files)
            ));
            reference = files;
            // The timed warm passes and queries read the store and
            // write nothing; a merge pass before and after them must
            // write result files byte-identical to the cold pass's.
            runner.merge(&mut o, &reference, "first")?;
        } else {
            o.gate(files == reference, || {
                format!("cold pass {round} results differ from the first cold pass")
            });
        }

        let round_end = seconds * (round + 1) as f64 / COLD_PASSES as f64;
        let rounds_warm = warm.len();
        while warm.len() < rounds_warm + 1 || started.elapsed().as_secs_f64() < round_end {
            warm.push(runner.warm(&mut o, &["--all"])?);
            for _ in 0..QUERIES_PER_WARM_PASS {
                let spec = specs[queries.len() % specs.len()];
                queries.push(runner.warm(&mut o, &[spec.slug])? * 1e3);
            }
            for _ in 0..LIST_SETUPS_PER_WARM_PASS {
                setups.push(runner.run(&mut o, &["list"], "diversim list")?.wall_s);
            }
        }
    }
    runner.merge(&mut o, &reference, "last")?;

    let wall_s = median(&colds);
    o.set("setup_s", median(&setups));
    o.set("wall_s", wall_s);
    o.set("warm_s", median(&warm));
    let w = windowed(&queries).expect("at least 12 queries ran");
    o.set("p50_ms", w.median);
    o.set("p99_ms", w.tail.value);
    o.set("max_rate_rps", cells as f64 / wall_s);
    o.set("peak_rss_mb", runner.peak_kib as f64 / 1024.0);
    o.note(format!(
        "{} cold passes, {} list set-ups; warm: {} full passes, {} single-experiment queries; \
         p50_ms and p99_ms are medians over {} windows, p99_ms of each window's p{:.2} of {} \
         samples",
        colds.len(),
        setups.len(),
        warm.len(),
        queries.len(),
        w.windows,
        w.tail.percentile,
        w.tail.samples
    ));
    Ok(o)
}

/// What the timing executor saw.
#[derive(Debug, Default)]
struct CellLog {
    compute_s: Vec<f64>,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    computed: u64,
    hits: u64,
    corrupt: u64,
}

/// The sweep engine's store executor (serve a verified cached cell,
/// otherwise compute and persist it), with each step timed.
#[derive(Debug)]
struct TimingExecutor {
    store: CellStore,
    resume: bool,
    log: Arc<Mutex<CellLog>>,
}

impl CellExecutor for TimingExecutor {
    fn execute(
        &mut self,
        id: &CellId,
        scope: &CellScope,
        compute: &mut dyn FnMut(&CellScope) -> Vec<f64>,
    ) -> Option<Vec<f64>> {
        let mut corrupt = false;
        if self.resume {
            let t = Instant::now();
            let loaded = self.store.load(id);
            let load_s = t.elapsed().as_secs_f64();
            let mut log = self.log.lock().expect("cell log poisoned");
            log.load_s.push(load_s);
            match loaded {
                CellLoad::Hit(values) => {
                    log.hits += 1;
                    return Some(values);
                }
                CellLoad::Corrupt(_) => corrupt = true,
                CellLoad::Miss => {}
            }
        }
        let t = Instant::now();
        let values = compute(scope);
        let compute_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        self.store
            .save(id, &values)
            .expect("the benchmark's cell store must be writable");
        let save_s = t.elapsed().as_secs_f64();
        let mut log = self.log.lock().expect("cell log poisoned");
        log.compute_s.push(compute_s);
        log.save_s.push(save_s);
        log.computed += 1;
        log.corrupt += u64::from(corrupt);
        Some(values)
    }
}

/// One in-process sweep pass over the registry.
struct Pass {
    /// `run_experiment_with_cells` wall time per experiment.
    experiment_s: Vec<f64>,
    /// Of that, the part outside the experiment body (rendering).
    render_s: f64,
    /// The experiment bodies' time outside their cells.
    outside_cells_s: f64,
    log: CellLog,
    /// Result files as the binary would write them.
    files: Files,
    all_passed: bool,
}

fn traced_pass(store: &CellStore, profile: Profile, resume: bool) -> Pass {
    let log = Arc::new(Mutex::new(CellLog::default()));
    let mut pass = Pass {
        experiment_s: Vec::new(),
        render_s: 0.0,
        outside_cells_s: 0.0,
        log: CellLog::default(),
        files: Files::new(),
        all_passed: true,
    };
    for spec in registry::all() {
        let (cells_before, loads_before) = {
            let log = log.lock().expect("cell log poisoned");
            (
                log.compute_s.iter().sum::<f64>() + log.save_s.iter().sum::<f64>(),
                log.load_s.iter().sum::<f64>(),
            )
        };
        let executor = TimingExecutor {
            store: store.clone(),
            resume,
            log: Arc::clone(&log),
        };
        let t = Instant::now();
        let outcome = run_experiment_with_cells(
            spec,
            profile,
            CAMPAIGN_THREADS,
            true,
            Some(Box::new(executor)),
        );
        let total = t.elapsed().as_secs_f64();
        let log = log.lock().expect("cell log poisoned");
        let in_cells = log.compute_s.iter().sum::<f64>() + log.save_s.iter().sum::<f64>()
            - cells_before
            + log.load_s.iter().sum::<f64>()
            - loads_before;
        let body = outcome.wall.as_secs_f64();
        pass.experiment_s.push(total);
        pass.render_s += total - body;
        pass.outside_cells_s += body - in_cells;
        pass.all_passed &= outcome.passed;
        pass.files
            .insert(format!("{}.json", spec.name), outcome.json.into_bytes());
        pass.files
            .insert(format!("{}.csv", spec.name), outcome.csv.into_bytes());
    }
    pass.log = std::mem::take(&mut *log.lock().expect("cell log poisoned"));
    pass
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// The traced run: one untraced binary cold pass (the overhead
/// baseline and the byte reference), then [`trace_passes`]. `work` must
/// be empty.
///
/// # Errors
///
/// Spawn and file-system failures.
pub fn traced(diversim: &Path, work: &Path, seconds: f64, profile: Profile) -> io::Result<Outcome> {
    let started = Instant::now();
    let threads = CAMPAIGN_THREADS.to_string();
    let flag = format!("--{}", profile.name());
    let args = sweep_args(&["--all"], &flag, &threads, Some("cold"), false);
    let base = run_timed(diversim, &args, work)?;
    let reference = read_files(&work.join("cold"))?;
    let left = seconds - started.elapsed().as_secs_f64();
    let mut o = trace_passes(work, left, profile, Some(&reference))?;
    o.gate(base.status.success(), || {
        format!("untraced cold sweep exited with {}", base.status)
    });
    let cold_total: f64 = registry::all()
        .iter()
        .filter_map(|spec| o.metrics.get(&format!("engine.experiment_s.{}", spec.slug)))
        .sum();
    o.set("trace.overhead_ratio", cold_total / base.wall_s);
    o.note(format!(
        "prediction sum(engine.experiment_s.*) = {cold_total:.3} s vs the untraced pass's \
         {:.3} s (difference {:+.1} ms: process start-up, result writing and noise)",
        base.wall_s,
        (base.wall_s - cold_total) * 1e3
    ));
    Ok(o)
}

/// The in-process part of the traced run: one traced cold pass into a
/// fresh store under `work`, then traced warm `--resume` passes until
/// `seconds` are up (at least three). Every pass's result files must
/// equal `reference` (the binary's), or the cold pass's when `None`.
///
/// # Errors
///
/// File-system failures.
pub fn trace_passes(
    work: &Path,
    seconds: f64,
    profile: Profile,
    reference: Option<&Files>,
) -> io::Result<Outcome> {
    let started = Instant::now();
    let mut o = Outcome::default();
    let store = CellStore::new(work.join("traced-cells"));
    let cold = traced_pass(&store, profile, false);
    o.gate(cold.all_passed, || {
        "a traced experiment failed its checks".into()
    });
    if let Some(reference) = reference {
        o.gate(&cold.files == reference, || {
            "traced cold pass results differ from the binary's".into()
        });
    }
    let reference = reference.unwrap_or(&cold.files);
    for (spec, s) in registry::all().iter().zip(&cold.experiment_s) {
        o.set(&format!("engine.experiment_s.{}", spec.slug), *s);
    }
    let compute_ms: Vec<f64> = cold.log.compute_s.iter().map(|s| s * 1e3).collect();
    o.set("sweep.cell_compute_s", cold.log.compute_s.iter().sum());
    o.set("sweep.cell_p50_ms", median(&compute_ms));
    o.set(
        "sweep.cell_max_ms",
        compute_ms.iter().copied().fold(0.0, f64::max),
    );
    o.set("sweep.cells", cold.log.compute_s.len() as f64);
    let save_us: Vec<f64> = cold.log.save_s.iter().map(|s| s * 1e6).collect();
    o.set("sweep.store_save_us", median(&save_us));
    o.set("sweep.store_bytes", dir_bytes(store.dir())? as f64);
    o.set("sweep.computed", cold.log.computed as f64);
    o.set("sweep.hits", cold.log.hits as f64);

    let mut outside = Vec::new();
    let mut render_ms = Vec::new();
    let mut load_us = Vec::new();
    let mut corrupt = cold.log.corrupt;
    let mut warm_counts = (0, 0);
    while outside.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let warm = traced_pass(&store, profile, true);
        o.gate(warm.all_passed && &warm.files == reference, || {
            "traced warm pass results differ from the cold pass".into()
        });
        outside.push(warm.outside_cells_s);
        render_ms.push(warm.render_s * 1e3);
        load_us.extend(warm.log.load_s.iter().map(|s| s * 1e6));
        corrupt += warm.log.corrupt;
        warm_counts = (warm.log.computed, warm.log.hits);
    }
    o.set("engine.outside_cells_s", median(&outside));
    o.set("engine.render_ms", median(&render_ms));
    o.set("sweep.store_load_us", median(&load_us));
    o.set("sweep.corrupt", corrupt as f64);
    o.set("sweep.warm_computed", warm_counts.0 as f64);
    o.set("sweep.warm_hits", warm_counts.1 as f64);

    o.note(format!(
        "prediction sweep.computed/hits: cold {}/{} (want {}/0), warm {}/{} (want 0/{})",
        cold.log.computed,
        cold.log.hits,
        cold.log.computed,
        warm_counts.0,
        warm_counts.1,
        cold.log.computed
    ));
    o.note(format!(
        "traced warm passes: {} (engine.outside_cells_s and engine.render_ms are their medians)",
        outside.len()
    ));
    Ok(o)
}
