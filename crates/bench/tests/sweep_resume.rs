//! Integration tests for the sharded, resumable sweep engine: the
//! ISSUE-8 acceptance criteria at the library level.
//!
//! - An unsharded sweep must reproduce `diversim run` byte for byte,
//!   for every registered experiment.
//! - Cells (and the merged outputs) must not depend on the thread
//!   count, nor on how many experiments run side by side.
//! - Complementary shards must partition the cell set, and a `--resume`
//!   merge over their united store must serve every cell from cache and
//!   still match the direct run.
//! - A killed sweep (here: half the cell files deleted) must resume by
//!   recomputing exactly the missing cells.
//! - Truncated or hand-edited cell files must be detected, recomputed,
//!   and leave the final outputs untouched.

use std::fs;
use std::path::PathBuf;

use diversim_bench::engine::{run_experiment, run_side_by_side, RunOutcome};
use diversim_bench::registry;
use diversim_bench::spec::Profile;
use diversim_bench::sweep::{sweep_experiment, CellStore, Shard, SweepOptions, SweepRun};

fn temp_store(tag: &str) -> CellStore {
    let dir =
        std::env::temp_dir().join(format!("diversim-sweep-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    CellStore::new(dir)
}

fn cleanup(store: &CellStore) {
    let _ = fs::remove_dir_all(store.dir());
}

fn opts(threads: usize, shard: Option<Shard>, resume: bool) -> SweepOptions {
    SweepOptions {
        profile: Profile::Smoke,
        threads,
        shard,
        resume,
        quiet: true,
    }
}

fn assert_matches_direct(run: &SweepRun, direct: &RunOutcome) {
    assert_eq!(
        run.outcome.json, direct.json,
        "{}: sweep JSON drifted from the direct run",
        direct.spec.name
    );
    assert_eq!(
        run.outcome.csv, direct.csv,
        "{}: sweep CSV drifted from the direct run",
        direct.spec.name
    );
}

fn cell_files(store: &CellStore) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(store.dir())
        .expect("store dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    files.sort();
    files
}

#[test]
fn unsharded_sweep_reproduces_every_direct_run_byte_for_byte() {
    let store = temp_store("full");
    for spec in registry::all() {
        let run = sweep_experiment(spec, &store, &opts(2, None, false));
        let direct = run_experiment(spec, Profile::Smoke, 2, true);
        assert_matches_direct(&run, &direct);
        assert!(run.stats.computed > 0, "{} declares cells", spec.name);
        assert_eq!(run.stats.hits, 0);
        assert_eq!(run.stats.skipped, 0);
        assert_eq!(run.stats.corrupt, 0);
    }
    cleanup(&store);
}

#[test]
fn cells_and_outputs_are_thread_count_invariant() {
    // `--threads` also sets how many experiments run side by side: one
    // lane at 1 thread, four lanes of four workers at 4.
    let one = temp_store("threads1");
    let four = temp_store("threads4");
    let specs = registry::all();
    let pass = |store: &CellStore, threads: usize| {
        run_side_by_side(
            &specs,
            threads,
            |spec| sweep_experiment(spec, store, &opts(threads, None, false)),
            |_| {},
        )
    };
    let runs_1 = pass(&one, 1);
    let runs_4 = pass(&four, 4);
    assert_eq!(runs_1.len(), specs.len());
    for ((spec, run_1), run_4) in specs.iter().zip(&runs_1).zip(&runs_4) {
        assert_eq!(run_1.outcome.spec.name, spec.name, "registry order");
        assert_eq!(run_4.outcome.spec.name, spec.name, "registry order");
        assert_eq!(run_1.outcome.json, run_4.outcome.json, "{} json", spec.name);
        assert_eq!(run_1.outcome.csv, run_4.outcome.csv, "{} csv", spec.name);
        assert_eq!(run_1.stats, run_4.stats, "{} cells", spec.name);
    }
    // The persisted cells themselves must agree file by file.
    let files_1 = cell_files(&one);
    let files_4 = cell_files(&four);
    assert_eq!(files_1.len(), files_4.len());
    for (a, b) in files_1.iter().zip(&files_4) {
        assert_eq!(a.file_name(), b.file_name());
        assert_eq!(
            fs::read_to_string(a).expect("readable"),
            fs::read_to_string(b).expect("readable"),
            "{} differs between 1 and 4 threads",
            a.display()
        );
    }
    cleanup(&one);
    cleanup(&four);
}

#[test]
fn complementary_shards_merge_into_the_unsharded_result() {
    let store = temp_store("shards");
    let specs = ["e01", "e03", "e14"].map(|k| registry::find(k).expect("registered"));

    let mut per_shard = [0u64, 0];
    let mut declared = 0u64;
    for (i, slot) in per_shard.iter_mut().enumerate() {
        let shard = Shard {
            index: i as u64,
            count: 2,
        };
        for spec in specs {
            // Different thread counts per shard: the merge must not care.
            let run = sweep_experiment(spec, &store, &opts(1 + 3 * i, Some(shard), false));
            assert_eq!(run.stats.hits, 0);
            *slot += run.stats.computed;
            if i == 0 {
                declared += run.stats.declared();
            }
        }
    }
    assert_eq!(
        per_shard[0] + per_shard[1],
        declared,
        "shards must partition the cell set"
    );
    assert!(per_shard.iter().all(|&c| c > 0), "both shards own cells");

    // The merge: an unsharded resume serves everything from cache.
    for spec in specs {
        let merged = sweep_experiment(spec, &store, &opts(2, None, true));
        assert_eq!(merged.stats.computed, 0, "{}: merge recomputed", spec.name);
        assert_eq!(merged.stats.hits, merged.stats.declared());
        let direct = run_experiment(spec, Profile::Smoke, 2, true);
        assert_matches_direct(&merged, &direct);
    }
    cleanup(&store);
}

#[test]
fn resume_recomputes_exactly_the_missing_cells() {
    let store = temp_store("killed");
    let spec = registry::find("e06").expect("registered");
    let cold = sweep_experiment(spec, &store, &opts(2, None, false));
    let files = cell_files(&store);
    assert_eq!(files.len() as u64, cold.stats.computed);

    // Simulate a killed sweep: every other cell file vanishes.
    let dropped: Vec<&PathBuf> = files.iter().step_by(2).collect();
    for path in &dropped {
        fs::remove_file(path).expect("removable");
    }

    let resumed = sweep_experiment(spec, &store, &opts(2, None, true));
    assert_eq!(resumed.stats.computed, dropped.len() as u64);
    assert_eq!(
        resumed.stats.hits,
        cold.stats.computed - dropped.len() as u64
    );
    assert_eq!(resumed.stats.corrupt, 0);
    assert_eq!(resumed.outcome.json, cold.outcome.json);
    assert_eq!(resumed.outcome.csv, cold.outcome.csv);
    cleanup(&store);
}

#[test]
fn corrupt_cells_are_detected_recomputed_and_do_not_change_the_output() {
    let store = temp_store("corrupt");
    let spec = registry::find("e03").expect("registered");
    let cold = sweep_experiment(spec, &store, &opts(2, None, false));
    let files = cell_files(&store);
    assert!(files.len() >= 2, "need two cells to corrupt");

    // Truncation (invalid JSON)…
    let text = fs::read_to_string(&files[0]).expect("readable");
    fs::write(&files[0], &text[..text.len() / 2]).expect("writable");
    // …and a hand edit: bump the first digit inside the values array so
    // the document still parses but the checksum no longer matches.
    let text = fs::read_to_string(&files[1]).expect("readable");
    let start = text.find("\"values\":[").expect("values array") + "\"values\":[".len();
    let offset = text[start..]
        .find(|c: char| c.is_ascii_digit())
        .expect("a digit");
    let mut bytes = text.into_bytes();
    let d = &mut bytes[start + offset];
    *d = b'0' + (*d - b'0' + 1) % 10;
    fs::write(&files[1], bytes).expect("writable");

    let resumed = sweep_experiment(spec, &store, &opts(2, None, true));
    assert_eq!(resumed.stats.corrupt, 2, "both damaged cells detected");
    assert_eq!(resumed.stats.computed, 2, "both recomputed");
    assert_eq!(resumed.stats.hits, cold.stats.computed - 2);
    assert_eq!(resumed.outcome.json, cold.outcome.json);
    assert_eq!(resumed.outcome.csv, cold.outcome.csv);

    // The recomputed files must be whole again: a second resume is all
    // cache hits.
    let warm = sweep_experiment(spec, &store, &opts(2, None, true));
    assert_eq!(warm.stats.corrupt, 0);
    assert_eq!(warm.stats.hits, warm.stats.declared());
    cleanup(&store);
}
