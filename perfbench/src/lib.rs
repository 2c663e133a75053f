//! The diversim benchmark: three workloads driven end to end against
//! the shipped `diversim` binary, and a traced run per workload that
//! links the library and times calls into each layer from outside.
//! See `perfbench/README.md` for the metrics and what each should move.

pub mod campaign;
pub mod config;
pub mod openloop;
pub mod proc;
pub mod report;
pub mod schedule;
pub mod serve;
pub mod stats;
pub mod sys;

/// Empties `dir`, creating it if needed.
///
/// # Errors
///
/// File-system failures.
pub fn fresh_dir(dir: &std::path::Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}
