//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --diversim PATH [--rustc VERSION] [--rev REV]`
//!
//! Runs one workload and prints a metadata header, one line per check
//! and metric, and, last, the result as one JSON object. Exits 0 when
//! every correctness gate held, 1 when one failed (the result line
//! says which counts), 2 on usage or environment errors (no result).
//! `perfbench/run.py` builds both programs and supplies `--diversim`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use diversim_bench::json::Value;
use diversim_bench::spec::Profile;

use perfbench::config::{CAMPAIGN_THREADS, CONNECTIONS, SERVER_CACHE, SERVER_THREADS};
use perfbench::report::{per_layer, result_line, Outcome, END_TO_END, PRINTED_ONLY};
use perfbench::schedule::Workload;
use perfbench::{campaign, fresh_dir, proc, serve};

/// Scratch space inside the checkout, emptied before and after a run.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    diversim: PathBuf,
    rustc: String,
    rev: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::from_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |name: &str, text: Option<String>| -> Result<u64, String> {
        text.ok_or(format!("{name} is required"))?
            .parse()
            .map_err(|_| format!("{name} wants a whole number"))
    };
    let seed = number("--seed", get("--seed"))?;
    let seconds = number("--seconds", get("--seconds"))?;
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        diversim: get("--diversim").ok_or("--diversim is required")?.into(),
        rustc: get("--rustc").unwrap_or_else(|| "unknown".into()),
        rev: get("--rev").unwrap_or_else(|| "unknown".into()),
    })
}

/// The metadata header: what ran, where, with which settings.
fn meta(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = |s: &str| Value::String(s.to_string());
    let num = |n: f64| Value::Number(n);
    let mut members = vec![
        ("workload".to_string(), text(args.workload.name())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), num(nproc as f64)),
        ("rustc".into(), text(&args.rustc)),
        ("rev".into(), text(&args.rev)),
        ("build".into(), text("release, lto, codegen-units=1")),
    ];
    if args.workload == Workload::CampaignFull {
        members.push(("campaign_profile".into(), text("full")));
        members.push(("campaign_threads".into(), num(CAMPAIGN_THREADS as f64)));
    } else {
        let cfg = serve::config(args.workload);
        members.push(("server_threads".into(), num(SERVER_THREADS as f64)));
        members.push(("server_cache".into(), num(SERVER_CACHE as f64)));
        members.push(("connections".into(), num(CONNECTIONS as f64)));
        members.push(("nominal_rps".into(), num(cfg.nominal_rps)));
        members.push((
            "ladder_rps".into(),
            Value::Array(
                cfg.rungs()
                    .iter()
                    .map(|m| num(m * cfg.nominal_rps))
                    .collect(),
            ),
        ));
        members.push(("limit_ms".into(), num(cfg.limit_ms)));
    }
    Value::Object(members).to_json()
}

fn execute(args: &Args, work: &Path) -> std::io::Result<Outcome> {
    let seconds = args.seconds;
    match (args.workload, args.trace) {
        (Workload::CampaignFull, false) => campaign::run(&args.diversim, work, seconds),
        (Workload::CampaignFull, true) => {
            campaign::traced(&args.diversim, work, seconds, Profile::Full)
        }
        (w, false) => serve::run(w, &args.diversim, args.seed, seconds),
        (w, true) => {
            let server = proc::Server::spawn(&args.diversim, SERVER_THREADS, SERVER_CACHE)?;
            let mut warmup = Outcome::default();
            serve::warm_up(w, server.addr, &mut warmup)?;
            let mut o = serve::traced(w, server.addr, args.seed, seconds)?;
            o.attempted += warmup.attempted;
            o.failed += warmup.failed;
            o.notes.extend(warmup.notes);
            Ok(o)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    println!("# meta {}", meta(&args));
    let work = PathBuf::from(WORK_DIR);
    let outcome = fresh_dir(&work)
        .and_then(|()| std::fs::canonicalize(&work))
        .and_then(|work| execute(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };

    let declared: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let missing: Vec<String> = declared
        .iter()
        .map(|(name, _)| name.as_str())
        .chain(PRINTED_ONLY.iter().map(|(name, _)| *name))
        .filter(|name| !args.trace && !outcome.metrics.contains_key(*name))
        .map(str::to_string)
        .collect();
    let bad: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(name, _)| name.clone())
        .collect();
    outcome.gate(missing.is_empty() && bad.is_empty(), || {
        format!("metrics missing {missing:?} or not finite {bad:?}")
    });
    for name in &bad {
        outcome.metrics.remove(name);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut units: Vec<(&str, &str)> = declared.iter().map(|(n, u)| (n.as_str(), *u)).collect();
    if !args.trace {
        units.extend(PRINTED_ONLY);
    }
    for (name, unit) in &units {
        let value = outcome.metrics.get(*name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
    }
    if !args.trace {
        println!(
            "error_rate = {} ratio ({} failed of {} attempted)",
            outcome.error_rate(),
            outcome.failed,
            outcome.attempted
        );
    }
    println!("{}", result_line(&outcome, &declared));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
