//! `serve-hot` and `serve-cold`: open-loop traffic against
//! `diversim serve --tcp`.
//!
//! The untraced run measures set-up (spawn until a ping and one
//! warm-up request per world are answered) on fresh servers, keeps the
//! last one, re-queries the warm-up set, then runs the nominal-rate
//! phase and the rate ladder. Afterwards, outside every timed window,
//! each distinct request line is replayed through an in-process
//! [`EvaluationService`], and every response received over TCP must
//! equal its replay byte for byte.
//!
//! The traced run repeats a nominal phase over TCP (for the ping and
//! generator figures), then replays its lines in process, timing the
//! wire parse, `EvaluationService::handle` and the wire emit, and times
//! world builds through a fresh `WorldCache`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

use diversim_bench::serve::cache::WorldCache;
use diversim_bench::serve::request::{EvaluationRequest, EvaluationResponse, RequestKind};
use diversim_bench::serve::EvaluationService;

use crate::config::{
    ServeConfig, ABORT_AFTER_LIMITS, CONNECTIONS, DRAIN_SECONDS, NOMINAL_SHARE, NOMINAL_SLICES,
    SERVER_CACHE, SERVER_THREADS, SERVE_COLD, SERVE_HOT, SERVE_SETUPS_PER_BURST, SERVE_WARM_PASSES,
    SERVE_WARM_ROUNDS, TRACE_REPLAY_MAX, TRACE_WORLD_BUILDS,
};
use crate::openloop::{self, Connections, Reply, Send};
use crate::proc::Server;
use crate::report::Outcome;
use crate::schedule::{arrivals, bodies, ping, warmups, Body, Class, Workload};
use crate::stats::{
    ladder_readings, mean, median, next_rung, rung_passes, tail, windowed, LADDER_STEPS,
};

/// The open-loop settings of a serve workload.
pub fn config(workload: Workload) -> ServeConfig {
    match workload {
        Workload::ServeHot => SERVE_HOT,
        Workload::ServeCold => SERVE_COLD,
        Workload::CampaignFull => panic!("campaign-full is not a serve workload"),
    }
}

/// A closed-loop connection for set-up and warm re-queries.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends `lines` in one write and reads their responses.
    fn ask_all(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let batch: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer.write_all(batch.as_bytes())?;
        lines
            .iter()
            .map(|_| {
                let mut response = String::new();
                self.reader.read_line(&mut response)?;
                Ok(response.trim_end().to_string())
            })
            .collect()
    }
}

/// Sends a ping and `warm` in one write, gating each on an `ok:true`
/// response with the right id.
fn ready(client: &mut Client, warm: &[Body], tag: &str, o: &mut Outcome) -> io::Result<()> {
    let ids: Vec<String> = (0..=warm.len()).map(|k| format!("{tag}-{k}")).collect();
    let lines: Vec<String> = std::iter::once(&ping())
        .chain(warm)
        .zip(&ids)
        .map(|(body, id)| body.line(id))
        .collect();
    for (id, response) in ids.iter().zip(client.ask_all(&lines)?) {
        let status = EvaluationResponse::parse_status(&response).ok();
        o.gate(status == Some((id.clone(), true)), || {
            format!("set-up request {id} answered {response:?}")
        });
    }
    Ok(())
}

/// A phase's plan: `due` offsets over the body pool from `offset`,
/// round-robin over the connections, ids `{prefix}{i}`.
// CONNECTIONS is a setting and may be 1.
#[allow(clippy::modulo_one)]
fn plan(pool: &[Body], due: &[f64], offset: usize, prefix: &str) -> (Vec<Send>, Vec<usize>) {
    let mut sends = Vec::with_capacity(due.len());
    let mut index = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        let j = (offset + i) % pool.len();
        sends.push(Send {
            due: d,
            conn: i % CONNECTIONS,
            line: pool[j].line(&format!("{prefix}{i}")),
        });
        index.push(j);
    }
    (sends, index)
}

/// One measured open-loop phase.
struct Phase {
    sends: Vec<Send>,
    /// Pool index of each send.
    body: Vec<usize>,
    replies: Vec<Reply>,
}

impl Phase {
    /// Runs the phase; a ladder `rung` stops sending once its backlog
    /// is [`ABORT_AFTER_LIMITS`] limits old.
    fn run(
        conns: &mut Connections,
        pool: &[Body],
        due: &[f64],
        offset: usize,
        prefix: &str,
        rung: Option<&ServeConfig>,
    ) -> io::Result<Phase> {
        let (sends, body) = plan(pool, due, offset, prefix);
        let abandon = rung.map(|cfg| ABORT_AFTER_LIMITS * cfg.limit_ms / 1e3);
        let replies = openloop::run(conns, &sends, abandon, DRAIN_SECONDS)?;
        Ok(Phase {
            sends,
            body,
            replies,
        })
    }

    /// Runs the nominal phase, `seconds` long, as [`NOMINAL_SLICES`]
    /// consecutive slices of its schedule, calling `between` before
    /// each. Every slice is sent and drained in full; its arrivals keep
    /// their offsets within it, and its replies are timed as if the
    /// slices followed each other without a gap.
    fn run_sliced(
        conns: &mut Connections,
        pool: &[Body],
        due: &[f64],
        seconds: f64,
        mut between: impl FnMut() -> io::Result<()>,
    ) -> io::Result<Phase> {
        let (sends, body) = plan(pool, due, 0, "n");
        let width = seconds / NOMINAL_SLICES as f64;
        let mut replies = Vec::with_capacity(sends.len());
        for k in 0..NOMINAL_SLICES {
            let start = width * k as f64;
            let slice: Vec<Send> = sends
                .iter()
                .skip(replies.len())
                .take_while(|s| k + 1 == NOMINAL_SLICES || s.due < start + width)
                .map(|s| Send {
                    due: s.due - start,
                    ..s.clone()
                })
                .collect();
            between()?;
            let shift = |t: Option<f64>| t.map(|t| t + start);
            replies.extend(
                openloop::run(conns, &slice, None, DRAIN_SECONDS)?
                    .into_iter()
                    .map(|r| Reply {
                        sent: shift(r.sent),
                        done: shift(r.done),
                        response: r.response,
                    }),
            );
        }
        Ok(Phase {
            sends,
            body,
            replies,
        })
    }

    /// Latencies (ms, due order) of the answered pings (`pings`) or of
    /// the answered requests of every other class.
    fn latencies(&self, pool: &[Body], pings: bool) -> Vec<f64> {
        self.replies
            .iter()
            .zip(&self.sends)
            .zip(&self.body)
            .filter(|(_, &j)| (pool[j].class == Class::Ping) == pings)
            .filter_map(|((r, s), _)| r.latency_ms(s.due))
            .collect()
    }

    fn unanswered(&self) -> usize {
        self.replies.iter().filter(|r| r.done.is_none()).count()
    }

    /// Answered requests per second from the phase start to its last
    /// response.
    fn achieved_rps(&self) -> f64 {
        let answered = self.replies.iter().filter(|r| r.done.is_some()).count();
        let end = self
            .replies
            .iter()
            .filter_map(|r| r.done)
            .fold(0.0, f64::max);
        answered as f64 / end.max(1e-9)
    }

    fn passes(&self, pool: &[Body], limit_ms: f64) -> bool {
        rung_passes(&self.latencies(pool, false), self.unanswered(), limit_ms)
    }
}

/// In-process responses to `pool[j]` under its nominal-phase id `n{j}`,
/// computed on [`CONNECTIONS`] threads.
fn replay(pool: &[Body]) -> Vec<String> {
    let chunk = pool.len().div_ceil(CONNECTIONS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(chunk)
            .enumerate()
            .map(|(c, bodies)| {
                scope.spawn(move || {
                    let service = EvaluationService::new(SERVER_THREADS, SERVER_CACHE);
                    bodies
                        .iter()
                        .enumerate()
                        .map(|(k, body)| {
                            service.handle_line(&body.line(&format!("n{}", c * chunk + k)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// `response` (rendered for id `from`) as rendered for id `to`. The id
/// is echoed verbatim as the second member and nothing else in a
/// response depends on it.
fn with_id(response: &str, from: &str, to: &str) -> Option<String> {
    let head = |id: &str| format!("{{\"api\":\"diversim/v1\",\"id\":\"{id}\"");
    response
        .strip_prefix(&head(from))
        .map(|rest| format!("{}{rest}", head(to)))
}

/// Gates every sent request of `phase` on a response byte-identical to
/// its replay; `all_sent` also fails requests that were never sent.
fn check_phase(phase: &Phase, expected: &[String], prefix: &str, all_sent: bool, o: &mut Outcome) {
    for (i, (reply, &j)) in phase.replies.iter().zip(&phase.body).enumerate() {
        if reply.sent.is_none() && !all_sent {
            continue;
        }
        let id = format!("{prefix}{i}");
        let want = with_id(&expected[j], &format!("n{j}"), &id);
        o.gate(
            reply.response.is_some() && reply.response == want,
            || match &reply.response {
                None if reply.sent.is_none() => format!("request {id} was never sent"),
                None => format!("request {id} was never answered"),
                Some(got) => format!("request {id}: response {got:?} differs from its replay"),
            },
        );
    }
}

/// The untraced run.
///
/// # Errors
///
/// Spawn and connection failures.
pub fn run(workload: Workload, diversim: &Path, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let cfg = config(workload);
    let mut o = Outcome::default();
    let warm = warmups(workload);

    let t = Instant::now();
    let server = Server::spawn(diversim, SERVER_THREADS, SERVER_CACHE)?;
    let mut client = Client::connect(server.addr)?;
    ready(&mut client, &warm, "setup", &mut o)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];

    // More set-ups (on throwaway servers) and the warm re-queries run in
    // bursts before each slice of the nominal phase and after each step
    // of the ladder walk, so that `setup_s` and `warm_s` sample the whole run
    // rather than one second of a shared machine.
    let mut warm_s = Vec::new();
    let mut requeries: Vec<(usize, String, String)> = Vec::new();
    let mut burst = |o: &mut Outcome| -> io::Result<()> {
        for _ in 0..SERVE_SETUPS_PER_BURST {
            let tag = format!("setup{}", setups.len());
            let t = Instant::now();
            let s = Server::spawn(diversim, SERVER_THREADS, SERVER_CACHE)?;
            let mut c = Client::connect(s.addr)?;
            ready(&mut c, &warm, &tag, o)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        for _ in 0..SERVE_WARM_PASSES {
            let pass = warm_s.len();
            let ids: Vec<String> = (0..SERVE_WARM_ROUNDS * warm.len())
                .map(|k| format!("warm{pass}-{k}"))
                .collect();
            let lines: Vec<String> = warm
                .iter()
                .cycle()
                .zip(&ids)
                .map(|(b, id)| b.line(id))
                .collect();
            let t = Instant::now();
            let responses = client.ask_all(&lines)?;
            warm_s.push(t.elapsed().as_secs_f64());
            requeries.extend(
                ids.into_iter()
                    .zip(responses)
                    .enumerate()
                    .map(|(k, (id, r))| (k % warm.len(), id, r)),
            );
        }
        Ok(())
    };

    let nominal_s = seconds * NOMINAL_SHARE;
    let due = arrivals(seed, 0, cfg.nominal_rps, nominal_s);
    let pool = bodies(workload, seed, due.len());
    let mut conns = Connections::open(server.addr, CONNECTIONS)?;
    let nominal = Phase::run_sliced(&mut conns, &pool, &due, nominal_s, || burst(&mut o))?;

    // The ladder is walked as a staircase of LADDER_STEPS steps; each
    // step that passes after the walk's first failure reads the capacity.
    let rung_s = seconds * (1.0 - NOMINAL_SHARE) / LADDER_STEPS as f64;
    let mut steps = Vec::new();
    let mut offset = due.len();
    let ladder = cfg.rungs();
    let (mut k, mut failed_before) = (0, false);
    for step in 0..LADDER_STEPS {
        let mult = ladder[k];
        let due = arrivals(seed, step as u64 + 1, cfg.nominal_rps * mult, rung_s);
        let prefix = format!("l{step}-");
        let rung = Phase::run(&mut conns, &pool, &due, offset, &prefix, Some(&cfg))?;
        offset += due.len();
        let passed = rung.passes(&pool, cfg.limit_ms);
        steps.push((mult, rung, passed));
        burst(&mut o)?;
        k = next_rung(k, passed, failed_before, ladder.len());
        failed_before |= !passed;
    }
    drop((client, conns));
    let peak_kib = server.peak_rss_kib()?;
    drop(server);

    // Correctness, outside every timed window.
    let expected = replay(&pool);
    for (j, response) in expected.iter().enumerate() {
        let status = EvaluationResponse::parse_status(response).ok();
        o.gate(status == Some((format!("n{j}"), true)), || {
            format!("schedule line n{j} is not served ok in process: {response}")
        });
    }
    check_phase(&nominal, &expected, "n", true, &mut o);
    for (k, (_, rung, _)) in steps.iter().enumerate() {
        check_phase(rung, &expected, &format!("l{k}-"), false, &mut o);
    }
    let service = EvaluationService::new(SERVER_THREADS, SERVER_CACHE);
    let warm_expected: Vec<String> = warm
        .iter()
        .map(|body| service.handle_line(&body.line("warm")))
        .collect();
    for (k, id, response) in &requeries {
        let want = with_id(&warm_expected[*k], "warm", id);
        o.gate(want.as_ref() == Some(response), || {
            format!("warm re-query {id} answered {response:?}")
        });
    }

    let latencies = nominal.latencies(&pool, false);
    let w = windowed(&latencies).expect("the nominal phase has more than ten requests");
    let passes: Vec<bool> = steps.iter().map(|(_, _, passed)| *passed).collect();
    let readings = ladder_readings(&passes);
    let reading_rps: Vec<f64> = readings
        .iter()
        .map(|&i| steps[i].1.achieved_rps())
        .collect();
    let max_rate = if reading_rps.is_empty() {
        nominal.achieved_rps()
    } else {
        mean(&reading_rps)
    };
    o.set("setup_s", median(&setups));
    o.set(
        "wall_s",
        nominal
            .replies
            .iter()
            .filter_map(|r| r.done)
            .fold(0.0, f64::max),
    );
    o.set("warm_s", median(&warm_s));
    o.set("p50_ms", w.median);
    o.set("p99_ms", w.tail.value);
    o.set("max_rate_rps", max_rate);
    o.set("peak_rss_mb", peak_kib as f64 / 1024.0);

    let bursts: Vec<String> = warm_s
        .chunks(SERVE_WARM_PASSES)
        .map(|b| format!("{:.3}", median(b) * 1e3))
        .collect();
    o.note(format!(
        "setup_s: median of {} set-ups; warm_s: median of {} passes in {} bursts, whose \
         medians were {} ms",
        setups.len(),
        warm_s.len(),
        bursts.len(),
        bursts.join(", ")
    ));
    o.note(format!(
        "nominal: {} requests at {} req/s over {nominal_s} s; p50_ms and p99_ms are medians \
         over {} windows, p99_ms of each window's p{:.2} of {} samples",
        due.len(),
        cfg.nominal_rps,
        w.windows,
        w.tail.percentile,
        w.tail.samples
    ));
    for (step, (mult, rung, passed)) in steps.iter().enumerate() {
        let lat = rung.latencies(&pool, false);
        let tl = tail(&lat);
        o.note(format!(
            "ladder step {step} {:.3}x ({:.0} req/s): {} sent, achieved {:.1} req/s, tail {} ms \
             over {} samples: {}{}",
            mult,
            cfg.nominal_rps * mult,
            rung.replies.iter().filter(|r| r.sent.is_some()).count(),
            rung.achieved_rps(),
            tl.map_or("n/a".to_string(), |t| format!("{:.2}", t.value)),
            lat.len(),
            if *passed {
                "pass"
            } else {
                "FAIL (limit or backlog)"
            },
            if readings.contains(&step) {
                ", a reading"
            } else {
                ""
            }
        ));
    }
    if reading_rps.is_empty() {
        o.note("ladder: no step met the limit; max_rate_rps is the nominal phase's rate".into());
    } else {
        o.note(format!(
            "ladder: max_rate_rps is the mean over {} readings of the walk",
            reading_rps.len()
        ));
    }
    Ok(o)
}

/// Sends a ping and one request per world of `workload`'s mix to the
/// server at `addr`, as set-up does.
///
/// # Errors
///
/// Connection failures.
pub fn warm_up(workload: Workload, addr: SocketAddr, o: &mut Outcome) -> io::Result<()> {
    let mut client = Client::connect(addr)?;
    ready(&mut client, &warmups(workload), "setup", o)
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The traced run against a warmed server at `addr`.
///
/// # Errors
///
/// Connection failures.
pub fn traced(
    workload: Workload,
    addr: SocketAddr,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    let cfg = config(workload);
    let mut o = Outcome::default();
    let nominal_s = seconds * NOMINAL_SHARE;
    let due = arrivals(seed, 0, cfg.nominal_rps, nominal_s);
    let pool = bodies(workload, seed, due.len());
    let mut conns = Connections::open(addr, CONNECTIONS)?;
    let nominal = Phase::run(&mut conns, &pool, &due, 0, "n", None)?;
    drop(conns);

    let ok = nominal
        .replies
        .iter()
        .zip(&nominal.sends)
        .enumerate()
        .filter(|(i, (r, _))| {
            r.response
                .as_deref()
                .and_then(|l| EvaluationResponse::parse_status(l).ok())
                == Some((format!("n{i}"), true))
        })
        .count();
    let sent = nominal.replies.iter().filter(|r| r.sent.is_some()).count();
    o.gate(ok == due.len(), || {
        format!("{} of {} nominal requests answered ok", ok, due.len())
    });
    let late_ms: Vec<f64> = nominal
        .replies
        .iter()
        .zip(&nominal.sends)
        .filter_map(|(r, s)| r.sent.map(|t| (t - s.due) * 1e3))
        .collect();
    let pings_us: Vec<f64> = nominal
        .latencies(&pool, true)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let samples = nominal.latencies(&pool, false).len();
    o.set("loadgen.sent", sent as f64);
    o.set("loadgen.ok", ok as f64);
    o.set("loadgen.samples", samples as f64);
    o.set(
        "loadgen.late_p99_ms",
        tail(&late_ms).map_or(0.0, |t| t.value),
    );
    o.set("server.ping_p50_us", median(&pings_us));
    o.set(
        "server.ping_p99_us",
        tail(&pings_us).map_or(0.0, |t| t.value),
    );

    // In-process replay of the same lines, untraced then traced, each on
    // a fresh service warmed like the server.
    let lines: Vec<(Class, String)> = pool
        .iter()
        .take(TRACE_REPLAY_MAX)
        .enumerate()
        .map(|(i, body)| (body.class, body.line(&format!("n{i}"))))
        .collect();
    let warmed = || {
        let service = EvaluationService::new(SERVER_THREADS, SERVER_CACHE);
        for body in warmups(workload) {
            service.handle_line(&body.line("warm"));
        }
        service
    };
    // Untraced replays run before and after the traced one, so the
    // overhead ratio does not favour whichever replay runs second.
    let untraced = || {
        let service = warmed();
        let t = Instant::now();
        let responses: Vec<String> = lines.iter().map(|(_, l)| service.handle_line(l)).collect();
        (responses, t.elapsed().as_secs_f64())
    };
    let (plain, untraced_before_s) = untraced();

    let service = warmed();
    let before = service.cache_stats();
    let mut parse_us = Vec::new();
    let mut emit_us = Vec::new();
    let mut bytes = Vec::new();
    let mut handle_us: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let t = Instant::now();
    for ((class, line), want) in lines.iter().zip(&plain) {
        let t0 = Instant::now();
        let request = EvaluationRequest::parse(line);
        parse_us.push(micros(t0));
        let Ok(request) = request else {
            o.gate(false, || format!("line does not parse: {line}"));
            continue;
        };
        let t1 = Instant::now();
        let response = service.handle(&request);
        handle_us.entry(*class).or_default().push(micros(t1));
        let t2 = Instant::now();
        let json = response.to_json();
        emit_us.push(micros(t2));
        if *class != Class::Ping {
            bytes.push(json.len() as f64);
        }
        o.gate(&json == want, || {
            format!("traced replay of {line} differs from the untraced replay")
        });
    }
    let traced_s = t.elapsed().as_secs_f64();
    let after = service.cache_stats();
    let (again, untraced_after_s) = untraced();
    o.gate(again == plain, || "two untraced replays differ".into());
    let untraced_s = (untraced_before_s + untraced_after_s) / 2.0;

    o.set("serve.parse_us", median(&parse_us));
    o.set("serve.emit_us", median(&emit_us));
    o.set("serve.response_bytes", median(&bytes));
    for class in Class::HANDLED {
        if let Some(us) = handle_us.get(&class) {
            o.set(&format!("serve.handle_us.{}", class.name()), median(us));
        }
    }
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    o.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    o.set(
        "serve.cache_evictions",
        (after.evictions - before.evictions) as f64,
    );
    o.set("trace.overhead_ratio", traced_s / untraced_s);

    // World builds: a miss on a fresh cache, for each distinct world
    // of the replayed lines.
    let mut worlds = Vec::new();
    for body in pool.iter().take(TRACE_REPLAY_MAX) {
        if let RequestKind::Evaluate(e) = &body.request.kind {
            if !worlds.contains(&e.world) {
                worlds.push(e.world.clone());
            }
        }
    }
    let mut build_ms = Vec::new();
    for world in worlds.iter().take(TRACE_WORLD_BUILDS) {
        let cache = WorldCache::new(1);
        let t = Instant::now();
        let built = cache.get(world);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        o.gate(built.is_ok(), || format!("world {world:?} does not build"));
    }
    o.set("serve.world_build_ms", median(&build_ms));

    o.note(format!(
        "prediction serve.cache_hit_ratio: {:.3} over {} lookups (want {})",
        hits as f64 / (hits + misses).max(1) as f64,
        hits + misses,
        if workload == Workload::ServeHot {
            "1.0"
        } else {
            "0.0"
        }
    ));
    o.note(format!(
        "traced replay: {} lines, {:.3} s traced vs {:.3} s untraced (mean of one before and \
         one after); {} world builds timed",
        lines.len(),
        traced_s,
        untraced_s,
        build_ms.len()
    ));
    Ok(o)
}
