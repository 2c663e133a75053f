//! Self-tests of the benchmark: schedules, the open-loop generator,
//! the percentile and ladder rules, and the traced run's metric set.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use diversim_bench::json::{self, Value};
use diversim_bench::serve::request::{EvaluationRequest, RequestKind};
use diversim_bench::serve::server::spawn_tcp;
use diversim_bench::serve::EvaluationService;
use diversim_bench::spec::Profile;

use perfbench::config::{LADDER_RUNG, SERVE_COLD};
use perfbench::openloop::{self, Connections, Send};
use perfbench::report::{per_layer, END_TO_END};
use perfbench::schedule::{arrivals, bodies, warmups, Class, Workload};
use perfbench::stats::{
    backlog_grows, ladder_readings, next_rung, rung_passes, tail, windowed, LADDER_CLIMB,
    LADDER_DESCENT, TAIL_BEYOND,
};
use perfbench::{campaign, serve};

#[test]
fn schedule_is_a_pure_function_of_the_seed() {
    for workload in [Workload::ServeHot, Workload::ServeCold] {
        let lines = |seed| -> Vec<String> {
            bodies(workload, seed, 200)
                .iter()
                .enumerate()
                .map(|(i, b)| b.line(&format!("n{i}")))
                .collect()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        assert_eq!(arrivals(7, 0, 100.0, 2.0), arrivals(7, 0, 100.0, 2.0));
        assert_ne!(arrivals(7, 0, 100.0, 2.0), arrivals(8, 0, 100.0, 2.0));
        assert_ne!(arrivals(7, 0, 100.0, 2.0), arrivals(7, 1, 100.0, 2.0));
        // Every line is a valid request that survives its own round trip.
        for line in lines(7) {
            let request = EvaluationRequest::parse(&line).expect("valid request line");
            assert_eq!(request.to_json(), line);
        }
    }
    // Every seed offers the same load: the count is fixed, the times
    // sorted and inside the phase.
    for seed in 0..5 {
        let due = arrivals(seed, 0, 250.0, 4.0);
        assert_eq!(due.len(), 1000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&d| (0.0..4.0).contains(&d)));
    }
    // serve-cold names a distinct world in every request.
    let mut worlds: Vec<u64> = bodies(Workload::ServeCold, 3, 400)
        .iter()
        .filter_map(|b| match &b.request.kind {
            RequestKind::Evaluate(e) => Some(e.world.content_hash()),
            _ => None,
        })
        .collect();
    let n = worlds.len();
    worlds.sort_unstable();
    worlds.dedup();
    assert_eq!(worlds.len(), n);
    // serve-hot stays within the eight-world cache: five fixtures and
    // the light world.
    let mut hot: Vec<u64> = bodies(Workload::ServeHot, 3, 400)
        .iter()
        .chain(&warmups(Workload::ServeHot))
        .filter_map(|b| match &b.request.kind {
            RequestKind::Evaluate(e) => Some(e.world.content_hash()),
            _ => None,
        })
        .collect();
    hot.sort_unstable();
    hot.dedup();
    assert_eq!(hot.len(), 6);
}

/// A stub server that answers each line at once, except that it
/// stalls for `stall` before answering line `stall_at`.
fn stub_server(stall_at: usize, stall: Duration) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        let mut k = 0;
        while reader.read_line(&mut line).unwrap() > 0 {
            if k == stall_at {
                std::thread::sleep(stall);
            }
            writer.write_all(format!("ok {}", line).as_bytes()).unwrap();
            line.clear();
            k += 1;
        }
    });
    addr
}

#[test]
fn a_stall_is_charged_to_the_requests_due_behind_it() {
    let gap = 0.010;
    let stall = Duration::from_millis(200);
    let addr = stub_server(5, stall);
    let plan: Vec<Send> = (0..40)
        .map(|i| Send {
            due: i as f64 * gap,
            conn: 0,
            line: format!("r{i}"),
        })
        .collect();
    let mut conns = Connections::open(addr, 1).unwrap();
    let replies = openloop::run(&mut conns, &plan, None, 5.0).unwrap();
    for (i, (reply, send)) in replies.iter().zip(&plan).enumerate() {
        assert_eq!(reply.response.as_deref(), Some(format!("ok r{i}").as_str()));
        // Open loop: every line went out on time, stall or not.
        assert!(
            reply.sent.unwrap() - send.due < 0.05,
            "request {i} sent late"
        );
    }
    let latency = |i: usize| replies[i].latency_ms(plan[i].due).unwrap();
    // The stalled request and every request due during the stall wait
    // for it to end, and are charged that wait from their due times.
    for i in 5..20 {
        let behind = 200.0 - (i - 5) as f64 * gap * 1e3;
        assert!(
            latency(i) >= behind - 5.0,
            "request {i}: {} ms, want at least {behind} ms",
            latency(i)
        );
    }
    assert!(latency(2) < 50.0 && latency(35) < 50.0);
}

#[test]
fn the_tail_has_at_least_ten_samples_beyond_it() {
    assert_eq!(tail(&[1.0; 10]), None);
    let values = |n: usize| -> Vec<f64> { (0..n).rev().map(|v| v as f64).collect() };
    // 11 samples: only the minimum has ten beyond it.
    let t = tail(&values(11)).unwrap();
    assert_eq!((t.value, t.samples), (0.0, 11));
    // 500 samples: p98 is the highest with ten beyond.
    let t = tail(&values(500)).unwrap();
    assert_eq!(t.value, 489.0);
    assert_eq!(t.percentile, 98.0);
    // 1000 samples: exactly p99, with exactly ten beyond.
    let t = tail(&values(1000)).unwrap();
    assert_eq!((t.value, t.percentile), (989.0, 99.0));
    // 5000 samples: still p99 (fifty beyond), not a further tail.
    let t = tail(&values(5000)).unwrap();
    assert_eq!((t.value, t.percentile), (4949.0, 99.0));
    for n in [11, 57, 500, 1099, 1100, 4321] {
        let t = tail(&values(n)).unwrap();
        let beyond = values(n).iter().filter(|&&v| v > t.value).count();
        assert!(beyond >= TAIL_BEYOND, "{n} samples: {beyond} beyond");
    }
}

#[test]
fn windows_confine_a_stall_to_one_window() {
    let mut values = vec![1.0; 6000];
    // A stall spoils 300 consecutive samples of one window.
    values[1000..1300].iter_mut().for_each(|v| *v = 500.0);
    let w = windowed(&values).unwrap();
    assert_eq!(w.windows, 6);
    assert_eq!((w.median, w.tail.value), (1.0, 1.0));
    assert_eq!(tail(&values).unwrap().value, 500.0);
    assert!(windowed(&[1.0; 10]).is_none());
    assert_eq!(windowed(&[2.0; 30]).unwrap().windows, 2);
}

#[test]
fn ladder_verdicts_on_synthetic_latencies() {
    let limit = 50.0;
    let flat = vec![5.0; 400];
    assert!(rung_passes(&flat, 0, limit));
    // Eleven requests over the limit, or eleven never answered, miss it.
    let mut slow = flat.clone();
    slow[100..111].iter_mut().for_each(|v| *v = 80.0);
    assert!(!rung_passes(&slow, 0, limit));
    assert!(!rung_passes(&flat, 11, limit));
    // Ten beyond is still within the rule.
    let mut ten = flat.clone();
    ten[100..110].iter_mut().for_each(|v| *v = 80.0);
    assert!(rung_passes(&ten, 0, limit));
    // A queue that grows through the rung fails it even when every
    // latency is inside the limit.
    let ramp: Vec<f64> = (0..400).map(|i| i as f64 * 49.0 / 400.0).collect();
    assert!(backlog_grows(&ramp, limit));
    assert!(!rung_passes(&ramp, 0, limit));
    // The walk climbs LADDER_CLIMB rungs a step until its first
    // failure, then one, descends LADDER_DESCENT after a failure, and
    // stays on the ladder.
    assert_eq!(next_rung(0, true, false, 10), LADDER_CLIMB);
    assert_eq!(next_rung(2, true, true, 10), 3);
    assert_eq!(next_rung(5, false, true, 10), 5 - LADDER_DESCENT);
    assert_eq!(next_rung(5, false, false, 10), 5 - LADDER_DESCENT);
    assert_eq!(next_rung(1, false, true, 10), 0);
    assert_eq!(next_rung(9, true, true, 10), 9);
    assert_eq!(next_rung(8, true, false, 10), 9);
    // The rungs span each ladder, LADDER_RUNG apart.
    let rungs = SERVE_COLD.rungs();
    assert_eq!(rungs.first(), Some(&SERVE_COLD.ladder.0));
    assert_eq!(rungs.last(), Some(&SERVE_COLD.ladder.1));
    assert!(rungs
        .windows(2)
        .all(|w| (w[1] - w[0] - LADDER_RUNG).abs() < 1e-9));
    // Its capacity readings are the passes after its first failure,
    // else the last pass (the walk never failed, or never passed again),
    // else none.
    assert_eq!(
        ladder_readings(&[true, true, false, true, true, false, false, true]),
        vec![3, 4, 7]
    );
    assert_eq!(ladder_readings(&[true, true, true]), vec![2]);
    assert_eq!(ladder_readings(&[true, false, false]), vec![0]);
    assert_eq!(ladder_readings(&[false, false]), Vec::<usize>::new());
}

fn declared_names(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let per_layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared_names("per_layer"), per_layer);
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared_names("end_to_end"), end_to_end);
}

#[test]
fn the_traced_runs_emit_every_per_layer_metric() {
    let work = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap();
    let mut emitted = campaign::trace_passes(&work, 0.0, Profile::Smoke, None)
        .unwrap()
        .metrics;
    std::fs::remove_dir_all(&work).ok();
    assert_eq!(emitted["sweep.computed"], emitted["sweep.warm_hits"]);
    assert_eq!(emitted["sweep.hits"], 0.0);
    assert_eq!(emitted["sweep.warm_computed"], 0.0);

    for workload in [Workload::ServeHot, Workload::ServeCold] {
        let service = Arc::new(EvaluationService::new(1, 8));
        let (addr, _accept_loop) = spawn_tcp(service, "127.0.0.1:0").unwrap();
        let mut warm = perfbench::report::Outcome::default();
        serve::warm_up(workload, addr, &mut warm).unwrap();
        let o = serve::traced(workload, addr, 5, 1.0).unwrap();
        assert_eq!(o.failed + warm.failed, 0, "{:?}", o.notes);
        let ratio = o.metrics["serve.cache_hit_ratio"];
        match workload {
            Workload::ServeHot => assert_eq!(ratio, 1.0),
            _ => assert_eq!(ratio, 0.0),
        }
        emitted.extend(o.metrics);
    }
    // The campaign's overhead ratio needs the binary's pass; every
    // other per-layer metric is measured by the runs above.
    emitted.insert("trace.overhead_ratio".into(), 1.0);
    for (name, _) in per_layer() {
        assert!(emitted.contains_key(&name), "{name} is never emitted");
    }
    assert!(Class::HANDLED
        .iter()
        .all(|c| emitted[&format!("serve.handle_us.{}", c.name())] > 0.0));
}
