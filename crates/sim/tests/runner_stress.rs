//! Stress tests for the lock-free execution layer: chunk-boundary
//! shapes, degenerate worker/replication ratios, zero-width reducers,
//! bitwise thread invariance through the `Reducer` path, and the panic
//! propagation contract (original payload + replication index, no
//! secondary panics).

use std::panic::{catch_unwind, AssertUnwindSafe};

use diversim_sim::runner::{parallel_reduce, parallel_replications};
use diversim_stats::reduce::{
    Count, ElementWise, HistogramReducer, MinMax, Moments, MomentsArray, Sum,
};
use diversim_stats::seed::SeedSequence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A job with real per-replication state, so reordering bugs cannot
/// cancel out.
fn noisy_job(i: u64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.gen::<f64>() * 2.0 - 1.0 + (i as f64).sin() * 1e-3
}

#[test]
fn chunk_and_block_boundaries_are_exact() {
    // 64 is the replication chunk, 1024 the accumulation block: cover
    // exactly-at, one-below and one-above each, plus multiples.
    let seeds = SeedSequence::new(404);
    for replications in [
        1u64, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 2048, 2049,
    ] {
        let serial = parallel_replications(replications, seeds, 1, noisy_job);
        assert_eq!(serial.len() as u64, replications);
        for threads in [2, 7, 16] {
            let parallel = parallel_replications(replications, seeds, threads, noisy_job);
            assert_eq!(
                serial, parallel,
                "replications={replications}, threads={threads} changed results"
            );
        }
        let acc_serial = parallel_reduce(replications, seeds, 1, &MomentsArray::<1>, |i, s| {
            [noisy_job(i, s)]
        });
        let acc_parallel = parallel_reduce(replications, seeds, 16, &MomentsArray::<1>, |i, s| {
            [noisy_job(i, s)]
        });
        assert_eq!(
            acc_serial, acc_parallel,
            "accumulate at replications={replications} not thread-invariant"
        );
        assert_eq!(acc_serial[0].count(), replications);
    }
}

#[test]
fn more_threads_than_replications_is_sound() {
    let seeds = SeedSequence::new(77);
    let out = parallel_replications(3, seeds, 16, |i, _| i * 10);
    assert_eq!(out, vec![0, 10, 20]);
    let acc = parallel_reduce(3, seeds, 16, &MomentsArray::<2>, |i, _| [i as f64, 1.0]);
    assert_eq!(acc[0].count(), 3);
    assert_eq!(acc[0].mean(), 1.0);
}

#[test]
fn zero_width_reducer_is_sound() {
    // K = 0: jobs still run (for their side-effect-free bodies), the
    // result is an empty bundle — on both the serial and parallel path.
    let seeds = SeedSequence::new(5);
    let none_serial = parallel_reduce(3000, seeds, 1, &MomentsArray::<0>, |_, _| []);
    let none_parallel = parallel_reduce(3000, seeds, 8, &MomentsArray::<0>, |_, _| []);
    assert!(none_serial.is_empty());
    assert!(none_parallel.is_empty());
    let empty = parallel_reduce(0, seeds, 8, &MomentsArray::<0>, |_, _| []);
    assert!(empty.is_empty());
}

#[test]
fn reducer_path_is_bitwise_identical_threads_1_vs_16() {
    // A composite reducer spanning every building block: moments,
    // extrema, a histogram, counts, an order-sensitive sum and a
    // per-element vector lift.
    let seeds = SeedSequence::new(909);
    let reducer = (
        (Moments, MinMax),
        HistogramReducer::new(-1.5, 1.5, 12).unwrap(),
        (Count, Sum),
        ElementWise::new(Moments, 3),
    );
    let job = |i: u64, seed: u64| {
        let x = noisy_job(i, seed);
        ((x, x), x, (x > 0.0, x), vec![x, x * x, -x])
    };
    let one = parallel_reduce(5000, seeds, 1, &reducer, job);
    let sixteen = parallel_reduce(5000, seeds, 16, &reducer, job);
    assert_eq!(one, sixteen, "Reducer path not bitwise thread-invariant");
    assert_eq!(one.0 .0.count(), 5000);
    assert_eq!(one.1.total(), 5000);
    assert_eq!(one.3[0].count(), 5000);
    // Sanity: the histogram saw everything inside its range.
    assert_eq!(one.1.underflow() + one.1.overflow(), 0);
}

/// Extracts the propagated panic message, if it is string-like.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        panic!("panic payload is not string-like");
    }
}

#[test]
fn job_panic_surfaces_original_payload_and_index() {
    // Regression: the retired global-mutex runner turned any job panic
    // into secondary `"slot lock poisoned"` panics in sibling workers,
    // masking the original message.
    let seeds = SeedSequence::new(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_replications(500, seeds, 4, |i, _| {
            if i == 137 {
                panic!("boom in job body");
            }
            i
        })
    }));
    let msg = panic_message(result.expect_err("the job panic must propagate"));
    assert!(
        msg.contains("boom in job body"),
        "original payload lost: {msg}"
    );
    assert!(msg.contains("replication 137"), "index lost: {msg}");
    assert!(
        !msg.contains("poisoned"),
        "secondary lock-poisoning panic resurfaced: {msg}"
    );
}

#[test]
fn accumulate_panic_surfaces_original_payload_and_index() {
    let seeds = SeedSequence::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_reduce(3000, seeds, 4, &MomentsArray::<1>, |i, _| {
            assert!(i != 1500, "invariant violated at replication 1500");
            [0.0]
        })
    }));
    let msg = panic_message(result.expect_err("the job panic must propagate"));
    assert!(
        msg.contains("invariant violated"),
        "original payload lost: {msg}"
    );
    assert!(msg.contains("replication 1500"), "index lost: {msg}");
    assert!(
        !msg.contains("poisoned"),
        "secondary panic resurfaced: {msg}"
    );
}

#[test]
fn serial_path_annotates_panics_identically() {
    let seeds = SeedSequence::new(3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_replications(10, seeds, 1, |i, _| {
            if i == 7 {
                panic!("serial boom");
            }
            i
        })
    }));
    let msg = panic_message(result.expect_err("the job panic must propagate"));
    assert!(msg.contains("serial boom"));
    assert!(msg.contains("replication 7"));
}

#[test]
fn non_string_panic_payloads_are_reraised_verbatim() {
    let seeds = SeedSequence::new(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_replications(100, seeds, 4, |i, _| {
            if i == 42 {
                std::panic::panic_any(1234_i32);
            }
            i
        })
    }));
    let payload = result.expect_err("the job panic must propagate");
    assert_eq!(
        payload.downcast_ref::<i32>(),
        Some(&1234),
        "non-string payload must be re-raised unchanged"
    );
}
