//! Order statistics and the ladder verdict.

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `values` (the mean of the middle two for even
/// counts); `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A tail order statistic of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Which percentile it is: the share of samples at or below it, in
    /// percent (99.0 for 1000 samples).
    pub percentile: f64,
    /// The sample count it was taken from.
    pub samples: usize,
}

/// The 99th percentile of `values` when at least [`TAIL_BEYOND`]
/// samples lie beyond it (1100 samples or more), otherwise the highest
/// percentile that still has that many beyond it; `None` when there are
/// too few samples for any.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p99_rank = (n * 99).div_ceil(100) - 1;
    let rank = p99_rank.min(n - TAIL_BEYOND - 1);
    Some(Tail {
        value: sorted[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Consecutive windows a measured stream is split into. A run reports
/// the median over its windows of each window's median and tail, so a
/// stall of the shared machine spoils one window rather than the run.
pub const WINDOWS: usize = 6;

/// The windowed summary of a stream of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median over the windows of each window's median.
    pub median: f64,
    /// Median over the windows of each window's [`tail`]; its
    /// `percentile` and `samples` are those of one window.
    pub tail: Tail,
    /// How many windows the stream was split into.
    pub windows: usize,
}

/// Splits `values` (in the order they were measured) into up to
/// [`WINDOWS`] consecutive windows, each with enough samples for a
/// tail, and summarises them; `None` with too few samples for one.
pub fn windowed(values: &[f64]) -> Option<Windowed> {
    let windows = WINDOWS.min(values.len() / (TAIL_BEYOND + 1));
    if windows == 0 {
        return None;
    }
    let size = values.len() / windows;
    let chunks: Vec<&[f64]> = values.chunks(size).take(windows).collect();
    let medians: Vec<f64> = chunks.iter().map(|c| median(c)).collect();
    let tails: Vec<Tail> = chunks.iter().filter_map(|c| tail(c)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Windowed {
        median: median(&medians),
        tail: Tail {
            value: median(&values),
            ..tails[0]
        },
        windows,
    })
}

/// Whether one ladder rung met its limit.
///
/// `latencies_ms` holds the answered requests' latencies (from their
/// due times) in the order they were due; `missed` counts requests of
/// the rung that were never sent or never correctly answered, which
/// count as missing the limit. The rung passes when its tail (missed
/// requests included, as infinitely late) is within `limit_ms` and its
/// backlog did not grow.
pub fn rung_passes(latencies_ms: &[f64], missed: usize, limit_ms: f64) -> bool {
    let mut all = latencies_ms.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, missed));
    match tail(&all) {
        Some(t) if t.value <= limit_ms => !backlog_grows(latencies_ms, limit_ms),
        _ => false,
    }
}

/// A growing backlog: the median latency of the last quarter of the
/// requests (in due order) exceeds that of the first quarter by more
/// than half the latency limit. A server that keeps up shows the same
/// latency from start to end; one that falls behind adds the queue it
/// builds to every later request.
pub fn backlog_grows(latencies_ms: &[f64], limit_ms: f64) -> bool {
    let quarter = latencies_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&latencies_ms[..quarter]);
    let last = median(&latencies_ms[latencies_ms.len() - quarter..]);
    last - first > limit_ms / 2.0
}

/// Steps of the staircase walk a serve run makes over its ladder.
pub const LADDER_STEPS: usize = 20;

/// Rungs the walk climbs a step until its first failure.
pub const LADDER_CLIMB: usize = 4;

/// Rungs the walk descends after a failure.
pub const LADDER_DESCENT: usize = 2;

/// The staircase walk over a ladder of `rungs` rates: the rung after a
/// step on `rung` that `passed` or failed. The walk starts on the
/// bottom rung and climbs [`LADDER_CLIMB`] rungs a step until its first
/// failure (`failed_before`), then one; after a failure it descends
/// [`LADDER_DESCENT`] rungs, so an overshoot costs few steps. It never
/// leaves the ladder.
pub fn next_rung(rung: usize, passed: bool, failed_before: bool, rungs: usize) -> usize {
    if passed {
        (rung + if failed_before { 1 } else { LADDER_CLIMB }).min(rungs - 1)
    } else {
        rung.saturating_sub(LADDER_DESCENT)
    }
}

/// The walk's capacity readings, as indices into its steps: every step
/// that passed after the walk's first failure. From then on the walk
/// hovers where a step passes two times in three, so these are the
/// highest rates the server sustained within the limit. When no step
/// passed after a failure, the last step that passed; no step when
/// none passed.
pub fn ladder_readings(passes: &[bool]) -> Vec<usize> {
    let first_failure = passes.iter().position(|&p| !p).unwrap_or(passes.len());
    let readings: Vec<usize> = (first_failure..passes.len())
        .filter(|&i| passes[i])
        .collect();
    if readings.is_empty() {
        passes.iter().rposition(|&p| p).into_iter().collect()
    } else {
        readings
    }
}
