//! The benchmark's fixed settings. Every constant here is part of the
//! benchmark's definition: changing one is a benchmark change, not a
//! program change, and needs a fresh baseline.
//!
//! The serve rates and limits were calibrated on a 2-vCPU x86-64 VM
//! (see `perfbench/README.md`): each nominal rate is about a third of
//! the capacity measured there in a quiet minute, so that it stays below
//! capacity when the machine's neighbours take some of it, and each
//! ladder climbs from the nominal rate to past that capacity.

/// Client connections of the open-loop generator. The server answers
/// each connection on a thread of its own, so one connection and the
/// generator's one thread keep the run within the calibration box's 2
/// vCPUs. With two connections three threads were busy near capacity,
/// and `max_rate_rps` spread by about 20% of its median over runs of
/// the same code: it measured the scheduler of a shared host.
pub const CONNECTIONS: usize = 1;

/// `diversim serve --threads`: each request's replications run on one
/// worker, so the connection's thread is the server's only parallelism.
pub const SERVER_THREADS: usize = 1;

/// `diversim serve --cache`: the server's default world-cache capacity.
pub const SERVER_CACHE: usize = 8;

/// `diversim sweep --threads` for the campaign.
pub const CAMPAIGN_THREADS: usize = 2;

/// Set-ups on throwaway servers per burst of a serve run (see
/// [`SERVE_WARM_PASSES`]); `setup_s` is the median over these and the
/// set-up of the server that stays up for the measured phases.
pub const SERVE_SETUPS_PER_BURST: usize = 1;

/// Cold passes per campaign run, each into a fresh cell store and
/// followed by its share of the warm passes; `wall_s` is their median.
pub const COLD_PASSES: usize = 4;

/// `diversim list` round trips (set-ups) after each warm pass of a
/// campaign run; `setup_s` is their median.
pub const LIST_SETUPS_PER_WARM_PASS: usize = 2;

/// Warm re-query passes per burst; a serve run sends a burst before
/// each of its [`NOMINAL_SLICES`] and after each step of the ladder
/// walk, and `warm_s` is the median over all their passes.
pub const SERVE_WARM_PASSES: usize = 8;

/// Times one warm re-query pass sends the warm-up set (in one write),
/// so that a pass outweighs the wake-ups of an idle machine.
pub const SERVE_WARM_ROUNDS: usize = 4;

/// Warm single-experiment queries between two full warm passes.
pub const QUERIES_PER_WARM_PASS: usize = 4;

/// Every how many arrivals of a serve schedule is a `ping`.
pub const PING_EVERY: usize = 8;

/// Share of `--seconds` spent at the nominal rate; the ladder gets the
/// rest, split evenly over the steps of its walk.
pub const NOMINAL_SHARE: f64 = 0.3;

/// Consecutive slices of the untraced nominal phase, with a burst of
/// warm re-queries before each.
pub const NOMINAL_SLICES: usize = 6;

/// A ladder step stops sending once its oldest unanswered request is
/// this many latency limits old: the backlog is already unbounded. The
/// nominal phase always sends every request.
pub const ABORT_AFTER_LIMITS: f64 = 4.0;

/// Longest wait for the responses still due once sending has stopped.
pub const DRAIN_SECONDS: f64 = 30.0;

/// Most nominal-phase lines the traced serve run replays in process.
pub const TRACE_REPLAY_MAX: usize = 400;

/// Most distinct worlds whose build the traced serve run times.
pub const TRACE_WORLD_BUILDS: usize = 24;

/// Spacing of a ladder's rungs, as a multiple of the nominal rate.
pub const LADDER_RUNG: f64 = 0.125;

/// The open-loop settings of one serve workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Requests per second at the nominal rate.
    pub nominal_rps: f64,
    /// The ladder's lowest and highest rates, as multiples of the
    /// nominal rate; its rungs are [`LADDER_RUNG`] apart.
    pub ladder: (f64, f64),
    /// The limit on a rung's tail latency (the highest percentile with
    /// at least ten samples beyond it), in milliseconds.
    pub limit_ms: f64,
}

impl ServeConfig {
    /// The ladder's rungs, as multiples of the nominal rate, ascending.
    pub fn rungs(&self) -> Vec<f64> {
        let (low, high) = self.ladder;
        let n = ((high - low) / LADDER_RUNG).round() as usize;
        (0..=n).map(|i| low + i as f64 * LADDER_RUNG).collect()
    }
}

/// `serve-hot`: cached fixture worlds.
pub const SERVE_HOT: ServeConfig = ServeConfig {
    nominal_rps: 400.0,
    ladder: (1.5, 5.0),
    limit_ms: 50.0,
};

/// `serve-cold`: a distinct generated world per request.
pub const SERVE_COLD: ServeConfig = ServeConfig {
    nominal_rps: 40.0,
    ladder: (1.5, 4.0),
    limit_ms: 100.0,
};
