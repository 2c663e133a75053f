//! Allocation regression guard for the replication hot path.
//!
//! Campaigns on the experiment worlds are tiny (a handful of demands), so
//! heap traffic, not kernel work, is what a replication costs once it
//! allocates. This binary installs a counting global allocator and pins
//! two properties on a small world with overlapping fault regions (the
//! packed-kernel evaluation strategy, which builds failure sets):
//!
//! * an adaptive pair `estimate` and a `policy_study` allocate nothing per
//!   replication: 1 024 and 8 192 replications at one thread make the same
//!   number of allocations;
//! * a 2-of-3 shared-suite `system_estimate` stays under
//!   [`SYSTEM_ALLOCS_PER_REPLICATION`] allocations per replication.
//!
//! Counts are per thread (the one-thread runner folds on the calling
//! thread), so tests running side by side in this binary do not disturb
//! each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use diversim_core::structure::Structure;
use diversim_sim::campaign::CampaignRegime;
use diversim_sim::policy::PolicySpec;
use diversim_sim::prepared::{EvalStrategy, Prepared};
use diversim_sim::scenario::Scenario;
use diversim_sim::system::SystemSpec;
use diversim_sim::world::World;
use diversim_universe::demand::{DemandId, DemandSpace};
use diversim_universe::fault::FaultModelBuilder;
use diversim_universe::population::BernoulliPopulation;
use diversim_universe::profile::UsageProfile;

/// Upper bound on heap allocations per 2-of-3 shared-suite system
/// replication: the component and reference vectors, the suite, the
/// component failure-set vectors and the k-of-n gate's work list. The
/// sets themselves are inline.
const SYSTEM_ALLOCS_PER_REPLICATION: u64 = 12;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down; those allocations are not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// Six demands, five overlapping fault regions, Zipf usage: regions
/// overlap, so evaluation runs on packed failure sets.
fn overlapping_world() -> World {
    let d = DemandId::new;
    let space = DemandSpace::new(6).unwrap();
    let model = Arc::new(
        FaultModelBuilder::new(space)
            .fault([d(0), d(1)])
            .fault([d(1), d(2)])
            .fault([d(2), d(3)])
            .fault([d(3), d(4), d(5)])
            .fault([d(0), d(5)])
            .build()
            .unwrap(),
    );
    let pop = BernoulliPopulation::new(model, vec![0.4, 0.3, 0.5, 0.2, 0.35]).unwrap();
    World::symmetric("alloc-free", pop, UsageProfile::zipf(space, 0.8).unwrap())
}

fn adaptive_scenario() -> Scenario {
    let s = overlapping_world()
        .scenario()
        .regime(CampaignRegime::Adaptive(PolicySpec::GreedyOnFailures))
        .suite_size(8)
        .seed(5)
        .build()
        .unwrap();
    let prepared = Prepared::new(Arc::clone(s.model()), s.profile().clone());
    assert_eq!(prepared.strategy(), EvalStrategy::DenseBlocks);
    s
}

#[test]
fn adaptive_pair_estimate_allocates_nothing_per_replication() {
    let s = adaptive_scenario();
    s.estimate(64, 1);
    let short = allocations(|| s.estimate(1024, 1));
    let long = allocations(|| s.estimate(8192, 1));
    assert_eq!(
        short, long,
        "allocations grew with replications: {short} at 1024, {long} at 8192"
    );
}

#[test]
fn policy_study_allocates_nothing_per_replication() {
    let s = adaptive_scenario();
    s.policy_study(64, 1).unwrap();
    let short = allocations(|| s.policy_study(1024, 1).unwrap());
    let long = allocations(|| s.policy_study(8192, 1).unwrap());
    assert_eq!(
        short, long,
        "allocations grew with replications: {short} at 1024, {long} at 8192"
    );
}

#[test]
fn system_estimate_stays_under_its_allocation_bound() {
    let world = overlapping_world();
    let spec = SystemSpec::homogeneous(Structure::k_of_n(2, 3), world.pop_a.clone()).unwrap();
    let s = Scenario::builder()
        .system(spec)
        .profile(world.profile.clone())
        .generator(world.generator.clone())
        .regime(CampaignRegime::SharedSuite)
        .suite_size(4)
        .seed(9)
        .build()
        .unwrap();
    s.system_estimate(64, 1).unwrap();
    let short = allocations(|| s.system_estimate(1024, 1).unwrap());
    let long = allocations(|| s.system_estimate(8192, 1).unwrap());
    let per_replication = (long - short) / (8192 - 1024);
    assert!(
        per_replication <= SYSTEM_ALLOCS_PER_REPLICATION,
        "{per_replication} allocations per system replication, bound {SYSTEM_ALLOCS_PER_REPLICATION}"
    );
}
