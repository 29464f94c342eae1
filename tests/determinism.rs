//! Differential lockdown of the parallel driver: `run_suite_with` must
//! produce **bit-identical** results to the plain sequential reference —
//! one thread, no cache (`Driver::uncached(1)`) — on every SPEC-like
//! suite, at several thread counts, with and without the schedule cache. The parallel driver is only allowed to change
//! wall-clock, never results.
//!
//! The heuristic scheduler is used throughout: its search is budgeted in
//! backtracks, not wall-clock, so a fresh compile is deterministic and
//! the sequential result is a fixed reference point. (ILP compiles with
//! wall-clock budgets are deterministic only *through the cache* — the
//! in-flight dedup in `ScheduleCache` hands every concurrent requester
//! the same result object — which `tests/property.rs` covers.)

use showdown::{run_suite_baseline_with, run_suite_with, Driver, SchedulerChoice};
use swp_machine::Machine;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn parallel_run_suite_is_bit_identical_to_sequential_on_every_suite() {
    let m = Machine::r8000();
    let choice = SchedulerChoice::Heuristic;
    for suite in swp_kernels::spec_suites() {
        let reference = run_suite_with(&Driver::uncached(1), &suite, &m, &choice)
            .unwrap_or_else(|e| panic!("{}: sequential compile failed: {e}", suite.name));
        for threads in THREAD_COUNTS {
            // A fresh driver per (suite, thread count): every compile
            // really runs under this thread configuration instead of
            // being replayed from a previous round's cache.
            let driver = Driver::new(threads);
            let parallel = run_suite_with(&driver, &suite, &m, &choice).unwrap_or_else(|e| {
                panic!("{}@{threads}: parallel compile failed: {e}", suite.name)
            });
            assert_eq!(
                reference, parallel,
                "{} at {threads} threads: parallel result diverged from sequential",
                suite.name
            );
        }
    }
}

#[test]
fn uncached_parallel_driver_is_also_deterministic() {
    // Same lockdown without the cache's in-flight dedup smoothing
    // anything over: raw thread fan-out must already be deterministic.
    let m = Machine::r8000();
    let choice = SchedulerChoice::Heuristic;
    for suite in swp_kernels::spec_suites() {
        let reference =
            run_suite_with(&Driver::uncached(1), &suite, &m, &choice).expect("sequential compiles");
        for threads in THREAD_COUNTS {
            let driver = Driver::uncached(threads);
            let parallel = run_suite_with(&driver, &suite, &m, &choice).expect("parallel compiles");
            assert_eq!(
                reference, parallel,
                "{} at {threads} threads (uncached)",
                suite.name
            );
        }
    }
}

#[test]
fn parallel_baseline_is_bit_identical_to_sequential() {
    let m = Machine::r8000();
    for suite in swp_kernels::spec_suites() {
        let reference = run_suite_baseline_with(&Driver::uncached(1), &suite, &m);
        for threads in THREAD_COUNTS {
            let driver = Driver::new(threads);
            let parallel = run_suite_baseline_with(&driver, &suite, &m);
            assert_eq!(
                reference, parallel,
                "{} baseline at {threads} threads",
                suite.name
            );
        }
    }
}

#[test]
fn warm_cache_replays_are_bit_identical_too() {
    // One shared driver across repeated runs of the same suite: the
    // second and third runs are served almost entirely from the cache
    // and must still match the cold sequential reference bit for bit.
    let m = Machine::r8000();
    let choice = SchedulerChoice::Heuristic;
    let driver = Driver::new(4);
    for suite in swp_kernels::spec_suites().into_iter().take(4) {
        let reference =
            run_suite_with(&Driver::uncached(1), &suite, &m, &choice).expect("sequential compiles");
        for round in 0..3 {
            let replay = run_suite_with(&driver, &suite, &m, &choice).expect("compiles");
            assert_eq!(reference, replay, "{} round {round}", suite.name);
        }
    }
    let stats = driver.cache_stats();
    assert!(stats.hits > 0, "replays must actually hit the cache");
}
