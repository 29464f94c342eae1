//! Parallel compile driver.
//!
//! The figure harness compiles hundreds of loops that are independent of
//! one another, so [`Driver`] fans them across a small pool of scoped
//! threads. Jobs are whole compiles (milliseconds or more), so the pool
//! needs no per-worker queues: every worker claims the next job index
//! from one shared atomic counter until the indices run out. Results
//! land in per-index slots, so callers always observe them **in job
//! order** regardless of completion order — a many-thread driver returns
//! exactly what a one-thread driver does.
//!
//! Compiles go through a shared [`ScheduleCache`], which both memoizes
//! repeat requests across figures and deduplicates concurrent requests
//! for the same (loop, machine, options) triple, so determinism does not
//! depend on which thread wins a race.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cache::{CacheStats, ScheduleCache};
use crate::compile::{compile_loop_with, CompileError, CompileOptions, CompiledLoop};
use crate::stage::catch;
use swp_ir::Loop;
use swp_machine::Machine;

/// A thread-pool + schedule-cache pair that drives compiles.
#[derive(Clone)]
pub struct Driver {
    threads: usize,
    cache: Option<Arc<ScheduleCache>>,
}

impl Default for Driver {
    /// [`Driver::default_threads`] workers, with a fresh cache.
    fn default() -> Driver {
        Driver::new(Driver::default_threads())
    }
}

impl Driver {
    /// The default worker count: `SWP_THREADS` when set to a positive
    /// integer (clamped to at most 4× the available parallelism, so a
    /// typo cannot fork-bomb the host), otherwise
    /// [`std::thread::available_parallelism`]. Replaces ad-hoc defaults
    /// so every entry point (driver, experiments binary, compile
    /// service) resolves threads the same way.
    pub fn default_threads() -> usize {
        let avail = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        match std::env::var("SWP_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(n) if n > 0 => n.min(avail.saturating_mul(4)),
            _ => avail,
        }
    }

    /// A driver with `threads` workers (clamped to at least 1) and a
    /// fresh shared cache.
    pub fn new(threads: usize) -> Driver {
        Driver::with_cache(threads, Arc::new(ScheduleCache::new()))
    }

    /// A driver sharing an existing cache — use this to reuse compiles
    /// across figures or across nested drivers.
    pub fn with_cache(threads: usize, cache: Arc<ScheduleCache>) -> Driver {
        Driver {
            threads: threads.max(1),
            cache: Some(cache),
        }
    }

    /// A driver that always compiles from scratch. With one worker this
    /// is the plain sequential path — every job on the calling thread,
    /// no cache — and the reference configuration of the determinism
    /// and cache-correctness tests.
    pub fn uncached(threads: usize) -> Driver {
        Driver {
            threads: threads.max(1),
            cache: None,
        }
    }

    /// A single-threaded view over the same cache. Figure functions use
    /// this for their inner suite loops so only the outer fan-out spawns
    /// threads (nested parallelism on a small pool just adds contention).
    pub fn sequential_view(&self) -> Driver {
        Driver {
            threads: 1,
            cache: self.cache.clone(),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared cache, if this driver memoizes.
    pub fn cache(&self) -> Option<&ScheduleCache> {
        self.cache.as_deref()
    }

    /// Hit/miss counters of the shared cache (zeros when uncached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Compile one loop with full [`CompileOptions`] (scheduler choice,
    /// verify and opt levels), consulting the cache when enabled. A
    /// panicking scheduler is caught at this boundary and surfaced as
    /// [`CompileError::Internal`] — one bad loop fails its own job, not
    /// the pool.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the underlying scheduler.
    pub fn compile_with(
        &self,
        lp: &Loop,
        machine: &Machine,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledLoop>, CompileError> {
        catch_internal(|| match &self.cache {
            Some(cache) => cache.get_or_compile_with(lp, machine, options),
            None => compile_loop_with(lp, machine, options).map(Arc::new),
        })
    }

    /// Run `f(0..jobs)` across the worker pool and return the results in
    /// job order. With one worker (or one job) this degenerates to a
    /// plain sequential loop on the calling thread.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed panicking job — but only
    /// after **every** job has run, so one poisoned loop cannot abort its
    /// siblings mid-flight, and which panic surfaces does not depend on
    /// thread timing. Every job runs under `catch_unwind` (on the
    /// sequential path too, so thread count never changes what callers
    /// observe) and parks its `Result` in its own slot.
    pub fn run_indexed<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let run = |job| catch_unwind(AssertUnwindSafe(|| f(job)));
        let workers = self.threads.min(jobs);
        let results: Vec<std::thread::Result<T>> = if workers <= 1 {
            (0..jobs).map(run).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
                (0..jobs).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            break;
                        }
                        *slots[job].lock().expect("result slot lock") = Some(run(job));
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot lock")
                        .expect("the counter passed every index, so every job ran")
                })
                .collect()
        };
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    }
}

/// Run `f` under `catch_unwind`, converting a panic into the structured
/// [`CompileError::Internal`] that quarantine reports are built from.
fn catch_internal<F>(f: F) -> Result<Arc<CompiledLoop>, CompileError>
where
    F: FnOnce() -> Result<Arc<CompiledLoop>, CompileError>,
{
    catch(f).unwrap_or_else(|message| {
        Err(CompileError::Internal {
            rung: None,
            message,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_job_order() {
        for threads in [1, 2, 8] {
            let driver = Driver::uncached(threads);
            let out = driver.run_indexed(25, |i| i * i);
            assert_eq!(out, (0..25).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let driver = Driver::new(8);
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        driver.run_indexed(counters.len(), |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_jobs_is_fine() {
        let driver = Driver::new(4);
        let out: Vec<u32> = driver.run_indexed(0, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_view_shares_the_cache() {
        let driver = Driver::new(4);
        let seq = driver.sequential_view();
        assert_eq!(seq.threads(), 1);
        let (a, b) = (
            driver.cache().expect("cached"),
            seq.cache().expect("cached"),
        );
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn uncached_driver_reports_zero_stats() {
        let driver = Driver::uncached(2);
        assert!(driver.cache().is_none());
        assert_eq!(driver.cache_stats(), CacheStats::default());
    }

    use crate::ladder::hush_injected_panics;
    use crate::stage::panic_message;

    #[test]
    fn run_indexed_resumes_the_first_panic_in_job_order() {
        hush_injected_panics();
        // Jobs 5 and 11 both panic; regardless of which thread hits which
        // first, the surfaced panic must be job 5's, and every other job
        // must still have run.
        for threads in [2, 8] {
            let driver = Driver::uncached(threads);
            let ran: Vec<AtomicUsize> = (0..20).map(|_| AtomicUsize::new(0)).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                driver.run_indexed(ran.len(), |i| {
                    ran[i].fetch_add(1, Ordering::Relaxed);
                    assert!(i != 5 && i != 11, "expected: job {i}");
                })
            }));
            let payload = caught.expect_err("a planted panic must surface");
            assert!(panic_message(payload.as_ref()).contains("expected: job 5"));
            assert!(ran.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }
}
