//! Parallel compile driver.
//!
//! The figure harness compiles hundreds of loops that are independent of
//! one another, so [`Driver`] fans them across a small pool of scoped
//! threads with work stealing: each worker owns a deque seeded with a
//! round-robin share of the job indices, pops from its own front, and
//! steals from the back of a sibling when it runs dry. Results land in
//! per-index slots, so callers always observe them **in job order**
//! regardless of completion order — the parallel drivers are drop-in
//! replacements for their sequential loops.
//!
//! Compiles go through a shared [`ScheduleCache`], which both memoizes
//! repeat requests across figures and deduplicates concurrent requests
//! for the same (loop, machine, options) triple, so determinism does not
//! depend on which thread wins a race.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use crate::cache::{CacheStats, ScheduleCache};
use crate::compile::{
    compile_loop, compile_loop_with, CompileError, CompileOptions, CompiledLoop, SchedulerChoice,
};
use crate::stage::{catch, panic_message};
use swp_ir::Loop;
use swp_machine::Machine;

/// A job that panicked under [`Driver::run_indexed_catching`], reduced to
/// its index and (best-effort) message. The payload itself is dropped: it
/// is not `Sync`, and quarantine reports only need something printable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the panicking job.
    pub job: usize,
    /// Panic message, when the payload was a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

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

// Ambient worker-count hint: set by Driver::compile/compile_with around
// the underlying compile so CompileStats::driver_threads can record which
// driver configuration performed the work (0 = outside any driver).
thread_local! {
    static DRIVER_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The current thread's driver worker-count hint (0 outside a driver).
pub(crate) fn driver_threads_hint() -> usize {
    DRIVER_THREADS.with(std::cell::Cell::get)
}

/// RAII restore for the hint, so nested/sequential-view drivers unwind
/// cleanly even when a compile panics.
struct ThreadsHintGuard(usize);

impl ThreadsHintGuard {
    fn set(n: usize) -> ThreadsHintGuard {
        ThreadsHintGuard(DRIVER_THREADS.with(|c| c.replace(n)))
    }
}

impl Drop for ThreadsHintGuard {
    fn drop(&mut self) {
        DRIVER_THREADS.with(|c| c.set(self.0));
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

    /// A driver that always compiles from scratch. This is the reference
    /// configuration for speedup measurements and cache-correctness
    /// tests.
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

    /// Compile one loop, consulting the cache when enabled. A panicking
    /// scheduler is caught at this boundary and surfaced as
    /// [`CompileError::Internal`] — one bad loop fails its own job, not
    /// the pool.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the underlying scheduler.
    pub fn compile(
        &self,
        lp: &Loop,
        machine: &Machine,
        choice: &SchedulerChoice,
    ) -> Result<Arc<CompiledLoop>, CompileError> {
        let _hint = ThreadsHintGuard::set(self.threads);
        catch_internal(|| match &self.cache {
            Some(cache) => cache.get_or_compile(lp, machine, choice),
            None => compile_loop(lp, machine, choice).map(Arc::new),
        })
    }

    /// Compile one loop with full [`CompileOptions`] (scheduler choice +
    /// verify level), consulting the cache when enabled. Panics are
    /// caught and surfaced as [`CompileError::Internal`], as in
    /// [`Driver::compile`].
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
        let _hint = ThreadsHintGuard::set(self.threads);
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
    /// thread timing. Callers who need all jobs' outcomes use
    /// [`Driver::run_indexed_catching`] instead.
    pub fn run_indexed<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(jobs);
        for r in self.run_indexed_raw(jobs, f) {
            match r {
                Ok(v) => out.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }

    /// [`Driver::run_indexed`] with panics as data: each job yields
    /// either its result or a [`JobPanic`], in job order. Nothing
    /// unwinds out of this call; the pool always completes every job.
    pub fn run_indexed_catching<T, F>(&self, jobs: usize, f: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_indexed_raw(jobs, f)
            .into_iter()
            .enumerate()
            .map(|(job, r)| {
                r.map_err(|p| JobPanic {
                    job,
                    message: panic_message(p.as_ref()),
                })
            })
            .collect()
    }

    /// The shared engine: every job runs under `catch_unwind` (on the
    /// sequential path too, so thread count never changes what callers
    /// observe) and parks its `Result` in its own slot.
    fn run_indexed_raw<T, F>(
        &self,
        jobs: usize,
        f: F,
    ) -> Vec<Result<T, Box<dyn std::any::Any + Send>>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(jobs);
        if workers <= 1 {
            return (0..jobs)
                .map(|i| catch_unwind(AssertUnwindSafe(|| f(i))))
                .collect();
        }
        // Round-robin seeding spreads long jobs (suites and loops arrive
        // roughly sorted by size) across workers; stealing rebalances
        // whatever the seeding gets wrong.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((0..jobs).skip(w).step_by(workers).collect()))
            .collect();
        type Slot<T> = Mutex<Option<Result<T, Box<dyn std::any::Any + Send>>>>;
        let slots: Vec<Slot<T>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let slots = &slots;
                    let f = &f;
                    s.spawn(move || {
                        while let Some(job) = next_job(queues, w) {
                            let result = catch_unwind(AssertUnwindSafe(|| f(job)));
                            *slots[job].lock().expect("result slot lock") = Some(result);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker loops catch their jobs' panics");
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("queues drained, so every job ran")
            })
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

/// Pop from our own front, else steal from a sibling's back.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(job) = queues[w].lock().expect("job queue lock").pop_front() {
        return Some(job);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        if let Some(job) = queues[victim].lock().expect("job queue lock").pop_back() {
            return Some(job);
        }
    }
    None
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

    #[test]
    fn catching_pool_survives_panicking_jobs() {
        hush_injected_panics();
        for threads in [1, 2, 8] {
            let driver = Driver::uncached(threads);
            let ran: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(0)).collect();
            let out = driver.run_indexed_catching(ran.len(), |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                assert!(i % 7 != 3, "expected: job {i}");
                i
            });
            // Every job ran exactly once, panicking or not.
            assert!(ran.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => {
                        assert_eq!(*v, i);
                        assert!(i % 7 != 3);
                    }
                    Err(p) => {
                        assert_eq!(p.job, i);
                        assert!(i % 7 == 3, "only planted panics fail");
                        assert!(p.message.contains(&format!("expected: job {i}")));
                    }
                }
            }
        }
    }

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
