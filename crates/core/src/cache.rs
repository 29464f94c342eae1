//! Memoizing schedule cache.
//!
//! The paper's cost asymmetry (§4.7: 67,634 s of ILP scheduling vs 261 s
//! heuristic) makes compilation the bottleneck of every experiment, and
//! the figure harness recompiles identical (loop body, machine, options)
//! triples across configurations — fig5 alone compiles each suite loop
//! with the same MOST options twice. The cache returns the previously
//! expanded [`CompiledLoop`] on a hit.
//!
//! Guarantees:
//! - **Keying** is a stable 64-bit FNV-1a streamed over everything
//!   scheduling reads: the loop's canonical body, every field of the
//!   machine, and every scheduler option, in the byte format of
//!   [`crate::codec`] that the compile service's wire shares. Debug
//!   names and the loop name are excluded — two α-equivalent bodies
//!   schedule identically.
//! - **In-flight dedup**: concurrent requests for one key block on the
//!   first compile instead of duplicating it, so a parallel run compiles
//!   each distinct triple exactly once and every consumer observes the
//!   *same* result object (determinism even for schedulers with
//!   wall-clock budgets).
//! - **Invalidation** is unnecessary by construction: keys are pure
//!   functions of immutable inputs. A process restart empties the cache.
//!
//! Errors are cached too: a loop MOST cannot schedule under given
//! budgets fails identically on re-query (budget options are part of the
//! key, so raising the budget creates a fresh entry). The one exception
//! is **wall-clock truncation**: a result (success *or* failure) whose
//! search was cut short by a deadline depends on host load, not on the
//! key, so memoizing it would pin a transient outcome for the whole
//! process lifetime. Such results are returned to the caller but never
//! enter the table — a re-query recompiles. Deterministic budgets
//! (`node_limit`, `pivot_limit`) never set that flag and stay fully
//! memoizable.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::codec::{encode_body, encode_machine, encode_options, Fnv1a};
use crate::compile::{compile_loop_with, CompileError, CompileOptions, CompiledLoop};
use crate::stage::deadline_hit;
use swp_ir::Loop;
use swp_machine::Machine;

thread_local! {
    /// The last machine keyed on this thread and the hash state after it:
    /// keys come in long runs against one machine, and comparing it costs
    /// a fraction of hashing its ~150 bytes again.
    static MACHINE_PREFIX: RefCell<Option<(Machine, Fnv1a)>> = const { RefCell::new(None) };
}

/// Compute the cache key for one compile request: FNV-1a streamed over
/// the whole machine, the loop's canonical body and every keyed option
/// (see [`crate::codec`]); nothing is buffered. The verify level is part
/// of the key: a verified entry carries its audit report, so it must not
/// be served to an unverified request (and vice versa — an `Off` entry
/// has no report to serve).
///
/// The telemetry handle is deliberately **excluded**: unlike chaos or
/// ladder options it cannot change the compiled artifact, so a traced
/// compile must alias an untraced one (and vice versa) instead of
/// recompiling — and, worse, double-counting — per observer.
pub fn cache_key_with(lp: &Loop, machine: &Machine, options: &CompileOptions) -> u64 {
    let mut h = MACHINE_PREFIX.with_borrow_mut(|memo| match memo {
        Some((m, h)) if m == machine => *h,
        _ => {
            let mut h = Fnv1a::default();
            encode_machine(&mut h, machine);
            memo.insert((machine.clone(), h)).1
        }
    });
    encode_body(&mut h, lp);
    encode_options(&mut h, options);
    h.finish()
}

enum Slot {
    /// A compile for this key is in flight on some thread.
    Pending,
    /// The memoized outcome.
    Ready(Result<Arc<CompiledLoop>, CompileError>),
}

/// Unwind protection for the in-flight dedup protocol: the leader that
/// inserted a `Pending` slot owes its waiters a wake-up. If the compile
/// panics, this guard's `Drop` runs during unwind, removes the orphaned
/// `Pending` entry, and notifies — so a blocked waiter re-checks, finds
/// the slot empty, and becomes the new leader instead of sleeping forever
/// on a key nobody owns. Disarmed on the normal publish path.
struct PendingGuard<'a> {
    cache: &'a ScheduleCache,
    key: u64,
    armed: bool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // The compile runs outside the slot lock, so the lock cannot be
        // poisoned by the panic being unwound; `if let` keeps this drop
        // panic-free even if that invariant ever breaks.
        if let Ok(mut slots) = self.cache.slots.lock() {
            slots.remove(&self.key);
        }
        self.cache.ready.notify_all();
    }
}

/// Whether a compile outcome was truncated by a wall-clock deadline and
/// therefore depends on host load. Transient results must not be
/// memoized: under unconditional error memoization a timeout on a
/// loaded host would pin the failure for the whole process, flaking
/// determinism tests whose budgets were generous enough on a quiet run.
fn is_transient(result: &Result<Arc<CompiledLoop>, CompileError>) -> bool {
    match result {
        // Accepted ladder results OR `deadline_hit` across every rung
        // attempted, so a deadline-demoted (hence host-dependent) win on a
        // lower rung is covered by this same arm.
        Ok(c) => c.stats.deadline_hit,
        Err(e) if deadline_hit(e) => true,
        // A cancelled heuristic search (a losing portfolio racer, or a
        // caller-owned token) was truncated by something other than its
        // deterministic budgets — never memoize it.
        Err(CompileError::Heuristic(swp_heur::PipelineError::Cancelled)) => true,
        Err(CompileError::LadderExhausted { attempts }) => attempts.iter().any(|a| a.deadline_hit),
        Err(_) => false,
    }
}

/// Aggregate cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a memoized entry (including requests that
    /// waited on an in-flight compile of the same key, and ready
    /// [`ScheduleCache::peek`]s).
    pub hits: u64,
    /// Requests that performed the compile.
    pub misses: u64,
}

/// A thread-safe memo table from compile requests to compiled loops:
/// one map under one lock, plus the condition variable in-flight waiters
/// block on. A waiter always re-checks the map after a wake-up, so no
/// notification is lost.
#[derive(Default)]
pub struct ScheduleCache {
    slots: Mutex<HashMap<u64, Slot>>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> ScheduleCache {
        ScheduleCache::default()
    }

    /// Compile `lp` with `options`, or return the memoized result of an
    /// identical earlier request. Concurrent requests for the same key
    /// block until the first finishes and then share its result. Verified
    /// compiles are memoized *with* their audit report attached, under a
    /// key that includes the verify level.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) [`CompileError`] from the underlying
    /// compile. Deadline-truncated outcomes are propagated but *not*
    /// memoized (see the module docs).
    pub fn get_or_compile_with(
        &self,
        lp: &Loop,
        machine: &Machine,
        options: &CompileOptions,
    ) -> Result<Arc<CompiledLoop>, CompileError> {
        // Install the request's telemetry for the whole call so hits,
        // waits, and the compile itself (on whichever thread wins the
        // leader race) all land on the requester's collector.
        let _telemetry = options
            .telemetry
            .is_enabled()
            .then(|| options.telemetry.install());
        let lookup = swp_obs::span("cache.lookup").with_s("loop", lp.name());
        let key = cache_key_with(lp, machine, options);
        {
            let mut slots = self.slots.lock().expect("cache lock");
            loop {
                match slots.get(&key) {
                    Some(Slot::Ready(r)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        swp_obs::count(swp_obs::Counter::CacheHits, 1);
                        return r.clone();
                    }
                    Some(Slot::Pending) => {
                        swp_obs::count(swp_obs::Counter::CacheInflightWaits, 1);
                        slots = self.ready.wait(slots).expect("cache lock");
                    }
                    None => {
                        slots.insert(key, Slot::Pending);
                        break;
                    }
                }
            }
        }
        drop(lookup);
        self.misses.fetch_add(1, Ordering::Relaxed);
        swp_obs::count(swp_obs::Counter::CacheMisses, 1);
        let mut guard = PendingGuard {
            cache: self,
            key,
            armed: true,
        };
        let result = compile_loop_with(lp, machine, options).map(Arc::new);
        guard.armed = false;
        let mut slots = self.slots.lock().expect("cache lock");
        if is_transient(&result) {
            // Deadline-truncated outcome: hand it to this caller but do
            // not memoize — drop the Pending slot so waiters (and future
            // requests) recompile instead of inheriting a host-load
            // artifact.
            slots.remove(&key);
        } else {
            slots.insert(key, Slot::Ready(result.clone()));
        }
        self.ready.notify_all();
        result
    }

    /// Look up a *ready* entry by its precomputed key without compiling
    /// or waiting on in-flight leaders. A ready entry counts as a hit, in
    /// [`Self::stats`] and on the ambient telemetry; a `None` counts
    /// nothing, since the caller goes on to another layer. Layered caches
    /// (the compile service's memory → disk → compile chain) use this to
    /// decide whether the disk store even needs to be consulted; `None`
    /// covers both "absent" and "still in flight".
    pub fn peek(&self, key: u64) -> Option<Result<Arc<CompiledLoop>, CompileError>> {
        match self.slots.lock().expect("cache lock").get(&key) {
            Some(Slot::Ready(r)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                swp_obs::count(swp_obs::Counter::CacheHits, 1);
                Some(r.clone())
            }
            _ => None,
        }
    }

    /// Memoized entries (ready only).
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("cache lock")
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drop every memoized entry and zero the counters. In-flight
    /// compiles keep their Pending slots so their waiters still get woken.
    pub fn clear(&self) {
        self.slots
            .lock()
            .expect("cache lock")
            .retain(|_, s| matches!(s, Slot::Pending));
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::SchedulerChoice;
    use crate::ladder::{ChaosFault, ChaosOptions, Corruption, LadderOptions};
    use crate::portfolio::PortfolioOptions;
    use swp_heur::HeurOptions;
    use swp_ir::{LoopBuilder, OptLevel};
    use swp_most::MostOptions;
    use swp_sat::SatOptions;
    use swp_verify::VerifyLevel;

    /// The cache key of `choice` at default verify and opt levels.
    fn key(lp: &Loop, m: &Machine, choice: &SchedulerChoice) -> u64 {
        cache_key_with(lp, m, &CompileOptions::from(choice.clone()))
    }

    /// `get_or_compile_with` at default verify and opt levels.
    fn get(
        cache: &ScheduleCache,
        lp: &Loop,
        m: &Machine,
        choice: &SchedulerChoice,
    ) -> Result<Arc<CompiledLoop>, CompileError> {
        cache.get_or_compile_with(lp, m, &CompileOptions::from(choice.clone()))
    }

    fn saxpy(name: &str) -> Loop {
        let mut b = LoopBuilder::new(name);
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let r = b.fmadd(a, xv, yv);
        b.store(y, 0, 8, r);
        b.finish()
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        let a = get(&cache, &lp, &m, &SchedulerChoice::Heuristic).expect("compiles");
        let b = get(&cache, &lp, &m, &SchedulerChoice::Heuristic).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_ignores_debug_names_but_not_structure() {
        let m = Machine::r8000();
        let c = SchedulerChoice::Heuristic;
        assert_eq!(key(&saxpy("a"), &m, &c), key(&saxpy("b"), &m, &c));
        let mut b = LoopBuilder::new("other");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        b.store(x, 800, 8, v);
        let other = b.finish();
        assert_ne!(key(&saxpy("a"), &m, &c), key(&other, &m, &c));
    }

    #[test]
    fn default_and_explicit_default_options_share_a_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        assert_eq!(
            key(&lp, &m, &SchedulerChoice::Heuristic),
            key(
                &lp,
                &m,
                &SchedulerChoice::HeuristicWith(HeurOptions::default())
            )
        );
        assert_eq!(
            key(&lp, &m, &SchedulerChoice::Ilp),
            key(&lp, &m, &SchedulerChoice::IlpWith(MostOptions::default()))
        );
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Heuristic),
            key(&lp, &m, &SchedulerChoice::Ilp)
        );
    }

    #[test]
    fn options_and_machine_are_part_of_the_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        let tweaked = HeurOptions {
            backtrack_budget: 6400,
            ..HeurOptions::default()
        };
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Heuristic),
            key(&lp, &m, &SchedulerChoice::HeuristicWith(tweaked))
        );
        let unbanked = Machine::r8000_unbanked();
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Heuristic),
            key(&lp, &unbanked, &SchedulerChoice::Heuristic)
        );
    }

    #[test]
    fn concurrent_requests_compile_once_and_share() {
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        let results: Vec<Arc<CompiledLoop>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| get(&cache, &lp, &m, &SchedulerChoice::Heuristic).expect("compiles"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one real compile");
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn verify_level_is_part_of_the_key_and_the_report_is_memoized() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        let off = CompileOptions::from(SchedulerChoice::Heuristic);
        let full = CompileOptions {
            choice: SchedulerChoice::Heuristic,
            verify: VerifyLevel::Full,
            ..CompileOptions::default()
        };
        assert_ne!(
            cache_key_with(&lp, &m, &off),
            cache_key_with(&lp, &m, &full)
        );
        assert_eq!(key(&lp, &m, &SchedulerChoice::Heuristic), {
            cache_key_with(&lp, &m, &off)
        });
        let cache = ScheduleCache::new();
        let a = cache.get_or_compile_with(&lp, &m, &full).expect("compiles");
        assert!(a.audit.as_ref().is_some_and(|r| r.is_clean()));
        let b = cache.get_or_compile_with(&lp, &m, &full).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "verified entry is shared");
        let plain = get(&cache, &lp, &m, &SchedulerChoice::Heuristic).expect("compiles");
        assert!(plain.audit.is_none(), "unverified request compiled fresh");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn opt_level_is_part_of_the_key_and_optimized_entries_do_not_alias() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        let off = CompileOptions::from(SchedulerChoice::Heuristic);
        let full = CompileOptions {
            choice: SchedulerChoice::Heuristic,
            opt: OptLevel::Full,
            ..CompileOptions::default()
        };
        let basic = CompileOptions {
            choice: SchedulerChoice::Heuristic,
            opt: OptLevel::Basic,
            ..CompileOptions::default()
        };
        let keys = [
            cache_key_with(&lp, &m, &off),
            cache_key_with(&lp, &m, &basic),
            cache_key_with(&lp, &m, &full),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        let cache = ScheduleCache::new();
        let opt = cache.get_or_compile_with(&lp, &m, &full).expect("compiles");
        assert!(!opt.stats.opt_passes.is_empty(), "pipeline ran");
        let plain = cache.get_or_compile_with(&lp, &m, &off).expect("compiles");
        assert!(
            plain.stats.opt_passes.is_empty(),
            "off entry compiled fresh"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn literal_bits_are_part_of_the_key() {
        let m = Machine::r8000();
        let mk = |c: f64| {
            let mut b = LoopBuilder::new("lit");
            let k = b.const_f("k", c);
            let x = b.array("x", 8);
            let v = b.load(x, 0, 8);
            let r = b.fmul(k, v);
            b.store(x, 0, 8, r);
            b.finish()
        };
        assert_ne!(
            key(&mk(2.0), &m, &SchedulerChoice::Heuristic),
            key(&mk(4.0), &m, &SchedulerChoice::Heuristic),
            "loops differing only in a constant must not share a key"
        );
    }

    #[test]
    fn telemetry_is_not_part_of_the_key_and_hit_rates_match_with_tracing() {
        let m = Machine::r8000();
        let lp = saxpy("t");
        let untraced = CompileOptions::from(SchedulerChoice::Heuristic);
        let traced = CompileOptions {
            telemetry: swp_obs::Telemetry::with_tracing(),
            ..CompileOptions::from(SchedulerChoice::Heuristic)
        };
        assert_eq!(
            cache_key_with(&lp, &m, &untraced),
            cache_key_with(&lp, &m, &traced),
            "observing a compile must not change its identity"
        );

        // A traced compile aliases an untraced one and vice versa.
        let cache = ScheduleCache::new();
        let a = cache
            .get_or_compile_with(&lp, &m, &untraced)
            .expect("compiles");
        let b = cache
            .get_or_compile_with(&lp, &m, &traced)
            .expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "traced request served from cache");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });

        // Hit-rate parity: an identical request sequence produces
        // identical hit/miss totals with tracing on and off. The loops
        // must differ *structurally* (the key ignores names).
        let loops: Vec<Loop> = (0..3)
            .map(|i| {
                let mut b = LoopBuilder::new("parity");
                let x = b.array("x", 8);
                let v = b.load(x, i, 8);
                b.store(x, i + 16, 8, v);
                b.finish()
            })
            .collect();
        let run = |options: &CompileOptions| {
            let cache = ScheduleCache::new();
            for _ in 0..2 {
                for lp in &loops {
                    cache
                        .get_or_compile_with(lp, &m, options)
                        .expect("compiles");
                }
            }
            cache.stats()
        };
        let off = run(&untraced);
        let on = run(&traced);
        assert_eq!(off, on, "hit rate must not depend on tracing");
        assert_eq!(off, CacheStats { hits: 3, misses: 3 });
        // The traced handle observed every cache event of its requests:
        // one hit up top, then three misses and three hits in the sweep.
        let snap = traced.telemetry.counters();
        assert_eq!(snap.get(swp_obs::Counter::CacheHits), 4);
        assert_eq!(snap.get(swp_obs::Counter::CacheMisses), 3);
    }

    #[test]
    fn errors_are_memoized() {
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let empty = LoopBuilder::new("empty").finish();
        let choice = SchedulerChoice::IlpWith(MostOptions {
            fallback: false,
            ..MostOptions::default()
        });
        let first = get(&cache, &empty, &m, &choice);
        let second = get(&cache, &empty, &m, &choice);
        assert!(first.is_err());
        assert_eq!(first.err(), second.err());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn deadline_truncated_failures_are_not_memoized() {
        // A zero wall-clock budget forces the deadline path
        // deterministically; a failure it causes must not be pinned in
        // the table, or a transient timeout on a loaded host would
        // poison every later query of the same key.
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        let choice = SchedulerChoice::IlpWith(MostOptions {
            loop_time_limit: Some(std::time::Duration::ZERO),
            fallback: false,
            ..MostOptions::default()
        });
        let first = get(&cache, &lp, &m, &choice);
        let second = get(&cache, &lp, &m, &choice);
        for r in [&first, &second] {
            assert!(
                matches!(
                    r,
                    Err(CompileError::Ilp(swp_most::MostError::NoSchedule {
                        deadline_hit: true,
                        ..
                    }))
                ),
                "expected deadline-truncated failure, got {r:?}"
            );
        }
        assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 2 },
            "both requests must recompile"
        );
        assert!(cache.is_empty(), "no entry may be memoized");
    }

    #[test]
    fn deadline_truncated_successes_are_not_memoized_either() {
        // With the fallback on, a zero loop budget still yields a valid
        // schedule (the heuristic's), but one flagged deadline_hit: the
        // *decision to fall back* was host-dependent, so the result is
        // just as unmemoizable as a failure.
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        let choice = SchedulerChoice::IlpWith(MostOptions {
            loop_time_limit: Some(std::time::Duration::ZERO),
            fallback: true,
            ..MostOptions::default()
        });
        let first = get(&cache, &lp, &m, &choice).expect("fallback");
        assert!(first.stats.deadline_hit);
        assert!(first.stats.fell_back);
        let second = get(&cache, &lp, &m, &choice).expect("fallback");
        assert!(!Arc::ptr_eq(&first, &second), "second request recompiled");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert!(cache.is_empty());
    }

    #[test]
    fn deterministic_budget_truncation_is_memoized() {
        // Node/pivot budgets are pure work measures: truncation by them
        // reproduces exactly, so those results stay cacheable.
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        let choice = SchedulerChoice::IlpWith(MostOptions {
            node_limit: 1,
            pivot_limit: 10,
            fallback: true,
            ..MostOptions::default()
        });
        let first = get(&cache, &lp, &m, &choice).expect("schedules");
        assert!(!first.stats.deadline_hit);
        let second = get(&cache, &lp, &m, &choice).expect("schedules");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn pivot_limit_is_part_of_the_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        let tweaked = MostOptions {
            pivot_limit: 1234,
            ..MostOptions::default()
        };
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Ilp),
            key(&lp, &m, &SchedulerChoice::IlpWith(tweaked))
        );
        let loop_tweaked = MostOptions {
            loop_pivot_limit: Some(1234),
            ..MostOptions::default()
        };
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Ilp),
            key(&lp, &m, &SchedulerChoice::IlpWith(loop_tweaked))
        );
    }

    #[test]
    fn ladder_and_chaos_options_are_part_of_the_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        // `Ladder` and an explicit default share a key; the ladder is a
        // distinct request from either direct scheduler.
        assert_eq!(
            key(&lp, &m, &SchedulerChoice::Ladder),
            key(&lp, &m, &SchedulerChoice::LadderWith(Box::default()))
        );
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Ladder),
            key(&lp, &m, &SchedulerChoice::Ilp)
        );
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Ladder),
            key(&lp, &m, &SchedulerChoice::Heuristic)
        );
        // Every knob separates: escalation rounds, gate level, and each
        // distinct chaos plan gets its own entry.
        let quiet = key(&lp, &m, &SchedulerChoice::Ladder);
        let rounds = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            escalation_rounds: 5,
            ..LadderOptions::default()
        }));
        assert_ne!(quiet, key(&lp, &m, &rounds));
        let gate_off = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            gate: VerifyLevel::Off,
            ..LadderOptions::default()
        }));
        assert_ne!(quiet, key(&lp, &m, &gate_off));
        let mut chaos_keys = vec![quiet];
        for fault in [
            ChaosFault::Panic,
            ChaosFault::Exhaust,
            ChaosFault::Corrupt(Corruption::NegativeTime),
            ChaosFault::Corrupt(Corruption::ClobberedRegister),
            ChaosFault::Corrupt(Corruption::TamperedExpansion),
        ] {
            let choice = SchedulerChoice::LadderWith(Box::new(LadderOptions {
                chaos: ChaosOptions::default().with_fault(crate::ladder::Rung::Ilp, fault),
                ..LadderOptions::default()
            }));
            chaos_keys.push(key(&lp, &m, &choice));
        }
        let in_flight = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            chaos: ChaosOptions {
                panic_in_flight: true,
                ..ChaosOptions::default()
            },
            ..LadderOptions::default()
        }));
        chaos_keys.push(key(&lp, &m, &in_flight));
        let distinct: std::collections::HashSet<u64> = chaos_keys.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            chaos_keys.len(),
            "chaos runs must never collide with quiet results or each other"
        );
    }

    #[test]
    fn sat_and_portfolio_keys_never_alias_the_other_backends() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        // Defaults and explicit defaults alias within a backend…
        assert_eq!(
            key(&lp, &m, &SchedulerChoice::Sat),
            key(&lp, &m, &SchedulerChoice::SatWith(SatOptions::default()))
        );
        assert_eq!(
            key(&lp, &m, &SchedulerChoice::Portfolio),
            key(&lp, &m, &SchedulerChoice::PortfolioWith(Box::default()))
        );
        // …but every backend family keys separately: a SAT or portfolio
        // record must never be served to (or overwrite) a heuristic, ILP,
        // or ladder request for the same loop.
        let keys = [
            key(&lp, &m, &SchedulerChoice::Heuristic),
            key(&lp, &m, &SchedulerChoice::Ilp),
            key(&lp, &m, &SchedulerChoice::Sat),
            key(&lp, &m, &SchedulerChoice::Ladder),
            key(&lp, &m, &SchedulerChoice::Portfolio),
        ];
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "backend families collided");
        // Every deterministic SAT knob separates…
        let base = key(&lp, &m, &SchedulerChoice::Sat);
        for tweaked in [
            SatOptions {
                conflict_limit: 1234,
                ..SatOptions::default()
            },
            SatOptions {
                propagation_limit: 1234,
                ..SatOptions::default()
            },
            SatOptions {
                loop_conflict_limit: Some(1234),
                ..SatOptions::default()
            },
            SatOptions {
                max_ops: 7,
                ..SatOptions::default()
            },
            SatOptions::default().without_fallback(),
        ] {
            assert_ne!(
                base,
                key(&lp, &m, &SchedulerChoice::SatWith(tweaked.clone())),
                "{tweaked:?} aliased the default"
            );
        }
        // …while the cancel token, like telemetry, must NOT: observing or
        // aborting a compile never changes its identity.
        let token = swp_obs::CancelToken::new();
        assert_eq!(
            base,
            key(
                &lp,
                &m,
                &SchedulerChoice::SatWith(SatOptions {
                    cancel: token,
                    ..SatOptions::default()
                })
            )
        );
        // Portfolio backend subsets and racer budgets separate too.
        let pbase = key(&lp, &m, &SchedulerChoice::Portfolio);
        for tweaked in [
            PortfolioOptions {
                use_sat: false,
                ..PortfolioOptions::default()
            },
            PortfolioOptions {
                use_ilp: false,
                ..PortfolioOptions::default()
            },
            PortfolioOptions {
                sat: SatOptions {
                    conflict_limit: 99,
                    ..SatOptions::default()
                },
                ..PortfolioOptions::default()
            },
        ] {
            assert_ne!(
                pbase,
                key(&lp, &m, &SchedulerChoice::PortfolioWith(Box::new(tweaked)))
            );
        }
        // The ladder's SAT rung budgets are part of the ladder key.
        let sat_tweaked_ladder = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            sat: SatOptions {
                conflict_limit: 99,
                ..SatOptions::default()
            },
            ..LadderOptions::default()
        }));
        assert_ne!(
            key(&lp, &m, &SchedulerChoice::Ladder),
            key(&lp, &m, &sat_tweaked_ladder)
        );
    }

    #[test]
    fn clear_drops_every_entry_and_zeroes_the_counters() {
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        for i in 0..5 {
            let mut b = LoopBuilder::new("c");
            let x = b.array("x", 8);
            let v = b.load(x, i, 8);
            b.store(x, i + 64, 8, v);
            get(&cache, &b.finish(), &m, &SchedulerChoice::Heuristic).expect("compiles");
        }
        assert_eq!(cache.len(), 5);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn start_rung_is_part_of_the_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        let quiet = key(&lp, &m, &SchedulerChoice::Ladder);
        for level in [1, 2] {
            let demoted =
                SchedulerChoice::LadderWith(Box::new(LadderOptions::default().demoted(level)));
            assert_ne!(
                quiet,
                key(&lp, &m, &demoted),
                "demotion level {level} must not alias the full ladder"
            );
        }
        assert_eq!(
            key(
                &lp,
                &m,
                &SchedulerChoice::LadderWith(Box::new(LadderOptions::default().demoted(0)))
            ),
            quiet,
            "level 0 is no demotion at all"
        );
    }

    #[test]
    fn orphaned_pending_slot_is_cleared_by_the_guard() {
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        let key = key(&lp, &m, &SchedulerChoice::Heuristic);
        cache
            .slots
            .lock()
            .expect("cache lock")
            .insert(key, Slot::Pending);
        drop(PendingGuard {
            cache: &cache,
            key,
            armed: true,
        });
        assert!(
            !cache.slots.lock().expect("cache lock").contains_key(&key),
            "an armed guard must clear its Pending slot on drop"
        );
        // With the slot cleared, a fresh request compiles normally.
        get(&cache, &lp, &m, &SchedulerChoice::Heuristic).expect("compiles");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_leader_neither_hangs_waiters_nor_poisons_the_slot() {
        crate::ladder::hush_injected_panics();
        let m = Machine::r8000();
        let cache = ScheduleCache::new();
        let lp = saxpy("s");
        // Every rung-isolated fault is caught inside compile_ladder;
        // panic_in_flight is the one that unwinds through the cache
        // leader itself, exactly the path the PendingGuard exists for.
        let chaotic = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            chaos: ChaosOptions {
                panic_in_flight: true,
                ..ChaosOptions::default()
            },
            ..LadderOptions::default()
        }));
        // Hammer one key from many threads for several rounds: leaders
        // keep panicking, waiters must keep being woken and promoted, and
        // nobody may deadlock or observe a poisoned lock.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..4 {
                            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                get(&cache, &lp, &m, &chaotic)
                            }));
                            assert!(r.is_err(), "the injected panic must propagate");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("no waiter hangs or dies of poisoning");
            }
        });
        assert!(
            cache.is_empty(),
            "a panicked compile must leave nothing behind"
        );
        let chaotic_key = key(&lp, &m, &chaotic);
        assert!(
            !cache
                .slots
                .lock()
                .expect("cache lock stays healthy")
                .contains_key(&chaotic_key),
            "no orphaned Pending entry"
        );
        // The same cache still serves quiet compiles of the same loop.
        let quiet =
            get(&cache, &lp, &m, &SchedulerChoice::Ladder).expect("quiet ladder compile succeeds");
        assert!(quiet.audit.as_ref().is_some_and(|r| r.is_clean()));
    }
}
