//! Memoizing schedule cache.
//!
//! The paper's cost asymmetry (§4.7: 67,634 s of ILP scheduling vs 261 s
//! heuristic) makes compilation the bottleneck of every experiment, and
//! the figure harness recompiles identical (loop body, machine, options)
//! triples across configurations — fig5 alone compiles each suite loop
//! with the same MOST options twice. The cache keys compiles by a
//! *stable* 64-bit fingerprint of the loop body, the machine, and the
//! scheduler options, and returns the previously expanded
//! [`CompiledLoop`] on a hit.
//!
//! Guarantees:
//! - **Keying** covers everything scheduling reads: op classes and
//!   semantics, operand/value topology, memory-access descriptors, array
//!   shapes, machine identity (name + allocatable registers), and every
//!   scheduler option. Debug names and the loop name are excluded — two
//!   α-equivalent bodies schedule identically.
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::compile::{
    compile_loop_with, CompileError, CompileOptions, CompiledLoop, SchedulerChoice,
};
use crate::ladder::{ChaosFault, ChaosOptions, Corruption, LadderOptions};
use crate::portfolio::PortfolioOptions;
use crate::stage::deadline_hit;
use swp_heur::HeurOptions;
use swp_ir::{Loop, OptLevel};
use swp_machine::{Machine, RegClass};
use swp_most::MostOptions;
use swp_sat::SatOptions;
use swp_verify::VerifyLevel;

/// FNV-1a, with explicit length prefixes where variable-length data is
/// folded in. Stable across runs and platforms (unlike `DefaultHasher`,
/// which documents no such guarantee).
struct StableHasher {
    state: u64,
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    fn new() -> StableHasher {
        StableHasher {
            state: Self::OFFSET,
        }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(Self::PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.byte(1);
                self.u64(v);
            }
            None => self.byte(0),
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

fn fold_loop(h: &mut StableHasher, lp: &Loop) {
    h.u64(lp.ops().len() as u64);
    for op in lp.ops() {
        h.u64(op.class as u64);
        h.u64(op.sem as u64);
        h.opt_u64(op.result.map(|v| u64::from(v.0)));
        h.u64(op.operands.len() as u64);
        for operand in &op.operands {
            h.u64(u64::from(operand.value.0));
            h.u64(u64::from(operand.distance));
        }
        match op.mem {
            Some(m) => {
                h.byte(1);
                h.u64(u64::from(m.array.0));
                h.i64(m.offset);
                h.i64(m.stride);
                h.bool(m.indirect);
            }
            None => h.byte(0),
        }
    }
    h.u64(lp.values().len() as u64);
    for v in lp.values() {
        h.u64(v.class as u64);
        h.opt_u64(v.def.map(|d| u64::from(d.0)));
        // Literal bits feed constant folding and strength reduction, so
        // two loops differing only in a constant must not share a key.
        h.opt_u64(v.literal);
    }
    h.u64(lp.arrays().len() as u64);
    for a in lp.arrays() {
        h.u64(u64::from(a.elem_bytes));
        h.u64(a.base_align);
    }
}

fn fold_machine(h: &mut StableHasher, machine: &Machine) {
    h.str(machine.name());
    for class in RegClass::ALL {
        h.u64(u64::from(machine.allocatable(class)));
    }
}

fn fold_heur_options(h: &mut StableHasher, opts: &HeurOptions) {
    h.byte(b'H');
    h.u64(opts.heuristics.len() as u64);
    for &heur in &opts.heuristics {
        h.u64(heur as u64);
    }
    h.u64(u64::from(opts.backtrack_budget));
    h.bool(opts.bank_pairing);
    h.u64(u64::from(opts.max_ii_factor));
    h.bool(opts.enable_spilling);
    h.bool(opts.two_phase_search);
    h.bool(opts.explore_stalls);
}

fn fold_most_options(h: &mut StableHasher, opts: &MostOptions) {
    h.byte(b'M');
    h.bool(opts.minimize_buffers);
    h.u64(opts.node_limit);
    h.u64(opts.pivot_limit);
    h.opt_u64(
        opts.time_limit
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
    );
    h.bool(opts.use_priority_orders);
    h.u64(u64::from(opts.max_ii_factor));
    h.bool(opts.fallback);
    h.opt_u64(
        opts.loop_time_limit
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
    );
    h.opt_u64(opts.loop_pivot_limit);
    h.u64(opts.max_ops as u64);
}

/// Every deterministic SAT knob; the cancel token is deliberately
/// excluded (like telemetry, cancellation cannot change what a
/// *completed* compile produced, and truncated results are never
/// memoized anyway — see [`is_transient`]).
fn fold_sat_options(h: &mut StableHasher, opts: &SatOptions) {
    h.byte(b'S');
    h.u64(opts.conflict_limit);
    h.u64(opts.propagation_limit);
    h.opt_u64(
        opts.time_limit
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
    );
    h.u64(u64::from(opts.max_ii_factor));
    h.bool(opts.fallback);
    h.opt_u64(
        opts.loop_time_limit
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
    );
    h.opt_u64(opts.loop_conflict_limit);
    h.u64(opts.max_ops as u64);
}

fn fold_portfolio_options(h: &mut StableHasher, opts: &PortfolioOptions) {
    h.byte(b'P');
    h.bool(opts.use_ilp);
    h.bool(opts.use_sat);
    h.bool(opts.use_heur);
    fold_most_options(h, &opts.most);
    fold_sat_options(h, &opts.sat);
    fold_heur_options(h, &opts.heur);
}

fn fold_chaos(h: &mut StableHasher, chaos: &ChaosOptions) {
    h.byte(b'C');
    for f in &chaos.faults {
        h.byte(match f {
            None => 0,
            Some(ChaosFault::Panic) => 1,
            Some(ChaosFault::Exhaust) => 2,
            Some(ChaosFault::Corrupt(Corruption::NegativeTime)) => 3,
            Some(ChaosFault::Corrupt(Corruption::ClobberedRegister)) => 4,
            Some(ChaosFault::Corrupt(Corruption::TamperedExpansion)) => 5,
        });
    }
    h.bool(chaos.panic_in_flight);
}

fn fold_ladder_options(h: &mut StableHasher, opts: &LadderOptions) {
    h.byte(b'L');
    fold_most_options(h, &opts.most);
    fold_sat_options(h, &opts.sat);
    fold_heur_options(h, &opts.heur);
    h.u64(u64::from(opts.escalation_rounds));
    // A demoted (lower-start) compile is a different artifact from a full
    // ladder run and must never alias one — overload demotion would
    // otherwise poison the cache (and the disk store) for quiet requests.
    h.byte(b'R');
    h.byte(opts.start_rung.index() as u8);
    h.byte(b'G');
    h.byte(match opts.gate {
        VerifyLevel::Off => 0,
        VerifyLevel::Schedule => 1,
        VerifyLevel::Full => 2,
    });
    // The chaos plan is part of the key: a fault-injected compile (its
    // demotions, its rung trace, possibly its gate rejections) must never
    // be served to — or pollute the memoized entry of — a quiet request
    // for the same loop.
    fold_chaos(h, &opts.chaos);
}

fn fold_choice(h: &mut StableHasher, choice: &SchedulerChoice) {
    // `Heuristic` and `HeuristicWith(default)` request the same compile,
    // so they must share a key; likewise for `Ilp` and `Ladder`.
    match choice {
        SchedulerChoice::Heuristic => fold_heur_options(h, &HeurOptions::default()),
        SchedulerChoice::HeuristicWith(opts) => fold_heur_options(h, opts),
        SchedulerChoice::Ilp => fold_most_options(h, &MostOptions::default()),
        SchedulerChoice::IlpWith(opts) => fold_most_options(h, opts),
        SchedulerChoice::Sat => fold_sat_options(h, &SatOptions::default()),
        SchedulerChoice::SatWith(opts) => fold_sat_options(h, opts),
        SchedulerChoice::Ladder => fold_ladder_options(h, &LadderOptions::default()),
        SchedulerChoice::LadderWith(opts) => fold_ladder_options(h, opts),
        SchedulerChoice::Portfolio => fold_portfolio_options(h, &PortfolioOptions::default()),
        SchedulerChoice::PortfolioWith(opts) => fold_portfolio_options(h, opts),
    }
}

fn fold_verify(h: &mut StableHasher, level: VerifyLevel) {
    h.byte(b'V');
    h.byte(match level {
        VerifyLevel::Off => 0,
        VerifyLevel::Schedule => 1,
        VerifyLevel::Full => 2,
    });
}

fn fold_opt(h: &mut StableHasher, level: OptLevel) {
    h.byte(b'O');
    h.byte(match level {
        OptLevel::Off => 0,
        OptLevel::Basic => 1,
        OptLevel::Full => 2,
    });
}

/// Compute the cache key for one compile request (verification off).
pub fn cache_key(lp: &Loop, machine: &Machine, choice: &SchedulerChoice) -> u64 {
    cache_key_with(lp, machine, &CompileOptions::from(choice.clone()))
}

/// Compute the cache key for one compile request with full options. The
/// verify level is part of the key: a verified entry carries its audit
/// report, so it must not be served to an unverified request (and vice
/// versa — an `Off` entry has no report to serve).
///
/// The telemetry handle is deliberately **excluded**: unlike chaos or
/// ladder options it cannot change the compiled artifact, so a traced
/// compile must alias an untraced one (and vice versa) instead of
/// recompiling — and, worse, double-counting — per observer.
pub fn cache_key_with(lp: &Loop, machine: &Machine, options: &CompileOptions) -> u64 {
    let mut h = StableHasher::new();
    fold_loop(&mut h, lp);
    fold_machine(&mut h, machine);
    fold_choice(&mut h, &options.choice);
    fold_verify(&mut h, options.verify);
    fold_opt(&mut h, options.opt);
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

/// Aggregate cache counters, for reporting hit rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a memoized entry (including requests that
    /// waited on an in-flight compile of the same key).
    pub hits: u64,
    /// Requests that performed the compile.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all requests (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
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

    /// Compile `lp` with `choice`, or return the memoized result of an
    /// identical earlier request. Concurrent requests for the same key
    /// block until the first finishes and then share its result.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) [`CompileError`] from the underlying
    /// compile.
    pub fn get_or_compile(
        &self,
        lp: &Loop,
        machine: &Machine,
        choice: &SchedulerChoice,
    ) -> Result<Arc<CompiledLoop>, CompileError> {
        self.get_or_compile_with(lp, machine, &CompileOptions::from(choice.clone()))
    }

    /// [`Self::get_or_compile`] with full [`CompileOptions`]: verified
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

    /// Look up a *ready* entry by its precomputed key without compiling,
    /// waiting on in-flight leaders, or touching the hit/miss counters.
    /// Layered caches (the compile service's memory → disk → compile
    /// chain) use this to decide whether the disk store even needs to be
    /// consulted; `None` covers both "absent" and "still in flight".
    pub fn peek(&self, key: u64) -> Option<Result<Arc<CompiledLoop>, CompileError>> {
        match self.slots.lock().expect("cache lock").get(&key) {
            Some(Slot::Ready(r)) => Some(r.clone()),
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
    use swp_ir::LoopBuilder;

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
        let a = cache
            .get_or_compile(&lp, &m, &SchedulerChoice::Heuristic)
            .expect("compiles");
        let b = cache
            .get_or_compile(&lp, &m, &SchedulerChoice::Heuristic)
            .expect("compiles");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn key_ignores_debug_names_but_not_structure() {
        let m = Machine::r8000();
        let c = SchedulerChoice::Heuristic;
        assert_eq!(
            cache_key(&saxpy("a"), &m, &c),
            cache_key(&saxpy("b"), &m, &c)
        );
        let mut b = LoopBuilder::new("other");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        b.store(x, 800, 8, v);
        let other = b.finish();
        assert_ne!(cache_key(&saxpy("a"), &m, &c), cache_key(&other, &m, &c));
    }

    #[test]
    fn default_and_explicit_default_options_share_a_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        assert_eq!(
            cache_key(&lp, &m, &SchedulerChoice::Heuristic),
            cache_key(
                &lp,
                &m,
                &SchedulerChoice::HeuristicWith(HeurOptions::default())
            )
        );
        assert_eq!(
            cache_key(&lp, &m, &SchedulerChoice::Ilp),
            cache_key(&lp, &m, &SchedulerChoice::IlpWith(MostOptions::default()))
        );
        assert_ne!(
            cache_key(&lp, &m, &SchedulerChoice::Heuristic),
            cache_key(&lp, &m, &SchedulerChoice::Ilp)
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
            cache_key(&lp, &m, &SchedulerChoice::Heuristic),
            cache_key(&lp, &m, &SchedulerChoice::HeuristicWith(tweaked))
        );
        let unbanked = Machine::r8000_unbanked();
        assert_ne!(
            cache_key(&lp, &m, &SchedulerChoice::Heuristic),
            cache_key(&lp, &unbanked, &SchedulerChoice::Heuristic)
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
                    s.spawn(|| {
                        cache
                            .get_or_compile(&lp, &m, &SchedulerChoice::Heuristic)
                            .expect("compiles")
                    })
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
        assert_eq!(cache_key(&lp, &m, &SchedulerChoice::Heuristic), {
            cache_key_with(&lp, &m, &off)
        });
        let cache = ScheduleCache::new();
        let a = cache.get_or_compile_with(&lp, &m, &full).expect("compiles");
        assert!(a.audit.as_ref().is_some_and(|r| r.is_clean()));
        let b = cache.get_or_compile_with(&lp, &m, &full).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "verified entry is shared");
        let plain = cache
            .get_or_compile(&lp, &m, &SchedulerChoice::Heuristic)
            .expect("compiles");
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
            cache_key(&mk(2.0), &m, &SchedulerChoice::Heuristic),
            cache_key(&mk(4.0), &m, &SchedulerChoice::Heuristic),
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
        let first = cache.get_or_compile(&empty, &m, &choice);
        let second = cache.get_or_compile(&empty, &m, &choice);
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
        let first = cache.get_or_compile(&lp, &m, &choice);
        let second = cache.get_or_compile(&lp, &m, &choice);
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
        let first = cache.get_or_compile(&lp, &m, &choice).expect("fallback");
        assert!(first.stats.deadline_hit);
        assert!(first.stats.fell_back);
        let second = cache.get_or_compile(&lp, &m, &choice).expect("fallback");
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
            time_limit: None,
            loop_time_limit: None,
            fallback: true,
            ..MostOptions::default()
        });
        let first = cache.get_or_compile(&lp, &m, &choice).expect("schedules");
        assert!(!first.stats.deadline_hit);
        let second = cache.get_or_compile(&lp, &m, &choice).expect("schedules");
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
            cache_key(&lp, &m, &SchedulerChoice::Ilp),
            cache_key(&lp, &m, &SchedulerChoice::IlpWith(tweaked))
        );
        let loop_tweaked = MostOptions {
            loop_pivot_limit: Some(1234),
            ..MostOptions::default()
        };
        assert_ne!(
            cache_key(&lp, &m, &SchedulerChoice::Ilp),
            cache_key(&lp, &m, &SchedulerChoice::IlpWith(loop_tweaked))
        );
    }

    #[test]
    fn ladder_and_chaos_options_are_part_of_the_key() {
        let m = Machine::r8000();
        let lp = saxpy("s");
        // `Ladder` and an explicit default share a key; the ladder is a
        // distinct request from either direct scheduler.
        assert_eq!(
            cache_key(&lp, &m, &SchedulerChoice::Ladder),
            cache_key(&lp, &m, &SchedulerChoice::LadderWith(Box::default()))
        );
        assert_ne!(
            cache_key(&lp, &m, &SchedulerChoice::Ladder),
            cache_key(&lp, &m, &SchedulerChoice::Ilp)
        );
        assert_ne!(
            cache_key(&lp, &m, &SchedulerChoice::Ladder),
            cache_key(&lp, &m, &SchedulerChoice::Heuristic)
        );
        // Every knob separates: escalation rounds, gate level, and each
        // distinct chaos plan gets its own entry.
        let quiet = cache_key(&lp, &m, &SchedulerChoice::Ladder);
        let rounds = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            escalation_rounds: 5,
            ..LadderOptions::default()
        }));
        assert_ne!(quiet, cache_key(&lp, &m, &rounds));
        let gate_off = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            gate: VerifyLevel::Off,
            ..LadderOptions::default()
        }));
        assert_ne!(quiet, cache_key(&lp, &m, &gate_off));
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
            chaos_keys.push(cache_key(&lp, &m, &choice));
        }
        let in_flight = SchedulerChoice::LadderWith(Box::new(LadderOptions {
            chaos: ChaosOptions {
                panic_in_flight: true,
                ..ChaosOptions::default()
            },
            ..LadderOptions::default()
        }));
        chaos_keys.push(cache_key(&lp, &m, &in_flight));
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
            cache_key(&lp, &m, &SchedulerChoice::Sat),
            cache_key(&lp, &m, &SchedulerChoice::SatWith(SatOptions::default()))
        );
        assert_eq!(
            cache_key(&lp, &m, &SchedulerChoice::Portfolio),
            cache_key(&lp, &m, &SchedulerChoice::PortfolioWith(Box::default()))
        );
        // …but every backend family keys separately: a SAT or portfolio
        // record must never be served to (or overwrite) a heuristic, ILP,
        // or ladder request for the same loop.
        let keys = [
            cache_key(&lp, &m, &SchedulerChoice::Heuristic),
            cache_key(&lp, &m, &SchedulerChoice::Ilp),
            cache_key(&lp, &m, &SchedulerChoice::Sat),
            cache_key(&lp, &m, &SchedulerChoice::Ladder),
            cache_key(&lp, &m, &SchedulerChoice::Portfolio),
        ];
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "backend families collided");
        // Every deterministic SAT knob separates…
        let base = cache_key(&lp, &m, &SchedulerChoice::Sat);
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
                cache_key(&lp, &m, &SchedulerChoice::SatWith(tweaked.clone())),
                "{tweaked:?} aliased the default"
            );
        }
        // …while the cancel token, like telemetry, must NOT: observing or
        // aborting a compile never changes its identity.
        let token = swp_obs::CancelToken::new();
        assert_eq!(
            base,
            cache_key(
                &lp,
                &m,
                &SchedulerChoice::SatWith(SatOptions {
                    cancel: token,
                    ..SatOptions::default()
                })
            )
        );
        // Portfolio backend subsets and racer budgets separate too.
        let pbase = cache_key(&lp, &m, &SchedulerChoice::Portfolio);
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
                cache_key(&lp, &m, &SchedulerChoice::PortfolioWith(Box::new(tweaked)))
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
            cache_key(&lp, &m, &SchedulerChoice::Ladder),
            cache_key(&lp, &m, &sat_tweaked_ladder)
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
            cache
                .get_or_compile(&b.finish(), &m, &SchedulerChoice::Heuristic)
                .expect("compiles");
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
        let quiet = cache_key(&lp, &m, &SchedulerChoice::Ladder);
        for level in [1, 2] {
            let demoted =
                SchedulerChoice::LadderWith(Box::new(LadderOptions::default().demoted(level)));
            assert_ne!(
                quiet,
                cache_key(&lp, &m, &demoted),
                "demotion level {level} must not alias the full ladder"
            );
        }
        assert_eq!(
            cache_key(
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
        let key = cache_key(&lp, &m, &SchedulerChoice::Heuristic);
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
        cache
            .get_or_compile(&lp, &m, &SchedulerChoice::Heuristic)
            .expect("compiles");
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
                                cache.get_or_compile(&lp, &m, &chaotic)
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
        let chaotic_key = cache_key(&lp, &m, &chaotic);
        assert!(
            !cache
                .slots
                .lock()
                .expect("cache lock stays healthy")
                .contains_key(&chaotic_key),
            "no orphaned Pending entry"
        );
        // The same cache still serves quiet compiles of the same loop.
        let quiet = cache
            .get_or_compile(&lp, &m, &SchedulerChoice::Ladder)
            .expect("quiet ladder compile succeeds");
        assert!(quiet.audit.as_ref().is_some_and(|r| r.is_clean()));
    }
}
