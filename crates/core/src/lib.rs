//! # Software Pipelining Showdown
//!
//! A full reproduction of *"Software Pipelining Showdown: Optimal vs.
//! Heuristic Methods in a Production Compiler"* (Ruttenberg, Gao,
//! Stoutchinin, Lichtenstein — PLDI 1996) as a Rust library:
//!
//! - [`swp_heur`]: the SGI MIPSpro-style heuristic modulo scheduler —
//!   branch-and-bound enumeration with catch-point pruning, four priority
//!   heuristics, two-phase II search, modulo renaming + Chaitin–Briggs
//!   register allocation, exponential spilling, and memory-bank pairing;
//! - [`swp_most`]: the McGill MOST-style "optimal" pipeliner — an
//!   integer-linear-programming formulation solved by the built-in
//!   [`swp_ilp`] simplex/branch-and-bound solver, with the study's three
//!   adjustments and the heuristic pipeliner as fallback;
//! - [`swp_sat`]: a third optimal backend — a CDCL difference-logic
//!   scheduler searching MOST's horizon, raced against the other two by
//!   [`SchedulerChoice::Portfolio`];
//! - [`swp_machine`]/[`swp_sim`]: an R8000-like machine model and a
//!   cycle-accurate simulator including the two-banked cache and its
//!   bellows queue;
//! - [`swp_kernels`]: the 24 Livermore loops and 14 SPEC92fp-like suites.
//!
//! This crate is the front door: [`compile_loop_with`] runs any pipeliner
//! end-to-end, [`compare_with`] produces the paper's side-by-side
//! measurements, and [`run_suite_with`] scores whole benchmark suites.
//! Each takes a [`Driver`], which fans the work across a thread pool and
//! memoizes compiles in a [`ScheduleCache`], with results identical at
//! every thread count; `Driver::uncached(1)` is the plain sequential
//! path.
//!
//! # Examples
//!
//! ```
//! use showdown::{compare_with, Driver, SchedulerChoice};
//! use swp_ir::LoopBuilder;
//! use swp_machine::Machine;
//!
//! let m = Machine::r8000();
//! let mut b = LoopBuilder::new("saxpy");
//! let a = b.invariant_f("a");
//! let x = b.array("x", 8);
//! let y = b.array("y", 8);
//! let xv = b.load(x, 0, 8);
//! let yv = b.load(y, 0, 8);
//! let r = b.fmadd(a, xv, yv);
//! b.store(y, 0, 8, r);
//! let lp = b.finish();
//!
//! let (heur, ilp) = (SchedulerChoice::Heuristic, SchedulerChoice::Ilp);
//! let c = compare_with(&Driver::uncached(1), &lp, &m, &heur, &ilp, 10, 1000)?;
//! // §5.0: "Only very rarely does the optimal technique schedule ... at a
//! // lower II than the heuristics" — never on a loop this simple.
//! assert_eq!(c.heuristic.ii, c.ilp.ii);
//! # Ok::<(), showdown::CompileError>(())
//! ```

mod cache;
pub mod codec;
mod compare;
mod compile;
mod ladder;
mod par;
mod portfolio;
mod stage;
mod suite;

pub use cache::{cache_key_with, CacheStats, ScheduleCache};
pub use compare::{compare_with, LoopComparison, Measured};
pub use compile::{
    compile_baseline, compile_loop, compile_loop_with, CompileError, CompileOptions, CompileStats,
    CompiledLoop, SchedulerChoice,
};
pub use ladder::{
    compile_ladder, hush_injected_panics, render_attempts, ChaosFault, ChaosOptions, Corruption,
    LadderOptions, Rung, RungAttempt, RungOutcome,
};
pub use par::{Driver, JobPanic};
pub use portfolio::{compile_portfolio, PortfolioOptions};
pub use suite::{
    audit_suite_with, geometric_mean, ladder_suite_with, run_suite_baseline_with, run_suite_with,
    LadderLoopReport, LadderSuccess, LoopAudit, SuiteAudit, SuiteLadder, SuiteResult,
};
pub use swp_ir::{OptFinding, OptLevel, OptOutcome, PassManager};
pub use swp_obs::{CancelToken, Counter, CounterSnapshot, Histo, HistogramSnapshot, Telemetry};
pub use swp_verify::{Finding, Severity, VerifyLevel, VerifyReport};

// Re-export the component crates so downstream users need one dependency.
pub use {
    swp_codegen, swp_heur, swp_ilp, swp_ir, swp_kernels, swp_machine, swp_most, swp_obs,
    swp_regalloc, swp_sat, swp_sim, swp_verify,
};

#[cfg(test)]
mod tests {
    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::LoopComparison>();
        assert_send_sync::<crate::SuiteResult>();
        assert_send_sync::<crate::Driver>();
        assert_send_sync::<crate::ScheduleCache>();
    }
}
