//! The SGI MIPSpro-style heuristic software pipeliner (§2 of the paper).
//!
//! A faithful reimplementation of the production pipeliner the paper
//! validates:
//!
//! - branch-and-bound enumeration of modulo schedules at a fixed II with
//!   the three catch-point pruning rules of §2.4 ([`modsched`]),
//! - legal ranges from SCC longest-path tables, with the pipestage
//!   adjustment postpass of §2.5 ([`postpass`]),
//! - the four priority-list heuristics FDMS/FDNMS/HMS/RHMS of §2.7
//!   ([`priority`]),
//! - two-phase II search — exponential backoff then binary — bounded by
//!   `MaxII = 2·MinII` (§2.3),
//! - register allocation by modulo renaming + Chaitin–Briggs via
//!   [`swp_regalloc`], with exponential spilling on failure (§2.8),
//! - the memory-bank pairing heuristics of §2.9 ([`bankopt`]).
//!
//! It also hosts [`IiSearch`], the MinII-upward II search that the optimal
//! backends (`swp-most`, `swp-sat`) share, with this pipeliner as their
//! fallback.
//!
//! # Examples
//!
//! ```
//! use swp_heur::{pipeline, HeurOptions};
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
//! let p = pipeline(&lp, &m, &HeurOptions::default())?;
//! assert_eq!(p.ii(), 2); // 3 memory references on 2 memory pipes
//! # Ok::<(), swp_heur::PipelineError>(())
//! ```

pub mod bankopt;
mod iisearch;
pub mod modsched;
pub mod postpass;
pub mod priority;
mod restable;
mod search;

pub use iisearch::{Buffers, IiOutcome, IiSearch, OptimalPipelined, SearchError, SearchStats};
pub use modsched::{schedule_at, AttemptStats};
pub use priority::{priority_list, PriorityHeuristic};
pub use restable::{identical_resources, ResTable};
pub use search::{pipeline, HeurOptions, PipelineError, PipelineStats, Pipelined};

#[cfg(test)]
mod tests {
    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Pipelined>();
        assert_send_sync::<crate::HeurOptions>();
    }
}
