//! Loop intermediate representation for the Showdown reproduction.
//!
//! Innermost loops arrive at the software pipeliner as a flat list of
//! operations over virtual registers plus memory accesses with affine
//! addresses (`base + offset + stride * iteration`), exactly the shape the
//! MIPSpro pipeliner sees after the front-end transformations described in
//! §2.1 of the paper. This crate provides:
//!
//! - the [`Loop`] representation and [`LoopBuilder`] construction DSL,
//!   including loop-carried values (recurrences),
//! - conservative memory dependence analysis for affine and indirect
//!   accesses ([`deps`]),
//! - the data dependence graph [`Ddg`] with Tarjan SCCs, MinII
//!   (ResMII/RecMII), and per-II longest-path tables used by both
//!   schedulers,
//! - if-conversion of §2.1(3) via the [`hir`] mini-language,
//! - a dataflow framework over the cyclic IR ([`analysis`]): alias
//!   summaries, iteration-distance-aware reaching definitions,
//!   cross-iteration liveness, recurrence discovery, and value numbering,
//! - a self-validating mid-end pass pipeline ([`opt`]) running constant
//!   folding, algebraic simplification, strength reduction, GVN, dead-op
//!   elimination, and recurrence re-association in front of the
//!   schedulers, each application structurally audited (`SWP-P0xx`) and
//!   optionally translation-validated by differential simulation; its
//!   `gvn` pass is the crate's common subexpression elimination and its
//!   `reassoc` pass its recurrence interleaving,
//! - the §2.8 spiller [`spill::spill_to_memory`], which the heuristic
//!   pipeliner runs when register allocation fails.
//!
//! # Examples
//!
//! Build a SAXPY-like loop and compute its MinII on the R8000:
//!
//! ```
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
//! let ax = b.fmul(a, xv);
//! let s = b.fadd(ax, yv);
//! b.store(y, 0, 8, s);
//! let lp = b.finish();
//! let ddg = swp_ir::Ddg::build(&lp, &m);
//! assert!(ddg.min_ii() >= 2); // 3 memory refs on 2 memory pipes
//! ```

pub mod analysis;
mod builder;
mod ddg;
pub mod deps;
pub mod hir;
pub mod lint;
mod op;
pub mod opt;
mod pretty;
mod schedule;
pub mod spill;

pub use analysis::Analyses;
pub use builder::{Carried, LoopBuilder};
pub use ddg::{Ddg, DepEdge, DepKind, LongestPaths, Scc, SccId};
pub use op::{ArrayId, ArrayInfo, Loop, MemAccess, Op, OpId, Operand, Sem, ValueId, ValueInfo};
pub use opt::{OptFinding, OptLevel, OptOutcome, PassManager};
pub use schedule::{Schedule, ScheduleError};

#[cfg(test)]
mod tests {
    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Loop>();
        assert_send_sync::<crate::Ddg>();
    }
}
