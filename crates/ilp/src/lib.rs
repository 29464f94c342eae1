//! A self-contained linear / integer-linear programming solver.
//!
//! The paper's "optimal" pipeliner (MOST, §3) formulates modulo scheduling
//! as an integer linear program and hands it to "one of a number of
//! standard ILP solving packages". This crate is that package: a revised
//! simplex over bounded variables with an explicit basis inverse
//! ([`LpEngine`], one-shot entry point [`solve_lp`]) and a depth-first
//! branch-and-bound wrapper ([`solve_ilp`]) with
//!
//! - **warm-started dual re-solves**: every node shares one engine, and a
//!   child differs from its parent only in a variable bound, so node LPs
//!   re-solve in a few dual pivots from the inherited basis,
//! - incumbent tracking and best-bound pruning, by whole units when the
//!   objective is integral,
//! - deterministic node *and pivot* budgets (wall-clock limits are opt-in
//!   and flagged separately, keeping solver behaviour reproducible),
//! - a caller-supplied **branching priority order** — the hook §3.3(3) of
//!   the paper identifies as "by far the most important factor" for
//!   solving the scheduling ILPs.
//!
//! # Examples
//!
//! A tiny 0/1 knapsack:
//!
//! ```
//! use swp_ilp::{Model, Sense, SolveOptions, Status};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.binary("x");
//! let y = m.binary("y");
//! let z = m.binary("z");
//! m.set_objective([(x, 10.0), (y, 13.0), (z, 7.0)]);
//! m.add_le([(x, 5.0), (y, 7.0), (z, 4.0)], 10.0); // capacity
//! let r = swp_ilp::solve_ilp(&m, &SolveOptions::default());
//! assert_eq!(r.status, Status::Optimal);
//! let best = r.solution.expect("optimal solution");
//! assert!((best.objective - 17.0).abs() < 1e-6); // x + z
//! ```

mod bb;
mod kernel;
mod model;
mod simplex;

pub use bb::{solve_ilp, IlpResult, SolveOptions, Status};
pub use model::{ConstraintOp, Model, Sense, VarId, VarKind};
pub use simplex::{solve_lp, LpEngine, LpOutcome, LpSolution};

#[cfg(test)]
mod tests {
    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Model>();
        assert_send_sync::<crate::IlpResult>();
    }
}
