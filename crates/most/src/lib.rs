//! MOST — the McGill "optimal" ILP-based software pipeliner (§3 of the
//! paper), embedded exactly as the study embedded it in MIPSpro:
//!
//! 1. at each II (starting from MinII), solve the **resource-constrained**
//!    scheduling ILP first (§3.3 adjustment 1 — the integrated
//!    formulation was "just too slow"),
//! 2. re-solve with the **buffer-minimization objective** and accept the
//!    best incumbent when the budget runs out (§3.3 adjustment 2),
//! 3. drive the solver's branch-and-bound with the **same multiple
//!    priority orders** as the SGI scheduler (§3.3 adjustment 3 — "by far
//!    the most important factor"),
//! 4. register-allocate the result with the standard coloring allocator
//!    (the \[NiGa93\] flow: rate-optimal schedule, then coloring), and
//! 5. optionally **fall back to the heuristic pipeliner** when MOST cannot
//!    schedule in time (§4.4's experimental setup).
//!
//! Steps 1–3 are `solve_at_ii`; the II search around it, register
//! allocation and the fallback are `swp_heur::IiSearch`, which `swp-sat`
//! shares.
//!
//! # Examples
//!
//! ```
//! use swp_most::{pipeline_most, MostOptions};
//! use swp_ir::LoopBuilder;
//! use swp_machine::Machine;
//!
//! let m = Machine::r8000();
//! let mut b = LoopBuilder::new("scale");
//! let a = b.invariant_f("a");
//! let x = b.array("x", 8);
//! let v = b.load(x, 0, 8);
//! let w = b.fmul(a, v);
//! b.store(x, 0, 8, w);
//! let lp = b.finish();
//! let r = pipeline_most(&lp, &m, &MostOptions::default()).expect("schedules");
//! assert!(!r.stats.fell_back);
//! assert!(r.schedule.ii() >= 1);
//! ```

mod formulation;

pub use formulation::{build_model, Objective, SchedulingModel};

use swp_heur::{
    priority_list, Buffers, IiOutcome, IiSearch, OptimalPipelined, PriorityHeuristic, SearchError,
    SearchStats,
};
use swp_ilp::{solve_ilp, SolveOptions, Status};
use swp_ir::{Ddg, Loop, OpId, Schedule};
use swp_machine::Machine;
use swp_obs::Counter;

/// Controls for the MOST pipeliner. The defaults are deterministic: node
/// and pivot budgets only, no wall clock, so a default compile gives the
/// same result on any host at any load — which the schedule cache and the
/// compile service's disk store rely on to memoize it.
#[derive(Debug, Clone)]
pub struct MostOptions {
    /// Minimize buffers after establishing feasibility (§3.3 adj. 2);
    /// `false` stops at the first feasible schedule.
    pub minimize_buffers: bool,
    /// Node budget per ILP solve (deterministic; tests rely on this).
    pub node_limit: u64,
    /// Simplex pivot budget per ILP solve. Like `node_limit` this is a
    /// deterministic measure of work — identical inputs truncate at
    /// identical points regardless of host load — but it bounds work at a
    /// much finer grain: a single pathological node LP cannot eat the
    /// whole budget unnoticed.
    pub pivot_limit: u64,
    /// Drive branching with the SGI priority orders (§3.3 adj. 3).
    pub use_priority_orders: bool,
    /// `MaxII = max_ii_factor × MinII`, as for the heuristic pipeliner.
    pub max_ii_factor: u32,
    /// Fall back to the heuristic pipeliner when MOST fails (§4.4).
    pub fallback: bool,
    /// Total simplex pivots across the whole II ladder. Once the ladder
    /// has spent this many pivots, no further II is attempted (the solve
    /// in flight still completes, so the overshoot is at most one
    /// `pivot_limit`). Without it, a loop whose schedules keep failing
    /// register allocation retries every II up to MaxII at full budget —
    /// and the only way to bound that was wall clock, which the
    /// deterministic defaults must not depend on.
    pub loop_pivot_limit: Option<u64>,
    /// Loops larger than this are not attempted by the ILP at all — §5.0
    /// reports MOST's practical ceiling at 61 operations; beyond it the
    /// solves only burn their full budgets before failing.
    pub max_ops: usize,
    /// Cooperative cancellation, polled per simplex pivot batch, per
    /// branch-and-bound node and before each II. A token with a deadline
    /// is the search's wall-clock budget, one for the whole loop (the
    /// paper's regime was a 3-minute limit per search, §3.3), as the
    /// compile service sets for a request's `deadline_ms`; the default
    /// token never fires. A cancelled search reports `deadline_hit` so
    /// the schedule cache never memoizes it. Not part of the cache key.
    /// The heuristic fallback keeps the token's flag but not its
    /// deadline.
    pub cancel: swp_obs::CancelToken,
}

impl Default for MostOptions {
    fn default() -> MostOptions {
        MostOptions {
            minimize_buffers: true,
            node_limit: 20_000,
            pivot_limit: 400_000,
            use_priority_orders: true,
            max_ii_factor: 2,
            fallback: true,
            // About three full solves' worth of pivots across all IIs
            // tried for one loop, so a loop whose schedules keep failing
            // allocation cannot grind through every II to MaxII at full
            // budget.
            loop_pivot_limit: Some(1_200_000),
            max_ops: 64,
            cancel: swp_obs::CancelToken::never(),
        }
    }
}

impl MostOptions {
    /// The same budgets with the internal heuristic fallback disabled.
    /// The degradation ladder runs MOST this way: demotion to the
    /// heuristic is the ladder's job, and keeping the fallback inside
    /// MOST would blur which rung actually produced a schedule.
    pub fn without_fallback(&self) -> MostOptions {
        MostOptions {
            fallback: false,
            ..self.clone()
        }
    }
}

/// Statistics of a MOST run: `search_effort` counts branch-and-bound
/// nodes and `pivots` simplex pivots.
pub type MostStats = SearchStats;

/// A loop pipelined by MOST (or its heuristic fallback).
pub type MostPipelined = OptimalPipelined;

/// Why MOST (and its fallback, if enabled) failed.
pub type MostError = SearchError;

/// Pipeline a loop with the ILP method, §3-style, over the shared II
/// search ([`IiSearch`]).
///
/// # Errors
///
/// [`SearchError::EmptyLoop`] on empty bodies, [`SearchError::NoSchedule`]
/// when nothing (including the fallback) works.
pub fn pipeline_most(
    lp: &Loop,
    machine: &Machine,
    opts: &MostOptions,
) -> Result<MostPipelined, MostError> {
    let search = IiSearch {
        method: "MOST",
        step_span: "most.ii_step",
        step_counter: Counter::MostIiSteps,
        fallback_counter: Counter::MostFallbacks,
        max_ii_factor: opts.max_ii_factor,
        fallback: opts.fallback,
        loop_work_limit: opts.loop_pivot_limit,
        work_spent: |s| s.pivots,
        max_ops: opts.max_ops,
        cancel: &opts.cancel,
    };
    let mut orders = None;
    search.run(lp, machine, |ddg, ii, stats| {
        let orders = orders.get_or_insert_with(|| branch_orders(lp, ddg, machine, opts));
        solve_at_ii(lp, ddg, machine, ii, opts, orders, stats)
    })
}

/// The op orders that drive branching: the SGI priority lists (§3.3
/// adj. 3), or program order when they are off.
fn branch_orders(lp: &Loop, ddg: &Ddg, machine: &Machine, opts: &MostOptions) -> Vec<Vec<OpId>> {
    if opts.use_priority_orders {
        PriorityHeuristic::ALL
            .iter()
            .map(|&h| priority_list(lp, ddg, machine, h))
            .collect()
    } else {
        vec![lp.ops().iter().map(|o| o.id).collect()]
    }
}

/// MOST's per-II step: the feasibility model, then (when
/// `minimize_buffers`) the buffer model, each tried over `orders` until
/// one solve succeeds. Folds the solver work into `stats`.
///
/// MOST has no proof of infeasibility the II search can rely on, so every
/// II without a schedule is [`IiOutcome::Unknown`]; a certificate then
/// needs a schedule at MinII.
fn solve_at_ii(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    opts: &MostOptions,
    orders: &[Vec<OpId>],
    stats: &mut SearchStats,
) -> IiOutcome {
    let mut solve = |model: &SchedulingModel, order: &[OpId], base: SolveOptions| {
        let r = solve_ilp(
            &model.model,
            &SolveOptions {
                node_limit: opts.node_limit,
                pivot_limit: opts.pivot_limit,
                branch_order: Some(model.branch_order(order)),
                // Fixing the LP-preferred a[i][t] to 1 first turns the DFS
                // dive into a priority-guided list scheduler (see
                // SolveOptions docs).
                branch_groups: Some(model.branch_groups(order)),
                branch_up_first: true,
                cancel: opts.cancel.clone(),
                ..base
            },
        );
        stats.search_effort += r.nodes;
        stats.pivots += r.pivots;
        stats.deadline_hit |= r.deadline_hit;
        r
    };
    // Adjustment 1: resource-constrained feasibility as a filter.
    let feas_model = build_model(lp, ddg, machine, ii, Objective::Feasibility);
    let mut feasible: Option<Vec<f64>> = None;
    for order in orders {
        let stop_at_first = SolveOptions {
            stop_at_first: true,
            ..SolveOptions::default()
        };
        let r = solve(&feas_model, order, stop_at_first);
        match r.status {
            Status::Optimal | Status::Feasible => {
                feasible = Some(r.solution.expect("status implies solution").values);
                break;
            }
            // Infeasible in this model: no other order will change that.
            Status::Infeasible => return IiOutcome::Unknown,
            Status::Unknown => continue, // try the next priority order
        }
    }
    let Some(feas_values) = feasible else {
        return IiOutcome::Unknown;
    };
    let accept = |model: &SchedulingModel, values: &[f64], buffers| IiOutcome::Schedule {
        schedule: Schedule::new(ii, model.extract_times(values)),
        buffers,
    };
    if !opts.minimize_buffers {
        return accept(&feas_model, &feas_values, None);
    }

    // Adjustment 2: buffer minimization, accepting the best incumbent.
    let buf_model = build_model(lp, ddg, machine, ii, Objective::MinBuffers);
    // A proven floor ends the search at an incumbent that meets it. The
    // search itself still runs on the untightened model, and it only
    // ever replaces an incumbent with a strictly better one, so stopping
    // there returns the schedule the full budget would have returned.
    let floor = {
        let _span = swp_obs::span("most.floor");
        buf_model.buffer_floor(lp, ddg)
    };
    for order in orders {
        // Seed the search with the feasibility schedule (extended by its
        // implied buffer counts — the two models share the
        // schedule-variable prefix): the solve starts with an incumbent
        // and an armed cutoff, while branching stays LP-guided. Steering
        // the dive toward this solution instead would anchor a truncated
        // search at the feasibility dive's sprawled leaf, which is usually
        // far worse than where the buffer relaxation points.
        let warm = SolveOptions {
            warm_start: Some(buf_model.warm_start_from(lp, &feas_values)),
            objective_floor: floor.map(f64::from),
            ..SolveOptions::default()
        };
        let r = solve(&buf_model, order, warm);
        if let Some(sol) = r.solution {
            let buffers = buf_model.total_buffers(&sol.values).map(|total| Buffers {
                total,
                floor,
                optimal: r.status == Status::Optimal,
            });
            return accept(&buf_model, &sol.values, buffers);
        }
        if r.status == Status::Infeasible {
            break; // cannot happen if feasibility held; defensive
        }
    }
    // Accept the feasibility schedule (the paper's "if any").
    accept(&feas_model, &feas_values, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ir::LoopBuilder;

    fn saxpy() -> Loop {
        let mut b = LoopBuilder::new("saxpy");
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
    fn most_matches_min_ii_on_saxpy() {
        let m = Machine::r8000();
        let r = pipeline_most(&saxpy(), &m, &MostOptions::default()).expect("schedules");
        assert_eq!(r.ii(), 2);
        assert!(r.stats.optimal_ii);
        assert!(!r.stats.fell_back);
    }

    #[test]
    fn most_agrees_with_heuristic_ii() {
        // The paper's headline: the optimal technique only very rarely
        // beats the heuristic II. They must agree on these loops.
        let m = Machine::r8000();
        let mk_loops: Vec<Loop> = vec![saxpy(), {
            let mut b = LoopBuilder::new("dot");
            let x = b.array("x", 8);
            let y = b.array("y", 8);
            let xv = b.load(x, 0, 8);
            let yv = b.load(y, 0, 8);
            let s = b.carried_f("s");
            let s1 = b.fmadd(xv, yv, s.value());
            b.close(s, s1, 1);
            b.finish()
        }];
        for lp in mk_loops {
            let most = pipeline_most(&lp, &m, &MostOptions::default()).expect("most");
            let heur =
                swp_heur::pipeline(&lp, &m, &swp_heur::HeurOptions::default()).expect("heur");
            assert_eq!(most.ii(), heur.ii(), "loop {}", lp.name());
        }
    }

    #[test]
    fn no_fallback_and_tiny_budget_reports_failure_or_succeeds() {
        let m = Machine::r8000();
        let opts = MostOptions {
            node_limit: 1,
            fallback: false,
            ..MostOptions::default()
        };
        // With a 1-node budget per solve the search is truncated; the
        // result must be an explicit error, never a bogus schedule.
        match pipeline_most(&saxpy(), &m, &opts) {
            Ok(r) => {
                let ddg = Ddg::build(&r.body, &m);
                assert_eq!(r.schedule.validate(&r.body, &ddg, &m), Ok(()));
            }
            Err(MostError::NoSchedule { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn fallback_engages_when_budget_exhausted() {
        let m = Machine::r8000();
        let opts = MostOptions {
            node_limit: 1,
            ..MostOptions::default()
        };
        let r = pipeline_most(&saxpy(), &m, &opts).expect("fallback rescues");
        assert!(r.stats.fell_back);
        let ddg = Ddg::build(&r.body, &m);
        assert_eq!(r.schedule.validate(&r.body, &ddg, &m), Ok(()));
    }

    #[test]
    fn pivot_budget_truncates_deterministically() {
        // A pivot budget is a pure work measure: two runs of the same
        // input must do identical work and never set the wall-clock flag.
        let m = Machine::r8000();
        let opts = MostOptions {
            pivot_limit: 40,
            fallback: false,
            ..MostOptions::default()
        };
        let a = pipeline_most(&saxpy(), &m, &opts);
        let b = pipeline_most(&saxpy(), &m, &opts);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.stats.pivots, y.stats.pivots);
                assert_eq!(x.stats.search_effort, y.stats.search_effort);
                assert!(!x.stats.deadline_hit);
                assert!(!y.stats.deadline_hit);
            }
            (Err(x), Err(y)) => {
                assert_eq!(x, y);
                assert!(matches!(
                    x,
                    MostError::NoSchedule {
                        deadline_hit: false,
                        ..
                    }
                ));
            }
            (a, b) => panic!("runs disagreed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn empty_loop_is_error() {
        let m = Machine::r8000();
        let lp = LoopBuilder::new("e").finish();
        assert!(matches!(
            pipeline_most(&lp, &m, &MostOptions::default()),
            Err(MostError::EmptyLoop)
        ));
    }

    #[test]
    fn buffer_minimization_does_not_worsen_ii() {
        let m = Machine::r8000();
        let with = pipeline_most(&saxpy(), &m, &MostOptions::default()).expect("with");
        let without = pipeline_most(
            &saxpy(),
            &m,
            &MostOptions {
                minimize_buffers: false,
                ..MostOptions::default()
            },
        )
        .expect("without");
        assert_eq!(with.ii(), without.ii());
        assert!(with.stats.buffers.is_some());
    }
}
