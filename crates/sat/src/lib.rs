//! swp-sat — the third "optimal" backend: a CDCL difference-logic
//! scheduler for the modulo-scheduling problem.
//!
//! Where MOST (`swp-most`) phrases each candidate II as an integer linear
//! program, this crate phrases it as propositional satisfiability over the
//! direct encoding `x[i][t]` and solves it with a small conflict-driven
//! clause-learning solver: watched-literal unit propagation, implicit
//! theory propagators for the at-most-one / dependence / modulo-resource
//! families, 1-UIP conflict analysis with clause learning, VSIDS
//! branching, and Luby restarts. The II ladder around the solver is the
//! one MOST runs too, `swp_heur::IiSearch`: start at MinII, climb to
//! MaxII, accept the first II whose schedule also register-allocates,
//! otherwise fall back to the heuristic pipeliner (when enabled).
//!
//! Crucially the per-II search box is **MOST's horizon** — times in
//! `[0, II·(kmax+1))` with the same `kmax` stage bound — so a SAT/UNSAT
//! verdict here lines up with ILP feasible/infeasible there, and the two
//! backends achieve the same II on every loop both can solve within
//! budget. The differential suite holds them to that.
//!
//! All budgets that matter are deterministic work measures (conflicts,
//! propagations); wall clocks and cooperative cancellation exist for
//! latency control and always confess via `deadline_hit`, which the
//! schedule cache treats as "do not memoize".
//!
//! # Examples
//!
//! ```
//! use swp_sat::{pipeline_sat, SatOptions};
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
//! let r = pipeline_sat(&lp, &m, &SatOptions::default()).expect("schedules");
//! assert!(!r.stats.fell_back);
//! assert!(r.schedule.ii() >= 1);
//! ```

mod compact;
mod encode;
mod solver;

use solver::{SolveBudget, SolveOutcome, Solver};
use std::time::{Duration, Instant};
use swp_heur::{IiOutcome, IiSearch, OptimalPipelined, SearchError, SearchStats};
use swp_ir::{Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_obs::{CancelToken, Counter};

/// Controls for the SAT pipeliner. Like MOST's, the defaults are
/// deterministic: conflict and propagation budgets only, no wall clock,
/// so a default SAT schedule replays bit-identically anywhere.
#[derive(Debug, Clone)]
pub struct SatOptions {
    /// Conflict budget per II solve (deterministic; tests rely on this).
    pub conflict_limit: u64,
    /// Propagation budget per II solve. A satisfiable descent can
    /// propagate enormously without conflicting, so the conflict budget
    /// alone does not bound work.
    pub propagation_limit: u64,
    /// Wall-clock budget per II solve; `None` by default. It mirrors
    /// MOST's field for the paper's 3-minute regime (§3.3).
    pub time_limit: Option<Duration>,
    /// `MaxII = max_ii_factor × MinII`, as for the other pipeliners.
    pub max_ii_factor: u32,
    /// Fall back to the heuristic pipeliner when SAT fails (§4.4's
    /// arrangement, transplanted).
    pub fallback: bool,
    /// Overall wall-clock budget for the whole II ladder on one loop;
    /// `None` by default.
    pub loop_time_limit: Option<Duration>,
    /// Deterministic analogue of [`loop_time_limit`](Self::loop_time_limit):
    /// total conflicts across the whole II ladder. Once spent, no further
    /// II is attempted (the solve in flight still completes, so the
    /// overshoot is at most one `conflict_limit`).
    pub loop_conflict_limit: Option<u64>,
    /// Loops larger than this are not attempted at all — the direct
    /// encoding is `O(n · II · kmax)` variables and beyond MOST's
    /// practical ceiling the solves only burn their budgets.
    pub max_ops: usize,
    /// Cooperative cancellation, polled per conflict (the same granularity
    /// as `time_limit`). A cancelled search reports `deadline_hit` so the
    /// schedule cache never memoizes it. Not part of the cache key.
    pub cancel: CancelToken,
}

impl Default for SatOptions {
    fn default() -> SatOptions {
        SatOptions {
            conflict_limit: 20_000,
            propagation_limit: 2_000_000,
            time_limit: None,
            max_ii_factor: 2,
            fallback: true,
            loop_time_limit: None,
            loop_conflict_limit: Some(60_000),
            max_ops: 64,
            cancel: CancelToken::never(),
        }
    }
}

impl SatOptions {
    /// The same budgets with the internal heuristic fallback disabled.
    /// The degradation ladder runs SAT this way: demotion to the heuristic
    /// is the ladder's job, and keeping the fallback inside SAT would blur
    /// which rung actually produced a schedule.
    pub fn without_fallback(&self) -> SatOptions {
        SatOptions {
            fallback: false,
            ..self.clone()
        }
    }
}

/// Statistics of a SAT run: `search_effort` counts CDCL conflicts and
/// `pivots` unit propagations.
pub type SatStats = SearchStats;

/// A loop pipelined by the SAT backend (or its heuristic fallback).
pub type SatPipelined = OptimalPipelined;

/// Why the SAT backend (and its fallback, if enabled) failed.
pub type SatError = SearchError;

/// Pipeline a loop with the CDCL scheduler over the II search it shares
/// with MOST ([`IiSearch`]).
///
/// # Errors
///
/// [`SearchError::EmptyLoop`] on empty bodies, [`SearchError::NoSchedule`]
/// when nothing (including the fallback) works.
pub fn pipeline_sat(
    lp: &Loop,
    machine: &Machine,
    opts: &SatOptions,
) -> Result<SatPipelined, SatError> {
    let search = IiSearch {
        method: "SAT",
        step_span: "sat.ii_step",
        step_counter: Counter::SatIiSteps,
        fallback_counter: Counter::SatFallbacks,
        max_ii_factor: opts.max_ii_factor,
        fallback: opts.fallback,
        loop_time_limit: opts.loop_time_limit,
        loop_work_limit: opts.loop_conflict_limit,
        work_spent: |s| s.search_effort,
        max_ops: opts.max_ops,
        cancel: &opts.cancel,
    };
    search.run(lp, machine, |ddg, ii, loop_deadline, stats| {
        solve_at_ii(lp, ddg, machine, ii, opts, loop_deadline, stats)
    })
}

/// Encode and solve one II, folding solver work into `stats` and the
/// telemetry counters.
fn solve_at_ii(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    opts: &SatOptions,
    loop_deadline: Option<Instant>,
    stats: &mut SearchStats,
) -> IiOutcome {
    let Some(inst) = encode::build(lp, ddg, machine, ii) else {
        // Positive dependence cycle or an empty longest-path window: a
        // structural UNSAT proof, no search needed.
        return IiOutcome::Infeasible;
    };
    let solve_deadline = opts.time_limit.map(|d| Instant::now() + d);
    let deadline = match (solve_deadline, loop_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let budget = SolveBudget {
        conflict_limit: opts.conflict_limit,
        propagation_limit: opts.propagation_limit,
        deadline,
    };
    let mut solver = Solver::new(&inst);
    let outcome = solver.solve(&budget, &opts.cancel);
    stats.search_effort += solver.stats.conflicts;
    stats.pivots += solver.stats.propagations;
    swp_obs::count(Counter::SatDecisions, solver.stats.decisions);
    swp_obs::count(Counter::SatConflicts, solver.stats.conflicts);
    swp_obs::count(Counter::SatPropagations, solver.stats.propagations);
    swp_obs::count(Counter::SatRestarts, solver.stats.restarts);
    swp_obs::count(Counter::SatLearnedLiterals, solver.stats.learned_literals);
    match outcome {
        SolveOutcome::Sat(mut times) => {
            // The model is an arbitrary feasible point; shrink its def-use
            // spans so the coloring allocator sees MOST-like pressure
            // (see `compact`). Without this, loops MOST only schedules
            // thanks to buffer minimization fail allocation here and the
            // two backends diverge on achieved II.
            compact::compact(&inst, ddg, &mut times);
            IiOutcome::Schedule {
                schedule: Schedule::new(ii, times),
                buffers: None,
            }
        }
        SolveOutcome::Unsat => IiOutcome::Infeasible,
        SolveOutcome::Unknown { deadline_hit } => {
            stats.deadline_hit |= deadline_hit;
            IiOutcome::Unknown
        }
    }
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

    fn dot() -> Loop {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fmadd(xv, yv, s.value());
        b.close(s, s1, 1);
        b.finish()
    }

    #[test]
    fn sat_matches_min_ii_on_saxpy() {
        let m = Machine::r8000();
        let r = pipeline_sat(&saxpy(), &m, &SatOptions::default()).expect("schedules");
        assert_eq!(r.ii(), 2);
        assert!(r.stats.optimal_ii);
        assert!(!r.stats.fell_back);
    }

    #[test]
    fn sat_agrees_with_most_ii() {
        let m = Machine::r8000();
        for lp in [saxpy(), dot()] {
            let sat = pipeline_sat(&lp, &m, &SatOptions::default()).expect("sat");
            let most =
                swp_most::pipeline_most(&lp, &m, &swp_most::MostOptions::default()).expect("most");
            assert_eq!(sat.ii(), most.ii(), "loop {}", lp.name());
            assert!(!sat.stats.fell_back);
        }
    }

    #[test]
    fn below_min_ii_is_proven_unsat() {
        // The recurrence in `dot` forces RecMII; the solver must prove
        // UNSAT (not time out) strictly below MinII.
        let m = Machine::r8000();
        let lp = dot();
        let ddg = Ddg::build(&lp, &m);
        let min_ii = ddg.min_ii();
        assert!(min_ii > 1);
        let mut stats = SatStats::default();
        let opts = SatOptions::default();
        let out = solve_at_ii(&lp, &ddg, &m, min_ii - 1, &opts, None, &mut stats);
        assert!(matches!(out, IiOutcome::Infeasible));
    }

    #[test]
    fn conflict_budget_truncates_deterministically() {
        // A conflict budget is a pure work measure: two runs of the same
        // input must do identical work and never set the wall-clock flag.
        let m = Machine::r8000();
        let opts = SatOptions {
            conflict_limit: 3,
            propagation_limit: 500,
            fallback: false,
            ..SatOptions::default()
        };
        let a = pipeline_sat(&dot(), &m, &opts);
        let b = pipeline_sat(&dot(), &m, &opts);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.stats.pivots, y.stats.pivots);
                assert_eq!(x.stats.search_effort, y.stats.search_effort);
                assert_eq!(x.schedule.times(), y.schedule.times());
                assert!(!x.stats.deadline_hit);
                assert!(!y.stats.deadline_hit);
            }
            (Err(x), Err(y)) => {
                assert_eq!(x, y);
                assert!(matches!(
                    x,
                    SatError::NoSchedule {
                        deadline_hit: false,
                        ..
                    }
                ));
            }
            (a, b) => panic!("runs disagreed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn cancelled_search_reports_deadline() {
        let m = Machine::r8000();
        let token = CancelToken::new();
        token.cancel();
        let opts = SatOptions {
            fallback: false,
            cancel: token,
            ..SatOptions::default()
        };
        match pipeline_sat(&saxpy(), &m, &opts) {
            Err(SatError::NoSchedule { deadline_hit, .. }) => assert!(deadline_hit),
            other => panic!("pre-cancelled search must fail transiently, got {other:?}"),
        }
    }

    #[test]
    fn fallback_engages_when_budget_exhausted() {
        let m = Machine::r8000();
        let opts = SatOptions {
            conflict_limit: 0,
            propagation_limit: 0,
            ..SatOptions::default()
        };
        let r = pipeline_sat(&saxpy(), &m, &opts).expect("fallback rescues");
        assert!(r.stats.fell_back);
        let ddg = Ddg::build(&r.body, &m);
        assert_eq!(r.schedule.validate(&r.body, &ddg, &m), Ok(()));
    }

    #[test]
    fn empty_loop_is_error() {
        let m = Machine::r8000();
        let lp = LoopBuilder::new("e").finish();
        assert!(matches!(
            pipeline_sat(&lp, &m, &SatOptions::default()),
            Err(SatError::EmptyLoop)
        ));
    }
}
