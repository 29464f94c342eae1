//! The II search the optimal backends share (§4.4's experimental setup):
//! try each II from MinII up to MaxII, accept the first schedule that also
//! register-allocates, and otherwise fall back to this crate's heuristic
//! pipeliner.
//!
//! A backend ([`IiSearch`]) supplies only what differs: its per-II solve,
//! its loop work budget, and its telemetry names. The driver owns the
//! rest: the stop rules (the cancel token, whose deadline is the loop's
//! wall-clock budget, and the loop work budget), the per-II span and
//! step counter, the retry at the next II after an allocation failure,
//! the rate-optimality certificate, the `max_ops` shortcut, and the
//! fallback.

use crate::search::{pipeline, HeurOptions};
use swp_ir::{Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_obs::{CancelToken, Counter};
use swp_regalloc::{allocate, AllocOutcome, Allocation};

/// What one per-II solve concluded.
#[derive(Debug, Clone)]
pub enum IiOutcome {
    /// A schedule valid at this II.
    Schedule {
        /// The schedule.
        schedule: Schedule,
        /// Its FIFO buffers, when the backend minimized them.
        buffers: Option<Buffers>,
    },
    /// Proven: no schedule exists at this II.
    Infeasible,
    /// Neither: the budget ran out first, or the backend cannot prove
    /// infeasibility.
    Unknown,
}

/// The FIFO buffers of a schedule from a buffer-minimizing backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffers {
    /// Total FIFO buffers.
    pub total: u32,
    /// A proven lower bound on the total at this II, when one was found.
    pub floor: Option<u32>,
    /// Whether the search proved `total` minimal at this II, by meeting
    /// `floor` or by running to completion.
    pub optimal: bool,
}

/// Statistics of an II search (and of its fallback, when it ran).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// MinII of the input loop.
    pub min_ii: u32,
    /// Branch-and-bound nodes (MOST) or CDCL conflicts (SAT) across all
    /// solves: the coarse deterministic work measure.
    pub search_effort: u64,
    /// Simplex pivots (MOST) or unit propagations (SAT) across all
    /// solves: the fine-grained deterministic work measure.
    pub pivots: u64,
    /// Whether a wall-clock deadline or cancellation truncated the
    /// search. Such a result depends on host load; the schedule cache
    /// refuses to memoize it.
    pub deadline_hit: bool,
    /// Whether every II below the achieved one was proven infeasible: a
    /// rate-optimality certificate.
    pub optimal_ii: bool,
    /// FIFO buffers of the accepted schedule, when minimized.
    pub buffers: Option<Buffers>,
    /// Whether the heuristic fallback produced the result.
    pub fell_back: bool,
    /// IIs probed.
    pub iis_tried: Vec<u32>,
    /// Nanoseconds spent in register allocation, the fallback's included.
    pub alloc_ns: u64,
}

/// A loop pipelined by an II search (or its heuristic fallback).
#[derive(Debug, Clone)]
pub struct OptimalPipelined {
    /// The scheduled body (identical to the input unless the fallback
    /// spilled).
    pub body: Loop,
    /// The accepted schedule.
    pub schedule: Schedule,
    /// A valid register allocation.
    pub allocation: Allocation,
    /// Run statistics.
    pub stats: SearchStats,
}

impl OptimalPipelined {
    /// The achieved II.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }
}

/// Why an II search (and its fallback, if enabled) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The loop body is empty.
    EmptyLoop,
    /// No schedule found up to MaxII and the fallback was disabled or
    /// failed too.
    NoSchedule {
        /// The backend that searched ("MOST", "SAT").
        method: &'static str,
        /// MinII bound.
        min_ii: u32,
        /// MaxII bound.
        max_ii: u32,
        /// Whether a wall-clock deadline or cancellation truncated the
        /// search. When set, the failure is host-load-dependent (retrying
        /// may succeed); the schedule cache never memoizes it.
        deadline_hit: bool,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::EmptyLoop => write!(f, "cannot pipeline an empty loop"),
            SearchError::NoSchedule {
                method,
                min_ii,
                max_ii,
                deadline_hit,
            } => {
                write!(
                    f,
                    "{method} found no schedule in II range [{min_ii}, {max_ii}]"
                )?;
                if *deadline_hit {
                    write!(f, " (wall-clock deadline hit; result is host-dependent)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// The last pipeline stage the optimal backends search at `ii`:
/// `⌊Σ latency / II⌋ + 2`, enough for any schedule worth having. MOST
/// bounds its stage variables by it and SAT sizes its time windows from
/// it, so the two search the same horizon and their per-II verdicts
/// coincide. Marked `#[inline]`: without it the benchmark's ladder-suites
/// workload measured about 5 % slower than with the backends' former
/// private copies, and with it on par.
#[inline]
pub fn max_stage(lp: &Loop, machine: &Machine, ii: u32) -> i64 {
    let total_latency: i64 = lp
        .ops()
        .iter()
        .map(|o| i64::from(machine.latency(o.class)))
        .sum();
    total_latency / i64::from(ii) + 2
}

/// One backend's names and limits for [`IiSearch::run`].
pub struct IiSearch<'a> {
    /// The backend's name in errors ("MOST", "SAT").
    pub method: &'static str,
    /// The span around each per-II solve.
    pub step_span: &'static str,
    /// Counted once per II probed.
    pub step_counter: Counter,
    /// Counted once per successful fallback.
    pub fallback_counter: Counter,
    /// `MaxII = max_ii_factor × MinII`.
    pub max_ii_factor: u32,
    /// Fall back to the heuristic pipeliner when the search fails.
    pub fallback: bool,
    /// Work budget for the whole search, measured by `work_spent`. Once
    /// spent, no further II is attempted.
    pub loop_work_limit: Option<u64>,
    /// The work `loop_work_limit` bounds.
    pub work_spent: fn(&SearchStats) -> u64,
    /// Loops larger than this go straight to the fallback.
    pub max_ops: usize,
    /// Cooperative cancellation, polled before each II; its deadline, if
    /// any, is the whole search's wall-clock budget. The fallback keeps
    /// the token's flag but not its deadline.
    pub cancel: &'a CancelToken,
}

impl IiSearch<'_> {
    /// Search `lp` with the per-II solve `solve(ddg, ii, stats)`, which
    /// folds its work into `stats`.
    ///
    /// # Errors
    ///
    /// [`SearchError::EmptyLoop`] on empty bodies,
    /// [`SearchError::NoSchedule`] when nothing (the fallback included)
    /// works.
    pub fn run(
        &self,
        lp: &Loop,
        machine: &Machine,
        mut solve: impl FnMut(&Ddg, u32, &mut SearchStats) -> IiOutcome,
    ) -> Result<OptimalPipelined, SearchError> {
        if lp.is_empty() {
            return Err(SearchError::EmptyLoop);
        }
        let ddg = Ddg::build(lp, machine);
        let min_ii = ddg.min_ii();
        let max_ii = (min_ii * self.max_ii_factor.max(1)).max(min_ii + 1);
        let mut stats = SearchStats {
            min_ii,
            ..SearchStats::default()
        };
        // Stays true while every II passed over was proven infeasible: not
        // a budget timeout, not a register-allocation failure.
        let mut proven_below = true;
        // A loop over `max_ops` skips the search for the fallback.
        let too_large = lp.len() > self.max_ops;
        for ii in (min_ii..=max_ii).filter(|_| !too_large) {
            if self.cancel.is_cancelled() {
                stats.deadline_hit = true;
                break;
            }
            if self
                .loop_work_limit
                .is_some_and(|l| (self.work_spent)(&stats) >= l)
            {
                break;
            }
            stats.iis_tried.push(ii);
            swp_obs::count(self.step_counter, 1);
            let step_span = swp_obs::span(self.step_span).with_i("ii", i64::from(ii));
            let outcome = solve(&ddg, ii, &mut stats);
            drop(step_span);
            match outcome {
                IiOutcome::Schedule { schedule, buffers } => {
                    debug_assert_eq!(schedule.validate(lp, &ddg, machine), Ok(()));
                    let (alloc, alloc_ns) =
                        swp_obs::timed_ns("regalloc.attempt", || allocate(lp, &schedule, machine));
                    stats.alloc_ns = stats.alloc_ns.saturating_add(alloc_ns);
                    if let AllocOutcome::Allocated(allocation) = alloc {
                        stats.optimal_ii = proven_below;
                        stats.buffers = buffers;
                        return Ok(OptimalPipelined {
                            body: lp.clone(),
                            schedule,
                            allocation,
                            stats,
                        });
                    }
                    // No spilling here: a larger II gives the allocator
                    // more slack. The II passed over was schedulable, so
                    // the certificate is forfeit.
                    proven_below = false;
                }
                IiOutcome::Infeasible => {}
                IiOutcome::Unknown => proven_below = false,
            }
        }
        if self.fallback {
            // The heuristic has no wall clock: a deadline that stopped the
            // search must not also stop its rescue, a cancel must.
            let heur_opts = HeurOptions {
                cancel: self.cancel.without_deadline(),
                ..HeurOptions::default()
            };
            if let Ok(h) = pipeline(lp, machine, &heur_opts) {
                swp_obs::count(self.fallback_counter, 1);
                stats.fell_back = true;
                stats.alloc_ns = stats.alloc_ns.saturating_add(h.stats.alloc_ns);
                return Ok(OptimalPipelined {
                    body: h.body,
                    schedule: h.schedule,
                    allocation: h.allocation,
                    stats,
                });
            }
        }
        Err(SearchError::NoSchedule {
            method: self.method,
            min_ii,
            max_ii,
            deadline_hit: stats.deadline_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modsched::{schedule_at, AttemptStats};
    use std::time::Instant;
    use swp_ir::LoopBuilder;

    /// `y[i] = a · x[i]`: no recurrence, so delaying the consumers keeps
    /// every dependence.
    fn scale() -> Loop {
        let mut b = LoopBuilder::new("scale");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(a, v);
        b.store(y, 0, 8, w);
        b.finish()
    }

    /// A valid schedule at `ii` with every op after the load delayed by
    /// `stretch` whole IIs: the same modulo rows, but the loaded value
    /// lives `stretch` iterations longer.
    fn scheduled(ii: u32, stretch: i64) -> IiOutcome {
        let (lp, m) = (scale(), Machine::r8000());
        let ddg = Ddg::build(&lp, &m);
        let order: Vec<_> = lp.ops().iter().map(|o| o.id).collect();
        let cancel = CancelToken::never();
        let mut times = schedule_at(
            &lp,
            &ddg,
            &m,
            ii,
            &order,
            100,
            None,
            &cancel,
            &mut AttemptStats::default(),
        )
        .expect("scale schedules at every II");
        for t in &mut times[1..] {
            *t += stretch * i64::from(ii);
        }
        IiOutcome::Schedule {
            schedule: Schedule::new(ii, times),
            buffers: None,
        }
    }

    fn search(cancel: &CancelToken) -> IiSearch<'_> {
        IiSearch {
            method: "TEST",
            step_span: "test.ii_step",
            step_counter: Counter::MostIiSteps,
            fallback_counter: Counter::MostFallbacks,
            max_ii_factor: 3,
            fallback: false,
            loop_work_limit: None,
            work_spent: |s| s.pivots,
            max_ops: 100,
            cancel,
        }
    }

    /// Run `search` over `scale()` with a scripted per-II solve that costs
    /// 10 pivots per call; returns the result and the IIs solved.
    fn run(
        search: &IiSearch<'_>,
        script: impl Fn(u32) -> IiOutcome,
    ) -> (Result<OptimalPipelined, SearchError>, Vec<u32>) {
        let mut solved = Vec::new();
        let r = search.run(&scale(), &Machine::r8000(), |_, ii, stats| {
            solved.push(ii);
            stats.pivots += 10;
            script(ii)
        });
        (r, solved)
    }

    #[test]
    fn loop_work_budget_stops_before_the_next_ii() {
        let cancel = CancelToken::never();
        let s = IiSearch {
            loop_work_limit: Some(15),
            ..search(&cancel)
        };
        let (r, solved) = run(&s, |_| IiOutcome::Unknown);
        assert_eq!(
            solved,
            [1, 2],
            "10 pivots < 15 allow a second II, 20 do not"
        );
        assert!(matches!(
            r,
            Err(SearchError::NoSchedule {
                min_ii: 1,
                max_ii: 3,
                deadline_hit: false,
                ..
            })
        ));
    }

    #[test]
    fn cancel_and_the_token_deadline_set_deadline_hit() {
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let expired = CancelToken::with_deadline(Instant::now());
        for (name, token) in [("cancel", &cancelled), ("deadline", &expired)] {
            let (r, solved) = run(&search(token), |ii| scheduled(ii, 0));
            assert!(solved.is_empty(), "{name}: no II may start");
            assert!(
                matches!(
                    r,
                    Err(SearchError::NoSchedule {
                        deadline_hit: true,
                        ..
                    })
                ),
                "{name}: {r:?}"
            );
        }
    }

    #[test]
    fn the_fallback_outlives_the_deadline_but_not_a_cancel() {
        let expired = CancelToken::with_deadline(Instant::now());
        let s = IiSearch {
            fallback: true,
            ..search(&expired)
        };
        let (r, solved) = run(&s, |ii| scheduled(ii, 0));
        let p = r.expect("the heuristic has no wall clock");
        assert!(solved.is_empty());
        assert!(p.stats.fell_back && p.stats.deadline_hit);
        let cancelled = CancelToken::with_deadline(Instant::now());
        cancelled.cancel();
        let s = IiSearch {
            fallback: true,
            ..search(&cancelled)
        };
        let (r, _) = run(&s, |ii| scheduled(ii, 0));
        assert!(
            matches!(
                r,
                Err(SearchError::NoSchedule {
                    deadline_hit: true,
                    ..
                })
            ),
            "a cancel stops the fallback too: {r:?}"
        );
    }

    #[test]
    fn certificate_needs_a_proof_at_every_lower_ii() {
        // What the solve reports at MinII = 1 (every higher II schedules),
        // the II achieved, and whether it is certified optimal.
        let cases = [
            ("schedule", scheduled(1, 0), 1, true),
            ("proven infeasible", IiOutcome::Infeasible, 2, true),
            ("unknown", IiOutcome::Unknown, 2, false),
            ("allocation failure", scheduled(1, 200), 2, false),
        ];
        let cancel = CancelToken::never();
        for (name, at_min_ii, ii, certified) in cases {
            let (r, solved) = run(&search(&cancel), |i| match i {
                1 => at_min_ii.clone(),
                _ => scheduled(i, 0),
            });
            let p = r.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.ii(), ii, "{name}");
            assert_eq!(solved, (1..=ii).collect::<Vec<_>>(), "{name}");
            assert_eq!(p.stats.optimal_ii, certified, "{name}");
        }
    }

    #[test]
    fn fallback_keeps_the_search_stats() {
        let cancel = CancelToken::never();
        let s = IiSearch {
            fallback: true,
            ..search(&cancel)
        };
        let (r, solved) = run(&s, |_| IiOutcome::Unknown);
        let p = r.expect("the heuristic rescues");
        assert_eq!(solved, [1, 2, 3]);
        assert!(p.stats.fell_back);
        assert!(!p.stats.optimal_ii);
        assert_eq!(p.stats.min_ii, 1);
        assert_eq!(p.stats.pivots, 30);
        assert_eq!(p.stats.iis_tried, [1, 2, 3]);
    }

    #[test]
    fn loops_over_max_ops_fall_back_with_their_min_ii() {
        let cancel = CancelToken::never();
        let s = IiSearch {
            fallback: true,
            max_ops: 1,
            ..search(&cancel)
        };
        let (r, solved) = run(&s, |ii| scheduled(ii, 0));
        let p = r.expect("the heuristic rescues");
        assert!(solved.is_empty());
        assert!(p.stats.fell_back);
        assert_eq!(p.stats.min_ii, 1);
    }
}
