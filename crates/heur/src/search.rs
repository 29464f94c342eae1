//! The II search driver (§2.3), heuristic cascade (§2.7), register
//! allocation coupling, and exponential spilling (§2.8).

use crate::bankopt::{stall_score, PairingContext};
use crate::modsched::{schedule_at, AttemptStats};
use crate::postpass::adjust_pipestages;
use crate::priority::{priority_list, PriorityHeuristic};
use swp_ir::{spill::spill_to_memory, Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_regalloc::{allocate, AllocOutcome, Allocation};

/// Controls for the heuristic pipeliner. `Default` reproduces the paper's
/// production configuration.
#[derive(Debug, Clone)]
pub struct HeurOptions {
    /// Priority heuristics to try, in order (§2.7; default all four).
    pub heuristics: Vec<PriorityHeuristic>,
    /// Backtrack budget per scheduling attempt. §5.0 notes that "a very
    /// modest increase in the backtracking limits" equalized the single
    /// loop where ILP won; experiments sweep this.
    pub backtrack_budget: u32,
    /// Enable the §2.9 memory-bank pairing heuristics.
    pub bank_pairing: bool,
    /// `MaxII = max_ii_factor × MinII` (§2.3's compile-speed circuit
    /// breaker; the paper uses 2).
    pub max_ii_factor: u32,
    /// Enable exponential spilling on register-allocation failure (§2.8).
    pub enable_spilling: bool,
    /// Use the two-phase (exponential backoff + binary) II search; `false`
    /// falls back to plain binary search (§2.3 ablation).
    pub two_phase_search: bool,
    /// Explore same-II schedules from the other heuristics for lower
    /// predicted memory stalls (§2.9, last paragraph).
    pub explore_stalls: bool,
    /// Cooperative cancellation, polled once per placement/backtrack step
    /// (the heuristic's analogue of the ILP backend's per-pivot deadline
    /// poll). The default token is inert. Like wall-clock budgets — and
    /// unlike every other field — the token is *not* part of the schedule
    /// cache key: a cancelled search reports [`PipelineError::Cancelled`],
    /// which the cache treats as transient and never memoizes.
    pub cancel: swp_obs::CancelToken,
}

impl Default for HeurOptions {
    fn default() -> HeurOptions {
        HeurOptions {
            heuristics: PriorityHeuristic::ALL.to_vec(),
            backtrack_budget: 400,
            bank_pairing: true,
            max_ii_factor: 2,
            enable_spilling: true,
            two_phase_search: true,
            explore_stalls: true,
            cancel: swp_obs::CancelToken::never(),
        }
    }
}

impl HeurOptions {
    /// The degradation ladder's rung-2 configuration at escalation `round`
    /// (1-based): the backtrack budget quadruples per round and the MaxII
    /// circuit breaker widens by one MinII multiple per round, trading
    /// schedule quality for schedulability. Both escalations are pure work
    /// measures, so an escalated search reproduces exactly on any host.
    pub fn escalated(&self, round: u32) -> HeurOptions {
        let shift = (2 * round).min(20);
        HeurOptions {
            backtrack_budget: self.backtrack_budget.max(1).saturating_mul(1 << shift),
            max_ii_factor: self.max_ii_factor.saturating_add(round),
            ..self.clone()
        }
    }
}

/// Aggregate statistics of a pipelining run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    /// MinII of the (final, possibly spilled) loop.
    pub min_ii: u32,
    /// Scheduling attempts (heuristic × II combinations).
    pub attempts: u32,
    /// Total backtracks across attempts.
    pub backtracks: u32,
    /// Total placements across attempts.
    pub placements: u64,
    /// Values spilled to memory.
    pub spills: u32,
    /// Spill rounds taken.
    pub spill_rounds: u32,
    /// Same-cycle bank pairs in the accepted schedule's attempt.
    pub pairs_formed: u32,
    /// IIs probed during the search.
    pub iis_tried: Vec<u32>,
    /// Nanoseconds spent in register allocation, across every attempt.
    pub alloc_ns: u64,
}

/// A successfully software-pipelined loop.
#[derive(Debug, Clone)]
pub struct Pipelined {
    /// The loop actually scheduled (differs from the input when spill code
    /// was added).
    pub body: Loop,
    /// The accepted modulo schedule.
    pub schedule: Schedule,
    /// A valid register allocation for that schedule.
    pub allocation: Allocation,
    /// Which priority heuristic produced the winner.
    pub heuristic: PriorityHeuristic,
    /// Search statistics.
    pub stats: PipelineStats,
}

impl Pipelined {
    /// The achieved II.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }
}

/// Why pipelining failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The loop body is empty.
    EmptyLoop,
    /// No schedule + allocation was found up to MaxII (after any spilling).
    NoSchedule {
        /// The final MinII bound.
        min_ii: u32,
        /// The final MaxII bound.
        max_ii: u32,
    },
    /// The search was cancelled cooperatively (a losing portfolio racer).
    /// Whether cancellation lands before a schedule is found depends on
    /// wall clock, so this outcome is host-dependent and the schedule
    /// cache never memoizes it.
    Cancelled,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyLoop => write!(f, "cannot pipeline an empty loop"),
            PipelineError::NoSchedule { min_ii, max_ii } => {
                write!(f, "no schedule found in II range [{min_ii}, {max_ii}]")
            }
            PipelineError::Cancelled => {
                write!(f, "search cancelled (losing portfolio racer)")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// One fully-validated candidate at a given II.
struct Candidate {
    schedule: Schedule,
    allocation: Allocation,
    heuristic: PriorityHeuristic,
    stats: AttemptStats,
    stall: f64,
}

enum AttemptOutcome {
    Success(Box<Candidate>),
    AllocFailed(Vec<swp_regalloc::SpillCandidate>),
    SchedFailed,
}

/// Software-pipeline a loop with the SGI-style heuristic pipeliner.
///
/// # Errors
///
/// [`PipelineError::EmptyLoop`] for empty bodies;
/// [`PipelineError::NoSchedule`] when the II search (including spill
/// retries) exhausts `MaxII`.
pub fn pipeline(
    lp: &Loop,
    machine: &Machine,
    opts: &HeurOptions,
) -> Result<Pipelined, PipelineError> {
    if lp.is_empty() {
        return Err(PipelineError::EmptyLoop);
    }
    let mut body = lp.clone();
    let mut stats = PipelineStats::default();
    let mut spill_round = 0u32;

    loop {
        let ddg = Ddg::build(&body, machine);
        let min_ii = ddg.min_ii();
        let max_ii = (min_ii * opts.max_ii_factor.max(1)).max(min_ii + 1);
        stats.min_ii = min_ii;

        let two_phase = opts.two_phase_search && spill_round == 0;
        let found = search_iis(
            &body, &ddg, machine, opts, min_ii, max_ii, two_phase, &mut stats,
        );

        match found {
            Ok(c) => {
                stats.pairs_formed = c.stats.pairs_formed;
                flush_stats(&stats);
                return Ok(Pipelined {
                    body,
                    schedule: c.schedule,
                    allocation: c.allocation,
                    heuristic: c.heuristic,
                    stats,
                });
            }
            Err(alloc_candidates) => {
                if opts.cancel.is_cancelled() {
                    flush_stats(&stats);
                    return Err(PipelineError::Cancelled);
                }
                let can_spill = opts.enable_spilling
                    && spill_round < 8
                    && alloc_candidates.as_ref().is_some_and(|c| !c.is_empty());
                match (can_spill, alloc_candidates) {
                    (true, Some(candidates)) => {
                        let n = 1usize << spill_round;
                        let chosen: Vec<_> = candidates.iter().take(n).map(|c| c.value).collect();
                        stats.spills += chosen.len() as u32;
                        stats.spill_rounds += 1;
                        spill_round += 1;
                        body = spill_to_memory(&body, &chosen);
                    }
                    _ => {
                        flush_stats(&stats);
                        return Err(PipelineError::NoSchedule { min_ii, max_ii });
                    }
                }
            }
        }
    }
}

/// Flush the search's aggregate work counters to telemetry. Called once
/// per [`pipeline`] exit (success or failure) so the disabled path costs a
/// handful of thread-local reads per compile, never per placement.
fn flush_stats(stats: &PipelineStats) {
    use swp_obs::{count, Counter};
    count(Counter::HeurAttempts, stats.attempts.into());
    count(Counter::HeurBacktracks, stats.backtracks.into());
    count(Counter::HeurPlacements, stats.placements);
    count(Counter::HeurIisTried, stats.iis_tried.len() as u64);
    count(Counter::HeurPairsFormed, stats.pairs_formed.into());
    count(Counter::HeurSpills, stats.spills.into());
    count(Counter::HeurSpillRounds, stats.spill_rounds.into());
}

/// Search the II space. `Err(None)` = scheduling failures only;
/// `Err(Some(candidates))` = at least one attempt scheduled but failed
/// register allocation (candidates from the best such attempt).
#[allow(clippy::too_many_arguments)]
fn search_iis(
    body: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    opts: &HeurOptions,
    min_ii: u32,
    max_ii: u32,
    two_phase: bool,
    stats: &mut PipelineStats,
) -> Result<Candidate, Option<Vec<swp_regalloc::SpillCandidate>>> {
    let mut alloc_failure: Option<Vec<swp_regalloc::SpillCandidate>> = None;
    let mut try_ii = |ii: u32, stats: &mut PipelineStats| -> Option<Candidate> {
        stats.iis_tried.push(ii);
        let _span = swp_obs::span("heur.attempt").with_i("ii", i64::from(ii));
        match attempt_at(body, ddg, machine, opts, ii, stats) {
            AttemptOutcome::Success(c) => Some(*c),
            AttemptOutcome::AllocFailed(cands) => {
                if alloc_failure.is_none() {
                    alloc_failure = Some(cands);
                }
                None
            }
            AttemptOutcome::SchedFailed => None,
        }
    };

    if two_phase {
        // Phase 1: exponential backoff from MinII (§2.3).
        let mut offsets = vec![0u32, 1, 2];
        let mut k = 4u32;
        while min_ii + k <= max_ii {
            offsets.push(k);
            k *= 2;
        }
        let mut last_failed: u32 = 0;
        let mut success: Option<(u32, Candidate)> = None;
        for off in offsets {
            let ii = min_ii + off;
            if ii > max_ii {
                break;
            }
            match try_ii(ii, stats) {
                Some(c) => {
                    success = Some((ii, c));
                    break;
                }
                None => last_failed = ii,
            }
        }
        let (ii_hi, cand_hi) = match success {
            Some(s) => s,
            None => return Err(alloc_failure),
        };
        if ii_hi <= min_ii + 2 {
            return Ok(cand_hi);
        }
        // Phase 2: binary search in (last_failed, ii_hi].
        let mut lo = last_failed + 1;
        let mut hi = ii_hi;
        let mut best = cand_hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match try_ii(mid, stats) {
                Some(c) => {
                    best = c;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        Ok(best)
    } else {
        // Plain binary search (used after spilling, §2.3): establish
        // feasibility at MaxII, then narrow.
        let mut best = match try_ii(max_ii, stats) {
            Some(c) => c,
            None => return Err(alloc_failure),
        };
        let mut lo = min_ii;
        let mut hi = max_ii;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match try_ii(mid, stats) {
                Some(c) => {
                    best = c;
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        Ok(best)
    }
}

/// Try all heuristics at one II, with register allocation and the §2.9
/// pressure feedback; pick the lowest predicted-stall success.
fn attempt_at(
    body: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    opts: &HeurOptions,
    ii: u32,
    stats: &mut PipelineStats,
) -> AttemptOutcome {
    let mut successes: Vec<Candidate> = Vec::new();
    let mut alloc_failed: Option<Vec<swp_regalloc::SpillCandidate>> = None;
    let banked = machine.bank_model().is_some();

    for &h in &opts.heuristics {
        if opts.cancel.is_cancelled() {
            break;
        }
        let order = priority_list(body, ddg, machine, h);
        // First try with full pairing, then (on alloc failure with priority
        // churn) with reduced pairing, then without.
        let mut pairing_modes = vec![opts.bank_pairing && banked];
        if opts.bank_pairing && banked {
            pairing_modes.push(false);
        }
        let mut tried_reduced = false;
        let mut mode_idx = 0;
        while mode_idx < pairing_modes.len() {
            let with_pairing = pairing_modes[mode_idx];
            let mut attempt = AttemptStats::default();
            let mut px = with_pairing.then(|| {
                let mut p = PairingContext::new(body, &order, ii);
                if tried_reduced {
                    p.reduce_requirement();
                }
                p
            });
            stats.attempts += 1;
            let times = schedule_at(
                body,
                ddg,
                machine,
                ii,
                &order,
                opts.backtrack_budget,
                px.as_mut(),
                &opts.cancel,
                &mut attempt,
            );
            stats.backtracks += attempt.backtracks;
            stats.placements += attempt.placements;
            let Some(times) = times else {
                mode_idx += 1;
                continue;
            };
            let times = adjust_pipestages(body, ddg, ii, times);
            let schedule = Schedule::new(ii, times);
            debug_assert_eq!(schedule.validate(body, ddg, machine), Ok(()));
            let (outcome, alloc_ns) =
                swp_obs::timed_ns("regalloc.attempt", || allocate(body, &schedule, machine));
            stats.alloc_ns = stats.alloc_ns.saturating_add(alloc_ns);
            match outcome {
                AllocOutcome::Allocated(allocation) => {
                    let stall = if banked {
                        stall_score(body, schedule.times(), ii, machine)
                    } else {
                        0.0
                    };
                    successes.push(Candidate {
                        schedule,
                        allocation,
                        heuristic: h,
                        stats: attempt,
                        stall,
                    });
                    break; // next heuristic
                }
                AllocOutcome::Failed { candidates } => {
                    if alloc_failed.is_none() {
                        alloc_failed = Some(candidates);
                    }
                    // §2.9: if pairing perturbed priorities and allocation
                    // failed, retry with reduced pairing before giving up
                    // on this heuristic.
                    if with_pairing && attempt.pairing_priority_changes > 0 && !tried_reduced {
                        tried_reduced = true;
                        continue; // same mode, reduced requirement
                    }
                    mode_idx += 1;
                }
            }
        }
        let exploring = opts.explore_stalls && banked;
        if !successes.is_empty() && !exploring {
            break; // first success wins when not exploring
        }
    }

    if successes.is_empty() {
        return match alloc_failed {
            Some(c) => AttemptOutcome::AllocFailed(c),
            None => AttemptOutcome::SchedFailed,
        };
    }
    let best = successes
        .into_iter()
        .min_by(|a, b| a.stall.partial_cmp(&b.stall).expect("finite stall scores"))
        .expect("nonempty");
    AttemptOutcome::Success(Box::new(best))
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
    fn saxpy_pipelines_at_min_ii() {
        let m = Machine::r8000();
        let p = pipeline(&saxpy(), &m, &HeurOptions::default()).expect("pipelines");
        assert_eq!(p.ii(), 2);
        assert_eq!(p.stats.min_ii, 2);
        let ddg = Ddg::build(&p.body, &m);
        assert_eq!(p.schedule.validate(&p.body, &ddg, &m), Ok(()));
    }

    #[test]
    fn empty_loop_is_an_error() {
        let m = Machine::r8000();
        let lp = LoopBuilder::new("empty").finish();
        assert!(matches!(
            pipeline(&lp, &m, &HeurOptions::default()),
            Err(PipelineError::EmptyLoop)
        ));
    }

    #[test]
    fn reduction_achieves_rec_mii() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fmadd(xv, yv, s.value());
        b.close(s, s1, 1);
        let lp = b.finish();
        let p = pipeline(&lp, &m, &HeurOptions::default()).expect("pipelines");
        assert_eq!(p.ii(), 4, "RecMII of the fmadd recurrence");
    }

    #[test]
    fn divide_loop_pipelines() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("div");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.load(y, 0, 8);
        let q = b.fdiv(v, w);
        b.store(y, 0, 8, q);
        let lp = b.finish();
        let p = pipeline(&lp, &m, &HeurOptions::default()).expect("pipelines");
        // One divide occupying 11 FP cycles: MinII ≥ 6 (11 slots / 2 pipes).
        assert!(p.ii() >= 6, "got II {}", p.ii());
    }

    #[test]
    fn single_heuristic_subset_works() {
        let m = Machine::r8000();
        for h in PriorityHeuristic::ALL {
            let opts = HeurOptions {
                heuristics: vec![h],
                ..HeurOptions::default()
            };
            let p = pipeline(&saxpy(), &m, &opts).expect("pipelines");
            assert_eq!(p.heuristic, h);
        }
    }

    #[test]
    fn spilling_rescues_tiny_register_file() {
        let m = swp_machine::MachineBuilder::new("tiny")
            .allocatable(swp_machine::RegClass::Float, 6)
            .build();
        // A loop with long chains → many overlapped live values.
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let mut acc = v;
        for _ in 0..4 {
            acc = b.fmul(acc, v);
        }
        b.store(y, 0, 8, acc);
        let lp = b.finish();
        let p = pipeline(&lp, &m, &HeurOptions::default());
        match p {
            Ok(p) => {
                // If it pipelined, spilling may have been needed.
                let ddg = Ddg::build(&p.body, &m);
                assert_eq!(p.schedule.validate(&p.body, &ddg, &m), Ok(()));
            }
            Err(e) => panic!("expected success (possibly with spills): {e}"),
        }
    }

    #[test]
    fn plain_binary_search_matches_two_phase_ii() {
        let m = Machine::r8000();
        let a = pipeline(&saxpy(), &m, &HeurOptions::default()).expect("two-phase");
        let b = pipeline(
            &saxpy(),
            &m,
            &HeurOptions {
                two_phase_search: false,
                ..HeurOptions::default()
            },
        )
        .expect("binary");
        assert_eq!(a.ii(), b.ii());
    }
}
