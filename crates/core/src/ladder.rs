//! The total-compilation degradation ladder.
//!
//! The compiler must *always* ship a schedule (§4: MOST runs under a time
//! limit with the heuristic pipeliner as fallback). The ladder generalizes
//! that fallback into five rungs, run by the stage runner in sequential
//! mode: MOST ILP, CDCL SAT (both with internal fallback off), the
//! heuristic, the heuristic at escalated budgets, and the non-pipelined
//! list schedule. The last rung is the §4.1 list schedule viewed as a
//! modulo schedule at II = iteration length, where every loop-carried
//! dependence is slack, so any lint-clean loop compiles: the ladder is
//! *total*. Every rung runs under panic isolation and every schedule
//! passes the `swp-verify` gate before it ships; [`ChaosOptions`] injects
//! faults to demonstrate both, and `experiments chaos -D` denies on any
//! that escapes its rung.

use crate::compile::{CompileError, CompiledLoop};
use crate::stage::{self, Backend, Mode};
use swp_codegen::{CodeSection, PipelinedLoop};
use swp_heur::HeurOptions;
use swp_ir::{Loop, Schedule};
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_sat::SatOptions;
use swp_verify::VerifyLevel;

/// One rung of the degradation ladder, most aggressive first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Rung 0: the MOST ILP pipeliner with its internal fallback off.
    Ilp,
    /// Rung 1: the CDCL SAT pipeliner (same horizon, same optimality
    /// certificate, different search engine) with its fallback off.
    Sat,
    /// Rung 2: the heuristic modulo scheduler at its configured budgets.
    Heuristic,
    /// Rung 3: the heuristic with exponentially escalated deterministic
    /// budgets (backtracks ×4 and MaxII +1·MinII per round).
    Escalated,
    /// Rung 4: the non-pipelined list schedule at II = sequential
    /// iteration length. Total on lint-clean loops.
    Sequential,
}

impl Rung {
    /// Every rung, demotion order.
    pub const ALL: [Rung; 5] = [
        Rung::Ilp,
        Rung::Sat,
        Rung::Heuristic,
        Rung::Escalated,
        Rung::Sequential,
    ];

    /// Ladder position (0 = most aggressive).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Ilp => "ilp",
            Rung::Sat => "sat",
            Rung::Heuristic => "heuristic",
            Rung::Escalated => "escalated",
            Rung::Sequential => "sequential",
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rung {} ({})", self.index(), self.name())
    }
}

/// Which way to corrupt a rung's artifact before the verify gate.
/// These are exactly the `tests/audit.rs` mutation classes, so each maps
/// to the analyzer family that must reject it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corruption {
    /// Move one op to cycle −1 in the claimed schedule (`SWP-V1xx`).
    NegativeTime,
    /// Reassign one value to a register beyond the file (`SWP-V2xx`).
    ClobberedRegister,
    /// Shift one kernel op off its cycle, breaking the op-for-op
    /// correspondence with the schedule (`SWP-V3xx`).
    TamperedExpansion,
}

/// A fault the chaos layer can inject at one rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosFault {
    /// Panic inside the rung (must be absorbed by `catch_unwind`).
    Panic,
    /// Fail the rung's scheduler as if its budget were exhausted, without
    /// running it. Deterministic by construction — unlike a real
    /// wall-clock deadline — so chaos results stay reproducible.
    Exhaust,
    /// Let the scheduler succeed, then corrupt its artifact before the
    /// gate (must be rejected by the auditors).
    Corrupt(Corruption),
}

/// Deterministic fault-injection plan for one compile. The default plan
/// injects nothing and adds zero cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosOptions {
    /// At most one fault per rung, indexed by [`Rung::index`].
    pub faults: [Option<ChaosFault>; 5],
    /// Panic at compile entry, *outside* rung isolation. This models the
    /// escape the per-rung `catch_unwind` cannot see and exercises the
    /// outer containment layers: [`crate::Driver`] converts it to
    /// [`CompileError::Internal`] and a panicking cache leader must clear
    /// its in-flight entry.
    pub panic_in_flight: bool,
}

impl ChaosOptions {
    /// The fault planned for `rung`, if any.
    pub fn fault_at(&self, rung: Rung) -> Option<ChaosFault> {
        self.faults[rung.index()]
    }

    /// Builder-style: plan `fault` at `rung`.
    pub fn with_fault(mut self, rung: Rung, fault: ChaosFault) -> ChaosOptions {
        self.faults[rung.index()] = Some(fault);
        self
    }
}

/// Configuration of the whole ladder.
#[derive(Debug, Clone)]
pub struct LadderOptions {
    /// Rung-0 budgets. The internal heuristic fallback is forced off when
    /// the rung runs ([`MostOptions::without_fallback`]); demotion is the
    /// ladder's job.
    pub most: MostOptions,
    /// Rung-1 budgets ([`SatOptions::without_fallback`] applies, as for
    /// the ILP rung).
    pub sat: SatOptions,
    /// Rung-2 configuration; rung 3 escalates from it.
    pub heur: HeurOptions,
    /// Rung-3 escalation rounds ([`HeurOptions::escalated`] 1..=N).
    pub escalation_rounds: u32,
    /// Audit level of the per-rung verify gate. The gate always runs —
    /// a ladder compile carries its report regardless of the outer
    /// [`crate::CompileOptions::verify`] setting — and error-severity
    /// findings demote. `Off` disables gating (chaos experiments use it
    /// to demonstrate what the gate is worth).
    pub gate: VerifyLevel,
    /// First rung the ladder attempts (default [`Rung::Ilp`]). Admission
    /// control demotes overloaded requests by starting lower — skipping
    /// the expensive ILP rung entirely instead of rejecting the request —
    /// while keeping every guarantee below the start rung intact.
    pub start_rung: Rung,
    /// Fault-injection plan (quiet by default).
    pub chaos: ChaosOptions,
}

impl Default for LadderOptions {
    fn default() -> LadderOptions {
        LadderOptions {
            most: MostOptions::default(),
            sat: SatOptions::default(),
            heur: HeurOptions::default(),
            escalation_rounds: 3,
            gate: VerifyLevel::Full,
            start_rung: Rung::Ilp,
            chaos: ChaosOptions::default(),
        }
    }
}

impl LadderOptions {
    /// The overload-demoted configuration admission control applies at
    /// `level` (0 = no demotion). Level 1 keeps the ILP rung but under a
    /// much tighter deterministic pivot leash; level 2+ skips straight to
    /// the heuristic rung with a reduced backtrack budget and fewer
    /// escalation rounds. Every level still ends at the sequential rung,
    /// so a demoted request always gets *an* answer.
    pub fn demoted(&self, level: u32) -> LadderOptions {
        let mut opts = self.clone();
        match level {
            0 => {}
            1 => {
                opts.most.loop_pivot_limit = Some(
                    opts.most
                        .loop_pivot_limit
                        .map_or(100_000, |p| (p / 8).max(1)),
                );
                opts.most.pivot_limit = opts.most.pivot_limit.clamp(1, 100_000);
                opts.most.node_limit = opts.most.node_limit.clamp(1, 2_000);
                // Leash the SAT rung by the same factor, in its own
                // deterministic currency.
                opts.sat.loop_conflict_limit = Some(
                    opts.sat
                        .loop_conflict_limit
                        .map_or(25_000, |c| (c / 8).max(1)),
                );
                opts.sat.conflict_limit = opts.sat.conflict_limit.clamp(1, 25_000);
            }
            _ => {
                opts.start_rung = Rung::Heuristic;
                opts.heur.backtrack_budget = (opts.heur.backtrack_budget / 4).max(1);
                opts.escalation_rounds = opts.escalation_rounds.min(1);
            }
        }
        opts
    }
}

/// How one rung's attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RungOutcome {
    /// The rung's schedule passed the gate and was shipped.
    Accepted,
    /// The input loop carries error-severity lints; no rung may certify
    /// it (recorded once, on the first rung, and the ladder stops).
    LintRejected {
        /// Error-severity lint findings.
        errors: usize,
    },
    /// The rung's scheduler returned an error.
    SchedulerFailed(String),
    /// The rung's schedule was rejected by the verify gate.
    GateRejected {
        /// Error-severity audit findings.
        errors: usize,
    },
    /// The rung panicked; `catch_unwind` absorbed it.
    Panicked(String),
}

impl RungOutcome {
    /// Stable lowercase tag for tables.
    pub fn tag(&self) -> &'static str {
        match self {
            RungOutcome::Accepted => "accepted",
            RungOutcome::LintRejected { .. } => "lint-rejected",
            RungOutcome::SchedulerFailed(_) => "sched-failed",
            RungOutcome::GateRejected { .. } => "gate-rejected",
            RungOutcome::Panicked(_) => "panicked",
        }
    }
}

/// One entry of the per-compile attempt trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungAttempt {
    /// Which rung ran.
    pub rung: Rung,
    /// How it ended.
    pub outcome: RungOutcome,
    /// The chaos fault actually injected at this rung (`None` when the
    /// plan had one but the rung failed before it could apply — a
    /// corruption cannot be injected into a schedule that never existed).
    pub injected: Option<ChaosFault>,
    /// Whether a wall-clock deadline truncated this rung's search. Any
    /// true entry makes the whole ladder outcome host-dependent, so the
    /// schedule cache refuses to memoize it.
    pub deadline_hit: bool,
}

impl RungAttempt {
    /// Whether an injected fault escaped its containment: a planned panic
    /// not absorbed as [`RungOutcome::Panicked`], a planned exhaustion
    /// not surfacing as [`RungOutcome::SchedulerFailed`], or a planted
    /// corruption that the verify gate failed to reject. This is the
    /// predicate `experiments chaos -D` denies on.
    pub fn escaped(&self) -> bool {
        match (&self.injected, &self.outcome) {
            (None, _) => false,
            (Some(ChaosFault::Panic), RungOutcome::Panicked(_)) => false,
            (Some(ChaosFault::Exhaust), RungOutcome::SchedulerFailed(_)) => false,
            (Some(ChaosFault::Corrupt(_)), RungOutcome::GateRejected { .. }) => false,
            (Some(_), _) => true,
        }
    }

    /// One-line rendering for quarantine reports and proptest messages.
    pub fn render(&self) -> String {
        let mut out = format!("{}: {}", self.rung, self.outcome.tag());
        match &self.outcome {
            RungOutcome::SchedulerFailed(m) | RungOutcome::Panicked(m) => {
                out.push_str(&format!(" ({m})"));
            }
            RungOutcome::LintRejected { errors } | RungOutcome::GateRejected { errors } => {
                out.push_str(&format!(" ({errors} error findings)"));
            }
            RungOutcome::Accepted => {}
        }
        if let Some(f) = &self.injected {
            out.push_str(&format!(" [injected {f:?}]"));
        }
        if self.deadline_hit {
            out.push_str(" [deadline]");
        }
        out
    }
}

/// Render a whole attempt trace, one rung per line — the
/// shrinker-friendly failure message of the total-compilation proptest.
pub fn render_attempts(attempts: &[RungAttempt]) -> String {
    attempts
        .iter()
        .map(RungAttempt::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Chaos runs and panic-isolation tests inject panics on purpose, and
/// every injected payload is prefixed `"chaos:"` (harness tests also
/// use `"expected:"`). This installs a process-wide panic hook that
/// suppresses the default backtrace spew for those recognizable
/// payloads while real panics keep printing. Idempotent; safe to call
/// from concurrent tests.
pub fn hush_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = stage::panic_message(info.payload());
            if !(message.starts_with("chaos:") || message.starts_with("expected:")) {
                default(info);
            }
        }));
    });
}

/// Compile `lp` down the degradation ladder: try each rung from
/// [`LadderOptions::start_rung`] down under panic isolation, gate every
/// produced schedule through the `swp-verify` auditors, and ship the
/// first one that passes. The result's [`CompiledLoop::rung`] names the
/// winning rung and [`CompiledLoop::attempts`] traces every demotion
/// that led there.
///
/// # Errors
///
/// [`CompileError::LadderExhausted`] when every rung is rejected — only
/// possible for loops that fail the IR lints (nothing may certify them),
/// for empty loops, or under chaos injection at the final rung.
///
/// # Panics
///
/// Only via [`ChaosOptions::panic_in_flight`], which deliberately panics
/// *outside* rung isolation to exercise the outer containment layers.
pub fn compile_ladder(
    lp: &Loop,
    machine: &Machine,
    opts: &LadderOptions,
) -> Result<CompiledLoop, CompileError> {
    let stages = Rung::ALL
        .into_iter()
        .filter(|&rung| rung >= opts.start_rung)
        .map(|r| {
            (
                r,
                Backend::at(r, &opts.most, &opts.sat, &opts.heur, opts.escalation_rounds),
            )
        })
        .collect();
    stage::run(lp, machine, stages, Mode::Sequential(opts))
}

/// Apply one deterministic corruption to a compiled artifact. Each class
/// is constructed to be *provably* wrong (cycle −1, register 999, a
/// kernel op off its row), so a gate that fails to reject it has
/// regressed — which is exactly what the chaos harness exists to catch.
pub(crate) fn corrupt(code: &PipelinedLoop, how: Corruption) -> PipelinedLoop {
    match how {
        Corruption::NegativeTime => {
            let s = code.schedule();
            let mut times = s.times().to_vec();
            match times.first_mut() {
                Some(t) => *t = -1,
                None => return code.clone(),
            }
            code.with_tampered_schedule(Schedule::new(s.ii(), times))
        }
        Corruption::ClobberedRegister => {
            match code.body().ops().iter().find_map(|o| o.result) {
                Some(v) => {
                    code.with_tampered_allocation(code.allocation().with_assignment(v, 0, 999))
                }
                // A store-only body defines nothing to clobber; fall back
                // to the expansion corruption so the injection still lands.
                None => corrupt(code, Corruption::TamperedExpansion),
            }
        }
        Corruption::TamperedExpansion => {
            let Some(&op) = code.kernel().first() else {
                return code.clone();
            };
            let mut op = op;
            op.cycle += 1;
            code.with_tampered_op(CodeSection::Kernel, 0, op)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_loop, SchedulerChoice};
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
    fn quiet_ladder_ships_rung_0_with_a_clean_gate() {
        let m = Machine::r8000();
        let c = compile_ladder(&saxpy(), &m, &LadderOptions::default()).expect("total");
        assert_eq!(c.rung, Some(Rung::Ilp));
        assert_eq!(c.attempts.len(), 1);
        assert_eq!(c.attempts[0].outcome, RungOutcome::Accepted);
        let report = c.audit.as_ref().expect("gate always audits");
        assert!(report.is_clean(), "{}", report.render_human());
        // Rung 0 matches a plain ILP compile of the same budgets.
        let plain = compile_loop(
            &saxpy(),
            &m,
            &SchedulerChoice::IlpWith(MostOptions::default().without_fallback()),
        )
        .expect("ilp");
        assert_eq!(c.stats.ii, plain.stats.ii);
        assert!(!c.stats.fell_back);
    }

    #[test]
    fn injected_panic_demotes_and_is_traced() {
        hush_injected_panics();
        let m = Machine::r8000();
        let opts = LadderOptions {
            chaos: ChaosOptions::default().with_fault(Rung::Ilp, ChaosFault::Panic),
            ..LadderOptions::default()
        };
        let c = compile_ladder(&saxpy(), &m, &opts).expect("total");
        assert_eq!(c.rung, Some(Rung::Sat));
        assert!(matches!(c.attempts[0].outcome, RungOutcome::Panicked(_)));
        assert_eq!(c.attempts[0].injected, Some(ChaosFault::Panic));
        assert!(!c.attempts[0].escaped(), "panic was contained");
        assert_eq!(c.attempts[1].outcome, RungOutcome::Accepted);
    }

    #[test]
    fn faults_at_every_upper_rung_land_on_the_sequential_rung() {
        hush_injected_panics();
        let m = Machine::r8000();
        for fault in [
            ChaosFault::Panic,
            ChaosFault::Exhaust,
            ChaosFault::Corrupt(Corruption::NegativeTime),
            ChaosFault::Corrupt(Corruption::ClobberedRegister),
            ChaosFault::Corrupt(Corruption::TamperedExpansion),
        ] {
            let opts = LadderOptions {
                chaos: ChaosOptions::default()
                    .with_fault(Rung::Ilp, fault)
                    .with_fault(Rung::Sat, fault)
                    .with_fault(Rung::Heuristic, fault)
                    .with_fault(Rung::Escalated, fault),
                ..LadderOptions::default()
            };
            let c = compile_ladder(&saxpy(), &m, &opts).expect("rung 4 is total");
            assert_eq!(c.rung, Some(Rung::Sequential), "{fault:?}");
            assert_eq!(c.attempts.len(), 5);
            assert!(
                c.attempts.iter().all(|a| !a.escaped()),
                "{fault:?} escaped:\n{}",
                render_attempts(&c.attempts)
            );
            let report = c.audit.as_ref().expect("gated");
            assert!(report.is_clean(), "{}", report.render_human());
            // The sequential rung really is non-pipelined: one stage, no
            // fill/drain code, II covering the whole iteration.
            assert_eq!(c.code.stage_count(), 1);
            assert!(c.code.prologue().is_empty());
            assert!(c.code.epilogue().is_empty());
            assert!(c.stats.ii >= c.stats.min_ii);
        }
    }

    #[test]
    fn corruption_is_rejected_by_the_gate_not_shipped() {
        let m = Machine::r8000();
        let opts = LadderOptions {
            chaos: ChaosOptions::default().with_fault(
                Rung::Heuristic,
                ChaosFault::Corrupt(Corruption::NegativeTime),
            ),
            most: MostOptions {
                // Push rungs 0 and 1 out of the way deterministically.
                max_ops: 0,
                ..MostOptions::default()
            },
            sat: SatOptions {
                max_ops: 0,
                ..SatOptions::default()
            },
            ..LadderOptions::default()
        };
        let c = compile_ladder(&saxpy(), &m, &opts).expect("total");
        assert!(matches!(
            c.attempts[2].outcome,
            RungOutcome::GateRejected { errors } if errors > 0
        ));
        assert_eq!(c.rung, Some(Rung::Escalated));
        assert!(c.audit.as_ref().is_some_and(|r| r.is_clean()));
    }

    #[test]
    fn gate_off_lets_a_corrupted_schedule_escape() {
        // The negative control: what the verify gate is worth.
        let m = Machine::r8000();
        let opts = LadderOptions {
            gate: VerifyLevel::Off,
            chaos: ChaosOptions::default().with_fault(
                Rung::Heuristic,
                ChaosFault::Corrupt(Corruption::NegativeTime),
            ),
            most: MostOptions {
                max_ops: 0,
                ..MostOptions::default()
            },
            sat: SatOptions {
                max_ops: 0,
                ..SatOptions::default()
            },
            ..LadderOptions::default()
        };
        let c = compile_ladder(&saxpy(), &m, &opts).expect("compiles");
        assert_eq!(c.rung, Some(Rung::Heuristic));
        assert!(
            c.attempts[2].escaped(),
            "without the gate the corruption ships — and the trace says so"
        );
    }

    #[test]
    fn empty_loop_exhausts_the_ladder() {
        let m = Machine::r8000();
        let empty = LoopBuilder::new("empty").finish();
        let e =
            compile_ladder(&empty, &m, &LadderOptions::default()).expect_err("nothing to schedule");
        match e {
            CompileError::LadderExhausted { attempts } => {
                assert!(!attempts.is_empty());
                assert!(
                    attempts.iter().all(|a| a.outcome != RungOutcome::Accepted),
                    "{}",
                    render_attempts(&attempts)
                );
            }
            other => panic!("expected LadderExhausted, got {other:?}"),
        }
    }

    #[test]
    fn escalation_widens_budgets_exponentially() {
        let base = HeurOptions::default();
        let r1 = base.escalated(1);
        let r2 = base.escalated(2);
        assert_eq!(r1.backtrack_budget, base.backtrack_budget * 4);
        assert_eq!(r2.backtrack_budget, base.backtrack_budget * 16);
        assert_eq!(r2.max_ii_factor, base.max_ii_factor + 2);
    }
}
