//! The stage runner behind the degradation ladder and the portfolio.
//!
//! Both are an ordered list of backends, one per [`Rung`], highest rank
//! first. [`Backend::schedule`] is the one adapter over the schedulers and
//! returns the schedule unexpanded; [`finish`] expands it. [`run`] drives
//! the list in one of two [`Mode`]s, which share the panic capture
//! ([`catch`]), the winner (the highest-ranked success, never the first to
//! finish) and the taint rule ([`ship`]). DESIGN.md §8 compares the modes.

use crate::compile::{CompileError, CompileStats, CompiledLoop};
use crate::ladder::{corrupt, ChaosFault, LadderOptions, Rung, RungAttempt, RungOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;
use swp_codegen::{list_schedule, PipelinedLoop};
use swp_heur::{HeurOptions, OptimalPipelined, PipelineError, SearchError};
use swp_ir::{Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_obs::{count, CancelToken, Counter};
use swp_regalloc::{allocate, AllocOutcome, Allocation};
use swp_sat::SatOptions;
use swp_verify::{Finding, Severity, VerifyLevel, VerifyReport};

/// One stage's scheduler and its budgets.
#[derive(Debug, Clone)]
pub(crate) enum Backend {
    Ilp(MostOptions),
    Sat(SatOptions),
    Heuristic(HeurOptions),
    /// The heuristic, retried at [`HeurOptions::escalated`] budgets for
    /// rounds `1..=n` until one succeeds.
    Escalated(HeurOptions, u32),
    Sequential,
}

/// A schedule and its allocation, not yet expanded, with the statistics
/// its backend reported.
pub(crate) struct Scheduled {
    parts: (Loop, Schedule, Allocation),
    min_ii: u32,
    fell_back: bool,
    optimal: bool,
    search_effort: u64,
    pivots: u64,
    deadline_hit: bool,
    spills: u32,
    buffers: Option<u32>,
    sched_ns: u64,
    alloc_ns: u64,
}

impl Scheduled {
    /// The fields every backend reports; `pipeline_ns` includes `alloc_ns`.
    fn new(
        parts: (Loop, Schedule, Allocation),
        min_ii: u32,
        pipeline_ns: u64,
        alloc_ns: u64,
    ) -> Self {
        Scheduled {
            parts,
            min_ii,
            fell_back: false,
            optimal: false,
            search_effort: 0,
            pivots: 0,
            deadline_hit: false,
            spills: 0,
            buffers: None,
            sched_ns: pipeline_ns.saturating_sub(alloc_ns),
            alloc_ns,
        }
    }
}

impl Backend {
    /// The backend that fills `rung` in a ladder or a portfolio. The
    /// optimal backends run with their internal fallback off: the lower
    /// stages play that role.
    pub(crate) fn at(
        rung: Rung,
        most: &MostOptions,
        sat: &SatOptions,
        heur: &HeurOptions,
        escalation_rounds: u32,
    ) -> Backend {
        match rung {
            Rung::Ilp => Backend::Ilp(most.without_fallback()),
            Rung::Sat => Backend::Sat(sat.without_fallback()),
            Rung::Heuristic => Backend::Heuristic(heur.clone()),
            Rung::Escalated => Backend::Escalated(heur.clone(), escalation_rounds),
            Rung::Sequential => Backend::Sequential,
        }
    }

    /// Run this backend's scheduler on `lp`.
    pub(crate) fn schedule(&self, lp: &Loop, machine: &Machine) -> Result<Scheduled, CompileError> {
        match self {
            Backend::Ilp(opts) => optimal(
                swp_obs::timed_ns("sched.ilp", || swp_most::pipeline_most(lp, machine, opts)),
                CompileError::Ilp,
            ),
            Backend::Sat(opts) => optimal(
                swp_obs::timed_ns("sched.sat", || swp_sat::pipeline_sat(lp, machine, opts)),
                CompileError::Sat,
            ),
            Backend::Heuristic(opts) => {
                let (r, ns) =
                    swp_obs::timed_ns("sched.heur", || swp_heur::pipeline(lp, machine, opts));
                let p = r.map_err(CompileError::Heuristic)?;
                let s = &p.stats;
                Ok(Scheduled {
                    search_effort: u64::from(s.backtracks),
                    spills: s.spills,
                    ..Scheduled::new((p.body, p.schedule, p.allocation), s.min_ii, ns, s.alloc_ns)
                })
            }
            Backend::Escalated(base, rounds) => {
                let mut result = Backend::Heuristic(base.escalated(1)).schedule(lp, machine);
                for round in 2..=*rounds {
                    if result.is_err() {
                        result = Backend::Heuristic(base.escalated(round)).schedule(lp, machine);
                    }
                }
                result
            }
            Backend::Sequential => sequential(lp, machine),
        }
    }
}

/// An optimal backend's result, `(result, pipeline_ns)`, as a stage's.
fn optimal(
    (r, ns): (Result<OptimalPipelined, SearchError>, u64),
    err: fn(SearchError) -> CompileError,
) -> Result<Scheduled, CompileError> {
    let p = r.map_err(err)?;
    let s = &p.stats;
    Ok(Scheduled {
        fell_back: s.fell_back,
        optimal: s.optimal_ii,
        search_effort: s.search_effort,
        pivots: s.pivots,
        deadline_hit: s.deadline_hit,
        buffers: s.buffers.map(|b| b.total),
        ..Scheduled::new((p.body, p.schedule, p.allocation), s.min_ii, ns, s.alloc_ns)
    })
}

/// The sequential rung: the §4.1 list schedule as a degenerate modulo
/// schedule whose II is the full iteration length. Every op sits in
/// stage 0, so expansion yields an empty prologue and epilogue around a
/// one-iteration kernel, a real [`PipelinedLoop`] the auditors can
/// certify and the simulator can run.
fn sequential(lp: &Loop, machine: &Machine) -> Result<Scheduled, CompileError> {
    if lp.is_empty() {
        return Err(CompileError::Heuristic(PipelineError::EmptyLoop));
    }
    let t0 = Instant::now();
    let ddg = Ddg::build(lp, machine);
    let schedule = list_schedule(lp, &ddg, machine).as_schedule();
    let (outcome, alloc_ns) =
        swp_obs::timed_ns("regalloc.attempt", || allocate(lp, &schedule, machine));
    let AllocOutcome::Allocated(allocation) = outcome else {
        // Unreachable for machine-sized loops (one non-overlapped
        // iteration has minimal pressure), but a structured error beats a
        // panic if a generated loop ever proves otherwise.
        return Err(CompileError::Internal {
            rung: Some(Rung::Sequential),
            message: "sequential rung: register allocation failed".to_owned(),
        });
    };
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let parts = (lp.clone(), schedule, allocation);
    Ok(Scheduled::new(parts, ddg.min_ii(), ns, alloc_ns))
}

/// Expand a schedule on the calling thread and assemble the compile
/// result.
pub(crate) fn finish(s: Scheduled) -> CompiledLoop {
    if let Some(buffers) = s.buffers {
        swp_obs::observe(swp_obs::Histo::Buffers, u64::from(buffers));
    }
    let (body, schedule, allocation) = &s.parts;
    let (code, expand_ns) = swp_obs::timed_ns("expand", || {
        PipelinedLoop::expand(body, schedule, allocation)
    });
    CompiledLoop {
        stats: CompileStats {
            min_ii: s.min_ii,
            ii: code.ii(),
            fell_back: s.fell_back,
            optimal: s.optimal,
            search_effort: s.search_effort,
            pivots: s.pivots,
            deadline_hit: s.deadline_hit,
            opt_passes: Vec::new(),
            spills: s.spills,
            sched_ns: s.sched_ns,
            alloc_ns: s.alloc_ns,
            expand_ns,
        },
        code,
        audit: None,
        rung: None,
        attempts: Vec::new(),
    }
}

/// How [`run`] drives its stages.
pub(crate) enum Mode<'a> {
    /// One at a time under the ladder's gate and chaos plan.
    Sequential(&'a LadderOptions),
    /// All at once on scoped threads.
    Race,
}

/// A stage list: each rung's backend, highest rank first, never empty.
pub(crate) type Stages = Vec<(Rung, Backend)>;

/// Run `stages` and ship the winner. When every stage fails, sequential
/// mode returns [`CompileError::LadderExhausted`] and race mode the
/// highest-ranked error: only a success cancels, so that error is as
/// deterministic as its backend.
pub(crate) fn run(
    lp: &Loop,
    machine: &Machine,
    stages: Stages,
    mode: Mode<'_>,
) -> Result<CompiledLoop, CompileError> {
    let opts = match mode {
        Mode::Sequential(opts) => opts,
        Mode::Race => return race(lp, machine, &stages),
    };
    assert!(
        !opts.chaos.panic_in_flight,
        "chaos: injected in-flight panic (outside rung isolation)"
    );
    // Lint once, up front. Error lints mean the input itself is invalid:
    // no stage's output could pass a gate that includes them, so record a
    // single rejection instead of burning every stage's budget.
    let lints = if opts.gate == VerifyLevel::Full {
        swp_verify::lint_findings(lp, machine)
    } else {
        Vec::new()
    };
    let errors = lints
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if errors > 0 {
        return Err(CompileError::LadderExhausted {
            attempts: vec![RungAttempt {
                rung: opts.start_rung,
                outcome: RungOutcome::LintRejected { errors },
                injected: None,
                deadline_hit: false,
            }],
        });
    }
    // Lazy: the stages below the winner never run.
    let ranked = stages
        .into_iter()
        .map(|(rung, backend)| attempt(lp, machine, opts, &lints, rung, &backend));
    let (won, mut attempts) = pick(ranked);
    let Some((compiled, report, accepted)) = won else {
        return Err(CompileError::LadderExhausted { attempts });
    };
    let rung = accepted.rung;
    attempts.push(accepted);
    let mut compiled = ship(compiled, rung, attempts.iter().map(|a| a.deadline_hit));
    compiled.audit = Some(report);
    compiled.attempts = attempts;
    Ok(compiled)
}

/// The winner rule both modes share: the first success in rank order,
/// never the first to finish, with every failure ranked above it.
fn pick<T, E>(ranked: impl IntoIterator<Item = Result<T, E>>) -> (Option<T>, Vec<E>) {
    let mut above = Vec::new();
    for result in ranked {
        match result {
            Ok(won) => return (Some(won), above),
            Err(lost) => above.push(lost),
        }
    }
    (None, above)
}

/// The taint rule both modes share: label the winner with its rung, and
/// mark it `deadline_hit` when any stage ranked above it hit a deadline,
/// since which stage won then depends on host load.
fn ship(mut won: CompiledLoop, rung: Rung, above: impl IntoIterator<Item = bool>) -> CompiledLoop {
    won.stats.deadline_hit |= above.into_iter().any(|hit| hit);
    won.rung = Some(rung);
    won
}

/// Panic capture, shared by both modes and the driver pool: run `f`,
/// turning a panic into its message.
pub(crate) fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_message(payload.as_ref()))
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Whether a failed stage was cut short by a wall-clock deadline.
pub(crate) fn deadline_hit(e: &CompileError) -> bool {
    match e {
        CompileError::Ilp(SearchError::NoSchedule { deadline_hit, .. })
        | CompileError::Sat(SearchError::NoSchedule { deadline_hit, .. }) => *deadline_hit,
        _ => false,
    }
}

/// Race mode: run every stage at once and ship the highest-ranked
/// success. As successes arrive, every lower-ranked racer still running is
/// cancelled; completion order only decides how early losers stop. The
/// winner is expanded on the calling thread, which alone has telemetry.
fn race(
    lp: &Loop,
    machine: &Machine,
    stages: &[(Rung, Backend)],
) -> Result<CompiledLoop, CompileError> {
    count(Counter::PortfolioRaces, 1);
    let _span = swp_obs::span("portfolio")
        .with_s("loop", lp.name())
        .with_i("backends", stages.len() as i64);
    let mut tokens = Vec::with_capacity(stages.len());
    let mut results = Vec::with_capacity(stages.len());
    let mut cancellations = 0u64;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for (i, &(rung, ref backend)) in stages.iter().enumerate() {
            // ILP keeps the caller's token: a race never cancels it. Every
            // other racer runs on a fork of its own token: a fresh flag for
            // the race to fire, and the caller's deadline, if any.
            let mut backend = backend.clone();
            let token = match &mut backend {
                Backend::Sat(o) => Some(&mut o.cancel),
                Backend::Heuristic(o) | Backend::Escalated(o, _) => Some(&mut o.cancel),
                Backend::Ilp(_) | Backend::Sequential => None,
            };
            tokens.push(token.map_or_else(CancelToken::never, |t| {
                *t = t.fork();
                t.clone()
            }));
            let tx = tx.clone();
            s.spawn(move || {
                let result = catch(|| backend.schedule(lp, machine))
                    .unwrap_or_else(|message| {
                        Err(CompileError::Internal {
                            rung: Some(rung),
                            message,
                        })
                    })
                    .map(|won| (rung, won));
                // The scope outlives every racer, so the receiver does too.
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        while let Ok((i, result)) = rx.recv() {
            if result.is_ok() {
                for token in &tokens[i + 1..] {
                    if !token.is_cancelled() {
                        token.cancel();
                        cancellations += 1;
                    }
                }
            }
            results.push((i, result));
        }
    });
    count(Counter::PortfolioCancellations, cancellations);
    results.sort_by_key(|&(i, _)| i);
    let (won, mut above) = pick(results.into_iter().map(|(_, result)| result));
    let Some((rung, won)) = won else {
        return Err(above.swap_remove(0));
    };
    let winner = match rung {
        Rung::Ilp => Counter::PortfolioWinnerIlp,
        Rung::Sat => Counter::PortfolioWinnerSat,
        _ => Counter::PortfolioWinnerHeuristic,
    };
    count(winner, 1);
    let _winner = swp_obs::span("portfolio.winner").with_s("backend", rung.name());
    Ok(ship(finish(won), rung, above.iter().map(deadline_hit)))
}

/// One sequential stage: chaos injection and panic isolation around the
/// backend, expansion, the verify gate, and the stage's attempt-trace
/// entry and telemetry. `Ok` carries a result that passed the gate.
fn attempt(
    lp: &Loop,
    machine: &Machine,
    opts: &LadderOptions,
    lints: &[Finding],
    rung: Rung,
    backend: &Backend,
) -> Result<(CompiledLoop, VerifyReport, RungAttempt), RungAttempt> {
    let fault = opts.chaos.fault_at(rung);
    let rung_span = swp_obs::span("ladder.rung").with_s("rung", rung.name());
    let run = catch(|| {
        match fault {
            Some(ChaosFault::Panic) => panic!("chaos: injected panic at {rung}"),
            Some(ChaosFault::Exhaust) => {
                return Err((
                    format!("chaos: injected budget exhaustion at {rung}"),
                    false,
                ));
            }
            _ => {}
        }
        let scheduled = backend.schedule(lp, machine);
        let mut compiled = finish(scheduled.map_err(|e| (e.to_string(), deadline_hit(&e)))?);
        if let Some(ChaosFault::Corrupt(how)) = fault {
            compiled.code = corrupt(&compiled.code, how);
        }
        Ok(compiled)
    });
    // A planned corruption never applies to a stage that failed.
    let injected = match (&run, fault) {
        (Ok(Err(_)), Some(ChaosFault::Corrupt(_))) => None,
        _ => fault,
    };
    let (outcome, hit, shipped) = match run {
        Err(message) => (RungOutcome::Panicked(message), false, None),
        Ok(Err((message, hit))) => (RungOutcome::SchedulerFailed(message), hit, None),
        Ok(Ok(compiled)) => {
            let mut report = swp_verify::audit(&compiled.code, machine, opts.gate);
            report.findings.splice(0..0, lints.iter().cloned());
            let hit = compiled.stats.deadline_hit;
            match report.gate() {
                Ok(()) => (RungOutcome::Accepted, hit, Some((compiled, report))),
                Err(errors) => (RungOutcome::GateRejected { errors }, hit, None),
            }
        }
    };
    drop(rung_span);
    let attempt = RungAttempt {
        rung,
        outcome,
        injected,
        deadline_hit: hit,
    };
    // An attempt that did not ship counts as a demotion, including a
    // rejected final rung, which "demotes" into ladder exhaustion.
    match &attempt.outcome {
        RungOutcome::Panicked(_) => count(Counter::LadderPanicsCaught, 1),
        RungOutcome::GateRejected { .. } => count(Counter::LadderGateRejections, 1),
        _ => {}
    }
    count(Counter::LadderDemotions, u64::from(shipped.is_none()));
    count(
        Counter::LadderChaosInjected,
        u64::from(attempt.injected.is_some()),
    );
    count(Counter::LadderChaosEscapes, u64::from(attempt.escaped()));
    match shipped {
        Some((compiled, report)) => Ok((compiled, report, attempt)),
        None => Err(attempt),
    }
}
