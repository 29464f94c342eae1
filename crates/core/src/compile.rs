//! Unified compilation entry points for both pipeliners.

use crate::ladder::{compile_ladder, LadderOptions, Rung, RungAttempt};
use crate::portfolio::{compile_portfolio, PortfolioOptions};
use crate::stage::{finish, Backend};
use std::borrow::Cow;
use std::time::Instant;
use swp_codegen::{list_schedule, BaselineLoop, PipelinedLoop};
use swp_heur::{HeurOptions, PipelineError};
use swp_ir::{Ddg, Loop, OptLevel, PassManager};
use swp_machine::Machine;
use swp_most::{MostError, MostOptions};
use swp_obs::Telemetry;
use swp_sat::{SatError, SatOptions};
use swp_verify::{Finding, VerifyLevel, VerifyReport};

/// Which pipeliner to use.
#[derive(Debug, Clone, Default)]
pub enum SchedulerChoice {
    /// The SGI-style heuristic pipeliner (§2) with its options.
    #[default]
    Heuristic,
    /// The heuristic pipeliner with explicit options.
    HeuristicWith(HeurOptions),
    /// The MOST ILP pipeliner (§3) with default options.
    Ilp,
    /// The MOST pipeliner with explicit options.
    IlpWith(MostOptions),
    /// The CDCL difference-logic pipeliner (`swp-sat`) with default
    /// options — the third optimal backend, searching MOST's horizon.
    Sat,
    /// The SAT pipeliner with explicit options.
    SatWith(SatOptions),
    /// The total-compilation degradation ladder (ILP → SAT → heuristic →
    /// escalated heuristic → sequential) with default options.
    Ladder,
    /// The degradation ladder with explicit options (boxed: ladder
    /// options carry every scheduler's configuration plus a chaos plan).
    LadderWith(Box<LadderOptions>),
    /// Race the enabled backends on scoped threads and ship the
    /// highest-priority success (ILP > SAT > heuristic), with default
    /// options. Deterministic: the winner is chosen by fixed priority at
    /// join, never by wall clock.
    Portfolio,
    /// The portfolio with explicit options (boxed: it carries all three
    /// backends' configurations).
    PortfolioWith(Box<PortfolioOptions>),
}

/// Full compile configuration: which pipeliner, and how much independent
/// auditing to run on its output (see [`swp_verify`]).
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// The pipeliner and its options.
    pub choice: SchedulerChoice,
    /// Translation-validation level. [`VerifyLevel::Off`] (the default)
    /// adds zero cost; `Full` also lints the input loop before scheduling.
    pub verify: VerifyLevel,
    /// Mid-end pass-pipeline level run on the loop *before* any scheduler
    /// sees it (ladder rungs included). [`OptLevel::Off`] (the default)
    /// adds zero cost. Part of the schedule-cache key: the same source
    /// loop compiled at different levels yields different code. When
    /// `verify` is on, every pass application is additionally
    /// translation-validated by differential simulation.
    pub opt: OptLevel,
    /// Telemetry handle installed for the duration of the compile (and by
    /// the cache, on whichever thread ends up doing the work). The default
    /// disabled handle collects nothing. Deliberately **not** part of the
    /// schedule-cache key: observing a compile must not change its
    /// identity, so a traced compile aliases an untraced one.
    pub telemetry: Telemetry,
}

impl From<SchedulerChoice> for CompileOptions {
    fn from(choice: SchedulerChoice) -> CompileOptions {
        CompileOptions {
            choice,
            verify: VerifyLevel::Off,
            opt: OptLevel::Off,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Result of compiling one loop.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The expanded pipelined code.
    pub code: PipelinedLoop,
    /// Compile statistics.
    pub stats: CompileStats,
    /// Audit report, when compiled with `verify` on. `None` means the
    /// auditors did not run, not that the code is certified — except on
    /// ladder compiles, whose gate always audits (see [`LadderOptions`]).
    pub audit: Option<VerifyReport>,
    /// The degradation-ladder rung that produced this code; `None` for
    /// direct (non-ladder) compiles.
    pub rung: Option<Rung>,
    /// The ladder's full attempt trace, demotion by demotion; empty for
    /// direct compiles.
    pub attempts: Vec<RungAttempt>,
}

/// Scheduler-independent compile statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompileStats {
    /// MinII of the (final) loop body.
    pub min_ii: u32,
    /// Achieved II.
    pub ii: u32,
    /// Whether the ILP path fell back to the heuristic pipeliner.
    pub fell_back: bool,
    /// Whether the ILP search certified rate-optimality at MinII.
    pub optimal: bool,
    /// Branch-and-bound nodes (ILP), CDCL conflicts (SAT), or backtracks
    /// (heuristic) — the coarse deterministic work measure.
    pub search_effort: u64,
    /// Simplex pivots across all ILP solves, or unit propagations across
    /// all SAT solves (0 for the heuristic). The deterministic
    /// fine-grained work measure behind `pivot_limit`.
    pub pivots: u64,
    /// Whether a wall-clock deadline truncated the search *or* the
    /// mid-end pass pipeline. Such results depend on host load; the
    /// schedule cache refuses to memoize them.
    pub deadline_hit: bool,
    /// Names of the mid-end passes that ran to completion before this
    /// loop was scheduled, in execution order (empty at
    /// [`OptLevel::Off`]). Together with `deadline_hit` this makes a
    /// truncated pipeline distinguishable from a full run.
    pub opt_passes: Vec<&'static str>,
    /// Values spilled (heuristic only).
    pub spills: u32,
    /// Nanoseconds in the pipeliner proper (II search + scheduling),
    /// excluding register allocation.
    pub sched_ns: u64,
    /// Nanoseconds in register allocation (all attempts).
    pub alloc_ns: u64,
    /// Nanoseconds expanding the kernel to prologue/kernel/epilogue form.
    pub expand_ns: u64,
}

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The heuristic pipeliner failed.
    Heuristic(PipelineError),
    /// The ILP pipeliner (and its fallback) failed.
    Ilp(MostError),
    /// The SAT pipeliner (and its fallback) failed.
    Sat(SatError),
    /// A compiler invariant broke (a caught panic or an impossible
    /// state). The structured form of what used to unwind: the job fails,
    /// the pool and the rest of the suite do not.
    Internal {
        /// The ladder rung involved, when the failure is attributable to
        /// one; `None` for failures outside rung isolation (e.g. a panic
        /// caught at the driver boundary).
        rung: Option<Rung>,
        /// Best-effort description (usually the panic message).
        message: String,
    },
    /// Every rung of the degradation ladder was rejected. Only possible
    /// for lint-rejected or empty inputs, or under chaos injection at the
    /// final rung; the trace records why each rung failed.
    LadderExhausted {
        /// One entry per rung attempted, in demotion order.
        attempts: Vec<RungAttempt>,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Heuristic(e) => write!(f, "heuristic pipeliner: {e}"),
            CompileError::Ilp(e) => write!(f, "ILP pipeliner: {e}"),
            CompileError::Sat(e) => write!(f, "SAT pipeliner: {e}"),
            CompileError::Internal { rung, message } => match rung {
                Some(r) => write!(f, "internal compiler error at {r}: {message}"),
                None => write!(f, "internal compiler error: {message}"),
            },
            CompileError::LadderExhausted { attempts } => {
                write!(
                    f,
                    "degradation ladder exhausted after {} attempts",
                    attempts.len()
                )?;
                for a in attempts {
                    write!(f, "; {}", a.render())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Software-pipeline a loop with the chosen scheduler and expand it to
/// executable form.
///
/// # Errors
///
/// Returns [`CompileError`] when the chosen pipeliner (including any
/// fallback) cannot produce a schedule.
pub fn compile_loop(
    lp: &Loop,
    machine: &Machine,
    choice: &SchedulerChoice,
) -> Result<CompiledLoop, CompileError> {
    match Plan::of(choice) {
        Plan::Direct(backend) => backend.schedule(lp, machine).map(finish),
        Plan::Ladder(opts) => compile_ladder(lp, machine, &opts),
        Plan::Portfolio(opts) => compile_portfolio(lp, machine, &opts),
    }
}

/// A [`SchedulerChoice`] with its defaults filled in: one backend, or a
/// ladder or portfolio over several.
enum Plan<'a> {
    Direct(Backend),
    Ladder(Cow<'a, LadderOptions>),
    Portfolio(Cow<'a, PortfolioOptions>),
}

impl Plan<'_> {
    fn of(choice: &SchedulerChoice) -> Plan<'_> {
        match choice {
            SchedulerChoice::Heuristic => Plan::Direct(Backend::Heuristic(HeurOptions::default())),
            SchedulerChoice::HeuristicWith(o) => Plan::Direct(Backend::Heuristic(o.clone())),
            SchedulerChoice::Ilp => Plan::Direct(Backend::Ilp(MostOptions::default())),
            SchedulerChoice::IlpWith(o) => Plan::Direct(Backend::Ilp(o.clone())),
            SchedulerChoice::Sat => Plan::Direct(Backend::Sat(SatOptions::default())),
            SchedulerChoice::SatWith(o) => Plan::Direct(Backend::Sat(o.clone())),
            SchedulerChoice::Ladder => Plan::Ladder(Cow::Owned(LadderOptions::default())),
            SchedulerChoice::LadderWith(o) => Plan::Ladder(Cow::Borrowed(o)),
            SchedulerChoice::Portfolio => Plan::Portfolio(Cow::Owned(PortfolioOptions::default())),
            SchedulerChoice::PortfolioWith(o) => Plan::Portfolio(Cow::Borrowed(o)),
        }
    }
}

/// [`compile_loop`] plus the independent audit pipeline: at
/// [`VerifyLevel::Full`] the input loop is linted *before* scheduling, and
/// the compiled artifact is re-validated by every `swp-verify` analyzer;
/// at [`VerifyLevel::Schedule`] only the schedule auditor runs. The report
/// lands in [`CompiledLoop::audit`]; findings never abort the compile —
/// callers decide how strict to be (see `experiments audit -D`).
///
/// # Errors
///
/// Returns [`CompileError`] when the chosen pipeliner (including any
/// fallback) cannot produce a schedule.
pub fn compile_loop_with(
    lp: &Loop,
    machine: &Machine,
    options: &CompileOptions,
) -> Result<CompiledLoop, CompileError> {
    // Only an enabled handle takes over; a disabled one must not shadow a
    // collector the caller installed ambiently (e.g. `solver -D`).
    let _telemetry = options
        .telemetry
        .is_enabled()
        .then(|| options.telemetry.install());
    let _span = swp_obs::span("compile")
        .with_s("loop", lp.name())
        .with_i("ops", lp.len() as i64);
    // The mid-end pass pipeline runs in front of *every* scheduler
    // choice, ladder included: each rung then schedules the optimized
    // body, so demotion never discards the optimization work.
    let plan = Plan::of(&options.choice);
    let staged = run_opt_stage(lp, machine, options, &plan);
    let lp = staged.lp.as_ref().unwrap_or(lp);
    // Ladder compiles carry their own per-rung verify gate; its report
    // (lints included) is authoritative and already attached, so a second
    // outer audit would only duplicate findings.
    let verify = match plan {
        Plan::Ladder(_) => VerifyLevel::Off,
        _ => options.verify,
    };
    let lints = if verify == VerifyLevel::Full {
        swp_verify::lint_findings(lp, machine)
    } else {
        Vec::new()
    };
    let mut compiled = compile_loop(lp, machine, &options.choice)?;
    if verify != VerifyLevel::Off {
        let mut report = swp_verify::audit(&compiled.code, machine, verify);
        report.findings.splice(0..0, lints);
        compiled.audit = Some(report);
    }
    staged.record(&mut compiled);
    if options.telemetry.is_enabled() {
        observe_quality(&compiled);
    }
    Ok(compiled)
}

/// What the mid-end stage did to one compile: the optimized body (when
/// any pass changed it), the passes that completed, and the pipeline's
/// own `SWP-P0xx` findings mapped onto audit [`Finding`]s.
#[derive(Default)]
struct OptStage {
    lp: Option<Loop>,
    passes_run: Vec<&'static str>,
    truncated: bool,
    findings: Vec<Finding>,
}

impl OptStage {
    /// Fold the stage's bookkeeping into the finished compile.
    fn record(self, compiled: &mut CompiledLoop) {
        compiled.stats.opt_passes = self.passes_run;
        // A deadline that cut the pass pipeline short makes the emitted
        // code depend on host load exactly like a truncated ILP search:
        // mark the compile transient so the schedule cache never memoizes
        // a partially-optimized result as if it were the full pipeline's.
        compiled.stats.deadline_hit |= self.truncated;
        if let Some(report) = &mut compiled.audit {
            report.findings.splice(0..0, self.findings);
        }
    }
}

/// Run the [`PassManager`] over a clone of the input loop, under an
/// `opt` telemetry span with per-pass application counters. Returns
/// an empty [`OptStage`] (and pays nothing) at [`OptLevel::Off`].
fn run_opt_stage(lp: &Loop, machine: &Machine, options: &CompileOptions, plan: &Plan) -> OptStage {
    if options.opt == OptLevel::Off || lp.is_empty() {
        return OptStage::default();
    }
    let _span = swp_obs::span("opt")
        .with_s("loop", lp.name())
        .with_s("level", options.opt.name());
    let mut body = lp.clone();
    // Replaying twelve iterations bit-exactly is the strongest oracle the
    // mid-end has: zero tolerance, so any pass that is not a bit-identical
    // rewrite (given the sim's own eval semantics) is reverted.
    let validate = |a: &Loop, b: &Loop| swp_sim::check_loops_equivalent(a, b, 12, 0.0);
    let mut pm = PassManager::new(options.opt).with_deadline(opt_deadline(plan));
    if options.verify != VerifyLevel::Off {
        pm = pm.with_validator(&validate);
    }
    let outcome = pm.run(&mut body, machine);
    observe_opt(&outcome);
    let findings = outcome
        .findings
        .iter()
        .map(|f| Finding::warning(f.code, format!("{}: {}", f.pass, f.message)))
        .collect();
    OptStage {
        lp: (outcome.ops_removed() > 0 || outcome.total_applications() > 0).then_some(body),
        passes_run: outcome.passes_run,
        truncated: outcome.truncated,
        findings,
    }
}

/// The wall-clock budget the mid-end inherits from the scheduler choice:
/// optimization shares the loop's compile-time allowance rather than
/// adding an unbounded stage in front of it. Heuristic compiles carry no
/// wall budget, so their pipeline runs to fixpoint (it is bounded by the
/// pass manager's round cap anyway). A ladder's or portfolio's budget is
/// its ILP stage's: ILP is never cancelled, so its allowance bounds both.
fn opt_deadline(plan: &Plan) -> Option<Instant> {
    let budget = match plan {
        Plan::Direct(Backend::Ilp(o)) => o.loop_time_limit.or(o.time_limit),
        Plan::Direct(Backend::Sat(o)) => o.loop_time_limit.or(o.time_limit),
        Plan::Direct(_) => None,
        Plan::Ladder(opts) => opts.most.loop_time_limit.or(opts.most.time_limit),
        Plan::Portfolio(opts) => opts.most.loop_time_limit.or(opts.most.time_limit),
    };
    budget.map(|d| Instant::now() + d)
}

/// Exact counters for one pass-pipeline run: per-pass application
/// counts, ops removed, and RecMII before/after. All deterministic, so
/// they aggregate bit-identically across worker threads.
fn observe_opt(outcome: &swp_ir::OptOutcome) {
    use swp_obs::{count, Counter};
    for &(name, n) in &outcome.applications {
        let counter = match name {
            "fold" => Counter::OptPassFold,
            "simplify" => Counter::OptPassSimplify,
            "strength" => Counter::OptPassStrength,
            "gvn" => Counter::OptPassGvn,
            "dce" => Counter::OptPassDce,
            "reassoc" => Counter::OptPassReassoc,
            _ => continue,
        };
        count(counter, u64::from(n));
    }
    count(Counter::OptOpsRemoved, outcome.ops_removed() as u64);
    count(Counter::OptRecMiiBefore, u64::from(outcome.rec_mii_before));
    count(Counter::OptRecMiiAfter, u64::from(outcome.rec_mii_after));
}

/// Schedule-quality histograms for one successful compile. Gated on an
/// enabled handle by the caller: `max_live` re-derives pressure from the
/// schedule, which the disabled path must not pay for.
fn observe_quality(compiled: &CompiledLoop) {
    use swp_obs::{observe, Histo};
    let stats = &compiled.stats;
    observe(
        Histo::IiMinusMii,
        u64::from(stats.ii.saturating_sub(stats.min_ii)),
    );
    let pressure = swp_regalloc::max_live(compiled.code.body(), compiled.code.schedule());
    observe(
        Histo::MaxLive,
        u64::from(pressure.into_iter().max().unwrap_or(0)),
    );
    let total_ns = stats
        .sched_ns
        .saturating_add(stats.alloc_ns)
        .saturating_add(stats.expand_ns);
    observe(Histo::CompileTimeUs, total_ns / 1_000);
}

/// Build the non-pipelined baseline (software pipelining "disabled",
/// §4.1): a simple list schedule executed sequentially.
pub fn compile_baseline(lp: &Loop, machine: &Machine) -> BaselineLoop {
    let ddg = Ddg::build(lp, machine);
    list_schedule(lp, &ddg, machine)
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
    fn both_schedulers_compile_saxpy_to_the_same_ii() {
        let m = Machine::r8000();
        let h = compile_loop(&saxpy(), &m, &SchedulerChoice::Heuristic).expect("heur");
        let i = compile_loop(&saxpy(), &m, &SchedulerChoice::Ilp).expect("ilp");
        assert_eq!(h.stats.ii, i.stats.ii);
        assert_eq!(h.stats.min_ii, i.stats.min_ii);
        assert!(!i.stats.fell_back);
    }

    #[test]
    fn verified_compile_attaches_a_clean_report() {
        let m = Machine::r8000();
        let opts = CompileOptions {
            choice: SchedulerChoice::Heuristic,
            verify: VerifyLevel::Full,
            ..CompileOptions::default()
        };
        let c = compile_loop_with(&saxpy(), &m, &opts).expect("compiles");
        let report = c.audit.expect("audit ran");
        assert_eq!(report.level, VerifyLevel::Full);
        assert!(report.is_clean(), "{}", report.render_human());
        // The default path never pays for verification.
        let off = compile_loop_with(&saxpy(), &m, &CompileOptions::default()).expect("compiles");
        assert!(off.audit.is_none());
    }

    #[test]
    fn baseline_compiles() {
        let m = Machine::r8000();
        let base = compile_baseline(&saxpy(), &m);
        assert!(base.cycles_per_iter() >= 9);
    }
}
