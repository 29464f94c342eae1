//! Whole-benchmark measurement: compile and simulate every hot loop of a
//! SPEC-like suite and aggregate to a single relative time.
//!
//! Every runner takes a [`Driver`] and fans the per-loop work across its
//! thread pool, consulting its schedule cache. Results are **identical**
//! at every thread count, cached or not — per-loop outcomes land in
//! suite order regardless of completion order, and the weighted
//! aggregation runs over that ordered vector (`tests/determinism.rs`
//! locks this down against a one-thread uncached driver). Pass
//! `&Driver::uncached(1)` for a plain sequential run.

use crate::compile::{compile_baseline, CompileError, CompileOptions, SchedulerChoice};
use crate::ladder::{LadderOptions, Rung, RungAttempt};
use crate::par::Driver;
use swp_kernels::Suite;
use swp_machine::Machine;
use swp_sim::{simulate, simulate_baseline};
use swp_verify::{Severity, VerifyLevel, VerifyReport};

/// Result of running one suite under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Suite name.
    pub name: String,
    /// Weighted aggregate time (arbitrary units; lower is better).
    pub time: f64,
    /// Per-loop cycle counts in suite order.
    pub per_loop_cycles: Vec<u64>,
    /// Per-loop achieved IIs (0 for the baseline configuration).
    pub per_loop_ii: Vec<u32>,
}

/// Compile and simulate a suite with the given scheduler through
/// `driver`: loops compile (through the driver's cache) and simulate in
/// parallel, and the result is identical at every thread count —
/// including which error surfaces when several loops fail (the earliest
/// in suite order wins).
///
/// # Errors
///
/// Propagates the first loop (in suite order) that fails to compile.
pub fn run_suite_with(
    driver: &Driver,
    suite: &Suite,
    machine: &Machine,
    choice: &SchedulerChoice,
) -> Result<SuiteResult, CompileError> {
    let options = CompileOptions::from(choice.clone());
    let per_loop: Vec<Result<(u64, u32), CompileError>> =
        driver.run_indexed(suite.loops.len(), |i| {
            let wl = &suite.loops[i];
            let c = driver.compile_with(&wl.body, machine, &options)?;
            let r = simulate(&c.code, wl.trip, machine);
            Ok((r.cycles, c.stats.ii))
        });
    let mut cycles = Vec::with_capacity(suite.loops.len());
    let mut iis = Vec::with_capacity(suite.loops.len());
    for r in per_loop {
        let (c, ii) = r?;
        cycles.push(c);
        iis.push(ii);
    }
    let per: Vec<f64> = cycles.iter().map(|&c| c as f64).collect();
    Ok(SuiteResult {
        name: suite.name.to_owned(),
        time: suite.aggregate_time(&per),
        per_loop_cycles: cycles,
        per_loop_ii: iis,
    })
}

/// Run a suite with software pipelining disabled (the list-scheduled
/// baseline of §4.1) over `driver`'s thread pool. Baseline list
/// schedules are too cheap to cache; only the simulation fans out.
pub fn run_suite_baseline_with(driver: &Driver, suite: &Suite, machine: &Machine) -> SuiteResult {
    let cycles: Vec<u64> = driver.run_indexed(suite.loops.len(), |i| {
        let wl = &suite.loops[i];
        let base = compile_baseline(&wl.body, machine);
        simulate_baseline(&base, wl.trip, machine).cycles
    });
    let per: Vec<f64> = cycles.iter().map(|&c| c as f64).collect();
    SuiteResult {
        name: suite.name.to_owned(),
        time: suite.aggregate_time(&per),
        per_loop_cycles: cycles,
        per_loop_ii: vec![0; suite.loops.len()],
    }
}

/// Audit report for one suite loop.
#[derive(Debug, Clone)]
pub struct LoopAudit {
    /// Loop name within the suite.
    pub loop_name: String,
    /// Achieved II.
    pub ii: u32,
    /// The auditors' findings (lints first, then analyzer findings).
    pub report: VerifyReport,
}

/// Audit reports for every loop of a suite under one scheduler.
#[derive(Debug, Clone)]
pub struct SuiteAudit {
    /// Suite name.
    pub name: String,
    /// Per-loop reports in suite order.
    pub loops: Vec<LoopAudit>,
}

impl SuiteAudit {
    /// Total findings at one severity across all loops.
    pub fn count(&self, severity: Severity) -> usize {
        self.loops.iter().map(|l| l.report.count(severity)).sum()
    }

    /// Whether no loop produced an `Error` finding.
    pub fn is_clean(&self) -> bool {
        self.loops.iter().all(|l| l.report.is_clean())
    }
}

/// Compile every loop of a suite through `driver` with `options` and
/// collect the audit reports. This is the engine of `experiments audit`:
/// it exercises the full translation-validation pipeline over real
/// workloads without simulating them.
///
/// # Errors
///
/// Propagates the first loop (in suite order) that fails to compile —
/// a compile failure is not a finding, it means there is nothing to audit.
pub fn audit_suite_with(
    driver: &Driver,
    suite: &Suite,
    machine: &Machine,
    options: &CompileOptions,
) -> Result<SuiteAudit, CompileError> {
    let per_loop: Vec<Result<LoopAudit, CompileError>> =
        driver.run_indexed(suite.loops.len(), |i| {
            let wl = &suite.loops[i];
            let c = driver.compile_with(&wl.body, machine, options)?;
            Ok(LoopAudit {
                loop_name: wl.name.to_owned(),
                ii: c.stats.ii,
                report: c.audit.clone().unwrap_or_default(),
            })
        });
    let loops = per_loop.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(SuiteAudit {
        name: suite.name.to_owned(),
        loops,
    })
}

/// The accepted outcome of one loop's trip down the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderSuccess {
    /// The rung that produced the shipped schedule.
    pub rung: Rung,
    /// Achieved II.
    pub ii: u32,
    /// Whether the shipped schedule's gate report is clean (it always
    /// passed the gate — this additionally counts warnings as absent).
    pub clean: bool,
    /// The full attempt trace, demotion by demotion.
    pub attempts: Vec<RungAttempt>,
}

/// One loop's ladder outcome: a success with its trace, or the error that
/// exhausted (or aborted) the ladder. Errors are *data* here — a
/// quarantined loop is a row in the report, not a failure of the run.
#[derive(Debug, Clone)]
pub struct LadderLoopReport {
    /// Loop name within the suite.
    pub loop_name: String,
    /// The outcome.
    pub outcome: Result<LadderSuccess, CompileError>,
}

impl LadderLoopReport {
    /// The attempt trace, wherever it lives (success or exhaustion);
    /// empty for errors without one (e.g. a caught in-flight panic).
    pub fn attempts(&self) -> &[RungAttempt] {
        match &self.outcome {
            Ok(s) => &s.attempts,
            Err(CompileError::LadderExhausted { attempts }) => attempts,
            Err(_) => &[],
        }
    }

    /// Injected faults that escaped their containment on this loop.
    pub fn escapes(&self) -> usize {
        self.attempts().iter().filter(|a| a.escaped()).count()
    }
}

/// Ladder outcomes for every loop of a suite — the quarantine report:
/// rung usage, escapes, and which loops no rung could save.
#[derive(Debug, Clone)]
pub struct SuiteLadder {
    /// Suite name.
    pub name: String,
    /// Per-loop reports in suite order.
    pub loops: Vec<LadderLoopReport>,
}

impl SuiteLadder {
    /// How many loops each rung rescued, indexed by [`Rung::index`].
    pub fn rung_usage(&self) -> [usize; 5] {
        let mut usage = [0; 5];
        for l in &self.loops {
            if let Ok(s) = &l.outcome {
                usage[s.rung.index()] += 1;
            }
        }
        usage
    }

    /// Loops whose ladder produced no schedule at all.
    pub fn quarantined(&self) -> usize {
        self.loops.iter().filter(|l| l.outcome.is_err()).count()
    }

    /// Injected faults that escaped containment, summed over all loops.
    pub fn escapes(&self) -> usize {
        self.loops.iter().map(LadderLoopReport::escapes).sum()
    }

    /// Whether every loop compiled and every shipped schedule is clean.
    pub fn all_clean(&self) -> bool {
        self.loops
            .iter()
            .all(|l| matches!(&l.outcome, Ok(s) if s.clean))
    }
}

/// Run every loop of a suite down the degradation ladder through
/// `driver`'s pool and cache, and collect the quarantine report. Unlike
/// the other suite runners this never propagates an error: a loop that
/// exhausts the ladder (or dies to a caught panic) is reported, and the
/// rest of the suite still completes — which is the whole point of the
/// ladder.
pub fn ladder_suite_with(
    driver: &Driver,
    suite: &Suite,
    machine: &Machine,
    opts: &LadderOptions,
) -> SuiteLadder {
    let options = CompileOptions {
        choice: SchedulerChoice::LadderWith(Box::new(opts.clone())),
        // The ladder's own gate audits; the outer verify level is unused
        // on this path (see `compile_loop_with`).
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    };
    let loops: Vec<LadderLoopReport> = driver.run_indexed(suite.loops.len(), |i| {
        let wl = &suite.loops[i];
        let outcome = driver
            .compile_with(&wl.body, machine, &options)
            .map(|c| LadderSuccess {
                rung: c.rung.expect("ladder results carry their rung"),
                ii: c.stats.ii,
                clean: c.audit.as_ref().is_some_and(VerifyReport::is_clean),
                attempts: c.attempts.clone(),
            });
        LadderLoopReport {
            loop_name: wl.name.to_owned(),
            outcome,
        }
    });
    SuiteLadder {
        name: suite.name.to_owned(),
        loops,
    }
}

/// Geometric mean of per-suite ratios — the SPEC aggregation the paper
/// uses ("calculated as the geometric mean of the results on each
/// benchmark").
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_beats_baseline_on_alvinn() {
        let m = Machine::r8000();
        let suite = swp_kernels::spec_suites()
            .into_iter()
            .find(|s| s.name == "alvinn")
            .expect("alvinn exists");
        let driver = Driver::uncached(1);
        let pipe =
            run_suite_with(&driver, &suite, &m, &SchedulerChoice::Heuristic).expect("pipelines");
        let base = run_suite_baseline_with(&driver, &suite, &m);
        assert!(
            base.time > 1.5 * pipe.time,
            "baseline {} vs pipelined {}",
            base.time,
            pipe.time
        );
    }

    #[test]
    fn driver_suite_run_matches_sequential() {
        let m = Machine::r8000();
        let suite = swp_kernels::spec_suites()
            .into_iter()
            .find(|s| s.name == "swm256")
            .expect("swm256 exists");
        let reference = Driver::uncached(1);
        let seq =
            run_suite_with(&reference, &suite, &m, &SchedulerChoice::Heuristic).expect("compiles");
        let driver = Driver::new(4);
        let par =
            run_suite_with(&driver, &suite, &m, &SchedulerChoice::Heuristic).expect("compiles");
        assert_eq!(seq, par);
        let base_seq = run_suite_baseline_with(&reference, &suite, &m);
        let base_par = run_suite_baseline_with(&driver, &suite, &m);
        assert_eq!(base_seq, base_par);
    }

    #[test]
    fn suite_audit_is_clean_for_the_heuristic_pipeliner() {
        let m = Machine::r8000();
        let suite = swp_kernels::spec_suites()
            .into_iter()
            .find(|s| s.name == "alvinn")
            .expect("alvinn exists");
        let driver = Driver::new(2);
        let opts = CompileOptions {
            choice: SchedulerChoice::Heuristic,
            verify: swp_verify::VerifyLevel::Full,
            ..CompileOptions::default()
        };
        let audit = audit_suite_with(&driver, &suite, &m, &opts).expect("compiles");
        assert_eq!(audit.loops.len(), suite.loops.len());
        assert!(audit.is_clean(), "unexpected findings in {:?}", audit);
        assert!(audit.loops.iter().all(|l| l.ii > 0));
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
    }

    #[test]
    fn ladder_suite_compiles_every_loop_and_accounts_for_each() {
        let m = Machine::r8000();
        let suite = swp_kernels::spec_suites()
            .into_iter()
            .find(|s| s.name == "alvinn")
            .expect("alvinn exists");
        let driver = Driver::new(2);
        let report = ladder_suite_with(&driver, &suite, &m, &crate::LadderOptions::default());
        assert_eq!(report.loops.len(), suite.loops.len());
        assert_eq!(report.quarantined(), 0, "nothing to quarantine");
        assert_eq!(report.escapes(), 0, "no chaos, no escapes");
        assert!(report.all_clean(), "{:?}", report);
        assert_eq!(
            report.rung_usage().iter().sum::<usize>(),
            suite.loops.len(),
            "every loop is accounted to exactly one rung"
        );
    }
}
