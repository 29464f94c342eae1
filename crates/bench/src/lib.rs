//! Experiment implementations for every figure and table of the paper.
//!
//! Each `fig*`/`tab*` function returns structured data; the `experiments`
//! binary renders them as the paper's rows. The figure functions take a
//! [`Driver`]; pass `&Driver::uncached(1)` for a plain sequential run.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured outcomes.

use showdown::{
    audit_suite_with, compare_with, geometric_mean, ladder_suite_with, run_suite_baseline_with,
    run_suite_with, ChaosFault, ChaosOptions, CompileError, CompileOptions, Corruption, Driver,
    LadderOptions, OptLevel, Rung, SchedulerChoice, Severity, SuiteAudit, SuiteLadder, VerifyLevel,
};
use std::time::{Duration, Instant};
use swp_heur::{Buffers, HeurOptions, PriorityHeuristic};
use swp_kernels::{livermore, spec_suites, GenParams, Suite, WeightedLoop};
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_obs::{Counter, Telemetry};
use swp_sat::SatOptions;

/// Trip counts of the SPEC-like suites are divided by this (never below
/// 8) so the whole harness runs in CI time; Livermore's long trips are
/// halved.
const TRIP_SCALE: u64 = 4;

/// The SPEC-like suites with trip counts scaled by [`TRIP_SCALE`].
fn scaled_suites() -> Vec<Suite> {
    let mut suites = spec_suites();
    for suite in &mut suites {
        for l in &mut suite.loops {
            l.trip = (l.trip / TRIP_SCALE).max(8);
        }
    }
    suites
}

/// One row of Figure 2: SPECmark-style ratio of baseline to pipelined
/// time (pipelining speedup; > 1 means pipelining wins).
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub name: String,
    /// Simulated time with pipelining disabled.
    pub baseline_time: f64,
    /// Simulated time with the heuristic pipeliner.
    pub pipelined_time: f64,
}

impl Fig2Row {
    /// Speedup from enabling software pipelining.
    pub fn speedup(&self) -> f64 {
        self.baseline_time / self.pipelined_time.max(1e-12)
    }
}

/// Figure 2: SPEC-like suites with pipelining enabled vs disabled.
/// Suites fan across `driver`'s pool; each suite's inner loops run on a
/// sequential view sharing the driver's cache.
pub fn fig2_with(driver: &Driver, machine: &Machine) -> Vec<Fig2Row> {
    let suites = scaled_suites();
    driver.run_indexed(suites.len(), |i| {
        let suite = &suites[i];
        let inner = driver.sequential_view();
        let base = run_suite_baseline_with(&inner, suite, machine);
        let pipe = run_suite_with(&inner, suite, machine, &SchedulerChoice::Heuristic)
            .expect("every suite loop pipelines");
        Fig2Row {
            name: suite.name.to_owned(),
            baseline_time: base.time,
            pipelined_time: pipe.time,
        }
    })
}

/// Geometric-mean speedup over Figure 2 rows.
pub fn fig2_geomean(rows: &[Fig2Row]) -> f64 {
    geometric_mean(&rows.iter().map(Fig2Row::speedup).collect::<Vec<_>>())
}

/// One row of Figure 3: per-suite time ratio of each single heuristic
/// against all four (1.0 = as good as the full set; < 1 = slower).
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Benchmark name.
    pub name: String,
    /// Ratio (all-four time / single-heuristic time) per heuristic, in
    /// [`PriorityHeuristic::ALL`] order.
    pub ratios: [f64; 4],
}

/// Figure 3: the effect of restricting to one scheduling heuristic.
/// Loops the restricted pipeliner cannot handle fall back to the
/// list-scheduled baseline, exactly as the production compiler would.
pub fn fig3_with(driver: &Driver, machine: &Machine) -> Vec<Fig3Row> {
    use swp_sim::{simulate, simulate_baseline};
    let suites = scaled_suites();
    driver.run_indexed(suites.len(), |si| {
        let suite = &suites[si];
        let inner = driver.sequential_view();
        let suite_time = |choice: SchedulerChoice| -> f64 {
            let options = CompileOptions::from(choice);
            let cycles: Vec<f64> = suite
                .loops
                .iter()
                .map(|wl| match inner.compile_with(&wl.body, machine, &options) {
                    Ok(c) => simulate(&c.code, wl.trip, machine).cycles as f64,
                    Err(_) => {
                        let base = showdown::compile_baseline(&wl.body, machine);
                        simulate_baseline(&base, wl.trip, machine).cycles as f64
                    }
                })
                .collect();
            suite.aggregate_time(&cycles)
        };
        let all = suite_time(SchedulerChoice::Heuristic);
        let mut ratios = [0.0f64; 4];
        for (i, h) in PriorityHeuristic::ALL.iter().enumerate() {
            let opts = HeurOptions {
                heuristics: vec![*h],
                ..HeurOptions::default()
            };
            ratios[i] = all / suite_time(SchedulerChoice::HeuristicWith(opts));
        }
        Fig3Row {
            name: suite.name.to_owned(),
            ratios,
        }
    })
}

/// One row of Figure 4: performance improvement from the memory-bank
/// pairing heuristics (> 1 = banks heuristic helps).
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Benchmark name.
    pub name: String,
    /// Time with the heuristic disabled / time with it enabled.
    pub improvement: f64,
}

/// Figure 4: memory-bank heuristic on vs off.
pub fn fig4_with(driver: &Driver, machine: &Machine) -> Vec<Fig4Row> {
    let suites = scaled_suites();
    driver.run_indexed(suites.len(), |i| {
        let suite = &suites[i];
        let inner = driver.sequential_view();
        let on = run_suite_with(&inner, suite, machine, &SchedulerChoice::Heuristic)
            .expect("pipelines")
            .time;
        let off_opts = HeurOptions {
            bank_pairing: false,
            explore_stalls: false,
            ..HeurOptions::default()
        };
        let off = run_suite_with(
            &inner,
            suite,
            machine,
            &SchedulerChoice::HeuristicWith(off_opts),
        )
        .expect("pipelines")
        .time;
        Fig4Row {
            name: suite.name.to_owned(),
            improvement: off / on,
        }
    })
}

/// One row of Figure 5: ILP-scheduled code relative to MIPSpro, with the
/// SGI bank pairing enabled (solid bars) and disabled (striped bars).
/// Values > 1 mean the ILP code is faster.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark name.
    pub name: String,
    /// heuristic-time / ILP-time, SGI bank pairing on.
    pub vs_pairing: f64,
    /// heuristic-time / ILP-time, SGI bank pairing off.
    pub vs_no_pairing: f64,
    /// Fraction of suite loops where MOST fell back to the heuristic.
    pub fallback_fraction: f64,
}

/// Figure 5: the showdown — ILP vs heuristic on the SPEC-like suites.
/// The per-loop fallback recount recompiles every loop with the same MOST
/// options as the suite run, so under a caching driver that whole pass
/// is served from the cache.
pub fn fig5_with(driver: &Driver, machine: &Machine) -> Vec<Fig5Row> {
    let most = SchedulerChoice::Ilp;
    let most_options = CompileOptions::from(most.clone());
    let suites = scaled_suites();
    driver.run_indexed(suites.len(), |i| {
        let suite = &suites[i];
        let inner = driver.sequential_view();
        let ilp = run_suite_with(&inner, suite, machine, &most).expect("most with fallback");
        let heur_on = run_suite_with(&inner, suite, machine, &SchedulerChoice::Heuristic)
            .expect("pipelines")
            .time;
        let off_opts = HeurOptions {
            bank_pairing: false,
            explore_stalls: false,
            ..HeurOptions::default()
        };
        let heur_off = run_suite_with(
            &inner,
            suite,
            machine,
            &SchedulerChoice::HeuristicWith(off_opts),
        )
        .expect("pipelines")
        .time;
        // Count fallbacks by recompiling each loop individually.
        let mut fallbacks = 0usize;
        for wl in &suite.loops {
            if let Ok(c) = inner.compile_with(&wl.body, machine, &most_options) {
                fallbacks += usize::from(c.stats.fell_back);
            }
        }
        Fig5Row {
            name: suite.name.to_owned(),
            vs_pairing: heur_on / ilp.time,
            vs_no_pairing: heur_off / ilp.time,
            fallback_fraction: fallbacks as f64 / suite.loops.len() as f64,
        }
    })
}

/// One row of Figure 6 / Figure 7: a Livermore kernel compared across
/// schedulers.
#[derive(Debug, Clone)]
pub struct LivermoreRow {
    /// Kernel number (1-24).
    pub number: u32,
    /// Kernel name.
    pub name: &'static str,
    /// heuristic/ILP cycle ratio at the short trip count (Fig. 6).
    pub relative_short: f64,
    /// heuristic/ILP cycle ratio at the long trip count (Fig. 6).
    pub relative_long: f64,
    /// MIPSpro − ILP total registers (Fig. 7).
    pub reg_delta: i64,
    /// MIPSpro − ILP overhead cycles (Fig. 7).
    pub overhead_delta: i64,
    /// Whether both schedulers reached the same II.
    pub same_ii: bool,
    /// Whether MOST fell back.
    pub ilp_fell_back: bool,
}

/// Figures 6 and 7: per-Livermore-kernel comparison; kernels fan across
/// `driver`'s pool.
pub fn fig6_fig7_with(driver: &Driver, machine: &Machine) -> Vec<LivermoreRow> {
    let most = SchedulerChoice::Ilp;
    let kernels = livermore();
    driver.run_indexed(kernels.len(), |i| {
        let k = &kernels[i];
        let c = compare_with(
            driver,
            &k.body,
            machine,
            &SchedulerChoice::Heuristic,
            &most,
            k.short_trip,
            k.long_trip / 2,
        )
        .expect("both schedulers handle Livermore");
        LivermoreRow {
            number: k.number,
            name: k.name,
            relative_short: c.relative_short(),
            relative_long: c.relative_long(),
            reg_delta: c.reg_delta(),
            overhead_delta: c.overhead_delta(),
            same_ii: c.heuristic.ii == c.ilp.ii,
            ilp_fell_back: c.ilp.fell_back,
        }
    })
}

/// §4.7's compile-speed comparison over a set of loops.
#[derive(Debug, Clone, Copy)]
pub struct CompileSpeed {
    /// Wall-clock in the heuristic scheduler: per loop, the fastest of
    /// [`HEURISTIC_PASSES`] runs, summed over the loops. One run is short
    /// enough that host noise would swing the ratio.
    pub heuristic: Duration,
    /// Wall-clock in the ILP scheduler (no fallback, so failures burn
    /// their full budget as in the paper's 3-minute limit).
    pub ilp: Duration,
    /// Loops measured.
    pub loops: usize,
}

impl CompileSpeed {
    /// The paper's ratio (67,634 s / 261 s ≈ 260×).
    pub fn ratio(&self) -> f64 {
        self.ilp.as_secs_f64() / self.heuristic.as_secs_f64().max(1e-9)
    }
}

/// Heuristic runs per loop [`compile_speed`] times; it keeps the fastest.
pub const HEURISTIC_PASSES: usize = 5;

/// Table (§4.7): total scheduling time, heuristic vs ILP. Each loop's
/// heuristic runs are timed right before MOST schedules that loop, so a
/// slow phase of the host lands on both sides of the ratio alike.
pub fn compile_speed(machine: &Machine) -> CompileSpeed {
    let loops: Vec<_> = spec_suites()
        .into_iter()
        .flat_map(|s| s.loops.into_iter().map(|l| l.body))
        .collect();
    let most_opts = MostOptions::default().without_fallback();
    let (mut heuristic, mut ilp) = (Duration::ZERO, Duration::ZERO);
    for lp in &loops {
        heuristic += (0..HEURISTIC_PASSES)
            .map(|_| {
                let t0 = Instant::now();
                let _ = swp_heur::pipeline(lp, machine, &HeurOptions::default());
                t0.elapsed()
            })
            .min()
            .expect("at least one run");
        let t0 = Instant::now();
        let _ = swp_most::pipeline_most(lp, machine, &most_opts);
        ilp += t0.elapsed();
    }
    CompileSpeed {
        heuristic,
        ilp,
        loops: loops.len(),
    }
}

/// §5.0's loop-size scalability: largest random loop each scheduler
/// handles within a fixed per-loop budget.
#[derive(Debug, Clone, Copy)]
pub struct LoopSize {
    /// Largest op count the heuristic scheduled.
    pub heuristic_max: usize,
    /// Largest op count MOST (no fallback) scheduled.
    pub most_max: usize,
}

/// Sweep loop sizes; per-loop budget fixed (the paper's 3-minute analogue).
pub fn loop_size(machine: &Machine) -> LoopSize {
    let most_opts = MostOptions::default().without_fallback();
    let mut heuristic_max = 0;
    let mut most_max = 0;
    for ops in [10, 20, 30, 45, 60, 80, 100, 116] {
        let lp = swp_kernels::random_loop(
            &GenParams {
                ops,
                ..GenParams::default()
            },
            42,
        );
        if swp_heur::pipeline(&lp, machine, &HeurOptions::default()).is_ok() {
            heuristic_max = heuristic_max.max(lp.len());
        }
        if swp_most::pipeline_most(&lp, machine, &most_opts).is_ok() {
            most_max = most_max.max(lp.len());
        }
    }
    LoopSize {
        heuristic_max,
        most_max,
    }
}

/// §5.0's II comparison: on how many loops does each scheduler achieve a
/// strictly lower II?
#[derive(Debug, Clone, Copy, Default)]
pub struct IiCompare {
    /// Loops where the ILP II is strictly lower.
    pub ilp_wins: u32,
    /// Loops where the heuristic II is strictly lower (MOST timed out to a
    /// worse II or fell back at a higher one).
    pub heur_wins: u32,
    /// Equal IIs.
    pub ties: u32,
    /// ILP wins remaining after raising the heuristic backtrack budget
    /// (§5.0: "a very modest increase in the backtracking limits …
    /// equalized the situation").
    pub ilp_wins_after_budget_increase: u32,
}

/// Table (§5.0): II comparison over Livermore + suite loops. The MOST
/// compiles use the same options as Figure 5 (and the same loops), so in
/// a shared-cache run the entire suite-loop sweep is served from the
/// cache; loops where MOST fell back to the heuristic are excluded from
/// the comparison, which is equivalent to the fallback-disabled sweep (a
/// fallback result carries the heuristic's II, not MOST's).
pub fn ii_compare_with(driver: &Driver, machine: &Machine) -> IiCompare {
    let heur = CompileOptions::from(SchedulerChoice::Heuristic);
    let most = CompileOptions::from(SchedulerChoice::Ilp);
    let big = CompileOptions::from(SchedulerChoice::HeuristicWith(HeurOptions {
        // 16× the default backtrack budget.
        backtrack_budget: 6400,
        ..HeurOptions::default()
    }));
    let mut loops: Vec<swp_ir::Loop> = livermore().into_iter().map(|k| k.body).collect();
    loops.extend(
        spec_suites()
            .into_iter()
            .flat_map(|s| s.loops.into_iter().map(|l| l.body)),
    );
    let per_loop = driver.run_indexed(loops.len(), |li| {
        let lp = &loops[li];
        let Ok(h) = driver.compile_with(lp, machine, &heur) else {
            return None;
        };
        let Ok(i) = driver.compile_with(lp, machine, &most) else {
            return None;
        };
        if i.stats.fell_back {
            return None;
        }
        let mut won_after_increase = false;
        if i.stats.ii < h.stats.ii {
            won_after_increase = match driver.compile_with(lp, machine, &big) {
                Ok(h2) => h2.stats.ii > i.stats.ii,
                Err(_) => true,
            };
        }
        Some((i.stats.ii.cmp(&h.stats.ii), won_after_increase))
    });
    let mut out = IiCompare::default();
    for (ord, won_after_increase) in per_loop.into_iter().flatten() {
        match ord {
            std::cmp::Ordering::Less => {
                out.ilp_wins += 1;
                out.ilp_wins_after_budget_increase += u32::from(won_after_increase);
            }
            std::cmp::Ordering::Greater => out.heur_wins += 1,
            std::cmp::Ordering::Equal => out.ties += 1,
        }
    }
    out
}

/// One row of the `experiments audit` table: one suite under one
/// scheduler, with every loop compiled at [`VerifyLevel::Full`].
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// `"heuristic"` or `"ilp"`.
    pub scheduler: &'static str,
    /// Per-loop audit reports.
    pub audit: SuiteAudit,
}

impl AuditRow {
    /// Total findings across every loop, all severities.
    pub fn findings(&self) -> usize {
        self.audit
            .loops
            .iter()
            .map(|l| l.report.findings.len())
            .sum()
    }

    /// Findings at one severity across every loop.
    pub fn count(&self, severity: Severity) -> usize {
        self.audit.count(severity)
    }
}

/// The translation-validation sweep behind `experiments audit`: every
/// SPEC-like suite × both schedulers, each loop compiled at
/// [`VerifyLevel::Full`] so all four analyzers plus the IR lints run.
/// Suite rows come back grouped by suite, heuristic before ILP.
pub fn audit_with(driver: &Driver, machine: &Machine) -> Vec<AuditRow> {
    let schedulers: [(&'static str, SchedulerChoice); 2] = [
        ("heuristic", SchedulerChoice::Heuristic),
        ("ilp", SchedulerChoice::Ilp),
    ];
    let suites = spec_suites();
    driver.run_indexed(suites.len() * schedulers.len(), |j| {
        let suite = &suites[j / schedulers.len()];
        let (name, choice) = &schedulers[j % schedulers.len()];
        let inner = driver.sequential_view();
        let options = CompileOptions {
            choice: choice.clone(),
            verify: VerifyLevel::Full,
            ..CompileOptions::default()
        };
        let audit =
            audit_suite_with(&inner, suite, machine, &options).expect("every suite loop compiles");
        AuditRow {
            scheduler: name,
            audit,
        }
    })
}

/// One chaos-injection scenario: a named fault pattern plus the
/// containment contract it must satisfy over a suite.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Display name (also the row label in `experiments chaos`).
    pub name: &'static str,
    /// The injected faults.
    pub chaos: ChaosOptions,
    /// Whether the scenario is *supposed* to quarantine every loop.
    /// Only the in-flight panic expects that: it fires outside rung
    /// isolation, so no rung can rescue it, and the contract is instead
    /// that every loop dies to a *structured* internal error (pool and
    /// cache intact) rather than tearing the run down.
    pub expect_quarantine: bool,
}

/// The committed scenario set behind `experiments chaos`: a quiet
/// control, then every fault class injected at every upper rung. Rung 4
/// is never injected — it is the rescue anchor whose totality all other
/// scenarios lean on, and corrupting the anchor would only prove that a
/// broken compiler is broken.
pub fn chaos_scenarios() -> Vec<ChaosScenario> {
    let upper = [Rung::Ilp, Rung::Sat, Rung::Heuristic, Rung::Escalated];
    let everywhere = |fault: ChaosFault| {
        upper
            .iter()
            .fold(ChaosOptions::default(), |c, &r| c.with_fault(r, fault))
    };
    vec![
        ChaosScenario {
            name: "control",
            chaos: ChaosOptions::default(),
            expect_quarantine: false,
        },
        ChaosScenario {
            name: "panic@0-3",
            chaos: everywhere(ChaosFault::Panic),
            expect_quarantine: false,
        },
        ChaosScenario {
            name: "exhaust@0-3",
            chaos: everywhere(ChaosFault::Exhaust),
            expect_quarantine: false,
        },
        ChaosScenario {
            name: "corrupt-time@0-3",
            chaos: everywhere(ChaosFault::Corrupt(Corruption::NegativeTime)),
            expect_quarantine: false,
        },
        ChaosScenario {
            name: "corrupt-mix@0-2",
            chaos: ChaosOptions::default()
                .with_fault(
                    Rung::Ilp,
                    ChaosFault::Corrupt(Corruption::ClobberedRegister),
                )
                .with_fault(Rung::Sat, ChaosFault::Corrupt(Corruption::NegativeTime))
                .with_fault(
                    Rung::Heuristic,
                    ChaosFault::Corrupt(Corruption::TamperedExpansion),
                ),
            expect_quarantine: false,
        },
        ChaosScenario {
            name: "panic-in-flight",
            chaos: ChaosOptions {
                panic_in_flight: true,
                ..ChaosOptions::default()
            },
            expect_quarantine: true,
        },
    ]
}

/// One row of the `experiments chaos` table: one suite under one
/// scenario, every loop sent down the degradation ladder.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario name.
    pub scenario: &'static str,
    /// The scenario's containment contract (see [`ChaosScenario`]).
    pub expect_quarantine: bool,
    /// The suite's quarantine report.
    pub suite: SuiteLadder,
}

impl ChaosRow {
    /// Injected faults that escaped containment on this suite.
    pub fn escapes(&self) -> usize {
        self.suite.escapes()
    }

    /// Containment-contract violations: an escaped fault, a loop the
    /// ladder failed to rescue (or rescued with an unclean audit), or —
    /// for the in-flight-panic scenario — a loop that produced anything
    /// other than a structured internal error.
    pub fn violations(&self) -> usize {
        let broken = if self.expect_quarantine {
            self.suite
                .loops
                .iter()
                .filter(|l| !matches!(&l.outcome, Err(CompileError::Internal { rung: None, .. })))
                .count()
        } else {
            self.suite
                .loops
                .iter()
                .filter(|l| !matches!(&l.outcome, Ok(s) if s.clean))
                .count()
        };
        broken + self.escapes()
    }
}

/// The fault-injection sweep behind `experiments chaos`: every SPEC-like
/// suite × every committed scenario, fanned across the driver pool.
/// `ChaosOptions` is part of the schedule-cache key, so chaotic compiles
/// never pollute (or borrow from) quiet memoized results. Rows come
/// back grouped by suite, in [`chaos_scenarios`] order.
pub fn chaos_with(driver: &Driver, machine: &Machine) -> Vec<ChaosRow> {
    let scenarios = chaos_scenarios();
    let suites = spec_suites();
    driver.run_indexed(suites.len() * scenarios.len(), |j| {
        let suite = &suites[j / scenarios.len()];
        let scenario = &scenarios[j % scenarios.len()];
        let inner = driver.sequential_view();
        let opts = LadderOptions {
            chaos: scenario.chaos.clone(),
            ..LadderOptions::default()
        };
        ChaosRow {
            scenario: scenario.name,
            expect_quarantine: scenario.expect_quarantine,
            suite: ladder_suite_with(&inner, suite, machine, &opts),
        }
    })
}

/// Rung usage summed over the control (fault-free) rows — the
/// EXPERIMENTS.md rung-usage table, indexed by [`Rung::index`].
pub fn chaos_rung_usage(rows: &[ChaosRow]) -> [usize; 5] {
    let mut usage = [0usize; 5];
    for r in rows.iter().filter(|r| r.scenario == "control") {
        for (u, n) in usage.iter_mut().zip(r.suite.rung_usage()) {
            *u += n;
        }
    }
    usage
}

/// One row of the `experiments portfolio` table: one suite (or the
/// Livermore kernel set) raced loop-by-loop, with every backend also
/// timed standalone under the same deterministic default budgets.
#[derive(Debug, Clone)]
pub struct PortfolioRow {
    /// Suite name (`livermore` is the kernel set).
    pub name: String,
    /// Loops raced.
    pub loops: usize,
    /// Races the ILP backend won (highest priority).
    pub ilp_wins: usize,
    /// Races the SAT backend won (ILP failed within budget).
    pub sat_wins: usize,
    /// Races the heuristic won (both optimal backends failed).
    pub heur_wins: usize,
    /// Races every backend lost (portfolio error).
    pub no_winner: usize,
    /// Loops where both optimal backends succeeded standalone *and* SAT
    /// achieved ILP's II — the optimality-parity tally.
    pub sat_ii_matches: usize,
    /// Loops where both optimal backends succeeded standalone.
    pub both_optimal: usize,
    /// Races whose shipped code differed from the standalone result of
    /// the backend that should win by fixed priority. Must be zero: the
    /// race is deterministic by construction.
    pub determinism_violations: usize,
    /// Wall time of the races.
    pub portfolio_wall: Duration,
    /// Standalone wall time, ILP backend (no fallback).
    pub ilp_wall: Duration,
    /// Standalone wall time, SAT backend (no fallback).
    pub sat_wall: Duration,
    /// Standalone wall time, heuristic backend.
    pub heur_wall: Duration,
}

/// The `experiments portfolio` sweep: every SPEC-like figure suite plus
/// the Livermore kernels, each loop compiled four ways under the
/// deterministic default budgets — each backend standalone (fallbacks
/// off, so a backend's failure is its own), then the three-way race. Standalone
/// compiles run sequentially and uncached so the wall clocks mean
/// something; the race's parallelism is internal to [`showdown::compile_portfolio`].
pub fn portfolio_sweep(machine: &Machine) -> Vec<PortfolioRow> {
    let driver = Driver::uncached(1);
    let mut sweeps: Vec<(String, Vec<swp_ir::Loop>)> = vec![(
        "livermore".into(),
        livermore().into_iter().map(|k| k.body).collect(),
    )];
    sweeps.extend(spec_suites().into_iter().map(|s| {
        (
            s.name.to_string(),
            s.loops.into_iter().map(|l| l.body).collect(),
        )
    }));

    let race = SchedulerChoice::Portfolio;

    sweeps
        .into_iter()
        .map(|(name, loops)| {
            let mut row = PortfolioRow {
                name,
                loops: loops.len(),
                ilp_wins: 0,
                sat_wins: 0,
                heur_wins: 0,
                no_winner: 0,
                sat_ii_matches: 0,
                both_optimal: 0,
                determinism_violations: 0,
                portfolio_wall: Duration::ZERO,
                ilp_wall: Duration::ZERO,
                sat_wall: Duration::ZERO,
                heur_wall: Duration::ZERO,
            };
            for lp in &loops {
                let mut timed =
                    |choice: SchedulerChoice, wall: fn(&mut PortfolioRow) -> &mut Duration| {
                        let t0 = Instant::now();
                        let r = driver.compile_with(lp, machine, &CompileOptions::from(choice));
                        *wall(&mut row) += t0.elapsed();
                        r
                    };
                let ilp = timed(
                    SchedulerChoice::IlpWith(MostOptions::default().without_fallback()),
                    |r| &mut r.ilp_wall,
                );
                let sat = timed(
                    SchedulerChoice::SatWith(SatOptions::default().without_fallback()),
                    |r| &mut r.sat_wall,
                );
                let heur = timed(SchedulerChoice::Heuristic, |r| &mut r.heur_wall);
                let raced = timed(race.clone(), |r| &mut r.portfolio_wall);

                if let (Ok(i), Ok(s)) = (&ilp, &sat) {
                    row.both_optimal += 1;
                    row.sat_ii_matches += usize::from(s.stats.ii == i.stats.ii);
                }
                // The backend that must win: highest fixed priority whose
                // standalone run succeeded. The race must ship its code.
                let expected = [
                    (&ilp, showdown::Rung::Ilp),
                    (&sat, showdown::Rung::Sat),
                    (&heur, showdown::Rung::Heuristic),
                ]
                .into_iter()
                .find_map(|(r, rung)| r.as_ref().ok().map(|c| (c, rung)));
                match (&raced, expected) {
                    (Ok(p), Some((standalone, rung))) => {
                        match rung {
                            showdown::Rung::Ilp => row.ilp_wins += 1,
                            showdown::Rung::Sat => row.sat_wins += 1,
                            _ => row.heur_wins += 1,
                        }
                        if p.rung != Some(rung) || p.code != standalone.code {
                            row.determinism_violations += 1;
                        }
                    }
                    (Err(_), None) => row.no_winner += 1,
                    // A race that disagrees with the standalone runs about
                    // whether the loop compiles at all is also a violation.
                    _ => row.determinism_violations += 1,
                }
            }
            row
        })
        .collect()
}

/// The `experiments portfolio -D` wall gate: racing three backends in
/// parallel must cost about as much wall time as the slowest backend
/// alone — never the sum of all three. The 50% + 500ms allowance
/// absorbs racer spawn/join and scheduler jitter on loaded CI hosts.
pub fn portfolio_wall_gate(rows: &[PortfolioRow]) -> bool {
    let raced: Duration = rows.iter().map(|r| r.portfolio_wall).sum();
    let slowest: Duration = rows
        .iter()
        .map(|r| r.ilp_wall.max(r.sat_wall).max(r.heur_wall))
        .sum();
    raced <= slowest.mul_f64(1.5) + Duration::from_millis(500)
}

/// One row of the `experiments solver` table: one Livermore kernel solved
/// by MOST (no fallback) under deterministic node and pivot budgets, with
/// the solver's work counters.
#[derive(Debug, Clone)]
pub struct SolverRow {
    /// Kernel number (1-24).
    pub number: u32,
    /// Kernel name.
    pub name: &'static str,
    /// Operations in the loop body.
    pub ops: usize,
    /// Achieved II, when MOST scheduled the loop within budget.
    pub ii: Option<u32>,
    /// Branch-and-bound nodes across all solves for this kernel.
    pub nodes: u64,
    /// Simplex pivots across all solves for this kernel.
    pub pivots: u64,
    /// `B⁻¹` refactorizations across all solves for this kernel.
    pub refactorizations: u64,
    /// Dual-repair bound flips across all solves for this kernel.
    pub bound_flips: u64,
    /// FIFO buffers of the accepted schedule, their proven floor, and
    /// whether the buffer solve proved them minimal.
    pub buffers: Option<Buffers>,
}

/// The `experiments solver` speed table: deterministic solver-work
/// counters over the 24 Livermore kernels. Because the budgets are
/// pure node/pivot counts (no wall clock), every field reproduces exactly
/// on any machine — which is what lets `gates/solver.golden` pin them.
#[derive(Debug, Clone)]
pub struct SolverSpeed {
    /// Per-kernel rows, kernel order.
    pub rows: Vec<SolverRow>,
}

impl SolverSpeed {
    /// The `experiments solver` stdout: the per-kernel table and its
    /// totals, byte for byte what `gates/solver.golden` pins.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "== Solver speed: MOST work counters, 24 Livermore kernels ==\n\
             (deterministic quick budgets, fallback off — counters reproduce exactly)\n",
        );
        out += &format!(
            "{:<4} {:<28} {:>4} {:>6} {:>8} {:>10} {:>10} {:>8} {:>6} {:>8} {:>6} {:>7}\n",
            "k",
            "name",
            "ops",
            "ii",
            "nodes",
            "pivots",
            "piv/node",
            "refacts",
            "flips",
            "buffers",
            "floor",
            "proved"
        );
        let dash = |v: Option<u32>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
        for r in &self.rows {
            let proved = r
                .buffers
                .map_or("-", |b| if b.optimal { "yes" } else { "no" });
            out += &format!(
                "{:<4} {:<28} {:>4} {:>6} {:>8} {:>10} {:>10.2} {:>8} {:>6} {:>8} {:>6} {:>7}\n",
                r.number,
                r.name,
                r.ops,
                dash(r.ii),
                r.nodes,
                r.pivots,
                r.pivots as f64 / r.nodes.max(1) as f64,
                r.refactorizations,
                r.bound_flips,
                dash(r.buffers.map(|b| b.total)),
                dash(r.buffers.and_then(|b| b.floor)),
                proved
            );
        }
        let nodes: u64 = self.rows.iter().map(|r| r.nodes).sum();
        let pivots: u64 = self.rows.iter().map(|r| r.pivots).sum();
        let refactorizations: u64 = self.rows.iter().map(|r| r.refactorizations).sum();
        let bound_flips: u64 = self.rows.iter().map(|r| r.bound_flips).sum();
        let buffers: u64 = self
            .rows
            .iter()
            .filter_map(|r| r.buffers)
            .map(|b| u64::from(b.total))
            .sum();
        let proved = self
            .rows
            .iter()
            .filter(|r| r.buffers.is_some_and(|b| b.optimal))
            .count();
        out += &format!(
            "solved {}/{}; total {nodes} nodes, {pivots} pivots; {:.2} pivots/node; \
             {refactorizations} refactorizations, {bound_flips} bound flips, {buffers} buffers; \
             {proved} buffer totals proved minimal\n",
            self.rows.iter().filter(|r| r.ii.is_some()).count(),
            self.rows.len(),
            pivots as f64 / nodes.max(1) as f64
        );
        out
    }
}

/// The `experiments solver` table: run MOST (fallback disabled) over the
/// 24 Livermore kernels under smoke-test-sized deterministic budgets and
/// record node, pivot, refactorization and bound-flip work and the
/// accepted schedule's buffer total, its proven floor and whether the
/// buffer solve proved it minimal, per kernel. The budgets are deliberately
/// tighter than the defaults: a gate must be cheap enough to run
/// on every CI push, and a solver-efficiency regression shows up at any
/// budget size.
///
/// The work counters are read from the [`swp_obs`] counter registry
/// ([`Counter::IlpNodes`], [`Counter::IlpPivots`],
/// [`Counter::IlpRefactorizations`] and [`Counter::IlpBoundFlips`] deltas
/// around each kernel) rather than from private solver fields, so the gate exercises
/// the same telemetry path every other consumer sees. With fallback off,
/// only `solve_ilp` runs between the snapshots, so the deltas equal the
/// old per-result stats exactly.
pub fn solver_speed(machine: &Machine) -> SolverSpeed {
    let opts = MostOptions {
        fallback: false,
        node_limit: 2_000,
        pivot_limit: 20_000,
        ..MostOptions::default()
    };
    let telemetry = Telemetry::new();
    let _ambient = telemetry.install();
    let rows = livermore()
        .into_iter()
        .map(|k| {
            let before = telemetry.counters();
            let outcome = swp_most::pipeline_most(&k.body, machine, &opts).ok();
            let work = telemetry.counters().minus(&before);
            SolverRow {
                number: k.number,
                name: k.name,
                ops: k.body.len(),
                ii: outcome.as_ref().map(|r| r.ii()),
                nodes: work.get(Counter::IlpNodes),
                pivots: work.get(Counter::IlpPivots),
                refactorizations: work.get(Counter::IlpRefactorizations),
                bound_flips: work.get(Counter::IlpBoundFlips),
                buffers: outcome.and_then(|r| r.stats.buffers),
            }
        })
        .collect();
    SolverSpeed { rows }
}

/// One suite row of the `experiments opt` impact table: what the mid-end
/// pass pipeline does to the suite's loops (op counts, RecMII, achieved
/// II) and what that costs or saves the ILP scheduler (simplex pivots).
#[derive(Debug, Clone)]
pub struct OptRow {
    /// Suite name (`"livermore"` for the kernel pseudo-suite).
    pub suite: String,
    /// Whether this suite is part of the figure set summed in the
    /// `figure suites:` line (Livermore gets its own summary line).
    pub figure: bool,
    /// Loops in the suite.
    pub loops: usize,
    /// Total ops before the pipeline.
    pub ops_before: usize,
    /// Total ops after the pipeline.
    pub ops_after: usize,
    /// Total validated pass applications.
    pub applications: u32,
    /// Loops whose RecMII dropped (recurrence re-association).
    pub recmii_drops: usize,
    /// Summed achieved II at [`showdown::OptLevel::Off`].
    pub ii_off: u64,
    /// Summed achieved II at [`showdown::OptLevel::Full`].
    pub ii_full: u64,
    /// Loops whose achieved II improved at `Full`.
    pub ii_improved: usize,
    /// `SWP-P0xx` validation findings (reverted or suspect applications).
    pub findings: usize,
    /// Error-severity audit findings on the optimized compiles.
    pub audit_errors: usize,
    /// Summed ILP simplex pivots at `Off`.
    pub pivots_off: u64,
    /// Summed ILP simplex pivots at `Full`.
    pub pivots_full: u64,
}

impl OptRow {
    /// Ops the pipeline deleted across the suite.
    pub fn ops_removed(&self) -> usize {
        self.ops_before.saturating_sub(self.ops_after)
    }
}

/// The `experiments opt` sweep: every figure suite plus the Livermore
/// kernels, each loop (a) run through the full pass pipeline directly —
/// translation-validated by differential simulation — for the table's
/// op-count/RecMII columns, and (b) compiled with the ILP scheduler at
/// [`showdown::OptLevel::Off`] and `Full` for the achieved-II and
/// simplex-pivot columns. The default budgets are deterministic, so
/// every number here reproduces exactly — which is what lets
/// `gates/opt.golden` pin them. One row per suite, figure suites first,
/// then Livermore.
pub fn opt_with(driver: &Driver, machine: &Machine) -> Vec<OptRow> {
    let mut suites = scaled_suites();
    suites.push(Suite {
        name: "livermore",
        loops: livermore()
            .into_iter()
            .map(|k| WeightedLoop {
                name: format!("lk{}", k.number),
                body: k.body,
                weight: 1.0,
                trip: k.short_trip,
            })
            .collect(),
    });
    let jobs: Vec<(usize, usize)> = suites
        .iter()
        .enumerate()
        .flat_map(|(s, suite)| (0..suite.loops.len()).map(move |l| (s, l)))
        .collect();
    struct LoopImpact {
        suite: usize,
        ops_before: usize,
        ops_after: usize,
        applications: u32,
        recmii_drop: bool,
        ii_off: u32,
        ii_full: u32,
        findings: usize,
        audit_errors: usize,
        pivots_off: u64,
        pivots_full: u64,
    }
    let per_loop: Vec<LoopImpact> = driver.run_indexed(jobs.len(), |j| {
        let (s, l) = jobs[j];
        let body = &suites[s].loops[l].body;
        // (a) Direct pipeline run, sim-validated at zero tolerance.
        let validate =
            |a: &swp_ir::Loop, b: &swp_ir::Loop| swp_sim::check_loops_equivalent(a, b, 12, 0.0);
        let mut optimized = body.clone();
        let outcome = showdown::PassManager::new(OptLevel::Full)
            .with_validator(&validate)
            .run(&mut optimized, machine);
        // (b) Scheduler impact through the shared driver cache.
        let inner = driver.sequential_view();
        let choice = SchedulerChoice::Ilp;
        let off = inner
            .compile_with(body, machine, &CompileOptions::from(choice.clone()))
            .expect("every suite loop compiles at default budgets");
        let full_opts = CompileOptions {
            choice,
            verify: VerifyLevel::Full,
            opt: OptLevel::Full,
            ..CompileOptions::default()
        };
        let full = inner
            .compile_with(body, machine, &full_opts)
            .expect("every optimized suite loop compiles at default budgets");
        LoopImpact {
            suite: s,
            ops_before: outcome.ops_before,
            ops_after: outcome.ops_after,
            applications: outcome.total_applications(),
            recmii_drop: outcome.rec_mii_after < outcome.rec_mii_before,
            ii_off: off.stats.ii,
            ii_full: full.stats.ii,
            findings: outcome.findings.len(),
            audit_errors: full
                .audit
                .as_ref()
                .map_or(0, |r| r.count(showdown::Severity::Error)),
            pivots_off: off.stats.pivots,
            pivots_full: full.stats.pivots,
        }
    });
    suites
        .iter()
        .enumerate()
        .map(|(s, suite)| {
            let loops: Vec<&LoopImpact> = per_loop.iter().filter(|li| li.suite == s).collect();
            OptRow {
                suite: suite.name.to_owned(),
                figure: suite.name != "livermore",
                loops: loops.len(),
                ops_before: loops.iter().map(|li| li.ops_before).sum(),
                ops_after: loops.iter().map(|li| li.ops_after).sum(),
                applications: loops.iter().map(|li| li.applications).sum(),
                recmii_drops: loops.iter().filter(|li| li.recmii_drop).count(),
                ii_off: loops.iter().map(|li| u64::from(li.ii_off)).sum(),
                ii_full: loops.iter().map(|li| u64::from(li.ii_full)).sum(),
                ii_improved: loops.iter().filter(|li| li.ii_full < li.ii_off).count(),
                findings: loops.iter().map(|li| li.findings).sum(),
                audit_errors: loops.iter().map(|li| li.audit_errors).sum(),
                pivots_off: loops.iter().map(|li| li.pivots_off).sum(),
                pivots_full: loops.iter().map(|li| li.pivots_full).sum(),
            }
        })
        .collect()
}

/// Ablation (§3.3 adj. 3): MOST with and without priority-order branching.
#[derive(Debug, Clone, Copy)]
pub struct OrderAblation {
    /// Loops solved (no fallback) with priority orders.
    pub solved_with: u32,
    /// Loops solved without.
    pub solved_without: u32,
    /// Total nodes with priority orders.
    pub nodes_with: u64,
    /// Total nodes without.
    pub nodes_without: u64,
}

/// Ablation: the effect of branch priority orders on MOST.
pub fn ablation_order(machine: &Machine) -> OrderAblation {
    let base = MostOptions::default().without_fallback();
    let with = MostOptions {
        use_priority_orders: true,
        ..base.clone()
    };
    let without = MostOptions {
        use_priority_orders: false,
        ..base
    };
    let mut out = OrderAblation {
        solved_with: 0,
        solved_without: 0,
        nodes_with: 0,
        nodes_without: 0,
    };
    for k in livermore() {
        if let Ok(r) = swp_most::pipeline_most(&k.body, machine, &with) {
            out.solved_with += 1;
            out.nodes_with += r.stats.search_effort;
        }
        if let Ok(r) = swp_most::pipeline_most(&k.body, machine, &without) {
            out.solved_without += 1;
            out.nodes_without += r.stats.search_effort;
        }
    }
    out
}

/// Ablation (§2.3): two-phase II search vs plain binary search.
#[derive(Debug, Clone, Copy)]
pub struct IiSearchAblation {
    /// Total scheduling attempts with the two-phase search.
    pub attempts_two_phase: u32,
    /// Total scheduling attempts with plain binary search.
    pub attempts_binary: u32,
    /// Whether every loop achieved the same II under both.
    pub same_quality: bool,
}

/// Ablation: II-search strategy (§2.3 claims identical quality, better
/// compile speed for the two-phase search).
pub fn ablation_ii_search(machine: &Machine) -> IiSearchAblation {
    let two = HeurOptions::default();
    let bin = HeurOptions {
        two_phase_search: false,
        ..HeurOptions::default()
    };
    let mut a2 = 0;
    let mut ab = 0;
    let mut same = true;
    for k in livermore() {
        let r2 = swp_heur::pipeline(&k.body, machine, &two);
        let rb = swp_heur::pipeline(&k.body, machine, &bin);
        if let (Ok(r2), Ok(rb)) = (r2, rb) {
            a2 += r2.stats.attempts;
            ab += rb.stats.attempts;
            same &= r2.ii() == rb.ii();
        }
    }
    IiSearchAblation {
        attempts_two_phase: a2,
        attempts_binary: ab,
        same_quality: same,
    }
}

/// Ablation (§2.8): spilling on vs off on high-pressure loops.
#[derive(Debug, Clone, Copy)]
pub struct SpillAblation {
    /// High-pressure loops pipelined with spilling enabled.
    pub with_spilling: u32,
    /// …and with spilling disabled.
    pub without_spilling: u32,
    /// Loops attempted.
    pub total: u32,
}

/// Ablation: exponential spilling rescues register-pressure failures.
pub fn ablation_spill(machine: &Machine) -> SpillAblation {
    // A small register file makes pressure bite.
    let tiny = swp_machine::MachineBuilder::new("tiny-regs")
        .allocatable(swp_machine::RegClass::Float, 8)
        .build();
    let _ = machine;
    let on = HeurOptions::default();
    let off = HeurOptions {
        enable_spilling: false,
        ..HeurOptions::default()
    };
    let mut out = SpillAblation {
        with_spilling: 0,
        without_spilling: 0,
        total: 0,
    };
    for seed in 0..8u64 {
        let lp = swp_kernels::random_loop(
            &GenParams {
                ops: 24,
                mem_fraction: 0.25,
                recurrences: 0,
                div_fraction: 0.0,
            },
            seed,
        );
        out.total += 1;
        if swp_heur::pipeline(&lp, &tiny, &on).is_ok() {
            out.with_spilling += 1;
        }
        if swp_heur::pipeline(&lp, &tiny, &off).is_ok() {
            out.without_spilling += 1;
        }
    }
    out
}

/// What one traced run of the [`profile_workload`] produced: the
/// telemetry handle (spans, counters, histograms — render or export it),
/// how many compiles were issued, and the cache tallies of the workload
/// driver and of the compile server it round-trips through.
#[derive(Debug)]
pub struct ProfileReport {
    /// The traced handle every compile in the workload reported into.
    pub telemetry: Telemetry,
    /// Compiles issued (including deliberate cache re-queries).
    pub loops: usize,
    /// Hit/miss tallies from the workload driver's schedule cache.
    pub cache: showdown::CacheStats,
    /// Hit/miss tallies from the compile server's own schedule cache.
    /// The registry's `cache.*` counters are `cache` plus this.
    pub server_cache: showdown::CacheStats,
}

/// The `experiments profile` workload: a deliberately varied compile mix
/// chosen so that **every** [`swp_obs::Class::Exact`] metric in the
/// registry increments at least once — which is what lets the CI profile
/// job lint for dead metrics. The pieces:
///
/// - the 24 Livermore kernels under both schedulers (heuristic at
///   [`VerifyLevel::Full`] for audit counters, ILP at default budgets for
///   solver counters and buffer histograms), then a re-query of the
///   heuristic set for cache hits;
/// - four degradation-ladder scenarios over small kernels: a quiet
///   control, an injected rung-0 panic, an injected rung-0 corruption
///   (gate rejections and verify findings), and the gate-off escape that
///   proves [`Counter::LadderChaosEscapes`] can fire;
/// - the tiny-register-file spill loops from [`ablation_spill`], driven
///   through `swp_heur::pipeline` for spill/backtrack counters;
/// - one `max_ops: 1` MOST compile to force the heuristic fallback.
pub fn profile_workload(machine: &Machine, threads: usize) -> ProfileReport {
    showdown::hush_injected_panics();
    let telemetry = Telemetry::with_tracing();
    // Direct swp_heur/swp_most calls below report through the ambient
    // collector; driver compiles carry the handle in their options.
    let _ambient = telemetry.install();
    let driver = Driver::new(threads);
    let mut loops = 0usize;

    // Livermore under both schedulers, then a cache re-query.
    let heur = CompileOptions {
        choice: SchedulerChoice::Heuristic,
        verify: VerifyLevel::Full,
        opt: OptLevel::Off,
        telemetry: telemetry.clone(),
    };
    let ilp = CompileOptions {
        choice: SchedulerChoice::Ilp,
        verify: VerifyLevel::Off,
        opt: OptLevel::Off,
        telemetry: telemetry.clone(),
    };
    let kernels = livermore();
    for k in &kernels {
        let _ = driver.compile_with(&k.body, machine, &heur);
        let _ = driver.compile_with(&k.body, machine, &ilp);
        loops += 2;
    }
    for k in &kernels {
        let _ = driver.compile_with(&k.body, machine, &heur);
        loops += 1;
    }

    // Ladder scenarios. `max_ops: 0` in the escape recipe demotes rung 0
    // instantly so the corrupted heuristic schedule ships past the
    // disabled gate — the one configuration where an injected fault is
    // *supposed* to escape.
    let small_most = |max_ops: usize| MostOptions {
        node_limit: 2_000,
        pivot_limit: 20_000,
        loop_pivot_limit: Some(60_000),
        max_ops,
        ..MostOptions::default()
    };
    // `max_ops` handicaps ILP *and* SAT together: the escape recipe
    // needs both optimal rungs out of the way so the corrupted
    // heuristic schedule is what ships past the disabled gate.
    let ladder = |chaos: ChaosOptions, gate: VerifyLevel, max_ops: usize| CompileOptions {
        choice: SchedulerChoice::LadderWith(Box::new(LadderOptions {
            most: small_most(max_ops),
            sat: SatOptions {
                max_ops,
                ..SatOptions::default()
            },
            gate,
            chaos,
            escalation_rounds: 2,
            ..LadderOptions::default()
        })),
        verify: VerifyLevel::Off,
        opt: OptLevel::Off,
        telemetry: telemetry.clone(),
    };
    let scenarios = [
        ladder(ChaosOptions::default(), VerifyLevel::Full, 12),
        ladder(
            ChaosOptions::default().with_fault(Rung::Ilp, ChaosFault::Panic),
            VerifyLevel::Full,
            12,
        ),
        ladder(
            ChaosOptions::default()
                .with_fault(Rung::Ilp, ChaosFault::Corrupt(Corruption::NegativeTime)),
            VerifyLevel::Full,
            12,
        ),
        ladder(
            ChaosOptions::default().with_fault(
                Rung::Heuristic,
                ChaosFault::Corrupt(Corruption::NegativeTime),
            ),
            VerifyLevel::Off,
            0,
        ),
    ];
    for options in &scenarios {
        for k in kernels.iter().take(3) {
            let _ = driver.compile_with(&k.body, machine, options);
            loops += 1;
        }
    }

    // Register-pressure loops on a tiny register file: spill rounds,
    // spilled values, and scheduling backtracks.
    let tiny = swp_machine::MachineBuilder::new("tiny-regs")
        .allocatable(swp_machine::RegClass::Float, 8)
        .build();
    for seed in 0..8u64 {
        let lp = swp_kernels::random_loop(
            &GenParams {
                ops: 24,
                mem_fraction: 0.25,
                recurrences: 0,
                div_fraction: 0.0,
            },
            seed,
        );
        let _ = swp_heur::pipeline(&lp, &tiny, &HeurOptions::default());
        loops += 1;
    }

    // A 1-op ceiling turns every MOST compile into a heuristic fallback.
    let _ = swp_most::pipeline_most(&kernels[0].body, machine, &small_most(1));
    loops += 1;

    // The SAT backend over the Livermore kernels: II steps, decisions,
    // propagations; the resource-starved restart loop drives enough
    // conflicts (and learned clauses) through one solve to cross the
    // Luby restart threshold.
    let sat = CompileOptions {
        choice: SchedulerChoice::Sat,
        verify: VerifyLevel::Off,
        opt: OptLevel::Off,
        telemetry: telemetry.clone(),
    };
    for k in &kernels {
        let _ = driver.compile_with(&k.body, machine, &sat);
        loops += 1;
    }
    let _ = driver.compile_with(&sat_restart_loop(), machine, &sat);
    loops += 1;

    // A zero work budget turns the SAT compile into its fallback.
    let _ = swp_sat::pipeline_sat(
        &kernels[0].body,
        machine,
        &SatOptions {
            conflict_limit: 0,
            propagation_limit: 0,
            ..SatOptions::default()
        },
    );
    loops += 1;

    // Portfolio races with backend subsets, so every winner counter
    // fires: the full race (ILP outranks everyone), an `max_ops: 0`
    // handicap that disqualifies ILP (SAT wins), and a heuristic-only
    // field. Racer threads are collector-free by design; the race
    // counters land here because the calling thread keeps the handle.
    let race = |use_ilp: bool, use_sat: bool, most_max_ops: usize| CompileOptions {
        choice: SchedulerChoice::PortfolioWith(Box::new(showdown::PortfolioOptions {
            use_ilp,
            use_sat,
            use_heur: true,
            most: MostOptions {
                max_ops: most_max_ops,
                ..MostOptions::default()
            },
            ..showdown::PortfolioOptions::default()
        })),
        verify: VerifyLevel::Off,
        opt: OptLevel::Off,
        telemetry: telemetry.clone(),
    };
    for options in [
        race(true, true, 64),
        race(true, true, 0),
        race(false, false, 64),
    ] {
        let _ = driver.compile_with(&kernels[0].body, machine, &options);
        loops += 1;
    }

    // The mid-end pass pipeline: purpose-built loops that make every
    // `opt.*` Exact counter fire (one loop exercising fold, simplify,
    // strength, GVN, and DCE; one pure reduction for re-association).
    let opt_full = CompileOptions {
        choice: SchedulerChoice::Heuristic,
        verify: VerifyLevel::Full,
        opt: OptLevel::Full,
        telemetry: telemetry.clone(),
    };
    for lp in opt_workload_loops() {
        let _ = driver.compile_with(&lp, machine, &opt_full);
        loops += 1;
    }

    // One round trip through the compile service so the `serve.*`
    // registry rows are exercised: handler threads install this same
    // collector, so `serve.admitted` (Exact) lands here and the
    // dead-metric lint covers the service layer too.
    let server_cache = {
        let socket = std::env::temp_dir().join(format!("swp-profile-{}.sock", std::process::id()));
        let mut opts = swp_serve::ServerOptions::at(socket);
        opts.telemetry = telemetry.clone();
        let server =
            swp_serve::Server::start(machine.clone(), opts).expect("profile serve roundtrip");
        let mut client = swp_serve::Client::connect(server.socket()).expect("profile serve client");
        let batch = swp_serve::RequestBatch {
            batch_id: 1,
            client: "profile".into(),
            deadline_ms: 0,
            choice: swp_serve::WireChoice::Heuristic,
            opt: OptLevel::Off,
            verify: VerifyLevel::Off,
            loops: kernels.iter().take(2).map(|k| k.body.clone()).collect(),
        };
        let resp = client
            .compile_batch(&batch)
            .expect("profile serve response");
        loops += resp.results.len();
        server.stats().cache
    };

    ProfileReport {
        telemetry,
        loops,
        cache: driver.cache_stats(),
        server_cache,
    }
}

/// A loop whose MinII is scheduling-infeasible under heavy resource
/// contention, so the SAT solver must grind through UNSAT proofs — and
/// enough conflicts in one solve to cross the Luby restart threshold
/// (64 conflicts) — before landing on the achieved II. Deterministic:
/// `random_loop` is seeded, so [`Counter::SatRestarts`] always fires.
pub fn sat_restart_loop() -> swp_ir::Loop {
    swp_kernels::random_loop(
        &GenParams {
            ops: 32,
            mem_fraction: 0.45,
            recurrences: 2,
            div_fraction: 0.15,
        },
        8,
    )
}

/// Loops that jointly exercise every mid-end pass: constant folding
/// (`2·3`), algebraic simplification (`v·1` and an unfused multiply-add),
/// strength reduction (`÷4`), GVN (a duplicated add), DCE (an unused
/// chain), and recurrence re-association (a pure multiply-add reduction).
fn opt_workload_loops() -> Vec<swp_ir::Loop> {
    let mut mix = swp_ir::LoopBuilder::new("opt-mix");
    let k2 = mix.const_f("k2", 2.0);
    let k3 = mix.const_f("k3", 3.0);
    let one = mix.const_f("one", 1.0);
    let four = mix.const_f("four", 4.0);
    let x = mix.array("x", 8);
    let v = mix.load(x, 0, 8);
    let c = mix.fmul(k2, k3); // fold
    let m1 = mix.fmul(v, one); // simplify: ·1
    let q = mix.fdiv(m1, four); // strength: ÷2^k
    let d1 = mix.fadd(v, v); // gvn: congruent with d2
    let d2 = mix.fadd(v, v);
    let dead = mix.fmul(d2, d2); // dce: transitively dead chain
    let _dead2 = mix.fadd(dead, dead);
    let r = mix.fmul(c, q); // simplify: fuses into the fadd below
    let r2 = mix.fadd(r, d1);
    mix.store(x, 0, 8, r2);

    let mut red = swp_ir::LoopBuilder::new("opt-reduction");
    let z = red.array("z", 8);
    let w = red.array("w", 8);
    let s = red.carried_f("s");
    let zv = red.load(z, 0, 8);
    let wv = red.load(w, 0, 8);
    let acc = red.fmadd(zv, wv, s.value());
    red.close(s, acc, 1);

    vec![mix.finish(), red.finish()]
}

/// The one `-D` check: a subcommand's stdout must equal its committed
/// golden, `gates/<cmd>.golden`, byte for byte. A missing or extra
/// trailing newline is a difference like any other.
///
/// # Errors
///
/// Names the first differing line (1-based) with the expected and the
/// actual text.
pub fn diff_golden(golden: &str, got: &str) -> Result<(), String> {
    let (mut want, mut have) = (golden.split_inclusive('\n'), got.split_inclusive('\n'));
    let show = |l: Option<&str>| l.map_or_else(|| "end of output".to_owned(), |l| format!("{l:?}"));
    for line in 1usize.. {
        match (want.next(), have.next()) {
            (None, None) => break,
            (w, h) if w == h => {}
            (w, h) => {
                return Err(format!(
                    "line {line}: expected {}, got {}",
                    show(w),
                    show(h)
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "integration-scale; run with --release")]
    fn fig2_shape_pipelining_wins_big() {
        let m = Machine::r8000();
        let rows = fig2_with(&Driver::uncached(1), &m);
        assert_eq!(rows.len(), 14);
        let g = fig2_geomean(&rows);
        // Paper: >35% overall improvement. Shape check: well above 1.3.
        assert!(g > 1.35, "geomean speedup {g}");
        for r in &rows {
            assert!(
                r.speedup() >= 1.0,
                "{}: pipelining never loses ({})",
                r.name,
                r.speedup()
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "integration-scale; run with --release")]
    fn fig4_shape_alvinn_benefits_most() {
        let m = Machine::r8000();
        let rows = fig4_with(&Driver::uncached(1), &m);
        let alvinn = rows.iter().find(|r| r.name == "alvinn").expect("present");
        assert!(
            alvinn.improvement > 1.05,
            "alvinn should gain from bank pairing: {}",
            alvinn.improvement
        );
        for r in &rows {
            assert!(
                r.improvement > 0.85,
                "{} not catastrophically hurt: {}",
                r.name,
                r.improvement
            );
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "integration-scale; run with --release")]
    fn solver_table_matches_its_golden_and_reproduces_exactly() {
        let m = Machine::r8000();
        let a = solver_speed(&m);
        let golden = include_str!("../../../gates/solver.golden");
        assert_eq!(diff_golden(golden, &a.render()), Ok(()));
        // Deterministic budgets: a second run must produce bit-identical
        // work counters.
        let b = solver_speed(&m);
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(
                (x.ii, x.nodes, x.pivots),
                (y.ii, y.nodes, y.pivots),
                "{}",
                x.name
            );
        }
    }

    #[test]
    fn golden_diff_names_the_first_differing_line() {
        let golden = "== t ==\nsolved 24/24\ntotal 36343\n";
        assert_eq!(diff_golden(golden, golden), Ok(()));
        assert_eq!(
            diff_golden(golden, "== t ==\nsolved 24/24\ntotal 36344\n"),
            Err(r#"line 3: expected "total 36343\n", got "total 36344\n""#.to_owned())
        );
        assert_eq!(
            diff_golden(golden, "== t ==\nsolved 24/24\ntotal 36343"),
            Err(r#"line 3: expected "total 36343\n", got "total 36343""#.to_owned())
        );
        assert_eq!(
            diff_golden(golden, "== t ==\nsolved 24/24\n"),
            Err(r#"line 3: expected "total 36343\n", got end of output"#.to_owned())
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "integration-scale; run with --release")]
    fn chaos_sweep_contains_every_scenario() {
        showdown::hush_injected_panics();
        let m = Machine::r8000();
        let driver = Driver::new(4);
        let rows = chaos_with(&driver, &m);
        assert_eq!(rows.len(), 14 * chaos_scenarios().len());
        for r in &rows {
            assert_eq!(r.escapes(), 0, "{}/{}", r.suite.name, r.scenario);
            assert_eq!(r.violations(), 0, "{}/{}", r.suite.name, r.scenario);
            if r.expect_quarantine {
                assert_eq!(r.suite.quarantined(), r.suite.loops.len());
            } else {
                assert!(r.suite.all_clean(), "{}/{}", r.suite.name, r.scenario);
            }
        }
        // Fault-free control: everything lands on a real pipeliner rung,
        // and the sequential anchor is never needed.
        let usage = chaos_rung_usage(&rows);
        let total: usize = usage.iter().sum();
        assert_eq!(
            total,
            rows.iter()
                .filter(|r| r.scenario == "control")
                .map(|r| r.suite.loops.len())
                .sum()
        );
        assert_eq!(usage[4], 0, "no quiet loop should need the sequential rung");
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "integration-scale; run with --release")]
    fn ablation_ii_search_same_quality() {
        let m = Machine::r8000();
        let a = ablation_ii_search(&m);
        assert!(
            a.same_quality,
            "II quality must not depend on the search strategy"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "integration-scale; run with --release")]
    fn ablation_spill_rescues() {
        let m = Machine::r8000();
        let a = ablation_spill(&m);
        assert!(a.with_spilling >= a.without_spilling);
    }
}
