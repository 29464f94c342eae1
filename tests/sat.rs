//! Differential and property tests for the CDCL backend (`swp-sat`) and
//! the portfolio scheduler.
//!
//! The headline obligations, per the roadmap:
//! - SAT achieves the **same II as MOST** on every loop both solve within
//!   budget (they search the same horizon, so their per-II verdicts must
//!   coincide), and every SAT schedule is audit-clean at zero findings;
//! - the portfolio is **deterministic**: the winner is chosen by fixed
//!   backend priority at join, never by wall clock, so any thread count
//!   produces the bit-identical compiled loop.

use proptest::prelude::*;
use showdown::{
    compile_loop, CompileOptions, Driver, OptLevel, PortfolioOptions, Rung, SchedulerChoice,
    Telemetry, VerifyLevel,
};
use swp_ir::{Ddg, Loop};
use swp_kernels::{random_loop, GenParams};
use swp_machine::Machine;
use swp_sat::{pipeline_sat, SatOptions};
use swp_verify::audit;

// The default budgets are work counts with no wall clock, so the tests
// below reproduce exactly on any host (and the proptests minimize
// cleanly).
fn quick_sat() -> SatOptions {
    SatOptions::default().without_fallback()
}

fn quick_most() -> swp_most::MostOptions {
    swp_most::MostOptions::default().without_fallback()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "MOST's counted pivot budgets are sized for release builds (this test grinds \
              ~6 min unoptimized); the release-mode `experiments portfolio -D` CI job \
              enforces the same 24/24 Livermore parity"
)]
fn sat_matches_most_ii_on_livermore() {
    let m = Machine::r8000();
    let mut solved = 0usize;
    let mut total = 0usize;
    for k in swp_kernels::livermore() {
        total += 1;
        let sat = pipeline_sat(&k.body, &m, &quick_sat());
        let most = swp_most::pipeline_most(&k.body, &m, &quick_most());
        match (&sat, &most) {
            (Ok(s), Ok(o)) => {
                assert_eq!(
                    s.ii(),
                    o.ii(),
                    "kernel {}: SAT II {} != MOST II {}",
                    k.number,
                    s.ii(),
                    o.ii()
                );
                solved += 1;
            }
            _ => {
                eprintln!(
                    "kernel {}: sat={} most={}",
                    k.number,
                    sat.as_ref().map(|s| s.ii() as i64).unwrap_or(-1),
                    most.as_ref().map(|o| o.ii() as i64).unwrap_or(-1),
                );
            }
        }
    }
    eprintln!("livermore parity: {solved}/{total}");
    assert!(solved >= 20, "only {solved}/{total} kernels solved by both");
}

#[test]
fn sat_schedules_validate_on_livermore() {
    let m = Machine::r8000();
    for k in swp_kernels::livermore() {
        if let Ok(s) = pipeline_sat(&k.body, &m, &quick_sat()) {
            let ddg = Ddg::build(&s.body, &m);
            assert_eq!(
                s.schedule.validate(&s.body, &ddg, &m),
                Ok(()),
                "kernel {}",
                k.number
            );
        }
    }
}

/// A loop over `max_ops` skips the II search and goes straight to the
/// heuristic fallback; its stats must still carry the loop's MinII, as the
/// main fallback path's do.
#[test]
fn over_max_ops_fallback_reports_the_loop_min_ii() {
    let m = Machine::r8000();
    let lp = swp_kernels::livermore()[0].body.clone();
    let min_ii = Ddg::build(&lp, &m).min_ii();
    let most = swp_most::MostOptions {
        max_ops: 2,
        fallback: true,
        ..quick_most()
    };
    let sat = SatOptions {
        max_ops: 2,
        fallback: true,
        ..quick_sat()
    };
    assert!(lp.len() > 2 && min_ii > 0);
    for (backend, got) in [
        (
            "most",
            swp_most::pipeline_most(&lp, &m, &most)
                .ok()
                .map(|p| (p.stats.min_ii, p.stats.fell_back)),
        ),
        (
            "sat",
            pipeline_sat(&lp, &m, &sat)
                .ok()
                .map(|p| (p.stats.min_ii, p.stats.fell_back)),
        ),
    ] {
        assert_eq!(got, Some((min_ii, true)), "{backend}");
    }
}

fn params_strategy() -> impl Strategy<Value = (GenParams, u64)> {
    (
        4usize..32,
        0.1f64..0.5,
        0usize..3,
        prop_oneof![Just(0.0f64), Just(0.05f64)],
        0u64..500,
    )
        .prop_map(|(ops, mem, rec, div, seed)| {
            (
                GenParams {
                    ops,
                    mem_fraction: mem,
                    recurrences: rec,
                    div_fraction: div,
                },
                seed,
            )
        })
}

// Debug builds grind MOST's counted pivot budgets an order of magnitude
// slower than release, so the differential proptest leashes MOST tighter
// and runs fewer cases there. The budgets are still pure work counts:
// any case that runs behaves identically in both profiles.
const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 40 };

fn counted_most() -> swp_most::MostOptions {
    swp_most::MostOptions {
        pivot_limit: if cfg!(debug_assertions) {
            50_000
        } else {
            100_000
        },
        loop_pivot_limit: Some(if cfg!(debug_assertions) {
            100_000
        } else {
            1_200_000
        }),
        ..quick_most()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// SAT and MOST search the same scheduling box (MOST's horizon), so
    /// their certificates must agree on random lint-clean loops:
    /// - a certified SAT result (`optimal_ii`: every lower II carries a
    ///   real UNSAT proof) is a floor MOST can never beat;
    /// - when both certify, the IIs are identical.
    /// Uncertified results (allocation-failure bumps, budget timeouts)
    /// may diverge — SAT has no spilling, so a schedulable-but-
    /// unallocatable II forfeits its certificate by design.
    #[test]
    fn sat_matches_most_ii_on_random_loops((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        prop_assert!(lp.validate() == Ok(()));
        let sat = pipeline_sat(&lp, &m, &quick_sat());
        let most = swp_most::pipeline_most(&lp, &m, &counted_most());
        if let (Ok(s), Ok(o)) = (&sat, &most) {
            if s.stats.optimal_ii {
                prop_assert!(
                    o.ii() >= s.ii(),
                    "loop {}: MOST II {} beats SAT's certified floor {}",
                    lp.name(), o.ii(), s.ii()
                );
            }
            if s.stats.optimal_ii && o.stats.optimal_ii {
                prop_assert_eq!(
                    s.ii(), o.ii(),
                    "loop {}: certified SAT II {} != certified MOST II {}",
                    lp.name(), s.ii(), o.ii()
                );
            }
        }
    }

    /// Every SAT compile that ships is audit-clean at full verification:
    /// schedule legality, register limits, expansion correctness.
    #[test]
    fn sat_compiles_are_audit_clean((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        prop_assert!(lp.validate() == Ok(()));
        let choice = SchedulerChoice::SatWith(quick_sat());
        if let Ok(c) = compile_loop(&lp, &m, &choice) {
            let report = audit(&c.code, &m, VerifyLevel::Full);
            prop_assert!(report.findings.is_empty(), "{}", report.render_human());
        }
    }
}

/// The portfolio race on one driver: the fixed set of loops below is
/// chosen so every backend wins at least once (ILP on the easy kernels,
/// SAT when ILP is handicapped to `max_ops: 0`, the heuristic when both
/// optimal backends are).
fn portfolio_fleet(threads: usize) -> Vec<(Option<Rung>, u32, swp_codegen::PipelinedLoop)> {
    let m = Machine::r8000();
    let driver = Driver::uncached(threads);
    let base = PortfolioOptions::default();
    let no_ilp = PortfolioOptions {
        most: swp_most::MostOptions {
            max_ops: 0,
            ..base.most.clone()
        },
        ..base.clone()
    };
    let heur_only = PortfolioOptions {
        use_ilp: false,
        use_sat: false,
        ..base.clone()
    };
    let kernels: Vec<Loop> = swp_kernels::livermore()
        .into_iter()
        .take(6)
        .map(|k| k.body)
        .collect();
    let mut jobs: Vec<(Loop, PortfolioOptions)> = Vec::new();
    for k in &kernels {
        jobs.push((k.clone(), base.clone()));
        jobs.push((k.clone(), no_ilp.clone()));
        jobs.push((k.clone(), heur_only.clone()));
    }
    let compiled = driver.run_indexed(jobs.len(), |i| {
        let (lp, opts) = &jobs[i];
        let options = CompileOptions {
            choice: SchedulerChoice::PortfolioWith(Box::new(opts.clone())),
            verify: VerifyLevel::Off,
            opt: OptLevel::Off,
            telemetry: Telemetry::disabled(),
        };
        let inner = driver.sequential_view();
        inner
            .compile_with(lp, &m, &options)
            .expect("the default portfolio compiles the easy kernels")
    });
    compiled
        .into_iter()
        .map(|c| (c.rung, c.stats.ii, c.code.clone()))
        .collect()
}

/// The race's winner is decided by fixed backend priority at join, never
/// by wall clock: any driver thread count must produce the bit-identical
/// winner rung, II, and expanded code for every loop.
#[test]
fn portfolio_is_deterministic_across_thread_counts() {
    let baseline = portfolio_fleet(1);
    let rungs: Vec<Option<Rung>> = baseline.iter().map(|(r, _, _)| *r).collect();
    assert!(
        rungs.contains(&Some(Rung::Ilp))
            && rungs.contains(&Some(Rung::Sat))
            && rungs.contains(&Some(Rung::Heuristic)),
        "fleet must exercise every backend as winner, got {rungs:?}"
    );
    for threads in [2usize, 8] {
        let run = portfolio_fleet(threads);
        assert_eq!(
            baseline, run,
            "portfolio outcome changed between 1 and {threads} driver threads"
        );
    }
}
