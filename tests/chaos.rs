//! Chaos-engineering lockdown of the degradation ladder: injected
//! faults at every upper rung must be contained, the sequential anchor
//! must make compilation total on lint-clean loops, and a panic that
//! escapes rung isolation on purpose must die as a *structured* error
//! without taking the driver pool or the schedule cache with it.

use proptest::prelude::*;
use showdown::{
    compile_ladder, hush_injected_panics, render_attempts, ChaosFault, ChaosOptions, CompileError,
    CompileOptions, Corruption, Driver, LadderOptions, Rung, SchedulerChoice, VerifyLevel,
};
use swp_kernels::{random_loop, GenParams};
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_sat::SatOptions;
use swp_sim::interp::{run_pipelined, run_sequential};

/// Small, fully deterministic ladder budgets: node/pivot/conflict counts
/// only, no wall clocks, and a 12-op ceiling on rungs 0–1 so large
/// random loops demote instantly instead of grinding the optimal
/// solvers in debug builds.
fn quick_ladder() -> LadderOptions {
    LadderOptions {
        most: MostOptions {
            node_limit: 2_000,
            pivot_limit: 20_000,
            loop_pivot_limit: Some(60_000),
            max_ops: 12,
            ..MostOptions::default()
        },
        sat: SatOptions {
            conflict_limit: 2_000,
            propagation_limit: 200_000,
            loop_conflict_limit: Some(6_000),
            max_ops: 12,
            ..SatOptions::default()
        },
        escalation_rounds: 2,
        ..LadderOptions::default()
    }
}

fn params_strategy() -> impl Strategy<Value = (GenParams, u64)> {
    (
        4usize..40,
        0.1f64..0.6,
        0usize..3,
        prop_oneof![Just(0.0f64), Just(0.05f64)],
        0u64..1000,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: total compilation. Every random lint-clean loop must
    /// compile to a sim-validated schedule from *some* rung.
    #[test]
    fn every_lint_clean_loop_compiles_on_some_rung((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        let has_error_lint = swp_verify::lint_findings(&lp, &m)
            .iter()
            .any(|f| f.severity == showdown::Severity::Error);
        if !has_error_lint {
            let c = compile_ladder(&lp, &m, &quick_ladder()).unwrap_or_else(|e| {
                panic!("ladder must be total on a lint-clean loop (seed {seed}): {e}")
            });
            let rung = c.rung.expect("ladder results carry their rung");
            // The shipped schedule computes what the loop computes.
            let seq = run_sequential(c.code.body(), 12);
            let pip = run_pipelined(&c.code, 12).expect("gated schedule preserves dependences");
            prop_assert!(
                seq.approx_eq(&pip, 0.0),
                "rung {rung} shipped a wrong schedule; trace:\n{}",
                render_attempts(&c.attempts)
            );
        }
    }

    /// Under chaos at every upper rung, the same loops still compile —
    /// via the sequential anchor — and no injected fault escapes.
    #[test]
    fn chaos_at_every_upper_rung_still_compiles((p, seed) in params_strategy()) {
        hush_injected_panics();
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        let has_error_lint = swp_verify::lint_findings(&lp, &m)
            .iter()
            .any(|f| f.severity == showdown::Severity::Error);
        if !has_error_lint {
            let mut opts = quick_ladder();
            opts.chaos = ChaosOptions::default()
                .with_fault(Rung::Ilp, ChaosFault::Panic)
                .with_fault(Rung::Sat, ChaosFault::Exhaust)
                .with_fault(Rung::Heuristic, ChaosFault::Corrupt(Corruption::NegativeTime))
                .with_fault(Rung::Escalated, ChaosFault::Exhaust);
            let c = compile_ladder(&lp, &m, &opts)
                .unwrap_or_else(|e| panic!("anchor rung must rescue (seed {seed}): {e}"));
            prop_assert_eq!(c.rung, Some(Rung::Sequential));
            prop_assert!(
                !c.attempts.iter().any(|a| a.escaped()),
                "an injected fault escaped; trace:\n{}",
                render_attempts(&c.attempts)
            );
            let seq = run_sequential(c.code.body(), 12);
            let pip = run_pipelined(&c.code, 12).expect("anchor schedule is valid");
            prop_assert!(seq.approx_eq(&pip, 0.0), "anchor schedule diverged");
        }
    }
}

fn saxpy(name: &str) -> swp_ir::Loop {
    let mut b = swp_ir::LoopBuilder::new(name);
    let a = b.invariant_f("a");
    let x = b.array("x", 8);
    let y = b.array("y", 8);
    let xv = b.load(x, 0, 8);
    let yv = b.load(y, 0, 8);
    let r = b.fmadd(a, xv, yv);
    b.store(y, 0, 8, r);
    b.finish()
}

/// A corrupted schedule is rejected by the verify gate and the loop is
/// demoted — the tampered artifact is never shipped.
#[test]
fn corruption_is_caught_by_the_gate_through_the_public_api() {
    hush_injected_panics();
    let m = Machine::r8000();
    for how in [
        Corruption::NegativeTime,
        Corruption::ClobberedRegister,
        Corruption::TamperedExpansion,
    ] {
        let mut opts = quick_ladder();
        opts.chaos = ChaosOptions::default().with_fault(Rung::Ilp, ChaosFault::Corrupt(how));
        let c = compile_ladder(&saxpy("s"), &m, &opts).expect("lower rung rescues");
        assert!(
            c.rung > Some(Rung::Ilp),
            "{how:?}: corrupted rung 0 must not ship"
        );
        let report = c.audit.as_ref().expect("gate audits the shipped rung");
        assert!(report.is_clean(), "{how:?}: shipped schedule is clean");
        assert!(!c.attempts.iter().any(|a| a.escaped()), "{how:?} escaped");
    }
}

/// The in-flight panic escapes rung isolation by design; the driver pool
/// must convert every one into a structured internal error, finish the
/// whole run, and stay usable afterwards.
#[test]
fn driver_pool_survives_in_flight_panics() {
    hush_injected_panics();
    let m = Machine::r8000();
    let chaotic = CompileOptions {
        choice: SchedulerChoice::LadderWith(Box::new(LadderOptions {
            chaos: ChaosOptions {
                panic_in_flight: true,
                ..ChaosOptions::default()
            },
            ..quick_ladder()
        })),
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    };
    for threads in [1, 2, 8] {
        let driver = Driver::new(threads);
        let loops: Vec<_> = (0..6).map(|i| saxpy(&format!("l{i}"))).collect();
        let outcomes = driver.run_indexed(loops.len(), |i| {
            driver.compile_with(&loops[i], &m, &chaotic)
        });
        assert_eq!(outcomes.len(), loops.len(), "every job completed");
        for out in &outcomes {
            match out {
                Err(CompileError::Internal {
                    rung: None,
                    message,
                }) => {
                    assert!(message.contains("chaos:"), "panic message preserved")
                }
                other => panic!("expected a structured internal error, got {other:?}"),
            }
        }
        // The pool and the cache both survived: a quiet ladder compile
        // on the same driver succeeds and is audit-clean.
        let quiet = CompileOptions {
            choice: SchedulerChoice::LadderWith(Box::new(quick_ladder())),
            verify: VerifyLevel::Off,
            ..CompileOptions::default()
        };
        let c = driver
            .compile_with(&loops[0], &m, &quiet)
            .expect("pool survives chaos");
        assert!(c.audit.as_ref().expect("gated").is_clean());
    }
}

/// `run_indexed_catching` reports planted panics per job without
/// aborting the rest of the batch.
#[test]
fn catching_fanout_reports_planted_panics() {
    hush_injected_panics();
    let driver = Driver::new(4);
    let out = driver.run_indexed_catching(16, |i| {
        assert!(i != 9, "chaos: planted panic in job {i}");
        i * 2
    });
    for (i, r) in out.iter().enumerate() {
        match r {
            Ok(v) => {
                assert_eq!(*v, i * 2);
                assert_ne!(i, 9);
            }
            Err(p) => {
                assert_eq!((p.job, i), (9, 9), "only the planted job fails");
                assert!(p.message.contains("chaos: planted panic in job 9"));
            }
        }
    }
}

/// Regression (satellite): a cache leader that panics mid-compile must
/// neither strand its waiters nor poison the slot — later requests for
/// the same key compile fresh and succeed.
#[test]
fn cache_recovers_after_a_panicking_leader() {
    hush_injected_panics();
    let m = Machine::r8000();
    let driver = Driver::new(4);
    let lp = saxpy("shared");
    let chaotic = CompileOptions {
        choice: SchedulerChoice::LadderWith(Box::new(LadderOptions {
            chaos: ChaosOptions {
                panic_in_flight: true,
                ..ChaosOptions::default()
            },
            ..quick_ladder()
        })),
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    };
    // Many concurrent requests for the SAME key: each round's leader
    // panics, waiters must be woken and promoted until all have failed
    // structurally. If the guard misbehaved this would hang (caught by
    // the test harness timeout) or poison the cache.
    let outcomes = driver.run_indexed(12, |_| driver.compile_with(&lp, &m, &chaotic));
    assert!(outcomes
        .iter()
        .all(|o| matches!(o, Err(CompileError::Internal { rung: None, .. }))));
    // The slot is clean: a quiet compile of the same loop succeeds.
    let quiet = CompileOptions {
        choice: SchedulerChoice::LadderWith(Box::new(quick_ladder())),
        verify: VerifyLevel::Off,
        ..CompileOptions::default()
    };
    let c = driver
        .compile_with(&lp, &m, &quiet)
        .expect("slot not poisoned");
    assert_eq!(c.rung, Some(Rung::Ilp), "quiet saxpy ships from rung 0");
}
