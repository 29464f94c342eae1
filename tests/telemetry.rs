//! Lockdown of the `swp-obs` telemetry subsystem at the public API:
//!
//! - every `Exact` counter must aggregate **bit-identically** at any
//!   thread count (the whole point of the class — a metric you can gate
//!   CI on is one that parallelism cannot smear);
//! - a traced compile must record a span for every phase it went
//!   through, and the exported Chrome trace must pass the same schema
//!   validation the CI profile job applies;
//! - an explicitly *disabled* handle must cost the same as the default
//!   options (the <2% acceptance bound, enforced with min-of-N wall
//!   clocks plus an absolute slack so scheduler noise cannot flake it).

use proptest::prelude::*;
use showdown::{
    compile_loop_with, CompileOptions, CounterSnapshot, Driver, LadderOptions, OptLevel,
    SchedulerChoice, Telemetry, VerifyLevel,
};
use std::time::{Duration, Instant};
use swp_kernels::{livermore, random_loop, GenParams};
use swp_machine::Machine;
use swp_most::MostOptions;

/// Tight, fully deterministic ILP budgets: node/pivot counts only, no
/// wall clocks, and a 12-op ceiling so large random loops fall back to
/// the heuristic instantly instead of grinding in debug builds. Any
/// wall-clock budget here would break the cross-thread determinism this
/// file exists to prove.
fn tight_most() -> MostOptions {
    MostOptions {
        node_limit: 2_000,
        pivot_limit: 20_000,
        time_limit: None,
        loop_time_limit: None,
        loop_pivot_limit: Some(60_000),
        max_ops: 12,
        ..MostOptions::default()
    }
}

/// Compile every loop under both schedulers through a fresh driver at
/// `threads` workers, reporting into a fresh telemetry handle; return
/// the final counter totals.
fn counters_at(loops: &[swp_ir::Loop], machine: &Machine, threads: usize) -> CounterSnapshot {
    let telemetry = Telemetry::new();
    let options = [
        CompileOptions {
            choice: SchedulerChoice::Heuristic,
            verify: VerifyLevel::Full,
            // Full opt so the mid-end's Exact counters are covered by
            // the cross-thread determinism proof too.
            opt: OptLevel::Full,
            telemetry: telemetry.clone(),
        },
        CompileOptions {
            choice: SchedulerChoice::IlpWith(tight_most()),
            verify: VerifyLevel::Off,
            opt: OptLevel::Off,
            telemetry: telemetry.clone(),
        },
    ];
    let driver = Driver::new(threads);
    let _ = driver.run_indexed(loops.len() * options.len(), |j| {
        driver
            .compile_with(
                &loops[j / options.len()],
                machine,
                &options[j % options.len()],
            )
            .is_ok()
    });
    telemetry.counters()
}

fn suite_strategy() -> impl Strategy<Value = (GenParams, u64)> {
    (4usize..20, 0.1f64..0.5, 0usize..2, 0u64..1000).prop_map(|(ops, mem, rec, seed)| {
        (
            GenParams {
                ops,
                mem_fraction: mem,
                recurrences: rec,
                div_fraction: 0.0,
            },
            seed,
        )
    })
}

/// Derive a small suite of distinct loops from one sampled point: vary
/// both the op count and the seed so the loops are structurally
/// different (distinct schedule-cache keys).
fn suite_loops(p: &GenParams, seed: u64) -> Vec<swp_ir::Loop> {
    (0..4u64)
        .map(|i| {
            let params = GenParams {
                ops: p.ops + i as usize,
                ..*p
            };
            random_loop(&params, seed.wrapping_add(i))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: registered counters are bit-identical across
    /// `--threads 1/2/8` on random loop suites. `exact_eq` compares the
    /// `Exact` class only — `Timing` metrics such as in-flight cache
    /// waits legitimately depend on scheduling and are exempt.
    #[test]
    fn exact_counters_are_bit_identical_across_thread_counts((p, seed) in suite_strategy()) {
        let m = Machine::r8000();
        let loops = suite_loops(&p, seed);
        let reference = counters_at(&loops, &m, 1);
        for threads in [2usize, 8] {
            let parallel = counters_at(&loops, &m, threads);
            prop_assert!(
                reference.exact_eq(&parallel),
                "Exact counters diverged at {threads} threads:\n 1: {:?}\n{threads}: {:?}",
                reference.iter().collect::<Vec<_>>(),
                parallel.iter().collect::<Vec<_>>()
            );
        }
    }
}

/// A traced ladder compile through the driver records a span for every
/// phase it went through, and the exported Chrome trace validates.
#[test]
fn traced_compile_records_every_phase_and_exports_a_valid_trace() {
    let m = Machine::r8000();
    let telemetry = Telemetry::with_tracing();
    let driver = Driver::new(2);

    // Rung 0 of the ladder solves the ILP (ii steps + solves), allocates
    // registers, expands the kernel, and runs the verify gate.
    let ladder = CompileOptions {
        choice: SchedulerChoice::LadderWith(Box::new(LadderOptions {
            most: tight_most(),
            ..LadderOptions::default()
        })),
        verify: VerifyLevel::Off,
        opt: OptLevel::Off,
        telemetry: telemetry.clone(),
    };
    // A plain heuristic compile adds the heuristic scheduler spans.
    let heur = CompileOptions {
        choice: SchedulerChoice::Heuristic,
        verify: VerifyLevel::Full,
        opt: OptLevel::Full,
        telemetry: telemetry.clone(),
    };
    let lp = &livermore()[0].body;
    driver
        .compile_with(lp, &m, &ladder)
        .expect("ladder compiles");
    driver
        .compile_with(lp, &m, &heur)
        .expect("heuristic compiles");

    let names = telemetry.span_names();
    for expected in [
        "cache.lookup",
        "compile",
        "ladder.rung",
        "most.ii_step",
        "most.floor",
        "ilp.solve",
        "heur.attempt",
        "sched.heur",
        "regalloc.attempt",
        "expand",
        "verify.audit",
    ] {
        assert!(
            names.contains(&expected),
            "no {expected:?} span recorded; got {names:?}"
        );
    }
    let trace = telemetry.chrome_trace_json();
    let events = showdown::swp_obs::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("exported trace is invalid: {e}"));
    assert_eq!(events, telemetry.span_count(), "every span is exported");
}

/// Satellite: a disabled `Telemetry` handle adds <2% overhead on the
/// Livermore sweep. An explicitly disabled handle and the default
/// options run the identical code path, so this is a regression tripwire
/// against the disabled path ever growing real work — measured as
/// min-of-N so one scheduler hiccup cannot flake it, with an absolute
/// slack floor for when the sweep itself is only milliseconds long.
#[test]
fn disabled_telemetry_stays_under_two_percent_on_the_livermore_sweep() {
    let m = Machine::r8000();
    let kernels = livermore();
    let baseline = CompileOptions::default();
    let disabled = CompileOptions {
        telemetry: Telemetry::disabled(),
        ..CompileOptions::default()
    };
    let sweep = |options: &CompileOptions| {
        let start = Instant::now();
        for k in &kernels {
            compile_loop_with(&k.body, &m, options).expect("livermore compiles");
        }
        start.elapsed()
    };
    // Warm-up, then interleaved min-of-5 for each configuration.
    let _ = (sweep(&baseline), sweep(&disabled));
    let mut base_min = Duration::MAX;
    let mut off_min = Duration::MAX;
    for _ in 0..5 {
        base_min = base_min.min(sweep(&baseline));
        off_min = off_min.min(sweep(&disabled));
    }
    let slack = (base_min / 50).max(Duration::from_millis(10));
    assert!(
        off_min <= base_min + slack,
        "disabled telemetry sweep {off_min:?} exceeds baseline {base_min:?} + {slack:?}"
    );
}
