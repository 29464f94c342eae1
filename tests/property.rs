//! Property-based tests over randomly generated loops: the invariants
//! every layer of the system must uphold regardless of loop shape.

use proptest::prelude::*;
use showdown::{compile_loop, CompileOptions, ScheduleCache, SchedulerChoice};
use std::sync::Arc;
use swp_ir::{opt, spill, Ddg, LongestPaths};
use swp_kernels::{random_loop, GenParams};
use swp_machine::Machine;
use swp_regalloc::{allocate, max_live, AllocOutcome};
use swp_sim::interp::{run_pipelined, run_sequential};

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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_loops_always_validate((p, seed) in params_strategy()) {
        let lp = random_loop(&p, seed);
        prop_assert_eq!(lp.validate(), Ok(()));
    }

    #[test]
    fn heuristic_schedules_are_always_valid((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        let c = compile_loop(&lp, &m, &SchedulerChoice::Heuristic);
        if let Ok(c) = c {
            let ddg = Ddg::build(c.code.body(), &m);
            prop_assert_eq!(c.code.schedule().validate(c.code.body(), &ddg, &m), Ok(()));
            prop_assert!(c.stats.ii >= c.stats.min_ii);
            // The achieved II never exceeds the MaxII circuit breaker.
            prop_assert!(c.stats.ii <= 2 * Ddg::build(c.code.body(), &m).min_ii());
        }
    }

    #[test]
    fn pipelined_semantics_match_sequential((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            // Compare against the original body when nothing was spilled;
            // with spills, against the compiled body (the spill test in
            // end_to_end.rs covers original-vs-spilled).
            let body = c.code.body();
            let seq = run_sequential(body, 12);
            let pip = run_pipelined(&c.code, 12).expect("schedule preserves dependences");
            prop_assert!(seq.approx_eq(&pip, 0.0), "issue-order execution diverged");
        }
    }

    #[test]
    fn allocation_respects_register_files((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            for class in swp_machine::RegClass::ALL {
                prop_assert!(c.code.regs_used(class) <= m.allocatable(class));
            }
        }
    }

    #[test]
    fn max_live_lower_bounds_allocation((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            let body = c.code.body();
            let ml = max_live(body, c.code.schedule());
            match allocate(body, c.code.schedule(), &m) {
                AllocOutcome::Allocated(a) => {
                    prop_assert!(a.regs_used(swp_machine::RegClass::Float) >= ml[0]);
                    prop_assert!(a.regs_used(swp_machine::RegClass::Int) >= ml[1]);
                }
                AllocOutcome::Failed { .. } => prop_assert!(false, "compile succeeded but re-allocation failed"),
            }
        }
    }

    #[test]
    fn longest_paths_feasibility_matches_rec_mii((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        let ddg = Ddg::build(&lp, &m);
        let rec = ddg.rec_mii();
        prop_assert!(LongestPaths::compute(&ddg, rec).is_some());
        if rec > 1 {
            prop_assert!(LongestPaths::compute(&ddg, rec - 1).is_none());
        }
    }

    #[test]
    fn cse_preserves_semantics_prop((p, seed) in params_strategy()) {
        // The mid-end's `gvn` pass is the CSE; run it alone to a fixpoint.
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        let mut optimized = lp.clone();
        while opt::run_pass("gvn", &mut optimized, &m) {}
        prop_assert_eq!(optimized.validate(), Ok(()));
        let a = run_sequential(&lp, 10);
        let b = run_sequential(&optimized, 10);
        prop_assert!(a.approx_eq(&b, 0.0), "CSE changed semantics");
    }

    #[test]
    fn spill_preserves_semantics_prop((p, seed) in params_strategy()) {
        let lp = random_loop(&p, seed);
        // Spill the first spillable (defined and used) value.
        let uses = lp.uses();
        let victim = lp.values().iter().enumerate().find_map(|(i, info)| {
            let v = swp_ir::ValueId(i as u32);
            (info.def.is_some() && !uses[i].is_empty()).then_some(v)
        });
        if let Some(v) = victim {
            let n_arrays = lp.arrays().len() as u32;
            let spilled = spill::spill_to_memory(&lp, &[v]);
            prop_assert_eq!(spilled.validate(), Ok(()));
            let a = run_sequential(&lp, 10);
            let b = run_sequential(&spilled, 10);
            let aw = a.written();
            let bw: Vec<_> = b.written().into_iter().filter(|((arr, _), _)| *arr < n_arrays).collect();
            let same = aw.len() == bw.len()
                && aw.iter().zip(&bw).all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits());
            prop_assert!(same, "spill changed visible memory");
        }
    }
}

proptest! {
    // ILP solves are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ilp_never_reports_ii_below_min((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let small = GenParams { ops: p.ops.min(12), ..p };
        let lp = random_loop(&small, seed);
        let opts = swp_most::MostOptions {
            node_limit: 5_000,
            pivot_limit: 2_000,
            loop_pivot_limit: Some(4_000),
            fallback: false,
            ..swp_most::MostOptions::default()
        };
        if let Ok(r) = swp_most::pipeline_most(&lp, &m, &opts) {
            let ddg = Ddg::build(&lp, &m);
            prop_assert!(r.ii() >= ddg.min_ii());
            prop_assert_eq!(r.schedule.validate(&lp, &ddg, &m), Ok(()));
        }
    }

    #[test]
    fn cache_hit_is_identical_to_fresh_compile((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let small = GenParams { ops: p.ops.min(16), ..p };
        let lp = random_loop(&small, seed);
        // Node-budgeted ILP only: a wall-clock budget would make the
        // fresh reference compile nondeterministic, and this test is
        // about the cache, not solver timing. The fallback path (budget
        // exhausted -> heuristic) is deterministic and stays enabled.
        let ilp = SchedulerChoice::IlpWith(swp_most::MostOptions {
            node_limit: 5_000,
            ..swp_most::MostOptions::default()
        });
        for choice in [SchedulerChoice::Heuristic, ilp] {
            let cache = ScheduleCache::new();
            let options = CompileOptions::from(choice.clone());
            let first = cache.get_or_compile_with(&lp, &m, &options);
            let hit = cache.get_or_compile_with(&lp, &m, &options);
            let fresh = compile_loop(&lp, &m, &choice);
            prop_assert_eq!(cache.stats().hits, 1, "second lookup must hit");
            match (first, hit, fresh) {
                (Ok(first), Ok(hit), Ok(fresh)) => {
                    // The hit shares the memoized object outright…
                    prop_assert!(Arc::ptr_eq(&first, &hit), "hit must share the memoized compile");
                    // …and that object matches a from-scratch compile:
                    // same II, same op cycles, same register assignment,
                    // same expanded code wholesale.
                    prop_assert_eq!(hit.stats.ii, fresh.stats.ii);
                    prop_assert_eq!(hit.code.schedule(), fresh.code.schedule());
                    for class in swp_machine::RegClass::ALL {
                        prop_assert_eq!(hit.code.regs_used(class), fresh.code.regs_used(class));
                    }
                    prop_assert_eq!(&hit.code, &fresh.code);
                }
                (Err(first), Err(hit), Err(fresh)) => {
                    prop_assert_eq!(&first, &hit, "memoized error must replay");
                    prop_assert_eq!(&hit, &fresh);
                }
                _ => prop_assert!(false, "cache changed the compile outcome"),
            }
        }
    }
}
