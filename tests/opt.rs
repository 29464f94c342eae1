//! Property-based lockdown of the mid-end pass pipeline: every pass —
//! individually and composed to a fixpoint — must preserve the simulated
//! memory image of random loops bit-for-bit, and an optimized compile
//! must still certify cleanly under the full `swp-verify` audit for both
//! schedulers.

use proptest::prelude::*;
use showdown::{compile_loop_with, CompileOptions, OptLevel, PassManager, SchedulerChoice};
use swp_ir::opt::{pass_names, run_pass};
use swp_kernels::{random_loop, GenParams};
use swp_machine::Machine;
use swp_sim::check_loops_equivalent;
use swp_verify::VerifyLevel;

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

    /// Each pass, run alone over fresh analyses, keeps the loop valid and
    /// the 12-iteration memory image bit-identical. (Re-association may
    /// change a *pure* accumulator's value; the differential simulation
    /// compares stores, which is exactly the observable contract.)
    #[test]
    fn each_pass_preserves_semantics((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        for &name in pass_names(OptLevel::Full) {
            let mut optimized = lp.clone();
            if run_pass(name, &mut optimized, &m) {
                prop_assert_eq!(optimized.validate(), Ok(()), "{} broke validate()", name);
                if let Err(e) = check_loops_equivalent(&lp, &optimized, 12, 0.0) {
                    prop_assert!(false, "{} changed semantics: {}", name, e);
                }
            }
        }
    }

    /// The full fixpoint pipeline preserves semantics, never grows the
    /// loop, and reports zero structural-audit findings on its own work.
    #[test]
    fn full_pipeline_preserves_semantics((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        let mut optimized = lp.clone();
        let outcome = PassManager::new(OptLevel::Full).run(&mut optimized, &m);
        prop_assert_eq!(optimized.validate(), Ok(()));
        prop_assert!(optimized.len() <= lp.len(), "pipeline grew the loop");
        prop_assert!(
            outcome.findings.is_empty(),
            "structural audit flagged the pipeline: {:?}",
            outcome.findings
        );
        if let Err(e) = check_loops_equivalent(&lp, &optimized, 12, 0.0) {
            prop_assert!(false, "pipeline changed semantics: {}", e);
        }
        // A second run must be a fixpoint: nothing left to do.
        let mut again = optimized.clone();
        let second = PassManager::new(OptLevel::Full).run(&mut again, &m);
        prop_assert_eq!(second.total_applications(), 0, "pipeline is not idempotent");
    }
}

proptest! {
    // ILP solves are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipeline-then-schedule on lint-clean inputs certifies at zero
    /// findings — not merely zero errors — under the full audit, for
    /// both schedulers, with every pass application sim-validated.
    #[test]
    fn optimized_compiles_audit_clean_for_both_schedulers((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let small = GenParams { ops: p.ops.min(16), ..p };
        let lp = random_loop(&small, seed);
        // Only lint-clean inputs: a pre-existing lint would land in the
        // audit report and has nothing to do with the pipeline.
        if !swp_ir::lint::lint_loop(&lp, &m).is_empty() {
            return Ok(());
        }
        let ilp = SchedulerChoice::IlpWith(swp_most::MostOptions {
            node_limit: 5_000,
            ..swp_most::MostOptions::default()
        });
        for choice in [SchedulerChoice::Heuristic, ilp] {
            let options = CompileOptions {
                choice,
                verify: VerifyLevel::Full,
                opt: OptLevel::Full,
                ..CompileOptions::default()
            };
            if let Ok(c) = compile_loop_with(&lp, &m, &options) {
                let report = c.audit.expect("verify on");
                prop_assert!(
                    report.findings.is_empty(),
                    "optimized compile not clean:\n{}",
                    report.render_human()
                );
            }
        }
    }
}
