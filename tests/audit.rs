//! Property tests for the translation-validation pass: the auditor must
//! accept every schedule either pipeliner produces over random loops, and
//! each of the four analyzers must reject its own class of injected fault
//! (a perturbed op time, a clobbered register, a tampered expanded op, a
//! flipped bank claim).

use proptest::prelude::*;
use showdown::{compile_loop, SchedulerChoice};
use swp_codegen::CodeSection;
use swp_heur::bankopt::{relative_bank_at, RelBank};
use swp_ir::Schedule;
use swp_kernels::{random_loop, GenParams};
use swp_machine::Machine;
use swp_verify::{
    audit, audit_expansion, audit_registers, audit_schedule, check_bank_claim, VerifyLevel,
};

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

/// Budgeted ILP configuration. The property quantifies over whatever
/// artifact comes out — fallback schedules must pass the audit too — so
/// tight deterministic budgets cost it nothing and keep debug-build
/// solves bounded.
fn ilp_choice() -> SchedulerChoice {
    SchedulerChoice::IlpWith(swp_most::MostOptions {
        node_limit: 5_000,
        pivot_limit: 2_000,
        loop_pivot_limit: Some(4_000),
        ..swp_most::MostOptions::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn auditor_accepts_every_heuristic_schedule((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            let report = audit(&c.code, &m, VerifyLevel::Full);
            prop_assert!(report.findings.is_empty(), "{}", report.render_human());
        }
    }

    // Analyzer 1 (schedule): moving one op to a negative cycle must be
    // caught — no modulo schedule issues before cycle 0.
    #[test]
    fn schedule_analyzer_rejects_a_perturbed_op_time(
        (p, seed) in params_strategy(),
        pick in 0usize..64,
    ) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            let body = c.code.body();
            let s = c.code.schedule();
            let mut times = s.times().to_vec();
            let victim = pick % times.len();
            times[victim] = -1;
            let bad = Schedule::new(s.ii(), times);
            let fs = audit_schedule(body, &bad, &m);
            prop_assert!(
                fs.iter().any(|f| f.code.starts_with("SWP-V1")),
                "negative time went unflagged: {fs:?}"
            );
        }
    }

    // Analyzer 2 (registers): rewriting one value's assignment to a
    // register beyond the file must be caught.
    #[test]
    fn register_analyzer_rejects_a_clobbered_assignment((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            let body = c.code.body();
            let v = body.ops().iter().find_map(|o| o.result).expect("loads define values");
            let bad = c.code.allocation().with_assignment(v, 0, 999);
            let fs = audit_registers(body, c.code.schedule(), &bad, &m);
            prop_assert!(
                fs.iter().any(|f| f.code.starts_with("SWP-V2")),
                "out-of-file register went unflagged: {fs:?}"
            );
        }
    }

    // Analyzer 3 (expansion): shifting one kernel op off its cycle must
    // break the op-for-op correspondence with the schedule.
    #[test]
    fn expansion_analyzer_rejects_a_tampered_kernel_op(
        (p, seed) in params_strategy(),
        pick in 0usize..64,
    ) {
        let m = Machine::r8000();
        let lp = random_loop(&p, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            let idx = pick % c.code.kernel().len();
            let mut op = c.code.kernel()[idx];
            op.cycle += 1;
            let bad = c.code.with_tampered_op(CodeSection::Kernel, idx, op);
            let fs = audit_expansion(&bad);
            prop_assert!(
                fs.iter().any(|f| f.code.starts_with("SWP-V3")),
                "tampered kernel op went unflagged: {fs:?}"
            );
        }
    }

    // Analyzer 4 (banks): wherever the classifier makes a definite claim
    // that the brute-force walk certifies, the *opposite* claim must be
    // refuted by the same walk.
    #[test]
    fn bank_analyzer_rejects_a_flipped_claim((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let denser = GenParams { mem_fraction: p.mem_fraction.max(0.3), ..p };
        let lp = random_loop(&denser, seed);
        if let Ok(c) = compile_loop(&lp, &m, &SchedulerChoice::Heuristic) {
            let body = c.code.body();
            let s = c.code.schedule();
            let mem: Vec<&swp_ir::Op> = body.mem_ops().collect();
            for (n, &a) in mem.iter().enumerate() {
                for &b in &mem[n + 1..] {
                    if s.row(a.id) != s.row(b.id) {
                        continue;
                    }
                    let (t_a, t_b) = (s.time(a.id), s.time(b.id));
                    let claim = relative_bank_at(
                        body, &a.mem.unwrap(), t_a, &b.mem.unwrap(), t_b, s.ii(),
                    );
                    let flipped = match claim {
                        RelBank::KnownSame => RelBank::KnownOpposite,
                        RelBank::KnownOpposite => RelBank::KnownSame,
                        RelBank::Unknown => continue,
                    };
                    if check_bank_claim(body, a, t_a, b, t_b, s.ii(), &m, claim).is_none() {
                        let f = check_bank_claim(body, a, t_a, b, t_b, s.ii(), &m, flipped);
                        prop_assert!(
                            f.is_some(),
                            "flipped {claim:?} claim about ops {}/{} was not refuted",
                            a.id.0,
                            b.id.0
                        );
                    }
                }
            }
        }
    }
}

/// The warm dual-simplex path must produce audit-clean schedules: a loop
/// big enough that branch-and-bound performs thousands of warm node
/// re-solves, solved under deterministic budgets with the fallback
/// disabled (success therefore certifies the ILP path produced the
/// artifact), then pushed through the full audit.
#[test]
fn warm_path_most_schedule_audits_clean() {
    let m = Machine::r8000();
    let lp = random_loop(
        &GenParams {
            ops: 20,
            ..GenParams::default()
        },
        42,
    );
    let choice = SchedulerChoice::IlpWith(swp_most::MostOptions {
        node_limit: 2_000,
        pivot_limit: 20_000,
        fallback: false,
        ..swp_most::MostOptions::default()
    });
    let c = compile_loop(&lp, &m, &choice).expect("MOST schedules a 20-op loop");
    assert!(!c.stats.fell_back, "fallback disabled yet taken");
    let report = audit(&c.code, &m, VerifyLevel::Full);
    assert!(report.findings.is_empty(), "{}", report.render_human());
}

proptest! {
    // ILP solves are slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn auditor_accepts_every_ilp_schedule((p, seed) in params_strategy()) {
        let m = Machine::r8000();
        let small = GenParams { ops: p.ops.min(10), ..p };
        let lp = random_loop(&small, seed);
        if let Ok(c) = compile_loop(&lp, &m, &ilp_choice()) {
            let report = audit(&c.code, &m, VerifyLevel::Full);
            prop_assert!(report.findings.is_empty(), "{}", report.render_human());
        }
    }
}
