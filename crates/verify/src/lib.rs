//! Independent translation validation for software-pipelined loops.
//!
//! Both pipeliners in this tree (the SGI-style heuristic of `swp-heur`
//! and the MOST ILP formulation of `swp-most`) are trusted by every
//! experiment to emit *correct* modulo schedules. This crate removes that
//! trust: it re-derives, from nothing but the loop body, the machine
//! description, and the final artifact, every property a correct
//! compilation must have, and reports violations through a structured
//! diagnostics engine with stable lint codes.
//!
//! Four analyzers:
//!
//! 1. [`audit_schedule`] — dependence separation modulo II, the modulo
//!    reservation table, and issue width, rebuilt from the DDG
//!    (`SWP-V1xx`);
//! 2. [`audit_registers`] — live ranges modulo II recomputed from the
//!    allocated kernel; no two simultaneously-live values may share a
//!    physical register across modulo-renamed copies, and MaxLive must
//!    fit the register file (`SWP-V2xx`);
//! 3. [`audit_expansion`] — the prologue/kernel/epilogue must be a
//!    faithful unrolling of the scheduled kernel, with correct stage
//!    predicates and entry/exit overhead accounting (`SWP-V3xx`);
//! 4. [`audit_banks`] — the memory-bank pairing claims of
//!    `heur::bankopt` must hold on every co-issued instance pair in the
//!    final schedule (`SWP-V4xx`).
//!
//! **Independence invariant**: the analyzers share no scheduling,
//! allocation, or expansion code with the crates they audit. They consume
//! only public *artifact* accessors ([`swp_codegen::PipelinedLoop`],
//! [`swp_regalloc::Allocation`]) plus the same inputs the schedulers saw
//! (body, DDG, machine), and re-implement all derived arithmetic — live
//! ranges, cyclic interference, instance enumeration, bank phases — from
//! the definitions. The one deliberate exception: the bank analyzer calls
//! `bankopt`'s classifier to learn what was *claimed*, then verifies the
//! claim with its own address arithmetic.
//!
//! The pre-scheduling IR lints of [`swp_ir::lint`] surface here too
//! (`SWP-L00x`), mapped onto the same [`Finding`] type, so one report
//! carries everything known about a compilation.
//!
//! # Examples
//!
//! ```
//! use swp_codegen::PipelinedLoop;
//! use swp_heur::{pipeline, HeurOptions};
//! use swp_ir::LoopBuilder;
//! use swp_machine::Machine;
//! use swp_verify::{audit, VerifyLevel};
//!
//! let m = Machine::r8000();
//! let mut b = LoopBuilder::new("scale");
//! let a = b.invariant_f("a");
//! let x = b.array("x", 8);
//! let v = b.load(x, 0, 8);
//! let w = b.fmul(a, v);
//! b.store(x, 0, 8, w);
//! let lp = b.finish();
//! let p = pipeline(&lp, &m, &HeurOptions::default())?;
//! let code = PipelinedLoop::expand(&p.body, &p.schedule, &p.allocation);
//! let report = audit(&code, &m, VerifyLevel::Full);
//! assert!(report.is_clean(), "{}", report.render_human());
//! # Ok::<(), swp_heur::PipelineError>(())
//! ```

mod banks;
mod diag;
mod expansion;
mod regs;
mod schedule;

pub use banks::{audit_banks, check_bank_claim};
pub use diag::{Finding, Severity, VerifyLevel, VerifyReport};
pub use expansion::audit_expansion;
pub use regs::audit_registers;
pub use schedule::audit_schedule;

use swp_codegen::PipelinedLoop;
use swp_ir::Loop;
use swp_machine::Machine;

/// Run the translation-validation pass over one compiled loop at the
/// given level: `Schedule` runs analyzer 1, `Full` runs all four.
pub fn audit(code: &PipelinedLoop, machine: &Machine, level: VerifyLevel) -> VerifyReport {
    let mut findings = Vec::new();
    if level == VerifyLevel::Off {
        return VerifyReport { level, findings };
    }
    let _span = swp_obs::span("verify.audit").with_s("loop", code.body().name());
    findings.extend(audit_schedule(code.body(), code.schedule(), machine));
    if level == VerifyLevel::Full {
        findings.extend(audit_registers(
            code.body(),
            code.schedule(),
            code.allocation(),
            machine,
        ));
        findings.extend(audit_expansion(code));
        findings.extend(audit_banks(code, machine));
    }
    swp_obs::count(swp_obs::Counter::VerifyAudits, 1);
    swp_obs::count(swp_obs::Counter::VerifyFindings, findings.len() as u64);
    VerifyReport { level, findings }
}

/// Run the pre-scheduling IR lints and map them onto [`Finding`]s.
/// Severity by code: structural violations, unschedulable dependence
/// cycles, and distance-0 use-before-def are errors; dead ops and dead
/// store pairs are warnings; dead recurrences and unbreakable zero-slack
/// recurrences are notes (suspicious but semantics-preserving to
/// schedule).
pub fn lint_findings(lp: &Loop, machine: &Machine) -> Vec<Finding> {
    swp_ir::lint::lint_loop(lp, machine)
        .into_iter()
        .map(|l| {
            let mut f = match l.code {
                "SWP-L002" | "SWP-L006" => Finding::warning(l.code, l.message),
                "SWP-L004" | "SWP-L007" => Finding::note(l.code, l.message),
                _ => Finding::error(l.code, l.message),
            };
            f.op = l.op;
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_heur::{pipeline, HeurOptions};
    use swp_ir::LoopBuilder;

    fn compiled() -> (Machine, PipelinedLoop) {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("saxpy");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let r = b.fmadd(a, xv, yv);
        b.store(y, 0, 8, r);
        let lp = b.finish();
        let p = pipeline(&lp, &m, &HeurOptions::default()).expect("pipelines");
        let code = PipelinedLoop::expand(&p.body, &p.schedule, &p.allocation);
        (m, code)
    }

    #[test]
    fn full_audit_certifies_a_real_compile() {
        let (m, code) = compiled();
        let report = audit(&code, &m, VerifyLevel::Full);
        assert!(report.is_clean(), "{}", report.render_human());
        assert_eq!(report.level, VerifyLevel::Full);
    }

    #[test]
    fn off_level_checks_nothing() {
        let (m, code) = compiled();
        assert!(audit(&code, &m, VerifyLevel::Off).findings.is_empty());
    }

    #[test]
    fn ilp_schedules_are_certified_too() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let s = b.carried_f("s");
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let acc = b.fmadd(xv, yv, s.value());
        b.close(s, acc, 1);
        b.store(y, 800_000, 8, acc);
        let lp = b.finish();
        let p =
            swp_most::pipeline_most(&lp, &m, &swp_most::MostOptions::default()).expect("pipelines");
        let code = PipelinedLoop::expand(&p.body, &p.schedule, &p.allocation);
        let report = audit(&code, &m, VerifyLevel::Full);
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn lints_map_to_findings_with_severities() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("deadish");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let _dead = b.fadd(v, v);
        b.store(x, 800, 8, v);
        let lp = b.finish();
        let fs = lint_findings(&lp, &m);
        assert!(
            fs.iter()
                .any(|f| f.code == "SWP-L002" && f.severity == Severity::Warning),
            "{fs:?}"
        );
    }
}
