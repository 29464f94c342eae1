//! The self-validating mid-end pass pipeline.
//!
//! A fixed-point [`PassManager`] runs the §2.1-style pre-pipelining
//! transformations over a [`Loop`], each pass a `fn(&mut Loop, &Analyses)
//! -> bool` consuming the dataflow bundle of [`crate::analysis`]:
//!
//! | pass       | effect                                                |
//! |------------|-------------------------------------------------------|
//! | `fold`     | constant folding over literal invariants              |
//! | `simplify` | exact algebraic rewrites (×1.0, select-same, copy-prop, multiply–add fusion) |
//! | `strength` | division by a power-of-two literal → multiplication   |
//! | `gvn`      | global value numbering (subsumes classical CSE)       |
//! | `dce`      | dead-op elimination from cross-iteration liveness     |
//! | `reassoc`  | recurrence re-association: widen a pure accumulator's self-distance to break RecMII |
//!
//! Every rewrite except `reassoc` is bit-exact under the functional
//! interpreter's semantics (`swp-sim`); `reassoc` changes only values that
//! never reach memory (the accumulator live-out gains interleaved partial
//! sums the epilogue must add — outside the modeled kernel), so the memory
//! image is preserved by construction.
//!
//! The pipeline is self-validating at two layers:
//!
//! - a structural auditor checks every pass application and reverts bad
//!   ones, reporting stable `SWP-P0xx` codes:
//!   - `SWP-P001` — the transformed loop fails [`Loop::validate`] (revert);
//!   - `SWP-P002` — the multiset of store descriptors changed (revert);
//!   - `SWP-P003` — the pass's changed/unchanged claim contradicts the
//!     loop diff (finding only);
//!   - `SWP-P004` — the array table changed (revert);
//!   - `SWP-P005` — differential simulation diverged (revert);
//!   - `SWP-P006` — the op count increased (revert);
//! - an optional translation validator (wired to differential simulation
//!   via `swp-sim` by `core::compile`, which owns that dependency edge)
//!   runs on the before/after pair of every applied pass.

use crate::analysis::{expr_key, Analyses, VnKey};
use crate::op::{Loop, Op, OpId, Operand, Sem, ValueId, ValueInfo};
use std::collections::HashMap;
use std::time::Instant;
use swp_machine::{Machine, OpClass};

/// How much mid-end optimization to run before scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// No mid-end passes (the historical behavior).
    #[default]
    Off,
    /// Semantics-preserving cleanups only: fold, simplify, strength
    /// reduction, GVN, DCE.
    Basic,
    /// Everything, including recurrence re-association (which reassociates
    /// floating-point reductions, §2.1(3b) of the paper).
    Full,
}

impl OptLevel {
    /// Short stable name for reports and cache keys.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Off => "off",
            OptLevel::Basic => "basic",
            OptLevel::Full => "full",
        }
    }
}

/// One structural-audit or validation finding from the pass pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptFinding {
    /// Stable `SWP-P0xx` code.
    pub code: &'static str,
    /// The pass being audited.
    pub pass: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// What the pipeline did to one loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptOutcome {
    /// Pass names in first-execution order — every pass that *ran*,
    /// whether or not it changed anything. A deadline-truncated pipeline
    /// records fewer names than a complete one.
    pub passes_run: Vec<&'static str>,
    /// `(pass, applications)` — how many times each pass changed the loop.
    pub applications: Vec<(&'static str, u32)>,
    /// Op count before the pipeline.
    pub ops_before: usize,
    /// Op count after.
    pub ops_after: usize,
    /// RecMII before the pipeline (analysis machine).
    pub rec_mii_before: u32,
    /// RecMII after.
    pub rec_mii_after: u32,
    /// Fixpoint rounds executed.
    pub rounds: u32,
    /// Whether the deadline cut the pipeline short.
    pub truncated: bool,
    /// Pass applications undone by the auditor or the validator.
    pub reverts: u32,
    /// Structural-audit and validation findings.
    pub findings: Vec<OptFinding>,
}

impl OptOutcome {
    /// Net ops removed by the pipeline.
    pub fn ops_removed(&self) -> usize {
        self.ops_before.saturating_sub(self.ops_after)
    }

    /// Total pass applications.
    pub fn total_applications(&self) -> u32 {
        self.applications.iter().map(|&(_, n)| n).sum()
    }
}

/// A translation validator: given the loop before and after one pass
/// application, decide whether the transform preserved semantics.
pub type Validator<'a> = dyn Fn(&Loop, &Loop) -> Result<(), String> + Send + Sync + 'a;

struct Pass {
    name: &'static str,
    run: fn(&mut Loop, &Analyses) -> bool,
}

const FOLD: Pass = Pass {
    name: "fold",
    run: fold,
};
const SIMPLIFY: Pass = Pass {
    name: "simplify",
    run: simplify,
};
const STRENGTH: Pass = Pass {
    name: "strength",
    run: strength,
};
const GVN: Pass = Pass {
    name: "gvn",
    run: gvn,
};
const DCE: Pass = Pass {
    name: "dce",
    run: dce,
};
const REASSOC: Pass = Pass {
    name: "reassoc",
    run: reassoc,
};

/// Names of the passes enabled at `level`, in pipeline order.
pub fn pass_names(level: OptLevel) -> &'static [&'static str] {
    match level {
        OptLevel::Off => &[],
        OptLevel::Basic => &["fold", "simplify", "strength", "gvn", "dce"],
        OptLevel::Full => &["fold", "simplify", "strength", "gvn", "dce", "reassoc"],
    }
}

/// Run one named pass in isolation over fresh analyses; returns whether
/// it claims to have changed the loop (unknown names are a no-op). This
/// is the hook the property harness uses to check each pass
/// independently of the fixpoint driver.
pub fn run_pass(name: &str, lp: &mut Loop, machine: &Machine) -> bool {
    let passes = [FOLD, SIMPLIFY, STRENGTH, GVN, DCE, REASSOC];
    let Some(pass) = passes.iter().find(|p| p.name == name) else {
        return false;
    };
    if lp.is_empty() {
        return false;
    }
    let an = Analyses::compute(lp, machine);
    (pass.run)(lp, &an)
}

/// Fixed-point driver over the mid-end passes.
///
/// Analyses are recomputed whenever the previous pass changed the loop and
/// reused verbatim otherwise (the invalidation rule is documented in
/// DESIGN.md §10). An optional deadline truncates the pipeline between
/// passes; an optional validator translation-validates every application.
pub struct PassManager<'a> {
    level: OptLevel,
    deadline: Option<Instant>,
    validator: Option<&'a Validator<'a>>,
    max_rounds: u32,
}

impl<'a> PassManager<'a> {
    /// A pass manager at the given level, no deadline, no validator.
    pub fn new(level: OptLevel) -> PassManager<'a> {
        PassManager {
            level,
            deadline: None,
            validator: None,
            max_rounds: 8,
        }
    }

    /// Abort (between passes) once `deadline` has passed.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> PassManager<'a> {
        self.deadline = deadline;
        self
    }

    /// Translation-validate every pass application with `v`; failures
    /// revert the application and record `SWP-P005`.
    pub fn with_validator(mut self, v: &'a Validator<'a>) -> PassManager<'a> {
        self.validator = Some(v);
        self
    }

    fn passes(&self) -> &'static [Pass] {
        match self.level {
            OptLevel::Off => &[],
            OptLevel::Basic => &[FOLD, SIMPLIFY, STRENGTH, GVN, DCE],
            OptLevel::Full => &[FOLD, SIMPLIFY, STRENGTH, GVN, DCE, REASSOC],
        }
    }

    /// Run the pipeline to a fixpoint (or the deadline) on `lp`.
    pub fn run(&self, lp: &mut Loop, machine: &Machine) -> OptOutcome {
        let mut out = OptOutcome {
            ops_before: lp.len(),
            ops_after: lp.len(),
            ..OptOutcome::default()
        };
        let passes = self.passes();
        if passes.is_empty() || lp.is_empty() {
            let an = Analyses::compute(lp, machine);
            out.rec_mii_before = an.rec_mii;
            out.rec_mii_after = an.rec_mii;
            return out;
        }
        let mut an = Analyses::compute(lp, machine);
        out.rec_mii_before = an.rec_mii;
        let mut dirty = false;
        'rounds: for round in 0..self.max_rounds {
            out.rounds = round + 1;
            let mut any_change = false;
            for pass in passes {
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    out.truncated = true;
                    break 'rounds;
                }
                if dirty {
                    an = Analyses::compute(lp, machine);
                    dirty = false;
                }
                if !out.passes_run.contains(&pass.name) {
                    out.passes_run.push(pass.name);
                }
                let before = lp.clone();
                let claimed = (pass.run)(lp, &an);
                match self.audit(pass.name, &before, lp, claimed, &mut out) {
                    Applied::Kept => {
                        dirty = true;
                        any_change = true;
                        match out.applications.iter_mut().find(|(n, _)| *n == pass.name) {
                            Some((_, c)) => *c += 1,
                            None => out.applications.push((pass.name, 1)),
                        }
                    }
                    Applied::Reverted => {
                        *lp = before;
                        out.reverts += 1;
                    }
                    Applied::NoChange => {}
                }
            }
            if !any_change {
                break;
            }
        }
        if dirty {
            an = Analyses::compute(lp, machine);
        }
        out.rec_mii_after = an.rec_mii;
        out.ops_after = lp.len();
        out
    }

    /// Structural audit of one pass application, plus the optional
    /// translation validator. Decides whether the application stands.
    fn audit(
        &self,
        pass: &'static str,
        before: &Loop,
        after: &Loop,
        claimed: bool,
        out: &mut OptOutcome,
    ) -> Applied {
        let differs = before != after;
        if claimed != differs {
            out.findings.push(OptFinding {
                code: "SWP-P003",
                pass,
                message: format!(
                    "pass claimed changed={claimed} but the loop {}",
                    if differs { "differs" } else { "is unchanged" }
                ),
            });
        }
        if !differs {
            return Applied::NoChange;
        }
        if let Err(e) = after.validate() {
            out.findings.push(OptFinding {
                code: "SWP-P001",
                pass,
                message: format!("transformed loop fails validation: {e}"),
            });
            return Applied::Reverted;
        }
        if store_descriptors(before) != store_descriptors(after) {
            out.findings.push(OptFinding {
                code: "SWP-P002",
                pass,
                message: "store descriptor multiset changed".to_owned(),
            });
            return Applied::Reverted;
        }
        if before.arrays() != after.arrays() {
            out.findings.push(OptFinding {
                code: "SWP-P004",
                pass,
                message: "array table changed".to_owned(),
            });
            return Applied::Reverted;
        }
        if after.len() > before.len() {
            out.findings.push(OptFinding {
                code: "SWP-P006",
                pass,
                message: format!("op count grew from {} to {}", before.len(), after.len()),
            });
            return Applied::Reverted;
        }
        if let Some(v) = self.validator {
            if let Err(e) = v(before, after) {
                out.findings.push(OptFinding {
                    code: "SWP-P005",
                    pass,
                    message: format!("differential simulation diverged: {e}"),
                });
                return Applied::Reverted;
            }
        }
        Applied::Kept
    }
}

enum Applied {
    Kept,
    Reverted,
    NoChange,
}

/// Sorted multiset of store memory descriptors — the observable write set
/// shape, which no pass may alter.
fn store_descriptors(lp: &Loop) -> Vec<(u32, i64, i64, bool)> {
    let mut v: Vec<_> = lp
        .ops()
        .iter()
        .filter(|o| o.class == OpClass::Store)
        .map(|o| {
            let m = o.mem.expect("store has mem");
            (m.array.0, m.offset, m.stride, m.indirect)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Replacement target for a value being rewritten away.
enum Repl {
    /// Uses become distance-0 reads of an invariant (constants are the
    /// same at every iteration).
    Invariant(ValueId),
    /// Uses become reads of `v` with the distance increased by `add` (the
    /// replaced op read `v` that many iterations back itself).
    Value { v: ValueId, add: u32 },
}

fn apply_repls(lp: &mut Loop, map: &HashMap<ValueId, Repl>) {
    for op in &mut lp.ops {
        for operand in &mut op.operands {
            match map.get(&operand.value) {
                Some(&Repl::Invariant(c)) => *operand = Operand::now(c),
                Some(&Repl::Value { v, add }) => {
                    *operand = Operand::carried(v, operand.distance + add);
                }
                None => {}
            }
        }
    }
}

/// Remove ops and compact op ids (values keep their ids; dead results
/// become dangling `def: None` entries, which remain valid invariants only
/// if unused — callers must have rewritten uses first).
fn remove_ops(lp: &mut Loop, dead: &[OpId]) {
    let mut id_map: HashMap<OpId, OpId> = HashMap::new();
    let mut ops = Vec::with_capacity(lp.ops.len() - dead.len());
    for op in lp.ops.drain(..) {
        if dead.contains(&op.id) {
            if let Some(r) = op.result {
                lp.values[r.index()].def = None;
            }
            continue;
        }
        let new_id = OpId(ops.len() as u32);
        id_map.insert(op.id, new_id);
        ops.push(Op { id: new_id, ..op });
    }
    lp.ops = ops;
    for info in &mut lp.values {
        if let Some(d) = info.def {
            info.def = id_map.get(&d).copied();
        }
    }
    debug_assert_eq!(lp.validate(), Ok(()));
}

/// Mirror of `swp_sim::interp::eval` for the non-memory semantics. The two
/// must agree bit-for-bit — differential validation of `fold` depends on
/// it (swp-ir cannot depend on swp-sim, so the table is duplicated here
/// and pinned by tests on both sides).
fn eval_const(sem: Sem, args: &[f64]) -> Option<f64> {
    Some(match sem {
        Sem::Add => args[0] + args[1],
        Sem::Sub => args[0] - args[1],
        Sem::Mul => args[0] * args[1],
        Sem::Div => {
            let d = if args[1].abs() < 1e-12 {
                1e-12
            } else {
                args[1]
            };
            args[0] / d
        }
        Sem::Sqrt => args[0].abs().sqrt(),
        Sem::Madd => args[0] * args[1] + args[2],
        Sem::Lt => f64::from(args[0] < args[1]),
        Sem::Select => {
            if args[0] != 0.0 {
                args[1]
            } else {
                args[2]
            }
        }
        Sem::Copy => args[0],
        Sem::Load | Sem::Store => return None,
    })
}

/// Constant folding: an op whose operands are all literal invariants
/// computes the same constant every iteration; replace it with a fresh
/// literal invariant.
fn fold(lp: &mut Loop, _an: &Analyses) -> bool {
    let mut repl: HashMap<ValueId, Repl> = HashMap::new();
    let mut dead: Vec<OpId> = Vec::new();
    for idx in 0..lp.ops.len() {
        let op = &lp.ops[idx];
        if op.result.is_none() || op.mem.is_some() {
            continue;
        }
        let args: Option<Vec<f64>> = op
            .operands
            .iter()
            .map(|operand| lp.values[operand.value.index()].literal_f64())
            .collect();
        let Some(args) = args else { continue };
        if args.len() != op.operands.len() || op.operands.is_empty() {
            continue;
        }
        let Some(value) = eval_const(op.sem, &args) else {
            continue;
        };
        let r = op.result.expect("checked");
        let class = lp.values[r.index()].class;
        let c = ValueId(lp.values.len() as u32);
        lp.values.push(ValueInfo {
            class,
            def: None,
            name: format!("fold.{}", lp.values[r.index()].name),
            literal: Some(value.to_bits()),
        });
        repl.insert(r, Repl::Invariant(c));
        dead.push(lp.ops[idx].id);
    }
    if dead.is_empty() {
        return false;
    }
    apply_repls(lp, &repl);
    remove_ops(lp, &dead);
    true
}

/// Exact algebraic simplification:
/// - `x · 1.0` (literal) → `x`;
/// - `select(c, a, a)` → `a`;
/// - explicit register copies propagate;
/// - a single-use multiply feeding an add fuses into a multiply–add
///   (the interpreter evaluates `Madd` as `a*b + c` with the same two
///   roundings, so fusion is bit-exact) — but only when the fusion can
///   pay in the II model: the pair sits on a cross-iteration chain, or
///   retiring one FP op lowers ResMII. A fusion that is II-neutral
///   (e.g. in a memory-bound loop) is skipped, because it changes
///   nothing the schedulers can exploit while perturbing their search.
///
/// Rewrites that are *not* exact under IEEE semantics (`x + 0.0` with a
/// negative zero, `x − x` with NaN, `x · 0.0`) are deliberately absent.
fn simplify(lp: &mut Loop, an: &Analyses) -> bool {
    let mut repl: HashMap<ValueId, Repl> = HashMap::new();
    let mut dead: Vec<OpId> = Vec::new();
    let mut fused: Vec<(OpId, Op)> = Vec::new();
    let mut fused_muls: Vec<OpId> = Vec::new();
    // Op-class histogram, kept current as fusions are accepted, so each
    // candidate is judged against the loop it would actually land in.
    let mut class_counts: HashMap<OpClass, u32> = HashMap::new();
    for op in lp.ops() {
        *class_counts.entry(op.class).or_insert(0) += 1;
    }
    for op in lp.ops() {
        let Some(r) = op.result else { continue };
        if repl.contains_key(&r) {
            continue;
        }
        match op.sem {
            Sem::Mul if op.operands.len() == 2 => {
                // x · 1.0 → x (exact for every x, including NaN and −0.0).
                let lit = |o: &Operand| lp.value(o.value).literal_f64() == Some(1.0);
                let keep = if lit(&op.operands[1]) {
                    Some(op.operands[0])
                } else if lit(&op.operands[0]) {
                    Some(op.operands[1])
                } else {
                    None
                };
                if let Some(k) = keep {
                    push_forwarding(lp, &mut repl, r, k);
                    dead.push(op.id);
                }
            }
            Sem::Select if op.operands.len() == 3 && op.operands[1] == op.operands[2] => {
                push_forwarding(lp, &mut repl, r, op.operands[1]);
                dead.push(op.id);
            }
            Sem::Copy if op.class == OpClass::Copy && op.operands.len() == 1 => {
                push_forwarding(lp, &mut repl, r, op.operands[0]);
                dead.push(op.id);
            }
            Sem::Add if op.class == OpClass::FAdd && op.operands.len() == 2 => {
                // Multiply–add fusion: add(mul(a,b), c) → madd(a, b, c)
                // when the multiply has no other use.
                let mul_at = op.operands.iter().position(|o| {
                    lp.value(o.value).def.is_some_and(|d| {
                        let m = lp.op(d);
                        m.sem == Sem::Mul
                            && m.class == OpClass::FMul
                            && an.uses[o.value.index()].len() == 1
                    })
                });
                let Some(mi) = mul_at else { continue };
                let mul_use = op.operands[mi];
                let mul_op = lp.op(lp.value(mul_use.value).def.expect("checked"));
                if fused_muls.contains(&mul_op.id) || dead.contains(&mul_op.id) {
                    continue;
                }
                // Profitability guard: fuse only where the model says it
                // can pay — on a cross-iteration chain (shortening the
                // cycle that bounds RecMII) or where retiring one FP op
                // lowers ResMII. An II-neutral fusion changes nothing the
                // schedulers can exploit and only perturbs their search.
                let on_cycle = op.operands.iter().any(|o| o.distance > 0)
                    || an.uses[r.index()]
                        .iter()
                        .any(|&(u, i)| lp.op(u).operands[i].distance > 0);
                let lowers_res = {
                    let cur: Vec<_> = class_counts.iter().map(|(&c, &n)| (c, n)).collect();
                    let mut after = class_counts.clone();
                    for c in [OpClass::FMul, OpClass::FAdd] {
                        *after.get_mut(&c).expect("ops counted") -= 1;
                    }
                    *after.entry(OpClass::FMadd).or_insert(0) += 1;
                    let aft: Vec<_> = after.iter().map(|(&c, &n)| (c, n)).collect();
                    an.machine.res_mii(&aft) < an.machine.res_mii(&cur)
                };
                if !(on_cycle || lowers_res) {
                    continue;
                }
                for c in [OpClass::FMul, OpClass::FAdd] {
                    *class_counts.get_mut(&c).expect("ops counted") -= 1;
                }
                *class_counts.entry(OpClass::FMadd).or_insert(0) += 1;
                let other = op.operands[1 - mi];
                let shift = |o: &Operand| {
                    if lp.value(o.value).is_invariant() {
                        Operand::now(o.value)
                    } else {
                        Operand::carried(o.value, o.distance + mul_use.distance)
                    }
                };
                let operands = vec![
                    shift(&mul_op.operands[0]),
                    shift(&mul_op.operands[1]),
                    other,
                ];
                fused.push((
                    op.id,
                    Op {
                        id: op.id,
                        class: OpClass::FMadd,
                        sem: Sem::Madd,
                        result: op.result,
                        operands,
                        mem: None,
                    },
                ));
                fused_muls.push(mul_op.id);
            }
            _ => {}
        }
    }
    if dead.is_empty() && fused.is_empty() {
        return false;
    }
    for (id, new_op) in fused {
        lp.ops[id.index()] = new_op;
        // The multiply is now unused; DCE collects it (possibly this
        // round's later fixpoint iteration).
    }
    if !dead.is_empty() {
        apply_repls(lp, &repl);
        remove_ops(lp, &dead);
    }
    true
}

/// Record that uses of `r` should read `k.value` instead, adjusting
/// distances (invariants pin distance to 0).
fn push_forwarding(lp: &Loop, repl: &mut HashMap<ValueId, Repl>, r: ValueId, k: Operand) {
    if repl.contains_key(&k.value) {
        // Avoid chaining onto a value being replaced in the same batch;
        // the fixpoint picks it up next round.
        return;
    }
    let entry = if lp.value(k.value).is_invariant() {
        Repl::Invariant(k.value)
    } else {
        Repl::Value {
            v: k.value,
            add: k.distance,
        }
    };
    repl.insert(r, entry);
}

/// Strength reduction: division by a power-of-two literal becomes
/// multiplication by its (exact) reciprocal. Power-of-two scaling is
/// correctly rounded to the identical result, so the rewrite is bit-exact;
/// other divisors are left alone.
fn strength(lp: &mut Loop, _an: &Analyses) -> bool {
    let mut changed = false;
    for idx in 0..lp.ops.len() {
        let op = &lp.ops[idx];
        if op.sem != Sem::Div || op.class != OpClass::FDiv || op.operands.len() != 2 {
            continue;
        }
        let Some(c) = lp.values[op.operands[1].value.index()].literal_f64() else {
            continue;
        };
        // Power of two, normal, away from the interpreter's tiny-divisor
        // clamp, with a normal reciprocal: mantissa bits all zero.
        let pow2 = c.is_normal() && c.abs() >= 1e-12 && c.to_bits() & ((1u64 << 52) - 1) == 0;
        if !pow2 {
            continue;
        }
        let recip = 1.0 / c;
        if !recip.is_normal() {
            continue;
        }
        let id = op.id;
        let result = op.result;
        let numerator = op.operands[0];
        let rc = ValueId(lp.values.len() as u32);
        lp.values.push(ValueInfo {
            class: swp_machine::RegClass::Float,
            def: None,
            name: format!("recip.{c}"),
            literal: Some(recip.to_bits()),
        });
        lp.ops[idx] = Op {
            id,
            class: OpClass::FMul,
            sem: Sem::Mul,
            result,
            operands: vec![numerator, Operand::now(rc)],
            mem: None,
        };
        changed = true;
    }
    changed
}

/// One application of global value numbering: merge ops whose expression
/// keys over the congruence classes coincide. Subsumes classical CSE
/// (identical operands are trivially congruent) and additionally merges
/// through chains of congruent values and equal literals. Loads merge only
/// when the alias summary proves the array store-free.
fn gvn(lp: &mut Loop, an: &Analyses) -> bool {
    let mut seen: HashMap<VnKey, ValueId> = HashMap::new();
    let mut replace: HashMap<ValueId, Repl> = HashMap::new();
    let mut dead: Vec<OpId> = Vec::new();
    for op in lp.ops() {
        let Some(r) = op.result else { continue };
        let Some(key) = expr_key(lp, op, &an.alias, an.values.raw()) else {
            continue;
        };
        match seen.get(&key) {
            Some(&leader) => {
                replace.insert(r, Repl::Value { v: leader, add: 0 });
                dead.push(op.id);
            }
            None => {
                seen.insert(key, r);
            }
        }
    }
    if dead.is_empty() {
        return false;
    }
    apply_repls(lp, &replace);
    remove_ops(lp, &dead);
    true
}

/// Dead-op elimination from the liveness analysis: every op that does not
/// transitively feed a store (or, in a store-free loop, a carried
/// live-out) goes away in a single application — including whole
/// transitively-dead chains.
fn dce(lp: &mut Loop, an: &Analyses) -> bool {
    if !an.liveness.has_roots() {
        // No stores and no recurrences: nothing is observable, and
        // deleting the whole body would be absurd. Leave it to the lints.
        return false;
    }
    let dead: Vec<OpId> = lp
        .ops()
        .iter()
        .filter(|o| !an.liveness.op_live(o.id))
        .map(|o| o.id)
        .collect();
    if dead.is_empty() {
        return false;
    }
    // Dead ops are only used by dead ops (backward closure), so no use
    // rewriting is needed before removal.
    remove_ops(lp, &dead);
    true
}

/// Recurrence re-association (§2.1(3b)): a *pure* accumulator — a simple
/// self-recurrence at distance 1 whose value has no other use — is widened
/// to distance `k`, splitting the serial chain into `k` interleaved
/// partial accumulations. The recurrence constraint drops from
/// `latency` to `⌈latency/k⌉`, breaking RecMII down toward ResMII. The
/// memory image is untouched (purity means the value never reaches a
/// store); the live-out contract changes to "k partials, summed in the
/// epilogue", which is the standard reduction-reassociation license.
fn reassoc(lp: &mut Loop, an: &Analyses) -> bool {
    let target = an.res_mii.max(1);
    let mut changed = false;
    for rec in &an.recurrences {
        if !rec.reassociable(lp) {
            continue;
        }
        if rec.latency <= target {
            continue; // the chain does not bind the II
        }
        // Smallest widening that stops the recurrence from binding.
        let k = rec.latency.div_ceil(target).min(4);
        if k <= 1 {
            continue;
        }
        lp.ops[rec.op.index()].operands[rec.self_operand].distance = k;
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ddg::Ddg;
    use swp_machine::Machine;

    fn run_full(lp: &mut Loop) -> OptOutcome {
        PassManager::new(OptLevel::Full).run(lp, &Machine::r8000())
    }

    #[test]
    fn off_level_is_identity() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(v, v);
        b.store(x, 800, 8, w);
        let mut lp = b.finish();
        let orig = lp.clone();
        let out = PassManager::new(OptLevel::Off).run(&mut lp, &Machine::r8000());
        assert_eq!(lp, orig);
        assert_eq!(out.ops_removed(), 0);
        assert!(out.passes_run.is_empty());
    }

    #[test]
    fn fold_replaces_constant_chain() {
        let mut b = LoopBuilder::new("t");
        let c1 = b.const_f("two", 2.0);
        let c2 = b.const_f("three", 3.0);
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let c = b.fmul(c1, c2); // folds to 6.0
        let w = b.fmul(v, c);
        b.store(x, 800, 8, w);
        let mut lp = b.finish();
        let out = run_full(&mut lp);
        assert_eq!(out.ops_removed(), 1);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        let mul = lp
            .ops()
            .iter()
            .find(|o| o.sem == Sem::Mul)
            .expect("surviving mul");
        let lit = mul
            .operands
            .iter()
            .find_map(|o| lp.value(o.value).literal_f64());
        assert_eq!(lit, Some(6.0));
    }

    #[test]
    fn simplify_drops_mul_by_one_and_select_same() {
        let mut b = LoopBuilder::new("t");
        let one = b.const_f("one", 1.0);
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let m = b.fmul(v, one);
        let c = b.fcmp(v, one);
        let s = b.cmov(c, m, m);
        b.store(x, 800, 8, s);
        let mut lp = b.finish();
        let out = run_full(&mut lp);
        // mul-by-one and select-same go, then the dead fcmp goes too.
        assert!(out.ops_removed() >= 3, "{out:?}");
        assert_eq!(
            lp.ops()
                .iter()
                .filter(|o| o.sem != Sem::Load && o.sem != Sem::Store)
                .count(),
            0
        );
    }

    #[test]
    fn simplify_fuses_mul_into_add_on_a_recurrence() {
        // Dot product: the add closes a carried accumulator, so fusing
        // shortens the cross-iteration chain and the guard admits it.
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let s = b.carried_f("s");
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let p = b.fmul(xv, yv);
        let acc = b.fadd(s.value(), p);
        b.close(s, acc, 1);
        b.store(y, 800, 8, acc);
        let mut lp = b.finish();
        let out = run_full(&mut lp);
        assert_eq!(out.ops_removed(), 1, "{out:?}");
        assert!(lp.ops().iter().any(|o| o.sem == Sem::Madd));
        assert!(lp.ops().iter().all(|o| o.sem != Sem::Mul));
    }

    #[test]
    fn simplify_skips_ii_neutral_fusion() {
        // saxpy on the R8000 is memory-bound (3 of 5 ops on 2 memory
        // pipes): fusing mul+add moves neither ResMII nor RecMII, so
        // the profitability guard leaves the pair alone.
        let mut b = LoopBuilder::new("saxpy");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let ax = b.fmul(a, xv);
        let s = b.fadd(ax, yv);
        b.store(y, 0, 8, s);
        let mut lp = b.finish();
        let out = run_full(&mut lp);
        assert_eq!(out.total_applications(), 0, "{out:?}");
        assert!(lp.ops().iter().all(|o| o.sem != Sem::Madd));
    }

    #[test]
    fn strength_reduces_pow2_division_only() {
        let mut b = LoopBuilder::new("t");
        let c4 = b.const_f("four", 4.0);
        let c3 = b.const_f("three", 3.0);
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let d1 = b.fdiv(v, c4); // → v * 0.25
        let d2 = b.fdiv(v, c3); // stays a divide
        let s = b.fadd(d1, d2);
        b.store(x, 800, 8, s);
        let mut lp = b.finish();
        let out = run_full(&mut lp);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(
            lp.ops().iter().filter(|o| o.class == OpClass::FDiv).count(),
            1
        );
        // The power-of-two divide became a multiply by 0.25 (possibly
        // fused onward into the add by `simplify`).
        assert!(lp
            .ops()
            .iter()
            .flat_map(|o| o.operands.iter())
            .any(|o| lp.value(o.value).literal_f64() == Some(0.25)));
    }

    #[test]
    fn gvn_merges_through_congruent_operands() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v1 = b.load(x, 0, 8);
        let v2 = b.load(x, 0, 8);
        let a1 = b.fmul(v1, v1);
        let a2 = b.fmul(v2, v2); // congruent with a1 only through v1≡v2
        let s = b.fadd(a1, a2);
        b.store(y, 0, 8, s);
        let mut lp = b.finish();
        let out = run_full(&mut lp);
        // One load and one mul merge away.
        assert_eq!(out.ops_removed(), 2, "{out:?}");
    }

    #[test]
    fn dce_removes_transitively_dead_chain_in_one_pass() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let d1 = b.fmul(v, v);
        let d2 = b.fadd(d1, v);
        let _d3 = b.fmul(d2, d2);
        b.store(x, 800, 8, v);
        let mut lp = b.finish();
        let an = Analyses::compute(&lp, &Machine::r8000());
        assert!(dce(&mut lp, &an));
        assert_eq!(lp.len(), 2); // load + store survive
        assert!(lp.validate().is_ok());
    }

    #[test]
    fn reassoc_breaks_dot_product_recmii() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fmadd(xv, yv, s.value());
        b.close(s, s1, 1);
        let mut lp = b.finish();
        assert_eq!(Ddg::build(&lp, &m).rec_mii(), 4);
        let out = run_full(&mut lp);
        assert_eq!(out.rec_mii_before, 4);
        assert_eq!(out.rec_mii_after, 1, "{out:?}");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        // The recurrence is still a recurrence — just wider.
        let ddg = Ddg::build(&lp, &m);
        assert!(ddg.in_cycle(lp.ops()[2].id));
        assert_eq!(lp.len(), 3);
    }

    #[test]
    fn reassoc_skips_observable_accumulators() {
        // The accumulator is stored every iteration: widening it would
        // change the memory image, so the pass must not touch it.
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(s.value(), v);
        b.close(s, s1, 1);
        b.store(x, 800000, 8, s1);
        let mut lp = b.finish();
        let before_rec = Ddg::build(&lp, &m).rec_mii();
        let out = run_full(&mut lp);
        assert_eq!(out.rec_mii_after, before_rec);
        assert!(lp.ops()[1].operands.iter().any(|o| o.distance == 1));
    }

    #[test]
    fn validator_failures_revert_the_application() {
        // A validator that rejects everything: no pass application may
        // survive, and the loop must come out exactly as it went in.
        let mut b = LoopBuilder::new("t");
        let one = b.const_f("one", 1.0);
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let m = b.fmul(v, one);
        b.store(x, 800, 8, m);
        let mut lp = b.finish();
        let orig = lp.clone();
        let veto: &Validator = &|_a, _b| Err("vetoed".to_owned());
        let out = PassManager::new(OptLevel::Full)
            .with_validator(veto)
            .run(&mut lp, &Machine::r8000());
        assert_eq!(lp, orig);
        assert!(out.reverts > 0);
        assert!(out.findings.iter().all(|f| f.code == "SWP-P005"));
        assert_eq!(out.ops_removed(), 0);
    }

    #[test]
    fn expired_deadline_truncates_and_records_passes() {
        let mut b = LoopBuilder::new("t");
        let one = b.const_f("one", 1.0);
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let m = b.fmul(v, one);
        b.store(x, 800, 8, m);
        let mut lp = b.finish();
        let orig = lp.clone();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let out = PassManager::new(OptLevel::Full)
            .with_deadline(Some(past))
            .run(&mut lp, &Machine::r8000());
        assert!(out.truncated);
        assert!(out.passes_run.is_empty());
        assert_eq!(lp, orig);
    }

    #[test]
    fn pipeline_reaches_fixpoint_on_clean_loops() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fadd(v, v);
        b.store(y, 0, 8, w);
        let mut lp = b.finish();
        let orig = lp.clone();
        let out = run_full(&mut lp);
        assert_eq!(lp, orig);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.total_applications(), 0);
        assert_eq!(out.passes_run.len(), 6);
    }
}
