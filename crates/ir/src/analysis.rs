//! Dataflow analyses over the cyclic loop IR.
//!
//! The mid-end pass pipeline ([`crate::opt`]) and the lints
//! ([`crate::lint`]) both consume the [`Analyses`] bundle computed here:
//!
//! - [`AliasSummary`] — a conservative per-array memory summary (which
//!   arrays may be stored, loaded, or addressed indirectly). This is the
//!   alias oracle that lets GVN merge loads without rescanning the body
//!   per load.
//! - [`ReachingDefs`] — iteration-distance-aware reaching definitions: for
//!   every operand, the defining op, the distance in iterations, and
//!   whether the same-iteration flow respects body order (sequential
//!   execution evaluates ops in body order, so a distance-0 use of a def
//!   that appears *later* in the body reads garbage).
//! - [`Liveness`] — cross-iteration backward liveness. Roots are the
//!   stores; in a store-free loop the carried (distance ≥ 1) definitions
//!   are the roots instead, because a pure reduction's accumulator is a
//!   register live-out by contract.
//! - [`Recurrence`] — dominance-free recurrence discovery over the DDG's
//!   SCCs: self-carried definitions, their purity (no uses besides the
//!   self-use), and their cycle latency.
//! - [`ValueNumbers`] — a pessimistic value-numbering lattice: congruent
//!   values (same operation over congruent operands at equal distances,
//!   literal invariants with equal bits, stable loads of the same cell)
//!   share a number.
//!
//! Everything except the DDG-derived pieces is machine-free, so transform
//! passes that do not reason about latencies can run without a
//! [`Machine`].

use crate::ddg::Ddg;
use crate::op::{ArrayId, Loop, Op, OpId, Operand, Sem, ValueId};
use std::collections::HashMap;
use swp_machine::{Machine, OpClass};

/// Conservative memory behavior of one array over the whole loop body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayAlias {
    /// Number of affine stores to the array.
    pub direct_stores: u32,
    /// Number of affine loads from the array.
    pub direct_loads: u32,
    /// Number of indirect (data-dependent address) stores.
    pub indirect_stores: u32,
    /// Number of indirect loads.
    pub indirect_loads: u32,
}

/// Per-array alias summary for the loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasSummary {
    arrays: Vec<ArrayAlias>,
}

impl AliasSummary {
    /// Summarize every memory reference in the body.
    pub fn compute(lp: &Loop) -> AliasSummary {
        let mut arrays = vec![ArrayAlias::default(); lp.arrays().len()];
        for op in lp.mem_ops() {
            let m = op.mem.expect("mem op");
            let a = &mut arrays[m.array.index()];
            match (op.class == OpClass::Store, m.indirect) {
                (true, false) => a.direct_stores += 1,
                (true, true) => a.indirect_stores += 1,
                (false, false) => a.direct_loads += 1,
                (false, true) => a.indirect_loads += 1,
            }
        }
        AliasSummary { arrays }
    }

    /// The summary row for one array.
    pub fn array(&self, a: ArrayId) -> &ArrayAlias {
        &self.arrays[a.index()]
    }

    /// Whether any store — affine or indirect — may write the array.
    pub fn may_store(&self, a: ArrayId) -> bool {
        let s = self.array(a);
        s.direct_stores > 0 || s.indirect_stores > 0
    }

    /// Whether a load always returns the same value for the same address:
    /// affine, and of an array nothing in the loop stores to. Only stable
    /// loads may be merged or carried across iterations.
    pub fn load_is_stable(&self, op: &Op) -> bool {
        op.class == OpClass::Load
            && op
                .mem
                .is_some_and(|m| !m.indirect && !self.may_store(m.array))
    }
}

/// The reaching definition of one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachingDef {
    /// Defining op; `None` for invariants (defined outside the loop).
    pub def: Option<OpId>,
    /// Iteration distance of the reaching instance.
    pub distance: u32,
    /// For distance-0 flows: whether the def precedes the user in body
    /// order. Sequential semantics execute the body in order, so a false
    /// here means the use reads a value from before the def ran.
    pub ordered: bool,
}

/// Iteration-distance-aware reaching definitions, one entry per operand of
/// every op (indexed `[op][operand]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachingDefs {
    table: Vec<Vec<ReachingDef>>,
}

impl ReachingDefs {
    /// Build the table. Each value has at most one def, so the reaching
    /// definition is determined by the operand's distance alone.
    pub fn compute(lp: &Loop) -> ReachingDefs {
        let table = lp
            .ops()
            .iter()
            .map(|op| {
                op.operands
                    .iter()
                    .map(|operand| {
                        let def = lp.value(operand.value).def;
                        let ordered =
                            operand.distance > 0 || def.is_none_or(|d| d.index() < op.id.index());
                        ReachingDef {
                            def,
                            distance: operand.distance,
                            ordered,
                        }
                    })
                    .collect()
            })
            .collect();
        ReachingDefs { table }
    }

    /// The reaching definitions of one op's operands.
    pub fn of(&self, op: OpId) -> &[ReachingDef] {
        &self.table[op.index()]
    }
}

/// Cross-iteration liveness of ops.
///
/// An op is live when it (transitively, through operands at any distance)
/// feeds a root. Roots are the stores; when the loop has no stores, the
/// carried definitions (values used at distance ≥ 1) serve as roots — a
/// pure reduction's accumulator is the loop's live-out. A loop with
/// neither has no observable effect at all; [`Liveness::has_roots`] is
/// false and dead-code elimination must not touch it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Liveness {
    live_ops: Vec<bool>,
    has_roots: bool,
}

impl Liveness {
    /// Compute liveness by backward closure from the roots.
    pub fn compute(lp: &Loop) -> Liveness {
        let mut live_ops = vec![false; lp.len()];
        let mut work: Vec<OpId> = lp
            .ops()
            .iter()
            .filter(|o| o.class == OpClass::Store)
            .map(|o| o.id)
            .collect();
        if work.is_empty() {
            // Store-free loop: carried defs are the live-outs.
            let carried: Vec<ValueId> = lp
                .ops()
                .iter()
                .flat_map(|o| o.operands.iter())
                .filter(|operand| operand.distance >= 1)
                .map(|operand| operand.value)
                .collect();
            work = carried.iter().filter_map(|&v| lp.value(v).def).collect();
            work.sort_unstable();
            work.dedup();
        }
        let has_roots = !work.is_empty();
        for &r in &work {
            live_ops[r.index()] = true;
        }
        while let Some(op) = work.pop() {
            for operand in &lp.op(op).operands {
                if let Some(def) = lp.value(operand.value).def {
                    if !live_ops[def.index()] {
                        live_ops[def.index()] = true;
                        work.push(def);
                    }
                }
            }
        }
        Liveness {
            live_ops,
            has_roots,
        }
    }

    /// Whether the loop had any liveness roots (stores or carried defs).
    pub fn has_roots(&self) -> bool {
        self.has_roots
    }

    /// Whether an op is live.
    pub fn op_live(&self, op: OpId) -> bool {
        self.live_ops[op.index()]
    }
}

/// One self-carried recurrence: an op whose result feeds itself `distance`
/// iterations later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recurrence {
    /// The op closing the cycle.
    pub op: OpId,
    /// Its result value.
    pub value: ValueId,
    /// Operand index of the self-use.
    pub self_operand: usize,
    /// Iteration distance of the self-use.
    pub distance: u32,
    /// Uses of the value other than the self-use. Zero means the
    /// accumulator is memory-unobservable (a register live-out only).
    pub external_uses: usize,
    /// Latency of the op on the analysis machine — the cycle latency,
    /// since the cycle is the single self-arc.
    pub latency: u32,
    /// Whether the op's SCC is exactly `{op}` (the self-arc is the only
    /// cycle through it).
    pub simple: bool,
}

impl Recurrence {
    /// Whether re-association may widen this recurrence: a simple,
    /// distance-1, memory-unobservable accumulation through a commutative
    /// FP add (either operand) or the addend slot of a multiply–add.
    pub fn reassociable(&self, lp: &Loop) -> bool {
        if !self.simple || self.external_uses != 0 || self.distance != 1 {
            return false;
        }
        let op = lp.op(self.op);
        match (op.class, op.sem) {
            (OpClass::FAdd, Sem::Add) => true,
            (OpClass::FMadd, Sem::Madd) => self.self_operand == 2,
            _ => false,
        }
    }
}

/// The full analysis bundle a pass receives.
#[derive(Debug, Clone)]
pub struct Analyses {
    /// Uses of each value as `(user, operand index)` pairs.
    pub uses: Vec<Vec<(OpId, usize)>>,
    /// Per-array memory summary.
    pub alias: AliasSummary,
    /// Reaching definitions per operand.
    pub reaching: ReachingDefs,
    /// Op/value liveness.
    pub liveness: Liveness,
    /// Self-carried recurrences found in the DDG.
    pub recurrences: Vec<Recurrence>,
    /// Value-numbering classes.
    pub values: ValueNumbers,
    /// Resource-constrained MinII component on the analysis machine.
    pub res_mii: u32,
    /// Recurrence-constrained MinII component.
    pub rec_mii: u32,
    /// The machine the analyses were computed on, so passes can evaluate
    /// resource profitability of candidate rewrites.
    pub machine: Machine,
}

impl Analyses {
    /// Compute every analysis for `lp` on `machine`.
    pub fn compute(lp: &Loop, machine: &Machine) -> Analyses {
        let uses = lp.uses();
        let alias = AliasSummary::compute(lp);
        let reaching = ReachingDefs::compute(lp);
        let liveness = Liveness::compute(lp);
        let values = ValueNumbers::compute(lp, &alias);
        let (recurrences, res_mii, rec_mii) = if lp.is_empty() {
            (Vec::new(), 1, 1)
        } else {
            let ddg = Ddg::build(lp, machine);
            let recs = find_recurrences(lp, &ddg, &uses, machine);
            (recs, ddg.res_mii(), ddg.rec_mii())
        };
        Analyses {
            uses,
            alias,
            reaching,
            liveness,
            recurrences,
            values,
            res_mii,
            rec_mii,
            machine: machine.clone(),
        }
    }
}

fn find_recurrences(
    lp: &Loop,
    ddg: &Ddg,
    uses: &[Vec<(OpId, usize)>],
    machine: &Machine,
) -> Vec<Recurrence> {
    let mut recs = Vec::new();
    for op in lp.ops() {
        let Some(r) = op.result else { continue };
        let selfs: Vec<(usize, &Operand)> = op
            .operands
            .iter()
            .enumerate()
            .filter(|(_, operand)| operand.value == r && operand.distance >= 1)
            .collect();
        let &[(idx, operand)] = &selfs[..] else {
            continue;
        };
        let scc = &ddg.sccs()[ddg.scc_of(op.id).index()];
        recs.push(Recurrence {
            op: op.id,
            value: r,
            self_operand: idx,
            distance: operand.distance,
            external_uses: uses[r.index()]
                .iter()
                .filter(|&&(u, i)| !(u == op.id && i == idx))
                .count(),
            latency: machine.latency(op.class),
            simple: scc.members == [op.id],
        });
    }
    recs
}

/// Value-numbering classes: congruent values share a number. Numbers are
/// representative value indices, so they are stable across recomputation
/// on an unchanged loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueNumbers {
    vn: Vec<u32>,
}

/// Key component for one operand in a value-numbering expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum VnOperand {
    /// A literal constant (f64 bits) — congruent across distinct ids.
    Lit(u64),
    /// A value class number.
    Class(u32),
}

pub(crate) type VnKey = (OpClass, Sem, Vec<(VnOperand, u32)>, Option<(u32, i64, i64)>);

impl ValueNumbers {
    /// Pessimistic fixpoint: start with every value in its own class,
    /// repeatedly merge op results whose expression keys — operation,
    /// canonicalized operand classes with distances, and (for stable
    /// loads) the address — coincide. Loads of stored or indirectly
    /// addressed arrays keep singleton classes; invariants merge only
    /// through equal literals.
    pub fn compute(lp: &Loop, alias: &AliasSummary) -> ValueNumbers {
        let n = lp.values().len();
        let mut vn: Vec<u32> = (0..n as u32).collect();
        // Literal invariants with equal bits are congruent from the start.
        let mut lit_class: HashMap<u64, u32> = HashMap::new();
        for (i, info) in lp.values().iter().enumerate() {
            if let (true, Some(bits)) = (info.is_invariant(), info.literal) {
                let rep = *lit_class.entry(bits).or_insert(i as u32);
                vn[i] = rep;
            }
        }
        loop {
            let mut changed = false;
            let mut seen: HashMap<VnKey, u32> = HashMap::new();
            for op in lp.ops() {
                let Some(r) = op.result else { continue };
                let Some(key) = expr_key(lp, op, alias, &vn) else {
                    continue;
                };
                let rep = *seen.entry(key).or_insert(vn[r.index()]);
                if vn[r.index()] != rep {
                    vn[r.index()] = rep;
                    changed = true;
                }
            }
            if !changed {
                return ValueNumbers { vn };
            }
        }
    }

    /// The class number of a value.
    pub fn number(&self, v: ValueId) -> u32 {
        self.vn[v.index()]
    }

    /// Whether two values are congruent.
    pub fn congruent(&self, a: ValueId, b: ValueId) -> bool {
        self.vn[a.index()] == self.vn[b.index()]
    }

    /// The raw class table, for crate-internal key construction.
    pub(crate) fn raw(&self) -> &[u32] {
        &self.vn
    }
}

/// The value-numbering expression key of an op, or `None` when the op's
/// result must stay in a singleton class (stores, indirect accesses,
/// unstable loads).
pub(crate) fn expr_key(lp: &Loop, op: &Op, alias: &AliasSummary, vn: &[u32]) -> Option<VnKey> {
    if op.result.is_none() || op.class == OpClass::Store {
        return None;
    }
    if let Some(m) = op.mem {
        if m.indirect || !alias.load_is_stable(op) {
            return None;
        }
    }
    let mut operands: Vec<(VnOperand, u32)> = op
        .operands
        .iter()
        .map(|operand| {
            let info = lp.value(operand.value);
            let key = match (info.is_invariant(), info.literal) {
                (true, Some(bits)) => VnOperand::Lit(bits),
                _ => VnOperand::Class(vn[operand.value.index()]),
            };
            (key, operand.distance)
        })
        .collect();
    // Canonicalize commutative operand pairs (add/mul; madd's two factors).
    match op.sem {
        Sem::Add | Sem::Mul if operands.len() == 2 => operands.sort_unstable(),
        Sem::Madd if operands.len() == 3 => operands[..2].sort_unstable(),
        _ => {}
    }
    Some((
        op.class,
        op.sem,
        operands,
        op.mem.map(|m| (m.array.0, m.offset, m.stride)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use swp_machine::Machine;

    #[test]
    fn alias_summary_classifies_accesses() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let idx = b.array("idx", 8);
        let i = b.load_i(idx, 0, 8);
        let v = b.load(x, 0, 8);
        let g = b.load_indirect(y, i);
        let s = b.fadd(v, g);
        b.store(y, 0, 8, s);
        let lp = b.finish();
        let a = AliasSummary::compute(&lp);
        assert!(!a.may_store(x));
        assert!(a.may_store(y));
        assert_eq!(a.array(y).indirect_loads, 1);
        assert!(a.load_is_stable(&lp.ops()[1]));
        assert!(!a.load_is_stable(&lp.ops()[2]));
    }

    #[test]
    fn reaching_defs_record_distance_and_order() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(s.value(), v);
        b.close(s, s1, 1);
        let lp = b.finish();
        let rd = ReachingDefs::compute(&lp);
        let add = lp.ops()[1].id;
        // Operand 0: the carried self-use at distance 1 (backward edge OK).
        assert_eq!(rd.of(add)[0].distance, 1);
        assert!(rd.of(add)[0].ordered);
        // Operand 1: the load, same iteration, earlier in body order.
        assert_eq!(rd.of(add)[1].def, Some(lp.ops()[0].id));
        assert!(rd.of(add)[1].ordered);
    }

    #[test]
    fn liveness_finds_transitively_dead_chain() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let d1 = b.fmul(v, v); // dead
        let _d2 = b.fadd(d1, v); // uses d1, still dead
        b.store(x, 800, 8, v);
        let lp = b.finish();
        let live = Liveness::compute(&lp);
        assert!(live.has_roots());
        assert!(live.op_live(lp.ops()[0].id));
        assert!(!live.op_live(lp.ops()[1].id));
        assert!(!live.op_live(lp.ops()[2].id));
        assert!(live.op_live(lp.ops()[3].id));
    }

    #[test]
    fn storefree_reduction_keeps_accumulator_live() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(s.value(), v);
        b.close(s, s1, 1);
        let lp = b.finish();
        let live = Liveness::compute(&lp);
        assert!(live.has_roots());
        assert!(lp.ops().iter().all(|o| live.op_live(o.id)));
    }

    #[test]
    fn recurrence_discovery_flags_pure_accumulator() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fmadd(xv, yv, s.value());
        b.close(s, s1, 1);
        let lp = b.finish();
        let an = Analyses::compute(&lp, &m);
        assert_eq!(an.recurrences.len(), 1);
        let r = an.recurrences[0];
        assert_eq!(r.self_operand, 2);
        assert_eq!(r.distance, 1);
        assert_eq!(r.external_uses, 0);
        assert!(r.simple);
        assert_eq!(r.latency, 4);
        assert_eq!(an.rec_mii, 4);
    }

    #[test]
    fn value_numbers_merge_congruent_chains() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v1 = b.load(x, 0, 8);
        let v2 = b.load(x, 0, 8); // congruent with v1 (x never stored)
        let a1 = b.fmul(v1, v1);
        let a2 = b.fmul(v2, v1); // congruent with a1 through v1≡v2
        let s = b.fadd(a1, a2);
        b.store(y, 0, 8, s);
        let lp = b.finish();
        let alias = AliasSummary::compute(&lp);
        let vn = ValueNumbers::compute(&lp, &alias);
        assert!(vn.congruent(v1, v2));
        assert!(vn.congruent(a1, a2));
        assert!(!vn.congruent(v1, a1));
    }

    #[test]
    fn value_numbers_merge_equal_literals_not_plain_invariants() {
        let mut b = LoopBuilder::new("t");
        let c1 = b.const_f("c1", 2.0);
        let c2 = b.const_f("c2", 2.0);
        let i1 = b.invariant_f("i1");
        let i2 = b.invariant_f("i2");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let m1 = b.fmul(v, c1);
        let m2 = b.fmul(v, c2);
        let m3 = b.fmul(v, i1);
        let m4 = b.fmul(v, i2);
        let s1 = b.fadd(m1, m2);
        let s2 = b.fadd(m3, m4);
        let s = b.fadd(s1, s2);
        b.store(x, 800, 8, s);
        let lp = b.finish();
        let alias = AliasSummary::compute(&lp);
        let vn = ValueNumbers::compute(&lp, &alias);
        assert!(vn.congruent(c1, c2));
        assert!(vn.congruent(m1, m2));
        assert!(!vn.congruent(i1, i2));
        assert!(!vn.congruent(m3, m4));
    }

    #[test]
    fn loads_of_stored_arrays_stay_singleton() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v1 = b.load(x, 0, 8);
        let v2 = b.load(x, 0, 8);
        let s = b.fadd(v1, v2);
        b.store(x, 0, 8, s);
        let lp = b.finish();
        let alias = AliasSummary::compute(&lp);
        let vn = ValueNumbers::compute(&lp, &alias);
        assert!(!vn.congruent(v1, v2));
    }
}
