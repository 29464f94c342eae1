//! Spilling to memory (§2.8 of the paper): the heuristic pipeliner's
//! answer to a failed register allocation.

use crate::op::{ArrayId, ArrayInfo, Loop, MemAccess, Op, OpId, Operand, Sem, ValueId, ValueInfo};
use std::collections::HashMap;
use swp_machine::OpClass;

/// Spill the given values to memory (§2.8 of the paper).
///
/// Each spilled value gets a rotating memory slot (modeled as a fresh array
/// with an 8-byte per-iteration stride): a store is inserted right after the
/// definition, and every use is replaced by a load — one shared load per
/// distinct use distance, placed after the store in body order so the
/// same-iteration memory dependence is honored. Values with no definition
/// (invariants) and values that are never used are skipped.
///
/// Returns the transformed loop; the caller re-runs modulo scheduling on it.
pub fn spill_to_memory(lp: &Loop, values: &[ValueId]) -> Loop {
    let mut out = lp.clone();
    for &v in values {
        let Some(def_op) = out.values[v.index()].def else {
            continue;
        };
        let used = out
            .ops
            .iter()
            .any(|o| o.operands.iter().any(|operand| operand.value == v));
        if !used {
            continue;
        }
        let class = out.values[v.index()].class;
        let slot = ArrayId(out.arrays.len() as u32);
        // Consecutive spill slots alternate banks, as consecutive stack
        // slots do on real hardware — spill traffic then pairs cleanly.
        let base_align = 8 * (u64::from(slot.0) % 2);
        out.arrays.push(ArrayInfo {
            name: format!("spill.{}", out.values[v.index()].name),
            elem_bytes: 8,
            base_align,
        });

        // Distinct use distances, each served by one load op.
        let mut distances: Vec<u32> = out
            .ops
            .iter()
            .flat_map(|o| o.operands.iter())
            .filter(|operand| operand.value == v)
            .map(|operand| operand.distance)
            .collect();
        distances.sort_unstable();
        distances.dedup();

        // New ops are appended after the def op: store, then loads. Build a
        // fresh op list with insertions.
        let mut new_ops: Vec<Op> = Vec::with_capacity(out.ops.len() + 1 + distances.len());
        let mut load_value: HashMap<u32, ValueId> = HashMap::new();
        for op in out.ops.drain(..) {
            let insert_after = op.id == def_op;
            new_ops.push(op);
            if insert_after {
                new_ops.push(Op {
                    id: OpId(0), // renumbered below
                    class: OpClass::Store,
                    sem: Sem::Store,
                    result: None,
                    operands: vec![Operand::now(v)],
                    mem: Some(MemAccess {
                        array: slot,
                        offset: 0,
                        stride: 8,
                        indirect: false,
                    }),
                });
                for &d in &distances {
                    let nv = ValueId(out.values.len() as u32);
                    out.values.push(ValueInfo {
                        class,
                        def: None, // fixed after renumbering
                        name: format!("{}.reload{}", out.values[v.index()].name, d),
                        literal: None,
                    });
                    load_value.insert(d, nv);
                    new_ops.push(Op {
                        id: OpId(0),
                        class: OpClass::Load,
                        sem: Sem::Load,
                        result: Some(nv),
                        operands: Vec::new(),
                        mem: Some(MemAccess {
                            array: slot,
                            offset: -8 * i64::from(d),
                            stride: 8,
                            indirect: false,
                        }),
                    });
                }
            }
        }
        // Renumber ids and fix value defs.
        for (i, op) in new_ops.iter_mut().enumerate() {
            op.id = OpId(i as u32);
            if let Some(r) = op.result {
                out.values[r.index()].def = Some(op.id);
            }
        }
        // Redirect uses (all uses become distance-0 reads of the reload,
        // which itself reads `d` iterations back through memory) — except
        // the spill store's own read of `v`.
        for op in &mut new_ops {
            let is_spill_store =
                op.class == OpClass::Store && op.mem.is_some_and(|m| m.array == slot);
            if is_spill_store {
                continue;
            }
            for operand in &mut op.operands {
                if operand.value == v {
                    *operand = Operand::now(load_value[&operand.distance]);
                }
            }
        }
        out.ops = new_ops;
    }
    debug_assert_eq!(out.validate(), Ok(()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::ddg::Ddg;
    use swp_machine::Machine;

    #[test]
    fn spill_inserts_store_and_reloads() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(v, v);
        let u = b.fadd(w, v);
        b.store(y, 0, 8, u);
        let lp = b.finish();
        let spilled = spill_to_memory(&lp, &[w]);
        assert!(spilled.validate().is_ok());
        // One extra store and one reload (single distance 0).
        assert_eq!(
            spilled
                .ops()
                .iter()
                .filter(|o| o.class == OpClass::Store)
                .count(),
            2
        );
        assert_eq!(
            spilled
                .ops()
                .iter()
                .filter(|o| o.class == OpClass::Load)
                .count(),
            2
        );
        // The fadd no longer reads w directly.
        let add = spilled
            .ops()
            .iter()
            .find(|o| o.class == OpClass::FAdd)
            .expect("fadd");
        assert!(add.operands.iter().all(|operand| operand.value != w));
    }

    #[test]
    fn spill_carried_use_loads_from_previous_slot() {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(s.value(), v);
        b.close(s, s1, 1);
        let lp = b.finish();
        let spilled = spill_to_memory(&lp, &[s1]);
        assert!(spilled.validate().is_ok());
        let reload = spilled
            .ops()
            .iter()
            .find(|o| o.class == OpClass::Load && o.mem.is_some_and(|m| m.array.0 == 1))
            .expect("reload");
        assert_eq!(reload.mem.unwrap().offset, -8);
        // The recurrence through memory must have grown RecMII:
        let ddg = Ddg::build(&spilled, &Machine::r8000());
        assert!(ddg.rec_mii() > 4);
    }

    #[test]
    fn spill_invariant_is_noop() {
        let mut b = LoopBuilder::new("t");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(a, v);
        b.store(x, 800, 8, w);
        let lp = b.finish();
        let spilled = spill_to_memory(&lp, &[a]);
        assert_eq!(spilled, lp);
    }
}
