//! Pre-scheduling IR lints.
//!
//! Cheap well-formedness and dead-code checks run on a [`Loop`] before
//! either pipeliner sees it. Lints carry the stable `SWP-L00x` codes of
//! the diagnostics engine (DESIGN.md §7); `swp-verify` maps them onto its
//! `Finding` type and `core::compile` runs them whenever verification
//! is enabled.
//!
//! - `SWP-L001` — a structural invariant of the IR is violated
//!   ([`Loop::validate`] fails); nothing downstream is trustworthy.
//! - `SWP-L002` — a dead op: by the cross-iteration liveness analysis
//!   ([`crate::analysis::Liveness`]) it never feeds anything observable,
//!   so an entire transitively-dead chain is reported in one round (the
//!   historical check only caught values with zero direct uses). Loops
//!   with no liveness roots at all fall back to the direct-use check.
//! - `SWP-L003` — the DDG has a dependence cycle of zero total iteration
//!   distance, which no II can schedule.
//! - `SWP-L004` — a carried recurrence whose values never reach memory
//!   even though the loop does store results: the closest representable
//!   analogue of an unclosed carried value (truly unclosed carried values
//!   cannot leave [`crate::LoopBuilder`], which panics in `finish`).
//!   Store-free loops are exempt — a pure reduction keeps its accumulator
//!   as a register live-out, so "never reaches memory" is its contract,
//!   not a defect.
//! - `SWP-L005` — use before def at distance 0: an op reads a value in
//!   the same iteration as a definition that appears *later* in body
//!   order, which sequential semantics would evaluate as garbage.
//!   [`crate::LoopBuilder`] cannot emit this, but hand-built or
//!   pass-transformed loops can.
//! - `SWP-L006` — a dead store: two stores write the identical affine
//!   cell each iteration and nothing in the loop ever loads the array, so
//!   the earlier store is unobservable.
//! - `SWP-L007` — an unbreakable zero-slack recurrence: the whole body is
//!   one register-only dependence cycle whose RecMII exceeds ResMII and
//!   which recurrence re-association cannot widen — no transformation
//!   available to the mid-end can lower this loop's II.

use crate::analysis::Analyses;
use crate::ddg::Ddg;
use crate::op::{Loop, OpId};
use swp_machine::{Machine, OpClass};

/// One IR lint: a stable code, a message, and the op it anchors to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Stable `SWP-L00x` code.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The operation involved, if the lint is about one.
    pub op: Option<OpId>,
}

/// Run every lint over `lp`. A structural (`SWP-L001`) failure
/// short-circuits: the body cannot be analyzed further.
pub fn lint_loop(lp: &Loop, machine: &Machine) -> Vec<Lint> {
    let mut lints = Vec::new();
    if let Err(e) = lp.validate() {
        lints.push(Lint {
            code: "SWP-L001",
            message: format!("structural invariant violated: {e}"),
            op: None,
        });
        return lints;
    }
    if lp.is_empty() {
        return lints;
    }
    let an = Analyses::compute(lp, machine);

    // SWP-L002: dead ops. With liveness roots available (stores, or the
    // carried live-outs of a store-free reduction), every op the backward
    // closure misses is dead — a transitively-dead chain is reported whole
    // in one round. Without roots nothing is observable and liveness would
    // condemn the entire body, so fall back to the direct-use check.
    if an.liveness.has_roots() {
        for op in lp.ops() {
            if let Some(r) = op.result {
                if !an.liveness.op_live(op.id) {
                    let direct = an.uses[r.index()].is_empty();
                    lints.push(Lint {
                        code: "SWP-L002",
                        message: format!(
                            "op {} defines {} which {}",
                            op.id.0,
                            lp.value(r).name,
                            if direct {
                                "is never used"
                            } else {
                                "only feeds dead ops"
                            }
                        ),
                        op: Some(op.id),
                    });
                }
            }
        }
    } else {
        for op in lp.ops() {
            if let Some(r) = op.result {
                if an.uses[r.index()].is_empty() {
                    lints.push(Lint {
                        code: "SWP-L002",
                        message: format!(
                            "op {} defines {} which is never used",
                            op.id.0,
                            lp.value(r).name
                        ),
                        op: Some(op.id),
                    });
                }
            }
        }
    }

    // SWP-L003: a cycle through distance-0 arcs has no legal schedule at
    // any II (every arc demands t(to) ≥ t(from) + latency with latency ≥ 0
    // and at least one positive latency in practice).
    let ddg = Ddg::build(lp, machine);
    if let Some(op) = zero_distance_cycle(lp, &ddg) {
        lints.push(Lint {
            code: "SWP-L003",
            message: format!(
                "dependence cycle of zero iteration distance through op {} — no II can \
                 schedule it",
                op.0
            ),
            op: Some(op),
        });
    }

    // SWP-L005: a distance-0 use whose reaching definition appears later
    // in body order. Sequential execution evaluates the body in order, so
    // such a use reads the *previous* iteration's value while claiming
    // distance 0 — a builder-unreachable state that a buggy transform
    // could produce.
    for op in lp.ops() {
        for (i, rd) in an.reaching.of(op.id).iter().enumerate() {
            if !rd.ordered {
                lints.push(Lint {
                    code: "SWP-L005",
                    message: format!(
                        "op {} operand {} reads {} at distance 0 but its definition \
                         comes later in body order",
                        op.id.0,
                        i,
                        lp.value(op.operands[i].value).name
                    ),
                    op: Some(op.id),
                });
            }
        }
    }

    // SWP-L006: dead stores. Two affine stores with the identical
    // (array, offset, stride) descriptor write the same cell every
    // iteration; if nothing in the loop loads the array (directly or
    // indirectly), the earlier store in body order is unobservable.
    let alias = &an.alias;
    for (ai, info) in lp.arrays().iter().enumerate() {
        let a = crate::op::ArrayId(ai as u32);
        let row = alias.array(a);
        if row.direct_loads > 0
            || row.indirect_loads > 0
            || row.indirect_stores > 0
            || row.direct_stores < 2
        {
            continue;
        }
        let stores: Vec<&crate::op::Op> = lp
            .ops()
            .iter()
            .filter(|o| o.class == OpClass::Store && o.mem.is_some_and(|m| m.array == a))
            .collect();
        for (si, s) in stores.iter().enumerate() {
            let m = s.mem.expect("store");
            if stores[si + 1..].iter().any(|t| {
                t.mem
                    .is_some_and(|tm| tm.offset == m.offset && tm.stride == m.stride)
            }) {
                lints.push(Lint {
                    code: "SWP-L006",
                    message: format!(
                        "op {} stores {} at a cell an identical later store overwrites \
                         and nothing loads",
                        s.id.0, info.name
                    ),
                    op: Some(s.id),
                });
            }
        }
    }

    // SWP-L007: an unbreakable zero-slack recurrence. Scoped narrowly to
    // register-only loops (any memory op gives the mid-end and the
    // schedulers other levers): the entire body is one dependence cycle,
    // RecMII exceeds ResMII, and no recurrence is reassociable — the II is
    // pinned by the recurrence and nothing in the toolkit can lower it.
    let whole_body_cycle = ddg
        .sccs()
        .iter()
        .any(|s| s.nontrivial && s.members.len() == lp.len());
    if lp.mem_ops().next().is_none()
        && whole_body_cycle
        && an.rec_mii > an.res_mii
        && !an.recurrences.iter().any(|r| r.reassociable(lp))
    {
        lints.push(Lint {
            code: "SWP-L007",
            message: format!(
                "whole body is a zero-slack register recurrence pinning II at {} \
                 (ResMII {}) and no re-association applies",
                an.rec_mii, an.res_mii
            ),
            op: None,
        });
    }

    // SWP-L004: recurrences that never escape to memory. Mark every op
    // that transitively feeds a store; a non-escaping op with a carried
    // operand is a dead recurrence (its carried value is "closed" in the
    // builder sense but feeds nothing observable). Loops with no stores
    // at all are exempt: a pure reduction (alvinn's dot products, nasa7's
    // mxm) hands its accumulators to the caller as register live-outs,
    // and there is nothing in-loop its values *could* reach.
    let mut escapes = vec![false; lp.len()];
    let mut work: Vec<OpId> = lp
        .ops()
        .iter()
        .filter(|o| o.result.is_none() && o.is_mem())
        .map(|o| o.id)
        .collect();
    if work.is_empty() {
        return lints;
    }
    for &s in &work {
        escapes[s.index()] = true;
    }
    while let Some(op) = work.pop() {
        for operand in &lp.op(op).operands {
            if let Some(def) = lp.value(operand.value).def {
                if !escapes[def.index()] {
                    escapes[def.index()] = true;
                    work.push(def);
                }
            }
        }
    }
    for op in lp.ops() {
        if !escapes[op.id.index()] && op.operands.iter().any(|o| o.distance >= 1) {
            lints.push(Lint {
                code: "SWP-L004",
                message: format!(
                    "op {} carries a recurrence whose values never reach memory",
                    op.id.0
                ),
                op: Some(op.id),
            });
        }
    }
    lints
}

/// Find an op on a dependence cycle whose arcs all have distance 0, if
/// one exists (iterative three-color DFS over the distance-0 subgraph).
fn zero_distance_cycle(lp: &Loop, ddg: &Ddg) -> Option<OpId> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; lp.len()];
    for start in lp.ops() {
        if color[start.id.index()] != WHITE {
            continue;
        }
        // Stack of (node, next-successor-cursor) over distance-0 arcs.
        let mut stack: Vec<(OpId, usize)> = vec![(start.id, 0)];
        color[start.id.index()] = GRAY;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            let next = ddg
                .succ_edges(node)
                .filter(|e| e.distance == 0)
                .nth(*cursor)
                .map(|e| e.to);
            *cursor += 1;
            match next {
                Some(to) if color[to.index()] == GRAY => return Some(to),
                Some(to) if color[to.index()] == WHITE => {
                    color[to.index()] = GRAY;
                    stack.push((to, 0));
                }
                Some(_) => {}
                None => {
                    color[node.index()] = BLACK;
                    stack.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;

    #[test]
    fn clean_loop_has_no_lints() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let w = b.fadd(v, v);
        b.store(x, 800, 8, w);
        let lp = b.finish();
        assert_eq!(lint_loop(&lp, &m), Vec::new());
    }

    #[test]
    fn dead_op_is_flagged() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let _dead = b.fmul(v, v);
        b.store(x, 800, 8, v);
        let lp = b.finish();
        let lints = lint_loop(&lp, &m);
        assert!(lints.iter().any(|l| l.code == "SWP-L002"), "{lints:?}");
    }

    #[test]
    fn dead_recurrence_is_flagged() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let acc = b.fadd(s.value(), v);
        b.close(s, acc, 1);
        // No store of `acc`: the reduction feeds nothing.
        b.store(x, 800, 8, v);
        let lp = b.finish();
        let lints = lint_loop(&lp, &m);
        assert!(lints.iter().any(|l| l.code == "SWP-L004"), "{lints:?}");
        // A stored reduction is fine.
        let mut b = LoopBuilder::new("t2");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let acc = b.fadd(s.value(), v);
        b.close(s, acc, 1);
        b.store(x, 800, 8, acc);
        let lp = b.finish();
        assert!(lint_loop(&lp, &m).iter().all(|l| l.code != "SWP-L004"));
        // A store-free pure reduction is also fine: its accumulator is a
        // register live-out, not a dead value.
        let mut b = LoopBuilder::new("t3");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let acc = b.fadd(s.value(), v);
        b.close(s, acc, 1);
        let lp = b.finish();
        assert_eq!(lint_loop(&lp, &m), Vec::new());
    }

    #[test]
    fn empty_loop_is_clean() {
        let m = Machine::r8000();
        let lp = LoopBuilder::new("empty").finish();
        assert_eq!(lint_loop(&lp, &m), Vec::new());
    }

    #[test]
    fn transitively_dead_chain_is_fully_flagged_in_one_round() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let d1 = b.fmul(v, v); // feeds only d2
        let _d2 = b.fadd(d1, v); // never used
        b.store(x, 800, 8, v);
        let lp = b.finish();
        let lints = lint_loop(&lp, &m);
        let dead: Vec<u32> = lints
            .iter()
            .filter(|l| l.code == "SWP-L002")
            .filter_map(|l| l.op.map(|o| o.0))
            .collect();
        // Both links of the chain, not just the tail.
        assert_eq!(dead, vec![1, 2], "{lints:?}");
    }

    #[test]
    fn use_before_def_at_distance_zero_is_flagged() {
        use crate::op::{Loop, Op, OpId, Operand, Sem, ValueId, ValueInfo};
        use swp_machine::RegClass;
        // Hand-build the builder-unreachable shape: op 0 reads op 1's
        // result at distance 0.
        let values = vec![
            ValueInfo {
                class: RegClass::Float,
                def: Some(OpId(0)),
                name: "a".into(),
                literal: None,
            },
            ValueInfo {
                class: RegClass::Float,
                def: Some(OpId(1)),
                name: "b".into(),
                literal: None,
            },
        ];
        let ops = vec![
            Op {
                id: OpId(0),
                class: OpClass::FAdd,
                sem: Sem::Add,
                result: Some(ValueId(0)),
                operands: vec![Operand::now(ValueId(1)), Operand::carried(ValueId(1), 1)],
                mem: None,
            },
            Op {
                id: OpId(1),
                class: OpClass::FAdd,
                sem: Sem::Add,
                result: Some(ValueId(1)),
                operands: vec![
                    Operand::carried(ValueId(0), 1),
                    Operand::carried(ValueId(0), 2),
                ],
                mem: None,
            },
        ];
        let lp = Loop {
            name: "ubd".into(),
            ops,
            values,
            arrays: Vec::new(),
        };
        assert_eq!(lp.validate(), Ok(()));
        let lints = lint_loop(&lp, &Machine::r8000());
        assert!(lints.iter().any(|l| l.code == "SWP-L005"), "{lints:?}");
    }

    #[test]
    fn dead_store_pair_is_flagged() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fadd(v, v);
        b.store(y, 0, 8, v);
        b.store(y, 0, 8, w); // overwrites the first, y never loaded
        let lp = b.finish();
        let lints = lint_loop(&lp, &m);
        let l6: Vec<_> = lints.iter().filter(|l| l.code == "SWP-L006").collect();
        assert_eq!(l6.len(), 1, "{lints:?}");
        assert_eq!(l6[0].op, Some(lp.ops()[2].id));
        // Distinct cells: clean.
        let mut b = LoopBuilder::new("t2");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        b.store(y, 0, 8, v);
        b.store(y, 8, 8, v);
        let lp = b.finish();
        assert!(lint_loop(&lp, &m).iter().all(|l| l.code != "SWP-L006"));
    }

    #[test]
    fn unbreakable_recurrence_is_flagged_only_without_levers() {
        let m = Machine::r8000();
        // A divide self-recurrence: latency 20, not reassociable, body is
        // the single-op cycle, no memory ops.
        let mut b = LoopBuilder::new("t");
        let s = b.carried_f("s");
        let inv = b.invariant_f("c");
        let s1 = b.fdiv(s.value(), inv);
        b.close(s, s1, 1);
        let lp = b.finish();
        let lints = lint_loop(&lp, &m);
        assert!(lints.iter().any(|l| l.code == "SWP-L007"), "{lints:?}");
        // The same shape through an FP add is reassociable: no lint.
        let mut b = LoopBuilder::new("t2");
        let s = b.carried_f("s");
        let inv = b.invariant_f("c");
        let s1 = b.fadd(s.value(), inv);
        b.close(s, s1, 1);
        let lp = b.finish();
        assert!(lint_loop(&lp, &m).iter().all(|l| l.code != "SWP-L007"));
        // Memory ops give other levers: exempt.
        let mut b = LoopBuilder::new("t3");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fdiv(s.value(), v);
        b.close(s, s1, 1);
        let lp = b.finish();
        assert!(lint_loop(&lp, &m).iter().all(|l| l.code != "SWP-L007"));
    }
}
