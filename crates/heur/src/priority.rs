//! The four scheduling priority heuristics of §2.7.
//!
//! The MIPSpro pipeliner discovered that no single priority order works for
//! every loop and therefore tries several in sequence:
//!
//! 1. **FDMS** — folded depth-first ordering with a final memory sort,
//! 2. **FDNMS** — folded depth-first ordering, no memory sort,
//! 3. **HMS** — data-precedence-graph heights with a memory sort,
//! 4. **RHMS** — reversed heights with a memory sort.
//!
//! *Folded depth-first*: a depth-first walk from the roots (stores) toward
//! the leaves (loads); hard-to-schedule operations (unpipelined divides and
//! square roots) and large strongly connected components are *folded* —
//! treated as virtual roots so they are listed (and hence scheduled) first.
//! *Heights*: operations ordered by the maximum latency-sum along any path
//! to a root. The *final memory sort* moves stores with no successors and
//! loads with no predecessors to the end of the list.

use std::fmt;
use swp_ir::{Ddg, Loop, OpId};
use swp_machine::{Machine, OpClass};

/// One of the four priority-list heuristics (§2.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriorityHeuristic {
    /// Folded depth-first with final memory sort.
    Fdms,
    /// Folded depth-first, no memory sort.
    Fdnms,
    /// Heights with final memory sort.
    Hms,
    /// Reversed heights with final memory sort.
    Rhms,
}

impl PriorityHeuristic {
    /// All four, in the order MIPSpro tries them.
    pub const ALL: [PriorityHeuristic; 4] = [
        PriorityHeuristic::Fdms,
        PriorityHeuristic::Fdnms,
        PriorityHeuristic::Hms,
        PriorityHeuristic::Rhms,
    ];
}

impl fmt::Display for PriorityHeuristic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            PriorityHeuristic::Fdms => "FDMS",
            PriorityHeuristic::Fdnms => "FDNMS",
            PriorityHeuristic::Hms => "HMS",
            PriorityHeuristic::Rhms => "RHMS",
        })
    }
}

/// Minimum SCC size considered "large" enough to fold to the list head.
const FOLD_SCC_SIZE: usize = 3;

/// Build the priority list for a heuristic. Every op appears exactly once;
/// members of one SCC appear contiguously (required by the catch-point
/// pruning rule 1 of §2.4).
pub fn priority_list(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    heuristic: PriorityHeuristic,
) -> Vec<OpId> {
    let mut order = match heuristic {
        PriorityHeuristic::Fdms | PriorityHeuristic::Fdnms => folded_dfs(lp, ddg, machine),
        PriorityHeuristic::Hms => heights_order(lp, ddg, machine, false),
        PriorityHeuristic::Rhms => heights_order(lp, ddg, machine, true),
    };
    if heuristic != PriorityHeuristic::Fdnms {
        memory_sort(lp, ddg, &mut order);
    }
    debug_assert_eq!(order.len(), lp.len());
    order
}

/// Folded depth-first ordering over the SCC condensation: fold points
/// (unpipelined ops, large SCCs) first, then a DFS from the roots (SCCs
/// with no successors) toward the leaves.
fn folded_dfs(lp: &Loop, ddg: &Ddg, machine: &Machine) -> Vec<OpId> {
    let nscc = ddg.sccs().len();
    // Condensation adjacency: component -> predecessor components.
    let mut comp_preds: Vec<Vec<usize>> = vec![Vec::new(); nscc];
    let mut comp_succ_count = vec![0usize; nscc];
    for e in ddg.edges() {
        let cf = ddg.scc_of(e.from).index();
        let ct = ddg.scc_of(e.to).index();
        if cf != ct {
            comp_preds[ct].push(cf);
            comp_succ_count[cf] += 1;
        }
    }

    let is_fold = |c: usize| {
        let scc = &ddg.sccs()[c];
        if scc.members.len() >= FOLD_SCC_SIZE && scc.nontrivial {
            return true;
        }
        scc.members.iter().any(|&m| {
            machine
                .reservations(lp.op(m).class)
                .iter()
                .any(|r| r.duration > 1)
        })
    };

    let mut visited = vec![false; nscc];
    let mut order: Vec<OpId> = Vec::with_capacity(lp.len());

    // DFS that emits a component then walks to its predecessor components
    // (backward toward the leaves/loads).
    fn visit(
        c: usize,
        visited: &mut [bool],
        comp_preds: &[Vec<usize>],
        ddg: &Ddg,
        order: &mut Vec<OpId>,
    ) {
        if visited[c] {
            return;
        }
        visited[c] = true;
        order.extend(scc_internal_order(ddg, c));
        let mut preds = comp_preds[c].clone();
        preds.sort_unstable();
        preds.dedup();
        for p in preds {
            visit(p, visited, comp_preds, ddg, order);
        }
    }

    // Fold points become virtual roots.
    let mut folds: Vec<usize> = (0..nscc).filter(|&c| is_fold(c)).collect();
    // Larger components first: they are the hardest to place.
    folds.sort_by_key(|&c| std::cmp::Reverse(ddg.sccs()[c].members.len()));
    for c in folds {
        visit(c, &mut visited, &comp_preds, ddg, &mut order);
    }
    // Then true roots (no successors), i.e. the stores.
    let mut roots: Vec<usize> = (0..nscc).filter(|&c| comp_succ_count[c] == 0).collect();
    roots.sort_unstable();
    for c in roots {
        visit(c, &mut visited, &comp_preds, ddg, &mut order);
    }
    // Anything unreached (defensive: possible with exotic edge structure).
    for c in 0..nscc {
        visit(c, &mut visited, &comp_preds, ddg, &mut order);
    }
    order
}

/// Heights ordering: descending maximum latency-sum along any path to a
/// root, with SCC members kept contiguous (components ordered by their
/// maximum member height). `reversed` flips to ascending.
fn heights_order(lp: &Loop, ddg: &Ddg, machine: &Machine, reversed: bool) -> Vec<OpId> {
    let h = heights(lp, ddg, machine);
    let nscc = ddg.sccs().len();
    let mut comp_height = vec![0i64; nscc];
    for op in lp.ops() {
        let c = ddg.scc_of(op.id).index();
        comp_height[c] = comp_height[c].max(h[op.id.index()]);
    }
    let mut comps: Vec<usize> = (0..nscc).collect();
    comps.sort_by_key(|&c| (std::cmp::Reverse(comp_height[c]), c));
    if reversed {
        comps.reverse();
    }
    let mut order = Vec::with_capacity(lp.len());
    for c in comps {
        let mut members = scc_internal_order(ddg, c);
        members.sort_by_key(|&m| {
            let key = h[m.index()];
            (std::cmp::Reverse(if reversed { -key } else { key }), m)
        });
        order.extend(members);
    }
    order
}

/// Maximum latency-sum along any zero-distance path to a sink, computed on
/// the acyclic condensation (distance-0 arcs within SCCs are bounded by the
/// member count to keep this well-defined).
pub fn heights(lp: &Loop, ddg: &Ddg, machine: &Machine) -> Vec<i64> {
    let _ = machine; // latencies already baked into edges
    let n = lp.len();
    let mut h = vec![0i64; n];
    // Iterate to a fixpoint over distance-0 arcs, capped to avoid cycles
    // (cycles with all-zero distance cannot exist in a valid loop).
    let mut changed = true;
    let mut guard = 0;
    while changed && guard <= n + 1 {
        changed = false;
        guard += 1;
        for e in ddg.edges() {
            if e.distance == 0 {
                let cand = h[e.to.index()] + e.latency;
                if cand > h[e.from.index()] {
                    h[e.from.index()] = cand;
                    changed = true;
                }
            }
        }
    }
    h
}

/// §2.7's final memory sort: stores with no successors and loads with no
/// predecessors move to the end of the list (stable otherwise).
fn memory_sort(lp: &Loop, ddg: &Ddg, order: &mut Vec<OpId>) {
    let is_tail = |op: OpId| {
        let o = lp.op(op);
        match o.class {
            OpClass::Store => ddg.succ_edges(op).next().is_none(),
            OpClass::Load => ddg.pred_edges(op).next().is_none(),
            _ => false,
        }
    };
    let (mut head, tail): (Vec<OpId>, Vec<OpId>) = order.iter().partition(|&&op| !is_tail(op));
    head.extend(tail);
    *order = head;
}

/// Members of one SCC in a deterministic internal order: a local DFS from
/// the member with the most in-SCC successors, falling back to id order.
fn scc_internal_order(ddg: &Ddg, c: usize) -> Vec<OpId> {
    let scc = &ddg.sccs()[c];
    if scc.members.len() <= 1 {
        return scc.members.clone();
    }
    let mut order = Vec::with_capacity(scc.members.len());
    let mut seen = vec![false; scc.members.len()];
    let index_of = |op: OpId| scc.members.binary_search(&op).expect("member");
    let mut stack: Vec<OpId> = vec![scc.members[0]];
    while let Some(op) = stack.pop() {
        let i = index_of(op);
        if seen[i] {
            continue;
        }
        seen[i] = true;
        order.push(op);
        let mut nexts: Vec<OpId> = ddg
            .succ_edges(op)
            .filter(|e| ddg.scc_of(e.to).index() == c)
            .map(|e| e.to)
            .collect();
        nexts.sort_unstable_by(|a, b| b.cmp(a));
        for nx in nexts {
            if !seen[index_of(nx)] {
                stack.push(nx);
            }
        }
    }
    for (i, &m) in scc.members.iter().enumerate() {
        if !seen[i] {
            order.push(m);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ir::LoopBuilder;
    use swp_machine::Machine;

    #[test]
    fn display_honours_width() {
        assert_eq!(format!("{:>7}", PriorityHeuristic::Fdms), "   FDMS");
        assert_eq!(PriorityHeuristic::Fdnms.to_string(), "FDNMS");
    }

    fn chain_loop() -> Loop {
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(v, v);
        let u = b.fadd(w, v);
        b.store(y, 0, 8, u);
        b.finish()
    }

    #[test]
    fn every_heuristic_is_a_permutation() {
        let m = Machine::r8000();
        let lp = chain_loop();
        let ddg = Ddg::build(&lp, &m);
        for h in PriorityHeuristic::ALL {
            let order = priority_list(&lp, &ddg, &m, h);
            let mut sorted: Vec<_> = order.iter().map(|o| o.index()).collect();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..lp.len()).collect::<Vec<_>>(), "{h}");
        }
    }

    #[test]
    fn heights_descend_along_chains() {
        let m = Machine::r8000();
        let lp = chain_loop();
        let ddg = Ddg::build(&lp, &m);
        let h = heights(&lp, &ddg, &m);
        // load feeds mul feeds add feeds store: strictly higher upstream.
        assert!(h[0] > h[1]);
        assert!(h[1] > h[2]);
        assert!(h[2] > h[3]);
    }

    #[test]
    fn memory_sort_moves_root_store_to_tail() {
        let m = Machine::r8000();
        let lp = chain_loop();
        let ddg = Ddg::build(&lp, &m);
        let order = priority_list(&lp, &ddg, &m, PriorityHeuristic::Hms);
        // The store has no successors; the load has no predecessors: both
        // are at the tail under HMS.
        let tail: Vec<usize> = order[2..].iter().map(|o| o.index()).collect();
        assert!(tail.contains(&0), "load at tail: {order:?}");
        assert!(tail.contains(&3), "store at tail: {order:?}");
    }

    #[test]
    fn folded_dfs_puts_divide_first() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fadd(v, v);
        let d = b.fdiv(w, v);
        b.store(y, 0, 8, d);
        let lp = b.finish();
        let ddg = Ddg::build(&lp, &m);
        let order = priority_list(&lp, &ddg, &m, PriorityHeuristic::Fdnms);
        assert_eq!(
            order[0].index(),
            2,
            "unpipelined divide folded to head: {order:?}"
        );
    }

    #[test]
    fn scc_members_contiguous_in_all_heuristics() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let t = b.fadd(s.value(), v);
        let u = b.fmul(t, v);
        let w = b.fadd(u, t);
        b.close(s, w, 1);
        b.store(x, 80000, 8, w);
        let lp = b.finish();
        let ddg = Ddg::build(&lp, &m);
        let cyclic: Vec<bool> = lp.ops().iter().map(|o| ddg.in_cycle(o.id)).collect();
        assert!(
            cyclic.iter().filter(|&&c| c).count() >= 3,
            "loop has a big SCC"
        );
        for h in PriorityHeuristic::ALL {
            let order = priority_list(&lp, &ddg, &m, h);
            let positions: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, op)| ddg.in_cycle(**op))
                .map(|(i, _)| i)
                .collect();
            for w in positions.windows(2) {
                assert_eq!(w[1], w[0] + 1, "SCC contiguous under {h}: {order:?}");
            }
        }
    }
}
