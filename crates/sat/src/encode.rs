//! Per-II propositional encoding of the modulo-scheduling problem.
//!
//! The encoding is the direct one: a boolean `x[i][t]` per operation `i`
//! and candidate issue time `t`, over exactly MOST's search box — times in
//! `[0, II·(kmax+1))` with `kmax = ⌊Σ latency / II⌋ + 2`, the ILP's stage
//! bound ([`swp_heur::max_stage`], one function for both backends). Using
//! the *same* horizon matters: it makes a per-II SAT/UNSAT
//! verdict here coincide with ILP feasible/infeasible there, which is what
//! the differential tests (same achieved II on mutually solved loops)
//! lean on.
//!
//! Only the at-least-one rows become explicit clauses. Everything else —
//! at-most-one per op, dependence difference bounds
//! `t(to) − t(from) ≥ latency − II·distance`, and modulo resource
//! capacities with multi-cycle reservation multiplicities — stays implicit
//! and is enforced by the solver's theory propagators, which produce
//! clause-shaped explanations on demand for conflict analysis. A direct
//! clausal expansion of the resource rows alone would be quadratic per
//! row; the counting propagator is linear and explains lazily.
//!
//! Per-op time windows are pre-tightened with the all-pairs longest-path
//! table: any schedule places every op at a nonnegative time no later than
//! `H − 1`, so `est_i = max(0, max_a LP(a→i))` and
//! `let_i = (H−1) − max(0, max_b LP(i→b))` are sound. An empty window is a
//! proof of infeasibility at this II (within the shared horizon).

use swp_ir::{Ddg, LongestPaths, Loop};
use swp_machine::{Machine, ResourceClass};

/// One modulo resource row: `Σ mult(member) ≤ units` over the true members.
pub(crate) struct Group {
    /// Capacity of the unit class.
    pub units: u32,
    /// `(var, multiplicity)` — how many slots of this row the variable's
    /// reservation occupies when true (> 1 when a reservation's duration
    /// wraps the kernel more than once).
    pub members: Vec<(u32, u32)>,
}

/// A ground instance at a fixed II.
pub(crate) struct Instance {
    /// Operations in the loop.
    pub n_ops: usize,
    /// Total boolean variables.
    pub n_vars: usize,
    /// Owning op per variable.
    pub op_of: Vec<u32>,
    /// Issue time per variable.
    pub time_of: Vec<i64>,
    /// Inclusive `[est, let]` window per op.
    pub windows: Vec<(i64, i64)>,
    /// First variable id per op (its window is contiguous).
    pub var_base: Vec<u32>,
    /// Outgoing dependence arcs per op as `(succ, weight)`, parallel arcs
    /// deduplicated to the max weight.
    pub succ: Vec<Vec<(u32, i64)>>,
    /// Incoming dependence arcs per op as `(pred, weight)`.
    pub pred: Vec<Vec<(u32, i64)>>,
    /// Modulo resource rows.
    pub groups: Vec<Group>,
    /// For each variable, the groups it occupies with multiplicities.
    pub groups_of_var: Vec<Vec<(u32, u32)>>,
}

impl Instance {
    /// All variables of one op, in increasing time order.
    pub(crate) fn vars_of_op(&self, op: usize) -> std::ops::Range<u32> {
        let base = self.var_base[op];
        let (lo, hi) = self.windows[op];
        base..base + (hi - lo + 1) as u32
    }

    /// The variable for op `op` at time `t` (must lie in its window).
    pub(crate) fn var_at(&self, op: usize, t: i64) -> u32 {
        debug_assert!(t >= self.windows[op].0 && t <= self.windows[op].1);
        self.var_base[op] + (t - self.windows[op].0) as u32
    }
}

/// Build the instance at `ii`, or `None` when the II is proven infeasible
/// before any search (positive dependence cycle, or an op whose
/// longest-path window is empty).
pub(crate) fn build(lp: &Loop, ddg: &Ddg, machine: &Machine, ii: u32) -> Option<Instance> {
    let n = lp.len();
    let iiw = i64::from(ii);

    // MOST's horizon: stages 0..=kmax, rows 0..ii ⇒ times 0..h.
    let kmax = swp_heur::max_stage(lp, machine, ii);
    let h = iiw * (kmax + 1);

    // Positive cycle ⇒ II < RecMII ⇒ infeasible, proven.
    let paths = LongestPaths::compute(ddg, ii)?;

    let ops = lp.ops();
    let mut windows = Vec::with_capacity(n);
    for i in 0..n {
        let to_me = (0..n)
            .filter_map(|a| paths.get(ops[a].id, ops[i].id))
            .max()
            .unwrap_or(0)
            .max(0);
        let from_me = (0..n)
            .filter_map(|b| paths.get(ops[i].id, ops[b].id))
            .max()
            .unwrap_or(0)
            .max(0);
        let est = to_me;
        let lat = (h - 1) - from_me;
        if est > lat {
            return None; // empty window: infeasible at this II
        }
        windows.push((est, lat));
    }

    let mut var_base = Vec::with_capacity(n);
    let mut op_of = Vec::new();
    let mut time_of = Vec::new();
    for (i, &(lo, hi)) in windows.iter().enumerate() {
        var_base.push(op_of.len() as u32);
        for t in lo..=hi {
            op_of.push(i as u32);
            time_of.push(t);
        }
    }
    let n_vars = op_of.len();

    // Dependence adjacency, parallel arcs collapsed to the max weight.
    let mut succ: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
    let mut pred: Vec<Vec<(u32, i64)>> = vec![Vec::new(); n];
    for e in ddg.edges() {
        let (a, b) = (e.from.index(), e.to.index());
        let w = e.latency - iiw * i64::from(e.distance);
        upsert_max(&mut succ[a], b as u32, w);
        upsert_max(&mut pred[b], a as u32, w);
    }

    // Modulo resource rows, one group per (class, kernel row) that any
    // reservation touches. Multiplicity counts how many cycles of the
    // reservation land on the row (duration may wrap the kernel).
    let mut groups: Vec<Group> = Vec::new();
    let mut groups_of_var: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_vars];
    for class in ResourceClass::ALL {
        let units = machine.units(class);
        let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); ii as usize];
        for (i, op) in ops.iter().enumerate() {
            for res in machine.reservations(op.class) {
                if res.class != class {
                    continue;
                }
                for v in instance_vars(&var_base, &windows, i) {
                    let t = time_of[v as usize];
                    // Cycles t..t+duration land on rows (t+d) mod II.
                    let full_wraps = res.duration / ii;
                    let rem = res.duration % ii;
                    let start = (t % iiw) as u32;
                    for r in 0..ii {
                        let covered = rem > 0 && {
                            // Rows start, start+1, … start+rem−1 (mod II).
                            let off = (r + ii - start) % ii;
                            off < rem
                        };
                        let mult = full_wraps + u32::from(covered);
                        if mult > 0 {
                            rows[r as usize].push((v, mult));
                        }
                    }
                }
            }
        }
        for members in rows {
            if members.is_empty() {
                continue;
            }
            let g = groups.len() as u32;
            for &(v, mult) in &members {
                groups_of_var[v as usize].push((g, mult));
            }
            groups.push(Group { units, members });
        }
    }

    Some(Instance {
        n_ops: n,
        n_vars,
        op_of,
        time_of,
        windows,
        var_base,
        succ,
        pred,
        groups,
        groups_of_var,
    })
}

fn upsert_max(adj: &mut Vec<(u32, i64)>, node: u32, w: i64) {
    match adj.iter_mut().find(|(x, _)| *x == node) {
        Some((_, old)) => *old = (*old).max(w),
        None => adj.push((node, w)),
    }
}

fn instance_vars(var_base: &[u32], windows: &[(i64, i64)], op: usize) -> std::ops::Range<u32> {
    let base = var_base[op];
    let (lo, hi) = windows[op];
    base..base + (hi - lo + 1) as u32
}
