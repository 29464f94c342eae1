//! The ILP formulation of resource-constrained modulo scheduling
//! (\[GoAlGa94a\], \[AlGoGa95\]) and the buffer-minimization objective the
//! McGill team adopted for this study (§3.3, adjustment 2).

use swp_ilp::{solve_lp, LpOutcome, Model, Sense, VarId};
use swp_ir::{Ddg, LongestPaths, Loop, OpId};
use swp_machine::Machine;

/// Handle to the variables of a scheduling model.
#[derive(Debug, Clone)]
pub struct SchedulingModel {
    /// The ILP model.
    pub model: Model,
    /// `a[i][t]`: op `i` occupies kernel row `t`.
    pub row_vars: Vec<Vec<VarId>>,
    /// `k[i]`: pipeline stage of op `i`.
    pub stage_vars: Vec<VarId>,
    /// Per-value buffer count variables (buffer objective only).
    pub buffer_vars: Vec<Option<VarId>>,
    /// The II the model was built for.
    pub ii: u32,
}

/// Objective selector for [`build_model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Resource-constrained feasibility (minimize Σ stages to keep the
    /// relaxation tight; the first integral solution is accepted).
    Feasibility,
    /// Minimize the total FIFO buffers of loop-carried and cross-stage
    /// values — §3.3's replacement for full register optimality. "This
    /// objective function directly translates into the reduction of the
    /// number of iterations overlapped in the steady state."
    MinBuffers,
}

/// Upper bound on pipeline stages: enough for any schedule worth having.
fn stage_bound(lp: &Loop, ddg: &Ddg, machine: &Machine, ii: u32) -> f64 {
    let total_latency: i64 = lp
        .ops()
        .iter()
        .map(|o| i64::from(machine.latency(o.class)))
        .sum();
    let _ = ddg;
    ((total_latency / i64::from(ii)) + 2) as f64
}

/// Build the modulo-scheduling ILP at a fixed II.
///
/// Variables: binary `a[i][t]` with `Σ_t a[i][t] = 1`; integer stages
/// `k[i]`; issue time `σ_i = Σ_t t·a[i][t] + II·k[i]`.
///
/// Constraints:
/// - assignment rows (one row per op),
/// - modulo resources: for every kernel row and unit class, the
///   reservations of all ops landing there fit the unit count
///   (multi-cycle reservations of unpipelined ops included),
/// - dependences: `σ_j − σ_i ≥ latency − II·distance`,
/// - stage bounds `k[i] ≤ K` to keep the search finite,
/// - with [`Objective::MinBuffers`]: integer `b_v` per defined-and-used
///   value with `II·b_v ≥ σ_use + II·distance − σ_def` for every use.
pub fn build_model(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    objective: Objective,
) -> SchedulingModel {
    let n = lp.len();
    let mut model = Model::new(Sense::Minimize);
    let iif = f64::from(ii);

    let row_vars: Vec<Vec<VarId>> = (0..n)
        .map(|i| {
            (0..ii)
                .map(|t| model.binary(&format!("a_{i}_{t}")))
                .collect()
        })
        .collect();
    let stage_vars: Vec<VarId> = (0..n).map(|i| model.integer(&format!("k_{i}"))).collect();

    // Assignment.
    for vars in &row_vars {
        model.add_eq(vars.iter().map(|&v| (v, 1.0)), 1.0);
    }
    // Stage bound.
    let kmax = stage_bound(lp, ddg, machine, ii);
    for &k in &stage_vars {
        model.add_le([(k, 1.0)], kmax);
    }
    // Modulo resources: row r, class c: Σ_i Σ_{d<dur_i} a[i][(r−d) mod II] ≤ units.
    for class in swp_machine::ResourceClass::ALL {
        let units = f64::from(machine.units(class));
        for r in 0..ii {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for (i, op) in lp.ops().iter().enumerate() {
                for res in machine.reservations(op.class) {
                    if res.class != class {
                        continue;
                    }
                    for d in 0..res.duration {
                        let t = (i64::from(r) - i64::from(d)).rem_euclid(i64::from(ii)) as usize;
                        terms.push((row_vars[i][t], 1.0));
                    }
                }
            }
            if !terms.is_empty() {
                model.add_le(terms, units);
            }
        }
    }
    // Dependences: σ_j − σ_i ≥ lat − II·dist.
    for e in ddg.edges() {
        let (i, j) = (e.from.index(), e.to.index());
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for (t, &v) in row_vars[j].iter().enumerate() {
            terms.push((v, t as f64));
        }
        terms.push((stage_vars[j], iif));
        for (t, &v) in row_vars[i].iter().enumerate() {
            terms.push((v, -(t as f64)));
        }
        terms.push((stage_vars[i], -iif));
        model.add_ge(
            terms,
            (e.latency - i64::from(ii) * i64::from(e.distance)) as f64,
        );
    }

    // Objective.
    let mut buffer_vars: Vec<Option<VarId>> = vec![None; lp.values().len()];
    match objective {
        Objective::Feasibility => {
            model.set_objective(stage_vars.iter().map(|&k| (k, 1.0)));
        }
        Objective::MinBuffers => {
            let uses = lp.uses();
            let mut obj: Vec<(VarId, f64)> = Vec::new();
            for (vi, info) in lp.values().iter().enumerate() {
                let Some(def) = info.def else { continue };
                if uses[vi].is_empty() {
                    continue;
                }
                let b = model.integer(&format!("buf_{vi}"));
                buffer_vars[vi] = Some(b);
                obj.push((b, 1.0));
                // A finite upper bound (any schedule fits within the
                // stage bound plus the longest dependence distance): it
                // folds into a context bound, and a variable with two
                // finite bounds can always be bound-flipped back to dual
                // feasibility after branching — unbounded buffer columns
                // were the one thing forcing node re-solves through a
                // cold Phase 1.
                let max_dist = uses[vi]
                    .iter()
                    .map(|&(user, idx)| lp.op(user).operands[idx].distance)
                    .max()
                    .unwrap_or(0);
                model.add_le([(b, 1.0)], kmax + f64::from(max_dist) + 2.0);
                for &(user, idx) in &uses[vi] {
                    let dist = lp.op(user).operands[idx].distance;
                    // II·b ≥ σ_user + II·dist − σ_def
                    let mut terms: Vec<(VarId, f64)> = vec![(b, iif)];
                    for (t, &v) in row_vars[user.index()].iter().enumerate() {
                        terms.push((v, -(t as f64)));
                    }
                    terms.push((stage_vars[user.index()], -iif));
                    for (t, &v) in row_vars[def.index()].iter().enumerate() {
                        terms.push((v, t as f64));
                    }
                    terms.push((stage_vars[def.index()], iif));
                    model.add_ge(terms, iif * f64::from(dist));
                }
            }
            model.set_objective(obj);
        }
    }
    SchedulingModel {
        model,
        row_vars,
        stage_vars,
        buffer_vars,
        ii,
    }
}

impl SchedulingModel {
    /// Extract issue times from an ILP solution.
    pub fn extract_times(&self, values: &[f64]) -> Vec<i64> {
        let ii = i64::from(self.ii);
        self.row_vars
            .iter()
            .zip(&self.stage_vars)
            .map(|(rows, &k)| {
                let t = rows
                    .iter()
                    .position(|&v| values[v.index()] > 0.5)
                    .expect("every op is assigned a row") as i64;
                let stage = values[k.index()].round() as i64;
                t + ii * stage
            })
            .collect()
    }

    /// Branch priority for the solver: row variables of ops in the given
    /// scheduling priority order, then stages in the same order — the
    /// §3.3(3) adjustment that made MOST solve real loops.
    pub fn branch_order(&self, op_order: &[OpId]) -> Vec<VarId> {
        let mut order = Vec::with_capacity(self.row_vars.len() * self.ii as usize);
        for &op in op_order {
            order.extend(self.row_vars[op.index()].iter().copied());
        }
        for &op in op_order {
            order.push(self.stage_vars[op.index()]);
        }
        order
    }

    /// SOS1 branch groups for the solver: each op contributes its row
    /// variables (one group — the solver branches on the LP-preferred
    /// slot) immediately followed by its stage variable (a singleton
    /// group), in scheduling priority order. Interleaving the stage with
    /// the slots pins each op's full issue time `σ = t + II·k` before the
    /// next op is placed, so a conflicting placement goes infeasible at
    /// the op that caused it and backtracking stays local — leaving the
    /// stages to the end lets the dive place every slot greedily and only
    /// then discover the stages cannot be reconciled, dozens of levels up.
    pub fn branch_groups(&self, op_order: &[OpId]) -> Vec<Vec<VarId>> {
        let mut groups = Vec::with_capacity(2 * op_order.len());
        for &op in op_order {
            groups.push(self.row_vars[op.index()].clone());
            groups.push(vec![self.stage_vars[op.index()]]);
        }
        groups
    }

    /// Extend a feasibility-model solution to a full warm-start vector
    /// for this buffer model: the two models share the schedule-variable
    /// prefix (same construction order), so only the appended buffer
    /// variables are missing, and each takes its implied minimal value
    /// `b_v = max_u ⌈(σ_u + II·d_u − σ_def)/II⌉`.
    pub fn warm_start_from(&self, lp: &Loop, feas_values: &[f64]) -> Vec<f64> {
        let mut full = feas_values.to_vec();
        full.resize(self.model.num_vars(), 0.0);
        let times = self.extract_times(&full);
        let ii = i64::from(self.ii);
        let uses = lp.uses();
        for (vi, info) in lp.values().iter().enumerate() {
            let (Some(b), Some(def)) = (self.buffer_vars[vi], info.def) else {
                continue;
            };
            let sd = times[def.index()];
            let need = uses[vi]
                .iter()
                .map(|&(user, idx)| {
                    let dist = i64::from(lp.op(user).operands[idx].distance);
                    let span = times[user.index()] + ii * dist - sd;
                    (span + ii - 1).div_euclid(ii)
                })
                .max()
                .unwrap_or(0)
                .max(0);
            full[b.index()] = need as f64;
        }
        full
    }

    /// A proven lower bound on the total buffers of every schedule this
    /// buffer model admits, or `None` when the bound's LP did not solve.
    ///
    /// Dependences alone force `σ_use − σ_def ≥ MinDist(def, use)`, the
    /// longest path at this II, so every `b_v` is at least
    /// `⌈(MinDist(def, use) + II·d)/II⌉`. The LP relaxation of a copy of
    /// the model with those lower bounds is solved, and its value rounded
    /// up to the next integer with a tolerance: the engine's cost
    /// perturbation can only overstate the objective of the vertex it
    /// returns, so an LP value a hair above an integer is that integer.
    pub fn buffer_floor(&self, lp: &Loop, ddg: &Ddg) -> Option<u32> {
        let paths = LongestPaths::compute(ddg, self.ii)?;
        let ii = i64::from(self.ii);
        let uses = lp.uses();
        let mut tightened = self.model.clone();
        for (vi, info) in lp.values().iter().enumerate() {
            let (Some(b), Some(def)) = (self.buffer_vars[vi], info.def) else {
                continue;
            };
            let need = uses[vi]
                .iter()
                .filter_map(|&(user, idx)| {
                    let dist = i64::from(lp.op(user).operands[idx].distance);
                    let span = paths.get(def, user)? + ii * dist;
                    Some((span + ii - 1).div_euclid(ii))
                })
                .max()
                .unwrap_or(0);
            if need > 0 {
                tightened.add_ge([(b, 1.0)], need as f64);
            }
        }
        match solve_lp(&tightened) {
            LpOutcome::Optimal(s) => Some((s.objective - 1e-3).ceil() as u32),
            _ => None,
        }
    }

    /// Total buffers in a solution (buffer objective only).
    pub fn total_buffers(&self, values: &[f64]) -> Option<u32> {
        let mut total = 0.0;
        let mut any = false;
        for b in self.buffer_vars.iter().flatten() {
            total += values[b.index()];
            any = true;
        }
        any.then_some(total.round() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ilp::{solve_ilp, SolveOptions, Status};
    use swp_ir::{LoopBuilder, Schedule};
    use swp_machine::Machine;

    fn solve_feasible(lp: &swp_ir::Loop, ii: u32) -> Option<Schedule> {
        let m = Machine::r8000();
        let ddg = Ddg::build(lp, &m);
        let sm = build_model(lp, &ddg, &m, ii, Objective::Feasibility);
        let r = solve_ilp(
            &sm.model,
            &SolveOptions {
                stop_at_first: true,
                node_limit: 50_000,
                ..SolveOptions::default()
            },
        );
        match r.status {
            Status::Optimal | Status::Feasible => {
                let sol = r.solution.expect("has solution");
                Some(Schedule::new(ii, sm.extract_times(&sol.values)))
            }
            _ => None,
        }
    }

    #[test]
    fn saxpy_feasible_at_min_ii() {
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
        let ddg = Ddg::build(&lp, &m);
        assert_eq!(ddg.min_ii(), 2);
        let s = solve_feasible(&lp, 2).expect("feasible at MinII");
        assert_eq!(s.validate(&lp, &ddg, &m), Ok(()));
    }

    #[test]
    fn below_min_ii_is_infeasible() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let v1 = b.load(x, 0, 8);
        let v2 = b.load(x, 800, 8);
        let v3 = b.load(x, 1600, 8);
        let s = b.fadd(v1, v2);
        let s2 = b.fadd(s, v3);
        b.store(x, 80000, 8, s2);
        let lp = b.finish();
        // 4 memory refs on 2 pipes: II=1 impossible.
        assert!(solve_feasible(&lp, 1).is_none());
        let got = solve_feasible(&lp, 2).expect("II=2 works");
        assert_eq!(got.validate(&lp, &Ddg::build(&lp, &m), &m), Ok(()));
    }

    #[test]
    fn recurrence_constrains_ilp_too() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("sum");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(s.value(), v);
        b.close(s, s1, 1);
        let lp = b.finish();
        assert!(solve_feasible(&lp, 3).is_none(), "below RecMII");
        assert!(solve_feasible(&lp, 4).is_some());
        let _ = m;
    }

    #[test]
    fn buffer_objective_reduces_overlap() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("chain");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(v, v);
        let u = b.fadd(w, w);
        b.store(y, 0, 8, u);
        let lp = b.finish();
        let ddg = Ddg::build(&lp, &m);
        let ii = ddg.min_ii();
        let sm = build_model(&lp, &ddg, &m, ii, Objective::MinBuffers);
        let r = solve_ilp(
            &sm.model,
            &SolveOptions {
                node_limit: 100_000,
                ..SolveOptions::default()
            },
        );
        assert_eq!(r.status, Status::Optimal);
        let sol = r.solution.expect("optimal");
        let times = sm.extract_times(&sol.values);
        let s = Schedule::new(ii, times);
        assert_eq!(s.validate(&lp, &ddg, &m), Ok(()));
        // The chain load→mul→add→store at latencies 4+4+1: minimal buffer
        // schedule packs ops as close as dependences allow.
        let buffers = sm.total_buffers(&sol.values).expect("buffer objective");
        assert!(
            buffers >= 3,
            "each link needs at least one buffer: {buffers}"
        );
    }
}
