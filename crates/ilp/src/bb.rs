//! Depth-first branch-and-bound over the LP relaxation.
//!
//! One [`LpEngine`] is built per solve and shared by every node. Each node
//! differs from the last solved one only in variable bounds, so the
//! engine's basis stays dual feasible and node re-solves are warm dual
//! re-solves — typically a handful of pivots instead of a cold
//! Phase-I/Phase-II. The search budget is a deterministic **pivot count**
//! (plus the node limit); wall-clock limits are opt-in and reported
//! separately via [`IlpResult::deadline_hit`] so callers can tell
//! host-dependent truncation apart from the reproducible budgets.

use crate::model::{ConstraintOp, Model, Sense, VarId, VarKind};
use crate::simplex::{Budget, LpEngine, LpOutcome, LpSolution};
use std::time::{Duration, Instant};

/// Branch-and-bound controls.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum number of explored nodes (deterministic budget).
    pub node_limit: u64,
    /// Maximum total simplex pivots across all nodes (deterministic work
    /// budget — unlike wall-clock time, a pivot count reproduces exactly
    /// on any host).
    pub pivot_limit: u64,
    /// Optional wall-clock budget. The paper used 3 minutes per solve
    /// (§3.3); a caller may set this for a deadline, while MOST's and
    /// SAT's default budgets rely on `node_limit`/`pivot_limit` instead.
    pub time_limit: Option<Duration>,
    /// Branch variable priority: the first *fractional* variable in this
    /// order is branched on. §3.3(3) of the paper found this ordering to be
    /// "by far the most important factor" in solving scheduling ILPs.
    pub branch_order: Option<Vec<VarId>>,
    /// SOS1-style branch groups, consulted before `branch_order`: for the
    /// first group containing a fractional member, branch on the member
    /// with the **largest** relaxation value. Scheduling models group the
    /// `a[i][t]` slot binaries of each op (`Σ_t a[i][t] = 1`); branching
    /// on the LP-preferred slot instead of the first fractional one lets
    /// the dive place each op where the relaxation wants it, which on
    /// large loops is the difference between ~1 node per op and an
    /// exponential backtracking thrash.
    pub branch_groups: Option<Vec<Vec<VarId>>>,
    /// Tolerance for considering a relaxation value integral.
    pub integrality_tol: f64,
    /// Stop at the first integral solution (feasibility problems).
    pub stop_at_first: bool,
    /// Explore the upper child (binary fixed to 1 / round up) first even
    /// when the relaxation value is below one half. Assignment-structured
    /// models (`Σ_t a[i][t] = 1`) spread relaxation mass thinly across
    /// every slot, so nearest-value branching dives into long chains of
    /// `a = 0` fixings that barely change the LP; fixing `a = 1` first
    /// *places* the op, turning the dive into a priority-guided list
    /// scheduler that reaches an integral leaf in roughly one node per
    /// variable in the branch order.
    pub branch_up_first: bool,
    /// Cooperative cancellation, polled per pivot batch and per node —
    /// exactly where `time_limit` is polled. A cancelled solve reports
    /// [`IlpResult::deadline_hit`] for the same reason a deadline does:
    /// the truncation point is host-dependent.
    pub cancel: swp_obs::CancelToken,
    /// A known integral solution installed as the starting incumbent
    /// (after a feasibility check against the model): the search begins
    /// with a valid solution and an armed objective cutoff instead of
    /// having to dive for one. Unlike steering the dive toward the known
    /// solution — which anchors a truncated search at that (often poor)
    /// leaf — the warm start leaves branching entirely LP-guided, so the
    /// first dive goes where the relaxation points and the known solution
    /// only serves as a pruning floor and a fallback answer.
    pub warm_start: Option<Vec<f64>>,
    /// A proven bound on every integral objective value: a lower bound
    /// when minimizing, an upper bound when maximizing. The search ends
    /// with [`Status::Optimal`] as soon as the warm start or a new
    /// incumbent reaches it. It never prunes: an incumbent is replaced
    /// only by a strictly better one, so an incumbent at a valid floor is
    /// the one the unstopped search would also have returned, bit for
    /// bit. A floor that is not a true bound is the caller's bug — the
    /// search would stop at a non-optimal incumbent and call it optimal.
    pub objective_floor: Option<f64>,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            node_limit: 200_000,
            pivot_limit: u64::MAX,
            time_limit: None,
            branch_order: None,
            branch_groups: None,
            integrality_tol: 1e-5,
            stop_at_first: false,
            branch_up_first: false,
            cancel: swp_obs::CancelToken::never(),
            warm_start: None,
            objective_floor: None,
        }
    }
}

/// Outcome classification of an ILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Best possible integral solution found and proved.
    Optimal,
    /// An integral solution was found but the search was truncated by a
    /// budget (or stopped at the first solution on request).
    Feasible,
    /// Proved that no integral solution exists.
    Infeasible,
    /// Budget exhausted with no integral solution found.
    Unknown,
}

/// Result of [`solve_ilp`].
#[derive(Debug, Clone)]
pub struct IlpResult {
    /// How the search ended.
    pub status: Status,
    /// Best integral solution, if any (integer variables rounded exactly).
    pub solution: Option<LpSolution>,
    /// Nodes explored.
    pub nodes: u64,
    /// Simplex pivots performed across all nodes.
    pub pivots: u64,
    /// `B⁻¹` refactorizations performed by the shared engine.
    pub refactorizations: u64,
    /// Dual-repair bound flips performed by the shared engine.
    pub bound_flips: u64,
    /// Whether the wall-clock deadline (if any) caused truncation. Results
    /// with this flag set are host-dependent and must not be memoized.
    pub deadline_hit: bool,
}

impl IlpResult {
    /// Value of a variable in the best solution.
    ///
    /// # Panics
    ///
    /// Panics if there is no solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.solution.as_ref().expect("no solution").values[v.index()]
    }
}

/// Solve a mixed 0/1-integer linear program by branch and bound.
///
/// Returns the best integral solution found within the budgets. With
/// default options and no limits hit the result is optimal.
pub fn solve_ilp(model: &Model, options: &SolveOptions) -> IlpResult {
    let mut lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let mut upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();

    let deadline = options.time_limit.map(|d| Instant::now() + d);
    let mut budget = Budget::new(options.pivot_limit, deadline, options.cancel.clone());
    let mut engine = LpEngine::new(model);
    let minimize = model.sense == Sense::Minimize;
    let _span = swp_obs::span("ilp.solve")
        .with_i("vars", model.vars.len() as i64)
        .with_i("rows", engine.rows() as i64);

    let mut incumbent: Option<LpSolution> = None;
    let mut tally = Tally::default();
    let mut truncated = false;

    struct Frame {
        var: usize,
        saved_lo: f64,
        saved_hi: f64,
        alts: [(f64, f64); 2],
        next: usize,
    }
    let mut stack: Vec<Frame> = Vec::new();

    // Returns true when a should replace b as incumbent.
    let better = |a: f64, b: f64| if minimize { a < b - 1e-9 } else { a > b + 1e-9 };
    // Returns true when relaxation bound cannot beat the incumbent.
    let dominated = |bound: f64, inc: f64| {
        if minimize {
            bound >= inc - 1e-9
        } else {
            bound <= inc + 1e-9
        }
    };
    // Returns true when an incumbent meets the proven objective floor.
    let at_floor = |obj: f64| {
        options.objective_floor.is_some_and(|floor| {
            if minimize {
                obj <= floor + 1e-9
            } else {
                obj >= floor - 1e-9
            }
        })
    };

    if let Some(start) = options
        .warm_start
        .as_ref()
        .filter(|v| warm_start_feasible(model, v, options.integrality_tol))
    {
        let mut sol = LpSolution {
            values: start.clone(),
            objective: 0.0,
        };
        for (j, v) in sol.values.iter_mut().enumerate() {
            if model.vars[j].kind != VarKind::Continuous {
                *v = v.round();
            }
        }
        sol.objective = model
            .objective
            .iter()
            .map(|&(v, c)| c * sol.values[v.index()])
            .sum();
        let cut = if minimize {
            sol.objective
        } else {
            -sol.objective
        };
        engine.set_cutoff(Some(cut));
        tally.warm_hit = true;
        tally.floor_stop = at_floor(sol.objective);
        incumbent = Some(sol);
        if tally.floor_stop {
            return finish(Status::Optimal, incumbent, &tally, &budget, &engine);
        }
    }

    'search: loop {
        if tally.nodes >= options.node_limit || budget.pivots >= budget.pivot_limit || budget.poll()
        {
            truncated = true;
            break;
        }
        tally.nodes += 1;

        let outcome = engine.solve_budgeted(&lower, &upper, &mut budget);
        match outcome {
            LpOutcome::Optimal(sol) => {
                let prune = incumbent
                    .as_ref()
                    .is_some_and(|inc| dominated(sol.objective, inc.objective));
                if prune {
                    tally.prunes += 1;
                }
                if !prune {
                    match pick_branch(model, &sol, options) {
                        None => {
                            // Integral: round and record.
                            let mut rounded = sol.clone();
                            for (j, v) in rounded.values.iter_mut().enumerate() {
                                if model.vars[j].kind != VarKind::Continuous {
                                    *v = v.round();
                                }
                            }
                            rounded.objective = model
                                .objective
                                .iter()
                                .map(|&(v, c)| c * rounded.values[v.index()])
                                .sum();
                            let replace = incumbent
                                .as_ref()
                                .is_none_or(|inc| better(rounded.objective, inc.objective));
                            if replace {
                                // Arm the engine's mid-solve cutoff: node
                                // re-solves whose dual bound cannot beat
                                // this incumbent stop after a few pivots.
                                let cut = if minimize {
                                    rounded.objective
                                } else {
                                    -rounded.objective
                                };
                                engine.set_cutoff(Some(cut));
                                tally.floor_stop = at_floor(rounded.objective);
                                incumbent = Some(rounded);
                                if tally.floor_stop {
                                    return finish(
                                        Status::Optimal,
                                        incumbent,
                                        &tally,
                                        &budget,
                                        &engine,
                                    );
                                }
                                if options.stop_at_first {
                                    truncated = true;
                                    break 'search;
                                }
                            }
                        }
                        Some(j) => {
                            let v = sol.values[j];
                            let kind = model.vars[j].kind;
                            let (lo, hi) = (lower[j], upper[j]);
                            let alts =
                                branch_alternatives(kind, v, lo, hi, options.branch_up_first);
                            stack.push(Frame {
                                var: j,
                                saved_lo: lo,
                                saved_hi: hi,
                                alts,
                                next: 0,
                            });
                        }
                    }
                }
            }
            LpOutcome::Infeasible => {}
            LpOutcome::Unbounded => {
                // An unbounded relaxation of a node: the integer problem is
                // unbounded or ill-posed; report and stop.
                return finish(Status::Unknown, incumbent, &tally, &budget, &engine);
            }
            LpOutcome::IterLimit => {
                truncated = true;
                // A per-solve safety cap leaves the global budget intact —
                // skip the subtree and keep searching. A spent global
                // budget ends the whole search.
                if budget.exhausted() {
                    break 'search;
                }
            }
        }

        // Take the next alternative from the top of the stack (entering the
        // child we just pushed, or backtracking).
        loop {
            let Some(top) = stack.last_mut() else {
                break 'search;
            };
            if top.next < 2 {
                let (lo, hi) = top.alts[top.next];
                top.next += 1;
                lower[top.var] = lo;
                upper[top.var] = hi;
                break;
            }
            lower[top.var] = top.saved_lo;
            upper[top.var] = top.saved_hi;
            stack.pop();
        }
    }

    // Restore not needed; model untouched.
    let status = match (&incumbent, truncated) {
        (Some(_), false) => Status::Optimal,
        (Some(_), true) => Status::Feasible,
        (None, false) => Status::Infeasible,
        (None, true) => Status::Unknown,
    };
    finish(status, incumbent, &tally, &budget, &engine)
}

/// What one search did, beyond the engine's own counts.
#[derive(Default)]
struct Tally {
    nodes: u64,
    prunes: u64,
    /// The warm start was feasible and became the first incumbent.
    warm_hit: bool,
    /// The search ended because an incumbent met
    /// [`SolveOptions::objective_floor`].
    floor_stop: bool,
}

/// Assemble the result and flush the solve's work counters to telemetry.
/// Every exit path of [`solve_ilp`] funnels through here so the registry
/// totals and the returned fields can never disagree.
fn finish(
    status: Status,
    solution: Option<LpSolution>,
    tally: &Tally,
    budget: &Budget,
    engine: &LpEngine,
) -> IlpResult {
    use swp_obs::{count, Counter};
    count(Counter::IlpSolves, 1);
    count(Counter::IlpNodes, tally.nodes);
    count(Counter::IlpPrunes, tally.prunes);
    count(Counter::IlpPivots, budget.pivots);
    count(Counter::IlpRefactorizations, engine.refactorizations());
    count(Counter::IlpBoundFlips, engine.bound_flips());
    count(Counter::IlpWarmStartHits, tally.warm_hit as u64);
    count(Counter::IlpFloorStops, tally.floor_stop as u64);
    IlpResult {
        status,
        solution,
        nodes: tally.nodes,
        pivots: budget.pivots,
        refactorizations: engine.refactorizations(),
        bound_flips: engine.bound_flips(),
        deadline_hit: budget.deadline_hit,
    }
}

/// Pick the branching variable: the first fractional variable in the given
/// priority order, else the most fractional integer variable.
fn pick_branch(model: &Model, sol: &LpSolution, options: &SolveOptions) -> Option<usize> {
    let tol = options.integrality_tol;
    let frac = |x: f64| (x - x.round()).abs();
    if let Some(groups) = &options.branch_groups {
        for group in groups {
            let mut best: Option<(usize, f64)> = None;
            for &v in group {
                let j = v.index();
                let x = sol.values[j];
                if frac(x) > tol && best.is_none_or(|(_, bx)| x > bx) {
                    best = Some((j, x));
                }
            }
            if best.is_some() {
                return best.map(|(j, _)| j);
            }
        }
    }
    if let Some(order) = &options.branch_order {
        for &v in order {
            let j = v.index();
            if model.vars[j].kind != VarKind::Continuous && frac(sol.values[j]) > tol {
                return Some(j);
            }
        }
    }
    let mut best: Option<(usize, f64)> = None;
    for (j, def) in model.vars.iter().enumerate() {
        if def.kind == VarKind::Continuous {
            continue;
        }
        let f = frac(sol.values[j]);
        if f > tol && best.is_none_or(|(_, bf)| f > bf) {
            best = Some((j, f));
        }
    }
    best.map(|(j, _)| j)
}

/// Whether a warm-start vector is a valid integral solution of the model:
/// right length, within bounds, integral where required, and satisfying
/// every constraint. A vector that fails is silently ignored rather than
/// poisoning the incumbent — the caller's warm start is an optimization,
/// not a promise.
fn warm_start_feasible(model: &Model, values: &[f64], tol: f64) -> bool {
    if values.len() != model.vars.len() {
        return false;
    }
    for (def, &x) in model.vars.iter().zip(values) {
        if x < def.lower - 1e-6 || x > def.upper + 1e-6 {
            return false;
        }
        if def.kind != VarKind::Continuous && (x - x.round()).abs() > tol {
            return false;
        }
    }
    model.constraints.iter().all(|c| {
        let lhs: f64 = c.terms.iter().map(|&(v, a)| a * values[v.index()]).sum();
        match c.op {
            ConstraintOp::Le => lhs <= c.rhs + 1e-6,
            ConstraintOp::Ge => lhs >= c.rhs - 1e-6,
            ConstraintOp::Eq => (lhs - c.rhs).abs() <= 1e-6,
        }
    })
}

/// Child bounds for a branch: nearer value first, unless `up_first`
/// forces the upper child (see [`SolveOptions::branch_up_first`]).
/// `up_first` applies to **binaries only** — those are the assignment
/// variables the option exists for; general integers (stages, buffer
/// counts) always take the nearer child first, since rounding a stage
/// count up just sprawls the schedule.
fn branch_alternatives(kind: VarKind, v: f64, lo: f64, hi: f64, up_first: bool) -> [(f64, f64); 2] {
    match kind {
        VarKind::Binary => {
            if up_first || v >= 0.5 {
                [(1.0, 1.0), (0.0, 0.0)]
            } else {
                [(0.0, 0.0), (1.0, 1.0)]
            }
        }
        _ => {
            let down = (lo, v.floor());
            let up = (v.ceil(), hi);
            if v - v.floor() > 0.5 {
                [up, down]
            } else {
                [down, up]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    #[test]
    fn knapsack_optimal() {
        let mut m = Model::new(Sense::Maximize);
        let items = [(10.0, 5.0), (13.0, 7.0), (7.0, 4.0), (4.0, 3.0)];
        let vars: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, _)| m.binary(&format!("x{i}")))
            .collect();
        m.set_objective(vars.iter().zip(&items).map(|(&v, &(p, _))| (v, p)));
        m.add_le(vars.iter().zip(&items).map(|(&v, &(_, w))| (v, w)), 10.0);
        let r = solve_ilp(&m, &SolveOptions::default());
        assert_eq!(r.status, Status::Optimal);
        assert!((r.solution.unwrap().objective - 17.0).abs() < 1e-6);
        assert!(r.pivots > 0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x st 2x <= 5, x integer → 2 (relaxation 2.5).
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer("x");
        m.set_objective([(x, 1.0)]);
        m.add_le([(x, 2.0)], 5.0);
        let r = solve_ilp(&m, &SolveOptions::default());
        assert_eq!(r.status, Status::Optimal);
        assert!((r.value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_integer_problem() {
        // 2x = 3 with x integer.
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer("x");
        m.add_eq([(x, 2.0)], 3.0);
        let r = solve_ilp(&m, &SolveOptions::default());
        assert_eq!(r.status, Status::Infeasible);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs mirror the cost matrix
    fn assignment_problem() {
        // 3 jobs to 3 slots, costs; classic set partitioning.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut x = vec![vec![]; 3];
        for i in 0..3 {
            for j in 0..3 {
                x[i].push(m.binary(&format!("x{i}{j}")));
            }
        }
        m.set_objective(
            (0..3)
                .flat_map(|i| (0..3).map(move |j| (i, j)))
                .map(|(i, j)| (x[i][j], costs[i][j])),
        );
        for i in 0..3 {
            m.add_eq((0..3).map(|j| (x[i][j], 1.0)), 1.0);
        }
        for j in 0..3 {
            m.add_eq((0..3).map(|i| (x[i][j], 1.0)), 1.0);
        }
        let r = solve_ilp(&m, &SolveOptions::default());
        assert_eq!(r.status, Status::Optimal);
        // Optimal: j0→slot0(4)? rows to columns: min total = 4+3+... check
        // by exhaustion: permutations costs: (0,1,2):4+3+6=13; (0,2,1):4+7+1=12;
        // (1,0,2):2+4+6=12; (1,2,0):2+7+3=12; (2,0,1):8+4+1=13; (2,1,0):8+3+3=14.
        assert!((r.solution.unwrap().objective - 12.0).abs() < 1e-6);
    }

    #[test]
    fn stop_at_first_returns_feasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_ge([(x, 1.0), (y, 1.0)], 1.0);
        let r = solve_ilp(
            &m,
            &SolveOptions {
                stop_at_first: true,
                ..SolveOptions::default()
            },
        );
        assert_eq!(r.status, Status::Feasible);
        assert!(r.solution.is_some());
    }

    #[test]
    fn node_limit_truncates() {
        // A problem that needs branching, with a 1-node budget.
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer("x");
        let y = m.integer("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_le([(x, 2.0), (y, 3.0)], 7.0);
        m.add_le([(x, 3.0), (y, 2.0)], 7.0);
        let r = solve_ilp(
            &m,
            &SolveOptions {
                node_limit: 1,
                ..SolveOptions::default()
            },
        );
        assert!(matches!(r.status, Status::Unknown | Status::Feasible));
        assert!(!r.deadline_hit);
    }

    #[test]
    fn pivot_limit_truncates_deterministically() {
        // The same tiny budget gives the same truncation point every run.
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer("x");
        let y = m.integer("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_le([(x, 2.0), (y, 3.0)], 7.0);
        m.add_le([(x, 3.0), (y, 2.0)], 7.0);
        let opts = SolveOptions {
            pivot_limit: 2,
            ..SolveOptions::default()
        };
        let a = solve_ilp(&m, &opts);
        let b = solve_ilp(&m, &opts);
        assert!(matches!(a.status, Status::Unknown | Status::Feasible));
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.pivots, b.pivots);
        assert!(a.pivots <= 2);
        assert!(!a.deadline_hit);
    }

    #[test]
    fn branch_order_is_honored() {
        // Both orders find the optimum; the test checks the hook is safe.
        let mut m = Model::new(Sense::Maximize);
        let x = m.binary("x");
        let y = m.binary("y");
        let z = m.binary("z");
        m.set_objective([(x, 2.0), (y, 3.0), (z, 4.0)]);
        m.add_le([(x, 1.0), (y, 1.0), (z, 1.0)], 2.0);
        let r = solve_ilp(
            &m,
            &SolveOptions {
                branch_order: Some(vec![z, y, x]),
                ..SolveOptions::default()
            },
        );
        assert_eq!(r.status, Status::Optimal);
        assert!((r.solution.unwrap().objective - 7.0).abs() < 1e-6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs mirror the a[i][t] grid
    fn equality_heavy_scheduling_shape() {
        // A miniature a[i][t] shape: 3 ops × 3 slots, each op in exactly one
        // slot, at most 2 ops per slot, minimize weighted slot use.
        let mut m = Model::new(Sense::Minimize);
        let mut a = vec![vec![]; 3];
        for i in 0..3 {
            for t in 0..3 {
                a[i].push(m.binary(&format!("a{i}{t}")));
            }
        }
        for i in 0..3 {
            m.add_eq((0..3).map(|t| (a[i][t], 1.0)), 1.0);
        }
        for t in 0..3 {
            m.add_le((0..3).map(|i| (a[i][t], 1.0)), 2.0);
        }
        m.set_objective(
            (0..3)
                .flat_map(|i| (0..3).map(move |t| (i, t)))
                .map(|(i, t)| (a[i][t], (t as f64) + 1.0)),
        );
        let r = solve_ilp(&m, &SolveOptions::default());
        assert_eq!(r.status, Status::Optimal);
        // Two ops in slot 0 (cost 1 each), one in slot 1 (cost 2): total 4.
        assert!((r.solution.unwrap().objective - 4.0).abs() < 1e-6);
    }
}
