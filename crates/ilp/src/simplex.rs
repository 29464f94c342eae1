//! Revised simplex over bounded variables, with a warm-started dual
//! simplex for branch-and-bound re-solves.
//!
//! The old LP layer was a dense two-phase tableau that rebuilt itself from
//! scratch for every branch-and-bound node. This one keeps a persistent
//! [`LpEngine`] per model: structural columns are stored sparsely, the
//! basis inverse `B⁻¹` is held explicitly (dense, product-form rank-1
//! updates with periodic refactorization), and variable bounds live
//! outside the constraint matrix. A child node differs from its parent
//! only in one variable bound, which leaves the reduced costs untouched —
//! the engine stays **dual feasible** and re-solves in a handful of dual
//! pivots instead of a cold Phase-I/Phase-II.
//!
//! Singleton rows (`x ≤ k`, `x ≥ k`, `x = k`) never enter the row set;
//! they are folded into per-variable *context bounds* intersected with the
//! caller's bounds on every solve. The modulo-scheduling models' stage
//! bounds all take this form, which keeps `m` small.
//!
//! Anti-cycling: the primal loop watches for stretches of degenerate
//! pivots and switches to Bland's rule (smallest-index selection) until
//! progress resumes. The dual loop has none: a watch like the primal's
//! could never fire there, since every dual pivot moves its leaving
//! variable by more than `FEAS_EPS`. Dual cycling is stopped only by the
//! per-solve pivot cap, which backstops both loops.
//!
//! Work per pivot. The dual loop prices on demand: it forms `y` and then
//! the reduced cost of only the columns its ratio test can pick, and
//! builds that test's pivot row `ρᵀA` from a row-wise (CSR) copy of the
//! matrix, touching only the rows where `ρ` is nonzero. A full pricing
//! pass runs only where every reduced cost is read, and not at all while
//! the `priced` flag says the last one still holds. The dense `m × m`
//! work goes through the `kernel` module's routines.
//!
//! All of that is held to one rule: it performs exactly the floating-point
//! operations of the plain formulation, in the same order, so every
//! pivot, node, refactorization, bound flip and solution bit is the same.
//! `tests/bits.rs` pins that with one digest. A change that moves a pivot
//! changes the search, not its cost.

use crate::kernel::{combine_rows, row_dots, sub_scaled};
use crate::model::{ConstraintOp, Model, Sense};

const EPS: f64 = 1e-9;
const FEAS_EPS: f64 = 1e-7;
const DUAL_EPS: f64 = 1e-7;
/// Rank-1 updates between refactorizations of `B⁻¹`.
const REFACTOR_EVERY: u32 = 64;
/// Consecutive degenerate pivots before Bland's rule engages.
const STALL_LIMIT: u32 = 100;
/// Floating-point cells of pivot work between cancel-token polls: the
/// poll interval in *pivots* scales inversely with model size, so one
/// sweep on a large model can no longer overshoot a short deadline.
const POLL_WORK: u64 = 1 << 18;

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The pivot budget ran out or the cancel token fired (treated as a
    /// solver failure).
    IterLimit,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Value per model variable.
    pub values: Vec<f64>,
}

/// Deterministic work budget shared by every solve of one branch-and-bound
/// tree: a pivot count (host-independent) plus the caller's cancel token,
/// polled every [`POLL_WORK`] cells of pivot work.
#[derive(Debug)]
pub(crate) struct Budget {
    /// Maximum total pivots (bound flips included).
    pub pivot_limit: u64,
    /// Pivots performed so far.
    pub pivots: u64,
    /// Whether the cancel token fired (distinguishes host-dependent
    /// truncation from the deterministic pivot/node budgets): whether its
    /// flag or deadline lands mid-solve depends on the wall clock, so the
    /// result gets the "host-dependent, never memoize" treatment
    /// downstream.
    pub deadline_hit: bool,
    /// Cooperative cancellation, with the caller's deadline if any.
    pub cancel: swp_obs::CancelToken,
    work_since_poll: u64,
}

impl Budget {
    pub(crate) fn new(pivot_limit: u64, cancel: swp_obs::CancelToken) -> Budget {
        Budget {
            pivot_limit,
            pivots: 0,
            deadline_hit: false,
            cancel,
            work_since_poll: 0,
        }
    }

    pub(crate) fn unlimited() -> Budget {
        Budget::new(u64::MAX, swp_obs::CancelToken::never())
    }

    /// Whether no further pivoting is allowed.
    pub(crate) fn exhausted(&self) -> bool {
        self.deadline_hit || self.pivots >= self.pivot_limit
    }

    /// Check the cancel token right now (node-granularity poll).
    pub(crate) fn poll(&mut self) -> bool {
        self.deadline_hit = self.deadline_hit || self.cancel.is_cancelled();
        self.deadline_hit
    }

    /// Account one pivot of roughly `work` array cells. Returns `false`
    /// when the budget is spent and the solve must stop.
    fn step(&mut self, work: u64) -> bool {
        self.pivots += 1;
        if self.pivots >= self.pivot_limit {
            return false;
        }
        if self.cancel.is_real() {
            self.work_since_poll = self.work_since_poll.saturating_add(work);
            if self.work_since_poll >= POLL_WORK {
                self.work_since_poll = 0;
                return !self.poll();
            }
        }
        true
    }
}

/// Where a variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic,
    Lower,
    Upper,
}

/// How a simplex loop ended.
enum End {
    Done,
    Infeasible,
    Unbounded,
    Limit,
}

/// A persistent revised-simplex solver for one [`Model`].
///
/// Built once per branch-and-bound tree; every call to [`LpEngine::solve`]
/// re-solves under new variable bounds starting from the previous basis.
/// Because bound changes do not disturb dual feasibility, re-solves after
/// a branch normally need only a few dual pivots.
pub struct LpEngine {
    n: usize,
    m: usize,
    nnz: usize,
    // Structural columns of the kept (non-singleton) rows, CSC.
    col_start: Vec<usize>,
    col_row: Vec<usize>,
    col_val: Vec<f64>,
    // The same matrix by rows, CSR, columns ascending within each row:
    // the dual ratio test's pivot row is built from it.
    row_start: Vec<usize>,
    row_col: Vec<usize>,
    row_val: Vec<f64>,
    /// Costs in minimization sense (flipped for maximize models), with a
    /// tiny deterministic anti-degeneracy perturbation folded in; slack
    /// columns carry pure perturbation. Pricing only — reported
    /// objectives come from `objective`.
    cost: Vec<f64>,
    /// Original objective terms (model sense) for reporting.
    objective: Vec<(usize, f64)>,
    rhs: Vec<f64>,
    /// Bounds implied by singleton rows, folded out of the row set.
    ctx_lo: Vec<f64>,
    ctx_hi: Vec<f64>,
    slack_lo: Vec<f64>,
    slack_hi: Vec<f64>,
    /// An empty row was contradictory: every solve is infeasible.
    contradiction: bool,
    // ---- warm state, persists across solves ----
    lo: Vec<f64>,
    hi: Vec<f64>,
    stat: Vec<VStat>,
    basis: Vec<usize>,
    /// Dense row-major `B⁻¹`.
    binv: Vec<f64>,
    x: Vec<f64>,
    updates: u32,
    fresh: bool,
    /// `y` and every `dj` are exact for the current basis and `B⁻¹`.
    /// Cleared by every pivot, refactorization and basis reset; a bound
    /// flip keeps it, since reduced costs do not depend on which bound a
    /// nonbasic variable rests at.
    priced: bool,
    /// Objective cutoff (internal minimization sense); see [`Self::set_cutoff`].
    cutoff: Option<f64>,
    // ---- work counters (lifetime of the engine, read by B&B telemetry) ----
    refactorizations: u64,
    bound_flips: u64,
    // ---- scratch ----
    alpha: Vec<f64>,
    rho: Vec<f64>,
    /// `ρ · A_j` for every structural column `j`: the dual pivot row.
    pivot_row: Vec<f64>,
    y: Vec<f64>,
    dj: Vec<f64>,
    work: Vec<f64>,
    /// `c_B`, the costs of the basic variables in basis order.
    cost_b: Vec<f64>,
    /// `B⁻¹ w` in basis order, before it is scattered into `x`.
    x_b: Vec<f64>,
    fmat: Vec<f64>,
    /// Test hook: keep Dantzig pricing even through degenerate stalls, to
    /// demonstrate that classic cycling examples really cycle without the
    /// Bland fallback.
    #[cfg(test)]
    pub(crate) disable_anti_cycling: bool,
}

impl LpEngine {
    /// Build an engine for `model`. Singleton rows become context bounds;
    /// everything else becomes a sparse row with one bounded slack.
    pub fn new(model: &Model) -> LpEngine {
        let n = model.vars.len();
        let mut ctx_lo = vec![f64::NEG_INFINITY; n];
        let mut ctx_hi = vec![f64::INFINITY; n];
        let mut contradiction = false;
        let mut kept = Vec::new();
        for c in &model.constraints {
            match c.terms.len() {
                0 => {
                    contradiction |= match c.op {
                        ConstraintOp::Le => c.rhs < -FEAS_EPS,
                        ConstraintOp::Ge => c.rhs > FEAS_EPS,
                        ConstraintOp::Eq => c.rhs.abs() > FEAS_EPS,
                    };
                }
                1 => {
                    let (v, a) = c.terms[0];
                    let j = v.index();
                    let b = c.rhs / a;
                    let (tightens_lo, tightens_hi) = match (c.op, a > 0.0) {
                        (ConstraintOp::Eq, _) => (true, true),
                        (ConstraintOp::Le, true) | (ConstraintOp::Ge, false) => (false, true),
                        (ConstraintOp::Ge, true) | (ConstraintOp::Le, false) => (true, false),
                    };
                    if tightens_lo {
                        ctx_lo[j] = ctx_lo[j].max(b);
                    }
                    if tightens_hi {
                        ctx_hi[j] = ctx_hi[j].min(b);
                    }
                }
                _ => kept.push(c),
            }
        }
        let m = kept.len();
        let mut count = vec![0usize; n];
        for c in &kept {
            for &(v, _) in &c.terms {
                count[v.index()] += 1;
            }
        }
        let mut col_start = vec![0usize; n + 1];
        for j in 0..n {
            col_start[j + 1] = col_start[j] + count[j];
        }
        let nnz = col_start[n];
        let mut col_row = vec![0usize; nnz];
        let mut col_val = vec![0.0f64; nnz];
        let mut cursor = col_start.clone();
        for (i, c) in kept.iter().enumerate() {
            for &(v, a) in &c.terms {
                let j = v.index();
                col_row[cursor[j]] = i;
                col_val[cursor[j]] = a;
                cursor[j] += 1;
            }
        }
        // CSR by a column-order sweep of the CSC arrays, so every row's
        // entries come out sorted by column.
        let mut row_start = vec![0usize; m + 1];
        for &i in &col_row {
            row_start[i + 1] += 1;
        }
        for i in 0..m {
            row_start[i + 1] += row_start[i];
        }
        let mut row_col = vec![0usize; nnz];
        let mut row_val = vec![0.0f64; nnz];
        let mut cursor = row_start.clone();
        for j in 0..n {
            for idx in col_start[j]..col_start[j + 1] {
                let i = col_row[idx];
                row_col[cursor[i]] = j;
                row_val[cursor[i]] = col_val[idx];
                cursor[i] += 1;
            }
        }
        let rhs: Vec<f64> = kept.iter().map(|c| c.rhs).collect();
        let mut slack_lo = vec![0.0f64; m];
        let mut slack_hi = vec![0.0f64; m];
        for (i, c) in kept.iter().enumerate() {
            match c.op {
                ConstraintOp::Le => slack_hi[i] = f64::INFINITY,
                ConstraintOp::Ge => slack_lo[i] = f64::NEG_INFINITY,
                ConstraintOp::Eq => {}
            }
        }
        let flip = if model.sense == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        let total = n + m;
        let mut cost = vec![0.0f64; total];
        let mut objective = Vec::with_capacity(model.objective.len());
        for &(v, c) in &model.objective {
            cost[v.index()] += flip * c;
            objective.push((v.index(), c));
        }
        // Anti-degeneracy guard: scheduling models carry large blocks of
        // zero-cost columns, which tie every dual ratio test and Dantzig
        // price at zero and degrade both simplex loops to an index-order
        // crawl. A tiny deterministic perturbation (SplitMix64 of the
        // column index) gives every column — slacks included — a distinct
        // reduced cost. It only steers pivot choice: reported objectives
        // are computed from `objective`, never from `cost`.
        let maxc = cost.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
        let scale = 1e-9 * (1.0 + maxc);
        for (j, c) in cost.iter_mut().enumerate() {
            let mut z = (j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let xi = (z >> 11) as f64 / (1u64 << 53) as f64;
            *c += scale * (0.5 + xi);
        }
        let mut binv = vec![0.0f64; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        let mut stat = vec![VStat::Lower; total];
        for s in stat.iter_mut().skip(n) {
            *s = VStat::Basic;
        }
        LpEngine {
            n,
            m,
            nnz,
            col_start,
            col_row,
            col_val,
            row_start,
            row_col,
            row_val,
            cost,
            objective,
            rhs,
            ctx_lo,
            ctx_hi,
            slack_lo,
            slack_hi,
            contradiction,
            lo: vec![0.0; total],
            hi: vec![0.0; total],
            stat,
            basis: (n..total).collect(),
            binv,
            x: vec![0.0; total],
            updates: 0,
            fresh: true,
            priced: false,
            cutoff: None,
            refactorizations: 0,
            bound_flips: 0,
            alpha: vec![0.0; m],
            rho: vec![0.0; m],
            pivot_row: vec![0.0; n],
            y: vec![0.0; m],
            dj: vec![0.0; total],
            work: vec![0.0; m],
            cost_b: vec![0.0; m],
            x_b: vec![0.0; m],
            fmat: vec![0.0; m * m],
            #[cfg(test)]
            disable_anti_cycling: false,
        }
    }

    /// Number of non-singleton rows the engine actually pivots on.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Total `B⁻¹` refactorizations over the engine's lifetime.
    pub fn refactorizations(&self) -> u64 {
        self.refactorizations
    }

    /// Total dual-repair bound flips over the engine's lifetime.
    pub fn bound_flips(&self) -> u64 {
        self.bound_flips
    }

    /// Solve under the given per-variable bounds with no budget.
    pub fn solve(&mut self, lower: &[f64], upper: &[f64]) -> LpOutcome {
        self.solve_budgeted(lower, upper, &mut Budget::unlimited())
    }

    /// Install an objective cutoff (internal minimization sense) for
    /// subsequent solves, or clear it with `None`. A dual-simplex run
    /// whose objective — a valid lower bound at every dual-feasible
    /// basis — exceeds the cutoff by a safety margin stops early and
    /// reports the node infeasible-for-our-purposes, sparing the pivots
    /// a full solve of a doomed branch-and-bound node would cost.
    pub fn set_cutoff(&mut self, cutoff: Option<f64>) {
        self.cutoff = cutoff;
    }

    /// Solve under the given bounds, charging pivots to `budget`.
    pub(crate) fn solve_budgeted(
        &mut self,
        lower: &[f64],
        upper: &[f64],
        budget: &mut Budget,
    ) -> LpOutcome {
        debug_assert_eq!(lower.len(), self.n);
        debug_assert_eq!(upper.len(), self.n);
        if self.contradiction {
            return LpOutcome::Infeasible;
        }
        for j in 0..self.n {
            let l = lower[j].max(self.ctx_lo[j]);
            let u = upper[j].min(self.ctx_hi[j]);
            if l > u + FEAS_EPS {
                return LpOutcome::Infeasible;
            }
            self.lo[j] = l;
            self.hi[j] = u.max(l);
        }
        for i in 0..self.m {
            self.lo[self.n + i] = self.slack_lo[i];
            self.hi[self.n + i] = self.slack_hi[i];
        }
        // Re-seat nonbasic variables resting on a bound that no longer
        // exists (or everything, on the first solve).
        for j in 0..self.n + self.m {
            let reseat = match self.stat[j] {
                VStat::Basic => false,
                _ if self.fresh => true,
                VStat::Lower => !self.lo[j].is_finite(),
                VStat::Upper => !self.hi[j].is_finite(),
            };
            if reseat {
                self.seat(j);
            }
        }
        self.fresh = false;
        self.compute_x();
        match self.optimize(budget) {
            End::Done => LpOutcome::Optimal(self.extract()),
            End::Infeasible => LpOutcome::Infeasible,
            End::Unbounded => LpOutcome::Unbounded,
            End::Limit => LpOutcome::IterLimit,
        }
    }

    /// Rest `j` on its dual-feasible side where possible.
    fn seat(&mut self, j: usize) {
        let c = self.cost[j];
        self.stat[j] = match (self.lo[j].is_finite(), self.hi[j].is_finite()) {
            (true, true) => {
                if c < 0.0 {
                    VStat::Upper
                } else {
                    VStat::Lower
                }
            }
            (true, false) => VStat::Lower,
            (false, true) => VStat::Upper,
            (false, false) => VStat::Lower,
        };
    }

    /// Drive the current basis to a primal- and dual-feasible point.
    fn optimize(&mut self, budget: &mut Budget) -> End {
        for _round in 0..6 {
            self.price();
            let (pf, df) = (self.primal_feasible(), self.dual_feasible());
            let end = match (pf, df) {
                (true, true) => return End::Done,
                (false, true) => self.dual_simplex(budget, false),
                (true, false) => self.primal_simplex(budget),
                // Both broken: first try to repair dual feasibility by
                // bound flips alone — a nonbasic variable's reduced cost
                // does not depend on which bound it rests at, so moving
                // wrong-sign variables to their other finite bound fixes
                // the duals with zero pivots and hands a warm basis to
                // the dual simplex. (Backtracking in branch-and-bound
                // relaxes bounds and routinely lands here.) Phase 1 — a
                // dual simplex with zero costs, for which any basis is
                // dual feasible — remains the fallback when a wrong-sign
                // variable has no opposite finite bound.
                (false, false) => {
                    if self.dual_repair() {
                        self.dual_simplex(budget, false)
                    } else {
                        match self.dual_simplex(budget, true) {
                            End::Done => self.primal_simplex(budget),
                            e => e,
                        }
                    }
                }
            };
            match end {
                End::Done => {} // re-verify both conditions
                e => return e,
            }
        }
        End::Limit
    }

    /// Reduced costs for every column: `dj = c − yᵀA`, `y = c_B ᵀB⁻¹`.
    /// A no-op while `priced` says they are already exact.
    fn price(&mut self) {
        if self.priced {
            return;
        }
        self.compute_y();
        for j in 0..self.n + self.m {
            self.dj[j] = self.reduced_cost(j);
        }
        self.priced = true;
    }

    /// The simplex multipliers `y = c_B ᵀB⁻¹`, alone.
    fn compute_y(&mut self) {
        for (c, &b) in self.cost_b.iter_mut().zip(&self.basis) {
            *c = self.cost[b];
        }
        combine_rows(&mut self.y, &self.binv, &self.cost_b);
    }

    /// `dj = c_j − yᵀA_j` from the current `y`, in [`Self::price`]'s
    /// order, so an on-demand value has the bits of a full pass.
    fn reduced_cost(&self, j: usize) -> f64 {
        if j < self.n {
            let mut d = self.cost[j];
            for idx in self.col_start[j]..self.col_start[j + 1] {
                d -= self.y[self.col_row[idx]] * self.col_val[idx];
            }
            d
        } else {
            self.cost[j] - self.y[j - self.n]
        }
    }

    /// Flip dual-infeasible nonbasic variables to their other bound.
    /// Requires fresh `dj` (a `price` call). Returns whether every dual
    /// infeasibility was repairable (i.e. the other bound was finite).
    fn dual_repair(&mut self) -> bool {
        let mut flipped = false;
        let mut ok = true;
        for j in 0..self.n + self.m {
            if self.hi[j] - self.lo[j] <= EPS {
                continue;
            }
            match self.stat[j] {
                VStat::Basic => {}
                VStat::Lower if self.dj[j] < -DUAL_EPS => {
                    if self.hi[j].is_finite() {
                        self.stat[j] = VStat::Upper;
                        self.bound_flips += 1;
                        flipped = true;
                    } else {
                        ok = false;
                    }
                }
                VStat::Upper if self.dj[j] > DUAL_EPS => {
                    if self.lo[j].is_finite() {
                        self.stat[j] = VStat::Lower;
                        self.bound_flips += 1;
                        flipped = true;
                    } else {
                        ok = false;
                    }
                }
                _ => {}
            }
        }
        if flipped {
            self.compute_x();
        }
        ok
    }

    fn primal_feasible(&self) -> bool {
        (0..self.m).all(|i| {
            let b = self.basis[i];
            self.x[b] >= self.lo[b] - FEAS_EPS && self.x[b] <= self.hi[b] + FEAS_EPS
        })
    }

    fn dual_feasible(&self) -> bool {
        (0..self.n + self.m).all(|j| {
            if self.hi[j] - self.lo[j] <= EPS {
                return true; // fixed: can never move
            }
            match self.stat[j] {
                VStat::Basic => true,
                VStat::Lower => self.dj[j] >= -DUAL_EPS,
                VStat::Upper => self.dj[j] <= DUAL_EPS,
            }
        })
    }

    fn anti_cycling_off(&self) -> bool {
        #[cfg(test)]
        {
            self.disable_anti_cycling
        }
        #[cfg(not(test))]
        {
            false
        }
    }

    fn per_solve_cap(&self) -> u64 {
        2000 + 200 * (self.n + 2 * self.m) as u64
    }

    fn pivot_work(&self) -> u64 {
        (3 * self.m * self.m + 2 * self.nnz + 64) as u64
    }

    /// Dual simplex: from a dual-feasible basis, drive out primal bound
    /// violations. With `zero_costs` this is Phase 1 (everything is dual
    /// feasible for `c = 0`, so only the sign-eligibility rules apply).
    fn dual_simplex(&mut self, budget: &mut Budget, zero_costs: bool) -> End {
        let (n, m) = (self.n, self.m);
        // Phase 1 earns only a short leash: it runs when a node's basis
        // was too damaged to repair, and on adversarial nodes it can
        // wander for tens of thousands of pivots — enough to
        // drain the whole tree's budget proving one subtree infeasible.
        // Hitting the cap abandons just that subtree (`End::Limit`).
        let cap = if zero_costs {
            4 * m as u64 + 200
        } else {
            self.per_solve_cap()
        };
        for _iter in 0..cap {
            // Objective cutoff: at a dual-feasible basis the (perturbed)
            // objective is a lower bound on this node's optimum, so once
            // it clears the incumbent by a margin that swallows the
            // perturbation there is nothing here worth finding. Zero-cost
            // phase 1 carries no bound and is exempt.
            if !zero_costs {
                if let Some(cut) = self.cutoff {
                    let z: f64 = (0..n + m)
                        .filter(|&j| self.x[j] != 0.0)
                        .map(|j| self.cost[j] * self.x[j])
                        .sum();
                    if z >= cut + 0.5 {
                        return End::Infeasible;
                    }
                }
            }
            // Leaving row: worst bound violation.
            let mut row = usize::MAX;
            let mut worst = FEAS_EPS;
            for i in 0..m {
                let b = self.basis[i];
                let v = if self.x[b] < self.lo[b] - FEAS_EPS {
                    self.lo[b] - self.x[b]
                } else if self.x[b] > self.hi[b] + FEAS_EPS {
                    self.x[b] - self.hi[b]
                } else {
                    continue;
                };
                if v > worst {
                    worst = v;
                    row = i;
                }
            }
            if row == usize::MAX {
                return End::Done;
            }
            let leave = self.basis[row];
            let below = self.x[leave] < self.lo[leave];
            self.rho.copy_from_slice(&self.binv[row * m..(row + 1) * m]);
            self.compute_pivot_row();
            // Entering column: dual ratio test over sign-eligible
            // nonbasics. Near-ties (ubiquitous when whole cost blocks are
            // zero) are broken by the largest pivot magnitude — taking the
            // steepest column instead of the lowest index turns phase 1
            // from an index-order crawl into a handful of real steps.
            // Price on demand: `y` is formed at the first eligible column
            // (a full price that still holds for this basis leaves it
            // exact already), and each eligible column's `dj` is computed
            // from it in `price`'s order.
            let mut need_y = !zero_costs && !self.priced;
            let mut enter = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut best_piv = 0.0f64;
            for j in 0..n + m {
                let a = if j < n {
                    self.pivot_row[j]
                } else {
                    self.rho[j - n]
                };
                if a.abs() <= EPS {
                    continue; // the common case: ρᵀA is sparse
                }
                let eligible = match self.stat[j] {
                    VStat::Basic => false,
                    VStat::Lower if below => a < -EPS,
                    VStat::Lower => a > EPS,
                    VStat::Upper if below => a > EPS,
                    VStat::Upper => a < -EPS,
                };
                if !eligible || self.hi[j] - self.lo[j] <= EPS {
                    continue;
                }
                if need_y {
                    self.compute_y();
                    need_y = false;
                }
                // Zero-cost phase 1 has every reduced cost at zero.
                let dj = if zero_costs {
                    0.0
                } else {
                    self.reduced_cost(j)
                };
                let ratio = (dj / a).abs();
                let tol = 1e-9 * (1.0 + best_ratio.min(1e30));
                let better = enter == usize::MAX
                    || ratio < best_ratio - tol
                    || (ratio <= best_ratio + tol && a.abs() > best_piv);
                if better {
                    best_ratio = best_ratio.min(ratio);
                    best_piv = a.abs();
                    enter = j;
                }
            }
            if enter == usize::MAX {
                // No column can push the row back inside its bounds: the
                // primal problem is infeasible (bounded-variable dual
                // simplex infeasibility certificate, costs irrelevant).
                return End::Infeasible;
            }
            self.compute_alpha(enter);
            let piv = self.alpha[row];
            if piv.abs() < 1e-8 {
                // B⁻¹ drifted: the pivot-row estimate and the recomputed
                // column disagree. Refactorize once and retry.
                if self.updates > 0 {
                    self.refactor();
                    continue;
                }
                return End::Limit;
            }
            let target = if below {
                self.lo[leave]
            } else {
                self.hi[leave]
            };
            let delta = self.x[leave] - target;
            let dq = delta / piv;
            for i in 0..m {
                let a = self.alpha[i];
                if a != 0.0 {
                    self.x[self.basis[i]] -= a * dq;
                }
            }
            self.x[enter] += dq;
            self.x[leave] = target;
            self.stat[enter] = VStat::Basic;
            self.stat[leave] = if below { VStat::Lower } else { VStat::Upper };
            self.basis[row] = enter;
            self.update_binv(row);
            if !budget.step(self.pivot_work()) {
                return End::Limit;
            }
        }
        End::Limit
    }

    /// Primal simplex with bounded variables (Dantzig pricing, bound
    /// flips, Bland fallback on degenerate stalls).
    fn primal_simplex(&mut self, budget: &mut Budget) -> End {
        let (n, m) = (self.n, self.m);
        let mut bland = false;
        let mut stall: u32 = 0;
        for _iter in 0..self.per_solve_cap() {
            self.price();
            let mut enter = usize::MAX;
            let mut best = DUAL_EPS;
            for j in 0..n + m {
                if self.stat[j] == VStat::Basic || self.hi[j] - self.lo[j] <= EPS {
                    continue;
                }
                let viol = match self.stat[j] {
                    VStat::Lower => -self.dj[j],
                    VStat::Upper => self.dj[j],
                    VStat::Basic => unreachable!(),
                };
                if viol > DUAL_EPS {
                    if bland {
                        enter = j;
                        break;
                    }
                    if viol > best {
                        best = viol;
                        enter = j;
                    }
                }
            }
            if enter == usize::MAX {
                return End::Done;
            }
            let dir = if self.stat[enter] == VStat::Lower {
                1.0
            } else {
                -1.0
            };
            self.compute_alpha(enter);
            // Ratio test: first basic variable to hit a bound, or the
            // entering variable's own opposite bound (a bound flip).
            let range = self.hi[enter] - self.lo[enter];
            let mut t_piv = f64::INFINITY;
            let mut leave_row = usize::MAX;
            for i in 0..m {
                let a = self.alpha[i] * dir;
                let b = self.basis[i];
                let room = if a > EPS {
                    if !self.lo[b].is_finite() {
                        continue;
                    }
                    self.x[b] - self.lo[b]
                } else if a < -EPS {
                    if !self.hi[b].is_finite() {
                        continue;
                    }
                    self.hi[b] - self.x[b]
                } else {
                    continue;
                };
                let t = room.max(0.0) / a.abs();
                let replace = t < t_piv - 1e-12
                    || (t < t_piv + 1e-12 && leave_row != usize::MAX && b < self.basis[leave_row]);
                if leave_row == usize::MAX || replace {
                    t_piv = t;
                    leave_row = i;
                }
            }
            if leave_row == usize::MAX && !range.is_finite() {
                return End::Unbounded;
            }
            if leave_row == usize::MAX || range < t_piv - 1e-12 {
                // Bound flip: the entering variable crosses to its other
                // bound before any basic variable blocks.
                let dq = dir * range;
                for i in 0..m {
                    let a = self.alpha[i];
                    if a != 0.0 {
                        self.x[self.basis[i]] -= a * dq;
                    }
                }
                self.stat[enter] = if dir > 0.0 {
                    VStat::Upper
                } else {
                    VStat::Lower
                };
                self.x[enter] = if dir > 0.0 {
                    self.hi[enter]
                } else {
                    self.lo[enter]
                };
                stall = 0; // a flip moves by the full (positive) range
                if !budget.step((2 * m + 64) as u64) {
                    return End::Limit;
                }
                continue;
            }
            let t = t_piv.max(0.0);
            let dq = dir * t;
            for i in 0..m {
                let a = self.alpha[i];
                if a != 0.0 {
                    self.x[self.basis[i]] -= a * dq;
                }
            }
            self.x[enter] += dq;
            let leave = self.basis[leave_row];
            let hits_lower = self.alpha[leave_row] * dir > 0.0;
            self.x[leave] = if hits_lower {
                self.lo[leave]
            } else {
                self.hi[leave]
            };
            self.stat[leave] = if hits_lower {
                VStat::Lower
            } else {
                VStat::Upper
            };
            self.stat[enter] = VStat::Basic;
            self.basis[leave_row] = enter;
            self.update_binv(leave_row);
            if t <= 1e-10 {
                stall += 1;
            } else {
                stall = 0;
            }
            if stall > STALL_LIMIT && !self.anti_cycling_off() {
                bland = true;
            }
            if !budget.step(self.pivot_work()) {
                return End::Limit;
            }
        }
        End::Limit
    }

    /// `ρ · A_j` for every structural `j` into `self.pivot_row`, by
    /// scattering only the rows with `ρ_i ≠ 0`, in ascending row order.
    /// Each entry sums its products in the order of a dot product down
    /// column `j`; the skipped terms are `±0.0`, which cannot change a
    /// sum that starts at `+0.0`, so the bits are those of that dot
    /// product.
    fn compute_pivot_row(&mut self) {
        self.pivot_row.fill(0.0);
        for i in 0..self.m {
            let r = self.rho[i];
            if r != 0.0 {
                for idx in self.row_start[i]..self.row_start[i + 1] {
                    self.pivot_row[self.row_col[idx]] += r * self.row_val[idx];
                }
            }
        }
    }

    /// `α = B⁻¹ A_j` into `self.alpha`.
    fn compute_alpha(&mut self, j: usize) {
        let m = self.m;
        if j < self.n {
            let col = self.col_start[j]..self.col_start[j + 1];
            for i in 0..m {
                let row = &self.binv[i * m..(i + 1) * m];
                let mut s = 0.0;
                for idx in col.clone() {
                    s += row[self.col_row[idx]] * self.col_val[idx];
                }
                self.alpha[i] = s;
            }
        } else {
            let r = j - self.n;
            for i in 0..m {
                self.alpha[i] = self.binv[i * m + r];
            }
        }
    }

    /// Rank-1 product-form update of `B⁻¹` after `alpha`'s column entered
    /// at `row`; refactorizes periodically to cap drift.
    fn update_binv(&mut self, row: usize) {
        let m = self.m;
        self.priced = false;
        let inv = 1.0 / self.alpha[row];
        for k in 0..m {
            self.binv[row * m + k] *= inv;
        }
        for i in 0..m {
            if i == row {
                continue;
            }
            let f = self.alpha[i];
            if f.abs() > 1e-13 {
                sub_row(&mut self.binv, m, i, row, 0, f);
            }
        }
        self.updates += 1;
        if self.updates >= REFACTOR_EVERY {
            self.refactor();
        }
    }

    /// Recompute `B⁻¹` from scratch (Gauss-Jordan with partial pivoting)
    /// and refresh `x`. A singular basis resets to the all-slack basis — a
    /// cold but always-valid restart.
    fn refactor(&mut self) {
        self.refactorizations += 1;
        self.priced = false;
        let m = self.m;
        self.fmat.iter_mut().for_each(|v| *v = 0.0);
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n {
                for idx in self.col_start[b]..self.col_start[b + 1] {
                    self.fmat[self.col_row[idx] * m + i] = self.col_val[idx];
                }
            } else {
                self.fmat[(b - self.n) * m + i] = 1.0;
            }
        }
        self.binv.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        let mut singular = false;
        for k in 0..m {
            let mut p = k;
            let mut best = self.fmat[k * m + k].abs();
            for r in k + 1..m {
                let v = self.fmat[r * m + k].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-10 {
                singular = true;
                break;
            }
            // Columns `< k` of `fmat` are never read again, and column `k`
            // not after its pivot and multipliers are read: the swap skips
            // the former, the scaling and the elimination both.
            if p != k {
                for c in k..m {
                    self.fmat.swap(p * m + c, k * m + c);
                }
                for c in 0..m {
                    self.binv.swap(p * m + c, k * m + c);
                }
            }
            let inv = 1.0 / self.fmat[k * m + k];
            for c in k + 1..m {
                self.fmat[k * m + c] *= inv;
            }
            for c in 0..m {
                self.binv[k * m + c] *= inv;
            }
            for r in 0..m {
                if r == k {
                    continue;
                }
                let f = self.fmat[r * m + k];
                if f != 0.0 {
                    sub_row(&mut self.fmat, m, r, k, k + 1, f);
                    sub_row(&mut self.binv, m, r, k, 0, f);
                }
            }
        }
        if singular {
            self.reset_basis();
            return;
        }
        self.updates = 0;
        self.compute_x();
    }

    fn reset_basis(&mut self) {
        let (n, m) = (self.n, self.m);
        self.priced = false;
        for j in 0..n + m {
            if self.stat[j] == VStat::Basic {
                self.stat[j] = VStat::Lower;
                self.seat(j);
            }
        }
        for i in 0..m {
            self.basis[i] = n + i;
            self.stat[n + i] = VStat::Basic;
        }
        self.binv.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
        }
        self.updates = 0;
        self.compute_x();
    }

    /// Nonbasic resting value of `j`.
    fn nb_value(&self, j: usize) -> f64 {
        match self.stat[j] {
            VStat::Lower => {
                if self.lo[j].is_finite() {
                    self.lo[j]
                } else {
                    0.0
                }
            }
            VStat::Upper => {
                if self.hi[j].is_finite() {
                    self.hi[j]
                } else {
                    0.0
                }
            }
            VStat::Basic => self.x[j],
        }
    }

    /// Recompute every `x`: nonbasics at their bounds, `x_B = B⁻¹(b − N x_N)`.
    fn compute_x(&mut self) {
        let (n, m) = (self.n, self.m);
        for j in 0..n + m {
            if self.stat[j] != VStat::Basic {
                self.x[j] = self.nb_value(j);
            }
        }
        self.work.copy_from_slice(&self.rhs);
        for j in 0..n {
            if self.stat[j] == VStat::Basic {
                continue;
            }
            let v = self.x[j];
            if v != 0.0 {
                for idx in self.col_start[j]..self.col_start[j + 1] {
                    self.work[self.col_row[idx]] -= self.col_val[idx] * v;
                }
            }
        }
        for i in 0..m {
            let sj = n + i;
            if self.stat[sj] != VStat::Basic {
                self.work[i] -= self.x[sj];
            }
        }
        row_dots(&mut self.x_b, &self.binv, &self.work);
        for (&b, &v) in self.basis.iter().zip(&self.x_b) {
            self.x[b] = v;
        }
    }

    fn extract(&self) -> LpSolution {
        let mut values: Vec<f64> = self.x[..self.n].to_vec();
        for (j, v) in values.iter_mut().enumerate() {
            *v = v.clamp(self.lo[j], self.hi[j]);
        }
        let objective = self.objective.iter().map(|&(j, c)| c * values[j]).sum();
        LpSolution { objective, values }
    }
}

/// `mat[r][from..] -= f · mat[k][from..]` for distinct rows `r` and `k` of
/// a row-major matrix `m` wide.
fn sub_row(mat: &mut [f64], m: usize, r: usize, k: usize, from: usize, f: f64) {
    let (dst, src) = if r < k {
        let (head, tail) = mat.split_at_mut(k * m);
        (&mut head[r * m + from..(r + 1) * m], &tail[from..m])
    } else {
        let (head, tail) = mat.split_at_mut(r * m);
        (&mut tail[from..m], &head[k * m + from..(k + 1) * m])
    };
    sub_scaled(dst, src, f);
}

/// Solve the LP relaxation of `model` (integrality ignored, model bounds
/// respected).
pub fn solve_lp(model: &Model) -> LpOutcome {
    let lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();
    solve_lp_with_bounds(model, &lower, &upper)
}

/// One-shot solve with per-variable bounds overriding the model's. Cold:
/// builds a fresh [`LpEngine`]; branch-and-bound keeps its own engine warm
/// across nodes instead of calling this.
pub(crate) fn solve_lp_with_bounds(model: &Model, lower: &[f64], upper: &[f64]) -> LpOutcome {
    LpEngine::new(model).solve_budgeted(lower, upper, &mut Budget::unlimited())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn opt(o: LpOutcome) -> LpSolution {
        match o {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 2y st x + y <= 4, x + 3y <= 6 → x=4, y=0, obj 12.
        let mut m = Model::new(Sense::Maximize);
        let x = m.continuous("x");
        let y = m.continuous("y");
        m.set_objective([(x, 3.0), (y, 2.0)]);
        m.add_le([(x, 1.0), (y, 1.0)], 4.0);
        m.add_le([(x, 1.0), (y, 3.0)], 6.0);
        let s = opt(solve_lp(&m));
        assert!((s.objective - 12.0).abs() < 1e-6);
        assert!((s.values[x.index()] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y st x + y = 3, x >= 1 → obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous("x");
        let y = m.continuous("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        m.add_eq([(x, 1.0), (y, 1.0)], 3.0);
        m.add_ge([(x, 1.0)], 1.0);
        let s = opt(solve_lp(&m));
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!(s.values[x.index()] >= 1.0 - 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous("x");
        m.add_le([(x, 1.0)], 1.0);
        m.add_ge([(x, 1.0)], 2.0);
        assert_eq!(solve_lp(&m), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.continuous("x");
        m.set_objective([(x, 1.0)]);
        m.add_ge([(x, 1.0)], 0.0);
        assert_eq!(solve_lp(&m), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x - y <= -2 with x,y>=0: y >= x + 2; min y → y=2 at x=0.
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous("x");
        let y = m.continuous("y");
        m.set_objective([(y, 1.0)]);
        m.add_le([(x, 1.0), (y, -1.0)], -2.0);
        let s = opt(solve_lp(&m));
        assert!((s.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn binary_bound_respected_in_relaxation() {
        // max x with x binary: relaxation caps at 1 (context bound).
        let mut m = Model::new(Sense::Maximize);
        let x = m.binary("x");
        m.set_objective([(x, 1.0)]);
        let s = opt(solve_lp(&m));
        assert!((s.values[x.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = Model::new(Sense::Maximize);
        let x = m.continuous("x");
        let y = m.continuous("y");
        m.set_objective([(x, 1.0), (y, 1.0)]);
        for k in 1..20 {
            m.add_le([(x, 1.0), (y, k as f64)], k as f64);
        }
        let s = opt(solve_lp(&m));
        assert!(s.objective <= 2.0 + 1e-6);
    }

    #[test]
    fn fixed_variables_substituted() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary("x");
        let y = m.continuous("y");
        m.set_objective([(y, 1.0)]);
        m.add_ge([(x, 2.0), (y, 1.0)], 3.0);
        let s = opt(solve_lp_with_bounds(&m, &[1.0, 0.0], &[1.0, f64::INFINITY]));
        assert!((s.values[x.index()] - 1.0).abs() < 1e-9);
        assert!((s.values[y.index()] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn no_constraints_minimization() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous("x");
        m.set_objective([(x, 1.0)]);
        let s = opt(solve_lp(&m));
        assert_eq!(s.values[x.index()], 0.0);
    }

    /// Beale's classic cycling LP. Under pure Dantzig pricing with
    /// lowest-index tie-breaks the tableau revisits the same degenerate
    /// bases forever; the Bland fallback must break the cycle. The `x3 ≤ 1`
    /// row is written with an explicit surplus variable so it stays a row
    /// (a singleton would be folded into a bound and change the classic
    /// all-at-zero degenerate start).
    fn beale() -> Model {
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.continuous("x1");
        let x2 = m.continuous("x2");
        let x3 = m.continuous("x3");
        let x4 = m.continuous("x4");
        let x5 = m.continuous("x5");
        m.set_objective([(x1, -0.75), (x2, 150.0), (x3, -0.02), (x4, 6.0)]);
        m.add_le([(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        m.add_le([(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        m.add_le([(x3, 1.0), (x5, 1.0)], 1.0);
        m
    }

    #[test]
    fn beale_cycles_without_anti_cycling() {
        let m = beale();
        let lower = vec![0.0; 5];
        let upper = vec![f64::INFINITY; 5];
        let mut engine = LpEngine::new(&m);
        engine.disable_anti_cycling = true;
        let r = engine.solve_budgeted(&lower, &upper, &mut Budget::unlimited());
        assert_eq!(r, LpOutcome::IterLimit, "expected the classic cycle");
    }

    #[test]
    fn beale_solves_with_anti_cycling() {
        let s = opt(solve_lp(&beale()));
        assert!((s.objective - (-0.05)).abs() < 1e-9, "got {}", s.objective);
    }

    #[test]
    fn warm_resolve_tracks_bound_changes() {
        // min x + 2y st x + y >= 4: optimum (4, 0). Then force x <= 1:
        // warm dual re-solve must land on (1, 3).
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous("x");
        let y = m.continuous("y");
        m.set_objective([(x, 1.0), (y, 2.0)]);
        m.add_ge([(x, 1.0), (y, 1.0)], 4.0);
        let mut engine = LpEngine::new(&m);
        let inf = f64::INFINITY;
        let s1 = match engine.solve(&[0.0, 0.0], &[inf, inf]) {
            LpOutcome::Optimal(s) => s,
            o => panic!("cold: {o:?}"),
        };
        assert!((s1.objective - 4.0).abs() < 1e-6);
        let s2 = match engine.solve(&[0.0, 0.0], &[1.0, inf]) {
            LpOutcome::Optimal(s) => s,
            o => panic!("warm: {o:?}"),
        };
        assert!((s2.objective - 7.0).abs() < 1e-6);
        assert!((s2.values[x.index()] - 1.0).abs() < 1e-6);
        // And relaxing the bound again returns to the original optimum.
        let s3 = match engine.solve(&[0.0, 0.0], &[inf, inf]) {
            LpOutcome::Optimal(s) => s,
            o => panic!("relaxed: {o:?}"),
        };
        assert!((s3.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equality_heavy_phase1_terminates() {
        // MRT-style block: every op in exactly one slot (equality rows,
        // violated at the all-zero start), a σ variable tied to its slot
        // by another equality, slots capacity-limited, maximize Σσ. The σ
        // columns are unbounded above with negative internal cost, so the
        // initial basis is dual infeasible too — this drives the
        // zero-cost Phase-1 dual simplex and then the primal.
        let mut m = Model::new(Sense::Maximize);
        let mut a = vec![vec![]; 4];
        let mut sigma = vec![];
        for (i, row) in a.iter_mut().enumerate() {
            for t in 0..4 {
                row.push(m.binary(&format!("a{i}{t}")));
            }
            sigma.push(m.integer(&format!("s{i}")));
        }
        for (i, row) in a.iter().enumerate() {
            m.add_eq(row.iter().map(|&v| (v, 1.0)), 1.0);
            let mut link: Vec<_> = (0..4).map(|t| (row[t], -(t as f64))).collect();
            link.push((sigma[i], 1.0));
            m.add_eq(link, 0.0);
        }
        for t in 0..4 {
            m.add_le(a.iter().map(|row| (row[t], 1.0)), 1.0);
        }
        m.set_objective(sigma.iter().map(|&s| (s, 1.0)));
        let s = opt(solve_lp(&m));
        // Doubly-stochastic slot usage caps Σσ at 0+1+2+3.
        assert!((s.objective - 6.0).abs() < 1e-6, "got {}", s.objective);
    }
}
