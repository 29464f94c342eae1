//! Bit-identity tripwire for the simplex engine and branch and bound.
//!
//! The engine's speed work is held to one rule: the same pivots, the same
//! nodes, the same refactorizations, bound flips and solution bits. A
//! change that moves any of them is a change to the search, not to its
//! cost, and must re-bless every golden on purpose. This file folds the
//! full outcome of a fixed set of solves into one 64-bit digest pinned as
//! a literal, so any such move fails here first, in seconds.
//!
//! A digest of outcomes sees a change only once it moves a decision or a
//! value: an ulp of difference inside a reduced cost that moves no pivot
//! goes unseen here. That is why each dense kernel is also checked bit for
//! bit against its plain loop (`src/kernel.rs`).
//!
//! The inputs are chosen to drive every engine path: cold and warm LP
//! solves under a stream of bound changes (dual re-solves, dual repair by
//! bound flips, the zero-cost phase 1 and the primal loop), a degenerate
//! family and Beale's cycling LP (the Bland fallback), solves long enough
//! to refactorize `B⁻¹` more than once, explicit objective cutoffs, and
//! budgeted 0/1 ILPs with and without a warm-start incumbent.
//!
//! Branch and bound prunes by one of two rules, chosen per model, so the
//! ILPs are digested twice. The first digest covers the engine and the
//! rule for objectives with fractional coefficients: its ILPs draw
//! fractional coefficients, so the search prunes a node only when its
//! bound cannot beat the incumbent at all. The second digest runs the same
//! ILP generator with every objective coefficient rounded to an integer,
//! so the search prunes a node that cannot beat the incumbent by a whole
//! unit and arms the engine's cutoff one unit below it.

use swp_ilp::{solve_ilp, LpEngine, LpOutcome, Model, Sense, SolveOptions, Status, VarId};

/// SplitMix64: one `u64` seed yields a whole random instance.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Rotate-xor-multiply fold over 64-bit words. Any change in any folded
/// word, or in their order, changes the result.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn lp(&mut self, outcome: &LpOutcome) {
        match outcome {
            LpOutcome::Optimal(s) => {
                self.word(1);
                self.word(s.objective.to_bits());
                self.word(s.values.len() as u64);
                for v in &s.values {
                    self.word(v.to_bits());
                }
            }
            LpOutcome::Infeasible => self.word(2),
            LpOutcome::Unbounded => self.word(3),
            LpOutcome::IterLimit => self.word(4),
        }
    }

    fn engine(&mut self, e: &LpEngine) {
        self.word(e.refactorizations());
        self.word(e.bound_flips());
    }
}

/// A random LP with mixed senses, row types and bound shapes: some columns
/// are unbounded above, so a maximizing cost can leave a wrong-sign column
/// that no bound flip repairs (the zero-cost phase 1).
fn random_lp(g: &mut Gen) -> (Model, Sense, Vec<f64>) {
    let n = 3 + g.below(22);
    let rows = 2 + g.below(14);
    let sense = if g.below(2) == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let vars: Vec<VarId> = (0..n).map(|j| m.continuous(&format!("x{j}"))).collect();
    m.set_objective(vars.iter().map(|&v| (v, g.range(-2.0, 5.0))));
    for _ in 0..rows {
        let k = 2 + g.below(n.min(8) - 1);
        let terms: Vec<_> = (0..k)
            .map(|_| (vars[g.below(n)], g.range(-4.0, 4.0)))
            .collect();
        let rhs = g.range(-6.0, 12.0);
        match g.below(4) {
            0 | 1 => m.add_le(terms, rhs),
            2 => m.add_ge(terms, rhs),
            _ => m.add_eq(terms, rhs),
        }
    }
    let upper = (0..n)
        .map(|_| {
            if g.below(3) == 0 {
                f64::INFINITY
            } else {
                g.range(0.5, 9.0)
            }
        })
        .collect();
    (m, sense, upper)
}

/// One warm engine through a stream of bound changes, branch-and-bound
/// style (tighten, then relax back), with a cutoff armed halfway.
fn lp_stream(d: &mut Digest, seed: u64) {
    let mut g = Gen(seed);
    let (model, sense, root_upper) = random_lp(&mut g);
    let n = model.num_vars();
    let mut engine = LpEngine::new(&model);
    let mut lower = vec![0.0; n];
    let mut upper = root_upper.clone();
    let root = engine.solve(&lower, &upper);
    d.lp(&root);
    for step in 0..12 {
        let j = g.below(n);
        match g.below(4) {
            0 => {
                lower[j] = 0.0;
                upper[j] = root_upper[j];
            }
            1 => upper[j] = g.range(0.0, 2.0),
            2 => lower[j] = g.range(0.0, 3.0).min(upper[j]),
            _ => {
                let v = g.range(0.0, 4.0).min(upper[j]);
                lower[j] = v;
                upper[j] = v;
            }
        }
        if step == 6 {
            // The cutoff is in the engine's minimization sense; set just
            // under the root optimum it stops tightened re-solves early.
            if let LpOutcome::Optimal(s) = &root {
                let internal = match sense {
                    Sense::Minimize => s.objective,
                    Sense::Maximize => -s.objective,
                };
                engine.set_cutoff(Some(internal - g.range(0.0, 1.0)));
            }
        }
        let out = engine.solve(&lower, &upper);
        d.lp(&out);
    }
    d.engine(&engine);
}

/// Many rows through one vertex: long runs of degenerate pivots.
fn degenerate(d: &mut Digest, seed: u64) {
    let mut g = Gen(seed);
    let n = 6 + g.below(6);
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<VarId> = (0..n).map(|j| m.continuous(&format!("x{j}"))).collect();
    m.set_objective(vars.iter().map(|&v| (v, g.range(0.5, 3.0))));
    for _ in 0..3 * n {
        let terms: Vec<_> = vars
            .iter()
            .map(|&v| (v, g.range(-1.0, 2.0).round()))
            .collect();
        m.add_le(terms, 0.0);
    }
    m.add_le(vars.iter().map(|&v| (v, 1.0)), 1.0);
    let mut engine = LpEngine::new(&m);
    let out = engine.solve(&vec![0.0; n], &vec![f64::INFINITY; n]);
    d.lp(&out);
    d.engine(&engine);
}

/// Beale's LP cycles under pure Dantzig pricing; only the Bland fallback
/// gets it out.
fn beale(d: &mut Digest) {
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<VarId> = (1..=5).map(|i| m.continuous(&format!("x{i}"))).collect();
    m.set_objective([(x[0], -0.75), (x[1], 150.0), (x[2], -0.02), (x[3], 6.0)]);
    m.add_le(
        [(x[0], 0.25), (x[1], -60.0), (x[2], -0.04), (x[3], 9.0)],
        0.0,
    );
    m.add_le(
        [(x[0], 0.5), (x[1], -90.0), (x[2], -0.02), (x[3], 3.0)],
        0.0,
    );
    m.add_le([(x[2], 1.0), (x[4], 1.0)], 1.0);
    let mut engine = LpEngine::new(&m);
    let out = engine.solve(&[0.0; 5], &[f64::INFINITY; 5]);
    d.lp(&out);
    d.engine(&engine);
}

/// A budgeted 0/1 ILP shaped like the scheduling models: every item in
/// exactly one of `t` slots, slot capacities, a knapsack side row, and an
/// integer "issue time" per item tied to its slot. With `warm` the search
/// starts from a feasible incumbent (armed cutoff from node one). With
/// `integral` every objective coefficient is rounded to an integer after
/// the same draws, so the objective is integral at every integral point.
fn ilp(d: &mut Digest, seed: u64, warm: bool, integral: bool) {
    let mut g = Gen(seed);
    let items = 4 + g.below(9);
    let slots = 3 + g.below(3);
    let mut m = Model::new(if g.below(2) == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    });
    let a: Vec<Vec<VarId>> = (0..items)
        .map(|i| (0..slots).map(|t| m.binary(&format!("a{i}_{t}"))).collect())
        .collect();
    let s: Vec<VarId> = (0..items).map(|i| m.integer(&format!("s{i}"))).collect();
    for i in 0..items {
        m.add_eq(a[i].iter().map(|&v| (v, 1.0)), 1.0);
        let mut link: Vec<_> = (0..slots).map(|t| (a[i][t], -(t as f64))).collect();
        link.push((s[i], 1.0));
        m.add_eq(link, 0.0);
    }
    let cap = (items as f64 / slots as f64).ceil() + g.below(2) as f64;
    for t in 0..slots {
        m.add_le(a.iter().map(|row| (row[t], 1.0)), cap);
    }
    // A knapsack over issue times, sized around the round-robin
    // placement's load: usually loose enough to admit it, sometimes not.
    let w: Vec<f64> = (0..items).map(|_| g.range(1.0, 5.0).round()).collect();
    let round_robin: f64 = (0..items).map(|i| w[i] * (i % slots) as f64).sum();
    m.add_le(
        (0..items).map(|i| (s[i], w[i])),
        round_robin + g.range(-2.0, 6.0),
    );
    let mut obj: Vec<(VarId, f64)> = s.iter().map(|&v| (v, g.range(0.5, 3.0))).collect();
    for row in &a {
        for &v in row {
            obj.push((v, g.range(-2.0, 2.0)));
        }
    }
    if integral {
        for (_, c) in &mut obj {
            *c = c.round();
        }
    }
    m.set_objective(obj);
    let warm_start = warm.then(|| {
        // Round-robin placement: within every slot's capacity; the solver
        // ignores it when it breaks the knapsack row.
        let mut v = vec![0.0; m.num_vars()];
        for i in 0..items {
            let t = i % slots;
            v[a[i][t].index()] = 1.0;
            v[s[i].index()] = t as f64;
        }
        v
    });
    let opts = SolveOptions {
        node_limit: 60 + g.below(400) as u64,
        pivot_limit: 400 + g.below(4_000) as u64,
        branch_groups: Some(a.clone()),
        branch_up_first: g.below(2) == 0,
        warm_start,
        ..SolveOptions::default()
    };
    let r = solve_ilp(&m, &opts);
    d.word(match r.status {
        Status::Optimal => 1,
        Status::Feasible => 2,
        Status::Infeasible => 3,
        Status::Unknown => 4,
    });
    d.word(r.nodes);
    d.word(r.pivots);
    d.word(r.refactorizations);
    d.word(r.bound_flips);
    match &r.solution {
        Some(sol) => {
            d.word(sol.objective.to_bits());
            for v in &sol.values {
                d.word(v.to_bits());
            }
        }
        None => d.word(u64::MAX),
    }
}

#[test]
fn engine_outcomes_are_bit_identical_to_the_pinned_digest() {
    let mut d = Digest(0);
    for seed in 0..300 {
        lp_stream(&mut d, seed);
    }
    for seed in 0..8 {
        degenerate(&mut d, 1_000 + seed);
    }
    beale(&mut d);
    for seed in 0..60 {
        ilp(&mut d, 2_000 + seed, seed % 2 == 1, false);
    }
    assert_eq!(
        d.0, 0x6928_e854_5980_2c1d,
        "the engine's pivots, counters or solution bits moved; this is a search change"
    );
}

#[test]
fn integral_objective_search_is_bit_identical_to_its_pinned_digest() {
    let mut d = Digest(0);
    for seed in 0..60 {
        ilp(&mut d, 2_000 + seed, seed % 2 == 1, true);
    }
    assert_eq!(
        d.0, 0x0b59_6515_4a09_3ab4,
        "the whole-unit pruning rule's nodes, pivots or solution bits moved; \
         this is a search change"
    );
}
