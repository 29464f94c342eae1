//! Pruning by whole units keeps the optimum of an integral objective.
//!
//! When every objective term sits on a binary or integer variable and has
//! an integral coefficient, every integral solution has an integral
//! objective, so branch and bound cuts off each node whose LP bound cannot
//! beat the incumbent by a whole unit. This file checks that rule against
//! brute-force enumeration: small random pure-integer ILPs in both senses,
//! solved on unlimited budgets with and without a warm start and an
//! objective floor, must reach the enumerated optimum with a feasible
//! solution. The warm start is the feasible point nearest the optimum
//! without reaching it, so a rule that also cut off a node whose bound is
//! exactly one unit better would return it instead.
//!
//! Two models fall outside the rule: one with a fractional objective
//! coefficient and one with a continuous objective variable. Each has an
//! optimum less than one unit better than its warm start, which the search
//! must still find.

use swp_ilp::{solve_ilp, IlpResult, Model, Sense, SolveOptions, Status, VarId};

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

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// One `Σ a·x ≤ rhs` (`le`) or `Σ a·x ≥ rhs` row over variable indices.
struct Row {
    terms: Vec<(usize, i64)>,
    le: bool,
    rhs: i64,
}

impl Row {
    fn holds(&self, x: &[i64]) -> bool {
        let lhs: i64 = self.terms.iter().map(|&(j, a)| a * x[j]).sum();
        if self.le {
            lhs <= self.rhs
        } else {
            lhs >= self.rhs
        }
    }
}

/// A small pure-integer ILP with integral coefficients everywhere, kept
/// in plain integers beside its [`Model`] so enumeration needs no solver.
struct Instance {
    upper: Vec<i64>,
    cost: Vec<i64>,
    rows: Vec<Row>,
}

impl Instance {
    fn random(seed: u64) -> Instance {
        let mut g = Gen(seed);
        let n = 2 + g.below(5);
        // Binaries carry upper bound 1; general integers 2 or 3.
        let upper: Vec<i64> = (0..n)
            .map(|_| if g.below(2) == 0 { 1 } else { g.int(2, 3) })
            .collect();
        let cost = (0..n).map(|_| g.int(-4, 6)).collect();
        let rows = (0..1 + g.below(5))
            .map(|_| {
                let k = 2 + g.below(n - 1);
                let terms = (0..k).map(|_| (g.below(n), g.int(-3, 5))).collect();
                let le = g.below(3) != 0;
                let rhs = if le { g.int(2, 12) } else { g.int(-2, 5) };
                Row { terms, le, rhs }
            })
            .collect();
        Instance { upper, cost, rows }
    }

    fn model(&self, sense: Sense) -> Model {
        let mut m = Model::new(sense);
        let vars: Vec<VarId> = self
            .upper
            .iter()
            .enumerate()
            .map(|(j, &u)| {
                if u == 1 {
                    m.binary(&format!("x{j}"))
                } else {
                    let v = m.integer(&format!("x{j}"));
                    m.add_le([(v, 1.0)], u as f64);
                    v
                }
            })
            .collect();
        m.set_objective(vars.iter().zip(&self.cost).map(|(&v, &c)| (v, c as f64)));
        for row in &self.rows {
            let terms = row.terms.iter().map(|&(j, a)| (vars[j], a as f64));
            if row.le {
                m.add_le(terms, row.rhs as f64);
            } else {
                m.add_ge(terms, row.rhs as f64);
            }
        }
        m
    }

    fn objective(&self, x: &[i64]) -> i64 {
        self.cost.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Every feasible point, by enumeration of the bounded box.
    fn feasible_points(&self) -> Vec<Vec<i64>> {
        let mut points = Vec::new();
        let mut x = vec![0i64; self.upper.len()];
        loop {
            if self.rows.iter().all(|r| r.holds(&x)) {
                points.push(x.clone());
            }
            // Odometer step over the box.
            let mut j = 0;
            loop {
                if j == x.len() {
                    return points;
                }
                if x[j] < self.upper[j] {
                    x[j] += 1;
                    break;
                }
                x[j] = 0;
                j += 1;
            }
        }
    }

    /// Whether a returned solution is an integral point of the box that
    /// meets every row and whose reported objective is its own.
    fn accepts(&self, r: &IlpResult) -> bool {
        let sol = r.solution.as_ref().expect("a solution");
        let x: Vec<i64> = sol.values.iter().map(|v| v.round() as i64).collect();
        sol.values.iter().zip(&x).all(|(&v, &xi)| v == xi as f64)
            && x.iter()
                .zip(&self.upper)
                .all(|(&xi, &u)| (0..=u).contains(&xi))
            && self.rows.iter().all(|row| row.holds(&x))
            && sol.objective == self.objective(&x) as f64
    }
}

fn unlimited() -> SolveOptions {
    SolveOptions {
        node_limit: u64::MAX,
        ..SolveOptions::default()
    }
}

#[test]
fn integral_objectives_reach_the_enumerated_optimum() {
    let (mut solved, mut infeasible, mut one_unit_warm) = (0, 0, 0);
    for seed in 0..300u64 {
        let inst = Instance::random(seed);
        let points = inst.feasible_points();
        for sense in [Sense::Minimize, Sense::Maximize] {
            let model = inst.model(sense);
            // Objective values as "smaller is better" keys.
            let key = |x: &Vec<i64>| match sense {
                Sense::Minimize => inst.objective(x),
                Sense::Maximize => -inst.objective(x),
            };
            let Some(best) = points.iter().map(key).min() else {
                let r = solve_ilp(&model, &unlimited());
                assert_eq!(r.status, Status::Infeasible, "seed {seed} {sense:?}");
                assert!(r.solution.is_none(), "seed {seed} {sense:?}");
                infeasible += 1;
                continue;
            };
            let optimum = match sense {
                Sense::Minimize => best,
                Sense::Maximize => -best,
            } as f64;
            // The feasible point nearest the optimum without reaching it
            // (the optimum itself when every point ties).
            let runner_up = points
                .iter()
                .filter(|x| key(x) > best)
                .min_by_key(|x| key(x))
                .or_else(|| points.iter().find(|x| key(x) == best))
                .expect("a feasible point");
            if key(runner_up) == best + 1 {
                one_unit_warm += 1;
            }
            let warm: Vec<f64> = runner_up.iter().map(|&v| v as f64).collect();
            let floor = Some(optimum);
            let cases = [
                ("plain", None, None),
                ("warm", Some(warm.clone()), None),
                ("floor", None, floor),
                ("warm+floor", Some(warm), floor),
            ];
            for (name, warm_start, objective_floor) in cases {
                let r = solve_ilp(
                    &model,
                    &SolveOptions {
                        warm_start,
                        objective_floor,
                        ..unlimited()
                    },
                );
                let at = format!("seed {seed} {sense:?} {name}");
                assert_eq!(r.status, Status::Optimal, "{at}");
                assert!(inst.accepts(&r), "{at}: infeasible solution");
                let got = r.solution.as_ref().expect("optimal").objective;
                assert_eq!(got, optimum, "{at}");
            }
            solved += 1;
        }
    }
    assert!(solved >= 400, "only {solved} of 600 solves were feasible");
    assert!(infeasible > 0, "no infeasible instance was drawn");
    assert!(
        one_unit_warm >= 100,
        "only {one_unit_warm} warm starts sit one unit from the optimum"
    );
}

/// Solve with a warm start on unlimited budgets.
fn warm_solve(model: &Model, warm: &[f64]) -> IlpResult {
    solve_ilp(
        model,
        &SolveOptions {
            warm_start: Some(warm.to_vec()),
            ..unlimited()
        },
    )
}

#[test]
fn a_fractional_coefficient_keeps_a_sub_unit_improvement() {
    // min 1.5x + y, x + y ≥ 1: the warm start x = 1 costs 1.5, the
    // optimum y = 1 costs 1.0, half a unit better.
    let mut m = Model::new(Sense::Minimize);
    let x = m.binary("x");
    let y = m.binary("y");
    m.set_objective([(x, 1.5), (y, 1.0)]);
    m.add_ge([(x, 1.0), (y, 1.0)], 1.0);
    let r = warm_solve(&m, &[1.0, 0.0]);
    assert_eq!(r.status, Status::Optimal);
    assert_eq!(r.solution.expect("optimal").objective, 1.0);

    // max 1.5x + y, x + y ≤ 1: the warm start y = 1 is worth 1.0, the
    // optimum x = 1 is worth 1.5.
    let mut m = Model::new(Sense::Maximize);
    let x = m.binary("x");
    let y = m.binary("y");
    m.set_objective([(x, 1.5), (y, 1.0)]);
    m.add_le([(x, 1.0), (y, 1.0)], 1.0);
    let r = warm_solve(&m, &[0.0, 1.0]);
    assert_eq!(r.status, Status::Optimal);
    assert_eq!(r.solution.expect("optimal").objective, 1.5);
}

#[test]
fn a_continuous_objective_variable_keeps_a_sub_unit_improvement() {
    // min x + z, x + 2z ≥ 1 with z continuous: the warm start x = 1 costs
    // 1, the optimum z = 0.5 costs 0.5, although every coefficient is an
    // integer.
    let mut m = Model::new(Sense::Minimize);
    let x = m.binary("x");
    let z = m.continuous("z");
    m.set_objective([(x, 1.0), (z, 1.0)]);
    m.add_ge([(x, 1.0), (z, 2.0)], 1.0);
    let r = warm_solve(&m, &[1.0, 0.0]);
    assert_eq!(r.status, Status::Optimal);
    let sol = r.solution.expect("optimal");
    assert!((sol.objective - 0.5).abs() < 1e-9, "{}", sol.objective);
    assert!((sol.values[z.index()] - 0.5).abs() < 1e-9);
}
