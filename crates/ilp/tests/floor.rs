//! A proven objective floor ends the search early without changing its
//! answer.
//!
//! Branch and bound replaces an incumbent only with a strictly better one,
//! so once an incumbent meets a true bound on every integral objective,
//! the rest of the search can only confirm it. Stopping there must return
//! the same solution, bit for bit, as the search that ran on — with no
//! more nodes, and with the proof reported as [`Status::Optimal`]. A floor
//! below the optimum is never met and must change nothing at all.

use swp_ilp::{solve_ilp, IlpResult, Model, Sense, SolveOptions, Status};

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

    fn int(&mut self, lo: i64, hi: i64) -> f64 {
        (lo + (self.next() % (hi - lo + 1) as u64) as i64) as f64
    }
}

/// A small bounded ILP over binaries and integers whose objective
/// coefficients are integers, so every integral solution has an integral
/// objective and the optimum is a valid floor.
fn random_ilp(seed: u64) -> (Model, Sense) {
    let mut g = Gen(seed);
    let n = 3 + g.below(8);
    let sense = if g.below(2) == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            if g.below(2) == 0 {
                m.binary(&format!("x{j}"))
            } else {
                let v = m.integer(&format!("x{j}"));
                m.add_le([(v, 1.0)], g.int(1, 6));
                v
            }
        })
        .collect();
    m.set_objective(vars.iter().map(|&v| (v, g.int(-3, 5))));
    for _ in 0..1 + g.below(6) {
        let k = 2 + g.below(n - 1);
        let terms: Vec<_> = (0..k).map(|_| (vars[g.below(n)], g.int(-2, 4))).collect();
        match g.below(3) {
            0 | 1 => m.add_le(terms, g.int(2, 14)),
            _ => m.add_ge(terms, g.int(-2, 4)),
        }
    }
    (m, sense)
}

fn bits(r: &IlpResult) -> Vec<u64> {
    let sol = r.solution.as_ref().expect("optimal solve has a solution");
    sol.values.iter().map(|v| v.to_bits()).collect()
}

/// At the optimum the floor stops the search on the same solution; one
/// step short of it, the search is untouched; and a warm start that
/// already meets it ends the search before the first node.
#[test]
fn floor_stop_returns_the_unstopped_solution() {
    let mut optimal = 0;
    for seed in 0..400u64 {
        let (model, sense) = random_ilp(seed);
        let plain = solve_ilp(&model, &SolveOptions::default());
        if plain.status != Status::Optimal {
            continue;
        }
        optimal += 1;
        let best = plain.solution.as_ref().expect("optimal");
        let with_floor = |floor: f64, warm_start: Option<Vec<f64>>| {
            solve_ilp(
                &model,
                &SolveOptions {
                    objective_floor: Some(floor),
                    warm_start,
                    ..SolveOptions::default()
                },
            )
        };

        let at = with_floor(best.objective, None);
        assert_eq!(at.status, Status::Optimal, "seed {seed}");
        assert_eq!(bits(&at), bits(&plain), "seed {seed}");
        assert!(at.nodes <= plain.nodes, "seed {seed}");

        let short = match sense {
            Sense::Minimize => best.objective - 1.0,
            Sense::Maximize => best.objective + 1.0,
        };
        let never_met = with_floor(short, None);
        assert_eq!(never_met.status, Status::Optimal, "seed {seed}");
        assert_eq!(bits(&never_met), bits(&plain), "seed {seed}");
        assert_eq!(
            (never_met.nodes, never_met.pivots),
            (plain.nodes, plain.pivots),
            "seed {seed}"
        );

        let warm = with_floor(best.objective, Some(best.values.clone()));
        assert_eq!(warm.status, Status::Optimal, "seed {seed}");
        assert_eq!(bits(&warm), bits(&plain), "seed {seed}");
        assert_eq!(warm.nodes, 0, "seed {seed}");
    }
    assert!(optimal >= 200, "only {optimal} of 400 instances solved");
}
