//! Differential test of the per-SCC dependence-cycle analysis: `Ddg::rec_mii`
//! and every `LongestPaths::get(a, b)` against a plain whole-graph
//! Floyd–Warshall and a binary-search RecMII over it, on the Livermore
//! kernels, every figure-suite loop and seeded random loops, at every II
//! from 1 through 2·MinII.
//!
//! It lives at the workspace root because `swp-ir` cannot dev-depend on
//! `swp-kernels`, which depends on it.

use swp_ir::{Ddg, LongestPaths, Loop, OpId};
use swp_kernels::{livermore, random_loop, spec_suites, GenParams};
use swp_machine::Machine;

const NEG_INF: i64 = i64::MIN / 4;

/// Whole-graph Floyd–Warshall longest paths at `ii`, `None` on a positive
/// cycle: `dist[i*n + j]`, `NEG_INF` where unreachable.
fn reference_table(ddg: &Ddg, ii: u32) -> Option<Vec<i64>> {
    let n = ddg.len();
    let mut dist = vec![NEG_INF; n * n];
    for e in ddg.edges() {
        let w = e.latency - i64::from(ii) * i64::from(e.distance);
        let cell = &mut dist[e.from.index() * n + e.to.index()];
        *cell = (*cell).max(w);
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik <= NEG_INF {
                continue;
            }
            for j in 0..n {
                let dkj = dist[k * n + j];
                if dkj <= NEG_INF {
                    continue;
                }
                let cand = dik + dkj;
                if cand > dist[i * n + j] {
                    dist[i * n + j] = cand;
                }
            }
        }
    }
    (0..n).all(|i| dist[i * n + i] <= 0).then_some(dist)
}

/// Binary search for the smallest feasible II over the whole graph, between
/// 1 and the sum of all latencies (returned as is if even that fails).
fn reference_rec_mii(ddg: &Ddg) -> u32 {
    let mut lo = 1u32;
    let mut hi = ddg
        .edges()
        .iter()
        .map(|e| e.latency.max(0) as u32)
        .sum::<u32>()
        .max(1);
    if reference_table(ddg, hi).is_none() {
        return hi;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reference_table(ddg, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Check one loop at every II in `1..=2·MinII`; returns its number of
/// nontrivial SCCs, so a sweep can show it reached the per-SCC tables.
fn check(name: &str, lp: &Loop, machine: &Machine) -> usize {
    let ddg = Ddg::build(lp, machine);
    assert_eq!(ddg.rec_mii(), reference_rec_mii(&ddg), "{name}: RecMII");
    let n = ddg.len();
    let top = 2 * ddg.min_ii();
    for ii in 1..=top {
        let got = LongestPaths::compute(&ddg, ii);
        let want = reference_table(&ddg, ii);
        assert_eq!(
            got.is_some(),
            want.is_some(),
            "{name} at II {ii}: feasibility"
        );
        let (Some(got), Some(want)) = (got, want) else {
            continue;
        };
        for a in 0..n {
            for b in 0..n {
                let expect = want[a * n + b];
                assert_eq!(
                    got.get(OpId(a as u32), OpId(b as u32)),
                    (expect > NEG_INF).then_some(expect),
                    "{name} at II {ii}: path {a} -> {b}"
                );
            }
        }
    }
    ddg.sccs().iter().filter(|s| s.nontrivial).count()
}

#[test]
fn per_scc_tables_match_whole_graph_floyd_warshall_on_the_paper_loops() {
    let m = Machine::r8000();
    let mut cyclic = 0;
    for k in livermore() {
        cyclic += check(&format!("livermore k{}", k.number), &k.body, &m);
    }
    for suite in spec_suites() {
        for l in &suite.loops {
            cyclic += check(&format!("{} {}", suite.name, l.name), &l.body, &m);
        }
    }
    assert!(cyclic > 0);
}

#[test]
fn per_scc_tables_match_whole_graph_floyd_warshall_on_random_loops() {
    let m = Machine::r8000();
    let mut cyclic = 0;
    for (i, ops) in [8, 16, 32, 64, 128].into_iter().enumerate() {
        for recurrences in 0..=4 {
            // The reference costs 2·MinII whole-graph n³ tables, about 2 s
            // per 128-op loop unoptimized: the debug build keeps the two
            // extremes there, the release build runs every one.
            if ops == 128 && cfg!(debug_assertions) && !matches!(recurrences, 0 | 4) {
                continue;
            }
            for div_fraction in [0.0, 0.1] {
                let params = GenParams {
                    ops,
                    recurrences,
                    div_fraction,
                    ..GenParams::default()
                };
                let seed = (i * 10 + recurrences) as u64;
                let lp = random_loop(&params, seed);
                let name =
                    format!("random {ops} ops, {recurrences} rec, div {div_fraction}, seed {seed}");
                cyclic += check(&name, &lp, &m);
            }
        }
    }
    assert!(cyclic > 0);
}
