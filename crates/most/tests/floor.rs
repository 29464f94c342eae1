//! The buffer floor ends MOST's buffer search without moving a schedule.
//!
//! On Livermore k2, k5 and k14, wave5 `push`, ear `filter` and su2cor
//! `cmul`, the buffer model at MinII is solved the way `pipeline_most`
//! solves it — SGI priority order, slot groups, up-first branching, the
//! feasibility schedule as warm start, the `solver` gate's budgets — once
//! with the floor and once without. Without it, each of these searches
//! spends its whole node budget; with it, the first five stop within 117
//! nodes, and `cmul` stops at node 1,351 of 2,000, where its incumbent
//! first meets the floor of 18. The two must return bit-identical values,
//! and the floor may never exceed the buffer total found.
//!
//! A second test pins the buffer totals MOST proves on the ladder's path.

use swp_heur::{priority_list, PriorityHeuristic};
use swp_ilp::{solve_ilp, IlpResult, SolveOptions, Status};
use swp_ir::{Ddg, Loop, OptLevel, PassManager};
use swp_kernels::{livermore, spec_suites};
use swp_machine::Machine;
use swp_most::{build_model, pipeline_most, MostOptions, Objective};

fn kernel(number: u32) -> Loop {
    livermore()
        .into_iter()
        .find(|k| k.number == number)
        .expect("Livermore kernel exists")
        .body
}

fn suite_loop(suite: &str, name: &str) -> Loop {
    spec_suites()
        .into_iter()
        .find(|s| s.name == suite)
        .and_then(|s| s.loops.into_iter().find(|l| l.name == name))
        .expect("suite loop exists")
        .body
}

/// The buffer solve at MinII with and without the floor, and the floor.
fn buffer_solves(lp: &Loop) -> (IlpResult, IlpResult, u32) {
    let m = Machine::r8000();
    let ddg = Ddg::build(lp, &m);
    let ii = ddg.min_ii();
    let order = priority_list(lp, &ddg, &m, PriorityHeuristic::ALL[0]);
    let feas = build_model(lp, &ddg, &m, ii, Objective::Feasibility);
    let buf = build_model(lp, &ddg, &m, ii, Objective::MinBuffers);
    let options = |model: &swp_most::SchedulingModel, base: SolveOptions| SolveOptions {
        node_limit: 2_000,
        pivot_limit: 20_000,
        branch_order: Some(model.branch_order(&order)),
        branch_groups: Some(model.branch_groups(&order)),
        branch_up_first: true,
        ..base
    };
    let first = SolveOptions {
        stop_at_first: true,
        ..SolveOptions::default()
    };
    let schedule = solve_ilp(&feas.model, &options(&feas, first))
        .solution
        .expect("schedulable at MinII")
        .values;
    let warm_start = Some(buf.warm_start_from(lp, &schedule));
    let floor = buf.buffer_floor(lp, &ddg).expect("the floor LP solves");
    let solve = |objective_floor| {
        let base = SolveOptions {
            warm_start: warm_start.clone(),
            objective_floor,
            ..SolveOptions::default()
        };
        solve_ilp(&buf.model, &options(&buf, base))
    };
    (solve(None), solve(Some(f64::from(floor))), floor)
}

#[test]
fn floor_never_moves_a_buffer_schedule() {
    let loops = [
        ("k2", kernel(2)),
        ("k5", kernel(5)),
        ("k14", kernel(14)),
        ("wave5 push", suite_loop("wave5", "push")),
        ("ear filter", suite_loop("ear", "filter")),
        ("su2cor cmul", suite_loop("su2cor", "cmul")),
    ];
    for (name, lp) in &loops {
        let (without, with, floor) = buffer_solves(lp);
        let bits = |r: &IlpResult| -> Vec<u64> {
            let sol = r.solution.as_ref().expect("the warm start is an incumbent");
            sol.values.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&with), bits(&without), "{name}");
        assert!(with.nodes <= without.nodes, "{name}");
        let total = without.solution.as_ref().expect("solution").objective;
        assert!(f64::from(floor) <= total, "{name}: floor {floor} > {total}");
        if f64::from(floor) == total {
            assert_eq!(with.status, Status::Optimal, "{name}");
        }
    }
}

/// The buffer totals MOST proves on the ladder's path: each loop through
/// the full mid-end, then MOST on its default budgets with the fallback
/// off, as the ILP rung runs it. These are the searches that spend the
/// most nodes on ladder-suites. Pruning by whole units shortens each of
/// them, and none may end on a larger total or without a proof.
#[test]
fn ladder_buffer_totals_are_proved_minimal() {
    let m = Machine::r8000();
    // (name, loop, II, buffer total)
    let loops = [
        ("doduc branchy", suite_loop("doduc", "branchy"), 7, 11),
        ("su2cor cmul", suite_loop("su2cor", "cmul"), 3, 18),
        ("doduc kinetics", suite_loop("doduc", "kinetics"), 6, 12),
        ("k15", kernel(15), 2, 17),
        ("k1", kernel(1), 2, 15),
    ];
    for (name, mut lp, ii, total) in loops {
        PassManager::new(OptLevel::Full).run(&mut lp, &m);
        let r = pipeline_most(&lp, &m, &MostOptions::default().without_fallback())
            .expect("MOST schedules it");
        let b = r.stats.buffers.expect("the buffer solve ran");
        assert_eq!((r.ii(), b.total), (ii, total), "{name}");
        assert!(b.optimal, "{name}: the buffer solve ended without a proof");
    }
}
