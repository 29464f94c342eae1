//! Cross-crate integration: compile every workload loop with both
//! pipeliners, validate the schedules, and cross-check functional
//! semantics between sequential and pipelined-issue-order execution.

use showdown::{compile_loop, SchedulerChoice};
use swp_ir::Ddg;
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_sim::interp::{run_pipelined, run_sequential};
use swp_sim::simulate;

/// Tight deterministic budgets: these tests need the ILP path bounded,
/// not solved to the end, and the fallback covers what the leash cuts.
/// An unoptimized pivot on a 20–36-op model costs about a millisecond,
/// so those loops go straight to the fallback.
fn quick_most() -> SchedulerChoice {
    SchedulerChoice::IlpWith(MostOptions {
        node_limit: 10_000,
        pivot_limit: 2_000,
        loop_pivot_limit: Some(4_000),
        max_ops: 20,
        ..MostOptions::default()
    })
}

#[test]
fn every_livermore_kernel_compiles_and_validates_heuristic() {
    let m = Machine::r8000();
    for k in swp_kernels::livermore() {
        let c = compile_loop(&k.body, &m, &SchedulerChoice::Heuristic)
            .unwrap_or_else(|e| panic!("kernel {}: {e}", k.number));
        let ddg = Ddg::build(c.code.body(), &m);
        assert_eq!(
            c.code.schedule().validate(c.code.body(), &ddg, &m),
            Ok(()),
            "kernel {}",
            k.number
        );
        assert!(
            c.stats.ii >= c.stats.min_ii,
            "kernel {}: II below MinII",
            k.number
        );
    }
}

#[test]
fn every_livermore_kernel_compiles_with_ilp_and_fallback() {
    let m = Machine::r8000();
    let most = quick_most();
    for k in swp_kernels::livermore() {
        let c =
            compile_loop(&k.body, &m, &most).unwrap_or_else(|e| panic!("kernel {}: {e}", k.number));
        let ddg = Ddg::build(c.code.body(), &m);
        assert_eq!(
            c.code.schedule().validate(c.code.body(), &ddg, &m),
            Ok(()),
            "kernel {}",
            k.number
        );
    }
}

#[test]
fn pipelined_execution_is_functionally_sequential() {
    // The scheduler may reorder aggressively, but issuing instances in
    // schedule order must produce the same memory image as sequential
    // iteration — on every Livermore kernel with affine accesses.
    let m = Machine::r8000();
    for k in swp_kernels::livermore() {
        // Indirect kernels (13, 14) compute addresses from loaded data;
        // the interpreter handles them, but address collisions across
        // iterations make the comparison depend on seed data layout, so
        // they are covered by their own test below.
        if k.body
            .mem_ops()
            .any(|o| o.mem.is_some_and(|mm| mm.indirect))
        {
            continue;
        }
        let c = compile_loop(&k.body, &m, &SchedulerChoice::Heuristic)
            .unwrap_or_else(|e| panic!("kernel {}: {e}", k.number));
        let trips = 24;
        let seq = run_sequential(c.code.body(), trips);
        let pip = run_pipelined(&c.code, trips).expect("schedule preserves dependences");
        assert!(
            seq.approx_eq(&pip, 0.0),
            "kernel {} ({}) pipelined execution diverged",
            k.number,
            k.name
        );
    }
}

#[test]
fn ilp_scheduled_execution_is_functionally_sequential() {
    // Same differential lockdown for the ILP pipeliner: MOST explores
    // schedules the greedy heuristic never proposes (and may fall back),
    // yet issuing its code in schedule order must reproduce sequential
    // semantics bit for bit on every affine Livermore kernel.
    let m = Machine::r8000();
    let most = quick_most();
    for k in swp_kernels::livermore() {
        if k.body
            .mem_ops()
            .any(|o| o.mem.is_some_and(|mm| mm.indirect))
        {
            continue;
        }
        let c =
            compile_loop(&k.body, &m, &most).unwrap_or_else(|e| panic!("kernel {}: {e}", k.number));
        let trips = 24;
        let seq = run_sequential(c.code.body(), trips);
        let pip = run_pipelined(&c.code, trips).expect("schedule preserves dependences");
        assert!(
            seq.approx_eq(&pip, 0.0),
            "kernel {} ({}) ILP-pipelined execution diverged (fell_back={})",
            k.number,
            k.name,
            c.stats.fell_back
        );
    }
}

#[test]
fn indirect_kernels_still_validate_and_simulate() {
    let m = Machine::r8000();
    for k in swp_kernels::livermore()
        .into_iter()
        .filter(|k| [13, 14].contains(&k.number))
    {
        let c = compile_loop(&k.body, &m, &SchedulerChoice::Heuristic).expect("compiles");
        let r = simulate(&c.code, 100, &m);
        assert!(r.cycles >= c.code.static_cycles(100));
        assert_eq!(r.iterations, 100);
    }
}

#[test]
fn spec_suites_compile_and_simulate_both_ways() {
    let m = Machine::r8000();
    let most = quick_most();
    for s in swp_kernels::spec_suites() {
        for wl in &s.loops {
            let h = compile_loop(&wl.body, &m, &SchedulerChoice::Heuristic)
                .unwrap_or_else(|e| panic!("{}::{}: {e}", s.name, wl.name));
            let i = compile_loop(&wl.body, &m, &most)
                .unwrap_or_else(|e| panic!("{}::{}: {e}", s.name, wl.name));
            assert!(i.stats.ii >= i.stats.min_ii);
            let rh = simulate(&h.code, 64, &m);
            let ri = simulate(&i.code, 64, &m);
            assert!(rh.cycles > 0 && ri.cycles > 0);
        }
    }
}

#[test]
fn unbanked_machine_runs_at_static_speed() {
    let m = Machine::r8000_unbanked();
    for k in swp_kernels::livermore().into_iter().take(6) {
        let c = compile_loop(&k.body, &m, &SchedulerChoice::Heuristic).expect("compiles");
        let r = simulate(&c.code, 200, &m);
        assert_eq!(
            r.stall_cycles, 0,
            "kernel {}: ideal memory never stalls",
            k.number
        );
        assert_eq!(r.cycles, c.code.static_cycles(200));
    }
}

#[test]
fn spilling_round_trips_semantics_end_to_end() {
    // Force spills with a tiny register file; the spilled loop must still
    // compute the same values.
    let tiny = swp_machine::MachineBuilder::new("tiny")
        .allocatable(swp_machine::RegClass::Float, 10)
        .build();
    let k7 = swp_kernels::livermore()
        .into_iter()
        .find(|k| k.number == 7)
        .expect("k7");
    let c = compile_loop(&k7.body, &tiny, &SchedulerChoice::Heuristic).expect("spills rescue");
    let trips = 16;
    // Compare against the *original* body's sequential execution, ignoring
    // the spill arrays the transformed body introduces.
    let original_arrays = k7.body.arrays().len() as u32;
    let seq = run_sequential(&k7.body, trips);
    let pip = run_pipelined(&c.code, trips).expect("schedule preserves dependences");
    let sw: Vec<_> = seq.written();
    let pw: Vec<_> = pip
        .written()
        .into_iter()
        .filter(|((a, _), _)| *a < original_arrays)
        .collect();
    assert_eq!(sw.len(), pw.len());
    for ((ka, va), (kb, vb)) in sw.iter().zip(&pw) {
        assert_eq!(ka, kb);
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "spilled code changed cell {ka:?}"
        );
    }
}
