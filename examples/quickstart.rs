//! Quickstart: software-pipeline a SAXPY loop with both schedulers and
//! watch it run on the simulated R8000.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use showdown::{compare_with, compile_baseline, Driver, SchedulerChoice};
use swp_ir::{Ddg, LoopBuilder};
use swp_machine::Machine;
use swp_sim::simulate_baseline;

fn main() {
    let machine = Machine::r8000();

    // y[i] = a*x[i] + y[i] — the canonical inner loop.
    let mut b = LoopBuilder::new("saxpy");
    let a = b.invariant_f("a");
    let x = b.array("x", 8);
    let y = b.array("y", 8);
    let xv = b.load(x, 0, 8);
    let yv = b.load(y, 0, 8);
    let r = b.fmadd(a, xv, yv);
    b.store(y, 0, 8, r);
    let lp = b.finish();

    println!("{lp}\n");
    let ddg = Ddg::build(&lp, &machine);
    println!(
        "MinII = {} (resources {}, recurrences {})\n",
        ddg.min_ii(),
        ddg.res_mii(),
        ddg.rec_mii()
    );

    // The showdown: heuristic vs ILP on the same loop.
    let c = compare_with(
        &Driver::uncached(1),
        &lp,
        &machine,
        &SchedulerChoice::Heuristic,
        &SchedulerChoice::Ilp,
        10,
        10_000,
    )
    .expect("saxpy pipelines");
    println!("                     heuristic      ILP");
    println!("achieved II        {:>9}  {:>9}", c.heuristic.ii, c.ilp.ii);
    println!(
        "registers used     {:>9}  {:>9}",
        c.heuristic.total_regs, c.ilp.total_regs
    );
    println!(
        "entry/exit cycles  {:>9}  {:>9}",
        c.heuristic.overhead_cycles, c.ilp.overhead_cycles
    );
    println!(
        "cycles, 10k trips  {:>9}  {:>9}",
        c.heuristic.long.cycles, c.ilp.long.cycles
    );

    // And what life looks like without software pipelining (§4.1).
    let base = compile_baseline(&lp, &machine);
    let br = simulate_baseline(&base, 10_000, &machine);
    println!(
        "\nwithout pipelining: {} cycles ({:.1}x slower)",
        br.cycles,
        br.cycles as f64 / c.heuristic.long.cycles as f64
    );
}
