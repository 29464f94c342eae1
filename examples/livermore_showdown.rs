//! The paper's Figure 6/7 in miniature: run both pipeliners over the 24
//! Livermore loops and print per-kernel IIs, registers, overhead, and
//! short/long-trip performance ratios.
//!
//! ```text
//! cargo run --release --example livermore_showdown
//! ```

use showdown::{compare_with, Driver, SchedulerChoice};
use swp_machine::Machine;

fn main() {
    let machine = Machine::r8000();

    println!(
        "{:<4} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "k", "kernel", "II(h)", "II(i)", "reg(h)", "reg(i)", "rel-shrt", "rel-long"
    );
    let driver = Driver::uncached(1);
    let mut ilp_ii_wins = 0;
    for k in swp_kernels::livermore() {
        let c = compare_with(
            &driver,
            &k.body,
            &machine,
            &SchedulerChoice::Heuristic,
            &SchedulerChoice::Ilp,
            k.short_trip,
            k.long_trip,
        )
        .expect("livermore pipelines");
        if c.ilp.ii < c.heuristic.ii {
            ilp_ii_wins += 1;
        }
        println!(
            "{:<4} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8.3} {:>8.3}",
            k.number,
            k.name,
            c.heuristic.ii,
            c.ilp.ii,
            c.heuristic.total_regs,
            c.ilp.total_regs,
            c.relative_short(),
            c.relative_long()
        );
    }
    println!(
        "\nloops where the \"optimal\" method beat the heuristic II: {ilp_ii_wins} \
         (the paper found exactly one across its whole study)"
    );
}
