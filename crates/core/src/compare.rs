//! The showdown itself: side-by-side measurement of the two pipeliners on
//! one loop, with the paper's static and dynamic quality measures.

use crate::compile::{CompileError, CompileOptions, CompiledLoop, SchedulerChoice};
use crate::par::Driver;
use swp_ir::Loop;
use swp_machine::Machine;
use swp_sim::{simulate, SimResult};

/// Everything measured about one scheduler's output on one loop.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Achieved II.
    pub ii: u32,
    /// MinII lower bound.
    pub min_ii: u32,
    /// Total registers (FP + integer), Figure 7's first metric.
    pub total_regs: u32,
    /// Pipeline entry/exit overhead in cycles, Figure 7's second metric.
    pub overhead_cycles: i64,
    /// Overlapped stages in the steady state.
    pub stages: u32,
    /// Simulated execution at the short trip count.
    pub short: SimResult,
    /// Simulated execution at the long trip count.
    pub long: SimResult,
    /// Whether the ILP fell back to the heuristic (always false for the
    /// heuristic row).
    pub fell_back: bool,
}

impl Measured {
    fn from_compiled(c: &CompiledLoop, machine: &Machine, short: u64, long: u64) -> Measured {
        Measured {
            ii: c.stats.ii,
            min_ii: c.stats.min_ii,
            total_regs: c.code.total_regs(),
            overhead_cycles: c.code.overhead().total_cycles(),
            stages: c.code.stage_count(),
            short: simulate(&c.code, short, machine),
            long: simulate(&c.code, long, machine),
            fell_back: c.stats.fell_back,
        }
    }
}

/// Heuristic-vs-ILP comparison on one loop (one row of Figures 6 and 7).
#[derive(Debug, Clone)]
pub struct LoopComparison {
    /// Loop name.
    pub name: String,
    /// The heuristic pipeliner's measurements.
    pub heuristic: Measured,
    /// The ILP pipeliner's measurements.
    pub ilp: Measured,
}

impl LoopComparison {
    /// Figure 7's register delta: `MIPSpro − ILP` total registers.
    pub fn reg_delta(&self) -> i64 {
        i64::from(self.heuristic.total_regs) - i64::from(self.ilp.total_regs)
    }

    /// Figure 7's overhead delta: `MIPSpro − ILP` entry/exit cycles.
    pub fn overhead_delta(&self) -> i64 {
        self.heuristic.overhead_cycles - self.ilp.overhead_cycles
    }

    /// Figure 6's relative performance (ILP time / heuristic time) at the
    /// short trip count; < 1 means ILP-scheduled code is faster.
    pub fn relative_short(&self) -> f64 {
        self.heuristic.short.cycles as f64 / self.ilp.short.cycles.max(1) as f64
    }

    /// Figure 6's relative performance at the long trip count.
    pub fn relative_long(&self) -> f64 {
        self.heuristic.long.cycles as f64 / self.ilp.long.cycles.max(1) as f64
    }
}

/// Run both pipeliners on a loop through `driver` and measure everything
/// the paper reports. Both compiles go through the driver's schedule
/// cache (the ILP compile of a Livermore kernel is by far the most
/// expensive step of Figures 6/7, and fig7 repeats fig6's compiles
/// exactly).
///
/// # Errors
///
/// Propagates whichever pipeliner fails, heuristic first.
pub fn compare_with(
    driver: &Driver,
    lp: &Loop,
    machine: &Machine,
    heur: &SchedulerChoice,
    ilp: &SchedulerChoice,
    short_trip: u64,
    long_trip: u64,
) -> Result<LoopComparison, CompileError> {
    let h = driver.compile_with(lp, machine, &CompileOptions::from(heur.clone()))?;
    let i = driver.compile_with(lp, machine, &CompileOptions::from(ilp.clone()))?;
    Ok(LoopComparison {
        name: lp.name().to_owned(),
        heuristic: Measured::from_compiled(&h, machine, short_trip, long_trip),
        ilp: Measured::from_compiled(&i, machine, short_trip, long_trip),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ir::LoopBuilder;

    #[test]
    fn comparison_produces_both_rows() {
        let m = Machine::r8000();
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(v, v);
        b.store(y, 0, 8, w);
        let lp = b.finish();
        let c = compare_with(
            &Driver::uncached(1),
            &lp,
            &m,
            &SchedulerChoice::Heuristic,
            &SchedulerChoice::Ilp,
            10,
            1000,
        )
        .expect("compares");
        assert_eq!(c.heuristic.ii, c.ilp.ii, "identical IIs on a trivial loop");
        assert!(c.heuristic.long.cycles > c.heuristic.short.cycles);
        assert!(c.relative_long() > 0.0);
    }
}
