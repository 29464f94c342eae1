//! Portfolio racing: the ladder's first three rungs (ILP > SAT >
//! heuristic), run by the stage runner in race mode. The winner is picked
//! by fixed rank at join and a racer is only cancelled once a
//! higher-ranked one has succeeded, so the shipped code is bit-identical
//! across hosts and thread counts, up to the backends' own wall-clock
//! budgets, which taint results via `deadline_hit` as in direct compiles.

use crate::compile::{CompileError, CompiledLoop};
use crate::ladder::Rung;
use crate::stage::{self, Backend, Mode, Stages};
use swp_heur::HeurOptions;
use swp_ir::Loop;
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_sat::SatOptions;

/// Configuration of one portfolio race.
///
/// The per-backend `cancel` fields inside [`MostOptions`], [`SatOptions`]
/// and [`HeurOptions`] are overridden for the SAT and heuristic racers:
/// the portfolio owns their cancellation. ILP keeps the caller's token —
/// it is never cancelled by the race itself.
#[derive(Debug, Clone)]
pub struct PortfolioOptions {
    /// Race the MOST ILP backend (priority 0, never cancelled).
    pub use_ilp: bool,
    /// Race the CDCL SAT backend (priority 1).
    pub use_sat: bool,
    /// Race the heuristic pipeliner (priority 2).
    pub use_heur: bool,
    /// ILP racer budgets (internal fallback forced off; the heuristic
    /// racer plays that role).
    pub most: MostOptions,
    /// SAT racer budgets (internal fallback forced off, ditto).
    pub sat: SatOptions,
    /// Heuristic racer budgets.
    pub heur: HeurOptions,
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            use_ilp: true,
            use_sat: true,
            use_heur: true,
            most: MostOptions::default(),
            sat: SatOptions::default(),
            heur: HeurOptions::default(),
        }
    }
}

/// Race the enabled backends and ship the highest-priority success.
///
/// # Errors
///
/// When every racer fails, the highest-priority enabled backend's error
/// is returned (deterministic: an all-fail race by construction involved
/// no cancellation). [`CompileError::Internal`] when no backend is
/// enabled or a racer panicked and won by default.
pub fn compile_portfolio(
    lp: &Loop,
    machine: &Machine,
    opts: &PortfolioOptions,
) -> Result<CompiledLoop, CompileError> {
    let stages: Stages = [
        (opts.use_ilp, Rung::Ilp),
        (opts.use_sat, Rung::Sat),
        (opts.use_heur, Rung::Heuristic),
    ]
    .into_iter()
    .filter(|&(on, _)| on)
    .map(|(_, r)| (r, Backend::at(r, &opts.most, &opts.sat, &opts.heur, 0)))
    .collect();
    if stages.is_empty() {
        return Err(CompileError::Internal {
            rung: None,
            message: "portfolio: no backends enabled".to_owned(),
        });
    }
    stage::run(lp, machine, stages, Mode::Race)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ir::LoopBuilder;

    fn saxpy() -> Loop {
        let mut b = LoopBuilder::new("saxpy");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let r = b.fmadd(a, xv, yv);
        b.store(y, 0, 8, r);
        b.finish()
    }

    #[test]
    fn ilp_outranks_everyone_when_it_succeeds() {
        let m = Machine::r8000();
        let c = compile_portfolio(&saxpy(), &m, &PortfolioOptions::default()).expect("races");
        assert_eq!(c.rung, Some(Rung::Ilp));
        assert!(c.stats.optimal);
    }

    #[test]
    fn winner_is_fixed_priority_not_wall_clock() {
        // With ILP pushed aside (max_ops 0, fallback off), SAT must win
        // even though the heuristic almost always finishes first.
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            most: MostOptions {
                max_ops: 0,
                ..MostOptions::default()
            },
            ..PortfolioOptions::default()
        };
        for _ in 0..3 {
            let c = compile_portfolio(&saxpy(), &m, &opts).expect("races");
            assert_eq!(c.rung, Some(Rung::Sat));
        }
    }

    #[test]
    fn subset_portfolio_ships_the_heuristic() {
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            use_ilp: false,
            use_sat: false,
            ..PortfolioOptions::default()
        };
        let c = compile_portfolio(&saxpy(), &m, &opts).expect("races");
        assert_eq!(c.rung, Some(Rung::Heuristic));
    }

    #[test]
    fn empty_portfolio_is_an_error() {
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            use_ilp: false,
            use_sat: false,
            use_heur: false,
            ..PortfolioOptions::default()
        };
        assert!(matches!(
            compile_portfolio(&saxpy(), &m, &opts),
            Err(CompileError::Internal { .. })
        ));
    }

    #[test]
    fn all_fail_returns_the_top_priority_error() {
        let m = Machine::r8000();
        let empty = LoopBuilder::new("empty").finish();
        let e = compile_portfolio(&empty, &m, &PortfolioOptions::default())
            .expect_err("nothing schedules");
        assert!(matches!(e, CompileError::Ilp(_)), "got {e:?}");
    }
}
