//! Behaviour pins for the stage runner shared by the degradation ladder
//! and the portfolio racer.
//!
//! - The schedule-cache keys of a fixed set of requests are pinned to
//!   literal values. The keys are also the disk store's record names, so
//!   a store written by an older binary stays reachable only while these
//!   values hold.
//! - The taint rule: a stage ranked above the winner that hit a
//!   wall-clock deadline makes *which* stage won host-dependent, so the
//!   shipped result carries `deadline_hit` and the cache never memoizes
//!   it. Both run modes (sequential ladder, raced portfolio) obey it.

use showdown::{
    cache_key_with, compile_loop, CacheStats, ChaosFault, ChaosOptions, CompileOptions, Corruption,
    LadderOptions, OptLevel, PortfolioOptions, Rung, ScheduleCache, SchedulerChoice, VerifyLevel,
};
use std::time::Duration;
use swp_heur::HeurOptions;
use swp_ir::{Loop, LoopBuilder};
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_sat::SatOptions;

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

/// Deterministic budgets: work counts only, no wall clocks.
fn quick_most() -> MostOptions {
    MostOptions {
        node_limit: 20_000,
        pivot_limit: 400_000,
        time_limit: None,
        loop_time_limit: None,
        loop_pivot_limit: Some(1_200_000),
        max_ops: 64,
        ..MostOptions::default()
    }
}

fn quick_sat() -> SatOptions {
    SatOptions {
        conflict_limit: 20_000,
        propagation_limit: 2_000_000,
        time_limit: None,
        loop_time_limit: None,
        loop_conflict_limit: Some(60_000),
        max_ops: 64,
        ..SatOptions::default()
    }
}

fn quick_ladder() -> LadderOptions {
    LadderOptions {
        most: quick_most(),
        sat: quick_sat(),
        ..LadderOptions::default()
    }
}

fn quick_portfolio() -> PortfolioOptions {
    PortfolioOptions {
        most: quick_most(),
        sat: quick_sat(),
        ..PortfolioOptions::default()
    }
}

#[test]
fn cache_keys_are_pinned() {
    let m = Machine::r8000();
    let lp = saxpy();
    let chaos = LadderOptions {
        chaos: ChaosOptions::default()
            .with_fault(Rung::Ilp, ChaosFault::Panic)
            .with_fault(
                Rung::Heuristic,
                ChaosFault::Corrupt(Corruption::NegativeTime),
            ),
        ..quick_ladder()
    };
    let no_ilp = PortfolioOptions {
        use_ilp: false,
        ..quick_portfolio()
    };
    let heur = HeurOptions {
        backtrack_budget: 77,
        ..HeurOptions::default()
    };
    let requests: Vec<(&str, CompileOptions)> = vec![
        ("heuristic", SchedulerChoice::Heuristic.into()),
        (
            "heuristic-with",
            SchedulerChoice::HeuristicWith(heur).into(),
        ),
        ("ilp", SchedulerChoice::Ilp.into()),
        ("ilp-with", SchedulerChoice::IlpWith(quick_most()).into()),
        ("sat", SchedulerChoice::Sat.into()),
        ("sat-with", SchedulerChoice::SatWith(quick_sat()).into()),
        ("ladder", SchedulerChoice::Ladder.into()),
        (
            "ladder-with",
            SchedulerChoice::LadderWith(Box::new(quick_ladder())).into(),
        ),
        ("portfolio", SchedulerChoice::Portfolio.into()),
        (
            "portfolio-with",
            SchedulerChoice::PortfolioWith(Box::new(quick_portfolio())).into(),
        ),
        (
            "ladder-demoted-1",
            SchedulerChoice::LadderWith(Box::new(quick_ladder().demoted(1))).into(),
        ),
        (
            "ladder-demoted-2",
            SchedulerChoice::LadderWith(Box::new(quick_ladder().demoted(2))).into(),
        ),
        (
            "ladder-chaos",
            SchedulerChoice::LadderWith(Box::new(chaos)).into(),
        ),
        (
            "portfolio-no-ilp",
            SchedulerChoice::PortfolioWith(Box::new(no_ilp)).into(),
        ),
        (
            "ladder-verified-opt",
            CompileOptions {
                choice: SchedulerChoice::LadderWith(Box::new(quick_ladder())),
                verify: VerifyLevel::Full,
                opt: OptLevel::Full,
                ..CompileOptions::default()
            },
        ),
    ];
    let expected: [u64; 15] = [
        0x0e92_adaf_0808_ed65, // heuristic
        0xcb10_c3cc_b13b_fd57, // heuristic-with
        0xeaf1_9ebe_d81a_3058, // ilp
        0xa108_6c98_75f5_4c3c, // ilp-with
        0x69c7_0355_2fa8_9fa1, // sat
        0x1380_dfcf_1988_ca49, // sat-with
        0xe576_a1fc_a94f_7bcf, // ladder
        0xa140_bee4_ad1b_8877, // ladder-with
        0xc978_813b_b69c_fded, // portfolio
        0x4979_166e_4afe_d551, // portfolio-with
        0x8900_8b8a_ccdd_70d8, // ladder-demoted-1
        0xbfb7_f99a_532f_024e, // ladder-demoted-2
        0xdc9c_42ee_683a_ff6d, // ladder-chaos
        0x3ee7_1683_fb0a_0394, // portfolio-no-ilp
        0xb41d_eae4_b83a_70fb, // ladder-verified-opt
    ];
    let actual: Vec<u64> = requests
        .iter()
        .map(|(_, o)| cache_key_with(&lp, &m, o))
        .collect();
    let listing: String = requests
        .iter()
        .zip(&actual)
        .map(|((name, _), k)| format!("{name}: {k:#018x}\n"))
        .collect();
    assert_eq!(actual, expected, "cache keys moved:\n{listing}");
}

#[test]
fn a_deadline_above_the_winner_taints_both_modes() {
    let m = Machine::r8000();
    let lp = saxpy();
    let mut ladder = quick_ladder();
    ladder.most.loop_time_limit = Some(Duration::ZERO);
    let mut portfolio = quick_portfolio();
    portfolio.most.loop_time_limit = Some(Duration::ZERO);
    for choice in [
        SchedulerChoice::LadderWith(Box::new(ladder)),
        SchedulerChoice::PortfolioWith(Box::new(portfolio)),
    ] {
        let c = compile_loop(&lp, &m, &choice).expect("a lower stage ships");
        assert_eq!(c.rung, Some(Rung::Sat), "{choice:?}");
        assert!(c.stats.deadline_hit, "{choice:?}: the ILP deadline taints");
        let cache = ScheduleCache::new();
        let options = CompileOptions::from(choice);
        for _ in 0..2 {
            cache
                .get_or_compile_with(&lp, &m, &options)
                .expect("compiles");
        }
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert!(cache.is_empty(), "a tainted result is never memoized");
    }
}
