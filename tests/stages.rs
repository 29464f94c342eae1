//! Behaviour pins for the stage runner shared by the degradation ladder
//! and the portfolio racer.
//!
//! - The schedule-cache keys of a fixed set of requests are pinned to
//!   literal values. The keys are also the disk store's record names, so
//!   a store written by an older binary stays reachable only while these
//!   values hold.
//! - The default budgets carry no wall clock, so a default compile is
//!   host-independent and the cache may memoize it.
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
        ..LadderOptions::default()
    };
    let no_ilp = PortfolioOptions {
        use_ilp: false,
        ..PortfolioOptions::default()
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
        (
            "ilp-with",
            SchedulerChoice::IlpWith(MostOptions::default()).into(),
        ),
        ("sat", SchedulerChoice::Sat.into()),
        (
            "sat-with",
            SchedulerChoice::SatWith(SatOptions::default()).into(),
        ),
        ("ladder", SchedulerChoice::Ladder.into()),
        (
            "ladder-with",
            SchedulerChoice::LadderWith(Box::default()).into(),
        ),
        ("portfolio", SchedulerChoice::Portfolio.into()),
        (
            "portfolio-with",
            SchedulerChoice::PortfolioWith(Box::default()).into(),
        ),
        (
            "ladder-demoted-1",
            SchedulerChoice::LadderWith(Box::new(LadderOptions::default().demoted(1))).into(),
        ),
        (
            "ladder-demoted-2",
            SchedulerChoice::LadderWith(Box::new(LadderOptions::default().demoted(2))).into(),
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
                choice: SchedulerChoice::LadderWith(Box::default()),
                verify: VerifyLevel::Full,
                opt: OptLevel::Full,
                ..CompileOptions::default()
            },
        ),
    ];
    // Each default spelling (`ilp`, `sat`, `ladder`, `portfolio`) keys
    // like its explicit default form; the other 11 keys are distinct.
    let expected: [u64; 15] = [
        0x5150_f3ed_2d6a_ace3, // heuristic
        0x78f6_56f0_c19f_b1c1, // heuristic-with
        0x7bd6_d1db_7f0d_d8f2, // ilp
        0x7bd6_d1db_7f0d_d8f2, // ilp-with
        0x1788_1b94_3169_acb3, // sat
        0x1788_1b94_3169_acb3, // sat-with
        0xcca7_771f_6184_c3bd, // ladder
        0xcca7_771f_6184_c3bd, // ladder-with
        0x4c9c_184f_ebef_880f, // portfolio
        0x4c9c_184f_ebef_880f, // portfolio-with
        0xfbbc_d04c_0045_0384, // ladder-demoted-1
        0xd963_84f1_74f5_a80e, // ladder-demoted-2
        0x5866_8aa9_d1ee_1465, // ladder-chaos
        0x2d66_d1ba_1c44_a1fe, // portfolio-no-ilp
        0xccae_451f_618a_8d75, // ladder-verified-opt
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
    let distinct: std::collections::HashSet<u64> = actual.iter().copied().collect();
    assert_eq!(distinct.len(), actual.len() - 4, "pinned requests collided");
}

#[test]
fn the_default_budgets_set_no_wall_clock() {
    let most = MostOptions::default();
    assert_eq!((most.time_limit, most.loop_time_limit), (None, None));
    assert!(most.loop_pivot_limit.is_some(), "a loop is bounded by work");
    let sat = SatOptions::default();
    assert_eq!((sat.time_limit, sat.loop_time_limit), (None, None));
    assert!(
        sat.loop_conflict_limit.is_some(),
        "a loop is bounded by work"
    );
    // So a default compile is memoized like any deterministic result.
    let cache = ScheduleCache::new();
    for choice in [SchedulerChoice::Ilp, SchedulerChoice::Sat] {
        let c = cache
            .get_or_compile_with(&saxpy(), &Machine::r8000(), &choice.into())
            .expect("compiles");
        assert!(!c.stats.deadline_hit);
    }
    assert_eq!(cache.len(), 2);
}

/// What the pinned values must never change: which requests share a
/// key. Each default spelling aliases its explicit default form, and
/// neither the names in a loop nor an observer changes its identity.
#[test]
fn cache_key_equivalence_classes_are_pinned() {
    let m = Machine::r8000();
    let lp = saxpy();
    let key = |lp: &Loop, o: CompileOptions| cache_key_with(lp, &m, &o);
    let spellings: [(SchedulerChoice, SchedulerChoice); 5] = [
        (
            SchedulerChoice::Heuristic,
            SchedulerChoice::HeuristicWith(HeurOptions::default()),
        ),
        (
            SchedulerChoice::Ilp,
            SchedulerChoice::IlpWith(MostOptions::default()),
        ),
        (
            SchedulerChoice::Sat,
            SchedulerChoice::SatWith(SatOptions::default()),
        ),
        (
            SchedulerChoice::Ladder,
            SchedulerChoice::LadderWith(Box::default()),
        ),
        (
            SchedulerChoice::Portfolio,
            SchedulerChoice::PortfolioWith(Box::default()),
        ),
    ];
    for (short, explicit) in spellings {
        assert_eq!(
            key(&lp, short.clone().into()),
            key(&lp, explicit.clone().into()),
            "{short:?} and {explicit:?} must share a key"
        );
    }
    // Every name in the loop renamed: same body, same key.
    let renamed = Loop::from_raw_parts(
        "renamed".to_owned(),
        lp.ops().to_vec(),
        lp.values()
            .iter()
            .enumerate()
            .map(|(i, v)| swp_ir::ValueInfo {
                name: format!("v{i}"),
                ..v.clone()
            })
            .collect(),
        lp.arrays()
            .iter()
            .enumerate()
            .map(|(i, a)| swp_ir::ArrayInfo {
                name: format!("a{i}"),
                ..a.clone()
            })
            .collect(),
    )
    .expect("renaming keeps the loop valid");
    assert_ne!(renamed, lp);
    let plain = key(&lp, SchedulerChoice::Ladder.into());
    assert_eq!(key(&renamed, SchedulerChoice::Ladder.into()), plain);
    let traced = CompileOptions {
        telemetry: showdown::Telemetry::with_tracing(),
        ..SchedulerChoice::Ladder.into()
    };
    assert_eq!(key(&lp, traced), plain);
}

#[test]
fn a_deadline_above_the_winner_taints_both_modes() {
    let m = Machine::r8000();
    let lp = saxpy();
    let mut ladder = LadderOptions::default();
    ladder.most.loop_time_limit = Some(Duration::ZERO);
    let mut portfolio = PortfolioOptions::default();
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
