//! Behaviour pins for the stage runner shared by the degradation ladder
//! and the portfolio racer.
//!
//! - The schedule-cache keys of a fixed set of requests are pinned to
//!   literal values. The keys are also the disk store's record names, so
//!   a store written by an older binary stays reachable only while these
//!   values hold.
//! - The default options carry an inert cancel token and no wall clock,
//!   so a default compile is host-independent and the cache may memoize
//!   it. A token's deadline is no part of the key.
//! - A token's deadline stops an ILP solve in flight, not just the next
//!   II.
//! - The taint rule: a stage ranked above the winner that hit a
//!   wall-clock deadline makes *which* stage won host-dependent, so the
//!   shipped result carries `deadline_hit` and the cache never memoizes
//!   it. Both run modes (sequential ladder, raced portfolio) obey it.

use showdown::{
    cache_key_with, compile_loop, CacheStats, CancelToken, ChaosFault, ChaosOptions, CompileError,
    CompileOptions, Corruption, LadderOptions, OptLevel, PortfolioOptions, Rung, ScheduleCache,
    SchedulerChoice, VerifyLevel,
};
use std::time::{Duration, Instant};
use swp_heur::{HeurOptions, SearchError};
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
        0x73eb_8639_b43b_c7ca, // ilp
        0x73eb_8639_b43b_c7ca, // ilp-with
        0xbfb3_26d6_46fa_e2a1, // sat
        0xbfb3_26d6_46fa_e2a1, // sat-with
        0x4e7a_9592_950a_a81b, // ladder
        0x4e7a_9592_950a_a81b, // ladder-with
        0xe7b0_ed9b_bc0d_82f9, // portfolio
        0xe7b0_ed9b_bc0d_82f9, // portfolio-with
        0x7807_6dc2_cafa_eb9e, // ladder-demoted-1
        0x4ff6_fda7_522d_ee74, // ladder-demoted-2
        0x0c8d_fda4_4c62_1a57, // ladder-chaos
        0x0d7d_18be_dc93_64dc, // portfolio-no-ilp
        0x4e73_c792_9504_de63, // ladder-verified-opt
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
fn the_default_budgets_carry_an_inert_token() {
    let most = MostOptions::default();
    assert!(!most.cancel.is_real(), "no stop signal, no wall clock");
    assert!(most.loop_pivot_limit.is_some(), "a loop is bounded by work");
    let sat = SatOptions::default();
    assert!(!sat.cancel.is_real(), "no stop signal, no wall clock");
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
    // A deadline is no part of a request's identity either.
    let mut timed = LadderOptions::default();
    timed.most.cancel = CancelToken::with_deadline(Instant::now() + Duration::from_secs(60));
    timed.sat.cancel = timed.most.cancel.clone();
    assert_eq!(
        key(&lp, SchedulerChoice::LadderWith(Box::new(timed)).into()),
        plain
    );
    let timed_ilp = MostOptions {
        cancel: CancelToken::with_deadline(Instant::now()),
        ..MostOptions::default()
    };
    assert_eq!(
        key(&lp, SchedulerChoice::IlpWith(timed_ilp).into()),
        key(&lp, SchedulerChoice::Ilp.into())
    );
}

/// mdljsp2 `force` spends about 53 s of default-budget ILP before its
/// feasibility search gives up, most of it inside single solves. A token
/// that expires 100 ms in must stop the solve in flight, not only the
/// next II.
#[test]
fn a_token_deadline_stops_an_ilp_solve_in_flight() {
    let suites = swp_kernels::spec_suites();
    let force = suites
        .iter()
        .find(|s| s.name == "mdljsp2")
        .map(|s| &s.loops[0].body)
        .expect("mdljsp2 is a spec suite");
    // The optimized build answers within 2 s. An unoptimized build
    // builds the model and pivots between polls about ten times slower,
    // so it gets a looser bound.
    let bound = Duration::from_secs(if cfg!(debug_assertions) { 5 } else { 2 });
    let start = Instant::now();
    let opts = MostOptions {
        fallback: false,
        cancel: CancelToken::with_deadline(start + Duration::from_millis(100)),
        ..MostOptions::default()
    };
    let r = compile_loop(force, &Machine::r8000(), &SchedulerChoice::IlpWith(opts));
    let took = start.elapsed();
    assert!(
        matches!(
            r,
            Err(CompileError::Ilp(SearchError::NoSchedule {
                deadline_hit: true,
                ..
            }))
        ),
        "{:?}",
        r.map(|c| c.stats)
    );
    assert!(took < bound, "stopped after {took:?}, bound {bound:?}");
}

#[test]
fn a_deadline_above_the_winner_taints_both_modes() {
    let m = Machine::r8000();
    let lp = saxpy();
    let expired = CancelToken::with_deadline(Instant::now());
    let mut ladder = LadderOptions::default();
    ladder.most.cancel = expired.clone();
    let mut portfolio = PortfolioOptions::default();
    portfolio.most.cancel = expired;
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
