//! Regenerate every figure and table of the paper.
//!
//! ```text
//! cargo run -p swp-bench --release --bin experiments -- all
//! cargo run -p swp-bench --release --bin experiments -- fig2 [--full] [--threads N]
//! cargo run -p swp-bench --release --bin experiments -- speedup --threads 4
//! ```
//!
//! Subcommands: `fig2 fig3 fig4 fig5 fig6 fig7 compile-speed loop-size
//! ii-compare solver ablation-order ablation-iisearch ablation-spill
//! speedup all audit chaos portfolio profile opt serve-chaos serve-smoke`.
//! An unknown subcommand or a non-numeric `--threads` prints this list
//! and exits 2.
//!
//! `opt` (not part of `all`) runs every suite loop (plus the Livermore
//! kernels) through the mid-end pass pipeline, translation-validating
//! every application, and prints the impact table: op counts, RecMII
//! drops, achieved II, and ILP pivot work with the pipeline off vs on.
//! With `-D` a violated `opt_gate` floor (any validation finding, pivots
//! not beating the committed baseline, a missing Livermore RecMII win)
//! exits nonzero, which is how CI enforces that the mid-end keeps paying
//! for itself.
//!
//! `audit` (not part of `all`) compiles every suite loop under both
//! schedulers at full verification and prints a findings table; with `-D`
//! any finding exits nonzero, which is how CI enforces zero findings.
//!
//! `chaos` (not part of `all`) runs every suite down the degradation
//! ladder under each committed fault-injection scenario and prints a
//! containment table; with `-D` any containment violation (an escaped
//! fault, an unrescued loop, an unstructured crash) exits nonzero, which
//! is how CI proves the ladder catches what it claims.
//!
//! `portfolio` (not part of `all`) races ILP, SAT, and the heuristic on
//! every figure suite plus the Livermore kernels under the quick
//! deterministic budgets, printing per-backend win counts, SAT-vs-ILP
//! II parity, and standalone-vs-raced wall clocks; with `-D` a violated
//! floor (SAT below 20/24 Livermore II matches, any determinism
//! violation, a race slower than the slowest backend plus dispatch
//! overhead) exits nonzero, which is how CI holds the third backend and
//! the racing layer to their claims.
//!
//! `solver` (not part of `all`) prints MOST's deterministic node/pivot
//! work counters over the Livermore kernels; with `--gate` it exits
//! nonzero when any committed work floor is violated, which is how CI
//! catches solver-efficiency regressions without trusting wall clocks.
//!
//! `profile` (not part of `all`) runs the traced profile workload and
//! prints the telemetry compile-report; with `--trace FILE` it exports
//! the Chrome `trace_event` JSON (load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>) after schema-validating it. It always runs
//! the dead-metric lint — an `Exact` metric registered but never
//! incremented exits nonzero — which is how CI keeps the registry honest.
//!
//! `serve-chaos` (not part of `all`) runs the service-layer fault
//! sweep: corrupt store records, a crash between temp-write and rename,
//! mid-frame client disconnects, adversarial frames, and an overload
//! burst. With `-D` any failed scenario exits nonzero — CI's proof that
//! a bad client, a bad disk, or a bad day cannot take the service down.
//!
//! `serve-smoke` (not part of `all`) is the CI service gate: an
//! 8-client saturation pass that must answer every loop (overload may
//! demote, never reject), followed by a server kill and restart on the
//! same store that must serve warm from disk, bit-identically.
//!
//! Result figures run on a shared parallel [`Driver`] (`--threads N`,
//! default: all cores) whose schedule cache carries compiles across
//! figures; each figure reports the cache hits/misses it contributed.
//! The compile-*time* tables (`compile-speed`, `loop-size`) always
//! compile from scratch — caching a stopwatch would fake the result.
//! `speedup` measures the whole pipeline both ways and prints the
//! sequential and parallel wall-clocks side by side.

use showdown::Driver;
use swp_bench::{
    ablation_ii_search, ablation_order, ablation_spill, audit_with, chaos_rung_usage,
    chaos_scenarios, chaos_with, compile_speed, driver_speedup, fig2_geomean, fig2_with, fig3_with,
    fig4_with, fig5_with, fig6_fig7_with, ii_compare_with, loop_size, opt_gate, opt_with,
    portfolio_sweep, portfolio_wall_gate, profile_workload, solver_gate, solver_speed, Effort,
};
use swp_heur::PriorityHeuristic;
use swp_machine::Machine;

const SUBCOMMANDS: &str = "fig2 fig3 fig4 fig5 fig6 fig7 compile-speed loop-size ii-compare \
     solver ablation-order ablation-iisearch ablation-spill speedup all audit chaos portfolio \
     profile opt serve-chaos serve-smoke";

/// Print the subcommand list after `problem` and exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("experiments: {problem}\nsubcommands: {SUBCOMMANDS}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let effort = if args.iter().any(|a| a == "--full") {
        Effort::Full
    } else {
        Effort::Quick
    };
    let threads = match args.iter().position(|a| a == "--threads") {
        None => Driver::default_threads(),
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) => n,
            _ => usage("--threads needs a number"),
        },
    };
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    if !SUBCOMMANDS.split(' ').any(|c| c == cmd) {
        usage(&format!("unknown subcommand `{cmd}`"));
    }
    let m = Machine::r8000();
    let driver = Driver::new(threads);

    let run = |name: &str| cmd == "all" || cmd == name;
    let report_cache = |driver: &Driver, before: showdown::CacheStats| {
        let after = driver.cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let total = hits + misses;
        println!(
            "[cache] {hits} hits / {misses} misses ({:.0}% hit rate)\n",
            100.0 * hits as f64 / (total.max(1)) as f64
        );
    };

    if run("fig2") {
        println!("== Figure 2: SPEC92fp-like suites, pipelining enabled vs disabled ==");
        println!(
            "{:<12} {:>12} {:>12} {:>9}",
            "benchmark", "base(time)", "pipe(time)", "speedup"
        );
        let before = driver.cache_stats();
        let rows = fig2_with(&driver, &m, effort);
        for r in &rows {
            println!(
                "{:<12} {:>12.4} {:>12.4} {:>8.2}x",
                r.name,
                r.baseline_time,
                r.pipelined_time,
                r.speedup()
            );
        }
        println!(
            "geometric mean speedup: {:.2}x (paper: >1.35x)",
            fig2_geomean(&rows)
        );
        report_cache(&driver, before);
    }

    if run("fig3") {
        println!("== Figure 3: single priority-list heuristics (ratio vs all four) ==");
        print!("{:<12}", "benchmark");
        for h in PriorityHeuristic::ALL {
            print!(" {h:>7}");
        }
        println!();
        let before = driver.cache_stats();
        let rows = fig3_with(&driver, &m, effort);
        for r in &rows {
            print!("{:<12}", r.name);
            for v in r.ratios {
                print!(" {v:>7.3}");
            }
            println!();
        }
        // Which heuristics are best somewhere?
        let mut best_somewhere = [false; 4];
        for r in &rows {
            let best = r
                .ratios
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("4 entries");
            best_somewhere[best] = true;
        }
        println!(
            "heuristics that win at least one suite: {:?} (paper: 3 of 4)",
            best_somewhere
        );
        report_cache(&driver, before);
    }

    if run("fig4") {
        println!("== Figure 4: memory-bank heuristics enabled vs disabled ==");
        println!("{:<12} {:>12}", "benchmark", "improvement");
        let before = driver.cache_stats();
        for r in fig4_with(&driver, &m, effort) {
            println!("{:<12} {:>11.3}x", r.name, r.improvement);
        }
        println!("(paper: alvinn and mdljdp2 stand out)");
        report_cache(&driver, before);
    }

    if run("fig5") {
        println!("== Figure 5: ILP-scheduled code relative to MIPSpro ==");
        println!(
            "{:<12} {:>12} {:>15} {:>10}",
            "benchmark", "vs pairing", "vs no-pairing", "fallback%"
        );
        let before = driver.cache_stats();
        let rows = fig5_with(&driver, &m, effort);
        for r in &rows {
            println!(
                "{:<12} {:>11.3}x {:>14.3}x {:>9.0}%",
                r.name,
                r.vs_pairing,
                r.vs_no_pairing,
                100.0 * r.fallback_fraction
            );
        }
        let g1: Vec<f64> = rows.iter().map(|r| r.vs_pairing).collect();
        let g2: Vec<f64> = rows.iter().map(|r| r.vs_no_pairing).collect();
        println!(
            "geomean vs pairing: {:.3} (paper ≈ 0.92); vs no-pairing: {:.3} (paper ≈ 1.0)",
            showdown::geometric_mean(&g1),
            showdown::geometric_mean(&g2)
        );
        report_cache(&driver, before);
    }

    if run("fig6") || run("fig7") {
        let before = driver.cache_stats();
        let rows = fig6_fig7_with(&driver, &m, effort);
        if run("fig6") {
            println!("== Figure 6: Livermore kernels, ILP vs MIPSpro (heur/ILP time) ==");
            println!(
                "{:<4} {:<28} {:>9} {:>9} {:>8}",
                "k", "name", "short", "long", "same II"
            );
            for r in &rows {
                println!(
                    "{:<4} {:<28} {:>9.3} {:>9.3} {:>8}",
                    r.number, r.name, r.relative_short, r.relative_long, r.same_ii
                );
            }
            println!();
        }
        if run("fig7") {
            println!("== Figure 7: static deltas per Livermore loop (MIPSpro − ILP) ==");
            println!(
                "{:<4} {:<28} {:>9} {:>11} {:>9}",
                "k", "name", "Δregs", "Δoverhead", "fellback"
            );
            let mut heur_fewer_regs = 0;
            let mut heur_lower_ovh = 0;
            let mut corr_breaks = 0;
            for r in &rows {
                println!(
                    "{:<4} {:<28} {:>9} {:>11} {:>9}",
                    r.number, r.name, r.reg_delta, r.overhead_delta, r.ilp_fell_back
                );
                if r.reg_delta < 0 {
                    heur_fewer_regs += 1;
                }
                if r.overhead_delta < 0 {
                    heur_lower_ovh += 1;
                }
                if (r.reg_delta < 0) != (r.overhead_delta < 0) {
                    corr_breaks += 1;
                }
            }
            println!(
                "heuristic uses fewer registers on {heur_fewer_regs}/24, lower overhead on \
                 {heur_lower_ovh}/24; reg/overhead disagree on {corr_breaks}/24 \
                 (paper: 15/26, 12/26, 16/26 — no consistent winner)"
            );
        }
        report_cache(&driver, before);
    }

    if run("compile-speed") {
        println!("== §4.7: compile-speed comparison ==");
        let c = compile_speed(&m, effort);
        println!(
            "heuristic: {:?} over {} loops; ILP: {:?}; ratio {:.0}x (paper: 259x)\n",
            c.heuristic,
            c.loops,
            c.ilp,
            c.ratio()
        );
    }

    if run("loop-size") {
        println!("== §5.0: largest schedulable loop under a fixed budget ==");
        let s = loop_size(&m, effort);
        println!(
            "heuristic: {} ops; MOST: {} ops (paper: 116 vs 61)\n",
            s.heuristic_max, s.most_max
        );
    }

    if run("ii-compare") {
        println!("== §5.0: achieved II comparison ==");
        let before = driver.cache_stats();
        let c = ii_compare_with(&driver, &m, effort);
        println!(
            "ILP strictly better: {} (paper: 1); heuristic strictly better: {}; ties: {}; \
             ILP wins surviving a 16x backtrack-budget increase: {} (paper: 0)",
            c.ilp_wins, c.heur_wins, c.ties, c.ilp_wins_after_budget_increase
        );
        report_cache(&driver, before);
    }

    if run("ablation-order") {
        println!("== Ablation: MOST branch priority orders (§3.3 adj. 3) ==");
        let a = ablation_order(&m, effort);
        println!(
            "solved with orders: {}/24 ({} nodes); without: {}/24 ({} nodes)\n",
            a.solved_with, a.nodes_with, a.solved_without, a.nodes_without
        );
    }

    if run("ablation-iisearch") {
        println!("== Ablation: two-phase vs plain binary II search (§2.3) ==");
        let a = ablation_ii_search(&m);
        println!(
            "attempts two-phase: {}; plain binary: {}; identical IIs: {}\n",
            a.attempts_two_phase, a.attempts_binary, a.same_quality
        );
    }

    if run("ablation-spill") {
        println!("== Ablation: exponential spilling (§2.8) ==");
        let a = ablation_spill(&m);
        println!(
            "high-pressure loops pipelined with spilling: {}/{}; without: {}/{}\n",
            a.with_spilling, a.total, a.without_spilling, a.total
        );
    }

    if cmd == "solver" {
        let gate = args.iter().any(|a| a == "--gate");
        println!("== Solver speed: MOST work counters, 24 Livermore kernels ==");
        println!("(deterministic quick budgets, fallback off — counters reproduce exactly)");
        println!(
            "{:<4} {:<28} {:>4} {:>6} {:>8} {:>10} {:>10}",
            "k", "name", "ops", "ii", "nodes", "pivots", "piv/node"
        );
        let s = solver_speed(&m);
        for r in &s.rows {
            let ii = r.ii.map_or_else(|| "-".to_owned(), |ii| ii.to_string());
            println!(
                "{:<4} {:<28} {:>4} {:>6} {:>8} {:>10} {:>10.2}",
                r.number,
                r.name,
                r.ops,
                ii,
                r.nodes,
                r.pivots,
                r.pivots as f64 / r.nodes.max(1) as f64
            );
        }
        println!(
            "solved {}/{}; total {} nodes, {} pivots; {:.2} pivots/node",
            s.solved(),
            s.rows.len(),
            s.total_nodes(),
            s.total_pivots(),
            s.pivots_per_node()
        );
        println!(
            "gate floors: solved >= {}, nodes <= {}, pivots <= {}, pivots/node <= {}",
            solver_gate::MIN_SOLVED,
            solver_gate::MAX_TOTAL_NODES,
            solver_gate::MAX_TOTAL_PIVOTS,
            solver_gate::MAX_PIVOTS_PER_NODE
        );
        match s.gate() {
            Ok(()) => println!("gate: ok"),
            Err(e) => {
                println!("gate: FAIL — {e}");
                if gate {
                    std::process::exit(1);
                }
            }
        }
    }

    if cmd == "opt" {
        let deny = args.iter().any(|a| a == "-D" || a == "--deny");
        println!("== Opt: mid-end pass-pipeline impact, every suite + Livermore ==");
        println!("(quick deterministic budgets — every number reproduces exactly)");
        println!(
            "{:<12} {:>5} {:>7} {:>7} {:>5} {:>7} {:>7} {:>7} {:>6} {:>5} {:>10} {:>10}",
            "suite",
            "loops",
            "ops",
            "ops'",
            "-ops",
            "apps",
            "recmii↓",
            "II off",
            "II'",
            "find",
            "piv off",
            "piv full"
        );
        let impact = opt_with(&driver, &m, effort);
        for r in &impact.rows {
            println!(
                "{:<12} {:>5} {:>7} {:>7} {:>5} {:>7} {:>7} {:>7} {:>6} {:>5} {:>10} {:>10}",
                r.suite,
                r.loops,
                r.ops_before,
                r.ops_after,
                r.ops_removed(),
                r.applications,
                r.recmii_drops,
                r.ii_off,
                r.ii_full,
                r.findings,
                r.pivots_off,
                r.pivots_full
            );
        }
        println!(
            "figure suites: {} ops removed; pivots {} -> {} (baseline {}); findings {}",
            impact.figure_ops_removed(),
            impact.figure_pivots_off(),
            impact.figure_pivots_full(),
            opt_gate::BASELINE_TOTAL_PIVOTS,
            impact.total_findings()
        );
        println!(
            "gate floors: findings == 0, audit errors == 0, full pivots < off and < {} \
             (ceiling {}), ops removed >= {}, livermore recmii drops >= {}, II improved >= {}",
            opt_gate::BASELINE_TOTAL_PIVOTS,
            opt_gate::MAX_FIGURE_PIVOTS_FULL,
            opt_gate::MIN_FIGURE_OPS_REMOVED,
            opt_gate::MIN_LIVERMORE_RECMII_DROPS,
            opt_gate::MIN_LIVERMORE_II_IMPROVED
        );
        match impact.gate() {
            Ok(()) => println!("gate: ok"),
            Err(e) => {
                println!("gate: FAIL — {e}");
                if deny {
                    std::process::exit(1);
                }
            }
        }
    }

    if cmd == "audit" {
        let deny = args.iter().any(|a| a == "-D" || a == "--deny");
        println!("== Audit: translation validation, every suite x both schedulers ==");
        println!(
            "{:<12} {:<10} {:>6} {:>7} {:>9} {:>6}",
            "suite", "scheduler", "loops", "errors", "warnings", "notes"
        );
        let rows = audit_with(&driver, &m, effort);
        let mut total = 0usize;
        for r in &rows {
            println!(
                "{:<12} {:<10} {:>6} {:>7} {:>9} {:>6}",
                r.audit.name,
                r.scheduler,
                r.audit.loops.len(),
                r.count(showdown::Severity::Error),
                r.count(showdown::Severity::Warning),
                r.count(showdown::Severity::Note)
            );
            for l in &r.audit.loops {
                if !l.report.findings.is_empty() {
                    println!("  {}::{} (II={}):", r.audit.name, l.loop_name, l.ii);
                    for line in l.report.render_human().lines() {
                        println!("    {line}");
                    }
                }
            }
            total += r.findings();
        }
        println!("total findings: {total}");
        if deny && total > 0 {
            std::process::exit(1);
        }
    }

    if cmd == "chaos" {
        let deny = args.iter().any(|a| a == "-D" || a == "--deny");
        // Injected panics are the point; keep their backtraces out of the log.
        showdown::hush_injected_panics();
        println!("== Chaos: fault injection vs the degradation ladder, every suite ==");
        println!(
            "{:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8} {:>11}",
            "scenario", "loops", "r0", "r1", "r2", "r3", "r4", "quar", "escapes", "violations"
        );
        let rows = chaos_with(&driver, &m, effort);
        let mut total_violations = 0usize;
        for sc in &chaos_scenarios() {
            let (mut loops, mut quar, mut escapes, mut violations) = (0usize, 0, 0, 0);
            let mut usage = [0usize; 5];
            for r in rows.iter().filter(|r| r.scenario == sc.name) {
                loops += r.suite.loops.len();
                for (u, n) in usage.iter_mut().zip(r.suite.rung_usage()) {
                    *u += n;
                }
                quar += r.suite.quarantined();
                escapes += r.escapes();
                violations += r.violations();
            }
            total_violations += violations;
            println!(
                "{:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8} {:>11}",
                sc.name,
                loops,
                usage[0],
                usage[1],
                usage[2],
                usage[3],
                usage[4],
                quar,
                escapes,
                violations
            );
        }
        for r in rows.iter().filter(|r| r.violations() > 0) {
            println!("  VIOLATION in {} under {}:", r.suite.name, r.scenario);
            for l in &r.suite.loops {
                let bad = match &l.outcome {
                    Ok(s) => !s.clean,
                    Err(_) => !r.expect_quarantine,
                };
                if bad || l.escapes() > 0 {
                    println!(
                        "    {}: {}",
                        l.loop_name,
                        showdown::render_attempts(l.attempts())
                    );
                }
            }
        }
        let usage = chaos_rung_usage(&rows);
        println!(
            "control rung usage (no faults): ilp={} sat={} heuristic={} escalated={} sequential={}",
            usage[0], usage[1], usage[2], usage[3], usage[4]
        );
        println!("total containment violations: {total_violations}");
        if deny && total_violations > 0 {
            std::process::exit(1);
        }
    }

    if cmd == "portfolio" {
        let deny = args.iter().any(|a| a == "-D" || a == "--deny");
        println!("== Portfolio: ILP vs SAT vs heuristic, raced per loop ==");
        println!(
            "{:<12} {:>5} {:>4} {:>4} {:>4} {:>4} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9}",
            "suite",
            "loops",
            "ilp",
            "sat",
            "heur",
            "none",
            "sat=ilp",
            "viols",
            "race(ms)",
            "ilp(ms)",
            "sat(ms)",
            "heur(ms)"
        );
        let rows = portfolio_sweep(&m);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        for r in &rows {
            println!(
                "{:<12} {:>5} {:>4} {:>4} {:>4} {:>4} {:>3}/{:<3} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                r.name,
                r.loops,
                r.ilp_wins,
                r.sat_wins,
                r.heur_wins,
                r.no_winner,
                r.sat_ii_matches,
                r.both_optimal,
                r.determinism_violations,
                ms(r.portfolio_wall),
                ms(r.ilp_wall),
                ms(r.sat_wall),
                ms(r.heur_wall)
            );
        }
        let violations: usize = rows.iter().map(|r| r.determinism_violations).sum();
        let livermore = rows
            .iter()
            .find(|r| r.name == "livermore")
            .expect("sweep always includes the kernels");
        let wall_ok = portfolio_wall_gate(&rows);
        println!(
            "gates: livermore sat=ilp {}/{} (floor 20), determinism violations {violations} \
             (floor 0), wall-vs-slowest-backend {}",
            livermore.sat_ii_matches,
            livermore.both_optimal,
            if wall_ok { "ok" } else { "FAIL" }
        );
        if deny && (livermore.sat_ii_matches < 20 || violations > 0 || !wall_ok) {
            std::process::exit(1);
        }
    }

    if cmd == "profile" {
        let trace_path = args
            .iter()
            .position(|a| a == "--trace")
            .and_then(|i| args.get(i + 1));
        println!("== Profile: traced telemetry over the profile workload ==");
        let report = profile_workload(&m, threads);
        print!("{}", report.telemetry.render_report());
        println!(
            "compiles issued: {}; cache: {} hits / {} misses; spans recorded: {}",
            report.loops,
            report.cache.hits,
            report.cache.misses,
            report.telemetry.span_count()
        );
        if let Some(path) = trace_path {
            let json = report.telemetry.chrome_trace_json();
            match swp_obs::validate_chrome_trace(&json) {
                Ok(events) => println!("trace: {events} events, schema ok"),
                Err(e) => {
                    eprintln!("trace: INVALID chrome trace — {e}");
                    std::process::exit(1);
                }
            }
            swp_serve::write_atomic(std::path::Path::new(path), json.as_bytes())
                .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
            println!("trace written to {path}");
        }
        let dead = report.telemetry.dead_exact_metrics();
        if dead.is_empty() {
            println!("dead-metric lint: ok (every Exact metric incremented)");
        } else {
            println!("dead-metric lint: FAIL — registered but never incremented: {dead:?}");
            std::process::exit(1);
        }
    }

    if cmd == "serve-chaos" {
        let deny = args.iter().any(|a| a == "-D" || a == "--deny");
        println!("== Serve chaos: service-layer fault injection ==");
        println!("{:<28} {:>6}  detail", "scenario", "pass");
        let root = serve_root("chaos");
        let reports = swp_serve::service_chaos(&m, &root);
        let mut failed = 0usize;
        for r in &reports {
            println!(
                "{:<28} {:>6}  {}",
                r.scenario,
                if r.passed { "ok" } else { "FAIL" },
                r.detail
            );
            failed += usize::from(!r.passed);
        }
        println!("scenarios failed: {failed}/{}", reports.len());
        let _ = std::fs::remove_dir_all(&root);
        if deny && failed > 0 {
            std::process::exit(1);
        }
    }

    if cmd == "serve-smoke" {
        let deny = args.iter().any(|a| a == "-D" || a == "--deny");
        println!("== Serve smoke: 8-client saturation + kill/restart warm-hit gate ==");
        let root = serve_root("smoke");
        let sat =
            swp_serve::saturate(&m, 8, &root).unwrap_or_else(|e| panic!("saturation smoke: {e}"));
        let _ = std::fs::remove_dir_all(&root);
        print_saturation(&sat);
        let mut failures = Vec::new();
        if sat.errors > 0 {
            failures.push(format!(
                "{} error replies (overload must demote, never reject)",
                sat.errors
            ));
        }
        if sat.restart_hit_rate() <= 0.0 {
            failures.push("restart phase served zero disk hits".to_owned());
        }
        if failures.is_empty() {
            println!("gate: ok");
        } else {
            for f in &failures {
                println!("gate: FAIL — {f}");
            }
            if deny {
                std::process::exit(1);
            }
        }
    }

    if cmd == "speedup" {
        println!("== Parallel driver + schedule cache vs sequential reference ==");
        println!("({} threads; figure set: fig2–fig7 + ii-compare)", threads);
        println!(
            "{:<12} {:>14} {:>14} {:>9} {:>7} {:>8} {:>9}",
            "figure", "sequential", "parallel", "speedup", "hits", "misses", "hit rate"
        );
        let rows = driver_speedup(&m, effort, threads);
        let mut seq_total = 0.0;
        let mut par_total = 0.0;
        for r in &rows {
            seq_total += r.sequential.as_secs_f64();
            par_total += r.parallel.as_secs_f64();
            println!(
                "{:<12} {:>13.3}s {:>13.3}s {:>8.2}x {:>7} {:>8} {:>8.0}%",
                r.figure,
                r.sequential.as_secs_f64(),
                r.parallel.as_secs_f64(),
                r.speedup(),
                r.hits,
                r.misses,
                100.0 * r.hit_rate()
            );
        }
        println!(
            "end-to-end: sequential {:.3}s, parallel+cached {:.3}s — {:.2}x speedup",
            seq_total,
            par_total,
            seq_total / par_total.max(1e-9)
        );
    }
}

/// A private scratch directory for service runs (store + socket debris).
fn serve_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swp-exp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn print_saturation(sat: &swp_serve::SaturationReport) {
    println!(
        "{} clients x {} loops/phase; error replies: {}",
        sat.clients, sat.loops_per_phase, sat.errors
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10}",
        "phase", "batches", "p50(us)", "p99(us)"
    );
    for (name, p) in [
        ("cold", &sat.cold),
        ("warm", &sat.warm),
        ("restart", &sat.restart),
    ] {
        println!(
            "{:<8} {:>8} {:>10} {:>10}",
            name, p.batches, p.p50_us, p.p99_us
        );
    }
    println!(
        "cold server: {} admitted, {} demoted, {} persisted; restart server: {} disk hits / {} \
         admitted ({:.0}% disk hit rate), {} recompiles",
        sat.cold_stats.admitted,
        sat.cold_stats.demoted,
        sat.cold_stats.store.persisted,
        sat.restart_stats.store.hits,
        sat.restart_stats.admitted,
        100.0 * sat.restart_hit_rate(),
        sat.restart_stats.cache.misses
    );
}
