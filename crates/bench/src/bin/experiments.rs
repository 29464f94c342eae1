//! Regenerate every figure and table of the paper.
//!
//! ```text
//! cargo run -p swp-bench --release --bin experiments -- all
//! cargo run -p swp-bench --release --bin experiments -- fig2 [--threads N]
//! cargo run -p swp-bench --release --bin experiments -- audit -D
//! ```
//!
//! Subcommands: `fig2 fig3 fig4 fig5 fig6 fig7 compile-speed loop-size
//! ii-compare solver ablation-order ablation-iisearch ablation-spill all
//! audit chaos portfolio profile opt serve-chaos serve-smoke`.
//! An unknown subcommand or a non-numeric `--threads` prints this list
//! and exits 2.
//!
//! **Gates.** stdout is the golden; stderr is everything else. Every
//! subcommand writes only its deterministic rendering to stdout: the same
//! bytes at any `--threads`, on any host. Wall clocks, load-dependent
//! counts and verdicts go to stderr. The nine commands with a committed
//! `gates/<cmd>.golden` (`all audit opt solver chaos portfolio profile
//! serve-chaos serve-smoke`) take `-D` (or
//! `--deny`). It exits 1 when stdout differs from the golden (naming the
//! first differing line) or when a must-be-zero invariant is broken:
//! an audit finding, an opt validation finding or audit error, a chaos
//! containment violation, a portfolio determinism violation or a race
//! slower than 1.5× the slowest backend + 500 ms, a failed serve-chaos
//! scenario, a serve-smoke error reply or cold restart, a dead profile
//! metric, an invalid trace, or registry cache counters that disagree with
//! the caches. `-D` on any other subcommand is a usage error. A change
//! that means to move a number re-blesses the golden by redirect,
//! `experiments -- <cmd> > gates/<cmd>.golden`, and shows the diff in
//! CHANGES.md.
//!
//! Not part of `all`:
//! - `audit` compiles every suite loop under both schedulers at full
//!   verification and prints a findings table.
//! - `opt` runs every suite loop (plus the Livermore kernels) through the
//!   translation-validated mid-end pass pipeline and prints op counts,
//!   RecMII drops, achieved II and ILP pivots with the pipeline off vs on.
//! - `solver` prints MOST's node, pivot, refactorization and bound-flip
//!   counters and buffer totals over the Livermore kernels.
//! - `chaos` runs every suite down the degradation ladder under each
//!   committed fault-injection scenario and prints a containment table.
//! - `portfolio` races ILP, SAT and the heuristic on every figure suite
//!   plus the Livermore kernels: win counts, SAT-vs-ILP II parity, and
//!   (on stderr) standalone-vs-raced wall clocks.
//! - `profile` runs the traced profile workload and prints the telemetry
//!   compile-report; `--trace FILE` exports the schema-validated Chrome
//!   `trace_event` JSON (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>).
//! - `serve-chaos` runs the service-layer fault sweep: corrupt store
//!   records, a crash between temp-write and rename, mid-frame client
//!   disconnects, adversarial frames and an overload burst.
//! - `serve-smoke` runs 8 saturating clients (overload may demote, never
//!   reject), then kills and restarts the server on the same store, which
//!   must serve warm from disk.
//!
//! Result figures run on a shared parallel [`Driver`] (`--threads N`,
//! default: all cores) whose schedule cache carries compiles across
//! figures; each figure reports the cache hits/misses it contributed.
//! The compile-*time* tables (`compile-speed`, `loop-size`) always
//! compile from scratch — caching a stopwatch would fake the result.

use showdown::Driver;
use swp_bench::{
    ablation_ii_search, ablation_order, ablation_spill, audit_with, chaos_rung_usage,
    chaos_scenarios, chaos_with, compile_speed, diff_golden, fig2_geomean, fig2_with, fig3_with,
    fig4_with, fig5_with, fig6_fig7_with, ii_compare_with, loop_size, opt_with, portfolio_sweep,
    portfolio_wall_gate, profile_workload, solver_speed, HEURISTIC_PASSES,
};
use swp_heur::PriorityHeuristic;
use swp_machine::Machine;
use swp_obs::{Class, Counter, Histo};

const SUBCOMMANDS: &str = "fig2 fig3 fig4 fig5 fig6 fig7 compile-speed loop-size ii-compare \
     solver ablation-order ablation-iisearch ablation-spill all audit chaos portfolio profile opt \
     serve-chaos serve-smoke";

macro_rules! goldens {
    ($($cmd:literal)*) => {
        [$(($cmd, include_str!(concat!("../../../../gates/", $cmd, ".golden")))),*]
    };
}

/// The committed stdout of every command `-D` checks.
const GOLDENS: [(&str, &str); 9] = goldens!(
    "all" "audit" "opt" "solver" "chaos" "portfolio" "profile" "serve-chaos" "serve-smoke"
);

/// Print the subcommand list after `problem` and exit 2.
fn usage(problem: &str) -> ! {
    eprintln!("experiments: {problem}\nsubcommands: {SUBCOMMANDS}");
    std::process::exit(2);
}

/// The deterministic stdout of one run: `write!`/`writeln!` into it echo
/// to the terminal and keep the text for the `-D` diff.
#[derive(Default)]
struct Stdout(String);

impl Stdout {
    fn write_fmt(&mut self, args: std::fmt::Arguments) {
        let s = args.to_string();
        print!("{s}");
        self.0.push_str(&s);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match args.iter().position(|a| a == "--threads") {
        None => Driver::default_threads(),
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) => n,
            _ => usage("--threads needs a number"),
        },
    };
    let deny = args.iter().any(|a| a == "-D" || a == "--deny");
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    if !SUBCOMMANDS.split(' ').any(|c| c == cmd) {
        usage(&format!("unknown subcommand `{cmd}`"));
    }
    let golden = GOLDENS.iter().find(|(c, _)| *c == cmd).map(|(_, g)| *g);
    if deny && golden.is_none() {
        usage(&format!("`{cmd}` has no golden to check with -D"));
    }
    let m = Machine::r8000();
    let driver = Driver::new(threads);
    let mut o = Stdout::default();
    let mut violations: Vec<String> = Vec::new();

    let run = |name: &str| cmd == "all" || cmd == name;

    if run("fig2") {
        writeln!(
            o,
            "== Figure 2: SPEC92fp-like suites, pipelining enabled vs disabled ==\n\
             {:<12} {:>12} {:>12} {:>9}",
            "benchmark", "base(time)", "pipe(time)", "speedup"
        );
        let before = driver.cache_stats();
        let rows = fig2_with(&driver, &m);
        for r in &rows {
            writeln!(
                o,
                "{:<12} {:>12.4} {:>12.4} {:>8.2}x",
                r.name,
                r.baseline_time,
                r.pipelined_time,
                r.speedup()
            );
        }
        writeln!(
            o,
            "geometric mean speedup: {:.2}x (paper: >1.35x)",
            fig2_geomean(&rows)
        );
        report_cache(&mut o, &driver, before);
    }

    if run("fig3") {
        let heads: String = PriorityHeuristic::ALL
            .iter()
            .map(|h| format!(" {h:>7}"))
            .collect();
        writeln!(
            o,
            "== Figure 3: single priority-list heuristics (ratio vs all four) ==\n\
             {:<12}{heads}",
            "benchmark"
        );
        let before = driver.cache_stats();
        let rows = fig3_with(&driver, &m);
        for r in &rows {
            let ratios: String = r.ratios.iter().map(|v| format!(" {v:>7.3}")).collect();
            writeln!(o, "{:<12}{ratios}", r.name);
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
        writeln!(
            o,
            "heuristics that win at least one suite: {:?} (paper: 3 of 4)",
            best_somewhere
        );
        report_cache(&mut o, &driver, before);
    }

    if run("fig4") {
        writeln!(
            o,
            "== Figure 4: memory-bank heuristics enabled vs disabled ==\n{:<12} {:>12}",
            "benchmark", "improvement"
        );
        let before = driver.cache_stats();
        for r in fig4_with(&driver, &m) {
            writeln!(o, "{:<12} {:>11.3}x", r.name, r.improvement);
        }
        writeln!(o, "(paper: alvinn and mdljdp2 stand out)");
        report_cache(&mut o, &driver, before);
    }

    if run("fig5") {
        writeln!(
            o,
            "== Figure 5: ILP-scheduled code relative to MIPSpro ==\n\
             {:<12} {:>12} {:>15} {:>10}",
            "benchmark", "vs pairing", "vs no-pairing", "fallback%"
        );
        let before = driver.cache_stats();
        let rows = fig5_with(&driver, &m);
        for r in &rows {
            writeln!(
                o,
                "{:<12} {:>11.3}x {:>14.3}x {:>9.0}%",
                r.name,
                r.vs_pairing,
                r.vs_no_pairing,
                100.0 * r.fallback_fraction
            );
        }
        let g1: Vec<f64> = rows.iter().map(|r| r.vs_pairing).collect();
        let g2: Vec<f64> = rows.iter().map(|r| r.vs_no_pairing).collect();
        writeln!(
            o,
            "geomean vs pairing: {:.3} (paper ≈ 0.92); vs no-pairing: {:.3} (paper ≈ 1.0)",
            showdown::geometric_mean(&g1),
            showdown::geometric_mean(&g2)
        );
        report_cache(&mut o, &driver, before);
    }

    if run("fig6") || run("fig7") {
        let before = driver.cache_stats();
        let rows = fig6_fig7_with(&driver, &m);
        if run("fig6") {
            writeln!(
                o,
                "== Figure 6: Livermore kernels, ILP vs MIPSpro (heur/ILP time) ==\n\
                 {:<4} {:<28} {:>9} {:>9} {:>8}",
                "k", "name", "short", "long", "same II"
            );
            for r in &rows {
                writeln!(
                    o,
                    "{:<4} {:<28} {:>9.3} {:>9.3} {:>8}",
                    r.number, r.name, r.relative_short, r.relative_long, r.same_ii
                );
            }
            writeln!(o);
        }
        if run("fig7") {
            writeln!(
                o,
                "== Figure 7: static deltas per Livermore loop (MIPSpro − ILP) ==\n\
                 {:<4} {:<28} {:>9} {:>11} {:>9}",
                "k", "name", "Δregs", "Δoverhead", "fellback"
            );
            for r in &rows {
                writeln!(
                    o,
                    "{:<4} {:<28} {:>9} {:>11} {:>9}",
                    r.number, r.name, r.reg_delta, r.overhead_delta, r.ilp_fell_back
                );
            }
            let count = |f: fn(i64, i64) -> bool| {
                rows.iter()
                    .filter(|r| f(r.reg_delta, r.overhead_delta))
                    .count()
            };
            let heur_fewer_regs = count(|regs, _| regs < 0);
            let heur_lower_ovh = count(|_, ovh| ovh < 0);
            let corr_breaks = count(|regs, ovh| (regs < 0) != (ovh < 0));
            writeln!(
                o,
                "heuristic uses fewer registers on {heur_fewer_regs}/24, lower overhead on \
                 {heur_lower_ovh}/24; reg/overhead disagree on {corr_breaks}/24 \
                 (paper: 15/26, 12/26, 16/26 — no consistent winner)"
            );
        }
        report_cache(&mut o, &driver, before);
    }

    if run("compile-speed") {
        writeln!(o, "== §4.7: compile-speed comparison ==");
        let c = compile_speed(&m);
        eprintln!(
            "heuristic: {:?} over {} loops (fastest of {HEURISTIC_PASSES} runs per loop, \
             interleaved with ILP); ILP: {:?} (one pass); ratio {:.0}x (paper: 259x)",
            c.heuristic,
            c.loops,
            c.ilp,
            c.ratio()
        );
        writeln!(o);
    }

    if run("loop-size") {
        let s = loop_size(&m);
        writeln!(
            o,
            "== §5.0: largest schedulable loop under a fixed budget ==\n\
             heuristic: {} ops; MOST: {} ops (paper: 116 vs 61)\n",
            s.heuristic_max, s.most_max
        );
    }

    if run("ii-compare") {
        writeln!(o, "== §5.0: achieved II comparison ==");
        let before = driver.cache_stats();
        let c = ii_compare_with(&driver, &m);
        writeln!(
            o,
            "ILP strictly better: {} (paper: 1); heuristic strictly better: {}; ties: {}; \
             ILP wins surviving a 16x backtrack-budget increase: {} (paper: 0)",
            c.ilp_wins, c.heur_wins, c.ties, c.ilp_wins_after_budget_increase
        );
        report_cache(&mut o, &driver, before);
    }

    if run("ablation-order") {
        let a = ablation_order(&m);
        writeln!(
            o,
            "== Ablation: MOST branch priority orders (§3.3 adj. 3) ==\n\
             solved with orders: {}/24 ({} nodes); without: {}/24 ({} nodes)\n",
            a.solved_with, a.nodes_with, a.solved_without, a.nodes_without
        );
    }

    if run("ablation-iisearch") {
        let a = ablation_ii_search(&m);
        writeln!(
            o,
            "== Ablation: two-phase vs plain binary II search (§2.3) ==\n\
             attempts two-phase: {}; plain binary: {}; identical IIs: {}\n",
            a.attempts_two_phase, a.attempts_binary, a.same_quality
        );
    }

    if run("ablation-spill") {
        writeln!(o, "== Ablation: exponential spilling (§2.8) ==");
        let a = ablation_spill(&m);
        writeln!(
            o,
            "high-pressure loops pipelined with spilling: {}/{}; without: {}/{}\n",
            a.with_spilling, a.total, a.without_spilling, a.total
        );
    }

    if cmd == "solver" {
        write!(o, "{}", solver_speed(&m).render());
    }

    if cmd == "opt" {
        writeln!(
            o,
            "== Opt: mid-end pass-pipeline impact, every suite + Livermore ==\n\
             (quick deterministic budgets — every number reproduces exactly)\n\
             {:<12} {:>5} {:>7} {:>7} {:>5} {:>7} {:>7} {:>7} {:>6} {:>5} {:>10} {:>10}",
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
        let rows = opt_with(&driver, &m);
        for r in &rows {
            writeln!(
                o,
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
        let figure = || rows.iter().filter(|r| r.figure);
        let findings: usize = rows.iter().map(|r| r.findings).sum();
        writeln!(
            o,
            "figure suites: {} ops removed; pivots {} -> {}; findings {findings}",
            figure().map(|r| r.ops_removed()).sum::<usize>(),
            figure().map(|r| r.pivots_off).sum::<u64>(),
            figure().map(|r| r.pivots_full).sum::<u64>()
        );
        for r in rows.iter().filter(|r| !r.figure) {
            writeln!(
                o,
                "{}: II improved on {}/{} loops",
                r.suite, r.ii_improved, r.loops
            );
        }
        let audit_errors: usize = rows.iter().map(|r| r.audit_errors).sum();
        for (n, what) in [
            (findings, "SWP-P validation findings"),
            (audit_errors, "error-severity audit findings"),
        ] {
            if n > 0 {
                violations.push(format!("opt: {n} {what}"));
            }
        }
    }

    if cmd == "audit" {
        writeln!(
            o,
            "== Audit: translation validation, every suite x both schedulers ==\n\
             {:<12} {:<10} {:>6} {:>7} {:>9} {:>6}",
            "suite", "scheduler", "loops", "errors", "warnings", "notes"
        );
        let rows = audit_with(&driver, &m);
        let mut total = 0usize;
        for r in &rows {
            writeln!(
                o,
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
                    writeln!(o, "  {}::{} (II={}):", r.audit.name, l.loop_name, l.ii);
                    for line in l.report.render_human().lines() {
                        writeln!(o, "    {line}");
                    }
                }
            }
            total += r.findings();
        }
        writeln!(o, "total findings: {total}");
        if total > 0 {
            violations.push(format!("audit: {total} findings"));
        }
    }

    if cmd == "chaos" {
        // Injected panics are the point; keep their backtraces out of the log.
        showdown::hush_injected_panics();
        writeln!(
            o,
            "== Chaos: fault injection vs the degradation ladder, every suite ==\n\
             {:<16} {:>6} {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8} {:>11}",
            "scenario", "loops", "r0", "r1", "r2", "r3", "r4", "quar", "escapes", "violations"
        );
        let rows = chaos_with(&driver, &m);
        let mut total_violations = 0usize;
        for sc in &chaos_scenarios() {
            let (mut loops, mut quar, mut escapes, mut broken) = (0usize, 0, 0, 0);
            let mut usage = [0usize; 5];
            for r in rows.iter().filter(|r| r.scenario == sc.name) {
                loops += r.suite.loops.len();
                for (u, n) in usage.iter_mut().zip(r.suite.rung_usage()) {
                    *u += n;
                }
                quar += r.suite.quarantined();
                escapes += r.escapes();
                broken += r.violations();
            }
            total_violations += broken;
            writeln!(
                o,
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
                broken
            );
        }
        for r in rows.iter().filter(|r| r.violations() > 0) {
            writeln!(o, "  VIOLATION in {} under {}:", r.suite.name, r.scenario);
            for l in &r.suite.loops {
                let bad = match &l.outcome {
                    Ok(s) => !s.clean,
                    Err(_) => !r.expect_quarantine,
                };
                if bad || l.escapes() > 0 {
                    writeln!(
                        o,
                        "    {}: {}",
                        l.loop_name,
                        showdown::render_attempts(l.attempts())
                    );
                }
            }
        }
        let usage = chaos_rung_usage(&rows);
        writeln!(
            o,
            "control rung usage (no faults): ilp={} sat={} heuristic={} escalated={} sequential={}",
            usage[0], usage[1], usage[2], usage[3], usage[4]
        );
        writeln!(o, "total containment violations: {total_violations}");
        if total_violations > 0 {
            violations.push(format!("chaos: {total_violations} containment violations"));
        }
    }

    if cmd == "portfolio" {
        writeln!(
            o,
            "== Portfolio: ILP vs SAT vs heuristic, raced per loop ==\n\
             {:<12} {:>5} {:>4} {:>4} {:>4} {:>4} {:>7} {:>6}",
            "suite", "loops", "ilp", "sat", "heur", "none", "sat=ilp", "viols"
        );
        let rows = portfolio_sweep(&m);
        for r in &rows {
            writeln!(
                o,
                "{:<12} {:>5} {:>4} {:>4} {:>4} {:>4} {:>3}/{:<3} {:>6}",
                r.name,
                r.loops,
                r.ilp_wins,
                r.sat_wins,
                r.heur_wins,
                r.no_winner,
                r.sat_ii_matches,
                r.both_optimal,
                r.determinism_violations
            );
        }
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        for r in &rows {
            eprintln!(
                "{:<12} wall ms: race {:.1}, ilp {:.1}, sat {:.1}, heur {:.1}",
                r.name,
                ms(r.portfolio_wall),
                ms(r.ilp_wall),
                ms(r.sat_wall),
                ms(r.heur_wall)
            );
        }
        let determinism: usize = rows.iter().map(|r| r.determinism_violations).sum();
        if determinism > 0 {
            violations.push(format!("portfolio: {determinism} determinism violations"));
        }
        if !portfolio_wall_gate(&rows) {
            violations.push(
                "portfolio: racing cost more than 1.5x the slowest backend + 500 ms".to_owned(),
            );
        }
    }

    if cmd == "profile" {
        let trace_path = args
            .iter()
            .position(|a| a == "--trace")
            .and_then(|i| args.get(i + 1));
        writeln!(
            o,
            "== Profile: traced telemetry over the profile workload =="
        );
        let report = profile_workload(&m, threads);
        put_report(&mut o, &report.telemetry.render_report());
        let (d, s) = (report.cache, report.server_cache);
        writeln!(
            o,
            "compiles issued: {}; cache: {} hits / {} misses (driver), {} hits / {} misses \
             (server); spans recorded: {}",
            report.loops,
            d.hits,
            d.misses,
            s.hits,
            s.misses,
            report.telemetry.span_count()
        );
        let counters = report.telemetry.counters();
        for (counter, cached) in [
            (Counter::CacheHits, d.hits + s.hits),
            (Counter::CacheMisses, d.misses + s.misses),
        ] {
            let registry = counters.get(counter);
            if registry != cached {
                violations.push(format!(
                    "profile: registry {} is {registry}, driver + server caches say {cached}",
                    counter.name()
                ));
            }
        }
        let dead = report.telemetry.dead_exact_metrics();
        if !dead.is_empty() {
            violations.push(format!(
                "profile: registered but never incremented: {dead:?}"
            ));
        }
        if let Some(path) = trace_path {
            let json = report.telemetry.chrome_trace_json();
            match swp_obs::validate_chrome_trace(&json) {
                Ok(events) => {
                    swp_serve::write_atomic(std::path::Path::new(path), json.as_bytes())
                        .unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
                    eprintln!("trace: {events} events, schema ok, written to {path}");
                }
                Err(e) => violations.push(format!("profile: invalid chrome trace — {e}")),
            }
        }
    }

    if cmd == "serve-chaos" {
        writeln!(
            o,
            "== Serve chaos: service-layer fault injection ==\n{:<28} {:>6}",
            "scenario", "pass"
        );
        let root = serve_root("chaos");
        let reports = swp_serve::service_chaos(&m, &root);
        let mut failed = 0usize;
        for r in &reports {
            writeln!(
                o,
                "{:<28} {:>6}",
                r.scenario,
                if r.passed { "ok" } else { "FAIL" }
            );
            eprintln!("{}: {}", r.scenario, r.detail);
            if !r.passed {
                failed += 1;
                violations.push(format!("serve-chaos: {} failed: {}", r.scenario, r.detail));
            }
        }
        writeln!(o, "scenarios failed: {failed}/{}", reports.len());
        let _ = std::fs::remove_dir_all(&root);
    }

    if cmd == "serve-smoke" {
        let root = serve_root("smoke");
        let sat =
            swp_serve::saturate(&m, 8, &root).unwrap_or_else(|e| panic!("saturation smoke: {e}"));
        let _ = std::fs::remove_dir_all(&root);
        writeln!(
            o,
            "== Serve smoke: 8-client saturation + kill/restart warm-hit gate ==\n\
             {} clients x {} loops/phase; error replies: {}",
            sat.clients, sat.loops_per_phase, sat.errors
        );
        // The load-dependent half: latencies and server counters.
        for (name, p) in [
            ("cold", &sat.cold),
            ("warm", &sat.warm),
            ("restart", &sat.restart),
        ] {
            eprintln!(
                "{name:<8} {} batches, p50 {} us, p99 {} us",
                p.batches, p.p50_us, p.p99_us
            );
        }
        let restart = &sat.restart_stats;
        eprintln!(
            "cold server: {} admitted, {} demoted, {} persisted; restart server: {} store \
             answers ({} file reads, {} from memory) / {} admitted ({:.0}% store hit rate), {} \
             recompiles of (loop, level) pairs the cold server never compiled: [{}]",
            sat.cold_stats.admitted,
            sat.cold_stats.demoted,
            sat.cold_stats.store.persisted,
            restart.store.hits,
            restart.store.reads,
            restart.store.memory_hits(),
            restart.admitted,
            100.0 * sat.restart_hit_rate(),
            restart.cache.misses,
            sat.restart_compiled.join(", ")
        );
        if sat.errors > 0 {
            violations.push(format!(
                "serve-smoke: {} error replies (overload must demote, never reject)",
                sat.errors
            ));
        }
        if sat.restart_hit_rate() <= 0.0 {
            violations.push("serve-smoke: restart phase served zero disk hits".to_owned());
        }
    }

    for v in &violations {
        eprintln!("violation: {v}");
    }
    if let (true, Some(golden)) = (deny, golden) {
        let diff = diff_golden(golden, &o.0);
        if let Err(e) = &diff {
            eprintln!("golden: stdout differs from gates/{cmd}.golden at {e}");
        }
        if diff.is_err() || !violations.is_empty() {
            std::process::exit(1);
        }
        eprintln!("gate: ok (stdout matches gates/{cmd}.golden, no violations)");
    }
}

/// Close a figure with the cache hits/misses it contributed.
fn report_cache(o: &mut Stdout, driver: &Driver, before: showdown::CacheStats) {
    let after = driver.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let total = hits + misses;
    writeln!(
        o,
        "[cache] {hits} hits / {misses} misses ({:.0}% hit rate)\n",
        100.0 * hits as f64 / (total.max(1)) as f64
    );
}

/// Split the telemetry report: `Timing`-class counters (marked
/// `(timing)`) and each `Timing` histogram (its header and bucket lines)
/// go to stderr, everything else to stdout.
fn put_report(o: &mut Stdout, report: &str) {
    let timing_histos: Vec<String> = Histo::ALL
        .iter()
        .filter(|h| h.class() == Class::Timing)
        .map(|h| format!("  {} (", h.name()))
        .collect();
    let mut timing = false;
    for line in report.lines() {
        if !line.starts_with("    <=") {
            timing =
                line.ends_with("(timing)") || timing_histos.iter().any(|p| line.starts_with(p));
        }
        if timing {
            eprintln!("{line}");
        } else {
            writeln!(o, "{line}");
        }
    }
}

/// A private scratch directory for service runs (store + socket debris).
fn serve_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swp-exp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
