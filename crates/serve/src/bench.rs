//! Service benchmark: a saturation run against a live server.
//!
//! The saturation run is three phases against one store directory:
//! cold (fresh server, empty store), warm (same server, everything
//! memoized), and restart (a *new* server process-equivalent on the
//! same store — the memory cache is gone, so every hit is a disk hit).
//! The restart phase is the headline number: it is what crash-safe
//! persistence buys.
//!
//! A restart request can still compile: admission demotes by load, and a
//! loop the cold server compiled only at a demoted level has no
//! full-effort record, so an undemoted restart request for it (or one
//! demoted to another level) compiles. The report names those compiles
//! as the `(loop, level)` replies the restart phase gave and neither
//! earlier phase did.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use showdown::{OptLevel, VerifyLevel};
use swp_ir::Loop;
use swp_machine::Machine;

use crate::admission::AdmissionOptions;
use crate::client::Client;
use crate::proto::{RequestBatch, WireChoice};
use crate::server::{ServeStats, Server, ServerHandle, ServerOptions};

/// One phase's latency aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseLatency {
    /// Batches measured.
    pub batches: usize,
    /// Median batch latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile batch latency, microseconds.
    pub p99_us: u64,
}

/// Result of a saturation run.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Concurrent client threads per phase.
    pub clients: usize,
    /// Loops submitted per phase (across all clients).
    pub loops_per_phase: usize,
    /// Cold-store, cold-cache phase.
    pub cold: PhaseLatency,
    /// Same server, everything memoized.
    pub warm: PhaseLatency,
    /// Fresh server on the same store: store hits, plus compiles of keys
    /// the cold server never compiled.
    pub restart: PhaseLatency,
    /// Counters of the cold+warm server at shutdown.
    pub cold_stats: ServeStats,
    /// Counters of the restarted server at shutdown.
    pub restart_stats: ServeStats,
    /// The restart phase's compiles, as `suite/loop@level`: replies
    /// whose loop and demotion level neither earlier phase served.
    pub restart_compiled: Vec<String>,
    /// Loop replies that came back as errors (must be 0).
    pub errors: usize,
}

impl SaturationReport {
    /// Store hit rate of the restart phase: store hits (from file or
    /// from memory) over all admitted loops.
    pub fn restart_hit_rate(&self) -> f64 {
        let admitted = self.restart_stats.admitted;
        if admitted == 0 {
            0.0
        } else {
            self.restart_stats.store.hits as f64 / admitted as f64
        }
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx]
}

fn phase_latency(mut latencies: Vec<u64>) -> PhaseLatency {
    latencies.sort_unstable();
    PhaseLatency {
        batches: latencies.len(),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

fn suite_batches() -> Vec<(String, Vec<Loop>)> {
    swp_kernels::spec_suites()
        .into_iter()
        .map(|s| {
            (
                s.name.to_owned(),
                s.loops.into_iter().map(|l| l.body).collect(),
            )
        })
        .collect()
}

/// What one phase (or one client of it) saw.
#[derive(Default)]
struct Phase {
    latencies_us: Vec<u64>,
    errors: usize,
    loops: usize,
    /// Every `suite/loop@level` the phase was served.
    served: BTreeSet<String>,
}

/// Run one phase: `clients` threads, each sending every suite as one
/// batch.
fn run_phase(server: &ServerHandle, clients: usize, phase: &str) -> Phase {
    let batches = suite_batches();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let batches = &batches;
            let server = &server;
            joins.push(scope.spawn(move || {
                let mut seen = Phase::default();
                let mut client = Client::connect(server.socket()).expect("connect");
                for (i, (name, bodies)) in batches.iter().enumerate() {
                    let req = RequestBatch {
                        batch_id: (c * batches.len() + i) as u64,
                        client: format!("bench-{c}"),
                        deadline_ms: 0,
                        choice: WireChoice::Ladder,
                        opt: OptLevel::Off,
                        verify: VerifyLevel::Off,
                        loops: bodies.clone(),
                    };
                    seen.loops += bodies.len();
                    let t0 = Instant::now();
                    let resp = client
                        .compile_batch(&req)
                        .unwrap_or_else(|e| panic!("{phase}: batch {name} failed: {e}"));
                    seen.latencies_us.push(t0.elapsed().as_micros() as u64);
                    for r in &resp.results {
                        match &r.outcome {
                            Ok(ok) => {
                                seen.served
                                    .insert(format!("{name}/{}@{}", r.name, ok.demotion));
                            }
                            Err(_) => seen.errors += 1,
                        }
                    }
                }
                seen
            }));
        }
        let mut all = Phase::default();
        for j in joins {
            let seen = j.join().expect("bench client");
            all.latencies_us.extend(seen.latencies_us);
            all.errors += seen.errors;
            all.loops += seen.loops;
            all.served.extend(seen.served);
        }
        all
    })
}

fn bench_server(machine: &Machine, root: &Path) -> std::io::Result<ServerHandle> {
    let socket = std::env::temp_dir().join(format!("swp-bench-{}.sock", std::process::id()));
    let mut opts = ServerOptions::at(socket);
    opts.store_dir = Some(root.join("store"));
    // Tight enough that an 8-client burst visibly demotes; loose enough
    // that single-client phases run at full effort.
    opts.admission = AdmissionOptions {
        max_inflight: 8,
        soft_inflight: 4,
        heavy_inflight: 6,
        ..AdmissionOptions::default()
    };
    Server::start(machine.clone(), opts)
}

/// The saturation benchmark: cold, warm, and restart phases under
/// `clients` concurrent clients, all over one store under `root`.
///
/// # Errors
///
/// Server start or store I/O failure.
pub fn saturate(
    machine: &Machine,
    clients: usize,
    root: &Path,
) -> std::io::Result<SaturationReport> {
    std::fs::create_dir_all(root)?;
    let server = bench_server(machine, root)?;
    let cold = run_phase(&server, clients, "cold");
    let warm = run_phase(&server, clients, "warm");
    let cold_stats = server.stats();
    drop(server);
    let server = bench_server(machine, root)?;
    let restart = run_phase(&server, clients, "restart");
    let restart_stats = server.stats();
    drop(server);
    let restart_compiled = restart
        .served
        .iter()
        .filter(|s| !cold.served.contains(*s) && !warm.served.contains(*s))
        .cloned()
        .collect();
    Ok(SaturationReport {
        clients,
        loops_per_phase: cold.loops,
        errors: cold.errors + warm.errors + restart.errors,
        cold: phase_latency(cold.latencies_us),
        warm: phase_latency(warm.latencies_us),
        restart: phase_latency(restart.latencies_us),
        cold_stats,
        restart_stats,
        restart_compiled,
    })
}
