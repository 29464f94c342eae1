//! Service benchmark: a saturation run against a live server.
//!
//! The saturation run is three phases against one store directory:
//! cold (fresh server, empty store), warm (same server, everything
//! memoized), and restart (a *new* server process-equivalent on the
//! same store — the memory cache is gone, so every hit is a disk hit).
//! The restart phase is the headline number: it is what crash-safe
//! persistence buys.

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
    /// Fresh server on the same store: disk hits only.
    pub restart: PhaseLatency,
    /// Counters of the cold+warm server at shutdown.
    pub cold_stats: ServeStats,
    /// Counters of the restarted server at shutdown.
    pub restart_stats: ServeStats,
    /// Loop replies that came back as errors (must be 0).
    pub errors: usize,
}

impl SaturationReport {
    /// Disk hit rate of the restart phase: hits over all admitted loops.
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

/// Run one phase: `clients` threads, each sending every suite as one
/// batch. Returns per-batch latencies and the count of error replies.
fn run_phase(server: &ServerHandle, clients: usize, phase: &str) -> (Vec<u64>, usize, usize) {
    let batches = suite_batches();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..clients {
            let batches = &batches;
            let server = &server;
            joins.push(scope.spawn(move || {
                let mut latencies = Vec::new();
                let mut errors = 0usize;
                let mut loops = 0usize;
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
                    loops += bodies.len();
                    let t0 = Instant::now();
                    let resp = client
                        .compile_batch(&req)
                        .unwrap_or_else(|e| panic!("{phase}: batch {name} failed: {e}"));
                    latencies.push(t0.elapsed().as_micros() as u64);
                    errors += resp.results.iter().filter(|r| r.outcome.is_err()).count();
                }
                (latencies, errors, loops)
            }));
        }
        let mut all = Vec::new();
        let mut errors = 0;
        let mut loops = 0;
        for j in joins {
            let (l, e, n) = j.join().expect("bench client");
            all.extend(l);
            errors += e;
            loops += n;
        }
        (all, errors, loops)
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
    let (cold_lat, cold_err, cold_loops) = run_phase(&server, clients, "cold");
    let (warm_lat, warm_err, _) = run_phase(&server, clients, "warm");
    let cold_stats = server.stats();
    drop(server);
    let server = bench_server(machine, root)?;
    let (restart_lat, restart_err, _) = run_phase(&server, clients, "restart");
    let restart_stats = server.stats();
    drop(server);
    Ok(SaturationReport {
        clients,
        loops_per_phase: cold_loops,
        cold: phase_latency(cold_lat),
        warm: phase_latency(warm_lat),
        restart: phase_latency(restart_lat),
        cold_stats,
        restart_stats,
        errors: cold_err + warm_err + restart_err,
    })
}
