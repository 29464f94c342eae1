//! Service-layer chaos: the PR 4 fault-injection discipline extended to
//! the daemon boundary.
//!
//! Each scenario stands up a real server over a real socket, injects
//! one service-layer fault — a corrupted store record, a crash between
//! temp-write and rename, a client that vanishes mid-frame, adversarial
//! bytes, an overload burst — and checks the containment contract:
//! zero hangs (every client read is deadline-bounded), zero rejections
//! (overload demotes, it never turns a request away), and recovery that
//! is *bit-identical* to a cold compile (fingerprint equality). The
//! `experiments serve-chaos -D` gate denies on any failed scenario.

use std::fs;
use std::path::Path;
use std::time::Duration;

use showdown::{OptLevel, VerifyLevel};
use swp_ir::Loop;
use swp_machine::Machine;

use crate::admission::AdmissionOptions;
use crate::client::Client;
use crate::proto::{LoopOk, Message, RequestBatch, WireChoice, MAGIC};
use crate::server::{Server, ServerHandle, ServerOptions};

/// Outcome of one service chaos scenario.
#[derive(Debug, Clone)]
pub struct ServiceChaosReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Human-readable evidence (counts, fingerprints, error strings).
    pub detail: String,
    /// Whether every invariant held.
    pub passed: bool,
}

/// Upper bound on any single client read in a chaos scenario: long
/// enough for a debug-build compile burst, short enough that a genuine
/// hang fails the scenario instead of wedging the harness.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn workload() -> Vec<Loop> {
    swp_kernels::livermore()
        .into_iter()
        .take(3)
        .map(|k| k.body)
        .collect()
}

/// Livermore k7, k9 and k23, whose ladder compiles take about 5, 90 and
/// 30 ms on the optimized build: long enough that a burst outlasts the
/// host's scheduling slice, so concurrent clients really overlap instead
/// of one handler finishing its batch before the next one runs.
fn heavy_workload() -> Vec<Loop> {
    swp_kernels::livermore()
        .into_iter()
        .filter(|k| [7, 9, 23].contains(&k.number))
        .map(|k| k.body)
        .collect()
}

fn request(batch_id: u64, client: &str, loops: Vec<Loop>) -> RequestBatch {
    RequestBatch {
        batch_id,
        client: client.to_owned(),
        deadline_ms: 0,
        choice: WireChoice::Ladder,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops,
    }
}

fn compile_all(
    server: &ServerHandle,
    client_name: &str,
    loops: Vec<Loop>,
) -> Result<Vec<LoopOk>, String> {
    let mut client = Client::connect(server.socket()).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(CLIENT_TIMEOUT)
        .map_err(|e| e.to_string())?;
    let resp = client
        .compile_batch(&request(1, client_name, loops))
        .map_err(|e| e.to_string())?;
    resp.results
        .into_iter()
        .map(|r| r.outcome.map_err(|e| format!("{}: {e}", r.name)))
        .collect()
}

fn start(
    machine: &Machine,
    root: &Path,
    name: &str,
    opts_fn: impl FnOnce(&mut ServerOptions),
) -> std::io::Result<ServerHandle> {
    let mut opts = ServerOptions::at(socket_path(name));
    opts.store_dir = Some(root.join(name).join("store"));
    opts_fn(&mut opts);
    Server::start(machine.clone(), opts)
}

/// A short, unique socket path. Unix socket paths are length-capped
/// (~108 bytes), so these live in the system temp dir rather than under
/// the (possibly deep) scenario root.
fn socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("swp-{}-{name}.sock", std::process::id()))
}

/// Run every service chaos scenario under `root` (created if needed).
pub fn service_chaos(machine: &Machine, root: &Path) -> Vec<ServiceChaosReport> {
    let _ = fs::create_dir_all(root);
    vec![
        corrupt_store_entry(machine, root),
        crash_mid_persist(machine, root),
        client_disconnect_mid_batch(machine, root),
        adversarial_frames(machine, root),
        overload_burst(machine, root),
    ]
}

fn report(scenario: &'static str, result: Result<String, String>) -> ServiceChaosReport {
    match result {
        Ok(detail) => ServiceChaosReport {
            scenario,
            detail,
            passed: true,
        },
        Err(detail) => ServiceChaosReport {
            scenario,
            detail,
            passed: false,
        },
    }
}

/// A record on disk is bit-flipped between restarts. The restarted
/// server must detect it, recompile, answer bit-identically, and count
/// the recovery.
fn corrupt_store_entry(machine: &Machine, root: &Path) -> ServiceChaosReport {
    report(
        "corrupt-store-entry",
        (|| {
            let server = start(machine, root, "corrupt", |_| {}).map_err(|e| e.to_string())?;
            let first = compile_all(&server, "chaos", workload())?;
            let store_dir = root.join("corrupt").join("store");
            drop(server);
            let mut flipped = 0;
            for entry in fs::read_dir(&store_dir).map_err(|e| e.to_string())? {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.extension().is_some_and(|x| x == "rec") {
                    let mut bytes = fs::read(&path).map_err(|e| e.to_string())?;
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x40;
                    fs::write(&path, &bytes).map_err(|e| e.to_string())?;
                    flipped += 1;
                }
            }
            if flipped == 0 {
                return Err("no records were persisted to corrupt".into());
            }
            let server = start(machine, root, "corrupt", |_| {}).map_err(|e| e.to_string())?;
            let second = compile_all(&server, "chaos", workload())?;
            let stats = server.stats();
            if first != second {
                return Err(format!(
                    "recovered results differ from the originals: {first:?} vs {second:?}"
                ));
            }
            if stats.store.corrupt_recovered == 0 {
                return Err("no corrupt-entry recovery was counted".into());
            }
            Ok(format!(
                "{flipped} records corrupted, {} recoveries, fingerprints identical",
                stats.store.corrupt_recovered
            ))
        })(),
    )
}

/// The server "crashes" between writing a record's temp file and
/// renaming it into place. Replies must still be served, no half-record
/// may appear under a final name, and the restarted store sweeps the
/// debris and persists normally.
fn crash_mid_persist(machine: &Machine, root: &Path) -> ServiceChaosReport {
    report(
        "crash-mid-persist",
        (|| {
            let server = start(machine, root, "crash", |o| {
                o.fail_persist_after_tmp = true;
            })
            .map_err(|e| e.to_string())?;
            let first = compile_all(&server, "chaos", workload())?;
            drop(server);
            let store_dir = root.join("crash").join("store");
            let (mut recs, mut tmps) = (0, 0);
            for entry in fs::read_dir(&store_dir).map_err(|e| e.to_string())? {
                let name = entry.map_err(|e| e.to_string())?.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".rec") {
                    recs += 1;
                } else if name.ends_with(".tmp") {
                    tmps += 1;
                }
            }
            if recs != 0 {
                return Err(format!("{recs} records appeared despite the crash"));
            }
            if tmps == 0 {
                return Err("no temp files were left by the simulated crash".into());
            }
            let server = start(machine, root, "crash", |_| {}).map_err(|e| e.to_string())?;
            let second = compile_all(&server, "chaos", workload())?;
            let stats = server.stats();
            let swept = !fs::read_dir(&store_dir)
                .map_err(|e| e.to_string())?
                .filter_map(Result::ok)
                .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
            if !swept {
                return Err("restart did not sweep the crashed temp files".into());
            }
            if first != second {
                return Err("post-restart results differ from pre-crash replies".into());
            }
            if stats.store.persisted == 0 {
                return Err("restarted server persisted nothing".into());
            }
            Ok(format!(
                "{tmps} temp files swept on restart, {} records persisted, replies identical",
                stats.store.persisted
            ))
        })(),
    )
}

/// A client dies after sending half a frame. The handler must fold
/// without taking anything down, and the next client must be served.
fn client_disconnect_mid_batch(machine: &Machine, root: &Path) -> ServiceChaosReport {
    report(
        "client-disconnect-mid-batch",
        (|| {
            let server = start(machine, root, "disconnect", |_| {}).map_err(|e| e.to_string())?;
            {
                let mut doomed = Client::connect(server.socket()).map_err(|e| e.to_string())?;
                let mut partial = Vec::new();
                partial.extend_from_slice(&MAGIC);
                partial.extend_from_slice(&100u32.to_le_bytes());
                partial.extend_from_slice(&[0u8; 10]);
                doomed.send_raw(&partial).map_err(|e| e.to_string())?;
                // Dropped here: the server sees EOF 90 bytes short.
            }
            let results = compile_all(&server, "survivor", workload())?;
            Ok(format!(
                "server survived a mid-frame disconnect and answered {} loops afterward",
                results.len()
            ))
        })(),
    )
}

/// Garbage magic, an oversized length prefix, and a truncated header —
/// each must come back as a structured error frame (or a clean close),
/// and the server must keep serving.
fn adversarial_frames(machine: &Machine, root: &Path) -> ServiceChaosReport {
    report(
        "adversarial-frames",
        (|| {
            let server = start(machine, root, "garbage", |_| {}).map_err(|e| e.to_string())?;
            let mut detail = Vec::new();
            {
                let mut c = Client::connect(server.socket()).map_err(|e| e.to_string())?;
                c.set_read_timeout(CLIENT_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                c.send_raw(b"XXXXtrash-not-a-frame")
                    .map_err(|e| e.to_string())?;
                match c.read_message().map_err(|e| e.to_string())? {
                    Some(Message::Error(msg)) if msg.contains("magic") => {
                        detail.push(format!("bad magic -> {msg:?}"));
                    }
                    other => return Err(format!("bad magic got {other:?}")),
                }
            }
            {
                let mut c = Client::connect(server.socket()).map_err(|e| e.to_string())?;
                c.set_read_timeout(CLIENT_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                let mut frame = Vec::new();
                frame.extend_from_slice(&MAGIC);
                frame.extend_from_slice(&u32::MAX.to_le_bytes());
                c.send_raw(&frame).map_err(|e| e.to_string())?;
                match c.read_message().map_err(|e| e.to_string())? {
                    Some(Message::Error(msg)) if msg.contains("cap") => {
                        detail.push(format!("oversized -> {msg:?}"));
                    }
                    other => return Err(format!("oversized got {other:?}")),
                }
            }
            let results = compile_all(&server, "survivor", workload())?;
            detail.push(format!("then served {} loops", results.len()));
            Ok(detail.join("; "))
        })(),
    )
}

/// Many clients at once against a tiny in-flight budget. The contract
/// under overload is *degrade, don't reject*: every loop gets an
/// answer, and the pressure shows up as demotions, not errors.
fn overload_burst(machine: &Machine, root: &Path) -> ServiceChaosReport {
    report(
        "overload-burst",
        (|| {
            let server = start(machine, root, "overload", |o| {
                o.admission = AdmissionOptions {
                    max_inflight: 2,
                    soft_inflight: 1,
                    heavy_inflight: 2,
                    ..AdmissionOptions::default()
                };
            })
            .map_err(|e| e.to_string())?;
            let clients = 6;
            let mut answered = 0usize;
            std::thread::scope(|scope| -> Result<(), String> {
                let mut joins = Vec::new();
                for i in 0..clients {
                    let server = &server;
                    joins.push(scope.spawn(move || {
                        compile_all(server, &format!("burst-{i}"), heavy_workload())
                    }));
                }
                for j in joins {
                    let results = j
                        .join()
                        .map_err(|_| "client thread panicked".to_string())??;
                    answered += results.len();
                }
                Ok(())
            })?;
            let stats = server.stats();
            let expected = clients * heavy_workload().len();
            if answered != expected {
                return Err(format!("{answered}/{expected} loops answered"));
            }
            if stats.demoted == 0 {
                return Err("overload produced no demotions".into());
            }
            Ok(format!(
            "{answered}/{expected} loops answered, {} demotions, {} hard-cap waits, 0 rejections",
            stats.demoted, stats.inflight_waits
        ))
        })(),
    )
}
