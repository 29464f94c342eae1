//! End-to-end service tests over a real Unix socket: basic batch
//! compilation, the kill-and-restart warm-hit guarantee, overload
//! behavior (degrade, never reject), and the admission rules (only
//! compiles pay; a full-effort record answers a demoted request, never
//! the reverse). Scheduler choice is mostly the
//! heuristic so the suite stays fast in debug builds; the chaos sweep
//! (`experiments serve-chaos`) exercises the full ladder in release.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use showdown::{CacheStats, OptLevel, VerifyLevel};
use swp_machine::Machine;
use swp_serve::store::STORE_VERSION;
use swp_serve::{
    encode_message, AdmissionOptions, Client, LoopOk, Message, RequestBatch, Server, ServerHandle,
    ServerOptions, WireChoice, VERSION,
};

fn fresh_root(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "swp-e2e-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(tag: &str, root: &Path, admission: AdmissionOptions) -> ServerHandle {
    let mut opts = ServerOptions::at(
        std::env::temp_dir().join(format!("swp-e2e-{}-{tag}.sock", std::process::id())),
    );
    opts.store_dir = Some(root.join("store"));
    opts.admission = admission;
    Server::start(Machine::r8000(), opts).expect("server start")
}

fn heur_request(batch_id: u64, client: &str, n_loops: usize) -> RequestBatch {
    RequestBatch {
        batch_id,
        client: client.to_owned(),
        deadline_ms: 0,
        choice: WireChoice::Heuristic,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops: swp_kernels::livermore()
            .into_iter()
            .take(n_loops)
            .map(|k| k.body)
            .collect(),
    }
}

fn compile(server: &ServerHandle, req: &RequestBatch) -> Vec<(String, LoopOk)> {
    let mut client = Client::connect(server.socket()).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(120))
        .expect("timeout");
    let resp = client.compile_batch(req).expect("batch");
    assert_eq!(resp.batch_id, req.batch_id);
    resp.results
        .into_iter()
        .map(|r| {
            let name = r.name.clone();
            (
                name,
                r.outcome.unwrap_or_else(|e| panic!("{}: {e}", r.name)),
            )
        })
        .collect()
}

#[test]
fn batch_compile_end_to_end() {
    let root = fresh_root("basic");
    let server = start_server("basic", &root, AdmissionOptions::default());
    let req = heur_request(77, "it", 3);
    let results = compile(&server, &req);
    assert_eq!(results.len(), 3);
    for ((name, ok), lp) in results.iter().zip(&req.loops) {
        assert_eq!(name, lp.name());
        assert!(ok.ii >= 1, "ii is populated");
        assert!(ok.code_fp != 0);
        assert_eq!(ok.demotion, 0);
    }
    let stats = server.stats();
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.demoted, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_and_restart_serves_warm_from_disk_bit_identically() {
    let root = fresh_root("restart");
    let req = heur_request(1, "it", 3);
    let cold = {
        let server = start_server("restart", &root, AdmissionOptions::default());
        let results = compile(&server, &req);
        let stats = server.stats();
        assert!(stats.store.persisted >= 3, "{stats:?}");
        assert_eq!(stats.store.hits, 0);
        results
        // Server dropped here: the "kill".
    };
    // A new server on the same store: the memory cache is empty, so
    // every answer must come from disk — and be bit-identical.
    let server = start_server("restart", &root, AdmissionOptions::default());
    let warm = compile(&server, &req);
    let stats = server.stats();
    assert_eq!(cold, warm, "disk-served results differ from cold compiles");
    assert!(
        stats.store.hits >= 3,
        "no disk hits after restart: {stats:?}"
    );
    assert_eq!(
        stats.cache.misses, 0,
        "restart recompiled instead of loading"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_repeated_loop_is_a_counted_memory_hit() {
    let root = fresh_root("peek");
    let server = start_server("peek", &root, AdmissionOptions::default());
    let req = heur_request(5, "it", 1);
    assert_eq!(compile(&server, &req), compile(&server, &req));
    let stats = server.stats();
    assert_eq!(stats.cache, CacheStats { hits: 1, misses: 1 });
    assert_eq!(stats.store.hits, 0, "memory answered before the disk");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn version_one_store_records_are_recompiled_never_served() {
    let root = fresh_root("v1-store");
    let req = heur_request(1, "it", 2);
    let cold = compile(
        &start_server("v1-store", &root, AdmissionOptions::default()),
        &req,
    );
    // Age every record to version 1, as an older binary wrote them.
    for entry in std::fs::read_dir(root.join("store")).expect("store dir") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("record");
        assert_eq!(bytes[4], STORE_VERSION);
        bytes[4] = 1;
        std::fs::write(&path, bytes).expect("rewrite record");
    }
    let server = start_server("v1-store", &root, AdmissionOptions::default());
    assert_eq!(compile(&server, &req), cold);
    let stats = server.stats();
    assert_eq!(stats.store.hits, 0, "a version-1 record was served");
    assert_eq!(stats.store.corrupt_recovered, 2);
    assert_eq!(stats.cache.misses, 2, "both loops recompiled");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_version_one_frame_is_answered_with_bad_version() {
    let root = fresh_root("v1-frame");
    let server = start_server("v1-frame", &root, AdmissionOptions::default());
    let mut frame = encode_message(&Message::Request(heur_request(1, "old", 1)));
    assert_eq!(frame[9], VERSION);
    frame[9] = 1;
    let mut client = Client::connect(server.socket()).expect("connect");
    client
        .set_read_timeout(Duration::from_secs(30))
        .expect("timeout");
    client.send_raw(&frame).expect("send");
    match client.read_message() {
        Ok(Some(Message::Error(msg))) => {
            assert!(msg.contains("unsupported protocol version 1"), "{msg}");
        }
        other => panic!("expected a version error, got {other:?}"),
    }
    assert_eq!(server.stats().admitted, 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn overload_demotes_but_never_rejects() {
    let root = fresh_root("overload");
    // soft_inflight 0 is a standing-degradation policy: every admission
    // sees load at or above the soft threshold and demotes. That makes
    // the demote-don't-reject plumbing deterministic here regardless of
    // how the client threads interleave; the genuinely concurrent burst
    // (timing-dependent by nature) lives in the chaos sweep.
    let server = start_server(
        "overload",
        &root,
        AdmissionOptions {
            max_inflight: 2,
            soft_inflight: 0,
            heavy_inflight: 2,
            ..AdmissionOptions::default()
        },
    );
    let clients = 6;
    let per_client = 3;
    let answered: usize = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    let req = heur_request(c as u64, &format!("c{c}"), per_client);
                    compile(server, &req).len()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .sum()
    });
    assert_eq!(answered, clients * per_client, "a request was dropped");
    let stats = server.stats();
    assert_eq!(stats.admitted as usize, clients * per_client);
    assert!(stats.demoted > 0, "burst produced no demotions: {stats:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ladder_replies_carry_rung_and_diagnostics() {
    // One tiny loop through the full ladder (quick deterministic
    // budgets), checking the service surfaces rung + attempt trace.
    let root = fresh_root("ladder");
    let server = start_server("ladder", &root, AdmissionOptions::default());
    let req = RequestBatch {
        batch_id: 9,
        client: "it".into(),
        deadline_ms: 0,
        choice: WireChoice::Ladder,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops: vec![swp_kernels::random_loop(
            &swp_kernels::GenParams {
                ops: 6,
                mem_fraction: 0.3,
                recurrences: 1,
                div_fraction: 0.0,
            },
            11,
        )],
    };
    let results = compile(&server, &req);
    let (_, ok) = &results[0];
    assert!(ok.rung.is_some(), "ladder compile reported no rung");
    assert!(
        !ok.diagnostics.is_empty(),
        "ladder compile carried no attempt trace"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A 6-op loop without recurrences: quick to compile at any level, and
/// its key changes with the demotion level under `Ladder` and `Sat`.
fn small_loop(seed: u64) -> swp_ir::Loop {
    swp_kernels::random_loop(
        &swp_kernels::GenParams {
            ops: 6,
            mem_fraction: 0.3,
            recurrences: 0,
            div_fraction: 0.0,
        },
        seed,
    )
}

fn ladder_request(batch_id: u64, client: &str, loops: Vec<swp_ir::Loop>) -> RequestBatch {
    RequestBatch {
        batch_id,
        client: client.into(),
        deadline_ms: 0,
        choice: WireChoice::Ladder,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops,
    }
}

/// One token bucket of exactly one full-effort compile, never refilled:
/// a client's first compile runs at full effort and drains it.
fn one_compile_budget() -> AdmissionOptions {
    AdmissionOptions {
        bucket_capacity: 4,
        full_cost: 4,
        demoted_cost: 1,
        refill_per_completion: 0,
        ..AdmissionOptions::default()
    }
}

#[test]
fn a_deadline_request_is_answered_by_the_deadline_free_compile() {
    // The deadline is not part of the key: a loop already compiled
    // without one answers a request with one, and nothing recompiles.
    let root = fresh_root("deadline");
    let server = start_server("deadline", &root, AdmissionOptions::default());
    let lp = small_loop(31);
    let plain = compile(&server, &ladder_request(1, "c", vec![lp.clone()]));
    let misses = server.stats().cache.misses;
    let timed = RequestBatch {
        deadline_ms: 60_000,
        ..ladder_request(2, "c", vec![lp])
    };
    assert_eq!(compile(&server, &timed), plain);
    let stats = server.stats();
    assert_eq!(stats.cache.misses, misses, "recompiled: {stats:?}");
    assert_eq!(stats.cache.hits, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn demoted_requests_never_alias_full_effort_store_entries() {
    // The demoted record exists first; a later full-effort request for
    // the same loop must not be answered by it, and compiles its own.
    let root = fresh_root("alias");
    let server = start_server("alias", &root, one_compile_budget());
    let (drain, lp) = (small_loop(12), small_loop(13));
    let first = compile(&server, &ladder_request(1, "poor", vec![drain, lp.clone()]));
    assert_eq!(first[0].1.demotion, 0, "the draining compile was demoted");
    assert_eq!(first[1].1.demotion, 2, "drained bucket did not demote");
    let second = compile(&server, &ladder_request(2, "rich", vec![lp]));
    assert_eq!(second[0].1.demotion, 0, "a demoted record answered");
    let stats = server.stats();
    assert_eq!(stats.cache.misses, 3, "{stats:?}");
    assert!(
        stats.store.persisted >= 2,
        "demoted and full-effort compiles shared a store record: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_drained_client_is_served_full_effort_records_without_compiling() {
    let root = fresh_root("drained");
    let (lp, drain) = (small_loop(21), small_loop(22));
    let cold = {
        let server = start_server("drained", &root, one_compile_budget());
        // `lp` compiles at full effort and drains the bucket; `drain`
        // is then compiled demoted.
        let cold = compile(&server, &ladder_request(1, "c", vec![lp.clone(), drain]));
        assert_eq!((cold[0].1.demotion, cold[1].1.demotion), (0, 2));
        // Drained, the client is admitted at level 2, yet the memory
        // cache's level-0 entry answers it at full effort.
        let again = compile(&server, &ladder_request(2, "c", vec![lp.clone()]));
        assert_eq!(again[0], cold[0]);
        assert_eq!(server.stats().cache.misses, 2, "a cached loop recompiled");
        cold
    };
    // After a restart, a bucket that holds nothing at all: the store's
    // level-0 record answers, again at full effort and without a compile.
    let server = start_server(
        "drained",
        &root,
        AdmissionOptions {
            bucket_capacity: 0,
            ..one_compile_budget()
        },
    );
    let warm = compile(&server, &ladder_request(3, "c", vec![lp]));
    assert_eq!(warm[0], cold[0]);
    let stats = server.stats();
    assert_eq!(stats.demoted, 1, "the admission itself was demoted");
    assert_eq!(stats.cache.misses, 0, "a stored loop recompiled: {stats:?}");
    assert_eq!(stats.store.hits, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_client_repeating_a_cached_batch_is_never_demoted() {
    let root = fresh_root("repeat");
    let server = start_server("repeat", &root, AdmissionOptions::default());
    let loops: Vec<_> = (0..6).map(|i| small_loop(40 + i)).collect();
    let req = RequestBatch {
        choice: WireChoice::Sat,
        ..ladder_request(0, "repeat", loops)
    };
    let first = compile(&server, &req);
    for _ in 1..100 {
        assert_eq!(compile(&server, &req), first);
    }
    assert!(first.iter().all(|(_, ok)| ok.demotion == 0));
    let stats = server.stats();
    assert_eq!(stats.demoted, 0, "{stats:?}");
    assert_eq!(stats.cache.misses, 6, "a cached loop recompiled: {stats:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_store_reads_each_record_file_once() {
    let root = fresh_root("read-once");
    let req = heur_request(1, "it", 3);
    let cold = compile(
        &start_server("read-once", &root, AdmissionOptions::default()),
        &req,
    );
    let server = start_server("read-once", &root, AdmissionOptions::default());
    assert_eq!(compile(&server, &req), cold);
    // With every record file gone, the store still answers from the
    // records it has read, and nothing compiles.
    for entry in std::fs::read_dir(root.join("store")).expect("store dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "rec") {
            std::fs::remove_file(path).expect("delete record");
        }
    }
    assert_eq!(compile(&server, &req), cold);
    let stats = server.stats();
    assert_eq!(stats.cache.misses, 0, "a stored loop recompiled: {stats:?}");
    assert_eq!((stats.store.hits, stats.store.reads), (6, 3), "{stats:?}");
    assert_eq!(stats.store.memory_hits(), 3);
    let _ = std::fs::remove_dir_all(&root);
}
