//! The compile server: a thread-per-connection Unix-socket daemon
//! layered over the schedule cache and the disk store.
//!
//! Per-loop flow: admit (the in-flight slot and a demotion level, no
//! tokens yet) → look up the full-effort key: memory cache peek, then the
//! disk store → if the request was demoted and that missed, look up the
//! demoted key the same way → charge admission and compile through
//! [`showdown::ScheduleCache`] (which dedups concurrent identical
//! requests) → persist the reply if it is deterministic. Only a compile
//! costs tokens, and a loop already scheduled at full effort is served
//! at full effort (`demotion: 0`) whatever the admission level.
//!
//! The compile key [`showdown::cache_key_with`] covers the loop, the
//! machine, and *every* option that can change the result — including
//! the demotion level via `start_rung`. A request's `deadline_ms` is not
//! keyed: it becomes one cancel token per loop, shared by every optimal
//! backend the choice runs, and a deadline that never fires cannot change
//! a deterministic compile. So a request with a deadline is answered from
//! the same records as one without. A compile its deadline does stop is
//! marked `deadline_hit` and is neither memoized nor persisted. Aliasing
//! across demotion runs one way only: a full-effort record may answer a
//! demoted request, but a demoted compile is never looked up by a
//! full-effort request, on disk or in memory.
//!
//! Fault posture: a client that sends garbage gets a structured error
//! frame and its connection closed; a client that vanishes mid-frame
//! costs its handler thread and nothing else; a persist failure costs
//! the persistence, not the reply. The accept loop and every handler
//! check a shared shutdown flag, so [`ServerHandle::shutdown`] (or
//! dropping the handle) quiesces the whole tree without leaking
//! threads.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use showdown::codec::{Fnv1a, Sink};
use showdown::swp_most::MostOptions;
use showdown::swp_sat::SatOptions;
use showdown::{
    cache_key_with, CacheStats, CancelToken, CompileOptions, CompiledLoop, LadderOptions,
    PortfolioOptions, ScheduleCache, SchedulerChoice, Telemetry,
};
use swp_ir::Loop;
use swp_machine::{Machine, RegClass};

use crate::admission::{Admission, AdmissionOptions, Permit};
use crate::proto::{
    self, LoopOk, LoopReply, Message, ProtoError, RequestBatch, ResponseBatch, WireChoice,
};
use crate::store::{DiskStore, Lookup, StoreStats};

/// The ladder the service compiles with: [`LadderOptions::default`].
/// Kept only for the benchmark harness, which names it; deleted once the
/// harness reads the path's own self-times (ROADMAP item 1).
pub fn quick_ladder_options() -> LadderOptions {
    LadderOptions::default()
}

/// The SAT budgets the service compiles with: [`SatOptions::default`].
/// Kept only for the benchmark harness, which names it; deleted once the
/// harness reads the path's own self-times (ROADMAP item 1).
pub fn quick_sat_options() -> SatOptions {
    SatOptions::default()
}

/// Server configuration.
pub struct ServerOptions {
    /// Unix socket path to bind. An existing file at this path is
    /// replaced.
    pub socket: PathBuf,
    /// Root of the persistent store; `None` disables persistence.
    pub store_dir: Option<PathBuf>,
    /// Admission tunables.
    pub admission: AdmissionOptions,
    /// Telemetry collector handler threads install; disabled by default.
    pub telemetry: Telemetry,
    /// Chaos hook: make every persist crash after writing its temp file.
    pub fail_persist_after_tmp: bool,
}

impl ServerOptions {
    /// Defaults with an explicit socket path.
    pub fn at(socket: PathBuf) -> ServerOptions {
        ServerOptions {
            socket,
            store_dir: None,
            admission: AdmissionOptions::default(),
            telemetry: Telemetry::disabled(),
            fail_persist_after_tmp: false,
        }
    }
}

/// Point-in-time service counters, for reports and gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Loops admitted.
    pub admitted: u64,
    /// Admissions demoted by load or budget, whether or not the request
    /// then compiled.
    pub demoted: u64,
    /// Arrivals that blocked on the hard in-flight cap.
    pub inflight_waits: u64,
    /// In-memory cache counters.
    pub cache: CacheStats,
    /// Disk store counters (zeroes when persistence is off).
    pub store: StoreStats,
}

struct Shared {
    machine: Machine,
    cache: ScheduleCache,
    store: Option<DiskStore>,
    admission: Admission,
    telemetry: Telemetry,
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread it spawned.
pub struct ServerHandle {
    shared: Arc<Shared>,
    socket: PathBuf,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Current service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            admitted: self.shared.admission.admitted(),
            demoted: self.shared.admission.demoted(),
            inflight_waits: self.shared.admission.waits(),
            cache: self.shared.cache.stats(),
            store: self
                .shared
                .store
                .as_ref()
                .map(DiskStore::stats)
                .unwrap_or_default(),
        }
    }

    /// Stop accepting, drain handlers, join all threads, remove the
    /// socket file. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.socket);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The server itself — constructors only; the running state lives in
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind the socket and start the accept loop.
    ///
    /// # Errors
    ///
    /// Socket bind or store-open failure. Nothing is spawned on error.
    pub fn start(machine: Machine, opts: ServerOptions) -> std::io::Result<ServerHandle> {
        let store = match &opts.store_dir {
            Some(dir) => {
                let store = DiskStore::open(dir)?;
                store
                    .fail_persist_after_tmp
                    .store(opts.fail_persist_after_tmp, Ordering::Relaxed);
                Some(store)
            }
            None => None,
        };
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)?;
        let shared = Arc::new(Shared {
            machine,
            cache: ScheduleCache::new(),
            store,
            admission: Admission::new(opts.admission),
            telemetry: opts.telemetry,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || {
            // Handler threads are tracked so shutdown can join them —
            // "zero hangs" includes the server's own exit path.
            let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let conn_shared = accept_shared.clone();
                let t = std::thread::spawn(move || handle_connection(conn_shared, stream));
                handlers.lock().expect("handler list").push(t);
            }
            for t in handlers.into_inner().expect("handler list") {
                let _ = t.join();
            }
        });
        Ok(ServerHandle {
            shared,
            socket: opts.socket,
            accept: Some(accept),
        })
    }
}

/// Poll interval for the shutdown flag while a handler waits for bytes.
const READ_TICK: Duration = Duration::from_millis(100);

fn handle_connection(shared: Arc<Shared>, mut stream: UnixStream) {
    let _telemetry = shared
        .telemetry
        .is_enabled()
        .then(|| shared.telemetry.install());
    let _ = stream.set_read_timeout(Some(READ_TICK));
    loop {
        let payload = match proto::read_frame(&mut stream, Some(&shared.shutdown)) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e) => {
                send_error(&mut stream, &e);
                return;
            }
        };
        let msg = match proto::decode_payload(&payload) {
            Ok(m) => m,
            Err(e) => {
                send_error(&mut stream, &e);
                return;
            }
        };
        match msg {
            Message::Request(req) => {
                let resp = process_batch(&shared, &req);
                if proto::write_message(&mut stream, &Message::Response(resp)).is_err() {
                    // Client went away mid-reply; nothing else to do.
                    return;
                }
            }
            // Clients must not send server-only frames.
            Message::Response(_) | Message::Error(_) => {
                send_error(
                    &mut stream,
                    &ProtoError::Malformed("unexpected message kind from client".into()),
                );
                return;
            }
        }
    }
}

fn send_error(stream: &mut UnixStream, e: &ProtoError) {
    // Best effort: the peer may already be gone, and framing may be
    // lost; the connection closes right after.
    let _ = proto::write_message(stream, &Message::Error(e.to_string()));
    let _ = stream.flush();
}

fn process_batch(shared: &Shared, req: &RequestBatch) -> ResponseBatch {
    let mut results = Vec::with_capacity(req.loops.len());
    for lp in &req.loops {
        let permit = shared.admission.admit(&req.client);
        let outcome = compile_one(shared, lp, req, &permit);
        drop(permit);
        results.push(LoopReply {
            name: lp.name().to_owned(),
            outcome,
        });
    }
    ResponseBatch {
        batch_id: req.batch_id,
        results,
    }
}

/// Demotion level 1's ILP budget cut: a much tighter pivot and node
/// leash, both deterministic.
fn demote_most(most: &mut MostOptions) {
    most.loop_pivot_limit = Some(100_000);
    most.pivot_limit = most.pivot_limit.min(100_000);
    most.node_limit = most.node_limit.min(2_000);
}

/// Demotion level 1's SAT budget cut, in its own deterministic currency.
fn demote_sat(sat: &mut SatOptions) {
    sat.loop_conflict_limit = Some(15_000);
    sat.conflict_limit = sat.conflict_limit.min(5_000);
}

/// The stop signal for one loop of `req`: a token that expires
/// `deadline_ms` from now, or the inert token when the request has no
/// deadline.
fn deadline_token(req: &RequestBatch) -> CancelToken {
    if req.deadline_ms == 0 {
        return CancelToken::never();
    }
    CancelToken::with_deadline(Instant::now() + Duration::from_millis(u64::from(req.deadline_ms)))
}

/// The compile a request asks for, at the admitted demotion level. The
/// loop's `cancel` token, and with it the request deadline, bounds every
/// optimal backend the choice runs; the default budgets carry no wall
/// limit of their own.
fn scheduler_for(req: &RequestBatch, demotion: u32, cancel: &CancelToken) -> SchedulerChoice {
    match req.choice {
        WireChoice::Ladder => {
            let mut opts = LadderOptions::default().demoted(demotion);
            opts.most.cancel = cancel.clone();
            opts.sat.cancel = cancel.clone();
            SchedulerChoice::LadderWith(Box::new(opts))
        }
        WireChoice::Heuristic => SchedulerChoice::Heuristic,
        _ if demotion >= 2 => SchedulerChoice::Heuristic,
        WireChoice::Ilp => {
            let mut most = MostOptions::default();
            if demotion == 1 {
                demote_most(&mut most);
            }
            most.cancel = cancel.clone();
            SchedulerChoice::IlpWith(most)
        }
        WireChoice::Sat => {
            let mut sat = SatOptions::default();
            if demotion == 1 {
                demote_sat(&mut sat);
            }
            sat.cancel = cancel.clone();
            SchedulerChoice::SatWith(sat)
        }
        WireChoice::Portfolio => {
            let mut opts = PortfolioOptions::default();
            if demotion == 1 {
                // Shed the optimal racers' effort, keep the heuristic
                // at full strength: the race still ships something.
                demote_most(&mut opts.most);
                demote_sat(&mut opts.sat);
            }
            opts.most.cancel = cancel.clone();
            opts.sat.cancel = cancel.clone();
            SchedulerChoice::PortfolioWith(Box::new(opts))
        }
    }
}

fn compile_options(
    shared: &Shared,
    req: &RequestBatch,
    demotion: u32,
    cancel: &CancelToken,
) -> CompileOptions {
    CompileOptions {
        choice: scheduler_for(req, demotion, cancel),
        verify: req.verify,
        opt: req.opt,
        telemetry: shared.telemetry.clone(),
    }
}

/// Answer `key` without compiling: memory first (a ready entry needs no
/// disk touch), then the persistent layer, which is what survives
/// restarts. A hit replies at `demotion`, the level the key was compiled
/// at.
fn lookup(shared: &Shared, key: u64, demotion: u32) -> Option<Result<LoopOk, String>> {
    if let Some(hit) = shared.cache.peek(key) {
        return Some(
            hit.map(|c| loop_ok(&c, demotion))
                .map_err(|e| e.to_string()),
        );
    }
    if let Some(Lookup::Hit(mut ok)) = shared.store.as_ref().map(|s| s.load(key)) {
        // The demotion level is keyed, so a stored record always
        // matches the level it was compiled at; echo that level.
        ok.demotion = demotion as u8;
        return Some(Ok(ok));
    }
    None
}

fn compile_one(
    shared: &Shared,
    lp: &Loop,
    req: &RequestBatch,
    permit: &Permit<'_>,
) -> Result<LoopOk, String> {
    let cancel = deadline_token(req);
    let full = compile_options(shared, req, 0, &cancel);
    let full_key = cache_key_with(lp, &shared.machine, &full);
    if let Some(answer) = lookup(shared, full_key, 0) {
        return answer;
    }
    let demotion = permit.demotion;
    let (options, key) = if demotion == 0 {
        (full, full_key)
    } else {
        let options = compile_options(shared, req, demotion, &cancel);
        let key = cache_key_with(lp, &shared.machine, &options);
        // Choices that ignore the level (the heuristic) share one key.
        if key != full_key {
            if let Some(answer) = lookup(shared, key, demotion) {
                return answer;
            }
        }
        (options, key)
    };
    permit.charge();
    let result = shared
        .cache
        .get_or_compile_with(lp, &shared.machine, &options);
    match result {
        Ok(c) => {
            let ok = loop_ok(&c, demotion);
            if let Some(store) = &shared.store {
                // Host-dependent (deadline-truncated) results must never
                // be persisted; the memory cache already refused them
                // too.
                if !c.stats.deadline_hit && !store.contains(key) {
                    let _ = store.persist(key, &ok);
                }
            }
            Ok(ok)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn loop_ok(c: &CompiledLoop, demotion: u32) -> LoopOk {
    LoopOk {
        rung: c.rung.map(|r| r.index() as u8),
        demotion: demotion as u8,
        ii: c.stats.ii,
        min_ii: c.stats.min_ii,
        optimal: c.stats.optimal,
        fell_back: c.stats.fell_back,
        spills: c.stats.spills,
        search_effort: c.stats.search_effort,
        pivots: c.stats.pivots,
        code_fp: code_fingerprint(c),
        diagnostics: c.attempts.iter().map(|a| a.render()).collect(),
    }
}

/// Stable fingerprint of the emitted code: schedule times, all three
/// expanded sections, and register usage, FNV-1a streamed over their
/// canonical little-endian encoding. Everything hashed is deterministic
/// output of the compiler, so equal fingerprints across a restart certify
/// the disk store returned exactly what a cold compile produces.
pub fn code_fingerprint(c: &CompiledLoop) -> u64 {
    let code = &c.code;
    let mut h = Fnv1a::default();
    h.u32(code.ii());
    h.u32(code.stage_count());
    h.u32(code.unroll());
    for &t in code.schedule().times() {
        h.i64(t);
    }
    for section in [code.prologue(), code.kernel(), code.epilogue()] {
        h.list(section, |h, op| {
            h.u32(op.op.0);
            h.i64(op.iteration);
            h.i64(op.cycle);
        });
    }
    for class in RegClass::ALL {
        h.u32(code.regs_used(class));
    }
    h.u32(code.total_regs());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(choice: WireChoice, deadline_ms: u32) -> RequestBatch {
        RequestBatch {
            batch_id: 0,
            client: "c".to_owned(),
            deadline_ms,
            choice,
            opt: showdown::OptLevel::Off,
            verify: showdown::VerifyLevel::Off,
            loops: Vec::new(),
        }
    }

    #[test]
    fn a_ladder_deadline_bounds_both_optimal_rungs() {
        let req = request(WireChoice::Ladder, 5);
        let cancel = deadline_token(&req);
        let at = cancel.deadline().expect("a 5 ms request gets a deadline");
        let SchedulerChoice::LadderWith(opts) = scheduler_for(&req, 0, &cancel) else {
            panic!("a ladder request compiles down the ladder");
        };
        // One deadline for the loop, shared by both optimal rungs.
        assert_eq!(opts.most.cancel.deadline(), Some(at));
        assert_eq!(opts.sat.cancel.deadline(), Some(at));
        assert_eq!(opts.heur.cancel.deadline(), None);
        assert!(!deadline_token(&request(WireChoice::Ladder, 0)).is_real());
    }

    #[test]
    fn the_benchmark_shims_key_like_the_defaults() {
        let mut b = swp_ir::LoopBuilder::new("scale");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let w = b.fmul(a, v);
        b.store(x, 0, 8, w);
        let lp = b.finish();
        let m = Machine::r8000();
        let key = |choice: SchedulerChoice| cache_key_with(&lp, &m, &choice.into());
        let ladder = key(SchedulerChoice::LadderWith(
            Box::new(quick_ladder_options()),
        ));
        let sat = key(SchedulerChoice::SatWith(quick_sat_options()));
        assert_eq!(ladder, key(SchedulerChoice::LadderWith(Box::default())));
        assert_eq!(sat, key(SchedulerChoice::SatWith(SatOptions::default())));
        // And like what the service itself compiles for an undemoted
        // request, with or without a deadline.
        for deadline_ms in [0, 60_000] {
            let for_choice = |choice| {
                let req = request(choice, deadline_ms);
                key(scheduler_for(&req, 0, &deadline_token(&req)))
            };
            assert_eq!(ladder, for_choice(WireChoice::Ladder));
            assert_eq!(sat, for_choice(WireChoice::Sat));
        }
    }

    #[test]
    fn demotion_one_keeps_the_sat_budget_cut() {
        let req = request(WireChoice::Sat, 0);
        let SchedulerChoice::SatWith(sat) = scheduler_for(&req, 1, &deadline_token(&req)) else {
            panic!("demotion 1 keeps the SAT backend");
        };
        assert_eq!(sat.loop_conflict_limit, Some(15_000));
        assert_eq!(sat.conflict_limit, 5_000);
        assert!(!sat.cancel.is_real(), "no deadline, no stop signal");
    }
}
