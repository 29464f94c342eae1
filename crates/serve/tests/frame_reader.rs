//! The one frame reader under its two regimes: without a shutdown flag a
//! read timeout is an error, so a client never hangs on a silent peer;
//! with the server's flag a timeout is a tick, so shutdown completes even
//! while clients hold idle or half-sent connections.

use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use showdown::{OptLevel, VerifyLevel};
use swp_machine::Machine;
use swp_serve::{
    Client, Message, ProtoError, RequestBatch, Server, ServerOptions, WireChoice, MAGIC,
};

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("swp-frame-{}-{tag}.sock", std::process::id()))
}

#[test]
fn a_client_read_timeout_is_an_io_error_not_a_hang() {
    let path = socket_path("silent");
    let _ = std::fs::remove_file(&path);
    // A bound listener completes connects from its backlog but never
    // answers: the peer a client must not hang on.
    let listener = UnixListener::bind(&path).expect("bind");
    let mut client = Client::connect(&path).expect("connect");
    client
        .set_read_timeout(Duration::from_millis(200))
        .expect("timeout");
    let req = RequestBatch {
        batch_id: 1,
        client: "silent".to_owned(),
        deadline_ms: 0,
        choice: WireChoice::Heuristic,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops: vec![swp_kernels::livermore().remove(0).body],
    };
    let t0 = Instant::now();
    let result = client.compile_batch(&req);
    let waited = t0.elapsed();
    assert!(
        matches!(result, Err(ProtoError::Io(_))),
        "want an io error, got {result:?}"
    );
    assert!(waited < Duration::from_secs(2), "waited {waited:?}");
    drop(listener);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shutdown_returns_promptly_with_idle_and_half_sent_connections() {
    let mut server = Server::start(Machine::r8000(), ServerOptions::at(socket_path("server")))
        .expect("server start");
    let mut idle = Client::connect(server.socket()).expect("connect idle");
    let mut half = Client::connect(server.socket()).expect("connect half");
    // A header promising 100 payload bytes, and no payload.
    let mut header = MAGIC.to_vec();
    header.extend_from_slice(&100u32.to_le_bytes());
    half.send_raw(&header).expect("send header");
    for c in [&mut idle, &mut half] {
        c.set_read_timeout(Duration::from_secs(5)).expect("timeout");
    }
    // Give both handlers time to reach their reads and the half-sent
    // one time to consume the header; the server exposes nothing to
    // wait on for that, and 300 ms is three read ticks.
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    // Between frames the handler leaves quietly; inside a frame the
    // client still owed bytes, so it is told why the frame was dropped.
    assert_eq!(idle.read_message(), Ok(None));
    match half.read_message() {
        Ok(Some(Message::Error(msg))) => assert!(msg.contains("shutting down"), "{msg}"),
        other => panic!("want a shutdown error frame, got {other:?}"),
    }
}
