//! `swp-serve` — the fault-tolerant compile service.
//!
//! A production compiler built around an expensive optimal scheduler
//! (the paper's MOST configuration) wants to pay for each schedule
//! once. This crate turns the workspace's compile pipeline into a
//! long-lived daemon with three defensive layers:
//!
//! 1. **Protocol** ([`proto`]): length-prefixed binary frames over a
//!    Unix socket, with a decoder written for adversarial input. A bad
//!    client gets a structured error; the server never dies for it.
//! 2. **Persistence** ([`store`]): a content-addressed on-disk record
//!    per compile key, written atomically (temp file + rename) and
//!    checksummed on read, so warm state survives restarts and any
//!    corruption is detected, deleted, and silently recompiled.
//! 3. **Admission** ([`admission`]): per-client token buckets and a
//!    global in-flight gate that *demote* overloaded requests down the
//!    degradation ladder instead of rejecting them.
//!
//! [`chaos`] proves the containment story end to end and
//! [`mod@bench`] measures what the layers cost and buy. See DESIGN.md §11.

pub mod admission;
pub mod bench;
pub mod chaos;
pub mod client;
pub mod proto;
pub mod server;
pub mod store;

pub use admission::{Admission, AdmissionOptions, Permit};
pub use bench::{saturate, PhaseLatency, SaturationReport};
pub use chaos::{service_chaos, ServiceChaosReport};
pub use client::Client;
pub use proto::{
    decode_payload, encode_message, read_message, write_message, LoopOk, LoopReply, Message,
    ProtoError, RequestBatch, ResponseBatch, WireChoice, MAGIC, MAX_FRAME, VERSION,
};
pub use server::{
    code_fingerprint, quick_ladder_options, ServeStats, Server, ServerHandle, ServerOptions,
};
pub use store::{write_atomic, DiskStore, Lookup, StoreStats};
