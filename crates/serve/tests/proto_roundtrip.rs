//! Wire-protocol properties: random request/response batches survive an
//! encode → frame → read → decode round trip bit-exactly, and the
//! decoder answers adversarial bytes with structured errors, never a
//! panic.

use proptest::prelude::*;
use swp_serve::proto::{
    decode_payload, decode_result, encode_message, encode_result, read_message, LoopOk, LoopReply,
    Message, ProtoError, RequestBatch, ResponseBatch, WireChoice, MAGIC, MAX_FRAME,
};

use showdown::{OptLevel, VerifyLevel};

/// SplitMix64 — the workspace's test-local deterministic generator
/// (same pattern as the ILP warm-start proptests).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn random_request(g: &mut Gen) -> RequestBatch {
    let n_loops = 1 + g.below(3) as usize;
    let loops = (0..n_loops)
        .map(|_| {
            let params = swp_kernels::GenParams {
                ops: 4 + g.below(12) as usize,
                mem_fraction: 0.3,
                recurrences: g.below(2) as usize,
                div_fraction: 0.0,
            };
            swp_kernels::random_loop(&params, g.next())
        })
        .collect();
    RequestBatch {
        batch_id: g.next(),
        client: format!("client-{}", g.below(10)),
        deadline_ms: (g.below(2) * g.below(5000)) as u32,
        choice: [WireChoice::Ladder, WireChoice::Heuristic, WireChoice::Ilp][g.below(3) as usize],
        opt: [OptLevel::Off, OptLevel::Basic, OptLevel::Full][g.below(3) as usize],
        verify: [VerifyLevel::Off, VerifyLevel::Schedule, VerifyLevel::Full][g.below(3) as usize],
        loops,
    }
}

fn random_loop_ok(g: &mut Gen) -> LoopOk {
    LoopOk {
        rung: if g.below(2) == 0 {
            None
        } else {
            Some(g.below(4) as u8)
        },
        demotion: g.below(3) as u8,
        ii: 1 + g.below(40) as u32,
        min_ii: 1 + g.below(40) as u32,
        optimal: g.below(2) == 0,
        fell_back: g.below(2) == 0,
        spills: g.below(8) as u32,
        search_effort: g.next() >> 20,
        pivots: g.next() >> 20,
        code_fp: g.next(),
        diagnostics: (0..g.below(4))
            .map(|i| format!("rung {i}: accepted [detail {}]", g.below(100)))
            .collect(),
    }
}

fn random_response(g: &mut Gen) -> ResponseBatch {
    let n = 1 + g.below(4) as usize;
    ResponseBatch {
        batch_id: g.next(),
        results: (0..n)
            .map(|i| LoopReply {
                name: format!("loop-{i}"),
                outcome: if g.below(4) == 0 {
                    Err(format!("no schedule within budget ({})", g.below(100)))
                } else {
                    Ok(random_loop_ok(g))
                },
            })
            .collect(),
    }
}

/// Frame + decode through the reader used by real connections.
fn round_trip(msg: &Message) -> Message {
    let frame = encode_message(msg);
    let mut cursor = std::io::Cursor::new(frame);
    read_message(&mut cursor)
        .expect("round trip decode")
        .expect("one message")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_batches_round_trip(seed in 0u64..1_000_000) {
        let mut g = Gen(seed);
        let req = random_request(&mut g);
        let back = round_trip(&Message::Request(req.clone()));
        prop_assert_eq!(back, Message::Request(req));
    }

    #[test]
    fn response_batches_round_trip(seed in 0u64..1_000_000) {
        let mut g = Gen(seed);
        let resp = random_response(&mut g);
        let back = round_trip(&Message::Response(resp.clone()));
        prop_assert_eq!(back, Message::Response(resp));
    }

    #[test]
    fn store_payloads_round_trip(seed in 0u64..1_000_000) {
        let mut g = Gen(seed);
        let ok = random_loop_ok(&mut g);
        let bytes = encode_result(&ok);
        prop_assert_eq!(decode_result(&bytes).expect("decode"), ok);
    }

    /// Fuzz the payload decoder with arbitrary bytes: any outcome is
    /// fine except a panic, and truncating a valid payload anywhere
    /// must produce a structured error, not garbage data.
    #[test]
    fn decoder_never_panics_and_rejects_truncation(seed in 0u64..1_000_000) {
        let mut g = Gen(seed);
        // Arbitrary garbage bytes.
        let len = g.below(200) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        let _ = decode_payload(&garbage);
        // Every strict prefix of a valid request payload must error.
        let req = random_request(&mut g);
        let frame = encode_message(&Message::Request(req));
        let payload = &frame[8..];
        let cut = g.below(payload.len() as u64) as usize;
        prop_assert!(decode_payload(&payload[..cut]).is_err());
    }

    /// Flipping any single byte of a framed message must never panic
    /// the reader, and must never be silently accepted as a *different*
    /// well-formed message of the same length... unless the flip landed
    /// in a value field, in which case decoding may succeed — so the
    /// only hard property is "no panic, structured result".
    #[test]
    fn bit_flips_never_panic(seed in 0u64..1_000_000) {
        let mut g = Gen(seed);
        let resp = random_response(&mut g);
        let mut frame = encode_message(&Message::Response(resp));
        let pos = g.below(frame.len() as u64) as usize;
        frame[pos] ^= 1 << g.below(8);
        let mut cursor = std::io::Cursor::new(frame);
        let _ = read_message(&mut cursor);
    }
}

#[test]
fn clean_eof_is_none_mid_frame_eof_is_error() {
    let mut empty = std::io::Cursor::new(Vec::<u8>::new());
    assert!(matches!(read_message(&mut empty), Ok(None)));

    let frame = encode_message(&Message::Error("x".into()));
    // Cut inside the header.
    let mut cut = std::io::Cursor::new(frame[..5].to_vec());
    assert!(matches!(
        read_message(&mut cut),
        Err(ProtoError::MidFrameEof { .. })
    ));
    // Cut inside the payload.
    let mut cut = std::io::Cursor::new(frame[..frame.len() - 1].to_vec());
    assert!(matches!(
        read_message(&mut cut),
        Err(ProtoError::MidFrameEof { .. })
    ));
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(u32::MAX).to_le_bytes());
    // No payload follows; if the reader tried to allocate 4 GiB this
    // test would fail very differently.
    let mut cursor = std::io::Cursor::new(frame);
    match read_message(&mut cursor) {
        Err(ProtoError::Oversized(n)) => assert!(n > MAX_FRAME),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn every_wire_choice_is_its_own_tag() {
    use showdown::codec::Tag;
    for (i, choice) in WireChoice::ALL.iter().enumerate() {
        assert_eq!(choice.index(), i, "{choice:?} is out of place");
    }
}

#[test]
fn a_version_one_payload_is_a_bad_version() {
    let frame = encode_message(&Message::Error("x".into()));
    let mut payload = frame[8..].to_vec();
    payload[1] = 1;
    assert_eq!(decode_payload(&payload), Err(ProtoError::BadVersion(1)));
}

#[test]
fn bad_magic_is_rejected() {
    let mut frame = Vec::new();
    frame.extend_from_slice(b"NOPE");
    frame.extend_from_slice(&4u32.to_le_bytes());
    frame.extend_from_slice(&[0; 4]);
    let mut cursor = std::io::Cursor::new(frame);
    assert!(matches!(
        read_message(&mut cursor),
        Err(ProtoError::BadMagic(_))
    ));
}

#[test]
fn forged_count_cannot_force_a_huge_allocation() {
    // A request payload claiming u32::MAX loops with no bytes behind
    // the claim must fail on the count check, not in the allocator.
    let valid = encode_message(&Message::Request(RequestBatch {
        batch_id: 1,
        client: "c".into(),
        deadline_ms: 0,
        choice: WireChoice::Ladder,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops: vec![],
    }));
    let mut payload = valid[8..].to_vec();
    let len = payload.len();
    // The loop count is the last u32 of this empty-batch payload.
    payload[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode_payload(&payload) {
        Err(ProtoError::Malformed(m)) => assert!(m.contains("count"), "{m}"),
        other => panic!("expected Malformed count error, got {other:?}"),
    }
}

#[test]
fn structurally_invalid_loops_are_rejected_by_the_validator() {
    // Encode a valid one-loop request, then corrupt an operand's value
    // id to point past the value table. The decoder's byte-level checks
    // cannot see this; Loop::from_raw_parts must.
    let lp = swp_kernels::random_loop(&swp_kernels::GenParams::default(), 7);
    let req = RequestBatch {
        batch_id: 1,
        client: "c".into(),
        deadline_ms: 0,
        choice: WireChoice::Ladder,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops: vec![lp],
    };
    let frame = encode_message(&Message::Request(req));
    let payload = &frame[8..];
    let mut broke_one = false;
    // Flip high bits of u32s throughout the payload until one decodes
    // to a structural rejection (message mentions the validator's
    // vocabulary rather than a truncation).
    for pos in (30..payload.len().saturating_sub(4)).step_by(7) {
        let mut p = payload.to_vec();
        p[pos] |= 0x80;
        p[pos + 1] |= 0x80;
        match decode_payload(&p) {
            Err(ProtoError::Malformed(_)) => {
                broke_one = true;
                break;
            }
            _ => continue,
        }
    }
    assert!(broke_one, "no corruption produced a Malformed rejection");
}
