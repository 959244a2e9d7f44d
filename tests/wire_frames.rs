//! Robustness property tests for the two on-the-wire framings that
//! share `wire::{write_section, read_section}`: the DPSV network frame
//! protocol and the DPCK checkpoint container.
//!
//! The contract under test: **malformed bytes produce typed errors,
//! never a panic, a hang, or an unbounded allocation.** Truncations,
//! bit flips, oversized length prefixes and unknown tags are each
//! driven through both parsers. One suite covers both framings because
//! the framing (and thus the corruption model) is literally the same
//! code path.

use depprof::core::checkpoint::CheckpointData;
use depprof::types::protocol::{self, Frame, Hello, ProtocolError, MAX_FRAME_BYTES};
use depprof::types::{loc::loc, AccessKind, MemAccess, TraceEvent};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// The vendored proptest subset has no string strategies; arbitrary
/// bytes through a lossy UTF-8 decode cover ASCII, multibyte sequences
/// and replacement characters alike.
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..max)
        .prop_map(|v| String::from_utf8_lossy(&v).into_owned())
}

fn arb_access() -> impl Strategy<Value = MemAccess> {
    ((any::<bool>(), 0u64..1 << 20, 0u64..1 << 16), (1u32..200, 0u32..64, 0u16..8)).prop_map(
        |((w, addr, ts), (line, var, thread))| MemAccess {
            addr: 0x1000 + addr,
            ts,
            loc: loc(1, line),
            var,
            thread,
            kind: if w { AccessKind::Write } else { AccessKind::Read },
        },
    )
}

/// Every event kind the codec defines — accesses and all six control
/// events — so mixed chunks exercise every record layout.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (0u8..8, arb_access(), (any::<u32>(), any::<u64>(), any::<u64>())).prop_map(
        |(kind, a, (id, n, ts))| {
            let (loc, thread) = (a.loc, a.thread);
            match kind {
                0 | 1 => TraceEvent::Access(a),
                2 => TraceEvent::LoopBegin { loop_id: id, loc, thread, ts },
                3 => TraceEvent::LoopIter { loop_id: id, iter: n, thread, ts },
                4 => TraceEvent::LoopEnd { loop_id: id, loc, iters: n, thread, ts },
                5 => TraceEvent::CallBegin { func: id, thread, ts },
                6 => TraceEvent::CallEnd { func: id, thread, ts },
                _ => TraceEvent::Dealloc { base: a.addr, len: n, thread, ts },
            }
        },
    )
}

/// A well-formed name table: distinct names, so each interns to its
/// own position.
fn arb_names() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_string(8), 0..4).prop_map(|names| {
        let mut seen = std::collections::HashSet::new();
        names.into_iter().filter(|n| seen.insert(n.clone())).collect()
    })
}

/// Every frame kind the protocol defines, with arbitrary payloads.
fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (arb_string(12), arb_names(), 0u64..1 << 16).prop_map(|(session, names, every)| {
            Frame::Hello(Hello {
                session,
                spec: depprof::core::SessionSpec::default().encode(),
                checkpoint_every: every,
                names,
            })
        }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session_id, resume_from)| Frame::HelloAck { session_id, resume_from }),
        (0u64..1 << 40, prop::collection::vec(arb_event(), 0..32))
            .prop_map(|(base, events)| Frame::Chunk { base, events }),
        any::<u64>().prop_map(|nonce| Frame::Sync { nonce }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(nonce, position)| Frame::SyncAck { nonce, position }),
        any::<u64>().prop_map(|retry_after_ms| Frame::Busy { retry_after_ms }),
        Just(Frame::Finish),
        Just(Frame::StatsRequest),
        arb_string(40).prop_map(|json| Frame::Stats { json }),
        arb_string(60).prop_map(|text| Frame::Report { text }),
        (1u16..6, arb_string(30)).prop_map(|(code, message)| Frame::Error { code, message }),
        (any::<u64>(), 0u8..8).prop_map(|(id, kind)| Frame::Query { id, kind }),
        (any::<u64>(), 0u8..8, arb_string(60)).prop_map(|(id, kind, json)| Frame::QueryResult {
            id,
            kind,
            json
        }),
    ]
}

fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    protocol::write_frame(&mut buf, f).expect("well-formed frame encodes");
    buf
}

fn arb_checkpoint() -> impl Strategy<Value = CheckpointData> {
    (
        1u64..1 << 20,
        0u64..1 << 20,
        prop::collection::vec(any::<u8>(), 0..32),
        prop::collection::vec(any::<u8>(), 0..32),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 0..4),
    )
        .prop_map(|(generation, records_read, config, router, workers)| CheckpointData {
            generation,
            records_read,
            config,
            router: router.clone(),
            ledger: router,
            workers,
        })
}

/// Byte positions of the unchecksummed `len` prefixes in a buffer of
/// consecutive sections starting at `header` — the one region where a
/// single-byte checksum cannot promise detection (a shortened length
/// can land on a byte that happens to fold correctly). Everything else
/// (magic, tag, payload, checksum byte) is covered.
fn len_field_positions(bytes: &[u8], header: usize) -> Vec<usize> {
    let mut positions = Vec::new();
    let mut at = header;
    while at + 5 <= bytes.len() {
        positions.extend(at + 1..at + 5);
        let len = u32::from_le_bytes([bytes[at + 1], bytes[at + 2], bytes[at + 3], bytes[at + 4]])
            as usize;
        at += 1 + 4 + len + 1;
    }
    positions
}

// ---------------------------------------------------------------------
// DPSV frames
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Sanity anchor: every well-formed frame round-trips exactly.
    #[test]
    fn frames_roundtrip(f in arb_frame()) {
        let buf = encode_frame(&f);
        let back = protocol::read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES)
            .expect("well-formed frame decodes")
            .expect("non-empty stream");
        prop_assert_eq!(back, f);
    }

    /// A stream cut anywhere strictly inside a frame is a typed error;
    /// cut before the frame starts it is a clean end-of-stream.
    #[test]
    fn truncated_frames_are_typed((f, raw) in (arb_frame(), any::<u64>())) {
        let buf = encode_frame(&f);
        let cut = (raw as usize) % buf.len();
        let r = protocol::read_frame(&mut &buf[..cut], MAX_FRAME_BYTES);
        if cut == 0 {
            prop_assert!(matches!(r, Ok(None)), "empty stream is a clean EOF: {r:?}");
        } else {
            prop_assert!(r.is_err(), "cut at {cut}/{} must be typed, got {r:?}", buf.len());
        }
    }

    /// A single bit flip anywhere outside the (unchecksummed) length
    /// prefix is always caught — checksum mismatch, bad event tag, or a
    /// payload that no longer decodes. Flips inside the length prefix
    /// must still parse without panicking (typed error or, in the
    /// astronomically rare folding coincidence, a different frame) —
    /// `read_frame` itself running to completion is the property.
    #[test]
    fn bit_flips_are_caught_or_typed((f, raw, bit) in (arb_frame(), any::<u64>(), 0u8..8)) {
        let mut buf = encode_frame(&f);
        let pos = (raw as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        let r = protocol::read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES);
        if !len_field_positions(&buf, 0).contains(&pos) {
            match r {
                Err(_) => {}
                Ok(decoded) => prop_assert!(
                    false,
                    "flip at byte {pos} bit {bit} went undetected: {decoded:?}"
                ),
            }
        }
    }

    /// An adversarial length prefix is rejected *before* any buffer of
    /// that size is allocated — the read-side memory bound.
    #[test]
    fn oversized_frames_are_rejected_up_front((tag, len) in (any::<u8>(), 1u64 << 20..u32::MAX as u64)) {
        let mut buf = vec![tag];
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        // No payload follows: if the bound check were missing, the
        // parser would try to read (and first allocate) `len` bytes.
        let max = 64 * 1024;
        let r = protocol::read_frame(&mut buf.as_slice(), max);
        prop_assert!(
            matches!(r, Err(ProtocolError::FrameTooLarge { len: l, max: m }) if l == len as usize && m == max),
            "got {r:?}"
        );
    }

    /// Unknown frame tags (15+ — v3 tops out at QueryResult = 14) are a
    /// typed protocol error, not a desync.
    #[test]
    fn unknown_tags_are_typed((tag, payload) in (15u8..=255, prop::collection::vec(any::<u8>(), 0..64))) {
        let mut w = depprof::types::ByteWriter::new();
        depprof::types::write_section(&mut w, tag, &payload);
        let buf = w.into_bytes();
        let r = protocol::read_frame(&mut buf.as_slice(), MAX_FRAME_BYTES);
        prop_assert!(
            matches!(r, Err(ProtocolError::UnknownFrame { tag: t }) if t == tag),
            "got {r:?}"
        );
    }
}

// ---------------------------------------------------------------------
// DPCK containers — same section codec, same corruption model
// ---------------------------------------------------------------------

/// Magic (4) + version (1) precede the first section in a container.
const DPCK_HEADER: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checkpoints_roundtrip(d in arb_checkpoint()) {
        let back = CheckpointData::decode(&d.encode()).expect("well-formed container decodes");
        prop_assert_eq!(back, d);
    }

    /// A container cut anywhere strictly inside is a typed error (a
    /// torn checkpoint write must never be mistaken for a short one).
    #[test]
    fn truncated_checkpoints_are_typed((d, raw) in (arb_checkpoint(), any::<u64>())) {
        let buf = d.encode();
        let cut = (raw as usize) % buf.len();
        prop_assert!(CheckpointData::decode(&buf[..cut]).is_err(), "cut at {cut}");
    }

    /// Bit flips outside the length prefixes are always detected
    /// (magic, version and the META/worker-count cross-checks catch
    /// what the per-section checksums do not); length-prefix flips must
    /// decode without panicking.
    #[test]
    fn checkpoint_bit_flips_are_caught_or_typed((d, raw, bit) in (arb_checkpoint(), any::<u64>(), 0u8..8)) {
        let mut buf = d.encode();
        let pos = (raw as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        let r = CheckpointData::decode(&buf);
        if !len_field_positions(&buf, DPCK_HEADER).contains(&pos) {
            match r {
                Err(_) => {}
                Ok(decoded) => prop_assert!(
                    false,
                    "flip at byte {pos} bit {bit} went undetected: {decoded:?}"
                ),
            }
        }
    }
}
