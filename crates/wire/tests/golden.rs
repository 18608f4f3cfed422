//! Golden-bytes tests: the exact wire layout of every frame, pinned as
//! literal byte arrays.
//!
//! Round-trip tests prove encode and parse agree with *each other*;
//! only a byte-literal test proves they agree with the *protocol* — a
//! matched encode/parse bug (reordered fields, flipped endianness, a
//! swapped trace-id half, a different checksum polynomial) round-trips
//! clean and would ship a silent wire break. Each array below was
//! written out by hand from the layouts documented in `protocol.rs`
//! (the FNV-1a-32 checksums were computed once, offline, from the
//! preceding literal bytes). If an edit changes any of these bytes, it
//! changes the protocol and must bump `VERSION` too.

use pl_labeling::bits::BitWriter;
use pl_labeling::{Label, Labeling};
use pl_obs::MetricsRegistry;
use pl_obs::TraceContext;
use pl_wire::protocol::{
    checksum, encode_batch, encode_batch_ctx, encode_batch_reply, encode_health_reply,
    encode_hello, encode_hello_ok, encode_labels, encode_labels_ok, encode_map_get, encode_map_ok,
    encode_map_reply, encode_map_set, encode_stats_reply_into, encode_trace_dump, opcode,
    parse_batch, parse_batch_ctx, parse_batch_reply, parse_goodbye, parse_health,
    parse_health_reply, parse_hello, parse_hello_ok, parse_labels, parse_labels_ok, parse_map_get,
    parse_map_ok, parse_map_reply, parse_map_set, parse_stats, parse_stats_reply, parse_trace_dump,
    trace_dump_flags, Answer, HealthReport, LabelsStatus, MapSetMode, MapSetRequest, MapSetStatus,
    ProtocolError, MAP_TARGET_ROUTER, VERSION,
};
use pl_wire::stats::Stats;
use pl_wire::Query;

/// Every opcode's byte. Requests sit below `0x80`, each reply at
/// `0x80 | op`; `OVERLOADED` and `ERROR` answer no particular request.
/// The frames that are their opcode alone (`STATS`, `GOODBYE`,
/// `HEALTH`, `MAP_GET`, `GOODBYE_OK`, `OVERLOADED`) are pinned here.
#[test]
fn opcode_bytes() {
    #[rustfmt::skip]
    let pinned = [
        (opcode::HELLO, 0x00), (opcode::HELLO_OK, 0x80),
        (opcode::BATCH, 0x01), (opcode::BATCH_REPLY, 0x81),
        (opcode::STATS, 0x02), (opcode::STATS_REPLY, 0x82),
        (opcode::GOODBYE, 0x03), (opcode::GOODBYE_OK, 0x83),
        (opcode::TRACE_DUMP, 0x04), (opcode::TRACE_REPLY, 0x84),
        (opcode::HEALTH, 0x05), (opcode::HEALTH_REPLY, 0x85),
        (opcode::MAP_GET, 0x06), (opcode::MAP_REPLY, 0x86),
        (opcode::MAP_SET, 0x07), (opcode::MAP_OK, 0x87),
        (opcode::LABELS, 0x08), (opcode::LABELS_OK, 0x88),
        (opcode::OVERLOADED, 0x8E),
        (opcode::ERROR, 0x8F),
    ];
    for (code, byte) in pinned {
        assert_eq!(code, byte);
    }
    assert_eq!(VERSION, 9);
    for (bare, parse) in [
        (0x02, parse_stats as fn(&[u8]) -> Result<(), ProtocolError>),
        (0x03, parse_goodbye),
        (0x05, parse_health),
        (0x06, parse_map_get),
    ] {
        assert_eq!(parse(&[bare]), Ok(()));
        assert!(parse(&[bare, 0x00]).is_err(), "{bare:#04x} takes no body");
    }
    assert_eq!(encode_map_get(), [0x06]);
}

/// HELLO: opcode, `"PLSV"`, version 9. HELLO_OK: opcode, version 9,
/// scheme tag, n u32 LE.
#[test]
fn hello_golden_bytes() {
    assert_eq!(encode_hello(), [0x00, b'P', b'L', b'S', b'V', 0x09]);
    assert_eq!(parse_hello(&[0x00, b'P', b'L', b'S', b'V', 0x09]), Ok(()));
    // The previous version's HELLO is refused, not misread.
    assert_eq!(
        parse_hello(&[0x00, b'P', b'L', b'S', b'V', 0x08]),
        Err(ProtocolError::UnsupportedVersion(8))
    );

    #[rustfmt::skip]
    let hello_ok: &[u8] = &[
        0x80,                   // opcode HELLO_OK
        0x09,                   // version 9
        0x02,                   // scheme tag
        0x04, 0x03, 0x02, 0x01, // n = 0x01020304, u32 LE
    ];
    assert_eq!(encode_hello_ok(2, 0x0102_0304), hello_ok);
    assert_eq!(parse_hello_ok(hello_ok), Ok((2, 0x0102_0304)));
}

const CTX: TraceContext = TraceContext {
    trace_hi: 0x1122_3344_5566_7788,
    trace_lo: 0x99AA_BBCC_DDEE_FF00,
    parent_span: 0x0123_4567_89AB_CDEF,
};

/// BATCH: opcode, count, `count ×` (kind, u, v); with a trace context,
/// then `'T'` and three u64 LE words (trace hi, trace lo, parent span).
#[test]
fn batch_golden_bytes() {
    let queries = [Query::adjacent(0x0102_0304, 0x0A0B_0C0D)];
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x01,                   // opcode BATCH
        0x01, 0x00,             // 1 query, u16 LE
        0x00,                   // kind Adjacent
        0x04, 0x03, 0x02, 0x01, // u = 0x01020304, u32 LE
        0x0D, 0x0C, 0x0B, 0x0A, // v = 0x0A0B0C0D, u32 LE
        0x54,                   // EXT_TRACE_CTX ('T')
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // trace_hi LE
        0x00, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, // trace_lo LE
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // parent_span LE
    ];
    assert_eq!(
        encode_batch_ctx(&queries, Some(&CTX), VERSION).unwrap(),
        expected,
        "TRACE_CTX trailer layout drifted"
    );
    let (parsed, ctx) = parse_batch_ctx(expected, VERSION).unwrap();
    assert_eq!(parsed, queries);
    assert_eq!(ctx, Some(CTX));

    // Without a context the frame is the twelve entry bytes alone — the
    // trailer is strictly pay-for-what-you-use.
    let bare = &expected[..12];
    assert_eq!(encode_batch_ctx(&queries, None, VERSION).unwrap(), bare);
    assert_eq!(encode_batch(&queries).unwrap(), bare);
    assert_eq!(
        parse_batch_ctx(bare, VERSION).unwrap(),
        (queries.to_vec(), None)
    );
    // The entry-only parse rejects a trailer rather than ignoring it.
    assert!(matches!(
        parse_batch(expected),
        Err(ProtocolError::Malformed("batch length"))
    ));
}

/// BATCH_REPLY: `0x81 | count u16 LE | status bytes | FNV-1a-32 LE of
/// everything before it`.
#[test]
fn batch_reply_golden_bytes() {
    let answers = [
        Answer::Adjacent,
        Answer::NotAdjacent,
        Answer::Distance(0x0102_0304),
        Answer::Overloaded,
    ];
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x81,                   // opcode BATCH_REPLY
        0x04, 0x00,             // 4 answers, u16 LE
        0x01,                   // Adjacent
        0x00,                   // NotAdjacent
        0x02,                   // Distance tag...
        0x04, 0x03, 0x02, 0x01, // ...payload 0x01020304, u32 LE
        0xFB,                   // Overloaded
        0xEE, 0x6E, 0xBF, 0x5F, // FNV-1a-32 = 0x5FBF6EEE, LE
    ];
    assert_eq!(encode_batch_reply(&answers), expected);
    assert_eq!(parse_batch_reply(expected, VERSION).unwrap(), answers);

    // The pinned checksum really is FNV-1a over the pinned payload.
    let (payload, sum) = expected.split_at(expected.len() - 4);
    assert_eq!(checksum(payload), 0x5FBF_6EEE);
    assert_eq!(u32::from_le_bytes(sum.try_into().unwrap()), 0x5FBF_6EEE);

    // NotOwned (0xFA) and OutOfRange (0xFD).
    let answers = [Answer::NotOwned, Answer::Adjacent, Answer::OutOfRange];
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x81,                   // opcode BATCH_REPLY
        0x03, 0x00,             // 3 answers, u16 LE
        0xFA,                   // NotOwned
        0x01,                   // Adjacent
        0xFD,                   // OutOfRange
        0x3D, 0xC3, 0x1D, 0x9B, // FNV-1a-32 = 0x9B1DC33D, LE
    ];
    assert_eq!(encode_batch_reply(&answers), expected);
    assert_eq!(parse_batch_reply(expected, VERSION).unwrap(), answers);
}

/// A corrupted frame must fail the checksum, not mis-parse: flip every
/// byte of the frame in turn and demand rejection.
#[test]
fn batch_reply_rejects_every_single_byte_flip() {
    let good = encode_batch_reply(&[Answer::Adjacent, Answer::Distance(7)]);
    assert_eq!(parse_batch_reply(&good, VERSION).unwrap().len(), 2);
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[i] ^= flip;
            assert!(
                parse_batch_reply(&bad, VERSION).is_err(),
                "flip 0x{flip:02X} at byte {i} parsed"
            );
        }
    }
}

/// STATS_REPLY: `0x82`, a u32 sample count, then each sample in
/// name-then-labels order: its name, a u32 label count and the
/// key/value pairs (every string a u32 byte length plus UTF-8), a kind
/// byte (0 counter, 1 gauge, 2 histogram) and the value. A histogram is
/// a u32 bucket count (64), the 64 buckets, then sum, min and max. All
/// integers little-endian.
#[test]
fn stats_reply_golden_bytes() {
    let reg = MetricsRegistry::new();
    reg.counter_with("c", &[("k", "v")]).add(0x0102);
    reg.gauge("g").set(-2);
    let h = reg.histogram("h");
    h.record(2);
    h.record(3); // both in bucket 1: [2, 4)
    let stats = Stats::of(&reg);
    #[rustfmt::skip]
    let mut expected: Vec<u8> = vec![
        0x82,                               // opcode STATS_REPLY
        0x03, 0x00, 0x00, 0x00,             // 3 samples
        0x01, 0x00, 0x00, 0x00, b'c',       // name "c"
        0x01, 0x00, 0x00, 0x00,             // 1 label
        0x01, 0x00, 0x00, 0x00, b'k',       // key "k"
        0x01, 0x00, 0x00, 0x00, b'v',       // value "v"
        0x00,                               // kind counter
        0x02, 0x01, 0, 0, 0, 0, 0, 0,       // 0x0102, u64 LE
        0x01, 0x00, 0x00, 0x00, b'g',       // name "g"
        0x00, 0x00, 0x00, 0x00,             // no labels
        0x01,                               // kind gauge
        0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // -2, i64 LE
        0x01, 0x00, 0x00, 0x00, b'h',       // name "h"
        0x00, 0x00, 0x00, 0x00,             // no labels
        0x02,                               // kind histogram
        0x40, 0x00, 0x00, 0x00,             // 64 buckets
    ];
    // Bucket 0 empty, bucket 1 holds 2, buckets 2..64 empty; then
    // sum 5, min 2, max 3.
    for w in [0u64, 2].into_iter().chain([0; 62]).chain([5, 2, 3]) {
        expected.extend_from_slice(&w.to_le_bytes());
    }
    assert_eq!(expected.len(), 65 + 67 * 8);
    let mut encoded = vec![0xAA; 3]; // `_into` clears first
    encode_stats_reply_into(&stats, &mut encoded);
    assert_eq!(encoded, expected);
    assert_eq!(parse_stats_reply(&expected), Ok(stats));

    // Exact length: a byte short or a byte long is malformed.
    assert!(parse_stats_reply(&expected[..expected.len() - 1]).is_err());
    let mut long = expected.clone();
    long.push(0);
    assert!(parse_stats_reply(&long).is_err());
}

/// TRACE_DUMP always carries its flag byte: 0 drains, `SNAPSHOT` reads
/// without consuming.
#[test]
fn trace_dump_golden_bytes() {
    assert_eq!(encode_trace_dump(0), [0x04, 0x00]);
    assert_eq!(
        encode_trace_dump(trace_dump_flags::SNAPSHOT),
        [0x04, 0x01] // opcode TRACE_DUMP, SNAPSHOT flag
    );
    assert_eq!(parse_trace_dump(&[0x04, 0x00]).unwrap(), 0);
    assert_eq!(parse_trace_dump(&[0x04, 0x01]).unwrap(), 0x01);
    // The flag byte is required, and unknown flag bits are rejected,
    // not ignored.
    assert!(parse_trace_dump(&[0x04]).is_err());
    assert!(parse_trace_dump(&[0x04, 0x02]).is_err());
}

/// HEALTH_REPLY: opcode, all-live byte, count u16 LE, one flag byte per
/// entry.
#[test]
fn health_reply_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x85,       // opcode HEALTH_REPLY
        0x00,       // not every entry is live
        0x02, 0x00, // 2 entries, u16 LE
        0x01, 0x00, // entry 0 live, entry 1 down
    ];
    assert_eq!(encode_health_reply(&[true, false]), expected);
    assert_eq!(
        parse_health_reply(expected).unwrap(),
        HealthReport {
            healthy: false,
            shards: vec![true, false],
        }
    );
}

/// A hand-written, checksummed `ClusterMap` blob: epoch 2, seed 3,
/// 1 replica, n = 5, tag 2, one backend `"a:1"`. The wire layer only
/// validates this structurally, but the bytes pin the `.plcm` layout
/// the map opcodes carry.
#[rustfmt::skip]
const MAP_BLOB: &[u8] = &[
    b'P', b'L', b'C', b'M',                         // magic
    0x01,                                           // map version 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 2, u64 LE
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seed = 3, u64 LE
    0x01, 0x00, 0x00, 0x00,                         // replicas = 1, u32 LE
    0x05, 0x00, 0x00, 0x00,                         // n = 5, u32 LE
    0x02,                                           // scheme tag
    0x01, 0x00,                                     // 1 backend, u16 LE
    0x03, 0x00,                                     // address length, u16 LE
    b'a', b':', b'1',                               // "a:1"
    0xEB, 0xCB, 0xFB, 0xE8,                         // FNV-1a-32 of the above, LE
];

#[test]
fn map_reply_golden_bytes() {
    // No map: opcode + absent presence byte.
    assert_eq!(encode_map_reply(None), [0x86, 0x00]);
    assert_eq!(parse_map_reply(&[0x86, 0x00]).unwrap(), None);

    // Present map: opcode, presence byte, then the blob verbatim.
    let mut expected = vec![0x86, 0x01];
    expected.extend_from_slice(MAP_BLOB);
    assert_eq!(encode_map_reply(Some(MAP_BLOB)), expected);
    assert_eq!(parse_map_reply(&expected).unwrap(), Some(MAP_BLOB.to_vec()));

    // A flipped bit inside the blob fails the blob's own checksum.
    let mut tampered = expected.clone();
    tampered[10] ^= 0x40;
    assert!(matches!(
        parse_map_reply(&tampered),
        Err(ProtocolError::ChecksumMismatch)
    ));
}

/// MAP_SET: opcode, mode byte, backend u32, moved u64, then the blob.
#[test]
fn map_set_golden_bytes() {
    #[rustfmt::skip]
    let mut expected = vec![
        0x07,                   // opcode MAP_SET
        0x01,                   // mode Commit
        0xFF, 0xFF, 0xFF, 0xFF, // backend = MAP_TARGET_ROUTER, u32 LE
        0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // moved = 0x0102, u64 LE
    ];
    expected.extend_from_slice(MAP_BLOB);
    assert_eq!(
        encode_map_set(MapSetMode::Commit, MAP_TARGET_ROUTER, 0x0102, MAP_BLOB).unwrap(),
        expected,
        "MAP_SET layout drifted"
    );
    assert_eq!(
        parse_map_set(&expected).unwrap(),
        MapSetRequest {
            mode: MapSetMode::Commit,
            backend: MAP_TARGET_ROUTER,
            moved: 0x0102,
            map: MAP_BLOB.to_vec(),
        }
    );

    // The four mode bytes are pinned; byte 4 is not a mode.
    for (mode, byte) in [
        (MapSetMode::Prepare, 0x00),
        (MapSetMode::Commit, 0x01),
        (MapSetMode::Abort, 0x02),
        (MapSetMode::Shrink, 0x03),
    ] {
        let body = encode_map_set(mode, 0, 0, MAP_BLOB).unwrap();
        assert_eq!(body[1], byte, "{mode:?} mode byte");
    }
    let mut bad_mode = expected.clone();
    bad_mode[1] = 0x04;
    assert!(parse_map_set(&bad_mode).is_err());
}

/// MAP_OK: opcode, status byte, the receiver's current epoch.
#[test]
fn map_ok_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x87,                   // opcode MAP_OK
        0x04,                   // status Stale
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 9, u64 LE
    ];
    assert_eq!(encode_map_ok(MapSetStatus::Stale, 9), expected);
    assert_eq!(parse_map_ok(expected).unwrap(), (MapSetStatus::Stale, 9));

    // All seven status bytes are pinned; byte 7 is not a status.
    for (status, byte) in [
        (MapSetStatus::Prepared, 0x00),
        (MapSetStatus::Committed, 0x01),
        (MapSetStatus::Aborted, 0x02),
        (MapSetStatus::Shrunk, 0x03),
        (MapSetStatus::Stale, 0x04),
        (MapSetStatus::Unsupported, 0x05),
        (MapSetStatus::Failed, 0x06),
    ] {
        assert_eq!(encode_map_ok(status, 0)[1], byte, "{status:?} status byte");
    }
    assert!(parse_map_ok(&[0x87, 0x07, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
}

/// LABELS: opcode, epoch, count, `count ×` vertex, one `PLL2`
/// labeling container holding the `count` labels, then an FNV-1a-32
/// checksum of every preceding body byte.
#[test]
fn labels_golden_bytes() {
    #[rustfmt::skip]
    let pll2: &[u8] = &[
        b'P', b'L', b'L', b'2', // container magic
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // 1 label, u64 LE
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // offset 0
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // offset 3 (bits)
        0xA0,                   // arena: bits 1, 0, 1, zero-padded
    ];
    #[rustfmt::skip]
    let header: &[u8] = &[
        0x08,                   // opcode LABELS
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 7, u64 LE
        0x01, 0x00,             // 1 label, u16 LE
        0x04, 0x03, 0x02, 0x01, // vertex = 0x01020304, u32 LE
    ];
    let sum = [0xC3, 0xA2, 0xC8, 0xFF]; // FNV-1a-32 of the above, LE
    let mut bits = BitWriter::new();
    bits.write_bits(0b101, 3);
    assert_eq!(Labeling::new(vec![Label::from(bits)]).to_bytes(), pll2);
    let expected = [header, pll2, &sum].concat();
    assert_eq!(
        encode_labels(7, &[0x0102_0304], pll2).unwrap(),
        expected,
        "LABELS layout drifted"
    );
    assert_eq!(
        parse_labels(&expected).unwrap(),
        (7, vec![0x0102_0304], pll2)
    );

    // A single flipped label bit fails the trailing checksum — the
    // tamper-evidence migration pushes rely on.
    let mut tampered = expected.clone();
    tampered[header.len() + 28] ^= 0x01; // 0xA0 -> 0xA1
    assert!(matches!(
        parse_labels(&tampered),
        Err(ProtocolError::ChecksumMismatch)
    ));
}

/// LABELS_OK: opcode, status byte, labels buffered so far this epoch.
#[test]
fn labels_ok_golden_bytes() {
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x88,                   // opcode LABELS_OK
        0x00,                   // status Ok
        0x03, 0x00, 0x00, 0x00, // received = 3, u32 LE
    ];
    assert_eq!(encode_labels_ok(LabelsStatus::Ok, 3), expected);
    assert_eq!(parse_labels_ok(expected).unwrap(), (LabelsStatus::Ok, 3));

    for (status, byte) in [
        (LabelsStatus::Ok, 0x00),
        (LabelsStatus::WrongEpoch, 0x01),
        (LabelsStatus::Rejected, 0x02),
        (LabelsStatus::Unsupported, 0x03),
    ] {
        assert_eq!(
            encode_labels_ok(status, 0)[1],
            byte,
            "{status:?} status byte"
        );
    }
    assert!(parse_labels_ok(&[0x88, 0x04, 0, 0, 0, 0]).is_err());
}
