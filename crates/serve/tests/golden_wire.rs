//! Golden-bytes tests: the exact wire layout of the v3 resilience
//! additions, pinned as literal byte arrays.
//!
//! Round-trip tests prove encode and parse agree with *each other*;
//! only a byte-literal test proves they agree with the *protocol* — a
//! matched encode/parse bug (reordered fields, flipped endianness, a
//! different checksum polynomial) round-trips clean and would ship a
//! silent wire break for every already-deployed peer. Each array below
//! was written out by hand from the layout documented in
//! `protocol.rs`; if an edit changes any of these bytes, it changes
//! the protocol and must bump the version instead.

use pl_wire::protocol::{
    checksum, encode_batch_reply, encode_stats_reply, parse_batch_reply, parse_stats_reply, Answer,
};
use pl_wire::stats::Snapshot;

/// BATCH_REPLY on a v3 session: `0x81 | count u16 LE | status bytes |
/// FNV-1a-32 LE of everything before it`.
#[test]
fn batch_reply_v3_golden_bytes() {
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
        0xFB,                   // Overloaded (v3 status)
        0xEE, 0x6E, 0xBF, 0x5F, // FNV-1a-32 = 0x5FBF6EEE, LE
    ];
    assert_eq!(encode_batch_reply(&answers, 3), expected);
    assert_eq!(parse_batch_reply(expected, 3).unwrap(), answers);

    // The pinned checksum really is FNV-1a over the pinned payload.
    let (payload, sum) = expected.split_at(expected.len() - 4);
    assert_eq!(checksum(payload), 0x5FBF_6EEE);
    assert_eq!(u32::from_le_bytes(sum.try_into().unwrap()), 0x5FBF_6EEE);
}

/// BATCH_REPLY on a v4 session adds exactly one status byte, `0xFA` for
/// `NotOwned`; everything else (including the checksum rule) is v3's.
#[test]
fn batch_reply_v4_golden_bytes() {
    let answers = [Answer::NotOwned, Answer::Adjacent, Answer::OutOfRange];
    #[rustfmt::skip]
    let expected: &[u8] = &[
        0x81,                   // opcode BATCH_REPLY
        0x03, 0x00,             // 3 answers, u16 LE
        0xFA,                   // NotOwned (v4 status)
        0x01,                   // Adjacent
        0xFD,                   // OutOfRange
        0x3D, 0xC3, 0x1D, 0x9B, // FNV-1a-32 = 0x9B1DC33D, LE
    ];
    assert_eq!(encode_batch_reply(&answers, 4), expected);
    assert_eq!(parse_batch_reply(expected, 4).unwrap(), answers);

    // On a v3 session the v4 status must degrade to 0xFC (Malformed),
    // never leak 0xFA to a peer that cannot parse it.
    let v3 = encode_batch_reply(&answers, 3);
    assert_eq!(v3[3], 0xFC);
}

/// A corrupted frame must fail the checksum, not mis-parse: flip every
/// byte of the golden frame in turn and demand rejection.
#[test]
fn batch_reply_v3_rejects_every_single_byte_flip() {
    let good = encode_batch_reply(&[Answer::Adjacent, Answer::Distance(7)], 3);
    assert_eq!(parse_batch_reply(&good, 3).unwrap().len(), 2);
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[i] ^= flip;
            assert!(
                parse_batch_reply(&bad, 3).is_err(),
                "flip 0x{flip:02X} at byte {i} parsed"
            );
        }
    }
}

/// STATS_REPLY on a v3 session: `0x82`, then the v2 layout (18 fixed
/// u64 LE words, then two words per shard), then the three-word
/// resilience trailer — faults injected, conns shed, open conns —
/// in exactly that order.
#[test]
fn stats_reply_v3_golden_bytes() {
    let snap = Snapshot {
        adj_queries: 0x0101,
        dist_queries: 0x0202,
        batches: 0x0303,
        connections: 0x0404,
        cache_hits: 0x0505,
        cache_misses: 0x0606,
        bytes_in: 0x0707,
        bytes_out: 0x0808,
        protocol_errors: 0x0909,
        p50_ns: 0x0A0A,
        p90_ns: 0x0B0B,
        p99_ns: 0x0C0C,
        p999_ns: 0x0D0D,
        min_ns: 0x0E0E,
        max_ns: 0x0F0F,
        qps_milli: 0x1010,
        slow_queries: 0x1111,
        shard_cache: vec![(0x2121, 0x2222), (0x2323, 0x2424)],
        faults_injected: 0x3131,
        shed: 0x3232,
        open_conns: 0x3333,
    };

    // The full v3 word sequence, in wire order. Positions 0..=16 are the
    // fixed counters/quantiles, 17 the shard count, then hit/miss pairs,
    // then the v3 trailer.
    #[rustfmt::skip]
    let words: &[u64] = &[
        0x0101, 0x0202, 0x0303, 0x0404,     // adj, dist, batches, conns
        0x0505, 0x0606,                     // cache hits, misses
        0x0707, 0x0808, 0x0909,             // bytes in, bytes out, proto errs
        0x0A0A, 0x0B0B, 0x0C0C, 0x0D0D,     // p50, p90, p99, p999
        0x0E0E, 0x0F0F,                     // min, max
        0x1010, 0x1111,                     // qps_milli, slow queries
        2,                                  // shard count
        0x2121, 0x2222, 0x2323, 0x2424,     // (hits, misses) per shard
        0x3131, 0x3232, 0x3333,             // v3 trailer: faults, shed, open
    ];
    let mut expected = vec![0x82u8]; // opcode STATS_REPLY
    for w in words {
        expected.extend_from_slice(&w.to_le_bytes());
    }
    assert_eq!(expected.len(), 1 + (18 + 2 * 2 + 3) * 8);

    assert_eq!(encode_stats_reply(&snap, 3), expected);
    assert_eq!(parse_stats_reply(&expected).unwrap(), snap);

    // v2 of the same snapshot is the identical prefix minus the trailer:
    // the trailer is strictly appended, never interleaved.
    let v2 = encode_stats_reply(&snap, 2);
    assert_eq!(v2[..], expected[..expected.len() - 3 * 8]);
    let from_v2 = parse_stats_reply(&v2).unwrap();
    assert_eq!(from_v2.faults_injected, 0);
    assert_eq!(from_v2.shed, 0);
    assert_eq!(from_v2.open_conns, 0);
}

/// The v1 twelve-word legacy layout, also byte-pinned (ancient clients
/// still negotiate it).
#[test]
fn stats_reply_v1_golden_bytes() {
    let snap = Snapshot {
        adj_queries: 1,
        dist_queries: 2,
        batches: 3,
        connections: 4,
        cache_hits: 5,
        cache_misses: 6,
        bytes_in: 7,
        bytes_out: 8,
        protocol_errors: 9,
        p50_ns: 10,
        p99_ns: 11,
        qps_milli: 12,
        ..Snapshot::default()
    };
    let mut expected = vec![0x82u8];
    for w in 1u64..=12 {
        expected.extend_from_slice(&w.to_le_bytes());
    }
    assert_eq!(encode_stats_reply(&snap, 1), expected);
    assert_eq!(expected.len(), 1 + 12 * 8);
    let parsed = parse_stats_reply(&expected).unwrap();
    assert_eq!(parsed.adj_queries, 1);
    assert_eq!(parsed.p99_ns, 11);
    // Fields the v1 layout cannot carry come back zeroed.
    assert_eq!(parsed.p90_ns, 0);
    assert_eq!(parsed.faults_injected, 0);
}
