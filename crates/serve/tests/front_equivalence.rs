//! Front-end byte-equivalence harness.
//!
//! The transport refactor moved framing, handshake, and reply encoding
//! out of `pl_serve` into the shared `pl_wire` front-end. These tests
//! pin the *bytes on the socket* for every negotiable protocol version
//! (v1–v4) against literal golden frames written out by hand from the
//! layout documented in `pl_wire::protocol`: if the refactored
//! front-end produced even one different byte — a reordered field, a
//! missing checksum, a changed status code — already-deployed peers
//! would break, and these arrays would catch it where round-trip tests
//! cannot.

use std::net::TcpStream;
use std::sync::Arc;

use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::{LabelStore, SchemeTag, ServerHandle, StoreConfig, TaggedLabeling};
use pl_wire::protocol::{
    checksum, encode_batch, encode_hello_version, read_frame, write_frame, Query,
};

/// An 8-vertex path 0–1–2–3: adjacency of (0,1) and (0,3) is known by
/// construction, so every reply byte is predictable.
fn tiny_server() -> ServerHandle {
    let g = pl_graph::builder::from_edges(8, [(0, 1), (1, 2), (2, 3)]);
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: ThresholdScheme::with_tau(4).encode(&g),
        },
        StoreConfig::default(),
    ));
    pl_serve::serve(store, "127.0.0.1:0").expect("bind")
}

/// `HELLO_OK` for a threshold store over 8 vertices, per version:
/// `0x80 | negotiated version | scheme tag 1 | n=8 u32 LE`.
fn golden_hello_ok(version: u8) -> Vec<u8> {
    vec![0x80, version, 0x01, 0x08, 0x00, 0x00, 0x00]
}

/// `BATCH_REPLY` to `[adjacent(0,1), adjacent(0,3)]`:
/// `0x81 | count 2 u16 LE | Adjacent | NotAdjacent`, plus the FNV-1a-32
/// trailer from v3 on.
fn golden_batch_reply(version: u8) -> Vec<u8> {
    #[rustfmt::skip]
    let mut frame = vec![
        0x81,       // opcode BATCH_REPLY
        0x02, 0x00, // 2 answers, u16 LE
        0x01,       // (0,1) Adjacent
        0x00,       // (0,3) NotAdjacent
    ];
    if version >= 3 {
        // FNV-1a-32 of the five bytes above, LE.
        frame.extend_from_slice(&[0x57, 0x9F, 0x20, 0x3E]);
    }
    frame
}

/// Handshake + batch + goodbye on every negotiable version, comparing
/// each reply body byte-for-byte against the golden frames.
#[test]
fn every_version_replies_with_the_pinned_golden_bytes() {
    let handle = tiny_server();
    for version in 1..=4u8 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        write_frame(&mut stream, &encode_hello_version(version)).expect("hello");
        let hello_ok = read_frame(&mut stream).expect("hello_ok");
        assert_eq!(
            hello_ok,
            golden_hello_ok(version),
            "HELLO_OK bytes drifted on v{version}"
        );

        let queries = [Query::adjacent(0, 1), Query::adjacent(0, 3)];
        write_frame(&mut stream, &encode_batch(&queries).expect("encode")).expect("batch");
        let reply = read_frame(&mut stream).expect("reply");
        assert_eq!(
            reply,
            golden_batch_reply(version),
            "BATCH_REPLY bytes drifted on v{version}"
        );

        write_frame(&mut stream, &[0x03]).expect("goodbye");
        let bye = read_frame(&mut stream).expect("goodbye_ok");
        assert_eq!(bye, vec![0x83], "GOODBYE_OK bytes drifted on v{version}");
    }
    handle.shutdown();
}

/// The pinned v3+ trailer really is the FNV-1a-32 of the pinned payload
/// — guards the golden arrays themselves against a typo.
#[test]
fn golden_checksum_is_fnv_of_the_golden_payload() {
    let v3 = golden_batch_reply(3);
    let (payload, sum) = v3.split_at(v3.len() - 4);
    assert_eq!(payload, &golden_batch_reply(1)[..]);
    assert_eq!(checksum(payload), 0x3E20_9F57);
    assert_eq!(u32::from_le_bytes(sum.try_into().unwrap()), 0x3E20_9F57);
}
