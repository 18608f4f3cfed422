//! A seeded, std-only frame fuzzer.
//!
//! Every run starts from one valid frame of every opcode and mutates it
//! with the workspace's deterministic `rand` generator: byte flips,
//! truncation and extension, length and count fields overwritten with
//! edge values, and splices between two frames. It shows three things:
//!
//! 1. every `parse_*` and `Snapshot::from_bytes` returns `Ok` or `Err`
//!    on every mutated frame, and the frame reassembler survives
//!    corrupted length prefixes — nothing panics;
//! 2. every unmutated frame round-trips, `encode(parse(f)) == f`, and
//!    re-encoding whatever a mutated frame parses to is a fixed point;
//! 3. a live front-end fed garbage sessions, and one stalled half-frame,
//!    closes each of them within its deadlines and still answers a
//!    well-formed client correctly afterwards.
//!
//! The seeds are fixed, so a failure replays exactly.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pl_obs::TraceContext;
use pl_wire::protocol::{
    checksum, encode_batch, encode_batch_ctx, encode_batch_reply, encode_health_reply,
    encode_hello, encode_hello_ok, encode_labels, encode_labels_ok, encode_map_get, encode_map_ok,
    encode_map_reply, encode_map_set, encode_stats_reply, encode_trace_dump, opcode, parse_batch,
    parse_batch_ctx, parse_batch_reply, parse_goodbye, parse_health, parse_health_reply,
    parse_hello, parse_hello_ok, parse_labels, parse_labels_ok, parse_map_get, parse_map_ok,
    parse_map_reply, parse_map_set, parse_stats, parse_stats_reply, parse_trace_dump, read_frame,
    trace_dump_flags, validate_map_blob, write_frame, FrameBuffer, LabelsStatus, MapSetMode,
    MapSetStatus, ProtocolError, MAX_FRAME, VERSION,
};
use pl_wire::{bind, Answer, FrontStats, FrontendOptions, Query, QueryEngine, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A structurally valid `ClusterMap` blob: magic, fixed fields, one
/// backend address, trailing FNV-1a-32.
fn map_blob() -> Vec<u8> {
    let mut b = b"PLCM".to_vec();
    b.push(1); // map format version
    b.extend_from_slice(&2u64.to_le_bytes()); // epoch
    b.extend_from_slice(&3u64.to_le_bytes()); // seed
    b.extend_from_slice(&1u32.to_le_bytes()); // replicas
    b.extend_from_slice(&5u32.to_le_bytes()); // n
    b.push(2); // scheme tag
    b.extend_from_slice(&1u16.to_le_bytes()); // backend count
    b.extend_from_slice(&3u16.to_le_bytes());
    b.extend_from_slice(b"a:1");
    let sum = checksum(&b);
    b.extend_from_slice(&sum.to_le_bytes());
    b
}

/// One valid frame body of every opcode (some opcodes twice, to cover
/// both shapes of an optional part).
fn corpus() -> Vec<Vec<u8>> {
    let queries = [
        Query::adjacent(0, 7),
        Query::distance(3, 0x0102_0304),
        Query::adjacent(99, 1),
    ];
    let ctx = TraceContext {
        trace_hi: 0x1122_3344_5566_7788,
        trace_lo: 0x99AA_BBCC_DDEE_FF00,
        parent_span: 42,
    };
    let answers = [
        Answer::NotAdjacent,
        Answer::Adjacent,
        Answer::Distance(9),
        Answer::Unreachable,
        Answer::OutOfRange,
        Answer::Unsupported,
        Answer::MalformedLabel,
        Answer::Overloaded,
        Answer::NotOwned,
    ];
    let snap = Snapshot {
        adj_queries: 10,
        batches: 2,
        p50_ns: 800,
        max_ns: 9_000,
        open_conns: 1,
        ..Snapshot::default()
    };
    let blob = map_blob();
    vec![
        encode_hello(),
        encode_hello_ok(1, 100),
        encode_batch(&queries).unwrap(),
        encode_batch_ctx(&queries, Some(&ctx), VERSION).unwrap(),
        encode_batch_reply(&answers),
        vec![opcode::STATS],
        encode_stats_reply(&snap),
        vec![opcode::GOODBYE],
        vec![opcode::GOODBYE_OK],
        encode_trace_dump(0),
        encode_trace_dump(trace_dump_flags::SNAPSHOT),
        [&[opcode::TRACE_REPLY][..], b"{\"name\":\"serve.batch\"}\n"].concat(),
        vec![opcode::HEALTH],
        encode_health_reply(&[true, false, true]),
        encode_map_get(),
        encode_map_reply(None),
        encode_map_reply(Some(&blob)),
        encode_map_set(MapSetMode::Prepare, 1, 17, &blob).unwrap(),
        encode_map_ok(MapSetStatus::Committed, 8),
        encode_labels(3, &[(4, &[0xAB, 0xCD][..]), (9, &[][..])]).unwrap(),
        encode_labels_ok(LabelsStatus::Ok, 2),
        vec![opcode::OVERLOADED],
        [&[opcode::ERROR][..], b"unknown opcode"].concat(),
    ]
}

/// Parses `body` with the parser its opcode selects and encodes the
/// result again. `None` for the frames that have no parser — the bare
/// `GOODBYE_OK`/`OVERLOADED` and the free-text `TRACE_REPLY`/`ERROR`.
fn reencode(body: &[u8]) -> Option<Result<Vec<u8>, ProtocolError>> {
    let op = *body.first()?;
    Some(match op {
        opcode::HELLO => parse_hello(body).map(|()| encode_hello()),
        opcode::HELLO_OK => parse_hello_ok(body).map(|(tag, n)| encode_hello_ok(tag, n)),
        opcode::BATCH => parse_batch_ctx(body, VERSION)
            .and_then(|(q, ctx)| encode_batch_ctx(&q, ctx.as_ref(), VERSION)),
        opcode::BATCH_REPLY => parse_batch_reply(body, VERSION).map(|a| encode_batch_reply(&a)),
        opcode::STATS => parse_stats(body).map(|()| vec![opcode::STATS]),
        opcode::STATS_REPLY => parse_stats_reply(body).map(|s| encode_stats_reply(&s)),
        opcode::GOODBYE => parse_goodbye(body).map(|()| vec![opcode::GOODBYE]),
        opcode::TRACE_DUMP => parse_trace_dump(body).map(encode_trace_dump),
        opcode::HEALTH => parse_health(body).map(|()| vec![opcode::HEALTH]),
        opcode::HEALTH_REPLY => parse_health_reply(body).map(|r| encode_health_reply(&r.shards)),
        opcode::MAP_GET => parse_map_get(body).map(|()| encode_map_get()),
        opcode::MAP_REPLY => parse_map_reply(body).map(|m| encode_map_reply(m.as_deref())),
        opcode::MAP_SET => {
            parse_map_set(body).and_then(|r| encode_map_set(r.mode, r.backend, r.moved, &r.map))
        }
        opcode::MAP_OK => parse_map_ok(body).map(|(s, e)| encode_map_ok(s, e)),
        opcode::LABELS => parse_labels(body).and_then(|(epoch, entries)| {
            let refs: Vec<(u32, &[u8])> = entries.iter().map(|(v, b)| (*v, &b[..])).collect();
            encode_labels(epoch, &refs)
        }),
        opcode::LABELS_OK => parse_labels_ok(body).map(|(s, r)| encode_labels_ok(s, r)),
        _ => return None,
    })
}

/// Every parser on the same bytes, whatever their opcode. Reaching the
/// end of this function without a panic is the property under test.
fn parse_everything(body: &[u8]) {
    let _ = parse_hello(body);
    let _ = parse_hello_ok(body);
    let _ = parse_batch(body);
    let _ = parse_batch_ctx(body, VERSION);
    let _ = parse_batch_reply(body, VERSION);
    let _ = parse_stats(body);
    let _ = parse_stats_reply(body);
    let _ = parse_goodbye(body);
    let _ = parse_trace_dump(body);
    let _ = parse_health(body);
    let _ = parse_health_reply(body);
    let _ = parse_map_get(body);
    let _ = parse_map_reply(body);
    let _ = parse_map_set(body);
    let _ = parse_map_ok(body);
    let _ = parse_labels(body);
    let _ = parse_labels_ok(body);
    let _ = validate_map_blob(body);
    let _ = Snapshot::from_bytes(body);
    let _ = Snapshot::from_bytes(body.get(1..).unwrap_or_default());
}

/// Values a corrupted length or count field is set to.
const EDGES: [u32; 9] = [0, 1, 2, 0x7F, 0x80, 0xFF, 0xFFFF, 0x1_0000, u32::MAX];

/// One random mutation of `frame`; `corpus` supplies splice partners.
fn mutate(rng: &mut StdRng, frame: &[u8], corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut f = frame.to_vec();
    match rng.gen_range(0..5u8) {
        // Byte flips.
        0 => {
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..f.len());
                f[at] ^= rng.gen_range(1..=255u8);
            }
        }
        // Truncation.
        1 => f.truncate(rng.gen_range(0..f.len())),
        // Extension.
        2 => {
            let extra = rng.gen_range(1..17usize);
            f.extend((0..extra).map(|_| rng.gen::<u8>()));
        }
        // A u16 or u32 field past the opcode overwritten with an edge
        // value: covers every count, length and epoch field.
        3 => {
            let width = if rng.gen::<bool>() { 2 } else { 4 };
            if f.len() > width {
                let at = rng.gen_range(1..=f.len() - width);
                let value = EDGES[rng.gen_range(0..EDGES.len())];
                f[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
        // Splice: a prefix of this frame, a suffix of another.
        _ => {
            let other = &corpus[rng.gen_range(0..corpus.len())];
            let cut = rng.gen_range(0..=f.len());
            let from = rng.gen_range(0..=other.len());
            f.truncate(cut);
            f.extend_from_slice(&other[from..]);
        }
    }
    f
}

#[test]
fn every_unmutated_frame_round_trips() {
    let corpus = corpus();
    let mut opcodes: Vec<u8> = corpus.iter().map(|f| f[0]).collect();
    opcodes.dedup();
    assert_eq!(opcodes.len(), 20, "one frame of every opcode");
    for frame in &corpus {
        parse_everything(frame);
        match reencode(frame) {
            Some(again) => assert_eq!(again.as_ref(), Ok(frame), "{:#04x}", frame[0]),
            None => assert!(
                matches!(
                    frame[0],
                    opcode::GOODBYE_OK | opcode::OVERLOADED | opcode::TRACE_REPLY | opcode::ERROR
                ),
                "{:#04x} has no parser",
                frame[0]
            ),
        }
    }
}

#[test]
fn mutated_frames_never_panic_a_parser() {
    let corpus = corpus();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xF0_2202 ^ seed);
        for frame in &corpus {
            for _ in 0..300 {
                let m = mutate(&mut rng, frame, &corpus);
                parse_everything(&m);
                // Whatever a mutated frame parses to, encoding it is a
                // fixed point of parse-then-encode.
                if let Some(Ok(canonical)) = reencode(&m) {
                    assert_eq!(
                        reencode(&canonical),
                        Some(Ok(canonical.clone())),
                        "seed {seed}: {m:02x?}"
                    );
                }
            }
        }
    }
}

/// Length-prefixed streams with corrupted prefixes, fed to the
/// reassembler in random chunks: frames pop out exactly as declared,
/// an oversized prefix is an error, and nothing panics.
#[test]
fn reassembly_survives_corrupted_length_prefixes() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(0x1E76);
    for _ in 0..400 {
        let mut wire = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let body = &corpus[rng.gen_range(0..corpus.len())];
            let len = if rng.gen_range(0..3u8) == 0 {
                EDGES[rng.gen_range(0..EDGES.len())]
            } else {
                body.len() as u32
            };
            wire.extend_from_slice(&len.to_le_bytes());
            wire.extend_from_slice(body);
        }
        let _ = read_frame(&mut wire.as_slice());
        let mut fb = FrameBuffer::new();
        let mut frame = Vec::new();
        let mut fed = 0;
        'feed: while fed < wire.len() {
            let take = rng.gen_range(1..=(wire.len() - fed).min(9));
            fb.push(&wire[fed..fed + take]);
            fed += take;
            loop {
                match fb.next_frame_into(&mut frame) {
                    Ok(true) => assert!(frame.len() <= MAX_FRAME),
                    Ok(false) => break,
                    Err(e) => {
                        assert!(
                            matches!(e, ProtocolError::FrameTooLarge(l) if l as usize > MAX_FRAME)
                        );
                        break 'feed;
                    }
                }
            }
        }
    }
}

/// Answers "adjacent" exactly when `u + v` is odd, so a client can check
/// every answer without a graph.
struct ParityEngine;

impl QueryEngine for ParityEngine {
    type Session = ();
    fn new_session(&self) {}
    fn scheme_tag(&self) -> u8 {
        1
    }
    fn n(&self) -> u32 {
        100
    }
    fn answer_batch(&self, _s: &mut (), queries: &[Query], answers: &mut Vec<Answer>) {
        answers.extend(queries.iter().map(|q| parity(q.u, q.v)));
    }
    fn health(&self) -> Vec<bool> {
        vec![true]
    }
    fn wire_stats(&self, _s: &mut (), front: &FrontStats) -> Snapshot {
        self.local_snapshot(front)
    }
    fn local_snapshot(&self, front: &FrontStats) -> Snapshot {
        front.metrics.snapshot(front.started, front.faults.total())
    }
}

fn parity(u: u32, v: u32) -> Answer {
    if u >= 100 || v >= 100 {
        Answer::OutOfRange
    } else if (u + v) % 2 == 1 {
        Answer::Adjacent
    } else {
        Answer::NotAdjacent
    }
}

/// Reads reply frames until the server closes; returns them and the
/// time the close took from `sent`.
fn read_until_close(stream: &mut TcpStream, sent: Instant) -> (Vec<Vec<u8>>, Duration) {
    let mut frames = Vec::new();
    loop {
        match read_frame(stream) {
            Ok(frame) => frames.push(frame),
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "session still open after {:?}",
                    sent.elapsed()
                );
                return (frames, sent.elapsed());
            }
        }
    }
}

#[test]
fn live_front_end_closes_garbage_sessions_and_keeps_serving() {
    let stall = Duration::from_millis(150);
    let front = bind(
        Arc::new(ParityEngine),
        "127.0.0.1:0",
        FrontendOptions {
            stall_timeout: Some(stall),
            idle_timeout: Some(stall),
            ..FrontendOptions::default()
        },
    )
    .expect("bind");
    let limit = stall * 4 + Duration::from_millis(500);

    // Garbage sessions, all open at once: most say HELLO first, then
    // send one mutated frame.
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(0x11FE);
    let mut sessions = Vec::new();
    for i in 0..24 {
        let frame = &corpus[i % corpus.len()];
        let garbage = mutate(&mut rng, frame, &corpus);
        let mut stream = TcpStream::connect(front.addr()).expect("connect");
        stream.set_read_timeout(Some(limit)).expect("timeout");
        let hello = i % 4 != 0;
        if hello {
            write_frame(&mut stream, &encode_hello()).expect("hello");
        }
        write_frame(&mut stream, &garbage).expect("garbage");
        sessions.push((stream, hello, garbage, Instant::now()));
    }
    // One stalled half-frame: a length prefix promising ten bytes, then
    // three of them.
    let mut stalled = TcpStream::connect(front.addr()).expect("connect");
    stalled.set_read_timeout(Some(limit)).expect("timeout");
    write_frame(&mut stalled, &encode_hello()).expect("hello");
    stalled.write_all(&10u32.to_le_bytes()).expect("prefix");
    stalled
        .write_all(&[opcode::BATCH, 1, 0])
        .expect("half frame");
    let stalled_at = Instant::now();

    for (mut stream, hello, garbage, sent) in sessions {
        let (replies, took) = read_until_close(&mut stream, sent);
        assert!(took < limit, "garbage session took {took:?} to close");
        let replies = if hello {
            assert_eq!(replies.first().map(|r| r[0]), Some(opcode::HELLO_OK));
            &replies[1..]
        } else {
            &replies[..]
        };
        // A frame the parsers reject is answered with one ERROR; one
        // that happens to be a valid request gets its reply first.
        let rejected = !hello || !matches!(reencode(&garbage), Some(Ok(_)));
        if rejected && garbage.first() != Some(&opcode::HELLO) {
            assert_eq!(replies.len(), 1, "{garbage:02x?}");
            assert_eq!(replies[0][0], opcode::ERROR, "{garbage:02x?}");
        }
    }
    let (replies, took) = read_until_close(&mut stalled, stalled_at);
    assert_eq!(replies.len(), 1, "only HELLO_OK before the stall close");
    assert!(
        took >= stall && took < limit,
        "stalled half-frame closed after {took:?}"
    );

    // A well-formed client is still answered correctly.
    let mut client = TcpStream::connect(front.addr()).expect("connect");
    write_frame(&mut client, &encode_hello()).expect("hello");
    assert_eq!(
        parse_hello_ok(&read_frame(&mut client).expect("hello_ok")),
        Ok((1, 100))
    );
    let queries: Vec<Query> = (0..64).map(|i| Query::adjacent(i, i * 7 % 101)).collect();
    write_frame(&mut client, &encode_batch(&queries).unwrap()).expect("batch");
    let answers = parse_batch_reply(&read_frame(&mut client).expect("reply"), VERSION).unwrap();
    let expected: Vec<Answer> = queries.iter().map(|q| parity(q.u, q.v)).collect();
    assert_eq!(answers, expected);
    write_frame(&mut client, &[opcode::STATS]).expect("stats");
    let stats = parse_stats_reply(&read_frame(&mut client).expect("stats reply")).unwrap();
    assert!(stats.protocol_errors > 0, "{stats}");
    assert_eq!(stats.batches, 1, "{stats}");
    write_frame(&mut client, &[opcode::GOODBYE]).expect("goodbye");
    let mut rest = Vec::new();
    client.read_to_end(&mut rest).expect("close");
    assert_eq!(rest, [1, 0, 0, 0, opcode::GOODBYE_OK]);

    let snap = front.shutdown();
    assert_eq!(snap.open_conns, 0, "{snap}");
}
