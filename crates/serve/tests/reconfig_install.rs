//! Backend-side protocol v6 map-install state machine: epoch fencing
//! (stale/equal pushes refused), label verification on arrival,
//! commit-swap, abort, shrink, and wire-level rejection of a
//! checksum-tampered map push.

use std::sync::Arc;

use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::{
    serve_with, Answer, Client, ClusterMap, LabelStore, Query, SchemeTag, ServeOptions,
    StoreConfig, TaggedLabeling,
};
use pl_wire::protocol::{opcode, LabelsStatus, MapSetMode, MapSetStatus};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn power_law(n: usize, seed: u64) -> pl_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    pl_gen::chung_lu_power_law(n, 2.5, 4.0, &mut rng)
}

fn threshold_labeling(g: &pl_graph::Graph) -> TaggedLabeling {
    TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: ThresholdScheme::with_tau(5).encode(g),
    }
}

fn map_for(n: u32, epoch: u64) -> ClusterMap {
    ClusterMap {
        epoch,
        seed: 0xC0FFEE,
        replicas: 1,
        n,
        tag: SchemeTag::Threshold.as_u8(),
        backends: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
    }
}

#[test]
fn map_install_state_machine_end_to_end() {
    let g = power_law(80, 42);
    let tagged = threshold_labeling(&g);
    let n = g.vertex_count() as u32;
    let store = Arc::new(LabelStore::new(tagged.clone(), StoreConfig::default()));
    let server = serve_with(store, "127.0.0.1:0", ServeOptions::default()).expect("serve");
    let mut client = Client::connect(server.addr()).expect("connect");

    // No map yet: MAP_GET is empty, epoch 0.
    assert_eq!(client.map_get().expect("map_get"), None);
    assert_eq!(server.reconfig_epoch(), 0);

    // Labels without a staged map are refused.
    let label3 = tagged.labeling.label(3).to_label().to_bytes();
    assert_eq!(
        client.push_labels(1, &[(3, &label3)]).expect("push"),
        (LabelsStatus::WrongEpoch, 0)
    );

    // Prepare epoch 1.
    let map1 = map_for(n, 1).to_bytes();
    assert_eq!(
        client
            .map_set(MapSetMode::Prepare, 0, 0, &map1)
            .expect("prepare"),
        (MapSetStatus::Prepared, 1)
    );

    // Wrong-epoch and malformed pushes are refused; nothing buffers.
    assert_eq!(
        client.push_labels(2, &[(3, &label3)]).expect("push").0,
        LabelsStatus::WrongEpoch
    );
    assert_eq!(
        client
            .push_labels(1, &[(3, &[0xFF, 0xFF, 0xFF])])
            .expect("push")
            .0,
        LabelsStatus::Rejected
    );
    // A bit-flipped label is not byte-identical and the whole frame
    // (including its valid entry) is discarded.
    let mut flipped = label3.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    assert_eq!(
        client
            .push_labels(
                1,
                &[
                    (5, &tagged.labeling.label(5).to_label().to_bytes()),
                    (3, &flipped)
                ]
            )
            .expect("push")
            .0,
        LabelsStatus::Rejected
    );

    // A clean push buffers.
    assert_eq!(
        client.push_labels(1, &[(3, &label3)]).expect("push"),
        (LabelsStatus::Ok, 1)
    );

    // Commit: store swaps, epoch advances, MAP_GET serves the map.
    assert_eq!(
        client
            .map_set(MapSetMode::Commit, 0, 0, &map1)
            .expect("commit"),
        (MapSetStatus::Committed, 1)
    );
    assert_eq!(server.reconfig_epoch(), 1);
    assert_eq!(client.map_get().expect("map_get"), Some(map1.clone()));

    // Queries still answer correctly from the rebuilt store.
    for (u, v) in [(0, 1), (3, 7), (10, 20)] {
        let got = client.batch(&[Query::adjacent(u, v)]).expect("batch")[0];
        let want = if g.has_edge(u, v) {
            Answer::Adjacent
        } else {
            Answer::NotAdjacent
        };
        assert_eq!(got, want, "({u},{v}) after commit");
    }

    // Stale and equal epochs are fenced.
    assert_eq!(
        client
            .map_set(MapSetMode::Prepare, 0, 0, &map1)
            .expect("stale prepare"),
        (MapSetStatus::Stale, 1)
    );
    assert_eq!(
        client
            .map_set(MapSetMode::Commit, 0, 0, &map1)
            .expect("stale commit"),
        (MapSetStatus::Stale, 1)
    );

    // Abort is idempotent and leaves the epoch alone.
    assert_eq!(
        client
            .map_set(MapSetMode::Abort, 0, 0, &map1)
            .expect("abort"),
        (MapSetStatus::Aborted, 1)
    );

    // Shrink to this backend's partition of the committed map: owned
    // vertices keep answering, pairs owned elsewhere turn NotOwned.
    assert_eq!(
        client
            .map_set(MapSetMode::Shrink, 0, 0, &map1)
            .expect("shrink"),
        (MapSetStatus::Shrunk, 1)
    );
    let part = map_for(n, 1).partitioner();
    let mut kept = 0;
    let mut shed = 0;
    for u in 0..n {
        for v in (u + 1)..n {
            let got = client.batch(&[Query::adjacent(u, v)]).expect("batch")[0];
            match got {
                Answer::NotOwned => {
                    shed += 1;
                }
                _ => {
                    // Whatever the shrunken store still answers must be
                    // correct — and only pairs it owns a side of.
                    assert!(
                        part.owns(0, u) || part.owns(0, v),
                        "({u},{v}) answered without owning either side"
                    );
                    let want = if g.has_edge(u, v) {
                        Answer::Adjacent
                    } else {
                        Answer::NotAdjacent
                    };
                    assert_eq!(got, want, "({u},{v}) after shrink");
                    kept += 1;
                }
            }
        }
    }
    assert!(kept > 0 && shed > 0, "kept {kept} shed {shed}");
    // Every pair with neither side owned here must have been shed.
    for u in 0..n {
        for v in (u + 1)..n {
            if !part.owns(0, u) && !part.owns(0, v) {
                let got = client.batch(&[Query::adjacent(u, v)]).expect("batch")[0];
                assert_eq!(got, Answer::NotOwned, "({u},{v}) should be shed");
            }
        }
    }

    server.shutdown();
}

#[test]
fn tampered_map_push_is_rejected_at_the_wire() {
    let g = power_law(40, 7);
    let tagged = threshold_labeling(&g);
    let n = g.vertex_count() as u32;
    let store = Arc::new(LabelStore::new(tagged, StoreConfig::default()));
    let server = serve_with(store, "127.0.0.1:0", ServeOptions::default()).expect("serve");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Hand-build a MAP_SET whose embedded map blob has one flipped bit,
    // bypassing the client-side encoder (which would refuse to emit it).
    let map = map_for(n, 1).to_bytes();
    let mut body = vec![opcode::MAP_SET, 0];
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&map);
    body[20] ^= 0x04; // inside the blob
    let reply = client.raw_round_trip(&body).expect("round trip");
    assert_eq!(reply.first(), Some(&opcode::ERROR));
    assert!(
        String::from_utf8_lossy(&reply[1..]).contains("checksum"),
        "unexpected error: {}",
        String::from_utf8_lossy(&reply[1..])
    );

    // The engine never saw it: epoch still 0, nothing staged, and an
    // untampered prepare on a fresh connection succeeds.
    assert_eq!(server.reconfig_epoch(), 0);
    let mut fresh = Client::connect(server.addr()).expect("reconnect");
    assert_eq!(
        fresh
            .map_set(MapSetMode::Prepare, 0, 0, &map)
            .expect("prepare"),
        (MapSetStatus::Prepared, 1)
    );

    server.shutdown();
}
