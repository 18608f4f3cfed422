//! Compatibility test against a committed legacy (v1) `.plab` fixture.
//!
//! The fixture at `tests/fixtures/tiny_v1.plab` was written with the
//! per-label v1 wire format (`PLL1`) that predates the arena container.
//! The version-gated reader must keep loading it, and the labels it
//! carries must answer exactly the adjacency of a fresh encode of the
//! same graph. Regenerate (after an intentional format change only) with
//! `cargo test --test fixture_v1 -- --ignored`.

use pl_graph::Graph;
use pl_labeling::codec::{SchemeTag, TaggedLabeling};
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tiny_v1.plab");
const TAU: usize = 2;

/// The deterministic 8-vertex graph the fixture labels: a hub (0), a
/// triangle (1-2-3), a path tail, and an isolated vertex (7).
fn fixture_graph() -> Graph {
    pl_graph::builder::from_edges(
        8,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (2, 3),
            (1, 3),
            (4, 5),
            (5, 6),
        ],
    )
}

/// Tag byte + legacy v1 labeling body, exactly as the old writer emitted.
fn fixture_bytes() -> Vec<u8> {
    let labeling = ThresholdScheme::with_tau(TAU).encode(&fixture_graph());
    let mut out = vec![SchemeTag::Threshold.as_u8()];
    out.extend_from_slice(&labeling.to_bytes_v1());
    out
}

#[test]
fn committed_v1_fixture_still_decodes() {
    let bytes = std::fs::read(FIXTURE).expect("fixture file present");
    assert_eq!(
        &bytes[1..5],
        b"PLL1",
        "fixture must stay in the legacy v1 format"
    );
    let tagged = TaggedLabeling::from_bytes(&bytes).expect("v1 body parses");
    assert_eq!(tagged.tag, SchemeTag::Threshold);

    let g = fixture_graph();
    let fresh = ThresholdScheme::with_tau(TAU).encode(&g);
    assert_eq!(tagged.labeling.len(), fresh.len());
    for u in g.vertices() {
        for v in g.vertices() {
            let from_fixture = tagged
                .tag
                .try_adjacent(tagged.labeling.label(u), tagged.labeling.label(v));
            assert_eq!(
                from_fixture,
                Some(g.has_edge(u, v)),
                "fixture answer for ({u},{v})"
            );
            assert_eq!(
                from_fixture,
                tagged.tag.try_adjacent(fresh.label(u), fresh.label(v)),
                "fixture vs fresh encode for ({u},{v})"
            );
        }
    }
}

#[test]
fn fixture_bytes_match_writer() {
    // The committed bytes are exactly what the kept v1 writer emits, so
    // a silent change to either side fails loudly.
    let bytes = std::fs::read(FIXTURE).expect("fixture file present");
    assert_eq!(bytes, fixture_bytes());
}

#[test]
#[ignore = "writes the fixture; run only after an intentional format change"]
fn regenerate_fixture() {
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
        .expect("create fixtures dir");
    std::fs::write(FIXTURE, fixture_bytes()).expect("write fixture");
}
