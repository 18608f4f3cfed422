//! Property tests for the codec layer: [`SchemeTag`] dispatch must be
//! indistinguishable from calling the concrete decoder a tag names, for
//! every tag, on arbitrary graphs — both directly and after a container
//! round-trip through the v2 wire format.

use pl_graph::{Graph, GraphBuilder};
use pl_labeling::baseline::{AdjListDecoder, AdjListScheme, MoonDecoder, MoonScheme};
use pl_labeling::codec::{SchemeTag, TaggedLabeling};
use pl_labeling::distance::{DistanceDecoder, DistanceScheme};
use pl_labeling::forest::{OrientationDecoder, OrientationScheme};
use pl_labeling::scheme::{AdjacencyDecoder, AdjacencyScheme};
use pl_labeling::threshold::{ThresholdDecoder, ThresholdScheme};
use pl_labeling::Labeling;
use proptest::prelude::*;

/// Strategy: an arbitrary simple graph with up to `max_n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
    })
}

/// Encodes `g` with the scheme `tag` names, using fixed parameters.
fn encode_for_tag(tag: SchemeTag, g: &Graph, tau: usize) -> Labeling {
    match tag {
        SchemeTag::Threshold => ThresholdScheme::with_tau(tau).encode(g),
        SchemeTag::AdjList => AdjListScheme.encode(g),
        SchemeTag::Orientation => OrientationScheme.encode(g),
        SchemeTag::Moon => MoonScheme.encode(g),
        SchemeTag::Distance => DistanceScheme::new(2.5, 3).encode(g),
    }
}

/// The concrete decoder's adjacency answer for `tag` — the ground truth
/// the tag dispatch must reproduce. (Distance adjacency is the scheme's
/// own convention: distance exactly 1.)
fn concrete_adjacent(
    tag: SchemeTag,
    a: pl_labeling::LabelRef<'_>,
    b: pl_labeling::LabelRef<'_>,
) -> Option<bool> {
    match tag {
        SchemeTag::Threshold => ThresholdDecoder.try_adjacent(a, b),
        SchemeTag::AdjList => AdjListDecoder.try_adjacent(a, b),
        SchemeTag::Orientation => OrientationDecoder.try_adjacent(a, b),
        SchemeTag::Moon => MoonDecoder.try_adjacent(a, b),
        SchemeTag::Distance => DistanceDecoder.try_distance(a, b).map(|d| d == Some(1)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dispatch equals the concrete decoder for every tag, every pair,
    /// and both equal the graph on well-formed labels.
    #[test]
    fn tag_dispatch_matches_concrete(g in arb_graph(20, 50), tau in 1usize..8) {
        for tag in SchemeTag::ALL {
            let labeling = encode_for_tag(tag, &g, tau);
            for u in g.vertices() {
                for v in g.vertices() {
                    let (a, b) = (labeling.label(u), labeling.label(v));
                    let expected = concrete_adjacent(tag, a, b);
                    prop_assert_eq!(
                        tag.try_adjacent(a, b), expected,
                        "{} dispatch wrong on ({}, {})", tag.name(), u, v
                    );
                    prop_assert_eq!(expected, Some(g.has_edge(u, v)));
                }
            }
        }
    }

    /// Distance dispatch: exact for the distance scheme, `Some(None)`
    /// ("cannot bound") elsewhere.
    #[test]
    fn tag_distance_dispatch_matches_concrete(g in arb_graph(16, 40)) {
        for tag in SchemeTag::ALL {
            let labeling = encode_for_tag(tag, &g, 2);
            for u in g.vertices() {
                for v in g.vertices() {
                    let (a, b) = (labeling.label(u), labeling.label(v));
                    let expected = match tag {
                        SchemeTag::Distance => Some(DistanceDecoder.distance(a, b)),
                        _ => Some(None),
                    };
                    prop_assert_eq!(tag.try_distance(a, b), expected);
                }
            }
        }
    }

    /// The container round-trips through v2 bytes without changing a
    /// single answer, for every tag.
    #[test]
    fn container_round_trip_preserves_answers(g in arb_graph(16, 40), tau in 1usize..8) {
        for tag in SchemeTag::ALL {
            let tagged = TaggedLabeling { tag, labeling: encode_for_tag(tag, &g, tau) };
            let back = TaggedLabeling::from_bytes(&tagged.to_bytes()).expect("round trip");
            prop_assert_eq!(&back, &tagged);
            for u in g.vertices() {
                for v in g.vertices() {
                    prop_assert_eq!(
                        back.tag.try_adjacent(back.labeling.label(u), back.labeling.label(v)),
                        concrete_adjacent(tag, tagged.labeling.label(u), tagged.labeling.label(v))
                    );
                }
            }
        }
    }
}
