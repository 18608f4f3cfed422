//! Property-based tests: every adjacency scheme must agree with
//! `Graph::has_edge` on arbitrary graphs, and the bit layer must
//! round-trip arbitrary field sequences.

use pl_graph::{Graph, GraphBuilder};
use pl_labeling::baseline::{AdjListScheme, MoonScheme};
use pl_labeling::distance::DistanceScheme;
use pl_labeling::forest::OrientationScheme;
use pl_labeling::one_query::{OneQueryDecoder, OneQueryScheme};
use pl_labeling::scheme::{AdjacencyDecoder, AdjacencyScheme};
use pl_labeling::threshold::ThresholdScheme;
use proptest::prelude::*;

/// Strategy: an arbitrary graph with up to `max_n` vertices and up to
/// `max_m` (possibly duplicate / self-loop) edge insertions.
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

fn assert_scheme_correct<S: AdjacencyScheme>(scheme: &S, g: &Graph) -> Result<(), TestCaseError>
where
    S::Decoder: Default,
{
    let labeling = scheme.encode(g);
    let dec = S::Decoder::default();
    for u in g.vertices() {
        for v in g.vertices() {
            prop_assert_eq!(
                dec.adjacent(labeling.label(u), labeling.label(v)),
                g.has_edge(u, v),
                "{} wrong on ({}, {})",
                scheme.name(),
                u,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn threshold_scheme_correct_any_graph_any_tau(
        g in arb_graph(28, 80),
        tau in 1usize..12,
    ) {
        assert_scheme_correct(&ThresholdScheme::with_tau(tau), &g)?;
    }

    #[test]
    fn adjlist_correct_any_graph(g in arb_graph(28, 80)) {
        assert_scheme_correct(&AdjListScheme, &g)?;
    }

    #[test]
    fn moon_correct_any_graph(g in arb_graph(28, 80)) {
        assert_scheme_correct(&MoonScheme, &g)?;
    }

    #[test]
    fn orientation_correct_any_graph(g in arb_graph(28, 80)) {
        assert_scheme_correct(&OrientationScheme, &g)?;
    }

    #[test]
    fn compressed_correct_any_graph_any_tau(
        g in arb_graph(28, 80),
        tau in 1usize..12,
    ) {
        use pl_labeling::compressed::CompressedThresholdScheme;
        assert_scheme_correct(&CompressedThresholdScheme::with_tau(tau), &g)?;
    }

    #[test]
    fn compressed_never_beats_plain_by_construction(
        g in arb_graph(24, 70),
        tau in 1usize..8,
    ) {
        use pl_labeling::compressed::CompressedThresholdScheme;
        let plain = ThresholdScheme::with_tau(tau).encode(&g);
        let comp = CompressedThresholdScheme::with_tau(tau).encode(&g);
        for v in g.vertices() {
            prop_assert!(comp.label(v).bit_len() <= plain.label(v).bit_len() + 1);
        }
    }

    #[test]
    fn one_query_correct_any_graph(g in arb_graph(24, 60), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let labeling = OneQueryScheme.encode(&g, &mut rng);
        let dec = OneQueryDecoder;
        for u in g.vertices() {
            for v in g.vertices() {
                let got = dec.adjacent_with(
                    labeling.label(u),
                    labeling.label(v),
                    |t| labeling.label(t as u32),
                );
                prop_assert_eq!(got, g.has_edge(u, v), "pair ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn distance_scheme_exact_up_to_f(g in arb_graph(20, 40), f in 1u32..5) {
        let scheme = DistanceScheme::new(2.5, f);
        let labeling = scheme.encode(&g);
        let dec = scheme.decoder();
        for u in g.vertices() {
            let truth = pl_graph::traversal::bfs_distances(&g, u);
            for v in g.vertices() {
                let want = match truth[v as usize] {
                    pl_graph::UNREACHABLE => None,
                    d if d > f => None,
                    d => Some(d),
                };
                prop_assert_eq!(
                    dec.distance(labeling.label(u), labeling.label(v)),
                    want,
                    "pair ({}, {}), f = {}", u, v, f
                );
            }
        }
    }

    #[test]
    fn moon_label_size_bound(g in arb_graph(40, 120)) {
        // Moon labels are exactly prelude + id bits.
        let labeling = MoonScheme.encode(&g);
        let n = g.vertex_count();
        let w = pl_labeling::scheme::id_width(n);
        for (v, l) in labeling.iter() {
            prop_assert_eq!(l.bit_len(), 6 + w + v as usize);
        }
    }

    #[test]
    fn threshold_all_sizes_within_engine_bound(
        g in arb_graph(32, 100),
        tau in 1usize..10,
    ) {
        // Generic engine bound: every label is at most
        // prelude + 1 + gamma + max(k, deg·w) bits.
        let n = g.vertex_count();
        let w = pl_labeling::scheme::id_width(n);
        let (labeling, stats) = pl_labeling::threshold::encode_with_stats(&g, tau);
        for (v, l) in labeling.iter() {
            let deg = g.degree(v);
            let payload = if deg >= tau {
                stats.fat_count
            } else {
                deg * w
            };
            let header = 6 + w + 1 + 2 * 64usize.ilog2() as usize + 3;
            prop_assert!(l.bit_len() <= header + payload + 14);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dynamic_scheme_correct_under_any_insertion_order(
        n in 3usize..24,
        raw_edges in proptest::collection::vec((0u32..24, 0u32..24), 0..60),
        tau in 1usize..8,
    ) {
        use pl_labeling::dynamic::{DynamicDecoder, DynamicScheme};
        let mut s = DynamicScheme::new(n, tau);
        let dec = DynamicDecoder;
        for (u, v) in raw_edges {
            let (u, v) = (u % n as u32, v % n as u32);
            s.insert_edge(u, v);
        }
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    dec.adjacent(s.label(u), s.label(v)),
                    s.has_edge(u, v),
                    "pair ({}, {})", u, v
                );
            }
        }
    }

    #[test]
    fn labeling_wire_format_round_trips(g in arb_graph(24, 60), tau in 1usize..8) {
        use pl_labeling::Labeling;
        let labeling = ThresholdScheme::with_tau(tau).encode(&g);
        let back = Labeling::from_bytes(&labeling.to_bytes()).unwrap();
        prop_assert_eq!(&back, &labeling);
        // And decoding from the deserialized labels matches the graph.
        let dec = pl_labeling::threshold::ThresholdDecoder;
        for u in g.vertices() {
            for v in g.vertices() {
                prop_assert_eq!(
                    dec.adjacent(back.label(u), back.label(v)),
                    g.has_edge(u, v)
                );
            }
        }
    }

    #[test]
    fn universal_graph_hosts_arbitrary_small_families(
        picks in proptest::collection::vec(0usize..64, 1..10),
        tau in 1usize..6,
    ) {
        use pl_labeling::universal::{all_graphs_on, InducedUniversalGraph};
        let all = all_graphs_on(4);
        let family: Vec<_> = picks.iter().map(|&i| all[i].clone()).collect();
        let scheme = ThresholdScheme::with_tau(tau);
        let u = InducedUniversalGraph::build(&scheme, &family);
        for (i, g) in family.iter().enumerate() {
            prop_assert!(u.verify_embedding(i, g).is_ok(), "member {} not induced", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bits_round_trip(fields in proptest::collection::vec(
        (any::<u64>(), 1usize..=64), 0..40,
    )) {
        use pl_labeling::bits::{BitReader, BitWriter};
        let mut w = BitWriter::new();
        let mut expect = Vec::new();
        for (value, width) in fields {
            let masked = if width == 64 { value } else { value & ((1 << width) - 1) };
            w.write_bits(masked, width);
            expect.push((masked, width));
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for (value, width) in expect {
            prop_assert_eq!(r.read_bits(width), Some(value));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn gamma_round_trip(values in proptest::collection::vec(1u64..u64::MAX / 2, 0..60)) {
        use pl_labeling::bits::{BitReader, BitWriter};
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_gamma(v);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for &v in &values {
            prop_assert_eq!(r.read_gamma(), Some(v));
        }
    }
}
