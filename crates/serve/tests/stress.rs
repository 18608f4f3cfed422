//! Concurrency stress: many threads hammer one `LabelStore` and every
//! answer must equal what a fresh single-threaded decode of the same
//! pair produces.

use std::sync::Arc;

use pl_labeling::scheme::{AdjacencyDecoder, AdjacencyScheme};
use pl_labeling::threshold::ThresholdDecoder;
use pl_labeling::ThresholdScheme;
use pl_serve::{LabelStore, SchemeTag, StoreConfig, TaggedLabeling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn concurrent_store_matches_single_threaded_decoder() {
    let mut rng = StdRng::seed_from_u64(0x57E55);
    let g = pl_gen::chung_lu_power_law(4_000, 2.5, 6.0, &mut rng);
    let labeling = ThresholdScheme::with_tau(6).encode(&g);
    // Keep an untouched copy for the single-threaded reference decoder.
    let reference = labeling.clone();
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling,
        },
        StoreConfig::default(),
    ));

    let threads = 8;
    let queries_per_thread = 20_000;
    let n = g.vertex_count() as u32;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = Arc::clone(&store);
            let reference = &reference;
            scope.spawn(move || {
                let dec = ThresholdDecoder;
                let mut rng = StdRng::seed_from_u64(0xACE + t);
                for i in 0..queries_per_thread {
                    // Mix uniform pairs with hub-heavy pairs so fat–fat
                    // and thin paths both stay hot.
                    let u = if i % 3 == 0 {
                        rng.gen_range(0..n.min(64))
                    } else {
                        rng.gen_range(0..n)
                    };
                    let v = rng.gen_range(0..n);
                    let expected = dec.adjacent(reference.label(u), reference.label(v));
                    let got = store.adjacent(u, v).expect("in range");
                    assert_eq!(got, expected, "thread {t} query {i}: pair ({u}, {v})");
                }
            });
        }
    });
}

#[test]
fn concurrent_queries_agree() {
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let g = pl_gen::chung_lu_power_law(1_500, 2.3, 5.0, &mut rng);
    let labeling = ThresholdScheme::with_tau(5).encode(&g);
    let n = g.vertex_count() as u32;
    let pairs: Vec<(u32, u32)> = (0..10_000)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling,
        },
        StoreConfig::default(),
    ));

    // Four threads split the pairs; their answers, concatenated, must
    // equal a single-threaded pass over the same store.
    let sequential: Vec<bool> = pairs
        .iter()
        .map(|&(u, v)| store.adjacent(u, v).expect("in range"))
        .collect();
    let concurrent: Vec<bool> = std::thread::scope(|scope| {
        let chunks: Vec<_> = pairs
            .chunks(pairs.len() / 4)
            .map(|chunk| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(u, v)| store.adjacent(u, v).expect("in range"))
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    });
    assert_eq!(concurrent, sequential);
    for (&(u, v), &edge) in pairs.iter().zip(&sequential) {
        assert_eq!(edge, g.has_edge(u, v), "({u}, {v})");
    }
}
