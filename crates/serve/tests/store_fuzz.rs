//! Hostile label arenas never panic the store, whatever scheme it serves.
//!
//! Each case is a well-formed `PLL2` container — so `Labeling::from_bytes`
//! accepts it — around an arena of random words cut at random offsets.
//! The labels inside are garbage: preludes with any id width, fat flags
//! over bitmaps that are not there, gamma prefixes running off the end
//! or past 63 zeros, lists and tables declaring more entries than they
//! carry. The same arena is served under every [`SchemeTag`]; every
//! pair is queried for adjacency (and, under `Distance`, for distance)
//! through a full and a partial store. Every answer must be `Ok`,
//! `Malformed` or `NotOwned`, and nothing may panic or abort. This is
//! what the checked reads of `pl_labeling::bits`, and the up-front
//! bounds checks in front of every list scan and table, are for.
//!
//! The store adds policy, not decoding: on every pair, the tag's
//! `try_adjacent` must give the full store's answer (`Some(b)` for
//! `Ok(b)`, `None` for `Malformed`), and so must `try_distance` for
//! distance queries. `ThresholdDecoder` must answer `Some(true)` as
//! adjacent and all else as not.

use pl_labeling::scheme::AdjacencyDecoder;
use pl_labeling::threshold::{try_adjacent, ThresholdDecoder};
use pl_labeling::Labeling;
use pl_serve::{LabelStore, SchemeTag, StoreConfig, StoreError, TaggedLabeling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random arena of `words` words, `bits` of them in use, cut into `n`
/// labels at random offsets, serialized and parsed back.
fn hostile_labeling(rng: &mut StdRng) -> Labeling {
    let n = rng.gen_range(1..24usize);
    let words = rng.gen_range(0..10usize);
    let bits = if words == 0 {
        0
    } else {
        rng.gen_range((words - 1) * 64 + 1..=words * 64)
    };
    // Sparse words give long zero runs: wide gamma prefixes and small
    // id widths. Dense words give short prefixes and wide ids.
    let sparse = rng.gen_bool(0.5);
    let mut arena: Vec<u64> = (0..words)
        .map(|_| {
            let w: u64 = rng.gen();
            if sparse {
                w & rng.gen::<u64>() & rng.gen::<u64>()
            } else {
                w
            }
        })
        .collect();
    if let Some(last) = arena.last_mut() {
        if bits % 64 != 0 {
            *last &= !(u64::MAX >> (bits % 64));
        }
    }
    let mut offsets: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(0..=bits as u64)).collect();
    offsets.sort_unstable();

    let mut bytes = b"PLL2".to_vec();
    bytes.extend_from_slice(&(n as u64).to_le_bytes());
    for o in std::iter::once(0).chain(offsets).chain([bits as u64]) {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    let body: Vec<u8> = arena.iter().flat_map(|w| w.to_be_bytes()).collect();
    bytes.extend_from_slice(&body[..bits.div_ceil(8)]);
    Labeling::from_bytes(&bytes).expect("the container itself is well-formed")
}

#[test]
fn hostile_arenas_answer_or_refuse_but_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF022);
    // Per tag: answered, malformed, not owned.
    let mut outcomes = [[0u64; 3]; SchemeTag::ALL.len()];
    for _ in 0..3_000 {
        let labeling = hostile_labeling(&mut rng);
        let n = labeling.len() as u32;
        for (t, tag) in SchemeTag::ALL.into_iter().enumerate() {
            let tagged = TaggedLabeling {
                tag,
                labeling: labeling.clone(),
            };
            let full = LabelStore::new(tagged.clone(), StoreConfig::default());
            for (u, a) in labeling.iter() {
                for (v, b) in labeling.iter() {
                    let rule = tag.try_adjacent(a, b).ok_or(StoreError::Malformed);
                    assert_eq!(full.adjacent(u, v), rule, "{tag:?} ({u}, {v}) of {n}");
                    if tag == SchemeTag::Threshold {
                        assert_eq!(try_adjacent(a, b), rule.ok());
                        assert_eq!(ThresholdDecoder.adjacent(a, b), rule == Ok(true));
                    }
                    if tag.supports_distance() {
                        let dist = tag.try_distance(a, b).ok_or(StoreError::Malformed);
                        assert_eq!(full.distance(u, v), dist, "{tag:?} ({u}, {v}) of {n}");
                    }
                }
            }
            let partial = LabelStore::new(tagged, StoreConfig::default()).with_partial(true);
            for store in [&full, &partial] {
                for u in 0..n {
                    for v in 0..n {
                        let slot = match store.adjacent(u, v) {
                            Ok(_) => 0,
                            Err(StoreError::Malformed) => 1,
                            Err(StoreError::NotOwned) => 2,
                            Err(e) => panic!("{tag:?} ({u}, {v}) of {n}: unexpected {e:?}"),
                        };
                        outcomes[t][slot] += 1;
                    }
                }
            }
        }
    }
    // The cases must reach every outcome under every scheme, or they
    // test too little; only a partial threshold store says `NotOwned`.
    for (tag, [answered, malformed, not_owned]) in SchemeTag::ALL.into_iter().zip(outcomes) {
        assert!(
            answered > 0 && malformed > 0,
            "{tag:?}: {answered} ok, {malformed} malformed"
        );
        assert_eq!(not_owned > 0, tag == SchemeTag::Threshold, "{tag:?}");
    }
}
