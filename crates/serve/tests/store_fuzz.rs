//! Hostile label arenas never panic the store.
//!
//! Each case is a well-formed `PLL2` container — so `Labeling::from_bytes`
//! accepts it — around an arena of random words cut at random offsets.
//! The labels inside are garbage: preludes with any id width, fat flags
//! over bitmaps that are not there, gamma prefixes running off the end
//! or past 63 zeros, thin lists declaring more ids than they carry. Every
//! pair is queried through a full and a partial store; every answer must
//! be `Ok`, `Malformed` or `NotOwned`, and nothing may panic. This is
//! what the checked reads of `pl_labeling::threshold`, and the one
//! up-front bounds check in front of its thin-list scan, are for.
//!
//! There is one decoder: on every pair, `try_adjacent` must give the
//! full store's answer (`Some(b)` for `Ok(b)`, `None` for `Malformed`),
//! and `ThresholdDecoder` must answer `Some(true)` as adjacent and all
//! else as not, without panicking.

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
    let (mut answered, mut malformed, mut not_owned) = (0u64, 0u64, 0u64);
    for _ in 0..3_000 {
        let labeling = hostile_labeling(&mut rng);
        let n = labeling.len() as u32;
        let tagged = TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling,
        };
        let full = LabelStore::new(tagged.clone(), StoreConfig::default());
        for (u, a) in tagged.labeling.iter() {
            for (v, b) in tagged.labeling.iter() {
                let rule = try_adjacent(a, b).ok_or(StoreError::Malformed);
                assert_eq!(full.adjacent(u, v), rule, "({u}, {v}) of {n}");
                assert_eq!(ThresholdDecoder.adjacent(a, b), rule == Ok(true));
            }
        }
        let partial = LabelStore::new(tagged, StoreConfig::default()).with_partial(true);
        for store in [&full, &partial] {
            for u in 0..n {
                for v in 0..n {
                    match store.adjacent(u, v) {
                        Ok(_) => answered += 1,
                        Err(StoreError::Malformed) => malformed += 1,
                        Err(StoreError::NotOwned) => not_owned += 1,
                        Err(e) => panic!("({u}, {v}) of {n}: unexpected {e:?}"),
                    }
                }
            }
        }
    }
    // The cases must reach every outcome, or they test too little.
    assert!(answered > 0 && malformed > 0 && not_owned > 0);
}
