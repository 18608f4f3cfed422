//! Pins the threshold encoder's output, byte for byte.
//!
//! The hashes below are FNV-1a of `Labeling::to_bytes()` for seeded
//! Chung–Lu graphs. Any change to how labels are written — bit order,
//! field widths, the fat bitmap's layout — changes them, whatever the
//! decoder says, so a rewrite of the bit I/O under the encoder must
//! leave every constant as it is.

use pl_labeling::threshold::encode_with_stats_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(graph seed, τ, FNV-1a of the labeling bytes)`.
const PINNED: [(u64, usize, u64); 6] = [
    (1, 1, 0x966f_c924_2019_9bb9),
    (1, 8, 0xedd3_9fd2_effb_fa80),
    (1, 260, 0x324a_7929_05bf_811c),
    (2, 1, 0x6b64_6395_5ca1_35ac),
    (2, 8, 0xc1df_fb0c_e06e_4244),
    (2, 260, 0x8de9_ce40_a0c8_434c),
];

#[test]
fn threshold_encoding_bytes_are_pinned() {
    let mut got = Vec::new();
    for seed in [1u64, 2] {
        let g = pl_gen::chung_lu_power_law(2_000, 2.5, 5.0, &mut StdRng::seed_from_u64(seed));
        for tau in [1usize, 8, 260] {
            let hashes: Vec<u64> = [1usize, 3]
                .iter()
                .map(|&threads| fnv1a(&encode_with_stats_threads(&g, tau, threads).0.to_bytes()))
                .collect();
            assert_eq!(
                hashes[0], hashes[1],
                "seed {seed} tau {tau}: threads disagree"
            );
            got.push((seed, tau, hashes[0]));
        }
    }
    assert_eq!(got, PINNED);
}
