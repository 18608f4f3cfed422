//! Adversarial-input tests for the label wire format.
//!
//! The serving layer (`pl-serve`) hands bytes read from disk (`.plab`
//! files) and from the network (`LABELS` frame bodies) straight to
//! `Labeling::from_bytes`, the one label parser, so it must treat its
//! input as hostile: any byte string either round-trips to a value or
//! returns a `WireError` — never a panic, and never an allocation sized
//! by an unvalidated header.

use pl_labeling::bits::BitWriter;
use pl_labeling::label::WireError;
use pl_labeling::{Label, Labeling};
use proptest::prelude::*;

fn label_from_bools(bits: &[bool]) -> Label {
    let mut w = BitWriter::new();
    for &b in bits {
        w.write_bit(b);
    }
    Label::from_bits(w.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn label_bits_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let labeling = Labeling::new(vec![label_from_bools(&bits)]);
        let bytes = labeling.to_bytes();
        prop_assert_eq!(bytes.len(), 28 + bits.len().div_ceil(8));
        let back = Labeling::from_bytes(&bytes).expect("own encoding parses");
        prop_assert_eq!(back.label(0).to_label(), label_from_bools(&bits));
    }

    #[test]
    fn labeling_round_trips(
        lens in proptest::collection::vec(0usize..120, 0..40),
    ) {
        let labels: Vec<Label> = lens
            .iter()
            .map(|&len| label_from_bools(&vec![true; len]))
            .collect();
        let labeling = Labeling::new(labels);
        let bytes = labeling.to_bytes();
        let back = Labeling::from_bytes(&bytes).expect("own encoding parses");
        prop_assert_eq!(back, labeling);
    }

    #[test]
    fn random_bytes_never_panic_labeling(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Any outcome is fine; panicking or aborting is not.
        let _ = Labeling::from_bytes(&bytes);
        // The same bytes behind the magic reach the count and offsets.
        let _ = Labeling::from_bytes(&[&b"PLL2"[..], &bytes].concat());
    }

    #[test]
    fn corrupted_encodings_never_panic(
        lens in proptest::collection::vec(0usize..60, 1..10),
        flips in proptest::collection::vec((0usize..10_000, 0u8..8), 1..8),
        cut in 0usize..10_000,
    ) {
        // Start from a valid encoding, then flip bits and truncate: the
        // parser must either produce a labeling or a WireError.
        let labels: Vec<Label> = lens
            .iter()
            .map(|&len| label_from_bools(&vec![false; len]))
            .collect();
        let mut bytes = Labeling::new(labels).to_bytes();
        for &(pos, bit) in &flips {
            let n = bytes.len();
            bytes[pos % n] ^= 1 << bit;
        }
        let cut = cut % (bytes.len() + 1);
        let _ = Labeling::from_bytes(&bytes[..cut]);
        let _ = Labeling::from_bytes(&bytes);
    }
}

/// A `PLL2` header: magic, label count, then the given offsets.
fn header(count: u64, offsets: &[u64]) -> Vec<u8> {
    let mut bytes = b"PLL2".to_vec();
    bytes.extend_from_slice(&count.to_le_bytes());
    for o in offsets {
        bytes.extend_from_slice(&o.to_le_bytes());
    }
    bytes
}

#[test]
fn oversized_arena_length_is_rejected_without_allocating() {
    // One label declaring u64::MAX bits, no arena.
    let mut bytes = header(1, &[0, u64::MAX]);
    assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::Truncated));
    // Same with a few bytes of arena present.
    bytes.extend_from_slice(&[0xAB; 16]);
    assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::Truncated));
}

#[test]
fn oversized_label_count_is_rejected_without_allocating() {
    let bytes = header(u64::MAX, &[]);
    assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::Truncated));
    // A count whose offset table the remaining bytes cannot hold.
    let mut bytes = header(1_000, &[]);
    bytes.extend_from_slice(&[0u8; 64]);
    assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::Truncated));
}

#[test]
fn dirty_padding_is_rejected() {
    let labeling = Labeling::new(vec![label_from_bools(&[true; 9])]);
    let mut bytes = labeling.to_bytes();
    *bytes.last_mut().unwrap() |= 1; // an unused bit of the last byte
    assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::DirtyPadding));
}

#[test]
fn trailing_bytes_are_rejected() {
    let labeling = Labeling::new(vec![label_from_bools(&[true, false, true])]);
    let mut bytes = labeling.to_bytes();
    bytes.push(0);
    assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::TrailingBytes));
}

#[test]
fn truncation_at_every_prefix_is_an_error_not_a_panic() {
    let labeling = Labeling::new(vec![
        label_from_bools(&[true; 17]),
        label_from_bools(&[false; 3]),
        label_from_bools(&[]),
    ]);
    let bytes = labeling.to_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Labeling::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes should not parse"
        );
    }
    assert!(Labeling::from_bytes(&bytes).is_ok());
}
