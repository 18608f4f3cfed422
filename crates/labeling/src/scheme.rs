//! Scheme and decoder traits, plus the shared label prelude and id-list
//! reads.
//!
//! The paper's model (Section 2): an *encoder* sees the graph and emits one
//! bit string per vertex; a *decoder* sees exactly two labels — never the
//! graph — and decides adjacency. To make graph-independence structural,
//! decoders here are [`Default`]-constructible value types: they cannot
//! smuggle per-graph state. Anything the decoder needs (id width, fat/thin
//! flags, list lengths) is written into the labels themselves.

use pl_graph::Graph;

use crate::bits::{BitReader, BitWriter};
use crate::label::{LabelRef, Labeling};

/// An adjacency labeling scheme: the encoder half.
pub trait AdjacencyScheme {
    /// The matching decoder type.
    type Decoder: AdjacencyDecoder;

    /// Human-readable scheme name for experiment tables.
    fn name(&self) -> &'static str;

    /// Labels every vertex of `g`; `labeling.label(v)` is `v`'s label.
    fn encode(&self, g: &Graph) -> Labeling;

    /// The decoder. Decoders are stateless values; this is a convenience
    /// equivalent to `Self::Decoder::default()`.
    fn decoder(&self) -> Self::Decoder
    where
        Self::Decoder: Default,
    {
        Self::Decoder::default()
    }
}

/// The decoder half: answers adjacency from two labels alone.
pub trait AdjacencyDecoder {
    /// `Some(true)` iff the two labeled vertices are adjacent; `None`
    /// when a label is malformed (declares more than it carries, or has
    /// no valid prelude). Every read is checked, so hostile labels never
    /// panic the decoder.
    ///
    /// Both labels must come from the same [`AdjacencyScheme::encode`]
    /// run; mixing labelings or schemes answers arbitrarily or `None`.
    ///
    /// Labels are passed as borrowed [`LabelRef`] views so decoding runs
    /// in place over a loaded arena with zero per-query allocation.
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool>;

    /// [`try_adjacent`](Self::try_adjacent)` == Some(true)`: a malformed
    /// label decodes as "not adjacent".
    #[inline]
    fn adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> bool {
        self.try_adjacent(a, b) == Some(true)
    }
}

/// Width in bits of identifiers for an `n`-vertex graph: `⌈log₂ n⌉`,
/// minimum 1 so the prelude stays well-formed for trivial graphs.
#[must_use]
pub fn id_width(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Writes the shared label prelude: a 6-bit id width `w`, then the `w`-bit
/// identifier. 6 bits suffice for any `w ≤ 63`, i.e. graphs up to `2^63`
/// vertices.
pub fn write_prelude(w: &mut BitWriter, width: usize, id: u64) {
    debug_assert!((1..=63).contains(&width));
    w.write_bits(width as u64, 6);
    w.write_bits(id, width);
}

/// Reads the prelude written by [`write_prelude`]; returns `(width, id)`,
/// or `None` if the label is too short to carry it or declares width 0.
/// Encoders write `width ≥ 1`; a zero width would let an id list declare
/// any length in zero bits and pass a scan's bounds check.
#[must_use]
#[inline]
pub fn read_prelude(r: &mut BitReader<'_>) -> Option<(usize, u64)> {
    let width = r.read_bits(6)? as usize;
    if width == 0 {
        return None;
    }
    Some((width, r.read_bits(width)?))
}

/// Reads a gamma-coded id list — `gamma(len + 1)`, then `len` ids of
/// `width ≥ 1` bits (a prelude width) — and reports whether it holds
/// `id`. `None` if the list declares more ids than the label carries:
/// one bounds check covers the whole list, so a truncated list is never
/// a partial answer.
#[must_use]
#[inline]
pub(crate) fn list_contains(r: &mut BitReader<'_>, width: usize, id: u64) -> Option<bool> {
    let len = r.read_gamma()? - 1;
    if len.checked_mul(width as u64)? > r.remaining() as u64 {
        return None;
    }
    Some((0..len).any(|_| r.read_bits(width) == Some(id)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_width_values() {
        assert_eq!(id_width(0), 1);
        assert_eq!(id_width(1), 1);
        assert_eq!(id_width(2), 1);
        assert_eq!(id_width(3), 2);
        assert_eq!(id_width(4), 2);
        assert_eq!(id_width(5), 3);
        assert_eq!(id_width(1 << 20), 20);
        assert_eq!(id_width((1 << 20) + 1), 21);
    }

    #[test]
    fn prelude_round_trip() {
        for (n, id) in [(2usize, 1u64), (100, 99), (1 << 30, 12345)] {
            let width = id_width(n);
            let mut w = BitWriter::new();
            write_prelude(&mut w, width, id);
            let label: crate::label::Label = w.into();
            let mut r = label.reader();
            assert_eq!(read_prelude(&mut r), Some((width, id)));
        }
    }

    #[test]
    fn prelude_rejects_width_zero_and_truncation() {
        let mut w = BitWriter::new();
        w.write_bits(0, 6);
        w.write_bits(0, 10);
        let label: crate::label::Label = w.into();
        assert_eq!(read_prelude(&mut label.reader()), None);
        let mut w = BitWriter::new();
        w.write_bits(12, 6);
        w.write_bits(5, 11);
        let label: crate::label::Label = w.into();
        assert_eq!(read_prelude(&mut label.reader()), None);
    }

    #[test]
    fn list_contains_rejects_a_list_longer_than_the_label() {
        let mut w = BitWriter::new();
        w.write_gamma(4);
        for id in [3u64, 9] {
            w.write_bits(id, 5);
        }
        let label: crate::label::Label = w.into();
        // Three ids declared, two carried: even the id that is present
        // is not a partial answer.
        assert_eq!(list_contains(&mut label.reader(), 5, 3), None);
        let mut w = BitWriter::new();
        w.write_gamma(3);
        for id in [3u64, 9] {
            w.write_bits(id, 5);
        }
        let label: crate::label::Label = w.into();
        assert_eq!(list_contains(&mut label.reader(), 5, 9), Some(true));
        assert_eq!(list_contains(&mut label.reader(), 5, 4), Some(false));
    }

    #[test]
    fn prelude_size_is_logarithmic() {
        let mut w = BitWriter::new();
        write_prelude(&mut w, id_width(1_000_000), 999_999);
        assert_eq!(w.len(), 6 + 20);
    }
}
