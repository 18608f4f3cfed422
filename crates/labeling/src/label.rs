//! Labels and labelings, with bit-exact size accounting and a compact
//! binary wire format (labels exist to be shipped to peers).
//!
//! A [`Labeling`] is stored as one contiguous bit arena plus a bit-offset
//! table: `label(v)` hands out a borrowed [`LabelRef`] window into the
//! arena, so a loaded `.plab` is queried in place with zero per-query
//! allocation. There is one byte format, the `PLL2` container (arena +
//! offsets), and this module is the one place that reads or writes it:
//! `.plab` files carry it after their tag byte, and `LABELS` frames
//! carry it as their body. See `crates/labeling/FORMAT.md`.

use crate::bits::{BitReader, BitString, BitWriter};

/// Packs `bytes` MSB-first into words, zero-filling the last word.
fn words_from_be_bytes(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|chunk| {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            u64::from_be_bytes(w)
        })
        .collect()
}

/// Appends the first `nbytes` bytes of `words`, MSB-first.
fn extend_be_bytes(out: &mut Vec<u8>, words: &[u64], nbytes: usize) {
    out.extend(words.iter().flat_map(|w| w.to_be_bytes()).take(nbytes));
}

/// Magic prefix of the one labeling container (arena + offsets).
const LABELING_MAGIC: &[u8; 4] = b"PLL2";

/// Error deserializing a labeling.
///
/// `from_bytes` treats its input as untrusted network/disk bytes: any
/// declared length is checked against the bytes actually present *before*
/// memory is reserved, so a hostile header can neither panic the parser
/// nor make it overallocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared content (or a declared length
    /// exceeds what any buffer of this size could hold).
    Truncated,
    /// The magic prefix was not `PLL2`, the one supported container
    /// (older `PLL1` files are refused here too).
    BadMagic,
    /// Unused trailing bits of the final byte were not zero.
    DirtyPadding,
    /// Bytes remained after the declared content (the encoding is
    /// canonical: one labeling, nothing else).
    TrailingBytes,
    /// The offset table was not monotone non-decreasing from zero.
    BadOffsets,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "buffer too short for declared label data"),
            Self::BadMagic => write!(f, "bad magic: not a PLL2 labeling container"),
            Self::DirtyPadding => write!(f, "non-zero padding bits in final byte"),
            Self::TrailingBytes => write!(f, "trailing bytes after labeling content"),
            Self::BadOffsets => write!(f, "offset table not monotone from zero"),
        }
    }
}

impl std::error::Error for WireError {}

/// A single vertex label: an opaque bit string produced by an encoder and
/// consumed by the matching decoder.
///
/// `Hash` agrees with `Eq`: the bits past `bit_len` are always zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Label(BitString);

impl Label {
    /// Wraps a finished bit string as a label.
    #[must_use]
    pub fn from_bits(bits: BitString) -> Self {
        Self(bits)
    }

    /// Label size in bits — the quantity every bound in the paper is about.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.0.len()
    }

    /// A borrowed view of this label, as decoders consume it.
    #[must_use]
    pub fn view(&self) -> LabelRef<'_> {
        LabelRef {
            words: self.0.words(),
            start: 0,
            len: self.0.len(),
        }
    }

    /// A reader over the label's bits.
    #[must_use]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(&self.0)
    }
}

impl From<BitWriter> for Label {
    fn from(w: BitWriter) -> Self {
        Self(w.finish())
    }
}

/// A borrowed, zero-copy view of one label inside a [`Labeling`] arena
/// (or of a standalone [`Label`]).
///
/// `Copy`, so call sites pass it by value; decoders read it in place via
/// [`reader`](Self::reader) without touching the heap.
#[derive(Debug, Clone, Copy)]
pub struct LabelRef<'a> {
    words: &'a [u64],
    start: usize,
    len: usize,
}

impl<'a> LabelRef<'a> {
    /// Label size in bits.
    #[must_use]
    pub fn bit_len(self) -> usize {
        self.len
    }

    /// `true` iff the label is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// A reader over the label's bits.
    #[must_use]
    pub fn reader(self) -> BitReader<'a> {
        BitReader::over(self.words, self.start, self.len)
    }

    /// The view of this label's first `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > bit_len()`.
    #[must_use]
    pub fn prefix(self, len: usize) -> Self {
        assert!(len <= self.len, "prefix longer than the label");
        Self { len, ..self }
    }

    /// Copies the viewed bits into an owned [`Label`], a word at a time.
    #[must_use]
    pub fn to_label(self) -> Label {
        let mut bits = BitString::new();
        bits.extend_from_window(self.words, self.start, self.len);
        Label(bits)
    }
}

impl PartialEq for LabelRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = self.reader();
        let mut b = other.reader();
        let mut left = self.len;
        while left >= 64 {
            if a.read_bits(64) != b.read_bits(64) {
                return false;
            }
            left -= 64;
        }
        left == 0 || a.read_bits(left) == b.read_bits(left)
    }
}

impl Eq for LabelRef<'_> {}

/// Incrementally assembles a [`Labeling`] arena, label by label.
///
/// Builders are also the unit of parallel encoding: each worker fills its
/// own builder over a chunk of vertices, and the chunks are stitched in
/// vertex order with [`merge`](Self::merge) — bit-identical to a single
/// sequential pass by construction.
#[derive(Debug)]
pub struct LabelingBuilder {
    arena: BitString,
    offsets: Vec<u64>,
}

impl LabelingBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            arena: BitString::new(),
            offsets: vec![0],
        }
    }

    /// Labels pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` iff no labels have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Appends the next vertex's label, written by `write` straight into
    /// the arena.
    pub(crate) fn push_with(&mut self, write: impl FnOnce(&mut BitWriter)) {
        let mut w = BitWriter::from_bits(std::mem::take(&mut self.arena));
        write(&mut w);
        self.arena = w.finish();
        self.offsets.push(self.arena.len() as u64);
    }

    /// Appends the next vertex's label, copied a word at a time from a
    /// view (of another labeling's arena, say).
    pub fn push_ref(&mut self, label: LabelRef<'_>) {
        self.arena
            .extend_from_window(label.words, label.start, label.len);
        self.offsets.push(self.arena.len() as u64);
    }

    /// Appends the next vertex's label.
    pub fn push_label(&mut self, label: &Label) {
        self.push_ref(label.view());
    }

    /// Appends every label of `other` after this builder's labels,
    /// preserving order.
    pub fn merge(&mut self, other: &LabelingBuilder) {
        let base = self.arena.len() as u64;
        self.arena.extend_from(&other.arena);
        self.offsets
            .extend(other.offsets.iter().skip(1).map(|&o| base + o));
    }

    /// Finishes building, yielding the labeling.
    #[must_use]
    pub fn finish(self) -> Labeling {
        Labeling {
            arena: self.arena,
            offsets: self.offsets,
        }
    }
}

impl Default for LabelingBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The output of an encoder: one label per vertex, indexed by the original
/// vertex id of the input graph.
///
/// Labels live in a single contiguous bit arena; `offsets[v]..offsets[v+1]`
/// is vertex `v`'s bit range, so lookups are O(1) and decoders borrow the
/// arena in place via [`LabelRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    arena: BitString,
    offsets: Vec<u64>,
}

impl Labeling {
    /// Packs per-vertex labels (index = original vertex id) into an arena.
    #[must_use]
    pub fn new(labels: Vec<Label>) -> Self {
        let mut b = LabelingBuilder::new();
        for l in &labels {
            b.push_label(l);
        }
        b.finish()
    }

    /// Number of labeled vertices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` iff the labeling covers no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The label of vertex `v`, viewed in place — no copy, no allocation.
    #[must_use]
    pub fn label(&self, v: u32) -> LabelRef<'_> {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        LabelRef {
            words: self.arena.words(),
            start,
            len: end - start,
        }
    }

    /// Iterator over `(vertex, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, LabelRef<'_>)> + '_ {
        (0..self.len() as u32).map(|v| (v, self.label(v)))
    }

    /// The scheme's `size(n)`: the maximum label length in bits.
    #[must_use]
    pub fn max_bits(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Average label length in bits.
    #[must_use]
    pub fn avg_bits(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.total_bits() as f64 / self.len() as f64
        }
    }

    /// Total bits across all labels (the distributed structure's footprint).
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.arena.len()
    }

    /// Serializes as the `PLL2` container: magic, `u64-LE` label count
    /// `n`, `n + 1` `u64-LE` bit offsets, then the arena bits packed
    /// MSB-first and zero-padded to a byte boundary.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = self.total_bits().div_ceil(8);
        let mut out = Vec::with_capacity(12 + 8 * self.offsets.len() + nbytes);
        out.extend_from_slice(LABELING_MAGIC);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for &o in &self.offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        extend_be_bytes(&mut out, self.arena.words(), nbytes);
        out
    }

    /// Parses a `PLL2` container; any other magic (the retired `PLL1`
    /// included) is [`WireError::BadMagic`].
    ///
    /// Safe on adversarial input: the declared count and offsets are
    /// bounded by the bytes actually present before any allocation,
    /// offsets must be monotone from zero, padding must be clean, and
    /// trailing bytes are rejected, so each labeling has exactly one
    /// encoding.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < 12 {
            return Err(WireError::Truncated);
        }
        if &buf[..4] != LABELING_MAGIC {
            return Err(WireError::BadMagic);
        }
        let le_u64 = |at: usize| {
            u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes")) // lint: panic-ok(every caller slices 8 bytes inside the length-checked buffer)
        };
        let declared = le_u64(4);
        // The offset table alone costs (n + 1) * 8 bytes; bound the count
        // against the buffer before allocating the table.
        let table_bytes = declared
            .checked_add(1)
            .and_then(|c| c.checked_mul(8))
            .ok_or(WireError::Truncated)?;
        if table_bytes > (buf.len() as u64).saturating_sub(12) {
            return Err(WireError::Truncated);
        }
        let n = declared as usize;
        let offsets: Vec<u64> = (0..=n).map(|i| le_u64(12 + 8 * i)).collect();
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(WireError::BadOffsets);
        }
        let total = offsets[n];
        // The arena must fill the rest of the buffer exactly — checked in
        // u64 before sizing any allocation from the declared total.
        let body = &buf[12 + 8 * (n + 1)..];
        let nbytes = total.div_ceil(8);
        if nbytes > body.len() as u64 {
            return Err(WireError::Truncated);
        }
        if nbytes < body.len() as u64 {
            return Err(WireError::TrailingBytes);
        }
        let total = total as usize;
        let words = words_from_be_bytes(body);
        if !total.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                if last & (u64::MAX >> (total % 64)) != 0 {
                    return Err(WireError::DirtyPadding);
                }
            }
        }
        Ok(Self {
            arena: BitString::from_raw_parts(words, total),
            offsets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn label_of_bits(n: usize) -> Label {
        let mut w = BitWriter::new();
        for i in 0..n {
            w.write_bit(i % 2 == 0);
        }
        w.into()
    }

    #[test]
    fn label_len() {
        assert_eq!(label_of_bits(17).bit_len(), 17);
        assert_eq!(label_of_bits(0).bit_len(), 0);
    }

    #[test]
    fn default_builder_is_empty() {
        let b = LabelingBuilder::default();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
        assert_eq!(b.finish().len(), 0);
    }

    #[test]
    fn labeling_stats() {
        let lab = Labeling::new(vec![label_of_bits(8), label_of_bits(4), label_of_bits(12)]);
        assert_eq!(lab.len(), 3);
        assert_eq!(lab.max_bits(), 12);
        assert_eq!(lab.total_bits(), 24);
        assert!((lab.avg_bits() - 8.0).abs() < 1e-12);
        assert_eq!(lab.label(1).bit_len(), 4);
    }

    #[test]
    fn empty_labeling() {
        let lab = Labeling::new(vec![]);
        assert!(lab.is_empty());
        assert_eq!(lab.max_bits(), 0);
        assert_eq!(lab.avg_bits(), 0.0);
    }

    #[test]
    fn iter_gives_ids_in_order() {
        let lab = Labeling::new(vec![label_of_bits(1), label_of_bits(2)]);
        let ids: Vec<u32> = lab.iter().map(|(v, _)| v).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn reader_reads_label_content() {
        let mut w = BitWriter::new();
        w.write_bits(0b1010, 4);
        let l: Label = w.into();
        assert_eq!(l.reader().read_bits(4), Some(0b1010));
    }

    #[test]
    fn arena_views_match_source_labels() {
        let labels = vec![label_of_bits(3), label_of_bits(0), label_of_bits(77)];
        let lab = Labeling::new(labels.clone());
        for (v, l) in labels.iter().enumerate() {
            let r = lab.label(v as u32);
            assert_eq!(r.bit_len(), l.bit_len());
            assert_eq!(r, l.view(), "vertex {v}");
            assert_eq!(r.to_label(), *l, "vertex {v}");
        }
    }

    #[test]
    fn builder_merge_matches_sequential() {
        let labels: Vec<Label> = (0..9).map(|i| label_of_bits(i * 13 + 1)).collect();
        let whole = Labeling::new(labels.clone());
        let mut left = LabelingBuilder::new();
        let mut right = LabelingBuilder::new();
        for l in &labels[..4] {
            left.push_label(l);
        }
        for l in &labels[4..] {
            right.push_label(l);
        }
        left.merge(&right);
        assert_eq!(left.len(), labels.len());
        assert_eq!(left.finish(), whole);
    }

    #[test]
    fn labeling_wire_round_trip() {
        let lab = Labeling::new(vec![label_of_bits(3), label_of_bits(0), label_of_bits(77)]);
        let bytes = lab.to_bytes();
        assert_eq!(&bytes[..4], LABELING_MAGIC);
        let back = Labeling::from_bytes(&bytes).unwrap();
        assert_eq!(back, lab);
        for v in 0..3u32 {
            assert_eq!(back.label(v), lab.label(v));
        }
    }

    #[test]
    fn retired_pll1_container_is_refused() {
        let mut bytes = Labeling::new(vec![label_of_bits(5)]).to_bytes();
        bytes[..4].copy_from_slice(b"PLL1");
        assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::BadMagic));
        assert!(WireError::BadMagic.to_string().contains("PLL2"));
    }

    #[test]
    fn labeling_wire_rejects_bad_magic() {
        let lab = Labeling::new(vec![label_of_bits(5)]);
        let mut bytes = lab.to_bytes();
        bytes[0] = b'X';
        assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::BadMagic));
        assert!(WireError::BadMagic.to_string().contains("magic"));
    }

    #[test]
    fn v2_rejects_bad_offsets() {
        let lab = Labeling::new(vec![label_of_bits(8), label_of_bits(8)]);
        let mut bytes = lab.to_bytes();
        // offsets live at [12..36): make offsets[1] > offsets[2].
        bytes[20..28].copy_from_slice(&100u64.to_le_bytes());
        assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::BadOffsets));
    }

    #[test]
    fn v2_rejects_truncation_and_trailing() {
        let lab = Labeling::new(vec![label_of_bits(9), label_of_bits(30)]);
        let bytes = lab.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Labeling::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert_eq!(Labeling::from_bytes(&extra), Err(WireError::TrailingBytes));
    }

    #[test]
    fn v2_rejects_dirty_padding() {
        let lab = Labeling::new(vec![label_of_bits(9)]);
        let mut bytes = lab.to_bytes();
        *bytes.last_mut().unwrap() |= 1;
        assert_eq!(Labeling::from_bytes(&bytes), Err(WireError::DirtyPadding));
    }

    #[test]
    fn serialized_labeling_still_decodes() {
        use crate::scheme::{AdjacencyDecoder, AdjacencyScheme};
        let g = pl_gen::classic::cycle(12);
        let scheme = crate::threshold::ThresholdScheme::with_tau(2);
        let lab = scheme.encode(&g);
        let back = Labeling::from_bytes(&lab.to_bytes()).unwrap();
        let dec = scheme.decoder();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(dec.adjacent(back.label(u), back.label(v)), g.has_edge(u, v));
            }
        }
    }
}
