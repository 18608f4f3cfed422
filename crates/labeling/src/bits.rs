//! Bit-exact strings: the raw material labels are made of.
//!
//! A labeling scheme's size is measured in *bits*, so labels are stored as
//! packed bit strings with explicit bit lengths, written MSB-first within
//! each field. [`BitWriter`] appends fields; [`BitReader`] consumes them in
//! order. Variable-length non-negative integers use the Elias gamma code
//! (via [`BitWriter::write_gamma`] / [`BitReader::read_gamma`]) so labels
//! are self-delimiting without fixed-width length fields.
//!
//! A [`BitReader`] is a *window* over a word slice — any `(start, len)`
//! bit range of any `&[u64]` — so a label stored inside a shared arena
//! (see [`crate::Labeling`]) can be read in place without copying.
//!
//! ## Word layout
//!
//! Bit `i` of a string is bit `63 − i % 64` of word `i / 64`: the first
//! bit is the most significant bit of the first word, so a field of
//! `width ≤ 64` bits starting at bit `i` occupies the low `64 − i % 64`
//! bits of word `i / 64` and, when it crosses a word boundary, the high
//! bits of the next word. Every read and write moves a whole field at
//! once with a shift and a mask over those (at most two) words; no
//! operation loops over single bits. The Elias-gamma unary prefix is
//! found with one `leading_zeros` over the next (up to) 64 bits.
//!
//! ## Guards
//!
//! Every read is checked: it tests the field against the window once, up
//! front, and returns `None` — leaving the cursor where it was — when the
//! field would extend past the window. A gamma code whose unary prefix
//! exceeds 63 zeros (no `u64` has one) is `None` as well. Labels are
//! untrusted once a `.plab` leaves the encoder, so a short or garbled
//! label surfaces as `None` in the decoder, never as a panic.
//!
//! A read only touches the word after the field's first word when the
//! field actually crosses into it, so a field ending in the last word of
//! the slice never indexes past the slice.

/// A packed, growable string of bits.
///
/// Invariant: bits at positions `>= len` in the final word are zero, so
/// word-level equality, hashing and serialization are canonical.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    words: Vec<u64>,
    len: usize,
}

impl BitString {
    /// An empty bit string.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Length in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no bits have been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words, MSB-first within each word; bits at positions
    /// `>= len()` in the last word are zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bit string from backing words and a bit length.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)` or any bit at position
    /// `>= len` in the final word is set (the canonical-form invariant).
    #[must_use]
    pub fn from_raw_parts(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count mismatch");
        if !len.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                assert_eq!(last & (u64::MAX >> (len % 64)), 0, "dirty tail bits");
            }
        }
        Self { words, len }
    }

    /// The bit at position `i` (0-based from the start).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = self.words[i / 64];
        (word >> (63 - (i % 64))) & 1 == 1
    }

    /// Appends the low `width ≤ 64` bits of `value` (which has no bits
    /// above them), MSB first, by OR-ing into at most two words.
    fn push_bits(&mut self, value: u64, width: usize) {
        if width == 0 {
            return;
        }
        let aligned = value << (64 - width);
        let off = self.len % 64;
        if off == 0 {
            self.words.push(aligned);
        } else {
            // lint: panic-ok(a nonzero bit offset means a word was pushed)
            let last = self.words.last_mut().expect("off != 0 implies a word");
            *last |= aligned >> off;
            if off + width > 64 {
                self.words.push(aligned << (64 - off));
            }
        }
        self.len += width;
    }

    /// Appends every bit of `other`, preserving order.
    pub fn extend_from(&mut self, other: &BitString) {
        self.extend_from_window(&other.words, 0, other.len);
    }

    /// Appends the `len`-bit window starting at absolute bit `start` of
    /// `words`, 64 bits per step: each step is one two-word read and one
    /// two-word write, whatever the alignment of either side.
    ///
    /// # Panics
    ///
    /// Panics if the window extends past `words.len() * 64` bits.
    pub(crate) fn extend_from_window(&mut self, words: &[u64], start: usize, len: usize) {
        let mut r = BitReader::over(words, start, len);
        self.words
            .reserve((self.len + len).div_ceil(64) - self.words.len());
        while r.remaining() >= 64 {
            self.push_bits(r.take(64), 64);
        }
        let tail = r.remaining();
        self.push_bits(r.take(tail), tail);
    }
}

/// Appends fields to a [`BitString`].
#[derive(Debug, Default)]
pub struct BitWriter {
    bits: BitString,
}

impl BitWriter {
    /// A writer that appends after the existing bits of `bits`.
    pub(crate) fn from_bits(bits: BitString) -> Self {
        Self { bits }
    }

    /// A writer over a fresh empty string.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bits written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` iff nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Appends one bit.
    pub fn write_bit(&mut self, b: bool) {
        self.bits.push_bits(u64::from(b), 1);
    }

    /// Appends the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or `value` does not fit in `width` bits.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        self.bits.push_bits(value, width);
    }

    /// Appends `x ≥ 1` in Elias gamma: `⌊log₂ x⌋` zeros, then `x` in binary.
    ///
    /// To encode an arbitrary `v ≥ 0`, call `write_gamma(v + 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0`.
    pub fn write_gamma(&mut self, x: u64) {
        assert!(x >= 1, "gamma code is defined for x >= 1");
        let bits = 64 - x.leading_zeros() as usize; // ⌊log₂ x⌋ + 1
        self.bits.push_bits(0, bits - 1);
        self.bits.push_bits(x, bits);
    }

    /// Finishes writing, yielding the bit string.
    #[must_use]
    pub fn finish(self) -> BitString {
        self.bits
    }
}

/// Sequentially consumes fields from a window of a word slice.
///
/// The window starts at absolute bit `start` of `words` and spans `len`
/// bits; positions reported by [`position`](Self::position) are relative
/// to the window, so a reader over a label inside an arena behaves
/// exactly like a reader over a standalone [`BitString`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    start: usize,
    len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the start of `bits`.
    #[must_use]
    pub fn new(bits: &'a BitString) -> Self {
        Self {
            words: &bits.words,
            start: 0,
            len: bits.len,
            pos: 0,
        }
    }

    /// A reader over the `len`-bit window starting at absolute bit
    /// `start` of `words`.
    ///
    /// # Panics
    ///
    /// Panics if the window extends past `words.len() * 64` bits.
    #[must_use]
    pub fn over(words: &'a [u64], start: usize, len: usize) -> Self {
        assert!(
            start
                .checked_add(len)
                .is_some_and(|e| e <= words.len() * 64),
            "bit window out of range"
        );
        Self {
            words,
            start,
            len,
            pos: 0,
        }
    }

    /// Current position in bits, relative to the window start.
    #[must_use]
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bits remaining.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// The next `width` bits, MSB-first, without advancing. The caller
    /// has checked `width <= 64` and `width <= remaining()`, so the field
    /// lies inside the window and therefore inside `words`.
    #[inline]
    fn peek(&self, width: usize) -> u64 {
        if width == 0 {
            return 0;
        }
        let i = self.start + self.pos;
        let off = i % 64;
        let mut v = self.words[i / 64] << off;
        if off + width > 64 {
            v |= self.words[i / 64 + 1] >> (64 - off);
        }
        v >> (64 - width)
    }

    /// [`peek`](Self::peek), then advance past the field.
    #[inline]
    fn take(&mut self, width: usize) -> u64 {
        let v = self.peek(width);
        self.pos += width;
        v
    }

    /// Zeros before the next one-bit, counted over the next
    /// `min(64, remaining())` bits — all of them if that span is all
    /// zeros.
    #[inline]
    fn leading_zeros_ahead(&self) -> usize {
        let span = self.remaining().min(64);
        self.peek(span).leading_zeros() as usize - (64 - span)
    }

    /// Reads one bit, or `None` at the end of the window.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Reads `width` bits as an MSB-first unsigned integer, or `None` if
    /// `width > 64` or fewer than `width` bits remain.
    #[inline]
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        if width > 64 || width > self.remaining() {
            return None;
        }
        Some(self.take(width))
    }

    /// Reads an Elias-gamma integer (`>= 1`), or `None` if the code is
    /// truncated or its unary prefix exceeds 63 zeros (no valid `u64`
    /// gamma code).
    #[inline]
    pub fn read_gamma(&mut self) -> Option<u64> {
        let zeros = self.leading_zeros_ahead();
        if zeros >= 64 || 2 * zeros + 1 > self.remaining() {
            return None;
        }
        self.pos += zeros;
        Some(self.take(zeros + 1))
    }

    /// Skips `count` bits, or `None` if fewer than `count` remain.
    #[inline]
    pub fn skip(&mut self, count: usize) -> Option<()> {
        if count > self.remaining() {
            return None;
        }
        self.pos += count;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_string() {
        let b = BitString::new();
        assert_eq!(b.len(), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let s = w.finish();
        assert_eq!(s.len(), 7);
        let mut r = BitReader::new(&s);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fixed_width_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        w.write_bits(12345, 17);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(1), Some(0));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(17), Some(12345));
    }

    #[test]
    fn cross_word_boundary() {
        let mut w = BitWriter::new();
        w.write_bits(0x5555, 16);
        w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64); // spans words
        w.write_bits(0x3, 2);
        let s = w.finish();
        assert_eq!(s.len(), 82);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(16), Some(0x5555));
        assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_CAFE_F00D));
        assert_eq!(r.read_bits(2), Some(0x3));
    }

    #[test]
    fn gamma_round_trip() {
        let mut w = BitWriter::new();
        let values = [1u64, 2, 3, 4, 7, 8, 100, 1_000_000, u64::MAX >> 1];
        for &v in &values {
            w.write_gamma(v);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for &v in &values {
            assert_eq!(r.read_gamma(), Some(v));
        }
    }

    #[test]
    fn gamma_lengths() {
        // gamma(1) = "1" (1 bit); gamma(2) = "010" (3); gamma(5) = "00101" (5).
        for (v, len) in [(1u64, 1usize), (2, 3), (5, 5), (8, 7)] {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            assert_eq!(w.finish().len(), len, "gamma({v})");
        }
    }

    #[test]
    fn skip_and_position() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 8);
        w.write_bits(0b101, 3);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.skip(8), Some(()));
        assert_eq!(r.position(), 8);
        assert_eq!(r.skip(4), None);
        assert_eq!(r.position(), 8);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.skip(0), Some(()));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_value_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(16, 4);
    }

    #[test]
    #[should_panic(expected = "x >= 1")]
    fn gamma_zero_rejected() {
        let mut w = BitWriter::new();
        w.write_gamma(0);
    }

    #[test]
    fn read_past_end_is_none() {
        let s = BitString::new();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_gamma(), None);
        assert_eq!(r.skip(1), None);
    }

    #[test]
    fn interleaved_formats() {
        let mut w = BitWriter::new();
        w.write_gamma(42);
        w.write_bit(true);
        w.write_bits(7, 3);
        w.write_gamma(1);
        w.write_bits(0, 13);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_gamma(), Some(42));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bits(3), Some(7));
        assert_eq!(r.read_gamma(), Some(1));
        assert_eq!(r.read_bits(13), Some(0));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn windowed_reader_matches_whole_string() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        w.write_gamma(99);
        w.write_bits(0x1F, 5);
        let s = w.finish();
        // Window over the gamma + trailing field only.
        let mut r = BitReader::over(s.words(), 16, s.len() - 16);
        assert_eq!(r.read_gamma(), Some(99));
        assert_eq!(r.read_bits(5), Some(0x1F));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn windowed_reader_stops_at_window_end() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let s = w.finish();
        let mut r = BitReader::over(s.words(), 3, 10);
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn extend_from_aligned_and_unaligned() {
        for first_bits in [0usize, 1, 13, 63, 64, 65, 127, 128, 200] {
            for second_bits in [0usize, 1, 7, 64, 100, 130] {
                let mut wa = BitWriter::new();
                let mut wb = BitWriter::new();
                let mut whole = BitWriter::new();
                for i in 0..first_bits {
                    let b = (i * 7 + 1).is_multiple_of(3);
                    wa.write_bit(b);
                    whole.write_bit(b);
                }
                for i in 0..second_bits {
                    let b = (i * 5 + 2).is_multiple_of(3);
                    wb.write_bit(b);
                    whole.write_bit(b);
                }
                let mut a = wa.finish();
                a.extend_from(&wb.finish());
                assert_eq!(a, whole.finish(), "{first_bits}+{second_bits}");
            }
        }
    }

    #[test]
    fn raw_parts_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0xFEED, 16);
        w.write_gamma(12);
        let s = w.finish();
        let rebuilt = BitString::from_raw_parts(s.words().to_vec(), s.len());
        assert_eq!(rebuilt, s);
    }

    #[test]
    #[should_panic(expected = "dirty tail")]
    fn raw_parts_rejects_dirty_tail() {
        let _ = BitString::from_raw_parts(vec![u64::MAX], 5);
    }

    #[test]
    fn reads_report_truncation() {
        let mut w = BitWriter::new();
        w.write_bits(0, 3); // looks like the start of a gamma unary prefix
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_gamma(), None);
        let mut r2 = BitReader::new(&s);
        assert_eq!(r2.read_bits(4), None);
        assert_eq!(r2.read_bits(3), Some(0));
        assert_eq!(r2.read_bit(), None);
    }

    /// The bit-at-a-time implementation the word-level code replaced,
    /// kept as the reference every word-level read and write is checked
    /// against.
    mod bitwise {
        pub struct Writer {
            pub words: Vec<u64>,
            pub len: usize,
        }

        impl Writer {
            pub fn new() -> Self {
                Self {
                    words: Vec::new(),
                    len: 0,
                }
            }

            pub fn push_bit(&mut self, b: bool) {
                if self.len.is_multiple_of(64) {
                    self.words.push(0);
                }
                if b {
                    let w = self.words.last_mut().expect("just ensured capacity");
                    *w |= 1u64 << (63 - (self.len % 64));
                }
                self.len += 1;
            }

            pub fn write_bits(&mut self, value: u64, width: usize) {
                for i in (0..width).rev() {
                    self.push_bit((value >> i) & 1 == 1);
                }
            }

            pub fn write_gamma(&mut self, x: u64) {
                let bits = 64 - x.leading_zeros() as usize;
                for _ in 0..bits - 1 {
                    self.push_bit(false);
                }
                self.write_bits(x, bits);
            }
        }

        pub struct Reader<'a> {
            pub words: &'a [u64],
            pub start: usize,
            pub len: usize,
            pub pos: usize,
        }

        impl Reader<'_> {
            pub fn try_read_bit(&mut self) -> Option<bool> {
                if self.pos >= self.len {
                    return None;
                }
                let i = self.start + self.pos;
                self.pos += 1;
                Some((self.words[i / 64] >> (63 - (i % 64))) & 1 == 1)
            }

            pub fn try_read_bits(&mut self, width: usize) -> Option<u64> {
                if width > 64 || self.len - self.pos < width {
                    return None;
                }
                let mut v = 0u64;
                for _ in 0..width {
                    v = (v << 1) | u64::from(self.try_read_bit()?);
                }
                Some(v)
            }

            pub fn try_read_gamma(&mut self) -> Option<u64> {
                let mut zeros = 0usize;
                while !self.try_read_bit()? {
                    zeros += 1;
                    if zeros > 63 {
                        return None;
                    }
                }
                let mut v = 1u64;
                for _ in 0..zeros {
                    v = (v << 1) | u64::from(self.try_read_bit()?);
                }
                Some(v)
            }
        }
    }

    fn reference(words: &[u64], start: usize, len: usize) -> bitwise::Reader<'_> {
        bitwise::Reader {
            words,
            start,
            len,
            pos: 0,
        }
    }

    fn random_words(rng: &mut StdRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.gen()).collect()
    }

    /// A random value of exactly `bits` significant bits (`1..=64`).
    fn value_of_bit_len(rng: &mut StdRng, bits: usize) -> u64 {
        let top = 1u64 << (bits - 1);
        top | (rng.gen::<u64>() & (top - 1))
    }

    #[test]
    fn read_bits_matches_bitwise_at_every_width_and_offset() {
        let mut rng = StdRng::seed_from_u64(0xB175);
        for _ in 0..4 {
            let words = random_words(&mut rng, 4);
            for start in 0..128usize {
                for width in 0..=64usize {
                    // A window running to the end of the slice, and one
                    // whose slice ends in the word the field ends in.
                    let tight = (start + width).div_ceil(64).max(1);
                    for slice in [&words[..], &words[..tight]] {
                        let len = slice.len() * 64 - start;
                        let want = reference(slice, start, len).try_read_bits(width);
                        assert!(want.is_some());
                        let mut r = BitReader::over(slice, start, len);
                        assert_eq!(r.read_bits(width), want, "start {start} width {width}");
                        assert_eq!(r.position(), width);
                        // A window exactly one field long: the field is
                        // readable, one more bit is not.
                        let mut r = BitReader::over(slice, start, width);
                        assert_eq!(r.read_bits(width + 1), None);
                        assert_eq!(r.position(), 0);
                        assert_eq!(r.read_bits(width), want);
                        assert_eq!(r.read_bit(), None);
                    }
                }
            }
        }
    }

    #[test]
    fn read_gamma_matches_bitwise_at_every_bit_length() {
        let mut rng = StdRng::seed_from_u64(0x6A);
        for bits in 1..=64usize {
            for lead in [0usize, 1, 31, 63, 64, 65, 100] {
                let x = value_of_bit_len(&mut rng, bits);
                let mut w = bitwise::Writer::new();
                for _ in 0..lead {
                    w.push_bit(false);
                }
                w.write_gamma(x);
                let mut r = BitReader::over(&w.words, lead, w.len - lead);
                assert_eq!(r.read_gamma(), Some(x), "bits {bits} lead {lead}");
                assert_eq!(r.remaining(), 0);
                assert_eq!(
                    reference(&w.words, lead, w.len - lead).try_read_gamma(),
                    Some(x)
                );
            }
        }
    }

    #[test]
    fn read_gamma_matches_bitwise_at_every_cut() {
        let mut rng = StdRng::seed_from_u64(0xC07);
        for bits in 1..=64usize {
            let x = value_of_bit_len(&mut rng, bits);
            let lead = rng.gen_range(0..64usize);
            let mut w = bitwise::Writer::new();
            for _ in 0..lead {
                w.push_bit(rng.gen_bool(0.5));
            }
            w.write_gamma(x);
            let code = w.len - lead;
            for cut in 0..=code {
                let want = reference(&w.words, lead, cut).try_read_gamma();
                assert_eq!(want.is_some(), cut == code);
                let mut r = BitReader::over(&w.words, lead, cut);
                assert_eq!(r.read_gamma(), want, "bits {bits} cut {cut}");
            }
        }
    }

    #[test]
    fn read_gamma_prefix_of_63_zeros_is_the_last_valid_code() {
        // 63 zeros, then a one and 63 value bits: the largest gamma code.
        let x = (1u64 << 63) | 0x1234_5678_9ABC_DEF0;
        let mut w = bitwise::Writer::new();
        w.write_bits(0, 5);
        w.write_gamma(x);
        let mut r = BitReader::over(&w.words, 5, w.len - 5);
        assert_eq!(r.read_gamma(), Some(x));
        assert_eq!(reference(&w.words, 5, w.len - 5).try_read_gamma(), Some(x));

        // 64 zeros, then a one: no u64 has this code.
        let mut w = bitwise::Writer::new();
        w.write_bits(0, 64);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        assert_eq!(reference(&w.words, 0, w.len).try_read_gamma(), None);
        let mut r = BitReader::over(&w.words, 0, w.len);
        assert_eq!(r.read_gamma(), None);
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn writes_match_bitwise_on_random_field_sequences() {
        let mut rng = StdRng::seed_from_u64(0x3717E);
        for _ in 0..300 {
            let mut want = bitwise::Writer::new();
            let mut got = BitWriter::new();
            for _ in 0..rng.gen_range(0..40) {
                if rng.gen_bool(0.3) {
                    let bits = rng.gen_range(1..=64);
                    let x = value_of_bit_len(&mut rng, bits);
                    want.write_gamma(x);
                    got.write_gamma(x);
                } else {
                    let width = rng.gen_range(0..=64usize);
                    let v = rng.gen::<u64>().checked_shr(64 - width as u32).unwrap_or(0);
                    want.write_bits(v, width);
                    got.write_bits(v, width);
                }
            }
            let got = got.finish();
            assert_eq!(got.words(), &want.words[..]);
            assert_eq!(got.len(), want.len);
            // Canonical form: the tail past `len` is zero.
            let _ = BitString::from_raw_parts(got.words().to_vec(), got.len());
        }
    }

    #[test]
    fn extend_from_window_matches_bitwise_copy() {
        let mut rng = StdRng::seed_from_u64(0xE7);
        let words = random_words(&mut rng, 6);
        for _ in 0..500 {
            let mut head = BitWriter::new();
            let head_bits = rng.gen_range(0..130usize);
            let mut want = bitwise::Writer::new();
            for _ in 0..head_bits {
                let b = rng.gen_bool(0.5);
                head.write_bit(b);
                want.push_bit(b);
            }
            let start = rng.gen_range(0..6 * 64);
            let len = rng.gen_range(0..=6 * 64 - start);
            let mut r = reference(&words, start, len);
            for _ in 0..len {
                want.push_bit(r.try_read_bit().expect("inside the window"));
            }
            let mut got = head.finish();
            got.extend_from_window(&words, start, len);
            assert_eq!(got.words(), &want.words[..], "{head_bits}+{start}..{len}");
            assert_eq!(got.len(), want.len);
        }
    }
}
