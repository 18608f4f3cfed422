//! The fat/thin threshold engine shared by Theorems 3 and 4.
//!
//! Both labeling schemes of Section 4 are the same algorithm with different
//! degree thresholds `τ(n)`:
//!
//! * vertices of degree `≥ τ` are **fat**; they receive identifiers
//!   `0 … k−1` (`k` = number of fat vertices) and their label carries a
//!   `k`-bit adjacency bitmap *over the fat vertices only* (Figure 1b: fat
//!   nodes do not store adjacency to thin nodes);
//! * the remaining **thin** vertices receive identifiers `k … n−1` and
//!   their label carries the full list of their neighbours' identifiers.
//!
//! Decoding a pair: if either label is thin, scan its neighbour list for
//! the other identifier; if both are fat, test one bit of the bitmap.
//!
//! This module owns the format: the encoder, and the one checked view
//! of a label ([`ThresholdLabel`]) that every reader goes through — the
//! decode rule ([`try_adjacent`]), the one-sided answers a partition's
//! store gives from the endpoint it owns, the prelude stub, and the
//! partition [`cut`]. A label that declares more than it carries
//! decodes to `None`, never a panic.
//!
//! ## Label format
//!
//! ```text
//! prelude: 6-bit id width w, w-bit scheme identifier
//! 1 bit:   fat flag
//! fat:     gamma(k+1), then k bitmap bits (bit i = adjacent to fat id i)
//! thin:    gamma(deg+1), then deg × w-bit neighbour identifiers
//! ```

use pl_graph::degree::vertices_by_degree_desc;
use pl_graph::{Graph, VertexId};

use crate::bits::{BitReader, BitWriter};
use crate::label::{LabelRef, Labeling, LabelingBuilder};
use crate::scheme::{
    id_width, list_contains, read_prelude, write_prelude, AdjacencyDecoder, AdjacencyScheme,
};

/// The fat/thin scheme with an explicitly chosen degree threshold.
///
/// [`SparseScheme`](crate::sparse::SparseScheme) and
/// [`PowerLawScheme`](crate::powerlaw::PowerLawScheme) wrap this engine
/// with the τ policies of Theorems 3 and 4; using it directly is how the
/// threshold-sensitivity experiment sweeps τ.
///
/// # Example
///
/// ```
/// use pl_labeling::threshold::ThresholdScheme;
/// use pl_labeling::scheme::{AdjacencyScheme, AdjacencyDecoder};
///
/// let g = pl_graph::builder::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]);
/// let scheme = ThresholdScheme::with_tau(3); // only vertex 0 is fat
/// let labeling = scheme.encode(&g);
/// let dec = scheme.decoder();
/// assert!(dec.adjacent(labeling.label(0), labeling.label(1)));
/// assert!(!dec.adjacent(labeling.label(1), labeling.label(4)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdScheme {
    tau: usize,
}

impl ThresholdScheme {
    /// A scheme whose fat vertices are exactly those of degree `≥ tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0` (every vertex would be fat *and* the threshold
    /// would not be "the lowest possible degree of a fat vertex").
    #[must_use]
    pub fn with_tau(tau: usize) -> Self {
        assert!(tau >= 1, "threshold must be at least 1");
        Self { tau }
    }

    /// The configured threshold.
    #[must_use]
    pub fn tau(&self) -> usize {
        self.tau
    }
}

/// Encoder statistics useful for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdStats {
    /// The threshold used.
    pub tau: usize,
    /// Number of fat vertices (`k`).
    pub fat_count: usize,
    /// Maximum label size among fat vertices, in bits (0 if none).
    pub max_fat_bits: usize,
    /// Maximum label size among thin vertices, in bits (0 if none).
    pub max_thin_bits: usize,
}

/// Encodes `g` with threshold `tau`, returning the labeling and stats.
#[must_use]
pub fn encode_with_stats(g: &Graph, tau: usize) -> (Labeling, ThresholdStats) {
    encode_with_stats_threads(g, tau, 1)
}

/// Times `f`, recording the duration both into the global
/// `plab_encode_phase_ns{phase=...}` histogram family and — when tracing
/// is enabled — as a completed trace span named `trace_name`.
///
/// A helper (not the `span!` macro) because the metric label and span
/// name differ, and because `record_complete` sidesteps the macro's
/// per-call-site interning cache, which a shared helper would defeat.
fn timed_phase<T>(phase: &'static str, trace_name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = pl_obs::trace::now_ns();
    let out = f();
    let dur = pl_obs::trace::now_ns().saturating_sub(start);
    pl_obs::global()
        .histogram_with("plab_encode_phase_ns", &[("phase", phase)])
        .record(dur);
    pl_obs::trace::record_complete(trace_name, start, dur, 0, 0);
    out
}

/// Records summary label-size signals of one finished encode into the
/// global registry: a high-water `plab_encode_max_label_bits` gauge, the
/// last fat count, and a run counter. The per-label distribution goes
/// into the `plab_encode_label_bits{kind}` histograms during the stats
/// scan. These are the signals the paper's space claims are checked
/// against (`OBSERVABILITY.md`).
fn record_label_size_metrics(stats: &ThresholdStats) {
    let reg = pl_obs::global();
    reg.counter("plab_encode_runs_total").inc();
    reg.gauge("plab_encode_max_label_bits")
        .set_max(stats.max_fat_bits.max(stats.max_thin_bits) as i64);
    reg.gauge("plab_encode_fat_count")
        .set(stats.fat_count as i64);
}

/// Writes one vertex's label bits under a fixed fat/thin assignment — the
/// unit of work both the sequential and the parallel encoder share, so
/// chunked encoding is bit-identical to a single pass by construction.
/// `bitmap` is scratch space for a fat label's bitmap words, reused
/// across calls.
fn encode_vertex(
    bw: &mut BitWriter,
    g: &Graph,
    v: VertexId,
    w: usize,
    fat_count: usize,
    scheme_id: &[u64],
    bitmap: &mut Vec<u64>,
) {
    let sid = scheme_id[v as usize];
    let fat = (sid as usize) < fat_count;
    write_prelude(bw, w, sid);
    bw.write_bit(fat);
    if fat {
        bw.write_gamma(fat_count as u64 + 1);
        // Fat id `i` is bit `63 − i % 64` of word `i / 64`: the label's
        // own MSB-first layout, so each word is written whole.
        bitmap.clear();
        bitmap.resize(fat_count.div_ceil(64), 0);
        for &u in g.neighbors(v) {
            let uid = scheme_id[u as usize] as usize;
            if uid < fat_count {
                bitmap[uid / 64] |= 1 << (63 - uid % 64);
            }
        }
        for (i, &word) in bitmap.iter().enumerate() {
            let width = (fat_count - 64 * i).min(64);
            bw.write_bits(word >> (64 - width), width);
        }
    } else {
        bw.write_gamma(g.degree(v) as u64 + 1);
        for &u in g.neighbors(v) {
            bw.write_bits(scheme_id[u as usize], w);
        }
    }
}

/// Encodes `g` with threshold `tau` on `threads` worker threads.
///
/// The vertex range is split into contiguous chunks; each worker encodes
/// its chunk into a private [`LabelingBuilder`] over the shared read-only
/// fat/thin assignment, and the chunks are stitched in vertex order. The
/// result is bit-identical to the single-threaded encoding.
///
/// # Panics
///
/// Panics if `tau == 0` or `threads == 0`.
#[must_use]
pub fn encode_with_stats_threads(
    g: &Graph,
    tau: usize,
    threads: usize,
) -> (Labeling, ThresholdStats) {
    assert!(tau >= 1, "threshold must be at least 1");
    assert!(threads >= 1, "need at least one encoder thread");
    let n = g.vertex_count();
    let w = id_width(n);

    // Fat vertices first (degree descending), then thin.
    let order = timed_phase("degree_scan", "encode.degree_scan", || {
        vertices_by_degree_desc(g)
    });
    let (fat_count, scheme_id) =
        timed_phase("threshold_partition", "encode.threshold_partition", || {
            let fat_count = order.partition_point(|&v| g.degree(v) >= tau);
            let mut scheme_id = vec![0u64; n];
            for (i, &v) in order.iter().enumerate() {
                scheme_id[v as usize] = i as u64;
            }
            (fat_count, scheme_id)
        });

    let threads = threads.min(n).max(1);
    let chunk = n.div_ceil(threads);
    let scheme_id = &scheme_id;
    let encode_chunk = |lo: usize, hi: usize, t: usize| {
        let start = pl_obs::trace::now_ns();
        let mut b = LabelingBuilder::new();
        let mut bitmap = Vec::new();
        for v in lo..hi {
            b.push_with(|bw| {
                encode_vertex(bw, g, v as VertexId, w, fat_count, scheme_id, &mut bitmap);
            });
        }
        let dur = pl_obs::trace::now_ns().saturating_sub(start);
        pl_obs::global()
            .histogram("plab_encode_chunk_ns")
            .record(dur);
        pl_obs::trace::record_complete("encode.chunk", start, dur, t as u64, (hi - lo) as u64);
        b
    };
    let builder = timed_phase("fat_thin_encode", "encode.fat_thin_encode", || {
        if threads == 1 {
            encode_chunk(0, n, 0)
        } else {
            let chunks = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let lo = n.min(t * chunk);
                        let hi = n.min(lo + chunk);
                        s.spawn(move || encode_chunk(lo, hi, t))
                    })
                    .collect();
                handles
                    .into_iter()
                    // lint: panic-ok(a worker panics only on an encoder bug; re-raise it rather than return a partial labeling)
                    .map(|h| h.join().expect("encoder worker panicked"))
                    .collect::<Vec<_>>()
            });
            let mut it = chunks.into_iter();
            let mut b = it.next().expect("at least one chunk"); // lint: panic-ok(threads ≥ 1, so one chunk was spawned per thread)
            for c in it {
                b.merge(&c);
            }
            b
        }
    });
    debug_assert_eq!(builder.len(), n);
    let labeling = timed_phase("arena_pack", "encode.arena_pack", || builder.finish());

    let stats = timed_phase("stats_scan", "encode.stats_scan", || {
        let reg = pl_obs::global();
        let fat_bits_hist = reg.histogram_with("plab_encode_label_bits", &[("kind", "fat")]);
        let thin_bits_hist = reg.histogram_with("plab_encode_label_bits", &[("kind", "thin")]);
        let mut max_fat = 0usize;
        let mut max_thin = 0usize;
        for (v, &sid) in scheme_id.iter().enumerate() {
            let bits = labeling.label(v as u32).bit_len();
            if (sid as usize) < fat_count {
                max_fat = max_fat.max(bits);
                fat_bits_hist.record(bits as u64);
            } else {
                max_thin = max_thin.max(bits);
                thin_bits_hist.record(bits as u64);
            }
        }
        ThresholdStats {
            tau,
            fat_count,
            max_fat_bits: max_fat,
            max_thin_bits: max_thin,
        }
    });
    record_label_size_metrics(&stats);
    (labeling, stats)
}

impl AdjacencyScheme for ThresholdScheme {
    type Decoder = ThresholdDecoder;

    fn name(&self) -> &'static str {
        "threshold"
    }

    fn encode(&self, g: &Graph) -> Labeling {
        encode_with_stats(g, self.tau).0
    }
}

/// Decoder for the fat/thin label format. Stateless; answers through
/// [`try_adjacent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThresholdDecoder;

impl AdjacencyDecoder for ThresholdDecoder {
    #[inline]
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        try_adjacent(a, b)
    }
}

/// The decode rule on two raw labels: [`ThresholdLabel::try_adjacent`],
/// and `None` also when either label has no valid prelude.
#[must_use]
#[inline]
pub fn try_adjacent(a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
    ThresholdLabel::parse(a)?.try_adjacent(&ThresholdLabel::parse(b)?)
}

/// A threshold label with its prelude read: id width, scheme id and
/// fat flag. Every read behind it is checked, because labels are
/// untrusted once a `.plab` leaves the encoder.
#[derive(Debug, Clone)]
pub struct ThresholdLabel<'a> {
    label: LabelRef<'a>,
    /// Positioned just past the fat flag.
    body: BitReader<'a>,
    width: usize,
    id: u64,
    fat: bool,
}

impl<'a> ThresholdLabel<'a> {
    /// Reads `label`'s prelude ([`read_prelude`]) and fat flag; `None`
    /// if the label is too short to carry them or declares id width 0.
    #[must_use]
    #[inline]
    pub fn parse(label: LabelRef<'a>) -> Option<Self> {
        let mut body = label.reader();
        let (width, id) = read_prelude(&mut body)?;
        let fat = body.read_bit()?;
        Some(Self {
            label,
            body,
            width,
            id,
            fat,
        })
    }

    /// The scheme id.
    #[must_use]
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Is this a fat label (a bitmap over the fat ids)?
    #[must_use]
    #[inline]
    pub fn is_fat(&self) -> bool {
        self.fat
    }

    /// The prelude stub: id width, scheme id and fat flag, nothing
    /// after, viewed in place as the label's first bits. A stub parses
    /// to the same id and flag, and gives no one-sided answer but the
    /// same-id one. A stub of a stub is the same stub.
    #[must_use]
    pub fn stub(&self) -> LabelRef<'a> {
        self.label.prefix(self.body.position())
    }

    /// What this label alone says about its pair with `other`. A thin
    /// label scans its neighbour list for `other`'s id; a fat label
    /// reads `other`'s bit in its bitmap when `other` is fat too, and
    /// ids at or past its `k` are never adjacent. The same id is never
    /// adjacent. `None` when this label cannot tell: a fat label facing
    /// a thin one (fat labels store no thin neighbours, Fig. 1b), a
    /// prelude stub, or a label declaring more than it carries.
    #[must_use]
    #[inline]
    pub fn one_sided(&self, other: &ThresholdLabel<'_>) -> Option<bool> {
        if self.id == other.id {
            return Some(false);
        }
        let mut r = self.body.clone();
        if !self.fat {
            return list_contains(&mut r, self.width, other.id);
        }
        if !other.fat {
            return None;
        }
        let k = r.read_gamma()? - 1;
        if k > r.remaining() as u64 {
            return None;
        }
        if other.id >= k {
            return Some(false);
        }
        r.skip(other.id as usize)?;
        r.read_bit()
    }

    /// The decode rule of Theorems 3 and 4: the first thin endpoint's
    /// list decides, and a fat–fat pair is one bit of `self`'s bitmap.
    /// `None` when that label cannot answer (see
    /// [`one_sided`](Self::one_sided)).
    #[must_use]
    #[inline]
    pub fn try_adjacent(&self, other: &ThresholdLabel<'_>) -> Option<bool> {
        // One call site, so callers inline a single copy of the decode;
        // two copies measured slower in the store.
        let (decider, asked) = if self.fat && !other.fat {
            (other, self)
        } else {
            (self, other)
        };
        decider.one_sided(asked)
    }
}

/// Cuts `labeling` to one partition's share: the label of each vertex
/// `v` with `owns(v)` is copied whole from the arena, bit for bit, and
/// every other label is cut to its [stub](ThresholdLabel::stub).
///
/// # Errors
///
/// The first vertex whose label has no valid prelude to cut.
pub fn cut(labeling: &Labeling, mut owns: impl FnMut(u32) -> bool) -> Result<Labeling, u32> {
    let mut builder = LabelingBuilder::new();
    for (v, label) in labeling.iter() {
        if owns(v) {
            builder.push_ref(label);
        } else {
            builder.push_ref(ThresholdLabel::parse(label).ok_or(v)?.stub());
        }
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_graph::builder::from_edges;
    use pl_graph::GraphBuilder;

    fn check_all_pairs(g: &Graph, tau: usize) {
        let (labeling, _) = encode_with_stats(g, tau);
        let dec = ThresholdDecoder;
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    dec.adjacent(labeling.label(u), labeling.label(v)),
                    g.has_edge(u, v),
                    "pair ({u}, {v}) with tau = {tau}"
                );
            }
        }
    }

    #[test]
    fn correct_on_small_graphs_for_all_taus() {
        let graphs = [
            from_edges(1, []),
            from_edges(2, [(0, 1)]),
            from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
            from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)]),
        ];
        for g in &graphs {
            for tau in 1..=6 {
                check_all_pairs(g, tau);
            }
        }
    }

    #[test]
    fn all_fat_equals_bitmap_scheme() {
        // tau = 1 makes every non-isolated vertex fat.
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let (_, stats) = encode_with_stats(&g, 1);
        assert_eq!(stats.fat_count, 5);
        check_all_pairs(&g, 1);
    }

    #[test]
    fn all_thin_equals_adjacency_lists() {
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3)]);
        let (_, stats) = encode_with_stats(&g, 100);
        assert_eq!(stats.fat_count, 0);
        check_all_pairs(&g, 100);
    }

    #[test]
    fn isolated_vertices_are_thin_and_harmless() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        let g = b.build();
        check_all_pairs(&g, 1);
        check_all_pairs(&g, 2);
    }

    #[test]
    fn stats_fat_count_matches_degrees() {
        let g = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]);
        // Degrees: 0 -> 3, 1 -> 2, 2 -> 2, 3 -> 1, 4 -> 1, 5 -> 1.
        let (_, stats) = encode_with_stats(&g, 2);
        assert_eq!(stats.fat_count, 3);
        let (_, stats) = encode_with_stats(&g, 3);
        assert_eq!(stats.fat_count, 1);
        let (_, stats) = encode_with_stats(&g, 4);
        assert_eq!(stats.fat_count, 0);
    }

    #[test]
    fn fat_labels_do_not_grow_with_thin_neighbors() {
        // A hub with many thin neighbours: its label must stay ~k bits,
        // not ~deg·w bits (the core trick of the paper's Figure 1b).
        let n = 1000;
        let g = pl_graph::builder::from_edges(n, (1..n as u32).map(|i| (0, i)));
        let (labeling, stats) = encode_with_stats(&g, 2);
        assert_eq!(stats.fat_count, 1);
        let hub_bits = labeling.label(0).bit_len();
        assert!(
            hub_bits < 64,
            "hub label is {hub_bits} bits; should be O(log n) since k = 1"
        );
        // Thin labels: prelude + 1 neighbour id.
        let leaf_bits = labeling.label(1).bit_len();
        assert!(leaf_bits < 40, "leaf label {leaf_bits} bits");
    }

    #[test]
    fn larger_random_graph_sampled_pairs() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut b = GraphBuilder::new(300);
        for _ in 0..900 {
            let u = rng.gen_range(0..300u32);
            let v = rng.gen_range(0..300u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        for tau in [1usize, 3, 8, 50] {
            let (labeling, _) = encode_with_stats(&g, tau);
            let dec = ThresholdDecoder;
            for _ in 0..2000 {
                let u = rng.gen_range(0..300u32);
                let v = rng.gen_range(0..300u32);
                assert_eq!(
                    dec.adjacent(labeling.label(u), labeling.label(v)),
                    g.has_edge(u, v)
                );
            }
        }
    }

    #[test]
    fn self_query_is_false() {
        let g = from_edges(3, [(0, 1), (1, 2)]);
        let (labeling, _) = encode_with_stats(&g, 2);
        let dec = ThresholdDecoder;
        for v in 0..3u32 {
            assert!(!dec.adjacent(labeling.label(v), labeling.label(v)));
        }
    }

    fn parsed(l: LabelRef<'_>) -> ThresholdLabel<'_> {
        ThresholdLabel::parse(l).expect("valid prelude")
    }

    #[test]
    fn fat_contains_covers_all_fat_vertices() {
        // Every vertex of star+cycle(25) has degree ≥ 3, so all 25 are fat.
        let n = 25u32;
        let spokes = (1..n).map(|i| (0, i));
        let cycle = (1..n).map(|i| (i, if i + 1 == n { 1 } else { i + 1 }));
        let g = from_edges(n as usize, spokes.chain(cycle));
        let labeling = ThresholdScheme::with_tau(3).encode(&g);
        let hub = parsed(labeling.label(0));
        assert!(hub.is_fat());
        // The hub (scheme id 0, highest degree) is adjacent to every other
        // fat vertex and never to itself.
        assert_eq!(hub.id(), 0);
        assert_eq!(hub.one_sided(&hub), Some(false));
        for v in 1..n {
            let other = parsed(labeling.label(v));
            assert!(other.is_fat());
            assert_eq!(
                hub.one_sided(&other),
                Some(true),
                "hub should see vertex {v}"
            );
        }
        // A fat id at or past k = 25 is never adjacent.
        let mut w = BitWriter::new();
        write_prelude(&mut w, 5, 25);
        w.write_bit(true);
        let beyond = crate::label::Label::from(w);
        assert_eq!(
            hub.one_sided(&parsed(beyond.view())),
            Some(false),
            "out-of-range id is never adjacent"
        );
    }

    #[test]
    fn thin_label_is_not_read_as_fat() {
        let g = from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let labeling = ThresholdScheme::with_tau(2).encode(&g);
        let hub = parsed(labeling.label(0));
        // Vertex 1 has degree 1 < 2: thin, and it answers from its list.
        let thin = parsed(labeling.label(1));
        assert!(!thin.is_fat());
        assert_eq!(thin.one_sided(&hub), Some(true));
        assert_eq!(thin.one_sided(&parsed(labeling.label(2))), Some(false));
        // A fat bitmap holds no thin neighbours, so the hub cannot tell.
        assert_eq!(hub.one_sided(&thin), None);
        assert_eq!(
            try_adjacent(labeling.label(0), labeling.label(1)),
            Some(true)
        );
    }

    #[test]
    fn stubs_parse_but_answer_nothing_and_cut_keeps_owned_bits() {
        let g = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]);
        let labeling = ThresholdScheme::with_tau(2).encode(&g);
        let cut_l = cut(&labeling, |v| v % 2 == 0).expect("valid labels");
        for (v, full) in labeling.iter() {
            let kept = cut_l.label(v);
            let (f, k) = (parsed(full), parsed(kept));
            assert_eq!((k.id(), k.is_fat()), (f.id(), f.is_fat()));
            if v % 2 == 0 {
                assert_eq!(kept, full);
            } else {
                assert_eq!(kept, f.stub());
                assert_eq!(k.stub(), kept, "a stub of a stub is the same stub");
                for (_, other) in labeling.iter() {
                    let o = parsed(other);
                    let want = (o.id() == k.id()).then_some(false);
                    assert_eq!(k.one_sided(&o), want);
                }
            }
        }
        // An empty label has no prelude to cut.
        let bad = Labeling::new(vec![crate::label::Label::from(BitWriter::new())]);
        assert_eq!(cut(&bad, |_| false), Err(0));
        assert_eq!(cut(&bad, |_| true).map(|l| l.len()), Ok(1));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tau_rejected() {
        let _ = ThresholdScheme::with_tau(0);
    }

    #[test]
    fn threaded_encode_is_bit_identical() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let mut b = GraphBuilder::new(257);
        for _ in 0..700 {
            let u = rng.gen_range(0..257u32);
            let v = rng.gen_range(0..257u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        for tau in [1usize, 4, 20] {
            let (seq, seq_stats) = encode_with_stats(&g, tau);
            for threads in [2usize, 3, 7, 64, 1000] {
                let (par, par_stats) = encode_with_stats_threads(&g, tau, threads);
                assert_eq!(par, seq, "tau {tau}, {threads} threads");
                assert_eq!(
                    par.to_bytes(),
                    seq.to_bytes(),
                    "tau {tau}, {threads} threads"
                );
                assert_eq!(par_stats, seq_stats);
            }
        }
    }

    #[test]
    fn encode_records_phase_metrics_and_label_histograms() {
        use pl_obs::MetricValue;
        let reg = pl_obs::global();
        let runs_before = reg.counter("plab_encode_runs_total").get();
        let g = from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]);
        let (_, stats) = encode_with_stats_threads(&g, 2, 2);
        assert!(reg.counter("plab_encode_runs_total").get() > runs_before);
        assert!(reg.gauge("plab_encode_max_label_bits").get() >= stats.max_thin_bits as i64);

        let samples = reg.samples();
        let phases: Vec<&str> = samples
            .iter()
            .filter(|s| s.name == "plab_encode_phase_ns")
            .flat_map(|s| s.labels.iter().map(|(_, v)| v.as_str()))
            .collect();
        for phase in [
            "degree_scan",
            "threshold_partition",
            "fat_thin_encode",
            "arena_pack",
            "stats_scan",
        ] {
            assert!(phases.contains(&phase), "missing phase {phase}: {phases:?}");
        }
        let label_bits_count: u64 = samples
            .iter()
            .filter(|s| s.name == "plab_encode_label_bits")
            .map(|s| match &s.value {
                MetricValue::Histogram(h) => h.count(),
                _ => 0,
            })
            .sum();
        assert!(
            label_bits_count >= 6,
            "got {label_bits_count} label-bit samples"
        );
    }

    #[test]
    fn encode_emits_chunk_trace_events() {
        pl_obs::set_tracing(true);
        let g = from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (6, 7)]);
        let _ = encode_with_stats_threads(&g, 2, 4);
        pl_obs::set_tracing(false);
        let events = pl_obs::trace::drain();
        let chunks: Vec<_> = events.iter().filter(|e| e.name == "encode.chunk").collect();
        assert!(!chunks.is_empty(), "events: {events:?}");
        // Other tests' encodes may land in the same global ring while
        // tracing is on, so assert coverage as a lower bound.
        let total: u64 = chunks.iter().map(|e| e.b).sum();
        assert!(
            total >= 8,
            "chunk sizes must cover all 8 vertices, got {total}"
        );
        assert!(events.iter().any(|e| e.name == "encode.fat_thin_encode"));
        assert!(events.iter().any(|e| e.name == "encode.arena_pack"));
    }

    #[test]
    fn threaded_encode_handles_tiny_graphs() {
        for n in [0usize, 1, 2, 5] {
            let g = GraphBuilder::new(n).build();
            let (seq, _) = encode_with_stats(&g, 1);
            let (par, _) = encode_with_stats_threads(&g, 1, 8);
            assert_eq!(par.to_bytes(), seq.to_bytes(), "n = {n}");
        }
    }
}
