//! The in-memory label store.
//!
//! The labeling is loaded once as a single contiguous bit arena
//! ([`pl_labeling::Labeling`]) and queried in place: `label(v)` hands out
//! a borrowed [`LabelRef`] window, so the query path performs zero heap
//! allocation. Labels are immutable after load and the store holds no
//! other state, so reads need no synchronization at all — any number of
//! connection threads query concurrently, and there is no lock to
//! contend on or poison.
//!
//! A fat vertex's label is a `k`-bit adjacency bitmap over the fat
//! vertices, prefixed by a gamma-coded `k` (Theorem 4 picks τ so that
//! `k ≈ (C'n/log n)^{1/α}`). A fat–fat query is therefore one gamma read
//! plus one bit read at a known offset of the arena — there is nothing
//! to decode ahead of time or to cache.
//!
//! Labels are untrusted once a `.plab` leaves the encoder: the threshold
//! fast path reads them with checked (non-panicking) bit reads, and a
//! label that declares more content than it carries answers
//! [`StoreError::Malformed`] for that query instead of killing the
//! connection thread.
//!
//! # Partial stores
//!
//! A store marked [partial](LabelStore::with_partial) holds a cluster
//! partition cut by `plab cluster split`: vertices this backend *owns*
//! carry their full, bit-identical label, while every other vertex
//! carries only a prelude stub (id width + scheme id + fat flag, nothing
//! after). A stub is enough to answer from the *other* endpoint's side —
//! a thin owned label scans its own neighbour list for the stub's scheme
//! id, and a fat owned bitmap is tested against it — so the partial
//! query path tries both sides with checked reads and only reports
//! [`StoreError::NotOwned`] when neither endpoint's content is present
//! (fat–fat with both bitmaps missing, or a thin endpoint stubbed with
//! the other endpoint fat). The router turns `NotOwned` into a re-ask at
//! a replica owning the other endpoint.

use std::time::Instant;

use pl_labeling::bits::BitReader;
use pl_labeling::codec::{decode_adjacent, decode_distance, SchemeTag, TaggedLabeling};
use pl_labeling::LabelRef;
use pl_obs::MetricsRegistry;

/// Store construction options; there are none. Kept only because the
/// `loadbench` benchmark constructs one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreConfig {}

/// A query the store cannot answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// A vertex id was `≥ n`.
    OutOfRange,
    /// The loaded scheme cannot answer this query kind.
    Unsupported,
    /// A label involved in the query was corrupt (declared more content
    /// than it carries). The store stays up; only this query fails.
    Malformed,
    /// A [partial](LabelStore::with_partial) store holds only prelude
    /// stubs for the queried pair's decodable sides; the query must be
    /// re-asked at a backend owning one of the endpoints.
    NotOwned,
}

/// A threshold label with its prelude read — id width, scheme id, fat
/// flag — and a reader positioned just past the flag, so the query path
/// parses each label once.
struct Prelude<'a> {
    reader: BitReader<'a>,
    width: usize,
    id: u64,
    fat: bool,
}

impl<'a> Prelude<'a> {
    /// Checked read of `l`'s prelude; `None` if the label is too short
    /// to carry it.
    fn read(l: LabelRef<'a>) -> Option<Self> {
        let mut reader = l.reader();
        let width = reader.try_read_bits(6)? as usize;
        let id = reader.try_read_bits(width)?;
        let fat = reader.try_read_bit()?;
        Some(Self {
            reader,
            width,
            id,
            fat,
        })
    }
}

/// Checked scan of a thin threshold label's neighbour list for scheme id
/// `target`; `None` if the label is a prelude stub or declares more
/// neighbours than it carries.
fn thin_contains(mut l: Prelude<'_>, target: u64) -> Option<bool> {
    let deg = l.reader.try_read_gamma()? - 1;
    // One bounds check for the whole list, so the scan cannot run off
    // the label's end.
    if deg.checked_mul(l.width as u64)? > l.reader.remaining() as u64 {
        return None;
    }
    Some((0..deg).any(|_| l.reader.read_bits(l.width) == target))
}

/// Checked read of bit `id` in a fat threshold label's adjacency bitmap,
/// in place in the arena; `None` if the label is thin, a prelude stub,
/// or declares a `k` beyond the bits it carries. Ids at or past `k` are
/// never adjacent.
fn fat_contains(mut l: Prelude<'_>, id: u64) -> Option<bool> {
    if !l.fat {
        return None;
    }
    let k = l.reader.try_read_gamma()? - 1;
    if k > l.reader.remaining() as u64 {
        return None;
    }
    if id >= k {
        return Some(false);
    }
    // `id < k ≤ remaining`, so the skip stays inside the label.
    l.reader.skip(id as usize);
    l.reader.try_read_bit()
}

/// How one adjacency query was answered — the provenance attached to
/// slow-query trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// Non-threshold scheme: generic decoder dispatch.
    Generic,
    /// At least one endpoint thin: neighbour-list scan.
    ThinScan,
    /// Fat–fat pair: one bit read in a fat label's bitmap.
    FatFat,
}

impl QueryPath {
    /// Packs the provenance into one trace payload word: 0 generic,
    /// 1 thin scan, 2 fat–fat.
    #[must_use]
    pub fn as_u64(&self) -> u64 {
        match *self {
            Self::Generic => 0,
            Self::ThinScan => 1,
            Self::FatFat => 2,
        }
    }
}

/// One query's outcome from [`LabelStore::adjacent_batch_traced`]: the
/// adjacency result (as from [`LabelStore::adjacent_traced`]) plus the
/// measured store-side latency.
#[derive(Debug, Clone, Copy)]
pub struct BatchOutcome {
    /// The adjacency answer with its provenance, or the per-query
    /// failure.
    pub result: Result<(bool, QueryPath), StoreError>,
    /// Store-side latency in nanoseconds.
    pub ns: u64,
}

/// The immutable, concurrently readable label store.
pub struct LabelStore {
    labeling: pl_labeling::Labeling,
    tag: SchemeTag,
    n: u32,
    /// Cluster-partition sub-store: non-owned vertices are prelude
    /// stubs, and unanswerable queries report [`StoreError::NotOwned`]
    /// instead of [`StoreError::Malformed`].
    partial: bool,
}

impl std::fmt::Debug for LabelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelStore")
            .field("tag", &self.tag)
            .field("n", &self.n)
            .field("partial", &self.partial)
            .finish_non_exhaustive()
    }
}

impl LabelStore {
    /// Wraps `tagged` for serving; the labeling's arena is kept whole
    /// and queried in place.
    #[must_use]
    pub fn new(tagged: TaggedLabeling, _config: StoreConfig) -> Self {
        let n = u32::try_from(tagged.labeling.len()).expect("more than u32::MAX labels"); // lint: panic-ok(store construction happens at startup/reconfig, not per-request; vertex ids are u32 on the wire)
        Self {
            labeling: tagged.labeling,
            tag: tagged.tag,
            n,
            partial: false,
        }
    }

    /// Same as [`new`](Self::new); the store registers no metrics. Kept
    /// only because the `loadbench` benchmark calls it.
    #[must_use]
    pub fn with_registry(
        tagged: TaggedLabeling,
        config: StoreConfig,
        _registry: &MetricsRegistry,
    ) -> Self {
        Self::new(tagged, config)
    }

    /// Marks the store as a cluster-partition sub-store (see the module
    /// docs): the threshold query path tries both endpoints with checked
    /// reads and reports [`StoreError::NotOwned`] where a full store
    /// would report [`StoreError::Malformed`].
    #[must_use]
    pub fn with_partial(mut self, partial: bool) -> Self {
        self.partial = partial;
        self
    }

    /// Is this a cluster-partition sub-store?
    #[must_use]
    pub fn is_partial(&self) -> bool {
        self.partial
    }

    /// Vertex count.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The loaded scheme.
    #[must_use]
    pub fn tag(&self) -> SchemeTag {
        self.tag
    }

    /// Always 0: there is no cache. Kept only because the `loadbench` benchmark calls it.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        0
    }

    /// Always 0: there is no cache. Kept only because the `loadbench` benchmark calls it.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        0
    }

    /// The label of `v`, viewed in place, if in range.
    #[must_use]
    pub fn label(&self, v: u32) -> Option<LabelRef<'_>> {
        (v < self.n).then(|| self.labeling.label(v))
    }

    /// Answers "is {u, v} an edge?" from labels alone. This is the lean
    /// path: no spans, no provenance — the server uses
    /// [`adjacent_traced`](Self::adjacent_traced) instead.
    pub fn adjacent(&self, u: u32, v: u32) -> Result<bool, StoreError> {
        self.adjacent_inner(u, v).map(|(edge, _)| edge)
    }

    /// Like [`adjacent`](Self::adjacent), but wraps the lookup in a
    /// `store.adjacent` trace span and reports how the query was
    /// answered (provenance for the slow-query log).
    pub fn adjacent_traced(&self, u: u32, v: u32) -> Result<(bool, QueryPath), StoreError> {
        let _span = pl_obs::span!("store.adjacent", u, v);
        self.adjacent_inner(u, v)
    }

    fn adjacent_inner(&self, u: u32, v: u32) -> Result<(bool, QueryPath), StoreError> {
        let la = self.label(u).ok_or(StoreError::OutOfRange)?;
        let lb = self.label(v).ok_or(StoreError::OutOfRange)?;
        if self.tag != SchemeTag::Threshold {
            return Ok((decode_adjacent(self.tag, la, lb), QueryPath::Generic));
        }
        // Threshold fast path: read both preludes once; a fat–fat pair
        // is one checked bit read in a fat bitmap, any other pair a
        // checked scan of a thin neighbour list.
        let pa = Prelude::read(la).ok_or(StoreError::Malformed)?;
        let pb = Prelude::read(lb).ok_or(StoreError::Malformed)?;
        let (ida, idb) = (pa.id, pb.id);
        if ida == idb {
            return Ok((false, QueryPath::ThinScan));
        }
        if pa.fat && pb.fat {
            if !self.partial {
                let edge = fat_contains(pa, idb).ok_or(StoreError::Malformed)?;
                return Ok((edge, QueryPath::FatFat));
            }
            // Partial store: either owned bitmap answers a fat–fat pair.
            return fat_contains(pa, idb)
                .or_else(|| fat_contains(pb, ida))
                .map(|edge| (edge, QueryPath::FatFat))
                .ok_or(StoreError::NotOwned);
        }
        if !self.partial {
            // The first thin endpoint's list decides, as in the decoder.
            let edge = if pa.fat {
                thin_contains(pb, ida)
            } else {
                thin_contains(pa, idb)
            };
            return edge
                .map(|edge| (edge, QueryPath::ThinScan))
                .ok_or(StoreError::Malformed);
        }
        // Partial store: a thin endpoint whose list is present answers
        // one-sidedly (the other endpoint's stub carries the scheme id
        // the scan looks for).
        let (fat_a, fat_b) = (pa.fat, pb.fat);
        if !fat_a {
            if let Some(edge) = thin_contains(pa, idb) {
                return Ok((edge, QueryPath::ThinScan));
            }
        }
        if !fat_b {
            if let Some(edge) = thin_contains(pb, ida) {
                return Ok((edge, QueryPath::ThinScan));
            }
        }
        Err(StoreError::NotOwned)
    }

    /// Answers "what is dist(u, v)?"; `Ok(None)` means beyond the
    /// scheme's bound (or disconnected).
    pub fn distance(&self, u: u32, v: u32) -> Result<Option<u32>, StoreError> {
        if !self.tag.supports_distance() {
            return Err(StoreError::Unsupported);
        }
        let la = self.label(u).ok_or(StoreError::OutOfRange)?;
        let lb = self.label(v).ok_or(StoreError::OutOfRange)?;
        Ok(decode_distance(self.tag, la, lb))
    }

    /// Answers a batch of adjacency pairs with
    /// [`adjacent_traced`](Self::adjacent_traced), one query at a time.
    /// Outcomes land in `out` (cleared first) in input order, each
    /// carrying its measured store-side latency.
    pub fn adjacent_batch_traced(&self, pairs: &[(u32, u32)], out: &mut Vec<BatchOutcome>) {
        out.clear();
        // One clock read per query: each query is timed from the end of
        // the one before it.
        let mut t = Instant::now();
        out.extend(pairs.iter().map(|&(u, v)| {
            let result = self.adjacent_traced(u, v);
            let now = Instant::now();
            let ns = now.duration_since(t).as_nanos() as u64;
            t = now;
            BatchOutcome { result, ns }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_labeling::bits::BitWriter;
    use pl_labeling::scheme::AdjacencyScheme;
    use pl_labeling::{Label, Labeling, ThresholdScheme};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store_for(g: &pl_graph::Graph, tau: usize) -> LabelStore {
        LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: ThresholdScheme::with_tau(tau).encode(g),
            },
            StoreConfig::default(),
        )
    }

    fn star_plus_cycle(n: u32) -> pl_graph::Graph {
        let spokes = (1..n).map(|i| (0, i));
        let cycle = (1..n).map(move |i| (i, if i + 1 == n { 1 } else { i + 1 }));
        pl_graph::builder::from_edges(n as usize, spokes.chain(cycle))
    }

    #[test]
    fn matches_graph_on_every_pair() {
        let g = star_plus_cycle(40);
        let store = store_for(&g, 3);
        for u in 0..40u32 {
            for v in 0..40u32 {
                assert_eq!(
                    store.adjacent(u, v).unwrap(),
                    g.has_edge(u, v),
                    "({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn out_of_range_is_an_error() {
        let g = star_plus_cycle(10);
        let store = store_for(&g, 2);
        assert_eq!(store.adjacent(0, 10), Err(StoreError::OutOfRange));
        assert_eq!(store.adjacent(10, 0), Err(StoreError::OutOfRange));
        assert_eq!(store.adjacent(u32::MAX, 0), Err(StoreError::OutOfRange));
        assert!(store.label(10).is_none());
    }

    #[test]
    fn distance_unsupported_on_adjacency_scheme() {
        let g = star_plus_cycle(10);
        let store = store_for(&g, 2);
        assert_eq!(store.distance(0, 1), Err(StoreError::Unsupported));
    }

    #[test]
    fn query_provenance() {
        let g = star_plus_cycle(30);
        let store = store_for(&g, 3);
        // Hub (vertex 0) vs cycle vertices: all fat–fat.
        assert_eq!(store.adjacent_traced(0, 1), Ok((true, QueryPath::FatFat)));
        // Provenance packing.
        assert_eq!(QueryPath::Generic.as_u64(), 0);
        assert_eq!(QueryPath::ThinScan.as_u64(), 1);
        assert_eq!(QueryPath::FatFat.as_u64(), 2);
    }

    /// [`fat_contains`] on a raw label.
    fn fat_bit(l: LabelRef<'_>, id: u64) -> Option<bool> {
        fat_contains(Prelude::read(l)?, id)
    }

    #[test]
    fn fat_contains_covers_all_fat_vertices() {
        // Every vertex of star+cycle(25) has degree ≥ 3, so all 25 are fat.
        let g = star_plus_cycle(25);
        let labeling = ThresholdScheme::with_tau(3).encode(&g);
        let hub = labeling.label(0);
        // The hub (scheme id 0, highest degree) is adjacent to every other
        // fat vertex and never to itself.
        assert_eq!(fat_bit(hub, 0), Some(false));
        for id in 1..25 {
            assert_eq!(fat_bit(hub, id), Some(true), "hub should see fat id {id}");
        }
        assert_eq!(
            fat_bit(hub, 25),
            Some(false),
            "out-of-range id is never adjacent"
        );
    }

    #[test]
    fn thin_label_is_not_read_as_fat() {
        let g = pl_graph::builder::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let labeling = ThresholdScheme::with_tau(2).encode(&g);
        // Vertex 1 has degree 1 < 2: thin.
        assert_eq!(fat_bit(labeling.label(1), 0), None);
    }

    /// A fat-looking label whose bitmap is cut short: prelude and fat
    /// flag parse, the gamma-coded `k` declares 50 bitmap bits, but only
    /// `carried` follow.
    fn truncated_fat_label(id: u64, carried: usize) -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6); // id width
        w.write_bits(id, 6);
        w.write_bit(true); // fat
        w.write_gamma(51); // k = 50
        for _ in 0..carried {
            w.write_bit(false);
        }
        w.into()
    }

    #[test]
    fn corrupt_fat_label_answers_malformed_not_panic() {
        let good = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(1, 6);
            w.write_bit(true);
            w.write_gamma(51);
            for _ in 0..50 {
                w.write_bit(true);
            }
            Label::from(w)
        };
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![truncated_fat_label(0, 3), good]),
            },
            StoreConfig::default(),
        );
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
        // The healthy direction decodes vertex 1's bitmap instead.
        assert_eq!(store.adjacent(1, 0), Ok(true));
        // A target id past the 3 carried bits but under the declared
        // k = 50 must not seek past the label's end.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![
                    truncated_fat_label(0, 3),
                    truncated_fat_label(10, 50),
                ]),
            },
            StoreConfig::default(),
        );
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
        assert_eq!(store.adjacent(1, 0), Ok(false));
        // An empty label can't even carry a prelude.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![Label::from(BitWriter::new()), good2()]),
            },
            StoreConfig::default(),
        );
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
    }

    #[test]
    fn truncated_thin_list_answers_malformed_not_panic() {
        // A thin label declaring 5 neighbours but carrying one; the
        // full store's thin scan must not read past its end.
        let short_thin = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(0, 6);
            w.write_bit(false);
            w.write_gamma(6); // degree 5
            w.write_bits(7, 6);
            Label::from(w)
        };
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![short_thin, good2()]),
            },
            StoreConfig::default(),
        );
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
        // Vertex 1's own (empty) list answers the other orientation.
        assert_eq!(store.adjacent(1, 0), Ok(false));
    }

    fn good2() -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(1, 6);
        w.write_bit(false);
        w.write_gamma(1);
        w.into()
    }

    /// A prelude stub as written by `plab cluster split`: id width,
    /// scheme id, fat flag — and nothing after.
    fn stub(id: u64, fat: bool) -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(id, 6);
        w.write_bit(fat);
        w.into()
    }

    #[test]
    fn partial_store_answers_from_either_side_and_reports_not_owned() {
        // Scheme ids: 0 = fat hub, 1 = fat, 2 = thin with neighbour 0.
        let fat_hub = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(0, 6);
            w.write_bit(true);
            w.write_gamma(3); // k = 2
            w.write_bit(false); // not adjacent to fat id 0 (itself)
            w.write_bit(true); // adjacent to fat id 1
            Label::from(w)
        };
        let thin2 = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(2, 6);
            w.write_bit(false);
            w.write_gamma(2); // degree 1
            w.write_bits(0, 6); // neighbour scheme id 0
            Label::from(w)
        };
        // This partition owns vertex 0 only; 1 and 2 are stubs.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![fat_hub, stub(1, true), thin2.clone()]),
            },
            StoreConfig::default(),
        )
        .with_partial(true);
        assert!(store.is_partial());
        // Fat–fat: vertex 0's owned bitmap answers both orientations.
        assert_eq!(store.adjacent(0, 1), Ok(true));
        assert_eq!(store.adjacent(1, 0), Ok(true));
        // Thin side stubbed, fat side owned: a thin–fat pair needs the
        // thin list, which lives elsewhere.
        let store2 = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![fat_hub_clone(), stub(1, true), stub(2, false)]),
            },
            StoreConfig::default(),
        )
        .with_partial(true);
        assert_eq!(store2.adjacent(0, 2), Err(StoreError::NotOwned));
        assert_eq!(store2.adjacent(2, 0), Err(StoreError::NotOwned));
        // ...but a partition owning the thin endpoint answers it.
        let store3 = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![stub(0, true), stub(1, true), thin2]),
            },
            StoreConfig::default(),
        )
        .with_partial(true);
        assert_eq!(store3.adjacent(0, 2), Ok(true));
        assert_eq!(store3.adjacent(2, 0), Ok(true));
        assert_eq!(store3.adjacent(2, 1), Ok(false));
        // Fat–fat with both bitmaps stubbed is unanswerable here.
        assert_eq!(store3.adjacent(0, 1), Err(StoreError::NotOwned));
        // Same scheme id short-circuits before ownership matters.
        assert_eq!(store3.adjacent(0, 0), Ok(false));
    }

    fn fat_hub_clone() -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(0, 6);
        w.write_bit(true);
        w.write_gamma(3);
        w.write_bit(false);
        w.write_bit(true);
        Label::from(w)
    }

    #[test]
    fn full_store_keeps_strict_malformed_semantics() {
        // The same stubbed labeling on a *full* store is corruption.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![stub(0, true), stub(1, true)]),
            },
            StoreConfig::default(),
        );
        assert!(!store.is_partial());
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
    }

    #[test]
    fn random_graph_random_queries() {
        let mut r = StdRng::seed_from_u64(77);
        let n = 200u32;
        let mut b = pl_graph::GraphBuilder::new(n as usize);
        for _ in 0..600 {
            let u = r.gen_range(0..n);
            let v = r.gen_range(0..n);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        let store = store_for(&g, 4);
        for _ in 0..5_000 {
            let u = r.gen_range(0..n);
            let v = r.gen_range(0..n);
            assert_eq!(store.adjacent(u, v).unwrap(), g.has_edge(u, v));
        }
    }
}
