//! The 1-query labeling scheme of Section 6.
//!
//! A *1-query* scheme relaxes the model: the decoder receives the two
//! queried labels and may additionally fetch the label of **one** third
//! vertex. The paper's construction hashes every edge `{u, v}` with a
//! chaining hash from the edge domain to `{0 … n−1}` and stores the pair
//! `⟨ID(u), ID(v)⟩` in the label of the vertex the edge hashes to. A query
//! `(u, v)` recomputes the hash, fetches that one label, and looks for the
//! pair — labels stay `O(log n)` bits (assuming the bucket loads stay
//! constant; see [`pl_hash::chain`] for how the hash is re-drawn to bound
//! them), sidestepping the `Ω(n^{1/α})` lower bound of Theorem 6.
//!
//! The hash function's description (two 64-bit parameters and the bucket
//! count) is replicated into every label, which is the paper's
//! "description thereof amounts to a logarithmic number of bits,
//! concatenated to each label".
//!
//! ## Label format
//!
//! ```text
//! prelude (6-bit width w, w-bit own id)
//! 64-bit hash multiplier, 64-bit hash offset, gamma(bucket count + 1)
//! gamma(#pairs + 1), pairs × (w-bit min id, w-bit max id)
//! ```

use pl_graph::{Graph, VertexId};
use pl_hash::chain::BoundedLoadHash;
use pl_hash::universal::edge_key;
use rand::Rng;

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef, Labeling};
use crate::scheme::{id_width, read_prelude, write_prelude};

/// The 1-query adjacency scheme. Not an [`AdjacencyScheme`]: its decoder
/// contract is different (it needs one extra label), so it exposes its own
/// encode/decode API.
///
/// [`AdjacencyScheme`]: crate::scheme::AdjacencyScheme
///
/// # Example
///
/// ```
/// use pl_labeling::one_query::{OneQueryScheme, OneQueryDecoder};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let g = pl_gen::er::gnm(200, 400, &mut rng);
/// let labeling = OneQueryScheme.encode(&g, &mut rng);
/// let dec = OneQueryDecoder;
/// for (u, v) in g.edges().take(20) {
///     let third = dec.query_target(labeling.label(u), labeling.label(v)).unwrap();
///     let third = labeling.label(third as u32);
///     assert_eq!(dec.decide(labeling.label(u), labeling.label(v), third), Some(true));
/// }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneQueryScheme;

impl OneQueryScheme {
    /// Scheme name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "1-query hashed"
    }

    /// Labels every vertex of `g`. The `rng` draws the chaining hash
    /// (re-drawn adaptively until the maximum bucket load is small).
    #[must_use]
    pub fn encode<R: Rng + ?Sized>(&self, g: &Graph, rng: &mut R) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let keys: Vec<u64> = g.edges().map(|(u, v)| edge_key(u, v)).collect();
        let buckets = n.max(1);
        let hash = BoundedLoadHash::build_adaptive(&keys, buckets, rng);
        let (pa, pb) = hash.params();

        let mut slots: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); buckets];
        for (u, v) in g.edges() {
            slots[hash.bucket_of(edge_key(u, v))].push((u, v));
        }

        let labels = (0..n as VertexId)
            .map(|x| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(x));
                bw.write_bits(pa, 64);
                bw.write_bits(pb, 64);
                bw.write_gamma(buckets as u64 + 1);
                let pairs = &slots[x as usize];
                bw.write_gamma(pairs.len() as u64 + 1);
                for &(u, v) in pairs {
                    bw.write_bits(u64::from(u), w);
                    bw.write_bits(u64::from(v), w);
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }
}

/// Stateless decoder for [`OneQueryScheme`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneQueryDecoder;

impl OneQueryDecoder {
    /// The id of the single extra vertex whose label must be fetched to
    /// answer adjacency between `a` and `b`; `None` if a label is
    /// malformed.
    #[must_use]
    pub fn query_target(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<u64> {
        let mut ra = a.reader();
        let (_, ida) = read_prelude(&mut ra)?;
        let (_, idb) = read_prelude(&mut b.reader())?;
        let pa = ra.read_bits(64)?;
        let pb = ra.read_bits(64)?;
        let buckets = (ra.read_gamma()? - 1) as usize;
        if buckets == 0 {
            return None;
        }
        let hash = BoundedLoadHash::from_params(pa, pb, buckets);
        Some(hash.bucket_of(edge_key(ida as u32, idb as u32)) as u64)
    }

    /// Decides adjacency of `a` and `b` given the fetched `third` label
    /// (which must be the label of [`query_target`](Self::query_target));
    /// `None` if a label is malformed.
    #[must_use]
    pub fn decide(&self, a: LabelRef<'_>, b: LabelRef<'_>, third: LabelRef<'_>) -> Option<bool> {
        let (_, ida) = read_prelude(&mut a.reader())?;
        let (_, idb) = read_prelude(&mut b.reader())?;
        if ida == idb {
            return Some(false);
        }
        let (lo, hi) = (ida.min(idb), ida.max(idb));
        let mut rt = third.reader();
        let (w, _) = read_prelude(&mut rt)?;
        rt.skip(128)?;
        let _buckets = rt.read_gamma()?;
        let pairs = rt.read_gamma()? - 1;
        for _ in 0..pairs {
            if (rt.read_bits(w)?, rt.read_bits(w)?) == (lo, hi) {
                return Some(true);
            }
        }
        Some(false)
    }

    /// Convenience: full 1-query protocol against a label store; a
    /// malformed label answers `false`.
    #[must_use]
    pub fn adjacent_with<'l>(
        &self,
        a: LabelRef<'_>,
        b: LabelRef<'_>,
        fetch: impl FnOnce(u64) -> LabelRef<'l>,
    ) -> bool {
        self.query_target(a, b)
            .and_then(|t| self.decide(a, b, fetch(t)))
            == Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x1A2B)
    }

    fn check_all(g: &Graph, labeling: &Labeling) {
        let dec = OneQueryDecoder;
        for u in g.vertices() {
            for v in g.vertices() {
                let got = dec.adjacent_with(labeling.label(u), labeling.label(v), |t| {
                    labeling.label(t as u32)
                });
                assert_eq!(got, g.has_edge(u, v), "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn exhaustive_on_small_graphs() {
        let mut r = rng();
        for g in [
            pl_gen::classic::path(12),
            pl_gen::classic::cycle(9),
            pl_gen::classic::star(10),
            pl_gen::classic::complete(8),
            pl_graph::GraphBuilder::new(5).build(),
        ] {
            let labeling = OneQueryScheme.encode(&g, &mut r);
            check_all(&g, &labeling);
        }
    }

    #[test]
    fn sampled_on_power_law_graph() {
        use rand::Rng;
        let mut r = rng();
        let g = pl_gen::chung_lu_power_law(3_000, 2.5, 4.0, &mut r);
        let labeling = OneQueryScheme.encode(&g, &mut r);
        let dec = OneQueryDecoder;
        for (u, v) in g.edges().take(3_000) {
            assert!(
                dec.adjacent_with(labeling.label(u), labeling.label(v), |t| {
                    labeling.label(t as u32)
                })
            );
        }
        for _ in 0..3_000 {
            let u = r.gen_range(0..3_000u32);
            let v = r.gen_range(0..3_000u32);
            assert_eq!(
                dec.adjacent_with(labeling.label(u), labeling.label(v), |t| labeling
                    .label(t as u32)),
                g.has_edge(u, v)
            );
        }
    }

    #[test]
    fn labels_are_logarithmic() {
        let mut r = rng();
        // Sparse graph: labels should be O(log n), dominated by the 128-bit
        // hash description.
        let g = pl_gen::er::gnm(10_000, 20_000, &mut r);
        let labeling = OneQueryScheme.encode(&g, &mut r);
        let w = id_width(10_000);
        // Max load L costs 2wL bits: allow L up to 16.
        assert!(
            labeling.max_bits() <= 6 + w + 128 + 31 + 9 + 2 * w * 16,
            "max label {} bits",
            labeling.max_bits()
        );
        // And it is dramatically below the Theorem 4 labels for this size.
        assert!(labeling.max_bits() < 1000);
    }

    #[test]
    fn zero_buckets_is_malformed() {
        let mut w = BitWriter::new();
        write_prelude(&mut w, 3, 1);
        w.write_bits(7, 64);
        w.write_bits(9, 64);
        w.write_gamma(1);
        let a = Label::from(w);
        assert_eq!(OneQueryDecoder.query_target(a.view(), a.view()), None);
    }

    #[test]
    fn query_target_symmetric() {
        let mut r = rng();
        let g = pl_gen::classic::cycle(20);
        let labeling = OneQueryScheme.encode(&g, &mut r);
        let dec = OneQueryDecoder;
        for (u, v) in [(0u32, 5u32), (3, 4), (19, 0)] {
            assert_eq!(
                dec.query_target(labeling.label(u), labeling.label(v)),
                dec.query_target(labeling.label(v), labeling.label(u))
            );
        }
    }

    #[test]
    fn hub_label_stays_small() {
        let mut r = rng();
        let g = pl_gen::classic::star(4_000);
        let labeling = OneQueryScheme.encode(&g, &mut r);
        // The hub's edges are spread over n buckets; its own label holds
        // only its expected share.
        assert!(
            labeling.label(0).bit_len() < 600,
            "hub label {} bits",
            labeling.label(0).bit_len()
        );
    }
}
