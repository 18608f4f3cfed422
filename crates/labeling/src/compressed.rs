//! Compressed fat payloads: an engineering refinement of the threshold
//! engine.
//!
//! The paper's introduction positions labeling schemes against graph
//! *compression* (Boldi–Vigna, reference \[14\]); this module borrows the
//! simplest compression trick back. A fat label's `k`-bit bitmap is
//! wasteful when the fat–fat subgraph is sparse: a hub adjacent to only a
//! few other hubs pays `k` bits for a handful of 1s. The compressed
//! variant stores, per fat vertex, whichever of two encodings is smaller:
//!
//! * **mode 0** — the plain `k`-bit bitmap (as in Theorem 4), or
//! * **mode 1** — the gamma-coded gap list of the set positions.
//!
//! The selector costs one bit, so the maximum label size can only improve
//! over [`ThresholdScheme`](crate::threshold::ThresholdScheme) (Theorem 4's
//! guarantee still holds verbatim), while sparse fat rows shrink from `k`
//! bits to `O(ones · log k)`. Experiment E15 quantifies the effect across
//! the threshold sweep.
//!
//! ## Label format
//!
//! ```text
//! prelude (6-bit width w, w-bit scheme id), 1 bit fat flag
//! thin: gamma(deg+1), deg × w-bit neighbour scheme ids      (unchanged)
//! fat:  gamma(k+1), 1 bit mode,
//!       mode 0: k bitmap bits
//!       mode 1: gamma(ones+1), then gamma(first+1), gamma(gap)… over the
//!               sorted set positions
//! ```

use pl_graph::degree::vertices_by_degree_desc;
use pl_graph::{Graph, VertexId};

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef, Labeling};
use crate::scheme::{
    id_width, list_contains, read_prelude, write_prelude, AdjacencyDecoder, AdjacencyScheme,
};

/// The threshold scheme with per-vertex choice of fat-payload encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedThresholdScheme {
    tau: usize,
}

impl CompressedThresholdScheme {
    /// A scheme whose fat vertices are exactly those of degree `≥ tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
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

/// Writes the cheaper of bitmap / gap-list for the sorted set positions
/// `ones` out of `k` slots.
fn write_fat_payload(bw: &mut BitWriter, ones: &[u64], k: usize) {
    // Cost of mode 1: gamma(ones+1) + gamma(first+1) + Σ gamma(gap).
    let gamma_cost = |x: u64| 2 * (64 - (x).leading_zeros() as usize) - 1;
    let mut list_cost = gamma_cost(ones.len() as u64 + 1);
    let mut prev = None;
    for &p in ones {
        list_cost += match prev {
            None => gamma_cost(p + 1),
            Some(q) => gamma_cost(p - q),
        };
        prev = Some(p);
    }
    if list_cost < k {
        bw.write_bit(true); // mode 1
        bw.write_gamma(ones.len() as u64 + 1);
        let mut prev = None;
        for &p in ones {
            match prev {
                None => bw.write_gamma(p + 1),
                Some(q) => bw.write_gamma(p - q),
            }
            prev = Some(p);
        }
    } else {
        bw.write_bit(false); // mode 0
        let mut bitmap = vec![false; k];
        for &p in ones {
            bitmap[p as usize] = true;
        }
        for b in bitmap {
            bw.write_bit(b);
        }
    }
}

impl AdjacencyScheme for CompressedThresholdScheme {
    type Decoder = CompressedDecoder;

    fn name(&self) -> &'static str {
        "threshold (compressed fat)"
    }

    fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let order = vertices_by_degree_desc(g);
        let fat_count = order.partition_point(|&v| g.degree(v) >= self.tau);
        let mut scheme_id = vec![0u64; n];
        for (i, &v) in order.iter().enumerate() {
            scheme_id[v as usize] = i as u64;
        }
        let labels = (0..n as VertexId)
            .map(|v| {
                let sid = scheme_id[v as usize];
                let fat = (sid as usize) < fat_count;
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, sid);
                bw.write_bit(fat);
                if fat {
                    bw.write_gamma(fat_count as u64 + 1);
                    let mut ones: Vec<u64> = g
                        .neighbors(v)
                        .iter()
                        .map(|&u| scheme_id[u as usize])
                        .filter(|&sid| (sid as usize) < fat_count)
                        .collect();
                    ones.sort_unstable();
                    write_fat_payload(&mut bw, &ones, fat_count);
                } else {
                    bw.write_gamma(g.degree(v) as u64 + 1);
                    for &u in g.neighbors(v) {
                        bw.write_bits(scheme_id[u as usize], w);
                    }
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }
}

/// Decoder for the compressed fat/thin format. Stateless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressedDecoder;

impl AdjacencyDecoder for CompressedDecoder {
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let mut ra = a.reader();
        let mut rb = b.reader();
        let (wa, ida) = read_prelude(&mut ra)?;
        let (_, idb) = read_prelude(&mut rb)?;
        if ida == idb {
            return Some(false);
        }
        match (ra.read_bit()?, rb.read_bit()?) {
            (false, _) => list_contains(&mut ra, wa, idb),
            (_, false) => list_contains(&mut rb, wa, ida),
            (true, true) => {
                let k = ra.read_gamma()? - 1;
                if idb >= k {
                    return Some(false); // cross-labeling query (see threshold.rs)
                }
                if ra.read_bit()? {
                    // mode 1: scan the gap list.
                    let ones = ra.read_gamma()? - 1;
                    let mut pos = 0u64;
                    for i in 0..ones {
                        let delta = ra.read_gamma()?;
                        pos = if i == 0 {
                            delta - 1
                        } else {
                            pos.checked_add(delta)?
                        };
                        if pos >= idb {
                            return Some(pos == idb);
                        }
                    }
                    Some(false)
                } else {
                    ra.skip(idb as usize)?;
                    ra.read_bit()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threshold::ThresholdScheme;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_all(g: &Graph, tau: usize) {
        let labeling = CompressedThresholdScheme::with_tau(tau).encode(g);
        let dec = CompressedDecoder;
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    dec.adjacent(labeling.label(u), labeling.label(v)),
                    g.has_edge(u, v),
                    "tau={tau} pair ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn correct_on_small_graphs() {
        for g in [
            pl_gen::classic::star(12),
            pl_gen::classic::complete(9),
            pl_gen::classic::cycle(8),
            pl_gen::classic::grid(3, 4),
        ] {
            for tau in [1usize, 2, 4, 100] {
                check_all(&g, tau);
            }
        }
    }

    #[test]
    fn correct_on_power_law_graph_sampled() {
        let mut r = StdRng::seed_from_u64(0xC0);
        let g = pl_gen::chung_lu_power_law(2_000, 2.5, 5.0, &mut r);
        let tau = 15;
        let labeling = CompressedThresholdScheme::with_tau(tau).encode(&g);
        let dec = CompressedDecoder;
        for (u, v) in g.edges().take(3_000) {
            assert!(dec.adjacent(labeling.label(u), labeling.label(v)));
        }
        for _ in 0..3_000 {
            let u = r.gen_range(0..2_000u32);
            let v = r.gen_range(0..2_000u32);
            assert_eq!(
                dec.adjacent(labeling.label(u), labeling.label(v)),
                g.has_edge(u, v)
            );
        }
    }

    #[test]
    fn never_larger_than_plain_scheme_plus_selector() {
        let mut r = StdRng::seed_from_u64(0xC1);
        let g = pl_gen::chung_lu_power_law(3_000, 2.5, 5.0, &mut r);
        for tau in [5usize, 20, 80] {
            let plain = ThresholdScheme::with_tau(tau).encode(&g);
            let comp = CompressedThresholdScheme::with_tau(tau).encode(&g);
            for v in g.vertices() {
                assert!(
                    comp.label(v).bit_len() <= plain.label(v).bit_len() + 1,
                    "tau={tau} v={v}: {} > {} + 1",
                    comp.label(v).bit_len(),
                    plain.label(v).bit_len()
                );
            }
        }
    }

    #[test]
    fn sparse_fat_rows_shrink_dramatically() {
        // A graph with many fat vertices but almost no fat-fat edges:
        // disjoint stars. Every hub is fat; no two hubs are adjacent.
        let mut b = pl_graph::GraphBuilder::new(40 * 11);
        for s in 0..40u32 {
            let hub = s * 11;
            for leaf in 1..11u32 {
                b.add_edge(hub, hub + leaf);
            }
        }
        let g = b.build();
        let plain = ThresholdScheme::with_tau(5).encode(&g);
        let comp = CompressedThresholdScheme::with_tau(5).encode(&g);
        // Plain: every hub pays 40 bitmap bits; compressed: ~3 bits.
        assert!(
            comp.max_bits() + 30 < plain.max_bits(),
            "compressed {} vs plain {}",
            comp.max_bits(),
            plain.max_bits()
        );
    }

    #[test]
    fn dense_fat_rows_keep_bitmap() {
        // A clique: fat-fat rows are all-ones, bitmap must win.
        let g = pl_gen::classic::complete(32);
        let plain = ThresholdScheme::with_tau(2).encode(&g);
        let comp = CompressedThresholdScheme::with_tau(2).encode(&g);
        assert_eq!(comp.max_bits(), plain.max_bits() + 1); // just the selector
        check_all(&g, 2);
    }
}
