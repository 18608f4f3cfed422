//! Distance-labeling baselines for Section 7's comparison.
//!
//! Lemma 7 trades exactness beyond `f` for `o(n)` labels. The natural
//! comparison points, both implemented here:
//!
//! * [`FullDistanceScheme`] — the trivial exact scheme: every label is a
//!   complete distance row, `n·⌈log(diam+2)⌉` bits. Exact for all pairs,
//!   linear labels; the "distance table" the paper's `o(n)` claim is
//!   measured against.
//! * [`LandmarkDistanceScheme`] — the classic landmark (ALT-style) oracle:
//!   each label stores distances to `k` hub landmarks; a pair's distance
//!   is *estimated* by relaying through the best landmark. Labels are
//!   `O(k log n)` bits and the estimate is exact whenever some shortest
//!   path passes a landmark — frequent in power-law graphs, where hubs
//!   carry most shortest paths (cf. experiment E13). Returns certified
//!   `[lower, upper]` bounds from the triangle inequality.
//!
//! Experiment E16 measures both against Lemma 7's scheme.

use pl_graph::degree::vertices_by_degree_desc;
use pl_graph::traversal::bfs_distances;
use pl_graph::{Graph, VertexId, UNREACHABLE};

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef, Labeling};
use crate::scheme::{id_width, read_prelude, write_prelude};

/// Bits needed to store values `0..=max`.
fn bit_width(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

/// The trivial exact distance labeling: one full row per vertex.
///
/// ## Label format
///
/// ```text
/// prelude (6-bit w, w-bit id), 6-bit distance width d, gamma(n+1),
/// n × d-bit distances (all-ones sentinel = unreachable)
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullDistanceScheme;

impl FullDistanceScheme {
    /// Scheme name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "full distance table"
    }

    /// Labels every vertex with its complete BFS distance row. `O(n²)`
    /// time and `O(n² log diam)` bits total — baselines only.
    #[must_use]
    pub fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        // First pass: find the largest finite distance to size the field.
        let rows: Vec<Vec<u32>> = (0..n as VertexId).map(|v| bfs_distances(g, v)).collect();
        let max_d = rows
            .iter()
            .flatten()
            .filter(|&&d| d != UNREACHABLE)
            .copied()
            .max()
            .unwrap_or(0);
        let dw = bit_width(u64::from(max_d) + 1);
        let sentinel = (1u64 << dw) - 1;
        let labels = rows
            .into_iter()
            .enumerate()
            .map(|(v, row)| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, v as u64);
                bw.write_bits(dw as u64, 6);
                bw.write_gamma(n as u64 + 1);
                for d in row {
                    let val = if d == UNREACHABLE {
                        sentinel
                    } else {
                        u64::from(d)
                    };
                    bw.write_bits(val, dw);
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }

    /// The matching stateless decoder.
    #[must_use]
    pub fn decoder(&self) -> FullDistanceDecoder {
        FullDistanceDecoder
    }
}

/// Decoder for [`FullDistanceScheme`]: reads `b`'s entry in `a`'s row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullDistanceDecoder;

impl FullDistanceDecoder {
    /// The exact distance, or `None` if unreachable or a label is
    /// malformed.
    #[must_use]
    pub fn distance(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<u32> {
        let mut ra = a.reader();
        let (_, ida) = read_prelude(&mut ra)?;
        let (_, idb) = read_prelude(&mut b.reader())?;
        if ida == idb {
            return Some(0);
        }
        let dw = ra.read_bits(6)? as usize;
        let _n = ra.read_gamma()?;
        ra.skip((idb as usize).checked_mul(dw)?)?;
        let val = ra.read_bits(dw)?;
        (val != (1u64 << dw) - 1).then_some(val as u32)
    }
}

/// A certified distance estimate from landmark relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistanceEstimate {
    /// Triangle-inequality lower bound `max_j |d(a,ℓ_j) − d(b,ℓ_j)|`.
    pub lower: u32,
    /// Relay upper bound `min_j d(a,ℓ_j) + d(ℓ_j,b)`.
    pub upper: u32,
}

impl DistanceEstimate {
    /// Whether the bounds pin the distance exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }
}

/// The landmark (ALT-style) approximate distance labeling.
///
/// ## Label format
///
/// ```text
/// prelude (6-bit w, w-bit id), 6-bit distance width d, gamma(k+1),
/// k × d-bit distances to the landmarks (all-ones sentinel = unreachable)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LandmarkDistanceScheme {
    k: usize,
}

impl LandmarkDistanceScheme {
    /// An oracle using the `k` highest-degree vertices as landmarks.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one landmark");
        Self { k }
    }

    /// Scheme name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "landmark estimates"
    }

    /// Labels every vertex with its distances to the landmarks.
    #[must_use]
    pub fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let landmarks: Vec<VertexId> = vertices_by_degree_desc(g)
            .into_iter()
            .take(self.k)
            .collect();
        let rows: Vec<Vec<u32>> = landmarks.iter().map(|&l| bfs_distances(g, l)).collect();
        let max_d = rows
            .iter()
            .flatten()
            .filter(|&&d| d != UNREACHABLE)
            .copied()
            .max()
            .unwrap_or(0);
        let dw = bit_width(u64::from(max_d) + 1);
        let sentinel = (1u64 << dw) - 1;
        let labels = (0..n as VertexId)
            .map(|v| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(v));
                bw.write_bits(dw as u64, 6);
                bw.write_gamma(rows.len() as u64 + 1);
                for row in &rows {
                    let d = row[v as usize];
                    let val = if d == UNREACHABLE {
                        sentinel
                    } else {
                        u64::from(d)
                    };
                    bw.write_bits(val, dw);
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }

    /// The matching stateless decoder.
    #[must_use]
    pub fn decoder(&self) -> LandmarkDecoder {
        LandmarkDecoder
    }
}

/// Decoder for [`LandmarkDistanceScheme`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LandmarkDecoder;

impl LandmarkDecoder {
    /// Certified `[lower, upper]` bounds on the distance, or `None` when no
    /// landmark reaches both endpoints (distinct components, as far as the
    /// oracle can tell) or a label is malformed.
    #[must_use]
    pub fn estimate(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<DistanceEstimate> {
        let parse = |l: LabelRef<'_>| {
            let mut r = l.reader();
            let (_, id) = read_prelude(&mut r)?;
            let dw = r.read_bits(6)? as usize;
            let k = r.read_gamma()? - 1;
            if dw == 0 || k.checked_mul(dw as u64)? > r.remaining() as u64 {
                return None;
            }
            let sentinel = (1u64 << dw) - 1;
            let row: Vec<Option<u32>> = (0..k)
                .map(|_| r.read_bits(dw).map(|v| (v != sentinel).then_some(v as u32)))
                .collect::<Option<_>>()?;
            Some((id, row))
        };
        let (ida, ra) = parse(a)?;
        let (idb, rb) = parse(b)?;
        if ida == idb {
            return Some(DistanceEstimate { lower: 0, upper: 0 });
        }
        let mut lower = 0u32;
        let mut upper = u32::MAX;
        for (da, db) in ra.iter().zip(&rb) {
            if let (Some(x), Some(y)) = (da, db) {
                lower = lower.max(x.abs_diff(*y));
                upper = upper.min(x.saturating_add(*y));
            }
        }
        (upper != u32::MAX).then_some(DistanceEstimate { lower, upper })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD0)
    }

    #[test]
    fn full_scheme_exact_everywhere() {
        let mut r = rng();
        for g in [
            pl_gen::classic::path(12),
            pl_gen::classic::grid(4, 5),
            pl_graph::builder::from_edges(6, [(0, 1), (1, 2), (4, 5)]),
            pl_gen::er::gnm(40, 80, &mut r),
        ] {
            let labeling = FullDistanceScheme.encode(&g);
            let dec = FullDistanceScheme.decoder();
            for u in g.vertices() {
                let truth = bfs_distances(&g, u);
                for v in g.vertices() {
                    let want = match truth[v as usize] {
                        UNREACHABLE => None,
                        d => Some(d),
                    };
                    assert_eq!(dec.distance(labeling.label(u), labeling.label(v)), want);
                }
            }
        }
    }

    #[test]
    fn full_scheme_label_size() {
        let g = pl_gen::classic::path(256);
        let labeling = FullDistanceScheme.encode(&g);
        // diam = 255, sentinel needs 256 → 9-bit entries; labels ≈ n·9 bits.
        assert!(labeling.max_bits() >= 256 * 9);
        assert!(labeling.max_bits() <= 256 * 9 + 64);
    }

    #[test]
    fn landmark_bounds_bracket_truth() {
        let mut r = rng();
        let g = pl_gen::chung_lu_power_law(800, 2.5, 5.0, &mut r);
        let scheme = LandmarkDistanceScheme::new(8);
        let labeling = scheme.encode(&g);
        let dec = scheme.decoder();
        for _ in 0..20 {
            let u = r.gen_range(0..800u32);
            let truth = bfs_distances(&g, u);
            for _ in 0..50 {
                let v = r.gen_range(0..800u32);
                let est = dec.estimate(labeling.label(u), labeling.label(v));
                match (truth[v as usize], est) {
                    (UNREACHABLE, Some(e)) => {
                        // The oracle may "reach" unreachable pairs only if
                        // a landmark reaches both — impossible.
                        panic!("unreachable pair got estimate {e:?}");
                    }
                    (UNREACHABLE, None) => {}
                    (d, Some(e)) => {
                        assert!(e.lower <= d && d <= e.upper, "{d} not in {e:?}");
                    }
                    (d, None) => panic!("reachable pair ({u},{v}) d={d} got None"),
                }
            }
        }
    }

    #[test]
    fn landmark_upper_bound_exact_through_hub() {
        // A star: every shortest path passes the hub, so the *relay upper
        // bound* through the hub landmark is the exact distance (the
        // triangle lower bound is generally looser).
        let g = pl_gen::classic::star(30);
        let scheme = LandmarkDistanceScheme::new(1);
        let labeling = scheme.encode(&g);
        let dec = scheme.decoder();
        for u in g.vertices() {
            let truth = bfs_distances(&g, u);
            for v in g.vertices() {
                let e = dec.estimate(labeling.label(u), labeling.label(v)).unwrap();
                assert_eq!(e.upper, truth[v as usize], "({u}, {v}): {e:?}");
                // Hub endpoints are pinned exactly.
                if u == 0 || v == 0 {
                    assert!(e.is_exact());
                }
            }
        }
    }

    #[test]
    fn landmark_labels_are_k_log_n() {
        let mut r = rng();
        let g = pl_gen::chung_lu_power_law(5_000, 2.5, 5.0, &mut r);
        let labeling = LandmarkDistanceScheme::new(16).encode(&g);
        // prelude + 6 + gamma + 16 entries of ≤ 6 bits each.
        assert!(labeling.max_bits() < 6 + 13 + 6 + 11 + 16 * 7);
    }

    #[test]
    fn self_distance_zero() {
        let g = pl_gen::classic::cycle(6);
        let l1 = FullDistanceScheme.encode(&g);
        assert_eq!(
            FullDistanceDecoder.distance(l1.label(2), l1.label(2)),
            Some(0)
        );
        let l2 = LandmarkDistanceScheme::new(2).encode(&g);
        let e = LandmarkDecoder.estimate(l2.label(3), l2.label(3)).unwrap();
        assert_eq!((e.lower, e.upper), (0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one landmark")]
    fn rejects_zero_landmarks() {
        let _ = LandmarkDistanceScheme::new(0);
    }
}
