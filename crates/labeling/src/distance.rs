//! The `f(n)`-bounded distance labeling scheme of Lemma 7.
//!
//! For distances up to a budget `f`, each label carries:
//!
//! * **(i)** a table of distances (capped at `f`) to *all* fat nodes —
//!   vertices of degree at least `n^{1/(α−1+f)}`;
//! * **(ii)** a table of distances to the thin nodes reachable within `f`
//!   hops along paths whose *interior* vertices are all thin;
//! * **(iii)** a fat/thin bit (fat nodes also carry their index into the
//!   fat table).
//!
//! The decoder reconstructs the exact distance for any pair at distance
//! `≤ f`: either some shortest path avoids fat interiors (then part (ii)
//! of an endpoint has it), or it passes through a fat node `g` (then
//! `d(u,g) + d(g,v)` from the two part-(i) tables equals it). Distances
//! beyond `f` are reported as [`None`] — the paper's point being that
//! power-law graphs have `Θ(log n)` diameter (Chung–Lu), so a small `f`
//! already answers most queries.
//!
//! ## Label format
//!
//! ```text
//! prelude (6-bit width w, w-bit id), gamma(f+1)
//! 1 bit fat flag, [w-bit fat index if fat]
//! gamma(k+1), k × d-bit capped distances      (part i; d = bits of f+1)
//! gamma(t+1), t × (w-bit id, d-bit distance)  (part ii)
//! ```

use pl_graph::degree::vertices_by_degree_desc;
use pl_graph::traversal::{bfs_bounded, bfs_bounded_through};
use pl_graph::{Graph, VertexId};

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef, Labeling};
use crate::scheme::{id_width, read_prelude, write_prelude};
use crate::theory::distance_fat_threshold;

/// The f-bounded distance scheme of Lemma 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceScheme {
    alpha: f64,
    f: u32,
    threshold_override: Option<usize>,
}

impl DistanceScheme {
    /// A scheme answering distances up to `f`, with the Lemma 7 fat
    /// threshold `n^{1/(α−1+f)}`.
    ///
    /// # Panics
    ///
    /// Panics if `α <= 1` or `f == 0`.
    #[must_use]
    pub fn new(alpha: f64, f: u32) -> Self {
        assert!(alpha > 1.0, "alpha must exceed 1, got {alpha}");
        assert!(f >= 1, "the distance budget f must be at least 1");
        Self {
            alpha,
            f,
            threshold_override: None,
        }
    }

    /// Same scheme with an explicit fat degree threshold (for ablations).
    #[must_use]
    pub fn with_threshold(alpha: f64, f: u32, threshold: usize) -> Self {
        let mut s = Self::new(alpha, f);
        s.threshold_override = Some(threshold.max(1));
        s
    }

    /// The distance budget `f`.
    #[must_use]
    pub fn f(&self) -> u32 {
        self.f
    }

    /// The fat degree threshold used for an `n`-vertex graph.
    #[must_use]
    pub fn threshold(&self, n: usize) -> usize {
        self.threshold_override
            .unwrap_or_else(|| {
                distance_fat_threshold(n, self.alpha, self.f as usize).ceil() as usize
            })
            .max(1)
    }

    /// Scheme name for experiment tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        "f-bounded distance (Lem 7)"
    }

    /// Labels every vertex of `g`.
    #[must_use]
    pub fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let f = self.f;
        let dw = bit_width(u64::from(f) + 1);
        let threshold = self.threshold(n);

        // Fat nodes, indexed 0..k-1 in degree-descending order.
        let order = vertices_by_degree_desc(g);
        let k = order.partition_point(|&v| g.degree(v) >= threshold);
        let fat: Vec<VertexId> = order[..k].to_vec();
        let mut fat_index = vec![u32::MAX; n];
        for (j, &v) in fat.iter().enumerate() {
            fat_index[v as usize] = j as u32;
        }

        // Part (i): bounded BFS from every fat node. Sentinel f+1 = "> f".
        let sentinel = f + 1;
        let mut fat_dist: Vec<Vec<u32>> = vec![vec![sentinel; k]; n];
        for (j, &src) in fat.iter().enumerate() {
            for (v, d) in bfs_bounded(g, src, f) {
                fat_dist[v as usize][j] = d;
            }
        }

        let is_thin = |v: VertexId| fat_index[v as usize] == u32::MAX;

        let labels = (0..n as VertexId)
            .map(|v| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(v));
                bw.write_gamma(u64::from(f) + 1);
                if fat_index[v as usize] != u32::MAX {
                    bw.write_bit(true);
                    bw.write_bits(u64::from(fat_index[v as usize]), w);
                } else {
                    bw.write_bit(false);
                }
                bw.write_gamma(k as u64 + 1);
                for &d in &fat_dist[v as usize] {
                    bw.write_bits(u64::from(d), dw);
                }
                // Part (ii): thin targets via thin-interior paths.
                let ball = bfs_bounded_through(g, v, f, is_thin);
                let entries: Vec<(VertexId, u32)> = ball
                    .into_iter()
                    .filter(|&(u, _)| u != v && is_thin(u))
                    .collect();
                bw.write_gamma(entries.len() as u64 + 1);
                for (u, d) in entries {
                    bw.write_bits(u64::from(u), w);
                    bw.write_bits(u64::from(d), dw);
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }

    /// The matching stateless decoder.
    #[must_use]
    pub fn decoder(&self) -> DistanceDecoder {
        DistanceDecoder
    }
}

/// Number of bits needed to store values `0..=max`.
fn bit_width(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

/// A parsed distance label (decoder-internal).
struct Parsed {
    id: u64,
    f: u32,
    fat_index: Option<usize>,
    fat_table: Vec<u32>,
    thin: Vec<(u64, u32)>,
}

/// Parses a distance label; `None` if it is malformed. The declared
/// table lengths are checked against the bits the label carries before
/// any table is sized from them.
fn parse(l: LabelRef<'_>) -> Option<Parsed> {
    let mut r = l.reader();
    let (w, id) = read_prelude(&mut r)?;
    let f = u32::try_from(r.read_gamma()? - 1).ok()?;
    let dw = bit_width(u64::from(f) + 1);
    let fat_index = if r.read_bit()? {
        Some(r.read_bits(w)? as usize)
    } else {
        None
    };
    let k = r.read_gamma()? - 1;
    if k.checked_mul(dw as u64)? > r.remaining() as u64 {
        return None;
    }
    let fat_table = (0..k)
        .map(|_| r.read_bits(dw).map(|d| d as u32))
        .collect::<Option<_>>()?;
    let t = r.read_gamma()? - 1;
    if t.checked_mul((w + dw) as u64)? > r.remaining() as u64 {
        return None;
    }
    let thin = (0..t)
        .map(|_| Some((r.read_bits(w)?, r.read_bits(dw)? as u32)))
        .collect::<Option<_>>()?;
    Some(Parsed {
        id,
        f,
        fat_index,
        fat_table,
        thin,
    })
}

/// Stateless decoder for [`DistanceScheme`].
///
/// [`distance`](Self::distance) returns `Some(d)` with the exact hop
/// distance whenever `d ≤ f`, and `None` when the distance exceeds `f`
/// (or the vertices are disconnected).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistanceDecoder;

impl DistanceDecoder {
    /// Exact bounded distance between the two labeled vertices; `None`
    /// also when a label is malformed.
    #[must_use]
    pub fn distance(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<u32> {
        self.try_distance(a, b).flatten()
    }

    /// [`distance`](Self::distance), or `None` when a label is malformed:
    /// it declares more than it carries, the two labels disagree on `f`,
    /// or a fat index points past the other label's fat table.
    #[must_use]
    pub fn try_distance(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<Option<u32>> {
        let pa = parse(a)?;
        let pb = parse(b)?;
        if pa.f != pb.f {
            return None;
        }
        if pa.id == pb.id {
            return Some(Some(0));
        }
        let f = pa.f;
        let mut best = u32::MAX;
        // Fat endpoints: read the other side's part (i) directly.
        if let Some(j) = pb.fat_index {
            best = best.min(*pa.fat_table.get(j)?);
        }
        if let Some(i) = pa.fat_index {
            best = best.min(*pb.fat_table.get(i)?);
        }
        if pa.fat_index.is_none() && pb.fat_index.is_none() {
            // Thin–thin: part (ii) lookups plus the best fat relay.
            if let Some(&(_, d)) = pa.thin.iter().find(|&&(u, _)| u == pb.id) {
                best = best.min(d);
            }
            if let Some(&(_, d)) = pb.thin.iter().find(|&&(u, _)| u == pa.id) {
                best = best.min(d);
            }
            for (da, db) in pa.fat_table.iter().zip(&pb.fat_table) {
                if *da <= f && *db <= f {
                    best = best.min(da.saturating_add(*db));
                }
            }
        }
        Some((best <= f).then_some(best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_graph::traversal::bfs_distances;
    use pl_graph::UNREACHABLE;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD157)
    }

    /// Exhaustively checks the decoder against BFS ground truth.
    fn check_exact(g: &Graph, scheme: &DistanceScheme) {
        let labeling = scheme.encode(g);
        let dec = scheme.decoder();
        let f = scheme.f();
        for u in g.vertices() {
            let truth = bfs_distances(g, u);
            for v in g.vertices() {
                let got = dec.distance(labeling.label(u), labeling.label(v));
                let want = match truth[v as usize] {
                    UNREACHABLE => None,
                    d if d > f => None,
                    d => Some(d),
                };
                assert_eq!(got, want, "pair ({u}, {v}), f = {f}");
            }
        }
    }

    #[test]
    fn exact_on_path() {
        for f in [1u32, 2, 3, 7] {
            check_exact(&pl_gen::classic::path(15), &DistanceScheme::new(2.5, f));
        }
    }

    #[test]
    fn exact_on_cycle_and_grid() {
        check_exact(&pl_gen::classic::cycle(12), &DistanceScheme::new(2.5, 3));
        check_exact(&pl_gen::classic::grid(4, 5), &DistanceScheme::new(2.5, 4));
    }

    #[test]
    fn exact_on_star() {
        // The hub is fat (threshold small): thin-thin pairs must route
        // through the fat relay term.
        check_exact(&pl_gen::classic::star(30), &DistanceScheme::new(2.5, 2));
    }

    #[test]
    fn exact_on_disconnected() {
        let g = pl_graph::builder::from_edges(7, [(0, 1), (1, 2), (4, 5)]);
        check_exact(&g, &DistanceScheme::new(2.5, 3));
    }

    #[test]
    fn exact_on_power_law_graph() {
        let mut r = rng();
        let g = pl_gen::chung_lu_power_law(400, 2.5, 4.0, &mut r);
        for f in [2u32, 3] {
            check_exact(&g, &DistanceScheme::new(2.5, f));
        }
    }

    #[test]
    fn exact_with_extreme_thresholds() {
        let mut r = rng();
        let g = pl_gen::chung_lu_power_law(200, 2.5, 4.0, &mut r);
        // All-fat and all-thin degenerate cases must still be exact.
        check_exact(&g, &DistanceScheme::with_threshold(2.5, 3, 1));
        check_exact(&g, &DistanceScheme::with_threshold(2.5, 3, 10_000));
    }

    #[test]
    fn self_distance_zero() {
        let g = pl_gen::classic::path(4);
        let s = DistanceScheme::new(2.5, 2);
        let labeling = s.encode(&g);
        assert_eq!(
            s.decoder().distance(labeling.label(2), labeling.label(2)),
            Some(0)
        );
    }

    #[test]
    fn labels_sublinear_for_every_f() {
        // There is no monotonicity in f at small n (smaller f raises the
        // fat threshold, which can inflate the thin-ball tables), but every
        // choice must stay well below the trivial n·log n distance table.
        let mut r = rng();
        let n = 2_000;
        let g = pl_gen::chung_lu_power_law(n, 2.5, 4.0, &mut r);
        let trivial = n * (id_width(n) + 3);
        for f in [2u32, 3, 5] {
            let bits = DistanceScheme::new(2.5, f).encode(&g).max_bits();
            assert!(
                bits * 2 < trivial,
                "f={f}: {bits} bits vs trivial {trivial}"
            );
        }
    }

    #[test]
    fn sublinear_labels_on_power_law_graph() {
        let mut r = rng();
        let n = 4_000;
        let g = pl_gen::chung_lu_power_law(n, 2.5, 4.0, &mut r);
        let labeling = DistanceScheme::new(2.5, 2).encode(&g);
        // o(n) labels: the whole point of Lemma 7. n·w would be ~48k bits.
        let nw = n * id_width(n);
        assert!(
            labeling.max_bits() * 3 < nw,
            "max label {} bits vs n·w = {nw}",
            labeling.max_bits()
        );
    }

    #[test]
    fn threshold_override_respected() {
        let s = DistanceScheme::with_threshold(2.5, 3, 42);
        assert_eq!(s.threshold(1_000_000), 42);
        let s2 = DistanceScheme::new(2.5, 3);
        let expect = distance_fat_threshold(100_000, 2.5, 3).ceil() as usize;
        assert_eq!(s2.threshold(100_000), expect);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_f() {
        let _ = DistanceScheme::new(2.5, 0);
    }
}
