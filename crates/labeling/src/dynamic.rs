//! Incremental (dynamic) fat/thin labeling — the paper's first
//! future-work item, implemented for edge insertions.
//!
//! "Our labeling schemes are designed for static networks, and while it
//! seems not difficult to extend our idea to dynamic networks, an analysis
//! is required to account for the communication and number of re-labels
//! incurred by such an extension."
//!
//! The static fat/thin layout is nearly dynamic already; the one obstacle
//! is that static fat bitmaps all have the same width `k`, which breaks
//! when a vertex is promoted to fat later. The fix is a Moon-style
//! *triangular* fat layout: the fat vertex with fat index `j` keeps a
//! bitmap over fat indices `< j` only (the fat vertices older than it).
//! Then:
//!
//! * inserting a thin–thin or thin–fat edge rewrites only the thin
//!   endpoint's neighbour list (thin labels record all neighbours; fat
//!   labels never record thin neighbours);
//! * inserting a fat–fat edge sets one bit in the *younger* endpoint's
//!   bitmap;
//! * promoting a vertex that reaches degree `τ` writes its triangular
//!   bitmap once — no other label changes, because older fat vertices are
//!   covered by the new bitmap and younger ones don't exist yet.
//!
//! Every operation relabels at most 2 vertices, and a vertex is promoted
//! at most once, so an insertion sequence of length `M` performs at most
//! `2M + n` relabels — the "analysis" the paper asks for, in its simplest
//! form. Label sizes match the static scheme up to the triangular saving.
//! The threshold `τ` is fixed at construction (size it for the capacity
//! `n`); re-running [`DynamicScheme::rebuild`] re-balances after growth.
//!
//! ## Label format
//!
//! ```text
//! prelude (6-bit width w, w-bit ORIGINAL vertex id)
//! 1 bit fat flag
//! fat:  w-bit fat index j, then j bitmap bits (bit i = adjacent to fat i)
//! thin: gamma(deg+1), then deg × w-bit original neighbour ids
//! ```

use pl_graph::VertexId;

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef};
use crate::scheme::{id_width, list_contains, read_prelude, write_prelude, AdjacencyDecoder};

/// An incrementally maintained fat/thin labeling.
#[derive(Debug, Clone)]
pub struct DynamicScheme {
    tau: usize,
    w: usize,
    /// Adjacency lists (original ids), kept sorted for `has_edge`.
    adj: Vec<Vec<VertexId>>,
    /// Fat index per vertex; `u32::MAX` = thin.
    fat_index: Vec<u32>,
    /// Fat vertices in promotion order.
    fat: Vec<VertexId>,
    /// Current labels, one per vertex.
    labels: Vec<Label>,
    relabels: u64,
    promotions: u64,
}

impl DynamicScheme {
    /// An empty graph on `n` vertices with fat threshold `tau`.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    #[must_use]
    pub fn new(n: usize, tau: usize) -> Self {
        assert!(tau >= 1, "threshold must be at least 1");
        let w = id_width(n);
        let mut s = Self {
            tau,
            w,
            adj: vec![Vec::new(); n],
            fat_index: vec![u32::MAX; n],
            fat: Vec::new(),
            labels: Vec::with_capacity(n),
            relabels: 0,
            promotions: 0,
        };
        for v in 0..n as VertexId {
            s.labels.push(s.render(v));
        }
        s.relabels = 0; // initial rendering is not counted
        s
    }

    /// A dynamic labeler pre-sized with Theorem 4's threshold for an
    /// eventual size of `n` vertices and exponent `alpha`.
    #[must_use]
    pub fn with_powerlaw_tau(n: usize, alpha: f64, c_prime: f64) -> Self {
        Self::new(n, crate::theory::powerlaw_tau(n, alpha, c_prime))
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges inserted (and kept; duplicates are ignored).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total label rewrites since construction (the paper's "number of
    /// re-labels" cost).
    #[must_use]
    pub fn relabel_count(&self) -> u64 {
        self.relabels
    }

    /// Thin→fat promotions so far.
    #[must_use]
    pub fn promotion_count(&self) -> u64 {
        self.promotions
    }

    /// The current label of `v`, viewed in place.
    #[must_use]
    pub fn label(&self, v: VertexId) -> LabelRef<'_> {
        self.labels[v as usize].view()
    }

    /// Maximum current label size in bits.
    #[must_use]
    pub fn max_bits(&self) -> usize {
        self.labels.iter().map(Label::bit_len).max().unwrap_or(0)
    }

    fn is_fat(&self, v: VertexId) -> bool {
        self.fat_index[v as usize] != u32::MAX
    }

    /// Renders `v`'s label from current state.
    fn render(&self, v: VertexId) -> Label {
        let mut bw = BitWriter::new();
        write_prelude(&mut bw, self.w, u64::from(v));
        let j = self.fat_index[v as usize];
        if j != u32::MAX {
            bw.write_bit(true);
            bw.write_bits(u64::from(j), self.w);
            let mut bitmap = vec![false; j as usize];
            for &u in &self.adj[v as usize] {
                let ju = self.fat_index[u as usize];
                if ju != u32::MAX && ju < j {
                    bitmap[ju as usize] = true;
                }
            }
            for b in bitmap {
                bw.write_bit(b);
            }
        } else {
            bw.write_bit(false);
            bw.write_gamma(self.adj[v as usize].len() as u64 + 1);
            for &u in &self.adj[v as usize] {
                bw.write_bits(u64::from(u), self.w);
            }
        }
        Label::from(bw)
    }

    fn relabel(&mut self, v: VertexId) {
        self.labels[v as usize] = self.render(v);
        self.relabels += 1;
    }

    /// Inserts the undirected edge `{u, v}`, updating labels. Returns the
    /// number of labels rewritten (0 for duplicates/self-loops).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        assert!((u as usize) < self.adj.len() && (v as usize) < self.adj.len());
        if u == v || self.adj[u as usize].binary_search(&v).is_ok() {
            return 0;
        }
        let before = self.relabels;
        let (pu, pv) = (
            self.adj[u as usize].binary_search(&v).unwrap_err(),
            self.adj[v as usize].binary_search(&u).unwrap_err(),
        );
        self.adj[u as usize].insert(pu, v);
        self.adj[v as usize].insert(pv, u);

        // Promotions first, so the bitmap logic below sees final statuses.
        for x in [u, v] {
            if !self.is_fat(x) && self.adj[x as usize].len() >= self.tau {
                self.fat_index[x as usize] = self.fat.len() as u32;
                self.fat.push(x);
                self.promotions += 1;
                self.relabel(x);
            }
        }

        match (self.is_fat(u), self.is_fat(v)) {
            (true, true) => {
                // Set one bit in the younger endpoint's bitmap (unless its
                // label was just rendered by a promotion above, in which
                // case it is already correct — re-rendering is idempotent).
                let younger = if self.fat_index[u as usize] > self.fat_index[v as usize] {
                    u
                } else {
                    v
                };
                self.relabel(younger);
            }
            (true, false) => self.relabel(v),
            (false, true) => self.relabel(u),
            (false, false) => {
                self.relabel(u);
                self.relabel(v);
            }
        }
        (self.relabels - before) as usize
    }

    /// Rebuilds every label from scratch with a new threshold (e.g. after
    /// the graph outgrew the capacity the old τ was sized for). Returns
    /// the number of labels rewritten (= n).
    pub fn rebuild(&mut self, tau: usize) -> usize {
        assert!(tau >= 1);
        self.tau = tau;
        self.fat.clear();
        for fi in &mut self.fat_index {
            *fi = u32::MAX;
        }
        // Promote in degree-descending order so fat indices correlate with
        // hubs, like the static scheme.
        let mut order: Vec<VertexId> = (0..self.adj.len() as VertexId).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.adj[v as usize].len()));
        for &v in &order {
            if self.adj[v as usize].len() >= tau {
                self.fat_index[v as usize] = self.fat.len() as u32;
                self.fat.push(v);
            }
        }
        for v in 0..self.adj.len() as VertexId {
            self.relabel(v);
        }
        self.adj.len()
    }

    /// Ground-truth adjacency (for tests and verification).
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u != v && self.adj[u as usize].binary_search(&v).is_ok()
    }
}

/// Stateless decoder for [`DynamicScheme`] labels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicDecoder;

impl AdjacencyDecoder for DynamicDecoder {
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let mut ra = a.reader();
        let (wa, ida) = read_prelude(&mut ra)?;
        let mut rb = b.reader();
        let (_, idb) = read_prelude(&mut rb)?;
        if ida == idb {
            return Some(false);
        }
        match (ra.read_bit()?, rb.read_bit()?) {
            (false, _) => list_contains(&mut ra, wa, idb),
            (_, false) => list_contains(&mut rb, wa, ida),
            (true, true) => {
                let ja = ra.read_bits(wa)?;
                let jb = rb.read_bits(wa)?;
                // The younger (larger-index) bitmap covers the older index.
                let (mut younger, older) = if ja > jb { (ra, jb) } else { (rb, ja) };
                younger.skip(older as usize)?;
                younger.read_bit()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check_all(s: &DynamicScheme) {
        let dec = DynamicDecoder;
        let n = s.vertex_count() as VertexId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    dec.adjacent(s.label(u), s.label(v)),
                    s.has_edge(u, v),
                    "pair ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn empty_scheme_decodes_nothing() {
        let s = DynamicScheme::new(5, 2);
        check_all(&s);
        assert_eq!(s.relabel_count(), 0);
    }

    #[test]
    fn single_insertions_with_checks() {
        let mut s = DynamicScheme::new(8, 3);
        let edges = [
            (0u32, 1u32),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (6, 7),
        ];
        for &(u, v) in &edges {
            let r = s.insert_edge(u, v);
            assert!((1..=3).contains(&r), "relabels {r}");
            check_all(&s);
        }
        assert_eq!(s.edge_count(), edges.len());
        // Vertices 0..4 reach degree >= 3 and must be fat.
        assert!(s.promotion_count() >= 4);
    }

    #[test]
    fn duplicate_and_self_edges_free() {
        let mut s = DynamicScheme::new(4, 2);
        s.insert_edge(0, 1);
        let before = s.relabel_count();
        assert_eq!(s.insert_edge(1, 0), 0);
        assert_eq!(s.insert_edge(2, 2), 0);
        assert_eq!(s.relabel_count(), before);
        check_all(&s);
    }

    #[test]
    fn random_insertion_sequence_always_correct() {
        let mut r = StdRng::seed_from_u64(0xD1 + 77);
        let n = 40;
        let mut s = DynamicScheme::new(n, 4);
        for step in 0..300 {
            let u = r.gen_range(0..n as u32);
            let v = r.gen_range(0..n as u32);
            s.insert_edge(u, v);
            if step % 25 == 0 {
                check_all(&s);
            }
        }
        check_all(&s);
    }

    #[test]
    fn relabels_amortized_constant() {
        let mut r = StdRng::seed_from_u64(99);
        let n = 2_000;
        let mut s = DynamicScheme::new(n, 8);
        let mut inserted = 0u64;
        for _ in 0..10_000 {
            let u = r.gen_range(0..n as u32);
            let v = r.gen_range(0..n as u32);
            if s.insert_edge(u, v) > 0 {
                inserted += 1;
            }
        }
        // <= 2 per insertion + 1 per promotion.
        assert!(
            s.relabel_count() <= 2 * inserted + s.promotion_count() + 1,
            "relabels {} for {} insertions and {} promotions",
            s.relabel_count(),
            inserted,
            s.promotion_count()
        );
    }

    #[test]
    fn matches_static_scheme_answers() {
        use crate::scheme::AdjacencyScheme;
        let mut r = StdRng::seed_from_u64(5);
        let g = pl_gen::chung_lu_power_law(500, 2.5, 4.0, &mut r);
        let tau = 10;
        let mut dynamic = DynamicScheme::new(500, tau);
        for (u, v) in g.edges() {
            dynamic.insert_edge(u, v);
        }
        let static_l = crate::threshold::ThresholdScheme::with_tau(tau).encode(&g);
        let sdec = crate::threshold::ThresholdDecoder;
        let ddec = DynamicDecoder;
        for _ in 0..5_000 {
            let u = r.gen_range(0..500u32);
            let v = r.gen_range(0..500u32);
            assert_eq!(
                ddec.adjacent(dynamic.label(u), dynamic.label(v)),
                sdec.adjacent(static_l.label(u), static_l.label(v)),
            );
        }
    }

    #[test]
    fn dynamic_labels_competitive_with_static() {
        use crate::scheme::AdjacencyScheme;
        let mut r = StdRng::seed_from_u64(6);
        let g = pl_gen::chung_lu_power_law(2_000, 2.5, 4.0, &mut r);
        let tau = crate::theory::powerlaw_tau(2_000, 2.5, 1.0);
        let mut dynamic = DynamicScheme::new(2_000, tau);
        for (u, v) in g.edges() {
            dynamic.insert_edge(u, v);
        }
        let static_bits = crate::threshold::ThresholdScheme::with_tau(tau)
            .encode(&g)
            .max_bits();
        // The triangular layout can only save bits relative to the static
        // square bitmaps; allow slack for the extra fat-index field.
        assert!(
            dynamic.max_bits() <= static_bits + 2 * 11,
            "dynamic {} vs static {static_bits}",
            dynamic.max_bits()
        );
    }

    #[test]
    fn rebuild_rebalances() {
        let mut r = StdRng::seed_from_u64(7);
        let n = 300;
        let mut s = DynamicScheme::new(n, 2); // too-low tau: everything fat
        for _ in 0..900 {
            let u = r.gen_range(0..n as u32);
            let v = r.gen_range(0..n as u32);
            s.insert_edge(u, v);
        }
        let before = s.max_bits();
        let rewritten = s.rebuild(12);
        assert_eq!(rewritten, n);
        check_all(&s);
        assert!(s.max_bits() < before, "{} !< {before}", s.max_bits());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_tau() {
        let _ = DynamicScheme::new(4, 0);
    }
}
