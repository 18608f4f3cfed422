//! Induced-universal graphs from labeling schemes (Kannan–Naor–Rudich).
//!
//! The paper (Section 1.2) leans on the classic equivalence: an adjacency
//! labeling scheme of size `f(n)` for a family `F_n` constructs an
//! *induced-universal graph* for `F_n` with at most `2^{f(n)}` vertices —
//! take every possible label as a vertex and connect two labels iff the
//! decoder says "adjacent". Every graph of the family then appears as an
//! induced subgraph (its own labels are the hosting vertex set). The
//! paper's Theorem 4 + Theorem 6 therefore pin the smallest induced-
//! universal graph for power-law graphs to `2^{Θ̃(n^{1/α})}` vertices.
//!
//! Materializing all `2^{f}` labels is hopeless, but the *reachable*
//! universal graph — the union of the labels actually produced over a
//! family — is exactly as universal for that family and small enough to
//! build and test. [`InducedUniversalGraph::build`] does that, and
//! [`InducedUniversalGraph::verify_embedding`] checks the induced-subgraph
//! property explicitly, which is a strong end-to-end test of a scheme's
//! decoder consistency: if the decoder depended on anything but the two
//! labels, some family member would embed wrongly.

use std::collections::HashMap;

use pl_graph::{Graph, GraphBuilder, VertexId};

use crate::label::Label;
use crate::scheme::{AdjacencyDecoder, AdjacencyScheme};

/// An explicit induced-universal graph for a finite family, built from a
/// labeling scheme.
#[derive(Debug, Clone)]
pub struct InducedUniversalGraph {
    /// The universal graph over distinct labels.
    graph: Graph,
    /// The distinct labels, indexed by universal-vertex id.
    labels: Vec<Label>,
    /// For each family member, the universal vertices hosting it
    /// (position `v` = host of the member's vertex `v`).
    hosts: Vec<Vec<VertexId>>,
}

impl InducedUniversalGraph {
    /// Builds the reachable universal graph of `scheme` over `family`.
    ///
    /// Labels are deduplicated across the family; edges are decided by the
    /// scheme's decoder on every label pair (so the construction costs
    /// `O(L²)` decoder calls for `L` distinct labels — fine for the small
    /// exhaustive families this is meant for).
    #[must_use]
    pub fn build<S: AdjacencyScheme>(scheme: &S, family: &[Graph]) -> Self
    where
        S::Decoder: Default,
    {
        let dec = S::Decoder::default();
        let mut index: HashMap<Label, VertexId> = HashMap::new();
        let mut labels: Vec<Label> = Vec::new();
        let mut hosts = Vec::with_capacity(family.len());

        for g in family {
            let labeling = scheme.encode(g);
            let mut host = Vec::with_capacity(g.vertex_count());
            for v in g.vertices() {
                let l = labeling.label(v).to_label();
                let id = *index.entry(l.clone()).or_insert_with(|| {
                    labels.push(l);
                    (labels.len() - 1) as VertexId
                });
                host.push(id);
            }
            hosts.push(host);
        }

        let mut b = GraphBuilder::new(labels.len());
        for i in 0..labels.len() as VertexId {
            for j in i + 1..labels.len() as VertexId {
                if dec.adjacent(labels[i as usize].view(), labels[j as usize].view()) {
                    b.add_edge(i, j);
                }
            }
        }
        Self {
            graph: b.build(),
            labels,
            hosts,
        }
    }

    /// The universal graph itself.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of distinct labels = universal vertices.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// The longest label, in bits: the universal graph has at most
    /// `2^{max_label_bits + 1}` vertices (KNR bound).
    #[must_use]
    pub fn max_label_bits(&self) -> usize {
        self.labels.iter().map(Label::bit_len).max().unwrap_or(0)
    }

    /// Verifies that family member `idx` is an induced subgraph of the
    /// universal graph under its recorded host mapping. Returns the first
    /// offending pair if not.
    pub fn verify_embedding(&self, idx: usize, member: &Graph) -> Result<(), (VertexId, VertexId)> {
        let host = &self.hosts[idx];
        assert_eq!(host.len(), member.vertex_count(), "family mismatch");
        for u in member.vertices() {
            for v in member.vertices() {
                if u < v {
                    let adj_u = self.graph.has_edge(host[u as usize], host[v as usize]);
                    if adj_u != member.has_edge(u, v) {
                        return Err((u, v));
                    }
                }
            }
        }
        // Induced also requires host vertices to be distinct.
        let mut sorted: Vec<VertexId> = host.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != host.len() {
            return Err((0, 0));
        }
        Ok(())
    }
}

/// Enumerates every labeled graph on `k` vertices (all `2^{k(k−1)/2}`
/// edge subsets). Meant for exhaustive universality tests with `k ≤ 5`.
///
/// # Panics
///
/// Panics for `k > 6` (the enumeration would be enormous).
#[must_use]
pub fn all_graphs_on(k: usize) -> Vec<Graph> {
    assert!(k <= 6, "all_graphs_on is exhaustive; k = {k} is too large");
    let pairs: Vec<(VertexId, VertexId)> = (0..k as VertexId)
        .flat_map(|u| (u + 1..k as VertexId).map(move |v| (u, v)))
        .collect();
    let total = 1usize << pairs.len();
    (0..total)
        .map(|mask| {
            let mut b = GraphBuilder::new(k);
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    b.add_edge(u, v);
                }
            }
            b.build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{AdjListScheme, MoonScheme};
    use crate::threshold::ThresholdScheme;

    fn verify_family<S: AdjacencyScheme>(scheme: &S, family: &[Graph])
    where
        S::Decoder: Default,
    {
        let u = InducedUniversalGraph::build(scheme, family);
        for (i, g) in family.iter().enumerate() {
            u.verify_embedding(i, g)
                .unwrap_or_else(|(a, b)| panic!("member {i} broken at pair ({a}, {b})"));
        }
    }

    #[test]
    fn universal_for_all_graphs_on_four_vertices_threshold() {
        let family = all_graphs_on(4);
        assert_eq!(family.len(), 64);
        for tau in [1usize, 2, 4] {
            verify_family(&ThresholdScheme::with_tau(tau), &family);
        }
    }

    #[test]
    fn universal_for_all_graphs_on_four_vertices_baselines() {
        let family = all_graphs_on(4);
        verify_family(&AdjListScheme, &family);
        verify_family(&MoonScheme, &family);
    }

    #[test]
    fn universal_graph_size_respects_knr_bound() {
        let family = all_graphs_on(4);
        let u = InducedUniversalGraph::build(&MoonScheme, &family);
        // KNR: at most 2^{f+1} vertices for f-bit labels; here f ≤ 13.
        assert!(u.vertex_count() <= 1 << (u.max_label_bits() + 1));
        // And far fewer in practice.
        assert!(u.vertex_count() <= 64 * 4);
    }

    #[test]
    fn moon_labels_shared_across_family() {
        // Moon's vertex-0 label is always the same 6+w bits: the universal
        // graph must reuse it, so distinct labels < members × vertices.
        let family = all_graphs_on(3);
        let u = InducedUniversalGraph::build(&MoonScheme, &family);
        assert!(u.vertex_count() < family.len() * 3);
    }

    #[test]
    fn five_vertex_spot_family() {
        // All 1024 graphs on 5 vertices is affordable for one scheme.
        let family = all_graphs_on(5);
        assert_eq!(family.len(), 1024);
        verify_family(&ThresholdScheme::with_tau(2), &family);
    }

    #[test]
    fn all_graphs_enumeration_counts() {
        assert_eq!(all_graphs_on(0).len(), 1);
        assert_eq!(all_graphs_on(1).len(), 1);
        assert_eq!(all_graphs_on(2).len(), 2);
        assert_eq!(all_graphs_on(3).len(), 8);
        let triangle_count = all_graphs_on(3)
            .iter()
            .filter(|g| g.edge_count() == 3)
            .count();
        assert_eq!(triangle_count, 1);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn enumeration_rejects_large_k() {
        let _ = all_graphs_on(7);
    }
}
