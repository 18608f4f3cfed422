//! Forest labeling and the arboricity-based scheme of Proposition 5.
//!
//! Proposition 5 labels BA-model graphs by decomposing them into `O(m)`
//! forests and labeling each forest with a tree scheme. Two variants:
//!
//! * [`ForestScheme`] — for graphs that *are* forests: root every tree and
//!   store a parent pointer; `2·log n + O(1)` bits. (The paper cites the
//!   `log n + O(1)` scheme of Alstrup–Dahlgaard–Knudsen; the parent-pointer
//!   scheme is the standard simple variant, costing one extra `log n` — see
//!   DESIGN.md §4.)
//! * [`OrientationScheme`] — for arbitrary graphs: orient edges by
//!   degeneracy and store each vertex's out-neighbour list,
//!   `(outdeg+1)·log n + O(log)` bits with `outdeg ≤ 2·arboricity − 1`.
//!   On a BA graph this is the offline `O(m log n)` scheme of
//!   Proposition 5.

use pl_graph::components::connected_components;
use pl_graph::degeneracy::orient_by_degeneracy;
use pl_graph::traversal::bfs_distances;
use pl_graph::{Graph, VertexId, UNREACHABLE};

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef, Labeling};
use crate::scheme::{
    id_width, list_contains, read_prelude, write_prelude, AdjacencyDecoder, AdjacencyScheme,
};

/// Parent-pointer adjacency labeling for forests.
///
/// ## Label format
///
/// ```text
/// prelude (6-bit width w, w-bit id), 1 bit has-parent, [w-bit parent id]
/// ```
///
/// Two vertices are adjacent iff one is the other's parent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestScheme;

impl ForestScheme {
    /// Whether `g` is a forest (no cycles): `m = n − #components`.
    #[must_use]
    pub fn applicable(g: &Graph) -> bool {
        let comps = connected_components(g);
        g.edge_count() + comps.count() == g.vertex_count()
    }
}

impl AdjacencyScheme for ForestScheme {
    type Decoder = ForestDecoder;

    fn name(&self) -> &'static str {
        "forest parent-pointer"
    }

    /// # Panics
    ///
    /// Panics if `g` contains a cycle (check [`ForestScheme::applicable`]).
    fn encode(&self, g: &Graph) -> Labeling {
        assert!(
            Self::applicable(g),
            "ForestScheme requires a forest; the input has a cycle"
        );
        let n = g.vertex_count();
        let w = id_width(n);
        // Root each tree at its smallest vertex; parents via BFS layers.
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        let mut seen = vec![false; n];
        for root in 0..n as VertexId {
            if seen[root as usize] {
                continue;
            }
            let dist = bfs_distances(g, root);
            for v in 0..n as VertexId {
                if dist[v as usize] == UNREACHABLE || seen[v as usize] {
                    continue;
                }
                seen[v as usize] = true;
                if v != root {
                    parent[v as usize] = g
                        .neighbors(v)
                        .iter()
                        .copied()
                        .find(|&u| dist[u as usize] + 1 == dist[v as usize]);
                }
            }
        }
        let labels = (0..n as VertexId)
            .map(|v| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(v));
                match parent[v as usize] {
                    Some(p) => {
                        bw.write_bit(true);
                        bw.write_bits(u64::from(p), w);
                    }
                    None => bw.write_bit(false),
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }
}

/// Decoder for [`ForestScheme`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestDecoder;

impl AdjacencyDecoder for ForestDecoder {
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let parse = |l: LabelRef<'_>| {
            let mut r = l.reader();
            let (w, id) = read_prelude(&mut r)?;
            let parent = if r.read_bit()? {
                Some(r.read_bits(w)?)
            } else {
                None
            };
            Some((id, parent))
        };
        let (ida, pa) = parse(a)?;
        let (idb, pb) = parse(b)?;
        Some(ida != idb && (pa == Some(idb) || pb == Some(ida)))
    }
}

/// Low-outdegree-orientation adjacency labeling for arbitrary graphs.
///
/// ## Label format
///
/// ```text
/// prelude (6-bit width w, w-bit id), gamma(outdeg+1), outdeg × w-bit ids
/// ```
///
/// Adjacent iff either vertex lists the other as an out-neighbour. The
/// orientation is the degeneracy orientation, so labels cost
/// `(degeneracy(G)+1)·w + O(log)` bits — `O(m/n · log n)` on BA graphs,
/// realizing Proposition 5 without knowing the attachment history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrientationScheme;

impl AdjacencyScheme for OrientationScheme {
    type Decoder = OrientationDecoder;

    fn name(&self) -> &'static str {
        "degeneracy orientation"
    }

    fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let orientation = orient_by_degeneracy(g);
        let labels = (0..n as VertexId)
            .map(|v| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(v));
                let out = orientation.out_neighbors(v);
                bw.write_gamma(out.len() as u64 + 1);
                for &u in out {
                    bw.write_bits(u64::from(u), w);
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }
}

/// Decoder for [`OrientationScheme`] (and any out-list format): adjacent
/// iff either label's out-list contains the other's id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrientationDecoder;

impl AdjacencyDecoder for OrientationDecoder {
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let mut ra = a.reader();
        let (wa, ida) = read_prelude(&mut ra)?;
        let mut rb = b.reader();
        let (wb, idb) = read_prelude(&mut rb)?;
        if ida == idb {
            return Some(false);
        }
        Some(list_contains(&mut ra, wa, idb)? || list_contains(&mut rb, wb, ida)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_graph::builder::from_edges;

    fn check_all<S: AdjacencyScheme>(scheme: &S, g: &Graph)
    where
        S::Decoder: Default,
    {
        let labeling = scheme.encode(g);
        let dec = scheme.decoder();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    dec.adjacent(labeling.label(u), labeling.label(v)),
                    g.has_edge(u, v),
                    "{} failed on ({u}, {v})",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn forest_scheme_on_trees() {
        check_all(&ForestScheme, &pl_gen::classic::path(20));
        check_all(&ForestScheme, &pl_gen::classic::binary_tree(31));
        check_all(&ForestScheme, &pl_gen::classic::star(15));
    }

    #[test]
    fn forest_scheme_on_disconnected_forest() {
        let g = from_edges(8, [(0, 1), (1, 2), (3, 4), (6, 7)]);
        check_all(&ForestScheme, &g);
    }

    #[test]
    fn forest_label_size_two_ids() {
        let g = pl_gen::classic::path(1 << 16);
        let labeling = ForestScheme.encode(&g);
        assert!(labeling.max_bits() <= 6 + 16 + 1 + 16);
    }

    #[test]
    fn forest_applicability() {
        assert!(ForestScheme::applicable(&pl_gen::classic::path(5)));
        assert!(!ForestScheme::applicable(&pl_gen::classic::cycle(5)));
        assert!(ForestScheme::applicable(
            &pl_graph::GraphBuilder::new(3).build()
        ));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn forest_rejects_cycle() {
        let _ = ForestScheme.encode(&pl_gen::classic::cycle(4));
    }

    #[test]
    fn orientation_on_assorted_graphs() {
        check_all(&OrientationScheme, &pl_gen::classic::cycle(9));
        check_all(&OrientationScheme, &pl_gen::classic::complete(7));
        check_all(&OrientationScheme, &pl_gen::classic::grid(4, 5));
        check_all(&OrientationScheme, &pl_graph::GraphBuilder::new(4).build());
    }

    #[test]
    fn orientation_on_ba_graph_small_labels() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let ba = pl_gen::barabasi_albert(2_000, 3, &mut rng);
        let labeling = OrientationScheme.encode(&ba.graph);
        let dec = OrientationDecoder;
        for (u, v) in ba.graph.edges().take(2_000) {
            assert!(dec.adjacent(labeling.label(u), labeling.label(v)));
        }
        // Degeneracy of a BA(m=3) graph is exactly m = 3: labels stay tiny
        // even at hubs, unlike adjacency lists.
        let w = id_width(2_000);
        assert!(
            labeling.max_bits() <= 6 + (3 + 1) * w + 7,
            "max {} bits",
            labeling.max_bits()
        );
    }

    #[test]
    fn orientation_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let g = pl_gen::er::gnm(150, 450, &mut rng);
        check_all(&OrientationScheme, &g);
    }
}
