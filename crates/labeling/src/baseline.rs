//! Baseline schemes the paper compares against implicitly:
//! plain adjacency lists and Moon's general-graph bitmap scheme.

use pl_graph::{Graph, VertexId};

use crate::bits::BitWriter;
use crate::label::{Label, LabelRef, Labeling};
use crate::scheme::{
    id_width, list_contains, read_prelude, write_prelude, AdjacencyDecoder, AdjacencyScheme,
};

/// The naive adjacency-list labeling: every vertex stores all of its
/// neighbours' identifiers. Maximum label `≈ Δ·log n` bits — tiny on
/// average for sparse graphs but `Θ(n log n)` at a hub, which is exactly
/// the failure mode the paper's fat/thin split removes.
///
/// ## Label format
///
/// ```text
/// prelude (6-bit width w, w-bit id), gamma(deg+1), deg × w-bit ids
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdjListScheme;

impl AdjacencyScheme for AdjListScheme {
    type Decoder = AdjListDecoder;

    fn name(&self) -> &'static str {
        "adjacency list"
    }

    fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let labels = (0..n as VertexId)
            .map(|v| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(v));
                bw.write_gamma(g.degree(v) as u64 + 1);
                for &u in g.neighbors(v) {
                    bw.write_bits(u64::from(u), w);
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }
}

/// Decoder for [`AdjListScheme`]: scan the first label's list for the
/// second label's id (both lists are complete; one suffices).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdjListDecoder;

impl AdjacencyDecoder for AdjListDecoder {
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let mut ra = a.reader();
        let (w, ida) = read_prelude(&mut ra)?;
        let (_, idb) = read_prelude(&mut b.reader())?;
        if ida == idb {
            return Some(false);
        }
        list_contains(&mut ra, w, idb)
    }
}

/// Moon's classic general-graph scheme, made explicit: vertex `v` stores a
/// bitmap of its adjacency to every vertex with a *smaller* identifier.
/// Maximum label `n + O(log n)` bits — the `n/2`-style baseline the paper's
/// lower bounds are calibrated against. Only sensible for small graphs.
///
/// ## Label format
///
/// ```text
/// prelude (6-bit width w, w-bit id), then exactly `id` bitmap bits
/// (bit j = adjacent to vertex j, for j < id)
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoonScheme;

impl AdjacencyScheme for MoonScheme {
    type Decoder = MoonDecoder;

    fn name(&self) -> &'static str {
        "half bitmap (Moon)"
    }

    fn encode(&self, g: &Graph) -> Labeling {
        let n = g.vertex_count();
        let w = id_width(n);
        let labels = (0..n as VertexId)
            .map(|v| {
                let mut bw = BitWriter::new();
                write_prelude(&mut bw, w, u64::from(v));
                let nbrs = g.neighbors(v);
                let mut it = nbrs.iter().peekable();
                for j in 0..v {
                    // Neighbour lists are sorted: advance in lockstep.
                    while it.peek().is_some_and(|&&u| u < j) {
                        it.next();
                    }
                    bw.write_bit(it.peek().is_some_and(|&&u| u == j));
                }
                Label::from(bw)
            })
            .collect();
        Labeling::new(labels)
    }
}

/// Decoder for [`MoonScheme`]: the higher-id label holds the bit for the
/// lower-id vertex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoonDecoder;

impl AdjacencyDecoder for MoonDecoder {
    fn try_adjacent(&self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        let mut ra = a.reader();
        let (_, ida) = read_prelude(&mut ra)?;
        let mut rb = b.reader();
        let (_, idb) = read_prelude(&mut rb)?;
        if ida == idb {
            return Some(false);
        }
        let (mut hi, lo) = if ida > idb { (ra, idb) } else { (rb, ida) };
        hi.skip(lo as usize)?;
        hi.read_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_graph::builder::from_edges;
    use pl_graph::GraphBuilder;

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

    fn test_graphs() -> Vec<Graph> {
        vec![
            GraphBuilder::new(1).build(),
            from_edges(2, [(0, 1)]),
            from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
            from_edges(7, [(0, 1), (2, 3), (4, 5)]),
            pl_gen::classic::complete(8),
        ]
    }

    #[test]
    fn adjlist_correct() {
        for g in test_graphs() {
            check_all(&AdjListScheme, &g);
        }
    }

    #[test]
    fn moon_correct() {
        for g in test_graphs() {
            check_all(&MoonScheme, &g);
        }
    }

    #[test]
    fn moon_label_sizes() {
        let g = pl_gen::classic::complete(32);
        let labeling = MoonScheme.encode(&g);
        // Vertex 31 stores 31 bitmap bits + prelude (6 + 5).
        assert_eq!(labeling.label(31).bit_len(), 6 + 5 + 31);
        assert_eq!(labeling.label(0).bit_len(), 6 + 5);
        assert!(labeling.max_bits() <= 32 + 11);
    }

    #[test]
    fn adjlist_hub_label_is_large() {
        let g = pl_gen::classic::star(1024);
        let labeling = AdjListScheme.encode(&g);
        let hub = labeling.label(0).bit_len();
        let leaf = labeling.label(1).bit_len();
        assert!(hub > 1023 * 10, "hub {hub} bits");
        assert!(leaf < 40, "leaf {leaf} bits");
    }

    #[test]
    fn adjlist_on_random_graph() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let g = pl_gen::er::gnm(100, 300, &mut rng);
        check_all(&AdjListScheme, &g);
        check_all(&MoonScheme, &g);
    }
}
