//! Cutting one labeling into per-partition sub-stores.
//!
//! Each backend's sub-store keeps all `n` label slots so vertex ids
//! stay global (the wire protocol's `u32` ids need no translation):
//! vertices the backend *owns* (HRW top-`R` includes it) carry their
//! full label, bit for bit; every other vertex carries only a **prelude
//! stub** — the 6-bit id width, the `w`-bit scheme id, and the fat
//! flag, with nothing after. A stub is distinguishable from any real
//! label (even a degree-0 thin label carries a γ-coded list length
//! after the flag), parses as a
//! [`ThresholdLabel`](pl_labeling::threshold::ThresholdLabel), and
//! gives no one-sided answer — which is exactly the `NotOwned` signal
//! the router keys failover on.
//!
//! The cut itself is [`pl_labeling::threshold::cut`], the same loop a
//! backend runs to shrink after a rebalance; this module adds the
//! scheme check and the size report.
//!
//! The payoff: a stub costs `7 + ⌈log₂ n⌉` bits regardless of degree,
//! so a partition's store shrinks toward `(R/B)·|labels| + n·O(log n)`
//! bits while still answering every query some owner can answer.
//!
//! Only the threshold scheme is splittable — it is the one whose
//! decoder reads the *other* endpoint's scheme id from the prelude
//! alone. Other tags are refused rather than silently mis-served.

use pl_labeling::threshold::cut;
use pl_serve::{Partitioner, SchemeTag, TaggedLabeling};

/// Why a labeling could not be split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitError {
    /// Only [`SchemeTag::Threshold`] labelings are splittable.
    UnsupportedScheme(SchemeTag),
    /// Vertex's label is too short to carry even a prelude.
    Malformed(u32),
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedScheme(tag) => {
                write!(f, "cannot split a {} labeling (threshold only)", tag.name())
            }
            Self::Malformed(v) => write!(f, "label of vertex {v} has no readable prelude"),
        }
    }
}

impl std::error::Error for SplitError {}

/// Size accounting for one backend's sub-store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReport {
    /// Vertices whose full label this backend carries.
    pub owned: u32,
    /// Vertices reduced to prelude stubs.
    pub stubbed: u32,
    /// Total bits of the sub-store's labels.
    pub bits: u64,
}

/// Cuts the sub-store of one backend: full labels for vertices `backend`
/// owns, prelude stubs for the rest. Owned labels are bit-identical to
/// the input's (the tests pin byte equality per vertex).
pub fn split_one(
    tagged: &TaggedLabeling,
    part: &Partitioner,
    backend: u32,
) -> Result<(TaggedLabeling, SplitReport), SplitError> {
    cut_tagged(tagged, |v| part.owns(backend, v))
}

/// Reduces *every* vertex to a prelude stub — the sub-store of a
/// backend that owns nothing yet. A joining backend serves this store
/// (answering `NotOwned` to everything, which the router fails over)
/// until a reconfiguration streams its share of full labels in.
pub fn stub_all(tagged: &TaggedLabeling) -> Result<(TaggedLabeling, SplitReport), SplitError> {
    cut_tagged(tagged, |_| false)
}

/// [`cut`]s `tagged` with `owns` and accounts for the result.
fn cut_tagged(
    tagged: &TaggedLabeling,
    mut owns: impl FnMut(u32) -> bool,
) -> Result<(TaggedLabeling, SplitReport), SplitError> {
    if tagged.tag != SchemeTag::Threshold {
        return Err(SplitError::UnsupportedScheme(tagged.tag));
    }
    let mut owned = 0u32;
    let labeling = cut(&tagged.labeling, |v| {
        let o = owns(v);
        owned += u32::from(o);
        o
    })
    .map_err(SplitError::Malformed)?;
    let report = SplitReport {
        owned,
        stubbed: labeling.len() as u32 - owned,
        bits: labeling.total_bits() as u64,
    };
    Ok((
        TaggedLabeling {
            tag: tagged.tag,
            labeling,
        },
        report,
    ))
}

/// Cuts every backend's sub-store. `reports[b]` accounts for
/// `parts[b]`.
pub fn split_all(
    tagged: &TaggedLabeling,
    part: &Partitioner,
) -> Result<(Vec<TaggedLabeling>, Vec<SplitReport>), SplitError> {
    let mut parts = Vec::with_capacity(part.backends());
    let mut reports = Vec::with_capacity(part.backends());
    for b in 0..part.backends() as u32 {
        let (sub, report) = split_one(tagged, part, b)?;
        parts.push(sub);
        reports.push(report);
    }
    Ok((parts, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_labeling::scheme::AdjacencyScheme;
    use pl_labeling::ThresholdScheme;
    use pl_serve::{LabelStore, StoreConfig, StoreError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encode(g: &pl_graph::Graph, tau: usize) -> TaggedLabeling {
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: ThresholdScheme::with_tau(tau).encode(g),
        }
    }

    fn power_law(n: usize, seed: u64) -> pl_graph::Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        pl_gen::chung_lu_power_law(n, 2.5, 4.0, &mut rng)
    }

    #[test]
    fn owned_labels_are_byte_identical_and_stubs_are_prelude_only() {
        let g = power_law(400, 11);
        let tagged = encode(&g, 6);
        let part = Partitioner::new(0x51, 4, 2);
        let (parts, reports) = split_all(&tagged, &part).expect("split");
        assert_eq!(parts.len(), 4);
        for (b, (sub, report)) in parts.iter().zip(&reports).enumerate() {
            assert_eq!(sub.labeling.len(), tagged.labeling.len());
            let mut owned = 0u32;
            for v in 0..tagged.labeling.len() as u32 {
                let full = tagged.labeling.label(v);
                let cut = sub.labeling.label(v);
                if part.owns(b as u32, v) {
                    owned += 1;
                    assert_eq!(cut, full, "backend {b} vertex {v} not bit-identical");
                } else {
                    assert!(
                        cut.bit_len() < full.bit_len() || full.bit_len() <= cut.bit_len() + 1,
                        "stub of {v} not smaller: {} vs {}",
                        cut.bit_len(),
                        full.bit_len()
                    );
                    // Prelude parses; the first content read fails.
                    let mut r = cut.reader();
                    let w = r.read_bits(6).expect("stub id width") as usize;
                    r.read_bits(w).expect("stub scheme id");
                    r.read_bit().expect("stub fat flag");
                    assert_eq!(r.read_gamma(), None, "stub of {v} carries content");
                }
            }
            assert_eq!(report.owned, owned);
            assert_eq!(report.stubbed + report.owned, 400);
            assert!(report.bits < tagged.labeling.total_bits() as u64);
        }
        // Every vertex is owned by exactly R backends.
        let total_owned: u32 = reports.iter().map(|r| r.owned).sum();
        assert_eq!(total_owned, 2 * 400);
    }

    #[test]
    fn sub_stores_round_trip_through_plab_bytes() {
        let g = power_law(200, 3);
        let tagged = encode(&g, 5);
        let part = Partitioner::new(9, 3, 2);
        let (sub, _) = split_one(&tagged, &part, 1).expect("split");
        let bytes = sub.to_bytes();
        let back = TaggedLabeling::from_bytes(&bytes).expect("parse");
        assert_eq!(back, sub);
    }

    #[test]
    fn every_query_is_answerable_at_some_candidate() {
        let g = power_law(300, 21);
        let tagged = encode(&g, 5);
        let part = Partitioner::new(77, 3, 2);
        let (parts, _) = split_all(&tagged, &part).expect("split");
        let stores: Vec<LabelStore> = parts
            .into_iter()
            .map(|sub| LabelStore::new(sub, StoreConfig::default()).with_partial(true))
            .collect();
        let n = g.vertex_count() as u32;
        for u in 0..n {
            for v in 0..n {
                let want = g.has_edge(u, v);
                let mut answered = false;
                for b in part.candidates(u, v) {
                    match stores[b as usize].adjacent(u, v) {
                        Ok(got) => {
                            assert_eq!(got, want, "({u},{v}) wrong at backend {b}");
                            answered = true;
                            break;
                        }
                        Err(StoreError::NotOwned) => continue,
                        Err(e) => panic!("({u},{v}) at backend {b}: {e:?}"),
                    }
                }
                assert!(answered, "({u},{v}) unanswerable along candidate list");
            }
        }
    }

    #[test]
    fn non_threshold_schemes_are_refused() {
        let g = power_law(50, 1);
        let tagged = TaggedLabeling {
            tag: SchemeTag::AdjList,
            labeling: encode(&g, 4).labeling,
        };
        let part = Partitioner::new(1, 2, 1);
        assert_eq!(
            split_one(&tagged, &part, 0).unwrap_err(),
            SplitError::UnsupportedScheme(SchemeTag::AdjList)
        );
    }
}
