//! The scheme-tagged labeling container (`.plab` files) and runtime
//! decoder dispatch.
//!
//! A labeling on disk is a 1-byte scheme tag followed by the
//! [`Labeling`] `PLL2` container, the same bytes a `LABELS` frame
//! carries as its body (see `crates/labeling/FORMAT.md`). The tag picks the decoder, keeping the
//! decoder itself graph-independent: any process holding the file — the
//! CLI, the serving engine, a remote peer — can answer queries without
//! the graph. [`SchemeTag::try_adjacent`] and [`SchemeTag::try_distance`]
//! dispatch to the concrete decoder a tag names, so consumers (serve,
//! bench, CLI) depend on this crate and never the reverse. Both decode
//! with checked reads: a malformed label answers `None`, never a panic.

use std::fs;
use std::path::Path;

use crate::baseline::{AdjListDecoder, MoonDecoder};
use crate::distance::DistanceDecoder;
use crate::forest::OrientationDecoder;
use crate::label::{LabelRef, Labeling, WireError};
use crate::scheme::AdjacencyDecoder;
use crate::threshold::ThresholdDecoder;

/// Which decoder a labeling requires. The discriminants are the on-disk
/// and on-wire tag bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SchemeTag {
    /// Fat/thin threshold labels (powerlaw, sparse, and `tau:N` schemes
    /// share this decoder).
    Threshold = 1,
    /// Adjacency-list baseline labels.
    AdjList = 2,
    /// Low-outdegree orientation labels.
    Orientation = 3,
    /// Moon-style baseline labels.
    Moon = 4,
    /// `f`-bounded distance labels (Lemma 7); answers distance queries,
    /// and adjacency as `distance == 1`.
    Distance = 5,
}

impl SchemeTag {
    /// Every defined tag, in tag-byte order.
    pub const ALL: [SchemeTag; 5] = [
        Self::Threshold,
        Self::AdjList,
        Self::Orientation,
        Self::Moon,
        Self::Distance,
    ];

    /// Parses a tag byte.
    #[must_use]
    pub fn from_u8(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Self::Threshold),
            2 => Some(Self::AdjList),
            3 => Some(Self::Orientation),
            4 => Some(Self::Moon),
            5 => Some(Self::Distance),
            _ => None,
        }
    }

    /// The tag byte.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Human-readable decoder name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Threshold => "threshold",
            Self::AdjList => "adjlist",
            Self::Orientation => "orientation",
            Self::Moon => "moon",
            Self::Distance => "distance",
        }
    }

    /// `true` iff this scheme can answer distance queries.
    #[must_use]
    pub fn supports_distance(self) -> bool {
        matches!(self, Self::Distance)
    }

    /// Adjacency by the decoder this tag names; `None` when a label is
    /// malformed. For [`SchemeTag::Distance`], adjacency is
    /// `distance == 1`.
    #[must_use]
    pub fn try_adjacent(self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<bool> {
        match self {
            Self::Threshold => ThresholdDecoder.try_adjacent(a, b),
            Self::AdjList => AdjListDecoder.try_adjacent(a, b),
            Self::Orientation => OrientationDecoder.try_adjacent(a, b),
            Self::Moon => MoonDecoder.try_adjacent(a, b),
            Self::Distance => Some(DistanceDecoder.try_distance(a, b)? == Some(1)),
        }
    }

    /// Bounded distance by the decoder this tag names: `Some(None)` when
    /// the scheme cannot bound it (or, for [`SchemeTag::Distance`], when
    /// it exceeds `f`), and `None` when a label is malformed.
    #[must_use]
    pub fn try_distance(self, a: LabelRef<'_>, b: LabelRef<'_>) -> Option<Option<u32>> {
        match self {
            Self::Distance => DistanceDecoder.try_distance(a, b),
            _ => Some(None),
        }
    }
}

/// Error loading a tagged labeling.
#[derive(Debug)]
pub enum FormatError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file was empty (no tag byte).
    Empty,
    /// The tag byte named no known scheme.
    UnknownTag(u8),
    /// The labeling body did not parse.
    Wire(WireError),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "reading labeling: {e}"),
            Self::Empty => write!(f, "empty labeling file"),
            Self::UnknownTag(t) => write!(f, "unknown scheme tag {t}"),
            Self::Wire(e) => write!(f, "parsing labeling: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<WireError> for FormatError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A labeling plus the tag naming its decoder — the unit the server loads
/// and the CLI writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedLabeling {
    /// Decoder selector.
    pub tag: SchemeTag,
    /// The labels.
    pub labeling: Labeling,
}

impl TaggedLabeling {
    /// Serializes as tag byte + `PLL2` labeling container.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![self.tag.as_u8()];
        out.extend_from_slice(&self.labeling.to_bytes());
        out
    }

    /// Parses the container format; safe on untrusted bytes. A body
    /// that is not `PLL2` (a retired `PLL1` file, say) is
    /// [`WireError::BadMagic`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, FormatError> {
        let (&tag, body) = buf.split_first().ok_or(FormatError::Empty)?;
        let tag = SchemeTag::from_u8(tag).ok_or(FormatError::UnknownTag(tag))?;
        let labeling = Labeling::from_bytes(body)?;
        Ok(Self { tag, labeling })
    }

    /// Reads a `.plab` file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FormatError> {
        Self::from_bytes(&fs::read(path)?)
    }

    /// Writes a `.plab` file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        fs::write(path, self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::AdjacencyScheme;
    use crate::ThresholdScheme;

    #[test]
    fn tag_round_trip() {
        for tag in SchemeTag::ALL {
            assert_eq!(SchemeTag::from_u8(tag.as_u8()), Some(tag));
        }
        assert_eq!(SchemeTag::from_u8(0), None);
        assert_eq!(SchemeTag::from_u8(200), None);
    }

    #[test]
    fn container_round_trip_and_dispatch() {
        let g = pl_graph::builder::from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4)]);
        let tagged = TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: ThresholdScheme::with_tau(2).encode(&g),
        };
        let back = TaggedLabeling::from_bytes(&tagged.to_bytes()).unwrap();
        assert_eq!(back, tagged);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    back.tag
                        .try_adjacent(back.labeling.label(u), back.labeling.label(v)),
                    Some(g.has_edge(u, v))
                );
            }
        }
    }

    #[test]
    fn bad_container_is_an_error() {
        assert!(matches!(
            TaggedLabeling::from_bytes(&[]),
            Err(FormatError::Empty)
        ));
        assert!(matches!(
            TaggedLabeling::from_bytes(&[9, 1, 2, 3]),
            Err(FormatError::UnknownTag(9))
        ));
        assert!(matches!(
            TaggedLabeling::from_bytes(&[1, 1, 2, 3]),
            Err(FormatError::Wire(_))
        ));
    }
}
