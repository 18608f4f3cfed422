//! The serializable cluster map and the one reconfiguration policy:
//! the backend (`server`), the router and the rebalance coordinator
//! (`pl-cluster`) call it and keep no rule of their own.
//!
//! A [`ClusterMap`] is everything a router needs to reconstruct the
//! assignment: the HRW seed, the replication factor, the vertex count
//! and scheme tag of the labeling it was cut from, and the backend
//! addresses whose *indices* are the backend ids the partitioner
//! scores. [`ClusterMap::from_bytes`] is the one validity check: the
//! wire's envelope check [`validate_map_blob`] (magic, size, FNV-1a-32
//! checksum), then the map rule [`ClusterMap::validate`].
//! [`ClusterMap::check_labeling`] is the one `n`/tag compatibility
//! check, and an [`EpochFence`] gives every epoch verdict.
//!
//! Layout (integers little-endian), then the checksum of every
//! preceding byte:
//!
//! ```text
//! MAP_MAGIC | ver u8 | epoch u64 | seed u64 | replicas u32 | n u32
//!           | tag u8 | backends u16 | backends × (len u16, utf-8 bytes)
//! ```

use std::path::Path;

use pl_wire::bytes::{le_u16, le_u32, le_u64};
use pl_wire::protocol::{checksum, validate_map_blob, MapSetStatus, ProtocolError, MAP_MAGIC};

use crate::partition::Partitioner;

/// Serialization version this build writes and accepts.
pub const MAP_VERSION: u8 = 1;

/// The cluster topology: partitioning parameters plus the
/// backend-address list (index = backend id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    /// Fencing token: a rebalancer bumps this; routers prefer the
    /// highest epoch they have seen.
    pub epoch: u64,
    /// HRW seed the assignment derives from.
    pub seed: u64,
    /// Owners per vertex.
    pub replicas: u32,
    /// Vertex count of the labeling this map was cut from.
    pub n: u32,
    /// Scheme tag byte of that labeling (see `pl_serve::SchemeTag`).
    pub tag: u8,
    /// Backend addresses; the vector index is the backend id.
    pub backends: Vec<String>,
}

/// Why a map was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Too short, bad magic, bad version, or a malformed field.
    Malformed(&'static str),
    /// The trailing FNV checksum did not match.
    Checksum,
    /// The map breaks the map rule or serves another labeling.
    Invalid(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(what) => write!(f, "malformed cluster map: {what}"),
            Self::Checksum => write!(f, "cluster map checksum mismatch"),
            Self::Invalid(why) => write!(f, "invalid cluster map: {why}"),
        }
    }
}

impl std::error::Error for MapError {}

impl ClusterMap {
    /// The partitioner this map describes.
    ///
    /// # Panics
    ///
    /// Panics if the map has no backends.
    #[must_use]
    pub fn partitioner(&self) -> Partitioner {
        Partitioner::new(self.seed, self.backends.len(), self.replicas as usize)
    }

    /// The map rule: `1 ≤ replicas ≤ backends`, so at least one
    /// backend. Every parsed map has passed it.
    pub fn validate(&self) -> Result<(), MapError> {
        let (backends, replicas) = (self.backends.len(), self.replicas);
        if replicas == 0 || replicas as usize > backends {
            return Err(MapError::Invalid(format!(
                "{backends} backends cannot carry {replicas} replicas"
            )));
        }
        Ok(())
    }

    /// Whether this map serves the labeling of `n` vertices under
    /// scheme tag `tag`: the map must have been cut from it.
    pub fn check_labeling(&self, n: u32, tag: u8) -> Result<(), MapError> {
        if (self.n, self.tag) != (n, tag) {
            return Err(MapError::Invalid(format!(
                "map is for n {} tag {}, the labeling has n {n} tag {tag}",
                self.n, self.tag
            )));
        }
        Ok(())
    }

    /// Serializes the map (layout in the module docs).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(36 + self.backends.len() * 24);
        b.extend_from_slice(&MAP_MAGIC);
        b.push(MAP_VERSION);
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.replicas.to_le_bytes());
        b.extend_from_slice(&self.n.to_le_bytes());
        b.push(self.tag);
        let count = u16::try_from(self.backends.len()).expect("more than u16::MAX backends"); // lint: panic-ok(map construction is operator-driven config, not a request path; 65k backends is a deployment error)
        b.extend_from_slice(&count.to_le_bytes());
        for addr in &self.backends {
            let len = u16::try_from(addr.len()).expect("backend address over 64 KiB"); // lint: panic-ok(addresses come from operator config validated at parse time; a 64 KiB host:port is a deployment error)
            b.extend_from_slice(&len.to_le_bytes());
            b.extend_from_slice(addr.as_bytes());
        }
        let sum = checksum(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    /// Parses a serialized map and applies the map rule. Total on
    /// untrusted input: every failure is a [`MapError`], never a panic
    /// or an oversized allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MapError> {
        // At least the 32-byte fixed header once the envelope passes.
        let body = validate_map_blob(bytes).map_err(|e| match e {
            ProtocolError::ChecksumMismatch => MapError::Checksum,
            _ => MapError::Malformed("bad envelope"),
        })?;
        if body[4] != MAP_VERSION {
            return Err(MapError::Malformed("unsupported map version"));
        }
        let count = le_u16(&body[30..32]) as usize;
        let mut backends = Vec::with_capacity(count.min(1024));
        let mut pos = 32;
        for _ in 0..count {
            let len_bytes = body
                .get(pos..pos + 2)
                .ok_or(MapError::Malformed("truncated address length"))?;
            let len = le_u16(len_bytes) as usize;
            pos += 2;
            let raw = body
                .get(pos..pos + len)
                .ok_or(MapError::Malformed("truncated address"))?;
            pos += len;
            let addr =
                std::str::from_utf8(raw).map_err(|_| MapError::Malformed("address not utf-8"))?;
            backends.push(addr.to_string());
        }
        if pos != body.len() {
            return Err(MapError::Malformed("trailing bytes"));
        }
        let map = Self {
            epoch: le_u64(&body[5..13]),
            seed: le_u64(&body[13..21]),
            replicas: le_u32(&body[21..25]),
            n: le_u32(&body[25..29]),
            tag: body[29],
            backends,
        };
        map.validate()?;
        Ok(map)
    }

    /// Writes the serialized map to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads and parses a map from `path`.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A `MAP_OK` verdict: the status and the receiver's committed epoch.
pub type MapVerdict = (MapSetStatus, u64);

/// The epoch rule, held once per participant: the committed epoch and
/// at most one staged successor `T` (a backend's buffered labels, a
/// router's next routing view).
///
/// - prepare: an epoch `≤ committed` is `Stale`; a newer one replaces
///   whatever was staged.
/// - commit: `≤ committed` is `Stale`; any epoch but the staged one is
///   `Failed`.
/// - abort: drops what is staged.
/// - `LABELS`: only the staged epoch takes labels; any other is
///   `WrongEpoch`.
/// - shrink: only the committed epoch; any other is `Stale`.
#[derive(Debug)]
pub struct EpochFence<T> {
    committed: u64,
    staged: Option<(u64, T)>,
}

impl<T> EpochFence<T> {
    /// A fence committed at `epoch` with nothing staged.
    #[must_use]
    pub const fn new(epoch: u64) -> Self {
        Self {
            committed: epoch,
            staged: None,
        }
    }

    /// The committed epoch.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The staged successor, while a prepare is open.
    #[must_use]
    pub fn staged(&self) -> Option<&T> {
        self.staged.as_ref().map(|(_, next)| next)
    }

    /// The successor a `LABELS` push for `epoch` may fill.
    pub fn staged_at(&mut self, epoch: u64) -> Option<&mut T> {
        self.staged
            .as_mut()
            .filter(|(staged, _)| *staged == epoch)
            .map(|(_, next)| next)
    }

    /// Stages `next` at `epoch`.
    pub fn prepare(&mut self, epoch: u64, next: T) -> MapVerdict {
        if epoch <= self.committed {
            return (MapSetStatus::Stale, self.committed);
        }
        self.staged = Some((epoch, next));
        (MapSetStatus::Prepared, epoch)
    }

    /// Commits the successor staged at `epoch` and hands it back to be
    /// installed; a refusal changes nothing and is the reply.
    pub fn commit(&mut self, epoch: u64) -> Result<T, MapVerdict> {
        if epoch <= self.committed {
            return Err((MapSetStatus::Stale, self.committed));
        }
        match self.staged.take() {
            Some((staged, next)) if staged == epoch => {
                self.committed = epoch;
                Ok(next)
            }
            other => {
                self.staged = other;
                Err((MapSetStatus::Failed, self.committed))
            }
        }
    }

    /// Drops the staged successor, returning it if there was one.
    pub fn abort(&mut self) -> Option<T> {
        self.staged.take().map(|(_, next)| next)
    }

    /// Admits a shrink for `epoch`.
    pub fn check_committed(&self, epoch: u64) -> Result<(), MapVerdict> {
        if epoch != self.committed {
            return Err((MapSetStatus::Stale, self.committed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> ClusterMap {
        ClusterMap {
            epoch: 3,
            seed: 0xFEED,
            replicas: 2,
            n: 10_000,
            tag: 1,
            backends: vec![
                "127.0.0.1:7411".into(),
                "127.0.0.1:7412".into(),
                "127.0.0.1:7413".into(),
            ],
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        assert_eq!(ClusterMap::from_bytes(&m.to_bytes()), Ok(m.clone()));
        let empty = ClusterMap {
            backends: vec![],
            ..m
        };
        assert_eq!(
            ClusterMap::from_bytes(&empty.to_bytes()),
            Err(MapError::Invalid(
                "0 backends cannot carry 2 replicas".into()
            ))
        );
    }

    #[test]
    fn the_map_rule_bounds_replicas_by_backends() {
        for (replicas, ok) in [(0, false), (1, true), (3, true), (4, false)] {
            let m = ClusterMap {
                replicas,
                ..sample()
            };
            assert_eq!(m.validate().is_ok(), ok, "replicas {replicas}");
            assert_eq!(ClusterMap::from_bytes(&m.to_bytes()).is_ok(), ok);
        }
        let m = sample();
        assert_eq!(m.check_labeling(10_000, 1), Ok(()));
        assert!(m.check_labeling(9_999, 1).is_err());
        assert!(m.check_labeling(10_000, 2).is_err());
    }

    #[test]
    fn the_fence_orders_prepare_commit_abort_and_labels() {
        use MapSetStatus::{Failed, Prepared, Stale};
        let mut fence = EpochFence::new(1);
        assert_eq!(fence.prepare(1, 'a'), (Stale, 1));
        assert_eq!(fence.prepare(2, 'a'), (Prepared, 2));
        assert_eq!(fence.staged_at(3), None);
        assert_eq!(fence.staged_at(2), Some(&mut 'a'));
        // A newer prepare supersedes the staged one.
        assert_eq!(fence.prepare(3, 'b'), (Prepared, 3));
        assert_eq!(fence.commit(2), Err((Failed, 1)));
        assert_eq!(fence.commit(1), Err((Stale, 1)));
        assert_eq!(fence.staged(), Some(&'b'));
        assert_eq!(fence.commit(3), Ok('b'));
        assert_eq!((fence.committed(), fence.staged()), (3, None));
        assert_eq!(fence.check_committed(3), Ok(()));
        assert_eq!(fence.check_committed(2), Err((Stale, 3)));
        assert_eq!(fence.prepare(4, 'c'), (Prepared, 4));
        assert_eq!(fence.abort(), Some('c'));
        assert_eq!(fence.abort(), None);
        assert_eq!(fence.commit(4), Err((Failed, 3)));
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let bytes = sample().to_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    ClusterMap::from_bytes(&corrupt).is_err(),
                    "flip of byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            assert!(
                ClusterMap::from_bytes(&bytes[..keep]).is_err(),
                "len {keep}"
            );
        }
    }

    #[test]
    fn save_load_round_trips() {
        let path = std::env::temp_dir().join(format!("pl-map-{}.plcm", std::process::id()));
        let m = sample();
        m.save(&path).expect("save");
        let loaded = ClusterMap::load(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, m);
        assert_eq!(loaded.partitioner().backends(), 3);
    }

    proptest! {
        #[test]
        fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = ClusterMap::from_bytes(&bytes);
        }
    }
}
