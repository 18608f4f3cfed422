//! The live-rebalance coordinator: epoch `E` → `E+1` without dropping
//! a query. It keeps no rule of its own: the next map passes the map
//! rule of `pl_serve::map`, and every party answers by its
//! `EpochFence` (see RELIABILITY.md §Reconfiguration).
//!
//! 0. **Pick the epoch.** One past the highest epoch that the router or
//!    any backend of the new map has committed (`MAP_GET`; none is 0).
//! 1. **Prepare backends.** Every backend of the *new* map validates
//!    the map (`n`, tag, its own index) and stages it.
//! 2. **Prepare the router.** It stages the new map and opens the
//!    *dual-routing window*: every query tries the new map's owners
//!    first and falls back to the old owners on `NOT_OWNED`.
//! 3. **Stream labels.** Each vertex whose ownership *moves* (a new
//!    owner address that was not an old owner of it) has its full label
//!    streamed to the gaining backend in `LABELS` chunks, each one
//!    `PLL2` labeling container, checked whole on arrival.
//! 4. **Commit backends, then router.** Gaining backends commit first
//!    (an extra full label can only make a backend answer *more*, never
//!    wrongly), the router commits last (closing the window), and only
//!    then do losing backends **shrink** their no-longer-owned labels
//!    down to prelude stubs.
//!
//! Any failure before the router commits sends `ABORT` to the router
//! (closing the window; `plcluster_reconfig_rollbacks_total` counts it)
//! and to every backend: the router stays at epoch `E`. A backend that
//! committed before the failure keeps `E+1` and a superset of its
//! labels, which answers correctly; step 0 of the next rebalance goes
//! past it.

use std::collections::HashMap;

use pl_labeling::{Labeling, LabelingBuilder};
use pl_serve::{Client, ClusterMap, MapError, TaggedLabeling};
use pl_wire::protocol::{LabelsStatus, MapSetMode, MapSetStatus, MAP_TARGET_ROUTER};

/// What the rebalance should do to the current map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Append one backend address (scale out).
    Add(String),
    /// Remove the backend at this index of the *current* map (scale
    /// in). The remaining backends must still cover the replication
    /// factor.
    Remove(u32),
    /// Install an explicit next map (same `n`, same tag; the epoch is
    /// bumped past the current one if the file's is not already).
    Map(ClusterMap),
}

/// Coordinator tuning.
#[derive(Debug, Clone)]
pub struct RebalanceOptions {
    /// Soft cap on one `LABELS` frame's payload bytes: ids, offsets and
    /// label bits (the hard cap is the wire's `MAX_FRAME`).
    pub chunk_bytes: usize,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        Self {
            chunk_bytes: 256 * 1024,
        }
    }
}

/// What a committed rebalance did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// The epoch the cluster was at.
    pub old_epoch: u64,
    /// The committed epoch.
    pub new_epoch: u64,
    /// Vertex-replica moves: `(backend, vertex)` pairs whose full label
    /// was streamed to a gaining backend.
    pub moved: u64,
    /// Per gaining backend: `(address, vertices streamed)`.
    pub gained: Vec<(String, u64)>,
    /// Backends that shrank no-longer-owned labels to stubs.
    pub shrunk: Vec<String>,
}

/// Why a rebalance did not commit. `Refused` and `Io` from any step
/// before the router's commit mean the rollout was *rolled back*: the
/// router is still at the old epoch.
#[derive(Debug)]
pub enum ReconfigError {
    /// Transport failure talking to the router or a backend.
    Io(std::io::Error),
    /// A party's committed map did not parse.
    Map(MapError),
    /// The requested action is unsatisfiable (index out of range,
    /// replica floor violated, map mismatch).
    Invalid(String),
    /// A participant refused a prepare, push, or commit.
    Refused(String),
}

impl From<std::io::Error> for ReconfigError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "reconfiguration transport error: {e}"),
            Self::Map(e) => write!(f, "committed cluster map unreadable: {e}"),
            Self::Invalid(why) => write!(f, "invalid rebalance: {why}"),
            Self::Refused(why) => write!(f, "rebalance refused: {why}"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Derives the next map from the current one and the action, and
/// checks it by the map rule. Its epoch is one past the current one (or
/// an explicit map's own, if that is higher); [`rebalance`] raises it
/// past every backend's.
fn next_map(old: &ClusterMap, action: RebalanceAction) -> Result<ClusterMap, ReconfigError> {
    let invalid = |e: MapError| ReconfigError::Invalid(e.to_string());
    let mut map = match action {
        RebalanceAction::Add(addr) => {
            if old.backends.contains(&addr) {
                return Err(ReconfigError::Invalid(format!(
                    "backend {addr} is already in the map"
                )));
            }
            let mut map = old.clone();
            map.backends.push(addr);
            map
        }
        RebalanceAction::Remove(i) => {
            if i as usize >= old.backends.len() {
                return Err(ReconfigError::Invalid(format!(
                    "backend index {i} out of range (map has {})",
                    old.backends.len()
                )));
            }
            let mut map = old.clone();
            map.backends.remove(i as usize);
            map
        }
        RebalanceAction::Map(map) => {
            map.check_labeling(old.n, old.tag).map_err(invalid)?;
            map
        }
    };
    map.epoch = map.epoch.max(old.epoch + 1);
    map.validate().map_err(invalid)?;
    Ok(map)
}

/// Address-based ownership diff between two maps: for each backend of
/// `new`, the vertices it owns there that its *address* did not own
/// under `old` (`gained`), and whether it holds any vertex it no longer
/// owns (`lost`, the shrink set).
fn ownership_diff(old: &ClusterMap, new: &ClusterMap) -> (Vec<Vec<u32>>, Vec<bool>) {
    let old_part = old.partitioner();
    let new_part = new.partitioner();
    // Address → new-map index, for the lost side of the diff.
    let new_index: HashMap<&str, usize> = new
        .backends
        .iter()
        .enumerate()
        .map(|(i, a)| (a.as_str(), i))
        .collect();
    let mut gained: Vec<Vec<u32>> = vec![Vec::new(); new.backends.len()];
    let mut lost = vec![false; new.backends.len()];
    for v in 0..new.n {
        let old_owners: Vec<&str> = old_part
            .owners(v)
            .into_iter()
            .map(|b| old.backends[b as usize].as_str())
            .collect();
        let new_owners = new_part.owners(v);
        for &b in &new_owners {
            if !old_owners.contains(&new.backends[b as usize].as_str()) {
                gained[b as usize].push(v);
            }
        }
        for addr in old_owners {
            if let Some(&i) = new_index.get(addr) {
                if !new_owners.contains(&(i as u32)) {
                    lost[i] = true;
                }
            }
        }
    }
    (gained, lost)
}

/// Best-effort rollback: `ABORT` every backend of the new map and the
/// router.
fn abort_all(router: &mut Client, backends: &mut [Client], map_bytes: &[u8]) {
    for client in backends.iter_mut() {
        let _ = client.map_set(MapSetMode::Abort, 0, 0, map_bytes);
    }
    let _ = router.map_set(MapSetMode::Abort, MAP_TARGET_ROUTER, 0, map_bytes);
}

/// A party's committed map, read with `MAP_GET` (`None` before its
/// first commit).
fn committed_map(client: &mut Client) -> Result<Option<ClusterMap>, ReconfigError> {
    client
        .map_get()?
        .map(|bytes| ClusterMap::from_bytes(&bytes))
        .transpose()
        .map_err(ReconfigError::Map)
}

/// One `LABELS` chunk to one gaining backend: the labels of `ids`, as
/// one `PLL2` container.
fn push_chunk(
    client: &mut Client,
    addr: &str,
    epoch: u64,
    labeling: &Labeling,
    ids: &[u32],
) -> Result<(), ReconfigError> {
    let mut chunk = LabelingBuilder::new();
    for &v in ids {
        chunk.push_ref(labeling.label(v));
    }
    let (status, _received) = client.push_labels(epoch, ids, &chunk.finish().to_bytes())?;
    if status != LabelsStatus::Ok {
        return Err(ReconfigError::Refused(format!(
            "backend {addr} rejected a label chunk: {status:?}"
        )));
    }
    Ok(())
}

/// Every step up to the router's commit, the phases a failure rolls
/// back: prepare every backend, prepare the router (opening the dual
/// window), stream every moved label, commit the backends
/// gaining-first, commit the router. `backends` are connected to the
/// new map's backends, in its order.
fn run_rollout(
    tagged: &TaggedLabeling,
    router: &mut Client,
    backends: &mut [Client],
    new_map: &ClusterMap,
    map_bytes: &[u8],
    gained: &[Vec<u32>],
    options: &RebalanceOptions,
) -> Result<(), ReconfigError> {
    use MapSetMode::{Commit, Prepare};
    let epoch = new_map.epoch;
    let backend = |i: usize| format!("backend {}", new_map.backends[i]);
    // One `MAP_SET` that `who` must take.
    let step = |client: &mut Client, who: &str, mode: MapSetMode, target, moved| {
        let (status, at) = client.map_set(mode, target, moved, map_bytes)?;
        let taken = match mode {
            Prepare => MapSetStatus::Prepared,
            _ => MapSetStatus::Committed,
        };
        if status == taken {
            return Ok(());
        }
        let verb = format!("{mode:?}").to_lowercase();
        Err(ReconfigError::Refused(format!(
            "{who} refused {verb} for epoch {epoch}: {status:?} (at epoch {at})"
        )))
    };
    for (i, client) in backends.iter_mut().enumerate() {
        step(client, &backend(i), Prepare, i as u32, 0)?;
    }
    step(router, "router", Prepare, MAP_TARGET_ROUTER, 0)?;
    for (i, verts) in gained.iter().enumerate() {
        if verts.is_empty() {
            continue;
        }
        let addr = &new_map.backends[i];
        let mut start = 0;
        let mut chunk_bytes = 0usize;
        for (k, &v) in verts.iter().enumerate() {
            // Its id, its offset and its bits.
            let cost = 12 + tagged.labeling.label(v).bit_len().div_ceil(8);
            if k > start
                && (chunk_bytes + cost > options.chunk_bytes || k - start == u16::MAX as usize)
            {
                let ids = &verts[start..k];
                push_chunk(&mut backends[i], addr, epoch, &tagged.labeling, ids)?;
                start = k;
                chunk_bytes = 0;
            }
            chunk_bytes += cost;
        }
        let ids = &verts[start..];
        push_chunk(&mut backends[i], addr, epoch, &tagged.labeling, ids)?;
    }
    // Gaining backends commit first (their extra labels only ever add
    // answers), every other backend next, the router last: the moment
    // it flips, every new owner already holds its labels.
    let mut order: Vec<usize> = (0..backends.len()).collect();
    order.sort_by_key(|&i| gained[i].is_empty());
    for i in order {
        step(&mut backends[i], &backend(i), Commit, i as u32, 0)?;
    }
    let moved = gained.iter().map(|g| g.len() as u64).sum();
    step(router, "router", Commit, MAP_TARGET_ROUTER, moved)
}

/// Rebalances the cluster behind `router_addr` from its current map to
/// the `action`-derived next map, streaming moved labels from `tagged`
/// (the *full* labeling the cluster serves). On `Ok` the cluster is
/// committed at the new epoch. On `Err` the router is back at the old
/// epoch; a backend that committed before the failure keeps the new
/// epoch and a superset of its labels, and the next rebalance's epoch
/// is past it.
pub fn rebalance(
    tagged: &TaggedLabeling,
    router_addr: &str,
    action: RebalanceAction,
    options: &RebalanceOptions,
) -> Result<ReconfigReport, ReconfigError> {
    let mut router = Client::connect(router_addr)?;
    let old_map = committed_map(&mut router)?
        .ok_or_else(|| ReconfigError::Invalid("router serves no cluster map".into()))?;
    let mut new_map = next_map(&old_map, action)?;
    let n = u32::try_from(tagged.labeling.len()).unwrap_or(u32::MAX);
    new_map
        .check_labeling(n, tagged.tag.as_u8())
        .map_err(|e| ReconfigError::Invalid(e.to_string()))?;
    // One past the highest epoch any party has committed: a backend
    // that committed in a rolled-back rollout is ahead of the router.
    let mut backends = Vec::with_capacity(new_map.backends.len());
    for addr in &new_map.backends {
        let mut client = Client::connect(addr)?;
        let committed = committed_map(&mut client)?.map_or(0, |m| m.epoch);
        new_map.epoch = new_map.epoch.max(committed + 1);
        backends.push(client);
    }

    let (gained, lost) = ownership_diff(&old_map, &new_map);
    let map_bytes = new_map.to_bytes();
    if let Err(e) = run_rollout(
        tagged,
        &mut router,
        &mut backends,
        &new_map,
        &map_bytes,
        &gained,
        options,
    ) {
        abort_all(&mut router, &mut backends, &map_bytes);
        return Err(e);
    }

    // Shrink the losers. Failures here cost only memory on that
    // backend (it answers from labels it no longer owns — correctly),
    // so they drop the backend from the report instead of failing the
    // committed rebalance.
    let mut shrunk = Vec::new();
    for (i, addr) in new_map.backends.iter().enumerate() {
        if !lost[i] {
            continue;
        }
        if let Ok((MapSetStatus::Shrunk, _)) =
            backends[i].map_set(MapSetMode::Shrink, i as u32, 0, &map_bytes)
        {
            shrunk.push(addr.clone());
        }
    }

    Ok(ReconfigReport {
        old_epoch: old_map.epoch,
        new_epoch: new_map.epoch,
        moved: gained.iter().map(|g| g.len() as u64).sum(),
        gained: new_map
            .backends
            .iter()
            .zip(&gained)
            .filter(|(_, g)| !g.is_empty())
            .map(|(a, g)| (a.clone(), g.len() as u64))
            .collect(),
        shrunk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(epoch: u64, backends: &[&str]) -> ClusterMap {
        ClusterMap {
            epoch,
            seed: 7,
            replicas: 2,
            n: 100,
            tag: 2,
            backends: backends.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    #[test]
    fn next_map_actions() {
        let old = map(3, &["a:1", "b:2", "c:3"]);
        let added = next_map(&old, RebalanceAction::Add("d:4".into())).expect("add");
        assert_eq!(added.epoch, 4);
        assert_eq!(added.backends.len(), 4);
        assert!(matches!(
            next_map(&old, RebalanceAction::Add("a:1".into())),
            Err(ReconfigError::Invalid(_))
        ));
        let removed = next_map(&old, RebalanceAction::Remove(1)).expect("remove");
        assert_eq!(removed.backends, vec!["a:1", "c:3"]);
        assert!(matches!(
            next_map(&removed, RebalanceAction::Remove(0)),
            Err(ReconfigError::Invalid(_)) // would drop below the replica floor
        ));
        assert!(matches!(
            next_map(&old, RebalanceAction::Remove(9)),
            Err(ReconfigError::Invalid(_))
        ));
        // An explicit map with a lagging epoch gets bumped past the
        // current one; a mismatched one is refused.
        let explicit = next_map(&old, RebalanceAction::Map(map(1, &["a:1", "b:2"]))).expect("map");
        assert_eq!(explicit.epoch, 4);
        let mut wrong_n = map(9, &["a:1", "b:2"]);
        wrong_n.n = 5;
        assert!(matches!(
            next_map(&old, RebalanceAction::Map(wrong_n)),
            Err(ReconfigError::Invalid(_))
        ));
    }

    #[test]
    fn ownership_diff_add_and_remove() {
        let old = map(1, &["a:1", "b:2", "c:3"]);
        // Scale out: only the new backend gains, and it gains exactly
        // the vertices it owns under the new map.
        let new = next_map(&old, RebalanceAction::Add("d:4".into())).expect("add");
        let (gained, lost) = ownership_diff(&old, &new);
        let new_part = new.partitioner();
        assert_eq!(gained[3].len(), {
            (0..new.n).filter(|&v| new_part.owns(3, v)).count()
        });
        for (b, g) in gained.iter().enumerate().take(3) {
            assert!(g.is_empty(), "surviving backend {b} gained {g:?}");
        }
        // Every vertex the joiner gained displaced one old owner, so
        // some survivor must shrink — but the joiner (which owned
        // nothing before) never does.
        assert!(!gained[3].is_empty());
        assert!(lost[..3].iter().any(|&l| l), "no survivor lost anything");
        assert!(!lost[3]);

        // Scale in: survivors gain the removed backend's share.
        let shrunk = next_map(&old, RebalanceAction::Remove(2)).expect("remove");
        let (gained, _) = ownership_diff(&old, &shrunk);
        let total: usize = gained.iter().map(Vec::len).sum();
        assert!(total > 0, "removing a backend must move vertices");
    }
}
