//! pl-cluster: distributed label serving.
//!
//! The labels of Theorems 3/4 are tiny and self-contained — adjacency is
//! answered from two labels alone, no graph in sight — which makes a
//! labeling a natural unit to partition and replicate.
//!
//! The crate builds on two `pl-serve` modules, since backends validate pushed
//! maps and compute their own ownership during reconfiguration:
//! [`pl_serve::partition`], a deterministic rendezvous (HRW) vertex
//! partitioner over a seeded universal hash family (every vertex is
//! *owned* by the top `R` backends of a seeded ranking; any party with
//! the seed computes the same assignment), and [`pl_serve::map`], the
//! epoch-numbered, FNV-checksummed [`ClusterMap`] handed to every
//! router and pushed to every backend over `MAP_SET`, with the one
//! reconfiguration policy (the map rule and the epoch fence) that the
//! router and the coordinator here call. The crate root re-exports
//! [`ClusterMap`], [`MapError`] and [`Partitioner`].
//!
//! On top of them, this crate turns one `.plab` file into a serving
//! *cluster*:
//!
//! * [`reconfig`] — the live-rebalance coordinator: takes the cluster
//!   from epoch `E` to `E+1` without dropping a query by preparing the
//!   new map everywhere, streaming re-owned labels into the gaining
//!   backends while the router dual-routes against both maps, then
//!   committing backends-first and shrinking the losers; any failure
//!   before the router commits rolls the router back (see
//!   RELIABILITY.md §Reconfiguration).
//! * [`split`] — cuts a threshold labeling into per-partition PLL2
//!   sub-stores: owned vertices keep their full, bit-identical label;
//!   every other vertex shrinks to a *prelude stub* (id width + scheme
//!   id + fat flag). Stubs are what make one-sided decoding work: a
//!   thin owned label scans its own neighbour list for the stub's
//!   scheme id, and a fat owned bitmap is tested against it.
//! * [`router`] — a scatter-gather engine behind the *shared*
//!   [`pl_wire::frontend`] transport: clients connect to it exactly as
//!   to a single backend, and the router inherits shedding, idle/stall
//!   deadlines, drain-on-shutdown, and fault injection from the same
//!   hardened front-end `pl_serve` uses. Downward it speaks the same
//!   protocol through [`pl_serve`]'s resilient client, fanning each
//!   `BATCH` out per-partition and re-asking per-query failures
//!   (`NOT_OWNED`, overload, dead backend) along the HRW candidate
//!   list `owners(u) ∪ owners(v)` (owners of both endpoints first),
//!   with quarantine and seeded-backoff re-probing for unhealthy
//!   backends.
//! * [`launch`] — a local process group: split, spawn one `plab serve
//!   --partial` child per backend, start the router in-process, drain
//!   and kill on shutdown. This is what `plab cluster launch` runs and
//!   what CI chaos-tests by SIGKILLing a backend mid-load.
//! * [`trace_merge`] — cluster-wide trace assembly: per-origin tagging
//!   and the causal (parent-before-child) merge of router + backend
//!   trace rings behind the router's `TRACE_DUMP` and
//!   `plab trace --cluster` / `--explain` (the `TRACE_CTX` trace context).
//!
//! With `R ≥ 2` the candidate list survives any single backend death:
//! the killed backend owned at most one of each endpoint's replica
//! slots, so a live owner of `u` and a live owner of `v` both remain —
//! and between them every fat/thin case of the threshold decoder is
//! answerable (see `pl_serve::store`'s partial-store docs).

pub mod launch;
pub mod reconfig;
pub mod router;
pub mod split;
pub mod trace_merge;

pub use launch::{launch, ClusterHandle, LaunchOptions};
pub use pl_serve::{ClusterMap, MapError, Partitioner};
pub use reconfig::{rebalance, RebalanceAction, RebalanceOptions, ReconfigError, ReconfigReport};
pub use router::{route, route_with, RouterConfig, RouterEngine, RouterHandle};
pub use split::{split_all, split_one, stub_all, SplitError, SplitReport};
pub use trace_merge::{explain as explain_trace, merge as merge_traces, tag_origin};
