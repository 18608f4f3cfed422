//! pl-serve: a concurrent label-serving engine.
//!
//! The paper's decoders answer adjacency from two labels alone — no
//! graph needed — which makes a labeling a natural unit to *serve*: load
//! the `.plab` file once, keep the labels in memory, and answer queries
//! over the network. This crate is that serving layer:
//!
//! * [`store`] — the labeling as one immutable bit arena queried in
//!   place: no locks and no side caches, so any number of connection
//!   threads read concurrently. Labels are decoded by
//!   [`pl_labeling::threshold`]; the store adds only serving policy.
//! * [`server`] — the shared hardened [`pl_wire::frontend`] TCP
//!   front-end (thread-per-connection, shedding, deadlines, graceful
//!   drain) over a [`server::StoreEngine`] answering batches query by
//!   query. The wire format ([`pl_wire::protocol`]), the server metrics
//!   ([`pl_wire::stats`]: [`pl_obs`]-backed counters and latency
//!   histograms, snapshotted as `STATS` and renderable as Prometheus
//!   text via [`ServerHandle::prometheus_text`]) and the deterministic
//!   fault-injection harness ([`pl_wire::fault`], see RELIABILITY.md)
//!   live in `pl-wire`.
//! * [`client`] — blocking client plus a multi-connection load
//!   generator with uniform and Zipf-skewed query mixes, and
//!   [`ResilientClient`]: deadlines, bounded backoff with jitter, and
//!   reconnect-and-replay over the [`ClientError`] retryable/fatal
//!   taxonomy.
//! * [`map`] / [`partition`] — the epoch-numbered, FNV-checksummed
//!   [`ClusterMap`] and the deterministic HRW [`Partitioner`], here so
//!   that a backend receiving a `MAP_SET` push validates the map and
//!   computes its own ownership locally.
//!
//! The scheme tag and tagged container come from
//! [`pl_labeling::codec`]; they are re-exported at the crate root.
//!
//! Everything is std-only: no async runtime, no serialization crates.

pub mod client;
pub mod map;
pub mod partition;
pub mod server;
pub mod store;

pub use client::loadgen::{LoadReport, LoadgenConfig, Skew};
pub use client::{Client, ClientError, ResilientClient, RetryKind, RetryPolicy};
pub use map::{ClusterMap, EpochFence, MapError};
pub use partition::Partitioner;
pub use pl_labeling::codec::{SchemeTag, TaggedLabeling};
pub use pl_wire::fault::{FaultKind, FaultPlan};
pub use pl_wire::protocol::{Answer, HealthReport, Query, QueryKind};
pub use server::{serve, serve_with, ServeOptions, ServerHandle, StoreEngine};
pub use store::{BatchOutcome, LabelStore, QueryPath, StoreConfig, StoreError};
