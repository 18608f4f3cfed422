//! # pl-wire: the shared transport layer
//!
//! Everything two processes in this system say to each other over TCP
//! lives here, in one place, serving both the single-node label server
//! (`pl-serve`) and the cluster scatter-gather router (`pl-cluster`):
//!
//! - [`protocol`] — the length-prefixed binary frame codec: opcodes,
//!   the single-version HELLO handshake, one layout per frame, FNV-1a
//!   reply checksums, and the incremental
//!   [`FrameBuffer`](protocol::FrameBuffer) reassembler.
//! - [`stats`] — the front-end's [`Metrics`] instruments and
//!   [`Stats`], a registry's samples: the STATS payload, merged by a
//!   router and rendered by `plab stats`.
//! - [`fault`] — the deterministic fault-injection harness
//!   ([`FaultPlan`](fault::FaultPlan)/[`FaultInjector`](fault::FaultInjector))
//!   for chaos testing either front-end.
//! - [`frontend`] — the generic hardened TCP front-end: accept loop,
//!   per-connection lifecycle, shedding, idle/stall deadlines,
//!   drain-on-shutdown, and per-connection scratch-buffer reuse, all
//!   parameterized over the [`QueryEngine`] trait.
//!
//! Layering (see DESIGN.md):
//!
//! ```text
//!         pl-wire (frames + front-end)
//!              │ QueryEngine
//!      ┌───────┴────────┐
//!   pl-serve         pl-cluster
//!  (LabelStore)       (Router)
//! ```

pub mod bytes;
pub mod fault;
pub mod frontend;
pub mod protocol;
pub mod stats;
pub mod sync;

pub use frontend::{bind, FrontendHandle, FrontendOptions, QueryEngine};
pub use protocol::{Answer, HealthReport, ProtocolError, Query, QueryKind};
pub use stats::{Metrics, Stats};
