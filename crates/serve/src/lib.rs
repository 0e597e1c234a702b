//! `pol-serve` — a concurrent TCP query server over a loaded inventory.
//!
//! The paper's inventory is an offline artefact; this crate puts it
//! online. A [`server::Server`] holds one read-only
//! [`mapped::MappedStore`], answers point/route/bbox/top-destination
//! queries plus the `pol-apps` ETA and destination-prediction endpoints
//! over a versioned length-prefixed binary protocol ([`proto`]), and
//! accounts every request in per-endpoint latency quantile summaries
//! ([`metrics`]).
//!
//! The zero-copy read path: a POLINV4 columnar snapshot is served
//! straight off disk through a [`mapped::MappedStore`] — the file is
//! memory-mapped ([`mmap::MappedFile`]), validated once, and queried by
//! binary search without deserializing anything up front. A POLMAN2
//! delta chain is the same store over one mapped file per link, merged
//! on read where links share a key; a hot reload maps only the links it
//! has not mapped yet. An in-process build is encoded as POLINV4 in
//! memory and served the same way. [`proto::Request::Batch`] lets one
//! frame carry many lookups.
//!
//! One serving core: the epoll-based [`reactor`] — one event loop owning
//! every nonblocking socket and per-connection frame state machines
//! ([`conn::ConnState`]), so tens of thousands of mostly-idle
//! connections cost no threads. The loop answers the constant-time
//! requests itself (a point lookup costs a point lookup, and its reply
//! is the snapshot's stored bytes); scans, estimators and batches run on
//! a bounded worker pool that never touches a socket.
//!
//! Operational posture: bounded worker pool with typed
//! [`proto::Response::Busy`] backpressure instead of unbounded queueing
//! (shed per *request* at the event loop, keeping the connection),
//! per-frame size caps, a write-stall deadline, a slow-loris
//! frame-assembly deadline anchored to each frame's first byte,
//! hostile-input-safe decoding, and clean shutdown on a control signal.
//! The matching [`client::Client`] drives it; `polinv serve` in
//! `pol-bench` is its command-line front end.

#![deny(missing_docs)]

pub mod client;
pub mod conn;
pub mod mapped;
pub mod metrics;
pub mod mmap;
pub mod proto;
pub mod reactor;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use mapped::{MappedCounters, MappedStore};
pub use metrics::{Endpoint, EndpointStats, HealthReport, ServerMetrics, StatsReport};
pub use mmap::MappedFile;
pub use proto::{ProtoError, Request, Response, MAX_BATCH, PROTO_VERSION};
pub use server::{InventoryService, Server, ServerConfig};
