//! # pol-stream — live ingestion for the mobility inventory
//!
//! The batch pipeline ([`pol_core::run_fused`]) sees a finished archive:
//! every vessel's reports, partitioned and complete. This crate turns
//! the same methodology into a **live** one — records arrive one at a
//! time, interleaved across the fleet and mildly out of order, and the
//! inventory stays continuously current:
//!
//! * [`ingest`] — per-vessel online state machines built from the exact
//!   incremental primitives the batch path folds over
//!   ([`pol_core::clean::VesselCleaner`],
//!   [`pol_core::trips::TripTracker`],
//!   [`pol_core::project::project_trip`]), fronted by a bounded
//!   out-of-order buffer with watermark-driven release;
//! * [`delta`] — periodic, mergeable inventory deltas published as
//!   POLINV4 snapshots chained by a POLMAN2 manifest
//!   ([`pol_core::codec::manifest`]), which `pol-serve` hot-reloads
//!   without dropping in-flight queries;
//! * [`journal`] — a POLWAL1 write-ahead journal
//!   ([`pol_core::codec::wal`]) that makes every pushed record durable
//!   *before* the engine applies it, wrapped with the engine as
//!   [`journal::JournaledEngine`], and trimmed behind every checkpoint
//!   to the segments recovery still reads;
//! * [`checkpoint`] — POLCKP2 checkpoints of the whole engine state (an
//!   append-only log of what each one added, committed by a small head),
//!   so recovery replays only the journal suffix past the checkpoint;
//! * [`recover`](mod@recover) — the crash-recovery path: checkpoint restore +
//!   journal replay + exactly-once delta-chain reconciliation,
//!   reconverging byte-identically to a run that never crashed (see
//!   DESIGN.md §10 for the failure model and crash matrix).
//!
//! ## The identity contract
//!
//! The headline invariant — pinned by `tests/stream_identity.rs` — is
//! that after all watermarks close, the streamed inventory is
//! **byte-identical** to the batch build over the same records. The
//! chain of reasoning:
//!
//! 1. the reorder buffer releases each vessel's records in
//!    `(timestamp, arrival)` order, which is exactly the batch path's
//!    stable sort by timestamp;
//! 2. the released sequence drives the same `VesselCleaner` →
//!    `TripTracker` → `project_trip` state machines the batch fold
//!    uses, so the retained per-vessel cell points match the batch
//!    intermediates record for record;
//! 3. [`pol_core::fused::fold_shared`] folds those points through the
//!    fused executor's `observe` and `reduce`; summary merges are exact
//!    and commute, so the order of the fold does not reach the bytes,
//!    which are pinned byte-identical to [`pol_core::run_fused`] in
//!    pol-core's own tests.
//!
//! Delta snapshots are not the identity artifact: they summarize each
//! watermark window and exist for freshness — a warm `pol-serve` applies
//! them seconds after the window closes. The identity artifact is
//! [`ingest::StreamEngine::close`].

#![deny(missing_docs)]

pub mod checkpoint;
pub mod delta;
pub mod ingest;
pub mod journal;
pub mod recover;

pub use checkpoint::{CheckpointStats, EngineState, SessionState, CHECKPOINT_NAME};
pub use delta::{merge_chain, DeltaPublisher, PublishOutcome, SweepReport, MANIFEST_NAME};
pub use ingest::{IngestCounters, StreamConfig, StreamEngine, StreamOutput};
pub use journal::{JournalError, JournaledEngine, WalConfig, WalLoad, WalReader, WalWriter};
pub use recover::{recover, RecoveryReport, WindowSpec};
