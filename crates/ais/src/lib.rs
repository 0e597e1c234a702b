//! # pol-ais — the AIS protocol substrate
//!
//! The paper's pipeline (§3.1.1) consumes AIS positional reports (message
//! types 1–3 and 18) and static reports. This crate provides:
//!
//! * [`types`] — MMSI, navigational status, AIS ship-type codes and the
//!   market segments the inventory groups by,
//! * [`report`] — the decoded [`PositionReport`] / [`StaticReport`] records
//!   the rest of the workspace operates on,
//! * [`sixbit`] — the 6-bit payload armouring and bit-level readers/writers
//!   of the AIVDM wire format,
//! * [`nmea`] — NMEA 0183 sentence framing, checksums and multi-sentence
//!   assembly,
//! * [`decode`] / [`encode`] — payload codecs for message types 1/2/3
//!   (class-A position), 5 (class-A static & voyage), 18 (class-B position)
//!   and 24 (class-B static), round-trip tested.
//!
//! Message types 19 (extended class-B) and the binary/application types are
//! out of scope: the paper's pipeline never consumes them.

#![deny(missing_docs)]

pub mod decode;
pub mod encode;
pub mod nmea;
pub mod report;
pub mod sixbit;
pub mod types;

pub use decode::{decode_payload, AisMessage, DecodeError};
pub use nmea::{Assembler, Sentence};
pub use report::{PositionReport, StaticReport};
pub use types::{MarketSegment, Mmsi, NavStatus, ShipTypeCode};
