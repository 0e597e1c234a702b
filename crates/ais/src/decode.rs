//! AIVDM payload decoding for the message types the paper's pipeline
//! consumes: 1/2/3 (class-A position), 5 (class-A static & voyage),
//! 18 (class-B position) and 24 (class-B static).

use crate::sixbit::{BitReader, SixBitError, UNARMOR};
use crate::types::{Mmsi, NavStatus, ShipTypeCode};
use pol_geo::LatLon;
use std::fmt;

/// Error for undecodable payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Bit-level problem (bad armour character, truncated payload).
    Bits(SixBitError),
    /// A message type this decoder does not handle.
    UnsupportedType(u8),
    /// MMSI field was zero/out of range.
    BadMmsi(u32),
    /// A type-24 part number other than 0 (part A) or 1 (part B), the
    /// only two ITU-R M.1371 defines.
    UnknownPart(u8),
}

impl From<SixBitError> for DecodeError {
    fn from(e: SixBitError) -> Self {
        DecodeError::Bits(e)
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bits(e) => write!(f, "payload bit error: {e}"),
            Self::UnsupportedType(t) => write!(f, "unsupported AIS message type {t}"),
            Self::BadMmsi(m) => write!(f, "invalid MMSI {m}"),
            Self::UnknownPart(p) => write!(f, "undefined type 24 part number {p}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoded AIS message.
#[derive(Clone, Debug, PartialEq)]
pub enum AisMessage {
    /// Types 1–3: class-A position report.
    PositionA {
        /// Which of types 1/2/3 this was.
        msg_type: u8,
        /// Reporting vessel.
        mmsi: Mmsi,
        /// Navigational status field.
        nav_status: NavStatus,
        /// Speed over ground in knots; `None` = not available.
        sog_knots: Option<f64>,
        /// Position; `None` when the payload carries the "not available"
        /// marker (lon 181 / lat 91).
        pos: Option<LatLon>,
        /// Course over ground in degrees; `None` = not available.
        cog_deg: Option<f64>,
        /// True heading in degrees; `None` = not available.
        heading_deg: Option<f64>,
        /// UTC second of the fix (0–59; 60+ = unavailable markers).
        utc_second: u8,
    },
    /// Type 5: class-A static and voyage data.
    StaticVoyage {
        /// Reporting vessel.
        mmsi: Mmsi,
        /// IMO number; `None` when 0 on the wire.
        imo: Option<u32>,
        /// Radio callsign, `@`-padding stripped.
        callsign: String,
        /// Vessel name, `@`-padding stripped.
        name: String,
        /// Raw AIS ship-type code.
        ship_type: ShipTypeCode,
        /// Overall length derived from the bow+stern dimension fields, m.
        length_m: u32,
        /// Static draught in metres.
        draught_m: f64,
        /// Declared destination, `@`-padding stripped.
        destination: String,
    },
    /// Type 18: class-B position report.
    PositionB {
        /// Reporting vessel.
        mmsi: Mmsi,
        /// Speed over ground in knots; `None` = not available.
        sog_knots: Option<f64>,
        /// Position; `None` for the "not available" marker.
        pos: Option<LatLon>,
        /// Course over ground in degrees; `None` = not available.
        cog_deg: Option<f64>,
        /// True heading in degrees; `None` = not available.
        heading_deg: Option<f64>,
        /// UTC second of the fix (0–59; 60+ = unavailable markers).
        utc_second: u8,
    },
    /// Type 24 part A: class-B static (name).
    StaticPartA {
        /// Reporting vessel.
        mmsi: Mmsi,
        /// Vessel name, `@`-padding stripped.
        name: String,
    },
    /// Type 24 part B: class-B static (type & callsign).
    StaticPartB {
        /// Reporting vessel.
        mmsi: Mmsi,
        /// Raw AIS ship-type code.
        ship_type: ShipTypeCode,
        /// Radio callsign, `@`-padding stripped.
        callsign: String,
    },
}

impl AisMessage {
    /// The reporting vessel.
    pub fn mmsi(&self) -> Mmsi {
        match self {
            Self::PositionA { mmsi, .. }
            | Self::StaticVoyage { mmsi, .. }
            | Self::PositionB { mmsi, .. }
            | Self::StaticPartA { mmsi, .. }
            | Self::StaticPartB { mmsi, .. } => *mmsi,
        }
    }

    /// Whether this is a positional report (types 1–3, 18).
    pub fn is_positional(&self) -> bool {
        matches!(self, Self::PositionA { .. } | Self::PositionB { .. })
    }
}

fn decode_sog(raw: u64) -> Option<f64> {
    (raw != 1023).then(|| raw as f64 / 10.0)
}

fn decode_cog(raw: u64) -> Option<f64> {
    (raw != 3600).then(|| raw as f64 / 10.0)
}

fn decode_heading(raw: u64) -> Option<f64> {
    (raw != 511).then(|| raw as f64)
}

/// Decodes the 28+27-bit lon/lat pair (1/600 000 degree units); the
/// protocol's "not available" markers (181°E / 91°N) yield `None`.
fn decode_pos(lon_raw: i64, lat_raw: i64) -> Option<LatLon> {
    if lon_raw == 181 * 600_000 || lat_raw == 91 * 600_000 {
        return None;
    }
    LatLon::new(lat_raw as f64 / 600_000.0, lon_raw as f64 / 600_000.0)
}

fn read_mmsi(r: &mut BitReader) -> Result<Mmsi, DecodeError> {
    let raw = r.read_u64(30)? as u32;
    Mmsi::new(raw).ok_or(DecodeError::BadMmsi(raw))
}

/// Bits a type 1–3 report is read through: its UTC second ends at bit
/// 143.
const POSITION_A_BITS: usize = 143;

/// Bits a type 18 report is read through.
const POSITION_B_BITS: usize = 139;

/// Characters [`decode_position`] unarmours: 144 bits, the fewest whole
/// characters that hold either report's fields.
const POSITION_CHARS: usize = 24;

/// Decodes an assembled armoured payload into a message.
///
/// A position report [`decode_position`] can read takes that one pass;
/// every other payload, and every error, is [`decode_bits`] over a
/// [`BitReader`].
pub fn decode_payload(payload: &str, fill_bits: u8) -> Result<AisMessage, DecodeError> {
    match decode_position(payload, fill_bits) {
        Some(message) => Ok(message),
        None => decode_bits(BitReader::from_payload(payload, fill_bits)?),
    }
}

/// The one-pass path for position reports (types 1–3 and 18): one
/// table-driven unarmour of the first 24 characters into two 128-bit
/// windows, each field then read at its fixed offset.
///
/// `None` unless the payload carries every bit the report's fields span
/// (143 bits for types 1–3, 139 for type 18), every character passes the
/// armour table and the MMSI is valid. Those are exactly the payloads on
/// which [`decode_bits`] reads the same fields without an error, so a
/// `Some` is the message it would return.
pub fn decode_position(payload: &str, fill_bits: u8) -> Option<AisMessage> {
    let bytes = payload.as_bytes();
    let (head, rest) = bytes.split_first_chunk::<POSITION_CHARS>()?;
    // Every looked-up value is ORed into `seen`, which is tested once:
    // see `BAD_ARMOR`.
    let mut seen = 0u8;
    let mut unarmor = |b: &u8| {
        let v = UNARMOR[*b as usize];
        seen |= v;
        u128::from(v & 63)
    };
    // Characters 0..21 are stream bits 0..126, characters 21..24 bits
    // 126..144.
    let first = head[..21].iter().fold(0, |acc, b| acc << 6 | unarmor(b));
    let last = head[21..].iter().fold(0, |acc, b| acc << 6 | unarmor(b));
    for b in rest {
        unarmor(b);
    }
    if seen & 0xC0 != 0 {
        return None;
    }
    // Stream bits 0..128 and 16..144: a field of at most 30 bits lies
    // whole in one of them.
    let low = first << 2 | last >> 16;
    let high = first << 18 | last;
    let field = |at: usize, n: usize| {
        let window = if at + n <= 128 {
            low << at
        } else {
            high << (at - 16)
        };
        (window >> (128 - n)) as u64
    };
    let signed = |at: usize, n: usize| ((field(at, n) << (64 - n)) as i64) >> (64 - n);
    let msg_type = field(0, 6) as u8;
    let span = match msg_type {
        1..=3 => POSITION_A_BITS,
        18 => POSITION_B_BITS,
        _ => return None,
    };
    if (bytes.len() * 6).saturating_sub(usize::from(fill_bits)) < span {
        return None;
    }
    let mmsi = Mmsi::new(field(8, 30) as u32)?;
    Some(if msg_type == 18 {
        AisMessage::PositionB {
            mmsi,
            sog_knots: decode_sog(field(46, 10)),
            pos: decode_pos(signed(57, 28), signed(85, 27)),
            cog_deg: decode_cog(field(112, 12)),
            heading_deg: decode_heading(field(124, 9)),
            utc_second: field(133, 6) as u8,
        }
    } else {
        AisMessage::PositionA {
            msg_type,
            mmsi,
            nav_status: NavStatus::from_raw(field(38, 4) as u8),
            sog_knots: decode_sog(field(50, 10)),
            pos: decode_pos(signed(61, 28), signed(89, 27)),
            cog_deg: decode_cog(field(116, 12)),
            heading_deg: decode_heading(field(128, 9)),
            utc_second: field(137, 6) as u8,
        }
    })
}

/// The general decoder: reads a message field by field out of `r`, every
/// read checked. [`decode_payload`] takes it for every payload
/// [`decode_position`] does not decide, and it is that path's oracle.
pub fn decode_bits(mut r: BitReader) -> Result<AisMessage, DecodeError> {
    let msg_type = r.read_u64(6)? as u8;
    match msg_type {
        1..=3 => {
            r.skip(2)?; // repeat indicator
            let mmsi = read_mmsi(&mut r)?;
            let nav_status = NavStatus::from_raw(r.read_u64(4)? as u8);
            r.skip(8)?; // rate of turn
            let sog = decode_sog(r.read_u64(10)?);
            r.skip(1)?; // position accuracy
            let lon = r.read_i64(28)?;
            let lat = r.read_i64(27)?;
            let cog = decode_cog(r.read_u64(12)?);
            let hdg = decode_heading(r.read_u64(9)?);
            let utc_second = r.read_u64(6)? as u8;
            Ok(AisMessage::PositionA {
                msg_type,
                mmsi,
                nav_status,
                sog_knots: sog,
                pos: decode_pos(lon, lat),
                cog_deg: cog,
                heading_deg: hdg,
                utc_second,
            })
        }
        5 => {
            r.skip(2)?;
            let mmsi = read_mmsi(&mut r)?;
            r.skip(2)?; // AIS version
            let imo_raw = r.read_u64(30)? as u32;
            let callsign = r.read_text(7)?;
            let name = r.read_text(20)?;
            let ship_type = ShipTypeCode(r.read_u64(8)? as u8);
            let to_bow = r.read_u64(9)? as u32;
            let to_stern = r.read_u64(9)? as u32;
            r.skip(6 + 6)?; // to port / to starboard
            r.skip(4)?; // EPFD
            r.skip(20)?; // ETA month/day/hour/minute
            let draught = r.read_u64(8)? as f64 / 10.0;
            let destination = r.read_text(20)?;
            Ok(AisMessage::StaticVoyage {
                mmsi,
                imo: (imo_raw != 0).then_some(imo_raw),
                callsign,
                name,
                ship_type,
                length_m: to_bow + to_stern,
                draught_m: draught,
                destination,
            })
        }
        18 => {
            r.skip(2)?;
            let mmsi = read_mmsi(&mut r)?;
            r.skip(8)?; // regional reserved
            let sog = decode_sog(r.read_u64(10)?);
            r.skip(1)?;
            let lon = r.read_i64(28)?;
            let lat = r.read_i64(27)?;
            let cog = decode_cog(r.read_u64(12)?);
            let hdg = decode_heading(r.read_u64(9)?);
            let utc_second = r.read_u64(6)? as u8;
            Ok(AisMessage::PositionB {
                mmsi,
                sog_knots: sog,
                pos: decode_pos(lon, lat),
                cog_deg: cog,
                heading_deg: hdg,
                utc_second,
            })
        }
        24 => {
            r.skip(2)?;
            let mmsi = read_mmsi(&mut r)?;
            match r.read_u64(2)? as u8 {
                0 => {
                    let name = r.read_text(20)?;
                    Ok(AisMessage::StaticPartA { mmsi, name })
                }
                1 => {
                    let ship_type = ShipTypeCode(r.read_u64(8)? as u8);
                    r.skip(42)?; // vendor id
                    let callsign = r.read_text(7)?;
                    Ok(AisMessage::StaticPartB {
                        mmsi,
                        ship_type,
                        callsign,
                    })
                }
                part => Err(DecodeError::UnknownPart(part)),
            }
        }
        other => Err(DecodeError::UnsupportedType(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nmea::Sentence;

    /// Reference sentence from the public AIVDM protocol documentation.
    const KNOWN: &str = "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C";

    #[test]
    fn decode_documented_type1() {
        let s = Sentence::parse(KNOWN).unwrap();
        let m = decode_payload(s.payload, s.fill_bits).unwrap();
        match m {
            AisMessage::PositionA {
                msg_type,
                mmsi,
                nav_status,
                sog_knots,
                pos,
                ..
            } => {
                assert_eq!(msg_type, 1);
                assert_eq!(mmsi, Mmsi(477_553_000));
                assert_eq!(nav_status, NavStatus::Moored);
                assert_eq!(sog_knots, Some(0.0));
                let p = pos.expect("position available");
                assert!((p.lat() - 47.582_833).abs() < 1e-4, "lat {}", p.lat());
                assert!((p.lon() - (-122.345_833)).abs() < 1e-3, "lon {}", p.lon());
            }
            other => panic!("expected PositionA, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_type_reported() {
        // Type 4 (base station) starts with payload char '4'.
        let mut w = crate::sixbit::BitWriter::new();
        w.write_u64(4, 6);
        for _ in 0..162 {
            w.write_u64(0, 1);
        }
        let (p, f) = w.into_payload();
        assert_eq!(decode_payload(&p, f), Err(DecodeError::UnsupportedType(4)));
    }

    #[test]
    fn truncated_payload_errors() {
        // Type 1 marker then nothing.
        let mut w = crate::sixbit::BitWriter::new();
        w.write_u64(1, 6);
        let (p, f) = w.into_payload();
        assert!(matches!(
            decode_payload(&p, f),
            Err(DecodeError::Bits(SixBitError::OutOfBits { .. }))
        ));
    }

    #[test]
    fn type24_parts_2_and_3_rejected() {
        for part in 0..4 {
            let mut w = crate::sixbit::BitWriter::new();
            w.write_u64(24, 6);
            w.write_u64(0, 2);
            w.write_u64(244_123_456, 30);
            w.write_u64(part, 2);
            // Long enough for either defined part's fields.
            w.write_u64(0, 64);
            w.write_u64(0, 64);
            let (p, f) = w.into_payload();
            let decoded = decode_payload(&p, f);
            match part {
                0 => assert!(matches!(decoded, Ok(AisMessage::StaticPartA { .. }))),
                1 => assert!(matches!(decoded, Ok(AisMessage::StaticPartB { .. }))),
                _ => assert_eq!(decoded, Err(DecodeError::UnknownPart(part as u8))),
            }
        }
        assert_eq!(
            DecodeError::UnknownPart(2).to_string(),
            "undefined type 24 part number 2"
        );
    }

    #[test]
    fn zero_mmsi_rejected() {
        let mut w = crate::sixbit::BitWriter::new();
        w.write_u64(1, 6);
        w.write_u64(0, 2);
        w.write_u64(0, 30); // MMSI 0
        for _ in 0..130 {
            w.write_u64(0, 1);
        }
        let (p, f) = w.into_payload();
        assert_eq!(decode_payload(&p, f), Err(DecodeError::BadMmsi(0)));
    }

    #[test]
    fn not_available_markers_decode_to_none() {
        let mut w = crate::sixbit::BitWriter::new();
        w.write_u64(1, 6);
        w.write_u64(0, 2);
        w.write_u64(123_456_789, 30);
        w.write_u64(15, 4); // status undefined
        w.write_i64(-128, 8); // ROT N/A
        w.write_u64(1023, 10); // SOG N/A
        w.write_u64(0, 1);
        w.write_i64(181 * 600_000, 28); // lon N/A
        w.write_i64(91 * 600_000, 27); // lat N/A
        w.write_u64(3600, 12); // COG N/A
        w.write_u64(511, 9); // HDG N/A
        w.write_u64(60, 6); // ts N/A
        w.write_u64(0, 2 + 3 + 1 + 19);
        let (p, f) = w.into_payload();
        match decode_payload(&p, f).unwrap() {
            AisMessage::PositionA {
                sog_knots,
                pos,
                cog_deg,
                heading_deg,
                ..
            } => {
                assert_eq!(sog_knots, None);
                assert_eq!(pos, None);
                assert_eq!(cog_deg, None);
                assert_eq!(heading_deg, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mmsi_accessor_covers_variants() {
        let a = AisMessage::StaticPartA {
            mmsi: Mmsi(7),
            name: "X".into(),
        };
        assert_eq!(a.mmsi(), Mmsi(7));
        assert!(!a.is_positional());
    }
}
