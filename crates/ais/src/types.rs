//! Core AIS identity and classification types.

use std::fmt;

/// A Maritime Mobile Service Identity: the 9-digit vessel identifier every
/// AIS message carries. The pipeline partitions by MMSI (§3.3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mmsi(pub u32);

impl Mmsi {
    /// Validates the 9-digit range (and the 30-bit field width of AIS).
    pub fn new(raw: u32) -> Option<Mmsi> {
        (raw > 0 && raw < 1_000_000_000).then_some(Mmsi(raw))
    }
}

impl fmt::Display for Mmsi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:09}", self.0)
    }
}

/// Navigational status (4-bit field of position reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum NavStatus {
    /// Under way using engine (0).
    UnderWayUsingEngine = 0,
    /// At anchor (1).
    AtAnchor = 1,
    /// Not under command (2).
    NotUnderCommand = 2,
    /// Restricted manoeuvrability (3).
    RestrictedManoeuvrability = 3,
    /// Constrained by her draught (4).
    ConstrainedByDraught = 4,
    /// Moored (5).
    Moored = 5,
    /// Aground (6).
    Aground = 6,
    /// Engaged in fishing (7).
    EngagedInFishing = 7,
    /// Under way sailing (8).
    UnderWaySailing = 8,
    /// Reserved for future use (9).
    Reserved9 = 9,
    /// Reserved for future use (10).
    Reserved10 = 10,
    /// Power-driven vessel towing astern (11).
    PowerDrivenTowingAstern = 11,
    /// Power-driven vessel pushing ahead (12).
    PowerDrivenPushingAhead = 12,
    /// Reserved for future use (13).
    Reserved13 = 13,
    /// AIS-SART active (14).
    AisSartActive = 14,
    /// Undefined / default (15).
    Undefined = 15,
}

impl NavStatus {
    /// Maps the raw 4-bit field.
    pub fn from_raw(raw: u8) -> NavStatus {
        match raw {
            0 => Self::UnderWayUsingEngine,
            1 => Self::AtAnchor,
            2 => Self::NotUnderCommand,
            3 => Self::RestrictedManoeuvrability,
            4 => Self::ConstrainedByDraught,
            5 => Self::Moored,
            6 => Self::Aground,
            7 => Self::EngagedInFishing,
            8 => Self::UnderWaySailing,
            9 => Self::Reserved9,
            10 => Self::Reserved10,
            11 => Self::PowerDrivenTowingAstern,
            12 => Self::PowerDrivenPushingAhead,
            13 => Self::Reserved13,
            14 => Self::AisSartActive,
            _ => Self::Undefined,
        }
    }

    /// The raw 4-bit value.
    pub fn raw(self) -> u8 {
        self as u8
    }

    /// Whether the vessel is stationary by status (anchored/moored/aground).
    /// The AIS transmission interval stretches to 3 minutes in these states.
    pub fn is_stationary(self) -> bool {
        matches!(self, Self::AtAnchor | Self::Moored | Self::Aground)
    }
}

/// Raw AIS ship-type code (8-bit field of static reports, values 0–99).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShipTypeCode(pub u8);

/// The market segment a vessel belongs to — the `vessel-type` dimension of
/// the paper's grouping sets (Table 2). The paper's inventory tracks the
/// commercial fleet (> 5000 GRT, class-A); segmentation follows the
/// industry convention MarineTraffic applies on top of the raw AIS
/// ship-type code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum MarketSegment {
    /// Container ships.
    Container = 0,
    /// Dry-bulk carriers.
    DryBulk = 1,
    /// Oil/chemical/product tankers.
    Tanker = 2,
    /// LNG/LPG carriers.
    Gas = 3,
    /// General cargo, ro-ro, vehicle carriers.
    GeneralCargo = 4,
    /// Cruise ships and ferries.
    Passenger = 5,
    /// Everything else (fishing, tugs, pleasure craft, …) — filtered out of
    /// the commercial inventory by the cleaning step.
    Other = 6,
}

impl MarketSegment {
    /// All segments, in discriminant order.
    pub const ALL: [MarketSegment; 7] = [
        Self::Container,
        Self::DryBulk,
        Self::Tanker,
        Self::Gas,
        Self::GeneralCargo,
        Self::Passenger,
        Self::Other,
    ];

    /// Whether this segment belongs to the commercial fleet.
    pub fn is_commercial(self) -> bool {
        !matches!(self, Self::Other)
    }

    /// Stable numeric id (used by the inventory's binary codec).
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Inverse of [`MarketSegment::id`].
    pub fn from_id(id: u8) -> Option<MarketSegment> {
        Self::ALL.get(id as usize).copied()
    }

    /// Classifies a raw AIS ship-type code into a market segment.
    ///
    /// The raw code distinguishes only coarse categories (6x passenger,
    /// 7x cargo, 8x tanker); real vessel databases refine 7x/8x with static
    /// data. The simulator emits refined codes via
    /// [`MarketSegment::representative_code`], so classification here
    /// round-trips.
    pub fn from_ship_type(code: ShipTypeCode) -> MarketSegment {
        match code.0 {
            60..=69 => Self::Passenger,
            71 => Self::Container, // industry refinement of "cargo, hazardous A"
            70 | 72..=74 => Self::GeneralCargo,
            75..=79 => Self::DryBulk,
            84 => Self::Gas, // refinement of "tanker, hazardous D"
            80..=83 | 85..=89 => Self::Tanker,
            _ => Self::Other,
        }
    }

    /// A representative AIS ship-type code for the segment (what the
    /// simulator writes into static reports).
    pub fn representative_code(self) -> ShipTypeCode {
        ShipTypeCode(match self {
            Self::Container => 71,
            Self::DryBulk => 75,
            Self::Tanker => 80,
            Self::Gas => 84,
            Self::GeneralCargo => 70,
            Self::Passenger => 60,
            Self::Other => 37, // pleasure craft
        })
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Container => "container",
            Self::DryBulk => "dry-bulk",
            Self::Tanker => "tanker",
            Self::Gas => "gas-carrier",
            Self::GeneralCargo => "general-cargo",
            Self::Passenger => "passenger",
            Self::Other => "other",
        }
    }
}

impl fmt::Display for MarketSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmsi_validation() {
        assert!(Mmsi::new(0).is_none());
        assert!(Mmsi::new(1_000_000_000).is_none());
        assert_eq!(Mmsi::new(211_339_980), Some(Mmsi(211_339_980)));
        assert_eq!(Mmsi(211_339_980).to_string(), "211339980");
        assert_eq!(Mmsi(99).to_string(), "000000099");
    }

    #[test]
    fn nav_status_round_trip() {
        for raw in 0..16u8 {
            let s = NavStatus::from_raw(raw);
            assert_eq!(s.raw(), raw);
        }
    }

    #[test]
    fn stationary_statuses() {
        assert!(NavStatus::Moored.is_stationary());
        assert!(NavStatus::AtAnchor.is_stationary());
        assert!(!NavStatus::UnderWayUsingEngine.is_stationary());
    }

    #[test]
    fn segment_classification() {
        assert_eq!(
            MarketSegment::from_ship_type(ShipTypeCode(71)),
            MarketSegment::Container
        );
        assert_eq!(
            MarketSegment::from_ship_type(ShipTypeCode(75)),
            MarketSegment::DryBulk
        );
        assert_eq!(
            MarketSegment::from_ship_type(ShipTypeCode(80)),
            MarketSegment::Tanker
        );
        assert_eq!(
            MarketSegment::from_ship_type(ShipTypeCode(84)),
            MarketSegment::Gas
        );
        assert_eq!(
            MarketSegment::from_ship_type(ShipTypeCode(65)),
            MarketSegment::Passenger
        );
        assert_eq!(
            MarketSegment::from_ship_type(ShipTypeCode(30)),
            MarketSegment::Other
        );
    }

    #[test]
    fn representative_codes_round_trip() {
        for seg in MarketSegment::ALL {
            assert_eq!(
                MarketSegment::from_ship_type(seg.representative_code()),
                seg,
                "segment {seg}"
            );
        }
    }

    #[test]
    fn segment_ids_round_trip() {
        for seg in MarketSegment::ALL {
            assert_eq!(MarketSegment::from_id(seg.id()), Some(seg));
        }
        assert_eq!(MarketSegment::from_id(7), None);
    }

    #[test]
    fn commercial_excludes_other() {
        for seg in MarketSegment::ALL {
            assert_eq!(seg.is_commercial(), seg != MarketSegment::Other);
        }
    }
}
