//! Helpers shared by `chaos.rs` and `recovery.rs`: the journal's
//! segments on disk, and the shuttle feed — one cargo vessel shuttling
//! between two ports two degrees apart, a report every ten minutes: its
//! open passage grows for forty reports, then moves into `retained` at
//! the far port, so a checkpoint mid-leg has reports to append.

use pol_ais::types::{Mmsi, NavStatus};
use pol_ais::PositionReport;
use pol_core::records::PortSite;
use pol_geo::LatLon;
use pol_stream::{StreamConfig, StreamEngine};
use std::path::{Path, PathBuf};

/// First batch sequences of the journal segments in `dir`, ascending,
/// with their paths.
pub(crate) fn segment_seqs(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut segments: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "polwal"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_str().unwrap();
            (name.strip_prefix("wal-").unwrap().parse().unwrap(), p)
        })
        .collect();
    segments.sort();
    segments
}

pub(crate) fn shuttle_engine() -> StreamEngine {
    StreamEngine::new(
        &shuttle_statics(),
        &shuttle_ports(),
        StreamConfig::default(),
    )
}

pub(crate) fn shuttle_statics() -> Vec<pol_ais::StaticReport> {
    vec![pol_ais::StaticReport {
        mmsi: Mmsi(200_000_001),
        imo: None,
        name: "SHUTTLE".to_string(),
        ship_type: pol_ais::types::ShipTypeCode(70),
        gross_tonnage: 30_000,
    }]
}

pub(crate) fn shuttle_ports() -> Vec<PortSite> {
    [10.0, 12.0]
        .into_iter()
        .enumerate()
        .map(|(id, lon)| PortSite {
            id: id as u16,
            name: format!("PORT {id}"),
            pos: LatLon::new(10.0, lon).unwrap(),
            radius_km: 12.0,
        })
        .collect()
}

pub(crate) fn shuttle_report(step: i64) -> PositionReport {
    let phase = step % 80;
    let out = if phase <= 40 { phase } else { 80 - phase };
    PositionReport {
        mmsi: Mmsi(200_000_001),
        timestamp: step * 600,
        pos: LatLon::new(10.0, 10.0 + out as f64 / 20.0).unwrap(),
        sog_knots: Some(18.0),
        cog_deg: None,
        heading_deg: None,
        nav_status: NavStatus::UnderWayUsingEngine,
    }
}
