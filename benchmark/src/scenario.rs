//! The inputs, made from `--seed`: one fleetsim scenario for all four
//! workloads (50 vessels x 7 days at `interval_scale` 10, about a third
//! of a million reports; see [`VESSELS`]). Generation and NMEA encoding
//! are the load generator:
//! they are timed as `fleetsim.*` and belong to no workload's set-up.
//!
//! The world (fleet, voyages, the simulator's own emission) is one fixed
//! fleetsim scenario; `--seed` draws what a receiver adds to it: which
//! reports are lost and how far each position is off. Measured: across
//! ten *fleetsim* seeds the snapshot's bytes per record ranged 18.8-31.5
//! (quartiles 14 % of the median apart) and `batch_build` throughput
//! ranged 32 %, because the vessels (150 then) sail a different handful of routes
//! each time; a regression under a quarter would drown in that. Receiver
//! noise is a third of a million independent draws and averages out, so two seeds
//! give different bytes of the same composition.

use crate::trace;
use pol_ais::decode::AisMessage;
use pol_ais::encode::encode_static_voyage;
use pol_ais::{decode_payload, Assembler, PositionReport, Sentence, StaticReport};
use pol_core::records::PortSite;
use pol_core::PipelineConfig;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::nmea_out::{position_line, STATIC_INTERVAL_SECS};
use pol_fleetsim::scenario::{generate, Dataset, ScenarioConfig};
use pol_fleetsim::{Rng, WORLD_PORTS};
use pol_geo::LatLon;

/// The fleetsim seed of the fixed world (the repository's training seed).
pub const WORLD_SEED: u64 = 42;
/// Share of the world's reports the seed's receiver loses.
pub const RECEIVER_LOSS: f64 = 0.02;
/// Standard deviation of the seed's position error, metres per axis.
pub const RECEIVER_JITTER_M: f64 = 30.0;
/// The issue sized the scenario at 150 vessels (a million reports). The
/// accepting driver stopped a `stream_ingest` run of that size at its
/// 180 s limit: a pass over it writes 0.5 GB (21 checkpoints of up to
/// 39 MB, 50 MB of WAL, 29 MB of deltas) through 1.5 GB of resident
/// memory, and took 5.5 s, 28 s and 96 s on this box within a quarter of
/// an hour. A third of the fleet keeps every layer's share of the work
/// and lets a run hold three times the repetitions.
pub const VESSELS: usize = 50;
pub const DAYS: u32 = 7;
pub const INTERVAL_SCALE: f64 = 10.0;

/// What every workload starts from.
pub struct Inputs {
    pub positions: Vec<Vec<PositionReport>>,
    pub statics: Vec<StaticReport>,
    pub ports: Vec<PortSite>,
    pub cfg: PipelineConfig,
    /// Unix time of the scenario's first second.
    pub start_ts: i64,
    pub records: u64,
    pub generate_s: f64,
}

/// Drops and displaces reports as the receiver drawn from `seed` would.
fn receive(positions: &mut [Vec<PositionReport>], seed: u64) {
    const METRES_PER_DEGREE: f64 = 111_320.0;
    let mut rng = Rng::new(seed);
    for part in positions {
        part.retain_mut(|r| {
            if rng.chance(RECEIVER_LOSS) {
                return false;
            }
            let north = rng.normal() * RECEIVER_JITTER_M / METRES_PER_DEGREE;
            let east = rng.normal() * RECEIVER_JITTER_M
                / (METRES_PER_DEGREE * r.pos.lat().to_radians().cos().max(0.01));
            if let Some(moved) = LatLon::new(r.pos.lat() + north, r.pos.lon() + east) {
                r.pos = moved;
            }
            true
        });
    }
}

/// The fixed world as the receiver drawn from `seed` saw it.
pub fn inputs(seed: u64) -> Inputs {
    let (ds, generate_s): (Dataset, f64) = trace::timed("fleetsim.generate", 0, || {
        let mut ds = generate(&ScenarioConfig {
            seed: WORLD_SEED,
            n_vessels: VESSELS,
            duration_days: DAYS,
            emission: EmissionConfig {
                interval_scale: INTERVAL_SCALE,
                ..EmissionConfig::default()
            },
            ..ScenarioConfig::default()
        });
        receive(&mut ds.positions, seed);
        ds
    });
    let cfg = PipelineConfig::default();
    let ports = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: cfg.port_radius_km,
        })
        .collect();
    Inputs {
        records: ds.positions.iter().map(|p| p.len() as u64).sum(),
        start_ts: ds.config.start,
        positions: ds.positions,
        statics: ds.statics,
        ports,
        cfg,
        generate_s,
    }
}

/// The scenario as a line of text for the fingerprint.
pub fn describe() -> String {
    format!(
        "fleetsim seed {WORLD_SEED}, {VESSELS} vessels x {DAYS} days, interval_scale {INTERVAL_SCALE}; \
         --seed draws the receiver: {RECEIVER_LOSS} of reports lost, {RECEIVER_JITTER_M} m position error"
    )
}

/// Renders the scenario as the archive a receiving network would keep:
/// one `<receiver unix time>\t<AIVDM sentence>\n` per sentence, globally
/// time-ordered, type-1 positions interleaved with each vessel's periodic
/// two-sentence type-5 broadcast. AIS carries no full timestamp; the
/// receiver's tag is the only one, as at the paper's data provider.
pub fn encode_wire(inputs: &Inputs) -> String {
    // (timestamp, statics-before-positions, line), as fleetsim's own
    // `to_nmea_lines` orders them; that function drops the timestamps.
    let mut timed: Vec<(i64, u8, String)> = Vec::with_capacity(inputs.records as usize + 4096);
    let mut message_id: u8 = 0;
    for (part, vessel) in inputs.positions.iter().zip(&inputs.statics) {
        let mut next_static = i64::MIN;
        for r in part {
            if r.timestamp >= next_static {
                let (payload, fill) = encode_static_voyage(vessel, "", 0.0);
                message_id = message_id.wrapping_add(1) % 10;
                for s in Sentence::wrap(&payload, fill, message_id) {
                    timed.push((r.timestamp, 0, s.to_line()));
                }
                next_static = r.timestamp + STATIC_INTERVAL_SECS;
            }
            timed.push((r.timestamp, 1, position_line(r)));
        }
    }
    timed.sort();
    let mut wire = String::with_capacity(timed.len() * 64);
    for (ts, _, line) in timed {
        wire.push_str(&ts.to_string());
        wire.push('\t');
        wire.push_str(&line);
        wire.push('\n');
    }
    wire
}

/// What decoding the wire produced.
pub struct Decoded {
    /// Position reports in arrival order, cut into partitions for the
    /// build's scan phase.
    pub partitions: Vec<Vec<PositionReport>>,
    pub lines: u64,
    pub positions: u64,
    pub statics: u64,
    /// Lines that failed to parse, assemble into a payload that failed to
    /// decode, or positions without coordinates.
    pub failures: u64,
}

/// Lines parsed before the parsed batch is assembled and decoded; the two
/// steps alternate so that each gets its own span without a span per line.
const DECODE_BATCH: usize = 4096;
/// Records per build partition.
const PARTITION_RECORDS: usize = 32 * 1024;

/// Wire bytes to position reports through `ais`: `Sentence::parse`,
/// `Assembler::push`, `decode_payload`.
pub fn decode_wire(wire: &str, rep: u32) -> Decoded {
    let mut out = Decoded {
        partitions: vec![Vec::new()],
        lines: 0,
        positions: 0,
        statics: 0,
        failures: 0,
    };
    let mut assembler = Assembler::new();
    let mut batch: Vec<(i64, Sentence)> = Vec::with_capacity(DECODE_BATCH);
    let mut lines = wire.lines();
    loop {
        let t = trace::start("ais.parse", rep);
        batch.clear();
        for line in lines.by_ref().take(DECODE_BATCH) {
            out.lines += 1;
            let parsed = line.split_once('\t').and_then(|(ts, sentence)| {
                Some((ts.parse().ok()?, Sentence::parse(sentence).ok()?))
            });
            match parsed {
                Some(p) => batch.push(p),
                None => out.failures += 1,
            }
        }
        drop(t);
        if batch.is_empty() {
            return out;
        }
        let _t = trace::start("ais.decode", rep);
        for (timestamp, sentence) in batch.drain(..) {
            let Some((payload, fill)) = assembler.push(sentence) else {
                continue;
            };
            match decode_payload(&payload, fill) {
                Ok(AisMessage::PositionA {
                    mmsi,
                    nav_status,
                    sog_knots,
                    pos: Some(pos),
                    cog_deg,
                    heading_deg,
                    ..
                }) => {
                    out.positions += 1;
                    if out
                        .partitions
                        .last()
                        .is_some_and(|p| p.len() >= PARTITION_RECORDS)
                    {
                        out.partitions.push(Vec::with_capacity(PARTITION_RECORDS));
                    }
                    if let Some(part) = out.partitions.last_mut() {
                        part.push(PositionReport {
                            mmsi,
                            timestamp,
                            pos,
                            sog_knots,
                            cog_deg,
                            heading_deg,
                            nav_status,
                        });
                    }
                }
                Ok(AisMessage::StaticVoyage { .. }) => out.statics += 1,
                Ok(_) | Err(_) => out.failures += 1,
            }
        }
    }
}
