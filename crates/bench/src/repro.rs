//! The paper's experiments as one checked command:
//! `polinv repro <name|all> [--out DIR]`.
//!
//! Every table, figure and use case EXPERIMENTS.md reports is one
//! [`Experiment`]: a function from a shared [`World`] to a [`Report`] of
//! printable rows, the CSV layers behind the paper's figures, and
//! [`Check`]s — the paper's shape claims as predicates over this run. A
//! `World` holds one scenario's training fleet, its res-6 and res-7
//! inventories, the held-out fleet and the disruption variants, each built
//! the first time an experiment asks for it, so `all` simulates and folds
//! each of them once.
//!
//! `polinv repro` runs on [`experiment_scenario`] and exits non-zero when
//! a check fails; `tests/repro.rs` runs every experiment on
//! [`quick_scenario`] and asserts every check. Timings are rows, never
//! checks: tier-1 runs unoptimised code. What the numbers mean is
//! EXPERIMENTS.md's to say; nothing here narrates.
//!
//! [`experiment_scenario`]: crate::experiment_scenario
//! [`quick_scenario`]: crate::quick_scenario

use crate::dbscan::{dbscan, DbscanParams, Label};
use crate::optics::{extract_clusters, optics, OpticsParams};
use crate::{build_inventory_on, port_sites, TEST_SEED};
use pol_ais::types::{MarketSegment, Mmsi};
use pol_ais::PositionReport;
use pol_apps::RouteForecaster;
use pol_apps::{naive_eta_secs, AnomalyDetector, DestinationPredictor, EtaEstimator};
use pol_core::{
    AdaptiveConfig, AdaptiveInventory, CellStats, CoverageReport, GroupKey, GroupingSet, Inventory,
    PipelineConfig, PipelineError,
};
use pol_engine::Engine;
use pol_fleetsim::emit::{emit_reports, EmissionConfig};
use pol_fleetsim::lanes::{LaneGraph, RouteOptions};
use pol_fleetsim::ports::port_by_locode;
use pol_fleetsim::scenario::{generate, Dataset, Disruption, ScenarioConfig, VoyageTruth};
use pol_fleetsim::voyage::{Activity, VoyagePlan};
use pol_fleetsim::{PortId, Rng, EPOCH_2022, WORLD_PORTS};
use pol_geo::{haversine_km, BBox, LatLon};
use pol_hexgrid::{
    cell_at, cell_boundary, cell_center, children, grid_disk, grid_distance, parent, CellIndex,
    Resolution,
};
use pol_sketch::{Distinct, HyperLogLog, LogHistogram, MergeSketch, SpeedMoments};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Vessels in the held-out fleet (the destination and disruption tests).
const HELD_OUT_VESSELS: usize = 60;

/// Vessels in the two fleets the port-closure check counts calls in: a
/// 60-vessel window plans only a handful of calls at any one port.
const PORT_CALL_VESSELS: usize = 250;

/// The port the closure variant shuts for the whole window.
const CLOSED_PORT: &str = "CNSHA";

/// Why an experiment could not produce its report.
#[derive(Debug)]
pub enum ReproError {
    /// Building an inventory failed.
    Pipeline(PipelineError),
    /// A port the experiment names is not in the simulator's table.
    UnknownPort(&'static str),
}

impl From<PipelineError> for ReproError {
    fn from(e: PipelineError) -> Self {
        ReproError::Pipeline(e)
    }
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::Pipeline(e) => write!(f, "{e}"),
            ReproError::UnknownPort(locode) => write!(f, "no port {locode} in the port table"),
        }
    }
}

impl std::error::Error for ReproError {}

/// What every experiment reads, each part built the first time it is
/// asked for and kept for the next experiment.
pub struct World {
    scenario: ScenarioConfig,
    engine: Engine,
    train: OnceLock<Dataset>,
    res6: OnceLock<Inventory>,
    res7: OnceLock<Inventory>,
    held_out: OnceLock<Dataset>,
    suez: OnceLock<Dataset>,
    calls: OnceLock<Dataset>,
    closure: OnceLock<Dataset>,
}

/// `cell`'s value, built by `build` on first use.
fn cached<T, E>(cell: &OnceLock<T>, build: impl FnOnce() -> Result<T, E>) -> Result<&T, E> {
    if let Some(value) = cell.get() {
        return Ok(value);
    }
    let value = build()?;
    Ok(cell.get_or_init(|| value))
}

impl World {
    /// A world over `scenario`, the training fleet; nothing is built yet.
    pub fn new(scenario: ScenarioConfig) -> World {
        World {
            scenario,
            engine: Engine::with_available_parallelism(),
            train: OnceLock::new(),
            res6: OnceLock::new(),
            res7: OnceLock::new(),
            held_out: OnceLock::new(),
            suez: OnceLock::new(),
            calls: OnceLock::new(),
            closure: OnceLock::new(),
        }
    }

    fn train(&self) -> &Dataset {
        self.train.get_or_init(|| generate(&self.scenario))
    }

    fn inventory<'a>(
        &'a self,
        cell: &'a OnceLock<Inventory>,
        cfg: PipelineConfig,
    ) -> Result<&'a Inventory, ReproError> {
        cached(cell, || {
            Ok(build_inventory_on(&self.engine, self.train(), &cfg)?.inventory)
        })
    }

    fn res6(&self) -> Result<&Inventory, ReproError> {
        self.inventory(&self.res6, PipelineConfig::default())
    }

    fn res7(&self) -> Result<&Inventory, ReproError> {
        self.inventory(&self.res7, PipelineConfig::fine())
    }

    /// The training scenario under the held-out seed, `n_vessels` strong.
    fn fleet(&self, n_vessels: usize, disruption: Option<Disruption>) -> Dataset {
        generate(&ScenarioConfig {
            seed: TEST_SEED,
            n_vessels,
            disruption,
            ..self.scenario.clone()
        })
    }

    fn held_out(&self) -> &Dataset {
        self.held_out
            .get_or_init(|| self.fleet(HELD_OUT_VESSELS, None))
    }

    /// The held-out fleet with Suez blocked for the whole window.
    fn suez(&self) -> &Dataset {
        let (from, to) = (self.scenario.start, self.scenario.end());
        let blocked = Disruption::SuezBlockage { from, to };
        self.suez
            .get_or_init(|| self.fleet(HELD_OUT_VESSELS, Some(blocked)))
    }

    fn calls(&self) -> &Dataset {
        self.calls
            .get_or_init(|| self.fleet(PORT_CALL_VESSELS, None))
    }

    /// [`World::calls`]' fleet with [`CLOSED_PORT`] shut for the window.
    fn closure(&self) -> Result<&Dataset, ReproError> {
        cached(&self.closure, || {
            let (from, to) = (self.scenario.start, self.scenario.end());
            let port = PortId(port_at(CLOSED_PORT)?.0);
            Ok(self.fleet(
                PORT_CALL_VESSELS,
                Some(Disruption::PortClosure { port, from, to }),
            ))
        })
    }
}

/// One of the paper's claims, and whether this run bears it out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Check {
    /// The claim, as EXPERIMENTS.md states it.
    pub claim: &'static str,
    /// Whether it holds on this run.
    pub holds: bool,
}

fn check(claim: &'static str, holds: bool) -> Check {
    Check { claim, holds }
}

/// A plottable layer behind one of the paper's figures.
pub struct Csv {
    /// File name under the output directory.
    pub name: &'static str,
    header: &'static str,
    rows: Vec<String>,
}

/// What one experiment found.
#[derive(Default)]
pub struct Report {
    /// Printable lines: tables, counts, timings.
    pub rows: Vec<String>,
    /// The paper's claims as predicates over this run.
    pub checks: Vec<Check>,
    /// The CSVs the experiment writes.
    pub csvs: Vec<Csv>,
}

impl Report {
    fn row(&mut self, row: impl Into<String>) {
        self.rows.push(row.into());
    }

    fn check(&mut self, claim: &'static str, holds: bool) {
        self.checks.push(check(claim, holds));
    }

    /// Adds a CSV whose rows are written sorted.
    fn csv(&mut self, name: &'static str, header: &'static str, mut rows: Vec<String>) {
        rows.sort();
        self.csvs.push(Csv { name, header, rows });
    }

    /// Whether every check holds.
    pub fn holds(&self) -> bool {
        self.checks.iter().all(|c| c.holds)
    }

    /// Writes every CSV into `dir`, creating it if needed; the paths
    /// written.
    pub fn write_csvs(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if !self.csvs.is_empty() {
            std::fs::create_dir_all(dir)?;
        }
        self.csvs
            .iter()
            .map(|csv| {
                let path = dir.join(csv.name);
                let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
                writeln!(out, "{}", csv.header)?;
                for row in &csv.rows {
                    writeln!(out, "{row}")?;
                }
                out.flush()?;
                Ok(path)
            })
            .collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        for c in &self.checks {
            writeln!(f, "[{}] {}", if c.holds { "ok" } else { "FAIL" }, c.claim)?;
        }
        Ok(())
    }
}

/// How an experiment runs: the shared world in, its report out.
pub type Run = fn(&World) -> Result<Report, ReproError>;

/// One table, figure or use case of the paper.
pub struct Experiment {
    /// The name `polinv repro` takes.
    pub name: &'static str,
    /// What of the paper it reproduces.
    pub reproduces: &'static str,
    /// Builds the report from the shared world.
    pub run: Run,
}

const fn exp(name: &'static str, reproduces: &'static str, run: Run) -> Experiment {
    Experiment {
        name,
        reproduces,
        run,
    }
}

/// Every experiment, in the order `polinv repro all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1", "Table 1: data used for methodology", table1),
    exp("table4", "Table 4: coverage and compression", table4),
    exp(
        "figure1",
        "Figure 1: global per-cell speed and course",
        figure1,
    ),
    exp(
        "figure2",
        "Figures 2 & 3: the methodology over the English Channel",
        figure2,
    ),
    exp(
        "figure4",
        "Figure 4: Baltic trips, speed and course at res 7",
        figure4,
    ),
    exp(
        "figure5",
        "Figure 5: global mean time to destination",
        figure5,
    ),
    exp(
        "figure6",
        "Figure 6: cells whose top destination is a hub",
        figure6,
    ),
    exp(
        "lookup_vs_scan",
        "§4: one inventory lookup instead of a scan",
        lookup_vs_scan,
    ),
    exp("eta", "§4.1.2: ETA on known routes", eta),
    exp(
        "destination",
        "§4.1.3: streaming destination prediction",
        destination,
    ),
    exp(
        "route",
        "§4.1.3: route forecasting by A* over transitions",
        route,
    ),
    exp(
        "disruption",
        "§1/§2: the model of normalcy flags COVID and Suez",
        disruption,
    ),
    exp("adaptive", "§5: the density-adaptive inventory", adaptive),
    exp(
        "sensitivity",
        "§2 / [20]: ε-sensitivity of density clustering",
        sensitivity,
    ),
    exp(
        "grid_ops",
        "§3.2.1: a performant grid (timings only)",
        grid_ops,
    ),
    exp(
        "sketches",
        "Table 3's statistics against exact answers",
        sketches,
    ),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// A port's id and position in the simulator's table.
fn port_at(locode: &'static str) -> Result<(u16, LatLon), ReproError> {
    port_by_locode(locode)
        .map(|(id, p)| (id.0, p.pos()))
        .ok_or(ReproError::UnknownPort(locode))
}

/// The `GroupKey::Cell` entries of an inventory.
fn cells(inv: &Inventory) -> impl Iterator<Item = (CellIndex, &CellStats)> {
    inv.iter().filter_map(|(key, stats)| match key {
        GroupKey::Cell(cell) => Some((*cell, stats)),
        _ => None,
    })
}

/// The cell holding the most records.
fn busiest_cell(inv: &Inventory) -> Option<(CellIndex, &CellStats)> {
    cells(inv).max_by_key(|(_, s)| s.records)
}

/// A CSV row's leading `cell,lat,lon` columns: the cell and its centre.
fn located(cell: CellIndex) -> String {
    let c = cell_center(cell);
    format!("{cell},{:.5},{:.5}", c.lat(), c.lon())
}

fn hours(secs: f64) -> f64 {
    secs / 3600.0
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

fn human(bytes: usize) -> String {
    let b = bytes as f64;
    if b >= f64::from(1 << 30) {
        format!("{:.1} GB", b / f64::from(1 << 30))
    } else if b >= f64::from(1 << 20) {
        format!("{:.1} MB", b / f64::from(1 << 20))
    } else {
        format!("{:.1} kB", b / f64::from(1 << 10))
    }
}

/// One report as a row of the archive Table 1 sizes:
/// `mmsi,timestamp,lat,lon,sog,cog,heading,status`, an absent field
/// empty, no newline.
fn position_to_row(r: &PositionReport) -> String {
    fn opt(v: Option<f64>) -> String {
        v.map(|x| format!("{x:.1}")).unwrap_or_default()
    }
    format!(
        "{},{},{:.6},{:.6},{},{},{},{}",
        r.mmsi.0,
        r.timestamp,
        r.pos.lat(),
        r.pos.lon(),
        opt(r.sog_knots),
        opt(r.cog_deg),
        opt(r.heading_deg),
        r.nav_status.raw()
    )
}

fn table1(w: &World) -> Result<Report, ReproError> {
    let (ds, cfg) = (w.train(), &w.scenario);
    let (rows, bytes) = ds
        .positions
        .iter()
        .flatten()
        .fold((0usize, 0), |(n, b), r| {
            (n + 1, b + position_to_row(r).len() + 1)
        });
    // Row estimates: mmsi, imo, name, type, grt; id, name, lat, lon.
    let static_bytes = ds.statics.iter().map(|s| 40 + s.name.len()).sum();
    let port_bytes = WORLD_PORTS.iter().map(|p| 40 + p.name.len()).sum();
    let mut r = Report::default();
    r.row(format!("{:<36} {:>10} {:>10}", "input", "rows", "size"));
    for (what, n, size) in [
        ("commercial fleet positional reports", rows, bytes),
        ("vessel static information", ds.statics.len(), static_bytes),
        ("port information", WORLD_PORTS.len(), port_bytes),
    ] {
        r.row(format!("{what:<36} {n:>10} {:>10}", human(size)));
    }
    r.row("paper: 2.7 B positional rows / 60 GB, 60 k vessels, 20 k ports");
    let (scale, per_row) = (
        2.7e9 / rows.max(1) as f64,
        bytes as f64 / rows.max(1) as f64,
    );
    r.row(format!(
        "scale 1:{scale:.0} positional rows ({} vessels, {} days, interval scale {}); \
         {per_row:.0} B/row (paper {:.0})",
        cfg.n_vessels,
        cfg.duration_days,
        cfg.emission.interval_scale,
        60e9 / 2.7e9
    ));
    Ok(r)
}

/// Table 4's shape. The absolute compression is a row, not a check: it
/// grows with fleet-time, and the paper's 99.73 / 98.44 % are a year of
/// 60 000 vessels.
fn table4_shape(c6: &CoverageReport, c7: &CoverageReport) -> [Check; 3] {
    [
        check(
            "res 6 compresses harder than res 7",
            c6.compression > c7.compression,
        ),
        check(
            "utilisation falls from res 6 to res 7",
            c7.utilization < c6.utilization,
        ),
        check(
            "the finer grid occupies more cells",
            c7.occupied_cells > c6.occupied_cells,
        ),
    ]
}

fn table4(w: &World) -> Result<Report, ReproError> {
    let (c6, c7) = (w.res6()?.coverage(), w.res7()?.coverage());
    let mut r = Report::default();
    r.row("res      #cells  compression  utilisation    records");
    for c in [&c6, &c7] {
        let (compression, utilisation) = (c.compression * 100.0, c.utilization * 100.0);
        r.row(format!(
            "{:<4} {:>10} {compression:>11.2}% {utilisation:>11.4}% {:>10}",
            c.resolution, c.occupied_cells, c.total_records
        ));
    }
    r.row("paper: res 6 7.30 M cells, 99.73 %, 51.69 %; res 7 42.47 M cells, 98.44 %, 42.96 %");
    r.checks.extend(table4_shape(&c6, &c7));
    Ok(r)
}

fn figure1(w: &World) -> Result<Report, ReproError> {
    let (mut speed, mut course, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut n, mut aligned) = (0u64, 0u64);
    for (cell, s) in cells(w.res6()?) {
        n += 1;
        if let Some(m) = s.speed.mean() {
            speed.push(format!("{},{m:.2},{}", located(cell), s.records));
            speeds.push(m);
        }
        if let (Some(m), Some(r)) = (s.course.mean_deg(), s.course.resultant_length()) {
            course.push(format!("{},{m:.1},{r:.3},{}", located(cell), s.records));
            aligned += u64::from(r > 0.8);
        }
    }
    let mut r = Report::default();
    r.row(format!("res-6 cells                      {n}"));
    r.row(format!("cells with speed statistics      {}", speeds.len()));
    r.row(format!(
        "mean of cell-mean speeds         {:.1} kn",
        mean(&speeds)
    ));
    let pct = 100.0 * share(aligned, n);
    r.row(format!(
        "lane-aligned cells (R > 0.8)     {aligned} ({pct:.1} %)"
    ));
    r.csv(
        "figure1_speed.csv",
        "cell,lat,lon,mean_speed_kn,records",
        speed,
    );
    let header = "cell,lat,lon,mean_course_deg,alignment,records";
    r.csv("figure1_course.csv", header, course);
    Ok(r)
}

fn figure2(w: &World) -> Result<Report, ReproError> {
    let ds = w.train();
    let bbox = BBox::english_channel();
    let in_box = |part: &[PositionReport]| {
        part.iter()
            .filter(|r| bbox.contains(r.pos))
            .copied()
            .collect()
    };
    let positions: Vec<Vec<PositionReport>> = ds.positions.iter().map(|p| in_box(p)).collect();
    let raw: u64 = positions.iter().map(|p| p.len() as u64).sum();
    // An engine of its own, so the stage table is this walkthrough's.
    let engine = Engine::with_available_parallelism();
    let cfg = PipelineConfig::default();
    let ports = port_sites(cfg.port_radius_km);
    let out = pol_core::run_fused(&engine, positions, &ds.statics, &ports, &cfg)?;
    let (n, cr) = (&out.counts, &out.clean_report);
    let mut r = Report::default();
    for (stage, records) in [
        ("(a) raw records in the Channel box", raw),
        ("    removed: out of range", cr.out_of_range),
        ("    removed: duplicate", cr.duplicates),
        ("    removed: infeasible", cr.infeasible),
        ("    removed: non-commercial", cr.non_commercial),
        ("    cleaned", n.cleaned),
        ("(b) in a port-to-port trip", n.with_trips),
        ("(d) projected to cells", n.projected),
        ("(e) grouping-set entries", n.group_entries),
        ("    over cells", out.inventory.coverage().occupied_cells),
    ] {
        r.row(format!("{stage:<36} {records:>8}"));
    }
    if let Some((cell, s)) = busiest_cell(&out.inventory) {
        let (records, ships) = (s.records, s.ships.estimate());
        r.row(format!(
            "(f) busiest cell {}: {records} records, {ships} ships",
            located(cell)
        ));
        for (next, count) in s.top_transitions(5) {
            r.row(format!("    -> {} observed {count} times", located(next)));
        }
    }
    r.rows
        .extend(engine.metrics().render().lines().map(str::to_string));
    let removed = cr.out_of_range + cr.duplicates + cr.infeasible + cr.non_commercial;
    r.check(
        "every raw record is cleaned or removed for a named reason, and every \
         trip record is projected to a cell",
        raw == n.cleaned + removed && n.projected == n.with_trips,
    );
    Ok(r)
}

fn figure4(w: &World) -> Result<Report, ReproError> {
    let bbox = BBox::baltic();
    let (mut trips, mut speed, mut course) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Vec::new();
    for (cell, s) in cells(w.res7()?).filter(|(cell, _)| bbox.contains(cell_center(*cell))) {
        let n = s.trips.estimate();
        counts.push(n);
        trips.push(format!("{},{n}", located(cell)));
        if let Some(m) = s.speed.mean() {
            speed.push(format!("{},{m:.2}", located(cell)));
        }
        if let (Some(m), Some(r)) = (s.course.mean_deg(), s.course.resultant_length()) {
            course.push(format!("{},{m:.1},{r:.3}", located(cell)));
        }
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = counts.iter().take(counts.len() / 10 + 1).sum();
    let lanes = 100.0 * share(top, counts.iter().sum());
    let mut r = Report::default();
    r.row(format!(
        "Baltic cells at res 7              {}",
        counts.len()
    ));
    r.row(format!("trips on the busiest 10 % of cells {lanes:.0} %"));
    r.csv("figure4_baltic_trips.csv", "cell,lat,lon,trips", trips);
    r.csv(
        "figure4_baltic_speed.csv",
        "cell,lat,lon,mean_speed_kn",
        speed,
    );
    r.csv(
        "figure4_baltic_course.csv",
        "cell,lat,lon,mean_course_deg,alignment",
        course,
    );
    Ok(r)
}

fn figure5(w: &World) -> Result<Report, ReproError> {
    let (mut rows, mut near_port, mut open_sea) = (Vec::new(), Vec::new(), Vec::new());
    for (cell, s) in cells(w.res6()?) {
        let Some(ata) = s.ata.mean().map(hours) else {
            continue;
        };
        rows.push(format!("{},{ata:.2},{}", located(cell), s.ata.count()));
        let c = cell_center(cell);
        let km = WORLD_PORTS
            .iter()
            .map(|p| haversine_km(c, p.pos()))
            .fold(f64::INFINITY, f64::min);
        if km < 50.0 {
            near_port.push(ata);
        } else if km > 500.0 {
            open_sea.push(ata);
        }
    }
    let mut r = Report::default();
    r.row(format!("cells with ATA statistics        {}", rows.len()));
    for (zone, v) in [
        ("< 50 km from a port", &near_port),
        ("> 500 km from any port", &open_sea),
    ] {
        r.row(format!(
            "mean ATA {zone:<23} {:.1} h over {} cells",
            mean(v),
            v.len()
        ));
    }
    r.check(
        "time to destination shrinks toward ports",
        !near_port.is_empty() && !open_sea.is_empty() && mean(&near_port) < mean(&open_sea),
    );
    r.csv(
        "figure5_ata.csv",
        "cell,lat,lon,mean_ata_hours,samples",
        rows,
    );
    Ok(r)
}

fn figure6(w: &World) -> Result<Report, ReproError> {
    let inv = w.res6()?;
    let hubs = [
        ("SGSIN", "singapore"),
        ("CNSHA", "shanghai"),
        ("NLRTM", "rotterdam"),
    ];
    let (mut rows, mut recovered) = (Vec::new(), 0);
    let mut r = Report::default();
    for (locode, label) in hubs {
        let (pid, at) = port_at(locode)?;
        let hub_cells = inv.cells_with_top_destination(pid, None);
        let km: Vec<f64> = hub_cells
            .iter()
            .map(|c| haversine_km(cell_center(*c), at))
            .collect();
        let (n, mean_km) = (hub_cells.len(), mean(&km));
        r.row(format!(
            "{label:<10} {n:>6} cells, mean distance to the port {mean_km:>6.0} km"
        ));
        recovered += usize::from(n > 0);
        rows.extend(hub_cells.iter().map(|c| format!("{},{label}", located(*c))));
    }
    r.row(format!("coloured cells {}", rows.len()));
    r.check(
        "Singapore, Shanghai and Rotterdam are each the top destination of some cells",
        recovered == hubs.len(),
    );
    r.csv(
        "figure6_top_destinations.csv",
        "cell,lat,lon,destination",
        rows,
    );
    Ok(r)
}

fn lookup_vs_scan(w: &World) -> Result<Report, ReproError> {
    const LOOKUPS: u32 = 100_000;
    const CLAIM: &str = "a lookup touches 1 entry where a scan touches every record";
    let (inv, ds) = (w.res6()?, w.train());
    let mut r = Report::default();
    let Some((cell, _)) = busiest_cell(inv) else {
        r.check(CLAIM, false);
        return Ok(r);
    };
    let started = Instant::now();
    let mut found = 0u32;
    for _ in 0..LOOKUPS {
        let s = inv.summary(black_box(cell));
        found += u32::from(black_box(s.map(|s| (s.records, s.speed.mean()))).is_some());
    }
    let lookup_ns = started.elapsed().as_nanos() as f64 / f64::from(LOOKUPS);
    // What answering without the inventory costs: project every raw
    // record and aggregate the ones in the cell.
    let started = Instant::now();
    let (mut scanned, mut matched, mut speed) = (0usize, 0u64, SpeedMoments::new());
    for rec in ds.positions.iter().flatten() {
        scanned += 1;
        if cell_at(rec.pos, inv.resolution()) == cell {
            matched += 1;
            rec.sog_knots.into_iter().for_each(|sog| speed.add(sog));
        }
    }
    black_box(speed.mean());
    let scan_ns = started.elapsed().as_nanos() as f64;
    let (scan_ms, gap) = (scan_ns / 1e6, scan_ns / lookup_ns.max(1.0));
    r.row(format!(
        "lookup: 1 entry, {lookup_ns:.0} ns; scan: {scanned} records ({matched} in the cell), \
         {scan_ms:.1} ms; {gap:.0}x"
    ));
    r.check(
        CLAIM,
        found == LOOKUPS && scanned == ds.total_reports() && scanned > 1,
    );
    Ok(r)
}

/// A known sea route: origin, destination, segment, cells holding the key.
type RouteKey = (u16, u16, MarketSegment, usize);

/// The best-covered route keys, by cells holding the key, descending:
/// the "known sea routes" §4.1.2/§4.1.3 apply to.
fn top_route_keys(inv: &Inventory, min_cells: usize, n: usize) -> Vec<RouteKey> {
    let mut counts: BTreeMap<(u16, u16, MarketSegment), usize> = BTreeMap::new();
    for (key, _) in inv.iter() {
        if let GroupKey::CellRoute(_, o, d, seg) = key {
            *counts.entry((*o, *d, *seg)).or_insert(0) += 1;
        }
    }
    let mut keys: Vec<RouteKey> = counts
        .into_iter()
        .filter(|(_, c)| *c >= min_cells)
        .map(|((o, d, seg), c)| (o, d, seg, c))
        .collect();
    // Stable: equal counts stay in (origin, dest, segment) order.
    keys.sort_by_key(|k| std::cmp::Reverse(k.3));
    keys.truncate(n);
    keys
}

/// A plausible cruise speed for a segment.
fn typical_speed_kn(seg: MarketSegment) -> f64 {
    use MarketSegment::*;
    match seg {
        Container => 17.5,
        DryBulk => 12.5,
        Tanker => 13.0,
        Gas => 17.0,
        GeneralCargo => 14.0,
        Passenger => 20.0,
        Other => 12.0,
    }
}

/// A fresh voyage on the `i`-th known route — a new vessel on a known
/// lane, with its own noise and speed — as its reports and true arrival
/// time; `None` when the lane graph cannot route the pair.
fn replay(&(o, d, seg, _): &RouteKey, i: usize, seed: u64) -> Option<(i64, Vec<PositionReport>)> {
    let route = LaneGraph::global().route(PortId(o), PortId(d), RouteOptions::default())?;
    let departure = EPOCH_2022 + 86_400;
    let speed_kn = typical_speed_kn(seg) + (i % 3) as f64 - 1.0;
    let plan = VoyagePlan {
        origin: PortId(o),
        dest: PortId(d),
        departure,
        speed_kn,
        route,
    };
    let arrival = plan.arrival();
    let emission = EmissionConfig {
        interval_scale: 10.0,
        dropout: 0.05,
        gps_noise_m: 30.0,
        corrupt_rate: 0.0,
    };
    let mmsi = Mmsi(900_000_000 + (seed % 99_999_999) as u32);
    let acts = [Activity::Voyage(plan)];
    let reports = emit_reports(
        mmsi,
        &acts,
        departure,
        arrival + 1,
        &emission,
        &mut Rng::new(seed),
    );
    Some((arrival, reports))
}

fn eta(w: &World) -> Result<Report, ReproError> {
    let inv = w.res6()?;
    let estimator = EtaEstimator::new(inv);
    let keys = top_route_keys(inv, 40, 15);
    let fractions = [0.25, 0.5, 0.75];
    let mut inv_err = vec![Vec::new(); fractions.len()];
    let mut naive_err = vec![Vec::new(); fractions.len()];
    for (i, key @ &(o, d, seg, _)) in keys.iter().enumerate() {
        let Some((arrival, reports)) = replay(key, i, 31_000 + i as u64) else {
            continue;
        };
        let (Some(first), Some(dest)) = (reports.first(), WORLD_PORTS.get(usize::from(d))) else {
            continue;
        };
        if reports.len() < 20 {
            continue;
        }
        for (fi, frac) in fractions.iter().enumerate() {
            let t = first.timestamp + ((arrival - first.timestamp) as f64 * frac) as i64;
            let Some(rep) = reports.iter().min_by_key(|r| (r.timestamp - t).abs()) else {
                continue;
            };
            let truth = (arrival - rep.timestamp) as f64;
            if truth <= 0.0 {
                continue;
            }
            if let Some(est) = estimator.estimate(rep.pos, Some(seg), Some((o, d))) {
                inv_err[fi].push((est.p50_secs - truth).abs());
                naive_err[fi].push((naive_eta_secs(rep.pos, dest.pos(), 14.0) - truth).abs());
            }
        }
    }
    let mut r = Report::default();
    r.row(format!("known routes evaluated {}", keys.len()));
    r.row("progress    samples  inventory MAE      naive MAE");
    let (mut inv_total, mut naive_total) = (0.0, 0.0);
    for ((frac, inv_e), naive_e) in fractions.iter().zip(&inv_err).zip(&naive_err) {
        let (a, b, pct) = (hours(mean(inv_e)), hours(mean(naive_e)), frac * 100.0);
        r.row(format!(
            "{:<10} {:>8} {a:>12.1} h {b:>12.1} h",
            format!("{pct:.0} %"),
            inv_e.len()
        ));
        inv_total += a;
        naive_total += b;
    }
    let (a, b) = (
        inv_total / fractions.len() as f64,
        naive_total / fractions.len() as f64,
    );
    r.row(format!("mean                {a:>12.1} h {b:>12.1} h"));
    r.check(
        "on known routes the inventory's historical ATA beats the great-circle baseline",
        inv_total < naive_total,
    );
    Ok(r)
}

/// The reports a vessel emitted during one ground-truth voyage.
fn reports_for_voyage<'a>(ds: &'a Dataset, v: &VoyageTruth) -> Vec<&'a PositionReport> {
    let vessel = ds.fleet.iter().position(|f| f.mmsi == v.mmsi);
    let part = vessel
        .and_then(|i| ds.positions.get(i))
        .map_or(&[][..], Vec::as_slice);
    part.iter()
        .filter(|r| (v.departure..=v.arrival).contains(&r.timestamp))
        .collect()
}

/// §4.1.3's claims over per-checkpoint hit counts: top-1 accuracy grows
/// along the voyage, and the last checkpoint beats a uniform guess over
/// `ports` destinations at both top-1 and top-3.
fn destination_claims(top1: &[u64], top3: &[u64], total: &[u64], ports: usize) -> [Check; 2] {
    let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    let rate = |hits: &[u64], i: usize| share(at(hits, i), at(total, i));
    let (last, ports) = (total.len().saturating_sub(1), ports.max(1) as f64);
    [
        check(
            "top-1 accuracy grows as the voyage proceeds",
            rate(top1, last) > rate(top1, 0),
        ),
        check(
            "at 90 % of the voyage top-1 and top-3 beat a random guess over every port",
            rate(top1, last) > 1.0 / ports && rate(top3, last) > 3.0 / ports,
        ),
    ]
}

fn destination(w: &World) -> Result<Report, ReproError> {
    let (inv, test) = (w.res6()?, w.held_out());
    let checkpoints = [0.25, 0.5, 0.75, 0.9];
    let mut top1 = vec![0u64; checkpoints.len()];
    let mut top3 = vec![0u64; checkpoints.len()];
    let mut total = vec![0u64; checkpoints.len()];
    let mut voyages = 0;
    for v in &test.truth {
        let reports = reports_for_voyage(test, v);
        if reports.len() < 20 {
            continue;
        }
        voyages += 1;
        let seg = test
            .fleet
            .iter()
            .find(|f| f.mmsi == v.mmsi)
            .map(|f| f.segment);
        let mut predictor = DestinationPredictor::new(inv, seg);
        let duration = (v.arrival - v.departure) as f64;
        let mut ci = 0;
        for rep in &reports {
            predictor.observe(rep.pos);
            let progress = (rep.timestamp - v.departure) as f64 / duration;
            while checkpoints.get(ci).is_some_and(|c| progress >= *c) {
                let ranked = predictor.top(3);
                total[ci] += 1;
                top1[ci] += u64::from(ranked.first().map(|(d, _)| *d) == Some(v.dest.0));
                top3[ci] += u64::from(ranked.iter().any(|(d, _)| *d == v.dest.0));
                ci += 1;
            }
        }
    }
    let mut r = Report::default();
    r.row(format!("held-out voyages {voyages}"));
    r.row("progress    samples    top-1    top-3");
    for (i, c) in checkpoints.iter().enumerate() {
        let (n, pct) = (total[i], c * 100.0);
        let (a, b) = (100.0 * share(top1[i], n), 100.0 * share(top3[i], n));
        r.row(format!(
            "{:<10} {n:>8} {a:>7.1}% {b:>7.1}%",
            format!("{pct:.0} %")
        ));
    }
    let ports = WORLD_PORTS.len();
    let (a, b) = (100.0 / ports as f64, 300.0 / ports as f64);
    r.row(format!(
        "random over {ports} ports: top-1 {a:.1} %, top-3 {b:.1} %"
    ));
    r.checks
        .extend(destination_claims(&top1, &top3, &total, ports));
    Ok(r)
}

fn route(w: &World) -> Result<Report, ReproError> {
    let inv = w.res6()?;
    let res = inv.resolution();
    let keys = top_route_keys(inv, 40, 12);
    let (mut attempted, mut forecasts) = (0u64, 0u64);
    let (mut on_lane, mut len_ratio) = (Vec::new(), Vec::new());
    let mut r = Report::default();
    for (i, key @ &(o, d, seg, key_cells)) in keys.iter().enumerate() {
        let ports = (
            WORLD_PORTS.get(usize::from(o)),
            WORLD_PORTS.get(usize::from(d)),
        );
        let (Some(from), Some(to)) = ports else {
            continue;
        };
        let Some((_, reports)) = replay(key, i, 9_000 + i as u64) else {
            continue;
        };
        if reports.len() < 30 {
            continue;
        }
        attempted += 1;
        let lane = format!(
            "{} -> {} [{seg}] ({key_cells} key cells)",
            from.name, to.name
        );
        let forecaster = RouteForecaster::build(inv, o, d, seg, to.pos());
        // Forecast from 30 % of the way along.
        let rest = reports.get(reports.len() * 3 / 10..).unwrap_or_default();
        let Some(fc) = rest.first().and_then(|p| forecaster.forecast(p.pos, res)) else {
            r.row(format!("{lane}: off-lane at the pivot, no forecast"));
            continue;
        };
        forecasts += 1;
        let actual: Vec<CellIndex> = rest.iter().map(|p| cell_at(p.pos, res)).collect();
        let actual_set: HashSet<CellIndex> = actual.iter().copied().collect();
        let near = |c: &CellIndex| {
            actual
                .iter()
                .any(|a| grid_distance(*a, *c).is_some_and(|x| x <= 1))
        };
        let close = fc
            .cells
            .iter()
            .filter(|c| actual_set.contains(c) || near(c))
            .count();
        let frac = close as f64 / fc.cells.len().max(1) as f64;
        on_lane.push(frac);
        len_ratio.push(fc.cells.len() as f64 / actual_set.len().max(1) as f64);
        let (n, pct) = (fc.cells.len(), frac * 100.0);
        r.row(format!(
            "{lane}: {n} forecast cells, {pct:.0} % on or next to the track"
        ));
    }
    let (pct, ratio) = (100.0 * mean(&on_lane), mean(&len_ratio));
    r.row(format!(
        "forecasts {forecasts} of {attempted}; {pct:.0} % of forecast cells on or next to the \
         track; forecast/actual length {ratio:.2}"
    ));
    r.check(
        "A* over observed transitions reconstructs the lane of a known route",
        forecasts * 2 >= attempted.max(1) && mean(&on_lane) > 0.5,
    );
    Ok(r)
}

fn anomaly_rate(det: &AnomalyDetector, ds: &Dataset) -> f64 {
    det.anomaly_rate(ds.positions.iter().zip(&ds.fleet).flat_map(|(part, v)| {
        part.iter()
            .map(move |r| (r.pos, r.sog_knots, r.cog_deg, Some(v.segment)))
    }))
}

/// A port closure shows as a collapse of planned calls: fewer than half
/// the normal fleet's, which must have planned some.
fn port_calls_collapse(normal: u64, closure: u64) -> bool {
    normal > 0 && closure * 2 < normal
}

fn disruption(w: &World) -> Result<Report, ReproError> {
    let det = AnomalyDetector::new(w.res6()?);
    let (r_normal, r_suez) = (
        anomaly_rate(&det, w.held_out()),
        anomaly_rate(&det, w.suez()),
    );
    let (closed, closed_at) = port_at(CLOSED_PORT)?;
    let start = w.scenario.start;
    // Reports near the port are dominated by the coastal through-lane;
    // port calls are the operational signal.
    let calls = |ds: &Dataset| {
        ds.truth
            .iter()
            .filter(|v| v.dest.0 == closed && v.departure >= start)
            .count() as u64
    };
    let moored = |ds: &Dataset| {
        let near = |r: &&PositionReport| haversine_km(r.pos, closed_at) < 25.0;
        ds.positions
            .iter()
            .flatten()
            .filter(|r| r.nav_status.is_stationary() && near(r))
            .count()
    };
    let (normal, closure) = (w.calls(), w.closure()?);
    let (c_normal, c_closure) = (calls(normal), calls(closure));
    let (m_normal, m_closure) = (moored(normal), moored(closure));
    let (a, b) = (r_normal * 100.0, r_suez * 100.0);
    let lift = r_suez / r_normal.max(f64::MIN_POSITIVE);
    let mut r = Report::default();
    r.row(format!("anomaly rate, held-out normal fleet  {a:.2} %"));
    r.row(format!(
        "anomaly rate, Suez-blockage fleet    {b:.2} % ({lift:.1}x)"
    ));
    r.row(format!(
        "{CLOSED_PORT} calls planned          normal {c_normal:>5}, closure {c_closure:>5}"
    ));
    r.row(format!(
        "{CLOSED_PORT} moored reports < 25 km normal {m_normal:>5}, closure {m_closure:>5}"
    ));
    r.check(
        "the Suez blockage raises the anomaly rate",
        r_suez > r_normal,
    );
    r.check(
        "the port closure collapses planned calls below half of normal",
        port_calls_collapse(c_normal, c_closure),
    );
    Ok(r)
}

fn adaptive(w: &World) -> Result<Report, ReproError> {
    let inv = w.res7()?;
    let fine_cells = inv.len_of(GroupingSet::Cell);
    let records = inv.coverage().total_records;
    let mut r = Report::default();
    r.row("threshold     cells  vs fine    records  resolution mix");
    let (mut exact, mut conserved, mut probed) = (true, true, None);
    for min_records_per_cell in [16u64, 64, 256] {
        let cfg = AdaptiveConfig {
            min_records_per_cell,
            coarsest: Resolution::new_static(3),
        };
        let a = AdaptiveInventory::build(inv, &cfg);
        exact &= a.partition_violations() == 0;
        conserved &= a.total_records() == records;
        let mix: Vec<String> = a
            .resolution_histogram()
            .iter()
            .map(|(res, n)| format!("r{res}:{n}"))
            .collect();
        let (n, kept, mix) = (a.len(), a.total_records(), mix.join(" "));
        let pct = 100.0 * share(n as u64, fine_cells as u64);
        r.row(format!(
            "{min_records_per_cell:<10} {n:>8} {pct:>7.0}% {kept:>10}  {mix}"
        ));
        if min_records_per_cell == 64 {
            probed = Some(a);
        }
    }
    let lane = busiest_cell(inv).map(|(c, _)| cell_center(c));
    for (what, at) in [
        ("busiest lane cell", lane),
        ("mid-Indian Ocean", LatLon::new(-8.0, 72.0)),
    ] {
        match at.zip(probed.as_ref()).and_then(|(p, a)| a.summary_at(p)) {
            Some((cell, s)) => r.row(format!(
                "{what:<18} answered at res {} from {} records (threshold 64)",
                cell.resolution().level(),
                s.records
            )),
            None => r.row(format!("{what:<18} no traffic seen")),
        }
    }
    r.row(format!("fine inventory {fine_cells} cells at res 7"));
    r.check(
        "no adaptive cell is an ancestor of another, at every threshold",
        exact,
    );
    r.check("coarsening conserves every record", conserved);
    Ok(r)
}

fn sensitivity(w: &World) -> Result<Report, ReproError> {
    let reports = w.train().positions.iter().flatten();
    let points: Vec<LatLon> = reports.take(30_000).map(|r| r.pos).collect();
    // Dense: within 50 km of a port; sparse: open sea.
    let near_port: Vec<bool> = points
        .iter()
        .map(|p| {
            WORLD_PORTS
                .iter()
                .any(|port| haversine_km(*p, port.pos()) < 50.0)
        })
        .collect();
    let dense = near_port.iter().filter(|d| **d).count();
    let sparse = points.len() - dense;
    let mut r = Report::default();
    r.row(format!(
        "{} points: {dense} near ports (dense), {sparse} open sea (sparse)",
        points.len()
    ));
    r.row("  eps km  clusters  dense clustered sparse clustered");
    let mut counts = Vec::new();
    for eps_km in [1.0, 3.0, 10.0, 30.0, 100.0] {
        let (labels, k) = dbscan(&points, DbscanParams { eps_km, min_pts: 5 });
        let clustered = |want_dense: bool, of: usize| {
            let pairs = labels.iter().zip(&near_port);
            let got = pairs
                .filter(|(l, d)| **d == want_dense && **l != Label::Noise)
                .count();
            100.0 * share(got as u64, of as u64)
        };
        let (a, b) = (clustered(true, dense), clustered(false, sparse));
        r.row(format!("{eps_km:>8} {k:>9} {a:>15.1}% {b:>15.1}%"));
        counts.push(k);
    }
    let max_k = counts.iter().copied().max().unwrap_or(0);
    let min_k = counts.iter().copied().filter(|k| *k > 0).min().unwrap_or(0);
    // OPTICS defers the choice of ε to extraction, where it comes back.
    let order = optics(
        &points,
        OpticsParams {
            max_eps_km: 100.0,
            min_pts: 5,
        },
    );
    for eps in [3.0, 60.0] {
        let (labels, k) = extract_clusters(&order, points.len(), eps);
        let noise = labels.iter().filter(|l| **l == Label::Noise).count();
        r.row(format!("OPTICS eps' {eps} km: {k} clusters, {noise} noise"));
    }
    for level in [5u8, 6, 7] {
        let res = Resolution::new_static(level);
        let n = points
            .iter()
            .map(|p| cell_at(*p, res))
            .collect::<HashSet<_>>()
            .len();
        r.row(format!(
            "grid res {level}: {n} cells, every point summarised"
        ));
    }
    r.check(
        "DBSCAN's cluster count swings more than 20x across the ε sweep",
        min_k > 0 && max_k > 20 * min_k,
    );
    Ok(r)
}

/// Nanoseconds per item of one pass of `op` over `items`.
fn ns_per_item<T, R>(items: &[T], mut op: impl FnMut(&T) -> R) -> f64 {
    let started = Instant::now();
    for x in items {
        black_box(op(x));
    }
    started.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

fn grid_ops(_: &World) -> Result<Report, ReproError> {
    let (res6, res7) = (Resolution::new_static(6), Resolution::new_static(7));
    // A deterministic scatter of maritime-looking positions.
    let points: Vec<LatLon> = (0..10_000)
        .filter_map(|i| {
            let lat = -60.0 + f64::from((i * 7919) % 12_000) / 100.0;
            let lon = -180.0 + f64::from((i * 104_729) % 36_000) / 100.0;
            LatLon::new(lat, lon)
        })
        .collect();
    let cells: Vec<CellIndex> = points.iter().map(|p| cell_at(*p, res6)).collect();
    let few = |n: usize| cells.get(..n).unwrap_or(&cells);
    let mut r = Report::default();
    r.row("operation                   ns/op");
    let mut time = |op: &str, ns: f64| r.row(format!("{op:<22} {ns:>10.0}"));
    time(
        "latlon -> cell, res 6",
        ns_per_item(&points, |p| cell_at(*p, res6)),
    );
    time(
        "latlon -> cell, res 7",
        ns_per_item(&points, |p| cell_at(*p, res7)),
    );
    time("cell_center", ns_per_item(&cells, |c| cell_center(*c)));
    time("parent", ns_per_item(&cells, |c| parent(*c)));
    time("children", ns_per_item(&cells, |c| children(*c)));
    time(
        "cell_boundary",
        ns_per_item(few(1_000), |c| cell_boundary(*c)),
    );
    for k in [1, 3, 8] {
        time(
            &format!("grid_disk k = {k}"),
            ns_per_item(few(200), |c| grid_disk(*c, k)),
        );
    }
    Ok(r)
}

/// Rank error GK is built with.
/// An AIS-like bimodal speed stream: a moored mass at 0–0.5 kn, a cruise
/// mode at 12–20 kn.
fn bimodal_speeds(n: u32) -> Vec<f64> {
    let speed = |i: u32| match i % 3 {
        0 => f64::from((i * 31) % 100) / 200.0,
        _ => 12.0 + f64::from((i * 17) % 800) / 100.0,
    };
    (0..n).map(speed).collect()
}

/// How far `estimate` is from rank `phi·(n − 1)` of `sorted`, as a share
/// of `n`: 0 when some tie of `estimate` holds that rank.
fn rank_error(sorted: &[f64], phi: f64, estimate: f64) -> f64 {
    let target = phi * (sorted.len() - 1) as f64;
    let lo = sorted.partition_point(|x| *x < estimate) as f64;
    let hi = sorted.partition_point(|x| *x <= estimate) as f64 - 1.0;
    (lo - target).max(target - hi).max(0.0) / sorted.len() as f64
}

fn sketches(_: &World) -> Result<Report, ReproError> {
    let data = bimodal_speeds(100_000);
    let alpha = PipelineConfig::default().quantile_epsilon;
    let mut summary = LogHistogram::new(alpha);
    let summary_ns = ns_per_item(&data, |x| summary.add(*x));
    let started = Instant::now();
    let mut sorted = data.clone();
    sorted.sort_by(f64::total_cmp);
    let sort_ns = started.elapsed().as_nanos() as f64 / data.len() as f64;
    let bound = summary.mapping().relative_accuracy();

    let mut r = Report::default();
    r.row(format!(
        "log-bucketed summary, {} buckets per octave (α = {bound:.4}): {} buckets for {} values",
        summary.mapping().per_octave(),
        summary.buckets().len(),
        data.len()
    ));
    r.row("          exact  summary  rel. error  rank error");
    let mut within = true;
    for (phi, got) in [0.1, 0.5, 0.9]
        .into_iter()
        .zip(summary.quantiles([0.1, 0.5, 0.9]))
    {
        let idx = (phi * (sorted.len() - 1) as f64) as usize;
        let (Some(&truth), Some(got)) = (sorted.get(idx), got) else {
            within = false;
            continue;
        };
        let rel = (got - truth).abs() / truth.abs();
        r.row(format!(
            "p{:<5.0} {truth:>8.3} {got:>8.3} {rel:>11.4} {:>11.4}",
            phi * 100.0,
            rank_error(&sorted, phi, got)
        ));
        within &= rel <= bound * (1.0 + 1e-9);
    }
    // The same values in 16 shards, merged in opposite orders.
    let shards: Vec<LogHistogram> = data
        .chunks(data.len() / 16)
        .map(|chunk| {
            let mut shard = LogHistogram::new(alpha);
            chunk.iter().for_each(|x| shard.add(*x));
            shard
        })
        .collect();
    let merged = |order: &mut dyn Iterator<Item = &LogHistogram>| {
        let mut acc = LogHistogram::new(alpha);
        order.for_each(|shard| acc.merge(shard));
        acc
    };
    let order_free =
        merged(&mut shards.iter()) == summary && merged(&mut shards.iter().rev()) == summary;

    let ids: Vec<u64> = (0..100_000u64)
        .map(|i| (i * 2_654_435_761) % 60_000)
        .collect();
    let (mut hll, mut distinct, mut exact) =
        (HyperLogLog::new(12), Distinct::new(), HashSet::new());
    let hll_ns = ns_per_item(&ids, |i| hll.add(i));
    let distinct_ns = ns_per_item(&ids, |i| distinct.add(i));
    let set_ns = ns_per_item(&ids, |i| exact.insert(*i));
    let (truth, estimate, adaptive) = (exact.len() as f64, hll.estimate(), distinct.estimate());
    r.row(format!(
        "distinct: exact {truth:.0}, HLL(p = 12) {estimate:.0}, adaptive {adaptive}"
    ));
    r.row(format!(
        "ns/value: summary {summary_ns:.0}, sort {sort_ns:.0}, \
         HLL {hll_ns:.0}, adaptive {distinct_ns:.0}, hash set {set_ns:.0}"
    ));
    r.check(
        "the log-bucketed summary answers p10, p50 and p90 within its relative accuracy α of exact",
        within,
    );
    r.check(
        "16 shards of the summary merged in either order are the single pass's summary",
        order_free,
    );
    // Standard error of HLL with 2^12 registers: 1.04 / 64.
    r.check(
        "HLL(p = 12) is within three standard errors (4.9 %) of the exact distinct count",
        (estimate - truth).abs() <= 3.0 * 1.04 / 64.0 * truth,
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage(resolution: u8, cells: u64, compression: f64, utilization: f64) -> CoverageReport {
        CoverageReport {
            resolution,
            occupied_cells: cells,
            total_cells: 0,
            total_records: 0,
            compression,
            utilization,
        }
    }

    /// `quick_scenario` compresses 85.98 % / 62.57 %: the old "> 90 %"
    /// line failed there though the paper's shape holds.
    #[test]
    fn table4_shape_holds_below_the_papers_compression() {
        let (c6, c7) = (
            coverage(6, 5_430, 0.8598, 0.000_378),
            coverage(7, 13_723, 0.6257, 0.000_137),
        );
        assert!(table4_shape(&c6, &c7).iter().all(|c| c.holds));
        assert!(table4_shape(&c7, &c6).iter().all(|c| !c.holds));
    }

    /// Accuracy that grows from nothing to below a random guess used to
    /// pass as "well above the random baseline".
    #[test]
    fn destination_must_end_above_random() {
        let total = [1_000, 1_000];
        let [grows, above] = destination_claims(&[0, 5], &[0, 20], &total, 126);
        assert!(grows.holds && !above.holds);
        let [grows, above] = destination_claims(&[10, 120], &[30, 260], &total, 126);
        assert!(grows.holds && above.holds);
    }

    /// 0 planned calls in both fleets printed `[ok]` for the closure.
    #[test]
    fn a_closure_needs_calls_to_collapse() {
        assert!(!port_calls_collapse(0, 0));
        assert!(!port_calls_collapse(6, 3));
        assert!(port_calls_collapse(6, 0));
    }

    #[test]
    fn rank_error_counts_ties_as_an_interval() {
        let sorted = [0.0, 1.0, 1.0, 1.0, 2.0];
        assert_eq!(rank_error(&sorted, 0.5, 1.0), 0.0);
        assert_eq!(rank_error(&sorted, 0.5, 2.0), 0.4);
        assert!((rank_error(&sorted, 0.9, 0.0) - 0.72).abs() < 1e-12);
    }

    #[test]
    fn experiment_names_are_unique() {
        let names: HashSet<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(find("table4").is_some() && find("all").is_none());
    }
}
