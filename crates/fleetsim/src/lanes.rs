//! The ocean waypoint graph and router.
//!
//! Vessels don't sail point-to-point great circles: they follow lanes
//! through straits and canals. The simulator models this with a
//! hand-curated backbone of ~95 ocean waypoints (all real chokepoints and
//! sea areas) connected by water-only legs, plus automatic attachment of
//! each port to its nearest waypoints. Routing is Dijkstra over haversine
//! edge weights.
//!
//! Canal edges (Suez, Panama) carry flags so scenarios can close them —
//! the Ever-Given disruption of the paper's introduction is literally
//! "route with `avoid_suez = true`", which sends Asia–Europe traffic
//! around the Cape of Good Hope exactly as 2021 did.
//!
//! Fidelity note: a handful of legs clip coastlines slightly (e.g. the
//! Banda-Sea shortcut); the methodology under test aggregates *observed*
//! positions per cell and never consults a land mask, so cosmetic routing
//! imperfections do not affect any experiment.

use crate::ports::{PortId, WORLD_PORTS};
use pol_geo::{haversine_km, interpolate, LatLon};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Canal membership of an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Canal {
    /// Open water.
    None,
    /// The Suez canal system.
    Suez,
    /// The Panama canal system.
    Panama,
}

/// Options for routing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteOptions {
    /// Treat Suez as closed (Ever-Given scenario).
    pub avoid_suez: bool,
    /// Treat Panama as closed.
    pub avoid_panama: bool,
}

/// A routed voyage: the polyline a vessel will follow.
#[derive(Clone, Debug)]
pub struct Route {
    /// Waypoints from origin port to destination port inclusive.
    pub points: Vec<LatLon>,
    /// Total length in km.
    pub distance_km: f64,
    /// Names of backbone waypoints traversed (diagnostics).
    pub via: Vec<&'static str>,
}

impl Route {
    /// Position at `travelled_km` along the polyline (clamped to the ends).
    pub fn position_at(&self, travelled_km: f64) -> LatLon {
        let (Some(&first), Some(&last)) = (self.points.first(), self.points.last()) else {
            return LatLon::wrapped(0.0, 0.0); // degenerate empty route
        };
        if travelled_km <= 0.0 {
            return first;
        }
        let mut remaining = travelled_km;
        for (&a, &b) in self.points.iter().zip(self.points.iter().skip(1)) {
            let leg = haversine_km(a, b);
            if remaining <= leg {
                let f = if leg > 0.0 { remaining / leg } else { 0.0 };
                return interpolate(a, b, f);
            }
            remaining -= leg;
        }
        last
    }

    /// Bearing of travel at `travelled_km` along the polyline, degrees.
    pub fn bearing_at(&self, travelled_km: f64) -> f64 {
        let Some(&last) = self.points.last() else {
            return 0.0;
        };
        let mut remaining = travelled_km.max(0.0);
        for (&a, &b) in self.points.iter().zip(self.points.iter().skip(1)) {
            let leg = haversine_km(a, b);
            if remaining <= leg || b == last {
                let f = if leg > 0.0 {
                    (remaining / leg).min(1.0)
                } else {
                    0.0
                };
                let here = interpolate(a, b, f);
                return pol_geo::initial_bearing_deg(here, b);
            }
            remaining -= leg;
        }
        0.0
    }
}

struct Waypoint(&'static str, f64, f64);

/// Ocean backbone waypoints: real straits, canal mouths and open-sea marks.
static WAYPOINTS: &[Waypoint] = &[
    // Europe / North Sea / Baltic
    Waypoint("north-sea-s", 52.5, 3.0),
    Waypoint("north-sea-n", 57.0, 4.0),
    Waypoint("skagen", 57.8, 10.7),
    Waypoint("kattegat", 56.3, 11.9),
    Waypoint("oresund", 55.1, 12.75),
    Waypoint("baltic-sw", 54.9, 13.5),
    Waypoint("baltic-mid", 56.0, 17.5),
    Waypoint("baltic-n", 58.8, 20.5),
    Waypoint("gulf-finland", 59.75, 24.0),
    Waypoint("dover", 51.1, 1.45),
    Waypoint("channel-w", 49.8, -3.5),
    Waypoint("ushant", 48.7, -5.8),
    Waypoint("biscay", 45.5, -5.5),
    Waypoint("finisterre", 43.3, -9.7),
    Waypoint("portugal", 38.6, -9.8),
    Waypoint("gibraltar", 35.95, -5.7),
    // Mediterranean / Black Sea
    Waypoint("alboran", 36.2, -2.5),
    Waypoint("med-w", 37.8, 3.0),
    Waypoint("sardinia-s", 38.0, 9.0),
    Waypoint("sicily", 37.0, 11.5),
    Waypoint("ionian", 36.5, 17.0),
    Waypoint("aegean-s", 36.2, 25.0),
    Waypoint("dardanelles", 40.1, 26.2),
    Waypoint("marmara", 40.8, 28.2),
    Waypoint("bosporus", 41.2, 29.1),
    Waypoint("black-sea", 43.5, 32.0),
    Waypoint("med-e", 33.8, 28.0),
    Waypoint("port-said-app", 31.6, 32.2),
    // Suez / Red Sea / Arabian Sea
    Waypoint("suez-canal", 30.5, 32.4),
    Waypoint("gulf-suez", 28.5, 33.2),
    Waypoint("red-sea", 20.0, 38.7),
    Waypoint("bab-el-mandeb", 12.55, 43.4),
    Waypoint("gulf-aden", 12.8, 48.5),
    Waypoint("socotra", 12.5, 55.0),
    Waypoint("gulf-oman", 24.5, 59.0),
    Waypoint("hormuz", 26.4, 56.6),
    Waypoint("arabian-sea", 15.0, 65.0),
    Waypoint("lakshadweep", 9.0, 74.0),
    Waypoint("dondra", 5.6, 80.6),
    Waypoint("bengal", 12.0, 87.0),
    // Southeast Asia / Far East
    Waypoint("aceh", 5.9, 94.5),
    Waypoint("malacca", 3.5, 99.5),
    Waypoint("singapore-strait", 1.2, 103.9),
    Waypoint("natuna", 4.0, 108.0),
    Waypoint("scs", 11.0, 111.5),
    Waypoint("luzon", 19.5, 119.5),
    Waypoint("taiwan-strait", 24.2, 119.2),
    Waypoint("ecs", 28.5, 123.5),
    Waypoint("yellow-sea", 35.5, 123.0),
    Waypoint("bohai", 38.3, 119.5),
    Waypoint("korea-strait", 33.8, 128.8),
    Waypoint("japan-s", 33.3, 135.5),
    Waypoint("tokyo-app", 34.7, 139.9),
    Waypoint("japan-e", 36.0, 144.0),
    // North Pacific
    Waypoint("np-mid-w", 42.0, 165.0),
    Waypoint("np-mid", 45.0, -175.0),
    Waypoint("np-mid-e", 47.0, -155.0),
    Waypoint("gulf-alaska", 52.0, -140.0),
    Waypoint("bc-app", 50.5, -129.0),
    Waypoint("wa-app", 47.0, -125.3),
    Waypoint("or-app", 42.0, -125.5),
    Waypoint("ca-app", 36.5, -122.8),
    Waypoint("socal", 33.3, -119.5),
    Waypoint("baja", 25.0, -113.5),
    Waypoint("tehuantepec", 14.5, -94.0),
    Waypoint("cam-pac", 8.5, -86.0),
    // Panama / Caribbean / Gulf / NA East
    Waypoint("panama-pac", 7.3, -79.6),
    Waypoint("panama-canal", 9.1, -79.7),
    Waypoint("panama-atl", 9.8, -79.6),
    Waypoint("carib-w", 14.0, -78.0),
    Waypoint("carib-e", 15.5, -68.0),
    Waypoint("mona", 18.5, -67.3),
    Waypoint("yucatan", 21.8, -85.6),
    Waypoint("gom", 25.8, -89.5),
    Waypoint("florida-strait", 23.8, -80.9),
    Waypoint("bahamas", 26.5, -76.5),
    Waypoint("hatteras", 34.5, -74.5),
    Waypoint("ny-app", 40.2, -73.0),
    Waypoint("nova-scotia", 43.0, -62.0),
    Waypoint("grand-banks", 44.0, -50.0),
    Waypoint("na-mid", 48.0, -30.0),
    Waypoint("azores", 38.0, -28.0),
    // Atlantic south / Africa west
    Waypoint("canary", 27.8, -15.5),
    Waypoint("cape-verde", 16.0, -24.0),
    Waypoint("liberia", 4.5, -12.0),
    Waypoint("gulf-guinea", 2.5, 1.0),
    Waypoint("atl-eq", 0.0, -27.0),
    Waypoint("brazil-ne", -5.5, -34.0),
    Waypoint("brazil-se", -25.5, -44.0),
    Waypoint("plata", -35.8, -54.0),
    Waypoint("patagonia", -47.0, -64.0),
    Waypoint("cape-horn", -56.8, -66.5),
    Waypoint("chile-s", -44.0, -75.5),
    Waypoint("chile-c", -33.5, -73.0),
    Waypoint("peru", -13.0, -78.5),
    Waypoint("guayaquil-app", -3.0, -81.5),
    // Africa south / Indian Ocean
    Waypoint("namibia", -24.0, 13.0),
    Waypoint("cape-good-hope", -35.0, 18.5),
    Waypoint("agulhas", -36.0, 22.0),
    Waypoint("natal", -30.5, 31.5),
    Waypoint("mozambique", -17.0, 41.5),
    Waypoint("madagascar-n", -11.5, 50.5),
    Waypoint("io-mid", -8.0, 70.0),
    Waypoint("io-se", -12.0, 95.0),
    Waypoint("io-s", -32.0, 90.0),
    Waypoint("sunda", -6.5, 104.8),
    // Australia / Oceania / South Pacific
    Waypoint("aus-w", -32.5, 114.0),
    Waypoint("aus-sw", -36.5, 117.0),
    Waypoint("aus-s", -37.5, 133.0),
    Waypoint("bass", -39.8, 146.0),
    Waypoint("tasman", -36.5, 153.5),
    Waypoint("aus-ne", -25.0, 154.5),
    Waypoint("coral", -22.0, 155.5),
    Waypoint("torres", -10.3, 142.5),
    Waypoint("arafura", -9.5, 133.0),
    Waypoint("banda", -5.0, 125.5),
    Waypoint("nz-n", -35.5, 173.5),
    Waypoint("sp-mid", -30.0, -150.0),
    Waypoint("sp-e", -28.0, -100.0),
];

/// Backbone edges (waypoint name pairs + canal flag).
static EDGES: &[(&str, &str, Canal)] = &[
    ("north-sea-s", "dover", Canal::None),
    ("north-sea-s", "north-sea-n", Canal::None),
    ("north-sea-s", "skagen", Canal::None),
    ("north-sea-n", "skagen", Canal::None),
    ("skagen", "kattegat", Canal::None),
    ("kattegat", "oresund", Canal::None),
    ("oresund", "baltic-sw", Canal::None),
    ("baltic-sw", "baltic-mid", Canal::None),
    ("baltic-mid", "baltic-n", Canal::None),
    ("baltic-n", "gulf-finland", Canal::None),
    ("dover", "channel-w", Canal::None),
    ("channel-w", "ushant", Canal::None),
    ("ushant", "biscay", Canal::None),
    ("ushant", "finisterre", Canal::None),
    ("biscay", "finisterre", Canal::None),
    ("finisterre", "portugal", Canal::None),
    ("portugal", "gibraltar", Canal::None),
    ("portugal", "canary", Canal::None),
    ("portugal", "azores", Canal::None),
    ("gibraltar", "alboran", Canal::None),
    ("alboran", "med-w", Canal::None),
    ("med-w", "sardinia-s", Canal::None),
    ("sardinia-s", "sicily", Canal::None),
    ("sicily", "ionian", Canal::None),
    ("ionian", "med-e", Canal::None),
    ("ionian", "aegean-s", Canal::None),
    ("aegean-s", "med-e", Canal::None),
    ("aegean-s", "dardanelles", Canal::None),
    ("dardanelles", "marmara", Canal::None),
    ("marmara", "bosporus", Canal::None),
    ("bosporus", "black-sea", Canal::None),
    ("med-e", "port-said-app", Canal::None),
    ("port-said-app", "suez-canal", Canal::Suez),
    ("suez-canal", "gulf-suez", Canal::Suez),
    ("gulf-suez", "red-sea", Canal::None),
    ("red-sea", "bab-el-mandeb", Canal::None),
    ("bab-el-mandeb", "gulf-aden", Canal::None),
    ("gulf-aden", "socotra", Canal::None),
    ("socotra", "arabian-sea", Canal::None),
    ("socotra", "gulf-oman", Canal::None),
    ("socotra", "madagascar-n", Canal::None),
    ("gulf-oman", "hormuz", Canal::None),
    ("gulf-oman", "arabian-sea", Canal::None),
    ("arabian-sea", "lakshadweep", Canal::None),
    ("lakshadweep", "dondra", Canal::None),
    ("dondra", "bengal", Canal::None),
    ("dondra", "io-mid", Canal::None),
    ("bengal", "aceh", Canal::None),
    ("aceh", "malacca", Canal::None),
    ("malacca", "singapore-strait", Canal::None),
    ("singapore-strait", "natuna", Canal::None),
    ("singapore-strait", "sunda", Canal::None),
    ("natuna", "scs", Canal::None),
    ("scs", "luzon", Canal::None),
    ("luzon", "taiwan-strait", Canal::None),
    ("luzon", "np-mid-w", Canal::None),
    ("taiwan-strait", "ecs", Canal::None),
    ("ecs", "yellow-sea", Canal::None),
    ("ecs", "korea-strait", Canal::None),
    ("ecs", "japan-s", Canal::None),
    ("yellow-sea", "bohai", Canal::None),
    ("korea-strait", "yellow-sea", Canal::None),
    ("korea-strait", "japan-s", Canal::None),
    ("japan-s", "tokyo-app", Canal::None),
    ("tokyo-app", "japan-e", Canal::None),
    ("japan-e", "np-mid-w", Canal::None),
    ("np-mid-w", "np-mid", Canal::None),
    ("np-mid", "np-mid-e", Canal::None),
    ("np-mid-e", "gulf-alaska", Canal::None),
    ("np-mid-e", "ca-app", Canal::None),
    ("gulf-alaska", "bc-app", Canal::None),
    ("bc-app", "wa-app", Canal::None),
    ("wa-app", "or-app", Canal::None),
    ("or-app", "ca-app", Canal::None),
    ("ca-app", "socal", Canal::None),
    ("socal", "baja", Canal::None),
    ("baja", "tehuantepec", Canal::None),
    ("tehuantepec", "cam-pac", Canal::None),
    ("cam-pac", "panama-pac", Canal::None),
    ("cam-pac", "guayaquil-app", Canal::None),
    ("panama-pac", "panama-canal", Canal::Panama),
    ("panama-canal", "panama-atl", Canal::Panama),
    ("panama-atl", "carib-w", Canal::None),
    ("carib-w", "yucatan", Canal::None),
    ("carib-w", "carib-e", Canal::None),
    ("carib-e", "mona", Canal::None),
    ("mona", "bahamas", Canal::None),
    ("yucatan", "gom", Canal::None),
    ("yucatan", "florida-strait", Canal::None),
    ("florida-strait", "bahamas", Canal::None),
    ("bahamas", "hatteras", Canal::None),
    ("hatteras", "ny-app", Canal::None),
    ("hatteras", "na-mid", Canal::None),
    ("ny-app", "nova-scotia", Canal::None),
    ("nova-scotia", "grand-banks", Canal::None),
    ("grand-banks", "na-mid", Canal::None),
    ("na-mid", "channel-w", Canal::None),
    ("na-mid", "azores", Canal::None),
    ("azores", "gibraltar", Canal::None),
    ("canary", "cape-verde", Canal::None),
    ("cape-verde", "liberia", Canal::None),
    ("cape-verde", "atl-eq", Canal::None),
    ("liberia", "gulf-guinea", Canal::None),
    ("atl-eq", "gulf-guinea", Canal::None),
    ("atl-eq", "brazil-ne", Canal::None),
    ("brazil-ne", "brazil-se", Canal::None),
    ("brazil-se", "plata", Canal::None),
    ("plata", "patagonia", Canal::None),
    ("patagonia", "cape-horn", Canal::None),
    ("cape-horn", "chile-s", Canal::None),
    ("chile-s", "chile-c", Canal::None),
    ("chile-c", "peru", Canal::None),
    ("chile-c", "sp-e", Canal::None),
    ("peru", "guayaquil-app", Canal::None),
    ("gulf-guinea", "namibia", Canal::None),
    ("namibia", "cape-good-hope", Canal::None),
    ("cape-good-hope", "agulhas", Canal::None),
    ("agulhas", "natal", Canal::None),
    ("agulhas", "io-mid", Canal::None),
    ("agulhas", "io-s", Canal::None),
    ("natal", "mozambique", Canal::None),
    ("mozambique", "madagascar-n", Canal::None),
    ("madagascar-n", "io-mid", Canal::None),
    ("io-mid", "io-se", Canal::None),
    ("io-se", "sunda", Canal::None),
    ("io-se", "aus-w", Canal::None),
    ("io-s", "aus-sw", Canal::None),
    ("io-s", "io-mid", Canal::None),
    ("aus-w", "aus-sw", Canal::None),
    ("aus-sw", "aus-s", Canal::None),
    ("aus-s", "bass", Canal::None),
    ("bass", "tasman", Canal::None),
    ("tasman", "nz-n", Canal::None),
    ("tasman", "aus-ne", Canal::None),
    ("aus-ne", "coral", Canal::None),
    ("coral", "torres", Canal::None),
    ("torres", "arafura", Canal::None),
    ("arafura", "banda", Canal::None),
    ("banda", "natuna", Canal::None),
    ("nz-n", "sp-mid", Canal::None),
    ("sp-mid", "sp-e", Canal::None),
];

#[derive(Clone, Copy)]
struct Edge {
    to: usize,
    dist: f64,
    canal: Canal,
}

/// The routing graph: waypoints + ports as nodes, water legs as edges.
pub struct LaneGraph {
    positions: Vec<LatLon>,
    names: Vec<&'static str>, // "" for port nodes
    adj: Vec<Vec<Edge>>,
    port_node: Vec<usize>, // PortId.0 -> node index
}

static GRAPH: OnceLock<LaneGraph> = OnceLock::new();

impl LaneGraph {
    /// The global lane graph singleton.
    pub fn global() -> &'static LaneGraph {
        GRAPH.get_or_init(LaneGraph::build)
    }

    fn build() -> LaneGraph {
        let mut positions: Vec<LatLon> = WAYPOINTS
            .iter()
            // lint: allow(no_unwrap) — WAYPOINTS is a static table above;
            // every lanes test walks it through this constructor.
            .map(|w| LatLon::new(w.1, w.2).expect("valid waypoint"))
            .collect();
        let mut names: Vec<&'static str> = WAYPOINTS.iter().map(|w| w.0).collect();
        let n_way = positions.len();
        let mut adj: Vec<Vec<Edge>> = vec![Vec::new(); n_way];

        let idx_of = |name: &str| -> usize {
            WAYPOINTS
                .iter()
                .position(|w| w.0 == name)
                // lint: allow(no_unwrap) — EDGES only names entries of the
                // WAYPOINTS table in this file; a typo fails every test.
                .unwrap_or_else(|| panic!("unknown waypoint {name}"))
        };
        let add =
            |adj: &mut Vec<Vec<Edge>>, a: usize, b: usize, canal: Canal, positions: &[LatLon]| {
                let dist = haversine_km(positions[a], positions[b]);
                adj[a].push(Edge { to: b, dist, canal });
                adj[b].push(Edge { to: a, dist, canal });
            };
        for (a, b, canal) in EDGES {
            let (ia, ib) = (idx_of(a), idx_of(b));
            add(&mut adj, ia, ib, *canal, &positions);
        }

        // Attach each port to its two nearest backbone waypoints.
        let mut port_node = Vec::with_capacity(WORLD_PORTS.len());
        for port in WORLD_PORTS {
            let node = positions.len();
            positions.push(port.pos());
            names.push("");
            adj.push(Vec::new());
            let mut dists: Vec<(usize, f64)> = (0..n_way)
                .map(|i| (i, haversine_km(positions[node], positions[i])))
                .collect();
            // lint: allow(no_unwrap) — haversine over validated LatLons is
            // always finite, so the comparator never sees a NaN.
            dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
            // Always attach the nearest waypoint; attach the second only
            // when it is comparably close (a far second attachment tends to
            // cut across a landmass, e.g. a Gulf-of-Mexico port "reaching"
            // the Pacific).
            // lint: allow(no_unwrap) — `dists` has one entry per backbone
            // waypoint and the table holds well over two of them.
            add(&mut adj, node, dists[0].0, Canal::None, &positions);
            if dists[1].1 <= dists[0].1 * 1.5 {
                add(&mut adj, node, dists[1].0, Canal::None, &positions);
            }
            port_node.push(node);
        }

        // Short coastal hops between nearby ports (feeder legs).
        for i in 0..WORLD_PORTS.len() {
            for j in (i + 1)..WORLD_PORTS.len() {
                let (a, b) = (port_node[i], port_node[j]);
                if haversine_km(positions[a], positions[b]) < 400.0 {
                    add(&mut adj, a, b, Canal::None, &positions);
                }
            }
        }

        LaneGraph {
            positions,
            names,
            adj,
            port_node,
        }
    }

    /// Shortest water route between two ports, or `None` when disconnected
    /// under the given options.
    pub fn route(&self, from: PortId, to: PortId, opts: RouteOptions) -> Option<Route> {
        let src = *self.port_node.get(from.0 as usize)?;
        let dst = *self.port_node.get(to.0 as usize)?;
        if src == dst {
            return Some(Route {
                points: vec![self.positions[src]],
                distance_km: 0.0,
                via: Vec::new(),
            });
        }
        let n = self.positions.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Reverse((0, src)));
        while let Some(Reverse((d_milli, u))) = heap.pop() {
            let d = d_milli as f64 / 1000.0;
            if d > dist[u] + 1e-9 {
                continue;
            }
            if u == dst {
                break;
            }
            for e in &self.adj[u] {
                match e.canal {
                    Canal::Suez if opts.avoid_suez => continue,
                    Canal::Panama if opts.avoid_panama => continue,
                    _ => {}
                }
                let nd = dist[u] + e.dist;
                if nd + 1e-9 < dist[e.to] {
                    dist[e.to] = nd;
                    prev[e.to] = u;
                    heap.push(Reverse(((nd * 1000.0) as u64, e.to)));
                }
            }
        }
        if !dist[dst].is_finite() {
            return None;
        }
        let mut chain = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur];
            chain.push(cur);
        }
        chain.reverse();
        let via = chain
            .iter()
            .filter_map(|&i| {
                let name = self.names[i];
                (!name.is_empty()).then_some(name)
            })
            .collect();
        Some(Route {
            points: chain.iter().map(|&i| self.positions[i]).collect(),
            distance_km: dist[dst],
            via,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::port_by_locode;

    fn id(code: &str) -> PortId {
        port_by_locode(code).expect("known port").0
    }

    #[test]
    fn graph_builds_and_is_connected() {
        let g = LaneGraph::global();
        // Every port reaches every other port, from its own position to
        // the other's, and between them the routes run over waypoints.
        let probe = id("NLRTM");
        let mut waypoints: Vec<(u64, u64)> = Vec::new();
        for i in 0..WORLD_PORTS.len() as u16 {
            let r = g.route(probe, PortId(i), RouteOptions::default());
            let Some(r) = r else {
                panic!("no route Rotterdam -> {}", WORLD_PORTS[i as usize].locode);
            };
            assert_eq!(r.points.first(), Some(&WORLD_PORTS[probe.0 as usize].pos()));
            assert_eq!(r.points.last(), Some(&WORLD_PORTS[i as usize].pos()));
            waypoints.extend(
                r.points
                    .iter()
                    .filter(|p| WORLD_PORTS.iter().all(|port| port.pos() != **p))
                    .map(|p| (p.lat().to_bits(), p.lon().to_bits())),
            );
        }
        waypoints.sort_unstable();
        waypoints.dedup();
        assert!(waypoints.len() > 80, "{} waypoints", waypoints.len());
    }

    #[test]
    fn rotterdam_singapore_goes_via_suez() {
        let g = LaneGraph::global();
        let r = g
            .route(id("NLRTM"), id("SGSIN"), RouteOptions::default())
            .unwrap();
        assert!(r.via.contains(&"suez-canal"), "via {:?}", r.via);
        // Real distance ≈ 15 500 km (8 300 nm); our polyline should be close.
        assert!(
            (14_000.0..18_000.0).contains(&r.distance_km),
            "distance {}",
            r.distance_km
        );
    }

    #[test]
    fn suez_closure_reroutes_via_cape() {
        let g = LaneGraph::global();
        let open = g
            .route(id("NLRTM"), id("SGSIN"), RouteOptions::default())
            .unwrap();
        let closed = g
            .route(
                id("NLRTM"),
                id("SGSIN"),
                RouteOptions {
                    avoid_suez: true,
                    avoid_panama: false,
                },
            )
            .unwrap();
        assert!(!closed.via.contains(&"suez-canal"));
        assert!(
            closed.via.contains(&"cape-good-hope") || closed.via.contains(&"agulhas"),
            "via {:?}",
            closed.via
        );
        // The 2021 reroute added ~7 000 nm round trip ⇒ one-way ≈ +5-8 000 km.
        let delta = closed.distance_km - open.distance_km;
        assert!((3_000.0..12_000.0).contains(&delta), "delta {delta}");
    }

    #[test]
    fn shanghai_la_is_transpacific() {
        let g = LaneGraph::global();
        let r = g
            .route(id("CNSHA"), id("USLAX"), RouteOptions::default())
            .unwrap();
        // Great-circle ≈ 10 400 km; lanes detour modestly.
        assert!(
            (9_500.0..14_000.0).contains(&r.distance_km),
            "{}",
            r.distance_km
        );
        assert!(
            r.via.iter().any(|w| w.starts_with("np-mid")),
            "via {:?}",
            r.via
        );
    }

    #[test]
    fn ny_shanghai_uses_panama_and_closure_changes_it() {
        let g = LaneGraph::global();
        let open = g
            .route(id("USNYC"), id("CNSHA"), RouteOptions::default())
            .unwrap();
        assert!(open.via.contains(&"panama-canal"), "via {:?}", open.via);
        let closed = g
            .route(
                id("USNYC"),
                id("CNSHA"),
                RouteOptions {
                    avoid_suez: false,
                    avoid_panama: true,
                },
            )
            .unwrap();
        assert!(!closed.via.contains(&"panama-canal"));
        assert!(closed.distance_km > open.distance_km);
    }

    #[test]
    fn short_feeder_route_is_direct() {
        let g = LaneGraph::global();
        let r = g
            .route(id("NLRTM"), id("BEANR"), RouteOptions::default())
            .unwrap();
        assert!(r.distance_km < 400.0, "RTM->ANR {}", r.distance_km);
    }

    #[test]
    fn baltic_route_enters_the_baltic() {
        let g = LaneGraph::global();
        let r = g
            .route(id("NLRTM"), id("EETLL"), RouteOptions::default())
            .unwrap();
        // Either around Skagen/the Sound or the implicit Kiel-canal shortcut
        // that Hamburg's Baltic attachment provides — both end up crossing
        // the central Baltic.
        assert!(
            r.via.contains(&"baltic-mid") && r.via.contains(&"baltic-n"),
            "via {:?}",
            r.via
        );
    }

    #[test]
    fn position_along_route_progresses() {
        let g = LaneGraph::global();
        let r = g
            .route(id("NLRTM"), id("SGSIN"), RouteOptions::default())
            .unwrap();
        let start = r.position_at(0.0);
        let quarter = r.position_at(r.distance_km * 0.25);
        let end = r.position_at(r.distance_km + 500.0); // clamped
        assert!(haversine_km(start, WORLD_PORTS[id("NLRTM").0 as usize].pos()) < 1.0);
        assert!(haversine_km(end, WORLD_PORTS[id("SGSIN").0 as usize].pos()) < 1.0);
        let d1 = haversine_km(start, quarter);
        assert!(d1 > 1_000.0, "quarter point moved {d1}");
        // Bearing is a real angle.
        let b = r.bearing_at(r.distance_km * 0.5);
        assert!((0.0..360.0).contains(&b));
    }

    #[test]
    fn same_port_route_is_trivial() {
        let g = LaneGraph::global();
        let r = g
            .route(id("SGSIN"), id("SGSIN"), RouteOptions::default())
            .unwrap();
        assert_eq!(r.distance_km, 0.0);
        assert_eq!(r.points.len(), 1);
    }
}
