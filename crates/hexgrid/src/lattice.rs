//! Hexagonal lattice mathematics: bases per resolution, hex rounding, and
//! the aperture-7 sublattice arithmetic that powers the exact hierarchy.
//!
//! ## Geometry
//!
//! Cells are pointy-top hexagons on the equal-area plane (`pol_geo::project`).
//! A cell with axial coordinates `(q, r)` at resolution `ρ` has its centre at
//! `B(ρ) · (q, r)ᵀ` where `B(ρ)` is the 2×2 lattice basis for that
//! resolution. Resolution 0 uses the unrotated pointy-top basis
//! `b1 = s·(√3, 0)`, `b2 = s·(√3/2, 3/2)` with circumradius `s` chosen so the
//! hexagon area is `4πR²/122` (H3-calibrated).
//!
//! ## Aperture-7 hierarchy
//!
//! Each finer resolution is the index-7 hexagonal sublattice refinement:
//! parent basis vectors expressed in child coordinates are `p1 = 2·k1 + k2`
//! and `p2 = −k1 + 3·k2`, i.e. `B_parent = B_child · T` with
//! `T = [[2, −1], [1, 3]]` (columns are child-coordinates of the parent
//! basis). Therefore `B(ρ+1) = B(ρ) · T⁻¹`, which shrinks areas by 7 and
//! rotates by `atan(√3/5) ≈ 19.107°` — the same "class II/III" alternating
//! skew H3 exhibits.
//!
//! The quotient `Z²/TZ²` has exactly 7 residues and the residue of `(q, r)`
//! is `(3q + r) mod 7`. The seven residue representatives are the origin and
//! its six axial unit neighbours — so *every* child cell is either the
//! centre child of its parent or an immediate neighbour of that centre:
//! `child = T·parent + DIGIT_OFFSET[d]`, `d ∈ 0..7`. This yields an exact
//! integer partition (each cell has exactly one parent and seven children).

use pol_geo::project::{to_xy, WorldXY, WORLD_HEIGHT_KM, WORLD_WIDTH_KM};
use pol_geo::{LatLon, EARTH_SURFACE_KM2};
use std::sync::OnceLock;

/// Number of resolution-0 cells' worth of area on the sphere (H3 has 122
/// base cells; we calibrate cell areas to match).
pub const BASE_CELL_AREA_DIVISOR: f64 = 122.0;

/// Maximum resolution supported by the 64-bit index layout.
pub const MAX_RES: u8 = 15;

/// Axial coordinates of a cell within its resolution's lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Axial {
    /// Column coordinate.
    pub q: i64,
    /// Row coordinate.
    pub r: i64,
}

impl Axial {
    /// Creates axial coordinates.
    pub const fn new(q: i64, r: i64) -> Self {
        Self { q, r }
    }

    /// The six axial unit neighbours, in digit order 1..=6 (see
    /// [`DIGIT_OFFSET`]).
    pub const NEIGHBOR_OFFSETS: [Axial; 6] = [
        Axial::new(0, 1),
        Axial::new(1, -1),
        Axial::new(1, 0),
        Axial::new(-1, 0),
        Axial::new(-1, 1),
        Axial::new(0, -1),
    ];

    /// Hexagonal grid distance between two axial coordinates (same lattice).
    pub fn distance(self, other: Axial) -> u64 {
        let dq = self.q - other.q;
        let dr = self.r - other.r;
        let ds = -dq - dr;
        (dq.abs().max(dr.abs()).max(ds.abs())) as u64
    }
}

impl std::ops::Add for Axial {
    type Output = Axial;
    fn add(self, o: Axial) -> Axial {
        Axial::new(self.q + o.q, self.r + o.r)
    }
}

impl std::ops::Sub for Axial {
    type Output = Axial;
    fn sub(self, o: Axial) -> Axial {
        Axial::new(self.q - o.q, self.r - o.r)
    }
}

/// Digit → axial offset from the parent's centre child.
/// `DIGIT_OFFSET[d]` has residue `d` (verified in tests), so digits are
/// recoverable from coordinates alone.
pub const DIGIT_OFFSET: [Axial; 7] = [
    Axial::new(0, 0),  // 0: centre child
    Axial::new(0, 1),  // 1
    Axial::new(1, -1), // 2
    Axial::new(1, 0),  // 3
    Axial::new(-1, 0), // 4
    Axial::new(-1, 1), // 5
    Axial::new(0, -1), // 6
];

/// Residue of an axial coordinate in `Z²/TZ²`: identifies which of the seven
/// children-of-some-parent roles the cell plays.
#[inline]
pub fn residue(a: Axial) -> u8 {
    (3 * a.q + a.r).rem_euclid(7) as u8
}

/// Exact parent axial coordinates and the digit of `child` under it.
///
/// Inverse of [`child_axial`]: `child = T·parent + DIGIT_OFFSET[digit]`.
#[inline]
pub fn parent_axial(child: Axial) -> (Axial, u8) {
    let d = residue(child);
    let e = DIGIT_OFFSET[d as usize];
    let a = child.q - e.q;
    let b = child.r - e.r;
    // T⁻¹ = (1/7)·[[3, 1], [−1, 2]]; exact because (a, b) has residue 0.
    let pq = (3 * a + b) / 7;
    let pr = (-a + 2 * b) / 7;
    debug_assert_eq!(3 * a + b, pq * 7);
    debug_assert_eq!(-a + 2 * b, pr * 7);
    (Axial::new(pq, pr), d)
}

/// Axial coordinates (one resolution finer) of child `digit` of `parent`.
#[inline]
pub fn child_axial(parent: Axial, digit: u8) -> Axial {
    debug_assert!(digit < 7);
    let e = DIGIT_OFFSET[digit as usize];
    // T·p with T = [[2, −1], [1, 3]] (columns = child coords of parent basis).
    Axial::new(2 * parent.q - parent.r + e.q, parent.q + 3 * parent.r + e.r)
}

/// A 2×2 matrix in column-major order: columns are the lattice basis vectors.
#[derive(Clone, Copy, Debug)]
pub struct Basis {
    // b1 = (a, c), b2 = (b, d); centre(q, r) = (a·q + b·r, c·q + d·r).
    /// Row 1 of basis vector 1.
    pub a: f64,
    /// Row 1 of basis vector 2.
    pub b: f64,
    /// Row 2 of basis vector 1.
    pub c: f64,
    /// Row 2 of basis vector 2.
    pub d: f64,
}

impl Basis {
    /// Centre of the cell with the given axial coordinates, on the plane.
    #[inline]
    pub fn to_world(&self, ax: Axial) -> WorldXY {
        let (q, r) = (ax.q as f64, ax.r as f64);
        WorldXY {
            x: self.a * q + self.b * r,
            y: self.c * q + self.d * r,
        }
    }

    /// Fractional axial coordinates of a plane point.
    #[inline]
    pub fn to_fractional(&self, p: WorldXY) -> (f64, f64) {
        let det = self.a * self.d - self.b * self.c;
        let q = (self.d * p.x - self.b * p.y) / det;
        let r = (-self.c * p.x + self.a * p.y) / det;
        (q, r)
    }

    /// `B · T⁻¹`: the basis one resolution finer.
    fn refine(&self) -> Basis {
        // T⁻¹ = (1/7)·[[3, 1], [−1, 2]]  (columns: (3,−1)/7 and (1,2)/7)
        Basis {
            a: (3.0 * self.a - self.b) / 7.0,
            c: (3.0 * self.c - self.d) / 7.0,
            b: (self.a + 2.0 * self.b) / 7.0,
            d: (self.c + 2.0 * self.d) / 7.0,
        }
    }

    /// Circumradius (centre→vertex distance) of cells in this lattice.
    pub fn circumradius(&self) -> f64 {
        // |b1| = √3 · s for a pointy-top hex lattice with circumradius s.
        (self.a * self.a + self.c * self.c).sqrt() / 3f64.sqrt()
    }

    /// The six vertex offsets of a cell (centre-relative), in CCW order.
    ///
    /// The Voronoi cell of a hex lattice point is the regular hexagon whose
    /// vertices are the circumcentres of the six lattice triangles around
    /// it: `(nᵢ + nᵢ₊₁)/3` for consecutive neighbour directions
    /// `n ∈ [b1, b2, b2−b1, −b1, −b2, b1−b2]`.
    pub fn vertex_offsets(&self) -> [WorldXY; 6] {
        let b1 = (self.a, self.c);
        let b2 = (self.b, self.d);
        let b3 = (b2.0 - b1.0, b2.1 - b1.1); // b2 − b1
        let n = [b1, b2, b3, (-b1.0, -b1.1), (-b2.0, -b2.1), (-b3.0, -b3.1)];
        std::array::from_fn(|i| {
            let u = n[i];
            let w = n[(i + 1) % 6];
            WorldXY {
                x: (u.0 + w.0) / 3.0,
                y: (u.1 + w.1) / 3.0,
            }
        })
    }
}

/// Rounds fractional axial coordinates to the nearest lattice cell
/// (standard cube-coordinate rounding).
#[inline]
pub fn hex_round(qf: f64, rf: f64) -> Axial {
    let sf = -qf - rf;
    let mut q = qf.round();
    let mut r = rf.round();
    let s = sf.round();
    let dq = (q - qf).abs();
    let dr = (r - rf).abs();
    let ds = (s - sf).abs();
    if dq > dr && dq > ds {
        q = -r - s;
    } else if dr > ds {
        r = -q - s;
    }
    Axial::new(q as i64, r as i64)
}

/// Lattice constants shared by the whole crate: one basis per resolution and
/// the resolution-0 ("base cell") table.
pub struct Lattice {
    bases: [Basis; (MAX_RES + 1) as usize],
    /// base cell id → axial coords at resolution 0
    base_by_id: Vec<Axial>,
    /// axial coords at resolution 0 → base cell id, over the table's
    /// bounding box: row `r − r0`, column `q − q0`, [`NO_BASE`] where no
    /// base cell sits. A probe is two subtractions and a load.
    id_by_axial: Vec<u16>,
    /// The bounding box's smallest `q` and `r`, and its width in `q`.
    q0: i64,
    r0: i64,
    width: usize,
}

/// The dense base table's entry where no base cell sits.
const NO_BASE: u16 = u16::MAX;

static LATTICE: OnceLock<Lattice> = OnceLock::new();

impl Lattice {
    /// The global lattice singleton.
    pub fn get() -> &'static Lattice {
        LATTICE.get_or_init(Lattice::build)
    }

    fn build() -> Lattice {
        // Resolution-0 circumradius s from area A0 = (3√3/2)·s².
        let a0 = EARTH_SURFACE_KM2 / BASE_CELL_AREA_DIVISOR;
        let s = (2.0 * a0 / (3.0 * 3f64.sqrt())).sqrt();
        let rt3 = 3f64.sqrt();
        let b0 = Basis {
            a: rt3 * s,
            c: 0.0,
            b: rt3 * s / 2.0,
            d: 1.5 * s,
        };
        let mut bases = [b0; (MAX_RES + 1) as usize];
        for i in 1..bases.len() {
            bases[i] = bases[i - 1].refine();
        }

        // Enumerate base cells: every res-0 cell whose centre lies within the
        // world rectangle expanded by a generous margin. The margin covers
        // (a) points on the rectangle edge rounding to a centre outside it and
        // (b) parent-chain drift when walking up from resolution 15 (bounded
        // by the sum of finer circumradii < one res-0 circumradius).
        let margin = 2.5 * s;
        let half_w = WORLD_WIDTH_KM / 2.0 + margin;
        let half_h = WORLD_HEIGHT_KM / 2.0 + margin;
        let r_max = (half_h / (1.5 * s)).ceil() as i64 + 1;
        let mut base_by_id = Vec::new();
        for r in -r_max..=r_max {
            // x(q, r) = √3·s·(q + r/2) ⇒ q range from x bounds.
            let q_lo = ((-half_w / (rt3 * s)) - r as f64 / 2.0).floor() as i64 - 1;
            let q_hi = ((half_w / (rt3 * s)) - r as f64 / 2.0).ceil() as i64 + 1;
            for q in q_lo..=q_hi {
                let c = b0.to_world(Axial::new(q, r));
                if c.x.abs() <= half_w && c.y.abs() <= half_h {
                    base_by_id.push(Axial::new(q, r));
                }
            }
        }
        assert!(
            base_by_id.len() <= 512,
            "base cell table exceeds 9-bit index space: {}",
            base_by_id.len()
        );
        let q0 = base_by_id.iter().map(|a| a.q).min().unwrap_or(0);
        let r0 = base_by_id.iter().map(|a| a.r).min().unwrap_or(0);
        let q1 = base_by_id.iter().map(|a| a.q).max().unwrap_or(0);
        let r1 = base_by_id.iter().map(|a| a.r).max().unwrap_or(0);
        let width = (q1 - q0 + 1) as usize;
        let mut id_by_axial = vec![NO_BASE; width * (r1 - r0 + 1) as usize];
        for (id, a) in base_by_id.iter().enumerate() {
            id_by_axial[(a.r - r0) as usize * width + (a.q - q0) as usize] = id as u16;
        }
        Lattice {
            bases,
            base_by_id,
            id_by_axial,
            q0,
            r0,
            width,
        }
    }

    /// Basis for a resolution.
    #[inline]
    pub fn basis(&self, res: u8) -> &Basis {
        &self.bases[res as usize]
    }

    /// Number of base (resolution-0) cells in the table.
    pub fn base_cell_count(&self) -> usize {
        self.base_by_id.len()
    }

    /// Axial coordinates of a base cell.
    pub fn base_axial(&self, id: u16) -> Option<Axial> {
        self.base_by_id.get(id as usize).copied()
    }

    /// Base cell id for resolution-0 axial coordinates.
    pub fn base_id(&self, ax: Axial) -> Option<u16> {
        let q = usize::try_from(ax.q.checked_sub(self.q0)?).ok()?;
        let r = usize::try_from(ax.r.checked_sub(self.r0)?).ok()?;
        if q >= self.width {
            return None;
        }
        let id = *self.id_by_axial.get(r.checked_mul(self.width)? + q)?;
        (id != NO_BASE).then_some(id)
    }

    /// Axial coordinates of the cell containing a plane point at `res`.
    #[inline]
    pub fn axial_at(&self, p: WorldXY, res: u8) -> Axial {
        let (qf, rf) = self.basis(res).to_fractional(p);
        hex_round(qf, rf)
    }

    /// Axial coordinates of the cell containing a geographic point at `res`.
    #[inline]
    pub fn axial_of(&self, p: LatLon, res: u8) -> Axial {
        self.axial_at(to_xy(p), res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_offsets_have_distinct_residues() {
        for (d, off) in DIGIT_OFFSET.iter().enumerate() {
            assert_eq!(residue(*off) as usize, d, "offset {off:?}");
        }
    }

    #[test]
    fn parent_child_round_trip() {
        for q in -20..20 {
            for r in -20..20 {
                let p = Axial::new(q, r);
                for d in 0..7u8 {
                    let c = child_axial(p, d);
                    let (p2, d2) = parent_axial(c);
                    assert_eq!(p2, p, "child {c:?} of {p:?} digit {d}");
                    assert_eq!(d2, d);
                }
            }
        }
    }

    #[test]
    fn every_cell_has_exactly_one_parent_role() {
        // The 7 children of distinct parents never collide.
        let mut seen = std::collections::HashSet::new();
        for q in -5..5 {
            for r in -5..5 {
                for d in 0..7u8 {
                    let c = child_axial(Axial::new(q, r), d);
                    assert!(seen.insert(c), "collision at {c:?}");
                }
            }
        }
    }

    #[test]
    fn refine_shrinks_area_by_seven() {
        let l = Lattice::get();
        for res in 0..MAX_RES {
            let b = l.basis(res);
            let det = (b.a * b.d - b.b * b.c).abs();
            let bf = l.basis(res + 1);
            let detf = (bf.a * bf.d - bf.b * bf.c).abs();
            assert!((det / detf - 7.0).abs() < 1e-9, "res {res}: {}", det / detf);
        }
    }

    #[test]
    fn base_cell_count_near_122() {
        let l = Lattice::get();
        let n = l.base_cell_count();
        // The rectangle holds exactly 122 cells of area plus boundary slack.
        assert!((122..=300).contains(&n), "unexpected base cell count {n}");
    }

    #[test]
    fn base_table_is_bijective() {
        let l = Lattice::get();
        for id in 0..l.base_cell_count() as u16 {
            let ax = l.base_axial(id).unwrap();
            assert_eq!(l.base_id(ax), Some(id));
        }
    }

    /// Every axial of the table's bounding box and a ring of two around
    /// it answers as the table does: an id that round-trips where a base
    /// cell sits, `None` off the table — as do axials far outside it.
    #[test]
    fn base_ids_off_the_table_are_none() {
        let l = Lattice::get();
        let known: std::collections::HashSet<(i64, i64)> = (0..l.base_cell_count() as u16)
            .map(|id| l.base_axial(id).unwrap())
            .map(|a| (a.q, a.r))
            .collect();
        let (q0, q1) = (
            known.iter().map(|a| a.0).min().unwrap(),
            known.iter().map(|a| a.0).max().unwrap(),
        );
        let (r0, r1) = (
            known.iter().map(|a| a.1).min().unwrap(),
            known.iter().map(|a| a.1).max().unwrap(),
        );
        let mut off = 0;
        for q in q0 - 2..=q1 + 2 {
            for r in r0 - 2..=r1 + 2 {
                let ax = Axial::new(q, r);
                match l.base_id(ax) {
                    Some(id) => assert_eq!(l.base_axial(id), Some(ax)),
                    None => off += 1,
                }
                assert_eq!(l.base_id(ax).is_some(), known.contains(&(q, r)), "{q},{r}");
            }
        }
        assert!(off > 0);
        for (q, r) in [
            (i64::MIN, 0),
            (0, i64::MIN),
            (i64::MAX, 0),
            (0, i64::MAX),
            (i64::MAX, i64::MAX),
        ] {
            assert_eq!(l.base_id(Axial::new(q, r)), None, "{q},{r}");
        }
    }

    #[test]
    fn hex_round_exact_on_centers() {
        for q in -10..10 {
            for r in -10..10 {
                assert_eq!(hex_round(q as f64, r as f64), Axial::new(q, r));
            }
        }
    }

    #[test]
    fn hex_round_nearest_center() {
        let l = Lattice::get();
        let b = l.basis(3);
        // Sample points and verify the rounded cell's centre is the nearest
        // among the rounded cell and its 6 neighbours.
        for i in 0..200 {
            let p = WorldXY {
                x: (i as f64 * 137.31) % 5000.0 - 2500.0,
                y: (i as f64 * 89.7) % 3000.0 - 1500.0,
            };
            let (qf, rf) = b.to_fractional(p);
            let c = hex_round(qf, rf);
            let cc = b.to_world(c);
            let dc = (cc.x - p.x).powi(2) + (cc.y - p.y).powi(2);
            for off in Axial::NEIGHBOR_OFFSETS {
                let n = b.to_world(c + off);
                let dn = (n.x - p.x).powi(2) + (n.y - p.y).powi(2);
                assert!(dc <= dn + 1e-6, "point {p:?}: neighbour closer");
            }
        }
    }

    #[test]
    fn axial_distance_properties() {
        let a = Axial::new(0, 0);
        assert_eq!(a.distance(a), 0);
        for off in Axial::NEIGHBOR_OFFSETS {
            assert_eq!(a.distance(a + off), 1);
        }
        assert_eq!(a.distance(Axial::new(3, 0)), 3);
        assert_eq!(a.distance(Axial::new(2, -4)), 4);
    }

    #[test]
    fn res0_cell_area_matches_calibration() {
        let l = Lattice::get();
        let b = l.basis(0);
        let det = (b.a * b.d - b.b * b.c).abs(); // area per lattice cell
        let want = EARTH_SURFACE_KM2 / BASE_CELL_AREA_DIVISOR;
        assert!((det - want).abs() / want < 1e-12);
    }

    #[test]
    fn vertex_offsets_form_regular_hexagon() {
        let l = Lattice::get();
        for res in [0u8, 3, 6, 9] {
            let b = l.basis(res);
            let vs = b.vertex_offsets();
            let s = b.circumradius();
            for v in vs {
                let d = (v.x * v.x + v.y * v.y).sqrt();
                assert!(
                    (d - s).abs() / s < 1e-9,
                    "res {res}: vertex radius {d} vs {s}"
                );
            }
            // Perimeter edges all equal to s as well (regular hexagon).
            for i in 0..6 {
                let w = vs[(i + 1) % 6];
                let v = vs[i];
                let e = ((w.x - v.x).powi(2) + (w.y - v.y).powi(2)).sqrt();
                assert!((e - s).abs() / s < 1e-9, "res {res}: edge {e} vs {s}");
            }
        }
    }
}
