//! # pol-hexgrid — hexagonal hierarchical geospatial index
//!
//! A clean-room substitute for the Uber **H3** index the paper builds on.
//! §3.2.1 of the paper states the methodology is grid-agnostic as long as the
//! grid satisfies six requirements; this crate satisfies all of them:
//!
//! 1. **Global**: every `(lat, lon)` maps to a cell at every resolution.
//! 2. **Equal area**: cells at one resolution cover *exactly* equal spherical
//!    areas, because the lattice lives on a Lambert cylindrical equal-area
//!    plane (H3 cells only approximate this).
//! 3. **Hexagonal adjacency**: every cell has six neighbours at a fixed
//!    centre distance (H3 additionally has 12 pentagons per resolution; we
//!    have none — our defect is instead a lattice seam at the antimeridian,
//!    see below).
//! 4. **Hierarchical**: aperture-7 resolutions 0–15. Parent/child is *exact
//!    integer arithmetic* on the index-7 hexagonal sublattice, so the 7
//!    children of a cell partition the child resolution exactly.
//! 5. **Performant**: `latlon→cell` is a projection, a 2×2 solve, a hex
//!    rounding and ≤15 integer steps; no allocation.
//! 6. **Interoperable**: cells are 64-bit integers with an H3-like layout
//!    (resolution + base cell + 3-bit digit per level) printed as hex.
//!
//! Cell areas are calibrated to H3: resolution 0 has 122 cells' worth of
//! area (`4πR²/122`), so resolution 6 ≈ 35.5 km² (H3: 36.1 km²) and
//! resolution 7 ≈ 5.08 km² (H3: 5.16 km²), keeping the paper's Table 4
//! directly comparable.
//!
//! ## The antimeridian seam
//!
//! The rotated aperture-7 lattice cannot be made periodic around the globe,
//! so cells on either side of ±180° longitude are *not* lattice neighbours,
//! and a cell in the seam column can have its nominal centre past ±180°
//! (which wraps to the opposite map edge, so `cell_at(cell_center(c)) == c`
//! holds everywhere *except* that one column). Per-cell statistics and
//! data-driven transitions (the paper's workload) are unaffected; only
//! grid-adjacency queries (`neighbors`, `grid_disk`) degrade in a
//! ~1-cell-wide column over the mid-Pacific. This substitution trade-off is
//! documented in DESIGN.md.

#![deny(missing_docs)]

pub mod grid;
pub mod index;
pub mod lattice;
pub mod stats;

pub use grid::{
    cell_at, cell_axial_at, cell_boundary, cell_center, cells_in_bbox, children, grid_disk,
    grid_distance, neighbors, parent, parent_at,
};
pub use index::{CellIndex, InvalidCellIndex, Resolution};
pub use lattice::Axial;
pub use stats::{avg_cell_area_km2, avg_edge_length_km, num_cells};
