"""Latitude/longitude grids and city-proximity grid selection.

Supports the paper's relay-GT placement rule: transit-only GTs sit on a
uniform 0.5-degree lat/lon grid, on land, within 2,000 km of one of the
1,000 source/sink cities (Section 3).

Selection is a nearest-centre query on a KD-tree over the centres' unit
vectors, so memory grows with the number of grid points, not with grid
points x centres: at the paper's 0.5 degrees and 1,000 cities it holds a
few MB of arrays instead of the ~400 MB dense dot-product block a
points x centres comparison needs.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.constants import EARTH_RADIUS
from repro.geo.geodesy import unit_vectors
from repro.geo.landmask import is_land

__all__ = ["global_grid", "grid_points_near", "land_grid_points_near"]

#: Half-width, in squared chord units, of the band around the selection
#: radius inside which the tree's distance is too close to call and the
#: dot-product test decides. Rounding separates the tree's squared chord
#: from ``2 - 2 dot`` by a few 1e-16 (unit vectors are unit only to a
#: few ulp), so 1e-12 is wide; at the 2,000 km relay radius it spans
#: ~10 micrometres of ground distance.
_CHORD2_BAND = 1e-12


def global_grid(spacing_deg: float):
    """All grid points at ``spacing_deg``, as ``(lats, lons)`` flat arrays.

    Latitudes span (-90, 90) exclusive (poles are degenerate); longitudes
    span [-180, 180).
    """
    if spacing_deg <= 0:
        raise ValueError("spacing_deg must be positive")
    lats = np.arange(-90.0 + spacing_deg, 90.0, spacing_deg)
    lons = np.arange(-180.0, 180.0, spacing_deg)
    lat_grid, lon_grid = np.meshgrid(lats, lons, indexing="ij")
    return lat_grid.ravel(), lon_grid.ravel()


def grid_points_near(
    centre_lats,
    centre_lons,
    radius_m: float,
    spacing_deg: float,
):
    """Grid points within ``radius_m`` of *any* centre point.

    A grid point is selected when the dot product of its unit vector
    with some centre's is at least ``cos(radius / R)``. The test runs as
    one KD-tree query over the centres: the nearest centre's chord
    distance against the equivalent chord radius
    ``sqrt(2 - 2 cos(radius / R))``. The few points whose chord lies
    within rounding of that radius are decided by the dot products
    themselves, so the selection equals the dot-product test exactly.
    Returns ``(lats, lons)`` of the selected grid points, in grid order.
    Raises ``ValueError`` for a negative radius.
    """
    if not radius_m >= 0:
        raise ValueError(f"radius_m must be non-negative, got {radius_m!r}")
    grid_lats, grid_lons = global_grid(spacing_deg)
    centre_lats = np.atleast_1d(np.asarray(centre_lats, dtype=float))
    centre_lons = np.atleast_1d(np.asarray(centre_lons, dtype=float))
    if len(centre_lats) == 0:
        return grid_lats[:0], grid_lons[:0]

    # Cheap latitude prefilter: a point further than the radius in latitude
    # alone cannot be within range of any centre.
    radius_deg = np.degrees(radius_m / EARTH_RADIUS)
    lat_lo = centre_lats.min() - radius_deg
    lat_hi = centre_lats.max() + radius_deg
    keep = (grid_lats >= lat_lo) & (grid_lats <= lat_hi)
    grid_lats, grid_lons = grid_lats[keep], grid_lons[keep]

    grid_vecs = unit_vectors(grid_lats, grid_lons)
    centre_vecs = unit_vectors(centre_lats, centre_lons)
    cos_threshold = np.cos(radius_m / EARTH_RADIUS)
    chord2 = 2.0 - 2.0 * cos_threshold

    nearest, _ = cKDTree(centre_vecs).query(
        grid_vecs, distance_upper_bound=np.sqrt(chord2 + _CHORD2_BAND)
    )
    nearest2 = nearest * nearest  # inf beyond the upper bound
    selected = nearest2 < chord2 - _CHORD2_BAND
    borderline = np.flatnonzero(~selected & np.isfinite(nearest2))
    if len(borderline):
        dots = grid_vecs[borderline] @ centre_vecs.T
        selected[borderline] = (dots >= cos_threshold).any(axis=1)
    return grid_lats[selected], grid_lons[selected]


def land_grid_points_near(
    centre_lats,
    centre_lons,
    radius_m: float,
    spacing_deg: float,
):
    """Like :func:`grid_points_near`, restricted to land points."""
    lats, lons = grid_points_near(centre_lats, centre_lons, radius_m, spacing_deg)
    on_land = is_land(lats, lons)
    return lats[on_land], lons[on_land]
