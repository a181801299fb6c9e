"""Unit tests for lat/lon grids and relay-grid selection."""

import tracemalloc

import numpy as np
import pytest

from repro.constants import EARTH_RADIUS, RELAY_RADIUS_M
from repro.geo import geodesy, grid
from repro.geo.landmask import is_land
from repro.ground.cities import load_cities


def dense_grid_points_near(centre_lats, centre_lons, radius_m, spacing_deg):
    """Reference selection: every grid point against every centre.

    The dense dot-product test ``dot >= cos(radius / R)`` over
    (grid points x centre chunk) blocks. The chunk only bounds memory
    (the test is an OR over centres), so it is kept small here.
    """
    grid_lats, grid_lons = grid.global_grid(spacing_deg)
    centre_lats = np.atleast_1d(np.asarray(centre_lats, dtype=float))
    centre_lons = np.atleast_1d(np.asarray(centre_lons, dtype=float))
    if len(centre_lats) == 0:
        return grid_lats[:0], grid_lons[:0]
    radius_deg = np.degrees(radius_m / EARTH_RADIUS)
    lat_lo = centre_lats.min() - radius_deg
    lat_hi = centre_lats.max() + radius_deg
    keep = (grid_lats >= lat_lo) & (grid_lats <= lat_hi)
    grid_lats, grid_lons = grid_lats[keep], grid_lons[keep]

    grid_vecs = geodesy.unit_vectors(grid_lats, grid_lons)
    centre_vecs = geodesy.unit_vectors(centre_lats, centre_lons)
    cos_threshold = np.cos(radius_m / EARTH_RADIUS)
    selected = np.zeros(len(grid_lats), dtype=bool)
    chunk = max(1, int(5e6 // max(len(grid_lats), 1)))
    for start in range(0, len(centre_vecs), chunk):
        dots = grid_vecs @ centre_vecs[start : start + chunk].T
        selected |= (dots >= cos_threshold).any(axis=1)
    return grid_lats[selected], grid_lons[selected]


def _city_coords(num_cities):
    cities = load_cities(num_cities)
    return (
        np.array([c.lat_deg for c in cities]),
        np.array([c.lon_deg for c in cities]),
    )


def _assert_same_selection(centre_lats, centre_lons, radius_m, spacing_deg):
    lats, lons = grid.grid_points_near(centre_lats, centre_lons, radius_m, spacing_deg)
    ref_lats, ref_lons = dense_grid_points_near(
        centre_lats, centre_lons, radius_m, spacing_deg
    )
    # Same values in the same (grid) order, bit for bit.
    assert lats.tobytes() == ref_lats.tobytes()
    assert lons.tobytes() == ref_lons.tobytes()
    return lats


class TestGlobalGrid:
    def test_spacing_one_degree_count(self):
        lats, lons = grid.global_grid(1.0)
        # 179 latitude rows (no poles) x 360 longitude columns.
        assert len(lats) == 179 * 360
        assert len(lons) == len(lats)

    def test_no_poles(self):
        lats, _ = grid.global_grid(0.5)
        assert lats.max() < 90.0
        assert lats.min() > -90.0

    def test_longitudes_in_range(self):
        _, lons = grid.global_grid(2.0)
        assert lons.min() >= -180.0
        assert lons.max() < 180.0

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            grid.global_grid(0.0)

    def test_grid_is_uniform(self):
        lats, lons = grid.global_grid(10.0)
        assert set(np.diff(sorted(set(lats.tolist())))) == {10.0}


class TestGridPointsNear:
    def test_points_within_radius(self):
        lats, lons = grid.grid_points_near([48.86], [2.35], 500e3, 1.0)
        distances = geodesy.haversine_m(lats, lons, 48.86, 2.35)
        assert np.all(distances <= 500e3 + 1.0)

    def test_all_near_points_included(self):
        # Every global grid point within the radius must be selected.
        centre = (40.0, -100.0)
        radius = 800e3
        selected_lats, selected_lons = grid.grid_points_near(
            [centre[0]], [centre[1]], radius, 2.0
        )
        all_lats, all_lons = grid.global_grid(2.0)
        distances = geodesy.haversine_m(all_lats, all_lons, *centre)
        expected = int(np.sum(distances <= radius))
        assert len(selected_lats) == expected

    def test_multiple_centres_union(self):
        one = grid.grid_points_near([0.0], [0.0], 300e3, 1.0)
        other = grid.grid_points_near([0.0], [90.0], 300e3, 1.0)
        union = grid.grid_points_near([0.0, 0.0], [0.0, 90.0], 300e3, 1.0)
        assert len(union[0]) == len(one[0]) + len(other[0])

    def test_empty_centres(self):
        lats, lons = grid.grid_points_near([], [], 1000e3, 1.0)
        assert len(lats) == 0
        assert len(lons) == 0

    def test_zero_radius_selects_nothing_off_grid(self):
        lats, _ = grid.grid_points_near([0.25], [0.25], 1.0, 1.0)
        assert len(lats) == 0

    @pytest.mark.parametrize("radius_m", [-1.0, -500e3, float("nan")])
    def test_rejects_negative_radius(self, radius_m):
        with pytest.raises(ValueError, match="radius_m"):
            grid.grid_points_near([0.0], [0.0], radius_m, 1.0)
        with pytest.raises(ValueError, match="radius_m"):
            grid.land_grid_points_near([0.0], [0.0], radius_m, 1.0)


class TestMatchesDenseReference:
    """The KD-tree selection equals the dense dot-product test exactly."""

    @pytest.mark.parametrize("num_cities", [1, 40, 300, 1000])
    @pytest.mark.parametrize("spacing_deg", [0.5, 1.0, 2.0, 6.0])
    def test_city_sets(self, num_cities, spacing_deg):
        lats, lons = _city_coords(num_cities)
        selected = _assert_same_selection(lats, lons, RELAY_RADIUS_M, spacing_deg)
        assert len(selected) > 0

    def test_empty_centres(self):
        assert len(_assert_same_selection([], [], RELAY_RADIUS_M, 1.0)) == 0

    def test_radius_smaller_than_spacing(self):
        # 50 km around cities, on a ~220 km grid: a few points or none.
        lats, lons = _city_coords(300)
        _assert_same_selection(lats, lons, 50e3, 2.0)
        _assert_same_selection([0.0, 10.0], [0.0, 10.0], 50e3, 2.0)

    @pytest.mark.parametrize("factor", [1.0, 1.5, 2.0])
    def test_radius_at_least_half_circumference(self, factor):
        # cos(r/R) is not monotone past pi R; both sides use the same
        # threshold, so they must still agree.
        radius_m = factor * np.pi * EARTH_RADIUS
        _assert_same_selection([10.0, -30.0], [20.0, 100.0], radius_m, 6.0)

    @pytest.mark.parametrize("spacing_deg", [0.5, 2.0])
    def test_centres_near_poles_and_antimeridian(self, spacing_deg):
        lats = [89.9, -89.7, 0.0, 45.0, -60.0, 71.0]
        lons = [0.0, 123.0, 180.0, -179.9, 179.95, -180.0]
        _assert_same_selection(lats, lons, RELAY_RADIUS_M, spacing_deg)
        _assert_same_selection(lats, lons, 300e3, spacing_deg)

    @pytest.mark.parametrize("steps", [1, 3, 10])
    def test_points_exactly_on_the_radius(self, steps):
        # Grid points exactly ``steps`` grid steps from a centre on the
        # grid lie on the boundary, where rounding decides the outcome.
        radius_m = EARTH_RADIUS * np.radians(steps * 1.0)
        _assert_same_selection([0.0], [0.0], radius_m, 1.0)
        _assert_same_selection([40.0, 0.0], [-100.0, 90.0], radius_m, 1.0)

    def test_zero_radius(self):
        _assert_same_selection([0.0, 0.25], [0.0, 0.25], 0.0, 1.0)


class TestSelectionMemory:
    def test_paper_grid_peak_is_bounded(self):
        # 1,000 cities on the 0.5-degree grid: a dense (grid x centres)
        # block would trace several hundred MB.
        lats, lons = _city_coords(1000)
        tracemalloc.start()
        try:
            selected, _ = grid.grid_points_near(lats, lons, RELAY_RADIUS_M, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(selected) > 100_000
        assert peak < 64 * 2**20


class TestLandGridPointsNear:
    def test_all_selected_points_on_land(self):
        lats, lons = grid.land_grid_points_near([48.86], [2.35], 1_000e3, 1.0)
        assert len(lats) > 0
        assert np.all(is_land(lats, lons))

    def test_ocean_centre_selects_coastal_land_only(self):
        # Centre in the mid North Atlantic: within 2,000 km there is very
        # little land; everything selected must still be land.
        lats, lons = grid.land_grid_points_near([45.0], [-35.0], 2_000e3, 1.0)
        assert np.all(is_land(lats, lons))

    def test_land_subset_of_unfiltered(self):
        unfiltered = grid.grid_points_near([35.0], [-100.0], 700e3, 1.0)
        filtered = grid.land_grid_points_near([35.0], [-100.0], 700e3, 1.0)
        assert len(filtered[0]) <= len(unfiltered[0])

    def test_relay_density_scales_with_spacing(self):
        coarse = grid.land_grid_points_near([48.86], [2.35], 1_000e3, 2.0)
        fine = grid.land_grid_points_near([48.86], [2.35], 1_000e3, 1.0)
        # Halving the spacing roughly quadruples the point count.
        assert len(fine[0]) > 2.5 * len(coarse[0])
