"""Traffic-matrix construction (paper Section 3).

Traffic flows between city pairs at least 2,000 km apart along the
geodesic (closer pairs are better served by terrestrial networks). From
all eligible pairs over the 1,000-city set, the paper uniform-randomly
samples 5,000; we mirror that with a fixed seed so every experiment sees
the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import MIN_CITY_PAIR_DISTANCE_M, NUM_CITY_PAIRS
from repro.geo.geodesy import haversine_m
from repro.ground.cities import City

__all__ = [
    "CityPair",
    "PairIndex",
    "eligible_pairs",
    "pair_index",
    "sample_city_pairs",
    "TRAFFIC_SEED",
]

#: Fixed seed making the sampled traffic matrix reproducible.
TRAFFIC_SEED = 42


@dataclass(frozen=True)
class CityPair:
    """One traffic-matrix entry: indices into the city list + geodesic."""

    a: int
    b: int
    distance_m: float


@dataclass(frozen=True)
class PairIndex:
    """Array view of a pair list, built once and shared across snapshots.

    Both the RTT pipeline and the routing layer repeatedly need the same
    things for a pair list: each pair's source/target city, the sorted
    unique source cities (one batched Dijkstra serves every pair sharing
    a source), and each pair's position among them. All of it is pure
    pair-list data — independent of the snapshot graph — so it is
    computed once per distinct pair list (see :func:`pair_index`)
    instead of per pair per snapshot.
    """

    sources: np.ndarray  # (P,) source city of each pair
    targets: np.ndarray  # (P,) target city of each pair
    source_cities: np.ndarray  # (S,) unique source cities, ascending
    source_row: np.ndarray  # (P,) position of each pair's source in source_cities

    @property
    def num_pairs(self) -> int:
        return len(self.sources)

    def gt_nodes(self, num_sats: int, num_gts: int) -> tuple[np.ndarray, np.ndarray]:
        """Graph node ids of every pair's (source, target) city.

        The bounds check mirrors ``SnapshotGraph.gt_node`` — done once
        per call instead of once per pair.
        """
        for arr in (self.sources, self.targets):
            if arr.size and (arr.min() < 0 or arr.max() >= num_gts):
                raise IndexError("city index out of range for this graph")
        return num_sats + self.sources, num_sats + self.targets


@lru_cache(maxsize=64)
def _build_pair_index(key: tuple[tuple[int, int], ...]) -> PairIndex:
    sources = np.fromiter((a for a, _ in key), dtype=np.int64, count=len(key))
    targets = np.fromiter((b for _, b in key), dtype=np.int64, count=len(key))
    source_cities, source_row = np.unique(sources, return_inverse=True)
    return PairIndex(
        sources=sources,
        targets=targets,
        source_cities=source_cities,
        source_row=np.asarray(source_row, dtype=np.int64),
    )


def pair_index(pairs: list[CityPair]) -> PairIndex:
    """The (cached) :class:`PairIndex` of a pair list.

    Keyed on the (source, target) city tuples, so every scenario sweep
    over the same traffic matrix — every snapshot, every mode, every k —
    shares one index.
    """
    return _build_pair_index(tuple((p.a, p.b) for p in pairs))


def _eligible_arrays(
    cities: tuple[City, ...], min_distance_m: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, b, distance_m)`` arrays of every eligible pair, ``a < b``.

    Vectorized: the full pairwise distance matrix for 1,000 cities is a
    million haversines, well within numpy territory. Pairs come in
    row-major order of the upper triangle.
    """
    lats = np.array([c.lat_deg for c in cities])
    lons = np.array([c.lon_deg for c in cities])
    dists = haversine_m(lats[:, None], lons[:, None], lats[None, :], lons[None, :])
    a_idx, b_idx = np.nonzero(np.triu(dists >= min_distance_m, k=1))
    return a_idx, b_idx, dists[a_idx, b_idx]


def eligible_pairs(
    cities: tuple[City, ...],
    min_distance_m: float = MIN_CITY_PAIR_DISTANCE_M,
) -> list[CityPair]:
    """Every unordered city pair separated by at least ``min_distance_m``."""
    a_idx, b_idx, dists = _eligible_arrays(cities, min_distance_m)
    return [
        CityPair(int(a), int(b), float(d))
        for a, b, d in zip(a_idx, b_idx, dists)
    ]


def sample_city_pairs(
    cities: tuple[City, ...],
    num_pairs: int = NUM_CITY_PAIRS,
    min_distance_m: float = MIN_CITY_PAIR_DISTANCE_M,
    seed: int = TRAFFIC_SEED,
    weighting: str = "uniform",
) -> list[CityPair]:
    """Random sample of ``num_pairs`` eligible pairs (no repeats).

    ``weighting`` selects the sampling law:

    * ``"uniform"`` — the paper's model: every eligible pair equally
      likely;
    * ``"gravity"`` — pair probability proportional to the product of
      the two cities' populations (the classic traffic gravity model,
      sans distance decay since the >2,000 km floor already shapes the
      distance profile). Big metros attract proportionally more of the
      matrix, concentrating load on their up-links.

    If fewer eligible pairs exist than requested (tiny test scenarios),
    all of them are returned, shuffled. The draw runs over indices into
    the eligible pairs (in :func:`eligible_pairs` order), and only the
    chosen :class:`CityPair` objects are built.
    """
    a_idx, b_idx, dists = _eligible_arrays(cities, min_distance_m)
    rng = np.random.default_rng(seed)
    if num_pairs >= len(a_idx):
        chosen = rng.permutation(len(a_idx))
    elif weighting == "uniform":
        chosen = rng.choice(len(a_idx), size=num_pairs, replace=False)
    elif weighting == "gravity":
        populations = np.array([c.population_k for c in cities], dtype=float)
        weights = populations[a_idx] * populations[b_idx]
        weights = weights / weights.sum()
        chosen = rng.choice(len(a_idx), size=num_pairs, replace=False, p=weights)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return [
        CityPair(int(a_idx[i]), int(b_idx[i]), float(dists[i])) for i in chosen
    ]
