"""Truncated distance multisets around base points.

Prime tables, points files and Cramer member windows all get their
distances here.  They are float64 even for integer configurations (exact
for coordinates up to ``2**53``), so one type serves every source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidArgumentError
from .primes import PrimeTable

PointSource = Union[PrimeTable, np.ndarray, Sequence[float]]


@dataclass(frozen=True)
class DistanceMultiset:
    """Sorted positive distances with multiplicity, truncated at ``radius``."""

    values: np.ndarray
    radius: float
    base_points: tuple

    def __len__(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_values(
        cls,
        values: Sequence[float] | np.ndarray,
        radius: float | None = None,
        base_points: Sequence[float] = (),
    ) -> "DistanceMultiset":
        v = np.sort(np.asarray(values, dtype=np.float64))
        if v.size and v[0] <= 0:
            raise InvalidArgumentError("distances must be strictly positive")
        if radius is None:
            radius = float(v[-1]) if v.size else 0.0
        if v.size and v[-1] > radius:
            raise InvalidArgumentError(f"distance {v[-1]} exceeds radius {radius}")
        return cls(values=v, radius=float(radius), base_points=tuple(base_points))

    def scaled(self, c: float) -> "DistanceMultiset":
        """Multiset with every distance multiplied by ``c > 0``."""
        if c <= 0:
            raise InvalidArgumentError(f"scale factor must be positive, got {c}")
        v = self.values * c
        radius = self.radius * c
        if v.size:
            radius = max(radius, float(v[-1]))
        return DistanceMultiset(values=v, radius=radius, base_points=self.base_points)


def _points_array(table: PointSource) -> np.ndarray:
    pts = np.asarray(table, dtype=np.float64)
    if pts.ndim != 1:
        raise InvalidArgumentError("point configuration must be one-dimensional")
    if pts.size > 1 and np.any(np.diff(pts) < 0):
        raise InvalidArgumentError("point configuration must be sorted ascending")
    return pts


def truncated_distances(p: float, table: PointSource, R: float) -> DistanceMultiset:
    """Distances from ``p`` to every other configuration point within ``R``.

    The base point itself is excluded (distance zero), but ``p`` does not
    have to be a member of the configuration.  A ``PrimeTable`` must cover
    ``[p - R, p + R]`` (silent truncation would bias the distribution); a
    raw array is taken to be the complete configuration, so no coverage
    check applies.
    """
    return aggregate_distances([p], table, R)


def aggregate_distances(points: Sequence[float], table: PointSource, R: float) -> DistanceMultiset:
    """Measure sum of the per-point truncated multisets.

    Duplicated base points contribute their distances with doubled
    multiplicity, matching addition of counting measures.
    """
    d = np.sort(pooled_distances(points, table, R))
    return DistanceMultiset(values=d, radius=float(R), base_points=tuple(points))


def _check_window(p: float, R: float) -> None:
    """InvalidArgumentError unless ``p`` and ``R`` are finite and ``R > 0``."""
    if not (math.isfinite(p) and math.isfinite(R)):
        raise InvalidArgumentError(f"p and R must be finite, got p = {p}, R = {R}")
    if R <= 0:
        raise InvalidArgumentError(f"R must be positive, got {R}")


def _check_radii(p: float, radii: Sequence[float]) -> np.ndarray:
    """``radii`` as a float64 array, or InvalidArgumentError unless it is a
    non-empty, non-decreasing grid whose every window around ``p`` passes
    :func:`_check_window`."""
    radii = np.asarray([float(r) for r in radii], dtype=np.float64)
    if radii.size < 1:
        raise InvalidArgumentError("need at least one radius")
    for r in radii.tolist():
        _check_window(p, r)
    if np.any(np.diff(radii) < 0):
        raise InvalidArgumentError("radius grid must be non-decreasing")
    return radii


def pooled_distances(points: Sequence[float], table: PointSource, R: float) -> np.ndarray:
    """The values of :func:`aggregate_distances`, unsorted.

    The points are checked in order, and the first one that fails raises
    what :func:`truncated_distances` raises for it.
    """
    parts = []
    for j, p in enumerate(points):
        _check_window(p, R)
        if j == 0:  # R is valid: find every point's window at once
            centers = np.asarray(points, dtype=np.float64)
            with np.errstate(over="ignore"):  # p ± R may round to ±inf, as floats do
                lo, hi = centers - R, centers + R
            if isinstance(table, PrimeTable):
                pts, (start, stop), covered = table.primes, table.bounds(lo, hi), table.covers(lo, hi)
            else:
                pts = _points_array(table)
                start, stop = pts.searchsorted(lo, side="left"), pts.searchsorted(hi, side="right")
                covered = np.ones(centers.size, dtype=bool)
        if not covered[j]:
            table.between(p - R, p + R)  # raises the CoverageError
        # One window at a time: its temporaries stay in cache.
        d = np.abs(pts[start[j] : stop[j]] - float(p))
        parts.append(d[(d > 0) & (d <= R)])
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def write_values(path: str | Path, values: Iterable[float]) -> None:
    """One value per line, full float precision."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for v in values:
            handle.write(f"{float(v)!r}\n")


def read_values(path: str | Path) -> np.ndarray:
    """Parse a one-value-per-line file (blank lines and ``#`` comments skipped).

    Every value must be a finite number; ``nan`` and ``inf`` are rejected
    with the offending ``path:line``.
    """
    out = []
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    value = float(line)
                except ValueError:
                    raise InvalidArgumentError(
                        f"{path}:{lineno}: not a number: {line!r}"
                    ) from None
                if not math.isfinite(value):
                    raise InvalidArgumentError(f"{path}:{lineno}: not finite: {line!r}")
                out.append(value)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read points file {path}: {exc}") from None
    return np.asarray(out, dtype=np.float64)
