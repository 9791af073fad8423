"""Regular grids over the unit ball.

The empirical center-outward distribution function maps a sample of n
residuals onto a fixed grid of n points in the open unit ball: n_R nested
hyperspheres with radii j/(n_R+1), each carrying the same n_S unit
directions, plus n_0 copies of the origin (n = n_R * n_S + n_0,
0 <= n_0 < min(n_R, n_S)).

A run's grid is built from its seed in :func:`_seeded_grid` alone: substream
3 of the seed for the ball grid, substream 4 for the sphere grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._errors import InputError
from ._rng import derive_seed, stream

__all__ = ["GridFactorization", "BallGrid", "factorize", "make_grid", "make_sphere_grid"]


@dataclass(frozen=True)
class GridFactorization:
    """Factorization n = n_R * n_S + n_0 with 0 <= n_0 < min(n_R, n_S)."""

    n: int
    n_R: int
    n_S: int
    n_0: int

    def __post_init__(self):
        if self.n <= 0 or self.n_R <= 0 or self.n_S <= 0 or self.n_0 < 0:
            raise InputError(f"invalid factorization {self}")
        if self.n != self.n_R * self.n_S + self.n_0:
            raise InputError(
                f"n={self.n} != n_R*n_S + n_0 = {self.n_R * self.n_S + self.n_0}"
            )
        if not self.n_0 < min(self.n_R, self.n_S):
            raise InputError(
                f"n_0={self.n_0} must be < min(n_R, n_S) = {min(self.n_R, self.n_S)}"
            )


@dataclass(frozen=True)
class BallGrid:
    """A grid of n points in the unit ball of R^d.

    Attributes
    ----------
    points : (n, d) array
        Gridpoints; the final n_0 rows are exactly the origin.
    factorization : GridFactorization
    d : int
    symmetric : bool
        True iff the non-origin points form a multiset closed under g -> -g.
    point_ranks : (n,) int array
        Radius index j in 1..n_R of each point (0 for origin copies).
    point_signs : (n, d) array
        Unit direction of each point (zero vector for origin copies).
    """

    points: np.ndarray
    factorization: GridFactorization
    d: int
    symmetric: bool
    point_ranks: np.ndarray = field(repr=False)
    point_signs: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.factorization.n

    @property
    def n_R(self) -> int:
        return self.factorization.n_R

    @cached_property
    def _point_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """The lead of each gridpoint, the lowest index of its duplicate
        group (:func:`_row_groups`), and the members, every index sorted by
        lead and then by index; the tie rule of every coupling reads both."""
        lead = _row_groups(self.points)
        return lead, np.argsort(lead, kind="stable")

    @cached_property
    def _coarse_groups(self) -> np.ndarray:
        """:func:`_groups` of the gridpoints into max(n // 4, 1) groups, which
        the warm start of every coupling reads."""
        return _groups(self.points, max(self.n // 4, 1))


def _row_groups(rows: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row equal to it (bytewise)."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return first[group]


def _groups(x: np.ndarray, m: int) -> np.ndarray:
    """A permutation of the n rows of x that lists m groups in turn: four
    rows each, the last taking the other n - 4(m - 1).

    Median splits: a block of k groups splits along its widest coordinate,
    its 4 * (k // 2) lowest rows (equal values in stable order) forming the
    first k // 2 groups.  One sort splits every block of a level.
    """
    n = x.shape[0]
    order = np.arange(n)
    starts, ks = np.zeros(1, dtype=np.intp), np.array([m])
    while ks.size < m:
        xs = x[order]
        spread = np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts)
        block = np.repeat(np.arange(ks.size), np.diff(starts, append=n))
        order = order[np.lexsort((xs[np.arange(n), spread.argmax(1)[block]], block))]
        lo = ks // 2
        starts = np.column_stack([starts, starts + 4 * lo]).ravel()
        ks = np.column_stack([lo, ks - lo]).ravel()
        starts, ks = starts[ks > 0], ks[ks > 0]
    return order


def factorize(n: int, d: int, override: tuple[int, int, int] | None = None) -> GridFactorization:
    """Choose (n_R, n_S, n_0) for a sample of size n in dimension d.

    The heuristic takes n_R near n^(1/d) (so n_S is of order n^((d-1)/d))
    and decrements n_R until the remainder n_0 = n mod n_R is admissible.
    A caller-supplied triple overrides the heuristic if it is valid.

    Parameters
    ----------
    n : int
        Sample size, at least 4.
    d : int
        Dimension, at least 1.  For d = 1 the heuristic uses n_S = 2
        (one direction per sign).
    override : (n_R, n_S, n_0), optional
        Explicit factorization; validated against the invariants.
    """
    if n < 4:
        raise InputError(f"need n >= 4, got {n}")
    if d < 1:
        raise InputError(f"need d >= 1, got {d}")
    if override is not None:
        return GridFactorization(n, *map(int, override))
    n_R = n // 2 if d == 1 else round(n ** (1.0 / d))
    n_R = max(1, min(n_R, n))
    while n_R >= 1:
        n_S = n // n_R
        n_0 = n - n_R * n_S
        if n_0 < min(n_R, n_S):
            return GridFactorization(n, n_R, n_S, n_0)
        n_R -= 1
    raise InputError(f"no admissible factorization for n={n}")  # unreachable for n >= 4


def _directions(n_S: int, d: int, seed) -> tuple[np.ndarray, bool]:
    """n_S unit directions; antipodally symmetric (exactly) when n_S is even."""
    half = (n_S + 1) // 2
    if d == 1:
        dirs = np.ones((half, 1))
    elif d == 2:
        # Angles 2*pi*k/n_S.  For even n_S only the first half is generated
        # and the rest taken as exact negations, so the symmetry is bit-exact.
        k = np.arange(half if n_S % 2 == 0 else n_S)
        ang = 2.0 * np.pi * k / n_S
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
        if n_S % 2 != 0:
            return dirs, False
    else:
        rng = stream(0 if seed is None else seed, d, n_S)
        dirs = np.empty((half, d))
        for i in range(half):
            while True:
                g = rng.standard_normal(d)
                nrm = np.linalg.norm(g)
                if nrm > 1e-12:
                    dirs[i] = g / nrm
                    break
    full = np.vstack([dirs, -dirs])[:n_S]
    return full, n_S % 2 == 0


def make_grid(fact: GridFactorization, d: int, seed: int | None = None) -> BallGrid:
    """Build the ball grid for a factorization.

    For d = 2 the directions are the n_S regular angles 2*pi*k/n_S; for
    d >= 3 they are ceil(n_S/2) seeded uniform directions (normalized
    Gaussians) completed with their antipodes and truncated to n_S.  Each
    direction carries the n_R radii j/(n_R+1); n_0 origin copies follow.
    """
    n, n_R, n_S, n_0 = fact.n, fact.n_R, fact.n_S, fact.n_0
    dirs, symmetric = _directions(n_S, d, seed)
    radii = np.arange(1, n_R + 1) / (n_R + 1)
    # Direction-major layout: point (k, j) = radii[j] * dirs[k].
    pts = (dirs[:, None, :] * radii[None, :, None]).reshape(n_R * n_S, d)
    ranks = np.tile(np.arange(1, n_R + 1), n_S)
    signs = np.repeat(dirs, n_R, axis=0)
    if n_0 > 0:
        pts = np.vstack([pts, np.zeros((n_0, d))])
        ranks = np.concatenate([ranks, np.zeros(n_0, dtype=int)])
        signs = np.vstack([signs, np.zeros((n_0, d))])
    return BallGrid(
        points=pts,
        factorization=fact,
        d=d,
        symmetric=symmetric,
        point_ranks=ranks.astype(int),
        point_signs=signs,
    )


def make_sphere_grid(n: int, d: int, seed: int | None = None) -> BallGrid:
    """Grid with n_R = 1, n_S = n, n_0 = 0 for sign-score statistics.

    All points sit on the sphere of radius 1/2; sign scores read only the
    directions, so any common radius would do.
    """
    if n < 2:
        raise InputError(f"need n >= 2, got {n}")
    return make_grid(GridFactorization(n, 1, n, 0), d, seed)


def _seeded_grid(n: int, d: int, seed: int, sphere: bool = False, override=None) -> BallGrid:
    """The grid of a run with master ``seed``: the sphere grid, or the ball
    grid of ``factorize(n, d, override)``.  The override does not apply to
    the sphere grid."""
    if sphere:
        return make_sphere_grid(n, d, seed=derive_seed(seed, 4))
    return make_grid(factorize(n, d, override=override), d, seed=derive_seed(seed, 3))


def _reconstruct_grid(points: np.ndarray) -> BallGrid:
    """Rebuild a BallGrid from its points alone (as the CLI's `grid` writes them).

    Points are grouped into radius levels by their norms (1e-9 tolerance);
    the levels must be the equispaced j/(n_R+1) family with a constant
    direction count.
    """
    n, d = points.shape
    norms = np.linalg.norm(points, axis=1)
    origin = norms <= 1e-9
    n_0 = int(np.sum(origin))
    nz = np.sort(np.unique(np.round(norms[~origin], 9)))
    n_R = nz.size
    if n_R == 0:
        raise InputError("grid points are all at the origin")
    expected = np.arange(1, n_R + 1) / (n_R + 1)
    if np.max(np.abs(nz - expected)) > 1e-9:
        raise InputError("grid radii are not the equispaced j/(n_R+1) family")
    if (n - n_0) % n_R != 0:
        raise InputError("grid points do not split evenly across radius levels")
    n_S = (n - n_0) // n_R
    fact = GridFactorization(n, n_R, n_S, n_0)
    ranks = np.zeros(n, dtype=int)
    signs = np.zeros((n, d))
    live = ~origin
    ranks[live] = np.searchsorted(nz, np.round(norms[live], 9)) + 1
    signs[live] = points[live] / norms[live, None]
    per_level = np.bincount(ranks[live], minlength=n_R + 1)[1:]
    if np.any(per_level != n_S):
        raise InputError("grid radius levels carry unequal direction counts")
    nonzero = points[live]
    key = np.lexsort(nonzero.T)
    key_neg = np.lexsort((-nonzero).T)
    symmetric = bool(np.array_equal(nonzero[key], -nonzero[key_neg]))
    return BallGrid(
        points=points,
        factorization=fact,
        d=d,
        symmetric=symmetric,
        point_ranks=ranks,
        point_signs=signs,
    )
