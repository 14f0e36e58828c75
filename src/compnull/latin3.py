"""Similar tests for the three-factor product null via Latin squares.

A Latin square of order K assigns each (row band, column band) pair of the
first two statistics a band for the third; the union of the resulting open
boxes in |z|-space rejects with probability exactly alpha = 1/K whenever any
single coordinate has mean zero, because every band carries folded null
mass alpha.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .closed_form import AlphaSpec, extended_breakpoints
from .statmath import Interval, _alpha, _cdf_array

__all__ = [
    "LatinSquare",
    "RejectionRegion3D",
    "CornerNormalization",
    "cyclic_latin",
    "conjugate",
    "is_totally_symmetric",
    "normalize_corner",
    "build_latin_region",
    "rejects3",
    "analytic_power3",
    "square_to_json",
    "square_from_json",
]

@dataclass(frozen=True)
class LatinSquare:
    """Order-K square of symbols 1..K; every row and column is a permutation."""

    k: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = self.k
        if k < 1:
            raise ValueError(f"order must be >= 1, got {k!r}")
        grid = tuple(tuple(int(v) for v in row) for row in self.grid)
        object.__setattr__(self, "grid", grid)
        if len(grid) != k or any(len(row) != k for row in grid):
            raise ValueError(f"grid must be {k}x{k}")
        full = set(range(1, k + 1))
        for i, row in enumerate(grid):
            if set(row) != full:
                raise ValueError(f"row {i + 1} is not a permutation of 1..{k}")
        for j in range(k):
            if {row[j] for row in grid} != full:
                raise ValueError(f"column {j + 1} is not a permutation of 1..{k}")

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """1-based entry access: square[i, j] = A_{i,j}."""
        i, j = ij
        return self.grid[i - 1][j - 1]


def cyclic_latin(k: int) -> LatinSquare:
    """The cyclic square A_{i,j} = ((i+j-2) mod K) + 1."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k!r}")
    return LatinSquare(k, tuple(
        tuple((i + j) % k + 1 for j in range(k)) for i in range(k)))


def _validated_perm(perm) -> tuple[int, int, int]:
    p = tuple(int(v) for v in perm)
    if sorted(p) != [1, 2, 3]:
        raise ValueError(f"perm must be a permutation of (1, 2, 3), got {perm!r}")
    return p


def conjugate(a: LatinSquare, perm) -> LatinSquare:
    """Conjugate square under a permutation of (row, column, symbol) roles.

    Each cell of ``a`` is an orthogonal-array triple (i, j, A_{i,j}); the
    conjugate is the square whose triples are those with coordinates
    rearranged so that new position m holds old position perm[m]. The
    identity permutation returns an equal square.
    """
    p = _validated_perm(perm)
    k = a.k
    out = [[0] * k for _ in range(k)]
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            triple = (i, j, a[i, j])
            r, c, s = (triple[p[0] - 1], triple[p[1] - 1], triple[p[2] - 1])
            out[r - 1][c - 1] = s
    return LatinSquare(k, tuple(tuple(row) for row in out))


def is_totally_symmetric(a: LatinSquare) -> bool:
    """True iff the square equals all six of its conjugates."""
    return all(conjugate(a, p) == a for p in itertools.permutations((1, 2, 3)))


@dataclass(frozen=True)
class CornerNormalization:
    """Result of corner normalization: the square plus the applied relabelings.

    Each permutation maps old label -> new label at position old-1.
    """

    square: LatinSquare
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    sym_perm: tuple[int, ...]


def normalize_corner(a: LatinSquare) -> CornerNormalization:
    """Relabel so that the bottom-right entry equals the order K.

    A square with A_{K,K} = K puts the all-large box (c_{K-1}, inf)^3 in the
    region, which is what makes the test consistent along the diagonal. A
    symbol swap suffices; rows and columns are left alone.
    """
    k = a.k
    identity = tuple(range(1, k + 1))
    corner = a[k, k]
    if corner == k:
        return CornerNormalization(a, identity, identity, identity)
    swap = list(identity)
    swap[corner - 1], swap[k - 1] = k, corner
    grid = tuple(tuple(swap[v - 1] for v in row) for row in a.grid)
    return CornerNormalization(LatinSquare(k, grid), identity, identity, tuple(swap))


class RejectionRegion3D:
    """Union of pairwise-disjoint open boxes in the nonnegative |z| octant.

    Construction validates the boxes and compiles them onto one band
    tensor: per-axis sorted band edges, each running from 0 to inf and
    including every box endpoint, and a read-only tensor holding, for each
    open grid cell, 1 + the index of the box containing it (0 for none),
    with its 0/1 membership as floats. Every box is a slab of whole grid
    cells, so lookup is one bisection per axis plus one tensor read and
    exact power is a contraction of per-axis band masses with the tensor.
    """

    __slots__ = ("alpha", "boxes", "_edges", "_inner", "_label", "_member")

    def __init__(self, alpha: float, boxes):
        alpha = _alpha(alpha)
        norm = []
        for b in boxes:
            x, y, z = b
            for iv in (x, y, z):
                if not isinstance(iv, Interval):
                    raise ValueError("each box must be a triple of Interval")
                if iv.lo < 0.0:
                    raise ValueError("boxes must lie in the nonnegative octant")
            norm.append((x, y, z))
        self.alpha = alpha
        self.boxes = tuple(norm)
        self._compile()

    def _compile(self) -> None:
        lo, hi = np.array([[(iv.lo, iv.hi) for iv in box] for box in self.boxes]
                          ).reshape(-1, 3, 2).transpose(2, 1, 0)
        edges = tuple(np.unique(np.concatenate(([0.0, math.inf], lo[a], hi[a])))
                      for a in range(3))
        nx, ny, nz = (len(e) - 1 for e in edges)

        # Box k covers the grid slab i0[:, k]:i1[:, k] exactly, because its
        # endpoints are grid edges. Paint coverage counts and labels k+1 with
        # a 3-D difference array (+-1 at the slab's eight corners, then a
        # cumsum along each axis); integer sums keep both exact.
        i0 = np.array([np.searchsorted(e, v) for e, v in zip(edges, lo)])
        i1 = np.array([np.searchsorted(e, v) for e, v in zip(edges, hi)])
        labels = np.arange(1, len(self.boxes) + 1)
        count = np.zeros((nx + 1, ny + 1, nz + 1), dtype=np.int64)
        label = np.zeros_like(count)
        for corner in itertools.product((0, 1), repeat=3):
            index = tuple(i1[a] if c else i0[a] for a, c in enumerate(corner))
            sign = (-1) ** sum(corner)
            np.add.at(count, index, sign)
            np.add.at(label, index, sign * labels)
        count = count.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)[:nx, :ny, :nz]
        if count.max(initial=0) > 1:
            cell = np.argwhere(count > 1)[0][:, None]
            a, b = np.nonzero(np.all((i0 <= cell) & (cell < i1), axis=0))[0][:2]
            raise ValueError(f"boxes overlap: {self.boxes[a]} and {self.boxes[b]}")
        label = label.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)[:nx, :ny, :nz]
        member = (label > 0).astype(float)

        for arr in (*edges, label, member):
            arr.flags.writeable = False
        self._edges = edges
        self._inner = tuple(tuple(e[1:-1].tolist()) for e in edges)
        self._label = label
        self._member = member

    def __eq__(self, other):
        if not isinstance(other, RejectionRegion3D):
            return NotImplemented
        return self.alpha == other.alpha and self.boxes == other.boxes

    def __hash__(self):
        return hash((self.alpha, self.boxes))

    def __repr__(self):
        return f"RejectionRegion3D(alpha={self.alpha!r}, boxes=<{len(self.boxes)}>)"


def build_latin_region(a: LatinSquare, alpha: float) -> RejectionRegion3D:
    """Region of K^2 boxes (c_{i-1},c_i) x (c_{j-1},c_j) x (c_{A_ij-1},c_{A_ij}).

    c_k is the (K+k)/(2K) standard-normal quantile, the folded ladder of
    :func:`~compnull.closed_form.extended_breakpoints`, so c_0 = 0 and
    c_K = inf. Requires alpha = 1/K for the square's order K. The square is
    used as given; apply normalize_corner first if consistency at large
    diagonal alternatives is wanted.
    """
    spec = AlphaSpec.from_alpha(alpha)
    if spec.k != a.k:
        raise ValueError(
            f"alpha={spec.alpha!r} must be the reciprocal of the square's order {a.k}")
    k = a.k
    c = extended_breakpoints(spec.alpha)
    bands = [Interval(c[i], c[i + 1]) for i in range(k)]
    boxes = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            boxes.append((bands[i - 1], bands[j - 1], bands[a[i, j] - 1]))
    return RejectionRegion3D(spec.alpha, boxes)


def _as_xyz(z) -> tuple[float, float, float]:
    z1, z2, z3 = (float(v) for v in z)
    return z1, z2, z3


def rejects3(region: RejectionRegion3D, z) -> bool:
    """Open-box membership of (|z1|, |z2|, |z3|).

    A coordinate on a box's edge, including |z| = 0, lies outside that box;
    +-inf lies in the unbounded end band. NaN raises.
    """
    u = tuple(abs(v) for v in _as_xyz(z))
    if any(math.isnan(t) for t in u):
        raise ValueError("test statistics must not be NaN")
    # Band i is (edges[i], edges[i+1]). A coordinate on the inner edge
    # edges[i+1] touches bands i and i+1, and lies inside a box only if one
    # box covers every grid cell the point touches.
    span = []
    for t, inner in zip(u, region._inner):
        if t == 0.0:
            return False
        i = bisect_left(inner, t)
        span.append(slice(i, i + 2 if i < len(inner) and inner[i] == t else i + 1))
    touched = region._label[tuple(span)]
    first = touched.flat[0]
    return bool(first > 0 and (touched == first).all())


def analytic_power3(region: RejectionRegion3D, delta_star) -> float:
    """Exact rejection probability at a mean triple.

    With g_a[i] the folded N(mu_a, 1) mass of band i on axis a, power is
    the contraction of the membership tensor with g_x, g_y and g_z.
    """
    d = _as_xyz(delta_star)
    if not all(math.isfinite(mu) for mu in d):
        raise ValueError(f"mean must be finite, got {d!r}")
    gx, gy, gz = (np.diff(_cdf_array(e - mu)) - np.diff(_cdf_array(-e - mu))
                  for e, mu in zip(region._edges, d))
    return min(1.0, max(0.0, float(region._member @ gz @ gy @ gx)))


def square_to_json(a: LatinSquare) -> str:
    """Row-major integer-array document for a square."""
    return json.dumps({"order": a.k, "grid": [list(row) for row in a.grid]})


def square_from_json(text: str) -> LatinSquare:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid square document: {exc}") from None
    if not isinstance(doc, dict) or "order" not in doc or "grid" not in doc:
        raise ValueError("square document must have 'order' and 'grid' fields")
    try:
        return LatinSquare(int(doc["order"]), tuple(tuple(row) for row in doc["grid"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid square document: {exc}") from None
