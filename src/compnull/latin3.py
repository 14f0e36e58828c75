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

from .closed_form import _folded_ladder, _unit_order
from .regions import _check_cell_count, _paint, _sorted_unique, _statistics, _unpack
from .statmath import Interval, _alpha, _cdf_steps, _count, _finite

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
        k = _count("order", self.k, 1)
        object.__setattr__(self, "k", k)
        rows = tuple(map(tuple, self.grid))
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"grid must be {k}x{k}")
        # _count's rule on each kind of symbol: bools, floats and strings are refused
        refused = {t for t in set(map(type, itertools.chain.from_iterable(rows)))
                   if t is bool or not issubclass(t, (int, np.integer))}
        if refused:
            _count("symbol", next(v for row in rows for v in row if type(v) in refused), 1)
        a = np.array(rows)
        if a.dtype.kind not in "iu":  # symbols past int64: they fail the check as objects
            a = np.array(rows, dtype=object)
        for name, lines in (("row", a), ("column", a.T)):
            bad = np.flatnonzero((np.sort(lines, axis=1) != np.arange(1, k + 1)).any(axis=1))
            if bad.size:
                raise ValueError(f"{name} {bad[0] + 1} is not a permutation of 1..{k}")
        object.__setattr__(self, "grid", tuple(map(tuple, a.astype(np.int64, copy=False).tolist())))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """1-based entry access: square[i, j] = A_{i,j}."""
        i, j = ij
        return self.grid[i - 1][j - 1]


def cyclic_latin(k: int) -> LatinSquare:
    """The cyclic square A_{i,j} = ((i+j-2) mod K) + 1; a K x K square over
    the grid-cell limit is refused before it is built."""
    k = _count("order", k, 1)
    _check_cell_count((k, k))
    i = np.arange(k)
    return LatinSquare(k, ((i[:, None] + i) % k + 1).tolist())


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
    relabel = [0, *swap].__getitem__
    grid = tuple(tuple(map(relabel, row)) for row in a.grid)
    return CornerNormalization(LatinSquare(k, grid), identity, identity, tuple(swap))


class RejectionRegion3D:
    """Union of pairwise-disjoint open boxes in the nonnegative |z| octant.

    Construction validates the boxes and compiles them onto one band
    tensor: per-axis sorted band edges, each running from 0 to inf and
    including every box endpoint, and a read-only tensor holding, for each
    open grid cell, 1 + the index of the box containing it (0 for none).
    Every box is a slab of whole grid cells, so lookup is one bisection per
    axis plus one tensor read and exact power is a contraction of per-axis
    band masses with the tensor's membership.
    """

    __slots__ = ("alpha", "boxes", "_edges", "_inner", "_label", "_power")

    def __init__(self, alpha: float, boxes):
        alpha = _alpha(alpha)
        norm = []
        for x, y, z in boxes:
            for iv in (x, y, z):
                if not isinstance(iv, Interval):
                    raise ValueError("each box must be a triple of Interval")
                if iv.lo < 0.0:
                    raise ValueError("boxes must lie in the nonnegative octant")
            norm.append((x, y, z))
        self.alpha, self.boxes = alpha, tuple(norm)
        self._set_tensor(*self._compile())

    def _compile(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        lo, hi = np.array([[(iv.lo, iv.hi) for iv in box] for box in self.boxes]
                          ).reshape(-1, 3, 2).transpose(2, 1, 0)
        edges = tuple(_sorted_unique(np.concatenate(([0.0, math.inf], lo[a], hi[a])))
                      for a in range(3))
        label, overlap = _paint(edges, lo, hi)
        if overlap is not None:
            _, a, b = overlap
            raise ValueError(f"boxes overlap: {self.boxes[a]} and {self.boxes[b]}")
        return edges, label

    def _set_tensor(self, edges: tuple[np.ndarray, ...], label: np.ndarray) -> None:
        for arr in (*edges, label):
            arr.flags.writeable = False
        self._edges = edges
        self._inner = tuple(tuple(e[1:-1].tolist()) for e in edges)
        self._label = label
        self._power = None  # analytic_power3's operands, built on its first call

    def __eq__(self, other):
        if not isinstance(other, RejectionRegion3D):
            return NotImplemented
        return self.alpha == other.alpha and self.boxes == other.boxes

    def __hash__(self):
        return hash((self.alpha, self.boxes))

    def __repr__(self):
        return f"RejectionRegion3D(alpha={self.alpha!r}, boxes=<{len(self.boxes)}>)"


def _latin_order(alpha) -> tuple[float, int]:
    """``alpha`` as a level and the order K of its Latin region: alpha must be
    1/K, and the K^3 tensor within the grid-cell limit (so K <= 203). Checked
    before a square is built or read."""
    alpha = _alpha(alpha)
    k = _unit_order(alpha)
    if k is None:
        raise ValueError(f"alpha={alpha!r} must be 1/K for an integer order K")
    _check_cell_count((k, k, k))
    return alpha, k


def build_latin_region(a: LatinSquare, alpha: float) -> RejectionRegion3D:
    """Region of K^2 boxes (c_{i-1},c_i) x (c_{j-1},c_j) x (c_{A_ij-1},c_{A_ij}).

    c_k is the (K+k)/(2K) standard-normal quantile, the folded ladder of
    :func:`~compnull.closed_form.extended_breakpoints`, so c_0 = 0 and
    c_K = inf. Requires alpha = 1/K for the square's order K. The square is
    used as given; apply normalize_corner first if consistency at large
    diagonal alternatives is wanted. Each box is one cell of the ladder's
    band tensor, which is written directly (cell (i, j, A_ij) gets label
    (i - 1) K + j), not compiled from the boxes. The K^3 tensor is held to
    the grid-cell limit of :class:`RejectionRegion3D`, so K <= 203.
    """
    alpha, k = _latin_order(alpha)
    if k != a.k:
        raise ValueError(f"alpha={alpha!r} must be the reciprocal of the square's order {a.k}")
    c = _folded_ladder(alpha, k)
    bands = [Interval(c[i], c[i + 1]) for i in range(k)]
    boxes = tuple((bands[i], bands[j], bands[s - 1])
                  for i, row in enumerate(a.grid) for j, s in enumerate(row))
    label = np.zeros((k * k, k), dtype=np.int64)
    label[np.arange(k * k), np.ravel(a.grid) - 1] = np.arange(1, k * k + 1)
    region = RejectionRegion3D.__new__(RejectionRegion3D)
    region.alpha, region.boxes = alpha, boxes
    region._set_tensor((np.array(c),) * 3, label.reshape(k, k, k))
    return region


def rejects3(region: RejectionRegion3D, z) -> bool:
    """Open-box membership of (|z1|, |z2|, |z3|).

    A coordinate on a box's edge, including |z| = 0, lies outside that box;
    +-inf lies in the unbounded end band. NaN raises.
    """
    # Band i is (edges[i], edges[i+1]). A coordinate on the inner edge
    # edges[i+1] touches bands i and i+1, and lies inside a box only if one
    # box covers every grid cell the point touches.
    span = []
    for t, inner in zip(map(abs, _statistics(z, 3)), region._inner):
        if t == 0.0:
            return False
        i = bisect_left(inner, t)
        span.append(slice(i, i + 2 if i < len(inner) and inner[i] == t else i + 1))
    touched = region._label[tuple(span)]
    first = touched.flat[0]
    return bool(first > 0 and (touched == first).all())


def _power_operands(region: RejectionRegion3D):
    """The concatenated edges of the three axes, the axis of each edge, the slices of
    their band masses in one difference of the concatenated cdf, and the float
    membership tensor; built on a region's first power call and then kept (8 K^3 bytes
    for a Latin region: 67 MB at K = 203)."""
    if region._power is None:
        sizes = [e.size for e in region._edges]
        starts = np.cumsum([0] + sizes)
        bands = tuple(slice(a, b - 1) for a, b in zip(starts, starts[1:]))
        region._power = (np.concatenate(region._edges), np.repeat(np.arange(3), sizes), bands,
                         (region._label > 0).astype(float))
    return region._power


def analytic_power3(region: RejectionRegion3D, delta_star) -> float:
    """Exact rejection probability at a mean triple.

    With g_a[i] the folded N(mu_a, 1) mass of band i on axis a, power is
    the contraction of the membership tensor with g_x, g_y and g_z. All
    three axes' masses come from one cdf pass per sign over the axes'
    concatenated edges, with the bits of ``_band_masses`` on each axis:
    the steps that straddle two axes are sliced away.
    """
    d = _finite("mean", _unpack(delta_star, 3, "mean"))
    edges, axis, bands, member = _power_operands(region)
    g = _cdf_steps(edges, np.array(d)[axis], folded=True)
    gx, gy, gz = (g[b] for b in bands)
    return min(1.0, max(0.0, float(member @ gz @ gy @ gx)))


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
        return LatinSquare(doc["order"], tuple(tuple(row) for row in doc["grid"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid square document: {exc}") from None
