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
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .closed_form import _folded_ladder, _ladder_bands, _unit_order
from .regions import _check_cell_count, _statistics, _unpack
from .statmath import Interval, _alpha, _band_masses, _count, _finite

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
    grid: np.ndarray  # read-only K x K int64, a copy of the one given

    def __post_init__(self):
        k = _count("order", self.k, 1)
        object.__setattr__(self, "k", k)
        a = self.grid
        if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
            rows = tuple(map(tuple, a))
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
        elif a.shape != (k, k):
            raise ValueError(f"grid must be {k}x{k}")
        for name, lines in (("row", a), ("column", a.T)):
            bad = np.flatnonzero((np.sort(lines, axis=1) != np.arange(1, k + 1)).any(axis=1))
            if bad.size:
                raise ValueError(f"{name} {bad[0] + 1} is not a permutation of 1..{k}")
        object.__setattr__(self, "grid", a.astype(np.int64))  # a copy, never the caller's
        self.grid.flags.writeable = False

    def __eq__(self, other):  # equal grids have equal orders
        return (np.array_equal(self.grid, other.grid) if isinstance(other, LatinSquare)
                else NotImplemented)

    def __hash__(self):
        return hash((self.k, self.grid.tobytes()))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        """1-based entry access: square[i, j] = A_{i,j}."""
        i, j = ij
        return self.grid.item(i - 1, j - 1)


def cyclic_latin(k: int) -> LatinSquare:
    """The cyclic square A_{i,j} = ((i+j-2) mod K) + 1; a K x K square over
    the grid-cell limit is refused before it is built."""
    k = _count("order", k, 1)
    _check_cell_count(k, k)
    i = np.arange(k)
    return LatinSquare(k, (i[:, None] + i) % k + 1)


def _validated_perm(perm) -> tuple[int, int, int]:
    p = tuple(_count("perm entry", v, 1) for v in perm)
    if sorted(p) != [1, 2, 3]:
        raise ValueError(f"perm must be a permutation of (1, 2, 3), got {perm!r}")
    return p


def conjugate(a: LatinSquare, perm) -> LatinSquare:
    """Conjugate square under a permutation of (row, column, symbol) roles.

    Each cell of ``a`` is an orthogonal-array triple (i, j, A_{i,j}); the
    conjugate is the square whose triples are those with coordinates
    rearranged so that new position m holds old position perm[m]. The
    identity permutation returns an equal square. Perm entries are integers,
    never bools, floats or strings.
    """
    p = _validated_perm(perm)
    triples = np.stack((*np.indices((a.k, a.k)), a.grid - 1))
    r, c, s = triples[[v - 1 for v in p]]
    out = np.empty_like(a.grid)
    out[r, c] = s + 1
    return LatinSquare(a.k, out)


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
    square = LatinSquare(k, np.array([0, *swap])[a.grid])
    return CornerNormalization(square, identity, identity, tuple(swap))


class RejectionRegion3D:
    """The rejection region of a Latin square of order K at level alpha = 1/K.

    It is the union of the K^2 open boxes (c_{i-1}, c_i) x (c_{j-1}, c_j) x
    (c_{A_ij-1}, c_{A_ij}) in |z|-space, where c is the folded ladder that all
    three axes share. The region holds its level, its square and that ladder;
    each box is one band cell on each axis, so lookup reads one symbol and
    exact power is a gather on the square. Made by :func:`build_latin_region`
    alone.
    """

    __slots__ = ("alpha", "_square", "_ladder", "_inner")

    @property
    def boxes(self) -> tuple[tuple[Interval, Interval, Interval], ...]:
        """The K^2 boxes as Interval triples, row-major over the square's cells."""
        c = self._ladder.tolist()
        bands = [Interval(lo, hi) for lo, hi in zip(c, c[1:])]
        return tuple((bands[i], bands[j], bands[s - 1])
                     for i, row in enumerate(self._square.grid.tolist()) for j, s in enumerate(row))

    def __eq__(self, other):
        if not isinstance(other, RejectionRegion3D):
            return NotImplemented
        return self.alpha == other.alpha and self._square == other._square

    def __hash__(self):
        return hash((self.alpha, self._square))

    def __repr__(self):
        return f"RejectionRegion3D(alpha={self.alpha!r}, boxes=<{self._square.k ** 2}>)"


def _latin_order(alpha) -> tuple[float, int]:
    """``alpha`` as a level and the order K of its Latin region: 1/K, with K <= 1448."""
    alpha = _alpha(alpha)
    k = _unit_order(alpha)
    if k is None:
        raise ValueError(f"alpha={alpha!r} must be 1/K for an integer order K")
    _ladder_bands(alpha, k)
    return alpha, k


def build_latin_region(a: LatinSquare, alpha: float) -> RejectionRegion3D:
    """Region of K^2 boxes (c_{i-1},c_i) x (c_{j-1},c_j) x (c_{A_ij-1},c_{A_ij}).

    c_k is the (K+k)/(2K) standard-normal quantile, the folded ladder of
    :func:`~compnull.closed_form.extended_breakpoints`, so c_0 = 0 and
    c_K = inf. Requires alpha = 1/K for the square's order K, with K <= 1448.
    The square is used as given; apply normalize_corner first if consistency
    at large diagonal alternatives is wanted.
    """
    alpha, k = _latin_order(alpha)
    if k != a.k:
        raise ValueError(f"alpha={alpha!r} must be the reciprocal of the square's order {a.k}")
    ladder = np.array(_folded_ladder(alpha, k))
    ladder.flags.writeable = False
    region = RejectionRegion3D.__new__(RejectionRegion3D)
    region.alpha, region._square, region._ladder = alpha, a, ladder
    region._inner = tuple(ladder[1:-1].tolist())
    return region


def rejects3(region: RejectionRegion3D, z) -> bool:
    """Open-box membership of (|z1|, |z2|, |z3|).

    Every box is a single band cell, so a coordinate at 0 or on an inner band
    edge lies outside; +-inf lies in the unbounded end band. NaN raises.
    """
    inner = region._inner
    bands = []
    for t in map(abs, _statistics(z, 3)):
        i = bisect_left(inner, t)
        if t == 0.0 or (i < len(inner) and inner[i] == t):
            return False
        bands.append(i)
    i, j, s = bands
    return region._square.grid.item(i, j) == s + 1


def analytic_power3(region: RejectionRegion3D, delta_star) -> float:
    """Exact rejection probability at a mean triple.

    With g_a[i] the folded N(mu_a, 1) mass of band i on axis a, power is the
    sum over cells (i, j) of g_x[i] g_y[j] g_z[A_ij - 1]: g_z with a 0 put in
    front, gathered on the square, contracted with g_y and g_x. All three
    axes' masses come from one ``_band_masses`` call on the shared ladder.
    """
    d = _finite("mean", _unpack(delta_star, 3, "mean"))
    gx, gy, gz = _band_masses(region._ladder, d, folded=True)
    return min(1.0, max(0.0, float(np.concatenate(([0.0], gz))[region._square.grid] @ gy @ gx)))


def square_to_json(a: LatinSquare) -> str:
    """Row-major integer-array document for a square."""
    return json.dumps({"order": a.k, "grid": a.grid.tolist()})


def square_from_json(text: str) -> LatinSquare:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid square document: {exc}") from None
    if not isinstance(doc, dict) or "order" not in doc or "grid" not in doc:
        raise ValueError("square document must have 'order' and 'grid' fields")
    try:
        return LatinSquare(doc["order"], doc["grid"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid square document: {exc}") from None
