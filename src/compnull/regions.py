"""Weighted rectangular rejection regions on the (zx, zy) plane.

A region is one tensor grid of open bands, each grid cell carrying a
rejection probability p in [0, 1]. It is built either from pairwise-disjoint
weighted open rectangles plus an optional "outside rule" that rejects
jointly-large statistics beyond the box the cells tile, or directly from a
grid. The grid serves every lookup and power computation, and it is what a
region-v2 JSON document stores, so solved regions can be shipped and
reloaded bit-exactly. Older region-v1 documents (cells plus rule) still load.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .statmath import Interval, _alpha, _cdf_array

__all__ = [
    "FORMAT_VERSION",
    "REGION_KINDS",
    "WeightedRect",
    "OutsideRule",
    "EstimateProvenance",
    "TestStatisticPair",
    "RejectionRegion2D",
    "RegionFormatError",
    "RegionValidationError",
    "rejection_prob_at_point",
    "rejection_prob_at_points",
    "analytic_power",
    "analytic_power_batch",
    "serialize",
    "deserialize",
]

FORMAT_VERSION = "region-v2"
_V1 = "region-v1"
REGION_KINDS = frozenset({"minimax", "extended", "joint_significance", "bayes", "custom"})
# the largest bucket table _BandIndex grows to while edges share buckets
_MAX_BUCKETS = 4096
# values per pass of rejection_prob_at_points and analytic_power_batch
_CHUNK = 1 << 15


class RegionFormatError(ValueError):
    """A region document that cannot be parsed; the message names the field."""


class RegionValidationError(ValueError):
    """A parseable region document whose content is inconsistent."""


@dataclass(frozen=True)
class WeightedRect:
    """Open rectangle x-interval times y-interval with rejection probability p."""

    x: Interval
    y: Interval
    p: float = 1.0

    def __post_init__(self) -> None:
        p = float(self.p)
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"cell probability must lie in [0, 1], got {p!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class OutsideRule:
    """Joint-significance rule applied outside the cell box.

    Rejects whenever |zx| > threshold and |zy| > threshold and (zx, zy)
    lies outside the closed ``box`` (given as (xlo, xhi, ylo, yhi); None
    means the bounding box of the region's cells).
    """

    threshold: float
    box: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        t = float(self.threshold)
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"outside-rule threshold must be finite and >= 0, got {t!r}")
        object.__setattr__(self, "threshold", t)
        if self.box is not None:
            box = tuple(float(v) for v in self.box)
            if len(box) != 4 or any(math.isnan(v) for v in box):
                raise ValueError(f"outside-rule box must be (xlo, xhi, ylo, yhi), got {self.box!r}")
            if box[0] > box[1] or box[2] > box[3]:
                raise ValueError(f"outside-rule box must be ordered, got {box!r}")
            object.__setattr__(self, "box", box)


@dataclass(frozen=True)
class EstimateProvenance:
    """Where a z-pair came from: effect estimates, their scaled SEs, and n."""

    delta_x_hat: float
    delta_y_hat: float
    se_x: float
    se_y: float
    n: int


@dataclass(frozen=True)
class TestStatisticPair:
    zx: float
    zy: float
    provenance: EstimateProvenance | None = None


def _as_xy(z) -> tuple[float, float]:
    if isinstance(z, TestStatisticPair):
        return float(z.zx), float(z.zy)
    zx, zy = z
    return float(zx), float(zy)


def _statistic_pair(z) -> tuple[float, float]:
    """``z`` as the two floats of a test statistic pair; NaN raises."""
    zx, zy = _as_xy(z)
    if math.isnan(zx) or math.isnan(zy):
        raise ValueError("test statistics must not be NaN")
    return zx, zy


class RejectionRegion2D:
    """A rejection region: one tensor grid of weighted open bands.

    The grid is sorted band edges ``x_edges`` and ``y_edges``, each running
    from -inf to inf, and a read-only matrix ``probs`` holding the rejection
    probability on each open grid cell. There are two ways in:

    - ``RejectionRegion2D(alpha, kind, cells, outside_rule)`` validates the
      cells (pairwise disjoint interiors) and compiles cells and rule onto
      the grid. Every edge of a cell, of the rule box and the rule
      thresholds +-t is a grid edge, so each grid cell lies wholly inside or
      outside each of them. A cell with p > 0 takes precedence over the rule.
    - :meth:`from_grid` takes the grid itself, as a region document stores
      it. Its ``cells`` are derived on first access, one ``WeightedRect``
      per nonzero grid cell, and its ``outside_rule`` is None.

    Equality and hashing compare ``(alpha, kind, x_edges, y_edges, probs)``,
    so two cell lists that compile to the same grid are equal.
    """

    __slots__ = ("alpha", "kind", "outside_rule", "_cells",
                 "x_edges", "y_edges", "probs", "_x_bands", "_y_bands", "_padded")

    def __init__(self, alpha, kind, cells, outside_rule=None):
        self._set_header(alpha, kind)
        if outside_rule is not None and not isinstance(outside_rule, OutsideRule):
            raise TypeError("outside_rule must be an OutsideRule or None")
        self._cells = tuple(cells)
        self.outside_rule = outside_rule
        self._set_grid(*self._compile())

    @classmethod
    def from_grid(cls, alpha, kind, x_edges, y_edges, probs) -> RejectionRegion2D:
        """A region from its compiled grid, validated in O(grid) and not repainted."""
        self = cls.__new__(cls)
        self._set_header(alpha, kind)
        self._cells = None
        self.outside_rule = None
        x_edges = _checked_edges(x_edges, "x_edges")
        y_edges = _checked_edges(y_edges, "y_edges")
        # + 0.0 copies and turns -0.0 into 0.0
        probs = np.asarray(probs, dtype=float) + 0.0
        shape = (len(x_edges) - 1, len(y_edges) - 1)
        if probs.shape != shape:
            raise ValueError(f"probs: expected shape {shape}, got {probs.shape}")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("probs: every grid value must lie in [0, 1] (NaN is not allowed)")
        self._set_grid(x_edges, y_edges, probs)
        return self

    @property
    def cells(self) -> tuple[WeightedRect, ...]:
        """The cells as given, or for a region built from its grid, one cell
        per nonzero grid cell in row-major order (derived once, then cached)."""
        if self._cells is None:
            xs = [Interval(lo, hi) for lo, hi in zip(self.x_edges[:-1].tolist(),
                                                    self.x_edges[1:].tolist())]
            ys = [Interval(lo, hi) for lo, hi in zip(self.y_edges[:-1].tolist(),
                                                    self.y_edges[1:].tolist())]
            i, j = np.nonzero(self.probs)
            self._cells = tuple(WeightedRect(xs[a], ys[b], p) for a, b, p in
                                zip(i.tolist(), j.tolist(), self.probs[i, j].tolist()))
        return self._cells

    def _grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.x_edges, self.y_edges, self.probs

    def __eq__(self, other):
        if not isinstance(other, RejectionRegion2D):
            return NotImplemented
        return ((self.alpha, self.kind) == (other.alpha, other.kind)
                and all(np.array_equal(a, b) for a, b in zip(self._grid(), other._grid())))

    def __hash__(self):
        # the grid holds no -0.0 (see _set_grid), so equal grids have equal bytes
        return hash((self.alpha, self.kind) + tuple(a.tobytes() for a in self._grid()))

    def __repr__(self):
        nx, ny = self.probs.shape
        return (f"RejectionRegion2D(alpha={self.alpha!r}, kind={self.kind!r}, "
                f"grid=<{nx}x{ny}>, outside_rule={self.outside_rule!r})")

    def _set_header(self, alpha, kind) -> None:
        if kind not in REGION_KINDS:
            raise ValueError(f"unknown region kind {kind!r}; expected one of {sorted(REGION_KINDS)}")
        self.alpha = _alpha(alpha)
        self.kind = kind

    def _set_grid(self, x_edges: np.ndarray, y_edges: np.ndarray, probs: np.ndarray) -> None:
        # Lookup support: a zero row and column past the end catch NaN (see
        # _BandIndex). + 0.0 turns a -0.0 edge into 0.0, as from_grid does
        # for probs; the compiled probs are 0.0, 1.0 or a positive cell value
        x_edges, y_edges = x_edges + 0.0, y_edges + 0.0
        nx, ny = probs.shape
        padded = np.zeros((nx + 1, ny + 1))
        padded[:nx, :ny] = probs
        padded.flags.writeable = False
        x_edges.flags.writeable = False
        y_edges.flags.writeable = False
        self.x_edges, self.y_edges = x_edges, y_edges
        self.probs = padded[:nx, :ny]
        self._padded = padded
        self._x_bands = _BandIndex(x_edges[1:-1])
        # minimax, extended, JS and Bayes grids have equal x and y edges, which share a table
        same = x_edges.tobytes() == y_edges.tobytes()
        self._y_bands = self._x_bands if same else _BandIndex(y_edges[1:-1])

    def _compile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        for cell in self._cells:
            if not isinstance(cell, WeightedRect):
                raise TypeError(f"cells must be WeightedRect, got {type(cell).__name__}")
        xlo, xhi, ylo, yhi, p = np.array(
            [(c.x.lo, c.x.hi, c.y.lo, c.y.hi, c.p) for c in self._cells]).reshape(-1, 5).T
        rule = self.outside_rule
        x_extra = y_extra = (-math.inf, math.inf)
        if rule is not None:
            t = rule.threshold
            box = rule.box
            if box is None and self._cells:
                box = (xlo.min(), xhi.max(), ylo.min(), yhi.max())
            x_extra += (-t, t) + (box[:2] if box is not None else ())
            y_extra += (-t, t) + (box[2:] if box is not None else ())
        x_edges = np.unique(np.concatenate((xlo, xhi, x_extra)))
        y_edges = np.unique(np.concatenate((ylo, yhi, y_extra)))
        label, overlap = _paint((x_edges, y_edges), np.array([xlo, ylo]), np.array([xhi, yhi]))
        if overlap is not None:
            (gi, gj), a, b = overlap
            raise RegionValidationError(
                f"overlapping cells: cells[{a}] and cells[{b}] share the open rectangle "
                f"({float(x_edges[gi])!r}, {float(x_edges[gi + 1])!r}) x "
                f"({float(y_edges[gj])!r}, {float(y_edges[gj + 1])!r})")
        cell_p = np.concatenate(([0.0], p))[label]

        fires = _js_outside(x_edges, y_edges, t, box) if rule is not None else False
        return x_edges, y_edges, np.where(cell_p > 0.0, cell_p, fires)


def _paint(edges, lo, hi):
    """Paint boxes onto a grid: their label tensor and the first overlap.

    ``lo``/``hi`` are (axes, boxes) arrays of box bounds, each an edge in
    ``edges``, so box k is a slab of whole cells; difference arrays (+-1 at
    slab corners, a cumsum per axis) paint its label k + 1 and coverage
    counts exactly. Returns the labels (0 off every box) and None, or
    ``(cell, a, b)``: the first cell two boxes share and the first two on it.
    """
    i0, i1 = (np.array([np.searchsorted(e, v) for e, v in zip(edges, b)]) for b in (lo, hi))
    labels = np.arange(1, i0.shape[1] + 1)
    count = np.zeros([len(e) for e in edges], dtype=np.int64)
    label = np.zeros_like(count)
    for corner in itertools.product((0, 1), repeat=len(edges)):
        index = tuple(i1[a] if c else i0[a] for a, c in enumerate(corner))
        sign = (-1) ** sum(corner)
        np.add.at(count, index, sign)
        np.add.at(label, index, sign * labels)
    inner = (slice(-1),) * len(edges)
    for axis in range(len(edges)):
        count, label = count.cumsum(axis=axis), label.cumsum(axis=axis)
    count, label = count[inner], label[inner]
    if count.max(initial=0) <= 1:
        return label, None
    cell = np.argwhere(count > 1)[0]
    a, b = np.nonzero(np.all((i0 <= cell[:, None]) & (cell[:, None] < i1), axis=0))[0][:2]
    return label, (cell, a, b)


def _checked_edges(edges, name: str) -> np.ndarray:
    """A copy of ``edges`` as floats, strictly increasing from -inf to inf."""
    edges = np.array(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError(f"{name}: expected at least two band edges")
    if np.isnan(edges).any():
        raise ValueError(f"{name}: NaN is not allowed")
    if not np.all(edges[1:] > edges[:-1]):
        k = int(np.argmin(edges[1:] > edges[:-1]))
        raise ValueError(f"{name}: edges must be strictly increasing, but {name}[{k + 1}] = "
                         f"{float(edges[k + 1])!r} follows {float(edges[k])!r}")
    if edges[0] != -math.inf or edges[-1] != math.inf:
        raise ValueError(f"{name}: edges must run from -inf to inf, got "
                         f"{float(edges[0])!r} to {float(edges[-1])!r}")
    return edges


class _BandIndex:
    """Band lookup along one axis of a grid, by a bucket table.

    Band i is (edges[i], edges[i+1]). ``index(z)`` gives each z's band, the
    number of inner edges below it, so a point on an inner edge lands in the
    band below; NaN lands one past the end band, on the grid's zero pad.

    The table cuts [lo, hi], the first to last inner edge, into ``buckets``
    equal buckets, and entry b of ``start`` counts the edges whose bucket
    lies left of b. A point's bucket comes from the same float operations as
    an edge's, and they are monotone, so ``start`` never overshoots the band
    and falls short by at most the depth, the most edges sharing a bucket.
    The table doubles from 4 buckets per edge until no two edges share a
    bucket or it reaches _MAX_BUCKETS.

    ``upper`` holds the inner edges and then NaN, which compares false, so
    no step passes the end band and +inf is never on an edge. At depth 1
    one step ``i += upper[i] < z`` ends the search, and the same gathered
    edge is the on-edge test: the next edge lies in a later bucket, above
    z. Deeper tables, of clustered edges, close the gap with branchless
    halving steps ``i += s`` while ``upper[i + s - 1] < z`` and then gather
    ``upper[i]`` once more.
    """

    __slots__ = ("lo", "hi", "scale", "buckets", "start", "upper", "halving", "last_step")

    def __init__(self, inner: np.ndarray) -> None:
        k = len(inner)
        lo, hi = (float(inner[0]), float(inner[-1])) if k else (0.0, 0.0)
        if hi - lo == math.inf:  # edges past +-8.9e307: cover the lower half
            hi = lo / 2.0 + hi / 2.0
        self.lo, self.hi = np.float64(lo), np.float64(hi)
        buckets = max(4 * k, 1)
        if k > 1:  # enough buckets to part the closest two edges
            with np.errstate(over="ignore"):
                parted = (hi - lo) / float((inner[1:] - inner[:-1]).min())
            while buckets < parted and 2 * buckets <= _MAX_BUCKETS:
                buckets *= 2
        while True:
            self.buckets = np.float64(buckets)
            scale = buckets / (hi - lo) if hi > lo else 1.0
            # any positive finite scale keeps the lookup exact; hi's bucket
            # must stay below the NaN bucket
            scale = scale if scale < math.inf else 1.0
            while (hi - lo) * scale >= buckets:
                scale = math.nextafter(scale, 0.0)
            self.scale = np.float64(scale)
            edge_buckets = self._bucket(inner)
            depth = int(np.bincount(edge_buckets).max(initial=0))
            if depth <= 1 or 2 * buckets > _MAX_BUCKETS:
                break
            buckets *= 2  # rounding put two edges in one bucket
        start = np.searchsorted(edge_buckets, np.arange(buckets + 1))
        start[-1] = k + 1
        start.flags.writeable = False
        self.start = start
        steps = depth.bit_length() if depth > 1 else 0
        upper = np.concatenate((inner, np.full(2 ** steps + 1, math.nan)))
        upper.flags.writeable = False
        self.upper = upper
        self.halving = tuple((s, upper[s - 1:]) for s in (1 << e for e in reversed(range(steps))))
        self.last_step = depth == 1

    def _bucket(self, z: np.ndarray) -> np.ndarray:
        """Bucket of each z in [0, buckets), and NaN in bucket ``buckets``,
        whose ``start`` entry is one past the end band."""
        # maximum and minimum keep NaN, and fmin sends it alone to its bucket
        u = np.maximum(z, self.lo)
        np.minimum(u, self.hi, out=u)
        u -= self.lo
        u *= self.scale
        np.fmin(u, self.buckets, out=u)
        return u.astype(np.intp)

    def index(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Band index of each z in a 1-D float array, and whether z is on an inner edge."""
        i = self.start.take(self._bucket(z))
        for s, probe in self.halving:
            i += (probe.take(i) < z) * s
        upper = self.upper.take(i)
        if self.last_step:
            i += upper < z
        return i, z == upper


def _js_outside(x: np.ndarray, y: np.ndarray, t: float, box) -> np.ndarray:
    """Cells of the grid on band edges x, y with both bands in |z| >= t, outside
    the closed ``box`` (xlo, xhi, ylo, yhi) unless it is None."""
    fires = np.outer((x[:-1] >= t) | (x[1:] <= -t), (y[:-1] >= t) | (y[1:] <= -t))
    if box is not None:
        fires &= ~np.outer((x[:-1] >= box[0]) & (x[1:] <= box[1]),
                           (y[:-1] >= box[2]) & (y[1:] <= box[3]))
    return fires


def rejection_prob_at_point(region: RejectionRegion2D, z) -> float:
    """Rejection probability of the region at a single (zx, zy).

    Grid cells are open, so points on any inner band edge return 0; a
    coordinate at +-inf lies in the unbounded end band. NaN raises.
    """
    zx, zy = _statistic_pair(z)
    return float(rejection_prob_at_points(region, zx, zy))


def rejection_prob_at_points(region: RejectionRegion2D, zx, zy) -> np.ndarray:
    """Vectorized :func:`rejection_prob_at_point`; NaN coordinates give 0."""
    zx = np.asarray(zx, dtype=float)
    zy = np.asarray(zy, dtype=float)
    if zx.shape != zy.shape:
        raise ValueError("zx and zy must have matching shapes")
    shape = zx.shape
    zx, zy = zx.reshape(-1), zy.reshape(-1)
    # chunks keep the lookup's temporaries in cache
    out = np.empty(zx.size)
    for lo in range(0, zx.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        out[part] = _lookup(region, zx[part], zy[part])
    return out.reshape(shape)


def _lookup(region: RejectionRegion2D, zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """Rejection probability at each point of two 1-D float arrays."""
    i, on_edge = region._x_bands.index(zx)
    j, on_y_edge = region._y_bands.index(zy)
    on_edge |= on_y_edge
    i *= region._padded.shape[1]
    i += j
    probs = region._padded.ravel().take(i)
    probs[on_edge] = 0.0
    return probs


def analytic_power(region: RejectionRegion2D, delta_star) -> float:
    """Exact rejection probability at delta* = (dx, dy) under unit-variance
    normals; a NaN or infinite shift raises ValueError."""
    dx, dy = _as_xy(delta_star)
    return float(analytic_power_batch(region, np.array([[dx, dy]]))[0])


def analytic_power_batch(region: RejectionRegion2D, deltas) -> np.ndarray:
    """Exact rejection probability at each row of an (n, 2) array of shifts.

    With Gx[s, i] the N(dx_s, 1) mass of x-band i (Gy likewise), the power
    at shift s is the s-th row sum of (Gx @ probs) * Gy. Shifts are taken in
    blocks of about ``_CHUNK`` band masses, so the temporaries stay in cache
    and memory does not grow with the number of shifts. A NaN or infinite
    shift raises ValueError naming the first such row.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 2 or deltas.shape[1] != 2:
        raise ValueError("deltas must be an (n, 2) array")
    bad = np.flatnonzero(~np.isfinite(deltas).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"shifts must be finite, got {tuple(deltas[k].tolist())!r} at row {k}")
    x_edges, y_edges = region.x_edges[None, :], region.y_edges[None, :]
    rows = max(1, _CHUNK // max(x_edges.size, y_edges.size))
    out = np.empty(len(deltas))
    for lo in range(0, len(deltas), rows):
        d = deltas[lo:lo + rows]
        gx = np.diff(_cdf_array(x_edges - d[:, :1]), axis=1)
        gy = np.diff(_cdf_array(y_edges - d[:, 1:]), axis=1)
        out[lo:lo + rows] = ((gx @ region.probs) * gy).sum(axis=1)
    return np.clip(out, 0.0, 1.0, out=out)


# -- serialization ---------------------------------------------------------

def _enc_float(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def serialize(region: RejectionRegion2D) -> str:
    """Render a region as a region-v2 JSON document.

    The document holds the band edges (infinities as strings), the table of
    distinct grid values and row-major ``[value index, run length]`` pairs
    over ``probs``. Floats are written with ``repr``, so the grid reloads
    bit-exactly.
    """
    # runs first, so only their heads are sorted
    flat = region.probs.ravel()
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    values, index = np.unique(flat[starts], return_inverse=True)
    lengths = np.diff(np.append(starts, flat.size))
    doc = {
        "version": FORMAT_VERSION,
        "alpha": float(region.alpha),
        "kind": region.kind,
        "x_edges": [_enc_float(v) for v in region.x_edges.tolist()],
        "y_edges": [_enc_float(v) for v in region.y_edges.tolist()],
        "values": values.tolist(),
        "runs": np.column_stack((index, lengths)).tolist(),
    }
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}"


def _dec_float(v, where: str) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise RegionFormatError(f"{where}: expected a number or 'inf'/'-inf', got {v!r}")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise RegionFormatError(f"{where}: expected a number, got {v!r}")
    if math.isnan(v):
        raise RegionFormatError(f"{where}: NaN is not allowed")
    return float(v)


def _dec_pair(v, where: str) -> tuple[float, float]:
    if not isinstance(v, list) or len(v) != 2:
        raise RegionFormatError(f"{where}: expected [lo, hi]")
    return _dec_float(v[0], f"{where}[0]"), _dec_float(v[1], f"{where}[1]")


def _dec_floats(v, where: str) -> list[float]:
    if not isinstance(v, list):
        raise RegionFormatError(f"{where}: expected a list")
    # x == x is False only for NaN, which _dec_float rejects by name
    return [x if type(x) is float and x == x else _dec_float(x, f"{where}[{k}]")
            for k, x in enumerate(v)]


def _dec_kind(kind) -> str:
    if not isinstance(kind, str) or kind not in REGION_KINDS:
        raise RegionFormatError(f"kind: expected one of {sorted(REGION_KINDS)}, got {kind!r}")
    return kind


def _require(doc: dict, keys: tuple[str, ...]) -> None:
    for key in keys:
        if key not in doc:
            raise RegionFormatError(f"{key}: missing required field")


def deserialize(text: str) -> RejectionRegion2D:
    """Parse a region-v2 (or older region-v1) JSON document, naming any bad field.

    Unknown top-level keys are ignored.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RegionFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RegionFormatError("document: expected a JSON object")
    version = doc.get("version")
    if version == FORMAT_VERSION:
        return _read_v2(doc)
    if version == _V1:
        return _read_v1(doc)
    raise RegionFormatError(f"version: expected {FORMAT_VERSION!r} or {_V1!r}, got {version!r}")


def _read_v2(doc: dict) -> RejectionRegion2D:
    _require(doc, ("alpha", "kind", "x_edges", "y_edges", "values", "runs"))
    alpha = _dec_float(doc["alpha"], "alpha")
    kind = _dec_kind(doc["kind"])
    x_edges = _dec_floats(doc["x_edges"], "x_edges")
    y_edges = _dec_floats(doc["y_edges"], "y_edges")
    values = _dec_floats(doc["values"], "values")
    for k, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise RegionValidationError(f"values[{k}]: grid value must lie in [0, 1], got {v!r}")
    shape = (max(len(x_edges) - 1, 0), max(len(y_edges) - 1, 0))
    index = _dec_runs(doc["runs"], len(values), shape[0] * shape[1])
    probs = np.array(values)[index].reshape(shape)
    try:
        return RejectionRegion2D.from_grid(alpha, kind, x_edges, y_edges, probs)
    except ValueError as exc:
        raise RegionValidationError(str(exc)) from exc


def _dec_runs(runs, n_values: int, n_cells: int) -> np.ndarray:
    """Expand ``[value index, run length]`` pairs to one value index per grid cell."""
    if not isinstance(runs, list):
        raise RegionFormatError("runs: expected a list of [value index, run length] pairs")
    for k, run in enumerate(runs):
        if not (type(run) is list and len(run) == 2
                and type(run[0]) is int and type(run[1]) is int):
            raise RegionFormatError(f"runs[{k}]: expected a [value index, run length] integer pair")
    try:
        flat = itertools.chain.from_iterable(runs)
        index, lengths = np.fromiter(flat, dtype=np.int64, count=2 * len(runs)).reshape(-1, 2).T
    except OverflowError:
        raise RegionValidationError("runs: integer out of range") from None
    bad = np.flatnonzero((index < 0) | (index >= n_values))
    if bad.size:
        k = int(bad[0])
        raise RegionValidationError(
            f"runs[{k}]: value index {int(index[k])} out of range for {n_values} values")
    bad = np.flatnonzero(lengths <= 0)
    if bad.size:
        k = int(bad[0])
        raise RegionValidationError(f"runs[{k}]: run length must be positive, got {int(lengths[k])}")
    total = sum(lengths.tolist())
    if total != n_cells:
        raise RegionValidationError(
            f"runs: run lengths sum to {total}, expected {n_cells} grid cells (nx*ny)")
    return np.repeat(index, lengths)


def _read_v1(doc: dict) -> RejectionRegion2D:
    _require(doc, ("alpha", "kind", "cells", "outside_rule"))
    alpha = _dec_float(doc["alpha"], "alpha")
    kind = _dec_kind(doc["kind"])
    if not isinstance(doc["cells"], list):
        raise RegionFormatError("cells: expected a list")

    cells = []
    for i, c in enumerate(doc["cells"]):
        where = f"cells[{i}]"
        if not isinstance(c, dict):
            raise RegionFormatError(f"{where}: expected an object")
        for key in ("x", "y", "p"):
            if key not in c:
                raise RegionFormatError(f"{where}.{key}: missing required field")
        xlo, xhi = _dec_pair(c["x"], f"{where}.x")
        ylo, yhi = _dec_pair(c["y"], f"{where}.y")
        pval = _dec_float(c["p"], f"{where}.p")
        try:
            cells.append(WeightedRect(Interval(xlo, xhi), Interval(ylo, yhi), pval))
        except ValueError as exc:
            raise RegionValidationError(f"{where}: {exc}") from exc

    rule_doc = doc["outside_rule"]
    if not isinstance(rule_doc, dict) or "type" not in rule_doc:
        raise RegionFormatError("outside_rule: expected an object with a 'type'")
    if rule_doc["type"] == "none":
        rule = None
    elif rule_doc["type"] == "joint_significance":
        if "threshold" not in rule_doc:
            raise RegionFormatError("outside_rule.threshold: missing required field")
        threshold = _dec_float(rule_doc["threshold"], "outside_rule.threshold")
        box_doc = rule_doc.get("box")
        if box_doc is None:
            box = None
        else:
            if not isinstance(box_doc, list) or len(box_doc) != 4:
                raise RegionFormatError("outside_rule.box: expected [xlo, xhi, ylo, yhi] or null")
            box = tuple(_dec_float(v, f"outside_rule.box[{k}]") for k, v in enumerate(box_doc))
        try:
            rule = OutsideRule(threshold, box)
        except ValueError as exc:
            raise RegionValidationError(f"outside_rule: {exc}") from exc
    else:
        raise RegionFormatError(
            f"outside_rule.type: expected 'none' or 'joint_significance', got {rule_doc['type']!r}")

    try:
        return RejectionRegion2D(alpha, kind, cells, rule)
    except RegionValidationError:
        raise
    except ValueError as exc:
        raise RegionValidationError(str(exc)) from exc
