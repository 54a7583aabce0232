"""Finite metric spaces as validated distance matrices.

The distance matrix is the universal currency of the lab: every generator,
solver and probe consumes or produces a FiniteMetricSpace.  All axiom checks
use one absolute tolerance (TOL) so that shortest-path generators, which are
exact up to floating summation, validate cleanly.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MalformedMatrixError

# Absolute tolerance for every metric-axiom check in the repository.
TOL = 1e-9

_NUMPY_SLABS_MAX = 512  # points up to which validate_metric needs no scipy
_CERTIFY_ENTRIES = 2 ** 15  # matrix entries per block of rows of _is_grid_metric
# Largest degree of G in _is_grid_metric: the d model has 4, carpets and t 5,
# pillows and l 6.  Unbounded, an equilateral 1024-point space (degree 1023)
# took 5.6 s in the certificate against 0.5 s in the full check (2-core x86).
_CERTIFY_DEGREE_MAX = 6


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labelled point set with a full symmetric matrix of pairwise distances.

    The space holds a read-only float64 matrix: an owned, read-only float64
    array is kept without a copy, any other array or view is copied, so a
    caller who writes into its array later leaves the space unchanged.
    Construction only enforces well-formedness (square, finite).  Whether the
    matrix actually satisfies the metric axioms is the job of
    :func:`validate_metric`, which reports violations instead of raising.
    """

    dist: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MalformedMatrixError(f"distance matrix must be square, got shape {d.shape}")
        if d.size and not bool(np.all(np.isfinite(d))):
            raise MalformedMatrixError("distance matrix contains NaN or infinite entries")
        if d.base is not None or d.flags.writeable:  # an owned, frozen array is kept as is
            d = d.copy()
            d.flags.writeable = False
        object.__setattr__(self, "dist", d)
        labels = tuple(self.labels) if len(self.labels) else tuple(range(d.shape[0]))
        if len(labels) != d.shape[0]:
            raise MalformedMatrixError(
                f"{len(labels)} labels for {d.shape[0]} points"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    def submatrix(self, indices) -> "FiniteMetricSpace":
        """Metric subspace on the given point indices (order preserved)."""
        idx = np.asarray(indices, dtype=int)
        return FiniteMetricSpace(self.dist[np.ix_(idx, idx)],
                                 tuple(self.labels[i] for i in idx))


@dataclass(frozen=True, eq=False)
class PointedWindow:
    """A FiniteMetricSpace with a base point and the (scale, radius) it came from.

    ``space.dist`` is already expressed in rescaled units: every point lies
    within ``radius`` of ``base``.
    """

    space: FiniteMetricSpace
    base: int
    scale: float
    radius: float

    def __post_init__(self):
        if not (0 <= self.base < self.space.n):
            raise DomainError(f"base index {self.base} out of range for {self.space.n} points")
        if self.scale <= 0:
            raise DomainError(f"scale must be positive, got {self.scale}")
        if self.radius <= 0:
            raise DomainError(f"radius must be positive, got {self.radius}")
        worst = float(self.space.dist[self.base].max()) if self.space.n else 0.0
        if worst > self.radius + TOL:
            raise DomainError(
                f"window point at distance {worst} exceeds radius {self.radius}"
            )


@dataclass(frozen=True)
class AxiomViolation:
    """One violated metric axiom with its worst witness."""

    axiom: str            # "identity" | "symmetry" | "positivity" | "triangle"
    witness: tuple        # indices involved (1, 2, or 3 of them)
    magnitude: float      # size of the violation


def validate_metric(m: FiniteMetricSpace) -> list[AxiomViolation]:
    """Check the metric axioms, returning one entry per violated axiom.

    Empty list iff identity, symmetry, positivity and the triangle inequality
    all hold within TOL.  Each entry carries the worst witness.

    A grid metric (a carpet; the t, l and d models) is certified in O(n^2)
    by _is_grid_metric.  With h the least off-diagonal entry, H = rint(D/h)
    and G the graph of the pairs with H = 1, of degree <= _CERTIFY_DEGREE_MAX,
    it checks |H h - D| <= TOL/4, exact symmetry, a zero diagonal in H,
    h > 2 TOL, 16 eps max D <= TOL, |H[i,u] - H[i,v]| <= 1 on every edge
    (u, v) of G, and a G-neighbour k of j with H[i,k] = H[i,j] - 1 for every
    off-diagonal H[i,j].  Then H is the hop metric of G: along a G-path
    H[i,.] grows by at most 1 per edge from H[i,i] = 0, and as D >= h makes
    H >= 1 off the diagonal, the descending neighbours lead from j to i in
    H[i,j] edges.  Each entry is within TOL/4 + (eps/2) max D of H h (the
    check's own rounding, up to O(eps TOL)) and a slab's float sum and
    difference add at most eps max D, so every triangle excess is below
    3 TOL/4 + 3 eps max D < TOL.  With the diagonal within TOL/4 of 0 and
    every other entry at least h > 2 TOL, the full check returns [] too.

    Any other space takes the full check.  The triangle check walks the n
    k-slabs in ascending k: up to _NUMPY_SLABS_MAX points every slab in
    numpy; above, one Chebyshev cdist bounds every slab's excess from above
    and only the slabs it cannot rule out are evaluated.  Either way the
    witness and magnitude are those of a scan of all n slabs.

    The limit sits between the two crossovers measured on a 2-core x86
    machine (best of 5 on valid planar spaces, numpy slabs vs cdist filter):
    n = 120: 3.4 vs 1.1 ms; 257: 32 vs 10; 400: 144 vs 50; 512: 358 vs 119;
    600: 597 vs 152; 1146: 7108 vs 1192; 1024-1025 (best of 3: the snowflake
    pair's domain and codomain, snowflake stage 5): 2.5-2.7 vs 0.53-0.58 s.
    Importing scipy.spatial.distance adds 440-500 ms to the filter in a
    process that has loaded only numpy, as every lab process has (no lab
    module loads scipy.sparse), so the slabs are cheaper up to about 600
    points.
    """
    d = m.dist
    n = m.n
    out: list[AxiomViolation] = []
    if n == 0 or _is_grid_metric(d):
        return out

    diag = np.abs(np.diag(d))
    if diag.max(initial=0.0) > TOL:
        i = int(np.argmax(diag))
        out.append(AxiomViolation("identity", (i,), float(diag[i])))

    asym = np.abs(d - d.T)
    if asym.max(initial=0.0) > TOL:
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        out.append(AxiomViolation("symmetry", (int(i), int(j)), float(asym[i, j])))

    off = d + np.diag(np.full(n, np.inf))
    if n > 1 and off.min() <= TOL:
        i, j = np.unravel_index(int(np.argmin(off)), off.shape)
        out.append(AxiomViolation("positivity", (int(i), int(j)), float(d[i, j])))

    # Triangle: d[i,j] <= d[i,k] + d[k,j] + TOL.  Since
    # d[i,j] - d[i,k] - d[k,j] <= |d[i,j] - d[k,j]| - d[i,k], the excess of the
    # k-slab is at most bound[k] = max_i (C[i,k] - d[i,k]), where C[i,k] is the
    # Chebyshev distance between rows i and k; slack covers the rounding of
    # both sides.  A slab is evaluated exactly, in ascending k, only when its
    # bound could beat TOL or the worst excess so far, so the first slab
    # attaining the maximum excess is found as by a full scan.  Small spaces
    # take bound = +inf: every slab is evaluated and scipy is not loaded.
    if n > _NUMPY_SLABS_MAX:
        from scipy.spatial.distance import cdist  # scipy loads on first use, not at import

        bound = cdist(d, d, "chebyshev")
        bound -= d
        bound = bound.max(axis=0)
        slack = 8 * np.finfo(float).eps * max(float(d.max()), -float(d.min()))
        limits = (bound + slack).tolist()
    else:
        limits = [math.inf] * n
    worst_excess = 0.0
    worst_triple = None
    excess = np.empty_like(d)
    for k, limit in enumerate(limits):
        if limit <= max(TOL, worst_excess):
            continue
        np.add(d[:, k][:, None], d[k, :][None, :], out=excess)
        np.subtract(d, excess, out=excess)
        e = float(excess.max())
        if e > worst_excess:
            worst_excess = e
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            worst_triple = (int(i), k, int(j))
    if worst_excess > TOL and worst_triple is not None:
        out.append(AxiomViolation("triangle", worst_triple, worst_excess))
    return out


def _is_grid_metric(d: np.ndarray) -> bool:
    """validate_metric's certificate that d is h times a hop metric (proof there)."""
    n = len(d)
    size = max(_CERTIFY_ENTRIES // n, 1)
    blocks = [(d[lo:lo + size], np.arange(lo, min(lo + size, n))) for lo in range(0, n, size)]
    h = min(np.delete(rows, (ids - ids[0]) * n + ids).min(initial=math.inf) for rows, ids in blocks)
    top = max(rows.max() for rows, _ in blocks)
    if not (2 * TOL < h < math.inf and 16 * np.finfo(float).eps * top <= TOL):
        return False
    nbr = np.tile(np.arange(n)[:, None], _CERTIFY_DEGREE_MAX)  # self-padded: zero steps
    width = 0
    for rows, ids in blocks:
        H = np.rint(rows / h)
        if not (np.abs(H * h - rows).max() <= TOL / 4 and not H[ids - ids[0], ids].any()
                and np.array_equal(rows, d[:, ids].T)):
            return False
        i, j = np.nonzero(H == 1)
        degree = np.bincount(i, minlength=len(rows))
        width = max(width, int(degree.max()))
        if width > _CERTIFY_DEGREE_MAX:
            return False
        nbr[ids[i], np.arange(len(i)) - np.repeat(np.cumsum(degree) - degree, degree)] = j
    for rows, _ in blocks:
        H = np.rint(rows / h)
        down = H == 0  # the diagonal: every other entry is at least h
        for k in nbr[:, :width].T:  # one neighbour slot: H[i,j] - H[i,k] for every node j
            step = H - H[:, k]
            if np.abs(step).max() > 1:
                return False
            down |= step == 1
        if not down.all():
            return False
    return True


def rescale(m: FiniteMetricSpace, lam: float) -> FiniteMetricSpace:
    """Divide every distance by lam > 0 (blow-up for small lam); labels kept."""
    if lam <= 0:
        raise DomainError(f"rescale factor must be positive, got {lam}")
    return FiniteMetricSpace(m.dist / lam, m.labels)


def epsilon_net(m: FiniteMetricSpace, eps: float, start: int = 0) -> list[int]:
    """Greedy (farthest-point insertion) eps-net; deterministic, lowest-index ties.

    eps must be nonnegative (a negative or nan eps would grow the net
    forever) and start an index of the space.
    """
    if not eps >= 0:
        raise DomainError(f"net radius must be nonnegative, got {eps}")
    if not m.n:
        return []
    if not (0 <= start < m.n):
        raise DomainError(f"start index {start} out of range for {m.n} points")
    chosen = [start]
    d_near = m.dist[start].copy()
    while True:
        far = int(np.argmax(d_near))
        if d_near[far] <= eps:
            return chosen
        chosen.append(far)
        d_near = np.minimum(d_near, m.dist[far])


def decreasing_scales(values) -> tuple:
    """The one check of a scale list (ScanConfig.scales): a nonempty,
    positive, finite, strictly decreasing tuple, or DomainError."""
    values = tuple(float(v) for v in values)
    if not values or not all(0 < v < np.inf for v in values):  # also refuses nan
        raise DomainError("scales must be nonempty, positive and finite")
    if any(a <= b for a, b in zip(values, values[1:])):
        raise DomainError("scales must be strictly decreasing")
    return values


# ---------------------------------------------------------------------------
# JSON interchange: {"labels": [...], "dist": [[...]]}, full symmetric matrix.
# ---------------------------------------------------------------------------

def space_from_json(obj: dict) -> FiniteMetricSpace:
    """FiniteMetricSpace checks the matrix is square and finite; this, symmetry."""
    if not isinstance(obj, dict) or "dist" not in obj:
        raise MalformedMatrixError("space JSON must contain a 'dist' matrix")
    d = np.asarray(obj["dist"], dtype=float)
    if d.shape == (0,):  # "dist": [] is the empty space
        d = d.reshape(0, 0)
    labels = obj.get("labels")
    m = FiniteMetricSpace(d, tuple(_label_from_json(l) for l in labels) if labels else ())
    if m.n and float(np.abs(m.dist - m.dist.T).max()) > TOL:
        raise MalformedMatrixError("'dist' is asymmetric beyond tolerance")
    return m


def _label_to_json(label):
    if isinstance(label, tuple):
        return list(_label_to_json(x) for x in label)
    if isinstance(label, (np.integer,)):
        return int(label)
    if isinstance(label, (np.floating,)):
        return float(label)
    return label


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(_label_from_json(x) for x in label)
    return label


def write_space(m: FiniteMetricSpace, path: str) -> None:
    """Atomic write of m as {"labels": [...], "dist": [[...]]}, streamed one
    matrix row and one label at a time.

    The bytes equal write_json_atomic of that object with the matrix as
    nested lists, without building the lists.  Each distinct value of a row
    is formatted once by float.__repr__, as json formats floats; values are
    told apart by their bits, so -0.0 stays distinct from 0.0.  Each label is
    formatted by json on its own and indented to its depth in the object.
    """
    def dump(fh):
        fh.write('{\n "dist": [')
        for i, row in enumerate(m.dist.view(np.uint64)):
            bits, inverse = np.unique(row, return_inverse=True)
            text = np.array([float.__repr__(x) for x in bits.view(float).tolist()],
                            dtype=object)
            fh.write(("," if i else "") + "\n  [\n   "
                     + ",\n   ".join(text[inverse].tolist()) + "\n  ]")
        fh.write(("\n ]" if m.n else "]") + ',\n "labels": [')
        for i, label in enumerate(m.labels):
            text = json.dumps(_label_to_json(label), indent=1, sort_keys=True)
            fh.write(("," if i else "") + "\n  " + text.replace("\n", "\n  "))
        fh.write(("\n ]" if m.labels else "]") + "\n}\n")
    _write_atomic(dump, path)


def write_json_atomic(obj, path: str) -> None:
    """Indented, key-sorted JSON streamed into path by _write_atomic."""
    def dump(fh):
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _write_atomic(dump, path)


def write_text_atomic(text: str, path: str) -> None:
    _write_atomic(lambda fh: fh.write(text), path)


def _write_atomic(write, path: str) -> None:
    """Run write(fh) on a temp file in the target directory and rename it over
    path; on any failure the temp file is removed and path is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
