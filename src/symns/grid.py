"""Uniform radial mesh on an annulus [a, b] with geometric weight x^m.

The symmetry exponent m selects the geometry: m=1 is cylindrical, m=N-1
spherical in N >= 2 dimensions.  Cell weights are the exact integrals
``w_i = int_{cell i} x^m dx`` in closed form, so integrals of cellwise
constant fields are exact and the weights telescope to
``(b^{m+1} - a^{m+1}) / (m+1)``.  Every weighted sum is numpy's pairwise
sum over the last axis, one call for a field or a (k, n) stack of fields:
its error is about log2(n) eps times the sum of the terms' magnitudes, and
it is +-inf only where finite terms sum past the float range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "weighted_integral",
    "weighted_lp_norm",
    "radial_to_ambient_norm",
]

# Surface measure of the unit sphere/circle for the supported symmetry
# exponents: for spherically symmetric fields on R^3 (m=2) the full-space
# L^p norm is (4*pi * int x^2 |f|^p dx)^(1/p); cylindrical fields (m=1)
# use 2*pi per unit axial length.
_SURFACE = {1: 2.0 * math.pi, 2: 4.0 * math.pi}


def _integer(name: str, value, least: int = 0) -> int:
    """value as an int; ValueError unless it is a whole number >= least."""
    if not (float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, "
                         f"got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Immutable uniform mesh of n cells on [a, b] with symmetry exponent m;
    also the ``[grid]`` section of a config.  Requires 0 < a < b < inf (the
    singular m/x terms are then bounded) and whole numbers n >= 8, m >= 1."""

    a: float = 1.0
    b: float = 2.0
    n: int = 128
    m: int = 2
    dx: float = field(init=False, compare=False)
    centers: np.ndarray = field(init=False, compare=False)  # length n
    faces: np.ndarray = field(init=False, compare=False)    # n+1, a to b
    weights: np.ndarray = field(init=False, compare=False)  # int_cell x^m dx
    # arrays derived from the grid alone, see :meth:`cached`
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        n, m = _integer("n", self.n), _integer("m", self.m, 1)
        if not a > 0.0:
            raise ValueError(f"inner radius must be positive, got a={a}")
        if not b > a:
            raise ValueError(f"need b > a, got a={a}, b={b}")
        if not math.isfinite(b):
            raise ValueError(f"outer radius must be finite, got b={b}")
        if n < 8:
            raise ValueError(f"need at least 8 cells, got n={n}")
        dx = (b - a) / n
        centers = a + (np.arange(n) + 0.5) * dx
        faces = a + np.arange(n + 1) * dx
        weights = np.diff(faces ** (m + 1)) / (m + 1)
        for arr in (centers, faces, weights):
            arr.flags.writeable = False
        # frozen: set through object.__setattr__, since a write to __dict__
        # would slow every later attribute read of the grid
        for name, val in dict(a=a, b=b, n=n, m=m, dx=dx, centers=centers,
                              faces=faces, weights=weights).items():
            object.__setattr__(self, name, val)

    def __reduce__(self):   # copies rebuild read-only arrays from a, b, n, m
        return Grid, (self.a, self.b, self.n, self.m)

    def cached(self, key: str, build):
        """``build(self)``, an array or a tuple of arrays that depends on the
        grid alone, computed on the first call for ``key``.  Later calls
        return the same objects; they are read-only because every caller
        shares them."""
        out = self._cache.get(key)
        if out is None:
            out = build(self)
            for arr in (out,) if isinstance(out, np.ndarray) else out:
                arr.flags.writeable = False
            self._cache[key] = out
        return out

    @property
    def face_powers(self) -> np.ndarray:
        """x_f^m at every face (length n+1), built once per grid."""
        return self.cached("face_powers", lambda g: g.faces ** g.m)

    @property
    def total_weight(self) -> float:
        """(b^{m+1} - a^{m+1}) / (m+1), the exact value of int_a^b x^m dx."""
        return (self.b ** (self.m + 1) - self.a ** (self.m + 1)) / (self.m + 1)

    def require_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise ValueError(f"field has shape {f.shape}, expected ({self.n},)")
        return f


def make_grid(a: float, b: float, n: int, m: int) -> Grid:
    """Uniform mesh of n cells on [a, b] with symmetry exponent m."""
    return Grid(a, b, n, m)


def _field_or_stack(g: Grid, f) -> np.ndarray:
    """f as a float array: one field of shape (n,), or a (k, n) stack of k
    fields; any other shape raises require_field's error."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 2 and f.shape[1] == g.n:
        return f
    return g.require_field(f)


def _sum(terms):
    """Pairwise sum over the last axis: a float for one field, the list of
    the row sums of a (k, n) stack; +-inf where finite terms sum past the
    float range."""
    with np.errstate(over="ignore"):
        return np.sum(terms, axis=-1).tolist()


def weighted_integral(g: Grid, f):
    """int_a^b x^m f dx with the exact cell weights.

    Uses numpy's pairwise summation: its rounding, about log2(n) eps of
    the terms' magnitudes, stays far below the drift that conservation
    diagnostics look for.  Exact for cellwise constant f.  Where finite
    terms sum past the float range, returns +-inf.  A (k, n) stack of
    fields gives the list of its k integrals from one call, each bitwise
    the integral of its row alone.
    """
    return _sum(g.weights * _field_or_stack(g, f))


def weighted_lp_norm(g: Grid, f, p: float):
    """(int x^m |f|^p dx)^(1/p); p=inf gives the discrete max of |f|.  |f| is
    scaled by its maximum only where the plain sum of w |f|^p is not finite
    and normal, so a representable norm neither overflows nor underflows.
    A (k, n) stack of fields gives the list of its k norms."""
    a = np.abs(_field_or_stack(g, f))
    if math.isinf(p):
        return a.max(axis=-1).tolist()
    p = float(p)
    if not p >= 1.0:   # NaN fails too
        raise ValueError(f"norm exponent must be >= 1, got p={p}")
    with np.errstate(over="ignore"):
        sums = _sum(g.weights * a ** p)   # nonnegative: +inf on overflow

    def root(s, a):
        if sys.float_info.min <= s < math.inf:
            return s ** (1.0 / p)
        scale = float(a.max())
        if not 0.0 < scale < math.inf:   # a zero, infinite or NaN field
            return s ** (1.0 / p)
        return scale * _sum(g.weights * (a / scale) ** p) ** (1.0 / p)

    if a.ndim == 1:
        return root(sums, a)
    return [root(s, row) for s, row in zip(sums, a)]


def radial_to_ambient_norm(g: Grid, f, p: float):
    """Lift a radial L^p norm to the ambient-space norm of the symmetric field.

    For finite p multiplies by the surface factor sigma_m^(1/p); at p=inf
    the factor vanishes and this equals :func:`weighted_lp_norm`.  Only
    m in {1, 2} is supported (ambient R^2 x axis resp. R^3).  A (k, n)
    stack of fields gives the list of its k norms.
    """
    if math.isinf(p):
        return weighted_lp_norm(g, f, p)
    sigma = _SURFACE.get(g.m)
    if sigma is None:
        raise ValueError(
            f"ambient-norm lifting supports m in (1, 2), got m={g.m}")
    lift = sigma ** (1.0 / float(p))
    norm = weighted_lp_norm(g, f, p)
    return [lift * v for v in norm] if isinstance(norm, list) else lift * norm
