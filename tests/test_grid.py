import copy
import dataclasses
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symns.grid import (Grid, make_grid, radial_to_ambient_norm,
                        weighted_integral, weighted_lp_norm)


def test_make_grid_example_spherical():
    g = make_grid(1, 2, 8, 2)
    assert g.dx == 0.125
    assert math.fsum(g.weights.tolist()) == pytest.approx(7 / 3, abs=4e-16)
    assert np.all(np.diff(g.centers) > 0)
    assert np.allclose(np.diff(g.centers), g.dx)


def test_make_grid_example_cylindrical():
    g = make_grid(1, 2, 8, 1)
    assert math.fsum(g.weights.tolist()) == pytest.approx(1.5, abs=4e-16)


@pytest.mark.parametrize("args", [(0, 1, 8, 2), (-1, 1, 8, 2), (2, 1, 8, 2),
                                  (1, 2, 7, 2), (1, 2, 8, 0),
                                  (1, math.inf, 8, 2),
                                  (math.inf, math.inf, 8, 2)])
def test_make_grid_rejects_bad_domains(args):
    with pytest.raises(ValueError):
        make_grid(*args)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [8, 64, 257, 1000])
def test_weight_exactness(n, m):
    g = make_grid(1.0, 2.5, n, m)
    total = g.total_weight
    assert abs(weighted_integral(g, np.ones(n)) - total) <= 4 * np.spacing(total)


def test_grid_is_immutable():
    g = make_grid(1, 2, 8, 2)
    with pytest.raises(ValueError):
        g.centers[0] = 0.0


def test_grid_is_the_grid_section_and_checks_itself():
    assert Grid() == make_grid(1.0, 2.0, 128, 2)
    assert [f.name for f in dataclasses.fields(Grid) if f.init] == [
        "a", "b", "n", "m"]
    g = Grid(1, 2.5, 16.0, 1)
    assert (g.a, g.b, g.n, g.m) == (1.0, 2.5, 16, 1)
    assert type(g.a) is float and type(g.n) is int
    with pytest.raises(ValueError, match="need at least 8 cells, got n=7"):
        Grid(n=7)


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_grid_copies_are_equal_and_read_only(clone):
    g = make_grid(1, 2, 16, 2)
    h = clone(g)
    assert h == g and h is not g
    for name in ("centers", "faces", "weights"):
        arr = getattr(h, name)
        assert np.array_equal(arr, getattr(g, name))
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert h.dx == g.dx


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_weighted_integral_overflow_is_infinite(sign):
    # 16 finite terms of about 1.4e307 each: their sum passes the float
    # range, so the pairwise sum is inf
    g = make_grid(1, 2, 16, 2)
    assert weighted_integral(g, np.full(16, sign * 1e308)) == sign * math.inf


def test_weighted_integral_zero_and_length_check():
    g = make_grid(1, 2, 16, 2)
    assert weighted_integral(g, np.zeros(16)) == 0.0
    with pytest.raises(ValueError):
        weighted_integral(g, np.zeros(15))


def _simpson(f, a, b, n):
    # composite Simpson with n (even) intervals
    x = np.linspace(a, b, n + 1)
    y = f(x)
    return (b - a) / n / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum()
                              + 2 * y[2:-1:2].sum())


def test_weighted_integral_matches_simpson_oracle():
    # smooth density profile: error vs a 16x-resolution Simpson quadrature
    # shrinks like dx^2 under refinement
    rho = lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2
    errs = []
    for n in (32, 64):
        g = make_grid(1, 2, n, 2)
        exact = _simpson(lambda x: x ** 2 * rho(x), 1.0, 2.0, 16 * n)
        errs.append(abs(weighted_integral(g, rho(g.centers)) - exact))
    assert errs[0] / errs[1] > 3.0


def test_lp_norm_examples():
    g = make_grid(1, 2, 8, 2)
    assert weighted_lp_norm(g, np.full(8, -3.5), math.inf) == 3.5
    assert weighted_lp_norm(g, np.ones(8), 2) == pytest.approx(
        math.sqrt(7 / 3), rel=1e-15)
    for p in (0.5, -1.0, math.nan):   # NaN is no exponent >= 1 either
        with pytest.raises(ValueError, match="norm exponent"):
            weighted_lp_norm(g, np.ones(8), p)
        with pytest.raises(ValueError, match="norm exponent"):
            radial_to_ambient_norm(g, np.ones(8), p)
    # an infinite or NaN field is its own norm
    f = np.ones(8)
    f[3] = -math.inf
    assert weighted_lp_norm(g, f, 2) == math.inf
    f[3] = math.nan
    assert math.isnan(weighted_lp_norm(g, f, 2))


def test_lp_norm_matches_extended_precision_oracle(rng):
    import mpmath as mp
    mp.mp.dps = 50
    g = make_grid(1, 2, 32, 2)
    f = rng.standard_normal(32)
    p = 12 / 5
    w = [(mp.mpf(float(g.faces[i + 1])) ** 3 - mp.mpf(float(g.faces[i])) ** 3) / 3
         for i in range(32)]
    ref = mp.fsum(wi * abs(mp.mpf(float(v))) ** mp.mpf(p)
                  for wi, v in zip(w, f)) ** (1 / mp.mpf(p))
    assert weighted_lp_norm(g, f, p) == pytest.approx(float(ref), rel=1e-13)


@given(st.integers(1, 3), st.lists(st.floats(-1e6, 1e6), min_size=8,
                                   max_size=8))
def test_lp_norm_monotone_under_pointwise_increase(m, vals):
    g = make_grid(1, 2, 8, m)
    f = np.asarray(vals)
    bigger = 1.5 * np.abs(f) + 0.1
    for p in (1.0, 2.0, 12 / 5, math.inf):
        assert weighted_lp_norm(g, f, p) <= \
            weighted_lp_norm(g, bigger, p) * (1 + 1e-12)


# squares of magnitudes below ~1e-154 underflow and void the L2 side, so
# keep test values in the comfortably representable range
_holder_elems = st.one_of(st.just(0.0), st.floats(1e-6, 100),
                          st.floats(-100, -1e-6))


@given(st.lists(_holder_elems, min_size=16, max_size=16))
def test_holder_sanity(vals):
    g = make_grid(1, 2, 16, 2)
    f = np.asarray(vals)
    lhs = weighted_lp_norm(g, f, 1)
    rhs = weighted_lp_norm(g, f, 2) * weighted_lp_norm(g, np.ones(16), 2)
    assert lhs <= rhs * (1 + 1e-12)


def test_ambient_norm_constant_closed_form():
    g = make_grid(1, 2, 40, 2)
    got = radial_to_ambient_norm(g, np.ones(40), 12 / 5)
    assert got == pytest.approx((4 * math.pi * 7 / 3) ** (5 / 12), rel=1e-14)


def test_ambient_norm_inf_equals_radial_max(rng):
    g = make_grid(1, 2, 16, 2)
    f = rng.standard_normal(16)
    assert radial_to_ambient_norm(g, f, math.inf) == \
        weighted_lp_norm(g, f, math.inf)


def test_ambient_norm_l2_scaling_identity(rng):
    g = make_grid(1, 2, 16, 2)
    f = rng.standard_normal(16)
    assert radial_to_ambient_norm(g, f, 2) == pytest.approx(
        math.sqrt(4 * math.pi) * weighted_lp_norm(g, f, 2), rel=1e-14)


def test_ambient_norm_unsupported_m():
    g = make_grid(1, 2, 16, 3)
    with pytest.raises(ValueError):
        radial_to_ambient_norm(g, np.ones(16), 2)


# the plain sum of w |f|^p overflows at 1e100 (p = 3.5) and at 1e130
# (p = 12/5, the blow-up indicator's ambient norm), and underflows at 1e-100
@pytest.mark.parametrize("c,p,ambient", [(1e100, 3.5, False),
                                         (1e-100, 3.5, False),
                                         (1e130, 12 / 5, True)],
                         ids=["1e100_p3.5", "1e-100_p3.5",
                              "1e130_ambient_12_5"])
def test_lp_norm_of_huge_and_tiny_constants(c, p, ambient):
    g = make_grid(1, 2, 32, 2)
    norm = radial_to_ambient_norm if ambient else weighted_lp_norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow RuntimeWarning
        got = norm(g, np.full(32, c), p)
    measure = 4 * math.pi * 7 / 3 if ambient else 7 / 3
    assert got == pytest.approx(c * measure ** (1 / p), rel=1e-14, abs=0.0)


def _awkward_values(rng, n, top=80):
    """Random values with exact zeros, -0.0, subnormals and magnitudes
    from 1e-300 to 10^top, in both signs."""
    f = rng.standard_normal(n) * 10.0 ** rng.integers(-300, top, n)
    f[::7] = 0.0
    f[3::7] = -0.0
    f[5::11] = 5e-324 * rng.integers(-9, 10, len(f[5::11]))
    return f


@pytest.mark.parametrize("n", [8, 64, 1000])
def test_pairwise_reductions_match_np_sum_and_fsum(n, rng):
    def same(a, b):
        return np.float64(a).tobytes() == np.float64(b).tobytes()

    def near_fsum(got, terms):
        # the pairwise sum's rounding bound against the exact sum
        bound = math.ceil(math.log2(n)) * sys.float_info.epsilon
        exact = math.fsum(terms.tolist())
        assert abs(got - exact) <= bound * math.fsum(np.abs(terms).tolist())

    g = make_grid(1.0, 2.0, n, 2)
    for _ in range(20):
        f = _awkward_values(rng, n)
        got = weighted_integral(g, f)
        assert same(got, float(np.sum(g.weights * f)))
        near_fsum(got, g.weights * f)
        # magnitudes up to 1e80 and up to 1e308: the norm keeps the plain
        # formula's bits where its sum is finite and normal; elsewhere it
        # is scaled and agrees with an exactly scaled oracle
        for vals in (f, _awkward_values(rng, n, top=308)):
            for p in (1.0, 2.0, 3.5):
                got = weighted_lp_norm(g, vals, p)
                plain = _plain_lp_norm(g, vals, p)
                if plain is None:
                    assert got == pytest.approx(
                        _lp_norm_oracle(g, vals, p), rel=1e-13, abs=0.0)
                else:
                    assert same(got, plain)


def _plain_lp_norm(g, f, p):
    """np.sum(w |f|^p)^(1/p), or None where that sum is not finite and
    normal."""
    with np.errstate(over="ignore"):
        s = float(np.sum(g.weights * np.abs(f) ** p))
    return s ** (1 / p) if sys.float_info.min <= s < math.inf else None


def _lp_norm_oracle(g, f, p):
    """The plain formula applied to |f| * 2^-e, with 2^e next to max |f|,
    and scaled back: a power-of-two scaling is exact."""
    a = np.abs(f)
    e = math.frexp(float(a.max()))[1]
    s = math.fsum((g.weights * np.ldexp(a, -e) ** p).tolist())
    return math.ldexp(s ** (1 / p), e)


@pytest.mark.parametrize("n", [8, 45, 64, 1000, 2048])
def test_stacked_fields_give_each_fields_value_bitwise(n, rng):
    # a (k, n) stack is summed in one call, each row pairwise on its own,
    # with its own overflow and rescale fallbacks; past 128 elements the
    # pairwise sum splits a row into blocks
    g = make_grid(1.0, 2.0, n, 1)
    stack = np.abs(np.stack([_awkward_values(rng, n, top) for top in
                             (0, 80, 200)] + [np.full(n, 1e308)]))
    for reduce in (weighted_integral,
                   lambda g, f: weighted_lp_norm(g, f, 12 / 5),
                   lambda g, f: weighted_lp_norm(g, f, math.inf),
                   lambda g, f: radial_to_ambient_norm(g, f, 12 / 5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no overflow RuntimeWarning
            got = reduce(g, stack)
            want = [reduce(g, row) for row in stack]
        assert np.array(got).tobytes() == np.array(want).tobytes()
    with pytest.raises(ValueError, match=r"expected \(8,\)"):
        weighted_integral(make_grid(1.0, 2.0, 8, 1), np.ones((2, 9)))
