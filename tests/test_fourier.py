"""Trig partial sums, L1/weak-L1 sizes, duality ratio."""

import cmath
import math

import numpy as np
import pytest

from lorentz_gm.fourier import (
    dirichlet_bound_report,
    duality_ratio,
    l1_norm_trig,
    partial_sum_dft,
    partial_sum_grid,
    weak_l1_report,
)
from lorentz_gm.model import PQ, ComplexSeq

E1 = ComplexSeq((1.0,))


def partial_sum(c: ComplexSeq, m: int, n_hi: int, x: float) -> complex:
    """sum_{k=m}^{n_hi} c_k e^{ikx} by direct summation: the scalar oracle of
    the fast kernels."""
    if not 1 <= m <= n_hi:
        raise ValueError("need 1 <= m <= N")
    re = math.fsum((c[k] * cmath.exp(1j * k * x)).real for k in range(m, n_hi + 1))
    im = math.fsum((c[k] * cmath.exp(1j * k * x)).imag for k in range(m, n_hi + 1))
    return complex(re, im)


def test_partial_sum_direct():
    c = ComplexSeq((1.0, 2.0, 3.0))
    x = 0.7
    expect = 2.0 * cmath.exp(2j * x) + 3.0 * cmath.exp(3j * x)
    assert partial_sum(c, 2, 3, x) == pytest.approx(expect)
    with pytest.raises(ValueError):
        partial_sum(c, 0, 3, x)
    with pytest.raises(ValueError):
        partial_sum(c, 3, 2, x)


def test_partial_sum_grid_matches_scalar():
    c = ComplexSeq((1.0, -0.5, 0.25j, 0.1))
    xs = np.array([0.1, 1.0, 2.5, math.pi])
    grid = partial_sum_grid(c, 1, 4, xs)
    for x, g in zip(xs, grid):
        assert g == pytest.approx(partial_sum(c, 1, 4, float(x)), rel=1e-12)
    shaped = partial_sum_grid(c, 1, 4, xs.reshape(2, 2))
    assert shaped.shape == (2, 2)


def test_fast_kernels_match_scalar_partial_sum():
    g = np.random.default_rng(7)
    for n in (1, 3, 48, 512, 4096):
        c = ComplexSeq(tuple(g.normal(size=n) + 1j * g.normal(size=n)))
        m = int(g.integers(1, n + 1))
        tol = 1e-12 * math.fsum(c.moduli()[m - 1 :])
        xs = g.uniform(-2.0 * math.pi, 2.0 * math.pi, 16)
        for x, s in zip(xs, partial_sum_grid(c, m, n, xs)):
            assert abs(s - partial_sum(c, m, n, float(x))) <= tol
        # count = 5 puts N > 2*count for N >= 11, so c_k folds mod 10
        for count in (5, 64):
            step = math.pi / count
            for midpoint in (False, True):
                samples = partial_sum_dft(c, m, n, count, midpoint)
                assert samples.shape == (count,)
                js = np.arange(1, count + 1)[:: max(1, count // 8)]
                for j in js:
                    x = (j - 0.5 if midpoint else j) * step
                    assert abs(samples[j - 1] - partial_sum(c, m, n, x)) <= tol
    with pytest.raises(ValueError):
        partial_sum_dft(E1, 1, 1, 0)
    with pytest.raises(ValueError):
        partial_sum_dft(E1, 2, 1, 4)


def test_l1_norm_closed_forms():
    assert l1_norm_trig(E1) == pytest.approx(math.pi, abs=1e-8)
    # |e^{ix} + e^{2ix}| = 2 cos(x/2) on (0, pi): integral 4
    assert l1_norm_trig(ComplexSeq((1.0, 1.0))) == pytest.approx(4.0, rel=1e-7)
    assert l1_norm_trig(ComplexSeq((0.0,))) == 0.0
    with pytest.raises(ValueError):
        l1_norm_trig(E1, tol=0.0)


def test_weak_l1_spike():
    r = weak_l1_report(E1, x_samples=1 << 10)
    assert r.passed
    assert r.lhs == pytest.approx(math.pi)
    assert r.rhs == 1.0
    assert r.constant == pytest.approx(6.0 * math.pi)


def test_weak_l1_zero_and_validation():
    assert weak_l1_report(ComplexSeq((0.0,))).passed
    with pytest.raises(ValueError):
        weak_l1_report(E1, x_samples=1)


def test_dirichlet_report_plain_spike():
    r = dirichlet_bound_report(E1, 1, 1, [math.pi / 2.0], "plain")
    assert r.name == "window-variation-bound"
    assert r.lhs == pytest.approx(1.0)
    assert r.constant == pytest.approx(4.0 * math.pi)
    assert r.passed


def test_dirichlet_report_gm2_window():
    c = ComplexSeq((1.0,) * 8)
    xs = np.linspace(1e-3, math.pi, 200)
    r = dirichlet_bound_report(c, 2, 8, xs, "gm2")
    assert r.name == "window-tail-bound"
    assert r.passed


def test_dirichlet_report_validation():
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [], "plain")
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [4.0], "plain")
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [-0.1], "plain")
    with pytest.raises(ValueError):
        dirichlet_bound_report(E1, 1, 1, [1.0], "hybrid")


def test_duality_ratio_power_sequence():
    c = ComplexSeq(tuple(1.0 / math.sqrt(k) for k in range(1, 65)))
    r = duality_ratio(c, PQ(2.0, 2.0), 64, grid=1 << 10)
    assert r.passed
    assert 0.5 < r.ratio < 0.65
    assert r.constant < 0.01  # recorded drift


def test_duality_ratio_validation():
    with pytest.raises(ValueError):
        duality_ratio(E1, PQ(1.0, 1.0), 1)
    with pytest.raises(ValueError):
        duality_ratio(E1, PQ(2.0, 2.0), 1, grid=1)
    z = duality_ratio(ComplexSeq((0.0, 0.0)), PQ(2.0, 2.0), 2)
    assert z.passed and z.lhs == 0.0 and math.isnan(z.ratio)
