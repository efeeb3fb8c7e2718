"""Adaptive Gauss panels: exactness, seeds, the depth cap, non-finite input."""

import math

import numpy as np
import pytest

from lorentz_gm import quadrature
from lorentz_gm.quadrature import NonconvergenceError, adaptive_integral


def test_polynomial_single_panel():
    # degree 31 is exact for a 16-node rule
    val = adaptive_integral(lambda x: 5.0 * x**4, 0.0, 2.0)
    assert val == pytest.approx(32.0, rel=1e-14)


def test_oscillatory_integral():
    val = adaptive_integral(lambda x: np.abs(np.sin(40.0 * x)), 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)  # 40 arches of area 1/20 each


def test_empty_interval():
    assert adaptive_integral(lambda x: x, 1.0, 1.0) == 0.0
    assert adaptive_integral(lambda x: x, 2.0, 1.0) == 0.0


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_finite_and_positive(rel_tol):
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: x, 0.0, 1.0, rel_tol=rel_tol)


def test_seed_points_pre_split():
    kink = lambda x: np.abs(x - 0.5)
    seeded = adaptive_integral(kink, 0.0, 1.0, seeds=(0.5,))
    assert seeded == pytest.approx(0.25, rel=1e-13)
    # seeds outside the interval are ignored
    assert adaptive_integral(kink, 0.0, 1.0, seeds=(-3.0, 7.0)) == pytest.approx(0.25, rel=1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_integrand_raises(value):
    # a NaN panel never passes the acceptance test, so it must stop at once
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: np.where(x > 0.5, value, x), 0.0, 1.0)


def test_depth_cap_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    with pytest.raises(NonconvergenceError):
        adaptive_integral(lambda x: np.abs(np.sin(40.0 * x)), 0.0, math.pi, rel_tol=1e-13)
