"""Adaptive Gauss panels over one interval: exactness, seeds, the depth cap,
non-finite input, and the integrator against a reference loop; the blocked
fixed-rule pass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from lorentz_gm import quadrature
from lorentz_gm.quadrature import NonconvergenceError, adaptive_integral, gauss_sums


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
    def kink(x):
        return np.abs(x - 0.5)

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


# --- the one-piece loop, kept as the reference of the integrator ----------

_NODES, _WEIGHTS = leggauss(16)


def _panel_estimates(fvec, lows, highs):
    mid = 0.5 * (lows + highs)[:, None]
    half = 0.5 * (highs - lows)[:, None]
    xs = mid + half * _NODES
    vals = np.asarray(fvec(xs.ravel()), dtype=float).reshape(xs.shape)
    return (half[:, 0]) * (vals @ _WEIGHTS)


def _one_piece(fvec, a, b, rel_tol=1e-10, seeds=()):
    """Integral of ``fvec`` (a function of x alone) over [a, b], one piece."""
    if b <= a:
        return 0.0
    edges = sorted({a, b, *(s for s in seeds if a < s < b)})
    lows = np.asarray(edges[:-1], dtype=float)
    highs = np.asarray(edges[1:], dtype=float)
    coarse = _panel_estimates(fvec, lows, highs)
    depth = np.zeros(len(lows), dtype=int)
    total_len = b - a
    done = 0.0
    while len(lows):
        mids = 0.5 * (lows + highs)
        halves = _panel_estimates(fvec, np.concatenate([lows, mids]), np.concatenate([mids, highs]))
        n = len(lows)
        fine = halves[:n] + halves[n:]
        err = np.abs(coarse - fine)
        estimate = done + float(fine.sum())
        if not math.isfinite(estimate):
            raise ValueError(f"integrand is not finite on [{a:g}, {b:g}]")
        budget = rel_tol * max(abs(estimate), 1e-300)
        accepted = err <= budget * (highs - lows) / total_len
        done += float(fine[accepted].sum())
        keep = ~accepted
        if not keep.any():
            break
        if int(depth[keep].max()) >= quadrature._MAX_DEPTH:
            worst = int(np.argmax(err * keep))
            raise NonconvergenceError(
                f"panel [{lows[worst]:g}, {highs[worst]:g}] still off by "
                f"{err[worst]:.3e} at bisection depth {quadrature._MAX_DEPTH}"
            )
        lows = np.concatenate([lows[keep], mids[keep]])
        highs = np.concatenate([mids[keep], highs[keep]])
        coarse = np.concatenate([halves[:n][keep], halves[n:][keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
    return done


def _family(x, scale, kink, freq):
    """A kink of sqrt type at ``kink`` plus an oscillation: the panels bisect
    to different depths, or hit the depth cap.  It stays above 1, so no
    integral cancels below the reach of a relative tolerance."""
    return scale * np.sqrt(np.abs(x - kink)) + 2.0 + np.cos(freq * x)


def _outcome(call):
    try:
        return call().hex()
    except (ValueError, NonconvergenceError) as exc:
        return type(exc), str(exc)


_piece = st.tuples(
    st.floats(-4.0, 4.0),  # a
    st.floats(-4.0, 4.0),  # b, empty when b <= a
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3),  # kink scale
    st.floats(-5.0, 5.0),  # kink point, inside or outside the piece
    st.sampled_from([0.0, 40.0]) | st.floats(0.0, 60.0),  # frequency
)


@settings(max_examples=40, deadline=None)
@given(
    _piece,
    st.lists(st.floats(-5.0, 5.0), max_size=6),
    st.sampled_from([1e-6, 1e-10, 1e-13]),
)
def test_single_seeded_piece_matches_the_loop(piece, seeds, rel_tol):
    a, b, *params = piece

    def f(x):
        return _family(x, *params)

    expected = _outcome(lambda: _one_piece(f, a, b, rel_tol, tuple(seeds)))
    assert _outcome(lambda: adaptive_integral(f, a, b, rel_tol=rel_tol, seeds=seeds)) == expected


# --- the blocked fixed-rule pass --------------------------------------------


@pytest.mark.parametrize("n", [3, 16, 40])
def test_gauss_sums_cover_every_block_exactly(n):
    # x^(2n - 1) + 1 on piece k, mapped as k + x: the n-node rule is exact
    # for it, and the pieces run past several blocks
    count = 3 * (quadrature._BLOCK_ENTRIES // n) + 5
    calls = []

    def vals(part, x):
        k = np.arange(count, dtype=float)[part, None]
        calls.append(len(k) * len(x))
        return (k + x) ** (2 * n - 1) + 1.0

    got = gauss_sums(vals, count, n)
    k = np.arange(count, dtype=float)
    want = ((k + 1.0) ** (2 * n) - (k - 1.0) ** (2 * n)) / (2 * n) + 2.0
    assert got == pytest.approx(want, rel=1e-12)
    assert len(calls) == 4 and max(calls) <= quadrature._BLOCK_ENTRIES
