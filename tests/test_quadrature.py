"""Adaptive Gauss panels: exactness, seeds, the depth cap, non-finite input,
and the batched pieces against a loop over the pieces one at a time."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from lorentz_gm import quadrature
from lorentz_gm.quadrature import NonconvergenceError, adaptive_integral


def _x(f):
    """An integrand of x alone, in the records that ``adaptive_integral`` passes."""
    return lambda nodes: f(nodes["x"])


def test_polynomial_single_panel():
    # degree 31 is exact for a 16-node rule
    val = adaptive_integral(_x(lambda x: 5.0 * x**4), 0.0, 2.0)
    assert val == pytest.approx(32.0, rel=1e-14)


def test_oscillatory_integral():
    val = adaptive_integral(_x(lambda x: np.abs(np.sin(40.0 * x))), 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-12)  # 40 arches of area 1/20 each


def test_empty_interval():
    assert adaptive_integral(_x(lambda x: x), 1.0, 1.0) == 0.0
    assert adaptive_integral(_x(lambda x: x), 2.0, 1.0) == 0.0


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_finite_and_positive(rel_tol):
    with pytest.raises(ValueError):
        adaptive_integral(_x(lambda x: x), 0.0, 1.0, rel_tol=rel_tol)


def test_seed_points_pre_split():
    kink = _x(lambda x: np.abs(x - 0.5))
    seeded = adaptive_integral(kink, 0.0, 1.0, seeds=(0.5,))
    assert seeded == pytest.approx(0.25, rel=1e-13)
    # seeds outside the interval are ignored
    assert adaptive_integral(kink, 0.0, 1.0, seeds=(-3.0, 7.0)) == pytest.approx(0.25, rel=1e-9)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_integrand_raises(value):
    # a NaN panel never passes the acceptance test, so it must stop at once
    with pytest.raises(ValueError):
        adaptive_integral(_x(lambda x: np.where(x > 0.5, value, x)), 0.0, 1.0)


def test_depth_cap_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    with pytest.raises(NonconvergenceError):
        adaptive_integral(_x(lambda x: np.abs(np.sin(40.0 * x))), 0.0, math.pi, rel_tol=1e-13)


# --- the per-piece loop, kept as the oracle of the batched integrator -------

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
    """A kink of sqrt type at ``kink`` plus an oscillation: the pieces of one
    batch bisect to different depths, or hit the depth cap.  It stays above
    1, so no integral cancels below the reach of a relative tolerance."""
    return scale * np.sqrt(np.abs(x - kink)) + 2.0 + np.cos(freq * x)


def _outcome(call):
    try:
        return [v.hex() for v in np.atleast_1d(call()).tolist()]
    except (ValueError, NonconvergenceError) as exc:
        return type(exc), str(exc)


def _check_against_loop(pieces, rel_tol, seeds=()):
    a, b, scale, kink, freq = (np.array(col, dtype=float).reshape(-1) for col in zip(*pieces))

    def batched(nodes):
        k = nodes["piece"]
        return _family(nodes["x"], scale[k], kink[k], freq[k])

    def looped():
        return [
            _one_piece(lambda x: _family(x, *piece[2:]), piece[0], piece[1], rel_tol, seeds)
            for piece in pieces
        ]

    expected = _outcome(looped)
    assert _outcome(lambda: adaptive_integral(batched, a, b, rel_tol=rel_tol, seeds=seeds)) == expected
    # blocks of 3 pieces, halved once they open more than 8 panels, and 8
    # panels per integrand call
    with mock.patch.object(quadrature, "_BLOCK", 3), mock.patch.object(quadrature, "_PANELS", 8):
        assert _outcome(lambda: adaptive_integral(batched, a, b, rel_tol=rel_tol, seeds=seeds)) == expected


_piece = st.tuples(
    st.floats(-4.0, 4.0),  # a
    st.floats(-4.0, 4.0),  # b, empty when b <= a
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3),  # kink scale
    st.floats(-5.0, 5.0),  # kink point, inside or outside the piece
    st.sampled_from([0.0, 40.0]) | st.floats(0.0, 60.0),  # frequency
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_piece, min_size=1, max_size=9),
    st.sampled_from([1e-4, 1e-8, 1e-10, 1e-12, 1e-13]),
)
def test_batch_matches_the_loop_bit_for_bit(pieces, rel_tol):
    _check_against_loop(pieces, rel_tol)


@settings(max_examples=40, deadline=None)
@given(
    _piece,
    st.lists(st.floats(-5.0, 5.0), max_size=6),
    st.sampled_from([1e-6, 1e-10, 1e-13]),
)
def test_single_seeded_piece_matches_the_loop(piece, seeds, rel_tol):
    _check_against_loop([piece], rel_tol, tuple(seeds))


def test_batch_over_a_block_boundary_matches_the_loop():
    count = quadrature._BLOCK + 5
    pieces = [(k / 8.0, k / 8.0 + 0.5, 1.0 + k % 3, k / 8.0 + 0.1 * (k % 7), k % 11) for k in range(count)]
    _check_against_loop(pieces, 1e-10)


def _capped_and_nan(first_capped: bool):
    # piece "capped" needs more than 2 bisections; piece "nan" is not finite
    def integrand(nodes):
        capped = nodes["piece"] == (0 if first_capped else 1)
        return np.where(capped, np.abs(np.sin(40.0 * nodes["x"])), np.nan)

    return adaptive_integral(integrand, np.array([0.0, 0.0]), np.array([math.pi, math.pi]), rel_tol=1e-13)


def test_lowest_failing_piece_decides_the_error(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    # the NaN piece fails on the first pass, the capped one only at depth 2;
    # a loop over the pieces still meets whichever comes first
    with pytest.raises(NonconvergenceError) as capped:
        _capped_and_nan(first_capped=True)
    with pytest.raises(NonconvergenceError) as alone:
        _one_piece(lambda x: np.abs(np.sin(40.0 * x)), 0.0, math.pi, rel_tol=1e-13)
    assert str(capped.value) == str(alone.value)
    with pytest.raises(ValueError, match="not finite"):
        _capped_and_nan(first_capped=False)
