"""K-functional, interpolation norm, doubling-window functional, decomposition."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_gm.hardy import hardy_lhs
from lorentz_gm.interpolate import (
    gilbert_bracket,
    gilbert_functional,
    gms_decomposition,
    interpolation_norm,
    k_functional,
    k_functional_oracle,
)
from lorentz_gm.model import PQ, ComplexSeq, PowerHead, StepFunction
from lorentz_gm.norms import weighted_norm_seq

ONES8 = ComplexSeq((1.0,) * 8)
E1 = ComplexSeq((1.0,))


def test_k_two_sum_worked_value():
    # at t = 1/4 the crossover sits at n = 4: t*4 + (1/5 + 1/6 + 1/7 + 1/8)
    assert k_functional(ONES8, 0.25) == 1373.0 / 840.0


def test_k_of_single_spike():
    assert k_functional(E1, 0.5) == 0.5
    assert k_functional(E1, 2.0) == 1.0
    with pytest.raises(ValueError):
        k_functional(E1, 0.0)


def test_k_oracle_agrees():
    for t in (0.01, 0.2, 0.25, 1.0, 3.0):
        k = k_functional(ONES8, t)
        o = k_functional_oracle(ONES8, t)
        assert abs(k - o) <= 1e-12 * max(k, 1.0)
    with pytest.raises(ValueError):
        k_functional_oracle(E1, 1.0, grid_resolution=0)


def test_interpolation_norm_spike():
    assert interpolation_norm(E1, 0.5, 2.0) == pytest.approx(math.sqrt(2.0))
    assert interpolation_norm(E1, 0.5, math.inf) == pytest.approx(1.0)


def test_interpolation_norm_ones8():
    v = interpolation_norm(ONES8, 0.5, 2.0)
    assert v == pytest.approx(5.92467885730627, rel=1e-9)


def test_interpolation_norm_validation():
    with pytest.raises(ValueError):
        interpolation_norm(E1, 1.2, 2.0)
    with pytest.raises(ValueError):
        interpolation_norm(E1, 0.5, 0.0)
    with pytest.raises(ValueError):
        interpolation_norm(E1, 0.0, 2.0)
    with pytest.warns(UserWarning):
        assert interpolation_norm(E1, 0.0, math.inf) == pytest.approx(1.0)
    assert interpolation_norm(ComplexSeq((0.0, 0.0)), 0.5, 2.0) == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: k_functional(E1, math.nan),
        lambda: k_functional(E1, math.inf),
        lambda: k_functional_oracle(E1, math.nan),
        lambda: interpolation_norm(E1, 0.5, math.nan),
        lambda: gilbert_functional(E1, 0.5, math.nan),
        lambda: gms_decomposition(ONES8, math.nan),
        lambda: gms_decomposition(ONES8, math.inf),
        lambda: gms_decomposition(ONES8, 0.25, alpha=math.nan),
    ],
)
def test_non_finite_parameters_are_refused(call):
    with pytest.raises(ValueError):
        call()


def test_gilbert_spike_closed_forms():
    # the only live window cell is (1/2, 1]
    assert gilbert_functional(E1, 0.5, 1.0) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0))
    assert gilbert_functional(E1, 0.5, math.inf) == pytest.approx(math.sqrt(2.0))
    assert gilbert_functional(ComplexSeq(()), 0.5, 2.0) == 0.0
    with pytest.raises(ValueError):
        gilbert_functional(E1, 1.0, 2.0)
    with pytest.raises(ValueError):
        gilbert_functional(E1, 0.5, -1.0)


def _gilbert_dense(c, theta, q):
    """The doubling-window functional with every window summed through a dense
    (2N-1) x N membership matrix: O(N^2) memory, kept as the oracle."""
    mods = np.asarray(c.moduli(), dtype=float)
    while len(mods) and mods[-1] == 0.0:
        mods = mods[:-1]
    if not len(mods):
        return 0.0
    kk = np.arange(1, len(mods) + 1, dtype=float)
    pts = np.unique(np.concatenate([0.5 * kk, kk]))
    lows, highs = pts[:-1], pts[1:]
    member = (0.5 * kk[None, :] < highs[:, None]) & (highs[:, None] <= kk[None, :])
    window = member @ mods
    live = window > 0.0
    if math.isinf(q):
        return float(np.max(window[live] * lows[live] ** (theta - 1.0))) if live.any() else 0.0
    e = (theta - 1.0) * q
    cells = window[live] ** q * (highs[live] ** e - lows[live] ** e) / e
    return math.fsum(cells.tolist()) ** (1.0 / q)


# moduli from 1e-150 to 1e150, log-uniformly, with zero runs between them
_MODULUS = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-150, 149))
_ENTRY = st.one_of(
    st.just(0.0),
    st.builds(cmath.rect, _MODULUS, st.floats(-math.pi, math.pi)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_ENTRY, min_size=1, max_size=80),
    st.integers(0, 5),
    st.floats(0.05, 0.95),
    st.sampled_from([0.5, 1.0, 2.0, math.inf]) | st.floats(0.25, 2.0),
)
# fast decay: float prefix differences round every window past k = 53 to 0,
# and q < 1 magnifies what those windows carry
@example([2.0**-k for k in range(1, 121)], 0, 0.5, 0.5)
@example([2.0**-k for k in range(1, 121)], 0, 0.25, math.inf)
def test_gilbert_windows_match_the_dense_oracle(entries, trailing_zeros, theta, q):
    c = ComplexSeq(tuple(entries) + (0.0,) * trailing_zeros)
    expected = _gilbert_dense(c, theta, q)
    assert gilbert_functional(c, theta, q) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_gilbert_memory_is_linear():
    # the dense form needs a (2N - 1) x N matrix: over 2 GiB at this size
    c = ComplexSeq(tuple(1.0 / k for k in range(1, 32769)))
    tracemalloc.start()
    try:
        gilbert_functional(c, 0.5, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("norm", ["interp", "hardy"])
def test_quadrature_memory_is_bounded_by_blocks(norm):
    # Every mixed piece goes through one quadrature call, in blocks of pieces.
    # In one block, the node arrays of these 32767 cells or 16384 pieces
    # take 25-32 MiB; blocked, the peak stays near 6 MiB.
    if norm == "interp":
        c = ComplexSeq(tuple(1.0 / k for k in range(1, 32769)))
        call = lambda: interpolation_norm(c, 0.5, 2.0, 1e-8)  # noqa: E731
    else:
        m = 16384
        f = StepFunction(tuple(float(k) for k in range(1, m + 2)),
                         tuple(1.0 / k for k in range(1, m + 1)), PowerHead(1.0, 1.0))
        call = lambda: hardy_lhs(f, 0.5, 2.0, 1e-8 / 16)  # noqa: E731
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_gilbert_bracket_contains_spike_ratio():
    lo, hi = gilbert_bracket(0.5, 2.0, 1.0)
    assert lo == pytest.approx(math.sqrt(0.5))
    assert hi == pytest.approx(2.0)
    g = gilbert_functional(E1, 0.5, 2.0)
    w = weighted_norm_seq(E1, PQ(2.0, 2.0))
    assert lo <= g / w <= hi


def test_gilbert_bracket_validation():
    with pytest.raises(ValueError):
        gilbert_bracket(0.5, math.inf, 1.0)
    with pytest.raises(ValueError):
        gilbert_bracket(0.5, 2.0, 0.9)
    with pytest.raises(ValueError):
        gilbert_bracket(0.0, 2.0, 1.0)


def test_decomposition_worked_values():
    dec = gms_decomposition(ONES8, 0.25)
    assert dec.cost == pytest.approx(325.0 / 168.0, rel=1e-12)
    assert dec.k_value == 1373.0 / 840.0
    assert dec.ratio == pytest.approx(1625.0 / 1373.0, rel=1e-12)
    # the replaced run is the ray n/5: b + d reassembles c exactly
    assert [v.real for v in dec.b.values[:5]] == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    for k in range(5):
        assert dec.b.values[k] + dec.d.values[k] == 1.0 + 0j
    assert dec.b.values[5:] == (1.0 + 0j,) * 3


def test_decomposition_large_t_is_free():
    dec = gms_decomposition(ONES8, 2.0)
    assert dec.ratio == 1.0
    assert dec.b.values == ONES8.values
    assert len(dec.d) == 0


def test_decomposition_rotated_ray():
    alpha = math.pi / 3.0
    dec = gms_decomposition(ONES8, 0.25, alpha=alpha)
    for v in dec.b.values[:5]:
        assert cmath.phase(v) == pytest.approx(alpha)
    assert dec.t == 0.25 and len(dec.b) == 8
    with pytest.raises(ValueError):
        gms_decomposition(ONES8, -1.0)
