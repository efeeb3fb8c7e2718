"""K-functional, interpolation norm, doubling-window functional, decomposition."""

import cmath
import math
import operator
import tracemalloc
import warnings
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_gm import interpolate, quadrature
from lorentz_gm.hardy import hardy_lhs
from lorentz_gm.interpolate import (
    gilbert_bracket,
    gilbert_functional,
    gms_decomposition,
    gms_decompositions,
    interpolation_norm,
    k_functional,
    k_functional_oracle,
)
from lorentz_gm.model import PQ, ComplexSeq, PowerHead, StepFunction
from lorentz_gm.norms import power_term, power_total, weighted_norm_seq
from lorentz_gm.quadrature import NonconvergenceError, adaptive_integral

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


def _cell_by_quadrature(a_m, b_m, lo, hi, theta, q):
    """The mixed cell's integral by adaptive quadrature at rel_tol 1e-14.
    Where the integrand is steep (theta q up to 64), rounding the nodes alone
    moves a panel's estimate by more than its share of 1e-14, and the panels
    would double until memory runs out; so the bisection depth is capped at
    12, and such a cell is retaken at 1e-13, then 1e-12."""
    for rel_tol in (1e-14, 1e-13, 1e-12):
        try:
            with mock.patch.object(quadrature, "_MAX_DEPTH", 12):
                return adaptive_integral(lambda t: t ** (-theta * q - 1.0) * (a_m + b_m * t) ** q,
                                         lo, hi, rel_tol=rel_tol)
        except NonconvergenceError:
            continue
    raise NonconvergenceError(f"the cell [{lo:g}, {hi:g}] does not settle at 1e-12")


def _interp_by_quadrature(c, theta, q):
    """``interpolation_norm`` at finite q with each mixed cell integrated on
    its own by adaptive quadrature: the path it took before the fixed rule."""
    mods = list(c.moduli())
    while mods and mods[-1] == 0.0:
        mods.pop()
    if not mods:
        return 0.0
    n = len(mods)
    b_prefix = [math.fsum(mods[:m]) for m in range(n + 1)]
    a_suffix = [math.fsum(mods[j] / (j + 1) for j in range(m, n)) for m in range(n + 1)]
    terms = [power_term(0.0, 1.0 / n, b_prefix[n], 1.0, -theta, q),
             power_term(1.0, math.inf, a_suffix[0], 0.0, -theta, q)]
    for m in range(1, n):
        a_m, b_m, lo, hi = a_suffix[m], b_prefix[m], 1.0 / (m + 1), 1.0 / m
        if b_m == 0.0 or a_m == 0.0:
            terms.append(power_term(lo, hi, a_m or b_m, 0.0 if b_m == 0.0 else 1.0, -theta, q))
        else:
            terms.append(_cell_by_quadrature(a_m, b_m, lo, hi, theta, q))
    return power_total(terms, q)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=40),
    st.floats(0.01, 0.99),
    st.sampled_from([0.5, 1.0, 2.0, 64.0]) | st.floats(0.5, 64.0),
)
@example([1.0] * 8, 0.5, 2.0)
@example([0.0, 0.0, 3.0, 1e-3, 1e3], 0.99, 64.0)
def test_fixed_rule_agrees_with_the_adaptive_oracle(entries, theta, q):
    c = ComplexSeq(tuple(entries))
    oracle = _interp_by_quadrature(c, theta, q)
    assert interpolation_norm(c, theta, q) == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("q", [0.5, 2.0, 50.0])
def test_interpolation_norm_matches_mpmath(q):
    mpmath = pytest.importorskip("mpmath")
    mods = [1.0, 0.0, 0.5, 2.0, 0.25, 0.125, 1.0]
    theta = 0.3
    with mpmath.workdps(40):
        n, s1 = len(mods), mpmath.fsum(mods)
        lw = mpmath.fsum(mpmath.mpf(m) / k for k, m in enumerate(mods, 1))

        def integrand(t):
            k = mpmath.fsum(m * min(mpmath.mpf(1) / j, t) for j, m in enumerate(mods, 1))
            return (t**-theta * k) ** q / t

        cells = mpmath.quad(integrand, [mpmath.mpf(1) / j for j in range(n, 0, -1)])
        # K = s1 t on (0, 1/n] and K = lw on [1, inf), in closed form
        ends = s1**q * mpmath.mpf(n) ** (-(1 - theta) * q) / ((1 - theta) * q) + lw**q / (theta * q)
        exact = float((cells + ends) ** (1 / mpmath.mpf(q)))
    assert interpolation_norm(ComplexSeq(tuple(mods)), theta, q) == pytest.approx(exact, rel=1e-13)


def _log2_r(m, theta, q):
    """log2 of R on the cell [1/(m+1), 1/m], as ``_cell_nodes`` states it."""
    return (theta * q + 1.0) * math.log2((2 * m + 2) / (2 * m - 1.125)) + q * math.log2((2 * m + 3.125) / (2 * m))


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
@pytest.mark.parametrize("theta, q", [(0.01, 0.5), (0.5, 2.0), (0.3, 7.5), (0.99, 64.0), (0.5, 300.0)])
def test_cell_nodes_meet_the_stated_bound(m, theta, q):
    # R bounds the integrand's modulus on the Bernstein ellipse rho = 4 over
    # its least value on the cell; n is the fewest nodes with
    # (32/225) R 4^{-2n} <= 2^-53 on the first cell, and R falls with m
    n = interpolate._cell_nodes(theta, q)
    log2_r = _log2_r(m, theta, q)
    assert math.log2(32.0 / 225.0) + _log2_r(1, theta, q) - 4.0 * n <= -53.0
    assert -53.0 < math.log2(32.0 / 225.0) + _log2_r(1, theta, q) - 4.0 * (n - 1)
    assert log2_r <= _log2_r(1, theta, q)
    if (theta, q) == (0.5, 2.0):
        assert n == 15
    # R against the integrand itself, for a few a, b >= 0 on this cell, either of them 0
    lo, hi = 1.0 / (m + 1), 1.0 / m
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phi = np.linspace(0.0, 2.0 * np.pi, 2001)
    z = mid + half * (4.0 * np.exp(1j * phi) + 0.25 * np.exp(-1j * phi)) / 2.0
    t = np.linspace(lo, hi, 2001)
    for a, b in [(1.0, 1e-6), (1.0, 1.0), (1e-6, 1.0), (3.0, 0.2), (1.0, 0.0), (0.0, 1.0)]:
        log_on_ellipse = (-theta * q - 1.0) * np.log(np.abs(z)) + q * np.log(np.abs(a + b * z))
        log_on_cell = (-theta * q - 1.0) * np.log(t) + q * np.log(a + b * t)
        assert (log_on_ellipse.max() - log_on_cell.min()) / math.log(2.0) <= log2_r


def _interp_per_cell(c, theta, q):
    """``interpolation_norm`` as it took its cells one kind at a time: the
    cells with K = A_m or K = B_m t by ``power_term``, the mixed ones by the
    fixed Gauss rule, and every cell by its own critical-point calculus when
    q = inf (t* is skipped where (1 - theta) B_m is 0, where it would divide by 0)."""
    mods = list(c.moduli())
    while mods and mods[-1] == 0.0:
        mods.pop()
    if not mods:
        return 0.0
    n = len(mods)
    b_prefix = list(accumulate(mods, initial=0.0))
    a_suffix = list(accumulate((mods[i] / (i + 1) for i in range(n - 1, -1, -1)), initial=0.0))[::-1]
    terms = [power_term(0.0, 1.0 / n, b_prefix[n], 1.0, -theta, q),
             power_term(1.0, math.inf, a_suffix[0], 0.0, -theta, q)]
    for m in range(1, n):
        a_m, b_m, lo, hi = a_suffix[m], b_prefix[m], 1.0 / (m + 1), 1.0 / m
        if math.isinf(q):
            cands = [lo, hi]
            if 0.0 < theta < 1.0 and (1.0 - theta) * b_m > 0.0:
                t_star = theta * a_m / ((1.0 - theta) * b_m)
                if lo < t_star < hi:
                    cands.append(t_star)
            terms.append(max(t ** (-theta) * (a_m + b_m * t) for t in cands))
        elif b_m == 0.0 or a_m == 0.0:
            terms.append(power_term(lo, hi, a_m or b_m, 0.0 if b_m == 0.0 else 1.0, -theta, q))
        else:
            nodes, weights = quadrature._rule(interpolate._cell_nodes(theta, q))
            t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
            terms.append(0.5 * (hi - lo) * float(((a_m + b_m * t) * t**-theta) ** q / t @ weights))
    return power_total(terms, q)


_SMALL_ENTRY = st.sampled_from([0.0, 5e-324]) | st.floats(1e-3, 1e3)  # 5e-324 / n rounds to 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5),
    st.lists(_SMALL_ENTRY, min_size=1, max_size=40),
    st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99),
    st.sampled_from([0.5, 1.0, 2.0, 64.0, math.inf]),
)
@example(0, [1.0, 5e-324], 0.5, 2.0)  # the last cell has A = 0: K = B t
@example(3, [2.0, 1.0], 0.3, 64.0)  # the first three cells have B = 0: K = A
@example(1, [1.0, 3.0], 0.0, math.inf)  # theta = 0 with c_1 = 0: t* is 0/0 on the first cell
@example(0, [1.0, 5e-324, 5e-324], 1.0, math.inf)  # theta = 1 with A = 0: t* is 0/0
def test_one_pass_over_every_cell_matches_the_per_cell_oracle(leading_zeros, entries, theta, q):
    if theta in (0.0, 1.0) and q < math.inf:
        theta = 0.5
    c = ComplexSeq((0.0,) * leading_zeros + tuple(entries))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, want = interpolation_norm(c, theta, q), _interp_per_cell(c, theta, q)
    # a norm in the subnormal range carries no 1e-15 relative accuracy on either path
    assert got == pytest.approx(want, rel=1e-15, abs=1e-320)


def test_interp_past_the_node_cap_is_refused():
    # small entries, so that no closed-form piece overflows first
    with pytest.raises(ValueError, match="needs 3081 Gauss nodes"):
        interpolation_norm(ComplexSeq((1e-3, 1e-3)), 0.5, 5000.0)


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
    # interp's mixed cells and hardy's narrow log pieces each go through one
    # Gauss pass, in blocks of pieces.  In one block, the node arrays of these
    # 32767 cells would take 25-32 MiB and those of these 16384 pieces 13 MiB;
    # blocked, each peak stays near 6 MiB.
    if norm == "interp":
        c = ComplexSeq(tuple(1.0 / k for k in range(1, 32769)))
        call = lambda: interpolation_norm(c, 0.5, 2.0)  # noqa: E731
    else:
        m = 16384
        f = StepFunction(tuple(float(k) for k in range(1, m + 2)),
                         tuple(1.0 / k for k in range(1, m + 1)), PowerHead(1.0, 1.0))
        call = lambda: hardy_lhs(f, 0.5, 2.0)  # noqa: E731
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
    assert dec.b[:5].real.tolist() == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])
    for k in range(5):
        assert dec.b[k] + dec.d[k] == 1.0 + 0j
    assert dec.b[5:].tolist() == [1.0 + 0j] * 3


def test_decomposition_large_t_is_free():
    dec = gms_decomposition(ONES8, 2.0)
    assert dec.ratio == 1.0
    assert dec.b.tolist() == list(ONES8.values)
    assert len(dec.d) == 0


def test_decomposition_rotated_ray():
    alpha = math.pi / 3.0
    dec = gms_decomposition(ONES8, 0.25, alpha=alpha)
    for v in dec.b[:5].tolist():
        assert cmath.phase(v) == pytest.approx(alpha)
    assert dec.t == 0.25 and len(dec.b) == 8
    with pytest.raises(ValueError):
        gms_decomposition(ONES8, -1.0)


# ---------------------------------------------------------------------------
# The per-call forms that the batched kernels replaced, kept as oracles: each
# batched result must equal them bit for bit.
# ---------------------------------------------------------------------------


def _k_per_t(c, t):
    """K at one t by the forward search for n0 and a generator tail."""
    mods = c.moduli()
    n0 = 0
    for n in range(1, len(mods) + 1):
        if 1.0 / n >= t:
            n0 = n
        else:
            break
    head = t * math.fsum(mods[:n0])
    tail = math.fsum(m / n for n, m in enumerate(mods[n0:], n0 + 1))
    return head + tail


def _oracle_loop(c, t, grid_resolution=8):
    """The coordinatewise grid search in pure Python."""
    per_coord = []
    for n, m in enumerate(c.moduli(), 1):
        best = min(m / n, t * m)
        for j in range(1, grid_resolution):
            s = j / grid_resolution
            best = min(best, s * m / n + t * (1.0 - s) * m)
        per_coord.append(best)
    return math.fsum(per_coord)


def _decomposition_per_t(c, t, alpha=0.0):
    """One decomposition built from ComplexSeq parts: (b, d, cost, K, ratio)."""
    mods = c.moduli()
    if t > 1.0:
        b, d = c, ComplexSeq(())
        cost = math.fsum(m / n for n, m in enumerate(mods, 1)) + t * 0.0
    else:
        n_join = 1 + math.floor(1.0 / t)
        sigma = math.fsum(mods[:n_join]) / n_join
        ray = cmath.exp(1j * alpha)
        a_vals = [(n / n_join) * sigma * ray for n in range(1, n_join + 1)]
        head = c.values[:n_join] + (0j,) * (n_join - len(c))
        b = ComplexSeq(tuple(a_vals) + c.values[n_join:])
        d = ComplexSeq(tuple(map(operator.sub, head, a_vals)))
        weighted = math.fsum(map(operator.truediv, b.moduli(), range(1, len(b) + 1)))
        cost = weighted + t * math.fsum(d.moduli())
    k_value = _k_per_t(c, t)
    ratio = cost / k_value if k_value > 0.0 else math.nan
    return b.values, d.values, cost, k_value, ratio


def _gilbert_one_call(c, theta, q):
    """The doubling-window functional at one (theta, q), cells and windows built anew."""
    mods = list(c.moduli())
    while mods and mods[-1] == 0.0:
        mods.pop()
    if not mods:
        return 0.0
    kk = np.arange(1, len(mods) + 1, dtype=float)
    pts = np.unique(np.concatenate([0.5 * kk, kk]))
    lows, highs = pts[:-1], pts[1:]
    starts = (np.ceil(highs) - 1.0).astype(np.int64).tolist()
    ends = np.minimum(2.0 * highs - 1.0, len(mods)).astype(np.int64).tolist()
    window = np.array([math.fsum(mods[i:j]) for i, j in zip(starts, ends)])
    live = window > 0.0
    if math.isinf(q):
        return float(np.max(window[live] * lows[live] ** (theta - 1.0))) if live.any() else 0.0
    e = (theta - 1.0) * q
    cells = window[live] ** q * (highs[live] ** e - lows[live] ** e) / e
    return math.fsum(cells.tolist()) ** (1.0 / q)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _seq_and_ts(draw, t_min=0.0):
    """A sequence with trailing zeros (possibly empty) and t values that hit
    crossovers 1/n exactly, fall between them, or lie past 1."""
    c = ComplexSeq(tuple(draw(st.lists(_ENTRY, max_size=60))) + (0.0,) * draw(st.integers(0, 4)))
    t = st.one_of(
        st.integers(1, len(c) + 2).map(lambda k: 1.0 / k),
        st.floats(1e-4, 5.0),
        st.sampled_from([1.0, 1.5, 2.0, 1e-300]),
    )
    return c, draw(st.lists(t.filter(lambda t: t >= t_min), min_size=1, max_size=12))


@settings(max_examples=300, deadline=None)
@given(_seq_and_ts())
@example((ComplexSeq(()), [0.5, 1.0, 2.0]))
@example((ONES8, [1.0 / n for n in range(1, 10)] + [1.0, 3.0]))
def test_k_over_an_array_of_t_matches_the_per_t_loop_bitwise(case):
    c, ts = case
    ks = k_functional(c, np.array(ts))
    assert _bits(ks) == _bits([_k_per_t(c, t) for t in ts])
    assert all(_bits(k_functional(c, t)) == _bits(_k_per_t(c, t)) for t in ts)
    assert isinstance(k_functional(c, ts[0]), float)
    assert _bits(k_functional_oracle(c, ts[0])) == _bits(_oracle_loop(c, ts[0]))
    assert _bits(k_functional_oracle(c, ts[0], 3)) == _bits(_oracle_loop(c, ts[0], 3))


@settings(max_examples=200, deadline=None)
@given(_seq_and_ts(t_min=1e-3), st.sampled_from([0.0, 0.2, math.pi / 2.0, -1.0]) | st.floats(-7.0, 7.0))
@example((ComplexSeq(()), [0.01, 1.0, 2.0]), 0.0)  # empty: every ray runs past the end
@example((ONES8, [0.25, 0.01, 1.0, 1.5]), math.pi / 3.0)
# an imaginary part that underflows: a fused multiply-add would give it the wrong sign of zero
@example((ComplexSeq((1e-21,)), [1.0]), -1.8716053706996014e-303)
def test_decompositions_match_the_per_t_body_bitwise(case, alpha):
    c, ts = case
    try:
        want = [_decomposition_per_t(c, t, alpha) for t in ts]
    except (ValueError, OverflowError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            list(gms_decompositions(c, ts, alpha))
        return
    got = list(gms_decompositions(c, np.array(ts), alpha))
    assert len(got) == len(ts)
    for t, dec, (b, d, cost, k_value, ratio) in zip(ts, got, want):
        assert dec.t == t
        assert dec.b.tobytes() == np.array(b, dtype=complex).tobytes()
        assert dec.d.tobytes() == np.array(d, dtype=complex).tobytes()
        assert _bits([dec.cost, dec.k_value, dec.ratio]) == _bits([cost, k_value, ratio])
        one = gms_decomposition(c, t, alpha)
        assert _bits([one.cost, one.k_value, one.ratio]) == _bits([cost, k_value, ratio])


@settings(max_examples=150, deadline=None)
@given(st.lists(_ENTRY, min_size=0, max_size=60), st.integers(0, 3))
@example([2.0**-k for k in range(1, 121)], 0)
def test_gilbert_over_arrays_matches_single_calls_bitwise(entries, trailing_zeros):
    c = ComplexSeq(tuple(entries) + (0.0,) * trailing_zeros)
    params = [(theta, q) for theta in (0.25, 0.5, 0.75) for q in (0.5, 1.0, 2.0, math.inf)]
    want = [_gilbert_one_call(c, theta, q) for theta, q in params]
    thetas, qs = zip(*params)
    got = gilbert_functional(c, np.array(thetas), list(qs))
    assert isinstance(got, list) and _bits(got) == _bits(want)
    single = gilbert_functional(c, 0.5, 2.0)
    assert isinstance(single, float) and _bits(single) == _bits(want[6])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_an_array_t_with_a_bad_entry_is_refused(bad):
    ts = np.array([0.5, bad, 2.0])
    for call in (lambda: k_functional(ONES8, ts), lambda: list(gms_decompositions(ONES8, ts))):
        with pytest.raises(ValueError, match="^t must be finite and positive$"):
            call()
