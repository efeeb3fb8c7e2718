"""Metamorphic checks across the exponent range.  Every norm here is
homogeneous of degree 1 and every window constant is scale invariant, and
scaling by 2^k is exact in floating point while the scaled values stay
normal.  So F(2^k f) must be 2^k F(f): to a few ulps times max(1, q) for the
norms, and bit for bit for the K-functional and the GMS constants.  No
reference code is needed, and a q-th power that leaves the float range on
the way, by overflow or by underflow, fails here."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_gm.gm import gms1_constant, gms2_constant, gms_constant
from lorentz_gm.hardy import hardy_lhs, hardy_rhs
from lorentz_gm.interpolate import gilbert_functional, interpolation_norm, k_functional
from lorentz_gm.model import PQ, ComplexSeq, PowerHead, StepFunction
from lorentz_gm.norms import dyadic_norm_full, lorentz_norm_step, weighted_norm_seq, weighted_norm_step

# |entries| within 2^{+-10}, so that 2^k times them, for |k| <= 900, and the
# sums and weights built from them stay well inside the normal range
ENTRY = st.sampled_from([0.0]) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
SHIFT = st.integers(-900, 900)
Q = st.sampled_from([0.5, 1.0, 2.0, 3.7, 5.0, math.inf])
P = st.sampled_from([0.5, 1.0, 2.0, 4.0, math.inf])


def _assert_scaled(scaled: float, base: float, k: int, q: float) -> None:
    ulps = 4.0 * (1.0 if math.isinf(q) else max(1.0, q))
    assert scaled == pytest.approx(math.ldexp(base, k), rel=ulps * 2.0**-52, abs=0.0)


def _scale_seq(c: ComplexSeq, k: int) -> ComplexSeq:
    return ComplexSeq(tuple(complex(math.ldexp(v.real, k), math.ldexp(v.imag, k)) for v in c.values))


def _scale_fn(f: StepFunction, k: int) -> StepFunction:
    head = None if f.head is None else PowerHead(math.ldexp(f.head.c, k), f.head.gamma)
    return StepFunction(f.breakpoints, tuple(math.ldexp(v.real, k) for v in f.values), head)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(ENTRY, min_size=1, max_size=30),
    SHIFT,
    st.tuples(P, Q),
    st.floats(0.05, 0.95),
    st.floats(1e-3, 10.0),
)
@example([1.0, 0.5, 1.0 / 3.0], -664, (2.0, 2.0), 0.5, 0.5)  # s = 2^-664 ~ 1e-200 read 0.0
@example([8.0, 8.0], 509, (2.0, 2.0), 0.5, 0.5)  # 8 2^509 ~ 1.3e154: (t^-theta K)^2 overflowed
def test_sequence_norms_scale_and_constants_do_not(entries, k, pq, theta, t):
    c = ComplexSeq(tuple(entries))
    scaled = _scale_seq(c, k)
    p, q = pq
    _assert_scaled(weighted_norm_seq(scaled, PQ(p, q)), weighted_norm_seq(c, PQ(p, q)), k, q)
    _assert_scaled(interpolation_norm(scaled, theta, q), interpolation_norm(c, theta, q), k, q)
    _assert_scaled(gilbert_functional(scaled, theta, q), gilbert_functional(c, theta, q), k, q)
    assert k_functional(scaled, t) == math.ldexp(k_functional(c, t), k)
    for constant in (gms_constant, gms1_constant, gms2_constant):
        assert constant(scaled).constant == constant(c).constant


@st.composite
def plain_steps(draw):
    """Plain step functions on breakpoints across e^{+-3}."""
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=8))
    bps = tuple(math.exp(-3.0 + x) for x in np.cumsum(gaps) if x < 6.0) or (1.0,)
    return StepFunction(bps, tuple(draw(st.lists(ENTRY, min_size=len(bps), max_size=len(bps)))))


@settings(max_examples=200, deadline=None)
@given(plain_steps(), SHIFT, st.tuples(P, Q))
def test_step_norms_scale(f, k, pq):
    scaled = _scale_fn(f, k)
    p, q = pq
    pq = PQ(p, q)
    _assert_scaled(weighted_norm_step(scaled, pq), weighted_norm_step(f, pq), k, q)
    _assert_scaled(dyadic_norm_full(scaled, pq), dyadic_norm_full(f, pq), k, q)
    if pq.lorentz_admissible:
        _assert_scaled(lorentz_norm_step(scaled, pq), lorentz_norm_step(f, pq), k, q)


@st.composite
def nonnegative_steps(draw):
    """Nonnegative step functions on breakpoints across e^{+-3}, with a power
    head or vanishing on the first interval, so that I converges at 0."""
    f = draw(plain_steps())
    values = [abs(v.real) for v in f.values]
    if draw(st.booleans()):
        return StepFunction(f.breakpoints, tuple(values[1:]), PowerHead(draw(st.floats(1e-3, 1e3)), draw(st.floats(0.05, 6.0))))
    return StepFunction(f.breakpoints, (0.0, *values[1:]))


@settings(max_examples=200, deadline=None)
@given(nonnegative_steps(), SHIFT, st.floats(math.exp(-4.0), math.exp(1.5)), Q)
@example(StepFunction((1.0, 2.0, 3.0), (1.0, 0.0), PowerHead(1.0, 1.0)), 996, 0.5, 2.0)  # I^2 overflowed
def test_hardy_sides_scale(f, k, alpha, q):
    scaled = _scale_fn(f, k)
    _assert_scaled(hardy_lhs(scaled, alpha, q), hardy_lhs(f, alpha, q), k, q)
    _assert_scaled(hardy_rhs(scaled, alpha, q), hardy_rhs(f, alpha, q), k, q)
