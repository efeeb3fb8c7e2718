"""Rearrangement: worked cases plus equimeasurability as a property."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz_gm.model import ComplexSeq, PowerHead, RepresentationError, StepFunction
from lorentz_gm.rearrange import (
    DecreasingStep,
    distribution,
    left_limit,
    rearrange_seq,
    rearrange_step,
)


def test_worked_rearrangement():
    f = StepFunction((1.0, 2.0, 3.0), (1.0, 3.0, 2.0))
    fs = rearrange_step(f)
    assert fs.breakpoints == (1.0, 2.0, 3.0)
    assert fs.values == (3.0, 2.0, 1.0)


def test_equal_moduli_merge():
    f = StepFunction((1.0, 2.0), (1.0j, -1.0))
    fs = rearrange_step(f)
    assert fs.breakpoints == (2.0,)
    assert fs.values == (1.0,)


def test_zero_pieces_dropped():
    f = StepFunction((1.0, 2.0, 4.0), (0.0, 5.0, 0.0))
    fs = rearrange_step(f)
    assert fs.breakpoints == (1.0,)
    assert fs.values == (5.0,)


def test_distribution_counts_and_measures():
    f = StepFunction((0.5, 2.0), (2.0, 1.0))
    assert distribution(f, 0.0) == 2.0
    assert distribution(f, 1.0) == 0.5  # strict inequality
    assert distribution(f, 2.0) == 0.0
    a = ComplexSeq((3.0, 1.0, 1.0))
    assert distribution(a, 0.5) == 3.0
    assert distribution(a, 1.0) == 1.0
    with pytest.raises(ValueError):
        distribution(f, -1.0)


def test_seq_rearrangement_sorts_moduli():
    a = ComplexSeq((1.0j, -2.0, 0.5))
    assert rearrange_seq(a).values == (2.0, 1.0, 0.5)


def test_left_limit_is_stored_value():
    fs = DecreasingStep((1.0, 2.0), (4.0, 1.0))
    assert left_limit(fs, 1.0) == 4.0
    assert left_limit(fs, 1.5) == 1.0
    assert left_limit(fs, 99.0) == 0.0


def test_decreasing_step_is_a_checked_step_function():
    fs = DecreasingStep((2.0, 5.0), (4.0, 1.0))
    assert fs.pieces() == ((0.0, 2.0, 4.0), (2.0, 5.0, 1.0))
    assert fs.eval(6.0) == 0.0
    assert all(isinstance(v, float) for v in fs.values)
    for bad in ((1.0, 4.0), (4.0, -1.0), (4.0, 1.0j)):
        with pytest.raises(ValueError):
            DecreasingStep((2.0, 5.0), bad)
    with pytest.raises(ValueError):
        DecreasingStep((2.0, 5.0), (1.0,), PowerHead(1.0, 1.0))


def test_headed_input_rejected():
    h = StepFunction((1.0,), (), PowerHead(1.0, 1.0))
    with pytest.raises(RepresentationError):
        rearrange_step(h)


steps = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)


def _build(gaps_vals):
    bps, vals, x = [], [], 0.0
    for gap, re, im in gaps_vals:
        x += gap
        bps.append(x)
        vals.append(complex(re, im))
    return StepFunction(tuple(bps), tuple(vals))


@settings(max_examples=200, deadline=None)
@given(steps, st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_equimeasurable(gaps_vals, alpha):
    f = _build(gaps_vals)
    assert distribution(rearrange_step(f), alpha) == distribution(f, alpha)


@settings(max_examples=100, deadline=None)
@given(steps)
def test_rearrangement_idempotent(gaps_vals):
    # values reproduce exactly; breakpoints only up to re-derived piece lengths
    # (x_j - x_{j-1} reintroduces rounding), so compare those to a few ulp
    f = _build(gaps_vals)
    fs = rearrange_step(f)
    again = rearrange_step(StepFunction(fs.breakpoints, fs.values))
    assert again.values == fs.values
    assert len(again.breakpoints) == len(fs.breakpoints)
    for a, b in zip(again.breakpoints, fs.breakpoints):
        assert a == pytest.approx(b, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(steps)
def test_rearrangement_decreasing_at_exact_moduli(gaps_vals):
    f = _build(gaps_vals)
    fs = rearrange_step(f)
    assert all(a > b for a, b in zip(fs.values, fs.values[1:]))  # merged => strict
    # strictly-above measure at a stored level = accumulated length one level up,
    # bitwise (both sides are correctly-rounded sums of the same piece lengths)
    for k in range(1, len(fs.values)):
        assert distribution(f, fs.values[k]) == fs.breakpoints[k - 1]
    if fs.values:
        assert distribution(f, fs.values[0]) == 0.0
