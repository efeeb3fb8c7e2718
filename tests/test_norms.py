"""Weighted / rearranged / dyadic norms: closed-form worked values."""

import math

import pytest

from lorentz_gm.model import PQ, ComplexSeq, NotGMError, PowerHead, StepFunction, sequence_to_step
from lorentz_gm.norms import (
    dyadic_norm,
    dyadic_norm_full,
    equivalence_report,
    lorentz_norm_seq,
    lorentz_norm_step,
    seq_step_bracket,
    weighted_norm_seq,
    weighted_norm_step,
)

ONES4 = ComplexSeq((1.0, 1.0, 1.0, 1.0))


def test_weighted_seq_closed_forms():
    assert weighted_norm_seq(ONES4, PQ(2, 2)) == pytest.approx(2.0)
    assert weighted_norm_seq(ComplexSeq((2.0, 1.0)), PQ(1, 1)) == pytest.approx(3.0)
    a = ComplexSeq((1.0, 0.6, 0.3))
    assert weighted_norm_seq(a, PQ(1, math.inf)) == pytest.approx(1.2)


def test_weighted_seq_skips_zeros_for_small_q():
    a = ComplexSeq((1.0, 0.0, 0.5))
    v = weighted_norm_seq(a, PQ(3, 0.5))
    assert math.isfinite(v) and v > 0


def test_lorentz_seq_rearranges_first():
    a = ComplexSeq((0.5, 2.0))
    assert weighted_norm_seq(a, PQ(2, 1)) == pytest.approx(0.5 + 2.0 / math.sqrt(2.0))
    assert lorentz_norm_seq(a, PQ(2, 1)) == pytest.approx(2.0 + 0.5 / math.sqrt(2.0))


def test_lorentz_range_enforced():
    with pytest.raises(ValueError):
        lorentz_norm_seq(ONES4, PQ(math.inf, 2.0))
    # p = q = inf is allowed: plain sup
    assert lorentz_norm_seq(ComplexSeq((0.3, -1.5)), PQ(math.inf, math.inf)) == pytest.approx(1.5)


UNIT2 = StepFunction((2.0,), (1.0,))


def test_weighted_step_closed_forms():
    assert weighted_norm_step(UNIT2, PQ(2, 2)) == pytest.approx(math.sqrt(2.0))
    assert weighted_norm_step(UNIT2, PQ(2, math.inf)) == pytest.approx(math.sqrt(2.0))
    shifted = StepFunction((1.0, 2.0), (0.0, 1.0))
    assert weighted_norm_step(shifted, PQ(math.inf, 2.0)) == pytest.approx(math.sqrt(math.log(2.0)))


def test_weighted_step_head_region():
    h = StepFunction((1.0,), (), PowerHead(1.0, 1.0))
    assert weighted_norm_step(h, PQ(2, 2)) == pytest.approx(math.sqrt(1.0 / 3.0))
    # q = inf: x^{1/p} x is increasing, sup at the junction
    assert weighted_norm_step(h, PQ(2, math.inf)) == pytest.approx(1.0)


def test_weighted_step_origin_divergence():
    assert weighted_norm_step(UNIT2, PQ(math.inf, 2.0)) == math.inf
    assert weighted_norm_step(UNIT2, PQ(math.inf, math.inf)) == pytest.approx(1.0)


def test_dyadic_range_sum_and_warning():
    with pytest.warns(UserWarning):
        v = dyadic_norm(UNIT2, PQ(2, 2), (-3, 1))
    expect = math.fsum(2.0**k for k in range(-3, 2))
    assert v == pytest.approx(math.sqrt(expect))
    with pytest.raises(ValueError):
        dyadic_norm(UNIT2, PQ(2, 2), (1, 0))


def test_dyadic_full_geometric_tail():
    assert dyadic_norm_full(UNIT2, PQ(2, 2)) == pytest.approx(2.0)
    band = StepFunction((1.0, 3.0), (0.0, 1.0))
    assert dyadic_norm_full(band, PQ(2, 2)) == pytest.approx(math.sqrt(2.0))
    assert dyadic_norm_full(band, PQ(2, math.inf)) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        dyadic_norm_full(StepFunction((1.0,), (), PowerHead(1.0, 1.0)), PQ(2, 2))


def test_equivalence_rows_on_decreasing_function():
    f = StepFunction((1.0, 2.0, 4.0), (4.0, 2.0, 1.0))
    rows = equivalence_report(f, PQ(2, 2), 1.0)
    assert len(rows) == 5
    assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]


def test_equivalence_rejects_bad_constants():
    f = StepFunction((1.0,), (1.0,))
    with pytest.raises(NotGMError):
        equivalence_report(f, PQ(2, 2), math.inf)
    with pytest.raises(ValueError):
        equivalence_report(f, PQ(2, 2), 0.5)


def test_seq_step_bracket_tight_cases():
    assert seq_step_bracket(PQ(2, 2)) == (1.0, 1.0)
    assert seq_step_bracket(PQ(2, math.inf)) == (1.0, 1.0)
    lo, hi = seq_step_bracket(PQ(2, 1))  # s = 1/2 < 1
    assert lo == pytest.approx(0.5)
    assert hi == 1.0


@pytest.mark.parametrize("p,q", [(1.0, 2.0), (2.0, 1.0), (3.0, 0.5), (2.0, math.inf)])
def test_seq_step_bracket_contains_ratio(p, q):
    pq = PQ(p, q)
    lo, hi = seq_step_bracket(pq)
    seqs = [
        ComplexSeq((1.0,)),
        ComplexSeq((1.0, 1.0, 1.0)),
        ComplexSeq((3.0, 1.0, 0.5, 0.25)),
        ComplexSeq(tuple(1.0 / k for k in range(1, 25))),
        ComplexSeq((0.2, 2.0, 0.0, 1.0, 0.7)),
    ]
    for a in seqs:
        r = lorentz_norm_seq(a, pq) / lorentz_norm_step(sequence_to_step(a), pq)
        assert lo * (1 - 1e-12) <= r <= hi * (1 + 1e-12), (a.values, r, lo, hi)


def test_seq_step_equality_when_p_equals_q():
    # unit-piece extension has exactly the sequence weights for p = q
    a = ComplexSeq((2.0, 1.0, 0.5, 0.1))
    assert lorentz_norm_seq(a, PQ(2, 2)) == pytest.approx(
        lorentz_norm_step(sequence_to_step(a), PQ(2, 2)), rel=1e-15
    )
