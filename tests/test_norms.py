"""Weighted / rearranged / dyadic norms: closed-form worked values."""

import math
import random

import pytest

from lorentz_gm.model import PQ, ComplexSeq, NotGMError, PowerHead, StepFunction
from lorentz_gm.norms import (
    dyadic_norm_full,
    equivalence_report,
    lorentz_norm_seq,
    lorentz_norm_step,
    power_term,
    power_total,
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


def _weighted_one(a, pq):
    """The one-pair l^q sum of the terms' own norms |a_n| n^{1/p - 1/q}, taking
    |a_n| on every call, scaled by the largest term."""
    inv_p = 0.0 if math.isinf(pq.p) else 1.0 / pq.p
    terms = [abs(v) * float(n) ** (inv_p - 1.0 / pq.q) for n, v in enumerate(a.values, start=1) if v != 0]
    top = max(terms, default=0.0)
    if math.isinf(pq.q) or top == 0.0:
        return top
    return top * math.fsum((t / top) ** pq.q for t in terms) ** (1.0 / pq.q)


def test_weighted_seq_over_many_pairs_matches_each_pair_bitwise():
    rng = random.Random(7)
    pqs = [PQ(p, q) for p in (0.5, 1.0, 4.0 / 3.0, 2.0, math.inf) for q in (0.5, 1.0, 2.0, math.inf)]
    for n in (0, 1, 5, 200):
        values = [complex(rng.choice([0.0, rng.uniform(-3, 3)]), rng.choice([0.0, rng.uniform(-1, 1)]))
                  for _ in range(n)]
        a = ComplexSeq(tuple(values))
        many = weighted_norm_seq(a, pqs)
        assert [v.hex() for v in many] == [_weighted_one(a, pq).hex() for pq in pqs]
        assert [v.hex() for v in many] == [weighted_norm_seq(a, pq).hex() for pq in pqs]


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


def _unit_pieces(a: ComplexSeq) -> StepFunction:
    """The step function equal to a_n on (n-1, n]."""
    return StepFunction(tuple(float(n) for n in range(1, len(a.values) + 1)), a.values)


def test_seq_step_equality_when_p_equals_q():
    # unit-piece extension has exactly the sequence weights for p = q
    a = ComplexSeq((2.0, 1.0, 0.5, 0.1))
    assert lorentz_norm_seq(a, PQ(2, 2)) == pytest.approx(
        lorentz_norm_step(_unit_pieces(a), PQ(2, 2)), rel=1e-15
    )


def _power_term_draws(branch: str, count: int = 40):
    """Random (lo, hi, c, e, a, q) that land in one branch of ``power_term``."""
    rng = random.Random(branch)
    for _ in range(count):
        lo = rng.uniform(0.05, 3.0)
        hi = lo * rng.uniform(1.01, 20.0)
        c, e, q = rng.uniform(0.1, 5.0), rng.uniform(-2.0, 3.0), rng.choice([0.5, 1.0, 2.0, 3.7])
        a = rng.uniform(-2.0, 2.0)
        if branch == "origin":  # lo = 0, convergent: (e + a) q >= 0.2
            lo, a = 0.0, 0.2 / q - e + rng.uniform(0.0, 2.0)
        elif branch == "log":  # e + a = 0
            a = -e
        elif branch == "infinity":  # hi = inf, convergent: (e + a) q <= -0.2
            hi, a = math.inf, -0.2 / q - e - rng.uniform(0.0, 2.0)
        yield lo, hi, c, e, a, q


@pytest.mark.parametrize("branch", ["interior", "origin", "log", "infinity"])
def test_power_term_matches_mpmath_quadrature(branch):
    # integrated in s = log x, where dx/x = ds and the origin and infinity
    # become exponentially decaying tails that tanh-sinh quadrature handles
    mpmath = pytest.importorskip("mpmath")
    for lo, hi, c, e, a, q in _power_term_draws(branch):
        with mpmath.workdps(30):
            exact = mpmath.quad(
                lambda s: (c * mpmath.exp((mpmath.mpf(e) + a) * s)) ** q,
                [mpmath.log(lo) if lo else -mpmath.inf,
                 mpmath.log(hi) if math.isfinite(hi) else mpmath.inf],
            )
        assert power_term(lo, hi, c, e, a, q) ** q == pytest.approx(float(exact), rel=1e-12)


def test_power_term_sup_matches_mpmath_grid():
    mpmath = pytest.importorskip("mpmath")
    for lo, hi, c, e, a, _ in _power_term_draws("sup"):
        grid = [mpmath.mpf(lo) + (hi - lo) * mpmath.mpf(k) / 64 for k in range(65)]
        sup = max(mpmath.mpf(c) * x ** (mpmath.mpf(e) + a) for x in grid)
        assert power_term(lo, hi, c, e, a, math.inf) == pytest.approx(float(sup), rel=1e-12)
    assert power_term(0.0, 2.0, 3.0, 1.0, -1.0, math.inf) == 3.0  # e + a = 0: constant


@pytest.mark.parametrize(
    "lo, hi, e, a, q",
    [
        (0.0, 1.0, 0.0, 0.0, 2.0),  # (e + a) q = 0 from the origin: log divergence
        (0.0, 1.0, 1.0, -1.5, 2.0),  # (e + a) q < 0 from the origin
        (0.0, 1.0, 1.0, -1.5, math.inf),  # x^{-1/2} unbounded at 0
        (1.0, math.inf, 1.0, -0.5, 2.0),  # (e + a) q > 0 out to infinity
        (1.0, math.inf, 0.5, -0.5, 2.0),  # (e + a) q = 0 out to infinity
        (1.0, math.inf, 1.0, -0.5, math.inf),  # x^{1/2} unbounded at infinity
    ],
)
def test_power_term_divergent_pieces_are_inf(lo, hi, e, a, q):
    assert power_term(lo, hi, 2.0, e, a, q) == math.inf
    assert power_term(lo, hi, 0.0, e, a, q) == 0.0  # a zero piece never diverges


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_power_total_returns_nan_wherever_the_nan_term_sits(q, at):
    # at q = inf, max alone kept a NaN only in first place
    terms = [1.0, 3.0]
    terms.insert(at, math.nan)
    assert math.isnan(power_total(terms, q))
    assert math.isnan(power_total(iter(terms), q))


def test_power_total_keeps_nan_free_totals():
    assert power_total([1.0, 3.0, 2.0], math.inf) == 3.0
    assert power_total(iter([0.5, 2.5]), math.inf) == 2.5
    assert power_total([], math.inf) == 0.0
    assert power_total([1.0, 3.0], 2.0) == pytest.approx(math.sqrt(10.0), rel=1e-15)  # the l^2 sum of the two norms
