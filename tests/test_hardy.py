"""Log-averaging transform and its weighted-norm inequality."""

import math

import pytest

from lorentz_gm.hardy import ENVELOPE, hardy_lhs, hardy_report, hardy_rhs
from lorentz_gm.model import MissingHeadError, PowerHead, StepFunction

RAMP = StepFunction((1.0,), (), PowerHead(1.0, 1.0))  # f(x) = x on (0, 1]
LATE = StepFunction((1.0, 2.0), (0.0, 1.0))  # vanishes near 0, no head needed


def test_inner_requires_head_at_origin():
    f = StepFunction((1.0,), (1.0,))
    with pytest.raises(MissingHeadError):
        hardy_lhs(f, 0.5, 1.0)
    with pytest.raises(MissingHeadError):
        hardy_lhs(f, 0.5, math.inf)


def test_worked_ratio_is_sqrt2():
    lhs = hardy_lhs(RAMP, 0.5, 2.0)
    rhs = hardy_rhs(RAMP, 0.5, 2.0)
    assert abs(lhs / rhs - math.sqrt(2.0)) <= 1e-10
    assert rhs == pytest.approx(1.0)


def test_sup_norms_of_ramp():
    assert hardy_lhs(RAMP, 0.5, math.inf) == pytest.approx(1.0)
    assert hardy_rhs(RAMP, 0.5, math.inf) == pytest.approx(1.0)


def test_steep_alpha_diverges():
    assert hardy_lhs(RAMP, 1.5, 1.0) == math.inf
    assert hardy_rhs(RAMP, 2.0, math.inf) == math.inf


def test_steep_alpha_closed_form():
    # f = 2x^3 on (0, 1]: I = 2x^3/3 there and 2/3 beyond, so at alpha = 2 the
    # left side squared is (4/9)(1/2 + 1/4) = 1/3 and the right side's is 2.
    steep = StepFunction((1.0,), (), PowerHead(2.0, 3.0))
    assert hardy_lhs(steep, 2.0, 2.0) == pytest.approx(math.sqrt(1.0 / 3.0))
    assert hardy_rhs(steep, 2.0, 2.0) == pytest.approx(math.sqrt(2.0))


def test_late_support_closed_form():
    # I = log x on (1, 2], log 2 beyond: integral in closed form 4 - 2 sqrt(2)
    assert hardy_lhs(LATE, 0.5, 1.0) == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=1e-9)
    assert hardy_rhs(LATE, 0.5, 1.0) == pytest.approx(2.0 - math.sqrt(2.0))


def test_transform_validation():
    with pytest.raises(ValueError):
        hardy_lhs(RAMP, 0.0, 1.0)
    with pytest.raises(ValueError):
        hardy_rhs(RAMP, 0.5, -1.0)
    with pytest.raises(ValueError):
        hardy_lhs(StepFunction((1.0,), (-1.0,)), 0.5, 1.0)
    assert hardy_lhs(StepFunction((1.0,), (0.0,)), 0.5, 1.0) == 0.0


@pytest.mark.parametrize("alpha, q", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan)])
def test_non_finite_parameters_are_refused(alpha, q):
    with pytest.raises(ValueError):
        hardy_lhs(RAMP, alpha, q)
    with pytest.raises(ValueError):
        hardy_rhs(RAMP, alpha, q)


def test_report_on_lattice_point():
    r = hardy_report(RAMP, 0.5, 2.0)
    assert r.passed
    assert r.constant == ENVELOPE[(0.5, 2.0)]
    assert r.ratio == pytest.approx(math.sqrt(2.0))


def test_report_off_lattice_and_vacuous():
    r = hardy_report(RAMP, 0.3, 2.0)
    assert r.passed and math.isnan(r.constant)
    vac = hardy_report(RAMP, 2.0, 2.0)
    assert vac.passed and math.isinf(vac.rhs)
    zero = hardy_report(StepFunction((1.0,), (0.0,)), 0.5, 2.0)
    assert zero.passed and zero.lhs == 0.0


def test_envelope_lattice_shape():
    assert len(ENVELOPE) == 16
    assert all(v > 0 and math.isfinite(v) for v in ENVELOPE.values())
    assert {a for a, _ in ENVELOPE} == {0.25, 0.5, 1.0, 2.0}


def test_sup_with_critical_point_past_float_range():
    # At alpha = 1e-5 the critical point of x^{-alpha} I(x) on (1, 2] sits at
    # e^{~1e5}; computing it used to raise OverflowError in math.exp.
    import numpy as np

    f = StepFunction((1.0, 2.0, 3.0), (0.5, 0.25), PowerHead(1.0, 1.0))
    alpha = 1e-5
    sup = hardy_lhs(f, alpha, math.inf)
    xs = np.union1d(np.geomspace(1e-3, 1e3, 200_001), [1.0, 2.0, 3.0])
    inner = np.where(
        xs <= 1.0,
        xs,
        1.0 + 0.5 * np.log(np.minimum(xs, 2.0))
        + 0.25 * np.log(np.clip(xs, 2.0, 3.0) / 2.0),
    )
    assert math.isfinite(sup)
    assert sup == pytest.approx(float(np.max(xs ** -alpha * inner)), rel=1e-9)


def test_a_failing_log_piece_comes_before_a_later_closed_form():
    # I reaches 1e300 log 2 on (1, 2]: the quadrature there overflows
    # (ValueError), and so does power_term on the constant piece after it
    # (OverflowError); the error raised is the first piece's
    f = StepFunction((1.0, 2.0, 3.0), (1e300, 0.0), PowerHead(1.0, 1.0))
    with pytest.raises(ValueError, match=r"not finite on \[1, 2\]"):
        hardy_lhs(f, 0.5, 2.0)


# On (1e-300, 1e10] the ratio hi/lo overflows: I = 1e-300 + log(x/1e-300)
# there is taken as log x - log 1e-300, and the piece is integrated in log x.
WIDE = StepFunction((1e-300, 1e10), (1.0,), PowerHead(1.0, 1.0))
WIDE_ALPHA = 1.0 / 712.0


def test_sup_on_a_piece_whose_ratio_overflows():
    # the critical point log x* = log 1e-300 + 712 used to overflow math.exp
    import numpy as np

    us = np.linspace(math.log(1e-300), math.log(1e10), 400_001)
    inner = 1e-300 + (us - math.log(1e-300))
    dense = float(np.max(np.exp(-WIDE_ALPHA * us) * inner))
    assert hardy_lhs(WIDE, WIDE_ALPHA, math.inf) == pytest.approx(dense, rel=1e-9)


def test_norm_on_a_piece_whose_ratio_overflows_matches_mpmath():
    # used to raise "integrand is not finite": x / 1e-300 overflowed
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        lo, hi, a = mpmath.mpf("1e-300"), mpmath.mpf("1e10"), mpmath.mpf(1) / 712
        head = lo ** (2 - 2 * a) / (2 - 2 * a)  # I = x on (0, lo]
        middle = mpmath.quad(
            lambda u: ((lo + u - mpmath.log(lo)) * mpmath.exp(-a * u)) ** 2,
            mpmath.linspace(mpmath.log(lo), mpmath.log(hi), 65),
        )
        i_total = lo + mpmath.log(hi) - mpmath.log(lo)
        tail = i_total**2 * hi ** (-2 * a) / (2 * a)
        exact = float(mpmath.sqrt(head + middle + tail))
    assert hardy_lhs(WIDE, WIDE_ALPHA, 2.0) == pytest.approx(exact, rel=1e-9)
