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
