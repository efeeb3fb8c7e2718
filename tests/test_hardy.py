"""Log-averaging transform, its weighted-norm inequality, product closure."""

import math

import pytest

from lorentz_gm.hardy import (
    ENVELOPE,
    gm_product_report,
    hardy_inner,
    hardy_lhs,
    hardy_report,
    hardy_rhs,
    product_step,
    reduction_report,
)
from lorentz_gm.model import (
    MissingHeadError,
    PowerHead,
    RepresentationError,
    StepFunction,
)

RAMP = StepFunction((1.0,), (), PowerHead(1.0, 1.0))  # f(x) = x on (0, 1]
LATE = StepFunction((1.0, 2.0), (0.0, 1.0))  # vanishes near 0, no head needed


def test_inner_transform_values():
    assert hardy_inner(RAMP, 0.5) == 0.5
    assert hardy_inner(RAMP, 2.0) == 1.0
    assert hardy_inner(LATE, 2.0) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        hardy_inner(RAMP, 0.0)


def test_inner_requires_head_at_origin():
    f = StepFunction((1.0,), (1.0,))
    with pytest.raises(MissingHeadError):
        hardy_inner(f, 1.0)
    with pytest.raises(MissingHeadError):
        hardy_lhs(f, 0.5, 1.0)


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


def test_reduction_vacuous_case():
    r = reduction_report(RAMP, 2.0, 2.0)
    assert r.passed
    assert math.isinf(r.lhs) and math.isinf(r.rhs)
    assert r.constant == 0.5  # chosen shift
    with pytest.raises(ValueError):
        reduction_report(RAMP, 0.9, 2.0)
    with pytest.raises(ValueError):
        reduction_report(RAMP, 2.0, 2.0, epsilon=1.5)


def test_reduction_finite_case():
    steep = StepFunction((1.0,), (), PowerHead(2.0, 3.0))
    r = reduction_report(steep, 2.0, 2.0)
    assert r.passed
    assert r.lhs == pytest.approx(math.sqrt(1.0 / 3.0))
    assert r.rhs == pytest.approx(math.sqrt(8.0 / 3.0))
    assert r.ratio == pytest.approx(math.sqrt(1.0 / 8.0))


def test_product_headless():
    f = StepFunction((1.0, 2.0), (1.0, 2.0))
    g = StepFunction((1.5,), (3.0,))
    p = product_step(f, g)
    assert p.head is None
    assert p.eval(0.5) == 3.0 + 0j
    assert p.eval(1.2) == 6.0 + 0j
    assert p.eval(1.7) == 0j


def test_product_shared_junction_heads():
    h1 = StepFunction((1.0,), (), PowerHead(2.0, 1.0))
    h2 = StepFunction((1.0,), (), PowerHead(3.0, 2.0))
    p = product_step(h1, h2)
    assert p.head == PowerHead(6.0, 3.0)
    assert p.eval(0.5) == pytest.approx(6.0 * 0.125)
    mismatched = StepFunction((2.0,), (), PowerHead(1.0, 1.0))
    with pytest.raises(RepresentationError):
        product_step(h1, mismatched)


def test_product_head_times_constant_lead():
    g = StepFunction((2.0,), (5.0,))
    p = product_step(RAMP, g)
    assert p.head == PowerHead(5.0, 1.0)
    assert p.eval(0.5) == pytest.approx(2.5)
    assert p.eval(1.5) == 0j


def test_product_unrepresentable_cases():
    wide = StepFunction((2.0,), (), PowerHead(1.0, 1.0))
    with pytest.raises(RepresentationError):
        product_step(wide, StepFunction((1.0, 3.0), (2.0, 4.0)))
    with pytest.raises(RepresentationError):
        product_step(RAMP, StepFunction((2.0,), (-1.0,)))


def test_product_zero_cases():
    zero = StepFunction((1.0,), (0.0,))
    p = product_step(RAMP, zero)
    assert p.head is None and all(v == 0 for v in p.values)
    # zero leading value kills the head region but not the representation
    wide = StepFunction((2.0,), (), PowerHead(1.0, 1.0))
    lead0 = product_step(wide, StepFunction((2.0, 3.0), (0.0, 1.0)))
    assert lead0.head is None
    assert lead0.eval(1.0) == 0j


def test_gm_product_bound():
    r = gm_product_report(RAMP, RAMP)
    assert r.lhs == 7.0
    assert r.rhs == 9.0
    assert r.constant == 4.0
    assert r.passed
