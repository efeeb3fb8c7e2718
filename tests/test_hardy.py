"""Log-averaging transform and its weighted-norm inequality."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_gm import hardy
from lorentz_gm.generate import random_gm_headed
from lorentz_gm.hardy import ENVELOPE, hardy_lhs, hardy_report, hardy_rhs
from lorentz_gm.model import MissingHeadError, PowerHead, StepFunction
from lorentz_gm.norms import power_term, power_total
from lorentz_gm.quadrature import adaptive_integral

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
    assert r.constant == 2.0  # 1 / alpha
    assert r.ratio == pytest.approx(math.sqrt(2.0))
    half = hardy_report(RAMP, 0.5, 0.5)
    assert half.passed and half.constant == ENVELOPE[(0.5, 0.5)]


def test_report_off_lattice_and_vacuous():
    r = hardy_report(RAMP, 0.3, 2.0)
    assert r.passed and r.constant == 1.0 / 0.3  # q >= 1 needs no lattice
    below = hardy_report(RAMP, 0.3, 0.5)
    assert below.passed and math.isnan(below.constant)  # q < 1 off the envelope
    vac = hardy_report(RAMP, 2.0, 2.0)
    assert vac.passed and math.isinf(vac.rhs)
    zero = hardy_report(StepFunction((1.0,), (0.0,)), 0.5, 2.0)
    assert zero.passed and zero.lhs == 0.0


def test_envelope_lattice_shape():
    assert set(ENVELOPE) == {(a, 0.5) for a in (0.25, 0.5, 1.0, 2.0)}
    assert all(v > 0 and math.isfinite(v) for v in ENVELOPE.values())


@st.composite
def nonnegative_steps(draw):
    """Nonnegative step functions with or without a power head, on
    breakpoints across e^{+-3}; a headless one starts at 0, so that its inner
    integral converges."""
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=1, max_size=8))
    bps = tuple(math.exp(-3.0 + x) for x in np.cumsum(gaps) if x < 6.0) or (1.0,)
    head = None
    if draw(st.booleans()):
        head = PowerHead(draw(st.floats(0.01, 10.0)), draw(st.floats(0.05, 6.0)))
    value = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    values = draw(st.lists(value, min_size=len(bps) - (head is not None),
                           max_size=len(bps) - (head is not None)))
    if head is None:
        values[0] = 0.0
    return StepFunction(bps, tuple(values), head)


@settings(max_examples=300, deadline=None)
@given(
    nonnegative_steps(),
    st.floats(math.exp(-4.0), math.exp(1.5)),
    st.one_of(st.just(1.0), st.floats(1.0, 3.0), st.floats(3.0, 20.0), st.just(math.inf)),
)
@example(StepFunction((1.0, 2.0), (0.0, 1.0)), 0.3, 1.0)
@example(RAMP, 0.5, math.inf)
def test_classical_constant_holds_on_arbitrary_steps(f, alpha, q):
    # Minkowski's integral inequality gives ratio <= 1/alpha for every
    # nonnegative f at q >= 1, and Tonelli equality at q = 1
    r = hardy_report(f, alpha, q)
    assert r.passed
    if q == 1.0 and 0.0 < r.rhs < math.inf:
        assert r.constant == 1.0 / alpha
        assert abs(r.ratio * alpha - 1.0) <= 1e-10


def test_half_envelope_regenerates_with_headroom():
    # The q = 1/2 sweep over the hardy suite's family (lane 9) at seeds 1-10:
    # each entry sits at least 1.25 times above the worst ratio it finds.
    worst = dict.fromkeys(ENVELOPE, 0.0)
    for seed in range(1, 11):
        g = np.random.default_rng([seed, 9])
        for _ in range(100):
            f = random_gm_headed(g)
            for a, q in ENVELOPE:
                r = hardy_report(f, a, q)
                if 0.0 < r.rhs < math.inf:
                    worst[a, q] = max(worst[a, q], r.ratio)
    for key, entry in ENVELOPE.items():
        assert 0.0 < 1.25 * worst[key] <= entry, key


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


def _late_huge_step_lhs_by_mpmath():
    """The left side at alpha = 0.5, q = 2 of x on (0, 1], 1e300 on (1, 2] and
    0 on (2, 3]: I = x, then 1 + 1e300 log x, then constant."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        big = mpmath.mpf(1e300)
        middle = mpmath.quad(lambda u: mpmath.exp(-u) * (1 + big * u) ** 2, [0, mpmath.log(2)])
        i_total = 1 + big * mpmath.log(2)
        # (2, 3] gives I^2 (1/2 - 1/3) and the tail I^2 / 3
        return float(mpmath.sqrt(1 + middle + i_total**2 / 2))


LATE_HUGE = StepFunction((1.0, 2.0, 3.0), (1e300, 0.0), PowerHead(1.0, 1.0))


def test_a_log_piece_whose_square_overflows_gives_its_value():
    # I reaches 1e300 log 2 on (1, 2], so I^2 leaves the float range there, on
    # the constant piece after it and in the tail, but each piece's norm does not
    assert hardy_lhs(LATE_HUGE, 0.5, 2.0) == pytest.approx(_late_huge_step_lhs_by_mpmath(), rel=1e-11)


def test_an_overflowing_narrow_piece_gives_its_finite_value():
    # I = x on the head reaches 1.5e154 at x1, so I^2 would overflow on the
    # narrow piece after it, inside the Gauss pass, and in the tail; the pass
    # is scaled by I(hi), and no piece norm forms a square.  The pieces
    # integrate to about 1.5e154, 1.485e152 and 1.485e154.
    mpmath = pytest.importorskip("mpmath")
    f = StepFunction((1.5e154, 1.515e154), (1.0,), PowerHead(1.0, 1.0))
    with mpmath.workdps(40):
        lo, hi = mpmath.mpf(1.5e154), mpmath.mpf(1.515e154)
        middle = mpmath.quad(lambda u: (lo + u) ** 2 * mpmath.exp(-u), [0, mpmath.log(hi / lo)]) / lo
        exact = float(mpmath.sqrt(lo + middle + (lo + mpmath.log(hi / lo)) ** 2 / hi))
    assert exact == pytest.approx(1.7320508075688775e77, rel=1e-15)
    assert hardy_lhs(f, 0.5, 2.0) == pytest.approx(exact, rel=1e-12)


def test_an_overflowing_weight_raises():
    # lo^(-alpha) = 1e600 on the piece after a head that ends at 1e-300: the
    # piece's norm itself leaves the float range
    f = StepFunction((1e-300, 2e-300), (1.0,), PowerHead(1.0, 3.0))
    with pytest.raises(OverflowError, match="the log piece on"):
        hardy_lhs(f, 2.0, 1.0)


def test_a_subnormal_step_value_gives_a_tiny_left_side():
    # c / (alpha q) underflows to 0 on this piece, whose ends straddle a + 1
    f = StepFunction((1.0, 1e6), (0.0, 5e-324))
    assert 0.0 <= hardy_lhs(f, 2.0, 2.0) < 1e-300


def test_vanishing_start_at_q_below_one():
    # I = log x on (1, 2] starts at 0: the integrand has an (x - 1)^q corner
    # there that adaptive quadrature could not settle.  With the piece
    # 4^1.5 gammainc(1.5, 0, log(2) / 4) and the tail log(2)^0.5 2^-0.25 / 0.25,
    # mpmath gives (piece + tail)^2 = 9.906494976009225...
    assert hardy_lhs(LATE, 0.5, 0.5) == pytest.approx(9.906494976009225, rel=1e-12)


def _log_integrals(pieces, i_edges, mixed, alpha, q, rel_tol):
    """int (x^{-alpha} I(x))^q dx/x over each piece k in ``mixed``, where
    I(x) = I(lo) + c log(x/lo), by adaptive quadrature, one piece at a time:
    the path the Hardy transform took before its closed form.  A piece whose
    ratio hi/lo overflows is integrated in u = log x."""
    out = []
    for k in mixed:
        lo, hi, c, _ = pieces[k]
        i_lo = i_edges[k - 1]
        if math.isinf(hi / lo):
            log_lo = math.log(lo)

            def integrand(u):
                return np.maximum(i_lo + c * (u - log_lo), 0.0) ** q * np.exp(-alpha * q * u)

            out.append(adaptive_integral(integrand, log_lo, math.log(hi), rel_tol=rel_tol))
        else:

            def integrand(x):
                return np.maximum(i_lo + c * np.log(x / lo), 0.0) ** q * x ** (-alpha * q - 1.0)

            out.append(adaptive_integral(integrand, lo, hi, rel_tol=rel_tol))
    return out


def _lhs_by_quadrature(f, alpha, q, rel_tol):
    """``hardy_lhs`` at finite q with its log pieces from ``_log_integrals``."""
    pieces = hardy._power_pieces(f)
    i_edges = hardy._inner_edges(pieces)
    terms, mixed, i_lo = [], [], 0.0
    for k, ((lo, hi, c, e), i_hi) in enumerate(zip(pieces, i_edges)):
        if c == 0.0:
            terms.append(power_term(lo, hi, i_lo, 0.0, -alpha, q))
        elif lo == 0.0:
            terms.append(power_term(lo, hi, c / e, e, -alpha, q))
        else:
            mixed.append(k)
        i_lo = i_hi
    terms.append(power_term(pieces[-1][1], math.inf, i_edges[-1], 0.0, -alpha, q))
    if mixed:
        terms += [v ** (1.0 / q) for v in _log_integrals(pieces, i_edges, mixed, alpha, q, rel_tol)]
    return power_total(terms, q)


_FINITE_LATTICE = [(a, q) for a in (0.25, 0.5, 1.0, 2.0) for q in (0.5, 1.0, 2.0)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_FINITE_LATTICE))
def test_closed_form_agrees_with_the_quadrature_oracle(seed, pair):
    f = random_gm_headed(np.random.default_rng(seed))
    alpha, q = pair
    oracle = _lhs_by_quadrature(f, alpha, q, 1e-13)
    assert hardy_lhs(f, alpha, q) == pytest.approx(oracle, rel=1e-11)


def _piece(y0, dy, q, lo=1.5, c=0.7):
    """One log piece's norm at alpha = 1, by the path ``hardy_lhs`` takes for
    it, and its float inputs."""
    i_lo, log_ratio = y0 * c / q, dy / q
    args = (lo, c, i_lo, i_lo + c * log_ratio, log_ratio)
    if hardy._is_narrow(q * i_lo / c, q * log_ratio, q):
        value = hardy._gauss_terms(*(np.array([v]) for v in args), 1.0, q)[0]
    else:
        value = hardy._log_term(*args, 1.0, q)
    return float(value), (lo, c, i_lo, log_ratio)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(1e-8, 1e3)),
    st.floats(1e-12, 1e3),
    st.floats(0.05, 20.0),
)
@example(1e-5, 3e-5, 2.0)  # the two forms cancel where e^{y0} Gamma(a) is taken apart
@example(1e-3, 1e-3, 2.0)
@example(0.0, 0.7, 0.5)  # I(lo) = 0 at q < 1
@example(1e3, 5e2, 0.5)  # dy <= y0 / 2, but too wide for 16 nodes
@example(1e-3, 5e-4, 20.0)
@example(22.0, 1e-12, 20.0)
@example(100.0, 300.0, 200.0)  # the ends straddle a + 1 where Gamma(a) overflows
def test_log_piece_matches_mpmath(y0, dy, q):
    mpmath = pytest.importorskip("mpmath")
    value, (lo, c, i_lo, log_ratio) = _piece(y0, dy, q)
    with mpmath.workdps(80):
        q_ = mpmath.mpf(q)
        a = q_ + 1
        y0_, dy_ = q_ * mpmath.mpf(i_lo) / c, q_ * mpmath.mpf(log_ratio)
        if y0_ < a + 1:
            j = mpmath.exp(y0_) * (mpmath.gammainc(a, 0, y0_ + dy_) - mpmath.gammainc(a, 0, y0_))
        else:
            j = mpmath.exp(y0_) * (mpmath.gammainc(a, y0_) - mpmath.gammainc(a, y0_ + dy_))
        exact = float(mpmath.mpf(lo) ** -q_ * (mpmath.mpf(c) / q_) ** q_ * j / q_)
    assert value**q == pytest.approx(exact, rel=1e-12)


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


def test_a_subnormal_step_gives_its_sup():
    # alpha c underflows to 0 on the step after the head: the critical point
    # used to divide by it.  On (1e-300, 1e300] the sup c lo^-alpha e^-1 / alpha
    # lies in the float range though lo^-alpha does not.
    head = StepFunction((1.0, 2.0), (5e-324,), PowerHead(1.0, 1.0))
    assert hardy_lhs(head, 0.25, math.inf) == 1.0
    wide = StepFunction((1e-300, 1e300), (0.0, 5e-324))
    sup = hardy_lhs(wide, 2.0, math.inf)
    # taken in logarithms, to about |log c| + |alpha log lo| = 2100 eps relative
    assert sup == pytest.approx(math.ldexp(1.0, -1074) * 1e300 * 1e300 / (2.0 * math.e), rel=1e-12)
