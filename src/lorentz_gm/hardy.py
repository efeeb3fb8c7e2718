"""Logarithmic Hardy averaging of nonnegative step functions with power
heads, and the weighted-norm inequality it satisfies on the
doubling-variation class.

Functions are lowered to contiguous power pieces (lo, hi, coeff, exponent)
meaning coeff * x**exponent on (lo, hi]; a head is the piece from 0 and a
plain step is exponent 0.  The right side is the closed-form power norm of
those pieces.  The left side takes the inner transform piece by piece: where
it is itself a power piece (the head, stretches where f = 0, the tail) the
piece's norm is ``norms.power_term``, the one closed form; where it grows
logarithmically, the root of an incomplete gamma difference.
"""

from __future__ import annotations

import math
from itertools import accumulate, count

import numpy as np

from .model import MissingHeadError, StepFunction, VerificationReport
from .norms import _log_ratio, _scaled_power, power_norm, power_pieces, power_term, power_total
from .quadrature import gauss_sums

__all__ = [
    "hardy_lhs",
    "hardy_rhs",
    "hardy_report",
    "ENVELOPE",
]


def _power_pieces(f: StepFunction) -> list[tuple[float, float, float, float]]:
    """Contiguous (lo, hi, coeff, exponent) pieces of a nonnegative input."""
    for v in f.values:
        if v.imag != 0.0 or v.real < 0.0:
            raise ValueError("averaging transform is defined for nonnegative inputs")
    return power_pieces(f)


def _require_parameters(alpha: float, q: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be finite and positive")
    if not q > 0:
        raise ValueError("q must be positive (possibly inf)")


def _require_convergent(pieces) -> None:
    for lo, hi, c, e in pieces:
        if c == 0.0:
            continue
        if lo == 0.0 and e <= 0.0:
            raise MissingHeadError(
                "inner integral diverges at 0: nonzero near the origin needs a power head"
            )
        return  # first nonzero piece decides


def _inner_edges(pieces) -> list[float]:
    """I at every piece right edge, I(x) = int_0^x f dt/t."""
    return list(accumulate(power_term(lo, hi, c, e, 0.0, 1.0) for lo, hi, c, e in pieces))


def _log_piece_sup(lo, hi, c, i_lo, i_hi, log_ratio, alpha) -> float:
    """sup of x^{-alpha} I(x) over (lo, hi], I(x) = i_lo + c log(x/lo), at an end
    or at the critical point alpha I = c, where log(x/lo) = arg <= log_ratio and
    x^{-alpha} I = c lo^{-alpha} e^{-alpha arg} / alpha with alpha arg <= 1."""
    arg = 1.0 / alpha - i_lo / c  # alpha c may underflow to 0
    crit = _scaled_power(c, lo, -alpha) * math.exp(-alpha * arg) / alpha if 0.0 < arg < log_ratio else 0.0
    return max(_scaled_power(i_lo, lo, -alpha), _scaled_power(i_hi, hi, -alpha), crit)


def _scaled_gamma(y: float, a: float) -> float:
    """e^y y^-q gamma(a, y) below y = a + 1, from its series (DLMF 8.7.1);
    from there on -e^y y^-q Gamma(a, y), from Lentz's continued fraction
    (DLMF 8.9.2), which rounds to -1 past y = 1e17 a.  Here q = a - 1."""
    if y < a + 1.0:
        term = total = y / a
        while term > total * 2.0**-53:
            term *= y / (a := a + 1.0)
            total += term
        return total
    if y > 1e17 * a:
        return -1.0
    b, c = y + 1.0 - a, 1e300
    d = h = 1.0 / b
    for i in count(1.0):
        an, b = i * (a - i), b + 2.0
        d, c = 1.0 / (an * d + b or 1e-300), b + an / c or 1e-300
        h *= d * c
        if abs(d * c - 1.0) <= 2.0**-52:
            return -y * h


def _log_term(lo, c, i_lo, i_hi, log_ratio, alpha, q) -> float:
    """The norm of a log piece, I = I(lo) + c u with u = log(x/lo) up to
    log_ratio = log(hi/lo): lo^{-alpha} I(hi) times J^{1/q}, where
    J = int e^{-alpha q u} (I / I(hi))^q du; 0 where lo^{-alpha} I(hi) underflows.

    With y = alpha q I / c, dy = y1 - y0 and a = q + 1, alpha q J is
    (c / (alpha q I(hi)))^q e^{y0} [gamma(a, y1) - gamma(a, y0)], which is
    e^{-dy} G(y1) - (I(lo) / I(hi))^q G(y0) with G = ``_scaled_gamma``, plus
    (c / (alpha q I(hi)))^q e^{y0} Gamma(a) only where the ends straddle a + 1."""
    scale = _scaled_power(i_hi, lo, -alpha)
    if scale == 0.0:
        return 0.0
    aq, a = alpha * q, q + 1.0
    y0, dy = aq * i_lo / c, aq * log_ratio
    s = math.exp(-dy) * _scaled_gamma(y0 + dy, a) - (i_lo / i_hi) ** q * _scaled_gamma(y0, a)
    if y0 < a + 1.0 <= y0 + dy:
        # in logarithms: Gamma(a) overflows past q = 170; c / I(hi) <= 1 / l does not change with scale
        s += math.exp(q * (math.log(c / i_hi) - math.log(aq)) + y0 + math.lgamma(a))
    return scale * (s / aq) ** (1.0 / q)


# A log piece is narrow when dy <= y0 / 2 and dy (1 + q / y0) <= _SPAN, with
# y0 and dy as in ``_log_term``.  In t = alpha q u its integrand
# (y0 + t)^q e^{-t} on [0, dy] then has its one singularity, t = -y0, at least
# 5 half-widths from the centre, and on the Bernstein ellipse rho = 9 it is at
# most e^{2.78 _SPAN} times its least value on [0, dy].  So the 16-node Gauss
# rule errs by less than 1e-17 relative (Trefethen, ATAP Thm 19.3).
_SPAN = 12.0


def _is_narrow(y0: float, dy: float, q: float) -> bool:
    return dy <= y0 / 2.0 and dy * (1.0 + q / y0) <= _SPAN


def _gauss_terms(lo, c, i_lo, i_hi, log_ratio, alpha: float, q: float) -> np.ndarray:
    """``_log_term`` over arrays of narrow pieces, by the 16-node Gauss rule in u, with the
    scale lo^{-alpha} I(hi) in numpy and ``_scaled_power`` only where that leaves the range."""
    aq = alpha * q
    with np.errstate(over="ignore"):
        scale = i_hi * lo**-alpha
    for k in np.flatnonzero(~(0.0 < scale) | (scale == math.inf)).tolist():
        scale[k] = _scaled_power(float(i_hi[k]), float(lo[k]), -alpha)

    def vals(part, x):  # e^{-alpha q u} (I / I(hi))^q at the nodes
        u = 0.5 * log_ratio[part, None] * (1.0 + x)
        return np.exp(-aq * u) * ((i_lo[part, None] + c[part, None] * u) / i_hi[part, None]) ** q

    return scale * (0.5 * log_ratio * gauss_sums(vals, len(lo))) ** (1.0 / q)


def hardy_lhs(f, alpha: float, q: float) -> float:
    """(int_0^inf (x^{-alpha} I(x))^q dx/x)^{1/q} with I the inner transform.

    Where I is a power piece -- (c/gamma) x^gamma on the head, constant where
    f = 0 and past the support -- the piece goes to ``power_term``.  Where f
    is a nonzero step, I = I(lo) + c log(x/lo) grows logarithmically: such a
    piece's norm is ``_log_term``, or for narrow pieces one Gauss pass; for
    q = inf, per-piece calculus gives the exact supremum.  Returns inf when
    the head exponent cannot beat alpha; raises OverflowError when a log
    piece's norm leaves the float range.
    """
    _require_parameters(alpha, q)
    pieces = _power_pieces(f)
    if not any(c for _, _, c, _ in pieces):
        return 0.0
    _require_convergent(pieces)
    i_edges = _inner_edges(pieces)
    i_total = i_edges[-1]
    if i_total == 0.0:
        return 0.0

    terms, logs, narrow = [], [], []  # logs: (lo, hi, norm) where I grows logarithmically
    i_lo = 0.0
    for (lo, hi, c, e), i_hi in zip(pieces, i_edges):
        if c == 0.0:  # f = 0: I is constant
            terms.append(power_term(lo, hi, i_lo, 0.0, -alpha, q))
        elif lo == 0.0:  # the head: I = (c/gamma) x^gamma, gamma > 0
            terms.append(power_term(lo, hi, c / e, e, -alpha, q))
            if terms[-1] == math.inf:
                return math.inf
        else:
            log_ratio = _log_ratio(lo, hi)
            if math.isinf(q):
                logs.append((lo, hi, _log_piece_sup(lo, hi, c, i_lo, i_hi, log_ratio, alpha)))
            elif _is_narrow(alpha * q * i_lo / c, alpha * q * log_ratio, q):
                narrow.append((lo, hi, c, i_lo, i_hi, log_ratio))
            else:
                logs.append((lo, hi, _log_term(lo, c, i_lo, i_hi, log_ratio, alpha, q)))
        i_lo = i_hi
    if narrow:
        lo, hi, c, i_lo, i_hi, log_ratio = np.array(narrow).T
        logs += zip(lo.tolist(), hi.tolist(), _gauss_terms(lo, c, i_lo, i_hi, log_ratio, alpha, q).tolist())
    for lo, hi, norm in logs:
        if not math.isfinite(norm):
            raise OverflowError(f"the log piece on [{lo:g}, {hi:g}] overflows")
        terms.append(norm)
    terms.append(power_term(pieces[-1][1], math.inf, i_total, 0.0, -alpha, q))
    return power_total(terms, q)


def hardy_rhs(f, alpha: float, q: float) -> float:
    """(int_0^inf (x^{-alpha} f(x))^q dx/x)^{1/q}, closed form; inf is a
    valid return (head exponent <= alpha)."""
    _require_parameters(alpha, q)
    return power_norm(_power_pieces(f), -alpha, q)


# Ratio envelope at q = 1/2, which has no classical constant, keyed by (alpha, q):
# frozen from a sweep over the hardy suite's seeded family, which
# ``tests/test_hardy.py`` reruns.  Not a claim about the sharp constant.
ENVELOPE: dict[tuple[float, float], float] = {
    (0.25, 0.5): 46.3,
    (0.5, 0.5): 11.9,
    (1.0, 0.5): 3.09,
    (2.0, 0.5): 0.852,
}


def hardy_report(f, alpha: float, q: float) -> VerificationReport:
    """Averaging-transform norm against the function's own weighted norm.

    For q >= 1 the constant is 1/alpha: x^{-alpha} I(x) is
    int_0^1 s^alpha (xs)^{-alpha} f(xs) ds/s, so by Minkowski's integral
    inequality in L^q(dx/x) the ratio is at most int_0^1 s^alpha ds/s = 1/alpha,
    and equal to it at q = 1 by Tonelli (Bennett & Sharpley, *Interpolation of
    Operators*, Ch. 3, Lemma 3.9).  Below q = 1 a pair in ``ENVELOPE`` is gated on
    its entry, any other on a finite ratio.  An infinite right side passes vacuously.
    """
    lhs = hardy_lhs(f, alpha, q)
    rhs = hardy_rhs(f, alpha, q)
    if math.isinf(rhs) or rhs == 0.0:
        return VerificationReport("hardy-bound", lhs, rhs, math.nan, 0.0, math.isinf(rhs) or lhs == 0.0)
    ratio = lhs / rhs
    constant = 1.0 / alpha if q >= 1.0 else ENVELOPE.get((alpha, q), math.nan)
    passed = math.isfinite(ratio) and (math.isnan(constant) or ratio <= constant * (1.0 + 1e-9))
    return VerificationReport("hardy-bound", lhs, rhs, constant, ratio, passed)
