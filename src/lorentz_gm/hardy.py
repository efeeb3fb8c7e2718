"""Logarithmic Hardy averaging of nonnegative step functions with power
heads, and the weighted-norm inequality it satisfies on the
doubling-variation class.

Functions are lowered to contiguous power pieces (lo, hi, coeff, exponent)
meaning coeff * x**exponent on (lo, hi]; a head is the piece from 0 and a
plain step is exponent 0.  The right side is the closed-form power norm of
those pieces.  The left side takes the inner transform piece by piece: where
it is itself a power piece (the head, stretches where f = 0, the tail) the
integral is ``norms.power_term``, the one closed form; only the pieces where
it grows logarithmically go through quadrature.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .model import MissingHeadError, StepFunction, VerificationReport
from .norms import power_norm, power_pieces, power_term, power_total
from .quadrature import adaptive_integral

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


def _log_piece_sup(lo: float, hi: float, c: float, i_lo: float, alpha: float) -> float:
    """sup of x^{-alpha} I(x) over (lo, hi] where I(x) = i_lo + c log(x/lo)."""
    cands = [lo, hi]
    # critical point alpha I(x) = c, at x* = lo e^arg.  An arg past log(hi/lo)
    # puts x* beyond hi, so it is dropped before exp can overflow; the margin
    # of 1 keeps every x* that rounding could still place below hi.
    arg = (c - alpha * i_lo) / (alpha * c)
    if arg < math.log(hi / lo) + 1.0:
        x_star = lo * math.exp(arg)
        if lo < x_star < hi:
            cands.append(x_star)
    return max(x ** (-alpha) * (i_lo + c * math.log(x / lo)) for x in cands)


def hardy_lhs(f, alpha: float, q: float, rel_tol: float = 1e-10) -> float:
    """(int_0^inf (x^{-alpha} I(x))^q dx/x)^{1/q} with I the inner transform.

    Where I is a power piece -- (c/gamma) x^gamma on the head, constant where
    f = 0 and past the support -- the piece goes to ``power_term``.  Where f
    is a nonzero step, I = I(lo) + c log(x/lo) grows logarithmically, and the
    piece goes through adaptive Gauss quadrature, or per-piece calculus for
    the exact supremum when q = inf.  Returns inf when the head exponent
    cannot beat alpha.
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

    terms = []
    i_lo = 0.0
    for (lo, hi, c, e), i_hi in zip(pieces, i_edges):
        if c == 0.0:  # f = 0: I is constant
            term = power_term(lo, hi, i_lo, 0.0, -alpha, q)
        elif lo == 0.0:  # the head: I = (c/gamma) x^gamma, gamma > 0
            term = power_term(lo, hi, c / e, e, -alpha, q)
            if term == math.inf:
                return math.inf
        elif math.isinf(q):
            term = _log_piece_sup(lo, hi, c, i_lo, alpha)
        else:
            term = adaptive_integral(
                lambda xs: np.maximum(i_lo + c * np.log(xs / lo), 0.0) ** q * xs ** (-alpha * q - 1.0),
                lo,
                hi,
                rel_tol=rel_tol,
            )
        terms.append(term)
        i_lo = i_hi
    terms.append(power_term(pieces[-1][1], math.inf, i_total, 0.0, -alpha, q))
    return power_total(terms, q)


def hardy_rhs(f, alpha: float, q: float) -> float:
    """(int_0^inf (x^{-alpha} f(x))^q dx/x)^{1/q}, closed form; inf is a
    valid return (head exponent <= alpha)."""
    _require_parameters(alpha, q)
    return power_norm(_power_pieces(f), -alpha, q)


# Desk-scale ratio envelope, frozen from a brute-force sweep over a seeded
# family of doubling-variation-bounded nonnegative inputs (see the generator
# module); keyed by (alpha, q).  Not a claim about the sharp constant.
ENVELOPE: dict[tuple[float, float], float] = {
    (0.25, 0.5): 46.3,
    (0.25, 1.0): 5.21,
    (0.25, 2.0): 4.92,
    (0.25, math.inf): 4.33,
    (0.5, 0.5): 11.9,
    (0.5, 1.0): 2.61,
    (0.5, 2.0): 2.6,
    (0.5, math.inf): 2.58,
    (1.0, 0.5): 3.09,
    (1.0, 1.0): 1.31,
    (1.0, 2.0): 1.3,
    (1.0, math.inf): 1.3,
    (2.0, 0.5): 0.852,
    (2.0, 1.0): 0.651,
    (2.0, 2.0): 0.65,
    (2.0, math.inf): 0.649,
}


def hardy_report(f, alpha: float, q: float, rel_tol: float = 1e-10) -> VerificationReport:
    """Averaging-transform norm against the function's own weighted norm.

    Pass needs: finite ratio whenever the right side is finite, < 1% movement
    of the left side under a 16x tighter quadrature tolerance, and (when the
    (alpha, q) pair sits on the frozen lattice) ratio within the recorded
    desk-scale envelope.  An infinite right side passes vacuously.
    """
    lhs = hardy_lhs(f, alpha, q, rel_tol)
    rhs = hardy_rhs(f, alpha, q)
    if math.isinf(rhs):
        return VerificationReport("hardy-bound", lhs, rhs, math.nan, 0.0, True)
    if rhs == 0.0:
        return VerificationReport("hardy-bound", lhs, rhs, math.nan, 0.0, lhs == 0.0)
    refined = hardy_lhs(f, alpha, q, rel_tol / 16.0)
    drift = abs(refined - lhs) / max(refined, 1e-300)
    ratio = lhs / rhs
    envelope = ENVELOPE.get((alpha, q), math.nan)
    passed = math.isfinite(ratio) and drift < 0.01
    if not math.isnan(envelope):
        passed = passed and ratio <= envelope * (1.0 + 1e-9)
    return VerificationReport("hardy-bound", lhs, rhs, envelope, ratio, passed)
