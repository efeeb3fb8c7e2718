"""Weighted and Lorentz norms with closed-form evaluation, the full dyadic-sum
norm, and the explicit-constant equivalence report for almost-monotone step
functions.

No quadrature here: a function is lowered to power pieces c x^e, and every
power-weighted norm of them is a finite sum of power-function antiderivatives,
so equivalence ratios carry only rounding error.  ``power_term`` is the one
closed form for such a piece, its own norm (int (x^a c x^e)^q dx/x)^{1/q} or
its sup, and ``power_total`` the one l^q sum of piece norms; ``power_norm``
here, and the Hardy transform and the interpolation norm elsewhere, build
their norms from the two.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .model import (
    PQ,
    ComplexSeq,
    NotGMError,
    RepresentationError,
    StepFunction,
    VerificationReport,
    make_report,
)
from .rearrange import DecreasingStep, rearrange_seq, rearrange_step

__all__ = [
    "power_pieces",
    "power_term",
    "power_total",
    "power_norm",
    "weighted_norm_seq",
    "weighted_norm_step",
    "lorentz_norm_seq",
    "lorentz_norm_step",
    "dyadic_norm_full",
    "equivalence_report",
]


def _require_lorentz(pq: PQ) -> None:
    if not pq.lorentz_admissible:
        raise ValueError(f"(p,q)=({pq.p},{pq.q}) is outside the Lorentz range "
                         "(need p < inf, or p = q = inf)")


def weighted_norm_seq(a: ComplexSeq, pq):
    """(sum |a_n|^q n^{q/p-1})^{1/q}, from the terms |a_n| n^{1/p - 1/q} at every q.
    For a sequence of ``PQ``, a list with one norm per pair, from one set of moduli."""
    terms = [(float(n), abs(v)) for n, v in enumerate(a.values, start=1) if v != 0]
    out = []
    for x in [pq] if isinstance(pq, PQ) else pq:
        x_n = (0.0 if math.isinf(x.p) else 1.0 / x.p) - 1.0 / x.q
        out.append(power_total([m * n**x_n for n, m in terms], x.q))
    return out[0] if isinstance(pq, PQ) else out


def power_pieces(f: StepFunction) -> list[tuple[float, float, float, float]]:
    """|f| as contiguous (lo, hi, c, e) pieces, meaning c x^e on (lo, hi]; a
    head is the piece from 0 and a plain step has e = 0."""
    out = [] if f.head is None else [(0.0, f.head_edge, f.head.c, f.head.gamma)]
    out += [(lo, hi, abs(v), 0.0) for lo, hi, v in f.pieces()]
    return out


def _log_ratio(lo: float, hi: float) -> float:
    """log(hi/lo), from the two logarithms where hi/lo overflows; inf at lo = 0."""
    if lo == 0.0:
        return math.inf
    ratio = hi / lo
    return math.log(ratio) if math.isfinite(ratio) else math.log(hi) - math.log(lo)


def _scaled_power(c: float, x: float, s: float) -> float:
    """c x^s for c >= 0 and x > 0, a power piece's sup: in logarithms where the
    direct product leaves the float range, and inf where c x^s itself does."""
    try:
        value = c * x**s
    except OverflowError:
        value = 0.0  # taken in logarithms below
    if 0.0 < value < math.inf or c == 0.0:
        return value
    log_value = math.log(c) + s * math.log(x)
    return math.exp(log_value) if log_value <= math.log(sys.float_info.max) else math.inf


def power_term(lo: float, hi: float, c: float, e: float, a: float, q: float) -> float:
    """The piece's own norm (int_lo^hi (x^a c x^e)^q dx/x)^{1/q} in closed form;
    its sup over (lo, hi] when q = inf.

    With s = e + a that is the sup c x^s at the piece's larger end times the
    shape root E^{1/q}, E = int_0^l e^{-r u} du = -expm1(-r l)/r with
    r = |s| q and l = log(hi/lo) (E = l at r = 0), so no q-th power of c or
    of an end is formed.  ``hi`` may be inf.  Returns ``inf`` when the piece
    diverges: at the origin when lo = 0 and s <= 0, at infinity when hi = inf
    and s >= 0 (s < 0 and s > 0 for q = inf).  Raises OverflowError where a
    convergent piece's norm leaves the float range.
    """
    if c == 0.0:
        return 0.0
    s = e + a
    if ((lo == 0.0 and s <= 0.0) or (hi == math.inf and s >= 0.0)) and (s != 0.0 or q < math.inf):
        return math.inf
    norm = _scaled_power(c, hi if s > 0.0 else lo, s)
    if q < math.inf:
        r, ell = abs(s) * q, _log_ratio(lo, hi)
        norm *= (-math.expm1(-r * ell) / r if r else ell) ** (1.0 / q)
    if math.isinf(norm):
        raise OverflowError(f"the power piece on [{lo:g}, {hi:g}] overflows")
    return norm


def power_total(terms, q: float) -> float:
    """The l^q sum of the pieces' norms (``power_term`` values), scale free:
    top fsum((t / top)^q)^{1/q} with top the largest, so that no q-th power
    leaves the float range; their max when q = inf; NaN if any term is, at
    every q.  Raises OverflowError where finite terms sum past the float range."""
    array = isinstance(terms, np.ndarray)  # numpy for arrays; a short list is faster in Python
    terms = terms if array else list(terms)
    top = float(terms.max(initial=0.0)) if array else max(terms) if terms else 0.0  # numpy's max keeps NaN
    if math.isinf(q) or not 0.0 < top < math.inf:
        return top if array or not any(map(math.isnan, terms)) else math.nan
    ratios = ((terms / top) ** q).tolist() if array else [(t / top) ** q for t in terms]
    total = top * math.fsum(ratios) ** (1.0 / q)
    if math.isinf(total):
        raise OverflowError("the norm overflows")
    return total


def power_norm(pieces, a: float, q: float) -> float:
    """(int_0^inf (x^a g(x))^q dx/x)^{1/q} of g given as power pieces, in
    closed form; sup_x x^a g(x) when q = inf.  Returns ``inf`` at the first
    piece that diverges at the origin."""
    terms = []
    for lo, hi, c, e in pieces:
        terms.append(power_term(lo, hi, c, e, a, q))
        if terms[-1] == math.inf:
            return math.inf
    return power_total(terms, q)


def weighted_norm_step(f: StepFunction, pq: PQ) -> float:
    """Closed-form (int_0^inf x^{q/p-1} |f|^q dx)^{1/q}; sup-form when q = inf.

    Returns ``inf`` for p = inf, q < inf when f does not vanish on the first
    interval (the dx/x integral diverges at the origin).  Heads with gamma > 0
    always converge.
    """
    return power_norm(power_pieces(f), 1.0 / pq.p, pq.q)


def lorentz_norm_seq(a: ComplexSeq, pq: PQ) -> float:
    _require_lorentz(pq)
    return weighted_norm_seq(rearrange_seq(a), pq)


def lorentz_norm_step(f, pq: PQ) -> float:
    _require_lorentz(pq)
    fstar = f if isinstance(f, DecreasingStep) else rearrange_step(f)
    return weighted_norm_step(fstar, pq)


def _largest_dyadic_at_most(hi: float) -> int:
    k = math.floor(math.log2(hi))
    while 2.0**k > hi:
        k -= 1
    while 2.0 ** (k + 1) <= hi:
        k += 1
    return k


def dyadic_norm_full(f: StepFunction, pq: PQ) -> float:
    """The dyadic norm over ALL k in Z, with the geometric tail toward 0 summed
    in closed form.  Plain step functions only (no power heads)."""
    if f.head is not None:
        raise RepresentationError("full dyadic norm is defined for plain step functions")
    inv_p, q = 0.0 if math.isinf(pq.p) else 1.0 / pq.p, pq.q
    s = q * inv_p
    terms = []
    for lo, hi, v in f.pieces():
        if v == 0:
            continue
        # each dyadic point 2^k in (lo, hi] gives 2^{k/p} |v|; toward 0 the
        # points below 2^k sum to the geometric factor (1 - 2^{-q/p})^{-1/q}
        k = _largest_dyadic_at_most(hi)
        if lo == 0.0:
            if s == 0.0:
                return math.inf
            terms.append(abs(v) * 2.0 ** (k * inv_p) * (1.0 - 2.0**-s) ** (-1.0 / q))
            continue
        while k >= -1100 and 2.0**k > lo:
            terms.append(abs(v) * 2.0 ** (k * inv_p))
            k -= 1
    return power_total(terms, q)


def _weighted_vs_dyadic_constant(pq: PQ) -> float:
    """Weighted <= const * B * dyadic: the per-block comparison costs 2^s ln 2\n    inside the q-th power for finite q."""
    if math.isinf(pq.q):
        return 2.0 ** (0.0 if math.isinf(pq.p) else 1.0 / pq.p)
    s = 0.0 if math.isinf(pq.p) else pq.q / pq.p
    return (2.0**s * math.log(2.0)) ** (1.0 / pq.q)


def _dyadic_vs_lorentz_constant(pq: PQ) -> float:
    """Dyadic <= const * B * lorentz.  The window comparison costs
    4*max(2^{q/p-1}, 4^{q/p-1}) inside the q-th power for finite q."""
    if math.isinf(pq.q):
        return 2.0 ** (0.0 if math.isinf(pq.p) else 1.0 / pq.p)
    s = pq.q / pq.p
    a = max(2.0 ** (s - 1.0), 4.0 ** (s - 1.0))
    return (4.0 * a) ** (1.0 / pq.q)


def _lorentz_vs_weighted(pq: PQ, b: float) -> tuple[float, str]:
    """Constant c with lorentz <= c * weighted, and which result supplies it."""
    if math.isinf(pq.q) or pq.p <= pq.q:
        return 1.0, "monotone-weight comparison"
    c = (2.0 * pq.p / pq.q) ** (1.0 / pq.q) * b * b
    return c, "level-set comparison"


def equivalence_report(f: StepFunction, pq: PQ, B: float) -> tuple[VerificationReport, ...]:
    """All four norms of the doubling-window equivalence with their explicit
    constants, as pass/fail rows.  B is the measured almost-monotone (window
    sup) constant of f; rows for f* use constant 1 in place of B.
    """
    _require_lorentz(pq)
    if math.isinf(B):
        raise NotGMError("the window-sup constant is infinite; no equivalence holds")
    if B < 1.0 and any(v != 0 for v in f.values):
        raise ValueError("a nonzero function has window-sup constant >= 1")

    fstar = rearrange_step(f)
    lorentz = weighted_norm_step(fstar, pq)
    weighted = weighted_norm_step(f, pq)
    dyadic = dyadic_norm_full(f, pq)
    dyadic_star = dyadic_norm_full(fstar, pq)

    c_ln2 = _weighted_vs_dyadic_constant(pq)
    c_dl = _dyadic_vs_lorentz_constant(pq)
    c_lw, _ = _lorentz_vs_weighted(pq, B)

    rows = (
        make_report("weighted<=dyadic", weighted, dyadic, c_ln2 * B),
        make_report("dyadic<=lorentz", dyadic, lorentz, c_dl * B),
        make_report("lorentz<=weighted", lorentz, weighted, c_lw),
        make_report("dyadic_star<=lorentz", dyadic_star, lorentz, c_dl),
        make_report("lorentz<=dyadic_star", lorentz, dyadic_star, c_ln2),
    )
    return rows
