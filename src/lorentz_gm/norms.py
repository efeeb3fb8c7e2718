"""Weighted and Lorentz norms with closed-form evaluation, the full dyadic-sum
norm, the explicit-constant equivalence report for almost-monotone step
functions, and the bracket between a sequence's Lorentz norm and its unit-piece
extension's.

No quadrature here: a function is lowered to power pieces c x^e, and every
power-weighted norm of them is a finite sum of power-function antiderivatives
(``power_norm``), so equivalence ratios carry only rounding error.
"""

from __future__ import annotations

import math

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
    "power_norm",
    "weighted_norm_seq",
    "weighted_norm_step",
    "lorentz_norm_seq",
    "lorentz_norm_step",
    "dyadic_norm_full",
    "equivalence_report",
    "seq_step_bracket",
]


def _require_lorentz(pq: PQ) -> None:
    if not pq.lorentz_admissible:
        raise ValueError(f"(p,q)=({pq.p},{pq.q}) is outside the Lorentz range "
                         "(need p < inf, or p = q = inf)")


def weighted_norm_seq(a: ComplexSeq, pq: PQ) -> float:
    """(sum |a_n|^q n^{q/p-1})^{1/q}; for q = inf, sup_n n^{1/p} |a_n|."""
    inv_p = 0.0 if math.isinf(pq.p) else 1.0 / pq.p
    if math.isinf(pq.q):
        best = 0.0
        for n, v in enumerate(a.values, start=1):
            best = max(best, n**inv_p * abs(v))
        return best
    q = pq.q
    terms = [abs(v) ** q * float(n) ** (q * inv_p - 1.0)
             for n, v in enumerate(a.values, start=1) if v != 0]
    return math.fsum(terms) ** (1.0 / q)


def power_pieces(f: StepFunction) -> list[tuple[float, float, float, float]]:
    """|f| as contiguous (lo, hi, c, e) pieces, meaning c x^e on (lo, hi]; a
    head is the piece from 0 and a plain step has e = 0."""
    out = [] if f.head is None else [(0.0, f.head_edge, f.head.c, f.head.gamma)]
    out += [(lo, hi, abs(v), 0.0) for lo, hi, v in f.pieces()]
    return out


def power_norm(pieces, a: float, q: float) -> float:
    """(int_0^inf (x^a g(x))^q dx/x)^{1/q} of g given as power pieces, in
    closed form; sup_x x^a g(x) when q = inf.

    Returns ``inf`` when the integral diverges at the origin, i.e. when a
    nonzero piece from 0 has e + a <= 0 (e + a < 0 for q = inf).
    """
    if math.isinf(q):
        best = 0.0
        for lo, hi, c, e in pieces:
            if c == 0.0:
                continue
            if e + a > 0.0:
                best = max(best, c * hi ** (e + a))
            elif e + a < 0.0:
                if lo == 0.0:
                    return math.inf
                best = max(best, c * lo ** (e + a))
            else:
                best = max(best, c)
        return best
    total = []
    for lo, hi, c, e in pieces:
        if c == 0.0:
            continue
        ee = (e + a) * q
        if ee == 0.0:
            if lo == 0.0:
                return math.inf
            total.append(c**q * math.log(hi / lo))
        elif lo == 0.0:
            if ee < 0.0:
                return math.inf
            total.append(c**q * hi**ee / ee)
        else:
            total.append(c**q * (hi**ee - lo**ee) / ee)
    return math.fsum(total) ** (1.0 / q)


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
    pieces = f.pieces()
    inv_p = 0.0 if math.isinf(pq.p) else 1.0 / pq.p

    if math.isinf(pq.q):
        best = 0.0
        for lo, hi, v in pieces:
            if v == 0:
                continue
            # 2^{k/p} is nondecreasing in k, so only the largest dyadic point
            # inside (lo, hi] can give the piece's sup.
            k = _largest_dyadic_at_most(hi)
            if 2.0**k > lo:
                best = max(best, 2.0 ** (k * inv_p) * abs(v))
        return best

    q = pq.q
    s = q * inv_p
    terms = []
    for lo, hi, v in pieces:
        if v == 0:
            continue
        m = abs(v) ** q
        k_hi = _largest_dyadic_at_most(hi)
        if lo == 0.0:
            if s == 0.0:
                return math.inf
            terms.append(m * 2.0 ** (k_hi * s) / (1.0 - 2.0**-s))
        else:
            k = k_hi
            while k >= -1100 and 2.0**k > lo:
                terms.append(m * 2.0 ** (k * s))
                k -= 1
    return math.fsum(terms) ** (1.0 / q)


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


def seq_step_bracket(pq: PQ) -> tuple[float, float]:
    """Bracket [c1, c2] for lorentz_norm_seq(a) / lorentz_norm_step(step(a)).

    The unit-piece extension of a* has weighted q-norm sum_n (a*_n)^q w_n with
    w_n = (n^s - (n-1)^s)/s, s = q/p, versus the sequence weights n^{s-1}.  The
    per-term ratio w_n / n^{s-1} lies in [min(1/s, 2^{1-s}), 1] for s >= 1 and
    in [1, 1/s] for s < 1, which inverts to the bracket below.  Exact for q=inf
    (the two suprema coincide).
    """
    _require_lorentz(pq)
    if math.isinf(pq.q):
        return (1.0, 1.0)
    s = 0.0 if math.isinf(pq.p) else pq.q / pq.p
    if s == 0.0:
        raise ValueError("p = inf with finite q has no Lorentz bracket")
    inv_q = 1.0 / pq.q
    if s >= 1.0:
        rho_min = min(1.0 / s, 2.0 ** (1.0 - s))
        return (1.0, rho_min ** (-inv_q))
    return (s**inv_q, 1.0)
