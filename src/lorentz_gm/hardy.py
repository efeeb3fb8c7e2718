"""Logarithmic Hardy averaging of nonnegative step functions with power
heads, the weighted-norm inequality it satisfies on the doubling-variation
class, and product closure of that class.

Functions are lowered to contiguous power pieces (lo, hi, coeff, exponent)
meaning coeff * x**exponent on (lo, hi]; a head is the piece from 0 and a
plain step is exponent 0.  The alpha > 1 reduction g(t) = t^(eps-alpha) f(t)
is then literally an exponent shift through the same evaluators.
"""

from __future__ import annotations

import math

import numpy as np

from .gm import gm_constant_step
from .model import (
    MissingHeadError,
    PowerHead,
    RepresentationError,
    StepFunction,
    VerificationReport,
    make_report,
)
from .quadrature import adaptive_integral

__all__ = [
    "hardy_inner",
    "hardy_lhs",
    "hardy_rhs",
    "hardy_report",
    "product_step",
    "gm_product_report",
    "reduction_report",
    "ENVELOPE",
]


def _power_pieces(f: StepFunction) -> list[tuple[float, float, float, float]]:
    """Contiguous (lo, hi, coeff, exponent) pieces of a nonnegative input."""
    out = [] if f.head is None else [(0.0, f.head_edge, f.head.c, f.head.gamma)]
    for lo, hi, v in f.pieces():
        if v.imag != 0.0 or v.real < 0.0:
            raise ValueError("averaging transform is defined for nonnegative inputs")
        out.append((lo, hi, v.real, 0.0))
    return out


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
    acc, out = 0.0, []
    for lo, hi, c, e in pieces:
        if c != 0.0:
            if e != 0.0:
                acc += c * (hi**e - lo**e) / e
            else:
                acc += c * math.log(hi / lo)
        out.append(acc)
    return out


def hardy_inner(f, x: float) -> float:
    """I(x) = int_0^x f(t) dt/t, exact per piece."""
    if x <= 0:
        raise ValueError("x must be positive")
    pieces = _power_pieces(f)
    _require_convergent(pieces)
    acc = 0.0
    for lo, hi, c, e in pieces:
        top = min(hi, x)
        if top <= lo or c == 0.0:
            continue
        if e != 0.0:
            acc += c * (top**e - lo**e) / e
        else:
            acc += c * math.log(top / lo)
    return acc


def _lhs_power(pieces, alpha: float, q: float, rel_tol: float) -> float:
    for lo, _, c, e in pieces:
        if c == 0.0:
            continue
        if lo == 0.0 and e <= 0.0:
            return math.inf  # inner transform already infinite everywhere
        break
    i_edges = _inner_edges(pieces)
    i_total = i_edges[-1] if i_edges else 0.0
    if i_total == 0.0:
        return 0.0

    if math.isinf(q):
        best = 0.0
        i_lo = 0.0
        for (lo, hi, c, e), i_hi in zip(pieces, i_edges):
            if lo == 0.0 and c > 0.0:
                # I = (c/e) x^e on the head piece (e > 0 guaranteed)
                if e < alpha:
                    return math.inf
                scale = c / e
                best = max(best, scale * hi ** (e - alpha) if e > alpha else scale)
                i_lo = i_hi
                continue
            cands = [lo, hi]
            if c > 0.0 and alpha > 0.0:
                # critical point of x^{-alpha} I(x): alpha I(x) = c x^e
                if e == 0.0:
                    arg = (c - alpha * i_lo) / (alpha * c)
                    x_star = lo * math.exp(arg)
                    if lo < x_star < hi:
                        cands.append(x_star)
                elif e != alpha:
                    u = (alpha * i_lo - (alpha * c / e) * lo**e) / (c * (1.0 - alpha / e))
                    if u > 0.0:
                        x_star = u ** (1.0 / e)
                        if lo < x_star < hi:
                            cands.append(x_star)
            for x in cands:
                if x <= 0.0:
                    continue
                i_x = i_lo
                if c != 0.0:
                    i_x += c * (x**e - lo**e) / e if e != 0.0 else c * math.log(x / lo)
                best = max(best, x ** (-alpha) * i_x)
            i_lo = i_hi
        # tail: I constant; x^{-alpha} decreasing -> sup at the last edge
        best = max(best, pieces[-1][1] ** (-alpha) * i_total)
        return best

    aq = alpha * q
    total = []
    i_lo = 0.0
    for (lo, hi, c, e), i_hi in zip(pieces, i_edges):
        if lo == 0.0 and c > 0.0:
            ee = (e - alpha) * q
            if ee <= 0.0:
                return math.inf
            scale = c / e
            total.append(scale**q * hi**ee / ee)
        elif lo == 0.0:
            pass  # zero piece from the origin contributes nothing
        elif c == 0.0:
            if i_lo > 0.0:
                total.append(i_lo**q * (lo**-aq - hi**-aq) / aq)
        else:
            total.append(
                adaptive_integral(
                    lambda xs, il=i_lo, lo_=lo, c_=c, e_=e: np.maximum(
                        il + (c_ * (xs**e_ - lo_**e_) / e_ if e_ != 0.0 else c_ * np.log(xs / lo_)),
                        0.0,
                    )
                    ** q
                    * xs ** (-aq - 1.0),
                    lo,
                    hi,
                    rel_tol=rel_tol,
                )
            )
        i_lo = i_hi
    total.append(i_total**q * pieces[-1][1] ** -aq / aq)
    return math.fsum(total) ** (1.0 / q)


def hardy_lhs(f, alpha: float, q: float, rel_tol: float = 1e-10) -> float:
    """(int_0^inf (x^{-alpha} I(x))^q dx/x)^{1/q} with I the inner transform.

    Head region and constant-I regions integrate in closed form; pieces where
    I grows logarithmically go through adaptive Gauss quadrature.  q = inf
    takes the exact supremum (per-piece calculus).  Returns inf when the head
    exponent cannot beat alpha.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if q <= 0:
        raise ValueError("q must be positive")
    pieces = _power_pieces(f)
    if not any(c for _, _, c, _ in pieces):
        return 0.0
    _require_convergent(pieces)
    return _lhs_power(pieces, alpha, q, rel_tol)


def _rhs_power(pieces, alpha: float, q: float) -> float:
    if math.isinf(q):
        best = 0.0
        for lo, hi, c, e in pieces:
            if c == 0.0:
                continue
            if e > alpha:
                best = max(best, c * hi ** (e - alpha))
            elif e < alpha:
                if lo == 0.0:
                    return math.inf
                best = max(best, c * lo ** (e - alpha))
            else:
                best = max(best, c)
        return best
    total = []
    for lo, hi, c, e in pieces:
        if c == 0.0:
            continue
        ee = (e - alpha) * q
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


def hardy_rhs(f, alpha: float, q: float) -> float:
    """(int_0^inf (x^{-alpha} f(x))^q dx/x)^{1/q}, closed form; inf is a
    valid return (head exponent <= alpha)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if q <= 0:
        raise ValueError("q must be positive")
    return _rhs_power(_power_pieces(f), alpha, q)


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


def reduction_report(f, alpha: float, q: float, epsilon: float | None = None) -> VerificationReport:
    """Exponent-shift reduction for alpha > 1: with g(t) = t^(eps - alpha) f(t),
    the shifted left side dominates the original (pointwise I_g >= x^{eps-alpha}
    ... I_f) while the right side is untouched, so the steep case reduces to
    eps < 1.  Verifies lhs(f, alpha) <= lhs(g, eps) and rhs equality to 1e-10.
    """
    if alpha <= 1.0:
        raise ValueError("the reduction targets alpha > 1")
    pieces = _power_pieces(f)
    gamma = next((e for lo, hi, c, e in pieces if c > 0.0 and lo == 0.0), None)
    if epsilon is None:
        epsilon = 0.5 if gamma is None else min(0.5, gamma / 2.0)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    shifted = [(lo, hi, c, e + epsilon - alpha) for lo, hi, c, e in pieces]
    live = any(p[2] for p in pieces)
    lhs_f = _lhs_power(pieces, alpha, q, 1e-10) if live else 0.0
    lhs_g = _lhs_power(shifted, epsilon, q, 1e-10) if live else 0.0
    rhs_f = _rhs_power(pieces, alpha, q)
    rhs_g = _rhs_power(shifted, epsilon, q)
    rhs_match = rhs_f == rhs_g or (
        math.isfinite(rhs_f)
        and math.isfinite(rhs_g)
        and abs(rhs_f - rhs_g) <= 1e-10 * max(1.0, rhs_f, rhs_g)
    )
    dominated = lhs_f <= lhs_g * (1.0 + 1e-9) or math.isinf(lhs_g)
    return VerificationReport(
        "steep-exponent-reduction", lhs_f, lhs_g, epsilon,
        lhs_f / lhs_g if lhs_g > 0 and math.isfinite(lhs_g) else math.nan,
        bool(rhs_match and dominated),
    )


# ---------------------------------------------------------------------------
# Product closure.
# ---------------------------------------------------------------------------


def product_step(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product on the refined common partition.

    Representable outcomes: two headless inputs; two heads ending at the same
    junction (coefficients multiply, exponents add); one head whose junction
    precedes the other input's first jump (the head scales by that constant,
    which must be positive -- a zero kills the head region).  Anything else
    cannot be carried by a single power head and raises RepresentationError.
    """
    fh, gh = f.head, g.head
    end = max(f.support_end, g.support_end)

    def zero_after(a: StepFunction) -> bool:
        return all(v == 0 for v in a.values) and a.head is None

    if zero_after(f) or zero_after(g):
        return StepFunction((end,), (0j,))

    head: PowerHead | None = None
    junction = 0.0
    if fh is not None and gh is not None:
        if f.head_edge != g.head_edge:
            raise RepresentationError("heads must share their junction to multiply")
        head = PowerHead(fh.c * gh.c, fh.gamma + gh.gamma)
        junction = f.head_edge
    elif fh is not None or gh is not None:
        a, b = (f, g) if fh is not None else (g, f)  # a carries the head
        junction = a.head_edge
        lead = b.eval(junction)  # b is constant on (0, its first breakpoint]
        if b.breakpoints[0] < junction:
            raise RepresentationError("head overlaps the other factor's jump")
        if lead.imag != 0.0 or lead.real < 0.0:
            raise RepresentationError("head scaled by a non-positive leading value")
        if lead.real > 0.0:
            head = PowerHead(a.head.c * lead.real, a.head.gamma)
        # lead == 0: the product vanishes on (0, junction]

    cuts = sorted({x for x in f.breakpoints + g.breakpoints + (end,) if x > junction})
    if head is None and junction > 0.0:
        cuts = [junction] + cuts
        values = [0j] + [f.eval(x) * g.eval(x) for x in cuts[1:]]
    else:
        values = [f.eval(x) * g.eval(x) for x in cuts]
    if head is not None:
        return StepFunction((junction, *cuts), tuple(values), head)
    return StepFunction(tuple(cuts), tuple(values))


def gm_product_report(f, g) -> VerificationReport:
    """Measured doubling-variation constant of f*g against 4 B1 B2."""
    b1 = gm_constant_step(f, "GM").constant
    b2 = gm_constant_step(g, "GM").constant
    measured = gm_constant_step(product_step(f, g), "GM").constant
    return make_report("gm-product", measured, b1 * b2, 4.0)
