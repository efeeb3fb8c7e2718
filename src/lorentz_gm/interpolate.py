"""K-functional of the weighted/plain summable-sequence couple, the real
interpolation norm built on it, the doubling-window functional, and a
near-optimal decomposition that keeps both parts inside a sector cone.

The couple is (l^1 with weight 1/n, l^1).  Its K-functional has the exact
coordinatewise value K(t, c) = sum_n |c_n| min(1/n, t), evaluated here in the
split form  t * sum_{n <= n0} |c_n| + sum_{n > n0} |c_n|/n  (n0 the last index
with 1/n >= t) so the classical two-sum display holds bit for bit.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ComplexSeq, _exact_range_sums
from .norms import power_term, power_total
from .quadrature import adaptive_integral

__all__ = [
    "Decomposition",
    "k_functional",
    "k_functional_oracle",
    "interpolation_norm",
    "gilbert_functional",
    "gilbert_bracket",
    "gms_decomposition",
]


def k_functional(c: ComplexSeq, t: float) -> float:
    """K(t, c) = sum |c_n| min(1/n, t): exact infimum for the weighted couple."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be finite and positive")
    mods = c.moduli()
    n0 = 0
    for n in range(1, len(mods) + 1):
        if 1.0 / n >= t:
            n0 = n
        else:
            break
    head = t * math.fsum(mods[:n0])
    tail = math.fsum(m / n for n, m in enumerate(mods[n0:], n0 + 1))
    return head + tail


def k_functional_oracle(c: ComplexSeq, t: float, grid_resolution: int = 8) -> float:
    """Independent evaluation of the same infimum by coordinatewise search.

    Both norms of the couple are coordinatewise sums, so the infimum over
    splits b + d = c decouples; per coordinate the cost |b|/n + t|c - b| is
    minimized on the segment b = s c (projecting any b onto it can only
    shrink both moduli), where it is linear in s -- the optimum sits at an
    endpoint.  ``grid_resolution`` interior points are scanned anyway as a
    check on that claim.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be finite and positive")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    per_coord = []
    for n, m in enumerate(c.moduli(), 1):
        best = min(m / n, t * m)
        for j in range(1, grid_resolution):
            s = j / grid_resolution
            best = min(best, s * m / n + t * (1.0 - s) * m)
        per_coord.append(best)
    return math.fsum(per_coord)


def _profile(mods: tuple) -> tuple:
    """Piecewise-linear profile of t -> K(t): on (1/(m+1), 1/m] the value is
    A_m + B_m t with B_m = sum_{n <= m} |c_n|, A_m = sum_{n > m} |c_n|/n."""
    n = len(mods)
    b_prefix = [0.0]
    for m in mods:
        b_prefix.append(b_prefix[-1] + m)
    a_suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        a_suffix[i] = a_suffix[i + 1] + mods[i] / (i + 1)
    return b_prefix, a_suffix


def interpolation_norm(c: ComplexSeq, theta: float, q: float, rel_tol: float = 1e-10) -> float:
    """|| t^{-theta} K(t, c) ||_{L^q((0, inf), dt/t)}.

    K is piecewise linear with breakpoints 1/n; pure pieces (K = const or
    K = const * t) go to ``norms.power_term``, mixed pieces through adaptive
    Gauss quadrature at ``rel_tol``, or per-piece calculus for the supremum
    when q = inf.  theta in {0, 1} is admitted only with q = inf, as a
    sup-evaluation outside the certified surface (warns).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not q > 0:
        raise ValueError("q must be positive (possibly inf)")
    if theta in (0.0, 1.0):
        if not math.isinf(q):
            raise ValueError("theta at an endpoint needs q = inf")
        warnings.warn("endpoint theta is experimental (sup-evaluation only)", stacklevel=2)

    mods = list(c.moduli())
    while mods and mods[-1] == 0.0:
        mods.pop()
    if not mods:
        return 0.0
    n = len(mods)
    b_prefix, a_suffix = _profile(tuple(mods))
    s1, lw = b_prefix[n], a_suffix[0]  # plain and weighted l1 norms

    # K = s1 t on (0, 1/n] and K = lw on [1, inf)
    terms = [power_term(0.0, 1.0 / n, s1, 1.0, -theta, q),
             power_term(1.0, math.inf, lw, 0.0, -theta, q)]
    for m in range(1, n):
        lo, hi = 1.0 / (m + 1), 1.0 / m
        a_m, b_m = a_suffix[m], b_prefix[m]
        if a_m == 0.0:
            terms.append(power_term(lo, hi, b_m, 1.0, -theta, q))
        elif b_m == 0.0:
            terms.append(power_term(lo, hi, a_m, 0.0, -theta, q))
        elif math.isinf(q):
            cands = [lo, hi]
            if 0.0 < theta < 1.0:
                t_star = theta * a_m / ((1.0 - theta) * b_m)
                if lo < t_star < hi:
                    cands.append(t_star)
            terms.append(max(t ** (-theta) * (a_m + b_m * t) for t in cands))
        else:
            terms.append(
                adaptive_integral(
                    lambda ts: ts ** (-theta * q - 1.0) * (a_m + b_m * ts) ** q,
                    lo,
                    hi,
                    rel_tol=rel_tol,
                )
            )
    return power_total(terms, q)


def gilbert_functional(c: ComplexSeq, theta: float, q: float) -> float:
    """( int_0^inf (t^{theta-1} sum_{t <= k < 2t} |c_k|)^q dt/t )^{1/q}.

    The window sum is piecewise constant between consecutive points of
    {k} U {k/2} (k is inside the window over t exactly on (k/2, k], matching
    the cell shape), so every cell integrates in closed form.

    On the cell (lo, hi] the window holds the k with hi <= k < 2 hi, one
    contiguous run ceil(hi) <= k <= min(2 hi - 1, N) since 2 hi is an
    integer.  Each run is a difference of two exact integer prefix sums
    (``model._exact_range_sums``), rounded once, so every window equals
    ``math.fsum`` of its terms; time and memory are O(N).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not q > 0:
        raise ValueError("q must be positive (possibly inf)")
    mods = list(c.moduli())
    while mods and mods[-1] == 0.0:
        mods.pop()
    if not mods:
        return 0.0
    kk = np.arange(1, len(mods) + 1, dtype=float)
    pts = np.unique(np.concatenate([0.5 * kk, kk]))
    lows, highs = pts[:-1], pts[1:]
    starts = (np.ceil(highs) - 1.0).astype(np.int64).tolist()
    ends = np.minimum(2.0 * highs - 1.0, len(mods)).astype(np.int64).tolist()
    sums = _exact_range_sums(mods)
    window = np.array([sums(i, j) for i, j in zip(starts, ends)])
    live = window > 0.0
    if math.isinf(q):
        return float(np.max(window[live] * lows[live] ** (theta - 1.0))) if live.any() else 0.0
    e = (theta - 1.0) * q
    cells = window[live] ** q * (highs[live] ** e - lows[live] ** e) / e
    return math.fsum(cells.tolist()) ** (1.0 / q)


def gilbert_bracket(theta: float, q: float, b1: float) -> tuple[float, float]:
    """Certified bracket for gilbert_functional / weighted_norm_seq(c, (1/theta, q))
    on sequences with doubling-window sup constant b1 (finite q only).

    Lower bound (input-free): each weight cell (k/2, k] already contributes
    the k-th term, whence G >= min(1/2, (1/2)^{theta q})^{1/q} W.  Upper
    bound: the window sum is at most 2 b1 k |c_k| / k ... <= 2 b1 |c_{ceil(t)}|
    monotone comparisons give G <= 2 b1 max(1, 1/(theta q), 2^{1-theta q})^{1/q} W.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if not 0.0 < q < math.inf:
        raise ValueError("bracket certified for finite positive q only")
    if b1 < 1.0:
        raise ValueError("doubling-window constant is >= 1 for nonzero input")
    tq = theta * q
    lower = min(0.5, 0.5**tq) ** (1.0 / q)
    upper = 2.0 * b1 * max(1.0, 1.0 / tq, 2.0 ** (1.0 - tq)) ** (1.0 / q)
    return lower, upper


@dataclass(frozen=True)
class Decomposition:
    """Split c = b + d with b on the monotone cone and the pair's cost
    measured against the exact K-functional at the same t."""

    b: ComplexSeq
    d: ComplexSeq
    t: float
    cost: float
    k_value: float
    ratio: float

_RATIO_CAP = 4.5


def gms_decomposition(c: ComplexSeq, t: float, alpha: float = 0.0) -> Decomposition:
    """Near-optimal cone decomposition at parameter t.

    For t <= 1, take N = 1 + floor(1/t), sigma = (1/N) sum_{k <= N} |c_k|,
    and replace the first N entries by the ray sequence a_n = (n/N) sigma
    e^{i alpha} (an increasing, windowed-variation-1 run ending at height
    sigma); b splices that run onto c's tail, d = c - a carries the
    difference.  For t > 1 the weighted norm alone is optimal: b = c, d = 0.
    The cost never exceeds 4.5 K(t, c), which is re-checked on every call.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be finite and positive")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    mods = c.moduli()
    if t > 1.0:
        b, d = c, ComplexSeq(())
        cost = math.fsum(m / n for n, m in enumerate(mods, 1)) + t * 0.0
    else:
        n_join = 1 + math.floor(1.0 / t)
        sigma = math.fsum(mods[:n_join]) / n_join
        ray = cmath.exp(1j * alpha)
        a_vals = [(n / n_join) * sigma * ray for n in range(1, n_join + 1)]
        head = c.values[:n_join] + (0j,) * (n_join - len(c))
        b = ComplexSeq(tuple(a_vals) + c.values[n_join:])
        d = ComplexSeq(tuple(map(operator.sub, head, a_vals)))
        weighted = math.fsum(map(operator.truediv, b.moduli(), range(1, len(b) + 1)))
        cost = weighted + t * math.fsum(d.moduli())
    k_value = k_functional(c, t)
    ratio = cost / k_value if k_value > 0.0 else math.nan
    if ratio > _RATIO_CAP * (1.0 + 1e-9):
        raise RuntimeError(f"decomposition cost ratio {ratio} exceeds {_RATIO_CAP}")
    return Decomposition(b, d, t, cost, k_value, ratio)
