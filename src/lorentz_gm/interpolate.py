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
import warnings
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np

from .model import ComplexSeq, _exact_range_sums
from .norms import power_term, power_total
from .quadrature import gauss_sums

__all__ = [
    "Decomposition",
    "k_functional",
    "k_functional_oracle",
    "interpolation_norm",
    "gilbert_functional",
    "gilbert_bracket",
    "gms_decomposition",
    "gms_decompositions",
]


def _k_split(c: ComplexSeq, t) -> tuple[list, list, np.ndarray, np.ndarray]:
    """|c_n| and |c_n|/n as lists (each rounded as ``abs(c_n) / n``), t as a 1-d
    array, and K at every t as t * fsum(|c_n|, n <= n0) + fsum(|c_n|/n, n > n0),
    with n0 the last n where 1/n >= t, found for all t by one search."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not (np.isfinite(ts).all() and (ts > 0.0).all()):
        raise ValueError("t must be finite and positive")
    plain = list(c.moduli())
    n = np.arange(1, len(plain) + 1)
    weighted = (np.array(plain) / n).tolist()
    n0 = np.searchsorted(-1.0 / n, -ts, side="right").tolist()
    k = [x * math.fsum(plain[:j]) + math.fsum(weighted[j:]) for x, j in zip(ts.tolist(), n0)]
    return plain, weighted, ts, np.array(k)


def k_functional(c: ComplexSeq, t):
    """K(t, c) = sum |c_n| min(1/n, t): exact infimum for the weighted couple;
    an array of K when ``t`` is a 1-d array."""
    k = _k_split(c, t)[3]
    return float(k[0]) if np.ndim(t) == 0 else k


def k_functional_oracle(c: ComplexSeq, t: float, grid_resolution: int = 8) -> float:
    """Independent evaluation of the same infimum by coordinatewise search.

    Both norms of the couple are coordinatewise sums, so the infimum over
    splits b + d = c decouples; per coordinate the cost |b|/n + t|c - b| is
    minimized on the segment b = s c (projecting any b onto it can only
    shrink both moduli), where it is linear in s -- the optimum sits at an
    endpoint.  ``grid_resolution`` interior points s = j / grid_resolution
    are scanned anyway as a check on that claim, about 2^16 (s, n) at a time.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError("t must be finite and positive")
    if grid_resolution < 1:
        raise ValueError("grid_resolution must be >= 1")
    m = np.array(c.moduli())
    n = np.arange(1, len(m) + 1)
    best = np.minimum(m / n, t * m)
    s = (np.arange(1, grid_resolution) / grid_resolution)[:, None]
    for sb in np.array_split(s, 1 + len(s) * len(m) // 2**16):
        best = np.minimum(best, (sb * m / n + t * (1.0 - sb) * m).min(axis=0, initial=np.inf))
    return math.fsum(best.tolist())


_MAX_NODES = 1024  # a rule of n nodes costs O(n^2) to build


def _cell_nodes(theta: float, q: float) -> int:
    """Gauss-Legendre nodes for every cell [1/(k+1), 1/k], k >= 1.

    There t^{-theta q - 1} (a + b t)^q, a, b >= 0, is analytic off t <= 0, which
    lies 2k + 1 half-widths from the centre.  On the Bernstein ellipse rho = 4
    (2.125 half-widths) the integrand is at most R = ((2k + 2) / (2k - 1.125))^{theta q + 1}
    ((2k + 3.125) / (2k))^q times its least value on the cell, whether a or b is 0
    or not, so the n-node rule errs by at most (32/225) R 4^{-2n} relative (Trefethen,
    ATAP Thm 19.3).  R falls with k: n brings that bound below 2^-53 at k = 1,
    so on every cell, and is 15 at theta = 0.5, q = 2."""
    log2_r = (theta * q + 1.0) * math.log2(4.0 / 0.875) + q * math.log2(5.125 / 2.0)
    n = math.ceil((math.log2(32.0 / 225.0) + log2_r + 53.0) / 4.0)
    if n > _MAX_NODES:
        raise ValueError(f"q = {q!r} at theta = {theta!r} needs {n} Gauss nodes; at most {_MAX_NODES} are allowed")
    return n


def interpolation_norm(c: ComplexSeq, theta: float, q: float) -> float:
    """|| t^{-theta} K(t, c) ||_{L^q((0, inf), dt/t)}.

    K is piecewise linear with breakpoints 1/n.  The two unbounded ends go to
    ``norms.power_term``.  Each of the n - 1 cells between them has its sup M
    of t^{-theta} K from its ends and critical point: its norm at q = inf, and
    otherwise M times the q-th root of one fixed Gauss-Legendre pass over
    ((A + B t) t^{-theta} / M)^q / t <= 1/t, whose node count ``_cell_nodes``
    certifies to 2^-53 relative.  A zero M gives 0; an infinite M raises.
    theta in {0, 1} is admitted only with q = inf, as a sup-evaluation outside
    the certified surface (warns).
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
    # on (1/(m+1), 1/m], K = A_m + B_m t: B_m = sum_{n <= m} |c_n|, A_m = sum_{n > m} |c_n|/n
    b_prefix = list(accumulate(mods, initial=0.0))
    a_suffix = list(accumulate((mods[i] / (i + 1) for i in range(n - 1, -1, -1)), initial=0.0))[::-1]

    # K = B_n t on (0, 1/n] and K = A_0 on [1, inf): the plain and weighted l1 norms
    ends = [power_term(0.0, 1.0 / n, b_prefix[n], 1.0, -theta, q),
            power_term(1.0, math.inf, a_suffix[0], 0.0, -theta, q)]
    a_m, b_m = np.array(a_suffix[1:n]), np.array(b_prefix[1:n])
    lo, hi = 1.0 / np.arange(2.0, n + 1.0), 1.0 / np.arange(1.0, n)
    # t^-theta (A + B t) is largest at an end or at t* = theta A / ((1 - theta) B);
    # t* counts only inside the cell, which drops it where (1 - theta) B = 0 (inf or 0/0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_star = theta * a_m / ((1.0 - theta) * b_m)
        t = np.stack([lo, hi, np.where((lo < t_star) & (t_star < hi), t_star, lo)])
        cells = (t ** (-theta) * (a_m + b_m * t)).max(axis=0)
    bad = np.flatnonzero(~np.isfinite(cells))
    if len(bad):
        raise OverflowError(f"t^-theta K overflows on the cell [{lo[bad[0]]:g}, {hi[bad[0]]:g}]")
    if q < math.inf:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        scale = np.where(cells > 0.0, cells, 1.0)

        def integrand(part, x):  # ((a + b t) t^-theta / M)^q / t <= 1 / t
            t = mid[part, None] + half[part, None] * x
            return ((a_m[part, None] + b_m[part, None] * t) / scale[part, None] * t**-theta) ** q / t

        cells = cells * (half * gauss_sums(integrand, n - 1, _cell_nodes(theta, q))) ** (1.0 / q)
    return power_total(np.concatenate((ends, cells)), q)


def gilbert_functional(c: ComplexSeq, theta, q):
    """( int_0^inf (t^{theta-1} sum_{t <= k < 2t} |c_k|)^q dt/t )^{1/q}; for
    1-d arrays ``theta`` and ``q`` of one length, a list with one value per pair.

    The window sum is piecewise constant between consecutive points of
    {k} U {k/2} (k is inside the window over t exactly on (k/2, k], matching
    the cell shape), so every cell integrates in closed form, and the windows
    are built once for all pairs.

    On the cell (lo, hi] the window holds the k with hi <= k < 2 hi, one
    contiguous run ceil(hi) <= k <= min(2 hi - 1, N) since 2 hi is an
    integer.  Each run is a difference of two exact integer prefix sums
    (``model._exact_range_sums``), rounded once, so every window equals
    ``math.fsum`` of its terms; time and memory are O(N).  Raises
    OverflowError where a cell's norm leaves the float range.
    """
    params = list(zip(np.atleast_1d(theta).tolist(), np.atleast_1d(q).tolist()))
    for th, qq in params:
        if not 0.0 < th < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not qq > 0:
            raise ValueError("q must be positive (possibly inf)")
    mods = list(c.moduli())
    while mods and mods[-1] == 0.0:
        mods.pop()
    kk = np.arange(1, len(mods) + 1, dtype=float)
    pts = np.unique(np.concatenate([0.5 * kk, kk]))
    starts = (np.ceil(pts[1:]) - 1.0).astype(np.int64).tolist()
    ends = np.minimum(2.0 * pts[1:] - 1.0, len(mods)).astype(np.int64).tolist()
    sums = _exact_range_sums(mods)
    window = np.array([sums(i, j) for i, j in zip(starts, ends)])
    live = window > 0.0
    window, lows, highs = window[live], pts[:-1][live], pts[1:][live]
    out = []
    log_ratio = np.log(highs / lows)
    for th, qq in params:
        # the cell's sup at lo, times the shape root of x^{(theta - 1) q} over the cell
        with np.errstate(over="ignore"):
            cells = window * lows ** (th - 1.0)
            if qq < math.inf:
                r = (1.0 - th) * qq
                cells *= (-np.expm1(-r * log_ratio) / r) ** (1.0 / qq)
        bad = np.flatnonzero(~np.isfinite(cells))
        if len(bad):
            raise OverflowError(f"the window cell [{lows[bad[0]]:g}, {highs[bad[0]]:g}] overflows")
        out.append(power_total(cells, qq))
    return out if np.ndim(theta) else out[0]


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


class Decomposition(NamedTuple):
    """Split c = b + d with b on the monotone cone and the pair's cost
    measured against the exact K-functional at the same t."""

    b: np.ndarray
    d: np.ndarray
    t: float
    cost: float
    k_value: float
    ratio: float

_RATIO_CAP = 4.5


def gms_decompositions(c: ComplexSeq, ts, alpha: float = 0.0) -> Iterator[Decomposition]:
    """Near-optimal cone decomposition at every t of the 1-d array ``ts``, in order.

    For t <= 1, take N = 1 + floor(1/t), sigma = (1/N) sum_{k <= N} |c_k|,
    and replace the first N entries by the ray sequence a_n = (n/N) sigma
    e^{i alpha} (an increasing, windowed-variation-1 run ending at height
    sigma); b splices that run onto c's tail, d = c - a carries the
    difference.  For t > 1 the weighted norm alone is optimal: b = c, d = 0.
    b and d are complex arrays.  The cost never exceeds 4.5 K(t, c), which is
    re-checked at every t.  The moduli and every K come from one pass over c,
    at the first step; each ray is built as its t is reached.
    """
    plain, weighted, ts, k_values = _k_split(c, ts)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    vals, ray = np.array(c.values, dtype=complex), cmath.exp(1j * alpha)
    for t, k_value in zip(ts.tolist(), k_values.tolist()):
        if t > 1.0:  # K is then the weighted norm, which b = c alone costs
            b, d, cost = vals, vals[:0], k_value
        else:
            n_join = 1 + math.floor(1.0 / t)
            n = np.arange(1, n_join + 1)
            x = n / n_join * (math.fsum(plain[:n_join]) / n_join)
            a = (x * ray.real - 0.0 * ray.imag).astype(complex)  # x * ray as CPython rounds it:
            a.imag = x * ray.imag + 0.0 * ray.real  # numpy's product may fuse, moving a zero's sign
            b = np.concatenate((a, vals[n_join:]))
            d = np.concatenate((vals[:n_join], np.zeros(max(0, n_join - len(vals)), complex))) - a
            cost = (math.fsum((np.hypot(a.real, a.imag) / n).tolist() + weighted[n_join:])
                    + t * math.fsum(np.hypot(d.real, d.imag).tolist()))
            if not math.isfinite(cost):
                raise OverflowError("absolute value too large")
        ratio = cost / k_value if k_value > 0.0 else math.nan
        if ratio > _RATIO_CAP * (1.0 + 1e-9):
            raise RuntimeError(f"decomposition cost ratio {ratio} exceeds {_RATIO_CAP}")
        yield Decomposition(b, d, t, cost, k_value, ratio)


def gms_decomposition(c: ComplexSeq, t: float, alpha: float = 0.0) -> Decomposition:
    """``gms_decompositions`` at the single parameter t."""
    return next(gms_decompositions(c, [t], alpha))
