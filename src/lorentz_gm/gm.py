"""Minimal general-monotonicity constants, splices, averages, and majorants.

Every ``*_constant`` routine returns the exact supremum of its defining ratio
together with a witness.  For step functions the supremum over x > 0 is found
by cutting (0, inf) at the finitely many points where either side of the ratio
changes analytic form ({x_j} and {x_j / 2}, plus the head junction); on each
cell the ratio is constant or monotone, so endpoint evaluation is exact.
Window membership of a jump at p follows the left-continuous convention:
the jump counts toward the variation over [a, b] exactly when a <= p < b,
which makes the jump indicator left-open/right-closed in x -- the same shape
as the cells, so per-cell jump sets are honestly constant.

Ratios 0/0 are vacuous, positive/0 is infinity (with witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ComplexSeq, PowerHead, StepFunction, TwoSidedSeq

__all__ = [
    "GMReport",
    "SpliceResult",
    "gms_constant",
    "gms1_constant",
    "gms2_constant",
    "gm_constant_step",
    "quasi_monotone_check",
    "splice",
    "average_seq",
    "average_function",
    "variation_of_average",
    "bell_majorant",
]


@dataclass(frozen=True)
class GMReport:
    """Minimal class constant: sup of (variation side) / (bound side).

    ``constant`` is 0.0 for zero input (every ratio vacuous) and ``inf`` when
    some window has positive variation against a vanishing denominator.
    Class membership means a finite constant; the usual normalisation B >= 1
    holds automatically for nonzero inputs.
    """

    class_tag: str
    constant: float
    witness: object = None

    def to_dict(self) -> dict:
        return {"class": self.class_tag, "constant": self.constant, "witness": self.witness}


class _SupTracker:
    __slots__ = ("best", "witness")

    def __init__(self) -> None:
        self.best = 0.0
        self.witness = None

    def offer(self, num: float, den: float, witness) -> None:
        if num == 0.0:
            return
        ratio = num / den if den > 0.0 else math.inf
        if ratio > self.best:
            self.best = ratio
            self.witness = witness


# ---------------------------------------------------------------------------
# Sequence scans.
# ---------------------------------------------------------------------------


def gms_constant(a: ComplexSeq) -> GMReport:
    """sup_n sum_{k=n}^{2n-1} |a_k - a_{k+1}| / |a_n|, zero tail included."""
    n_len = len(a)
    if n_len == 0:
        return GMReport("GMS", 0.0)
    vals = np.asarray(a.values, dtype=complex)
    m = np.abs(vals)
    # d[k-1] = |a_k - a_{k+1}|, plus one zero so every window end is an index.
    d = np.append(np.abs(np.diff(np.append(vals, 0j))), 0.0)
    # Window n is d[n-1 : min(2n-1, N)], summed from its own terms: a difference
    # of global prefix sums loses the small late windows to cancellation.
    starts = np.arange(n_len)
    bounds = np.empty(2 * n_len, dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = np.minimum(2 * starts + 1, n_len)
    sums = np.add.reduceat(d, bounds)[0::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(sums == 0.0, -1.0, np.where(m > 0.0, sums / m, np.inf))
    j = int(np.argmax(ratios))
    track = _SupTracker()
    track.offer(float(sums[j]), float(m[j]), j + 1)
    return GMReport("GMS", track.best, track.witness)


def gms1_constant(a: ComplexSeq) -> GMReport:
    """sup over n <= k <= 2n of |a_k| / |a_n| (k capped at the support end)."""
    n_len = len(a)
    if n_len == 0:
        return GMReport("GMS1", 0.0)
    m = np.abs(np.asarray(a.values, dtype=complex))
    track = _SupTracker()
    for n in range(1, n_len + 1):
        window = m[n - 1 : min(2 * n, n_len)]
        k_rel = int(np.argmax(window))
        track.offer(float(window[k_rel]), float(m[n - 1]), (n, n + k_rel))
    return GMReport("GMS1", track.best, track.witness)


def gms2_constant(a: ComplexSeq) -> GMReport:
    """sup over 1 <= n < N' of
    sum_{k=n}^{N'-1} |a_k - a_{k+1}| / (|a_n| + sum_{k=n+1}^{N'} |a_k|/k).

    N' beyond N + 1 adds nothing to either side, so the scan stops there.
    O(N^2) via prefix sums, which is the documented budget for this class.
    """
    n_len = len(a)
    if n_len == 0:
        return GMReport("GMS2", 0.0)
    vals = np.asarray(a.values, dtype=complex)
    m = np.abs(vals)
    d = np.abs(np.diff(np.append(vals, 0j)))
    pd = np.concatenate(([0.0], np.cumsum(d)))
    pw = np.concatenate(([0.0], np.cumsum(m / np.arange(1, n_len + 1))))
    track = _SupTracker()
    for n in range(1, n_len + 1):
        n_primes = np.arange(n + 1, n_len + 2)
        nums = pd[n_primes - 1] - pd[n - 1]
        dens = m[n - 1] + pw[np.minimum(n_primes, n_len)] - pw[n]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(nums == 0.0, -1.0, np.where(dens > 0.0, nums / dens, np.inf))
        j = int(np.argmax(ratios))
        track.offer(float(nums[j]), float(dens[j]), (n, int(n_primes[j])))
    return GMReport("GMS2", track.best, track.witness)


def quasi_monotone_check(a: ComplexSeq, beta: float) -> bool:
    """True iff a is nonnegative real and a_n / n^beta is non-increasing.

    Comparisons are cross-multiplied (a_{n+1} n^beta <= a_n (n+1)^beta) with
    a 1e-12 relative cushion so exact power sequences survive rounding.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    for v in a.values:
        if v.imag != 0.0 or v.real < 0.0:
            raise ValueError("quasi-monotonicity is defined for nonnegative real sequences")
    xs = [v.real for v in a.values]
    for n in range(1, len(xs)):
        if xs[n] * n**beta > xs[n - 1] * (n + 1) ** beta * (1.0 + 1e-12):
            return False
    return True


# ---------------------------------------------------------------------------
# Step-function scans.
#
# A function is reduced to
#   head    optional power piece c x^gamma on (0, x1]
#   pieces  (lo, hi, |value|) step pieces after the head
#   jumps   (p, size): the junction drop at x1, interior steps, terminal drop.
# The initial rise at x = 0 of a headless function is never inside a window.
# ---------------------------------------------------------------------------


def _normalize(f: StepFunction) -> tuple[PowerHead | None, float, tuple, tuple]:
    head, x1, pieces = f.head, f.head_edge, f.pieces()
    jumps = []
    if head is not None:
        after = pieces[0][2] if pieces else 0j
        jumps.append((x1, abs(after - complex(head.eval(x1)))))
    for i, (lo, hi, v) in enumerate(pieces):
        nxt = pieces[i + 1][2] if i + 1 < len(pieces) else 0j
        jumps.append((hi, abs(nxt - v)))
    mods = tuple((lo, hi, abs(v)) for lo, hi, v in pieces)
    return head, x1, mods, tuple(jumps)


def _cells(points) -> list[tuple[float, float]]:
    pts = sorted({p for p in points if p > 0.0})
    out, lo = [], 0.0
    for p in pts:
        out.append((lo, p))
        lo = p
    return out


def _gm_doubling_constant(f) -> GMReport:
    """Variant GM: sup_x V_f([x, 2x]) / |f(x)|."""
    head, x1, pieces, jumps = _normalize(f)
    boundary = [p for p, _ in jumps] + [p / 2.0 for p, _ in jumps]
    if head is not None:
        boundary += [x1, x1 / 2.0]
    track = _SupTracker()
    for lo, hi in _cells(boundary):
        mid = math.sqrt(lo * hi) if lo > 0.0 else hi / 2.0
        jump_sum = math.fsum(sz for p, sz in jumps if mid <= p < 2.0 * mid)
        if head is not None and mid <= x1:
            c, g = head.c, head.gamma
            if 2.0 * mid <= x1:
                # whole window inside the head; no jump can reach it
                track.offer(c * mid**g * (2.0**g - 1.0), c * mid**g, mid)
            else:
                # window straddles the junction: smooth part + cell's jumps.
                # The ratio decreases in x, sup at the lo+ limit -- evaluate
                # the cell formula at both endpoints (lo >= x1/2 > 0 here).
                for x_eval in (lo, hi):
                    num = c * (x1**g - x_eval**g) + jump_sum
                    track.offer(num, c * x_eval**g, x_eval)
        else:
            # both sides constant across the cell
            track.offer(jump_sum, abs(f.eval(mid)), (lo, hi))
    return GMReport("GM", track.best, track.witness)


def _gm1_constant_step(f) -> GMReport:
    """Variant GM1: sup_x sup_{x <= t <= 2x} |f(t)| / |f(x)|."""
    head, x1, pieces, jumps = _normalize(f)
    boundary = []
    for lo, hi, _ in pieces:
        boundary += [lo / 2.0, lo, hi / 2.0, hi]
    if head is not None:
        boundary += [x1 / 2.0, x1]
    track = _SupTracker()
    for lo, hi in _cells(boundary):
        mid = math.sqrt(lo * hi) if lo > 0.0 else hi / 2.0
        # pieces meeting [x, 2x]: lo_p < 2x and hi_p >= x -- left-open /
        # right-closed in x, hence constant across the cell (mid decides).
        p_sup = max(
            (m for plo, phi, m in pieces if plo < 2.0 * mid and phi >= mid),
            default=0.0,
        )
        if head is not None and mid <= x1:
            # ratio nonincreasing in x: head part is 2^gamma or (x1/x)^gamma,
            # step part p_sup / (c x^gamma); sup at lo+.
            c, g = head.c, head.gamma
            for x_eval in (lo, hi) if lo > 0.0 else (hi,):
                num = max(c * min(2.0 * x_eval, x1) ** g, p_sup)
                track.offer(num, c * x_eval**g, x_eval)
        else:
            track.offer(p_sup, abs(f.eval(mid)), (lo, hi))
    return GMReport("GM1", track.best, track.witness)


def _gm2_constant_step(f) -> GMReport:
    """Variant GM2: sup over x < M of V_f([x, M]) / (|f(x)| + int_x^M |f| dt/t).

    The sup over M is approached just past a jump point (the jump enters the
    variation while the integral still runs only to p), so M scans p+ for
    each jump point p.  For fixed M the ratio increases in x across a step
    piece (sup at its right edge) and is a Moebius function of x^gamma on the
    head (sup at an end), so x scans piece right edges, 0+, and x1.
    """
    head, x1, pieces, jumps = _normalize(f)

    def log_integral(a: float, b: float) -> float:
        if b <= a:
            return 0.0
        parts = []
        if head is not None and a < x1:
            top = min(b, x1)
            if top > a:
                parts.append(head.c * (top**head.gamma - a**head.gamma) / head.gamma)
        for lo, hi, m in pieces:
            lo_c, hi_c = max(lo, a), min(hi, b)
            if hi_c > lo_c and m != 0.0:
                parts.append(m * math.log(hi_c / lo_c))
        return math.fsum(parts)

    def variation(x: float, m_pt: float) -> float:
        total = math.fsum(sz for p, sz in jumps if x <= p <= m_pt)
        if head is not None and x < x1:
            total += head.c * (min(m_pt, x1) ** head.gamma - x**head.gamma)
        return total

    track = _SupTracker()
    for m_pt in sorted({p for p, _ in jumps}):
        x_candidates = [hi for _, hi, _ in pieces if hi <= m_pt]
        if head is not None:
            x_candidates += [0.0, x1]
        for x in x_candidates:
            num = variation(x, m_pt)
            den = (abs(f.eval(x)) if x > 0.0 else 0.0) + log_integral(x, m_pt)
            track.offer(num, den, (x, m_pt))
    return GMReport("GM2", track.best, track.witness)


def gm_constant_step(f, variant: str = "GM") -> GMReport:
    """Minimal class constant of a (headed) step function: GM, GM1, or GM2."""
    tag = variant.upper().replace("_", "")
    if tag == "GM":
        return _gm_doubling_constant(f)
    if tag == "GM1":
        return _gm1_constant_step(f)
    if tag == "GM2":
        return _gm2_constant_step(f)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Splices, averages, majorants.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpliceResult:
    """Head of one sequence joined to the tail of another, with the
    predicted and measured window-variation constants."""

    seq: ComplexSeq
    join: int
    gamma: float
    base_constant: float
    predicted: float
    measured: GMReport

    def to_dict(self) -> dict:
        return {
            "join": self.join,
            "gamma": self.gamma,
            "base_constant": self.base_constant,
            "predicted": self.predicted,
            "measured": self.measured.to_dict(),
        }


def splice(a: ComplexSeq, c: ComplexSeq, N: int) -> SpliceResult:
    """b = a on [1, N], c beyond.  Predicted constant 3B + 6 B^2 gamma, with
    B covering both inputs and gamma = |c_N| / |a_N|."""
    if N < 1:
        raise ValueError("join index must be >= 1")
    a_n, c_n = a[N], c[N]
    if a_n == 0 and c_n != 0:
        raise ValueError("splice needs a_N != 0 when c_N != 0")
    gamma = abs(c_n) / abs(a_n) if a_n != 0 else 0.0
    tail_len = max(len(a), len(c), N)
    b_vals = tuple(a[n] for n in range(1, N + 1)) + tuple(
        c[n] for n in range(N + 1, tail_len + 1)
    )
    b = ComplexSeq(b_vals)
    base = max(gms_constant(a).constant, gms_constant(c).constant)
    predicted = 3.0 * base + 6.0 * base * base * gamma
    return SpliceResult(b, N, gamma, base, predicted, gms_constant(b))


def average_seq(a: ComplexSeq, n: int) -> complex:
    """(1/n) sum_{k=1}^{n} a_k, counting the zero tail."""
    if n < 1:
        raise ValueError("n must be >= 1")
    re = math.fsum(a[k].real for k in range(1, n + 1))
    im = math.fsum(a[k].imag for k in range(1, n + 1))
    return complex(re, im) / n


def _integral_to(f: StepFunction, x: float) -> complex:
    """int_0^x f dt, exact per piece."""
    head = f.head
    total = 0j
    if head is not None:
        top = min(x, f.head_edge)
        total += head.c * top ** (head.gamma + 1.0) / (head.gamma + 1.0)
    for lo, hi, v in f.pieces():
        hi_c = min(hi, x)
        if hi_c > lo:
            total += v * (hi_c - lo)
    return total


def average_function(f, x: float) -> complex:
    """sigma_x(f) = (1/x) int_0^x f dt."""
    if x <= 0:
        raise ValueError("x must be positive")
    return _integral_to(f, x) / x


def variation_of_average(f, a: float, b: float) -> float:
    """Exact variation of x -> sigma_x(f) over [a, b].

    Within a constant piece v, sigma(x) = v + (I(lo) - v lo)/x traces a
    straight ray monotonically, and on the power head sigma(x) is a monotone
    real segment, so the variation is the chord sum over piece boundaries.
    """
    if not 0.0 < a < b:
        raise ValueError("need 0 < a < b")
    cuts = {a, b}
    if f.head is not None:
        cuts.add(f.head_edge)
    for lo, hi, _ in f.pieces():
        cuts.update((lo, hi))
    xs = sorted(x for x in cuts if a <= x <= b)
    sig = [average_function(f, x) for x in xs]
    return math.fsum(abs(s2 - s1) for s1, s2 in zip(sig, sig[1:]))


def bell_majorant(c: TwoSidedSeq) -> TwoSidedSeq:
    """Least even majorant non-increasing in |n|: m_n = sup_{|k| >= |n|} |c_k|."""
    half = max(abs(c.n_min), abs(c.n_max))
    by_abs = [0.0] * (half + 1)
    for n in c.indices():
        k = abs(n)
        by_abs[k] = max(by_abs[k], abs(c[n]))
    for k in range(half - 1, -1, -1):
        by_abs[k] = max(by_abs[k], by_abs[k + 1])
    values = tuple(complex(by_abs[abs(n)]) for n in range(-half, half + 1))
    return TwoSidedSeq(values, -half)
