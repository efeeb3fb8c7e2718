"""Minimal general-monotonicity constants and splices.

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

from .model import ComplexSeq, PowerHead, StepFunction, _exact_range_sums

__all__ = [
    "GMReport",
    "SpliceResult",
    "gms_constant",
    "gms_scan",
    "gms1_constant",
    "gms2_constant",
    "gm_constant_step",
    "splice",
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


def _offer(best: tuple, num: float, den: float, witness) -> tuple:
    """(sup, witness) after offering num/den: 0/x is skipped, x/0 is inf, a larger ratio wins."""
    if num == 0.0:
        return best
    ratio = num / den if den > 0.0 else math.inf
    return (ratio, witness) if ratio > best[0] else best


# ---------------------------------------------------------------------------
# Sequence scans.
# ---------------------------------------------------------------------------


def _moduli(vals: np.ndarray) -> np.ndarray:
    """|a_k| of finite entries; OverflowError, as Python's ``abs`` raises,
    where one exceeds the float range (numpy would give inf)."""
    m = np.abs(vals)
    if not np.isfinite(m).all():
        raise OverflowError("absolute value too large")
    return m


def _window_reduce(ufunc, terms: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(terms[starts[i]:ends[i]])`` for every nonempty window, each
    from its own terms as a slice would be, in one reduceat over interleaved bounds."""
    bounds = np.empty(2 * len(starts), dtype=np.intp)
    bounds[0::2], bounds[1::2] = starts, ends
    return ufunc.reduceat(np.concatenate((terms, [0.0])), bounds)[0::2]


def _ratios(nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """num/den as ``_offer`` takes it: -1 where num = 0 (skipped), inf where den = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(nums == 0.0, -1.0, np.where(dens > 0.0, nums / dens, np.inf))


def gms_scan(values: np.ndarray, offsets) -> np.ndarray:
    """``gms_constant``'s ratio at every n of every nonempty segment values[offsets[i]:offsets[i+1]]:
    -1 where the window sums to 0, inf where |a_n| = 0.  Window n of a segment of length L sums
    |a_k - a_{k+1}| (a_{L+1} = 0) over n <= k <= min(2n - 1, L) from its own terms, as a
    difference of prefix sums would lose the small late ones."""
    offsets = np.asarray(offsets, dtype=np.intp)
    starts, lens = offsets[:-1], offsets[1:] - offsets[:-1]
    m = _moduli(values)
    nxt = np.concatenate((values[1:], [0j]))
    nxt[offsets[1:] - 1] = 0j  # each segment's zero tail
    first = np.repeat(starts, lens)
    k = np.arange(len(values))
    ends = first + np.minimum(2 * (k - first) + 1, np.repeat(lens, lens))
    return _ratios(_window_reduce(np.add, np.abs(nxt - values), k, ends), m)


def gms_constant(a: ComplexSeq) -> GMReport:
    """sup_n sum_{k=n}^{2n-1} |a_k - a_{k+1}| / |a_n|, zero tail included."""
    if len(a) == 0:
        return GMReport("GMS", 0.0)
    ratios = gms_scan(np.asarray(a.values, dtype=complex), [0, len(a)])
    n = int(np.argmax(ratios))
    return GMReport("GMS", float(ratios[n]), n + 1) if ratios[n] > 0.0 else GMReport("GMS", 0.0)


def gms1_constant(a: ComplexSeq) -> GMReport:
    """sup over n <= k <= 2n of |a_k| / |a_n| (k capped at the support end);
    among equal maxima the witness is the first n, then the first k."""
    if len(a) == 0:
        return GMReport("GMS1", 0.0)
    m = _moduli(np.asarray(a.values, dtype=complex))
    starts = np.arange(len(m))
    ends = np.minimum(2 * starts + 2, len(m))
    ratios = _ratios(_window_reduce(np.maximum, m, starts, ends), m)
    n = int(np.argmax(ratios))
    if not ratios[n] > 0.0:
        return GMReport("GMS1", 0.0)
    return GMReport("GMS1", float(ratios[n]), (n + 1, n + 1 + int(np.argmax(m[n : ends[n]]))))


_ROW_BLOCK = 1 << 14  # (n, N') entries of the GMS2 triangle evaluated together


def gms2_constant(a: ComplexSeq) -> GMReport:
    """sup over 1 <= n < N' of
    sum_{k=n}^{N'-1} |a_k - a_{k+1}| / (|a_n| + sum_{k=n+1}^{N'} |a_k|/k).

    N' beyond N + 1 adds nothing to either side, so the scan stops there.
    O(N^2) via prefix sums, which is the documented budget for this class,
    in blocks of whole rows n of at most ``_ROW_BLOCK`` entries; each row
    offers its first best entry, in order of n.
    """
    n_len = len(a)
    if n_len == 0:
        return GMReport("GMS2", 0.0)
    vals = np.asarray(a.values, dtype=complex)
    m = _moduli(vals)
    d = np.abs(np.diff(np.append(vals, 0j)))
    pd = np.concatenate(([0.0], np.cumsum(d)))
    pw = np.concatenate(([0.0], np.cumsum(m / np.arange(1, n_len + 1))))
    best, first = (0.0, None), 1
    while first <= n_len:
        n_primes = np.arange(first + 1, n_len + 2)
        n = np.arange(first, min(first + max(1, _ROW_BLOCK // len(n_primes)), n_len + 1))
        nums = pd[n_primes - 1] - pd[n - 1, None]
        dens = m[n - 1, None] + pw[np.minimum(n_primes, n_len)] - pw[n, None]
        ratios = np.where(n_primes > n[:, None], _ratios(nums, dens), -np.inf)  # N' <= n is no window
        j, rows = np.argmax(ratios, axis=1), np.arange(len(n))
        witnesses = zip(n.tolist(), n_primes[j].tolist())
        for num, den, witness in zip(nums[rows, j].tolist(), dens[rows, j].tolist(), witnesses):
            best = _offer(best, num, den, witness)
        first += len(n)
    return GMReport("GMS2", *best)


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
    best = (0.0, None)
    # the jumps in [x, 2x] and the steps are constant on each left-open cell, so
    # its right end stands for it, and no dilation of f can overflow or underflow it
    for lo, hi in _cells(boundary):
        jump_sum = math.fsum(sz for p, sz in jumps if hi <= p < 2.0 * hi)
        if head is not None and hi <= x1:
            c, g = head.c, head.gamma
            if 2.0 * hi <= x1:
                # whole window inside the head; no jump can reach it
                best = _offer(best, c * hi**g * (2.0**g - 1.0), c * hi**g, hi)
            else:
                # window straddles the junction: smooth part + cell's jumps.
                # The ratio decreases in x, sup at the lo+ limit -- evaluate
                # the cell formula at both endpoints (lo >= x1/2 > 0 here).
                for x_eval in (lo, hi):
                    num = c * (x1**g - x_eval**g) + jump_sum
                    best = _offer(best, num, c * x_eval**g, x_eval)
        else:
            # both sides constant across the cell
            best = _offer(best, jump_sum, abs(f.eval(hi)), (lo, hi))
    return GMReport("GM", *best)


def _gm1_constant_step(f) -> GMReport:
    """Variant GM1: sup_x sup_{x <= t <= 2x} |f(t)| / |f(x)|."""
    head, x1, pieces, jumps = _normalize(f)
    boundary = []
    for lo, hi, _ in pieces:
        boundary += [lo / 2.0, lo, hi / 2.0, hi]
    if head is not None:
        boundary += [x1 / 2.0, x1]
    best = (0.0, None)
    for lo, hi in _cells(boundary):
        # pieces meeting [x, 2x]: lo_p < 2x and hi_p >= x -- left-open /
        # right-closed in x, hence constant across the cell (its right end decides).
        p_sup = max(
            (m for plo, phi, m in pieces if plo < 2.0 * hi and phi >= hi),
            default=0.0,
        )
        if head is not None and hi <= x1:
            # ratio nonincreasing in x: head part is 2^gamma or (x1/x)^gamma,
            # step part p_sup / (c x^gamma); sup at lo+.
            c, g = head.c, head.gamma
            for x_eval in (lo, hi) if lo > 0.0 else (hi,):
                num = max(c * min(2.0 * x_eval, x1) ** g, p_sup)
                best = _offer(best, num, c * x_eval**g, x_eval)
        else:
            best = _offer(best, p_sup, abs(f.eval(hi)), (lo, hi))
    return GMReport("GM1", *best)


def _gm2_constant_step(f) -> GMReport:
    """Variant GM2: sup over x < M of V_f([x, M]) / (|f(x)| + int_x^M |f| dt/t).

    The sup over M is approached just past a jump point (the jump enters the
    variation while the integral still runs only to p), so M scans p+ for
    each jump point p.  For fixed M the ratio increases in x across a step
    piece (sup at its right edge) and is a Moebius function of x^gamma on the
    head (sup at an end), so x scans piece right edges, 0+, and x1.

    Both ends are jump points (or 0+), so the jumps in [x, M] and the whole
    pieces in (x, M] are contiguous runs of jump indices: each side is a range
    of exact integer prefix sums, rounded once -- ``math.fsum`` of the same
    terms bit for bit.  That makes the scan O(M^2) pairs at O(1) each.
    """
    head, x1, pieces, jumps = _normalize(f)
    points = [p for p, _ in jumps]
    at = [abs(f.eval(p)) for p in points]
    # logs[k]: int |f| dt/t over the stretch ending at points[k] -- the head
    # from 0 when headed.  A headless first piece starts at 0 and is never
    # inside a window, so its entry is a placeholder.
    logs = [m * math.log(hi / lo) if m != 0.0 and lo > 0.0 else 0.0 for lo, hi, m in pieces]
    if head is not None:
        rise = head.c * x1**head.gamma
        logs.insert(0, rise / head.gamma)
    jump_sum, log_sum = _exact_range_sums([sz for _, sz in jumps]), _exact_range_sums(logs)

    best = (0.0, None)
    first = 0 if head is None else 1  # points[first:] are the piece right edges
    for k, m_pt in enumerate(points):
        for i in range(first, k + 1):
            best = _offer(best, jump_sum(i, k + 1), at[i] + log_sum(i + 1, k + 1), (points[i], m_pt))
        if head is not None:
            # x = 0+: the head's rise joins the rounded jump sum, and its
            # integral the denominator's exact sum; then x = x1 = points[0].
            best = _offer(best, jump_sum(0, k + 1) + rise, log_sum(0, k + 1), (0.0, m_pt))
            best = _offer(best, jump_sum(0, k + 1), at[0] + log_sum(1, k + 1), (x1, m_pt))
    return GMReport("GM2", *best)


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
# Splices.
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
