"""Trigonometric polynomials with general-monotone coefficients.

Partial-sum window bounds with explicit constants, the L1 norm, a certified
weak-L1 bound, and a certified bracket on the sequence-side/function-side
norm ratio used in the duality checks.
"""

from __future__ import annotations

import math

import numpy as np

from .gm import gms2_constant
from .model import PQ, ComplexSeq, VerificationReport, make_report
from .norms import lorentz_norm_seq, power_total
from .quadrature import _rule, adaptive_integral

__all__ = [
    "partial_sum_grid",
    "partial_sum_dft",
    "dirichlet_bound_report",
    "l1_norm_trig",
    "l1_log_weight_report",
    "weak_l1_report",
    "duality_ratio",
]

def _coefficients(c: ComplexSeq, m: int, n_hi: int) -> np.ndarray:
    if not 1 <= m <= n_hi:
        raise ValueError("need 1 <= m <= N")
    coeffs = np.zeros(n_hi - m + 1, dtype=complex)  # c_k = 0 past the support
    given = c.values[m - 1 : n_hi]
    coeffs[: len(given)] = given
    return coeffs


def partial_sum_grid(c: ComplexSeq, m: int, n_hi: int, xs) -> np.ndarray:
    """sum_{k=m}^{n_hi} c_k e^{ikx} over an array of x values.

    Horner's rule in z = e^{ix}: |z| = 1 keeps the recurrence stable, and it
    costs one ``exp`` per point rather than one per (point, term) pair."""
    coeffs = _coefficients(c, m, n_hi)
    xs = np.asarray(xs, dtype=float)
    z = np.exp(1j * xs)
    acc = np.zeros(xs.shape, dtype=complex)
    for ck in coeffs[::-1]:
        acc *= z
        acc += ck
    return acc * np.exp(1j * m * xs)


def partial_sum_dft(c: ComplexSeq, m: int, n_hi: int, count: int, shift=1.0) -> np.ndarray:
    """sum_{k=m}^{n_hi} c_k e^{ikx} at x_j = (j - 1 + s) pi / count, j = 1..count,
    for the cell offset s = ``shift``: s = 1 gives the grid j pi / count and
    s = 1/2 its midpoints.  A 1-d array of offsets gives one row per offset.

    Each grid sits on the size-2*count DFT grid (Cooley & Tukey 1965) once c_k
    is twisted by e^{i pi k s / count}: there e^{ikx} depends on k only mod
    2*count.  Folding the twisted coefficients mod 2*count and one batched
    inverse FFT give every sample."""
    if count < 1:
        raise ValueError("count must be >= 1")
    coeffs = _coefficients(c, m, n_hi)
    size = 2 * count
    ks = np.arange(m, n_hi + 1)
    twisted = coeffs * np.exp(1j * math.pi / size * np.multiply.outer(2.0 * np.asarray(shift, float), ks))
    # c_k goes to slot k mod size; the FFT pads the slots past the last c_k with zeros
    lead, end = m % size, m % size + len(ks)
    folded = np.zeros(twisted.shape[:-1] + (end if end <= size else -(-end // size) * size,), dtype=complex)
    folded[..., lead:end] = twisted
    if end > size:  # sum the periods of the slots
        folded = folded.reshape(twisted.shape[:-1] + (-1, size)).sum(axis=-2)
    return np.fft.ifft(folded, size, axis=-1, norm="forward")[..., :count]


def dirichlet_bound_report(
    c: ComplexSeq, m: int, n_hi: int, x_grid, variant: str = "plain"
) -> VerificationReport:
    """Window partial sums against the explicit variation bound.

    plain: |sum_{k=m}^{N} c_k e^{ikx}| <= (4 pi / x)(|c_m|/2 + sum |c_k - c_{k+1}|)
    gm2:   ... <= (6 pi B / x)(|c_m| + sum_{k>m} |c_k|/k), B the measured
    double-window tail constant (>= 1 for nonzero input).

    The worst grid point (by lhs - bound) is reported; pass tolerates 1e-12.
    """
    xs = np.asarray(x_grid, dtype=float)
    if xs.size == 0 or np.any(xs <= 0.0) or np.any(xs > math.pi + 1e-15):
        raise ValueError("x_grid must be nonempty within (0, pi]")
    lhs_all = np.abs(partial_sum_grid(c, m, n_hi, xs))
    if variant == "plain":
        base = abs(c[m]) / 2.0 + math.fsum(abs(c[k] - c[k + 1]) for k in range(m, n_hi))
        constant = 4.0 * math.pi
        name = "window-variation-bound"
    elif variant == "gm2":
        base = abs(c[m]) + math.fsum(abs(c[k]) / k for k in range(m + 1, n_hi + 1))
        constant = 6.0 * math.pi * max(1.0, gms2_constant(c).constant)
        name = "window-tail-bound"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    rhs_all = base / xs
    worst = int(np.argmax(lhs_all - constant * rhs_all))
    return make_report(
        name, float(lhs_all[worst]), float(rhs_all[worst]), constant, slack=1e-12
    )


def l1_norm_trig(c: ComplexSeq, tol: float = 1e-8) -> float:
    """int_0^pi |sum c_k e^{ikx}| dx by adaptive panels, denser near 0.

    Seed panels split at pi j / N and, below pi / N, at pi 2^{-j} down to
    scale ~1/N: the two estimates of a panel over several periods of e^{iNx}
    can agree by accident.  The 16 Gauss nodes of every panel [pi j / N,
    pi (j + 1) / N] and of its halves are 48 cell offsets of the grid
    pi j / N, so one batched ``partial_sum_dft`` gives the whole seed pass
    there; only the dyadic panels and the bisections of panels that fail go
    through Horner.  Each panel bisects until the refinement moves the total
    by < tol (relative).  Raises NonconvergenceError past the depth cap.
    """
    mods = c.moduli()
    if not any(mods):
        return 0.0
    n = len(mods)

    def modulus(xs: np.ndarray) -> np.ndarray:
        return np.abs(partial_sum_grid(c, 1, n, xs))

    levels = math.ceil(math.log2(max(n, 2))) + 2
    # the dyadic panels below pi / n, then the n - 1 panels [pi j / n, pi (j + 1) / n]
    dyadic = np.array([0.0, *(math.pi * 2.0 ** (-j) for j in range(levels, 0, -1) if 2**j > n), math.pi / n])
    widths = np.append(np.diff(dyadic), np.full(n - 1, math.pi / n))
    nodes, weights = _rule(16)
    s = 0.5 * (1.0 + nodes)
    shifts = np.concatenate([s, 0.5 * s, 0.5 + 0.5 * s])  # the nodes of a panel, its left half, its right half
    vals = np.hstack([modulus(dyadic[:-1] + np.multiply.outer(shifts, widths[: len(dyadic) - 1])),
                      np.abs(partial_sum_dft(c, 1, n, n, shifts))[:, 1:]])
    sums = weights @ vals.reshape(3, 16, -1) * widths
    seeds = [*dyadic[1:], *(math.pi * j / n for j in range(2, n))]
    return adaptive_integral(modulus, 0.0, math.pi, rel_tol=tol, seeds=seeds,
                             first_pass=(sums[0] / 2.0, np.concatenate(sums[1:]) / 4.0))


def l1_log_weight_report(c: ComplexSeq, tol: float = 1e-8, b2: float | None = None) -> VerificationReport:
    """``l1_norm_trig`` at ``tol`` against 2 pi |c_1| + 27 pi B sum_{k>=2} |c_k| log k / k,
    with B = max(1, b2) and b2 the measured double-window tail constant
    (``gms2_constant``, computed when not given).  Needs c nonempty."""
    mods = c.moduli()
    b = max(1.0, gms2_constant(c).constant if b2 is None else b2)
    log_weight = math.fsum(m * math.log(k) / k for k, m in enumerate(mods, 1) if k >= 2)
    rhs = 2.0 * math.pi * mods[0] + 27.0 * math.pi * b * log_weight
    return make_report("l1-log-weight-bound", l1_norm_trig(c, tol=tol), rhs, 1.0)


def _midpoint_cells(c: ComplexSeq, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """v_j = |f(m_j)| on the midpoints m_j = (j - 1/2) h, h = pi / count, of
    f = sum c_k e^{ikx}, and delta_j >= ||f(x)| - v_j| on |x - m_j| <= h/2: by
    Taylor, (h/2)|f'(m_j)| + (h^2/8) sum k^2 |c_k|, plus 8 eps (log2(2 count) +
    ceil(N / (2 count))) times the l1 norm of each pass's coefficients (c_k for
    v, ik c_k for |f'|), the rounding allowance README.md derives.  count
    defaults to the least power of two >= 2^13 with h N <= pi/64."""
    count = max(1 << 13, 1 << math.ceil(math.log2(64 * len(c)))) if count is None else count
    if count < 2:
        raise ValueError("need at least 2 cells")
    n, h, size = len(c), math.pi / count, 2 * count
    ks = np.arange(1, n + 1)
    coeffs = np.asarray(c.values, dtype=complex)
    l0, l1, l2 = (float(np.sum(ks**p * np.abs(coeffs))) for p in (0, 1, 2))
    ulps = 8.0 * np.finfo(float).eps * (math.log2(size) + math.ceil(n / size))
    v = np.abs(partial_sum_dft(c, 1, n, count, 0.5))
    dv = np.abs(partial_sum_dft(ComplexSeq(tuple(1j * ks * coeffs)), 1, n, count, 0.5))
    return v, (h / 2.0) * (dv + ulps * l1) + (h * h / 8.0) * l2 + ulps * l0


def weak_l1_report(c: ComplexSeq, x_samples: int | None = None, b2: float | None = None) -> VerificationReport:
    """sup_alpha alpha * lambda{x in (0, pi): |f(x)| > alpha} against
    6 pi B ||c||_{l1, 1/k} with B = max(1, b2), b2 as in :func:`l1_log_weight_report`.

    |f| <= u_j = v_j + delta_j on the ``x_samples`` midpoint cells (by default
    :func:`_midpoint_cells`'s count).  With u sorted down, lambda{|f| > alpha}
    <= r h once alpha >= u_(r+1), so the lhs max_r u_(r) r h is a certified
    upper end.
    """
    mods = c.moduli()
    rhs = math.fsum(m / k for k, m in enumerate(mods, 1))
    constant = 6.0 * math.pi * max(1.0, gms2_constant(c).constant if b2 is None else b2)
    if not any(mods):
        return make_report("weak-l1-bound", 0.0, 0.0, constant)
    v, delta = _midpoint_cells(c, x_samples)
    upper = np.sort(v + delta)[::-1] * (np.arange(1, v.size + 1) * (math.pi / v.size))
    return make_report("weak-l1-bound", float(np.max(upper)), rhs, constant)


def _cell_weights(count: int, pq: PQ) -> np.ndarray:
    """The Lorentz norm on (0, pi] of the indicator of each of ``count`` equal cells
    (lo, hi]: hi^{1/p} times the shape root of x^{1/p} (``norms.power_term``)."""
    j = np.arange(1.0, count + 1.0)
    weights = (j * (math.pi / count)) ** (1.0 / pq.p)
    if pq.q < math.inf:
        r = pq.q / pq.p
        with np.errstate(divide="ignore"):
            weights *= (-np.expm1(-r * np.log1p(1.0 / (j - 1.0))) / r) ** (1.0 / pq.q)
    return weights


def duality_ratio(c: ComplexSeq, pq: PQ, n_hi: int, grid: int | None = None) -> VerificationReport:
    """Sequence-side Lorentz norm (conjugate first index) over a certified
    bracket on the function-side Lorentz norm of f_N on (0, pi).

    f* lies between the rearrangements of (v - delta)_+ and v + delta on the
    ``grid`` midpoint cells (by default :func:`_midpoint_cells`'s count), and
    the Lorentz norm is monotone in f*.  lhs is the sequence norm and rhs the
    function norm's lower end; ``ratio`` = lhs / rhs is the ratio's upper end
    and ``constant`` its lower end.  A grid too coarse for rhs > 0 fails.
    """
    if not 1.0 < pq.p < math.inf:
        raise ValueError("duality ratio needs 1 < p < inf")
    trunc = ComplexSeq(c.values[: max(n_hi, 0)])
    seq_norm = lorentz_norm_seq(trunc, pq.with_conjugate_p())
    if not any(trunc.values):
        return VerificationReport("duality-ratio", 0.0, 0.0, 0.0, math.nan, True)
    v, delta = _midpoint_cells(trunc, grid)
    # the step taking the values ``levels`` on equal cells has f* = levels sorted down
    weights = _cell_weights(len(v), pq)
    fn_lo, fn_hi = (power_total(np.sort(levels)[::-1] * weights, pq.q)
                    for levels in (np.maximum(v - delta, 0.0), v + delta))
    ratio_hi = seq_norm / fn_lo if fn_lo > 0 else math.inf
    return VerificationReport("duality-ratio", seq_norm, fn_lo, seq_norm / fn_hi, ratio_hi, fn_lo > 0)
