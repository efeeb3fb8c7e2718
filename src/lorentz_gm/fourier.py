"""Trigonometric polynomials with general-monotone coefficients.

Partial-sum window bounds with explicit constants, L1 and weak-L1 size
estimates, and the sequence-side/function-side norm ratio used in the
duality checks.
"""

from __future__ import annotations

import math

import numpy as np

from .gm import gms2_constant
from .model import PQ, ComplexSeq, VerificationReport, make_report
from .norms import lorentz_norm_seq
from .quadrature import adaptive_integral

__all__ = [
    "partial_sum_grid",
    "partial_sum_dft",
    "dirichlet_bound_report",
    "l1_norm_trig",
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


def partial_sum_dft(
    c: ComplexSeq, m: int, n_hi: int, count: int, midpoint: bool = False
) -> np.ndarray:
    """sum_{k=m}^{n_hi} c_k e^{ikx} on the uniform grid of ``count`` points
    in (0, pi]: x_j = j pi / count for j = 1..count, or the midpoints
    (j - 1/2) pi / count when ``midpoint`` is set.

    Both grids sit on the size-2*count DFT grid (Cooley & Tukey 1965): there
    e^{ikx} depends on k only mod 2*count, once the midpoint grid twists c_k
    by e^{i pi k / (2 count)}.  Folding the coefficients mod 2*count and one
    inverse FFT give every sample."""
    if count < 1:
        raise ValueError("count must be >= 1")
    coeffs = _coefficients(c, m, n_hi)
    size = 2 * count
    ks = np.arange(m, n_hi + 1)
    if midpoint:
        coeffs = coeffs * np.exp(1j * math.pi / size * ks)
    slots = ks % size
    folded = np.bincount(slots, coeffs.real, size) + 1j * np.bincount(slots, coeffs.imag, size)
    samples = np.fft.ifft(folded, norm="forward")
    return samples[:count] if midpoint else samples[1 : count + 1]


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

    Seed panels are dyadic, (pi 2^{-j-1}, pi 2^{-j}] down to scale ~1/N, then
    each panel bisects until the refinement moves the total by < tol
    (relative).  Raises NonconvergenceError past the depth cap.
    """
    mods = c.moduli()
    if not any(mods):
        return 0.0
    n = len(mods)

    def modulus(xs: np.ndarray) -> np.ndarray:
        return np.abs(partial_sum_grid(c, 1, n, xs))

    levels = math.ceil(math.log2(max(n, 2))) + 2
    seeds = [math.pi * 2.0 ** (-j) for j in range(1, levels + 1)]
    return adaptive_integral(modulus, 0.0, math.pi, rel_tol=tol, seeds=seeds)


def weak_l1_report(c: ComplexSeq, alpha_grid=None, x_samples: int = 1 << 16) -> VerificationReport:
    """sup_alpha alpha * lambda{x in (0, pi): |f(x)| > alpha} against
    6 pi B ||c||_{l1, 1/k} with B the measured double-window tail constant.

    The sup is taken over sampled modulus levels (where it is attained in
    closure) or over ``alpha_grid`` when given; the uniform sample grid
    doubles until the estimate moves by < 0.1%.  Sampling estimates the level
    measure from below, so the pass is a consistency check, not a proof.
    """
    if x_samples < 2:
        raise ValueError("x_samples must be >= 2")
    mods = c.moduli()
    rhs = math.fsum(m / k for k, m in enumerate(mods, 1))
    constant = 6.0 * math.pi * max(1.0, gms2_constant(c).constant)
    if not any(mods):
        return make_report("weak-l1-bound", 0.0, 0.0, constant)
    n = len(mods)

    def estimate(pool: np.ndarray) -> float:
        if alpha_grid is not None:
            alphas = np.asarray(alpha_grid, dtype=float)
            measures = (pool[None, :] > alphas[:, None]).sum(axis=1) * (math.pi / pool.size)
            return float(np.max(alphas * measures))
        levels = np.sort(pool)[::-1]
        ranks = np.arange(1, pool.size + 1) * (math.pi / pool.size)
        return float(np.max(levels * ranks))

    # dyadic endpoint grid i*pi/count nests under doubling, so each refinement
    # only evaluates the new midpoints
    count = x_samples
    pool = np.abs(partial_sum_dft(c, 1, n, count))
    best = estimate(pool)
    while count < (1 << 22):
        pool = np.concatenate([pool, np.abs(partial_sum_dft(c, 1, n, count, midpoint=True))])
        count *= 2
        nxt = estimate(pool)
        moved = abs(nxt - best) / max(abs(nxt), 1e-300)
        best = nxt
        if moved < 1e-3:
            break
    return make_report("weak-l1-bound", best, rhs, constant)


def _empirical_lorentz(sorted_desc: np.ndarray, length: float, pq: PQ) -> float:
    """Lorentz norm of the decreasing step with equal-length pieces spanning
    (0, length] and values ``sorted_desc`` (the sampled rearrangement)."""
    count = len(sorted_desc)
    edges = np.arange(0, count + 1) * (length / count)
    if math.isinf(pq.q):
        return float(np.max(sorted_desc * edges[1:] ** (1.0 / pq.p)))
    s = pq.q / pq.p
    blocks = sorted_desc**pq.q * (edges[1:] ** s - edges[:-1] ** s) / s
    return float(blocks.sum()) ** (1.0 / pq.q)


def duality_ratio(c: ComplexSeq, pq: PQ, n_hi: int, grid: int = 1 << 14) -> VerificationReport:
    """Sequence-side Lorentz norm (conjugate first index) against the sampled
    function-side Lorentz norm of f_N on (0, pi); the assertion is ratio
    stability: < 1% drift when the sample grid doubles, no absolute constant.

    The report's ``constant`` column records the final drift.
    """
    if not 1.0 < pq.p < math.inf:
        raise ValueError("duality ratio needs 1 < p < inf")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    n_eff = min(n_hi, len(c)) if len(c) else 0
    trunc = ComplexSeq(tuple(c[k] for k in range(1, n_eff + 1)))
    seq_norm = lorentz_norm_seq(trunc, pq.with_conjugate_p())
    if not any(trunc.moduli()):
        return VerificationReport("duality-ratio", 0.0, 0.0, 0.0, math.nan, True)

    def empirical(count: int) -> float:
        sample = np.sort(np.abs(partial_sum_dft(trunc, 1, n_eff, count, midpoint=True)))[::-1]
        return _empirical_lorentz(sample, math.pi, pq)

    count, fn_norm = grid, empirical(grid)
    drift = math.inf
    while count < (1 << 21):
        count *= 2
        nxt = empirical(count)
        drift = abs(nxt - fn_norm) / max(abs(nxt), 1e-300)
        fn_norm = nxt
        if drift < 0.01:
            break
    ratio = seq_norm / fn_norm if fn_norm > 0 else math.inf
    passed = drift < 0.01 and math.isfinite(ratio)
    return VerificationReport("duality-ratio", seq_norm, fn_norm, drift, ratio, passed)
