"""Gauss-Legendre quadrature: a fixed rule over many pieces in blocks of at
most ``_BLOCK_ENTRIES`` node values, and an adaptive integrator over one
interval.

The adaptive panel estimate is a 16-node Gauss rule and its refinement the
sum over the two halves.  A panel is accepted when the two differ by at most
its share, by length, of rel_tol times the running estimate, so the accepted
errors sum below rel_tol * |the integral|.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["NonconvergenceError", "adaptive_integral", "gauss_sums"]

_MAX_DEPTH = 40  # bisections a panel may take before NonconvergenceError

_BLOCK_ENTRIES = 1 << 14  # node values of one blocked pass


class NonconvergenceError(RuntimeError):
    """Panel bisection hit the depth cap before reaching the tolerance."""


@functools.cache
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre nodes and weights on [-1, 1], read-only:
    every caller shares them."""
    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_sums(fvals, count: int, n: int = 16) -> np.ndarray:
    """``fvals(part, x) @ weights`` for the pieces ``range(count)``: ``fvals``
    gives the integrand at the n nodes x on [-1, 1], mapped onto each piece of
    the slice ``part``, as a (pieces, n) array, one block at a time."""
    nodes, weights = _rule(n)
    block = max(1, _BLOCK_ENTRIES // n)
    out = np.empty(count)
    for start in range(0, count, block):
        part = slice(start, start + block)
        out[part] = fvals(part, nodes) @ weights
    return out


def _panel_estimates(fvec, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """16-node Gauss estimate for each panel [lo, hi], in one integrand call."""
    nodes, weights = _rule(16)
    mid = 0.5 * (lows + highs)[:, None]
    half = 0.5 * (highs - lows)[:, None]
    xs = mid + half * nodes
    vals = np.asarray(fvec(xs.ravel()), dtype=float).reshape(xs.shape)
    return half[:, 0] * (vals @ weights)


def adaptive_integral(fvec, a: float, b: float, rel_tol: float = 1e-10, seeds=()) -> float:
    """Integral of ``fvec`` (a map of flat x arrays) over [a, b]; 0.0 when
    b <= a.  ``seeds`` lists kinks to pre-split at; those inside (a, b) count.

    Raises :class:`NonconvergenceError` when a panel cannot settle within
    ``_MAX_DEPTH`` bisections, and ``ValueError`` unless ``rel_tol`` is
    finite and positive or when the estimate is not finite: then no panel
    would ever be accepted, and the panel count would double on every pass.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {rel_tol!r}")
    a, b = float(a), float(b)
    if b <= a:
        return 0.0
    edges = np.array(sorted({a, b, *(s for s in map(float, seeds) if a < s < b)}))
    lows, highs = edges[:-1], edges[1:]
    coarse = _panel_estimates(fvec, lows, highs)
    done = 0.0
    for depth in range(_MAX_DEPTH + 1):
        mids = 0.5 * (lows + highs)
        m = len(lows)
        halves = _panel_estimates(fvec, np.concatenate([lows, mids]), np.concatenate([mids, highs]))
        fine = halves[:m] + halves[m:]
        err = np.abs(coarse - fine)
        estimate = done + float(fine.sum())
        if not math.isfinite(estimate):
            raise ValueError(f"integrand is not finite on [{a:g}, {b:g}]")
        budget = rel_tol * max(abs(estimate), 1e-300)
        accepted = err <= budget * (highs - lows) / (b - a)
        done += float(fine[accepted].sum())
        keep = ~accepted
        if not keep.any():
            return done
        if depth == _MAX_DEPTH:
            worst = int(np.argmax(err * keep))
            raise NonconvergenceError(
                f"panel [{lows[worst]:g}, {highs[worst]:g}] still off by "
                f"{err[worst]:.3e} at bisection depth {_MAX_DEPTH}"
            )
        # the next panels are the kept left halves, then the kept right
        # halves, each in the order of the panels they split
        lows = np.concatenate([lows[keep], mids[keep]])
        highs = np.concatenate([mids[keep], highs[keep]])
        coarse = np.concatenate([halves[:m][keep], halves[m:][keep]])
