"""Shared adaptive Gauss-Legendre machinery.

One panel estimate is a 16-node Gauss rule; its refinement is the sum over
the two halves.  A panel is accepted when |one-panel - two-half| is within
its length-share of the global relative tolerance, so the accepted errors
sum below rel_tol * |integral|.  Panels that still disagree at the bisection
depth cap raise :class:`NonconvergenceError`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["NonconvergenceError", "adaptive_integral"]

_NODES, _WEIGHTS = leggauss(16)

_MAX_DEPTH = 40  # bisections a panel may take before NonconvergenceError


class NonconvergenceError(RuntimeError):
    """Panel bisection hit the depth cap before reaching the tolerance."""


def _panel_estimates(fvec, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """16-node Gauss estimate for each [lo, hi], one vectorized call."""
    mid = 0.5 * (lows + highs)[:, None]
    half = 0.5 * (highs - lows)[:, None]
    xs = mid + half * _NODES
    vals = np.asarray(fvec(xs.ravel()), dtype=float).reshape(xs.shape)
    return (half[:, 0]) * (vals @ _WEIGHTS)


def adaptive_integral(
    fvec,
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    seeds=(),
) -> float:
    """Integral of ``fvec`` over [a, b].

    ``fvec`` maps a flat float array to same-shape values.  ``seeds`` lists
    interior points to pre-split at (integrand kinks).  Raises
    :class:`NonconvergenceError` when a panel cannot settle within 40
    bisections.  Raises ``ValueError`` unless ``rel_tol`` is finite and
    positive, and when the panel estimates are not finite: in either case no
    panel would ever be accepted, and the panel count would double on every
    pass.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {rel_tol!r}")
    if b <= a:
        return 0.0
    edges = sorted({a, b, *(s for s in seeds if a < s < b)})
    lows = np.asarray(edges[:-1], dtype=float)
    highs = np.asarray(edges[1:], dtype=float)
    coarse = _panel_estimates(fvec, lows, highs)
    depth = np.zeros(len(lows), dtype=int)
    total_len = b - a
    done = 0.0

    while len(lows):
        mids = 0.5 * (lows + highs)
        halves = _panel_estimates(
            fvec, np.concatenate([lows, mids]), np.concatenate([mids, highs])
        )
        n = len(lows)
        fine = halves[:n] + halves[n:]
        err = np.abs(coarse - fine)
        estimate = done + float(fine.sum())
        if not math.isfinite(estimate):
            raise ValueError(f"integrand is not finite on [{a:g}, {b:g}]")
        budget = rel_tol * max(abs(estimate), 1e-300)
        accepted = err <= budget * (highs - lows) / total_len
        done += float(fine[accepted].sum())
        keep = ~accepted
        if not keep.any():
            break
        if int(depth[keep].max()) >= _MAX_DEPTH:
            worst = int(np.argmax(err * keep))
            raise NonconvergenceError(
                f"panel [{lows[worst]:g}, {highs[worst]:g}] still off by "
                f"{err[worst]:.3e} at bisection depth {_MAX_DEPTH}"
            )
        lows = np.concatenate([lows[keep], mids[keep]])
        highs = np.concatenate([mids[keep], highs[keep]])
        coarse = np.concatenate([halves[:n][keep], halves[n:][keep]])
        depth = np.concatenate([depth[keep] + 1, depth[keep] + 1])
    return done
