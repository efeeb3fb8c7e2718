"""Adaptive Gauss-Legendre quadrature over many pieces in one pass.

One call integrates one integrand over a batch of pieces [a_k, b_k].  The
integrand sees all the nodes of a pass at once, as an array of ``_NODE``
records: the abscissa ``x`` and the index ``piece`` of the piece it lies in,
so per-piece parameters are one gather away.

Each piece is integrated exactly as it would be on its own.  A panel estimate
is a 16-node Gauss rule; its refinement is the sum over the two halves.  A
panel is accepted when |one-panel - two-half| is within its share of its
piece, by length, of rel_tol times the piece's running estimate, so the
accepted errors of a piece sum below rel_tol * |its integral|.  A piece whose
panels still disagree at the bisection depth cap raises
:class:`NonconvergenceError`; one whose estimate is not finite raises
``ValueError``.  When several pieces fail, the error raised is the
lowest-indexed piece's, the one a loop over the pieces would meet first.

Pieces go through in blocks of ``_BLOCK``, which bounds the node arrays of a
pass whatever the number of pieces.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["NonconvergenceError", "adaptive_integral"]

_NODES, _WEIGHTS = leggauss(16)

_MAX_DEPTH = 40  # bisections a panel may take before NonconvergenceError

_BLOCK = 1024  # pieces integrated together

# Panels per integrand call, and the open panels that two or more pieces
# of a block may hold between them.  Past that the block is halved, so a
# piece whose panels multiply fails, or exhausts memory, only after the
# pieces before it, as it would on its own.
_PANELS = 1 << 14

_NODE = np.dtype([("x", np.float64), ("piece", np.intp)])


class NonconvergenceError(RuntimeError):
    """Panel bisection hit the depth cap before reaching the tolerance."""


def _panel_estimates(fvec, lows: np.ndarray, highs: np.ndarray, piece: np.ndarray, sizes, *offsets) -> np.ndarray:
    """16-node Gauss estimate for each [lo, hi], one integrand call per
    ``_PANELS`` panels.

    The panels are grouped by piece, ``sizes[k]`` of them for piece k, and a
    piece's rows at each of ``offsets`` make up the matrix that a one-piece
    run would weigh in one matrix-vector product.  The products are made
    matrix by matrix, as there, since BLAS may round a row's sum differently
    by the row's place in its matrix."""
    mid = 0.5 * (lows + highs)[:, None]
    half = 0.5 * (highs - lows)[:, None]
    vals = np.empty((len(lows), len(_NODES)))
    for start in range(0, len(lows), _PANELS):
        part = slice(start, start + _PANELS)
        nodes = np.empty(vals[part].shape, dtype=_NODE)
        nodes["x"] = mid[part] + half[part] * _NODES
        nodes["piece"] = piece[part, None]
        vals[part] = np.asarray(fvec(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if np.count_nonzero(sizes) == 1:
        sums = vals @ _WEIGHTS
    else:
        sums = np.empty(len(lows))
        starts = np.cumsum(sizes) - sizes
        for size in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
            rows = starts[sizes == size][:, None] + np.arange(size)
            rows = np.concatenate([rows + off for off in offsets], axis=1)
            sums[rows] = np.matmul(vals[rows], _WEIGHTS)
    return (half[:, 0]) * sums


def _group_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ``sum`` of each run of ``values``, ``sizes[k]`` long for run k,
    bit for bit.

    ``ndarray.sum`` adds fewer than 8 terms left to right from 0.0 and pairs
    longer runs, so short runs are added column by column and long ones by
    ``sum`` on their own slice."""
    if len(sizes) == 1:
        return np.array([values.sum()])
    starts = np.cumsum(sizes) - sizes
    out = np.zeros(len(sizes))
    short = np.flatnonzero((sizes > 0) & (sizes < 8))
    for j in range(7):
        short = short[sizes[short] > j]
        if not len(short):
            break
        out[short] += values[starts[short] + j]
    for k in np.flatnonzero(sizes >= 8).tolist():
        out[k] = values[starts[k] : starts[k] + sizes[k]].sum()
    return out


def _integrate_block(fvec, a: np.ndarray, b: np.ndarray, first: int, rel_tol: float, seeds: np.ndarray):
    """Integrals over the pieces [a[k], b[k]], numbered from ``first`` for
    the integrand, and the error of the lowest-indexed failing piece; None
    when two or more open pieces would hold over ``_PANELS`` panels."""
    n = len(a)
    # starting panels: each nonempty piece cut at the seeds strictly inside it
    live = np.flatnonzero(~(b <= a))
    cut_piece, cut = np.nonzero((seeds > a[live, None]) & (seeds < b[live, None]))
    owner = np.concatenate([live, live[cut_piece], live])
    order = np.argsort(owner, kind="stable")  # per piece: a, its seeds in order, b
    owner, edges = owner[order], np.concatenate([a[live], seeds[cut], b[live]])[order]
    inner = owner[:-1] == owner[1:]
    lows, highs, piece = edges[:-1][inner], edges[1:][inner], owner[:-1][inner]

    done = np.zeros(n)
    if not len(lows):
        return done, None
    coarse = _panel_estimates(fvec, lows, highs, piece + first, np.bincount(piece, minlength=n), 0)
    length = b - a
    failed, error = n, None  # pieces from ``failed`` on are dropped
    depth = 0  # every open panel has been bisected ``depth`` times
    while True:
        sizes = np.bincount(piece, minlength=n)
        mids = 0.5 * (lows + highs)
        m = len(lows)
        halves = _panel_estimates(
            fvec,
            np.concatenate([lows, mids]),
            np.concatenate([mids, highs]),
            np.concatenate([piece, piece]) + first,
            sizes,
            0,
            m,
        )
        fine = halves[:m] + halves[m:]
        err = np.abs(coarse - fine)
        estimate = done + _group_sums(fine, sizes)
        blown = np.flatnonzero(~np.isfinite(estimate))
        if len(blown) and blown[0] < failed:
            failed = int(blown[0])
            error = ValueError(f"integrand is not finite on [{a[failed]:g}, {b[failed]:g}]")
        budget = rel_tol * np.maximum(np.abs(estimate), 1e-300)
        accepted = err <= budget[piece] * (highs - lows) / length[piece]
        done += _group_sums(fine[accepted], np.bincount(piece[accepted], minlength=n))
        keep = ~accepted & (piece < failed)
        still = piece[keep]
        if not len(still):
            break
        if depth >= _MAX_DEPTH:
            # every piece still open fails here; the first of them is reported
            failed = int(still[0])
            own = piece == failed
            worst = int(np.argmax((err * keep)[own]))
            error = NonconvergenceError(
                f"panel [{lows[own][worst]:g}, {highs[own][worst]:g}] still off by "
                f"{err[own][worst]:.3e} at bisection depth {_MAX_DEPTH}"
            )
            break
        several = still[0] != still[-1]
        if several and 2 * len(still) > _PANELS:
            return None
        # a piece's next panels are its kept left halves, then its kept right
        # halves, each in the order of the panels they split
        lows = np.concatenate([lows[keep], mids[keep]])
        highs = np.concatenate([mids[keep], highs[keep]])
        coarse = np.concatenate([halves[:m][keep], halves[m:][keep]])
        piece = np.concatenate([still, still])
        if several:
            order = np.argsort(piece, kind="stable")
            lows, highs, coarse, piece = lows[order], highs[order], coarse[order], piece[order]
        depth += 1
    return done, error


def adaptive_integral(
    fvec,
    a,
    b,
    rel_tol: float = 1e-10,
    seeds=(),
):
    """Integral of ``fvec`` over [a, b], or over each piece [a[k], b[k]].

    ``fvec`` maps a flat array of ``_NODE`` records (fields ``x`` and
    ``piece``, the index k) to the integrand's values there.  ``a`` and ``b``
    are floats, giving a float, or 1-d arrays of piece ends, giving an array
    with 0.0 for every piece where b[k] <= a[k].  ``seeds`` lists interior
    points to pre-split at (integrand kinks); each piece uses those strictly
    inside it.

    Raises :class:`NonconvergenceError` when a panel cannot settle within 40
    bisections.  Raises ``ValueError`` unless ``rel_tol`` is finite and
    positive, and when a piece's panel estimates are not finite: in either
    case no panel would ever be accepted, and the panel count would double on
    every pass.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {rel_tol!r}")
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.atleast_1d(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    seeds = np.array(sorted(set(map(float, seeds))), dtype=float)
    out = np.zeros(len(a))
    # a stack of piece ranges, the lowest on top
    blocks = [(first, min(first + _BLOCK, len(a))) for first in range(0, len(a), _BLOCK)][::-1]
    while blocks:
        start, stop = blocks.pop()
        result = _integrate_block(fvec, a[start:stop], b[start:stop], start, rel_tol, seeds)
        if result is None:  # too many open panels: the two halves go one after the other
            mid = (start + stop) // 2
            blocks += [(mid, stop), (start, mid)]
            continue
        out[start:stop], error = result
        if error is not None:
            raise error
    return float(out[0]) if scalar else out
