"""Distribution functions and decreasing rearrangements.

The rearrangement of a step function is computed exactly: pieces are sorted by
modulus and their lengths accumulated as one exact integer prefix sum, rounded
once per breakpoint, so each breakpoint is ``math.fsum`` of the lengths before
it bit for bit and the distribution function of the result matches the
input's bitwise (both are correctly-rounded sums of the same multiset of piece
lengths).
"""

from __future__ import annotations

import math

from .model import ComplexSeq, RepresentationError, StepFunction, _exact_range_sums

__all__ = [
    "DecreasingStep",
    "distribution",
    "rearrange_step",
    "rearrange_seq",
    "left_limit",
]


class DecreasingStep(StepFunction):
    """Nonnegative, non-increasing step function without a head -- the carrier for f*.

    Its values are stored as real floats.  Evaluation at a breakpoint x_j
    returns the value on (x_{j-1}, x_j], which is the LEFT limit of the
    right-continuous rearrangement.  The two agree off breakpoints, so norms
    and distribution functions are unaffected.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        last = math.inf
        for v in self.values:
            if v.imag != 0.0 or not 0.0 <= v.real <= last:
                raise ValueError("values must be nonnegative and non-increasing")
            last = v.real
        if self.head is not None:
            raise ValueError("a power head increases, so f* has none")
        object.__setattr__(self, "values", tuple(v.real for v in self.values))


def _headless_pieces(f: StepFunction) -> tuple:
    if f.head is not None:
        raise RepresentationError("function carries a power head")
    return f.pieces()


def distribution(f, alpha: float) -> float:
    """Measure (or count) of the level set {|f| > alpha}, alpha >= 0.

    Step functions use Lebesgue measure on (0, inf); sequences use counting
    measure on {1, 2, ...}.  The inequality is strict, so alpha equal to a value
    excludes that piece.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if isinstance(f, ComplexSeq):
        return float(sum(1 for v in f.values if abs(v) > alpha))
    if isinstance(f, DecreasingStep):
        # Non-increasing: the level set is a prefix (0, x_j]; return the stored
        # breakpoint so equimeasurability with the source function is exact.
        out = 0.0
        for xj, vj in zip(f.breakpoints, f.values):
            if vj > alpha:
                out = xj
            else:
                break
        return out
    return math.fsum(hi - lo for lo, hi, v in _headless_pieces(f) if abs(v) > alpha)


def rearrange_step(f: StepFunction) -> DecreasingStep:
    """Decreasing rearrangement of a step function, with equal-modulus pieces merged.

    Power-headed inputs are rejected: their rearrangement is not a step
    function.  So is a piece that sorts after longer ones and is shorter than
    the rounding of the running length: f* would need two breakpoints that
    round to one float."""
    ranked = [(abs(v), lo, hi) for lo, hi, v in _headless_pieces(f) if v != 0]
    ranked.sort(key=lambda piece: -piece[0])

    length_sum = _exact_range_sums([hi - lo for _, lo, hi in ranked])
    breakpoints: list[float] = []
    values: list[float] = []
    firsts: list[int] = []  # index in ranked of each group's first piece
    for j, (m, _, _) in enumerate(ranked):
        if values and values[-1] == m:
            breakpoints[-1] = length_sum(0, j + 1)
        else:
            breakpoints.append(length_sum(0, j + 1))
            values.append(m)
            firsts.append(j)
    for k in range(1, len(breakpoints)):
        if breakpoints[k] == breakpoints[k - 1]:
            m, lo, hi = ranked[firsts[k]]
            raise RepresentationError(
                f"rounding absorbs the piece ({lo!r}, {hi!r}] with modulus {m!r} "
                f"into f*'s breakpoint {breakpoints[k]!r}, so f* has no exact float form"
            )
    return DecreasingStep(tuple(breakpoints), tuple(values))


def rearrange_seq(a: ComplexSeq) -> ComplexSeq:
    """Moduli sorted in decreasing order (a*_1 >= a*_2 >= ... >= a*_N)."""
    return ComplexSeq(tuple(sorted(a.moduli(), reverse=True)))


def left_limit(fstar: DecreasingStep, x: float) -> float:
    """lim_{y -> x-} f*(y); equals the stored piece value under our convention."""
    if x <= 0:
        raise ValueError("x must be positive")
    return fstar.eval(x).real
