"""Shared value types: finite complex sequences, the step-function carrier on
(0, inf), angular sectors, and (p, q) norm parameters.

Conventions used across the whole package:

* sequences are indexed 1..N with an implicit zero tail;
* every interval is left-open/right-closed, so a step function holds value v_j on
  (x_{j-1}, x_j] with x_0 = 0 and is zero on (x_M, inf);
* an infinite p or q is the float ``math.inf``, never a stand-in value.

Every function-side object is one :class:`StepFunction`: breakpoints, step
values, and an optional power head c x^gamma on (0, x1].  Consumers read
``f.head``, ``f.head_edge`` and ``f.pieces()`` (the steps after the head)
directly; the decreasing rearrangement f* is the subclass
``rearrange.DecreasingStep``.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "ComplexSeq",
    "StepFunction",
    "PowerHead",
    "HeadedStepFunction",
    "Sector",
    "PQ",
    "VerificationReport",
    "MissingHeadError",
    "NotGMError",
    "RepresentationError",
    "sector_contains",
    "sector_mask",
    "load_sequence",
    "load_function",
    "dump_sequence",
    "dump_function",
    "write_reports_csv",
]


class MissingHeadError(ValueError):
    """A computation needs f > 0 near the origin but the function has no power head."""


class NotGMError(ValueError):
    """An operation requires a finite general-monotonicity constant and got infinity."""


class RepresentationError(ValueError):
    """The requested result is not representable in the closed function classes."""


def _check_finite_complex(z: complex, what: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")


@dataclass(frozen=True)
class ComplexSeq:
    """Finite-support complex sequence a_1..a_N; entries beyond N are zero.

    ``seq[n]`` is 1-based and returns 0j for any n > N, which lets callers write
    window sums without guarding the tail.
    """

    values: tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        vals = tuple(map(complex, self.values))
        if not all(map(cmath.isfinite, vals)):  # walk the entries only to name the bad one
            for v in vals:
                _check_finite_complex(v, "sequence entry")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> complex:
        if n < 1:
            raise IndexError("sequence indices start at 1")
        if n > len(self.values):
            return 0j
        return self.values[n - 1]

    def moduli(self) -> tuple[float, ...]:
        return tuple(map(abs, self.values))


@dataclass(frozen=True)
class PowerHead:
    """Power-law head c * x**gamma used on the first interval (0, x1]."""

    c: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("head coefficient must be finite and > 0")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("head exponent must be finite and > 0")

    def eval(self, x: float) -> float:
        return self.c * x**self.gamma


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant complex function on (0, inf), optionally led by a power head.

    Without a head, ``values[j]`` is the value on (x_{j-1}, x_j] with x_0 = 0.
    With a head c x^gamma on (0, x1], ``values`` holds the steps on (x1, x2],
    .., (x_{M-1}, x_M] only -- one entry fewer than ``breakpoints``.  The
    function is zero past x_M; the empty headless partition is the zero function.
    """

    breakpoints: tuple[float, ...] = ()
    values: tuple[complex, ...] = ()
    head: PowerHead | None = None

    def __post_init__(self) -> None:
        bps = tuple(float(x) for x in self.breakpoints)
        vals = tuple(complex(v) for v in self.values)
        prev = 0.0
        for x in bps:
            if not math.isfinite(x) or x <= prev:
                raise ValueError("breakpoints must be finite, positive, strictly increasing")
            prev = x
        for v in vals:
            _check_finite_complex(v, "step value")
        if self.head is not None and not bps:
            raise ValueError("a head needs its right edge x1 among the breakpoints")
        expected = len(bps) - (self.head is not None)
        if len(vals) != expected:
            raise ValueError(
                f"value count {len(vals)} does not match the partition (expected {expected})"
            )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @property
    def head_edge(self) -> float:
        """x1, the right edge of the head region; 0.0 without a head."""
        return self.breakpoints[0] if self.head is not None else 0.0

    def eval(self, x: float) -> complex:
        """f(x) under the left-open/right-closed convention; 0 beyond the support."""
        if x <= 0:
            raise ValueError("functions live on (0, inf)")
        j = bisect_left(self.breakpoints, x)  # x lies in (x_{j-1}, x_j]
        if self.head is not None:
            if j == 0:
                return complex(self.head.eval(x))
            j -= 1
        return self.values[j] if j < len(self.values) else 0j

    def pieces(self) -> tuple[tuple[float, float, complex], ...]:
        """The steps after the head region as (lo, hi, value) triples, lo exclusive / hi inclusive."""
        edges = self.breakpoints if self.head is not None else (0.0,) + self.breakpoints
        return tuple(zip(edges, edges[1:], self.values))


# Headed and plain step functions are one carrier; the older name of the headed
# one stays bound to it for callers that read it, such as the benchmark tracer.
HeadedStepFunction = StepFunction


@dataclass(frozen=True)
class Sector:
    """Closed angular sector of half-aperture phi around direction e^{i alpha}, plus 0.

    ``tol`` widens membership tests by a small angle so that sums of boundary
    values do not fall out of the cone through rounding.
    """

    alpha: float
    phi: float
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 2.0 * math.pi:
            raise ValueError("alpha must lie in [0, 2*pi)")
        if not 0.0 <= self.phi < math.pi / 2.0:
            raise ValueError("phi must lie in [0, pi/2)")
        if self.tol < 0.0:
            raise ValueError("tol must be nonnegative")


def sector_contains(z: complex, s: Sector) -> bool:
    """Membership in the sector: z = 0 or |arg(e^{-i alpha} z)| <= phi + tol."""
    if z == 0:
        return True
    return abs(cmath.phase(z * cmath.exp(-1j * s.alpha))) <= s.phi + s.tol


def sector_mask(values, s: Sector) -> np.ndarray:
    """``sector_contains`` for every entry of ``values`` in one numpy pass, bit for bit.

    The rotation is multiplied out in real arithmetic, as CPython multiplies
    complex numbers (numpy's complex product may fuse multiply-adds).  numpy's
    vectorised arctan2 may differ from the C library's by a few units in the
    last place, so entries whose angle lies within 1e-12 of the edge are
    decided by ``math.atan2``, which ``cmath.phase`` calls.
    """
    z = np.asarray(values, dtype=complex)
    rot = cmath.exp(-1j * s.alpha)
    re = z.real * rot.real - z.imag * rot.imag
    im = z.real * rot.imag + z.imag * rot.real
    edge = s.phi + s.tol
    angle = np.abs(np.arctan2(im, re))
    inside = angle <= edge
    for i in np.flatnonzero(np.abs(angle - edge) <= 1e-12).tolist():
        inside[i] = abs(math.atan2(im[i], re[i])) <= edge
    return inside | (z == 0)


@dataclass(frozen=True)
class PQ:
    """A (p, q) norm-parameter pair, p and q in (0, inf].

    The Lorentz-space definition restricts to 0 < p < inf with 0 < q <= inf, or
    p = q = inf; ``lorentz_admissible`` reports that.  Plain weighted norms are
    well defined for every pair, so construction does not enforce the restriction.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        for name, v in (("p", self.p), ("q", self.q)):
            if math.isnan(v) or v <= 0:
                raise ValueError(f"{name} must be positive (possibly inf)")

    @property
    def lorentz_admissible(self) -> bool:
        if math.isinf(self.p):
            return math.isinf(self.q)
        return True

    def with_conjugate_p(self) -> "PQ":
        """(p', q) with 1/p + 1/p' = 1; requires 1 < p < inf."""
        if not 1.0 < self.p < math.inf:
            raise ValueError("conjugation needs 1 < p < inf")
        return PQ(self.p / (self.p - 1.0), self.q)


def _exact_range_sums(terms: list[float]):
    """Range sums of nonnegative floats: ``sums(i, j)`` is ``math.fsum(terms[i:j])``
    bit for bit, in O(1) per call.

    Every finite float is an integer multiple of 2**-e for one shared e, so the
    prefix sums are kept exactly, as integers over ``scale = 2**e``.  A range
    sum is a difference of two of them rounded once, and Python rounds
    int / int correctly (half to even), so nothing is lost to cancellation.  A
    range holding an infinite term is infinite.
    """
    ratios = [t.as_integer_ratio() if t != math.inf else (0, 1) for t in terms]
    scale = max((den for _, den in ratios), default=1)
    prefix = list(accumulate((num * (scale // den) for num, den in ratios), initial=0))
    infinite = list(accumulate((t == math.inf for t in terms), initial=0))

    def sums(i: int, j: int) -> float:
        return math.inf if infinite[j] > infinite[i] else (prefix[j] - prefix[i]) / scale

    return sums


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """One verified inequality instance: lhs <= constant * rhs, ratio = lhs/rhs.
    Slotted: every suite and the CLI build many of them."""

    name: str
    lhs: float
    rhs: float
    constant: float
    ratio: float
    passed: bool

    CSV_HEADER = "name,lhs,rhs,constant,ratio,pass"

    def csv_row(self) -> str:
        return (
            f"{self.name},{self.lhs!r},{self.rhs!r},{self.constant!r},"
            f"{self.ratio!r},{str(self.passed).lower()}"
        )


def make_report(name: str, lhs: float, rhs: float, constant: float, *, slack: float = 1e-9) -> VerificationReport:
    """Build a report for lhs <= constant*rhs, tolerating `slack` relative rounding."""
    bound = constant * rhs
    passed = lhs <= bound + slack * max(1.0, abs(bound))
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return VerificationReport(name, lhs, rhs, constant, ratio, passed)


def write_reports_csv(reports, path) -> None:
    lines = [VerificationReport.CSV_HEADER]
    lines += [r.csv_row() for r in reports]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# JSON interchange.
#
# sequence        {"re": [...], "im": [...]}            (im optional)
# step function   {"breakpoints": [...], "re": [...], "im": [...]}
# headed function adds {"head": {"c": ..., "gamma": ...}}
# ---------------------------------------------------------------------------


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(obj: dict, key: str, default=None) -> list:
    arr = obj.get(key, default)
    if not isinstance(arr, list) or not all(map(_is_number, arr)):
        raise ValueError(f'"{key}" must be a list of numbers')
    return arr


def _combine(obj: dict, default=None) -> tuple[complex, ...]:
    re_part = _numbers(obj, "re", default)
    im_part = _numbers(obj, "im") if obj.get("im") is not None else [0.0] * len(re_part)
    if len(re_part) != len(im_part):
        raise ValueError("re and im arrays differ in length")
    return tuple(complex(float(r), float(i)) for r, i in zip(re_part, im_part))


def _load_obj(source) -> dict:
    if isinstance(source, dict):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def load_sequence(source) -> ComplexSeq:
    obj = _load_obj(source)
    if "re" not in obj:
        raise ValueError('sequence JSON needs a "re" array')
    return ComplexSeq(_combine(obj))


def load_function(source) -> StepFunction:
    obj = _load_obj(source)
    if "breakpoints" not in obj:
        raise ValueError('function JSON needs a "breakpoints" array')
    head = obj.get("head")
    if head is not None:
        if not (isinstance(head, dict) and _is_number(head.get("c")) and _is_number(head.get("gamma"))):
            raise ValueError('"head" must be an object with numeric "c" and "gamma"')
        head = PowerHead(float(head["c"]), float(head["gamma"]))
    return StepFunction(tuple(float(x) for x in _numbers(obj, "breakpoints")), _combine(obj, []), head)


def dump_sequence(a: ComplexSeq) -> dict:
    return {"re": [v.real for v in a.values], "im": [v.imag for v in a.values]}


def dump_function(f: StepFunction) -> dict:
    obj = {
        "breakpoints": list(f.breakpoints),
        "re": [v.real for v in f.values],
        "im": [v.imag for v in f.values],
    }
    if f.head is not None:
        obj["head"] = {"c": f.head.c, "gamma": f.head.gamma}
    return obj
