"""Window-variation constants and splices."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorentz_gm import gm
from lorentz_gm.gm import (
    gm_constant_step,
    gms1_constant,
    gms2_constant,
    gms_constant,
    gms_scan,
    splice,
)
from lorentz_gm.model import ComplexSeq, PowerHead, StepFunction


def test_gms_monotone_sequence_is_one():
    rep = gms_constant(ComplexSeq((1.0, 0.5, 1.0 / 3.0, 0.25)))
    assert rep.class_tag == "GMS"
    assert rep.constant == pytest.approx(1.0, rel=1e-15)


def test_gms_interior_zero_blows_up():
    rep = gms_constant(ComplexSeq((1.0, 0.0, 1.0)))
    assert rep.constant == math.inf
    assert rep.witness == 2


def test_gms_sums_each_window_exactly_enough():
    # Large early differences, then small late windows: a difference of global
    # prefix sums would lose the late windows, where the supremum sits.
    early = [1e12 * (1.0 + 1e-3 * math.sin(k)) for k in range(64)]
    late = [1.0 + 0.5 * math.sin(k) for k in range(448)]
    a = ComplexSeq(tuple(early + late))
    n_len = len(a)
    best, witness = 0.0, None
    for n in range(1, n_len + 1):
        window = math.fsum(abs(a[k] - a[k + 1]) for k in range(n, min(2 * n - 1, n_len) + 1))
        if window / abs(a[n]) > best:
            best, witness = window / abs(a[n]), n
    rep = gms_constant(a)
    assert witness > 64
    assert rep.witness == witness
    assert rep.constant == pytest.approx(best, rel=1e-13)


def test_gms1_bump():
    rep = gms1_constant(ComplexSeq((1.0, 2.0, 1.0)))
    assert rep.constant == 2.0
    assert rep.witness == (1, 2)
    assert gms1_constant(ComplexSeq((0.0, 1.0))).constant == math.inf


def test_gms2_values():
    assert gms2_constant(ComplexSeq((1.0,))).constant == 1.0
    rep = gms2_constant(ComplexSeq((0.0, 1.0, 0.0)))
    assert rep.constant == 4.0
    assert rep.witness == (1, 3)


def test_empty_sequences_have_zero_constant():
    empty = ComplexSeq(())
    for fn in (gms_constant, gms1_constant, gms2_constant):
        assert fn(empty).constant == 0.0


def test_gm_step_pure_head():
    h = StepFunction((1.0,), (), PowerHead(1.0, 1.0))
    assert gm_constant_step(h, "GM").constant == 3.0
    assert gm_constant_step(h, "GM1").constant == 2.0


def test_gm_step_indicator():
    f = StepFunction((1.0,), (1.0,))
    # the rise at 0 is never inside a window, so only the terminal drop counts
    assert gm_constant_step(f, "GM").constant == 1.0
    assert gm_constant_step(f, "GM2").constant == 1.0
    two = StepFunction((1.0, 2.0), (2.0, 1.0))
    assert gm_constant_step(two, "GM").constant == 1.0


def _gm2_brute_force(f):
    """GM2 by direct scan, O(M^3): every (x, M) pair sums its own terms with
    math.fsum.  Same candidates, order and witnesses as gm_constant_step."""
    head, x1, pieces = f.head, f.head_edge, f.pieces()
    jumps = []
    if head is not None:
        after = pieces[0][2] if pieces else 0j
        jumps.append((x1, abs(after - complex(head.eval(x1)))))
    for i, (lo, hi, v) in enumerate(pieces):
        nxt = pieces[i + 1][2] if i + 1 < len(pieces) else 0j
        jumps.append((hi, abs(nxt - v)))
    pieces = [(lo, hi, abs(v)) for lo, hi, v in pieces]

    def log_integral(a, b):
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

    def variation(x, m_pt):
        total = math.fsum(sz for p, sz in jumps if x <= p <= m_pt)
        if head is not None and x < x1:
            total += head.c * (min(m_pt, x1) ** head.gamma - x**head.gamma)
        return total

    best, witness = 0.0, None
    for m_pt in sorted({p for p, _ in jumps}):
        x_candidates = [hi for _, hi, _ in pieces if hi <= m_pt]
        if head is not None:
            x_candidates += [0.0, x1]
        for x in x_candidates:
            num = variation(x, m_pt)
            den = (abs(f.eval(x)) if x > 0.0 else 0.0) + log_integral(x, m_pt)
            if num != 0.0:
                ratio = num / den if den > 0.0 else math.inf
                if ratio > best:
                    best, witness = ratio, (x, m_pt)
    return best, witness


@st.composite
def gm_functions(draw):
    """Step functions with or without a head: piece lengths across 80
    binades, zero pieces and repeated values among arbitrary complex ones."""
    lengths = draw(st.lists(
        st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-40, 40)), min_size=1, max_size=9
    ))
    bps, x = [], 0.0
    for ell in lengths:
        if x + ell > x:
            x += ell
            bps.append(x)
    head = None
    if draw(st.booleans()):
        head = PowerHead(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 4.0)))
    value = st.one_of(
        st.sampled_from([0j, 1 + 0j, 2 + 0j, 0.5j]),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    )
    values = draw(st.lists(value, min_size=len(bps) - (head is not None),
                           max_size=len(bps) - (head is not None)))
    return StepFunction(tuple(bps), tuple(values), head)


@settings(max_examples=300, deadline=None)
@given(gm_functions())
@example(StepFunction((1.0, 2.0, 3.0), (1.0, 3.0, 0.5)))
@example(StepFunction((0.5, 1.0, 4.0), (0.0, 2.0), PowerHead(2.0, 0.5)))
@example(StepFunction((1e-20, 1e-10, 1e300), (1.0, 2.0, 3.0)))  # an infinite log term
@example(StepFunction((1.0, 2.0, 3.0), (1e308, -1e308, 1.0)))  # an infinite jump
def test_gm2_matches_brute_force_bitwise(f):
    rep = gm_constant_step(f, "GM2")
    assert (rep.constant, rep.witness) == _gm2_brute_force(f)


def test_gm2_worked_value():
    # 1, 3, 0.5 on unit pieces: the jump of 2 at x = 1 against |f(1)| = 1 and
    # an empty integral beats every longer window.
    rep = gm_constant_step(StepFunction((1.0, 2.0, 3.0), (1.0, 3.0, 0.5)), "GM2")
    assert (rep.constant, rep.witness) == (2.0, (1.0, 1.0))


def test_gm_variant_spelling():
    f = StepFunction((1.0,), (1.0,))
    assert gm_constant_step(f, "gm_1").class_tag == "GM1"
    with pytest.raises(ValueError):
        gm_constant_step(f, "GM3")


def test_splice_fields_and_bound():
    a = ComplexSeq((1.0, 1.0, 1.0, 1.0))
    c = ComplexSeq((2.0, 2.0, 2.0, 2.0))
    sr = splice(a, c, 2)
    assert sr.join == 2
    assert sr.gamma == 2.0
    assert sr.base_constant == 1.0
    assert sr.predicted == 15.0
    assert sr.seq.values == (1.0 + 0j, 1.0 + 0j, 2.0 + 0j, 2.0 + 0j)
    assert sr.measured.constant <= sr.predicted
    assert sr.measured.class_tag == "GMS"


def test_splice_rejects_bad_joins():
    ones = ComplexSeq((1.0, 1.0))
    with pytest.raises(ValueError):
        splice(ones, ones, 0)
    with pytest.raises(ValueError):
        splice(ComplexSeq((0.0, 1.0)), ComplexSeq((1.0,)), 1)


def _offer(best, witness, num, den, at):
    """One step of the sequential supremum scan: 0/x is skipped, x/0 is inf,
    and only a strictly larger ratio replaces the best."""
    if num == 0.0:
        return best, witness
    ratio = num / den if den > 0.0 else math.inf
    return (ratio, at) if ratio > best else (best, witness)


def _gms_one_segment(values):
    """The GMS scan of one sequence by its own reduceat, as gms_constant ran
    before segments were batched; kept as the oracle."""
    vals = np.asarray(values, dtype=complex)
    n_len = len(vals)
    m = np.abs(vals)
    d = np.append(np.abs(np.diff(np.append(vals, 0j))), 0.0)
    starts = np.arange(n_len)
    bounds = np.empty(2 * n_len, dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = np.minimum(2 * starts + 1, n_len)
    sums = np.add.reduceat(d, bounds)[0::2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = np.where(sums == 0.0, -1.0, np.where(m > 0.0, sums / m, np.inf))
    j = int(np.argmax(ratios))
    return _offer(0.0, None, float(sums[j]), float(m[j]), j + 1)


def _gms1_loop(values):
    """gms1_constant's per-n window loop, kept as the oracle."""
    m = np.abs(np.asarray(values, dtype=complex))
    best, witness = 0.0, None
    for n in range(1, len(m) + 1):
        window = m[n - 1 : min(2 * n, len(m))]
        k_rel = int(np.argmax(window))
        best, witness = _offer(best, witness, float(window[k_rel]), float(m[n - 1]), (n, n + k_rel))
    return best, witness


_SEQ_ENTRY = st.one_of(
    st.sampled_from([0j, 1 + 0j, 2 + 0j, 0.5j, 1e-300 + 0j]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)
_SEGMENT = st.one_of(
    st.lists(_SEQ_ENTRY, min_size=1, max_size=40),
    st.integers(1, 12).map(lambda n: [0j] * n),  # all-zero segments
    st.lists(_SEQ_ENTRY, min_size=1, max_size=1),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SEGMENT, min_size=1, max_size=8))
@example([[1.0 + 0j], [0j], [0j, 0j, 0j], [1.0 + 0j, 0j, 1.0 + 0j]])
@example([[1e12 * (1.0 + 1e-3 * math.sin(k)) + 0j for k in range(64)]
          + [1.0 + 0.5 * math.sin(k) + 0j for k in range(448)], [2.0 + 0j, 1.0 + 0j]])
def test_gms_scan_of_a_ragged_batch_matches_each_segment_bitwise(segments):
    offsets = np.cumsum([0] + [len(seg) for seg in segments])
    ratios = gms_scan(np.array([v for seg in segments for v in seg], dtype=complex), offsets)
    assert len(ratios) == offsets[-1]
    for seg, lo, hi in zip(segments, offsets[:-1], offsets[1:]):
        alone = gms_scan(np.array(seg, dtype=complex), [0, len(seg)])
        assert ratios[lo:hi].tobytes() == alone.tobytes()
        best, at = _gms_one_segment(seg)
        j = int(np.argmax(ratios[lo:hi]))
        assert (max(ratios[j + lo], 0.0), j + 1 if ratios[j + lo] > 0.0 else None) == (best, at)
        rep = gms_constant(ComplexSeq(tuple(seg)))
        assert (rep.constant, rep.witness) == (best, at)
        assert math.copysign(1.0, rep.constant) == math.copysign(1.0, best)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_SEGMENT, st.lists(st.sampled_from([0j, 1 + 0j, 2 + 0j]), min_size=1, max_size=30)))
@example([1.0 + 0j, 2.0 + 0j, 1.0 + 0j])
@example([0j, 1.0 + 0j])
@example([2.0 + 0j, 1.0 + 0j, 2.0 + 0j, 1.0 + 0j, 2.0 + 0j])  # tied maxima: first n, then first k
def test_gms1_matches_the_window_loop_bitwise(values):
    rep = gms1_constant(ComplexSeq(tuple(values)))
    assert (rep.constant, rep.witness) == _gms1_loop(values)


def test_gms_and_gms1_refuse_an_overflowing_modulus():
    a = ComplexSeq((1.5e308 + 1.5e308j, 1.0))
    for fn in (gms_constant, gms1_constant):
        with pytest.raises(OverflowError):
            fn(a)


def _gms2_loop(values) -> tuple:
    """The per-n scan ``gms2_constant`` made before its rows went through in
    blocks: one row of N' per n, its first best entry offered in order of n."""
    vals = np.asarray(values, dtype=complex)
    n_len = len(vals)
    m = gm._moduli(vals)
    d = np.abs(np.diff(np.append(vals, 0j)))
    pd = np.concatenate(([0.0], np.cumsum(d)))
    pw = np.concatenate(([0.0], np.cumsum(m / np.arange(1, n_len + 1))))
    best = (0.0, None)
    for n in range(1, n_len + 1):
        n_primes = np.arange(n + 1, n_len + 2)
        nums = pd[n_primes - 1] - pd[n - 1]
        dens = m[n - 1] + pw[np.minimum(n_primes, n_len)] - pw[n]
        j = int(np.argmax(gm._ratios(nums, dens)))
        best = gm._offer(best, float(nums[j]), float(dens[j]), (n, int(n_primes[j])))
    return best


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _SEGMENT,
        st.lists(st.sampled_from([0j, 1 + 0j, 2 + 0j, 1e308 + 0j, -1e308 + 0j]), min_size=1, max_size=60),
    ),
    st.sampled_from([1, 3, 7, 64, 1 << 14]),
)
@example([1.0 + 0j], 1 << 14)
@example([0j, 1.0 + 0j, 0j], 1)
@example([2.0 + 0j, 1.0 + 0j, 2.0 + 0j, 1.0 + 0j, 2.0 + 0j], 3)  # tied maxima
@example([1e308 + 0j, -1e308 + 0j, 1e308 + 0j, 1.0 + 0j], 5)  # infinite differences: nan entries
@example([0j] * 9, 4)
def test_gms2_matches_the_per_n_loop_bitwise(values, block):
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(gm, "_ROW_BLOCK", block)  # small blocks split the triangle mid-way
        rep = gms2_constant(ComplexSeq(tuple(values)))
        best = _gms2_loop(values)
    assert rep.constant.hex() == float(best[0]).hex() and rep.witness == best[1]


@st.composite
def headless_dilations(draw):
    """A headless step function and a power of two k that keeps every
    breakpoint and its half a normal float after dilation by 2^k."""
    f = draw(gm_functions().filter(lambda f: f.head is None))
    lo_k = math.frexp(sys.float_info.min)[1] - math.frexp(f.breakpoints[0] / 2.0)[1] + 1
    hi_k = math.frexp(sys.float_info.max)[1] - math.frexp(f.breakpoints[-1])[1] - 1
    return f, draw(st.integers(lo_k, hi_k))


@settings(max_examples=300, deadline=None)
@given(headless_dilations())
@example((StepFunction((1.0, 2.0, 3.0), (2.0, 1.0, 1.5)), 531))  # sqrt(lo hi) overflowed here
@example((StepFunction((1.0, 2.0, 3.0), (2.0, 1.0, 1.5)), -565))  # and underflowed here
def test_gm_constants_are_dilation_invariant_bitwise(case):
    f, k = case
    g = StepFunction(tuple(math.ldexp(x, k) for x in f.breakpoints), f.values)
    for variant in ("GM", "GM1", "GM2"):
        assert gm_constant_step(g, variant).constant == gm_constant_step(f, variant).constant, variant
