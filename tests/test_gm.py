"""Window-variation constants, splices, averages, bell majorants."""

import math

import pytest

from lorentz_gm.gm import (
    average_function,
    average_seq,
    bell_majorant,
    gm_constant_step,
    gms1_constant,
    gms2_constant,
    gms_constant,
    quasi_monotone_check,
    splice,
    variation_of_average,
)
from lorentz_gm.model import ComplexSeq, PowerHead, StepFunction, TwoSidedSeq


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


def test_gm_variant_spelling():
    f = StepFunction((1.0,), (1.0,))
    assert gm_constant_step(f, "gm_1").class_tag == "GM1"
    with pytest.raises(ValueError):
        gm_constant_step(f, "GM3")


def test_quasi_monotone():
    assert quasi_monotone_check(ComplexSeq((1.0, 0.5, 1.0 / 3.0)), 0.0)
    assert quasi_monotone_check(ComplexSeq((1.0, 2.0, 3.0)), 1.0)
    assert not quasi_monotone_check(ComplexSeq((1.0, 2.0, 3.0)), 0.0)
    with pytest.raises(ValueError):
        quasi_monotone_check(ComplexSeq((1.0,)), -0.5)
    with pytest.raises(ValueError):
        quasi_monotone_check(ComplexSeq((-1.0,)), 0.0)


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
    d = sr.to_dict()
    assert d["join"] == 2 and d["measured"]["constant"] == sr.measured.constant


def test_splice_rejects_bad_joins():
    ones = ComplexSeq((1.0, 1.0))
    with pytest.raises(ValueError):
        splice(ones, ones, 0)
    with pytest.raises(ValueError):
        splice(ComplexSeq((0.0, 1.0)), ComplexSeq((1.0,)), 1)


def test_average_seq_counts_zero_tail():
    a = ComplexSeq((2.0, 4.0))
    assert average_seq(a, 2) == 3.0 + 0j
    assert average_seq(a, 4) == 1.5 + 0j
    with pytest.raises(ValueError):
        average_seq(a, 0)


def test_average_function_values():
    f = StepFunction((2.0,), (1.0,))
    assert average_function(f, 1.0) == 1.0 + 0j
    assert average_function(f, 4.0) == 0.5 + 0j
    h = StepFunction((1.0,), (), PowerHead(1.0, 1.0))
    assert average_function(h, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        average_function(f, 0.0)


def test_variation_of_average():
    f = StepFunction((2.0,), (1.0,))
    assert variation_of_average(f, 1.0, 4.0) == pytest.approx(0.5)
    assert variation_of_average(f, 0.5, 2.0) == 0.0
    with pytest.raises(ValueError):
        variation_of_average(f, 2.0, 1.0)
    with pytest.raises(ValueError):
        variation_of_average(f, 0.0, 1.0)


def test_bell_majorant():
    m = bell_majorant(TwoSidedSeq((1.0, 3.0, 2.0), -1))
    assert m.n_min == -1 and m.n_max == 1
    assert (m[-1], m[0], m[1]) == (2.0 + 0j, 3.0 + 0j, 2.0 + 0j)
    # one-sided input still produces an even majorant through the origin
    spike = bell_majorant(TwoSidedSeq((5.0,), 3))
    assert spike.n_min == -3 and spike.n_max == 3
    assert all(spike[n] == 5.0 + 0j for n in range(-3, 4))


def test_majorant_dominates_and_decreases():
    c = TwoSidedSeq((0.5, 2.0, 0.1, 1.0, 0.3), -2)
    m = bell_majorant(c)
    for n in c.indices():
        assert abs(m[n]) >= abs(c[n])
    for n in range(0, m.n_max):
        assert abs(m[n]) >= abs(m[n + 1])
