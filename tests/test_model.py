"""Container and report plumbing."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz_gm.model import (
    PQ,
    ComplexSeq,
    HeadedStepFunction,
    PowerHead,
    Sector,
    StepFunction,
    TwoSidedSeq,
    dump_function,
    dump_sequence,
    load_function,
    load_sequence,
    make_report,
    sector_contains,
    sequence_to_step,
    weight_pq,
)


def test_complex_seq_one_based_and_zero_tail():
    a = ComplexSeq((1.0, 2.0 - 1.0j))
    assert a[1] == 1.0
    assert a[2] == 2.0 - 1.0j
    assert a[3] == 0j
    assert a[1000] == 0j
    with pytest.raises(IndexError):
        a[0]


def test_complex_seq_rejects_nonfinite():
    with pytest.raises(ValueError):
        ComplexSeq((float("nan"),))
    with pytest.raises(ValueError):
        ComplexSeq((complex(1.0, float("inf")),))


def test_step_eval_left_open_right_closed():
    f = StepFunction((1.0, 2.0), (3.0, 5.0))
    assert f.eval(1.0) == 3.0  # right endpoint belongs to the piece
    assert f.eval(1.5) == 5.0
    assert f.eval(2.0) == 5.0
    assert f.eval(2.5) == 0j
    with pytest.raises(ValueError):
        f.eval(0.0)


def test_step_validation():
    with pytest.raises(ValueError):
        StepFunction((2.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        StepFunction((0.0,), (1.0,))
    with pytest.raises(ValueError):
        StepFunction((1.0,), (1.0, 2.0))


def test_headed_layout():
    h = StepFunction((1.0, 2.0), (0.5,), PowerHead(1.0, 2.0))
    assert h.eval(0.5) == 0.25
    assert h.eval(1.0) == 1.0
    assert h.eval(1.5) == 0.5
    assert h.eval(3.0) == 0j
    assert h.support_end == 2.0
    assert h.head_edge == 1.0
    assert h.pieces() == ((1.0, 2.0, 0.5),)  # the steps after the head region
    # without a head the first piece starts at 0
    g = StepFunction((1.0,), (2.0,), None)
    assert g.head_edge == 0.0
    assert g.pieces() == ((0.0, 1.0, 2.0),)
    assert g.eval(1.0) == 2.0
    # the older name of the headed carrier is the same class
    assert HeadedStepFunction is StepFunction


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
    st.booleans(),
)
def test_eval_matches_a_scan_of_the_pieces(gaps_vals, headed):
    bps, x = [], 0.0
    for gap, _ in gaps_vals:
        x += gap
        bps.append(x)
    head = PowerHead(1.5, 0.5) if headed else None
    f = StepFunction(tuple(bps), tuple(v for _, v in gaps_vals[int(headed):]), head)

    def scan(x):
        if head is not None and x <= f.head_edge:
            return complex(head.eval(x))
        for lo, hi, v in f.pieces():
            if lo < x <= hi:
                return v
        return 0j

    lows = (0.0,) + f.breakpoints[:-1]
    mids = [(lo + hi) / 2.0 for lo, hi in zip(lows, f.breakpoints)]
    just_past = [math.nextafter(b, math.inf) for b in f.breakpoints]
    for x in (*f.breakpoints, *mids, *just_past, 2.0 * f.support_end):
        assert f.eval(x) == scan(x)


def test_power_head_validation():
    with pytest.raises(ValueError):
        PowerHead(0.0, 1.0)
    with pytest.raises(ValueError):
        PowerHead(1.0, 0.0)
    with pytest.raises(ValueError):
        StepFunction((), (), PowerHead(1.0, 1.0))


def test_two_sided_seq():
    c = TwoSidedSeq((1.0, 2.0, 3.0), -1)
    assert c.n_max == 1
    assert list(c.indices()) == [-1, 0, 1]


def test_pq_range_and_weight():
    pq = PQ(2.0, 4.0)
    assert pq.exponent == pytest.approx(1.0 / 2.0 - 1.0 / 4.0)
    assert weight_pq(pq, 4.0) == pytest.approx(4.0 ** (0.25))
    assert PQ(math.inf, math.inf).lorentz_admissible
    assert not PQ(math.inf, 2.0).lorentz_admissible
    with pytest.raises(ValueError):
        PQ(0.0, 1.0)
    with pytest.raises(ValueError):
        PQ(1.0, -2.0)


def test_pq_conjugate():
    assert PQ(3.0, 1.0).with_conjugate_p().p == pytest.approx(1.5)
    with pytest.raises(ValueError):
        PQ(1.0, 1.0).with_conjugate_p()


def test_sector_membership():
    s = Sector(0.0, math.pi / 4, 0.0)
    assert sector_contains(0j, s)
    assert sector_contains(1.0 + 1.0j, s)
    assert not sector_contains(1.0j, s)
    with pytest.raises(ValueError):
        Sector(0.0, -0.1, 0.0)


def test_sequence_to_step_unit_pieces():
    f = sequence_to_step(ComplexSeq((5.0, 3.0)))
    assert f.breakpoints == (1.0, 2.0)
    assert f.eval(0.5) == 5.0
    assert f.eval(2.0) == 3.0


def test_make_report_pass_and_ratio():
    r = make_report("x", 1.0, 2.0, 1.0)
    assert r.passed and r.ratio == 0.5
    r = make_report("x", 3.0, 2.0, 1.0)
    assert not r.passed
    r = make_report("x", 0.0, 0.0, 1.0)
    assert r.passed and r.ratio == 0.0
    r = make_report("x", 1.0, 0.0, 1.0)
    assert not r.passed and math.isinf(r.ratio)
    # slack is relative to the bound
    r = make_report("x", 1.0 + 1e-12, 1.0, 1.0)
    assert r.passed


def test_report_csv_row_round_trips_floats():
    r = make_report("tight", 1.0 / 3.0, 2.0 / 3.0, 1.0)
    row = r.csv_row()
    parts = row.split(",")
    assert parts[0] == "tight"
    assert float(parts[1]) == 1.0 / 3.0  # repr keeps all bits


def test_json_sequence_round_trip(tmp_path):
    a = ComplexSeq((1.0 + 2.0j, -0.5))
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(dump_sequence(a)))
    assert load_sequence(str(p)).values == a.values
    with pytest.raises(ValueError):
        load_sequence({"im": [1.0]})


def test_json_function_round_trip(tmp_path):
    f = StepFunction((1.0, 3.0), (0.25,), PowerHead(2.0, 0.5))
    p = tmp_path / "fn.json"
    p.write_text(json.dumps(dump_function(f)))
    g = load_function(str(p))
    assert g.breakpoints == f.breakpoints
    assert g.head is not None and g.head.gamma == 0.5
    with pytest.raises(ValueError):
        load_function({"re": [1.0]})
