"""Driver exit codes and output shapes, exercised in process."""

import json
import math
import tracemalloc

import pytest

from lorentz_gm import cli, quadrature
from lorentz_gm.interpolate import interpolation_norm
from lorentz_gm.model import ComplexSeq, make_report


def _seq(tmp_path, name, re, im=None):
    payload = {"re": list(re)}
    if im is not None:
        payload["im"] = list(im)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _fn(tmp_path, name, breakpoints, re, head=None):
    payload = {"breakpoints": list(breakpoints), "re": list(re)}
    if head is not None:
        payload["head"] = head
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_rearrange_seq(tmp_path, capsys):
    path = _seq(tmp_path, "c.json", [1.0, 3.0, 2.0])
    assert cli.main(["rearrange", "--seq", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["re"] == [3.0, 2.0, 1.0]


def test_rearrange_headed_function_is_rejected(tmp_path, capsys):
    path = _fn(tmp_path, "h.json", [1.0, 2.0], [0.5], head={"c": 1.0, "gamma": 1.0})
    assert cli.main(["rearrange", "--fn", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_norm_output(tmp_path, capsys):
    path = _seq(tmp_path, "ones4.json", [1.0] * 4)
    assert cli.main(["norm", "--seq", path, "--p", "2", "--q", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,value"
    assert lines[1].startswith("weighted,") and float(lines[1].split(",")[1]) == pytest.approx(2.0)


def test_gm_rows(tmp_path, capsys):
    path = _seq(tmp_path, "c.json", [1.0, 2.0, 1.0])
    assert cli.main(["gm", "--seq", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["name", "gms", "gms1", "gms2"]


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_gm_rows_are_the_same_at_every_scale(tmp_path, capsys, scale):
    # the cell points used to be sqrt(lo hi), which overflowed to GM 0 at
    # 1e160 and underflowed to "functions live on (0, inf)" at 1e-170
    rows = []
    for s in (1.0, scale):
        path = _fn(tmp_path, "f.json", [s, 2.0 * s, 3.0 * s], [2.0, 1.0, 1.5])
        assert cli.main(["gm", "--fn", path]) == 0
        rows.append(capsys.readouterr().out.splitlines())
    assert rows[0][1:3] == ["GM,2.0", "GM1,1.5"]
    assert rows[1] == rows[0]


def test_kfun_worked_value(tmp_path, capsys):
    path = _seq(tmp_path, "ones8.json", [1.0] * 8)
    assert cli.main(["kfun", "--seq", path, "--t", "0.25"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1373.0 / 840.0


def test_kfun_grid_csv(tmp_path, capsys):
    path = _seq(tmp_path, "ones8.json", [1.0] * 8)
    out = tmp_path / "k.csv"
    assert cli.main(["kfun", "--seq", path, "--t-grid", "0.01:10:5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,k"
    assert len(lines) == 6


def test_kfun_needs_t(tmp_path, capsys):
    path = _seq(tmp_path, "ones8.json", [1.0] * 8)
    assert cli.main(["kfun", "--seq", path]) == 1
    assert cli.main(["kfun", "--seq", path, "--t-grid", "1:2"]) == 1


def test_interp_value(tmp_path, capsys):
    path = _seq(tmp_path, "e1.json", [1.0])
    assert cli.main(["interp", "--seq", path, "--theta", "0.5", "--q", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(math.sqrt(2.0))


def test_decompose_grid(tmp_path, capsys):
    path = _seq(tmp_path, "ones8.json", [1.0] * 8)
    assert cli.main(["decompose", "--seq", path, "--t-grid", "0.01:10:20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,cost,k,ratio"
    assert all(float(ln.split(",")[3]) <= 4.5 for ln in lines[1:])


@pytest.mark.parametrize("command", ["kfun", "decompose"])
def test_t_grid_rows_equal_the_single_t_values(tmp_path, capsys, command):
    # the grid is evaluated in one pass; each row must be what --t gives alone
    path = _seq(tmp_path, "c.json", [1.0, -0.5, 0.0, 0.3, 2.0, 0.0, 0.0],
                [0.0, 0.25, 1.0, -0.7, 0.1, 0.0, 0.0])
    extra = ["--alpha", "0.4"] if command == "decompose" else []
    assert cli.main([command, "--seq", path, "--t-grid", "1e-3:10:40", *extra]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 40
    for t, *values in rows:
        assert cli.main([command, "--seq", path, "--t", t, *extra]) == 0
        single = capsys.readouterr().out.strip()
        if command == "kfun":
            assert single == values[0]
        else:
            assert single == f"t={t} cost={values[0]} k={values[1]} ratio={values[2]}"


@pytest.mark.parametrize("mode", [["--t", "0.5"], ["--t-grid", "0.01:10:5"]], ids=" ".join)
def test_decompose_zero_sequence_exits_zero(tmp_path, capsys, mode):
    # K = 0 makes the cost ratio 0/0 = nan, which is no failed verification
    path = _seq(tmp_path, "zero.json", [0.0, 0.0, 0.0])
    assert cli.main(["decompose", "--seq", path] + mode) == 0
    assert "ratio" in capsys.readouterr().out


def test_hardy_report_row(tmp_path, capsys):
    path = _fn(tmp_path, "ramp.json", [1.0], [], head={"c": 1.0, "gamma": 1.0})
    out = tmp_path / "h.csv"
    rc = cli.main(["hardy", "--fn", path, "--alpha", "0.5", "--q", "2", "--out", str(out)])
    assert rc == 0
    assert "hardy-bound" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "name,lhs,rhs,constant,ratio,pass"


def test_bad_inputs_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["rearrange", "--seq", str(bad)]) == 1
    assert cli.main(["rearrange", "--seq", str(tmp_path / "missing.json")]) == 1
    seq = _seq(tmp_path, "c.json", [1.0])
    fn = _fn(tmp_path, "f.json", [1.0], [1.0])
    assert cli.main(["rearrange", "--seq", seq, "--fn", fn]) == 1
    assert cli.main(["norm"]) == 1
    assert cli.main(["rearrange", "--seq", seq, "--bogus"]) == 1
    assert cli.main(["verify", "--suite", "nope"]) == 1
    capsys.readouterr()


_HUGE = {"re": [1.7e308, 1.0], "im": [1.7e308, 0.0]}  # |1.7e308 (1 + i)| overflows


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--seq", {"re": 5}),
        ("--fn", {"breakpoints": 3}),
        ("--fn", {"breakpoints": [1.0], "re": [], "head": [1]}),
        ("rearrange --seq", _HUGE),
        ("norm --seq", _HUGE),
        ("fourier --seq", _HUGE),
        ("rearrange --fn", {"breakpoints": [1.0, 2.0], **_HUGE}),
        ("norm --fn", {"breakpoints": [1.0, 2.0], **_HUGE}),
        # I = x^10 / 10 on the head reaches 1e400
        ("hardy --alpha 0.5 --fn", {"breakpoints": [1e40], "re": [], "head": {"c": 1.0, "gamma": 10.0}}),
        # the window scans take moduli through numpy, where they became inf
        ("gm --seq", _HUGE),
    ],
)
@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_malformed_json_shape_exits_one(tmp_path, capsys, flag, payload):
    # ``flag`` may lead with its command and options; the command defaults to gm
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    *command, flag = flag.split()
    assert cli.main((command or ["gm"]) + [flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("command", ["interp", "hardy", "fourier"])
def test_bad_quadrature_tolerance_exits_one(tmp_path, capsys, command, tol):
    # fourier's input reaches the adaptive quadrature; a tolerance it could
    # never meet used to double the panel count until memory ran out.  hardy
    # and interp take no tolerance and refuse --tol outright.
    seq = _seq(tmp_path, "c.json", [1.0, 0.5, 0.25])
    fn = _fn(tmp_path, "h.json", [1.0, 2.0, 3.0], [0.5, 0.25], head={"c": 1.0, "gamma": 1.0})
    argv = {
        "interp": ["interp", "--seq", seq, "--theta", "0.5"],
        "hardy": ["hardy", "--fn", fn, "--alpha", "0.5"],
        "fourier": ["fourier", "--seq", seq],
    }[command]
    assert cli.main(argv + ["--tol", tol]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["hardy", "--fn", "FN", "--alpha", "0.5", "--q", "nan"],
        ["hardy", "--fn", "FN", "--alpha", "nan"],
        ["hardy", "--fn", "FN", "--alpha", "inf"],
        ["interp", "--seq", "SEQ", "--theta", "0.5", "--q", "nan"],
        ["kfun", "--seq", "SEQ", "--t", "nan"],
        ["kfun", "--seq", "SEQ", "--t", "inf"],
        ["kfun", "--seq", "SEQ", "--t-grid", "1e-3:inf:5"],
        ["kfun", "--seq", "SEQ", "--t", "0.5", "--grid", "0"],
        ["decompose", "--seq", "SEQ", "--t", "inf"],
        ["fourier", "--seq", "SEQ", "--grid", "0"],
    ],
    ids=" ".join,
)
def test_non_finite_or_empty_parameters_exit_one(tmp_path, capsys, argv):
    # NaN slipped past `x <= 0` checks: a NaN integrand never passes a panel
    # test, so hardy and interp bisected until memory ran out, and kfun
    # printed nan.  A zero grid was read as "use the default".
    seq = _seq(tmp_path, "c.json", [1.0, 0.5, 0.25])
    fn = _fn(tmp_path, "h.json", [1.0, 2.0, 3.0], [0.5, 0.25], head={"c": 1.0, "gamma": 1.0})
    argv = [{"FN": fn, "SEQ": seq}.get(a, a) for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--seq", "SEQ", "--t", "1e-8"],
        ["decompose", "--seq", "SEQ", "--t", "5e-324"],
        ["decompose", "--seq", "SEQ", "--t-grid", "1e-8:10:5"],
        ["decompose", "--seq", "SEQ", "--t-grid", "1e-3:10:100000000"],
        ["kfun", "--seq", "SEQ", "--t-grid", "1e-3:10:100000000"],
        ["kfun", "--seq", "SEQ", "--t", "0.5", "--grid", "100000000"],
        ["fourier", "--seq", "SEQ", "--grid", "200000000"],
    ],
    ids=" ".join,
)
def test_oversized_requests_are_refused_before_allocation(tmp_path, capsys, argv):
    # each of these once built an array of 10^8 or more entries from a 3-entry
    # input, or (kfun's oracle) scanned 3 x 10^8 splits in Python
    seq = _seq(tmp_path, "c.json", [1.0, 0.5, 0.25])
    argv = [seq if a == "SEQ" else a for a in argv]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cli.MAX_POINTS) in err and len(err.splitlines()) == 1


def test_rearrange_names_the_absorbed_piece(tmp_path, capsys):
    # Sorted by modulus the 1e-17 piece follows the long one, and rounding
    # absorbs its length: f* would need the breakpoint 1.0 twice.
    path = _fn(tmp_path, "f.json", [1e-17, 1.0], [1.0, 2.0])
    assert cli.main(["rearrange", "--fn", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "absorbs the piece (0.0, 1e-17]" in err


def test_norm_headed_function_is_rejected(tmp_path, capsys):
    path = _fn(tmp_path, "h.json", [1.0, 2.0], [0.5], head={"c": 1.0, "gamma": 1.0})
    assert cli.main(["norm", "--fn", path]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_unread_flags_are_not_accepted(tmp_path, capsys):
    path = _seq(tmp_path, "c.json", [1.0])
    fn = _fn(tmp_path, "h.json", [1.0, 2.0, 3.0], [0.5, 0.25], head={"c": 1.0, "gamma": 1.0})
    assert cli.main(["rearrange", "--seq", path, "--phi", "1"]) == 1
    assert cli.main(["rearrange", "--seq", path, "--tol", "1e-3"]) == 1
    # hardy and interp have no quadrature to tune, so even a usable tolerance is refused
    assert cli.main(["hardy", "--fn", fn, "--alpha", "0.5", "--tol", "1e-8"]) == 1
    assert cli.main(["interp", "--seq", path, "--theta", "0.5", "--tol", "1e-8"]) == 1
    assert "error:" in capsys.readouterr().err


def test_hardy_at_q_below_one_without_a_head_fails_honestly(tmp_path, capsys):
    # I = log x starts at 0 on (1, 2]: the left side is finite, and its ratio
    # 24.5 exceeds the envelope 11.9 for (0.5, 0.5), so the row fails
    path = _fn(tmp_path, "late.json", [1.0, 2.0], [0.0, 1.0])
    assert cli.main(["hardy", "--fn", path, "--alpha", "0.5", "--q", "0.5"]) == 2
    assert "lhs=9.90649498" in capsys.readouterr().out


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_hardy_on_a_log_piece_whose_square_overflows_gives_its_value(tmp_path, capsys):
    # I reaches 1e300 log 2 on (1, 2]: I^2 leaves the float range, the norms do not
    mpmath = pytest.importorskip("mpmath")
    path = _fn(tmp_path, "big.json", [1.0, 2.0, 3.0], [1e300, 0.0], head={"c": 1.0, "gamma": 1.0})
    out = tmp_path / "hardy.csv"
    assert cli.main(["hardy", "--fn", path, "--alpha", "0.5", "--q", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, lhs, rhs, *_ = out.read_text().splitlines()[1].split(",")
    with mpmath.workdps(40):
        big = mpmath.mpf(1e300)
        middle = mpmath.quad(lambda u: mpmath.exp(-u) * (1 + big * u) ** 2, [0, mpmath.log(2)])
        # the head gives 1; (2, 3] and the tail give I(2)^2 (1/2 - 1/3 + 1/3)
        want = mpmath.sqrt(1 + middle + (1 + big * mpmath.log(2)) ** 2 / 2)
    assert float(lhs) == pytest.approx(float(want), rel=1e-11)
    assert float(rhs) == pytest.approx(1e300 / math.sqrt(2.0), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, entries", [(8e153, [8e153, 8e153]), (1e160, [1e160])])
def test_interp_whose_square_overflows_gives_its_value(tmp_path, capsys, scale, entries):
    # (t^-theta K)^2 reaches 2.56e308 on the cell [1/2, 1] of the first input; the
    # norm is homogeneous, so it is scale times the norm of the entries over scale
    path = _seq(tmp_path, "big.json", entries)
    assert cli.main(["interp", "--seq", path, "--theta", "0.5", "--q", "2"]) == 0
    out, err = capsys.readouterr()
    want = scale * interpolation_norm(ComplexSeq(tuple(v / scale for v in entries)), 0.5, 2.0)
    assert err == "" and float(out) == pytest.approx(want, rel=1e-15)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_gm_ratio_past_the_float_range_prints_inf_without_a_warning(tmp_path, capsys):
    path = _seq(tmp_path, "wide.json", [1e-300, 1e300, 1.0])
    assert cli.main(["gm", "--seq", path]) == 0
    out, err = capsys.readouterr()
    assert "gms,inf" in out.splitlines() and "gms1,inf" in out.splitlines() and err == ""


def test_fourier_on_many_ones_passes_its_weak_l1_row(tmp_path, capsys):
    # the Taylor term (h^2/8) sum k^2 |c_k| grows like N^3 h^2: at 2^13 cells
    # it puts every delta_j of 2048 ones above 52, and lhs ~ 167 > C rhs = 154.6
    path = _seq(tmp_path, "ones2048.json", [1.0] * 2048)
    assert cli.main(["fourier", "--seq", path]) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.startswith("weak-l1-bound: lhs=2.0") and row.endswith("-> pass")


def test_nonconvergence_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 1)
    # |f| kinks off the seed panels' edges: those of 64 ones lie on pi j / 64
    path = _seq(tmp_path, "ones63-3.json", [1.0] * 63 + [3.0])
    assert cli.main(["fourier", "--seq", path, "--tol", "1e-10"]) == 3
    assert "nonconvergence:" in capsys.readouterr().err


def test_failing_rows_exit_two(capsys):
    rows = [make_report("demo", 2.0, 1.0, 1.0)]
    assert cli._emit_reports(rows, None) == 2
    assert "FAIL" in capsys.readouterr().out


def test_verify_suite_csv_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["verify", "--suite", "kfun", "--out", str(a)]) == 0
    assert cli.main(["verify", "--suite", "kfun", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text().splitlines()
    assert text[0] == "# seed=42"
    assert text[1].startswith("suite,name,")
    stdout = capsys.readouterr().out
    assert "seed=42" in stdout and "[pass]" in stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
