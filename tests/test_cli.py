"""Driver exit codes and output shapes, exercised in process."""

import json
import math

import pytest

from lorentz_gm import cli
from lorentz_gm.model import make_report


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


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--seq", {"re": 5}),
        ("--fn", {"breakpoints": 3}),
        ("--fn", {"breakpoints": [1.0], "re": [], "head": [1]}),
    ],
)
def test_malformed_json_shape_exits_one(tmp_path, capsys, flag, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["gm", flag, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_norm_headed_function_is_rejected(tmp_path, capsys):
    path = _fn(tmp_path, "h.json", [1.0, 2.0], [0.5], head={"c": 1.0, "gamma": 1.0})
    assert cli.main(["norm", "--fn", path]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_unread_flags_are_not_accepted(tmp_path, capsys):
    path = _seq(tmp_path, "c.json", [1.0])
    assert cli.main(["rearrange", "--seq", path, "--phi", "1"]) == 1
    assert cli.main(["rearrange", "--seq", path, "--tol", "1e-3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_nonconvergence_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LORENTZ_GM_MAX_DEPTH", "1")
    path = _seq(tmp_path, "ones64.json", [1.0] * 64)
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
