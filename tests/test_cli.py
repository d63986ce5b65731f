import hashlib
import json

import pytest

from extamen.cli import main, parse_set_spec
from extamen.dyadic import Dyadic, ROOT
from extamen.graph import set_orientation
from extamen.lamplighter import parse_config


def run(argv):
    return main(argv)


def test_exit_zero_on_pass(capsys):
    assert run(["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert '"worst_deviation": "0"' in out


def test_exit_one_on_verified_failure(capsys):
    assert run(["approx", "verify", "--fn", "minfun:phi_u", "--set", "p", "--n", "3"]) == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_exit_one_on_unusable_input(capsys):
    # three lamps cannot be refuted at n = 4; the precondition trips
    code = run(["approx", "refute", "--set", "p,11/2^4,9/2^4", "--n", "4"])
    assert code == 1
    assert "check failed" in capsys.readouterr().err


def test_exit_two_on_cap(capsys):
    assert run(["graph", "explore", "--n", "8", "--cap", "100"]) == 2
    assert "resource limit" in capsys.readouterr().err


def test_explicit_default_cap_is_honoured(capsys):
    # 10^6 is the generic default, but walk green's own default is larger
    argv = ["walk", "green", "--n", "2", "--trials", "2000", "--steps", "1000"]
    assert run(argv + ["--cap", "1000000"]) == 2
    assert "resource limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fn", "check", "--fn", "bogus"], "unknown set function 'bogus'"),
    (["approx", "verify", "--fn", "sum:phi_family:eps=1e-6", "--set", "3/5"], "is not dyadic"),
    (["graph", "explore", "--n", "-1"], "--n must be >= 0, got -1"),
    (["walk", "green", "--n", "2", "--r", "1/0"], "Fraction(1, 0)"),
])
def test_unusable_input_is_one_line(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unusable input: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2


def test_outputs_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert run(["graph", "explore", "--n", "3", "--out", str(d)]) == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "series.csv").read_bytes() == (d2 / "series.csv").read_bytes()


def test_manifest_records_conventions_and_hashes(tmp_path):
    out = tmp_path / "run"
    assert run(["walk", "green", "--n", "5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "orientation", "outputs", "root_hair", "wall_clock_s"}
    assert manifest["orientation"] == "lr"
    assert manifest["root_hair"] == "B"
    for name, digest in manifest["outputs"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest, name
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == "n,p_n,partial"
    assert len(rows) == 7


def test_report_json_content(tmp_path):
    out = tmp_path / "verify"
    assert run([
        "approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3",
        "--n", "3", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["mode"] == "strong"
    assert report["set"].count(",") == 2


def test_weak_mode(capsys):
    code = run([
        "approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3",
        "--n", "3", "--weak", "--samples", "100",
    ])
    assert code == 0
    assert '"mode": "weak"' in capsys.readouterr().out


def test_fn_check_set_function(capsys):
    assert run(["fn", "check", "--fn", "minfun:phi_u", "--n", "2"]) == 0
    assert '"switch_invariant": true' in capsys.readouterr().out


def test_fn_check_vertex_function(tmp_path):
    out = tmp_path / "fncheck"
    assert run(["fn", "check", "--fn", "phi:1", "--n", "4", "--out", str(out)]) == 0
    header = (out / "series.csv").read_text().splitlines()[0]
    assert header == "vertex,phi,P_phi,margin"


def test_construct_command(capsys):
    assert run(["approx", "construct", "--kind", "single", "--n", "4"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_refute_command(capsys):
    assert run(["approx", "refute", "--set", "11/2^4", "--n", "5"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_walk_return_command(capsys):
    assert run(["walk", "return", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert '"monotone": true' in out and '"below_three_quarters": true' in out


def test_walk_decay_command(capsys):
    code = run([
        "walk", "decay", "--trials", "60", "--steps", "600",
        "--checkpoints", "30,600", "--seed", "0",
    ])
    assert code == 0
    assert '"decayed": true' in capsys.readouterr().out


def test_cx_scan_command(capsys):
    assert run(["cx", "scan", "--trials", "40"]) == 0
    assert '"max_witness_length": 2' in capsys.readouterr().out


def test_orientation_flag_is_recorded(tmp_path):
    out = tmp_path / "rl"
    try:
        assert run(["--orientation", "rl", "graph", "explore", "--n", "2", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["orientation"] == "rl"
    finally:
        set_orientation("lr")


def test_parse_set_spec(tmp_path):
    assert parse_set_spec("explicit:2") == (Dyadic(5, 5), Dyadic(11, 6))
    assert parse_set_spec("p,3/4") == parse_config("5/2^3,3/2^2")
    f = tmp_path / "lamps.txt"
    f.write_text("5/2^3,1/2^1\n")
    assert parse_set_spec(f"file:{f}") == (Dyadic(1, 1), ROOT)
