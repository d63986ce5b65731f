import ast
import csv
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import extamen

from extamen.approx import construct
from extamen.cli import main, parse_set_spec
from extamen.dyadic import Dyadic, ROOT
from extamen.graph import Skeleton, ball, classify
from extamen.lamplighter import parse_config


def run(argv):
    return main(argv)


def _fresh_python(script):
    """Run script in a new interpreter that imports this extamen; its stdout lines."""
    src = str(Path(extamen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


# decimal exponents that parse_rational refuses before Fraction reads them
OVERSIZED_EXPONENTS = [
    ["approx", "verify", "--fn", "sum:phi_family:eps=1e-10000000", "--set", "explicit:2"],
    ["walk", "green", "--r", "1e-10000000"],
]


def test_exit_zero_on_pass(capsys):
    assert run(["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert '"worst_deviation": "0"' in out


def test_level_zero_verifies_under_inv_2n(capsys):
    # the orbit of length <= 0 is the set itself; only inv_n needs n >= 1
    argv = ["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--n", "0"]
    assert run(argv + ["--beta", "inv_2n"]) == 0
    assert '"checked": 1' in capsys.readouterr().out


def test_deep_hair_lamp_is_a_vertex(capsys):
    # offset 5000 on the root hair walked by A
    assert run(["approx", "verify", "--fn", "minfun:phi_u", "--set", "1/2^5000", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


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


@pytest.mark.parametrize("argv, message", [
    (["walk", "return", "--n", "4097"], "series length 4097 exceeds the cap 2048"),
    (["walk", "green", "--n", "100000"], "series length 100000 exceeds the cap 2048"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:257"],
     "explicit:257 exceeds the lamp cap 256"),
    (["approx", "refute", "--set", "explicit:100000", "--n", "2"],
     "explicit:100000 exceeds the lamp cap 256"),
    # the witness's fractions lie over about 2^n, past what Python prints
    # from n = 14,286 on; 99999999999 would not fit in memory
    (["approx", "refute", "--set", "p", "--n", "15000"],
     "golden witness level 15000 exceeds the cap 8192"),
    (["approx", "refute", "--set", "p", "--n", "99999999999"],
     "golden witness level 99999999999 exceeds the cap 8192"),
])
def test_unbounded_sizes_exit_two_at_once(capsys, argv, message):
    # the series cost about N^3.3 and the explicit family n^2, so both are capped
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource limit: {message}\n"


@pytest.mark.parametrize("argv", [
    ["approx", "construct", "--kind", "single", "--n", "17"],
    ["approx", "verify", "--fn", "minfun:phi_u", "--set", "single:17", "--n", "2"],
])
def test_single_past_the_scan_width_exits_two(capsys, argv):
    # level 17 of the skeleton holds 2^17 vertices, past the scan cap 2^16
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource limit: skeleton level 17 is wider than the scan cap 65536\n"


def test_explicit_default_cap_is_honoured(capsys):
    # 10^6 is the generic default, but walk green's own default is larger
    argv = ["walk", "green", "--n", "2", "--trials", "2000", "--steps", "1000"]
    assert run(argv + ["--cap", "1000000"]) == 2
    assert "resource limit" in capsys.readouterr().err


def test_decay_budget_over_cap_exits_two(capsys):
    assert run(["walk", "decay", "--trials", "10", "--steps", "1000", "--cap", "100"]) == 2
    assert "exceeds cap 100" in capsys.readouterr().err


def test_green_step_limit_exits_two(capsys, monkeypatch):
    # within the default cap, beyond what green_mc's packed state holds;
    # refused before the walk starts
    def refuse_to_walk(*args):
        raise AssertionError("the walk started")

    # green_mc draws its letters from the bit generator it builds first
    monkeypatch.setattr(np.random, "Philox", refuse_to_walk)
    assert run(["walk", "green", "--n", "2", "--trials", "2", "--steps", str(2**31)]) == 2
    assert "packed state" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fn", "check", "--fn", "bogus"], "unknown set function 'bogus'"),
    (["approx", "verify", "--fn", "sum:phi_family:eps=1e-6", "--set", "3/5"], "is not dyadic"),
    (["graph", "explore", "--n", "-1"], "--n must be >= 0, got -1"),
    (["walk", "green", "--n", "2", "--r", "1/0"], "Fraction(1, 0)"),
    (["walk", "decay", "--fn", "bogus", "--steps", "100", "--checkpoints", "10,100"],
     "unknown set function 'bogus'"),
    (["walk", "decay", "--trials", "0"], "trials and steps must be positive"),
    (["walk", "decay", "--steps", "10", "--checkpoints", "5,100000"], "within the horizon"),
    (["walk", "green", "--n", "3", "--trials", "5", "--steps", "0"], "--steps must be >= 1"),
    (["cx", "scan", "--trials", "0"], "--trials must be >= 1"),
    (["walk", "green", "--n", "4", "--trials", "1", "--steps", "10"], "at least 2 trials"),
    (["walk", "green", "--n", "4", "--trials", "3", "--steps", "10", "--seed", "-1"],
     "seed must be >= 0"),
    (["walk", "decay", "--checkpoints", "0"], "within the horizon"),
    (["walk", "green", "--r", "inf", "--n", "3"], "cannot convert Infinity"),
    (["approx", "verify", "--fn", "sum:phi_family:eps=inf", "--set", "explicit:3"],
     "cannot convert Infinity"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:99999999999999999999"],
     "index-sized integer"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "file:/nonexistent/lamps.txt"],
     "No such file or directory"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--weak",
      "--samples", "0"], "--samples must be >= 1"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "0"], "0/2^0 is not a vertex"),
    (["approx", "refute", "--set", "3/4,1", "--n", "2"], "1/2^0 is not a vertex"),
    (["walk", "decay", "--steps", "100", "--checkpoints", "100", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["approx", "verify", "--fn", "sum", "--set", "explicit:3"], "unknown set function 'sum'"),
    (["fn", "check", "--fn", "sum"], "unknown set function 'sum'"),
    (["walk", "decay", "--fn", "sum", "--steps", "100", "--checkpoints", "10,100"],
     "unknown set function 'sum'"),
    (["approx", "verify", "--fn", "minfun:phi_u:junk", "--set", "explicit:3"],
     "unknown vertex function 'phi_u:junk'"),
    (["approx", "verify", "--fn", "gmin:kmean:2:3:phi_u:x", "--set", "explicit:3"],
     "unknown vertex function 'phi_u:x'"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "single:1"],
     "single:1: constructions need n >= 2"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "countable:0"],
     "countable:0: constructions need n >= 2"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:0"],
     "explicit:0: need n >= 1"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--n", "0"],
     "--n must be >= 1 for --beta inv_n"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--n", "0",
      "--beta", "inv_2n", "--weak"], "--n must be >= 1 for --weak"),
    (["approx", "construct", "--kind", "countable", "--n", "2", "--fn", "bogus:name"],
     "construction kind 'countable' takes no fn"),
    (["approx", "construct", "--kind", "sum", "--n", "2", "--powers", "junk"],
     "construction kind 'sum' takes no powers"),
    (["approx", "construct", "--kind", "single", "--n", "2", "--powers", "1,1"],
     "construction kind 'single' takes no powers"),
    (["fn", "check", "--fn", "gmin:kmean:1:100000:phi_u", "--n", "2"],
     "kmean arity m = 100000 exceeds the bound 64"),
    (["walk", "return", "--n", "-1"], "--n must be >= 0, got -1"),
    (["walk", "green", "--n", "-1"], "--n must be >= 0, got -1"),
    (["walk", "green", "--n", "-1", "--r", "1/2"], "--n must be >= 0, got -1"),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "5/2^3", "--weak", "--n", "3",
      "--samples", "50", "--seed", "-3"], "--seed must be >= 0, got -3"),
    (["cx", "scan", "--trials", "5", "--seed", "-4"], "--seed must be >= 0, got -4"),
    (["approx", "construct", "--kind", "single", "--n", "3", "--fn", "phi:20000"],
     "phi index 20000 exceeds the bound 1024"),
    (["approx", "construct", "--kind", "single", "--n", "3", "--fn", "phi:99999999999"],
     "phi index 99999999999 exceeds the bound 1024"),
    (["fn", "check", "--fn", "phi:1025", "--n", "2"], "phi index 1025 exceeds the bound 1024"),
    (["approx", "verify", "--fn", "minfun:phi:1025", "--set", "explicit:2"],
     "phi index 1025 exceeds the bound 1024"),
    # the tail index of eps is read off bit lengths, so none of these waits
    (["fn", "check", "--fn", "sum:phi_family:eps=1e-400", "--n", "2"],
     "eps <= 2^-1024 needs phi indices above 1024"),
    (["approx", "verify", "--fn", "sum:phi_family:eps=1e-1000000", "--set", "explicit:2"],
     "eps <= 2^-1024 needs phi indices above 1024"),
    (["walk", "decay", "--fn", "sum:phi_family:eps=5e-309", "--steps", "10",
      "--checkpoints", "10"], "eps <= 2^-1024 needs phi indices above 1024"),
    *[(argv, "decimal exponent of 1e-10000000 exceeds 10^6 in magnitude")
      for argv in OVERSIZED_EXPONENTS],
])
def test_unusable_input_is_one_line(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unusable input: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", OVERSIZED_EXPONENTS)
def test_oversized_exponents_are_refused_at_once(capsys, argv):
    # Fraction would first build 10^10000000, about 13 s of work
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2


# shared options that no handler of these subcommands reads, so none is parsed
DROPPED_FLAGS = [
    ["graph", "explore", "--seed", "1"],
    ["fn", "check", "--fn", "phi_u", "--seed", "1"],
    ["approx", "construct", "--kind", "single", "--seed", "1"],
    ["approx", "refute", "--set", "p", "--seed", "1"],
    ["approx", "refute", "--set", "p", "--cap", "10"],
    ["walk", "return", "--seed", "1"],
    ["walk", "return", "--cap", "10"],
    ["walk", "decay", "--n", "5"],
    ["cx", "scan", "--n", "3"],
    ["cx", "scan", "--cap", "10"],
]


@pytest.mark.parametrize("argv", DROPPED_FLAGS, ids=" ".join)
def test_dropped_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _subcommand_parsers(parser, words=()):
    """(words, parser) for every subcommand below parser."""
    for action in parser._actions:
        if isinstance(action.choices, dict):  # a subparsers action
            for word, sub in action.choices.items():
                yield from _subcommand_parsers(sub, (*words, word))
    if parser.get_default("handler") is not None:
        yield words, parser


def test_every_option_is_read_by_its_handler():
    # each subcommand's options, but --out, which main reads, are exactly the
    # args.<name> its handler reads
    from extamen import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = list(_subcommand_parsers(cli.build_parser()))
    assert len(commands) == 9
    total = 0
    for words, parser in commands:
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help", "out"}
        read = {
            node.attr
            for node in ast.walk(handlers[parser.get_default("handler").__name__])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        assert dests == read, " ".join(words)
        total += len(dests) + 1
    assert total == 45


def _package_trees():
    """Module name -> parsed source, for every module of the package."""
    src = Path(extamen.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def test_every_field_is_read_outside_its_class():
    # a field of the library's function and configuration records counts as
    # read when some package code outside the class body loads it as an
    # attribute or names it to getattr
    trees = _package_trees()
    records = {"harmonic": "VertexFn", "lamplighter": "SetFn", "walks": "WalkConfig"}
    bodies = {}
    for module, name in records.items():
        cls = next(node for node in trees[module].body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        bodies[name] = cls, {id(node) for node in ast.walk(cls)}
    unread = []
    for name, (cls, inside) in bodies.items():
        read = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if id(node) in inside:
                    continue
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    read.add(node.args[1].value)
        fields = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]
        assert fields, name
        unread += [f"{name}.{field}" for field in fields if field not in read]
    assert unread == []


def test_package_holds_no_assert_statement():
    # python -O strips assert statements, so the package checks by raising
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


@pytest.mark.parametrize("argv", [
    ["cx", "scan", "--trials", "50", "--seed", "7"],
    ["approx", "refute", "--set", "p,3/4", "--n", "4"],
], ids=" ".join)
def test_optimized_python_writes_the_same_report(tmp_path, argv):
    # the checks raise rather than assert, so python -O runs them too
    src = str(Path(extamen.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    digests = []
    for flags in ([], ["-O"]):
        out = tmp_path / ("optimized" if flags else "plain")
        done = subprocess.run([sys.executable, *flags, "-m", "extamen", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


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


def test_parse_set_spec(tmp_path):
    assert parse_set_spec("explicit:2") == (Dyadic(5, 5), Dyadic(11, 6))
    assert parse_set_spec("p,3/4") == parse_config("5/2^3,3/2^2")
    f = tmp_path / "lamps.txt"
    f.write_text("5/2^3,1/2^1\n")
    assert parse_set_spec(f"file:{f}") == (Dyadic(1, 1), ROOT)
    for kind in ("single", "sum", "countable"):
        assert parse_set_spec(f"{kind}:3") == construct(kind, 3).E
    with pytest.raises(ValueError, match="need n >= 2"):
        parse_set_spec("sum:1")


# report.json and series.csv sha256 of each README command, frozen from a run
# of the code before labeled-action operations were shared between the graphs
# (the Monte Carlo command reduced to 1000 x 1000); any change of output shows
README_DIGESTS = [
    (["graph", "explore", "--n", "4"],
     "e7fa7658e361e92edcb91709fc5debaa2dd0e3a42d59e98f47af4ad4b9d3f92e",
     "7a17b9d7ac0e7497c81928a6cc84565ce9431df900355b59375e36339a74440e"),
    (["fn", "check", "--fn", "phi:2", "--n", "4"],
     "5e95872bbfcc5b3b2f6349bdfcd645c94ce49cfca879fe801c8d09c2b333af15",
     "73dca85feda0fd8b5ed7fa8186ec3c74c8bc75e5c80ee7904edd2f7787e0a293"),
    (["fn", "check", "--fn", "minfun:phi_u", "--n", "3"],
     "86bf5a9bc0b139c4464b19a4e037e358ef9891fb76d67a0752bdaeedae0b5683", None),
    (["approx", "construct", "--kind", "countable", "--n", "5"],
     "350751dea3a20e2dc7445fa9d675d78f30bfcd222b210db731ae88dcacad171d", None),
    (["approx", "verify", "--fn", "sum:phi_family:eps=1e-6", "--set", "explicit:5", "--n", "5"],
     "39ea6ca0d712cad74a5b139b4f6961c4cc77cd3cff61ea765f59569ae4a97a64", None),
    (["approx", "refute", "--set", "p,3/4", "--n", "4"],
     "1535b636a66fd2ff0eccaf3189fcc240b3879aa8f5faf5e34bb5e1554fa1ffbe", None),
    (["walk", "return", "--n", "30"],
     "ecf247eaa971e7b6f03bd29646b25875803f8818bf4cd49cf81e6c58292ab2f5",
     "c9fa4bc693368bf303ca9dd27a84ccc704a96a83e9ada996fcc2e9c316ad8ff4"),
    (["walk", "green", "--n", "12", "--r", "1/2"],
     "5ac878a3ae3765800d66e7adcdff0b0cedc0d56946ecfb8a004798e7e1019b86",
     "412b84e1b9ce0577db5032e0432f5a52a8590cd46d7fa7da8f8bc3e9971a94ba"),
    (["walk", "green", "--trials", "1000", "--steps", "1000", "--seed", "42"],
     "cefd8f5eade15d77ece5f0afc1e066a896703796a53c42110179730b897047bf",
     "ed294edaaf42a25c029764039fb11edccac551ab0a815536eeeb5b8897dd3104"),
    (["walk", "decay", "--trials", "100", "--steps", "2000", "--checkpoints", "100,2000"],
     "94bb4f6c0b8b4ed6de8da38b7ddf76d9ed28b5c5d42319149e637d87472cce99", None),
    (["cx", "scan", "--trials", "500", "--seed", "7"],
     "4a176143507f850e87c7398b88cf1d61ba514790dbf3863cf4dfa2b23463f315", None),
    # larger than the README commands; frozen from the Dyadic orbit, before
    # verification ran on structural addresses
    (["approx", "verify", "--fn", "sum:phi_family:eps=1e-6", "--set", "explicit:8", "--n", "8"],
     "ee8be6fc028d1d64792bbe5d5368a9fbc8aa107b4a2c590e49c84eb7ee470de6", None),
    (["approx", "construct", "--kind", "countable", "--n", "4"],
     "ea4eff14db6954a7ca2abd9e14d6bc5a27bfc1f87c55b3217334ea7d38823013", None),
    # the explicit decay path, which every set function but the default runs
    (["walk", "decay", "--fn", "minfun:phi:0", "--trials", "4", "--steps", "200",
      "--checkpoints", "100,200"],
     "6ee6414142222467100f5e284e4853d494d8f4b26667dbe80714b02e37893956", None),
]


@pytest.mark.parametrize("argv, report_sha, series_sha", README_DIGESTS,
                         ids=[" ".join(c[0]) for c in README_DIGESTS])
def test_readme_commands_reproduce_frozen_digests(tmp_path, argv, report_sha, series_sha):
    assert run(argv + ["--out", str(tmp_path)]) == 0
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest("report.json") == report_sha
    if series_sha is None:
        assert not (tmp_path / "series.csv").exists()
    else:
        assert digest("series.csv") == series_sha


# what the package re-exported when it imported every submodule eagerly
PACKAGE_EXPORTS = {
    "dyadic": (
        "Dyadic ONE PLMap ROOT ZERO cocycle_eval cocycle_identity_check gen_a gen_b "
        "letter_map parse_dyadic word_to_pl"
    ),
    "errors": (
        "CapExceeded ExtamenError PreconditionFailed PropertySelfTestFailed "
        "SearchExhausted StructuralAssertFailed ZeroBase"
    ),
    "graph": (
        "Ball Hair Skeleton act_letter act_word ball boundary_ratio classify "
        "folner_hair_segment get_orientation golden_path hair_point neighbors "
        "root_hair_letter vertex_at"
    ),
    "harmonic": (
        "VertexFn canonical_phi_u hair_property_suite harmonic_witness_search "
        "is_superharmonic_on level_min markov_apply_X phi_family pow2"
    ),
    "lamplighter": (
        "Config SetFn apply_letter config markov_iterate orbit_enumerate "
        "parse_config serialize_config switch_invariant_check"
    ),
    "minfn": (
        "SymmetricConcaveFn T_operator countable_sum generalized_minfun markov_image "
        "minfun non_superharmonic_transfer phi_family_tail_bound r_family_kmean "
        "resolve_setfn weighted_sum"
    ),
    "approx": (
        "BETA_SCHEDULES construct_En_countable construct_En_markov "
        "construct_En_single construct_En_sum explicit_En_hairs generalized_En_search "
        "golden_witness strong_verify weak_verify"
    ),
    "walks": (
        "StructuralLampWalk WalkConfig delta_check_phi_u green_mc green_partial "
        "lumped_return_series pn_exact potential_decay_experiment return_prob "
        "spectral_radius_proxy supermartingale_check"
    ),
    "freegroup": (
        "ZVertex Z_E minfun_Z phi_Z random_z_configs tail_segment witness_word "
        "z_apply z_ball z_boundary_ratio"
    ),
}


@pytest.mark.parametrize("module", PACKAGE_EXPORTS)
def test_package_re_exports_each_name_from_its_module(module):
    submodule = importlib.import_module(f"extamen.{module}")
    assert getattr(extamen, module) is submodule
    for name in PACKAGE_EXPORTS[module].split():
        assert getattr(extamen, name) is getattr(submodule, name), name
        assert vars(extamen)[name] is getattr(submodule, name), f"{name} is not cached"


def test_package_lists_every_name():
    names = [name for names in PACKAGE_EXPORTS.values() for name in names.split()]
    assert sorted(extamen.__all__) == sorted(names)
    star = {}
    exec("from extamen import *", star)
    for name in names:
        assert star[name] is getattr(extamen, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        extamen.no_such_name


def test_package_import_loads_no_submodule():
    # dir() offers every name before any is loaded; each submodule loads on
    # first use of a name it defines, with what it imports
    wanted = sorted({*PACKAGE_EXPORTS, *" ".join(PACKAGE_EXPORTS.values()).split()})
    script = (
        "import sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('extamen.'))\n"
        "import extamen\n"
        f"print(sorted(set({wanted!r}) - set(dir(extamen))))\n"
        "print(loaded())\n"
        "from extamen import Dyadic\n"
        "print(loaded())\n"
        "extamen.errors\n"
        "print(loaded())\n"
    )
    assert _fresh_python(script) == [
        "[]", "[]", "['extamen.dyadic']", "['extamen.dyadic', 'extamen.errors']"
    ]


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(extamen.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"extamen.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"extamen.{info.name}.__all__ names missing {name!r}"


def _imported_names(statements):
    return {
        alias.asname or alias.name.split(".")[0]
        for node in statements
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def test_every_imported_name_is_used():
    # a module's top-level imports are used somewhere in it (or exported);
    # an import inside a function is used inside that function
    for path in sorted(Path(extamen.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, tree.body)] + [
            (node, list(ast.walk(node)))
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        name = "extamen" if path.stem == "__init__" else f"extamen.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        for scope, statements in scopes:
            used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
            unused = _imported_names(statements) - used
            if scope is tree:
                unused -= exported
            where = path.name if scope is tree else f"{path.name}:{scope.name}"
            assert not unused, f"{where} imports unused names {sorted(unused)}"


def test_no_module_reaches_into_another_modules_private_names():
    # an underscore name is its module's own; share it by making it public
    package = Path(extamen.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "extamen"
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module or '.'}"
                if node.module in (None, "extamen"):
                    modules.update(a.asname or a.name for a in node.names)
        reached = {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")
        }
        assert not reached, f"{path.name} reaches into {sorted(reached)}"


@pytest.mark.parametrize("radius", range(9))
def test_graph_explore_rows_equal_classify_rows(tmp_path, radius):
    # rows read off addresses against rows read off classify's paths
    want = [["vertex", "kind", "base_depth", "offset"]]
    root_rays = 0
    for v in ball(ROOT, radius).vertices:
        addr = classify(v)
        if isinstance(addr, Skeleton):
            want.append([str(v), "skeleton", str(len(addr.path)), "0"])
        else:
            root_rays += not addr.base and addr.offset == 1
            want.append([str(v), "hair", str(len(addr.base)), str(addr.offset)])
    # radius 0 reaches neither root hair, so the check fails there
    assert run(["graph", "explore", "--n", str(radius), "--out", str(tmp_path)]) == (0 if radius else 1)
    rows = list(csv.reader((tmp_path / "series.csv").read_text().splitlines()))
    assert rows == want
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["skeleton"] == sum(row[1] == "skeleton" for row in want[1:])
    assert report["hairs"] == sum(row[1] == "hair" for row in want[1:])
    assert report["root_hair_starts"] == root_rays == (2 if radius else 0)


def test_graph_explore_leaves_numpy_unimported(tmp_path):
    # numpy is imported and green_mc's step tables are built only when
    # green_mc runs; a fresh interpreter shows it
    script = (
        "import sys\n"
        "import extamen\n"
        "from extamen import cli, walks\n"
        "built = [walks._mc_tables.cache_info().currsize]\n"
        f"code = cli.main(['graph', 'explore', '--n', '2', '--out', {str(tmp_path)!r}])\n"
        "built.append(walks._mc_tables.cache_info().currsize)\n"
        "print(code, 'numpy' in sys.modules, built)\n"
        "walks.green_mc(2, 1)\n"
        "print(walks._mc_tables.cache_info().currsize)\n"
    )
    assert _fresh_python(script)[-2:] == ["0 False [0, 0]", "1"]


# each subcommand with the extamen submodules it must not load, or with
# "only" and the submodules it loads, exactly; numpy only for green_mc
SUBCOMMAND_MODULES = [
    (["graph", "explore", "--n", "2"], "only", {"cli", "dyadic", "errors", "graph"}),
    (["fn", "check", "--fn", "phi_u", "--n", "3"], "not", {"approx", "walks", "freegroup"}),
    (["fn", "check", "--fn", "minfun:phi_u", "--n", "3"], "not", {"approx", "freegroup"}),
    (["approx", "verify", "--fn", "minfun:phi_u", "--set", "explicit:3", "--n", "3"],
     "not", {"walks", "freegroup"}),
    (["approx", "construct", "--kind", "countable", "--n", "3"], "not", {"walks", "freegroup"}),
    (["approx", "refute", "--set", "3/4", "--n", "3"], "not", {"walks", "freegroup"}),
    (["walk", "green", "--n", "5"], "not", {"approx", "freegroup"}),
    (["walk", "green", "--n", "5", "--trials", "2", "--steps", "10"], "not", {"approx", "freegroup"}),
    (["walk", "return", "--n", "5"], "not", {"approx", "freegroup"}),
    (["walk", "decay", "--trials", "2", "--steps", "100", "--checkpoints", "10,100"],
     "not", {"approx", "freegroup"}),
    (["cx", "scan", "--trials", "3"], "not", {"approx", "walks", "minfn"}),
]


@pytest.mark.parametrize("argv, how, modules", SUBCOMMAND_MODULES,
                         ids=[" ".join(c[0]) for c in SUBCOMMAND_MODULES])
def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, how, modules):
    script = (
        "import json, sys\n"
        "from extamen import cli\n"
        f"code = cli.main({argv + ['--out', str(tmp_path)]!r})\n"
        "loaded = sorted(m.partition('.')[2] for m in sys.modules if m.startswith('extamen.'))\n"
        "machinery = ['dataclasses' in sys.modules, 'inspect' in sys.modules]\n"
        "print(json.dumps([code, loaded, 'numpy' in sys.modules, machinery]))\n"
    )
    code, loaded, numpy_loaded, machinery = json.loads(_fresh_python(script)[-1])
    assert code == 0
    if argv[:2] == ["graph", "explore"]:
        # the vertex path's value types are plain slotted classes
        assert machinery == [False, False]
    if how == "only":
        assert set(loaded) == modules
    else:
        assert not modules & set(loaded), sorted(modules & set(loaded))
    assert numpy_loaded == ("--trials" in argv and argv[:2] == ["walk", "green"])


def test_parser_choices_copy_their_registries():
    from extamen import approx, cli
    from extamen.walks import WalkConfig

    assert cli.BETA_CHOICES == tuple(approx.BETA_SCHEDULES)
    assert cli.KIND_CHOICES == tuple(approx.CONSTRUCTIONS)
    assert cli.DECAY_FN_DEFAULT == WalkConfig.fn_name


# sha256 of the --help text (COLUMNS=80) of every parser, frozen from the
# parser that read its choices off the registries, and for the subcommands
# whose options changed, from the parser that gives each subcommand only the
# shared options its handler reads; argparse lays help out differently
# across Python versions, so the freeze holds for 3.11
HELP_DIGESTS = {
    "": "b9932700cd05dc342662c26d009b1ee969c843a23b681df5183ab0ab92446230",
    "graph": "858d9c7bb93005a207e14327d0501c729f3e514c8bcaab81af92fab5f7163ba9",
    "graph explore": "9e8932fef037802f3fbeb8c0174db2c8165e5235990b385f17db5c467a136681",
    "fn": "60f0658b042821621b0e150394c3d5239cd3ef9f492a88e8676476b37932c931",
    "fn check": "450e798603c7326011bbad6a0c566740b87b41ebd805a3dd744a4ab790ead7f6",
    "approx": "e3ce5977a4755380bbba550b46884178d2708644a3cc86cd4ec5c1041ef199b6",
    "approx verify": "c62cb2ea525461b1abb3e4e1042b34e3db52d7a0cd3e869289d2e89ba8e1c1b0",
    "approx construct": "0a58695165397718310688c11717c07909b5138d369cd45102dadf38d2dabe97",
    "approx refute": "7a9055b09e1d2b7edcf3c38acb35bdee357cb8d6a9f1cb95ded6075afa6170e2",
    "walk": "b29b030c3e83e90d71e7f2dd775a75578e91a114569e1903a8ceb92160163aa0",
    "walk green": "915e594f706f504e1d26d1c0a6c9019e533fd732deda10039977c33b95330b4b",
    "walk return": "64c91d99714d35ef6cdb10dacd3eac304cb501b695984a024f109dfd6cf8a9b4",
    "walk decay": "079171bf1c2e7d726dfd54d340d8270995623a657dbd3d2d739aee0b9b0fe463",
    "cx": "5cd6652c56e9de32d9394fe469d16039fce3b4c6cf5e776d647df21c37a5e085",
    "cx scan": "90d63b8398eedae3b988c1ec09a277890b661948ea1391e51ea6573a0ddaff19",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests are frozen on Python 3.11")
@pytest.mark.parametrize("command", HELP_DIGESTS, ids=lambda c: c or "extamen")
def test_help_text_is_frozen(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        run([*command.split(), "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command], text
