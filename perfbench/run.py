"""extamen benchmark: seeded workloads, exact checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; extamen is imported from ``src``.
Workloads: ``orbit``, ``decay``, ``chain``, ``vertex`` (see ``workloads.py``).
The default seed is 1; seed 7 is held out: a change that claims a gain
must also hold on it.

Load model: a closed loop, one client, one operation at a time, no extra
threads (``OMP_NUM_THREADS``/``OPENBLAS_NUM_THREADS`` pinned to 1).  For
``--seconds`` the run repeats one iteration:

- a pass: the workload's fixed-size operation list in a fresh interpreter
  (``worker.py``), so memo tables start cold, exactly as for a CLI user;
- with ``--trace 1``, a second, traced pass of the same operations;
- the workload's CLI command in a subprocess writing ``--out`` into
  ``.perfbench_out/``, through ``cli_probe.py``, which runs the CLI's
  ``main`` as ``python3 -m extamen`` does and times its parts.

An iteration starts only if it can end within ``--seconds``, judged by the
last one.  Each metric is the median over the iterations, and every time is
in reference seconds: wall time scaled by the host's speed at that moment,
which the reference clock of ``refclock.py`` measures next to the work.
``setup_s`` is interpreter start, ``import extamen`` and building the seeded
inputs; ``run_s`` the time of the pass's operations; ``op_p50_s`` and
``op_tail_s`` the median and the highest percentile with at least ten
operations beyond it, taken over each operation's median latency across the
passes; ``cli_s`` the CLI's time; ``peak_rss_mb`` the worker's
``ru_maxrss``.  The provenance line gives the unscaled wall times too.
Every operation and every CLI ``report.json`` is checked against exact
frozen values (``expected.json``); a mismatch or exception is a failed
operation, and ``failed / attempted`` is the error rate.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("orbit", "decay", "chain", "vertex")
SCALES = ("full", "tiny")
DEADLINE_S = 170  # the whole run must end within 180 s

# The README-style command each workload times end to end (``--out`` is added).
CLI = {
    "full": {
        "orbit": ["approx", "verify", "--fn", "sum:phi_family:eps=1e-6", "--set", "explicit:7",
                  "--n", "7"],
        "decay": ["walk", "decay", "--trials", "20", "--steps", "10000",
                  "--checkpoints", "100,10000"],
        "chain": ["walk", "green", "--n", "60", "--r", "1/2", "--trials", "10000",
                  "--steps", "10000", "--seed", "42"],
        "vertex": ["graph", "explore", "--n", "12"],
    },
    "tiny": {
        "orbit": ["approx", "verify", "--fn", "sum:phi_family:eps=1e-6", "--set", "explicit:4",
                  "--n", "4"],
        "decay": ["walk", "decay", "--trials", "2", "--steps", "1000", "--checkpoints", "100,1000"],
        "chain": ["walk", "green", "--n", "12", "--r", "1/2", "--trials", "100", "--steps", "500",
                  "--seed", "42"],
        "vertex": ["graph", "explore", "--n", "6"],
    },
}

# per-layer metric -> (tracer layer key, field of the layer summary)
LAYER_FIELDS = {
    "dyadic.compose_calls": ("dyadic.compose", "calls"),
    "dyadic.compose_s": ("dyadic.compose", "busy_s"),
    "graph.act_letter_calls": ("graph.act_letter", "calls"),
    "graph.act_letter_s": ("graph.act_letter", "busy_s"),
    "graph.classify_calls": ("graph.classify", "calls"),
    "graph.classify_s": ("graph.classify", "busy_s"),
    "graph.ball_vertices": ("graph.ball", "work"),
    "graph.ball_s": ("graph.ball", "busy_s"),
    "harmonic.margin_vertices": ("harmonic.margin", "work"),
    "harmonic.margin_s": ("harmonic.margin", "busy_s"),
    "lamplighter.orbit_configs": ("lamplighter.orbit", "work"),
    "lamplighter.orbit_s": ("lamplighter.orbit", "busy_s"),
    "lamplighter.apply_letter_calls": ("lamplighter.apply_letter", "calls"),
    "minfn.setfn_evals": ("minfn.setfn_eval", "calls"),
    "minfn.setfn_eval_s": ("minfn.setfn_eval", "busy_s"),
    "approx.verify_calls": ("approx.verify", "calls"),
    "approx.verify_self_s": ("approx.verify", "self_s"),
    "approx.construct_s": ("approx.construct", "busy_s"),
    "approx.witness_s": ("approx.witness", "busy_s"),
    "walks.decay_steps": ("walks.decay", "work"),
    "walks.decay_s": ("walks.decay", "busy_s"),
    "walks.lumped_terms": ("walks.lumped", "work"),
    "walks.lumped_s": ("walks.lumped", "busy_s"),
    "walks.pn_steps": ("walks.pn", "work"),
    "walks.pn_exact_s": ("walks.pn", "busy_s"),
    "walks.mc_trial_steps": ("walks.mc", "work"),
    "walks.mc_s": ("walks.mc", "busy_s"),
    "freegroup.witness_calls": ("freegroup.witness", "calls"),
    "freegroup.witness_s": ("freegroup.witness", "busy_s"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure at all (no result is printed)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _remaining(started: float) -> float:
    return DEADLINE_S - (time.monotonic() - started)


def run_pass(workload: str, seed: int, scale: str, traced: bool, started: float,
             spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, _remaining(started)))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass did not finish within the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned - result["setup_sampling_s"]
    result["setup_s"] = refclock.scale(result["setup_wall_s"], result["setup_sample_s"])
    result["op_s"] = [refclock.scale(t, c)
                      for t, c in zip(result["latencies"], result["op_samples_s"])]
    result["run_wall_s"] = sum(result["latencies"])
    result["run_s"] = sum(result["op_s"])
    return result


def run_cli(workload: str, scale: str, started: float) -> dict:
    """Run the workload's CLI command once through ``cli_probe.py``.

    Returns its wall and reference-scaled times, exit code and report digest.
    """
    OUT.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    cmd = [sys.executable, str(BENCH / "cli_probe.py"), *CLI[scale][workload], "--out", out]
    try:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                                  timeout=max(1.0, _remaining(started)))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} CLI did not finish within the deadline") from exc
        wall = time.monotonic() - spawned
        report = Path(out) / "report.json"
        digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.is_file() else None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result = {"wall_s": wall, "exit": proc.returncode, "digest": digest}
    try:
        timing = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return result  # the command failed; it counts as a failed operation
    result["wall_s"] = wall - timing["sampling_s"]
    result["cli_s"] = refclock.scale(result["wall_s"], timing["sample_s"])
    result["startup_s"] = refclock.scale(timing["main_at"] - spawned - timing["main_sampling_s"],
                                         timing["sample_s"])
    result["handler_s"] = refclock.scale(timing["handler_s"], timing["sample_s"])
    return result


def tail(latencies: list) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with >= 10 ops beyond it."""
    ordered = sorted(latencies)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def op_latencies(passes: list) -> list:
    """Each operation's median time over the passes (every pass runs the same list)."""
    return [statistics.median(lat) for lat in zip(*(p["op_s"] for p in passes))]


def end_to_end(passes: list, clis: list) -> dict:
    med = statistics.median
    ops = op_latencies(passes)
    return {
        "setup_s": med(p["setup_s"] for p in passes),
        "run_s": med(p["run_s"] for p in passes),
        "op_p50_s": med(ops),
        "op_tail_s": tail(ops)[0],
        "cli_s": med(c.get("cli_s", c["wall_s"]) for c in clis),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list, traced: list, clis: list) -> dict:
    med = statistics.median
    first = traced[0]["trace"]
    out = {}
    for name, (key, field) in LAYER_FIELDS.items():
        if field.endswith("_s"):
            # a traced pass's wall seconds (sampling included) to its reference seconds
            out[name] = med(t["trace"]["layers"].get(key, {}).get(field, 0.0) * t["run_s"]
                            / (t["run_wall_s"] + t["ops_sampling_s"]) for t in traced)
        else:
            out[name] = first["layers"].get(key, {}).get(field, 0)
    calls = out["graph.classify_calls"]
    out["graph.classify_memo_hit_ratio"] = first["memo_hits"] / calls if calls else 0.0
    out["graph.memo_entries"] = traced[0]["memo_entries"]
    probes = [c for c in clis if "startup_s" in c]
    out["cli.startup_s"] = med(c["startup_s"] for c in probes) if probes else 0.0
    out["cli.handler_s"] = med(c["handler_s"] for c in probes) if probes else 0.0
    out["trace.overhead_ratio"] = med(t["run_s"] for t in traced) / med(p["run_s"] for p in passes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input sizes; 'tiny' is for the self-test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "extamen" / "__init__.py").is_file():
        print(f"no extamen sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    frozen_cli = json.loads((BENCH / "expected.json").read_text())["cli"]
    want_digest = frozen_cli[f"{args.workload}/{args.scale}"]
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    passes, traced, clis = [], [], []
    try:
        while True:
            iteration = time.monotonic()
            passes.append(run_pass(args.workload, args.seed, args.scale, False, started))
            if args.trace:
                spans = OUT / f"spans-{args.workload}-{args.seed}-{len(traced)}.json"
                traced.append(run_pass(args.workload, args.seed, args.scale, True, started, spans))
            clis.append(run_cli(args.workload, args.scale, started))
            now = time.monotonic()
            if now - started + (now - iteration) > args.seconds or _remaining(started) < 60:
                break
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes + traced) + len(clis)
    failures = [f for p in passes + traced for f in p["failures"]]
    failed = sum(p["failed"] for p in passes + traced)
    for c in clis:
        if c["exit"] != 0 or c["digest"] != want_digest:
            failed += 1
            failures.append(f"cli exit {c['exit']}, report.json sha256 {c['digest']}")

    if args.trace:
        values, wanted = per_layer(passes, traced, clis), spec["per_layer"]
    else:
        values, wanted = end_to_end(passes, clis), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "iterations": len(passes),
        "ops_per_pass": passes[0]["attempted"],
        "op_tail_percentile": tail(op_latencies(passes))[1],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "green_mc_backend": passes[0]["backend"],
        "orientation": passes[-1]["orientation"],
        "memo_entries": [p["memo_entries"] for p in passes],
        "wall_s": {
            "setup": statistics.median(p["setup_wall_s"] for p in passes),
            "run": statistics.median(p["run_wall_s"] for p in passes),
            "cli": statistics.median(c["wall_s"] for c in clis),
        },
        "reference_sample_s": statistics.median(p["setup_sample_s"] for p in passes),
        "cli_report_sha256": [c["digest"] for c in clis],
        "error_rate": failed / attempted,
        "failures": failures[:5],
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} error_rate = {failed / attempted!r} ratio "
          f"({failed}/{attempted} failed)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
