"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that:

- ``run.py`` prints every end-to-end metric of ``BENCHMARK.json`` by name
  with its unit, for every workload, on the default seed 1 and the held-out
  seed 7, with no failed operation;
- with ``--trace 1`` it prints every per-layer metric, and the counts repeat
  exactly across two traced runs;
- a traced run leaves every CLI ``report.json`` sha256 unchanged;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` it exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = (1, 7)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc: subprocess.CompletedProcess, workload: str, wanted: list) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-3:]
    assert [m["name"] for m in wanted] == list(result["metrics"]), result["metrics"].keys()
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
        assert any(line.startswith(f"{workload} {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), f"{workload}: no line for {m['name']}"
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    return result, provenance


def main() -> int:
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")
              and m["name"] != "trace.overhead_ratio"]
    for workload in WORKLOADS:
        digests = set()
        for seed in SEEDS:
            _, prov = parse(bench(workload, seed, 0), workload, SPEC["end_to_end"])
            digests.update(prov["cli_report_sha256"])
        traced = [parse(bench(workload, 1, 1), workload, SPEC["per_layer"]) for _ in range(2)]
        for name in counts:
            values = [t[0]["metrics"][name]["value"] for t in traced]
            assert values[0] == values[1], f"{workload}: {name} differs across runs: {values}"
        for _, prov in traced:
            digests.update(prov["cli_report_sha256"])
        assert len(digests) == 1, f"{workload}: report.json digests differ: {digests}"
        print(f"ok {workload}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 1, 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program's sources"
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok bare checkout refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
