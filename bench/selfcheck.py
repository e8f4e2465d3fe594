"""Checks of the benchmark itself.

    python3 bench/selfcheck.py

1. Self-time arithmetic is right on a synthetic nested call (scripted clock).
2. A tampered op output is counted as a failure, on every workload.
3. ``sampler.estimate_p.hits`` repeats exactly across two traced passes of
   ``points`` with the same seed.
4. The metric names and units in BENCHMARK.json match run.py's tables.
5. Without the package sources beside it, run.py exits non-zero and prints
   no result.

Takes about a minute; prints one line per check and exits 1 on a failure.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracing import Tracer, read_spans, self_times
from workloads import WORKLOADS, Oracle

SEED = 7


class CheckFailed(Exception):
    pass


def require(condition: bool, message: object = "") -> None:
    if not condition:
        raise CheckFailed(message)


def check_self_times() -> None:
    # Clock reads in call order: outer, leaf, /leaf, inner, leaf, /leaf,
    # /inner, /outer.
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda: leaf())
    outer = tracer.wrap("outer", lambda: (leaf(), inner()))
    outer()
    require([s[0] for s in tracer.spans] == ["outer", "leaf", "inner", "leaf"])
    require([s[1] for s in tracer.spans] == [-1, 0, 0, 2])
    # outer 0..10 holds leaf 1..3 and inner 4..9; inner holds leaf 5..8.
    require(self_times(tracer.spans) == [3.0, 2.0, 2.0, 3.0], self_times(tracer.spans))


def run_one(workload: str, work_root: Path, traced: bool, index: int) -> tuple[list, dict]:
    work = work_root / f"{workload}-{index}"
    result = run.run_pass(workload, SEED, work, traced, run.monotonic() + 170)
    return WORKLOADS[workload](SEED, work), result


def tamper(workload: str, outcomes: list[dict]) -> int:
    """Corrupt one op's output in place; return that op's index."""
    if workload == "frontier":
        index = 4  # n = 6, a known counterexample
        outcomes[index]["stdout"] = outcomes[index]["stdout"].replace(
            '"holds":false', '"holds":true')
    elif workload == "pmf":
        index = 0
        doc = json.loads(outcomes[index]["stdout"])
        doc["rows"][-1]["count"] = str(int(doc["rows"][-1]["count"]) + 1)
        outcomes[index]["stdout"] = json.dumps(doc)
    else:
        index = 1
        doc = json.loads(outcomes[index]["stdout"])
        doc["rows"][0]["hits"] += 1
        outcomes[index]["stdout"] = json.dumps(doc)
    return index


def check_workloads(work_root: Path) -> None:
    hits = []
    for workload, traced, repeats in (("frontier", False, 1), ("pmf", False, 1),
                                      ("points", True, 2)):
        for i in range(repeats):
            ops, result = run_one(workload, work_root, traced, i)
            work = work_root / f"{workload}-{i}"
            oracle = Oracle(workload)
            clean = oracle.check(ops, result["ops"], work)
            require(clean == [None] * len(ops), [v for v in clean if v][:3])
            bad = tamper(workload, result["ops"])
            verdicts = oracle.check(ops, result["ops"], work)
            require(verdicts[bad] is not None, f"{workload}: tampered op passed")
            print(f"ok  {workload}: untampered pass clean, tampered op {bad} flagged "
                  f"({sum(v is not None for v in verdicts)} failed)")
            if traced:
                metrics = run.layer_metrics(read_spans(work / "spans.jsonl"), result)
                hits.append(metrics["sampler.estimate_p.hits"])
    require(hits[0] == hits[1] and hits[0] > 0, hits)
    print(f"ok  sampler.estimate_p.hits repeats exactly across two passes: {hits[0]}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    require(e2e == run.E2E, (e2e, run.E2E))
    require(layers == {k: u for k, (u, _) in run.PER_LAYER.items()})
    require({w["name"] for w in spec["workloads"]} == set(WORKLOADS))
    print("ok  BENCHMARK.json names and units match run.py")


def check_bare_directory(work_root: Path) -> None:
    bare = work_root / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "pmf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    require(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print(f"ok  without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    check_self_times()
    print("ok  self time = duration minus children, on a synthetic nested call")
    check_benchmark_json()
    scratch_root = run.ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=scratch_root))
    try:
        check_bare_directory(work_root)
        check_workloads(work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
