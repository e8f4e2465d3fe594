"""One benchmark pass, run in a fresh interpreter by ``run.py``.

    python3 bench/passrun.py ROOT WORKLOAD SEED WORKDIR TRACE

Imports ``permorder`` from ROOT/src, creates WORKDIR, builds the op list and
calls ``permorder.cli.main(argv)`` once per op with stdout and stderr
captured.  With TRACE=1 every public function of the package is wrapped
first (see tracing.py).  The pass writes WORKDIR/outcomes.json, and
WORKDIR/spans.jsonl when traced; it prints nothing itself.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

from tracing import HOOKS, MODULES, Tracer, write_spans
from workloads import WORKLOADS


def monotonic() -> float:
    """A clock shared by all processes on the host, for set-up time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe(n: int = 25) -> float:
    """Seconds taken by a fixed slice of interpreter work.

    Walks the partitions of n, accumulating multinomial weights by lcm
    with Python ints: the same kind of work as the package's hot loops,
    written independently of it.  Timed between ops, it tracks how fast the
    host runs this process at that moment.
    """
    gc.disable()  # a collection would time the program's heap, not the host
    t0 = time.perf_counter()
    total = math.factorial(n)
    acc: dict[int, int] = {}

    def walk(rem: int, top: int, denom: int, value: int) -> None:
        for j in range(min(top, rem), 1, -1):
            weight = denom
            c = 0
            while j * (c + 1) <= rem:
                c += 1
                weight *= j * c
                walk(rem - j * c, j - 1, weight, math.lcm(value, j))
        acc[value] = acc.get(value, 0) + total // (denom * math.factorial(rem))

    walk(n, n, 1, 1)
    elapsed = time.perf_counter() - t0
    gc.enable()
    if sum(acc.values()) != total:
        raise RuntimeError("probe miscounted")
    return elapsed


def main(argv: list[str]) -> int:
    root, workload, seed, work, trace = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import permorder.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported permorder from {cli.__file__}, not {src}")
    work_dir = Path(work)
    work_dir.mkdir()
    for sub in ("env-cache", "xdg-cache"):
        (work_dir / sub).mkdir()
    ops = WORKLOADS[workload](int(seed), work_dir)

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install(
            {name: importlib.import_module(f"permorder.{name}") for name in MODULES},
            HOOKS,
        )

    outcomes = []
    probes = []
    first_op = monotonic()
    for op in ops:
        probes.append(probe())
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        outcomes.append({"code": code, "ms": (t1 - t0) * 1e3, "error": error,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    probes.append(probe())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        write_spans(tracer.spans, work_dir / "spans.jsonl")
    result = {"first_op": first_op, "rss_kb": rss_kb, "probes": probes, "ops": outcomes}
    (work_dir / "outcomes.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
