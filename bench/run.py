"""Benchmark of the permorder CLI.

    python3 bench/run.py --workload {frontier,pmf,points} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from the ``src`` directory next
to this one.  Each pass runs one workload's op list through
``permorder.cli.main`` in a fresh interpreter (cold ``lru_cache``s), as one
closed-loop caller with ``--threads 1``.  Passes repeat until about S
seconds of passes have run; every op of every pass is checked by an oracle
after the pass (workloads.py).  With ``--trace 0`` the end-to-end metrics
are reported as medians over passes.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced
passes' spans (tracing.py).

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Scratch files live in ``.bench_tmp`` beside ``src`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from passrun import monotonic
from tracing import MODULES, read_spans, self_times
from workloads import WORKLOADS, Oracle, partition_count, support

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3
RUN_LIMIT_S = 150  # hard cap on one run, so it always ends within 3 minutes

# On a shared host the same pass runs up to twice as slow while neighbours
# are busy, in spells that outlast a run, so raw wall times of two runs
# differ by more than any useful bound.  passrun.py therefore times a fixed
# probe of interpreter work (passrun.probe) between ops, and op latencies are
# reported at the host speed at which that probe takes PROBE_REF_S (about its
# time on an idle 2-core Xeon VM).  Raw wall times are printed beside them.
PROBE_REF_S = 0.0015

E2E = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# name -> (unit, computed from inputs rather than measured)
PER_LAYER: dict[str, tuple[str, bool]] = {
    "cli.main.self_s": ("s", False),
    "cli.stdout_bytes": ("bytes", True),
    "exactdist.mode.self_s": ("s", False),
    "exactdist.mode.calls": ("count", False),
    "exactdist.mode.confirmations": ("count", False),
    "exactdist.mode.partitions": ("count", True),
    "exactdist.mode.support": ("count", True),
    "exactdist.full_pmf.self_s": ("s", False),
    "exactdist.full_pmf.calls": ("count", False),
    "exactdist.full_pmf.partitions": ("count", True),
    "exactdist.full_pmf.support": ("count", True),
    "exactdist.full_pmf.repeat_ms": ("ms", False),
    "exactdist.order_counts_on_lattice.self_s": ("s", False),
    "exactdist.order_counts_on_lattice.calls": ("count", False),
    "exactdist.order_counts_on_lattice.dp_cells": ("count", True),
    "exactdist.count_lengths_divide.self_s": ("s", False),
    "numtheory.factorize.self_s": ("s", False),
    "numtheory.factorize.calls": ("count", False),
    "numtheory.DivisorLattice.self_s": ("s", False),
    "numtheory.compute_forcing_set.self_s": ("s", False),
    "sampler.estimate_p.self_s": ("s", False),
    "sampler.estimate_p.trials": ("count", True),
    "sampler.estimate_p.trials_per_s": ("1/s", False),
    "sampler.estimate_p.hits": ("count", False),
    "store.append.self_s": ("s", False),
    "store.append.calls": ("count", False),
    "store.append.log_bytes": ("bytes", True),
    "store.load.self_s": ("s", False),
    "store.checkpoint.self_s": ("s", False),
    "numtheory.self_s": ("s", False),
    "exactdist.self_s": ("s", False),
    "asymptotics.self_s": ("s", False),
    "sampler.self_s": ("s", False),
    "store.self_s": ("s", False),
    "cli.self_s": ("s", False),
    "trace.overhead": ("ratio", False),
    "trace.uncovered_s": ("s", False),
    "trace.spans": ("count", False),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail_rank(count: int) -> int:
    """Index, in ascending order, of the highest value with >= 10 beyond it."""
    return max(0, count - 11)


def run_pass(workload: str, seed: int, work: Path, traced: bool,
             deadline: float) -> dict[str, Any]:
    """Launch one pass in WORK (which must not exist yet), wait for it, and
    return its raw outcomes."""
    env = dict(
        os.environ,
        # never ~/.cache/permorder: both cache fallbacks point into the pass
        PERMORDER_CACHE_DIR=str(work / "env-cache"),
        XDG_CACHE_HOME=str(work / "xdg-cache"),
        TMPDIR=str(work.parent),
        PYTHONHASHSEED="0",
    )
    env.pop("PYTHONPATH", None)
    launched = monotonic()
    cmd = [sys.executable, "-s", str(HERE / "passrun.py"), str(ROOT), workload,
           str(seed), str(work), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish by the run's deadline")
    ended = monotonic()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((work / "outcomes.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["first_op"] - launched
    result["wall_s"] = ended - launched
    return result


def scaled_latencies(result: dict[str, Any]) -> list[float]:
    """Op latencies in ms at reference host speed (see PROBE_REF_S).

    ``probes[i]`` was timed just before op i and ``probes[i + 1]`` just
    after it; the host speed during op i is judged by the median of the
    four probes nearest to it, two on each side.
    """
    probes = result["probes"]
    return [
        op["ms"] * PROBE_REF_S / statistics.median(probes[max(0, i - 1): i + 3])
        for i, op in enumerate(result["ops"])
    ]


def pass_summary(result: dict[str, Any]) -> dict[str, float]:
    raw = sorted(o["ms"] for o in result["ops"])
    scaled = sorted(scaled_latencies(result))
    rank = tail_rank(len(raw))
    return {
        "setup_s": result["setup_s"],
        "run_s": sum(scaled) / 1e3,
        "op_p50_ms": statistics.median(scaled),
        "op_tail_ms": scaled[rank],
        "peak_rss_mb": result["rss_kb"] / 1024,
        "raw_run_s": sum(raw) / 1e3,
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_tail_ms": raw[rank],
        "host_speed": PROBE_REF_S / statistics.median(result["probes"]),
    }


def layer_metrics(spans: list[list], result: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        calls[span[0]] = calls.get(span[0], 0) + 1
        self_s[span[0]] = self_s.get(span[0], 0.0) + own

    def named(name: str) -> list[list]:
        return [s for s in spans if s[0] == name]

    out: dict[str, float] = {}
    for key in PER_LAYER:
        layer, _, stat = key.rpartition(".")
        if stat == "self_s" and "." in layer:
            out[key] = self_s.get(layer, 0.0)
        elif stat == "calls":
            out[key] = calls.get(layer, 0)
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            v for k, v in self_s.items() if k.partition(".")[0] == module
        )

    out["cli.stdout_bytes"] = sum(len(o["stdout"].encode()) for o in result["ops"])

    mode_ns = [s[4]["n"] for s in named("exactdist.mode")]
    out["exactdist.mode.partitions"] = sum(partition_count(n) for n in mode_ns)
    out["exactdist.mode.support"] = sum(len(support(n)) for n in mode_ns)
    out["exactdist.mode.confirmations"] = sum(
        1 for s in spans
        if s[0] == "exactdist.order_counts_on_lattice" and s[1] >= 0
        and spans[s[1]][0] == "exactdist.mode"
    )

    seen: set[int] = set()
    repeats = []
    for s in named("exactdist.full_pmf"):
        n = s[4]["n"]
        if n in seen:
            repeats.append((s[3] - s[2]) * 1e3)
        seen.add(n)
    out["exactdist.full_pmf.partitions"] = sum(partition_count(n) for n in seen)
    out["exactdist.full_pmf.support"] = sum(len(support(n)) for n in seen)
    out["exactdist.full_pmf.repeat_ms"] = statistics.median(repeats) if repeats else 0.0

    out["exactdist.order_counts_on_lattice.dp_cells"] = sum(
        (s[4]["n"] + 1) * s[4]["tau"] for s in named("exactdist.order_counts_on_lattice")
    )

    estimates = named("sampler.estimate_p")
    trials = sum(s[4]["trials"] for s in estimates)
    out["sampler.estimate_p.trials"] = trials
    out["sampler.estimate_p.hits"] = sum(s[4]["hits"] for s in estimates)
    est_s = self_s.get("sampler.estimate_p", 0.0)
    out["sampler.estimate_p.trials_per_s"] = trials / est_s if est_s else 0.0

    out["store.append.log_bytes"] = sum(s[4]["log_bytes"] for s in named("store.append"))

    covered = sum(s[3] - s[2] for s in spans if s[1] < 0)
    out["trace.uncovered_s"] = sum(o["ms"] for o in result["ops"]) / 1e3 - covered
    out["trace.spans"] = len(spans)
    return out


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    src = ROOT / "src"
    if not (src / "permorder" / "cli.py").is_file():
        print(f"bench: no permorder sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    started = monotonic()
    deadline = started + RUN_LIMIT_S
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    traced_mode = args.trace == "1"
    oracle = Oracle(args.workload)
    build_ops = WORKLOADS[args.workload]
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    attempted = failed = 0
    failures: list[str] = []
    spent = 0.0
    try:
        index = 0
        while True:
            kinds = (False, True) if traced_mode else (False,)
            step = 0.0
            for is_traced in kinds:
                work = scratch / f"pass-{index}"
                index += 1
                result = run_pass(args.workload, args.seed, work, is_traced, deadline)
                step += result["wall_s"]
                verdicts = oracle.check(build_ops(args.seed, work), result["ops"], work)
                attempted += len(verdicts)
                bad = [v for v in verdicts if v is not None]
                failed += len(bad)
                failures += bad
                summary = pass_summary(result)
                if is_traced:
                    spans = read_spans(work / "spans.jsonl")
                    summary.update(layer_metrics(spans, result))
                    traced.append(summary)
                else:
                    plain.append(summary)
                shutil.rmtree(work)
            spent += step
            rounds = len(plain)
            if rounds >= (1 if traced_mode else MIN_PASSES) and spent + spent / rounds > args.seconds:
                break
            if monotonic() + 2 * step > deadline:
                break
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    def med(rows: list[dict[str, float]], key: str) -> float:
        return statistics.median(r[key] for r in rows)

    ops_per_pass = attempted // (len(plain) + len(traced))
    print(f"workload {args.workload}  seed {args.seed}  untraced passes {len(plain)}"
          f"  traced passes {len(traced)}  ops/pass {ops_per_pass}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for label, rows in (("untraced", plain), ("traced", traced)):
        if rows:
            print(f"  {label} passes, run_s scaled/raw @ host speed: " + "  ".join(
                f"{r['run_s']:.3f}/{r['raw_run_s']:.3f}@{r['host_speed']:.2f}" for r in rows))
    rank = tail_rank(ops_per_pass)
    raw = "at reference host speed, median over passes; raw wall"
    notes = {
        "setup_s": "median over passes: process launch to first op, raw wall",
        "run_s": f"sum of op latencies {raw} {med(plain, 'raw_run_s'):.4g} s",
        "op_p50_ms": f"median op latency {raw} {med(plain, 'raw_op_p50_ms'):.4g} ms",
        "op_tail_ms": f"p{100 * (rank + 1) / ops_per_pass:.1f} of {ops_per_pass} ops "
                      f"({ops_per_pass - rank - 1} beyond) {raw} "
                      f"{med(plain, 'raw_op_tail_ms'):.4g} ms",
        "peak_rss_mb": "median over passes of the pass process's peak RSS",
        "ok_ratio": f"1 - fail_ratio; fail_ratio = {failed}/{attempted} = "
                    f"{failed / attempted:.4g}",
    }
    e2e = {key: med(plain, key) for key in E2E if key != "ok_ratio"}
    e2e["ok_ratio"] = (attempted - failed) / attempted
    for key, unit in E2E.items():
        print(f"  {key:<44} {fmt(e2e[key]):>14} {unit:<6} {notes[key]}")
    metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in E2E.items()}
    if traced_mode:
        layers = {key: med(traced, key) for key in PER_LAYER if key != "trace.overhead"}
        layers["trace.overhead"] = med(traced, "run_s") / med(plain, "run_s")
        for key, (unit, computed) in PER_LAYER.items():
            note = "computed from inputs" if computed else ""
            print(f"  {key:<44} {fmt(layers[key]):>14} {unit:<6} {note}")
        metrics = {key: {"value": layers[key], "unit": unit}
                   for key, (unit, _) in PER_LAYER.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
