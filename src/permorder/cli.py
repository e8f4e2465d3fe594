"""Command-line front end for the permutation-order toolkit.

Every subcommand computes rows of results and emits them on stdout in
one of three formats: an aligned human table (rationals get a companion
6-significant-digit decimal), CSV, or a single JSON document.  The CSV
and JSON outputs carry identical numeric content, with exact rationals
rendered as ``p/q`` strings so values round-trip losslessly.  Progress
and diagnostics go to stderr.

Exit codes: 0 success (and, for checking commands, every claim holds);
3 the run completed but found counterexamples; 2 usage error;
1 internal or resource error (the message names the exceeded budget)
or a result store that is damaged, foreign or unreachable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Sequence

from .asymptotics import (
    CLAIM_MODE_LOCATION,
    divisor_count_bound,
    divisor_sum_bound,
    predicted_point_prob,
    prime_assignment_bound,
    restricted_cycle_bound,
    verify_gap_inequality,
    verify_mode_location,
    verify_near_max_form,
)
from .exactdist import (
    BudgetExceededError,
    brute_force_joint,
    collision_norm,
    count_lengths_divide,
    count_restricted_cycles,
    full_pmf,
    mode,
    p_exact,
    support,
    tail_max,
)
from .numtheory import DivisorLattice, compute_forcing_set, factorize, landau_g
from .sampler import _pooled, estimate_collision, estimate_p
from .store import (
    ResultRecord,
    ResultStore,
    StoreError,
    frac_str,
    jsonify,
    verification_record,
)

__all__ = ["CommandConfig", "main", "parse_range", "run"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLES = 3

_FORMATS = ("table", "csv", "json")
_ENV_CACHE = "PERMORDER_CACHE_DIR"
_BOUNDS_MAX_N = 9  # the joint (cycles, order) oracle enumerates permutations


class _UsageError(Exception):
    """Raised in place of argparse's sys.exit so main can return 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def parse_range(text: str) -> tuple[int, int]:
    """Parse ``N`` or ``A..B`` (inclusive on both ends) into (lo, hi)."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise ValueError(f"invalid range {text!r}: expected N or A..B") from None
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid range {text!r}: need 1 <= A <= B")
    return lo, hi


def _fraction(text: str) -> Fraction:
    # Fraction("1/0") raises ZeroDivisionError, which argparse does not turn
    # into a usage error; the message is argparse's own for a bad value.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


@dataclass(frozen=True)
class CommandConfig:
    """Validated invocation: one subcommand plus every knob it may use."""

    subcommand: str
    n_range: tuple[int, int]
    m: int | None = None
    eps: Fraction | None = None
    claim: str | None = None
    target: str | None = None
    k: int = 0
    trials: int = 10_000
    seed: int | None = None
    threads: int = 1
    fmt: str = "table"
    cache_dir: Path | None = None

    def __post_init__(self) -> None:
        lo, hi = self.n_range
        if lo < 1 or hi < lo:
            raise ValueError("n range must satisfy 1 <= lo <= hi")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.fmt not in _FORMATS:
            raise ValueError(f"format must be one of {', '.join(_FORMATS)}")

    @property
    def single_n(self) -> int:
        lo, hi = self.n_range
        if lo != hi:
            raise ValueError(f"{self.subcommand} takes a single n, not a range")
        return lo

    def ns(self) -> range:
        lo, hi = self.n_range
        return range(lo, hi + 1)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on the first `main` call and then reused.

    Building it takes about 30 times as long as one parse; `parse_args`
    leaves it unchanged and returns a fresh namespace each call.
    """
    parser = _Parser(prog="permorder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    def add(name: str, help_text: str, *, threads: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", required=True, metavar="N|A..B",
                       help="permutation size, or inclusive range A..B")
        p.add_argument("--format", dest="fmt", default="table", choices=_FORMATS)
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes (default 1)")
        return p

    add("kn", "forcing offsets k with lcm(1..k) dividing n-k")
    add("landau", "largest achievable order g(n)")
    add("pmf", "full exact distribution of the order for one n")
    add("mode", "most likely order, its count and probability", threads=True)
    add("collision", "probability two independent orders coincide")

    eta = add("eta-check", "exact vs predicted point probability at offset k")
    eta.add_argument("--k", type=int, default=0, help="forcing offset (default 0)")

    ver = add("verify", "check one claim over a range of n", threads=True)
    ver.add_argument("claim", choices=("thm11", "thm12", "ineq"),
                     help="which claim to check")

    tail = add("tail-max",
               "most likely order among m >= n^(1+eps); ties go to the smallest m")
    tail.add_argument("--eps", type=_fraction, required=True,
                      help="positive rational exponent offset, e.g. 1/10")

    samp = add("sample", "Monte Carlo estimates from random cycle types",
               threads=True)
    samp.add_argument("target", choices=("p", "collision"),
                      help="estimate P(order = m), or the collision probability")
    samp.add_argument("--m", type=int, default=None, help="order (target p only)")
    samp.add_argument("--trials", type=int, default=10_000)
    samp.add_argument("--seed", type=int, default=None,
                      help="RNG seed (default: fresh entropy, echoed in output)")

    add("bounds-check", "exhaustive small-n check that every bound dominates")

    scan = add("scan-counterexamples",
               "find n where the most likely order is not n - max(offsets)",
               threads=True)
    scan.add_argument("--cache-dir", type=Path, default=None,
                      help=f"result store directory (default ${_ENV_CACHE})")

    return parser


def _config_from_args(ns: argparse.Namespace) -> CommandConfig:
    cache = getattr(ns, "cache_dir", None)
    if cache is None:
        env = os.environ.get(_ENV_CACHE)
        cache = Path(env) if env else None
    return CommandConfig(
        subcommand=ns.subcommand,
        n_range=parse_range(ns.n),
        m=getattr(ns, "m", None),
        eps=getattr(ns, "eps", None),
        claim=getattr(ns, "claim", None),
        target=getattr(ns, "target", None),
        k=getattr(ns, "k", 0),
        trials=getattr(ns, "trials", 10_000),
        seed=getattr(ns, "seed", None),
        threads=getattr(ns, "threads", 1),
        fmt=getattr(ns, "fmt", "table"),
        cache_dir=cache,
    )


def _default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "permorder"


# ---------------------------------------------------------------------------
# output


def _csv_cell(value: Any) -> str:
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _table_cell(value: Any) -> str:
    if isinstance(value, Fraction):
        return f"{frac_str(value)} ({float(value):.6g})"
    if isinstance(value, (list, tuple)):
        return " ".join(_table_cell(v) for v in value)
    if value is None:
        return "-"
    return _csv_cell(value)


def _emit(config: CommandConfig, rows: list[dict[str, Any]]) -> None:
    out = sys.stdout
    if config.fmt == "json":
        doc = jsonify({"command": config.subcommand, "rows": rows})
        print(json.dumps(doc, separators=(",", ":")), file=out)
        return
    if not rows:
        return
    if config.fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_csv_cell(v) for v in row.values())
        return
    headers = list(rows[0])
    cells = [[_table_cell(v) for v in row.values()] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells))
        for i, header in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(), file=out)
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)


# ---------------------------------------------------------------------------
# per-n workers (module level so process pools can pickle them)


def _mode_row(n: int) -> dict[str, Any]:
    result = mode(n)
    return {
        "n": n,
        "argmax": list(result.argmax),
        "max_count": str(result.max_count),
        "max_prob": result.max_prob,
    }


_VERIFY_FNS = {
    "thm11": verify_near_max_form,
    "thm12": verify_mode_location,
    "ineq": verify_gap_inequality,
}


def _bounds_row(n: int) -> dict[str, Any]:
    fact = math.factorial(n)
    joint = brute_force_joint(n)
    checks = violations = 0

    def check(holds: bool) -> None:
        nonlocal checks, violations
        checks += 1
        violations += 0 if holds else 1

    for m in support(n):
        f = factorize(m)
        divs = [d for d in DivisorLattice(f).divisors if d <= n]
        check(
            Fraction(count_lengths_divide(n, f), fact) <= divisor_count_bound(n, f)
        )
        for ell in range(1, n + 1):
            restricted = Fraction(count_restricted_cycles(n, ell, divs), fact)
            check(restricted <= restricted_cycle_bound(n, ell, divs))
            check(restricted <= divisor_sum_bound(n, ell, f))
            check(
                Fraction(joint.get((ell, m), 0), fact)
                <= prime_assignment_bound(ell, f)
            )
    everything = range(1, n + 1)
    for ell in everything:
        check(
            Fraction(count_restricted_cycles(n, ell, everything), fact)
            <= restricted_cycle_bound(n, ell, everything)
        )
    return {"n": n, "checks": checks, "violations": violations}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_kn(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    rows = []
    for n in config.ns():
        forcing = compute_forcing_set(n)
        rows.append(
            {"n": n, "members": list(forcing.members), "max_k": forcing.max_k}
        )
    return rows, EXIT_OK


def _cmd_landau(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    return [{"n": n, "g": landau_g(n)} for n in config.ns()], EXIT_OK


def _cmd_pmf(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    pmf = full_pmf(config.single_n)
    rows = [
        {"m": m, "count": str(count), "prob": pmf.prob(m)}
        for m, count in sorted(pmf.entries.items())
    ]
    return rows, EXIT_OK


def _cmd_mode(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    return list(_pooled(_mode_row, config.ns(), config.threads)), EXIT_OK


def _cmd_collision(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    rows = []
    for n in config.ns():
        norm = collision_norm(n)
        rows.append({"n": n, "norm": norm, "scaled": norm * n * n})
    return rows, EXIT_OK


def _cmd_eta_check(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    k = config.k
    rows = []
    for n in config.ns():
        if k not in compute_forcing_set(n).members:
            print(f"eta-check: skipping n={n} (k={k} is not a forcing offset)",
                  file=sys.stderr)
            continue
        exact = p_exact(n, n - k)
        predicted = predicted_point_prob(n, k)
        rows.append(
            {
                "n": n,
                "k": k,
                "exact": exact,
                "predicted": predicted,
                "residual": abs(exact - predicted),
            }
        )
    return rows, EXIT_OK


def _cmd_verify(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    reports = list(_pooled(_VERIFY_FNS[config.claim], config.ns(), config.threads))
    rows = [
        {"n": r.n, "holds": r.holds, "witnesses": list(r.witnesses)}
        for r in reports
    ]
    code = EXIT_OK if all(r.holds for r in reports) else EXIT_COUNTEREXAMPLES
    return rows, code


def _cmd_tail_max(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    n = config.single_n
    hit = tail_max(n, config.eps)
    m, prob = hit if hit is not None else (None, None)
    return [{"n": n, "eps": config.eps, "m": m, "prob": prob}], EXIT_OK


def _cmd_sample(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    n = config.single_n
    seed = config.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    if config.target == "p":
        if config.m is None:
            raise ValueError("sample p requires --m")
        record = estimate_p(n, config.m, config.trials, seed, config.threads)
    else:
        record = estimate_collision(n, config.trials, seed, config.threads)
    row = {
        "target": record.target,
        "n": record.n,
        "trials": record.trials,
        "hits": record.hits,
        "estimate": record.estimate,
        "std_err": record.std_err,
        "seed": str(record.seed),
    }
    return [row], EXIT_OK


def _cmd_bounds_check(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    lo, hi = config.n_range
    if hi > _BOUNDS_MAX_N:
        raise ValueError(
            f"bounds-check enumerates all permutations; n must be <= {_BOUNDS_MAX_N}"
        )
    rows = [_bounds_row(n) for n in config.ns()]
    code = EXIT_OK if all(r["violations"] == 0 for r in rows) else EXIT_COUNTEREXAMPLES
    return rows, code


def _cached_row(rec: ResultRecord) -> dict[str, Any] | None:
    """The output row of a stored mode-location verdict, None for other claims."""
    try:
        payload = rec.payload
        if payload["claim"] != CLAIM_MODE_LOCATION:
            return None
        holds = payload["holds"]
        if not isinstance(holds, bool):
            raise TypeError(f"holds is {holds!r}")
        return {
            "n": rec.n,
            "holds": holds,
            "expected": payload["details"]["expected"],
            "witnesses": [int(w) for w in payload["witnesses"]],
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed cached verdict for n={rec.n} ({exc!r})") from exc


def _cmd_scan(config: CommandConfig) -> tuple[list[dict[str, Any]], int]:
    lo, hi = config.n_range
    store = ResultStore(config.cache_dir or _default_cache_dir())
    rows_by_n: dict[int, dict[str, Any]] = {}
    for rec in store.load(lo, hi):
        row = _cached_row(rec)
        if row is not None:
            rows_by_n[rec.n] = row
    todo = [n for n in config.ns() if n not in rows_by_n]
    print(f"scan {lo}..{hi}: {len(rows_by_n)} cached, {len(todo)} to compute",
          file=sys.stderr)

    for report in _pooled(verify_mode_location, todo, config.threads):
        store.append(verification_record(report))
        verdict = (
            "holds"
            if report.holds
            else f"COUNTEREXAMPLE argmax={list(report.witnesses)}"
        )
        print(f"n={report.n}: {verdict}", file=sys.stderr)
        rows_by_n[report.n] = {
            "n": report.n,
            "holds": report.holds,
            "expected": report.details["expected"],
            "witnesses": list(report.witnesses),
        }

    rows = [rows_by_n[n] for n in sorted(rows_by_n)]
    code = EXIT_OK if all(r["holds"] for r in rows) else EXIT_COUNTEREXAMPLES
    return rows, code


_HANDLERS: dict[str, Callable[[CommandConfig], tuple[list[dict[str, Any]], int]]] = {
    "kn": _cmd_kn,
    "landau": _cmd_landau,
    "pmf": _cmd_pmf,
    "mode": _cmd_mode,
    "collision": _cmd_collision,
    "eta-check": _cmd_eta_check,
    "verify": _cmd_verify,
    "tail-max": _cmd_tail_max,
    "sample": _cmd_sample,
    "bounds-check": _cmd_bounds_check,
    "scan-counterexamples": _cmd_scan,
}


def run(config: CommandConfig) -> int:
    """Execute one validated command, emit its rows, return the exit code."""
    rows, code = _HANDLERS[config.subcommand](config)
    _emit(config, rows)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
        config = _config_from_args(namespace)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(config)
    except BudgetExceededError as exc:
        print(f"resource limit exceeded: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("resource limit exceeded: out of memory", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
