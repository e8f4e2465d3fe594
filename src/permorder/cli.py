"""Command-line front end for the permutation-order toolkit.

Every subcommand computes rows of results and emits them on stdout in
one of three formats: an aligned human table (rationals get a companion
6-significant-digit decimal), CSV, or a single JSON document.  The CSV
and JSON outputs carry identical numeric content, with exact rationals
rendered as ``p/q`` strings so values round-trip losslessly.  The JSON
document is written by `store.to_json` in one pass over the rows; an
integer outside +-(2**53 - 1) is written there as a decimal string.
Progress and diagnostics go to stderr.

Each subparser carries its handler, which reads the argparse namespace
directly.  Between parsing and the handler, ``main`` makes the checks
argparse cannot (the ``--n`` range, then ``--trials`` and ``--threads``
at least 1) and fills in the default cache directory.  A handler raises
``ValueError`` for a rule of its own subcommand: a single n, ``--m``
with ``sample p`` only, the ``bounds-check`` limit.  ``scan-counterexamples``
hands claim reports to the result store and gets them back; only
``store`` knows how a verdict is written on disk.

Exit codes: 0 success (and, for checking commands, every claim holds);
3 the run completed but found counterexamples; 2 usage error;
1 internal or resource error (the message names the exceeded budget)
or a result store that is damaged, foreign or unreachable.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Sequence

from .asymptotics import (
    CLAIM_MODE_LOCATION,
    VerificationReport,
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
    BRUTE_FORCE_LIMIT,
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
from .numtheory import DivisorLattice, compute_forcing_set, factorize, landau_table
from .sampler import _pooled, estimate_collision, estimate_p
from .store import ResultStore, StoreError, frac_str, to_json

__all__ = ["main", "parse_range"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLES = 3

_FORMATS = ("table", "csv", "json")
_ENV_CACHE = "PERMORDER_CACHE_DIR"


class _UsageError(ValueError):
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


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built on the first `main` call and then reused.

    Building it takes about 30 times as long as one parse; `parse_args`
    leaves it unchanged and returns a fresh namespace each call.
    """
    parser = _Parser(prog="permorder", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="command")

    def add(name: str, help_text: str, handler: Callable, *,
            threads: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--n", required=True, metavar="N|A..B",
                       help="permutation size, or inclusive range A..B")
        p.add_argument("--format", dest="fmt", default="table", choices=_FORMATS)
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker processes (default 1)")
        return p

    add("kn", "forcing offsets k with lcm(1..k) dividing n-k", _cmd_kn)
    add("landau", "largest achievable order g(n)", _cmd_landau)
    add("pmf", "full exact distribution of the order for one n", _cmd_pmf)
    add("mode", "most likely order, its count and probability", _cmd_mode,
        threads=True)
    add("collision", "probability two independent orders coincide", _cmd_collision)

    eta = add("eta-check", "exact vs predicted point probability at offset k",
              _cmd_eta_check)
    eta.add_argument("--k", type=int, default=0, help="forcing offset (default 0)")

    ver = add("verify", "check one claim over a range of n", _cmd_verify,
              threads=True)
    ver.add_argument("claim", choices=("thm11", "thm12", "ineq"),
                     help="which claim to check")

    tail = add("tail-max",
               "most likely order among m >= n^(1+eps); ties go to the smallest m",
               _cmd_tail_max)
    tail.add_argument("--eps", type=_fraction, required=True,
                      help="positive rational exponent offset, e.g. 1/10")

    samp = add("sample", "Monte Carlo estimates from random cycle types",
               _cmd_sample, threads=True)
    samp.add_argument("target", choices=("p", "collision"),
                      help="estimate P(order = m), or the collision probability")
    samp.add_argument("--m", type=int, default=None, help="order (target p only)")
    samp.add_argument("--trials", type=int, default=10_000)
    samp.add_argument("--seed", type=int, default=None,
                      help="RNG seed (default: fresh entropy, echoed in output)")

    add("bounds-check", "exhaustive small-n check that every bound dominates",
        _cmd_bounds_check)

    scan = add("scan-counterexamples",
               "find n where the most likely order is not n - max(offsets)",
               _cmd_scan, threads=True)
    scan.add_argument("--cache-dir", type=Path, default=None,
                      help=f"result store directory (default ${_ENV_CACHE})")

    return parser


def _default_cache_dir() -> Path:
    """$PERMORDER_CACHE_DIR, else $XDG_CACHE_HOME/permorder, else ~/.cache/permorder."""
    env = os.environ.get(_ENV_CACHE)
    if env:
        return Path(env)
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


def _emit(args: argparse.Namespace, rows: list[dict[str, Any]]) -> None:
    out = sys.stdout
    if args.fmt == "json":
        print(to_json({"command": args.subcommand, "rows": rows}), file=out)
        return
    if not rows:
        return
    if args.fmt == "csv":
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
# subcommands (each reads the namespace `main` has checked; ``args.n`` is
# the range of n)


def _single_n(args: argparse.Namespace) -> int:
    if len(args.n) != 1:
        raise ValueError(f"{args.subcommand} takes a single n, not a range")
    return args.n[0]


def _cmd_kn(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    rows = []
    for n in args.n:
        forcing = compute_forcing_set(n)
        rows.append(
            {"n": n, "members": list(forcing.members), "max_k": forcing.max_k}
        )
    return rows, EXIT_OK


def _cmd_landau(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    # One knapsack for the top of the range holds g(n) for every n below it.
    g = landau_table(args.n[-1])
    return [{"n": n, "g": g[n]} for n in args.n], EXIT_OK


def _cmd_pmf(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    n = _single_n(args)
    fact = math.factorial(n)
    rows = [
        {"m": m, "count": str(count), "prob": Fraction(count, fact)}
        for m, count in full_pmf(n).entries.items()
    ]
    return rows, EXIT_OK


def _cmd_mode(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    return list(_pooled(_mode_row, args.n, args.threads)), EXIT_OK


def _cmd_collision(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    rows = []
    for n in args.n:
        norm = collision_norm(n)
        rows.append({"n": n, "norm": norm, "scaled": norm * n * n})
    return rows, EXIT_OK


def _cmd_eta_check(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    k = args.k
    if k < 0:
        # No n has a negative forcing offset: every n would be skipped.
        raise ValueError(f"need k >= 0, got {k}")
    rows = []
    for n in args.n:
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


def _cmd_verify(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    reports = list(_pooled(_VERIFY_FNS[args.claim], args.n, args.threads))
    rows = [
        {"n": r.n, "holds": r.holds, "witnesses": list(r.witnesses)}
        for r in reports
    ]
    code = EXIT_OK if all(r.holds for r in reports) else EXIT_COUNTEREXAMPLES
    return rows, code


def _cmd_tail_max(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    n = _single_n(args)
    hit = tail_max(n, args.eps)
    m, prob = hit if hit is not None else (None, None)
    return [{"n": n, "eps": args.eps, "m": m, "prob": prob}], EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    n = _single_n(args)
    if args.target == "p" and args.m is None:
        raise ValueError("sample p requires --m")
    if args.target == "collision" and args.m is not None:
        raise ValueError("sample collision does not take --m")
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    if args.target == "p":
        record = estimate_p(n, args.m, args.trials, seed, args.threads)
    else:
        record = estimate_collision(n, args.trials, seed, args.threads)
    row = {
        "target": record.target,
        "n": record.n,
        "trials": record.trials,
        "hits": record.hits,
        "estimate": record.estimate,
        "std_err": record.std_err,
        "seed": str(record.seed),
        "stream": record.stream,
    }
    return [row], EXIT_OK


def _cmd_bounds_check(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    if args.n[-1] > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"bounds-check enumerates all permutations; n must be <= {BRUTE_FORCE_LIMIT}"
        )
    rows = [_bounds_row(n) for n in args.n]
    code = EXIT_OK if all(r["violations"] == 0 for r in rows) else EXIT_COUNTEREXAMPLES
    return rows, code


def _scan_row(report: VerificationReport) -> dict[str, Any]:
    """The output row of a mode-location verdict, stored or fresh."""
    return {
        "n": report.n,
        "holds": report.holds,
        "expected": report.details["expected"],
        "witnesses": list(report.witnesses),
    }


def _cmd_scan(args: argparse.Namespace) -> tuple[list[dict[str, Any]], int]:
    lo, hi = args.n[0], args.n[-1]
    store = ResultStore(args.cache_dir)
    rows_by_n = {
        report.n: _scan_row(report)
        for report in store.load(lo, hi)
        if report.claim == CLAIM_MODE_LOCATION
    }
    todo = [n for n in args.n if n not in rows_by_n]
    print(f"scan {lo}..{hi}: {len(rows_by_n)} cached, {len(todo)} to compute",
          file=sys.stderr)

    for report in _pooled(verify_mode_location, todo, args.threads):
        store.append(report)
        verdict = (
            "holds"
            if report.holds
            else f"COUNTEREXAMPLE argmax={list(report.witnesses)}"
        )
        print(f"n={report.n}: {verdict}", file=sys.stderr)
        rows_by_n[report.n] = _scan_row(report)

    rows = [rows_by_n[n] for n in sorted(rows_by_n)]
    code = EXIT_OK if all(r["holds"] for r in rows) else EXIT_COUNTEREXAMPLES
    return rows, code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        lo, hi = parse_range(args.n)
        args.n = range(lo, hi + 1)
        if "trials" in args and args.trials < 1:
            raise ValueError("trials must be >= 1")
        if "threads" in args and args.threads < 1:
            raise ValueError("threads must be >= 1")
        if "cache_dir" in args and args.cache_dir is None:
            args.cache_dir = _default_cache_dir()
        rows, code = args.handler(args)
        _emit(args, rows)
        return code
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
