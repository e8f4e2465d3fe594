"""The benchmark's workloads: the argv of every op, and the oracle for each.

An op is one call of ``permorder.cli.main(argv)``.  Op lists are a pure
function of (workload, seed, work directory), so the pass that runs them and
the parent that checks their outputs build the same list independently.

Oracles run after a pass, outside its timed region.  They judge each op's
exit code and stdout from known facts (the published counterexample set of
the mode-location claim), from definition-level recomputation written here
(support sets, forcing offsets, the second-order term, partition numbers),
and from the program's inclusion-exclusion route
``count_order_exactly_mobius``, which shares no code with the lattice DP,
the partition scan or the float pre-filter that the ops time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 3

# n in 2..60 where the most likely order is not n - max(forcing offsets).
FRONTIER_MAX_N = 60
FRONTIER_FAILS = frozenset(
    {2, 6, 10, 12, 17, 18, 22, 23, 24, 25, 26, 27, 28, 29, 30,
     34, 35, 36, 42, 43, 44, 46, 47, 48, 54, 60}
)
PMF_NS = tuple(range(40, 61, 2))
TAIL_EPS = Fraction(1, 10)
POINTS_PAIRS = 50
POINTS_N_RANGE = (200, 800)
POINTS_TRIALS = 10_000
POINTS_WINDOW = 12
POINTS_MAX_SE = 6  # sampled estimate must lie within this many standard errors


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its oracle needs to know about it."""

    kind: str
    argv: tuple[str, ...]
    n: int
    k: int = 0
    seed: int = 0


# ---------------------------------------------------------------------------
# definition-level number theory, independent of the package


def forcing_offsets(n: int) -> list[int]:
    """k in [0, n) with lcm(1..k) dividing n - k."""
    out = []
    ell = 1
    for k in range(n):
        ell = math.lcm(ell, k) if k else 1
        if ell > n:
            break
        if (n - k) % ell == 0:
            out.append(k)
    return out


def offsets_dividing(m: int) -> list[int]:
    """k >= 0 with lcm(1..k) | m, i.e. the k that are forcing offsets of m + k.

    lcm(1..k) only grows with k, so these k run from 0 up to the first miss.
    """
    out, ell = [0], 1
    while m % (ell := math.lcm(ell, len(out))) == 0:
        out.append(len(out))
    return out


def prime_factors(m: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of m by trial division."""
    out = []
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def support(n: int) -> frozenset[int]:
    """Achievable orders: m whose maximal prime-power parts sum to <= n."""
    primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    out = set()

    def walk(i: int, budget: int, value: int) -> None:
        out.add(value)
        for j in range(i, len(primes)):
            q = primes[j]
            if q > budget:
                break
            while q <= budget:
                walk(j + 1, budget - q, value * q)
                q *= primes[j]

    walk(0, n, 1)
    return frozenset(out)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n), the number of partitions of n (= cycle types in S_n)."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def second_order_term(n: int, k: int) -> Fraction:
    """The paper's dyadic correction to P(ord = n-k) ~ 1/(n-k)."""
    if k < 2:
        return Fraction(0)
    b = k.bit_length() - 1
    if (n - k) % (2 ** (b + 1)) == 0:
        return Fraction(0)
    return Fraction(2, 2**b * (n - k) ** 2)


# ---------------------------------------------------------------------------
# op lists


def frontier_ops(seed: int, work: Path) -> list[Op]:
    cache = str(work / "cache")
    common = ("--cache-dir", cache, "--format", "json", "--threads", "1")
    ops = [
        Op("scan", ("scan-counterexamples", "--n", str(n), *common), n)
        for n in range(2, FRONTIER_MAX_N + 1)
    ]
    ops.append(Op("scan_warm",
                  ("scan-counterexamples", "--n", f"2..{FRONTIER_MAX_N}", *common),
                  FRONTIER_MAX_N))
    return ops


def pmf_ops(seed: int, work: Path) -> list[Op]:
    ops = []
    for n in PMF_NS:
        N = str(n)
        ops += [
            Op("pmf", ("pmf", "--n", N, "--format", "json"), n),
            Op("collision", ("collision", "--n", N, "--format", "json"), n),
            Op("thm11", ("verify", "thm11", "--n", N, "--format", "json",
                         "--threads", "1"), n),
            Op("tail", ("tail-max", "--n", N, "--eps", str(TAIL_EPS),
                        "--format", "json"), n),
        ]
    return ops


def signature(m: int) -> tuple[int, ...]:
    """Sorted prime exponents of m: numbers sharing it have alike divisor lattices."""
    return tuple(sorted(e for _, e in prime_factors(m)))


def points_ops(seed: int, work: Path) -> list[Op]:
    """POINTS_PAIRS seeded (n, k) pairs, each followed by a seeded sample.

    The cost of a point query swings by three orders of magnitude with the
    divisor structure of m = n - k, so independent draws would make the
    pass time a property of the seed.  Instead pair i is drawn from its own
    slot: m is a seeded choice among the numbers within POINTS_WINDOW of the
    slot's centre that share the centre's prime signature, and k a seeded
    forcing offset with lcm(1..k) | m, so n = m + k.
    """
    rng = random.Random(seed)
    lo, hi = POINTS_N_RANGE
    width = (hi - lo) / POINTS_PAIRS
    ops = []
    for i in range(POINTS_PAIRS):
        centre = lo + int((i + 0.5) * width)
        shape = signature(centre)
        m = rng.choice([
            c for c in range(max(lo, centre - POINTS_WINDOW), centre + POINTS_WINDOW + 1)
            if signature(c) == shape and c < hi
        ])
        k = rng.choice(offsets_dividing(m))
        n = m + k
        s = rng.getrandbits(32)
        N = str(n)
        ops += [
            Op("eta", ("eta-check", "--n", N, "--k", str(k), "--format", "json"), n, k),
            Op("sample", ("sample", "p", "--n", N, "--m", str(m),
                          "--trials", str(POINTS_TRIALS), "--seed", str(s),
                          "--threads", "1", "--format", "json"), n, k, s),
        ]
    return ops


# ---------------------------------------------------------------------------
# oracles


class Oracle:
    """Judges one pass's outputs.  Reference values are memoized, so one
    instance checks every pass of a run for the cost of one."""

    def __init__(self, workload: str) -> None:
        from permorder.exactdist import count_order_exactly_mobius
        from permorder.numtheory import FactoredInt

        self.workload = workload
        self._mobius = count_order_exactly_mobius
        self._factored = FactoredInt
        self._counts: dict[tuple[int, int], int] = {}

    def count(self, n: int, m: int) -> int:
        """#{pi in S_n : ord(pi) = m}, by inclusion-exclusion."""
        key = (n, m)
        if key not in self._counts:
            f = self._factored(m, prime_factors(m))
            self._counts[key] = self._mobius(n, f)
        return self._counts[key]

    def check(self, ops: list[Op], outcomes: list[dict[str, Any]],
              work: Path) -> list[str | None]:
        """One entry per op: None if the op is correct, else the reason."""
        check_op: Callable[..., None] = getattr(self, f"_check_{self.workload}")
        state: dict[str, Any] = {"work": work}
        verdicts = []
        for op, out in zip(ops, outcomes, strict=True):
            try:
                if out.get("error"):
                    raise Mismatch(f"raised {out['error']}")
                check_op(op, out["code"], out["stdout"], state)
            except (Mismatch, ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts.append(f"{' '.join(op.argv[:3])}: {type(exc).__name__}: {exc}")
            else:
                verdicts.append(None)
        return verdicts

    # -- frontier ----------------------------------------------------------

    def _scan_row(self, row: dict[str, Any]) -> None:
        n = row["n"]
        expected = n - forcing_offsets(n)[-1]
        expect(row["expected"] == expected, f"n={n}: expected {row['expected']}")
        expect(row["holds"] == (n not in FRONTIER_FAILS), f"n={n}: wrong verdict")
        witnesses = row["witnesses"]
        if row["holds"]:
            expect(witnesses == [], f"n={n}: witnesses on a holding n")
            return
        expect(bool(witnesses) and witnesses != [expected],
               f"n={n}: witnesses {witnesses}")
        expect(witnesses == sorted(set(witnesses)), f"n={n}: witnesses unsorted")
        counts = {self.count(n, w) for w in witnesses}
        expect(len(counts) == 1, f"n={n}: tied witnesses differ in count")
        expect(counts.pop() >= self.count(n, expected),
               f"n={n}: witness count below the count at expected")

    def _check_frontier(self, op: Op, code: int, stdout: str, state: dict) -> None:
        doc = json.loads(stdout)
        expect(doc["command"] == "scan-counterexamples", "wrong command echoed")
        rows = doc["rows"]
        if op.kind == "scan":
            want = EXIT_COUNTEREXAMPLES if op.n in FRONTIER_FAILS else EXIT_OK
            expect(code == want, f"exit code {code}")
            expect([r["n"] for r in rows] == [op.n], "rows do not match --n")
            self._scan_row(rows[0])
            return
        expect(code == EXIT_COUNTEREXAMPLES, f"exit code {code}")
        expect([r["n"] for r in rows] == list(range(2, FRONTIER_MAX_N + 1)),
               "rows do not cover 2..60")
        for row in rows:
            self._scan_row(row)
        records = sum(
            1
            for log in (state["work"] / "cache").glob("*.jsonl")
            for line in log.read_text(encoding="utf-8").splitlines()
            if line.strip()
        )
        expect(records == FRONTIER_MAX_N - 1, f"store holds {records} records")

    # -- pmf ---------------------------------------------------------------

    def _check_pmf(self, op: Op, code: int, stdout: str, state: dict) -> None:
        n = op.n
        fact = math.factorial(n)
        if op.kind != "thm11":
            expect(code == EXIT_OK, f"exit code {code}")
        rows = json.loads(stdout)["rows"]
        if op.kind == "pmf":
            state.pop(n, None)
            entries = {int(r["m"]): int(r["count"]) for r in rows}
            expect(len(entries) == len(rows), "repeated order")
            expect(set(entries) == support(n), "keys differ from support(n)")
            expect(sum(entries.values()) == fact, "counts do not sum to n!")
            for r in rows:
                expect(Fraction(r["prob"]) == Fraction(int(r["count"]), fact),
                       f"prob of m={r['m']}")
            for m in (n, n - forcing_offsets(n)[-1], max(entries, key=entries.get)):
                expect(entries[m] == self.count(n, m), f"count of m={m}")
            state[n] = entries
            return
        entries = state[n]  # KeyError when the pmf op of this n failed
        (row,) = rows
        expect(row["n"] == n, "wrong n")
        if op.kind == "collision":
            norm = Fraction(sum(c * c for c in entries.values()), fact * fact)
            expect(Fraction(row["norm"]) == norm, "collision norm")
            expect(Fraction(row["scaled"]) == norm * n * n, "scaled norm")
        elif op.kind == "thm11":
            offsets = set(forcing_offsets(n))
            qualifying = sorted(m for m, c in entries.items() if n * c >= fact)
            witnesses = [m for m in qualifying if n - m not in offsets]
            expect(row["witnesses"] == witnesses, "thm11 witnesses")
            expect(row["holds"] == (not witnesses), "thm11 verdict")
            want = EXIT_COUNTEREXAMPLES if witnesses else EXIT_OK
            expect(code == want, f"exit code {code}")
        else:
            p, q = TAIL_EPS.numerator, TAIL_EPS.denominator
            tail = [(c, -m) for m, c in entries.items() if m**q >= n ** (p + q)]
            expect(Fraction(row["eps"]) == TAIL_EPS, "eps not echoed")
            if not tail:
                expect(row["m"] is None and row["prob"] is None, "empty tail")
            else:
                c, neg_m = max(tail)
                expect(row["m"] == -neg_m, f"tail argmax {row['m']}")
                expect(Fraction(row["prob"]) == Fraction(c, fact), "tail prob")

    # -- points ------------------------------------------------------------

    def _check_points(self, op: Op, code: int, stdout: str, state: dict) -> None:
        n, k = op.n, op.k
        expect(code == EXIT_OK, f"exit code {code}")
        (row,) = json.loads(stdout)["rows"]
        expect(row["n"] == n, "wrong n")
        exact = Fraction(self.count(n, n - k), math.factorial(n))
        if op.kind == "eta":
            predicted = Fraction(1, n - k) + second_order_term(n, k)
            expect(row["k"] == k, "wrong k")
            expect(Fraction(row["exact"]) == exact, "exact point probability")
            expect(Fraction(row["predicted"]) == predicted, "predicted")
            expect(Fraction(row["residual"]) == abs(exact - predicted), "residual")
            return
        expect(row["target"] == f"p(n={n}, m={n - k})", "wrong target")
        expect(row["seed"] == str(op.seed), "seed not echoed")
        expect(row["trials"] == POINTS_TRIALS, "wrong trial count")
        expect(row["estimate"] == row["hits"] / POINTS_TRIALS, "estimate != hits/trials")
        p = float(exact)
        se = math.sqrt(p * (1 - p) / POINTS_TRIALS)
        expect(abs(row["estimate"] - p) <= POINTS_MAX_SE * se,
               f"estimate {row['estimate']} vs exact {p:.6g}")


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "frontier": frontier_ops,
    "pmf": pmf_ops,
    "points": points_ops,
}
