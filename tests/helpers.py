"""Independent oracles used by the test suite.

Everything here is written from first principles with stdlib only and does
not import the package under test, so a bug in the package cannot hide
behind a shared helper. These are deliberately naive: exhaustive
enumeration, definition-level recomputation, textbook recurrences.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations


# Result-store lines byte for byte as earlier releases of the store wrote
# them; existing cache dirs hold these.  The first two are
# ``scan-counterexamples --n 5..6``; the last two are the verdicts of
# `verify_near_max_form(12)` (two witnesses) and `verify_gap_inequality(12)`
# (Fractions in its details).  They are in n order, so a load returns them
# in this order.
STORED_VERDICT_LINES = (
    '{"kind":"verification","n":5,"payload":{"claim":"thm_1_2_mode",'
    '"details":{"expected":4,"max_count":30},"holds":true,"witnesses":[]},'
    '"schema_version":1}',
    '{"kind":"verification","n":6,"payload":{"claim":"thm_1_2_mode",'
    '"details":{"expected":4,"max_count":240},"holds":false,"witnesses":["6"]},'
    '"schema_version":1}',
    '{"kind":"verification","n":12,"payload":{"claim":"thm_1_1_form",'
    '"details":{"qualifying":[6,8,10,11,12]},"holds":false,"witnesses":["6","8"]},'
    '"schema_version":1}',
    '{"kind":"verification","n":12,"payload":{"claim":"final_inequality",'
    '"details":{"checks":[{"divisible":true,"holds":true,"k":0,"lhs":"2/75",'
    '"rhs":"1/144"},{"divisible":true,"holds":true,"k":1,"lhs":"21/1100",'
    '"rhs":"1/121"}],"k0":2},"holds":true,"witnesses":[]},"schema_version":1}',
)

def partitions(n: int, max_part: int | None = None):
    """Yield every partition of n as a descending tuple of parts."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def cycle_type_count(n: int, parts: tuple[int, ...]) -> int:
    """Number of permutations of [n] with the given multiset of cycle lengths."""
    denom = 1
    mult: dict[int, int] = {}
    for j in parts:
        mult[j] = mult.get(j, 0) + 1
    for j, c in mult.items():
        denom *= j**c * math.factorial(c)
    return math.factorial(n) // denom


def lcm_of(parts) -> int:
    out = 1
    for j in parts:
        out = math.lcm(out, j)
    return out


@lru_cache(maxsize=None)
def pmf_by_partitions(n: int) -> dict[int, int]:
    """Order pmf counts via exhaustive partition enumeration."""
    out: dict[int, int] = {}
    for parts in partitions(n):
        m = lcm_of(parts)
        out[m] = out.get(m, 0) + cycle_type_count(n, parts)
    return out


def perm_cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        ln = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        lengths.append(ln)
    return lengths


@lru_cache(maxsize=None)
def joint_counts(n: int) -> dict[tuple[int, int], int]:
    """(number of cycles, order) -> count, by enumerating all n! permutations."""
    out: dict[tuple[int, int], int] = {}
    for perm in permutations(range(n)):
        lengths = perm_cycle_lengths(perm)
        key = (len(lengths), lcm_of(lengths))
        out[key] = out.get(key, 0) + 1
    return out


@lru_cache(maxsize=None)
def pmf_by_enumeration(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for (_, order), c in joint_counts(n).items():
        out[order] = out.get(order, 0) + c
    return out


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind via the usual recurrence."""
    row = [1]  # n = 0
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for j in range(m + 1):
            if j >= 1:
                new[j] += row[j - 1] if j - 1 < len(row) else 0
            if j < len(row):
                new[j] += (m - 1) * row[j]
        row = new
    return row[k] if 0 <= k < len(row) else 0


def forcing_members_by_definition(n: int) -> list[int]:
    """k in [0, n) with lcm(1..k) | n-k, lcm of the empty range being 1."""
    members = []
    ell = 1
    for k in range(n):
        if k >= 2:
            ell = math.lcm(ell, k)
        if (n - k) % ell == 0:
            members.append(k)
    return members


def landau_by_partitions(n: int) -> int:
    return max(lcm_of(parts) for parts in partitions(n))


def restricted_joint_counts(n: int, allowed: frozenset[int]) -> dict[int, int]:
    """cycles -> count over permutations whose cycle lengths all lie in allowed."""
    out: dict[int, int] = {}
    for parts in partitions(n):
        if all(j in allowed for j in parts):
            c = len(parts)
            out[c] = out.get(c, 0) + cycle_type_count(n, parts)
    return out


def exact_prob(count: int, n: int) -> Fraction:
    return Fraction(count, math.factorial(n))


def cycle_lengths_by_randrange(n: int, rng) -> list[int]:
    """Cycle lengths of one descending-chain draw, using plain ``randrange``.

    The reference stream: X_0 = n, X_{j+1} = rng.randrange(X_j), and each
    step's difference is one cycle length.
    """
    lengths = []
    x = n
    while x:
        nxt = rng.randrange(x)
        lengths.append(x - nxt)
        x = nxt
    return lengths


def chain_ends_at_order(n: int, m: int, rng) -> bool:
    """One stream-2 trial: does the chain from n, drawn with ``randrange``,
    have order m?

    The chain X_0 = n, X_{j+1} = rng.randrange(X_j) is drawn only until
    the answer is known: up to the first cycle length that does not divide
    m (no), or to its end (yes iff the lcm of the lengths is m).
    """
    lengths = []
    x = n
    while x:
        nxt = rng.randrange(x)
        if m % (x - nxt):
            return False
        lengths.append(x - nxt)
        x = nxt
    return lcm_of(lengths) == m


def order_hits_by_randrange(n: int, m: int, plan) -> int:
    """Stream-2 trials whose order, lcm of the cycle lengths, equals m.

    ``plan`` is a list of (seed, trials) chunks; each chunk draws its trials
    one after another from its own ``random.Random(seed)`` with
    `chain_ends_at_order`.
    """
    hits = 0
    for seed, count in plan:
        rng = random.Random(seed)
        for _ in range(count):
            hits += chain_ends_at_order(n, m, rng)
    return hits


def collision_hits_by_randrange(n: int, plan) -> int:
    """Stream-2 trials in which two chains from n have the same order.

    Each trial draws a whole first chain with `cycle_lengths_by_randrange`,
    then a second one with `chain_ends_at_order` for the first one's order,
    from the chunk's one ``random.Random(seed)``.
    """
    hits = 0
    for seed, count in plan:
        rng = random.Random(seed)
        for _ in range(count):
            first = lcm_of(cycle_lengths_by_randrange(n, rng))
            hits += chain_ends_at_order(n, first, rng)
    return hits


def lattice_counts_by_falling_factorials(n: int, m: int) -> dict[int, int]:
    """d -> #{pi in S_n : ord(pi) = d} for every divisor d of m, zeros omitted.

    The textbook cycle peeling: the cycle through the largest of nu labels
    has some length j | m and (nu-1)(nu-2)...(nu-j+1) fillings, and the
    other nu-j labels carry the running lcm.
    """
    js = [j for j in range(1, min(m, n) + 1) if m % j == 0]
    rows: list[dict[int, int]] = [{1: 1}]
    for nu in range(1, n + 1):
        row: dict[int, int] = {}
        for j in js:
            if j > nu:
                break
            ff = math.perm(nu - 1, j - 1)
            for d, b in rows[nu - j].items():
                key = math.lcm(d, j)
                row[key] = row.get(key, 0) + ff * b
        rows.append(row)
    return {d: c for d, c in rows[n].items() if c}


def json_by_conversion(value, sort_keys: bool = False) -> str:
    """Result values as JSON text in two steps: convert a copy, then json.dumps.

    The copy has Fractions as "p/q" strings, integers outside the
    exact-double range as decimal strings, str()-ed dict keys and lists
    for tuples; anything else raises TypeError.
    """

    def convert(value):
        if isinstance(value, (str, float, bool)) or value is None:
            return value
        if isinstance(value, int):
            return value if -(2**53) < value < 2**53 else str(value)
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        raise TypeError(f"cannot store value of type {type(value).__name__}")

    return json.dumps(convert(value), sort_keys=sort_keys, separators=(",", ":"))


@contextlib.contextmanager
def int_str_digits(limit: int | None = None):
    """Python's int <-> str digit limit set to ``limit`` inside the block.

    0 lifts the limit and None sets the interpreter's default.  Yields the
    limit set, or None on a Python that has no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield None
        return
    before = sys.get_int_max_str_digits()
    if limit is None:
        limit = sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(before)
