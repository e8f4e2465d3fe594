"""Independent oracles used by the test suite.

Everything here is written from first principles with stdlib only and does
not import the package under test, so a bug in the package cannot hide
behind a shared helper. These are deliberately naive: exhaustive
enumeration, definition-level recomputation, textbook recurrences.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations


# Result-store lines byte for byte as the first release of the store wrote
# them (``scan-counterexamples --n 5..6``); existing cache dirs hold these.
STORED_VERDICT_LINES = (
    '{"kind":"verification","n":5,"payload":{"claim":"thm_1_2_mode",'
    '"details":{"expected":4,"max_count":30},"holds":true,"witnesses":[]},'
    '"schema_version":1}',
    '{"kind":"verification","n":6,"payload":{"claim":"thm_1_2_mode",'
    '"details":{"expected":4,"max_count":240},"holds":false,"witnesses":["6"]},'
    '"schema_version":1}',
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
