"""Append-only on-disk store for computed results.

Each record kind gets its own line-delimited log file under a root
directory.  Records are self-describing JSON objects carrying a schema
version, and integers that may exceed the double-precision range
(orders, permutation counts, RNG seeds) are stored as decimal strings so
every value survives a round trip byte for byte.

Crash tolerance is deliberately minimal: a write interrupted mid-line
leaves a torn final record, which ``load`` (and ``append``) repair by
truncating the file back to the last complete record and logging a
warning.  Damage anywhere earlier in a log is not self-healing and
raises ``StoreError`` instead, as do foreign schemas and failed file
I/O.  Scan state is checkpointed through an atomic write-then-rename so
a checkpoint is either the old state or the new one, never a mix.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

from .asymptotics import VerificationReport
from .exactdist import ModeResult, OrderPmf
from .numtheory import ForcingSet
from .sampler import EstimateRecord

__all__ = [
    "KINDS",
    "SCHEMA_VERSION",
    "ResultRecord",
    "ResultStore",
    "SchemaVersionError",
    "StoreError",
    "estimate_store_record",
    "forcing_record",
    "frac_str",
    "mode_record",
    "parse_frac",
    "parse_record_line",
    "pmf_records",
    "residual_record",
    "serialize_record",
    "verification_record",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

KINDS = (
    "pmf_entry",
    "mode",
    "kn",
    "verification",
    "estimate",
    "eta_residual",
)

_CHECKPOINT_NAME = "checkpoint.json"


class StoreError(ValueError):
    """The on-disk store is damaged, foreign or cannot be read or written."""


class SchemaVersionError(StoreError):
    """A stored record or checkpoint declares an unsupported schema."""


def frac_str(value: Fraction) -> str:
    """Render a rational as ``numerator/denominator``, always with the slash."""
    return f"{value.numerator}/{value.denominator}"


def parse_frac(text: str) -> Fraction:
    """Inverse of :func:`frac_str`."""
    return Fraction(text)


@dataclass(frozen=True)
class ResultRecord:
    """One stored result: a kind tag, the size ``n`` it concerns, a payload."""

    schema_version: int
    kind: str
    n: int
    payload: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")


def serialize_record(record: ResultRecord) -> str:
    """One canonical JSON line (sorted keys, no whitespace, no newline)."""
    obj = {
        "schema_version": record.schema_version,
        "kind": record.kind,
        "n": record.n,
        "payload": record.payload,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_record_line(line: str) -> ResultRecord:
    obj = json.loads(line)
    version = obj["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record has schema_version {version}, this build reads {SCHEMA_VERSION}"
        )
    return ResultRecord(
        schema_version=version, kind=obj["kind"], n=obj["n"], payload=obj["payload"]
    )


def _jsonify(value: Any) -> Any:
    """Map arbitrary result values onto JSON-safe ones.

    Fractions become ``p/q`` strings; integers outside the exact-double
    range become decimal strings; containers convert recursively.
    """
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value if -(2**53) < value < 2**53 else str(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, Sequence):
        return [_jsonify(v) for v in value]
    raise TypeError(f"cannot store value of type {type(value).__name__}")


def mode_record(result: ModeResult) -> ResultRecord:
    payload = {
        "argmax": [str(m) for m in result.argmax],
        "max_count": str(result.max_count),
        "max_prob": frac_str(result.max_prob),
    }
    return ResultRecord(SCHEMA_VERSION, "mode", result.n, payload)


def pmf_records(pmf: OrderPmf) -> list[ResultRecord]:
    """One record per order value, counts as exact decimal strings."""
    return [
        ResultRecord(
            SCHEMA_VERSION,
            "pmf_entry",
            pmf.n,
            {"m": str(m), "count": str(count)},
        )
        for m, count in sorted(pmf.entries.items())
    ]


def forcing_record(forcing: ForcingSet) -> ResultRecord:
    payload = {"members": list(forcing.members), "max_k": forcing.max_k}
    return ResultRecord(SCHEMA_VERSION, "kn", forcing.n, payload)


def verification_record(report: VerificationReport) -> ResultRecord:
    payload = {
        "claim": report.claim,
        "holds": report.holds,
        "witnesses": [str(w) for w in report.witnesses],
        "details": _jsonify(report.details) if report.details is not None else None,
    }
    return ResultRecord(SCHEMA_VERSION, "verification", report.n, payload)


def estimate_store_record(estimate: EstimateRecord) -> ResultRecord:
    payload = {
        "target": estimate.target,
        "trials": estimate.trials,
        "hits": estimate.hits,
        "estimate": estimate.estimate,
        "std_err": estimate.std_err,
        "seed": str(estimate.seed),
    }
    return ResultRecord(SCHEMA_VERSION, "estimate", estimate.n, payload)


def residual_record(
    n: int, k: int, exact: Fraction, predicted: Fraction
) -> ResultRecord:
    payload = {
        "k": k,
        "exact": frac_str(exact),
        "predicted": frac_str(predicted),
        "residual": frac_str(abs(exact - predicted)),
    }
    return ResultRecord(SCHEMA_VERSION, "eta_residual", n, payload)


def _os_errors_as_store_errors(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except OSError as exc:
            raise StoreError(f"{self.root}: {exc}") from exc

    return wrapper


class ResultStore:
    """Filesystem-backed store rooted at one directory, one log per kind."""

    @_os_errors_as_store_errors
    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _log_path(self, kind: str) -> Path:
        if kind not in KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        return self.root / f"{kind}.jsonl"

    def _repair_torn_tail(self, path: Path) -> list[str]:
        """Return the complete lines of a log, truncating any torn tail.

        A log is damaged-but-recoverable only in its final line (a write
        that died partway).  Unparseable lines earlier in the file mean
        external damage and raise.
        """
        if not path.exists():
            return []
        raw = path.read_bytes()
        keep = len(raw)
        if raw and not raw.endswith(b"\n"):
            keep = raw.rfind(b"\n") + 1
            logger.warning(
                "%s: discarding torn trailing record (%d bytes)",
                path.name,
                len(raw) - keep,
            )
        lines = raw[:keep].decode("utf-8").splitlines()
        if lines:
            try:
                json.loads(lines[-1])
            except json.JSONDecodeError:
                last = lines.pop()
                keep -= len(last.encode("utf-8")) + 1
                logger.warning(
                    "%s: discarding unparseable trailing record", path.name
                )
        for line in lines[:-1] if lines else []:
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"{path.name}: corrupt record before the final line; "
                    "refusing to repair automatically"
                ) from exc
        if keep != len(raw):
            with path.open("r+b") as fh:
                fh.truncate(keep)
        return lines

    @_os_errors_as_store_errors
    def append(self, record: ResultRecord) -> None:
        if record.schema_version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"cannot append schema_version {record.schema_version}; "
                f"this build writes {SCHEMA_VERSION}"
            )
        path = self._log_path(record.kind)
        self._repair_torn_tail(path)
        with path.open("ab") as fh:
            fh.write(serialize_record(record).encode("utf-8") + b"\n")

    @_os_errors_as_store_errors
    def load(
        self, kind: str, lo: int | None = None, hi: int | None = None
    ) -> list[ResultRecord]:
        """All records of ``kind`` with ``lo <= n <= hi``, sorted by ``n``.

        The sort is stable: records sharing an ``n`` keep write order.
        """
        path = self._log_path(kind)
        records = []
        for line in self._repair_torn_tail(path):
            try:
                record = parse_record_line(line)
            except StoreError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"{path.name}: malformed record {line[:60]!r}") from exc
            if record.kind != kind:
                raise StoreError(
                    f"{path.name}: found record of kind {record.kind!r}"
                )
            if lo is not None and record.n < lo:
                continue
            if hi is not None and record.n > hi:
                continue
            records.append(record)
        records.sort(key=lambda r: r.n)
        return records

    @_os_errors_as_store_errors
    def checkpoint(self, state: Mapping[str, Any]) -> None:
        """Atomically persist scan state (write temp file, then rename)."""
        obj = {"schema_version": SCHEMA_VERSION, "state": _jsonify(state)}
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, self.root / _CHECKPOINT_NAME)
        except BaseException:
            os.unlink(tmp_name)
            raise

    @_os_errors_as_store_errors
    def resume(self) -> dict[str, Any] | None:
        """The last checkpointed state, or None if absent or unreadable."""
        path = self.root / _CHECKPOINT_NAME
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            logger.warning("%s: unreadable checkpoint ignored", path.name)
            return None
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"checkpoint has schema_version {version}, "
                f"this build reads {SCHEMA_VERSION}"
            )
        return obj["state"]
