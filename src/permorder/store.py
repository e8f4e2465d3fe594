"""Append-only on-disk log of claim verdicts.

The store keeps one line-delimited log, ``verification.jsonl``, under a
root directory; ``scan-counterexamples`` reads it to skip every n it has
already decided, so the log itself is the scan's resume state.  Records
are self-describing JSON objects carrying a kind tag and a schema
version, and integers that may exceed the double-precision range are
stored as decimal strings so every value survives a round trip byte for
byte.

Crash tolerance is deliberately minimal: a write interrupted mid-line
leaves a torn final record, which ``load`` repairs by truncating the file
back to the last complete record and logging a warning.  ``append`` reads
only the log's last byte and runs the same repair when that byte does not
end a line, so each append costs the same however long the log is.
Damage anywhere earlier in a log is not self-healing and makes ``load``
raise ``StoreError``, as do bytes that are not UTF-8, foreign schemas,
foreign kinds and failed file I/O.  ``load`` parses each line once.
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
from typing import Any, Mapping

from .asymptotics import VerificationReport

__all__ = [
    "KIND",
    "SCHEMA_VERSION",
    "ResultRecord",
    "ResultStore",
    "SchemaVersionError",
    "StoreError",
    "frac_str",
    "jsonify",
    "parse_frac",
    "parse_record_line",
    "serialize_record",
    "verification_record",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

KIND = "verification"

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
    """One stored verdict: the kind tag, the size ``n`` it concerns, a payload."""

    schema_version: int
    kind: str
    n: int
    payload: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.kind != KIND:
            raise ValueError(f"unknown record kind {self.kind!r}")
        if type(self.n) is not int:
            raise TypeError(f"n must be an int, got {self.n!r}")
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
    return _record_from_json(json.loads(line))


def _record_from_json(obj: Any) -> ResultRecord:
    version = obj["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"record has schema_version {version}, this build reads {SCHEMA_VERSION}"
        )
    return ResultRecord(
        schema_version=version, kind=obj["kind"], n=obj["n"], payload=obj["payload"]
    )


def jsonify(value: Any) -> Any:
    """Map result values onto JSON-safe ones, for the store and the CLI.

    Fractions become ``p/q`` strings; integers outside the exact-double
    range become decimal strings; dicts, lists and tuples convert
    recursively.  Concrete container types, not the ``Mapping`` and
    ``Sequence`` ABCs, keep large CLI documents cheap to encode.
    """

    # The recursion stays inside one call, so bench/tracing.py, which wraps
    # module-level functions, records one span per document, not per value.
    def convert(value: Any) -> Any:
        if isinstance(value, (str, float, bool)) or value is None:
            return value
        if isinstance(value, int):
            return value if -(2**53) < value < 2**53 else str(value)
        if isinstance(value, Fraction):
            return frac_str(value)
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        raise TypeError(f"cannot store value of type {type(value).__name__}")

    return convert(value)


def verification_record(report: VerificationReport) -> ResultRecord:
    payload = {
        "claim": report.claim,
        "holds": report.holds,
        "witnesses": [str(w) for w in report.witnesses],
        "details": jsonify(report.details),
    }
    return ResultRecord(SCHEMA_VERSION, KIND, report.n, payload)


def _os_errors_as_store_errors(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except OSError as exc:
            raise StoreError(f"{self.root}: {exc}") from exc

    return wrapper


class ResultStore:
    """Filesystem-backed verdict log rooted at one directory."""

    @_os_errors_as_store_errors
    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._log = self.root / f"{KIND}.jsonl"

    def _repair_torn_tail(self) -> list[tuple[str, Any]]:
        """Return each complete line of the log with its parsed JSON.

        A log is damaged-but-recoverable only in its final line (a write
        that died partway), which is truncated away.  Bytes that are not
        UTF-8 (the store writes only ASCII) or unparseable lines earlier
        in the file mean external damage and raise.
        """
        path = self._log
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
        try:
            # "\n" only: str.splitlines also breaks on "\r", "\x1c", ...,
            # which would desynchronise the byte offsets below.
            lines = raw[:keep].decode("utf-8").split("\n")[:-1]
        except UnicodeDecodeError as exc:
            raise StoreError(f"{path.name}: not UTF-8 text ({exc})") from exc
        parsed = []
        for i, line in enumerate(lines):
            try:
                parsed.append((line, json.loads(line)))
            except json.JSONDecodeError as exc:
                if i < len(lines) - 1:
                    raise StoreError(
                        f"{path.name}: corrupt record before the final line; "
                        "refusing to repair automatically"
                    ) from exc
                keep -= len(line.encode("utf-8")) + 1
                logger.warning(
                    "%s: discarding unparseable trailing record", path.name
                )
        if keep != len(raw):
            with path.open("r+b") as fh:
                fh.truncate(keep)
        return parsed

    def _ends_cleanly(self) -> bool:
        """True if the log is absent, empty, or its last byte ends a line."""
        try:
            with self._log.open("rb") as fh:
                end = fh.seek(0, os.SEEK_END)
                if end == 0:
                    return True
                fh.seek(end - 1)
                return fh.read(1) == b"\n"
        except FileNotFoundError:
            return True

    @_os_errors_as_store_errors
    def append(self, record: ResultRecord) -> None:
        """Add one record at the end of the log.

        Only the log's last byte is read; a log that does not end in a
        newline was left torn by a crashed writer and is repaired first.
        """
        if record.schema_version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"cannot append schema_version {record.schema_version}; "
                f"this build writes {SCHEMA_VERSION}"
            )
        if not self._ends_cleanly():
            self._repair_torn_tail()
        with self._log.open("ab") as fh:
            fh.write(serialize_record(record).encode("utf-8") + b"\n")

    @_os_errors_as_store_errors
    def load(self, lo: int | None = None, hi: int | None = None) -> list[ResultRecord]:
        """All records with ``lo <= n <= hi``, sorted by ``n``.

        The sort is stable: records sharing an ``n`` keep write order.
        """
        name = self._log.name
        records = []
        for line, obj in self._repair_torn_tail():
            try:
                record = _record_from_json(obj)
            except StoreError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(
                    f"{name}: malformed record {line[:60]!r} ({exc})"
                ) from exc
            if lo is not None and record.n < lo:
                continue
            if hi is not None and record.n > hi:
                continue
            records.append(record)
        records.sort(key=lambda r: r.n)
        return records

    # Nothing in the package writes or reads a checkpoint; the two methods
    # stay only because bench/tracing.py wraps them by name.
    @_os_errors_as_store_errors
    def checkpoint(self, state: Mapping[str, Any]) -> None:
        """Atomically persist scan state (write temp file, then rename)."""
        obj = {"schema_version": SCHEMA_VERSION, "state": jsonify(state)}
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
