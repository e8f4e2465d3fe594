"""Append-only on-disk log of claim verdicts.

The store keeps one line-delimited log, ``verification.jsonl``, under a
root directory; ``scan-counterexamples`` reads it to skip every n it has
already decided, so the log itself is the scan's resume state.
`ResultStore.append` takes a `VerificationReport` and `ResultStore.load`
returns them.  Each line is a self-describing JSON object carrying a kind
tag and a schema version, and integers that may exceed the
double-precision range are stored as decimal strings so every value
survives a round trip byte for byte.

This module alone knows the verdict payload: `_verdict_line` writes a
report as one line and `_verdict_report` reads it back, rejecting with
``StoreError`` anything the writer could not have produced.

`to_json` is the package's one JSON encoder.  It writes the verdict
lines and the checkpoint with sorted keys, and the CLI's JSON documents
in row order.  It walks the value once and writes the text directly,
with no converted copy of the value in between.

Crash tolerance is deliberately minimal: a write interrupted mid-line
leaves a torn final record, which ``load`` repairs by truncating the file
back to the last complete record and logging a warning.  ``append`` reads
only the log's last byte and runs the same repair when that byte does not
end a line, so each append costs the same however long the log is.
Damage anywhere earlier in a log is not self-healing and makes ``load``
raise ``StoreError``, as do bytes that are not UTF-8, foreign schemas,
foreign kinds and failed file I/O.  ``load`` parses each line once.

Processes that share a store take turns: ``append`` holds an exclusive
advisory ``fcntl.flock`` on the log for its tail check, repair and write,
and ``load`` holds the same lock while it reads and repairs, so no
process truncates a line that another is still writing.  Where the
platform has no ``fcntl``, the store works unlocked, for one process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import math
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Mapping

from .asymptotics import CLAIM_MODE_LOCATION, VerificationReport

try:
    import fcntl
except ImportError:  # not on every platform; the store then runs unlocked
    fcntl = None

__all__ = [
    "KIND",
    "SCHEMA_VERSION",
    "ResultStore",
    "SchemaVersionError",
    "StoreError",
    "frac_str",
    "to_json",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

KIND = "verification"

_CHECKPOINT_NAME = "checkpoint.json"

# The largest integer below which a double holds every integer; JSON
# readers that parse numbers as doubles read larger ones inexactly.
_JSON_INT_MAX = 2**53 - 1


class StoreError(ValueError):
    """The on-disk store is damaged, foreign or cannot be read or written."""


class SchemaVersionError(StoreError):
    """A stored record or checkpoint declares an unsupported schema."""


def frac_str(value: Fraction) -> str:
    """Render a rational as ``numerator/denominator``, always with the slash."""
    return f"{value.numerator}/{value.denominator}"


def to_json(value: Any, *, sort_keys: bool = False) -> str:
    """The compact JSON text of a result value, in one walk over it.

    Fractions are written as ``"p/q"`` strings and integers outside
    +-(2**53 - 1) as decimal strings, so that every value survives a
    round trip exactly; dict keys are ``str()``-ed; dicts, lists and
    tuples are written recursively, and any other type raises
    ``TypeError``.  Strings are escaped to ASCII.  The text is byte for
    byte what ``json.dumps`` with ``separators=(",", ":")`` and the given
    ``sort_keys`` writes for the value with those conversions made.  The
    exact types of result rows take the first branches; other values,
    subclasses among them, follow the same rules through ``isinstance``.
    Each distinct key is quoted once per call.
    """
    keys: dict[str, str] = {}

    # The recursion stays inside one call, so bench/tracing.py, which wraps
    # module-level functions, records one span per document, not per value.
    def members(pairs: Any, str_ed: bool) -> str | None:
        out = []
        for k, x in pairs:
            if type(k) is str:
                kq = keys.get(k)
                if kq is None:
                    kq = keys[k] = _quote(k) + ":"
            elif str_ed:  # a str subclass that str() returned
                kq = _quote(k) + ":"
            else:
                return None
            out.append(kq + encode(x))
        return "{" + ",".join(out) + "}"

    def mapping(d: dict) -> str:
        if not sort_keys:
            text = members(d.items(), False)
            if text is not None:
                return text
        # Keys are str()-ed first; a key whose str() repeats an earlier
        # key's replaces that key's value in the earlier place.
        pairs = {str(k): x for k, x in d.items()}.items()
        return members(sorted(pairs) if sort_keys else pairs, True)

    def encode(v: Any) -> str:
        t = type(v)
        if t is str:
            return _quote(v)
        if t is int:
            return str(v) if -_JSON_INT_MAX <= v <= _JSON_INT_MAX else '"%d"' % v
        if t is Fraction:
            return '"%d/%d"' % (v.numerator, v.denominator)
        if t is dict:
            return mapping(v)
        if t is list or t is tuple:
            return "[" + ",".join([encode(x) for x in v]) + "]"
        if isinstance(v, str):
            return _quote(v)
        if isinstance(v, float):
            # json.dumps writes the shortest repr, or the names JavaScript
            # gives the values that have no number literal.
            if v != v:
                return "NaN"
            if math.isinf(v):
                return "Infinity" if v > 0 else "-Infinity"
            return float.__repr__(v)
        if isinstance(v, bool):
            return "true" if v else "false"
        if v is None:
            return "null"
        if isinstance(v, int):
            return int.__repr__(v) if -_JSON_INT_MAX <= v <= _JSON_INT_MAX else _quote(str(v))
        if isinstance(v, Fraction):
            return _quote(frac_str(v))
        if isinstance(v, dict):
            return mapping(v)
        if isinstance(v, (list, tuple)):
            return "[" + ",".join([encode(x) for x in v]) + "]"
        raise TypeError(f"cannot store value of type {t.__name__}")

    return encode(value)


def _check_n(n: Any) -> None:
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")


def _verdict_line(report: VerificationReport) -> str:
    """The report as one canonical JSON line: sorted keys, no spaces, no newline."""
    _check_n(report.n)
    payload = {
        "claim": report.claim,
        "holds": report.holds,
        "witnesses": [str(w) for w in report.witnesses],
        "details": report.details,
    }
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND,
        "n": report.n,
        "payload": payload,
    }
    return to_json(obj, sort_keys=True)


def _verdict_report(n: int, payload: Any) -> VerificationReport:
    """Inverse of `_verdict_line`: the report a stored verdict holds.

    ``details`` come back in their stored JSON form.  Anything
    `_verdict_line` would not have written raises `StoreError`: a
    non-bool ``holds``, a witness that is not the decimal string of a
    positive int, an unknown claim tag or witnesses that do not match
    ``holds`` (both checked by `VerificationReport`), or a mode-location
    verdict without the int ``expected`` order that
    ``scan-counterexamples`` reports.
    """
    try:
        holds = payload["holds"]
        if type(holds) is not bool:
            raise TypeError(f"holds is {holds!r}")
        witnesses = payload["witnesses"]
        if type(witnesses) is not list:
            raise TypeError(f"witnesses is {witnesses!r}")
        for w in witnesses:
            if not (type(w) is str and w.isascii() and w.isdigit() and w[0] != "0"):
                raise TypeError(f"witness is {w!r}")
        details = payload["details"]
        if payload["claim"] == CLAIM_MODE_LOCATION and type(details["expected"]) is not int:
            raise TypeError(f"expected is {details['expected']!r}")
        return VerificationReport(
            n, payload["claim"], holds, tuple(map(int, witnesses)), details
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed cached verdict for n={n} ({exc!r})") from exc


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

    @contextlib.contextmanager
    def _locked_log(self, mode: str):
        """The log opened in `mode`, under an exclusive advisory lock.

        Closing the file at the end of the block releases the lock.
        """
        with self._log.open(mode) as fh:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield fh

    def _repair_torn_tail(self) -> list[tuple[str, Any]]:
        """Return each complete line of the log with its parsed JSON.

        The caller holds the log's lock.  A log is damaged-but-recoverable
        only in its final line (a write that died partway), which is
        truncated away.  Bytes that are not UTF-8 (the store writes only
        ASCII) or unparseable lines earlier in the file mean external
        damage and raise.
        """
        path = self._log
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
        """True if the log is empty or its last byte ends a line."""
        with self._log.open("rb") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end == 0:
                return True
            fh.seek(end - 1)
            return fh.read(1) == b"\n"

    @_os_errors_as_store_errors
    def append(self, report: VerificationReport) -> None:
        """Add one verdict at the end of the log.

        Only the log's last byte is read; a log that does not end in a
        newline was left torn by a crashed writer and is repaired first.
        The log is locked from the check to the end of the write.
        """
        line = _verdict_line(report).encode("utf-8") + b"\n"
        with self._locked_log("ab") as fh:
            if not self._ends_cleanly():
                self._repair_torn_tail()
            fh.write(line)

    @_os_errors_as_store_errors
    def load(
        self, lo: int | None = None, hi: int | None = None
    ) -> list[VerificationReport]:
        """All verdicts with ``lo <= n <= hi``, sorted by ``n``.

        The sort is stable: verdicts sharing an ``n`` keep write order.
        The header of every line is checked (schema, kind, n), then the
        payload of each line in range.
        """
        name = self._log.name
        if not self._log.exists():
            return []
        with self._locked_log("rb"):
            lines = self._repair_torn_tail()
        kept = []
        for line, obj in lines:
            try:
                version = obj["schema_version"]
                if type(version) is not int or version != SCHEMA_VERSION:
                    raise SchemaVersionError(
                        f"record has schema_version {version}, "
                        f"this build reads {SCHEMA_VERSION}"
                    )
                kind, n, payload = obj["kind"], obj["n"], obj["payload"]
                if kind != KIND:
                    raise ValueError(f"unknown record kind {kind!r}")
                _check_n(n)
            except StoreError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(
                    f"{name}: malformed record {line[:60]!r} ({exc})"
                ) from exc
            if (lo is None or lo <= n) and (hi is None or n <= hi):
                kept.append((n, payload))
        kept.sort(key=lambda entry: entry[0])
        return [_verdict_report(n, payload) for n, payload in kept]

    # Nothing in the package writes or reads a checkpoint; the two methods
    # stay only because bench/tracing.py wraps them by name.
    @_os_errors_as_store_errors
    def checkpoint(self, state: Mapping[str, Any]) -> None:
        """Atomically persist scan state (write temp file, then rename)."""
        text = to_json({"schema_version": SCHEMA_VERSION, "state": state}, sort_keys=True)
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
