"""Tests for the append-only result store.

Round-trip identity is checked at the byte level, and recovery semantics
(torn trailing writes, checkpoint/resume) are exercised by direct file
surgery on a temporary store directory.
"""

from __future__ import annotations

import collections
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from permorder import store as store_module
from permorder.asymptotics import (
    CLAIM_MODE_LOCATION,
    VerificationReport,
    verify_gap_inequality,
    verify_mode_location,
    verify_near_max_form,
)
from permorder.store import (
    KIND,
    SCHEMA_VERSION,
    ResultStore,
    SchemaVersionError,
    StoreError,
    frac_str,
    to_json,
)


_json_scalars = (
    st.integers()
    | st.integers(min_value=-(2**53) - 2, max_value=-(2**53) + 2)
    | st.integers(min_value=2**53 - 2, max_value=2**53 + 2)
    | st.fractions()
    | st.text()
    | st.floats()
    | st.booleans()
    | st.none()
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3) | st.integers(-20, 20), inner, max_size=4),
    max_leaves=20,
)


def verdict(n: int, tag: str = "") -> VerificationReport:
    """A valid mode-location report whose details carry ``tag``."""
    return VerificationReport(n, CLAIM_MODE_LOCATION, True, (), {"expected": n, "tag": tag})


def verdict_line(n: int, tag: str = "") -> str:
    """The log line of ``verdict(n, tag)``, spelled out by hand."""
    return (
        f'{{"kind":"verification","n":{n},"payload":{{"claim":"thm_1_2_mode",'
        f'"details":{{"expected":{n},"tag":"{tag}"}},"holds":true,"witnesses":[]}},'
        f'"schema_version":1}}'
    )


def raw_line(n: str = "5", kind: str = '"verification"', payload: str | None = None) -> str:
    """A log line with the given JSON texts in place; the payload is valid by default."""
    if payload is None:
        payload = (
            '{"claim":"thm_1_2_mode","details":{"expected":4},"holds":true,"witnesses":[]}'
        )
    return f'{{"kind":{kind},"n":{n},"payload":{payload},"schema_version":1}}'


def write_log(root: Path, lines) -> Path:
    path = root / "verification.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def reappended(tmp_path: Path, reports) -> str:
    """The log a fresh store holds after appending ``reports`` in order."""
    store = ResultStore(tmp_path / "again")
    for report in reports:
        store.append(report)
    return (tmp_path / "again" / "verification.jsonl").read_text()


class TestFracStrings:
    def test_always_slash_form(self):
        assert frac_str(Fraction(1, 4)) == "1/4"
        assert frac_str(Fraction(3)) == "3/1"
        assert frac_str(Fraction(0)) == "0/1"
        assert frac_str(Fraction(-2, 3)) == "-2/3"

    def test_round_trip(self, tmp_path):
        fracs = [Fraction(7, 18), Fraction(0), Fraction(10**50, 3)]
        store = ResultStore(tmp_path)
        store.append(
            VerificationReport(3, CLAIM_MODE_LOCATION, True, (), {"expected": 2, "fracs": fracs})
        )
        (loaded,) = store.load()
        assert [Fraction(text) for text in loaded.details["fracs"]] == fracs


class TestToJson:
    def test_64bit_values_become_decimal_strings(self):
        assert to_json(2**63 + 11) == f'"{2**63 + 11}"'
        assert to_json(-(2**53)) == f'"{-(2**53)}"'
        assert to_json(2**53 - 1) == str(2**53 - 1)
        assert to_json(True) == "true"
        assert to_json(None) == "null"
        assert to_json(0.5) == "0.5"
        assert to_json({3: (Fraction(1, 3), [2**64])}) == f'{{"3":["1/3",["{2**64}"]]}}'
        with pytest.raises(TypeError):
            to_json(object())

    @given(value=_json_values)
    @example(value=[2**53 - 2, 2**53 - 1, 2**53, 2**53 + 1, -(2**53 - 1), -(2**53), -(2**53) - 1])
    @example(value=[Fraction(0), Fraction(-7, 3), Fraction(-(2**70), 3)])
    @example(value=["", "caf\u00e9 \u2203 \U0001d11e", "\x00\x1f\x7f\n\t\"\\/"])
    @example(value=[-0.0, 0.0, 1e16, 1e-7, math.nan, math.inf, -math.inf])
    @example(value=[True, False, None, (1, (2, (3, ())), [])])
    @example(value={10: "a", 9: ("b",), -1: {2: None}, "x": 2**64})
    @settings(max_examples=300, deadline=None)
    def test_matches_conversion_then_json_dumps(self, value):
        for sort_keys in (False, True):
            assert to_json(value, sort_keys=sort_keys) == helpers.json_by_conversion(
                value, sort_keys
            )

    def test_subclasses_follow_the_same_rules(self):
        class Str(str):
            def __str__(self):
                return "other"

        class Int(int):
            def __repr__(self):
                return "other"

            __str__ = __repr__

        class Float(float):
            def __repr__(self):
                return "other"

        class Frac(Fraction):
            pass

        class Key:
            def __str__(self):
                return Str("k")

        Pair = collections.namedtuple("Pair", "a b")
        values = [
            Str("s\u00e9"),
            Int(5),
            Int(2**60),
            Float(0.25),
            Float("nan"),
            Frac(-3, 4),
            Pair(1, Fraction(1, 2)),
            collections.OrderedDict([("b", 1), ("a", [Str("x")])]),
            collections.defaultdict(list, {Str("c"): 1, 2: 2}),
            {1: "int", "1": "str", True: "bool", 1.5: "float", None: "none"},
            {Key(): 1, Str("j"): 2},
        ]
        for sort_keys in (False, True):
            assert to_json(values, sort_keys=sort_keys) == helpers.json_by_conversion(
                values, sort_keys
            )
        for bad in (object(), {1, 2}, b"bytes", [1, [complex(1, 2)]], {"k": range(3)}):
            with pytest.raises(TypeError):
                to_json(bad)

    def test_huge_counts_survive_round_trip(self, tmp_path):
        count = math.factorial(100) - 1
        report = VerificationReport(
            100, CLAIM_MODE_LOCATION, True, (), {"expected": 96, "max_count": count}
        )
        store = ResultStore(tmp_path)
        store.append(report)
        (parsed,) = store.load()
        assert int(parsed.details["max_count"]) == count
        line = (tmp_path / "verification.jsonl").read_text()
        assert f'"max_count":"{count}"' in line
        assert reappended(tmp_path, [parsed]) == line


class TestRecordShape:
    def test_serialization_is_canonical(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(verdict(5, "t"))
        line = verdict_line(5, "t")
        assert (tmp_path / "verification.jsonl").read_text() == line + "\n"
        assert store.load() == [verdict(5, "t")]
        # keys sorted, no whitespace
        assert ": " not in line and ", " not in line

    def test_mode_location_line(self, tmp_path):
        ResultStore(tmp_path).append(verify_mode_location(6))
        text = (tmp_path / "verification.jsonl").read_text()
        assert text == helpers.STORED_VERDICT_LINES[1] + "\n"

    def test_rejects_unknown_kind(self, tmp_path):
        write_log(tmp_path, [raw_line(kind='"bogus"')])
        with pytest.raises(StoreError, match="unknown record kind 'bogus'"):
            ResultStore(tmp_path).load()

    @pytest.mark.parametrize("n", ["5.0", "true", '"5"'], ids=["5.0", "True", "5"])
    def test_rejects_non_int_n(self, tmp_path, n):
        write_log(tmp_path, [raw_line(n=n)])
        with pytest.raises(StoreError, match="n must be an int"):
            ResultStore(tmp_path).load()

    def test_rejects_negative_n(self, tmp_path):
        write_log(tmp_path, [raw_line(n="-1")])
        with pytest.raises(StoreError, match="n must be nonnegative"):
            ResultStore(tmp_path).load()

    @pytest.mark.parametrize("n", [5.0, True, -1])
    def test_append_rejects_bad_n(self, tmp_path, n):
        report = VerificationReport(n, CLAIM_MODE_LOCATION, True, (), {"expected": 4})
        with pytest.raises((TypeError, ValueError)):
            ResultStore(tmp_path).append(report)
        assert not (tmp_path / "verification.jsonl").exists()

    def test_payload_is_checked_only_in_range(self, tmp_path):
        write_log(tmp_path, [raw_line(n="5"), raw_line(n="9", payload="{}")])
        store = ResultStore(tmp_path)
        assert [r.n for r in store.load(3, 8)] == [5]
        with pytest.raises(StoreError, match="malformed cached verdict for n=9"):
            store.load()

    def test_header_is_checked_out_of_range(self, tmp_path):
        write_log(tmp_path, [raw_line(n="5"), raw_line(n="9", kind='"kn"')])
        with pytest.raises(StoreError, match="'kn'"):
            ResultStore(tmp_path).load(3, 8)


class TestVerdictRoundTrip:
    """A stored verdict loads as the report it was written from."""

    def test_stored_lines_reencode_byte_for_byte(self, tmp_path):
        lines = helpers.STORED_VERDICT_LINES
        text = write_log(tmp_path, lines).read_text()
        reports = ResultStore(tmp_path).load()
        assert [(r.n, r.claim) for r in reports] == [
            (5, "thm_1_2_mode"), (6, "thm_1_2_mode"),
            (12, "thm_1_1_form"), (12, "final_inequality"),
        ]
        assert reports[2].witnesses == (6, 8)
        assert reports[3].details["checks"][1]["lhs"] == "21/1100"
        assert reappended(tmp_path, reports) == text

    @pytest.mark.parametrize(
        "verify", [verify_mode_location, verify_near_max_form, verify_gap_inequality]
    )
    def test_every_claim_decodes_to_its_report(self, tmp_path, verify):
        for n in (5, 6, 12):
            report = verify(n)
            store = ResultStore(tmp_path / str(n))
            store.append(report)
            (decoded,) = store.load(n, n)
            assert (decoded.n, decoded.claim, decoded.holds, decoded.witnesses) == (
                report.n, report.claim, report.holds, report.witnesses
            )
            assert decoded.details == json.loads(to_json(report.details))
            text = (tmp_path / str(n) / "verification.jsonl").read_text()
            assert reappended(tmp_path / str(n), [decoded]) == text

    @pytest.mark.parametrize(
        "claim", ['"thm_99"', "null", '["thm_1_2_mode"]'], ids=["thm_99", "None", "claim2"]
    )
    def test_unknown_claim_is_store_error(self, tmp_path, claim):
        payload = f'{{"claim":{claim},"details":null,"holds":true,"witnesses":[]}}'
        write_log(tmp_path, [raw_line(payload=payload)])
        with pytest.raises(StoreError, match="malformed cached verdict for n=5"):
            ResultStore(tmp_path).load()


class TestStoreRoundTrip:
    def test_append_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        report = verify_mode_location(5)
        store.append(report)
        assert store.load(5, 5) == [report]

    def test_load_empty_store(self, tmp_path):
        assert ResultStore(tmp_path).load() == []

    def test_append_creates_or_extends_empty_log(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(verdict(3))
        path = tmp_path / "verification.jsonl"
        assert path.read_text() == verdict_line(3) + "\n"
        path.write_bytes(b"")
        store.append(verdict(4))
        assert store.load() == [verdict(4)]

    def test_loads_stored_lines(self, tmp_path):
        write_log(tmp_path, helpers.STORED_VERDICT_LINES)
        loaded = ResultStore(tmp_path).load()
        assert loaded[:2] == [verify_mode_location(5), verify_mode_location(6)]

    def test_range_filter_and_sort(self, tmp_path):
        store = ResultStore(tmp_path)
        r5a, r3 = verdict(5, "a"), verdict(3, "b")
        r5b, r9 = verdict(5, "c"), verdict(9, "d")
        for r in (r5a, r3, r5b, r9):
            store.append(r)
        assert store.load() == [r3, r5a, r5b, r9]  # sorted, stable at n=5
        assert store.load(4, 8) == [r5a, r5b]

    def test_foreign_kind_on_load_is_store_error(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(verdict(4))
        line = json.dumps(
            {"kind": "kn", "n": 4, "payload": {}, "schema_version": SCHEMA_VERSION}
        )
        with (tmp_path / "verification.jsonl").open("a") as fh:
            fh.write(line + "\n" + verdict_line(5) + "\n")
        with pytest.raises(StoreError, match="'kn'"):
            store.load()

    def test_rejects_foreign_schema_on_load(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(verdict(5))
        path = tmp_path / "verification.jsonl"
        line = json.dumps(
            {"kind": KIND, "n": 6, "payload": {}, "schema_version": SCHEMA_VERSION + 1}
        )
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(SchemaVersionError):
            store.load()

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_rejects_non_int_schema_on_load(self, tmp_path, version):
        line = json.dumps({"kind": KIND, "n": 6, "payload": {}, "schema_version": version})
        (tmp_path / "verification.jsonl").write_text(line + "\n")
        with pytest.raises(SchemaVersionError):
            ResultStore(tmp_path).load()


class TestTornWriteRecovery:
    def _fill(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(verdict(3))
        store.append(verdict(4))
        return store, tmp_path / "verification.jsonl"

    def test_truncated_tail_without_newline(self, tmp_path, caplog):
        store, path = self._fill(tmp_path)
        good = path.read_bytes()
        path.write_bytes(good + b'{"kind": "verification", "n": 99')
        with caplog.at_level("WARNING"):
            records = store.load()
        assert [r.n for r in records] == [3, 4]
        assert "discard" in caplog.text.lower() or "torn" in caplog.text.lower()
        assert path.read_bytes() == good  # file repaired

    def test_invalid_trailing_line_with_newline(self, tmp_path, caplog):
        store, path = self._fill(tmp_path)
        good = path.read_bytes()
        path.write_bytes(good + b"not json at all\n")
        with caplog.at_level("WARNING"):
            records = store.load()
        assert [r.n for r in records] == [3, 4]
        assert path.read_bytes() == good

    # Lines end at "\n" alone: "\r" and "\x1c" are other line breaks to
    # str.splitlines, and must neither split a line nor shift its offsets.
    @pytest.mark.parametrize("tail", [b"not json\r\n", b"not\x1cjson\n"])
    def test_invalid_final_line_holding_other_line_breaks(self, tmp_path, tail):
        store, path = self._fill(tmp_path)
        good = path.read_bytes()
        path.write_bytes(good + tail)
        assert [r.n for r in store.load()] == [3, 4]
        assert path.read_bytes() == good
        store.append(verdict(5))
        assert [r.n for r in store.load()] == [3, 4, 5]

    def test_append_repairs_torn_tail_first(self, tmp_path):
        store, path = self._fill(tmp_path)
        good = path.read_bytes()
        path.write_bytes(good + b'{"kind"')
        store.append(verdict(5))
        records = store.load()
        assert [r.n for r in records] == [3, 4, 5]

    def test_mid_log_corruption_is_fatal(self, tmp_path):
        store, path = self._fill(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + b"garbage\n" + lines[1])
        with pytest.raises(ValueError):
            store.load()

    @pytest.mark.parametrize("where", ["last", "earlier"])
    def test_non_utf8_byte_is_store_error(self, tmp_path, where):
        store, path = self._fill(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        if where == "last":
            lines.append(b"\xff\n")
        else:
            lines[0] = b"\xff" + lines[0]
        path.write_bytes(b"".join(lines))
        with pytest.raises(StoreError, match="UTF-8"):
            store.load()

    def test_append_repair_of_non_utf8_log_is_store_error(self, tmp_path):
        store, path = self._fill(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes() + b'{"kind"')
        with pytest.raises(StoreError, match="UTF-8"):
            store.append(verdict(5))

    def test_non_utf8_byte_in_torn_tail_is_discarded(self, tmp_path):
        store, path = self._fill(tmp_path)
        good = path.read_bytes()
        path.write_bytes(good + b'{"kind": "\xff')
        assert [r.n for r in store.load()] == [3, 4]
        assert path.read_bytes() == good


class TestLoadCost:
    @pytest.mark.parametrize("records", [1, 100])
    def test_load_parses_each_line_once(self, tmp_path, monkeypatch, records):
        store = ResultStore(tmp_path)
        for n in range(records):
            store.append(verdict(n))
        calls = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(1)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(store_module.json, "loads", counting_loads)
        assert len(store.load()) == records
        assert len(calls) == records


class TestAppendCost:
    def test_append_reads_only_the_last_byte(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        for n in range(3000):
            store.append(verdict(n))
        path = tmp_path / "verification.jsonl"
        before = path.read_bytes()

        bytes_read = []
        real_open = Path.open

        class CountingReader:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def read(self, size=-1):
                data = self._fh.read(size)
                bytes_read.append(len(data))
                return data

            def __getattr__(self, name):
                return getattr(self._fh, name)

        def counting_open(self, mode="r", *args, **kwargs):
            fh = real_open(self, mode, *args, **kwargs)
            return fh if "a" in mode or "w" in mode else CountingReader(fh)

        def forbidden(*args, **kwargs):
            raise AssertionError("append reread the log")

        monkeypatch.setattr(Path, "open", counting_open)
        monkeypatch.setattr(Path, "read_bytes", forbidden)
        monkeypatch.setattr(Path, "read_text", forbidden)
        monkeypatch.setattr(store_module.json, "loads", forbidden)
        store.append(verdict(3000))
        monkeypatch.undo()

        assert sum(bytes_read) <= 1
        added = verdict_line(3000).encode() + b"\n"
        assert path.read_bytes() == before + added
        assert len(store.load()) == 3001


def start_python(code: str, *args: str) -> subprocess.Popen:
    """A new interpreter running ``code`` with this package importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(store_module.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


# Appends verdict(n, "x" * n), n = first..first+count-1, to the store at argv[1].
APPENDER = """
import sys
from permorder.asymptotics import CLAIM_MODE_LOCATION, VerificationReport
from permorder.store import ResultStore
store = ResultStore(sys.argv[1])
first, count = int(sys.argv[2]), int(sys.argv[3])
print("ready", flush=True)
for n in range(first, first + count):
    details = {"expected": n, "tag": "x" * n}
    store.append(VerificationReport(n, CLAIM_MODE_LOCATION, True, (), details))
"""


@pytest.mark.skipif(store_module.fcntl is None, reason="no fcntl.flock here")
class TestLockedLog:
    def test_two_processes_append_whole_records(self, tmp_path):
        procs = [start_python(APPENDER, str(tmp_path), str(first), "200")
                 for first in (0, 1000)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        records = ResultStore(tmp_path).load()
        assert records == [verdict(n, "x" * n) for n in [*range(200), *range(1000, 1200)]]
        lines = (tmp_path / "verification.jsonl").read_bytes().split(b"\n")
        assert len(lines) == 401 and lines[-1] == b""

    def _hold_lock(self, tmp_path, data: bytes):
        path = tmp_path / "verification.jsonl"
        path.write_bytes(data)
        fh = path.open("ab")
        store_module.fcntl.flock(fh.fileno(), store_module.fcntl.LOCK_EX)
        return path, fh

    def test_append_waits_for_the_lock(self, tmp_path):
        # Another writer holds the lock with its line half written: the
        # append must neither repair that line away nor write before it.
        head = verdict_line(1).encode() + b"\n"
        half = verdict_line(2).encode()
        path, fh = self._hold_lock(tmp_path, head + half[:20])
        proc = start_python(APPENDER, str(tmp_path), "3", "1")
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.3)
        assert path.read_bytes() == head + half[:20]
        fh.write(half[20:] + b"\n")
        fh.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert [r.n for r in ResultStore(tmp_path).load()] == [1, 2, 3]

    def test_load_waits_for_the_lock(self, tmp_path):
        head = verdict_line(1).encode() + b"\n"
        half = verdict_line(2).encode()
        path, fh = self._hold_lock(tmp_path, head + half[:20])
        proc = start_python(
            "import sys; from permorder.store import ResultStore; "
            "print('ready', flush=True); "
            "print([r.n for r in ResultStore(sys.argv[1]).load()])",
            str(tmp_path),
        )
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.3)
        fh.write(half[20:] + b"\n")
        fh.close()
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (0, "[1, 2]\n"), err
        assert path.read_bytes() == head + half + b"\n"


class TestWithoutFcntl:
    def test_store_runs_unlocked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "fcntl", None)
        store = ResultStore(tmp_path)
        store.append(verdict(3))
        store.append(verdict(4))
        assert store.load() == [verdict(3), verdict(4)]

    def test_import_does_not_need_fcntl(self):
        proc = start_python(
            "import sys; sys.modules['fcntl'] = None; import permorder; "
            "from permorder import store; print(store.fcntl)"
        )
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out) == (0, "None\n"), err


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        state = {"subcommand": "scan", "done_through": 17, "range": [2, 60]}
        store.checkpoint(state)
        assert store.resume() == state

    def test_resume_without_checkpoint(self, tmp_path):
        assert ResultStore(tmp_path).resume() is None

    def test_overwrite_is_atomic_replace(self, tmp_path):
        store = ResultStore(tmp_path)
        store.checkpoint({"done_through": 5})
        store.checkpoint({"done_through": 9})
        assert store.resume() == {"done_through": 9}
        leftovers = [p for p in tmp_path.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_schema_mismatch(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "checkpoint.json").write_text(
            json.dumps({"schema_version": SCHEMA_VERSION + 1, "state": {}})
        )
        with pytest.raises(SchemaVersionError):
            store.resume()

    def test_damaged_checkpoint_returns_none(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        (tmp_path / "checkpoint.json").write_text("{broken")
        with caplog.at_level("WARNING"):
            assert store.resume() is None
