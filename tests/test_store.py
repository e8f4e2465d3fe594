"""Tests for the append-only result store.

Round-trip identity is checked at the byte level, and recovery semantics
(torn trailing writes, checkpoint/resume) are exercised by direct file
surgery on a temporary store directory.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from permorder import store as store_module
from permorder.asymptotics import verify_mode_location
from permorder.store import (
    KIND,
    SCHEMA_VERSION,
    ResultRecord,
    ResultStore,
    SchemaVersionError,
    StoreError,
    frac_str,
    jsonify,
    parse_frac,
    parse_record_line,
    serialize_record,
    verification_record,
)

def verdict(n: int, tag: str = "") -> ResultRecord:
    payload = {"claim": "thm_1_2_mode", "holds": True, "witnesses": [], "tag": tag}
    return ResultRecord(SCHEMA_VERSION, KIND, n, payload)


class TestFracStrings:
    def test_always_slash_form(self):
        assert frac_str(Fraction(1, 4)) == "1/4"
        assert frac_str(Fraction(3)) == "3/1"
        assert frac_str(Fraction(0)) == "0/1"
        assert frac_str(Fraction(-2, 3)) == "-2/3"

    def test_round_trip(self):
        for fr in (Fraction(7, 18), Fraction(0), Fraction(10**50, 3)):
            assert parse_frac(frac_str(fr)) == fr


class TestJsonify:
    def test_64bit_values_become_decimal_strings(self):
        assert jsonify(2**63 + 11) == str(2**63 + 11)
        assert jsonify(-(2**53)) == str(-(2**53))
        assert jsonify(2**53 - 1) == 2**53 - 1
        assert jsonify(True) is True
        assert jsonify(None) is None
        assert jsonify(0.5) == 0.5
        assert jsonify({3: (Fraction(1, 3), [2**64])}) == {"3": ["1/3", [str(2**64)]]}
        with pytest.raises(TypeError):
            jsonify(object())

    def test_huge_counts_survive_round_trip(self):
        count = math.factorial(100) - 1
        rec = ResultRecord(
            SCHEMA_VERSION, KIND, 100, jsonify({"claim": "c", "count": count})
        )
        line = serialize_record(rec)
        parsed = parse_record_line(line)
        assert int(parsed.payload["count"]) == count
        assert serialize_record(parsed) == line


class TestRecordShape:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ResultRecord(schema_version=SCHEMA_VERSION, kind="bogus", n=3, payload={})

    @pytest.mark.parametrize("n", [5.0, True, "5"])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(TypeError):
            ResultRecord(schema_version=SCHEMA_VERSION, kind=KIND, n=n, payload={})

    def test_serialization_is_canonical(self):
        rec = ResultRecord(
            schema_version=SCHEMA_VERSION,
            kind=KIND,
            n=5,
            payload={"b": "2", "a": "1"},
        )
        line = serialize_record(rec)
        assert line == serialize_record(parse_record_line(line))
        assert "\n" not in line
        assert json.loads(line)["kind"] == "verification"
        # keys sorted, no whitespace
        assert line.index('"a"') < line.index('"b"')
        assert ": " not in line and ", " not in line


class TestBuilders:
    def test_verification_record(self):
        rec = verification_record(verify_mode_location(6))
        assert rec.kind == "verification"
        assert rec.payload["claim"] == "thm_1_2_mode"
        assert rec.payload["holds"] is False
        assert rec.payload["witnesses"] == ["6"]


class TestStoreRoundTrip:
    def test_append_then_load(self, tmp_path):
        store = ResultStore(tmp_path)
        rec = verification_record(verify_mode_location(5))
        store.append(rec)
        loaded = store.load(5, 5)
        assert loaded == [rec]
        assert serialize_record(loaded[0]) == serialize_record(rec)

    def test_load_empty_store(self, tmp_path):
        assert ResultStore(tmp_path).load() == []

    def test_append_creates_or_extends_empty_log(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(verdict(3))
        path = tmp_path / "verification.jsonl"
        assert path.read_text() == serialize_record(verdict(3)) + "\n"
        path.write_bytes(b"")
        store.append(verdict(4))
        assert store.load() == [verdict(4)]

    def test_loads_stored_lines(self, tmp_path):
        lines = helpers.STORED_VERDICT_LINES
        (tmp_path / "verification.jsonl").write_text("\n".join(lines) + "\n")
        loaded = ResultStore(tmp_path).load()
        assert [serialize_record(r) for r in loaded] == list(lines)
        assert loaded[1] == verification_record(verify_mode_location(6))

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
            fh.write(line + "\n" + serialize_record(verdict(5)) + "\n")
        with pytest.raises(StoreError, match="'kn'"):
            store.load()

    def test_rejects_foreign_schema_on_append(self, tmp_path):
        store = ResultStore(tmp_path)
        rec = ResultRecord(SCHEMA_VERSION + 1, KIND, 2, payload={})
        with pytest.raises(SchemaVersionError):
            store.append(rec)

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
        added = serialize_record(verdict(3000)).encode() + b"\n"
        assert path.read_bytes() == before + added
        assert len(store.load()) == 3001


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
