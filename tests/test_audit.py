"""Hash-chained audit log verification and tamper localization."""

import random

import pytest

from fedshield.audit import AuditLog, read_entries, verify_audit
from fedshield.errors import DecodeError


@pytest.fixture
def log_path(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    for i in range(8):
        log.append("event", {"index": i, "note": f"payload number {i}"})
    return path


def test_untouched_log_accepted(log_path):
    verdict = verify_audit(log_path)
    assert verdict.ok and verdict.entries == 8


def test_empty_log_accepted(tmp_path):
    path = tmp_path / "empty.log"
    path.write_bytes(b"")
    assert verify_audit(path).ok


def test_single_byte_edit_localized_to_entry(log_path):
    data = bytearray(log_path.read_bytes())
    lines = log_path.read_bytes().splitlines(keepends=True)
    offset = sum(len(l) for l in lines[:3]) + len(lines[3]) // 2
    data[offset] = (data[offset] + 1) % 256
    log_path.write_bytes(bytes(data))
    verdict = verify_audit(log_path)
    assert not verdict.ok
    assert verdict.first_break == 3


@pytest.mark.parametrize("edit", ["hex-case", "carriage-return"])
def test_equivalent_encoding_edit_localized_to_entry(log_path, edit):
    # edits that parse to the same entry values: hex digits in another case,
    # or a line ended by CR (LF joined it to the next line)
    lines = log_path.read_bytes().splitlines(keepends=True)
    if edit == "hex-case":
        start = lines[2].index(b'"entry_hash":"') + len(b'"entry_hash":"')
        at = next(i for i in range(start, start + 64) if lines[2][i] in b"abcdef")
        lines[2] = lines[2][:at] + lines[2][at:at + 1].upper() + lines[2][at + 1:]
    else:
        lines[2] = lines[2][:-1] + b"\r"
    log_path.write_bytes(b"".join(lines))
    verdict = verify_audit(log_path)
    assert not verdict.ok
    assert verdict.first_break == 2


def test_deleted_entry_reported_as_gap(log_path):
    lines = log_path.read_bytes().splitlines(keepends=True)
    del lines[4]
    log_path.write_bytes(b"".join(lines))
    verdict = verify_audit(log_path)
    assert not verdict.ok
    assert verdict.first_break == 4
    assert "gap" in verdict.reason or "mismatch" in verdict.reason


def test_random_tampers_localize(log_path):
    original = log_path.read_bytes()
    lines = original.splitlines(keepends=True)
    starts = []
    pos = 0
    for line in lines:
        starts.append(pos)
        pos += len(line)
    rng = random.Random(2024)
    for _ in range(50):
        offset = rng.randrange(len(original))
        replacement = rng.randrange(256)
        while replacement == original[offset]:
            replacement = rng.randrange(256)
        tampered = bytearray(original)
        tampered[offset] = replacement
        log_path.write_bytes(bytes(tampered))
        entry_index = max(i for i, s in enumerate(starts) if s <= offset)
        verdict = verify_audit(log_path)
        assert not verdict.ok, f"tamper at {offset} went undetected"
        assert verdict.first_break == entry_index, (
            f"tamper at {offset} (entry {entry_index}) reported at "
            f"{verdict.first_break}: {verdict.reason}")
    log_path.write_bytes(original)
    assert verify_audit(log_path).ok


def test_reopened_log_continues_chain(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    log.append("first", {"x": 1})
    second = AuditLog(path)
    second.append("second", {"x": 2})
    verdict = verify_audit(path)
    assert verdict.ok and verdict.entries == 2
    entries = read_entries(path)
    assert entries[1].prev_hash == entries[0].entry_hash
    assert entries[1].seq == 1


def test_truncated_tail_breaks_at_missing_entry(log_path):
    lines = log_path.read_bytes().splitlines(keepends=True)
    log_path.write_bytes(b"".join(lines[:-1]))
    verdict = verify_audit(log_path)
    assert verdict.ok  # a clean prefix is still a valid chain
    assert verdict.entries == 7


def test_torn_tail_is_cut_and_the_chain_continues(tmp_path):
    path = tmp_path / "audit.log"
    log = AuditLog(path)
    log.append("first", {"x": 1})
    log.append("second", {"x": 2})
    first_line = path.read_bytes().split(b"\n")[0] + b"\n"
    path.write_bytes(path.read_bytes()[:-40])  # killed while appending "second"
    reopened = AuditLog(path)
    assert path.read_bytes() == first_line
    reopened.append("third", {"x": 3})
    verdict = verify_audit(path)
    assert verdict.ok and verdict.entries == 2
    entries = read_entries(path)
    assert [e.kind for e in entries] == ["first", "third"]
    assert entries[1].seq == 1 and entries[1].prev_hash == entries[0].entry_hash


def test_whole_line_that_does_not_parse_still_refuses_the_open(tmp_path):
    path = tmp_path / "audit.log"
    AuditLog(path).append("first", {"x": 1})
    with open(path, "ab") as fh:
        fh.write(b"not an entry\n")
    with pytest.raises(DecodeError):
        AuditLog(path)
