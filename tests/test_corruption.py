"""Corruption injection: content checksums on snapshots, journal
records, and plan artifacts must turn silent bit rot into loud errors.

Three satellite surfaces of the ReactorFuzz PR:

* snapshot payloads carry a ``checksum`` field verified by ``restore``;
* every :class:`FileJournal` record is sealed with a ``sum`` field
  verified on load (final-line damage stays a recoverable torn tail,
  earlier damage is hard corruption);
* :func:`hydrate_plan_artifact` rejects truncated payloads, format
  skew, and recompile-fingerprint mismatches.
"""

import json
import pickle

import pytest

from repro.compiler.compile import (
    clear_hydrate_cache,
    hydrate_plan_artifact,
    plan_artifact,
)
from repro.errors import ArtifactError, MachineError, SnapshotError
from repro.runtime.journal import FileJournal, JournalEntry, TornJournalWarning
from repro.runtime.machine import ReactiveMachine, snapshot_checksum
from repro.syntax.parser import parse_program

MODULE = """
module M(in I, out O) {
  loop {
    if (I.now) { emit O(); }
    pause;
  }
}
"""


def _machine():
    table = parse_program(MODULE)
    machine = ReactiveMachine(table.get("M"))
    machine.react({"I": True})
    machine.react({})
    return machine


# ---------------------------------------------------------------------------
# snapshot checksums
# ---------------------------------------------------------------------------


def test_snapshot_carries_valid_checksum():
    snap = _machine().snapshot()
    assert snap["checksum"] == snapshot_checksum(snap)


def test_snapshot_register_flip_rejected():
    machine = _machine()
    snap = machine.snapshot()
    evil = dict(snap)
    evil["registers"] = [not bit for bit in snap["registers"]]
    with pytest.raises(SnapshotError, match="checksum"):
        machine.restore(evil)


def test_snapshot_counter_tamper_rejected():
    machine = _machine()
    snap = machine.snapshot()
    evil = dict(snap)
    evil["reaction_count"] = snap["reaction_count"] + 7
    with pytest.raises(SnapshotError, match="checksum"):
        machine.restore(evil)


def test_snapshot_survives_json_round_trip():
    machine = _machine()
    snap = machine.snapshot()
    machine.restore(json.loads(json.dumps(snap)))


def test_legacy_snapshot_without_checksum_accepted():
    machine = _machine()
    snap = machine.snapshot()
    legacy = {k: v for k, v in snap.items() if k != "checksum"}
    machine.restore(legacy)


def test_format_check_still_wins_over_checksum():
    machine = _machine()
    snap = machine.snapshot()
    with pytest.raises(SnapshotError, match="format"):
        machine.restore({**snap, "format": 999})


# ---------------------------------------------------------------------------
# journal record checksums
# ---------------------------------------------------------------------------


def _write_journal(path):
    journal = FileJournal(str(path))
    journal.append(JournalEntry(0, {"I": True}))
    journal.commit(0)
    journal.append(JournalEntry(1, {}))
    journal.commit(1)
    journal.close()


def test_journal_records_are_sealed(tmp_path):
    path = tmp_path / "j.log"
    _write_journal(path)
    for line in path.read_text().strip().splitlines():
        assert "sum" in json.loads(line)


def test_journal_midfile_bitrot_is_hard_corruption(tmp_path):
    path = tmp_path / "j.log"
    _write_journal(path)
    lines = path.read_text().splitlines()
    # flip the recorded inputs of the first entry but keep valid JSON:
    # only the content checksum can notice
    record = json.loads(lines[0])
    record["inputs"] = {"I": False}
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MachineError, match="not a torn tail"):
        FileJournal(str(path))


def test_journal_tail_bitrot_recovers_as_torn_tail(tmp_path):
    path = tmp_path / "j.log"
    _write_journal(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[-1])
    record["commit"] = 999
    lines[-1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.warns(TornJournalWarning):
        journal = FileJournal(str(path))
    # both entries survive; only the damaged final commit is dropped
    entries = journal.entries()
    assert [e.seq for e in entries] == [0, 1]
    assert entries[0].committed and not entries[1].committed
    journal.close()


def test_journal_legacy_records_without_sum_accepted(tmp_path):
    path = tmp_path / "j.log"
    entry = JournalEntry(0, {"I": True}, [], True)
    path.write_text(json.dumps(entry.to_json()) + "\n")
    journal = FileJournal(str(path))
    assert [e.seq for e in journal.entries()] == [0]
    journal.close()


# ---------------------------------------------------------------------------
# plan artifact hydration error paths
# ---------------------------------------------------------------------------


def _artifact():
    table = parse_program(MODULE)
    return plan_artifact(table.get("M"), table)


def test_hydrate_truncated_artifact_rejected():
    data = _artifact()
    clear_hydrate_cache()
    with pytest.raises(ArtifactError, match="unpickled"):
        hydrate_plan_artifact(data[: len(data) // 2])


def test_hydrate_version_skew_rejected():
    payload = pickle.loads(_artifact())
    payload["format"] = 99
    clear_hydrate_cache()
    with pytest.raises(ArtifactError, match="format"):
        hydrate_plan_artifact(pickle.dumps(payload))


def test_hydrate_fingerprint_mismatch_rejected():
    # force the recompile path (no embedded circuit) with a fingerprint
    # the recompile cannot possibly land on
    payload = pickle.loads(_artifact())
    payload["compiled"] = None
    payload["fingerprint"] = "not-a-real-fingerprint"
    clear_hydrate_cache()
    with pytest.raises(ArtifactError, match="fingerprint mismatch"):
        hydrate_plan_artifact(pickle.dumps(payload))
    clear_hydrate_cache()
