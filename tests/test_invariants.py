"""The invariants the drivers rely on raise explicit errors.

Each test breaks one invariant on purpose (by patching a machine or a
helper) and expects the error.  They use only ``pytest.raises``, so they
hold under ``python -O``, which removes ``assert`` statements:

    PYTHONPATH=src python -O -m pytest -q tests/test_invariants.py
"""

import pytest

from schedlab import scheduler
from schedlab.fixtures import fig2a
from schedlab.metric import accepted_set, audited_history, lsl_set
from schedlab.model import Schedule
from schedlab.scheduler import (InvariantError, MalformedScheduleError,
                                Workload, build_world, drive, universe)
from schedlab.seqspec import Operation, make_structure
from schedlab.sync import BLOCKED, StepOutcome, UnsyncMachine


def two_inserts(setup=()):
    return Workload(make_structure("sorted-list"),
                    [Operation("insert", k) for k in setup],
                    [(1, Operation("insert", 1)), (2, Operation("insert", 2))])


def block_unsync_reads(monkeypatch, procs):
    """Make the unsynchronized machines of the given processes block at
    their first read."""
    read = UnsyncMachine._read

    def blocking(self, world, nid):
        if procs(self.op.proc):
            return StepOutcome(BLOCKED, blocked_on=nid)
        return read(self, world, nid)

    monkeypatch.setattr(UnsyncMachine, "_read", blocking)


def test_drive_raises_when_accepted_history_misses_the_schedule(monkeypatch):
    w, sigma = fig2a()
    monkeypatch.setattr(scheduler, "schedule_of", lambda h: Schedule(()))
    with pytest.raises(InvariantError, match="does not export the schedule"):
        drive("stm", w, sigma)


def test_pass_raises_when_accepted_history_misses_the_schedule(monkeypatch):
    monkeypatch.setattr(scheduler, "schedule_of", lambda h: Schedule(()))
    with pytest.raises(InvariantError, match="does not export the schedule"):
        accepted_set("stm", two_inserts())


def test_pass_raises_when_unsync_machine_blocks(monkeypatch):
    block_unsync_reads(monkeypatch, lambda proc: proc != 0)
    with pytest.raises(InvariantError, match="unsync machine of process 1"):
        universe(two_inserts())


def test_setup_run_raises_when_unsync_machine_blocks(monkeypatch):
    block_unsync_reads(monkeypatch, lambda proc: proc == 0)
    with pytest.raises(InvariantError, match="running alone"):
        build_world("hoh", two_inserts(setup=(3,)))


def test_audit_finds_raise_when_unsync_machine_blocks(monkeypatch):
    w = two_inserts()
    s = universe(w, budget=1)[0][0]
    block_unsync_reads(monkeypatch, lambda proc: proc > 2)  # the audit finds
    with pytest.raises(InvariantError, match="find"):
        audited_history(w, s)
    with pytest.raises(InvariantError, match="find"):
        lsl_set(w)


def test_audited_history_rejects_an_incomplete_schedule():
    w = two_inserts()
    s = universe(w, budget=1)[0][0]
    with pytest.raises(MalformedScheduleError, match="incomplete"):
        audited_history(w, Schedule(s.slots[:-1]))
