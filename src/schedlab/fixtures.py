"""Canned workloads and schedules: the two-figure scenarios on the sorted
list, and the identical-insert / find-delete-delete constructions
generalized to every structure via its non-triviality witness.

Schedules are built by staged runs of the unsynchronized machines (the
schedule universe generator), so a fixture is by construction a realizable
interleaving of the sequential code; the figure builders pin the exact
interleavings drawn in the figures.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .model import History, InvariantError, Schedule, schedule_of
from .scheduler import Workload, build_world
from .seqspec import Operation, SearchStructureDef, make_structure, \
    non_triviality_witness, run_operation


def _staged_schedule(w: Workload, bursts: Iterable[tuple[int, int | None]]) -> Schedule:
    """Run the unsynchronized machines in bursts of (proc, steps) - steps
    None meaning to completion, a finished machine taking none - until
    every machine has finished, and export the resulting schedule."""
    world, machines, start = build_world("unsync", w)
    for proc, steps in bursts:
        if all(m.finished for m in machines.values()):
            break
        m = machines[proc]
        done = 0
        while not m.finished and (steps is None or done < steps):
            m.step(world)
            done += 1
    if not all(m.finished for m in machines.values()):
        raise InvariantError("staged run left work")
    hist = History(world.events[start:], dict(world.ops), {})
    return schedule_of(hist)


def _lockstep_schedule(w: Workload) -> Schedule:
    """Two processes advancing in lockstep, p1 half a step ahead - the
    shape of both figure-2 schedules."""
    return _staged_schedule(w, itertools.chain([(1, 2), (2, 2)],
                                               itertools.cycle([(1, 1), (2, 1)])))


def fig2a() -> tuple[Workload, Schedule]:
    """Sorted list at {1,2,3}: two read-only inserts interleaved."""
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", k) for k in (1, 2, 3)],
                 [(1, Operation("insert", 1)), (2, Operation("insert", 2))])
    return w, _lockstep_schedule(w)


def fig2b() -> tuple[Workload, Schedule]:
    """Sorted list at {3}: the same interleaving now ends in two writes of
    the root - the lost-update schedule."""
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", 3)],
                 [(1, Operation("insert", 1)), (2, Operation("insert", 2))])
    return w, _lockstep_schedule(w)


def fig3() -> tuple[Workload, Schedule]:
    """Sorted list at {1,3,4}: find(5) overlaps insert(2) then insert(5);
    the find pauses after its third read and resumes through the freshly
    written nodes."""
    d = make_structure("sorted-list")
    w = Workload(d, [Operation("insert", k) for k in (1, 3, 4)],
                 [(1, Operation("find", 5)), (2, Operation("insert", 2)),
                  (3, Operation("insert", 5))])
    sched = _staged_schedule(w, [(1, 4), (2, None), (3, None), (1, None)])
    return w, sched


@dataclass
class Thm2Bundle:
    structure: SearchStructureDef
    key: int
    w_present: Workload   # state already holds the key: both inserts read-only
    sigma: Schedule
    w_absent: Workload    # state lacks the key: both inserts must write
    sigma_prime: Schedule


def thm2_bundle(def_: SearchStructureDef) -> Thm2Bundle:
    """The identical-insert construction on this structure's witness."""
    wit = non_triviality_witness(def_)
    ins = Operation("insert", wit.key)
    w_present = Workload(def_, list(wit.ops_to_g2), [(1, ins), (2, ins)])
    w_absent = Workload(def_, list(wit.ops_to_g), [(1, ins), (2, ins)])
    return Thm2Bundle(def_, wit.key, w_present, _lockstep_schedule(w_present),
                      w_absent, _lockstep_schedule(w_absent))


@dataclass
class Thm3Bundle:
    structure: SearchStructureDef
    key: int
    mid_key: int  # the traversed node the first delete removes
    workload: Workload
    sigma0: Schedule


def thm3_bundle(def_: SearchStructureDef) -> Thm3Bundle:
    """find(k) paused one hop short of the key's unique predecessor while
    delete(mid) and delete(k) run to completion; the find resumes and must
    miss the key."""
    wit = non_triviality_witness(def_)
    state = def_.new_state()
    for op in wit.ops_to_g2:
        run_operation(def_, state, op)
    visits: list = []
    probe = state.clone()
    run_operation(def_, probe, Operation("find", wit.key), visits)
    order = [nid for kind, nid, _ in visits if kind == "r"]
    if probe.nodes[order[-1]].key != wit.key:
        raise InvariantError("solo find does not end at the key")
    idx_a = len(order) - 2
    c = order[idx_a - 1]
    if c in (state.root, state.tail):
        raise InvariantError("witness path passes no intermediate node")
    mid_key = int(state.nodes[c].key)
    w = Workload(def_, list(wit.ops_to_g2),
                 [(1, Operation("find", wit.key)),
                  (2, Operation("delete", mid_key)),
                  (3, Operation("delete", wit.key))])
    # the find pauses after oi plus every read strictly before a
    sched = _staged_schedule(w, [(1, 1 + idx_a), (2, None), (3, None), (1, None)])
    return Thm3Bundle(def_, wit.key, mid_key, w, sched)
