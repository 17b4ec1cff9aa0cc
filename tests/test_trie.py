"""The one-pass classification against the reference path.

The counted walk (`scheduler.walk`, through `classify`, `universe` and
the metric functions) must give every schedule the verdicts the reference
path gives it: `drive` per implementation, with the same rejection reason
and failing slot, and `check_ls_linearizable(audited_history(...))` for
the LSL oracle.  The leaves must come in the order of a plain recursive
universe DFS, and carry the digest and the LSL signature that are rebuilt
from the leaf's schedule.
The walk over the DAG of configurations must match the per-prefix walk
(`oracles.prefix_walk`) leaf by leaf while stepping far fewer
configurations, and its configuration key must hold every field a step
reads.  The key each edge builds from its parent's must equal the key
computed from scratch, and a leaf signature is built once per end
configuration and precedence relation.  An LSL pass runs the audit
finds once per end store and checks local serializability once per
(concurrent units, end store), and matches the reference on soundness
witnesses where local serializability fails.  Forks share records and
operations copy-on-write.
"""

import dataclasses
import itertools
import random
from collections import deque

import pytest

from schedlab import metric, scheduler
from schedlab.checkers import check_ls_linearizable, ls_linearizable
from schedlab.fixtures import thm2_bundle, thm3_bundle
from schedlab.metric import (audited_history, classify, optimality_gap,
                             workload_keys)
from schedlab.model import ABORTED, COMPLETE, History, schedule_of
from schedlab.scheduler import Workload, _fork, build_world, drive, universe
from schedlab.seqspec import NodeRec, Operation, UpdatePlan, make_structure
from schedlab.sync import BLOCKED, restart

from oracles import ALL_IMPLS, leaf_signature, prefix_walk, render_json, schedule_trie
from test_acceptance import STRUCTURES, random_workload, sweep_workloads

IMPLS = ("hoh", "stm")


def reference_universe(w, budget):
    """The first `budget` schedules of a DFS that forks the unsynchronized
    machines at every node and steps one live process, in process order."""
    world, machines, start = build_world("unsync", w)
    out = []

    def rec(world, machines):
        if len(out) >= budget:
            return
        live = sorted(p for p, m in machines.items() if not m.finished)
        if not live:
            out.append(schedule_of(History(world.events[start:], world.ops)))
            return
        for proc in live:
            w2 = world.clone()
            m2 = {p: m.clone(w2.ops) for p, m in machines.items()}
            m2[proc].step(w2)
            rec(w2, m2)

    rec(world, machines)
    return out


def reference_verdicts(w, s):
    """(per-implementation (accepted, reason, failing slot), LSL verdict)
    by the reference path."""
    drives = {}
    for impl in IMPLS:
        r = drive(impl, w, s)
        drives[impl] = (r.accepted, r.reason, r.failing_slot)
    keys = workload_keys(w)
    lsl = check_ls_linearizable(audited_history(w, s), w.structure, keys,
                                len(keys) + 1).verdict
    return drives, lsl


def assert_pass_matches_reference(w, budget):
    schedules = reference_universe(w, budget + 1)
    partial = len(schedules) > budget  # a schedule beyond the budget exists
    schedules = schedules[:budget]
    leaves = list(itertools.islice(schedule_trie(w, IMPLS), budget))
    assert [leaf.schedule for leaf in leaves] == schedules
    for leaf in leaves:
        assert leaf.digest == leaf.schedule.digest()
        assert leaf.signature() == leaf_signature(w, leaf)
    sets = classify(w, IMPLS, lsl=True, budget=budget)
    for s, leaf in zip(schedules, leaves):
        drives, lsl = reference_verdicts(w, s)
        d = s.digest()
        for impl in IMPLS:
            accepted, reason, slot = drives[impl]
            assert (d in sets[impl].digests) == accepted, (impl, d)
            assert leaf.rejected.get(impl) == (None if accepted else (reason, slot)), \
                (impl, d)
        assert (d in sets["lsl"].digests) == (lsl is True), d
        assert (d in sets["lsl"].inconclusive) == (lsl is None), d
    for ss in sets.values():
        assert ss.total == len(schedules)
        assert ss.partial == partial
    return sets


def test_pass_matches_reference_on_sweep_workloads():
    """Criterion 4's workloads and budgets."""
    processed = 0
    for w in sweep_workloads():
        processed += assert_pass_matches_reference(w, budget=400)["lsl"].total
        if processed >= 6000:
            break


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_pass_matches_reference_on_thm2(structure, instance):
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    sets = assert_pass_matches_reference(w, budget=20000)
    assert not sets["lsl"].partial


def test_pass_matches_reference_under_truncated_budget():
    """Thm. 3 at budget 250: the same first 250 leaves, classified as the
    reference path does, and a partial result."""
    t = thm3_bundle(make_structure("sorted-list"))
    scheds, truncated = universe(t.workload, budget=250)
    assert truncated and len(scheds) == 250
    sets = assert_pass_matches_reference(t.workload, budget=250)
    assert sets["hoh"].total == 250 and sets["hoh"].partial
    gap = optimality_gap("stm", t.workload, budget=250)
    assert gap.total == 250 and gap.partial
    assert gap.accepted == len(sets["stm"].digests)
    assert gap.lsl == len(sets["lsl"].digests)


def test_leaf_audit_equals_audited_history():
    """The audited replay of a leaf's schedule is the history that the
    per-prefix walk's leaf audits in place, in the world that ran it."""
    w = thm2_bundle(make_structure("bst")).w_absent
    for leaf, ref_leaf in itertools.islice(zip(schedule_trie(w), prefix_walk(w)), 200):
        assert leaf.schedule == ref_leaf.schedule
        audited = audited_history(w, leaf.schedule)
        ref = ref_leaf.audited(w)
        assert render_json(audited) == render_json(ref)
        assert audited.initial == ref.initial
        assert sorted(audited.ops) == sorted(ref.ops)


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_lsl_set_checks_once_per_leaf_signature(monkeypatch, structure, instance):
    """The memoized pass decides an LSL verdict once per distinct leaf
    signature - at most 20 times on a Thm. 2 workload, against 924-3432
    schedules - and yields the set the unmemoized reference path gives."""
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    calls = []
    sigs = {leaf.signature() for leaf in schedule_trie(w)}

    def counting(*args, **kwargs):
        calls.append(1)
        return ls_linearizable(*args, **kwargs)

    monkeypatch.setattr(metric, "ls_linearizable", counting)
    got = metric.lsl_set(w)
    assert len(calls) == len(sigs) <= 20
    monkeypatch.undo()
    keys = workload_keys(w)
    want = {leaf.schedule.digest() for leaf in schedule_trie(w)
            if check_ls_linearizable(audited_history(w, leaf.schedule), w.structure,
                                     keys, len(keys) + 1).verdict is True}
    assert got.digests == want
    assert got.total > 20 and not got.inconclusive


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_lsl_set_decides_each_part_once_per_what_it_reads(monkeypatch, structure,
                                                          instance):
    """An ``lsl_set`` pass runs the audit finds once per end store and
    checks local serializability once per (concurrent units, end store):
    on a Thm. 2 workload, whose 3 or 5 signatures share one end store and
    1 or 3 unit sets, that is one audit and 1 or 3 unit checks."""
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    sigs = {leaf.signature() for leaf in schedule_trie(w)}
    local_keys = {(tuple(sorted(ops)), store) for ops, _, store in sigs}
    audits, checked = [], []
    audit_finds, unit_checker = scheduler.audit_finds, metric.unit_checker

    def counting_audit(*args):
        audits.append(1)
        return audit_finds(*args)

    def counting_checker(*args, **kwargs):
        check = unit_checker(*args, **kwargs)

        def counted(units):
            checked.append(tuple((op.id, steps) for op, _, steps, _ in units))
            return check(units)
        return counted

    monkeypatch.setattr(scheduler, "audit_finds", counting_audit)
    monkeypatch.setattr(metric, "unit_checker", counting_checker)
    metric.lsl_set(w)
    assert len(sigs) in (3, 5)
    assert len({store for _, _, store in sigs}) == len(audits) == 1
    assert len(set(checked)) == len(checked) == len(local_keys) in (1, 3)


def skiplist_witness():
    """`stm` and `hoh` accept schedules of it that are not LSL (heights 3, 1,
    3 for keys 3, 4, 5)."""
    return Workload(make_structure("skiplist", seed=0),
                    [Operation("insert", 3), Operation("insert", 4)],
                    [(1, Operation("find", 4)), (2, Operation("insert", 5))])


def bst_witness():
    """`stm` and `hoh` accept schedules of it that are not LSL."""
    return Workload(make_structure("bst"), [Operation("insert", k) for k in (3, 4, 5)],
                    [(1, Operation("delete", 3)), (2, Operation("find", 4)),
                     (3, Operation("insert", 2))])


@pytest.mark.parametrize("make, budget, stores", [(skiplist_witness, 3003, 1),
                                                  (bst_witness, 2600, 2)],
                         ids=["skiplist", "bst"])
def test_pass_matches_reference_where_local_serializability_fails(make, budget, stores):
    """Two soundness witnesses, whose leaves hold non-LSL verdicts, several
    concurrent unit sets per end store and, on the BST, two end stores: the
    verdicts the pass keys by part match the reference's schedule by
    schedule.  The skiplist's whole universe is 3003 schedules; the BST's
    first 2600 reach its second end store."""
    w = make()
    sets = assert_pass_matches_reference(w, budget)
    sigs = {leaf.signature() for leaf in itertools.islice(schedule_trie(w), budget)}
    assert len({store for _, _, store in sigs}) == stores
    assert len({(tuple(sorted(ops)), store) for ops, _, store in sigs}) > stores
    lsl = sets["lsl"]
    assert 0 < len(lsl.digests) < lsl.total and not lsl.inconclusive


# -- copy-on-write forks ------------------------------------------------------


def store_record(state):
    return (state.snapshot(), state.canonical(), state._canonical_bfs(),
            {n: r.alive for n, r in state.nodes.items()}, state.counter)


def gop_records(machines):
    return {p: {n: (r.snap(), r.alive) for n, r in m.gop.recs.items()}
            for p, m in machines.items()}


def mutate(state, rng):
    """One write, unlink or alloc on a random node of the store."""
    nid = rng.choice(sorted(state.nodes))
    kind = rng.choice(("write", "unlink", "alloc"))
    if kind == "write":
        labels = sorted(state.nodes[nid].edges) or ["next"]
        state.write_edges(nid, {rng.choice(labels):
                                rng.choice(sorted(state.nodes) + [None])})
    elif kind == "unlink":
        state.unlink(nid)
    else:
        state.alloc(99, 99, {"next": nid})


@pytest.mark.parametrize("structure", STRUCTURES)
def test_forks_are_isolated_copy_on_write(structure):
    """Random walks of every implementation's machines, forking at each
    step: a write, unlink or alloc in either world after a fork leaves the
    other world's store (records, liveness, ``canonical()``, whose memo
    both shared) unchanged, and no step changes a record a machine's G_op
    already holds."""
    rng = random.Random(f"cow:{structure}")
    d = make_structure(structure)
    for _ in range(60):
        world, machines, _ = build_world(rng.choice(("unsync", "hoh", "stm")),
                                         random_workload(d, rng))
        while True:
            world.state.canonical()
            w2, m2 = _fork(world, machines)
            w2.state.canonical()  # the memo shared with `world`
            (side, sm), (other, om) = rng.sample([(world, machines), (w2, m2)], 2)
            before, gops = store_record(other.state), gop_records(om)
            mutate(side.state, rng)
            assert store_record(other.state) == before
            assert gop_records(om) == gops
            assert side.state.canonical() == side.state._canonical_bfs()
            # walk on in the world that was not mutated
            live = [p for p, m in sorted(om.items()) if not m.finished]
            rng.shuffle(live)
            stepped = False
            for p in live:
                gops = gop_records(om)
                if om[p].step(other).kind == BLOCKED:
                    continue
                stepped = True
                after = gop_records(om)
                for q, recs in gops.items():
                    assert {n: after[q][n] for n in recs} == recs
                break
            if not stepped:
                break
            world, machines = other, om


def test_a_fork_restarts_an_aborted_operation_alone():
    """A fork shares a complete operation and its finished machine, but
    not an aborted one: restarting it in the fork leaves the original
    world's operation and machine aborted."""
    w = Workload(make_structure("sorted-list"), [Operation("insert", 1)],
                 [(1, Operation("insert", 2)), (2, Operation("insert", 2))])
    world, machines, _ = build_world("stm", w)
    while not all(m.finished for m in machines.values()):
        for m in machines.values():
            if not m.finished:
                m.step(world)
    loser = next(p for p, m in machines.items() if m.op.status == ABORTED)
    winner = 3 - loser
    w2, m2 = _fork(world, machines)
    assert m2[winner] is machines[winner]
    assert w2.ops[machines[winner].op.id] is world.ops[machines[winner].op.id]
    fresh = restart(m2[loser])
    while not fresh.finished:
        fresh.step(w2)
    assert fresh.op is w2.ops[fresh.op.id] and fresh.op.status == COMPLETE
    assert machines[loser].finished and machines[loser].op.status == ABORTED
    assert world.ops[fresh.op.id].status == ABORTED


# -- the configuration DAG against the per-prefix walk ---------------------------


def assert_walks_agree(w, budget):
    """Leaf by leaf: the same schedules in the same order, and the same
    digest, rejections and LSL signature.  Returns the leaf count."""
    n = 0
    for leaf, ref in itertools.zip_longest(
            itertools.islice(schedule_trie(w, IMPLS), budget),
            itertools.islice(prefix_walk(w, IMPLS), budget)):
        assert leaf is not None and ref is not None
        assert leaf.schedule == ref.schedule
        assert leaf.digest == ref.digest
        assert leaf.rejected == ref.rejected
        assert leaf.signature() == ref.signature()
        n += 1
    return n


def test_dag_walk_matches_prefix_walk_on_sweep_workloads():
    """Criterion 4's workloads and budgets."""
    processed = 0
    for w in sweep_workloads():
        processed += assert_walks_agree(w, budget=400)
        if processed >= 6000:
            break


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_dag_walk_matches_prefix_walk_on_thm2(structure, instance):
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    assert assert_walks_agree(w, budget=20000) in (924, 3264, 3432)


def test_dag_walk_matches_prefix_walk_on_thm3():
    w = thm3_bundle(make_structure("sorted-list")).workload
    assert assert_walks_agree(w, budget=2000) == 2000


# configurations of a Thm. 2 walk under `hoh` and `stm`
CONFIGURATIONS = {
    ("sorted-list", "w_present"): 60, ("sorted-list", "w_absent"): 102,
    ("bst", "w_present"): 60, ("bst", "w_absent"): 83,
    ("skiplist", "w_present"): 77, ("skiplist", "w_absent"): 100,
}


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_walk_steps_each_configuration_once(monkeypatch, structure, instance):
    """Independent steps commute, so a Thm. 2 universe of 924-3432
    schedules (3431-12869 prefixes) reaches 60-102 configurations under
    `hoh` and `stm`, and each is expanded once."""
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    configs = []
    init = scheduler._Config.__init__

    def counting(self, *args):
        configs.append(self)
        init(self, *args)

    monkeypatch.setattr(scheduler._Config, "__init__", counting)
    leaves = sum(1 for _ in schedule_trie(w, IMPLS))
    assert leaves in (924, 3264, 3432)
    assert len(configs) == CONFIGURATIONS[structure, instance]
    assert len(set(map(id, configs))) == len(configs)


# -- configuration keys -------------------------------------------------------


def stepped(impl, steps):
    """A workload's world and machines after `steps` round-robin steps of
    `impl`: a find beside two inserts of one key, so that hoh holds and
    queues locks and stm has a read set and a plan."""
    w = Workload(make_structure("sorted-list"), [Operation("insert", 2)],
                 [(1, Operation("find", 3)), (2, Operation("insert", 3)),
                  (3, Operation("insert", 3))])
    world, machines, _ = build_world(impl, w)
    procs = itertools.cycle(sorted(machines))
    for _ in range(steps):
        p = next(procs)
        if not machines[p].finished:
            machines[p].step(world)
    return world, machines


def changed(value):
    """A different value of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 77
    raise TypeError(type(value))


def other_record(state):
    nid = max(state.nodes)
    return {**state.nodes, nid: NodeRec(nid, 99, 99, {"next": None})}


# attribute -> a change of it, per class; None: the key leaves it out
WORLD_CHANGES = {
    "state": lambda x: x.state.write_edges(x.state.root, {"next": None}),
    "locks": lambda x: x.locks.try_acquire(99, "shared", 1),
    "versions": lambda x: x.versions.__setitem__(99, 1),
    "ops": None,  # its machine's `op`, or a setup operation
    "events": None,
    "seq": None,
}
STATE_CHANGES = {
    "nodes": lambda x: setattr(x, "nodes", other_record(x)),
    "root": lambda x: setattr(x, "root", changed(x.root)),
    "tail": lambda x: setattr(x, "tail", changed(x.tail)),
    "counter": lambda x: setattr(x, "counter", changed(x.counter)),
    "_canon": None,  # memo of canonical()
}
LOCK_CHANGES = {
    "shared": lambda x: x.shared.__setitem__(99, {1}),
    "exclusive": lambda x: x.exclusive.__setitem__(99, 1),
    "queues": lambda x: x.queues.__setitem__(99, deque([1])),
}
MACHINE_CHANGES = {
    "def_": None,  # the walk's one structure
    "op": lambda m: setattr(m, "op", dataclasses.replace(m.op, response="x")),
    "attempt": lambda m: setattr(m, "attempt", changed(m.attempt)),
    "invoked": lambda m: setattr(m, "invoked", changed(m.invoked)),
    "finished": lambda m: setattr(m, "finished", changed(m.finished)),
    "gop": lambda m: m.gop.visit(NodeRec(99, 99, 99, {})),
    "plan": lambda m: setattr(m, "plan", None if m.plan else UpdatePlan(True)),
    "write_idx": lambda m: setattr(m, "write_idx", changed(m.write_idx)),
    # stm
    "read_set": lambda m: m.read_set.__setitem__(99, 0),
}

# node -> a bump of its version in the world; node 99 has none yet
VERSION_CHANGES = {
    n: (lambda n: lambda x: x.versions.__setitem__(n, x.versions.get(n, 0) + 1))(n)
    for n in range(100)
}


def version_nodes(world):
    """Every node with a version, and one (99) without."""
    return [*world.versions, 99]


# (part, its object in a stepped world, the function that keys it, the
# names of its fields, changes)
KEYED_PARTS = (
    ("world", lambda world, machines: world, scheduler._world_key, vars,
     WORLD_CHANGES),
    ("state", lambda world, machines: world.state, scheduler._store_layout, vars,
     STATE_CHANGES),
    ("locks", lambda world, machines: world.locks, scheduler._locks_key, vars,
     LOCK_CHANGES),
    ("versions", lambda world, machines: world, scheduler._world_key, version_nodes,
     VERSION_CHANGES),
    ("find", lambda world, machines: machines[1], scheduler._machine_key, vars,
     MACHINE_CHANGES),
    ("insert", lambda world, machines: machines[2], scheduler._machine_key, vars,
     MACHINE_CHANGES),
)


@pytest.mark.parametrize("steps", (3, 7))
@pytest.mark.parametrize("impl", ("unsync", "hoh", "stm", "stm-commit-only"))
@pytest.mark.parametrize("part", [p[0] for p in KEYED_PARTS])
def test_configuration_key_holds_every_field(part, impl, steps):
    """Changing any one attribute of a world, its store, lock tables or a
    machine, or any one node's version, changes its key, except the
    execution record (`events`, `seq`), the structure definition (`def_`)
    and memo cells, which no step reads, and the world's operations (`ops`),
    which the machines key.  The store is keyed by its unmemoized layout."""
    _, get, key, fields, changes = next(p for p in KEYED_PARTS if p[0] == part)
    names = list(fields(get(*stepped(impl, steps))))
    assert set(names) <= set(changes), "an attribute the test does not know"
    for name in names:
        x = get(*stepped(impl, steps))
        before = key(x)
        assert key(x) == before
        change = changes[name]
        if change is None:
            setattr(x, name, object())  # not even read
            assert key(x) == before, name
        else:
            change(x)
            assert key(x) != before, name


# (implementation, steps) after which process 2's machine, an insert, has
# read, planned and written: every field of its key holds a value
PLANNED = (("unsync", 14), ("hoh", 20), ("stm", 14), ("stm-commit-only", 14))


def test_configuration_key_rejects_what_it_does_not_know():
    """A value of a type the key does not know raises; so does an attribute
    the key was not written for on a machine, its operation, its G_op, its
    plan, the world, its store, a record or the lock tables."""
    with pytest.raises(TypeError, match="no configuration key for object"):
        scheduler._machine_key(object())
    for impl, steps in PLANNED:
        world, machines = stepped(impl, steps)
        machines[2].op.val = object()
        with pytest.raises(TypeError, match="no configuration key"):
            scheduler._config_key(world, machines, {})
        for holder in (lambda m: m, lambda m: m.op, lambda m: m.gop, lambda m: m.plan):
            world, machines = stepped(impl, steps)
            holder(machines[2]).extra = 0
            with pytest.raises(TypeError, match="does not cover"):
                scheduler._config_key(world, machines, {})
            with pytest.raises(TypeError, match="does not cover"):
                scheduler._machine_key(machines[2])
    world, _ = stepped("hoh", 5)
    world.locks.owner = 1  # a field the lock tables' key does not cover
    with pytest.raises(TypeError, match="does not cover"):
        scheduler._world_key(world)
    world, _ = stepped("hoh", 5)
    world.tick = 0  # nor does the world's
    with pytest.raises(TypeError, match="does not cover"):
        scheduler._world_key(world)
    world, _ = stepped("hoh", 5)
    world.state.extra = 0  # nor the store's
    with pytest.raises(TypeError, match="does not cover"):
        scheduler._store_layout(world.state)
    rec = NodeRec(99, 99, 99, {"next": None})
    rec.extra = 0  # nor a record's, before its key is memoized
    with pytest.raises(TypeError, match="does not cover"):
        scheduler._rec_key(rec)
    state = stepped("hoh", 5)[0].state
    state.nodes = {**state.nodes, 99: NodeRec(99, 99, object(), {"next": None})}
    with pytest.raises(TypeError, match="no configuration key for object"):
        scheduler._store_layout(state)


def replace_record(m):
    """G_op's first record swapped for one of the same node, unlinked."""
    n = m.gop.order[0]
    r = m.gop.recs[n]
    m.gop.recs[n] = NodeRec(n, r.key, r.val, dict(r.edges), not r.alive)


def repatch_first_write(m):
    n, patch = m.plan.writes[0]
    m.plan.writes[0] = (n, {lab: None for lab in patch})


# a change inside a field of a machine that has read, planned and written
NESTED_CHANGES = {
    "op.status": lambda m: setattr(m.op, "status", "aborted"),
    "op.response": lambda m: setattr(m.op, "response", changed(m.op.response)),
    "gop record": replace_record,
    "plan.writes": repatch_first_write,
    "plan.new_nodes": lambda m: m.plan.new_nodes.append(99),
    "plan.unlink": lambda m: m.plan.unlink.append(99),
}
def rebump_first_read(m):
    n = next(iter(m.read_set))
    m.read_set[n] = changed(m.read_set[n])


IMPL_NESTED_CHANGES = {
    "unsync": {},
    "hoh": {},
    "stm": {"read_set value": rebump_first_read},
    "stm-commit-only": {"read_set value": rebump_first_read},
}


@pytest.mark.parametrize("impl, steps", PLANNED)
def test_configuration_key_holds_every_nested_field(impl, steps):
    """A change inside a machine's operation, G_op, plan or read set
    changes its key."""
    for name, change in {**NESTED_CHANGES, **IMPL_NESTED_CHANGES[impl]}.items():
        _, machines = stepped(impl, steps)
        m = machines[2]
        before = scheduler._machine_key(m)
        assert scheduler._machine_key(m) == before
        change(m)
        assert scheduler._machine_key(m) != before, name


def test_configuration_key_ignores_what_no_read_sees():
    """Lock tables and version counters are read only by node, with an
    empty default, so insertion order and empty holder sets or queues do
    not change their keys."""
    world, _ = stepped("hoh", 7)
    before = scheduler._world_key(world)
    world.locks.shared[98] = set()
    world.locks.queues[98] = deque()
    world.locks.exclusive = dict(reversed(world.locks.exclusive.items()))
    world.versions = dict(reversed(world.versions.items()))
    assert scheduler._world_key(world) == before
    assert scheduler._world_key(world.clone()) == before


def test_configuration_key_holds_every_part():
    """The walk's key: the unsynchronized world and machines, each
    implementation still accepting with its world and machines."""
    world, machines = stepped("unsync", 6)
    hoh = stepped("hoh", 6)
    base = (world, machines, {"hoh": hoh})
    key = scheduler._config_key(*base)
    assert scheduler._config_key(*base) == key
    bumped = world.clone()
    bumped.versions[0] = 1
    variants = [
        (bumped, machines, {"hoh": hoh}),
        (world, stepped("unsync", 7)[1], {"hoh": hoh}),
        (world, machines, {}),
        (world, machines, {"stm": hoh}),
        (world, machines, {"hoh": stepped("hoh", 7)}),
    ]
    for i, v in enumerate(variants):
        assert scheduler._config_key(*v) != key, i


# -- incremental keys and the signature memo -----------------------------------


def key_check_walks():
    """(workload, budget) for the walks the incremental key is checked on:
    every third of the 1- and 2-op sweep workloads (all four setups, every
    operation kind), the six Thm. 2 instances and Thm. 3 under a budget."""
    small = [w for w in sweep_workloads() if len(w.concurrent) <= 2]
    for w in small[::3]:
        yield w, 150
    for structure in ("sorted-list", "bst", "skiplist"):
        b = thm2_bundle(make_structure(structure))
        yield b.w_present, 20000
        yield b.w_absent, 20000
    yield thm3_bundle(make_structure("sorted-list")).workload, 2000


def test_incremental_key_equals_key_from_scratch(monkeypatch):
    """At every DAG edge of every walk, under every implementation, the key
    built from the parent's by re-keying what the step changed is the key
    ``_config_key`` computes from scratch, and each store's memoized key is
    its layout."""
    step_key = scheduler._step_key
    edges = []

    def checked(parent, proc, world, machines, runs):
        key = step_key(parent, proc, world, machines, runs)
        assert key == scheduler._config_key(world, machines, runs)
        for w in (world, *(iw for iw, _ in runs.values())):
            assert scheduler._store_key(w.state) == scheduler._store_layout(w.state)
        edges.append(len(runs))
        return key

    monkeypatch.setattr(scheduler, "_step_key", checked)
    for w, budget in key_check_walks():
        assert sum(1 for _ in itertools.islice(schedule_trie(w, ALL_IMPLS),
                                               budget)) > 0
    assert len(edges) > 5000 and max(edges) == len(ALL_IMPLS)


def test_a_step_keys_one_machine_per_world(monkeypatch):
    """Per expanded edge, at most one machine key is built for the
    unsynchronized world and one for each implementation's."""
    built = []
    machine_key = scheduler._machine_key

    def counting(m):
        built.append(m)
        return machine_key(m)

    monkeypatch.setattr(scheduler, "_machine_key", counting)
    expand = scheduler._expand
    per_edge = []

    def expanding(node, memo, pieces):
        worlds = 1 + len(node.runs)
        del built[:]
        expand(node, memo, pieces)
        per_edge.append((len(built), worlds))

    monkeypatch.setattr(scheduler, "_expand", expanding)
    for w, budget in key_check_walks():
        for _ in itertools.islice(schedule_trie(w, ALL_IMPLS), budget):
            pass
    assert len(per_edge) > 1000
    assert all(n <= worlds for n, worlds in per_edge)


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_signature_built_once_per_configuration_and_order(monkeypatch, structure,
                                                          instance):
    """``lsl_set`` builds a leaf signature once per end configuration and
    precedence relation, not once per leaf: 3 or 6 of them for the
    924-3432 leaves of a Thm. 2 workload."""
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    signature = scheduler.Leaf.signature
    built = []

    def counting(leaf):
        built.append((id(leaf.machines), leaf.precedence))
        return signature(leaf)

    monkeypatch.setattr(scheduler.Leaf, "signature", counting)
    ss = metric.lsl_set(w)
    assert ss.total in (924, 3264, 3432)
    assert len(built) == {"w_present": 3, "w_absent": 6}[instance]
    assert len(set(built)) == len(built)


@pytest.mark.parametrize("budget", (923, 924))
def test_budget_equal_to_the_universe_is_not_partial(budget):
    """The universe of sorted-list `w_present` holds 924 schedules: a
    budget of 924 classifies them all, one less cuts it."""
    w = thm2_bundle(make_structure("sorted-list")).w_present
    scheds, truncated = universe(w, budget)
    assert len(scheds) == budget and truncated == (budget < 924)
    for ss in classify(w, IMPLS, lsl=True, budget=budget).values():
        assert ss.total == budget and ss.partial == (budget < 924)
