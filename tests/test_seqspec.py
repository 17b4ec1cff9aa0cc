"""Sequential side: dictionary semantics, relevant sets/graphs, compiled
step programs, the Sigma_IS enumeration, and the non-triviality witnesses.

Expected values tagged as derived were computed with the independent
oracles below (edge enumeration, brute-force path search, the abstract
dictionary fold) and frozen."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from schedlab import scheduler, seqspec
from schedlab.checkers import check_ls_linearizable
from schedlab.model import InvariantError
from schedlab.scheduler import free_run, workload_keys
from schedlab.seqspec import (STRUCTURES, BudgetExceeded, DagState, Operation,
                              UpdatePlan,
                              dictionary_apply, make_structure,
                              non_triviality_witness, reachable_states,
                              run_operation, shortest_path_len)

from oracles import (ALL_IMPLS, alive_keys, bounded_reachable_states,
                     compile_program, enumerate_sequential_histories,
                     fold_dictionary, reference_canonical_bfs, relevant_graph,
                     relevant_set, schedule_trie, sequential_run)
from test_acceptance import random_workload
from test_trie import key_check_walks

LIST_KEYS = (1, 2, 3, 4)


def build(def_, keys):
    state = def_.new_state()
    for k in keys:
        run_operation(def_, state, Operation("insert", k))
    return state


def keys_of(state, nids):
    return sorted(state.nodes[n].key for n in nids)


# -- dictionary ----------------------------------------------------------------


def test_dictionary_apply_cases():
    q = {1: 1, 2: 2, 3: 3}
    assert dictionary_apply(q, Operation("insert", 1)) == (q, False)
    assert dictionary_apply({}, Operation("find", 7)) == ({}, False)
    q2, resp = dictionary_apply({1: 1, 3: 3, 4: 4}, Operation("insert", 5))
    assert resp is True and sorted(q2) == [1, 3, 4, 5]


# -- relevant sets and graphs ---------------------------------------------------


def test_relevant_set_list_present():
    d = make_structure("sorted-list")
    st_ = build(d, (1, 3))
    # k=3 present: the node plus both graph neighbours (pred 1, tail succ)
    got = keys_of(st_, relevant_set(d, st_, 3))
    assert got == [1, 3, float("inf")]


def test_relevant_set_two_node_list():
    d = make_structure("sorted-list")
    st_ = build(d, (5,))
    got = relevant_set(d, st_, 5)
    assert keys_of(st_, got) == [float("-inf"), 5, float("inf")]


def test_relevant_set_bst_edge_enumeration():
    d = make_structure("bst")
    st_ = build(d, (2, 1, 3))
    # oracle: enumerate edges incident to the key-3 node directly
    n3 = st_.find_alive(3)
    incident = {n3}
    for nid, rec in st_.nodes.items():
        if n3 in rec.edges.values():
            incident.add(nid)
        if nid == n3:
            incident.update(t for t in rec.edges.values() if t is not None)
    assert relevant_set(d, st_, 3) == incident
    assert keys_of(st_, incident) == [2, 3]


def test_relevant_set_absent_key_insert_frontier():
    d = make_structure("sorted-list")
    st_ = build(d, (1, 3))
    got = keys_of(st_, relevant_set(d, st_, 2))
    assert got == [1, 3]  # successor node 3 plus its in-neighbour 1


def brute_force_paths(state, targets):
    """Oracle: every root-to-target simple path by exhaustive search."""
    nodes, edges = set(), set()

    def walk(n, path, path_edges):
        if n in targets:
            nodes.update(path + [n])
            edges.update(path_edges)
        for lab, t in state.nodes[n].edges.items():
            if t is not None and t not in path:
                walk(t, path + [n], path_edges + [(n, lab, t)])

    walk(state.root, [], [])
    return nodes, edges


def test_relevant_graph_list_largest_key():
    d = make_structure("sorted-list")
    st_ = build(d, (1, 2, 3))
    nodes, edges = relevant_graph(st_, d, 3)
    assert keys_of(st_, nodes) == [float("-inf"), 1, 2, 3, float("inf")]


def test_relevant_graph_key_at_root_child():
    d = make_structure("bst")
    st_ = build(d, (2,))
    nodes, edges = relevant_graph(st_, d, 2)
    assert keys_of(st_, nodes) == [float("-inf"), 2]


def test_relevant_graph_skiplist_matches_path_oracle():
    d = make_structure("skiplist", max_level=2, seed=1)
    st_ = build(d, (1, 2, 3, 4))
    nodes, edges = relevant_graph(st_, d, 3)
    oracle_nodes, oracle_edges = brute_force_paths(st_, relevant_set(d, st_, 3))
    assert nodes == oracle_nodes and edges == oracle_edges


# -- compiled programs ----------------------------------------------------------


def test_compile_list_find_absent():
    d = make_structure("sorted-list")
    st_ = build(d, (1, 3, 4))
    steps, resp = compile_program(d, Operation("find", 5)).steps_against(st_)
    assert resp is False
    assert steps == [("read", "root"), ("read", "key:1"), ("read", "key:3"),
                     ("read", "key:4"), ("read", "tail")]


def test_compile_list_find_present():
    d = make_structure("sorted-list")
    st_ = build(d, (1, 3, 4, 5))
    steps, resp = compile_program(d, Operation("find", 5)).steps_against(st_)
    assert resp is True
    assert steps == [("read", "root"), ("read", "key:1"), ("read", "key:3"),
                     ("read", "key:4"), ("read", "key:5")]


def test_compile_list_insert_between():
    # the figure elides the successor read; the real traversal must visit
    # key 3 to learn that 2 is absent, then writes only the predecessor
    d = make_structure("sorted-list")
    st_ = build(d, (1, 3, 4))
    steps, resp = compile_program(d, Operation("insert", 2)).steps_against(st_)
    assert resp is True
    assert steps[:3] == [("read", "root"), ("read", "key:1"), ("read", "key:3")]
    writes = [s for s in steps if s[0] == "write"]
    assert len(writes) == 1 and writes[0][1] == "key:1"


def test_compile_insert_present_writes_nothing(structure):
    st_ = build(structure, (1, 2, 3))
    steps, resp = compile_program(structure, Operation("insert", 2)).steps_against(st_)
    assert resp is False
    assert all(s[0] == "read" for s in steps)


def test_update_plan_writes_each_node_once():
    """A plan names each written node once: ``hoh`` locks and releases,
    and ``stm``'s commit bumps, once per entry, so a second entry for a
    node raises."""
    UpdatePlan(True, writes=[(1, {"next": 2}), (2, {"next": None})])
    with pytest.raises(InvariantError, match="writes a node twice"):
        UpdatePlan(True, writes=[(1, {"next": 2}), (1, {"left": None})])


# -- sequential runs -------------------------------------------------------------


def test_sequential_run_inserts():
    d = make_structure("sorted-list")
    st_, resp, h = sequential_run(d, [Operation("insert", k) for k in (1, 2, 3)])
    assert resp == [True, True, True]
    assert sorted(alive_keys(st_)) == [1, 2, 3]


def test_sequential_run_empty(structure):
    st_, resp, h = sequential_run(structure, [])
    assert resp == [] and h.events == []
    assert alive_keys(st_) == {}


def test_sequential_run_matches_fold_across_structures():
    rng_ops = [Operation(n, k) for n, k in
               [("insert", 2), ("insert", 4), ("delete", 2), ("find", 2),
                ("insert", 1), ("find", 4)]]
    reference = None
    for name in ("sorted-list", "bst", "skiplist"):
        d = make_structure(name)
        _, resp, _ = sequential_run(d, rng_ops)
        _, oracle = fold_dictionary(rng_ops)
        assert resp == oracle
        if reference is None:
            reference = resp
        assert resp == reference


def test_every_reachable_state_agrees_with_dictionary(structure):
    """Exhaustive (state, op) agreement: stronger than sampling sequences."""
    states = reachable_states(structure, LIST_KEYS)
    for state, path in states:
        abstract, _ = fold_dictionary(path)
        for key in LIST_KEYS:
            for name in ("insert", "delete", "find"):
                st2 = state.clone()
                got = run_operation(structure, st2, Operation(name, key))
                q2, want = dictionary_apply(abstract, Operation(name, key))
                assert got == want, (path, name, key)
                assert sorted(alive_keys(st2)) == sorted(q2)
                structure.audit(st2)


@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "find"]),
                          st.integers(1, 4)), max_size=5))
@settings(max_examples=60, deadline=None)
def test_random_sequences_agree_with_fold(ops):
    operations = [Operation(n, k) for n, k in ops]
    _, oracle = fold_dictionary(operations)
    for name in ("sorted-list", "bst", "skiplist"):
        _, resp, _ = sequential_run(make_structure(name), operations)
        assert resp == oracle


def test_update_locality(structure):
    """Writes land on outgoing edges of relevant-set nodes.  The BST
    two-child delete is allowed its documented superset: the spliced
    successor, the successor's parent, and the removed node."""
    states = reachable_states(structure, LIST_KEYS)
    for state, path in states:
        for key in LIST_KEYS:
            for name in ("insert", "delete"):
                gop_state = state.clone()
                trace = []
                run_operation(structure, gop_state, Operation(name, key), trace)
                wrote = {nid for kind, nid, _ in trace if kind == "w"}
                if not wrote:
                    continue
                allowed = set(relevant_set(structure, state, key))
                if structure.name == "bst" and name == "delete":
                    dnode = state.find_alive(key)
                    rec = state.nodes[dnode]
                    if all(rec.edges.get(lab) is not None for lab in ("left", "right")):
                        s = rec.edges["right"]
                        sp = dnode
                        while state.nodes[s].edges.get("left") is not None:
                            sp, s = s, state.nodes[s].edges["left"]
                        allowed |= {s, sp, dnode}
                assert wrote <= allowed, (path, name, key, wrote, allowed)


# -- Sigma_IS enumeration ---------------------------------------------------------


def test_enumerate_histories_single_key():
    d = make_structure("sorted-list")
    hists = list(enumerate_sequential_histories(d, (1,), 1))
    described = sorted(tuple(o.describe() for o in h.ops.values()) for h in hists)
    # the empty history plus the three one-op histories
    assert described == [(), ("delete(1)",), ("find(1)",), ("insert(1)",)]


def test_enumerate_histories_matches_recursive_count():
    d = make_structure("sorted-list")
    got = sum(1 for _ in enumerate_sequential_histories(d, (1, 2), 2))

    # independent recursion with the same state-pruned extension rule
    def count(state, depth, seen):
        total = 0
        if depth == 0:
            return 0
        for key in (1, 2):
            for name in ("insert", "delete", "find"):
                st2 = state.clone()
                run_operation(d, st2, Operation(name, key))
                total += 1
                canon = st2.canonical()
                if canon not in seen:
                    seen.add(canon)
                    total += count(st2, depth - 1, seen)
        return total

    base = d.new_state()
    want = 1 + count(base, 2, {base.canonical()})
    assert got == want


def test_enumerate_histories_zero_ops(structure):
    hists = list(enumerate_sequential_histories(structure, (1, 2), 0))
    assert len(hists) == 1 and hists[0].events == []


def test_enumerate_histories_budget():
    d = make_structure("sorted-list")
    with pytest.raises(BudgetExceeded):
        list(enumerate_sequential_histories(d, (1, 2, 3, 4), 4, state_cap=3))


# -- non-triviality ----------------------------------------------------------------


def test_non_triviality_witness_verified(structure):
    wit = non_triviality_witness(structure)
    g = structure.new_state()
    for op in wit.ops_to_g:
        run_operation(structure, g, op)
    assert g.find_alive(wit.key) is None
    g2 = g.clone()
    run_operation(structure, g2, Operation("insert", wit.key))
    knode = g2.find_alive(wit.key)
    inbound = [(n, lab) for n, rec in g2.nodes.items() if rec.alive
               for lab, t in rec.edges.items() if t == knode]
    assert len(inbound) == 1
    assert shortest_path_len(g2, inbound[0][0]) >= 2


def test_traverse_never_reads_after_write(structure):
    ops = [Operation("insert", 1), Operation("insert", 3),
           Operation("delete", 1), Operation("insert", 2),
           Operation("delete", 3)]
    state = structure.new_state()
    for op in ops:
        trace = []
        run_operation(structure, state, op, trace)
        kinds = [k for k, _, _ in trace]
        if "w" in kinds:
            first_w = kinds.index("w")
            assert all(k == "w" for k in kinds[first_w:])


def test_canonical_bfs_matches_the_reference(monkeypatch):
    """The one-pass ``_canonical_bfs`` gives the tuple of the BFS whose
    queue holds duplicates (``oracles.reference_canonical_bfs``) on every
    state of seeded sequential runs of the three structures, on every
    world of the key-check walks (mid-schedule stores, with unlinked
    records and None edges) and on every store a seeded free run writes."""
    seen = {"unlinked": 0, "none edge": 0}

    def same(state):
        assert state._canonical_bfs() == reference_canonical_bfs(state)
        seen["unlinked"] += any(not r.alive for r in state.nodes.values())
        seen["none edge"] += any(t is None for r in state.nodes.values()
                                 for t in r.edges.values())

    rng = random.Random("canonical bfs")
    for name in STRUCTURES:
        d = make_structure(name)
        for _ in range(30):
            state = d.new_state()
            same(state)
            for _ in range(rng.randint(1, 8)):
                op = Operation(rng.choice(("insert", "delete", "find")),
                               rng.randint(1, 6))
                run_operation(d, state, op)
                same(state)
    sequential = dict(seen)

    step_key = scheduler._step_key

    def checked(parent, proc, world, machines, runs):
        for w in (world, *(iw for iw, _ in runs.values())):
            same(w.state)
        return step_key(parent, proc, world, machines, runs)

    with monkeypatch.context() as m:
        m.setattr(scheduler, "_step_key", checked)
        for w, budget in key_check_walks():
            assert sum(1 for _ in itertools.islice(schedule_trie(w, ALL_IMPLS),
                                                   budget)) > 0
    walks = dict(seen)

    for meth in ("write_edges", "unlink"):
        def checked_mutation(self, *args, _mutate=getattr(DagState, meth)):
            _mutate(self, *args)
            same(self)
        monkeypatch.setattr(DagState, meth, checked_mutation)
    for i in range(150):
        d = make_structure(STRUCTURES[i % 3])
        free_run(("hoh", "stm")[i // 3 % 2], random_workload(d, rng), seed=i)
    for before, after in ((dict.fromkeys(seen, 0), sequential),
                          (sequential, walks), (walks, seen)):
        assert all(after[k] > before[k] for k in seen), (before, after)


# -- the sequential state space ----------------------------------------------------


@pytest.mark.parametrize("name", ("sorted-list", "bst", "skiplist"))
def test_state_space_fixpoint_equals_the_bounded_bfs(name):
    """The fixpoint is the BFS cut at |K|+1 operations, the bound the
    checkers used before: same shapes, same order, same paths, for every
    key set K of {1..5}."""
    d = make_structure(name)
    for r in range(6):
        for keys in itertools.combinations((1, 2, 3, 4, 5), r):
            got = reachable_states(d, keys)
            want = bounded_reachable_states(d, keys, len(keys) + 1)
            assert [(st.canonical(), path) for st, path in got] == \
                [(st.canonical(), path) for st, path in want], keys
            assert max(len(path) for _, path in got) <= len(keys)


@pytest.mark.parametrize("name", ("sorted-list", "bst", "skiplist"))
def test_state_space_runs_one_insert_per_absent_key(name, monkeypatch):
    """A cold ``reachable_states`` runs the sequential code once per
    (state, key absent from it): no delete and no insert of a present key,
    which end in a shape already seen or in the state itself."""
    calls = []
    run = seqspec.run_operation

    def counting(def_, state, op, trace=None):
        calls.append(op)
        return run(def_, state, op, trace)

    monkeypatch.setattr(seqspec, "run_operation", counting)
    keys = (1, 2, 3, 4)
    states = reachable_states(make_structure(name), keys)
    absent = sum(len(set(keys) - set(alive_keys(st))) for st, _ in states)
    assert len(calls) == absent
    assert {op.name for op in calls} == {"insert"}


def test_each_structure_owns_its_space(monkeypatch):
    """Two structure objects never share a space; over a free-run loop
    each computes the state space once per distinct key set."""
    calls = []
    enumerate_states = seqspec.reachable_states

    def counting(def_, keys):
        calls.append((id(def_), keys))
        return enumerate_states(def_, keys)

    monkeypatch.setattr(seqspec, "reachable_states", counting)
    d1, d2 = make_structure("sorted-list"), make_structure("sorted-list")
    assert d1.space() is d1.space() and d1.space() is not d2.space()
    rng = random.Random(5)
    key_sets = {id(d1): set(), id(d2): set()}
    for i in range(60):
        d = (d1, d2)[i % 2]
        w = random_workload(d, rng)
        keys = workload_keys(w)
        h = free_run(("hoh", "stm")[i % 3 == 0], w, seed=i)
        assert check_ls_linearizable(h, d, keys).verdict is True
        key_sets[id(d)].add(keys)
    assert sorted(calls) == sorted((i, k) for i, ks in key_sets.items() for k in ks)
    assert all(len(ks) > 1 for ks in key_sets.values())
