"""The counted walk against a leaf-by-leaf enumeration.

`scheduler.walk` counts leaves per category over (configuration,
precedence relation) nodes and enumerates only the leaves a report
names.  Every count it gives, every `ScheduleSet` that `classify`,
`accepted_set` and `lsl_set` build from it, and every `optimality_gap`
(witnesses included) must equal what a leaf-by-leaf enumeration of the
per-prefix walk (`oracles.prefix_walk`) gives, on whole universes and on
budgets that cut them.  The reference checks each leaf's audited replay
in the leaf's own world, memoized by the signature rebuilt from that
world's events (`oracles.events_signature`); the signature's exactness is
tested against unmemoized checks in `test_trie.py`.

The workloads: criterion 4's sweep, the six Thm. 2 instances, Thm. 3 cut
at 2000 schedules, and the BST witness setup {1, 2, 5}, `delete(1)` ∥
`find(5)` ∥ `insert(1)` cut at 3000 (`hoh` accepts 552 of its schedules).
The three soundness witnesses' whole universes and four 4-op universes
(up to 1,219,601,757,024 schedules) are counted against pinned figures, the
largest universes the suite walks.  On every universe here the walk's key
tells configurations apart as the full key does.  Dropping a part it
still keys (`invoked`, `write_idx`, `stm`'s read set, the precedence in
the node key) moves a pinned count or a configuration count, or fails the
walk's depth check.
"""

import itertools
from collections import Counter

import pytest

from schedlab import scheduler
from schedlab.checkers import LINEARIZABLE_CAP, check_ls_linearizable
from schedlab.fixtures import thm2_bundle, thm3_bundle
from schedlab.metric import (_lsl_verdict, accepted_set, audited_history, classify,
                             lsl_set, optimality_gap, workload_keys)
from schedlab.model import InvariantError
from schedlab.scheduler import Tally, Workload, walk
from schedlab.seqspec import Operation, make_structure
from schedlab.sync import StmMachine

from oracles import prefix_walk, schedule_trie
from test_trie import assert_keys_partition_alike, full_keys_by_key
from test_acceptance import sweep_workloads

IMPLS = ("hoh", "stm")


def reference(w, limit):
    """(schedule, digest, implementations accepting, LSL verdict) of each
    of the first `limit` leaves of the per-prefix walk, in trie order."""
    keys = workload_keys(w)
    verdicts = {}
    out = []
    for leaf in itertools.islice(prefix_walk(w, IMPLS), limit):
        sig = leaf.signature()
        if sig not in verdicts:
            verdicts[sig] = check_ls_linearizable(leaf.audited(w), w.structure,
                                                  keys).verdict
        out.append((leaf.schedule, leaf.digest,
                    tuple(i for i in IMPLS if i not in leaf.rejected), verdicts[sig]))
    return out


def members(leaves, pred):
    return {d: s for s, d, acc, v in leaves if pred(acc, v)}


def assert_counts(w, leaves, budget, partial):
    keys = workload_keys(w)

    def verdict(leaf):
        return check_ls_linearizable(audited_history(w, leaf.schedule), w.structure,
                                     keys).verdict

    for by_order, want in ((True, Counter((acc, v) for _, _, acc, v in leaves)),
                           (False, Counter((acc, None) for _, _, acc, _ in leaves))):
        tally = Tally()
        got = list(walk(w, IMPLS, budget, verdict if by_order else None,
                        lambda cat: False, tally))
        assert got == []
        assert tally.counts == want, by_order
        assert tally.total == len(leaves) and tally.partial == partial


def assert_sets(w, leaves, budget, partial):
    sets = classify(w, IMPLS, lsl=True, budget=budget)
    singles = {impl: accepted_set(impl, w, budget) for impl in IMPLS}
    singles["lsl"] = lsl_set(w, budget)
    for name in (*IMPLS, "lsl"):
        want = members(leaves, (lambda acc, v: v is True) if name == "lsl"
                       else (lambda acc, v, name=name: name in acc))
        for ss in (sets[name], singles[name]):
            assert ss.digests == set(want), name
            assert ss.members == want, name
            assert (ss.total, ss.partial) == (len(leaves), partial), name
    for ss in (sets["lsl"], singles["lsl"]):
        assert ss.inconclusive == set(members(leaves, lambda acc, v: v is None))


def assert_gaps(w, leaves, budget, partial):
    for impl in IMPLS:
        gap = optimality_gap(impl, w, budget)
        lsl = members(leaves, lambda acc, v: v is True)
        accepted = members(leaves, lambda acc, v: impl in acc)
        missing = sorted(set(lsl) - set(accepted))
        assert gap.accepted == len(accepted) and gap.lsl == len(lsl), impl
        assert gap.ratio == (len(set(lsl) & set(accepted)) / len(lsl) if lsl else 1.0)
        assert gap.missing == [lsl[d] for d in missing[:3]], impl
        assert gap.inconclusive == sum(1 for *_, v in leaves if v is None)
        assert (gap.total, gap.partial) == (len(leaves), partial)


def cutting_budgets(size):
    """Budgets that cut a universe of `size` schedules, and one that takes
    it whole."""
    return sorted({1, max(1, size // 3), max(1, size - 1), size})


def assert_counted_walk_equals_enumeration(w, limit=20000, budgets=cutting_budgets):
    """For each of the `budgets` of the universe's size, cut at `limit`:
    counts, sets and gaps against the reference.  Returns the number of
    leaves the reference enumerated, at most `limit` + 1."""
    ref = reference(w, limit + 1)
    for budget in budgets(min(len(ref), limit)):
        leaves = ref[:budget]
        partial = len(ref) > budget
        assert_counts(w, leaves, budget, partial)
        assert_sets(w, leaves, budget, partial)
        assert_gaps(w, leaves, budget, partial)
    return len(ref)


def test_counted_walk_on_criterion_4_workloads():
    """Criterion 4's workloads and per-workload budget (400)."""
    processed = 0
    for w in sweep_workloads():
        size = assert_counted_walk_equals_enumeration(
            w, limit=400, budgets=lambda size: sorted({max(1, size // 2), size}))
        processed += min(size, 400)
        if processed >= 6000:
            break


THM2_SIZES = {("sorted-list", "w_present"): 924, ("sorted-list", "w_absent"): 3264,
              ("bst", "w_present"): 924, ("bst", "w_absent"): 924,
              ("skiplist", "w_present"): 3432, ("skiplist", "w_absent"): 3432}


@pytest.mark.parametrize("structure, instance", sorted(THM2_SIZES))
def test_counted_walk_on_thm2(structure, instance):
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    assert assert_counted_walk_equals_enumeration(w) == THM2_SIZES[structure, instance]


def test_counted_walk_on_thm3():
    w = thm3_bundle(make_structure("sorted-list")).workload
    assert assert_counted_walk_equals_enumeration(w, limit=2000) == 2001


def test_counted_walk_on_the_bst_witness():
    """A universe of 701218 schedules (`hoh` accepts 552): the first 3000
    and budgets that cut them."""
    w = Workload(make_structure("bst"),
                 [Operation("insert", k) for k in (1, 2, 5)],
                 [(1, Operation("delete", 1)), (2, Operation("find", 5)),
                  (3, Operation("insert", 1))])
    assert assert_counted_walk_equals_enumeration(w, limit=3000) == 3001


# universes counted whole: (structure, setup, concurrent operations) ->
# total, LSL and, per implementation, (accepted, accepted but not LSL)
WHOLE_UNIVERSES = {
    ("skiplist", (3, 4), (("find", 4), ("insert", 5))):
        (3003, 2149, (63, 6), (1613, 238)),
    ("bst", (3, 4, 5), (("delete", 3), ("find", 4), ("insert", 2))):
        (1410159, 796889, (101, 1), (65228, 4200)),
    ("bst", (1, 2, 5), (("delete", 1), ("find", 5), ("insert", 1))):
        (701218, 684738, (552, 1), (197552, 0)),
    ("sorted-list", (1,), (("insert", 4), ("delete", 1), ("insert", 1), ("find", 4))):
        (10664898618, 2197589998, (1013, 0), (90876446, 0)),
    ("bst", (2, 4), (("insert", 3), ("delete", 2), ("find", 3), ("insert", 1))):
        (403865862526, 214264847168, (1416, 73), (1118610501, 69012405)),
    ("bst", (), (("delete", 2), ("delete", 2), ("insert", 2), ("insert", 2))):
        (95613728, 33499040, (24, 0), (188032, 0)),
    ("sorted-list", (1,), (("insert", 2),) * 4):
        (1219601757024, 7519254624, (24, 0), (1196923392, 0)),
}
WHOLE_IDS = ["skiplist", "bst-345", "bst-125", "sorted-list-1", "bst-24", "bst-aba",
             "sorted-list-2222"]


def whole_workload(structure, setup, ops):
    return Workload(make_structure(structure), [Operation("insert", k) for k in setup],
                    [(p, Operation(name, key)) for p, (name, key) in enumerate(ops, 1)])


def whole_tally(w):
    """The walk's tally of the whole universe under `hoh` and `stm`, with
    LSL verdicts; no leaf is wanted."""
    tally = Tally()
    assert list(walk(w, IMPLS, None, _lsl_verdict(w), lambda cat: False, tally)) == []
    return tally


@pytest.mark.parametrize("witness", WHOLE_UNIVERSES, ids=WHOLE_IDS)
def test_soundness_witness_universes_counted_whole(witness):
    """Whole universes, counted under `hoh` and `stm` with LSL verdicts
    (skiplist heights 3, 1, 3 for keys 3, 4, 5): the soundness witnesses,
    whose counts pin the open soundness holes (an accepted schedule that
    is not LSL), two 4-op universes, the largest the suite counts, of
    which the BST's is a witness too, and a 4-op universe whose LSL count
    needs the precedence in the walk's node key: two deletes and two
    inserts of one key, where schedules that read the same values order
    their operations differently (an ABA case), and four inserts of one
    key, whose four interchangeable processes give the walk 23 renamings
    per configuration.  No verdict is inconclusive."""
    tally = whole_tally(whole_workload(*witness))
    assert not tally.partial and tally.count(lambda cat: cat[1] is None) == 0
    assert (tally.total, tally.count(lambda cat: cat[1] is True),
            *((tally.count(lambda cat: impl in cat[0]),
               tally.count(lambda cat: impl in cat[0] and cat[1] is not True))
              for impl in IMPLS)) == WHOLE_UNIVERSES[witness]


def test_key_partitions_as_the_full_key_on_counted_universes(monkeypatch):
    """On every universe counted here, the walk's key and the full key
    (``oracles.full_config_key``), which also holds what the machines and
    the store determine, give the same configurations: every memo hit of
    the walk's key is one of the full key, and they are as many."""
    walks = full_keys_by_key(monkeypatch)

    def count(w, budget):
        tally = Tally()
        assert list(walk(w, IMPLS, budget, None, lambda cat: False, tally)) == []
        return tally.total

    processed = 0
    for w in sweep_workloads():  # as criterion 4's test takes them
        processed += count(w, 400)
        if processed >= 6000:
            break
    for structure, instance in sorted(THM2_SIZES):
        count(getattr(thm2_bundle(make_structure(structure)), instance), None)
    count(thm3_bundle(make_structure("sorted-list")).workload, 2000)
    count(whole_workload("bst", (1, 2, 5), (("delete", 1), ("find", 5), ("insert", 1))),
          3000)
    for witness in WHOLE_UNIVERSES:
        count(whole_workload(*witness), None)
    assert_keys_partition_alike(walks)


# -- every part the walk keys is needed -----------------------------------------
# Each test drops one part from the key inside the test, and a pinned count,
# a configuration count or the depth check moves.


def test_the_key_needs_invoked(monkeypatch):
    """Without ``invoked``, an invocation leaves the key as it was, so the
    Thm. 2 sorted-list `w_present` walk meets its root again one step
    below it."""
    w = thm2_bundle(make_structure("sorted-list")).w_present
    assert whole_tally(w).total == 924
    monkeypatch.setattr(scheduler, "_MACHINE_LAYOUT", lambda d: (d["write_idx"],))
    with pytest.raises(InvariantError, match="configuration reached at depths 0 and 1"):
        whole_tally(w)


def test_the_key_needs_write_idx(monkeypatch):
    """Without ``write_idx``, the store alone must tell how far each plan
    has gone, and it cannot once a write overwrites another's edge: on the
    skiplist (heights 3, 3, 3, 1, 3 for keys 1-5) with setup {2, 4},
    `insert(5)` ∥ `insert(5)` (11,338 schedules), each insert links its own
    node after key 4, so one's write followed by the other's leaves the
    store as the other's alone, and the walk meets one configuration at
    depths 14 and 13."""
    w = whole_workload("skiplist", (2, 4), (("insert", 5), ("insert", 5)))
    assert [w.structure.height(k) for k in range(1, 6)] == [3, 3, 3, 1, 3]
    assert whole_tally(w).total == 11338
    monkeypatch.setattr(scheduler, "_MACHINE_LAYOUT", lambda d: (d["invoked"],))
    with pytest.raises(InvariantError, match="configuration reached at depths 14 and 13"):
        whole_tally(w)


def test_the_key_needs_the_read_set(monkeypatch):
    """Without ``stm``'s read set, the BST universe with setup {} and
    `delete(3)` ∥ `insert(1)` ∥ `insert(3)` (41531 schedules) has 585
    configurations, not 588, and `stm` accepts other schedules: machines
    whose read sets differ, and so whose version checks differ, meet."""
    w = whole_workload("bst", (), (("delete", 3), ("insert", 1), ("insert", 3)))
    tallies = []
    keys = expanded_keys(monkeypatch, lambda: tallies.append(whole_tally(w)))
    machine_key = scheduler._machine_key
    monkeypatch.setattr(scheduler, "_machine_key", lambda m: machine_key(m)[:2]
                        if isinstance(m, StmMachine) else machine_key(m))
    dropped = expanded_keys(monkeypatch, lambda: tallies.append(whole_tally(w)))
    assert (len(keys), len(dropped)) == (588, 585)
    assert tallies[0].total == tallies[1].total == 41531
    assert tallies[0].counts != tallies[1].counts


class OneRelation(dict):
    """A node's counts under one relation, whichever relation asks: the
    precedence left out of the walk's node key, which then asks a leaf
    configuration's verdict once, with the relation it first meets."""

    def get(self, _, default=None):
        return super().get(None, default)

    def __getitem__(self, _):
        return super().__getitem__(None)

    def __setitem__(self, _, value):
        super().__setitem__(None, value)

    def __contains__(self, _):
        return super().__contains__(None)


def test_the_node_key_needs_the_precedence(monkeypatch):
    """Without the precedence in the node key, the LSL count of the BST
    universe of two deletes and two inserts of one key moves from its
    pinned 33,499,040 (to 33,506,240)."""
    witness = ("bst", (), (("delete", 2), ("delete", 2), ("insert", 2), ("insert", 2)))
    lsl = WHOLE_UNIVERSES[witness][1]
    init = scheduler._Config.__init__

    def one_relation(self, *args):
        init(self, *args)
        self.counts = OneRelation()

    monkeypatch.setattr(scheduler._Config, "__init__", one_relation)
    tally = whole_tally(whole_workload(*witness))
    assert tally.total == WHOLE_UNIVERSES[witness][0]
    assert tally.count(lambda cat: cat[1] is True) != lsl


def test_an_inconclusive_verdict_is_counted_as_the_reference():
    """Past ``LINEARIZABLE_CAP`` operations the LSL verdict is inconclusive
    on both paths: on the sorted list with setup {1..9}, insert(10) ∥
    find(11) has 11 audit finds, 13 operations in all.  Every one of the
    first 30 leaves is inconclusive; ``lsl_set`` reports each of them as
    the reference does, and ``optimality_gap`` counts them all."""
    w = Workload(make_structure("sorted-list"), [Operation("insert", k) for k in range(1, 10)],
                 [(1, Operation("insert", 10)), (2, Operation("find", 11))])
    assert len(w.concurrent) + len(workload_keys(w)) == LINEARIZABLE_CAP + 1
    ref = reference(w, 30)
    assert all(v is None for *_, v in ref)
    lsl = lsl_set(w, 30)
    assert lsl.inconclusive == set(members(ref, lambda acc, v: v is None))
    assert not lsl.digests and lsl.partial
    gap = optimality_gap("hoh", w, 30)
    assert (gap.inconclusive, gap.total, gap.lsl) == (30, 30, 0)


@pytest.mark.parametrize("budget", (0, -3))
def test_a_budget_below_one_counts_nothing(budget):
    """No schedule fits, and the universe holds one, so the walk is partial
    at once."""
    w = thm2_bundle(make_structure("sorted-list")).w_present
    for ss in classify(w, IMPLS, lsl=True, budget=budget).values():
        assert (ss.total, ss.partial, ss.digests) == (0, True, frozenset())
    gap = optimality_gap("hoh", w, budget)
    assert (gap.total, gap.partial, gap.missing, gap.ratio) == (0, True, [], 1.0)


def expanded_keys(monkeypatch, run):
    """The keys of the configurations `run()` creates."""
    keys = []
    init = scheduler._Config.__init__

    def recording(self, depth, key, *args):
        keys.append(key)
        init(self, depth, key, *args)

    monkeypatch.setattr(scheduler._Config, "__init__", recording)
    run()
    monkeypatch.undo()
    return keys


@pytest.mark.parametrize("budget", (1, 100, 1000, 3263))
def test_the_counted_descent_expands_only_what_the_first_leaves_reach(monkeypatch,
                                                                       budget):
    """Counting the first B schedules, with verdicts and witnesses, creates
    no configuration that enumerating the first B + 1 leaves does not."""
    w = thm2_bundle(make_structure("sorted-list")).w_absent
    counted = expanded_keys(monkeypatch, lambda: optimality_gap("hoh", w, budget))
    enumerated = expanded_keys(monkeypatch, lambda: list(
        itertools.islice(schedule_trie(w, ("hoh",)), budget + 1)))
    assert len(set(counted)) == len(counted)
    assert set(counted) <= set(enumerated)
