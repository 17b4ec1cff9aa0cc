"""The walk with its process renamings against the walk without them.

Processes whose operations are equal are interchangeable, and the walk
takes an image configuration's edges by renaming its first member's
(``scheduler._Renaming``).  Turning the renamings off (``_renamings``
returning none) makes the walk step every configuration.  Every yielded
leaf (slots, digest, category, rejections, signature) and every tally must
be the same either way, and so must the configurations the walk makes
(images included) and their order, on the six Thm. 2 instances whole and under
budgets, the BST ABA universe (two pairs of interchangeable processes)
under a budget, the 48 one- and two-operation sweep workloads with an
identical pair, and three and four inserts of one key on the sorted list
and the BST.  These tests also run under two string-hash seeds: leaf
order and witness choice must not hang on string hashing.
"""

import pytest

from schedlab import scheduler
from schedlab.fixtures import thm2_bundle
from schedlab.metric import _lsl_verdict
from schedlab.scheduler import Tally, Workload, build_world, walk
from schedlab.seqspec import Operation, make_structure

from test_counting import whole_workload

IMPLS = ("hoh", "stm")


def walked(w, budget, wanted):
    """The leaves a walk with LSL verdicts yields, each as (slots, digest,
    category, rejections, signature), then its counts and whether it is
    partial."""
    tally = Tally()
    leaves = [(leaf.slots, leaf.digest, leaf.category, leaf.rejected, leaf.signature())
              for leaf in walk(w, IMPLS, budget, _lsl_verdict(w), wanted, tally)]
    return leaves, tally.counts, tally.partial


def configurations_made(monkeypatch, run):
    """`run()`, the keys of the configurations it makes in order, and how
    many of them it makes as images of others."""
    keys, images = [], []
    init = scheduler._Config.__init__

    def recording(self, *args):
        init(self, *args)
        keys.append(self.key)
        images.append(self.image is not None)

    with monkeypatch.context() as m:
        m.setattr(scheduler._Config, "__init__", recording)
        return run(), keys, sum(images)


def assert_renaming_changes_nothing(monkeypatch, w, budgets, wanted=None):
    """Each budget's walk gives the same leaves and tally with the
    renamings as without them, and makes the same configurations in the
    same order; returns the images the walks made."""
    def run():
        return [walked(w, b, wanted) for b in budgets]

    on, on_keys, images = configurations_made(monkeypatch, run)
    with monkeypatch.context() as m:
        m.setattr(scheduler, "_renamings", lambda machines: [])
        off, off_keys, none = configurations_made(m, run)
    assert none == 0
    assert on == off
    assert on_keys == off_keys
    return images


def renamings(w):
    return len(scheduler._renamings(build_world("unsync", w)[1]))


def test_renamings_permute_equal_operations_only():
    """Every permutation but the identity of the processes with equal
    operations (name, key and value), each class among itself."""
    d = make_structure("sorted-list")
    ins, dele = Operation("insert", 2), Operation("delete", 2)
    assert renamings(whole_workload("sorted-list", (1,), (("insert", 2),) * 4)) == 23
    assert renamings(Workload(d, [], [(1, dele), (2, ins), (3, dele), (4, ins)])) == 3
    assert renamings(Workload(d, [], [(5, ins), (3, Operation("insert", 2, 7))])) == 0
    assert renamings(Workload(d, [], [(1, ins), (2, Operation("find", 2))])) == 0


@pytest.mark.parametrize("instance", ("w_present", "w_absent"))
@pytest.mark.parametrize("structure", ("sorted-list", "bst", "skiplist"))
def test_thm2_walks_alike_with_and_without_renaming(monkeypatch, structure, instance):
    """Whole, and at budgets 1, 100, B - 1 and B for a universe of B."""
    w = getattr(thm2_bundle(make_structure(structure)), instance)
    assert renamings(w) == 1
    size = Tally()
    for _ in walk(w, (), None, None, lambda cat: False, size):
        pass
    b = size.total
    assert assert_renaming_changes_nothing(monkeypatch, w, (None, 1, 100, b - 1, b)) > 0


def test_the_aba_universe_walks_alike_under_a_budget(monkeypatch):
    """Two deletes and two inserts of one key on the BST: two pairs of
    interchangeable processes, the first 5000 schedules."""
    w = whole_workload("bst", (), (("delete", 2), ("delete", 2),
                                   ("insert", 2), ("insert", 2)))
    assert renamings(w) == 3
    assert assert_renaming_changes_nothing(monkeypatch, w, (5000,)) > 0


def test_sweep_workloads_with_an_identical_pair_walk_alike(monkeypatch):
    """The sorted list, keys 1-4, each operation twice from each setup:
    48 whole universes."""
    d = make_structure("sorted-list")
    ops = [Operation(n, k) for k in (1, 2, 3, 4) for n in ("insert", "delete", "find")]
    images = 0
    for setup in ((), (2,), (1, 3), (1, 2, 3, 4)):
        for op in ops:
            w = Workload(d, [Operation("insert", k) for k in setup], [(1, op), (2, op)])
            images += assert_renaming_changes_nothing(monkeypatch, w, (None,))
    assert images > 48


@pytest.mark.parametrize("structure", ("sorted-list", "bst"))
@pytest.mark.parametrize("inserts", (3, 4))
def test_repeated_inserts_walk_alike(monkeypatch, structure, inserts):
    """Three and four inserts of key 2 from {1}, counted whole; the leaves
    `hoh` accepts are yielded."""
    w = whole_workload(structure, (1,), (("insert", 2),) * inserts)
    assert assert_renaming_changes_nothing(
        monkeypatch, w, (None,), lambda cat: "hoh" in cat[0]) > 0
