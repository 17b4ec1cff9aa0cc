"""Schedule sets, the LSL oracle, comparisons, and optimality gaps."""

import pytest

from schedlab.checkers import check_ls_linearizable
from schedlab.fixtures import fig2a, fig2b, fig3, thm2_bundle, thm3_bundle
from schedlab.metric import (accepted_set, audited_history, compare,
                             incomparability, lsl_set, optimality_gap,
                             verify_witness)
from schedlab.scheduler import Workload, drive, workload_keys
from schedlab.seqspec import Operation, make_structure


@pytest.fixture(scope="module")
def thm2_list():
    return thm2_bundle(make_structure("sorted-list"))


@pytest.fixture(scope="module")
def thm3_list():
    return thm3_bundle(make_structure("sorted-list"))


def test_accepted_sets_thm2(thm2_list):
    b = thm2_list
    hoh = accepted_set("hoh", b.w_present)
    stm = accepted_set("stm", b.w_present)
    assert b.sigma not in hoh
    assert b.sigma in stm
    # hoh accepts exactly the two serial orders of the two inserts
    assert len(hoh.digests) == 2


def test_single_op_sets_trivial(structure):
    w = Workload(structure, [Operation("insert", 1)], [(1, Operation("find", 1))])
    hoh = accepted_set("hoh", w)
    stm = accepted_set("stm", w)
    oracle = lsl_set(w)
    assert len(hoh.digests) == len(stm.digests) == len(oracle.digests) == 1
    assert hoh.digests == stm.digests == oracle.digests


def reference_lsl(w, schedule):
    """The LSL verdict of the schedule by the reference path."""
    keys = workload_keys(w)
    return check_ls_linearizable(audited_history(w, schedule), w.structure, keys,
                                 len(keys) + 1).verdict


def test_lsl_set_membership():
    """Fig. 3's universe is far past the default budget, so its sigma0 is
    checked on the reference path."""
    w, sigma = fig2a()
    assert sigma in lsl_set(w)
    w2, sigma_p = fig2b()
    assert sigma_p not in lsl_set(w2)
    w3, sigma0 = fig3()
    assert reference_lsl(w3, sigma0) is True


def test_compare_reflexive(thm2_list):
    a = accepted_set("hoh", thm2_list.w_present)
    assert compare(a, a).relation == "equal"


def test_compare_rejects_mismatched_workloads(thm2_list, thm3_list):
    a = accepted_set("hoh", thm2_list.w_present)
    b = accepted_set("hoh", thm3_list.workload, budget=50)
    with pytest.raises(ValueError):
        compare(a, b)


def test_compare_rejects_workloads_that_differ_only_in_a_value():
    """An operation's value is part of the workload: a setup insert(1) of
    value 7 is not the default insert(1), whose value is its key."""
    d = make_structure("sorted-list")
    conc = [(1, Operation("find", 1))]
    plain = Workload(d, [Operation("insert", 1)], conc)
    valued = Workload(d, [Operation("insert", 1, 7)], conc)
    assert valued.fingerprint() != plain.fingerprint()
    assert Workload(d, [Operation("insert", 1, 1)], conc).fingerprint() \
        == plain.fingerprint()
    # a value JSON cannot encode is hashed too
    assert Workload(d, [Operation("insert", 1, {7})], conc).fingerprint() \
        != plain.fingerprint()
    with pytest.raises(ValueError, match="different workloads"):
        compare(accepted_set("hoh", plain), accepted_set("hoh", valued))


def test_compare_thm2_stm_strictly_more(thm2_list):
    b = thm2_list
    stm = accepted_set("stm", b.w_present)
    hoh = accepted_set("hoh", b.w_present)
    verdict = compare(stm, hoh)
    assert verdict.relation == "left-strictly-more"
    assert verdict.left_only
    for witness in verdict.left_only:
        assert verify_witness("stm", "hoh", b.w_present, witness)


def test_thm3_witness_redrives(thm3_list):
    t = thm3_list
    assert verify_witness("hoh", "stm", t.workload, t.sigma0)


def test_incomparability_report(structure):
    b2, b3 = thm2_bundle(structure), thm3_bundle(structure)
    rep = incomparability(b2.w_present, b2.sigma, b3.workload, b3.sigma0)
    assert rep.verdict == "incomparable"
    assert rep.sigma_verified and rep.sigma0_verified


def test_optimality_gap_hoh_below_one(thm2_list):
    gap = optimality_gap("hoh", thm2_list.w_present)
    assert gap.ratio < 1
    assert gap.missing
    # the missing witnesses include genuinely stm-acceptable schedules
    assert any(drive("stm", thm2_list.w_present, s).accepted for s in gap.missing)


def test_optimality_gap_stm_below_one(thm3_list):
    """stm misses LSL schedules within the first 250, and at sigma0, which
    is checked on the reference path."""
    t = thm3_list
    gap = optimality_gap("stm", t.workload, budget=250)
    assert gap.ratio < 1 and gap.missing
    assert not drive("stm", t.workload, t.sigma0).accepted
    assert reference_lsl(t.workload, t.sigma0) is True


def test_optimality_gap_sequential_workload(structure):
    w = Workload(structure, [Operation("insert", 2)], [(1, Operation("find", 2))])
    for impl in ("hoh", "stm"):
        gap = optimality_gap(impl, w)
        assert gap.ratio == 1.0


def test_soundness_on_thm2_family(thm2_list):
    """accepted ⊆ LSL on both workloads of the construction."""
    for w in (thm2_list.w_present, thm2_list.w_absent):
        oracle = lsl_set(w)
        for impl in ("hoh", "stm"):
            acc = accepted_set(impl, w)
            assert acc.digests <= oracle.digests


def test_sets_of_a_workload_without_concurrent_operations(structure):
    """One schedule, the empty one: accepted by both, LSL after the audit."""
    w = Workload(structure, [Operation("insert", 1)], [])
    for impl in ("hoh", "stm"):
        acc = accepted_set(impl, w)
        assert acc.total == 1 and len(acc.digests) == 1
    oracle = lsl_set(w)
    assert oracle.total == 1 and len(oracle.digests) == 1
