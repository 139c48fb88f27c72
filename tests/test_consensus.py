"""Tests for consensus voting, allocation memory, and remap plans."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from offloadsim.errors import ConfigError
from offloadsim.consensus import (
    AllocationMemory,
    ConsensusExecutor,
    Decision,
    consensus,
    decide_offload,
    quorum_size,
)


# --------------------------------------------------------------- consensus

def test_plurality_picks_the_most_voted_edge():
    d = consensus({"r1": "e2", "r2": "e2", "r3": "e1"}, previous="e1", total_robots=3, iteration=4)
    assert d.winner == "e2"
    assert d.votes == {"e1": 1, "e2": 2}
    assert d.switched
    assert d.quorate


def test_tie_prefers_the_incumbent():
    d = consensus({"r1": "e1", "r2": "e2"}, previous="e2", total_robots=2, iteration=0)
    assert d.winner == "e2"
    assert not d.switched


def test_tie_without_incumbent_takes_smallest_edge_id():
    d = consensus({"r1": "e3", "r2": "e2"}, previous=None, total_robots=2, iteration=0)
    assert d.winner == "e2"


def test_below_quorum_defers_and_retains_previous():
    d = consensus({"r1": "e1", "r2": "e1"}, previous="e3", total_robots=5, iteration=7)
    assert not d.quorate
    assert d.winner == "e3"
    assert d.votes == {}
    assert not d.switched


def test_quorum_is_half_the_fleet_rounded_up():
    assert quorum_size(1) == 1
    assert quorum_size(2) == 1
    assert quorum_size(3) == 2
    assert quorum_size(4) == 2
    assert quorum_size(5) == 3
    with pytest.raises(ConfigError):
        quorum_size(0)


def test_consensus_is_symmetric_in_proposal_order():
    proposals = {"r1": "e2", "r2": "e1", "r3": "e2", "r4": "e3"}
    base = consensus(proposals, "e1", 4, 0)
    for _ in range(10):
        items = list(proposals.items())
        random.Random(42).shuffle(items)
        assert consensus(dict(items), "e1", 4, 0) == base


@given(
    proposals=st.dictionaries(
        keys=st.sampled_from([f"r{i}" for i in range(1, 8)]),
        values=st.sampled_from([f"e{i}" for i in range(1, 6)]),
        min_size=1,
        max_size=7,
    ),
    previous=st.one_of(st.none(), st.sampled_from([f"e{i}" for i in range(1, 6)])),
)
def test_winner_always_has_maximal_votes(proposals, previous):
    total = len(proposals)
    d = consensus(proposals, previous, total, 0)
    assert d.quorate
    counts = {}
    for e in proposals.values():
        counts[e] = counts.get(e, 0) + 1
    assert d.votes == counts
    assert d.votes[d.winner] == max(counts.values())


# --------------------------------------------------------- offload memory

def test_first_quorate_winner_becomes_home_without_plan():
    # Launching the task at its first home is not a remap.
    memory = AllocationMemory()
    d = Decision(0, "e1", {"e1": 3}, switched=False)
    assert decide_offload(d, memory) is None
    assert memory.last_remapped == "e1"
    assert memory.last_iteration == 0


def test_switch_decision_emits_a_plan_targeting_the_winner():
    memory = AllocationMemory(last_remapped="e1")
    d = Decision(1, "e2", {"e2": 2, "e1": 1}, switched=True)
    plan = decide_offload(d, memory)
    assert plan is not None
    assert plan.target == "e2"
    assert memory.last_remapped == "e2"
    assert memory.last_iteration == 1


def test_unswitched_decision_emits_no_plan():
    memory = AllocationMemory(last_remapped="e1")
    d = Decision(2, "e1", {"e1": 3}, switched=False)
    assert decide_offload(d, memory) is None
    assert memory.last_remapped == "e1"


def test_winner_equal_to_last_remapped_is_suppressed():
    # A deferred round can blur previous-winner bookkeeping; the memory
    # of the last actual remap target must still block a replay.
    memory = AllocationMemory(last_remapped="e1")
    d = Decision(5, "e1", {"e1": 2, "e2": 1}, switched=True)
    assert decide_offload(d, memory) is None


def test_deferred_decision_never_plans():
    memory = AllocationMemory()
    d = Decision(3, "e1", {}, switched=False, quorate=False)
    assert decide_offload(d, memory) is None
    assert memory.last_iteration is None


def test_history_iterations_must_increase():
    memory = AllocationMemory()
    decide_offload(Decision(1, "e1", {"e1": 1}, switched=True), memory)
    with pytest.raises(ConfigError):
        decide_offload(Decision(1, "e2", {"e2": 1}, switched=True), memory)


def test_stable_proposals_never_move_the_task():
    ex = ConsensusExecutor("r1", 3)
    plans = []
    for it in range(20):
        _, plan = ex.on_proposals({"r1": "e1", "r2": "e1", "r3": "e1"}, it)
        if plan:
            plans.append(plan)
    assert plans == []
    assert ex.memory.last_remapped == "e1"
    assert all(not d.switched for d in ex.decisions)


# -------------------------------------------------------------- executor

def test_executors_agree_given_the_same_proposals():
    fleet = [ConsensusExecutor(f"r{i}", 3) for i in (1, 2, 3)]
    rng = random.Random(11)
    for it in range(50):
        proposals = {f"r{i}": rng.choice(["e1", "e2", "e3"]) for i in (1, 2, 3)}
        decisions = [ex.on_proposals(proposals, it)[0] for ex in fleet]
        assert decisions[0] == decisions[1] == decisions[2]
    assert fleet[0].decisions == fleet[1].decisions == fleet[2].decisions


def test_executor_defers_below_quorum_then_recovers():
    ex = ConsensusExecutor("r1", 4)
    d1, p1 = ex.on_proposals({"r1": "e1", "r2": "e1"}, 0)
    assert d1.quorate and p1 is None  # first home, not a remap
    assert ex.memory.last_remapped == "e1"
    d2, p2 = ex.on_proposals({"r1": "e2"}, 1)
    assert not d2.quorate and d2.winner == "e1" and p2 is None
    d3, p3 = ex.on_proposals({"r1": "e1", "r2": "e1", "r3": "e1"}, 2)
    assert d3.quorate and d3.winner == "e1" and p3 is None  # already there
    d4, p4 = ex.on_proposals({"r1": "e2", "r2": "e2", "r3": "e1"}, 3)
    assert p4 is not None and p4.target == "e2"  # a real move still plans
