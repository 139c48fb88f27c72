"""Tests for consensus voting and the per-robot executor."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from offloadsim.errors import ConfigError
from offloadsim.consensus import ConsensusExecutor, consensus, quorum_size


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


# -------------------------------------------------------------- executor

def test_stable_proposals_never_move_the_task():
    ex = ConsensusExecutor("r1", 3)
    for it in range(20):
        ex.on_proposals({"r1": "e1", "r2": "e1", "r3": "e1"}, it)
    assert ex.previous == "e1"
    assert all(not d.switched for d in ex.decisions)


def test_executors_agree_given_the_same_proposals():
    fleet = [ConsensusExecutor(f"r{i}", 3) for i in (1, 2, 3)]
    rng = random.Random(11)
    for it in range(50):
        proposals = {f"r{i}": rng.choice(["e1", "e2", "e3"]) for i in (1, 2, 3)}
        decisions = [ex.on_proposals(proposals, it) for ex in fleet]
        assert decisions[0] == decisions[1] == decisions[2]
    assert fleet[0].decisions == fleet[1].decisions == fleet[2].decisions


def test_executor_defers_below_quorum_then_recovers():
    ex = ConsensusExecutor("r1", 4)
    d1 = ex.on_proposals({"r1": "e1", "r2": "e1"}, 0)
    assert d1.quorate and not d1.switched  # first home, not a switch
    assert ex.previous == "e1"
    d2 = ex.on_proposals({"r1": "e2"}, 1)
    assert not d2.quorate and d2.winner == "e1" and not d2.switched
    assert ex.previous == "e1"  # a deferred round moves nothing
    d3 = ex.on_proposals({"r1": "e1", "r2": "e1", "r3": "e1"}, 2)
    assert d3.quorate and d3.winner == "e1" and not d3.switched  # already there
    d4 = ex.on_proposals({"r1": "e2", "r2": "e2", "r3": "e1"}, 3)
    assert d4.switched and d4.winner == "e2"  # a real move still switches
    assert ex.previous == "e2"
    assert ex.decisions == [d1, d2, d3, d4]
