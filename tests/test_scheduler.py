"""Tests for the per-robot scheduler: scoring, exchange, hysteresis."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadsim.errors import ConfigError, NoCandidatesError
from offloadsim.profiling import EdgeData, Gateway
from offloadsim.scheduler import (
    PeerTable,
    Proposal,
    Scheduler,
    UtilityTableMsg,
    calculate_utility,
    exchange_and_sum,
    fleet_votes,
    select_max_edge,
    validate_sticky_bonus,
)
from offloadsim.utility import (
    DeviceSnapshot,
    NetworkBounds,
    NetworkSnapshot,
    TaskSpec,
    Weights,
    cpu_utility,
)

TOL = 1e-12
TASK = TaskSpec("merge", mem_footprint=0.0)
BOUNDS = NetworkBounds()
CPU_ONLY = Weights(1.0, 0.0, 0.0)


def edge_view(edge_id, cpu_used, *, stale=False, robot_id="r1", rssi=-40.0, t=0.0):
    device = DeviceSnapshot(edge_id, t, 100.0, cpu_used, 4096.0, 0.0)
    network = NetworkSnapshot(robot_id, edge_id, t, rssi)
    return EdgeData(edge_id, device, network, 0.0, 0.0, stale)


def scheduler(robot_id="r1", h=0.05, weights=CPU_ONLY):
    return Scheduler(robot_id, TASK, BOUNDS, weights, sticky_bonus=h)


# ----------------------------------------------------------------- scoring

def test_sticky_bonus_keeps_incumbent_ahead_of_close_rival():
    view = {"e1": edge_view("e1", 50.0), "e2": edge_view("e2", 47.0)}
    table = calculate_utility(view, TASK, BOUNDS, CPU_ONLY,
                              selected_edge="e1", sticky_bonus=0.05)
    assert table["e1"] == pytest.approx(0.55, abs=TOL)
    assert table["e2"] == pytest.approx(0.53, abs=TOL)
    assert select_max_edge(table).max_edge == "e1"


def test_without_bonus_the_rival_wins():
    view = {"e1": edge_view("e1", 50.0), "e2": edge_view("e2", 47.0)}
    table = calculate_utility(view, TASK, BOUNDS, CPU_ONLY,
                              selected_edge="e1", sticky_bonus=0.0)
    assert select_max_edge(table).max_edge == "e2"


def test_stale_edge_scores_zero():
    view = {"e1": edge_view("e1", 0.0, stale=True), "e2": edge_view("e2", 90.0)}
    table = calculate_utility(view, TASK, BOUNDS, CPU_ONLY)
    assert table["e1"] == 0.0
    assert table["e2"] == pytest.approx(0.1, abs=TOL)


def test_absent_edge_scores_zero():
    view = {"e1": None, "e2": edge_view("e2", 40.0)}
    table = calculate_utility(view, TASK, BOUNDS, CPU_ONLY)
    assert table["e1"] == 0.0


def test_all_edges_absent_is_an_error():
    with pytest.raises(NoCandidatesError):
        calculate_utility({"e1": None, "e2": None}, TASK, BOUNDS, CPU_ONLY)
    with pytest.raises(NoCandidatesError):
        calculate_utility({}, TASK, BOUNDS, CPU_ONLY)


def test_sticky_bonus_not_granted_to_stale_incumbent():
    view = {"e1": edge_view("e1", 10.0, stale=True), "e2": edge_view("e2", 90.0)}
    table = calculate_utility(view, TASK, BOUNDS, CPU_ONLY,
                              selected_edge="e1", sticky_bonus=0.3)
    assert table["e1"] == 0.0


def test_sticky_bonus_range_enforced():
    validate_sticky_bonus(0.0)
    validate_sticky_bonus(0.5)
    with pytest.raises(ConfigError):
        validate_sticky_bonus(0.6)
    with pytest.raises(ConfigError):
        validate_sticky_bonus(-0.01)


# ------------------------------------------------------- exchange and vote

def test_three_identical_tables_sum_edgewise():
    own = {"e1": 0.4, "e2": 0.5}
    peers = {
        "r2": PeerTable({"e1": 0.4, "e2": 0.5}, received_at=10.0, iteration=3),
        "r3": PeerTable({"e1": 0.4, "e2": 0.5}, received_at=10.0, iteration=3),
    }
    summed = exchange_and_sum("r1", own, peers, now=10.0, staleness_window=3.0)
    assert summed == pytest.approx({"e1": 1.2, "e2": 1.5}, abs=TOL)
    assert select_max_edge(summed).max_edge == "e2"


def test_stale_peer_tables_are_excluded():
    own = {"e1": 0.4, "e2": 0.5}
    peers = {
        "r2": PeerTable({"e1": 0.9, "e2": 0.1}, received_at=1.0, iteration=0),
    }
    summed = exchange_and_sum("r1", own, peers, now=10.0, staleness_window=3.0)
    assert summed == pytest.approx(own, abs=TOL)


def test_exact_tie_goes_to_smallest_edge_id():
    assert select_max_edge({"e2": 1.0, "e1": 1.0}).max_edge == "e1"
    assert select_max_edge({"e9": 2.0, "e10": 2.0}).max_edge == "e10"  # lexicographic


def test_select_from_empty_table_is_an_error():
    with pytest.raises(NoCandidatesError):
        select_max_edge({})


# -------------------------------------------------------- scheduler object

def test_scheduler_round_trip_single_robot():
    sched = scheduler(h=0.0)
    view = {"e1": edge_view("e1", 60.0), "e2": edge_view("e2", 20.0)}
    msg = sched.build_table(view, now=1.0, iteration=0)
    assert msg.robot_id == "r1" and msg.iteration == 0
    proposal = sched.propose(view, now=1.0, iteration=0)
    assert proposal.max_edge == "e2"


def test_scheduler_uses_fresh_peer_tables():
    sched = scheduler(h=0.0)
    view = {"e1": edge_view("e1", 40.0), "e2": edge_view("e2", 45.0)}
    # Peers strongly prefer e2; combined vote should follow.
    peer = UtilityTableMsg("r2", 0, (("e1", 0.1), ("e2", 0.9)), sent_at=1.0)
    sched.observe_peer(peer, received_at=1.0)
    proposal = sched.propose(view, now=1.0, iteration=0)
    assert proposal.max_edge == "e2"
    assert proposal.table["e2"] == pytest.approx(0.55 + 0.9, abs=TOL)


def test_scheduler_ignores_its_own_broadcast():
    sched = scheduler()
    echo = UtilityTableMsg("r1", 0, (("e1", 9.9),), sent_at=1.0)
    sched.observe_peer(echo, received_at=1.0)
    assert sched.peers == {}


def test_all_stale_retains_previous_selection():
    sched = scheduler()
    sched.commit("e2")
    view = {"e1": edge_view("e1", 10.0, stale=True), "e2": edge_view("e2", 90.0, stale=True)}
    proposal = sched.propose(view, now=5.0, iteration=3)
    assert proposal.max_edge == "e2"


def test_all_stale_without_history_falls_back_to_scores():
    sched = scheduler()
    view = {"e1": edge_view("e1", 10.0, stale=True), "e2": edge_view("e2", 90.0, stale=True)}
    proposal = sched.propose(view, now=5.0, iteration=0)
    assert proposal.max_edge == "e1"  # all-zero table, smallest id wins


def test_commit_updates_the_incumbent():
    sched = scheduler()
    sched.commit("e7")
    assert sched.selected_edge == "e7"
    sched.commit(None)
    assert sched.selected_edge == "e7"


# -------------------------------------------------------------- properties

@given(
    incumbent_load=st.integers(min_value=0, max_value=100),
    rival_load=st.integers(min_value=0, max_value=100),
    h=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_switch_proposed_iff_rival_beats_incumbent_plus_bonus(incumbent_load, rival_load, h):
    sched = scheduler(h=h)
    sched.commit("e1")
    view = {
        "e1": edge_view("e1", float(incumbent_load)),
        "e2": edge_view("e2", float(rival_load)),
    }
    proposal = sched.propose(view, now=1.0, iteration=1)
    score_a = cpu_utility(view["e1"].device)
    score_b = cpu_utility(view["e2"].device)
    if score_b > score_a + h:
        assert proposal.max_edge == "e2"
    else:
        assert proposal.max_edge == "e1"


@given(
    scores=st.dictionaries(
        keys=st.sampled_from([f"e{i}" for i in range(1, 11)]),
        values=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=10,
    )
)
def test_select_max_edge_matches_bruteforce(scores):
    got = select_max_edge(scores).max_edge
    best = max(scores.values())
    expected = sorted(e for e, s in scores.items() if s == best)[0]
    assert got == expected


# ---------------------------------------------------- edge-wise sum oracle

def sum_over_edges(tables):
    """Add per-robot utility tables edge-wise, exactly rounded.

    ``tables`` maps robot id to that robot's edge->score table. The
    result covers the union of all edges seen; a robot missing an entry
    contributes 0 for that edge. Keys come back sorted. Each sum is
    ``math.fsum``'s, so it does not depend on the robot order. This is
    the reference the fleet round's sums are compared against.
    """
    if not tables:
        raise NoCandidatesError("no utility tables to sum")
    edges = set()
    for table in tables.values():
        edges.update(table.keys())
    if not edges:
        raise NoCandidatesError("utility tables name no edges")
    return {
        edge: math.fsum(table.get(edge, 0.0) for table in tables.values())
        for edge in sorted(edges)
    }


def test_sum_over_edges_two_robots_one_edge():
    got = sum_over_edges({"r1": {"e1": 0.5}, "r2": {"e1": 0.3}})
    assert got == pytest.approx({"e1": 0.8}, abs=TOL)


def test_sum_over_edges_single_robot_is_identity():
    table = {"e1": 0.25, "e2": 0.75}
    assert sum_over_edges({"r1": table}) == pytest.approx(table, abs=TOL)


def test_sum_over_edges_two_by_two_and_argmax():
    got = sum_over_edges({"r1": {"e1": 0.2, "e2": 0.9}, "r2": {"e1": 0.9, "e2": 0.3}})
    assert got == pytest.approx({"e1": 1.1, "e2": 1.2}, abs=TOL)
    assert max(got, key=lambda e: (got[e], )) == "e2"


def test_sum_over_edges_missing_entries_count_as_zero():
    got = sum_over_edges({"r1": {"e1": 0.4}, "r2": {"e2": 0.6}})
    assert got == pytest.approx({"e1": 0.4, "e2": 0.6}, abs=TOL)


def test_sum_over_edges_empty_input_rejected():
    with pytest.raises(NoCandidatesError):
        sum_over_edges({})
    with pytest.raises(NoCandidatesError):
        sum_over_edges({"r1": {}})


def test_exchange_and_sum_is_exact_whichever_robot_owns_which_score():
    # 1e16 + 1.0 rounds back to 1e16, so a plain left-to-right sum of
    # this column is 0.0 or 1.0 depending on the order; the exact sum is 1.0.
    for column in itertools.permutations((1e16, 1.0, -1e16)):
        tables = {rid: {"e1": score} for rid, score in zip(("r1", "r2", "r3"), column)}
        for rid, own in tables.items():
            peers = {peer: PeerTable(table, received_at=10.0, iteration=0)
                     for peer, table in tables.items() if peer != rid}
            summed = exchange_and_sum(rid, own, peers, now=10.0, staleness_window=3.0)
            assert summed == {"e1": 1.0}


@given(
    tables=st.dictionaries(
        keys=st.sampled_from(["r1", "r2", "r3", "r4"]),
        values=st.dictionaries(
            keys=st.sampled_from(["e1", "e2", "e3", "e4", "e5"]),
            values=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_sum_over_edges_matches_bruteforce(tables):
    got = sum_over_edges(tables)
    edges = sorted({e for t in tables.values() for e in t})
    for edge in edges:
        expected = 0.0
        for t in tables.values():
            expected += t.get(edge, 0.0)
        assert got[edge] == pytest.approx(expected, abs=TOL)
    assert list(got) == edges


# ------------------------------------------------------------ fleet round

NOW = 10.0
STALE_AFTER = 3.0
AGES = {"fresh": (0.0, 1.0, STALE_AFTER), "stale": (3.5, 8.0)}


@st.composite
def fleet_rounds(draw):
    """The store's readings, the incumbent, bonus and weights for a fleet round.

    Up to 8 robots and 5 edges: one device reading per edge and one
    link reading per (robot, edge) pair, each fresh (age up to exactly
    the staleness window), stale or absent. CPU and link scores are
    multiples of 0.1, so exact ties are common and sums added plainly in
    different orders would round apart. About one robot in four has no
    fresh link at all. The incumbent is the fleet's last winner, so one
    per round.
    """
    n_robots = draw(st.integers(min_value=1, max_value=8))
    edges = [f"e{j}" for j in range(1, draw(st.integers(min_value=1, max_value=5)) + 1)]
    bonus = draw(st.sampled_from([0.0, 0.05, 0.1]))
    weights = draw(st.sampled_from(
        [Weights(0.5, 0.0, 0.5), Weights(0.4, 0.2, 0.4), Weights(0.7, 0.0, 0.3)]))
    state = st.sampled_from(["fresh", "fresh", "fresh", "stale", "absent"])

    def reading_time(kind):
        return None if kind == "absent" else NOW - draw(st.sampled_from(AGES[kind]))

    devices = {}
    for edge_id in edges:
        t = reading_time(draw(state))
        devices[edge_id] = None if t is None else DeviceSnapshot(
            edge_id, t, 100.0, 10.0 * draw(st.integers(min_value=0, max_value=10)),
            4096.0, draw(st.sampled_from([0.0, 1024.0, 2048.0])))
    robots = {}
    for i in range(1, n_robots + 1):
        rid = f"r{i}"
        no_fresh_link = draw(st.integers(min_value=0, max_value=3)) == 3
        links = {}
        for edge_id in edges:
            kind = draw(state)
            t = reading_time("stale" if no_fresh_link and kind == "fresh" else kind)
            # -85 + 5.5 k dBm scores exactly k / 10 on the link axis.
            links[edge_id] = None if t is None else NetworkSnapshot(
                rid, edge_id, t, -85.0 + 5.5 * draw(st.integers(min_value=0, max_value=10)))
        robots[rid] = links
    return devices, robots, draw(st.sampled_from([None, *edges])), bonus, weights


def robot_view(devices, links):
    """One robot's per-edge view of the readings, as its own gateway held it."""
    view = {}
    for edge_id, device in devices.items():
        network = links[edge_id]
        if device is None and network is None:
            view[edge_id] = None
            continue
        device_age = NOW - device.t if device is not None else float("inf")
        network_age = NOW - network.t if network is not None else float("inf")
        stale = max(device_age, network_age) > STALE_AFTER
        view[edge_id] = EdgeData(edge_id, device, network, device_age, network_age, stale)
    return view


def reference_proposals(views, incumbent, bonus, weights, iteration):
    """Each robot's proposal as the round ran before ``fleet_votes``.

    Every robot builds and broadcasts its table from its own view and
    observes every peer's; each then adds its own table and the peers'
    with ``sum_over_edges`` and takes the highest sum, exact ties to the
    smallest edge id. A robot whose present edges are all stale keeps
    its incumbent. Returns the proposals and the schedulers, which hold
    every peer's table.
    """
    scheds = {rid: scheduler(rid, h=bonus, weights=weights) for rid in views}
    for sched in scheds.values():
        sched.commit(incumbent)
    tables = {rid: scheds[rid].build_table(views[rid], NOW, iteration) for rid in scheds}
    proposals = {}
    for rid, sched in scheds.items():
        for peer in sorted(scheds):
            sched.observe_peer(tables[peer], received_at=NOW)
        own = tables[rid].as_dict()
        present = [d for d in views[rid].values() if d is not None]
        if sched.selected_edge is not None and present and all(d.stale for d in present):
            proposals[rid] = Proposal(rid, iteration, sched.selected_edge, own)
            continue
        ordered = {rid: own}
        ordered.update((p, sched.peers[p].table) for p in sorted(sched.peers))
        summed = sum_over_edges(ordered)
        best = max(summed.values())
        winner = min(e for e, v in summed.items() if v == best)
        proposals[rid] = Proposal(rid, iteration, winner, summed)
    return proposals, scheds


def fleet_store(devices, robots):
    """The fleet's store holding the round's readings, written as floats."""
    store = Gateway(robots, devices, STALE_AFTER)
    for d in devices.values():
        if d is not None:
            store.ingest_device(d.edge_id, d.t, d.cpu_max, d.cpu_used, d.mem_max, d.mem_used)
    for links in robots.values():
        for n in links.values():
            if n is not None:
                store.ingest_network(n.robot_id, n.edge_id, n.t, n.rssi)
    return store


def links_now(robot_id, steps):
    """A robot's links to e1, e2, ..., read at ``NOW`` at -85 + 5.5 k dBm."""
    return {f"e{j}": NetworkSnapshot(robot_id, f"e{j}", NOW, -85.0 + 5.5 * k)
            for j, k in enumerate(steps, 1)}


@settings(max_examples=300)
@given(fleet_rounds())
@example(({"e1": None},
          {"r1": {"e1": None}, "r2": {"e1": NetworkSnapshot("r2", "e1", NOW, -40.0)}},
          None, 0.0, Weights(0.5, 0.0, 0.5)))
# Near-tied sums: added plainly with its own score first, r3's sums favour
# e2; under exact sums (math.fsum) r3 votes e1 like every other voter.
@example(({e: DeviceSnapshot(e, NOW, 100.0, cpu, 4096.0, 0.0)
           for e, cpu in (("e1", 40.0), ("e2", 10.0))},
          {rid: links_now(rid, steps)
           for rid, steps in (("r1", (9, 9)), ("r2", (5, 1)), ("r3", (1, 6)), ("r4", (9, 6)))},
          "e1", 0.1, Weights(0.4, 0.2, 0.4)))
def test_fleet_round_matches_table_exchange(round_):
    devices, robots, incumbent, bonus, weights = round_
    iteration = 4
    views = {rid: robot_view(devices, links) for rid, links in robots.items()}
    # A robot that has heard nothing has no table to share and no vote.
    heard = {rid: view for rid, view in views.items()
             if any(data is not None for data in view.values())}
    expected, observed = reference_proposals(heard, incumbent, bonus, weights, iteration)
    store = fleet_store(devices, robots)
    votes = fleet_votes(store, NOW, incumbent, TASK, BOUNDS, weights, bonus)
    assert votes == {rid: p.max_edge for rid, p in expected.items()}
    # Every voter that has a fresh pair reads the same sums, so votes the same edge.
    stale = store.collect(NOW)
    assert len({vote for rid, vote in votes.items() if not all(stale[rid])}) <= 1
    proposed = {rid: sched.propose(heard[rid], NOW, iteration) for rid, sched in observed.items()}
    assert proposed == expected
