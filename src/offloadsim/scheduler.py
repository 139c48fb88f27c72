"""Offload scheduling: the fleet's decision round.

Every decision round each robot scores all known edges from the fleet's
readings, shares that table with its peers, adds the fleet's tables
edge-wise, and proposes the edge with the highest combined score.
Selection is damped by a sticky bonus: the incumbent edge gets a small
additive boost, so a rival must beat the incumbent by more than the
bonus before a robot proposes a switch. This hysteresis is what keeps
near-tied utilities from flapping the task back and forth.

Each edge's fleet sum is exactly rounded (``math.fsum``), so it does not
depend on the order the scores are added in, and every robot that
votes on the sums votes for the same edge. ``fleet_votes`` is the round
the simulation runs, one function of the fleet's one reading store
(``profiling.Gateway``), the round's time and the incumbent, the
fleet's last winner: it asks the store which pairs are stale at that
time, reads the store's columns in place, scores every fresh (robot,
edge) pair in one pass, sums each edge once and takes one argmax, and
the round returns each robot's vote as an edge id. ``Scheduler`` is
one robot's side of the same round as a table exchange
(``build_table``, ``observe_peer``, ``propose``); the simulation builds
none, and it stays as the round's test reference and as patch points
of perfbench's tracer.

Staleness rules: an edge whose readings are stale (or missing) scores
zero so it cannot win on outdated data. If every edge has gone stale
at once the robot has nothing current to compare, so it keeps
proposing its previous selection rather than thrash on zeros. Peer
tables older than the staleness window are excluded from the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ConfigError, NoCandidatesError
from .profiling import NEVER, EdgeData, Gateway
from .utility import (
    NetworkBounds,
    TaskSpec,
    Weights,
    cpu_score,
    cpu_utility,
    memory_score,
    memory_utility,
    rssi_score,
    rssi_utility,
    total_utility,
)

DEFAULT_STICKY_BONUS = 0.05
MAX_STICKY_BONUS = 0.5


@dataclass(frozen=True)
class UtilityTableMsg:
    """One robot's scored edge table, as broadcast to its peers."""

    robot_id: str
    iteration: int
    scores: tuple[tuple[str, float], ...]
    sent_at: float

    def as_dict(self) -> dict[str, float]:
        return dict(self.scores)


@dataclass(frozen=True)
class PeerTable:
    """A peer's most recent table and when it arrived."""

    table: dict[str, float]
    received_at: float
    iteration: int


@dataclass(frozen=True)
class Proposal:
    """A robot's vote for where the task should run this iteration."""

    robot_id: str
    iteration: int
    max_edge: str
    table: dict[str, float]


def validate_sticky_bonus(value: float) -> float:
    if not (0.0 <= value <= MAX_STICKY_BONUS):
        raise ConfigError(
            f"sticky_bonus must be in [0, {MAX_STICKY_BONUS}], got {value}"
        )
    return value


def calculate_utility(
    edge_data: Mapping[str, Optional[EdgeData]],
    task: TaskSpec,
    bounds: NetworkBounds,
    weights: Weights,
    selected_edge: Optional[str] = None,
    sticky_bonus: float = 0.0,
) -> dict[str, float]:
    """Score every known edge from one robot's gateway view.

    Stale or absent edges score 0. The selected edge's fresh score gets
    the sticky bonus on top, so reported scores live in [0, 1 + bonus].
    Raises if no edge has ever been heard from at all.
    """
    validate_sticky_bonus(sticky_bonus)
    if not edge_data:
        raise NoCandidatesError("no edges known to the scheduler")
    if all(data is None for data in edge_data.values()):
        raise NoCandidatesError("all edges absent from the gateway view")
    table: dict[str, float] = {}
    for edge_id in sorted(edge_data):
        data = edge_data[edge_id]
        if data is None or data.stale or data.device is None or data.network is None:
            table[edge_id] = 0.0
            continue
        score = total_utility(
            cpu_utility(data.device),
            memory_utility(data.device, task),
            rssi_utility(data.network, bounds),
            weights,
        )
        if edge_id == selected_edge:
            score += sticky_bonus
        table[edge_id] = score
    return table


def exchange_and_sum(
    robot_id: str,
    own_table: Mapping[str, float],
    peers: Mapping[str, PeerTable],
    now: float,
    staleness_window: float,
) -> dict[str, float]:
    """Edge-wise sum of this robot's table and every fresh peer table.

    Edges are the sorted union of the tables' keys, and a table without
    an edge adds 0 to it. Each sum is exactly rounded (``math.fsum``),
    so it is the same whichever robot adds it. Raises if no table names
    an edge.
    """
    tables = [own_table] + [
        peer.table for peer_id, peer in peers.items()
        if peer_id != robot_id and now - peer.received_at <= staleness_window
    ]
    edges = sorted(set().union(*tables))
    if not edges:
        raise NoCandidatesError("utility tables name no edges")
    return {edge: math.fsum(table.get(edge, 0.0) for table in tables) for edge in edges}


def select_max_edge(
    summed: Mapping[str, float],
    robot_id: str = "",
    iteration: int = 0,
) -> Proposal:
    """Pick the highest-scoring edge; exact ties go to the smallest id."""
    if not summed:
        raise NoCandidatesError("no edges to select from")
    winner = min(summed.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return Proposal(robot_id=robot_id, iteration=iteration, max_edge=winner, table=dict(summed))


class Scheduler:
    """One robot's view of the decision pipeline.

    The object holds only slow-changing state: the committed selection
    and the latest peer tables. Scoring itself is pure, so calling it
    twice on the same view gives the same table.
    """

    def __init__(
        self,
        robot_id: str,
        task: TaskSpec,
        bounds: NetworkBounds,
        weights: Weights,
        sticky_bonus: float = DEFAULT_STICKY_BONUS,
        peer_staleness: float = 3.0,
    ) -> None:
        if peer_staleness <= 0.0:
            raise ConfigError(f"peer_staleness must be positive, got {peer_staleness}")
        self.robot_id = robot_id
        self.task = task
        self.bounds = bounds
        self.weights = weights
        self.sticky_bonus = validate_sticky_bonus(sticky_bonus)
        self.peer_staleness = peer_staleness
        self.selected_edge: Optional[str] = None
        self.peers: dict[str, PeerTable] = {}

    def score(self, edge_data: Mapping[str, Optional[EdgeData]]) -> dict[str, float]:
        """This robot's table: every known edge scored from its own view."""
        return calculate_utility(edge_data, self.task, self.bounds, self.weights,
                                 selected_edge=self.selected_edge, sticky_bonus=self.sticky_bonus)

    def build_table(self, edge_data: Mapping[str, Optional[EdgeData]],
                    now: float, iteration: int) -> UtilityTableMsg:
        scores = tuple(sorted(self.score(edge_data).items()))
        return UtilityTableMsg(self.robot_id, iteration, scores, sent_at=now)

    def observe_peer(self, msg: UtilityTableMsg, received_at: float) -> None:
        if msg.robot_id == self.robot_id:
            return
        self.peers[msg.robot_id] = PeerTable(msg.as_dict(), received_at, msg.iteration)

    def propose(self, edge_data: Mapping[str, Optional[EdgeData]],
                now: float, iteration: int) -> Proposal:
        """Score, sum with the fresh peer tables, and vote for an edge.

        With every edge stale at once the robot keeps its previous
        selection instead of voting on all-zero scores.
        """
        own = self.score(edge_data)
        present = [d for d in edge_data.values() if d is not None]
        if self.selected_edge is not None and all(d.stale for d in present):
            return Proposal(self.robot_id, iteration, self.selected_edge, own)
        summed = exchange_and_sum(self.robot_id, own, self.peers, now, self.peer_staleness)
        return select_max_edge(summed, self.robot_id, iteration)

    def commit(self, winner: Optional[str]) -> None:
        """Adopt the fleet's consensus winner as the new incumbent."""
        if winner is not None:
            self.selected_edge = winner


def fleet_votes(
    store: Gateway,
    now: float,
    incumbent: Optional[str],
    task: TaskSpec,
    bounds: NetworkBounds,
    weights: Weights,
    sticky_bonus: float,
) -> dict[str, str]:
    """Every robot's vote in a round where each table reaches every peer at once.

    The voters are the store's robots that hold any reading: a device's,
    which every robot shares, or one of their own links'. A robot that
    has heard from no edge casts no vote, so a round before any reading
    returns none. Every pair fresh at ``now`` (``store.collect``) is
    scored straight from the store's columns, the CPU and memory axes
    once per edge and the link axis once per pair, each score the float
    ``calculate_utility`` gives; stale pairs score 0 and are left out.
    The incumbent is the fleet's last winner, so it is every robot's:
    each of its fresh scores gets the sticky bonus. Each edge is summed
    once, exactly, and every voter votes the edge with the highest sum,
    except that a voter whose pairs are all stale keeps the incumbent.
    """
    stale = store.collect(now)
    edge_ids = store.edge_ids
    # total_utility adds left to right, so its first two terms are the
    # same float for every robot and are added once per edge.
    w_cpu, w_mem, w_net = weights.w_cpu, weights.w_mem, weights.w_net
    device_terms = [
        0.0 if t == NEVER  # every pair of the edge is stale, so the term is never read
        else w_cpu * cpu_score(cpu_max, cpu_used) + w_mem * memory_score(mem_max, mem_used, task)
        for t, cpu_max, cpu_used, mem_max, mem_used in zip(
            store.device_t, store.cpu_max, store.cpu_used, store.mem_max, store.mem_used)
    ]
    columns: list[list[float]] = [[] for _ in edge_ids]
    for rid, mask in stale.items():
        for column, is_stale, term, rssi in zip(columns, mask, device_terms, store.rssi[rid]):
            if not is_stale:
                column.append(term + w_net * rssi_score(rssi, bounds))
    if incumbent is not None:
        held = store.column[incumbent]
        columns[held] = [score + sticky_bonus for score in columns[held]]
    sums = [math.fsum(column) for column in columns]
    # edge_ids is sorted, so the first maximum is select_max_edge's
    # winner: exact ties go to the smallest id.
    winner = edge_ids[sums.index(max(sums))]
    device_heard = max(store.device_t) > NEVER
    return {
        rid: incumbent if incumbent is not None and all(mask) else winner
        for rid, mask in stale.items()
        if device_heard or max(store.link_t[rid]) > NEVER
    }
