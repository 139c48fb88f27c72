"""Offload scheduling: the fleet's decision round.

Every decision round each robot scores all known edges from the fleet's
readings, shares that table with its peers, adds the fleet's tables
edge-wise, and proposes the edge with the highest combined score.
Selection is damped by a sticky bonus: the incumbent edge gets a small
additive boost, so a rival must beat the incumbent by more than the
bonus before a robot proposes a switch. This hysteresis is what keeps
near-tied utilities from flapping the task back and forth.

The edge-wise sum has one implementation, ``summed_scores``: each
robot adds its own score first and then its peers' in ascending robot
id, with builtin ``sum``. The order decides the last bits of a sum, and
those bits decide near-tied votes. ``fleet_votes`` is the round the
simulation runs, one function of the fleet's one reading store
(``FleetView``) and the incumbent, the fleet's last winner: each edge's
CPU and memory axes are scored once and each link once, the tables
become one score column per edge, each robot sums those columns in its
own order, and the round returns each robot's vote as an edge id.
``Scheduler`` is one robot's side of the same round as a table
exchange (``build_table``, ``observe_peer``, ``propose``); the
simulation builds none, and it stays as the round's test reference and
as patch points of perfbench's tracer.

Staleness rules: an edge whose readings are stale (or missing) scores
zero so it cannot win on outdated data. If every edge has gone stale
at once the robot has nothing current to compare, so it keeps
proposing its previous selection rather than thrash on zeros. Peer
tables older than the staleness window are excluded from the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import ConfigError, NoCandidatesError
from .profiling import NEVER, EdgeData, FleetView
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


def score_columns(tables: Sequence[Mapping[str, float]]) -> dict[str, tuple[float, ...]]:
    """One score column per edge, holding every table's score in table order.

    Edges are the sorted union of the tables' keys; a table without an
    edge puts 0.0 in that edge's column. Raises if no table names an edge.
    """
    edges = sorted(set().union(*tables))
    if not edges:
        raise NoCandidatesError("utility tables name no edges")
    return {edge: tuple(table.get(edge, 0.0) for table in tables) for edge in edges}


def summed_scores(columns: Sequence[Sequence[float]], index: int) -> list[float]:
    """Each column's sum as the table at ``index`` of the columns adds it.

    That table's own score comes first, then every other score in
    column order, added with builtin ``sum``. The order decides the last
    bits, and the last bits decide near-tied votes, so a shared sum or
    ``math.fsum`` would change votes. The golden pins hold on Python
    3.11 and older, where ``sum`` adds floats plainly left to right;
    from 3.12 it compensates its rounding, so the pins that hinge on the
    order (``fleet12x4``) can differ there until the fleet sum is made
    exact (ROADMAP item 2). A Python-level loop would keep the plain
    order on every version, at about 5% of a 40-robot run's time.
    """
    # The second sum starts from the first's float, so together they
    # add own, before, after in one left-to-right order.
    return [sum(col[index + 1:], sum(col[:index], col[index])) for col in columns]


def exchange_and_sum(
    robot_id: str,
    own_table: Mapping[str, float],
    peers: Mapping[str, PeerTable],
    now: float,
    staleness_window: float,
) -> dict[str, float]:
    """Edge-wise sum of this robot's table and every fresh peer table."""
    tables: dict[str, Mapping[str, float]] = {robot_id: own_table}
    for peer_id, peer in peers.items():
        if peer_id == robot_id or now - peer.received_at > staleness_window:
            continue
        tables[peer_id] = peer.table
    order = sorted(tables)
    columns = score_columns([tables[rid] for rid in order])
    return dict(zip(columns, summed_scores(list(columns.values()), order.index(robot_id))))


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
    view: FleetView,
    incumbent: Optional[str],
    task: TaskSpec,
    bounds: NetworkBounds,
    weights: Weights,
    sticky_bonus: float,
) -> dict[str, str]:
    """Every robot's vote in a round where each table reaches every peer at once.

    The voters are the robots of ``view`` that have heard anything, in
    ascending id; a robot that has heard from no edge casts no vote, so
    a round before any reading returns none. Each voter gets the edge it
    would propose after observing every other voter's table, scored
    straight from the store's columns: the CPU and memory axes once per
    edge, the link axis once per fresh (robot, edge) pair, each score
    the float ``calculate_utility`` gives. The incumbent is the fleet's
    last winner, so it is every robot's: its fresh score gets the
    sticky bonus, and a voter whose pairs are all stale keeps it.
    """
    edge_ids = view.edge_ids
    order = [rid for rid in sorted(view.stale) if view.heard(rid)]
    # total_utility adds left to right, so its first two terms are the
    # same float for every robot and are added once per edge.
    w_cpu, w_mem, w_net = weights.w_cpu, weights.w_mem, weights.w_net
    device_terms = [
        0.0 if t == NEVER  # every pair of the edge is stale, so the term is never read
        else w_cpu * cpu_score(cpu_max, cpu_used) + w_mem * memory_score(mem_max, mem_used, task)
        for t, cpu_max, cpu_used, mem_max, mem_used in zip(
            view.device_t, view.cpu_max, view.cpu_used, view.mem_max, view.mem_used)
    ]
    held = None if incumbent is None else edge_ids.index(incumbent)
    tables: list[list[float]] = []
    for rid in order:
        stale = view.stale[rid]
        table = [
            0.0 if is_stale else term + w_net * rssi_score(rssi, bounds)
            for is_stale, term, rssi in zip(stale, device_terms, view.rssi[rid])
        ]
        if held is not None and not stale[held]:
            table[held] += sticky_bonus
        tables.append(table)
    columns = list(zip(*tables))
    votes: dict[str, str] = {}
    for index, rid in enumerate(order):
        if incumbent is not None and all(view.stale[rid]):
            votes[rid] = incumbent  # nothing fresh to compare
            continue
        # edge_ids is sorted, so the first maximum is select_max_edge's
        # winner: exact ties go to the smallest id.
        summed = summed_scores(columns, index)
        votes[rid] = edge_ids[summed.index(max(summed))]
    return votes
