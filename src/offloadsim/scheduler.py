"""Per-robot offload scheduler.

Every decision round each robot scores all known edges from the fleet's
readings, shares that table with its peers, adds the fleet's tables
edge-wise, and proposes the edge with the highest combined score.
Selection is damped by a sticky bonus: the currently selected edge gets
a small additive boost, so a rival must beat the incumbent by more than
the bonus before the robot proposes a switch. This hysteresis is what
keeps near-tied utilities from flapping the task back and forth.

The edge-wise sum has one implementation, ``summed_scores``: each
robot adds its own score first and then its peers' in ascending robot
id, with builtin ``sum``. The order decides the last bits of a sum, and
those bits decide near-tied votes. ``fleet_proposals`` runs a round in
which every table reaches every robot at once, straight from the
fleet's one reading store: each edge's CPU and memory axes are scored
once and each link once, the tables become one score column per edge,
and each robot sums those columns in its own order.
``Scheduler.propose`` is the same vote for one robot, from a per-edge
view of its own (``EdgeData``), against the peer tables it has observed.

Staleness rules: an edge whose readings are stale (or missing) scores
zero so it cannot win on outdated data. If every edge has gone stale
at once the robot has nothing current to compare, so it keeps
proposing its previous selection rather than thrash on zeros. Peer
tables older than the staleness window are excluded from the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Optional, Sequence

from .errors import ConfigError, NoCandidatesError
from .profiling import EdgeData, FleetView
from .utility import (
    NetworkBounds,
    TaskSpec,
    Weights,
    cpu_utility,
    memory_utility,
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


def summed_scores(columns: Mapping[str, Sequence[float]], index: int) -> dict[str, float]:
    """Edge-wise sum as the table at ``index`` of the columns adds it.

    That table's own score comes first, then every other score in
    column order, added with builtin ``sum`` from 0. Keep both the order
    and the builtin: a shared sum, ``math.fsum`` or a ``+=`` loop rounds
    differently, and the last bits decide near-tied votes.
    """
    return {
        edge: sum(chain((col[index],), col[:index], col[index + 1:]))
        for edge, col in columns.items()
    }


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
    return summed_scores(columns, order.index(robot_id))


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


def fleet_proposals(
    schedulers: Mapping[str, Scheduler],
    view: FleetView,
    iteration: int,
) -> dict[str, Proposal]:
    """Every robot's vote in a round where each table reaches every peer at once.

    Gives each robot the proposal it would make after observing every
    other robot's fresh table, scored straight from the fleet's one
    store: the CPU and memory axes once per edge, the link axis once per
    fresh (robot, edge) pair, each score the float ``calculate_utility``
    gives. The fleet shares one task, one set of bounds and one weight
    vector. Robots are scored in ascending id, so the first robot that
    has heard from no edge raises.
    """
    order = sorted(schedulers)
    if not order or not view.edge_ids:
        raise NoCandidatesError("no edges known to the scheduler")
    first = schedulers[order[0]]
    task, bounds, weights = shared = (first.task, first.bounds, first.weights)
    if any((s.task, s.bounds, s.weights) != shared for s in schedulers.values()):
        raise ConfigError("a fleet round needs one task, bounds and weights for every robot")
    # total_utility adds left to right, so its first two terms are the
    # same float for every robot and are added once per edge.
    device_terms = [
        None if d is None
        else weights.w_cpu * cpu_utility(d) + weights.w_mem * memory_utility(d, task)
        for d in view.devices
    ]
    own: list[dict[str, float]] = []
    keeps: list[bool] = []
    for rid in order:
        sched = schedulers[rid]
        table: dict[str, float] = {}
        present = fresh = False
        for edge_id, term, link, stale in zip(
            view.edge_ids, device_terms, view.links[rid], view.stale[rid]
        ):
            present = present or term is not None or link is not None
            if stale:  # a missing reading counts as stale
                table[edge_id] = 0.0
                continue
            fresh = True
            score = term + weights.w_net * rssi_utility(link, bounds)
            table[edge_id] = score + sched.sticky_bonus if edge_id == sched.selected_edge else score
        if not present:
            raise NoCandidatesError("all edges absent from the gateway view")
        own.append(table)
        keeps.append(sched.selected_edge is not None and not fresh)
    columns = score_columns(own)
    return {
        rid: Proposal(rid, iteration, schedulers[rid].selected_edge, own[index]) if keeps[index]
        else select_max_edge(summed_scores(columns, index), rid, iteration)
        for index, rid in enumerate(order)
    }
