"""Per-robot offload scheduler.

Every decision round each robot scores all known edges from its own
gateway view, broadcasts that table to its peers, folds the freshest
peer tables into an edge-wise sum, and proposes the edge with the
highest combined score. Selection is damped by a sticky bonus: the
currently selected edge gets a small additive boost, so a rival must
beat the incumbent by more than the bonus before the robot proposes a
switch. This hysteresis is what keeps near-tied utilities from
flapping the task back and forth.

Staleness rules: an edge whose readings are stale (or missing) scores
zero so it cannot win on outdated data. If every edge has gone stale
at once the robot has nothing current to compare, so it keeps
proposing its previous selection rather than thrash on zeros. Peer
tables older than the staleness window are excluded from the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ConfigError, NoCandidatesError
from .profiling import EdgeData
from .utility import (
    NetworkBounds,
    TaskSpec,
    Weights,
    cpu_utility,
    memory_utility,
    rssi_utility,
    sum_over_edges,
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
    """Edge-wise sum of this robot's table and every fresh peer table."""
    tables: dict[str, Mapping[str, float]] = {robot_id: dict(own_table)}
    for peer_id in sorted(peers):
        peer = peers[peer_id]
        if peer_id == robot_id:
            continue
        if now - peer.received_at > staleness_window:
            continue
        tables[peer_id] = peer.table
    return sum_over_edges(tables)


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

    def build_table(
        self,
        edge_data: Mapping[str, Optional[EdgeData]],
        now: float,
        iteration: int,
    ) -> UtilityTableMsg:
        table = calculate_utility(
            edge_data,
            self.task,
            self.bounds,
            self.weights,
            selected_edge=self.selected_edge,
            sticky_bonus=self.sticky_bonus,
        )
        scores = tuple(sorted(table.items()))
        return UtilityTableMsg(self.robot_id, iteration, scores, sent_at=now)

    def observe_peer(self, msg: UtilityTableMsg, received_at: float) -> None:
        if msg.robot_id == self.robot_id:
            return
        self.peers[msg.robot_id] = PeerTable(msg.as_dict(), received_at, msg.iteration)

    def propose(
        self,
        edge_data: Mapping[str, Optional[EdgeData]],
        now: float,
        iteration: int,
    ) -> Proposal:
        """Score, sum with peers, and vote for an edge.

        With every edge stale at once the robot keeps its previous
        selection instead of voting on all-zero scores.
        """
        present = [d for d in edge_data.values() if d is not None]
        all_stale = bool(present) and all(d.stale for d in present)
        own = calculate_utility(
            edge_data, self.task, self.bounds, self.weights,
            selected_edge=self.selected_edge, sticky_bonus=self.sticky_bonus,
        )
        if all_stale and self.selected_edge is not None:
            return Proposal(self.robot_id, iteration, self.selected_edge, own)
        summed = exchange_and_sum(self.robot_id, own, self.peers, now, self.peer_staleness)
        return select_max_edge(summed, self.robot_id, iteration)

    def commit(self, winner: Optional[str]) -> None:
        """Adopt the fleet's consensus winner as the new incumbent."""
        if winner is not None:
            self.selected_edge = winner
