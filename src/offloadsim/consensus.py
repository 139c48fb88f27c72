"""Fleet-wide consensus and task remapping.

Every robot runs the same executor logic over the same set of
proposals, so consensus needs no leader: the decision is a pure
function of (proposals, previous winner), and each robot arrives at
the identical result independently. A decision requires a quorum of at
least half the fleet (rounded up); short of that the round is deferred
and the previous winner stands.

Vote ties prefer the incumbent, then the smallest edge id, so a split
fleet cannot oscillate. The first quorate winner simply becomes the
task's home (launching is not a switch); after that an actual move
only happens when the winner changed AND differs from the last edge
the task was remapped to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ConfigError


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of one consensus round.

    ``quorate`` is False when too few proposals arrived; the round then
    carries the previous winner forward with empty votes. Frozen, so the
    harness keeps one per round and every robot's log shares it.
    """

    iteration: int
    winner: Optional[str]
    votes: dict[str, int]
    switched: bool
    quorate: bool = True


@dataclass
class AllocationMemory:
    """What the executor remembers between rounds."""

    last_remapped: Optional[str] = None
    last_iteration: Optional[int] = None


@dataclass(frozen=True)
class RemapPlan:
    """A move of the task onto the winning edge."""

    target: str


def quorum_size(total_robots: int) -> int:
    if total_robots <= 0:
        raise ConfigError(f"total_robots must be positive, got {total_robots}")
    return math.ceil(total_robots / 2)


def consensus(
    proposals: Mapping[str, str],
    previous: Optional[str],
    total_robots: int,
    iteration: int,
) -> Decision:
    """Plurality vote over the robots' proposed edges.

    Pure and symmetric: any robot evaluating the same proposals against
    the same previous winner computes the identical decision.
    """
    needed = quorum_size(total_robots)
    if len(proposals) < needed:
        return Decision(iteration, previous, {}, switched=False, quorate=False)
    votes: dict[str, int] = {}
    for robot_id in sorted(proposals):
        edge = proposals[robot_id]
        votes[edge] = votes.get(edge, 0) + 1
    votes = dict(sorted(votes.items()))
    top = max(votes.values())
    tied = [edge for edge, count in votes.items() if count == top]
    if previous in tied:
        winner = previous
    else:
        winner = min(tied)
    # The very first placement is not a switch: there is no incumbent
    # to switch away from, so a fleet with a single edge (or a stable
    # favorite) reports zero switches for its whole run.
    switched = previous is not None and winner != previous
    return Decision(iteration, winner, votes, switched=switched, quorate=True)


def decide_offload(
    decision: Decision,
    memory: AllocationMemory,
) -> Optional[RemapPlan]:
    """Turn a decision into a remap plan, or None when nothing moves.

    The first quorate winner is recorded as the task's initial home
    without a plan (launching is not remapping). After that, a plan is
    emitted only for a quorate decision whose winner both changed this
    round and differs from the last target actually remapped to; this
    guards against replaying a move after deferred rounds blurred the
    previous-winner bookkeeping.
    """
    if decision.quorate and decision.winner is not None:
        if memory.last_iteration is not None and memory.last_iteration >= decision.iteration:
            raise ConfigError(
                f"decision iterations must increase, got {decision.iteration} "
                f"after {memory.last_iteration}"
            )
        memory.last_iteration = decision.iteration
        if memory.last_remapped is None:
            memory.last_remapped = decision.winner
            return None
    if not decision.quorate or not decision.switched or decision.winner is None:
        return None
    if decision.winner == memory.last_remapped:
        return None
    memory.last_remapped = decision.winner
    return RemapPlan(decision.winner)


class ConsensusExecutor:
    """One robot's executor: votes in, decisions and remap plans out.

    Every robot runs one of these over the same proposal set each
    round; the harness applies at most one of the (identical) plans
    per iteration.
    """

    def __init__(self, robot_id: str, total_robots: int) -> None:
        quorum_size(total_robots)  # validate early
        self.robot_id = robot_id
        self.total_robots = total_robots
        self.previous: Optional[str] = None
        self.memory = AllocationMemory()
        self.decisions: list[Decision] = []

    def on_proposals(
        self, proposals: Mapping[str, str], iteration: int
    ) -> tuple[Decision, Optional[RemapPlan]]:
        decision = consensus(proposals, self.previous, self.total_robots, iteration)
        if decision.quorate:
            self.previous = decision.winner
        plan = decide_offload(decision, self.memory)
        self.decisions.append(decision)
        return decision, plan
