"""Fleet-wide consensus on which edge hosts the task.

Every robot runs the same executor logic over the same set of
proposals, so consensus needs no leader: the decision is a pure
function of (proposals, previous winner), and each robot arrives at
the identical result independently. A decision requires a quorum of at
least half the fleet (rounded up); short of that the round is deferred
and the previous winner stands.

Vote ties prefer the incumbent, then the smallest edge id, so a split
fleet cannot oscillate. The first quorate winner simply becomes the
task's home (launching is not a switch); after that a decision is a
switch exactly when its winner differs from the previous one.
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
    for edge in proposals.values():  # a count does not depend on the order
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


class ConsensusExecutor:
    """One robot's executor: votes in, decisions out.

    Every robot runs one of these over the same proposal set each
    round; ``previous`` is where this robot's decisions have placed the
    task so far (None before the first quorate round).
    """

    def __init__(self, robot_id: str, total_robots: int) -> None:
        quorum_size(total_robots)  # validate early
        self.robot_id = robot_id
        self.total_robots = total_robots
        self.previous: Optional[str] = None
        self.decisions: list[Decision] = []

    def on_proposals(self, proposals: Mapping[str, str], iteration: int) -> Decision:
        decision = consensus(proposals, self.previous, self.total_robots, iteration)
        self.previous = decision.winner  # a deferred round's winner is previous
        self.decisions.append(decision)
        return decision
