"""Rule-based bidding: decentralized, locality-aware task placement.

The paper's protocol solicits every node once *per task*; placement cost
is O(tasks x nodes) bus deliveries and the JobManager serializes the
whole exchange. This module implements the generalization borrowed from
PYME's rule-based ActionManager: the JobManager publishes one compact
:class:`PlacementRule` describing a *batch* of homogeneous tasks, every
node locally scores the rule against its own capability, free memory,
load, and data locality (archive cache + already-hosted producers) and
answers with a single :class:`Bid`, and the manager converts bids into
awards with the pure, deterministic :func:`award_bids` fold.

The paper's protocol is the 1-task rule: it awards to a node with the
most free memory, as the paper's best-fit choice does. Among nodes tied
on free memory, locality and then load decide before the name does.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

__all__ = ["PlacementRule", "Bid", "award_bids"]


@dataclass(frozen=True)
class PlacementRule:
    """A compact description of a batch of homogeneous tasks to place.

    One rule replaces ``len(tasks)`` per-task solicitations: the only
    things that cross the bus are the template (requirements shared by
    every task in the batch) and the task names themselves.
    """

    rule_id: str
    job_id: str
    manager: str
    jar: str
    cls: str
    memory: int
    runmodel: str
    tasks: tuple[str, ...]
    depends: tuple[str, ...] = ()
    manager_epoch: int = 0

    @property
    def count(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class Bid:
    """A node's answer to a rule: how much it can take and how well.

    ``capacity`` is the number of tasks from the rule the node could
    host right now; ``free_memory``/``load`` describe its current
    occupancy; ``locality`` counts O(1) "do I have this?" hits (archive
    cache, already-hosted upstream tasks of the same job).
    """

    taskmanager: str
    capacity: int
    free_memory: int
    load: int = 0
    locality: int = 0


def award_bids(
    rule: PlacementRule, bids: Iterable[Bid]
) -> tuple[list[tuple[str, str]], list[str]]:
    """Deterministically convert bids into awards.

    Returns ``(awards, unplaced)`` where ``awards`` is a list of
    ``(task_name, taskmanager)`` pairs and ``unplaced`` lists tasks no
    bidder could take. The fold is pure: given the same ``(rule, bids)``
    it returns the same awards regardless of bid arrival order (bids are
    canonicalized by taskmanager name first).

    Award order mirrors the paper's best-fit: highest *virtual* free
    memory wins (free memory minus memory already awarded this round),
    locality breaks ties, then lowest load, then name. A 1-task rule
    therefore awards within the paper's most-free-memory class, and
    exactly to the paper's ``(-free_memory, name)`` choice when locality
    and load tie.
    """
    # Canonicalize: dedupe by taskmanager (best bid wins), drop useless
    # bids, and order by name so arrival order cannot matter.
    best: dict[str, Bid] = {}
    for bid in bids:
        if bid.capacity <= 0:
            continue
        if rule.memory > 0 and bid.free_memory < rule.memory:
            continue
        prev = best.get(bid.taskmanager)
        # Compare every field so duplicate bids from one node dedupe
        # identically regardless of arrival order (equal keys mean the
        # bids are interchangeable).
        if prev is None or (
            bid.free_memory,
            bid.locality,
            bid.capacity,
            -bid.load,
        ) > (prev.free_memory, prev.locality, prev.capacity, -prev.load):
            best[bid.taskmanager] = bid
    order = sorted(best)
    if not order:
        return [], list(rule.tasks)

    # Heap of (-virtual_free_memory, -locality, load + taken, rank).
    # Each pop awards one task and re-pushes the node with its virtual
    # occupancy updated, so a batch spreads like the paper's per-task
    # best-fit loop (free memory shrinks as awards land).
    heap: list[tuple[int, int, int, int]] = []
    state: dict[int, tuple[Bid, int]] = {}  # rank -> (bid, taken)
    for rank, name in enumerate(order):
        bid = best[name]
        state[rank] = (bid, 0)
        heapq.heappush(heap, (-bid.free_memory, -bid.locality, bid.load, rank))

    awards: list[tuple[str, str]] = []
    unplaced: list[str] = []
    for task in rule.tasks:
        placed = False
        while heap:
            neg_vmem, neg_loc, load, rank = heap[0]
            bid, taken = state[rank]
            vmem = -neg_vmem
            if taken >= bid.capacity or (rule.memory > 0 and vmem < rule.memory):
                heapq.heappop(heap)
                continue
            heapq.heapreplace(
                heap,
                (-(vmem - rule.memory), neg_loc, load + 1, rank),
            )
            state[rank] = (bid, taken + 1)
            awards.append((task, bid.taskmanager))
            placed = True
            break
        if not placed:
            unplaced.append(task)
    return awards, unplaced
