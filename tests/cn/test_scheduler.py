"""Rule-based bidding placement: award determinism, equivalence with the
paper's best-fit loop, locality, and chaos between bid and award.

The placement correctness story has three legs, each tested here:

* :func:`~repro.cn.scheduler.award_bids` is a *pure fold*: same
  ``(rule, bids)`` in, same awards out, independent of the order bids
  arrived in (hypothesis properties below).
* the paper's per-task solicit protocol is the 1-task rule: checked
  against :func:`best_fit`, the paper's sequential best-fit loop kept
  here as a pure reference (a single task lands in its most-free-memory
  class; a batch spreads like the loop applied task by task).
* awards are epoch-fenced: a node killed between submitting the winning
  bid and receiving the award fails the upload, triggers a re-bid, and
  can never leave a double placement behind (the epoch only advances on
  a successful host).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import (
    CNAPI,
    Bid,
    Cluster,
    NoWillingTaskManager,
    PlacementRule,
    Task,
    TaskRegistry,
    TaskSpec,
    award_bids,
)


class Echo(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.task_name


def registry():
    r = TaskRegistry()
    r.register_class("echo.jar", "s.Echo", Echo)
    return r


def spec(name, memory=10, depends=()):
    return TaskSpec(
        name=name, jar="echo.jar", cls="s.Echo", memory=memory, depends=tuple(depends)
    )


def rule_for(tasks, memory=10):
    return PlacementRule(
        rule_id="r1",
        job_id="job1",
        manager="m/jm",
        jar="echo.jar",
        cls="s.Echo",
        memory=memory,
        runmodel="RUN_AS_THREAD_IN_TM",
        tasks=tuple(tasks),
    )


# -- pure award fold -----------------------------------------------------------

bid_strategy = st.builds(
    Bid,
    taskmanager=st.sampled_from([f"n{i}/tm" for i in range(6)]),
    capacity=st.integers(min_value=0, max_value=8),
    free_memory=st.integers(min_value=0, max_value=500),
    load=st.integers(min_value=0, max_value=16),
    locality=st.integers(min_value=0, max_value=3),
)


@settings(max_examples=200, deadline=None)
@given(
    bids=st.lists(bid_strategy, max_size=12),
    n_tasks=st.integers(min_value=1, max_value=10),
    memory=st.sampled_from([0, 10, 60]),
    permutation=st.randoms(use_true_random=False),
)
def test_awards_deterministic_and_arrival_order_independent(
    bids, n_tasks, memory, permutation
):
    rule = rule_for([f"t{i}" for i in range(n_tasks)], memory=memory)
    shuffled = list(bids)
    permutation.shuffle(shuffled)
    first = award_bids(rule, bids)
    again = award_bids(rule, bids)
    reordered = award_bids(rule, shuffled)
    assert first == again  # deterministic given the bids
    assert first == reordered  # independent of bid arrival order

    awards, unplaced = first
    # every task accounted for exactly once
    assert sorted([t for t, _ in awards] + unplaced) == sorted(rule.tasks)
    # capacity and memory limits respected per bidder (best bid per name)
    best = {}
    for b in bids:
        prev = best.get(b.taskmanager)
        if (
            b.capacity > 0
            and (memory == 0 or b.free_memory >= memory)
            and (
                prev is None
                or (b.free_memory, b.locality, b.capacity, -b.load)
                > (prev.free_memory, prev.locality, prev.capacity, -prev.load)
            )
        ):
            best[b.taskmanager] = b
    taken: dict[str, int] = {}
    for _, tm in awards:
        taken[tm] = taken.get(tm, 0) + 1
    for tm, count in taken.items():
        assert count <= best[tm].capacity
        if memory > 0:
            assert count * memory <= best[tm].free_memory


def test_degenerate_single_task_matches_solicit_best_fit():
    # the paper's loop sorts offers by (-free_memory, name); a 1-task rule
    # awards within the same free-memory class, locality/load breaking ties
    rule = rule_for(["t0"])
    bids = [
        Bid("n2/tm", capacity=4, free_memory=500, load=9, locality=0),
        Bid("n0/tm", capacity=4, free_memory=300, load=0, locality=3),
        Bid("n1/tm", capacity=4, free_memory=500, load=0, locality=0),
    ]
    awards, unplaced = award_bids(rule, bids)
    assert unplaced == []
    # n2 and n1 tie on memory; n1 wins on locality? no -- both 0, so
    # load breaks the tie in n1's favour (best_fit picks n1 by name too)
    assert awards == [("t0", "n1/tm")]
    # a strictly better bid wins whatever its name, locality or load
    bids.append(Bid("n9/tm", capacity=1, free_memory=600, load=20))
    assert award_bids(rule, bids)[0] == [("t0", "n9/tm")]


def test_batch_award_spreads_like_sequential_best_fit():
    rule = rule_for([f"t{i}" for i in range(9)], memory=10)
    bids = [Bid(f"n{i}/tm", capacity=9, free_memory=100) for i in range(3)]
    awards, unplaced = award_bids(rule, bids)
    assert unplaced == []
    counts = {}
    for _, tm in awards:
        counts[tm] = counts.get(tm, 0) + 1
    # virtual free memory shrinks as awards land, so the batch spreads
    # like the paper's per-task loop: 3 tasks per node
    assert counts == {"n0/tm": 3, "n1/tm": 3, "n2/tm": 3}


def test_unplaced_overflow_reported():
    rule = rule_for([f"t{i}" for i in range(5)], memory=10)
    bids = [Bid("n0/tm", capacity=2, free_memory=100)]
    awards, unplaced = award_bids(rule, bids)
    assert len(awards) == 2
    assert unplaced == ["t2", "t3", "t4"]


# -- the paper's best-fit loop as a reference ----------------------------------


def best_fit(bids, memory, n_tasks):
    """The paper's per-task placement, one task at a time: solicit every
    node, take the willing offer with the most free memory (name breaks
    ties), upload, and let that node's free memory shrink by the task's
    memory before the next task solicits.  A bid's ``capacity`` caps how
    many tasks its node accepts.  Returns the chosen node per task (None
    when no node was willing)."""
    free = {b.taskmanager: b.free_memory for b in bids}
    left = {b.taskmanager: b.capacity for b in bids}
    chosen = []
    for _ in range(n_tasks):
        willing = [n for n in free if left[n] > 0 and free[n] >= memory]
        if not willing:
            chosen.append(None)
            continue
        node = min(willing, key=lambda n: (-free[n], n))
        free[node] -= memory
        left[node] -= 1
        chosen.append(node)
    return chosen


NAMES = [f"n{i}/tm" for i in range(6)]


@settings(max_examples=200, deadline=None)
@given(
    fields=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # capacity
            st.integers(min_value=0, max_value=300),  # free memory
            st.integers(min_value=0, max_value=3),  # load
            st.integers(min_value=0, max_value=2),  # locality
        ),
        max_size=len(NAMES),
    ),
    memory=st.sampled_from([0, 10, 60]),
)
def test_single_task_award_lands_in_best_fit_class(fields, memory):
    bids = [Bid(n, c, f, load, loc) for n, (c, f, load, loc) in zip(NAMES, fields)]
    (reference,) = best_fit(bids, memory, 1)
    awards, unplaced = award_bids(rule_for(["t0"], memory=memory), bids)
    if reference is None:
        assert awards == [] and unplaced == ["t0"]
        return
    ((_, winner),) = awards
    by_name = {b.taskmanager: b for b in bids}
    top = by_name[reference].free_memory
    assert by_name[winner].free_memory == top
    top_class = [
        b
        for b in bids
        if b.free_memory == top and b.capacity > 0 and b.free_memory >= memory
    ]
    if len({(b.locality, b.load) for b in top_class}) == 1:
        assert winner == reference


@st.composite
def untied_batches(draw):
    """Equal-load, equal-locality bids whose free memories are either
    equal or different modulo the task memory.

    That is the domain where the batch fold and the per-task loop agree
    node for node.  Outside it two bidders can reach the same virtual
    free memory after different numbers of awards; the fold then prefers
    the one holding fewer awards (``load + taken``) where the paper's
    loop prefers the smaller name.  The two end with equally many tasks
    overall, but their per-node counts can differ."""
    memory = draw(st.sampled_from([10, 60]))
    residues = draw(
        st.lists(st.integers(0, memory - 1), min_size=1, max_size=4, unique=True)
    )
    frees = []
    for residue in residues:
        free = memory * draw(st.integers(0, 6)) + residue
        frees += [free] * draw(st.integers(1, 2))
    names = draw(st.permutations(NAMES + ["n6/tm", "n7/tm"]))
    load, locality = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    bids = [
        Bid(name, draw(st.integers(0, 5)), free, load, locality)
        for name, free in zip(names, frees)
    ]
    return bids, memory


@settings(max_examples=200, deadline=None)
@given(batch=untied_batches(), n_tasks=st.integers(min_value=1, max_value=12))
def test_batch_award_counts_match_best_fit_task_by_task(batch, n_tasks):
    bids, memory = batch
    tasks = [f"t{i}" for i in range(n_tasks)]
    awards, unplaced = award_bids(rule_for(tasks, memory=memory), bids)
    reference = best_fit(bids, memory, n_tasks)
    counts: dict[str, int] = {}
    for _, tm in awards:
        counts[tm] = counts.get(tm, 0) + 1
    expected: dict[str, int] = {}
    for tm in reference:
        if tm is not None:
            expected[tm] = expected.get(tm, 0) + 1
    assert counts == expected
    assert len(unplaced) == reference.count(None)


# -- cluster integration -------------------------------------------------------


def test_bid_cluster_runs_jobs_and_spreads():
    with Cluster(8, registry=registry(), memory_per_node=10**4) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        api.create_tasks(handle, [spec(f"t{i}") for i in range(64)])
        api.start_job(handle)
        results = api.wait(handle, timeout=30)
        assert len(results) == 64
        placed = [handle.job.task(f"t{i}").node_name for i in range(64)]
        counts = {n: placed.count(n) for n in set(placed)}
        assert len(counts) == 8
        assert max(counts.values()) - min(counts.values()) <= 1


def test_bid_scheduler_uses_one_rule_per_batch():
    with Cluster(4, registry=registry(), telemetry=None, durable=False) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        before = c.bus.stats.solicitations
        api.create_tasks(handle, [spec(f"t{i}") for i in range(32)])
        # one rule solicitation placed the whole homogeneous batch
        assert c.bus.stats.solicitations - before == 1


def test_locality_breaks_free_memory_ties():
    # memory-0 tasks leave every node's free memory identical, so the
    # archive/producer locality score decides: the consumer must land on
    # the node already hosting its producer (and its unpacked archive)
    with Cluster(4, registry=registry()) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        api.create_tasks(handle, [spec("producer", memory=0)])
        producer_node = handle.job.task("producer").node_name
        api.create_tasks(
            handle, [spec("consumer", memory=0, depends=("producer",))]
        )
        assert handle.job.task("consumer").node_name == producer_node


def test_rejecting_nodes_never_bid():
    with Cluster(2, registry=registry()) as c:
        for server in c.servers:
            server.accept_tasks = False
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        with pytest.raises(NoWillingTaskManager):
            api.create_tasks(handle, [spec("t0"), spec("t1")])


# -- chaos: kill between bid and award ----------------------------------------


def test_kill_node_between_bid_and_award():
    """A node that wins bids and dies before the award upload: the award
    fails, a re-bid round places the tasks elsewhere, and the epoch
    fence guarantees no double placement."""
    with Cluster(4, registry=registry(), memory_per_node=10**4) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        manager_base = handle.manager.name.split("/")[0]

        sabotage = {"killed": None, "rule_solicits": 0}
        original = c.bus.solicit
        lock = threading.Lock()

        def solicit_and_kill(solicitation):
            offers = original(solicitation)
            if solicitation.kind != "rule":
                return offers
            with lock:
                sabotage["rule_solicits"] += 1
                if sabotage["killed"] is None:
                    rule = solicitation.requirements["rule"]
                    awards, _ = award_bids(rule, [b for _, b in offers])
                    # kill a winning bidder that is not the manager's node
                    for _, tm_name in awards:
                        node = tm_name.split("/")[0]
                        if node != manager_base:
                            sabotage["killed"] = node
                            c.kill_node(node)
                            break
            return offers

        c.bus.solicit = solicit_and_kill
        try:
            api.create_tasks(handle, [spec(f"t{i}") for i in range(12)])
        finally:
            c.bus.solicit = original

        killed = sabotage["killed"]
        assert killed is not None, "no winning bidder was available to kill"
        assert sabotage["rule_solicits"] >= 2, "no re-bid round happened"

        # every task placed on a live node, never on the killed one
        for i in range(12):
            runtime = handle.job.task(f"t{i}")
            assert runtime.node_name is not None
            assert runtime.node_name.split("/")[0] != killed

        # no double placement: across all surviving TaskManagers exactly
        # one live hosting (epoch matches the runtime's) per task
        for i in range(12):
            runtime = handle.job.task(f"t{i}")
            live = [
                server.name
                for server in c.servers
                for (job_id, name), h in server.taskmanager._hosted.items()
                if job_id == handle.job.job_id
                and name == runtime.name
                and h.epoch == runtime.epoch
            ]
            assert len(live) == 1, (runtime.name, live)

        # journal invariant: the final task-placed record per task names
        # the surviving node and the runtime's current epoch
        journal = handle.manager.journal
        assert journal is not None
        placed = {}
        for record in journal.records(handle.job.job_id):
            if record.kind == "task-placed":
                placed[record.data["task"]] = record.data
        for i in range(12):
            runtime = handle.job.task(f"t{i}")
            assert placed[runtime.name]["node"] == runtime.node_name
            assert placed[runtime.name]["epoch"] == runtime.epoch

        # and the job still runs to completion on the survivors
        api.start_job(handle)
        results = api.wait(handle, timeout=30)
        assert len(results) == 12
