"""PERF3/PERF16 -- placement cost across cluster sizes and batch shapes.

PERF3 (paper section 3): job creation multicasts a solicitation, willing
JobManagers respond, one is selected; each task created on its own is
then placed through a 1-task rule -- the paper's per-task solicitation,
answered by every node's bid.  The implied behaviour to measure:
discovery cost grows with subnet size (every node sees every
solicitation) while placement spreads tasks across nodes.  We sweep
cluster sizes, count bus traffic, and benchmark end-to-end job setup.

PERF16: placement *throughput* (tasks placed/sec) of the one placement
protocol, swept over cluster size, for two batch shapes: per-task
``create_task`` (one 1-task rule round per task, the paper's round trip)
and batched ``create_tasks`` (one rule per homogeneous batch).  Per-task
placement pays one multicast round per task, so throughput collapses as
nodes multiply; the batch stays near-flat.  Interleaved min-of-k rounds
so machine noise hits both shapes equally.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cn import CNAPI, Cluster, TaskRegistry, TaskSpec
from repro.cn.task import Task


class Noop(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


def registry():
    r = TaskRegistry()
    r.register_class("noop.jar", "bench.Noop", Noop)
    return r


def spec(name):
    return TaskSpec(name=name, jar="noop.jar", cls="bench.Noop", memory=10)


def create_job_with_tasks(cluster, n_tasks):
    api = CNAPI.initialize(cluster)
    handle = api.create_job("bench")
    for i in range(n_tasks):
        api.create_task(handle, spec(f"t{i}"))
    return handle


@pytest.mark.parametrize("nodes", [2, 8, 32])
def test_bench_placement(benchmark, nodes):
    with Cluster(nodes, registry=registry(), memory_per_node=10**6) as cluster:
        benchmark.pedantic(
            create_job_with_tasks,
            args=(cluster, 16),
            rounds=3,
            iterations=1,
        )


def test_bus_traffic_scales_with_nodes(report):
    rows = []
    for nodes in (2, 8, 32):
        with Cluster(nodes, registry=registry(), memory_per_node=10**6) as cluster:
            create_job_with_tasks(cluster, 16)
            stats = cluster.bus.stats
            rows.append(
                [nodes, stats.solicitations, stats.deliveries, stats.responses]
            )
    report.line("PERF3 -- multicast traffic for 1 job + 16 task placements")
    report.line()
    report.table(["nodes", "solicitations", "deliveries", "responses"], rows)
    # deliveries = solicitations x nodes: discovery cost grows linearly
    for (nodes, solicitations, deliveries, _) in rows:
        assert deliveries == solicitations * nodes
    assert rows[0][2] < rows[1][2] < rows[2][2]


def test_placement_spreads_load(report):
    with Cluster(8, registry=registry(), memory_per_node=10**6) as cluster:
        handle = create_job_with_tasks(cluster, 64)
        nodes = [handle.job.task(f"t{i}").node_name for i in range(64)]
        counts = {n: nodes.count(n) for n in sorted(set(nodes))}
    report.line("PERF3 -- 64 equal tasks over 8 nodes (best-fit placement)")
    report.line()
    report.table(["taskmanager", "tasks placed"], list(counts.items()))
    assert len(counts) == 8, "placement failed to use all nodes"
    assert max(counts.values()) - min(counts.values()) <= 1, counts


def test_simulated_latency_accounting():
    with Cluster(4, registry=registry(), per_hop_latency=0.002) as cluster:
        create_job_with_tasks(cluster, 4)
        stats = cluster.bus.stats
        assert stats.simulated_latency == pytest.approx(
            stats.deliveries * 0.002
        )


# -- PERF16: placement throughput, per-task vs batched ------------------------

SWEEP_NODES = (2, 8, 32, 64)
N_TASKS = 256
ROUNDS = 3
SPEEDUP_FLOOR = 5.0  # batched vs per-task at 32 nodes
BATCH_DEGRADATION_CAP = 0.25  # batch throughput loss allowed from 8 -> 64 nodes
BATCH_ROUNDS_CAP = 2  # rule rounds per homogeneous batch
SHAPES = ("per-task", "batch")


def _measure_placement(shape: str, nodes: int) -> tuple[float, int]:
    """One timed placement of N_TASKS tasks; returns (seconds, bus
    solicitations made while placing).

    Telemetry and durability are off so the measurement isolates the
    placement protocol itself (both shapes shed the same overheads).
    """
    with Cluster(
        nodes,
        registry=registry(),
        memory_per_node=10**6,
        telemetry=None,
        durable=False,
    ) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("bench")
        specs = [spec(f"t{i}") for i in range(N_TASKS)]
        before = cluster.bus.stats.solicitations
        start = time.perf_counter()
        if shape == "batch":
            api.create_tasks(handle, specs)
        else:
            for task_spec in specs:
                api.create_task(handle, task_spec)
        elapsed = time.perf_counter() - start
        placed = {
            handle.job.task(f"t{i}").node_name for i in range(N_TASKS)
        }
        assert None not in placed, "a task was left unplaced"
        return elapsed, cluster.bus.stats.solicitations - before


def test_perf16_placement_throughput(report, out_dir):
    best: dict[tuple[str, int], float] = {}
    rounds: dict[tuple[str, int], int] = {}
    combos = [(shape, n) for shape in SHAPES for n in SWEEP_NODES]
    for _ in range(ROUNDS):  # interleaved min-of-k
        for combo in combos:
            elapsed, solicitations = _measure_placement(*combo)
            best[combo] = min(best.get(combo, elapsed), elapsed)
            rounds[combo] = solicitations
    tput = {combo: N_TASKS / best[combo] for combo in combos}

    report.line(
        f"PERF16 -- placement throughput, {N_TASKS} tasks, "
        f"min of {ROUNDS} interleaved rounds"
    )
    report.line()
    rows = []
    for n in SWEEP_NODES:
        rows.append(
            [
                n,
                f"{tput[('per-task', n)]:.0f}",
                f"{tput[('batch', n)]:.0f}",
                f"{tput[('batch', n)] / tput[('per-task', n)]:.1f}x",
                rounds[("per-task", n)],
                rounds[("batch", n)],
            ]
        )
    report.table(
        [
            "nodes",
            "per-task tasks/s",
            "batch tasks/s",
            "speedup",
            "per-task bus rounds",
            "batch bus rounds",
        ],
        rows,
    )

    (out_dir / "BENCH_scheduler.json").write_text(
        json.dumps(
            {
                "n_tasks": N_TASKS,
                "rounds": ROUNDS,
                "tasks_per_second": {
                    f"{shape}/{n}": tput[(shape, n)] for shape, n in combos
                },
                "bus_solicitations": {
                    f"{shape}/{n}": rounds[(shape, n)] for shape, n in combos
                },
            },
            indent=2,
        )
    )

    # one rule round per task when placed one by one...
    for n in SWEEP_NODES:
        assert rounds[("per-task", n)] == N_TASKS
        # ...and at most two for the whole homogeneous batch (a second
        # round only when the first round's bids could not take it all)
        assert rounds[("batch", n)] <= BATCH_ROUNDS_CAP, rounds
    # the headline gate: batched rules at 32 nodes
    speedup = tput[("batch", 32)] / tput[("per-task", 32)]
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched placement only {speedup:.1f}x faster than per-task at 32 "
        f"nodes (floor {SPEEDUP_FLOOR}x): {tput}"
    )
    # batch placement stays near-flat as the cluster grows...
    degradation = 1 - tput[("batch", 64)] / tput[("batch", 8)]
    assert degradation <= BATCH_DEGRADATION_CAP, (
        f"batch throughput degraded {degradation:.0%} from 8 to 64 nodes "
        f"(cap {BATCH_DEGRADATION_CAP:.0%}): {tput}"
    )
    # ...while per-task placement degrades super-linearly with node count
    assert tput[("per-task", 8)] > 2 * tput[("per-task", 64)], tput
