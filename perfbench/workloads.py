"""The three workloads of the benchmark: inputs from a seed, one job
through a public entry point, and the check of that job's output.

Every workload runs the whole Fig. 6 chain (UML model -> XMI -> XSLT ->
CNX -> generated client -> placement -> execution -> join) on a
long-lived 4-node cluster that it builds with default constructors.

* ``compose``   -- ``Portal(cluster).submit(xmi)`` of a 52-task no-op
  fan-out; composition (XSLT, XMI, analysis, placement) dominates.
* ``floyd``     -- ``Pipeline().run(fig3_model, cluster)`` of Floyd APSP
  at N=256 with 4 workers on the inproc backend; execution dominates.
* ``floyd_proc`` -- ``floyd``'s inputs on ``Cluster(transport="proc")``.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.apps.floyd.driver import floyd_registry
from repro.apps.floyd.io import MatrixStore, store_matrix
from repro.apps.floyd.model import build_fig3_model
from repro.apps.floyd.serial import floyd_warshall_numpy, random_weighted_graph
from repro.cn import Cluster, Task, TaskRegistry
from repro.cn.portal import Portal
from repro.core.transform.pipeline import Pipeline
from repro.core.uml import ActivityBuilder
from repro.core.xmi.writer import write_graph

#: nodes in every benchmark cluster
NODES = 4
#: compose shape: split -> COMPOSE_WORKERS no-op workers -> join
COMPOSE_WORKERS = 50
#: Floyd problem size and worker count (the Fig. 3 model)
FLOYD_N = 256
FLOYD_WORKERS = 4
#: name of the joiner task in the Fig. 3 model; its result is the matrix
FLOYD_JOINER = "tctask999"

NOOP_JAR = "noop.jar"
NOOP_CLASS = "perfbench.Noop"


class Noop(Task):
    """A worker that accepts any CNX params and does nothing."""

    def __init__(self, *params: Any) -> None:
        pass

    def run(self, ctx: Any) -> str:
        return "ok"


@dataclass
class Env:
    """One long-lived cluster (and, for ``compose``, its portal)."""

    cluster: Cluster
    portal: Optional[Portal] = None
    pipeline: Optional[Pipeline] = None

    def close(self) -> None:
        self.cluster.shutdown()


@dataclass
class Workload:
    name: str
    why: str
    #: measured jobs run on one cluster before it is torn down.  This
    #: bounds peak RSS (``floyd`` retains about 134 MB per job on a
    #: long-lived cluster) and fixes the age of each measured job, since
    #: job time grows with the cluster's age
    jobs_per_cluster: int
    make_input: Callable[[random.Random], Any]
    open: Callable[[TaskRegistry], Env]
    run_job: Callable[[Env, Any], bool]
    registry: Callable[[], TaskRegistry]


# -- compose -----------------------------------------------------------------

def _names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add("t" + "".join(rng.choices(string.ascii_lowercase + string.digits, k=7)))
    return sorted(names, key=lambda _: rng.random())


def compose_input(rng: random.Random) -> tuple[str, frozenset[str]]:
    """XMI of a split -> 50 workers -> join no-op job.  The seed picks
    task names and tagged values (memory, params), never the shape."""
    names = _names(rng, COMPOSE_WORKERS + 2)
    b = ActivityBuilder("Compose" + "".join(rng.choices(string.ascii_uppercase, k=6)))

    def task(name: str):
        return b.task(
            name,
            jar=NOOP_JAR,
            cls=NOOP_CLASS,
            memory=rng.randint(1, 64),
            params=[
                ("String", "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 12)))),
                ("Integer", str(rng.randrange(10**6))),
            ],
        )

    split = task(names[0])
    workers = [task(name) for name in names[1:-1]]
    join = task(names[-1])
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    b.chain(join, b.final())
    return write_graph(b.build()), frozenset(names)


def compose_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class(NOOP_JAR, NOOP_CLASS, Noop)
    return registry


def compose_open(registry: TaskRegistry) -> Env:
    cluster = Cluster(NODES, registry=registry)
    return Env(cluster=cluster, portal=Portal(cluster))


def compose_job(env: Env, item: tuple[str, frozenset[str]]) -> bool:
    xmi_text, names = item
    submission = env.portal.submit(xmi_text)
    if submission.status != "done" or len(submission.results) != 1:
        return False
    results = submission.results[0]
    return set(results) == names and all(v == "ok" for v in results.values())


# -- floyd / floyd_proc -------------------------------------------------------

@dataclass
class FloydInput:
    matrix: list[list[float]]
    expected: np.ndarray


def floyd_input(rng: random.Random) -> FloydInput:
    matrix = random_weighted_graph(FLOYD_N, seed=rng.randrange(2**31))
    return FloydInput(matrix, floyd_warshall_numpy(matrix))


def floyd_open(registry: TaskRegistry, **options: Any) -> Env:
    return Env(cluster=Cluster(NODES, registry=registry, **options), pipeline=Pipeline())


def floyd_proc_open(registry: TaskRegistry) -> Env:
    return floyd_open(registry, transport="proc")


_store_keys = itertools.count(1)


def floyd_job(env: Env, item: FloydInput) -> bool:
    key = f"perfbench-{next(_store_keys)}"
    source = store_matrix(key, item.matrix)
    try:
        graph = build_fig3_model(n_workers=FLOYD_WORKERS, matrix_source=source, sink="")
        outcome = env.pipeline.run(graph, env.cluster)
    finally:
        MatrixStore.instance().pop(key)
    result = np.asarray(outcome.results.get(FLOYD_JOINER, ()), dtype=float)
    # the serial reference is independent of the cluster; both apply the
    # same min-plus updates in the same k order, so equality is exact
    return result.shape == item.expected.shape and bool(np.array_equal(result, item.expected))


WORKLOADS = {
    "compose": Workload(
        "compose",
        "portal submit of a 52-task no-op fan-out: XSLT, XMI, analysis and placement dominate",
        jobs_per_cluster=16,
        make_input=compose_input,
        open=compose_open,
        run_job=compose_job,
        registry=compose_registry,
    ),
    "floyd": Workload(
        "floyd",
        "Fig. 3 Floyd APSP N=256, 4 workers, inproc: compute, routing and checkpoints dominate",
        jobs_per_cluster=8,
        make_input=floyd_input,
        open=floyd_open,
        run_job=floyd_job,
        registry=floyd_registry,
    ),
    "floyd_proc": Workload(
        "floyd_proc",
        "floyd's inputs on the proc backend: the only workload where the wire does work",
        jobs_per_cluster=6,
        make_input=floyd_input,
        open=floyd_proc_open,
        run_job=floyd_job,
        registry=floyd_registry,
    ),
}
