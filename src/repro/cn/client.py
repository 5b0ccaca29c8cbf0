"""Descriptor-driven client execution.

:class:`ClientRunner` is the library-level equivalent of the client
program the pipeline generates from CNX: it walks a parsed
:class:`~repro.core.cnx.schema.CnxDocument`, creates the job(s) through
the :class:`~repro.cn.api.CNAPI` facade, expands dynamic-invocation
tasks against run-time arguments (paper Fig. 5), starts the roots and
waits for the DAG to drain.

Dynamic expansion: a dynamic task's ``arguments`` expression is
evaluated in a restricted namespace containing the caller's
``runtime_args`` plus ``range``/``len``.  It must yield an iterable of
argument tuples -- one concrete task instance per tuple, named
``<base><k>`` with k counting from 1.  Tasks that depended on the
dynamic base name are rewired to depend on every instance, and the
instances inherit the base's own dependencies, preserving the fork/join
shape of the diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from ..analysis import (
    AnalysisContext,
    ClusterSpec,
    CnxValidationError,
    Diagnostic,
    analyze_cnx,
    argument_expression_problem,
)
from ..analysis.passes import ARGUMENT_BUILTINS
from ..core.cnx.schema import CnxDocument, CnxJob, CnxTask
from .api import CNAPI, JobHandle
from .cluster import Cluster
from .errors import JobError
from .job import TaskSpec
from .messages import Message, MessageType

__all__ = ["ClientRunner", "ClientResult", "expand_dynamic_tasks", "evaluate_arguments"]

def evaluate_arguments(expression: str, env: Mapping[str, Any]) -> list[tuple]:
    """Evaluate a dynamic-invocation argument expression.

    The expression must pass :func:`~repro.analysis.argument_expression_problem`
    (the analyzer's CN305 check); it runs with no builtins beyond
    :data:`~repro.analysis.passes.ARGUMENT_BUILTINS` and sees the runtime
    arguments as names.  Result must be an iterable of argument lists;
    scalars inside are wrapped into 1-tuples.
    """
    problem = argument_expression_problem(expression)
    if problem is not None:
        raise JobError(f"dynamic argument expression {expression!r} {problem}")
    namespace = dict(env)
    try:
        value = eval(expression, {"__builtins__": ARGUMENT_BUILTINS}, namespace)
    except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- user expression may fail any way; converted to JobError
        raise JobError(
            f"dynamic argument expression {expression!r} failed: {exc}"
        ) from exc
    result: list[tuple] = []
    try:
        for item in value:
            if isinstance(item, tuple):
                result.append(item)
            elif isinstance(item, list):
                result.append(tuple(item))
            else:
                result.append((item,))
    except TypeError:
        raise JobError(
            f"dynamic argument expression {expression!r} did not yield an "
            f"iterable (got {type(value).__name__})"
        ) from None
    return result


def expand_dynamic_tasks(
    job: CnxJob,
    runtime_args: Mapping[str, Any],
    *,
    memory_budget: Optional[int] = None,
    degradations: Optional[list] = None,
) -> list[TaskSpec]:
    """Concrete task specs for *job*, with dynamic tasks instantiated.

    Graceful degradation: when *memory_budget* is given (aggregate free
    memory across live nodes) and the fully-expanded job would not fit,
    dynamic tasks shed instances -- largest first, deterministically,
    never below the declared multiplicity lower bound or 1 -- until the
    job fits (or nothing more can shrink).  Each shrink is appended to
    *degradations* so the caller can surface JOB_DEGRADED events."""
    # name -> requested argument lists, for dynamic tasks
    requested: dict[str, list[tuple]] = {}
    for task in job.tasks:
        if task.dynamic:
            requested[task.name] = evaluate_arguments(
                task.arguments or "[]", runtime_args
            )
    granted = {name: len(args) for name, args in requested.items()}
    if memory_budget is not None and requested:
        memory_of = {t.name: t.task_req.memory for t in job.tasks}
        floor = {
            t.name: max(1, _multiplicity_low(t)) for t in job.tasks if t.dynamic
        }
        static_memory = sum(
            memory_of[t.name] for t in job.tasks if not t.dynamic
        )

        def total() -> int:
            return static_memory + sum(
                granted[name] * memory_of[name] for name in granted
            )

        while total() > memory_budget:
            shrinkable = sorted(
                (name for name in granted if granted[name] > floor[name]),
                key=lambda name: (-granted[name], name),
            )
            if not shrinkable:
                break  # even the floor does not fit; placement will say so
            granted[shrinkable[0]] -= 1
        for name in sorted(granted):
            if granted[name] < len(requested[name]) and degradations is not None:
                degradations.append(
                    {
                        "task": name,
                        "requested": len(requested[name]),
                        "granted": granted[name],
                        "memory_budget": memory_budget,
                    }
                )
    specs: list[TaskSpec] = []
    # name -> instance names, for dependency rewiring
    expansion: dict[str, list[str]] = {}
    for task in job.tasks:
        if not task.dynamic:
            expansion[task.name] = [task.name]
            continue
        count = granted[task.name]
        _check_multiplicity(task, count)
        expansion[task.name] = [f"{task.name}{k}" for k in range(1, count + 1)]
    for task in job.tasks:
        base = TaskSpec.from_cnx(task)
        depends = tuple(
            instance for dep in task.depends for instance in expansion[dep]
        )
        if not task.dynamic:
            specs.append(
                TaskSpec(
                    name=base.name,
                    jar=base.jar,
                    cls=base.cls,
                    depends=depends,
                    memory=base.memory,
                    runmodel=base.runmodel,
                    params=base.params,
                    max_retries=base.max_retries,
                )
            )
            continue
        arglists = requested[task.name][: granted[task.name]]
        for k, args in enumerate(arglists, start=1):
            specs.append(
                TaskSpec(
                    name=f"{task.name}{k}",
                    jar=base.jar,
                    cls=base.cls,
                    depends=depends,
                    memory=base.memory,
                    runmodel=base.runmodel,
                    params=tuple(args),
                    max_retries=base.max_retries,
                )
            )
    return specs


def _job_batches(jobs) -> list[list[tuple[int, Any]]]:
    """Group (index, job) pairs into ordered batches per the ``after``
    partial order; unordered documents degenerate to one job per batch
    (strict sequential, the historical behaviour)."""
    if not any(job.after for job in jobs):
        return [[(i, job)] for i, job in enumerate(jobs)]
    remaining = {i: set(job.after) for i, job in enumerate(jobs)}
    name_of = {i: jobs[i].name for i in remaining}
    batches: list[list[tuple[int, Any]]] = []
    while remaining:
        ready = sorted(
            i for i, needs in remaining.items() if not needs
        )
        if not ready:  # validator rejects cycles; defensive
            raise JobError(f"cyclic job ordering among {sorted(remaining)}")
        batches.append([(i, jobs[i]) for i in ready])
        done_names = {name_of[i] for i in ready}
        for i in ready:
            del remaining[i]
        for needs in remaining.values():
            needs.difference_update(done_names)
    return batches


def _multiplicity_low(task: CnxTask) -> int:
    """The declared lower bound of a task's multiplicity (0 when open)."""
    spec = task.multiplicity.strip()
    if not spec or spec in ("*", "0..*"):
        return 0
    if ".." in spec:
        return int(spec.partition("..")[0])
    return int(spec)


def _check_multiplicity(task: CnxTask, count: int) -> None:
    """Enforce the declared multiplicity range (``0..*``, ``1..*``, ``n``)."""
    spec = task.multiplicity.strip()
    if not spec or spec in ("*", "0..*"):
        return
    if ".." in spec:
        low_text, _, high_text = spec.partition("..")
        low = int(low_text)
        high = None if high_text.strip() == "*" else int(high_text)
    else:
        low = high = int(spec)
    if count < low or (high is not None and count > high):
        raise JobError(
            f"dynamic task {task.name!r}: {count} invocation(s) violates "
            f"multiplicity {spec!r}"
        )


@dataclass
class ClientResult:
    """Outcome of one descriptor execution."""

    client_class: str
    job_results: list[dict[str, Any]] = field(default_factory=list)
    messages: list[Message] = field(default_factory=list)
    #: warning-severity analyzer findings (errors refuse the run)
    warnings: list[Diagnostic] = field(default_factory=list)

    @property
    def results(self) -> dict[str, Any]:
        """Task results of the first (usually only) job."""
        return self.job_results[0] if self.job_results else {}


class ClientRunner:
    """Executes CNX documents against a cluster through the CN API.

    With ``degrade=True`` (the default) dynamic jobs shrink their worker
    multiplicity to fit the aggregate free memory of the *live* nodes at
    submission time -- on a cluster that lost nodes the job still runs,
    just narrower, and a JOB_DEGRADED notification records each shrink.
    """

    def __init__(self, cluster: Cluster, *, degrade: bool = True) -> None:
        self.api = CNAPI.initialize(cluster)
        self.degrade = degrade

    def analyze(self, doc: CnxDocument):
        """Static-analysis report for *doc* against this runner's cluster.

        The context enables the placement-feasibility pass (cluster
        shape from the actual TaskManagers) and the archive pass (jar /
        class references resolved through the cluster's task registry).
        """
        cluster = self.api.cluster
        managers = [s.taskmanager for s in cluster.servers]
        spec = ClusterSpec(
            nodes=len(managers),
            memory_per_node=min(tm.memory_capacity for tm in managers),
            slots_per_node=min(tm.slots for tm in managers),
        )

        def resolves(jar: str, cls: str) -> bool:
            try:
                cluster.registry.resolve(jar, cls)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- resolution executes arbitrary archive code; any failure means unresolvable
                return False
            return True

        return analyze_cnx(
            doc, AnalysisContext(cluster=spec, task_resolver=resolves)
        )

    def run(
        self,
        doc: CnxDocument,
        *,
        runtime_args: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = 60.0,
        collect_messages: bool = False,
    ) -> ClientResult:
        """Run every job of the client and gather results.

        Jobs without ordering attributes run sequentially in document
        order (the Fig. 2 behaviour).  When any job declares ``after``,
        the client-level partial order of paper section 4 applies: jobs
        are grouped into batches, jobs within a batch run concurrently,
        and batches run in order.  Results are returned in document
        order either way.

        Before anything reaches the cluster the full static analyzer
        runs over the descriptor (including placement feasibility
        against this runner's cluster): error-severity findings raise
        :class:`~repro.analysis.CnxValidationError` with the
        structured diagnostics attached, warnings are collected on the
        returned :class:`ClientResult`."""
        report = self.analyze(doc)
        if not report.ok:
            raise CnxValidationError(report)
        runtime_args = dict(runtime_args or {})
        outcome = ClientResult(
            client_class=doc.client.cls, warnings=report.warnings()
        )
        jobs = doc.client.jobs
        results_by_index: dict[int, dict[str, Any]] = {}
        for batch in _job_batches(jobs):
            if len(batch) == 1:
                index, job = batch[0]
                handle = self._submit(doc, job, runtime_args)
                self.api.start_job(handle)
                results_by_index[index] = self.api.wait(handle, timeout)
                if collect_messages:
                    outcome.messages.extend(handle.job.client_queue.drain())
                continue
            handles = [
                (index, self._submit(doc, job, runtime_args)) for index, job in batch
            ]
            for _, handle in handles:
                self.api.start_job(handle)
            for index, handle in handles:
                results_by_index[index] = self.api.wait(handle, timeout)
                if collect_messages:
                    outcome.messages.extend(handle.job.client_queue.drain())
        outcome.job_results = [results_by_index[i] for i in range(len(jobs))]
        return outcome

    def _descriptor_text(self, doc: CnxDocument) -> Optional[str]:
        """The CNX text for the journal's job-submission record; None when
        the cluster is non-durable (emitting costs a serialization) or
        when emission fails (durability must not block submission)."""
        if not getattr(self.api.cluster, "durable", False):
            return None
        try:
            from ..core.cnx.emitter import emit

            return emit(doc)
        except Exception:  # noqa: BLE001  # conclint: waive CC302 -- descriptor emission is best-effort; durability must not block submission
            return None

    def _submit(
        self, doc: CnxDocument, job: CnxJob, runtime_args: Mapping[str, Any]
    ) -> JobHandle:
        degradations: list = []
        cluster = self.api.cluster
        budget = None
        if self.degrade:
            # graceful degradation under overload: the admission
            # controller lowers degrade_factor below 1.0 as the cluster
            # approaches saturation, so new dynamic jobs expand narrower
            # instead of being shed outright
            factor = getattr(cluster, "degrade_factor", 1.0)
            budget = int(cluster.total_free_memory() * factor)
        specs = expand_dynamic_tasks(
            job,
            runtime_args,
            memory_budget=budget,
            degradations=degradations,
        )
        total_memory = sum(s.memory for s in specs)
        handle = self.api.create_job(
            doc.client.cls,
            requirements={"tasks": len(specs), "memory": total_memory},
            # the job submission record carries the CNX descriptor, so a
            # successor manager replaying the journal can audit what was
            # submitted (emitted lazily only when the cluster is durable)
            descriptor=self._descriptor_text(doc),
        )
        for event in degradations:
            handle.job.route(
                Message(
                    MessageType.JOB_DEGRADED,
                    sender="client-runner",
                    recipient="client",
                    payload=event,
                )
            )
        # batch creation: the whole roster places through per-template
        # rule/bid/award rounds instead of one 1-task rule per task
        self.api.create_tasks(handle, specs)
        return handle
