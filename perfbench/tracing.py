"""Per-layer trace for the benchmark's traced run.

Spans are recorded from shims that this file installs on the public
names of each layer, around the calls into that layer; the program
itself is not edited.  Each span has a name, start, end, parent and the
job it belongs to, and is kept in memory until the run ends.  A shim
whose target no longer exists reports its layer as absent and never
fails a run.

Client-thread layers are credited with wall time (they run one after
another on the benchmark's thread).  Task-thread layers (``TCTask``
compute, routing, receive waits, checkpoints) are reported as summed
thread-milliseconds, because inproc task threads share the interpreter
lock and overlap.  Under the proc backend those shims run in the worker
processes, so only coordinator-side numbers are reported.

Counts the program already exposes ride along: journal records by kind,
the transport's frame statistics, the placement and solicitation
counters, and the runtime's own ``place:``/``attempt:`` spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

from repro.apps.floyd.model import WORKER_CLASS, WORKER_JAR
from repro.apps.floyd.tasks import TCTask
from repro.cn.errors import TaskLoadError

#: journal record kinds reported one by one; any other kind is summed
#: into ``journal.records.other``
RECORD_KINDS = (
    "job-created", "job-adopted", "task-spec", "task-placed", "task-state",
    "delivery", "delivery_batch", "ledger-gc", "shed", "dead-letter",
    "checkpoint", "job-finished",
)

#: (module, dotted name, span name).  Functions are looked up in their
#: module at call time, and methods on their class, so replacing the
#: attribute intercepts every call.
SHIMS = (
    ("repro.core.transform.pipeline", "validate_graph", "uml.validate"),
    ("repro.core.transform.pipeline", "write_model", "xmi.write"),
    ("repro.core.transform.pipeline", "xmi_to_cnx", "xslt.xmi2cnx"),
    ("repro.core.transform.pipeline", "validate_cnx", "cnx.validate"),
    ("repro.core.transform.pipeline", "emit_cnx", "cnx.emit"),
    ("repro.core.transform.pipeline", "cnx_to_python", "codegen.python"),
    ("repro.core.transform.pipeline", "cnx_to_java", "codegen.java"),
    ("repro.core.xmi.reader", "read_model", "xmi.read"),
    ("repro.analysis", "analyze_model", "analysis.check"),
    ("repro.cn.api", "CNAPI.create_job", "place.job"),
    ("repro.cn.api", "CNAPI.create_task", "place.task"),
    ("repro.cn.api", "CNAPI.start_job", "exec.start"),
    ("repro.cn.api", "CNAPI.wait", "exec.wait"),
)

#: the generated client: constructing it compiles the source
#: (``deploy.compile``), ``run`` executes it (``exec.client``, a
#: container whose children are the CNAPI spans)
CLIENT_SHIM = ("repro.core.transform.pipeline", "GeneratedClient")

#: per-layer metrics in report order, with units
METRICS = (
    ("xslt.xmi2cnx_ms", "ms"),
    ("xmi.write_ms", "ms"),
    ("xmi.read_ms", "ms"),
    ("uml.validate_ms", "ms"),
    ("cnx.validate_ms", "ms"),
    ("cnx.emit_ms", "ms"),
    ("analysis.check_ms", "ms"),
    ("codegen.python_ms", "ms"),
    ("codegen.java_ms", "ms"),
    ("deploy.compile_ms", "ms"),
    ("portal.other_ms", "ms"),
    ("place.job_ms", "ms"),
    ("place.tasks_ms", "ms"),
    ("place.count", "count"),
    ("place.solicitations", "count"),
    ("runtime.place_ms", "ms"),
    ("runtime.attempt_ms", "ms"),
    ("route.send_ms", "ms"),
    ("route.rounds", "count"),
    ("task.recv_wait_ms", "ms"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.checkpoints", "count"),
    ("journal.checkpoint_mb", "MB"),
    *((f"journal.records.{kind}", "count") for kind in RECORD_KINDS),
    ("journal.records.other", "count"),
    ("journal.retained_records", "count"),
    ("wire.frames", "count"),
    ("wire.mb", "MB"),
    ("compute.task_ms", "ms"),
    ("exec.wait_ms", "ms"),
    ("trace.job_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)

#: metric -> span names it sums (client-thread wall, or task-thread time)
SPAN_SUMS = {
    "xslt.xmi2cnx_ms": ("xslt.xmi2cnx",),
    "xmi.write_ms": ("xmi.write",),
    "xmi.read_ms": ("xmi.read",),
    "uml.validate_ms": ("uml.validate",),
    "cnx.validate_ms": ("cnx.validate",),
    "cnx.emit_ms": ("cnx.emit",),
    "analysis.check_ms": ("analysis.check",),
    "codegen.python_ms": ("codegen.python",),
    "codegen.java_ms": ("codegen.java",),
    "deploy.compile_ms": ("deploy.compile",),
    "place.job_ms": ("place.job",),
    "place.tasks_ms": ("place.task",),
    "route.send_ms": ("route.multicast", "route.send"),
    "task.recv_wait_ms": ("task.recv",),
    "journal.checkpoint_ms": ("journal.checkpoint",),
}

#: metric -> the spans it is derived from; a metric whose spans are all
#: absent is reported absent
SOURCES = {
    **SPAN_SUMS,
    "route.rounds": ("route.multicast",),
    "compute.task_ms": ("task.run",),
    "exec.wait_ms": ("exec.start", "exec.wait"),
    # counters read from the program rather than from spans
    **{f"journal.records.{kind}": ("journal",) for kind in (*RECORD_KINDS, "other")},
    "journal.checkpoints": ("journal",),
    "journal.checkpoint_mb": ("journal",),
    "journal.retained_records": ("journal",),
    "wire.frames": ("wire",),
    "wire.mb": ("wire",),
    "place.count": ("metrics",),
    "place.solicitations": ("metrics",),
    "runtime.place_ms": ("runtime",),
    "runtime.attempt_ms": ("runtime",),
}

#: spans recorded by :class:`TracedTCTask` on the task threads
TASK_SPANS = ("task.run", "journal.checkpoint", "route.multicast", "route.send", "task.recv")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "thread")

    def __init__(self, name: str, parent: Optional["Span"], job: int, thread: int) -> None:
        self.name = name
        self.parent = parent
        self.job = job
        self.thread = thread
        self.start = 0.0
        self.end = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Recorder:
    """In-memory span store; records only while ``active``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.job = 0
        self._local = threading.local()

    def timed(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None, self.job, threading.get_ident())
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)


class _TimedContext:
    """A task context whose messaging calls are timed."""

    def __init__(self, ctx: Any, recorder: Recorder) -> None:
        self._ctx = ctx
        self._recorder = recorder

    def __getattr__(self, name: str) -> Any:
        return getattr(self._ctx, name)

    def multicast(self, recipients, payload):
        return self._recorder.timed("route.multicast", self._ctx.multicast, recipients, payload)

    def send(self, recipient, payload):
        return self._recorder.timed("route.send", self._ctx.send, recipient, payload)

    def recv_matching(self, predicate, timeout=None):
        return self._recorder.timed("task.recv", self._ctx.recv_matching, predicate, timeout)


class TracedTCTask(TCTask):
    """The Floyd worker, timed: ``run`` (compute is its self time),
    ``checkpoint``, and the context's multicast/send/recv_matching."""

    #: set by :class:`Tracer`, the only code that binds this class
    recorder: Recorder

    def run(self, ctx):
        recorder = TracedTCTask.recorder
        if not recorder.active:
            return super().run(ctx)
        return recorder.timed("task.run", super().run, _TimedContext(ctx, recorder))

    def checkpoint(self, state, tag=None):
        return TracedTCTask.recorder.timed("journal.checkpoint", super().checkpoint, state, tag)


def _nbytes(value: Any) -> int:
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    """Installs the shims around traced jobs and turns spans and
    counters into per-layer metrics (medians over traced jobs)."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        TracedTCTask.recorder = self.recorder
        #: span names whose shim target is missing (or, under the proc
        #: backend, whose spans stay in the worker processes)
        self.absent: set[str] = set()
        self.per_job: list[dict[str, float]] = []
        self.retained_records: list[float] = []
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._main = threading.get_ident()
        self._uses_traced_task = False
        self._before: dict[str, Any] = {}
        self._first_span = 0

    # -- set-up ----------------------------------------------------------------
    def registry(self, workload):
        registry = workload.registry()
        try:
            registry.resolve(WORKER_JAR, WORKER_CLASS)
        except TaskLoadError:
            return registry
        registry.register_class(WORKER_JAR, WORKER_CLASS, TracedTCTask)
        self._uses_traced_task = True
        return registry

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _resolve(self, module: str, path: str, span: str) -> Optional[tuple[Any, str]]:
        """(owner, attribute) of a dotted name, or None with *span*
        marked absent when the target is gone."""
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module)
            for name in parents:
                owner = getattr(owner, name)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.add(span)
            return None
        return owner, attr

    def install(self) -> None:
        recorder = self.recorder
        for module, path, span in SHIMS:
            target = self._resolve(module, path, span)
            if target is None:
                continue
            original = getattr(*target)

            def shim(*args, _fn=original, _span=span, **kwargs):
                return recorder.timed(_span, _fn, *args, **kwargs)

            self._patch(*target, shim)
        target = self._resolve(*CLIENT_SHIM, "deploy.compile")
        if target is None:
            self.absent.add("exec.client")
            return

        class TimedClient(getattr(*target)):
            def __init__(self, *args, **kwargs):
                recorder.timed("deploy.compile", super().__init__, *args, **kwargs)

            def run(self, *args, **kwargs):
                return recorder.timed("exec.client", super().run, *args, **kwargs)

        self._patch(*target, TimedClient)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters the program exposes -------------------------------------------
    def _read(self, source: str, fn: Callable, default: Any) -> Any:
        """``fn()``, or *default* with *source* marked absent when the
        program no longer has what it reads."""
        try:
            return fn()
        except AttributeError:
            self.absent.add(source)
            return default

    def _records(self, env) -> list:
        """node0's journal replica, which holds every origin's records."""
        return self._read("journal", lambda: env.cluster.servers[0].journal.records(), [])

    def _counters(self, env) -> dict[str, Any]:
        cluster = env.cluster
        wire = self._read("wire", lambda: list(cluster.transport.stats().values()), [])
        metrics = self._read("metrics", lambda: cluster.telemetry.metrics, None)
        return {
            "records": len(self._records(env)),
            "frames": sum(n.get("frames_sent", 0) + n.get("frames_received", 0) for n in wire),
            "wire_bytes": sum(n.get("bytes_sent", 0) + n.get("bytes_received", 0) for n in wire),
            "placements": metrics.total("cn_placements_total") if metrics else 0.0,
            "solicitations": metrics.total("cn_bus_solicitations_total") if metrics else 0.0,
        }

    # -- per job -------------------------------------------------------------------
    def begin_job(self, env) -> None:
        self._before = self._counters(env)
        self._first_span = len(self.recorder.spans)
        self.recorder.job += 1
        self.install()
        self.recorder.active = True

    def end_job(self, env, elapsed_ms: float) -> None:
        self.recorder.active = False
        self.uninstall()
        self.traced.append(elapsed_ms)
        after = self._counters(env)
        before = self._before
        spans = self.recorder.spans[self._first_span:]
        client = [s for s in spans if s.thread == self._main]
        tasks = [s for s in spans if s.thread != self._main]
        row: dict[str, float] = {}
        for metric, names in SPAN_SUMS.items():
            row[metric] = sum(s.ms for s in spans if s.name in names)
        row["route.rounds"] = sum(1 for s in tasks if s.name == "route.multicast")
        child_ms: dict[int, float] = {}
        for s in tasks:
            if s.parent is not None:
                child_ms[id(s.parent)] = child_ms.get(id(s.parent), 0.0) + s.ms
        row["compute.task_ms"] = sum(
            s.ms - child_ms.get(id(s), 0.0) for s in tasks if s.name == "task.run"
        )
        # client thread: layers run one after another; exec.client is a
        # container whose own time is the generated client's glue code
        layers = [
            s for s in client
            if s.name != "exec.client"
            and (s.parent is None or s.parent.name == "exec.client")
        ]
        tops = [s for s in client if s.parent is None]
        covered = sum(s.ms for s in layers)
        row["trace.coverage"] = covered / elapsed_ms
        row["trace.job_ms"] = elapsed_ms
        row["portal.other_ms"] = (
            elapsed_ms - sum(s.ms for s in tops) if env.portal is not None else 0.0
        )
        starts = [s.start for s in client if s.name == "exec.start"]
        waits = [s.end for s in client if s.name == "exec.wait"]
        row["exec.wait_ms"] = (max(waits) - min(starts)) * 1000.0 if starts and waits else 0.0
        row["place.count"] = after["placements"] - before["placements"]
        row["place.solicitations"] = after["solicitations"] - before["solicitations"]
        row["wire.frames"] = after["frames"] - before["frames"]
        row["wire.mb"] = (after["wire_bytes"] - before["wire_bytes"]) / 2**20
        self._journal_rows(env, before["records"], row)
        self.per_job.append(row)

    def _journal_rows(self, env, first_record: int, row: dict[str, float]) -> None:
        new = self._records(env)[first_record:]
        kinds = Counter(r.kind for r in new)
        for kind in RECORD_KINDS:
            row[f"journal.records.{kind}"] = kinds.pop(kind, 0)
        row["journal.records.other"] = sum(kinds.values())
        checkpoints = [r for r in new if r.kind == "checkpoint"]
        row["journal.checkpoints"] = len(checkpoints)
        row["journal.checkpoint_mb"] = sum(_nbytes(r.data.get("state")) for r in checkpoints) / 2**20
        # the runtime's own spans for the jobs this run created
        spans = self._read("runtime", lambda: env.cluster.telemetry.spans.spans, None)
        ms = {"place": 0.0, "attempt": 0.0}
        for job_id in {r.job_id for r in new if r.kind == "job-created"} if spans else ():
            for span in spans(job_id):
                if span.kind in ms and span.end is not None:
                    ms[span.kind] += (span.end - span.start) * 1000.0
        row["runtime.place_ms"] = ms["place"]
        row["runtime.attempt_ms"] = ms["attempt"]

    def end_lifetime(self, env, jobs: int) -> None:
        self.retained_records.append(len(self._records(env)) / jobs)

    # -- report ----------------------------------------------------------------------
    def report(self, spans_path: Path) -> dict[str, dict]:
        if self._uses_traced_task and not any(
            s.name == "task.run" for s in self.recorder.spans
        ):
            # the Floyd workers ran in other processes (proc backend):
            # their spans stayed there
            self.absent.update(TASK_SPANS)
        absent = {
            metric for metric, names in SOURCES.items()
            if all(name in self.absent for name in names)
        }
        out: dict[str, dict] = {}
        for metric, unit in METRICS:
            if metric == "trace.overhead":
                value = statistics.median(self.traced) / statistics.median(self.untraced)
            elif metric == "journal.retained_records":
                value = statistics.median(self.retained_records) if self.retained_records else 0.0
            elif metric in absent:
                value = 0.0
            elif unit == "count":
                # a mean, so that a rare burst (a record written many
                # times for one job) shows in the per-job rate
                value = statistics.fmean(row[metric] for row in self.per_job)
            else:
                value = statistics.median(row[metric] for row in self.per_job)
            out[metric] = {"value": float(value), "unit": unit}
        self._write_spans(spans_path)
        if absent:
            print("absent layers (reported as 0): " + ", ".join(sorted(absent)))
        finished = [row["journal.records.job-finished"] for row in self.per_job]
        print(f"job-finished records per traced job: mean {statistics.fmean(finished):.2f} "
              f"max {max(finished):.0f} (one expected)")
        print(f"traced jobs={len(self.traced)} untraced jobs={len(self.untraced)} "
              f"spans={len(self.recorder.spans)} -> {spans_path}")
        return out

    def _write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        ids = {id(span): index for index, span in enumerate(self.recorder.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.recorder.spans):
                fh.write(json.dumps({
                    "id": index,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "job": span.job,
                    "thread": "client" if span.thread == self._main else span.thread,
                }) + "\n")
