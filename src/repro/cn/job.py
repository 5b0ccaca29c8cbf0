"""Jobs and task runtime state.

"A Job is defined as a collection of Task objects" (paper section 3).
:class:`TaskSpec` is the immutable description derived from a CNX
``<task>``; :class:`TaskRuntime` tracks one (possibly dynamic-expanded)
task instance through its lifecycle; :class:`Job` owns the roster, the
job-wide tuple space, the client message queue, and the message router
connecting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Optional, Sequence

import pickle

from ..analysis.conc.runtime import make_condition, make_lock
from ..core.cnx.schema import CnxTask
from .errors import (
    JobError,
    JobTimeoutError,
    Overloaded,
    ShutdownError,
    TaskFailedError,
    UnknownTaskError,
)
from .messages import Message, MessageType, payload_digest
from .queues import MessageQueue
from .runmodel import RunModel
from .tuplespace import TupleSpace

__all__ = ["TaskSpec", "TaskState", "TaskRuntime", "Job", "payload_nbytes"]

#: recursion guard for :func:`payload_nbytes` on nested containers
_SIZE_DEPTH_LIMIT = 12

#: how many times a poisoned serial may be re-offered from the ledger
#: before the job gives up on live redelivery (the ledger still holds
#: the message for attempt-level replay); bounds the corrupt-redeliver
#: loop a corrupt_rate=1.0 link would otherwise spin forever
_POISON_REOFFER_LIMIT = 3


def payload_nbytes(payload: Any, _depth: int = 0) -> Optional[int]:
    """Estimate a payload's wire size without serializing it.

    The data plane's accounting only needs a size *estimate*; paying a
    full ``pickle.dumps`` per routed message is the dominant CPU cost of
    a broadcast round.  This fast path covers the payload shapes the CN
    applications actually send -- buffers (``len``), numpy blocks
    (``.nbytes``), scalars, and containers of those -- and returns None
    for anything it cannot size, in which case the caller falls back to
    pickling.
    """
    if payload is None:
        return 1
    t = type(payload)
    if t is bool:
        return 1
    if t is int or t is float or t is complex:
        return 8
    if t is str or t is bytes or t is bytearray:
        return len(payload)
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes  # numpy arrays/scalars, memoryview
    if _depth >= _SIZE_DEPTH_LIMIT:
        return None
    if t is tuple or t is list or t is set or t is frozenset:
        total = 8
        for item in payload:
            size = payload_nbytes(item, _depth + 1)
            if size is None:
                return None
            total += size + 8
        return total
    if t is dict:
        total = 8
        for key, value in payload.items():
            key_size = payload_nbytes(key, _depth + 1)
            value_size = payload_nbytes(value, _depth + 1)
            if key_size is None or value_size is None:
                return None
            total += key_size + value_size + 16
        return total
    return None


@dataclass(frozen=True)
class TaskSpec:
    """Immutable description of one task instance."""

    name: str
    jar: str
    cls: str
    depends: tuple[str, ...] = ()
    memory: int = 1000
    runmodel: RunModel = RunModel.RUN_AS_THREAD_IN_TM
    params: tuple = ()
    max_retries: int = 0
    #: per-task deadline in virtual seconds (advanced by Cluster.tick);
    #: None disables the watchdog for this task
    deadline: Optional[float] = None

    @classmethod
    def from_cnx(cls, task: CnxTask) -> "TaskSpec":
        """Build a spec from a CNX task element (dynamic expansion is the
        caller's concern; see :meth:`expand_dynamic`)."""
        return cls(
            name=task.name,
            jar=task.jar,
            cls=task.cls,
            depends=tuple(task.depends),
            memory=task.task_req.memory,
            runmodel=RunModel.parse(task.task_req.runmodel),
            params=tuple(task.param_values()),
            max_retries=task.task_req.retries,
        )

    def with_instance(self, index: int, params: Sequence[Any]) -> "TaskSpec":
        """A concrete instance of a dynamic task: indexed name, given args."""
        return replace(self, name=f"{self.name}{index}", params=tuple(params))


class TaskState(str, Enum):
    PENDING = "PENDING"      # spec known, not yet placed
    CREATED = "CREATED"      # placed on a TaskManager, queue exists
    RUNNING = "RUNNING"
    RETRYING = "RETRYING"    # failed with retry budget left; being re-placed
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (TaskState.COMPLETED, TaskState.FAILED, TaskState.CANCELLED)


class TaskRuntime:
    """Mutable lifecycle record for one task instance."""

    def __init__(self, spec: TaskSpec) -> None:
        self.spec = spec
        self.state = TaskState.PENDING
        self.node_name: Optional[str] = None
        self.result: Any = None
        self.error: Optional[str] = None
        self.queue: Optional[MessageQueue] = None
        self.attempts = 0  # runs started so far (completed, failed, or fenced)
        #: placement generation: bumped every time the task is (re)hosted.
        #: A run whose hosting epoch no longer matches is a zombie (its
        #: node crashed or it was re-placed) and its outcome is discarded.
        self.epoch = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"<TaskRuntime {self.name!r} {self.state.value}>"


class Job:
    """A job instance living in a JobManager.

    The job is also the message router for its tasks: the paper's
    JobManager is "a conduit between the client CN application and the
    Job", and intertask/user traffic flows through the same conduit.
    """

    def __init__(self, job_id: str, client_name: str) -> None:
        self.job_id = job_id
        self.client_name = client_name
        self.tasks: dict[str, TaskRuntime] = {}
        self.task_order: list[str] = []
        self.tuple_space = TupleSpace()
        self.client_queue = MessageQueue(owner=f"{job_id}/client")
        self._lock = make_lock("Job._lock")
        # completion is a condition variable, not a polled flag: waiters
        # (api.CNAPI.wait) block until notified, and a failover re-bind
        # wakes them too so they can re-resolve the successor's Job
        self._cond = make_condition("Job._lock", self._lock)
        self._finished_flag = False
        self._rebound = False
        self.failed: Optional[TaskFailedError] = None
        #: absolute end-to-end deadline on the cluster clock (None = no
        #: budget).  The router stamps it on every outbound message and
        #: TaskManagers derive the per-task watchdog from what remains.
        self.deadline: Optional[float] = None
        #: cluster Telemetry hub (None or disabled = zero instrumentation)
        self.telemetry: Optional[Any] = None
        self._m_routed: Optional[Any] = None
        self._m_payload: Optional[Any] = None
        self._m_unsized: Optional[Any] = None
        # communication accounting (simulated wire volume): counts every
        # routed message and estimates its payload size -- the observable
        # the paper's row-k broadcast analysis (section 2) predicts
        self.messages_routed = 0
        self.payload_bytes = 0
        #: size computations actually performed (one per *unique* payload
        #: per fan-out -- interning makes a W-1 broadcast cost 1)
        self.payload_sizings = 0
        #: sizings avoided because the payload object was already sized
        #: within the same fan-out (shared-by-reference broadcast payloads)
        self.payload_reuses = 0
        #: sizings that had to fall back to pickling (no fast-size path)
        self.payloads_pickle_sized = 0
        #: payloads that could not be sized at all (unpicklable); their
        #: wire volume is lost from the accounting, so it is counted
        self.payloads_unsized = 0
        #: messages re-delivered into fresh queues after a re-placement
        #: (not part of the paper's wire-volume accounting)
        self.messages_replayed = 0
        #: messages evicted from bounded task queues under backpressure
        #: (each one is journaled as a ``shed`` record; see note_shed)
        self.messages_shed = 0
        #: whether the router seals outbound messages with a CRC digest
        #: (set from the owning JobManager; see note_poison)
        self.checksums = False
        #: frames quarantined by dequeue-time digest verification
        self.messages_poisoned = 0
        #: per-job dead-letter records, one per quarantined frame
        #: (journaled as ``dead-letter`` so they survive replay_job)
        self.dead_letters: list[dict] = []
        # re-offer budget per poisoned serial (see _POISON_REOFFER_LIMIT)
        self._poison_reoffers: dict[int, int] = {}
        # per-task delivery ledger: everything ever routed to each task,
        # replayed into the fresh queue when a task is re-placed after a
        # crash so restarted attempts see the full message history.
        # Entries for a task are truncated (GC'd) once the task reaches a
        # terminal state at its current epoch -- terminal tasks are never
        # re-placed, so their history can never be replayed again.
        self._delivery_log: dict[str, list[Message]] = {}
        #: cumulative count of ledger entries truncated per task (the GC
        #: watermark journaled so successor managers agree)
        self._gc_watermarks: dict[str, int] = {}
        # ledger occupancy accounting (resident = entries currently held;
        # peak = high-watermark; truncated = total entries GC'd)
        self.ledger_resident = 0
        self.ledger_peak = 0
        self.ledger_truncated = 0
        #: manager epoch: bumped when a successor JobManager adopts this
        #: job after a failover; stamps every journal record so a zombie
        #: manager's late writes are fenced out (see repro.cn.durability)
        self.manager_epoch = 1
        # write-ahead journal hook, set by the managing JobManager:
        # (kind, data) -> None.  None when the cluster runs non-durable.
        self._journal: Optional[Any] = None
        # application-level task checkpoints (task -> (tag, state)),
        # populated through TaskContext.checkpoint and restored from the
        # journal on adoption
        self._checkpoints: dict[str, tuple[Any, Any]] = {}

    # -- telemetry ---------------------------------------------------------------
    def set_telemetry(self, telemetry: Optional[Any]) -> None:
        """Attach the cluster Telemetry hub; binds hot-path metrics once
        so :meth:`route` pays one attribute test when telemetry is off
        and two bound-method calls when it is on."""
        if telemetry is None or not telemetry.enabled:
            self.telemetry = None
            self._m_routed = None
            self._m_payload = None
            self._m_unsized = None
            return
        self.telemetry = telemetry
        self._m_routed = telemetry.metrics.counter(
            "cn_messages_routed_total", job=self.job_id
        )
        self._m_unsized = telemetry.metrics.counter("cn_payload_unsized_total")
        from .telemetry.metrics import BYTES_BUCKETS

        self._m_payload = telemetry.metrics.histogram(
            "cn_payload_bytes", buckets=BYTES_BUCKETS
        )

    # -- durability ----------------------------------------------------------------
    def set_journal(self, hook: Optional[Any]) -> None:
        """Attach the write-ahead journal hook ``(kind, data) -> None``."""
        self._journal = hook

    def journal_event(self, kind: str, data: dict) -> None:
        """Append one record to the job journal (no-op when non-durable)."""
        hook = self._journal
        if hook is None:
            return
        hook(kind, data)

    def _journal_deliveries(self, messages: Sequence[Message]) -> None:
        """Append delivery record(s) for *messages*: the singleton keeps
        the original ``delivery`` shape, a fan-out becomes one
        ``delivery_batch`` record (one local append + one bus publish
        regardless of fan-out width)."""
        hook = self._journal
        if hook is None:
            return
        if len(messages) == 1:
            hook("delivery", {"message": messages[0]})
        else:
            hook("delivery_batch", {"messages": list(messages)})

    def save_checkpoint(self, task: str, state: Any, tag: Any = None) -> None:
        """Persist an application checkpoint for *task* through the
        journal; a later attempt (same or successor manager) restores it
        via :meth:`load_checkpoint`."""
        with self._lock:
            self._checkpoints[task] = (tag, state)
        self.journal_event("checkpoint", {"task": task, "tag": tag, "state": state})

    def load_checkpoint(self, task: str) -> Optional[tuple[Any, Any]]:
        """The latest ``(tag, state)`` checkpoint for *task*, or None."""
        with self._lock:
            return self._checkpoints.get(task)

    def restore_checkpoints(self, checkpoints: dict[str, tuple[Any, Any]]) -> None:
        """Seed the checkpoint store from a journal replay (adoption)."""
        with self._lock:
            self._checkpoints.update(checkpoints)

    def restore_deliveries(
        self,
        deliveries: dict[str, list[Message]],
        gc_watermarks: Optional[dict[str, int]] = None,
    ) -> None:
        """Seed the delivery ledger from a journal replay (adoption).

        *gc_watermarks* carries the predecessor's cumulative per-task
        truncation counts so this manager's own ``ledger-gc`` records
        continue the same monotone watermark sequence."""
        with self._lock:
            for task, messages in deliveries.items():
                self._delivery_log.setdefault(task, []).extend(messages)
                self.ledger_resident += len(messages)
            if self.ledger_resident > self.ledger_peak:
                self.ledger_peak = self.ledger_resident
            if gc_watermarks:
                for task, upto in gc_watermarks.items():
                    if upto > self._gc_watermarks.get(task, 0):
                        self._gc_watermarks[task] = upto

    # -- roster ----------------------------------------------------------------
    def add_task(self, spec: TaskSpec) -> TaskRuntime:
        with self._lock:
            if spec.name in self.tasks:
                raise JobError(f"job {self.job_id}: duplicate task {spec.name!r}")
            runtime = TaskRuntime(spec)
            self.tasks[spec.name] = runtime
            self.task_order.append(spec.name)
            return runtime

    def task(self, name: str) -> TaskRuntime:
        try:
            return self.tasks[name]
        except KeyError:
            raise UnknownTaskError(f"job {self.job_id}: no task {name!r}") from None

    def task_names(self) -> list[str]:
        return list(self.task_order)

    # -- dependency queries --------------------------------------------------------
    def ready_tasks(self) -> list[TaskRuntime]:
        """CREATED tasks whose dependencies have all completed."""
        with self._lock:
            ready = []
            for name in self.task_order:
                runtime = self.tasks[name]
                if runtime.state is not TaskState.CREATED:
                    continue
                if all(
                    self.tasks[d].state is TaskState.COMPLETED
                    for d in runtime.spec.depends
                ):
                    ready.append(runtime)
            return ready

    def dependents_of(self, name: str) -> list[TaskRuntime]:
        return [
            self.tasks[t]
            for t in self.task_order
            if name in self.tasks[t].spec.depends
        ]

    # -- routing ----------------------------------------------------------------
    def _sized(self, payload: Any) -> tuple[int, str]:
        """Estimate *payload*'s wire size; returns ``(size, how)`` where
        *how* is ``"fast"`` (no serialization), ``"pickle"`` (fallback
        serialization), or ``"unsized"`` (unpicklable -- size 0 charged,
        the loss is counted rather than silently swallowed)."""
        size = payload_nbytes(payload)
        if size is not None:
            return size, "fast"
        try:
            size = len(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
            # unpicklable payloads are possible in-process; the wire
            # volume is unknowable, so count the miss instead of hiding it
            return 0, "unsized"
        return size, "pickle"

    def route(self, message: Message) -> None:
        """Deliver *message* to a task queue or the client queue.

        Single-message form of :meth:`route_many` -- same ledger,
        journal, and accounting semantics.
        """
        self.route_many((message,))

    def route_many(self, messages: Sequence[Message]) -> None:
        """Deliver a fan-out of messages in one data-plane operation.

        Compared with W independent :meth:`route` calls, a fan-out costs:

        * one :attr:`_lock` acquisition for all accounting + ledger
          appends (not one per message),
        * one size computation per *unique payload object* -- broadcast
          messages share their payload by reference, so the row-k
          broadcast of the guiding example is sized exactly once per
          round (and never pickled at all on the numpy fast path),
        * one journal append + one bus publish (``delivery_batch``) for
          the whole fan-out instead of one per recipient.

        Semantics are unchanged from per-message routing: task-bound
        messages are recorded in the per-task delivery ledger *before*
        queue delivery, so a recipient whose hosting just died (closed
        queue) -- or that has not been placed yet -- does not crash the
        sender: the message is kept and replayed into the fresh queue
        once the task is (re-)placed (see :meth:`replay_into`).  Delivery
        to tasks is therefore at-least-once across attempts, and each
        recipient's chaos fate (drop/delay) is rolled independently by
        its own queue.
        """
        if not messages:
            return
        deadline = self.deadline
        checksums = self.checksums
        if self.telemetry is not None or deadline is not None or checksums:
            # stamp the job's causal context on unattributed messages so
            # downstream consumers can always walk back to a span, the
            # job deadline on unstamped messages so every hop can drop
            # doomed work, and the CRC digest so dequeue verification can
            # quarantine in-flight corruption; replace() re-uses the
            # existing serial/ts (no logical-clock disturbance)
            stamped: list[Message] = []
            for m in messages:
                if self.telemetry is not None and m.trace_ctx is None:
                    m = replace(m, trace_ctx=(self.job_id, "job"))
                if deadline is not None and m.deadline is None:
                    m = replace(m, deadline=deadline)
                if checksums and m.digest is None:
                    m = m.seal()
                stamped.append(m)
            messages = stamped
        # resolve every recipient before mutating anything: an unknown
        # task name is a programming error and must not leave a partial
        # fan-out behind
        runtimes: dict[str, TaskRuntime] = {}
        for message in messages:
            recipient = message.recipient
            if recipient != "client" and recipient not in runtimes:
                runtimes[recipient] = self.task(recipient)
        # payload interning: one sizing per unique payload object per
        # fan-out, keyed by id() within this call only (no lifetime risk:
        # the messages keep their payloads alive for the duration)
        sizes: dict[int, int] = {}
        unique_sizes: list[int] = []
        total = sizings = reuses = pickled = unsized = 0
        for message in messages:
            key = id(message.payload)
            size = sizes.get(key)
            if size is not None:
                reuses += 1
                total += size
                continue
            size, how = self._sized(message.payload)
            sizes[key] = size
            unique_sizes.append(size)
            total += size
            sizings += 1
            if how == "pickle":
                pickled += 1
            elif how == "unsized":
                unsized += 1
        ledgered: list[Message] = []
        deliveries: list[tuple[MessageQueue, Message]] = []
        with self._lock:
            self.messages_routed += len(messages)
            self.payload_bytes += total
            self.payload_sizings += sizings
            self.payload_reuses += reuses
            self.payloads_pickle_sized += pickled
            self.payloads_unsized += unsized
            for message in messages:
                if message.recipient == "client":
                    deliveries.append((self.client_queue, message))
                    continue
                runtime = runtimes[message.recipient]
                if runtime.state.terminal:
                    # terminal tasks are never re-placed, so a ledger
                    # entry could never be replayed -- skip the ledger
                    # and journal, just attempt best-effort delivery
                    if runtime.queue is not None:
                        deliveries.append((runtime.queue, message))
                    continue
                self._delivery_log.setdefault(message.recipient, []).append(
                    message
                )
                self.ledger_resident += 1
                ledgered.append(message)
                if runtime.queue is not None:
                    deliveries.append((runtime.queue, message))
                # an unplaced recipient (no queue yet: placement window
                # or pending re-placement) keeps the message ledgered;
                # replay delivers it once the queue exists
            if self.ledger_resident > self.ledger_peak:
                self.ledger_peak = self.ledger_resident
        if self._m_routed is not None:
            self._m_routed.inc(len(messages))
            for size in unique_sizes:
                self._m_payload.observe(size)
            if unsized:
                self._m_unsized.inc(unsized)
        # write-ahead: ledger entries are journaled (and replicated to
        # peer managers) before queue delivery, so a successor's replay
        # sees every message a restarted attempt may need
        if ledgered and self._journal is not None:
            self._journal_deliveries(ledgered)
        client_error: Optional[ShutdownError] = None
        for queue, message in deliveries:
            try:
                queue.put(message)
            except ShutdownError as exc:
                if queue is self.client_queue:
                    # no ledger covers the client conduit: surface the
                    # failure (after finishing the other recipients) so
                    # the caller can record the undeliverable message
                    client_error = exc
                # a task queue closed mid-delivery (node crash, deadline
                # cancel): the ledger keeps the message for replay;
                # other recipients still get theirs
        if client_error is not None:
            raise client_error

    def note_shed(self, task: str, message: Message) -> None:
        """Record a backpressure eviction from *task*'s bounded queue.

        Called by the hosting TaskManager (outside the queue lock).  The
        message itself was already ledgered *and* journaled write-ahead
        by :meth:`route_many` before it ever reached the queue, so the
        ``shed`` record only needs the serial: a replay re-offers the
        full message from the delivery ledger, preserving at-least-once
        even though the live queue dropped it.
        """
        with self._lock:
            self.messages_shed += 1
        self.journal_event("shed", {"task": task, "serial": message.serial})

    def note_poison(self, task: str, message: Message) -> None:
        """Quarantine a corrupt frame dequeued from *task*'s queue.

        Called by the queue's poison hook (outside the queue lock).  The
        frame is recorded as a per-job dead-letter (journaled, so the
        record survives ``replay_job`` and manager failover) and -- while
        the per-serial re-offer budget lasts -- the *pristine* ledgered
        copy of the same serial is re-offered into the live queue:
        corruption happened to the in-flight copy, the ledger still holds
        the original, so the consumer usually sees nothing worse than a
        reordering.
        """
        original: Optional[Message] = None
        with self._lock:
            self.messages_poisoned += 1
            entry = {
                "task": task,
                "serial": message.serial,
                "sender": message.sender,
                "type": message.type,
                "expected_digest": message.digest,
                "observed_digest": payload_digest(message.payload),
            }
            self.dead_letters.append(entry)
            offers = self._poison_reoffers.get(message.serial, 0)
            if offers < _POISON_REOFFER_LIMIT:
                self._poison_reoffers[message.serial] = offers + 1
                for logged in self._delivery_log.get(task, ()):
                    if logged.serial == message.serial:
                        original = logged
                        break
        self.journal_event("dead-letter", dict(entry))
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "cn_dead_letters_total", job=self.job_id
            ).inc()
        if original is not None:
            runtime = self.tasks.get(task)
            queue = runtime.queue if runtime is not None else None
            if queue is not None:
                try:
                    queue.put(original)
                except (ShutdownError, Overloaded) as exc:
                    # the ledger still holds the message for attempt-level
                    # replay; record the failed live re-offer
                    from .trace import note_undeliverable  # local: trace imports api

                    note_undeliverable(self.job_id, original, exc)

    def restore_dead_letters(self, entries: Sequence[dict]) -> None:
        """Seed the dead-letter store from a journal replay (adoption)."""
        with self._lock:
            self.dead_letters.extend(dict(e) for e in entries)

    def has_ledgered(self, name: str) -> bool:
        """Whether any un-GC'd deliveries are ledgered for *name*."""
        with self._lock:
            return bool(self._delivery_log.get(name))

    def replay_into(self, name: str) -> int:
        """Re-deliver every logged message for *name* into its (fresh)
        queue; used by the JobManager after re-placing a crashed task.
        Returns the number of messages replayed."""
        runtime = self.task(name)
        queue = runtime.queue
        if queue is None:
            return 0
        with self._lock:
            pending = list(self._delivery_log.get(name, ()))
        if not pending:
            return 0
        delivered = queue.put_many(pending)
        with self._lock:
            self.messages_replayed += delivered
        return delivered

    # -- ledger GC ---------------------------------------------------------------
    def gc_ledger(self, name: str) -> int:
        """Truncate *name*'s delivery ledger after its attempt reached a
        terminal state at the current epoch.

        Terminal tasks are never re-placed (recovery skips them), so
        their history can never be replayed -- holding it would keep the
        ledger O(total traffic) instead of O(in-flight traffic).  The
        truncation is journaled as a cumulative per-task watermark
        (``ledger-gc``) so a successor manager's replay agrees on exactly
        which prefix is gone.  Returns the number of entries dropped."""
        with self._lock:
            dropped = self._delivery_log.pop(name, None)
            count = len(dropped) if dropped else 0
            if count == 0:
                return 0
            self.ledger_resident -= count
            self.ledger_truncated += count
            watermark = self._gc_watermarks.get(name, 0) + count
            self._gc_watermarks[name] = watermark
        self.journal_event("ledger-gc", {"task": name, "upto": watermark})
        return count

    # -- completion ---------------------------------------------------------------
    def note_terminal(self, name: str) -> None:
        """Called by the TaskManager when a task reaches a terminal state;
        flips the job-finished condition when the roster is done."""
        finished = False
        with self._lock:
            runtime = self.tasks[name]
            if runtime.state is TaskState.FAILED and self.failed is None:
                self.failed = TaskFailedError(name, runtime.error or "unknown")
            # fail fast: a failure finishes the job even with tasks pending
            if self.failed is not None or all(
                t.state.terminal for t in self.tasks.values()
            ):
                self._finished_flag = True
                finished = True
                self._cond.notify_all()
            state = runtime.state.value
            terminal = runtime.state.terminal
        if terminal:
            # the attempt can never be re-placed again: its message
            # history is dead weight -- truncate and journal the watermark
            self.gc_ledger(name)
        if self.telemetry is not None:
            task_span = self.telemetry.spans.get(self.job_id, f"task:{name}")
            if task_span is not None:
                self.telemetry.spans.end(task_span, state=state)
            if finished:
                span = self.telemetry.spans.get(self.job_id, "job")
                if span is not None:
                    self.telemetry.spans.end(span, failed=self.failed is not None)

    def mark_rebound(self) -> None:
        """Wake waiters because a successor manager re-bound this job id
        to a fresh :class:`Job`; blocked clients must re-resolve instead
        of waiting on an object that will never finish."""
        with self._lock:
            self._rebound = True
            self._cond.notify_all()

    def wait_or_rebind(self, timeout: Optional[float] = None) -> str:
        """Block until this job finishes or is re-bound elsewhere.

        Returns ``"finished"``, ``"rebound"`` (a failover replaced this
        object; re-resolve through the directory), or ``"timeout"``.
        Unlike :meth:`wait` this never raises -- it is the api layer's
        low-level wake primitive.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._finished_flag or self._rebound, timeout
            )
            if self._finished_flag:
                return "finished"
            return "rebound" if self._rebound else "timeout"

    def wait(self, timeout: Optional[float] = None) -> dict[str, Any]:
        """Block until every task is terminal (or one fails).  Returns the
        result map; raises the first :class:`TaskFailedError` on failure.
        On timeout raises :class:`JobTimeoutError` carrying the per-task
        states, so "still running" is distinguishable from "wedged"."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._finished_flag, timeout):
                raise JobTimeoutError(self.job_id, timeout, self.states())
        if self.failed is not None:
            raise self.failed
        return self.results()

    @property
    def finished(self) -> bool:
        with self._lock:
            return self._finished_flag

    def results(self) -> dict[str, Any]:
        return {
            name: runtime.result
            for name, runtime in self.tasks.items()
            if runtime.state is TaskState.COMPLETED
        }

    def states(self) -> dict[str, str]:
        return {name: runtime.state.value for name, runtime in self.tasks.items()}

    def __repr__(self) -> str:
        return f"<Job {self.job_id!r} tasks={len(self.tasks)}>"
