"""JobManager: job creation, task placement, dependency-driven starts.

"A JobManager is selected based on User specified Job requirements from
the list of willing JobManagers.  The Job is subsequently created in the
selected JobManager.  ...  The JobManager solicits TaskManager for the
Tasks that requested to be created by the User program.  If a willing
TaskManager is found the JobManager will upload the JAR file to that
TaskManager." (paper section 3)

Placement policy: the JobManager multicasts one placement rule per
batch of tasks sharing a template (jar, class, memory, runmodel); every
node scores the rule locally and answers with one bid, and a pure fold
awards tasks to the bids with the most free memory, shrinking each
bidder's free memory as awards land (see :mod:`repro.cn.scheduler`).
The paper's per-task solicitation is the 1-task rule: ``create_task``,
retries and failover re-placement all place that way.  The JobManager
also drives the dependency DAG: when a task completes, every dependent
whose dependencies are all complete is started automatically -- this is
the "transitions are triggered by internal task termination" semantics
the activity-diagram mapping relies on (paper section 4).

Fault tolerance: a :class:`FailureDetector` tracks heartbeats from every
registered TaskManager (relayed off the multicast bus by the CNServer)
and declares a node dead after K consecutive missed beats.  Node death
triggers :meth:`handle_node_failure`, which evicts the node from the
placement pool and bulk-recovers its orphaned tasks through the same
:meth:`_recover` path individual task retries use -- re-place, replay
the message ledger, restart.  Retries back off exponentially with
deterministic seed-derived jitter (:class:`~repro.cn.chaos.ExponentialBackoff`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Optional

from ..analysis.conc.runtime import make_lock
from .chaos import ExponentialBackoff
from .durability import JobDirectory, ReplicatedJournal, replay_job
from .errors import CnError, NoWillingTaskManager, ShutdownError, UnknownTaskError
from .job import Job, TaskRuntime, TaskSpec, TaskState
from .messages import Message, MessageType
from .multicast import MulticastBus, Solicitation
from .registry import TaskRegistry
from .runmodel import RunModel
from .scheduler import PlacementRule, award_bids
from .taskmanager import TaskManager

__all__ = ["JobManager", "FailureDetector"]


class FailureDetector:
    """K-consecutive-missed-heartbeat failure detector.

    Each watched node has a miss counter; a heartbeat resets it, a tick
    without an intervening heartbeat increments it, and crossing
    ``k_misses`` declares the node dead.  A later heartbeat from a dead
    node (partition healed, node revived) resurrects it -- the classic
    eventually-perfect-detector behaviour: mistakes are possible but
    corrected.
    """

    def __init__(self, k_misses: int = 3) -> None:
        if k_misses < 1:
            raise ValueError(f"k_misses must be >= 1, got {k_misses}")
        self.k_misses = k_misses
        self._misses: dict[str, int] = {}
        self._beat_since_tick: dict[str, bool] = {}
        self._dead: set[str] = set()
        self._lock = make_lock("FailureDetector._lock", reentrant=False)

    def watch(self, node: str) -> None:
        with self._lock:
            self._misses.setdefault(node, 0)
            self._beat_since_tick.setdefault(node, True)

    def unwatch(self, node: str) -> None:
        with self._lock:
            self._misses.pop(node, None)
            self._beat_since_tick.pop(node, None)
            self._dead.discard(node)

    def beat(self, node: str) -> bool:
        """Record a heartbeat.  Returns True when this beat resurrects a
        node previously declared dead (a false positive being corrected)."""
        with self._lock:
            if node not in self._misses:
                return False
            self._misses[node] = 0
            self._beat_since_tick[node] = True
            if node in self._dead:
                self._dead.discard(node)
                return True
            return False

    def tick(self) -> list[str]:
        """One detection period: nodes silent since the last tick accrue a
        miss; returns the nodes newly declared dead on this tick."""
        newly_dead: list[str] = []
        with self._lock:
            for node in self._misses:
                if node in self._dead:
                    continue
                if self._beat_since_tick.get(node):
                    self._beat_since_tick[node] = False
                    continue
                self._misses[node] += 1
                if self._misses[node] >= self.k_misses:
                    self._dead.add(node)
                    newly_dead.append(node)
        return newly_dead

    def dead_nodes(self) -> set[str]:
        with self._lock:
            return set(self._dead)

    def misses(self, node: str) -> int:
        with self._lock:
            return self._misses.get(node, 0)


class JobManager:
    """One node's job coordination component."""

    def __init__(
        self,
        name: str,
        bus: MulticastBus,
        registry: TaskRegistry,
        *,
        max_jobs: int = 16,
        local_taskmanager: Optional[TaskManager] = None,
        failure_k: int = 3,
        retry_backoff: Optional[ExponentialBackoff] = None,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.name = name
        self.bus = bus
        self.registry = registry
        self.max_jobs = max_jobs
        self.local_taskmanager = local_taskmanager
        self.jobs: dict[str, Job] = {}
        self._job_counter = 0
        self._rule_counter = 0
        self._lock = make_lock("JobManager._lock")
        self._taskmanagers: dict[str, TaskManager] = {}
        self._shutdown = False
        self.failure_detector = FailureDetector(failure_k)
        self.backoff = retry_backoff if retry_backoff is not None else ExponentialBackoff()
        self._sleeper = sleeper if sleeper is not None else time.sleep
        #: nodes this manager has declared dead and recovered from
        self.failed_nodes: list[str] = []
        #: write-ahead job journal (replicated); None = non-durable mode
        self.journal: Optional[ReplicatedJournal] = None
        #: cluster-wide job_id -> (manager, Job) map for client re-binding
        self.directory: Optional[JobDirectory] = None
        #: jobs this manager adopted from dead peers (failover audit trail)
        self.adopted_jobs: list[str] = []
        #: cluster Telemetry hub (set by Cluster/CNServer wiring); None or
        #: a disabled hub means zero instrumentation on every path below
        self.telemetry: Optional[Any] = None
        #: seal outbound frames with CRC digests on every job this
        #: manager creates or adopts (set by CNServer wiring)
        self.checksums = False

    # -- discovery ---------------------------------------------------------
    def willing_to_manage(self, solicitation: Solicitation) -> Optional[dict]:
        """Respond to a multicast jobmanager solicitation (or decline)."""
        with self._lock:
            if self._shutdown:
                return None
            active = len([j for j in self.jobs.values() if not j.finished])
            if active >= self.max_jobs:
                return None
            wanted_tasks = int(solicitation.requirements.get("tasks", 0))
            # the offer advertises this manager's view of cluster capacity
            return {
                "manager": self.name,
                "active_jobs": active,
                "free_job_slots": self.max_jobs - active,
                "local_free_memory": (
                    self.local_taskmanager.free_memory if self.local_taskmanager else 0
                ),
                "wanted_tasks": wanted_tasks,
            }

    def register_taskmanager(self, tm: TaskManager) -> None:
        """Make *tm* known for direct upload after it wins an award."""
        with self._lock:
            self._taskmanagers[tm.name] = tm
        self.failure_detector.watch(tm.name)

    # -- failure detection -------------------------------------------------------
    def on_heartbeat(self, node: str) -> None:
        """A heartbeat arrived (relayed from the bus by the CNServer)."""
        self.failure_detector.beat(node)

    def on_tick(self) -> list[str]:
        """One failure-detection period; recovers from any node newly
        declared dead.  Returns those nodes' names."""
        newly_dead = self.failure_detector.tick()
        for node in newly_dead:
            self.handle_node_failure(node)
        return newly_dead

    def handle_node_failure(self, node: str) -> None:
        """A TaskManager is dead: bulk-recover every unfinished task it
        was hosting.  The registration itself is kept -- placement
        filters on the detector's dead set, and a later resurrection
        (healed partition, revived node) makes the node placeable again
        without re-registration."""
        with self._lock:
            self.failed_nodes.append(node)
            jobs = [j for j in self.jobs.values() if not j.finished]
        for job in jobs:
            orphans = [
                rt
                for rt in (job.tasks[name] for name in job.task_names())
                if rt.node_name == node
                and not rt.state.terminal
                and rt.state is not TaskState.PENDING
            ]
            if not orphans:
                continue
            self._route_safe(
                job,
                Message(
                    MessageType.NODE_FAILED,
                    sender=self.name,
                    recipient="client",
                    payload={
                        "node": node,
                        "orphans": [rt.name for rt in orphans],
                    },
                ),
            )
            self._recover(job, orphans, reason="node-failure")
        # manager failover: if the dead node was itself managing jobs,
        # the deterministic successor (this manager, if lowest-ranked
        # survivor) adopts them by replaying the replicated journal
        self._adopt_from(node)

    # -- manager failover --------------------------------------------------------
    def _is_successor(self, dead_base: str) -> bool:
        """Deterministic successor election, no extra protocol: every
        survivor ranks the surviving node base-names and the lowest one
        adopts.  All detectors see the same dead set (same heartbeats,
        same K), so exactly one manager elects itself."""
        my_base = self.name.split("/")[0]
        with self._lock:
            watched = list(self._taskmanagers)
        dead = {n.split("/")[0] for n in self.failure_detector.dead_nodes()}
        dead.add(dead_base)
        if my_base in dead:
            return False
        survivors = {n.split("/")[0] for n in watched} - dead
        survivors.add(my_base)
        return min(sorted(survivors)) == my_base

    def _adopt_from(self, node: str) -> list[str]:
        """Adopt every in-flight job the dead *node*'s JobManager was
        managing (according to the replicated journal), if this manager
        is the elected successor.  Returns the adopted job ids."""
        if self.journal is None:
            return []
        dead_base = node.split("/")[0]
        if not self._is_successor(dead_base):
            return []
        adopted: list[str] = []
        for job_id in self.journal.jobs_managed_by(f"{dead_base}/jm"):
            with self._lock:
                if self._shutdown or job_id in self.jobs:
                    continue
            try:
                self.adopt_job(job_id)
            except CnError:
                continue  # placement wholesale failure; job marked failed
            adopted.append(job_id)
        return adopted

    def adopt_job(self, job_id: str) -> Job:
        """Take over *job_id* from a dead manager: replay the journal into
        a fresh Job, fence the dead manager with a bumped manager epoch,
        evict its zombie hostings, re-place the unfinished tasks (message
        ledger replayed, checkpoints restored), and re-bind the client's
        handle through the directory."""
        journal = self.journal
        if journal is None:
            raise CnError(f"JobManager {self.name!r} has no journal to replay")
        snapshot = replay_job(job_id, journal.records(job_id))
        job = Job(job_id, snapshot.client)
        job.manager_epoch = snapshot.mepoch + 1
        # the budget survives failover: the successor enforces the same
        # absolute deadline the dead manager journaled at creation
        job.deadline = snapshot.deadline
        job.checksums = self.checksums
        with self._lock:
            if self._shutdown:
                raise CnError(f"JobManager {self.name!r} is shut down")
            self.jobs[job_id] = job
            self.adopted_jobs.append(job_id)
        job.set_telemetry(self._hub())
        t = job.telemetry
        adopt_start = t.now() if t is not None else 0.0
        self._bind_journal(job)
        # fence first: once this record lands, any append still stamped
        # with the dead manager's epoch is rejected by every backend
        job.journal_event(
            "job-adopted", {"manager": self.name, "previous": snapshot.manager}
        )
        # rebuild the roster exactly as journaled
        for name in snapshot.order:
            if t is not None:
                # idempotent: the recorder is cluster-global, so spans the
                # dead manager already began are reused, not duplicated --
                # the adopted job keeps its one trace across manager epochs
                self._begin_task_span(t, job, name, snapshot.specs[name].depends)
            runtime = job.add_task(snapshot.specs[name])
            runtime.attempts = snapshot.attempts.get(name, 0)
            # restoring the highest journaled placement epoch guarantees
            # re-hosted attempts get strictly larger epochs than any
            # zombie attempt still running somewhere
            runtime.epoch = snapshot.epochs.get(name, 0)
            runtime.node_name = snapshot.nodes.get(name)
            state = TaskState(snapshot.states.get(name, TaskState.PENDING.value))
            if state.terminal:
                runtime.state = state
                runtime.result = snapshot.results.get(name)
                runtime.error = snapshot.errors.get(name)
        job.restore_deliveries(snapshot.deliveries, snapshot.gc_watermarks)
        job.restore_checkpoints(snapshot.checkpoints)
        job.restore_dead_letters(snapshot.dead_letters)
        # migrate the client conduit: drain the dead manager's client
        # queue into the new job's (trace history survives), close the
        # old one so zombie notifications surface as undeliverable
        old_entry = self.directory.lookup(job_id) if self.directory else None
        if old_entry is not None and old_entry.job is not job:
            for message in old_entry.job.client_queue.drain():
                job.client_queue.put(message)
            old_entry.job.client_queue.close()
        if self.directory is not None:
            self.directory.register(job_id, self, job, epoch=job.manager_epoch)
        pending = [job.tasks[name] for name in snapshot.pending_tasks()]
        self._route_safe(
            job,
            Message(
                MessageType.MANAGER_ADOPTED,
                sender=self.name,
                recipient="client",
                payload={
                    "job_id": job_id,
                    "manager": self.name,
                    "previous": snapshot.manager,
                    "manager_epoch": job.manager_epoch,
                    "replayed_records": len(journal.records(job_id)),
                    "re_placing": [rt.name for rt in pending],
                },
            ),
        )
        # terminal tasks are already done; let the job notice them so a
        # fully-finished roster flips the finished event immediately
        for name in snapshot.terminal_tasks():
            job.note_terminal(name)
        # the dead manager may have placed attempts on nodes that are
        # still alive: evict them so the epoch fence retires them
        with self._lock:
            taskmanagers = list(self._taskmanagers.values())
        for tm in taskmanagers:
            if not tm.crashed:
                tm.evict_job(job_id)
        if self.local_taskmanager is not None and not self.local_taskmanager.crashed:
            self.local_taskmanager.evict_job(job_id)
        self._recover(job, pending, reason="adoption")
        if t is not None:
            t.spans.record(
                job_id,
                f"adopt#{job.manager_epoch}",
                start=adopt_start,
                end=t.now(),
                name=f"adopt by {self.name}",
                kind="adopt",
                parent_id="job",
                node=self.name.split("/")[0],
                manager=self.name,
                previous=snapshot.manager,
                manager_epoch=job.manager_epoch,
            )
            t.metrics.counter("cn_adoptions_total", manager=self.name).inc()
        return job

    # -- telemetry helpers -------------------------------------------------------
    def _hub(self) -> Optional[Any]:
        """The active Telemetry hub, or None when disabled."""
        t = self.telemetry
        return t if t is not None and t.enabled else None

    def _begin_task_span(self, t: Any, job: Job, name: str, depends) -> None:
        """Ensure the job root + one task span exist, and record the DAG
        edge on the root's ``deps`` attr (exported traces stay
        self-contained for the critical-path CLI)."""
        root = t.spans.begin(
            job.job_id, "job", name=job.job_id, kind="job", client=job.client_name
        )
        root.attrs.setdefault("deps", {})[name] = list(depends)
        t.spans.begin(
            job.job_id,
            f"task:{name}",
            name=name,
            kind="task",
            parent_id="job",
            task=name,
        )

    # -- durability helpers ------------------------------------------------------
    def _bind_journal(self, job: Job) -> None:
        """Attach this manager's replicated journal to *job*: every event
        the job emits is stamped with the job's current manager epoch."""
        journal = self.journal
        if journal is None:
            return
        job.set_journal(
            lambda kind, data: journal.append(
                job.job_id, kind, data, job.manager_epoch
            )
        )

    # -- job lifecycle -----------------------------------------------------------
    def create_job(
        self,
        client_name: str,
        *,
        descriptor: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> Job:
        with self._lock:
            if self._shutdown:
                raise CnError(f"JobManager {self.name!r} is shut down")
            self._job_counter += 1
            job_id = f"{self.name}-job{self._job_counter}"
            job = Job(job_id, client_name)
            job.deadline = deadline
            job.checksums = self.checksums
            self.jobs[job_id] = job
        job.set_telemetry(self._hub())
        t = job.telemetry
        if t is not None:
            t.spans.begin(
                job_id,
                "job",
                name=job_id,
                kind="job",
                node=self.name.split("/")[0],
                client=client_name,
            )
            t.metrics.counter("cn_jobs_created_total", manager=self.name).inc()
        self._bind_journal(job)
        job.journal_event(
            "job-created",
            {
                "client": client_name,
                "manager": self.name,
                "descriptor": descriptor,
                "deadline": deadline,
            },
        )
        if self.directory is not None:
            self.directory.register(job_id, self, job, epoch=job.manager_epoch)
        return job

    def create_task(self, job: Job, spec: TaskSpec) -> TaskRuntime:
        """Place one task (a 1-task rule), upload, create its queue."""
        return self.create_tasks(job, [spec])[0]

    def create_tasks(self, job: Job, specs: Iterable[TaskSpec]) -> list[TaskRuntime]:
        """Place a batch of tasks in one call.

        Tasks sharing a template (jar, class, memory, runmodel) are placed
        through a single rule/bid/award round instead of one solicitation
        each, and the TASK_CREATED notifications fan out through one
        ``route_many`` batch.
        """
        specs = list(specs)
        runtimes: list[TaskRuntime] = []
        t = job.telemetry
        for spec in specs:
            runtime = job.add_task(spec)
            if t is not None:
                self._begin_task_span(t, job, spec.name, spec.depends)
            # write-ahead: the spec is journaled before placement, so a
            # successor knows the full roster even if we die mid-placement
            job.journal_event("task-spec", {"spec": spec})
            runtimes.append(runtime)
        groups: dict[tuple, list[TaskRuntime]] = {}
        for runtime in runtimes:
            spec = runtime.spec
            if spec.runmodel is RunModel.RUN_IN_JOBMANAGER:
                # coordinator tasks are placed one by one, on this servant
                self._place(job, [runtime])
                continue
            key = (spec.jar, spec.cls, spec.memory, spec.runmodel)
            groups.setdefault(key, []).append(runtime)
        for group in groups.values():
            self._place(job, group)
        notifications: list[Message] = []
        for runtime in runtimes:
            if job.has_ledgered(runtime.name):
                # messages routed to this task before it had a queue (the
                # placement window) were ledgered instead of raising at
                # the sender; deliver them now that the queue exists
                job.replay_into(runtime.name)
            notifications.append(
                Message(
                    MessageType.TASK_CREATED,
                    sender=self.name,
                    recipient="client",
                    payload={"task": runtime.name, "node": runtime.node_name},
                )
            )
        job.route_many(notifications)
        return runtimes

    def _place(self, job: Job, runtimes: list[TaskRuntime]) -> None:
        """Place *runtimes* (one template) and record their telemetry:
        a ``place:<task>#<epoch>`` span per task, the placement counter
        and one placement-latency observation per call."""
        t = job.telemetry
        if t is None:
            self._place_inner(job, runtimes)
            return
        start = t.now()
        try:
            self._place_inner(job, runtimes)
        finally:
            end = t.now()
            t.metrics.counter("cn_placements_total", manager=self.name).inc(
                len(runtimes)
            )
            t.metrics.histogram("cn_placement_seconds").observe(end - start)
            # epoch was bumped by host_task on success, so each effective
            # placement round gets a distinct span under the task span
            for runtime in runtimes:
                t.spans.record(
                    job.job_id,
                    f"place:{runtime.name}#{runtime.epoch}",
                    start=start,
                    end=end,
                    name=f"place {runtime.name}",
                    kind="place",
                    parent_id=f"task:{runtime.name}",
                    node=runtime.node_name,
                    task=runtime.name,
                    epoch=runtime.epoch,
                )

    def _place_inner(self, job: Job, runtimes: list[TaskRuntime]) -> None:
        spec = runtimes[0].spec
        if spec.runmodel is RunModel.RUN_IN_JOBMANAGER and self.local_taskmanager:
            # coordinator-style task runs on this servant's own TM
            (runtime,) = runtimes
            task_class = self.registry.resolve(spec.jar, spec.cls)
            self.local_taskmanager.host_task(job, runtime, task_class)
            job.journal_event(
                "task-placed",
                {"task": spec.name, "node": runtime.node_name, "epoch": runtime.epoch},
            )
            return
        self._place_rule(job, runtimes)

    def _place_rule(self, job: Job, runtimes: list[TaskRuntime]) -> None:
        """Place a template-homogeneous batch through rule/bid/award.

        One :class:`~repro.cn.scheduler.PlacementRule` describing the
        whole batch is multicast; every node scores it locally (capacity,
        free memory, load, archive/producer locality) and answers with a
        single bid; :func:`~repro.cn.scheduler.award_bids` converts the
        bids into awards deterministically.  Awards are epoch-fenced: the
        task epoch only advances on a successful ``host_task``, so a node
        that dies between bid and award simply fails the award and the
        task re-enters the next bidding round -- a zombie attempt can
        never double-place because its epoch never advanced.
        """
        spec0 = runtimes[0].spec
        by_name = {rt.name: rt for rt in runtimes}
        depends = tuple(sorted({d for rt in runtimes for d in rt.spec.depends}))
        with self._lock:
            self._rule_counter += 1
            seq = self._rule_counter
        t = job.telemetry
        task_class = self.registry.resolve(spec0.jar, spec0.cls)  # "upload the JAR"
        pending = [rt.name for rt in runtimes]
        excluded: set[str] = set()  # bidders that failed an award this placement
        round_no = 0
        while pending:
            round_no += 1
            rule = PlacementRule(
                rule_id=f"{job.job_id}/rule{seq}.{round_no}",
                job_id=job.job_id,
                manager=self.name,
                jar=spec0.jar,
                cls=spec0.cls,
                memory=spec0.memory,
                runmodel=spec0.runmodel.value,
                tasks=tuple(pending),
                depends=depends,
                manager_epoch=job.manager_epoch,
            )
            responses = self.bus.solicit(
                Solicitation(kind="rule", requirements={"rule": rule}, sender=self.name)
            )
            # a dead node's stale bid must not win an award, and a bidder
            # that already failed an award this placement is distrusted
            dead = self.failure_detector.dead_nodes()
            bids = [
                bid
                for _, bid in responses
                if bid.taskmanager not in dead and bid.taskmanager not in excluded
            ]
            if t is not None:
                t.metrics.counter("cn_rules_published_total", manager=self.name).inc()
                t.metrics.counter("cn_bids_total", manager=self.name).inc(len(bids))
            awards, unplaced = award_bids(rule, bids)
            if not awards:
                raise NoWillingTaskManager(
                    f"no TaskManager bid to host {pending!r} "
                    f"(memory {spec0.memory}, runmodel {spec0.runmodel.value})"
                )
            if t is not None:
                t.metrics.counter("cn_awards_total", manager=self.name).inc(
                    len(awards)
                )
            failed: list[str] = []
            for task_name, tm_name in awards:
                runtime = by_name[task_name]
                tm = self._tm_lookup(tm_name)
                if tm is None:
                    excluded.add(tm_name)
                    failed.append(task_name)
                    continue
                try:
                    tm.host_task(job, runtime, task_class)
                except (ShutdownError, CnError):
                    # killed (or filled up) between bid and award: exclude
                    # the bidder and re-bid; the epoch fence makes this
                    # safe against double placement
                    excluded.add(tm_name)
                    failed.append(task_name)
                    continue
                job.journal_event(
                    "task-placed",
                    {
                        "task": task_name,
                        "node": runtime.node_name,
                        "epoch": runtime.epoch,
                        "rule": rule.rule_id,
                    },
                )
            # progress each round: either a task placed (pending shrinks)
            # or a bidder was excluded (bid pool shrinks) -- and an empty
            # award set raises above, so the loop terminates
            pending = failed + unplaced

    # -- starting & DAG driving ------------------------------------------------------
    def start_task(self, job: Job, name: str, *, claim_only: bool = False) -> bool:
        """Start one task explicitly (dependencies are not checked; the
        generated clients start roots and let completion drive the rest).

        Under ``claim_only`` a hosting that vanished between placement and
        start (node crash) is not an error -- the task is simply not
        started here; recovery will re-place and start it."""
        runtime = job.task(name)
        try:
            tm = self._tm_for(runtime)
        except CnError:
            if claim_only:
                return False
            raise
        try:
            return tm.start_task(
                job, name, on_terminal=self._on_terminal, claim_only=claim_only
            )
        except (CnError, ShutdownError):
            if claim_only:
                return False
            raise

    def start_job(self, job: Job) -> None:
        """Start every dependency-free task; the completion callback
        cascades through the DAG."""
        ready = job.ready_tasks()
        if not ready and not job.finished:
            raise CnError(f"job {job.job_id} has no startable tasks")
        for runtime in ready:
            # claim_only: an already-finished task's completion callback
            # may have started this one a moment ago
            self.start_task(job, runtime.name, claim_only=True)

    def _journal_task_state(self, job: Job, runtime: TaskRuntime) -> None:
        data: dict = {
            "task": runtime.name,
            "state": runtime.state.value,
            "attempts": runtime.attempts,
        }
        if runtime.state is TaskState.COMPLETED:
            data["result"] = runtime.result
        if runtime.error:
            data["error"] = runtime.error
        job.journal_event("task-state", data)
        # computed from the roster, not job.finished: the journal write must
        # land before note_terminal flips the finished event (write-ahead --
        # a woken client may tear the cluster down immediately)
        failed = job.failed is not None or runtime.state is TaskState.FAILED
        if failed or all(t.state.terminal for t in job.tasks.values()):
            job.journal_event("job-finished", {"failed": failed})

    def _on_terminal(self, job: Job, finished: TaskRuntime) -> None:
        self._journal_task_state(job, finished)
        if finished.state is TaskState.RETRYING:
            self._retry(job, finished)
            return
        if finished.state is not TaskState.COMPLETED:
            return  # failure/cancel: fail fast, do not cascade
        for runtime in job.ready_tasks():
            # benign race with start_job / sibling callbacks: claim_only
            # makes exactly one starter win
            self.start_task(job, runtime.name, claim_only=True)

    def _retry(self, job: Job, runtime: TaskRuntime) -> None:
        """Re-place and restart a failed task with retry budget left."""
        self._recover(job, [runtime], reason="retry")

    def _recover(
        self, job: Job, runtimes: Iterable[TaskRuntime], *, reason: str
    ) -> None:
        """The single recovery path for retries, deadline expiries, and
        node failures: evict the old hosting, back off (retries only),
        re-place through a fresh 1-task rule, replay the task's message ledger
        into the new queue, and restart whatever became ready.

        The re-placement may land on a different node -- the useful
        property when the failure was node-local.  Replay makes delivery
        at-least-once across attempts; peers must tolerate duplicates
        (documented on TaskContext)."""
        recovered: list[TaskRuntime] = []
        t = job.telemetry
        for runtime in runtimes:
            if runtime.state.terminal:
                continue
            if t is not None:
                t.metrics.counter("cn_recoveries_total", reason=reason).inc()
            old_tm = self._tm_lookup(runtime.node_name or "")
            if old_tm is not None:
                old_tm.evict(job, runtime.name)
            if reason == "retry":
                # exponential backoff with deterministic jitter between
                # attempts; sleeper is injectable so tests don't wait
                delay = self.backoff.delay(runtime.attempts + 1, key=runtime.name)
                if delay > 0:
                    self._sleeper(delay)
            runtime.state = TaskState.PENDING
            try:
                self._place(job, [runtime])
            except CnError:
                runtime.state = TaskState.FAILED
                runtime.error = (
                    (runtime.error or "")
                    + f"\n{reason}: re-placement failed for attempt "
                    f"{runtime.attempts + 1} (no willing TaskManager)"
                )
                self._route_safe(
                    job,
                    Message(
                        MessageType.TASK_FAILED,
                        sender=self.name,
                        recipient="client",
                        payload={"task": runtime.name, "error": runtime.error},
                    ),
                )
                self._journal_task_state(job, runtime)
                job.note_terminal(runtime.name)
                continue
            job.replay_into(runtime.name)
            recovered.append(runtime)
        ready = {rt.name for rt in job.ready_tasks()}
        for runtime in recovered:
            if runtime.name in ready:
                self.start_task(job, runtime.name, claim_only=True)

    def _route_safe(self, job: Job, message: Message) -> None:
        """Route a notification, recording (not swallowing silently) the
        cases where the job side is already torn down."""
        try:
            job.route(message)
        except (ShutdownError, UnknownTaskError) as exc:
            from .trace import note_undeliverable  # local: trace imports api

            note_undeliverable(job.job_id, message, exc)

    def _tm_lookup(self, node_name: str) -> Optional[TaskManager]:
        with self._lock:
            tm = self._taskmanagers.get(node_name)
        if tm is None and self.local_taskmanager is not None:
            if self.local_taskmanager.name == node_name:
                tm = self.local_taskmanager
        return tm

    def _tm_for(self, runtime: TaskRuntime) -> TaskManager:
        if runtime.node_name is None:
            raise CnError(f"task {runtime.name!r} has not been placed")
        tm = self._tm_lookup(runtime.node_name)
        if tm is None:
            raise CnError(f"unknown TaskManager {runtime.node_name!r}")
        return tm

    # -- status -----------------------------------------------------------------
    def query_status(self, job: Job) -> dict:
        """Answer a QUERY_STATUS request: per-task state and placement plus
        job-level summary.  A STATUS message with the same payload is also
        delivered to the client queue (the well-defined request/response
        pair of the CN message protocol)."""
        payload = {
            "job_id": job.job_id,
            "client": job.client_name,
            "finished": job.finished,
            "failed": job.failed is not None,
            "tasks": {
                name: {
                    "state": job.tasks[name].state.value,
                    "node": job.tasks[name].node_name,
                }
                for name in job.task_names()
            },
        }
        # job already torn down: the return value still answers, but the
        # undelivered STATUS is recorded rather than silently dropped
        self._route_safe(
            job,
            Message(
                MessageType.STATUS,
                sender=self.name,
                recipient="client",
                payload=payload,
            ),
        )
        return payload

    # -- cancellation / shutdown ---------------------------------------------------
    def cancel_job(self, job: Job) -> None:
        for name in job.task_names():
            runtime = job.task(name)
            if runtime.node_name is not None and not runtime.state.terminal:
                tm = self._tm_lookup(runtime.node_name)
                if tm is not None:
                    tm.cancel_task(job, name)

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            jobs = list(self.jobs.values())
        for job in jobs:
            if not job.finished:
                self.cancel_job(job)
            job.client_queue.close()

    def __repr__(self) -> str:
        return f"<JobManager {self.name!r} jobs={len(self.jobs)}>"
