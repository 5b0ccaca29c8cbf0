"""The execution-backend interface: Transport / Endpoint / WireCodec.

Until this subsystem existed the "wire" between the coordinator and a
task's execution site was an implicit Python function call: the
TaskManager instantiated the task class and ran ``run(context)`` inline
on a thread.  That is now one *backend* behind an explicit seam:

* :class:`WireCodec` -- turns arbitrary payload objects into frame
  segments and back (the proc backend's codec speaks pickle protocol 5
  with out-of-band buffers; see :mod:`.codec`);
* :class:`Endpoint` -- one bidirectional frame channel (a socket to a
  worker process, or an in-memory loopback pair);
* :class:`TaskExecutor` -- runs one task attempt to completion given its
  hosting and context, returning the result or raising exactly what the
  inline ``instance.run(context)`` would have raised -- so the
  TaskManager's retry / deadline / epoch-fence machinery upstream of the
  seam is backend-agnostic;
* :class:`Transport` -- the backend itself: owns worker lifecycle, hands
  each TaskManager its executor, reports health and wire statistics.

Selection happens at cluster construction: ``Cluster(transport="proc")``
asks :func:`create_transport`; ``transport=None`` defers to the
``CN_TRANSPORT`` environment variable (so a whole test suite can be
re-run against the proc backend without edits) and falls back to
``"inproc"``, which preserves the seed behavior byte-for-byte.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..job import Job
    from ..task import TaskContext
    from ..taskmanager import HostedTask, TaskManager

__all__ = [
    "WireCodec",
    "Endpoint",
    "TaskExecutor",
    "Transport",
    "TRANSPORTS",
    "create_transport",
    "transport_from_env",
    "ENV_VAR",
]

#: environment variable consulted when ``Cluster(transport=None)``
ENV_VAR = "CN_TRANSPORT"


class WireCodec(abc.ABC):
    """Object <-> frame-segment codec for one wire format."""

    @abc.abstractmethod
    def encode(self, obj: Any) -> tuple[bytes, list[Any]]:
        """Serialize *obj* to ``(body, out_of_band_buffers)``."""

    @abc.abstractmethod
    def decode(self, body: Any, buffers: list[Any]) -> Any:
        """Rebuild the object from its body and out-of-band buffers."""


class Endpoint(abc.ABC):
    """One bidirectional frame channel between two parties.

    ``send`` must be safe to call from multiple threads; ``recv`` has a
    single reader (the demux loop on each side).  Payloads must survive
    the codec: anything process-local (locks, open files, lambdas) is a
    bug at the call site, which the conclint CC404 pass flags statically.
    """

    @abc.abstractmethod
    def send(self, obj: Any) -> None:
        """Frame and write one object; raises TransportError when closed."""

    @abc.abstractmethod
    def recv(self) -> Optional[Any]:
        """Next decoded frame, or None on clean end-of-stream."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the channel (idempotent)."""

    def stats(self) -> dict[str, int]:
        """Cumulative ``{frames_sent, frames_received, bytes_sent,
        bytes_received}`` for telemetry; zeroes by default."""
        return {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
        }


class TaskExecutor(abc.ABC):
    """Runs one task attempt for a TaskManager.

    The contract mirrors the historical inline call exactly: return the
    task's result, or raise whatever ``instance.run(context)`` raised --
    including :class:`~repro.cn.errors.ShutdownError` for a cancelled /
    timed-out attempt -- so every outcome lands in the TaskManager's
    existing retry / failure / cancellation arms.
    """

    @abc.abstractmethod
    def execute(
        self,
        manager: "TaskManager",
        hosted: "HostedTask",
        context: "TaskContext",
    ) -> Any:
        """Run the attempt to completion; returns the task result."""

    def healthy(self) -> bool:
        """Whether this node's execution substrate is still usable; a
        False return silences the node's heartbeat so the ordinary
        failure detection / recovery path takes over."""
        return True


class Transport(abc.ABC):
    """An execution backend: worker lifecycle + per-node executors."""

    #: registry key ("inproc", "proc")
    name: str = "?"

    @abc.abstractmethod
    def executor_for(self, manager: "TaskManager") -> TaskExecutor:
        """The executor this TaskManager runs attempts through."""

    def start(self) -> None:
        """Bring the backend up (workers may also start lazily)."""

    def stop(self) -> None:
        """Tear the backend down; must be idempotent."""

    def healthy(self, node: str) -> bool:
        """Whether *node*'s execution substrate is alive."""
        return True

    def stats(self) -> dict[str, Any]:
        """Wire statistics for telemetry sampling (empty when trivial)."""
        return {}

    #: hooks the proc executor uses to reach coordinator-side state;
    #: populated by the Cluster wiring (kept here so InProc need not care)
    def bind_cluster(self, cluster: Any) -> None:
        """Give the backend a back-reference to the owning cluster."""


#: name -> zero-argument factory of the backend
TRANSPORTS: dict[str, Callable[[], Transport]] = {}


def register_transport(name: str, factory: Callable[[], Transport]) -> None:
    TRANSPORTS[name] = factory


def create_transport(name: str) -> Transport:
    """Instantiate a registered backend by name with its defaults."""
    try:
        factory = TRANSPORTS[name]
    except KeyError:
        known = ", ".join(sorted(TRANSPORTS))
        raise ConfigError(
            f"unknown transport {name!r}; known backends: {known}"
        ) from None
    return factory()


def transport_from_env(default: str = "inproc") -> str:
    """The backend name the environment selects (``CN_TRANSPORT``)."""
    value = os.environ.get(ENV_VAR, "").strip()
    return value if value else default
