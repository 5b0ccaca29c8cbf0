"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import time

import pytest

from repro.cn.cluster import Cluster
from repro.cn.registry import TaskRegistry
from repro.cn.task import Task


class Echo(Task):
    """Returns its params; simplest possible task."""

    def __init__(self, *params):
        self.params = params

    def run(self, ctx):
        return tuple(self.params)


class Sleepy(Task):
    """Blocks on its queue until poked or cancelled."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        message = ctx.recv_user(timeout=30.0)
        return message.payload


class Boom(Task):
    """Always raises."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        raise RuntimeError("boom")


def wait_for_fenced_attempt(
    cluster: Cluster, job_id: str, task: str, timeout: float = 5.0
) -> None:
    """Block until an ``attempt:`` span of *task* ends with ``fenced=True``
    (the epoch fence discarded that run's outcome); fail after *timeout*."""
    prefix = f"attempt:{task}#"
    deadline = time.monotonic() + timeout
    while not any(
        span.span_id.startswith(prefix) and span.attrs.get("fenced")
        for span in cluster.telemetry.spans.spans(job_id)
    ):
        if time.monotonic() > deadline:
            pytest.fail(f"no fenced attempt of {task!r} within {timeout} s")
        time.sleep(0.005)


def basic_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("echo.jar", "test.Echo", Echo)
    registry.register_class("sleepy.jar", "test.Sleepy", Sleepy)
    registry.register_class("boom.jar", "test.Boom", Boom)
    return registry


@pytest.fixture(autouse=True)
def _isolate_undeliverable_log():
    """The undeliverable log in repro.cn.trace is process-global (it
    outlives clusters by design, like a syslog); without this reset a
    test tearing down a cluster mid-flight leaks entries into whichever
    test asserts on the log next."""
    from repro.cn.trace import clear_undeliverable

    clear_undeliverable()
    yield
    clear_undeliverable()


@pytest.fixture
def registry() -> TaskRegistry:
    return basic_registry()


@pytest.fixture
def cluster(registry):
    with Cluster(4, registry=registry) as c:
        yield c


@pytest.fixture
def big_cluster(registry):
    with Cluster(8, registry=registry, memory_per_node=16000) as c:
        yield c
