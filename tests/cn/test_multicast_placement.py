"""Multicast discovery, JobManager selection, TaskManager placement."""

import pytest

from repro.cn import (
    CNAPI,
    Cluster,
    NoWillingJobManager,
    NoWillingTaskManager,
    RunModel,
    TaskSpec,
)
from repro.cn.multicast import MulticastBus, Solicitation

from ..conftest import basic_registry


class TestBus:
    def test_solicit_collects_offers(self):
        bus = MulticastBus()
        bus.subscribe("a", lambda s: {"v": 1})
        bus.subscribe("b", lambda s: None)  # unwilling
        bus.subscribe("c", lambda s: {"v": 3})
        offers = bus.solicit(Solicitation("taskmanager", {}, "client"))
        assert [name for name, _ in offers] == ["a", "c"]

    def test_crashing_responder_skipped(self):
        bus = MulticastBus()

        def boom(s):
            raise RuntimeError("node down")

        bus.subscribe("bad", boom)
        bus.subscribe("good", lambda s: {"ok": True})
        offers = bus.solicit(Solicitation("jobmanager", {}, "client"))
        assert [name for name, _ in offers] == ["good"]

    def test_unsubscribe(self):
        bus = MulticastBus()
        bus.subscribe("a", lambda s: {})
        bus.unsubscribe("a")
        assert bus.solicit(Solicitation("jobmanager", {}, "c")) == []

    def test_stats_accounting(self):
        bus = MulticastBus(per_hop_latency=0.001)
        for name in "abc":
            bus.subscribe(name, lambda s: {})
        bus.solicit(Solicitation("jobmanager", {}, "c"))
        assert bus.stats.solicitations == 1
        assert bus.stats.deliveries == 3
        assert bus.stats.responses == 3
        assert bus.stats.simulated_latency == pytest.approx(0.003)


class TestJobManagerSelection:
    def test_create_job_selects_a_manager(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        assert handle.job_id
        first = api.get_message(handle, timeout=1)
        assert first.type == "JOB_CREATED"

    def test_no_managers(self, registry):
        cluster = Cluster(2, registry=registry)
        for server in cluster.servers:
            server.accept_jobs = False
        cluster.start()
        try:
            api = CNAPI(cluster)
            with pytest.raises(NoWillingJobManager):
                api.create_job("client")
        finally:
            cluster.shutdown()

    def test_prefer_requirement(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client", requirements={"prefer": "node2"})
        assert handle.job_id.startswith("node2/")

    def test_max_jobs_respected(self, registry):
        cluster = Cluster(1, registry=registry)
        cluster.servers[0].jobmanager.max_jobs = 2
        cluster.start()
        try:
            api = CNAPI(cluster)
            api.create_job("c1")
            api.create_job("c2")
            with pytest.raises(NoWillingJobManager):
                api.create_job("c3")
        finally:
            cluster.shutdown()


class TestTaskPlacement:
    def spec(self, name="t", memory=1000, **kwargs):
        return TaskSpec(name=name, jar="echo.jar", cls="test.Echo", memory=memory, **kwargs)

    def test_placement_prefers_most_free_memory(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        # 4 nodes x 8000: first placements spread across nodes
        for i in range(4):
            api.create_task(handle, self.spec(f"t{i}", memory=4000))
        nodes = {handle.job.task(f"t{i}").node_name for i in range(4)}
        assert len(nodes) == 4, f"expected spread, got {nodes}"

    def test_memory_exhaustion(self, registry):
        cluster = Cluster(1, registry=registry, memory_per_node=1500)
        cluster.start()
        try:
            api = CNAPI(cluster)
            handle = api.create_job("client")
            api.create_task(handle, self.spec("t1", memory=1000))
            with pytest.raises(NoWillingTaskManager):
                api.create_task(handle, self.spec("t2", memory=1000))
        finally:
            cluster.shutdown()

    def test_memory_released_after_completion(self, registry):
        cluster = Cluster(1, registry=registry, memory_per_node=1500)
        cluster.start()
        try:
            api = CNAPI(cluster)
            h1 = api.create_job("client")
            api.create_task(h1, self.spec("t1", memory=1000))
            api.start_job(h1)
            api.wait(h1, timeout=10)
            h2 = api.create_job("client")
            api.create_task(h2, self.spec("t2", memory=1000))  # fits again
            api.start_job(h2)
            api.wait(h2, timeout=10)
        finally:
            cluster.shutdown()

    def test_oversized_task_never_places(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        with pytest.raises(NoWillingTaskManager):
            api.create_task(handle, self.spec(memory=10**9))

    def test_run_in_jobmanager_stays_local(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        spec = self.spec("local", runmodel=RunModel.RUN_IN_JOBMANAGER)
        api.create_task(handle, spec)
        manager_node = handle.manager.name.split("/")[0]
        assert handle.job.task("local").node_name == f"{manager_node}/tm"

    def test_nodes_that_reject_tasks(self, registry):
        cluster = Cluster(2, registry=registry)
        cluster.servers[0].accept_tasks = False
        cluster.start()
        try:
            api = CNAPI(cluster)
            handle = api.create_job("client")
            for i in range(3):
                api.create_task(handle, self.spec(f"t{i}"))
            nodes = {handle.job.task(f"t{i}").node_name for i in range(3)}
            assert nodes == {"node1/tm"}
        finally:
            cluster.shutdown()


class TestClusterLifecycle:
    def test_context_manager(self, registry):
        with Cluster(2, registry=registry) as cluster:
            assert len(cluster.bus.subscriber_names()) == 2
        assert cluster.bus.subscriber_names() == []

    def test_bad_node_count(self, registry):
        with pytest.raises(ValueError):
            Cluster(0, registry=registry)

    def test_server_lookup(self, cluster):
        assert cluster.server("node1").name == "node1"
        with pytest.raises(KeyError):
            cluster.server("ghost")

    def test_total_free_memory(self, registry):
        with Cluster(3, registry=registry, memory_per_node=1000) as cluster:
            assert cluster.total_free_memory() == 3000
