"""Web-portal prototype tests: in-process service and HTTP wrapper."""

import json
import urllib.error
import urllib.request

import pytest

from repro.apps.montecarlo import build_pi_model, register_pi_tasks
from repro.cn import AdmissionController, Cluster
from repro.cn.portal import Portal, PortalHTTPServer
from repro.cn.registry import TaskRegistry
from repro.core.xmi import write_graph


@pytest.fixture(scope="module")
def portal():
    registry = register_pi_tasks(TaskRegistry())
    portal = Portal(
        Cluster(3, registry=registry, memory_per_node=64000), transform="native"
    )
    yield portal
    portal.close()
    portal.cluster.shutdown()


@pytest.fixture(scope="module")
def http_portal(portal):
    server = PortalHTTPServer(portal).start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def guarded_portal():
    """A portal with overload protection dialed down small enough to
    trip in tests: 2-submission bursts per tenant, 16 KiB bodies."""
    registry = register_pi_tasks(TaskRegistry())
    cluster = Cluster(2, registry=registry, memory_per_node=64000)
    portal = Portal(
        cluster,
        transform="native",
        admission=AdmissionController(cluster, rate=0.2, burst=2.0),
        max_body_bytes=16384,
    )
    yield portal
    portal.close()
    cluster.shutdown()


@pytest.fixture(scope="module")
def guarded_http(guarded_portal):
    server = PortalHTTPServer(guarded_portal).start()
    yield server
    server.stop()


def pi_xmi(samples=20000, workers=3):
    return write_graph(build_pi_model(samples=samples, seed=1, n_workers=workers))


class TestPortalService:
    def test_submit_runs_pipeline(self, portal):
        submission = portal.submit(pi_xmi())
        assert submission.status == "done"
        assert submission.results[0]["pijoin"]["samples"] == 20000
        assert "<cn2>" in submission.cnx_text
        assert "def run(cluster" in submission.python_source
        assert "public class" in submission.java_source

    def test_failed_submission_recorded(self, portal):
        submission = portal.submit("<not-xmi/>")
        assert submission.status == "failed"
        assert submission.error

    def test_listing_and_lookup(self, portal):
        before = len(portal.list())
        submission = portal.submit(pi_xmi())
        assert len(portal.list()) == before + 1
        assert portal.get(submission.submission_id) is submission
        with pytest.raises(KeyError):
            portal.get(99999)

    def test_artifacts_downloadable(self, portal):
        submission = portal.submit(pi_xmi())
        artifacts = submission.artifacts()
        assert set(artifacts) == {
            "xmi",
            "cnx",
            "client.py",
            "client.java",
            "diagnostics",
            "faults",
            "failovers",
            "dead-letters",
            "timeline",
            "telemetry.jsonl",
        }
        assert artifacts["xmi"].startswith("<XMI")
        # the submission ran a traced job, so the timeline is populated
        assert json.loads(artifacts["timeline"])["traceEvents"]
        assert json.loads(artifacts["diagnostics"]) == []
        assert json.loads(artifacts["faults"]) == []
        assert json.loads(artifacts["failovers"]) == []
        assert json.loads(artifacts["dead-letters"]) == []


class TestPortalAdmission:
    def test_quota_rejection_is_o1_and_parses_nothing(self, guarded_portal):
        # burn tenant "inproc"'s burst, then verify the rejection path
        guarded_portal.submit(pi_xmi(samples=2000, workers=2), tenant="inproc")
        guarded_portal.submit(pi_xmi(samples=2000, workers=2), tenant="inproc")
        refused = guarded_portal.submit("this is not even XML", tenant="inproc")
        assert refused.status == "throttled"
        assert refused.retry_after > 0
        # rejected before parsing: no pipeline artifacts, no traceback
        assert refused.cnx_text == ""
        assert "admission" in refused.error

    def test_in_flight_released_after_submission(self, guarded_portal):
        guarded_portal.submit(pi_xmi(samples=2000, workers=2), tenant="flight")
        assert guarded_portal.admission.in_flight("flight") == 0

    def test_in_flight_released_after_failure(self, guarded_portal):
        submission = guarded_portal.submit("<garbage/>", tenant="crashy")
        assert submission.status == "failed"
        assert guarded_portal.admission.in_flight("crashy") == 0

    def test_admission_metrics_recorded(self, guarded_portal):
        guarded_portal.submit(pi_xmi(samples=2000, workers=2), tenant="metered")
        metrics = guarded_portal.cluster.telemetry.metrics
        assert metrics.value("cn_admission_total", decision="admit") >= 1

    def test_saturation_rejection_in_process(self, guarded_portal, monkeypatch):
        monkeypatch.setattr(guarded_portal.admission, "saturation", lambda: 0.99)
        submission = guarded_portal.submit(
            pi_xmi(samples=2000, workers=2), tenant="doomed"
        )
        assert submission.status == "saturated"
        assert submission.retry_after > 0


class TestPortalHTTP:
    def url(self, server, path):
        host, port = server.address
        return f"http://{host}:{port}{path}"

    def test_index_page(self, http_portal):
        body = urllib.request.urlopen(self.url(http_portal, "/")).read().decode()
        assert "CN Portal" in body

    def test_submit_and_fetch(self, http_portal):
        request = urllib.request.Request(
            self.url(http_portal, "/submit"), data=pi_xmi().encode(), method="POST"
        )
        response = json.load(urllib.request.urlopen(request))
        assert response["status"] == "done"
        sid = response["id"]
        detail = json.load(
            urllib.request.urlopen(self.url(http_portal, f"/submission/{sid}"))
        )
        assert detail["results"][0]["pijoin"]["samples"] == 20000
        cnx = (
            urllib.request.urlopen(self.url(http_portal, f"/submission/{sid}/cnx"))
            .read()
            .decode()
        )
        assert "<cn2>" in cnx

    def test_submissions_listing(self, http_portal):
        listing = json.load(
            urllib.request.urlopen(self.url(http_portal, "/submissions"))
        )
        assert isinstance(listing, list) and listing

    def test_404s(self, http_portal):
        for path in ("/nope", "/submission/424242", "/submission/1/ghost-artifact"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(self.url(http_portal, path))
            assert excinfo.value.code == 404

    def test_bad_submission_returns_500(self, http_portal):
        request = urllib.request.Request(
            self.url(http_portal, "/submit"), data=b"<garbage/>", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 500

    def test_oversized_body_rejected_413(self, guarded_http):
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=b"x" * 20000,  # guarded portal caps bodies at 16 KiB
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 413

    def test_unknown_content_type_rejected_415(self, guarded_http):
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=b"{}",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 415

    def test_xml_content_type_accepted(self, guarded_http):
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=pi_xmi(samples=2000, workers=2).encode(),
            method="POST",
            headers={"Content-Type": "text/xml", "X-Tenant": "xml-ok"},
        )
        response = json.load(urllib.request.urlopen(request))
        assert response["status"] == "done"
        assert response["tenant"] == "xml-ok"

    def test_quota_breach_returns_429_with_retry_after(self, guarded_http):
        # the guarded admission controller allows a burst of 2 per tenant
        def post():
            request = urllib.request.Request(
                self.url(guarded_http, "/submit"),
                data=pi_xmi(samples=2000, workers=2).encode(),
                method="POST",
                headers={"X-Tenant": "bursty"},
            )
            return urllib.request.urlopen(request)

        assert json.load(post())["status"] == "done"
        assert json.load(post())["status"] == "done"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post()
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1

    def test_saturated_cluster_returns_503(self, guarded_http, monkeypatch):
        portal = guarded_http.portal
        monkeypatch.setattr(portal.admission, "saturation", lambda: 0.95)
        request = urllib.request.Request(
            self.url(guarded_http, "/submit"),
            data=pi_xmi(samples=2000, workers=2).encode(),
            method="POST",
            headers={"X-Tenant": "unlucky"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 503
        assert int(excinfo.value.headers["Retry-After"]) >= 1

    def test_runtime_args_header(self, http_portal):
        from repro.apps.floyd import register_floyd_tasks
        from repro.apps.floyd.model import build_fig5_model
        from repro.apps.floyd.io import store_matrix
        from repro.apps.floyd.serial import random_weighted_graph

        register_floyd_tasks(http_portal.portal.cluster.registry)
        matrix = random_weighted_graph(6, seed=2)
        source = store_matrix("portal-dyn", matrix)
        xmi = write_graph(build_fig5_model(matrix_source=source, sink=""))
        request = urllib.request.Request(
            self.url(http_portal, "/submit"),
            data=xmi.encode(),
            method="POST",
            headers={"X-Runtime-Args": json.dumps({"n_workers": 2})},
        )
        response = json.load(urllib.request.urlopen(request))
        assert response["status"] == "done"


@pytest.fixture(scope="module")
def floyd_portal():
    from repro.apps.floyd import floyd_registry

    portal = Portal(Cluster(3, registry=floyd_registry()), transform="native")
    yield portal
    portal.close()
    portal.cluster.shutdown()


def fig5_xmi(**options):
    from repro.apps.floyd import random_weighted_graph, store_matrix
    from repro.apps.floyd.model import build_fig5_model

    source = store_matrix("portal-injection", random_weighted_graph(6, seed=3))
    return write_graph(build_fig5_model(matrix_source=source, sink="", **options))


class TestPortalInjection:
    """Model text reaches generated Python source and an ``eval``; neither
    may become code the portal runs."""

    def test_client_class_cannot_inject_code(self, floyd_portal):
        import builtins

        name = 'X"""\nimport builtins; builtins.CN_PWNED_CLASS = 1\n"""'
        try:
            submission = floyd_portal.submit(
                fig5_xmi(name=name), runtime_args={"n_workers": 2}
            )
            assert not hasattr(builtins, "CN_PWNED_CLASS")
            assert submission.status == "done", submission.error
            namespace = {}
            exec(compile(submission.python_source, "<client>", "exec"), namespace)
            assert namespace["CLIENT_CLASS"] == name
        finally:
            if hasattr(builtins, "CN_PWNED_CLASS"):
                del builtins.CN_PWNED_CLASS

    def test_argument_expression_cannot_escape_to_builtins(self, floyd_portal):
        import builtins

        # restricted builtins alone: catch_warnings()._module.__builtins__
        # is the real builtins dict, reachable through attribute access
        escape = (
            "[(b['setattr'](b['__import__']('builtins'), 'CN_PWNED_ARGS', 1),) "
            "for c in ().__class__.__mro__[1].__subclasses__() "
            "if c.__name__ == 'catch_warnings' "
            "for b in [c()._module.__builtins__]]"
        )
        try:
            submission = floyd_portal.submit(
                fig5_xmi(argument_expr=escape), runtime_args={"n_workers": 2}
            )
            assert not hasattr(builtins, "CN_PWNED_ARGS")
            assert submission.status == "rejected"
            assert "CN305" in {d["code"] for d in submission.diagnostics}
        finally:
            if hasattr(builtins, "CN_PWNED_ARGS"):
                del builtins.CN_PWNED_ARGS

    def test_allow_listed_argument_expression_still_runs(self, floyd_portal):
        submission = floyd_portal.submit(fig5_xmi(), runtime_args={"n_workers": 2})
        assert submission.status == "done", submission.error
        assert "taskjoin" in submission.results[0]
